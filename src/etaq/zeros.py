"""Critical-line zero ordinates: file ingestion, grid scanning on
|eta(1/2 + iy)|, and golden-section refinement.

Zeros are located as minima of |eta| rather than sign changes of a rotated
real function.  At the default tolerance 1e-12 the evaluator reaches height
about 196: `zeros scan` fails at y = 196.41 (1.001e-12), and `etaq eta 0.5
200` at 1.024e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .series import StripPoint, eta_accel, eta_accel_many

CRITICAL_X = 0.5
DEDUP_SPACING = 1e-6
MAX_SCAN_POINTS = 10_000_000
# grid points per eta_accel_many call: a scan that fails part way has done
# bounded work, and only |eta| (8 bytes per point) is kept for all points
_SCAN_CHUNK = 2**16

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class ZeroFileError(ValueError):
    """Malformed or inconsistent zero-ordinate file."""


class RefinementError(RuntimeError):
    """Refinement could not reach the requested residual; carries the best
    ordinate/residual achieved."""

    def __init__(self, message: str, ordinate: float, residual: float):
        super().__init__(message)
        self.ordinate = ordinate
        self.residual = residual


@dataclass(frozen=True)
class ZeroRecord:
    ordinate: float
    source: str           # "File" or "Scan"
    residual: float       # |eta(1/2 + i*ordinate)|
    refined: bool


def eta_abs(y: float, tol: float = 1e-12) -> float:
    """|eta(1/2 + iy)|."""
    return abs(eta_accel(StripPoint(CRITICAL_X, y), tol).value)


def load_zeros(path) -> list[ZeroRecord]:
    """Read ordinates (one positive decimal per line, ascending, '#' comments)
    and attach residuals.  Entries closer than 1e-6 are collapsed."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ZeroFileError(f"cannot read {path}: {exc}") from exc
    ordinates: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            y = float(text)
        except ValueError:
            raise ZeroFileError(f"{path}:{lineno}: not a decimal ordinate: {text!r}")
        if not (y > 0.0 and math.isfinite(y)):
            raise ZeroFileError(f"{path}:{lineno}: ordinate must be positive, got {y}")
        if ordinates and y <= ordinates[-1]:
            raise ZeroFileError(f"{path}:{lineno}: ordinates must be strictly "
                                f"ascending ({y} after {ordinates[-1]})")
        if ordinates and y - ordinates[-1] < DEDUP_SPACING:
            continue
        ordinates.append(y)
    return [ZeroRecord(ordinate=y, source="File", residual=eta_abs(y), refined=False)
            for y in ordinates]


def scan_zeros(y_min: float, y_max: float, step: float = 0.01,
               threshold: float = 0.05) -> list[ZeroRecord]:
    """Grid-scan |eta(1/2 + iy)|; candidates are interior local minima below
    threshold.  Candidates are unrefined.  The grid is evaluated by
    `eta_accel_many` in chunks of _SCAN_CHUNK points, which gives eta_abs's
    bits at every point."""
    if not y_min >= 0.0:
        raise ValueError(f"need yMin >= 0, got {y_min}")
    if not y_min <= y_max:
        raise ValueError(f"need yMin <= yMax, got [{y_min}, {y_max}]")
    if step <= 0.0:
        raise ValueError("step must be > 0")
    if y_min == y_max:
        return []
    count = int(math.floor((y_max - y_min) / step)) + 1
    if count > MAX_SCAN_POINTS:
        raise ValueError(f"scan would need {count} grid points "
                         f"(cap {MAX_SCAN_POINTS}); raise step")
    chunks = []
    for lo in range(0, count, _SCAN_CHUNK):
        ys = y_min + np.arange(lo, min(lo + _SCAN_CHUNK, count)) * step
        values, _ = eta_accel_many(CRITICAL_X, ys)
        chunks.append(np.hypot(values.real, values.imag))  # abs(complex) bit for bit
    vals = np.concatenate(chunks)
    mid = vals[1:-1]
    hits = np.flatnonzero((mid < threshold) & (mid <= vals[:-2]) & (mid <= vals[2:])) + 1
    # the same float as the grid's y_min + float(i) * step
    return [ZeroRecord(ordinate=float(y_min + i * step), source="Scan",
                       residual=float(vals[i]), refined=False) for i in hits.tolist()]


def refine_zero(y0: float, window: float = 0.05, tol: float = 1e-9) -> ZeroRecord:
    """Golden-section minimization of |eta(1/2 + iy)|^2 on [y0-window,
    y0+window].  Fails (best achieved attached) if the residual floor in the
    window stays above tol."""
    if window <= 0.0 or tol <= 0.0:
        raise ValueError("window and tol must be > 0")

    def g(y: float) -> float:
        return eta_abs(y, tol=1e-12) ** 2

    lo, hi = y0 - window, y0 + window
    m1 = hi - _INV_PHI * (hi - lo)
    m2 = lo + _INV_PHI * (hi - lo)
    g1, g2 = g(m1), g(m2)
    while hi - lo > 1e-12:
        if g1 < g2:
            hi, m2, g2 = m2, m1, g1
            m1 = hi - _INV_PHI * (hi - lo)
            g1 = g(m1)
        else:
            lo, m1, g1 = m1, m2, g2
            m2 = lo + _INV_PHI * (hi - lo)
            g2 = g(m2)
    best_y = 0.5 * (lo + hi)
    residual = eta_abs(best_y, tol=1e-12)
    if residual > tol:
        kind = ("no zero in window" if residual > max(1e-6, 10.0 * tol)
                else "tolerance unreachable at binary64")
        raise RefinementError(
            f"{kind}: best |eta| = {residual:.3e} > tol {tol:.1e} "
            f"at y = {best_y:.9f}", best_y, residual)
    return ZeroRecord(ordinate=best_y, source="Scan", residual=residual, refined=True)


def scan_and_refine(y_min: float, y_max: float, step: float = 0.01,
                    threshold: float = 0.05, window: float | None = None,
                    tol: float = 1e-9) -> list[ZeroRecord]:
    """Scan then refine each candidate; ordinates come back ascending."""
    if window is None:
        window = 2.0 * step
    return [refine_zero(rec.ordinate, window=window, tol=tol)
            for rec in scan_zeros(y_min, y_max, step, threshold)]


def write_csv(records: list[ZeroRecord], fh) -> None:
    fh.write("ordinate,residual,refined\n")
    for rec in records:
        fh.write(f"{rec.ordinate:.17g},{rec.residual:.17g},{int(rec.refined)}\n")
