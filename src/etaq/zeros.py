"""Critical-line zero ordinates: file ingestion, grid scanning on
|eta(1/2 + iy)|, and refinement (secant, golden-section fallback).

The scan takes candidates at minima of |eta|, and refinement takes them as
roots of the complex eta(1/2 + iy) at real y, with no rotation to a real
function.  At the default tolerance 1e-12 the evaluator reaches height
about 196: `zeros scan` fails at y = 196.41 (1.001e-12), and `etaq eta 0.5
200` at 1.024e-12.  Past `series.MAX_HEIGHT` (838.40) it meets no tolerance:
`refine_zero` rejects a window reaching past it, and `scan_count`, which
`scan_zeros` calls first, a grid, both before any evaluation.  `scan_zeros`
returns the scan's candidates, or with a `tol` the zeros refined from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _text
from .series import MAX_HEIGHT, StripPoint, check_tol, eta_accel, eta_grid

CRITICAL_X = 0.5
DEDUP_SPACING = 1e-6
MAX_SCAN_POINTS = 10_000_000
# grid points per chunk of eta_grid: a scan that fails part way has done
# bounded work, and only |eta| (8 bytes per point) is kept for all points
_SCAN_CHUNK = 2**16

_SECANT_STEPS = 20  # a candidate not converged after this many falls back to golden section
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class RefinementError(ValueError):
    """Refinement could not reach the requested residual; carries the best
    ordinate/residual achieved."""

    def __init__(self, message: str, ordinate: float, residual: float):
        super().__init__(message)
        self.ordinate = ordinate
        self.residual = residual


@dataclass(frozen=True)
class ZeroRecord:
    ordinate: float
    residual: float       # |eta(1/2 + i*ordinate)|
    refined: bool


def eta_abs(y: float) -> float:
    """|eta(1/2 + iy)| at eta_accel's default tolerance 1e-12."""
    return abs(eta_accel(StripPoint(CRITICAL_X, y)).value)


def load_zeros(path) -> list[ZeroRecord]:
    """Read ordinates (one decimal in (0, MAX_HEIGHT] per line, ascending,
    '#' comments) and attach residuals.  Entries closer than 1e-6 are collapsed."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    ordinates: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            y = float(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a decimal ordinate: {text!r}")
        if not 0.0 < y <= MAX_HEIGHT:
            raise ValueError(f"{path}:{lineno}: ordinate {y} not in (0, {MAX_HEIGHT:.2f}]")
        if ordinates and y <= ordinates[-1]:
            raise ValueError(f"{path}:{lineno}: ordinates must be strictly "
                             f"ascending ({y} after {ordinates[-1]})")
        if ordinates and y - ordinates[-1] < DEDUP_SPACING:
            continue
        ordinates.append(y)
    return [ZeroRecord(ordinate=y, residual=eta_abs(y), refined=False)
            for y in ordinates]


def scan_count(y_min: float, y_max: float, step: float, threshold: float) -> int:
    """The number of grid points of `scan_zeros`, every argument but `tol`
    checked; a grid past MAX_HEIGHT fails last, with StripPoint's message."""
    if not (math.isfinite(y_min) and math.isfinite(y_max)):
        raise ValueError(f"need finite yMin, yMax; got [{y_min}, {y_max}]")
    if not y_min >= 0.0:
        raise ValueError(f"need yMin >= 0, got {y_min}")
    if not y_min <= y_max:
        raise ValueError(f"need yMin <= yMax, got [{y_min}, {y_max}]")
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be finite and > 0, got {step}")
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    span = (y_max - y_min) / step  # inf when a tiny step overflows it
    count = math.floor(span) + 1 if math.isfinite(span) else span
    if count > MAX_SCAN_POINTS:
        raise ValueError(f"scan would need {count:.3g} grid points "
                         f"(cap {MAX_SCAN_POINTS}); raise step")
    StripPoint(CRITICAL_X, y_max)
    return count


def scan_zeros(y_min: float, y_max: float, step: float = 0.01,
               threshold: float = 0.05, tol: float | None = None) -> list[ZeroRecord]:
    """Grid-scan |eta(1/2 + iy)|; candidates are interior local minima below
    threshold.  Without `tol` they are unrefined, with eta_abs as their
    residual; with it each is refined by `refine_zero` in a window of two
    steps either side, and ordinates come back ascending.  The grid is
    checked first, then `tol`, both before any eta.  The grid is evaluated
    by `eta_grid` in chunks of _SCAN_CHUNK points, so a grid past the
    evaluator's reach fails after bounded work."""
    count = scan_count(y_min, y_max, step, threshold)
    if tol is not None:
        check_tol(tol, "tol")
    if y_min == y_max:
        return []
    vals = np.concatenate([np.abs(v) for v in eta_grid(CRITICAL_X, y_min, step, count,
                                                        _SCAN_CHUNK)])
    mid = vals[1:-1]
    hits = np.flatnonzero((mid < threshold) & (mid <= vals[:-2]) & (mid <= vals[2:])) + 1
    # the same float as the grid's y_min + float(i) * step
    ys = (y_min + hits * step).tolist()
    if tol is None:
        return [ZeroRecord(ordinate=y, residual=eta_abs(y), refined=False) for y in ys]
    return [refine_zero(y, window=2.0 * step, tol=tol) for y in ys]


def _secant(y0: float, window: float) -> float:
    """Secant steps y2 = y1 - Re[eta(y1) (y1 - y0) / (eta(y1) - eta(y0))] on
    eta(1/2 + iy) along real y from y0 -+ window / 2, until a step is below
    1e-14 |y|.  NaN if an iterate leaves [y0 - window, y0 + window] (equal
    etas make the step NaN or infinite, which leaves it) or after
    _SECANT_STEPS steps without converging."""

    def eta(y: float) -> complex:
        return eta_accel(StripPoint(CRITICAL_X, y)).value

    a, b = y0 - 0.5 * window, y0 + 0.5 * window
    fa, fb = eta(a), eta(b)
    for _ in range(_SECANT_STEPS):
        d = fb - fa
        c = b - (fb * (b - a) / d).real if d else math.nan
        if not y0 - window <= c <= y0 + window:
            return math.nan
        if abs(c - b) < 1e-14 * abs(c):
            return c
        a, fa, b, fb = b, fb, c, eta(c)
    return math.nan


def _golden(y0: float, window: float) -> float:
    """Golden-section minimization of |eta(1/2 + iy)|^2 on [y0-window,
    y0+window], to a bracket narrower than 1e-12; its midpoint."""

    def g(y: float) -> float:
        return eta_abs(y) ** 2

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
    return 0.5 * (lo + hi)


def refine_zero(y0: float, window: float = 0.05, tol: float = 1e-9) -> ZeroRecord:
    """The root of eta(1/2 + iy) on [y0-window, y0+window] by `_secant`, or
    where that fails by golden-section minimization of |eta|^2.  Fails (best
    achieved attached) if its residual eta_abs is above tol."""
    if not math.isfinite(y0):
        raise ValueError(f"y0 must be finite, got {y0}")
    if not (window > 0.0 and math.isfinite(window)):
        raise ValueError(f"window must be finite and > 0, got {window}")
    if not abs(y0) + window <= MAX_HEIGHT:
        raise ValueError(f"need |y0| + window <= {MAX_HEIGHT:.2f}, the eta evaluator's "
                         f"ceiling; got y0={y0}, window={window}")
    check_tol(tol, "tol")
    y = _secant(y0, window)
    if math.isnan(y):
        y = _golden(y0, window)
    residual = eta_abs(y)
    if residual > tol:
        kind = ("no zero in window" if residual > max(1e-6, 10.0 * tol)
                else "tolerance unreachable at binary64")
        raise RefinementError(
            f"{kind}: best |eta| = {residual:.3e} > tol {tol:.1e} "
            f"at y = {y:.9f}", y, residual)
    return ZeroRecord(ordinate=y, residual=residual, refined=True)


def write_csv(records: list[ZeroRecord], fh) -> None:
    _text.write_columns(fh, "ordinate,residual,refined\n",
                        np.array([r.ordinate for r in records], dtype=float),
                        np.array([r.residual for r in records], dtype=float),
                        np.array([r.refined for r in records], dtype=np.int64))
