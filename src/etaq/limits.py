"""Double partial sums C(n,h), S(n,h) over the signed divisor indicator and
the series coefficients, the two iterated limits, and the commutativity gap
between them.

C(n,h) = sum_(k<=n) f(k,h) a_k and S(n,h) likewise with b_k, where f(k,h)
counts (with sign) the elements among the ordering's first h that divide k.
They are carried as one complex sum C + iS of f(k,h) (a_k + i b_k), and
every quantity the reports carry is one complex value X = X_cos + i X_sin,
split into its cos and sin parts only in the gap JSON.
The n-then-h iterated limit B is summed directly by `limit_B` and has the
closed form conj(geom - eta), `b_oracle` (the signed sum over k outside the
powers of two); the h-then-n limit is, term by term in h, the conjugate of
eta(s) times a signed prefix sum of q^(-s).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _text
from . import series as se
from .qset import QOrdering
from .series import StripPoint

A_SPREAD_TOL = 1e-9  # largest last-quarter spread of a converged A
MAX_CELLS = 10**7  # a surface holds 16 bytes per (n, h) cell: about 0.16 GB


def check_cell_count(cells: int, what: str = "surface") -> None:
    """Reject a surface of more than MAX_CELLS (n, h) cells."""
    if cells > MAX_CELLS:
        raise ValueError(f"{what}: {cells} cells exceed the cap {MAX_CELLS} "
                         "(16 bytes per cell)")


@dataclass(frozen=True)
class SumSurface:
    n_axis: tuple[int, ...]
    h_axis: tuple[int, ...]
    C: np.ndarray  # shape (len(n_axis), len(h_axis))
    S: np.ndarray

    def write_csv(self, fh) -> None:
        n_axis = np.array(self.n_axis, dtype=np.int64)
        h_axis = np.array(self.h_axis, dtype=np.int64)

        def cells(start, stop):
            # the block's n rows, and the cells' places in their raveled copy
            first, cell = divmod(start, len(h_axis))
            rows = slice(first, (stop - 1) // len(h_axis) + 1)
            at = np.arange(cell, cell + stop - start)
            i = at // len(h_axis)
            return ((n_axis[rows], i), (h_axis, at - i * len(h_axis)),
                    self.C[rows].ravel()[at], self.S[rows].ravel()[at])

        _text.write_csv(fh, "n,h,C,S\n", len(n_axis) * len(h_axis), cells)


def _validate_axes(n_axis, h_axis):
    n_axis = tuple(int(n) for n in n_axis)
    h_axis = tuple(int(h) for h in h_axis)
    if any(n < 1 for n in n_axis) or any(h < 0 for h in h_axis):
        raise ValueError("axes must have n >= 1, h >= 0")
    if list(n_axis) != sorted(set(n_axis)) or list(h_axis) != sorted(set(h_axis)):
        raise ValueError("axes must be strictly ascending")
    return n_axis, h_axis


def strided_partials(p: StripPoint, values, n: int):
    """Yield, for each element q of `values`, its strided complex prefix sums
    P_q(m) = sum_(j<=m) (a_(jq) + i b_(jq)) for m = 0..n // q.

    The first n terms are one complex array from `series.term_arrays` (16
    bytes per term), and each P_q is one strided complex cumsum over it.
    Complex cumsum works on each part separately, in the order the two real
    sums would.
    """
    terms = se.term_arrays(p, n)
    for q in values.tolist():
        partial = np.zeros(n // q + 1, dtype=complex)
        np.cumsum(terms[q - 1::q], out=partial[1:])
        yield partial


def c_s_running(p: StripPoint, values, signs, n_rows):
    """Yield the running C + iS over `n_rows` after each element of an
    ordering's prefix, given as its `values` and `signs`.

    C + iS is one sum of f(k,h) (a_k + i b_k), so C(n,h) + iS(n,h) =
    sum_(i<=h) sgn(q_i) P_(q_i)(n // q_i) with P_q from `strided_partials`:
    each element adds one strided complex prefix sum, read at n // q.
    Complex add and subtract work on each part separately.  No powers-of-two
    mask is needed, since an odd q divides no power of two.  The yielded
    vector is updated in place; copy it to keep a column.
    """
    n_rows = np.asarray(n_rows, dtype=np.int64)
    partials = strided_partials(p, values, int(n_rows.max(initial=0)))
    total = np.zeros(len(n_rows), dtype=complex)
    for q, sign, partial in zip(values.tolist(), signs.tolist(), partials):
        (np.add if sign > 0 else np.subtract)(total, partial[n_rows // q], out=total)
        yield total


def c_s_surface(p: StripPoint, ordering: QOrdering, n_axis, h_axis) -> SumSurface:
    """Exact truncated double sums on the given axes.

    One pass of `c_s_running` over the ordering's first max(h_axis)
    elements fills one complex (n x h) matrix, whose real and imaginary
    views are C and S.  Columns at h = 0 and cells with n below every
    element stay 0.0.
    """
    n_axis, h_axis = _validate_axes(n_axis, h_axis)
    check_cell_count(len(n_axis) * len(h_axis))
    cs = np.zeros((len(n_axis), len(h_axis)), dtype=complex)
    column = {h: j for j, h in enumerate(h_axis)}
    values, signs = ordering.arrays(max(h_axis, default=0))
    for h, total in enumerate(c_s_running(p, values, signs, n_axis), start=1):
        if h in column:
            cs[:, column[h]] = total
    return SumSurface(n_axis=n_axis, h_axis=h_axis, C=cs.real, S=cs.imag)


def c_s_naive(p: StripPoint, ordering: QOrdering, n: int, h: int) -> tuple[float, float]:
    """Brute-force oracle: the defining triple loop, one (n,h) cell."""
    values, signs = ordering.arrays(h)
    prefix = list(zip(values.tolist(), signs.tolist()))
    c_terms = []
    s_terms = []
    for k in range(1, n + 1):
        a_k, b_k = se.term_ab(k, p)
        for q, sign in prefix:
            if k % q == 0:
                c_terms.append(sign * a_k)
                s_terms.append(sign * b_k)
    return math.fsum(c_terms), math.fsum(s_terms)


def limit_A_series(p: StripPoint, values, signs, eta: complex) -> np.ndarray:
    """Inner limits lim_n C(n,h) + i lim_n S(n,h) for h = 1..len(values),
    over an ordering's prefix given as its `values` and `signs`: one complex
    array A_cos + i A_sin.

    Each equals the conjugate of `eta`, the value of eta(s), times the
    signed prefix sum of q_i^(-s) (the odd subseries closed form).
    """
    # One expression: the terms are freed once summed, and numpy multiplies
    # a large temporary by eta in place, so this holds two arrays at most.
    return np.conj(np.cumsum(odd_terms(p, values, signs)) * eta)


def odd_terms(p: StripPoint, values, signs) -> np.ndarray:
    """Each element's term sgn(q) q^(-s) of the prefix sums behind A."""
    return signs * np.exp(-p.s * np.log(values))


@dataclass(frozen=True)
class BEstimate:
    """The n-then-h limit B = B_cos + i B_sin as its `direct` truncation at
    `budget` terms."""

    direct: complex
    budget: int


def b_oracle(p: StripPoint, eta: complex, tol: float = 1e-12) -> complex:
    """The closed form of B, conj(geom_closed(s) - eta) with `eta` the value
    of eta(s): geom - eta = sum_(k not a power of two) -(-1)^(k-1) k^(-s).
    Raises ValueError near geom_closed's pole s = 0, where its error bound
    `series.geom_error` exceeds tol."""
    geom_err = se.geom_error(p)
    if not geom_err <= tol:
        raise ValueError(f"the B oracle's closed form errs by up to {geom_err:.3e} > etaTol "
                         f"{tol:.3e} at s=({p.x},{p.y}), near its pole s = 0")
    return (se.geom_closed(p) - eta).conjugate()


def limit_B(p: StripPoint, budget: int) -> BEstimate:
    """The n-then-h iterated limit sum f(k) (a_k + i b_k) = -sum_(k not in
    Gamma) (a_k + i b_k), truncated to `budget` terms with iterated tail
    averaging, streamed through `series.direct_sums` in blocks.  Its
    closed form is `b_oracle`; `commutativity_gap` reports their
    disagreement, never hides it.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    re, im, tail_re, tail_im = se.direct_sums(p, budget, window=se.TAIL_WINDOW,
                                              prepare=_negated_outside_gamma)
    return BEstimate(complex(se.tail_averaged_sum(re, tail_re)[0],
                             se.tail_averaged_sum(im, tail_im)[0]), budget)


def _negated_outside_gamma(lo: int, a: np.ndarray, b: np.ndarray) -> None:
    """A block of terms, from position lo, as -(a_k, b_k) with the terms at
    k = 2^l (positions 2^l - 1) zeroed."""
    gamma = (1 << np.arange(lo.bit_length(), (lo + len(a)).bit_length())) - 1 - lo
    a[gamma] = b[gamma] = 0.0
    np.negative(a, out=a)
    np.negative(b, out=b)


@dataclass(frozen=True)
class LimitReport:
    """Both iterated limits as complex values X = X_cos + i X_sin: the
    read-only h-then-n series `A`, the direct `B` (None at budget 0), the
    closed-form `oracle_B` and `gap` = oracle_B - A[-1].  `write_json`
    splits each into its `_cos` and `_sin` keys."""

    point: StripPoint
    ordering_id: str
    A: np.ndarray
    B: complex | None
    oracle_B: complex
    gap: complex
    a_converged: bool
    budget: int
    eta_tol: float
    notes: tuple[str, ...] = field(default=())

    def write_json(self, fh) -> None:
        """The report as the bytes of json.dump(..., indent=2) plus a newline,
        with A split into the lists A_cos and A_sin.  The scalar fields go
        through json; `_text.write_json_list` writes each A list a block of
        values at a time, as the bytes of repr (README, "CSV and JSON
        text")."""
        head = json.dumps({
            "point": {"x": self.point.x, "y": self.point.y},
            "orderingId": self.ordering_id,
        }, indent=2)
        tail = json.dumps({
            "B_cos": None if self.B is None else self.B.real,
            "B_sin": None if self.B is None else self.B.imag,
            "oracleB_cos": self.oracle_B.real,
            "oracleB_sin": self.oracle_B.imag,
            "gap_cos": self.gap.real,
            "gap_sin": self.gap.imag,
            "aConverged": self.a_converged,
            "aConvergenceTol": A_SPREAD_TOL,
            "hMax": len(self.A),
            "budget": self.budget,
            "etaTol": self.eta_tol,
            "notes": list(self.notes),
        }, indent=2)
        fh.write(head[:-2])  # drop the closing "\n}"
        for key, values in (("A_cos", self.A.real), ("A_sin", self.A.imag)):
            fh.write(f',\n  "{key}": ')
            _text.write_json_list(fh, values)
        fh.write(",\n" + tail[2:] + "\n")  # drop the opening "{\n"


def commutativity_gap(p: StripPoint, ordering: QOrdering, h_max: int | None,
                      budget: int, eta_tol: float = 1e-12) -> LimitReport:
    """Both iterated limits over the ordering's first h_max elements (all of
    them when h_max is None) and their gap.

    The inputs are checked, then eta(s) is evaluated once and the B oracle
    taken from it, before Q is sieved.  The gap is that oracle minus the
    final A value; B's direct truncation, when budget >= 1, is carried
    alongside with its disagreement noted.  A is flagged as converged only
    when its last quarter varies by less than A_SPREAD_TOL.
    """
    se.check_term_count(budget)
    se.check_tol(eta_tol, "etaTol")
    if h_max is not None and h_max < 0:
        raise ValueError("hMax must be >= 0")
    eta = se.eta_accel(p, eta_tol).value
    oracle = b_oracle(p, eta, eta_tol)
    a = limit_A_series(p, *ordering.arrays(h_max), eta)
    a.setflags(write=False)
    notes = []
    if len(a):
        tail = max(1, len(a) // 4)
        spread = max(np.ptp(a.real[-tail:]), np.ptp(a.imag[-tail:]))
        converged = bool(spread < A_SPREAD_TOL)
        if not converged:
            notes.append(f"A-limit not converged at this budget "
                         f"(last-quarter spread {spread:.3e} >= {A_SPREAD_TOL:.1e}); "
                         "gap reported against the final A value")
    else:
        converged = False
        notes.append("empty A array (hMax = 0); gap is the bare B oracle")
    direct = limit_B(p, budget).direct if budget else None
    if direct is None:
        notes.append("budget = 0: direct B estimate skipped")
    else:
        d = direct - oracle
        notes.append(f"direct B vs oracle disagreement: "
                     f"cos {abs(d.real):.3e}, sin {abs(d.imag):.3e}")
    return LimitReport(
        point=p, ordering_id=ordering.descriptor(), A=a, B=direct,
        oracle_B=oracle, gap=oracle - (complex(a[-1]) if len(a) else 0j),
        a_converged=converged, budget=budget, eta_tol=eta_tol,
        notes=tuple(notes))


def rh_contradiction_check(p: StripPoint, budget: int) -> tuple[float, float]:
    """Verify the contradiction-chain identity sum_Gamma a_k = sum a_k +
    sum f(k) a_k and its b_k analogue numerically, as one complex identity
    in the conjugate convention a_k + i b_k of the eta terms, each side
    through independent paths.

    Left side: the power-of-two subseries summed directly (geometric, so
    200 terms reach machine precision).  Right side, oracle path:
    accelerated eta plus `b_oracle` from that same eta, checked first;
    direct path: tail-averaged raw eta plus `limit_B`, which rejects a
    budget below 1.  Returns (residual_oracle, residual_direct), each the
    larger of the cos and sin parts of lhs - rhs on that path.
    """
    eta = se.eta_accel(p).value
    oracle = b_oracle(p, eta)
    direct = limit_B(p, budget).direct
    lhs = se.gamma_partial(p, 200).conjugate()
    diffs = (lhs - (eta.conjugate() + oracle),
             lhs - (se.eta_averaged(p).value.conjugate() + direct))
    return tuple(max(abs(d.real), abs(d.imag)) for d in diffs)
