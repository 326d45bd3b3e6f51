"""Double partial sums C(n,h), S(n,h) over the signed divisor indicator and
the series coefficients, the two iterated limits, and the commutativity gap
between them.

C(n,h) = sum_(k<=n) f(k,h) a_k and S(n,h) likewise with b_k, where f(k,h)
counts (with sign) the elements among the ordering's first h that divide k.
They are carried as one complex sum C + iS of f(k,h) (a_k + i b_k), and
every quantity the reports carry is one complex value X = X_cos + i X_sin,
split into its cos and sin parts only in the gap JSON.
The n-then-h iterated limit has the closed-form oracle conj(geom - eta) (the
signed sum over k outside the powers of two); the h-then-n limit is, term by
term in h, the conjugate of eta(s) times a signed prefix sum of q^(-s).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import series as se
from .qset import QOrdering
from .series import StripPoint


@dataclass(frozen=True)
class SumSurface:
    point: StripPoint
    ordering_id: str
    n_axis: tuple[int, ...]
    h_axis: tuple[int, ...]
    C: np.ndarray  # shape (len(n_axis), len(h_axis))
    S: np.ndarray

    def write_csv(self, fh) -> None:
        fh.write("n,h,C,S\n")
        # one row of Python floats at a time: whole-surface lists would
        # hold ~64 bytes per cell
        for n, c_row, s_row in zip(self.n_axis, self.C, self.S):
            fh.write("".join([f"{n},{h},{c:.17g},{s:.17g}\n" for h, c, s
                              in zip(self.h_axis, c_row.tolist(), s_row.tolist())]))


def _validate_axes(n_axis, h_axis):
    n_axis = tuple(int(n) for n in n_axis)
    h_axis = tuple(int(h) for h in h_axis)
    if any(n < 1 for n in n_axis) or any(h < 0 for h in h_axis):
        raise ValueError("axes must have n >= 1, h >= 0")
    if list(n_axis) != sorted(set(n_axis)) or list(h_axis) != sorted(set(h_axis)):
        raise ValueError("axes must be strictly ascending")
    return n_axis, h_axis


def c_s_running(p: StripPoint, values, signs, n_rows):
    """Yield the running C + iS over `n_rows` after each element of an
    ordering's prefix, given as its `values` and `signs`.

    C + iS is one sum of f(k,h) (a_k + i b_k), so the term arrays are packed
    into one complex array and C(n,h) + iS(n,h) = sum_(i<=h) sgn(q_i)
    P_(q_i)(n) with P_q(n) = sum_(m<=n/q) (a_(mq) + i b_(mq)): each element
    adds one strided complex prefix sum, read at n // q.  Complex cumsum,
    add and subtract work on each part separately, in the order the two
    real sums would.  No powers-of-two mask is needed, since an odd q
    divides no power of two.  The yielded vector is updated in place; copy
    it to keep a column.
    """
    n_rows = np.asarray(n_rows, dtype=np.int64)
    a, b = se.term_arrays(p, int(n_rows.max(initial=0)))
    terms = a.astype(complex)
    terms.imag = b
    del a, b
    total = np.zeros(len(n_rows), dtype=complex)
    for q, sign in zip(values.tolist(), signs.tolist()):
        partial = np.zeros(len(terms) // q + 1, dtype=complex)
        np.cumsum(terms[q - 1::q], out=partial[1:])
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
    cs = np.zeros((len(n_axis), len(h_axis)), dtype=complex)
    column = {h: j for j, h in enumerate(h_axis)}
    values, signs = ordering.arrays(max(h_axis, default=0))
    for h, total in enumerate(c_s_running(p, values, signs, n_axis), start=1):
        if h in column:
            cs[:, column[h]] = total
    return SumSurface(point=p, ordering_id=ordering.descriptor(),
                      n_axis=n_axis, h_axis=h_axis, C=cs.real, S=cs.imag)


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


def limit_A_series(p: StripPoint, values, signs, tol: float = 1e-12) -> np.ndarray:
    """Inner limits lim_n C(n,h) + i lim_n S(n,h) for h = 1..len(values),
    over an ordering's prefix given as its `values` and `signs`: one complex
    array A_cos + i A_sin.

    Each equals the conjugate of eta(s) times the signed prefix sum of
    q_i^(-s) (the odd subseries closed form), so the whole h-sequence costs
    one eta evaluation.
    """
    eta = se.eta_accel(p, tol).value
    return np.conj(np.cumsum(signs * np.exp(-p.s * np.log(values))) * eta)


def limit_A(p: StripPoint, ordering: QOrdering, h: int,
            tol: float = 1e-12) -> tuple[float, float]:
    """Inner limit over n for a single h (0 gives the empty sum)."""
    if h < 0:
        raise ValueError("h must be >= 0")
    if h == 0:
        return 0.0, 0.0
    a = complex(limit_A_series(p, *ordering.arrays(h), tol)[-1])
    return a.real, a.imag


@dataclass(frozen=True)
class BEstimate:
    """The n-then-h limit B = B_cos + i B_sin: the `direct` truncation at
    `budget` terms and the closed-form `oracle`."""

    direct: complex
    oracle: complex
    budget: int


def limit_B(p: StripPoint, budget: int, tol: float = 1e-12) -> BEstimate:
    """The n-then-h iterated limit sum f(k) (a_k + i b_k) = -sum_(k not in
    Gamma) (a_k + i b_k).

    Direct: truncation to `budget` terms with iterated tail averaging.
    Oracle: the conjugate of `series.b_closed`.  Their difference is the
    disagreement, reported by `commutativity_gap`, never hidden.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    a, b = se.term_arrays(p, budget)
    gamma = (1 << np.arange(int(budget).bit_length())) - 1  # indices of k = 2^l
    a[gamma] = b[gamma] = 0.0
    return BEstimate(complex(se.tail_averaged_sum(-a)[0], se.tail_averaged_sum(-b)[0]),
                     se.b_closed(p, tol).conjugate(), budget)


@dataclass(frozen=True)
class LimitReport:
    """Both iterated limits as complex values X = X_cos + i X_sin: the
    read-only h-then-n series `A`, the direct `B` (None at budget 0), the
    closed-form `oracle_B` and `gap` = oracle_B - A[-1].  `to_dict` splits
    each into its `_cos` and `_sin` keys."""

    point: StripPoint
    ordering_id: str
    A: np.ndarray
    B: complex | None
    oracle_B: complex
    gap: complex
    a_converged: bool
    a_convergence_tol: float
    h_max: int
    budget: int
    eta_tol: float
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "point": {"x": self.point.x, "y": self.point.y},
            "orderingId": self.ordering_id,
            "A_cos": self.A.real.tolist(),
            "A_sin": self.A.imag.tolist(),
            "B_cos": None if self.B is None else self.B.real,
            "B_sin": None if self.B is None else self.B.imag,
            "oracleB_cos": self.oracle_B.real,
            "oracleB_sin": self.oracle_B.imag,
            "gap_cos": self.gap.real,
            "gap_sin": self.gap.imag,
            "aConverged": self.a_converged,
            "aConvergenceTol": self.a_convergence_tol,
            "hMax": self.h_max,
            "budget": self.budget,
            "etaTol": self.eta_tol,
            "notes": list(self.notes),
        }

    def write_json(self, fh) -> None:
        json.dump(self.to_dict(), fh, indent=2)
        fh.write("\n")


def commutativity_gap(p: StripPoint, ordering: QOrdering, h_max: int,
                      budget: int, eta_tol: float = 1e-12,
                      a_tol: float = 1e-9) -> LimitReport:
    """Assemble both iterated limits and their gap.

    The gap is taken against the closed-form oracle for the n-then-h limit
    (the direct truncation, when budget >= 1, is carried alongside with its
    disagreement noted); the h-then-n side is the final A value, flagged as
    converged only when the last quarter of the A sequence varies by less
    than a_tol.
    """
    if h_max < 0:
        raise ValueError("hMax must be >= 0")
    a = limit_A_series(p, *ordering.arrays(h_max), eta_tol)
    a.setflags(write=False)
    notes = []
    if h_max > 0:
        tail = max(1, h_max // 4)
        spread = max(np.ptp(a.real[-tail:]), np.ptp(a.imag[-tail:]))
        converged = bool(spread < a_tol)
        if not converged:
            notes.append(f"A-limit not converged at this budget "
                         f"(last-quarter spread {spread:.3e} >= {a_tol:.1e}); "
                         "gap reported against the final A value")
    else:
        converged = False
        notes.append("empty A array (hMax = 0); gap is the bare B oracle")
    if budget >= 1:
        b_est = limit_B(p, budget, eta_tol)
        direct, oracle = b_est.direct, b_est.oracle
        d = direct - oracle
        notes.append(f"direct B vs oracle disagreement: "
                     f"cos {abs(d.real):.3e}, sin {abs(d.imag):.3e}")
    else:
        direct, oracle = None, se.b_closed(p, eta_tol).conjugate()
        notes.append("budget = 0: direct B estimate skipped")
    return LimitReport(
        point=p, ordering_id=ordering.descriptor(), A=a, B=direct,
        oracle_B=oracle, gap=oracle - (complex(a[-1]) if h_max else 0j),
        a_converged=converged, a_convergence_tol=a_tol,
        h_max=h_max, budget=budget, eta_tol=eta_tol,
        notes=tuple(notes))


@dataclass(frozen=True)
class ContradictionReport:
    """Numerical check of the identity sum_Gamma a_k = sum a_k + sum f(k) a_k
    and its b_k analogue, as one complex identity in a_k + i b_k, each side
    through independent paths.  Each residual is the larger of the cos and
    sin parts of lhs - rhs."""

    point: StripPoint
    budget: int
    lhs: complex         # power-of-two sum, direct summation to convergence
    rhs_oracle: complex  # accelerated eta + closed-form B
    rhs_direct: complex  # tail-averaged eta + truncated B

    @property
    def residual_oracle(self) -> float:
        d = self.lhs - self.rhs_oracle
        return max(abs(d.real), abs(d.imag))

    @property
    def residual_direct(self) -> float:
        d = self.lhs - self.rhs_direct
        return max(abs(d.real), abs(d.imag))


def rh_contradiction_check(p: StripPoint, budget: int,
                           gamma_terms: int = 200) -> ContradictionReport:
    """Verify the contradiction-chain identity numerically, in the conjugate
    convention a_k + i b_k of the eta terms.

    Left side: the power-of-two subseries summed directly (geometric, so
    `gamma_terms` terms reach machine precision).  Right side, oracle path:
    accelerated eta plus the closed-form B; direct path: tail-averaged raw
    eta plus the truncated, tail-averaged B sum.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    b_est = limit_B(p, budget)
    return ContradictionReport(
        point=p, budget=budget,
        lhs=se.gamma_partial(p, gamma_terms).conjugate(),
        rhs_oracle=se.eta_accel(p).value.conjugate() + b_est.oracle,
        rhs_direct=se.eta_averaged(p).value.conjugate() + b_est.direct)
