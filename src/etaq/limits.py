"""Double partial sums C(n,h), S(n,h) over the signed divisor indicator and
the series coefficients, the two iterated limits, and the commutativity gap
between them.

C(n,h) = sum_(k<=n) f(k,h) a_k and S(n,h) likewise with b_k, where f(k,h)
counts (with sign) the elements among the ordering's first h that divide k.
The n-then-h iterated limit has the closed-form oracle geom - eta (the signed
sum over k outside the powers of two); the h-then-n limit is, term by term in
h, eta(s) times a signed prefix sum of q^(-s).
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
    """Yield the running (C, S) over `n_rows` after each element of an
    ordering's prefix, given as its `values` and `signs`.

    Uses C(n,h) = sum_(i<=h) sgn(q_i) P_(q_i)(n) with P_q(n) = sum_(m<=n/q)
    a_(mq): each element adds one strided prefix sum of the term arrays,
    read at n // q (S likewise with b).  No powers-of-two mask is needed,
    since an odd q divides no power of two.  The two yielded vectors are
    updated in place; copy them to keep a column.
    """
    n_rows = np.asarray(n_rows, dtype=np.int64)
    a, b = se.term_arrays(p, int(n_rows.max(initial=0)))
    c = np.zeros(len(n_rows))
    s = np.zeros(len(n_rows))
    for q, sign in zip(values.tolist(), signs.tolist()):
        rows = n_rows // q
        step = np.add if sign > 0 else np.subtract
        for total, terms in ((c, a), (s, b)):
            partial = np.zeros(len(terms) // q + 1)
            np.cumsum(terms[q - 1::q], out=partial[1:])
            step(total, partial[rows], out=total)
        yield c, s


def c_s_surface(p: StripPoint, ordering: QOrdering, n_axis, h_axis) -> SumSurface:
    """Exact truncated double sums on the given axes.

    One pass of `c_s_running` over the ordering's first max(h_axis)
    elements; the running vectors are copied out at each h on the axis.
    Columns at h = 0 and cells with n below every element stay 0.0.
    """
    n_axis, h_axis = _validate_axes(n_axis, h_axis)
    C = np.zeros((len(n_axis), len(h_axis)))
    S = np.zeros((len(n_axis), len(h_axis)))
    column = {h: j for j, h in enumerate(h_axis)}
    values, signs = ordering.arrays(max(h_axis, default=0))
    for h, (c, s) in enumerate(c_s_running(p, values, signs, n_axis), start=1):
        if h in column:
            C[:, column[h]] = c
            S[:, column[h]] = s
    return SumSurface(point=p, ordering_id=ordering.descriptor(),
                      n_axis=n_axis, h_axis=h_axis, C=C, S=S)


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


def limit_A_series(p: StripPoint, values, signs,
                   tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Inner limits lim_n C(n,h), lim_n S(n,h) for h = 1..len(values), over
    an ordering's prefix given as its `values` and `signs`.

    Each equals eta(s) times the signed prefix sum of q_i^(-s) (the odd
    subseries closed form), so the whole h-sequence costs one eta evaluation.
    """
    eta = se.eta_accel(p, tol).value
    partial = np.cumsum(signs * np.exp(-p.s * np.log(values))) * eta
    return partial.real.copy(), (-partial.imag).copy()


def limit_A(p: StripPoint, ordering: QOrdering, h: int,
            tol: float = 1e-12) -> tuple[float, float]:
    """Inner limit over n for a single h (0 gives the empty sum)."""
    if h < 0:
        raise ValueError("h must be >= 0")
    if h == 0:
        return 0.0, 0.0
    a_cos, a_sin = limit_A_series(p, *ordering.arrays(h), tol)
    return float(a_cos[-1]), float(a_sin[-1])


@dataclass(frozen=True)
class BEstimate:
    B_cos: float
    B_sin: float
    oracle_cos: float
    oracle_sin: float
    budget: int

    @property
    def disagreement_cos(self) -> float:
        return abs(self.B_cos - self.oracle_cos)

    @property
    def disagreement_sin(self) -> float:
        return abs(self.B_sin - self.oracle_sin)


def limit_B(p: StripPoint, budget: int, tol: float = 1e-12) -> BEstimate:
    """The n-then-h iterated limit sum f(k) a_k = -sum_(k not in Gamma) a_k.

    Direct: truncation to `budget` terms with iterated tail averaging.
    Oracle: Re/-Im of `series.b_closed`.  A disagreement beyond the direct
    path's error scale is reported in the estimate, never hidden.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    a, b = se.term_arrays(p, budget)
    gamma = (1 << np.arange(int(budget).bit_length())) - 1  # indices of k = 2^l
    a[gamma] = b[gamma] = 0.0
    direct_cos = se.tail_averaged_sum(-a)[0]
    direct_sin = se.tail_averaged_sum(-b)[0]
    diff = se.b_closed(p, tol)
    return BEstimate(B_cos=direct_cos, B_sin=direct_sin,
                     oracle_cos=diff.real, oracle_sin=-diff.imag,
                     budget=budget)


@dataclass(frozen=True)
class LimitReport:
    point: StripPoint
    ordering_id: str
    A_cos: tuple[float, ...]
    A_sin: tuple[float, ...]
    B_cos: float | None
    B_sin: float | None
    oracleB_cos: float
    oracleB_sin: float
    gap_cos: float
    gap_sin: float
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
            "A_cos": list(self.A_cos),
            "A_sin": list(self.A_sin),
            "B_cos": self.B_cos,
            "B_sin": self.B_sin,
            "oracleB_cos": self.oracleB_cos,
            "oracleB_sin": self.oracleB_sin,
            "gap_cos": self.gap_cos,
            "gap_sin": self.gap_sin,
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
    a_cos, a_sin = limit_A_series(p, *ordering.arrays(h_max), eta_tol)
    notes = []
    if h_max > 0:
        tail = max(1, h_max // 4)
        spread = max(np.ptp(a_cos[-tail:]), np.ptp(a_sin[-tail:]))
        converged = bool(spread < a_tol)
        if not converged:
            notes.append(f"A-limit not converged at this budget "
                         f"(last-quarter spread {spread:.3e} >= {a_tol:.1e}); "
                         "gap reported against the final A value")
        a_cos_final = float(a_cos[-1])
        a_sin_final = float(a_sin[-1])
    else:
        converged = False
        notes.append("empty A array (hMax = 0); gap is the bare B oracle")
        a_cos_final = 0.0
        a_sin_final = 0.0
    if budget >= 1:
        b_est = limit_B(p, budget, eta_tol)
        b_cos: float | None = b_est.B_cos
        b_sin: float | None = b_est.B_sin
        oracle_cos, oracle_sin = b_est.oracle_cos, b_est.oracle_sin
        notes.append(f"direct B vs oracle disagreement: "
                     f"cos {b_est.disagreement_cos:.3e}, sin {b_est.disagreement_sin:.3e}")
    else:
        b_cos = b_sin = None
        diff = se.b_closed(p, eta_tol)
        oracle_cos, oracle_sin = diff.real, -diff.imag
        notes.append("budget = 0: direct B estimate skipped")
    return LimitReport(
        point=p, ordering_id=ordering.descriptor(),
        A_cos=tuple(a_cos.tolist()), A_sin=tuple(a_sin.tolist()),
        B_cos=b_cos, B_sin=b_sin,
        oracleB_cos=oracle_cos, oracleB_sin=oracle_sin,
        gap_cos=oracle_cos - a_cos_final,
        gap_sin=oracle_sin - a_sin_final,
        a_converged=converged, a_convergence_tol=a_tol,
        h_max=h_max, budget=budget, eta_tol=eta_tol,
        notes=tuple(notes))


@dataclass(frozen=True)
class ContradictionReport:
    """Numerical check of the identity sum_Gamma a_k = sum a_k + sum f(k) a_k
    (and the b_k analogue), each side through independent paths."""

    point: StripPoint
    budget: int
    lhs_cos: float          # power-of-two sum, direct summation to convergence
    lhs_sin: float
    rhs_oracle_cos: float   # accelerated eta + closed-form B
    rhs_oracle_sin: float
    rhs_direct_cos: float   # tail-averaged eta + truncated B
    rhs_direct_sin: float
    residual_oracle_cos: float
    residual_oracle_sin: float
    residual_direct_cos: float
    residual_direct_sin: float

    def to_dict(self) -> dict:
        return {
            "point": {"x": self.point.x, "y": self.point.y},
            "budget": self.budget,
            "lhs_cos": self.lhs_cos, "lhs_sin": self.lhs_sin,
            "rhsOracle_cos": self.rhs_oracle_cos, "rhsOracle_sin": self.rhs_oracle_sin,
            "rhsDirect_cos": self.rhs_direct_cos, "rhsDirect_sin": self.rhs_direct_sin,
            "residualOracle_cos": self.residual_oracle_cos,
            "residualOracle_sin": self.residual_oracle_sin,
            "residualDirect_cos": self.residual_direct_cos,
            "residualDirect_sin": self.residual_direct_sin,
        }


def rh_contradiction_check(p: StripPoint, budget: int,
                           gamma_terms: int = 200) -> ContradictionReport:
    """Verify the contradiction-chain identity numerically.

    Left side: the power-of-two subseries summed directly (geometric, so
    `gamma_terms` terms reach machine precision).  Right side, oracle path:
    accelerated eta plus the closed-form B; direct path: tail-averaged raw
    eta plus the truncated, tail-averaged B sum.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lhs = se.gamma_partial(p, gamma_terms)
    eta_o = se.eta_accel(p).value
    eta_d = se.eta_averaged(p).value
    b_est = limit_B(p, budget)
    rhs_oracle_cos = eta_o.real + b_est.oracle_cos
    rhs_oracle_sin = -eta_o.imag + b_est.oracle_sin
    rhs_direct_cos = eta_d.real + b_est.B_cos
    rhs_direct_sin = -eta_d.imag + b_est.B_sin
    return ContradictionReport(
        point=p, budget=budget,
        lhs_cos=lhs.real, lhs_sin=-lhs.imag,
        rhs_oracle_cos=rhs_oracle_cos, rhs_oracle_sin=rhs_oracle_sin,
        rhs_direct_cos=rhs_direct_cos, rhs_direct_sin=rhs_direct_sin,
        residual_oracle_cos=abs(lhs.real - rhs_oracle_cos),
        residual_oracle_sin=abs(-lhs.imag - rhs_oracle_sin),
        residual_direct_cos=abs(lhs.real - rhs_direct_cos),
        residual_direct_sin=abs(-lhs.imag - rhs_direct_sin),
    )
