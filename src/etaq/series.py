"""Evaluation of the alternating Dirichlet series eta(s) = sum (-1)^(k-1) k^-s
and the family of derived quantities used throughout: the cosine/sine term
coefficients, the eta -> zeta bridge, shifted and odd-subseries variants, the
power-of-two geometric sum and its closed form, and an Euler-product
cross-check for Re(s) > 1.

Numerics are binary64 throughout.  Direct sums take their terms from one
builder and are compensated (math.fsum), with one iterated tail-averaging
routine for conditionally convergent tails; the accelerated evaluator uses
Chebyshev-derived weights (Cohen, Rodriguez Villegas, Zagier style).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .qset import sieve_primes

LN2 = math.log(2.0)
ACCEL_METHOD_ID = "eta:chebyshev-weights-v1"
AVERAGED_METHOD_ID = "eta:iterated-tail-averaging-v1"

# Per-term factor in the acceleration's convergence rate: 3 + sqrt(8).
_ACCEL_RATE = 3.0 + math.sqrt(8.0)
_LOG_ACCEL_RATE = math.log(_ACCEL_RATE)
_MAX_ACCEL_TERMS = 350
_EPS = 2.0 ** -52
# eta_accel_many's block of about 1 MiB of complex terms
_BLOCK_TERMS = 2**16
_Y_SATURATED = 1e6  # past this |y|, n = _MAX_ACCEL_TERMS and no terms are summed

MAX_TERMS = 10**7  # direct sums peak at 33 bytes per term: about 0.33 GB
TAIL_WINDOW = 64
TAIL_LEVELS = 3


class PoleError(ValueError):
    """Evaluation requested at the simple pole s = 1."""


class SingularDenominatorError(ValueError):
    """The bridge denominator 1 - 2^(1-s) vanishes at this point."""


class AccelerationError(RuntimeError):
    """Requested tolerance unreachable; carries the best result achieved."""

    def __init__(self, message: str, result: "SeriesResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class StripPoint:
    """An evaluation point s = x + iy with x > 0."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.x > 0.0 and math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"need finite x > 0, y; got x={self.x}, y={self.y}")

    @property
    def s(self) -> complex:
        return complex(self.x, self.y)

    @property
    def in_critical_strip(self) -> bool:
        return 0.0 < self.x < 1.0


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    method: str
    terms_used: int
    error_estimate: float


def term_ab(k: int, p: StripPoint) -> tuple[float, float]:
    """(a_k, b_k) = (-1)^(k-1) k^(-x) (cos(y ln k), sin(y ln k)).

    Equivalently a_k = Re, b_k = -Im of the k-th eta term (-1)^(k-1) k^(-s).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lk = math.log(k)
    amp = (-1) ** (k - 1) * math.exp(-p.x * lk)
    return amp * math.cos(p.y * lk), amp * math.sin(p.y * lk)


def check_term_count(n: int) -> None:
    """Reject a direct sum of fewer than 0 or more than MAX_TERMS terms."""
    if n < 0:
        raise ValueError(f"term count {n} must be >= 0")
    if n > MAX_TERMS:
        raise ValueError(f"{n} terms exceed the cap {MAX_TERMS} "
                         "(about 33 bytes per term)")


def _signed_terms(p: StripPoint, n: int, step: int = 1,
                  shift: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) at k = step, 2 step, ..., n step: the sign (-1)^(k-1) from each
    k's parity, amplitude k^(-x) and angle y (ln shift + ln k).

    The count is checked by `check_term_count` before anything is allocated.
    """
    check_term_count(n)
    k = np.arange(step, step * n + 1, step)
    angle = np.log(k)
    amp = np.exp(-p.x * angle)
    np.negative(amp, out=amp, where=k % 2 == 0)
    angle += math.log(shift)
    angle *= p.y
    a = np.cos(angle)
    a *= amp
    b = np.sin(angle, out=angle)
    b *= amp
    return a, b


def term_arrays(p: StripPoint, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectors (a_1..a_n, b_1..b_n)."""
    return _signed_terms(p, n)


def tail_averaged_sum(terms: np.ndarray, window: int = TAIL_WINDOW,
                      levels: int = TAIL_LEVELS) -> tuple[float, float]:
    """Compensated sum with iterated averaging of the last `window` partial
    sums, damping the leading alternating oscillation of conditionally
    convergent tails.  Returns the value and the change made by the last
    averaging level (0.0 when no level runs)."""
    n = len(terms)
    window = min(window, n)
    levels = min(levels, window - 1)
    ps = math.fsum(terms[:n - window]) + np.cumsum(terms[n - window:])
    delta = 0.0
    for _ in range(levels):
        prev = ps[-1]
        ps = 0.5 * (ps[1:] + ps[:-1])
        delta = abs(float(ps[-1] - prev))
    return float(ps[-1]), delta


def eta_partial(p: StripPoint, n: int) -> complex:
    """Compensated partial sum of the first n series terms."""
    a, b = term_arrays(p, n)
    # eta terms are a_k - i b_k
    return complex(math.fsum(a), math.fsum(-b))


class _AccelWeights(NamedTuple):
    log_k: np.ndarray  # ln 1 .. ln n
    c: np.ndarray      # the weights c_0..c_(n-1), as complex
    abs_c: np.ndarray  # |c_k|
    d: float


@lru_cache(maxsize=64)
def _accel_weights(n: int) -> _AccelWeights:
    """Chebyshev-derived weights c_0..c_(n-1) (read-only arrays) and
    normalizer d for the alternating-series acceleration
    sum_(k>=0) (-1)^k a_k ~ (sum c_k a_k)/d."""
    d = _ACCEL_RATE ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    weights = []
    for k in range(n):
        c = b - c
        weights.append(c)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    weights = np.array(weights)
    arrays = (np.log(np.arange(1, n + 1, dtype=np.float64)),
              weights.astype(complex), np.abs(weights))
    for a in arrays:
        a.setflags(write=False)
    return _AccelWeights(*arrays, d)


def _accel_term_count(p: StripPoint, tol: float) -> int:
    need = math.log(10.0 / tol) + math.pi * abs(p.y) / 2.0
    # need is inf for |y| near the float maximum: clamp before ceil
    return min(_MAX_ACCEL_TERMS,
               max(24, math.ceil(min(need / _LOG_ACCEL_RATE, _MAX_ACCEL_TERMS)) + 8))


def _accel_result(x: float, y: float, n: int, value: complex, err: float,
                  target_tol: float) -> SeriesResult:
    result = SeriesResult(value=value, method="ChebyshevAccelerated",
                          terms_used=n, error_estimate=err)
    if err > target_tol:
        raise AccelerationError(
            f"eta acceleration reaches {err:.3e} > requested {target_tol:.3e} "
            f"at s=({x},{y}) with {n} terms", result)
    return result


def eta_accel(p: StripPoint, target_tol: float = 1e-12) -> SeriesResult:
    """Accelerated evaluation of eta(s).

    Error model: the theoretical geometric bound exp(pi|y|/2) * rate^(-n)
    times a safety factor of 10, plus a rounding floor n*eps*(sum |c_k a_k|/d).
    Raises AccelerationError (best result attached) if the claimed bound
    exceeds target_tol.
    """
    if target_tol <= 0.0:
        raise ValueError("targetTol must be > 0")
    n = _accel_term_count(p, target_tol)
    exponent = math.pi * abs(p.y) / 2.0 - n * _LOG_ACCEL_RATE
    if exponent < 700.0:
        w = _accel_weights(n)
        terms = np.exp(-p.s * w.log_k)
        value = complex(np.dot(w.c, terms)) / w.d
        round_scale = float(np.dot(w.abs_c, np.abs(terms))) / w.d
        err = 10.0 * math.exp(exponent) + n * _EPS * round_scale
    else:
        # the bound saturates to inf (math.exp would overflow, and so would
        # the terms for |y| near the float maximum): no value is computed
        value, err = complex(math.nan, math.nan), math.inf
    return _accel_result(p.x, p.y, n, value, err, target_tol)


def eta_accel_many(x: float, ys, target_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """`eta_accel` at s = x + iy for every y in the 1-D sequence ys, bit for
    bit: returns the values and the error estimates as arrays.

    Points with equal term count n share the weights, so each run of equal
    n is evaluated in blocks of about _BLOCK_TERMS terms, and the work
    memory beyond the outputs is bounded by the block.  The dot products
    are the stacked vector.vector form of matmul, which runs the same dot
    kernel as np.dot; a matrix-vector product or einsum would change the
    last bits.  Raises AccelerationError with eta_accel's message and
    result at the first y, in order, whose bound exceeds target_tol.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if not (x > 0.0 and math.isfinite(x) and ys.ndim == 1 and np.isfinite(ys).all()):
        raise ValueError(f"need finite x > 0 and a 1-D sequence of finite y; got x={x}")
    if target_tol <= 0.0:
        raise ValueError("targetTol must be > 0")
    # _accel_term_count, vectorised; clamping |y| keeps pi*|y| finite
    exponent = math.pi * np.minimum(np.abs(ys), _Y_SATURATED) / 2.0
    n = np.ceil(np.minimum((math.log(10.0 / target_tol) + exponent) / _LOG_ACCEL_RATE,
                           _MAX_ACCEL_TERMS)) + 8
    n = np.clip(n, 24, _MAX_ACCEL_TERMS).astype(np.int16)
    exponent -= n * _LOG_ACCEL_RATE
    values = np.full(len(ys), complex(math.nan, math.nan))
    errors = np.full(len(ys), math.inf)

    def fail(i):
        _accel_result(x, float(ys[i]), int(n[i]), complex(values[i]),
                      float(errors[i]), target_tol)

    # the first point past 700 fails with no terms; only points before it run
    past = exponent >= 700.0
    live = int(past.argmax()) if past.any() else len(ys)
    cuts = [*np.flatnonzero(np.diff(n[:live], prepend=-1)).tolist(), live]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        m = int(n[lo])
        w = _accel_weights(m)
        rows = _BLOCK_TERMS // m
        for b in range(lo, hi, rows):
            e = min(b + rows, hi)
            s = np.empty(e - b, dtype=complex)
            s.real = x
            s.imag = ys[b:e]
            terms = -s[:, None] * w.log_k
            np.exp(terms, out=terms)
            # complex / float in Python divides the two parts separately
            dots = np.matmul(terms[:, None, :], w.c[:, None])[:, 0, 0]
            values.real[b:e] = dots.real / w.d
            values.imag[b:e] = dots.imag / w.d
            scale = np.matmul(np.abs(terms)[:, None, :], w.abs_c[:, None])[:, 0, 0]
            # math.exp, as in eta_accel: np.exp can differ in the last bit
            bound = np.fromiter(map(math.exp, exponent[b:e].tolist()), float, e - b)
            errors[b:e] = 10.0 * bound + m * _EPS * (scale / w.d)
            bad = np.flatnonzero(errors[b:e] > target_tol)
            if len(bad):
                fail(b + int(bad[0]))
    if live < len(ys):
        fail(live)
    return values, errors


def eta_averaged(p: StripPoint, start: int | None = None,
                 window: int = 96) -> SeriesResult:
    """Independent cross-check: `tail_averaged_sum` over a window of partial
    sums, averaged pairwise down to a single value.

    The error estimate is the last-level averaging delta, plus a rounding
    floor n*eps*max|term| (the largest term is the first, of modulus 1),
    plus eps*|y|*ln n*sum|window terms| for the rounding of the angles
    y ln k, which does not shrink as `start` grows.
    """
    if start is None:
        start = max(64, math.ceil(8.0 * abs(p.y)))
    if window < 4:
        raise ValueError("window must be >= 4")
    n = start + window
    a, b = term_arrays(p, n)
    re, delta_re = tail_averaged_sum(a, window, window - 1)
    im, delta_im = tail_averaged_sum(-b, window, window - 1)
    angles = _EPS * abs(p.y) * math.log(n) * float(np.hypot(a[-window:], b[-window:]).sum())
    return SeriesResult(value=complex(re, im), method="AveragedTail", terms_used=n,
                        error_estimate=math.hypot(delta_re, delta_im) + n * _EPS + angles)


def bridge_denominator(p: StripPoint) -> complex:
    return 1.0 - cmath.exp((1.0 - p.s) * LN2)


def zeta_from_eta(p: StripPoint, target_tol: float = 1e-12) -> SeriesResult:
    """zeta(s) = eta(s) / (1 - 2^(1-s)), with the pole and the singular
    denominator set rejected explicitly.

    The error estimate is eta's, plus eps * |2^(1-s)| * |zeta| for the
    rounding of 2^(1-s) that the subtraction from 1 leaves in the
    denominator, both divided by |1 - 2^(1-s)|.  It must be at most
    target_tol * max(1, |zeta|), else AccelerationError.
    """
    if p.x == 1.0 and p.y == 0.0:
        raise PoleError("zeta has a simple pole at s = 1")
    denom = bridge_denominator(p)
    if abs(denom) < 1e-9:
        raise SingularDenominatorError(
            f"1 - 2^(1-s) vanishes near s=({p.x},{p.y}) "
            "(x = 1 with y a multiple of 2*pi/ln 2)")
    try:
        eta = eta_accel(p, target_tol * abs(denom))
    except AccelerationError as exc:  # near the pole: judged against |zeta| below
        eta = exc.result
    value = eta.value / denom
    err = (eta.error_estimate + _EPS * 2.0 ** (1.0 - p.x) * abs(value)) / abs(denom)
    result = SeriesResult(value=value, method=eta.method,
                          terms_used=eta.terms_used, error_estimate=err)
    if not err <= target_tol * max(1.0, abs(result.value)):
        raise AccelerationError(f"zeta reaches {err:.3e} > {target_tol:.3e} * max(1, "
                                f"|zeta|) at s=({p.x},{p.y})", result)
    return result


def geom_closed(p: StripPoint) -> complex:
    """(2^x - 2 e^(-iy ln 2)) / (2^x - e^(-iy ln 2)), the closed form of the
    full power-of-two series; equals (1 - 2^(1-s))/(1 - 2^(-s)).  Nonzero
    throughout 0 < x < 1."""
    w = cmath.exp(-1j * p.y * LN2)
    tx = 2.0 ** p.x
    return (tx - 2.0 * w) / (tx - w)


def b_closed(p: StripPoint, tol: float = 1e-12) -> complex:
    """geom_closed(s) - eta(s): the closed form w of the n-then-h iterated
    limit sum_(k not a power of two) -(-1)^(k-1) k^(-s), so that
    B_cos + i B_sin = conj(w)."""
    return geom_closed(p) - eta_accel(p, tol).value


def gamma_partial(p: StripPoint, L: int) -> complex:
    """sum_(l=0..L) of the eta terms at k = 2^l: 1 - sum_(l=1..L) 2^(-l s)."""
    if L < 0:
        raise ValueError("L must be >= 0")
    re = [1.0]
    im = [0.0]
    for l in range(1, L + 1):
        t = -cmath.exp(-p.s * l * LN2)
        re.append(t.real)
        im.append(t.imag)
    return complex(math.fsum(re), math.fsum(im))


def shifted_sums(p: StripPoint, shift: float, n: int) -> tuple[float, float]:
    """Truncated sums of (-1)^(k-1) k^(-x) cos(y ln(shift*k)) and the sin
    analogue over k = 1..n."""
    if shift <= 0.0:
        raise ValueError("shift must be > 0")
    a, b = _signed_terms(p, n, shift=shift)
    return math.fsum(a), math.fsum(b)


def shifted_sums_oracle(p: StripPoint, shift: float,
                        target_tol: float = 1e-12) -> tuple[float, float]:
    """Closed-form limits of shifted_sums via angle addition:
    (Re, -Im) of shift^(-iy) * eta(s)."""
    if shift <= 0.0:
        raise ValueError("shift must be > 0")
    w = cmath.exp(-1j * p.y * math.log(shift)) * eta_accel(p, target_tol).value
    return w.real, -w.imag


def subseries_q(p: StripPoint, q: int, method: str = "accelerated",
                budget: int = 100_000) -> complex:
    """The subseries over multiples of an odd q:
    sum_m (-1)^(mq-1) (mq)^(-s) = q^(-s) eta(s).

    method "accelerated" evaluates the closed form via eta_accel; "direct"
    sums the first `budget` terms of the defining series.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"q must be odd and >= 1, got {q} "
                         "(the sign identity (-1)^(mq-1) = (-1)^(m-1) needs odd q)")
    if method == "accelerated":
        return cmath.exp(-p.s * math.log(q)) * eta_accel(p).value
    if method == "direct":
        a, b = _signed_terms(p, budget, step=q)
        return complex(math.fsum(a), math.fsum(-b))
    raise ValueError(f"unknown method {method!r}")


def euler_product_check(p: StripPoint, prime_limit: int) -> tuple[complex, complex]:
    """Partial Euler products prod_(p <= limit) (1 - p^(-s)) over all primes
    and over odd primes only.  The first approximates 1/zeta(s), the second
    1/((1 - 2^(-s)) zeta(s)).  Requires x > 1."""
    if p.x <= 1.0:
        raise ValueError("Euler products need x > 1 (absolute convergence)")
    all_primes = 1.0 + 0.0j
    odd_primes = 1.0 + 0.0j
    for pr in sieve_primes(prime_limit):
        factor = 1.0 - cmath.exp(-p.s * math.log(pr))
        all_primes *= factor
        if pr != 2:
            odd_primes *= factor
    return all_primes, odd_primes
