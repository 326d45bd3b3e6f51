"""Evaluation of the alternating Dirichlet series eta(s) = sum (-1)^(k-1) k^-s
and the family of derived quantities used throughout: the cosine/sine term
coefficients, the eta -> zeta bridge, shifted and odd-subseries variants, and
the power-of-two geometric sum and its closed form.

Numerics are binary64 throughout.  Direct sums take their terms from one
block builder, `term_blocks`, and stream them block by block into one exact
summation kernel, `_block_sum`.  A sum of two blocks or more runs as two
halves of its blocks, the second on a worker thread, so it holds the work
memory of two block sets whatever the term count.  The kernel sums each
block exactly into a Python int by error-free extraction onto grids (Rump,
Ogita and Oishi, "Accurate floating-point summation part I: faithful
rounding", SIAM J. Sci. Comput. 31(1), 2008); the halves' ints add exactly
and are rounded once to math.fsum's float, so the bits do not depend on the
split.  A non-finite or huge term is rejected.  One iterated tail-averaging
routine serves conditionally convergent tails; the accelerated evaluator
uses Chebyshev-derived weights (Cohen, Rodriguez Villegas, Zagier style).
"""

from __future__ import annotations

import bisect
import cmath
import math
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

LN2 = math.log(2.0)
ACCEL_METHOD_ID = "eta:chebyshev-weights-v1"
AVERAGED_METHOD_ID = "eta:iterated-tail-averaging-v1"

# Per-term factor in the acceleration's convergence rate: 3 + sqrt(8).
_ACCEL_RATE = 3.0 + math.sqrt(8.0)
_LOG_ACCEL_RATE = math.log(_ACCEL_RATE)
_MAX_ACCEL_TERMS = 350
_EPS = 2.0 ** -52
_ANCHOR_SPACING = 64  # grid points per anchor row of `eta_grid`, rows of its table
# the block of the direct sums: its few work arrays stay in L2 (of 2^12 to
# 2^16, 2^14 ran limit_B(1e6) fastest)
_SUM_BLOCK_TERMS = 2**14
# past this |y| the bound's exponent pi |y| / 2 - n ln(3 + sqrt(8)) is at
# least 700 at every term count n <= _MAX_ACCEL_TERMS: no tolerance is met
MAX_HEIGHT = 2.0 * (700.0 + _MAX_ACCEL_TERMS * _LOG_ACCEL_RATE) / math.pi
# every term past k = 1 is 0 from x >= 1075, and below this x the exponent
# x ln k stays finite for every float64 k (ln k < 710)
MAX_X = 1e300

# direct sums hold a few blocks whatever the count; surface and search hold
# 16 bytes per term, in `term_arrays`' complex array
MAX_TERMS = 10**7
_EXACT_MAX_EXP = 970  # terms below 2^970: no partial sum of 2^53 of them overflows
# W, the bits of each _block_sum level: np.sum adds a block of at most
# 2^(53 - W) terms of at most 2^W grid units exactly, so the block size bounds
# the exactness, and a larger block narrows the levels instead of breaking the bits
_LEVEL_BITS = 53 - (_SUM_BLOCK_TERMS - 1).bit_length()
TAIL_WINDOW = 64
TAIL_LEVELS = 3


class AccelerationError(ValueError):
    """Requested tolerance unreachable; carries the best result achieved."""

    def __init__(self, message: str, result: "SeriesResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class StripPoint:
    """An evaluation point s = x + iy with 0 < x <= MAX_X and |y| <= MAX_HEIGHT."""

    x: float
    y: float

    def __post_init__(self):
        if not (0.0 < self.x <= MAX_X and abs(self.y) <= MAX_HEIGHT):
            raise ValueError(f"need 0 < x <= {MAX_X:g} and |y| <= {MAX_HEIGHT:.2f}; "
                             f"got x={self.x}, y={self.y}")

    @property
    def s(self) -> complex:
        return complex(self.x, self.y)


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
                         "(surface and search hold 16 bytes per term)")


def check_tol(tol: float, name: str = "targetTol") -> None:
    """Reject a tolerance that is NaN, infinite or not > 0."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"{name} must be finite and > 0, got {tol}")


def term_blocks(p: StripPoint, n: int, step: int = 1, shift: float = 1.0, first: int = 0):
    """The one place terms are computed.  Yields (lo, a, b): the terms
    (a_k, b_k) at positions lo .. lo + len(a) - 1, that is at
    k = (lo + 1) step, (lo + 2) step, ..., up to n step, _SUM_BLOCK_TERMS
    at a time, from block `first` (position first * _SUM_BLOCK_TERMS) on.
    Each has the sign (-1)^(k-1) from k's parity, amplitude k^(-x) and
    angle y (ln shift + ln k), with ln k taken of k as float64, exact while
    step * n < 2^53.  A term's bits do not depend on n or `first`.

    a and b are buffers reused from block to block: the caller may edit
    them in place, and copies what must outlive the next block.  The count
    is checked by `check_term_count` before anything is allocated.
    """
    check_term_count(n)
    size = min(n, _SUM_BLOCK_TERMS)
    k = np.arange(step, step * (size + 1), step, dtype=np.float64)
    a_buf, b_buf, amp_buf = np.empty((3, size))
    log_shift = math.log(shift)
    for lo in range(first * _SUM_BLOCK_TERMS, n, _SUM_BLOCK_TERMS):
        m = min(size, n - lo)
        a, angle, amp = a_buf[:m], b_buf[:m], amp_buf[:m]
        np.add(k[:m], lo * step, out=angle)
        np.log(angle, out=angle)
        np.multiply(angle, -p.x, out=amp)
        np.exp(amp, out=amp)
        # even k: every other term for an odd step, every term for an even one
        even = amp[(lo + 1) % 2::2] if step % 2 else amp
        np.negative(even, out=even)
        angle += log_shift
        angle *= p.y
        if p.y:
            np.cos(angle, out=a)
            a *= amp
            np.sin(angle, out=angle)
        else:  # every angle is +-0: cos is exactly 1 and sin the angle itself
            a = amp
        angle *= amp
        yield lo, a, angle


def term_arrays(p: StripPoint, n: int, step: int = 1, shift: float = 1.0) -> np.ndarray:
    """The terms of `term_blocks` as one complex array a + ib (16 bytes per
    term), the count checked before it is allocated.  Blocks are copied, not
    computed, into its strided parts, so every term keeps the builder's bits."""
    check_term_count(n)
    terms = np.empty(n, dtype=complex)
    for lo, a, b in term_blocks(p, n, step, shift):
        terms.real[lo:lo + len(a)] = a
        terms.imag[lo:lo + len(b)] = b
    return terms


def _block_sum(x: np.ndarray, work: np.ndarray) -> int:
    """The exact sum of at most _SUM_BLOCK_TERMS terms as a Python int in
    units of 2^-1074, with `work` a (2, len(x)) or larger scratch array; x
    is left as it is.  Raises ValueError for a term not below
    2^_EXACT_MAX_EXP in modulus (NaN, inf, or one that could overflow).

    Each level rounds the remainder r to q on the grid 2^g, with g the
    larger of -1074 and e - _LEVEL_BITS for max|r| < 2^e, and takes r - q,
    both exactly.  So each q is at most 2^_LEVEL_BITS grid units, and
    np.sum adds a block of them exactly in any order.
    """
    r, q = work[:, :len(x)]
    np.copyto(r, x)
    total = 0
    while True:
        np.abs(r, out=q)
        top = float(q.max())
        if not top < 2.0**_EXACT_MAX_EXP:
            raise ValueError(f"exact sum needs terms below 2^{_EXACT_MAX_EXP} in "
                             f"modulus; the largest is {top!r}")
        if top == 0.0:
            return total
        g = max(math.frexp(top)[1] - _LEVEL_BITS, -1074)
        sigma = math.ldexp(1.5, g + 52)  # r + sigma rounds r to the grid 2^g
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        total += int(math.ldexp(float(q.sum()), -g)) << (g + 1074)


def _fsum_float(total: int, negative: bool) -> float:
    """math.fsum's float for an exact total in units of 2^-1074.  For 0 it is
    fsum of one -0.0 when every term is -0.0 (`negative`), else of none:
    fsum's own zero on any interpreter, with no fsum pass over the zeros."""
    if total == 0:
        return math.fsum([-0.0] if negative else [])
    return total / (1 << 1074)  # rounded correctly by Python


def _sum_blocks(blocks, head: int, prepare, tails: np.ndarray,
                work: np.ndarray) -> tuple[list, list]:
    """One half of `direct_sums`: `prepare` and `_block_sum`, with the
    scratch array `work`, over the (lo, a, b) `blocks`, the terms at
    positions from `head` on copied into their place in `tails`.  Returns
    the exact sums of a's and of b's head terms, and for each whether every
    one of them has its sign bit set."""
    totals = [0, 0]
    negative = [True, True]
    for lo, a, b in blocks:
        if prepare is not None:
            prepare(lo, a, b)
        cut = min(max(head - lo, 0), len(a))  # how many of its terms are head terms
        for i, x in enumerate((a, b)):
            if cut:
                total = _block_sum(x[:cut], work)
                totals[i] += total
                # a nonzero sum already rules out every term being -0.0
                negative[i] = negative[i] and not total and bool(np.signbit(x[:cut]).all())
            if cut < len(x):
                tails[i, lo + cut - head:lo + len(x) - head] = x[cut:]
    return totals, negative


def direct_sums(p: StripPoint, n: int, step: int = 1, shift: float = 1.0, window: int = 0,
                prepare=None) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The terms of `term_blocks` streamed through `_block_sum`.

    `prepare(lo, a, b)`, when given, first edits each block in place.
    Returns the sums of a and of b over the first n - window terms, each
    math.fsum's float bit for bit, and copies of the last `window` terms of
    a and of b (all n when window > n).  With |y| <= MAX_HEIGHT every term
    is at most 1 in modulus; `_block_sum` rejects a term that `prepare`
    makes NaN, inf or huge.

    A sum of two blocks or more runs as two halves of its blocks: the
    calling thread sums the first, and a worker thread, joined before this
    returns, the second, each with its own block set, so the work memory
    is two block sets whatever n.  `prepare` must therefore only edit the
    block it is given.  The halves' exact ints add exactly, so the bits do
    not depend on the split; an error in either half is raised here as a
    ValueError with its message.
    """
    check_term_count(n)
    head = n - min(window, n)
    tails = np.empty((2, n - head))

    def half(first: int, stop: int):
        return _sum_blocks(term_blocks(p, stop, step, shift, first), head, prepare, tails,
                           np.empty((2, min(n, _SUM_BLOCK_TERMS))))

    blocks = -(-n // _SUM_BLOCK_TERMS)
    if blocks < 2:
        halves = [half(0, n)]
    else:
        mid = blocks // 2
        second = []

        def run_second():
            try:
                second.append(half(mid, n))
            except Exception as exc:  # raised in the calling thread
                second.append(exc)

        worker = threading.Thread(target=run_second)
        worker.start()
        try:
            halves = [half(0, mid * _SUM_BLOCK_TERMS)]
        finally:
            worker.join()
        if isinstance(second[0], Exception):
            raise ValueError(str(second[0])) from second[0]
        halves += second
    totals = [sum(t) for t in zip(*(h[0] for h in halves))]
    negative = [head > 0 and all(g) for g in zip(*(h[1] for h in halves))]
    return (*map(_fsum_float, totals, negative), *tails)


def _conjugate(lo: int, a: np.ndarray, b: np.ndarray) -> None:
    """A `direct_sums` block as the eta terms a_k - i b_k: b negated."""
    np.negative(b, out=b)


def tail_averaged_sum(head: float, tail: np.ndarray,
                      levels: int = TAIL_LEVELS) -> tuple[float, float]:
    """head, the exact sum of a series' leading terms, plus the `tail`
    terms, with iterated averaging of the partial sums head + cumsum(tail),
    damping the leading alternating oscillation of conditionally convergent
    tails.  Returns the value and the change made by the last averaging
    level (0.0 when no level runs)."""
    levels = min(levels, len(tail) - 1)
    ps = head + np.cumsum(tail)
    delta = 0.0
    for _ in range(levels):
        prev = ps[-1]
        ps = 0.5 * (ps[1:] + ps[:-1])
        delta = abs(float(ps[-1] - prev))
    return float(ps[-1]), delta


class _AccelWeights(NamedTuple):
    log_k: np.ndarray  # ln 1 .. ln n
    c: np.ndarray      # the weights c_0..c_(n-1), as complex
    abs_c: np.ndarray  # |c_k|
    d: float


@lru_cache(maxsize=_MAX_ACCEL_TERMS)  # every n once: about 2 MB
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


def _accel_term_count(y: float, tol: float) -> int:
    need = math.log(10.0 / tol) + math.pi * abs(y) / 2.0
    # need is inf where 10 / tol overflows (tol < 5.6e-308): clamp before ceil
    return min(_MAX_ACCEL_TERMS,
               max(24, math.ceil(min(need / _LOG_ACCEL_RATE, _MAX_ACCEL_TERMS)) + 8))


def _accel_error(y: float, n: int, scale: float) -> float:
    """The bound 10 exp(pi |y| / 2) rate^(-n) plus the floor n eps scale."""
    return 10.0 * math.exp(math.pi * abs(y) / 2.0 - n * _LOG_ACCEL_RATE) + n * _EPS * scale


def _grid_scale(x: float, m: int) -> float:
    """`eta_grid`'s scale for m terms: (m + 1) / m times sum |c_k| k^-x / d."""
    w = _accel_weights(m)
    return float(np.dot(w.abs_c, np.exp(-x * w.log_k))) / w.d * (m + 1) / m


def eta_accel(p: StripPoint, target_tol: float = 1e-12) -> SeriesResult:
    """Accelerated evaluation of eta(s).

    Error model: the theoretical geometric bound exp(pi|y|/2) * rate^(-n)
    times a safety factor of 10, plus a rounding floor n*eps*(sum |c_k a_k|/d).
    Raises AccelerationError (best result attached) if the claimed bound
    exceeds target_tol.
    """
    check_tol(target_tol)
    n = _accel_term_count(p.y, target_tol)
    w = _accel_weights(n)
    terms = np.exp(-p.s * w.log_k)
    value = complex(np.dot(w.c, terms)) / w.d
    err = _accel_error(p.y, n, float(np.dot(w.abs_c, np.abs(terms))) / w.d)
    result = SeriesResult(value=value, method="ChebyshevAccelerated",
                          terms_used=n, error_estimate=err)
    if err > target_tol:
        raise AccelerationError(
            f"eta acceleration reaches {err:.3e} > requested {target_tol:.3e} "
            f"at s=({p.x},{p.y}) with {n} terms", result)
    return result


def eta_grid(x: float, y_min: float, step: float, count: int, chunk: int,
             target_tol: float = 1e-12):
    """eta(x + iy) at y_j = y_min + j step for j < count, yielded as complex
    arrays of `chunk` points, the last shorter.  Raises ValueError first
    unless y_min >= 0, step > 0 and StripPoint takes x and the last y_j;
    AccelerationError is eta_accel's, at the first y where it fails.

    With j = b + r, k^-(x + i y_j) = k^-(x + i y_b) e^(-i r step ln k): each
    run of points with equal term count m is one product V T^T of anchor
    rows V[b, k] = c_k k^-(x + i y_b) / d, one every _ANCHOR_SPACING points
    (by exp, as eta_accel's terms), and the grid's table T[r, k] =
    e^(-i r step ln k).  The work memory is bounded by the chunk.

    The floor.  With u = eps / 2 and S = sum |c_k| k^-x / d, the product's
    m terms and their sum err by at most (m - 1 + sqrt(5)) u S (sqrt(5) u
    bounds a complex product: Brent, Percival and Zimmermann, Math. Comp.
    76, 2007), each term's exp by 3u as in eta_accel, and c_k / d, its
    product with the anchor and the table's entry by 4u more: (m + 9) u S,
    within eta_accel's m eps S for every m >= 24.  Neither floor counts the
    ulp by which each angle y ln k is rounded (here y_b + r step also
    misses y_j by one rounding); tests check both against mpmath.
    eta_accel's S takes |k^-s| as rounded, within (m + 4) u of k^-x; so the
    grid claims (m + 1) eps S (`_grid_scale`), never below eta_accel's, and
    the points of a run where that exceeds target_tol, an up-set, go to
    eta_accel, which keeps its reach and its message.
    """
    check_tol(target_tol)
    if not (y_min >= 0.0 and step > 0.0):
        raise ValueError(f"need y_min >= 0 and step > 0; got {y_min}, {step}")
    top = StripPoint(x, y_min + (count - 1) * step)  # the same float as the grid's
    term_count = partial(_accel_term_count, tol=target_tol)
    log_k = _accel_weights(term_count(top.y)).log_k
    table = np.exp(np.multiply.outer(np.arange(_ANCHOR_SPACING) * step, log_k) * -1j)
    for lo in range(0, count, chunk):
        ys = y_min + np.arange(lo, min(lo + chunk, count)) * step
        values = np.empty(len(ys), dtype=complex)
        start = 0
        while start < len(ys):
            m = term_count(ys[start])
            end = bisect.bisect_right(ys, m, start, key=term_count)
            scale = _grid_scale(x, m)
            cut = bisect.bisect_right(ys, target_tol, start, end,
                                      key=lambda y: _accel_error(y, m, scale))
            w = _accel_weights(m)
            anchors = np.multiply.outer(-(x + 1j * ys[start:cut:_ANCHOR_SPACING]), w.log_k)
            np.exp(anchors, out=anchors)
            anchors *= w.c / w.d
            values[start:cut] = (anchors @ table[:, :m].T).ravel()[:cut - start]
            for i in range(cut, end):
                values[i] = eta_accel(StripPoint(x, float(ys[i])), target_tol).value
            start = end
        yield values


def eta_averaged(p: StripPoint) -> SeriesResult:
    """Independent cross-check: `tail_averaged_sum` over the last 96 of
    max(64, ceil(8|y|)) + 96 partial sums, averaged pairwise down to one.

    The error estimate is the last-level averaging delta, plus a rounding
    floor n*eps*max|term| (the largest term is the first, of modulus 1),
    plus eps*|y|*ln n*sum|window terms| for the rounding of the angles
    y ln k, which does not shrink as n grows.
    """
    window = 96
    n = max(64, math.ceil(8.0 * abs(p.y))) + window
    re, im, tail_re, tail_im = direct_sums(p, n, window=window, prepare=_conjugate)
    re, delta_re = tail_averaged_sum(re, tail_re, window - 1)
    im, delta_im = tail_averaged_sum(im, tail_im, window - 1)
    angles = _EPS * abs(p.y) * math.log(n) * float(np.hypot(tail_re, tail_im).sum())
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
        raise ValueError("pole at z=1 (zeta has a simple pole at s = 1)")
    denom = bridge_denominator(p)
    if abs(denom) < 1e-9:
        raise ValueError(f"1 - 2^(1-s) vanishes near s=({p.x},{p.y}) "
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
    throughout 0 < x < 1.  Where 2^x overflows (x >= 1024) it takes the
    latter form, 1 within |2^-s| < 2^-1023.  Near its pole s = 0 the
    subtraction cancels; `geom_error` bounds what that costs."""
    w = cmath.exp(-1j * p.y * LN2)
    try:
        tx = 2.0 ** p.x
    except OverflowError:
        u = cmath.exp(-p.s * LN2)
        return (1.0 - 2.0 * u) / (1.0 - u)
    return (tx - 2.0 * w) / (tx - w)


def geom_error(p: StripPoint) -> float:
    """A bound on |geom_closed(p) - geom| / max(1, |geom|): the rounding of
    2^x, of the angle y ln 2 and of e^(-iy ln 2), with the subtraction's
    cancellation, (5 + 3 |y| ln 2) eps / |1 - 2^-s|.  |1 - 2^-s| is taken
    without cancellation, as the modulus of -expm1(-x ln 2) + e^(-x ln 2)
    (2 sin^2(y ln 2 / 2) + i sin(y ln 2)); inf where it is 0."""
    r = math.exp(-p.x * LN2)
    angle = p.y * LN2
    one_minus_u = abs(complex(-math.expm1(-p.x * LN2) + 2.0 * r * math.sin(angle / 2.0) ** 2,
                              r * math.sin(angle)))
    return (5.0 + 3.0 * abs(angle)) * _EPS / one_minus_u if one_minus_u else math.inf


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
    if not 0.0 < shift < math.inf:
        raise ValueError(f"shift must be finite and > 0, got {shift}")
    return direct_sums(p, n, shift=shift)[:2]


def shifted_sums_oracle(p: StripPoint, shift: float) -> tuple[float, float]:
    """Closed-form limits of shifted_sums via angle addition:
    (Re, -Im) of shift^(-iy) * eta(s)."""
    if not 0.0 < shift < math.inf:
        raise ValueError(f"shift must be finite and > 0, got {shift}")
    w = cmath.exp(-1j * p.y * math.log(shift)) * eta_accel(p).value
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
        return complex(*direct_sums(p, budget, step=q, prepare=_conjugate)[:2])
    raise ValueError(f"unknown method {method!r}")

