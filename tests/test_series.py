import cmath
import math
import random
import re
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_avx512, run_without_avx512
from etaq import limits, series
from etaq.series import (_SUM_BLOCK_TERMS, MAX_HEIGHT, MAX_TERMS, MAX_X,
                         AccelerationError, StripPoint,
                         bridge_denominator, direct_sums, eta_accel, eta_grid,
                         eta_averaged, gamma_partial, geom_closed, shifted_sums,
                         shifted_sums_oracle, subseries_q, term_ab, term_arrays, zeta_from_eta)
from etaq.limits import limit_B

# evaluated with an independent high-precision calculator before building
A3_B3_AT_NEAR_ZERO = (-0.56808634198281059, 0.10301087993956033)

FIRST_ZERO = StripPoint(0.5, 14.134725141734693)

B = _SUM_BLOCK_TERMS
# term counts at the edges of the direct sums' blocks
BLOCK_EDGES = [1, B - 1, B, B + 1, 3 * B + 17]

# Recorded from the code before the direct sums shared one term builder.
SUBSERIES_DIRECT_1000 = {
    (FIRST_ZERO, 3): -0.009099232797456246 + 0.0007069586829043848j,
    (FIRST_ZERO, 15): 0.0027383880330401284 - 0.003026614709015002j,
    (StripPoint(0.75, 3.0), 3): -0.47161293658396475 - 0.12893295118362957j,
    (StripPoint(0.75, 3.0), 15): 0.02198711170816017 - 0.14455855292576503j,
}
# Recorded from eta_averaged before it shared the tail-averaging routine.
ETA_AVERAGED = {
    StripPoint(1.0, 0.0): 0.6931471805599456 + 0j,
    StripPoint(0.5, 0.0): 0.6048986434216304 + 0j,
    FIRST_ZERO: -1.2614426546186218e-15 - 7.0665722395488334e-15j,
    StripPoint(0.75, 3.0): 1.016286170446599 + 0.45289564256189285j,
    StripPoint(0.3, 2.0): 0.7216562677270573 + 0.4169876695341941j,
}

strip_x = st.floats(min_value=0.1, max_value=3.0)
strip_y = st.floats(min_value=-25.0, max_value=25.0)


def ab(*args, **kwargs) -> tuple[np.ndarray, np.ndarray]:
    """`term_arrays`' terms as the two real arrays a and b."""
    terms = term_arrays(*args, **kwargs)
    return terms.real, terms.imag


def partial_eta(p: StripPoint, n: int) -> complex:
    """The exact sum of the first n eta terms a_k - i b_k, by `direct_sums`."""
    return complex(*direct_sums(p, n, prepare=series._conjugate)[:2])


def test_strip_point_flags():
    assert StripPoint(0.5, 3.0).s == 0.5 + 3.0j
    with pytest.raises(ValueError):
        StripPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        StripPoint(-0.5, 1.0)


def test_strip_point_x_cap():
    # up to MAX_X, x ln k stays finite for every float64 k, and every term
    # past k = 1 is already 0
    assert StripPoint(MAX_X, 0.0).x == MAX_X
    assert eta_accel(StripPoint(MAX_X, 5.0)).value == 1.0
    for x in (math.nextafter(MAX_X, math.inf), 1e308, math.inf, math.nan):
        with pytest.raises(ValueError) as exc:
            StripPoint(x, 0.0)
        assert str(exc.value) == f"need 0 < x <= 1e+300 and |y| <= 838.40; got x={x}, y=0.0"


def test_strip_point_height_ceiling():
    # the bound's exponent pi |y| / 2 - 350 ln(3 + sqrt(8)) reaches 700 here
    assert MAX_HEIGHT == pytest.approx(838.40, abs=0.01)
    assert StripPoint(0.5, MAX_HEIGHT).y == MAX_HEIGHT
    assert StripPoint(0.5, -MAX_HEIGHT).y == -MAX_HEIGHT
    for y in (math.nextafter(MAX_HEIGHT, math.inf), -math.nextafter(MAX_HEIGHT, math.inf),
              math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="need 0 < x <= 1e[+]300 and [|]y[|] <= 838.40"):
            StripPoint(0.5, y)


class TestTermAB:
    def test_first_term_is_one(self):
        for p in (StripPoint(0.5, 14.0), StripPoint(2.0, -3.0)):
            assert term_ab(1, p) == (1.0, 0.0)

    def test_k2_real_axis(self):
        a, b = term_ab(2, StripPoint(0.5, 0.0))
        assert a == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)
        assert b == 0.0

    def test_k3_frozen_value(self):
        a, b = term_ab(3, StripPoint(0.5, 14.1347251417))
        assert a == pytest.approx(A3_B3_AT_NEAR_ZERO[0], abs=1e-15)
        assert b == pytest.approx(A3_B3_AT_NEAR_ZERO[1], abs=1e-15)

    @given(strip_x, strip_y, st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_parity_in_y(self, x, y, k):
        a_pos, b_pos = term_ab(k, StripPoint(x, y))
        a_neg, b_neg = term_ab(k, StripPoint(x, -y))
        assert a_neg == pytest.approx(a_pos, abs=1e-14)
        assert b_neg == pytest.approx(-b_pos, abs=1e-14)

    DIRECT_SUMS = [
        lambda n: term_arrays(FIRST_ZERO, n),
        lambda n: partial_eta(FIRST_ZERO, n),
        lambda n: shifted_sums(FIRST_ZERO, 2.0, n),
        lambda n: subseries_q(FIRST_ZERO, 3, "direct", n),
    ]

    @pytest.mark.parametrize("build", DIRECT_SUMS)
    def test_count_past_cap_rejected_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                build(MAX_TERMS + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("build", DIRECT_SUMS)
    @pytest.mark.parametrize("n", [-1, -4])
    def test_negative_count_rejected(self, build, n):
        with pytest.raises(ValueError, match=f"term count {n} must be >= 0"):
            build(n)

    def test_arrays_match_scalar(self):
        p = StripPoint(0.7, 9.3)
        terms = term_arrays(p, 50)
        for k in (1, 2, 17, 50):
            sa, sb = term_ab(k, p)
            assert terms[k - 1].real == pytest.approx(sa, abs=1e-15)
            assert terms[k - 1].imag == pytest.approx(sb, abs=1e-15)

    @pytest.mark.parametrize("p", [StripPoint(0.7, 9.3), StripPoint(2.0, 0.0),
                                   StripPoint(2.0, -0.0), StripPoint(0.5, 0.0),
                                   StripPoint(MAX_X, 0.0), StripPoint(MAX_X, -0.0)])
    @pytest.mark.parametrize("step", [1, 2, 15])
    @pytest.mark.parametrize("n", [0, 1, 999, 1000, *BLOCK_EDGES[1:]])
    @pytest.mark.parametrize("shift", [0.3, 1.0, math.e, 7.0])
    def test_arrays_match_parity_mask_construction(self, p, step, n, shift):
        # the builder as it was: int64 k and a k % 2 == 0 mask for the signs,
        # and cos and sin at every y; at y = +-0 the builder calls neither,
        # which keeps these bits for amplitudes of 0 and -0.0 (x = MAX_X) and
        # angles of both signs (shift 0.3)
        k = np.arange(step, step * n + 1, step)
        angle = np.log(k)
        amp = np.exp(-p.x * angle)
        np.negative(amp, out=amp, where=k % 2 == 0)
        angle += math.log(shift)
        angle *= p.y
        want = (np.cos(angle) * amp, np.sin(angle) * amp)
        got = term_arrays(p, n, step, shift)
        assert got.dtype == complex and len(got) == n
        for g, w in zip((got.real, got.imag), want):
            assert g.tobytes() == w.tobytes()  # the signs of zero too


def summed(x) -> float:
    """The 1-D float array x summed by `direct_sums`, through a `prepare`
    that copies x into each block of cosine terms."""
    x = np.asarray(x, dtype=np.float64)

    def prepare(lo, a, b):
        a[:] = x[lo:lo + len(a)]

    return direct_sums(StripPoint(2.0, 0.0), len(x), prepare=prepare)[0]


def range_error(largest: float) -> str:
    """The kernel's message for a block whose largest modulus is `largest`."""
    return f"exact sum needs terms below 2^970 in modulus; the largest is {largest!r}"


def assert_fsum_bits(x):
    """summed(x) is math.fsum(x): the same float, sign of zero included.
    Past the kernel's range (a NaN, an infinity or a term not below 2^970
    in modulus) it raises the one-line ValueError instead, even where
    such terms cancel."""
    x = np.asarray(x, dtype=np.float64)
    largest = float(np.abs(x).max(initial=0.0))
    if not largest < 2.0**970:
        with pytest.raises(ValueError, match=re.escape(range_error(largest))):
            summed(x)
        return
    assert summed(x).hex() == math.fsum(x).hex()  # hex keeps the sign of zero


def spread_terms(rng, n, exp_range=300):
    return rng.standard_normal(n) * np.exp2(rng.integers(-exp_range, exp_range, n))


def random_exponent_sample(seed):
    """100 arrays of spread terms, each followed by its mirror image nudged
    by an ulp or two, whose sum is all cancellation."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x = spread_terms(rng, int(rng.integers(1, 2000)))
        yield x
        y = np.concatenate([x, -x * (1.0 + 2.0**-52 * rng.integers(-2, 3, len(x)))])
        rng.shuffle(y)
        yield y


# one block from 2^969 down to 5e-324, full mantissas: every level down to
# the subnormal grid
ALL_LEVELS = np.ldexp(np.nextafter(1.0, 0.0), np.arange(969, -1075, -1))
# a full block of terms 1 - k 2^-40 with an odd sum of k, then its mirror
# image but for the first term: a level one bit wider than _LEVEL_BITS would
# sum 2^14 terms of about 2^40 grid units each, and round
FULL_LEVEL = 1.0 - (2 * np.arange(B) + 1) * 2.0**-40
FULL_LEVEL[0] = 1.0 - 2.0**-39

DISPATCH_SCRIPT = """
import math, sys
sys.path.insert(0, sys.argv[1])
from conftest import CPU_FEATURES
from test_series import random_exponent_sample, summed
assert not CPU_FEATURES["X86_V4"]
for seed in range(4):
    for x in random_exponent_sample(seed):
        assert summed(x).hex() == math.fsum(x).hex(), seed
print("ok")
"""


class TestExactSum:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_exponents_and_cancellation(self, seed):
        for x in random_exponent_sample(seed):
            assert_fsum_bits(x)

    @needs_avx512
    def test_sums_do_not_depend_on_the_simd_dispatch(self):
        """The kernel's numpy loops run on another SIMD level without
        AVX-512; the sums stay math.fsum's, whatever order np.sum adds in."""
        run_without_avx512(DISPATCH_SCRIPT)

    @pytest.mark.parametrize("scale", [2.0**-700, 2.0**-760, 2.0**-1000, 2.0**-1074])
    def test_near_subnormal(self, scale):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = spread_terms(rng, 500, 40) * scale
            assert_fsum_bits(x)
            assert_fsum_bits(np.concatenate([x, -x[:-1]]))

    def test_across_block_boundaries(self):
        rng = np.random.default_rng(3)
        half = 4 * B
        x = spread_terms(rng, 2 * half + 5, 60)
        # the halves cancel each other but for a few low-order terms
        x[half:2 * half] = -x[:half]
        assert_fsum_bits(x)
        assert_fsum_bits(x[:half + 1])

    @pytest.mark.parametrize("x", [
        [], [0.0], [0.0] * 1000, [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0],
        [math.nan], [1.0, math.nan, 2.0], [math.inf], [-math.inf, 1.0],
        [math.inf, -math.inf], [math.inf, math.nan], [1e308, 1e308, -1e308],
        [1e308, 1e308], [2.0**969, 2.0**969], [2.0**971, -2.0**971, 1.0],
        [5e-324, 5e-324], [5e-324, -1e-323], [1.0, 1e100, 1.0, -1e100],
        # huge terms that cancel: fsum overflows all the same
        [1.7976931348623157e308] * 2 + [-1.7976931348623157e308] * 2,
        # every term rounds up to 2^_LEVEL_BITS grid units: a level sum of 2^53
        [np.nextafter(1.0, 0.0)] * B,
        ALL_LEVELS, ALL_LEVELS * (-1.0) ** np.arange(len(ALL_LEVELS)),
        np.concatenate([FULL_LEVEL, -FULL_LEVEL[1:]]),
        *(spread_terms(np.random.default_rng(n), n) for n in (B - 1, B, B + 1)),
        # zeros and cancellation across the two halves of the blocks
        -np.zeros(3 * B + 5), np.concatenate([-np.zeros(2 * B), [0.0], -np.zeros(B + 4)]),
        np.concatenate([[0.0], -np.zeros(3 * B + 4)]),
        np.concatenate([np.ones(2 * B), -np.ones(2 * B)]),
        np.concatenate([-np.ones(2 * B), np.ones(2 * B)]),
        np.concatenate([np.full(B, 0.5), -np.ones(B // 2), -np.zeros(B + 3)]),
    ])
    def test_edge_cases(self, x):
        assert_fsum_bits(x)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_floats(self, x):
        assert_fsum_bits(x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**970,
                                     -1.7976931348623157e308])
    def test_out_of_range_term_raises_one_value_error(self, bad):
        # in the second block, after the first has been summed
        x = np.ones(B + 5)
        x[B + 3] = bad
        with pytest.raises(ValueError) as exc:
            summed(x)
        assert str(exc.value) == range_error(abs(bad))

    def test_direct_sum_terms(self):
        a, b = ab(FIRST_ZERO, 10**5)
        for terms in (a, -b, a[:-64], term_arrays(StripPoint(0.75, 3.0), 1000, step=15).imag):
            assert_fsum_bits(terms)

    @pytest.mark.parametrize("x", [
        np.zeros(10**5), -np.zeros(10**5), np.tile([0.0, -0.0, -0.0], 10**5 // 3),
        -term_arrays(StripPoint(2.0, 0.0), 10**5).imag,
    ], ids=["zeros", "negative-zeros", "mixed-zeros", "sine-terms-at-y-0"])
    def test_exact_zero_takes_no_fsum_pass(self, x, monkeypatch):
        want = math.fsum(x)
        lengths = []
        fsum = math.fsum
        monkeypatch.setattr(series.math, "fsum",
                            lambda terms: (lengths.append(len(terms)), fsum(terms))[1])
        got = summed(x)
        monkeypatch.undo()
        assert got.hex() == want.hex()
        assert lengths and max(lengths) <= 1

    def test_length_near_max_terms(self):
        # full mantissas at one exponent fill each bucket fastest
        x = np.full(MAX_TERMS, np.nextafter(1.0, 0.0))
        x[::7] = np.nextafter(-0.5, 0.0)
        x[-1000:] = spread_terms(np.random.default_rng(5), 1000, 30)
        assert_fsum_bits(x)


def fsum_bits(x) -> str:
    return math.fsum(x).hex()  # hex keeps the sign of zero


class TestDirectSums:
    """The streamed sums against math.fsum of the whole term arrays."""

    POINTS = [FIRST_ZERO, StripPoint(2.0, 0.0), StripPoint(2.0, -0.0)]

    @pytest.mark.parametrize("p", POINTS)
    @pytest.mark.parametrize("step", [1, 2, 15])
    @pytest.mark.parametrize("shift", [1.0, 2.5])
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_head_sums_and_tails_at_block_edges(self, p, step, shift, n):
        a, b = ab(p, n, step, shift)
        sa, sb, ta, tb = direct_sums(p, n, step, shift)
        assert (sa.hex(), sb.hex()) == (fsum_bits(a), fsum_bits(b))
        assert len(ta) == len(tb) == 0
        # a 64-term tail: all n terms (n = 1), the end of the only block
        # (B - 1 and B), or straddling a block edge (B + 1 and 3 B + 17)
        head = max(n - 64, 0)
        sa, sb, ta, tb = direct_sums(p, n, step, shift, window=64)
        assert (sa.hex(), sb.hex()) == (fsum_bits(a[:head]), fsum_bits(b[:head]))
        assert (ta.tobytes(), tb.tobytes()) == (a[head:].tobytes(), b[head:].tobytes())

    @pytest.mark.parametrize("p", POINTS)
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_public_sums_at_block_edges(self, p, n):
        a, b = ab(p, n)
        got = partial_eta(p, n)
        assert (got.real.hex(), got.imag.hex()) == (fsum_bits(a), fsum_bits(-b))
        a, b = ab(p, n, shift=2.5)
        assert [x.hex() for x in shifted_sums(p, 2.5, n)] == [fsum_bits(a), fsum_bits(b)]
        a, b = ab(p, n, step=15)
        got = subseries_q(p, 15, "direct", n)
        assert (got.real.hex(), got.imag.hex()) == (fsum_bits(a), fsum_bits(-b))

    @pytest.mark.parametrize("y, step, negative", [
        (0.0, 2, True),    # every k even: every sine term is -0.0
        (-0.0, 2, False),  # every sine term is +0.0
        (0.0, 1, False),   # -0.0 at even k only
    ])
    def test_exact_zero_tracked_across_blocks(self, y, step, negative, monkeypatch):
        n = 3 * B + 17
        p = StripPoint(2.0, y)
        b = term_arrays(p, n, step).imag
        assert bool(np.signbit(b).all()) == negative
        want = fsum_bits(b)
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(series.math, "fsum",
                            lambda terms: (calls.append(list(terms)), fsum(terms))[1])
        got = direct_sums(p, n, step)[1]
        monkeypatch.undo()
        assert got.hex() == want
        # the cosine sum is not zero; the sine sum is fsum of one -0.0 or none
        assert [[x.hex() for x in c] for c in calls] == [[(-0.0).hex()] if negative else []]

    @pytest.mark.parametrize("y", [MAX_HEIGHT, -MAX_HEIGHT])
    def test_at_the_height_ceiling_sums_as_fsum(self, y):
        # the largest angles y ln k there are: every term is finite, and the
        # sums are fsum's of the builder's terms, which are term_ab's
        p = StripPoint(0.5, y)
        got = direct_sums(p, 300)
        for g, built, scalar in zip(got, ab(p, 300),
                                    zip(*(term_ab(k, p) for k in range(1, 301)))):
            assert np.isfinite(built).all()
            assert g == math.fsum(built)
            assert g == pytest.approx(math.fsum(scalar), abs=1e-13)

    @pytest.mark.parametrize("direct_sum", TestTermAB.DIRECT_SUMS[1:],
                             ids=["partial_eta", "shifted_sums", "subseries_q"])
    def test_peak_memory_is_a_few_blocks(self, direct_sum):
        # the block's term and work arrays, never arrays as long as the terms
        direct_sum(1000)
        tracemalloc.start()
        try:
            direct_sum(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160 * _SUM_BLOCK_TERMS

    def test_small_partial_eta_sums(self):
        p = StripPoint(2.0, 0.0)
        assert partial_eta(p, 1) == 1.0
        assert partial_eta(p, 2) == 0.75
        assert partial_eta(p, 0) == 0.0

    def test_partial_eta_sum_shrinks_near_zero(self):
        p = StripPoint(0.5, 14.1347251417)
        assert abs(partial_eta(p, 10**6)) <= 1e-2


def split_at(n: int) -> int:
    """The first position of `direct_sums`' second half (0 if it has none)."""
    return -(-n // B) // 2 * B


def one_thread_sums(p, n, step=1, shift=1.0, window=0, prepare=None):
    """`direct_sums` as one thread would run it: every block of one
    `term_blocks` through `_block_sum` in order."""
    head = n - min(window, n)
    work = np.empty((2, B))
    totals, negative, tails = [0, 0], [head > 0] * 2, ([], [])
    for lo, a, b in series.term_blocks(p, n, step, shift):
        if prepare is not None:
            prepare(lo, a, b)
        cut = min(max(head - lo, 0), len(a))
        for i, x in enumerate((a, b)):
            if cut:
                totals[i] += series._block_sum(x[:cut], work)
                negative[i] = negative[i] and bool(np.signbit(x[:cut]).all())
            tails[i].append(x[cut:].copy())
    return (*map(series._fsum_float, totals, negative),
            *(np.concatenate(t) if t else np.empty(0) for t in tails))


def assert_same_sums(got, want):
    assert [x.hex() for x in got[:2]] == [x.hex() for x in want[:2]]
    assert [t.tobytes() for t in got[2:]] == [t.tobytes() for t in want[2:]]


class TestSplitSums:
    """The two halves of `direct_sums` against one thread's sums."""

    @pytest.mark.parametrize("p", [FIRST_ZERO, StripPoint(2.0, 0.0)])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B, 3 * B + 5, 10**6])
    @pytest.mark.parametrize("step", [1, 3])
    @pytest.mark.parametrize("shift", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("window", ["0", "64", "past-n", "across-the-split"])
    def test_bits_do_not_depend_on_the_split(self, p, n, step, shift, window):
        window = {"0": 0, "64": 64, "past-n": n + 5,
                  "across-the-split": n - split_at(n) + 10}[window]
        assert_same_sums(direct_sums(p, n, step, shift, window),
                         one_thread_sums(p, n, step, shift, window))

    @pytest.mark.parametrize("n", [3 * B + 5, 10**6])
    def test_limit_b_blocks_do_not_depend_on_the_split(self, n):
        prepare = limits._negated_outside_gamma
        assert_same_sums(direct_sums(FIRST_ZERO, n, window=64, prepare=prepare),
                         one_thread_sums(FIRST_ZERO, n, window=64, prepare=prepare))

    def test_the_second_half_runs_on_one_worker_thread(self):
        n = 3 * B + 5
        threads = {}

        def prepare(lo, a, b):
            threads[lo] = threading.get_ident()

        direct_sums(FIRST_ZERO, n, prepare=prepare)
        main = threading.get_ident()
        assert sorted(threads) == [0, B, 2 * B, 3 * B]
        assert [threads[lo] == main for lo in sorted(threads)] == [True, True, False, False]
        threads.clear()
        direct_sums(FIRST_ZERO, B, prepare=prepare)  # one block: no worker
        assert threads == {0: main}

    @pytest.mark.parametrize("where", ["first-half", "second-half"])
    def test_an_error_in_either_half_is_one_value_error(self, where):
        n = 3 * B + 5
        bad = 5 if where == "first-half" else split_at(n) + 7

        def prepare(lo, a, b):
            if lo <= bad < lo + len(a):
                a[bad - lo] = math.inf

        before = threading.active_count()
        with pytest.raises(ValueError) as exc:
            direct_sums(FIRST_ZERO, n, prepare=prepare)
        assert type(exc.value) is ValueError
        assert str(exc.value) == range_error(math.inf)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        limit_B(FIRST_ZERO, 10**5)
        assert threading.active_count() == before


class TestEtaAccel:
    def test_ln2(self):
        assert eta_accel(StripPoint(1.0, 0.0)).value == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_pi_squared_over_12(self):
        assert eta_accel(StripPoint(2.0, 0.0)).value == pytest.approx(
            math.pi**2 / 12.0, abs=1e-12)

    def test_averaged_tail_cross_check(self):
        for p in (StripPoint(1.0, 0.0), StripPoint(0.5, 0.0),
                  StripPoint(0.5, 14.0), StripPoint(0.75, 3.0)):
            accel = eta_accel(p)
            avg = eta_averaged(p)
            assert abs(accel.value - avg.value) < 1e-11
            assert avg.method == "AveragedTail"

    @pytest.mark.parametrize("p", list(ETA_AVERAGED))
    def test_averaged_matches_golden(self, p):
        avg = eta_averaged(p)
        assert abs(avg.value - ETA_AVERAGED[p]) <= 1e-15
        assert avg.error_estimate > 0.0

    def test_against_mpmath_grid(self):
        for x in (0.25, 0.5, 0.75, 1.5):
            for y in (0.0, 1.0, 14.0, 29.0):
                got = eta_accel(StripPoint(x, y)).value
                want = complex(mp.altzeta(mp.mpc(x, y)))
                assert abs(got - want) < 1e-11

    @given(strip_x, strip_y)
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, x, y):
        v = eta_accel(StripPoint(x, y)).value
        w = eta_accel(StripPoint(x, -y)).value
        assert abs(w - v.conjugate()) < 1e-11

    def test_error_estimate_is_honest(self):
        for p in (StripPoint(0.5, 0.0), StripPoint(0.5, 14.0)):
            res = eta_accel(p)
            true = complex(mp.altzeta(mp.mpc(p.x, p.y)))
            assert abs(res.value - true) <= res.error_estimate

    def test_averaged_error_estimate_is_honest(self):
        # (0.1, 30) is where the angles' rounding exceeded the old estimate
        rng = random.Random(20231)
        points = [(0.1, 30.0)] + [(rng.uniform(0.02, 3.0), rng.uniform(-60.0, 60.0))
                                  for _ in range(60)]
        with mp.workdps(40):
            for x, y in points:
                res = eta_averaged(StripPoint(x, y))
                true = abs(mp.altzeta(mp.mpc(x, y)) - mp.mpc(res.value))
                assert true <= res.error_estimate, (x, y)


def scalar_eta(x, ys, tol=1e-12):
    """eta_accel point by point up to the first failure: the values, the
    errors, and the first AccelerationError (or None)."""
    values, errors = [], []
    for y in ys:
        try:
            res = eta_accel(StripPoint(x, float(y)), tol)
        except AccelerationError as exc:
            return values, errors, exc
        values.append(res.value)
        errors.append(res.error_estimate)
    return values, errors, None


def grid_values(x, y_min, step, count, tol=1e-12, chunk=2**16) -> np.ndarray:
    """eta_grid's chunks joined into one array."""
    return np.concatenate([np.empty(0, dtype=complex),
                           *eta_grid(x, y_min, step, count, chunk, tol)])


def grid_claim(x, y, tol=1e-12) -> float:
    """The error that eta_grid claims at y, from the helpers it calls."""
    m = series._accel_term_count(y, tol)
    return series._accel_error(y, m, series._grid_scale(x, m))


class TestEtaGrid:
    """The scan's evaluator.  Its values differ from eta_accel's in the last
    bits; tests/test_zeros.py checks that the scan's candidates do not.  It
    runs only on the line x = 1/2, so off-line grids are not tested."""

    @pytest.mark.parametrize("y_min, step, count, tol", [
        (190.0, 0.01, 2001, 1e-12),    # the scan's first failure, at 196.41
        (0.0, 0.5, 100, 1e-14),
        (300.0, 1.0, 400, 1e-3),       # a loose tolerance past its reach
        # eta_accel's floor passes 9.95e-13 with 200 terms, the grid's does
        # not: that run goes to eta_accel, and 201 terms fail there
        (194.0, 0.001, 3000, 9.95e-13),
    ])
    def test_first_failure_is_eta_accels(self, y_min, step, count, tol):
        ys = y_min + np.arange(count) * step
        values, errors, exc = scalar_eta(0.5, ys, tol)
        with pytest.raises(AccelerationError) as got:
            grid_values(0.5, y_min, step, count, tol, chunk=997)
        assert str(got.value) == str(exc)
        want, res = exc.result, got.value.result
        assert (res.value, res.terms_used, res.error_estimate, res.method) == (
            want.value, want.terms_used, want.error_estimate, want.method)
        got_values = grid_values(0.5, y_min, step, len(values), tol, chunk=997)
        for y, value, want_value, error in zip(ys.tolist(), got_values.tolist(), values, errors):
            claim = grid_claim(0.5, y, tol)
            if claim > tol:  # routed to eta_accel
                assert value == want_value
            else:
                assert abs(value - want_value) <= claim + error

    def test_error_estimate_is_honest(self):
        # 20 random points of each grid, up to the reach at 1e-12 (196.4062)
        rng = random.Random(24)
        with mp.workdps(30):
            for y_min, step in ((0.0, 0.004), (0.5, 0.01), (150.0, 0.0007)):
                count = math.floor((196.4 - y_min) / step) + 1
                values = grid_values(0.5, y_min, step, count)
                for j in [count - 1, *rng.sample(range(count - 1), 19)]:
                    y = float(y_min + j * step)
                    true = abs(mp.altzeta(mp.mpc(0.5, y)) - mp.mpc(values[j]))
                    assert true <= grid_claim(0.5, y), (y_min, step, j)

    def test_at_the_ceiling_the_bound_is_finite(self):
        step = 0.01
        count = 64
        values = grid_values(0.5, MAX_HEIGHT - (count - 1) * step, step, count, 1.7e308)
        assert np.isfinite(values).all()
        res = eta_accel(StripPoint(0.5, MAX_HEIGHT), 1.7e308)
        assert res.terms_used == 350
        assert abs(values[-1] - res.value) <= 1e-12
        # the bound's exponent is 700 plus rounding there: math.exp gives
        # about 1e304, and the claim does not overflow
        assert 1e304 < grid_claim(0.5, MAX_HEIGHT, 1.7e308) < 1e306

    def test_a_tolerance_too_small_for_10_over_tol_uses_the_cap(self):
        # 10 / 1e-320 overflows to inf: the term count is capped, not an OverflowError
        with pytest.raises(AccelerationError) as got:
            grid_values(0.5, 1.0, 0.01, 1, 1e-320)
        with pytest.raises(AccelerationError, match="with 350 terms") as want:
            eta_accel(StripPoint(0.5, 1.0), 1e-320)
        assert str(got.value) == str(want.value)

    def test_empty(self):
        assert list(eta_grid(0.5, 0.0, 0.01, 0, 16)) == []

    def test_chunks(self):
        # each chunk starts its own anchors, so only the last bits may move
        chunks = list(eta_grid(0.5, 0.0, 0.01, 1000, 300))
        assert [len(c) for c in chunks] == [300, 300, 300, 100]
        whole = grid_values(0.5, 0.0, 0.01, 1000)
        assert np.abs(np.concatenate(chunks) - whole).max() <= 1e-13

    @pytest.mark.parametrize("x, y_min, step, count, tol", [
        (0.0, 1.0, 0.01, 1, 1e-12), (math.nan, 1.0, 0.01, 1, 1e-12),
        (0.5, -1.0, 0.01, 1, 1e-12), (0.5, math.nan, 0.01, 1, 1e-12),
        (0.5, math.inf, 0.01, 1, 1e-12), (0.5, 1.0, 0.0, 1, 1e-12),
        (0.5, 1.0, -0.01, 1, 1e-12), (0.5, 1.0, math.nan, 1, 1e-12),
        (0.5, 1.0, math.inf, 2, 1e-12), (0.5, 1.0, 0.01, 1, 0.0),
        # past MAX_HEIGHT, rejected before the failure at 196.41 is evaluated
        (0.5, 0.0, 0.01, 90000, 1e-12), (0.5, 100.0, 1e300, 2, 1e-12),
        (0.5, math.nextafter(MAX_HEIGHT, math.inf), 0.01, 1, 1.7e308),
    ])
    def test_bad_input(self, x, y_min, step, count, tol, monkeypatch):
        monkeypatch.setattr(series, "eta_accel", lambda *a: pytest.fail("eta evaluated"))
        with pytest.raises(ValueError):
            next(eta_grid(x, y_min, step, count, 2**16, tol))


class TestZetaBridge:
    def test_zeta_two(self):
        assert zeta_from_eta(StripPoint(2.0, 0.0)).value == pytest.approx(
            math.pi**2 / 6.0, abs=1e-9)

    def test_zeta_half_reference(self):
        assert zeta_from_eta(StripPoint(0.5, 0.0)).value.real == pytest.approx(
            -1.4603545088, abs=1e-8)

    def test_pole_rejected(self):
        with pytest.raises(ValueError) as exc:
            zeta_from_eta(StripPoint(1.0, 0.0))
        assert str(exc.value) == "pole at z=1 (zeta has a simple pole at s = 1)"

    def test_singular_denominator_rejected(self):
        y = 2.0 * math.pi / math.log(2.0)
        with pytest.raises(ValueError, match=r"^1 - 2\^\(1-s\) vanishes near s=\(1\.0,"):
            zeta_from_eta(StripPoint(1.0, y))

    @pytest.mark.parametrize("x, y", [(0.999, 0.0), (1.0, 0.001), (2.0, 0.0),
                                      (0.5, 14.134725)])
    def test_error_estimate_covers_true_error(self, x, y):
        # near the pole the rounding of 1 - 2^(1-s) dominates the true error
        res = zeta_from_eta(StripPoint(x, y))
        with mp.workdps(40):
            true = abs(mp.mpc(res.value) - mp.zeta(mp.mpc(mp.mpf(x), mp.mpf(y))))
        assert float(true) <= res.error_estimate

    def test_zeta_three_against_mpmath(self):
        got = zeta_from_eta(StripPoint(3.0, 0.0)).value
        assert abs(got - float(mp.zeta(3))) < 1e-12

    def test_bridge_identity(self):
        for p in (StripPoint(0.3, 2.0), StripPoint(0.5, 14.0),
                  StripPoint(2.0, 1.0)):
            lhs = bridge_denominator(p) * zeta_from_eta(p).value
            assert abs(lhs - eta_accel(p).value) < 1e-12


class TestGeomClosed:
    def test_minus_sqrt2_on_real_axis(self):
        assert geom_closed(StripPoint(0.5, 0.0)) == pytest.approx(
            -math.sqrt(2.0), abs=1e-12)

    def test_full_period_in_y(self):
        y = 2.0 * math.pi / math.log(2.0)
        assert geom_closed(StripPoint(0.5, y)) == pytest.approx(
            -math.sqrt(2.0), abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=0.99), strip_y)
    @settings(max_examples=100, deadline=None)
    def test_nonvanishing_in_strip(self, x, y):
        p = StripPoint(x, y)
        bound = (2.0 - 2.0**x) / (2.0**x + 1.0)
        assert abs(geom_closed(p)) >= bound > 0.0

    @given(strip_x, strip_y)
    @settings(max_examples=100, deadline=None)
    def test_algebraic_identity(self, x, y):
        p = StripPoint(x, y)
        lhs = geom_closed(p) * (1.0 - cmath.exp(-p.s * math.log(2.0)))
        rhs = 1.0 - cmath.exp((1.0 - p.s) * math.log(2.0))
        assert abs(lhs - rhs) < 1e-13

    @given(st.floats(min_value=-12.0, max_value=3.0),
           st.one_of(strip_y, st.integers(-120, 120).map(lambda j: j * math.pi / math.log(2.0))))
    @settings(max_examples=300, deadline=None)
    def test_error_bound_against_mpmath(self, log10_x, y):
        # heights j pi / ln 2 take in the images of the pole s = 0 (x near 0)
        # and the closed form's zeros (x = 1, log10_x = 0)
        p = StripPoint(10.0**log10_x, y)
        u = mp.power(2, -mp.mpc(p.x, p.y))
        want = (1 - 2 * u) / (1 - u)
        err = float(abs(mp.mpc(geom_closed(p)) - want) / max(1, abs(want)))
        assert err <= series.geom_error(p)

    @pytest.mark.parametrize("x", [1024.0, 1030.0, 1e300])
    def test_past_two_to_the_x_overflow(self, x):
        p = StripPoint(x, 5.0)
        assert abs(geom_closed(p) - 1.0) <= 2.0**-1023  # 1 - 2^-s, and 2^-s is subnormal
        assert geom_closed(StripPoint(x, 0.0)) == 1.0
        assert series.geom_error(p) < 1e-14

    def test_error_bound_grows_at_the_pole(self):
        assert series.geom_error(StripPoint(5e-324, 0.0)) == math.inf
        assert series.geom_error(StripPoint(1e-17, 0.0)) > 1.0
        assert series.geom_error(StripPoint(0.5, 0.0)) < 1e-14


class TestGammaPartial:
    def test_l_zero_is_one(self):
        assert gamma_partial(StripPoint(0.5, 14.0), 0) == 1.0 + 0.0j

    def test_l_one_real_axis(self):
        assert gamma_partial(StripPoint(0.5, 0.0), 1) == pytest.approx(
            1.0 - 1.0 / math.sqrt(2.0), abs=1e-15)

    def test_converges_to_closed_form(self):
        p = StripPoint(0.5, 0.0)
        for L in (10, 20, 30):
            err = abs(gamma_partial(p, L) - geom_closed(p))
            assert err <= 2.0 ** (-L * p.x) * 2.0 / (1.0 - 2.0 ** (-p.x))

    def test_decay_rate(self):
        p = StripPoint(0.75, 3.0)
        target = geom_closed(p)
        ls = np.arange(4, 32)
        diffs = [abs(gamma_partial(p, int(l)) - target) for l in ls]
        slope = np.polyfit(ls, np.log2(diffs), 1)[0]
        assert -slope == pytest.approx(p.x, rel=0.02)


class TestShiftedSums:
    def test_shift_one_reduces_to_plain_sums(self):
        p = StripPoint(0.75, 5.0)
        a, b = ab(p, 500)
        cs, sn = shifted_sums(p, 1.0, 500)
        assert cs == pytest.approx(math.fsum(a), abs=1e-13)
        assert sn == pytest.approx(math.fsum(b), abs=1e-13)

    def test_matches_closed_form_oracle(self):
        p = StripPoint(0.75, 5.0)
        for shift in (math.e, 2.0, 0.5):
            cs, sn = shifted_sums(p, shift, 100_000)
            oc, os_ = shifted_sums_oracle(p, shift)
            assert cs == pytest.approx(oc, abs=1e-3)
            assert sn == pytest.approx(os_, abs=1e-3)

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(ValueError):
            shifted_sums(StripPoint(0.5, 1.0), 0.0, 10)

    @pytest.mark.parametrize("shift", [math.inf, math.nan])
    def test_rejects_a_shift_that_is_not_finite(self, shift):
        # ln shift would make every angle, and so every term, NaN
        for f in (lambda: shifted_sums(StripPoint(0.5, 1.0), shift, 10),
                  lambda: shifted_sums_oracle(StripPoint(0.5, 1.0), shift)):
            with pytest.raises(ValueError, match="shift must be finite and > 0"):
                f()


class TestSubseries:
    def test_q_one_is_eta(self):
        p = StripPoint(0.75, 3.0)
        assert abs(subseries_q(p, 1) - eta_accel(p).value) < 1e-12

    def test_q_three_at_two(self):
        got = subseries_q(StripPoint(2.0, 0.0), 3)
        assert got.real == pytest.approx(math.pi**2 / 108.0, abs=1e-9)
        assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_direct_agrees_with_oracle(self):
        for q in (1, 3, 5, 9, 15):
            for p in (StripPoint(0.5, 0.0), StripPoint(0.75, 3.0),
                      StripPoint(2.0, 0.0)):
                direct = subseries_q(p, q, "direct", 50_000)
                oracle = subseries_q(p, q, "accelerated")
                tail = 4.0 * (q * 50_000) ** (-p.x)
                assert abs(direct - oracle) <= tail

    @pytest.mark.parametrize("p, q", list(SUBSERIES_DIRECT_1000))
    def test_direct_matches_golden_and_literal_terms(self, p, q):
        direct = subseries_q(p, q, "direct", 1000)
        assert direct == SUBSERIES_DIRECT_1000[p, q]
        terms = [term_ab(m * q, p) for m in range(1, 1001)]
        literal = complex(math.fsum(a for a, _ in terms),
                          -math.fsum(b for _, b in terms))
        assert abs(direct - literal) <= 1e-13

    def test_even_q_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            subseries_q(StripPoint(0.5, 0.0), 4)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("evaluate", [lambda tol: eta_accel(StripPoint(0.5, 1.0), tol),
                                      lambda tol: next(eta_grid(0.5, 1.0, 0.01, 1, 1, tol))],
                         ids=["eta_accel", "eta_grid"])
def test_tolerance_must_be_finite_and_positive(evaluate, tol):
    with pytest.raises(ValueError, match="targetTol must be finite and > 0"):
        evaluate(tol)
