import cmath
import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaq.series import (MAX_TERMS, AccelerationError, PoleError,
                         SingularDenominatorError, StripPoint, bridge_denominator,
                         eta_accel, eta_accel_many, eta_averaged,
                         eta_partial, euler_product_check, gamma_partial,
                         geom_closed, shifted_sums, shifted_sums_oracle,
                         subseries_q, term_ab, term_arrays, zeta_from_eta)

# evaluated with an independent high-precision calculator before building
A3_B3_AT_NEAR_ZERO = (-0.56808634198281059, 0.10301087993956033)

FIRST_ZERO = StripPoint(0.5, 14.134725141734693)

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


def test_strip_point_flags():
    assert StripPoint(0.5, 3.0).in_critical_strip
    assert not StripPoint(2.0, 3.0).in_critical_strip
    with pytest.raises(ValueError):
        StripPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        StripPoint(-0.5, 1.0)


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
        lambda n: eta_partial(FIRST_ZERO, n),
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
        a, b = term_arrays(p, 50)
        for k in (1, 2, 17, 50):
            sa, sb = term_ab(k, p)
            assert a[k - 1] == pytest.approx(sa, abs=1e-15)
            assert b[k - 1] == pytest.approx(sb, abs=1e-15)


class TestEtaPartial:
    def test_small_sums(self):
        p = StripPoint(2.0, 0.0)
        assert eta_partial(p, 1) == 1.0
        assert eta_partial(p, 2) == 0.75
        assert eta_partial(p, 0) == 0.0

    def test_shrinks_near_zero(self):
        p = StripPoint(0.5, 14.1347251417)
        assert abs(eta_partial(p, 10**6)) <= 1e-2


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


def assert_same_as_scalar(x, ys, tol=1e-12):
    values, errors, exc = scalar_eta(x, ys, tol)
    if exc is None:
        got_values, got_errors = eta_accel_many(x, ys, tol)
        assert got_values.tolist() == values
        assert got_errors.tolist() == errors
        return
    with pytest.raises(AccelerationError) as got:
        eta_accel_many(x, ys, tol)
    assert str(got.value) == str(exc)
    want, res = exc.result, got.value.result
    assert (res.terms_used, res.error_estimate, res.method) == (
        want.terms_used, want.error_estimate, want.method)
    assert repr(res.value) == repr(want.value)  # nan-safe
    if values:  # the points before the failure
        got_values, got_errors = eta_accel_many(x, ys[:len(values)], tol)
        assert got_values.tolist() == values
        assert got_errors.tolist() == errors


class TestEtaAccelMany:
    def test_bit_identical_on_benchmark_grid(self):
        # the grid of `zeros scan --y-max 190 --step 0.004`
        assert_same_as_scalar(0.5, 0.0 + np.arange(47501) * 0.004)

    @pytest.mark.parametrize("x", [0.25, 0.75, 2.0])
    def test_bit_identical_off_the_line(self, x):
        assert_same_as_scalar(x, 0.0 + np.arange(4751) * 0.04)

    def test_bit_identical_unsorted(self):
        rng = random.Random(7)
        assert_same_as_scalar(0.5, [rng.uniform(-190.0, 190.0) for _ in range(3000)])

    @pytest.mark.parametrize("ys, tol", [
        ([100.0, 195.0, 196.41, 197.0], 1e-12),  # the scan's first failure
        ([100.0, 197.0, 1e300], 1e-12),          # a failure before a point past 700
        ([100.0, 1e300, 197.0], 1e-12),          # a point past 700 first
        ([1.7e308, 1.0], 1e-12),                 # pi*|y| would overflow
        ([1.0, 50.0], 1e-14),
        ([5.0, 900.0], 1e-3),
    ])
    def test_first_failure_in_order(self, ys, tol):
        assert_same_as_scalar(0.5, ys, tol)

    def test_empty(self):
        values, errors = eta_accel_many(0.5, [])
        assert values.shape == errors.shape == (0,)

    @pytest.mark.parametrize("x, ys, tol", [
        (0.0, [1.0], 1e-12), (math.nan, [1.0], 1e-12), (0.5, [math.inf], 1e-12),
        (0.5, [[1.0]], 1e-12), (0.5, [1.0], 0.0),
    ])
    def test_bad_input(self, x, ys, tol):
        with pytest.raises(ValueError):
            eta_accel_many(x, ys, tol)


class TestZetaBridge:
    def test_zeta_two(self):
        assert zeta_from_eta(StripPoint(2.0, 0.0)).value == pytest.approx(
            math.pi**2 / 6.0, abs=1e-9)

    def test_zeta_half_reference(self):
        assert zeta_from_eta(StripPoint(0.5, 0.0)).value.real == pytest.approx(
            -1.4603545088, abs=1e-8)

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            zeta_from_eta(StripPoint(1.0, 0.0))

    def test_singular_denominator_rejected(self):
        y = 2.0 * math.pi / math.log(2.0)
        with pytest.raises(SingularDenominatorError):
            zeta_from_eta(StripPoint(1.0, y))

    @pytest.mark.parametrize("x, y", [(0.999, 0.0), (1.0, 0.001), (2.0, 0.0),
                                      (0.5, 14.134725)])
    def test_error_estimate_covers_true_error(self, x, y):
        # near the pole the rounding of 1 - 2^(1-s) dominates the true error
        res = zeta_from_eta(StripPoint(x, y))
        with mp.workdps(40):
            true = abs(mp.mpc(res.value) - mp.zeta(mp.mpc(mp.mpf(x), mp.mpf(y))))
        assert float(true) <= res.error_estimate

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
        a, b = term_arrays(p, 500)
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


class TestEulerProduct:
    def test_inverse_zeta_three(self):
        p = StripPoint(3.0, 0.0)
        all_p, _ = euler_product_check(p, 100_000)
        assert abs(all_p - 1.0 / zeta_from_eta(p).value) < 1e-9

    def test_inverse_zeta_two(self):
        all_p, _ = euler_product_check(StripPoint(2.0, 0.0), 100_000)
        assert abs(all_p - 6.0 / math.pi**2) < 1e-4

    def test_empty_product(self):
        assert euler_product_check(StripPoint(2.0, 0.0), 1) == (1.0, 1.0)

    def test_odd_product_relation(self):
        # odd-prime product = full product / (1 - 2^-s)
        p = StripPoint(2.5, 1.0)
        all_p, odd_p = euler_product_check(p, 10_000)
        factor = 1.0 - cmath.exp(-p.s * math.log(2.0))
        assert abs(odd_p * factor - all_p) < 1e-12

    def test_needs_absolute_convergence(self):
        with pytest.raises(ValueError):
            euler_product_check(StripPoint(1.0, 0.0), 100)
