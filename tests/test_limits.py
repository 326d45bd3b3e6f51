import cmath
import io
import math

import numpy as np
import pytest

from etaq.limits import (SumSurface, c_s_naive, c_s_running, c_s_surface,
                         commutativity_gap, limit_A, limit_A_series, limit_B,
                         rh_contradiction_check)
from etaq.qset import OddSquarefree, QOrdering
from etaq.series import StripPoint, eta_accel, geom_closed

FIRST_ZERO = StripPoint(0.5, 14.134725141734693)

# (B_cos, B_sin, oracle_cos, oracle_sin) at budget 1e5, recorded from the code
# before limit_B shared its term builder, tail averaging and oracle.
LIMIT_B_1E5 = {
    FIRST_ZERO: (1.4096204268167294, 0.09155711732460668,
                 1.4112575613164962, 0.09138980045395775),
    StripPoint(0.75, 3.0): (0.3164335860018552, 0.1840910861468468,
                            0.3164737644376576, 0.18418746749947135),
}

# Recorded from the kernel that carried C and S as two real running sums:
# the surface of seeded_shuffle(3, 12, 200) at the first zero on n in
# (1, 5, 20, 60) and h in (0, 2, 5, 12), and A at h = 1, 4, 12 on that prefix.
SHUFFLE_ORDERING = (3, 12, 200)
SHUFFLE_N, SHUFFLE_H = [1, 5, 20, 60], [0, 2, 5, 12]
SHUFFLE_C = [[0.0, 0.0, 0.0, 0.0],
             [0.0, 0.0, 0.0, 0.8929155966314077],
             [0.0, 0.4008595272580593, 0.8838522122543129, 1.4594479526423267],
             [0.0, 0.16155286811458736, 0.4114478270333937, 0.7504400931583092]]
SHUFFLE_S = [[0.0, 0.0, 0.0, 0.0],
             [0.0, 0.0, 0.0, 0.20437479854969334],
             [0.0, -0.024757728415381985, -0.11586325626168253, -0.125263494732959],
             [0.0, 0.09259980305777332, 0.1194925677688361, 0.4308630188753114]]
SHUFFLE_A = {
    FIRST_ZERO: [(1, -2.6438448773461907e-16, 4.2746143117409673e-16),
                 (4, 3.3735256256052307e-16, 1.355260387134649e-15),
                 (12, 6.189451751173129e-16, 4.443345372397983e-15)],
    StripPoint(0.75, 3.0): [(1, 0.06495506373923411, -0.10357850587497024),
                            (4, -0.3540681686089736, -0.12984434225201646),
                            (12, 0.4399270707384761, 0.16398161384093324)],
}


def i_major_oracle(p, ordering, n, h):
    """Alternate summation order: outer loop over i, inner over k."""
    from etaq.series import term_ab
    c = 0.0
    s = 0.0
    for i, q in enumerate(ordering.prefix(h)):
        for k in range(1, n + 1):
            if k % q.value == 0:
                a_k, b_k = term_ab(k, p)
                c += q.sign * a_k
                s += q.sign * b_k
    return c, s


class TestSurface:
    def test_single_cell_example(self):
        # only k=3 contributes below n=4 at h=1; f(3,1) = -1, a_3 = 3^(-1/2)
        surf = c_s_surface(StripPoint(0.5, 0.0), QOrdering.by_value(100),
                           [4], [1])
        assert surf.C[0, 0] == pytest.approx(-(3.0 ** -0.5), abs=1e-15)

    def test_gamma_prefix_rows_vanish(self):
        surf = c_s_surface(StripPoint(0.5, 14.0), QOrdering.by_value(100),
                           [1, 2], [1, 5, 10])
        assert np.all(surf.C == 0.0)
        assert np.all(surf.S == 0.0)

    def test_h_zero_column_vanishes(self):
        surf = c_s_surface(StripPoint(0.5, 0.0), QOrdering.by_value(1000),
                           [10, 100], [0, 3])
        assert np.all(surf.C[:, 0] == 0.0)
        assert np.all(surf.S[:, 0] == 0.0)

    def test_against_naive_triple_loop(self):
        p = StripPoint(0.75, 3.0)
        ordering = QOrdering.by_value(2000)
        n_axis = [1, 3, 17, 60, 200]
        h_axis = [1, 4, 20, 50]
        surf = c_s_surface(p, ordering, n_axis, h_axis)
        for i, n in enumerate(n_axis):
            for j, h in enumerate(h_axis):
                c_ref, s_ref = c_s_naive(p, ordering, n, h)
                assert surf.C[i, j] == pytest.approx(c_ref, abs=1e-12)
                assert surf.S[i, j] == pytest.approx(s_ref, abs=1e-12)

    def test_against_naive_at_benchmark_sizes(self):
        # the first surface sweep of the benchmark: n up to 2e4, h <= 3
        ordering = QOrdering.by_value(10_000)
        n_axis = [1, 2, 3, 4999, 15015, 20000]
        h_axis = [1, 2, 3]
        surf = c_s_surface(FIRST_ZERO, ordering, n_axis, h_axis)
        for i, n in enumerate(n_axis):
            for j, h in enumerate(h_axis):
                c_ref, s_ref = c_s_naive(FIRST_ZERO, ordering, n, h)
                scale = max(1.0, abs(c_ref), abs(s_ref))
                assert abs(surf.C[i, j] - c_ref) <= 1e-12 * scale
                assert abs(surf.S[i, j] - s_ref) <= 1e-12 * scale

    def test_h_zero_and_elements_past_n_are_exact_zeros(self):
        # 101 and 103 divide no k <= 100, so h <= 2 is the empty sum too
        p, n_axis = StripPoint(0.5, 14.0), [10, 50, 100]
        values, signs = np.array([101, 103, 3]), np.array([-1, -1, -1], dtype=np.int8)
        columns = [cs.copy() for cs in c_s_running(p, values, signs, n_axis)]
        h_zero = c_s_surface(p, QOrdering.by_value(100), n_axis, [0])
        head = np.concatenate([h_zero.C[:, 0], h_zero.S[:, 0], columns[0].real,
                               columns[0].imag, columns[1].real, columns[1].imag])
        assert np.all(head == 0.0)
        assert not np.any(np.signbit(head))  # written as "0", never "-0"
        assert np.all(columns[2].real != 0.0)

    def test_matches_two_real_sum_goldens(self):
        surf = c_s_surface(FIRST_ZERO, QOrdering.seeded_shuffle(*SHUFFLE_ORDERING),
                           SHUFFLE_N, SHUFFLE_H)
        for got, want in ((surf.C, SHUFFLE_C), (surf.S, SHUFFLE_S)):
            want = np.array(want)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_k_major_vs_i_major(self):
        p = StripPoint(0.5, 14.0)
        ordering = QOrdering.by_value(500)
        for n, h in ((50, 10), (120, 25)):
            surf = c_s_surface(p, ordering, [n], [h])
            c_ref, s_ref = i_major_oracle(p, ordering, n, h)
            assert surf.C[0, 0] == pytest.approx(c_ref, abs=1e-12)
            assert surf.S[0, 0] == pytest.approx(s_ref, abs=1e-12)

    def test_shuffled_ordering(self):
        p = StripPoint(0.5, 0.0)
        ordering = QOrdering.seeded_shuffle(3, 30, 500)
        surf = c_s_surface(p, ordering, [40], [12])
        c_ref, s_ref = c_s_naive(p, ordering, 40, 12)
        assert surf.C[0, 0] == pytest.approx(c_ref, abs=1e-13)
        assert surf.S[0, 0] == pytest.approx(s_ref, abs=1e-13)

    def test_csv_shape(self, tmp_path):
        surf = c_s_surface(StripPoint(0.5, 0.0), QOrdering.by_value(100),
                           [1, 2, 4], [1, 2])
        out = tmp_path / "surf.csv"
        with out.open("w") as fh:
            surf.write_csv(fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "n,h,C,S"
        assert len(lines) == 1 + 3 * 2

    def test_csv_bytes_match_per_cell_format(self):
        C = np.array([[-0.0, 0.1 + 0.2], [1.0 / 3.0, -5e-324]])
        S = np.array([[0.0, -math.pi], [1e300, 2.0 / 3.0]])
        surf = SumSurface(point=StripPoint(0.5, 0.0), ordering_id="by-value(bound=100)",
                          n_axis=(1, 7), h_axis=(0, 3), C=C, S=S)
        fh = io.StringIO()
        surf.write_csv(fh)
        want = "n,h,C,S\n" + "".join(
            f"{n},{h},{C[i, j]:.17g},{S[i, j]:.17g}\n"
            for i, n in enumerate(surf.n_axis) for j, h in enumerate(surf.h_axis))
        assert fh.getvalue() == want
        assert "1,0,-0,0\n" in want and "0.30000000000000004" in want


class TestLimitA:
    def test_empty_sum(self):
        assert limit_A(StripPoint(2.0, 0.0), QOrdering.by_value(100), 0) == (0.0, 0.0)

    def test_first_element_at_two(self):
        a_cos, a_sin = limit_A(StripPoint(2.0, 0.0), QOrdering.by_value(100), 1)
        assert a_cos == pytest.approx(-math.pi**2 / 108.0, abs=1e-12)
        assert a_sin == pytest.approx(0.0, abs=1e-12)

    def test_depends_on_prefix_set_not_sequence(self):
        # same first-20 set, different order: A at h=20 must coincide
        p = StripPoint(0.75, 3.0)
        a1 = limit_A(p, QOrdering.by_value(1000), 20)
        a2 = limit_A(p, QOrdering.seeded_shuffle(11, 20, 1000), 20)
        assert a1[0] == pytest.approx(a2[0], abs=1e-12)
        assert a1[1] == pytest.approx(a2[1], abs=1e-12)

    def test_series_prefix_consistency(self):
        p = StripPoint(0.5, 14.0)
        ordering = QOrdering.by_value(1000)
        a = limit_A_series(p, *ordering.arrays(30))
        for h in (1, 7, 30):
            single = limit_A(p, ordering, h)
            assert single[0] == pytest.approx(a[h - 1].real, abs=1e-14)
            assert single[1] == pytest.approx(a[h - 1].imag, abs=1e-14)

    @pytest.mark.parametrize("p", list(SHUFFLE_A))
    def test_series_matches_two_real_sum_goldens(self, p):
        ordering = QOrdering.seeded_shuffle(*SHUFFLE_ORDERING)
        a = limit_A_series(p, *ordering.arrays(12))
        assert a.dtype == complex
        assert [(h, a[h - 1].real, a[h - 1].imag) for h, _, _ in SHUFFLE_A[p]] == SHUFFLE_A[p]

    @pytest.mark.parametrize("p", [StripPoint(2.0, 0.0), FIRST_ZERO])
    def test_vectorised_against_per_element_reference(self, p):
        ordering = QOrdering.by_value(100_000)
        h_max = len(ordering.arrays()[0])
        eta = eta_accel(p).value
        total = 0j
        ref_cos, ref_sin = [], []
        for q in ordering.prefix(h_max):
            total += q.sign * cmath.exp(-p.s * math.log(q.value))
            ref_cos.append((total * eta).real)
            ref_sin.append(-(total * eta).imag)
        a = limit_A_series(p, *ordering.arrays(h_max))
        for got, ref in zip((a.real, a.imag), (ref_cos, ref_sin)):
            ref = np.array(ref)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestLimitB:
    def test_oracle_at_half(self):
        est = limit_B(StripPoint(0.5, 0.0), 10**6)
        eta_half = eta_accel(StripPoint(0.5, 0.0)).value.real
        assert est.oracle.real == pytest.approx(-math.sqrt(2.0) - eta_half, abs=1e-12)
        assert est.oracle.real == pytest.approx(-2.0191122, abs=1e-6)
        assert abs((est.direct - est.oracle).real) <= 5e-3

    def test_direct_vs_oracle_generic(self):
        est = limit_B(StripPoint(0.75, 3.0), 10**6)
        d = est.direct - est.oracle
        assert abs(d.real) <= 5e-3
        assert abs(d.imag) <= 5e-3

    def test_absolute_region_tight(self):
        est = limit_B(StripPoint(3.0, 0.0), 10**5)
        assert abs((est.direct - est.oracle).real) <= 1e-9

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            limit_B(StripPoint(0.5, 0.0), 0)

    @pytest.mark.parametrize("p", list(LIMIT_B_1E5))
    def test_matches_golden(self, p):
        est = limit_B(p, 10**5)
        assert (est.direct.real, est.direct.imag,
                est.oracle.real, est.oracle.imag) == LIMIT_B_1E5[p]

    def test_gap_without_direct_sum_uses_the_same_oracle(self):
        ordering = QOrdering.by_value(500)
        skipped = commutativity_gap(FIRST_ZERO, ordering, 20, budget=0)
        est = limit_B(FIRST_ZERO, 1000)
        assert skipped.oracle_B == est.oracle


class TestCommutativityGap:
    def test_degenerate_report(self):
        rep = commutativity_gap(StripPoint(0.5, 0.0), QOrdering.by_value(100),
                                h_max=0, budget=0)
        assert rep.A.shape == (0,)
        assert rep.B is None
        assert rep.gap.real == rep.oracle_B.real
        assert not rep.a_converged

    def test_gap_vanishes_in_absolute_region(self):
        ordering = QOrdering.by_value(10_000)
        rep = commutativity_gap(StripPoint(3.0, 0.0), ordering,
                                len(ordering.sequence()), budget=10**5)
        assert abs(rep.gap.real) <= 1e-6
        assert abs(rep.gap.imag) <= 1e-6

    def test_gap_shrinks_with_bound(self):
        gaps = []
        for bound in (100, 1000, 10_000):
            ordering = QOrdering.by_value(bound)
            rep = commutativity_gap(StripPoint(3.0, 0.0), ordering,
                                    len(ordering.sequence()), budget=1)
            gaps.append(abs(rep.gap.real))
        floor = 1e-9
        assert gaps[0] > max(gaps[1], floor) or gaps[0] <= floor
        assert gaps[1] > max(gaps[2], floor) or gaps[1] <= floor

    def test_A_is_read_only(self):
        rep = commutativity_gap(StripPoint(0.75, 3.0), QOrdering.by_value(500),
                                20, budget=0)
        assert rep.A.dtype == complex and rep.A.shape == (20,)
        with pytest.raises(ValueError, match="read-only"):
            rep.A[0] = 0.0

    def test_json_round_trip(self):
        import json
        rep = commutativity_gap(StripPoint(0.75, 3.0), QOrdering.by_value(500),
                                20, budget=1000)
        buf = io.StringIO()
        rep.write_json(buf)
        doc = json.loads(buf.getvalue())
        assert doc["point"] == {"x": 0.75, "y": 3.0}
        assert len(doc["A_cos"]) == 20
        assert doc["gap_cos"] == rep.gap.real


def test_gap_builds_no_element_views(monkeypatch):
    built = []
    check = OddSquarefree.__post_init__
    monkeypatch.setattr(OddSquarefree, "__post_init__",
                        lambda q: (built.append(q.value), check(q)))
    ordering = QOrdering.by_value(10_000)
    rep = commutativity_gap(StripPoint(2.0, 0.0), ordering,
                            len(ordering.arrays()[0]), budget=1000)
    assert rep.h_max == 4055
    assert built == []
    ordering.prefix(2)  # the counter does see element views
    assert built == [3, 5]


class TestContradictionCheck:
    def test_oracle_identity_tight(self):
        rep = rh_contradiction_check(StripPoint(2.0, 0.0), 10**5)
        assert rep.residual_oracle <= 1e-12

    def test_direct_paths_at_half(self):
        rep = rh_contradiction_check(StripPoint(0.5, 0.0), 10**6)
        assert rep.residual_oracle <= 1e-10
        assert rep.residual_direct <= 1e-2
        assert rep.lhs.real == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_report_dict(self):
        rep = rh_contradiction_check(StripPoint(0.75, 3.0), 10**4)
        assert rep.budget == 10**4
        assert rep.residual_oracle <= 1e-10
