import cmath
import dataclasses
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from etaq import qset, series
from etaq.limits import (A_CHUNK, A_SPREAD_TOL, SumSurface, b_oracle, c_s_naive,
                         c_s_running, c_s_surface, commutativity_gap, limit_A_series,
                         limit_B, odd_terms, rh_contradiction_check)
from etaq.qset import OddSquarefree, QOrdering
from etaq.series import (_SUM_BLOCK_TERMS, MAX_TERMS, StripPoint,
                          eta_accel, geom_closed, term_arrays)

GOLDEN = Path(__file__).parent / "golden"

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
    for q, sign in zip(*(a.tolist() for a in ordering.arrays(h))):
        for k in range(1, n + 1):
            if k % q == 0:
                a_k, b_k = term_ab(k, p)
                c += sign * a_k
                s += sign * b_k
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

    @staticmethod
    def per_cell_csv(surf):
        return "n,h,C,S\n" + "".join(
            f"{n},{h},{surf.C[i, j]:.17g},{surf.S[i, j]:.17g}\n"
            for i, n in enumerate(surf.n_axis) for j, h in enumerate(surf.h_axis))

    def test_csv_bytes_match_per_cell_format(self):
        # C and S built apart, not as views of one complex matrix
        C = np.array([[-0.0, 0.1 + 0.2], [1.0 / 3.0, -5e-324], [math.nan, math.inf]])
        S = np.array([[0.0, -math.pi], [1e300, 2.0 / 3.0], [-math.inf, 5e-324]])
        surf = SumSurface(n_axis=(1, 7, 12), h_axis=(0, 3), C=C, S=S)
        fh = io.StringIO()
        surf.write_csv(fh)
        want = self.per_cell_csv(surf)
        assert fh.getvalue() == want
        assert "1,0,-0,0\n" in want and "0.30000000000000004" in want
        assert "12,0,nan,-inf\n12,3,inf,4.9406564584124654e-324\n" in want

    def test_csv_of_an_empty_h_axis_is_the_header(self):
        surf = SumSurface(n_axis=(1, 7), h_axis=(), C=np.zeros((2, 0)), S=np.zeros((2, 0)))
        fh = io.StringIO()
        surf.write_csv(fh)
        assert fh.getvalue() == self.per_cell_csv(surf) == "n,h,C,S\n"

    def test_csv_bytes_of_a_computed_surface(self):
        surf = c_s_surface(StripPoint(0.75, 3.0), QOrdering.seeded_shuffle(5, 40, 300),
                           range(1, 400, 7), [0, 1, 2, 9, 30, 40])
        fh = io.StringIO()
        surf.write_csv(fh)
        assert fh.getvalue() == self.per_cell_csv(surf)


class TestLimitA:
    def test_empty_sum(self):
        p = StripPoint(2.0, 0.0)
        a = limit_A_series(p, *QOrdering.by_value(100).arrays(0), eta_accel(p).value)
        assert a.shape == (0,)

    def test_first_element_at_two(self):
        p = StripPoint(2.0, 0.0)
        a = limit_A_series(p, *QOrdering.by_value(100).arrays(1), eta_accel(p).value)[-1]
        assert a.real == pytest.approx(-math.pi**2 / 108.0, abs=1e-12)
        assert a.imag == pytest.approx(0.0, abs=1e-12)

    def test_depends_on_prefix_set_not_sequence(self):
        # same first-20 set, different order: A at h=20 must coincide
        p = StripPoint(0.75, 3.0)
        eta = eta_accel(p).value
        a1 = limit_A_series(p, *QOrdering.by_value(1000).arrays(20), eta)[-1]
        a2 = limit_A_series(p, *QOrdering.seeded_shuffle(11, 20, 1000).arrays(20), eta)[-1]
        assert a1.real == pytest.approx(a2.real, abs=1e-12)
        assert a1.imag == pytest.approx(a2.imag, abs=1e-12)

    @pytest.mark.parametrize("p", list(SHUFFLE_A))
    def test_series_matches_two_real_sum_goldens(self, p):
        ordering = QOrdering.seeded_shuffle(*SHUFFLE_ORDERING)
        a = limit_A_series(p, *ordering.arrays(12), eta_accel(p).value)
        assert a.dtype == complex
        assert [(h, a[h - 1].real, a[h - 1].imag) for h, _, _ in SHUFFLE_A[p]] == SHUFFLE_A[p]

    @pytest.mark.parametrize("p", [StripPoint(2.0, 0.0), FIRST_ZERO])
    def test_vectorised_against_per_element_reference(self, p):
        ordering = QOrdering.by_value(100_000)
        h_max = len(ordering.arrays()[0])
        eta = eta_accel(p).value
        total = 0j
        ref_cos, ref_sin = [], []
        for q, sign in zip(*(a.tolist() for a in ordering.arrays(h_max))):
            total += sign * cmath.exp(-p.s * math.log(q))
            ref_cos.append((total * eta).real)
            ref_sin.append(-(total * eta).imag)
        a = limit_A_series(p, *ordering.arrays(h_max), eta)
        for got, ref in zip((a.real, a.imag), (ref_cos, ref_sin)):
            ref = np.array(ref)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("p", [StripPoint(2.0, 0.0), FIRST_ZERO])
    @pytest.mark.parametrize("h", [1, A_CHUNK - 1, A_CHUNK, A_CHUNK + 1, 3 * A_CHUNK + 5,
                                   121_584])
    def test_chunks_keep_the_bits_of_one_cumsum(self, p, h):
        values, signs = QOrdering.by_value(300_000).arrays(h)
        eta = eta_accel(p).value
        whole = np.conj(np.cumsum(odd_terms(p, values, signs)) * eta)
        assert limit_A_series(p, values, signs, eta).tobytes() == whole.tobytes()


B = _SUM_BLOCK_TERMS


def oracle_at(p: StripPoint) -> complex:
    """b_oracle with eta(s) at the default tolerance."""
    return b_oracle(p, eta_accel(p).value)


def whole_array_direct_B(p: StripPoint, budget: int) -> complex:
    """limit_B's direct value as it was computed before its sums were
    streamed: whole term arrays, the powers of two zeroed, negated, then
    math.fsum of all but the last 64 terms plus their averaged cumsum."""
    terms = term_arrays(p, budget)
    a, b = terms.real, terms.imag
    gamma = (1 << np.arange(int(budget).bit_length())) - 1
    a[gamma] = b[gamma] = 0.0
    np.negative(a, out=a)
    np.negative(b, out=b)

    def tail_averaged(terms):
        window = min(64, len(terms))
        ps = math.fsum(terms[:len(terms) - window]) + np.cumsum(terms[len(terms) - window:])
        for _ in range(min(3, window - 1)):
            ps = 0.5 * (ps[1:] + ps[:-1])
        return float(ps[-1])

    return complex(tail_averaged(a), tail_averaged(b))


class TestLimitB:
    def test_oracle_at_half(self):
        p = StripPoint(0.5, 0.0)
        oracle = oracle_at(p)
        eta_half = eta_accel(p).value.real
        assert oracle.real == pytest.approx(-math.sqrt(2.0) - eta_half, abs=1e-12)
        assert oracle.real == pytest.approx(-2.0191122, abs=1e-6)
        assert abs((limit_B(p, 10**6).direct - oracle).real) <= 5e-3

    def test_direct_vs_oracle_generic(self):
        p = StripPoint(0.75, 3.0)
        d = limit_B(p, 10**6).direct - oracle_at(p)
        assert abs(d.real) <= 5e-3
        assert abs(d.imag) <= 5e-3

    def test_absolute_region_tight(self):
        p = StripPoint(3.0, 0.0)
        assert abs((limit_B(p, 10**5).direct - oracle_at(p)).real) <= 1e-9

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            limit_B(StripPoint(0.5, 0.0), 0)

    def test_pole_rejected_before_the_direct_sums(self, monkeypatch):
        # at s = 1e-17, 2^x - e^(-iy ln 2) is 0 and geom_closed would divide by it
        monkeypatch.setattr(series, "direct_sums", lambda *a, **k: pytest.fail("summed"))
        monkeypatch.setattr(qset, "odd_factor_counts", lambda *a: pytest.fail("sieved"))
        p = StripPoint(1e-17, 0.0)
        want = ("the B oracle's closed form errs by up to 1.602e+02 > etaTol 1.000e-12 "
                "at s=(1e-17,0.0), near its pole s = 0")
        for run in (lambda: b_oracle(p, 1.0), lambda: rh_contradiction_check(p, 10),
                    # a bound no other test sieves, so q_arrays' cache cannot hide a sieve
                    lambda: commutativity_gap(p, QOrdering.by_value(12345), None, 10)):
            with pytest.raises(ValueError) as exc:
                run()
            assert str(exc.value) == want
        # x = 1e-5 errs by up to 1.6e-10: rejected at the default 1e-12, taken at 1e-9
        with pytest.raises(ValueError, match="near its pole s = 0"):
            b_oracle(StripPoint(1e-5, 0.0), 1.0)
        monkeypatch.undo()
        oracle = b_oracle(StripPoint(1e-5, 0.0), 1.0, tol=1e-9)
        assert oracle == (geom_closed(StripPoint(1e-5, 0.0)) - 1.0).conjugate()

    @pytest.mark.parametrize("p", list(LIMIT_B_1E5))
    def test_matches_golden(self, p):
        direct, oracle = limit_B(p, 10**5).direct, oracle_at(p)
        assert (direct.real, direct.imag, oracle.real, oracle.imag) == LIMIT_B_1E5[p]

    @pytest.mark.parametrize("p", [FIRST_ZERO, StripPoint(2.0, 0.0), StripPoint(2.0, -0.0),
                                   StripPoint(0.75, 3.0)])
    @pytest.mark.parametrize("budget", [
        1, 2, 63, 64, 65,
        # block edges; at 2^14 and past, k = 2^j falls on a block's last slot
        B - 1, B, B + 1, 3 * B + 17, 4 * B + 1,
    ])
    def test_direct_matches_whole_array_sums(self, p, budget):
        est = limit_B(p, budget)
        want = whole_array_direct_B(p, budget)
        assert est.budget == budget
        assert (est.direct.real.hex(), est.direct.imag.hex()) == (want.real.hex(),
                                                                  want.imag.hex())

    def test_gap_without_direct_sum_uses_the_same_oracle(self):
        ordering = QOrdering.by_value(500)
        skipped = commutativity_gap(FIRST_ZERO, ordering, 20, budget=0)
        summed = commutativity_gap(FIRST_ZERO, ordering, 20, budget=1000)
        assert skipped.oracle_B == summed.oracle_B == oracle_at(FIRST_ZERO)
        assert summed.B == limit_B(FIRST_ZERO, 1000).direct

    @pytest.mark.parametrize("run", [
        lambda p: commutativity_gap(p, QOrdering.by_value(500), 20, budget=1000),
        lambda p: commutativity_gap(p, QOrdering.by_value(500), 20, budget=0),
        lambda p: rh_contradiction_check(p, 1000),
    ], ids=["gap-budget-1000", "gap-budget-0", "contradiction"])
    def test_geom_error_evaluated_once_per_point(self, run, monkeypatch):
        calls = []
        geom_error = series.geom_error
        monkeypatch.setattr(series, "geom_error", lambda p: calls.append(p) or geom_error(p))
        run(FIRST_ZERO)
        assert calls == [FIRST_ZERO]


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
                                len(ordering.arrays()[0]), budget=10**5)
        assert abs(rep.gap.real) <= 1e-6
        assert abs(rep.gap.imag) <= 1e-6

    def test_gap_shrinks_with_bound(self):
        gaps = []
        for bound in (100, 1000, 10_000):
            ordering = QOrdering.by_value(bound)
            rep = commutativity_gap(StripPoint(3.0, 0.0), ordering,
                                    len(ordering.arrays()[0]), budget=1)
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
        rep = commutativity_gap(StripPoint(0.75, 3.0), QOrdering.by_value(500),
                                20, budget=1000)
        buf = io.StringIO()
        rep.write_json(buf)
        doc = json.loads(buf.getvalue())
        assert doc["point"] == {"x": 0.75, "y": 3.0}
        assert len(doc["A_cos"]) == 20
        assert doc["gap_cos"] == rep.gap.real

    def test_all_of_q_when_h_max_is_none(self):
        ordering = QOrdering.by_factor_count(1000)
        full = commutativity_gap(StripPoint(0.75, 3.0), ordering, None, budget=100)
        explicit = commutativity_gap(StripPoint(0.75, 3.0), ordering,
                                     len(ordering.arrays()[0]), budget=100)
        assert len(full.A) == 403
        assert write_json_text(full) == write_json_text(explicit)

    @pytest.mark.parametrize("budget", [0, 1000])
    def test_eta_evaluated_once(self, budget, monkeypatch):
        calls = []
        evaluate = series.eta_accel
        monkeypatch.setattr(series, "eta_accel",
                            lambda p, tol: (calls.append(tol), evaluate(p, tol))[1])
        commutativity_gap(StripPoint(0.75, 3.0), QOrdering.by_value(500), 20, budget,
                          eta_tol=1e-11)
        assert calls == [1e-11]

    @pytest.mark.parametrize("p, h_max, budget, eta_tol, message", [
        (StripPoint(2.0, 0.0), None, MAX_TERMS + 1, 1e-12,
         f"{MAX_TERMS + 1} terms exceed the cap {MAX_TERMS}"),
        (StripPoint(2.0, 0.0), None, 10, math.nan, "etaTol must be finite and > 0, got nan"),
        (StripPoint(0.5, 300.0), None, 10, 1e-12, "eta acceleration reaches 1.780e-12"),
        (StripPoint(2.0, 0.0), -1, 10, 1e-12, "hMax must be >= 0"),
    ], ids=["budget-over-cap", "eta-tol-nan", "eta-reach", "h-max-negative"])
    def test_bad_input_rejected_before_the_sieve(self, p, h_max, budget, eta_tol, message,
                                                 monkeypatch):
        sieved = []
        monkeypatch.setattr(qset, "odd_factor_counts", lambda *a: sieved.append(a))
        with pytest.raises(ValueError, match=re.escape(message)):
            commutativity_gap(p, QOrdering.by_value(30_000_000), h_max, budget, eta_tol)
        assert sieved == []


def json_dump_text(rep) -> str:
    """The report as one dict with A as two lists, through json.dump."""
    buf = io.StringIO()
    json.dump({
        "point": {"x": rep.point.x, "y": rep.point.y},
        "orderingId": rep.ordering_id,
        "A_cos": rep.A.real.tolist(),
        "A_sin": rep.A.imag.tolist(),
        "B_cos": None if rep.B is None else rep.B.real,
        "B_sin": None if rep.B is None else rep.B.imag,
        "oracleB_cos": rep.oracle_B.real,
        "oracleB_sin": rep.oracle_B.imag,
        "gap_cos": rep.gap.real,
        "gap_sin": rep.gap.imag,
        "aConverged": rep.a_converged,
        "aConvergenceTol": A_SPREAD_TOL,
        "hMax": len(rep.A),
        "budget": rep.budget,
        "etaTol": rep.eta_tol,
        "notes": list(rep.notes),
    }, buf, indent=2)
    return buf.getvalue() + "\n"


def write_json_text(rep) -> str:
    buf = io.StringIO()
    rep.write_json(buf)
    return buf.getvalue()


class TestWriteJson:
    def test_many_chunks(self):
        ordering = QOrdering.by_value(100_000)
        rep = commutativity_gap(FIRST_ZERO, ordering, len(ordering.arrays()[0]), budget=10)
        assert len(rep.A) > 2 * 2**14
        assert write_json_text(rep) == json_dump_text(rep)

    def test_non_finite_A(self):
        rep = commutativity_gap(FIRST_ZERO, QOrdering.by_value(100_000), 40_000, budget=0)
        a = rep.A.copy()
        a[[0, 5, 20_000, -1]] = [complex(math.nan, math.inf), complex(-math.inf, -0.0),
                                 complex(math.inf, math.nan), complex(-0.0, -math.inf)]
        rep = dataclasses.replace(rep, A=a)
        text = write_json_text(rep)
        assert text == json_dump_text(rep)
        assert "NaN" in text and "-Infinity" in text

    @pytest.mark.parametrize("golden, p, bound, h_max, budget", [
        ("gap_small.json", StripPoint(0.75, 3.0), 100, 40, 1000),
        ("gap_h0_b0.json", StripPoint(0.5, 0.0), 10_000, 0, 0),
    ])
    def test_golden_texts(self, golden, p, bound, h_max, budget):
        rep = commutativity_gap(p, QOrdering.by_value(bound), h_max, budget)
        assert write_json_text(rep) == json_dump_text(rep) == (GOLDEN / golden).read_text()


def test_limit_B_peak_memory_is_the_term_builders():
    # the term builder's and the exact sums' work arrays for one block,
    # whatever the budget: never arrays as long as the terms
    limit_B(FIRST_ZERO, 1000)
    for budget in (10**6, 4 * 10**6):
        tracemalloc.start()
        try:
            limit_B(FIRST_ZERO, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160 * _SUM_BLOCK_TERMS, budget


def test_limit_A_series_peak_memory_is_the_result_and_a_chunk():
    # the 16-byte complex result, plus a few complex temporaries of one chunk
    # of A_CHUNK elements, whatever the prefix length
    n = 2**20
    values = np.arange(3, 2 * n + 3, 2)
    signs = np.ones(n, dtype=np.int8)
    p = StripPoint(2.0, 0.0)
    eta = eta_accel(p).value
    limit_A_series(p, values[:10], signs[:10], eta)
    tracemalloc.start()
    try:
        limit_A_series(p, values, signs, eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n + 64 * A_CHUNK


def test_gap_builds_no_element_views(monkeypatch):
    built = []
    new = OddSquarefree.__new__
    monkeypatch.setattr(OddSquarefree, "__new__",
                        lambda cls, value, sign: (built.append(value), new(cls, value, sign))[1])
    ordering = QOrdering.by_value(10_000)
    rep = commutativity_gap(StripPoint(2.0, 0.0), ordering,
                            len(ordering.arrays()[0]), budget=1000)
    assert len(rep.A) == 4055
    assert built == []
    QOrdering.by_value(6).sequence()  # the counter does see element views
    assert built == [3, 5]


class TestContradictionCheck:
    def test_oracle_identity_tight(self):
        residual_oracle, _ = rh_contradiction_check(StripPoint(2.0, 0.0), 10**5)
        assert residual_oracle <= 1e-12

    def test_direct_paths_at_half(self):
        residual_oracle, residual_direct = rh_contradiction_check(StripPoint(0.5, 0.0), 10**6)
        assert residual_oracle <= 1e-10
        assert residual_direct <= 1e-2
        # the check's left side is this sum, conjugated
        lhs = series.gamma_partial(StripPoint(0.5, 0.0), 200).conjugate()
        assert lhs.real == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_eta_evaluated_once_per_point(self, monkeypatch):
        calls = []
        evaluate = series.eta_accel
        monkeypatch.setattr(series, "eta_accel",
                            lambda *a: (calls.append(a), evaluate(*a))[1])
        for p in (StripPoint(2.0, 0.0), StripPoint(0.75, 3.0)):
            rh_contradiction_check(p, 1000)
        assert calls == [(StripPoint(2.0, 0.0),), (StripPoint(0.75, 3.0),)]

    def test_report_dict(self):
        residual_oracle, _ = rh_contradiction_check(StripPoint(0.75, 3.0), 10**4)
        assert residual_oracle <= 1e-10
