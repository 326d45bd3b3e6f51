import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import CLI_TIMEOUT_S, ETAQ_ROOT
from etaq import series, zeros
from etaq.series import AccelerationError, StripPoint, zeta_from_eta, bridge_denominator
from etaq.zeros import (RefinementError, ZeroRecord, eta_abs, load_zeros,
                        refine_zero, scan_zeros, write_csv)

FIRST_THREE = (14.134725141734694, 21.022039638771554, 25.010857580145689)
# Recorded from scan_zeros(0, 30, 0.01) when it called eta_abs point by point.
SCAN_0_30 = [(14.13, 0.008895200295998055), (21.02, 0.004744729021936494),
             (25.01, 0.00198196922037166)]
BENCHMARK_GRID = (0.0, 190.0, 0.004)  # the grid of the benchmark's `zeros scan --refine`
# Recorded from refine_zero(y0, window, tol) when it was golden section
# alone: its message, ordinate and residual
GOLDEN_FAILURES = {
    (5.0, 0.5, 1e-9): ("no zero in window: best |eta| = 1.619e+00 > tol 1.0e-09 "
                       "at y = 4.500000000", 4.500000000000378, 1.619077481765219),
    # the secant leaves the window for the zero at 14.1347
    (14.5, 0.2, 1e-9): ("no zero in window: best |eta| = 3.114e-01 > tol 1.0e-09 "
                        "at y = 14.300000000", 14.300000000000397, 0.3113618917583635),
}




def pointwise_scan(y_min, y_max, step, threshold=0.05):
    """scan_zeros with eta_abs at every grid point: the reference for its records."""
    count = math.floor((y_max - y_min) / step) + 1
    vals = np.array([eta_abs(y) for y in (y_min + np.arange(count) * step).tolist()])
    return [ZeroRecord(ordinate=float(y_min + i * step), residual=float(vals[i]), refined=False)
            for i in range(1, count - 1)
            if vals[i] < threshold and vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]]


class TestLoadZeros:
    def test_two_ordinates(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("14.134725\n21.022040\n")
        records = load_zeros(f)
        assert [r.ordinate for r in records] == [14.134725, 21.022040]
        assert not any(r.refined for r in records)
        assert all(r.residual <= 1e-4 for r in records)

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("# first three\n14.134725\n\n21.022040\n25.010858\n")
        assert len(load_zeros(f)) == 3

    def test_empty_file(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("")
        assert load_zeros(f) == []

    def test_parse_error_reports_line(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("abc\n")
        with pytest.raises(ValueError, match=":1: not a decimal ordinate"):
            load_zeros(f)

    def test_non_ascending_rejected(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("21.0\n14.1\n")
        with pytest.raises(ValueError, match="ordinates must be strictly ascending"):
            load_zeros(f)

    def test_near_duplicates_collapsed(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("14.134725\n14.1347251\n21.022040\n")
        assert len(load_zeros(f)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_zeros(tmp_path / "nope.txt")

    def test_ordinate_past_ceiling_reports_line_before_any_eta(self, tmp_path, monkeypatch):
        f = tmp_path / "zeros.txt"
        f.write_text("14.134725\n900.0\n")

        def no_eta(*args):
            raise AssertionError("eta evaluated before the file was checked")

        monkeypatch.setattr(zeros, "eta_abs", no_eta)
        with pytest.raises(ValueError, match=r":2: ordinate 900\.0 not in \(0, 838\.40\]"):
            load_zeros(f)


class TestScan:
    def test_nothing_below_five(self):
        assert scan_zeros(0.0, 5.0) == []

    def test_degenerate_interval(self):
        assert scan_zeros(3.0, 3.0) == []

    def test_negative_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match="yMin >= 0"):
            scan_zeros(-1.0, -1.0)

    def test_finds_first_zero(self):
        records = scan_zeros(14.0, 14.3)
        assert len(records) == 1
        assert records[0].ordinate == pytest.approx(14.1347, abs=0.01)
        assert not records[0].refined

    def test_bad_interval(self):
        with pytest.raises(ValueError, match=r"need yMin <= yMax, got \[5\.0, 2\.0\]"):
            scan_zeros(5.0, 2.0)
        with pytest.raises(ValueError, match="step must be finite and > 0, got 0.0"):
            scan_zeros(0.0, 1.0, step=0.0)

    def test_scan_budget_cap(self):
        with pytest.raises(ValueError, match="grid points"):
            scan_zeros(0.0, 1000.0, step=1e-6)
        # the count, 1e300 + 1, goes in three significant digits, not 301
        with pytest.raises(ValueError) as exc:
            scan_zeros(0.0, 1.0, step=1e-300)
        assert str(exc.value) == "scan would need 1e+300 grid points (cap 10000000); raise step"

    def test_matches_pointwise_goldens(self):
        records = scan_zeros(0.0, 30.0, 0.01)
        assert [(r.ordinate, r.residual) for r in records] == SCAN_0_30

    def test_chunk_boundary_changes_nothing(self, monkeypatch):
        # grid point 1413 (y = 14.13) is the first of the second chunk
        monkeypatch.setattr(zeros, "_SCAN_CHUNK", 1413)
        records = scan_zeros(0.0, 30.0, 0.01)
        assert [(r.ordinate, r.residual) for r in records] == SCAN_0_30

    def test_past_reach_fails_after_bounded_work(self):
        # 3,210,001 grid points below the ceiling, 26 MB of |eta| in all;
        # the bound passes 1e-12 at the 2,032nd
        tracemalloc.start()
        try:
            with pytest.raises(AccelerationError) as exc:
                scan_zeros(196.0, 838.0, 0.0002)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == ("eta acceleration reaches 1.001e-12 > requested "
                                  "1.000e-12 at s=(0.5,196.4062) with 201 terms")
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("tol", [None, 1e-9], ids=["unrefined", "refined"])
    def test_grid_past_the_ceiling_rejected_before_any_eta(self, tol, monkeypatch):
        calls = []
        monkeypatch.setattr(zeros, "eta_grid", lambda *a: calls.append(a))
        monkeypatch.setattr(zeros, "eta_accel", lambda *a: calls.append(a))
        with pytest.raises(ValueError) as exc:
            scan_zeros(0.0, 900.0, 0.01, tol=tol)
        assert str(exc.value) == ("need 0 < x <= 1e+300 and |y| <= 838.40; "
                                  "got x=0.5, y=900.0")
        assert calls == []

    def test_residuals_are_eta_abs(self):
        for rec in scan_zeros(0.0, 60.0, 0.02):
            assert rec.residual == eta_abs(rec.ordinate)

    @pytest.mark.parametrize("y_max, step", [(196.0, 0.01), (196.0, 0.001), (190.0, 0.004)],
                             ids=["step-0.01", "step-0.001", "benchmark-grid"])
    def test_records_match_a_pointwise_scan(self, y_max, step):
        assert scan_zeros(0.0, y_max, step) == pointwise_scan(0.0, y_max, step)

    def test_records_do_not_depend_on_blas_threads(self):
        # the grid's products run in BLAS, which may split them over threads
        script = ("from etaq.zeros import scan_zeros; "
                  "print(repr([scan_zeros(0.0, 190.0, 0.004), scan_zeros(0.0, 196.0, 0.01), "
                  "scan_zeros(0.0, 190.0, 0.004, tol=1e-9)]))")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (ETAQ_ROOT, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == repr([scan_zeros(0.0, 190.0, 0.004),
                                    scan_zeros(0.0, 196.0, 0.01),
                                    scan_zeros(0.0, 190.0, 0.004, tol=1e-9)]) + "\n"

    def test_memory_per_point_is_flat(self):
        # peak(N) = slope * N + intercept: one chunk's arrays (its heights,
        # values, products and |eta|, 48 bytes a point), its anchor rows and
        # the rotation table go in the intercept, the per-point |eta| (and
        # its chunks while joined) in the slope
        scan_zeros(0.0, 1.0)
        peaks = {}
        for step in (2e-4, 5e-5):
            count = int(math.floor(10.0 / step)) + 1
            tracemalloc.start()
            try:
                scan_zeros(0.0, 10.0, step)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (n1, p1), (n2, p2) = sorted(peaks.items())
        slope = (p2 - p1) / (n2 - n1)
        assert slope <= 96
        terms = series._accel_term_count(10.0, 1e-12)
        spacing = series._ANCHOR_SPACING
        anchors = (zeros._SCAN_CHUNK // spacing + 1) * terms * 16
        table = spacing * terms * 16
        assert p1 - slope * n1 <= 48 * zeros._SCAN_CHUNK + anchors + table


class TestRefine:
    def test_first_zero(self):
        rec = refine_zero(14.13, window=0.05, tol=1e-9)
        assert rec.ordinate == pytest.approx(FIRST_THREE[0], abs=1e-6)
        assert rec.residual <= 1e-9
        assert rec.refined

    def test_second_zero(self):
        rec = refine_zero(21.0, window=0.1, tol=1e-9)
        assert rec.ordinate == pytest.approx(FIRST_THREE[1], abs=1e-5)

    def test_idempotent(self, first_zero):
        again = refine_zero(first_zero.ordinate, window=0.05, tol=1e-9)
        assert abs(again.ordinate - first_zero.ordinate) < 1e-9

    def test_no_zero_in_window(self):
        with pytest.raises(RefinementError, match="no zero") as exc:
            refine_zero(5.0, window=0.5, tol=1e-9)
        assert exc.value.residual > 1e-6

    def test_zeta_small_via_bridge(self, first_zero):
        # |zeta| <= residual / |1 - 2^(1-s)| at the refined point
        p = StripPoint(0.5, first_zero.ordinate)
        z = zeta_from_eta(p)
        assert abs(z.value) <= first_zero.residual / abs(bridge_denominator(p)) * 1.01


@pytest.fixture(scope="module")
def benchmark_candidates():
    return [r.ordinate for r in scan_zeros(*BENCHMARK_GRID)]


class TestSecant:
    WINDOW = 2.0 * BENCHMARK_GRID[2]

    def test_within_golden_section_on_the_benchmark_grid(self, benchmark_candidates):
        records = [refine_zero(y, self.WINDOW) for y in benchmark_candidates]
        golden = [zeros._golden(y, self.WINDOW) for y in benchmark_candidates]
        assert max(abs(r.ordinate - y) for r, y in zip(records, golden)) <= 1e-12
        assert max(r.residual for r in records) <= max(eta_abs(y) for y in golden)
        for rec, want in zip(records, FIRST_THREE):
            assert rec.ordinate == pytest.approx(want, abs=1e-12)

    def test_few_scalar_etas_per_candidate_and_no_fallback(self, benchmark_candidates,
                                                          monkeypatch):
        # golden section took about 52; the scan's hits get no residual of
        # their own, refinement's replaces it
        calls = []
        monkeypatch.setattr(zeros, "eta_accel", lambda *a: calls.append(a) or series.eta_accel(*a))
        monkeypatch.setattr(zeros, "_golden", lambda *a: pytest.fail(f"golden section at {a}"))
        records = scan_zeros(*BENCHMARK_GRID, tol=1e-9)
        assert len(records) == 74
        assert len(calls) <= 7 * len(records)
        assert [p.y for p, in calls if p.y in benchmark_candidates] == []
        monkeypatch.undo()
        assert records == [refine_zero(y, self.WINDOW) for y in benchmark_candidates]

    @pytest.mark.parametrize("args", GOLDEN_FAILURES, ids=["no-zero", "zero-outside"])
    def test_a_secant_leaving_its_window_falls_back(self, args, monkeypatch):
        golden = []
        monkeypatch.setattr(zeros, "_golden",
                            lambda y0, w, f=zeros._golden: golden.append(y0) or f(y0, w))
        with pytest.raises(RefinementError) as exc:
            refine_zero(*args)
        assert (str(exc.value), exc.value.ordinate, exc.value.residual) == GOLDEN_FAILURES[args]
        assert golden == [args[0]]
        golden.clear()
        assert refine_zero(14.13, 0.5).residual <= 1e-9  # the same wide window, a zero in it
        assert golden == []

    def test_tolerance_unreachable_reports_the_secant_root(self, monkeypatch):
        monkeypatch.setattr(zeros, "_golden", lambda *a: pytest.fail(f"golden section at {a}"))
        with pytest.raises(RefinementError) as exc:
            refine_zero(14.13, 0.05, 1e-16)
        y, residual = exc.value.ordinate, exc.value.residual
        assert y == pytest.approx(FIRST_THREE[0], abs=1e-12)
        assert residual == eta_abs(y)
        assert residual < 3.887e-13  # golden section's best there
        assert str(exc.value) == ("tolerance unreachable at binary64: best |eta| = "
                                  f"{residual:.3e} > tol 1.0e-16 at y = {y:.9f}")

    def test_equal_etas_fail_the_secant(self, monkeypatch):
        monkeypatch.setattr(zeros, "eta_accel", lambda p: series.SeriesResult(1.0, "fixed", 1, 0.0))
        assert math.isnan(zeros._secant(14.13, 0.05))

    def test_a_secant_over_its_step_cap_falls_back(self, monkeypatch):
        monkeypatch.setattr(zeros, "_SECANT_STEPS", 1)
        assert math.isnan(zeros._secant(14.13, 0.05))
        y = zeros._golden(14.13, 0.05)
        assert refine_zero(14.13, 0.05) == ZeroRecord(y, eta_abs(y), True)


def test_refined_scan_reproduces_published_ordinates():
    records = scan_zeros(0.0, 30.0, tol=1e-9)
    assert len(records) == 3
    for rec, want in zip(records, FIRST_THREE):
        assert rec.ordinate == pytest.approx(want, abs=1e-5)
        assert rec.residual <= 1e-9


def test_csv_output(first_zero):
    buf = io.StringIO()
    write_csv([first_zero], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "ordinate,residual,refined"
    assert lines[1].endswith(",1")


def test_eta_abs_matches_point_evaluation():
    from etaq.series import eta_accel
    assert eta_abs(14.0) == pytest.approx(
        abs(eta_accel(StripPoint(0.5, 14.0)).value), abs=1e-14)
