import io
import math
import tracemalloc

import pytest

from etaq import zeros
from etaq.series import (_BLOCK_TERMS, AccelerationError, StripPoint, zeta_from_eta,
                         bridge_denominator)
from etaq.zeros import (RefinementError, ZeroFileError, eta_abs, load_zeros,
                        refine_zero, scan_zeros, scan_and_refine, write_csv)

FIRST_THREE = (14.134725141734694, 21.022039638771554, 25.010857580145689)
# Recorded from scan_zeros(0, 30, 0.01) when it called eta_abs point by point.
SCAN_0_30 = [(14.13, 0.008895200295998055), (21.02, 0.004744729021936494),
             (25.01, 0.00198196922037166)]


class TestLoadZeros:
    def test_two_ordinates(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("14.134725\n21.022040\n")
        records = load_zeros(f)
        assert [r.ordinate for r in records] == [14.134725, 21.022040]
        assert all(r.source == "File" and not r.refined for r in records)
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
        with pytest.raises(ZeroFileError, match=":1:"):
            load_zeros(f)

    def test_non_ascending_rejected(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("21.0\n14.1\n")
        with pytest.raises(ZeroFileError, match="ascending"):
            load_zeros(f)

    def test_near_duplicates_collapsed(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("14.134725\n14.1347251\n21.022040\n")
        assert len(load_zeros(f)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ZeroFileError):
            load_zeros(tmp_path / "nope.txt")


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
        with pytest.raises(ValueError):
            scan_zeros(5.0, 2.0)
        with pytest.raises(ValueError):
            scan_zeros(0.0, 1.0, step=0.0)

    def test_scan_budget_cap(self):
        with pytest.raises(ValueError, match="grid points"):
            scan_zeros(0.0, 1000.0, step=1e-6)

    def test_matches_pointwise_goldens(self):
        records = scan_zeros(0.0, 30.0, 0.01)
        assert [(r.ordinate, r.residual) for r in records] == SCAN_0_30

    def test_chunk_boundary_changes_nothing(self, monkeypatch):
        # grid point 1413 (y = 14.13) is the first of the second chunk
        monkeypatch.setattr(zeros, "_SCAN_CHUNK", 1413)
        records = scan_zeros(0.0, 30.0, 0.01)
        assert [(r.ordinate, r.residual) for r in records] == SCAN_0_30

    def test_past_reach_fails_after_bounded_work(self):
        # 2,999,901 grid points; the bound passes 1e-12 at the 19,642nd
        tracemalloc.start()
        try:
            with pytest.raises(AccelerationError) as exc:
                scan_zeros(0.0, 29999.0, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == ("eta acceleration reaches 1.001e-12 > requested "
                                  "1.000e-12 at s=(0.5,196.41) with 201 terms")
        assert peak < 16 * 2**20

    def test_residuals_are_eta_abs(self):
        for rec in scan_zeros(0.0, 60.0, 0.02):
            assert rec.residual == eta_abs(rec.ordinate)

    def test_memory_per_point_is_flat(self):
        # peak(N) = slope * N + intercept: the blocks and chunks go in the
        # intercept, the per-point |eta| (and its chunks while joined) in the slope
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
        assert p1 - slope * n1 <= 64 * _BLOCK_TERMS


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


def test_scan_and_refine_reproduces_published_ordinates():
    records = scan_and_refine(0.0, 30.0)
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
