import io
import json
import warnings
from pathlib import Path

import pytest

import mpmath as mp

from etaq import cli, qset, series, zeros
from etaq._rng import ALGORITHM_ID
from etaq.cli import main, parse_ordering, parse_range
from etaq.qset import MAX_ENUM_BOUND

GOLDEN = Path(__file__).parent / "golden"


class TestParseRange:
    def test_inclusive_stop_when_hit(self):
        assert parse_range("1:64") == list(range(1, 65))
        assert parse_range("1:10000:100") == list(range(1, 10001, 100))
        assert len(parse_range("1:10000:100")) == 100

    def test_stop_excluded_when_missed(self):
        assert parse_range("1:10:4") == [1, 5, 9]

    def test_single_value(self):
        assert parse_range("7") == [7]

    @pytest.mark.parametrize("bad", ["", "a:b", "1:2:3:4", "5:1", "1:9:0"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_range(bad)


class TestParseOrdering:
    def test_named(self):
        assert parse_ordering("byvalue", 100).strategy == "by-value"
        assert parse_ordering("byfactor", 100).strategy == "by-factor-count"

    def test_shuffle(self):
        o = parse_ordering("shuffle:7:64", 1000)
        assert (o.seed, o.prefix_length) == (7, 64)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_ordering("random", 100)


class TestPointCommands:
    def test_eta_ln2(self, capsys):
        assert main(["eta", "1", "0"]) == 0
        assert "0.693147180560" in capsys.readouterr().out

    def test_zeta_two(self, capsys):
        assert main(["zeta", "2", "0"]) == 0
        assert "1.644934066848" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, line", [
        (["eta", "1", "0"], "eta(1+0i) = 0.693147180560 +0.000000000000i  "
                            "(err <= 1.93e-14, 25 terms, ChebyshevAccelerated)"),
        (["zeta", "2", "0"], "zeta(2+0i) = 1.644934066848 +0.000000000000i  "
                             "(err <= 1.87e-14, 26 terms, ChebyshevAccelerated)"),
    ])
    def test_full_stdout_line(self, argv, line, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_zeta_pole_exit_two(self, capsys):
        assert main(["zeta", "1", "0"]) == 2
        assert "pole" in capsys.readouterr().err

    @pytest.mark.parametrize("x, y", [("0.999", "0"), ("1", "0.001")])
    def test_zeta_near_pole(self, x, y, capsys):
        # eta's share of the tolerance is scaled by |1 - 2^(1-s)| ~ 7e-4 here
        assert main(["zeta", x, y]) == 0
        out = capsys.readouterr().out
        re, im = out.split("= ")[1].split("i")[0].split()
        ref = complex(mp.zeta(mp.mpc(x, y)))
        assert abs(complex(float(re), float(im)) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("argv", [["eta", "0.5", "200"], ["zeta", "0.5", "300"],
                                      ["eta", "0.5", "1e300"], ["eta", "0.5", "1e308"]])
    def test_unreachable_tolerance_exit_two(self, argv, capsys):
        # the acceleration's error bound exceeds the requested tolerance
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestSurfaceCommand:
    def test_row_count(self, tmp_path):
        out = tmp_path / "surf.csv"
        rc = main(["surface", "--x", "0.5", "--y", "14.13", "--n", "1:100:10",
                   "--h", "1:8", "--bound", "500", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,h,C,S"
        assert len(lines) == 1 + 10 * 8
        assert (tmp_path / "surf.csv.manifest.json").exists()

    def test_manifest_methods_and_no_threads(self, tmp_path):
        out = tmp_path / "surf.csv"
        main(["surface", "--x", "0.5", "--y", "0", "--n", "1:20", "--h", "1:2",
              "--bound", "100", "--out", str(out)])
        manifest = json.loads((tmp_path / "surf.csv.manifest.json").read_text())
        assert "threads" not in manifest["parameters"]
        assert manifest["numericMethods"] == [
            series.ACCEL_METHOD_ID, series.AVERAGED_METHOD_ID,
            f"rng:{ALGORITHM_ID}", f"tail:iterated-averaging-{series.TAIL_LEVELS}"]

    def test_gamma_prefix_all_zero(self, tmp_path):
        out = tmp_path / "surf.csv"
        main(["surface", "--x", "0.5", "--y", "0", "--n", "2", "--h", "1:10",
              "--bound", "100", "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            _, _, c, s = line.split(",")
            assert float(c) == 0.0 and float(s) == 0.0

    def test_malformed_range_exit_two(self, tmp_path, capsys):
        rc = main(["surface", "--x", "0.5", "--y", "0", "--n", "bogus",
                   "--h", "1:4", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestGapCommand:
    def test_json_to_stdout(self, capsys):
        rc = main(["gap", "--x", "3", "--y", "0", "--q-bound", "1000",
                   "--budget", "10000"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["gap_cos"]) < 1e-6
        assert doc["orderingId"].startswith("by-value")
        assert doc["hMax"] == len(doc["A_cos"]) == 403  # all of Q below 1000

    @pytest.mark.parametrize("golden, argv", [
        ("gap_small.json", ["--x", "0.75", "--y", "3", "--q-bound", "100",
                            "--budget", "1000"]),
        ("gap_h0_b0.json", ["--x", "0.5", "--y", "0", "--h-max", "0", "--budget", "0"]),
    ])
    def test_report_matches_golden_text(self, golden, argv, capsys):
        # recorded from the report that held each cos/sin part as its own
        # field: key order, null B and the -0.0 signs included
        assert main(["gap", *argv]) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    def test_default_h_max_builds_the_ordering_once(self, monkeypatch, capsys):
        calls = []
        order = qset.QOrdering._order
        monkeypatch.setattr(qset.QOrdering, "_order",
                            lambda self, *a: (calls.append(a), order(self, *a))[1])
        assert main(["gap", "--x", "2", "--y", "0", "--ordering", "byfactor",
                     "--q-bound", "1000", "--budget", "0"]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["hMax"] == 403

    def test_q_bound_past_cap_exit_two(self, capsys):
        rc = main(["gap", "--x", "2", "--y", "0", "--q-bound", str(MAX_ENUM_BOUND + 1)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cap" in err


@pytest.mark.parametrize("argv", [
    ["surface", "--x", "0.5", "--y", "0", "--n", str(series.MAX_TERMS + 1),
     "--h", "1", "--bound", "100", "--out", "unused.csv"],
    ["gap", "--x", "2", "--y", "0", "--q-bound", "100",
     "--budget", str(series.MAX_TERMS + 1)],
    ["search", "--seed", "1", "--prefix", "4", "--iters", "1", "--h-max", "4",
     "--bound", "100", "--n1", str(series.MAX_TERMS + 1),
     "--out-trace", "unused.csv", "--out-best", "unused.json"],
], ids=["surface-n", "gap-budget", "search-n1"])
def test_term_count_past_cap_exit_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "cap" in err


@pytest.mark.parametrize("argv", [
    ["gap", "--x", "2", "--y", "0", "--q-bound", "10000000",
     "--budget", str(series.MAX_TERMS + 1)],
    ["verify", "--budget", str(series.MAX_TERMS + 1)],
], ids=["gap", "verify"])
def test_budget_checked_before_any_work(argv, monkeypatch, capsys):
    sieved = []
    monkeypatch.setattr(qset, "odd_factor_counts", lambda *a: sieved.append(a))
    monkeypatch.setattr(cli, "run_verify", lambda *a: sieved.append(a))
    assert main(argv) == 2
    assert sieved == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "cap" in err


@pytest.mark.parametrize("argv, message", [
    (["gap", "--x", "2", "--y", "0", "--q-bound", "10000000", "--budget", "-5"],
     "error: term count -5 must be >= 0"),
    (["verify", "--budget", "0"], "error: budget must be >= 1"),
], ids=["gap-negative", "verify-zero"])
def test_bad_budget_rejected_before_any_work(argv, message, monkeypatch, capsys):
    sieved = []
    monkeypatch.setattr(qset, "odd_factor_counts", lambda *a: sieved.append(a))
    monkeypatch.setattr(cli, "run_verify", lambda *a: sieved.append(a))
    assert main(argv) == 2
    assert sieved == []
    assert capsys.readouterr().err == message + "\n"


class TestZerosCommand:
    def test_scan_csv(self, tmp_path):
        out = tmp_path / "zeros.csv"
        rc = main(["zeros", "scan", "--y-min", "14", "--y-max", "14.3",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ordinate,residual,refined"
        assert len(lines) == 2

    def test_scan_refine_is_scan_and_refine(self, capsys):
        rc = main(["zeros", "scan", "--y-min", "14", "--y-max", "21.5",
                   "--step", "0.02", "--refine"])
        assert rc == 0
        buf = io.StringIO()
        zeros.write_csv(zeros.scan_and_refine(14.0, 21.5, 0.02), buf)
        assert capsys.readouterr().out == buf.getvalue()
        assert len(buf.getvalue().splitlines()) == 3

    def test_refine(self, capsys):
        rc = main(["zeros", "refine", "--y0", "14.13"])
        assert rc == 0
        assert "14.1347251" in capsys.readouterr().out

    def test_refine_no_zero_exit_two(self, capsys):
        rc = main(["zeros", "refine", "--y0", "5", "--window", "0.5"])
        assert rc == 2

    @pytest.mark.parametrize("argv, err", [
        (["--y-min", "190", "--y-max", "210"],
         "error: eta acceleration reaches 1.001e-12 > requested 1.000e-12 "
         "at s=(0.5,196.41) with 201 terms\n"),
        (["--y-min", "1e300", "--y-max", "2e300", "--step", "1e299"],
         "error: eta acceleration reaches inf > requested 1.000e-12 "
         "at s=(0.5,1e+300) with 350 terms\n"),
    ])
    def test_scan_unreachable_tolerance_exit_two(self, argv, err, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["zeros", "scan", *argv])
        assert rc == 2
        assert capsys.readouterr().err == err

    def test_scan_negative_interval_exit_two(self, capsys):
        rc = main(["zeros", "scan", "--y-min", "-1", "--y-max", "-1"])
        assert rc == 2
        assert "yMin >= 0" in capsys.readouterr().err

    def test_load(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("14.134725\n21.022040\n")
        rc = main(["zeros", "load", str(src)])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


class TestSearchCommand:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        rc = main(["search", "--seed", "42", "--prefix", "8", "--iters", "5",
                   "--n0", "20", "--n1", "60", "--h-max", "4",
                   "--bound", "500",
                   "--out-trace", str(tmp_path / "trace.csv"),
                   "--out-best", str(tmp_path / "best.json")])
        assert rc == 0
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 6
        doc = json.loads((tmp_path / "best.json").read_text())
        assert len(doc["permutation"]) == 8
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 42


class TestDeterminism:
    def test_surface_byte_identical(self, tmp_path, run_cli):
        args = ["surface", "--x", "0.5", "--y", "14.13", "--ordering",
                "shuffle:3:20", "--n", "1:60:10", "--h", "1:8",
                "--bound", "500"]
        run_cli(args + ["--out", "a.csv"], tmp_path)
        run_cli(args + ["--out", "b.csv"], tmp_path)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_search_byte_identical(self, tmp_path, run_cli):
        args = ["search", "--seed", "7", "--prefix", "8", "--iters", "5",
                "--n0", "20", "--n1", "60", "--h-max", "4", "--bound", "500"]
        run_cli(args + ["--out-trace", "t1.csv", "--out-best", "b1.json"], tmp_path)
        run_cli(args + ["--out-trace", "t2.csv", "--out-best", "b2.json"], tmp_path)
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
        assert (tmp_path / "b1.json").read_bytes() == (tmp_path / "b2.json").read_bytes()


class TestVerify:
    def test_small_budget_passes(self, tmp_path, capsys):
        summary = tmp_path / "verify.json"
        rc = main(["verify", "--k-max", "2000", "--budget", "1000000",
                   "--json", str(summary)])
        out = capsys.readouterr().out
        assert rc == 0, out
        doc = json.loads(summary.read_text())
        assert doc["allPassed"]
        assert out.count("[PASS]") == len(doc["checks"])

    def test_fault_injection_exits_one_naming_check(self, capsys):
        rc = main(["verify", "--k-max", "500", "--budget", "1000000",
                   "--inject-fault", "geom-algebra"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAIL] geom-algebra" in captured.out
        assert "FAILED: geom-algebra" in captured.err
