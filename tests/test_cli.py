import argparse
import ast
import builtins
import importlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mpmath as mp

from etaq import cli, limits, qset, series, zeros
from etaq._rng import ALGORITHM_ID
from etaq.cli import main, parse_ordering, parse_range
from etaq.qset import MAX_ENUM_BOUND

from conftest import CLI_TIMEOUT_S, ETAQ_ROOT

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

    @pytest.mark.parametrize("spec", ["shuffle:a:3", "shuffle:1:x", "shuffle:1",
                                      "shuffle:1:2:3", "shuffle::"])
    def test_malformed_shuffle_names_the_form(self, spec):
        with pytest.raises(ValueError, match="^shuffle ordering is shuffle:SEED:PREFIX, got "):
            parse_ordering(spec, 100)


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

    def test_zeta_pole_exit_two(self, cli_error):
        assert cli_error(["zeta", "1", "0"]) == "pole at z=1 (zeta has a simple pole at s = 1)"

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
    def test_json_to_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["gap", "--x", "3", "--y", "0", "--q-bound", "1000",
                   "--budget", "10000"])
        assert rc == 0
        assert list(tmp_path.iterdir()) == []  # no file, no sidecar
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

    @pytest.mark.parametrize("y", ["0", "5"])
    def test_past_two_to_the_x_overflow(self, y, capsys):
        # 2^1030 overflows; the closed form is 1 there, and so is eta
        assert main(["gap", "--x", "1030", "--y", y, "--q-bound", "100",
                     "--budget", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["oracleB_cos"], doc["gap_cos"], doc["gap_sin"]) == (0.0, 0.0, 0.0)

    def test_default_h_max_builds_the_ordering_once(self, monkeypatch, capsys):
        calls = []
        order = qset.QOrdering._order
        monkeypatch.setattr(qset.QOrdering, "_order",
                            lambda self, *a: (calls.append(a), order(self, *a))[1])
        assert main(["gap", "--x", "2", "--y", "0", "--ordering", "byfactor",
                     "--q-bound", "1000", "--budget", "0"]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["hMax"] == 403

    @pytest.mark.parametrize("budget", ["0", "1000"])
    def test_eta_evaluated_once(self, budget, monkeypatch, capsys):
        calls = []
        evaluate = series.eta_accel

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        for module in (series, cli):
            monkeypatch.setattr(module, "eta_accel", counted)
        assert main(["gap", "--x", "0.75", "--y", "3", "--q-bound", "100",
                     "--budget", budget]) == 0
        assert len(calls) == 1

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


class TestSurfaceCellCap:
    ARGV = ["surface", "--x", "0.5", "--y", "0", "--bound", "10000000", "--out", "s.csv"]

    @pytest.mark.parametrize("flag", ["--n", "--h"])
    def test_one_axis_past_cap_rejected_before_its_list(self, flag, cli_error, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(limits, "MAX_CELLS", 50)
        built = []
        monkeypatch.setattr(cli, "list", lambda values: built.append(values) or [],
                            raising=False)
        axes = {"--n": "1:10", "--h": "1:5", flag: "0:100:2"}
        msg = cli_error([*self.ARGV, "--n", axes["--n"], "--h", axes["--h"]])
        assert msg == f"{flag} 0:100:2: 51 cells exceed the cap 50 (16 bytes per cell)"
        assert [len(v) for v in built] == ([] if flag == "--n" else [10])
        assert list(tmp_path.iterdir()) == []

    def test_kernel_checks_the_cell_count(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_CELLS", 50)
        assert len(parse_range("1:50")) == 50  # an axis at the cap is fine
        with pytest.raises(ValueError, match="surface: 51 cells exceed the cap 50"):
            limits.c_s_surface(series.StripPoint(0.5, 0.0), qset.QOrdering.by_value(100),
                               range(1, 52), [1])

    def test_help_states_the_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["surface", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"len(--n) x len(--h) is at most {limits.MAX_CELLS} cells" in text


@pytest.mark.parametrize("argv", [["eta"], ["zeta"], ["zeros", "scan"],
                                  ["surface"], ["gap"], ["search"]])
def test_help_states_the_height_reach(argv, capsys):
    with pytest.raises(SystemExit):
        main([*argv, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"at most {series.MAX_HEIGHT:.2f}" in text
    if argv[0] in ("eta", "zeta", "zeros"):
        assert "about 196" in text


def test_search_help_states_the_cache_bytes(capsys):
    with pytest.raises(SystemExit):
        main(["search", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert ("16 bytes x sum over the prefix's q of (n1 // q - n0 // q + 1) per point"
            in text)


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

    def test_scan_refine_is_the_refined_scan(self, capsys):
        rc = main(["zeros", "scan", "--y-min", "14", "--y-max", "21.5",
                   "--step", "0.02", "--refine"])
        assert rc == 0
        buf = io.StringIO()
        zeros.write_csv(zeros.scan_zeros(14.0, 21.5, 0.02, tol=1e-9), buf)
        assert capsys.readouterr().out == buf.getvalue()
        assert len(buf.getvalue().splitlines()) == 3

    def test_refine(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["zeros", "refine", "--y0", "14.13"])
        assert rc == 0
        assert list(tmp_path.iterdir()) == []  # no file, no sidecar
        assert "14.1347251" in capsys.readouterr().out

    def test_refine_no_zero_exit_two(self, capsys):
        rc = main(["zeros", "refine", "--y0", "5", "--window", "0.5"])
        assert rc == 2

    @pytest.mark.parametrize("argv, err", [
        (["--y-min", "190", "--y-max", "210"],
         "error: eta acceleration reaches 1.001e-12 > requested 1.000e-12 "
         "at s=(0.5,196.41) with 201 terms\n"),
        (["--y-min", "1e300", "--y-max", "2e300", "--step", "1e299"],
         "error: need 0 < x <= 1e+300 and |y| <= 838.40; got x=0.5, y=2e+300\n"),
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


@pytest.mark.parametrize("k_max", ["-5", "0"])
def test_k_max_below_one_rejected_before_any_check(k_max, monkeypatch, cli_error):
    ran = []
    monkeypatch.setattr(cli, "run_verify", lambda *a: ran.append(a))
    assert cli_error(["verify", "--k-max", k_max]) == f"--k-max {k_max} must be >= 1"
    assert ran == []


@pytest.mark.parametrize("argv, target", [
    (["gap", "--x", "2", "--y", "0", "--budget", "10", "--q-bound", "100",
      "--out", "{missing}"], "missing"),
    (["surface", "--x", "0.5", "--y", "0", "--n", "1:5", "--h", "1:2",
      "--out", "{directory}"], "directory"),
    (["zeros", "scan", "--y-min", "14", "--y-max", "14.2", "--step", "0.1",
      "--out", "{missing}"], "missing"),
    (["search", "--seed", "1", "--prefix", "4", "--iters", "1", "--h-max", "2",
      "--n0", "10", "--n1", "20", "--out-trace", "{directory}", "--out-best", "b.json"],
     "directory"),
    (["verify", "--k-max", "10", "--budget", "1000", "--json", "{missing}"], "missing"),
], ids=["gap", "surface", "zeros-scan", "search", "verify"])
def test_unwritable_output_exits_two(argv, target, cli_error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    paths = {"missing": str(tmp_path / "no-such-dir" / "out"), "directory": str(tmp_path)}
    message = cli_error([arg.format(**paths) for arg in argv])
    assert paths[target] in message
    assert not (tmp_path / "no-such-dir").exists()


# each command with an output path that cannot be written, and the function
# that does its work
UNWRITABLE = {
    "surface": (["surface", "--x", "0.5", "--y", "0", "--n", "1:5", "--h", "1:2",
                 "--out", "{directory}"], limits, "c_s_surface"),
    "gap": (["gap", "--x", "2", "--y", "0", "--budget", "10", "--q-bound", "100",
             "--out", "{missing}"], limits, "commutativity_gap"),
    "zeros-scan": (["zeros", "scan", "--y-min", "14", "--y-max", "14.2", "--step", "0.1",
                    "--out", "{missing}"], zeros, "scan_zeros"),
    "zeros-refine": (["zeros", "refine", "--y0", "14.13", "--out", "{directory}"],
                     zeros, "refine_zero"),
    "search-trace": (["search", "--seed", "1", "--prefix", "4", "--iters", "1",
                      "--h-max", "2", "--n0", "10", "--n1", "20", "--out-trace",
                      "{directory}", "--out-best", "b.json"], cli.search, "anneal"),
    "search-best": (["search", "--seed", "1", "--prefix", "4", "--iters", "1",
                     "--h-max", "2", "--n0", "10", "--n1", "20", "--out-trace", "t.csv",
                     "--out-best", "{missing}"], cli.search, "anneal"),
    "verify": (["verify", "--k-max", "10", "--budget", "1000", "--json", "{missing}"],
               cli, "run_verify"),
    "surface-sidecar": (["surface", "--x", "0.5", "--y", "0", "--n", "1:5", "--h", "1:2",
                         "--out", "{sidecar}"], limits, "c_s_surface"),
    "surface-empty": (["surface", "--x", "0.5", "--y", "0", "--n", "1:5", "--h", "1:2",
                       "--out", "{empty}"], limits, "c_s_surface"),
    "search-trace-empty": (["search", "--seed", "1", "--prefix", "4", "--iters", "1",
                            "--h-max", "2", "--n0", "10", "--n1", "20", "--out-trace",
                            "{empty}", "--out-best", "b.json"], cli.search, "anneal"),
    "gap-empty": (["gap", "--x", "2", "--y", "0", "--budget", "10", "--q-bound", "100",
                   "--out", "{empty}"], limits, "commutativity_gap"),
    "zeros-refine-empty": (["zeros", "refine", "--y0", "14.13", "--out", "{empty}"],
                           zeros, "refine_zero"),
    "verify-empty": (["verify", "--k-max", "10", "--budget", "1000", "--json", "{empty}"],
                     cli, "run_verify"),
}


@pytest.mark.parametrize("name", UNWRITABLE)
def test_unwritable_output_rejected_before_any_work(name, cli_error, tmp_path, monkeypatch):
    argv, module, work = UNWRITABLE[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv.manifest.json").mkdir()
    calls = []
    monkeypatch.setattr(module, work, lambda *a, **k: calls.append(a))
    paths = {"missing": str(tmp_path / "no-such-dir" / "out"), "directory": str(tmp_path),
             "sidecar": "s.csv", "empty": ""}
    message = cli_error([arg.format(**paths) for arg in argv])
    assert message.startswith("[Errno ")
    if name.endswith("-empty"):
        assert message == "[Errno 2] No such file or directory: ''"
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv.manifest.json"]


@pytest.mark.parametrize("trace, best, named", [
    ("t.csv", "t.csv", "t.csv"),
    ("t.csv", "t.csv.manifest.json", "t.csv.manifest.json"),
    ("t.csv.manifest.json", "t.csv", "t.csv.manifest.json"),
    ("./t.csv", "t.csv", "t.csv"),
], ids=["same-path", "best-on-trace-sidecar", "trace-on-best-sidecar", "same-file"])
def test_outputs_naming_one_file_rejected_before_any_work(trace, best, named, cli_error,
                                                          tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(cli.search, "anneal", lambda *a, **k: calls.append(a))
    argv = ["search", "--seed", "1", "--prefix", "5", "--iters", "2", "--h-max", "4",
            "--out-trace", trace, "--out-best", best]
    assert cli_error(argv) == f"two outputs would write {named}"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


# each command that writes data files, the files it writes, and their
# manifest's command name
MANIFESTS = {
    "surface": (["surface", "--x", "0.5", "--y", "0", "--n", "1:5", "--h", "1:2",
                 "--bound", "100", "--out", "o.csv"], ["o.csv"], "surface"),
    "gap": (["gap", "--x", "2", "--y", "0", "--budget", "10", "--q-bound", "100",
             "--out", "o.json"], ["o.json"], "gap"),
    "zeros-scan": (["zeros", "scan", "--y-min", "14", "--y-max", "14.3", "--out", "o.csv"],
                   ["o.csv"], "zeros scan"),
    "zeros-refine": (["zeros", "refine", "--y0", "14.13", "--out", "o.csv"], ["o.csv"],
                     "zeros refine"),
    "zeros-load": (["zeros", "load", "z.txt", "--out", "o.csv"], ["o.csv"], "zeros load"),
    "search": (["search", "--seed", "1", "--prefix", "4", "--iters", "2", "--h-max", "2",
                "--n0", "10", "--n1", "20", "--bound", "100", "--out-trace", "t.csv",
                "--out-best", "b.json"], ["t.csv", "b.json"], "search"),
}


@pytest.mark.parametrize("name", MANIFESTS)
def test_every_data_file_gets_its_manifest(name, tmp_path, monkeypatch, capsys):
    argv, outs, command = MANIFESTS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z.txt").write_text("14.134725\n")
    assert main(argv) == 0
    for out in outs:
        text = (tmp_path / f"{out}.manifest.json").read_text()
        manifest = json.loads(text)
        assert list(manifest) == ["command", "parameters", "toolVersion", "numericMethods",
                                  "timestamp"]
        assert manifest["command"] == command
        assert list(manifest["parameters"]) == flag_names(command)
        assert text.endswith("}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["z.txt", *outs, *(f"{out}.manifest.json" for out in outs)])


def flag_names(command: str) -> list[str]:
    """The camelCased dests of `command`'s parser, in order, but its help and
    its output paths."""
    parser = cli.build_parser()
    for word in command.split():
        sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return [re.sub(r"_([a-z])", lambda m: m.group(1).upper(), a.dest)
            for a in parser._actions
            if a.dest not in ("help", "out", "out_trace", "out_best")]


def test_search_manifest_records_eta_tol(tmp_path, monkeypatch, capsys):
    """Two search runs whose traces differ have different manifests."""
    monkeypatch.chdir(tmp_path)
    tols = ("1e-12", "1e-6")
    for tol in tols:
        assert main(["search", "--seed", "1", "--prefix", "8", "--iters", "5", "--h-max",
                     "4", "--eta-tol", tol, "--out-trace", f"t{tol}.csv",
                     "--out-best", f"b{tol}.json"]) == 0
    traces = [(tmp_path / f"t{tol}.csv").read_text() for tol in tols]
    manifests = [json.loads((tmp_path / f"t{tol}.csv.manifest.json").read_text())
                 for tol in tols]
    assert traces[0] != traces[1]
    assert [m["parameters"]["etaTol"] for m in manifests] == [1e-12, 1e-6]


@pytest.mark.parametrize("argv, message", [
    (["gap", "--x", "2", "--y", "0", "--q-bound", "100", "--h-max", "50", "--budget", "0"],
     "ordering by-value(bound=100) yields only 40 elements, 50 requested: "
     "raise the Q bound above 100"),
    (["search", "--seed", "1", "--prefix", "50", "--iters", "1", "--h-max", "2",
      "--bound", "100", "--out-trace", "t.csv", "--out-best", "b.json"],
     "ordering by-value(bound=100) yields only 40 elements, 50 requested: "
     "raise the Q bound above 100"),
    (["surface", "--x", "0.5", "--y", "0", "--n", "1:5", "--h", "1:2", "--bound", "100",
      "--ordering", "shuffle:1:50", "--out", "s.csv"],
     "shuffle prefix 50 exceeds the 40 elements of Q: raise the Q bound above 100"),
], ids=["gap", "search", "surface-shuffle"])
def test_q_shortfall_names_the_q_bound(argv, message, cli_error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_error(argv) == message
    assert list(tmp_path.iterdir()) == []


def test_closed_pipe_exits_quietly(tmp_path):
    """A reader that closes stdout after one line stops the command with
    exit code 141 and nothing on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ETAQ_ROOT, env.get("PYTHONPATH")) if p)
    # a report of about 1.4 MB, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "etaq.cli", "gap", "--x", "2", "--y", "0",
         "--q-bound", "100000", "--budget", "10"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=CLI_TIMEOUT_S) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def failed_lines(out: str) -> list[str]:
    """The `[FAIL] <name>` heads of verify's failed-check lines."""
    return [l.split(":")[0] for l in out.splitlines() if l.startswith("[FAIL]")]


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

    def test_fault_injection_exits_one_naming_check(self, monkeypatch, capsys):
        # geom off by 1e-11 relative: far past geom-algebra's 1e-13, while
        # |geom| only grows and the 2^(-Lx) decay stays above 1e-8
        geom_closed = series.geom_closed
        monkeypatch.setattr(cli, "geom_closed", lambda p: geom_closed(p) * (1.0 + 1e-11))
        rc = main(["verify", "--k-max", "500", "--budget", "1000000"])
        assert rc == 1
        captured = capsys.readouterr()
        assert failed_lines(captured.out) == ["[FAIL] geom-algebra"]
        assert captured.err == "FAILED: geom-algebra\n"

    def test_removed_fault_flag_exits_two(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "run_verify", lambda *a: ran.append(a))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--k-max", "10", "--budget", "1000", "--inject-fault", "x"])
        assert exc.value.code == 2
        assert ran == []
        assert "unrecognized arguments: --inject-fault x" in capsys.readouterr().err

    def test_truncation_gate_follows_the_budget(self, monkeypatch, capsys):
        # the direct residual is about 3.4 N^(-1/2) at (0.5, 0): 0.107 at N = 1000
        assert main(["verify", "--k-max", "10", "--budget", "1000"]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if "contradiction-identity-direct" in l)
        assert line.startswith("[PASS]") and line.endswith("<= 1.0e+00? same identity, "
                                                           "truncation paths at budget 1000 "
                                                           "within tail estimate")
        # the same identity with the direct B off by 1: about 8 tail estimates at (0.5, 0)
        limit_B = limits.limit_B
        monkeypatch.setattr(limits, "limit_B", lambda p, budget: limits.BEstimate(
            limit_B(p, budget).direct + 1.0, budget))
        assert main(["verify", "--k-max", "10", "--budget", "1000"]) == 1
        captured = capsys.readouterr()
        assert failed_lines(captured.out) == ["[FAIL] contradiction-identity-direct"]
        assert captured.err == "FAILED: contradiction-identity-direct\n"

    def test_f_check_counts_every_k_up_to_k_max(self, monkeypatch):
        f_closed = qset.f_closed
        monkeypatch.setattr(qset, "f_closed", lambda k: f_closed(k) - (k == 105))
        checks = {c.name: c for c in cli.run_verify(120, 100_000)}
        assert not checks["f-closed-vs-bruteforce"].passed
        assert checks["f-closed-vs-bruteforce"].detail.endswith("1 mismatches over k <= 120")


def test_every_public_name_resolves():
    import etaq
    assert all(getattr(etaq, name, None) is not None for name in etaq.__all__)


def _used_names(tree: ast.AST) -> set[str]:
    """The names and attribute names that `tree` reads or writes."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_top_level_name_is_used():
    """Each public top-level function and class of the package is used, by
    name or attribute, in one of its modules outside its own definition, or
    in perfbench.  `__init__.py`'s exports, imports and docstrings do not
    count: the library keeps only what a command, a check or the benchmark
    runs."""
    defined, used = {}, set()
    for path in sorted((Path(ETAQ_ROOT) / "etaq").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None and not own.startswith("_"):
                defined[own] = path.name
            used |= _used_names(stmt) - {own}
    for path in (Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"):
        used |= _used_names(ast.parse(path.read_text()))
    assert sorted(f"{defined[name]}: {name}" for name in defined.keys() - used) == []


def test_every_library_failure_is_a_value_error():
    """`main` turns a ValueError or an OSError into exit 2 and one line, so
    each exception class the package defines derives from ValueError, and
    each `raise` in it names ValueError, one of those classes, or an
    OSError subclass."""
    classes, raised = {}, []
    for path in sorted((Path(ETAQ_ROOT) / "etaq").glob("*.py")):
        name = "etaq" if path.stem == "__init__" else f"etaq.{path.stem}"
        module = importlib.import_module(name)
        classes |= {k: v for k, v in vars(module).items() if isinstance(v, type)
                    and issubclass(v, Exception) and v.__module__ == name}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append((f"{path.name}:{node.lineno}", getattr(exc, "id", None)))
    assert sorted(classes) == ["AccelerationError", "RefinementError"]
    assert [k for k, v in classes.items() if not issubclass(v, ValueError)] == []
    known = {**vars(builtins), **classes}
    assert [(where, exc) for where, exc in raised
            if not issubclass(known.get(exc, type(None)), (ValueError, OSError))] == []


@pytest.mark.parametrize("argv, name", [
    (["zeros", "refine", "--y0", "5.0", "--tol", "nan"], "tol"),
    (["zeros", "refine", "--y0", "14.13", "--tol", "inf"], "tol"),
    (["zeros", "refine", "--y0", "14.13", "--window", "nan"], "window"),
    (["zeros", "refine", "--y0", "14.13", "--window", "inf"], "window"),
    (["eta", "0.5", "1", "--tol", "nan"], "targetTol"),
    (["zeta", "0.5", "1", "--tol", "nan"], "targetTol"),
    (["eta", "0.5", "1", "--tol", "inf"], "targetTol"),
    (["gap", "--x", "2", "--y", "0", "--q-bound", "30000000", "--eta-tol", "nan",
      "--budget", "0"], "etaTol"),
    (["gap", "--x", "2", "--y", "0", "--q-bound", "30000000", "--eta-tol", "0",
      "--budget", "0"], "etaTol"),
    (["search", "--seed", "1", "--prefix", "20", "--iters", "1", "--eta-tol", "0",
      "--bound", "30000000", "--out-trace", "t.csv", "--out-best", "b.json"], "etaTol"),
    (["zeros", "scan", "--y-min", "0", "--y-max", "inf"], "yMax"),
    (["zeros", "scan", "--y-min", "nan", "--y-max", "1"], "yMin"),
    (["zeros", "scan", "--y-min", "0", "--y-max", "1", "--step", "nan"], "step"),
    (["zeros", "scan", "--y-min", "0", "--y-max", "1e308", "--step", "1e-10"], "step"),
    (["zeros", "scan", "--y-min", "0", "--y-max", "1", "--threshold", "nan"], "threshold"),
    (["zeros", "scan", "--y-min", "0", "--y-max", "30", "--refine", "--tol", "nan"], "tol"),
    (["search", "--seed", "1", "--prefix", "20", "--iters", "3", "--t0", "nan",
      "--out-trace", "t.csv", "--out-best", "b.json"], "t0"),
    (["search", "--seed", "1", "--prefix", "20", "--iters", "3", "--t0", "-1",
      "--out-trace", "t.csv", "--out-best", "b.json"], "t0"),
    (["gap", "--x", "2", "--y", "0", "--q-bound", "100", "--ordering", "shuffle:1:-3"],
     "prefix -3 is negative"),
    (["gap", "--x", "2", "--y", "0", "--q-bound", "100", "--ordering", "shuffle:a:3"],
     "shuffle ordering is shuffle:SEED:PREFIX, got 'shuffle:a:3'"),
    (["zeros", "refine", "--y0", "nan"], "y0"),
    (["surface", "--x", "0.5", "--y", "0", "--bound", "10000000", "--out", "s.csv",
      "--n", "1:100000", "--h", "1:1000"],
     f"--n 1:100000 x --h 1:1000: 100000000 cells exceed the cap {limits.MAX_CELLS}"),
    # ranges past 2^63 - 1 values, counted before the range is built
    (["surface", "--x", "0.5", "--y", "1", "--n", "1:99999999999999999999", "--h", "1:2",
      "--out", "e.csv"],
     f"--n 1:99999999999999999999: 99999999999999999999 cells exceed the cap "
     f"{limits.MAX_CELLS} (16 bytes per cell)"),
    (["surface", "--x", "0.5", "--y", "1", "--n", "1:2", "--h", "1:99999999999999999999",
      "--out", "e.csv"],
     f"--h 1:99999999999999999999: 99999999999999999999 cells exceed the cap "
     f"{limits.MAX_CELLS} (16 bytes per cell)"),
    (["search", "--seed", "1", "--prefix", "20", "--iters", "1", "--h-max", "30",
      "--bound", "30000000", "--out-trace", "t.csv", "--out-best", "b.json"],
     "hMax 30 exceeds prefix length 20"),
    (["search", "--seed", "1", "--prefix", "20", "--iters", "1",
      "--n1", str(series.MAX_TERMS + 1), "--bound", "30000000",
      "--out-trace", "t.csv", "--out-best", "b.json"],
     f"{series.MAX_TERMS + 1} terms exceed the cap {series.MAX_TERMS}"),
    (["search", "--seed", "1", "--prefix", "20", "--iters", "1000000000",
      "--bound", "30000000", "--out-trace", "t.csv", "--out-best", "b.json"],
     f"1000000000 iterations exceed the cap {cli.search.MAX_ITERATIONS} "
     "(9 bytes of trace per iteration)"),
    # a height just past series.MAX_HEIGHT, or an x that is not > 0
    (["eta", "0.5", "838.41"], "need 0 < x <= 1e+300 and |y| <= 838.40"),
    (["zeta", "0.5", "-838.41"], "need 0 < x <= 1e+300 and |y| <= 838.40"),
    (["surface", "--x", "0.5", "--y", "838.41", "--n", "1:10", "--h", "1:3",
      "--bound", "30000000", "--out", "s.csv"], "need 0 < x <= 1e+300 and |y| <= 838.40"),
    (["gap", "--x", "0", "--y", "0", "--q-bound", "30000000", "--budget", "10"],
     "need 0 < x <= 1e+300 and |y| <= 838.40; got x=0.0, y=0.0"),
    (["gap", "--x", "0.5", "--y", "1e300", "--q-bound", "30000000", "--budget", "10"],
     "need 0 < x <= 1e+300 and |y| <= 838.40; got x=0.5, y=1e+300"),
    # an x past series.MAX_X, where x ln k could overflow
    (["eta", "1e308", "0"], "need 0 < x <= 1e+300 and |y| <= 838.40; got x=1e+308, y=0.0"),
    (["gap", "--x", "1e308", "--y", "0", "--q-bound", "100", "--budget", "10"],
     "need 0 < x <= 1e+300 and |y| <= 838.40; got x=1e+308, y=0.0"),
    (["search", "--seed", "1", "--prefix", "5", "--iters", "2", "--h-max", "4",
      "--x", "1e308", "--out-trace", "t.csv", "--out-best", "b.json"],
     "need 0 < x <= 1e+300 and |y| <= 838.40; got x=1e+308, y=3.0"),
    (["surface", "--x", "1e308", "--y", "0", "--n", "1:10", "--h", "1:2", "--out", "s.csv"],
     "need 0 < x <= 1e+300 and |y| <= 838.40; got x=1e+308, y=0.0"),
    # below the ceiling, past the eta evaluator's reach at the default 1e-12
    (["gap", "--x", "0.5", "--y", "300", "--q-bound", "30000000", "--budget", "10"],
     "eta acceleration reaches 1.780e-12"),
    (["search", "--seed", "1", "--prefix", "20", "--iters", "3", "--x", "0.5", "--y", "300",
      "--bound", "30000000", "--out-trace", "t.csv", "--out-best", "b.json"],
     "eta acceleration reaches 1.780e-12"),
    (["search", "--seed", "1", "--prefix", "20", "--iters", "3", "--y", "838.41",
      "--bound", "30000000", "--out-trace", "t.csv", "--out-best", "b.json"],
     "need 0 < x <= 1e+300 and |y| <= 838.40"),
    (["zeros", "scan", "--y-min", "0", "--y-max", "900"],
     "need 0 < x <= 1e+300 and |y| <= 838.40; got x=0.5, y=900.0"),
    (["zeros", "scan", "--y-min", "0", "--y-max", "900", "--refine"],
     "need 0 < x <= 1e+300 and |y| <= 838.40; got x=0.5, y=900.0"),
    (["zeros", "refine", "--y0", "838.4"], "need |y0| + window <= 838.40"),
    (["zeros", "refine", "--y0", "-838.4"], "need |y0| + window <= 838.40"),
    # the B oracle's closed form at its pole s = 0, where 2^x - e^(-iy ln 2) cancels
    (["gap", "--x", "1e-17", "--y", "0", "--q-bound", "100", "--budget", "0"],
     "the B oracle's closed form errs by up to 1.602e+02 > etaTol 1.000e-12 "
     "at s=(1e-17,0.0), near its pole s = 0"),
    (["gap", "--x", "0.001", "--y", "0", "--q-bound", "100", "--budget", "0"],
     "the B oracle's closed form errs by up to 1.602e-12 > etaTol"),
], ids=["refine-tol-nan", "refine-tol-inf", "refine-window-nan", "refine-window-inf",
        "eta-tol-nan", "zeta-tol-nan", "eta-tol-inf", "gap-eta-tol-nan", "gap-eta-tol-0",
        "search-eta-tol-0", "scan-y-max-inf", "scan-y-min-nan", "scan-step-nan",
        "scan-step-overflow", "scan-threshold-nan", "scan-refine-tol-nan",
        "search-t0-nan", "search-t0-negative", "gap-shuffle-prefix-negative",
        "gap-shuffle-seed-not-an-integer",
        "refine-y0-nan", "surface-cells", "surface-n-past-int64", "surface-h-past-int64",
        "search-h-max-over-prefix",
        "search-n1-over-cap", "search-iters-over-cap", "eta-height", "zeta-height", "surface-height", "gap-x",
        "gap-height", "eta-x-cap", "gap-x-cap", "search-x-cap", "surface-x-cap",
        "gap-eta-reach", "search-eta-reach", "search-height", "scan-height",
        "scan-refine-height", "refine-height", "refine-negative-height", "gap-x-at-the-pole",
        "gap-x-near-the-pole"])
def test_bad_input_rejected_before_any_work(argv, name, cli_error, tmp_path, monkeypatch):
    work = []
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(qset, "odd_factor_counts", lambda *a: work.append(a))
    monkeypatch.setattr(zeros, "eta_accel", lambda *a: work.append(a))
    monkeypatch.setattr(zeros, "eta_grid", lambda *a: work.append(a))
    assert name in cli_error(argv)
    assert work == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["gap", "--x", "2", "--y", "0", "--q-bound", "-1", "--budget", "10", "--out", "g.json"],
    ["surface", "--x", "0.5", "--y", "0", "--n", "1:5", "--h", "1:2", "--bound", "-1",
     "--out", "s.csv"],
    ["search", "--seed", "1", "--prefix", "4", "--iters", "1", "--h-max", "2",
     "--bound", "-1", "--out-trace", "t.csv", "--out-best", "b.json"],
], ids=["gap", "surface", "search"])
def test_negative_q_bound_names_the_q_bound(argv, cli_error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_error(argv) == "the Q bound -1 must be >= 0"
    assert list(tmp_path.iterdir()) == []
