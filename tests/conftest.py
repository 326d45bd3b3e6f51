import os
import subprocess
import sys
from pathlib import Path

import pytest

import etaq
from etaq.cli import main
from etaq.zeros import refine_zero

# Directory that holds the imported ``etaq`` package: ``src`` in a source
# checkout, site-packages or the source tree under an editable install.
ETAQ_ROOT = str(Path(etaq.__file__).resolve().parent.parent)

CLI_TIMEOUT_S = 120

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES

needs_avx512 = pytest.mark.skipif(not CPU_FEATURES.get("X86_V4", False),
                                  reason="the host has no AVX-512 dispatch to turn off")


def run_without_avx512(script: str) -> None:
    """Run ``python -c script`` with the tests directory as ``argv[1]``, in a
    child whose numpy has its AVX-512 dispatch turned off, and assert that
    it exits 0 and prints ``ok``.  The script checks that the dispatch is
    off (``CPU_FEATURES["X86_V4"]`` is false)."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ETAQ_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.fixture(scope="session")
def run_cli():
    """Return ``run(args, cwd)``: ``python -m etaq.cli *args`` in ``cwd``.

    The child gets this process's environment with the directory of the
    imported ``etaq`` put first on ``PYTHONPATH``, so it runs the same code
    as the tests whatever the working directory and however ``PYTHONPATH``
    was given (a relative ``src`` resolves to nothing from ``tmp_path``).
    ``run`` asserts exit code 0, showing the child's stderr otherwise.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ETAQ_ROOT, env.get("PYTHONPATH")) if p)

    def run(args, cwd):
        proc = subprocess.run([sys.executable, "-m", "etaq.cli", *args],
                              cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        assert proc.returncode == 0, proc.stderr
        return proc

    return run


@pytest.fixture
def cli_error(capsys):
    """Return ``fail(argv)``: run ``etaq.cli.main(argv)`` in process, assert
    exit code 2 and a stderr of exactly one ``error: ...`` line, and return
    that line's message."""
    def fail(argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        return err[len("error: "):-1]

    return fail


@pytest.fixture(scope="session")
def first_zero():
    """Refined ordinate of the first critical-line zero, found in-tool."""
    return refine_zero(14.13, window=0.05, tol=1e-9)
