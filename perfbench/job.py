"""Run one `etaq` CLI call in a fresh process and record what it cost.

    python3 job.py RESULT.json [--spans SPANS.npz] -- ARGV...
    python3 job.py --warm

The result file gets the CLOCK_MONOTONIC reading when `import etaq.cli` has
finished (`imported`), the readings around `etaq.cli.main(argv)` (`start`,
`end`), its return code, the process's peak RSS and, with `--spans`, the
tracer summary; the spans themselves go to SPANS.npz.  It also gets `ref`:
the times of the reference loop (calib.py), 8 just before and 8 just after
that call.  `--warm` only imports the package, so byte-compilation happens
before anything is timed.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  VmHWM is read first because
    on Linux ru_maxrss also covers the address space the process had before
    exec, that is, the parent's."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(args: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import etaq.cli
    imported = time.perf_counter()
    if args == ["--warm"]:
        return 0
    sep = args.index("--")
    opts, argv = args[:sep], args[sep + 1:]
    result_path = Path(opts[0])
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from calib import sample
    ref_before = sample()
    rc, error = None, None
    start = time.perf_counter()
    try:
        rc = etaq.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code
    except Exception:
        error = traceback.format_exc()
    end = time.perf_counter()
    ref_after = sample()
    record = {"imported": imported, "start": start, "end": end, "rc": rc,
              "error": error, "etaq": etaq.cli.__file__, "maxrss_kb": peak_rss_kb(),
              "ref": ref_before + ref_after}
    if tracer is not None:
        tracer.save(spans_path)
        record["trace"] = tracer.summary()
    result_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
