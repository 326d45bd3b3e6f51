"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads surface_sweep,headline_gap \
        --seeds 1-10 [--traced-seed 1] [--out summary.json]

Each run is `run.py --workload W --seed N --seconds <run_seconds>`, with
run_seconds from BENCHMARK.json.  For every end-to-end metric the summary
gives the median, the quartiles of `statistics.quantiles(values, n=4)`, the
spread (q3 - q1) / median against the metric's bound, and the run count.
With --traced-seed, one traced run per workload adds the per-layer values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(metadata, result) of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        metas, results = zip(*(run_once(workload, s, spec["run_seconds"], 0)
                               for s in seeds_from(args.seeds)))
        entry = {"meta": {k: v for k, v in metas[0].items() if k != "seed"},
                 "seeds": args.seeds, "runs": len(results),
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"], "median": med,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound,
                "samples": len(values)}
            print(f"{workload:14s} {name:12s} median {med:10.5g} "
                  f"{entry['end_to_end'][name]['unit']:3s} spread "
                  f"{(q3 - q1) / med:6.3f}  (bound {bound}, a third {bound / 3:.3f})",
                  flush=True)
        if args.traced_seed is not None:
            _, traced = run_once(workload, args.traced_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = args.traced_seed
        summary[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
