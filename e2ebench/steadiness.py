"""Steadiness table: each workload run over several seeds, in one or more sets.

    python3 e2ebench/steadiness.py [--runs 10] [--sets 2] [--workload NAME ...]

Runs ``BENCHMARK.json``'s command once per seed (1..runs) for each
workload, and repeats that whole set ``--sets`` times, one set after the
other.  Then prints, per set and end-to-end metric, the median, the
quartiles (``statistics.quantiles(n=4)``) and (q3 - q1) / median next to
the metric's bound, and with two or more sets how far each later set's
median lies from the first's, as Markdown tables.  ``--workload`` (may be
repeated) limits the runs to the named workloads, for tuning one of
them.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import spread  # noqa: E402


def run_set(bench: dict, workload: str, runs: int, label: str) -> dict[str, list[float]]:
    """Each end-to-end metric's values over seeds 1..runs."""
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(1, runs + 1):
        cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        took = time.monotonic() - start
        report = json.loads(out.stdout.strip().splitlines()[-1])
        if not report["correct"] or report["failed"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect run: {report}")
        for name in values:
            values[name].append(report["metrics"][name]["value"])
        print(f"  {label} {workload} seed {seed} ({took:.0f} s): "
              + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              file=sys.stderr, flush=True)
    return values


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = [
        {w: run_set(bench, w, args.runs, f"set {i + 1}") for w in workloads}
        for i in range(args.sets)
    ]

    print("| workload | metric | set | median | q1 | q3 | (q3-q1)/median | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        for name, bound in bounds.items():
            for i, values in enumerate(sets):
                s = spread(values[workload][name])
                print(f"| {workload} | {name} | {i + 1} | {s['median']:.4g} | {s['q1']:.4g} | "
                      f"{s['q3']:.4g} | {s['iqr_over_median']:.4f} | {bound} |")
    if len(sets) > 1:
        print()
        print("| workload | metric | set | median | median of set 1 | (median - set 1)/set 1 | bound |")
        print("|---|---|---|---|---|---|---|")
        for workload in workloads:
            for name, bound in bounds.items():
                first = spread(sets[0][workload][name])["median"]
                for i, values in enumerate(sets[1:], start=2):
                    med = spread(values[workload][name])["median"]
                    print(f"| {workload} | {name} | {i} | {med:.4g} | {first:.4g} | "
                          f"{(med - first) / first:+.4f} | {bound} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
