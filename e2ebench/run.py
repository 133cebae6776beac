"""Run one benchmark workload and print its metrics as one JSON line.

    python3 e2ebench/run.py --workload {verify_cold,fleet_live} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
``src`` directory and nothing is installed.  Scratch files go under
``.bench_work/`` in the checkout and are removed at exit.

Set-up time is measured from a fresh interpreter start to the worker's
``READY`` line: one discarded warm-up start first (so ``.pyc`` files and
the page cache are warm), then ``SETUP_SAMPLES`` starts around the timed
run, whose own worker is the middle one; ``setup_s`` is their median.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it runs the workload once untraced and once traced
(spans around the program's public functions, see ``tracing.py``), plus
one ``-X importtime`` start for the import breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("verify_cold", "fleet_live")
#: Timed set-up starts per run (after one discarded warm-up start): half
#: before the timed run, its own worker, half after.
SETUP_SAMPLES = 3
#: Every process this run starts is killed if still running this many
#: seconds after the run began (a run must end within 180 s).
DEADLINE_S = 170.0

class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        #: The metric names and units to print come from BENCHMARK.json.
        self.bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        # The program comes from this checkout's source, and no cache
        # outside the checkout is read or written.
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            REPRO_CACHE_DIR=str(self.work / "default-cache"),
        )
        self.env.pop("REPRO_NO_CACHE", None)
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(
        self, mode: str, *, trace: bool = False, stderr=None
    ) -> tuple[float, dict, dict]:
        """Start a worker; returns (seconds to READY, READY payload, RESULT payload).

        ``stderr`` (an open file) also turns on ``-X importtime``, whose
        report goes there.
        """
        flags = ["-X", "importtime"] if stderr is not None else []
        seconds = 0 if trace else self.args.seconds
        cmd = [
            sys.executable, *flags, str(HERE / "worker.py"), mode,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(seconds), "--work", str(self.work),
        ]
        if trace:
            cmd.append("--trace")
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=stderr,
            text=True,
        )
        watchdog = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            ready_s, ready, result = None, {}, {}
            for line in proc.stdout:
                if line.startswith("READY ") and ready_s is None:
                    ready_s = time.perf_counter() - start
                    ready = json.loads(line[6:])
                elif line.startswith("RESULT "):
                    result = json.loads(line[7:])
            proc.wait()  # bounded by the watchdog
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or ready_s is None:
            raise BenchError(f"worker {mode} exited with {proc.returncode}")
        if mode == "run" and not result:
            raise BenchError("worker printed no RESULT")
        return ready_s, ready, result

    def import_scipy_s(self) -> float:
        """Seconds of a set-up start spent importing scipy (``-X importtime``)."""
        log = self.work / "importtime.txt"
        with open(log, "w", encoding="utf-8") as fh:
            self.spawn("setup", stderr=fh)
        total_us = 0
        for line in log.read_text(encoding="utf-8").splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name == "scipy" or name.startswith("scipy."):
                    total_us += int(parts[0].split(":")[1])
        return total_us / 1e6

    def run(self) -> dict:
        self.spawn("setup")  # the discarded warm-up start
        before = 0 if self.args.trace else SETUP_SAMPLES // 2
        samples = [self.spawn("setup")[0] for _ in range(before)]
        ready_s, ready, result = self.spawn("run")
        samples.append(ready_s)
        samples += [self.spawn("setup")[0] for _ in range(before)]
        metrics = dict(result["metrics"])
        results = [result]
        if self.args.trace:
            _, _, traced = self.spawn("run", trace=True)
            results.append(traced)
            layers = traced["metrics"]["layers"]
            layers.update({
                "setup.import_s": ready["import_s"],
                "setup.import_scipy_s": self.import_scipy_s(),
                "setup.server_ready_s": ready["server_ready_s"],
                "trace.coverage": traced["metrics"]["coverage"],
                "trace.overhead": traced["metrics"]["wall_s"] / metrics["wall_s"],
            })
            # Operation latencies come from the untraced run.
            for name in ("logs.commit_p50_ms", "logs.commit_p95_ms",
                         "server.query_p50_ms", "server.query_p99_ms"):
                layers[name] = metrics.get(name.split(".")[1], 0.0)
            # A layer a workload does not exercise reads 0.
            kind = "per_layer"
            out = {m["name"]: layers.get(m["name"], 0) for m in self.bench[kind]}
        else:
            metrics["setup_s"] = statistics.median(samples)
            kind, out = "end_to_end", metrics
        failed = sum(r["failed"] for r in results)
        for r in results:
            for note in r["notes"]:
                print(f"check failed: {note}", file=sys.stderr)
        return {
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "metrics": {
                m["name"]: {"value": out[m["name"]], "unit": m["unit"]}
                for m in self.bench[kind]
            },
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in (root / "src" / "repro" / "__init__.py", root / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: no {needed}; run from the root of a checkout", file=sys.stderr)
            return 2
    runner = Runner(args, root)
    try:
        report = runner.run()
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
