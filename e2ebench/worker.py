"""One benchmark process: import the program, then run one workload.

Started by ``run.py`` in a fresh interpreter, from the checkout root::

    python3 e2ebench/worker.py {setup,run} --workload W --seed N \\
        --seconds S --work DIR [--trace]

It prints ``READY <json>`` once the program is imported (and, for
``fleet_live``, its server is listening), which is the end of set-up.
``setup`` mode stops there; ``run`` goes on to time the workload and
prints ``RESULT <json>``.

The timed phase repeats the workload's unit until ``--seconds`` have
been measured and at least ``MIN_UNITS`` units ran, and reports the
fastest unit: the machine's slow spells only ever add time.  Each unit's
preparation (a fresh cache directory, a fresh archive and server) and
the input generation happen off the clock.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import fleet as fleetgen  # noqa: E402
from stats import percentile, vmhwm_mb  # noqa: E402
from tracing import Tracer  # noqa: E402

#: The 16 paper-body experiments `verify_cold` runs after `verify`.
PAPER_BODY = 16
EXPECTED_NODES = 923
EXPECTED_RECORDS = 90_658
EXPECTED_CLAIMS = 19
#: HTTP statuses that mean the server refused or gave up on a request.
REJECTED = (408, 429, 503, 504)
#: Untraced units per run at the least: one sample of a unit is too noisy.
MIN_UNITS = 2

VERIFY_IMPORTS = ("repro.experiments.runner", "repro.experiments.verify")
FLEET_IMPORTS = ("repro.logs.ingest", "repro.query.engine")


def import_program(names) -> float:
    """Import the program from the checkout's ``src``; returns seconds."""
    start = time.perf_counter()
    for name in names:
        __import__(name)
    seconds = time.perf_counter() - start
    src = (Path.cwd() / "src").resolve()
    found = Path(sys.modules["repro"].__file__).resolve()
    if src not in found.parents:
        raise RuntimeError(f"imported repro from {found}, not from {src}")
    return seconds


class Checks:
    """Attempted/failed bookkeeping: a failure is counted, never retried."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


# ---------------------------------------------------------------------------
# The paper pipeline: verify_cold
# ---------------------------------------------------------------------------


def record_keys(cache) -> list[str]:
    """Wrap ``cache``'s load/store so the keys the program uses are recorded."""
    keys: list[str] = []

    def recorded(method):
        def call(key, *args, **kwargs):
            keys.append(key)
            return method(key, *args, **kwargs)
        return call

    cache.load = recorded(cache.load)
    cache.store = recorded(cache.store)
    return keys


class VerifyWorkload:
    def __init__(self, args, tracer: Tracer | None):
        from repro.experiments import runner

        self.args = args
        self.runner = runner
        self.tracer = tracer
        self.checks = Checks()
        self.records = 0
        self.straggler = 0.0
        self.entry_mb = 0.0
        self.keys: list[str] = []
        # The paper's 19 claims are calibrated to the one paper
        # configuration, so the workload runs it at its own seed; the run
        # seed only orders the paper-body experiments.
        self.experiments = list(runner.EXPERIMENT_ORDER[:PAPER_BODY])
        np.random.default_rng([args.seed, 16]).shuffle(self.experiments)

    def cache_dir(self, unit: int) -> Path:
        return Path(self.args.work) / f"cold-cache-{unit}"

    def prepare(self, unit: int):
        from repro.cache import CampaignCache

        self.runner.clear_analysis_memo()
        root = self.cache_dir(unit)
        shutil.rmtree(root, ignore_errors=True)
        cache = CampaignCache(root=root)
        self.keys = record_keys(cache)
        return cache

    def unit(self, cache) -> None:
        from repro.experiments.verify import verify

        span = self.tracer.span if self.tracer else _nospan
        with span("get_analysis"):
            analysis = self.runner.get_analysis(cache=cache)
        with span("verify"):
            results = verify(analysis)
        for name in self.experiments:
            with span("experiment"):
                outcome = self.runner.run_experiment(name, analysis)
            self.checks.check(outcome.exp_id == name, f"experiment {name}")
        campaign = analysis.campaign
        self.records = campaign.archive.n_records()
        passed = sum(1 for r in results if r.passed)
        for r in results:
            self.checks.check(r.passed, f"claim {r.claim.claim_id}")
        self.checks.check(
            len(results) == EXPECTED_CLAIMS and passed == EXPECTED_CLAIMS,
            f"{passed}/{len(results)} claims",
        )
        self.checks.check(
            campaign.registry.n_scanned == EXPECTED_NODES
            and len(campaign.tracks) == EXPECTED_NODES,
            f"nodes {campaign.registry.n_scanned}",
        )
        self.checks.check(self.records == EXPECTED_RECORDS, f"records {self.records}")
        if campaign.metrics is not None:
            seconds = campaign.metrics.node_seconds.values()
            self.straggler = max(seconds) / sum(seconds)
        # The entry this unit wrote, not any other the cache holds.
        entry = cache.path_for(self.keys[-1]) if self.keys else None
        if not self.checks.check(entry is not None and entry.is_file(), f"cache entry {entry}"):
            return
        self.entry_mb = entry.stat().st_size / 1e6
        # The next command's cache hit: the stored entry reads back whole.
        del analysis, campaign
        self.runner.clear_analysis_memo()
        loaded = cache.load(self.keys[-1])
        self.checks.check(
            loaded is not None and loaded.archive.n_records() == EXPECTED_RECORDS,
            "cache entry does not read back",
        )

    def cleanup(self, unit: int) -> None:
        shutil.rmtree(self.cache_dir(unit), ignore_errors=True)

    def instrument(self, t: Tracer) -> None:
        from repro.analysis import extraction, multibit
        from repro.analysis.report import StudyAnalysis
        from repro.cache import CampaignCache
        from repro.dram.addressing import AddressMap
        from repro.environment.temperature import TemperatureModel
        from repro.scheduler.batch import BatchScheduler

        t.wrap(self.runner, "run_campaign", "faultinjection.run_campaign")
        t.wrap(BatchScheduler, "node_windows", "scheduler.node_windows")
        t.wrap(TemperatureModel, "reading", "environment.temperature_reading", aggregate=True)
        t.wrap(AddressMap, "virtual_address", "dram.addressing", aggregate=True)
        t.wrap(AddressMap, "physical_page", "dram.addressing", aggregate=True)
        t.wrap(CampaignCache, "load", "cache.load")
        t.wrap(CampaignCache, "store", "cache.store")
        for prop in ("extraction", "frame", "groups", "sim_stats", "errors_by_node",
                     "regimes", "table1", "daily_errors", "daily_tbh", "pearson"):
            t.wrap(StudyAnalysis, prop, f"analysis.{prop}")
        t.wrap(multibit, "reconstruct_table1", "analysis.reconstruct_table1")
        t.wrap(multibit, "flip_direction_stats", "analysis.flip_direction_stats")
        t.wrap(extraction, "collapse_runs", "kernels.extract")

    def layer_metrics(self, t: Tracer) -> dict:
        campaign = t.total("faultinjection.run_campaign")
        return {
            "scheduler.node_windows_s": t.total("scheduler.node_windows"),
            "scheduler.node_windows_calls": t.calls("scheduler.node_windows"),
            "environment.temperature_reading_s": t.total("environment.temperature_reading"),
            "environment.temperature_reading_calls": t.calls("environment.temperature_reading"),
            "dram.addressing_s": t.total("dram.addressing"),
            "dram.addressing_calls": t.calls("dram.addressing"),
            "faultinjection.campaign_self_s": t.self_time("faultinjection.run_campaign"),
            "faultinjection.records": self.records,
            "faultinjection.records_per_s": self.records / campaign if campaign else 0.0,
            "faultinjection.straggler_share": self.straggler,
            "cache.store_s": t.total("cache.store"),
            "cache.load_s": t.total("cache.load"),
            "cache.entry_mb": self.entry_mb,
            "analysis.extraction_s": t.total("analysis.extraction"),
            "analysis.flip_direction_stats_s": t.total("analysis.flip_direction_stats"),
            "analysis.reconstruct_table1_s": t.total("analysis.reconstruct_table1"),
            "analysis.sim_stats_s": t.total("analysis.sim_stats"),
            "analysis.daily_tbh_s": t.total("analysis.daily_tbh"),
            "analysis.pearson_s": t.total("analysis.pearson"),
            "kernels.extract_s": t.total("kernels.extract"),
            "kernels.extract_calls": t.calls("kernels.extract"),
            "experiments.verify_self_s": t.self_time("verify"),
            "experiments.figures_self_s": t.self_time("experiment"),
        }

    def e2e_metrics(self) -> dict:
        # The campaign archive as the cache keeps it on disk.
        return {"peak_rss_mb": vmhwm_mb(), "archive_mb": self.entry_mb}


def _nospan(_name):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# The live path: fleet_live
# ---------------------------------------------------------------------------


class ServerChild:
    """The telemetry server in its own interpreter, over one archive."""

    def __init__(self, archive: Path, trace: bool):
        cmd = [sys.executable, str(HERE / "serve.py"), "--archive", str(archive)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = json.loads(line[6:])["port"]

    def stop(self) -> dict:
        """Close stdin (the stop signal) and collect the exit report."""
        out, _ = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        for line in out.splitlines():
            if line.startswith("STATS "):
                return json.loads(line[6:])
        raise RuntimeError("server printed no STATS line")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def day_batches(fl) -> list[tuple[str, object]]:
    """One ``(batch_id, RecordColumns)`` per study day of a generated fleet."""
    from repro.logs.columnar import KIND_ERROR, RecordColumns

    out = []
    for d, rows in enumerate(fl.day_slices()):
        codes, inverse = np.unique(fl.node[rows], return_inverse=True)
        n = rows.stop - rows.start
        cols = RecordColumns(
            kind=np.full(n, KIND_ERROR, dtype=np.uint8),
            t=fl.t[rows],
            temp=fl.temp[rows],
            mb=np.zeros(n, dtype=np.int64),
            va=fl.va[rows],
            pp=fl.pp[rows],
            expected=fl.expected[rows],
            actual=fl.actual[rows],
            rep=fl.rep[rows],
            node_code=inverse.astype(np.int32),
            node_names=[fl.names[c] for c in codes.tolist()],
        )
        out.append((f"day-{d:03d}", cols))
    return out


def commit_plan(batches, day: int, resend) -> dict:
    """What day ``day`` commits: its own batch, plus yesterday's on re-send days."""
    plan = dict([batches[day]])
    if day in resend:
        plan.update([batches[day - 1]])
    return plan


def _normalize(columns: dict) -> dict:
    """JSON round trip, so local results compare equal to wire results."""
    return json.loads(json.dumps(columns))


class FleetWorkload:
    def __init__(self, args, tracer: Tracer | None):
        from repro.logs import ingest

        self.args = args
        self.tracer = tracer
        # Called through the module, so the traced run's wrappers apply.
        self.ingest = ingest
        self.checks = Checks()
        self.commit_ms: list[float] = []
        self.query_ms: list[float] = []
        self.peak_rss = 0.0
        self.archive_mb = 0.0
        self.rejected = 0
        self.replays_dropped = 0
        self.resends = 0
        self.request_s = 0.0
        self.bytes_written = 0
        self.server_stats: list[dict] = []
        self.server: ServerChild | None = None
        self.fleet = self.mix = self.batches = None

    def archive_dir(self, unit: int) -> Path:
        return Path(self.args.work) / f"archive-{unit}"

    def start_server(self, unit: int) -> None:
        directory = self.archive_dir(unit)
        shutil.rmtree(directory, ignore_errors=True)
        self.ingest.LiveArchive.create(directory)
        self.server = ServerChild(directory, trace=self.tracer is not None)

    def stop_server(self) -> None:
        if self.server is not None:
            stats = self.server.stop()
            self.server_stats.append(stats)
            self.peak_rss = max(self.peak_rss, stats["peak_rss_mb"])
            self.server = None

    def kill_server(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None

    def prepare(self, unit: int):
        from repro.query.engine import QueryEngine
        from repro.query.source import ArchiveSource

        if self.server is None:  # unit 0 reuses the set-up server
            self.start_server(unit)
        if self.fleet is None:
            self.fleet = fleetgen.make_fleet(self.args.seed)
            self.mix = fleetgen.request_mix(self.fleet, self.args.seed)
            self.batches = day_batches(self.fleet)
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        local = QueryEngine(ArchiveSource(self.archive_dir(unit)))
        return unit, conn, local

    # -- one request ---------------------------------------------------------

    @staticmethod
    def _request(conn, plan: dict):
        body = json.dumps(plan).encode("utf-8")
        conn.request("POST", "/query", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()

    @staticmethod
    def _local(local, plan: dict):
        """The answer ``local`` (a QueryEngine) gives to ``plan``."""
        from repro.query.plan import Query

        return _normalize(local.execute(Query.from_dict(plan)).to_dict()["columns"])

    def _ask(self, conn, plan: dict, span, timed: bool):
        """One request; returns the parsed columns, or None on failure."""
        start = time.perf_counter()
        try:
            with span("request"):
                status, raw = self._request(conn, plan)
        except (http.client.HTTPException, OSError) as exc:
            self.checks.check(False, f"query {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        self.request_s += elapsed
        if status in REJECTED:
            self.rejected += 1
        if not self.checks.check(status == 200, f"query HTTP {status}"):
            return None
        if timed:
            self.query_ms.append(elapsed * 1e3)
        return json.loads(raw)["columns"]

    # -- the unit ------------------------------------------------------------

    def unit(self, state) -> None:
        unit, conn, local = state
        span = self.tracer.span if self.tracer else _nospan
        archive = self.ingest.LiveArchive.open(self.archive_dir(unit))
        resend = set(fleetgen.resend_days())
        compact = set(fleetgen.compaction_days())
        try:
            for day in range(len(self.batches)):
                batch_id = self.batches[day][0]
                batches = commit_plan(self.batches, day, resend)
                self.resends += len(batches) - 1
                start = time.perf_counter()
                with span("commit"):
                    report = archive.append_batch(batches)
                self.commit_ms.append((time.perf_counter() - start) * 1e3)
                self.replays_dropped += len(report.deduplicated)
                self.checks.check(report.committed == [batch_id], f"commit {batch_id}")
                if self.tracer is not None:
                    self._count_written(archive, report)
                answers: dict[str, object] = {}
                for plan in self.mix[day]:
                    got = self._ask(conn, plan, span, timed=True)
                    key = json.dumps(plan, sort_keys=True)
                    if got is None:
                        continue
                    if key in answers:  # a repeat within one archive state
                        self.checks.check(got == answers[key], f"repeat differs on day {day}")
                        continue
                    answers[key] = got
                    if day % fleetgen.PROBE_EVERY == 0:
                        with span("check"):
                            want = self._local(local, plan)
                        self.checks.check(got == want, f"answer differs on day {day}")
                if day in compact:
                    self._compact(conn, archive, span, self.mix[day])
        finally:
            conn.close()
        self.checks.check(self.replays_dropped == self.resends,
                          f"ledger dropped {self.replays_dropped} of {self.resends} re-sends")

    def _compact(self, conn, archive, span, requests) -> None:
        """Compact, and require the day's answers to survive it unchanged."""
        probes = list({json.dumps(r, sort_keys=True): r for r in requests}.values())
        with span("probe"):
            before = [self._ask(conn, plan, _nospan, timed=False) for plan in probes]
        files_before = set(os.listdir(archive.directory)) if self.tracer else set()
        with span("compact"):
            self.ingest.compact_archive(archive.directory)
        archive.refresh()
        if self.tracer is not None:
            for name in set(os.listdir(archive.directory)) - files_before:
                self.bytes_written += os.path.getsize(archive.directory / name)
            self.bytes_written += os.path.getsize(archive.directory / "manifest.json")
        with span("probe"):
            after = [self._ask(conn, plan, _nospan, timed=False) for plan in probes]
        for b, c in zip(before, after):
            self.checks.check(b is not None and b == c, "answer changed across compaction")

    def _count_written(self, archive, report) -> None:
        if report.segment:
            self.bytes_written += os.path.getsize(archive.directory / report.segment)
        self.bytes_written += os.path.getsize(archive.directory / "manifest.json")

    def cleanup(self, unit: int) -> None:
        directory = self.archive_dir(unit)
        self.archive_mb = sum(
            p.stat().st_size for p in directory.iterdir() if p.is_file()
        ) / 1e6
        self.stop_server()
        shutil.rmtree(directory, ignore_errors=True)

    def instrument(self, t: Tracer) -> None:
        t.wrap(self.ingest.LiveArchive, "append_batch", "logs.append_batch")
        t.wrap(self.ingest, "compact_archive", "logs.compact")

    def layer_metrics(self, t: Tracer) -> dict:
        execute_s = sum(s["execute_s"] for s in self.server_stats)
        calls = sum(s["execute_calls"] for s in self.server_stats)
        hits = sum(s["cache_hits"] for s in self.server_stats)
        misses = calls - hits
        return {
            "logs.append_batch_s": t.total("logs.append_batch"),
            "logs.append_batch_calls": t.calls("logs.append_batch"),
            "logs.replays_dropped": self.replays_dropped,
            "logs.compact_s": t.total("logs.compact"),
            "logs.compact_calls": t.calls("logs.compact"),
            "logs.bytes_written_per_row": self.bytes_written / len(self.fleet),
            "query.execute_s": execute_s,
            "query.execute_calls": calls,
            "query.cache_hit_ratio": hits / calls if calls else 0.0,
            "query.shards_read_per_query": (
                sum(s["shards_scanned"] for s in self.server_stats) / misses if misses else 0.0
            ),
            "query.rows_scanned_per_row_returned": (
                sum(s["rows_scanned"] for s in self.server_stats)
                / max(sum(s["rows_output"] for s in self.server_stats), 1)
            ),
            "server.request_self_s": self.request_s - execute_s,
            "server.rejected": self.rejected,
        }

    def e2e_metrics(self) -> dict:
        return {
            "peak_rss_mb": max(self.peak_rss, vmhwm_mb()),
            "commit_p50_ms": percentile(self.commit_ms, 50),
            "commit_p95_ms": percentile(self.commit_ms, 95),
            "query_p50_ms": percentile(self.query_ms, 50),
            "query_p99_ms": percentile(self.query_ms, 99),
            "archive_mb": self.archive_mb,
        }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=("verify_cold", "fleet_live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    Path(args.work).mkdir(parents=True, exist_ok=True)

    fleet_live = args.workload == "fleet_live"
    import_s = import_program(FLEET_IMPORTS if fleet_live else VERIFY_IMPORTS)
    tracer = Tracer() if args.trace else None
    workload = (FleetWorkload if fleet_live else VerifyWorkload)(args, tracer)
    try:
        server_ready_s = 0.0
        if fleet_live:
            start = time.perf_counter()
            workload.start_server(0)
            server_ready_s = time.perf_counter() - start
        emit("READY", {"import_s": import_s, "server_ready_s": server_ready_s})
        if args.mode == "setup":
            return 0

        if tracer is not None:
            workload.instrument(tracer)
        # A traced run times one unit: layer figures are per unit.
        min_units = 1 if tracer is not None else MIN_UNITS
        intervals = []
        while len(intervals) < min_units or sum(b - a for a, b in intervals) < args.seconds:
            state = workload.prepare(len(intervals))
            start = time.perf_counter()
            workload.unit(state)
            intervals.append((start, time.perf_counter()))
            workload.cleanup(len(intervals) - 1)
        walls = [b - a for a, b in intervals]
        metrics = {"wall_s": min(walls), "units": len(walls)}
        metrics.update(workload.e2e_metrics())
        if tracer is not None:
            tracer.unwrap()
            metrics["layers"] = workload.layer_metrics(tracer)
            metrics["coverage"] = tracer.coverage(intervals)
            # Kept after the run: the run's own scratch directory is removed.
            traces = Path(args.work).parent / "traces"
            traces.mkdir(exist_ok=True)
            tracer.dump(traces / f"{args.workload}-{args.seed}.json")
        emit("RESULT", {
            "attempted": workload.checks.attempted,
            "failed": workload.checks.failed,
            "notes": workload.checks.notes,
            "metrics": metrics,
        })
        return 0
    finally:
        if fleet_live:
            workload.kill_server()


if __name__ == "__main__":
    sys.exit(main())
