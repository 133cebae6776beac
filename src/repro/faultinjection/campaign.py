"""The year-scale campaign simulator.

Orchestrates every substrate into the study the paper ran:

1. commission the machine (:mod:`repro.cluster`);
2. generate each node's scan sessions from the scheduler + daemon
   stochastics, including the catalogue's pinned sessions and the
   degrading node's monitoring gaps;
3. run every fault model against the session tracks;
4. render observations into scanner ERROR records (addresses through the
   per-node address map, temperatures through the environment model) and
   collect them into a per-node columnar log archive.

The result object carries both the logs (what the study's disks held) and
the session tracks (ground-truth coverage), which the analysis package
consumes.

Execution
---------

Steps 2-4 are *per-node independent*: every node's session track, fault
models and record rendering consume only per-node RNG streams (pure
functions of ``(seed, key)``), so the campaign fans the per-node work out
through :func:`repro.parallel.supervised_map` on any backend.  The only
cross-node stages — the Table I catalogue (one sequential RNG stream
threading companion/pair bookkeeping across nodes) and archive assembly
— stay in the parent.  Serial, thread and process runs of the same seed
produce bit-identical archives and tracks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ..cluster.registry import ClusterRegistry
from ..cluster.topology import OVERHEATING_SOC, NodeId
from ..core.errors import CheckpointError, SimulationError
from ..core.records import EndRecord, ErrorRecord, StartRecord
from ..core.rng import RngFactory
from ..core.units import SCAN_TARGET_MB
from ..dram.addressing import AddressMap, stable_salt
from ..environment.temperature import TemperatureModel
from ..logs.columnar import ColumnarArchive, RecordColumns, canonical_sort_order
from ..logs.frame import ErrorFrame
from ..parallel import (
    RetryPolicy,
    resolve_backend,
    resolve_workers,
    supervised_map,
)
from ..scheduler.batch import BatchScheduler
from ..scheduler.jobs import IdleWindow
from .config import CampaignConfig, paper_campaign_config
from .models import (
    Observation,
    gen_background,
    gen_degrading,
    gen_stuck_node,
    gen_weak_bit,
    plan_catalogue,
    resolve_catalogue,
)
from .sessions import (
    PATTERN_ALTERNATING,
    PATTERN_COUNTING,
    SessionTrack,
    build_session_track,
    subtract_gaps,
)

#: Words in a full 3 GB scan buffer (address-map capacity).
_FULL_WORDS = (SCAN_TARGET_MB * 1024 * 1024) // 4


@dataclass(frozen=True)
class CampaignMetrics:
    """Timing/throughput counters for one campaign run.

    ``node_seconds`` is wall time spent simulating each node inside its
    worker; ``simulate_seconds`` is their sum (a CPU-time proxy), while
    ``wall_seconds`` is end-to-end parent wall time — their ratio is the
    effective parallel speedup.
    """

    backend: str
    workers: int
    wall_seconds: float
    simulate_seconds: float
    n_records: int
    n_observations: int
    n_nodes: int
    node_seconds: dict[str, float] = field(default_factory=dict, repr=False)
    #: Fault-tolerance counters (all zero on an undisturbed run).
    n_retries: int = 0
    n_timeouts: int = 0
    n_pool_rebuilds: int = 0
    #: Nodes restored from a checkpoint journal instead of simulated.
    n_resumed: int = 0
    #: Nodes that exhausted their retry budget (see CampaignResult.degraded).
    n_degraded: int = 0

    @property
    def records_per_second(self) -> float:
        return self.n_records / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def slowest_nodes(self, n: int = 5) -> list[tuple[str, float]]:
        ranked = sorted(self.node_seconds.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def to_dict(self) -> dict:
        """JSON-friendly view (per-node detail reduced to the top talkers)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "simulate_seconds": self.simulate_seconds,
            "n_records": self.n_records,
            "n_observations": self.n_observations,
            "n_nodes": self.n_nodes,
            "records_per_second": self.records_per_second,
            "slowest_nodes": dict(self.slowest_nodes()),
            "n_retries": self.n_retries,
            "n_timeouts": self.n_timeouts,
            "n_pool_rebuilds": self.n_pool_rebuilds,
            "n_resumed": self.n_resumed,
            "n_degraded": self.n_degraded,
        }

    def summary(self) -> str:
        text = (
            f"{self.n_nodes} nodes in {self.wall_seconds:.2f} s "
            f"({self.backend}, workers={self.workers}; "
            f"{self.n_records:,} records, "
            f"{self.records_per_second:,.0f} records/s)"
        )
        extras = []
        if self.n_resumed:
            extras.append(f"{self.n_resumed} resumed from checkpoint")
        if self.n_retries:
            extras.append(f"{self.n_retries} retries")
        if self.n_timeouts:
            extras.append(f"{self.n_timeouts} watchdog timeouts")
        if self.n_pool_rebuilds:
            extras.append(f"{self.n_pool_rebuilds} pool rebuilds")
        if self.n_degraded:
            extras.append(f"{self.n_degraded} nodes degraded")
        if extras:
            text += " [" + ", ".join(extras) + "]"
        return text


@dataclass(frozen=True)
class DegradedNode:
    """One node the campaign permanently lost, and why."""

    node: str
    attempts: int
    kind: str   # "error" | "timeout" | "pool" (see repro.parallel)
    error: str


@dataclass(frozen=True)
class DegradedResult:
    """Dead-blade accounting for a campaign that lost nodes.

    The paper reports its study over 923 scanned of 945 slots rather than
    aborting on dead blades; a campaign whose nodes exhaust their retry
    budget likewise completes over the surviving population and reports
    the casualties here instead of raising.
    """

    nodes: tuple[DegradedNode, ...]
    n_planned: int

    @property
    def n_failed(self) -> int:
        return len(self.nodes)

    @property
    def n_completed(self) -> int:
        return self.n_planned - self.n_failed

    def names(self) -> list[str]:
        return [entry.node for entry in self.nodes]

    def summary(self) -> str:
        failed = ", ".join(
            f"{e.node} ({e.kind} after {e.attempts} attempts)" for e in self.nodes
        )
        return (
            f"degraded campaign: {self.n_completed} of {self.n_planned} "
            f"nodes completed; lost {failed}"
        )


@dataclass
class CampaignResult:
    """Everything a simulated study produced."""

    config: CampaignConfig
    registry: ClusterRegistry
    tracks: dict[str, SessionTrack]
    archive: ColumnarArchive
    n_observations: int
    _frames: dict = field(default_factory=dict, repr=False)
    #: Execution counters of the run that produced this result (None for
    #: results reloaded from disk or from the campaign cache).
    metrics: CampaignMetrics | None = field(default=None, repr=False)
    #: Dead-blade accounting: set when nodes exhausted their retry budget
    #: and the campaign completed over the surviving population (None for
    #: a fully healthy run).
    degraded: DegradedResult | None = None

    # -- raw-log level -------------------------------------------------------

    def n_raw_error_lines(self) -> int:
        """The paper's ">25 million error logs" figure."""
        return self.archive.n_raw_error_lines()

    def raw_frame(self) -> ErrorFrame:
        """All ERROR records as an array table (pre-extraction)."""
        if "raw" not in self._frames:
            self._frames["raw"] = self.archive.error_frame().sorted_by_time()
        return self._frames["raw"]

    # -- coverage level -----------------------------------------------------

    def monitored_hours_by_node(self) -> dict[str, float]:
        return {n: t.monitored_hours for n, t in self.tracks.items()}

    def terabyte_hours_by_node(self) -> dict[str, float]:
        return {n: t.terabyte_hours for n, t in self.tracks.items()}

    def total_node_hours(self) -> float:
        return float(sum(t.monitored_hours for t in self.tracks.values()))

    def total_terabyte_hours(self) -> float:
        return float(sum(t.terabyte_hours for t in self.tracks.values()))

    def daily_terabyte_hours(self) -> np.ndarray:
        out = np.zeros(self.config.n_days, dtype=np.float64)
        for track in self.tracks.values():
            out += track.daily_terabyte_hours(self.config.n_days)
        return out

    @cached_property
    def study_hours(self) -> float:
        return self.config.n_days * 24.0

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Persist the campaign (config, tracks, logs) to a directory.

        Pickle is appropriate here: the artifact is a local checkpoint of
        a deterministic simulation, not an interchange format — the log
        directory written by :meth:`ColumnarArchive.write_text_directory`
        remains the portable representation.  The archive is columnar:
        pickling a handful of NumPy arrays per node is far smaller and
        faster than pickling millions of record dataclasses.
        """
        import pickle
        from pathlib import Path

        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "config": self.config,
            "tracks": self.tracks,
            "archive": self.archive,
            "n_observations": self.n_observations,
            "degraded": self.degraded,
        }
        with open(directory / "campaign.pkl", "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path) -> "CampaignResult":
        """Reload a campaign saved with :meth:`save`."""
        import pickle
        from pathlib import Path

        from ..cluster.registry import ClusterRegistry

        with open(Path(path) / "campaign.pkl", "rb") as fh:
            payload = pickle.load(fh)
        return cls(
            config=payload["config"],
            registry=ClusterRegistry(payload["config"].topology),
            tracks=payload["tracks"],
            archive=payload["archive"],
            n_observations=payload["n_observations"],
            degraded=payload.get("degraded"),
        )


def _forced_windows(
    plans, node: str
) -> list[IdleWindow]:
    """Pinned session intervals for a node, as idle windows."""
    return [
        IdleWindow(p.pinned[0], p.pinned[1])
        for p in plans
        if p.node == node and p.pinned is not None
    ]


def _insert_pinned(
    track: SessionTrack, plans, node: str
) -> SessionTrack:
    """Append a node's pinned sessions to its stochastic track."""
    pinned = [p for p in plans if p.node == node and p.pinned is not None]
    if not pinned:
        return track
    starts = np.concatenate([track.starts, [p.pinned[0] for p in pinned]])
    ends = np.concatenate([track.ends, [p.pinned[1] for p in pinned]])
    alloc = np.concatenate(
        [track.alloc_mb, np.full(len(pinned), SCAN_TARGET_MB, dtype=np.int64)]
    )
    pattern_codes = [
        PATTERN_COUNTING if p.pattern.uses_counting_pattern else PATTERN_ALTERNATING
        for p in pinned
    ]
    pattern = np.concatenate([track.pattern, np.asarray(pattern_codes, dtype=np.int8)])
    order = np.argsort(starts, kind="stable")
    return SessionTrack(
        node=node,
        starts=starts[order],
        ends=ends[order],
        alloc_mb=alloc[order],
        pattern=pattern[order],
        n_truncated=track.n_truncated,
    )


class _CampaignContext:
    """Shared deterministic state, rebuilt identically in every process.

    Everything here is a pure function of the config: the registry, the
    scheduler (which derives per-node streams via ``fresh``), the
    temperature field, and the catalogue plan (which consumes exactly the
    ``catalogue/plan`` stream).  Worker processes rebuild it once via the
    pool initializer instead of pickling it into every task.
    """

    def __init__(self, config: CampaignConfig, materialize_lifecycle: bool = False):
        self.config = config
        self.materialize_lifecycle = materialize_lifecycle
        self.rngs = RngFactory(config.seed)
        self.registry = ClusterRegistry(config.topology)
        self.scheduler = BatchScheduler(
            self.registry,
            config.calendar,
            config.activity,
            rng_factory=self.rngs,
            n_days=config.n_days,
        )
        self.temperature = TemperatureModel(seed=config.seed)
        self.plans = plan_catalogue(config, self.rngs.get("catalogue/plan"))
        self.reserved = config.reserved_nodes()
        self.weak_by_node = {w.node: w for w in config.weak_bits}
        self.gap_hours = {
            config.degrading.node: [
                (g0 * 24.0, g1 * 24.0)
                for g0, g1 in config.degrading.monitoring_gaps
            ]
        }
        self.nodes_by_name = {
            str(node.node_id): node for node in self.registry.scanned_nodes()
        }
        self._maps: dict[str, AddressMap] = {}
        self._node_ids: dict[str, NodeId] = {}

    def address_map(self, name: str) -> AddressMap:
        amap = self._maps.get(name)
        if amap is None:
            amap = AddressMap(n_words=_FULL_WORDS, salt=stable_salt(name))
            self._maps[name] = amap
        return amap

    def node_id(self, name: str) -> NodeId:
        node_id = self._node_ids.get(name)
        if node_id is None:
            node_id = NodeId.parse(name)
            self._node_ids[name] = node_id
        return node_id

    def render(self, observations: list[Observation]) -> list[ErrorRecord]:
        """Observations -> ERROR records (addresses + temperature)."""
        records: list[ErrorRecord] = []
        for obs in observations:
            amap = self.address_map(obs.node)
            temp = self.temperature.reading(self.node_id(obs.node), obs.time_hours)
            records.append(
                ErrorRecord(
                    timestamp_hours=obs.time_hours,
                    node=obs.node,
                    virtual_address=int(amap.virtual_address(obs.word_index)),
                    physical_page=int(amap.physical_page(obs.word_index)),
                    expected=obs.expected,
                    actual=obs.actual,
                    temperature_c=temp,
                    repeat_count=obs.repeat_count,
                )
            )
        return records


@dataclass
class _NodeResult:
    """One node's finished work unit, shipped back to the parent."""

    node: str
    track: SessionTrack
    n_observations: int
    #: The unit's ERROR rows followed by its START/END rows (the latter
    #: only with ``materialize_lifecycle``), columnarized in the worker.
    #: None once the rows live in a streamed archive instead.
    columns: RecordColumns | None
    seconds: float


def _simulate_node(ctx: _CampaignContext, name: str) -> _NodeResult:
    """The embarrassingly-parallel unit: one node, end to end.

    Consumes only per-node RNG streams (``daemon/<n>``, ``bg/<n>``,
    ``weak/<n>``) plus the single-consumer ``stuck``/``degrading`` streams
    on their dedicated nodes — the same streams, in the same order, as a
    serial run, so the output is bit-identical regardless of backend.
    """
    t_begin = time.perf_counter()
    config = ctx.config
    node = ctx.nodes_by_name[name]
    rngs = ctx.rngs.spawn()

    # -- session track ------------------------------------------------------
    windows = ctx.scheduler.node_windows(node)
    windows = subtract_gaps(windows, ctx.gap_hours.get(name, []))
    pinned_intervals = [
        (w.start_hours, w.end_hours) for w in _forced_windows(ctx.plans, name)
    ]
    windows = subtract_gaps(windows, pinned_intervals)
    track = build_session_track(
        name,
        windows,
        rngs.get(f"daemon/{name}"),
        p_full_alloc=config.p_full_alloc,
        p_alloc_fail=config.p_alloc_fail,
        leak_mean_mb=config.leak_mean_mb,
        p_truncation=config.p_truncation,
        p_counting=0.0 if name in ctx.reserved else config.p_counting,
    )
    track = _insert_pinned(track, ctx.plans, name)

    # -- fault models -------------------------------------------------------
    observations: list[Observation] = []
    weak_cfg = ctx.weak_by_node.get(name)
    if track.n_sessions > 0:
        if weak_cfg is not None:
            observations.extend(
                gen_weak_bit(track, weak_cfg, rngs.get(f"weak/{name}"), config.n_days)
            )
        elif name not in ctx.reserved:
            bg = config.background
            rate = bg.rate_per_node_hour
            if node.node_id.soc == OVERHEATING_SOC:
                rate *= bg.overheating_rate_multiplier
            if rate != bg.rate_per_node_hour:
                bg = replace(bg, rate_per_node_hour=rate)
            observations.extend(gen_background(track, bg, rngs.get(f"bg/{name}")))
    if name == config.stuck.node:
        observations.extend(gen_stuck_node(track, config.stuck, rngs.get("stuck")))
    if name == config.degrading.node:
        observations.extend(
            gen_degrading(track, config.degrading, rngs.get("degrading"), config.n_days)
        )

    # -- render -------------------------------------------------------------
    records: list = ctx.render(observations)
    if ctx.materialize_lifecycle:
        node_id = ctx.node_id(name)
        for i in range(track.n_sessions):
            t0, t1 = float(track.starts[i]), float(track.ends[i])
            records.append(
                StartRecord(
                    timestamp_hours=t0,
                    node=name,
                    allocated_mb=int(track.alloc_mb[i]),
                    temperature_c=ctx.temperature.reading(node_id, t0),
                )
            )
            records.append(
                EndRecord(
                    timestamp_hours=t1,
                    node=name,
                    temperature_c=ctx.temperature.reading(node_id, t1),
                )
            )
    return _NodeResult(
        node=name,
        track=track,
        n_observations=len(observations),
        columns=RecordColumns.from_records(records),
        seconds=time.perf_counter() - t_begin,
    )


#: The context every unit runs against: installed by the pool initializer
#: in each worker process, and in the parent for the serial and thread
#: backends (so a process runs one campaign at a time).
_WORKER_CTX: _CampaignContext | None = None


def _init_worker(ctx: _CampaignContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _node_worker(name: str) -> _NodeResult:
    assert _WORKER_CTX is not None, "worker used before initialization"
    return _simulate_node(_WORKER_CTX, name)


class _MemorySink:
    """In-memory stand-in for :class:`~repro.logs.ingest.LiveArchive`.

    Takes the same ``append_batch`` commits and assembles them into a
    :class:`ColumnarArchive` whose per-node rows are in the archive's
    canonical order.
    """

    def __init__(self) -> None:
        self.batches: dict[str, RecordColumns] = {}

    @property
    def committed_batches(self) -> list[str]:
        return list(self.batches)

    def append_batch(self, batches: dict[str, RecordColumns]) -> None:
        self.batches.update(batches)

    def archive(self) -> ColumnarArchive:
        merged = RecordColumns.concat(list(self.batches.values()))
        merged = merged.take(
            canonical_sort_order(merged.t, merged.kind, group=merged.node_code)
        )
        per_node = merged.split_by_node()
        return ColumnarArchive({name: per_node[name] for name in sorted(per_node)})


def run_campaign(
    config: CampaignConfig | None = None,
    materialize_lifecycle: bool = False,
    workers: int | None = None,
    backend: str | None = None,
    *,
    retry: RetryPolicy | None = None,
    unit_timeout: float | None = None,
    chaos=None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    stream_to: str | Path | None = None,
    stream_flush_nodes: int = 64,
) -> CampaignResult:
    """Simulate the full study and return its logs and coverage.

    ``materialize_lifecycle`` additionally writes START/END records into
    the archive (memory-heavy at paper scale; useful for round-trip tests
    on small configurations).

    Every run is one pipeline.  The per-node units fan out through
    :func:`repro.parallel.supervised_map` on the backend named by
    ``workers``/``backend`` (overriding the config's execution fields);
    each unit returns its rows already columnarized.  Finished units are
    committed to a sink as named batches (``unit:<node>``, then
    ``catalogue``), and the sink becomes :attr:`CampaignResult.archive`,
    always a :class:`ColumnarArchive`.  Results are bit-identical across
    backends for the same seed.

    ``stream_to`` makes the sink a live columnar archive on disk
    (:class:`repro.logs.ingest.LiveArchive`): every ``stream_flush_nodes``
    finished units are committed as one level-0 segment and dropped from
    parent RAM, and the result carries a lazily-loaded archive over that
    directory.  Without it the sink is held in memory and assembled into
    the archive at the end.

    Fault tolerance:

    * ``retry`` re-runs a failed node within its budget — per-node RNG
      streams are pure functions of ``(seed, key)`` and units are
      side-effect-free, so retries never change results;
    * ``unit_timeout`` is the per-node watchdog (process backend);
    * ``checkpoint_dir`` journals each completed node durably, and
      ``resume=True`` restores completed nodes from a prior interrupted
      run of the *same* configuration instead of recomputing them.  A
      unit is journaled only after its rows are committed to the sink,
      and the sink's batch ledger drops any unit replayed after a
      crash, so a streamed resume is exactly-once;
    * ``chaos`` (a :class:`repro.chaos.ChaosPlan`) injects deterministic
      failures for testing.

    A run given any of ``retry``/``unit_timeout``/``chaos``/
    ``checkpoint_dir``/``stream_to`` reports nodes that exhaust their
    budget in :attr:`CampaignResult.degraded` (the paper's dead-blade
    accounting) instead of raising; a run given none of them raises
    :class:`SimulationError` when a unit fails.
    """
    t_begin = time.perf_counter()
    config = config or paper_campaign_config()
    config.validate()
    n_workers = resolve_workers(workers if workers is not None else config.workers)
    exec_backend = resolve_backend(
        backend if backend is not None else config.backend, n_workers
    )

    ctx = _CampaignContext(config, materialize_lifecycle)
    names = list(ctx.nodes_by_name)
    degrade = (
        retry is not None
        or unit_timeout is not None
        or chaos is not None
        or checkpoint_dir is not None
        or stream_to is not None
    )

    journal = None
    journaled: dict[str, _NodeResult] = {}
    if checkpoint_dir is not None:
        from ..cache import CampaignJournal, config_digest

        journal = CampaignJournal(checkpoint_dir, config_digest(config))
        known = set(names)
        journaled = {
            node: value
            for node, value in journal.open(resume=resume).items()
            if node in known
        }
    remaining = [name for name in names if name not in journaled]

    if stream_to is not None:
        from ..logs.ingest import LiveArchive

        sink = LiveArchive.create(stream_to)
        flush_every = max(1, int(stream_flush_nodes))
    elif any(value.columns is None for value in journaled.values()):
        if journal is not None:
            journal.close()
        raise CheckpointError(
            "checkpoint journal holds streamed units whose records "
            "live in their archive, not the journal: pass the same "
            "stream_to= directory to resume this campaign"
        )
    else:
        sink = _MemorySink()
        flush_every = 1

    def commit(units: list[tuple[str, _NodeResult]]) -> None:
        if not units:
            return
        sink.append_batch({f"unit:{key}": value.columns for key, value in units})
        if stream_to is not None:
            # The rows are durable in the archive: drop them from RAM
            # (and from the journal entries written next).
            for _key, value in units:
                value.columns = None

    # Units journaled with their rows (by a run without stream_to)
    # commit as one backlog batch; the ledger drops any already held.
    commit([(n, v) for n, v in journaled.items() if v.columns is not None])

    window: list[tuple[str, _NodeResult]] = []

    def flush() -> None:
        commit(window)
        # Journal only after the rows are committed (journaled =>
        # committed).  A crash between the two re-runs the unit on
        # resume, and the ledger drops its replayed rows.
        if journal is not None:
            for key, value in window:
                journal.append(key, value)
        window.clear()

    def on_result(_i, key, value) -> None:
        window.append((key, value))
        if len(window) >= flush_every:
            flush()

    try:
        outcome = supervised_map(
            _node_worker,
            remaining,
            keys=remaining,
            backend=exec_backend,
            workers=n_workers,
            initializer=_init_worker,
            initargs=(ctx,),
            retry=retry,
            unit_timeout=unit_timeout,
            chaos=chaos,
            on_unit_result=on_result,
        )
        flush()  # tail window, while the journal is open
    finally:
        if journal is not None:
            journal.close()

    degraded: DegradedResult | None = None
    if outcome.failures:
        if not degrade:
            first = outcome.failures[0]
            raise SimulationError(
                f"campaign unit {first.key} failed: {first.error}"
            )
        degraded = DegradedResult(
            nodes=tuple(
                DegradedNode(
                    node=f.key, attempts=f.attempts, kind=f.kind, error=f.error
                )
                for f in outcome.failures
            ),
            n_planned=len(names),
        )

    by_name = dict(journaled)
    for name, value in zip(remaining, outcome.values):
        if value is not None:
            by_name[name] = value
    results = [by_name[name] for name in names if name in by_name]
    tracks = {result.node: result.track for result in results}
    n_observations = sum(result.n_observations for result in results)

    # -- sequential phase: catalogue resolution + archive assembly ---------
    # resolve_catalogue skips plans whose node has no track, so a
    # degraded population degrades the catalogue the same way the paper's
    # dead blades shrank its Table I population.
    catalogue_obs = resolve_catalogue(
        ctx.plans, tracks, config, ctx.rngs.get("catalogue/resolve")
    )
    n_observations += len(catalogue_obs)
    sink.append_batch(
        {"catalogue": RecordColumns.from_records(ctx.render(catalogue_obs))}
    )
    ledger = set(sink.committed_batches)
    missing = sorted(name for name in tracks if f"unit:{name}" not in ledger)
    if missing:
        raise CheckpointError(
            f"streamed archive {stream_to} is missing "
            f"{len(missing)} committed units (e.g. {missing[:3]}); "
            "the stream and journal have diverged"
        )
    if stream_to is not None:
        archive = ColumnarArchive.load(stream_to, lazy=True)
    else:
        archive = sink.archive()

    wall = time.perf_counter() - t_begin
    node_seconds = {result.node: result.seconds for result in results}
    metrics = CampaignMetrics(
        backend=exec_backend,
        workers=n_workers,
        wall_seconds=wall,
        simulate_seconds=float(sum(node_seconds.values())),
        n_records=archive.n_records(),
        n_observations=n_observations,
        n_nodes=len(names),
        node_seconds=node_seconds,
        n_retries=outcome.n_retries,
        n_timeouts=outcome.n_timeouts,
        n_pool_rebuilds=outcome.n_pool_rebuilds,
        n_resumed=len(journaled),
        n_degraded=0 if degraded is None else degraded.n_failed,
    )

    return CampaignResult(
        config=config,
        registry=ctx.registry,
        tracks=tracks,
        archive=archive,
        n_observations=n_observations,
        metrics=metrics,
        degraded=degraded,
    )
