"""Tests for the benchmark's own helpers.

    python3 -m pytest e2ebench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fleet
import stats
import tracing
from worker import commit_plan, day_batches

BENCH = Path(__file__).resolve().parents[1]


# -- the percentile rule -----------------------------------------------------


def test_highest_percentile_keeps_ten_samples_beyond():
    assert stats.highest_percentile(1000) == pytest.approx(99.0)
    assert stats.highest_percentile(425) == pytest.approx(100 * (1 - 10 / 425))
    assert stats.highest_percentile(10) == 0.0


def test_percentile_refuses_what_the_sample_cannot_support():
    assert stats.percentile(list(range(1000)), 99) == pytest.approx(
        np.percentile(np.arange(1000), 99)
    )
    with pytest.raises(ValueError):
        stats.percentile(list(range(999)), 99)
    assert stats.percentile(list(range(425)), 95) == pytest.approx(
        np.percentile(np.arange(425), 95)
    )
    with pytest.raises(ValueError):
        stats.percentile(list(range(425)), 98)
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)


def test_spread_matches_statistics_quantiles():
    s = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.75, 5.5, 8.25)
    assert s["iqr_over_median"] == pytest.approx(5.5 / 5.5)


# -- self time on nested spans -----------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_self_time_subtracts_children_and_aggregated_sites(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock.perf_counter)
    t = tracing.Tracer()

    class Sensor:
        def reading(self):
            clock.now += 2.0  # a per-record call site, aggregated

    t.wrap(Sensor, "reading", "sensor", aggregate=True)
    with t.span("outer"):
        clock.now = 1.0
        with t.span("a"):
            clock.now = 4.0
        clock.now = 5.0
        with t.span("b"):
            clock.now = 5.2
            with t.span("c"):
                clock.now = 5.8
            clock.now = 6.0
        Sensor().reading()  # 6.0 -> 8.0
        clock.now = 10.0
    t.unwrap()

    assert t.total("outer") == pytest.approx(10.0)
    assert t.self_time("outer") == pytest.approx(10.0 - 3.0 - 1.0 - 2.0)
    assert t.self_time("b") == pytest.approx(1.0 - 0.6)
    assert t.self_time("c") == pytest.approx(0.6)
    assert (t.calls("sensor"), t.total("sensor")) == (1, pytest.approx(2.0))
    assert t.coverage([(0.0, 20.0)]) == pytest.approx(0.5)
    assert "reading" in Sensor.__dict__ and not hasattr(Sensor.reading, "__wrapped__")


# -- the fleet generator -----------------------------------------------------


def _arrays(f: fleet.Fleet) -> list[np.ndarray]:
    return [f.day, f.node, f.t, f.va, f.pp, f.expected, f.actual, f.temp, f.rep]


def test_fleet_is_a_pure_function_of_the_seed():
    a, b, c = fleet.make_fleet(7), fleet.make_fleet(7), fleet.make_fleet(8)
    for x, y in zip(_arrays(a), _arrays(b)):
        np.testing.assert_array_equal(x, y)
    assert a.hot == b.hot
    assert fleet.request_mix(a, 7) == fleet.request_mix(b, 7)
    assert any(
        x.shape != z.shape or not np.array_equal(x, z, equal_nan=True)
        for x, z in zip(_arrays(a), _arrays(c))
    )
    assert fleet.request_mix(a, 7) != fleet.request_mix(c, 8)


def test_fleet_has_the_papers_concentration_and_fixed_volume():
    for seed in (1, 2):
        f = fleet.make_fleet(seed)
        assert len(f) == sum(fleet.HOT_ERRORS) + fleet.BACKGROUND_ERRORS
        share = np.isin(f.node, f.hot).mean()
        assert 0.90 < share < 0.92
        assert np.all(np.diff(f.day) >= 0) and f.day.max() < fleet.N_DAYS


def test_node_lookups_draw_from_every_committed_node_today_included():
    f = fleet.make_fleet(1)
    slices = f.day_slices()
    first_day = {}
    for d, rows in enumerate(slices):
        for i in np.unique(f.node[rows]).tolist():
            first_day.setdefault(f.names[i], d)
    lookups = [
        (d, plan["nodes"][0])
        for d, requests in enumerate(fleet.request_mix(f, 1))
        for plan in requests if "project" in plan
    ]
    assert len(lookups) >= fleet.N_DAYS // 2 - 1
    assert all(first_day[name] <= d for d, name in lookups)
    assert any(first_day[name] == d for d, name in lookups)


# -- the re-send schedule against the ledger ---------------------------------


def test_resend_schedule_matches_ledger_drops(tmp_path):
    from repro.logs.ingest import LiveArchive

    n_days = 30
    batches = day_batches(fleet.make_fleet(3))[:n_days]
    resend = set(fleet.resend_days(n_days))
    assert sorted(resend) == [7, 14, 21, 28]
    archive = LiveArchive.create(tmp_path / "archive")
    dropped = 0
    for day in range(n_days):
        report = archive.append_batch(commit_plan(batches, day, resend))
        assert report.committed == [batches[day][0]]
        dropped += len(report.deduplicated)
    assert dropped == len(resend)
    assert len(archive.committed_batches) == n_days


# -- the command itself ------------------------------------------------------


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "verify_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
