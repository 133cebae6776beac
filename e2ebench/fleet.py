"""Seeded inputs for the ``fleet_live`` workload.

Everything here is a pure function of the seed and uses NumPy only: the
fleet's rows, the re-send and compaction schedules and the request mix
are made by the benchmark, never by the code under test.  The program
receives only the generated rows and plans.

The fleet mirrors the paper's shape: 945 nodes scanned for 425 days,
where two nodes hold ~91% of all errors (one degrading node ramping up
late in the study, one stuck node erupting in bursts) and a heavy-tailed
background covers 80 more; the other nodes report no errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_NODES = 945
N_DAYS = 425
#: Errors on the degrading node, the stuck node and the background.
HOT_ERRORS = (27_000, 14_000)
BACKGROUND_ERRORS = 4_050
BACKGROUND_NODES = 80
#: Every RESEND_EVERY-th commit also re-sends the previous day's batch.
RESEND_EVERY = 7
#: A compaction runs after every COMPACT_EVERY-th commit and at the end.
COMPACT_EVERY = 25
#: Requests per commit: the dashboard panel polled PANEL_POLLS times,
#: plus one ad-hoc request.
PANEL_POLLS = 5
#: Every PROBE_EVERY-th archive state, each distinct answer is also
#: computed by a local QueryEngine over the same archive and compared.
PROBE_EVERY = 5
NODE_ERRORS_LIMIT = 50
#: Width of the ad-hoc range scan's time window.
SCAN_HOURS = 7 * 24.0


def node_names() -> list[str]:
    """Cabinet-slot names in the paper's ``CC-SS`` style."""
    return [f"{i // 16:02d}-{i % 16:02d}" for i in range(N_NODES)]


@dataclass(frozen=True)
class Fleet:
    """All error rows of one study, sorted by day, as plain arrays."""

    names: list[str]
    day: np.ndarray
    node: np.ndarray  # index into ``names``
    t: np.ndarray
    va: np.ndarray
    pp: np.ndarray
    expected: np.ndarray
    actual: np.ndarray
    temp: np.ndarray
    rep: np.ndarray
    hot: tuple[int, int]

    def __len__(self) -> int:
        return int(self.day.shape[0])

    def day_slices(self) -> list[slice]:
        """Row range of each day (rows are sorted by day)."""
        bounds = np.searchsorted(self.day, np.arange(N_DAYS + 1))
        return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def _spread_counts(total: int, weights: np.ndarray) -> np.ndarray:
    """``total`` split in proportion to ``weights``, in whole rows."""
    edges = np.round(np.cumsum(weights) / weights.sum() * total).astype(np.int64)
    return np.diff(np.concatenate([[0], edges]))


def make_fleet(seed: int) -> Fleet:
    """The study's error rows.

    How many rows land on each node and day is the same for every seed,
    so every seed asks the program for the same amount of work; the seed
    picks which nodes play which role, the background days, and every
    row's time, word, bit pattern and temperature.
    """
    rng = np.random.default_rng([seed, 945])
    roles = rng.permutation(N_NODES)
    hot = (int(roles[0]), int(roles[1]))
    background = roles[2 : 2 + BACKGROUND_NODES]

    days = np.arange(N_DAYS)
    # Degrading node: silent until day 150, then a quadratic ramp.
    ramp = np.clip(days - 150.0, 0.0, None) ** 2
    # Stuck node: a dozen eruptions, one every five weeks.
    bursts = np.where(days % 35 == 20, 1.0, 0.0)
    # Background: Zipf-ranked node totals, each row on a random day.
    zipf = 1.0 / np.arange(1, BACKGROUND_NODES + 1) ** 1.5
    per_node = _spread_counts(BACKGROUND_ERRORS, zipf)

    node = np.concatenate([
        np.full(HOT_ERRORS[0], hot[0]),
        np.full(HOT_ERRORS[1], hot[1]),
        np.repeat(background, per_node),
    ])
    day = np.concatenate([
        np.repeat(days, _spread_counts(HOT_ERRORS[0], ramp)),
        np.repeat(days, _spread_counts(HOT_ERRORS[1], bursts)),
        rng.integers(0, N_DAYS, size=BACKGROUND_ERRORS),
    ])
    n = node.size
    order = np.lexsort((node, day))
    node, day = node[order], day[order]

    t = day * 24.0 + rng.uniform(0.0, 24.0, n)
    word = rng.integers(0, 1 << 28, n)
    expected = rng.choice(np.array([0, 0xFFFFFFFF, 0x55555555, 0xAAAAAAAA], dtype=np.uint64), n)
    bit = rng.integers(0, 32, n).astype(np.uint64)
    flips = np.left_shift(np.uint64(1), bit)
    double = rng.random(n) < 0.01
    flips[double] |= np.left_shift(np.uint64(1), (bit[double] + np.uint64(1)) % np.uint64(32))
    temp = rng.uniform(25.0, 60.0, n)
    temp[rng.random(n) < 0.02] = np.nan
    return Fleet(
        names=node_names(),
        day=day,
        node=node.astype(np.int32),
        t=t,
        va=(word * 4).astype(np.int64),
        pp=(word // 1024).astype(np.int64),
        expected=expected.astype(np.uint32),
        actual=(expected ^ flips).astype(np.uint32),
        temp=temp,
        rep=(1 + rng.geometric(0.5, n)).astype(np.int64),
        hot=hot,
    )


def panel(fleet: Fleet) -> dict:
    """The dashboard panel: the two hot nodes' daily error counts."""
    return {
        "filters": [{"column": "kind", "op": "eq", "value": 1}],
        "derive": [{"name": "day", "fn": "day", "args": {"n_days": N_DAYS}}],
        "group_by": ["node", "day"],
        "aggregates": [{"fn": "count", "alias": "n"}],
        "nodes": sorted(fleet.names[i] for i in fleet.hot),
    }


def resend_days(n_days: int = N_DAYS) -> list[int]:
    """Days whose commit also carries the previous day's batch again."""
    return [d for d in range(1, n_days) if d % RESEND_EVERY == 0]


def compaction_days() -> list[int]:
    """Days after whose commit a compaction runs (always the last day)."""
    return [d for d in range(N_DAYS) if (d + 1) % COMPACT_EVERY == 0 or d == N_DAYS - 1]


def node_errors(name: str) -> dict:
    """One node's error list, as the plan ``GET /nodes/<id>/errors`` runs."""
    return {
        "filters": [
            {"column": "kind", "op": "eq", "value": 1},
            {"column": "node", "op": "eq", "value": name},
        ],
        "derive": [{"name": "n_bits", "fn": "n_bits"}],
        "project": ["t", "expected", "actual", "va", "pp", "temp", "rep", "n_bits"],
        "order_by": ["t"],
        "limit": NODE_ERRORS_LIMIT,
        "nodes": [name],
    }


def request_mix(fleet: Fleet, seed: int) -> list[list[dict]]:
    """Per commit, the ``/query`` plans the dashboard client sends after it.

    The panel is polled PANEL_POLLS times per archive state, so all polls
    but the first are served from the result cache.  One ad-hoc request
    misses it: on even days a random-window range scan over the fleet, on
    odd days the error list of a node drawn from every node committed so
    far, that day's commit included.
    """
    rng = np.random.default_rng([seed, 425])
    slices = fleet.day_slices()
    dashboard = panel(fleet)
    committed: dict[int, None] = {}
    mix = []
    for d in range(N_DAYS):
        committed.update(dict.fromkeys(np.unique(fleet.node[slices[d]]).tolist()))
        lo = float(rng.uniform(0.0, (d + 1) * 24.0))
        hi = lo + SCAN_HOURS
        scan = {
            "filters": [
                {"column": "kind", "op": "eq", "value": 1},
                {"column": "t", "op": "ge", "value": lo},
                {"column": "t", "op": "lt", "value": hi},
            ],
            "aggregates": [
                {"fn": "count", "alias": "n"},
                {"fn": "sum", "column": "rep", "alias": "raw_lines"},
            ],
        }
        known = list(committed)
        adhoc = scan if d % 2 == 0 or not known else node_errors(
            fleet.names[known[int(rng.integers(len(known)))]]
        )
        requests = [dashboard] * PANEL_POLLS + [adhoc]
        mix.append([requests[i] for i in rng.permutation(len(requests))])
    return mix
