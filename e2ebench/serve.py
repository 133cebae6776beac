"""The telemetry server child of the ``fleet_live`` workload.

    python3 e2ebench/serve.py --archive DIR [--trace]

Serves ``DIR`` with :class:`repro.server.app.TelemetryServer` on an
ephemeral port and prints ``READY {"port": ...}``.  Closing its stdin
stops it; it then prints ``STATS <json>`` (peak RSS and, with
``--trace``, what ``QueryEngine.execute`` did) and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time

from stats import vmhwm_mb


class ExecuteCounter:
    """Wraps ``QueryEngine.execute`` to sum its time and work.

    Executions run on the server's thread pool, so the sums are updated
    under a lock.
    """

    def __init__(self, engine_cls):
        self.stats = {"execute_s": 0.0, "execute_calls": 0, "cache_hits": 0,
                      "shards_scanned": 0, "rows_scanned": 0, "rows_output": 0}
        self._lock = threading.Lock()
        original = engine_cls.execute

        def execute(engine, plan, **kwargs):
            start = time.perf_counter()
            result = original(engine, plan, **kwargs)
            elapsed = time.perf_counter() - start
            with self._lock:
                s = self.stats
                s["execute_s"] += elapsed
                s["execute_calls"] += 1
                if result.stats.cache_hit:
                    s["cache_hits"] += 1
                else:
                    s["shards_scanned"] += result.stats.shards_scanned
                    s["rows_scanned"] += result.stats.rows_scanned
                    s["rows_output"] += result.stats.rows_output
            return result

        engine_cls.execute = execute


async def serve(args) -> dict:
    from repro.query.engine import QueryEngine
    from repro.server.app import TelemetryServer

    counter = ExecuteCounter(QueryEngine) if args.trace else None
    # One closed-loop client on one connection for the whole run: lift
    # the per-connection request cap and the idle timeout that would
    # otherwise close it between commits.
    server = TelemetryServer(
        args.archive,
        keepalive_max_requests=1 << 30,
        keepalive_idle_timeout_s=600.0,
    )
    await server.start()
    print("READY " + json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)
    await server.stop()
    stats = {"peak_rss_mb": vmhwm_mb()}
    if counter is not None:
        stats.update(counter.stats)
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--archive", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    stats = asyncio.run(serve(args))
    print("STATS " + json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
