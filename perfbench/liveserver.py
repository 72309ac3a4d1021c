"""The live cluster the live workload measures, run as its own process.

Started by ``livebench.py`` (never by hand) so that the load generator
and the front-end do not share one interpreter.  It writes the trace's
file set once, then boots a 4-node LARD cluster on it (front-end and
engine here, back-ends as worker processes) ``BOOTS`` times in a row,
timing each boot between two spawn probes (``calibrate.py``) and
keeping the last cluster up.  Then it speaks a line protocol with its
parent:

* it prints ``{"port": ..., "boot_s": [...]}`` once the front-end
  listens;
* on the line ``reset`` it zeroes every meter (engine, front-end,
  back-ends), starts the profiler if ``--profile 1``, and answers ``ok``;
* on the line ``cal`` it times the calibration loop (``calibrate.py``)
  and answers with the seconds it took;
* at end of input it stops the profiler, collects the engine's and the
  back-ends' books, shuts the cluster down and prints them as one JSON
  line.

SIGTERM also ends the input, so the cluster is always shut down cleanly.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import (  # noqa: E402
    SPAWN_REFERENCE_S,
    calibrate,
    calibrate_spawn,
    normalize,
)
from layers import callbacks, layer_metrics  # noqa: E402

POLICY = "lard"
TRACE = "calgary"
NODES = 4
#: Trace length; the client warms with one pass and then cycles it.
REQUESTS = 2_000
#: Cluster boots timed per run; ``setup_s`` is their median.
BOOTS = 7


async def serve(args: argparse.Namespace) -> dict:
    from repro.live import LiveCluster, LiveClusterConfig
    from repro.live.fileset import materialize_fileset
    from repro.servers import make_policy
    from repro.workload import synthesize

    trace = synthesize(TRACE, num_requests=REQUESTS, seed=args.seed)
    # Writing files is disk I/O, which no probe tracks; every boot
    # finds them written and only checks them.
    root = Path(args.root)
    materialize_fileset(trace, root)
    boot_s = []
    cluster = None
    for _ in range(BOOTS):
        if cluster is not None:
            await cluster.stop()
        before = calibrate_spawn()
        t0 = time.perf_counter()
        cluster = LiveCluster(
            make_policy(POLICY), trace, LiveClusterConfig(nodes=NODES, root=root)
        )
        await cluster.start()
        elapsed = time.perf_counter() - t0
        boot_s.append(
            normalize(elapsed, before, calibrate_spawn(), SPAWN_REFERENCE_S)
        )

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    loop.add_signal_handler(signal.SIGTERM, commands.feed_eof)
    profile = cProfile.Profile() if args.profile else None
    try:
        print(json.dumps({"port": cluster.frontend_port, "boot_s": boot_s}), flush=True)
        while True:
            line = await commands.readline()
            if not line:
                break
            if line.strip() == b"cal":
                # Calibration is the benchmark's work, not the cluster's.
                if profile is not None:
                    profile.disable()
                print(calibrate(), flush=True)
                if profile is not None:
                    profile.enable()
            elif line.strip() == b"reset":
                await cluster.reset_meters()
                if profile is not None:
                    profile.enable()
                print("ok", flush=True)
        if profile is not None:
            profile.disable()
        report = {
            "engine": cluster.engine.stats(),
            "invariants": cluster.engine.check_invariants(),
            "backends": await cluster.backend_stats(),
            "frontend": {
                "requests": cluster.frontend.requests,
                "completed": cluster.frontend.completed,
                "failed": cluster.frontend.failed,
                "handoffs": cluster.frontend.handoffs,
            },
        }
    finally:
        await cluster.stop()
    if profile is not None:
        requests = report["frontend"]["requests"]
        report["layers"] = layer_metrics(profile, requests)
        report["layers"]["events_per_request"] = (
            callbacks(profile) / requests, "count"
        )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True, help="directory for the file set")
    parser.add_argument("--profile", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    report = asyncio.run(serve(args))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
