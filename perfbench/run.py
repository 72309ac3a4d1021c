"""The repository's benchmark: both substrates, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sim-calgary-lard --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each is in the set):

``sim-calgary-lard``, ``sim-clarknet-l2s``, ``sim-nasa-traditional``
    The discrete-event simulator on three traffic mixes (``simbench.py``).
``live-lard``
    A 4-node LARD cluster on loopback at a fixed closed-loop load
    (``livebench.py``).

``--trace 0`` reports the end-to-end metrics: ``requests_per_s``,
``latency_p50_ms``, ``latency_p90_ms`` and ``setup_s``, as wall-clock
times scaled to a reference host speed (``calibrate.py``).  ``--trace 1``
profiles the same work and reports the per-layer metrics instead (see
``layers.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; every
line before it is a human-readable note.  The live workload's file sets
go under ``.perfbench-work/`` in the repository root, removed at the end.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench-work"

LIVE = "live-lard"


def main() -> int:
    sys.path.insert(0, str(HERE))
    import simbench

    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument(
        "--workload", required=True, choices=sorted(simbench.MIXES) + [LIVE]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == LIVE:
        import livebench

        result = livebench.run(args.seed, args.seconds, bool(args.trace), WORKDIR)
    else:
        result = simbench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
