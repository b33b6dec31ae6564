#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last output line.

Usage, from the repository root:

    python3 perfbench/run.py --workload migrate-corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
reports the per-layer metrics from the benchmark's wrappers.  The line
before the result is a JSON record of the host, the workload's declaration,
its work counters and its own metric names.  The exit code is 0 only when
every output matched its known answer and every work counter repeated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "cadinterop" / "__init__.py").is_file():
        print(f"error: no cadinterop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.harness import WORKLOADS, run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
