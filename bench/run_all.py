"""Run every workload on one seed and print its metrics as one table.

    python3 bench/run_all.py --seed N --seconds S [--trace 0|1]

Each workload runs in its own ``run.py`` process, so ``peak_rss_mb`` belongs
to that workload alone. Exits non-zero if any run fails or reports an
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import common
from workloads import WORKLOADS

RUN_TIMEOUT_S = 900


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        if done.returncode != 0:
            print(f"{name}: failed\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        print(f"{name}: fail_ratio = {result['failed'] / result['attempted']:.4g} "
              f"({result['failed']} of {result['attempted']} combinations)")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
