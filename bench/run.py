"""Benchmark entry point: one workload, one seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a full checkout; the benchmark imports mirnet from
the checkout's ``src/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details, and the spans of a traced run, go to ``bench/_results/``.
"""

from __future__ import annotations

import argparse
import json
import sys

import common
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.pin_blas_threads()
    try:
        common.add_src_path()
        import mirnet

        common.check_mirnet_origin(mirnet)
    except (common.SetupError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    # numpy is imported only now, after the BLAS thread count is fixed
    import harness

    result = harness.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    path = harness.write_results(result)
    for line in harness.summary_lines(result):
        print(line)
    print(f"  details in {path.relative_to(common.ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
