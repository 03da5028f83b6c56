"""One timed set-up of a workload's inputs, run as a fresh process.

    python3 bench/setup_inputs.py SPECS_JSON OUT_DIR

SPECS_JSON is a JSON list of ``SynthSpec`` keyword arguments. The script times
a cold ``import mirnet`` from this checkout's ``src/``, the generation of each
price table and its write to ``OUT_DIR/table<k>.csv``, and prints the timings
as one JSON line. A fresh process is what makes the import cold.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import common


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    specs = json.loads(argv[1])
    out_dir = Path(argv[2])
    common.pin_blas_threads()
    common.add_src_path()

    t0 = time.perf_counter()
    import mirnet

    t1 = time.perf_counter()
    common.check_mirnet_origin(mirnet)
    texts = [mirnet.generate_price_table(mirnet.SynthSpec(**spec)) for spec in specs]
    t2 = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, text in enumerate(texts):
        (out_dir / f"table{k}.csv").write_text(text)
    t3 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "generate_s": t2 - t1,
        "write_s": t3 - t2,
        "total_s": t3 - t0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
