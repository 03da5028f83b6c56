"""Write the committed output reference of each workload at the default seed.

    python3 bench/make_reference.py [WORKLOAD ...]

With no names, every workload is written. The run checks the invariants
first and writes nothing if any fails. Regenerate a reference only when a
change to the pipeline's outputs is intended, and say so where it is made.
"""

from __future__ import annotations

import json
import shutil
import sys

import common


def main(argv: list[str]) -> int:
    common.pin_blas_threads()
    common.add_src_path()
    import mirnet
    from check import combo_names, invariant_problems, read_combination, summarize
    from workloads import DEFAULT_SEED, WORKLOADS

    common.check_mirnet_origin(mirnet)
    for name in argv[1:] or list(WORKLOADS):
        workload = WORKLOADS[name]
        work = common.WORK_DIR / "reference" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        tables = []
        for k, spec in enumerate(workload.synth_specs(DEFAULT_SEED)):
            table = work / f"table{k}.csv"
            table.write_text(mirnet.generate_price_table(mirnet.SynthSpec(**spec)))
            cfg = workload.pipeline_config(table, work / f"out{k}")
            manifest = mirnet.run_pipeline(cfg)
            summaries = {}
            for combo in combo_names(cfg):
                if manifest["combinations"][combo]["status"] != "ok":
                    print(f"{name} table {k}: {combo} failed", file=sys.stderr)
                    return 1
                out = read_combination(work / f"out{k}", combo, cfg.graph_kinds)
                problems = invariant_problems(combo, out)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                comparisons = [c for c in manifest["comparisons"] if c["variant"] == combo]
                summaries[combo] = summarize(out, comparisons)
            tables.append(summaries)
        doc = {
            "workload": name,
            "seed": DEFAULT_SEED,
            "shape": workload.shape(),
            "tables": tables,
        }
        path = common.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(common.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
