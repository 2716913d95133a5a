"""Record the reference summary values that ``run.py`` compares against.

Runs every workload once per master seed (``run.REFERENCE_SEEDS`` of them),
applies the reference-free checks, and writes ``perfbench/references.json``.
Rerun it only when a change is meant to alter the numerical results:

    python3 perfbench/record_references.py
"""

import json
import sys

import run


def main() -> int:
    workloads = {}
    for workload in run.WORKLOADS.values():
        work = run.WORK / "references" / workload.name
        work.mkdir(parents=True, exist_ok=True)
        values = {}
        for master_seed in range(run.REFERENCE_SEEDS):
            ops = run.Operations(workload, None, work)
            ops.run(master_seed)
            if ops.failed:
                print("\n".join(ops.failures), file=sys.stderr)
                return 1
            files = run.read_outputs(ops.out)
            values[str(master_seed)] = run.summary_values(workload, files)
        workloads[workload.name] = values
        print(f"recorded {workload.name}", flush=True)
    payload = {
        "git_commit": run.git_commit(),
        "source_sha256": run.source_digest(),
        "workloads": workloads,
    }
    with open(run.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
