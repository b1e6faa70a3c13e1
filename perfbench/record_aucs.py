"""Record each workload's auc_mean for a range of seeds, at full size.

    python3 perfbench/record_aucs.py 0 50 > perfbench/reference_aucs.json

A run on a seed of the table fails unless its auc_mean lies within
checks.REFERENCE_AUC_TOL of the recorded value.  Re-record only when the
benchmark's inputs change, never to make a change to vslct pass.
"""

import json
import os
import shutil
import sys

import run  # noqa: F401  (pins the BLAS threads and puts src/ on the path)
import spans
import workloads


def auc_mean(name: str, seed: int) -> float:
    """The auc_mean of one untraced run: setup, then every op of the cycle once."""
    workload = workloads.WORKLOADS[name]()
    work_dir = os.path.join(run.ROOT, ".perfbench_work", f"record-{name}-{seed}-{os.getpid()}")
    try:
        with spans.Recorder(trace=False, hooks=workload.hooks()).installed("record"):
            errors = workload.setup(work_dir, workloads.derive_seeds(seed), workloads.FULL)
            for op in workload.ops():
                errors += workload.check_op(op, workload.run_op(op)[2])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if errors:
        raise RuntimeError(f"{name} seed {seed}: {errors}")
    return workload.auc_mean()


def main(first: int, stop: int) -> None:
    table = {name: {str(seed): auc_mean(name, seed).hex() for seed in range(first, stop)} for name in workloads.WORKLOADS}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
