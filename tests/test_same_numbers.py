"""The numbers of a short, fixed experiment, pinned for the environment they were recorded on.

tests/same_numbers.txt holds one JSON line naming that environment (numpy
version, BLAS name and version, CPU model and the BLAS thread setting),
then what `OPENBLAS_NUM_THREADS=1 python3 tools/same_numbers.py` printed
there: a digest of every sweep row, of summary.json, roc.csv and
report.json, of both checkpoints, of the large-set scores and of their
ROC curve.  Trained bits depend on numpy's build and the CPU as well as
on the code, so elsewhere the test skips, naming the fields that differ.

A change that moves numbers on purpose rewrites the file in the same
commit with `PYTHONPATH=src python3 tests/test_same_numbers.py`, which
prints how many recorded lines changed and the label of each (such as
`row lct-hb0.0-w0.5-s0`), and its change log names those lines and why
they moved.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "tests", "same_numbers.txt")
BLAS_THREADS = "1"


def environment() -> dict:
    """What, besides the code, decides the bits the tool prints."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"), "cpu_model": cpu_model, "OPENBLAS_NUM_THREADS": BLAS_THREADS}


def same_numbers() -> str:
    """The output of tools/same_numbers.py, run in a fresh process at one BLAS thread."""
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "same_numbers.py")],
        env={**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_fixed_experiment_prints_the_recorded_numbers():
    with open(RECORD, "r", encoding="utf-8") as fh:
        recorded_env, *recorded = fh.read().splitlines()
    recorded_env, env = json.loads(recorded_env), environment()
    differing = sorted(key for key in recorded_env.keys() | env.keys() if recorded_env.get(key) != env.get(key))
    if differing:
        pytest.skip(f"{RECORD} was recorded on another environment; differing: " + "; ".join(f"{k} recorded {recorded_env.get(k)!r}, here {env.get(k)!r}" for k in differing))
    assert same_numbers().splitlines() == recorded


if __name__ == "__main__":
    with open(RECORD, "r", encoding="utf-8") as fh:
        before = set(fh.read().splitlines()[1:])
    output = same_numbers()
    with open(RECORD, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(environment()) + "\n" + output)
    # a line is "<digest>  <label>"; it changed if the old file does not hold it
    changed = [line.split("  ", 1)[1] for line in output.splitlines() if line not in before]
    print(f"wrote {RECORD}: {len(output.splitlines())} lines under the environment line, {len(changed)} of them changed")
    for label in changed:
        print(f"changed: {label}")
