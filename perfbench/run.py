"""Entry point of the vslct benchmark; run from the repository root:

    python3 perfbench/run.py --workload sweep-directional --seed 0 --seconds 25 --trace 0

It pins OpenBLAS to one thread before numpy loads, puts this checkout's
src/ first on the import path, and hands over to bench.main.  The last
line of standard output is the JSON result.
"""

import os
import sys

if "numpy" in sys.modules:
    sys.exit("perfbench: numpy was imported before OPENBLAS_NUM_THREADS was set; refusing to run")
# One BLAS thread: a second one makes the 128-row training step slower, and
# on a shared 2-core machine one busy core leaves room for the rest.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "vslct", "__init__.py")):
    sys.exit(f"perfbench: no vslct sources under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import vslct  # noqa: E402

if os.path.dirname(os.path.abspath(vslct.__file__)) != os.path.join(SRC, "vslct"):
    sys.exit(f"perfbench: imported vslct from {vslct.__file__}, not from {SRC}")

import bench  # noqa: E402

if __name__ == "__main__":
    sys.exit(bench.main(sys.argv[1:]))
