"""The package root exports exactly what README's library example imports, and needs only numpy."""

import os
import re
import subprocess
import sys

import numpy as np

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_import_line_runs():
    with open(README, encoding="utf-8") as fh:
        statement = re.search(r"^from vslct import \([^)]*\)", fh.read(), re.MULTILINE).group(0)
    namespace = {}
    exec(statement, namespace)
    assert "train_lct" in namespace and "roc_curve" in namespace


IMPORT_ALL = """
import importlib, pkgutil, sys
import vslct
for info in pkgutil.iter_modules(vslct.__path__):
    importlib.import_module("vslct." + info.name)
print(" ".join(sorted({name.split(".")[0] for name in sys.modules} - set(sys.stdlib_module_names) - {"__main__"})))
"""


def test_numpy_is_the_only_runtime_dependency():
    # -S: no site hooks, so nothing third-party is loaded before vslct; numpy's own directory stays on the path
    paths = [os.path.join(os.path.dirname(__file__), os.pardir, "src"), os.path.dirname(os.path.dirname(np.__file__))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-S", "-c", IMPORT_ALL], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["numpy", "vslct"]
