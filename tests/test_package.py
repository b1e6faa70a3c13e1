"""The package root exports exactly what README's library example imports and needs only numpy; the suite reports failures."""

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


FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_small(n):
    assert n < 5
"""


def test_failing_hypothesis_test_is_reported_under_the_suite_settings(tmp_path):
    # the suite turns warnings into errors; hypothesis's report hook must not turn a failure into INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    argv = [sys.executable, "-m", "pytest", "-c", pyproject, "-p", "no:cacheprovider", "test_property.py"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "FAILED" in output and "Falsifying example" in output
    assert "INTERNALERROR" not in output
