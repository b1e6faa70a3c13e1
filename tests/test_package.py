"""The package root exports exactly what README's library example imports."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_import_line_runs():
    with open(README, encoding="utf-8") as fh:
        statement = re.search(r"^from vslct import \([^)]*\)", fh.read(), re.MULTILINE).group(0)
    namespace = {}
    exec(statement, namespace)
    assert "train_lct" in namespace and "roc_curve" in namespace
