"""The dependencies the package declares."""

import os
import re
import sys

import pytest

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def names(requirements):
    return [re.match(r"[A-Za-z0-9._-]+", r).group().lower() for r in requirements]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_numpy_is_the_only_runtime_dependency():
    import tomllib

    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])
