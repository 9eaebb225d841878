"""The package surface: the library imports only the standard library
(README, "Install"), ``__all__`` names exactly its public attributes, and
``pyproject.toml`` names the distribution after the package and its version."""

import ast
import pathlib
import re
import sys
import types

import pytest

import jetsplit

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jetsplit"
SOURCES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(tree):
    """Top-level module names of every absolute import, at any depth in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"__init__.py", "jet.py", "split.py", "transport.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [(line, name) for line, name in absolute_imports(tree)
               if name not in sys.stdlib_module_names]
    assert foreign == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import os\nfrom .jet import Jet\ndef f():\n    import numpy.linalg\n")
    names = [name for _, name in absolute_imports(tree)]
    assert names == ["os", "numpy"]
    assert [n for n in names if n not in sys.stdlib_module_names] == ["numpy"]


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(jetsplit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(jetsplit.__all__)
    assert len(jetsplit.__all__) == len(public)


def test_the_distribution_is_named_jetsplit_at_the_package_version():
    # a regex rather than tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^name = "([^"]*)"$', project, re.M).group(1) == "jetsplit"
    assert re.search(r'^version = "([^"]*)"$', project, re.M).group(1) == jetsplit.__version__
