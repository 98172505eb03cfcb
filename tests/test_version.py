"""The package version has one source: ``repro.__version__``.

``pyproject.toml`` declares the version dynamic and points setuptools at
``repro.__version__``, which must stay a literal setuptools can read without
importing the package.  ``ExperimentSpec.spec_hash`` mixes the version in,
so a drift between the two would silently change cached sweep identities.
"""

from __future__ import annotations

import ast
import importlib.metadata
import os

import pytest

import repro

ROOT = os.path.join(os.path.dirname(__file__), "..")

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = pytest.importorskip("tomli")


def _pyproject() -> dict:
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        return tomllib.load(fh)


def test_pyproject_takes_its_version_from_the_package():
    config = _pyproject()
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}


def test_version_is_a_literal_setuptools_reads_statically():
    path = os.path.join(ROOT, "src", "repro", "__init__.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    literals = [
        node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
        and isinstance(node.value, ast.Constant)
    ]
    assert literals == [repro.__version__]


def test_installed_metadata_matches_the_package():
    try:
        installed = importlib.metadata.version("cycledger-repro")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("cycledger-repro is not installed")
    assert installed == repro.__version__
