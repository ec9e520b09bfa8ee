"""The package version lives in one place: ``repro.__version__``."""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_resolves_its_version_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is "beta"
        static = pyprojecttoml.read_configuration(PYPROJECT, expand=False)
        resolved = pyprojecttoml.read_configuration(PYPROJECT)
    assert "version" not in static["project"]
    assert static["project"]["dynamic"] == ["version"]
    assert resolved["project"]["version"] == repro.__version__
