"""The installed distribution and the imported package report one version."""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_distribution_version_is_the_package_version():
    """``pyproject.toml`` resolves its version the way a build would."""
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # older setuptools flags any [tool.setuptools] table as beta
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(PYPROJECT)
    assert config["project"]["version"] == repro.__version__
