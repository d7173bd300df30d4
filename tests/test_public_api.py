"""Structural tests of the public API surface.

Catches export drift: every name in a package's ``__all__`` must
resolve, and the curated top-level surface must stay importable.
"""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.coverage",
    "repro.distributed",
    "repro.distributed.protocols",
    "repro.exec",
    "repro.experiments",
    "repro.experiments.zoo",
    "repro.faults",
    "repro.foi",
    "repro.geometry",
    "repro.harmonic",
    "repro.marching",
    "repro.mesh",
    "repro.metrics",
    "repro.missions",
    "repro.network",
    "repro.obs",
    "repro.robots",
    "repro.service",
    "repro.viz",
]


class TestExports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} lacks __all__"
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_sorted_unique(self, name):
        module = importlib.import_module(name)
        exported = list(module.__all__)
        assert len(set(exported)) == len(exported), f"{name} duplicates"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_symbols(self):
        from repro import (  # noqa: F401
            FieldOfInterest,
            MarchingConfig,
            MarchingPlanner,
            RadioSpec,
            Swarm,
        )

    def test_errors_rooted(self):
        from repro import errors

        for name in errors.__dict__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError)

    def test_docstrings_on_public_callables(self):
        """Every public callable exported at the top level is documented."""
        for symbol in repro.__all__:
            obj = getattr(repro, symbol)
            if callable(obj):
                assert obj.__doc__, f"repro.{symbol} lacks a docstring"
