"""Tests for the exception hierarchy and package-level exports."""

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceError,
)


class TestHierarchy:
    @pytest.mark.parametrize("exc", [ConfigurationError, SimulationError,
                                     TraceError])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ConfigurationError("x")


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_classes_exported(self):
        for name in ("Jukebox", "Simulator", "FunctionModel", "PIF",
                     "skylake", "broadwell", "SUITE", "get_profile"):
            assert name in repro.__all__

    def test_subpackage_alls_resolve(self):
        import repro.analysis
        import repro.core
        import repro.experiments
        import repro.server
        import repro.sim
        import repro.workloads
        for module in (repro.analysis, repro.core, repro.server, repro.sim,
                       repro.workloads, repro.experiments):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)


class TestExamplesCompile:
    def test_examples_are_valid_python(self):
        import pathlib
        import py_compile
        examples = pathlib.Path(__file__).parent.parent / "examples"
        scripts = sorted(examples.glob("*.py"))
        assert len(scripts) >= 4
        for script in scripts:
            py_compile.compile(str(script), doraise=True)
