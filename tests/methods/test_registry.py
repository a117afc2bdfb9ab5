"""The method registry: lookup, validation, and driver plumbing."""

import inspect

import pytest

from repro.core import AnalyzerSettings, TerminationAnalyzer
from repro.errors import AnalysisError
from repro.lp import parse_program
from repro.methods import (
    ArgSizeMethod,
    MethodRunner,
    TerminationMethod,
    available_methods,
    get_method,
)

LOOP = "p(X) :- p(X).\n"


class TestRegistry:
    def test_all_four_methods_registered(self):
        assert available_methods() == (
            "argsize", "nonterm", "portfolio", "sizechange"
        )

    def test_get_method_returns_instances(self):
        method = get_method("argsize")
        assert isinstance(method, ArgSizeMethod)
        assert method.name == "argsize"

    def test_instances_pass_through(self):
        method = ArgSizeMethod()
        assert get_method(method) is method

    def test_unknown_method_lists_choices(self):
        with pytest.raises(AnalysisError) as excinfo:
            get_method("magic")
        message = str(excinfo.value)
        assert "magic" in message
        for name in available_methods():
            assert name in message

    def test_methods_take_no_options(self):
        # Budgets are module constants; no constructor takes a knob.
        for name in available_methods():
            assert not inspect.signature(type(get_method(name))).parameters
        with pytest.raises(TypeError):
            get_method("sizechange", closure_limit=7)

    def test_methods_are_cost_ordered(self):
        costs = [get_method(name).cost for name in
                 ("argsize", "sizechange", "nonterm", "portfolio")]
        assert costs == sorted(costs)

    def test_register_rejects_non_methods(self):
        from repro.methods.base import register_method

        with pytest.raises(TypeError):
            register_method(object)


class TestSettingsValidation:
    def test_settings_validate_rejects_unknown_method(self):
        with pytest.raises(AnalysisError) as excinfo:
            AnalyzerSettings(method="bogus").validate()
        assert "bogus" in str(excinfo.value)
        assert "portfolio" in str(excinfo.value)

    def test_analyzer_construction_rejects_unknown_method(self):
        program = parse_program(LOOP)
        with pytest.raises(AnalysisError):
            TerminationAnalyzer(
                program, settings=AnalyzerSettings(method="nope")
            )

    def test_runner_construction_rejects_unknown_method(self):
        with pytest.raises(AnalysisError):
            MethodRunner(settings=AnalyzerSettings(method="nope"))

    def test_method_participates_in_settings_fingerprint(self):
        from repro.serve.protocol import settings_fingerprint

        default = settings_fingerprint(AnalyzerSettings())
        other = settings_fingerprint(AnalyzerSettings(method="portfolio"))
        assert default["method"] == "argsize"
        assert other["method"] == "portfolio"
        assert default != other


class TestRunner:
    def test_runner_dispatches_on_settings_method(self):
        program = parse_program(LOOP)
        runner = MethodRunner(
            settings=AnalyzerSettings(method="nonterm")
        )
        result = runner.analyze(program, ("p", 1), "b")
        assert result.status == "DISPROVED"
        assert result.method == "nonterm"

    def test_runner_defaults_to_argsize(self):
        program = parse_program("q(a).\n")
        result = MethodRunner().analyze(program, ("q", 1), "b")
        assert result.status == "PROVED"
        assert result.method == "argsize"

    def test_custom_method_subclass_registers(self):
        from repro.methods.base import _METHODS, register_method

        @register_method
        class EchoMethod(TerminationMethod):
            name = "echo-test"

            def analyze(self, program, root, mode, **kwargs):
                return "echo"

        try:
            assert get_method("echo-test").analyze(None, None, None) == "echo"
        finally:
            _METHODS.pop("echo-test", None)
