"""The method registry: lookup, validation, and driver plumbing."""

import inspect

import pytest

from repro.core import AnalyzerSettings, TerminationAnalyzer
from repro.errors import AnalysisError
from repro.lp import parse_program
from repro.methods import (
    ArgSizeMethod,
    MethodRunner,
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

    @pytest.mark.parametrize("method", ["argsize", "sizechange",
                                        "nonterm", "portfolio"])
    def test_runner_construction_rejects_unknown_norm(self, method):
        with pytest.raises(AnalysisError) as excinfo:
            MethodRunner(AnalyzerSettings(method=method, norm="bogus"))
        assert "bogus" in str(excinfo.value)

    def test_unhashable_method_is_an_analysis_error(self):
        with pytest.raises(AnalysisError):
            AnalyzerSettings(method=["argsize"]).validate()

    def test_one_unknown_method_message(self):
        messages = set()
        for attempt in (
            lambda: get_method("nope"),
            lambda: AnalyzerSettings(method="nope").validate(),
            lambda: MethodRunner(AnalyzerSettings(method="nope")),
        ):
            with pytest.raises(AnalysisError) as excinfo:
                attempt()
            messages.add(str(excinfo.value))
        assert len(messages) == 1

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

    def test_nonterm_reports_its_norm(self):
        runner = MethodRunner(
            AnalyzerSettings(method="nonterm", norm="list_length")
        )
        result = runner.analyze(parse_program(LOOP), ("p", 1), "b")
        assert result.norm == "list_length"

    def test_runner_defaults_to_argsize(self):
        program = parse_program("q(a).\n")
        result = MethodRunner().analyze(program, ("q", 1), "b")
        assert result.status == "PROVED"
        assert result.method == "argsize"
