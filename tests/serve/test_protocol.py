"""Unit tests for the wire protocol and content addressing."""

import json

import pytest

from repro.core import AnalyzerSettings, TerminationAnalyzer
from repro.errors import AnalysisError
from repro.lp import parse_program
from repro.serve.protocol import (
    PAYLOAD_SCHEMA,
    AnalyzeRequest,
    code_revision,
    normalize_source,
    payload_from_result,
    payload_text,
    request_key,
    settings_fingerprint,
)

APPEND = (
    "append([], Y, Y).\n"
    "append([X|Xs], Y, [X|Zs]) :- append(Xs, Y, Zs).\n"
)


class TestNormalizeSource:
    def test_line_endings_fold(self):
        assert normalize_source("a.\r\nb.\r") == normalize_source(
            "a.\nb.\n"
        )

    def test_trailing_whitespace_folds(self):
        assert normalize_source("a.   \nb.\t\n") == "a.\nb.\n"

    def test_blank_edges_fold(self):
        assert normalize_source("\n\na.\n\n\n") == "a.\n"

    def test_interior_blank_lines_preserved(self):
        # Erring toward distinct keys is safe; collisions are not.
        assert normalize_source("a.\n\nb.\n") == "a.\n\nb.\n"

    def test_empty(self):
        assert normalize_source("") == ""
        assert normalize_source("\n  \n") == ""


class TestRequestKey:
    def test_layout_variants_share_a_key(self):
        base = request_key(APPEND, ("append", 3), "bbf")
        assert request_key(
            APPEND.replace("\n", "\r\n") + "\n\n", ("append", 3), "bbf"
        ) == base

    def test_mode_and_root_distinguish(self):
        base = request_key(APPEND, ("append", 3), "bbf")
        assert request_key(APPEND, ("append", 3), "ffb") != base

    def test_settings_distinguish(self):
        base = request_key(APPEND, ("append", 3), "bbf")
        assert request_key(
            APPEND, ("append", 3), "bbf",
            AnalyzerSettings(use_interarg=False),
        ) != base

    def test_code_revision_rotates_every_key(self):
        base = request_key(APPEND, ("append", 3), "bbf")
        rotated = request_key(
            APPEND, ("append", 3), "bbf", revision="deadbeef"
        )
        assert rotated != base

    def test_deterministic(self):
        assert request_key(APPEND, ("append", 3), "bbf") == request_key(
            APPEND, ("append", 3), "bbf"
        )

    def test_fingerprint_covers_every_knob(self):
        from dataclasses import fields

        fingerprint = settings_fingerprint(AnalyzerSettings())
        assert set(fingerprint) == {
            f.name for f in fields(AnalyzerSettings)
        }

    def test_revision_is_stable_and_short(self):
        assert code_revision() == code_revision()
        assert len(code_revision()) == 16


class TestFromWire:
    def wire(self, **overrides):
        body = {"source": APPEND, "root": "append/3", "mode": "bbf"}
        body.update(overrides)
        return body

    def test_round_trip(self):
        request = AnalyzeRequest.from_wire(self.wire())
        assert request.root == ("append", 3)
        again = AnalyzeRequest.from_wire(request.to_wire())
        assert again == request

    def test_root_as_pair(self):
        request = AnalyzeRequest.from_wire(
            self.wire(root=["append", 3])
        )
        assert request.root == ("append", 3)

    def test_non_object_body(self):
        with pytest.raises(AnalysisError, match="JSON object"):
            AnalyzeRequest.from_wire([1, 2])

    def test_missing_field(self):
        body = self.wire()
        del body["mode"]
        with pytest.raises(AnalysisError, match="mode"):
            AnalyzeRequest.from_wire(body)

    def test_unknown_field(self):
        with pytest.raises(AnalysisError, match="queue"):
            AnalyzeRequest.from_wire(self.wire(queue=7))

    def test_bad_root_string(self):
        with pytest.raises(AnalysisError, match="name/arity"):
            AnalyzeRequest.from_wire(self.wire(root="append"))

    @pytest.mark.parametrize("root", [
        "append/\u00b2",  # superscript two: isdigit(), but int() raises
        "append/\uff13",  # fullwidth three: int() reads it as 3
    ])
    def test_root_arity_is_ascii_digits(self, root):
        with pytest.raises(AnalysisError, match="name/arity"):
            AnalyzeRequest.from_wire(self.wire(root=root))

    @pytest.mark.parametrize("root, field", [
        (["append", 3.7], "arity"),
        (["append", True], "arity"),
        (["append", -1], "arity"),
        (["append", "3"], "arity"),
        ([1, 3], "name"),
        (["append", 3, 0], "name/arity"),
        ({"name": "append"}, "name/arity"),
    ])
    def test_root_pair_is_not_coerced(self, root, field):
        # A coerced ["append", 3.7] would share the key of
        # "append/3" and could be answered from its stored payload.
        with pytest.raises(AnalysisError, match=field):
            AnalyzeRequest.from_wire(self.wire(root=root))

    @pytest.mark.parametrize("mode", [5, None, ["b", "b", "f"]])
    def test_mode_must_be_a_string(self, mode):
        with pytest.raises(AnalysisError, match="'mode'"):
            AnalyzeRequest.from_wire(self.wire(mode=mode))

    def test_zero_arity_pair(self):
        request = AnalyzeRequest.from_wire(self.wire(root=["main", 0]))
        assert request.root == ("main", 0)

    def test_unknown_setting(self):
        with pytest.raises(AnalysisError, match="jobs"):
            AnalyzeRequest.from_wire(
                self.wire(settings={"jobs": 4})
            )

    def test_bad_setting_value(self):
        with pytest.raises(AnalysisError):
            AnalyzeRequest.from_wire(
                self.wire(settings={"norm": "sideways"})
            )

    def test_settings_round_trip_only_overrides(self):
        request = AnalyzeRequest.from_wire(
            self.wire(settings={"use_interarg": False})
        )
        body = request.to_wire()
        assert body["settings"] == {"use_interarg": False}

    def test_parse_rejects_undefined_root(self):
        request = AnalyzeRequest.from_wire(self.wire(root="appendd/3"))
        with pytest.raises(AnalysisError, match="appendd/3"):
            request.parse()


class TestPayload:
    def result(self):
        program = parse_program(APPEND)
        return TerminationAnalyzer(program).analyze(("append", 3), "bbf")

    def test_payload_has_schema_and_no_trace(self):
        payload = payload_from_result(self.result())
        assert payload["schema"] == PAYLOAD_SCHEMA
        assert "trace" not in payload
        assert payload["status"] == "PROVED"

    def test_text_is_canonical_json(self):
        payload = payload_from_result(self.result())
        text = payload_text(payload)
        assert json.loads(text) == payload
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )

    def test_two_runs_serialize_identically(self):
        # The byte-identity invariant, minus the transport.
        first = payload_text(payload_from_result(self.result()))
        second = payload_text(payload_from_result(self.result()))
        assert first == second


class TestIncrementalFlag:
    def test_from_wire_default_false(self):
        request = AnalyzeRequest.from_wire(
            {"source": APPEND, "root": "append/3", "mode": "bbf"}
        )
        assert request.incremental is False

    def test_wire_round_trip(self):
        request = AnalyzeRequest.from_wire({
            "source": APPEND, "root": "append/3", "mode": "bbf",
            "incremental": True,
        })
        assert request.incremental is True
        wire = request.to_wire()
        assert wire["incremental"] is True
        assert AnalyzeRequest.from_wire(wire) == request

    def test_to_wire_omits_default(self):
        request = AnalyzeRequest(
            source=APPEND, root=("append", 3), mode="bbf"
        )
        assert "incremental" not in request.to_wire()

    def test_excluded_from_content_address(self):
        """An execution hint, not an input: incremental and full
        solves of the same request share one verdict-store key."""
        plain = AnalyzeRequest(
            source=APPEND, root=("append", 3), mode="bbf"
        )
        hinted = AnalyzeRequest(
            source=APPEND, root=("append", 3), mode="bbf",
            incremental=True,
        )
        assert plain.key() == hinted.key()
