"""Pinned wire payloads: the corpus sweep's bytes may not drift.

For each of the 42 corpus programs under four settings, the sha256 of
``payload_text(payload_from_result(...))`` must equal the digest
checked in beside this file (``payload_digests.json``).  A refactor of
the linear-algebra or inference layers that changes a single inferred
row, certificate or reason string shows up here as a named mismatch.

Regenerate the JSON only when a payload change is intended::

    PYTHONPATH=src python tests/integration/test_payload_digests.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import clear_caches
from repro.core.analyzer import AnalyzerSettings
from repro.corpus.registry import all_programs, load
from repro.methods import MethodRunner
from repro.serve.protocol import payload_from_result, payload_text

DIGESTS = pathlib.Path(__file__).with_name("payload_digests.json")

SETTINGS = {
    "default": AnalyzerSettings(),
    "negative-theta": AnalyzerSettings(allow_negative_theta=True),
    "no-eliminate-w": AnalyzerSettings(eliminate_w=False),
    "portfolio": AnalyzerSettings(method="portfolio"),
}


def sweep_digests(settings):
    """``{program name: sha256 of its canonical payload}``, each
    program analyzed from cold process caches."""
    runner = MethodRunner(settings)
    digests = {}
    for entry in all_programs():
        clear_caches()
        result = runner.analyze(load(entry), entry.root, entry.mode)
        text = payload_text(payload_from_result(result))
        digests[entry.name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_payload_digests_pinned(name):
    expected = json.loads(DIGESTS.read_text())[name]
    actual = sweep_digests(SETTINGS[name])
    assert len(actual) == 42
    changed = sorted(
        program for program in expected
        if actual.get(program) != expected[program]
    )
    assert not changed, "payload bytes changed for %s" % changed
    assert sorted(actual) == sorted(expected)


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps(
            {name: sweep_digests(s) for name, s in sorted(SETTINGS.items())},
            indent=1, sort_keys=True,
        ) + "\n"
    )
