"""Smoke test of ``benchmarks/dump_environments.py``: the canonical
environment dump that two checkouts diff, on two programs."""

from benchmarks.dump_environments import (
    digest_line,
    environment_lines,
    programs,
)

SELECTED = ("append_bbf", "wide2")


def test_dump_is_one_canonical_line_per_predicate():
    sources = dict(programs())
    selected = [(name, sources[name]) for name in SELECTED]
    lines = environment_lines(selected)
    # 2 joins x 3 norms x one predicate per program.
    assert len(lines) == 12
    assert lines[:2] == [
        "exact structural append_bbf append/3: - arg.1 - arg.2 + arg.3"
        " >= 0 ; arg.1 + arg.2 - arg.3 >= 0 ; arg.2 >= 0 ; arg.1 >= 0",
        "exact structural wide2 r/2: - arg.1 + arg.2 >= 0 ;"
        " arg.1 - arg.2 >= 0 ; arg.1 >= 0",
    ]
    assert lines[-1] == "weak right_spine wide2 r/2: arg.1 >= 0 ; arg.2 >= 0"
    assert environment_lines(selected) == lines

    digest = digest_line(lines)
    assert digest.startswith("sha256 ") and digest.endswith(" 12 lines")
    assert digest_line(lines[:-1]) != digest
