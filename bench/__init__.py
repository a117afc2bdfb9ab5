"""The seeded, four-workload end-to-end benchmark (see README.md)."""

from __future__ import annotations

import os

#: The checkout the benchmark runs in: the directory holding ``bench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The program's sources, which every benchmark process imports.
SRC = os.path.join(ROOT, "src")


def child_env():
    """Environment for benchmark subprocesses: ``src`` and the
    checkout first on ``PYTHONPATH``, so they import this checkout."""
    env = dict(os.environ)
    paths = [SRC, ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def pinned(cpu):
    """A ``preexec_fn`` pinning a child process to *cpu* (None: no pin)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})
