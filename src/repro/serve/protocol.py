"""Wire protocol and content addressing for the analysis service.

Termination analysis is a pure function of ``(source, root, mode,
settings)`` — the same inputs always produce the same verdict and the
same certificate.  This module pins down that purity operationally:

- :class:`AnalyzeRequest` is the one request shape every front end
  (the HTTP server, the thin client, ``repro-analyze --cache-dir``)
  agrees on, with eager validation that turns malformed input into a
  clear :class:`~repro.errors.AnalysisError` *before* any solving;
- :func:`request_key` derives the content address: a SHA-256 over the
  canonical JSON of (normalized source, root, mode, settings
  fingerprint, code revision).  Two requests with the same key are
  the same computation, so the persistent store may answer either
  with the other's payload — including across server restarts;
- :func:`payload_from_result` / :func:`payload_text` fix the verdict
  payload: the JSON export of the result *minus* the stage trace
  (wall times vary run to run; verdicts and certificates do not), in
  canonical key order.  The store keeps the exact text, so repeated
  requests are answered byte-identically.

The code revision folded into every key is a digest of the installed
``repro`` package sources.  Editing any module changes every key, so
a stale store can never serve a verdict computed by different code —
the store needs no manual invalidation story beyond "keys rotate".
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields, replace

from repro.errors import AnalysisError
from repro.core import AnalyzerSettings, validate_query
from repro.core.export import result_to_dict
from repro.lp import parse_program

__all__ = [
    "PAYLOAD_SCHEMA",
    "WIRE_SETTINGS",
    "AnalyzeRequest",
    "code_revision",
    "normalize_source",
    "settings_fingerprint",
    "request_key",
    "payload_from_result",
    "payload_text",
]

#: Schema identifier stamped into every verdict payload.
PAYLOAD_SCHEMA = "repro.serve/1"

#: The :class:`~repro.core.AnalyzerSettings` knobs a request may set
#: over the wire (everything JSON-atomic; the nested inference settings
#: stay at their defaults server-side).
WIRE_SETTINGS = (
    "norm",
    "use_interarg",
    "allow_negative_theta",
    "eliminate_w",
    "method",
)

#: The request's on/off switches: JSON booleans only (``"false"`` is a
#: truthy string, not off).
_WIRE_FLAGS = (
    "use_interarg",
    "allow_negative_theta",
    "eliminate_w",
    "incremental",
)


def normalize_source(text):
    """Canonical form of program text for content addressing.

    Only layout that cannot change the parse is folded away: line
    endings become ``\\n``, trailing whitespace per line is dropped,
    and leading/trailing blank lines collapse.  Comments and interior
    blank lines are preserved — erring toward distinct keys is safe
    (a miss re-solves); erring toward collisions would not be.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = [line.rstrip() for line in lines]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n" if lines else ""


def settings_fingerprint(settings):
    """JSON-ready canonical dict of every analyzer knob."""
    fingerprint = {}
    for knob in sorted(f.name for f in fields(settings)):
        value = getattr(settings, knob)
        if knob == "inference":
            fingerprint[knob] = {
                f.name: getattr(value, f.name) for f in fields(value)
            }
        else:
            fingerprint[knob] = value
    return fingerprint


_CODE_REVISION = None


def code_revision():
    """Digest of the installed ``repro`` package sources (cached).

    Walks the package directory, hashing every ``.py`` file's path and
    contents in sorted order; ~70 small files, a few milliseconds,
    computed once per process.
    """
    global _CODE_REVISION
    if _CODE_REVISION is None:
        import repro

        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(package_dir)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(
                    os.path.relpath(path, package_dir).encode()
                )
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_REVISION = digest.hexdigest()[:16]
    return _CODE_REVISION


def request_key(source, root, mode, settings=None, revision=None):
    """The content address of one analysis request (hex SHA-256)."""
    material = json.dumps(
        {
            "source": normalize_source(source),
            "root": ["%s" % root[0], int(root[1])],
            "mode": str(mode),
            "settings": settings_fingerprint(
                settings or AnalyzerSettings()
            ),
            "revision": revision or code_revision(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


def _parse_root(value):
    """Accept ``"name/arity"`` or ``[name, arity]``: a JSON string
    name and a JSON integer arity ``>= 0`` (not a boolean)."""
    if isinstance(value, str):
        name, _, arity = value.rpartition("/")
        if name and arity.isascii() and arity.isdigit():
            return (name, int(arity))
        raise AnalysisError(
            "root must look like name/arity, got %r" % value
        )
    if isinstance(value, list) and len(value) == 2:
        name, arity = value
        if not isinstance(name, str):
            raise AnalysisError(
                "root name must be a JSON string, got %r" % (name,)
            )
        if (not isinstance(arity, int) or isinstance(arity, bool)
                or arity < 0):
            raise AnalysisError(
                "root arity must be a JSON integer >= 0, got %r" % (arity,)
            )
        return (name, arity)
    raise AnalysisError(
        "root must be 'name/arity' or [name, arity], got %r" % (value,)
    )


@dataclass(frozen=True)
class AnalyzeRequest:
    """One validated analysis request, front-end independent.

    ``incremental`` asks the server to reuse per-SCC certificates from
    its persistent store when solving.  It is an execution hint, not
    part of the computation: verdict payloads are byte-identical with
    or without it, so it is deliberately excluded from :meth:`key` —
    an incremental request may be answered by a cached full solve and
    vice versa.
    """

    source: str
    root: tuple
    mode: str
    settings: AnalyzerSettings = field(default_factory=AnalyzerSettings)
    incremental: bool = False

    @classmethod
    def from_wire(cls, data):
        """Build a request from a decoded JSON body, validating shape.

        Raises :class:`~repro.errors.AnalysisError` with a message
        safe to hand back to the caller (a 400, not a stack trace).
        """
        if not isinstance(data, dict):
            raise AnalysisError(
                "request body must be a JSON object, got %s"
                % type(data).__name__
            )
        unknown = sorted(
            set(data) - {"source", "root", "mode", "settings",
                         "incremental"}
        )
        if unknown:
            raise AnalysisError(
                "unknown request field(s): %s" % ", ".join(unknown)
            )
        for required in ("source", "root", "mode"):
            if required not in data:
                raise AnalysisError(
                    "request is missing the %r field" % required
                )
        if not isinstance(data["source"], str):
            raise AnalysisError("'source' must be a string of Prolog text")
        if not isinstance(data["mode"], str):
            raise AnalysisError(
                "'mode' must be a JSON string such as \"bbf\", got %r"
                % (data["mode"],)
            )
        overrides = data.get("settings") or {}
        if not isinstance(overrides, dict):
            raise AnalysisError("'settings' must be a JSON object")
        bad = sorted(set(overrides) - set(WIRE_SETTINGS))
        if bad:
            raise AnalysisError(
                "unknown setting(s): %s; settable over the wire: %s"
                % (", ".join(bad), ", ".join(WIRE_SETTINGS))
            )
        flags = dict(overrides, incremental=data.get("incremental", False))
        for name in _WIRE_FLAGS:
            if name in flags and not isinstance(flags[name], bool):
                raise AnalysisError(
                    "%r must be a JSON boolean (true or false), got %r"
                    % (name, flags[name])
                )
        try:
            settings = replace(AnalyzerSettings(), **overrides)
            settings.validate()
        except AnalysisError:
            raise
        except (TypeError, ValueError) as error:
            raise AnalysisError("invalid settings: %s" % error) from None
        return cls(
            source=data["source"],
            root=_parse_root(data["root"]),
            mode=data["mode"],
            settings=settings,
            incremental=flags["incremental"],
        )

    def to_wire(self):
        """The JSON-ready request body (only non-default settings)."""
        defaults = AnalyzerSettings()
        overrides = {
            knob: getattr(self.settings, knob)
            for knob in WIRE_SETTINGS
            if getattr(self.settings, knob) != getattr(defaults, knob)
        }
        body = {
            "source": self.source,
            "root": "%s/%d" % self.root,
            "mode": self.mode,
        }
        if overrides:
            body["settings"] = overrides
        if self.incremental:
            body["incremental"] = True
        return body

    def parse(self):
        """Parse the source and validate the root/mode against it."""
        program = parse_program(self.source)
        validate_query(program, self.root, self.mode)
        return program

    def key(self):
        """The request's content address."""
        return request_key(self.source, self.root, self.mode, self.settings)


def payload_from_result(result):
    """The canonical verdict payload for one analysis result.

    The stage trace is deliberately absent: wall times differ between
    runs, and the payload must be a pure function of the request so
    stored and fresh answers are interchangeable.  Per-request timing
    lives in the trace store (``GET /v1/trace/{id}``) instead.
    """
    data = result_to_dict(result)
    data.pop("trace", None)
    return {"schema": PAYLOAD_SCHEMA, **data}


def payload_text(payload):
    """Canonical serialization — what the store persists and the
    server sends, byte for byte."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
