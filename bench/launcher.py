"""Run the serve daemon with the layer wrappers installed.

``python -m bench.launcher LAYERS.json [repro-serve arguments]``

Installs :class:`bench.tracing.LayerTracer`, hands the remaining
arguments to ``repro.serve.app.main``, and once the daemon has drained
(SIGTERM) writes the layer report to ``LAYERS.json``.  With
``--jobs 1`` every solve runs in this process, so the wrappers see it.
"""

from __future__ import annotations

import json
import sys

from repro.serve import app

from bench.tracing import LayerTracer


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m bench.launcher LAYERS.json "
              "[repro-serve arguments]", file=sys.stderr)
        return 2
    tracer = LayerTracer().install()
    code = app.main(argv[1:])
    with open(argv[0], "w") as handle:
        json.dump(tracer.report(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
