"""Command-line front end.

Usage::

    repro-analyze program.pl --root perm/2 --mode bf
    repro-analyze program.pl --root perm/2 --mode bf --norm list_length
    repro-analyze program.pl --root p/1 --mode b --transform --verbose
    repro-analyze program.pl --root perm/2 --mode bf --cache-dir .cache
    repro-analyze program.pl --root perm/2 --mode bf --remote :8421

Prints the verdict and the certificate (or failure reasons) and exits
0 on PROVED, 1 on UNKNOWN, 2 on usage/parse errors, 3 when
``--timeout`` expires (or a remote daemon reports its own deadline).

``--cache-dir`` consults the same content-addressed persistent store
``repro-serve`` maintains, so repeated identical analyses — across
processes and across CLI/daemon boundaries — are answered without
re-solving.  The store also holds per-SCC certificates: when a whole
request misses (the program changed), analysis still reuses the
certificates of every SCC whose fingerprint is unchanged, re-proving
only what the edit touched (``--no-incremental`` turns this off).
``repro-analyze OLD --diff NEW --root r/n --mode m`` runs that edit
workflow end to end and reports the reused/re-proved split.
``--remote URL`` ships the request to a running daemon instead of
solving locally; add ``--incremental`` to ask the daemon to reuse
*its* stored certificates.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import AnalysisTimeout, ReproError, ServeError
from repro.lp import parse_program
from repro.core import (
    AnalysisTrace,
    AnalyzerSettings,
    validate_query,
    verify_proof,
)
from repro.core.report import render_report, render_stage_table
from repro.transform import normalize_program

#: Exit code for an analysis stopped by ``--timeout`` (or a daemon's
#: per-request deadline) — distinct from UNKNOWN (1) and errors (2).
EXIT_TIMEOUT = 3


def build_parser():
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Termination analysis via argument sizes and LP "
        "duality (Sohn & Van Gelder, PODS 1991).",
    )
    parser.add_argument(
        "source", nargs="?",
        help="Prolog source file ('-' for stdin)",
    )
    parser.add_argument(
        "--root",
        help="queried predicate as name/arity, e.g. perm/2",
    )
    parser.add_argument(
        "--mode",
        help="bound/free pattern of the query, e.g. bf",
    )
    parser.add_argument(
        "--all-modes", action="store_true",
        help="analyze every ':- mode(...)' declaration in the file "
        "instead of a single --root/--mode pair",
    )
    parser.add_argument(
        "--norm", default="structural",
        choices=("structural", "list_length", "right_spine"),
        help="term-size measure (default: structural)",
    )
    parser.add_argument(
        "--no-interarg", action="store_true",
        help="disable inter-argument constraint inference",
    )
    parser.add_argument(
        "--method", default="argsize",
        help="termination prover (see --list-methods): 'argsize' "
        "(default) is the paper's certifying analysis, 'sizechange' "
        "proves lexicographic descents via local level mappings, "
        "'nonterm' finds a looping derivation and can DISPROVE, "
        "'portfolio' races them per SCC cheapest-first",
    )
    parser.add_argument(
        "--list-methods", action="store_true",
        help="list the registered termination methods and exit",
    )
    parser.add_argument(
        "--negative-theta", action="store_true",
        help="use the Appendix C negative-weight search",
    )
    parser.add_argument(
        "--transform", action="store_true",
        help="run Appendix A preprocessing (equality elimination, "
        "safe unfolding, predicate splitting) first",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="independently re-check the certificate with the primal LP",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="show rule systems and inter-argument constraints",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="show the pipeline stage trace (per-stage wall time, "
        "constraint rows, cache hits, solver work)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the verdict and certificate as JSON instead of text",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write the span tree and metric snapshot as JSONL "
        "telemetry (render it later with repro-trace)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the process-wide metrics registry (cache hits, "
        "FM rows, simplex pivots, theta iterations) after analysis",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for --all-modes (default 1: in-process)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the analysis; on expiry exit "
        "with status %d (the serial twin of the server's per-request "
        "deadline)" % EXIT_TIMEOUT,
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="consult/update the content-addressed persistent result "
        "store in DIR (the same store repro-serve uses); also reuses "
        "stored per-SCC certificates when the whole request misses",
    )
    parser.add_argument(
        "--diff", metavar="NEW",
        help="incremental re-analysis: analyze the positional source "
        "(OLD), then NEW reusing every certificate of an unchanged "
        "SCC; report the reused/re-proved split and exit per NEW's "
        "verdict (needs --root/--mode)",
    )
    parser.add_argument(
        "--no-incremental", action="store_true",
        help="never reuse per-SCC certificates from --cache-dir "
        "(every SCC is proved from scratch)",
    )
    parser.add_argument(
        "--incremental", action="store_true",
        help="with --remote: ask the daemon to reuse per-SCC "
        "certificates from its store when solving",
    )
    parser.add_argument(
        "--remote", metavar="URL",
        help="send the request to a running repro-serve daemon "
        "(e.g. http://127.0.0.1:8421) instead of solving locally",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH",
        help="sample the interpreter while the command runs and write "
        "collapsed stacks (flamegraph.pl / speedscope input) to PATH",
    )
    return parser


def parse_root(text):
    """Parse a name/arity indicator from the command line."""
    try:
        name, arity = text.rsplit("/", 1)
        return (name, int(arity))
    except ValueError:
        raise SystemExit("--root must look like name/arity, got %r" % text)


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if not args.profile_out:
        return _run_cli(args)
    from repro.obs.profiler import SamplingProfiler

    profiler = SamplingProfiler()
    profiler.start()
    try:
        return _run_cli(args)
    finally:
        profiler.stop()
        try:
            stacks = profiler.write(args.profile_out)
        except OSError as error:
            print("cannot write profile: %s" % error, file=sys.stderr)
        else:
            print("wrote %d collapsed stack(s) (%d samples) to %s"
                  % (stacks, profiler.samples, args.profile_out),
                  file=sys.stderr)


def _run_cli(args):
    """The parsed-args body of ``main`` (split out so --profile-out
    can bracket every exit path with one try/finally)."""
    if args.list_methods:
        from repro.methods import available_methods, get_method

        for name in available_methods():
            doc = (get_method(name).__doc__ or "").strip()
            summary = doc.splitlines()[0] if doc else ""
            print("%-12s %s" % (name, summary))
        return 0
    if not args.source:
        raise SystemExit("a source file is required "
                         "(or use --list-methods)")
    if args.all_modes:
        if args.root or args.mode:
            raise SystemExit("--all-modes excludes --root/--mode")
        root = None
    else:
        if not args.root or not args.mode:
            raise SystemExit("--root and --mode are required "
                             "(or use --all-modes)")
        root = parse_root(args.root)

    if args.source == "-":
        text = sys.stdin.read()
    else:
        with open(args.source) as handle:
            text = handle.read()

    try:
        program = parse_program(text)
    except ReproError as error:
        print("parse error: %s" % error, file=sys.stderr)
        return 2

    if args.transform:
        if root is not None:
            roots = [root]
        else:
            roots = [d.indicator for d in program.mode_declarations]
        program, log = normalize_program(program, roots=roots or None)
        if args.verbose:
            print("-- Appendix A transformations --")
            print(log)
            print("-- transformed program --")
            print(program)
            print()

    settings = AnalyzerSettings(
        norm=args.norm,
        use_interarg=not args.no_interarg,
        allow_negative_theta=args.negative_theta,
        method=args.method,
    )

    if args.incremental and not args.remote:
        raise SystemExit("--incremental is the --remote opt-in; local "
                         "runs with --cache-dir reuse certificates by "
                         "default (see --no-incremental)")

    if args.diff:
        if args.all_modes or args.remote or args.jobs > 1:
            raise SystemExit(
                "--diff excludes --all-modes/--remote/--jobs"
            )
        if args.transform:
            raise SystemExit("--diff excludes --transform (it would "
                             "rewrite only the OLD program)")
        if args.no_incremental:
            raise SystemExit("--diff *is* the incremental workflow; "
                             "--no-incremental contradicts it")
        if root is None:
            raise SystemExit("--diff needs --root and --mode")
        return _run_diff(program, root, settings, args)

    if args.remote:
        if args.verify:
            raise SystemExit("--verify is local-only (certificates "
                             "stay in the daemon's workers)")
        if args.jobs > 1 or args.cache_dir:
            raise SystemExit("--remote excludes --jobs and --cache-dir")
        return _run_remote(program, root, settings, args)

    if args.all_modes:
        return _run_all_modes(program, settings, args)

    try:
        validate_query(program, root, args.mode)
    except ReproError as error:
        print("analysis error: %s" % error, file=sys.stderr)
        return 2

    if args.cache_dir:
        return _run_single_stored(program, root, settings, args)

    from repro.methods import run_method
    from repro.serve.pool import deadline

    try:
        with deadline(args.timeout):
            result = run_method(program, root, args.mode,
                                settings=settings)
    except AnalysisTimeout as error:
        print("analysis timed out: %s" % error, file=sys.stderr)
        return EXIT_TIMEOUT
    except ReproError as error:
        print("analysis error: %s" % error, file=sys.stderr)
        return 2

    if args.json:
        from repro.core.export import result_to_json

        print(result_to_json(result))
    else:
        print(
            render_report(
                result,
                show_rule_systems=args.verbose,
                show_environment=args.verbose,
                show_stats=args.stats,
            )
        )

    _verify_if_asked(args, result)
    _emit_telemetry(args, result.trace)
    return 0 if result.proved else 1


def _verify_if_asked(args, result):
    """Re-check the lambda certificate when ``--verify`` asked for it.

    Size-change proofs carry no lambda certificate (``result.proof``
    is None even though the verdict is PROVED) — say so instead of
    crashing the verifier."""
    if not (args.verify and result.proved):
        return
    if result.proof is None:
        print("no lambda certificate to verify (method %s proves "
              "without one)" % result.method, file=sys.stderr)
        return
    verify_proof(result.proof)
    if not args.json:
        print("certificate independently verified (primal simplex).")


def _render_payload(payload):
    """Compact text rendering of a stored/remote verdict payload
    (the full report needs the in-process result object)."""
    root = payload.get("root", {})
    method = payload.get("method", "argsize")
    lines = [
        "%s/%s mode %s: %s  [norm %s%s]"
        % (root.get("predicate"), root.get("arity"),
           payload.get("mode"), payload.get("status"),
           payload.get("norm"),
           "" if method == "argsize" else ", method %s" % method)
    ]
    for scc in payload.get("sccs", ()):
        provenance = scc.get("method", "")
        tag = " [%s]" % provenance if provenance else ""
        if scc.get("status") == "PROVED" and "proof" in scc:
            proof = scc.get("proof", {})
            members = ", ".join(
                "%s/%s^%s" % (m["predicate"], m["arity"], m["adornment"])
                for m in proof.get("members", ())
            )
            note = (" (nonrecursive)"
                    if proof.get("trivially_nonrecursive") else "")
            lines.append("  scc %s: PROVED%s%s" % (members, note, tag))
        else:
            members = ", ".join(
                "%s/%s^%s" % (m["predicate"], m["arity"], m["adornment"])
                for m in scc.get("members", ())
            )
            lines.append("  scc %s: %s%s — %s"
                         % (members, scc.get("status"), tag,
                            scc.get("reason", "")))
    return "\n".join(lines)


def _run_single_stored(program, root, settings, args):
    """Single-mode analysis through the persistent result store.

    ``--json`` prints the canonical payload text on both paths, so
    cold and warm output are byte-identical; the text mode prints the
    full report when solving and the compact payload rendering on a
    hit (``--verify`` needs the in-process certificate, so it skips
    the store read but still publishes its result).
    """
    import json as json_module

    from repro.serve.pool import deadline
    from repro.serve.protocol import (
        AnalyzeRequest,
        payload_from_result,
        payload_text,
    )
    from repro.serve.store import ResultStore

    from repro.serve.store import StoreCertificateCache

    request = AnalyzeRequest(
        source=str(program), root=tuple(root), mode=args.mode,
        settings=settings,
    )
    key = request.key()
    with ResultStore(args.cache_dir) as store:
        cached = None if args.verify else store.get(key)
        if cached is not None:
            payload = json_module.loads(cached)
            print(cached if args.json else _render_payload(payload))
            print("(served from store %s, key %s)"
                  % (args.cache_dir, key[:16]), file=sys.stderr)
            return 0 if payload.get("status") == "PROVED" else 1
        certificate_cache = (
            None if args.no_incremental else StoreCertificateCache(store)
        )
        from repro.methods import MethodRunner

        try:
            with deadline(args.timeout):
                runner = MethodRunner(
                    settings=settings,
                    certificate_cache=certificate_cache,
                )
                result = runner.analyze(program, tuple(root), args.mode)
        except AnalysisTimeout as error:
            print("analysis timed out: %s" % error, file=sys.stderr)
            return EXIT_TIMEOUT
        except ReproError as error:
            print("analysis error: %s" % error, file=sys.stderr)
            return 2
        text = payload_text(payload_from_result(result))
        store.put(key, text, root="%s/%d" % tuple(root), mode=args.mode)
        if certificate_cache is not None and result.sccs_reused:
            print("(reused %d certified SCC(s) from the store, "
                  "re-proved %d)"
                  % (result.sccs_reused, result.sccs_reproved),
                  file=sys.stderr)
    if args.json:
        print(text)
    else:
        print(
            render_report(
                result,
                show_rule_systems=args.verbose,
                show_environment=args.verbose,
                show_stats=args.stats,
            )
        )
    _verify_if_asked(args, result)
    _emit_telemetry(args, result.trace)
    return 0 if result.proved else 1


def _run_diff(old_program, root, settings, args):
    """The one-edit re-analysis workflow (``OLD --diff NEW``).

    Analyzes OLD to populate a certificate cache — the persistent
    store's when ``--cache-dir`` is given (so a warm store skips even
    the OLD solve's SCCs), an in-memory one otherwise — then analyzes
    NEW against it and reports how much of the proof survived the
    edit.  The exit code follows NEW's verdict.
    """
    from repro.core import MemoryCertificateCache
    from repro.serve.pool import deadline

    try:
        with open(args.diff) as handle:
            new_text = handle.read()
        new_program = parse_program(new_text)
        validate_query(old_program, root, args.mode)
        validate_query(new_program, root, args.mode)
    except OSError as error:
        print("cannot read %s: %s" % (args.diff, error), file=sys.stderr)
        return 2
    except ReproError as error:
        print("analysis error: %s" % error, file=sys.stderr)
        return 2

    store = None
    if args.cache_dir:
        from repro.serve.store import ResultStore, StoreCertificateCache

        store = ResultStore(args.cache_dir)
        cache = StoreCertificateCache(store)
    else:
        cache = MemoryCertificateCache()
    from repro.methods import MethodRunner

    label = "%s/%d mode %s" % (root[0], root[1], args.mode)
    try:
        with deadline(args.timeout):
            runner = MethodRunner(settings=settings,
                                  certificate_cache=cache)
            old_result = runner.analyze(old_program, tuple(root),
                                        args.mode)
            new_result = runner.analyze(new_program, tuple(root),
                                        args.mode)
    except AnalysisTimeout as error:
        print("analysis timed out: %s" % error, file=sys.stderr)
        return EXIT_TIMEOUT
    except ReproError as error:
        print("analysis error: %s" % error, file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()

    if args.json:
        import json as json_module

        print(json_module.dumps({
            "old": {"status": old_result.status},
            "new": {
                "status": new_result.status,
                "sccs_reused": new_result.sccs_reused,
                "sccs_reproved": new_result.sccs_reproved,
                "sccs_rejected": new_result.sccs_rejected,
            },
        }, sort_keys=True))
    else:
        print("%s: %s -> %s" % (label, old_result.status,
                                new_result.status))
        print("  certificates: %d reused, %d re-proved (%d rejected "
              "by the verifier)"
              % (new_result.sccs_reused, new_result.sccs_reproved,
                 new_result.sccs_rejected))
        if not new_result.proved and args.verbose:
            for failing in new_result.failing_sccs():
                print("  reason: %s" % failing.reason)
    _verify_if_asked(args, new_result)
    _emit_telemetry(args, new_result.trace)
    return 0 if new_result.proved else 1


def _run_remote(program, root, settings, args):
    """Ship the request(s) to a running ``repro-serve`` daemon."""
    from repro.serve.client import ServeClient

    client = ServeClient(args.remote, timeout=args.timeout or 120.0)
    source = str(program)
    if not args.all_modes:
        return _remote_one(client, source, root, args.mode, settings,
                           args)
    declarations = program.mode_declarations
    if not declarations:
        print("no ':- mode(...)' declarations found", file=sys.stderr)
        return 2
    worst = 0
    for declaration in declarations:
        code = _remote_one(
            client, source, declaration.indicator, declaration.mode,
            settings, args, label=True,
        )
        worst = max(worst, code)
    return worst


def _remote_one(client, source, root, mode, settings, args, label=False):
    """One remote request; returns the exit code for its verdict."""
    try:
        answer = client.analyze(source, root, mode, settings=settings,
                                incremental=args.incremental)
    except ServeError as error:
        print("remote error: %s" % error, file=sys.stderr)
        return EXIT_TIMEOUT if error.status == 504 else 2
    if label:
        print("%s/%d mode %s: %s%s"
              % (root[0], root[1], mode, answer.status,
                 " (cached)" if answer.cached else ""))
    elif args.json:
        print(answer.text)
    else:
        print(_render_payload(answer.payload))
        print("(answered by %s, key %s, cache %s)"
              % (args.remote, answer.key[:16],
                 "hit" if answer.cached else "miss"),
              file=sys.stderr)
        if args.incremental and not answer.cached:
            print("(daemon reused %d certified SCC(s), re-proved %d)"
                  % (answer.sccs_reused, answer.sccs_reproved),
                  file=sys.stderr)
    if args.trace_out and not label:
        try:
            with open(args.trace_out, "w") as handle:
                handle.write(client.trace(answer.key))
            print("wrote remote trace to %s" % args.trace_out,
                  file=sys.stderr)
        except ServeError as error:
            print("no remote trace: %s" % error, file=sys.stderr)
    if args.metrics and not label:
        from repro.obs import render_metrics

        print()
        print(render_metrics(client.metrics()))
    return 0 if answer.proved else 1


def _emit_telemetry(args, trace):
    """Handle ``--trace-out`` / ``--metrics`` for a finished run."""
    if not (args.trace_out or args.metrics):
        return
    from repro.obs import METRICS, render_metrics, write_trace

    snapshot = METRICS.snapshot()
    if args.trace_out:
        meta = {"source": args.source, "argv": " ".join(sys.argv[1:])}
        count = write_trace(args.trace_out, trace.roots, snapshot, meta)
        print("wrote %d telemetry events to %s" % (count, args.trace_out),
              file=sys.stderr)
    if args.metrics:
        print()
        print(render_metrics(snapshot))


def _run_all_modes(program, settings, args):
    """Analyze every declared mode; exit 0 only if all are PROVED.

    One :class:`~repro.methods.MethodRunner` serves every mode, so the
    inter-argument environment is inferred once and dualizations are
    shared across modes; ``--stats`` prints the merged stage trace.
    """
    declarations = program.mode_declarations
    if not declarations:
        print("no ':- mode(...)' declarations found", file=sys.stderr)
        return 2
    if args.jobs > 1:
        if args.timeout is not None or args.cache_dir:
            raise SystemExit(
                "--timeout/--cache-dir need --jobs 1 (the daemon is "
                "the parallel path with a deadline and a store)"
            )
        return _run_all_modes_parallel(program, declarations, settings, args)

    from repro.serve.pool import deadline

    store = None
    certificate_cache = None
    if args.cache_dir:
        from repro.serve.store import ResultStore, StoreCertificateCache

        store = ResultStore(args.cache_dir)
        if not args.no_incremental:
            certificate_cache = StoreCertificateCache(store)
    from repro.methods import MethodRunner

    runner = MethodRunner(
        settings=settings, certificate_cache=certificate_cache
    )
    merged = AnalysisTrace()
    worst = 0
    try:
        with deadline(args.timeout):
            for declaration in declarations:
                name, arity = declaration.indicator
                label = "%s/%d mode %s" % (name, arity, declaration.mode)
                try:
                    validate_query(program, declaration.indicator,
                                   declaration.mode)
                except ReproError as error:
                    print("%s: ERROR %s" % (label, error),
                          file=sys.stderr)
                    worst = 2
                    continue
                hit = _stored_status(store, program, declaration,
                                     settings)
                if hit is not None:
                    print("%s: %s (cached)" % (label, hit))
                    if hit != "PROVED":
                        worst = max(worst, 1)
                    continue
                result = runner.analyze(program, declaration.indicator,
                                        declaration.mode)
                merged.merge(result.trace)
                print("%s: %s" % (label, result.status))
                if store is not None:
                    _store_result(store, program, declaration, settings,
                                  result)
                if args.verify and result.proved and result.proof is not None:
                    verify_proof(result.proof)
                if not result.proved:
                    worst = max(worst, 1)
                    if args.verbose:
                        for failing in result.failing_sccs():
                            print("  reason: %s" % failing.reason)
    except AnalysisTimeout as error:
        print("analysis timed out: %s" % error, file=sys.stderr)
        return EXIT_TIMEOUT
    finally:
        if store is not None:
            store.close()
    if args.stats:
        print()
        print(render_stage_table(merged))
    _emit_telemetry(args, merged)
    return worst


def _stored_status(store, program, declaration, settings):
    """The stored verdict for one mode declaration, or None."""
    if store is None:
        return None
    import json as json_module

    from repro.serve.protocol import AnalyzeRequest

    request = AnalyzeRequest(
        source=str(program), root=declaration.indicator,
        mode=declaration.mode, settings=settings,
    )
    cached = store.get(request.key())
    if cached is None:
        return None
    return json_module.loads(cached).get("status")


def _store_result(store, program, declaration, settings, result):
    """Publish one fresh verdict to the persistent store."""
    from repro.serve.protocol import (
        AnalyzeRequest,
        payload_from_result,
        payload_text,
    )

    request = AnalyzeRequest(
        source=str(program), root=declaration.indicator,
        mode=declaration.mode, settings=settings,
    )
    store.put(
        request.key(), payload_text(payload_from_result(result)),
        root="%s/%d" % declaration.indicator, mode=declaration.mode,
    )


def _run_all_modes_parallel(program, declarations, settings, args):
    """Fan the declared modes over ``--jobs`` worker processes.

    Items carry the program's clause text (workers re-parse their own
    copy — analysis objects do not cross process boundaries), and each
    worker's stage trace is merged for ``--stats``.
    """
    from repro.batch import BatchItem, analyze_many

    if args.verify:
        raise SystemExit(
            "--verify needs --jobs 1 (certificates stay in the workers)"
        )
    source = str(program)
    items = [
        BatchItem(
            name="%s/%d" % declaration.indicator,
            source=source,
            root=declaration.indicator,
            mode=declaration.mode,
        )
        for declaration in declarations
    ]
    report = analyze_many(items, jobs=args.jobs, settings=settings)
    worst = 0
    for declaration, result in zip(declarations, report.results):
        name, arity = declaration.indicator
        print("%s/%d mode %s: %s" % (name, arity, declaration.mode,
                                     result.status))
        if result.status == "ERROR":
            print("  error: %s" % result.error, file=sys.stderr)
            worst = 2
        elif not result.proved:
            worst = max(worst, 1)
            if args.verbose:
                for reason in result.reasons:
                    print("  reason: %s" % reason)
    if args.stats:
        print()
        print(render_stage_table(report.trace))
    _emit_telemetry(args, report.trace)
    return worst


def build_trace_parser():
    """Construct the argparse parser for ``repro-trace``."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Render a JSONL telemetry stream written by "
        "'repro-analyze --trace-out' as a top-down time tree "
        "(widest subtree first) plus the recorded metrics.",
    )
    parser.add_argument("trace", help="JSONL trace file to render")
    parser.add_argument(
        "--depth", type=int, default=None, metavar="N",
        help="collapse spans deeper than N levels",
    )
    parser.add_argument(
        "--min-ms", type=float, default=0.0, metavar="MS",
        help="hide spans shorter than MS milliseconds",
    )
    parser.add_argument(
        "--no-metrics", action="store_true",
        help="show only the span tree, not the metric events",
    )
    return parser


def trace_main(argv=None):
    """``repro-trace`` entry point; returns the process exit code."""
    args = build_trace_parser().parse_args(argv)
    from repro.obs import read_trace, render_metrics, render_tree

    try:
        meta, roots, snapshot = read_trace(args.trace)
    except (OSError, ValueError) as error:
        print("trace error: %s" % error, file=sys.stderr)
        return 2
    described = {
        key: value for key, value in meta.items()
        if key not in ("event", "schema")
    }
    try:
        if described:
            print("trace %s (%s)" % (args.trace, ", ".join(
                "%s=%s" % pair for pair in sorted(described.items())
            )))
        print(render_tree(roots, max_depth=args.depth, min_ms=args.min_ms))
        if not args.no_metrics and any(snapshot.get(k) for k in snapshot):
            print()
            print(render_metrics(snapshot))
    except BrokenPipeError:
        # Piped into head/less and the reader left; that's fine.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
