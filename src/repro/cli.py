"""Command-line interface: ``python -m repro``.

Subcommands:

* ``verify`` — run one verification method on one model::

      python -m repro verify --model fifo --depth 5 --method xici
      python -m repro verify --model pipeline --regs 2 --bits 1 \\
          --method xici --bug no-bypass --show-trace

  (A bare invocation — ``python -m repro --model fifo ...`` — still
  works as a deprecated alias for ``verify``.)

* ``serve`` — run the verification job server (see docs/SERVICE.md)::

      python -m repro serve --port 8080 --ledger runs/ --token s3cret

* ``tables`` — regenerate the paper's tables (paper-vs-measured)::

      python -m repro tables --table 1-fifo
      python -m repro tables --table all --scale paper

* ``bench-report`` — render a ``BENCH_*.json`` benchmark report, or
  gate one against a baseline (``--against``; exit 1 on regressions).
  The baseline may be a report file or ``perf:<n>`` — a recorded perf
  history point (``perf:-1`` = latest).

* ``perf`` — the perf trajectory observatory
  (docs/OBSERVABILITY.md, "Perf trajectory")::

      python -m repro perf record report.json --ledger runs/
      python -m repro perf trend --ledger runs/
      python -m repro perf attribute "run:fifo-8/XICI/<hash>" \\
          --ledger runs/
      python -m repro perf report --ledger runs/ --output report.md

* ``models`` — list available models and their parameters.

Machine-readable runs: ``verify --json`` prints the
:meth:`VerificationResult.to_dict` schema, ``--trace FILE`` streams
structured engine events as JSONL (render with
``benchmarks/trace_report.py``), and ``--trace-summary`` prints the
aggregated per-run tally.  ``--metrics FILE`` collects counters,
histograms, and the resource-sampler timeline and writes them to FILE
(JSONL; a ``.prom`` suffix switches to the Prometheus textfile
format); ``--metrics-summary`` prints the one-shot metrics report.

Span profiling and the run ledger: ``--spans FILE`` records the nested
phase spans and writes a Chrome Trace Event JSON (Perfetto-loadable; a
``.speedscope.json`` suffix switches to the speedscope format);
``--spans-summary`` prints the self-time rollup.  ``--heartbeat SECS``
prints live progress lines to stderr while the run works.
``--ledger DIR`` archives the finished run content-addressed;
``repro ledger`` lists/shows archived runs and
``repro compare RUN_A RUN_B`` diffs two of them phase-by-phase.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .core import METHODS, Options, Problem, verify
from .fsm.image import BACK_IMAGE_MODES
from .iclist.evaluate import GROW_THRESHOLD
from .models import MODELS
from .obs import MetricsRegistry, SpanProfiler, ledger, render_report, \
    render_rollup, write_jsonl, write_prometheus
from .obs import benchjson, perf, trend
from .trace import JsonlTracer, RecordingTracer, Tracer
from .bench.tables import table1_fifo, table1_movavg, table1_network, \
    table2_movavg_unassisted, table3_pipeline

__all__ = ["main"]

_MODEL_HELP = {name: spec.help for name, spec in MODELS.items()}

_TABLES: Dict[str, Callable[[str], object]] = {
    "1-fifo": table1_fifo,
    "1-network": table1_network,
    "1-movavg": table1_movavg,
    "2": table2_movavg_unassisted,
    "3": table3_pipeline,
}


def _build_problem(args: argparse.Namespace) -> Problem:
    spec = MODELS[args.model]
    params = {name: getattr(args, name) for name in spec.params}
    return spec.build(bug=args.bug, **params)


def _make_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    if getattr(args, "trace", None):
        return JsonlTracer(args.trace)
    if getattr(args, "trace_summary", False):
        return RecordingTracer()
    return None


def _make_metrics(args: argparse.Namespace) -> Optional[MetricsRegistry]:
    if getattr(args, "metrics", None) \
            or getattr(args, "metrics_summary", False):
        return MetricsRegistry()
    return None


def _make_spans(args: argparse.Namespace) -> Optional[SpanProfiler]:
    if getattr(args, "spans", None) \
            or getattr(args, "spans_summary", False) \
            or getattr(args, "ledger", None):
        return SpanProfiler()
    return None


def _write_spans(spans: SpanProfiler, path: str,
                 args: argparse.Namespace) -> None:
    if path.endswith(".speedscope.json"):
        spans.write_speedscope(path,
                               name=f"{args.model}/{args.method}")
    else:
        spans.write_chrome_trace(path)


def _write_metrics(registry: MetricsRegistry, path: str,
                   args: argparse.Namespace) -> None:
    if path.endswith(".prom"):
        write_prometheus(registry, path)
    else:
        write_jsonl(registry, path,
                    meta={"model": args.model, "method": args.method})


def _cmd_verify(args: argparse.Namespace) -> int:
    problem = _build_problem(args)
    tracer = _make_tracer(args)
    metrics = _make_metrics(args)
    spans = _make_spans(args)
    options = Options.from_args(args, tracer=tracer, metrics=metrics,
                                spans=spans)
    try:
        result = verify(problem, args.method, options,
                        assisted=args.assisted)
    finally:
        if tracer is not None:
            tracer.close()
    if metrics is not None and args.metrics:
        _write_metrics(metrics, args.metrics, args)
    if spans is not None and args.spans:
        _write_spans(spans, args.spans, args)
    if args.ledger:
        run_id = ledger.record_run(args.ledger, result,
                                   config=options.summary(), spans=spans)
        print(f"ledger: {run_id}", file=sys.stderr)
        # Every archived CLI run also contributes one trajectory point
        # to the perf history store, keyed by the same canonical
        # request hash the job server uses.  Best-effort: a broken
        # history file must not fail the verification.
        try:
            from .core.options import request_hash
            spec = MODELS[args.model]
            params = {name: getattr(args, name) for name in spec.params}
            req_hash = request_hash(args.model, args.method,
                                    params=params, bug=args.bug,
                                    assisted=args.assisted,
                                    options=options)
            perf.record_run_point(
                args.ledger,
                ledger.run_document(result, config=options.summary()),
                run_id=run_id, request_hash=req_hash, source="cli")
        except OSError:
            pass
    if args.json:
        print(result.to_json(indent=2))
    else:
        print(f"model     : {problem.name} — {problem.description}")
        print(f"method    : {result.method}"
              + (" (+assisting invariants)" if args.assisted else ""))
        print(f"outcome   : {result.outcome}")
        print(f"iterations: {result.iterations}")
        print(f"time      : {result.elapsed_seconds:.2f}s")
        print(f"largest iterate: {result.max_iterate_profile} nodes")
        print(f"peak table: {result.peak_nodes} nodes "
              f"(~{result.estimated_memory_kb}K)")
        if args.stats:
            _print_stats(result)
        if args.trace_summary and result.trace_summary is not None:
            print("trace summary:")
            print(json.dumps(result.trace_summary, indent=2, default=str))
        if args.metrics_summary and metrics is not None:
            print(render_report(metrics))
        if args.spans_summary and result.span_rollup is not None:
            print(render_rollup(result.span_rollup))
        if result.trace is not None and args.show_trace:
            print(f"counterexample ({len(result.trace)} states):")
            print(result.trace.pretty())
    if result.violated:
        return 1
    if result.exhausted:
        return 2
    return 0


def _print_stats(result) -> None:
    """Render the unified statistics block (``verify --stats``)."""
    print("bdd stats (this run):")
    for key in sorted(result.bdd_stats):
        print(f"  {key:<22} {result.bdd_stats[key]}")
    eval_stats = result.extra.get("evaluation_stats")
    if eval_stats is not None:
        summary = eval_stats.ratio_summary()
        print("evaluator:")
        print(f"  pairs_built            {eval_stats.pairs_built}")
        print(f"  pairs_aborted          {eval_stats.pairs_aborted}")
        print(f"  merges                 {eval_stats.merges}")
        print(f"  merge ratios           count={summary['count']} "
              f"min={summary['min']:.3f} mean={summary['mean']:.3f} "
              f"max={summary['max']:.3f}")


def _cmd_ledger(args: argparse.Namespace) -> int:
    if args.action == "show":
        if not args.run_id:
            print("ledger show needs a RUN_ID", file=sys.stderr)
            return 2
        run_id, doc = ledger.load_run(args.dir, args.run_id)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    runs = ledger.list_runs(args.dir)
    if args.ids:
        for run_id, _doc in runs:
            print(run_id)
        return 0
    if not runs:
        print(f"(no runs in {args.dir})")
        return 0
    print(f"{'run id':<14} {'model':<12} {'method':<6} "
          f"{'outcome':<24} {'iters':>5} {'seconds':>9}")
    for run_id, doc in runs:
        result = doc.get("result", {})
        print(f"{run_id:<14} {doc.get('model', '?'):<12} "
              f"{doc.get('method', '?'):<6} "
              f"{str(result.get('outcome')):<24} "
              f"{str(result.get('iterations')):>5} "
              f"{float(result.get('elapsed_seconds') or 0.0):>9.4f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    id_a, doc_a = ledger.load_run(args.dir, args.run_a)
    id_b, doc_b = ledger.load_run(args.dir, args.run_b)
    diff = ledger.diff_runs(doc_a, doc_b)
    if args.json:
        print(json.dumps({"run_a": id_a, "run_b": id_b, **diff},
                         indent=2, sort_keys=True))
    else:
        print(ledger.render_run_diff(id_a, doc_a, id_b, doc_b, diff))
    return 0 if diff["passed"] else 1


def _cmd_tables(args: argparse.Namespace) -> int:
    names = list(_TABLES) if args.table == "all" else [args.table]
    for name in names:
        report = _TABLES[name](scale=args.scale)
        print(report.format())
        print()
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .fsm import analyze
    problem = _build_problem(args)
    report = analyze(problem.machine, explore=args.explore)
    print(report.format())
    print(f"  property conjuncts: {len(problem.good_conjuncts)}")
    if problem.assisting_invariants:
        print(f"  assisting invariants: "
              f"{len(problem.assisting_invariants)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServerConfig, VerificationServer, tokens_from_env
    tokens = tuple(args.token or []) + tuple(tokens_from_env())
    config = ServerConfig(
        host=args.host, port=args.port, tokens=tokens,
        rate=args.rate, burst=args.burst, workers=args.workers,
        queue_limit=args.queue_limit, ledger_dir=args.ledger,
        cache=not args.no_cache, job_heartbeat=args.job_heartbeat,
        job_ttl=args.job_ttl, max_finished_jobs=args.max_finished_jobs,
        log_requests=not args.quiet, access_log=args.access_log,
        metrics=not args.no_metrics)
    server = VerificationServer(config)
    print(f"repro serve: listening on {server.url} "
          f"(auth {'on' if server.service.auth.enabled else 'OPEN'}, "
          f"workers {config.workers}, queue {config.queue_limit}, "
          f"ledger {config.ledger_dir or 'off'})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    return 0


def _cmd_serve_report(args: argparse.Namespace) -> int:
    from .obs.exporters import parse_prometheus, read_jsonl
    from .serve.telemetry import render_service_report
    if args.url:
        from .client import ServiceClient
        client = ServiceClient(args.url, token=args.token)
        data = parse_prometheus(client.metrics())
        source = args.url + "/v1/metrics"
    elif args.source:
        source = args.source
        if args.source.endswith((".jsonl", ".json")):
            data = read_jsonl(args.source).get("summary") or {}
        else:
            with open(args.source, "r", encoding="utf-8") as handle:
                data = parse_prometheus(handle.read())
    else:
        print("serve-report: give a SOURCE file (.prom scrape or "
              "metrics .jsonl) or --url", file=sys.stderr)
        return 2
    print(render_service_report(data, source=source))
    return 0


def _bench_report_baseline(args: argparse.Namespace,
                           report: Dict[str, object]):
    """Resolve ``--against``: a report file, or ``perf:<n>`` — the
    n-th history point for this report's benchmark (negatives count
    from the latest, so ``perf:-1`` is the most recent)."""
    if not args.against.startswith("perf:"):
        return benchjson.load_report(args.against)
    spec = args.against[len("perf:"):]
    try:
        index = int(spec)
    except ValueError:
        raise SystemExit(f"bench-report: malformed history point "
                         f"{args.against!r} (expected perf:<n>)")
    bench = report.get("benchmark", "?")
    points = [point for point in perf.load_history(args.ledger)
              if (point.get("benchmark") or perf.RUN_BENCHMARK) == bench]
    if not points:
        raise SystemExit(
            f"bench-report: no history points for benchmark "
            f"{bench!r} under {perf.history_path(args.ledger)}")
    try:
        point = points[index]
    except IndexError:
        raise SystemExit(
            f"bench-report: history point {index} out of range "
            f"({len(points)} point(s) for {bench!r})")
    return perf.point_as_report(point)


def _cmd_bench_report(args: argparse.Namespace) -> int:
    report = benchjson.load_report(args.report)
    if args.against:
        baseline = _bench_report_baseline(args, report)
        diff = ledger.diff_reports(baseline, report)
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            for note in diff["notes"]:
                print(f"note: {note}")
            for violation in diff["violations"]:
                print(f"REGRESSION: {violation}")
            print(f"{diff['benchmark']}: "
                  f"{'PASS' if diff['passed'] else 'FAIL'} "
                  f"({len(diff['cells'])} cells, "
                  f"{len(diff['violations'])} violations)")
        return 0 if diff["passed"] else 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"benchmark : {report.get('benchmark', '?')} "
          f"(scale {report.get('scale', '?')}, "
          f"rounds {report.get('rounds', '?')})")
    entries = report.get("entries", [])
    if not entries:
        print("(no entries)")
        return 0
    print(f"{'model':<12} {'method':<6} {'config':<16} "
          f"{'outcome':<22} {'iters':>5} {'peak':>8} {'seconds':>9}")
    for entry in entries:
        metrics = entry.get("metrics", {})
        print(f"{entry.get('model', '?'):<12} "
              f"{entry.get('method', '?'):<6} "
              f"{entry.get('config', '?'):<16} "
              f"{str(metrics.get('outcome')):<22} "
              f"{str(metrics.get('iterations', '-')):>5} "
              f"{str(metrics.get('peak_nodes', '-')):>8} "
              f"{float(metrics.get('seconds') or 0.0):>9.4f}")
    if report.get("derived"):
        print("derived:")
        for key in sorted(report["derived"]):
            print(f"  {key}: {report['derived'][key]}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    cp_kwargs = {"min_points": args.min_points}
    if args.action == "record":
        if not args.targets:
            print("perf record: give at least one benchjson report "
                  "file or run:<ledger run id>", file=sys.stderr)
            return 2
        # Read once: a point's index is its position in the history.
        points = perf.load_history(args.ledger)
        for target in args.targets:
            if target.startswith("run:"):
                run_id, doc = ledger.load_run(args.ledger,
                                              target[len("run:"):])
                entry = None
                for request in \
                        (Path(args.ledger) / "requests").glob("*.json") \
                        if (Path(args.ledger) / "requests").is_dir() \
                        else []:
                    candidate = json.loads(
                        request.read_text(encoding="utf-8"))
                    if candidate.get("run_id") == run_id:
                        entry = candidate
                        break
                req_hash = (entry or {}).get("request_hash")
                if req_hash is None:
                    # CLI-verified runs have no request-index entry;
                    # an earlier point for the same run still knows it.
                    for prior in points:
                        if prior.get("run_id") == run_id \
                                and prior.get("request_hash"):
                            req_hash = prior["request_hash"]
                            break
                point = perf.record_run_point(
                    args.ledger, doc, run_id=run_id,
                    request_hash=req_hash, source="cli")
            else:
                report = benchjson.load_report(target)
                point = perf.record_report_point(
                    args.ledger, report, source=args.source)
            print(f"recorded history point #{len(points)} from {target}")
            points.append(point)
        return 0
    points = perf.load_history(args.ledger)
    if args.action == "attribute":
        if len(args.targets) != 1:
            print("perf attribute: give exactly one cell label "
                  "(benchmark:model/method/config)", file=sys.stderr)
            return 2
        key = perf.parse_cell_label(args.targets[0])
        result = perf.attribute(points, key, metric=args.metric,
                                before=args.before, after=args.after,
                                **cp_kwargs)
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True,
                             default=str))
        else:
            print(perf.render_attribution(result))
        return 0
    if args.action == "report":
        text = perf.render_report(points, metric=args.metric,
                                  **cp_kwargs)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
        if args.fail_on_changepoint:
            rows = perf.trend_rows(points, metric=args.metric,
                                   **cp_kwargs)
            flagged = [row["label"] for row in rows
                       if row["status"] == "changepoint"]
            if flagged:
                print(f"changepoint(s) confirmed: "
                      f"{', '.join(flagged)}", file=sys.stderr)
                return 1
        return 0
    # trend
    rows = perf.trend_rows(points, metric=args.metric,
                           benchmark=args.benchmark, **cp_kwargs)
    if args.json:
        slim = [{k: v for k, v in row.items() if k != "series"}
                for row in rows]
        print(json.dumps(slim, indent=2, sort_keys=True, default=str))
    else:
        print(perf.render_trend(rows, metric=args.metric))
    if args.fail_on_changepoint \
            and any(row["status"] == "changepoint" for row in rows):
        return 1
    return 0


def _cmd_models(_args: argparse.Namespace) -> int:
    print("available models:")
    for name, help_text in _MODEL_HELP.items():
        print(f"  {name:<13} {help_text}")
    print("\nmethods: " + " ".join(METHODS))
    return 0


def _add_verify_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "verify", help="run one verification method on one model")
    parser.add_argument("--model", required=True, choices=sorted(_MODEL_HELP))
    parser.add_argument("--method", default="xici", choices=list(METHODS))
    parser.add_argument("--assisted", action="store_true",
                        help="add the model's assisting invariants")
    parser.add_argument("--bug", default=None,
                        help="inject a model-specific bug")
    parser.add_argument("--show-trace", action="store_true")
    # model parameters
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--procs", type=int, default=3)
    parser.add_argument("--regs", type=int, default=2)
    parser.add_argument("--bits", type=int, default=1)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--phils", type=int, default=4)
    parser.add_argument("--caches", type=int, default=3)
    # engine knobs
    parser.add_argument("--max-nodes", type=int, default=None)
    parser.add_argument("--time-limit", type=float, default=None)
    parser.add_argument("--grow-threshold", type=float,
                        default=GROW_THRESHOLD)
    parser.add_argument("--evaluator", default="greedy",
                        choices=["greedy", "matching"])
    parser.add_argument("--simplifier", default="restrict",
                        choices=["restrict", "constrain", "multiway"])
    parser.add_argument("--bounded-and", action="store_true")
    parser.add_argument("--stats", action="store_true",
                        help="print BDD.stats() and the evaluator's "
                             "counters after the run")
    parser.add_argument("--back-image", default="auto",
                        choices=BACK_IMAGE_MODES,
                        help="BackImage algorithm: per conjunct (auto, "
                             "the default), vector compose, or the "
                             "clustered relational product")
    parser.add_argument("--monotone", action="store_true",
                        help="one-directional termination test")
    parser.add_argument("--auto-decompose", action="store_true",
                        help="split monolithic property conjuncts "
                             "into independent factors first")
    # observability
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="stream structured engine events to FILE "
                             "as JSONL (one event per line)")
    parser.add_argument("--trace-summary", action="store_true",
                        help="print the aggregated trace summary "
                             "after the run")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="collect run metrics and write them to "
                             "FILE: JSONL timeline by default, the "
                             "Prometheus textfile format when FILE "
                             "ends in .prom")
    parser.add_argument("--metrics-summary", action="store_true",
                        help="print the one-shot metrics report "
                             "(counters, gauges, histograms) after "
                             "the run")
    parser.add_argument("--spans", metavar="FILE", default=None,
                        help="profile nested phase spans and write a "
                             "Chrome Trace Event JSON for Perfetto / "
                             "chrome://tracing (a .speedscope.json "
                             "suffix switches to the speedscope "
                             "flamegraph format)")
    parser.add_argument("--spans-summary", action="store_true",
                        help="print the per-span self-time rollup "
                             "table after the run")
    parser.add_argument("--heartbeat", type=float, metavar="SECS",
                        default=None,
                        help="print a live progress line to stderr "
                             "every SECS seconds while the run works")
    parser.add_argument("--heartbeat-stall", type=float, metavar="SECS",
                        default=None,
                        help="flag a stall when no safe point is "
                             "reached for SECS seconds (default: "
                             "max(5*heartbeat, 30))")
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="archive the finished run (config, "
                             "result, metrics, span rollup) as a "
                             "content-addressed entry in DIR; implies "
                             "span profiling")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable result "
                             "(VerificationResult.to_dict) and suppress "
                             "the human-readable report")
    parser.set_defaults(func=_cmd_verify)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Implicitly conjoined BDDs (Hu/York/Dill, DAC 1994)")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_verify_parser(subparsers)

    tables = subparsers.add_parser(
        "tables", help="regenerate the paper's tables")
    tables.add_argument("--table", default="all",
                        choices=sorted(_TABLES) + ["all"])
    tables.add_argument("--scale", default="quick",
                        choices=["quick", "paper"])
    tables.set_defaults(func=_cmd_tables)

    models = subparsers.add_parser("models", help="list available models")
    models.set_defaults(func=_cmd_models)

    serve = subparsers.add_parser(
        "serve", help="run the verification job server "
                      "(see docs/SERVICE.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1; "
                            "configure tokens before binding wider)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 = ephemeral; default 8080)")
    serve.add_argument("--token", action="append", metavar="TOKEN",
                       help="accepted bearer token (repeatable; also "
                            "read comma-separated from "
                            "$REPRO_SERVE_TOKENS; none = open server)")
    serve.add_argument("--rate", type=float, default=None,
                       metavar="PER_SEC",
                       help="job submissions per second per token "
                            "(default: unlimited)")
    serve.add_argument("--burst", type=float, default=10.0,
                       help="rate-limit burst capacity (default 10)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker threads executing jobs (default 2)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="max queued jobs before 429 backpressure "
                            "(default 16)")
    serve.add_argument("--ledger", metavar="DIR", default=None,
                       help="archive finished runs in DIR and serve "
                            "identical requests from it (the "
                            "request-hash cache)")
    serve.add_argument("--no-cache", action="store_true",
                       help="archive runs but never serve cached "
                            "results")
    serve.add_argument("--job-heartbeat", type=float, default=1.0,
                       metavar="SECS",
                       help="heartbeat cadence injected into jobs "
                            "that do not set one (default 1.0)")
    serve.add_argument("--job-ttl", type=float, default=None,
                       metavar="SECS",
                       help="retire finished jobs SECS seconds after "
                            "completion (default: keep until "
                            "--max-finished-jobs evicts them)")
    serve.add_argument("--max-finished-jobs", type=int, default=1024,
                       metavar="N",
                       help="retain at most N finished jobs, oldest "
                            "retired first (default 1024; 0 retains "
                            "none once read)")
    serve.add_argument("--access-log", metavar="FILE", default=None,
                       help="append structured JSONL access-log "
                            "records to FILE (default: stderr unless "
                            "--quiet)")
    serve.add_argument("--no-metrics", action="store_true",
                       help="disable server-lifetime metrics "
                            "(/v1/metrics answers 404)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access-log lines")
    serve.set_defaults(func=_cmd_serve)

    serve_report = subparsers.add_parser(
        "serve-report",
        help="render a markdown ops summary from job-server metrics "
             "(a saved /v1/metrics scrape, a metrics JSONL file, or "
             "a live server via --url)")
    serve_report.add_argument("source", nargs="?", default=None,
                              help="metrics source file: a Prometheus "
                                   "textfile (.prom) or metrics JSONL")
    serve_report.add_argument("--url", default=None, metavar="URL",
                              help="scrape a live server's /v1/metrics "
                                   "instead of reading a file")
    serve_report.add_argument("--token", default=None,
                              help="bearer token for --url")
    serve_report.set_defaults(func=_cmd_serve_report)

    bench_report = subparsers.add_parser(
        "bench-report",
        help="render a BENCH_*.json report, or gate it against a "
             "baseline")
    bench_report.add_argument("report", help="benchjson report file")
    bench_report.add_argument("--against", metavar="BASELINE",
                              default=None,
                              help="baseline to diff against (exit 1 "
                                   "on regressions): a report file, or "
                                   "perf:<n> — the n-th perf-history "
                                   "point for this benchmark "
                                   "(perf:-1 = latest)")
    bench_report.add_argument("--ledger", metavar="DIR",
                              default="repro-ledger",
                              help="ledger directory holding the perf "
                                   "history for --against perf:<n> "
                                   "(default: repro-ledger)")
    bench_report.add_argument("--json", action="store_true",
                              help="print the structured report/"
                                   "verdict instead of the table")
    bench_report.set_defaults(func=_cmd_bench_report)

    perf_parser = subparsers.add_parser(
        "perf",
        help="perf trajectory observatory: record history points, "
             "render trend tables, attribute regressions "
             "(see docs/OBSERVABILITY.md)")
    perf_parser.add_argument("action",
                             choices=["record", "trend", "attribute",
                                      "report"])
    perf_parser.add_argument("targets", nargs="*",
                             help="record: benchjson report files or "
                                  "run:<ledger run id>; attribute: one "
                                  "cell label "
                                  "(benchmark:model/method/config)")
    perf_parser.add_argument("--ledger", metavar="DIR",
                             default="repro-ledger",
                             help="ledger directory; the history store "
                                  "lives at DIR/perf/history.jsonl "
                                  "(default: repro-ledger)")
    perf_parser.add_argument("--metric", default="seconds",
                             help="cell metric to trend (default: "
                                  "seconds)")
    perf_parser.add_argument("--benchmark", default=None,
                             help="trend: restrict to one benchmark "
                                  "group")
    perf_parser.add_argument("--source", default="bench",
                             help="record: source tag for recorded "
                                  "points (default: bench)")
    perf_parser.add_argument("--before", type=int, default=None,
                             help="attribute: explicit series index of "
                                  "the baseline observation (default: "
                                  "last point before the changepoint)")
    perf_parser.add_argument("--after", type=int, default=None,
                             help="attribute: explicit series index of "
                                  "the regressed observation (default: "
                                  "first point after the changepoint)")
    perf_parser.add_argument("--min-points", type=int,
                             default=trend.MIN_TREND_POINTS,
                             help="observations before changepoint "
                                  "detection commits to a verdict "
                                  f"(default {trend.MIN_TREND_POINTS})")
    perf_parser.add_argument("--output", metavar="FILE", default=None,
                             help="report: write the markdown to FILE "
                                  "instead of stdout")
    perf_parser.add_argument("--fail-on-changepoint",
                             action="store_true",
                             help="trend/report: exit 1 when any cell "
                                  "has a confirmed changepoint")
    perf_parser.add_argument("--json", action="store_true",
                             help="print structured verdicts instead "
                                  "of markdown")
    perf_parser.set_defaults(func=_cmd_perf)

    ledger_parser = subparsers.add_parser(
        "ledger", help="list or show archived runs (see verify --ledger)")
    ledger_parser.add_argument("action", nargs="?", default="list",
                               choices=["list", "show"])
    ledger_parser.add_argument("run_id", nargs="?", default=None,
                               help="run id (or unique prefix) for show")
    ledger_parser.add_argument("--dir", default="repro-ledger",
                               help="ledger directory "
                                    "(default: repro-ledger)")
    ledger_parser.add_argument("--ids", action="store_true",
                               help="print bare run ids only")
    ledger_parser.set_defaults(func=_cmd_ledger)

    compare = subparsers.add_parser(
        "compare", help="diff two archived runs phase-by-phase "
                        "(exit 1 on regressions)")
    compare.add_argument("run_a", help="baseline run id (or prefix)")
    compare.add_argument("run_b", help="candidate run id (or prefix)")
    compare.add_argument("--dir", default="repro-ledger",
                         help="ledger directory (default: repro-ledger)")
    compare.add_argument("--json", action="store_true",
                         help="print the structured verdict instead "
                              "of markdown")
    compare.set_defaults(func=_cmd_compare)

    info = subparsers.add_parser(
        "info", help="structural report on one model")
    info.add_argument("--model", required=True,
                      choices=sorted(_MODEL_HELP))
    info.add_argument("--explore", action="store_true",
                      help="add a bounded explicit-state sweep")
    info.add_argument("--bug", default=None)
    for flag, default in (("--depth", 4), ("--width", 8), ("--procs", 3),
                          ("--regs", 2), ("--bits", 1), ("--nodes", 4),
                          ("--phils", 4), ("--caches", 3)):
        info.add_argument(flag, type=int, default=default)
    info.set_defaults(func=_cmd_info)

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0].startswith("-") \
            and argv[0] not in ("-h", "--help"):
        # Legacy bare invocation (pre-subcommand CLI): treat
        # ``repro --model fifo ...`` as ``repro verify --model fifo``.
        print("repro: bare invocation is deprecated; "
              "use 'repro verify ...'", file=sys.stderr)
        argv = ["verify"] + list(argv)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
