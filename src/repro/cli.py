"""Command-line interface: regenerate any paper table/figure from a shell.

Examples
--------
::

    repro-fsai suite                     # list the 72 synthetic cases
    repro-fsai table1 --quick            # Table 1 on the 12-case subset
    repro-fsai table2 --machine a64fx    # = paper Table 5
    repro-fsai figure3 --quick
    repro-fsai report -o EXPERIMENTS.md  # full campaign, all machines
    repro-fsai campaign --jobs 4 --timeout 300 --checkpoint-dir shards/
    repro-fsai campaign --resume --checkpoint-dir shards/   # pick up where killed
    repro-fsai trace 37                  # one traced case -> JSON + Chrome trace
    repro-fsai serve --cases 37 52       # HTTP door on the batching service
    repro-fsai bench-serve --gate        # serving bench, CI gates

``python -m repro`` is an alias for the installed script.  ``campaign`` and
``report`` accept ``--jobs/--timeout/--retries/--checkpoint-dir/--resume``
and then run through the fault-tolerant orchestrator
(``docs/campaign_orchestration.md``); both exit non-zero if any case
ultimately fails.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.arch.presets import MACHINES
from repro.collection.generators.fem import wathen
from repro.collection.export import export_suite
from repro.collection.suite import get_case, suite72
from repro.errors import CampaignIncompleteError
from repro.experiments.campaign import QUICK_CASE_IDS, run_campaign
from repro.experiments.orchestrator import run_campaign_parallel
from repro.experiments.figures import (
    figure1,
    figure2_series,
    figure3_histogram,
    figure4_histogram,
    figure7_histogram,
    render_bars,
    render_histogram,
)
from repro.experiments.filtering_compare import table3_rows
from repro.experiments.report import generate_report, run_all_campaigns
from repro.experiments.correlation import paper_correlations
from repro.experiments.sensitivity import render_sensitivity, sweep_model_parameters
from repro.experiments.runner import ExperimentConfig
from repro.fsai.registry import selectable_methods
from repro.experiments.tables import (
    extension_stats,
    setup_overhead,
    table1,
    table2,
    table3,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-fsai",
        description="Regenerate the tables/figures of the cache-aware FSAI paper.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, machine: bool = True, quick: bool = True,
            parallel: bool = False):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument(
            "-o", "--output", default=None,
            help="write the result to this file instead of stdout",
        )
        if machine:
            sp.add_argument(
                "--machine", default="skylake", choices=sorted(MACHINES),
                help="target machine model (default skylake)",
            )
            sp.add_argument(
                "--setup-backend", default=None, metavar="NAME",
                help="FSAI setup backend, a kernel-registry name: "
                     "numpy, or reference for the scalar oracle (slow "
                     "on large cases); default resolves "
                     "$REPRO_KERNEL_BACKEND, then numpy",
            )
        if quick:
            sp.add_argument(
                "--quick", action="store_true",
                help="use the 12-case cross-section instead of all 72 matrices",
            )
            sp.add_argument(
                "--cases", type=int, nargs="*", default=None,
                help="explicit Table 1 case ids to run",
            )
        if parallel:
            sp.add_argument(
                "--jobs", type=int, default=None, metavar="N",
                help="worker processes for the orchestrator "
                     "(default: one per CPU core)",
            )
            sp.add_argument(
                "--timeout", type=float, default=None, metavar="SECONDS",
                help="per-case wall-clock budget; over-budget cases are "
                     "killed and retried",
            )
            sp.add_argument(
                "--retries", type=int, default=1, metavar="N",
                help="extra attempts after a case fails/times out (default 1)",
            )
            sp.add_argument(
                "--checkpoint-dir", default=None, metavar="DIR",
                help="directory for JSONL checkpoint shards "
                     "(enables --resume)",
            )
            sp.add_argument(
                "--resume", action="store_true",
                help="skip cases already checkpointed in --checkpoint-dir",
            )
        return sp

    st = add("suite", "list the synthetic suite", machine=False, quick=False)
    st.add_argument(
        "--detail", action="store_true",
        help="include structural statistics per matrix (builds all 72)",
    )
    add("table1", "Table 1: per-matrix results")
    add("table2", "Tables 2/4/5: filter sweep on one machine")
    add("table3", "Table 3: filtering strategy comparison")
    add("figure1", "Figure 1: pattern extension demo", quick=False)
    add("figure2", "Figures 2/5/6: per-matrix time decrease")
    add("figure3", "Figure 3: L1 miss histograms")
    add("figure4", "Figure 4: Gflop/s histograms")
    add("figure7", "Figure 7: per-architecture improvement histograms")
    add("setup-overhead", "§7.4 setup overhead")
    add("extension-stats", "§7.7 extension size per architecture")
    add("sensitivity", "model-parameter robustness sweep")
    add("correlation", "paper-vs-measured rank correlations")
    exp = add("export-suite", "write the 72 matrices as MatrixMarket files",
              machine=False)
    exp.add_argument("directory", help="output directory for .mtx files")
    rep = add("report", "full EXPERIMENTS.md regeneration", machine=False,
              parallel=True)
    rep.add_argument("--no-table1", action="store_true", help="omit the long Table 1")
    cam = add("campaign",
              "orchestrated campaign on one machine: parallel workers, "
              "per-case timeout/retry, JSONL checkpoint/resume; exits 1 on "
              "any failure",
              parallel=True)
    cam.add_argument(
        "--methods", nargs="+", default=None, metavar="NAME",
        help="setup methods to run (default: fsaie_sp fsaie_full); any "
             "selectable registry method, e.g. the global iterative routes "
             "gsai_st / gsai_cheb / gsai_ns",
    )
    cam.add_argument(
        "--global-sweeps", type=int, default=None, metavar="N",
        help="sweep budget for the global iterative methods (default 30)",
    )
    tr = sub.add_parser(
        "trace",
        help="run one case under repro.trace and emit JSON + Chrome-trace "
             "files (see docs/tracing.md)",
    )
    tr.add_argument("case", type=int, help="Table 1 case id to trace")
    tr.add_argument(
        "--machine", default="skylake", choices=sorted(MACHINES),
        help="target machine model (default skylake)",
    )
    tr.add_argument(
        "--setup-backend", default=None, metavar="NAME",
        help="FSAI setup backend (see the table/figure commands)",
    )
    tr.add_argument(
        "--json", default=None, metavar="PATH",
        help="JSON trace output (default trace-case<ID>.json)",
    )
    tr.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="Chrome-trace output for chrome://tracing / Perfetto "
             "(default trace-case<ID>.chrome.json)",
    )
    tr.add_argument(
        "-o", "--output", default=None,
        help="write the phase summary to this file instead of stdout",
    )
    sv = sub.add_parser(
        "serve",
        help="HTTP front door over the micro-batching solver service "
             "(stdlib http.server only; docs/serving.md)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=8787,
        help="listen port (0 picks a free one; default 8787)",
    )
    sv.add_argument(
        "--window-ms", type=float, default=2.0,
        help="micro-batching window in milliseconds (default 2)",
    )
    sv.add_argument(
        "--max-batch", type=int, default=32,
        help="max requests fused into one blocked solve (default 32)",
    )
    sv.add_argument(
        "--queue-capacity", type=int, default=128,
        help="admission queue bound; beyond it requests are rejected "
             "with HTTP 429 (default 128)",
    )
    sv.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="serve from a fingerprint-sharded pool of N worker "
             "processes (shared-memory operator store); 0 = in-process "
             "dispatcher (default)",
    )
    sv.add_argument(
        "--cases", type=int, nargs="*", default=None,
        help="pre-register these Table 1 suite operators at startup",
    )
    sv.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request to stderr",
    )
    bs = sub.add_parser(
        "bench-serve",
        help="serving bench: micro-batching throughput vs serial solving, "
             "batching/caching and overload-shedding gates (docs/serving.md)",
    )
    bs.add_argument(
        "-o", "--output", default=None,
        help="write the summary to this file instead of stdout",
    )
    bs.add_argument(
        "--requests", type=int, default=96,
        help="requests in the replayed mixed-operator stream (default 96)",
    )
    bs.add_argument(
        "--grids", type=int, nargs="+", default=None, metavar="SIDE",
        help="poisson2d grid sides, one operator each (default 12 16)",
    )
    bs.add_argument(
        "--window-ms", type=float, default=5.0,
        help="micro-batching window in milliseconds (default 5)",
    )
    bs.add_argument("--max-batch", type=int, default=32)
    bs.add_argument("--queue-capacity", type=int, default=256)
    bs.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="bench the N-worker multi-process pool instead of the "
             "in-process dispatcher (default 0 = in-process)",
    )
    bs.add_argument(
        "--overload-burst", type=int, default=48,
        help="burst size for the forced-overload phase; 0 disables it",
    )
    bs.add_argument(
        "--no-baseline", action="store_true",
        help="skip the serial baseline (no speedup reported)",
    )
    bs.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="also gate served-vs-serial speedup at this floor",
    )
    bs.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full report (metrics, counters, gates) as JSON",
    )
    bs.add_argument(
        "--gate", action="store_true",
        help="exit 1 when any gate fails (CI mode)",
    )
    return p


def _case_ids(args) -> Optional[Sequence[int]]:
    if getattr(args, "cases", None):
        return args.cases
    if getattr(args, "quick", False):
        return QUICK_CASE_IDS
    return None


def _trace_case(args) -> str:
    """Run one case under tracing; write both exports, return the summary."""
    from repro.experiments.runner import run_case

    case = get_case(args.case)
    cfg = ExperimentConfig(
        machine=args.machine, setup_backend=args.setup_backend
    )
    t0 = time.perf_counter()
    with trace.collecting() as collector:
        result = run_case(case, cfg)
    wall = time.perf_counter() - t0
    summary = trace.TraceSummary.from_collector(collector)
    label = f"case {case.case_id} ({case.name}) on {cfg.machine}"
    json_path = args.json or f"trace-case{case.case_id}.json"
    chrome_path = args.chrome or f"trace-case{case.case_id}.chrome.json"
    trace.write_json(json_path, summary, label=label)
    trace.write_chrome_trace(chrome_path, summary)
    lines = [
        f"traced {label}: wall {wall:.3f}s, "
        f"spans cover {summary.total_seconds():.3f}s "
        f"({100.0 * summary.total_seconds() / wall:.1f}%)",
        f"wrote {json_path} (schema {trace.JSON_SCHEMA}) and {chrome_path}",
        "",
    ]
    lines += summary.summary_lines()
    if result.trace_summary is not None:
        lines.append("")
        lines.append(
            f"case result carries trace_summary with "
            f"{sum(1 for _ in result.trace_summary.iter_spans())} span(s)"
        )
    return "\n".join(lines)


def _campaign(args, *, random_baseline: bool = False):
    cfg = ExperimentConfig(
        machine=getattr(args, "machine", "skylake"),
        include_random_baseline=random_baseline,
        setup_backend=getattr(args, "setup_backend", None),
    )
    return run_campaign(
        cfg, case_ids=_case_ids(args),
        progress=lambda msg: print(msg, file=sys.stderr),
    )


def _serve(args) -> int:
    """Run the stdlib HTTP front door until interrupted."""
    from repro.serve.client import InProcessClient
    from repro.serve.http import make_server
    from repro.serve.pool import MultiProcessClient

    client_kwargs = dict(
        window_seconds=args.window_ms / 1e3,
        max_batch=args.max_batch,
        queue_capacity=args.queue_capacity,
    )
    if args.workers > 0:
        client = MultiProcessClient(args.workers, **client_kwargs)
    else:
        client = InProcessClient(**client_kwargs)
    client.start()
    try:
        for case_id in args.cases or []:
            case = get_case(case_id)
            fingerprint = client.register(case.build())
            print(
                f"registered case {case_id} ({case.name}) as "
                f"{fingerprint[:16]}",
                file=sys.stderr,
            )
        server = make_server(
            client, host=args.host, port=args.port, verbose=args.verbose
        )
        try:
            host, port = server.server_address[0], server.server_address[1]
            front = (
                f"{args.workers}-worker pool" if args.workers > 0
                else "in-process dispatcher"
            )
            print(
                f"serving on http://{host}:{port} via {front} "
                f"(window {args.window_ms}ms, max batch {args.max_batch}, "
                f"queue {args.queue_capacity}; Ctrl-C to stop)",
                file=sys.stderr,
            )
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        finally:
            server.server_close()
    finally:
        client.close()
    return 0


def _bench_serve(args) -> int:
    """Run the serving bench; report to stdout, gates drive the exit code."""
    import json

    from repro.serve.benchrun import ServingBenchConfig, run_serving_bench

    kwargs = dict(
        requests=args.requests,
        window_seconds=args.window_ms / 1e3,
        max_batch=args.max_batch,
        queue_capacity=args.queue_capacity,
        overload_burst=args.overload_burst,
        baseline=not args.no_baseline,
        min_speedup=args.min_speedup,
        workers=args.workers,
    )
    if args.grids:
        kwargs["grids"] = tuple(args.grids)
    report = run_serving_bench(
        ServingBenchConfig(**kwargs),
        progress=lambda message: print(message, file=sys.stderr),
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}", file=sys.stderr)
    out_text = "\n".join(report.summary_lines())
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out_text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(out_text)
    if args.gate and report.gate_failures:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out_text: str
    exit_code = 0

    if args.command == "serve":
        return _serve(args)
    if args.command == "bench-serve":
        return _bench_serve(args)

    if args.command == "suite":
        if getattr(args, "detail", False):
            from repro.collection.stats import suite_report

            out_text = suite_report()
        else:
            lines = [
                f"{c.case_id:>3} {c.name:24} {c.domain:26} {c.generator}"
                for c in suite72()
            ]
            out_text = "\n".join(lines)
    elif args.command == "table1":
        out_text = table1(_campaign(args))
    elif args.command == "table2":
        camp = _campaign(args)
        titles = {"skylake": "Table 2", "power9": "Table 4", "a64fx": "Table 5"}
        out_text = table2(camp, title=titles.get(camp.machine, "Filter sweep"))
    elif args.command == "table3":
        ids = _case_ids(args) or [c.case_id for c in suite72()]
        cases = [get_case(i) for i in ids]
        machine = MACHINES[getattr(args, "machine", "skylake")]
        rows = table3_rows(cases, ArrayPlacement.aligned(machine.line_bytes))
        out_text = table3(rows)
    elif args.command == "figure1":
        machine = MACHINES[args.machine]
        out_text = figure1(
            wathen(4, 4, seed=3), ArrayPlacement.aligned(machine.line_bytes)
        )
    elif args.command == "figure2":
        out_text = render_bars(figure2_series(_campaign(args)))
    elif args.command == "figure3":
        camp = _campaign(args, random_baseline=True)
        out_text = render_histogram(figure3_histogram(camp))
    elif args.command == "figure4":
        camp = _campaign(args, random_baseline=True)
        out_text = render_histogram(figure4_histogram(camp))
    elif args.command == "figure7":
        ids = _case_ids(args)
        campaigns = run_all_campaigns(
            case_ids=ids, progress=lambda m: print(m, file=sys.stderr)
        )
        out_text = render_histogram(figure7_histogram(list(campaigns.values())))
    elif args.command == "setup-overhead":
        out_text = setup_overhead(_campaign(args))
    elif args.command == "extension-stats":
        ids = _case_ids(args)
        campaigns = run_all_campaigns(
            case_ids=ids, progress=lambda m: print(m, file=sys.stderr)
        )
        out_text = extension_stats(campaigns.values())
    elif args.command == "correlation":
        out_text = paper_correlations(_campaign(args)).render()
    elif args.command == "sensitivity":
        ids = _case_ids(args) or QUICK_CASE_IDS
        points = sweep_model_parameters(
            ids, cache_scales=(0.25, 0.125, 0.0625), penalties=(4.0, 8.0, 16.0),
            machine=getattr(args, "machine", "skylake"),
        )
        out_text = render_sensitivity(points)
    elif args.command == "export-suite":
        ids = _case_ids(args)
        cases = None if ids is None else [get_case(i) for i in ids]
        paths = export_suite(args.directory, cases=cases)
        out_text = "\n".join(str(p) for p in paths)
    elif args.command == "report":
        try:
            out_text = generate_report(
                case_ids=_case_ids(args),
                progress=lambda m: print(m, file=sys.stderr),
                include_table1=not args.no_table1,
                jobs=args.jobs,
                timeout=args.timeout,
                retries=args.retries,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
            )
        except CampaignIncompleteError as exc:
            for failure in exc.failures:
                if failure.traceback:
                    print(failure.traceback, file=sys.stderr)
            print(f"report aborted: {exc}", file=sys.stderr)
            return 1
    elif args.command == "campaign":
        if args.resume and not args.checkpoint_dir:
            print("--resume requires --checkpoint-dir", file=sys.stderr)
            return 2
        cfg_kwargs = {}
        if args.methods is not None:
            unknown = [
                m for m in args.methods if m not in selectable_methods()
            ]
            if unknown:
                print(
                    f"unknown/unselectable method(s) {unknown}; choose from "
                    f"{' '.join(selectable_methods())}",
                    file=sys.stderr,
                )
                return 2
            cfg_kwargs["methods"] = tuple(args.methods)
        if args.global_sweeps is not None:
            cfg_kwargs["global_sweeps"] = args.global_sweeps
        cfg = ExperimentConfig(
            machine=args.machine,
            setup_backend=getattr(args, "setup_backend", None),
            **cfg_kwargs,
        )
        outcome = run_campaign_parallel(
            cfg,
            case_ids=_case_ids(args),
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            progress=lambda m: print(m, file=sys.stderr),
        )
        for failure in outcome.failures:
            if failure.traceback:
                print(failure.traceback, file=sys.stderr)
        out_text = "\n".join(outcome.summary_lines())
        exit_code = 0 if outcome.ok else 1
    elif args.command == "trace":
        out_text = _trace_case(args)
    else:  # pragma: no cover - argparse guards this
        raise SystemExit(f"unknown command {args.command}")

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out_text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        try:
            print(out_text)
        except BrokenPipeError:  # e.g. piped into `head`
            return exit_code
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
