"""Command-line entry point: list and run the paper's experiments.

Usage::

    python -m repro list
    python -m repro list --markdown               # docs/paper_map.md table
    python -m repro list --markdown --check docs/paper_map.md
    python -m repro run fig02 fig03 tab08
    python -m repro run all

Every experiment answers to two spellings: the dashed catalogue name
and the underscore module-style alias (``repro run ext-cluster-router``
== ``repro run ext_cluster_router``). The catalogue here is the single
source of truth — ``list --markdown`` generates the experiment table
embedded in ``docs/paper_map.md``, and CI fails if they drift.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Markers bounding the generated table inside docs/paper_map.md.
GENERATED_BEGIN = "<!-- BEGIN GENERATED: python -m repro list --markdown -->"
GENERATED_END = "<!-- END GENERATED -->"


@dataclass(frozen=True)
class Experiment:
    """One catalogue entry: how to run it and where it came from."""

    #: Module under :mod:`repro.experiments` exposing ``main()``.
    module: str
    #: One-line description (shown by ``repro list``).
    description: str
    #: Paper artifact reproduced (figure/table/section), or the
    #: extension's anchor in the paper.
    paper: str
    #: Benchmark script exercising the same driver, or ``None``.
    bench: Optional[str]
    #: Takes minutes rather than seconds.
    heavy: bool = False

    def aliases(self, name: str) -> str:
        """Both accepted spellings of ``name``, ``|``-separated."""
        underscore = name.replace("-", "_")
        return name if underscore == name else f"{name} | {underscore}"


#: Experiment catalogue, keyed by dashed name.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig02": Experiment(
        "fig02_prefill_kernel_overhead",
        "paged prefill kernel overhead",
        "Figure 2", "benchmarks/bench_fig02.py",
    ),
    "fig03": Experiment(
        "fig03_block_size_sensitivity",
        "vLLM kernel vs block size",
        "Figure 3", "benchmarks/bench_fig03.py",
    ),
    "fig04": Experiment(
        "fig04_alloc_bandwidth_demand",
        "decode throughput & alloc demand",
        "Figure 4", "benchmarks/bench_fig04.py",
    ),
    "tab03": Experiment(
        "tab03_vmm_latency",
        "VMM API latencies",
        "Table 3", "benchmarks/bench_tab03.py",
    ),
    "fig07": Experiment(
        "fig07_prefill_throughput",
        "prefill throughput, 4 back-ends",
        "Figure 7", "benchmarks/bench_fig07.py",
    ),
    "tab06": Experiment(
        "tab06_prefill_times",
        "prefill completion/attention times",
        "Table 6", "benchmarks/bench_tab06.py",
    ),
    "fig08": Experiment(
        "fig08_decode_throughput",
        "decode throughput (engine)",
        "Figure 8", "benchmarks/bench_fig08.py", heavy=True,
    ),
    "tab07": Experiment(
        "tab07_decode_kernel_latency",
        "decode kernel latencies",
        "Table 7", "benchmarks/bench_tab07.py",
    ),
    "fig09": Experiment(
        "fig09_offline_throughput",
        "offline end-to-end throughput",
        "Figure 9", "benchmarks/bench_fig09.py", heavy=True,
    ),
    "fig10": Experiment(
        "fig10_online_latency",
        "online latency CDFs",
        "Figure 10", "benchmarks/bench_fig10.py", heavy=True,
    ),
    "fig11": Experiment(
        "fig11_fa3_portability",
        "FA3 portability on H100",
        "Figure 11", "benchmarks/bench_fig11.py", heavy=True,
    ),
    "fig12": Experiment(
        "fig12_overlap_ablation",
        "overlapped allocation ablation",
        "Figure 12", "benchmarks/bench_fig12.py",
    ),
    "fig13": Experiment(
        "fig13_deferred_reclamation",
        "deferred reclamation ablation",
        "Figure 13", "benchmarks/bench_fig13.py",
    ),
    "fig14": Experiment(
        "fig14_page_size_effect",
        "page size vs kernel runtime",
        "Figure 14", "benchmarks/bench_fig14.py",
    ),
    "fig15": Experiment(
        "fig15_max_batch_size",
        "max batch vs page-group size",
        "Figure 15", "benchmarks/bench_fig15.py", heavy=True,
    ),
    "tab08": Experiment(
        "tab08_block_sizes",
        "block sizes per page-group & TP",
        "Table 8", "benchmarks/bench_tab08.py",
    ),
    "tab09": Experiment(
        "tab09_alloc_bandwidth",
        "allocation bandwidth",
        "Table 9", "benchmarks/bench_tab09.py",
    ),
    "tab10": Experiment(
        "tab10_tensor_slicing",
        "tensor-slicing block sizes",
        "Table 10", "benchmarks/bench_tab10.py",
    ),
    "ext-sharing": Experiment(
        "ext_prefix_sharing",
        "extension: prefix KV dedup",
        "S8.1", "benchmarks/bench_ext_sharing.py",
    ),
    "ext-prefix-cache": Experiment(
        "ext_prefix_cache",
        "extension: radix-tree prefix cache",
        "S8.1, productionized", "benchmarks/bench_ext_prefix_cache.py",
    ),
    "ext-cluster-router": Experiment(
        "ext_cluster_router",
        "extension: cluster router + disaggregated prefill/decode",
        "beyond the paper", "benchmarks/bench_ext_cluster.py", heavy=True,
    ),
    "ext-sched-policy": Experiment(
        "ext_sched_policy",
        "extension: scheduler policies (FCFS/SLA/hybrid)",
        "S7.4 regime", "benchmarks/bench_ext_sched.py",
    ),
    "ext-autoscale": Experiment(
        "ext_autoscale",
        "extension: SLA-driven elastic fleet autoscaling",
        "beyond the paper", "benchmarks/bench_ext_autoscale.py", heavy=True,
    ),
    "ext-swap": Experiment(
        "ext_swap_policy",
        "extension: swap vs recompute",
        "S5.3.3", "benchmarks/bench_ext_swap.py",
    ),
    "ext-kv-tiering": Experiment(
        "ext_kv_tiering",
        "extension: hierarchical GPU->CPU KV tiering",
        "S5.3.3, beyond the paper", "benchmarks/bench_ext_kv_tiering.py",
    ),
    "ext-uvm": Experiment(
        "ext_uvm_limitations",
        "extension: unified-memory strawman",
        "S8.1", "benchmarks/bench_ext_uvm.py", heavy=True,
    ),
    "ext-chunked": Experiment(
        "ext_chunked_prefill",
        "extension: hybrid-batch chunked prefill",
        "reference [36]", "benchmarks/bench_ext_chunked.py",
    ),
    "ext-large-models": Experiment(
        "ext_large_models",
        "extension: page sizes at 70B-175B scale",
        "S7.6.3", None,
    ),
}


def list_experiments() -> None:
    """Print the experiment catalogue.

    Every experiment is listed under both accepted spellings: the
    dashed catalogue name and the underscore module-style alias
    (``repro run ext-cluster-router`` == ``repro run ext_cluster_router``).
    """
    print("available experiments (python -m repro run <name> ...):\n")
    for name, experiment in EXPERIMENTS.items():
        marker = " [long-running]" if experiment.heavy else ""
        print(
            f"  {experiment.aliases(name):<42} "
            f"{experiment.description}{marker}"
        )
    print(
        "\nrun flags: --telemetry (sim-time metrics + ASCII dashboard), "
        "--trace-out PATH (JSONL event trace), --check-trace (replay "
        "the trace through the invariant checker), --spans-out PATH "
        "(per-request span JSONL), --attribution (latency-attribution "
        "report + span waterfall), --metrics-out PATH (Prometheus text "
        "exposition; see docs/observability.md)"
    )


def catalogue_markdown() -> str:
    """The experiment catalogue as a markdown table.

    This is the generated block of ``docs/paper_map.md`` — regenerate
    with ``python -m repro list --markdown`` whenever the catalogue
    changes (CI diffs the two).
    """
    lines = [
        "| Experiment | CLI aliases | Paper artifact | "
        "What it measures | Benchmark |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, experiment in EXPERIMENTS.items():
        aliases = "`" + experiment.aliases(name).replace(" | ", "` `") + "`"
        bench = f"`{experiment.bench}`" if experiment.bench else "—"
        marker = " *(long-running)*" if experiment.heavy else ""
        lines.append(
            f"| `{experiment.module}` | {aliases} | {experiment.paper} "
            f"| {experiment.description}{marker} | {bench} |"
        )
    lines.append("")
    lines.append(
        "Every `repro run` invocation also accepts observability flags: "
        "`--telemetry` collects sim-time metrics from every layer and "
        "prints an end-of-run ASCII dashboard, `--trace-out PATH` writes "
        "the merged JSONL event/sample trace, `--check-trace` replays "
        "the trace through the cross-layer invariant checker (non-zero "
        "exit on any violation), `--spans-out PATH` writes per-request "
        "span trees as JSONL, `--attribution` prints the latency-"
        "attribution report plus a span waterfall, and `--metrics-out "
        "PATH` writes the registry in Prometheus text exposition "
        "format. See `docs/observability.md` for the metric catalog, "
        "event schema, span schema, and invariant list."
    )
    return "\n".join(lines)


def check_paper_map(path: str) -> int:
    """Verify the generated block of ``path`` matches the catalogue.

    Returns a process exit code: 0 fresh, 1 stale/missing markers.
    """
    try:
        with open(path) as handle:
            content = handle.read()
    except OSError as error:
        print(f"cannot read {path}: {error}", file=sys.stderr)
        return 1
    begin = content.find(GENERATED_BEGIN)
    end = content.find(GENERATED_END)
    if begin < 0 or end < 0 or end < begin:
        print(
            f"{path}: missing generated-table markers "
            f"({GENERATED_BEGIN!r} ... {GENERATED_END!r})",
            file=sys.stderr,
        )
        return 1
    embedded = content[begin + len(GENERATED_BEGIN):end].strip()
    expected = catalogue_markdown()
    if embedded != expected:
        print(
            f"{path} is stale: regenerate its table with\n"
            f"  python -m repro list --markdown\n"
            f"and paste the output between the markers.",
            file=sys.stderr,
        )
        return 1
    print(f"{path}: experiment table is up to date "
          f"({len(EXPERIMENTS)} experiments)")
    return 0


def run_experiments(
    names: List[str],
    telemetry_on: bool = False,
    trace_out: Optional[str] = None,
    check_trace: bool = False,
    spans_out: Optional[str] = None,
    attribution_on: bool = False,
    metrics_out: Optional[str] = None,
) -> int:
    """Run the named experiments' ``main()`` printers.

    With any observability option the experiments run under an
    installed :class:`~repro.metrics.telemetry.TelemetryRegistry`:
    ``telemetry_on`` prints the end-of-run dashboard, ``trace_out``
    writes the merged JSONL trace, ``check_trace`` replays the trace
    through :mod:`repro.metrics.tracecheck` (exit code 1 on any
    invariant violation), ``spans_out`` writes per-request span trees
    as JSONL, ``attribution_on`` prints the latency-attribution report
    plus a span waterfall, and ``metrics_out`` writes the registry in
    Prometheus text exposition format. Span recording switches on
    exactly when ``spans_out`` or ``attribution_on`` asks for it.
    Without any flag the run is byte-identical to an uninstrumented
    one.
    """
    if names == ["all"]:
        selected = list(EXPERIMENTS)
    else:
        # Accept module-style names too (ext_prefix_cache == ext-prefix-cache).
        selected = [n.replace("_", "-") for n in names]
    unknown = [n for n in selected if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use 'python -m repro list' to see the catalogue", file=sys.stderr)
        return 2

    record_spans = spans_out is not None or attribution_on
    registry = None
    if (telemetry_on or trace_out is not None or check_trace
            or record_spans or metrics_out is not None):
        from repro.metrics import telemetry

        registry = telemetry.install(
            telemetry.TelemetryRegistry(record_spans=record_spans)
        )
    try:
        for name in selected:
            experiment = EXPERIMENTS[name]
            module = importlib.import_module(
                f"repro.experiments.{experiment.module}"
            )
            print(f"\n=== {name} ({experiment.module}) " + "=" * 30)
            module.main()
    finally:
        if registry is not None:
            from repro.metrics import telemetry

            telemetry.uninstall()
    if registry is None:
        return 0

    if telemetry_on:
        from repro.metrics.dashboard import render_dashboard

        print(f"\n=== telemetry " + "=" * 30)
        print(render_dashboard(registry))
    # The registry stores compact rows and builds record dicts on
    # demand, so every consumer below shares one build.
    records = None
    if trace_out is not None or record_spans or check_trace:
        records = registry.trace_records()
    if trace_out is not None:
        count = registry.write_jsonl(trace_out, records)
        print(f"wrote {count} trace records to {trace_out}")
    if spans_out is not None:
        from repro.metrics.spans import write_spans_jsonl

        count = write_spans_jsonl(records, spans_out)
        print(f"wrote {count} span records to {spans_out}")
    if attribution_on:
        from repro.metrics.attribution import build
        from repro.metrics.dashboard import render_waterfall

        print("\n=== latency attribution " + "=" * 30)
        print(build(records).render())
        print()
        print(render_waterfall(records))
    if metrics_out is not None:
        with open(metrics_out, "w") as handle:
            handle.write(registry.render_prometheus())
        print(f"wrote Prometheus metrics to {metrics_out}")
    if check_trace:
        from repro.metrics.tracecheck import check_trace as run_checker

        violations = run_checker(records)
        if violations:
            for violation in violations:
                print(f"trace-check: {violation}", file=sys.stderr)
            print(
                f"trace-check: {len(violations)} invariant violation(s)",
                file=sys.stderr,
            )
            return 1
        print("trace-check: all invariants hold")
    return 0


def main(argv: List[str] | None = None) -> int:
    """CLI dispatcher."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the vAttention (ASPLOS 2025) evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    lister = subparsers.add_parser(
        "list", help="list available experiments"
    )
    lister.add_argument(
        "--markdown",
        action="store_true",
        help="emit the docs/paper_map.md experiment table",
    )
    lister.add_argument(
        "--check",
        metavar="PATH",
        help="with --markdown: verify PATH's generated table is current",
    )
    runner = subparsers.add_parser("run", help="run experiments by name")
    runner.add_argument("names", nargs="+", help="experiment names or 'all'")
    runner.add_argument(
        "--telemetry",
        action="store_true",
        help="collect sim-time metrics and print the ASCII dashboard",
    )
    runner.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the merged JSONL event/sample trace to PATH "
        "(enables telemetry collection)",
    )
    runner.add_argument(
        "--check-trace",
        action="store_true",
        help="replay the telemetry trace through the cross-layer "
        "invariant checker; exit 1 on any violation "
        "(enables telemetry collection)",
    )
    runner.add_argument(
        "--spans-out",
        metavar="PATH",
        help="write per-request span records as JSONL to PATH "
        "(enables telemetry and span recording)",
    )
    runner.add_argument(
        "--attribution",
        action="store_true",
        help="print the span-derived latency-attribution report and "
        "waterfall (enables telemetry and span recording)",
    )
    runner.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the telemetry registry in Prometheus text "
        "exposition format to PATH (enables telemetry collection)",
    )
    args = parser.parse_args(argv)
    if args.command == "list":
        if args.check:
            if not args.markdown:
                parser.error("--check requires --markdown")
            return check_paper_map(args.check)
        if args.markdown:
            print(catalogue_markdown())
            return 0
        list_experiments()
        return 0
    return run_experiments(
        args.names,
        telemetry_on=args.telemetry,
        trace_out=args.trace_out,
        check_trace=args.check_trace,
        spans_out=args.spans_out,
        attribution_on=args.attribution,
        metrics_out=args.metrics_out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
