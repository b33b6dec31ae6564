"""Command-line interface: the paper's checklist and analyzers, from a shell.

Subcommands
-----------
``cadinterop checklist [--scenario NAME]``
    Run the Section 6 environment analysis over the built-in methodology
    and tool catalog; print the interoperability checklist.
``cadinterop methodology``
    Print the 200-task methodology's statistics and scenario pruning table.
``cadinterop races FILE.v [--observe SIG ...]``
    Parse a Verilog-subset file and run ensemble race detection: the
    model is compiled once and every ordering policy runs over it.
``cadinterop subsets FILE.v``
    Report which synthesis vendors accept the design and why not.
``cadinterop naming NAME [NAME ...]``
    Check a naming convention over a list of identifiers.
``cadinterop migrate-batch [PATH ...] [--generate N] [--jobs N]
[--cache-dir DIR] [--profile] [--out DIR]``
    Batch-migrate a corpus of Viewdraw-like schematics (``.vl`` files,
    directories of them, and/or a generated synthetic corpus) onto the
    Composer-like libraries through the migration farm: parallel workers,
    content-hash result caching, and a per-stage table (``--profile``)
    built from the run's metrics, the same for every ``--jobs`` value.
    Run it under ``trace`` to record spans, metrics and per-object
    provenance; ``trace`` then prints the loss report.
``cadinterop trace [--trace-out FILE] CMD [ARG ...]``
    Run any other subcommand with the observability layer (tracing,
    metrics, lineage) enabled; print the span tree, flat stats and the
    lineage loss report afterwards, optionally writing the format-2 JSONL
    trace (spans, metrics and lineage records) to a file.  This is the
    one way to write a trace; ``read_trace(FILE)["metrics"]`` is its
    metrics snapshot.
``cadinterop stats FILE [FILE ...]``
    Pretty-print JSONL trace files written by ``trace``; several files
    (or a shell glob) merge their metrics, span stats and lineage loss
    summary.
``cadinterop audit TRACE.jsonl [TRACE.jsonl ...] [--json] [--top N]``
    Aggregate the lineage records of one or more traces into the
    semantic-loss report: per-stage and per-dialect loss matrices plus
    the top lossy designs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence


def _cmd_checklist(args: argparse.Namespace) -> int:
    from cadinterop.core import (
        analyze_environment,
        cell_based_methodology,
        environment_checklist,
        standard_scenarios,
        standard_tool_catalog,
    )

    scenarios = {s.name: s for s in standard_scenarios()}
    if args.scenario not in scenarios:
        print(f"unknown scenario {args.scenario!r}; available: {sorted(scenarios)}",
              file=sys.stderr)
        return 2
    analysis = analyze_environment(
        cell_based_methodology(), standard_tool_catalog(), scenarios[args.scenario]
    )
    print(analysis.summary())
    print()
    print(environment_checklist(analysis))
    return 0


def _cmd_methodology(args: argparse.Namespace) -> int:
    from cadinterop.core import cell_based_methodology, prune_report, standard_scenarios

    graph = cell_based_methodology()
    stats = graph.stats()
    print(f"methodology: {graph.name}")
    for key, value in stats.items():
        print(f"  {key:12} {value}")
    print(f"  loops        {graph.has_iteration_loops()}")
    print("\nscenario pruning:")
    for scenario in standard_scenarios():
        _pruned, report = prune_report(graph, scenario)
        print(f"  {scenario.name:24} tasks {report.tasks_after:4}/{report.tasks_before}"
              f"  interactions {report.edges_after:4}/{report.edges_before}")
    return 0


def _cmd_races(args: argparse.Namespace) -> int:
    from cadinterop.hdl.parser import ParseError, parse
    from cadinterop.hdl.races import detect_races

    try:
        source = Path(args.file).read_text()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        unit = parse(source)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    module = unit.top_module
    if module.instances:
        from cadinterop.hdl.flatten import flatten

        module, _name_map = flatten(unit)
    report = detect_races(
        module, observed=args.observe or None, until=args.until,
    )
    print(report.summary())
    for divergence in report.divergences:
        print(f"  {divergence.signal}: {divergence.final_values}")
    return 1 if report.has_race else 0


def _cmd_subsets(args: argparse.Namespace) -> int:
    from cadinterop.hdl.parser import ParseError, parse_module
    from cadinterop.hdl.synth import portability_report, written_in_intersection

    try:
        source = Path(args.file).read_text()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        module = parse_module(source)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    report = portability_report(module)
    print(f"module {module.name}: features {sorted(report.features)}")
    for vendor, violations in report.per_vendor.items():
        verdict = "accepts" if not violations else f"rejects: {violations}"
        print(f"  {vendor:8} {verdict}")
    portable = written_in_intersection(module)
    print(f"portable across all vendors: {portable}")
    return 0 if portable else 1


def _cmd_naming(args: argparse.Namespace) -> int:
    from cadinterop.hdl.names import NamingConvention

    convention = NamingConvention(max_length=args.max_length)
    violations = convention.violations(args.names)
    if not violations:
        print(f"{len(args.names)} name(s) clean under the convention")
        return 0
    for name, reason in violations:
        print(f"  {name}: {reason}")
    return 1


def _cmd_migrate_batch(args: argparse.Namespace) -> int:
    from cadinterop.farm import MigrationFarm, ResultCache
    from cadinterop.schematic import io_cd, io_vl
    from cadinterop.schematic.samples import (
        build_sample_plan,
        build_vl_libraries,
        generate_chain_schematic,
    )

    libraries = build_vl_libraries()
    designs = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            files = sorted(path.glob("*.vl"))
            if not files:
                print(f"no .vl schematics in {path}", file=sys.stderr)
                return 2
        elif path.is_file():
            files = [path]
        else:
            print(f"no such file or directory: {path}", file=sys.stderr)
            return 2
        for file in files:
            try:
                designs.append(io_vl.load_schematic(file.read_text(), libraries))
            except Exception as exc:
                print(f"cannot load {file}: {exc}", file=sys.stderr)
                return 2
    # Synthetic corpus designs (for demos and cache warm-up experiments).
    # The last field is how many wire-label anchors sit off-grid, so part
    # of the corpus exercises the snap/approximation path like hand-edited
    # real-world schematics do.
    shapes = [(1, 2, 3, 0), (2, 2, 4, 1), (1, 3, 5, 0), (2, 4, 4, 2)]
    for index in range(args.generate):
        pages, chains, stages, offgrid = shapes[index % len(shapes)]
        cell = generate_chain_schematic(
            libraries, pages=pages, chains_per_page=chains, stages=stages,
            seed=index, offgrid_labels=offgrid,
        )
        cell.name = f"gen{index:03d}_{cell.name}"
        designs.append(cell)
    if not designs:
        print("nothing to migrate: pass .vl files/directories or --generate N",
              file=sys.stderr)
        return 2

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    plan = build_sample_plan(source_libraries=libraries)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    farm = MigrationFarm(plan, jobs=args.jobs, cache=cache)
    report = farm.run(designs)

    if args.profile:
        print(report.render(per_design=True))
    else:
        print(report.summary())

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for item in report.items:
            if item.result is not None:
                (out_dir / f"{item.design}.cd").write_text(
                    io_cd.dump_schematic(item.result.schematic)
                )
        print(f"wrote {sum(1 for i in report.items if i.result)} translated "
              f"designs to {out_dir}")
    return 0 if report.all_clean else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from cadinterop.obs import (
        LossReport,
        ObsContext,
        installed,
        render_stats,
        render_tree,
        write_trace,
    )

    rest = list(args.args)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("trace: give a cadinterop command to run, e.g. "
              "`cadinterop trace migrate-batch --generate 8`", file=sys.stderr)
        return 2
    if rest[0] in ("trace", "stats"):
        print(f"trace: cannot wrap the {rest[0]!r} command", file=sys.stderr)
        return 2

    context = ObsContext.enabled()
    with installed(context):
        with context.tracer.span("cli:" + rest[0], argv=" ".join(rest)) as span:
            code = main(rest)
            span.set(exit_code=code)
    spans = context.tracer.spans()
    snapshot = context.metrics.snapshot()
    lineage = context.lineage.records()
    print()
    print(render_tree(spans))
    print()
    print(render_stats(spans, snapshot))
    if lineage:
        print()
        print(LossReport.from_records(lineage).render())
    if args.trace_out:
        write_trace(args.trace_out, spans, snapshot,
                    trace_id=context.tracer.trace_id, lineage=lineage)
        print(f"trace written to {args.trace_out}")
    return code


def _expand_trace_paths(patterns: Sequence[str]) -> List[str]:
    """Expand shell-style globs (for shells that do not) and keep order."""
    import glob as globmod

    paths: List[str] = []
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matched = sorted(globmod.glob(pattern))
            if not matched:
                paths.append(pattern)  # let read_trace report the miss
            paths.extend(matched)
        else:
            paths.append(pattern)
    return paths


def _cmd_stats(args: argparse.Namespace) -> int:
    from cadinterop.obs import (
        LossReport,
        MetricsRegistry,
        read_trace,
        render_stats,
        render_tree,
    )

    paths = _expand_trace_paths(args.files)
    merged = MetricsRegistry()
    loss = LossReport()
    all_spans: List[dict] = []
    for path in paths:
        try:
            trace = read_trace(path)
            # Valid traces can still disagree (histogram buckets, a name's
            # instrument type); that makes this file unreadable here too.
            merged.merge(trace["metrics"])
            for record in trace["lineage"]:
                loss.add(record)
        except (OSError, TypeError, ValueError) as exc:
            print(f"cannot read trace {path}: {exc}", file=sys.stderr)
            return 2
        all_spans.extend(trace["spans"])
        meta = trace["meta"]
        if meta.get("trace_id"):
            print(f"trace {meta['trace_id']} ({path})")
    if len(paths) == 1:
        print()
        print(render_tree(all_spans))
    print()
    print(render_stats(all_spans, merged.snapshot()))
    if loss.total:
        print()
        print(loss.summary())
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    import json

    from cadinterop.obs import LossReport, read_trace

    report = LossReport()
    for path in _expand_trace_paths(args.files):
        try:
            for record in read_trace(path)["lineage"]:
                report.add(record)
        except (OSError, ValueError) as exc:
            print(f"cannot read trace {path}: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(top_designs=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cadinterop",
        description="CAD tool interoperability analyzers (DAC'96 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    checklist = commands.add_parser("checklist", help="environment checklist")
    checklist.add_argument("--scenario", default="full-asic")
    checklist.set_defaults(fn=_cmd_checklist)

    methodology = commands.add_parser("methodology", help="task graph statistics")
    methodology.set_defaults(fn=_cmd_methodology)

    races = commands.add_parser("races", help="ensemble race detection")
    races.add_argument("file")
    races.add_argument("--observe", nargs="*", default=None)
    races.add_argument("--until", type=int, default=1_000_000)
    races.set_defaults(fn=_cmd_races)

    subsets = commands.add_parser("subsets", help="synthesis subset portability")
    subsets.add_argument("file")
    subsets.set_defaults(fn=_cmd_subsets)

    naming = commands.add_parser("naming", help="naming convention check")
    naming.add_argument("names", nargs="+")
    naming.add_argument("--max-length", type=int, default=8)
    naming.set_defaults(fn=_cmd_naming)

    batch = commands.add_parser(
        "migrate-batch", help="batch-migrate a schematic corpus through the farm"
    )
    batch.add_argument("paths", nargs="*",
                       help=".vl schematic files or directories of them")
    batch.add_argument("--generate", type=int, default=0, metavar="N",
                       help="add N synthetic corpus designs")
    batch.add_argument("--jobs", type=int, default=1,
                       help="parallel migration workers (default 1)")
    batch.add_argument("--cache-dir", default=None,
                       help="persist migration results here; unchanged designs "
                            "are served from cache on re-runs")
    batch.add_argument("--profile", action="store_true",
                       help="print per-design outcomes and the stage table")
    batch.add_argument("--out", default=None, metavar="DIR",
                       help="write translated .cd files to DIR")
    batch.set_defaults(fn=_cmd_migrate_batch)

    trace = commands.add_parser(
        "trace", help="run another subcommand with tracing, metrics and lineage on"
    )
    trace.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the JSONL trace to FILE")
    trace.add_argument("args", nargs=argparse.REMAINDER,
                       help="the cadinterop command to run under tracing")
    trace.set_defaults(fn=_cmd_trace)

    stats = commands.add_parser("stats", help="pretty-print JSONL trace files")
    stats.add_argument("files", nargs="+",
                       help="trace files (globs accepted); several files "
                            "merge their metrics, span stats and loss summary")
    stats.set_defaults(fn=_cmd_stats)

    audit = commands.add_parser(
        "audit", help="semantic-loss report from the lineage records of traces"
    )
    audit.add_argument("files", nargs="+",
                       help="format-2 trace files (globs accepted)")
    audit.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")
    audit.add_argument("--top", type=int, default=5, metavar="N",
                       help="how many lossy designs to list (default 5)")
    audit.set_defaults(fn=_cmd_audit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
