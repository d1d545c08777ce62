"""Command-line interface: ``python -m repro <command>``.

Commands:
    designs                       list the built-in evaluation designs
    analyze DESIGN                run the full Figure 2 pipeline
    campaign DESIGN               run only the FI campaign
    explain DESIGN [NODE ...]     GNNExplainer interpretations
    gridsearch DESIGN             §3.3.2 hyperparameter grid search
    store ACTION                  artifact-store maintenance
    verilog DESIGN                export a design as structural Verilog
    reset-check DESIGN            3-valued reset verification
    optimize DESIGN               constant folding + dead-code stats
    harden DESIGN                 GCN-guided selective TMR report

The pipeline commands accept ``--store DIR`` (default: the
``REPRO_STORE`` environment variable): a content-addressed artifact
store that memoizes every expensive stage across invocations, so a
warm rerun is O(read).  All store diagnostics go to stderr; stdout is
bitwise identical between cold and warm runs.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro import AnalyzerConfig, FaultCriticalityAnalyzer, build_design
from repro.netlist import summarize, to_verilog
from repro.reporting import bar_chart, render_table

DESIGN_CHOICES = ("sdram", "or1200_if", "or1200_icfsm", "uart")


def _parse_shard_size(text: str):
    """``--shard-size`` values: a fault count, or ``auto``."""
    if text == "auto":
        return None
    return int(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("design", choices=DESIGN_CHOICES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", type=int, default=16,
                        help="number of workloads in the FI suite")
    parser.add_argument("--cycles", type=int, default=200,
                        help="cycles per workload")


def _add_pool_flags(parser: argparse.ArgumentParser) -> None:
    """Worker-pool supervision knobs (meaningful with --jobs > 1)."""
    parser.add_argument("--max-worker-restarts", type=int, default=8,
                        metavar="N",
                        help="dead pool workers respawned over the "
                             "whole run before the pool is allowed to "
                             "shrink (default: 8)")
    parser.add_argument("--heartbeat-interval", type=float, default=5.0,
                        metavar="SECONDS",
                        help="seconds between worker liveness stamps; "
                             "a worker silent for several intervals "
                             "is presumed wedged and replaced "
                             "(default: 5.0)")


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", metavar="DIR",
                        default=os.environ.get("REPRO_STORE"),
                        help="content-addressed artifact store: reuse "
                             "cached stage results and cache fresh "
                             "ones (default: $REPRO_STORE)")
    parser.add_argument("--no-store", action="store_true",
                        help="ignore --store / $REPRO_STORE and run "
                             "every stage cold")


def _open_store(args):
    """The run's ArtifactStore, or ``None`` when disabled/unset."""
    if getattr(args, "no_store", False) or not getattr(
            args, "store", None):
        return None
    from repro.store import ArtifactStore

    return ArtifactStore(args.store)


def _make_analyzer(args) -> FaultCriticalityAnalyzer:
    config = AnalyzerConfig(
        seed=args.seed, n_workloads=args.workloads,
        workload_cycles=args.cycles,
    )
    return FaultCriticalityAnalyzer(build_design(args.design), config,
                                    store=_open_store(args))


def cmd_designs(_args) -> int:
    rows = [
        summarize(build_design(name)).as_dict()
        for name in DESIGN_CHOICES
    ]
    print(render_table(rows, title="Built-in evaluation designs"))
    return 0


def _print_eco_header(eco) -> None:
    """Shared ``--eco`` preamble: what changed, what stayed clean."""
    print(f"ECO diff: {eco.diff.summary()}")
    print(f"dirty region: {eco.region.summary()}")
    print(f"fault reuse: {eco.n_reused}/{eco.n_faults} cached rows "
          f"merged, {eco.n_dirty} re-simulated "
          f"in {eco.dirty_seconds:.2f}s "
          f"(baseline campaign took {eco.base_seconds:.2f}s)")


def cmd_analyze(args) -> int:
    analyzer = _make_analyzer(args)
    if args.eco:
        from repro.netlist import read_verilog
        from repro.utils.errors import EcoError

        edited = read_verilog(args.eco)
        try:
            update = analyzer.eco_update(
                edited, base_checkpoint_dir=args.base_checkpoint_dir,
                jobs=args.jobs,
            )
        except EcoError as error:
            print(f"error: cannot reuse baseline incrementally: "
                  f"{error}", file=sys.stderr)
            return 2
        _print_eco_header(update.eco)
        print()
        print(render_table([update.summary()],
                           title="Incremental (ECO) update"))
        return 0
    print(render_table([analyzer.summary()], title="Analysis summary"))
    accuracies = {"GCN": analyzer.validation_accuracy()}
    accuracies.update(analyzer.baseline_accuracies())
    print()
    print(bar_chart(accuracies,
                    title="Validation accuracy (GCN vs baselines)"))
    quality = analyzer.regression_quality()
    print("\nCriticality-score regression:")
    for key, value in quality.items():
        print(f"  {key}: {value:.3f}")
    if args.explain_sample:
        nodes = analyzer.sample_explain_nodes(
            per_class=args.explain_sample
        )
        print(f"\nGNNExplainer sample ({len(nodes)} held-out nodes, "
              "both predicted classes):")
        for report in analyzer.node_report(
                nodes, jobs=args.jobs,
                max_worker_restarts=args.max_worker_restarts,
                heartbeat_interval=args.heartbeat_interval):
            print(render_table([report.as_row()],
                               title=f"Node {report.node_name}"))
    if args.save_campaign:
        from repro.io import save_campaign

        save_campaign(analyzer.campaign, args.save_campaign)
        print(f"\ncampaign written to {args.save_campaign}")
    return 0


def cmd_campaign(args) -> int:
    from repro.fi import dataset_from_campaign, format_report, run_campaign
    from repro.sim import design_workloads

    design = build_design(args.design)
    workloads = design_workloads(design.name, design,
                                 count=args.workloads,
                                 cycles=args.cycles, seed=args.seed)
    if args.eco:
        from repro.fi import run_eco_campaign
        from repro.netlist import read_verilog
        from repro.utils.errors import EcoError

        if not args.base_checkpoint_dir:
            print("error: --eco needs --base-checkpoint-dir (the "
                  "checkpointed baseline campaign to merge from)",
                  file=sys.stderr)
            return 2
        edited = read_verilog(args.eco)
        try:
            eco = run_eco_campaign(
                design, edited, workloads,
                base_checkpoint_dir=args.base_checkpoint_dir,
                collapse=args.collapse,
                timeout=args.timeout, retries=args.retries,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                jobs=args.jobs, shard_size=args.shard_size,
                max_worker_restarts=args.max_worker_restarts,
                heartbeat_interval=args.heartbeat_interval,
            )
        except EcoError as error:
            print(f"error: cannot reuse baseline incrementally: "
                  f"{error}", file=sys.stderr)
            return 2
        _print_eco_header(eco)
        print()
        campaign = eco.result
    elif args.eco_traces:
        from repro.fi import run_campaign_with_traces

        if not args.checkpoint_dir:
            print("error: --eco-traces needs --checkpoint-dir (the "
                  "sidecar is written into the checkpoint store)",
                  file=sys.stderr)
            return 2
        campaign, _ = run_campaign_with_traces(
            design, workloads, checkpoint_dir=args.checkpoint_dir,
        )
        print(f"ECO trace sidecar -> {args.checkpoint_dir}/"
              "eco_traces.npz (later: repro campaign --eco EDITED.v "
              f"--base-checkpoint-dir {args.checkpoint_dir} "
              f"{args.design})")
        print()
    else:
        def compute():
            return run_campaign(
                design, workloads, collapse=args.collapse,
                timeout=args.timeout, retries=args.retries,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                jobs=args.jobs, shard_size=args.shard_size,
                max_worker_restarts=args.max_worker_restarts,
                heartbeat_interval=args.heartbeat_interval,
            )

        store = _open_store(args)
        if store is not None and not args.checkpoint_dir:
            from repro.store import memoized_campaign

            campaign = memoized_campaign(
                store, design, workloads, collapse=args.collapse,
                compute=compute,
            )
        else:
            # A checkpoint-dir run must actually execute (its durable
            # per-unit store is the product); don't shortcut it.
            campaign = compute()
    experiments = len(campaign.faults) * campaign.n_workloads
    print(f"{experiments} fault-experiments in "
          f"{campaign.simulation_seconds:.1f}s")
    if campaign.failures:
        print(f"\nWARNING: {len(campaign.failures)} of "
              f"{campaign.n_workloads} workloads never completed "
              "(partial results):")
        for failure in campaign.failures:
            print(f"  {failure.workload}: {failure.status} after "
                  f"{failure.attempts} attempt(s) — {failure.error}")
    print()
    print(format_report(
        campaign.workload_report(campaign.workload_names[0]), limit=8
    ))
    dataset = dataset_from_campaign(campaign)
    print(f"\nAlgorithm 1: {dataset.n_nodes} nodes, "
          f"{dataset.critical_fraction:.1%} Critical at threshold "
          f"{dataset.threshold}")
    if args.out:
        from repro.io import save_campaign

        save_campaign(campaign, args.out)
        print(f"campaign written to {args.out}")
    return 0 if not campaign.failures else 2


def cmd_explain(args) -> int:
    analyzer = _make_analyzer(args)
    nodes = list(args.nodes)
    if not nodes:
        indices = analyzer.sample_explain_nodes()
        nodes = [analyzer.data.node_names[i] for i in indices]
    if args.batch_size is not None and args.batch_size < 1:
        print(f"error: --batch-size {args.batch_size} must be >= 1",
              file=sys.stderr)
        return 2
    if args.batch_size is not None:
        analyzer.explainer.batch_size = args.batch_size
    reports = analyzer.node_report(
        nodes, jobs=args.jobs,
        max_worker_restarts=args.max_worker_restarts,
        heartbeat_interval=args.heartbeat_interval,
    )
    for report in reports:
        print(render_table([report.as_row()],
                           title=f"Node {report.node_name}"))
    return 0


def cmd_reset_check(args) -> int:
    from repro.sim import reset_analysis

    design = build_design(args.design)
    idle = {"rxd": 1} if args.design == "uart" else None
    report = reset_analysis(design, settle_cycles=args.settle,
                            idle_inputs=idle)
    print(f"{design.name}: resettable={report.resettable}")
    control = [name for name in report.unknown_flops
               if not name.startswith("DFFE")]
    print(f"  unknown control flops: {len(control)}")
    print(f"  unknown data registers (enable-only): "
          f"{len(report.unknown_flops) - len(control)}")
    if report.unknown_outputs:
        print(f"  outputs unknown until first use: "
              f"{', '.join(report.unknown_outputs[:8])}"
              + (" ..." if len(report.unknown_outputs) > 8 else ""))
    return 0 if not control else 1


def cmd_optimize(args) -> int:
    from repro.netlist import check_equivalence
    from repro.netlist.optimize import optimize_netlist

    design = build_design(args.design)
    optimized, report = optimize_netlist(design)
    print(f"{design.name}: {report.gates_before} -> "
          f"{report.gates_after} gates "
          f"({report.gates_removed} removed)")
    if report.folded_constants:
        print(f"  folded constants: "
              f"{', '.join(report.folded_constants[:6])}")
    if report.removed_dead:
        print(f"  dead gates: {', '.join(report.removed_dead[:6])}"
              + (" ..." if len(report.removed_dead) > 6 else ""))
    result = check_equivalence(design, optimized, workloads=3,
                               cycles=60)
    print(f"  equivalence check: "
          f"{'PASS' if result.equivalent else 'FAIL'}")
    if args.out:
        from repro.netlist import write_verilog

        write_verilog(optimized, args.out)
        print(f"  optimized netlist -> {args.out}")
    return 0 if result.equivalent else 1


def cmd_harden(args) -> int:
    import numpy as np

    from repro.fi import dataset_from_campaign, run_campaign
    from repro.netlist.transform import harden_nodes

    analyzer = _make_analyzer(args)
    baseline = analyzer.dataset
    predicted = analyzer.regressor.predict()
    chosen = [
        baseline.node_names[i]
        for i in np.argsort(-predicted)[:args.budget]
    ]
    print(f"Hardening {len(chosen)} GCN-selected nodes: "
          f"{', '.join(chosen[:6])} ...")
    protected = harden_nodes(analyzer.netlist, chosen)
    campaign = run_campaign(protected, analyzer.workloads)
    after = dataset_from_campaign(campaign)
    mission = [
        score for name, score in zip(after.node_names, after.scores)
        if "tmr_" not in name or name.endswith(("_r1", "_r2"))
    ]
    before_probability = float(baseline.scores.mean())
    after_probability = float(np.sum(mission) / baseline.n_nodes)
    print(f"mission failure probability: {before_probability:.4f} -> "
          f"{after_probability:.4f}")
    if args.out:
        from repro.netlist import write_verilog

        write_verilog(protected, args.out)
        print(f"hardened netlist -> {args.out}")
    return 0


def cmd_gridsearch(args) -> int:
    analyzer = _make_analyzer(args)
    result = analyzer.grid_search(
        epochs=args.epochs, jobs=args.jobs, fast_math=args.fast_math,
        max_worker_restarts=args.max_worker_restarts,
        heartbeat_interval=args.heartbeat_interval,
    )
    print(render_table(
        result.table(),
        title=f"Grid search: {analyzer.netlist.name} "
              f"({len(result.points)} candidates)",
    ))
    best = result.best
    print(f"\nbest: {best.describe()}  "
          f"val accuracy {best.val_accuracy:.4f} "
          f"(best epoch {best.best_epoch})")
    return 0


def cmd_store(args) -> int:
    from repro.store import ArtifactStore

    directory = args.store or os.environ.get("REPRO_STORE")
    if not directory:
        print("error: no store directory — pass --store DIR or set "
              "$REPRO_STORE", file=sys.stderr)
        return 2
    store = ArtifactStore(directory, byte_budget=args.budget)
    if args.action == "stats":
        stats = store.stats()
        by_kind = stats.pop("by_kind")
        rows = [stats]
        print(render_table(rows, title="Artifact store"))
        if by_kind:
            print()
            print(render_table(
                [by_kind], title="Entries by kind"
            ))
    elif args.action == "ls":
        rows = [
            {"key": entry["key"][:16], "kind": entry["kind"],
             "bytes": entry["size"],
             "design": entry["meta"].get("design", "")}
            for entry in store.entries()
        ]
        if rows:
            print(render_table(rows, title="Store entries (LRU last)"))
        else:
            print("store is empty")
    elif args.action == "gc":
        evicted, freed = store.gc()
        print(f"evicted {evicted} entries ({freed} bytes); "
              f"{store.stats()['bytes']} bytes in use of "
              f"{store.byte_budget} budget")
    elif args.action == "clear":
        count = store.clear()
        print(f"removed {count} entries")
    return 0


def cmd_verilog(args) -> int:
    design = build_design(args.design)
    text = to_verilog(design)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{design.name}: {len(text.splitlines())} lines -> "
              f"{args.out}")
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Graph learning-based fault criticality analysis "
                    "(DAC 2024 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("designs", help="list built-in designs")

    analyze = commands.add_parser("analyze", help="full pipeline")
    _add_common(analyze)
    analyze.add_argument("--save-campaign", metavar="FILE.npz",
                         help="persist the FI campaign result")
    analyze.add_argument("--explain-sample", type=int, default=0,
                         metavar="N",
                         help="also explain a deterministic sample of "
                              "up to N Critical and N Non-critical "
                              "held-out nodes (0 = skip)")
    analyze.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the explainer "
                              "fan-out (0 = all cores; results are "
                              "identical to --jobs 1)")
    analyze.add_argument("--eco", metavar="EDITED.v",
                         help="incremental re-analysis: diff the "
                              "design against this edited netlist, "
                              "re-simulate only the dirty region, and "
                              "rebind the trained GCNs to the edited "
                              "graph (no retraining)")
    analyze.add_argument("--base-checkpoint-dir", metavar="DIR",
                         help="with --eco: merge cached fault rows "
                              "from this checkpointed baseline "
                              "campaign instead of simulating the "
                              "baseline in-memory")
    _add_store_flags(analyze)
    _add_pool_flags(analyze)

    campaign = commands.add_parser("campaign", help="FI campaign only")
    _add_common(campaign)
    campaign.add_argument("--collapse", action="store_true",
                          help="collapse equivalent faults")
    campaign.add_argument("--out", metavar="FILE.npz",
                          help="persist the campaign result")
    campaign.add_argument("--checkpoint-dir", metavar="DIR",
                          help="durably checkpoint each completed "
                               "workload to DIR")
    campaign.add_argument("--resume", action="store_true",
                          help="resume from completed workloads in "
                               "--checkpoint-dir")
    campaign.add_argument("--timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="abandon a unit's fault pass (one group "
                               "of same-length workloads x one fault "
                               "shard) that runs longer than this")
    campaign.add_argument("--retries", type=int, default=0,
                          metavar="N",
                          help="retries per unit after a failed or "
                               "hung pass (exhaustion puts each of "
                               "the unit's workloads in the failure "
                               "ledger)")
    campaign.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes for (workload group "
                               "x shard) units; a group holds at most "
                               "ceil(workloads / N) workloads (0 = all "
                               "cores; results are bitwise identical "
                               "to --jobs 1)")
    campaign.add_argument("--shard-size", type=_parse_shard_size,
                          default=0, metavar="N|auto",
                          help="faults simulated per shard (0 = whole "
                               "universe per pass, auto = sized so "
                               "each shard's net values fit a 4 MiB "
                               "budget)")
    campaign.add_argument("--eco", metavar="EDITED.v",
                          help="incremental mode: diff the design "
                               "against this edited netlist, "
                               "re-simulate only faults in the dirty "
                               "region, and merge the rest from "
                               "--base-checkpoint-dir; the merged "
                               "result is bitwise identical to a full "
                               "rerun")
    campaign.add_argument("--base-checkpoint-dir", metavar="DIR",
                          help="with --eco: the completed baseline "
                               "campaign's checkpoint store "
                               "(fingerprint-verified; incompatible "
                               "stores are refused, never merged)")
    campaign.add_argument("--eco-traces", action="store_true",
                          help="baseline prep: serial campaign that "
                               "also records the eco_traces.npz "
                               "sidecar into --checkpoint-dir, "
                               "unlocking --eco's trace-merge fast "
                               "path")
    _add_store_flags(campaign)
    _add_pool_flags(campaign)

    explain = commands.add_parser("explain",
                                  help="per-node explanations")
    _add_common(explain)
    explain.add_argument("nodes", nargs="*", metavar="NODE",
                         help="node names (default: a deterministic "
                              "sample of held-out nodes covering both "
                              "predicted classes)")
    explain.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for explanation "
                              "batches (0 = all cores; results are "
                              "bitwise identical to --jobs 1)")
    explain.add_argument("--batch-size", type=int, default=None,
                         metavar="K",
                         help="nodes per block-diagonal optimization "
                              "batch (default: explainer's built-in; "
                              "results are identical for any K)")
    _add_store_flags(explain)
    _add_pool_flags(explain)

    grid = commands.add_parser(
        "gridsearch", help="hyperparameter grid search (§3.3.2)"
    )
    _add_common(grid)
    grid.add_argument("--epochs", type=int, default=200, metavar="N",
                      help="training epochs per grid candidate "
                           "(default: 200, patience 40)")
    grid.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="pool workers training candidates in "
                           "parallel (0 = all cores; the ranking is "
                           "bitwise identical to --jobs 1)")
    grid.add_argument("--fast-math", action="store_true",
                      help="reordered sparse kernels + shared "
                           "first-layer propagation cache "
                           "(faster, algebraically exact, but not "
                           "bitwise identical to the default)")
    _add_store_flags(grid)
    _add_pool_flags(grid)

    store = commands.add_parser(
        "store", help="artifact-store maintenance"
    )
    store.add_argument("action",
                       choices=("stats", "ls", "gc", "clear"))
    store.add_argument("--store", metavar="DIR",
                       default=os.environ.get("REPRO_STORE"),
                       help="store directory (default: $REPRO_STORE)")
    store.add_argument("--budget", type=int, default=None,
                       metavar="BYTES",
                       help="set the store's persistent byte budget "
                            "(gc evicts LRU entries beyond it)")

    verilog = commands.add_parser("verilog",
                                  help="export structural Verilog")
    verilog.add_argument("design", choices=DESIGN_CHOICES)
    verilog.add_argument("--out", metavar="FILE.v")

    reset_check = commands.add_parser(
        "reset-check", help="3-valued reset verification"
    )
    reset_check.add_argument("design", choices=DESIGN_CHOICES)
    reset_check.add_argument("--settle", type=int, default=6)

    optimize = commands.add_parser(
        "optimize", help="constant folding + dead-code elimination"
    )
    optimize.add_argument("design", choices=DESIGN_CHOICES)
    optimize.add_argument("--out", metavar="FILE.v")

    harden = commands.add_parser(
        "harden", help="GCN-guided selective TMR"
    )
    _add_common(harden)
    harden.add_argument("--budget", type=int, default=16,
                        help="number of nodes to harden")
    harden.add_argument("--out", metavar="FILE.v")

    args = parser.parse_args(argv)
    handler = {
        "designs": cmd_designs,
        "analyze": cmd_analyze,
        "campaign": cmd_campaign,
        "explain": cmd_explain,
        "gridsearch": cmd_gridsearch,
        "store": cmd_store,
        "verilog": cmd_verilog,
        "reset-check": cmd_reset_check,
        "optimize": cmd_optimize,
        "harden": cmd_harden,
    }[args.command]
    _install_termination_handler()
    try:
        return handler(args)
    except KeyboardInterrupt:
        # The pool tears down (and the checkpoint store flushes) in the
        # runner's finally blocks before the exception reaches here, so
        # every completed unit is already durable on disk.
        print(
            "\ninterrupted — completed units are checkpointed; rerun "
            "with --checkpoint-dir DIR --resume to continue",
            file=sys.stderr,
        )
        return 130


def _install_termination_handler() -> None:
    """Route SIGTERM through the KeyboardInterrupt path so operators'
    ``kill`` and ^C both produce a graceful, resumable shutdown."""

    def _terminate(_signum, _frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass


if __name__ == "__main__":
    sys.exit(main())
