"""Command-line interface: the DynaMiner tool workflow.

Experiments (regenerate paper artifacts)::

    dynaminer list
    dynaminer run table3 [--scale 0.5] [--seed 7]
    dynaminer run all

Deployment workflow (train once, detect anywhere)::

    dynaminer train --out model.json [--scale 0.5] [--seed 7]
    dynaminer synth capture.pcap --kind angler [--seed 3]
    dynaminer detect capture.pcap --model model.json [--threshold 0.7]

Observability: ``--metrics`` (or ``REPRO_METRICS=1``) turns on the
pipeline metrics registry; ``--stats-interval``/``--stats-out`` stream
JSON-lines snapshots (default sink: stderr); ``--log-level`` controls
the ``repro`` logger.  ``detect --trace-out trace.jsonl`` (or
``REPRO_TRACE=1``) records the detection trace; ``dynaminer explain
trace.jsonl`` walks each alert's provenance and ``dynaminer stats
stats.jsonl`` summarizes a snapshot stream.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator

from repro.experiments import (
    ablations,
    baselines,
    case_study1,
    evasion,
    families_breakdown,
    fig10,
    figures,
    table1,
    table3,
    table4,
    table5,
    table6,
)
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED

__all__ = ["main", "EXPERIMENTS"]

#: Experiment id -> report callable(seed, scale).
EXPERIMENTS = {
    "table1": table1.report,
    "fig1": figures.report_fig1,
    "fig2": figures.report_fig2,
    "fig3": figures.report_fig3,
    "fig4": figures.report_fig4,
    "table3": table3.report,
    "table4": table4.report,
    "fig10": fig10.report,
    "table5": table5.report,
    "cs1": case_study1.report,
    "table6": table6.report,
    "evasion": evasion.report,
    "baselines": baselines.report,
    "families": families_breakdown.report,
    "ablation-voting": ablations.report_voting,
    "ablation-forest": ablations.report_forest_sweep,
}


@contextmanager
def _observed(args: argparse.Namespace) -> Iterator:
    """Run a command under the registry the observability flags ask
    for; yields its stats reporter (``None`` when metrics are off).

    ``--metrics`` (or ``REPRO_METRICS=1``) makes the registry record,
    and ``--trace`` / ``--trace-out`` give it the ``--trace-sample``
    mode (``REPRO_TRACE`` sets it otherwise).  Components capture the
    registry at ``__init__``, so the pipeline is built inside.
    """
    from repro.obs import (
        MetricsRegistry,
        NullRegistry,
        PipelineStatsReporter,
        configure_logging,
        get_registry,
        use_registry,
    )

    configure_logging(getattr(args, "log_level", "info"))
    default = get_registry()
    trace = (args.sample if getattr(args, "trace", False)
             or getattr(args, "trace_out", None) else default.trace)
    metered = args.metrics or default.enabled
    registry = (MetricsRegistry if metered else NullRegistry)(trace=trace)
    with use_registry(registry):
        yield (PipelineStatsReporter(
            out=args.stats_out if args.stats_out else sys.stderr,
            interval=args.stats_interval) if metered else None)


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", action="store_true",
        help="enable the pipeline metrics registry (same as REPRO_METRICS=1)",
    )
    parser.add_argument(
        "--stats-interval", type=float, default=None, dest="stats_interval",
        help="seconds between JSON-lines stats snapshots (default: only a"
             " final snapshot)",
    )
    parser.add_argument(
        "--stats-out", default=None, dest="stats_out",
        help="append stats snapshots to this file (default: stderr)",
    )
    parser.add_argument(
        "--log-level", default="info", dest="log_level",
        choices=("debug", "info", "warning", "error"),
        help="repro logger verbosity (default: info)",
    )


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="enable detection tracing (same as REPRO_TRACE=1)",
    )
    parser.add_argument(
        "--trace-out", default=None, dest="trace_out",
        help="append the detection trace as JSON lines to this file"
             " (implies --trace; inspect with `dynaminer explain`)",
    )
    parser.add_argument(
        "--trace-sample", default="full", dest="sample",
        choices=("full", "alerts"),
        help="keep every watch timeline ('full') or only timelines of"
             " watches that alerted ('alerts'; default: full)",
    )


def _cmd_list() -> int:
    print("available experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("  all")
    return 0


def _cmd_run(args: argparse.Namespace, reporter) -> int:
    from repro.experiments.context import set_default_n_jobs
    from repro.obs import get_logger

    log = get_logger("cli")
    if args.n_jobs is not None:
        set_default_n_jobs(args.n_jobs)
    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        log.error("unknown experiment: %s (see `dynaminer list`)",
                  args.experiment)
        return 2
    for name in names:
        print(f"=== {name} " + "=" * max(0, 60 - len(name)))
        print(EXPERIMENTS[name](args.seed, args.scale))
        print()
        if reporter is not None:
            reporter.maybe_emit()
    if reporter is not None:
        reporter.finalize()
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.experiments.context import (
        cached_ground_truth,
        set_default_n_jobs,
        trained_classifier,
    )
    from repro.learning.persistence import save_forest
    from repro.obs import configure_logging, get_logger

    configure_logging(getattr(args, "log_level", "info"))
    log = get_logger("cli")
    if args.n_jobs is not None:
        set_default_n_jobs(args.n_jobs)
    log.info("building ground-truth corpus (seed=%s, scale=%s) ...",
             args.seed, args.scale)
    corpus = cached_ground_truth(args.seed, args.scale)
    log.info("%d benign + %d infection traces",
             len(corpus.benign), len(corpus.infections))
    log.info("training the Ensemble Random Forest (Nt=20, Nf=log2+1) on"
             " WCG features of full traces + clue-time prefixes ...")
    model = trained_classifier(args.seed, args.scale)
    try:
        save_forest(model, args.out)
    except OSError as exc:
        log.error("cannot write model to %s: %s", args.out, exc)
        return 2
    print(f"model written to {args.out}")
    return 0


def _load_model_or_fail(path: str, log):
    """Load a saved forest, trading tracebacks for actionable errors.

    Returns ``None`` after logging when the model cannot be loaded —
    the file is missing, unreadable, not JSON, or not a model payload.
    """
    from repro.exceptions import LearningError
    from repro.learning.persistence import load_forest

    try:
        return load_forest(path)
    except FileNotFoundError:
        log.error("model file not found: %s (create one with"
                  " `dynaminer train --out %s`)", path, path)
    except (OSError, ValueError, LearningError) as exc:
        # json.JSONDecodeError is a ValueError; JSON that is not a
        # forest is a LearningError.
        log.error("cannot load model %s: %s", path, exc)
    return None


def _cmd_detect(args: argparse.Namespace, reporter) -> int:
    from repro.detection.clues import CluePolicy
    from repro.detection.detector import DetectorConfig, OnTheWireDetector
    from repro.detection.live import LiveDetector
    from repro.exceptions import PcapError
    from repro.net.pcapng import read_capture
    from repro.obs import get_logger

    log = get_logger("cli")
    model = _load_model_or_fail(args.model, log)
    if model is None:
        return 2
    log.info("loaded model with %d trees from %s",
             len(model.trees_), args.model)
    try:
        linktype, packets = read_capture(args.pcap)
    except FileNotFoundError:
        log.error("capture file not found: %s", args.pcap)
        return 2
    except (OSError, PcapError) as exc:
        log.error("cannot read capture %s: %s", args.pcap, exc)
        return 2
    policy = CluePolicy(redirect_threshold=args.redirect_threshold)
    config = DetectorConfig(alert_threshold=args.threshold)
    if args.workers is not None:
        return _detect_sharded(args, log, model, linktype, packets,
                               policy, config)
    detector = OnTheWireDetector(model, policy=policy, config=config)
    live = LiveDetector(detector, linktype=linktype, reporter=reporter,
                        trace_out=args.trace_out)
    for packet in packets:
        live.feed(packet)
    live.finish()
    log.info("decoded %d packets -> %d HTTP transactions",
             len(packets), live.transactions_emitted)
    alerts = detector.alerts
    print(f"{len(alerts)} alert(s); "
          f"{detector.classifications} classifications over "
          f"{detector.watch_count()} session watches "
          f"({detector.transactions_weeded} transactions weeded as trusted)")
    _print_alerts(alerts)
    return 0 if not alerts else 1


def _print_alerts(alerts) -> None:
    for alert in alerts:
        print(
            f"  ALERT client={alert.client} server={alert.clue.server} "
            f"payload={alert.clue.payload_type.value} "
            f"score={alert.score:.2f} "
            f"wcg={alert.wcg_order}n/{alert.wcg_size}e"
        )


def _detect_sharded(args, log, model, linktype, packets, policy,
                    config) -> int:
    """``detect --workers N``: replay through the sharded daemon.

    The merge contract (DESIGN.md §13) makes this path emit exactly the
    alert stream the single-process path above would — the worker count
    only changes how the work is spread, never what comes out.
    """
    import json

    from repro.obs import get_registry, write_trace
    from repro.service import EngineSpec, ShardedDetectionService

    metered = get_registry().enabled
    spec = EngineSpec(
        classifier=model,
        clue_policy=policy,
        detector_config=config,
        linktype=linktype,
        metrics=metered,
    )
    service = ShardedDetectionService(spec, workers=args.workers)
    log.info("sharded detection: %d worker process(es)", service.n_workers)
    with service:
        for packet in packets:
            service.feed(packet)
        fleet = service.drain()
    log.info("routed %d packets -> %d HTTP transactions across %d shards",
             fleet.packets_routed, fleet.transactions, len(fleet.shards))
    if metered:
        line = json.dumps({"fleet": fleet.snapshot}, sort_keys=True)
        if args.stats_out:
            with open(args.stats_out, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        else:
            print(line, file=sys.stderr)
    if args.trace_out:
        count = write_trace(fleet.trace, args.trace_out)
        log.info("wrote %d trace events to %s", count, args.trace_out)
    alerts = fleet.alerts
    print(f"{len(alerts)} alert(s); "
          f"{fleet.classifications} classifications over "
          f"{fleet.watches_opened} session watches "
          f"({fleet.transactions_weeded} transactions weeded as trusted)")
    _print_alerts(alerts)
    return 0 if not alerts else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    """Walk each alert's provenance out of a detection-trace JSONL."""
    from repro.features import feature_names
    from repro.obs import configure_logging, get_logger, read_jsonl

    configure_logging(getattr(args, "log_level", "info"))
    log = get_logger("cli")
    try:
        events = read_jsonl(args.trace)
    except FileNotFoundError:
        log.error("trace file not found: %s (record one with"
                  " `dynaminer detect ... --trace-out %s`)",
                  args.trace, args.trace)
        return 2
    except (OSError, ValueError) as exc:
        log.error("cannot read trace %s: %s", args.trace, exc)
        return 2
    alerts = [event for event in events
              if event.get("kind") == "verdict"
              and event.get("data", {}).get("decision") == "alert"]
    print(f"{len(events)} trace event(s), {len(alerts)} alert(s)"
          f" in {args.trace}")
    for index, event in enumerate(alerts[:args.limit]):
        _print_alert_walkthrough(index, event, events, feature_names())
    if len(alerts) > args.limit:
        print(f"\n... {len(alerts) - args.limit} more alert(s);"
              f" raise --limit to see them")
    return 0


def _print_alert_walkthrough(index: int, event: dict, events: list[dict],
                             names: list[str]) -> None:
    data = event.get("data", {})
    watch, client = event.get("watch", ""), event.get("client", "")
    kinds: dict[str, int] = {}
    for other in events:
        if other.get("watch") == watch and other.get("client") == client:
            kind = other.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
    timeline = " ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds))
    print(f"\nalert #{index}: client={client} watch={watch}"
          f" t={event.get('ts', 0.0):.3f}")
    print(f"  score={data.get('score', 0.0):.3f}"
          f" threshold={data.get('threshold', 0.0):.2f}")
    print(f"  timeline: {timeline}")
    provenance = data.get("provenance")
    if not provenance:
        print("  (no provenance recorded)")
        return
    chain = provenance.get("clue_chain", [])
    total = provenance.get("clues_total", len(chain))
    print(f"  clue chain ({total} clue(s)):")
    for clue in chain:
        print(f"    t={clue.get('timestamp', 0.0):.3f}"
              f" server={clue.get('server')}"
              f" payload={clue.get('payload_type')}"
              f" chain_length={clue.get('chain_length')}")
    ttd = provenance.get("time_to_detection")
    tfe = provenance.get("time_from_first_edge")
    if ttd is not None:
        print(f"  time to detection: {ttd:.3f}s after first clue"
              + ("" if tfe is None
                 else f", {tfe:.3f}s after first infection-stage edge"))
    print(f"  wcg at verdict: {provenance.get('wcg_order')} nodes /"
          f" {provenance.get('wcg_size')} edges")
    tally = provenance.get("vote_tally")
    if tally:
        print(f"  forest vote: {tally[1]}/{tally[0] + tally[1]} trees"
              f" infectious")
    counts = provenance.get("feature_path_counts") or []
    ranked = sorted(
        ((count, name) for count, name in zip(counts, names) if count),
        reverse=True,
    )
    if ranked:
        print("  top decision-path features:")
        for count, name in ranked[:5]:
            print(f"    {name}: {count} split(s)")


def _cmd_stats(args: argparse.Namespace) -> int:
    """Summarize a JSON-lines stats stream (reporter or fleet lines)."""
    from repro.obs import configure_logging, get_logger, read_jsonl

    configure_logging(getattr(args, "log_level", "info"))
    log = get_logger("cli")
    try:
        lines = read_jsonl(args.stats)
    except FileNotFoundError:
        log.error("stats file not found: %s", args.stats)
        return 2
    except (OSError, ValueError) as exc:
        log.error("cannot read stats %s: %s", args.stats, exc)
        return 2
    # Fleet snapshots arrive wrapped as {"fleet": {...}}.
    snapshots = [line.get("fleet", line) for line in lines]
    if not snapshots:
        log.error("no snapshots in %s", args.stats)
        return 2
    final = snapshots[-1]
    print(f"{len(snapshots)} snapshot(s) in {args.stats}")
    for section, title, form in (("counters", "cumulative", "{}"),
                                 ("gauges", "last snapshot", "{:.10g}"),
                                 ("rates", "final interval", "{:.1f}")):
        values = final.get(section, {})
        if values:
            print(f"{section} ({title}):")
            for name in sorted(values):
                print(f"  {name}: " + form.format(values[name]))
    histograms = final.get("histograms", {})
    if histograms:
        print("histograms:")
        for name in sorted(histograms):
            hist = histograms[name]
            if not hist.get("count"):
                continue
            parts = [f"count={hist['count']}"]
            for stat in ("mean", "p50", "p90", "p99", "max"):
                value = hist.get(stat)
                if value is not None:
                    parts.append(f"{stat}={value:.6g}")
            print(f"  {name}: " + " ".join(parts))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.net.flows import packets_from_trace
    from repro.net.pcap import write_pcap
    from repro.synthesis.benign import BenignGenerator
    from repro.synthesis.families import family_by_name
    from repro.synthesis.infection import InfectionGenerator

    rng = np.random.default_rng(args.seed)
    if args.kind.lower() == "benign":
        trace = BenignGenerator(rng).generate_session()
        label = f"benign ({trace.meta.get('scenario')})"
    else:
        try:
            profile = family_by_name(args.kind)
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        trace = InfectionGenerator(profile, rng).generate()
        label = f"{profile.name} infection"
    packets, _ = packets_from_trace(trace)
    count = write_pcap(args.pcap, packets)
    print(f"wrote {label}: {len(trace.transactions)} transactions, "
          f"{count} packets -> {args.pcap}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="dynaminer",
        description="DynaMiner reproduction: experiments and deployment.",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run an experiment")
    run_parser.add_argument("experiment",
                            help="experiment id (see `list`) or 'all'")
    run_parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run_parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    run_parser.add_argument(
        "--n-jobs", type=int, default=None, dest="n_jobs",
        help="worker processes for feature extraction, forest fitting and"
             " cross-validation (default 1; -1 = all cores). Results are"
             " byte-identical for any value: all per-tree/per-fold seeds"
             " derive from --seed before any work is scheduled.",
    )
    _add_observability_flags(run_parser)

    train_parser = subparsers.add_parser(
        "train", help="train a classifier and save it as JSON"
    )
    train_parser.add_argument("--out", default="dynaminer-model.json")
    train_parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    train_parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    train_parser.add_argument(
        "--n-jobs", type=int, default=None, dest="n_jobs",
        help="worker processes for feature extraction and tree fitting"
             " (default 1; -1 = all cores). The saved model is"
             " byte-identical for any value.",
    )
    train_parser.add_argument(
        "--log-level", default="info", dest="log_level",
        choices=("debug", "info", "warning", "error"),
        help="repro logger verbosity (default: info)",
    )

    detect_parser = subparsers.add_parser(
        "detect", help="replay a pcap through the on-the-wire detector"
    )
    detect_parser.add_argument("pcap", help="pcap file to analyze")
    detect_parser.add_argument("--model", default="dynaminer-model.json")
    detect_parser.add_argument("--threshold", type=float, default=0.7)
    detect_parser.add_argument("--redirect-threshold", type=int, default=3)
    detect_parser.add_argument(
        "--workers", type=int, default=None,
        help="shard live detection across N worker processes (-1 = all"
             " cores; default: single process). Packets are hashed to"
             " shards by client, and the merged alert stream is"
             " byte-identical to the single-process run at any N.",
    )
    _add_observability_flags(detect_parser)
    _add_trace_flags(detect_parser)

    explain_parser = subparsers.add_parser(
        "explain", help="walk alert provenance out of a detection trace"
    )
    explain_parser.add_argument(
        "trace", help="trace JSONL file (from `detect --trace-out`)"
    )
    explain_parser.add_argument(
        "--limit", type=int, default=10,
        help="maximum alerts to walk through (default: 10)",
    )
    explain_parser.add_argument(
        "--log-level", default="info", dest="log_level",
        choices=("debug", "info", "warning", "error"),
        help="repro logger verbosity (default: info)",
    )

    stats_parser = subparsers.add_parser(
        "stats", help="summarize a JSON-lines stats snapshot stream"
    )
    stats_parser.add_argument(
        "stats", help="stats JSONL file (from `--stats-out`)"
    )
    stats_parser.add_argument(
        "--log-level", default="info", dest="log_level",
        choices=("debug", "info", "warning", "error"),
        help="repro logger verbosity (default: info)",
    )

    synth_parser = subparsers.add_parser(
        "synth", help="synthesize a labelled pcap capture"
    )
    synth_parser.add_argument("pcap", help="output pcap path")
    synth_parser.add_argument(
        "--kind", default="benign",
        help="'benign' or an exploit-kit family name (e.g. Angler, RIG)",
    )
    synth_parser.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    from repro.obs import configure_logging, get_logger, get_registry

    try:
        get_registry()  # the environment's, built on first use
    except ValueError as exc:
        configure_logging(getattr(args, "log_level", "info"))
        get_logger("cli").error("REPRO_TRACE_SAMPLE: %s (use full or alerts)",
                                exc)
        return 2
    if args.command == "list" or args.command is None:
        return _cmd_list()
    if args.command in ("run", "detect"):
        with _observed(args) as reporter:
            command = _cmd_run if args.command == "run" else _cmd_detect
            return command(args, reporter)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "synth":
        return _cmd_synth(args)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
