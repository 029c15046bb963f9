"""The five workloads: how each input is built and how one pass is driven.

Set-up (:func:`build`) turns a seed into files — a model, a pcap, a
pickled transaction stream, a directory of labelled captures — and the
timed side (:func:`open_pass`) only ever reads those files.  Every
driver is a closed loop run by one thread: the next operation is issued
when the previous one returns, and stream time comes from the capture's
own timestamps.

Layers are called through their *modules* (``pcap.read_pcap``, not an
imported name) so the shim spans of :mod:`benchmarks.ledger.shim` see
the calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
from time import perf_counter, process_time
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core import builder
from repro.core.model import Trace, TraceLabel
from repro.detection.detector import OnTheWireDetector
from repro.detection.live import LiveDetector, OverloadPolicy
from repro.detection.training import clue_time_prefix
from repro.experiments.context import cached_ground_truth, trained_classifier
from repro.features.extractor import FeatureExtractor
from repro.learning import crossval
from repro.learning.forest import EnsembleRandomForest
from repro.learning.persistence import load_forest, save_forest
from repro.loadgen import HOSTILE, MIXED, LoadGenerator
from repro.net import flows, pcap
from repro.service import EngineSpec, ShardedDetectionService, merge_alerts
from repro.service.worker import ShardAlert
from repro.synthesis.corpus import ground_truth_corpus, validation_corpus

__all__ = ["WORKLOADS", "ITEM", "Context", "sizes", "build", "load",
           "open_pass", "drive", "alert_digest"]

WORKLOADS = ("tap_mixed", "tap_hostile", "tap_sharded", "proxy_dense",
             "offline_train")

#: What one operation consumes, per workload (the "item" of
#: ``items_per_s``, ``cpu_us_per_item`` and ``self_ns_per_item``).
ITEM = {"tap_mixed": "packet", "tap_hostile": "packet",
        "tap_sharded": "packet", "proxy_dense": "transaction",
        "offline_train": "trace"}

# -- size constants (a full-size run; ``shrink`` divides them) ----------

#: Ground-truth scale the deployed model is trained at (and at which a
#: ``--smoke`` run trains, where only the plumbing is under test).
MODEL_SCALE = 0.25
SMOKE_MODEL_SCALE = 0.1
#: Packets in the MIXED and in the HOSTILE capture.
TAP_PACKETS = 40_000
MIXED_CONCURRENCY = 8
HOSTILE_CONCURRENCY = 10
HOSTILE_OVERFLOW_BYTES = 128 * 1024
#: The hostile tap's shedding rules.  The cap sits just above the
#: cliff: at this concurrency a cap of 10 sheds most of the stream (a
#: refused SYN leaves a connection that never closes, which holds a
#: slot, which refuses more), 12 sheds a few packets per thousand.
HOSTILE_POLICY = OverloadPolicy(max_connections=12,
                                max_buffered_per_direction=32 * 1024,
                                closed_linger=2.0)
SHARD_WORKERS = 2
#: Validation-corpus seed and scale of the proxy stream (~900 episodes).
PROXY_CORPUS_SEED = 1301
PROXY_SCALE = 0.1
#: Stream seconds between consecutive episode starts on the proxy.
PROXY_EPISODE_GAP = 2.0
#: Ground-truth scale of the offline stage (~350 labelled captures).
OFFLINE_SCALE = 0.2
#: Operations per timing window (see :func:`drive`): ~15 ms of work, so
#: a noise burst spoils few windows of a pass and almost never the same
#: window of every pass.
WINDOW = {"packet": 200, "transaction": 100, "trace": 5}


def sizes(shrink: int = 1) -> dict[str, float]:
    """The size constants of a run, for the result's record."""
    return {
        "model_scale": MODEL_SCALE if shrink == 1 else SMOKE_MODEL_SCALE,
        "tap_packets": int(TAP_PACKETS / shrink),
        "proxy_corpus_seed": PROXY_CORPUS_SEED,
        "proxy_scale": PROXY_SCALE / shrink,
        "offline_scale": OFFLINE_SCALE / shrink,
        "shard_workers": SHARD_WORKERS,
    }


# -- set-up ---------------------------------------------------------------

def _train_model(seed: int, workdir: str, shrink: int) -> None:
    save_forest(trained_classifier(seed, sizes(shrink)["model_scale"]),
                os.path.join(workdir, "model.json"))
    # Set-up is timed several times per run; each must do the work.
    trained_classifier.cache_clear()
    cached_ground_truth.cache_clear()


class _StratifiedGenerator(LoadGenerator):
    """``LoadGenerator`` whose episode *kinds* follow the mix exactly.

    The stock generator draws each episode's kind from the mix weights,
    so a 40k-packet stream holds 132-163 ``http_flood`` episodes
    depending on the seed, and transactions per packet -- what a tap's
    cost follows -- spread 17% (IQR / median over ten seeds).  Here the
    next kind is the one furthest behind its weight (stratified
    sampling); the seed still draws every episode's content, size and
    timing.  That spread drops to 3%, and with it the seed-to-seed
    spread of every tap metric, at no cost in set-up time.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        kinds, weights = self.mix.kinds_and_weights()
        self._share = dict(zip(kinds, weights))
        self._started = dict.fromkeys(kinds, 0)

    def _build(self, kind: str, rng: np.random.Generator, start: float,
               alloc: Any) -> list:
        total = sum(self._started.values()) + 1
        kind = max(self._share, key=lambda k: (self._share[k] * total
                                               - self._started[k]))
        self._started[kind] += 1
        return super()._build(kind, rng, start, alloc)


def _build_tap(seed: int, workdir: str, shrink: int, hostile: bool) -> None:
    if hostile:
        generator = _StratifiedGenerator(
            seed=seed, mix=HOSTILE, concurrency=HOSTILE_CONCURRENCY,
            overflow_bytes=HOSTILE_OVERFLOW_BYTES)
    else:
        generator = _StratifiedGenerator(seed=seed, mix=MIXED,
                                         concurrency=MIXED_CONCURRENCY)
    pcap.write_pcap(os.path.join(workdir, "input.pcap"),
                    generator.packets(limit=sizes(shrink)["tap_packets"]))


def _build_proxy(seed: int, workdir: str, shrink: int) -> None:
    """Validation episodes overlapped in time and merged into one
    proxy-order transaction stream, plus each episode's ground truth."""
    # The corpus seed is fixed: a few giant infection episodes decide
    # the stream's tail, and redrawing them per seed moved the p99 operation
    # by 35%.  The run's seed picks the model and the interleaving.
    corpus = validation_corpus(seed=PROXY_CORPUS_SEED,
                               scale=sizes(shrink)["proxy_scale"])
    order = np.random.default_rng(seed).permutation(len(corpus.traces))
    transactions = []
    episodes = []
    for slot, index in enumerate(order):
        trace = corpus.traces[int(index)]
        if not trace.transactions:
            continue
        shift = (1_500_000_000.0 + slot * PROXY_EPISODE_GAP
                 - trace.transactions[0].timestamp)
        for txn in trace.transactions:
            txn.request.timestamp += shift
            if txn.response is not None:
                txn.response.timestamp += shift
        transactions.extend(trace.transactions)
        episodes.append({
            "client": trace.transactions[0].client,
            "infection": trace.is_infection,
            "timestamps": [t.timestamp for t in trace.transactions],
        })
    transactions.sort(key=lambda t: t.timestamp)
    with open(os.path.join(workdir, "input.pickle"), "wb") as handle:
        pickle.dump(transactions, handle, protocol=pickle.HIGHEST_PROTOCOL)
    with open(os.path.join(workdir, "episodes.json"), "w") as handle:
        json.dump(episodes, handle)


def _build_offline(seed: int, workdir: str, shrink: int) -> None:
    """One pcap per labelled trace and a manifest carrying the labels."""
    corpus = ground_truth_corpus(seed=seed,
                                 scale=sizes(shrink)["offline_scale"])
    captures = os.path.join(workdir, "captures")
    os.makedirs(captures, exist_ok=True)
    manifest = []
    for index, trace in enumerate(corpus.traces):
        name = f"{index:05d}.pcap"
        packets, _ = flows.packets_from_trace(trace)
        pcap.write_pcap(os.path.join(captures, name), packets)
        manifest.append({
            "file": name, "label": trace.label.value,
            "family": trace.family, "origin": trace.origin,
            "transactions": len(trace.transactions),
        })
    with open(os.path.join(workdir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle)


def build(workload: str, seed: int, workdir: str,
          shrink: int = 1) -> dict[str, float]:
    """Write ``workload``'s input files for ``seed`` into ``workdir``;
    returns the seconds spent training and generating."""
    os.makedirs(workdir, exist_ok=True)
    started = perf_counter()
    if workload != "offline_train":  # the offline stage trains its own
        _train_model(seed, workdir, shrink)
    trained = perf_counter()
    if workload in ("tap_mixed", "tap_sharded"):
        _build_tap(seed, workdir, shrink, hostile=False)
    elif workload == "tap_hostile":
        _build_tap(seed, workdir, shrink, hostile=True)
    elif workload == "proxy_dense":
        _build_proxy(seed, workdir, shrink)
    elif workload == "offline_train":
        _build_offline(seed, workdir, shrink)
    else:
        raise ValueError(f"unknown workload: {workload}")
    return {"train_s": trained - started,
            "generate_s": perf_counter() - trained}


# -- the timed side ----------------------------------------------------------

class Context:
    """What a run's passes share: the loaded model and input."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.model: EnsembleRandomForest | None = None
        #: The proxy's pickled transaction stream, as read from disk.
        self.stream = b""
        self.episodes: list[dict] = []
        self.manifest: list[dict] = []


def load(workload: str, seed: int, workdir: str) -> Context:
    """Child start-up: load the model and open the workload's input.

    Captures are *not* read here: reading the pcap is part of the tap's
    timed loop.
    """
    ctx = Context(workload, seed, workdir)
    if workload != "offline_train":
        ctx.model = load_forest(os.path.join(workdir, "model.json"))
    if workload == "proxy_dense":
        with open(os.path.join(workdir, "input.pickle"), "rb") as handle:
            ctx.stream = handle.read()
        with open(os.path.join(workdir, "episodes.json")) as handle:
            ctx.episodes = json.load(handle)
    elif workload == "offline_train":
        with open(os.path.join(workdir, "manifest.json")) as handle:
            ctx.manifest = json.load(handle)
    return ctx


def drive(source: Iterable, op: Callable[[Any], Any],
          stages: Sequence[Callable[[], Any]],
          window: int | None) -> dict[str, Any]:
    """Run ``op`` over ``source`` then each of ``stages``; the timing
    record.

    Per operation: wall seconds of the ``op`` call (``inf`` if it
    raised — a failed operation misses any latency).  Per window of
    ``window`` operations: wall and process-CPU seconds of everything
    in it, reading ``source`` included; the operations left over and
    the first stage share a window, every later stage has its own.
    Windows are what lets a run drop the host's noise bursts: see
    ``run_one.composite``.  ``window=None`` times the pass as one
    window.  ``final`` is what the last stage returned.
    """
    latencies: list[float] = []
    walls: list[float] = []
    cpus: list[float] = []
    outputs: list = []
    failed = 0
    count = 0
    wall_mark = perf_counter()
    cpu_mark = process_time()
    for item in source:
        started = perf_counter()
        try:
            out = op(item)
        except Exception:  # noqa: BLE001 — counted, the tap keeps going
            failed += 1
            out = None
            ended = perf_counter()
            latencies.append(float("inf"))
        else:
            ended = perf_counter()
            latencies.append(ended - started)
        if out:
            outputs.append(out)
        count += 1
        if window and count % window == 0:
            cpu_now = process_time()
            walls.append(ended - wall_mark)
            cpus.append(cpu_now - cpu_mark)
            wall_mark = ended
            cpu_mark = cpu_now
    final = None
    for index, stage in enumerate(stages):
        final = stage()
        if window or index == len(stages) - 1:
            wall_now = perf_counter()
            cpu_now = process_time()
            walls.append(wall_now - wall_mark)
            cpus.append(cpu_now - cpu_mark)
            wall_mark = wall_now
            cpu_mark = cpu_now
    return {"items": count, "failed": failed, "latencies": latencies,
            "walls": walls, "cpus": cpus, "outputs": outputs,
            "final": final}


def alert_digest(alerts: list) -> str:
    """sha256 of an alert stream in the fleet-canonical order.

    ``merge_alerts`` order — ``(timestamp, shard, seq)`` with the stream
    treated as one shard — is the order the sharded service emits, so a
    single-process digest and a sharded one are comparable.
    """
    ordered = merge_alerts(
        ShardAlert(0, seq, alert) for seq, alert in enumerate(alerts)
    )
    digest = hashlib.sha256()
    for alert in ordered:
        digest.update(repr((
            alert.client, alert.score, alert.timestamp, alert.wcg_order,
            alert.wcg_size, alert.session_key, alert.clue.as_primitives(),
        )).encode())
    return digest.hexdigest()


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class _TapPass:
    """pcap -> ``LiveDetector.feed`` per packet -> ``finish``: exactly
    what ``dynaminer detect`` runs (no ``AddressBook``)."""

    def __init__(self, ctx: Context, metrics: bool):
        policy = HOSTILE_POLICY if ctx.workload == "tap_hostile" else None
        self.path = os.path.join(ctx.workdir, "input.pcap")
        self.detector = LiveDetector(OnTheWireDetector(ctx.model),
                                     policy=policy)

    def run(self) -> dict[str, Any]:
        detector = self.detector
        with open(self.path, "rb") as handle:
            record = drive(pcap.PcapReader(handle), detector.feed,
                           (detector.finish,), WINDOW["packet"])
        alerts = [a for batch in record.pop("outputs") for a in batch]
        alerts.extend(record.pop("final"))
        record["alerts"] = len(alerts)
        record["digest"] = alert_digest(alerts)
        record["transactions"] = detector.transactions_emitted
        return record


class _ShardedPass:
    """The MIXED pcap through ``ShardedDetectionService``: route,
    pickle through ``mp.Queue``, detect in two workers, merge."""

    def __init__(self, ctx: Context, metrics: bool):
        self.path = os.path.join(ctx.workdir, "input.pcap")
        self.service = ShardedDetectionService(
            EngineSpec(classifier=ctx.model, metrics=metrics),
            workers=SHARD_WORKERS,
        )
        # Workers fork here, before any shim span is installed, so they
        # run the unwrapped program.
        self.service.start()

    def run(self) -> dict[str, Any]:
        service = self.service
        children_before = _children_cpu()
        fed_at = 0.0

        def drain():
            nonlocal fed_at
            fed_at = perf_counter()
            return service.drain()

        # One window: the coordinator's feed time and the backlog left
        # for drain() trade off against each other between passes, so
        # only the whole pass can be compared across them.
        started = perf_counter()
        with open(self.path, "rb") as handle:
            record = drive(pcap.PcapReader(handle), service.feed,
                           (drain,), None)
        fleet = record.pop("final")
        record.pop("outputs")
        # Workers are joined by drain(), so their CPU is accounted now.
        record["children_cpu"] = _children_cpu() - children_before
        record["feed_s"] = fed_at - started
        record["drain_s"] = record["walls"][-1] - record["feed_s"]
        # A packet the router did not hand to a shard is unaccounted.
        record["failed"] += abs(record["items"] - fleet.packets_routed)
        record["alerts"] = len(fleet.alerts)
        record["digest"] = alert_digest(fleet.alerts)
        record["transactions"] = fleet.transactions
        # The workers' merged registry snapshot (a traced pass).
        record["snapshot"] = fleet.snapshot
        return record


class _ProxyPass:
    """Merged transaction stream -> ``process_batch([txn])`` per
    transaction -> ``finalize``: the paper's proxy deployment."""

    def __init__(self, ctx: Context, metrics: bool):
        self.ctx = ctx
        self.detector = OnTheWireDetector(ctx.model)
        # Unpickled afresh per pass (bytes this benchmark's build()
        # wrote): a transaction caches what is derived from it, and a
        # proxy is handed parsed transactions it has not seen before.
        self.transactions = pickle.loads(ctx.stream)

    def run(self) -> dict[str, Any]:
        detector = self.detector

        def finish() -> list:
            before = len(detector.alerts)
            detector.finalize()
            return detector.alerts[before:]

        record = drive(self.transactions,
                       lambda txn: detector.process_batch([txn]),
                       (finish,), WINDOW["transaction"])
        alerts = [a for batch in record.pop("outputs") for a in batch]
        alerts.extend(record.pop("final"))
        record["alerts"] = len(alerts)
        record["digest"] = alert_digest(alerts)
        record["transactions"] = record["items"]
        record["quality"] = _proxy_quality(self.ctx.episodes, alerts)
        return record


def _proxy_quality(episodes: list[dict], alerts: list) -> dict[str, float]:
    """Per-episode verdicts against the corpus labels."""
    first_alert: dict[str, float] = {}
    for alert in alerts:
        seen = first_alert.get(alert.client)
        if seen is None or alert.timestamp < seen:
            first_alert[alert.client] = alert.timestamp
    infections = [e for e in episodes if e["infection"]]
    benign = [e for e in episodes if not e["infection"]]
    caught = [e for e in infections if e["client"] in first_alert]
    progress = sorted(
        sum(ts <= first_alert[e["client"]] for ts in e["timestamps"])
        / len(e["timestamps"])
        for e in caught
    )
    return {
        "episode_recall": len(caught) / max(len(infections), 1),
        "benign_alert_frac": (
            sum(e["client"] in first_alert for e in benign)
            / max(len(benign), 1)
        ),
        "alert_progress_p50": (
            float(np.median(progress)) if progress else 1.0
        ),
    }


class _OfflinePass:
    """Labelled captures -> batch decode -> replay WCG build (+ the
    clue-time prefix augmentation) -> batch extract -> ``fit`` on the
    augmented matrix (what ``trained_classifier`` ships) ->
    ``cross_validate`` on the un-augmented one (what Table III reports)."""

    def __init__(self, ctx: Context, metrics: bool):
        self.ctx = ctx
        self.graphs: list = []
        self.labels: list[float] = []
        self.full_rows: list[int] = []

    def _decode(self, entry: dict) -> None:
        path = os.path.join(self.ctx.workdir, "captures", entry["file"])
        linktype, packets = pcap.read_pcap(path)
        transactions = flows.transactions_from_packets(packets, linktype)
        if len(transactions) != entry["transactions"]:
            # Counted by drive() as a failed operation.
            raise ValueError(f"{entry['file']}: decoded "
                             f"{len(transactions)} transactions, source "
                             f"trace has {entry['transactions']}")
        trace = Trace(transactions=transactions,
                      label=TraceLabel(entry["label"]),
                      family=entry["family"], origin=entry["origin"])
        label = 1.0 if trace.is_infection else 0.0
        self.full_rows.append(len(self.graphs))
        self.graphs.append(builder.build_wcg(trace))
        self.labels.append(label)
        prefix = clue_time_prefix(trace)
        if prefix is not None:
            self.graphs.append(builder.build_wcg(prefix))
            self.labels.append(label)

    def _extract(self) -> None:
        self.X = FeatureExtractor().extract_batch(self.graphs)
        self.y = np.array(self.labels)

    def _fit(self) -> None:
        self.model = EnsembleRandomForest(n_trees=20,
                                          random_state=self.ctx.seed)
        self.model.fit(self.X, self.y)

    def _cross_validate(self) -> Any:
        return crossval.cross_validate(
            self.X[self.full_rows], self.y[self.full_rows], k=10,
            seed=self.ctx.seed,
        )

    def run(self) -> dict[str, Any]:
        record = drive(self.ctx.manifest, self._decode,
                       (self._extract, self._fit, self._cross_validate),
                       WINDOW["trace"])
        record.pop("outputs")
        result = record.pop("final")
        digest = hashlib.sha256(self.X.tobytes())
        digest.update(self.model.decision_scores(self.X).tobytes())
        digest.update(repr(sorted(result.summary().items())).encode())
        record["alerts"] = 0
        record["digest"] = digest.hexdigest()
        record["transactions"] = sum(
            e["transactions"] for e in self.ctx.manifest
        )
        record["quality"] = {"cv_tpr": result.mean("tpr"),
                             "cv_fpr": result.mean("fpr")}
        return record


_PASSES = {"tap_mixed": _TapPass, "tap_hostile": _TapPass,
           "tap_sharded": _ShardedPass, "proxy_dense": _ProxyPass,
           "offline_train": _OfflinePass}


def open_pass(ctx: Context, metrics: bool = False,
              workload: str | None = None):
    """A fresh pass over ``ctx``'s input: construct (untimed, before any
    shim is installed), then ``.run()`` is the timed loop.  ``metrics``
    says a ``MetricsRegistry`` is active, which the sharded service must
    be told so its workers record one too.  ``workload`` drives the
    input as another workload would (``tap_sharded``'s single-process
    reference)."""
    return _PASSES[workload or ctx.workload](ctx, metrics)
