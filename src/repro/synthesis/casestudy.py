"""Case-study scenario generators (Sections VI-C and VI-D).

``forensic_streaming_session`` reproduces the free-live-streaming capture
of Case Study 1: a 90-minute session on a streaming site with 18 tabs,
3 player interruptions each followed by a fake "out-of-date player"
download lure, 32 downloaded payloads, a longest redirect chain of 4,
12 unique remote domains, and ~3,011 HTTP transactions in total —
of which 5 download sequences are genuinely infectious (3 fake Flash
player executables, 1 JAR, 1 PDF with an embedded exploit that AV
engines initially miss).

``enterprise_live_session`` reproduces the Case Study 2 mini-enterprise
stream: three hosts (Windows/IE, Ubuntu/Firefox, MacOS/Chrome) browsing
for 48 hours, 62 downloads with Table VI's per-host payload mix, and 8
infectious episodes (4 Windows, 3 Ubuntu, 1 MacOS) plus 2 malicious PDFs
on the Windows host whose maliciousness is content-borne (DynaMiner's
expected misses).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.model import Trace
from repro.synthesis.benign import BenignGenerator, BenignScenario
from repro.synthesis.families import family_by_name
from repro.synthesis.infection import EpisodeConfig, InfectionGenerator

__all__ = [
    "StreamedSession",
    "DownloadRecord",
    "forensic_streaming_session",
    "enterprise_live_session",
]


@dataclass
class DownloadRecord:
    """One downloaded payload with its ground-truth maliciousness."""

    host: str
    client: str
    extension: str
    malicious: bool
    content_borne: bool = False  # malicious only via embedded content
    sha256: str = ""


@dataclass
class StreamedSession:
    """A merged multi-episode HTTP stream plus per-download ground truth."""

    trace: Trace
    downloads: list[DownloadRecord] = field(default_factory=list)
    infectious_episodes: int = 0
    clients: list[str] = field(default_factory=list)

    @property
    def transaction_count(self) -> int:
        """Total request/response pairs in the stream."""
        return len(self.trace.transactions)


_DOWNLOAD_EXTS = ("exe", "jar", "pdf", "swf", "zip", "dmg", "docx", "bin")


def _downloads_in(trace: Trace, malicious: bool,
                  content_borne: bool = False) -> list[DownloadRecord]:
    """Extract download records from a trace's transactions."""
    records = []
    for txn in trace.transactions:
        uri = txn.request.uri
        ext = uri.split("?")[0].rsplit(".", 1)[-1].lower() if "." in uri.split("?")[0].rsplit("/", 1)[-1] else ""
        if ext in _DOWNLOAD_EXTS and txn.status == 200:
            records.append(
                DownloadRecord(
                    host=txn.server, client=txn.client, extension=ext,
                    malicious=malicious, content_borne=content_borne,
                    # Not builtin ``hash()``: salted per process.
                    sha256=hashlib.sha256(
                        f"{txn.server}|{uri}".encode()).hexdigest(),
                )
            )
    return records


def forensic_streaming_session(seed: int = 2016) -> StreamedSession:
    """Build the Case Study 1 stream (free live-streaming replay)."""
    rng = np.random.default_rng(seed)
    victim = "fan-laptop"
    streaming_host = "atdhe.net"
    benign_gen = BenignGenerator(rng)
    benign_gen._base_time = 1_468_166_400.0  # 2016-07-10, kickoff
    forge = benign_gen.forge

    all_traces: list[Trace] = []
    downloads: list[DownloadRecord] = []
    infectious = 0

    # Background: the streaming session itself + the 18 open tabs.
    # Streaming segments dominate the 3,011-transaction volume.
    stream_trace = benign_gen.generate(BenignScenario.VIDEO)
    all_traces.append(stream_trace)
    for _ in range(17):
        scenario = (BenignScenario.ALEXA if rng.random() < 0.7
                    else BenignScenario.SEARCH)
        all_traces.append(benign_gen.generate(scenario))

    # Benign downloads clicked during the session (bulk of the 32).
    for _ in range(16):
        trace = benign_gen.generate(BenignScenario.WEBMAIL)
        all_traces.append(trace)
        downloads.extend(_downloads_in(trace, malicious=False))

    # The 3 player interruptions -> fake "out-of-date player" lures.
    # 3 executables + 1 JAR + 1 PDF are genuinely infectious (5 alerts).
    angler = family_by_name("Angler")
    fiesta = family_by_name("Fiesta")
    lures = [("Angler", angler), ("Angler", angler), ("Angler", angler),
             ("Neutrino", family_by_name("Neutrino")),
             ("Fiesta", fiesta)]
    for _, profile in lures:
        gen = InfectionGenerator(profile, rng)
        gen._base_time = 1_468_166_400.0
        trace = gen.generate(EpisodeConfig(with_post_download=True))
        # Re-home the episode onto the streaming victim.
        for txn in trace.transactions:
            txn.request.client = victim
        all_traces.append(trace)
        infectious += 1
        content_borne = profile is fiesta  # the PDF AV initially misses
        downloads.extend(
            _downloads_in(trace, malicious=True, content_borne=content_borne)
        )

    merged = _merge(all_traces, victim_override=victim,
                    target_transactions=3011, rng=rng,
                    filler_host=streaming_host, forge=forge,
                    benign_gen=benign_gen)
    return StreamedSession(
        trace=merged,
        downloads=downloads[:32],
        infectious_episodes=infectious,
        clients=[victim],
    )


#: Table VI per-host benign download mixes: (pdf, exe, jar).
_ENTERPRISE_MIX = {
    "win-host": {"pdf": 11, "exe": 6, "jar": 5},
    "ubuntu-host": {"pdf": 15, "exe": 0, "jar": 8},
    "macos-host": {"pdf": 6, "exe": 8, "jar": 3},
}
#: Infectious episodes per host (Table VI alert row): payload of each.
_ENTERPRISE_INFECTIONS = {
    "win-host": ["swf", "swf", "swf", "jar"],
    "ubuntu-host": ["jar", "jar", "jar"],
    "macos-host": ["dmg"],
}


def enterprise_live_session(seed: int = 48) -> StreamedSession:
    """Build the Case Study 2 stream (48 h, 3-host mini-enterprise)."""
    rng = np.random.default_rng(seed)
    benign_gen = BenignGenerator(rng)
    all_traces: list[Trace] = []
    downloads: list[DownloadRecord] = []
    infectious = 0

    for host, mix in _ENTERPRISE_MIX.items():
        # Routine browsing background per host.
        for _ in range(6):
            trace = benign_gen.generate()
            for txn in trace.transactions:
                txn.request.client = host
            all_traces.append(trace)
        # Benign downloads matching the Table VI mix (minus the
        # infectious ones accounted for below).
        for ext, count in mix.items():
            for _ in range(count):
                trace = benign_gen.generate(BenignScenario.WEBMAIL)
                for txn in trace.transactions:
                    txn.request.client = host
                all_traces.append(trace)
                recs = _downloads_in(trace, malicious=False)
                for rec in recs:
                    rec.extension = ext
                    rec.client = host
                downloads.extend(recs[:1])

    # Infectious episodes per Table VI.
    profile_for = {"swf": "Angler", "jar": "Neutrino", "dmg": "OtherKits"}
    for host, payloads in _ENTERPRISE_INFECTIONS.items():
        for ext in payloads:
            profile = family_by_name(profile_for[ext])
            gen = InfectionGenerator(profile, rng)
            trace = gen.generate(EpisodeConfig(with_post_download=True))
            for txn in trace.transactions:
                txn.request.client = host
            all_traces.append(trace)
            infectious += 1
            recs = _downloads_in(trace, malicious=True)
            for rec in recs:
                rec.client = host
                rec.extension = ext  # Table VI's per-host payload type
            downloads.extend(recs[:1])

    # The 2 content-borne malicious PDFs on the Windows host: benign-shaped
    # conversations whose payload carries an embedded Flash exploit.
    for _ in range(2):
        trace = benign_gen.generate(BenignScenario.WEBMAIL)
        for txn in trace.transactions:
            txn.request.client = "win-host"
        all_traces.append(trace)
        recs = _downloads_in(trace, malicious=True, content_borne=True)
        for rec in recs:
            rec.client = "win-host"
            rec.extension = "pdf"
        downloads.extend(recs[:1])

    merged = _merge(all_traces, victim_override=None,
                    target_transactions=None, rng=rng,
                    window=48 * 3600.0)
    return StreamedSession(
        trace=merged,
        downloads=downloads,
        infectious_episodes=infectious,
        clients=list(_ENTERPRISE_MIX),
    )


def _merge(
    traces: list[Trace],
    victim_override: str | None,
    target_transactions: int | None,
    rng: np.random.Generator,
    filler_host: str = "",
    forge=None,
    benign_gen: BenignGenerator | None = None,
    window: float = 5400.0,
) -> Trace:
    """Interleave episode traces into one wall-clock-ordered stream.

    Episode start times scatter uniformly over ``window`` seconds — the
    90-minute streaming session for Case Study 1, the 48-hour capture
    for Case Study 2 (dense packing would fuse unrelated sessions in the
    detector's session table, which the real timelines do not).
    """
    transactions = []
    base = min(
        (t.transactions[0].timestamp for t in traces if t.transactions),
        default=0.0,
    )
    for trace in traces:
        if not trace.transactions:
            continue
        offset = base + float(rng.uniform(0, window)) - trace.transactions[0].timestamp
        for txn in trace.transactions:
            txn.request.timestamp += offset
            if txn.response is not None:
                txn.response.timestamp += offset
            if victim_override is not None:
                txn.request.client = victim_override
            transactions.append(txn)
    # Pad with streaming-segment fetches to reach the published volume.
    if target_transactions is not None and filler_host and benign_gen is not None:
        builder_rng = rng
        ts = base
        from repro.core.model import (
            Headers, HttpMethod, HttpRequest, HttpResponse, HttpTransaction,
        )
        while len(transactions) < target_transactions:
            ts += float(builder_rng.uniform(1.0, 3.0))
            headers = Headers({"Host": filler_host,
                               "Referer": f"http://{filler_host}/live"})
            request = HttpRequest(
                method=HttpMethod.GET,
                uri=f"/segments/{forge.token(8)}.ts",
                host=filler_host,
                client=victim_override or "fan-laptop",
                timestamp=ts,
                headers=headers,
            )
            res_headers = Headers({"Content-Type": "video/mp2t",
                                   "Content-Length": "1400000"})
            response = HttpResponse(status=200, timestamp=ts + 0.2,
                                    headers=res_headers)
            transactions.append(HttpTransaction(request, response))
        transactions = transactions[:target_transactions]
    return Trace(transactions=transactions, label=None,
                 meta={"merged_episodes": len(traces)})
