"""Corpus builders: ground-truth and validation datasets (Sections II, VI-B).

``ground_truth_corpus`` reproduces Table I's composition: 980 benign
traces plus 770 infections spread across the ten family rows.
``validation_corpus`` reproduces the Section VI-B independent test set:
7489 infections (ThreatGlass stand-in: a disjoint, seed-shifted,
parameter-perturbed draw) and 1500 benign traces collected "the same
way" as the benign ground truth.

A ``scale`` knob shrinks every stratum proportionally (minimum one trace
per family) so tests and quick benches can run on a reduced corpus while
full-fidelity runs use ``scale=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import Trace
from repro.synthesis.benign import BenignGenerator
from repro.synthesis.families import (
    BENIGN_PROFILE,
    EXPLOIT_KIT_FAMILIES,
    FamilyProfile,
)
from repro.synthesis.infection import EpisodeConfig, InfectionGenerator

__all__ = ["Corpus", "ground_truth_corpus", "validation_corpus"]

#: Fraction of infection episodes generated in *stealth* form (no
#: redirections, compressed payload, human pacing, few hosts) — sized to
#: the paper's false-negative analysis: 206/7489 validation FNs, of
#: which 89 were compressed-no-redirect cases (Section VI-B).
_STEALTH_FRACTION = 0.03


@dataclass
class Corpus:
    """A labelled set of traces with per-family bookkeeping."""

    traces: list[Trace] = field(default_factory=list)
    seed: int = 0

    @property
    def benign(self) -> list[Trace]:
        """All benign traces."""
        return [t for t in self.traces if not t.is_infection]

    @property
    def infections(self) -> list[Trace]:
        """All infection traces."""
        return [t for t in self.traces if t.is_infection]

    def by_family(self, family: str) -> list[Trace]:
        """Infection traces of one family (case-insensitive)."""
        return [
            t for t in self.traces
            if t.family.lower() == family.lower()
        ]

    @property
    def families(self) -> list[str]:
        """Distinct infection family names present, in first-seen order."""
        seen: list[str] = []
        for trace in self.traces:
            if trace.family and trace.family not in seen:
                seen.append(trace.family)
        return seen

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)


def _scaled(count: int, scale: float) -> int:
    """Scale a stratum size, keeping at least one trace."""
    return max(1, int(round(count * scale)))


def _generate_family(
    profile: FamilyProfile,
    count: int,
    rng: np.random.Generator,
    hard_case_rate: float = _STEALTH_FRACTION,
) -> list[Trace]:
    """Generate ``count`` infections for one family profile."""
    generator = InfectionGenerator(profile, rng)
    traces: list[Trace] = []
    for _ in range(count):
        stealth = bool(rng.random() < hard_case_rate)
        traces.append(generator.generate(EpisodeConfig(stealth=stealth)))
    return traces


def ground_truth_corpus(
    seed: int = 7,
    scale: float = 1.0,
    stealth_fraction: float = _STEALTH_FRACTION,
) -> Corpus:
    """Build the Table I ground-truth corpus (980 benign + 770 infections).

    Args:
        seed: master seed; every stratum derives a child seed from it.
        scale: proportional shrink factor for quick runs (``1.0`` = full
            Table I composition).
        stealth_fraction: share of stealth-mode infections (set 0.0 for
            the zero-day evasion experiment, where the adversary adapts
            only after training).
    """
    master = np.random.SeedSequence(seed)
    children = master.spawn(len(EXPLOIT_KIT_FAMILIES) + 1)
    corpus = Corpus(seed=seed)
    benign_rng = np.random.default_rng(children[0])
    benign_gen = BenignGenerator(benign_rng)
    for _ in range(_scaled(BENIGN_PROFILE.trace_count, scale)):
        corpus.traces.append(benign_gen.generate_session())
    for child, profile in zip(children[1:], EXPLOIT_KIT_FAMILIES):
        rng = np.random.default_rng(child)
        corpus.traces.extend(
            _generate_family(
                profile, _scaled(profile.trace_count, scale), rng,
                hard_case_rate=stealth_fraction,
            )
        )
    return corpus


#: Relative jitter of the validation corpus's per-family host and
#: redirect means (:func:`validation_corpus`).
_VALIDATION_DRIFT = 0.15


def validation_corpus(seed: int = 1301, scale: float = 1.0) -> Corpus:
    """Build the Section VI-B independent test set (7489 + 1500).

    The infection side stands in for ThreatGlass intelligence: a draw
    that is disjoint from the ground truth (different seed stream) with
    per-family parameter *drift* — host and redirect means are jittered
    by up to ``_VALIDATION_DRIFT`` relative — modelling the distribution
    shift between the authors' own corpus and ThreatGlass captures.
    """
    master = np.random.SeedSequence(seed)
    children = master.spawn(len(EXPLOIT_KIT_FAMILIES) + 2)
    corpus = Corpus(seed=seed)

    benign_rng = np.random.default_rng(children[0])
    benign_gen = BenignGenerator(benign_rng)
    for _ in range(_scaled(1500, scale)):
        corpus.traces.append(benign_gen.generate_session())

    total_infections = _scaled(7489, scale)
    weights = np.array([f.trace_count for f in EXPLOIT_KIT_FAMILIES], float)
    weights /= weights.sum()
    counts = np.floor(weights * total_infections).astype(int)
    # Distribute the rounding remainder to the largest strata.
    remainder = total_infections - int(counts.sum())
    for index in np.argsort(weights)[::-1][:remainder]:
        counts[index] += 1

    drift_rng = np.random.default_rng(children[1])
    for child, profile, count in zip(
        children[2:], EXPLOIT_KIT_FAMILIES, counts
    ):
        if count <= 0:
            continue
        jitter = 1.0 + float(drift_rng.uniform(-_VALIDATION_DRIFT,
                                               _VALIDATION_DRIFT))
        from repro.synthesis.families import Range  # local to avoid cycle noise

        drifted = FamilyProfile(
            name=profile.name,
            trace_count=profile.trace_count,
            hosts=Range(
                profile.hosts.low,
                profile.hosts.high,
                min(profile.hosts.high,
                    max(profile.hosts.low, profile.hosts.mean * jitter)),
            ),
            redirects=Range(
                profile.redirects.low,
                profile.redirects.high,
                min(profile.redirects.high,
                    max(profile.redirects.low, profile.redirects.mean * jitter)),
            ),
            payload_counts=profile.payload_counts,
            post_download_prob=profile.post_download_prob,
            redirectless_prob=profile.redirectless_prob,
            signature_payloads=profile.signature_payloads,
        )
        rng = np.random.default_rng(child)
        corpus.traces.extend(_generate_family(drifted, int(count), rng))
    return corpus
