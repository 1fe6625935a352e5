"""Seeded generator of WMT-shaped synthetic score campaigns.

A campaign is one human score file plus one file per metric, all in the
three-column TSV format the ``tiecal`` CLI reads.  The human side is
MQM-like: each (system, segment) gets minor, major and punctuation error
counts from Poisson draws, and its score is minus the weighted sum
(1, 5 and 0.1 per error, floored at -25), so most segments score exactly
0 and human ties are heavy.  Metrics observe a noisy version of the same
latent quality through one of three families:

- ``continuous``: COMET-like values in (0, 1) printed with 6 decimals;
- ``discrete``: classifier-like integer levels 0 .. levels-1;
- ``bleu``: sentence-BLEU-like values in [0, 100] with 2 decimals, with a
  share of exact zeros.

Every file is a pure function of the seed and the campaign shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

FAMILIES = ("continuous", "discrete", "bleu")


@dataclass(frozen=True)
class MetricSpec:
    name: str
    family: str
    noise: float
    levels: int = 0  # discrete family only

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown metric family {self.family!r}")
        if self.family == "discrete" and self.levels < 2:
            raise ValueError("a discrete metric needs at least 2 levels")


@dataclass(frozen=True)
class CampaignSpec:
    systems: int
    segments: int
    metrics: tuple[MetricSpec, ...]


def _mqm_scores(rng: np.random.Generator, n_sys: int, n_seg: int) -> tuple[np.ndarray, np.ndarray]:
    """MQM-like human scores and the latent quality the metrics observe."""
    system_rate = rng.uniform(0.3, 1.3, size=n_sys)[:, None]
    difficulty = rng.gamma(0.7, 1.0, size=n_seg)[None, :]
    # Scaled so about 55% of within-item pairs are human ties, as in WMT'22 en-de.
    rate = 0.7 * system_rate * difficulty
    minor = rng.poisson(rate)
    major = rng.poisson(0.25 * rate)
    punct = rng.poisson(0.05, size=rate.shape)
    human = -np.minimum(minor + 5.0 * major + 0.1 * punct, 25.0)
    human = np.round(human, 1) + 0.0  # normalise -0.0 to 0.0
    # Latent quality: the error mass plus what annotators did not mark.
    latent = -(minor + 5.0 * major) - rate + rng.normal(0.0, 0.5, size=rate.shape)
    latent = (latent - latent.mean()) / latent.std()
    return human, latent


def _metric_scores(rng: np.random.Generator, latent: np.ndarray, spec: MetricSpec) -> np.ndarray:
    bias = rng.normal(0.0, 0.2, size=(latent.shape[0], 1))
    x = latent + bias + rng.normal(0.0, spec.noise, size=latent.shape)
    if spec.family == "continuous":
        return np.round(1.0 / (1.0 + np.exp(-x)), 6)
    if spec.family == "discrete":
        cuts = np.quantile(x, np.linspace(0.0, 1.0, spec.levels + 1)[1:-1])
        return np.searchsorted(cuts, x).astype(np.float64)
    bleu = 100.0 / (1.0 + np.exp(-(0.9 * x - 0.4)))
    bleu[rng.random(latent.shape) < 0.04] = 0.0
    return np.round(bleu, 2)


def _format(values: np.ndarray, family: str) -> list[str]:
    if family == "human":
        return [f"{v:.1f}" for v in values.ravel().tolist()]
    if family == "discrete":
        return [str(int(v)) for v in values.ravel().tolist()]
    digits = 6 if family == "continuous" else 2
    return [f"{v:.{digits}f}" for v in values.ravel().tolist()]


def _tsv(systems: list[str], segments: list[str], cells: list[str]) -> bytes:
    lines = ["system\tsegment\tscore"]
    k = 0
    for system in systems:
        for segment in segments:
            lines.append(f"{system}\t{segment}\t{cells[k]}")
            k += 1
    return ("\n".join(lines) + "\n").encode("utf-8")


def generate(spec: CampaignSpec, seed: int) -> dict[str, bytes]:
    """File name -> TSV bytes: ``human.tsv`` plus ``<metric>.tsv`` per metric."""
    root = np.random.SeedSequence(seed)
    human_seq, *metric_seqs = root.spawn(1 + len(spec.metrics))
    systems = [f"sys{i:02d}" for i in range(spec.systems)]
    segments = [f"seg{i:05d}" for i in range(spec.segments)]
    human, latent = _mqm_scores(np.random.default_rng(human_seq), spec.systems, spec.segments)
    files = {"human.tsv": _tsv(systems, segments, _format(human, "human"))}
    for metric, seq in zip(spec.metrics, metric_seqs):
        values = _metric_scores(np.random.default_rng(seq), latent, metric)
        files[f"{metric.name}.tsv"] = _tsv(systems, segments, _format(values, metric.family))
    return files


def write_campaign(spec: CampaignSpec, seed: int, directory: Path) -> dict[str, Path]:
    """Generate a campaign into ``directory``; returns file name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, payload in generate(spec, seed).items():
        path = directory / name
        path.write_bytes(payload)
        paths[name] = path
    return paths
