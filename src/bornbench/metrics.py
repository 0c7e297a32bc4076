"""Benchmark metrics: KL divergence, per-state F1, and the qBAS score.

KL uses natural logarithms.  Empirical probabilities of unsampled target
states are floored (default 1/(100 * n_shots)) so repeated evaluations stay
finite; every floored evaluation is flagged.

The per-state F1 treats each target state as its own class: with sampled
probability q and target probability p, the excess |q - p| counts as false
positives when q > p and as false negatives when q < p, giving
precision q/(2q - p), unit recall when overshooting and recall q/p, unit
precision when undershooting.

Every metric scores a 1-d counts array over the 2^n basis states, as
``sim.sample_counts`` and ``sim.sample_histogram`` draw it; the shot count is
its sum.

The qBAS score resamples small batches (size 15 for 2x2 images) from a
measured histogram; precision is the fraction of valid target-state draws in
a batch and recall the fraction of distinct target states seen.  The protocol
aggregates 11 independent histograms by inverse-variance weighting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean
from typing import NamedTuple

import numpy as np

from .bas import TargetDistribution
# circuit_probabilities is unused here, but perfbench traces it at this module
from .sim import circuit_probabilities, sample_counts  # noqa: F401


class KlEstimate(NamedTuple):
    mean: float
    std: float
    smoothed: bool


class QbasResult(NamedTuple):
    mean: float
    variance: float
    degenerate_weights: bool


@dataclass
class MetricRecord:
    """Metrics evaluated at one training step."""

    step: int
    kl_mean: float
    kl_std: float
    f1: dict[int, float]
    smoothing_used: bool
    qbas_mean: float | None = None
    qbas_var: float | None = None


def default_floor(n_shots: int) -> float:
    return 1.0 / (100.0 * n_shots)


def _kl_rows(p: TargetDistribution, counts, n_shots: int, floor: float | None) -> list[float]:
    """KL(p || q) in nats of each row of a (R, 2^n) counts array drawn at
    ``n_shots`` shots.  Each row is summed on its own, as a lone histogram is:
    a sum over the whole array's last axis rounds differently."""
    if floor is None:
        floor = default_floor(n_shots)
    support = p.support
    ps = p.probs[support]
    q_hat = np.maximum(counts[:, support] / n_shots, floor)
    with np.errstate(divide="ignore"):  # unsampled and unfloored: p log(p/0) = inf
        terms = ps * np.log(ps / q_hat)
    return [float(np.sum(row)) for row in terms]


def kl_divergence(p: TargetDistribution, counts, floor: float | None = None) -> float:
    """KL(p || q) in nats, q the empirical distribution of a counts array.

    A nonpositive ``floor`` disables smoothing: any unsampled target state
    then makes the divergence infinite.
    """
    return _kl_rows(p, counts[None], counts.sum(), floor)[0]


def kl_sampling_summary(
    p: TargetDistribution,
    probs,
    rng: np.random.Generator,
    n_repeats: int = 10,
    n_shots: int = 2048,
    floor: float | None = None,
) -> KlEstimate:
    """Mean and sample standard deviation of KL over independent histograms
    drawn from an outcome distribution, histogram k from the k-th generator
    spawned off ``rng``.  An infinite repeat makes both infinite."""
    if n_repeats < 2:
        raise ValueError("need at least 2 repeats for a standard deviation")
    rows = np.broadcast_to(probs, (n_repeats,) + np.shape(probs))
    counts = sample_counts(rows, n_shots, rng.spawn(n_repeats))
    values = _kl_rows(p, counts, n_shots, floor)
    smoothed = bool(np.any(counts[:, p.support] == 0))
    std = math.inf if math.inf in values else float(np.std(values, ddof=1))
    return KlEstimate(fmean(values), std, smoothed)


def f1_per_state(p: TargetDistribution, counts) -> dict[int, float]:
    """F1 score of each target support state against its empirical
    probability in a counts array."""
    empirical = counts / counts.sum()
    scores: dict[int, float] = {}
    for x in p.support:
        px = float(p.probs[x])
        qx = float(empirical[x])
        if qx == 0.0:
            scores[int(x)] = 0.0
            continue
        if qx >= px:
            tpr = 1.0
            precision = qx / (2.0 * qx - px)
        else:
            tpr = qx / px
            precision = 1.0
        scores[int(x)] = 2.0 * precision * tpr / (precision + tpr)
    return scores


def qbas_score(
    counts,
    bas_states,
    n_samples: int,
    n_resamples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Mean and variance of the qBAS score over batches resampled from a
    counts array.

    Each batch draws ``n_samples`` states with replacement from the empirical
    distribution; the score is the harmonic mean of batch precision and batch
    recall, taken as 0 when both vanish.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if n_resamples < 1:
        raise ValueError("n_resamples must be positive")
    bas_states = np.asarray(list(bas_states), dtype=int)
    draws = rng.multinomial(n_samples, counts / counts.sum(), size=n_resamples)
    bas_counts = draws[:, bas_states]
    precision = bas_counts.sum(axis=1) / n_samples
    recall = (bas_counts > 0).sum(axis=1) / len(bas_states)
    denom = precision + recall
    scores = np.where(denom > 0.0, 2.0 * precision * recall / np.where(denom > 0.0, denom, 1.0), 0.0)
    return float(scores.mean()), float(scores.var())


def qbas_from_probs(
    probs,
    bas_states,
    rng: np.random.Generator,
    shots: int = 1024,
    repeats: int = 11,
    sample_size: int = 15,
    resamples: int = 10000,
) -> QbasResult:
    """qBAS protocol on an outcome distribution: ``repeats`` independent
    histograms, scored by resampling, aggregated by inverse-variance weights.
    Counts row k is drawn from, then resampled on, the k-th generator spawned
    off ``rng``.

    The reported variance is that of the weighted mean, 1 / sum(1/var_i).
    When any per-histogram variance is zero the unweighted mean is returned
    with ``degenerate_weights`` set, with the spread of the per-histogram
    means as the variance.
    """
    streams = rng.spawn(repeats)
    counts = sample_counts(np.broadcast_to(probs, (repeats,) + np.shape(probs)), shots, streams)
    scores = [
        qbas_score(row, bas_states, sample_size, resamples, stream)
        for row, stream in zip(counts, streams)
    ]
    # fresh contiguous arrays: weights @ means on a strided view rounds differently
    means, variances = map(np.array, zip(*scores))
    if np.any(variances <= 1e-24):  # constant scores up to float rounding
        return QbasResult(float(means.mean()), float(means.var()), True)
    weights = 1.0 / variances
    weighted_mean = float((weights @ means) / weights.sum())
    weighted_variance = float(1.0 / weights.sum())
    return QbasResult(weighted_mean, weighted_variance, False)
