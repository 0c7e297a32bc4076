"""Benchmark metrics: KL divergence, per-state F1, and the qBAS score.

KL uses natural logarithms.  Empirical probabilities of unsampled target
states are floored at the fixed 1/(100 * n_shots), so every evaluation is
finite; every floored evaluation is flagged.

The per-state F1 treats each target state as its own class: with sampled
probability q and target probability p, the excess |q - p| counts as false
positives when q > p and as false negatives when q < p, giving
precision q/(2q - p), unit recall when overshooting and recall q/p, unit
precision when undershooting.

Every metric scores counts over the 2^n basis states, as
``sim.sample_counts`` and ``sim.sample_histogram`` draw them: KL a stack of
histograms (R, 2^n), F1 and qBAS one histogram (2^n,); a histogram's shot
count is its sum.  ``kl_sampling_summary`` and ``qbas_from_probs`` draw
their stacks from one outcome distribution themselves.

The qBAS score resamples small batches (size 15 for 2x2 images) from a
measured histogram; precision is the fraction of valid target-state draws in
a batch and recall the fraction of distinct target states seen.  The protocol
aggregates 11 independent histograms by inverse-variance weighting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .bas import TargetDistribution
# circuit_probabilities is unused here, but perfbench traces it at this module
from .sim import circuit_probabilities, sample_counts  # noqa: F401

RESAMPLE_CHUNK = 1024  # rows per draw in qbas_score; bounds its memory


class KlEstimate(NamedTuple):
    mean: float
    std: float
    smoothed: bool


class QbasResult(NamedTuple):
    mean: float
    variance: float


@dataclass
class MetricRecord:
    """Metrics evaluated at one training step."""

    step: int
    loss: float
    kl_mean: float
    kl_std: float
    f1: dict[int, float]
    smoothing_used: bool
    qbas_mean: float | None = None
    qbas_var: float | None = None


def kl_divergence(p: TargetDistribution, counts) -> list[float]:
    """KL(p || q) in nats for each row of a counts stack (R, 2^n), q the
    row's empirical distribution.  Unsampled target states are floored at
    1/(100 * n_shots), n_shots the row's sum.  Each row is summed on its own:
    a sum over the whole stack's last axis rounds differently."""
    n_shots = counts.sum(axis=1, keepdims=True)
    support = p.support
    ps = p.probs[support]
    q_hat = np.maximum(counts[:, support] / n_shots, 1.0 / (100.0 * n_shots))
    return [float(np.sum(row)) for row in ps * np.log(ps / q_hat)]


def kl_sampling_summary(p: TargetDistribution, probs, streams, n_shots: int = 2048) -> KlEstimate:
    """Mean and sample standard deviation of KL over independent histograms
    drawn from one outcome distribution (2^n,), histogram k from generator
    ``streams[k]``; the training loop passes the ``kl_repeats`` children of
    the step's KL stream, as ``sim.stream_seeds`` derives them."""
    if len(streams) < 2:
        raise ValueError("need at least 2 repeats for a standard deviation")
    counts = sample_counts(probs, n_shots, streams)
    values = kl_divergence(p, counts)
    smoothed = bool(np.any(counts[:, p.support] == 0))
    return KlEstimate(math.fsum(values) / len(values), float(np.std(values, ddof=1)), smoothed)


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
    recall, taken as 0 when both vanish.  Batches are drawn ``RESAMPLE_CHUNK``
    at a time, which gives the same rows as one draw of all of them.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if n_resamples < 1:
        raise ValueError("n_resamples must be positive")
    bas_states = np.asarray(list(bas_states), dtype=int)
    pvals = counts / counts.sum()
    scores = np.empty(n_resamples)
    for start in range(0, n_resamples, RESAMPLE_CHUNK):
        chunk = scores[start : start + RESAMPLE_CHUNK]
        bas_counts = rng.multinomial(n_samples, pvals, size=len(chunk))[:, bas_states]
        precision = bas_counts.sum(axis=1) / n_samples
        recall = (bas_counts > 0).sum(axis=1) / len(bas_states)
        denom = precision + recall
        chunk[:] = np.where(denom > 0.0, 2.0 * precision * recall / np.where(denom > 0.0, denom, 1.0), 0.0)
    return float(scores.mean()), float(scores.var())


def qbas_aggregate(scores) -> QbasResult:
    """Inverse-variance weighted mean of per-histogram (mean, variance)
    scores, in order.

    The reported variance is that of the weighted mean, 1 / sum(1/var_i).
    When any per-histogram variance is zero the unweighted mean is returned,
    with the spread of the per-histogram means as the variance.
    """
    # fresh contiguous arrays: weights @ means on a strided view rounds differently
    means, variances = map(np.array, zip(*scores))
    if np.any(variances <= 1e-24):  # constant scores up to float rounding
        return QbasResult(float(means.mean()), float(means.var()))
    weights = 1.0 / variances
    weighted_mean = float((weights @ means) / weights.sum())
    weighted_variance = float(1.0 / weights.sum())
    return QbasResult(weighted_mean, weighted_variance)


def qbas_from_probs(
    probs,
    bas_states,
    streams,
    pool,
    shots: int = 1024,
    sample_size: int = 15,
    resamples: int = 10000,
):
    """qBAS protocol on an outcome distribution: one histogram per generator
    in ``streams``, each scored by resampling.  The histograms are drawn here
    and their ``qbas_score`` calls queued with ``pool.map`` (an
    ``Executor``); the returned iterator yields each histogram's (mean,
    variance) in order, and ``qbas_aggregate`` of it is the ``QbasResult``,
    the same whatever the pool's size.  Counts row k is drawn from, then
    resampled on, ``streams[k]``; the training loop passes the
    ``qbas_repeats`` children of the step's qBAS stream, as
    ``sim.stream_seeds`` derives them.
    """
    if not len(streams):
        raise ValueError("repeats must be positive, got 0")
    counts = sample_counts(probs, shots, streams)
    return pool.map(
        qbas_score, counts, repeat(bas_states), repeat(sample_size), repeat(resamples), streams
    )
