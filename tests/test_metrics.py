import math
from statistics import fmean

import numpy as np
import pytest

from bornbench import (
    QbasResult,
    TrainingConfig,
    bas_target_distribution,
    enumerate_bas,
    ImageShape,
    f1_per_state,
    kl_divergence,
    kl_sampling_summary,
    qbas_from_probs,
    qbas_score,
    sample_histogram,
)
from bornbench import circuit_probabilities, metrics
from bornbench.sim import sample_counts

BAS22 = [0, 3, 5, 10, 12, 15]


def test_kl_zero_when_proportional(target22):
    counts = np.zeros(16, dtype=int)
    counts[BAS22] = 100
    assert kl_divergence(target22, counts) == pytest.approx(0.0, abs=1e-12)


def test_kl_uniform_sixteen(target22):
    counts = np.full(16, 100, dtype=int)
    expected = math.log(16.0 / 6.0)
    assert kl_divergence(target22, counts) == pytest.approx(expected, abs=1e-12)


def test_kl_smoothing_floor(target22):
    counts = np.zeros(16, dtype=int)
    counts[BAS22[:-1]] = 100  # one support state unsampled
    floored = kl_divergence(target22, counts, floor=1.0 / (100 * counts.sum()))
    assert math.isfinite(floored)
    assert kl_divergence(target22, counts, floor=0.0) == math.inf
    # default floor is 1/(100 n_shots), n_shots the sum of the counts
    assert kl_divergence(target22, counts) == pytest.approx(floored, abs=1e-12)


def test_kl_summary_flags_smoothing(target22):
    spiky = np.zeros(16)
    spiky[BAS22[:-1]] = 0.2  # support state 15 can never be drawn
    summary = kl_sampling_summary(target22, spiky, np.random.default_rng(0), n_repeats=5, n_shots=64)
    assert summary.smoothed
    assert math.isfinite(summary.mean)

    clean = kl_sampling_summary(
        target22, target22.probs, np.random.default_rng(0), n_repeats=5, n_shots=4096
    )
    assert not clean.smoothed


def test_kl_summary_validation(target22):
    with pytest.raises(ValueError):
        kl_sampling_summary(target22, target22.probs, np.random.default_rng(0), n_repeats=1)


def test_kl_of_perfect_circuit_small_bias(target22):
    # Monte-Carlo oracle for the finite-shot bias of KL at 2048 draws from
    # the uniform 6-state target
    oracle_draws = [
        kl_divergence(target22, sample_histogram(target22.probs, 2048, np.random.default_rng(s)))
        for s in range(400)
    ]
    oracle_mean = float(np.mean(oracle_draws))
    assert oracle_mean < 0.02

    summary = kl_sampling_summary(target22, target22.probs, np.random.default_rng(9))
    assert summary.mean == pytest.approx(oracle_mean, abs=3 * np.std(oracle_draws))
    assert 0.0 <= summary.mean < 0.02


def test_kl_summary_deterministic(target22):
    a = kl_sampling_summary(target22, target22.probs, np.random.default_rng(77))
    b = kl_sampling_summary(target22, target22.probs, np.random.default_rng(77))
    assert a == b


def test_mean_kl_defaults_and_noise_path(trained_dc2_L2):
    import inspect

    defaults = inspect.signature(kl_sampling_summary).parameters
    assert defaults["n_repeats"].default == 10
    assert defaults["n_shots"].default == 2048

    config, record = trained_dc2_L2
    probs = circuit_probabilities(config.circuit(), record.final_theta, config.noise)
    estimate = kl_sampling_summary(config.target(), probs, np.random.default_rng(3))
    assert estimate.mean < 0.1  # converged circuit
    assert estimate.std > 0.0


def test_mean_kl_std_scaling(target22):
    # sample std should scale roughly like 1/sqrt(shots): each 4x increase in
    # shots should shrink it by about 2, within a factor of 2 either way
    from bornbench import train

    config = TrainingConfig(d_c=2, n_layers=2, n_steps=30, alpha=0.1, gradient_mode="exact", seed=1)
    record = train(config)
    probs = circuit_probabilities(config.circuit(), record.final_theta)
    stds = {}
    for shots in (512, 2048, 8192):
        summary = kl_sampling_summary(
            target22, probs, np.random.default_rng(13), n_repeats=200, n_shots=shots
        )
        stds[shots] = summary.std
    for small, big in ((512, 2048), (2048, 8192)):
        ratio = stds[small] / stds[big]
        assert 1.0 < ratio < 4.0  # predicted 2, allow a factor of 2


def test_f1_hand_cases(target22):
    # q == p -> 1
    counts = np.zeros(16, dtype=int)
    counts[BAS22] = 200
    scores = f1_per_state(target22, counts)
    assert all(scores[s] == pytest.approx(1.0, abs=1e-12) for s in BAS22)

    # q = p/2 = 1/12: recall 1/2, precision 1, F1 = 2/3
    counts = np.zeros(16, dtype=int)
    counts[BAS22] = 200
    counts[0] = 100
    counts[1] = 100  # dump the removed mass on a non-support state
    scores = f1_per_state(target22, counts)
    assert scores[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    # q = 2p = 1/3: precision (1/3)/(1/2) = 2/3, recall 1, F1 = 4/5
    counts = np.zeros(16, dtype=int)
    counts[BAS22] = 200
    counts[0] = 400
    counts[3] = 0  # keep the total fixed; only state 0 matters here
    scores = f1_per_state(target22, counts)
    assert scores[0] == pytest.approx(4.0 / 5.0, abs=1e-12)

    # unsampled state -> 0
    assert scores[3] == 0.0


def test_f1_unimodal_in_q(target22):
    n_shots = 9600  # p(0) corresponds to 1600 counts
    values = []
    for count in range(0, 3201, 200):
        counts = np.zeros(16, dtype=int)
        counts[BAS22] = 1200
        counts[0] = count
        counts[1] = n_shots - 1200 * 5 - count  # non-support filler
        scores = f1_per_state(target22, counts)
        values.append(scores[0])
        assert 0.0 <= scores[0] <= 1.0
    peak = 1600 // 200  # q == p
    for i in range(peak):
        assert values[i] < values[i + 1]  # strictly increasing below p
    for i in range(peak, len(values) - 1):
        assert values[i] > values[i + 1]  # strictly decreasing above p


def test_qbas_single_state_analytic():
    # all draws land on one target state: precision 1, recall 1/6, score 2/7
    probs = np.zeros(16)
    probs[3] = 1.0
    hist = sample_histogram(probs, 1024, np.random.default_rng(0))
    mean, variance = qbas_score(hist, BAS22, 15, 5000, np.random.default_rng(1))
    assert mean == pytest.approx(2.0 / 7.0, abs=1e-12)
    assert variance == pytest.approx(0.0, abs=1e-24)


def test_qbas_no_valid_draws():
    probs = np.zeros(16)
    probs[1] = 1.0  # not a target state
    hist = sample_histogram(probs, 1024, np.random.default_rng(0))
    mean, variance = qbas_score(hist, BAS22, 15, 2000, np.random.default_rng(1))
    assert mean == 0.0 and variance == 0.0


def test_qbas_binomial_oracle():
    # q splits evenly between one target state and one non-target state; the
    # score distribution follows Binomial(15, 1/2) valid draws exactly
    counts = np.zeros(16, dtype=int)
    counts[3] = 500
    counts[1] = 500

    def score(k):
        if k == 0:
            return 0.0
        precision = k / 15.0
        recall = 1.0 / 6.0
        return 2 * precision * recall / (precision + recall)

    pmf = [math.comb(15, k) * 0.5**15 for k in range(16)]
    oracle_mean = sum(p * score(k) for k, p in enumerate(pmf))
    oracle_var = sum(p * score(k) ** 2 for k, p in enumerate(pmf)) - oracle_mean**2

    n_resamples = 20000
    mean, variance = qbas_score(counts, BAS22, 15, n_resamples, np.random.default_rng(2))
    assert mean == pytest.approx(oracle_mean, abs=3 * math.sqrt(oracle_var / n_resamples))
    assert variance == pytest.approx(oracle_var, rel=0.1)


def test_qbas_uniform_target_range(target22):
    result = qbas_from_probs(target22.probs, BAS22, np.random.default_rng(4))
    assert 0.95 <= result.mean <= 0.98
    assert result.variance > 0.0
    assert not result.degenerate_weights


def test_qbas_monotone_under_junk_mass(target22):
    # adding non-target mass should not increase the mean score
    uniform_junk = np.zeros(16)
    junk_states = [i for i in range(16) if i not in BAS22]
    uniform_junk[junk_states] = 1.0 / len(junk_states)
    means = []
    for eps in (0.0, 0.15, 0.3, 0.6):
        probs = (1 - eps) * target22.probs + eps * uniform_junk
        draws = [
            qbas_from_probs(probs, BAS22, np.random.default_rng(100 + s), resamples=4000).mean
            for s in range(4)
        ]
        means.append((np.mean(draws), np.std(draws, ddof=1) / 2))
    for (m_low, se_low), (m_high, se_high) in zip(means, means[1:]):
        assert m_high <= m_low + 3 * math.hypot(se_low, se_high)


def test_qbas_protocol_degenerate_flag():
    probs = np.zeros(16)
    probs[3] = 1.0  # every histogram is a point mass; per-histogram variance 0
    result = qbas_from_probs(probs, BAS22, np.random.default_rng(5))
    assert result.degenerate_weights
    assert result.mean == pytest.approx(2.0 / 7.0, abs=1e-12)


def test_qbas_protocol_deterministic(trained_dc2_L2):
    config, record = trained_dc2_L2
    a, b = (
        qbas_from_probs(
            circuit_probabilities(config.circuit(), record.final_theta),
            BAS22,
            np.random.default_rng(6),
            resamples=2000,
        )
        for _ in range(2)
    )
    assert a == b
    assert 0.0 <= a.mean <= 1.0


def test_qbas_validation(target22):
    hist = sample_histogram(target22.probs, 64, np.random.default_rng(0))
    with pytest.raises(ValueError):
        qbas_score(hist, BAS22, 0, 100, np.random.default_rng(0))
    with pytest.raises(ValueError):
        qbas_score(hist, BAS22, 15, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# The per-histogram loops that one batched ``sample_counts`` call replaced,
# kept as the reference the batched metrics must match bit for bit.


def reference_kl(p, counts, floor=None):
    n_shots = int(counts.sum())
    if floor is None:
        floor = 1.0 / (100.0 * n_shots)
    empirical = counts[p.support] / n_shots
    if floor <= 0.0:
        if np.any(empirical == 0.0):
            return math.inf
        q_hat = empirical
    else:
        q_hat = np.maximum(empirical, floor)
    ps = p.probs[p.support]
    return float(np.sum(ps * np.log(ps / q_hat)))


def reference_kl_summary(p, probs, rng, n_repeats, n_shots, floor):
    values, smoothed = [], False
    for stream in rng.spawn(n_repeats):
        hist = sample_histogram(probs, n_shots, stream)
        smoothed |= bool(np.any(hist[p.support] == 0))
        value = kl_divergence(p, hist, floor)
        assert repr(value) == repr(reference_kl(p, hist, floor))
        values.append(value)
    return fmean(values), float(np.std(values, ddof=1)), smoothed


def reference_qbas(probs, bas_states, rng, shots, repeats, sample_size, resamples):
    streams = rng.spawn(repeats)
    means = np.empty(repeats)
    variances = np.empty(repeats)
    for k, stream in enumerate(streams):
        hist = sample_histogram(probs, shots, stream)
        means[k], variances[k] = qbas_score(hist, bas_states, sample_size, resamples, stream)
    if np.any(variances <= 1e-24):
        return QbasResult(float(means.mean()), float(means.var()), True)
    weights = 1.0 / variances
    return QbasResult(float((weights @ means) / weights.sum()), float(1.0 / weights.sum()), False)


def noisy_target(shape, seed, unsampled=False):
    """The BAS target mixed with Dirichlet noise; ``unsampled`` zeroes one
    support state so that no histogram can draw it."""
    target = bas_target_distribution(shape)
    noise = np.random.default_rng(seed).dirichlet(np.ones(len(target.probs)))
    probs = 0.8 * target.probs + 0.2 * noise
    if unsampled:
        probs[target.support[-1]] = 0.0
    return target, probs / probs.sum()


SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4)]


@pytest.mark.parametrize("rows, cols", SHAPES)
@pytest.mark.parametrize("floor", [None, 0.0, 1e-3], ids=["default", "zero", "fixed"])
@pytest.mark.parametrize("unsampled", [False, True], ids=["sampled", "unsampled"])
def test_kl_summary_matches_per_histogram_loop(rows, cols, floor, unsampled):
    target, probs = noisy_target(ImageShape(rows, cols), 10 * rows + cols, unsampled)
    for n_shots, seed in ((64, 1), (2048, 2)):
        got = kl_sampling_summary(
            target, probs, np.random.default_rng(seed), n_repeats=7, n_shots=n_shots, floor=floor
        )
        with np.errstate(invalid="ignore"):  # numpy's std of infinite values is nan
            expected = reference_kl_summary(
                target, probs, np.random.default_rng(seed), 7, n_shots, floor
            )
        if expected[0] == math.inf:  # some repeat missed a support state, unfloored
            assert got.mean == got.std == math.inf
            assert got.smoothed == expected[2]
        else:
            assert repr(tuple(got)) == repr(expected)  # repr: bit-exact
        if unsampled:
            assert got.smoothed
            assert (got.mean == math.inf) == (floor == 0.0)


@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 3)])
def test_qbas_from_probs_matches_per_histogram_loop(rows, cols):
    shape = ImageShape(rows, cols)
    bas_states = enumerate_bas(shape)
    _, probs = noisy_target(shape, rows + cols)
    point = np.zeros(2**shape.n_bits)
    point[bas_states[1]] = 1.0  # degenerate weights
    for case in (probs, point):
        got = qbas_from_probs(case, bas_states, np.random.default_rng(8), resamples=2000)
        expected = reference_qbas(case, bas_states, np.random.default_rng(8), 1024, 11, 15, 2000)
        assert repr(got) == repr(expected)
    assert not qbas_from_probs(probs, bas_states, np.random.default_rng(8)).degenerate_weights


def test_each_metric_draws_its_histograms_in_one_batch(target22, monkeypatch):
    calls = []

    def counting(probs, n_shots, streams):
        calls.append((np.shape(probs), n_shots, len(streams)))
        return sample_counts(probs, n_shots, streams)

    monkeypatch.setattr(metrics, "sample_counts", counting)
    kl_sampling_summary(target22, target22.probs, np.random.default_rng(0), n_shots=100)
    assert calls == [((10, 16), 100, 10)]
    qbas_from_probs(target22.probs, BAS22, np.random.default_rng(0), resamples=100)
    assert calls[1:] == [((11, 16), 1024, 11)]
