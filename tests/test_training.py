import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from bornbench import (
    AdamState,
    NoiseModel,
    TrainingConfig,
    adam_step,
    circuit_probabilities,
    initial_theta,
    mmd_loss_exact,
    shift_probabilities,
    train,
)
from bornbench import metrics, sim, training
from bornbench.runio import config_from_items, read_checkpoint, write_run


def test_adam_first_step_magnitude():
    state = AdamState.zero(3)
    grad = np.array([0.5, -2.0, 10.0])
    theta = np.zeros(3)
    new_state, new_theta = adam_step(state, grad, theta, alpha=0.2)
    # bias correction makes the first step alpha * sign(g) up to epsilon effects
    assert np.allclose(np.abs(new_theta), 0.2, atol=1e-6)
    assert np.allclose(np.sign(-new_theta), np.sign(grad))
    assert new_state.t == 1


def test_adam_zero_gradient():
    state = AdamState.zero(2)
    theta = np.array([1.0, -1.0])
    _, new_theta = adam_step(state, np.zeros(2), theta, alpha=0.2)
    assert np.array_equal(new_theta, theta)


def test_adam_two_step_trace():
    # hand evaluation of the update recurrences for g = (1, -1), alpha = 0.2
    alpha, beta1, beta2, eps = 0.2, 0.9, 0.999, 1e-8
    grad = np.array([1.0, -1.0])
    theta = np.zeros(2)
    m = np.zeros(2)
    v = np.zeros(2)
    expected = theta.copy()
    for t in (1, 2):
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        expected = expected - alpha * m_hat / (np.sqrt(v_hat) + eps)

    state = AdamState.zero(2)
    theta_run = np.zeros(2)
    for _ in range(2):
        state, theta_run = adam_step(state, grad, theta_run, alpha, beta1, beta2, eps)
    assert np.allclose(theta_run, expected, atol=1e-15)
    assert state.t == 2


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(AdamState.zero(2), np.zeros(3), np.zeros(2), alpha=0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(d_c=1, n_layers=1)
    with pytest.raises(ValueError):
        TrainingConfig(d_c=2, n_layers=0)
    with pytest.raises(ValueError):
        TrainingConfig(d_c=2, n_layers=1, n_shots_train=1)
    with pytest.raises(ValueError):
        TrainingConfig(d_c=2, n_layers=1, alpha=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(d_c=2, n_layers=1, beta1=1.0)
    with pytest.raises(ValueError):
        TrainingConfig(d_c=2, n_layers=1, seed=-1)
    with pytest.raises(ValueError):
        TrainingConfig(d_c=2, n_layers=1, gradient_mode="spsa")
    with pytest.raises(ValueError):
        TrainingConfig(d_c=2, n_layers=1, kl_repeats=1)


def test_config_rejects_register_the_circuit_or_kernel_cannot_take():
    """The image is 2x2: any other shape is refused, naming both keys, the
    product circuit (d_c = 0) and 4 pixels in another shape included."""
    for d_c, rows, cols in [(2, 2, 3), (0, 4, 4), (0, 3, 4), (4, 1, 4), (0, 1, 1), (0, 2, 1)]:
        message = f"^n_rows = {rows}, n_cols = {cols}: the image is 2x2, so both must be 2$"
        with pytest.raises(ValueError, match=message):
            TrainingConfig(d_c=d_c, n_layers=1, n_rows=rows, n_cols=cols)
    config = TrainingConfig(d_c=4, n_layers=1, n_rows=2, n_cols=2)
    assert config.circuit().n_qubits == config.kernel().n_bits == config.n_qubits == 4


def test_config_rejects_readout_flip_outside_register():
    with pytest.raises(ValueError, match="no qubit 9 in a 4-qubit register"):
        TrainingConfig(d_c=2, n_layers=1, noise=NoiseModel(readout_flip={9: 0.4}))
    with pytest.raises(ValueError, match="no qubit 4 in a 4-qubit register"):
        TrainingConfig(d_c=2, n_layers=1, noise=NoiseModel(readout_flip={4: 0.0}))
    TrainingConfig(d_c=2, n_layers=1, noise=NoiseModel(readout_flip={3: 0.4}))


def test_config_digest_sensitivity():
    a = TrainingConfig(d_c=2, n_layers=2, seed=7)
    b = TrainingConfig(d_c=2, n_layers=2, seed=7)
    assert a.digest() == b.digest()
    assert a.digest() != TrainingConfig(d_c=2, n_layers=2, seed=8).digest()
    assert a.digest() != TrainingConfig(d_c=4, n_layers=2, seed=7).digest()
    noisy = TrainingConfig(d_c=2, n_layers=2, seed=7, noise=NoiseModel(p2=0.01))
    assert a.digest() != noisy.digest()


def test_config_kv_roundtrip():
    # every field off its default, so none can drop out of the key/value form
    # or come back parsed as the wrong type; n_rows and n_cols take no other
    # value, so they are checked as keys
    config = TrainingConfig(
        d_c=3,
        n_layers=2,
        n_shots_train=512,
        n_steps=7,
        alpha=0.05,
        beta1=0.8,
        beta2=0.99,
        epsilon=1e-7,
        sigma=0.3,
        kernel_distance="hamming-squared",
        sigma_is_variance=False,
        seed=5,
        kl_shots=1000,
        kl_repeats=3,
        metric_every=2,
        checkpoint_every=3,
        qbas_enabled=True,
        qbas_shots=100,
        qbas_repeats=4,
        qbas_sample_size=7,
        qbas_resamples=50,
        gradient_mode="exact",
        dc3_edges=((0, 1), (0, 2), (0, 3)),
        noise=NoiseModel(p1=0.002, p2=0.02, readout_flip_all=0.03, readout_flip={1: 0.05}),
        label="roundtrip",
    )
    defaults = TrainingConfig(d_c=0, n_layers=0)
    for f in fields(TrainingConfig):
        if f.name not in ("n_rows", "n_cols"):
            assert getattr(config, f.name) != getattr(defaults, f.name), f.name
    assert ("n_rows", "2") in config.kv_items() and ("n_cols", "2") in config.kv_items()
    rebuilt = config_from_items(dict(config.kv_items()))
    assert rebuilt == config
    assert rebuilt.digest() == config.digest()


def test_config_values_that_do_not_parse_name_their_key():
    base = {"d_c": "2", "n_layers": "1"}
    for key, text, message in [
        ("n_steps", "1.5", "n_steps: expected int, got '1.5'"),
        ("alpha", "fast", "alpha: expected float, got 'fast'"),
        ("qbas_enabled", "yes", "qbas_enabled: expected true or false, got 'yes'"),
        ("noise_p1", "abc", "p1: expected float, got 'abc'"),
        ("noise_readout_flip_qx", "0.1", "readout_flip_qx: expected int, got 'x'"),
        # noise is set by noise_profile or noise_* keys; the field's name is no key
        ("noise", "moderate.profile", "unknown config key 'noise'"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_items({**base, key: text})


def test_initial_theta_range_and_determinism():
    config = TrainingConfig(d_c=2, n_layers=2, seed=11)
    theta = initial_theta(config, 28)
    assert theta.shape == (28,)
    assert np.all(theta >= 0.0) and np.all(theta < 2 * np.pi)
    assert np.array_equal(theta, initial_theta(config, 28))
    other = initial_theta(TrainingConfig(d_c=2, n_layers=2, seed=12), 28)
    assert not np.array_equal(theta, other)


def test_train_deterministic():
    config = TrainingConfig(d_c=2, n_layers=1, n_steps=5, seed=3)
    a = train(config)
    b = train(config)
    assert np.array_equal(a.theta_trajectory, b.theta_trajectory)
    assert [m.kl_mean for m in a.metrics] == [m.kl_mean for m in b.metrics]
    assert [m.loss for m in a.metrics] == [m.loss for m in b.metrics]


def test_exact_training_monotone_small_alpha():
    # small-step sanity: exact gradients decrease the exact loss for the
    # first 10 steps from at least 8 of 10 random seeds
    monotone = 0
    for seed in range(10):
        config = TrainingConfig(
            d_c=2, n_layers=2, n_steps=10, alpha=0.02, seed=seed, gradient_mode="exact"
        )
        record = train(config)
        circuit, kernel, target = config.circuit(), config.kernel(), config.target()
        losses = [
            mmd_loss_exact(circuit_probabilities(circuit, theta), target, kernel)
            for theta in record.theta_trajectory
        ]
        monotone += all(b < a for a, b in zip(losses, losses[1:]))
    assert monotone >= 8


def test_metric_schedule_and_checkpoints():
    config = TrainingConfig(
        d_c=2, n_layers=1, n_steps=20, seed=1, metric_every=5, checkpoint_every=10
    )
    record = train(config)
    assert [m.step for m in record.metrics] == [0, 5, 10, 15, 20]
    assert sorted(c.step for c in record.checkpoints) == [0, 10, 20]
    assert np.all(np.isfinite([m.loss for m in record.metrics]))  # each evaluated step has a loss
    assert record.theta_trajectory.shape == (21, 16)


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
def test_each_step_simulates_once_and_scores_row_0_of_its_batch(noisy, monkeypatch):
    """A step that takes a gradient simulates its 2P+1 shifted circuits in one
    batch and scores the loss and metrics on row 0, theta itself; only the
    last step, which takes no gradient, simulates theta alone.  The sampled
    gradient draws from the whole batch."""
    noise = NoiseModel(p1=0.002, p2=0.02, readout_flip_all=0.03) if noisy else None
    config = TrainingConfig(d_c=2, n_layers=1, n_steps=5, kl_repeats=2, noise=noise)
    simulator = "evolve_density" if noisy else "run_statevector"
    simulate, summarise = getattr(sim, simulator), training.kl_sampling_summary
    draw = training.sample_counts
    calls, batches, scored, drawn = [], [], [], []

    def counting(*args):
        calls.append(args)
        return simulate(*args)

    def recording(*args):
        batches.append(shift_probabilities(*args))
        return batches[-1]

    def scoring(target, probs, *args, **kwargs):
        scored.append(probs.copy())
        return summarise(target, probs, *args, **kwargs)

    def drawing(probs, *args):
        drawn.append(probs.copy())
        return draw(probs, *args)

    monkeypatch.setattr(sim, simulator, counting)
    monkeypatch.setattr(training, "shift_probabilities", recording)
    monkeypatch.setattr(training, "kl_sampling_summary", scoring)
    monkeypatch.setattr(training, "sample_counts", drawing)
    record = train(config)
    assert len(calls) == 6  # 5 batches and the last step's theta
    assert len(batches) == len(drawn) == 5 and len(scored) == 6
    for probs, rows, batch in zip(scored, drawn, batches):
        assert probs.tobytes() == batch[0].tobytes()
        assert rows.tobytes() == batch.tobytes()
    last = circuit_probabilities(config.circuit(), record.final_theta, noise)
    assert scored[-1].tobytes() == last.tobytes()


def checkpoint_at(record, step):
    (checkpoint,) = [c for c in record.checkpoints if c.step == step]
    return checkpoint


def test_checkpoint_file_roundtrip(tmp_path):
    config = TrainingConfig(d_c=2, n_layers=2, n_steps=10, seed=2)
    record = train(config)
    checkpoint = checkpoint_at(record, 10)
    loaded = read_checkpoint(write_run(tmp_path / "run", record), 10)
    assert loaded.step == checkpoint.step
    assert np.array_equal(loaded.theta, checkpoint.theta)
    assert np.array_equal(loaded.adam.m, checkpoint.adam.m)
    assert np.array_equal(loaded.adam.v, checkpoint.adam.v)
    assert loaded.adam.t == checkpoint.adam.t
    assert loaded.seed == checkpoint.seed
    assert loaded.config_digest == checkpoint.config_digest


def test_resume_reproduces_run_bit_exactly(monkeypatch):
    """A resumed run seeds its streams in blocks from its own start step, so
    from a checkpoint inside one of the full run's blocks its blocks differ
    from the full run's; its bytes do not."""
    config = TrainingConfig(d_c=2, n_layers=2, n_steps=30, seed=4)
    starts = (0, 10, 20)
    for block in (training.STREAM_BLOCK, 8):
        monkeypatch.setattr(training, "STREAM_BLOCK", block)
        assert any(start % block for start in starts)
        full = train(config)
        for start in starts:
            checkpoint = checkpoint_at(full, start)
            continued = train(replace(config, n_steps=30 - start), checkpoint)
            assert np.array_equal(continued.theta_trajectory, full.theta_trajectory[start:])
            full_metrics = [m for m in full.metrics if m.step >= start]
            assert [m.loss for m in continued.metrics] == [m.loss for m in full_metrics]
            assert [m.kl_mean for m in continued.metrics] == [m.kl_mean for m in full_metrics]
            assert [m.f1 for m in continued.metrics] == [m.f1 for m in full_metrics]


def test_a_run_derives_one_stream_alone(monkeypatch):
    """Only the initial angles take a stream of their own; every sampling
    stream of every step comes from ``stream_seeds``, a block of steps per
    call."""
    streams, seeds = [], []
    rng_stream, stream_seeds = training.rng_stream, training.stream_seeds

    def spy_stream(*args):
        streams.append(args)
        return rng_stream(*args)

    def spy_seeds(entropies, counts):
        seeds.append(list(entropies))
        return stream_seeds(entropies, counts)

    monkeypatch.setattr(training, "rng_stream", spy_stream)
    monkeypatch.setattr(training, "stream_seeds", spy_seeds)
    monkeypatch.setattr(training, "STREAM_BLOCK", 4)
    config = TrainingConfig(d_c=2, n_layers=1, n_steps=9, seed=3, qbas_enabled=True, qbas_resamples=50)
    train(config)
    assert streams == [(3, training.TAG_INIT)]
    assert [entropies[0][2] for entropies in seeds] == [0, 4, 8]  # each block's first step
    tags = (training.TAG_LOSS, training.TAG_KL, training.TAG_F1, training.TAG_QBAS, training.TAG_GRAD)
    expected = [(3, tag, step) for step in range(10) for tag in tags if tag != training.TAG_GRAD or step < 9]
    assert sorted(e for entropies in seeds for e in entropies) == sorted(expected)


def test_resume_under_noise_warm_start(trained_dc2_L2):
    config, record = trained_dc2_L2
    noise = NoiseModel(p1=0.002, p2=0.02, readout_flip_all=0.03)
    warm = train(replace(config, noise=noise, n_steps=10), checkpoint_at(record, 50))
    assert warm.start_step == 50
    assert warm.final_step == 60
    assert [m.step for m in warm.metrics] == list(range(50, 61))
    other = TrainingConfig(d_c=2, n_layers=1, n_steps=5)
    with pytest.raises(ValueError, match="checkpoint has 28 parameters, circuit needs 16"):
        train(other, checkpoint_at(record, 50))  # parameter count mismatch


def test_run_record_accessors():
    config = TrainingConfig(d_c=0, n_layers=0, n_steps=4, seed=0)
    record = train(config)
    assert record.steps == [0, 1, 2, 3, 4]
    assert record.final_step == 4
    assert np.array_equal(record.final_theta, record.theta_trajectory[-1])
    assert [c.step for c in record.checkpoints] == [0, 4]  # none at step 3


def test_qbas_metrics_recorded_when_enabled():
    config = TrainingConfig(
        d_c=2, n_layers=1, n_steps=2, seed=6, qbas_enabled=True, qbas_resamples=500
    )
    record = train(config)
    for metric in record.metrics:
        assert metric.qbas_mean is not None
        assert 0.0 <= metric.qbas_mean <= 1.0
        assert metric.qbas_var is not None


def test_failing_qbas_run_cancels_its_scoring_and_stops_its_threads(monkeypatch):
    # the first Adam step overflows while step 0's histograms are queued; a
    # slow scorer shows that the queued ones are dropped, not waited for
    started = []

    def slow_score(*args):
        started.append(args)
        time.sleep(0.5)
        return 0.5, 0.01

    monkeypatch.setattr(metrics, "qbas_score", slow_score)
    monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: {0, 1})
    config = TrainingConfig(d_c=2, n_layers=1, n_steps=3, alpha=1e308, qbas_enabled=True)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="alpha = 1e\\+308 is too large"):
        train(config)
    assert len(started) <= 2  # the two workers' first histograms, of 11
    assert threading.active_count() == threads


def test_qbas_scoring_error_surfaces_from_train(monkeypatch):
    boom = RuntimeError("scoring failed")

    def failing(*args):
        raise boom

    monkeypatch.setattr(metrics, "qbas_score", failing)
    threads = threading.active_count()
    config = TrainingConfig(d_c=2, n_layers=1, n_steps=4, qbas_enabled=True)
    with pytest.raises(RuntimeError) as caught:
        train(config)
    assert caught.value is boom
    assert threading.active_count() == threads


def test_run_without_qbas_opens_no_pool():
    # the pool's module is loaded only when a pool is made
    code = (
        "import sys\n"
        "from bornbench import TrainingConfig, train\n"
        "record = train(TrainingConfig(d_c=2, n_layers=1, n_steps=2))\n"
        "assert record.metrics[-1].qbas_mean is None\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.stdout.strip() == "False"
