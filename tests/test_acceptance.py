"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Seeds are fixed at 0..4 throughout; no seed is chosen by outcome.
"""

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from bornbench import (
    CouplingGraph,
    ImageShape,
    NoiseModel,
    TrainingConfig,
    bas_target_distribution,
    build_circuit,
    chow_liu_layer,
    circuit_probabilities,
    depolarizing_kraus,
    embed_layer,
    entangler_layer,
    enumerate_bas,
    evolve_density,
    f1_per_state,
    kl_divergence,
    kl_sampling_summary,
    load_noise,
    mmd_gradient,
    mmd_loss_exact,
    preset_graph,
    qbas_aggregate,
    qbas_from_probs,
    qbas_score,
    rng_stream,
    shift_probabilities,
    train,
)
from bornbench.cli import main

SEEDS = (0, 1, 2, 3, 4)
BAS22 = [0, 3, 5, 10, 12, 15]
NOISE_PROFILE = NoiseModel(p1=0.002, p2=0.02, readout_flip_all=0.03, t_damp=0.01)
MODERATE = load_noise(Path(__file__).resolve().parent.parent / "configs/noise/moderate.profile")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def train_seeds(d_c, layers, shots, seeds=SEEDS, **kwargs):
    records = {}
    for seed in seeds:
        config = TrainingConfig(
            d_c=d_c,
            n_layers=layers,
            n_shots_train=shots,
            n_steps=100,
            alpha=0.2,
            seed=seed,
            **kwargs,
        )
        records[seed] = (config, train(config))
    return records


def min_mean_kl(record):
    return min(m.kl_mean for m in record.metrics)


@pytest.fixture(scope="module")
def runs_dc2_L2_2048():
    return train_seeds(2, 2, 2048)


def test_a1_dc2_l2_convergence(runs_dc2_L2_2048):
    started = time.monotonic()
    minima = [min_mean_kl(record) for _, record in runs_dc2_L2_2048.values()]
    elapsed = time.monotonic() - started  # training already done in the fixture
    passing = sum(value <= 0.10 for value in minima)
    detail = (
        f"min mean KL per seed {[round(v, 4) for v in minima]}, "
        f"{passing}/5 seeds <= 0.10"
    )
    report("A1", passing >= 3, detail)
    assert elapsed < 300 * len(SEEDS)


def test_a1_runtime_budget():
    started = time.monotonic()
    config = TrainingConfig(
        d_c=2, n_layers=2, n_shots_train=2048, n_steps=100, alpha=0.2, seed=0
    )
    train(config)
    elapsed = time.monotonic() - started
    report("A1-runtime", elapsed <= 300.0, f"one seed trains in {elapsed:.1f}s (limit 300s)")


def test_a2_single_layer_convergence():
    results = {}
    for d_c, threshold in ((4, 0.35), (3, 0.45)):
        minima = [
            min_mean_kl(record) for _, record in train_seeds(d_c, 1, 2048).values()
        ]
        results[d_c] = (minima, sum(v <= threshold for v in minima))
    ok = results[4][1] >= 3 and results[3][1] >= 3
    detail = (
        f"d_c=4: {[round(v, 3) for v in results[4][0]]} ({results[4][1]}/5 <= 0.35); "
        f"d_c=3: {[round(v, 3) for v in results[3][0]]} ({results[3][1]}/5 <= 0.45)"
    )
    report("A2", ok, detail)


def test_a3_expressivity_failure():
    outcomes = []
    for seed in SEEDS:
        config = TrainingConfig(
            d_c=2, n_layers=1, n_shots_train=1024, n_steps=100, alpha=0.2, seed=seed
        )
        record = train(config)
        late = float(
            np.mean([m.kl_mean for m in record.metrics if 50 <= m.step <= 100])
        )
        final_f1 = record.metrics[-1].f1
        f1_sum = final_f1[0b0101] + final_f1[0b1010]
        outcomes.append((late, f1_sum, late >= 0.8 and f1_sum < 0.1))
    passing = sum(ok for _, _, ok in outcomes)
    detail = "; ".join(
        f"seed {s}: KL[50..100]={late:.2f}, F1-sum={f1:.3f}"
        for s, (late, f1, _) in zip(SEEDS, outcomes)
    ) + f"; {passing}/5 pass (need 4)"
    report("A3", passing >= 4, detail)


def test_a3_cause_is_the_loss_optimum():
    """A3 fails at the optimum of the loss, not in the optimizer.  d_c=2, L=1
    factorises over qubits (0, 1) (the high bits) and (2, 3), so its best
    distribution is the best product of two 2-qubit distributions.  That
    optimum keeps an F1 sum above A3's 0.1, and exact-mode training of the
    circuit reaches its loss."""
    config = TrainingConfig(d_c=2, n_layers=1)
    target, kernel = config.target(), config.kernel()

    def product(z):  # two softmax-parameterised 2-qubit distributions
        a, b = np.exp(z[:4] - z[:4].max()), np.exp(z[4:] - z[4:].max())
        return np.outer(a / a.sum(), b / b.sum()).ravel()

    def loss(z):
        return mmd_loss_exact(product(z), target, kernel)

    rng = np.random.default_rng(0)
    fits = [
        minimize(loss, rng.normal(size=8), method="BFGS", options={"gtol": 1e-10})
        for _ in range(8)
    ]
    best = min(fits, key=lambda fit: fit.fun)
    probs = product(best.x)
    f1 = f1_per_state(target, probs)
    f1_sum = f1[0b0101] + f1[0b1010]

    gaps = []
    for seed in (0, 1, 2):
        trained = train(
            TrainingConfig(
                d_c=2,
                n_layers=1,
                n_steps=400,
                alpha=0.05,
                gradient_mode="exact",
                metric_every=400,
                checkpoint_every=400,
                seed=seed,
            )
        )
        gaps.append(trained.metrics[-1].loss - best.fun)
    ok = f1_sum > 0.1 and all(abs(gap) < 2e-8 for gap in gaps)
    detail = (
        f"product optimum MMD {best.fun:.7f}, mass {probs[0b0101] + probs[0b1010]:.5f} on "
        f"0101+1010, F1 sum {f1_sum:.4f} (need > 0.1); trained loss minus optimum, "
        f"seeds 0-2: {', '.join(f'{gap:+.2e}' for gap in gaps)} (need within 2e-8)"
    )
    report("A3-cause", ok, detail)


def test_a4_nonentangling_baseline():
    minima = [
        min_mean_kl(record) for _, record in train_seeds(0, 0, 1024).values()
    ]
    ok = all(0.7 <= value <= 1.3 for value in minima)
    report("A4", ok, f"L=0 min mean KL per seed {[round(v, 3) for v in minima]} in [0.7, 1.3]")


def test_a5_qbas_scores():
    scores = {}
    for d_c in (3, 4):
        config = TrainingConfig(
            d_c=d_c, n_layers=2, n_shots_train=1024, n_steps=100, alpha=0.2, seed=0
        )
        record = train(config)
        with ThreadPoolExecutor(2) as pool:
            result = qbas_aggregate(
                qbas_from_probs(
                    circuit_probabilities(config.circuit(), record.final_theta),
                    BAS22,
                    rng_stream(0, 50, d_c).spawn(11),
                    pool,
                )
            )
        scores[d_c] = result.mean

    # Monte-Carlo oracle on the exact uniform target with >= 1e6 resamples
    target = bas_target_distribution(ImageShape(2, 2))
    counts = np.zeros(16, dtype=np.int64)
    counts[BAS22] = 1  # exact uniform empirical distribution
    oracle_rng = np.random.default_rng(2718)
    chunk_means = [
        qbas_score(counts, BAS22, 15, 200_000, oracle_rng)[0] for _ in range(6)
    ]
    oracle = float(np.mean(chunk_means))

    ok = scores[3] >= 0.85 and scores[4] >= 0.85 and 0.95 <= oracle <= 0.98
    detail = (
        f"trained qBAS d_c=3: {scores[3]:.3f}, d_c=4: {scores[4]:.3f} (need >= 0.85); "
        f"exact-uniform oracle over 1.2e6 resamples: {oracle:.4f} in [0.95, 0.98]"
    )
    report("A5", ok, detail)


def test_a6_gradient_correctness():
    started = time.monotonic()
    worst = 0.0
    h = 1e-5
    for d_c, layers in itertools.product((2, 3, 4), (1, 2)):
        config = TrainingConfig(d_c=d_c, n_layers=layers)
        circuit, kernel, target = config.circuit(), config.kernel(), config.target()
        rng = np.random.default_rng(1000 * d_c + layers)
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi, circuit.parameter_count)
            grad = mmd_gradient(shift_probabilities(circuit, theta), target, kernel)
            for i in range(len(theta)):
                plus = theta.copy()
                plus[i] += h
                minus = theta.copy()
                minus[i] -= h
                fd = (
                    mmd_loss_exact(circuit_probabilities(circuit, plus), target, kernel)
                    - mmd_loss_exact(circuit_probabilities(circuit, minus), target, kernel)
                ) / (2 * h)
                worst = max(worst, abs(grad[i] - fd))
    elapsed = time.monotonic() - started
    report(
        "A6",
        worst < 1e-6,
        f"max |shift - finite difference| = {worst:.2e} over 6 circuits x 20 thetas "
        f"in {elapsed:.1f}s",
    )


def test_a7_metric_unit_values():
    target = bas_target_distribution(ImageShape(2, 2))
    checks = []

    counts = np.zeros(16, dtype=np.int64)
    counts[BAS22] = 341
    [kl] = kl_divergence(target, counts[None])
    checks.append(("KL(p, q~p) = 0", abs(kl) < 1e-12))

    uniform16 = np.full(16, 128, dtype=np.int64)
    [kl] = kl_divergence(target, uniform16[None])
    checks.append(("KL(uniform-6, uniform-16) = ln(16/6)", abs(kl - math.log(16 / 6)) < 1e-12))

    half = np.zeros(16, dtype=np.int64)
    half[BAS22] = 200
    half[0] = 100
    half[1] = 100
    f1 = f1_per_state(target, half)
    checks.append(("F1 at q=p/2 is 2/3", abs(f1[0] - 2 / 3) < 1e-12))
    exact = np.zeros(16, dtype=np.int64)
    exact[BAS22] = 200
    f1 = f1_per_state(target, exact)
    checks.append(("F1 at q=p is 1", all(abs(f1[s] - 1.0) < 1e-12 for s in BAS22)))

    point = np.zeros(16, dtype=np.int64)
    point[3] = 64
    mean, variance = qbas_score(point, BAS22, 15, 4000, np.random.default_rng(0))
    checks.append(("qBAS single state = 2/7 (analytic)", abs(mean - 2 / 7) < 1e-12))

    # resampled agreement within 3 sigma against a binomial oracle
    mixed = np.zeros(16, dtype=np.int64)
    mixed[3] = 500
    mixed[1] = 500
    pmf = [math.comb(15, k) * 0.5**15 for k in range(16)]

    def score(k):
        if k == 0:
            return 0.0
        precision, recall = k / 15.0, 1.0 / 6.0
        return 2 * precision * recall / (precision + recall)

    oracle_mean = sum(p * score(k) for k, p in enumerate(pmf))
    oracle_var = sum(p * score(k) ** 2 for k, p in enumerate(pmf)) - oracle_mean**2
    n_resamples = 20000
    mean, _ = qbas_score(mixed, BAS22, 15, n_resamples, np.random.default_rng(1))
    checks.append(
        (
            "qBAS resampled within 3 sigma of binomial oracle",
            abs(mean - oracle_mean) < 3 * math.sqrt(oracle_var / n_resamples),
        )
    )

    failing = [name for name, ok in checks if not ok]
    report("A7", not failing, f"{len(checks)} metric identities checked; failing: {failing or 'none'}")


def test_a8_noise_model_properties(runs_dc2_L2_2048):
    target = bas_target_distribution(ImageShape(2, 2))

    # statevector vs zero-noise density matrix on 50 random circuits
    rng = np.random.default_rng(99)
    agreement = 0.0
    shapes = [(0, 0), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    for k in range(50):
        d_c, layers = shapes[k % len(shapes)]
        circuit = TrainingConfig(d_c=d_c, n_layers=layers).circuit()
        theta = rng.uniform(0, 2 * np.pi, circuit.parameter_count)
        sv = circuit_probabilities(circuit, theta)
        dm = np.diagonal(evolve_density(circuit, theta, NoiseModel())).real
        agreement = max(agreement, float(np.abs(sv - dm).max()))

    completeness = 0.0
    for p, targets in itertools.product((0.0, 0.37, 1.0), (1, 2)):
        ops = depolarizing_kraus(p, targets)
        dim = ops[0].shape[0]
        defect = np.abs(sum(k.conj().T @ k for k in ops) - np.eye(dim)).max()
        completeness = max(completeness, float(defect))

    # KL monotone in p2 for the trained circuit, 3-sigma allowance
    config, record = runs_dc2_L2_2048[0]
    circuit = config.circuit()
    theta = record.final_theta
    estimates = []
    for k, p2 in enumerate((0.0, 0.01, 0.02, 0.04)):
        noise = NoiseModel(p2=p2)
        probs = circuit_probabilities(circuit, theta, noise)
        estimates.append(kl_sampling_summary(target, probs, rng_stream(77, k).spawn(10)))
    monotone = all(
        b.mean >= a.mean - 3 * math.hypot(a.std, b.std) / math.sqrt(10)
        for a, b in zip(estimates, estimates[1:])
    )

    # converged noisy KL ordering: d_c=4, L=2 above d_c=2, L=2 (duration damping on)
    config4 = TrainingConfig(
        d_c=4, n_layers=2, n_shots_train=2048, n_steps=100, alpha=0.2, seed=0
    )
    record4 = train(config4)
    noisy2 = kl_sampling_summary(
        target, circuit_probabilities(circuit, theta, NOISE_PROFILE), rng_stream(78, 2).spawn(10)
    )
    noisy4 = kl_sampling_summary(
        target,
        circuit_probabilities(config4.circuit(), record4.final_theta, NOISE_PROFILE),
        rng_stream(78, 4).spawn(10),
    )

    ok = (
        agreement < 1e-12
        and completeness < 1e-12
        and monotone
        and noisy4.mean > noisy2.mean
    )
    detail = (
        f"SV/DM max dev {agreement:.1e}; Kraus completeness defect {completeness:.1e}; "
        f"KL vs p2 {[round(e.mean, 3) for e in estimates]} monotone={monotone}; "
        f"noisy KL d_c=4 {noisy4.mean:.3f} > d_c=2 {noisy2.mean:.3f}"
    )
    report("A8", ok, detail)


def test_a9_embedding():
    target = bas_target_distribution(ImageShape(2, 2))
    plaquette = preset_graph("plaquette4")
    ladder = preset_graph("ladder2x3")
    star = chow_liu_layer(target)

    ok_dc2 = embed_layer(entangler_layer(2, 0), plaquette) is not None
    ok_dc2b = embed_layer(entangler_layer(2, 1), plaquette) is not None
    ok_dc4 = embed_layer(entangler_layer(4), plaquette) is not None
    star_plaquette = embed_layer(star, plaquette)
    star_ladder = embed_layer(star, ladder)

    # brute-force oracle agreement on graphs with up to 8 vertices
    def brute_force(layer, graph):
        edges = {tuple(sorted(e)) for e in layer.edges}
        n_logical = layer.max_qubit() + 1
        for mapping in itertools.permutations(range(graph.n_physical), n_logical):
            if all(
                (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) in graph.edges
                for u, v in edges
            ):
                return True
        return False

    graphs = [plaquette, ladder, preset_graph("ladder2x4")]
    rng = np.random.default_rng(31)
    for n in range(4, 9):
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < 0.35
        graphs.append(
            CouplingGraph(n, frozenset(e for e, k in zip(pairs, keep) if k), f"rand{n}")
        )
    layers = [entangler_layer(2, 0), entangler_layer(2, 1), entangler_layer(4), star]
    oracle_agrees = all(
        (embed_layer(layer, graph) is not None) == brute_force(layer, graph)
        for layer in layers
        for graph in graphs
    )

    ok = (
        ok_dc2
        and ok_dc2b
        and ok_dc4
        and star_plaquette is None
        and star_ladder is not None
        and oracle_agrees
    )
    detail = (
        f"d_c=2/4 embed in plaquette: {ok_dc2 and ok_dc2b and ok_dc4}; "
        f"star in plaquette: {star_plaquette}; star in ladder: {star_ladder is not None}; "
        f"oracle agreement over {len(layers) * len(graphs)} cases: {oracle_agrees}"
    )
    report("A9", ok, detail)


def test_a10_byte_identical_reruns(tmp_path):
    config_text = (
        "label = determinism\n"
        "d_c = 2\nn_layers = 2\nn_shots_train = 512\nn_steps = 12\n"
        "alpha = 0.2\nseed = 17\nkl_shots = 512\nkl_repeats = 5\nqbas_enabled = true\n"
        "qbas_resamples = 1000\n"
    )
    config_file = tmp_path / "run.cfg"
    config_file.write_text(config_text)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["train", "-c", str(config_file), "-o", str(first)]) == 0
    assert main(["train", "-c", str(config_file), "-o", str(second)]) == 0
    names = [
        "config.txt",
        "metrics.csv",
        "theta_trajectory.csv",
        "final_theta.json",
        "checkpoints/step_000000.json",
        "checkpoints/step_000010.json",
        "checkpoints/step_000012.json",
    ]
    identical = [n for n in names if (first / n).read_bytes() == (second / n).read_bytes()]
    ok = identical == names
    report("A10", ok, f"{len(identical)}/{len(names)} output files byte-identical across reruns")


def scaled_moderate(scale):
    """The moderate profile with every strength scaled by ``scale``."""
    return NoiseModel(
        p1=scale * MODERATE.p1,
        p2=scale * MODERATE.p2,
        readout_flip_all=scale * MODERATE.readout_flip_all,
        readout_flip={q: scale * p for q, p in MODERATE.readout_flip.items()},
        t_damp=scale * MODERATE.t_damp,
    )


def final_kls_under_noise(scale):
    """A11's setup (seeds 0..4, d_c in {2, 4}, L=2, 1,024 shots, 100 steps,
    metrics at the start and the end) with every strength of the moderate
    profile scaled by ``scale``: each d_c's final mean KL per seed."""
    finals = {}
    for d_c in (2, 4):
        runs = train_seeds(d_c, 2, 1024, noise=scaled_moderate(scale), metric_every=100)
        finals[d_c] = np.array([record.metrics[-1].kl_mean for _, record in runs.values()])
    return finals


def gaps(finals_by_scale):
    """Per scale, d_c=4's mean final KL minus d_c=2's, with the SE of the
    gap paired by seed."""
    out = {}
    for scale, finals in finals_by_scale.items():
        per_seed = finals[4] - finals[2]
        out[scale] = (float(np.mean(per_seed)), float(np.std(per_seed, ddof=1)) / math.sqrt(len(per_seed)))
    return out


def format_gaps(name, by_scale):
    return "; ".join(f"{name}({s}) = {g:+.4f} +- {se:.4f}" for s, (g, se) in by_scale.items())


@pytest.fixture(scope="module")
def finals_moderate():
    return final_kls_under_noise(1)


@pytest.fixture(scope="module")
def sampled_gaps(finals_moderate):
    return gaps({s: finals_moderate if s == 1 else final_kls_under_noise(s) for s in (0, 1, 2)})


def test_a11_sparse_beats_dense_under_noise(finals_moderate):
    """Stated in advance (ROADMAP item 2(a)): trained under the moderate
    noise profile at 1,024 shots for 100 steps, d_c=2, L=2 ends with a lower
    mean final KL over seeds 0..4 than d_c=4, L=2."""
    finals = finals_moderate
    mean = {d_c: float(np.mean(v)) for d_c, v in finals.items()}
    se = {d_c: float(np.std(v, ddof=1)) / math.sqrt(len(v)) for d_c, v in finals.items()}
    difference, difference_se = mean[2] - mean[4], math.hypot(se[2], se[4])
    detail = (
        f"final KL d_c=2, L=2: {mean[2]:.4f} +- {se[2]:.4f}; "
        f"d_c=4, L=2: {mean[4]:.4f} +- {se[4]:.4f}; "
        f"difference {difference:+.4f} +- {difference_se:.4f}"
    )
    report("A11", difference < 0.0, detail)


def test_a13_the_sparse_advantage_grows_with_noise(sampled_gaps):
    """Stated in advance (ROADMAP item 8(a)): with A11's setup and every
    strength of the moderate profile scaled by s in {0, 1, 2} (s = 0 is
    noiseless), the gap g(s), d_c=4's mean final KL minus d_c=2's, grows:
    g(0) < g(1) < g(2)."""
    ok = sampled_gaps[0][0] < sampled_gaps[1][0] < sampled_gaps[2][0]
    report("A13", ok, format_gaps("g", sampled_gaps))


def exact_final_kls(scale):
    """A13's runs at noise scale ``scale`` with ``gradient_mode = exact``:
    each d_c's exact KL of its final distribution per seed, over the target
    support, with nothing sampled."""
    target = bas_target_distribution(ImageShape(2, 2))
    p = target.probs[target.support]
    finals = {}
    for d_c in (2, 4):
        runs = train_seeds(
            d_c, 2, 1024, noise=scaled_moderate(scale), metric_every=100, gradient_mode="exact"
        )
        kls = []
        for config, record in runs.values():
            q = circuit_probabilities(config.circuit(), record.final_theta, config.noise)
            kls.append(float(np.sum(p * np.log(p / q[target.support]))))
        finals[d_c] = np.array(kls)
    return finals


def test_a14_the_sparse_advantage_without_shot_noise(sampled_gaps):
    """Stated in advance (ROADMAP item 12): with A13's setup in exact mode,
    scored by the exact KL of the final distribution under the run's noise,
    the gap g_x(s), d_c=4's mean minus d_c=2's, grows: g_x(0) < g_x(1) <
    g_x(2)."""
    exact = gaps({s: exact_final_kls(s) for s in (0, 1, 2)})
    ok = exact[0][0] < exact[1][0] < exact[2][0]
    detail = f"{format_gaps('g_x', exact)}; sampled (A13): {format_gaps('g', sampled_gaps)}"
    report("A14", ok, detail)
