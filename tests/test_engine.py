"""Guards on the batched simulation engine.

The noiseless digests were recorded with the per-circuit, per-gate simulator
that preceded batching; every batched path must reproduce its bytes exactly.
The noisy digests were recorded with the fused-superoperator density path
(``density_path_version = 2``), which stays within 1e-12 of the per-gate
reference walk below.
"""

import hashlib
from dataclasses import replace
from itertools import product
from pathlib import Path

import math

import numpy as np
import pytest

from bornbench import (
    NoiseModel,
    TrainingConfig,
    amplitude_damping_kraus,
    apply_readout,
    circuit_probabilities,
    depolarizing_kraus,
    evolve_density,
    load_noise,
    mmd_gradient,
    rng_stream,
    run_statevector,
    sample_histogram,
    train,
)
from bornbench import sim, training
from bornbench.kv import parse_kv_file
from bornbench.noise import contract_axes
from bornbench.runio import config_from_items, is_sweep_axis, load_config_file, write_run
from bornbench.training import TAG_GRAD, RunConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MODERATE = CONFIGS / "noise" / "moderate.profile"
ZERO = CONFIGS / "noise" / "zero.profile"

# SHA-256 of every byte-identical run file after a 5-step train at seed 0 of
# a shipped config, or of one in EXTRA_CONFIGS.
GOLDEN_RUNS = {
    "dc2_L2_2048": {
        "checkpoints/step_000000.json": "c9b70b33938347a65a599165f6273d224c8c020aed2bf3f1fb2178cf3a5c7e18",
        "checkpoints/step_000005.json": "5ef3f29a2f7ec196de32901b243f7f486668593e2c48e23dab72a176c90e52cc",
        "final_theta.json": "b64056c9f0dfd99e77619d8ba52659856a61775bbfbd1eaa00ea30eda1774df9",
        "metrics.csv": "19a7a5dc3e3eeec6594fbfad17502b2427f0fe51f33840ed37e7c6394652baff",
        "theta_trajectory.csv": "315457074f60292b5f1add428a6b322beeb60be8f754e91c88e82b14980f71a5",
    },
    "qbas_dc4_L2": {
        "checkpoints/step_000000.json": "a2ff31443f9b39a9315b94cc4c2d73978b2a05bc6ec5ac778d941d05ab260341",
        "checkpoints/step_000005.json": "c640584b2f504f15931ad7b85e2b98772b0f651a1e99bfcf896ecbcd17169dae",
        "final_theta.json": "1ac7463cf06af6ab535a568e341b66215b8c05d2d1dd693fa178643fd1da28e5",
        "metrics.csv": "0a9fa6d3301c641c6646731b823f9fb8a08d6e5215295f20898f36ee09087226",
        "theta_trajectory.csv": "6c9372eb895b87032365765f541171ef8b3e338f2baa8e19a8df8fd926db836c",
    },
    "dc2_L1_1024": {
        "checkpoints/step_000000.json": "322170a6c8149881ddcb1a27aa2834bf6772c30995b1455deb4474f49993dc83",
        "checkpoints/step_000005.json": "14d622e3af7c5954453a13105172edf66addb2ae91a0e5eaba12ed7e9be5884a",
        "final_theta.json": "4ca13750df2d4c907cb332bfd74318e6b479da22b7616f9fb03308576c37a1c7",
        "metrics.csv": "30ea9f35d7bb91ba581b64fc5cdb5c0bd5cf79d8f741b7f347a2392de24c62ce",
        "theta_trajectory.csv": "e848dafe6d1aa4b4fc4c9e964e7a9ae98548fb1c25f2590d9f1025b4a519a188",
    },
    "dc2_L1_lowrate": {
        "checkpoints/step_000000.json": "257f937d3cb85a2c50d456cf9ed585841fd05b2ea3e083ae74b1ad8bdb0982fb",
        "checkpoints/step_000005.json": "7fb3b6ce4c4aa4482a78c7c31847ba96663d6b68a3474f5f51d7a954ffc45348",
        "final_theta.json": "2e52411e374870c0c437d5a98e70b3c9981ffe9a21872e1ef637c6075a74128d",
        "metrics.csv": "573b38fcfb6bd85da3b9fcc87bbeaefc5ee547bf710273650e96ab3fd61257e4",
        "theta_trajectory.csv": "306adc63e3665812d9afd8e62b23b632286df4a927d2a33ede7c24bfe577a60b",
    },
    "dc3_L1_2048": {
        "checkpoints/step_000000.json": "f4008c997878cabd21f3149e6b2214b1b4f1a1b316b047dee804f68e7726cf28",
        "checkpoints/step_000005.json": "c5e737bb566f1c39daa177036bcb35701d58e6e6f95f39a50216a9a4b27fc847",
        "final_theta.json": "af13c5ce6c0bc57718c67d9ad14aef8bb3b46c8454b7f788c81f892648d9ad74",
        "metrics.csv": "571554f5465298a4ee8a3d0c2b861d0415f08185e5de911ce498dfcead0bc4e7",
        "theta_trajectory.csv": "c7192edc4be488a8fe7d9768072c8f71bc4a7ecad565a176e505b83f1dcc3fcc",
    },
    "dc4_L1_2048": {
        "checkpoints/step_000000.json": "2e2d4e6eb6a99c45a405c452561f66f501abaa6017088559847416c232aa2fd6",
        "checkpoints/step_000005.json": "0c52a622705e093b5e66ba1b1b6a4edb9d97e74a6a4438de8f00f830aa2586bc",
        "final_theta.json": "618ba7861d3c2b3708b08059d779f2a9d16e91d71959e04f48c5934d77595410",
        "metrics.csv": "798c848786afc7000ab8afd33a5faf6ca2bf2d869e34d13c19522ad330a0af84",
        "theta_trajectory.csv": "f8997f88f3c2b9bc8091c058a3f28f6a8be4c67eff42318733a9c13855f6f2ba",
    },
    "product_baseline_1024": {
        "checkpoints/step_000000.json": "c76818ff51b4a71da7513541861d0bed842ae5172297d0c596ca745f8d52b0a5",
        "checkpoints/step_000005.json": "2cf42a2097ade8d9755054f7df75baa66f2c311566b121665c754326761999df",
        "final_theta.json": "57777f69b0d87b4f7cd0f483267f16ad77790cc291173b9188daf60a4bdb808f",
        "metrics.csv": "8189e9795bbf78b99536d9c61acaabcdf2d7c9ba20fa9178e09fcf125869d6be",
        "theta_trajectory.csv": "91e962e7ed9405eb2ded93383aeb3c7fc68921ff5b860a5409093a303731cedd",
    },
    "qbas_dc3_L2": {
        "checkpoints/step_000000.json": "736b227021523e313d1a55e40e53e7f93664f8a8653954b70841327cbd0e187b",
        "checkpoints/step_000005.json": "471f856e4a82c20a745a9f880e0dc0be07d877d2f77909915217d1143ffe7062",
        "final_theta.json": "300ea4a1295b7f3638abccbdb14d78b13d182749b2e3d249404d5b74d5211e3f",
        "metrics.csv": "93d31c942afbc1db9b27b384f58adb3886bcdc08aa335134ef09c2adc8b7d004",
        "theta_trajectory.csv": "68256e0523096cb38c736df73172a5c47d5429ea7aa876a96bba78f2a91ecaaa",
    },
    "bas23_dc0_L0_qbas": {
        "checkpoints/step_000000.json": "e925b9f4469aec780969d303a919ca34c87d83fac32dc8387cdfcf46e73b4273",
        "checkpoints/step_000005.json": "e5314fd669487060af2db876aee724b22e820819852db8d2c32cf1761c6deac6",
        "final_theta.json": "aa3c453308b159f89969d055d2192e818179799d9380919bb9e4f3505f6a7797",
        "metrics.csv": "7b382c896613996cb0a87005b84d3f83a6c3b5f817e38e60205fcb9ffee11cab",
        "theta_trajectory.csv": "722df7b770b5c0a3759394ab67f4d7c49b95de5cde88332be234f3608421c0b7",
    },
}

# SHA-256 of the float64 bytes of a noisy d_c=4, L=2 gradient (moderate
# profile) at the angles of ``noisy_gradient``, drawn from
# rng_stream(0, TAG_GRAD, 0).  The sampled gradient kept its bytes through the
# fused density path: its histograms come out the same.
GOLDEN_GRADIENTS = {
    "exact": "3b1e901386bac03e331bbed4bbd381e0fbcbc435f5928eda802d16527eacdda8",
    "sampled": "2becfeb50b43c308b6a35e89cf39a06e77b899a2d42c8d4d88c7d7f907c67b3c",
}


# SHA-256 of every byte-identical run file after a 3-step train at seed 0
# under the moderate noise profile, keyed by (d_c, n_layers, gradient_mode).
# The sampled runs' metrics.csv, trajectory and final_theta.json bytes date
# from the per-gate density path; only their checkpoints moved, through the
# config digest they embed.
GOLDEN_NOISY_RUNS = {
    (2, 1, "exact"): {
        "checkpoints/step_000000.json": "e4910a59d308350706d42df004e95a341af18246e8de40fc5ff2f40c279d2f70",
        "checkpoints/step_000003.json": "faff19b8949d9396cb40ede0ac01a7bd86955f3bed6681eba184d385aa0735b4",
        "final_theta.json": "6f67000f2706c4bd2d37f2f0be0040614434fbd4f55fc2027a4b7cfb6f119a15",
        "metrics.csv": "7f07b80f141cf5b126bf13d87d69c084591ccc5bfc280d3c5601e0ad0af89261",
        "theta_trajectory.csv": "22b80beca5355cdf44b839cb98375c3f7863cf6e936223f47b5683a4196b0fd0",
    },
    (2, 1, "sampled"): {
        "checkpoints/step_000000.json": "3f809b0c3c93573abfaea57ba199d7a388d7533e7ec77db52411f450e396dea2",
        "checkpoints/step_000003.json": "3fa06c2c65f25b6e6695333738ebd8fccc6ce9c49199fd6199c249df830df326",
        "final_theta.json": "fb55740fea6f21daecc4097f6f913665b504f78db61e5b92b2855ae159ed7188",
        "metrics.csv": "194dc3bb2d9f93fcb0e30d75552049d396531ae83922e04fb829d80237886bc9",
        "theta_trajectory.csv": "b9e3d9381263dc1d0ba2c186694f4cee67c7965587090e3d485e1917d2a3d8fb",
    },
    (4, 2, "exact"): {
        "checkpoints/step_000000.json": "0baff023cccc5ea73aa716cee744d04dd8361f1988678625f09b0dbafdeda8c3",
        "checkpoints/step_000003.json": "1743f01740fddbaf612acf7148cd46505afdf5a8a93a7e05d5ff1096b80534d8",
        "final_theta.json": "a81becae344281ff7ea1628acd6d6c0423a60ac7bf6c795fe76acb7bdb449ce1",
        "metrics.csv": "0e8a808acdb72f5ba52fbddb11426d31933b6decffd7fca69041a1fb7ca046b3",
        "theta_trajectory.csv": "0716518388123cd78061a881a237230fe010cfdb5e88ce9b2469f8224ef4263a",
    },
    (4, 2, "sampled"): {
        "checkpoints/step_000000.json": "7e42134f8bd62d6ae0ee25b4a870223e83ddcbf5a971130af0a24219f33f95dd",
        "checkpoints/step_000003.json": "635432b530444fda249a13847082acfc6d1ef82b1fb29a7ad27d3c1ff0cefa23",
        "final_theta.json": "2522ea5f87c57dd15b5c4214b6aa4d3c58d631be6d6078e7ce59a4d3b0db1ae0",
        "metrics.csv": "a9951f48bb1ab61bbea2c41eb37ee2bf6185785620b655256593f46863bea4b2",
        "theta_trajectory.csv": "28cac7b3dec1241c1752acff93488abd3842e9a6f5687a693465124aed34ed25",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(config: RunConfig, out_dir: Path) -> dict[str, str]:
    run_dir = write_run(out_dir, config, train(config))
    return {
        path.relative_to(run_dir).as_posix(): _sha(path.read_bytes())
        for path in sorted(run_dir.rglob("*"))
        if path.is_file() and path.name != "config.txt"
    }


# Golden runs no shipped config covers: the 2x3 target has 10 support states.
EXTRA_CONFIGS = {
    "bas23_dc0_L0_qbas": RunConfig(d_c=0, n_layers=0, n_rows=2, n_cols=3, qbas_enabled=True),
}


def short_run_digests(name: str, out_dir: Path) -> dict[str, str]:
    config = EXTRA_CONFIGS.get(name) or load_config_file(CONFIGS / f"{name}.cfg")
    return run_digests(replace(config, n_steps=5, seed=0), out_dir)


def noisy_gradient(mode: str) -> np.ndarray:
    config = TrainingConfig(d_c=4, n_layers=2, n_shots_train=2048, noise=load_noise(MODERATE))
    circuit = config.circuit()
    theta = np.linspace(0.1, 6.2, circuit.parameter_count)
    return mmd_gradient(
        circuit,
        theta,
        config.target(),
        config.kernel(),
        mode=mode,
        n_shots=config.n_shots_train,
        rng=rng_stream(0, TAG_GRAD, 0),
        noise=config.noise,
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_short_run_bytes_unchanged(name, tmp_path):
    assert short_run_digests(name, tmp_path / name) == GOLDEN_RUNS[name]


@pytest.mark.parametrize("key", sorted(GOLDEN_NOISY_RUNS), ids=lambda k: "dc%d_L%d_%s" % k)
def test_short_noisy_run_bytes_unchanged(key, tmp_path):
    d_c, layers, mode = key
    config = RunConfig(
        d_c=d_c, n_layers=layers, n_steps=3, gradient_mode=mode, noise=load_noise(MODERATE)
    )
    assert run_digests(config, tmp_path / "run") == GOLDEN_NOISY_RUNS[key]


@pytest.mark.parametrize("mode", sorted(GOLDEN_GRADIENTS))
def test_noisy_gradient_bytes_unchanged(mode):
    grad = noisy_gradient(mode)
    assert grad.dtype == np.float64 and grad.shape == (28,)
    assert _sha(grad.tobytes()) == GOLDEN_GRADIENTS[mode]


# ---------------------------------------------------------------------------
# The one-state, per-gate simulator that batching replaced, kept as the
# reference: statevectors must match it bit for bit, density matrices within
# 1e-12 (perfbench's probability tolerance for the noisy workload).

_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _ref_rotation(gate, angle):
    if gate == "rx":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    phase = np.exp(-0.5j * angle)
    return np.array([[phase, 0.0], [0.0, phase.conjugate()]], dtype=complex)


def _ref_apply(t, axes, m):
    k = len(axes)
    t = np.moveaxis(t, axes, range(k))
    shape = t.shape
    t = (m @ t.reshape(2**k, -1)).reshape((2,) * k + shape[k:])
    return np.moveaxis(t, range(k), axes)


def _ref_cnot(psi, control, target):
    psi = np.moveaxis(psi, (control, target), (0, 1)).copy()
    psi[1] = psi[1, ::-1]
    return np.moveaxis(psi, (0, 1), (control, target))


def reference_amplitudes(circuit, theta):
    n = circuit.n_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for instr in circuit.instructions():
        if instr[0] == "cnot":
            psi = _ref_cnot(psi, instr[1], instr[2])
        elif instr[0] != "tick":
            psi = _ref_apply(psi, [instr[1]], _ref_rotation(instr[0], theta[instr[2]]))
    return psi.reshape(-1)


def reference_density(circuit, theta, noise):
    n = circuit.n_qubits

    def unitary(rho, qubits, u):
        rho = _ref_apply(rho, list(qubits), u)
        return _ref_apply(rho, [n + q for q in qubits], u.conj())

    def channel(rho, qubits, kraus):
        out = np.zeros_like(rho)
        for k in kraus:
            out += unitary(rho, qubits, k)
        return out

    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    for instr in circuit.instructions():
        if instr[0] in ("rx", "rz"):
            rho = unitary(rho, [instr[1]], _ref_rotation(instr[0], theta[instr[2]]))
            if noise.p1 > 0.0:
                rho = channel(rho, [instr[1]], depolarizing_kraus(noise.p1, 1))
        elif instr[0] == "cnot":
            rho = _ref_apply(rho, [instr[1], instr[2]], _CNOT)
            rho = _ref_apply(rho, [n + instr[1], n + instr[2]], _CNOT)
            if noise.p2 > 0.0:
                rho = channel(rho, instr[1:], depolarizing_kraus(noise.p2, 2))
        elif noise.t_damp > 0.0:
            for qubit in range(n):
                rho = channel(rho, [qubit], amplitude_damping_kraus(noise.t_damp))
    return rho.reshape(2**n, 2**n)


def _random_thetas(circuit, seed, rows=5):
    thetas = np.random.default_rng(seed).uniform(-7.0, 7.0, (rows, circuit.parameter_count))
    thetas[0] = 0.0  # exact zeros and exact pi/2 multiples in the batch too
    thetas[1] = np.pi / 2.0
    return thetas


SHAPES = [(d_c, layers) for d_c in (0, 2, 3, 4) for layers in (1, 2)]


@pytest.mark.parametrize("d_c, layers", SHAPES)
@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
def test_batch_matches_rows_bit_for_bit(d_c, layers, noisy):
    circuit = TrainingConfig(d_c=d_c, n_layers=layers).circuit()
    noise = load_noise(MODERATE) if noisy else None
    thetas = _random_thetas(circuit, 10 * d_c + layers)
    batch = circuit_probabilities(circuit, thetas, noise)
    rows = np.array([circuit_probabilities(circuit, theta, noise) for theta in thetas])
    assert batch.shape == (len(thetas), 16)
    assert batch.tobytes() == rows.tobytes()
    if noisy:
        states = evolve_density(circuit, thetas, noise)
        expected = np.array([reference_density(circuit, t, noise) for t in thetas])
        assert np.max(np.abs(states - expected)) <= 1e-12
    else:
        states = run_statevector(circuit, thetas)
        expected = np.array([reference_amplitudes(circuit, t) for t in thetas])
        assert states.tobytes() == expected.tobytes()


def test_single_theta_keeps_unbatched_shapes():
    circuit = TrainingConfig(d_c=2, n_layers=1).circuit()
    theta = _random_thetas(circuit, 1)[2]
    assert run_statevector(circuit, theta).shape == (16,)
    assert evolve_density(circuit, theta).shape == (16, 16)
    assert circuit_probabilities(circuit, theta).shape == (16,)
    with pytest.raises(ValueError):
        circuit_probabilities(circuit, np.zeros((2, 3, circuit.parameter_count)))
    with pytest.raises(ValueError):
        run_statevector(circuit, np.zeros((2, circuit.parameter_count - 1)))


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
def test_chunked_batch_matches_one_batch(noisy, monkeypatch):
    circuit = TrainingConfig(d_c=4, n_layers=1).circuit()
    noise = load_noise(MODERATE) if noisy else None
    thetas = _random_thetas(circuit, 5, rows=7)
    whole = circuit_probabilities(circuit, thetas, noise)
    state_bytes = 16 * (256 if noisy else 16)
    monkeypatch.setattr(sim, "MAX_BATCH_BYTES", 3 * state_bytes)  # chunks of 3, 3, 1
    assert circuit_probabilities(circuit, thetas, noise).tobytes() == whole.tobytes()


def test_readout_batch_matches_rows():
    probs = np.random.default_rng(3).dirichlet(np.ones(16), size=6)
    confusion = load_noise(MODERATE).confusion_matrices(4)
    rows = np.array([apply_readout(p, confusion) for p in probs])
    assert apply_readout(probs, confusion).tobytes() == rows.tobytes()


def test_sample_counts_draws_row_k_from_stream_k():
    probs = np.random.default_rng(4).dirichlet(np.ones(16), size=5)
    counts = sim.sample_counts(probs, 300, [np.random.default_rng(k) for k in range(5)])
    for k, row in enumerate(probs):
        assert np.array_equal(counts[k], sample_histogram(row, 300, np.random.default_rng(k)))
    assert counts.dtype == np.int64 and np.all(counts.sum(axis=1) == 300)
    with pytest.raises(ValueError):
        sim.sample_counts(probs, 300, [np.random.default_rng(0)])  # one stream short
    with pytest.raises(ValueError):
        sim.sample_counts(-probs, 300, [np.random.default_rng(k) for k in range(5)])


@pytest.mark.parametrize("d_c", [3, 4])
def test_density_path_makes_one_contraction_per_gate(d_c, monkeypatch):
    """A rotation (with its channel), a CNOT edge (with its channel and the
    damping of both qubits) and the damping of a qubit no edge of a
    sub-covering touches each take one ``contract_axes`` call."""
    calls = []

    def counting(t, axes, m):
        calls.append(list(axes))
        return contract_axes(t, axes, m)

    monkeypatch.setattr(sim, "contract_axes", counting)
    circuit = TrainingConfig(d_c=d_c, n_layers=2).circuit()
    n = circuit.n_qubits
    expected, touched = [], set()
    for op, *args in circuit.instructions():
        if op == "cnot":
            a, b = args
            expected.append([a, b, n + a, n + b])
            touched |= {a, b}
        elif op == "tick":
            expected.extend([q, n + q] for q in range(n) if q not in touched)
            touched = set()
        else:
            expected.append([args[0], n + args[0]])
    evolve_density(circuit, _random_thetas(circuit, 2), load_noise(MODERATE))
    assert calls == expected


# TrainingConfig.digest() of every shipped config (each sweep row labelled and
# seeded as the sweep command does it, each plain config also under the
# noiseless zero profile) and of EXTRA_CONFIGS, recorded before the density
# path had a version of its own.
PINNED_DIGESTS = {
    "dc2_L1_1024": "505aedd76e86df532cc92a1b952363022a70f89622fd17884b163942b54db39b",
    "dc2_L1_1024+zero": "95d22f511120ecade7a397852b3cbe4a2465f52c565a4d8b3d7047252f7416f5",
    "dc2_L1_lowrate": "fc2613ff3a50c9071993711be95596af9cbdc502845fad7e32cfdc9107ee1172",
    "dc2_L1_lowrate+zero": "5eb7c2f1daedceec829fee4c447000276996ee313bcfc5a0a0d0da0ec3099cd3",
    "dc2_L2_2048": "e9ca2444507f66c2475fbbd7d009ba6620906d0f81d726aeb63c04d9f6852170",
    "dc2_L2_2048+zero": "17da686fa6c90022d3022bbc4918769ad51256b4c1fea4f3b23b8d43108b2d99",
    "dc3_L1_2048": "56bcb4e6657c22e97948291300d0f38965d5edbc0d894c637ef20ea9bf39163c",
    "dc3_L1_2048+zero": "d3638397c930658dfbe3f60edd2619ae7629d4109334a1a519d70e6fe01947d5",
    "dc4_L1_2048": "d6911cfedd979c2ce9c24462b72022092caa41ff95c01eff0e8c355f67ced63d",
    "dc4_L1_2048+zero": "4d2cf31a9a2138616af2d928e5df76d1b5acbe425ba209272abd9319a2b3cbfb",
    "product_baseline_1024": "bd41fe3f5e77b01b4e677ed4aa85e618c75c334620b7825d8f47db5aa3c65a5e",
    "product_baseline_1024+zero": "205f630e831329e504d81f99e801e1a4885b5c57536ef9e5fd6cc9ad93554734",
    "qbas_dc3_L2": "058d088367306e4a4714a46a4e9a0c6696df5b0d19b1473d76ee941b3073ab17",
    "qbas_dc3_L2+zero": "95a596fbf38928c83cb77f233ac575c462edd6d9b7e7d0d3aee3295dfcc646f4",
    "qbas_dc4_L2": "8f3d87f598eaa5251bcb79436ebeafc3114d1d246a2ad93e5b40cb71bd506105",
    "qbas_dc4_L2+zero": "5609b9b50982d7a4dabc8650decd84be4bd7d18e8fe77c706d0bf4bfd7dc4c8c",
    "sweep_full_grid/row000": "2309e0b8687239a01a4cd068adc4aafc8afe81fd4b17b2ab0cdfb77baebbe5f6",
    "sweep_full_grid/row001": "7bd35953326c3b8af3d24ef9377850116a9d035da7f22d6b9ff93eaa5886af40",
    "sweep_full_grid/row002": "b5668df8a88bc18e052642b18f7e977871027dfb185da5e592e066f517ec0dd3",
    "sweep_full_grid/row003": "d227df7ae3a0b5bb1b27409233857df1b34104317da2644b0e19961ee14377d3",
    "sweep_full_grid/row004": "2f035db7ce9b2f72ba2329182e07d5cc9125eee23329cfdf4cd53ca3559d7110",
    "sweep_full_grid/row005": "4af076665e9983be48ba6d75911265e78576e5413c7be41aa674664d79dd1bb9",
    "sweep_full_grid/row006": "cc1045d8396d6887b6a6c55db4298f9d9f30c17670eb0b5e77c6da59f8ec7d53",
    "sweep_full_grid/row007": "3420812291f4dc7d89b8ba987a6b8cbf83098fe5c155638a20c5d876e6751119",
    "sweep_full_grid/row008": "6a4e955c3b99ce848f8b3570e5fb65fd1c7432e7fd6dc028642f2acf8e22cae7",
    "sweep_full_grid/row009": "0e35fa3f0e779755954f5a40dc2874b289cd534b07b325ceaf1230a9dacc81c0",
    "sweep_full_grid/row010": "6a669958a5139f6f4d2726f9930c858258f7d7fa61ab647cba623da3036c30aa",
    "sweep_full_grid/row011": "b0dd7a64cd8497a2a367c5d130d80797d1280ce8cdabd88f8047ce44ec2c79ab",
    "sweep_full_grid/row012": "ef9ebb33a869af1ed72450dcac8def15f311a12e7a78d5c90f4cdf4b7fb8c695",
    "sweep_full_grid/row013": "315f48d0466aa9d957812d072c7223846154756ec3d38a1aed1d41777254b99f",
    "sweep_full_grid/row014": "fb11c2b849c11543849b1fc16bfed9e869d6e633f307f5d50a801b85cf9b0866",
    "sweep_full_grid/row015": "c1b8aa92d421a1ebced91e0ac5deb522601b95a069563fc56fd5e084c91a26d2",
    "sweep_full_grid/row016": "c02ab2e55010cb2f24bf259cdb15e7d709fd4f8aa9103ea7703a20b787f18055",
    "sweep_full_grid/row017": "ee75085e4bb52c796cdf5793d1144eda3930d813d50b7018be05fe152da2c72c",
    "bas23_dc0_L0_qbas": "90df5493f8000730e8611dbb1b220038dc39d4f53e94f6ce23839633fceb9517",
}


def shipped_configs() -> dict[str, RunConfig]:
    configs = dict(EXTRA_CONFIGS)
    for path in sorted(CONFIGS.glob("*.cfg")):
        items = parse_kv_file(path)
        axes = {k: v.split() for k, v in items.items() if is_sweep_axis(k) and len(v.split()) > 1}
        if not axes:
            config = load_config_file(path)
            configs[path.stem] = config
            configs[path.stem + "+zero"] = replace(config, noise=load_noise(ZERO))
            continue
        for row, combo in enumerate(product(*axes.values())):
            row_items = {**items, **dict(zip(axes, combo))}
            row_items.update(seed=str(int(items["seed"]) + row), label=f"row{row:03d}")
            configs[f"{path.stem}/row{row:03d}"] = config_from_items(row_items, path.parent)
    return configs


def test_digests_of_noiseless_configs_unchanged():
    assert {name: c.digest() for name, c in shipped_configs().items()} == PINNED_DIGESTS


def _v1_digest(config, *extra_lines):
    lines = ["digest_version = 1", *extra_lines]
    lines.extend(f"{k} = {v}" for k, v in sorted(config.kv_items()))
    return _sha("\n".join(lines).encode())


def test_noisy_digest_adds_only_the_density_path_version(monkeypatch):
    noiseless = load_config_file(CONFIGS / "dc4_L1_2048.cfg")
    noisy = replace(noiseless, noise=load_noise(MODERATE))
    assert noiseless.digest() == _v1_digest(noiseless)
    assert noisy.digest() == _v1_digest(noisy, "density_path_version = 2")
    readout_only = replace(noiseless, noise=NoiseModel(readout_flip_all=0.03))
    assert readout_only.digest() == _v1_digest(readout_only, "density_path_version = 2")
    before = (noiseless.digest(), noisy.digest())
    monkeypatch.setattr(training, "DENSITY_PATH_VERSION", 3)
    assert noiseless.digest() == before[0]
    assert noisy.digest() not in (before[1], _v1_digest(noisy))
