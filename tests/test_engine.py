"""Guards on the batched simulation engine.

The expected digests were recorded with the per-circuit, per-gate simulator
that preceded batching; every batched path must reproduce its bytes exactly.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import math

import numpy as np
import pytest

from bornbench import (
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
from bornbench import noise as noise_module, sim
from bornbench.noise import contract_axes
from bornbench.runio import load_config_file, write_run
from bornbench.training import TAG_GRAD, RunConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MODERATE = CONFIGS / "noise" / "moderate.profile"

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
# rng_stream(0, TAG_GRAD, 0).
GOLDEN_GRADIENTS = {
    "exact": "65bfb4d04ce5bb443b95851b9d276d9527cedf6486f9582f79519dcd729fb9a7",
    "sampled": "2becfeb50b43c308b6a35e89cf39a06e77b899a2d42c8d4d88c7d7f907c67b3c",
}


# SHA-256 of every byte-identical run file after a 3-step train at seed 0
# under the moderate noise profile, keyed by (d_c, n_layers, gradient_mode);
# recorded while channels still took one matmul per Kraus operator and side.
GOLDEN_NOISY_RUNS = {
    (2, 1, "exact"): {
        "checkpoints/step_000000.json": "0753071c3a35798d34be40c46c952a5ad022dd107fc831bddacb66fd1266d4c2",
        "checkpoints/step_000003.json": "b03de857855fa0b7ac7c653b8199aeff67e38a6e3cb27c9000d238e14ab77ed6",
        "final_theta.json": "69a3ca63a4c7a03a086578417fb150fac2c6da9aa3a70440a2753089f0364da5",
        "metrics.csv": "4d3f095ff04f6c51e462ea44724ddbcf0b3eb4d7717576498b1bc8d8e70aa475",
        "theta_trajectory.csv": "bcd654c46316f07876b4e9d91045979279ae09c828c0d31bbaa497e8a0a9b90f",
    },
    (2, 1, "sampled"): {
        "checkpoints/step_000000.json": "945b5b567b3468cd4fdc90eabeb2d5113e48a390f2eea87bd41ec652e3954472",
        "checkpoints/step_000003.json": "388065d6f13c4b141e01fb756a4010dd9a82aaf5dffda58348ed030bbddc5ad2",
        "final_theta.json": "fb55740fea6f21daecc4097f6f913665b504f78db61e5b92b2855ae159ed7188",
        "metrics.csv": "194dc3bb2d9f93fcb0e30d75552049d396531ae83922e04fb829d80237886bc9",
        "theta_trajectory.csv": "b9e3d9381263dc1d0ba2c186694f4cee67c7965587090e3d485e1917d2a3d8fb",
    },
    (4, 2, "exact"): {
        "checkpoints/step_000000.json": "3add0bbf65ec3fb75eeb631ff50683af9ce5d5a60ab5669d20eed3e816ba78f2",
        "checkpoints/step_000003.json": "cbca68c00fc9e644ede3cd813da935cd8b91e44d8e166e8185a7cc7bc4d883d7",
        "final_theta.json": "98cb98efb831639c24b4e07cfad9a696b4bc13e4762960d531aafba025f451e7",
        "metrics.csv": "82d7d709b6ff865c9c3ddd4724422d716c08eda3efb4b46405837a611a0f28a6",
        "theta_trajectory.csv": "5c46ba3d1ce63fa3a009b1a18f6e82349bc7715102e80e908cabaf2d7bb7367f",
    },
    (4, 2, "sampled"): {
        "checkpoints/step_000000.json": "91c771bebbf00583e2bc989aa937516462182e3a7c5af2362488ae622e3b0c12",
        "checkpoints/step_000003.json": "f887c617d110836bea5b50f8e2480528d1d37f76d96b05fe981c8932cab579f2",
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
# reference the engine must match bit for bit.

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
        states = evolve_density(circuit, thetas, noise).entries
        expected = np.array([reference_density(circuit, t, noise) for t in thetas])
    else:
        states = run_statevector(circuit, thetas).amplitudes
        expected = np.array([reference_amplitudes(circuit, t) for t in thetas])
    assert states.tobytes() == expected.tobytes()


def test_single_theta_keeps_unbatched_shapes():
    circuit = TrainingConfig(d_c=2, n_layers=1).circuit()
    theta = _random_thetas(circuit, 1)[2]
    assert run_statevector(circuit, theta).amplitudes.shape == (16,)
    assert evolve_density(circuit, theta).entries.shape == (16, 16)
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
        hist = sample_histogram(row, 300, np.random.default_rng(k))
        assert np.array_equal(counts[k], hist.counts)
    assert counts.dtype == np.int64 and np.all(counts.sum(axis=1) == 300)
    with pytest.raises(ValueError):
        sim.sample_counts(probs, 300, [np.random.default_rng(0)])  # one stream short
    with pytest.raises(ValueError):
        sim.sample_counts(-probs, 300, [np.random.default_rng(k) for k in range(5)])


def test_noise_channels_make_no_matmul_per_kraus_operator(monkeypatch):
    """Only rotations contract through BLAS (ket side and bra side); every
    Kraus operator of a channel is applied without a ``contract_axes`` call."""
    calls = []

    def counting(t, axes, m):
        calls.append(len(axes))
        return contract_axes(t, axes, m)

    monkeypatch.setattr(sim, "contract_axes", counting)
    monkeypatch.setattr(noise_module, "contract_axes", counting)
    circuit = TrainingConfig(d_c=4, n_layers=2).circuit()
    rotations = sum(instr[0] in ("rx", "rz") for instr in circuit.instructions())
    evolve_density(circuit, _random_thetas(circuit, 2), load_noise(MODERATE))
    assert calls == [1] * (2 * rotations)


def test_channels_compile_only_scaled_pauli_x_products():
    tables = sim._compile_kraus(depolarizing_kraus(0.3, 2))
    assert len(tables) == 16
    assert all(ket.size == bra.size == 4 for _, ket, bra in tables)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    with pytest.raises(ValueError):
        sim._compile_kraus([hadamard])
    with pytest.raises(ValueError):
        sim._compile_kraus([np.diag([1.0, 1.0 + 1.0j]) / np.sqrt(3.0)])
    with pytest.raises(ValueError):  # one nonzero per row, but not one flip mask
        sim._compile_kraus([np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])])
