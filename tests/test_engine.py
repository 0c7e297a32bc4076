"""Guards on the batched simulation engine.

The noiseless digests were recorded with the per-circuit, per-gate simulator
that preceded batching; every batched path must reproduce its bytes exactly.
The noisy digests were recorded with the fused-superoperator density path in
real coordinates (``density_path_version = 3``), whose density matrices stay
within 1e-12 of the complex per-gate reference walk below.
"""

import hashlib
from dataclasses import replace
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
    shift_probabilities,
    train,
)
from bornbench import sim, training
from bornbench.ansatz import CircuitSpec, EntanglerLayer
from bornbench.mmd import shift_batch
from bornbench.runio import config_from_items, load_config_file, read_sweep, write_run
from bornbench.training import TAG_GRAD
from conftest import density_matrix
from test_mmd import sampled_gradient

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MODERATE = CONFIGS / "noise" / "moderate.profile"
ZERO = CONFIGS / "noise" / "zero.profile"

# SHA-256 of every byte-identical run file after a 5-step train at seed 0 of
# a shipped config.
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
}

# SHA-256 of the float64 bytes of a noisy d_c=4, L=2 gradient (moderate
# profile) at the angles of ``noisy_gradient``, drawn from
# rng_stream(0, TAG_GRAD, 0).  The sampled gradient kept its bytes through the
# fused density path and its real coordinates: its histograms come out the same.
GOLDEN_GRADIENTS = {
    "exact": "917e6de65d2d62d2ecf28e499ab2f4c7cce6b7623571196afb8ff16ec47db304",
    "sampled": "2becfeb50b43c308b6a35e89cf39a06e77b899a2d42c8d4d88c7d7f907c67b3c",
}


# SHA-256 of every byte-identical run file after a 3-step train at seed 0
# under the moderate noise profile, keyed by (d_c, n_layers, gradient_mode).
# The sampled runs' metrics.csv, trajectory and final_theta.json bytes date
# from the per-gate density path; only their checkpoints moved, through the
# config digest they embed (density_path_version 2, then 3).
GOLDEN_NOISY_RUNS = {
    (2, 1, "exact"): {
        "checkpoints/step_000000.json": "fc17ee3cae413df9a3a870c6833b49e5e590eaa4703604249dfff7b57df3bd87",
        "checkpoints/step_000003.json": "ced3e9bb3777afdc0b3bbc08e12dce7b1108d5fdc6e043b9facdc5f56143e9ca",
        "final_theta.json": "758ea27ad264c085139a259742450e315d9d0401e20899fb2e521e17016e3b94",
        "metrics.csv": "d078c749ca0cc3cb3d0df9eb85a13d8384f939563999b8706ee5b2f174dfb1fe",
        "theta_trajectory.csv": "55f05dab9e2fcda3acf11a740d38ccad0c8378ce7523a0479e648a6759f0fd37",
    },
    (2, 1, "sampled"): {
        "checkpoints/step_000000.json": "03d5259f20e5fcb7a026271830a341d9afe0e0c5374525708d807ff43df1ffd6",
        "checkpoints/step_000003.json": "868e230857b090b0e7f223303aeacd0f4a4e24ab30ce4fbc7e43d968e60c9279",
        "final_theta.json": "fb55740fea6f21daecc4097f6f913665b504f78db61e5b92b2855ae159ed7188",
        "metrics.csv": "194dc3bb2d9f93fcb0e30d75552049d396531ae83922e04fb829d80237886bc9",
        "theta_trajectory.csv": "b9e3d9381263dc1d0ba2c186694f4cee67c7965587090e3d485e1917d2a3d8fb",
    },
    (4, 2, "exact"): {
        "checkpoints/step_000000.json": "0bd2354ed9941089e50d0f316a09767241dfd79b0a5f9945c0c7c59c5efb71b8",
        "checkpoints/step_000003.json": "4a3d8fb9cb61dcd3a038376b36ce034ee8baf52b8d27d9e536dabeca989257c2",
        "final_theta.json": "631fbc9e182b683dc9aced8230890c20287c79d6a20bc76a71951d24d573e7b3",
        "metrics.csv": "6637d40db331644e61913c7bdc7efd0c6ba4e96852f418a2813ecabd90c38f30",
        "theta_trajectory.csv": "8969a5a66349261c06059d2faa5812cb53ee81823aaf0329e3b825a5b375cc66",
    },
    (4, 2, "sampled"): {
        "checkpoints/step_000000.json": "cc79d8a1bb818fa79d4b1f73324feb2f910c480cba2da2c51aa9c22b80d9f3d4",
        "checkpoints/step_000003.json": "44530dc233d1ce3ac25ed33526a72972ed673ff63aa18f645fa3bd4c3777d655",
        "final_theta.json": "2522ea5f87c57dd15b5c4214b6aa4d3c58d631be6d6078e7ce59a4d3b0db1ae0",
        "metrics.csv": "a9951f48bb1ab61bbea2c41eb37ee2bf6185785620b655256593f46863bea4b2",
        "theta_trajectory.csv": "28cac7b3dec1241c1752acff93488abd3842e9a6f5687a693465124aed34ed25",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(config: TrainingConfig, out_dir: Path) -> dict[str, str]:
    run_dir = write_run(out_dir, train(config))
    return {
        path.relative_to(run_dir).as_posix(): _sha(path.read_bytes())
        for path in sorted(run_dir.rglob("*"))
        if path.is_file() and path.name != "config.txt"
    }


def short_run_digests(name: str, out_dir: Path) -> dict[str, str]:
    config = load_config_file(CONFIGS / f"{name}.cfg")
    return run_digests(replace(config, n_steps=5, seed=0), out_dir)


def noisy_gradient(mode: str) -> np.ndarray:
    config = TrainingConfig(d_c=4, n_layers=2, n_shots_train=2048, noise=load_noise(MODERATE))
    circuit = config.circuit()
    theta = np.linspace(0.1, 6.2, circuit.parameter_count)
    q = shift_probabilities(circuit, theta, config.noise)
    if mode == "exact":
        return mmd_gradient(q, config.target(), config.kernel())
    streams = rng_stream(0, TAG_GRAD, 0).spawn(len(q))
    return sampled_gradient(q, config.target(), config.kernel(), config.n_shots_train, streams)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_short_run_bytes_unchanged(name, tmp_path):
    assert short_run_digests(name, tmp_path / name) == GOLDEN_RUNS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_short_run_bytes_do_not_depend_on_the_stream_block(name, tmp_path, monkeypatch):
    # blocks of 2 steps: the 5-step run seeds its streams in three calls
    monkeypatch.setattr(training, "STREAM_BLOCK", 2)
    assert short_run_digests(name, tmp_path / name) == GOLDEN_RUNS[name]


@pytest.mark.parametrize("key", sorted(GOLDEN_NOISY_RUNS), ids=lambda k: "dc%d_L%d_%s" % k)
def test_short_noisy_run_bytes_unchanged(key, tmp_path):
    d_c, layers, mode = key
    config = TrainingConfig(
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
        if instr[0] == "cnots":
            for control, target in instr[1]:
                psi = _ref_cnot(psi, control, target)
        else:
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
        else:
            for control, target in instr[1]:
                rho = _ref_apply(rho, [control, target], _CNOT)
                rho = _ref_apply(rho, [n + control, n + target], _CNOT)
                if noise.p2 > 0.0:
                    rho = channel(rho, [control, target], depolarizing_kraus(noise.p2, 2))
            if noise.t_damp > 0.0:  # after the covering
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
        states = density_matrix(evolve_density(circuit, thetas, noise))
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
    with pytest.raises(ValueError, match="nonempty batch"):
        evolve_density(circuit, np.zeros((0, circuit.parameter_count)))


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
def test_chunked_batch_matches_one_batch(noisy, monkeypatch):
    circuit = TrainingConfig(d_c=4, n_layers=1).circuit()
    noise = load_noise(MODERATE) if noisy else None
    thetas = _random_thetas(circuit, 5, rows=7)
    whole = circuit_probabilities(circuit, thetas, noise)
    # a noisy row holds 4^n float64 coordinates, a noiseless one 2^n complex amplitudes
    state_bytes = 8 * 256 if noisy else 16 * 16
    monkeypatch.setattr(sim, "MAX_BATCH_BYTES", 3 * state_bytes)
    simulator = "evolve_density" if noisy else "run_statevector"
    chunks, simulate = [], getattr(sim, simulator)

    def counting(circuit, thetas, *noise):
        chunks.append(len(thetas))
        return simulate(circuit, thetas, *noise)

    monkeypatch.setattr(sim, simulator, counting)
    assert circuit_probabilities(circuit, thetas, noise).tobytes() == whole.tobytes()
    assert chunks == [3, 3, 1]


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
    # one distribution, unnormalised, for every stream: its broadcast rows' bytes
    one = 3.0 * probs[0]
    rows = np.broadcast_to(one, probs.shape)
    for shots in (1, 300, 10**6):
        got = sim.sample_counts(one, shots, [np.random.default_rng(k) for k in range(5)])
        expected = sim.sample_counts(rows, shots, [np.random.default_rng(k) for k in range(5)])
        assert got.shape == (5, 16) and got.tobytes() == expected.tobytes()
    assert sim.sample_counts(one, 300, []).shape == (0, 16)
    with pytest.raises(ValueError):
        sim.sample_counts(probs, 300, [np.random.default_rng(0)])  # one stream short
    with pytest.raises(ValueError):
        sim.sample_counts(probs[None], 300, [np.random.default_rng(0)])  # 3-d
    with pytest.raises(ValueError):
        sim.sample_counts(-probs, 300, [np.random.default_rng(k) for k in range(5)])


def assert_batch_is_rows_alone(circuit, thetas, noise):
    if noise is None:
        states = [run_statevector(circuit, thetas)]
        states += [run_statevector(circuit, theta) for theta in thetas]
    else:
        states = [evolve_density(circuit, thetas, noise)]
        states += [evolve_density(circuit, theta, noise) for theta in thetas]
    assert states[0].tobytes() == np.array(states[1:]).tobytes()
    batch = circuit_probabilities(circuit, thetas, noise)
    rows = np.array([circuit_probabilities(circuit, theta, noise) for theta in thetas])
    assert batch.tobytes() == rows.tobytes()


# (n_rows, n_cols, d_c, n_layers): every 2x2 shape, and the product circuit
# on a 2x3 register, which no config takes but the simulators do
REGISTERS = [(2, 2, d_c, layers) for d_c, layers in SHAPES] + [(2, 3, 0, 1), (2, 3, 0, 2)]


def register_circuit(rows, cols, d_c, layers):
    """The circuit of a 2x2 config, or on another register, which no config
    takes, the product circuit (d_c = 0) built by hand."""
    if (rows, cols) == (2, 2):
        return TrainingConfig(d_c=d_c, n_layers=layers).circuit()
    patterns = TrainingConfig(d_c=0, n_layers=layers).circuit().rotation_layers
    return CircuitSpec(rows * cols, patterns, (EntanglerLayer(()),) * layers)


@pytest.mark.parametrize("rows, cols, d_c, layers", REGISTERS)
@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
def test_shift_batch_matches_rows_bit_for_bit(rows, cols, d_c, layers, noisy):
    """A gradient batch shares one product per gate and redoes its 2 shifted
    rows alone; every row must still come out as it does alone."""
    circuit = register_circuit(rows, cols, d_c, layers)
    theta = np.random.default_rng(rows * cols + 10 * d_c + layers).uniform(
        0.0, 2.0 * math.pi, circuit.parameter_count
    )
    assert_batch_is_rows_alone(circuit, shift_batch(theta), load_noise(MODERATE) if noisy else None)


@pytest.mark.parametrize(
    "n, coverings", [(3, [[((0, 2),), ((1, 0),)], [((2, 1),)]])], ids=["3_qubits"]
)
def test_hand_built_edges_off_four_qubits_match_rows(n, coverings):
    """No config puts a CNOT on other than 4 qubits, but a hand-built circuit
    may: on 3 an edge leaves 4 columns a row.  Batch rows still come out as
    they do alone, and within 1e-12 of the reference."""
    layers = tuple(EntanglerLayer(tuple(covering)) for covering in coverings)
    circuit = CircuitSpec(n, (("rx", "rz"), ("rz", "rx", "rz"), ("rz", "rx")), layers)
    noise = load_noise(MODERATE)
    thetas = shift_batch(np.random.default_rng(n).uniform(0.0, 2.0 * math.pi, circuit.parameter_count))
    assert_batch_is_rows_alone(circuit, thetas, noise)
    states = density_matrix(evolve_density(circuit, thetas, noise))
    expected = np.array([reference_density(circuit, t, noise) for t in thetas])
    assert np.max(np.abs(states - expected)) <= 1e-12


# SHA-256 of the bytes of ``evolve_density`` on a parameter-shift batch and
# then on a lone angle vector, for every register of REGISTERS and the
# rotation-only 2x2 circuit, at the moderate profile and at full strength
# (p1 = p2 = t_damp = 1).  Recorded with the density path whose state held
# ket axes then bra axes, so any later layout keeps every byte.
PIN_NOISE = {"moderate": load_noise(MODERATE), "full": NoiseModel(p1=1.0, p2=1.0, t_damp=1.0)}
PIN_REGISTERS = [(2, 2, 0, 0)] + REGISTERS
DENSITY_PINS = {
    "2x2_dc0_L0/full": "6fb6d644c86942f00ebd0e4f6afb9ee209e444ae4874bffcd223811c8d358e53",
    "2x2_dc0_L0/moderate": "ada76efcb5db6c9d56e18c2c3d2fc6b685736932cad4516b1dbbd78b16a19833",
    "2x2_dc0_L1/full": "7a07e1d7f6fdedbdf2c25e9fdc4a52d51219acf5c6259a9ad9da272dfa728afe",
    "2x2_dc0_L1/moderate": "9b7168e1b756d01dac13e5f03f511ab6412ce0dbeee45081a599f9dfaca9adfa",
    "2x2_dc0_L2/full": "caf75400761943cb5ed2ecfdc689e2d7d599da50e86b8c5330fed64bbd73af9e",
    "2x2_dc0_L2/moderate": "41a5de218e4a5c6b722b4abd4e0f88e6be0330fb739bd197c25320e1d1abecb3",
    "2x2_dc2_L1/full": "ada15aea29d131725e427a93c00d2ca30810e375e15d67be0b8ee9df617e103f",
    "2x2_dc2_L1/moderate": "8e2aad6fc2dcc448561d90ffbd20c352cf12bbc087c664af6745291c593f05e4",
    "2x2_dc2_L2/full": "ef7a372fce58e78db19c40132cc68feca0dd17ac35c576979318edec42ef85e6",
    "2x2_dc2_L2/moderate": "79a58ab323db1469a8c91506da34361f5be91a6ac3b108fa138091bd5b0e3b61",
    "2x2_dc3_L1/full": "26c3ab6c15d7fad915a2c454c61139db595c93e9af5b807e2a0e308c0540aeb8",
    "2x2_dc3_L1/moderate": "a95f61211b7cc3dccc34067af2c98f6b4ff1496b5f804c9aade581239ed5f8f4",
    "2x2_dc3_L2/full": "7e59dae1c043f34ebeef7c053478a78e6de49117ce892072e2602c22ca6853b0",
    "2x2_dc3_L2/moderate": "4326138895e3ed79be18265529bf39aaebe3495ada3c1ff7de4b8a7169c52fa4",
    "2x2_dc4_L1/full": "688498d4847fd0f71a1e3310a1666432562f8eb556e42d201e0fb116bf8d5ae9",
    "2x2_dc4_L1/moderate": "2a3534f54b45ad7207a85a81a34b74e007ef1d89dda7c43e3ab21662b320af11",
    "2x2_dc4_L2/full": "66d02096b7eb4d637b76e4749f97afa410864cbdb96da779734e8d8352f28a72",
    "2x2_dc4_L2/moderate": "62f7aa8a59e7b7fffcf3c963122609e7393f4ffc8a84951eb76fc657b98dc60c",
    "2x3_dc0_L1/full": "ea2c2a8902a249783643a9ae79237de64ccf66a114a071bba1491effe6058c93",
    "2x3_dc0_L1/moderate": "1b2714b477069f3e36b3989a98f53b2e9a9b4610f58f08aa0647c9e40a953906",
    "2x3_dc0_L2/full": "8d00897f20c83bd4c53497d7d6465b3e3fe60d27f06870b03e130359f2c85c6f",
    "2x3_dc0_L2/moderate": "7c04f32653700b51846336504ed775da315fb9f3f107d2f07267b9a5dd7b9a16",
}


def density_pin(rows, cols, d_c, layers, noise):
    circuit = register_circuit(rows, cols, d_c, layers)
    rng = np.random.default_rng([rows, cols, d_c, layers])
    theta, lone = rng.uniform(0.0, 2.0 * math.pi, (2, circuit.parameter_count))
    digest = hashlib.sha256(evolve_density(circuit, shift_batch(theta), noise).tobytes())
    digest.update(evolve_density(circuit, lone, noise).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("noise", sorted(PIN_NOISE))
@pytest.mark.parametrize("register", PIN_REGISTERS, ids=lambda r: "%dx%d_dc%d_L%d" % r)
def test_density_bytes_unchanged_on_every_register(register, noise):
    key = "%dx%d_dc%d_L%d/%s" % (*register, noise)
    assert density_pin(*register, PIN_NOISE[noise]) == DENSITY_PINS[key]


class Recorded(np.ndarray):
    """An array that records the shape of every matrix product it enters as
    the only recorded operand into ``products``, and the shape of the other
    operand into ``operands``."""

    products: list = []
    operands: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        mine = [isinstance(a, Recorded) for a in inputs]
        out = getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
        if ufunc is np.matmul and mine.count(True) == 1:
            Recorded.products.append(inputs[mine.index(True)].shape)
            Recorded.operands.append(inputs[mine.index(False)].shape)
        return out.view(Recorded) if all(mine) else out


@pytest.fixture
def density_products(monkeypatch):
    """The shape of the matrix side of every product ``evolve_density`` takes
    of one of its gate matrices (a rotation, an edge or a damping) with the
    state, in the order taken.  Each matrix comes out of ``_in_coordinates``
    as an array that records the products it enters."""
    in_coordinates = sim._in_coordinates
    monkeypatch.setattr(Recorded, "products", [])
    monkeypatch.setattr(Recorded, "operands", [])
    monkeypatch.setattr(sim, "_in_coordinates", lambda s: in_coordinates(s).view(Recorded))
    sim._superoperators.cache_clear()
    yield Recorded.products
    sim._superoperators.cache_clear()


@pytest.fixture
def statevector_products(monkeypatch):
    """The shape of the matrix side of every product ``run_statevector``
    takes of its rotation matrices with the state, in the order taken."""
    rotations = sim._rotations

    def recorded(circuit, theta):
        *rest, u = rotations(circuit, theta)
        return (*rest, u.view(Recorded))

    monkeypatch.setattr(Recorded, "products", [])
    monkeypatch.setattr(Recorded, "operands", [])
    monkeypatch.setattr(sim, "_rotations", recorded)
    return Recorded.products


GROUPING_CASES = [
    "column_all_differ",
    "all_rows_equal",
    "signed_zero",
    "reversed_shift",
    "row_0_copy_in_middle",
    "every_row_every_slot",
]


@pytest.mark.parametrize("case", GROUPING_CASES)
@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
def test_grouping_edge_cases_match_rows_bit_for_bit(case, noisy, request):
    """Batches that the two walks group otherwise than a shift batch: each
    row comes out as it does alone.  The density path redoes the rows whose
    angle differs from row 0's with one stack of their matrices per slot.
    The statevector walk takes the rows in join order; per slot it makes the
    rows joining there with one stack, then redoes the joined rows that
    differ again with another, and its shared product covers row 0 alone
    when every other joined row is redone."""
    circuit = TrainingConfig(d_c=2, n_layers=2).circuit()
    n_params = circuit.parameter_count
    rng = np.random.default_rng(11)
    theta = rng.uniform(-7.0, 7.0, n_params)
    zeros = [0, 5, 11]
    if case == "column_all_differ":
        thetas = shift_batch(theta)
        thetas[:, 7] = rng.uniform(-7.0, 7.0, len(thetas))
    elif case == "all_rows_equal":
        thetas = np.tile(theta, (6, 1))
    elif case == "signed_zero":  # rows 1 and 3 hold -0.0 where rows 0 and 2 hold 0.0
        thetas = np.tile(theta, (4, 1))
        thetas[:, zeros] = 0.0
        thetas[1::2, zeros] = -0.0
    elif case == "reversed_shift":  # row 0 is theta_27 - pi/2, so every row differs at slot 27
        thetas = shift_batch(theta)[::-1].copy()
    elif case == "row_0_copy_in_middle":
        thetas = shift_batch(theta)
        thetas = np.insert(thetas, len(thetas) // 2, thetas[0], axis=0)
    else:  # what deploy simulates: a trajectory of unrelated angle vectors
        thetas = rng.uniform(-7.0, 7.0, (7, n_params))
    noise = load_noise(MODERATE) if noisy else None
    assert_batch_is_rows_alone(circuit, thetas, noise)

    products = request.getfixturevalue("density_products" if noisy else "statevector_products")
    circuit_probabilities(circuit, thetas, noise)
    stacks = [shape[0] for shape in products if len(shape) == 3]
    if noisy:  # the rows that differ from row 0 at each slot, in one stack
        expected = {
            "column_all_differ": [2] * 7 + [len(thetas) - 1] + [2] * (n_params - 8),
            "all_rows_equal": [],
            "signed_zero": [2] * len(zeros),  # angles are told apart by bit pattern
            "reversed_shift": [2] * (n_params - 1) + [len(thetas) - 1],
            "row_0_copy_in_middle": [2] * n_params,
            "every_row_every_slot": [len(thetas) - 1] * n_params,
        }[case]
    else:  # per slot: the joining rows' stack, then the redone rows' stack
        slots = {
            # rows of slots 0-6 join there and are redone at 7, where the
            # other 42 shifted rows join; at its slot a shifted row is redone
            "column_all_differ": [[2]] * 7 + [[42, 14]] + [[2]] * (n_params - 8),
            "all_rows_equal": [[]] * n_params,
            "signed_zero": [[2], [], [], [], [], [2]] + [[]] * 5 + [[2]] + [[]] * 16,
            # the row with theta and the row with theta_27 + pi/2 join last
            "reversed_shift": [[2]] * (n_params - 1) + [[2, 2 * (n_params - 1)]],
            "row_0_copy_in_middle": [[2]] * n_params,  # the copy never joins
            "every_row_every_slot": [[6]] * n_params,  # all join at slot 0, then redone
        }[case]
        expected = [size for stack in slots for size in stack]
        # rows under the shared product: those joined, or row 0 alone when
        # every other joined row is redone
        rows = {
            "column_all_differ": [1 + 2 * s for s in range(7)] + [1] + [57] * (n_params - 8),
            "all_rows_equal": [1] * n_params,
            "signed_zero": [1] + [3] * 4 + [1] + [3] * 5 + [1] + [3] * 16,
            "reversed_shift": [1 + 2 * s for s in range(n_params - 1)] + [1],
            "row_0_copy_in_middle": [1 + 2 * s for s in range(n_params)],
            "every_row_every_slot": [1] * n_params,
        }[case]
        width = 2 ** (circuit.n_qubits - 1)
        shared = [other[1] // width for shape, other in zip(products, Recorded.operands) if len(shape) == 2]
        assert shared == rows
    assert stacks == expected


@pytest.mark.parametrize("d_c", [0, 2, 3, 4])
def test_density_path_makes_one_contraction_per_gate(d_c, density_products):
    """A rotation (with its channel), a CNOT edge (with its channel and the
    damping of both qubits) and the damping of a qubit no edge of a
    sub-covering touches each take one product of their matrix with the
    state, in program order; for a lone angle vector that is all.  In a batch
    a rotation then takes one more product, with a stack of matrices, for the
    rows whose angle differs from row 0's: 2 rows in a parameter-shift batch,
    every other row in a random batch."""
    circuit = TrainingConfig(d_c=d_c, n_layers=2).circuit()
    thetas = _random_thetas(circuit, 2)

    def expected(rotation_products):
        qubits, shapes = [], []
        for op, *args in circuit.instructions():
            if op == "cnots":
                touched = set()
                for edge in args[0]:
                    qubits.append(tuple(edge))
                    shapes.append((16, 16))
                    touched |= set(edge)
                idle = [q for q in range(circuit.n_qubits) if q not in touched]
                qubits += [(q,) for q in idle]
                shapes += [(4, 4)] * len(idle)
            else:
                qubits.append((args[0],))
                shapes += rotation_products
        return qubits, shapes

    for batch, rotation_products in [
        (thetas[2], [(4, 4)]),
        (thetas, [(4, 4), (len(thetas) - 1, 4, 4)]),
        (shift_batch(thetas[2]), [(4, 4), (2, 4, 4)]),
    ]:
        density_products.clear()
        evolve_density(circuit, batch, load_noise(MODERATE))
        qubits, shapes = expected(rotation_products)
        assert [step[0] for step in sim._schedule(circuit)[0]] == qubits
        assert density_products == shapes


# Layout copies per evaluation of each register of PIN_REGISTERS: the
# density path copies its state only where the next gate's qubits do not lead.
LAYOUT_COPIES = {
    (2, 2, 0, 0): 1,
    (2, 2, 0, 1): 1,
    (2, 2, 0, 2): 2,
    (2, 2, 2, 1): 2,
    (2, 2, 2, 2): 4,
    (2, 2, 3, 1): 4,
    (2, 2, 3, 2): 8,
    (2, 2, 4, 1): 3,
    (2, 2, 4, 2): 6,
    (2, 3, 0, 1): 1,
    (2, 3, 0, 2): 2,
}


def test_density_layout_copies_per_evaluation():
    assert set(LAYOUT_COPIES) == set(PIN_REGISTERS)
    for (rows, cols, d_c, layers), count in LAYOUT_COPIES.items():
        circuit = register_circuit(rows, cols, d_c, layers)
        steps = sim._schedule(circuit)[0]
        assert sum(step[2] is not None for step in steps) == count, (rows, cols, d_c, layers)


# TrainingConfig.digest() of every shipped config (each sweep row labelled and
# seeded as the sweep command does it, each plain config also under the
# noiseless zero profile), recorded before the density path had a version of
# its own.
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
}


def shipped_configs() -> dict[str, TrainingConfig]:
    """Every shipped config, and every row of a shipped sweep file as
    ``bornbench sweep`` builds it."""
    configs = {}
    for path in sorted(CONFIGS.glob("*.cfg")):
        rows = read_sweep(path)
        if len(rows) > 1:
            for row, items in enumerate(rows):
                configs[f"{path.stem}/row{row:03d}"] = config_from_items(items, path.parent)
            continue
        config = load_config_file(path)
        configs[path.stem] = config
        configs[path.stem + "+zero"] = replace(config, noise=load_noise(ZERO))
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
    assert noisy.digest() == _v1_digest(noisy, "density_path_version = 3")
    readout_only = replace(noiseless, noise=NoiseModel(readout_flip_all=0.03))
    assert readout_only.digest() == _v1_digest(readout_only, "density_path_version = 3")
    before = (noiseless.digest(), noisy.digest())
    monkeypatch.setattr(training, "DENSITY_PATH_VERSION", 4)
    assert noiseless.digest() == before[0]
    assert noisy.digest() not in (before[1], _v1_digest(noisy))
