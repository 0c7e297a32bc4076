import csv
import warnings
from pathlib import Path

import numpy as np
import pytest

from bornbench.cli import main

TINY_CONFIG = """\
label = tiny
d_c = 2
n_layers = 1
n_shots_train = 256
n_steps = 4
alpha = 0.2
seed = 3
kl_shots = 512
kl_repeats = 4
"""

NOISE_PROFILE = "p1 = 0.002\np2 = 0.02\nreadout_flip_all = 0.03\nt_damp = 0.01\n"


@pytest.fixture
def tiny_run(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    out = tmp_path / "run"
    assert main(["train", "-c", str(config), "-o", str(out)]) == 0
    return config, out


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_bas_subcommand(capsys):
    assert main(["bas", "--rows", "2", "--cols", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0000", "0011", "0101", "1010", "1100", "1111"]


def test_train_outputs(tiny_run):
    _, out = tiny_run
    assert (out / "config.txt").exists()
    assert (out / "final_theta.json").exists()
    rows = read_csv(out / "metrics.csv")
    assert rows[0] == [
        "step", "loss", "kl_mean", "kl_std",
        "f1_0000", "f1_0011", "f1_0101", "f1_1010", "f1_1100", "f1_1111",
        "qbas_mean", "qbas_var", "smoothing_flag",
    ]
    assert len(rows) == 1 + 5  # steps 0..4
    config_text = (out / "config.txt").read_text()
    assert "# bornbench" in config_text and "# digest =" in config_text
    checkpoints = sorted((out / "checkpoints").glob("step_*.json"))
    assert [p.name for p in checkpoints] == ["step_000000.json", "step_000004.json"]


def test_train_rerun_byte_identical(tiny_run, tmp_path):
    config, out = tiny_run
    second = tmp_path / "run2"
    assert main(["train", "-c", str(config), "-o", str(second)]) == 0
    for name in ("metrics.csv", "theta_trajectory.csv", "config.txt", "final_theta.json"):
        assert (out / name).read_bytes() == (second / name).read_bytes()


def test_train_collision_refused(tiny_run):
    config, out = tiny_run
    assert main(["train", "-c", str(config), "-o", str(out)]) == 1
    assert main(["train", "-c", str(config), "-o", str(out), "--force"]) == 0


def test_train_invalid_config(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("d_c = 7\nn_layers = 1\n")
    assert main(["train", "-c", str(config)]) == 1
    config.write_text("d_c = 2\nn_layers = 1\nunknown_key = 5\n")
    assert main(["train", "-c", str(config)]) == 1


def test_usage_error_exit_code():
    assert main(["train"]) == 1  # missing required -c
    assert main(["embed", "--graph", "plaquette4"]) == 1  # neither --dc nor --edges


def test_seed_override(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["train", "-c", str(config), "-o", str(a), "--seed", "9"]) == 0
    assert main(["train", "-c", str(config), "-o", str(b), "--seed", "9"]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert "seed = 9" in (a / "config.txt").read_text()


def test_embed_outputs(capsys):
    assert main(["embed", "--dc", "4", "--graph", "plaquette4"]) == 0
    out = capsys.readouterr().out
    assert "EMBEDDABLE" in out and "NOT-EMBEDDABLE" not in out

    assert main(["embed", "--dc", "3", "--graph", "plaquette4"]) == 0
    out = capsys.readouterr().out
    assert "NOT-EMBEDDABLE" in out

    assert main(["embed", "--dc", "3", "--graph", "ladder2x3"]) == 0
    out = capsys.readouterr().out
    assert "EMBEDDABLE" in out
    assert "2 local, 1 non-local" in out

    assert main(["embed", "--edges", "0-1,2-3", "--graph", "plaquette4"]) == 0
    out = capsys.readouterr().out
    assert "EMBEDDABLE" in out


def test_embed_rejects_pixels_outside_the_image(capsys):
    ladder = ["embed", "--edges", "0-5,1-7", "--graph", "ladder2x4"]
    assert main(ladder) == 1  # the default image is 2x2
    captured = capsys.readouterr()
    assert "pixel 5 is outside the 2x2 image" in captured.err
    assert "non-local" not in captured.out
    assert main(ladder + ["--rows", "2", "--cols", "4"]) == 0
    assert "0 local, 2 non-local" in capsys.readouterr().out


def test_deploy_zero_noise_matches(tiny_run, tmp_path):
    _, out = tiny_run
    profile = tmp_path / "zero.profile"
    profile.write_text("")
    assert main(["deploy", str(out), "--noise", str(profile)]) == 0
    rows = read_csv(out / "deploy.csv")
    assert rows[0] == ["step", "kl_mean_noiseless", "kl_std_noiseless", "kl_mean_noisy", "kl_std_noisy"]
    for row in rows[1:]:
        clean_mean, clean_std = float(row[1]), float(row[2])
        noisy_mean, noisy_std = float(row[3]), float(row[4])
        assert abs(noisy_mean - clean_mean) <= 3 * (clean_std + noisy_std)
    # second run without --force is refused
    assert main(["deploy", str(out), "--noise", str(profile)]) == 1
    assert main(["deploy", str(out), "--noise", str(profile), "--force"]) == 0


def test_deploy_noise_degrades(tmp_path):
    # needs a circuit that converges below the near-uniform plateau, so use
    # two entangling layers; early random-init steps get the 3-sigma allowance
    config = tmp_path / "run.cfg"
    config.write_text(
        TINY_CONFIG.replace("n_steps = 4", "n_steps = 20")
        .replace("n_layers = 1", "n_layers = 2")
        .replace("n_shots_train = 256", "n_shots_train = 1024")
    )
    out = tmp_path / "run"
    assert main(["train", "-c", str(config), "-o", str(out)]) == 0
    profile = tmp_path / "noise.profile"
    profile.write_text(NOISE_PROFILE)
    assert main(["deploy", str(out), "--noise", str(profile)]) == 0
    rows = read_csv(out / "deploy.csv")[1:]
    worse = sum(
        float(r[3]) >= float(r[1]) - 3 * (float(r[2]) + float(r[4])) for r in rows
    )
    assert worse >= 0.9 * len(rows)
    assert float(rows[-1][3]) > float(rows[-1][1])  # converged step strictly degraded


def test_warmstart(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 20"))
    out = tmp_path / "run"
    assert main(["train", "-c", str(config), "-o", str(out)]) == 0
    profile = tmp_path / "noise.profile"
    profile.write_text(NOISE_PROFILE)

    ws_out = tmp_path / "ws"
    assert main(
        ["warmstart", str(out), "--step", "0", "--noise", str(profile), "-o", str(ws_out)]
    ) == 0
    rows = read_csv(ws_out / "warmstart_summary.csv")
    assert rows[0] == [
        "start_step", "steps",
        "kl_initial_mean", "kl_initial_std",
        "kl_final_mean", "kl_final_std",
        "kl_min_mean", "kl_min_std",
    ]
    initial, final = float(rows[1][2]), float(rows[1][4])
    assert final < initial  # training from random parameters improves under noise
    metrics = read_csv(ws_out / "metrics.csv")
    assert metrics[1][0] == "0" and metrics[-1][0] == "10"

    # resuming beyond the last checkpoint is an error
    assert main(
        ["warmstart", str(out), "--step", "15", "--noise", str(profile), "-o", str(tmp_path / "x")]
    ) == 1


def _noise_echo(run_dir):
    lines = (run_dir / "config.txt").read_text().splitlines()
    return [line for line in lines if line.startswith("noise_")]


def test_warmstart_noise_override_replaces_the_run_noise(tmp_path):
    (tmp_path / "moderate.profile").write_text(NOISE_PROFILE)
    config = tmp_path / "noisy.cfg"
    config.write_text(TINY_CONFIG + "noise_profile = moderate.profile\n")
    run = tmp_path / "run"
    assert main(["train", "-c", str(config), "-o", str(run)]) == 0
    ws = ["warmstart", str(run), "--step", "0", "--steps", "1"]
    strong = tmp_path / "strong.profile"
    strong.write_text("p2 = 0.05\n")
    only_p2 = [
        "noise_p1 = 0.0", "noise_p2 = 0.05", "noise_readout_flip_all = 0.0", "noise_t_damp = 0.0"
    ]

    # a profile given by -c replaces the run's inline noise
    over = tmp_path / "profile.cfg"
    over.write_text(f"noise_profile = {strong}\n")
    assert main(ws + ["-c", str(over), "-o", str(tmp_path / "ws1")]) == 0
    assert _noise_echo(tmp_path / "ws1") == only_p2

    # so do inline keys: noise_p1 is not kept from the run
    over = tmp_path / "inline.cfg"
    over.write_text("noise_p2 = 0.05\n")
    assert main(ws + ["-c", str(over), "-o", str(tmp_path / "ws2")]) == 0
    assert _noise_echo(tmp_path / "ws2") == only_p2

    # and --noise wins over -c
    cli_noise = ["--noise", str(tmp_path / "moderate.profile")]
    assert main(ws + ["-c", str(over), *cli_noise, "-o", str(tmp_path / "ws3")]) == 0
    assert _noise_echo(tmp_path / "ws3") == _noise_echo(run)


def test_warmstart_resolves_noise_profile_next_to_the_override_file(tiny_run, tmp_path):
    _, run = tiny_run
    overrides = tmp_path / "overrides"
    overrides.mkdir()
    (overrides / "z.profile").write_text("p1 = 0.01\n")
    (overrides / "over.cfg").write_text("noise_profile = z.profile\nlabel = zed\n")
    out = tmp_path / "ws"
    ws = ["warmstart", str(run), "--step", "0", "--steps", "1", "-c", str(overrides / "over.cfg")]
    assert main(ws + ["-o", str(out)]) == 0
    assert "noise_p1 = 0.01" in _noise_echo(out)
    assert "label = zed\n" in (out / "config.txt").read_text()


def test_shipped_lowrate_config(tmp_path):
    # the packaged slow-learning-rate run: after convergence the pairwise
    # circuit has learned four states but not the two checkerboards
    config = Path(__file__).parent.parent / "configs" / "dc2_L1_lowrate.cfg"
    out = tmp_path / "lowrate"
    assert main(["train", "-c", str(config), "-o", str(out)]) == 0
    rows = read_csv(out / "metrics.csv")
    header = rows[0]
    late = [r for r in rows[1:] if int(r[0]) >= 100]
    for column in ("f1_0101", "f1_1010"):
        values = [float(r[header.index(column)]) for r in late]
        assert np.mean(values) < 0.2
    for column in ("f1_0000", "f1_0011", "f1_1100", "f1_1111"):
        values = [float(r[header.index(column)]) for r in late]
        assert np.mean(values) > 0.8


def test_sweep_empty(tmp_path, capsys):
    sweep = tmp_path / "empty.sweep"
    sweep.write_text("# nothing\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 1  # header only


def test_sweep_full_grid_shape(tmp_path):
    # structural clone of the shipped 18-run grid at a tiny step count
    sweep = tmp_path / "grid.sweep"
    sweep.write_text(
        "d_c = 2 3 4\n"
        "n_layers = 1 2\n"
        "n_shots_train = 512 1024 2048\n"
        "n_steps = 2\n"
        "kl_shots = 256\n"
        "kl_repeats = 2\n"
        "seed = 0\n"
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 1 + 18
    header = rows[0]
    assert all(r[header.index("status")] == "ok" for r in rows[1:])
    combos = {
        (r[header.index("d_c")], r[header.index("n_layers")], r[header.index("n_shots_train")])
        for r in rows[1:]
    }
    assert len(combos) == 18


def test_sweep_grid(tmp_path):
    sweep = tmp_path / "grid.sweep"
    sweep.write_text(
        "d_c = 2 4\n"
        "n_layers = 1\n"
        "n_shots_train = 256\n"
        "n_steps = 3\n"
        "kl_shots = 256\n"
        "kl_repeats = 4\n"
        "seed = 100\n"
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out), "--jobs", "2"]) == 0
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 3
    header = rows[0]
    seed_col = header.index("seed")
    dc_col = header.index("d_c")
    assert [r[dc_col] for r in rows[1:]] == ["2", "4"]
    assert [r[seed_col] for r in rows[1:]] == ["100", "101"]  # per-row seeds recorded
    assert all(r[header.index("status")] == "ok" for r in rows[1:])
    assert (out / "row000" / "metrics.csv").exists()
    assert (out / "row001" / "metrics.csv").exists()


NOISY_SWEEP = (
    "d_c = 2\n"
    "n_layers = 1 2\n"
    "n_shots_train = 64\n"
    "n_steps = 1\n"
    "kl_shots = 64\n"
    "kl_repeats = 2\n"
    "noise_profile = moderate.profile\n"
)


def test_sweep_resolves_noise_profile_next_to_sweep_file(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "noisy.sweep").write_text(NOISY_SWEEP)
    (sub / "moderate.profile").write_text(NOISE_PROFILE)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["sweep", "-c", "../sub/noisy.sweep", "-o", "out"]) == 0
    rows = read_csv(elsewhere / "out" / "summary.csv")
    assert [r[rows[0].index("status")] for r in rows[1:]] == ["ok", "ok"]
    config = (elsewhere / "out" / "row000" / "config.txt").read_text()
    assert "noise_p2 = 0.02" in config


def test_sweep_exits_2_when_a_row_fails(tmp_path, capsys):
    sweep = tmp_path / "noisy.sweep"
    sweep.write_text(NOISY_SWEEP)  # no moderate.profile next to it
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 2
    rows = read_csv(out / "summary.csv")
    statuses = [r[rows[0].index("status")] for r in rows[1:]]
    assert len(statuses) == 2
    assert all(s.startswith("failed:") and "moderate.profile" in s for s in statuses)
    assert "row 0: failed" in capsys.readouterr().err


def test_sweep_fans_out_inline_noise_strength(tmp_path):
    sweep = tmp_path / "noise.sweep"
    sweep.write_text(NOISY_SWEEP.replace("n_layers = 1 2", "n_layers = 1").replace(
        "noise_profile = moderate.profile", "noise_p2 = 0 0.02"
    ))
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    assert [r[rows[0].index("status")] for r in rows[1:]] == ["ok", "ok"]
    assert "noise_p2 = 0.02" not in (out / "row000" / "config.txt").read_text()
    assert "noise_p2 = 0.02" in (out / "row001" / "config.txt").read_text()


def test_sweep_takes_edge_list_whole(tmp_path):
    sweep = tmp_path / "tree.sweep"
    sweep.write_text(
        "d_c = 3\n"
        "n_layers = 1\n"
        "n_shots_train = 64\n"
        "n_steps = 1\n"
        "kl_shots = 64\n"
        "kl_repeats = 2\n"
        "dc3_edges = 0-1, 0-2, 0-3\n"
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 2
    assert "dc3_edges = 0-1,0-2,0-3" in (out / "row000" / "config.txt").read_text()


def test_dc3_edges_must_list_three_edges(tmp_path, capsys):
    config = tmp_path / "tree.cfg"
    config.write_text(TINY_CONFIG.replace("d_c = 2", "d_c = 3") + "dc3_edges = 0-1,0-2\n")
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "run")]) == 1
    assert "exactly 3 edges" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_register_mismatch_fails_when_config_is_built(tmp_path, capsys):
    config = tmp_path / "wide.cfg"
    config.write_text(TINY_CONFIG + "n_cols = 3\n")
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "run")]) == 1
    message = "built-in entangling layers are defined on 4 qubits, got 6 for d_c = 2"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()

    sweep = tmp_path / "wide.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1") + "n_cols = 2 3\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 2
    rows = read_csv(out / "summary.csv")
    statuses = [r[rows[0].index("status")] for r in rows[1:]]
    assert statuses == ["ok", f"failed: {message}"]


def test_kernel_cap_fails_when_config_is_built(tmp_path, capsys):
    config = tmp_path / "big.cfg"
    config.write_text(
        TINY_CONFIG.replace("d_c = 2", "d_c = 0") + "n_rows = 4\nn_cols = 4\n"
    )
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "run")]) == 1
    assert "the MMD kernel is capped at 12" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_built_config_is_not_rebuilt(tmp_path, monkeypatch):
    """train, resume and deploy use the circuit and kernel the config built."""
    from bornbench import cli, mmd, training
    from bornbench.runio import read_run_config, write_run

    calls = []
    build_circuit = training.build_circuit
    kernel_init = mmd.KernelSpec.__post_init__

    def counted_build(*args, **kwargs):
        calls.append("circuit")
        return build_circuit(*args, **kwargs)

    def counted_kernel(self):
        calls.append("kernel")
        kernel_init(self)

    monkeypatch.setattr(training, "build_circuit", counted_build)
    monkeypatch.setattr(mmd.KernelSpec, "__post_init__", counted_kernel)
    config = training.RunConfig(
        d_c=3, n_layers=2, n_shots_train=64, n_steps=2, kl_shots=64, kl_repeats=2
    )
    assert calls == ["kernel", "circuit"]
    calls.clear()
    record = training.train(config)
    training.resume(config, record.checkpoints[-1], 1)
    assert calls == []

    run = write_run(tmp_path / "run", config, record)
    built = read_run_config(run)
    monkeypatch.setattr(cli, "read_run_config", lambda run_dir: built)
    profile = tmp_path / "noise.profile"
    profile.write_text(NOISE_PROFILE)
    calls.clear()
    assert main(["deploy", str(run), "--noise", str(profile)]) == 0
    assert calls == []


STD_FORM = "sigma_is_variance = false\n"
BAD_FLOATS = [
    ("sigma = 1e200\n" + STD_FORM, "sigma = 1e+200 gives the kernel denominator inf"),
    ("sigma = 1e-200\n" + STD_FORM, "sigma = 1e-200 gives the kernel denominator 0.0"),
    ("sigma = nan\n", "sigma must be finite and positive, got nan"),
    ("alpha = inf\n", "alpha must be finite and positive, got inf"),
    ("epsilon = inf\n", "epsilon must be finite and positive, got inf"),
]


@pytest.mark.parametrize("lines, message", BAD_FLOATS)
def test_bad_floats_fail_when_config_is_built(tmp_path, capsys, lines, message):
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_CONFIG.replace("alpha = 0.2\n", "") + lines)
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_bad_float_fails_its_sweep_row(tmp_path):
    sweep = tmp_path / "bad.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1") + "sigma = 0.1 nan\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 2
    rows = read_csv(out / "summary.csv")
    statuses = [r[rows[0].index("status")] for r in rows[1:]]
    assert statuses == ["ok", "failed: sigma must be finite and positive, got nan"]
    assert not (out / "row001").exists()


def test_overflowing_alpha_fails_with_a_named_error(tmp_path, capsys):
    # finite, so accepted at config time, but the Adam step leaves the float range
    config = tmp_path / "big.cfg"
    config.write_text(TINY_CONFIG.replace("alpha = 0.2", "alpha = 1e308"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "-c", str(config), "-o", str(tmp_path / "run")]) == 1
    assert "alpha = 1e+308 is too large" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "run").exists()


def test_readout_flip_outside_register_is_rejected(tiny_run, tmp_path, capsys):
    _, run = tiny_run
    message = "readout_flip_q9: no qubit 9 in a 4-qubit register"
    config = tmp_path / "flip.cfg"
    flip = "noise_readout_flip_q9 = 0.4\n"
    config.write_text(TINY_CONFIG + flip)
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "run9")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run9").exists()

    sweep = tmp_path / "flip.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1") + flip)
    assert main(["sweep", "-c", str(sweep), "-o", str(tmp_path / "sweep")]) == 2
    rows = read_csv(tmp_path / "sweep" / "summary.csv")
    assert [r[rows[0].index("status")] for r in rows[1:]] == [f"failed: {message}"]

    profile = tmp_path / "q9.profile"
    profile.write_text("readout_flip_q9 = 0.4\n")
    assert main(["deploy", str(run), "--noise", str(profile)]) == 1
    assert message in capsys.readouterr().err
    assert not (run / "deploy.csv").exists()
    warm = ["warmstart", str(run), "--step", "0", "--noise", str(profile)]
    assert main(warm + ["-o", str(tmp_path / "ws")]) == 1
    assert message in capsys.readouterr().err


def test_sweep_summary_bytes_do_not_depend_on_output_dir(tmp_path):
    sweep = tmp_path / "grid.sweep"
    sweep.write_text(
        TINY_CONFIG.replace("n_steps = 4", "n_steps = 1").replace("d_c = 2", "d_c = 2 4")
    )
    for name in ("a", "elsewhere"):
        assert main(["sweep", "-c", str(sweep), "-o", str(tmp_path / name)]) == 0
    summary = (tmp_path / "a" / "summary.csv").read_bytes()
    assert summary == (tmp_path / "elsewhere" / "summary.csv").read_bytes()
    assert summary.count(b",ok,") == 2
