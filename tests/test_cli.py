import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from bornbench.cli import build_parser, main

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
MODERATE = Path(__file__).resolve().parent.parent / "configs" / "noise" / "moderate.profile"

# SHA-256 of what `deploy` and `warmstart --step 4 --steps 3` write for tiny_run
# under the moderate profile.
GOLDEN_DEPLOY = "6f2bec3f81d231cea2e7be749a8316dd73ac93eef300c095175e8e2e05916b37"
GOLDEN_WARMSTART = {
    "checkpoints/step_000004.json": "ea7f73060da40b4051815d21d755e68511b7338c27f50f0723314392185124a9",
    "checkpoints/step_000007.json": "7df38246faf590819f32840b693824664985307cb335ec6ef1ea3e3e38ab7e59",
    "config.txt": "9ceca944845aa69f7cbbc981291700ca2b6239d0ff9650a8609b56e55ee54e78",
    "final_theta.json": "3b0bef92276ff0d4dda00003a01c82c7ae78c8f42960efc05176309efbed6b22",
    "metrics.csv": "16c4c238b3c80c0e13fed7a6c985d79554a71b873bb0c460cf87c32ca7148690",
    "theta_trajectory.csv": "5056bd71c60713393c9cf9c1dcdcbb05486abc2548e236480f2d153826d6f217",
    "warmstart_summary.csv": "495147498da2562773f4c9b49bd676e4793a00541e48496a29f2da43e7964582",
}


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
    assert main(["bas"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0000", "0011", "0101", "1010", "1100", "1111"]
    # the image is 2x2, so there is no shape to choose
    assert main(["bas", "--rows", "2", "--cols", "2"]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --rows 2 --cols 2" in captured.err and captured.out == ""


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


def spy_on_training(monkeypatch, out):
    """Record each call of the command line's ``train``, with whether it
    resumed a checkpoint and whether ``out`` still held its metrics at that
    moment."""
    from bornbench import cli

    calls = []
    real = cli.train

    def spied(config, checkpoint=None):
        calls.append((checkpoint is not None, (out / "metrics.csv").exists()))
        return real(config, checkpoint)

    monkeypatch.setattr(cli, "train", spied)
    return calls


def test_train_collision_refused(tiny_run, monkeypatch):
    config, out = tiny_run
    calls = spy_on_training(monkeypatch, out)
    assert main(["train", "-c", str(config), "-o", str(out)]) == 1
    assert calls == []  # refused before training
    assert main(["train", "-c", str(config), "-o", str(out), "--force"]) == 0
    assert calls == [(False, True)]  # the old run stays until the new one is written


def test_warmstart_collision_refused(tiny_run, tmp_path, monkeypatch):
    _, run = tiny_run
    ws = ["warmstart", str(run), "--step", "0", "--steps", "1", "-o", str(tmp_path / "ws")]
    assert main(ws) == 0
    calls = spy_on_training(monkeypatch, tmp_path / "ws")
    assert main(ws) == 1
    assert calls == []
    assert main(ws + ["--force"]) == 0
    assert calls == [(True, True)]


def snapshot(path):
    """Every directory and file at or under ``path``, with the files' bytes."""
    paths = [path, *path.rglob("*")] if path.is_dir() else [path]
    return {p: p.read_bytes() if p.is_file() else None for p in paths if p.exists()}


# deploy --out paths that are, or resolve to, a run's own files
RUN_OWN_FILES = [
    "config.txt",
    "metrics.csv",
    "theta_trajectory.csv",
    "final_theta.json",
    "warmstart_summary.csv",
    "checkpoints/step_000000.json",
    "checkpoints/d.csv",
    "checkpoints/../metrics.csv",
]


@pytest.mark.parametrize(
    "command",
    [
        "train",
        "warmstart",
        "sweep",
        "deploy",
        "deploy_no_parent",
        "deploy_file_parent",
        *(f"deploy_over:{name}" for name in RUN_OWN_FILES),
    ],
)
def test_an_output_path_of_the_wrong_kind_is_refused_before_work(
    command, tiny_run, tmp_path, monkeypatch, capsys
):
    """A file where a run or sweep directory goes, or a directory where
    deploy's CSV goes, or a CSV whose parent is missing or a file, or one of
    the run's own files or a path under its checkpoints, exits 1 naming it,
    with or without --force, before anything is trained or simulated, and is
    left as it was."""
    from bornbench import cli

    config, run = tiny_run
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    deploy = ["deploy", str(run), "--noise", str(MODERATE), "--out"]
    over = command.startswith("deploy_over:")
    argv = deploy + [command.partition(":")[2]] if over else {
        "train": ["train", "-c", str(config), "-o", str(taken)],
        "warmstart": ["warmstart", str(run), "--step", "0", "-o", str(taken)],
        "sweep": ["sweep", "-c", str(config), "-o", str(taken)],
        "deploy": deploy + ["checkpoints"],
        "deploy_no_parent": deploy + ["missing/d.csv"],
        "deploy_file_parent": deploy + ["config.txt/d.csv"],
    }[command]
    if command.startswith("deploy"):
        taken = run / argv[-1]
    kept = taken.parent if command == "deploy_file_parent" else run if over else taken
    before = snapshot(run) if command == "deploy_no_parent" else snapshot(kept)
    calls = []
    for name in ("train", "circuit_probabilities"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    for force in ([], ["--force"]):
        capsys.readouterr()
        assert main(argv + force) == 1
        assert str(taken) in capsys.readouterr().err
    assert calls == []
    if command == "deploy_no_parent":
        assert not taken.parent.exists() and snapshot(run) == before
    else:
        assert before and snapshot(kept) == before


def test_train_invalid_config(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("d_c = 7\nn_layers = 1\n")
    assert main(["train", "-c", str(config)]) == 1
    config.write_text("d_c = 2\nn_layers = 1\nunknown_key = 5\n")
    assert main(["train", "-c", str(config)]) == 1


def test_an_indefinite_kernel_exits_1_before_any_directory(tmp_path, capsys):
    config = tmp_path / "hamming.cfg"
    config.write_text("d_c = 2\nn_layers = 1\nsigma = 0.5\nkernel_distance = hamming-squared\n")
    out = tmp_path / "runs" / "hamming"
    assert main(["train", "-c", str(config), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "sigma = 0.5 with kernel_distance = hamming-squared" in err
    assert "not positive semi-definite" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hamming.cfg"]


def test_usage_error_exit_code():
    assert main(["train"]) == 1  # missing required -c
    assert main(["embed", "--graph", "plaquette4"]) == 1  # neither --dc nor --edges
    assert main(["embed", "--dc", "2", "--edges", "0-1", "--graph", "plaquette4"]) == 1  # both


def test_seed_override(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["train", "-c", str(config), "-o", str(a), "--seed", "9"]) == 0
    assert main(["train", "-c", str(config), "-o", str(b), "--seed", "9"]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert "seed = 9" in (a / "config.txt").read_text()


def test_train_seed_builds_the_config_once(tmp_path, monkeypatch):
    """``train --seed`` puts the seed into the file's items, so the config is
    built once and equals a file that sets that seed itself."""
    from bornbench import training

    calls = []
    build_circuit = training.build_circuit

    def counted_build(*args, **kwargs):
        calls.append(args)
        return build_circuit(*args, **kwargs)

    monkeypatch.setattr(training, "build_circuit", counted_build)
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "a"), "--seed", "5"]) == 0
    assert len(calls) == 1
    config.write_text(TINY_CONFIG.replace("seed = 3", "seed = 5"))
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "b")]) == 0
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.*"))
    assert len(files) > 4
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_warmstart_builds_the_config_once(tiny_run, tmp_path, monkeypatch):
    """``warmstart`` puts its overrides into the run's config items, so the
    config is built once."""
    from bornbench import training

    calls = []
    build_circuit = training.build_circuit

    def counted_build(*args, **kwargs):
        calls.append(args)
        return build_circuit(*args, **kwargs)

    monkeypatch.setattr(training, "build_circuit", counted_build)
    _, run = tiny_run
    (tmp_path / "over.cfg").write_text("alpha = 0.1\nnoise_p1 = 0.01\n")
    ws = ["warmstart", str(run), "--step", "0", "--steps", "1", "-c", str(tmp_path / "over.cfg")]
    assert main(ws + ["-o", str(tmp_path / "ws")]) == 0
    assert len(calls) == 1
    text = (tmp_path / "ws" / "config.txt").read_text()
    assert "label = tiny-ws0\n" in text and "alpha = 0.1\n" in text and "n_steps = 1\n" in text


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


def test_embed_places_a_circuit_once_for_all_its_layers(tmp_path, capsys):
    """Qubits do not move between layers, so d_c=2 from depth 2 on must place
    both matchings at once: on a bowtie (two triangles sharing vertex 2) each
    matching embeds, but their union, the 4-cycle, does not."""
    bowtie = tmp_path / "bowtie.txt"
    bowtie.write_text("n 5\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4\n")
    outs = {}
    for dc in ("2", "3", "4"):
        assert main(["embed", "--dc", dc, "--graph", str(bowtie)]) == 0
        outs[dc] = capsys.readouterr().out
    verdicts = {
        dc: [line.split()[0] for line in out.splitlines() if "EMBEDDABLE into bowtie" in line]
        for dc, out in outs.items()
    }
    assert verdicts == {
        "2": ["EMBEDDABLE", "NOT-EMBEDDABLE"],
        "3": ["EMBEDDABLE"],
        "4": ["NOT-EMBEDDABLE"],
    }
    assert "layer (depth 1): d_c=2, edges 0->1, 2->3\n" in outs["2"]
    assert "layers (depth >= 2): d_c=4, edges 0->1, 2->3, 0->2, 1->3\n" in outs["2"]


def test_readme_command_examples_parse():
    """Every ``bornbench`` line of README's command-line block parses, so the
    examples cannot name a flag the parser lacks."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("bornbench ")]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_embed_rejects_pixels_outside_the_image(capsys):
    ladder = ["embed", "--edges", "0-5,1-7", "--graph", "ladder2x4"]
    assert main(ladder) == 1  # the default image is 2x2
    captured = capsys.readouterr()
    assert "pixel 5 is outside the 2x2 image" in captured.err
    assert "non-local" not in captured.out
    # the pixels are those of the 2x2 image; the graph may be larger
    assert main(["embed", "--edges", "0-1,1-3", "--graph", "ladder2x4"]) == 0
    assert "2 local, 0 non-local" in capsys.readouterr().out


def test_embed_rejects_a_built_in_layer_off_four_qubits(capsys):
    """The built-in layers live on the 4 qubits of the 2x2 image, as in
    train: there is no other image to place them on."""
    for layer in (["--dc", "3"], ["--edges", "0-5,1-7"]):
        assert main(["embed", *layer, "--rows", "3", "--cols", "4", "--graph", "ladder2x4"]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --rows 3 --cols 4" in captured.err and captured.out == ""


def test_bad_edge_tokens_are_named(tmp_path, capsys):
    config = tmp_path / "tree.cfg"
    config.write_text(TINY_CONFIG.replace("d_c = 2", "d_c = 3") + "dc3_edges = 0-1,0-x,1-3\n")
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "run")]) == 1
    assert "dc3_edges: edge '0-x': expected int, got 'x'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()

    assert main(["embed", "--edges", "0-1,x-2", "--graph", "plaquette4"]) == 1
    captured = capsys.readouterr()
    assert "--edges: edge 'x-2': expected int, got 'x'" in captured.err
    assert captured.out == ""


def test_bad_graph_file_line_is_named(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("# two rungs\nn 4\n0 1\n1 z\n")
    assert main(["embed", "--dc", "2", "--graph", str(graph)]) == 1
    captured = capsys.readouterr()
    assert f"{graph}:4: expected int, got 'z'" in captured.err
    assert "EMBEDDABLE" not in captured.out


def test_unknown_noise_key_is_named_before_its_value(tiny_run, tmp_path, capsys):
    config_path, run = tiny_run
    config = tmp_path / "label.cfg"
    config.write_text(TINY_CONFIG + "noise_label = x\n")
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "run2")]) == 1
    assert "unknown noise key 'label'" in capsys.readouterr().err
    assert not (tmp_path / "run2").exists()

    # a run config given where a noise profile belongs: its first key is label
    assert main(["deploy", str(run), "--noise", str(config_path)]) == 1
    assert "unknown noise key 'label'" in capsys.readouterr().err
    assert not (run / "deploy.csv").exists()


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


def sha_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_deploy_and_warmstart_bytes(tiny_run, tmp_path):
    _, run = tiny_run
    assert main(["deploy", str(run), "--noise", str(MODERATE)]) == 0
    assert sha_of(run / "deploy.csv") == GOLDEN_DEPLOY
    ws = tmp_path / "ws"
    assert main(
        ["warmstart", str(run), "--step", "4", "--steps", "3", "--noise", str(MODERATE), "-o", str(ws)]
    ) == 0
    files = {p.relative_to(ws).as_posix(): sha_of(p) for p in ws.rglob("*") if p.is_file()}
    assert files == GOLDEN_WARMSTART


def test_checkpoint_version_is_checked(tiny_run, tmp_path, capsys):
    from bornbench.runio import CHECKPOINT_VERSION, read_checkpoint

    _, run = tiny_run
    path = run / "checkpoints" / "step_000004.json"
    payload = json.loads(path.read_text())
    assert payload["version"] == CHECKPOINT_VERSION
    read_checkpoint(run, 4)
    for version in (CHECKPOINT_VERSION + 1, "1", None):
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version!r}"):
            read_checkpoint(run, 4)
        out = tmp_path / f"ws{version}"
        assert main(["warmstart", str(run), "--step", "4", "-o", str(out)]) == 1
        assert "unsupported checkpoint version" in capsys.readouterr().err
        assert not out.exists()


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


def test_sweep_config_error_exits_1_before_output(tmp_path, capsys):
    sweep = tmp_path / "noisy.sweep"
    sweep.write_text(NOISY_SWEEP)  # no moderate.profile next to it
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{sweep}: row 0: " in err and "moderate.profile" in err
    assert not out.exists()


def test_sweep_config_error_leaves_a_forced_sweep_alone(tmp_path, capsys):
    sweep = tmp_path / "grid.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1"))
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert out / "summary.csv" in before and out / "row000" / "metrics.csv" in before

    sweep.write_text(TINY_CONFIG.replace("d_c = 2", "d_c = 2 7"))
    capsys.readouterr()
    assert main(["sweep", "-c", str(sweep), "-o", str(out), "--force"]) == 1
    assert f"{sweep}: row 1: d_c must be one of 0, 2, 3, 4, got 7" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_sweep_run_time_error_fails_only_its_row(tmp_path, capsys):
    sweep = tmp_path / "alpha.sweep"
    sweep.write_text(TINY_CONFIG.replace("alpha = 0.2", "alpha = 0.2 1e308"))
    out = tmp_path / "sweep"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = read_csv(out / "summary.csv")
    statuses = [r[rows[0].index("status")] for r in rows[1:]]
    assert statuses[0] == "ok"
    assert statuses[1].startswith("failed: alpha = 1e+308 is too large")
    assert "row 1: failed: alpha = 1e+308" in capsys.readouterr().err
    assert (out / "row000" / "metrics.csv").exists()


def test_sweep_over_seeds(tmp_path):
    sweep = tmp_path / "seeds.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1").replace("seed = 3", "seed = 3 5"))
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    assert [r[rows[0].index("seed")] for r in rows[1:]] == ["3", "5"]
    for row, seed in enumerate(("3", "5")):
        assert f"\nseed = {seed}\n" in (out / f"row{row:03d}" / "config.txt").read_text()


def test_sweep_builds_every_config_before_a_row_runs(tmp_path, monkeypatch):
    """The order perfbench's ``runio.config`` and ``cli.sweep.row`` spans see."""
    from bornbench import cli

    calls = []
    config_from_items, run_sweep_row = cli.config_from_items, cli._run_sweep_row

    def recorded_config(*args, **kwargs):
        calls.append("config")
        return config_from_items(*args, **kwargs)

    def recorded_row(*args, **kwargs):
        calls.append("row")
        return run_sweep_row(*args, **kwargs)

    monkeypatch.setattr(cli, "config_from_items", recorded_config)
    monkeypatch.setattr(cli, "_run_sweep_row", recorded_row)
    sweep = tmp_path / "grid.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1").replace("d_c = 2", "d_c = 2 4"))
    assert main(["sweep", "-c", str(sweep), "-o", str(tmp_path / "sweep")]) == 0
    assert calls == ["config", "config", "row", "row"]


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
    """A train config, a sweep row (named by its index) and a warmstart
    override that set another image are refused, exit 1 naming both keys,
    before any directory is made."""
    config = tmp_path / "wide.cfg"
    config.write_text(TINY_CONFIG + "n_cols = 3\n")
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "run")]) == 1
    message = "n_rows = 2, n_cols = 3: the image is 2x2, so both must be 2"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()

    sweep = tmp_path / "wide.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1") + "n_cols = 2 3\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 1
    assert f"{sweep}: row 1: {message}" in capsys.readouterr().err
    assert not out.exists()

    config.write_text(TINY_CONFIG)
    run = tmp_path / "tiny"
    assert main(["train", "-c", str(config), "-o", str(run)]) == 0
    override = tmp_path / "over.cfg"
    override.write_text("n_rows = 1\n")
    before = snapshot(tmp_path)
    warm = ["warmstart", str(run), "--step", "0", "--steps", "1", "-c", str(override), "--force"]
    assert main(warm) == 1
    assert "n_rows = 1, n_cols = 2: the image is 2x2, so both must be 2" in capsys.readouterr().err
    assert snapshot(tmp_path) == before


# Registers that once passed a config: a 12-qubit product circuit, noiseless
# (accepted) or noisy (the density path's cap), 16 qubits (the kernel's cap),
# and the 1- and 2-qubit product circuits.
OTHER_IMAGES = {
    "3x4": "n_rows = 3\nn_cols = 4\n",
    "3x4_p1": "n_rows = 3\nn_cols = 4\nnoise_p1 = 0.01\n",
    "3x4_readout_only": "n_rows = 3\nn_cols = 4\nnoise_readout_flip_all = 0.01\n",
    "4x4": "n_rows = 4\nn_cols = 4\n",
    "1x1": "n_rows = 1\nn_cols = 1\n",
    "1x2": "n_rows = 1\nn_cols = 2\n",
}


@pytest.mark.parametrize("name", sorted(OTHER_IMAGES))
def test_an_image_other_than_2x2_is_refused_at_config_time(tmp_path, capsys, name, monkeypatch):
    from bornbench import cli

    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("trained a refused config"))
    rows, cols = name.split("_")[0].split("x")
    message = f"n_rows = {rows}, n_cols = {cols}: the image is 2x2, so both must be 2"
    config = tmp_path / "other.cfg"
    config.write_text(TINY_CONFIG.replace("d_c = 2", "d_c = 0") + OTHER_IMAGES[name])
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "run")]) == 1
    assert f"bornbench: {message}\n" == capsys.readouterr().err
    sweep = tmp_path / "other.sweep"
    sweep.write_text(config.read_text().replace("n_steps = 4", "n_steps = 1 2"))
    assert main(["sweep", "-c", str(sweep), "-o", str(tmp_path / "sweep")]) == 1
    assert f"sweep: {sweep}: row 0: {message}\n" == capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["other.cfg", "other.sweep"]


def test_a_built_config_is_not_rebuilt(tmp_path, monkeypatch):
    """train, from scratch and from a checkpoint, and deploy use the circuit
    and kernel the config built."""
    from bornbench import cli, mmd, training
    from bornbench.runio import CONFIG_FILE, load_config_file, write_run

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
    config = training.TrainingConfig(
        d_c=3, n_layers=2, n_shots_train=64, n_steps=2, kl_shots=64, kl_repeats=2
    )
    assert calls == ["kernel", "circuit"]
    calls.clear()
    record = training.train(config)
    training.train(config, record.checkpoints[-1])
    assert calls == []

    run = write_run(tmp_path / "run", record)
    built = load_config_file(run / CONFIG_FILE)
    monkeypatch.setattr(cli, "load_config_file", lambda path: built)
    profile = tmp_path / "noise.profile"
    profile.write_text(NOISE_PROFILE)
    calls.clear()
    assert main(["deploy", str(run), "--noise", str(profile)]) == 0
    assert calls == []


STD_FORM = "sigma_is_variance = false\n"
BAD_FLOATS = [
    ("sigma = 1e200\n" + STD_FORM, "sigma = 1e+200 gives the kernel denominator inf"),
    ("sigma = 1e-200\n" + STD_FORM, "sigma = 1e-200 gives the kernel denominator 0.0"),
    ("sigma = 1e30\n", "sigma = 1e+30 gives a kernel whose every entry is 1.0"),
    ("sigma = 1e15\n" + STD_FORM, "sigma = 1000000000000000.0 gives a kernel whose every entry is 1.0"),
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


def test_bad_float_fails_its_sweep_row(tmp_path, capsys):
    sweep = tmp_path / "bad.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1") + "sigma = 0.1 nan\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 1
    message = "row 1: sigma must be finite and positive, got nan"
    assert f"{sweep}: {message}" in capsys.readouterr().err
    assert not out.exists()


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


def test_overflowing_alpha_with_qbas_fails_and_leaves_no_thread(tmp_path, capsys):
    config = tmp_path / "big.cfg"
    config.write_text(TINY_CONFIG.replace("alpha = 0.2", "alpha = 1e308") + "qbas_enabled = true\n")
    threads = threading.active_count()
    assert main(["train", "-c", str(config), "-o", str(tmp_path / "run")]) == 1
    assert "alpha = 1e+308 is too large" in capsys.readouterr().err
    assert threading.active_count() == threads
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
    assert main(["sweep", "-c", str(sweep), "-o", str(tmp_path / "sweep")]) == 1
    assert f"{sweep}: row 0: {message}" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()

    profile = tmp_path / "q9.profile"
    profile.write_text("readout_flip_q9 = 0.4\n")
    assert main(["deploy", str(run), "--noise", str(profile)]) == 1
    assert message in capsys.readouterr().err
    assert not (run / "deploy.csv").exists()
    warm = ["warmstart", str(run), "--step", "0", "--noise", str(profile)]
    assert main(warm + ["-o", str(tmp_path / "ws")]) == 1
    assert message in capsys.readouterr().err


def test_sweep_output_does_not_depend_on_jobs(tmp_path):
    # rows run one after another, each scoring qBAS on its own run pool
    sweep = tmp_path / "grid.sweep"
    sweep.write_text(
        TINY_CONFIG.replace("n_steps = 4", "n_steps = 2")
        .replace("d_c = 2", "d_c = 2 4")
        .replace("n_layers = 1", "n_layers = 1 2")
        + "qbas_enabled = true\nqbas_resamples = 200\n"
    )
    for jobs in ("1", "2"):
        assert main(["sweep", "-c", str(sweep), "-o", str(tmp_path / jobs), "--jobs", jobs]) == 0
    summary = (tmp_path / "1" / "summary.csv").read_bytes()
    assert summary == (tmp_path / "2" / "summary.csv").read_bytes()
    assert summary.count(b",ok,") == 4
    for row in range(4):
        for name in ("metrics.csv", "theta_trajectory.csv", "final_theta.json"):
            one = (tmp_path / "1" / f"row{row:03d}" / name).read_bytes()
            assert one == (tmp_path / "2" / f"row{row:03d}" / name).read_bytes()
        with open(tmp_path / "1" / f"row{row:03d}" / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3 and all(r["qbas_mean"] and r["qbas_var"] for r in rows)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    sweep = tmp_path / "grid.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1"))
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out), "--jobs", jobs]) == 1
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_a_sweep_with_jobs_starts_no_pool(tmp_path):
    # rows run one at a time on the calling thread, whatever --jobs says
    sweep = tmp_path / "grid.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1").replace("d_c = 2", "d_c = 2 4"))
    argv = ["sweep", "-c", str(sweep), "-o", str(tmp_path / "out"), "--jobs", "2"]
    code = (
        "import sys\n"
        "from bornbench.cli import main\n"
        f"assert main({argv!r}) == 0\n"
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
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("line, axis", [("seed = 3", "seed = 3 5"), ("d_c = 2", "d_c = 2 4")])
def test_a_sweep_reports_each_row_in_row_order(line, axis, tmp_path, capsys):
    sweep = tmp_path / "grid.sweep"
    sweep.write_text(TINY_CONFIG.replace("n_steps = 4", "n_steps = 1").replace(line, axis))
    out = tmp_path / "sweep"
    assert main(["sweep", "-c", str(sweep), "-o", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    header, *rows = read_csv(out / "summary.csv")
    assert len(rows) == 2 and printed[2:] == [f"summary written to {out / 'summary.csv'}"]
    key = axis.split()[0]
    for text, row in zip(printed, rows):
        assert text.startswith(f"row {row[0]}: ") and f" {key}={row[header.index(key)]}" in text
        assert f"min mean KL {float(row[header.index('min_kl_mean')]):.3f}+-" in text


@pytest.mark.parametrize("label", ["", ".", "..", "a/b", "/"])
def test_train_refuses_a_label_that_is_not_one_directory(label, tmp_path, monkeypatch, capsys):
    """``train`` puts a run in runs/<label> and --force removes what is
    there, so an empty label or ``.`` would remove every run and ``..`` the
    working directory; such a label exits 1 before any directory is made
    or removed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs" / "keep").mkdir(parents=True)
    (tmp_path / "runs" / "keep" / "metrics.csv").write_text("keep\n")
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_CONFIG.replace("label = tiny", f"label = {label}"))
    before = snapshot(tmp_path)
    assert main(["train", "-c", str(config), "--force"]) == 1
    assert f"label must name one directory, not {label!r}" in capsys.readouterr().err
    assert snapshot(tmp_path) == before


def test_warmstart_refuses_a_label_override_that_leaves_the_run(tmp_path, capsys):
    # the default output is <run>/../<label>, which --force would remove
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    run = tmp_path / "runs" / "tiny"
    assert main(["train", "-c", str(config), "-o", str(run)]) == 0
    (tmp_path / "runs" / "keep").mkdir()
    (tmp_path / "runs" / "keep" / "metrics.csv").write_text("keep\n")
    override = tmp_path / "over.cfg"
    override.write_text("label = ..\n")
    before = snapshot(tmp_path)
    warm = ["warmstart", str(run), "--step", "0", "--steps", "1", "-c", str(override), "--force"]
    assert main(warm) == 1
    assert "label must name one directory, not '..'" in capsys.readouterr().err
    assert snapshot(tmp_path) == before


# (argv, the input the refusal names), relative to a tree with a noisy
# config and its profile in d/, a config in e/ naming ../d/p.profile, and
# runs a and b in runs/
OUTPUT_OVER_INPUT = {
    "train_config": ("train -c d/x.cfg -o d", "d/x.cfg"),
    "train_profile": ("train -c e/y.cfg -o d", "e/../d/p.profile"),
    "train_default_out": ("train -c runs/a/config.txt", "runs/a/config.txt"),
    "warmstart_parent": ("warmstart runs/a --step 0 --steps 1 -o runs", "runs/a"),
    "warmstart_source": ("warmstart runs/a --step 0 --steps 1 -o runs/a", "runs/a"),
    "warmstart_override": ("warmstart runs/a --step 0 -c d/x.cfg -o d", "d/x.cfg"),
    "warmstart_override_profile": ("warmstart runs/a --step 0 -c e/y.cfg -o d", "e/../d/p.profile"),
    "warmstart_noise": ("warmstart runs/a --step 0 --noise d/p.profile -o d", "d/p.profile"),
    "sweep": ("sweep -c d/x.cfg -o d", "d/x.cfg"),
    "sweep_profile": ("sweep -c e/y.cfg -o d", "e/../d/p.profile"),
}


@pytest.mark.parametrize("case", OUTPUT_OVER_INPUT)
def test_an_output_that_is_or_holds_an_input_is_refused(case, tmp_path, monkeypatch, capsys):
    """--force replaces the output directory, so one that is, or holds, a
    file or run the command reads exits 1 naming both, with or without
    --force, before anything is trained or removed."""
    from bornbench import cli

    monkeypatch.chdir(tmp_path)
    for name, text in [
        ("d/x.cfg", TINY_CONFIG.replace("n_steps = 4", "n_steps = 1") + "noise_profile = p.profile\n"),
        ("d/p.profile", NOISE_PROFILE),
        ("e/y.cfg", TINY_CONFIG.replace("n_steps = 4", "n_steps = 1") + "noise_profile = ../d/p.profile\n"),
        ("runs/b/metrics.csv", "keep\n"),
    ]:
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        Path(name).write_text(text)
    Path("a.cfg").write_text(TINY_CONFIG.replace("label = tiny", "label = a"))
    assert main(["train", "-c", "a.cfg"]) == 0  # into runs/a
    command, read = OUTPUT_OVER_INPUT[case]
    out = command.split(" -o ")[1] if " -o " in command else "runs/a"
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args: calls.append(args))
    before = snapshot(tmp_path)
    for force in ([], ["--force"]):
        capsys.readouterr()
        assert main(command.split() + force) == 1
        assert f"output directory {out} is or holds the input {read}" in capsys.readouterr().err
    assert calls == []
    assert snapshot(tmp_path) == before


def test_deploy_refuses_an_out_that_is_its_noise_profile(tiny_run, tmp_path, monkeypatch, capsys):
    """deploy's --out, a path in the run, that resolves to the --noise
    profile it reads exits 1 naming both, with or without --force, before
    anything is simulated, and the profile keeps its bytes."""
    from bornbench import cli

    _, run = tiny_run
    inside, outside = run / "p.profile", tmp_path / "p.profile"
    for profile in (inside, outside):
        profile.write_text(MODERATE.read_text())
    calls = []
    monkeypatch.setattr(cli, "circuit_probabilities", lambda *args: calls.append(args))
    before = snapshot(tmp_path)
    for profile, out in [(inside, "p.profile"), (inside, "checkpoints/../p.profile"), (outside, "../p.profile")]:
        for force in ([], ["--force"]):
            capsys.readouterr()
            assert main(["deploy", str(run), "--noise", str(profile), "--out", out, *force]) == 1
            assert f"output file {run / out} is or holds the input {profile}" in capsys.readouterr().err
    assert calls == []
    assert snapshot(tmp_path) == before


def test_importing_the_command_line_loads_only_what_it_uses():
    # only a qBAS run loads concurrent.futures (and with it logging), when
    # it starts; statistics would bring fractions and decimal
    unused = ["concurrent.futures", "logging", "statistics", "fractions", "decimal"]
    code = f"import sys, bornbench.cli; print([m for m in {unused!r} if m in sys.modules])"
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.stdout.strip() == "[]"


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
