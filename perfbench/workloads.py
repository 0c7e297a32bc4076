"""The four workloads: the config files each one generates from a seed, the
CLI command it runs, and the checks on what that command writes.

Every run dir is checked against SHA-256 digests recorded in
``golden.json`` (see ``record.py``); the noisy workload, whose bytes a
reassociated density-matrix path may legitimately change, is checked through
its outcome probabilities at fixed angles instead.  A workload seed is folded
into the ``POOL`` recorded config seeds, so every run can be checked exactly;
seed 0 reproduces the shipped configs.

Configs are read and written with the program's own ``bornbench.kv``, which
``run.Checkout.check`` makes importable from the checkout being measured.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")
POOL = 32  # config seeds 0..POOL-1 are recorded in golden.json
PROBS_TOLERANCE = 1e-12
RUN_FILES = ("metrics.csv", "theta_trajectory.csv", "final_theta.json")
# summary.csv columns that are results of a row; run_dir depends on where the
# output went, and columns a later version adds are not part of the contract.
SUMMARY_COLUMNS = (
    "row", "label", "d_c", "n_layers", "n_shots_train", "seed", "status",
    "min_kl_mean", "min_kl_std", "min_kl_step",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    base: str | None  # shipped config the generated one starts from
    overrides: dict = field(default_factory=dict)
    sweep: bool = False
    noise_profile: str | None = None

    def config_seed(self, seed: int) -> int:
        return seed % POOL

    def write_inputs(self, root: Path, work: Path, seed: int) -> Path:
        """Write this workload's config (and noise profile) into ``work``."""
        from bornbench.kv import format_kv, parse_kv_file

        items = parse_kv_file(root / self.base) if self.base else {}
        items.update(self.overrides)
        items["seed"] = str(self.config_seed(seed))
        if self.noise_profile:
            profile = root / self.noise_profile
            (work / profile.name).write_text(profile.read_text())
            items["noise_profile"] = profile.name
        path = work / f"{self.name}.cfg"
        path.write_text(format_kv(items.items()))
        return path

    def argv(self, config: Path, out: Path) -> list[str]:
        if self.sweep:
            return ["sweep", "-c", str(config), "-o", str(out), "--jobs", str(nproc())]
        return ["train", "-c", str(config), "-o", str(out)]

    def n_steps(self, config: Path) -> int:
        """Training steps one command runs, summed over sweep rows."""
        from bornbench.kv import parse_kv_file

        items = parse_kv_file(config)
        rows = math.prod(len(v.split()) for v in items.values())
        return int(items["n_steps"]) * rows


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_clean", "configs/dc2_L2_2048.cfg"),
        Workload(
            "train_noisy",
            None,
            {"label": "noisy_dc4_L2_2048", "d_c": "4", "n_layers": "2",
             "n_shots_train": "2048", "n_steps": "4", "alpha": "0.2"},
            noise_profile="configs/noise/moderate.profile",
        ),
        Workload("train_qbas", "configs/qbas_dc4_L2.cfg", {"n_steps": "20"}),
        Workload("sweep_grid", "configs/sweep_full_grid.cfg", {"n_steps": "8"}, sweep=True),
    )
}


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_digest(run_dir: Path) -> str:
    """One digest over the byte-identical files of a run dir."""
    run_dir = Path(run_dir)
    names = list(RUN_FILES)
    names += sorted(f"checkpoints/{p.name}" for p in (run_dir / "checkpoints").iterdir())
    lines = "".join(f"{name} {file_digest(run_dir / name)}\n" for name in names)
    return hashlib.sha256(lines.encode()).hexdigest()


def summary_rows(sweep_dir: Path) -> list[str]:
    """Digest of each summary.csv row's result columns, in row order."""
    with open(Path(sweep_dir) / "summary.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [
        hashlib.sha256(",".join(row[c] for c in SUMMARY_COLUMNS).encode()).hexdigest()
        for row in rows
    ]


def final_kl(run_dir: Path) -> float:
    with open(Path(run_dir) / "metrics.csv", newline="") as handle:
        return float(list(csv.DictReader(handle))[-1]["kl_mean"])


def check_structure(run_dir: Path, seed: int, n_steps: int) -> list[str]:
    """Checks that need no recorded digest: the files exist and agree with
    each other, the first angles are the seed's initialization, and KL is
    finite.  Returns the problems found."""
    run_dir = Path(run_dir)
    problems = []
    for name in RUN_FILES:
        if not (run_dir / name).is_file():
            problems.append(f"{name} missing")
    if problems:
        return problems
    with open(run_dir / "theta_trajectory.csv", newline="") as handle:
        trajectory = [[float(x) for x in row[1:]] for row in list(csv.reader(handle))[1:]]
    if len(trajectory) != n_steps + 1:
        problems.append(f"trajectory has {len(trajectory)} rows, expected {n_steps + 1}")
    # TAG_INIT = 0: initial angles are uniform on [0, 2 pi) from stream (seed, 0)
    init = np.random.default_rng(np.random.SeedSequence((seed, 0))).uniform(
        0.0, 2.0 * np.pi, len(trajectory[0])
    )
    if trajectory[0] != init.tolist():
        problems.append("initial angles differ from the seed's initialization")
    final = json.loads((run_dir / "final_theta.json").read_text())
    if final["theta"] != trajectory[-1] or final["step"] != len(trajectory) - 1:
        problems.append("final_theta.json differs from the last trajectory row")
    if not any((run_dir / "checkpoints").glob("*")):
        problems.append("no checkpoints")
    kl = final_kl(run_dir)
    if not (math.isfinite(kl) and kl >= 0.0):
        problems.append(f"final KL {kl} is not a finite nonnegative number")
    return problems


def check_noisy_probs(config: Path, golden: dict) -> list[str]:
    """The program's outcome probabilities at the recorded angles, under the
    workload's noise, must match the recorded ones to PROBS_TOLERANCE."""
    from bornbench import circuit_probabilities
    from bornbench.runio import load_config_file

    cfg = load_config_file(config)
    circuit = cfg.circuit()
    problems = []
    for theta, expected in zip(golden["thetas"], golden["probs"]):
        probs = circuit_probabilities(circuit, np.asarray(theta), cfg.noise)
        deviation = float(np.max(np.abs(np.asarray(probs) - np.asarray(expected))))
        if not deviation <= PROBS_TOLERANCE:
            problems.append(f"noisy probabilities deviate by {deviation:.3g}")
    return problems
