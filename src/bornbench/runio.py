"""Every file a command reads or writes, and how it is read back.

Run configs (``load_config_file``) and sweep files (``read_sweep``, one
config per grid point) are ``key = value`` text, as are noise profiles
(``noise.load_noise``).

``train`` and ``warmstart`` write a run directory:

    <run>/config.txt               full config echo plus tool version and digest
    <run>/metrics.csv              one row per evaluated step
    <run>/theta_trajectory.csv     rotation angles at every step
    <run>/final_theta.json         angles after the last step
    <run>/checkpoints/step_NNNNNN.json
    <run>/warmstart_summary.csv    warmstart only: initial, final and min KL

``deploy`` adds ``<run>/deploy.csv`` (noiseless and noisy KL at every step),
and ``sweep`` writes ``<out>/summary.csv`` plus one run directory
``<out>/rowNNN`` per grid point.

Floats are written with ``repr`` (``fmt_float``) so files round-trip
bit-exactly and reruns with the same config digest and seed are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import shutil
from itertools import product
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .bas import bitstring
from .kv import format_kv, format_value, parse_kv_file, parse_value
from .noise import load_noise, noise_from_items
from .training import AdamState, Checkpoint, RunRecord, TrainingConfig
from .ansatz import parse_edge_list

CONFIG_FILE = "config.txt"
METRICS_FILE = "metrics.csv"
TRAJECTORY_FILE = "theta_trajectory.csv"
FINAL_THETA_FILE = "final_theta.json"
CHECKPOINT_DIR = "checkpoints"
WARMSTART_SUMMARY_FILE = "warmstart_summary.csv"
# every file a command writes into a run directory besides its checkpoints
RUN_FILES = (CONFIG_FILE, METRICS_FILE, TRAJECTORY_FILE, FINAL_THETA_FILE, WARMSTART_SUMMARY_FILE)
CHECKPOINT_VERSION = 1

# Declared type of every config field a file sets as one bool, int, float or
# str value; edge lists and noise have their own syntax.
_SCALAR_FIELDS = {
    name: kind
    for name, kind in get_type_hints(TrainingConfig).items()
    if kind in (bool, int, float, str)
}


def config_from_items(items: dict[str, str], base_dir: Path | None = None) -> TrainingConfig:
    """Build a TrainingConfig from key/value strings; unknown keys are errors.

    Noise is given either as ``noise_profile = <file>`` (resolved relative to
    ``base_dir``) or inline through ``noise_*`` keys, and either sets the
    whole ``noise`` field.
    """
    kwargs: dict = {}
    noise_items: dict[str, str] = {}
    noise_profile: str | None = None
    for key, value in items.items():
        if key == "noise_profile":
            noise_profile = value
        elif key.startswith("noise_"):
            noise_items[key[len("noise_"):]] = value
        elif key == "dc3_edges":
            kwargs[key] = parse_edge_list(value, key)
        elif key in _SCALAR_FIELDS:
            kwargs[key] = parse_value(key, value, _SCALAR_FIELDS[key])
        else:
            raise ValueError(f"unknown config key {key!r}")
    if noise_profile is not None:
        if noise_items:
            raise ValueError("give either noise_profile or inline noise_* keys, not both")
        kwargs["noise"] = load_noise(profile_path(items, base_dir))
    elif noise_items:
        kwargs["noise"] = noise_from_items(noise_items)
    if "d_c" not in kwargs or "n_layers" not in kwargs:
        raise ValueError("config must set d_c and n_layers")
    return TrainingConfig(**kwargs)


def profile_path(items: dict[str, str], base_dir: Path | None = None) -> Path | None:
    """The noise profile that config ``items`` name, relative to ``base_dir``
    unless absolute; None when they name none."""
    return Path(base_dir or "", items["noise_profile"]) if "noise_profile" in items else None


def files_read(path) -> list[Path]:
    """A config, sweep or override file and the noise profile it names."""
    path = Path(path)
    profile = profile_path(parse_kv_file(path), path.parent)
    return [path] if profile is None else [path, profile]


def load_config_file(path, seed: int | None = None) -> TrainingConfig:
    """The config a file describes, with ``seed`` in place of its own."""
    path = Path(path)
    items = parse_kv_file(path)
    if seed is not None:
        items["seed"] = format_value(seed)
    return config_from_items(items, base_dir=path.parent)


def _is_sweep_axis(key: str) -> bool:
    """Whether a sweep value with several tokens fans out: bool, int and float
    fields and the inline ``noise_*`` strengths do; strings, edge lists and
    ``noise_profile`` are taken whole."""
    if key.startswith("noise_"):
        return key != "noise_profile"
    return _SCALAR_FIELDS.get(key) in (bool, int, float)


def read_sweep(path) -> list[dict[str, str]]:
    """Each grid row's config items from a sweep file, in row order (none
    for an empty file).  The axes are the keys ``_is_sweep_axis`` fans out,
    row i gets ``seed + i`` unless ``seed`` is itself an axis, and the label
    ``rowNNN`` unless the file sets one."""
    path = Path(path)
    items = parse_kv_file(path)
    if not items:
        return []
    axes = {k: v.split() for k, v in items.items() if _is_sweep_axis(k) and len(v.split()) > 1}
    seed = None if "seed" in axes else parse_value(f"{path}: seed", items.get("seed", "0"), int)
    rows = []
    for index, combo in enumerate(product(*axes.values())):
        row = {**items, **dict(zip(axes, combo))}
        if seed is not None:
            row["seed"] = format_value(seed + index)
        row.setdefault("label", f"row{index:03d}")
        rows.append(row)
    return rows


def config_echo_text(config: TrainingConfig) -> str:
    header = f"# bornbench {__version__}\n# digest = {config.digest()}\n"
    return header + format_kv(config.kv_items())


def metric_columns(config: TrainingConfig) -> list[str]:
    f1_cols = [f"f1_{bitstring(s, config.n_qubits)}" for s in config.target().support]
    return ["step", "loss", "kl_mean", "kl_std", *f1_cols, "qbas_mean", "qbas_var", "smoothing_flag"]


def fmt_float(value: float | None) -> str:
    """A float as every file writes it: ``repr``, or empty when missing."""
    return "" if value is None else repr(float(value))


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_trajectory(run_dir) -> tuple[list[int], np.ndarray]:
    data = np.loadtxt(Path(run_dir) / TRAJECTORY_FILE, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0].astype(int).tolist(), data[:, 1:]


def checkpoint_path(run_dir, step: int) -> Path:
    return Path(run_dir) / CHECKPOINT_DIR / f"step_{step:06d}.json"


def refuse_inputs(out, inputs, kind: str = "directory") -> None:
    """Refuse an output ``kind`` (a directory or a file) that is or holds
    one of the ``inputs``, the paths the command reads."""
    for path in inputs:
        if Path(path).resolve().is_relative_to(Path(out).resolve()):
            raise FileExistsError(f"output {kind} {out} is or holds the input {path}")


def check_run_dir(out_dir, force: bool = False, inputs=()) -> Path:
    """``out_dir``, refused if it is or holds one of the ``inputs``
    (``refuse_inputs``), if it is not a directory, or if it holds files and
    ``force`` is off.  Commands call this before they train; ``--force``
    replaces the files only when ``write_run`` writes the new ones."""
    out_dir = Path(out_dir)
    refuse_inputs(out_dir, inputs)
    if out_dir.exists() and not out_dir.is_dir():
        raise FileExistsError(f"output path {out_dir} exists and is not a directory")
    if not force and out_dir.exists() and any(out_dir.iterdir()):
        raise FileExistsError(
            f"output directory {out_dir} already exists; pass --force to overwrite"
        )
    return out_dir


def prepare_run_dir(out_dir, force: bool = False, inputs=()) -> Path:
    out_dir = check_run_dir(out_dir, force, inputs)
    if force and out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_run(out_dir, record: RunRecord, force: bool = False) -> Path:
    config = record.config
    out_dir = prepare_run_dir(out_dir, force=force)
    (out_dir / CONFIG_FILE).write_text(config_echo_text(config))
    states = config.target().support
    metric_rows = [
        [
            str(m.step),
            *map(fmt_float, (m.loss, m.kl_mean, m.kl_std)),
            *(fmt_float(m.f1.get(s, 0.0)) for s in states),
            *map(fmt_float, (m.qbas_mean, m.qbas_var)),
            "1" if m.smoothing_used else "0",
        ]
        for m in record.metrics
    ]
    write_csv(out_dir / METRICS_FILE, metric_columns(config), metric_rows)
    n_params = record.theta_trajectory.shape[1]
    trajectory = zip(record.steps, record.theta_trajectory)
    write_csv(
        out_dir / TRAJECTORY_FILE,
        ["step", *(f"theta_{i}" for i in range(n_params))],
        ([str(step), *map(fmt_float, theta)] for step, theta in trajectory),
    )
    final = {"step": record.final_step, "theta": record.final_theta.tolist()}
    (out_dir / FINAL_THETA_FILE).write_text(json.dumps(final) + "\n")
    (out_dir / CHECKPOINT_DIR).mkdir(exist_ok=True)
    for checkpoint in record.checkpoints:
        payload = {
            "version": CHECKPOINT_VERSION,
            "step": checkpoint.step,
            "theta": checkpoint.theta.tolist(),
            "adam_t": checkpoint.adam.t,
            "adam_m": checkpoint.adam.m.tolist(),
            "adam_v": checkpoint.adam.v.tolist(),
            "seed": checkpoint.seed,
            "config_digest": checkpoint.config_digest,
        }
        path = checkpoint_path(out_dir, checkpoint.step)
        path.write_text(json.dumps(payload, indent=1) + "\n")
    return out_dir


def read_checkpoint(run_dir, step: int) -> Checkpoint:
    path = checkpoint_path(run_dir, step)
    if not path.exists():
        available = sorted(
            int(p.stem.split("_")[1]) for p in (Path(run_dir) / CHECKPOINT_DIR).glob("step_*.json")
        )
        raise FileNotFoundError(
            f"no checkpoint at step {step} in {run_dir}; available: {available}"
        )
    payload = json.loads(path.read_text())
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r} in {path}")
    m, v, theta = (np.asarray(payload[key], dtype=float) for key in ("adam_m", "adam_v", "theta"))
    adam = AdamState(int(payload["adam_t"]), m, v)
    digest = str(payload["config_digest"])
    return Checkpoint(int(payload["step"]), theta, adam, int(payload["seed"]), digest)
