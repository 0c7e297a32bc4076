"""Command-line experiment harness.

Subcommands: ``train`` (run a config), ``deploy`` (re-evaluate a trained
trajectory under a noise profile), ``warmstart`` (resume a checkpoint, usually
with noise enabled), ``embed`` (map an entangling layer onto a coupling
graph), ``sweep`` (grid of training runs) and ``bas`` (list the target
states).  Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import product
from pathlib import Path

from . import __version__
from .ansatz import (
    entangler_dc2,
    entangler_dc4,
    chow_liu_layer,
    classify_pixel_pair,
    embed_layer,
    layer_from_edges,
    load_coupling_graph,
    parse_edge_list,
    preset_graph,
)
from .bas import ImageShape, bas_target_distribution, bitstring, enumerate_bas
from .kv import parse_kv_file
from .metrics import kl_sampling_summary
from .noise import load_noise
from .runio import (
    config_from_items,
    is_sweep_axis,
    load_config_file,
    prepare_run_dir,
    read_checkpoint,
    read_run_config,
    read_trajectory,
    write_run,
)
from .sim import circuit_probabilities
from .training import TAG_DEPLOY, resume, rng_stream, train


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise CliError(f"{self.prog}: {message}")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    return repr(float(value))


def cmd_train(args) -> int:
    config = load_config_file(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out_dir = Path(args.out) if args.out else Path("runs") / config.label
    record = train(config)
    path = write_run(out_dir, config, record, force=args.force)
    best = min(m.kl_mean for m in record.metrics)
    print(f"{config.label}: {len(record.steps) - 1} steps, min mean KL {best:.4f}")
    print(f"run written to {path}")
    return 0


def cmd_deploy(args) -> int:
    run_dir = Path(args.run_dir)
    config = read_run_config(run_dir)
    noise = load_noise(args.noise)
    out_path = run_dir / args.out
    if out_path.exists() and not args.force:
        raise FileExistsError(f"{out_path} already exists; pass --force to overwrite")
    steps, thetas = read_trajectory(run_dir)
    circuit = config.circuit()
    target = config.target()
    clean_probs = circuit_probabilities(circuit, thetas)
    noisy_probs = circuit_probabilities(circuit, thetas, noise)
    rows = []
    for step, clean_row, noisy_row in zip(steps, clean_probs, noisy_probs):
        clean = kl_sampling_summary(
            target,
            clean_row,
            rng_stream(config.seed, TAG_DEPLOY, step, 0),
            n_repeats=config.kl_repeats,
            n_shots=config.kl_shots,
        )
        noisy = kl_sampling_summary(
            target,
            noisy_row,
            rng_stream(config.seed, TAG_DEPLOY, step, 1),
            n_repeats=config.kl_repeats,
            n_shots=config.kl_shots,
        )
        rows.append(
            [
                str(step),
                _fmt(clean.mean),
                _fmt(clean.std),
                _fmt(noisy.mean),
                _fmt(noisy.std),
            ]
        )
    header = ["step", "kl_mean_noiseless", "kl_std_noiseless", "kl_mean_noisy", "kl_std_noisy"]
    _write_csv(out_path, header, rows)
    print(f"deploy evaluation written to {out_path}")
    return 0


def cmd_warmstart(args) -> int:
    run_dir = Path(args.run_dir)
    config = read_run_config(run_dir)
    checkpoint = read_checkpoint(run_dir, args.step)
    items = dict(config.kv_items())
    items["label"] = f"{config.label}-ws{args.step}"  # unless -c sets one
    if args.config:
        items.update(parse_kv_file(args.config))
    if args.noise:
        items = {k: v for k, v in items.items() if not k.startswith("noise_")}
        items.update(
            (f"noise_{k}", v) for k, v in load_noise(args.noise).kv_items()
        )
    items["n_steps"] = str(args.steps)
    new_config = config_from_items(items, base_dir=run_dir)

    record = resume(new_config, checkpoint, args.steps)
    out_dir = Path(args.out) if args.out else run_dir.parent / new_config.label
    out_dir = write_run(out_dir, new_config, record, force=args.force)

    initial = record.metrics[0]
    final = record.metrics[-1]
    best = min(record.metrics, key=lambda m: m.kl_mean)
    header = [
        "start_step",
        "steps",
        "kl_initial_mean",
        "kl_initial_std",
        "kl_final_mean",
        "kl_final_std",
        "kl_min_mean",
        "kl_min_std",
    ]
    row = [
        str(args.step),
        str(args.steps),
        _fmt(initial.kl_mean),
        _fmt(initial.kl_std),
        _fmt(final.kl_mean),
        _fmt(final.kl_std),
        _fmt(best.kl_mean),
        _fmt(best.kl_std),
    ]
    _write_csv(out_dir / "warmstart_summary.csv", header, [row])
    print(
        f"S={args.step}: initial {initial.kl_mean:.3f}+-{initial.kl_std:.3f}, "
        f"final {final.kl_mean:.3f}+-{final.kl_std:.3f}, "
        f"min {best.kl_mean:.3f}+-{best.kl_std:.3f}"
    )
    print(f"run written to {out_dir}")
    return 0


def _resolve_graph(spec: str):
    path = Path(spec)
    if path.exists():
        return load_coupling_graph(path)
    return preset_graph(spec)


def cmd_embed(args) -> int:
    if args.edges:
        layer = layer_from_edges(parse_edge_list(args.edges))
    elif args.dc == 2:
        layer = entangler_dc2(args.layer_index)
    elif args.dc == 4:
        layer = entangler_dc4()
    elif args.dc == 3:
        layer = chow_liu_layer(bas_target_distribution(ImageShape(2, 2)))
    else:
        raise CliError("embed: give --dc {2,3,4} or --edges")
    graph = _resolve_graph(args.graph)

    shape = ImageShape(args.rows, args.cols)
    kinds = [classify_pixel_pair(shape, c, t) for c, t in layer.edges]
    print(f"layer: d_c={layer.d_c}, edges " + ", ".join(f"{c}->{t}" for c, t in layer.edges))
    print(
        f"connections: {kinds.count('local')} local, {kinds.count('non-local')} non-local"
        + " (" + ", ".join(f"{c}->{t} {k}" for (c, t), k in zip(layer.edges, kinds)) + ")"
    )
    mapping = embed_layer(layer, graph)
    if mapping is None:
        print(f"NOT-EMBEDDABLE into {graph.name or 'graph'}")
    else:
        assignment = ", ".join(f"{l}->{p}" for l, p in sorted(mapping.items()))
        print(f"EMBEDDABLE into {graph.name or 'graph'}: {assignment}")
    return 0


def _run_sweep_row(
    index: int, items: dict[str, str], out_dir: Path, force: bool, base_dir: Path
):
    config = config_from_items(items, base_dir=base_dir)
    row_dir = out_dir / f"row{index:03d}"
    record = train(config)
    write_run(row_dir, config, record, force=force)
    best = min(record.metrics, key=lambda m: m.kl_mean)
    return config, best


def cmd_sweep(args) -> int:
    sweep_path = Path(args.config)
    items = parse_kv_file(sweep_path)
    out_dir = prepare_run_dir(args.out or "sweep", force=args.force)

    header = [
        "row",
        "label",
        "d_c",
        "n_layers",
        "n_shots_train",
        "seed",
        "status",
        "min_kl_mean",
        "min_kl_std",
        "min_kl_step",
    ]
    if not items:
        _write_csv(out_dir / "summary.csv", header, [])
        print("empty sweep; nothing to run")
        return 0

    # values such as an edge list are taken whole even when they contain spaces
    axes = {k: v.split() for k, v in items.items() if is_sweep_axis(k) and len(v.split()) > 1}
    fixed = {k: v for k, v in items.items() if k not in axes}
    explicit_seed_axis = "seed" in axes
    base_seed = int(fixed.get("seed", "0"))
    combos = list(product(*axes.values())) if axes else [()]

    def build_items(index: int, combo) -> dict[str, str]:
        row = dict(fixed)
        row.update(zip(axes.keys(), combo))
        if not explicit_seed_axis:
            row["seed"] = str(base_seed + index)
        row.setdefault("label", f"row{index:03d}")
        return row

    def run_row(index: int):
        row_items = build_items(index, combos[index])
        try:
            config, best = _run_sweep_row(
                index, row_items, out_dir, args.force, sweep_path.parent
            )
            return index, config, best, "ok"
        except Exception as exc:  # report per-row, keep sweeping
            return index, row_items, None, f"failed: {exc}"

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_row, range(len(combos))))
    else:
        results = [run_row(i) for i in range(len(combos))]

    rows = []
    table: dict[tuple[int, int], dict[int, str]] = {}
    for index, config, best, status in sorted(results):
        if status == "ok":
            rows.append(
                [
                    str(index),
                    config.label,
                    str(config.d_c),
                    str(config.n_layers),
                    str(config.n_shots_train),
                    str(config.seed),
                    status,
                    _fmt(best.kl_mean),
                    _fmt(best.kl_std),
                    str(best.step),
                ]
            )
            cell = f"{best.kl_mean:.3f}+-{best.kl_std:.3f}"
            table.setdefault((config.n_layers, config.n_shots_train), {})[config.d_c] = cell
        else:
            items_used = config  # failed rows carry their raw key/value items
            rows.append(
                [
                    str(index),
                    items_used.get("label", ""),
                    items_used.get("d_c", ""),
                    items_used.get("n_layers", ""),
                    items_used.get("n_shots_train", ""),
                    items_used.get("seed", ""),
                    status,
                    "",
                    "",
                    "",
                ]
            )
            print(f"row {index}: {status}", file=sys.stderr)

    _write_csv(out_dir / "summary.csv", header, rows)
    if table:
        dcs = sorted({dc for cells in table.values() for dc in cells})
        print("min mean KL by (L, n_shots) x d_c:")
        print("  L  n_shots  " + "  ".join(f"d_c={dc:<12}" for dc in dcs))
        for (layers, shots) in sorted(table):
            cells = table[(layers, shots)]
            print(
                f"  {layers}  {shots:<7}  "
                + "  ".join(f"{cells.get(dc, '-'):<16}" for dc in dcs)
            )
    print(f"summary written to {out_dir / 'summary.csv'}")
    return 2 if any(status != "ok" for *_, status in results) else 0


def cmd_bas(args) -> int:
    shape = ImageShape(args.rows, args.cols)
    for state in enumerate_bas(shape):
        print(bitstring(state, shape.n_bits))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bornbench", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bornbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one configuration")
    p.add_argument("-c", "--config", required=True, help="run config file")
    p.add_argument("-o", "--out", help="output directory (default runs/<label>)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--force", action="store_true", help="overwrite an existing run directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("deploy", help="re-evaluate a trained trajectory under noise")
    p.add_argument("run_dir", help="directory written by 'train'")
    p.add_argument("--noise", required=True, help="noise profile file")
    p.add_argument("--out", default="deploy.csv", help="output CSV name inside the run dir")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("warmstart", help="resume a checkpoint, optionally under noise")
    p.add_argument("run_dir")
    p.add_argument("--step", type=int, required=True, help="checkpoint step to resume from")
    p.add_argument("--noise", help="noise profile file")
    p.add_argument("--steps", type=int, default=10, help="number of further training steps")
    p.add_argument("-c", "--config", help="extra config overrides (key = value file)")
    p.add_argument("-o", "--out", help="output directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_warmstart)

    p = sub.add_parser("embed", help="map an entangling layer onto a coupling graph")
    p.add_argument("--dc", type=int, choices=(2, 3, 4), help="built-in layer density")
    p.add_argument("--edges", help="explicit edge list, e.g. 0-1,0-2,0-3")
    p.add_argument("--layer-index", type=int, default=0, help="which 2-CNOT matching (parity)")
    p.add_argument("--graph", required=True, help="preset (plaquette4, ladder2xK) or edge-list file")
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=2)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("sweep", help="grid of training runs from one sweep file")
    p.add_argument(
        "-c", "--config", required=True, help="sweep file (list-valued int, float and bool keys fan out)"
    )
    p.add_argument("-o", "--out", help="output directory (default ./sweep)")
    p.add_argument("--jobs", type=int, default=1, help="concurrent runs")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bas", help="print the bars-and-stripes states")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.set_defaults(func=cmd_bas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, FileExistsError, KeyError) as exc:
        print(f"bornbench: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # unexpected: runtime failure
        print(f"bornbench: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
