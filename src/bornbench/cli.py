"""Command-line experiment harness.

Subcommands: ``train`` (run a config), ``deploy`` (re-evaluate a trained
trajectory under a noise profile), ``warmstart`` (run ``train`` from a
checkpoint, usually with noise enabled), ``embed`` (place an edge list, or
the union of a whole circuit's entangling layers, on a coupling graph),
``sweep`` (grid of training runs, run one at a time and each reported as it
finishes; ``--jobs`` is accepted so that existing command lines keep
working, and changes nothing) and ``bas`` (list the target states).  No
command writes into a directory that is, or holds, a file or run it reads.
Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .ansatz import (
    build_circuit,
    classify_pixel_pair,
    embed_layer,
    layer_from_edges,
    load_coupling_graph,
    parse_edge_list,
    preset_graph,
)
from .bas import IMAGE, bas_target_distribution, bitstring, enumerate_bas
from .kv import format_value, parse_kv_file
from .metrics import kl_sampling_summary
from .noise import load_noise
from .runio import (
    CHECKPOINT_DIR,
    CONFIG_FILE,
    RUN_FILES,
    WARMSTART_SUMMARY_FILE,
    check_run_dir,
    config_from_items,
    files_read,
    fmt_float,
    load_config_file,
    prepare_run_dir,
    profile_path,
    read_checkpoint,
    read_sweep,
    read_trajectory,
    refuse_inputs,
    write_csv,
    write_run,
)
from .sim import circuit_probabilities, generators, stream_seeds
# rng_stream is unused here, but perfbench traces it at this module
from .training import TAG_DEPLOY, TrainingConfig, rng_stream, train  # noqa: F401


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise CliError(f"{self.prog}: {message}")


def cmd_train(args) -> int:
    config = load_config_file(args.config, seed=args.seed)
    out = args.out or Path("runs") / config.label
    out_dir = check_run_dir(out, args.force, files_read(args.config))
    record = train(config)
    path = write_run(out_dir, record, force=args.force)
    best = min(m.kl_mean for m in record.metrics)
    print(f"{config.label}: {len(record.steps) - 1} steps, min mean KL {best:.4f}")
    print(f"run written to {path}")
    return 0


def cmd_deploy(args) -> int:
    run_dir = Path(args.run_dir)
    config = load_config_file(run_dir / CONFIG_FILE)
    noise = load_noise(args.noise)
    out_path = run_dir / args.out
    refuse_inputs(out_path, [*files_read(run_dir / CONFIG_FILE), args.noise], "file")
    resolved, own = out_path.resolve(), [(run_dir / name).resolve() for name in RUN_FILES]
    if resolved in own or resolved.is_relative_to((run_dir / CHECKPOINT_DIR).resolve()):
        raise FileExistsError(f"{out_path} is the run's own file or under its {CHECKPOINT_DIR}/")
    if not out_path.parent.is_dir():
        raise FileNotFoundError(f"{out_path}: {out_path.parent} is not a directory")
    if out_path.is_dir():
        raise FileExistsError(f"{out_path} is a directory, not a CSV file")
    if out_path.exists() and not args.force:
        raise FileExistsError(f"{out_path} already exists; pass --force to overwrite")
    steps, thetas = read_trajectory(run_dir)
    circuit = config.circuit()
    target = config.target()
    both = (circuit_probabilities(circuit, thetas), circuit_probabilities(circuit, thetas, noise))
    # TAG_DEPLOY's last stream coordinate: 0 noiseless, 1 noisy
    keys = [(config.seed, TAG_DEPLOY, step, stream) for step in steps for stream in (0, 1)]
    seeds = iter(stream_seeds(keys, [config.kl_repeats] * len(keys)))
    rows = []
    for step, *pair in zip(steps, *both):
        row = [str(step)]
        for probs in pair:
            kl = kl_sampling_summary(target, probs, generators(next(seeds)), config.kl_shots)
            row += [fmt_float(kl.mean), fmt_float(kl.std)]
        rows.append(row)
    header = ["step", "kl_mean_noiseless", "kl_std_noiseless", "kl_mean_noisy", "kl_std_noisy"]
    write_csv(out_path, header, rows)
    print(f"deploy evaluation written to {out_path}")
    return 0


def _override(items: dict[str, str], overrides: dict[str, str], base_dir: Path) -> None:
    """Put ``overrides``, read from a file in ``base_dir``, into config ``items``;
    noise among them replaces the items' noise."""
    if any(key.startswith("noise_") for key in overrides):
        for key in [key for key in items if key.startswith("noise_")]:
            del items[key]
    items.update(overrides)
    if "noise_profile" in overrides:
        items["noise_profile"] = str(profile_path(overrides, base_dir))


def cmd_warmstart(args) -> int:
    run_dir = Path(args.run_dir)
    items = parse_kv_file(run_dir / CONFIG_FILE)
    checkpoint = read_checkpoint(run_dir, args.step)
    items["label"] = f"{items.get('label', TrainingConfig.label)}-ws{args.step}"  # unless -c sets one
    if args.config:
        _override(items, parse_kv_file(args.config), Path(args.config).parent)
    if args.noise:
        _override(items, {"noise_profile": args.noise}, Path())
    items["n_steps"] = format_value(args.steps)
    new_config = config_from_items(items)
    read = [p for p in (run_dir, args.config, items.get("noise_profile")) if p]
    out_dir = check_run_dir(args.out or run_dir.parent / new_config.label, args.force, read)

    record = train(new_config, checkpoint)
    write_run(out_dir, record, force=args.force)
    best = min(record.metrics, key=lambda m: m.kl_mean)
    named = {"initial": record.metrics[0], "final": record.metrics[-1], "min": best}
    header = ["start_step", "steps", *(f"kl_{n}_{s}" for n in named for s in ("mean", "std"))]
    row = [str(args.step), str(new_config.n_steps)]
    row += [fmt_float(x) for m in named.values() for x in (m.kl_mean, m.kl_std)]
    write_csv(out_dir / WARMSTART_SUMMARY_FILE, header, [row])
    print(
        f"S={args.step}: "
        + ", ".join(f"{n} {m.kl_mean:.3f}+-{m.kl_std:.3f}" for n, m in named.items())
    )
    print(f"run written to {out_dir}")
    return 0


def cmd_embed(args) -> int:
    if args.dc is None:
        layers = [("layer", layer_from_edges(parse_edge_list(args.edges, "--edges")))]
    else:
        first, second = build_circuit(
            IMAGE.n_bits, args.dc, 2, bas_target_distribution(IMAGE)
        ).entangler_layers
        layers = [("layer (depth 1)", first)]
        if second != first:  # d_c = 2 alternates matchings, and qubits do not move between layers
            layers.append(("layers (depth >= 2)", layer_from_edges(first.edges + second.edges)))
    path = Path(args.graph)
    graph = load_coupling_graph(path) if path.exists() else preset_graph(args.graph)
    for name, layer in layers:
        kinds = [classify_pixel_pair(c, t) for c, t in layer.edges]
        print(f"{name}: d_c={layer.d_c}, edges " + ", ".join(f"{c}->{t}" for c, t in layer.edges))
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


def _run_sweep_row(config: TrainingConfig, row_dir: Path):
    record = train(config)
    write_run(row_dir, record)
    return min(record.metrics, key=lambda m: m.kl_mean)


# config keys echoed in each row of a sweep's summary.csv
SUMMARY_KEYS = ("label", "d_c", "n_layers", "n_shots_train", "seed")


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise CliError(f"sweep: --jobs must be at least 1, got {args.jobs}")
    sweep_path = Path(args.config)
    configs = []
    for index, items in enumerate(read_sweep(sweep_path)):
        try:
            configs.append(config_from_items(items, base_dir=sweep_path.parent))
        except (ValueError, FileNotFoundError, KeyError) as exc:
            raise CliError(f"sweep: {sweep_path}: row {index}: {exc}") from None
    out_dir = prepare_run_dir(args.out or "sweep", args.force, files_read(sweep_path))
    rows, failed = [], False
    for index, config in enumerate(configs):
        used = dict(config.kv_items())
        row = [str(index), *(used[key] for key in SUMMARY_KEYS)]
        try:
            best = _run_sweep_row(config, out_dir / f"row{index:03d}")
        except Exception as exc:  # a run-time failure fails its row; keep sweeping
            failed = True
            rows.append(row + [f"failed: {exc}", "", "", ""])
            print(f"row {index}: failed: {exc}", file=sys.stderr)
            continue
        rows.append(row + ["ok", fmt_float(best.kl_mean), fmt_float(best.kl_std), str(best.step)])
        keys = " ".join(f"{key}={used[key]}" for key in SUMMARY_KEYS)
        kl = f"min mean KL {best.kl_mean:.3f}+-{best.kl_std:.3f} at step {best.step}"
        print(f"row {index}: {keys}: {kl}", flush=True)

    header = ["row", *SUMMARY_KEYS, "status", "min_kl_mean", "min_kl_std", "min_kl_step"]
    write_csv(out_dir / "summary.csv", header, rows)
    print(f"summary written to {out_dir / 'summary.csv'}")
    return 2 if failed else 0


def cmd_bas(args) -> int:
    for state in enumerate_bas(IMAGE):
        print(bitstring(state, IMAGE.n_bits))
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

    p = sub.add_parser("warmstart", help="run train from a checkpoint, optionally under noise")
    p.add_argument("run_dir")
    p.add_argument("--step", type=int, required=True, help="checkpoint step to resume from")
    p.add_argument("--noise", help="noise profile file")
    p.add_argument("--steps", type=int, default=10, help="number of further training steps")
    p.add_argument("-c", "--config", help="extra config overrides (key = value file)")
    p.add_argument("-o", "--out", help="output directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_warmstart)

    p = sub.add_parser("embed", help="place a layer, or a whole circuit's layers, on a coupling graph")
    layer = p.add_mutually_exclusive_group(required=True)
    layer.add_argument("--dc", type=int, choices=(2, 3, 4), help="built-in layer density")
    layer.add_argument("--edges", help="explicit edge list, e.g. 0-1,0-2,0-3")
    p.add_argument("--graph", required=True, help="preset (plaquette4, ladder2xK) or edge-list file")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("sweep", help="grid of training runs from one sweep file")
    p.add_argument(
        "-c", "--config", required=True, help="sweep file (list-valued int, float and bool keys fan out)"
    )
    p.add_argument("-o", "--out", help="output directory (default ./sweep)")
    p.add_argument("--jobs", type=int, default=1, help="kept for existing command lines; changes nothing")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bas", help="print the six 2x2 bars-and-stripes states")
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
