"""Record the output checks in ``golden.json`` from the program as it is now.

    python3 perfbench/record.py

Run from the repository root.  For every config seed below ``POOL`` it runs the
digest-checked workloads once and stores their run-dir digests (and, for the
sweep, each summary.csv row's result columns); for the noisy workload it
stores the outcome probabilities at fixed angles.  Re-recording accepts the
program's current output as correct, so do it only on a commit whose output
is known to be right, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from run import Checkout, run_child
from workloads import GOLDEN, POOL, WORKLOADS, check_structure, run_digest, summary_rows

THETA_SEED = 20261017
N_THETAS = 4


def record_noisy(checkout: Checkout) -> dict:
    from bornbench import circuit_probabilities
    from bornbench.runio import load_config_file

    workload = WORKLOADS["train_noisy"]
    config = load_config_file(workload.write_inputs(checkout.root, checkout.work, 0))
    circuit = config.circuit()
    rng = np.random.default_rng(THETA_SEED)
    thetas = rng.uniform(0.0, 2.0 * np.pi, (N_THETAS, circuit.parameter_count))
    probs = [circuit_probabilities(circuit, t, config.noise).tolist() for t in thetas]
    return {"thetas": thetas.tolist(), "probs": probs}


def record_runs(checkout: Checkout, name: str) -> dict:
    workload = WORKLOADS[name]
    runs = {}
    for seed in range(POOL):
        config = workload.write_inputs(checkout.root, checkout.work, seed)
        out = checkout.work / f"{name}-{seed}"
        rep = run_child(checkout, workload.argv(config, out), False, f"{name}-{seed}", 600.0)
        if rep["code"] != 0:
            raise SystemExit(f"record.py: {name} seed {seed} exited {rep['code']}")
        steps = workload.n_steps(config)
        if workload.sweep:
            rows = summary_rows(out)
            dirs = [out / f"row{i:03d}" for i in range(len(rows))]
            problems = [p for i, d in enumerate(dirs) for p in check_structure(d, seed + i, steps // len(rows))]
            runs[str(seed)] = [[run_digest(d), row] for d, row in zip(dirs, rows)]
        else:
            problems = check_structure(out, seed, steps)
            runs[str(seed)] = run_digest(out)
        if problems:
            raise SystemExit(f"record.py: {name} seed {seed}: {problems}")
        shutil.rmtree(out)
        print(f"{name} seed {seed}: recorded", flush=True)
    return {"runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args()
    root = Path.cwd()
    checkout = Checkout(root, root / ".perfbench" / "results")
    checkout.check()
    checkout.work.mkdir(parents=True, exist_ok=True)
    golden = {}
    for name, workload in WORKLOADS.items():
        if workload.noise_profile is None:
            golden[name] = record_runs(checkout, name)
    golden["train_noisy"] = record_noisy(checkout)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    shutil.rmtree(checkout.work)
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
