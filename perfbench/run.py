"""bornbench benchmark: run one workload through the CLI and report metrics.

    python3 perfbench/run.py --workload train_clean --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the repository root.  Each repetition is a fresh process
(``child.py``) running ``bornbench.cli.main`` on configs generated from the
seed, one at a time.  Repetitions run while they fit in ``--seconds`` (at
least ``MIN_REPS``), and every repetition's output is checked.  With
``--trace 0`` the last stdout line holds the end-to-end metrics (medians over
repetitions); with ``--trace 1`` traced and untraced repetitions alternate
and it holds the per-layer metrics (medians over traced repetitions) and the
tracing overhead.  During each untraced repetition this process pauses the
program every 50 ms to time a reference round (reference.py); the rounds
scale the ``*_ref_*`` metrics.  A fresh interpreter timed just before each
untraced repetition scales ``setup_s``.  A result file with the raw repetitions and provenance goes to
``--results`` (default ``.perfbench/results``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

from layers import PER_LAYER, layer_metrics, missing_metrics
from reference import INTERVAL_S, REFERENCE_S, STARTUP_S, reference_round, startup_round
from spans import Span, clock
from workloads import (
    GOLDEN,
    WORKLOADS,
    check_noisy_probs,
    check_structure,
    final_kl,
    nproc,
    run_digest,
    summary_rows,
)

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
HARD_LIMIT_S = 165.0  # a run must end within 180 s
STOP_WAIT_S = 0.05  # longest wait for a stop to take effect

END_TO_END = {  # metric -> unit; reported with --trace 0
    "wall_ref_s": "s",
    "setup_s": "s",
    "steps_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but not in BENCHMARK.json: unscaled times spread too
# widely on a shared machine, failed_ratio is 0 on a correct program and
# kl_final is fixed by the seed (see README.md).
EXTRA = {"wall_s": "s", "steps_per_s": "1/s", "failed_ratio": "ratio", "kl_final": "nats"}


class Checkout:
    """Paths of the tree being measured; ``root`` is the working directory."""

    def __init__(self, root: Path, results: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench" / "work" / str(os.getpid())
        self.results = results

    def check(self) -> None:
        """Exit unless this is a bornbench checkout; make its bornbench importable."""
        missing = [p for p in (self.src / "bornbench" / "cli.py", self.root / "configs") if not p.exists()]
        if missing:
            raise SystemExit(
                f"run.py: not a bornbench checkout ({', '.join(map(str, missing))} missing); "
                "run it from the repository root"
            )
        sys.path.insert(0, str(self.src))


def descendants(pid: int) -> list[int]:
    """``pid`` and every process below it, from /proc."""
    found, pending = [], [pid]
    while pending:
        p = pending.pop()
        found.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as handle:
                    pending += [int(c) for c in handle.read().split()]
        except OSError:  # the process has just exited
            pass
    return found


def peak_kb(pid: int) -> int:
    """VmHWM, the process's peak resident memory so far, in kB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def all_stopped(pid: int) -> bool:
    """Whether every thread of every process in ``pid``'s tree is stopped or gone."""
    for p in descendants(pid):
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{p}/task/{task}/stat") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
            except (OSError, IndexError):
                continue
            if state not in "TtZX":
                return False
    return True


def steal_s() -> float:
    """CPU time the hypervisor has taken from this machine's vCPUs so far."""
    try:
        with open("/proc/stat") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_child(checkout: Checkout, argv: list[str], trace: bool, tag: str, timeout: float,
              reference: bool = False) -> dict:
    """Run one measured process; returns its timings, peak memory and exit code.

    Every ``INTERVAL_S`` a monitor thread samples the peak memory of the
    process tree and, with ``reference``, stops the whole process group, runs
    one ``reference_round`` while nothing of the program runs, and lets it
    continue.  The CPU time of each round and each paused interval
    (``stopped``) are returned; the paused time is left out of the program's
    times.  With ``reference`` a ``startup_round`` is also timed just before
    the process starts (``startup``).

    ``peak_rss_mb`` is the larger of the process's own peak (``wait4``, which
    also covers any child it waited for) and the sum of the peaks sampled over
    its process tree, so that rows run in worker processes add up.
    """
    spec_path = checkout.work / f"{tag}.spec.json"
    out_path = checkout.work / f"{tag}.out.json"
    spec = {"src": str(checkout.src), "argv": argv, "trace": trace, "run": tag, "out": str(out_path)}
    spec_path.write_text(json.dumps(spec))
    peaks: dict[int, int] = {}  # pid -> largest VmHWM sampled, kB
    rounds: list[float] = []  # CPU seconds of each reference round
    stopped: list[tuple[float, float]] = []  # (stop sent, continue sent)
    startup = startup_round() if reference else None
    with open(checkout.work / f"{tag}.log", "w") as log:
        steal = [(clock(), steal_s())]  # (time, cumulative hypervisor steal)
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            cwd=checkout.root,
            process_group=0,  # one signal stops or kills the whole tree
        )
        done = threading.Event()
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            os.killpg(proc.pid, signal.SIGKILL)

        def monitor():
            while not done.wait(INTERVAL_S):
                steal.append((clock(), steal_s()))
                for pid in descendants(proc.pid):
                    peaks[pid] = max(peaks.get(pid, 0), peak_kb(pid))
                if not reference:
                    continue
                paused = clock()
                try:
                    os.killpg(proc.pid, signal.SIGSTOP)
                    try:
                        deadline = paused + STOP_WAIT_S
                        while not all_stopped(proc.pid) and clock() < deadline:
                            time.sleep(0.0001)  # yield the CPU the program may share with this thread
                        cpu = time.thread_time()
                        reference_round()
                        rounds.append(time.thread_time() - cpu)
                    finally:
                        os.killpg(proc.pid, signal.SIGCONT)
                except ProcessLookupError:  # the program has exited and been reaped
                    return
                stopped.append((paused, clock()))

        killer = threading.Timer(max(timeout, 0.0), kill)
        watcher = threading.Thread(target=monitor)
        killer.start()
        watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            exited = clock()
            killer.cancel()
            done.set()
            watcher.join()
            steal.append((clock(), steal_s()))
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"code": proc.returncode, "spawn": start, "exit": exited,
              "peak_rss_mb": max(usage.ru_maxrss, sum(peaks.values())) / 1024.0,
              "timed_out": timed_out.is_set(), "reference": rounds, "stopped": stopped,
              "steal": steal, "startup": startup}
    if out_path.exists():
        result.update(json.loads(out_path.read_text()), code=proc.returncode)
    return result


def check_outputs(workload, golden: dict, out: Path, config_seed: int, n_steps: int) -> tuple[int, list[str], float | None]:
    """Returns (failed operations, problems, kl_final) for one repetition."""
    if workload.sweep:
        expected = golden[workload.name]["runs"][str(config_seed)]
        problems = []
        failed = 0
        try:
            summary = summary_rows(out)
        except (OSError, KeyError) as exc:
            return len(expected), [f"summary.csv unreadable: {exc}"], None
        kls = []
        per_row_steps = n_steps // len(expected)
        for index, (run_ok, summary_ok) in enumerate(expected):
            row_dir = out / f"row{index:03d}"
            row_problems = []
            try:
                if run_digest(row_dir) != run_ok:
                    row_problems.append("run files differ from the recorded digest")
                if index >= len(summary) or summary[index] != summary_ok:
                    row_problems.append("summary.csv row differs from the recorded one")
                row_problems += check_structure(row_dir, config_seed + index, per_row_steps)
                kls.append(final_kl(row_dir))
            except (OSError, ValueError, KeyError) as exc:
                row_problems.append(f"unreadable output: {exc}")
            if row_problems:
                failed += 1
                problems += [f"row {index}: {p}" for p in row_problems]
        return failed, problems, statistics.fmean(kls) if kls else None
    try:
        problems = check_structure(out, config_seed, n_steps)
        kl = final_kl(out)
        if workload.noise_profile is None:  # noisy bytes may change; see check_noisy_probs
            if run_digest(out) != golden[workload.name]["runs"][str(config_seed)]:
                problems.append("run files differ from the recorded digest")
    except (OSError, ValueError, KeyError) as exc:
        return 1, [f"unreadable output: {exc}"], None
    return (1 if problems else 0), problems, kl


def provenance(checkout: Checkout) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (checkout.root / ".git").exists():  # a benchmark checkout is usually not a repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=checkout.root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "git_commit": commit,
        "src_digest": source_digest(checkout.src),
    }


def source_digest(src: Path) -> str:
    """Digest of the program's sources; identifies the code where git is absent."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def median(values):
    return statistics.median(values) if values else None


def measure(checkout: Checkout, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    golden = json.loads(GOLDEN.read_text())
    config_seed = workload.config_seed(seed)
    checkout.work.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    config = workload.write_inputs(checkout.root, checkout.work, seed)
    steps = workload.n_steps(config)
    started = clock()
    started_unix = time.time()
    # warm the file cache and byte-code before the first timed process
    subprocess.run([sys.executable, "-c", "import bornbench.cli"], cwd=checkout.root,
                   env={**os.environ, "PYTHONPATH": str(checkout.src)}, timeout=60)

    reps = []
    problems: list[str] = []
    attempted = failed = 0
    kl = None
    while True:
        index = len(reps)
        traced = trace and index % 2 == 1
        out = checkout.work / f"rep{index}"
        shutil.rmtree(out, ignore_errors=True)
        remaining = HARD_LIMIT_S - (clock() - started)
        rep = run_child(checkout, workload.argv(config, out), traced, f"rep{index}", remaining,
                        reference=not traced)
        ops = len(golden[name]["runs"][str(config_seed)]) if workload.sweep else 1
        attempted += ops
        if rep["code"] != 0 or "main_end" not in rep:
            reason = f"exit code {rep['code']}" + (" (timed out)" if rep["timed_out"] else "")
            rep_failed, rep_problems, rep_kl = ops, [reason], None
        else:
            rep_failed, rep_problems, rep_kl = check_outputs(workload, golden, out, config_seed, steps)
        failed += rep_failed
        problems += [f"rep {index}: {p}" for p in rep_problems]
        kl = rep_kl if rep_kl is not None else kl
        rep["traced"] = traced
        reps.append(rep)
        shutil.rmtree(out, ignore_errors=True)
        # stop before a repetition that would end past the measuring time
        elapsed = clock() - started
        next_rep = statistics.median(r["exit"] - r["spawn"] for r in reps)
        if (len(reps) >= MIN_REPS and elapsed + next_rep > seconds) or elapsed + next_rep > HARD_LIMIT_S:
            break

    if workload.noise_profile is not None:
        try:
            prob_problems = check_noisy_probs(config, golden[name])
        except Exception as exc:  # report, do not crash: the run must still print a result
            prob_problems = [f"noisy probability check failed to run: {exc!r}"]
        if prob_problems:  # every repetition ran the same faulty simulator
            failed = attempted
            problems += prob_problems

    result = summarize(reps, steps, trace)
    result.update(
        workload=name, seed=seed, config_seed=config_seed, trace=int(trace), seconds=seconds,
        steps_per_rep=steps, kl_final=kl, attempted=attempted, failed=failed,
        failed_ratio=failed / attempted, problems=problems,
        load_before=load_before, load_after=os.getloadavg(),
        started_unix=started_unix,
    )
    result["loaded"] = load_before[0] > nproc()
    result["duration_s"] = clock() - started
    shutil.rmtree(checkout.work, ignore_errors=True)
    return result


def running(rep: dict, start: float, end: float) -> float:
    """Time from ``start`` to ``end`` in which the program was not paused,
    less the hypervisor's steal in that time shared out over the vCPUs."""
    paused = sum(max(0.0, min(b, end) - max(a, start)) for a, b in rep["stopped"])
    times, totals = zip(*rep["steal"])
    stolen = numpy.interp(end, times, totals) - numpy.interp(start, times, totals)
    return end - start - paused - stolen / os.cpu_count()


def summarize(reps: list[dict], steps: int, trace: bool) -> dict:
    """Medians over the repetitions; per-layer metrics when traced.

    The reference rounds timed during an untraced repetition give the
    machine's speed at that time, ``REFERENCE_S`` over the median round;
    ``*_ref_*`` metrics are times scaled by that speed.  ``setup_s`` is
    scaled by the start-up speed, ``STARTUP_S`` over the ``startup_round``
    timed just before the repetition.
    Times leave out the program's pauses and the hypervisor's steal (see
    ``running``).  A repetition in which no set-up mark fired has no set-up
    time and no steps rate.
    """
    plain = [r for r in reps if not r["traced"] and r["code"] == 0 and r["reference"]]
    speeds = [REFERENCE_S / statistics.median(r["reference"]) for r in plain]
    walls = [running(r, r["spawn"], r["exit"]) for r in plain]
    marked = [(r, v) for r, v in zip(plain, speeds) if r.get("setup_end") is not None]
    setups = [running(r, r["spawn"], r["setup_end"]) for r, _ in marked]
    startup_speeds = [STARTUP_S / r["startup"] for r, _ in marked]
    rates = [steps / running(r, r["setup_end"], r["main_end"]) for r, _ in marked]
    out = {
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "speeds": speeds,
        "end_to_end": {
            "wall_ref_s": median([w * v for w, v in zip(walls, speeds)]),
            "setup_s": median([t * v for t, v in zip(setups, startup_speeds)]),
            "steps_per_ref_s": median([n / v for n, (_, v) in zip(rates, marked)]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "wall_s": median(walls),
            "steps_per_s": median(rates),
        },
        "missing_hooks": sorted({t for r in reps for t in r.get("missing_hooks", ())}),
    }
    if trace:
        traced = [r for r in reps if r["traced"] and r["code"] == 0 and "spans" in r]
        per_rep = [
            layer_metrics([Span(*s) for s in r["spans"]], r["main_end"] - r["main_start"], steps)
            for r in traced
        ]
        layers = {m: median([p[m] for p in per_rep]) for m in PER_LAYER if m != "trace.overhead_ratio"}
        traced_wall = median([running(r, r["spawn"], r["exit"]) for r in traced])
        if traced_wall is not None and walls:
            layers["trace.overhead_ratio"] = traced_wall / median(walls) - 1.0
        gone = set(missing_metrics(out["missing_hooks"]))
        out["per_layer"] = {m: v for m, v in layers.items() if m not in gone and v is not None}
        out["missing_metrics"] = sorted(gone)
    return out


def report(result: dict) -> dict:
    """Print the human-readable table; return the metrics for the JSON line."""
    name = result["workload"]
    metrics = {}
    if result["trace"]:
        print(f"{name}: per-layer metrics (median of traced repetitions)")
        for metric, (unit, _) in PER_LAYER.items():
            value = result["per_layer"].get(metric)
            if value is None:
                print(f"  {metric:30s} missing")
                continue
            print(f"  {metric:30s} {value:14.6g} {unit}")
            metrics[metric] = {"value": value, "unit": unit}
    else:
        print(f"{name}: end-to-end metrics (median of {sum(not r['traced'] for r in result['reps'])} processes)")
        for metric, unit in END_TO_END.items():
            value = result["end_to_end"][metric]
            if value is None:
                print(f"  {metric:14s} {'missing':>14s}")
                continue
            print(f"  {metric:14s} {value:14.6g} {unit}")
            metrics[metric] = {"value": value, "unit": unit}
        for metric, unit in EXTRA.items():
            value = result["end_to_end"].get(metric, result.get(metric))
            print(f"  {metric:14s} {'-' if value is None else format(value, '14.6g'):>14s} {unit}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    for target in result["missing_hooks"]:
        print(f"  missing hook {target}", file=sys.stderr)
    if result["loaded"]:
        print(f"  warning: load average {result['load_before'][0]:.2f} above nproc at start", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (0: the shipped configs)")
    parser.add_argument("--seconds", type=float, default=30.0, help="time to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=".perfbench/results", help="directory for result files")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    checkout = Checkout(root, root / args.results)
    checkout.check()
    if not GOLDEN.is_file():
        raise SystemExit(f"run.py: {GOLDEN} missing")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    checkout.results.mkdir(parents=True, exist_ok=True)
    prov = provenance(checkout)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = measure(checkout, name, args.seed, args.seconds, bool(args.trace))
        result["provenance"] = prov
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = checkout.results / f"{name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
        path.write_text(json.dumps(result, indent=1))
        metrics = report(result)
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["correct"] = combined["correct"] and result["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
