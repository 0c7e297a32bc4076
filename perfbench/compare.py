"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds (in any subdirectory) the result files
``run.py --results DIR`` wrote; traced runs are ignored.  Runs of a workload
both sides ran pair up by seed, in the order they ran; make the pairs by
alternating which side runs first.  For every end-to-end
metric in BENCHMARK.json the verdict is:

- ``gain``: at least ten pairs, the change better in at least 9/10 of them
  (ties count for neither), and the medians differ by more than the
  parent's interquartile range;
- ``regression``: the change's median worse than the parent's by more than
  the metric's bound;
- ``unresolved``: either side's spread (interquartile range over median) is
  wider than the bound, unless every change run is better (``better``) or
  worse (``regression``) than every parent run;
- ``same`` otherwise.

One row is printed per workload; it also reports whether the pairs
alternated and the failed operations on each side.  A gain does not count
when the change failed more operations than the parent.  The exit code is 1
when any workload regressed or failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        result = json.loads(path.read_text())
        if not result.get("trace"):
            runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["started_unix"])
    return runs


def pair(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs with equal seeds, first with first."""
    pending: dict[int, list[dict]] = {}
    for result in change:
        pending.setdefault(result["seed"], []).append(result)
    pairs = []
    for result in parent:
        if pending.get(result["seed"]):
            pairs.append((result, pending[result["seed"]].pop(0)))
    return pairs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(p: list[float], c: list[float], bound: float, lower_is_better: bool) -> tuple[str, float]:
    """Verdict for one metric from paired values; also the relative change."""
    sign = -1.0 if lower_is_better else 1.0  # sign * (c - p) > 0 means better
    mp, mc = statistics.median(p), statistics.median(c)
    rel = (mc - mp) / mp
    worse_by = -sign * rel
    if max(spread(p), spread(c)) > bound:
        if all(sign * (y - x) > 0 for x in p for y in c):
            return "better", rel
        if all(sign * (y - x) < 0 for x in p for y in c):
            return "regression", rel
        return "unresolved", rel
    if worse_by > bound:
        return "regression", rel
    wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
    q1, _, q3 = statistics.quantiles(p, n=4)
    if len(p) >= MIN_PAIRS and wins >= WIN_SHARE * len(p) and sign * (mc - mp) > q3 - q1:
        return "gain", rel
    return "same", rel


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    if not parent or not change:
        print("compare.py: no untraced result files in " + " or ".join(argv), file=sys.stderr)
        return 2
    bad = False
    for workload in sorted(set(parent) ^ set(change)):
        print(f"{workload}: only in {argv[0] if workload in parent else argv[1]}; not compared")
    for workload in sorted(set(parent) & set(change)):
        pairs = pair(parent.get(workload, []), change.get(workload, []))
        if not pairs:
            print(f"{workload}: no pairs with matching seeds")
            bad = True
            continue
        firsts = ["P" if p["started_unix"] < c["started_unix"] else "C" for p, c in pairs]
        alternated = all(a != b for a, b in zip(firsts, firsts[1:]))
        failed_p = sum(p["failed"] for p, _ in pairs)
        failed_c = sum(c["failed"] for _, c in pairs)
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["end_to_end"][name] for r, _ in pairs]
            c = [r["end_to_end"][name] for _, r in pairs]
            if None in p or None in c:
                cells.append(f"{name} missing")
                bad = True
                continue
            word, rel = verdict(p, c, metric["bound"], metric["better"] == "lower")
            if word == "gain" and failed_c > failed_p:
                word = "gain-void(failures)"
            bad = bad or word == "regression"
            cells.append(
                f"{name} {statistics.median(p):.4g}->{statistics.median(c):.4g}{metric['unit']} "
                f"({rel:+.1%}) {word}"
            )
        failures = f"failed P{failed_p}/C{failed_c}"
        if failed_c:
            bad = True
            failures += " FAILED"
        print(
            f"{workload}: {len(pairs)} pairs, {'alternating' if alternated else 'NOT alternating'}, "
            f"{failures} | " + " | ".join(cells)
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
