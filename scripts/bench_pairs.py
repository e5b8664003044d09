#!/usr/bin/env python3
"""Alternating parent/change pairs of the gated benchmark workloads.

The parent commit is exported with ``git archive`` into a temporary
directory (this leaves the repository's own metadata untouched, where a
``git worktree`` would register itself in ``.git``); the change is this
checkout, which must be committed, so that the file names the commit that
was measured.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 50 --trace 0

once in each tree, one run at a time, on the same seed; which side goes
first alternates from pair to pair, so a drift of the host's speed weighs
on both sides alike.  There are 10 pairs of each workload, at the run
length BENCHMARK.json sets.  After the pairs of a workload, each
tree runs it once more with ``--trace 1``, on the first pair's seed, for
the per-layer metrics.  The result is one JSON file holding every run's
metrics and host speed, per workload and metric the medians of both sides,
the parent's quartiles and interquartile range, and the number of pairs
the change won, and per workload and side the traced run's per-layer
metrics as printed.  For example:

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_<n>.json \\
        --first-seed 1801 --dev-seeds 41-44

``--dev-seeds`` records the seeds looked at while the change was being
made, so that a claim can name seeds that were not among them.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PAIRS = {"closure": 10, "search": 10}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: pathlib.Path) -> None:
    """The committed tree of ``rev`` under ``into``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def seed_list(text: str) -> list[int]:
    """``41-44,50`` as [41, 42, 43, 44, 50]."""
    out: list[int] = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(tree: pathlib.Path, workload: str, seed: int,
             seconds: int, trace: int = 0) -> dict:
    """One benchmark run in ``tree``: its metrics, host speed and counts;
    with ``trace`` 1 the metrics are the per-layer ones."""
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run in {tree} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    speed = next((float(line.split()[2]) for line in lines
                  if line.startswith("host_speed = ")), None)
    return {
        "seed": seed,
        "started": round(started, 1),
        "wall_s": round(time.time() - started, 1),
        "host_speed": speed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both medians, the parent's quartiles and IQR, the
    change's relative difference of medians, and its wins per pair (ties
    are not wins)."""
    out = {}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        q1, median, q3 = quartiles(parent)
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        out[name] = {
            "better": direction,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "change_vs_parent": statistics.median(change) / median - 1
            if median else None,
            "parent_quartiles": [q1, median, q3],
            "parent_iqr": q3 - q1,
            "wins": wins,
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1",
                    help="the commit to compare against (default HEAD~1)")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--first-seed", type=int, default=1801,
                    help="seed of the first pair; each pair takes the next")
    ap.add_argument("--dev-seeds", default="",
                    help="seeds used while developing the change, e.g. 41-44")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out).resolve()
    dirty = [line for line in git("status", "--porcelain",
                                  "--untracked-files=no").splitlines()
             if ROOT / line[3:] != out]
    if dirty:
        sys.exit("commit the change before measuring it:\n" + "\n".join(dirty))
    gates = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in gates["end_to_end"]}
    seconds = gates["run_seconds"]
    report = {
        "command": f"perfbench/run.py --seconds {seconds} --trace 0",
        "traced_command": f"perfbench/run.py --seconds {seconds} --trace 1",
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
        "host": {"python": platform.python_version(),
                 "machine": platform.machine()},
        "dev_seeds": seed_list(args.dev_seeds),
        "workloads": {},
    }
    seed = args.first_seed
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = pathlib.Path(tmp)
        export(report["parent"], parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload, n in PAIRS.items():
            pairs = []
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 else (
                    "change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed,
                                          seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"jobs_per_s={pair[side]['metrics']['jobs_per_s']:.4g}"
                          f" host_speed={pair[side]['host_speed']}",
                          flush=True)
                pairs.append(pair)
                seed += 1
            traced = {side: run_once(trees[side], workload, pairs[0]["seed"],
                                     seconds, trace=1)
                      for side in ("parent", "change")}
            report["workloads"][workload] = {
                "seeds": [p["seed"] for p in pairs],
                "summary": summarize(pairs, better),
                "pairs": pairs,
                "traced": traced,
            }
            out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, w in report["workloads"].items():
        for name, m in w["summary"].items():
            print(f"{workload} {name}: parent {m['parent_median']:.4g} "
                  f"(IQR {m['parent_iqr']:.3g}), change "
                  f"{m['change_median']:.4g}, wins {m['wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
