"""varietal benchmark: seeded batches of real jobs, checked against oracles.

Usage::

    python3 perfbench/run.py --workload closure --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One workload runs per process, as a closed loop: one client, one thread,
the next job starts when the previous one returns.  ``--workload all``
runs each of the four job families in a fresh interpreter, one after
another; ``closure`` and ``search`` are the paired workloads the
benchmark's bounds apply to.

The batch is a sequence of rounds, each the same multiset of job kinds
drawn afresh from the seed; whole rounds run, as many as bring the job
time, and the probe slice that follows each job, closest to ``--seconds``.
Every job's answer is checked against ``oracles`` outside the job's timer.
Times are reported in reference seconds: wall time scaled by the host
speed that ``probe.Probe`` measured over the same stretch of the run, so
that a shared host's changing speed cancels out.  Afterwards a seeded
sample of the cheap CLI jobs runs again in subprocesses under two
PYTHONHASHSEED values; any byte difference in stdout fails that job.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` the same batch runs, then round 0
runs again under ``tracing.Tracer``; the JSON holds the per-layer metrics
and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# an import takes about 0.1 s and varies most between runs, so it repeats
# more often than the set-up that follows it
IMPORT_REPEATS = 7
HASH_SEEDS = ("0", "2718")
HASH_SAMPLE = 3
# probe time per second of measured work: set-up is short, so its
# probe slices are as long as the work they follow
PROBE_SHARE = 0.25
SETUP_PROBE_SHARE = 1.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A beta-weighted mean of all order statistics: unlike a single order
    statistic it does not jump when two job kinds swap places at the rank.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    # beta(a, b) cdf at i/n by the midpoint rule on a fine grid
    steps = 200 * n
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf, acc, k = [0.0], 0.0, 1
    for j in range(steps):
        x = (j + 0.5) / steps
        acc += math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x)) / steps
        if (j + 1) * n == k * steps:
            cdf.append(acc)
            k += 1
    total = cdf[-1]
    return sum(x * (cdf[i + 1] - cdf[i]) / total for i, x in enumerate(xs))


def tail_percentile(values) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(values)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= 10:
            best = p
    return best


class Batch:
    """Outcome of running a list of jobs: per-job times and verdicts."""

    def __init__(self):
        self.times: list[float] = []
        self.correct: list[bool] = []
        self.decided: list[bool] = []
        self.results: list[object] = []
        self.errors: list[str] = []

    def run(self, jobs, probe, tracer=None):
        # start each round from a collected heap, outside the timers
        gc.collect()
        for job in jobs:
            if tracer is not None:
                tracer.job = len(self.times)
            t0 = time.perf_counter()
            try:
                result = job.run()
                error = None
            except Exception as exc:    # an unexpected exception fails the job
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            self.times.append(elapsed)
            probe.after(elapsed)
            if error is None:
                try:
                    ok, decided = job.check(result)
                    if not ok:
                        error = "wrong answer"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                ok, decided = False, False
            self.results.append(result)
            self.correct.append(ok)
            self.decided.append(decided)
            if error:
                self.errors.append(f"{job.label}: {error}")

    @property
    def busy(self) -> float:
        return sum(self.times)


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def import_seconds(first: float, probe) -> float:
    """Median import time of varietal.cli: ``first`` (this interpreter's)
    and IMPORT_REPEATS - 1 fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import varietal.cli; "
            "print(time.perf_counter() - t)")
    samples = [first]
    for _ in range(IMPORT_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, check=True,
                              cwd=ROOT, timeout=120)
        samples.append(float(proc.stdout))
        probe.after(samples[-1])
    return statistics.median(samples)


def hash_seed_check(jobs, rng, results):
    """Re-run a sample of cheap CLI jobs under two hash seeds; returns the
    labels whose stdout differs from the in-process run or between seeds."""
    candidates = [(job, res) for job, res in zip(jobs, results)
                  if job.argv is not None and job.cheap and res is not None]
    sample = rng.sample(candidates, min(HASH_SAMPLE, len(candidates)))
    env = _src_env()
    bad = []
    for job, (code, text) in sample:
        outs = set()
        for seed in HASH_SEEDS:
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-m", "varietal.cli", *job.argv],
                capture_output=True, env=env, cwd=ROOT, timeout=120)
            outs.add((proc.returncode, proc.stdout))
        if outs != {(code, text.encode("utf-8"))}:
            bad.append(job.label)
    return [job.label for job, _ in sample], bad


def run_workload(args) -> int:
    sys.path.insert(0, HERE)
    from probe import Probe
    setup_probe = Probe(SETUP_PROBE_SHARE)
    t_import = time.perf_counter()
    import varietal.cli  # noqa: F401  (the import is part of set-up)
    import_s = time.perf_counter() - t_import
    setup_probe.after(import_s)
    import jobs as jobs_mod

    workload = jobs_mod.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobs_mod.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _measure(args, workload, import_s, setup_probe, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))


def _measure(args, workload, import_s, setup_probe, workdir) -> int:
    from probe import Probe
    # set-up: build what the jobs share and draw the first round, repeatedly
    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = {"workdir": workdir}
        workload.setup(ctx)
        rounds = [workload.round(random.Random(f"{args.seed}:0"), ctx)]
        random.Random(f"{args.seed}:order:0").shuffle(rounds[0])
        build_s.append(time.perf_counter() - t0)
        setup_probe.after(build_s[-1])
    wall_setup_s = (import_seconds(import_s, setup_probe)
                    + statistics.median(build_s))
    setup_s = wall_setup_s * setup_probe.scale
    workload.prepare(ctx)

    def next_round():
        r = len(rounds)
        jobs = workload.round(random.Random(f"{args.seed}:{r}"), ctx)
        random.Random(f"{args.seed}:order:{r}").shuffle(jobs)
        rounds.append(jobs)
        return jobs

    batch, probe = Batch(), Probe(PROBE_SHARE)
    ran = []
    jobs = rounds[0]
    while True:
        batch.run(jobs, probe)
        ran += jobs
        per_round = batch.busy / (len(ran) / len(rounds[0]))
        # whole rounds, as many as come closest to --seconds, probe included
        if batch.busy + per_round / 2 > args.seconds / (1 + PROBE_SHARE):
            break
        jobs = next_round()
    ref_busy = batch.busy * probe.scale     # job time in reference seconds
    attempted, failed = len(batch.times), batch.correct.count(False)
    errors = list(batch.errors)
    if args.trace:
        # round 0 once more, traced: counts repeat exactly for a given seed
        from tracing import Tracer
        tracer = Tracer()
        traced, traced_probe = Batch(), Probe(PROBE_SHARE)
        tracer.install()
        try:
            traced.run(rounds[0], traced_probe, tracer)
        finally:
            tracer.uninstall()
        layer = tracer.metrics()
        # against the untraced batch rate: round 0's first run also paid
        # for cold caches, its traced rerun did not
        traced_rate = len(traced.times) / (traced.busy * traced_probe.scale)
        layer["trace.overhead"] = 1.0 - traced_rate * ref_busy / len(batch.times)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        span_path = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(span_path)
        attempted += len(traced.times)
        failed += traced.correct.count(False)
        errors += traced.errors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sampled, mismatched = hash_seed_check(
        ran, random.Random(f"{args.seed}:hash"), batch.results)
    for label in mismatched:
        errors.append(f"{label}: stdout differs across PYTHONHASHSEED values")
    failed += len(mismatched)

    n = len(batch.times)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(ran) // len(rounds[0])} jobs_per_round={len(rounds[0])} "
          f"batch_s={batch.busy:.3f} hash_seed_rechecks={len(sampled)}")
    print(f"host_speed = {probe.scale:.4g} reference s per wall s over the "
          f"batch, {setup_probe.scale:.4g} over set-up "
          f"(probe {probe.seconds:.3f} s, {probe.units} units)")
    for line in errors:
        print(f"FAILED {line}")
    if args.trace:
        from tracing import PER_LAYER
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
        for name, m in metrics.items():
            print(f"{name} = {m['value']} {m['unit']}")
        print(f"spans={tracer.span_count()} written to {span_path}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": n / ref_busy, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "decided_share": {"value": batch.decided.count(True) / n,
                              "unit": "share"},
        }
        setup_n = f"n={IMPORT_REPEATS} imports, {SETUP_REPEATS} set-ups"
        samples = {"setup_s": setup_n,
                   "peak_rss_mb": "n=1 process"}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']} "
                  f"({samples.get(name, f'n={n} jobs')})")
        # printed, not bounded: their run-to-run spread exceeds any bound
        # the benchmark could hold them to (see README.md)
        ref_times = [t * probe.scale for t in batch.times]
        p = tail_percentile(ref_times)
        print(f"job_p50_s = {percentile(ref_times, 50):.6g} s "
              f"(n={n} jobs; unresolved)")
        print(f"job_tail_s = {percentile(ref_times, p):.6g} s "
              f"(p{p:g} of n={n} jobs; unresolved)")
        print(f"wall_setup_s = {wall_setup_s:.6g} s "
              f"({setup_n}; unresolved)")
        print(f"wall_jobs_per_s = {n / batch.busy:.6g} 1/s "
              f"(n={n} jobs; unresolved)")
        print(f"failed_share = {failed / attempted:.6g} share "
              f"(n={attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each of the four job families in a fresh interpreter; prints one
    combined result."""
    sys.path.insert(0, HERE)
    import jobs as jobs_mod
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in jobs_mod.FAMILIES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "varietal", "__init__.py")):
        print(f"varietal sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
