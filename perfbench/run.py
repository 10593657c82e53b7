"""hybridlab benchmark: one closed-loop client runs a workload's job list.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 24 --trace 0

Run it from the root of a source checkout; hybridlab is imported from
`src/`.  Workloads (see workloads.py and METRICS.md):

- scan: p2p optimizer and criterion-4 feasibility sweeps at grid 6;
- mc-small: Monte Carlo jobs dominated by fixed per-trial cost;
- mc-large: Monte Carlo jobs dominated by typicality and pair search;
- closed-form: relay-channel searches and the small CLI evaluators.

One client issues the next job only when the previous one returns, and
repeats the whole job list (a pass) while the next pass is expected to end
within --seconds.  Every job's output is checked after the pass, outside
the timed region.  With --trace 0 the last line reports the end-to-end
metrics; with --trace 1 a first half of untraced passes is followed by
traced passes, and the last line reports the per-layer metrics.  Earlier
lines give the environment, per-job timings and anything the checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
MIN_TRACED_PASSES = 2
# Machine speed on a shared host drifts by 20% and more over minutes, for
# every process alike.  Bounded times are therefore given in reference
# seconds: measured time scaled by CALIBRATION_S over the time of a fixed
# kernel measured just before and after.  Raw times are printed too.
CALIBRATION_S = 0.09
CALIBRATION_EVERY_S = 1.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("scan", "mc-small", "mc-large", "closed-form")
# Unit of work per workload for work_per_s.
WORK_UNIT = {"scan": "candidates", "mc-small": "trials", "mc-large": "trials",
             "closed-form": "jobs"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hermetic_environment() -> dict[str, str]:
    """Environment for this process and its children: no seed override,
    BLAS/OpenMP threads at most nproc, hybridlab imported from src/."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.pop("HYBRIDLAB_SEED", None)
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    env["PYTHONPATH"] = str(SRC)
    return env


def calibrate() -> float:
    """Time of a fixed kernel of the three kinds of work the workloads do:
    interpreted Python, in-cache numpy arithmetic, and small-object churn
    (generator construction).  It makes no large allocation, so the
    allocator state of the process cannot change it."""
    import numpy as np

    values = np.linspace(0.0, 1.0, 4096)
    out = np.empty_like(values)
    start = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i
    for _ in range(1200):
        np.add(values, 1.0, out=out)
        np.log2(out, out=out)
    for seed in range(1000):
        np.random.default_rng(np.random.SeedSequence(seed)).random(16).sum()
    return time.perf_counter() - start


def measure_setup(workload: str, env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Interpreter start to parsed inputs, once per fresh probe process:
    raw times, and times scaled by the calibration samples around each."""
    raw, scaled = [], []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        raw.append(float(done.stdout.split()[-1]) - started)
        after = calibrate()
        scaled.append(raw[-1] * 2 * CALIBRATION_S / (before + after))
        before = after
    return raw, scaled


def environment_block() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "hybridlab").glob("*.py"))),
    }


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Pass:
    """One timed run over the job list, checked afterwards.

    Calibration samples are taken at the start, at the end, and between
    jobs once CALIBRATION_EVERY_S has passed since the last one; each job
    is scaled by the mean of the samples just before and just after it.
    """

    def __init__(self, jobs, workdir, tracer=None):
        self.jobs = jobs
        self.workdir = workdir
        self.spans = tracer.spans if tracer is not None else None
        self.times: list[float] = []
        self.values: list = []
        self.errors: list[bool] = []
        self.speeds: list[float] = []    # CALIBRATION_S / calibration, per job
        last_cal, cal_at = calibrate(), time.perf_counter()
        pending = []                     # jobs since the last calibration
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            t0 = time.perf_counter()
            try:
                value, error = job.run(str(workdir / job.name)), False
            except Exception:   # a failed job is counted, the client goes on
                traceback.print_exc()
                value, error = None, True
            self.times.append(time.perf_counter() - t0)
            self.values.append(value)
            self.errors.append(error)
            pending.append(len(self.times) - 1)
            if time.perf_counter() - cal_at > CALIBRATION_EVERY_S or job is jobs[-1]:
                cal, cal_at = calibrate(), time.perf_counter()
                self.speeds += [2 * CALIBRATION_S / (last_cal + cal)] * len(pending)
                last_cal, pending = cal, []
        self.wall = sum(self.times)
        self.scaled_wall = sum(t * v for t, v in zip(self.times, self.speeds))

    def check(self) -> "Pass":
        """Check every job's output; runs after the pass, untimed and untraced."""
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.failed = 0
        for job, value, error in zip(self.jobs, self.values, self.errors):
            out = str(self.workdir / job.name)
            found = ["raised an exception"] if error else job.check(out, value)
            self.failed += bool(found)
            self.problems += [f"{job.name}: {p}" for p in found]
            if job.notes is not None and not error:
                self.notes += job.notes(out, value)
        return self

    def kind_times(self, kind) -> list[float]:
        return [t for job, t in zip(self.jobs, self.times) if job.kind == kind]

    def total(self, field) -> int:
        return sum(getattr(job, field) for job in self.jobs)

    def time_of(self, field) -> float:
        return sum(t for job, t in zip(self.jobs, self.times) if getattr(job, field))


def run_passes(jobs, workdir, seconds, min_passes=1, tracer_cls=None) -> list[Pass]:
    """Passes until the next one would likely end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer_cls is None:
            done = Pass(jobs, workdir)
        else:
            with tracer_cls() as tracer:
                done = Pass(jobs, workdir, tracer)
        passes.append(done.check())
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def median(values):
    return statistics.median(values) if values else 0.0


def job_timings(passes) -> dict:
    """The per-job timings a user of each subcommand sees, with sample counts."""
    out = {}
    for kind in ("optimize", "feasibility", "lemma1", "sim_p2p", "sim_mac",
                 "twrc_point", "twrc_sweep", "diamond", "replay"):
        samples = [t for p in passes for t in p.kind_times(kind)]
        if samples:
            out[f"{kind}_s"] = {"value": median(samples), "unit": "s", "samples": len(samples)}
    small = [sum(p.kind_times("small_jobs")) for p in passes]
    if any(small):
        out["small_jobs_s"] = {"value": median(small), "unit": "s", "samples": len(small)}
    for name, field in (("candidates_per_s", "candidates"), ("trials_per_s", "trials")):
        rates = [p.total(field) / p.time_of(field) for p in passes if p.total(field)]
        if rates:
            out[name] = {"value": median(rates), "unit": "1/s", "samples": len(rates)}
    return out


def end_to_end(workload, passes, setup_scaled) -> dict:
    # The mean pass time: machine-speed drift over tens of seconds dominates
    # the noise here, and a mean averages it where a median of few passes
    # would pick one pass.
    wall = statistics.mean(p.scaled_wall for p in passes)
    work = {"candidates": passes[0].total("candidates"), "trials": passes[0].total("trials"),
            "jobs": len(passes[0].jobs)}[WORK_UNIT[workload]]
    return {
        "setup_s": {"value": median(setup_scaled), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "work_per_s": {"value": work / wall, "unit": "1/s"},
    }


def kept_fraction(last: Pass) -> float:
    """Kept over attempted lemma1 trials, read from the last pass's outputs."""
    from workloads import read_json

    kept = attempted = 0
    for job, value in zip(last.jobs, last.values):
        if job.kind == "lemma1" and value == 0:
            check = read_json(str(last.workdir / job.name) + ".json")["independence_check"]
            kept += check["kept"]
            attempted += check["trials"]
    return kept / attempted if attempted else 0.0


def per_layer(traced, untraced) -> tuple[dict, list[str]]:
    import tracing

    rows = []
    for p in traced:
        metrics, layers_s, sim_s = tracing.layer_metrics(p.spans)
        metrics["bounds.scan.candidates"] = p.total("candidates")
        metrics["bounds.scan.candidates_per_s"] = (
            p.total("candidates") / metrics["bounds.scan_s"] if metrics["bounds.scan_s"] else 0.0)
        metrics["sim.trials"] = p.total("trials")
        metrics["sim.trials_per_s"] = p.total("trials") / sim_s if sim_s else 0.0
        metrics["sim.pair_cells"] = p.total("pair_cells")
        metrics["gaussian_twrc.evals_per_s"] = (
            metrics["gaussian_twrc.rate_evals"] / metrics["gaussian_twrc.optimize_s"]
            if metrics["gaussian_twrc.optimize_s"] else 0.0)
        metrics["trace.wall_s"] = p.wall
        metrics["trace.harness_s"] = p.wall - layers_s
        rows.append(metrics)
    problems = []
    out = {}
    for name, first in rows[0].items():
        values = [row[name] for row in rows]
        if isinstance(first, int):
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            out[name] = {"value": first, "unit": "count"}
        else:
            out[name] = {"value": median(values), "unit": "1/s" if name.endswith("_per_s") else "s"}
    out["sim.lemma1.kept_frac"] = {"value": kept_fraction(traced[-1]), "unit": "ratio"}
    # Calibration-scaled, so that drift between the two halves cancels.
    out["trace.overhead_frac"] = {
        "value": median([p.scaled_wall for p in traced])
        / median([p.scaled_wall for p in untraced]) - 1,
        "unit": "ratio"}
    return out, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so the work directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "hybridlab" / "__init__.py").is_file():
        print(f"error: no hybridlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = hermetic_environment()
    os.environ.clear()
    os.environ.update(env)          # before numpy is first imported
    sys.path.insert(0, str(SRC))

    setup_samples, setup_scaled = [], []
    if not args.trace:
        setup_samples, setup_scaled = measure_setup(args.workload, env)

    import tracing
    import workloads

    workloads.setup(args.workload)
    problems = workloads.selftest()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        jobs = workloads.build(args.workload, args.seed, str(workdir),
                               workloads.load_reference())
        if args.trace:
            untraced = run_passes(jobs, workdir, args.seconds / 2)
            traced = run_passes(jobs, workdir, args.seconds / 2, MIN_TRACED_PASSES, tracing.Tracer)
            metrics, count_problems = per_layer(traced, untraced)
            problems += count_problems
            tracing.write_spans(str(ROOT / f".perfbench-spans-{args.workload}.csv.gz"),
                              [p.spans for p in traced])
            passes = untraced + traced
        else:
            passes = run_passes(jobs, workdir, args.seconds)
            metrics = end_to_end(args.workload, passes, setup_scaled)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(p.failed for p in passes)
    problems += sorted({m for p in passes for m in p.problems})
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"environment": environment_block()}))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "failed_frac": failed / attempted,
        "jobs": job_timings(passes) if not args.trace else {},
        "raw": {"wall_s": statistics.mean(p.wall for p in passes),
                "setup_s": median(setup_samples), "setup_samples": len(setup_samples),
                "speed": statistics.mean(p.scaled_wall / p.wall for p in passes)},
        "known_defects": sorted({n for p in passes for n in p.notes}),
    }))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
