"""Job lists, work counts and output checks of the four benchmark workloads.

A workload is a fixed list of jobs.  Each job calls `hybridlab.cli.main`
in-process, or the public library function behind an acceptance criterion,
and writes its files under an output prefix.  Its check reads those files
(or the returned value) after the timed pass and returns the list of
problems it found; an empty list means the output is correct.

Work counts (candidates scanned, Monte Carlo trials, MAC pair cells) are
computed from the job inputs, never measured, so they repeat exactly.
"""

from __future__ import annotations

import ast
import json
import math
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from pathlib import Path
from statistics import NormalDist
from typing import Any, Callable

from hybridlab import bounds, cli, sim
from hybridlab.infotheory import ConditionalPmf, JointPmf, Pmf

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "src" / "hybridlab" / "scenarios"
INPUTS = HERE / "inputs"
REFERENCE = HERE / "reference.json"

# Scan size: grid 6 keeps one aux-size-4 scan at about 3 s on two cores;
# the CLI default of 12 takes about 70 s per job.
GRID_RES = 6
AUX_CAP = 4
TARGET_D = 0.15
SWEEP_TARGETS = [round(0.02 * i, 10) for i in range(1, 26)]   # criterion 4

# The simulator root seed is the workload seed modulo ROOT_SEEDS; the seeded
# aggregates of every root seed are recorded in reference.json.
ROOT_SEEDS = 16
# n -> (trials, min_count): at n=4 the kept trials spread over many more
# (codeword 0, source block) cells, so fewer samples qualify a cell.
LEMMA1_RUNS = {2: (6000, 50), 4: (4000, 10)}
P2P_SWEEP = (8, 12, 16, 20)
P2P_SWEEP_TRIALS = 600
P2P_LARGE_N = 32
P2P_LARGE_TRIALS = 160
MAC_N = 8
MAC_TRIALS = 24
UNCODED_N = 1000
UNCODED_TRIALS = 100
SIM_EPS = ("--eps", "0.75", "--eps-prime", "0.5")

# Statistical checks hold all the tests of one kind, over every root seed,
# to the false-alarm level of a single two-sided 3-sigma test.
FAMILY_P = 2 * (1 - NormalDist().cdf(3.0))

RELAY_POSITIONS = (0.3, 0.5, 0.7)
TOL_EXACT = 1e-12
TOL_RATE = 1e-9


def scen(name: str) -> str:
    return str(SCENARIOS / name)


def inp(name: str) -> str:
    return str(INPUTS / name)


def read_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Job:
    """One closed-loop request: run() is timed, check() is not."""

    name: str
    kind: str                       # per-job timing it feeds, e.g. "optimize"
    run: Callable[[str], Any]       # output prefix -> returned value
    check: Callable[[str, Any], list[str]]
    candidates: int = 0
    trials: int = 0
    pair_cells: int = 0
    notes: Callable[[str, Any], list[str]] | None = None


# ---------------------------------------------------------------------------
# Work counts
# ---------------------------------------------------------------------------

def candidate_count(s_size: int, x_size: int, aux_cap: int, grid_res: int) -> int:
    """Candidates of one p2p scan: sum over u of G(u)^|S| * |X|^(u*|S|),
    with G(u) = C(grid_res + u - 1, u - 1) simplex-grid rows per source symbol."""
    return sum(math.comb(grid_res + u - 1, u - 1) ** s_size * x_size ** (u * s_size)
               for u in range(1, aux_cap + 1))


def brute_force_candidates(s_size: int, x_size: int, aux_cap: int, grid_res: int) -> int:
    """The same count by enumerating every (aux kernel, encoder map) pair."""
    total = 0
    for u in range(1, aux_cap + 1):
        rows = [r for r in product(range(grid_res + 1), repeat=u) if sum(r) == grid_res]
        kernels = product(rows, repeat=s_size)
        enc_maps = list(product(range(x_size), repeat=u * s_size))
        total += sum(1 for _ in product(kernels, enc_maps))
    return total


def selftest() -> list[str]:
    """Candidate formula against brute-force enumeration at aux cap 2, grid 2."""
    problems = []
    for s_size, x_size in ((2, 2), (2, 3), (3, 2)):
        want = brute_force_candidates(s_size, x_size, 2, 2)
        got = candidate_count(s_size, x_size, 2, 2)
        if got != want:
            problems.append(f"candidate formula |S|={s_size} |X|={x_size}: {got} != {want}")
    return problems


# ---------------------------------------------------------------------------
# Set-up: the files each workload parses and validates before its first job
# ---------------------------------------------------------------------------

def _p2p(path):
    return cli.build_p2p_scenario(cli.load_scenario(path, "p2p"))


def _p2p_spec(path):
    return cli.build_p2p_spec(cli.load_json(path))


def _mac(path):
    return cli.build_mac_scenario(cli.load_scenario(path, "mac"))


def _lemma1(path):
    return JointPmf(cli.load_json(path)["joint_us"])


def _mac_spec(path):
    return cli.build_mac_spec(cli.load_json(path))


def _pmf_pair(path):
    doc = cli.load_json(path)
    kernels = [ConditionalPmf(doc[k]) for k in ("k1", "k2") if k in doc]
    return Pmf(doc["px1"]), Pmf(doc["px2"]), kernels


def _twrc_spec(path):
    doc = cli.load_json(path)
    return bounds.TwrcSpec(Pmf(doc["px1"]), Pmf(doc["px2"]),
                           ConditionalPmf(doc["relay_kernel"]), doc["relay_map"])


def _kind(kind):
    return lambda path: cli.load_scenario(path, kind)


SETUP_FILES = {
    "scan": [(_p2p, scen("bsc_uncoded.json")), (_p2p, scen("p2p_hybrid.json"))],
    "mc-small": [(_lemma1, scen("lemma1.json")), (_p2p, scen("p2p_hybrid.json")),
                 (_p2p_spec, scen("p2p_hybrid_spec.json")), (_p2p, scen("bsc_uncoded.json"))],
    "mc-large": [(_mac, scen("mac_noiseless_pair.json")), (_mac_spec, inp("mac_identity_spec.json")),
                 (_p2p, scen("p2p_hybrid.json")), (_p2p_spec, scen("p2p_hybrid_spec.json"))],
    "closed-form": [(_kind("twrc_gaussian"), scen("fig8.json")), (_kind("diamond"), scen("example1.json")),
                    (_mac, scen("mac_correlated.json")), (_pmf_pair, inp("mac_lossless_spec.json")),
                    (_mac, scen("mac_noiseless_pair.json")), (_pmf_pair, inp("mac_distributed_spec.json")),
                    (_p2p, scen("p2p_hybrid.json")), (_p2p_spec, scen("p2p_hybrid_spec.json")),
                    (_kind("twrc_discrete"), scen("twrc_xor.json")), (_twrc_spec, scen("twrc_xor_spec.json"))],
}


def setup(workload: str) -> list:
    """Parse and validate every scenario/spec file the workload reads."""
    return [parse(path) for parse, path in SETUP_FILES[workload]]


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def _cli_job(name, kind, argv, check, **fields) -> Job:
    def run(out):
        return cli.main(list(argv) + ["--out", out])

    def checked(out, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        return check(read_json(out + ".json"))

    return Job(name, kind, run, checked, **fields)


def family_z(tests: int) -> float:
    """Per-test z bound that keeps `tests` two-sided tests together at
    FAMILY_P (Bonferroni)."""
    return NormalDist().inv_cdf(1 - FAMILY_P / (2 * max(tests, 1)))


def _close(name, got, want, tol) -> list[str]:
    return [] if abs(got - want) <= tol else [f"{name}: {got!r} != {want!r} (tol {tol})"]


def _same_floats(name, got, want, tol) -> list[str]:
    """Equal structure, with floats equal within tol."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{name}: keys differ"]
        return [p for k in sorted(want) for p in _same_floats(f"{name}.{k}", got[k], want[k], tol)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{name}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _same_floats(f"{name}[{i}]", g, w, tol)]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return _close(name, got, want, tol)
    return [] if got == want else [f"{name}: {got!r} != {want!r}"]


AGGREGATE_FIELDS = (("p_error", "halfwidth_error"), ("p_e1", "halfwidth_e1"),
                    ("mean_distortion", "distortion_halfwidth"))


def _match_aggregates(name, rows, ref_rows) -> list[str]:
    """Seeded p2p aggregates against the recorded ones, within the summed
    95% half-widths of the two estimates."""
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, recorded {len(ref_rows)}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        for value, halfwidth in AGGREGATE_FIELDS:
            tol = row[halfwidth] + ref[halfwidth] + TOL_EXACT
            problems += _close(f"{name} n={row['n']} {value}", row[value], ref[value], tol)
    return problems


def aggregate_rows(doc) -> list[dict]:
    keep = ("n",) + tuple(f for pair in AGGREGATE_FIELDS for f in pair)
    return [{k: row[k] for k in keep} for row in doc["aggregates"]]


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_jobs(ref) -> list[Job]:
    jobs = []
    for scenario in ("bsc_uncoded", "p2p_hybrid"):
        p2p = _p2p(scen(f"{scenario}.json"))
        count = candidate_count(p2p.source.alphabet_size, p2p.channel.input_size,
                                AUX_CAP, GRID_RES)

        def check_spec(doc, scenario=scenario):
            return _same_floats(f"{scenario} spec", doc.get("spec"),
                                ref["optimize"][scenario], TOL_EXACT)

        jobs.append(_cli_job(
            f"optimize_{scenario}", "optimize",
            ["check-thm1", scen(f"{scenario}.json"), "--optimize",
             "--target-d", str(TARGET_D), "--aux-cap", str(AUX_CAP),
             "--grid-res", str(GRID_RES)],
            check_spec, candidates=count))
        jobs.append(_feasibility_job(scenario, p2p, count, one_sided=scenario == "p2p_hybrid"))
    return jobs


def _feasibility_job(scenario, p2p, count, one_sided) -> Job:
    """Criterion 4: the shared-scan sweep plus the Blahut-Arimoto oracle."""
    def run(out):
        feasible = bounds.p2p_feasibility_sweep(
            p2p.source, p2p.channel, p2p.distortion, SWEEP_TARGETS,
            aux_cap=AUX_CAP, grid_res=GRID_RES)
        cap = bounds.capacity(p2p.channel)
        rates = [bounds.rd_function(p2p.source, p2p.distortion, d) for d in SWEEP_TARGETS]
        return feasible, cap, rates

    def check(out, value):
        feasible, cap, rates = value
        problems = []
        for target, got, rate in zip(SWEEP_TARGETS, feasible, rates):
            separation = rate < cap
            # The grid search is an inner bound: on the erasure channel it
            # may miss feasible targets, but must never beat separation.
            wrong = (got and not separation) if one_sided else got != separation
            if wrong:
                problems.append(f"D={target}: search {got}, separation {separation}")
        return problems

    return Job(f"feasibility_{scenario}", "feasibility", run, check, candidates=count)


# ---------------------------------------------------------------------------
# mc-small and mc-large
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _lemma1_oracle():
    doc = read_json(scen("lemma1.json"))
    return sim.lemma1_exact_n2(doc["rate"], JointPmf(doc["joint_us"]), doc["eps_prime"])


def _check_lemma1_n2(doc) -> list[str]:
    """Per-cell agreement with the exact n=2 law, 3 sigma family-wise over
    the cells of non-degenerate probability and the root seeds; cells of
    probability 0 or 1 must match exactly."""
    check = doc["independence_check"]
    if not check["conclusive"]:
        return ["lemma1 n=2 inconclusive"]
    oracle = _lemma1_oracle()["cells"]
    compared = []
    for key, stats in check["cells"].items():
        exact = oracle[cell_key(key)]["conditional"]
        count = stats["count"]
        patterns = list(product(range(math.isqrt(len(stats["histogram"]))), repeat=2))
        for idx, pattern in enumerate(patterns):
            q = exact.get(pattern, 0.0)
            emp = stats["histogram"][idx] / count
            compared.append((key, pattern, emp, q, math.sqrt(q * (1 - q) / count)))
    random_cells = sum(1 for *_, sigma in compared if sigma > 0)
    z = family_z(random_cells * ROOT_SEEDS)
    return [f"lemma1 n=2 cell {key} pattern {pattern}: {emp:.4f} vs exact {q:.4f}"
            for key, pattern, emp, q, sigma in compared
            if abs(emp - q) > z * sigma + TOL_EXACT]


def cell_key(key: str) -> tuple:
    """Cell keys are written as repr((codeword 0, source block)), where the
    symbols may print as numpy scalars such as np.int64(1)."""
    return ast.literal_eval(re.sub(r"np\.\w+\((-?\d+)\)", r"\1", key))


def _check_lemma1_n4(doc) -> list[str]:
    check = doc["independence_check"]
    return [] if check["conclusive"] and check["kept"] > 0 else ["lemma1 n=4 inconclusive"]


def _mc_small_jobs(root, ref) -> list[Job]:
    jobs = [
        _cli_job(f"lemma1_n{n}", "lemma1",
                 ["simulate", scen("lemma1.json"), "--lemma1", "--n", str(n),
                  "--trials", str(trials), "--min-count", str(min_count), "--seed", str(root)],
                 _check_lemma1_n2 if n == 2 else _check_lemma1_n4, trials=trials)
        for n, (trials, min_count) in LEMMA1_RUNS.items()
    ]
    jobs.append(_cli_job(
        "p2p_sweep", "sim_p2p",
        ["simulate", scen("p2p_hybrid.json"), "--spec", scen("p2p_hybrid_spec.json"),
         "--n-sweep", ",".join(map(str, P2P_SWEEP)), "--trials", str(P2P_SWEEP_TRIALS),
         *SIM_EPS, "--seed", str(root)],
        lambda doc: _match_aggregates("p2p_sweep", aggregate_rows(doc),
                                      ref["p2p_sweep"][str(root)]),
        trials=P2P_SWEEP_TRIALS * len(P2P_SWEEP)))
    jobs.append(_uncoded_job(root))
    return jobs


def _uncoded_job(root) -> Job:
    """Criterion 6: uncoded BSC(0.1) transmission at n=1000."""
    p2p = _p2p(scen("bsc_uncoded.json"))
    spec = bounds.HybridCodeSpec.uncoded(enc=[0, 1], dec=[0, 1], num_sources=2)
    config = sim.TrialConfig(n=UNCODED_N, trials=UNCODED_TRIALS, seed=root)

    def run(out):
        return sim.run_p2p(p2p, spec, config)

    def check(out, rep):
        se = rep["distortion_halfwidth"] / 1.96
        return _close("uncoded mean distortion", rep["mean_distortion"], 0.1,
                      family_z(ROOT_SEEDS) * se)

    return Job("p2p_uncoded", "sim_p2p", run, check, trials=UNCODED_TRIALS)


def _mc_large_jobs(root, ref) -> list[Job]:
    m = sim.codebook_size(MAC_N, 1.0)

    def zero_distortion(doc):
        row = doc["aggregates"][0]
        return [f"{k} = {row[k]}" for k in ("mean_distortion_1", "mean_distortion_2")
                if row[k] != 0.0]

    return [
        _cli_job("mac_identity", "sim_mac",
                 ["simulate", scen("mac_noiseless_pair.json"), "--spec", inp("mac_identity_spec.json"),
                  "--n", str(MAC_N), "--trials", str(MAC_TRIALS), *SIM_EPS, "--seed", str(root)],
                 zero_distortion, trials=MAC_TRIALS, pair_cells=MAC_TRIALS * m * m * MAC_N),
        _cli_job("p2p_n32", "sim_p2p",
                 ["simulate", scen("p2p_hybrid.json"), "--spec", scen("p2p_hybrid_spec.json"),
                  "--n", str(P2P_LARGE_N), "--trials", str(P2P_LARGE_TRIALS), *SIM_EPS,
                  "--seed", str(root)],
                 lambda doc: _match_aggregates("p2p_n32", aggregate_rows(doc),
                                               ref["p2p_n32"][str(root)]),
                 trials=P2P_LARGE_TRIALS),
    ]


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

PROVEN_SCHEMES = ("af", "nnc", "hc_special")


def _relay_job(r, ref) -> Job:
    def check(doc):
        schemes = doc["schemes"]
        cut = schemes["cutset"]["sum_rate"]
        problems = [f"r={r}: {s} sum rate {schemes[s]['sum_rate']} above cutset {cut}"
                    for s in PROVEN_SCHEMES if schemes[s]["sum_rate"] > cut + TOL_EXACT]
        for scheme, recorded in ref["relay"][str(r)].items():
            got = schemes[scheme]["sum_rate"]
            if got < recorded - TOL_RATE:
                problems.append(f"r={r}: {scheme} sum rate {got} below recorded {recorded}")
        return problems

    def notes(out, rc):
        if rc != 0:
            return []
        schemes = read_json(out + ".json")["schemes"]
        cut, general = schemes["cutset"]["sum_rate"], schemes["hc_general"]["sum_rate"]
        if general <= cut + TOL_EXACT:
            return []
        return [f"r={r}: hc_general sum rate {general:.6f} exceeds the derived cutset {cut:.6f}"]

    return _cli_job(f"relay_{r}", "twrc_point",
                    ["bounds-twrc", scen("fig8.json"), "--r", str(r)], check, notes=notes)


def _check_sweep_csv(out, rc) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    with open(out + ".csv") as fh:
        lines = fh.read().split()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    problems = [] if len(rows) == 19 else [f"sweep has {len(rows)} rows, expected 19"]
    # Columns r, R_CS, R_AF, R_NNC, R_HC, written with 6 decimals.
    return problems + [f"sweep r={row[0]}: cutset {row[1]} below {max(row[2:])}"
                       for row in rows if row[1] < max(row[2:]) - 1e-6]


def _check_svg(out, rc) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    with open(out + ".svg") as fh:
        return [] if fh.read().startswith("<svg") else ["plot is not an SVG document"]


def _reduced_identities(doc) -> list[str]:
    problems = []
    for c, (lhs, rhs) in zip(doc["report"]["constraints"], doc["reduced_constraints"]):
        problems += _close(f"{c['name']} lhs", c["lhs"], lhs, TOL_EXACT)
        problems += _close(f"{c['name']} rhs", c["rhs"], rhs, TOL_EXACT)
    return problems


def _closed_form_jobs(workdir, ref) -> tuple[list[list[Job]], Job]:
    """Independent job groups (shuffled by seed) and the final replay job."""
    sweep_out = str(Path(workdir) / "twrc_sweep")

    def run_sweep(out):
        return cli.main(["bounds-twrc", scen("fig8.json"), "--sweep", "--out", out])

    def run_plot(out):
        return cli.main(["plot", sweep_out + ".csv", "--out", out])

    def run_replay(out):
        manifests = sorted(Path(workdir).glob("*.manifest.json"))
        recorded = [read_json(str(m))["outputs"] for m in manifests]
        return [(str(m), want, cli.replay_manifest(str(m))) for m, want in zip(manifests, recorded)]

    def check_replay(out, replays):
        problems = [f"replay of {Path(m).name}: digests differ" for m, want, got in replays if want != got]
        return problems if replays else ["no manifest to replay"]

    groups = [[_relay_job(r, ref)] for r in RELAY_POSITIONS]
    groups.append([Job("twrc_sweep", "twrc_sweep", run_sweep, lambda out, rc: _check_sweep_csv(sweep_out, rc)),
                   Job("plot", "small_jobs", run_plot, _check_svg)])
    groups.append([_cli_job(
        "diamond", "diamond", ["bounds-diamond", scen("example1.json")],
        lambda doc: _close("diamond hybrid", doc["hybrid"], math.log2(3), TOL_RATE)
        + _close("diamond adt", doc["adt"], 1.5, 1e-6))])
    groups.append([_cli_job(
        "mac_lossless", "small_jobs",
        ["region-mac", scen("mac_correlated.json"), "--spec", inp("mac_lossless_spec.json"),
         "--substitution", "lossless"], _reduced_identities)])
    groups.append([_cli_job(
        "mac_distributed", "small_jobs",
        ["region-mac", scen("mac_noiseless_pair.json"), "--spec", inp("mac_distributed_spec.json"),
         "--substitution", "distributed"], _reduced_identities)])
    groups.append([_cli_job(
        "thm1", "small_jobs",
        ["check-thm1", scen("p2p_hybrid.json"), "--spec", scen("p2p_hybrid_spec.json")],
        lambda doc: _same_floats("thm1", doc["report"], ref["thm1"], TOL_EXACT))])
    groups.append([_cli_job(
        "thm3", "small_jobs",
        ["check-thm3", scen("twrc_xor.json"), "--spec", scen("twrc_xor_spec.json")],
        lambda doc: _same_floats("thm3", doc["report"], ref["thm3"], TOL_EXACT))])
    return groups, Job("replay", "replay", run_replay, check_replay)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    return read_json(str(REFERENCE))


def build(workload: str, seed: int, workdir: str, ref: dict) -> list[Job]:
    """The workload's job list for this seed, in the order one pass runs it.

    The seed sets the job order and, for the simulator jobs, the root seed.
    """
    order = random.Random(seed)
    root = seed % ROOT_SEEDS
    if workload == "closed-form":
        groups, replay = _closed_form_jobs(workdir, ref)
        order.shuffle(groups)
        return [job for group in groups for job in group] + [replay]
    jobs = {"scan": lambda: _scan_jobs(ref),
            "mc-small": lambda: _mc_small_jobs(root, ref),
            "mc-large": lambda: _mc_large_jobs(root, ref)}[workload]()
    order.shuffle(jobs)
    return jobs
