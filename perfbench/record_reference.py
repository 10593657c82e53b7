"""Record the values the benchmark's output checks compare against.

    python3 perfbench/record_reference.py

Runs the reference jobs of every workload (the simulator jobs once per
root seed) and rewrites perfbench/reference.json.  Run it at the commit
whose outputs are the reference, and only when a workload's inputs change;
it takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as w  # noqa: E402


def run_jobs(workload: str, seed: int, names: set[str], workdir: Path) -> dict:
    """Output documents of the named jobs of one workload."""
    docs = {}
    for job in w.build(workload, seed, str(workdir), {}):
        if job.name in names:
            prefix = str(workdir / job.name)
            rc = job.run(prefix)
            if rc != 0:
                raise RuntimeError(f"{workload}/{job.name} exited with {rc}")
            docs[job.name] = w.read_json(prefix + ".json")
    return docs


def record(workdir: Path) -> dict:
    ref: dict = {"optimize": {}, "relay": {}, "p2p_sweep": {}, "p2p_n32": {}}
    scenarios = ("bsc_uncoded", "p2p_hybrid")
    docs = run_jobs("scan", 0, {f"optimize_{s}" for s in scenarios}, workdir)
    for scenario in scenarios:
        ref["optimize"][scenario] = docs[f"optimize_{scenario}"]["spec"]
    relays = {f"relay_{r}": str(r) for r in w.RELAY_POSITIONS}
    docs = run_jobs("closed-form", 0, set(relays) | {"thm1", "thm3"}, workdir)
    for name, r in relays.items():
        ref["relay"][r] = {s: v["sum_rate"] for s, v in docs[name]["schemes"].items()}
    ref["thm1"] = docs["thm1"]["report"]
    ref["thm3"] = docs["thm3"]["report"]
    for root in range(w.ROOT_SEEDS):
        small = run_jobs("mc-small", root, {"p2p_sweep"}, workdir)
        large = run_jobs("mc-large", root, {"p2p_n32"}, workdir)
        ref["p2p_sweep"][str(root)] = w.aggregate_rows(small["p2p_sweep"])
        ref["p2p_n32"][str(root)] = w.aggregate_rows(large["p2p_n32"])
    return ref


def main() -> int:
    os.environ.pop("HYBRIDLAB_SEED", None)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=w.HERE.parent))
    try:
        ref = record(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(w.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
