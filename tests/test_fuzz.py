"""Seeded fuzz of the CLI boundary: no input exits 4.

Each case runs `cli.main` in-process on a copy of a bundled scenario or
spec with one edit.  Every top-level field of every input file gets every
edit in EDITS, and RANDOM_CASES more edits per seed hit fields at any depth
(a list entry, a row of a table).  Bad input must exit 2 and a resource cap
3, and a run that fails writes no file.  The options keep each run cheap:
small grids, aux caps, block lengths and trial counts.
"""

import copy
import json
import math
import random
from importlib import resources

from hybridlab import cli

SCENARIOS = resources.files("hybridlab") / "scenarios"

# (argv with the input files by bundled name, then options).
RUNS = (
    ("bounds-twrc", "fig8.json", "--r", "0.3"),
    ("bounds-diamond", "example1.json", "--grid-res", "2"),
    ("region-mac", "mac_correlated.json", "--spec", "mac_correlated_lossless_spec.json",
     "--substitution", "lossless"),
    ("region-mac", "mac_orthogonal.json", "--spec", "mac_correlated_lossless_spec.json",
     "--substitution", "lossless"),
    ("check-thm1", "p2p_hybrid.json", "--spec", "p2p_hybrid_spec.json"),
    ("check-thm1", "bsc_uncoded.json", "--optimize", "--target-d", "0.15",
     "--aux-cap", "2", "--grid-res", "3"),
    ("check-thm3", "twrc_xor.json", "--spec", "twrc_xor_spec.json"),
    ("simulate", "p2p_hybrid.json", "--spec", "p2p_hybrid_spec.json",
     "--n", "4", "--trials", "3"),
    ("simulate", "lemma1.json", "--lemma1", "--n", "2", "--trials", "3"),
)

DROP = object()
# name -> the new value given the old one (DROP removes the field).
EDITS = {
    "one": lambda old: 1,
    "zero": lambda old: 0,
    "negative": lambda old: -1,
    "string": lambda old: "x",
    "nan": lambda old: math.nan,
    "huge": lambda old: 1e300,
    "huge-int": lambda old: 2 ** 70,
    "empty": lambda old: [],
    "ragged": lambda old: [[1.0], [0.5, 0.5]],
    "truncated": lambda old: old[:-1] if isinstance(old, list) else old,
    "dropped": lambda old: DROP,
}
SEEDS = (1, 2, 3, 4)
RANDOM_CASES = 100


def inputs(run):
    return [arg for arg in run if arg.endswith(".json")]


def paths(doc, prefix=()):
    """Every path to a value inside doc, dict keys and list indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def edited(doc, path, edit):
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    new = EDITS[edit](parent[last])
    if new is DROP:
        del parent[last]
    else:
        parent[last] = new
    return doc


def top_level_cases():
    for i, run in enumerate(RUNS):
        for name in inputs(run):
            for field in json.loads((SCENARIOS / name).read_text()):
                for edit in EDITS:
                    yield i, name, (field,), edit


def random_cases(seed):
    rng = random.Random(seed)
    for _ in range(RANDOM_CASES):
        i = rng.randrange(len(RUNS))
        name = rng.choice(inputs(RUNS[i]))
        path = rng.choice(list(paths(json.loads((SCENARIOS / name).read_text()))))
        yield i, name, path, rng.choice(sorted(EDITS))


CASES = list(top_level_cases()) + [case for seed in SEEDS for case in random_cases(seed)]


def test_case_count():
    # 61 top-level fields over the runs' input files, 11 edits each, plus
    # 100 random edits per seed.
    assert len(CASES) == 61 * len(EDITS) + RANDOM_CASES * len(SEEDS) == 1071


def test_unedited_runs_exit_0(tmp_path):
    for i, run in enumerate(RUNS):
        argv = [str(SCENARIOS / arg) if arg.endswith(".json") else arg for arg in run]
        assert cli.main(argv + ["--out", str(tmp_path / str(i))]) == 0, run


def test_no_input_exits_4(tmp_path, capsys):
    failures = []
    for k, (i, name, path, edit) in enumerate(CASES):
        case_dir = tmp_path / str(k)
        case_dir.mkdir()
        argv = []
        for arg in RUNS[i]:
            if arg.endswith(".json"):
                doc = json.loads((SCENARIOS / arg).read_text())
                if arg == name:
                    doc = edited(doc, path, edit)
                (case_dir / arg).write_text(json.dumps(doc))
                arg = str(case_dir / arg)
            argv.append(arg)
        before = set(case_dir.iterdir())
        code = cli.main(argv + ["--out", str(case_dir / "out")])
        err = capsys.readouterr().err
        wrote = set(case_dir.iterdir()) - before
        if code not in (0, 2, 3) or (code != 0 and wrote):
            failures.append((RUNS[i][0], name, path, edit, code, err.strip()))
    assert not failures, "\n".join(map(repr, failures))
