"""Command-line front end.

Subcommands ingest JSON scenario files, run the bound evaluators or the
Monte Carlo simulator, and write JSON/CSV/SVG artifacts.  Every run emits a
manifest (resolved options, root seed, output digests); re-dispatching a
manifest reproduces the outputs byte-identically.  A run that fails writes
nothing.

The CLI reads files and checks what only it sees: JSON structure, missing
fields, flag combinations and number parsing.  Whether a value fits the
scenario is checked once, by the library function that uses it.  Both
raise ScenarioError, the one input-error type.

Exit codes: 0 success, 2 input/schema error (ScenarioError), 3 resource-cap
rejection, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import html
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from . import bounds, gaussian_twrc, sim
from .infotheory import (
    ConditionalPmf,
    DistortionMeasure,
    JointPmf,
    MemoryCapError,
    Pmf,
    ScenarioError,
)

# ---------------------------------------------------------------------------
# Scenario ingestion
# ---------------------------------------------------------------------------

def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    return doc


def load_scenario(path: str, expect_kind: str | tuple[str, ...]) -> dict:
    doc = load_json(path)
    kind = doc.get("kind")
    kinds = (expect_kind,) if isinstance(expect_kind, str) else expect_kind
    if kind not in kinds:
        raise ScenarioError(f"{path}: kind {kind!r}, expected one of {kinds}")
    return doc


def _field(doc: dict, name: str):
    if name not in doc:
        raise ScenarioError(f"missing field {name!r}")
    return doc[name]


def _number(value, name: str) -> float:
    """float(value), rejecting JSON booleans and strings (float(True) is 1.0,
    float("2") is 2.0); the library checks the range of the numbers it takes."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name} must be a number, got {value!r}") from exc


def _finite(value, name: str) -> float:
    number = _number(value, name)
    if not np.isfinite(number):
        raise ScenarioError(f"{name} must be finite, got {value!r}")
    return number


def _count(doc: dict, name: str) -> int:
    value = _field(doc, name)
    number = _finite(value, name)
    if number != int(number):
        raise ScenarioError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def _build(cls, doc: dict, name: str):
    """cls(doc[name]) for a distribution or distortion field; errors name the field."""
    value = _field(doc, name)
    try:
        return cls(value)
    except ScenarioError as exc:
        raise ScenarioError(f"field {name!r}: {exc}") from exc


def build_p2p_scenario(doc: dict) -> sim.P2pScenario:
    return sim.P2pScenario(
        source=_build(Pmf, doc, "source"),
        channel=_build(ConditionalPmf, doc, "channel"),
        distortion=_build(DistortionMeasure, doc, "distortion"),
    )


def build_mac_scenario(doc: dict) -> sim.MacScenario:
    return sim.MacScenario(
        sources=_build(JointPmf, doc, "sources"),
        mac=_build(ConditionalPmf, doc, "mac"),
        x1_size=_count(doc, "x1_size"),
        x2_size=_count(doc, "x2_size"),
        d1=_build(DistortionMeasure, doc, "d1"),
        d2=_build(DistortionMeasure, doc, "d2"),
    )


def build_p2p_spec(doc: dict) -> bounds.HybridCodeSpec:
    return bounds.HybridCodeSpec(
        aux_size=_count(doc, "aux_size"),
        aux_kernel=_build(ConditionalPmf, doc, "aux_kernel"),
        enc_map=_field(doc, "enc_map"),
        dec_map=_field(doc, "dec_map"),
        rate=_number(_field(doc, "rate"), "rate"),
    )


def build_mac_spec(doc: dict) -> bounds.MacHybridSpec:
    return bounds.MacHybridSpec(
        q_pmf=_build(Pmf, doc, "q_pmf"),
        **{name: _field(doc, name) for name in ("aux1", "aux2", "enc1", "enc2", "dec1", "dec2")},
        R1=_number(doc.get("R1", 0.0), "R1"),
        R2=_number(doc.get("R2", 0.0), "R2"),
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def write_manifest(subcommand: str, options: dict, outputs: list[str],
                   seed: int | None, started: float) -> str:
    path = options["out"] + ".manifest.json"
    write_json(path, {
        "subcommand": subcommand,
        "options": options,
        "tool_version": __version__,
        "root_seed": seed,
        "wall_clock_s": round(time.time() - started, 3),
        "outputs": {p: _sha256(p) for p in outputs},
    })
    return path


# ---------------------------------------------------------------------------
# Subcommand implementations: a resolved-option dict in, {suffix: content}
# out, in write order.  A subcommand writes nothing itself; it records any
# option it resolves in the dict, which dispatch saves in the manifest.
# ---------------------------------------------------------------------------

def _twrc_schemes(ch: gaussian_twrc.GaussianTwrcParams, with_params: bool) -> dict:
    """Best rate point of every scheme; with_params adds the optimizer's
    (alpha, beta, sigma2), None for schemes that have none."""
    rows = {}
    for scheme in ("cutset", "af", "nnc", "hc_special", "hc_general"):
        best = gaussian_twrc.optimize_scheme(ch, scheme)
        row = {"R1": best.point.R1, "R2": best.point.R2,
               "sum_rate": best.point.sum_rate, "label": best.point.scheme}
        if with_params:
            for name in ("alpha", "beta", "sigma2"):
                row[name] = getattr(best.params, name) if best.params else None
        rows[scheme] = row
    return rows


def cmd_bounds_twrc(opts: dict) -> dict:
    doc = load_scenario(opts["scenario"], "twrc_gaussian")
    power = _finite(doc.get("P", 10.0), "P")
    ple = _finite(doc.get("path_loss_exp", 3.0), "path_loss_exp")
    r_grid = doc.get("r_grid")
    if r_grid is not None:
        if not isinstance(r_grid, list):
            raise ScenarioError("r_grid must be a list of distances")
        r_grid = [_number(x, "r_grid entry") for x in r_grid]
    snrs = ("S13", "S23", "S31", "S32")
    ch = None
    if opts["r"] is not None:     # before the sweep, so a bad --r costs no work
        ch = gaussian_twrc.params_from_distance(opts["r"], power, ple)
    elif not opts["sweep"]:
        if not all(k in doc for k in snrs):
            raise ScenarioError("need --sweep, --r, or explicit SNRs S13..S32")
        ch = gaussian_twrc.GaussianTwrcParams(**{k: _number(doc[k], k) for k in snrs})
    artifacts = {}
    result: dict = {"schemes": {}}
    if opts["sweep"]:
        rows = gaussian_twrc.fig8_sweep(power, r_grid=r_grid, path_loss_exp=ple)
        artifacts[".csv"] = gaussian_twrc.sweep_to_csv(rows)
        result["sweep_rows"] = len(rows)
    if ch is not None:
        result["schemes"] = _twrc_schemes(ch, with_params=opts["r"] is not None)
    artifacts[".json"] = result
    return artifacts


def cmd_bounds_diamond(opts: dict) -> dict:
    doc = load_scenario(opts["scenario"], "diamond")
    res = bounds.det_diamond_bounds(
        _field(doc, "y2_map"), _field(doc, "y3_map"), _field(doc, "y4_map"),
        _count(doc, "x2_size"), _count(doc, "x3_size"), grid_res=opts["grid_res"])
    return {".json": asdict(res)}


def cmd_region_mac(opts: dict) -> dict:
    doc = load_scenario(opts["scenario"], "mac")
    scenario = build_mac_scenario(doc)
    spec_doc = load_json(opts["spec"])
    substitution = opts["substitution"]
    if substitution:
        px1, px2 = _build(Pmf, spec_doc, "px1"), _build(Pmf, spec_doc, "px2")
    if substitution == "lossless":
        mspec = bounds.lossless_mac_spec(
            scenario.sources, px1, px2, scenario.mac.output_size)
    elif substitution == "distributed":
        k1, k2 = _build(ConditionalPmf, spec_doc, "k1"), _build(ConditionalPmf, spec_doc, "k2")
        mspec = bounds.distributed_mac_spec(k1, k2, px1, px2)
    else:
        mspec = build_mac_spec(spec_doc)
    # The region check is where the spec meets the scenario, so it runs first.
    report = bounds.mac_region_check(scenario.sources, scenario.mac, scenario.d1, scenario.d2,
                                     mspec, scenario.x1_size, scenario.x2_size)
    result: dict = {"report": asdict(report)}
    if substitution:
        reduced = (bounds.lossless_reduced_values(scenario.sources, scenario.mac, px1, px2)
                   if substitution == "lossless"
                   else bounds.distributed_reduced_values(scenario.sources, k1, k2, px1, px2))
        result["reduced_constraints"] = reduced
    return {".json": result}


def cmd_check_thm1(opts: dict) -> dict:
    doc = load_scenario(opts["scenario"], "p2p")
    scenario = build_p2p_scenario(doc)
    result: dict = {}
    if opts["optimize"]:
        report, spec = bounds.p2p_optimize(
            scenario.source, scenario.channel, scenario.distortion,
            target_D=opts["target_d"], aux_cap=opts["aux_cap"], grid_res=opts["grid_res"])
        result["report"] = asdict(report)
        if spec is not None:
            result["spec"] = {
                "aux_size": spec.aux_size,
                "aux_kernel": spec.aux_kernel.rows.tolist(),
                "enc_map": spec.enc_map.tolist(),
                "dec_map": spec.dec_map.tolist(),
                "rate": spec.rate,
            }
    else:
        if not opts["spec"]:
            raise ScenarioError("need --spec FILE or --optimize")
        spec = build_p2p_spec(load_json(opts["spec"]))
        report = bounds.check_p2p(
            scenario.source, scenario.channel, scenario.distortion, spec)
        result["report"] = asdict(report)
    return {".json": result}


def cmd_check_thm3(opts: dict) -> dict:
    doc = load_scenario(opts["scenario"], "twrc_discrete")
    uplink = _build(ConditionalPmf, doc, "uplink")
    downlink = _build(ConditionalPmf, doc, "downlink")
    y1_size, y2_size = _count(doc, "y1_size"), _count(doc, "y2_size")
    spec_doc = load_json(opts["spec"])
    spec = bounds.TwrcSpec(
        px1=_build(Pmf, spec_doc, "px1"),
        px2=_build(Pmf, spec_doc, "px2"),
        relay_kernel=_build(ConditionalPmf, spec_doc, "relay_kernel"),
        relay_map=_field(spec_doc, "relay_map"),
    )
    report = bounds.twrc_region_check(uplink, downlink, y1_size, y2_size, spec)
    return {".json": {"report": asdict(report)}}


def cmd_simulate(opts: dict) -> dict:
    seed = opts["seed"]
    lemma1 = opts["lemma1"]
    if lemma1:
        doc = load_json(opts["scenario"])
    else:
        doc = load_scenario(opts["scenario"], ("p2p", "mac"))
    if opts["eps_prime"] is None:   # a value given on the command line wins
        opts["eps_prime"] = _number(doc.get("eps_prime", 0.2), "eps_prime") if lemma1 else 0.2
    if lemma1:
        check = sim.lemma1_check(
            n=opts["n"], rate=_finite(_field(doc, "rate"), "rate"),
            joint_us=_build(JointPmf, doc, "joint_us"), eps_prime=opts["eps_prime"],
            outer_trials=opts["trials"], seed=seed, min_count=opts["min_count"])
        check["cells"] = {repr(k): v for k, v in check["cells"].items()}
        return {".json": {"independence_check": check}}
    spec_doc = load_json(opts["spec"])
    configs = [sim.TrialConfig(
        n=n, trials=opts["trials"], epsilon=opts["eps"], epsilon_prime=opts["eps_prime"],
        seed=seed) for n in opts["n_sweep"] or [opts["n"]]]
    if doc["kind"] == "p2p":
        scenario, spec, run = build_p2p_scenario(doc), build_p2p_spec(spec_doc), sim.run_p2p
    else:
        scenario, spec, run = build_mac_scenario(doc), build_mac_spec(spec_doc), sim.run_mac
    return {".json": {"aggregates": [run(scenario, spec, config) for config in configs]}}


# ---------------------------------------------------------------------------
# SVG plotting
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def render_svg(header: list[str], rows: list[list[float]]) -> str:
    """Deterministic line plot: x = first column, one series per other column."""
    width, height = 720, 440
    x0, x1p, y0, y1p = 60.0, 540.0, 400.0, 20.0
    xs = [r[0] for r in rows]
    ys = [v for r in rows for v in r[1:]]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax - xmin < 1e-300:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    if ymax - ymin < 1e-300:
        ymin, ymax = ymin - 1.0, ymax + 1.0

    def sx(x):
        return x0 + (x - xmin) / (xmax - xmin) * (x1p - x0)

    def sy(y):
        return y0 + (y - ymin) / (ymax - ymin) * (y1p - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1p:.2f}" y2="{y0:.2f}" stroke="black"/>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1p:.2f}" stroke="black"/>',
        f'<text x="{x0:.2f}" y="{y0 + 24:.2f}" font-size="12">{xmin:.4g}</text>',
        f'<text x="{x1p - 20:.2f}" y="{y0 + 24:.2f}" font-size="12">{xmax:.4g}</text>',
        f'<text x="{x0 - 50:.2f}" y="{y0:.2f}" font-size="12">{ymin:.4g}</text>',
        f'<text x="{x0 - 50:.2f}" y="{y1p + 8:.2f}" font-size="12">{ymax:.4g}</text>',
        f'<text x="{(x0 + x1p) / 2 - 10:.2f}" y="{y0 + 36:.2f}" font-size="12">'
        f'{html.escape(header[0])}</text>',
    ]
    for si, name in enumerate(header[1:]):
        color = _PALETTE[si % len(_PALETTE)]
        pts = [(sx(r[0]), sy(r[1 + si])) for r in rows]
        if len(pts) > 1:
            coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        else:
            px, py = pts[0]
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}"/>')
        ly = 30 + 18 * si
        parts.append(
            f'<line x1="560" y1="{ly}" x2="590" y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="596" y="{ly + 4}" font-size="12">{html.escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(opts: dict) -> dict:
    try:
        with open(opts["csv"]) as fh:
            reader = list(csv.reader(fh))
    except OSError as exc:
        raise ScenarioError(f"cannot read {opts['csv']}: {exc}") from exc
    cells = [row for row in reader[1:] if row]
    if not cells:
        raise ScenarioError("CSV needs a header and at least one data row")
    header = reader[0]
    if len(header) < 2:
        raise ScenarioError("CSV needs an x column and at least one series")
    try:
        rows = [[float(v) for v in row] for row in cells]
    except ValueError as exc:
        raise ScenarioError(f"non-numeric CSV cell: {exc}") from exc
    if any(len(r) != len(header) for r in rows):
        raise ScenarioError("ragged CSV rows")
    if not np.isfinite(rows).all():
        raise ScenarioError("CSV cells must be finite")
    return {".svg": render_svg(header, rows)}


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

_DISPATCH = {
    "bounds-twrc": cmd_bounds_twrc,
    "bounds-diamond": cmd_bounds_diamond,
    "region-mac": cmd_region_mac,
    "check-thm1": cmd_check_thm1,
    "check-thm3": cmd_check_thm3,
    "simulate": cmd_simulate,
    "plot": cmd_plot,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridlab",
        description="Hybrid analog/digital joint source-channel coding workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, default_out):
        p.add_argument("--out", default=default_out,
                       help="output path prefix (files get .json/.csv/.svg suffixes)")

    p = sub.add_parser("bounds-twrc", help="Gaussian two-way-relay bounds")
    p.add_argument("scenario")
    p.add_argument("--sweep", action="store_true", help="distance sweep CSV")
    p.add_argument("--r", type=float, default=None, help="single relay distance in (0,1)")
    common(p, "twrc_bounds")

    p = sub.add_parser("bounds-diamond", help="deterministic diamond-network bounds")
    p.add_argument("scenario")
    p.add_argument("--grid-res", type=int, default=6)
    common(p, "diamond_bounds")

    p = sub.add_parser("region-mac", help="two-sender region check")
    p.add_argument("scenario")
    p.add_argument("--spec", required=True)
    p.add_argument("--substitution", choices=("lossless", "distributed"), default=None)
    common(p, "mac_region")

    p = sub.add_parser("check-thm1", help="single-sender condition check / optimizer")
    p.add_argument("scenario")
    p.add_argument("--spec", default=None)
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--target-d", type=float, default=None)
    p.add_argument("--aux-cap", type=int, default=4)
    p.add_argument("--grid-res", type=int, default=12)
    common(p, "p2p_check")

    p = sub.add_parser("check-thm3", help="discrete two-way-relay region corner")
    p.add_argument("scenario")
    p.add_argument("--spec", required=True)
    common(p, "twrc_check")

    p = sub.add_parser("simulate", help="Monte Carlo hybrid-coding trials")
    p.add_argument("scenario")
    p.add_argument("--spec", default=None)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--eps-prime", type=float, default=None,
                   help="typicality slack eps' (default 0.2; with --lemma1 the "
                        "scenario's eps_prime when it has one)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-sweep", default=None,
                   help="comma-separated block lengths, one aggregate row each")
    p.add_argument("--lemma1", action="store_true",
                   help="codebook-independence check instead of coding trials")
    p.add_argument("--min-count", type=int, default=50)
    common(p, "simulation")

    p = sub.add_parser("plot", help="CSV to SVG line plot")
    p.add_argument("csv")
    common(p, "plot")
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    opts = {k: v for k, v in vars(args).items() if k != "subcommand"}
    if args.subcommand == "simulate":
        if opts["n_sweep"]:
            try:
                opts["n_sweep"] = [int(v) for v in opts["n_sweep"].split(",")]
            except ValueError as exc:
                raise ScenarioError(f"--n-sweep needs comma-separated integers: {exc}") from exc
        if not opts["lemma1"] and not opts["spec"]:
            raise ScenarioError("simulate needs --spec unless --lemma1 is given")
    if args.subcommand == "check-thm1" and args.optimize and args.target_d is None:
        raise ScenarioError("--optimize requires --target-d")
    return opts


def dispatch(subcommand: str, options: dict) -> int:
    """Run one subcommand, then write its artifacts and the manifest.

    The subcommand computes every artifact before the first is written, so
    a run that fails leaves no file behind.  An --out whose directory does
    not exist fails before any work.
    """
    started = time.time()
    opts = dict(options)
    out_dir = os.path.dirname(opts["out"]) or "."
    if not os.path.isdir(out_dir):
        raise ScenarioError(f"--out {opts['out']}: {out_dir} is not an existing directory")
    outputs = []
    for suffix, content in _DISPATCH[subcommand](opts).items():
        path = opts["out"] + suffix
        if suffix == ".json":
            write_json(path, content)
        else:
            with open(path, "w") as fh:
                fh.write(content)
        outputs.append(path)
    write_manifest(subcommand, opts, outputs, opts.get("seed"), started)
    return 0


def replay_manifest(path: str) -> dict:
    """Re-run the recorded subcommand and return fresh output digests."""
    manifest = load_json(path)
    dispatch(manifest["subcommand"], manifest["options"])
    return {p: _sha256(p) for p in manifest["outputs"]}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve_options(args)
        return dispatch(args.subcommand, opts)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
