"""Span tracing of hybridlab's public functions, installed from outside.

`Tracer.install` swaps each function in WRAPPED for a wrapper that records
one span (layer, start, end, parent span, job) per call.  The swap happens
in the namespace where the callers look the name up: `bounds.compose_joint`
is what `bounds` and `sim` call, `gaussian_twrc.golden_refine` is what the
relay optimizer calls.  Private kernels such as `_scan_p2p` and
`_typical_mask` are timed through their public callers.  Spans stay in
memory; `layer_metrics` derives self times (span time minus the time of its
direct children) per layer after the pass.
"""

from __future__ import annotations

import gzip
import time

from hybridlab import bounds, cli, gaussian_twrc, sim

WRAPPED = (
    (cli, "main", "cli"),
    (cli, "replay_manifest", "cli"),
    (cli, "load_json", "cli.io"),
    (cli, "write_json", "cli.io"),
    (cli, "write_manifest", "cli.io"),
    (bounds, "compose_joint", "infotheory.compose"),
    (bounds, "entropy", "infotheory.mi"),
    (bounds, "mutual_information", "infotheory.mi"),
    (bounds, "conditional_mutual_information", "infotheory.mi"),
    (bounds, "p2p_optimize", "bounds.scan"),
    (bounds, "p2p_feasibility_sweep", "bounds.scan"),
    (bounds, "capacity", "bounds.ba"),
    (bounds, "rd_function", "bounds.ba"),
    (bounds, "check_p2p", "bounds.eval"),
    (bounds, "mac_region_check", "bounds.eval"),
    (bounds, "twrc_region_check", "bounds.eval"),
    (bounds, "det_diamond_bounds", "bounds.eval"),
    (bounds, "lossless_mac_spec", "bounds.eval"),
    (bounds, "lossless_reduced_values", "bounds.eval"),
    (bounds, "distributed_mac_spec", "bounds.eval"),
    (bounds, "distributed_reduced_values", "bounds.eval"),
    (bounds, "simplex_grid_array", "search.simplex"),
    (gaussian_twrc, "golden_refine", "search.golden"),
    (gaussian_twrc, "coordinate_descent_triangle", "search.coord"),
    (gaussian_twrc, "optimize_scheme", "gaussian_twrc.optimize"),
    (gaussian_twrc, "fig8_sweep", "gaussian_twrc.optimize"),
    (gaussian_twrc, "hc_general_rates", "gaussian_twrc.rate"),
    (gaussian_twrc, "nnc_rates", "gaussian_twrc.rate"),
    (gaussian_twrc, "hc_special_rates", "gaussian_twrc.rate"),
    (sim, "run_p2p", "sim"),
    (sim, "run_mac", "sim"),
    (sim, "lemma1_check", "sim"),
    (sim, "derived_seed", "sim.seed"),
    (sim, "generate_codebook", "sim.codebook"),
    (sim, "encode_p2p", "sim.encode"),
)

# Layer self time -> per-layer metric.  Rate evaluations are their own spans
# so that the search helpers calling them keep only their own time.
SELF_TIME = {
    "cli": "cli.self_s",
    "cli.io": "cli.io_s",
    "infotheory.compose": "infotheory.compose_s",
    "infotheory.mi": "infotheory.mi_s",
    "bounds.scan": "bounds.scan_s",
    "bounds.ba": "bounds.ba_s",
    "bounds.eval": "bounds.eval_s",
    "search.simplex": "search.simplex_s",
    "search.golden": "search.golden_s",
    "search.coord": "search.coord_s",
    "gaussian_twrc.optimize": "gaussian_twrc.optimize_s",
    "gaussian_twrc.rate": "gaussian_twrc.optimize_s",
    "sim": "sim.self_s",
    "sim.seed": "sim.seed_s",
    "sim.codebook": "sim.codebook_s",
    "sim.encode": "sim.encode_s",
}

CALLS = {
    "cli": "cli.calls",
    "infotheory.compose": "infotheory.compose.calls",
    "infotheory.mi": "infotheory.mi.calls",
    "bounds.ba": "bounds.ba.calls",
    "search.simplex": "search.simplex.calls",
    "search.golden": "search.golden.calls",
    "search.coord": "search.coord.calls",
    "gaussian_twrc.rate": "gaussian_twrc.rate_evals",
    "sim.seed": "sim.seed.calls",
    "sim.codebook": "sim.codebook.calls",
    "sim.encode": "sim.encode.calls",
}


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.spans: list = []
        self.job = ""
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for module, attr, layer in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.job)

        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(spans: list) -> tuple[dict[str, float], float, float]:
    """Per-layer self times and call counts of one pass's spans.

    Also returns the sum of all self times, which equals the time under
    top-level spans, and the inclusive time of the simulator entry points.
    """
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metrics = {name: 0.0 for name in SELF_TIME.values()}
    metrics.update({name: 0 for name in CALLS.values()})
    for (layer, start, end, parent, _), children in zip(spans, child_time):
        metrics[SELF_TIME[layer]] += (end - start) - children
        if layer in CALLS:
            metrics[CALLS[layer]] += 1
    layers_s = sum(metrics[name] for name in set(SELF_TIME.values()))
    sim_s = sum(end - start for layer, start, end, _, _ in spans if layer == "sim")
    return metrics, layers_s, sim_s


def write_spans(path: str, passes: list[list]) -> None:
    """Gzipped CSV, one line per span: pass, layer, start, end, parent, job."""
    with gzip.open(path, "wt") as fh:
        fh.write("pass,layer,start,end,parent,job\n")
        for number, spans in enumerate(passes):
            for layer, start, end, parent, job in spans:
                fh.write(f"{number},{layer},{start:.9f},{end:.9f},{parent},{job}\n")
