import ast
import hashlib
import json
import math
import re
import shlex
import time
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

import pytest

from hybridlab import bounds, cli

SCENARIOS = resources.files("hybridlab") / "scenarios"


def scen(name: str) -> str:
    return str(SCENARIOS / name)


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# mac_noiseless_pair.json with u_j = s_j, x_j = s_j and shat_j read off y.
MAC_IDENTITY_SPEC = {
    "q_pmf": [1.0], "aux1": [[[1.0, 0.0], [0.0, 1.0]]], "aux2": [[[1.0, 0.0], [0.0, 1.0]]],
    "enc1": [[[0, 1], [0, 1]]], "enc2": [[[0, 1], [0, 1]]],
    "dec1": [[[[0, 0, 1, 1]] * 2] * 2], "dec2": [[[[0, 1, 0, 1]] * 2] * 2],
    "R1": 1.0, "R2": 1.0}
TWO_SLOT_MAC_SPEC = {
    **{k: v * 2 for k, v in MAC_IDENTITY_SPEC.items() if k.startswith(("aux", "enc", "dec"))},
    "q_pmf": [0.5, 0.5]}
# mac_correlated.json with u_j = s_j, a silent sender 1 (x1 = 0 always),
# x2 = s2, shat1 = u1 and shat2 = y.
SILENT_SENDER_SPEC = {
    "q_pmf": [1.0], "aux1": [[[1.0, 0.0], [0.0, 1.0]]], "aux2": [[[1.0, 0.0], [0.0, 1.0]]],
    "enc1": [[[0, 0], [0, 0]]], "enc2": [[[0, 1], [0, 1]]],
    "dec1": [[[[0, 0]] * 2, [[1, 1]] * 2]], "dec2": [[[[0, 1]] * 2] * 2],
    "R1": 0.5, "R2": 0.5}

PINNED_SPECS = {
    "lossless": {"px1": [0.5, 0.5], "px2": [0.5, 0.5]},
    "distributed": {"px1": [0.5, 0.5], "px2": [0.5, 0.5],
                    "k1": [[0.8, 0.2], [0.2, 0.8]], "k2": [[0.7, 0.3], [0.3, 0.7]]},
    "identity": MAC_IDENTITY_SPEC,
}
PINNED_CSV = "r,R_CS,R_AF\n0.1,1.5,1.25\n0.5,2,1.75\n0.9,1.375,1.125\n"

# Spec edits that make a spec stop fitting its scenario, run under each
# subcommand that takes the spec; each run used to exit 0 or 4.
SUBCOMMANDS = {"p2p": (["check-thm1"], ["simulate", "--n", "4", "--trials", "3"]),
               "mac": (["region-mac"], ["simulate", "--n", "2", "--trials", "3"])}
BAD_SPECS = {
    "p2p-enc-symbol": ("p2p", {"enc_map": [[0, 5], [1, 1]]}),
    "p2p-dec-columns": ("p2p", {"dec_map": [[0, 1], [0, 1]]}),
    "p2p-aux-rows": ("p2p", {"aux_kernel": [[0.7, 0.3], [0.3, 0.7], [0.5, 0.5]]}),
    "p2p-dec-symbol": ("p2p", {"dec_map": [[0, 7, 0], [0, 1, 1]]}),
    "mac-dec1-symbol": ("mac", {"dec1": [[[[0, 0, 1, 9]] * 2] * 2]}),
    "mac-dec1-last-axis": ("mac", {"dec1": [[[[0, 0, 1]] * 2] * 2]}),
    "mac-enc1-shape": ("mac", {"enc1": [[[0, 1, 1], [0, 1, 1]]]}),
    "mac-time-sharing": ("mac", TWO_SLOT_MAC_SPEC),
    "mac-aux1-row-sum": ("mac", {"aux1": [[[0.9, 0.0], [0.0, 1.0]]]}),
    "mac-aux2-negative": ("mac", {"aux2": [[[1.2, -0.2], [0.0, 1.0]]]}),
    "mac-aux1-nan": ("mac", {"aux1": [[[math.nan, 1.0], [0.0, 1.0]]]}),
}
BAD_SPEC_RUNS = [(name, sub) for name, (kind, _) in BAD_SPECS.items() for sub in SUBCOMMANDS[kind]
                 if name != "mac-time-sharing" or sub[0] == "simulate"]


def assert_not_a_number(tmp_path, capsys, argv, edits, field):
    """The run on copies of the argv's JSON files with edits applied exits 2
    and says that edits[field] is not a number."""
    paths = []
    for i, arg in enumerate(argv[1:]):
        if arg.endswith(".json"):
            doc = read_json(scen(arg))
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps({**doc, **edits} if field in doc else doc))
            paths.append(str(path))
        else:
            paths.append(arg)
    inputs = set(tmp_path.iterdir())
    assert run([argv[0], *paths, "--out", str(tmp_path / "o")]) == 2
    assert f"{field} must be a number, got {edits[field]!r}" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == inputs


class TestExitCodes:
    @pytest.mark.parametrize("name, sub", BAD_SPEC_RUNS,
                             ids=[f"{name}-{sub[0]}" for name, sub in BAD_SPEC_RUNS])
    def test_spec_that_does_not_fit_exits_2(self, tmp_path, capsys, name, sub):
        kind, edits = BAD_SPECS[name]
        if kind == "p2p":
            scenario, base = "p2p_hybrid.json", read_json(scen("p2p_hybrid_spec.json"))
        else:
            scenario, base = "mac_noiseless_pair.json", MAC_IDENTITY_SPEC
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**base, **edits}))
        assert run([sub[0], scen(scenario), "--spec", str(spec), *sub[1:],
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize("argv", [
        ["simulate", scen("lemma1.json"), "--lemma1", "--n", "2", "--eps-prime", "0"],
        ["check-thm1", scen("p2p_hybrid.json"), "--optimize", "--target-d", "NaN"],
        # inf * 0 is NaN in the slack of a zero-probability cell, which
        # used to fail every sequence and exit 0 with p_error 1.
        ["simulate", scen("p2p_hybrid.json"), "--spec", scen("p2p_hybrid_spec.json"),
         "--n", "8", "--trials", "50", "--eps", "inf", "--eps-prime", "0.5"],
        ["simulate", scen("lemma1.json"), "--lemma1", "--n", "2", "--eps-prime", "inf"],
        ["simulate", scen("lemma1.json"), "--lemma1", "--n", "2", "--min-count", "-3"],
        ["simulate", scen("lemma1.json"), "--lemma1", "--n", "2", "--min-count", "0"],
    ], ids=["lemma1-eps-prime-0", "target-d-nan", "p2p-eps-inf", "lemma1-eps-prime-inf",
            "lemma1-min-count-negative", "lemma1-min-count-0"])
    def test_bad_option_value_exits_2(self, tmp_path, capsys, argv):
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", scen("p2p_hybrid.json"), "--spec", scen("p2p_hybrid_spec.json"),
         "--n", "4", "--trials", "3"],
        ["simulate", scen("lemma1.json"), "--lemma1", "--n", "2", "--trials", "3"],
    ], ids=["p2p", "lemma1"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        # SeedSequence used to reject it inside the run, which exited 4.
        assert run(argv + ["--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_codebook_over_cap_exits_3(self, tmp_path, capsys):
        # 2^(16 * 100) codewords: the float 2^(nR) used to overflow first.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**read_json(scen("p2p_hybrid_spec.json")), "rate": 100}))
        assert run(["simulate", scen("p2p_hybrid.json"), "--spec", str(spec), "--n", "16",
                    "--trials", "1", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("resource cap: ")
        assert list(tmp_path.iterdir()) == [spec]

    def test_scan_row_grid_over_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        # Grid 400 at aux size 4 has 10827401 simplex rows of 4 entries, over
        # the 2^22 cap; building them used to take about a minute and 346 MB.
        def no_grid(*args):
            raise AssertionError("built the simplex grid before the cap check")

        monkeypatch.setattr(bounds, "simplex_grid_array", no_grid)
        assert run(["check-thm1", scen("bsc_uncoded.json"), "--optimize", "--target-d", "0.15",
                    "--grid-res", "400", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("resource cap: ")
        assert list(tmp_path.iterdir()) == []

    def test_missing_scenario_file(self, tmp_path):
        assert run(["check-thm1", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o")]) == 2

    def test_wrong_kind(self, tmp_path):
        assert run(["bounds-twrc", scen("bsc_uncoded.json"),
                    "--out", str(tmp_path / "o")]) == 2

    def test_bad_distance(self, tmp_path):
        assert run(["bounds-twrc", scen("fig8.json"), "--r", "1.5",
                    "--out", str(tmp_path / "o")]) == 2

    def test_failed_run_writes_nothing(self, tmp_path):
        # The sweep is valid on its own; the bad distance must not leave its
        # CSV behind without a JSON or a manifest.
        assert run(["bounds-twrc", scen("fig8.json"), "--sweep", "--r", "1.5",
                    "--out", str(tmp_path / "o")]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["check-thm1", scen("p2p_hybrid.json"), "--spec", scen("p2p_hybrid_spec.json")],
        ["plot", "CSV"],
    ], ids=["check-thm1", "plot"])
    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_out_needs_an_existing_directory(self, tmp_path, capsys, argv, parent):
        # The run used to do all its work and then exit 4 on the first write.
        inputs = [tmp_path / "data.csv", tmp_path / "file"]
        inputs[0].write_text(PINNED_CSV)
        inputs[1].write_text("")
        argv = [str(inputs[0]) if a == "CSV" else a for a in argv]
        assert run(argv + ["--out", str(tmp_path / parent / "o")]) == 2
        assert "is not an existing directory" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == inputs

    def test_mac_rows_must_match_encoder_alphabets(self, tmp_path):
        # The scenario declares 2 x 1 inputs for a MAC with 4 rows.  Sender 2
        # never sends its symbol 1, so the encoders fit the declared sizes.
        scenario = tmp_path / "mac.json"
        scenario.write_text(json.dumps({**read_json(scen("mac_noiseless_pair.json")),
                                        "x2_size": 1}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "q_pmf": [1.0], "aux1": [[[1, 0], [0, 1]]], "aux2": [[[1, 0], [0, 1]]],
            "enc1": [[[0, 1], [0, 1]]], "enc2": [[[0, 0], [0, 0]]],
            "dec1": [[[[0] * 4] * 2] * 2], "dec2": [[[[0] * 4] * 2] * 2]}))
        out = tmp_path / "o"
        assert run(["region-mac", str(scenario), "--spec", str(spec),
                    "--out", str(out)]) == 2
        assert sorted(tmp_path.iterdir()) == [scenario, spec]

    @pytest.mark.parametrize("sub", SUBCOMMANDS["mac"], ids=lambda sub: sub[0])
    def test_silent_sender_fits_declared_alphabets(self, tmp_path, sub):
        # Sender 1 always sends x1 = 0: its declared symbol 1 is never used.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SILENT_SENDER_SPEC))
        assert run([sub[0], scen("mac_correlated.json"), "--spec", str(spec), *sub[1:],
                    "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("sub", SUBCOMMANDS["mac"], ids=lambda sub: sub[0])
    @pytest.mark.parametrize("sizes", [{"x1_size": 1, "x2_size": 4}, {"x1_size": 4, "x2_size": 2},
                                       {"x1_size": 2, "x2_size": None}],
                             ids=["below-emitted-symbol", "product-not-rows", "missing"])
    def test_declared_mac_alphabets_must_fit(self, tmp_path, capsys, sub, sizes):
        doc = {**read_json(scen("mac_noiseless_pair.json")), **sizes}
        scenario = tmp_path / "mac.json"
        scenario.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(MAC_IDENTITY_SPEC))
        assert run([sub[0], str(scenario), "--spec", str(spec), *sub[1:],
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(tmp_path.iterdir()) == [scenario, spec]

    def test_lossless_inputs_must_span_mac_rows(self, tmp_path, capsys):
        # px1 has one symbol: the lossless encoders fit the declared 2 x 2
        # inputs, but the reduced form composes px1 x px2 with the 4 rows.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"px1": [1.0], "px2": [0.5, 0.5]}))
        assert run(["region-mac", scen("mac_correlated.json"), "--spec", str(spec),
                    "--substitution", "lossless", "--out", str(tmp_path / "o")]) == 2
        assert "must span the MAC's 4 input pairs" in capsys.readouterr().err

    def test_mac_sources_must_match_aux_kernels(self, tmp_path):
        # aux1 takes three source symbols; the scenario's sources have two.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "q_pmf": [1.0], "aux1": [[[1, 0], [0, 1], [0.5, 0.5]]], "aux2": [[[1, 0], [0, 1]]],
            "enc1": [[[0, 0, 0], [1, 1, 1]]], "enc2": [[[0, 0], [1, 1]]],
            "dec1": [[[[0] * 4] * 2] * 3], "dec2": [[[[0] * 4] * 2] * 2]}))
        assert run(["region-mac", scen("mac_noiseless_pair.json"), "--spec", str(spec),
                    "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("fields, args", [
        ({"P": -1}, ["--r", "0.5"]),
        ({"P": float("nan")}, ["--r", "0.5"]),
        ({"path_loss_exp": "x"}, ["--r", "0.5"]),
        ({"path_loss_exp": float("inf")}, ["--r", "0.5"]),
        ({"r_grid": [0.5, 1.5]}, ["--sweep"]),
        ({"r_grid": [0.0, 0.5]}, ["--sweep"]),
        ({"r_grid": []}, ["--sweep"]),
        ({"P": 1e200}, ["--r", "0.5"]),
        ({"P": 1e200}, ["--sweep"]),
    ], ids=["P-negative", "P-nan", "ple-not-number", "ple-inf", "r-grid-above-1",
            "r-grid-0", "r-grid-empty", "P-snr-over-bound", "P-snr-over-bound-sweep"])
    def test_twrc_scenario_numbers(self, tmp_path, capsys, fields, args):
        scenario = tmp_path / "twrc.json"
        scenario.write_text(json.dumps({"kind": "twrc_gaussian", **fields}))
        assert run(["bounds-twrc", str(scenario), *args,
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [scenario]

    def test_diamond_over_cap_exits_3(self, tmp_path, capsys):
        # Ternary relays at grid 6 hold 21952 x 21952 hybrid candidates per
        # source pmf, over the 2^22 cap.
        scenario = tmp_path / "diamond.json"
        cyclic = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        scenario.write_text(json.dumps({"kind": "diamond", "y2_map": [0, 1, 2],
                                        "y3_map": [0, 1, 2], "y4_map": cyclic,
                                        "x2_size": 3, "x3_size": 3}))
        start = time.perf_counter()
        assert run(["bounds-diamond", str(scenario), "--grid-res", "6",
                    "--out", str(tmp_path / "o")]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("resource cap: ")

    @pytest.mark.parametrize("field, value", [
        ("source", [float("nan"), 1.0]),
        ("distortion", [[0, float("nan")], [1, 0]]),
    ], ids=["source-nan", "distortion-nan"])
    def test_non_finite_scenario_entry(self, tmp_path, capsys, field, value):
        # json reads NaN, which used to pass every check and reach the output.
        scenario = tmp_path / "p2p.json"
        scenario.write_text(json.dumps({**read_json(scen("p2p_hybrid.json")), field: value}))
        assert run(["check-thm1", str(scenario), "--spec", scen("p2p_hybrid_spec.json"),
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: field {field!r}")
        assert list(tmp_path.iterdir()) == [scenario]

    def test_two_slot_time_sharing_region(self, tmp_path):
        # Only the simulator needs a trivial time-sharing alphabet.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(TWO_SLOT_MAC_SPEC))
        assert run(["region-mac", scen("mac_noiseless_pair.json"), "--spec", str(spec),
                    "--out", str(tmp_path / "o")]) == 0

    def test_optimize_needs_target(self, tmp_path):
        assert run(["check-thm1", scen("bsc_uncoded.json"), "--optimize",
                    "--out", str(tmp_path / "o")]) == 2

    def test_simulate_needs_spec(self, tmp_path):
        assert run(["simulate", scen("bsc_uncoded.json"),
                    "--out", str(tmp_path / "o")]) == 2

    def test_invalid_distribution(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "p2p", "source": [0.9, 0.3],
                                   "channel": [[1.0, 0.0], [0.0, 1.0]],
                                   "distortion": [[0, 1], [1, 0]]}))
        assert run(["check-thm1", str(bad), "--spec", scen("bsc_uncoded_spec.json"),
                    "--out", str(tmp_path / "o")]) == 2


    @pytest.mark.parametrize("flag", ["--aux-cap", "--grid-res"])
    def test_optimize_needs_positive_sizes(self, tmp_path, flag):
        assert run(["check-thm1", scen("bsc_uncoded.json"), "--optimize",
                    "--target-d", "0.15", flag, "0",
                    "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("snr", [-1.0, float("nan"), float("inf"), 1e16],
                             ids=["negative", "nan", "inf", "over-bound"])
    def test_explicit_snr_must_be_finite_nonnegative(self, tmp_path, snr):
        scenario = tmp_path / "snr.json"
        scenario.write_text(json.dumps({"kind": "twrc_gaussian", "S13": snr,
                                        "S23": 1.0, "S31": 1.0, "S32": 1.0}))
        assert run(["bounds-twrc", str(scenario), "--out", str(tmp_path / "o")]) == 2

    def test_mac_pair_search_over_cap_exits_3(self, tmp_path):
        # Identity maps at n = 9, R = 1: 512 x 512 pairs over 16 cells hold
        # 4.2 M count entries, over the 2^22 cap, where m1 * m2 * n is 2.4 M.
        identity = [[[1.0, 0.0], [0.0, 1.0]]]
        dec = [[[[0, 0, 1, 1]] * 2] * 2], [[[[0, 1, 0, 1]] * 2] * 2]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "q_pmf": [1.0], "aux1": identity, "aux2": identity,
            "enc1": [[[0, 1], [0, 1]]], "enc2": [[[0, 1], [0, 1]]],
            "dec1": dec[0], "dec2": dec[1], "R1": 1.0, "R2": 1.0}))
        assert run(["simulate", scen("mac_noiseless_pair.json"), "--spec", str(spec),
                    "--n", "9", "--trials", "1", "--eps", "0.75", "--eps-prime", "0.5",
                    "--out", str(tmp_path / "o")]) == 3

    def test_diamond_needs_positive_grid(self, tmp_path):
        assert run(["bounds-diamond", scen("example1.json"), "--grid-res", "0",
                    "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("maps", [
        {"y4_map": [[0, 1]]},
        {"y4_map": [[0, 1], [1, 2], [2, 0]]},
        {"y4_map": [[0, -1], [1, 2]]},
        {"y4_map": [[0, 1.5], [1, 2]]},
        {"y4_map": [[0, 1], [1]]},
        {"y3_map": [0, 1]},
        {"y2_map": [[0, 0, 1]]},
        {"y2_map": [], "y3_map": []},
        {"x2_size": 0, "y4_map": [[], []]},
    ], ids=["y4-rows", "y4-extra-row", "y4-negative", "y4-fraction", "y4-ragged",
            "y3-length", "y2-2d", "y2-empty", "x2-size-0"])
    def test_diamond_stage_maps_match_declared_sizes(self, tmp_path, maps):
        scenario = tmp_path / "diamond.json"
        doc = read_json(scen("example1.json"))
        scenario.write_text(json.dumps({**doc, **maps}))
        assert run(["bounds-diamond", str(scenario), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("args", [
        ["--n", "0"],
        ["--trials", "0"],
        ["--eps", "-1"],
        ["--n-sweep", "8,x"],
    ], ids=["n-0", "trials-0", "eps-negative", "n-sweep-not-int"])
    def test_simulate_bad_numbers(self, tmp_path, capsys, args):
        assert run(["simulate", scen("p2p_hybrid.json"),
                    "--spec", scen("p2p_hybrid_spec.json"), *args,
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_lemma1_needs_two_codewords(self, tmp_path, capsys, n):
        # lemma1.json has rate 0.5: n = 1 gives floor(2^0.5) = 1 codeword.
        assert run(["simulate", scen("lemma1.json"), "--lemma1", "--n", n,
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("relay_map", [[[0, 2], [1, 1]], [[0, 0, 1], [1, 1, 0]]],
                             ids=["symbol", "shape"])
    def test_relay_map_outside_alphabet(self, tmp_path, relay_map):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"px1": [0.5, 0.5], "px2": [0.5, 0.5],
                                    "relay_kernel": [[1, 0], [0, 1]],
                                    "relay_map": relay_map}))
        assert run(["check-thm3", scen("twrc_xor.json"), "--spec", str(spec),
                    "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv, field, value", [
        (["bounds-diamond", "example1.json"], "x2_size", 2.7),
        (["region-mac", "mac_correlated.json", "--spec", SILENT_SENDER_SPEC], "x1_size", 2.5),
        (["check-thm1", "p2p_hybrid.json", "--spec", "p2p_hybrid_spec.json"], "aux_size", 2.9),
        (["check-thm3", "twrc_xor.json", "--spec", "twrc_xor_spec.json"], "y1_size", 2.5),
    ], ids=["diamond-x2-size", "mac-x1-size", "spec-aux-size", "thm3-y1-size"])
    def test_fractional_size_exits_2(self, tmp_path, capsys, argv, field, value):
        # int() used to truncate each of these to 2, and the run exited 0.
        def argv_with(size):
            out = []
            for i, arg in enumerate(argv):
                if isinstance(arg, dict) or arg.endswith(".json"):
                    doc = arg if isinstance(arg, dict) else read_json(scen(arg))
                    path = tmp_path / f"{i}.json"
                    path.write_text(json.dumps({**doc, field: size} if field in doc else doc))
                    arg = str(path)
                out.append(arg)
            return out + ["--out", str(tmp_path / "o")]

        assert run(argv_with(2.0)) == 0
        assert run(argv_with(value)) == 2
        assert f"{field} must be a whole number, got {value}" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, edits", [
        (["bounds-diamond", "example1.json"], {"x2_size": True, "y4_map": [[0, 1]]}),
        (["check-thm1", "p2p_hybrid.json", "--spec", "p2p_hybrid_spec.json"], {"rate": True}),
    ], ids=["diamond-x2-size", "spec-rate"])
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, argv, edits):
        # float(True) is 1.0, so each of these used to run and exit 0.
        (field,) = [k for k in edits if edits[k] is True]
        assert_not_a_number(tmp_path, capsys, argv, edits, field)

    @pytest.mark.parametrize("argv, field, value", [
        (["bounds-diamond", "example1.json"], "x2_size", "2"),
        (["check-thm1", "p2p_hybrid.json", "--spec", "p2p_hybrid_spec.json"], "rate", "0.35"),
    ], ids=["diamond-x2-size", "spec-rate"])
    def test_json_string_is_not_a_number(self, tmp_path, capsys, argv, field, value):
        # float("2") is 2.0, so each of these used to run and exit 0.
        assert_not_a_number(tmp_path, capsys, argv, {field: value}, field)


class TestBoundsTwrc:
    def test_single_distance_schemes(self, tmp_path):
        out = str(tmp_path / "twrc")
        assert run(["bounds-twrc", scen("fig8.json"), "--r", "0.5",
                    "--out", out]) == 0
        doc = read_json(out + ".json")
        sums = {k: v["sum_rate"] for k, v in doc["schemes"].items()}
        assert set(sums) == {"cutset", "af", "nnc", "hc_special", "hc_general"}
        assert sums["cutset"] >= sums["hc_general"] >= sums["nnc"] - 1e-6

    def test_sweep_writes_csv(self, tmp_path):
        out = str(tmp_path / "sweep")
        assert run(["bounds-twrc", scen("fig8.json"), "--sweep",
                    "--out", out]) == 0
        lines = open(out + ".csv").read().splitlines()
        assert lines[0] == "r,R_CS,R_AF,R_NNC,R_HC"
        assert len(lines) == 20

    def test_only_distance_output_carries_parameters(self, tmp_path):
        base = {"R1", "R2", "sum_rate", "label"}
        assert run(["bounds-twrc", scen("fig8.json"), "--r", "0.3",
                    "--out", str(tmp_path / "r")]) == 0
        schemes = read_json(str(tmp_path / "r.json"))["schemes"]
        assert {k: set(v) for k, v in schemes.items()} == {
            k: base | {"alpha", "beta", "sigma2"} for k in schemes}
        assert schemes["af"]["alpha"] is None and schemes["hc_general"]["sigma2"] > 0
        scenario = tmp_path / "snr.json"
        scenario.write_text(json.dumps({"kind": "twrc_gaussian", "S13": 3.5,
                                        "S23": 0.7, "S31": 12.0, "S32": 2.25}))
        assert run(["bounds-twrc", str(scenario), "--out", str(tmp_path / "s")]) == 0
        schemes = read_json(str(tmp_path / "s.json"))["schemes"]
        assert len(schemes) == 5
        assert all(set(v) == base for v in schemes.values())

    # Zero and tiny SNRs next to ones at the bound: above it, hc_general
    # divides by zero on such channels.
    @pytest.mark.parametrize("snrs", [(1e15, 1e15, 1e15, 1e15), (0.0, 1e15, 1e-3, 0.0),
                                      (1e15, 0.0, 0.0, 1e15), (1e-9, 1e15, 1e15, 0.5)])
    def test_snrs_at_the_bound_give_finite_rates(self, tmp_path, snrs):
        scenario = tmp_path / "snr.json"
        scenario.write_text(json.dumps({"kind": "twrc_gaussian",
                                        **dict(zip(("S13", "S23", "S31", "S32"), snrs))}))
        assert run(["bounds-twrc", str(scenario), "--out", str(tmp_path / "s")]) == 0
        schemes = read_json(str(tmp_path / "s.json"))["schemes"]
        assert len(schemes) == 5
        assert all(math.isfinite(row[k]) for row in schemes.values()
                   for k in ("R1", "R2", "sum_rate"))

    # sha256 of the bytes bounds-twrc writes for fig8.json.  The optimizers'
    # bookkeeping may change; these outputs may not.
    @pytest.mark.parametrize("args, suffix, digest", [
        (["--r", "0.3"], ".json", "6289e002207fdddd0d4f982c9068f40b523c2c091b1884e7e3dbb8971e5a3309"),
        (["--r", "0.5"], ".json", "82853318a5e9b7b716b35008e0b8416ac33fca36bdad71c760d9344139f5b2dd"),
        (["--r", "0.7"], ".json", "ccf8cc79a5a49e69bf2fcf4b86d77122ad295d5adb30a76d3a432a3b74044a33"),
        (["--sweep"], ".csv", "b820c0f822d555195b7ee014b668754a62e6a74b6eee0883ce00e1af7bf96baf"),
    ], ids=["r0.3", "r0.5", "r0.7", "sweep"])
    def test_fig8_outputs_are_pinned(self, tmp_path, args, suffix, digest):
        out = str(tmp_path / "fig8")
        assert run(["bounds-twrc", scen("fig8.json"), *args, "--out", out]) == 0
        with open(out + suffix, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


class TestBoundsDiamond:
    def test_reference_network(self, tmp_path):
        out = str(tmp_path / "dia")
        assert run(["bounds-diamond", scen("example1.json"), "--out", out]) == 0
        doc = read_json(out + ".json")
        assert doc["hybrid"] == pytest.approx(math.log2(3), abs=1e-9)
        assert doc["adt"] == pytest.approx(1.5, abs=1e-9)
        assert doc["cutset"] == pytest.approx(math.log2(3), abs=1e-9)

    def test_zero_rates_print_without_sign(self, tmp_path):
        # Relays that see nothing of the source: every family's rate is 0,
        # which -sum(p log p) of a point mass used to give as -0.0.
        scenario = tmp_path / "diamond.json"
        scenario.write_text(json.dumps({"kind": "diamond", "y2_map": [0, 0], "y3_map": [0, 0],
                                        "y4_map": [[0, 1], [1, 0]],
                                        "x2_size": 2, "x3_size": 2}))
        out = str(tmp_path / "dia")
        assert run(["bounds-diamond", str(scenario), "--out", out]) == 0
        with open(out + ".json") as fh:
            assert "-0.0" not in fh.read()
        res = bounds.det_diamond_bounds([0, 0], [0, 0], [[0, 1], [1, 0]], 2, 2)
        assert [math.copysign(1.0, v) for v in (res.hybrid, res.adt, res.cutset)] == [1.0] * 3


class TestRegionMac:
    def test_spec_check(self, tmp_path):
        out = str(tmp_path / "mac")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"substitution": "lossless",
                                    "px1": [0.5, 0.5], "px2": [0.5, 0.5]}))
        assert run(["region-mac", scen("mac_correlated.json"),
                    "--spec", str(spec), "--substitution", "lossless",
                    "--out", out]) == 0
        doc = read_json(out + ".json")
        assert len(doc["report"]["constraints"]) == 3
        assert len(doc["reduced_constraints"]) == 3
        for c, (lhs, rhs) in zip(doc["report"]["constraints"],
                                 doc["reduced_constraints"]):
            assert c["lhs"] == pytest.approx(lhs, abs=1e-12)
            assert c["rhs"] == pytest.approx(rhs, abs=1e-12)


class TestCheckThm1:
    def test_spec_evaluation(self, tmp_path):
        out = str(tmp_path / "t1")
        assert run(["check-thm1", scen("p2p_hybrid.json"),
                    "--spec", scen("p2p_hybrid_spec.json"), "--out", out]) == 0
        doc = read_json(out + ".json")
        assert doc["report"]["satisfied"] is True

    def test_optimize_small_grid(self, tmp_path):
        out = str(tmp_path / "opt")
        assert run(["check-thm1", scen("bsc_uncoded.json"), "--optimize",
                    "--target-d", "0.3", "--aux-cap", "2", "--grid-res", "4",
                    "--out", out]) == 0
        doc = read_json(out + ".json")
        assert doc["report"]["info"]["achievable"] is True


class TestCheckThm3:
    def test_xor_network(self, tmp_path):
        out = str(tmp_path / "t3")
        assert run(["check-thm3", scen("twrc_xor.json"),
                    "--spec", scen("twrc_xor_spec.json"), "--out", out]) == 0
        doc = read_json(out + ".json")
        assert doc["report"]["info"]["R1"] == pytest.approx(1.0, abs=1e-12)
        assert doc["report"]["info"]["R2"] == pytest.approx(1.0, abs=1e-12)


class TestSimulate:
    def test_p2p_run_and_manifest(self, tmp_path):
        out = str(tmp_path / "sim")
        assert run(["simulate", scen("p2p_hybrid.json"),
                    "--spec", scen("p2p_hybrid_spec.json"),
                    "--n", "8", "--trials", "40",
                    "--eps", "0.75", "--eps-prime", "0.5",
                    "--out", out]) == 0
        doc = read_json(out + ".json")
        assert len(doc["aggregates"]) == 1
        manifest = read_json(out + ".manifest.json")
        assert manifest["subcommand"] == "simulate"
        assert manifest["root_seed"] == 0

    def test_n_sweep(self, tmp_path):
        out = str(tmp_path / "sweep")
        assert run(["simulate", scen("p2p_hybrid.json"),
                    "--spec", scen("p2p_hybrid_spec.json"),
                    "--n-sweep", "8,12", "--trials", "20",
                    "--eps", "0.75", "--eps-prime", "0.5",
                    "--out", out]) == 0
        doc = read_json(out + ".json")
        assert [row["n"] for row in doc["aggregates"]] == [8, 12]

    def test_eps_prime_flag_wins_over_scenario(self, tmp_path):
        # lemma1.json fixes eps_prime = 0.25; every value from 0.1 to 0.9
        # keeps the same trials at n = 2, so the flag is set to 1.0.
        outs = {}
        for name, flag in (("scenario", []), ("flag", ["--eps-prime", "1.0"])):
            out = str(tmp_path / name)
            assert run(["simulate", scen("lemma1.json"), "--lemma1", "--n", "2",
                        "--trials", "300", "--min-count", "10", *flag, "--out", out]) == 0
            outs[name] = out
        assert open(outs["scenario"] + ".json").read() != open(outs["flag"] + ".json").read()
        assert read_json(outs["scenario"] + ".manifest.json")["options"]["eps_prime"] == 0.25
        assert read_json(outs["flag"] + ".manifest.json")["options"]["eps_prime"] == 1.0

    def test_coding_runs_default_eps_prime(self, tmp_path):
        out = str(tmp_path / "sim")
        assert run(["simulate", scen("p2p_hybrid.json"),
                    "--spec", scen("p2p_hybrid_spec.json"),
                    "--n", "8", "--trials", "5", "--eps", "0.75", "--out", out]) == 0
        assert read_json(out + ".manifest.json")["options"]["eps_prime"] == 0.2

    def test_lemma1_mode(self, tmp_path):
        out = str(tmp_path / "lem")
        assert run(["simulate", scen("lemma1.json"), "--lemma1",
                    "--n", "2", "--trials", "500", "--min-count", "10",
                    "--out", out]) == 0
        doc = read_json(out + ".json")
        check = doc["independence_check"]
        assert check["kept"] <= check["trials"] == 500

    def test_lemma1_cell_keys_are_plain_integers(self, tmp_path):
        # Keys are repr((codeword 0, source block)) of Python ints, which
        # numpy 1.x and 2.x print alike.
        out = str(tmp_path / "lem")
        assert run(["simulate", scen("lemma1.json"), "--lemma1", "--n", "2",
                    "--trials", "500", "--min-count", "10", "--out", out]) == 0
        keys = read_json(out + ".json")["independence_check"]["cells"]
        assert keys
        for key in keys:
            cell = ast.literal_eval(key)
            assert repr(cell) == key
            assert all(type(v) is int for block in cell for v in block)


class TestPlot:
    def test_svg_from_csv(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("x,a,b\n0,1,2\n1,2,1\n2,0,3\n")
        out = str(tmp_path / "fig")
        assert run(["plot", str(csv_path), "--out", out]) == 0
        svg = open(out + ".svg").read()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2

    def test_deterministic_bytes(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("x,a\n0,1\n1,3\n")
        a, b = str(tmp_path / "f1"), str(tmp_path / "f2")
        assert run(["plot", str(csv_path), "--out", a]) == 0
        assert run(["plot", str(csv_path), "--out", b]) == 0
        assert open(a + ".svg", "rb").read() == open(b + ".svg", "rb").read()

    def test_markup_in_header_is_escaped(self, tmp_path):
        # The header used to go into the SVG verbatim, which expat rejects.
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("r&s,a<b&c\n0,1\n1,2\n")
        out = str(tmp_path / "fig")
        assert run(["plot", str(csv_path), "--out", out]) == 0
        root = ElementTree.parse(out + ".svg").getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "r&s" in texts and "a<b&c" in texts

    def test_too_few_rows(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("x,a\n")
        assert run(["plot", str(csv_path), "--out", str(tmp_path / "f")]) == 2

    def test_blank_data_rows_exit_2(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("x,a\n\n\n")
        assert run(["plot", str(csv_path), "--out", str(tmp_path / "f")]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_2(self, tmp_path, cell):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(f"x,a\n0,1\n1,{cell}\n")
        assert run(["plot", str(csv_path), "--out", str(tmp_path / "f")]) == 2
        assert list(tmp_path.iterdir()) == [csv_path]


class TestPinnedOutputs:
    # sha256 of the bytes each deterministic subcommand writes.  "SPEC" in
    # an argv stands for a file holding PINNED_SPECS[spec], "CSV" for one
    # holding PINNED_CSV.  bounds-twrc is pinned by test_fig8_outputs_are_pinned
    # and the simulator by tests/data/sim_pins.json.
    @pytest.mark.parametrize("argv, spec, suffix, digest", [
        (["bounds-diamond", scen("example1.json")], None, ".json",
         "d127bec4dce4ff1b119a28dd2fd4b23b4819ff51bdf7b97a36a95e3af27599c0"),
        (["region-mac", scen("mac_correlated.json"), "--spec", "SPEC",
          "--substitution", "lossless"], "lossless", ".json",
         "ce838f6deef6446ab00671b175c5039e6b0ea0d97fa72f7678fb31c8030f4561"),
        (["region-mac", scen("mac_noiseless_pair.json"), "--spec", "SPEC",
          "--substitution", "distributed"], "distributed", ".json",
         "1ac7dffe2157e09ee5acce1ca10c0a0e655bedfb7c9364588ee725c8f94818bc"),
        (["region-mac", scen("mac_noiseless_pair.json"), "--spec", "SPEC"], "identity", ".json",
         "fd91e4f3389bc1ccf558cd8604c93b5e4babf16f320cec73751f6744a5d2090f"),
        (["check-thm1", scen("p2p_hybrid.json"), "--spec", scen("p2p_hybrid_spec.json")],
         None, ".json", "63248eafc41a25f8fcdb167a0f598ef368371ef61c3c0e585d73f0011cf56942"),
        (["check-thm1", scen("bsc_uncoded.json"), "--spec", scen("bsc_uncoded_spec.json")],
         None, ".json", "55ffa41c3c835d90ef78497e115c15a9e3b66655494b90f9a906588305f3973e"),
        (["check-thm1", scen("p2p_hybrid.json"), "--spec", scen("p2p_underrate_spec.json")],
         None, ".json", "6cd8b9a8b6eb3a684c21b9a7b57eb18b90bbb6a3ea51ca6a94537172ea36941f"),
        (["check-thm1", scen("bsc_uncoded.json"), "--optimize", "--target-d", "0.15",
          "--aux-cap", "3", "--grid-res", "6"], None, ".json",
         "b565942ad869888fec04e7f7507f362ec64a188f9fdcb1de89e38ea6ad06a3a2"),
        (["check-thm3", scen("twrc_xor.json"), "--spec", scen("twrc_xor_spec.json")],
         None, ".json", "cb98e76c21142470636952206108efa49b075008ca64752a94697243c60e7b27"),
        (["plot", "CSV"], None, ".svg",
         "146cc91ec2a2f916740b1644789e7d972bf937e5cfb31e24d4ca7c74caf420b8"),
    ], ids=["diamond", "mac-lossless", "mac-distributed", "mac-identity", "thm1-hybrid",
            "thm1-uncoded", "thm1-underrate", "thm1-optimize", "thm3-xor", "plot"])
    def test_outputs_are_pinned(self, tmp_path, argv, spec, suffix, digest):
        files = {"SPEC": tmp_path / "spec.json", "CSV": tmp_path / "data.csv"}
        files["SPEC"].write_text(json.dumps(PINNED_SPECS.get(spec)))
        files["CSV"].write_text(PINNED_CSV)
        out = str(tmp_path / "out")
        assert run([str(files.get(a, a)) for a in argv] + ["--out", out]) == 0
        with open(out + suffix, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


class TestParser:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()


def readme_commands() -> list[str]:
    """The `hybridlab ...` lines of README's sh blocks, continuations joined."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        lines += block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("hybridlab ")]


class TestReadme:
    def test_cli_examples_run_as_written(self, tmp_path, monkeypatch):
        # Each command runs in order, so later ones read what earlier ones
        # wrote (plot reads sweep.csv); $SCEN is the bundled scenarios.
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert len(commands) == 10
        for line in commands:
            argv = shlex.split(line.replace("$SCEN", str(SCENARIOS)), comments=True)
            assert run(argv[1:]) == 0, line


class TestReplay:
    def test_manifest_replay_byte_identical(self, tmp_path):
        out = str(tmp_path / "dia")
        assert run(["bounds-diamond", scen("example1.json"), "--out", out]) == 0
        manifest_path = out + ".manifest.json"
        original = read_json(manifest_path)["outputs"]
        fresh = cli.replay_manifest(manifest_path)
        assert fresh == original

    @pytest.mark.parametrize("argv, key, value", [
        (["simulate", scen("p2p_hybrid.json"), "--spec", scen("p2p_hybrid_spec.json"),
          "--n", "8", "--trials", "20", "--eps", "0.75", "--eps-prime", "0.5"], "jobs", 4),
        (["check-thm1", scen("p2p_hybrid.json"), "--spec", scen("p2p_hybrid_spec.json")],
         "margin", 1e-9),
    ], ids=["simulate-jobs", "check-thm1-margin"])
    def test_stale_jobs_option_still_replays(self, tmp_path, argv, key, value):
        # Manifests written while the CLI had the --jobs and --margin flags
        # record them in their options; replaying one must ignore them.
        out = str(tmp_path / "run")
        assert run(argv + ["--out", out]) == 0
        manifest_path = out + ".manifest.json"
        manifest = read_json(manifest_path)
        assert key not in manifest["options"]
        manifest["options"][key] = value
        cli.write_json(manifest_path, manifest)
        assert cli.replay_manifest(manifest_path) == manifest["outputs"]
