"""Command-line surface: compute, verify, report, exit codes, determinism."""

import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import katokit
from katokit import calculus, cli, kato
from katokit.cli import main
from katokit.grid import (
    constant_field,
    coordinate_axes,
    field_from_values,
    from_spectrum,
    make_bump,
    make_grid,
    save_field,
)
from katokit.weights import multi_order
from katokit.sobolev import h_norm
from katokit.psido import hs_identity_gap, self_dual_period, symbol_l2_norm, make_symbol

TWO_PI = 2.0 * math.pi


@pytest.fixture()
def constant_path(tmp_path):
    spec = make_grid(1, 128)
    path = tmp_path / "one.fld"
    save_field(constant_field(spec), path)
    return path


# ---------------------------------------------------------------------------
# compute


def test_compute_h_norm_of_constant(constant_path, capsys):
    rc = main(["compute", "h-norm", "--field", str(constant_path), "--order", "1"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out == f"{math.sqrt(TWO_PI):.12g}"


def test_compute_l2_of_constant(constant_path, capsys):
    rc = main(["compute", "l2", "--field", str(constant_path)])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(math.sqrt(TWO_PI), rel=1e-12)


def test_compute_kato_norm_carries_period_factor(constant_path, capsys):
    # for u = 1 the p=2 amalgam norm is L^{1/2} ||chi||_{H^s} with the
    # default window; recompute the right side in-process
    rc = main(["compute", "kato-norm", "--field", str(constant_path), "--order", "1", "--p", "2"])
    assert rc == 0
    got = float(capsys.readouterr().out)
    spec = make_grid(1, 128)
    chi = make_bump(
        spec,
        [(spec.period / 8, 7 * spec.period / 8)],
        [(spec.period / 3, 2 * spec.period / 3)],
    )
    want = math.sqrt(spec.period) * h_norm(chi.field, multi_order(1.0, (1,)))
    assert got == pytest.approx(want, rel=1e-10)


def test_compute_schatten_matches_hilbert_schmidt_identity(tmp_path, capsys):
    n_samp = 16
    period = self_dual_period(n_samp)
    spec = make_grid(2, n_samp, period=period, blocks=(1, 1))
    rng = np.random.default_rng(12)
    field = field_from_values(spec, rng.standard_normal(spec.shape))
    path = tmp_path / "sym.fld"
    save_field(field, path)
    rc = main(["compute", "schatten", "--field", str(path), "--p", "2", "--tau", "0.5"])
    assert rc == 0
    got = float(capsys.readouterr().out)
    sym = make_symbol(field, 1, multi_order((0.0, 0.0), (1, 1)))
    want = TWO_PI ** (-0.5) * symbol_l2_norm(sym)
    assert got == pytest.approx(want, rel=1e-8)


def test_compute_writes_json_payload(constant_path, tmp_path, capsys):
    out = tmp_path / "value.json"
    rc = main(["compute", "sup", "--field", str(constant_path), "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "sup"
    assert payload["value"] == pytest.approx(1.0)


def test_compute_rejects_odd_grid_for_schatten(tmp_path, capsys):
    spec = make_grid(1, 16)
    path = tmp_path / "onedim.fld"
    save_field(constant_field(spec), path)
    rc = main(["compute", "schatten", "--field", str(path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["h-norm", "kato-norm"])
def test_compute_refuses_non_finite_sample(tmp_path, capsys, kind):
    samples = np.ones(128, dtype=np.complex128)
    samples[5] = np.nan
    path = tmp_path / "nan.fld"
    save_field(field_from_values(make_grid(1, 128), samples), path)
    rc = main(["compute", kind, "--field", str(path), "--order", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err and "index 5" in captured.err


def test_compute_refuses_a_header_that_describes_no_grid(tmp_path, capsys):
    path = tmp_path / "negative-period.fld"
    save_field(constant_field(make_grid(1, 16)), path)
    raw = bytearray(path.read_bytes())
    raw[16:24] = np.float64(-1.0).tobytes()  # the period, after magic, version, dim and N
    path.write_bytes(bytes(raw))
    rc = main(["compute", "l2", "--field", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: header describes no grid: period must be positive and finite, got -1.0")


@pytest.mark.parametrize(
    "kind, option, count",
    [
        ("sw-norm", "--points-per-axis", "-2"),
        ("kato-norm", "--points-per-axis", "-2"),
        ("kato-norm", "--points-per-axis", "0"),
        ("kato-norm", "--cells", "-4"),
        ("kato-norm", "--cells", "0"),
    ],
)
def test_compute_refuses_non_positive_lattice_count(constant_path, capsys, kind, option, count):
    rc = main(["compute", kind, "--field", str(constant_path), option, count])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {count} lattice points per axis must be a positive divisor" in captured.err


@pytest.mark.parametrize(
    "kind, options, option",
    [
        ("h-norm", ["--order", "abc"], "--order"),
        ("kato-norm", ["--p", "abc"], "--p"),
        ("kato-norm", ["--window-support", "1,x"], "--window-support"),
        ("sw-norm", ["--window-support", "1,5", "--window-plateau", "2,y"], "--window-plateau"),
    ],
)
def test_compute_refuses_malformed_number(constant_path, capsys, kind, options, option):
    rc = main(["compute", kind, "--field", str(constant_path), *options])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {option} must be a number" in captured.err


@pytest.mark.parametrize(
    "kind, options, option",
    [
        ("kato-norm", ["--points-per-axis", "64", "--cells", "4"], "--points-per-axis"),
        ("sw-norm", ["--cells", "4"], "--cells"),
        ("h-norm", ["--tau", "0.3"], "--tau"),
        ("sw-norm", ["--order", "1"], "--order"),
        ("l2", ["--p", "2"], "--p"),
        ("kato-norm", ["--window-plateau", "2,4"], "--window-plateau"),
    ],
)
def test_compute_refuses_option_that_does_not_apply(constant_path, capsys, kind, options, option):
    rc = main(["compute", kind, "--field", str(constant_path), *options])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {option} does not apply" in captured.err


def test_compute_kato_norm_p2_on_2d_n256(tmp_path, capsys, monkeypatch):
    # 65,536 translates of 65,536 points each took minutes on the physical
    # route; the full-grid p = 2 route transforms none of them
    n_samp = 256
    spec = make_grid(2, n_samp)
    modes = {(0, 0): 2.0, (3, 0): 0.5 - 0.25j, (-5, 7): 0.3j, (40, -90): 1e-3}
    coeffs = np.zeros(spec.shape, dtype=np.complex128)
    for k, a in modes.items():
        coeffs[k] = a
    path = tmp_path / "waves.fld"
    save_field(from_spectrum(spec, coeffs), path)

    def refuse(*args):
        raise AssertionError("the full-grid p = 2 route transformed a translate")

    monkeypatch.setattr(kato, "windowed_spectra", refuse)
    rc = main(["compute", "kato-norm", "--field", str(path), "--order", "1", "--p", "2"])
    assert rc == 0
    got = float(capsys.readouterr().out)

    # sum_y |c_k(u tau_y chi)|^2 = N^n sum_m |u_m|^2 |chi_{k-m}|^2: for a few
    # plane waves u_m, a sum of shifted copies of the window power spectrum
    length = spec.period
    chi = make_bump(spec, [(length / 8, 7 * length / 8)] * 2, [(length / 3, 2 * length / 3)] * 2)
    chi_power = np.abs(np.fft.fft2(chi.field.samples) / spec.num_points) ** 2
    power = sum(abs(a) ** 2 * np.roll(chi_power, k, axis=(0, 1)) for k, a in modes.items())
    xi = TWO_PI / length * np.fft.fftfreq(n_samp, d=1.0 / n_samp)
    weight_sq = 1.0 + xi[:, None] ** 2 + xi[None, :] ** 2
    # quadrature weight (L/N)^2 times L^2 from the spectra, times N^2 from the identity
    want = math.sqrt((length / n_samp) ** 2 * length**2 * spec.num_points * float(np.sum(weight_sq * power)))
    assert got == pytest.approx(want, rel=1e-11)


# ---------------------------------------------------------------------------
# verify


def test_verify_peetre_passes(tmp_path, capsys):
    out = tmp_path / "rep"
    rc = main(["verify", "peetre", "--out", str(out), "--seed", "3"])
    assert rc == 0
    assert "peetre" in capsys.readouterr().out
    report = json.loads((out / "peetre.json").read_text())
    assert report["verdict"] == "PASS"
    assert all(case["max_ratio"] <= 1.0 for case in report["cases"] if "max_ratio" in case)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["overall"] == "PASS"


def test_verify_calderon_quadrature_bounds_cover_the_errors(tmp_path, monkeypatch):
    # every contour the suite runs with the default node choice, directly or
    # through invert, divide, the chain rule and the witnesses, is also run
    # at 16 nodes: both bounds must cover the observed pointwise error
    contour = calculus.calderon_apply
    calls = []

    def spy(fields, fn, spec=None):
        result = contour(fields, fn, spec)
        if spec is None:
            calls.append((fields, fn, result))
        return result

    monkeypatch.setattr(calculus, "calderon_apply", spy)
    monkeypatch.setattr(cli, "calderon_apply", spy)
    out = tmp_path / "rep"
    assert main(["verify", "calderon", "--out", str(out), "--seed", "7"]) == 0
    assert len(calls) == 9
    floor = calculus.ContourSpec(nodes_per_circle=16, tolerance=math.inf, drift_tolerance=math.inf)
    for fields, fn, result in calls:
        assert result.pointwise_error <= result.quadrature_bound <= calculus.ContourSpec().tolerance
        coarse = contour(fields, fn, floor)
        assert coarse.pointwise_error <= coarse.quadrature_bound
    cases = [c for c in json.loads((out / "calderon.json").read_text())["cases"] if "quadrature_bound" in c]
    assert len(cases) == 4
    assert all(c["pointwise_error"] <= c["quadrature_bound"] <= 1e-8 for c in cases)


@pytest.mark.parametrize("suite", ["calderon", "weight-conv"])
def test_verify_suite_traced_peak_under_ceiling(tmp_path, suite):
    # at seed 7 calderon traces ~13 MiB with one contour node row per call
    # (31 MiB with four-row chunks), weight-conv ~16 MiB summing over an
    # open grid (24 MiB with dense coordinates). numpy reports its buffers
    # to tracemalloc.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rc = main(["verify", suite, "--out", str(tmp_path / "rep"), "--seed", "7"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 20 * 2**20


def test_verify_mollifier_rate_slope_near_unit_gap(tmp_path):
    out = tmp_path / "rep"
    rc = main(["verify", "mollifier-rate", "--out", str(out), "--seed", "3"])
    assert rc == 0
    report = json.loads((out / "mollifier-rate.json").read_text())
    assert report["verdict"] == "PASS"
    unit_gap = [
        c
        for c in report["cases"]
        if c.get("label", "").endswith("orders 2->1") and "median_slope" in c
    ]
    assert unit_gap, [c.get("label") for c in report["cases"]]
    assert abs(unit_gap[0]["median_slope"] - 1.0) <= 0.1


def test_verify_refuses_hypothesis_violating_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {"sw-embedding": {"order": 0.5}}}))
    rc = main(["verify", "sw-embedding", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "block dimension" in capsys.readouterr().err


@pytest.mark.parametrize("order", [("spectral-exactness", "sw-embedding"), ("sw-embedding", "spectral-exactness")])
def test_verify_all_keeps_the_other_suites(tmp_path, capsys, monkeypatch, order):
    # a suite that raises is named in the summary; the others still run
    # and keep their files, and the exit code is 2
    monkeypatch.setattr(cli, "_SUITES", {sid: cli._SUITES[sid] for sid in order})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {"sw-embedding": {"order": 0.5}}}))
    out = tmp_path / "r"
    rc = main(["verify", "all", "--config", str(cfg), "--out", str(out), "--seed", "7"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: sw-embedding:" in captured.err
    assert "spectral-exactness       PASS" in captured.out
    for name in ("spectral-exactness.json", "spectral-exactness-cases.csv"):
        assert (out / name).exists()
    assert not (out / "sw-embedding.json").exists()
    assert f"{'overall':24s} FAIL" in captured.out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] == {"spectral-exactness": "PASS"}
    assert summary["errors"] == {"sw-embedding": "HypothesisError"}
    assert summary["overall"] == "FAIL"


@pytest.mark.parametrize(
    "suite, overrides, named",
    [
        ("window-independence", {"p_values": [1.0]}, "p_values"),
        ("sw-embedding", {"p_values": [1.0, 1.5]}, "p_values"),
        ("mollifier-rate", {"fit_floor": 1.0}, "fit_floor"),
        ("mollifier-rate", {"epsilons": [0.4, 0.4]}, "fit_floor"),
        ("lattice-decomposition", {"resolutions": [128]}, "resolutions"),
        ("window-independence", {"resolutions": [128]}, "resolutions"),
        ("sw-embedding", {"resolutions": [128]}, "resolutions"),
        ("schatten", {"resolutions": [16]}, "resolutions"),
        ("schatten", {"resolutions": [16, 16]}, "resolutions"),
        ("schatten", {"bound_resolutions": [32]}, "bound_resolutions"),
        ("kato-product", {"slack": 0.0}, "slack"),
        ("window-independence", {"bracket": [50.0, 0.02]}, "bracket"),
    ],
)
def test_verify_all_lists_a_suite_its_options_cannot_run(tmp_path, capsys, monkeypatch, suite, overrides, named):
    # a value of the right type that the suite cannot use is refused by the
    # suite, naming the option; the other suites still run
    monkeypatch.setattr(cli, "_SUITES", {sid: cli._SUITES[sid] for sid in (suite, "spectral-exactness")})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {suite: overrides}}))
    out = tmp_path / "r"
    rc = main(["verify", "all", "--config", str(cfg), "--out", str(out), "--seed", "7"])
    assert rc == 2
    assert f"error: {suite}: option {named!r}" in capsys.readouterr().err
    for name in ("spectral-exactness.json", "spectral-exactness-cases.csv"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] == {"spectral-exactness": "PASS"}
    assert summary["errors"] == {suite: "HypothesisError"}


@pytest.mark.parametrize(
    "suite, overrides, named",
    [
        ("peetre", {"samples": 0}, "samples"),
        ("peetre", {"samples": -5}, "samples"),
        ("peetre", {"max_dim": 0}, "max_dim"),
        ("weight-conv", {"box": 0.0}, "box"),
        ("weight-conv", {"probes_per_block": 0}, "probes_per_block"),
        ("weight-conv", {"step": 0.0}, "step"),
        ("weight-conv", {"step": -0.05}, "step"),
        ("mollifier-rate", {"kmax": 0}, "kmax"),
        ("peetre", {"scale": 0.0}, "scale"),
        ("peetre", {"order_bound": -1.0}, "order_bound"),
    ],
)
def test_verify_refuses_an_option_the_library_cannot_use(tmp_path, capsys, suite, overrides, named):
    # a count or a length that leaves a claim vacuous, or its check with
    # nothing to divide by, is refused by the library, naming the argument
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {suite: overrides}}))
    out = tmp_path / "r"
    rc = main(["verify", suite, "--config", str(cfg), "--out", str(out), "--seed", "7"])
    assert rc == 2
    assert f"error: {suite}: {named} must be" in capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["errors"] == {suite: "HypothesisError"}


def test_verify_errored_suite_does_not_read_pass(tmp_path, capsys):
    # the only suite raises: no verdicts, and the run reads FAIL, not PASS
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {"retraction": {"cells_per_axis": 2}}}))
    out = tmp_path / "r"
    rc = main(["verify", "retraction", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: retraction: cells_per_axis=2; the retraction window needs at least 3" in captured.err
    assert f"{'overall':24s} FAIL" in captured.out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] == {}
    assert summary["errors"] == {"retraction": "ShapeError"}
    assert summary["overall"] == "FAIL"


def test_verify_rejects_unknown_suite_option(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {"peetre": {"bogus": 1}}}))
    rc = main(["verify", "peetre", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -3, 2.5, "4", True, None])
def test_verify_refuses_count_below_one(tmp_path, capsys, count):
    # refused once, while the config is read, before any suite runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {"lattice-decomposition": {"count": count}}}))
    out = tmp_path / "r"
    rc = main(["verify", "lattice-decomposition", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'count'" in err and "'lattice-decomposition'" in err and "integer >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "suite, option, value",
    [
        ("peetre", "samples", "many"),
        ("retraction", "cells_per_axis", 4.5),
        ("kato-product", "slack", "1.05"),
        ("kato-product", "slack", math.inf),
        ("spectral-exactness", "tol", math.nan),
        ("twisted-periodization", "samples_per_axis", None),
        ("h-equals-k2", "resolutions", 128),
        ("lattice-decomposition", "resolutions", [128, 256.0]),
        ("embedding-chain", "p_values", [1.0, "many"]),
        ("window-independence", "p_values", []),
        ("mollifier-rate", "pairs", [[2.0, 1.0], [1.5, True]]),
        ("window-independence", "bracket", [0.02]),
        ("mollifier-rate", "pairs", [[2.0]]),
        ("schatten", "center_box", [1.5, 5.5, 7.0]),
        ("schatten", "width_range", [0.5]),
    ],
)
def test_verify_refuses_option_of_another_type(tmp_path, capsys, suite, option, value):
    # an option must have its default's JSON type, list elements included;
    # refused while the config is read, before any suite runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {suite: {option: value}}}))
    out = tmp_path / "r"
    rc = main(["verify", suite, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"option {option!r} of suite {suite!r} must have the type of its default" in err
    assert not out.exists()


def _short_circuit_calls(tree: ast.Module) -> list[str]:
    """`_suite_*:line` for each all() or any() over a generator holding a call."""
    return [
        f"{fn.name}:{node.lineno}"
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_suite_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("all", "any")
        and any(isinstance(a, ast.GeneratorExp) and any(isinstance(n, ast.Call) for n in ast.walk(a)) for a in node.args)
    ]


def test_no_suite_short_circuits_over_library_calls():
    # all() over a generator that calls the library stops at the first
    # failure and skips the later calls, so a suite builds its list first
    assert _short_circuit_calls(ast.parse("def _suite_x(seed):\n    return all(f(r) for r in rs)\n")) == ["_suite_x:2"]
    assert _short_circuit_calls(ast.parse(Path(cli.__file__).read_text())) == []


def test_each_suite_function_is_registered_once_with_typed_defaults():
    # a suite's id, claim, options and defaults are declared once, on its
    # function: every option is a keyword with a default of its own type
    tree = ast.parse(Path(cli.__file__).read_text())
    names = sorted(fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_suite_"))
    assert sorted(run.__name__ for run, _ in cli._SUITES.values()) == names
    for sid, (run, _) in cli._SUITES.items():
        seed, *options = inspect.signature(run).parameters.values()
        assert seed.name == "seed", sid
        assert options and all(p.kind is p.KEYWORD_ONLY and p.default is not p.empty for p in options), sid
        assert all(cli._typed(p.default, p.default) is not None for p in options), sid


def test_suite_options_arrive_as_their_defaults_types(tmp_path, monkeypatch):
    seen = {}

    def spy(seed, *, ratio=0.5, p_values=[1.0, "inf"], bracket=(0.02, 50.0), pairs=[(2.0, 1.0)], count=3):
        seen.update(ratio=ratio, p_values=p_values, bracket=bracket, pairs=pairs, count=count)
        return [cli._case("spy", cli.PASS)], {}

    monkeypatch.setattr(cli, "_SUITES", {"spy": (spy, "options arrive typed")})
    overrides = {"ratio": 1, "p_values": [2, "Infinity"], "bracket": [1, 2], "pairs": [[3, 1.5]]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {"spy": overrides}}))
    assert main(["verify", "spy", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    # repr tells 1 from 1.0 and a tuple from a list
    want = {"ratio": 1.0, "p_values": [2.0, math.inf], "bracket": (1.0, 2.0), "pairs": [(3.0, 1.5)], "count": 3}
    assert repr(seen) == repr(want)
    assert '"ratio": 1.0' in (tmp_path / "r" / "spy.json").read_text()


def test_config_accepts_integers_for_numbers_and_inf_for_p(tmp_path):
    overrides = {
        "window-independence": {"p_values": [1, 2.5, "inf"], "bracket": [1, 50], "stability_rtol": 1},
        "mollifier-rate": {"pairs": [[2, 1.0]], "epsilons": [0.4, 1]},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "suites": overrides}))
    assert cli._load_config(str(cfg))["suites"] == overrides


def test_readme_lists_every_suite_and_a_config_that_loads(tmp_path):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Available suites: (.*?)\.\n", text, re.S).group(1)
    assert re.findall(r"`([a-z0-9-]+)`", listed) == list(cli._SUITES)
    example = re.search(r"The optional config file is JSON of the form\n\n```json\n(.*?)```", text, re.S).group(1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(example)
    assert cli._load_config(str(cfg))["suites"]


@pytest.mark.parametrize("seed", ["abc", 1.5, -1, True, None])
def test_verify_refuses_config_seed_that_is_not_a_count(tmp_path, capsys, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed}))
    out = tmp_path / "r"
    rc = main(["verify", "peetre", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "config key 'seed' must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_negative_seed(tmp_path, capsys):
    out = tmp_path / "r"
    rc = main(["verify", "peetre", "--seed", "-1", "--out", str(out)])
    assert rc == 2
    assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_out_that_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    rc = main(["verify", "peetre", "--out", str(out)])
    assert rc == 2
    assert "cannot use --out" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


def test_verify_exit_one_on_failed_assertion(tmp_path, capsys):
    # force an unreachable tolerance: a mathematically asserted identity
    # reported outside it is a FAIL, not an INCONCLUSIVE
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {"spectral-exactness": {"tol": 0.0}}}))
    rc = main(["verify", "spectral-exactness", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_nan_gap_fails_its_gate(tmp_path, monkeypatch):
    # a NaN gap among finite ones is the worst value, and it fails the gate
    calls = []

    def second_call_nan(sym, tau):
        calls.append(tau)
        return math.nan if len(calls) == 2 else hs_identity_gap(sym, tau)

    monkeypatch.setattr(cli, "hs_identity_gap", second_call_nan)
    out = tmp_path / "r"
    rc = main(["verify", "exact-identities", "--out", str(out), "--seed", "7"])
    assert rc == 1
    cases = {c["label"]: c for c in json.loads((out / "exact-identities.json").read_text())["cases"]}
    scalar = cases["Hilbert-Schmidt norm equals scaled symbol l2 norm, scalar tau"]
    assert (scalar["verdict"], scalar["max_gap"]) == ("FAIL", "nan")
    assert cases["Hilbert-Schmidt norm equals scaled symbol l2 norm, matrix tau"]["verdict"] == "PASS"


def test_nan_drift_reads_inconclusive():
    case = cli._stability_case("x", [1.0, 2.0], [1.0, math.nan], 0.1)
    assert case["verdict"] == "INCONCLUSIVE" and math.isnan(case["max_rel_drift"])


def test_window_bracket_reads_a_nan_ratio_inconclusive(monkeypatch):
    # the bracket is judged on the report's extremes, which keep a NaN ratio
    calls = []
    original = kato.kato_norm

    def third_call_nan(field, norm_spec):
        calls.append(field)
        return math.nan if len(calls) == 3 else original(field, norm_spec)

    monkeypatch.setattr(kato, "kato_norm", third_call_nan)
    cases, _ = cli._suite_window_independence(7, count=4, p_values=[2.0])
    case = cases[0]
    assert case["label"] == "window quotient bracket, p=2, 128 samples"
    assert case["verdict"] == "INCONCLUSIVE" and math.isnan(case["min_ratio"]) and math.isnan(case["max_ratio"])


def test_lattice_decomposition_range_keeps_a_nan_ratio(monkeypatch):
    calls = []
    original = cli.lattice_decomposition_ratio

    def second_call_nan(u, part, order):
        calls.append(u)
        return math.nan if len(calls) == 2 else original(u, part, order)

    monkeypatch.setattr(cli, "lattice_decomposition_ratio", second_call_nan)
    cases, _ = cli._suite_lattice_decomposition(7, count=4)
    case = cases[0]
    assert case["label"] == "two-sided bracket at 128 samples, 4 fields"
    assert case["verdict"] == "FAIL" and math.isnan(case["min_ratio"]) and math.isnan(case["max_ratio"])


def test_verify_peetre_fails_when_the_weights_overflow(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {"peetre": {"samples": 1000, "scale": 1e200}}}))
    out = tmp_path / "r"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["verify", "peetre", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    (case,) = json.loads((out / "peetre.json").read_text())["cases"]
    assert (case["verdict"], case["max_ratio"]) == ("FAIL", "nan")


def test_verify_reports_are_deterministic(tmp_path):
    rc_a = main(["verify", "spectral-exactness", "--out", str(tmp_path / "a"), "--seed", "11"])
    rc_b = main(["verify", "spectral-exactness", "--out", str(tmp_path / "b"), "--seed", "11"])
    assert rc_a == rc_b == 0
    rep_a = json.loads((tmp_path / "a" / "spectral-exactness.json").read_text())
    rep_b = json.loads((tmp_path / "b" / "spectral-exactness.json").read_text())
    rep_a.pop("environment")
    rep_b.pop("environment")
    assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


def test_verify_seed_changes_sampled_cases(tmp_path):
    main(["verify", "window-bound", "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["verify", "window-bound", "--out", str(tmp_path / "b"), "--seed", "2"])
    rep_a = json.loads((tmp_path / "a" / "window-bound.json").read_text())
    rep_b = json.loads((tmp_path / "b" / "window-bound.json").read_text())
    assert rep_a["seed"] != rep_b["seed"]


# ---------------------------------------------------------------------------
# report


def test_report_renders_pass_lines(tmp_path, capsys):
    out = tmp_path / "rep"
    main(["verify", "peetre", "--out", str(out), "--seed", "3"])
    capsys.readouterr()
    rc = main(["report", str(out / "peetre.json")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "peetre" in text and "PASS" in text
    # a stored verdict this version does not know is shown, not counted
    unknown = json.loads((out / "peetre.json").read_text())
    unknown["verdict"] = "SKIPPED"
    (out / "peetre.json").write_text(json.dumps(unknown))
    rc = main(["report", str(out / "peetre.json")])
    assert rc == 0
    assert "SKIPPED" in capsys.readouterr().out


def test_report_prints_every_value_a_case_stores(tmp_path, capsys):
    # each case line holds each key of its case but the label and verdict, a number as .6g
    out = tmp_path / "rep"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {"window-independence": {"count": 2}}}))
    for suite in ("twisted-periodization", "window-independence"):
        assert main(["verify", suite, "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  - ")]
    names = ("twisted-periodization", "window-independence")
    cases = [case for name in names for case in json.loads((out / f"{name}.json").read_text())["cases"]]
    assert len(lines) == len(cases) == 3 + 7
    for line, case in zip(lines, cases):
        assert case["label"] in line
        values = {key: value for key, value in case.items() if key not in ("label", "verdict")}
        assert values
        for key, value in values.items():
            assert f"[{key}={value:.6g}]" in line


def test_report_csv_and_epsilon_sweep_monotone(tmp_path, capsys):
    out = tmp_path / "rep"
    main(["verify", "mollifier-rate", "--out", str(out), "--seed", "3"])
    capsys.readouterr()
    csv_out = tmp_path / "cases.csv"
    rc = main(["report", str(out), "--csv", str(csv_out)])
    assert rc == 0
    assert csv_out.exists()
    # the stored sweep table: within each order pair the error column
    # decreases as epsilon decreases
    sweep = (out / "mollifier-rate-sweep.csv").read_text().strip().splitlines()
    header = sweep[0].split(",")
    i_pair, i_eps, i_err = header.index("pair"), header.index("epsilon"), header.index("error")
    rows = [line.split(",") for line in sweep[1:]]
    by_pair = {}
    for row in rows:
        by_pair.setdefault(row[i_pair], []).append((float(row[i_eps]), float(row[i_err])))
    assert by_pair
    for pair, entries in by_pair.items():
        entries.sort(reverse=True)
        errs = [e for _, e in entries]
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1)), pair


def test_report_csv_bytes(tmp_path, capsys):
    # one row per case, in report order: the suite, then the union of case
    # keys in first-seen order, blank where a case lacks a key
    out = tmp_path / "rep"
    for suite in ("peetre", "spectral-exactness"):
        assert main(["verify", suite, "--out", str(out), "--seed", "5"]) == 0
    capsys.readouterr()
    csv_out = tmp_path / "cases.csv"
    assert main(["report", str(out), "--csv", str(csv_out)]) == 0
    (peetre,) = json.loads((out / "peetre.json").read_text())["cases"]
    exact = json.loads((out / "spectral-exactness.json").read_text())["cases"]
    want = ["suite,label,max_ratio,verdict,max_err"]
    want.append(f'peetre,"{peetre["label"]}",{peetre["max_ratio"]!r},{peetre["verdict"]},')
    want += [f'spectral-exactness,"{c["label"]}",,{c["verdict"]},{c["max_err"]!r}' for c in exact]
    assert len(want) == 6
    assert csv_out.read_bytes() == ("\n".join(want) + "\n").encode("ascii")


def test_report_malformed_json_names_byte_offset(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"cases": [llegal]}')
    rc = main(["report", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "byte" in err and "broken.json" in err


@pytest.mark.parametrize(
    "payload",
    [[], [{"x": 1}], {"cases": [1]}, {"suite": "peetre", "cases": {"label": "x"}}],
    ids=["empty-list", "list", "case-not-object", "cases-not-list"],
)
def test_report_refuses_a_file_without_a_suite_report(tmp_path, capsys, payload):
    bad = tmp_path / "odd.json"
    bad.write_text(json.dumps(payload))
    assert main(["report", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"suite": 5, "cases": []}, "'suite' must be a string, got 5"),
        ({"suite": "x", "cases": [{"label": "a", "verdict": 3}]}, "case 0 'verdict' must be a string, got 3"),
        ({"suite": "x", "verdict": ["PASS"], "cases": []}, "'verdict' must be a string, got ['PASS']"),
    ],
    ids=["suite-number", "case-verdict-number", "verdict-list"],
)
def test_report_refuses_a_name_or_verdict_that_is_not_text(tmp_path, capsys, payload, named):
    # the table pads these as text and counts verdicts by name: each ended
    # in a traceback with exit 1
    bad = tmp_path / "odd.json"
    bad.write_text(json.dumps(payload))
    assert main(["report", str(bad)]) == 2
    assert f"{bad}: {named}" in capsys.readouterr().err


def test_report_refuses_a_directory_holding_a_malformed_report(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["verify", "peetre", "--out", str(out), "--seed", "3"]) == 0
    (out / "odd.json").write_text(json.dumps({"suite": "odd", "cases": [1]}))
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert f"{out / 'odd.json'}: 'cases' must be a list of objects" in capsys.readouterr().err


def test_usage_error_is_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "l2", "--field", "{tmp}/nope.fld"],
        ["compute", "l2", "--field", "{tmp}"],
        ["compute", "l2", "--field", "{field}", "--json", "{tmp}/no-such-dir/value.json"],
        ["report", "{tmp}/rep", "--csv", "{tmp}/no-such-dir/cases.csv"],
    ],
    ids=["missing-field", "field-is-a-directory", "json-not-writable", "csv-not-writable"],
)
def test_file_that_cannot_be_read_or_written_is_exit_two(tmp_path, constant_path, capsys, args):
    rep = tmp_path / "rep"
    rep.mkdir()
    (rep / "s.json").write_text(json.dumps({"suite": "s", "verdict": "PASS", "cases": [{"label": "a", "verdict": "PASS"}]}))
    argv = [a.format(tmp=tmp_path, field=constant_path) for a in args]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_import_does_not_load_scipy():
    # numpy is the one runtime dependency: importing every katokit module (as
    # test_exports enumerates them) and running the quadrature cross-check
    # that once used scipy loads no scipy module
    src = str(Path(katokit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import importlib, pkgutil, sys, katokit\n"
        "for m in pkgutil.iter_modules(katokit.__path__):\n"
        "    importlib.import_module(f'katokit.{m.name}')\n"
        "katokit.weights.weight_l1_norm_quad(1.5, 1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("seed", [7, 12])
def test_verify_mollifier_rate_decides_every_young_check_from_the_bracket(tmp_path, monkeypatch, seed):
    # at N=1024 the sub-lattice bracket decides all 168 checks: no full-grid sup norm is taken
    full_grid = []
    original = kato.kato_norm

    def spy(field, norm_spec):
        if math.isinf(norm_spec.p) and norm_spec.scheme.points_per_axis in (None, field.spec.samples_per_axis):
            full_grid.append(field)
        return original(field, norm_spec)

    monkeypatch.setattr(kato, "kato_norm", spy)
    assert main(["verify", "mollifier-rate", "--out", str(tmp_path / "r"), "--seed", str(seed)]) == 0
    assert full_grid == []


@pytest.mark.parametrize(
    "suite, option, value",
    [
        ("mollifier-rate", "slope_tol", -1.0),
        ("lattice-decomposition", "stability_rtol", -1.0),
        ("spectral-exactness", "tol", -1e-10),
        ("h-equals-k2", "agreement_tol", -1.0),
        ("exact-identities", "hs_tol", -1.0),
    ],
)
def test_verify_refuses_a_negative_tolerance(tmp_path, capsys, suite, option, value):
    # no value lies within a negative distance of another: refused while the
    # config is read, before any suite runs, not read as FAIL or INCONCLUSIVE
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {suite: {option: value}}}))
    out = tmp_path / "r"
    rc = main(["verify", suite, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert f"option {option!r} of suite {suite!r} is a tolerance and must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_a_margin_that_leaves_no_critical_field(tmp_path, capsys):
    # delta <= 0 leaves the ensemble no margin of regularity to be critical with: refused by the library, by name
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": {"mollifier-rate": {"delta": -1.0}}}))
    out = tmp_path / "r"
    rc = main(["verify", "mollifier-rate", "--config", str(cfg), "--out", str(out), "--seed", "7"])
    assert rc == 2
    assert "error: mollifier-rate: delta must be > 0" in capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["errors"] == {"mollifier-rate": "HypothesisError"}
