"""Acceptance gate: seven criteria, one printed PASS/FAIL line each.

Run ``pytest -s tests/test_acceptance.py`` to see every line on a passing
run; under plain ``pytest`` the lines surface only on failure.  Each
criterion is a separate test so the suite reports them independently.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from katokit.calculus import (
    calderon_apply,
    chain_rule_check,
    divide,
    holo_exp,
    holo_identity,
    holo_reciprocal,
    holo_square,
    holo_product2,
    invert,
    joint_spectrum_witness,
)
from katokit.cli import main
from katokit.ensembles import (
    critical_ensemble,
    positive_field,
    realize_ensemble,
    spectral_ensemble,
    symbol_family,
)
from katokit.grid import (
    Field,
    constant_field,
    coordinate_axes,
    field_from_values,
    frequency_axes,
    make_bump,
    make_grid,
    plane_wave,
)
from katokit.kato import (
    ContinuousScheme,
    amalgam_spec,
    h_equals_k2_ratio,
    kato_norm,
    kato_product_check,
    mollifier_rate_check,
    retraction_roundtrip,
    window_ratio_check,
)
from katokit.psido import (
    Symbol,
    all_isometries,
    coordinate_change_check,
    hs_identity_gap,
    quantize,
    schatten_norm,
    self_dual_period,
    sw_embedding_check,
)
from katokit.sobolev import (
    bessel_apply,
    build_partition,
    derivative_split_check,
    lattice_decomposition_ratio,
    product_bound_check,
    spectral_derivative,
    window_multiplier_constant,
)
from katokit.weights import (
    bracket,
    multi_order,
    peetre_check,
    sigma_params,
    weight_conv_check,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _default_window(spec):
    length = spec.period
    return make_bump(
        spec,
        [(length / 8.0, 7.0 * length / 8.0)] * spec.dim,
        [(length / 3.0, 2.0 * length / 3.0)] * spec.dim,
    )


def _narrow_window(spec):
    length = spec.period
    return make_bump(
        spec,
        [(length / 16.0, 9.0 * length / 16.0)] * spec.dim,
        [(length / 4.0, 3.0 * length / 8.0)] * spec.dim,
    )


# ---------------------------------------------------------------------------
# 1. spectral exactness


def test_acceptance_1_spectral_exactness():
    tol = 1e-10
    worst = 0.0

    spec = make_grid(1, 64)
    order = multi_order(1.5, (1,))
    for k in (-5, 0, 3, 11):
        wave = plane_wave(spec, (k,))
        got = bessel_apply(wave, order).samples
        want = bracket((float(k),)) ** 1.5 * wave.samples
        worst = max(worst, float(np.max(np.abs(got - want))))
        dgot = spectral_derivative(wave, 0).samples
        worst = max(worst, float(np.max(np.abs(dgot - 1j * k * wave.samples))))

    spec2 = make_grid(2, 32, blocks=(1, 1))
    order2 = multi_order((0.5, 1.0), (1, 1))
    wave2 = plane_wave(spec2, (3, -4))
    want2 = (1.0 + 9.0) ** 0.25 * (1.0 + 16.0) ** 0.5 * wave2.samples
    worst = max(
        worst, float(np.max(np.abs(bessel_apply(wave2, order2).samples - want2)))
    )

    # quantized frequency multiplier: plane waves are exact eigenvectors
    n = 64
    sym_spec = make_grid(2, n, blocks=(1, 1))
    xi = np.asarray(frequency_axes(spec)[0])
    g = (1.0 + xi**2) ** (-1.0)
    sym = Symbol(
        Field(sym_spec, np.broadcast_to(g[None, :], sym_spec.shape).copy()),
        1,
        multi_order((2.0, 2.0), (1, 1)),
    )
    for tau in (0.0, 0.5, 1.0):
        op = quantize(sym, tau)
        for k in (-5, 0, 3, 11):
            u = plane_wave(spec, (k,)).samples
            gap = np.max(np.abs(op.entries @ u - (1.0 + k * k) ** (-1.0) * u))
            worst = max(worst, float(gap))

    _report(1, "spectral exactness", worst <= tol, f"max error {worst:.3e} <= {tol:g}")


# ---------------------------------------------------------------------------
# 2. exact identities


def test_acceptance_2_exact_identities():
    split_worst = 0.0
    spec = make_grid(1, 128)
    fields = realize_ensemble(spectral_ensemble(21, 4, 1, kmax=20), spec)
    for u in fields:
        rep = derivative_split_check(u, multi_order(1.0, (1,)), block=0)
        split_worst = max(split_worst, rep.rel_err)
    spec2 = make_grid(2, 64, blocks=(1, 1))
    for u in realize_ensemble(spectral_ensemble(22, 2, 2, kmax=8), spec2):
        rep = derivative_split_check(u, multi_order((1.0, 1.0), (1, 1)), block=1)
        split_worst = max(split_worst, rep.rel_err)

    part = build_partition(spec, 4)
    round_worst = 0.0
    round_ok = True
    for u in fields:
        rep = retraction_roundtrip(u, part, multi_order(1.0, (1,)), tol=1e-10)
        round_worst = max(round_worst, rep.roundtrip_sup_err)
        round_ok = round_ok and rep.passed

    hs_worst = 0.0
    n_res = 16
    period = self_dual_period(n_res)
    sym_spec = make_grid(2, n_res, period=period, blocks=(1, 1))
    order = multi_order((2.0, 2.0), (1, 1))
    for fam in ("gaussian", "separable", "random"):
        for sym in symbol_family(fam, sym_spec, 1, order, 23, 4):
            for tau in (0.0, 0.5, 1.0):
                hs_worst = max(hs_worst, hs_identity_gap(sym, tau))

    ok = split_worst <= 1e-10 and round_ok and hs_worst <= 1e-8
    _report(
        2,
        "exact identities",
        ok,
        f"derivative split {split_worst:.3e} <= 1e-10, "
        f"retraction roundtrip {round_worst:.3e} <= 1e-10, "
        f"Hilbert-Schmidt gap {hs_worst:.3e} <= 1e-8",
    )


# ---------------------------------------------------------------------------
# 3. inequalities with explicit constants


def test_acceptance_3_explicit_constant_inequalities():
    pieces = []

    pe = peetre_check(samples=100_000, seed=0)
    pieces.append(("peetre", pe.passed and pe.max_ratio <= 1.0, f"{pe.max_ratio:.6f}"))

    spec = make_grid(1, 128)
    fields = realize_ensemble(spectral_ensemble(31, 20, 1, kmax=20), spec)
    order = multi_order(1.2, (1,))
    chi = _default_window(spec).field
    x = coordinate_axes(spec)[0]
    smooth = field_from_values(spec, (2.0 + np.cos(x)) * np.exp(1j * np.sin(x)))
    prod_ok = True
    prod_worst = 0.0
    for mode, factor in (("window", chi), ("periodic", smooth)):
        for u in fields:
            rep = product_bound_check(u, factor, order, mode=mode)
            prod_ok = prod_ok and rep.passed
            prod_worst = max(prod_worst, rep.ratio)
    pieces.append(("multiplier bound", prod_ok, f"max ratio {prod_worst:.6f}"))

    conv_ok = True
    conv_worst = 0.0
    for s, t, eps in ((1.0, 1.0, 0.25), (-0.5, 2.0, 0.25), (0.0, 2.0, 0.25)):
        rep = weight_conv_check(
            sigma_params((s,), (t,), (eps,), (1,)), box=24.0, step=0.05
        )
        conv_ok = conv_ok and rep.verdict == "PASS" and rep.max_ratio <= 1.05
        conv_worst = max(conv_worst, rep.max_ratio)
    pieces.append(("convolution constants", conv_ok, f"max ratio {conv_worst:.4f}"))

    # smoothing-error sweep: two-power bound at every epsilon, Young
    # contraction, and the realized log-log rate on critically regular
    # ensembles; the fit keeps only epsilons the spectrum can still resolve
    spec_m = make_grid(1, 1024)
    window = _default_window(spec_m)
    epsilons = [0.4, 0.2828, 0.2, 0.1414, 0.1, 0.0707, 0.05]
    fit_floor = 0.1
    rate_ok = True
    rate_detail = []
    for s, sp in ((2.0, 1.0), (1.5, 1.0), (1.0, 0.75)):
        ens = critical_ensemble(33, 8, 1, kmax=500, s=s, delta=0.02)
        slopes = []
        target = min(s - sp, 1.0)
        for sample in ens:
            u = sample.realize(spec_m)
            rep = mollifier_rate_check(
                u,
                multi_order(s, (1,)),
                multi_order(sp, (1,)),
                epsilons,
                window=window,
            )
            rate_ok = rate_ok and rep.bound_ok and rep.young_ok
            kept = [(e, err) for e, err in zip(rep.epsilons, rep.errors) if e >= fit_floor]
            log_e = np.log([e for e, _ in kept])
            log_err = np.log([err for _, err in kept])
            slopes.append(float(np.polyfit(log_e, log_err, 1)[0]))
        med = float(np.median(slopes))
        rate_ok = rate_ok and abs(med - target) <= 0.1
        rate_detail.append(f"{s:g}->{sp:g}: {med:.3f} vs {target:g}")
    pieces.append(("smoothing rate", rate_ok, "; ".join(rate_detail)))

    ok = all(p[1] for p in pieces)
    detail = ", ".join(f"{name} {info}" for name, _, info in pieces)
    _report(3, "explicit-constant inequalities", ok, detail)


# ---------------------------------------------------------------------------
# 4. equivalence-ratio ensembles, bounded and stable under refinement


def _drift(a, b):
    return max(abs(x - y) / max(abs(y), 1e-300) for x, y in zip(a, b))


def test_acceptance_4_equivalence_ratio_stability():
    count = 50
    gate = 0.10
    order1 = multi_order(1.0, (1,))
    samples = spectral_ensemble(41, count, 1, kmax=20)
    families = []  # (name, bounded_ok, drift)

    # quadratic amalgam norm against the plain norm, partition route
    track, bounded = [], True
    for n_res in (128, 256):
        spec = make_grid(1, n_res)
        part = build_partition(spec, 4)
        c_master = window_multiplier_constant(part.master.field, order1)
        lower, upper = 4**-0.5, 4**0.5 * c_master
        ratios = [
            h_equals_k2_ratio(u, order1, part)
            for u in realize_ensemble(samples, spec)
        ]
        bounded = bounded and all(
            lower * (1 - 1e-9) <= r <= upper * (1 + 1e-9) for r in ratios
        )
        track.append(ratios)
    families.append(("quadratic-amalgam", bounded, _drift(*track)))

    # two admissible windows give comparable norms
    track, bounded = [], True
    for n_res in (128, 256):
        spec = make_grid(1, n_res)
        rep = window_ratio_check(
            realize_ensemble(samples, spec),
            order1,
            2.0,
            _default_window(spec),
            _narrow_window(spec),
        )
        bounded = bounded and 0.02 <= rep.min_ratio and rep.max_ratio <= 50.0
        track.append(rep.ratios)
    families.append(("window-quotient", bounded, _drift(*track)))

    # square-summed lattice localization
    track, bounded = [], True
    for n_res in (128, 256):
        spec = make_grid(1, n_res)
        part = build_partition(spec, 4)
        c_master = window_multiplier_constant(part.master.field, order1)
        lower, upper = 4**-0.5, 4**0.5 * c_master
        ratios = [
            lattice_decomposition_ratio(u, part, order1)
            for u in realize_ensemble(samples, spec)
        ]
        bounded = bounded and all(
            lower * (1 - 1e-9) <= r <= upper * (1 + 1e-9) for r in ratios
        )
        track.append(ratios)
    families.append(("lattice-decomposition", bounded, _drift(*track)))

    # windowed product bound quotients
    us = spectral_ensemble(42, 25, 1, kmax=20)
    vs = spectral_ensemble(43, 25, 1, kmax=20)
    params = sigma_params((1.0,), (1.0,), (0.25,), (1,))
    track, bounded = [], True
    for n_res in (128, 256):
        spec = make_grid(1, n_res)
        pairs = list(zip(realize_ensemble(us, spec), realize_ensemble(vs, spec)))
        rep = kato_product_check(pairs, params, 2.0, 2.0, _default_window(spec))
        bounded = bounded and rep.max_ratio <= rep.reference_constant * 1.05
        track.append(rep.ratios)
    families.append(("product-quotient", bounded, _drift(*track)))

    # sliding-window modulation norm against its windowed majorant
    track, bounded = [], True
    for n_res in (128, 256):
        spec = make_grid(1, n_res)
        chi = make_bump(spec, [(0.5, 2.5)], [(1.0, 2.0)])
        chi_tilde = make_bump(spec, [(0.1, 2.9)], [(0.45, 2.55)])
        rep = sw_embedding_check(
            realize_ensemble(samples, spec), multi_order(1.5, (1,)), 2.0, chi, chi_tilde
        )
        bounded = bounded and rep.max_ratio <= 10.0
        track.append(rep.ratios)
    families.append(("modulation-majorant", bounded, _drift(*track)))

    # operator norm of quantized symbols against the windowed symbol norm;
    # the period is tied to the resolution so both grids sample the same
    # square phase-space box
    order_op = multi_order((2.0, 2.0), (1, 1))
    track, bounded = [], True
    for n_res in (16, 32):
        period = self_dual_period(n_res)
        spec = make_grid(2, n_res, period=period, blocks=(1, 1))
        syms = symbol_family(
            "gaussian",
            spec,
            1,
            order_op,
            44,
            count,
            center_box=(3.5, 6.5),
            width_range=(0.8, 1.2),
        )
        window = make_bump(spec, [(1.0, 9.0)] * 2, [(3.0, 7.0)] * 2)
        norm_spec = amalgam_spec(order_op, math.inf, window, ContinuousScheme(16))
        ratios = [
            schatten_norm(quantize(s, 0.5), math.inf) / kato_norm(s.field, norm_spec)
            for s in syms
        ]
        bounded = bounded and all(math.isfinite(r) and r > 0.0 for r in ratios)
        track.append(ratios)
    families.append(("operator-vs-symbol", bounded, _drift(*track)))

    ok = all(b for _, b, _ in families) and all(d <= gate for _, _, d in families)
    detail = ", ".join(f"{name} drift {d:.1%}" for name, _, d in families)
    _report(4, "equivalence-ratio stability", ok, f"{count}-element ensembles: {detail}")


# ---------------------------------------------------------------------------
# 5. functional calculus


def test_acceptance_5_functional_calculus():
    spec = make_grid(1, 256)
    x = np.asarray(coordinate_axes(spec)[0])
    cos_field = field_from_values(spec, 2.0 + np.cos(x))
    seeded = positive_field(spec, seed=7)

    point_worst = 0.0
    drift_worst = 0.0
    for u in (cos_field, seeded):
        vals = u.samples
        for fn, want in (
            (holo_identity(), vals),
            (holo_square(), vals**2),
            (holo_exp(), np.exp(vals)),
            (holo_reciprocal(0.5), 1.0 / vals),
        ):
            res = calderon_apply([u], fn)
            point_worst = max(point_worst, float(np.max(np.abs(res.field.samples - want))))
            drift_worst = max(drift_worst, res.drift)

    inv = invert(cos_field)
    division = divide(
        make_bump(spec, [(2.0, 4.0)]).field,
        cos_field,
        make_bump(spec, [(0.05, 6.1)], [(2.0, 4.0)]),
        c=1.0,
    )

    chain_worst = chain_rule_check([cos_field], holo_square()).max_rel_err
    spec2 = make_grid(2, 32, blocks=(2,))
    chain_worst = max(
        chain_worst,
        chain_rule_check(
            [positive_field(spec2, seed=3, kmax=4), positive_field(spec2, seed=4, kmax=4)],
            holo_product2(),
        ).max_rel_err,
    )

    witness = joint_spectrum_witness(
        [field_from_values(spec, np.cos(x)), field_from_values(spec, np.sin(x))],
        [2.0, 2.0],
    )
    refusal = joint_spectrum_witness([cos_field], [complex(cos_field.samples[7])])

    ok = (
        point_worst <= 1e-8
        and drift_worst <= 1e-9
        and inv.residual <= 1e-8
        and division.residual <= 1e-7
        and chain_worst <= 1e-6
        and witness.status == "witness"
        and witness.residual <= 1e-8
        and refusal.status == "refused"
    )
    _report(
        5,
        "functional calculus",
        ok,
        f"pointwise {point_worst:.3e} <= 1e-8, drift {drift_worst:.3e} <= 1e-9, "
        f"inversion {inv.residual:.3e} <= 1e-8, division {division.residual:.3e} <= 1e-7, "
        f"chain rule {chain_worst:.3e} <= 1e-6, witness {witness.residual:.3e} <= 1e-8 "
        f"and on-range refusal {refusal.status!r}",
    )


# ---------------------------------------------------------------------------
# 6. coordinate changes


def test_acceptance_6_coordinate_change():
    spec = make_grid(2, 32, blocks=(2,))
    fields = realize_ensemble(spectral_ensemble(61, 5, 2, kmax=6), spec)
    multipliers = (
        lambda t: t,
        lambda t: np.sqrt(1.0 + t),
        lambda t: np.exp(-t),
    )
    isometries = all_isometries(2)
    worst = 0.0
    ok = True
    for u in fields:
        for b in multipliers:
            for iso in isometries:
                rep = coordinate_change_check(u, b, iso, tol=1e-11)
                worst = max(worst, rep.sup_err)
                ok = ok and rep.passed
    _report(
        6,
        "coordinate change",
        ok,
        f"{len(isometries)} isometries x {len(multipliers)} multipliers, "
        f"max error {worst:.3e} <= 1e-11",
    )


# ---------------------------------------------------------------------------
# 7. reproducibility and exit codes


GOLDEN_SEED7 = Path(__file__).with_name("golden_seed7.json")


def report_digest(path: Path) -> str:
    """sha256 of a report file; JSON reports lose their ``environment`` key
    first, since it names the machine rather than the result."""
    data = path.read_bytes()
    if path.suffix == ".json":
        report = json.loads(data)
        report.pop("environment", None)
        data = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def test_acceptance_7_reproducibility(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    rc1 = main(["verify", "all", "--out", str(out1), "--seed", "7"])
    rc2 = main(["verify", "all", "--out", str(out2), "--seed", "7"])

    golden = json.loads(GOLDEN_SEED7.read_text())
    digests = {p.name: report_digest(p) for p in out1.iterdir()}
    changed = sorted(
        name for name in golden["digests"].keys() | digests.keys()
        if golden["digests"].get(name) != digests.get(name)
    )

    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    same_files = rc1 == 0 and rc2 == 0 and names1 == names2 and len(names1) > 0
    identical = same_files and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in names1
    )

    bad_cfg = tmp_path / "force_fail.json"
    bad_cfg.write_text(json.dumps({"suites": {"spectral-exactness": {"tol": 0.0}}}))
    rc_fail = main(
        ["verify", "spectral-exactness", "--config", str(bad_cfg), "--out", str(tmp_path / "f")]
    )

    broken_cfg = tmp_path / "broken.json"
    broken_cfg.write_text('{"cases": [llegal]}')
    rc_usage = main(
        ["verify", "peetre", "--config", str(broken_cfg), "--out", str(tmp_path / "g")]
    )

    ok = identical and not changed and rc_fail == 1 and rc_usage == 2
    _report(
        7,
        "reproducibility",
        ok,
        f"two seeded runs byte-identical over {len(names1)} report files, "
        f"golden digests (numpy {golden['numpy']}, this run numpy {np.__version__}) "
        f"differ on {changed or 'no file'}, exit codes 0/{rc_fail}/{rc_usage}",
    )
