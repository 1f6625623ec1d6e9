"""Command line front end.

Three subcommands:

``katokit compute``
    Evaluate a single norm (l2, sup, h-norm, kato-norm, sw-norm, schatten)
    on a stored field and print the value.

``katokit verify``
    Run one claim suite (or ``all``) and write one JSON report plus a
    flattened ``<suite>-cases.csv`` per suite into the output directory.
    Every case carries a three-valued verdict: PASS, INCONCLUSIVE, or FAIL.
    FAIL is reserved for violations of mathematically asserted statements;
    empirical comparisons that merely drift out of their expected bracket
    are INCONCLUSIVE.

``katokit report``
    Render a stored report (or a directory of reports) as a table, with an
    optional CSV export of all cases.

Exit codes: 0 when every case is PASS or INCONCLUSIVE, 1 when any case
FAILs, 2 for usage errors, malformed configuration, configurations that
violate a hypothesis of the requested check, or a file that cannot be
read or written.  ``verify`` runs the suites in order and writes each
suite's files as soon as it finishes; a suite that raises a
``KatokitError`` is named under ``errors`` in ``summary.json``, the
remaining suites still run, the overall verdict is FAIL and the exit code
is 2.

Reports are byte-reproducible for a fixed seed and configuration except
for the ``environment`` key.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import platform
import sys
import zlib
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .errors import ContourConfigError, HypothesisError, KatokitError
from .grid import (
    GridSpec,
    coordinate_axes,
    field_from_values,
    frequency_axes,
    l2_norm,
    load_field,
    make_bump,
    make_grid,
    plane_wave,
    sup_norm,
)
from .weights import multi_order, peetre_check, sigma_params, weight_conv_check
from .sobolev import (
    bessel_apply,
    build_partition,
    derivative_split_check,
    h_norm,
    lattice_decomposition_ratio,
    product_bound_check,
    rl_sup_bound_check,
    spectral_derivative,
    twisted_periodization,
    window_multiplier_constant,
)
from .kato import (
    ContinuousScheme,
    LatticeScheme,
    amalgam_spec,
    embedding_chain_check,
    h_equals_k2_ratio,
    kato_norm,
    kato_product_check,
    mollifier_rate_check,
    retraction_roundtrip,
    window_ratio_check,
)
from .calculus import (
    ContourSpec,
    calderon_apply,
    chain_rule_check,
    check_partial_consistency,
    composite_continuity_check,
    divide,
    holo_exp,
    holo_identity,
    holo_product2,
    holo_square,
    invert,
    joint_spectrum_witness,
)
from .psido import (
    all_isometries,
    coordinate_change_check,
    hs_identity_gap,
    isometry_from_matrix,
    make_symbol,
    operator_from_matrix,
    quantize,
    schatten_bound_check,
    schatten_norm,
    self_dual_period,
    sw_embedding_check,
    sw_norm,
    dilation_ratio_check,
    tau_sweep_check,
)
from .ensembles import (
    critical_ensemble,
    positive_field,
    realize_ensemble,
    spectral_ensemble,
    symbol_family,
)

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_SEVERITY = {PASS: 0, INCONCLUSIVE: 1, FAIL: 2}


def _aggregate(verdicts: Sequence[str]) -> str:
    worst = PASS
    for v in verdicts:
        if _SEVERITY[v] > _SEVERITY[worst]:
            worst = v
    return worst


def _per_suite_seed(base: int, suite_id: str) -> int:
    """Per-suite seed: stable under reordering and suite subset selection."""
    seq = np.random.SeedSequence([int(base), zlib.crc32(suite_id.encode("ascii"))])
    return int(seq.generate_state(1)[0])


def _child(seed: int, index: int) -> int:
    seq = np.random.SeedSequence([int(seed), int(index)])
    return int(seq.generate_state(1)[0])


def _default_window(spec: GridSpec):
    length = spec.period
    return make_bump(
        spec,
        [(length / 8.0, 7.0 * length / 8.0)] * spec.dim,
        [(length / 3.0, 2.0 * length / 3.0)] * spec.dim,
    )


def _narrow_window(spec: GridSpec):
    length = spec.period
    return make_bump(
        spec,
        [(length / 16.0, 9.0 * length / 16.0)] * spec.dim,
        [(length / 4.0, 3.0 * length / 8.0)] * spec.dim,
    )


def _verdict(ok: bool) -> str:
    return PASS if ok else FAIL


def _case(label: str, verdict: str, **values) -> dict:
    """One report case; its keys, in this order, are the CSV columns."""
    return {"label": label, **values, "verdict": verdict}


def _worst(values: Iterable[float]) -> float:
    """Largest of `values` and 0.0; NaN when any value is NaN."""
    return float(np.max([0.0, *values]))


def _at_most(label: str, values: Iterable[float], bound: float, key: str) -> dict:
    """PASS when the worst of `values` is at most `bound`; the worst value is reported under `key`."""
    worst = _worst(values)
    return _case(label, _verdict(worst <= bound), **{key: worst})


def _stability_case(label: str, first: Sequence[float], last: Sequence[float], rtol: float) -> dict:
    """Largest per-sample relative drift of the same samples between two resolutions."""
    drift = _worst(abs(a - b) / max(abs(b), 1e-300) for a, b in zip(first, last))
    return _case(label, PASS if drift <= rtol else INCONCLUSIVE, max_rel_drift=drift)


def _refusal_case(label: str, error: type[Exception], attempt: Callable[[], object]) -> dict:
    """PASS when `attempt` raises `error`."""
    try:
        attempt()
    except error:
        return _case(label, PASS)
    return _case(label, FAIL)


def _contour_case(label: str, res) -> dict:
    """An accepted contour value (calderon_apply raises on a failed gate), with
    its pointwise error, node-doubling drift and a-priori quadrature bound."""
    return _case(
        label, PASS, pointwise_error=res.pointwise_error, drift=res.drift, quadrature_bound=res.quadrature_bound
    )


def _partition_bracket(part, order) -> tuple[float, float]:
    """Bracket of the lattice localization quotient: cells^(-1/2) and cells^(1/2) times the master constant."""
    cells_total = part.cells_per_axis**part.spec.dim
    c_master = window_multiplier_constant(part.master.field, order)
    return cells_total**-0.5, cells_total**0.5 * c_master


def _fields(seed: int, index: int, count: int, spec: GridSpec, kmax: int = 20) -> list:
    return realize_ensemble(spectral_ensemble(_child(seed, index), count, spec.dim, kmax=kmax), spec)


def _symbol_grid(n: int) -> GridSpec:
    return make_grid(2, n, period=self_dual_period(n), blocks=(1, 1))


def _max_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)))


def _bracket_power(xi: Sequence[float], s: Sequence[float]) -> float:
    """prod_a (1 + xi_a^2)^(s_a / 2), the factors multiplied from the first axis."""
    return math.prod((1.0 + x * x) ** (e / 2.0) for x, e in zip(xi, s))


# ---------------------------------------------------------------------------
# suites
#
# A check over several fields, pairs or symbols is one list of reports, built
# in call order.  A case reads `all(r.passed for r in reps)`, and its worst
# value as `_worst(values)`, which keeps a NaN where `max` would drop it, so
# a NaN fails `_at_most` and reads INCONCLUSIVE in `_stability_case`.
# No `all()` runs over a generator that calls the library: it would stop at
# the first failure and skip the later calls.  A result the library has
# accepted, past the gates it raises on, reads PASS.
#
# `@_suite(id, claim)` registers each suite in `_SUITES` as id -> (run,
# claim), in definition order, which is the run order.  A run takes the seed
# and returns (cases, plot tables); its keyword-only parameters are the
# options a config may override, and their defaults fix each option's type.
# A list default in a signature is one object shared by every call, which is
# safe here: `_run_suite` always passes every option, freshly typed.

_SUITES: dict[str, tuple[Callable[..., tuple[list, dict]], str]] = {}


def _suite(sid: str, claim: str):
    def register(run):
        _SUITES[sid] = (run, claim)
        return run

    return register


def _defaults(run) -> dict:
    """A suite run's options and their defaults."""
    return {name: p.default for name, p in inspect.signature(run).parameters.items() if p.kind is p.KEYWORD_ONLY}


@_suite("peetre", "the two-sided weight quotient stays at or below one for every split order")
def _suite_peetre(seed: int, *, samples=100_000, max_dim=4, order_bound=3.0, scale=50.0):
    rep = peetre_check(samples=samples, seed=seed, max_dim=max_dim, order_bound=order_bound, scale=scale)
    label = f"randomized two-sided quotient, {rep.samples} draws"
    return [_case(label, _verdict(rep.passed), max_ratio=rep.max_ratio)], {}


@_suite("weight-conv", "truncated weight convolutions stay below their closed-form constants")
def _suite_weight_conv(seed: int, *, box=24.0, step=0.05, probes_per_block=17):
    combos = [
        ((1.0,), (1.0,), (0.25,), (1,)),
        ((-0.5,), (2.0,), (0.25,), (1,)),
        ((0.8, 1.2), (0.9, 0.7), (0.2, 0.2), (1, 1)),
        ((1.5,), (1.5,), (0.25,), (2,)),
    ]
    reps = [weight_conv_check(sigma_params(*c), box=box, step=step, probes_per_block=probes_per_block) for c in combos]
    labels = [f"s={list(s)} t={list(t)} eps={list(eps)} blocks={list(blocks)}" for s, t, eps, blocks in combos]
    return [_case(label, r.verdict, max_ratio=r.max_ratio, tail_fraction=r.tail_fraction) for label, r in zip(labels, reps)], {}


@_suite(
    "spectral-exactness",
    "plane waves are exact eigenvectors of weight multipliers, derivatives, and quantized frequency multipliers",
)
def _suite_spectral_exactness(seed: int, *, samples_per_axis=64, tol=1e-10):
    cases = []

    spec = make_grid(1, samples_per_axis)
    order = multi_order(1.3, (1,))
    scale = 2.0 * math.pi / spec.period
    errs = [
        (
            _max_err(bessel_apply(pw, order).samples, _bracket_power([scale * k], order.s) * pw.samples),
            _max_err(spectral_derivative(pw, 0).samples, 1j * (scale * k) * pw.samples),
        )
        for k in [0, 1, -3, 7, spec.samples_per_axis // 2 - 1]
        for pw in [plane_wave(spec, [k])]
    ]
    cases.append(_at_most("weight multiplier on plane waves, one axis", (w for w, _ in errs), tol, "max_err"))
    cases.append(_at_most("spectral derivative on plane waves, one axis", (d for _, d in errs), tol, "max_err"))

    spec2 = make_grid(2, 32, blocks=(1, 1))
    order2 = multi_order((0.7, -1.1), (1, 1))
    scale2 = 2.0 * math.pi / spec2.period
    errs2 = [
        _max_err(bessel_apply(pw, order2).samples, _bracket_power([scale2 * ka for ka in k], order2.s) * pw.samples)
        for k in [(0, 0), (3, -5), (10, 2)]
        for pw in [plane_wave(spec2, k)]
    ]
    cases.append(_at_most("split-order weight multiplier on plane waves, two blocks", errs2, tol, "max_err"))

    sym_spec = _symbol_grid(32)
    space = make_grid(1, 32, period=sym_spec.period)
    freqs = np.asarray(frequency_axes(sym_spec)[0])
    g = (1.0 + freqs**2) ** -1.0
    sym_field = field_from_values(sym_spec, np.broadcast_to(g[None, :], sym_spec.shape))
    sym = make_symbol(sym_field, 1, multi_order((0.0, 0.0), (1, 1)))
    scale_op = 2.0 * math.pi / sym_spec.period
    errs_q = [
        _max_err(op.entries @ vec, _bracket_power([scale_op * k], [-2.0]) * vec)
        for tau in (0.0, 0.5, 1.0)
        for op in [quantize(sym, tau)]
        for k in (0, 2, -5)
        for vec in [plane_wave(space, [k]).samples.ravel()]
    ]
    cases.append(_at_most("quantized frequency multiplier on plane waves, all tau", errs_q, tol, "max_err"))
    return cases, {}


@_suite(
    "exact-identities",
    "derivative norm splits, partition retraction, and the Hilbert-Schmidt identity hold to stated precision",
)
def _suite_exact_identities(seed: int, *, samples_per_axis=128, count=8, tol=1e-10, hs_tol=1e-8):
    cases = []

    spec = make_grid(1, samples_per_axis)
    fields = _fields(seed, 0, count, spec)
    order = multi_order(1.5, (1,))
    reps = [derivative_split_check(u, order, 0, tol=tol) for u in fields]
    label = "derivative norm split, single block"
    cases.append(_case(label, _verdict(all(r.passed for r in reps)), max_rel_err=_worst(r.rel_err for r in reps)))

    spec2 = make_grid(2, 32, blocks=(1, 1))
    order2 = multi_order((1.0, 2.0), (1, 1))
    fields2 = _fields(seed, 1, max(2, count // 2), spec2, kmax=8)
    reps = [derivative_split_check(u, order2, block, tol=tol) for u in fields2 for block in range(2)]
    label = "derivative norm split, both blocks of a split grid"
    cases.append(_case(label, _verdict(all(r.passed for r in reps)), max_rel_err=_worst(r.rel_err for r in reps)))

    part = build_partition(spec, 4)
    rep = retraction_roundtrip(fields[0], part, order, tol=tol)
    label = "partition retraction round trip"
    cases.append(_case(label, _verdict(rep.passed), roundtrip_sup_err=rep.roundtrip_sup_err))

    syms = symbol_family("random", _symbol_grid(16), 1, multi_order((0.0, 0.0), (1, 1)), _child(seed, 2), 3)
    gaps = [hs_identity_gap(sym, tau) for sym in syms for tau in (0.0, 0.5, 1.0)]
    cases.append(_at_most("Hilbert-Schmidt norm equals scaled symbol l2 norm, scalar tau", gaps, hs_tol, "max_gap"))

    sym_spec2 = make_grid(4, 12, period=self_dual_period(12), blocks=(2, 2))
    syms2 = symbol_family("random", sym_spec2, 2, multi_order((0.0, 0.0), (2, 2)), _child(seed, 3), 2)
    tau_mat = np.array([[0.5, 0.3], [0.0, 0.25]])
    gaps2 = [hs_identity_gap(sym, tau_mat) for sym in syms2]
    cases.append(_at_most("Hilbert-Schmidt norm equals scaled symbol l2 norm, matrix tau", gaps2, hs_tol, "max_gap"))
    return cases, {}


@_suite("window-bound", "window and periodic multiplier constants bound the weighted norm of a product")
def _suite_window_bound(seed: int, *, samples_per_axis=128, count=20):
    spec = make_grid(1, samples_per_axis)
    fields = _fields(seed, 0, count, spec)
    order = multi_order(1.2, (1,))
    chi = _default_window(spec).field
    x = coordinate_axes(spec)[0]
    smooth = field_from_values(spec, (2.0 + np.cos(x)) * np.exp(1j * np.sin(x)))
    cases = []
    for mode, factor in (("window", chi), ("periodic", smooth)):
        reps = [product_bound_check(u, factor, order, mode=mode) for u in fields]
        label = f"{mode} multiplier bound over {count} fields"
        worst = _worst(r.ratio for r in reps)
        cases.append(_case(label, _verdict(all(r.passed for r in reps)), max_ratio=worst, constant=reps[-1].constant))
    # a bounded smooth multiplier is a periodic one on the grid: the same check
    cases.append({**cases[-1], "label": f"bounded_smooth multiplier bound over {count} fields"})
    return cases, {}


@_suite("sobolev-product", "products of field pairs obey the split-order bound with the closed-form constant")
def _suite_sobolev_product(seed: int, *, samples_per_axis=128, count=12):
    spec = make_grid(1, samples_per_axis)
    pairs = zip(_fields(seed, 0, count, spec), _fields(seed, 1, count, spec))
    params = sigma_params((1.0,), (1.0,), (0.25,), (1,))
    reps = [product_bound_check(u, v, params.s, mode="sobolev_pair", params=params) for u, v in pairs]
    label = f"pairwise product bound over {count} pairs, s=t=1"
    verdict = _verdict(all(r.passed for r in reps))
    return [_case(label, verdict, max_ratio=_worst(r.ratio for r in reps), constant=reps[-1].constant)], {}


@_suite("twisted-periodization", "phase-twisted lattice periodizations occupy a single frequency coset")
def _suite_twisted_periodization(seed: int, *, samples_per_axis=128, cells_per_axis=4):
    spec = make_grid(1, samples_per_axis)
    cell = spec.period / cells_per_axis
    window = make_bump(spec, [(0.15 * cell, 0.9 * cell)], [(0.4 * cell, 0.6 * cell)])
    scale = 2.0 * math.pi / spec.period
    twists = [("zero twist", 0.0), ("grid-representable twist", 4.0 * scale), ("irrational twist, rounded to the grid", 1.0)]
    reps = [twisted_periodization(window, [theta], cells_per_axis=cells_per_axis) for _, theta in twists]
    return [
        _case(
            label,
            _verdict(r.passed),
            theta_offset=r.theta_offset,
            off_coset_mass=r.off_coset_mass,
            on_coset_max_rel_err=r.on_coset_max_rel_err,
        )
        for (label, _), r in zip(twists, reps)
    ], {}


@_suite("lattice-decomposition", "the square-summed lattice localization stays inside its two-sided bracket")
def _suite_lattice_decomposition(seed: int, *, resolutions=[128, 256], count=50, cells_per_axis=4, stability_rtol=0.10):
    _require_refinement("resolutions", resolutions)
    order = multi_order(1.0, (1,))
    samples = spectral_ensemble(_child(seed, 0), count, 1, kmax=20)
    cases = []
    per_res = []
    for n_res in resolutions:
        spec = make_grid(1, n_res)
        part = build_partition(spec, cells_per_axis)
        fields = realize_ensemble(samples, spec)
        ratios = [lattice_decomposition_ratio(u, part, order) for u in fields]
        lower, upper = _partition_bracket(part, order)
        ok = all(lower * (1.0 - 1e-9) <= r <= upper * (1.0 + 1e-9) for r in ratios)
        per_res.append(ratios)
        label = f"two-sided bracket at {n_res} samples, {count} fields"
        cases.append(_case(label, _verdict(ok), min_ratio=min(ratios), max_ratio=max(ratios), lower=lower, upper=upper))
    label = "per-sample ratio stability when the same fields are refined"
    cases.append(_stability_case(label, per_res[0], per_res[-1], stability_rtol))
    return cases, {}


@_suite("h-equals-k2", "the sliding-window route and the partition route to the quadratic amalgam norm agree")
def _suite_h_equals_k2(seed: int, *, resolutions=[128, 256], count=16, cells_per_axis=4, agreement_tol=1e-10):
    order = multi_order(1.0, (1,))
    cases = []
    for n_res in resolutions:
        spec = make_grid(1, n_res)
        part = build_partition(spec, cells_per_axis)
        fields = _fields(seed, n_res, count, spec)
        lower, upper = _partition_bracket(part, order)
        routes = [
            (h_equals_k2_ratio(u, order, part), lattice_decomposition_ratio(u, order=order, partition=part)) for u in fields
        ]
        worst_gap = _worst(abs(amalgam - partition) / max(partition, 1e-300) for amalgam, partition in routes)
        bracket_ok = all(lower * (1.0 - 1e-9) <= amalgam <= upper * (1.0 + 1e-9) for amalgam, _ in routes)
        label = f"amalgam route equals partition route at {n_res} samples"
        verdict = _verdict(worst_gap <= agreement_tol and bracket_ok)
        cases.append(_case(label, verdict, max_rel_gap=worst_gap, lower=lower, upper=upper))
    return cases, {}


def _require_p_two(p_values: list) -> None:
    """Refuse exponents without 2, whose quotients a stability case follows."""
    if 2.0 not in p_values:
        raise HypothesisError(f"option 'p_values' must include 2, which the stability case follows; got {p_values!r}")


def _require_refinement(name: str, values: list) -> None:
    """Refuse a sweep with one size, whose refinement case compares it with itself."""
    if len(set(values)) < 2:
        raise HypothesisError(
            f"option {name!r} must hold at least two distinct sizes, which the refinement case compares; got {values!r}"
        )


@_suite("window-independence", "amalgam norms built from two admissible windows differ by a bounded, stable factor")
def _suite_window_independence(
    seed: int, *, resolutions=[128, 256], count=50, p_values=[1.0, 2.0, "inf"], bracket=(0.02, 50.0),
    stability_rtol=0.10,
):
    _require_p_two(p_values)
    _require_refinement("resolutions", resolutions)
    order = multi_order(1.0, (1,))
    samples = spectral_ensemble(_child(seed, 0), count, 1, kmax=20)
    cases = []
    track = []
    for n_res in resolutions:
        spec = make_grid(1, n_res)
        fields = realize_ensemble(samples, spec)
        w1 = _default_window(spec)
        w2 = _narrow_window(spec)
        for p in p_values:
            rep = window_ratio_check(fields, order, p, w1, w2)
            inside = bracket[0] <= rep.min_ratio and rep.max_ratio <= bracket[1]
            if p == 2.0:
                track.append(rep.ratios)
            label = f"window quotient bracket, p={_fmt_p(p)}, {n_res} samples"
            verdict = PASS if inside else INCONCLUSIVE
            cases.append(_case(label, verdict, min_ratio=rep.min_ratio, max_ratio=rep.max_ratio))
    label = "per-sample window quotient stability under refinement, p=2"
    cases.append(_stability_case(label, track[0], track[-1], stability_rtol))
    return cases, {}


@_suite("embedding-chain", "amalgam norms decrease along the integrability exponent and along the order")
def _suite_embedding_chain(seed: int, *, samples_per_axis=128, count=10, p_values=[1.0, 2.0, 4.0, "inf"]):
    spec = make_grid(1, samples_per_axis)
    fields = _fields(seed, 0, count, spec)
    order = multi_order(1.0, (1,))
    lower = multi_order(0.5, (1,))
    window = _default_window(spec)
    reps = [embedding_chain_check(u, order, lower, p_values, window) for u in fields]
    cases = [
        _case(f"norms decrease along p over {count} fields", _verdict(all(r.p_chain_ok for r in reps))),
        _case("norms decrease when the order drops", _verdict(all(r.order_chain_ok for r in reps))),
    ]
    order_sup = multi_order(0.75, (1,))
    sups = [rl_sup_bound_check(u, order_sup) for u in fields]
    worst = _worst(r.sup / max(r.weighted_bound, 1e-300) for r in sups)
    label = "sup norm through the spectrum bound, s=3/4"
    cases.append(_case(label, _verdict(all(r.passed for r in sups)), max_ratio=worst))
    return cases, {}


@_suite("kato-product", "windowed norms of products obey the split-order bound with the explicit reference constant")
def _suite_kato_product(seed: int, *, samples_per_axis=128, count=10, slack=1.05):
    spec = make_grid(1, samples_per_axis)
    pairs = list(zip(_fields(seed, 0, count, spec), _fields(seed, 1, count, spec)))
    params = sigma_params((1.0,), (1.0,), (0.25,), (1,))
    window = _default_window(spec)
    rep = kato_product_check(pairs, params, 2.0, 2.0, window)
    verdict = _verdict(rep.max_ratio <= rep.reference_constant * slack)
    label = f"windowed product bound over {count} pairs, p=q=2"
    return [_case(label, verdict, max_ratio=rep.max_ratio, reference_constant=rep.reference_constant)], {}


@_suite("retraction", "localized sections reassemble the field exactly with comparable section norms")
def _suite_retraction(seed: int, *, resolutions=[128, 256], count=8, cells_per_axis=4, tol=1e-10):
    order = multi_order(1.0, (1,))
    cases = []
    for n_res in resolutions:
        spec = make_grid(1, n_res)
        part = build_partition(spec, cells_per_axis)
        reps = [retraction_roundtrip(u, part, order, tol=tol) for u in _fields(seed, n_res, count, spec)]
        worst = _worst(r.roundtrip_sup_err for r in reps)
        ratio = _worst(r.section_norm / max(r.reference_norm, 1e-300) for r in reps)
        label = f"section reassembly at {n_res} samples, {count} fields"
        cases.append(_case(label, _verdict(all(r.passed for r in reps)), max_roundtrip_sup_err=worst, max_section_ratio=ratio))
    return cases, {}


@_suite("mollifier-rate", "smoothing errors obey the explicit two-power bound and realize the predicted rate")
def _suite_mollifier_rate(
    seed: int, *, samples_per_axis=1024, count=8, kmax=500, delta=0.02,
    epsilons=[0.4, 0.2828, 0.2, 0.1414, 0.1, 0.0707, 0.05], pairs=[(2.0, 1.0), (1.5, 1.0), (1.0, 0.75)],
    slope_tol=0.1, fit_floor=0.1,
):
    spec = make_grid(1, samples_per_axis)
    window = _default_window(spec)
    if len({e for e in epsilons if e >= fit_floor}) < 2:
        raise HypothesisError(f"option 'fit_floor' = {fit_floor:g} leaves fewer than two distinct epsilons to fit the rate")
    cases = []
    rows = []
    for pair_index, (s, sp) in enumerate(pairs):
        order_s = multi_order(s, (1,))
        order_sp = multi_order(sp, (1,))
        ens = critical_ensemble(_child(seed, pair_index), count, 1, kmax, s, delta=delta)
        reps = [mollifier_rate_check(u, order_s, order_sp, epsilons, window=window) for u in realize_ensemble(ens, spec)]
        # Fit only the upper part of the sweep: below fit_floor the
        # ensemble's finite spectrum has no tail left to lose and the
        # local slope steepens past the predicted rate.
        kept = [[(e, err) for e, err in zip(r.epsilons, r.errors) if e >= fit_floor] for r in reps]
        slopes = [float(np.polyfit(np.log([e for e, _ in k]), np.log([err for _, err in k]), 1)[0]) for k in kept]
        slope_med = float(np.median(slopes))
        target = reps[-1].slope_target
        rows.extend([f"{s:g}->{sp:g}", e, err, bnd] for e, err, bnd in zip(reps[0].epsilons, reps[0].errors, reps[0].bounds))
        label = f"two-power bound and Young contraction, orders {s:g}->{sp:g}"
        cases.append(_case(label, _verdict(all(r.bound_ok for r in reps) and all(r.young_ok for r in reps))))
        label = f"realized rate on critically regular fields, orders {s:g}->{sp:g}"
        verdict = PASS if abs(slope_med - target) <= slope_tol else INCONCLUSIVE
        cases.append(_case(label, verdict, median_slope=slope_med, slope_target=target))
    plots = {"mollifier-rate-sweep.csv": (["pair", "epsilon", "error", "bound"], rows)}
    return cases, plots


@_suite(
    "calderon",
    "the contour calculus reproduces identity, square, exponential, reciprocal, and quotient values with stable quadrature",
)
def _suite_calderon(seed: int, *, samples_per_axis=256, samples_per_axis_2d=32, node_sweep=[16, 24, 32, 48, 64]):
    spec = make_grid(1, samples_per_axis)
    x = coordinate_axes(spec)[0]
    u0 = field_from_values(spec, 2.0 + np.cos(x))
    us = positive_field(spec, _child(seed, 0))

    cases = [
        _contour_case("identity reproduced through the contour", calderon_apply([u0], holo_identity())),
        _contour_case("square of a seeded positive field", calderon_apply([us], holo_square())),
        _contour_case("exponential of a cosine profile", calderon_apply([u0], holo_exp())),
    ]
    inv = invert(us)
    label = "reciprocal with certified lower bound"
    cases.append(_case(label, PASS, residual=inv.residual, lower_bound=inv.lower_bound))

    numer = make_bump(spec, [(2.0, 4.0)]).field
    cutoff = make_bump(spec, [(0.05, 6.1)], [(2.0, 4.0)])
    floor = float(np.min(np.abs(us.samples)))
    division = divide(numer, us, cutoff, floor)
    label = "quotient on a cutoff neighborhood of the numerator support"
    cases.append(_case(label, PASS, residual=division.residual))

    chain = chain_rule_check([us], holo_square())
    cases.append(_case("chain rule for the square, one axis", _verdict(chain.passed), max_rel_err=chain.max_rel_err))

    spec2 = make_grid(2, samples_per_axis_2d, blocks=(2,))
    f1 = positive_field(spec2, _child(seed, 1), kmax=4)
    f2 = positive_field(spec2, _child(seed, 2), kmax=4)
    cases.append(_contour_case("two-variable product on a plane grid", calderon_apply([f1, f2], holo_product2())))
    chain2 = chain_rule_check([f1, f2], holo_product2())
    label = "chain rule for the two-variable product"
    cases.append(_case(label, _verdict(chain2.passed), max_rel_err=chain2.max_rel_err))

    attained = (complex(u0.samples[7]), complex(us.samples[7]))
    rep = joint_spectrum_witness([u0, us], attained)
    label = "witness refused at an attained value pair"
    cases.append(_case(label, _verdict(rep.status == "refused"), status=rep.status, delta_inf=rep.delta_inf))
    rep = joint_spectrum_witness([u0, us], (10.0 + 3.0j, -9.0 + 0.0j))
    verdict = _verdict(rep.status == "witness")
    cases.append(_case("witness produced away from the joint range", verdict, status=rep.status, residual=rep.residual))

    partials = check_partial_consistency(holo_product2(), seed=_child(seed, 3))
    label = "supplied partial derivatives match symmetric differences"
    cases.append(_case(label, _verdict(partials.passed), max_rel_err=partials.max_rel_err))

    cont = composite_continuity_check([u0], holo_exp(), epsilons=[0.4, 0.2, 0.1, 0.05])
    label = "composition gap decreases along the smoothing sweep"
    verdict = PASS if cont.monotone_ok else INCONCLUSIVE
    cases.append(_case(label, verdict, gaps=list(cont.gaps), skipped=list(cont.skipped)))

    cases.append(
        _refusal_case(
            "under-resolved contour configuration is refused",
            ContourConfigError,
            lambda: ContourSpec(nodes_per_circle=8),
        )
    )

    sweep = [
        calderon_apply([u0], holo_exp(), ContourSpec(nodes_per_circle=nodes, tolerance=math.inf, drift_tolerance=math.inf))
        for nodes in node_sweep
    ]
    rows = [[nodes, res.drift, res.pointwise_error] for nodes, res in zip(node_sweep, sweep)]
    plots = {"calderon-nodes.csv": (["nodes", "drift", "pointwise_error"], rows)}
    return cases, plots


@_suite("sw-embedding", "the sliding-window modulation norm is controlled by the explicit windowed majorant")
def _suite_sw_embedding(
    seed: int, *, resolutions=[128, 256], count=50, p_values=[1.0, 2.0], order=1.5, bracket=10.0, stability_rtol=0.10
):
    _require_p_two(p_values)
    _require_refinement("resolutions", resolutions)
    weight_order = multi_order(order, (1,))
    samples = spectral_ensemble(_child(seed, 0), count, 1, kmax=20)
    cases = []
    track = []
    for n_res in resolutions:
        spec = make_grid(1, n_res)
        chi = make_bump(spec, [(0.5, 2.5)], [(1.0, 2.0)])
        chi_tilde = make_bump(spec, [(0.1, 2.9)], [(0.45, 2.55)])
        fields = realize_ensemble(samples, spec)
        for p in p_values:
            rep = sw_embedding_check(fields, weight_order, p, chi, chi_tilde)
            if p == 2.0:
                track.append(rep.ratios)
            if rep.max_ratio <= 1.05:
                verdict = PASS
            elif rep.max_ratio <= bracket:
                verdict = INCONCLUSIVE
            else:
                verdict = FAIL
            cases.append(_case(f"majorant quotient, p={_fmt_p(p)}, {n_res} samples", verdict, max_ratio=rep.max_ratio))
        if n_res == resolutions[0]:
            dil = dilation_ratio_check(fields[: min(6, count)], 2.0, chi, factor=2)
            finite = math.isfinite(dil.max_volume) and math.isfinite(dil.max_root)
            cases.append(
                _case(
                    "integer dilation, both candidate prefactors recorded",
                    PASS if finite else INCONCLUSIVE,
                    max_ratio_volume_exponent=dil.max_volume,
                    max_ratio_root_exponent=dil.max_root,
                )
            )
            cases.append(
                _refusal_case(
                    "non-integrable weight order is refused",
                    HypothesisError,
                    lambda: sw_embedding_check(fields[:1], multi_order(0.5, (1,)), 2.0, chi, chi_tilde),
                )
            )
    label = "per-sample majorant quotient stability under refinement, p=2"
    cases.append(_stability_case(label, track[0], track[-1], stability_rtol))
    return cases, {}


@_suite(
    "schatten",
    "quantized symbols obey the Hilbert-Schmidt identity, Schatten monotonicity, and reflection-invariant singular values",
)
def _suite_schatten(
    seed: int, *, resolutions=[16, 32], bound_resolutions=[32, 64], count=6, taus=[0.0, 0.5, 1.0], hs_tol=1e-8,
    center_box=(1.5, 5.5), width_range=(0.5, 0.9), stability_rtol=0.10,
):
    _require_refinement("resolutions", resolutions)
    _require_refinement("bound_resolutions", bound_resolutions)
    cases = []
    identity_track = []
    for n_res in resolutions:
        sym_spec = _symbol_grid(n_res)
        order = multi_order((2.0, 2.0), (1, 1))

        # each family's gaps are taken before the next family is drawn
        families = [
            (syms, [hs_identity_gap(sym, tau) for sym in syms for tau in taus])
            for name in ("gaussian", "separable", "random")
            for syms in [symbol_family(name, sym_spec, 1, order, _child(seed, n_res + zlib.crc32(name.encode()) % 1000), count)]
        ]
        label = f"Hilbert-Schmidt identity across symbol families, {n_res} samples"
        cases.append(_at_most(label, (gap for _, gaps in families for gap in gaps), hs_tol, "max_gap"))

        gaussian_ops = [quantize(sym, 0.5) for sym in families[0][0]]
        norms = [(schatten_norm(op, 1.0), schatten_norm(op, 2.0), schatten_norm(op, math.inf)) for op in gaussian_ops]
        mono_ok = all(n1 >= n2 * (1.0 - 1e-12) and n2 >= ninf * (1.0 - 1e-12) for n1, n2, ninf in norms)
        cases.append(_case(f"Schatten norms decrease in p, {n_res} samples", _verdict(mono_ok)))

        ones = field_from_values(sym_spec, np.ones(sym_spec.shape))
        id_sym = make_symbol(ones, 1, order)
        id_op = quantize(id_sym, 0.5)
        id_norm = schatten_norm(id_op, 2.0)
        id_gap = abs(id_norm - math.sqrt(n_res))
        identity_track.append(id_norm)
        label = f"constant symbol quantizes to the identity, {n_res} samples"
        verdict = _verdict(id_gap <= 1e-10 * math.sqrt(n_res))
        cases.append(_case(label, verdict, hs_norm=id_norm, exact_value=math.sqrt(n_res)))
        op0 = gaussian_ops[0]
        flip = (-np.arange(n_res)) % n_res
        conj = op0.entries[np.ix_(flip, flip)]
        sv_a = np.sort(op0.singular_values())
        sv_b = np.sort(operator_from_matrix(conj).singular_values())
        sv_gap = float(np.max(np.abs(sv_a - sv_b)) / max(float(sv_a[-1]), 1e-300))
        label = f"singular values invariant under grid reflection, {n_res} samples"
        cases.append(_at_most(label, [sv_gap], 1e-9, "max_rel_gap"))

    growth = identity_track[-1] / max(identity_track[0], 1e-300)
    expected_growth = math.sqrt(resolutions[-1] / resolutions[0])
    label = "constant symbol: Hilbert-Schmidt norm grows like the square root of the dimension"
    verdict = _verdict(abs(growth - expected_growth) <= 1e-10 * expected_growth)
    cases.append(_case(label, verdict, growth=growth, expected_growth=expected_growth))

    bound_track = []
    for n_res in bound_resolutions:
        sym_spec = _symbol_grid(n_res)
        syms = symbol_family(
            "gaussian",
            sym_spec,
            1,
            multi_order((2.0, 2.0), (1, 1)),
            _child(seed, 11),
            count,
            center_box=center_box,
            width_range=width_range,
        )
        window = make_bump(sym_spec, [(1.0, 9.0)] * 2, [(3.0, 7.0)] * 2)
        rep = schatten_bound_check(syms, 1.0, 0.5, window, ContinuousScheme(16))
        bound_track.append(rep.ratios)
        label = f"trace-class quotient against the windowed symbol norm, {n_res} samples"
        cases.append(_case(label, PASS if math.isfinite(rep.max_ratio) else INCONCLUSIVE, max_ratio=rep.max_ratio))
    label = "per-symbol trace-class quotient stability on localized symbols"
    cases.append(_stability_case(label, bound_track[0], bound_track[-1], stability_rtol))

    sym_spec = _symbol_grid(resolutions[0])
    sweep_sym = symbol_family("gaussian", sym_spec, 1, multi_order((2.0, 2.0), (1, 1)), _child(seed, 7), 1)[0]
    sweep = tau_sweep_check(sweep_sym, 2.0)
    verdict = PASS if sweep.monotone_ok else INCONCLUSIVE
    cases.append(_case("Schatten distance grows along the tau sweep", verdict, gaps=list(sweep.gaps_from_first)))
    return cases, {}


@_suite("coordinate-change", "radial frequency multipliers commute with every signed axis permutation")
def _suite_coordinate_change(seed: int, *, samples_per_axis=32, count=5, tol=1e-11):
    spec = make_grid(2, samples_per_axis, blocks=(2,))
    fields = _fields(seed, 0, count, spec, kmax=6)
    multipliers = [
        ("linear", lambda t: t),
        ("square root weight", lambda t: np.sqrt(1.0 + t)),
        ("heat factor", lambda t: np.exp(-t)),
    ]
    isometries = all_isometries(2)
    reps = [coordinate_change_check(u, b, iso, tol=tol) for u in fields for _, b in multipliers for iso in isometries]
    label = f"commutation over {len(isometries)} isometries and {len(multipliers)} multipliers"
    cases = [_case(label, _verdict(all(r.passed for r in reps)), max_sup_err=_worst(r.sup_err for r in reps))]
    cases.append(
        _refusal_case(
            "non-lattice rotation is refused",
            HypothesisError,
            lambda: isometry_from_matrix(np.array([[0.8, -0.6], [0.6, 0.8]])),
        )
    )
    rot = isometry_from_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    mat = np.linalg.matrix_power(rot.matrix(), 4)
    cases.append(_case("quarter turn has order four", _verdict(bool(np.array_equal(mat, np.eye(2))))))
    return cases, {}


# ---------------------------------------------------------------------------
# serialization helpers


def _parse_number(raw, what: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise _UsageError(f"{what} must be a number, got {raw!r}")


_INF_NAMES = ("inf", "infinity", "oo")


def _parse_p(raw, what: str = "p") -> float:
    if isinstance(raw, str) and raw.strip().lower() in _INF_NAMES:
        return math.inf
    return _parse_number(raw, what)


def _fmt_p(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return repr(obj)
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    path.write_text(text, encoding="ascii")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _case_table(cases: list[dict]) -> tuple[list[str], list[list]]:
    """The union of the case keys in first-seen order, and one row per case, blank where it lacks a key."""
    columns = list(dict.fromkeys(key for case in cases for key in case))
    return columns, [["" if case.get(c) is None else case[c] for c in columns] for case in cases]


def _environment() -> dict:
    return {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# commands


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed config JSON at byte {exc.pos}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise _UsageError("config top level must be an object")
    unknown = set(cfg) - {"seed", "suites"}
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    if "seed" in cfg:
        _check_seed(cfg["seed"], "config key 'seed'")
    suites = cfg.get("suites", {})
    if not isinstance(suites, dict):
        raise _UsageError("config key 'suites' must be an object")
    for sid, overrides in suites.items():
        if sid not in _SUITES:
            raise _UsageError(f"unknown suite in config: {sid!r}")
        if not isinstance(overrides, dict):
            raise _UsageError(f"config for suite {sid!r} must be an object")
        defaults = _defaults(_SUITES[sid][0])
        bad = set(overrides) - set(defaults)
        if bad:
            raise _UsageError(f"unknown options for suite {sid!r}: {sorted(bad)}")
        for key, value in overrides.items():
            if key == "count" and (_typed(value, 1) is None or value < 1):
                raise _UsageError(f"option 'count' of suite {sid!r} must be an integer >= 1, got {value!r}")
            if _typed(value, defaults[key]) is None:
                default = json.dumps(_jsonable(defaults[key]))
                raise _UsageError(f"option {key!r} of suite {sid!r} must have the type of its default {default}, got {value!r}")
    return cfg


def _typed(value, default):
    """A config value as its default's type, or None when it lacks the
    default's JSON type: an integer for an integer default; a float, from an
    integer or a finite number, for a float default; math.inf for an "inf"
    name; a tuple for a list as long as a tuple default, each element typed
    as the tuple's in turn (a tuple is accepted too, so every default types
    as itself); and a non-empty list for a list default, each element typed
    as the first default element it fits.  (Python's JSON reader accepts NaN
    and Infinity, which are not JSON: a NaN tolerance would read FAIL, an
    infinite one PASS.)"""
    if isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value)):
        return None
    if isinstance(default, tuple):
        if not (isinstance(value, (list, tuple)) and len(value) == len(default)):
            return None
        typed = tuple(map(_typed, value, default))
    elif isinstance(default, list):
        if not (isinstance(value, list) and value):
            return None
        typed = [next((t for t in (_typed(v, d) for d in default) if t is not None), None) for v in value]
    elif isinstance(default, str):
        return math.inf if isinstance(value, str) and value.strip().lower() in _INF_NAMES else None
    elif isinstance(default, float):
        return float(value) if isinstance(value, (int, float)) else None
    else:
        return value if isinstance(value, int) else None
    return None if None in typed else typed


def _check_seed(seed, what: str) -> None:
    if _typed(seed, 0) is None or seed < 0:
        raise _UsageError(f"{what} must be an integer >= 0, got {seed!r}")


class _UsageError(Exception):
    pass


def _run_suite(sid: str, cfg_all: dict, base_seed: int):
    run, claim = _SUITES[sid]
    overrides = cfg_all.get("suites", {}).get(sid, {})
    options = {key: _typed(overrides.get(key, default), default) for key, default in _defaults(run).items()}
    seed = _per_suite_seed(base_seed, sid)
    cases, plots = run(seed, **options)
    verdict = _aggregate([c["verdict"] for c in cases])
    report = {
        "suite": sid,
        "claim": claim,
        "seed": seed,
        "config": options,
        "cases": cases,
        "verdict": verdict,
        "environment": _environment(),
    }
    return report, plots


def cmd_verify(args) -> int:
    cfg_all = _load_config(args.config)
    if args.seed is not None:
        _check_seed(args.seed, "--seed")
    base_seed = args.seed if args.seed is not None else cfg_all.get("seed", 0)
    suite_ids = list(_SUITES) if args.suite == "all" else [args.suite]
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot use --out {out} as the report directory: {exc}")

    verdicts = {}
    errors = {}
    for sid in suite_ids:
        try:
            report, plots = _run_suite(sid, cfg_all, base_seed)
        except KatokitError as exc:
            print(f"error: {sid}: {exc}", file=sys.stderr)
            errors[sid] = type(exc).__name__
            continue
        _write_json(out / f"{sid}.json", report)
        _write_csv(out / f"{sid}-cases.csv", *_case_table(report["cases"]))
        for fname, (header, rows) in plots.items():
            _write_csv(out / fname, header, rows)
        verdicts[sid] = report["verdict"]
        print(f"{sid:24s} {report['verdict']}")
    # a suite that raised has no verdict; a run with one must not read PASS
    overall = FAIL if errors else _aggregate(list(verdicts.values()))
    summary = {"verdicts": verdicts, "overall": overall, "seed": base_seed}
    if errors:
        summary["errors"] = errors
    _write_json(out / "summary.json", summary)
    print(f"{'overall':24s} {overall}")
    if errors:
        return 2
    return 1 if overall == FAIL else 0


def _parse_interval_list(raw: str, dim: int, what: str) -> list[tuple[float, float]]:
    parts = [_parse_number(v, what) for v in raw.split(",")]
    if len(parts) == 2:
        return [(parts[0], parts[1])] * dim
    if len(parts) != 2 * dim:
        raise _UsageError(f"{what} needs 2 or {2 * dim} comma-separated numbers, got {len(parts)}")
    return [(parts[2 * a], parts[2 * a + 1]) for a in range(dim)]


# The options each compute kind reads, besides --field and --json.
_COMPUTE_OPTIONS = {
    "l2": (),
    "sup": (),
    "h-norm": ("order",),
    "kato-norm": ("order", "p", "points_per_axis", "cells", "window_support", "window_plateau"),
    "sw-norm": ("p", "points_per_axis", "window_support", "window_plateau"),
    "schatten": ("p", "tau"),
}


def _check_compute_options(args) -> None:
    """Refuse an option that the requested kind would silently ignore."""
    kind = args.kind
    options = {name for names in _COMPUTE_OPTIONS.values() for name in names}
    for name, value in vars(args).items():  # in the order the options are declared
        if name in options and value is not None and name not in _COMPUTE_OPTIONS[kind]:
            raise _UsageError(f"--{name.replace('_', '-')} does not apply to compute {kind}")
    if args.points_per_axis is not None and args.cells is not None:
        raise _UsageError("--points-per-axis does not apply with --cells: the lattice scheme has no translation grid")
    if args.window_plateau is not None and args.window_support is None:
        raise _UsageError("--window-plateau does not apply without --window-support")


def cmd_compute(args) -> int:
    _check_compute_options(args)
    field = load_field(args.field)
    spec = field.spec
    kind = args.kind
    p = _parse_p("2" if args.p is None else args.p, "--p")
    tau = 0.5 if args.tau is None else args.tau

    order = None
    if args.order is not None:
        values = [_parse_number(v, "--order") for v in args.order.split(",")]
        if len(values) == 1:
            values = values * len(spec.blocks)
        order = multi_order(values, spec.blocks)
    elif kind in ("h-norm", "kato-norm"):
        order = multi_order([1.0] * len(spec.blocks), spec.blocks)

    if kind == "l2":
        value = l2_norm(field)
    elif kind == "sup":
        value = sup_norm(field)
    elif kind == "h-norm":
        value = h_norm(field, order)
    elif kind in ("kato-norm", "sw-norm"):
        if args.window_support:
            support = _parse_interval_list(args.window_support, spec.dim, "--window-support")
            plateau = None
            if args.window_plateau:
                plateau = _parse_interval_list(args.window_plateau, spec.dim, "--window-plateau")
            window = make_bump(spec, support, plateau)
        else:
            window = _default_window(spec)
        if kind == "sw-norm":
            value = sw_norm(field, p, window, args.points_per_axis)
        else:
            scheme = (
                LatticeScheme(args.cells)
                if args.cells is not None
                else ContinuousScheme(args.points_per_axis)
            )
            value = kato_norm(field, amalgam_spec(order, p, window, scheme))
    elif kind == "schatten":
        if spec.dim % 2 != 0:
            raise HypothesisError("schatten needs a symbol field with an even number of axes")
        space_dim = spec.dim // 2
        sym = make_symbol(field, space_dim, multi_order([0.0] * len(spec.blocks), spec.blocks))
        value = schatten_norm(quantize(sym, tau), p)
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown compute kind {kind!r}")

    print(f"{value:.12g}")
    if args.json:
        payload = {
            "kind": kind,
            "field": str(args.field),
            "value": value,
            "parameters": {
                "order": None if order is None else list(order.s),
                "p": _fmt_p(p) if "p" in _COMPUTE_OPTIONS[kind] else None,
                "tau": tau if kind == "schatten" else None,
            },
        }
        _write_json(Path(args.json), payload)
    return 0


def _collect_reports(path: Path) -> list[dict]:
    if path.is_dir():
        reports = [r for r in map(_read_report, sorted(path.glob("*.json"))) if r is not None]
        if not reports:
            raise _UsageError(f"no suite reports with cases found under {path}")
        return reports
    report = _read_report(path)
    if report is None:
        raise _UsageError(f"{path} does not contain a suite report (missing 'cases')")
    return [report]


def _read_report(path: Path) -> dict | None:
    """The suite report stored at `path`, or None for a JSON file that holds
    no `cases` (such as summary.json)."""
    try:
        raw = path.read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read report {path}: {exc}")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed report JSON in {path} at byte {exc.pos}: {exc.msg}")
    if not isinstance(payload, dict) or "cases" not in payload:
        return None
    cases = payload["cases"]
    if not (isinstance(cases, list) and all(isinstance(c, dict) for c in cases)):
        raise _UsageError(f"{path}: 'cases' must be a list of objects")
    # the table pads these as text and counts the verdicts by name
    texts = [("'suite'", payload.get("suite", "")), ("'verdict'", payload.get("verdict", ""))]
    texts += [(f"case {i} 'verdict'", case.get("verdict", "")) for i, case in enumerate(cases)]
    for what, value in texts:
        if not isinstance(value, str):
            raise _UsageError(f"{path}: {what} must be a string, got {value!r}")
    return payload


_NUMERIC_HINTS = (
    "max_ratio",
    "max_err",
    "max_rel_err",
    "max_gap",
    "max_rel_gap",
    "max_sup_err",
    "residual",
    "drift",
    "pointwise_error",
    "median_slope",
    "roundtrip_sup_err",
    "max_roundtrip_sup_err",
    "tail_fraction",
)


def cmd_report(args) -> int:
    reports = _collect_reports(Path(args.path))
    verdicts = [report.get("verdict", INCONCLUSIVE) for report in reports]
    for report, verdict in zip(reports, verdicts):
        print(f"{report.get('suite', '?'):24s} {verdict}")
        print(f"  claim: {report.get('claim', '')}")
        for case in report.get("cases", []):
            detail = ""
            for key in _NUMERIC_HINTS:
                if key in case:
                    value = case[key]
                    detail = f"  [{key}={value:.6g}]" if isinstance(value, (int, float)) else f"  [{key}={value}]"
                    break
            print(f"  - {case.get('verdict', '?'):12s} {case.get('label', '')}{detail}")
    if args.csv:
        cases = [{"suite": r.get("suite", "?"), **case} for r in reports for case in r.get("cases", [])]
        _write_csv(Path(args.csv), *_case_table(cases))
    # A verdict string this version does not know is shown but does not count.
    return 1 if _aggregate([v for v in verdicts if v in _SEVERITY]) == FAIL else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="katokit",
        description="norms, claim suites, and reports for sampled fields on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one norm on a stored field")
    p_compute.add_argument("kind", choices=list(_COMPUTE_OPTIONS))
    p_compute.add_argument("--field", required=True, help="path to a stored field (FLD1)")
    p_compute.add_argument("--order", help="comma-separated order, one value per block or a single value")
    p_compute.add_argument("--p", help="integrability exponent, number or 'inf' (default 2)")
    p_compute.add_argument("--tau", type=float, help="quantization parameter for schatten (default 0.5)")
    p_compute.add_argument("--points-per-axis", type=int, default=None, help="translation grid density")
    p_compute.add_argument("--cells", type=int, default=None, help="use the lattice scheme with this many cells per axis")
    p_compute.add_argument("--window-support", help="window support as lo,hi (per axis or shared)")
    p_compute.add_argument("--window-plateau", help="window plateau as lo,hi (per axis or shared)")
    p_compute.add_argument("--json", help="also write the value and parameters to this JSON file")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run a claim suite and write reports")
    p_verify.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p_verify.add_argument("--config", help="JSON file with {seed, suites:{name:{option:value}}}")
    p_verify.add_argument("--out", default="katokit-reports", help="output directory")
    p_verify.add_argument("--seed", type=int, default=None, help="base seed (overrides config)")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="render stored reports as a table")
    p_report.add_argument("path", help="a report JSON file or a directory of them")
    p_report.add_argument("--csv", help="also write all cases to this CSV file")
    p_report.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, KatokitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
