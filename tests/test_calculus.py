"""Contour-integral functional calculus with pointwise evaluation oracles.

Every application of a holomorphic function is compared against the
direct sample-by-sample evaluation; the generic domain distance is
checked against a densely sampled boundary before the bisection route is
trusted anywhere else.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from katokit.ensembles import positive_field
from katokit import calculus
from katokit.errors import (
    ContourConfigError,
    GridError,
    HypothesisError,
    MarginError,
    NonFiniteError,
    OutOfDomainError,
    QuadratureError,
    ShapeError,
)
from katokit.grid import (
    Field,
    constant_field,
    coordinate_axes,
    field_from_values,
    make_bump,
    make_grid,
    plane_wave,
)
from katokit.weights import multi_order
from katokit.sobolev import spectral_derivative
from katokit.calculus import (
    ContourSpec,
    GenericDomain,
    HoloFn,
    calderon_apply,
    chain_rule_check,
    check_partial_consistency,
    composite_continuity_check,
    divide,
    entire_domain,
    holo_exp,
    holo_identity,
    holo_product2,
    holo_reciprocal,
    holo_square,
    invert,
    joint_spectrum_witness,
    range_diameter,
    range_distance,
)

N = 256


def cosine_field():
    spec = make_grid(1, N)
    x = np.asarray(coordinate_axes(spec)[0])
    return spec, field_from_values(spec, 2.0 + np.cos(x))


# ---------------------------------------------------------------------------
# range geometry


def test_margin_radius_for_inversion_domain():
    # distance from the range of 2 + cos x (min modulus 1) to the excluded
    # disc |z| <= 1/2 is 1/2, and the margin radius is one eighth of that
    spec, u = cosine_field()
    result = calderon_apply([u], holo_reciprocal(0.5))
    assert result.distance == pytest.approx(0.5, abs=1e-12)
    assert result.r == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_entire_function_takes_radius_from_range_diameter():
    spec, u = cosine_field()
    result = calderon_apply([u], holo_exp())
    assert math.isinf(result.distance)
    diam = range_diameter([u])
    assert result.r == pytest.approx(max(diam, 1.0) * 0.125, rel=1e-12)


def test_generic_domain_distance_vs_dense_boundary_oracle():
    # star-shaped domain r(theta) = 2 + 0.3 cos(3 theta) about 1 + 0.5j;
    # oracle: one million boundary samples, direct minimum distance
    center = 1.0 + 0.5j

    def inside(z):
        w = np.asarray(z) - center
        theta = np.angle(w)
        return np.abs(w) < 2.0 + 0.3 * np.cos(3.0 * theta)

    dom = GenericDomain(inside, reach=8.0)
    theta = np.linspace(0.0, 2.0 * math.pi, 1_000_001)
    boundary = center + (2.0 + 0.3 * np.cos(3.0 * theta)) * np.exp(1j * theta)
    points = np.array([center, 1.5 + 0.9j, 0.2 - 0.4j, 2.4 + 0.5j])
    got = dom.complement_distance(points)
    for z, d in zip(points, got):
        want = float(np.min(np.abs(boundary - z)))
        assert d == pytest.approx(want, abs=1e-5)


def test_generic_domain_finds_a_bounded_complement():
    # the complement of |z| > 1 is the unit disc and that of |z - 2| > 0.5 a
    # disc around the pole; neither holds a ray's end point at reach, so only
    # a march out from the point meets them
    outside_unit = GenericDomain(lambda z: np.abs(z) > 1.0, reach=8.0)
    got = outside_unit.complement_distance(np.array([2.0, 3j, -1.5]))
    np.testing.assert_allclose(got, [1.0, 2.0, 0.5], rtol=0.0, atol=1e-5)
    pole = GenericDomain(lambda z: np.abs(z - 2.0) > 0.5, reach=8.0)
    assert pole.complement_distance(np.array([0.0]))[0] == pytest.approx(1.5, abs=1e-5)
    # through a function on that domain: the range [0.2, 0.8] lies 0.7 from the disc
    fn = HoloFn(1, lambda z: 1.0 / (z[0] - 2.0), (pole,), (lambda z: -1.0 / (z[0] - 2.0) ** 2,))
    spec = make_grid(1, N)
    u = field_from_values(spec, 0.5 + 0.3 * np.cos(np.asarray(coordinate_axes(spec)[0])))
    assert range_distance([u], fn.domain) == pytest.approx(0.7, abs=1e-5)


@pytest.mark.parametrize("reach", [0.0, -1.0, math.nan, math.inf])
def test_generic_domain_refuses_a_reach_it_cannot_search(reach):
    # refused when made, not at the first distance with a bare math error
    with pytest.raises(HypothesisError, match="^reach must be finite and positive"):
        GenericDomain(lambda z: np.abs(z) > 1.0, reach=reach)


def test_range_distance_raises_outside_domain():
    spec, u = cosine_field()
    with pytest.raises(OutOfDomainError):
        range_distance([u], holo_reciprocal(1.5).domain)  # min |u| = 1 < 1.5


# ---------------------------------------------------------------------------
# contour evaluation against pointwise oracles


def test_identity_function_reproduces_field():
    spec, u = cosine_field()
    result = calderon_apply([u], holo_identity())
    assert np.max(np.abs(result.field.samples - u.samples)) < 1e-10
    assert result.drift <= 1e-9


def test_square_matches_pointwise_square():
    spec = make_grid(1, N)
    x = np.asarray(coordinate_axes(spec)[0])
    u = field_from_values(spec, 1.0 + 0.1 * np.cos(x))
    result = calderon_apply([u], holo_square())
    assert np.max(np.abs(result.field.samples - u.samples**2)) < 1e-8
    assert result.drift <= 1e-9


def test_exp_matches_pointwise_exp():
    spec, u = cosine_field()
    result = calderon_apply([u], holo_exp())
    assert np.max(np.abs(result.field.samples - np.exp(u.samples))) < 1e-8


def test_reciprocal_leaves_unit_product():
    spec, u = cosine_field()
    result = calderon_apply([u], holo_reciprocal(0.5))
    assert np.max(np.abs(result.field.samples * u.samples - 1.0)) < 1e-8


def test_seeded_smooth_field_square():
    spec = make_grid(1, N)
    u = positive_field(spec, seed=7)
    result = calderon_apply([u], holo_square())
    assert np.max(np.abs(result.field.samples - u.samples**2)) < 1e-8
    assert result.drift <= 1e-9


def test_contour_rejects_too_few_nodes():
    with pytest.raises(ContourConfigError):
        ContourSpec(nodes_per_circle=8)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tolerance", math.nan),
        ("drift_tolerance", math.nan),
        ("tolerance", 0.0),
        ("drift_tolerance", -1e-9),
        ("nodes_per_circle", 16.5),
    ],
)
def test_contour_spec_refuses_bad_value(field, value):
    with pytest.raises(ContourConfigError, match=field):
        ContourSpec(**{field: value})


def test_contour_spec_accepts_infinite_tolerances():
    spec, u = cosine_field()
    probe = ContourSpec(nodes_per_circle=np.int64(16), tolerance=math.inf, drift_tolerance=math.inf)
    result = calderon_apply([u], holo_exp(), probe)
    assert result.nodes_used == 32
    assert result.drift < 1e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan)])
@pytest.mark.parametrize("make_fn", [holo_exp, lambda: holo_reciprocal(0.5)], ids=["entire", "disc-complement"])
def test_non_finite_sample_is_out_of_domain(bad, make_fn):
    spec, u = cosine_field()
    samples = np.array(u.samples, dtype=complex)
    samples[9] = bad
    with pytest.raises(OutOfDomainError, match=r"\(9,\)"):
        calderon_apply([Field(spec, samples)], make_fn())


def test_non_finite_contour_values_fail_the_gates():
    # Phi is NaN on the upper part of every circle but finite on the real
    # samples, so only the certificates can see it
    spec, u = cosine_field()
    fn = HoloFn(1, lambda z: np.where(np.imag(z[0]) > 0.3, np.nan, z[0]), entire_domain(1))
    with pytest.raises(QuadratureError):
        calderon_apply([u], fn, ContourSpec(tolerance=math.inf, drift_tolerance=math.inf))


def test_margin_failure_when_radius_collapses():
    # pushing the excluded disc against the range leaves no room for the
    # smoothing margin: epsilon halves down to the grid's resolution floor
    spec, u = cosine_field()
    with pytest.raises(MarginError, match="resolution floor"):
        calderon_apply([u], holo_reciprocal(1.0 - 1e-9))


def test_grid_too_coarse_for_any_kernel_is_a_margin_error():
    # 16 samples of a 2 pi period put the resolvable epsilon floor at pi / 2,
    # above the largest epsilon a kernel takes
    spec = make_grid(1, 16)
    u = field_from_values(spec, 2.0 + np.cos(np.asarray(coordinate_axes(spec)[0])))
    with pytest.raises(MarginError, match=r"resolution floor at eps=1\.57: epsilon must lie in \(0, 1\]"):
        calderon_apply([u], holo_exp())


@pytest.mark.parametrize(
    "call",
    [lambda: joint_spectrum_witness([], []), lambda: range_distance([], ()), lambda: range_diameter([])],
    ids=["joint_spectrum_witness", "range_distance", "range_diameter"],
)
def test_empty_field_list_is_refused_by_name(call):
    with pytest.raises(ShapeError, match="^fields must hold at least one field"):
        call()


def test_arity_mismatch():
    spec, u = cosine_field()
    with pytest.raises(ShapeError):
        calderon_apply([u, u], holo_identity())


# ---------------------------------------------------------------------------
# the node-doubling sums


def _holo_exp_times_square() -> HoloFn:
    return HoloFn(2, lambda z: np.exp(z[0]) * z[1] ** 2, entire_domain(2))


def _doubling_case(d: int):
    """Fields u, a smoothed proxy v, and Phi: d = 1 on 64 samples, d = 2 on 16 x 16."""
    if d == 1:
        spec = make_grid(1, 64)
        fn = holo_exp()
    else:
        spec = make_grid(2, 16, blocks=(2,))
        fn = _holo_exp_times_square()
    values = np.stack([positive_field(spec, seed=20 + k, kmax=3).samples for k in range(d)]).astype(complex)
    x = np.asarray(coordinate_axes(spec)[0])
    smoothed = values + 0.05 * np.exp(1j * x)
    return values, smoothed, fn


def _trapezoid_by_node_tuple(values, smoothed, fn, rho, nodes):
    """The d-fold trapezoid sum over every node tuple, one tuple at a time."""
    d = values.shape[0]
    u = values.reshape(d, -1)
    v = smoothed.reshape(d, -1)
    zeta = [rho * np.exp(2j * math.pi * a / nodes) for a in range(nodes)]
    total = np.zeros(u.shape[1], dtype=complex)
    for tup in itertools.product(range(nodes), repeat=d):
        z = np.stack([v[k] + zeta[a] for k, a in enumerate(tup)])
        weight = np.ones(u.shape[1], dtype=complex)
        for k, a in enumerate(tup):
            weight = weight * (zeta[a] / nodes) / (zeta[a] + v[k] - u[k])
        total += fn.evaluate(z) * weight
    return total.reshape(values.shape[1:])


@pytest.mark.parametrize("d, nodes", [(1, 64), (2, 16)])
def test_contour_sums_match_node_tuple_loop(d, nodes):
    values, smoothed, fn = _doubling_case(d)
    coarse, fine = calculus._contour_sums(values, smoothed, fn, 0.5, nodes)
    for got, count in ((coarse, nodes), (fine, 2 * nodes)):
        want = _trapezoid_by_node_tuple(values, smoothed, fn, 0.5, count)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [1, 2])
def test_contour_evaluates_the_fine_grid_once(d):
    spec = make_grid(1, 64) if d == 1 else make_grid(2, 32, blocks=(2,))
    fields = [positive_field(spec, seed=30 + k, kmax=3) for k in range(d)]
    inner = holo_exp() if d == 1 else holo_product2()
    sizes = []

    def spy(z):
        sizes.append(z[0].size)
        return inner.evaluate(z)

    fn = HoloFn(d, spy, inner.domain)
    nodes = 64  # a HoloFn without a modulus bound keeps 64 nodes per circle
    result = calderon_apply(fields, fn)
    npts = spec.num_points
    # one node row per first-variable node, then the pointwise check on the
    # samples themselves
    assert sizes[:-1] == [(2 * nodes) ** (d - 1) * npts] * (2 * nodes)
    assert sizes[-1] == npts
    assert result.nodes_used == 2 * nodes


def test_contour_result_survives_a_function_returning_its_argument():
    # 2-D N=16 with 64 nodes per circle evaluates its 128 first-variable rows
    # one call each, in one reused node buffer; z[0] is a view into it, and
    # must be contracted before the next row rewrites the buffer
    values, smoothed, _ = _doubling_case(2)
    nodes = 64
    calls = []

    def first(z):
        calls.append(z.shape[1])
        return z[0]

    coarse, fine = calculus._contour_sums(values, smoothed, HoloFn(2, first, entire_domain(2)), 0.5, nodes)
    assert calls == [1] * (2 * nodes)
    copying = HoloFn(2, lambda z: np.array(z[0]), entire_domain(2))
    want_coarse, want_fine = calculus._contour_sums(values, smoothed, copying, 0.5, nodes)
    assert np.array_equal(coarse, want_coarse) and np.array_equal(fine, want_fine)
    assert np.max(np.abs(fine - values[0])) <= 1e-12


@pytest.mark.parametrize("d, n, nodes", [(1, 64, 64), (2, 16, 16), (2, 8, 64), (3, 4, 8)])
def test_contour_evaluates_one_node_row_per_call(d, n, nodes):
    # every call gets the nodes of one first-variable row: shape
    # (d, 1, 2n, .., 2n, N^n), with 2n repeated d - 1 times
    spec = make_grid(d, n)
    values = 2.0 + np.random.default_rng(20).random((d,) + spec.shape).astype(complex)
    smoothed = values + 0.05
    shapes = []

    def spy(z):
        shapes.append(z.shape)
        return z[0] * z[-1]

    calculus._contour_sums(values, smoothed, HoloFn(d, spy, entire_domain(d)), 0.5, nodes)
    assert shapes == [(d, 1) + (2 * nodes,) * (d - 1) + (spec.num_points,)] * (2 * nodes)


def test_contour_refuses_a_function_that_writes_into_its_argument():
    values, smoothed, _ = _doubling_case(2)

    def writer(z):
        z[0] += 1.0
        return z[0] * z[1]

    with pytest.raises(ValueError, match="read-only"):
        calculus._contour_sums(values, smoothed, HoloFn(2, writer, entire_domain(2)), 0.5, 64)
    spec = make_grid(2, 32, blocks=(2,))
    fields = [positive_field(spec, seed=30 + k, kmax=3) for k in range(2)]
    with pytest.raises(ValueError, match="read-only"):
        calderon_apply(fields, HoloFn(2, writer, entire_domain(2)))


def test_contour_holds_one_node_buffer():
    # at d=2 N=32 with 64 nodes per circle the node buffer is 4 MiB (one row
    # of 128 x 1024 nodes per variable), one row's values 2 MiB and the
    # weights 4 MiB: ~12 MiB. A row's values kept alive while the next row
    # is evaluated adds 2 MiB, a buffer of more rows 4 MiB or more. numpy
    # reports its buffers to tracemalloc.
    spec = make_grid(2, 32, blocks=(2,))
    fields = [positive_field(spec, seed=30 + k, kmax=4) for k in range(2)]
    contour = ContourSpec(nodes_per_circle=64)
    calderon_apply(fields, holo_product2(), contour)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        calderon_apply(fields, holo_product2(), contour)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 4 * 2**20 <= peak <= 13 * 2**20


def test_drift_gate_compares_the_doubled_sums():
    spec, u = cosine_field()
    result = calderon_apply([u], holo_exp(), ContourSpec(nodes_per_circle=64))
    assert result.nodes_used == 128
    assert 0.0 < result.drift <= ContourSpec().drift_tolerance
    with pytest.raises(QuadratureError, match="node doubling 64 -> 128"):
        calderon_apply([u], holo_exp(), ContourSpec(nodes_per_circle=64, drift_tolerance=0.5 * result.drift))


def test_mollifier_radius_past_half_period_is_a_contour_error():
    # the smoothing kernel's radius 1 does not fit below a half period of 0.75
    spec = make_grid(1, N, period=1.5)
    u = field_from_values(spec, 2.0 + np.cos(4.0 * math.pi * np.asarray(coordinate_axes(spec)[0]) / 1.5))
    with pytest.raises(ContourConfigError, match=r"mollifier radius 1 .*half period 0\.75"):
        calderon_apply([u], holo_exp())


# ---------------------------------------------------------------------------
# the a-priori quadrature bound


def _polydisc_points(v, radius):
    """Dense samples of the closed polydisc of `radius` around each column of v."""
    ring = (radius * np.linspace(0.0, 1.0, 6)[:, None] * np.exp(2j * math.pi * np.arange(48) / 48)).reshape(-1)
    offsets = np.stack(np.meshgrid(*[ring] * v.shape[0], indexing="ij")).reshape(v.shape[0], -1)
    return v[:, :, None] + offsets[:, None, :]


@pytest.mark.parametrize(
    "fn, v",
    [
        (holo_identity(), [[2.0, -1.0 + 3.0j, 0.1j]]),
        (holo_square(), [[2.0, -1.0 + 3.0j, 0.1j]]),
        (holo_exp(), [[2.0, -1.0 + 3.0j, 0.1j]]),
        (holo_reciprocal(0.5), [[2.0, -1.0 + 3.0j, 1.4j]]),
        (holo_product2(), [[2.0, -1.0 + 3.0j, 0.1j], [0.5, 1.0j, -2.0]]),
    ],
    ids=lambda p: p.label if isinstance(p, HoloFn) else "",
)
def test_modulus_bound_covers_dense_polydisc_samples(fn, v):
    v = np.asarray(v, dtype=complex)
    for radius in (0.1, 0.5, 0.8):
        observed = np.max(np.abs(fn.evaluate(_polydisc_points(v, radius))), axis=-1)
        assert np.all(fn.modulus_bound(v, radius) >= observed * (1.0 - 1e-12))


def _assert_bound_covers_error(fields, fn):
    chosen = calderon_apply(fields, fn)
    assert chosen.pointwise_error <= chosen.quadrature_bound <= ContourSpec().tolerance
    coarse = calderon_apply(fields, fn, ContourSpec(nodes_per_circle=16, tolerance=math.inf, drift_tolerance=math.inf))
    assert coarse.pointwise_error <= coarse.quadrature_bound
    return chosen


def _smooth_fields(d):
    if d == 1:
        return [positive_field(make_grid(1, N), seed=7)]
    spec = make_grid(2, 32, blocks=(2,))
    return [positive_field(spec, seed=30 + k, kmax=4) for k in range(2)]


@pytest.mark.parametrize(
    "make_fields, fn",
    [
        (lambda: [cosine_field()[1]], holo_identity()),
        (lambda: [cosine_field()[1]], holo_exp()),
        (lambda: [cosine_field()[1]], holo_reciprocal(0.5)),
        (lambda: _smooth_fields(1), holo_square()),
        (lambda: _smooth_fields(2), holo_product2()),
    ],
    ids=["identity", "exp", "reciprocal", "square", "product"],
)
def test_quadrature_bound_covers_the_contour_error(make_fields, fn):
    # at the chosen node count and at the floor of 16
    result = _assert_bound_covers_error(make_fields(), fn)
    assert result.nodes_used < 128


def _child_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@pytest.mark.parametrize("seed", [7, 12])
def test_quadrature_bound_covers_the_benchmark_calculus_cases(monkeypatch, seed):
    # the contour calculus of the operators benchmark: exp, square and
    # reciprocal, invert and divide at d=1 N=256, the product at d=2 N=32
    spec = make_grid(1, N)
    u = positive_field(spec, _child_seed(seed, 0))
    spec2 = make_grid(2, 32, blocks=(2,))
    f1, f2 = (positive_field(spec2, _child_seed(seed, k), kmax=4) for k in (1, 2))
    lower = float(np.min(np.abs(u.samples)))
    calls = []

    def spy(fields, fn, contour=None):
        calls.append((fields, fn))
        return calderon_apply(fields, fn, contour)

    monkeypatch.setattr(calculus, "calderon_apply", spy)
    for fn in (holo_exp(), holo_square(), holo_reciprocal(lower / 2.0)):
        spy([u], fn)
    invert(u)
    divide(make_bump(spec, [(2.0, 4.0)]).field, u, make_bump(spec, [(0.05, 6.1)], [(2.0, 4.0)]), lower)
    spy([f1, f2], holo_product2())
    assert len(calls) == 6
    for fields, fn in calls:
        _assert_bound_covers_error(fields, fn)


def test_quadrature_bound_needs_its_inner_term():
    # every pole sits at 0.3 rho, close to the circle: the identity's outer
    # term and the rounding are far below the error, and only the inner
    # term q_in^n = 0.3^n (times M_in) covers it
    rho = 0.75
    rng = np.random.default_rng(4)
    values = (2.0 + rng.random((1, 64))).astype(complex)
    smoothed = values - 0.3 * rho * np.exp(2j * math.pi * rng.random((1, 64)))
    fn = holo_identity()
    bound = calculus._trapezoid_bound(fn, values, smoothed, rho, math.inf)
    coarse, _ = calculus._contour_sums(values, smoothed, fn, rho, 16)
    error = float(np.max(np.abs(coarse - values[0])))
    assert 1e-10 < error <= bound(16)


def test_explicit_node_count_is_honoured():
    spec, u = cosine_field()
    assert calderon_apply([u], holo_exp()).nodes_used == 32
    result = calderon_apply([u], holo_exp(), ContourSpec(nodes_per_circle=40))
    assert result.nodes_used == 80
    assert result.pointwise_error <= result.quadrature_bound


def test_function_without_modulus_bound_keeps_64_nodes():
    spec, u = cosine_field()
    result = calderon_apply([u], HoloFn(1, lambda z: np.exp(z[0]), entire_domain(1)))
    assert result.nodes_used == 128
    assert math.isinf(result.quadrature_bound)


# ---------------------------------------------------------------------------
# inversion


def test_invert_constant():
    spec = make_grid(1, N)
    result = invert(constant_field(spec, 2.0))
    assert np.max(np.abs(result.field.samples - 0.5)) < 1e-10
    assert result.residual < 1e-8


def test_invert_unimodular_wave():
    spec = make_grid(1, N)
    u = plane_wave(spec, 3)
    result = invert(u)
    assert np.max(np.abs(result.field.samples - plane_wave(spec, -3).samples)) < 1e-8


def test_invert_matches_pointwise_reciprocal():
    spec, u = cosine_field()
    result = invert(u)
    assert np.max(np.abs(result.field.samples - 1.0 / u.samples)) < 1e-8
    assert result.residual < 1e-8
    assert result.lower_bound == pytest.approx(1.0, abs=1e-12)


def test_invert_reports_norms_on_request():
    spec, u = cosine_field()
    result = invert(u, order=multi_order(1.0, (1,)))
    assert result.h_norm_value is not None and result.h_norm_value > 0.0


# ---------------------------------------------------------------------------
# division


def test_divide_by_one_returns_numerator():
    spec = make_grid(1, N)
    u = make_bump(spec, [(2.0, 4.0)]).field
    cutoff = make_bump(spec, [(0.05, 6.1)], [(2.0, 4.0)])
    result = divide(u, constant_field(spec, 1.0), cutoff, c=1.0)
    assert np.max(np.abs(result.field.samples - u.samples)) < 1e-7


def test_divide_matches_pointwise_quotient_on_support():
    spec, v = cosine_field()
    u = make_bump(spec, [(2.0, 4.0)]).field
    cutoff = make_bump(spec, [(0.05, 6.1)], [(2.0, 4.0)])
    result = divide(u, v, cutoff, c=1.0)
    supp = np.abs(u.samples) > 1e-12
    err = np.max(np.abs((result.field.samples - u.samples / v.samples)[supp]))
    assert err < 1e-7
    assert result.residual < 1e-7


def test_divide_floor_is_quarter_of_c_squared():
    spec, v = cosine_field()
    u = make_bump(spec, [(2.0, 4.0)]).field
    cutoff = make_bump(spec, [(0.05, 6.1)], [(2.0, 4.0)])
    c = 1.0
    result = divide(u, v, cutoff, c=c)
    assert result.floor >= 0.25 * c * c * (1.0 - 1e-12)


def test_divide_rejects_cutoff_not_one_on_support():
    spec, v = cosine_field()
    u = make_bump(spec, [(2.0, 4.0)]).field
    bad_cutoff = make_bump(spec, [(2.5, 3.5)], [(2.8, 3.2)])
    with pytest.raises(HypothesisError):
        divide(u, v, bad_cutoff, c=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("argument", ["u", "v", "cutoff"])
def test_divide_refuses_non_finite_samples_naming_the_argument(argument, bad):
    spec, v = cosine_field()
    u = make_bump(spec, [(2.0, 4.0)]).field
    cutoff = make_bump(spec, [(0.05, 6.1)], [(2.0, 4.0)]).field
    args = {"u": u, "v": v, "cutoff": cutoff}
    samples = np.array(args[argument].samples, dtype=complex)
    samples[9] = bad
    args[argument] = Field(spec, samples)
    with pytest.raises(NonFiniteError, match=rf"^{argument}: 1 non-finite sample\(s\), the first at flat index 9"):
        divide(args["u"], args["v"], args["cutoff"], c=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_range_diameter_refuses_a_non_finite_sample(bad):
    # a non-finite sample has no range to measure: it is refused, naming its field
    spec, u = cosine_field()
    samples = np.array(u.samples, dtype=complex)
    samples[4] = bad
    with pytest.raises(NonFiniteError, match=r"^fields\[1\]: 1 non-finite sample\(s\), the first at flat index 4"):
        range_diameter([u, Field(spec, samples)])


def test_invert_refuses_a_non_finite_sample():
    spec, u = cosine_field()
    samples = np.array(u.samples, dtype=complex)
    samples[4] = math.nan
    with pytest.raises(NonFiniteError, match=r"^u: 1 non-finite sample\(s\), the first at flat index 4"):
        invert(Field(spec, samples))


def _nan_at_first_sample(result):
    samples = np.array(result.field.samples)
    samples[0] = math.nan
    return dataclasses.replace(result, field=Field(result.field.spec, samples))


@pytest.mark.parametrize(
    "patched, run",
    [
        ("calderon_apply", lambda u: invert(u)),
        ("invert", lambda u: divide(u, u, constant_field(u.spec, 1.0), c=1.0)),
        ("invert", lambda u: joint_spectrum_witness([u], [0.0])),
    ],
    ids=["invert", "divide", "witness"],
)
def test_residual_gates_refuse_a_nan_residual(monkeypatch, patched, run):
    # a NaN in the value the gate checks must fail the gate, not pass it
    original = getattr(calculus, patched)
    monkeypatch.setattr(calculus, patched, lambda *a, **k: _nan_at_first_sample(original(*a, **k)))
    spec, u = cosine_field()
    with pytest.raises(QuadratureError, match=r"residual .*nan exceeds"):
        run(u)


# ---------------------------------------------------------------------------
# chain rule


def test_chain_rule_identity():
    spec, u = cosine_field()
    report = chain_rule_check([u], holo_identity())
    assert report.passed
    assert report.max_rel_err < 1e-6


def test_chain_rule_square_against_hand_derivative():
    spec = make_grid(1, N)
    x = np.asarray(coordinate_axes(spec)[0])
    u = field_from_values(spec, 1.0 + 0.1 * np.cos(x))
    report = chain_rule_check([u], holo_square())
    assert report.passed
    # independent route: d(u^2) = 2 u u' with the spectral derivative
    sq = calderon_apply([u], holo_square()).field
    lhs = spectral_derivative(sq, 0).samples
    rhs = 2.0 * u.samples * spectral_derivative(u, 0).samples
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-6


def test_chain_rule_product_of_two_fields():
    spec = make_grid(2, 32, blocks=(2,))
    u = positive_field(spec, seed=3, kmax=4)
    v = positive_field(spec, seed=4, kmax=4)
    report = chain_rule_check([u, v], holo_product2())
    assert report.passed
    assert report.max_rel_err < 1e-6


def test_partial_consistency_of_builtin_partials():
    report = check_partial_consistency(holo_product2())
    assert report.passed and not report.skipped


@pytest.mark.parametrize(
    "fn",
    [
        holo_reciprocal(0.5),
        HoloFn(
            1,
            lambda z: 1.0 / (z[0] - 2.0),
            (GenericDomain(lambda z: np.abs(z - 2.0) > 0.5, reach=8.0),),
            (lambda z: -1.0 / (z[0] - 2.0) ** 2,),
        ),
    ],
    ids=["disc_complement", "generic_domain"],
)
def test_partial_consistency_samples_inside_a_domain_with_a_hole(fn):
    # the points come from the domain factor (a disc complement, or a
    # predicate): a partial that refuses any point outside it still passes,
    # and one of the wrong sign fails
    dom, partial = fn.domain[0], fn.partials[0]

    def inside_only(z):
        assert np.all(dom.contains(z[0]))
        return partial(z)

    report = check_partial_consistency(dataclasses.replace(fn, partials=(inside_only,)))
    assert report.passed and not report.skipped and report.points > 0
    assert not check_partial_consistency(dataclasses.replace(fn, partials=(lambda z: -partial(z),))).passed


@pytest.mark.parametrize("k", [0, 1])
def test_partial_consistency_fails_on_a_nan_partial(k):
    # a NaN partial is the worst error, wherever it sits, and fails the check
    partials = [lambda z: z[1], lambda z: z[0]]
    partials[k] = lambda z: np.full(np.shape(z[0]), np.nan)
    report = check_partial_consistency(HoloFn(2, lambda z: z[0] * z[1], entire_domain(2), tuple(partials)))
    assert not report.passed and math.isnan(report.max_rel_err)


# ---------------------------------------------------------------------------
# joint spectrum witnesses


def test_witness_for_constant_field():
    spec = make_grid(1, N)
    report = joint_spectrum_witness([constant_field(spec, 2.0)], [0.0])
    assert report.status == "witness"
    assert report.residual < 1e-8
    assert np.max(np.abs(report.witnesses[0].samples - 0.5)) < 1e-8


def test_witness_refused_on_the_range():
    spec, u = cosine_field()
    lam = complex(u.samples[7])
    report = joint_spectrum_witness([u], [lam])
    assert report.status == "refused"
    assert report.witnesses is None
    assert report.delta_inf < 1e-6


@pytest.mark.parametrize(
    "nan_at, lam, named",
    [
        (3, [2.0], r"fields\[0\]: 1 non-finite sample\(s\), the first at flat index 3"),
        (None, [complex(2.0, math.nan)], r"lam\[0\] = \(2\+nanj\) is not finite"),
    ],
    ids=["sample", "lambda"],
)
def test_witness_refuses_non_finite_input_naming_it(nan_at, lam, named):
    # a NaN sample used to pass the range test and be refused by the inner
    # invert as `u`, which is not a parameter of the witness
    spec = make_grid(1, N)
    samples = np.cos(np.asarray(coordinate_axes(spec)[0])).astype(np.complex128)
    if nan_at is not None:
        samples[nan_at] = math.nan
    with pytest.raises(NonFiniteError, match=rf"^{named}"):
        joint_spectrum_witness([field_from_values(spec, samples)], lam)


def test_witness_pair_off_the_joint_range():
    spec = make_grid(1, N)
    x = np.asarray(coordinate_axes(spec)[0])
    fields = [field_from_values(spec, np.cos(x)), field_from_values(spec, np.sin(x))]
    report = joint_spectrum_witness(fields, [2.0, 2.0])
    assert report.status == "witness"
    assert report.residual < 1e-8
    combo = sum(
        w.samples * (f.samples - lam)
        for w, f, lam in zip(report.witnesses, fields, (2.0, 2.0))
    )
    assert np.max(np.abs(combo - 1.0)) < 1e-8


# ---------------------------------------------------------------------------
# continuity of composition


def test_composition_gap_shrinks_with_epsilon():
    spec, u = cosine_field()
    report = composite_continuity_check([u], holo_exp(), [0.4, 0.2, 0.1, 0.05])
    assert report.monotone_ok
    assert report.gaps[-1] < report.gaps[0]


def test_composition_skips_unresolvable_epsilons():
    spec, u = cosine_field()
    report = composite_continuity_check([u], holo_exp(), [0.4, 0.2, 1e-4])
    assert 1e-4 in report.skipped
    assert len(report.epsilons) == 2


def test_composition_refuses_a_nan_epsilon():
    # a NaN is neither resolvable nor below the floor: it is refused, not dropped
    spec, u = cosine_field()
    with pytest.raises(GridError, match=r"epsilon must lie in \(0, 1\], got nan"):
        composite_continuity_check([u], holo_exp(), [0.4, np.nan, 0.2])


def test_composition_refuses_non_finite_sample():
    spec, u = cosine_field()
    samples = np.array(u.samples, dtype=complex)
    samples[9] = np.nan
    with pytest.raises(OutOfDomainError, match=r"\(9,\)"):
        composite_continuity_check([Field(spec, samples)], holo_exp(), [0.4, 0.2, 0.1])


def test_composition_refuses_smoothed_proxy_outside_domain():
    # a jump from -2 to 2 stays outside the unit disc, but smoothing it
    # passes through 0
    spec = make_grid(1, N)
    x = np.asarray(coordinate_axes(spec)[0])
    u = field_from_values(spec, np.where(x < math.pi, -2.0, 2.0))
    with pytest.raises(OutOfDomainError):
        composite_continuity_check([u], holo_reciprocal(1.0), [0.4, 0.2, 0.1])
