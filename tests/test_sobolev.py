"""Bessel multipliers, block Sobolev norms, periodization and partitions.

h_norm is validated against an explicit mode-by-mode sum built on the
O(N^2) discrete Fourier oracle, then reused as the reference norm for the
structural identities.
"""

import itertools
import math

import numpy as np
import pytest

from katokit.ensembles import realize_ensemble, spectral_ensemble
from katokit.errors import HypothesisError, NonFiniteError, PartitionError, ShapeError
from katokit.grid import (
    Field,
    constant_field,
    coordinate_axes,
    field_from_values,
    frequency_axes,
    make_bump,
    make_grid,
    plane_wave,
    window_from_factors,
    window_from_samples,
)
from katokit import sobolev
from katokit.weights import multi_order, sigma_params
from katokit.sobolev import (
    bessel_apply,
    build_partition,
    derivative_split_check,
    h_norm,
    lattice_decomposition_ratio,
    periodic_multiplier_constant,
    product_bound_check,
    rl_sup_bound_check,
    spectral_derivative,
    twisted_periodization,
    window_multiplier_constant,
)

TWO_PI = 2.0 * math.pi


def dft_direct(samples, spec):
    n = spec.samples_per_axis
    x = np.arange(n) * spec.spacing
    xi = np.asarray(frequency_axes(spec)[0])
    mat = np.exp(-1j * np.outer(xi, x)) / n
    out = samples.astype(np.complex128)
    for axis in range(spec.dim):
        out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


def weight_mesh_oracle(spec, order):
    """<<xi_k>>^s on the full frequency mesh, built per block by hand."""
    axes = [np.asarray(a) for a in frequency_axes(spec)]
    mesh = np.ones(spec.shape)
    axis0 = 0
    for s_l, b_l in zip(order.s, order.blocks):
        sq = np.zeros(spec.shape)
        for axis in range(axis0, axis0 + b_l):
            shape = [1] * spec.dim
            shape[axis] = -1
            sq = sq + axes[axis].reshape(shape) ** 2
        mesh = mesh * (1.0 + sq) ** (s_l / 2.0)
        axis0 += b_l
    return mesh


def h_norm_oracle(field, order):
    """Direct sum L^n sum_k <<xi_k>>^{2s} |c_k|^2 with the O(N^2) spectrum."""
    spec = field.spec
    coeffs = dft_direct(field.samples, spec)
    w = weight_mesh_oracle(spec, order)
    return float(
        math.sqrt(spec.period**spec.dim * float(np.sum((w * np.abs(coeffs)) ** 2)))
    )


def rng_field(spec, seed, kmax=8):
    """Band-limited random field, frequencies |k| <= kmax per axis."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(spec.shape, dtype=np.complex128)
    for idx in itertools.product(range(-kmax, kmax + 1), repeat=spec.dim):
        coeffs[idx] = rng.standard_normal() + 1j * rng.standard_normal()
    from katokit.grid import from_spectrum

    return from_spectrum(spec, coeffs)


# ---------------------------------------------------------------------------
# Bessel multiplier


def test_bessel_order_zero_is_identity():
    spec = make_grid(1, 64)
    u = rng_field(spec, 1)
    out = bessel_apply(u, multi_order(0.0, (1,)))
    assert np.max(np.abs(out.samples - u.samples)) < 1e-13


def test_bessel_on_plane_wave():
    # <<D>>^2 e^{i3x} = <3>^2 e^{i3x} = 10 e^{i3x}
    spec = make_grid(1, 64)
    out = bessel_apply(plane_wave(spec, 3), multi_order(2.0, (1,)))
    want = 10.0 * plane_wave(spec, 3).samples
    assert np.max(np.abs(out.samples - want)) < 1e-10


def test_bessel_inverse_pair():
    spec = make_grid(2, 32, blocks=(1, 1))
    order = multi_order((1.3, -0.7), (1, 1))
    inv = multi_order((-1.3, 0.7), (1, 1))
    u = rng_field(spec, 2, kmax=6)
    back = bessel_apply(bessel_apply(u, order), inv)
    assert np.max(np.abs(back.samples - u.samples)) < 1e-11


def test_spectral_derivative_on_plane_wave():
    spec = make_grid(1, 64)
    out = spectral_derivative(plane_wave(spec, 5), 0)
    want = 5j * plane_wave(spec, 5).samples
    assert np.max(np.abs(out.samples - want)) < 1e-12


# ---------------------------------------------------------------------------
# Sobolev norm


def test_h_norm_of_constant():
    # only the zero mode, weight 1, measure 2 pi
    spec = make_grid(1, 64)
    for s in (0.0, 1.0, 2.5, -1.0):
        assert h_norm(constant_field(spec), multi_order(s, (1,))) == pytest.approx(
            math.sqrt(TWO_PI)
        )


def test_h_norm_of_plane_wave():
    spec = make_grid(1, 64)
    got = h_norm(plane_wave(spec, 3), multi_order(1.0, (1,)))
    assert got == pytest.approx(math.sqrt(10.0) * math.sqrt(TWO_PI))


@pytest.mark.parametrize(
    "dim,n,blocks,s",
    [
        (1, 32, (1,), (1.0,)),
        (1, 32, (1,), (-0.5,)),
        (2, 16, (2,), (1.5,)),
        (2, 16, (1, 1), (0.7, -1.1)),
    ],
)
def test_h_norm_matches_direct_sum_oracle(dim, n, blocks, s):
    spec = make_grid(dim, n, blocks=blocks)
    order = multi_order(s, blocks)
    u = rng_field(spec, 17, kmax=min(n // 4, 6))
    got = h_norm(u, order)
    want = h_norm_oracle(u, order)
    assert got == pytest.approx(want, rel=1e-12)


def test_h_norm_order_must_match_blocks():
    spec = make_grid(2, 16, blocks=(1, 1))
    with pytest.raises(ShapeError):
        h_norm(constant_field(spec), multi_order(1.0, (2,)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_h_norm_refuses_non_finite_sample(bad):
    # refused, naming the count and the first flat index, instead of
    # answered with nan
    spec = make_grid(1, 64)
    samples = rng_field(spec, 5).samples.copy()
    samples[3] = bad
    with pytest.raises(NonFiniteError, match=r"field: 1 non-finite sample\(s\), the first at flat index 3$"):
        h_norm(Field(spec, samples), multi_order(1.0, (1,)))


# ---------------------------------------------------------------------------
# derivative split identity


def test_derivative_split_constant():
    spec = make_grid(1, 64)
    report = derivative_split_check(constant_field(spec), multi_order(1.0, (1,)), 0)
    assert report.passed
    assert report.lhs_sq == pytest.approx(TWO_PI)
    assert report.rhs_sq == pytest.approx(TWO_PI)


def test_derivative_split_plane_wave_values():
    # |e^{i3x}|_{H^1}^2 = <3>^2 2 pi = 10 * 2 pi on both sides
    spec = make_grid(1, 64)
    report = derivative_split_check(plane_wave(spec, 3), multi_order(1.0, (1,)), 0)
    assert report.passed
    assert report.lhs_sq == pytest.approx(10.0 * TWO_PI)


def test_derivative_split_random_fields():
    spec1 = make_grid(1, 64)
    r1 = derivative_split_check(rng_field(spec1, 3), multi_order(1.7, (1,)), 0)
    assert r1.passed and r1.rel_err < 1e-10
    spec2 = make_grid(2, 32, blocks=(2,))
    r2 = derivative_split_check(rng_field(spec2, 4, kmax=5), multi_order(0.8, (2,)), 0)
    assert r2.passed and r2.rel_err < 1e-10


# ---------------------------------------------------------------------------
# multiplier bounds


def test_periodic_multiplier_constant_one():
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    chi = constant_field(spec)
    u = rng_field(spec, 5)
    report = product_bound_check(u, chi, order, mode="periodic")
    assert report.passed
    # chi = 1 multiplies by exactly 1: both norms agree and so does the bound
    assert report.lhs == pytest.approx(report.reference, rel=1e-12)
    assert periodic_multiplier_constant(chi, order) >= 1.0


def test_window_bound_on_plane_wave():
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    chi = make_bump(spec, [(np.pi / 2, 3 * np.pi / 2)], [(2 * np.pi / 3, 4 * np.pi / 3)])
    u = plane_wave(spec, 3)
    report = product_bound_check(u, chi.field, order, mode="window")
    assert report.passed
    # both sides concrete: the bound C ||u|| dominates the evaluated product norm
    assert report.lhs <= report.constant * report.reference * (1.0 + 1e-8)
    assert window_multiplier_constant(chi.field, order) == pytest.approx(report.constant)


def test_window_bound_random_ensemble():
    spec = make_grid(1, 128)
    order = multi_order(1.5, (1,))
    chi = make_bump(spec, [(np.pi / 2, 3 * np.pi / 2)], [(2 * np.pi / 3, 4 * np.pi / 3)])
    for seed in range(20):
        report = product_bound_check(rng_field(spec, 100 + seed), chi.field, order, mode="window")
        assert report.passed, f"seed {seed}: ratio {report.ratio}"


def test_sobolev_pair_product_bound():
    # ||u v||_{H^sigma} <= C ||u||_{H^s} ||v||_{H^t} with sigma from the
    # convolution parameters; 100 random pairs
    spec = make_grid(1, 128)
    params = sigma_params((1.0,), (1.0,), (0.25,), (1,))
    order = params.s
    worst = 0.0
    for seed in range(100):
        u = rng_field(spec, 200 + seed)
        v = rng_field(spec, 300 + seed)
        report = product_bound_check(u, v, order, mode="sobolev_pair", params=params)
        assert report.passed, f"seed {seed}: ratio {report.ratio}"
        worst = max(worst, report.ratio)
    assert worst <= 1.0 + 1e-8


# ---------------------------------------------------------------------------
# twisted periodization


def _one_cell_bump(spec, cells=4):
    ell = spec.period / cells
    return make_bump(spec, [(0.15 * ell, 0.9 * ell)], [(0.4 * ell, 0.6 * ell)])


def test_periodization_zero_twist():
    spec = make_grid(1, 128)
    report = twisted_periodization(_one_cell_bump(spec), 0.0, cells_per_axis=4)
    assert report.passed
    assert report.theta_used == (0.0,)
    assert report.off_coset_mass < 1e-10
    # theta = 0 sums the four lattice translates with unit phases
    w = _one_cell_bump(spec).field.samples
    want = sum(np.roll(w, k * 32) for k in range(4))
    assert np.max(np.abs(report.field.samples - want)) < 1e-12


def test_periodization_of_periodic_window_collapses():
    # a window already invariant under the cell lattice periodizes, at
    # zero twist, to (number of lattice points) times itself
    spec = make_grid(1, 128)
    x = np.asarray(coordinate_axes(spec)[0])
    f = field_from_values(spec, 2.0 + np.cos(4.0 * x))
    w = window_from_samples(f)
    report = twisted_periodization(w, 0.0, cells_per_axis=4)
    assert np.max(np.abs(report.field.samples - 4.0 * f.samples)) < 1e-12


def test_periodization_representable_twist():
    spec = make_grid(1, 128)
    theta = 3 * (2.0 * math.pi / 4)  # representable: multiple of 2 pi / cells
    report = twisted_periodization(_one_cell_bump(spec), theta, cells_per_axis=4)
    assert report.passed
    assert report.theta_offset < 1e-12
    assert report.off_coset_mass < 1e-10
    assert report.on_coset_max_rel_err < 1e-10


def test_periodization_rounds_other_twists():
    spec = make_grid(1, 128)
    report = twisted_periodization(_one_cell_bump(spec), 1.0, cells_per_axis=4)
    assert report.theta_offset > 0.1  # 1.0 is not a multiple of pi/2
    assert report.passed  # checked against the projected twist


def test_periodization_2d_spectrum_on_coset():
    spec = make_grid(2, 64)
    ell = spec.period / 4
    w = make_bump(
        spec,
        [(0.15 * ell, 0.9 * ell)] * 2,
        [(0.4 * ell, 0.6 * ell)] * 2,
    )
    theta = (2.0 * math.pi / 4, 2 * (2.0 * math.pi / 4))
    report = twisted_periodization(w, theta, cells_per_axis=4)
    assert report.passed


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_periodization_refuses_a_non_finite_twist(theta):
    # no lattice coset represents it: refused, not projected to nan
    spec = make_grid(1, 128)
    with pytest.raises(NonFiniteError, match="theta"):
        twisted_periodization(_one_cell_bump(spec), theta, cells_per_axis=4)


# ---------------------------------------------------------------------------
# partition of unity


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_master_lattice_periodization_is_one(dim):
    spec = make_grid(dim, 128 if dim < 3 else 64)
    cells = 4 if dim < 3 else 2
    part = build_partition(spec, cells_per_axis=cells)
    assert len(part.master.axis_factors) == dim
    master = part.master.field.samples
    stride = spec.samples_per_axis // cells
    axes = tuple(range(dim))
    total = sum(np.roll(master, tuple(k * stride for k in g), axis=axes) for g in np.ndindex(*([cells] * dim)))
    assert np.max(np.abs(total - 1.0)) < 1e-10


def test_partition_build_holds_no_translate_tile():
    # the periodization check runs on the 1-D factor: no (2N)^n tile of the
    # master is built, and none stays cached on the returned partition
    part = build_partition(make_grid(3, 64), cells_per_axis=2)
    assert "factor_tiles" not in vars(part.master)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_master_periodization_check_refuses_a_corrupted_factor(monkeypatch, dim):
    def corrupted(spec, factors):
        factor = factors[0].copy()
        factor[np.argmax(factor)] *= 1.0 + 1e-9
        return window_from_factors(spec, (factor,) * spec.dim)

    monkeypatch.setattr(sobolev, "window_from_factors", corrupted)
    with pytest.raises(PartitionError, match="lattice periodization is not 1"):
        build_partition(make_grid(dim, 64), cells_per_axis=2)


def test_master_vanishes_outside_wrapped_interval():
    # the three pieces per axis are supported in cell coordinates
    # (x_i + 1/4, x_i + 3/4) for x_i in {-1/3, 0, 1/3}: together [-1/12, 13/12]
    spec = make_grid(2, 128)
    part = build_partition(spec, cells_per_axis=4)
    ell = part.cell_side
    x = np.asarray(coordinate_axes(spec)[0])
    inside = np.mod(x + ell / 12, spec.period) <= 14 * ell / 12
    samples = part.master.field.samples
    assert np.all(samples[~inside, :] == 0.0) and np.all(samples[:, ~inside] == 0.0)
    assert np.all(samples[np.ix_(inside, inside)].real > 0.0)


@pytest.mark.parametrize("cells", [4.5, 4.9, "4"])
def test_non_integer_cell_count_is_refused(cells):
    # truncating to 4 cells would build a partition of another lattice
    spec = make_grid(1, 128)
    with pytest.raises(ShapeError, match="must be a positive divisor"):
        build_partition(spec, cells_per_axis=cells)
    with pytest.raises(ShapeError, match="must be a positive divisor"):
        twisted_periodization(_one_cell_bump(spec), 0.0, cells_per_axis=cells)


# ---------------------------------------------------------------------------
# lattice decomposition ratio


def test_decomposition_ratio_constant_field_closed_form():
    # s = 0 collapses to the pointwise weight sum_g |tau_g h|^2: the ratio
    # squared is its mean over the torus
    spec = make_grid(1, 128)
    part = build_partition(spec, cells_per_axis=4)
    order = multi_order(0.0, (1,))
    got = lattice_decomposition_ratio(constant_field(spec), part, order)
    master = part.master.field.samples.real
    weight = sum(np.roll(master, k * 32) ** 2 for k in range(4))
    want = math.sqrt(float(np.mean(weight)))
    assert got == pytest.approx(want, rel=1e-12)


def test_decomposition_ratio_plane_wave_two_sided():
    # recompute the ratio from its definition with the oracle norm
    spec = make_grid(1, 128)
    part = build_partition(spec, cells_per_axis=4)
    order = multi_order(1.0, (1,))
    u = plane_wave(spec, 3)
    got = lattice_decomposition_ratio(u, part, order)
    master = part.master.field.samples
    total = 0.0
    for k in range(4):
        piece = Field(spec, np.roll(master, k * 32) * u.samples)
        total += h_norm_oracle(piece, order) ** 2
    want = math.sqrt(total) / h_norm_oracle(u, order)
    assert got == pytest.approx(want, rel=1e-10)


def test_decomposition_ratio_ensemble_spread_and_stability():
    # same spectral data realized on two grids: ratios stay in a narrow
    # band and move only a few percent with resolution
    samples = spectral_ensemble(99, 20, 1, kmax=10)
    order = multi_order(1.0, (1,))
    ratios = {}
    for n in (128, 256):
        spec = make_grid(1, n)
        part = build_partition(spec, cells_per_axis=4)
        ratios[n] = np.asarray(
            [lattice_decomposition_ratio(u, part, order) for u in realize_ensemble(samples, spec)]
        )
    for n in (128, 256):
        assert np.max(ratios[n]) / np.min(ratios[n]) < 10.0
    drift = np.max(np.abs(ratios[128] - ratios[256]) / ratios[256])
    assert drift < 0.05


# ---------------------------------------------------------------------------
# sup bound chain


def test_sup_bound_constant_field():
    spec = make_grid(1, 64)
    report = rl_sup_bound_check(constant_field(spec), multi_order(1.0, (1,)))
    assert report.passed
    assert report.sup == pytest.approx(1.0)
    assert report.spectral_l1 == pytest.approx(1.0)


def test_sup_bound_plane_wave():
    spec = make_grid(1, 64)
    report = rl_sup_bound_check(plane_wave(spec, 3), multi_order(1.0, (1,)))
    assert report.passed
    assert report.sup == pytest.approx(1.0)
    assert report.spectral_l1 == pytest.approx(1.0)


def test_sup_bound_chain_random():
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    for seed in range(10):
        report = rl_sup_bound_check(rng_field(spec, 400 + seed), order)
        assert report.passed
        assert report.sup <= report.spectral_l1 * (1.0 + 1e-12)
        assert report.spectral_l1 <= report.weighted_bound * (1.0 + 1e-12)


def test_sup_bound_requires_enough_smoothness():
    spec = make_grid(1, 64)
    with pytest.raises(HypothesisError):
        rl_sup_bound_check(constant_field(spec), multi_order(0.25, (1,)))
