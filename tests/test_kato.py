"""Amalgam norms, window independence, retraction and mollification rates.

The reference computation for the p = 2 amalgam norm is a brute-force
loop: translate the window step by step, take a Sobolev norm per
translate, combine with the quadrature weight.  Everything else builds on
that agreement.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from katokit.ensembles import critical_ensemble, realize_ensemble, spectral_ensemble
from katokit.errors import HypothesisError, NonFiniteError, ShapeError
from katokit.grid import (
    Field,
    Window,
    constant_field,
    coordinate_axes,
    field_from_values,
    from_spectrum,
    lattice_shifts,
    make_bump,
    make_grid,
    make_mollifier,
    mollifier_kernel,
    mollify,
    plane_wave,
    window_from_factors,
    window_from_samples,
)
from katokit.weights import multi_order, sigma_params
from katokit.sobolev import build_partition, h_norm, lattice_decomposition_ratio
from katokit import kato
from katokit.psido import sw_norm
from katokit.kato import (
    AmalgamNormSpec,
    ContinuousScheme,
    LatticeScheme,
    amalgam_spec,
    embedding_chain_check,
    h_equals_k2_ratio,
    kato_norm,
    kato_product_check,
    mollifier_rate_check,
    retraction_roundtrip,
    translation_shifts,
    window_ratio_check,
    windowed_norms,
    windowed_spectra,
)

TWO_PI = 2.0 * math.pi


def default_window(spec):
    length = spec.period
    return make_bump(
        spec,
        [(length / 8, 7 * length / 8)] * spec.dim,
        [(length / 3, 2 * length / 3)] * spec.dim,
    )


def rng_field(spec, seed, kmax=10):
    """1-D band-limited random field with frequencies |k| <= kmax."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(spec.shape, dtype=np.complex128)
    for k in range(-kmax, kmax + 1):
        coeffs[k] = rng.standard_normal() + 1j * rng.standard_normal()
    return from_spectrum(spec, coeffs)


# ---------------------------------------------------------------------------
# amalgam norm values


def test_sup_amalgam_of_constant_is_window_norm():
    # translating the window does not change its Sobolev norm, so the sup
    # over translates of ||1 . tau_y chi|| equals ||chi||
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    chi = default_window(spec)
    norm_spec = amalgam_spec(order, math.inf, chi, ContinuousScheme())
    got = kato_norm(constant_field(spec), norm_spec)
    assert got == pytest.approx(h_norm(chi.field, order), rel=1e-12)


def test_l2_amalgam_of_constant_carries_period_factor():
    # constant integrand in y: the quadrature contributes L^{1/2}
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    chi = default_window(spec)
    norm_spec = amalgam_spec(order, 2.0, chi, ContinuousScheme())
    got = kato_norm(constant_field(spec), norm_spec)
    want = math.sqrt(spec.period) * h_norm(chi.field, order)
    assert got == pytest.approx(want, rel=1e-12)


def test_amalgam_norm_matches_translation_loop_oracle():
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    chi = default_window(spec)
    u = rng_field(spec, 31)
    m = 8
    norm_spec = amalgam_spec(order, 2.0, chi, ContinuousScheme(points_per_axis=m))
    got = kato_norm(u, norm_spec)
    stride = 128 // m
    acc = 0.0
    for j in range(m):
        windowed = Field(spec, u.samples * np.roll(chi.field.samples, j * stride))
        acc += h_norm(windowed, order) ** 2
    want = math.sqrt((spec.period / m) * acc)
    assert got == pytest.approx(want, rel=1e-12)


def test_amalgam_norm_oracle_2d():
    spec = make_grid(2, 64, blocks=(2,))
    order = multi_order(1.5, (2,))
    chi = default_window(spec)
    rng = np.random.default_rng(8)
    u = field_from_values(spec, rng.standard_normal(spec.shape))
    m = 4
    norm_spec = amalgam_spec(order, 2.0, chi, ContinuousScheme(points_per_axis=m))
    got = kato_norm(u, norm_spec)
    stride = 64 // m
    acc = 0.0
    for j in range(m):
        for k in range(m):
            rolled = np.roll(chi.field.samples, (j * stride, k * stride), axis=(0, 1))
            acc += h_norm(Field(spec, u.samples * rolled), order) ** 2
    want = math.sqrt((spec.period / m) ** 2 * acc)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "scheme",
    [ContinuousScheme(0), ContinuousScheme(-2), ContinuousScheme(12), LatticeScheme(0), LatticeScheme(-4), LatticeScheme(3)],
)
def test_translation_shifts_refuse_bad_counts(scheme):
    spec = make_grid(1, 64)
    with pytest.raises(ShapeError, match="positive divisor"):
        translation_shifts(spec, scheme)
    with pytest.raises(ShapeError, match="positive divisor"):
        kato_norm(constant_field(spec), amalgam_spec(multi_order(1.0, (1,)), 2.0, default_window(spec), scheme))


@pytest.mark.parametrize("build", [amalgam_spec, AmalgamNormSpec], ids=["amalgam_spec", "AmalgamNormSpec"])
def test_lattice_spec_refuses_a_window_whose_translates_leave_a_gap(build):
    # translates of a window on (0.5, 1) by the four-cell lattice leave gaps on
    # the torus: the lattice sum is then no norm, however the spec is built
    spec = make_grid(1, 128)
    window = make_bump(spec, [(0.5, 1.0)])
    with pytest.raises(HypothesisError, match=r"^window coverage .* vanishes somewhere on the torus$"):
        build(multi_order(1.0, (1,)), 2.0, window, LatticeScheme(4))


def norms_one_shift_at_a_time(u, chi, shifts, order):
    """`windowed_norms` of each shift alone, in a call of its own."""
    return np.array([windowed_norms(u, chi, shifts[i : i + 1], order)[0] for i in range(len(shifts))])


# 2-D N=128 sums rows of more than 8192 terms; 3-D N=32 makes one-row blocks
@pytest.mark.parametrize("dim, n_samp", [(1, 1024), (2, 64), (2, 128), (3, 32)])
@pytest.mark.parametrize("scheme", [ContinuousScheme(), LatticeScheme(8)])
def test_windowed_norms_across_block_boundaries(dim, n_samp, scheme):
    # shift counts around the block row count, checked against an
    # independent per-translate loop and, bit for bit, against each shift
    # alone, for a real window and a modulated (complex) one
    spec = make_grid(dim, n_samp)
    order = multi_order(1.5, (dim,))
    real = default_window(spec)
    modulated = Field(spec, real.field.samples * plane_wave(spec, [3] * dim).samples)
    rng = np.random.default_rng(40 + dim)
    u = field_from_values(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
    all_shifts, _ = translation_shifts(spec, scheme)
    rows = max(1, kato._BLOCK_ELEMENTS // spec.num_points)
    axes = tuple(range(dim))
    for chi in (real, window_from_samples(modulated)):
        for g in (1, rows - 1, rows, rows + 1, n_samp):
            shifts = all_shifts[rng.choice(len(all_shifts), g, replace=g > len(all_shifts))]
            got = windowed_norms(u, chi, shifts, order)
            want = [
                h_norm(Field(spec, np.roll(chi.field.samples, tuple(y), axis=axes) * u.samples), order)
                for y in shifts
            ]
            assert got.shape == (g,)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert np.array_equal(got, norms_one_shift_at_a_time(u, chi, shifts, order))


# ---------------------------------------------------------------------------
# tensor-product windows: the two-stage windowed spectra


def separable_window(spec, plateau):
    """An off-centre bump with a different support on every axis."""
    length = spec.period
    support = [(0.1 * length, 0.6 * length), (0.3 * length, 0.9 * length), (0.2 * length, 0.75 * length)]
    plateaus = [(0.25 * length, 0.4 * length), (0.5 * length, 0.7 * length), (0.35 * length, 0.6 * length)]
    return make_bump(spec, support[: spec.dim], plateaus[: spec.dim] if plateau else None)


@functools.lru_cache(maxsize=None)
def partition_master(dim):
    """The 2-cell partition master: factored, with two-cell periodicity."""
    return build_partition(make_grid(dim, 64), cells_per_axis=2).master


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    # "one-shift blocks": a canonical window at the size where a block of
    # `_spectra_blocks` holds one shift in 3-D (N=32) or 2-D (N=256)
    window=st.sampled_from(["canonical", "plateau", "partition", "one-shift blocks"]),
    # shift indices per axis into a pool of three values: leading shifts
    # repeat, in any order, contiguous or not
    picks=st.lists(st.tuples(*[st.integers(min_value=0, max_value=2)] * 3), min_size=1, max_size=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(dim=2, window="canonical", picks=[(0, 0, 0), (1, 0, 1), (0, 0, 2), (1, 1, 0), (0, 0, 0)], seed=1)
@example(dim=3, window="plateau", picks=[(0, 1, 0), (2, 2, 1), (0, 1, 2), (0, 2, 2), (0, 1, 1)], seed=2)
@example(dim=3, window="partition", picks=[(0, 1, 0), (2, 2, 1), (0, 1, 2), (0, 2, 2), (0, 1, 1)], seed=3)
# leading shifts A, A, B, A across one-shift blocks: contiguous, then back again
@example(dim=3, window="one-shift blocks", picks=[(0, 1, 0), (0, 1, 2), (2, 0, 1), (0, 1, 1)], seed=4)
def test_two_stage_spectra_match_per_translate_loop(dim, window, picks, seed):
    if window == "partition":
        chi = partition_master(dim)
        n_samp = 64
    elif window == "one-shift blocks":
        n_samp = 256 if dim == 2 else 32
        chi = separable_window(make_grid(dim, n_samp), False)
        assert max(1, kato._BLOCK_ELEMENTS // chi.spec.num_points) == 1
    else:
        n_samp = 16 if dim == 2 else 8
        chi = separable_window(make_grid(dim, n_samp), window == "plateau")
    spec = chi.spec
    order = multi_order(1.5, (dim,))
    assert len(chi.axis_factors) == dim
    pool = [0, 5, n_samp - 3]
    shifts = np.array([[pool[i] for i in pick[:dim]] for pick in picks])
    rng = np.random.default_rng(seed)
    u = Field(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
    got = windowed_norms(u, chi, shifts, order)
    axes = tuple(range(dim))
    want = [
        h_norm(Field(spec, np.roll(chi.field.samples, tuple(y), axis=axes) * u.samples), order) for y in shifts
    ]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # the same samples with no factors: one n-D transform per translate
    one_stage = window_from_samples(chi.field)
    np.testing.assert_allclose(got, windowed_norms(u, one_stage, shifts, order), rtol=1e-14, atol=0.0)
    # a translate's spectrum does not depend on the other shifts of the call
    spectra = windowed_spectra(u, chi, shifts)
    for i in range(len(shifts)):
        assert np.array_equal(spectra[i], windowed_spectra(u, chi, shifts[i : i + 1])[0])
    # nor does its norm, bit for bit, whatever block its shift falls in
    assert np.array_equal(got, norms_one_shift_at_a_time(u, chi, shifts, order))


def count_calls(monkeypatch, name):
    """Replace kato.`name` by a wrapper that counts its calls."""
    calls = []
    original = getattr(kato, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kato, name, spy)
    return calls


def test_leading_spectrum_is_shared_across_blocks(monkeypatch):
    # one leading stage per run of equal leading shifts, however many blocks
    # the run spans; still one windowed_spectra call per block
    spec = make_grid(2, 64)
    chi = default_window(spec)
    order = multi_order(1.5, (2,))
    rng = np.random.default_rng(12)
    u = field_from_values(spec, rng.standard_normal(spec.shape))
    rows = kato._BLOCK_ELEMENTS // spec.num_points
    full, _ = translation_shifts(spec, ContinuousScheme())
    a, b = [[3, y] for y in range(rows + 2)], [[9, y] for y in range(rows + 2)]
    for shifts, leading_runs in ((full, 64), (np.array(a + b + a), 3)):
        leading_stages = count_calls(monkeypatch, "_leading_spectrum")
        block_calls = count_calls(monkeypatch, "windowed_spectra")
        got = windowed_norms(u, chi, shifts, order)
        assert len(leading_stages) == leading_runs
        assert len(block_calls) == -(-len(shifts) // rows)
        monkeypatch.undo()
        # the same numbers as a cold leading stage in every block
        cold = np.concatenate([windowed_norms(u, chi, shifts[i : i + rows], order) for i in range(0, len(shifts), rows)])
        assert np.array_equal(got, cold)


def test_one_axis_window_is_its_own_factor():
    # in 1-D the factored window and its bare samples take the same route, bit for bit
    spec = make_grid(1, 256)
    chi = default_window(spec)
    shifts, _ = translation_shifts(spec, ContinuousScheme())
    u = rng_field(spec, 5)
    bare = window_from_samples(chi.field)
    order = multi_order(2.0, (1,))
    assert np.array_equal(windowed_norms(u, chi, shifts, order), windowed_norms(u, bare, shifts, order))


def test_window_from_factors_refuses_wrong_count_or_length():
    spec = make_grid(2, 16)
    first, second = separable_window(spec, True).axis_factors
    for factors in ((first,), (first, second, first), (first, second[:-1])):
        with pytest.raises(ShapeError, match="axis_factors"):
            window_from_factors(spec, factors)


def test_window_factors_are_set_only_from_factors():
    # the samples are formed from the factors, so only window_from_factors sets them
    spec = make_grid(2, 16)
    chi = separable_window(spec, True)
    assert Window(chi.field).axis_factors is None
    with pytest.raises(TypeError):
        Window(chi.field, chi.axis_factors)
    assert all(not f.flags.writeable for f in chi.axis_factors)


# ---------------------------------------------------------------------------
# the full-grid p = 2 route: the translation sum as a cyclic convolution


def full_grid_loop(u, chi, order):
    """The p = 2 norm over every sample shift, one h_norm per translate."""
    spec = u.spec
    axes = tuple(range(spec.dim))
    acc = 0.0
    for y in np.ndindex(*spec.shape):
        acc += h_norm(Field(spec, np.roll(chi.field.samples, y, axis=axes) * u.samples), order) ** 2
    return math.sqrt(spec.cell_volume * acc)


def smooth_complex_field_2d(spec, seed, kmax=6):
    """Random complex coefficients (no conjugate symmetry) decaying like 1/(1+|k|^2)."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(spec.shape, dtype=np.complex128)
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[k1, k2] = z / (1.0 + k1 * k1 + k2 * k2)
    return from_spectrum(spec, coeffs)


def off_centre_window(spec):
    length = spec.period
    return make_bump(
        spec,
        [(0.1 * length, 0.55 * length), (0.35 * length, 0.95 * length)],
        [(0.2 * length, 0.4 * length), (0.5 * length, 0.8 * length)],
    )


def full_grid_case(name):
    """(field, window, order) of one full-grid p = 2 test case."""
    if name == "1d N=1024 complex":
        # a flat band of 81 modes and order 2: a plain FFT convolution of the
        # power spectra misses this by 4e-12, so the test pins exactness too
        spec = make_grid(1, 1024)
        return rng_field(spec, 71, kmax=40), default_window(spec), multi_order(2.0, (1,))
    if name == "2d N=32 critical":
        spec = make_grid(2, 32, blocks=(2,))
        u = critical_ensemble(72, 1, 2, 10, 1.0)[0].realize(spec)
        return u, default_window(spec), multi_order(1.0, (2,))
    if name == "2d N=32 complex, off-centre window, two blocks":
        spec = make_grid(2, 32, blocks=(1, 1))
        return smooth_complex_field_2d(spec, 73), off_centre_window(spec), multi_order((0.5, 1.5), (1, 1))
    raise ValueError(name)


FULL_GRID_CASES = ["1d N=1024 complex", "2d N=32 critical", "2d N=32 complex, off-centre window, two blocks"]


@pytest.mark.parametrize("name", FULL_GRID_CASES)
def test_full_grid_p2_matches_translation_loop(name):
    u, chi, order = full_grid_case(name)
    got = kato_norm(u, amalgam_spec(order, 2.0, chi, ContinuousScheme()))
    assert got == pytest.approx(full_grid_loop(u, chi, order), rel=1e-12)


@pytest.mark.parametrize("name", FULL_GRID_CASES)
def test_translation_power_is_accurate_entry_by_entry(name):
    # every entry of sum_y |c_k(u tau_y chi)|^2 down to 1e-8 of the largest
    # matches the sum over the physical windowed spectra to 1e-12 relative;
    # a plain FFT convolution errs by ~eps * max in each entry, up to 4e-9 here
    u, chi, _ = full_grid_case(name)
    shifts, _ = translation_shifts(u.spec, ContinuousScheme())
    want = np.sum(np.abs(windowed_spectra(u, chi, shifts)) ** 2, axis=0)
    got = kato._translation_power(u, chi)
    large = want >= 1e-8 * np.max(want)
    np.testing.assert_allclose(got[large], want[large], rtol=1e-12, atol=0.0)
    assert np.all(got >= 0.0)


def test_full_grid_p2_skips_the_translates(monkeypatch):
    # ContinuousScheme() and ContinuousScheme(N) are the same full grid and the
    # same route, which transforms no translate
    u, chi, order = full_grid_case("2d N=32 critical")

    def refuse(*args):
        raise AssertionError("the full-grid p = 2 route transformed a translate")

    monkeypatch.setattr(kato, "windowed_spectra", refuse)
    default = kato_norm(u, amalgam_spec(order, 2.0, chi, ContinuousScheme()))
    explicit = kato_norm(u, amalgam_spec(order, 2.0, chi, ContinuousScheme(32)))
    assert default == explicit


@pytest.mark.parametrize(
    "p, scheme",
    [
        (1.0, ContinuousScheme()),
        (math.inf, ContinuousScheme()),
        (2.0, ContinuousScheme(16)),
        (2.0, LatticeScheme(4)),
        (1.0, LatticeScheme(4)),
    ],
)
def test_other_schemes_aggregate_windowed_norms(p, scheme):
    # every case but p = 2 on the full grid still aggregates the per-translate
    # norms, bit for bit
    u, chi, order = full_grid_case("2d N=32 complex, off-centre window, two blocks")
    shifts, weight = translation_shifts(u.spec, scheme)
    vals = windowed_norms(u, chi, shifts, order)
    want = float(np.max(vals)) if math.isinf(p) else float((weight * np.sum(vals**p)) ** (1.0 / p))
    assert kato_norm(u, amalgam_spec(order, p, chi, scheme)) == want


NON_FINITE = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0), complex(0.0, -math.inf)]

NORM_ENTRY_POINTS = {
    "kato_norm": lambda u, chi, p: kato_norm(u, amalgam_spec(multi_order(1.0, (u.spec.dim,)), p, chi)),
    "windowed_norms": lambda u, chi, p: windowed_norms(
        u, chi, translation_shifts(u.spec, ContinuousScheme())[0], multi_order(1.0, (u.spec.dim,))
    ),
    "sw_norm": lambda u, chi, p: sw_norm(u, p, chi),
}


@settings(max_examples=60, deadline=None)
@given(
    entry=st.sampled_from(sorted(NORM_ENTRY_POINTS)),
    dim=st.sampled_from([1, 2]),
    in_window=st.booleans(),
    p=st.sampled_from([1.0, 2.0, math.inf]),
    bad=st.dictionaries(st.integers(min_value=0, max_value=63), st.sampled_from(NON_FINITE), min_size=1, max_size=5),
)
def test_norms_refuse_non_finite_samples(entry, dim, in_window, p, bad):
    # NaN or inf anywhere in the field or the window is refused before any
    # route runs (the p = 2 full-grid convolution included), naming the count
    # and the first flat index, instead of answering nan
    spec = make_grid(dim, 64 if dim == 1 else 8)
    chi = default_window(spec)
    u = rng_field(spec, 3) if dim == 1 else constant_field(spec, 1.0 + 0.5j)
    samples = (chi.field if in_window else u).samples.copy()
    samples.flat[list(bad)] = list(bad.values())
    if in_window:
        # the bare constructor: `window_from_samples` refuses these samples itself
        chi = Window(Field(spec, samples))
    else:
        u = Field(spec, samples)
    what = "window" if in_window else "field"
    message = f"{what}: {len(bad)} non-finite sample\\(s\\), the first at flat index {min(bad)}$"
    with pytest.raises(NonFiniteError, match=message):
        NORM_ENTRY_POINTS[entry](u, chi, p)


# ---------------------------------------------------------------------------
# window independence


def test_window_ratio_same_window_is_one():
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    chi = default_window(spec)
    fields = [rng_field(spec, 50 + i) for i in range(5)]
    report = window_ratio_check(fields, order, 2.0, chi, chi)
    assert report.min_ratio == pytest.approx(1.0, rel=1e-12)
    assert report.max_ratio == pytest.approx(1.0, rel=1e-12)


def test_window_ratio_translated_window_is_one():
    # the full translation grid absorbs a lattice translate of the window
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    chi = default_window(spec)
    moved = window_from_samples(Field(spec, np.roll(chi.field.samples, 16)))
    fields = [rng_field(spec, 60 + i) for i in range(5)]
    report = window_ratio_check(fields, order, 2.0, chi, moved)
    assert report.min_ratio == pytest.approx(1.0, rel=1e-12)
    assert report.max_ratio == pytest.approx(1.0, rel=1e-12)


def test_window_ratio_two_bumps_bounded_band():
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    chi = default_window(spec)
    other = make_bump(spec, [(0.1 * TWO_PI, 0.65 * TWO_PI)], [(0.25 * TWO_PI, 0.45 * TWO_PI)])
    fields = [rng_field(spec, 70 + i) for i in range(20)]
    report = window_ratio_check(fields, order, 2.0, chi, other)
    assert 0.02 < report.min_ratio
    assert report.max_ratio < 50.0


def overflowing_ensemble(spec):
    """[1 + cos x, 1e300 (1 + cos x)]: finite samples, but the second field's norms overflow."""
    u = field_from_values(spec, 1.0 + np.cos(coordinate_axes(spec)[0]))
    return [u, Field(spec, 1e300 * u.samples)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_window_ratio_extremes_keep_a_nan_ratio(p):
    # the builtin min and max drop a NaN that is not first; the report's
    # extremes come from the ratios it stores, and keep it
    spec = make_grid(1, 128)
    other = make_bump(spec, [(0.1 * TWO_PI, 0.65 * TWO_PI)], [(0.25 * TWO_PI, 0.45 * TWO_PI)])
    report = window_ratio_check(overflowing_ensemble(spec), multi_order(1.0, (1,)), p, default_window(spec), other)
    assert math.isfinite(report.ratios[0]) and math.isnan(report.ratios[1])
    assert math.isnan(report.min_ratio) and math.isnan(report.max_ratio)


# ---------------------------------------------------------------------------
# lattice exponent and order chains


def test_single_lattice_term_makes_all_p_equal():
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    ell = spec.period / 4
    chi = make_bump(spec, [(0.1 * ell, 1.2 * ell)], [(0.3 * ell, 1.0 * ell)])
    u_win = make_bump(spec, [(0.35 * ell, 0.95 * ell)], [(0.5 * ell, 0.8 * ell)])
    u = u_win.field
    values = [
        kato_norm(u, amalgam_spec(order, p, chi, LatticeScheme(4)))
        for p in (1.0, 2.0, math.inf)
    ]
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[1] == pytest.approx(values[2], rel=1e-12)


def test_p_chain_and_order_chain():
    spec = make_grid(1, 128)
    order = multi_order(1.0, (1,))
    lower = multi_order(0.5, (1,))
    chi = default_window(spec)
    for seed in range(10):
        report = embedding_chain_check(
            rng_field(spec, 80 + seed), order, lower, [1.0, 2.0, 4.0, math.inf], chi
        )
        assert report.p_chain_ok
        assert report.order_chain_ok
        norms = report.p_norms
        assert all(norms[i + 1] <= norms[i] * (1.0 + 1e-12) for i in range(len(norms) - 1))


def test_order_chain_requires_domination():
    spec = make_grid(1, 128)
    with pytest.raises(HypothesisError):
        embedding_chain_check(
            constant_field(spec),
            multi_order(0.5, (1,)),
            multi_order(1.0, (1,)),
            [2.0],
            default_window(spec),
        )


# ---------------------------------------------------------------------------
# lattice decomposition vs p=2 amalgam


def test_h_equals_k2_agrees_with_decomposition_ratio():
    spec = make_grid(1, 128)
    part = build_partition(spec, cells_per_axis=4)
    order = multi_order(1.0, (1,))
    for seed in range(5):
        u = rng_field(spec, 90 + seed)
        a = h_equals_k2_ratio(u, order, part)
        b = lattice_decomposition_ratio(u, part, order)
        assert a == pytest.approx(b, rel=1e-12)


def test_decomposition_ratio_inside_theorem_bracket():
    # Lambda^{-n/2} <= ratio <= Lambda^{n/2} C_h for 4 cells in 1-D
    from katokit.sobolev import window_multiplier_constant

    spec = make_grid(1, 128)
    part = build_partition(spec, cells_per_axis=4)
    order = multi_order(1.0, (1,))
    c_h = window_multiplier_constant(part.master.field, order)
    lower = 4.0 ** (-0.5)
    upper = 4.0**0.5 * c_h
    for seed in range(20):
        r = lattice_decomposition_ratio(rng_field(spec, 110 + seed), part, order)
        assert lower * (1.0 - 1e-9) <= r <= upper * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# product bound


def test_product_with_constant_one():
    spec = make_grid(1, 128)
    params = sigma_params((1.0,), (1.0,), (0.25,), (1,))
    chi = default_window(spec)
    pairs = [(rng_field(spec, 120), constant_field(spec))]
    report = kato_product_check(pairs, params, 2.0, 2.0, chi)
    assert report.max_ratio <= report.reference_constant * 1.05
    assert report.max_ratio > 0.0


def test_product_plane_wave_pair():
    spec = make_grid(1, 128)
    params = sigma_params((1.0,), (1.0,), (0.25,), (1,))
    chi = default_window(spec)
    report = kato_product_check([(plane_wave(spec, 2), plane_wave(spec, 3))], params, 2.0, 2.0, chi)
    assert report.max_ratio <= report.reference_constant * 1.05


def test_product_random_pairs_under_reference_constant():
    spec = make_grid(1, 128)
    params = sigma_params((1.0,), (1.0,), (0.25,), (1,))
    chi = default_window(spec)
    pairs = [(rng_field(spec, 130 + i), rng_field(spec, 170 + i)) for i in range(20)]
    report = kato_product_check(pairs, params, 2.0, 2.0, chi)
    assert report.max_ratio <= report.reference_constant * 1.05


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_product_max_keeps_a_nan_ratio():
    spec = make_grid(1, 128)
    u, big = overflowing_ensemble(spec)
    params = sigma_params(1.0, 1.0, 0.25, (1,))
    report = kato_product_check([(u, u), (big, u)], params, 2.0, 2.0, default_window(spec))
    assert math.isfinite(report.ratios[0]) and math.isnan(report.max_ratio)


def test_product_rejects_bad_exponents():
    spec = make_grid(1, 128)
    params = sigma_params((1.0,), (1.0,), (0.25,), (1,))
    with pytest.raises(HypothesisError, match=r"give r=0\.5 < 1"):
        kato_product_check([], params, 1.0, 1.0, default_window(spec))


@pytest.mark.parametrize("p, q, r", [(math.inf, 3.0, 3.0), (1.5, math.inf, 1.5), (math.inf, math.inf, math.inf)])
def test_product_with_an_infinite_exponent_pairs_the_other(p, q, r):
    # 1/r = 1/p + 1/q with 1/inf = 0: r = q, r = p, or r = inf; each ratio
    # is the product norm at r over the factor norms at p and q
    spec = make_grid(1, 64)
    params = sigma_params((1.0,), (1.0,), (0.25,), (1,))
    chi = default_window(spec)
    u, v = rng_field(spec, 140), rng_field(spec, 141)
    chi_sq = window_from_samples(Field(spec, chi.field.samples**2))
    num = kato_norm(Field(spec, u.samples * v.samples), amalgam_spec(params.sigma, r, chi_sq))
    den = kato_norm(u, amalgam_spec(params.s, p, chi)) * kato_norm(v, amalgam_spec(params.t, q, chi))
    assert kato_product_check([(u, v)], params, p, q, chi).ratios == (num / den,)


# ---------------------------------------------------------------------------
# retraction


def test_retraction_roundtrip_constant():
    spec = make_grid(1, 128)
    part = build_partition(spec, cells_per_axis=4)
    report = retraction_roundtrip(constant_field(spec), part, multi_order(1.0, (1,)))
    assert report.passed
    assert report.roundtrip_sup_err < 1e-10


def test_retraction_single_cell_support():
    spec = make_grid(1, 128)
    part = build_partition(spec, cells_per_axis=4)
    ell = spec.period / 4
    u = make_bump(spec, [(0.4 * ell, 0.6 * ell)], [(0.45 * ell, 0.55 * ell)]).field
    report = retraction_roundtrip(u, part, multi_order(1.0, (1,)))
    assert report.passed


def test_retraction_random_fields():
    spec = make_grid(1, 128)
    part = build_partition(spec, cells_per_axis=4)
    order = multi_order(1.0, (1,))
    for seed in range(8):
        report = retraction_roundtrip(rng_field(spec, 140 + seed), part, order)
        assert report.passed
        assert report.roundtrip_sup_err < 1e-10
        assert report.section_ratio > 0.0


def test_retraction_2d():
    spec = make_grid(2, 128)
    part = build_partition(spec, cells_per_axis=4)
    rng = np.random.default_rng(3)
    u = field_from_values(spec, rng.standard_normal(spec.shape))
    report = retraction_roundtrip(u, part, multi_order(1.0, (2,)))
    assert report.passed


# ---------------------------------------------------------------------------
# mollifier approximation rate


def test_rate_equal_orders_bound_is_twice_the_norm():
    spec = make_grid(1, 256)
    order = multi_order(1.0, (1,))
    u = rng_field(spec, 150)
    report = mollifier_rate_check(u, order, order, [0.4, 0.2, 0.1], window=default_window(spec))
    assert report.bound_ok
    base = h_norm(u, order)
    for b in report.bounds:
        assert b == pytest.approx(2.0 * base, rel=1e-12)


def test_rate_single_mode_closed_form():
    # for u = e^{i3x} the error norm is |phihat_eps(3) - 1| <3>^{s'} sqrt(2 pi)
    spec = make_grid(1, 256)
    s, sp = multi_order(1.0, (1,)), multi_order(0.5, (1,))
    u = plane_wave(spec, 3)
    moll = make_mollifier(spec)
    epsilons = [0.4, 0.2, 0.1]
    report = mollifier_rate_check(u, s, sp, epsilons, window=default_window(spec))
    assert report.bound_ok
    x = np.asarray(coordinate_axes(spec)[0])
    from katokit.grid import rescaled

    for eps, err, bound in zip(epsilons, report.errors, report.bounds):
        kernel = mollifier_kernel(rescaled(moll, eps)).samples
        phat = spec.cell_volume * np.sum(kernel * np.exp(-1j * 3 * x))
        want = abs(phat - 1.0) * 10.0**0.25 * math.sqrt(TWO_PI)
        assert err == pytest.approx(want, rel=1e-10)
        want_bound = 2.0**0.5 * eps**0.5 * 10.0**0.5 * math.sqrt(TWO_PI)
        assert bound == pytest.approx(want_bound, rel=1e-12)


def test_rate_slope_matches_order_gap():
    # an ensemble with just-critical spectral decay realizes the declared
    # rate; faster-decaying fields would sit below it
    spec = make_grid(1, 1024)
    fields = realize_ensemble(critical_ensemble(5, 4, 1, 500, 2.0, delta=0.02), spec)
    slopes = []
    for u in fields:
        report = mollifier_rate_check(
            u,
            multi_order(2.0, (1,)),
            multi_order(1.0, (1,)),
            [0.4, 0.2, 0.1, 0.05],
            window=default_window(spec),
        )
        assert report.bound_ok
        assert report.young_ok
        slopes.append(float(np.polyfit(np.log(report.epsilons), np.log(report.errors), 1)[0]))
    assert 0.9 <= float(np.median(slopes)) <= 1.1


def test_rate_young_gate_fails_when_smoothing_raises_the_windowed_norm(monkeypatch):
    # the unit-mass kernel cannot raise the windowed sup norm; a kato_norm
    # that doubles every smoothed field's norm must flip young_ok
    spec = make_grid(1, 256)
    order = multi_order(1.0, (1,))
    u = rng_field(spec, 150)
    args = (u, order, order, [0.4, 0.2])
    assert mollifier_rate_check(*args, window=default_window(spec)).young_ok
    original = kato.kato_norm
    monkeypatch.setattr(kato, "kato_norm", lambda f, s: original(f, s) * (1.0 if f is u else 2.0))
    assert not mollifier_rate_check(*args, window=default_window(spec)).young_ok


def test_rate_young_gate_fails_on_a_nan_windowed_norm(monkeypatch):
    # a NaN norm of a smoothed field shows no bound, so the gate fails
    spec = make_grid(1, 256)
    order = multi_order(1.0, (1,))
    u = rng_field(spec, 150)
    original = kato.kato_norm
    monkeypatch.setattr(kato, "kato_norm", lambda f, s: original(f, s) if f is u else math.nan)
    assert not mollifier_rate_check(u, order, order, [0.4, 0.2], window=default_window(spec)).young_ok


@pytest.mark.parametrize("epsilons", [[0.4], [0.4, 0.4]])
def test_rate_refuses_fewer_than_two_distinct_epsilons(epsilons):
    # one epsilon, or one repeated, leaves no slope to fit
    spec = make_grid(1, 256)
    with pytest.raises(HypothesisError, match="epsilons"):
        mollifier_rate_check(
            rng_field(spec, 150),
            multi_order(2.0, (1,)),
            multi_order(1.0, (1,)),
            epsilons,
            window=default_window(spec),
        )


def test_rate_requires_order_domination():
    spec = make_grid(1, 256)
    with pytest.raises(HypothesisError):
        mollifier_rate_check(
            constant_field(spec),
            multi_order(0.5, (1,)),
            multi_order(1.0, (1,)),
            [0.2],
            window=default_window(spec),
        )


def test_rate_refuses_a_field_of_zero_norm():
    # a zero field has no error to decay: refused by name, not answered with slope=nan
    spec = make_grid(1, 256)
    order = multi_order(1.0, (1,))
    with pytest.raises(HypothesisError, match=r"^field has zero H\^s norm"):
        mollifier_rate_check(constant_field(spec, 0.0), order, order, [0.4, 0.2], window=default_window(spec))


@pytest.mark.parametrize("delta", [0.0, -1.0])
def test_critical_ensemble_refuses_a_margin_that_is_not_positive(delta):
    with pytest.raises(HypothesisError, match=r"^delta must be > 0"):
        critical_ensemble(7, 1, 1, 10, 1.0, delta=delta)


# ---------------------------------------------------------------------------
# sup bracket of the Young check


def narrow_window(spec):
    half = spec.period / 2
    return make_bump(spec, [(half - 0.1, half + 0.1)] * spec.dim)


def squared_window(spec):
    """The default window squared, known by its samples only."""
    return window_from_samples(Field(spec, default_window(spec).field.samples ** 2))


def critical_field(spec, kmax, s=1.0):
    return realize_ensemble(critical_ensemble(7, 1, spec.dim, kmax, s, delta=0.02), spec)[0]


def assert_bracket_holds(field, order, window):
    """lower <= the full-grid p = inf norm <= upper; the interpolated max of
    sqrt(g_J) is the max of the truncated window's norms on every shift; and
    T bounds the residual window's norms on every shift."""
    spec = field.spec
    bracket = kato._sup_bracket(order, window)
    full = kato_norm(field, amalgam_spec(order, math.inf, window))
    assert kato_norm(field, bracket.sub) <= full <= bracket.upper(field)
    shifts = lattice_shifts(spec, spec.samples_per_axis)
    direct = windowed_norms(field, bracket.truncated, shifts, order)
    interpolated = dataclasses.replace(bracket, tail=0.0).upper(field) / (1.0 + kato._BRACKET_RTOL)
    assert interpolated == pytest.approx(float(np.max(direct)), rel=1e-12)
    residual = window_from_samples(Field(spec, window.field.samples - bracket.truncated.field.samples))
    assert float(np.max(windowed_norms(field, residual, shifts, order))) <= bracket.tail * h_norm(field, bracket.plus)


@pytest.mark.parametrize("n_samp, points", [(256, None), (504, None), (506, 253), (512, 256), (1024, 256)])
def test_sup_bracket_takes_the_smallest_divisor_of_at_least_4j_plus_1(n_samp, points):
    # 504 has no divisor in 253..503: M < 4J+1 samples do not fix g_J, so no bracket
    bracket = kato._sup_bracket(multi_order(1.0, (1,)), default_window(make_grid(1, n_samp)))
    assert (None if bracket is None else bracket.sub.scheme.points_per_axis) == points


@pytest.mark.parametrize("s", [-0.5, 0.0, 1.0, 2.0])
@pytest.mark.parametrize("make_window", [default_window, narrow_window, squared_window])
@pytest.mark.parametrize("n_samp", [512, 1024])
def test_sup_bracket_holds_the_full_grid_norm(n_samp, make_window, s):
    spec = make_grid(1, n_samp)
    order = multi_order(s, (1,))
    window = make_window(spec)
    u = critical_field(spec, n_samp // 2 - 1, s)
    assert_bracket_holds(u, order, window)
    assert_bracket_holds(mollify(u, make_mollifier(spec, 0.1)), order, window)


@pytest.mark.parametrize("blocks, s", [((2,), (1.0,)), ((1, 1), (-0.5, 2.0))])
@pytest.mark.parametrize("factored", [True, False])
def test_sup_bracket_holds_the_full_grid_norm_in_2d(monkeypatch, blocks, s, factored):
    # J = 3 puts the bracket on M = 16 of N = 32 and cuts the box |j_l| <= 3 on both axes
    monkeypatch.setattr(kato, "_BRACKET_J", 3)
    spec = make_grid(2, 32, blocks=blocks)
    window = default_window(spec)
    window = window if factored else window_from_samples(window.field)
    assert kato._sup_bracket(multi_order(s, blocks), window).sub.scheme.points_per_axis == 16
    assert_bracket_holds(critical_field(spec, 15), multi_order(s, blocks), window)


def test_sup_bracket_tail_weighs_negative_orders_by_one():
    # a window modulated at frequency 100 has its tail at +-100; times the plane
    # wave at -100 it lands on frequency 0, where <<xi>>^{-1/2} = 1: a tail that
    # weighed <<xi_j>>^{-1/2} < 1/8 there would miss it
    spec = make_grid(1, 512)
    (x,) = coordinate_axes(spec)
    modulation = 1.0 + 0.5 * np.cos(2.0 * math.pi * 100 * x / spec.period)
    window = window_from_samples(Field(spec, default_window(spec).field.samples * modulation))
    assert_bracket_holds(plane_wave(spec, -100), multi_order(-0.5, (1,)), window)


def test_sup_bracket_needs_its_tail_term():
    # on a narrow window chi_J alone misses the norm: the interpolated max
    # of sqrt(g_J) is 2.263 where the full-grid norm is 2.464; with T the
    # upper end is 38.9, which decides no Young check
    spec = make_grid(1, 1024)
    order = multi_order(1.0, (1,))
    window = narrow_window(spec)
    u = critical_field(spec, 500)
    bracket = kato._sup_bracket(order, window)
    full = kato_norm(u, amalgam_spec(order, math.inf, window))
    assert dataclasses.replace(bracket, tail=0.0).upper(u) < full <= bracket.upper(u)
    assert (full, bracket.upper(u)) == (pytest.approx(2.4641, abs=1e-4), pytest.approx(38.89, abs=1e-2))


def full_grid_sup_calls(monkeypatch):
    """The fields whose full-grid p = inf norm `kato` takes from now on."""
    calls = []
    original = kato.kato_norm

    def spy(field, norm_spec):
        if math.isinf(norm_spec.p) and norm_spec.scheme == ContinuousScheme():
            calls.append(field)
        return original(field, norm_spec)

    monkeypatch.setattr(kato, "kato_norm", spy)
    return calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rate_young_check_falls_back_when_the_bracket_cannot_decide(monkeypatch):
    # a smoothing that changes nothing has upper(u) > lower(u): the full-grid
    # norms decide, u's taken once, and u's norm does not exceed itself
    spec = make_grid(1, 1024)
    order = multi_order(1.0, (1,))
    u = critical_field(spec, 500)
    calls = full_grid_sup_calls(monkeypatch)
    monkeypatch.setattr(kato, "mollify", lambda field, moll: field)
    assert mollifier_rate_check(u, order, order, [0.4, 0.2], window=default_window(spec)).young_ok
    assert len(calls) == 3


def test_rate_young_check_fails_through_the_fallback(monkeypatch):
    # smoothing leaves a constant as it is; 1.001 times that raises its norm,
    # which only the fallback can see
    spec = make_grid(1, 1024)
    order = multi_order(1.0, (1,))
    original = kato.mollify
    monkeypatch.setattr(kato, "mollify", lambda field, moll: Field(spec, 1.001 * original(field, moll).samples))
    calls = full_grid_sup_calls(monkeypatch)
    assert not mollifier_rate_check(constant_field(spec), order, order, [0.4, 0.2], window=default_window(spec)).young_ok
    assert len(calls) == 3
