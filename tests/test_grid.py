"""Grid, spectrum, translation, windows, mollifiers and field files.

The independent oracle here is a direct O(N^2) discrete Fourier sum; every
FFT-backed claim on small grids is checked against it before anything else
leans on the spectral round trip.
"""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from katokit.errors import FieldFormatError, GridError, NonFiniteError, ResolutionError, ShapeError
from katokit.grid import (
    Field,
    Mollifier,
    axis_bump_values,
    constant_field,
    coordinate_axes,
    field_from_values,
    frequency_axes,
    from_spectrum,
    l2_norm,
    lattice_shifts,
    load_field,
    make_bump,
    make_grid,
    make_mollifier,
    mollifier_kernel,
    mollify,
    plane_wave,
    pointwise_mul,
    rescaled,
    save_field,
    smooth_step,
    sup_norm,
    to_spectrum,
    translate,
    translates,
    window_from_factors,
    window_from_samples,
)


def dft_direct(samples: np.ndarray, spec) -> np.ndarray:
    """O(N^2) oracle: c_k = N^{-n} sum_j u(x_j) exp(-i <xi_k, x_j>)."""
    n = spec.samples_per_axis
    x = np.arange(n) * spec.spacing
    xi = np.asarray(frequency_axes(spec)[0])
    mat = np.exp(-1j * np.outer(xi, x)) / n
    out = samples.astype(np.complex128)
    for axis in range(spec.dim):
        out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


def rng_field(spec, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return field_from_values(spec, vals)


# ---------------------------------------------------------------------------
# grid construction


def test_grid_1d_valid():
    spec = make_grid(1, 64)
    assert spec.dim == 1
    assert spec.samples_per_axis == 64
    assert spec.blocks == (1,)
    # integer frequencies -32 .. 31 in FFT order
    freqs = np.sort(np.asarray(frequency_axes(spec)[0]))
    assert np.array_equal(freqs, np.arange(-32, 32))


def test_grid_2d_two_singleton_blocks():
    spec = make_grid(2, 32, blocks=(1, 1))
    assert spec.blocks == (1, 1)
    assert spec.shape == (32, 32)


def test_grid_blocks_must_sum_to_dim():
    with pytest.raises(GridError, match="sum to dim"):
        make_grid(2, 32, blocks=(1, 2))


def test_grid_rejects_odd_sample_count():
    with pytest.raises(GridError):
        make_grid(1, 33)


# ---------------------------------------------------------------------------
# spectrum round trip


def test_constant_spectrum_is_delta_at_zero():
    spec = make_grid(1, 64)
    c = to_spectrum(constant_field(spec, 1.0))
    assert c[0] == pytest.approx(1.0)
    assert np.max(np.abs(c[1:])) < 1e-14


def test_plane_wave_spectrum_single_coefficient():
    spec = make_grid(1, 64)
    c = to_spectrum(plane_wave(spec, 3))
    assert c[3] == pytest.approx(1.0)
    mask = np.ones(64, dtype=bool)
    mask[3] = False
    assert np.max(np.abs(c[mask])) < 1e-14


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 32), (2, 16)])
def test_spectrum_matches_direct_sum_oracle(dim, n):
    spec = make_grid(dim, n)
    u = rng_field(spec, 11 + dim)
    got = to_spectrum(u)
    want = dft_direct(u.samples, spec)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
def test_spectrum_round_trip(dim, n):
    spec = make_grid(dim, n)
    u = rng_field(spec, 7)
    back = from_spectrum(spec, to_spectrum(u))
    assert np.max(np.abs(back.samples - u.samples)) < 1e-12


# ---------------------------------------------------------------------------
# translation


def test_translate_by_zero_is_identity():
    spec = make_grid(1, 64)
    u = rng_field(spec, 3)
    assert np.max(np.abs(translate(u, 0.0).samples - u.samples)) < 1e-12


def test_translate_plane_wave_picks_up_phase():
    # tau_y e^{ikx} = e^{ik(x-y)} = e^{-iky} e^{ikx}
    spec = make_grid(1, 64)
    y = 0.37
    got = translate(plane_wave(spec, 5), y)
    want = np.exp(-1j * 5 * y) * plane_wave(spec, 5).samples
    assert np.max(np.abs(got.samples - want)) < 1e-12


def test_lattice_translate_is_cyclic_shift():
    # shifting by an exact grid step must reproduce np.roll up to one
    # spectral round trip
    spec = make_grid(1, 64)
    u = rng_field(spec, 5)
    shifted = translate(u, 4 * spec.spacing)
    want = np.roll(u.samples, 4)
    assert np.max(np.abs(shifted.samples - want)) < 1e-12


def test_lattice_translate_2d():
    spec = make_grid(2, 16)
    u = rng_field(spec, 9)
    shifted = translate(u, (3 * spec.spacing, 5 * spec.spacing))
    want = np.roll(u.samples, (3, 5), axis=(0, 1))
    assert np.max(np.abs(shifted.samples - want)) < 1e-12


def roll_translates(samples: np.ndarray, per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: lattice index vectors in itertools.product order, one np.roll each."""
    stride = samples.shape[0] // per_axis
    axes = tuple(range(samples.ndim))
    shifts, rolled = [], []
    for gamma in itertools.product(range(per_axis), repeat=samples.ndim):
        y = tuple(g * stride for g in gamma)
        shifts.append(y)
        rolled.append(np.roll(samples, y, axis=axes))
    return np.array(shifts), np.array(rolled)


@pytest.mark.parametrize("dim, n_samp, per_axis", [(1, 16, 1), (1, 16, 4), (1, 16, 16), (2, 8, 1), (2, 8, 2), (2, 8, 8)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_lattice_translates_match_roll_loop(dim, n_samp, per_axis, kind):
    spec = make_grid(dim, n_samp)
    rng = np.random.default_rng(per_axis)
    samples = rng.standard_normal(spec.shape)
    if kind == "complex":
        samples = samples + 1j * rng.standard_normal(spec.shape)
    want_shifts, want = roll_translates(samples, per_axis)
    shifts = lattice_shifts(spec, per_axis)
    assert shifts.shape == (per_axis**dim, dim)
    assert np.array_equal(shifts, want_shifts)
    stack = translates(samples, shifts)
    assert stack.dtype == samples.dtype and stack.shape == want.shape
    assert stack.tobytes() == want.tobytes()
    for y, row in zip(shifts, want):
        assert translates(samples, y).tobytes() == row.tobytes()


@pytest.mark.parametrize("per_axis", [0, -2, 3])
def test_lattice_shifts_refuse_bad_count(per_axis):
    with pytest.raises(ShapeError, match=f"^{per_axis} lattice points per axis"):
        lattice_shifts(make_grid(2, 8), per_axis)


@settings(max_examples=40, deadline=None)
@given(per_axis=st.integers(min_value=-40, max_value=40))
def test_lattice_shifts_accept_exactly_the_positive_divisors(per_axis):
    spec = make_grid(1, 24)
    if per_axis >= 1 and 24 % per_axis == 0:
        shifts = lattice_shifts(spec, per_axis)
        assert np.array_equal(shifts[:, 0], np.arange(0, 24, 24 // per_axis))
    else:
        with pytest.raises(ShapeError):
            lattice_shifts(spec, per_axis)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=-7, max_value=7),
    y=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
@example(k=2, y=1e-10)  # a shift far below one sample step is not rounded to the lattice
def test_translate_phase_property(k, y):
    """tau_y acts on the k-th coefficient as multiplication by e^{-i k y}."""
    spec = make_grid(1, 32)
    u = plane_wave(spec, k)
    c = to_spectrum(translate(u, y))
    assert abs(c[k] - np.exp(-1j * k * y)) < 1e-10


# ---------------------------------------------------------------------------
# pointwise product


def test_product_with_one_is_identity():
    spec = make_grid(1, 64)
    u = rng_field(spec, 13)
    got = pointwise_mul(u, constant_field(spec, 1.0))
    assert np.array_equal(got.samples, u.samples)


def test_product_of_plane_waves_adds_frequencies():
    spec = make_grid(1, 64)
    got = pointwise_mul(plane_wave(spec, 1), plane_wave(spec, 2))
    assert np.max(np.abs(got.samples - plane_wave(spec, 3).samples)) < 1e-14


def test_product_matches_scalar_loop():
    # numpy's vectorized complex multiply and the scalar path may round the
    # cross terms differently, so allow one ulp
    spec = make_grid(1, 16)
    f = rng_field(spec, 21)
    g = rng_field(spec, 22)
    got = pointwise_mul(f, g).samples
    for j in range(16):
        want = complex(f.samples[j]) * complex(g.samples[j])
        assert abs(got[j] - want) <= 4 * np.finfo(np.float64).eps * abs(want)


# ---------------------------------------------------------------------------
# bump windows


def test_bump_profile_values():
    spec = make_grid(1, 256)
    w = make_bump(spec, [(np.pi / 2, 3 * np.pi / 2)], [(2 * np.pi / 3, 4 * np.pi / 3)])
    x = np.asarray(coordinate_axes(spec)[0])
    vals = w.field.samples.real
    # 1 on the plateau, 0 outside the support
    plateau = (x >= 2 * np.pi / 3 + 1e-9) & (x <= 4 * np.pi / 3 - 1e-9)
    outside = (x <= np.pi / 2 - 1e-9) | (x >= 3 * np.pi / 2 + 1e-9)
    assert np.max(np.abs(vals[plateau] - 1.0)) < 1e-12
    assert np.max(np.abs(vals[outside])) < 1e-14
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0 + 1e-12)


def test_axis_bump_unit_interval_values():
    # support (1/4, 3/4), plateau [1/3, 2/3]: fixed by construction
    t = np.array([0.5, 0.2, (1 / 4 + 1 / 3) / 2])
    v = axis_bump_values(t, 0.25, 0.75, (1 / 3, 2 / 3))
    assert v[0] == 1.0
    assert v[1] == 0.0
    assert 0.0 < v[2] < 1.0  # strictly inside the rising edge


def test_smooth_step_is_monotone_and_clamped():
    t = np.linspace(-0.5, 1.5, 401)
    v = smooth_step(t)
    assert np.all(np.diff(v) >= -1e-15)
    assert v[0] == 0.0 and v[-1] == 1.0
    assert smooth_step(0.5) == pytest.approx(0.5)


def test_bump_derivative_sup_grid_converged():
    # the sup of the spectral derivative should settle to ~2% between
    # successive resolutions once the profile is resolved
    from katokit.sobolev import spectral_derivative

    sups = []
    for n in (128, 256):
        spec = make_grid(1, n)
        w = make_bump(spec, [(np.pi / 2, 3 * np.pi / 2)], [(2 * np.pi / 3, 4 * np.pi / 3)])
        d = spectral_derivative(w.field, 0)
        sups.append(float(np.max(np.abs(d.samples))))
    assert sups[1] > 0.0
    assert abs(sups[0] - sups[1]) / sups[1] < 0.02


def test_factored_window_forms_its_samples_once():
    # at 3-D N=64 the real product is 2 MiB and the complex samples 4 MiB;
    # forming the product a second time to check it, with a complex copy,
    # would add 6 MiB more
    spec = make_grid(3, 64)
    x = coordinate_axes(spec)[0]
    factors = [axis_bump_values(x, 0.5 + a, 5.0 - a) for a in range(3)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        window = window_from_factors(spec, factors)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20
    product = factors[0][:, None, None] * factors[1][None, :, None] * factors[2]
    assert np.array_equal(window.field.samples, product)


# ---------------------------------------------------------------------------
# mollifiers


def test_mollify_preserves_constants():
    spec = make_grid(1, 256)
    moll = make_mollifier(spec, epsilon=0.3)
    out = mollify(constant_field(spec, 1.0), moll)
    assert np.max(np.abs(out.samples - 1.0)) < 1e-12


def test_mollify_scales_plane_wave_by_kernel_transform():
    # phi_eps * e^{ikx} = phihat(eps k) e^{ikx}; read the factor off the
    # kernel samples independently of the convolution path
    spec = make_grid(1, 256)
    moll = rescaled(make_mollifier(spec), 0.25)
    kernel = mollifier_kernel(moll).samples
    x = np.asarray(coordinate_axes(spec)[0])
    phat = spec.cell_volume * np.sum(kernel * np.exp(-1j * 3 * x))
    out = mollify(plane_wave(spec, 3), moll)
    want = phat * plane_wave(spec, 3).samples
    assert np.max(np.abs(out.samples - want)) < 1e-12
    assert abs(phat) <= 1.0 + 1e-12


def test_mollification_error_decreases_with_epsilon():
    spec = make_grid(1, 256)
    x = np.asarray(coordinate_axes(spec)[0])
    u = field_from_values(spec, np.exp(np.sin(x)))
    base = make_mollifier(spec)
    errs = []
    for eps in (0.4, 0.2, 0.1):
        out = mollify(u, rescaled(base, eps))
        errs.append(float(np.sqrt(spec.cell_volume * np.sum(np.abs(out.samples - u.samples) ** 2))))
    assert errs[0] > errs[1] > errs[2]


def test_mollifier_rejects_unresolvable_epsilon():
    spec = make_grid(1, 32)
    moll = make_mollifier(spec, epsilon=1.0)
    with pytest.raises(ResolutionError):
        rescaled(moll, 1e-3)


def test_mollifier_refuses_unresolvable_support_when_built():
    # 0.01 of radius 1 spans 0.10 samples of a 32-point grid
    with pytest.raises(ResolutionError, match="spans 0.10 samples"):
        Mollifier(make_grid(1, 32), 0.01)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_mollify_rejects_non_finite_sample(value):
    # the transform would spread one bad sample over the whole field
    spec = make_grid(1, 256)
    samples = np.ones(spec.shape, dtype=np.complex128)
    samples[9] = value
    with pytest.raises(NonFiniteError, match=r"field: 1 non-finite sample\(s\), the first at flat index 9$"):
        mollify(Field(spec, samples), make_mollifier(spec, epsilon=0.3))


@settings(max_examples=40, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=8 * 8 - 1),
    value=st.sampled_from([complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(1.0, -np.inf)]),
)
def test_sup_norm_rejects_non_finite_sample_anywhere(index, value):
    # max |u| over samples with a NaN is NaN, not a norm
    spec = make_grid(2, 8)
    samples = np.ones(spec.num_points, dtype=np.complex128)
    samples[index] = value
    with pytest.raises(NonFiniteError, match=rf"field: 1 non-finite sample\(s\), the first at flat index {index}$"):
        sup_norm(Field(spec, samples.reshape(spec.shape)))


@settings(max_examples=40, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=8 * 8 - 1),
    value=st.sampled_from([complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(1.0, -np.inf)]),
)
def test_l2_norm_rejects_non_finite_sample_anywhere(index, value):
    # sum |u|^2 over samples with a NaN is NaN, not a norm
    spec = make_grid(2, 8)
    samples = np.ones(spec.num_points, dtype=np.complex128)
    samples[index] = value
    with pytest.raises(NonFiniteError, match=rf"field: 1 non-finite sample\(s\), the first at flat index {index}$"):
        l2_norm(Field(spec, samples.reshape(spec.shape)))


# ---------------------------------------------------------------------------
# field files


def test_save_load_round_trip_bit_identical(tmp_path):
    spec = make_grid(2, 16, blocks=(1, 1))
    u = rng_field(spec, 40)
    path = tmp_path / "u.fld"
    save_field(u, path)
    back = load_field(path)
    assert back.spec == spec
    assert np.array_equal(back.samples, u.samples)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.fld"
    spec = make_grid(1, 16)
    save_field(constant_field(spec), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError, match="magic"):
        load_field(path)


def test_load_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.fld"
    spec = make_grid(1, 16)
    save_field(constant_field(spec), path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(FieldFormatError, match="truncated"):
        load_field(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "cut.fld"
    spec = make_grid(1, 16)
    save_field(constant_field(spec), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FieldFormatError):
        load_field(path)


@pytest.mark.parametrize("value", [complex(np.inf, 0.0), complex(0.0, -np.inf), complex(1.0, np.nan)])
def test_load_rejects_non_finite_sample(tmp_path, value):
    path = tmp_path / "inf.fld"
    spec = make_grid(2, 16)
    samples = np.ones(spec.shape, dtype=np.complex128)
    samples[3, 4] = value
    save_field(Field(spec, samples), path)
    with pytest.raises(FieldFormatError, match="non-finite sample.*index 52"):
        load_field(path)


def write_field_file(path, dim, n, period, blocks):
    """A field file whose header holds these values verbatim, with n^dim samples of one."""
    header = struct.pack("<4sIIIdI", b"FLD1", 1, dim, n, period, len(blocks)) + struct.pack(f"<{len(blocks)}I", *blocks)
    path.write_bytes(header + np.ones(n**dim, dtype="<c16").tobytes())
    return path


@pytest.mark.parametrize(
    "dim, n, period, blocks",
    [(0, 16, 1.0, ()), (1, 15, 1.0, ()), (1, 16, np.nan, ()), (1, 16, -1.0, ()), (2, 16, 1.0, (3,))],
    ids=["dim-0", "odd-n", "period-nan", "period-negative", "blocks-3-on-2d"],
)
def test_load_refuses_a_header_that_describes_no_grid(tmp_path, dim, n, period, blocks):
    # the grid's own gates judge a stored header, and their refusal is a format error
    path = write_field_file(tmp_path / "bad.fld", dim, n, period, blocks)
    with pytest.raises(FieldFormatError, match="^header describes no grid: ") as caught:
        load_field(path)
    assert isinstance(caught.value.__cause__, GridError)


@pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, -np.inf)])
def test_window_from_samples_rejects_non_finite_sample(value):
    # a Field holds NaN (an out-of-domain marker); a window made of one is refused
    spec = make_grid(2, 16)
    samples = make_bump(spec, [(1.0, 5.0)] * 2).field.samples.astype(np.complex128)
    samples[3, 4] = value
    field = Field(spec, samples)
    with pytest.raises(NonFiniteError, match=r"window: 1 non-finite sample\(s\), the first at flat index 52$"):
        window_from_samples(field)


def test_field_rejects_wrong_shape():
    spec = make_grid(2, 16)
    with pytest.raises(ShapeError):
        Field(spec, np.zeros((16, 8)))
