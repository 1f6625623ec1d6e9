"""Quantization, Schatten norms, modulation norms and coordinate changes.

Independent references: an explicit translate-transform-sum loop for the
modulation norm, the rank-one singular value for Schatten norms, and the
discrete L^2 identity for the Hilbert-Schmidt case.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from katokit.ensembles import symbol_family
from katokit.errors import HypothesisError, NonFiniteError
from katokit.grid import (
    Field,
    constant_field,
    coordinate_axes,
    field_from_values,
    from_spectrum,
    frequency_axes,
    make_bump,
    make_grid,
    plane_wave,
)
from katokit.weights import multi_order, sigma_params
from katokit import kato, psido
from katokit.kato import ContinuousScheme, translation_shifts, windowed_spectra
from katokit.psido import (
    GridIsometry,
    all_isometries,
    apply_isometry,
    apply_radial_multiplier,
    coordinate_change_check,
    dilation_ratio_check,
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
    symbol_l2_norm,
    tau_sweep_check,
)

TWO_PI = 2.0 * math.pi


def symbol_grid(n_samp, period=TWO_PI, blocks=(1, 1)):
    """2n-dimensional grid for symbols of a 1-D operator."""
    return make_grid(2, n_samp, period=period, blocks=blocks)


def random_symbol(spec, seed, order=None):
    rng = np.random.default_rng(seed)
    kmax = min(4, spec.samples_per_axis // 4)
    coeffs = np.zeros(spec.shape, dtype=np.complex128)
    for i in range(-kmax, kmax + 1):
        for j in range(-kmax, kmax + 1):
            coeffs[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
    field = from_spectrum(spec, coeffs)
    return make_symbol(field, 1, order or multi_order((2.0, 2.0), (1, 1)))


# ---------------------------------------------------------------------------
# quantization


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_constant_symbol_quantizes_to_identity(tau):
    spec = symbol_grid(16)
    sym = make_symbol(constant_field(spec), 1, multi_order((0.0, 0.0), (1, 1)))
    op = quantize(sym, tau)
    assert np.max(np.abs(op.entries - np.eye(16))) < 1e-10


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_x_only_symbol_is_multiplication_operator(tau):
    spec = symbol_grid(16)
    x = np.asarray(coordinate_axes(spec)[0])
    f = 2.0 + np.cos(x)
    sym_field = field_from_values(spec, np.broadcast_to(f[:, None], spec.shape))
    op = quantize(make_symbol(sym_field, 1, multi_order((0.0, 0.0), (1, 1))), tau)
    assert np.max(np.abs(op.entries - np.diag(f))) < 1e-10


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, [[0.3]]])
def test_xi_only_symbol_acts_as_fourier_multiplier(tau):
    spec = symbol_grid(32)
    freqs = np.asarray(frequency_axes(spec)[1])
    g = (1.0 + freqs**2) ** (-1.0)
    sym_field = field_from_values(spec, np.broadcast_to(g[None, :], spec.shape))
    op = quantize(make_symbol(sym_field, 1, multi_order((0.0, 0.0), (1, 1))), tau)
    space = make_grid(1, 32)
    for k in (-5, 0, 3, 11):
        vec = plane_wave(space, k).samples
        want = (1.0 + float(k) ** 2) ** (-1.0) * vec
        assert np.max(np.abs(op.entries @ vec - want)) < 1e-9


# ---------------------------------------------------------------------------
# Schatten norms


def test_identity_operator_norm_is_one():
    spec = symbol_grid(16)
    op = quantize(make_symbol(constant_field(spec), 1, multi_order((0.0, 0.0), (1, 1))), 0.5)
    assert schatten_norm(op, math.inf) == pytest.approx(1.0, abs=1e-10)


def test_identity_trace_norm_grows_with_resolution():
    # the identity is not compact: sum of singular values equals the number
    # of grid points and diverges under refinement
    for n_samp in (8, 16):
        spec = symbol_grid(n_samp)
        op = quantize(make_symbol(constant_field(spec), 1, multi_order((0.0, 0.0), (1, 1))), 0.0)
        assert schatten_norm(op, 1.0) == pytest.approx(float(n_samp), rel=1e-10)


def test_rank_one_matrix_has_product_norm():
    # kernel phi (x) conj(psi): the only singular value is the product of
    # the discrete L^2 norms, for every exponent
    n_samp = 16
    space = make_grid(1, n_samp)
    x = np.asarray(coordinate_axes(space)[0])
    phi = np.exp(-((x - 2.0) ** 2)) + 0.3j * np.cos(x)
    psi = 1.0 / (1.0 + (x - 4.0) ** 2)
    entries = space.cell_volume * np.outer(phi, np.conj(psi))
    op = operator_from_matrix(entries, 0.0, 1, n_samp, space.period)
    want = math.sqrt(space.cell_volume * np.sum(np.abs(phi) ** 2)) * math.sqrt(
        space.cell_volume * np.sum(np.abs(psi) ** 2)
    )
    for p in (1.0, 2.0, 5.0, math.inf):
        assert schatten_norm(op, p) == pytest.approx(want, rel=1e-12)


def test_separable_delta_symbol_is_rank_one():
    # a(x, xi) = f(x) g(xi) with g concentrated on one frequency: the
    # Kohn-Nirenberg kernel f(x) e^{i xi_m (x-y)} factors, so every
    # Schatten norm collapses to the Hilbert-Schmidt value
    n_samp = 16
    spec = symbol_grid(n_samp)
    x = np.asarray(coordinate_axes(spec)[0])
    f = 1.0 + 0.5 * np.cos(x)
    g = np.zeros(n_samp)
    g[3] = 1.0
    sym_field = field_from_values(spec, f[:, None] * g[None, :])
    sym = make_symbol(sym_field, 1, multi_order((0.0, 0.0), (1, 1)))
    op = quantize(sym, 0.0)
    sv = np.linalg.svd(op.entries, compute_uv=False)
    assert sv[1] < 1e-12 * sv[0]
    hs = (TWO_PI) ** (-0.5) * symbol_l2_norm(sym)
    for p in (1.0, 2.0, math.inf):
        assert schatten_norm(op, p) == pytest.approx(hs, rel=1e-10)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, [[0.37]]])
def test_hilbert_schmidt_identity(tau):
    spec = symbol_grid(16)
    sym = random_symbol(spec, 5)
    assert hs_identity_gap(sym, tau) < 1e-10
    got = schatten_norm(quantize(sym, tau), 2.0)
    want = TWO_PI ** (-0.5) * symbol_l2_norm(sym)
    assert got == pytest.approx(want, rel=1e-10)


def test_hilbert_schmidt_identity_matrix_tau_2d():
    spec = make_grid(4, 8, blocks=(2, 2))
    rng = np.random.default_rng(9)
    sym_field = field_from_values(spec, rng.standard_normal(spec.shape))
    sym = make_symbol(sym_field, 2, multi_order((0.0, 0.0), (2, 2)))
    tau = np.array([[0.5, 0.3], [0.0, 0.25]])
    assert hs_identity_gap(sym, tau) < 1e-10


def test_schatten_monotone_in_p():
    spec = symbol_grid(16)
    op = quantize(random_symbol(spec, 11), 0.5)
    b1 = schatten_norm(op, 1.0)
    b2 = schatten_norm(op, 2.0)
    binf = schatten_norm(op, math.inf)
    assert b1 >= b2 * (1.0 - 1e-12)
    assert b2 >= binf * (1.0 - 1e-12)


def test_schatten_rejects_p_below_one():
    spec = symbol_grid(8)
    op = quantize(make_symbol(constant_field(spec), 1, multi_order((0.0, 0.0), (1, 1))), 0.0)
    with pytest.raises(HypothesisError):
        schatten_norm(op, 0.5)


def test_operators_leave_the_callers_arrays_writable():
    # an operator keeps read-only copies of tau and of given entries; the
    # caller's arrays stay writable and writing them changes no operator
    spec = symbol_grid(8)
    tau = np.array([[0.5]])
    op = quantize(random_symbol(spec, 3), tau)
    entries = np.array(op.entries)
    given = operator_from_matrix(entries, tau, 1, 8, spec.period)
    assert tau.flags.writeable and entries.flags.writeable
    tau[0, 0] = 0.25
    entries[0, 0] = 7.0
    assert op.tau[0, 0] == given.tau[0, 0] == 0.5
    assert given.entries[0, 0] == op.entries[0, 0] != 7.0
    assert not (op.tau.flags.writeable or given.tau.flags.writeable or given.entries.flags.writeable)


def test_operator_copies_only_writeable_entries():
    # a writeable array given to the constructor stays the caller's and
    # writeable; a read-only one, as quantize hands over, is kept uncopied
    given = np.eye(4, dtype=complex)
    op = psido.OperatorMatrix(given, 0.5, 1, 4, 1.0)
    assert given.flags.writeable and not op.entries.flags.writeable
    given[0, 0] = 7.0
    assert op.entries[0, 0] == 1.0
    frozen = np.eye(4, dtype=complex)
    frozen.setflags(write=False)
    assert psido.OperatorMatrix(frozen, 0.5, 1, 4, 1.0).entries is frozen
    assert operator_from_matrix(frozen, 0.5, 1, 4, 1.0).entries is frozen


@pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.inf)])
@pytest.mark.parametrize("entry", [lambda sym: quantize(sym, 0.5), symbol_l2_norm], ids=["quantize", "symbol_l2_norm"])
def test_symbol_with_non_finite_sample_is_refused(entry, value):
    # a NaN symbol would reach the SVD (numpy's LinAlgError) or answer nan;
    # it is refused up front, naming the count and the first flat index
    spec = symbol_grid(8)
    samples = random_symbol(spec, 3).field.samples.copy()
    samples[2, 5] = value
    sym = make_symbol(Field(spec, samples), 1, multi_order((2.0, 2.0), (1, 1)))
    with pytest.raises(NonFiniteError, match=r"symbol: 1 non-finite sample\(s\), the first at flat index 21$"):
        entry(sym)


def _kernel_by_direct_sum(samples, n, tau):
    """K[r, c] = N^-n sum_k a_trig(r - tau d, k) e^{2 pi i <k, d> / N} with
    d the centered r - c, one entry at a time and without an FFT.

    a_trig(w, k) = sum_x a(x, k) prod_a D(w_a - x_a) interpolates the
    x-block off the grid with the Dirichlet kernel D(t) = N^-1 sum_m
    e^{2 pi i m t / N} over the centered frequencies -N/2 <= m < N/2.
    """
    num = samples.shape[0]
    size = num**n
    sym = samples.reshape(size, size)  # rows: x multi-index, columns: xi multi-index
    grid_pts = np.array(list(itertools.product(range(num), repeat=n)), dtype=float)
    freqs = np.arange(-(num // 2), num - num // 2)
    kernel = np.empty((size, size), dtype=complex)
    for r, row in enumerate(grid_pts):
        for c, col in enumerate(grid_pts):
            d = (row - col + num // 2) % num - num // 2
            w = row - tau @ d
            dirichlet = np.exp(2j * math.pi * np.multiply.outer(w - grid_pts, freqs) / num).mean(axis=-1)
            a_trig = np.prod(dirichlet, axis=1) @ sym
            kernel[r, c] = np.mean(a_trig * np.exp(2j * math.pi * (grid_pts @ d) / num))
    return kernel


def _operator_norm_by_power_iteration(mat):
    """sqrt of the top eigenvalue of A^H A, iterated until it stops moving."""
    gram = mat.conj().T @ mat
    vec = np.random.default_rng(0).standard_normal(gram.shape[0]) + 0j
    value = 0.0
    for _ in range(20000):
        nxt = gram @ vec
        new_value = float(np.real(np.vdot(vec, nxt)) / np.real(np.vdot(vec, vec)))
        vec = nxt / np.linalg.norm(nxt)
        if abs(new_value - value) <= 1e-16 * new_value:
            break
        value = new_value
    return math.sqrt(new_value)


@pytest.mark.parametrize(
    "n, num, tau",
    [(1, 16, 0.0), (1, 16, 0.3), (1, 16, 0.5), (1, 16, 1.0), (2, 4, [[0.5, 0.3], [-0.2, 0.25]]),
     (2, 6, [[0.3, -0.4], [0.15, 0.7]])],
)
def test_quantize_matches_direct_kernel_sum(n, num, tau):
    spec = make_grid(2 * n, num, period=self_dual_period(num), blocks=(n, n))
    rng = np.random.default_rng(40 + num)
    samples = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    op = quantize(make_symbol(Field(spec, samples), n, multi_order((0.0, 0.0), (n, n))), tau)
    tau_mat = np.asarray(tau, dtype=float) * (np.eye(n) if np.ndim(tau) == 0 else 1.0)
    want = _kernel_by_direct_sum(samples, n, tau_mat)
    assert np.max(np.abs(op.entries - want)) <= 1e-13 * np.max(np.abs(want))
    assert schatten_norm(op, 2.0) == pytest.approx(np.linalg.norm(op.entries), rel=1e-13)
    assert schatten_norm(op, math.inf) == pytest.approx(_operator_norm_by_power_iteration(op.entries), rel=1e-13)


def test_quantize_holds_two_symbol_sized_arrays():
    # the stage, then the twist or the gathered entries; numpy reports its
    # buffers to tracemalloc, so the peak sees every one of them
    num = 16
    spec = make_grid(4, num, period=self_dual_period(num), blocks=(2, 2))
    order = multi_order((2.0, 2.0), (2, 2))
    sym = symbol_family("gaussian", spec, 2, order, seed=5, count=1)[0]
    quantize(sym, 0.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = quantize(sym, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    symbol_bytes = sym.field.samples.nbytes
    assert op.entries.nbytes == symbol_bytes <= peak <= 2.75 * symbol_bytes


@pytest.mark.parametrize("num", [64, 256])
def test_quantize_multiplies_the_stage_by_the_twist(num):
    # the twist product is stage * twist on both sides of numpy's 256 KiB
    # threshold for eliding temporaries (64 KiB at N=64, 1 MiB at N=256);
    # the complex multiply is not bitwise commutative, so the order shows
    spec = symbol_grid(num, period=self_dual_period(num))
    rng = np.random.default_rng(num)
    samples = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    op = quantize(make_symbol(Field(spec, samples), 1, multi_order((0.0, 0.0), (1, 1))), 0.3)
    stage = np.fft.ifft(np.fft.fft(samples, axis=0), axis=1)
    twist = psido._twist(np.array([[0.3]]), num)
    stage = np.fft.ifft(stage * twist, axis=0)
    rows = np.arange(num)[:, None]
    assert np.array_equal(op.entries, stage[rows, (rows - rows.T) % num])


# ---------------------------------------------------------------------------
# Schatten vs amalgam symbol norm


def test_schatten_bound_ratios_recorded():
    n_samp = 16
    period = self_dual_period(n_samp)
    spec = make_grid(2, n_samp, period=period, blocks=(1, 1))
    order = multi_order((2.0, 2.0), (1, 1))
    syms = symbol_family(
        "gaussian", spec, 1, order, seed=3, count=3,
        center_box=(1.5, 5.5), width_range=(0.5, 0.9),
    )
    window = make_bump(spec, [(1.0, 9.0)] * 2, [(3.0, 7.0)] * 2)
    report = schatten_bound_check(syms, 1.0, 0.5, window, ContinuousScheme(8))
    assert len(report.ratios) == 3
    assert all(r > 0.0 for r in report.ratios)
    assert report.max_ratio < 10.0


def test_schatten_bound_refuses_low_order():
    spec = symbol_grid(16)
    sym = random_symbol(spec, 2, multi_order((0.5, 0.5), (1, 1)))
    window = make_bump(spec, [(1.0, 5.0)] * 2)
    with pytest.raises(HypothesisError, match="s > dim"):
        schatten_bound_check([sym], 1.0, 0.5, window)


def test_tau_sweep_moves_monotonically():
    spec = symbol_grid(16)
    report = tau_sweep_check(random_symbol(spec, 21), 2.0)
    assert report.monotone_ok
    assert report.gaps_from_first[0] == 0.0


def test_self_dual_period_value():
    assert self_dual_period(32) == pytest.approx(math.sqrt(TWO_PI * 32))


# ---------------------------------------------------------------------------
# modulation norm


def sw_norm_oracle(u, p, window, m):
    """Translate -> direct DFT -> aggregate, written as plain loops."""
    spec = u.spec
    n = spec.samples_per_axis
    length = spec.period
    stride = n // m
    x = np.arange(n) * spec.spacing
    xi = np.asarray(frequency_axes(spec)[0])
    fourier = np.exp(-1j * np.outer(xi, x)) / n
    rows = np.empty((m, n))
    for j in range(m):
        windowed = u.samples * np.roll(window.field.samples, j * stride)
        rows[j] = length * np.abs(fourier @ windowed)
    if math.isinf(p):
        profile = rows.max(axis=0)
    else:
        profile = ((length / m) * np.sum(rows**p, axis=0)) ** (1.0 / p)
    return float((TWO_PI / length) * np.sum(profile))


def test_sw_norm_of_zero():
    spec = make_grid(1, 32)
    chi = make_bump(spec, [(1.0, 5.0)], [(2.0, 4.0)])
    assert sw_norm(constant_field(spec, 0.0), 2.0, chi) == 0.0


def test_sw_norm_of_constant_from_window_spectrum():
    # translating the window only rotates coefficient phases, so the
    # aggregation closes in terms of the window spectrum alone
    spec = make_grid(1, 32)
    chi = make_bump(spec, [(1.0, 5.0)], [(2.0, 4.0)])
    length = spec.period
    coeffs = np.abs(np.fft.fft(chi.field.samples) / 32)
    for p in (1.0, 2.0, math.inf):
        got = sw_norm(constant_field(spec), p, chi)
        lp_weight = length ** (1.0 / p) if not math.isinf(p) else 1.0
        want = (TWO_PI / length) * lp_weight * length * float(np.sum(coeffs))
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_sw_norm_matches_loop_oracle(p):
    spec = make_grid(1, 32)
    chi = make_bump(spec, [(1.0, 5.0)], [(2.0, 4.0)])
    rng = np.random.default_rng(31)
    u = field_from_values(spec, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    got = sw_norm(u, p, chi, points_per_axis=8)
    want = sw_norm_oracle(u, p, chi, 8)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("p", [1.0, 2.5, math.inf])
def test_sw_norm_over_several_blocks(p):
    # the 256 translates of an N = 256 field span two blocks of spectra; the
    # result must equal one reduction over a single unblocked call, which a
    # per-block partial sum misses in the last bits for this seed
    spec = make_grid(1, 256)
    chi = make_bump(spec, [(1.0, 5.0)], [(2.0, 4.0)])
    rng = np.random.default_rng(33)
    u = field_from_values(spec, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    got = sw_norm(u, p, chi)
    assert got == pytest.approx(sw_norm_oracle(u, p, chi, 256), rel=1e-10)
    shifts, wt = translation_shifts(spec, ContinuousScheme())
    mags = spec.period * np.abs(windowed_spectra(u, chi, shifts))
    if math.isinf(p):
        profile = np.max(mags, axis=0)
    else:
        profile = (wt * np.sum(mags**p, axis=0)) ** (1.0 / p)
    assert got == float((TWO_PI / spec.period) * np.sum(profile))


def sw_norm_p2_rows(u, window):
    """The full-grid p = 2 modulation norm reduced row by row from the
    physical windowed spectra, one translate at a time."""
    spec = u.spec
    shifts, wt = translation_shifts(spec, ContinuousScheme())
    profile = np.zeros(spec.shape)
    for i in range(len(shifts)):
        coeffs = windowed_spectra(u, window, shifts[i : i + 1])[0]
        profile += (spec.period**spec.dim * np.abs(coeffs)) ** 2
    return float((TWO_PI / spec.period) ** spec.dim * np.sum(np.sqrt(wt * profile)))


def complex_band_field(spec, seed, kmax):
    """Random complex coefficients, no conjugate symmetry, on |k_i| <= kmax."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(spec.shape, dtype=np.complex128)
    band = np.ix_(*[np.r_[0 : kmax + 1, -kmax:0]] * spec.dim)
    size = (2 * kmax + 1,) * spec.dim
    coeffs[band] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return from_spectrum(spec, coeffs)


def sw_full_grid_case(dim):
    if dim == 1:
        spec = make_grid(1, 1024)
        return complex_band_field(spec, 34, 40), make_bump(spec, [(1.0, 5.0)], [(2.0, 4.0)])
    spec = make_grid(2, 32, blocks=(1, 1))
    length = spec.period
    window = make_bump(
        spec,
        [(0.1 * length, 0.55 * length), (0.35 * length, 0.95 * length)],
        [(0.2 * length, 0.4 * length), (0.5 * length, 0.8 * length)],
    )
    return complex_band_field(spec, 35, 5), window


@pytest.mark.parametrize("dim", [1, 2])
def test_sw_norm_p2_full_grid_matches_row_reduction(dim):
    # the closed-form profile of the full grid against the physical rows; a
    # plain FFT convolution of the power spectra misses the 1-D case by 2e-8
    u, window = sw_full_grid_case(dim)
    assert sw_norm(u, 2.0, window) == pytest.approx(sw_norm_p2_rows(u, window), rel=1e-12)


def test_sw_norm_p2_full_grid_skips_the_translates(monkeypatch):
    u, window = sw_full_grid_case(2)

    def refuse(*args):
        raise AssertionError("the full-grid p = 2 route transformed a translate")

    monkeypatch.setattr(kato, "windowed_spectra", refuse)
    assert sw_norm(u, 2.0, window) == sw_norm(u, 2.0, window, points_per_axis=32)


def test_sw_embedding_ratios_bounded():
    spec = make_grid(1, 128)
    chi = make_bump(spec, [(0.5, 2.5)], [(1.0, 2.0)])
    chi_tilde = make_bump(spec, [(0.1, 2.9)], [(0.45, 2.55)])
    order = multi_order(1.5, (1,))
    rng = np.random.default_rng(17)
    fields = []
    for _ in range(10):
        coeffs = np.zeros(128, dtype=np.complex128)
        for k in range(-10, 11):
            coeffs[k] = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + k * k)
        fields.append(from_spectrum(spec, coeffs))
    report = sw_embedding_check(fields, order, 2.0, chi, chi_tilde, points_per_axis=32)
    assert report.max_ratio < 10.0
    assert report.reference_product > 0.0


def test_sw_embedding_requires_integrable_weight():
    spec = make_grid(1, 128)
    chi = make_bump(spec, [(0.5, 2.5)], [(1.0, 2.0)])
    with pytest.raises(HypothesisError, match="block dimension"):
        sw_embedding_check([constant_field(spec)], multi_order(0.5, (1,)), 2.0, chi, chi)


def test_sw_embedding_requires_covering_window():
    spec = make_grid(1, 128)
    chi = make_bump(spec, [(0.5, 2.5)], [(1.0, 2.0)])
    small = make_bump(spec, [(1.2, 1.8)])
    with pytest.raises(HypothesisError, match="supp"):
        sw_embedding_check([constant_field(spec)], multi_order(1.5, (1,)), 2.0, chi, small)


def test_dilation_identity_ratio():
    spec = make_grid(1, 64)
    chi = make_bump(spec, [(1.0, 5.0)], [(2.0, 4.0)])
    rng = np.random.default_rng(41)
    fields = [field_from_values(spec, rng.standard_normal(64)) for _ in range(3)]
    report = dilation_ratio_check(fields, 2.0, chi, factor=2, points_per_axis=16)
    # lambda = id makes both sides equal; the generic prefactor (1+1)^n
    # leaves the trivial ratio 1/2
    assert report.identity_ratio == pytest.approx(0.5)
    assert all(np.isfinite(report.ratios_volume_exponent))
    assert all(np.isfinite(report.ratios_root_exponent))


@pytest.mark.parametrize("p", [0.0, 0.5, math.nan])
def test_dilation_refuses_an_exponent_below_one(p):
    # p = 0 would divide the prefactors' exponents by zero
    spec = make_grid(1, 64)
    chi = make_bump(spec, [(1.0, 5.0)], [(2.0, 4.0)])
    with pytest.raises(HypothesisError, match="p must satisfy p >= 1"):
        dilation_ratio_check([constant_field(spec)], p, chi)


@pytest.mark.parametrize("factor", [2.5, 2.0])
def test_dilation_refuses_a_non_integer_factor(factor):
    # the stretch x -> factor x maps the sample lattice to itself only for an integer factor
    spec = make_grid(1, 64)
    chi = make_bump(spec, [(1.0, 5.0)], [(2.0, 4.0)])
    with pytest.raises(HypothesisError, match="dilation factor must be an integer"):
        dilation_ratio_check([constant_field(spec)], 2.0, chi, factor=factor)


@pytest.mark.parametrize(
    "check, named",
    [
        (lambda chi: kato.window_ratio_check([], multi_order(1.0, (1,)), 2.0, chi, chi), "fields"),
        (lambda chi: kato.kato_product_check([], sigma_params((1.0,), (1.0,), (0.5,), (1,)), 2.0, 2.0, chi), "pairs"),
        (lambda chi: sw_embedding_check([], multi_order(1.5, (1,)), 2.0, chi, chi), "fields"),
        (lambda chi: dilation_ratio_check([], 2.0, chi), "fields"),
        (lambda chi: schatten_bound_check([], 1.0, 0.5, chi), "symbols"),
    ],
    ids=["window_ratio_check", "kato_product_check", "sw_embedding_check", "dilation_ratio_check", "schatten_bound_check"],
)
def test_empty_ensemble_is_refused_by_name(check, named):
    chi = make_bump(make_grid(1, 64), [(1.0, 5.0)], [(2.0, 4.0)])
    with pytest.raises(HypothesisError, match=f"^{named} must hold at least one"):
        check(chi)


# ---------------------------------------------------------------------------
# coordinate changes


def quarter_turn():
    return isometry_from_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_identity_isometry_is_trivial():
    spec = make_grid(2, 32, blocks=(2,))
    rng = np.random.default_rng(5)
    u = field_from_values(spec, rng.standard_normal(spec.shape))
    iso = GridIsometry((0, 1), (1, 1))
    report = coordinate_change_check(u, lambda t: np.sqrt(1.0 + t), iso)
    assert report.passed
    assert report.sup_err < 1e-12


def test_rotation_commutes_with_radial_multiplier():
    # b(|xi|^2) = (1 + |xi|^2)^{1/2} applied before or after a quarter turn
    spec = make_grid(2, 32, blocks=(2,))
    rng = np.random.default_rng(6)
    u = field_from_values(spec, rng.standard_normal(spec.shape))
    report = coordinate_change_check(u, lambda t: np.sqrt(1.0 + t), quarter_turn())
    assert report.passed
    assert report.sup_err < 1e-11


def test_sign_flip_with_quadratic_multiplier():
    # b(t) = t is the minus Laplacian; |xi|^2 ignores sign flips entirely
    spec = make_grid(2, 32, blocks=(2,))
    rng = np.random.default_rng(7)
    u = field_from_values(spec, rng.standard_normal(spec.shape))
    iso = GridIsometry((0, 1), (-1, 1))
    report = coordinate_change_check(u, lambda t: t, iso)
    assert report.passed
    assert report.sup_err < 1e-12


def test_all_eight_isometries_with_three_multipliers():
    spec = make_grid(2, 32, blocks=(2,))
    rng = np.random.default_rng(8)
    u = field_from_values(spec, rng.standard_normal(spec.shape))
    isos = all_isometries(2)
    assert len(isos) == 8
    for iso in isos:
        for b in (lambda t: t, lambda t: np.sqrt(1.0 + t), lambda t: np.exp(-t)):
            report = coordinate_change_check(u, b, iso)
            assert report.passed, (iso, report.sup_err)


def test_quarter_turn_has_order_four():
    iso = quarter_turn()
    spec = make_grid(2, 16, blocks=(2,))
    rng = np.random.default_rng(9)
    u = field_from_values(spec, rng.standard_normal(spec.shape))
    out = u
    for _ in range(4):
        out = apply_isometry(out, iso)
    assert np.array_equal(out.samples, u.samples)


def test_non_grid_rotation_is_refused():
    with pytest.raises(HypothesisError):
        isometry_from_matrix(np.array([[0.8, -0.6], [0.6, 0.8]]))


def test_radial_multiplier_on_plane_wave():
    spec = make_grid(2, 16, blocks=(2,))
    u = plane_wave(spec, (2, -1))
    out = apply_radial_multiplier(u, lambda t: np.exp(-t))
    want = math.exp(-5.0) * u.samples  # |xi|^2 = 4 + 1
    assert np.max(np.abs(out.samples - want)) < 1e-12
