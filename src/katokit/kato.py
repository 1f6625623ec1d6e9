"""Windowed (Wiener amalgam) Sobolev norms and their structure checks.

The uniformly-local / amalgam norm of a field u with window chi is

    ||u||_{s,p,chi} = ( integral_y ||u . tau_y chi||_{H^s}^p dy )^{1/p},

with the translation integral either discretized on a sub-lattice of the
sample grid (continuous scheme, trapezoid = plain sum on the torus) or
replaced by the counting sum over lattice translations (lattice scheme).
At p = infinity the norm is the max over the translation grid, a lower
bound for the true sup, which is how it is reported.

Two routes evaluate the translation sum.  The physical route transforms
each translate u . tau_y chi: G FFTs of N^n points for G shifts, in
blocks of about _BLOCK_ELEMENTS coefficients.  With a tensor-product
window consecutive translates that share a leading shift share the
transform over the leading axes, and each translate is left with a
transform along the last axis only (`windowed_spectra`), in place of one
n-D transform per shift.  The leading spectrum is carried across blocks,
so each run of equal leading shifts pays for one leading stage however
many blocks it spans.  At p = 2 on the full translation grid (every
sample shift, G = N^n) the sum over y closes in frequency space,

    sum_y |c_k(u . tau_y chi)|^2 = N^n sum_j |u_{k-j}|^2 |chi_j|^2,

a cyclic convolution of the two power spectra (the amalgam / short-time
Fourier picture), which `_translation_power` evaluates exactly in
O(N^n log N).  Coarser grids, the lattice scheme and p != 2 take the
physical route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import HypothesisError, ShapeError
from .grid import (
    Field,
    GridSpec,
    Window,
    _along,
    _lattice_fold,
    axis_bump_values,
    coordinate_axes,
    gather_translates,
    lattice_shifts,
    make_mollifier,
    mollify,
    require_finite,
    translates,
    window_from_factors,
    window_from_samples,
)
from .sobolev import PartitionOfUnity, _check_order, _lattice_pieces, _schur_constant, h_norm, weight_mesh
from .weights import MultiOrder, SigmaParams

__all__ = [
    "ContinuousScheme",
    "LatticeScheme",
    "AmalgamNormSpec",
    "amalgam_spec",
    "translation_shifts",
    "windowed_norms",
    "windowed_spectra",
    "kato_norm",
    "window_ratio_check",
    "WindowRatioReport",
    "embedding_chain_check",
    "EmbeddingChainReport",
    "h_equals_k2_ratio",
    "kato_product_check",
    "KatoProductReport",
    "make_retraction_window",
    "retraction_roundtrip",
    "RetractionReport",
    "mollifier_rate_check",
    "MollifierRateReport",
]


@dataclass(frozen=True)
class ContinuousScheme:
    """Translation integral over the y-grid with M points per axis (None = N)."""

    points_per_axis: int | None = None


@dataclass(frozen=True)
class LatticeScheme:
    """Counting sum over Gamma = (L / cells_per_axis) Z^n on the torus."""

    cells_per_axis: int = 4


@dataclass(frozen=True, eq=False)
class AmalgamNormSpec:
    """Order, integrability p, window and translation scheme for one norm.

    A lattice scheme needs window coverage Psi = sum_gamma |tau_gamma chi|^2 > 0
    on every sample, checked on one cell, where `_lattice_fold` sums |chi|^2 over Gamma."""

    order: MultiOrder
    p: float
    window: Window
    scheme: ContinuousScheme | LatticeScheme

    def __post_init__(self) -> None:
        if not (self.p >= 1.0):
            raise HypothesisError(f"p must satisfy p >= 1, got {self.p}")
        _check_order(self.window.spec, self.order)
        if isinstance(self.scheme, LatticeScheme):
            lattice_shifts(self.window.spec, self.scheme.cells_per_axis)  # refuses a count that does not divide N
            psi = _lattice_fold(np.abs(self.window.field.samples) ** 2, self.scheme.cells_per_axis)
            if float(np.min(psi)) <= 0.0:
                raise HypothesisError("window coverage sum_gamma |tau_gamma chi|^2 vanishes somewhere on the torus")


def amalgam_spec(
    order: MultiOrder,
    p: float,
    window: Window,
    scheme: ContinuousScheme | LatticeScheme | None = None,
) -> AmalgamNormSpec:
    """Validated constructor; the scheme defaults to the full translation grid."""
    return AmalgamNormSpec(order, float(p), window, scheme or ContinuousScheme())


def translation_shifts(
    spec: GridSpec, scheme: ContinuousScheme | LatticeScheme
) -> tuple[np.ndarray, float]:
    """Index shift vectors (G, dim) and the p-sum quadrature weight."""
    if isinstance(scheme, ContinuousScheme):
        points = scheme.points_per_axis
        m = spec.samples_per_axis if points is None else points
        return lattice_shifts(spec, m), (spec.period / m) ** spec.dim
    if isinstance(scheme, LatticeScheme):
        return lattice_shifts(spec, scheme.cells_per_axis), 1.0
    raise ShapeError(f"unknown scheme {scheme!r}")


# One block of windowed spectra: its product, spectrum and magnitudes stay in cache.
_BLOCK_ELEMENTS = 1 << 15

# Terms of one einsum row sum: numpy's iterator buffer, within which a row is
# summed in one order whatever the row count.
_SUM_TERMS = 8192


def windowed_spectra(
    field: Field,
    window: Window,
    shifts: np.ndarray,
    *,
    out: np.ndarray | None = None,
    leading: dict | None = None,
) -> np.ndarray:
    """Coefficients c_k(u . tau_y chi) for each shift, shape (G, N, .., N),
    written into `out` (complex, of that shape) when it is given.

    A window known by its axis factors, chi = f_0(x_0) ... f_{n-1}(x_{n-1}),
    is applied in two stages.  Once per run of consecutive shifts with the
    same leading shift (y_0 .. y_{n-2}), u times the leading factors is
    transformed over the leading axes; per shift, that times the last
    factor's translate is transformed along the last axis.  A window
    without factors, or a 1-D one, is the one factor over every axis: no
    leading stage, one n-D transform per shift.

    `leading` carries the last leading spectrum from one call to the next
    (a one-entry dict keyed on the leading shift, for this field and window
    only): `_spectra_blocks` passes one through its blocks, so a run of
    equal leading shifts that spans several blocks pays for one leading
    stage.  The entry is dropped before the next one is computed: at most
    one N^n array is held.  Without it every call starts cold.
    """
    if field.spec != window.spec:
        raise ShapeError("field and window must share a grid")
    spec = field.spec
    tiles = window.factor_tiles
    lead = len(tiles) - 1
    shifts = np.asarray(shifts)
    count = shifts.shape[0]
    if out is None:
        out = np.empty((count,) + spec.shape, dtype=np.complex128)
    last = gather_translates(tiles[-1], shifts[:, lead:]).reshape((count,) + (1,) * lead + spec.shape[lead:])
    if leading is None:
        leading = {}
    start = 0
    # one leading stage per run of consecutive shifts that share the leading shift
    for row, run in itertools.groupby(shifts[:, :lead].tolist()):
        stop = start + len(list(run))
        key = tuple(row)
        if key not in leading:
            leading.clear()
            leading[key] = _leading_spectrum(field.samples, tiles, key)
        np.multiply(last[start:stop], leading[key], out=out[start:stop])
        start = stop
    return np.fft.fftn(out, axes=tuple(range(lead + 1, spec.dim + 1)), norm="forward", out=out)


def _leading_spectrum(samples: np.ndarray, tiles: tuple[np.ndarray, ...], leading: tuple[int, ...]) -> np.ndarray:
    """u times the translates of the leading factors by `leading`, transformed
    over the leading axes (u itself when there are none)."""
    for axis, y in enumerate(leading):
        samples = samples * _along(gather_translates(tiles[axis], np.array([y])), samples.ndim, axis)
    return np.fft.fftn(samples, axes=tuple(range(len(leading))), norm="forward") if leading else samples


def _spectra_blocks(field: Field, window: Window, shifts: np.ndarray):
    """`windowed_spectra` over consecutive blocks of about _BLOCK_ELEMENTS
    coefficients, so no caller holds the (G, N, .., N) array at once.  Every
    block is written into one buffer: use it before asking for the next.
    One leading spectrum is carried from block to block."""
    rows = max(1, min(shifts.shape[0], _BLOCK_ELEMENTS // field.spec.num_points))
    buffer = np.empty((rows,) + field.spec.shape, dtype=np.complex128)
    leading: dict = {}
    for start in range(0, shifts.shape[0], rows):
        block = shifts[start : start + rows]
        yield windowed_spectra(field, window, block, out=buffer[: block.shape[0]], leading=leading)


# Fixed-point resolution of a translation power spectrum, relative to its
# largest entry: below eps^2, the floor of |c_k|^2 taken from an FFT.
_POWER_BITS = 112


def _digit_bits(num_points: int) -> int:
    """Bits per digit such that every digit convolution of `_translation_power`
    rounds to its exact integer value.

    A digit convolution sums at most ceil(_POWER_BITS / b) cyclic
    convolutions of N^n-point arrays of integers below 2^b; the worst-case
    rounding error of an FFT convolution, 16 log2(N^n) eps N^n 4^b each, must
    stay below a quarter.
    """
    eps = float(np.finfo(float).eps)
    levels = max(1.0, math.log2(num_points))
    for bits in range(26, 0, -1):
        count = -(-_POWER_BITS // bits)
        if count * num_points * 4.0**bits * 16.0 * levels * eps <= 0.25:
            return bits
    raise ShapeError(f"{num_points} samples are too many for an exact translation power spectrum")


def _power_digit_spectra(samples: np.ndarray, bits: int, count: int) -> tuple[float, np.ndarray]:
    """The power spectrum |c_k|^2 of `samples` as scale * sum_t d_t 2^(-bits (t+1))
    with integer digits 0 <= d_t < 2^bits, returned as the scale and the
    real FFTs of the `count` digit arrays."""
    power = np.abs(np.fft.fftn(samples) / samples.size) ** 2
    scale = math.ldexp(1.0, math.frexp(float(np.max(power)))[1])
    frac = power / scale
    digits = np.empty((count,) + power.shape)
    for digit in digits:
        frac *= 2.0**bits
        np.floor(frac, out=digit)
        frac -= digit
    return scale, np.fft.rfftn(digits, axes=tuple(range(1, power.ndim + 1)))


def _translation_power(field: Field, window: Window) -> np.ndarray:
    """P_k = sum_y |c_k(u . tau_y chi)|^2 over every sample shift y.

    The sum is the cyclic convolution N^n sum_j |u_{k-j}|^2 |chi_j|^2.  A
    plain FFT convolution errs by eps times the largest entry everywhere,
    which swamps the small entries that large weights and square roots pick
    out.  So both power spectra are cut into integer digits, each digit
    product is convolved by FFT and rounded back to the integer it is, and
    the digits are recombined: every entry carries rounding error relative
    to itself, down to 2^-_POWER_BITS of the largest.
    """
    if field.spec != window.spec:
        raise ShapeError("field and window must share a grid")
    spec = field.spec
    bits = _digit_bits(spec.num_points)
    count = -(-_POWER_BITS // bits)
    scale_u, digits_u = _power_digit_spectra(field.samples, bits, count)
    scale_chi, digits_chi = _power_digit_spectra(window.field.samples, bits, count)
    axes = tuple(range(spec.dim))
    total = np.zeros(spec.shape)
    for d in range(count - 1, -1, -1):
        # digit d of the product collects the digit pairs t + t' = d
        product = digits_u[0] * digits_chi[d]
        for t in range(1, d + 1):
            product += digits_u[t] * digits_chi[d - t]
        total *= 2.0**-bits
        total += np.rint(np.fft.irfftn(product, s=spec.shape, axes=axes))
    return spec.num_points * scale_u * scale_chi * 2.0 ** (-2 * bits) * total


def windowed_norms(field: Field, window: Window, shifts: np.ndarray, order: MultiOrder) -> np.ndarray:
    """||u . tau_y chi||_{H^s} over the shift set."""
    require_finite(field.samples, "field")
    require_finite(window.field.samples, "window")
    spec = field.spec
    # w^2 over the interleaved (re, im) pairs of a row of coefficients
    w_sq = np.repeat(weight_mesh(spec, order).ravel() ** 2, 2)
    sq = np.empty(shifts.shape[0])
    start = 0
    for coeffs in _spectra_blocks(field, window, shifts):
        parts = coeffs.reshape(coeffs.shape[0], -1).view(float)
        np.square(parts, out=parts)
        # one sum per row, not a BLAS product, whose rounding varies with the
        # row count, in chunks of _SUM_TERMS terms added left to right: einsum
        # sums a chunk that size the same way in a lone row and in a stack,
        # so no norm depends on the block its shift falls in
        rows = sq[start : start + parts.shape[0]]
        np.einsum("ij,j->i", parts[:, :_SUM_TERMS], w_sq[:_SUM_TERMS], out=rows)
        for lo in range(_SUM_TERMS, parts.shape[1], _SUM_TERMS):
            rows += np.einsum("ij,j->i", parts[:, lo : lo + _SUM_TERMS], w_sq[lo : lo + _SUM_TERMS])
        start += parts.shape[0]
    vol = spec.period**spec.dim
    return np.sqrt(vol * sq)


def kato_norm(field: Field, norm_spec: AmalgamNormSpec) -> float:
    """Evaluate the amalgam norm under the given scheme.

    p = infinity returns the max over the translation grid (a certified
    lower bound for the continuum sup).  p = 2 on the full translation grid
    is (weight L^n sum_k <<xi_k>>^{2s} P_k)^{1/2} with the translation power
    spectrum P of `_translation_power`, O(N^n log N); every other case
    transforms the G translates, G FFTs of N^n points.
    """
    if field.spec != norm_spec.window.spec:
        raise ShapeError("field and norm window must share a grid")
    require_finite(field.samples, "field")
    require_finite(norm_spec.window.field.samples, "window")
    spec = field.spec
    shifts, weight = translation_shifts(spec, norm_spec.scheme)
    if norm_spec.p == 2.0 and shifts.shape[0] == spec.num_points:
        w = weight_mesh(spec, norm_spec.order)
        total = float(np.sum(w**2 * _translation_power(field, norm_spec.window)))
        return math.sqrt(weight * spec.period**spec.dim * total)
    vals = windowed_norms(field, norm_spec.window, shifts, norm_spec.order)
    if math.isinf(norm_spec.p):
        return float(np.max(vals))
    p = norm_spec.p
    return float((weight * np.sum(vals**p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# structure checks


@dataclass(frozen=True)
class WindowRatioReport:
    ratios: tuple[float, ...]
    min_ratio: float
    max_ratio: float


def window_ratio_check(
    fields: Sequence[Field],
    order: MultiOrder,
    p: float,
    window: Window,
    other: Window,
) -> WindowRatioReport:
    """Norm ratios under two admissible windows over a field ensemble.

    Window independence of the space means these ratios stay in a fixed
    bracket; the report records the empirical spread.
    """
    if not fields:
        raise HypothesisError("fields must hold at least one field")
    spec_a = amalgam_spec(order, p, window)
    spec_b = amalgam_spec(order, p, other)
    ratios = []
    for f in fields:
        a = kato_norm(f, spec_a)
        b = kato_norm(f, spec_b)
        ratios.append(a / max(b, 1e-300))
    return WindowRatioReport(tuple(ratios), min(ratios), max(ratios))


@dataclass(frozen=True)
class EmbeddingChainReport:
    p_chain_ok: bool
    order_chain_ok: bool
    p_values: tuple[float, ...]
    p_norms: tuple[float, ...]
    order_norms: tuple[float, float]


_CHAIN_TOL = 1e-12


def embedding_chain_check(
    field: Field,
    order: MultiOrder,
    lower: MultiOrder,
    p_values: Sequence[float],
    window: Window,
) -> EmbeddingChainReport:
    """Exact monotonicity: lattice norms decrease in p and increase in order.

    Both follow termwise: ell^p >= ell^q on identical summands for p <= q,
    and <<xi>>^{s'} <= <<xi>>^{s} pointwise when s' <= s componentwise.
    """
    if not order.dominates(lower):
        raise HypothesisError("order chain requires lower <= order componentwise")
    ps = sorted(float(p) for p in p_values)
    scheme = LatticeScheme()
    norms = tuple(kato_norm(field, amalgam_spec(order, p, window, scheme)) for p in ps)
    p_ok = all(norms[i + 1] <= norms[i] * (1.0 + _CHAIN_TOL) for i in range(len(norms) - 1))
    hi = kato_norm(field, amalgam_spec(order, 2.0, window, scheme))
    lo = kato_norm(field, amalgam_spec(lower, 2.0, window, scheme))
    order_ok = lo <= hi * (1.0 + _CHAIN_TOL)
    return EmbeddingChainReport(p_ok, order_ok, tuple(ps), norms, (lo, hi))


def h_equals_k2_ratio(field: Field, order: MultiOrder, partition: PartitionOfUnity) -> float:
    """||u||_{s,2,Gamma,h} / ||u||_{H^s} with the partition master window."""
    scheme = LatticeScheme(partition.cells_per_axis)
    norm_spec = amalgam_spec(order, 2.0, partition.master, scheme)
    return kato_norm(field, norm_spec) / max(h_norm(field, order), 1e-300)


@dataclass(frozen=True)
class KatoProductReport:
    ratios: tuple[float, ...]
    max_ratio: float
    reference_constant: float


def kato_product_check(
    pairs: Sequence[tuple[Field, Field]],
    params: SigmaParams,
    p: float,
    q: float,
    window: Window,
) -> KatoProductReport:
    """Amalgam Hoelder bound ||u v||_{sigma,r,chi^2} <= C ||u||_{s,p,chi} ||v||_{t,q,chi}.

    1/r = 1/p + 1/q; the squared window pairs with the product because
    (u tau_y chi)(v tau_y chi) = u v tau_y chi^2 pointwise, and the y-sum
    obeys Hoelder with matching quadrature weights.
    """
    if math.isinf(p) and math.isinf(q):
        r = math.inf
    elif math.isinf(p):
        r = q
    elif math.isinf(q):
        r = p
    else:
        r = 1.0 / (1.0 / p + 1.0 / q)
    if r < 1.0:
        raise HypothesisError(f"exponents p={p}, q={q} give r={r} < 1")
    if not pairs:
        raise HypothesisError("pairs must hold at least one pair of fields")
    chi_sq = window_from_samples(Field(window.spec, window.field.samples**2))
    spec_u = amalgam_spec(params.s, p, window)
    spec_v = amalgam_spec(params.t, q, window)
    spec_uv = amalgam_spec(params.sigma, r, chi_sq)
    reference = _schur_constant(window.spec, params)
    ratios = []
    for u, v in pairs:
        uv = Field(u.spec, u.samples * v.samples)
        num = kato_norm(uv, spec_uv)
        den = kato_norm(u, spec_u) * kato_norm(v, spec_v)
        ratios.append(num / max(den, 1e-300))
    return KatoProductReport(tuple(ratios), max(ratios), reference)


# ---------------------------------------------------------------------------
# retraction / coretraction onto lattice pieces


def make_retraction_window(partition: PartitionOfUnity) -> Window:
    """Plateau window equal to 1 on a neighborhood of the master bump support.

    The master support spans cell coordinates [-1/12, 13/12]; the plateau
    extends 0.1 cells beyond it and the support another half cell, which
    stays shorter than one period for 3 or more cells per axis.
    """
    ell = partition.cell_side
    plo = (-1.0 / 12.0 - 0.1) * ell
    phi = (13.0 / 12.0 + 0.1) * ell
    lo = plo - 0.5 * ell
    hi = phi + 0.5 * ell
    if hi - lo >= partition.spec.period:
        raise ShapeError(
            f"cells_per_axis={partition.cells_per_axis}; the retraction window needs at least 3"
            f" (it spans {(hi - lo) / ell:.2f} cells)"
        )
    spec = partition.spec
    x = coordinate_axes(spec)[0]
    center = 0.5 * (lo + hi)
    disp = np.mod(x - center + 0.5 * spec.period, spec.period) - 0.5 * spec.period
    vals = axis_bump_values(disp + center, lo, hi, (plo, phi))
    return window_from_factors(spec, (vals,) * spec.dim)


@dataclass(frozen=True)
class RetractionReport:
    roundtrip_sup_err: float
    section_norm: float
    reference_norm: float
    passed: bool


def retraction_roundtrip(
    field: Field,
    partition: PartitionOfUnity,
    order: MultiOrder,
    tol: float = 1e-10,
) -> RetractionReport:
    """Slice u into lattice pieces and reassemble: R_chi(S u) = u exactly.

    S u = ((tau_k h) u)_k over lattice points k, R_chi((u_k)) =
    sum_k (tau_k chi) u_k with chi = 1 near supp h, so chi h = h and the
    composition telescopes through sum_k tau_k h = 1.
    """
    pieces = _lattice_pieces(field, partition)
    chi = make_retraction_window(partition)
    spec = field.spec
    assembled = np.zeros(spec.shape, dtype=np.complex128)
    norms_p: list[float] = []
    for y, piece in pieces:
        assembled += translates(chi.field.samples, y) * piece
        norms_p.append(h_norm(Field(spec, piece), order))
    err = float(np.max(np.abs(assembled - field.samples)))
    section = float(np.sum(np.asarray(norms_p) ** 2.0) ** 0.5)
    reference = h_norm(field, order)
    scale = max(float(np.max(np.abs(field.samples))), 1e-300)
    return RetractionReport(
        roundtrip_sup_err=err,
        section_norm=section,
        reference_norm=reference,
        passed=err <= tol * scale,
    )


# ---------------------------------------------------------------------------
# mollifier approximation rate


@dataclass(frozen=True)
class MollifierRateReport:
    epsilons: tuple[float, ...]
    errors: tuple[float, ...]
    bounds: tuple[float, ...]
    bound_ok: bool
    young_ok: bool
    slope: float
    slope_target: float


def mollifier_rate_check(
    field: Field,
    order_s: MultiOrder,
    order_sp: MultiOrder,
    epsilons: Sequence[float],
    window: Window,
) -> MollifierRateReport:
    """Approximation rate and stability of mollification.

    Checks, at every epsilon: the two-sided bound
    ||phi_eps * u - u||_{H^{s'}} <= 2^{1-theta} eps^theta ||u||_{H^s} with
    theta = min(s - s', 1) taken blockwise-minimal, and the Young bound
    ||phi_eps * u||_{s,sup,chi} <= ||u||_{s,sup,chi}, whose constant is the
    kernel's mass: 1, since `mollifier_kernel` renormalizes the positive
    kernel phi_eps to unit discrete mass on the field's grid.  Fits the
    log-log slope of the error against epsilon.
    """
    if not order_s.dominates(order_sp):
        raise HypothesisError("rate check needs s' <= s componentwise")
    if len({float(e) for e in epsilons}) < 2:
        raise HypothesisError(f"epsilons must hold at least two distinct values to fit the rate, got {list(epsilons)}")
    theta = min(min(a - b for a, b in zip(order_s.s, order_sp.s)), 1.0)
    if theta < 0.0:
        raise HypothesisError("rate exponent theta must be nonnegative")
    base = h_norm(field, order_s)
    errors: list[float] = []
    bounds: list[float] = []
    young_ok = True
    sup_spec = amalgam_spec(order_s, math.inf, window, ContinuousScheme())
    u_ul = kato_norm(field, sup_spec)
    for eps in epsilons:
        smoothed = mollify(field, make_mollifier(field.spec, eps))
        diff = Field(field.spec, smoothed.samples - field.samples)
        err = h_norm(diff, order_sp)
        bound = 2.0 ** (1.0 - theta) * float(eps) ** theta * base
        errors.append(err)
        bounds.append(bound)
        if kato_norm(smoothed, sup_spec) > u_ul * (1.0 + 1e-10):
            young_ok = False
    bound_ok = all(e <= b * (1.0 + 1e-10) for e, b in zip(errors, bounds))
    logs_e = np.log(np.asarray(errors))
    logs_x = np.log(np.asarray([float(e) for e in epsilons]))
    slope = float(np.polyfit(logs_x, logs_e, 1)[0])
    return MollifierRateReport(
        epsilons=tuple(float(e) for e in epsilons),
        errors=tuple(errors),
        bounds=tuple(bounds),
        bound_ok=bound_ok,
        young_ok=young_ok,
        slope=slope,
        slope_target=theta,
    )
