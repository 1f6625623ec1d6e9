"""Block-weighted Sobolev norms on the periodized grid.

The norm of order s (a :class:`~katokit.weights.MultiOrder` sharing the
grid's block partition) is

    h_norm(u, s)^2 = L^n sum_k <<xi_k>>^{2s} |c_k(u)|^2,

which reduces to the discrete L^2 norm at s = 0 by Parseval.  The module
also hosts the constructions that live naturally on the frequency side:
the Bessel-type multiplier <<D>>^s, spectral derivatives, multiplier and
product bounds with computable constants, twisted periodization over a
sub-lattice, and the smooth partition of unity subordinate to lattice
cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import HypothesisError, NonFiniteError, PartitionError, ShapeError
from .grid import (
    Field,
    GridSpec,
    Window,
    _along,
    _lattice_fold,
    axis_bump_values,
    coordinate_axes,
    frequency_axes,
    from_spectrum,
    lattice_shifts,
    require_finite,
    to_spectrum,
    translates,
    window_from_factors,
)
from .weights import MultiOrder, SigmaParams, _block_weight, weight_conv_constant_total

__all__ = [
    "weight_mesh",
    "bessel_apply",
    "h_norm",
    "spectral_derivative",
    "derivative_split_check",
    "DerivativeSplitReport",
    "window_multiplier_constant",
    "periodic_multiplier_constant",
    "product_bound_check",
    "ProductBoundReport",
    "twisted_periodization",
    "TwistedPeriodizationReport",
    "PartitionOfUnity",
    "build_partition",
    "lattice_decomposition_ratio",
    "rl_sup_bound_check",
    "SupBoundReport",
]


def _check_order(spec: GridSpec, order: MultiOrder) -> None:
    if order.blocks != spec.blocks:
        raise ShapeError(f"order blocks {order.blocks} do not match grid blocks {spec.blocks}")


@functools.lru_cache(maxsize=256)
def weight_mesh(spec: GridSpec, order: MultiOrder) -> np.ndarray:
    """<<xi_k>>^s on the full frequency lattice, FFT order, read-only."""
    _check_order(spec, order)
    out = _block_weight([_along(f, spec.dim, axis) for axis, f in enumerate(frequency_axes(spec))], order)
    out.flags.writeable = False
    return out


def bessel_apply(field: Field, order: MultiOrder) -> Field:
    """Spectral multiplier <<D>>^s: plane waves are exact eigenvectors."""
    w = weight_mesh(field.spec, order)
    return from_spectrum(field.spec, to_spectrum(field) * w)


def h_norm(field: Field, order: MultiOrder) -> float:
    """Sobolev norm of order s; equals the discrete L^2 norm at s = 0.

    Raises NonFiniteError when a sample is NaN or infinite."""
    require_finite(field.samples, "field")
    w = weight_mesh(field.spec, order)
    coeffs = to_spectrum(field)
    total = float(np.sum((w * np.abs(coeffs)) ** 2))
    return math.sqrt(field.spec.period**field.spec.dim * total)


def spectral_derivative(field: Field, axis: int) -> Field:
    """d/dx_axis via the multiplier i xi_axis."""
    spec = field.spec
    if not 0 <= axis < spec.dim:
        raise ShapeError(f"axis {axis} out of range for dim {spec.dim}")
    f = frequency_axes(spec)[axis]
    return from_spectrum(spec, to_spectrum(field) * (1j * _along(f, spec.dim, axis)))


@dataclass(frozen=True)
class DerivativeSplitReport:
    lhs_sq: float
    rhs_sq: float
    rel_err: float
    passed: bool


def derivative_split_check(field: Field, order: MultiOrder, block: int, tol: float = 1e-10) -> DerivativeSplitReport:
    """Exact norm split across one block:

    h_norm(u, s)^2 = h_norm(u, s - delta_l)^2 + sum_{axis in block} h_norm(d_axis u, s - delta_l)^2.

    Both sides weigh each mode by <<xi>>^{2(s - delta_l)} (1 + |xi_block|^2),
    so the identity holds to rounding error on the grid.
    """
    spec = field.spec
    _check_order(spec, order)
    if not 0 <= block < order.j:
        raise ShapeError(f"block index {block} out of range")
    lowered = order.shifted(block, -1.0)
    lhs = h_norm(field, order) ** 2
    rhs = h_norm(field, lowered) ** 2
    for axis in order.block_axes[block]:
        rhs += h_norm(spectral_derivative(field, axis), lowered) ** 2
    rel = abs(lhs - rhs) / max(lhs, 1e-300)
    return DerivativeSplitReport(lhs_sq=lhs, rhs_sq=rhs, rel_err=rel, passed=rel <= tol)


# ---------------------------------------------------------------------------
# multiplier and product bounds


def window_multiplier_constant(chi: Field, order: MultiOrder) -> float:
    """Constant in ||chi u||_{H^s} <= C ||u||_{H^s} for compactly supported chi.

    C = 2^{|s|_1/2} sum_k <xi_k>^{|s|_1} |c_k(chi)|, the discrete form of the
    spectrally weighted L^1 norm of the cutoff's transform.
    """
    _check_order(chi.spec, order)
    flat = multi_order_total_mesh(chi.spec, order.total_abs)
    coeffs = np.abs(to_spectrum(chi))
    return float(2.0 ** (0.5 * order.total_abs) * np.sum(flat * coeffs))


def multi_order_total_mesh(spec: GridSpec, exponent: float) -> np.ndarray:
    """<xi_k>^{exponent} with the full (unblocked) bracket, FFT order: the
    block weight of the one-block grid."""
    one_block = GridSpec(spec.dim, spec.samples_per_axis, spec.period, (spec.dim,))
    return weight_mesh(one_block, MultiOrder((exponent,), (spec.dim,)))


def periodic_multiplier_constant(chi: Field, order: MultiOrder) -> float:
    """Constant 2^{|s|_1/2} sum_k <<xi_k>>^{|s|} |c_k(chi)| for periodic chi.

    Every grid field is periodic, so this bound applies to any multiplier
    whose spectrum is summable against the |s| block weight.
    """
    w = weight_mesh(chi.spec, order.abs)
    coeffs = np.abs(to_spectrum(chi))
    return float(2.0 ** (0.5 * order.total_abs) * np.sum(w * coeffs))


def _schur_constant(spec: GridSpec, params: SigmaParams) -> float:
    """sqrt((L / 2 pi)^n prod_l C_l), the split-order product constant on the
    grid: the lattice sum of the Schur bound approximates (L / 2 pi)^n times
    the convolution integral."""
    return math.sqrt((spec.period / (2.0 * math.pi)) ** spec.dim * weight_conv_constant_total(params))


@dataclass(frozen=True)
class ProductBoundReport:
    mode: str
    lhs: float
    reference: float
    constant: float
    ratio: float
    passed: bool


def product_bound_check(
    u: Field,
    chi: Field,
    order: MultiOrder,
    mode: str = "window",
    params=None,
) -> ProductBoundReport:
    """Check one of the product estimates on concrete fields.

    mode "window":       ||chi u||_s <= C(s, chi) ||u||_s, compact cutoff.
    mode "periodic":     same with the periodic-multiplier constant.
    mode "sobolev_pair": ||u v||_sigma <= sqrt(prod C_l) ||u||_s ||v||_t with
                         `params` a :class:`~katokit.weights.SigmaParams`;
                         `chi` carries the second factor and `order` the
                         first factor's order (params.s).
    """
    if u.spec != chi.spec:
        raise ShapeError("fields must share a grid")
    spec = u.spec
    if mode in ("window", "periodic"):
        lhs = h_norm(Field(spec, chi.samples * u.samples), order)
        base = h_norm(u, order)
        if mode == "window":
            const = window_multiplier_constant(chi, order)
        else:
            const = periodic_multiplier_constant(chi, order)
        bound = const * base
        ratio = lhs / max(bound, 1e-300)
        return ProductBoundReport(mode, lhs, base, const, ratio, ratio <= 1.0 + 1e-8)
    if mode == "sobolev_pair":
        if not isinstance(params, SigmaParams):
            raise HypothesisError("sobolev_pair mode requires SigmaParams")
        if params.s != order:
            raise ShapeError("order must equal params.s in sobolev_pair mode")
        sigma = params.sigma
        lhs = h_norm(Field(spec, u.samples * chi.samples), sigma)
        denom = h_norm(u, params.s) * h_norm(chi, params.t)
        const = _schur_constant(spec, params)
        ratio = lhs / max(denom, 1e-300)
        return ProductBoundReport(mode, lhs, denom, const, ratio, ratio <= const * 1.05)
    raise HypothesisError(f"unknown product bound mode {mode!r}")


# ---------------------------------------------------------------------------
# twisted periodization over a sub-lattice


# Tolerance of the twisted-periodization and partition-of-unity identities,
# which hold to rounding error.
_EXACTNESS_TOL = 1e-10


def _lattice_cells(spec: GridSpec, cells_per_axis: int) -> tuple[np.ndarray, int]:
    """The lattice shifts of `cells_per_axis` cells per axis and that count,
    which must be a divisor of N (ShapeError) of at least 2 (HypothesisError)."""
    shifts = lattice_shifts(spec, cells_per_axis)
    if cells_per_axis < 2:
        raise HypothesisError("need at least 2 lattice cells per axis")
    return shifts, int(cells_per_axis)


@dataclass(frozen=True)
class TwistedPeriodizationReport:
    field: Field
    theta: tuple[float, ...]
    theta_used: tuple[float, ...]
    theta_offset: float
    off_coset_mass: float
    on_coset_max_rel_err: float
    passed: bool


def twisted_periodization(
    window: Window, theta: Sequence[float] | float, cells_per_axis: int = 4
) -> TwistedPeriodizationReport:
    """Phase-twisted lattice periodization phi_theta = sum_g e^{i<g,theta>} tau_{lg} phi.

    The lattice is Gamma = (L / Lambda) Z^n with Lambda = `cells_per_axis`
    translations per axis on the torus.  The spectrum of phi_theta is
    supported exactly on the coset of frequencies xi with xi * (L/Lambda)
    congruent to theta mod 2 pi, where the coefficients equal
    Lambda^n c_k(phi).  Representable twists are multiples of
    2 pi / Lambda per axis; other values are projected to the nearest
    representable twist, reported via `theta_offset`.  Each translate
    tau_{lg} phi is one roll of the window's samples.  Raises NonFiniteError
    when a component of theta is NaN or infinite.
    """
    spec = window.spec
    shifts, lam = _lattice_cells(spec, cells_per_axis)
    n_samp = spec.samples_per_axis
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta_arr.shape != (spec.dim,):
        raise ShapeError(f"theta must have length {spec.dim}")
    if not np.all(np.isfinite(theta_arr)):
        raise NonFiniteError(f"theta = {theta!r} is not finite")
    unit = 2.0 * math.pi / lam
    residues = np.rint(theta_arr / unit).astype(int) % lam
    theta_used = residues * unit
    offset = float(np.max(np.abs((theta_arr - residues * unit + math.pi) % (2.0 * math.pi) - math.pi)))

    stride = n_samp // lam
    acc = np.zeros(spec.shape, dtype=np.complex128)
    for y in shifts:
        phase = complex(np.exp(1j * float(np.dot(y // stride, theta_used))))
        acc += phase * translates(window.field.samples, y)
    twisted = Field(spec, acc)

    coeffs = to_spectrum(twisted)
    base = to_spectrum(window.field)
    k_idx = np.fft.fftfreq(n_samp, d=1.0 / n_samp).astype(int)
    on_axis = [(np.mod(k_idx, lam) == residues[a]) for a in range(spec.dim)]
    mask = np.ones(spec.shape, dtype=bool)
    for axis in range(spec.dim):
        mask = mask & _along(on_axis[axis], spec.dim, axis)
    total = float(np.sum(np.abs(coeffs) ** 2))
    off = float(np.sum(np.abs(coeffs[~mask]) ** 2))
    off_ratio = off / max(total, 1e-300)
    expected = lam**spec.dim * base[mask]
    got = coeffs[mask]
    scale = float(np.max(np.abs(expected))) if expected.size else 1.0
    on_err = float(np.max(np.abs(got - expected))) / max(scale, 1e-300)
    passed = off_ratio <= _EXACTNESS_TOL and on_err <= _EXACTNESS_TOL
    return TwistedPeriodizationReport(
        field=twisted,
        theta=tuple(float(v) for v in theta_arr),
        theta_used=tuple(float(v) for v in theta_used),
        theta_offset=offset,
        off_coset_mass=off_ratio,
        on_coset_max_rel_err=on_err,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# partition of unity subordinate to lattice cells


_SHIFTS_1D = (-1.0 / 3.0, 0.0, 1.0 / 3.0)
_MIN_SAMPLES_PER_CELL = 32


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Master bump h of a smooth partition of unity on the lattice cells.

    Cell coordinates are scaled so one lattice cell has side
    ell = L / cells_per_axis.  Per axis, piece i is h_i = tau_{x_i} h~ / H~
    with x_i in {-1/3, 0, 1/3}, h~ the cell bump (1 on [1/3, 2/3], support
    in [1/4, 3/4] of the cell) and H~ the full shifted periodization, which
    is >= 1 everywhere.  `master` is the tensor product of the per-axis
    h = sum_i h_i, kept as its `axis_factors`; its lattice periodization is
    exactly 1.
    """

    spec: GridSpec
    cells_per_axis: int
    master: Window

    @property
    def cell_side(self) -> float:
        return self.spec.period / self.cells_per_axis


def _axis_master_profile(t: np.ndarray) -> np.ndarray:
    """Per-axis cell bump: support (1/4, 3/4), exactly 1 on [1/3, 2/3]."""
    return axis_bump_values(t, 0.25, 0.75, (1.0 / 3.0, 2.0 / 3.0))


def build_partition(spec: GridSpec, cells_per_axis: int = 4) -> PartitionOfUnity:
    """Construct the shifted-bump partition of unity on the lattice cells.

    Every n-D sum of the construction is a product of its 1-D sums, so the
    covering and master periodization checks run on one axis.  The pieces
    sum to 1 by construction: the denominator is the sum of their numerators.
    """
    _, lam = _lattice_cells(spec, cells_per_axis)
    n_samp = spec.samples_per_axis
    if n_samp // lam < _MIN_SAMPLES_PER_CELL:
        raise PartitionError(
            f"{n_samp // lam} samples per lattice cell; need at least {_MIN_SAMPLES_PER_CELL} "
            "to resolve the cell bumps"
        )

    t = coordinate_axes(spec)[0] / (spec.period / lam)  # cell coordinates in [0, Lambda)

    # The denominator: the periodizations of the shifted bumps, summed.
    denom = np.zeros_like(t)
    for shift in _SHIFTS_1D:
        for gamma in range(-2, lam + 2):
            denom += _axis_master_profile(t - gamma - shift)
    if float(np.min(denom)) < 1.0 - 1e-12:
        raise PartitionError("shifted periodization dipped below 1; covering property failed")

    master_1d = np.zeros_like(t)
    for shift in _SHIFTS_1D:
        # Support wrapped onto the torus around cell coordinate shift + 1/2.
        disp = np.mod(t - (shift + 0.5) + 0.5 * lam, lam) - 0.5 * lam
        master_1d += _axis_master_profile(disp + 0.5) / denom
    master = window_from_factors(spec, (master_1d,) * spec.dim)

    # The n-D periodization is the outer product of the 1-D periodization p
    # of the (nonnegative) factor, so it spans [min p^n, max p^n].
    period_1d = _lattice_fold(master.axis_factors[0], lam)
    lowest, highest = float(np.min(period_1d)) ** spec.dim, float(np.max(period_1d)) ** spec.dim
    if max(highest - 1.0, 1.0 - lowest) > _EXACTNESS_TOL:
        raise PartitionError("master bump lattice periodization is not 1 within tolerance")

    return PartitionOfUnity(spec=spec, cells_per_axis=lam, master=master)


def _lattice_pieces(field: Field, partition: PartitionOfUnity):
    """The pieces (tau_y h) u of u, with their lattice shifts y, in
    `lattice_shifts` order: pairs (y, samples), one piece at a time."""
    if field.spec != partition.spec:
        raise ShapeError("field and partition must share a grid")
    master = partition.master.field.samples
    shifts = lattice_shifts(field.spec, partition.cells_per_axis)
    return ((y, translates(master, y) * field.samples) for y in shifts)


def lattice_decomposition_ratio(field: Field, partition: PartitionOfUnity, order: MultiOrder) -> float:
    """R(u) = (sum_gamma ||(tau_gamma h) u||_s^2)^{1/2} / ||u||_s.

    Finite on both sides because the master bump h has lattice periodization
    1, so the pieces (tau_gamma h) u reassemble u exactly.
    """
    pieces = _lattice_pieces(field, partition)
    base = h_norm(field, order)
    total = 0.0
    for _, piece in pieces:
        total += h_norm(Field(field.spec, piece), order) ** 2
    return math.sqrt(total) / max(base, 1e-300)


# ---------------------------------------------------------------------------
# sup bound through the spectrum


@dataclass(frozen=True)
class SupBoundReport:
    sup: float
    spectral_l1: float
    weighted_bound: float
    passed: bool


def rl_sup_bound_check(field: Field, order: MultiOrder) -> SupBoundReport:
    """Chain sup|u| <= sum_k |c_k| <= W ||u||_{H^s}, W = (sum <<xi_k>>^{-2s})^{1/2} L^{-n/2}.

    Requires s_l > n_l / 2 per block so the weight sum is the discretization
    of a convergent integral.
    """
    spec = field.spec
    _check_order(spec, order)
    for s_l, n_l in zip(order.s, order.blocks):
        if s_l <= n_l / 2.0:
            raise HypothesisError(f"sup bound needs s_l > n_l/2; got s={s_l} on a block of dimension {n_l}")
    coeffs = to_spectrum(field)
    l1 = float(np.sum(np.abs(coeffs)))
    sup = float(np.max(np.abs(field.samples)))
    w = weight_mesh(spec, order)
    weight_sum = float(np.sum(w**-2.0))
    bound = math.sqrt(weight_sum) * spec.period ** (-spec.dim / 2.0) * h_norm(field, order)
    passed = sup <= l1 * (1.0 + 1e-12) + 1e-300 and l1 <= bound * (1.0 + 1e-12) + 1e-300
    return SupBoundReport(sup=sup, spectral_l1=l1, weighted_bound=bound, passed=passed)
