"""Tau-quantization of symbols, Schatten norms, modulation norms.

A symbol a(x, xi) lives on a 2n-dimensional grid (x-axes first, then
xi-axes).  The xi-axes are read as the dual frequency grid of the x-axes:
sample index q on a xi-axis means the frequency (2 pi / L) q in FFT order,
whatever the nominal period.  With the self-dual period L = sqrt(2 pi N)
the two readings coincide, which is what the verification suites use.

The quantized operator acts on sample vectors through the kernel

    M[i, j] = (L/N)^n  B(x_i - tau ztilde, ztilde),
    B(w, z) = L^{-n} sum_k a(w, xi_k) e^{i z xi_k},

where ztilde is the centered representative of x_i - x_j on the torus
(constant on each difference class) and a(w, .) is evaluated off-grid by
trigonometric interpolation in the x-block.  Everything reduces to three
FFT passes and one gather whose normalizations cancel exactly; the
unimodular interpolation twist then gives the Hilbert-Schmidt identity

    schatten_norm(quantize(a, tau), 2) = (2 pi)^{-n/2} ||a||_{L^2}

exactly (to rounding) for every tau, which the suites certify before any
Schatten bound is trusted.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import HypothesisError, ShapeError
from .grid import Field, GridSpec, Window, _along, frequency_mesh, from_spectrum, require_finite, to_spectrum
from .kato import (
    ContinuousScheme,
    LatticeScheme,
    _spectra_blocks,
    _translation_power,
    amalgam_spec,
    kato_norm,
    translation_shifts,
)
from .sobolev import h_norm
from .weights import MultiOrder, weight_l1_norm

__all__ = [
    "Symbol",
    "make_symbol",
    "self_dual_period",
    "OperatorMatrix",
    "operator_from_matrix",
    "quantize",
    "schatten_norm",
    "symbol_l2_norm",
    "hs_identity_gap",
    "sw_norm",
    "sw_embedding_check",
    "SwEmbeddingReport",
    "dilation_ratio_check",
    "DilationReport",
    "GridIsometry",
    "isometry_from_matrix",
    "all_isometries",
    "apply_isometry",
    "apply_radial_multiplier",
    "coordinate_change_check",
    "CoordinateChangeReport",
    "schatten_bound_check",
    "SchattenBoundReport",
    "tau_sweep_check",
    "TauSweepReport",
]


def self_dual_period(samples_per_axis: int) -> float:
    """Period for which the frequency grid equals the coordinate grid."""
    return math.sqrt(2.0 * math.pi * samples_per_axis)


@dataclass(frozen=True, eq=False)
class Symbol:
    """Field on a doubled grid with the block partition used for its norms."""

    field: Field
    space_dim: int
    order: MultiOrder

    def __post_init__(self) -> None:
        spec = self.field.spec
        if spec.dim != 2 * self.space_dim:
            raise ShapeError(
                f"symbol grid must have 2*{self.space_dim} axes, got {spec.dim}"
            )
        if self.order.blocks != spec.blocks:
            raise ShapeError("symbol order blocks must match the grid blocks")

    @property
    def spec(self) -> GridSpec:
        return self.field.spec


def make_symbol(field: Field, space_dim: int, order: MultiOrder) -> Symbol:
    return Symbol(field, space_dim, order)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense kernel matrix of a quantized symbol, with cached singular values.

    Entries are write-protected; build a new object instead of mutating.
    A caller's writeable entries array is copied, so it stays writeable; a
    read-only one is kept as it is.
    """

    entries: np.ndarray
    tau: np.ndarray
    space_dim: int
    samples_per_axis: int
    period: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.complex128)
        size = self.samples_per_axis**self.space_dim
        if arr.shape != (size, size):
            raise ShapeError(f"entries must be {size} x {size}, got {arr.shape}")
        if arr is self.entries and arr.flags.writeable:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        tau = _tau_matrix(self.tau, self.space_dim)
        tau.setflags(write=False)
        object.__setattr__(self, "tau", tau)

    @functools.cached_property
    def _singular_values(self) -> np.ndarray:
        sv = np.linalg.svd(self.entries, compute_uv=False)
        sv.setflags(write=False)
        return sv

    def singular_values(self) -> np.ndarray:
        return self._singular_values


def operator_from_matrix(
    entries: np.ndarray, tau: np.ndarray | float, space_dim: int, samples_per_axis: int, period: float
) -> OperatorMatrix:
    return OperatorMatrix(entries, tau, space_dim, samples_per_axis, period)


def _tau_matrix(tau: np.ndarray | float, n: int) -> np.ndarray:
    """A validated copy of tau as an n x n matrix (a scalar times the identity)."""
    arr = np.array(tau, dtype=float)
    if arr.ndim == 0:
        arr = float(arr) * np.eye(n)
    if arr.shape != (n, n):
        raise ShapeError(f"tau must be a scalar or {n} x {n} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise HypothesisError("tau must be finite")
    return arr


def quantize(symbol: Symbol, tau: np.ndarray | float) -> OperatorMatrix:
    """Kernel matrix of the tau-quantized symbol.

    Three FFT passes whose normalizations cancel: transform the x-block,
    resolve the xi-block into torus differences, twist by the unimodular
    interpolation phase exp(-i <omega_m, tau ztilde_d>), transform back,
    and gather rows along centered differences.  Raises NonFiniteError when
    a symbol sample is NaN or infinite.
    """
    require_finite(symbol.field.samples, "symbol")
    n = symbol.space_dim
    spec = symbol.spec
    num = spec.samples_per_axis
    tau_mat = _tau_matrix(tau, n)
    x_axes = tuple(range(n))
    xi_axes = tuple(range(n, 2 * n))
    # at most two arrays of the symbol's size: the stage, transformed in place,
    # and the twist or the gathered entries
    stage = np.fft.fftn(symbol.field.samples, axes=x_axes)
    np.fft.ifftn(stage, axes=xi_axes, out=stage)
    np.multiply(stage, _twist(tau_mat, num), out=stage)
    np.fft.ifftn(stage, axes=x_axes, out=stage)
    # entry (i, j) of the kernel is stage[i, (i - j) mod N]: gather it through
    # broadcast index vectors, rows i on axes 0..n-1 and columns j on n..2n-1
    index = [_along(np.arange(num), 2 * n, a) for a in range(n)]
    index += [(index[a] - _along(np.arange(num), 2 * n, n + a)) % num for a in range(n)]
    entries = stage[tuple(index)].reshape(num**n, num**n)
    # read-only before it is handed over, so the operator keeps it uncopied
    entries.setflags(write=False)
    return OperatorMatrix(entries, tau_mat, n, num, spec.period)


def _twist(tau_mat: np.ndarray, num: int) -> np.ndarray:
    """exp(-2 pi i <m, tau d> / N) at x-index m and xi-index d, both centered,
    built in one complex buffer (the phase has a zero imaginary part)."""
    n = tau_mat.shape[0]
    centered = ((np.arange(num) + num // 2) % num) - num // 2
    twist = np.zeros((num,) * (2 * n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            t = tau_mat[a, b]
            if t == 0.0:
                continue
            twist += t * (_along(centered, 2 * n, a) * _along(centered, 2 * n, n + b))
    np.multiply(-2j * math.pi / num, twist, out=twist)
    return np.exp(twist, out=twist)


def schatten_norm(op: OperatorMatrix, p: float) -> float:
    """(sum sigma_i^p)^{1/p}; p = infinity gives the operator norm.

    The uniform quadrature weight (L/N)^n is already folded into the
    kernel matrix, so plain singular values match the continuum scale.
    """
    if not (p >= 1.0):
        raise HypothesisError(f"Schatten exponent must satisfy p >= 1, got {p}")
    sv = op.singular_values()
    if math.isinf(p):
        return float(sv[0]) if sv.size else 0.0
    return float(np.sum(sv**p) ** (1.0 / p))


def symbol_l2_norm(symbol: Symbol) -> float:
    """L^2 norm with the mixed cell measure (L/N)^n (2 pi / L)^n.  Raises
    NonFiniteError when a symbol sample is NaN or infinite."""
    require_finite(symbol.field.samples, "symbol")
    spec = symbol.spec
    n = symbol.space_dim
    cell = (spec.period / spec.samples_per_axis) ** n * (2.0 * math.pi / spec.period) ** n
    return float(math.sqrt(cell * float(np.sum(np.abs(symbol.field.samples) ** 2))))


def hs_identity_gap(symbol: Symbol, tau: np.ndarray | float) -> float:
    """Relative gap in schatten_norm(.,2) = (2 pi)^{-n/2} ||a||_{L^2}."""
    lhs = schatten_norm(quantize(symbol, tau), 2.0)
    rhs = (2.0 * math.pi) ** (-symbol.space_dim / 2.0) * symbol_l2_norm(symbol)
    return abs(lhs - rhs) / max(rhs, 1e-300)


# ---------------------------------------------------------------------------
# modulation norm and embedding


def sw_norm(u: Field, p: float, window: Window, points_per_axis: int | None = None) -> float:
    """L^1-in-frequency of the ell^p-in-translation windowed spectra.

    For each frequency the magnitudes L^n |c_k(u tau_y chi)| are aggregated
    over the translation grid in ell^p (max for p = infinity), then summed
    over frequencies with the dual cell weight (2 pi / L)^n.  At p = 2 on
    the full translation grid the profile is (wt L^{2n} P_k)^{1/2} with the
    translation power spectrum P of `kato._translation_power`,
    O(N^n log N); every other case transforms the G translates.
    """
    if not (p >= 1.0):
        raise HypothesisError(f"p must satisfy p >= 1, got {p}")
    require_finite(u.samples, "field")
    require_finite(window.field.samples, "window")
    spec = u.spec
    shifts, wt = translation_shifts(spec, ContinuousScheme(points_per_axis))
    if p == 2.0 and shifts.shape[0] == spec.num_points:
        profile = spec.period ** (2 * spec.dim) * _translation_power(u, window)
    else:
        profile = np.zeros(spec.shape)
        for coeffs in _spectra_blocks(u, window, shifts):
            mags = (spec.period**spec.dim) * np.abs(coeffs)
            if math.isinf(p):
                np.maximum(profile, np.max(mags, axis=0), out=profile)
            else:
                # row by row, in shift order: the same sums as one reduction over all shifts
                for row in mags**p:
                    profile += row
    if not math.isinf(p):
        profile = (wt * profile) ** (1.0 / p)
    return float((2.0 * math.pi / spec.period) ** spec.dim * np.sum(profile))


@dataclass(frozen=True)
class SwEmbeddingReport:
    ratios: tuple[float, ...]
    max_ratio: float
    reference_product: float


def sw_embedding_check(
    fields: Sequence[Field],
    order: MultiOrder,
    p: float,
    chi: Window,
    chi_tilde: Window,
    points_per_axis: int | None = None,
) -> SwEmbeddingReport:
    """Modulation norm against the windowed Sobolev majorant.

    Ratios ||u||_{S_w^p,chi} / (||chi||_{H^s} ||<<.>>^{-s}||_{L^1}
    ||u||_{s,p,chi~}) over an ensemble; requires s_l > n_l per block so the
    weight is integrable, and chi~ = 1 on supp chi.
    """
    if not fields:
        raise HypothesisError("fields must hold at least one field")
    spec = fields[0].spec
    if order.blocks != spec.blocks:
        raise ShapeError("order blocks must match the grid blocks")
    for s_l, n_l in zip(order.s, order.blocks):
        if not s_l > n_l:
            raise HypothesisError(
                f"embedding requires s > block dimension per block; got s={s_l} on a "
                f"{n_l}-dimensional block"
            )
    cover_gap = float(np.max(np.abs(chi.field.samples * (1.0 - chi_tilde.field.samples))))
    if cover_gap > 1e-12:
        raise HypothesisError("chi~ must equal 1 on the support of chi")
    weight_integral = 1.0
    for s_l, n_l in zip(order.s, order.blocks):
        weight_integral *= weight_l1_norm(s_l / 2.0, n_l)
    chi_norm = h_norm(chi.field, order)
    scheme = ContinuousScheme(points_per_axis)
    ratios = []
    for u in fields:
        num = sw_norm(u, p, chi, points_per_axis)
        den = chi_norm * weight_integral * kato_norm(u, amalgam_spec(order, p, chi_tilde, scheme))
        ratios.append(num / max(den, 1e-300))
    return SwEmbeddingReport(tuple(ratios), max(ratios), chi_norm * weight_integral)


@dataclass(frozen=True)
class DilationReport:
    factor: int
    ratios_volume_exponent: tuple[float, ...]
    ratios_root_exponent: tuple[float, ...]
    max_volume: float
    max_root: float
    identity_ratio: float


def dilation_ratio_check(
    fields: Sequence[Field],
    p: float,
    chi: Window,
    factor: int = 2,
    points_per_axis: int | None = None,
) -> DilationReport:
    """Modulation norms under the grid dilation x -> factor x.

    The stretched field (u o lambda)[m] = u[(factor m) mod N] is exact on
    the sample lattice.  Ratios are recorded against both candidate
    prefactors |det lambda|^{-n/p} (1+||lambda||)^n and
    |det lambda|^{-1/p} (1+||lambda||)^n without preferring either.
    """
    if not isinstance(factor, (int, np.integer)):
        raise HypothesisError(f"dilation factor must be an integer, got {factor!r}")
    if factor < 1:
        raise HypothesisError(f"dilation factor must be >= 1, got {factor}")
    if not fields:
        raise HypothesisError("fields must hold at least one field")
    if not (p >= 1.0):
        raise HypothesisError(f"p must satisfy p >= 1, got {p}")
    spec = fields[0].spec
    n = spec.dim
    det = float(factor**n)
    norm_lam = float(factor)
    # at p = inf both exponents are -0.0, and det ** -0.0 is exactly 1
    bound_volume = det ** (-n / p) * (1.0 + norm_lam) ** n
    bound_root = det ** (-1.0 / p) * (1.0 + norm_lam) ** n
    idx = np.arange(spec.samples_per_axis)
    vol_ratios = []
    root_ratios = []
    for u in fields:
        stretched = u.samples
        for axis in range(n):
            stretched = np.take(stretched, (factor * idx) % spec.samples_per_axis, axis=axis)
        num = sw_norm(Field(spec, stretched), p, chi, points_per_axis)
        den = sw_norm(u, p, chi, points_per_axis)
        vol_ratios.append(num / max(bound_volume * den, 1e-300))
        root_ratios.append(num / max(bound_root * den, 1e-300))
    identity_ratio = 1.0 / 2.0**n
    return DilationReport(
        factor=factor,
        ratios_volume_exponent=tuple(vol_ratios),
        ratios_root_exponent=tuple(root_ratios),
        max_volume=max(vol_ratios),
        max_root=max(root_ratios),
        identity_ratio=identity_ratio,
    )


# ---------------------------------------------------------------------------
# grid isometries and coordinate changes


@dataclass(frozen=True)
class GridIsometry:
    """Signed axis permutation x_j -> signs[j] * x_{perm[j]}."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise HypothesisError(f"perm {self.perm} is not a permutation")
        if len(self.signs) != n or any(s not in (-1, 1) for s in self.signs):
            raise HypothesisError(f"signs {self.signs} must be +-1 per axis")

    @property
    def dim(self) -> int:
        return len(self.perm)

    def matrix(self) -> np.ndarray:
        n = self.dim
        mat = np.zeros((n, n))
        for j in range(n):
            mat[j, self.perm[j]] = self.signs[j]
        return mat


def isometry_from_matrix(mat: np.ndarray) -> GridIsometry:
    """Classify a matrix as a signed permutation, or refuse.

    General rotations would need resampling off the lattice, which is out
    of scope for an exactness check.
    """
    arr = np.asarray(mat, dtype=float)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise ShapeError("isometry matrix must be square")
    perm = []
    signs = []
    for j in range(n):
        nz = np.nonzero(np.abs(arr[j]) > 1e-12)[0]
        if nz.size != 1 or abs(abs(arr[j, nz[0]]) - 1.0) > 1e-12:
            raise HypothesisError(
                "matrix is not a signed axis permutation; general rotations are not "
                "grid-preserving and are refused"
            )
        perm.append(int(nz[0]))
        signs.append(1 if arr[j, nz[0]] > 0 else -1)
    return GridIsometry(tuple(perm), tuple(signs))


def all_isometries(dim: int) -> list[GridIsometry]:
    """Every signed axis permutation in the given dimension."""
    out = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            out.append(GridIsometry(perm, signs))
    return out


def apply_isometry(u: Field, iso: GridIsometry) -> Field:
    """(u o lambda)[m] = u[lambda m], exact index gather."""
    spec = u.spec
    if iso.dim != spec.dim:
        raise ShapeError("isometry dimension must match the grid")
    num = spec.samples_per_axis
    mesh = np.meshgrid(*([np.arange(num)] * spec.dim), indexing="ij")
    target = tuple((iso.signs[j] * mesh[iso.perm[j]]) % num for j in range(spec.dim))
    return Field(spec, u.samples[target])


def apply_radial_multiplier(u: Field, b: Callable[[np.ndarray], np.ndarray]) -> Field:
    """b(|D|^2) u: multiply the spectrum by b(|xi_k|^2)."""
    xi = frequency_mesh(u.spec)
    mult = np.asarray(b(np.sum(np.asarray(xi) ** 2, axis=0)), dtype=np.complex128)
    return from_spectrum(u.spec, mult * to_spectrum(u))


@dataclass(frozen=True)
class CoordinateChangeReport:
    sup_err: float
    passed: bool


def coordinate_change_check(
    u: Field,
    b: Callable[[np.ndarray], np.ndarray],
    iso: GridIsometry,
    tol: float = 1e-11,
) -> CoordinateChangeReport:
    """b(|D|^2)(u o lambda) = (b(|D|^2) u) o lambda for lattice isometries."""
    left = apply_radial_multiplier(apply_isometry(u, iso), b)
    right = apply_isometry(apply_radial_multiplier(u, b), iso)
    err = float(np.max(np.abs(left.samples - right.samples)))
    scale = max(float(np.max(np.abs(u.samples))), 1e-300)
    return CoordinateChangeReport(err, err <= tol * max(scale, 1.0))


# ---------------------------------------------------------------------------
# Schatten bound ensembles


@dataclass(frozen=True)
class SchattenBoundReport:
    ratios: tuple[float, ...]
    max_ratio: float
    p: float


def schatten_bound_check(
    symbols: Sequence[Symbol],
    p: float,
    tau: np.ndarray | float,
    window: Window,
    scheme: ContinuousScheme | LatticeScheme | None = None,
) -> SchattenBoundReport:
    """Ratios ||Op_tau(a)||_{B_p} / ||a||_{K_{p,V}^s} over a symbol ensemble.

    Requires s_l > dim V_l on every block (the boundedness hypothesis);
    violating orders are refused rather than measured.
    """
    if not symbols:
        raise HypothesisError("symbols must hold at least one symbol")
    ratios = []
    for sym in symbols:
        for s_l, n_l in zip(sym.order.s, sym.order.blocks):
            if not s_l > n_l:
                raise HypothesisError(
                    f"Schatten bound requested outside its hypothesis: order {sym.order.s} "
                    f"on blocks {sym.order.blocks} needs s > dim per block"
                )
        num = schatten_norm(quantize(sym, tau), p)
        den = kato_norm(sym.field, amalgam_spec(sym.order, p, window, scheme))
        ratios.append(num / max(den, 1e-300))
    return SchattenBoundReport(tuple(ratios), max(ratios), float(p))


@dataclass(frozen=True)
class TauSweepReport:
    taus: tuple[float, ...]
    gaps_from_first: tuple[float, ...]
    monotone_ok: bool


_TAU_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)
_SWEEP_SLACK = 0.10


def tau_sweep_check(symbol: Symbol, p: float) -> TauSweepReport:
    """Continuity probe of tau -> Op_tau(a) along the scalar sweep _TAU_SWEEP.

    The Schatten-p distance from the first sweep point should grow with
    |tau - tau_0| (non-strict, multiplicative slack): smaller steps give
    smaller moves.
    """
    ops = [quantize(symbol, t) for t in _TAU_SWEEP]
    base = ops[0]
    gaps = []
    for op in ops:
        diff = operator_from_matrix(
            op.entries - base.entries, base.tau, symbol.space_dim,
            symbol.spec.samples_per_axis, symbol.spec.period,
        )
        gaps.append(schatten_norm(diff, p))
    scale = max(max(gaps), 1e-300)
    mono = all(
        gaps[i + 1] >= gaps[i] * (1.0 - _SWEEP_SLACK) - _SWEEP_SLACK * scale
        for i in range(len(gaps) - 1)
    )
    return TauSweepReport(_TAU_SWEEP, tuple(gaps), mono)
