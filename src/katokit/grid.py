"""Periodized grids, complex fields, spectral primitives, bumps and mollifiers.

The computational domain is the torus [0, L)^n sampled uniformly at
x_m = (L/N) m with m in {0..N-1}^n.  Spectra are Fourier-series
coefficients

    c_k = N^{-n} sum_m u(x_m) exp(-i <x_m, xi_k>),

attached to the frequency lattice xi_k = (2 pi / L) k with
-N/2 <= k_i < N/2, stored in FFT index order.  The discrete Parseval
identity (L/N)^n sum_m |u(x_m)|^2 = L^n sum_k |c_k|^2 holds exactly,
so the discrete L^2 norm used throughout is the quadrature rule
((L/N)^n sum |u|^2)^{1/2}.

Compactly supported objects (bumps, mollifier kernels) must fit strictly
inside one period so that torus sums reproduce their whole-space
counterparts.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FieldFormatError, GridError, NonFiniteError, ResolutionError, ShapeError

__all__ = [
    "DEFAULT_PERIOD",
    "MOLLIFIER_RADIUS",
    "GridSpec",
    "Field",
    "Window",
    "Mollifier",
    "make_grid",
    "coordinate_axes",
    "frequency_axes",
    "frequency_mesh",
    "constant_field",
    "plane_wave",
    "field_from_values",
    "to_spectrum",
    "from_spectrum",
    "l2_norm",
    "sup_norm",
    "translate",
    "lattice_shifts",
    "translates",
    "tile_translates",
    "gather_translates",
    "require_finite",
    "pointwise_mul",
    "smooth_step",
    "make_bump",
    "window_from_factors",
    "window_from_samples",
    "make_mollifier",
    "mollifier_kernel",
    "rescaled",
    "min_resolvable_epsilon",
    "mollify",
    "save_field",
    "load_field",
]

DEFAULT_PERIOD = 2.0 * math.pi
MOLLIFIER_RADIUS = 1.0  # support radius of every mollifier kernel at epsilon 1

_MAGIC = b"FLD1"
_FORMAT_VERSION = 1
_MAX_DIM = 8
_MAX_POINTS = 1 << 27  # refuse to allocate absurd sample counts
_MIN_KERNEL_SAMPLES = 8


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: `dim` axes, `samples_per_axis` points each.

    `blocks` partitions the axes, in order, into contiguous groups; the
    group sizes drive the block weights used by the Sobolev machinery.
    """

    dim: int
    samples_per_axis: int
    period: float = DEFAULT_PERIOD
    blocks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.dim < 1 or self.dim > _MAX_DIM:
            raise GridError(f"dim must be in 1..{_MAX_DIM}, got {self.dim}")
        n = self.samples_per_axis
        if n < 2 or n % 2 != 0:
            raise GridError(f"samples_per_axis must be even and >= 2, got {n}")
        if not (self.period > 0.0) or not math.isfinite(self.period):
            raise GridError(f"period must be positive and finite, got {self.period}")
        if n**self.dim > _MAX_POINTS:
            raise GridError(f"grid with {n}^{self.dim} points exceeds the supported size")
        blocks = tuple(int(b) for b in self.blocks) or (self.dim,)
        object.__setattr__(self, "blocks", blocks)
        if any(b < 1 for b in blocks) or sum(blocks) != self.dim:
            raise GridError(f"blocks {blocks} must be positive and sum to dim={self.dim}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.samples_per_axis,) * self.dim

    @property
    def num_points(self) -> int:
        return self.samples_per_axis**self.dim

    @property
    def spacing(self) -> float:
        return self.period / self.samples_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim


def make_grid(
    dim: int,
    samples_per_axis: int,
    period: float = DEFAULT_PERIOD,
    blocks: Sequence[int] | None = None,
) -> GridSpec:
    """Validated constructor for :class:`GridSpec`."""
    return GridSpec(dim, samples_per_axis, period, tuple(blocks) if blocks else ())


@functools.lru_cache(maxsize=128)
def coordinate_axes(spec: GridSpec) -> tuple[np.ndarray, ...]:
    """Per-axis sample coordinates (L/N) m, read-only."""
    x = spec.spacing * np.arange(spec.samples_per_axis)
    x.flags.writeable = False
    return (x,) * spec.dim


@functools.lru_cache(maxsize=128)
def frequency_axes(spec: GridSpec) -> tuple[np.ndarray, ...]:
    """Per-axis frequencies (2 pi / L) k in FFT order, -N/2 <= k < N/2."""
    n = spec.samples_per_axis
    f = (2.0 * math.pi / spec.period) * np.fft.fftfreq(n, d=1.0 / n)
    f.flags.writeable = False
    return (f,) * spec.dim


@functools.lru_cache(maxsize=64)
def frequency_mesh(spec: GridSpec) -> np.ndarray:
    """Stacked frequency meshes, shape (dim, N, ..., N), read-only."""
    axes = frequency_axes(spec)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"))
    mesh.flags.writeable = False
    return mesh


@dataclass(frozen=True, eq=False)
class Field:
    """Complex samples on a :class:`GridSpec`."""

    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != self.spec.shape:
            raise ShapeError(f"samples shape {arr.shape} does not match grid shape {self.spec.shape}")
        object.__setattr__(self, "samples", arr)


def field_from_values(spec: GridSpec, values: np.ndarray) -> Field:
    return Field(spec, values)


def constant_field(spec: GridSpec, value: complex = 1.0) -> Field:
    return Field(spec, np.full(spec.shape, value, dtype=np.complex128))


def plane_wave(spec: GridSpec, k: Sequence[int] | int) -> Field:
    """exp(i <xi_k, x>) for an integer mode vector k."""
    kvec = np.atleast_1d(np.asarray(k, dtype=float))
    if kvec.shape != (spec.dim,):
        raise ShapeError(f"mode vector must have length {spec.dim}")
    coords = coordinate_axes(spec)
    phase = np.zeros(spec.shape, dtype=float)
    scale = 2.0 * math.pi / spec.period
    for axis in range(spec.dim):
        phase = phase + scale * kvec[axis] * _along(coords[axis], spec.dim, axis)
    return Field(spec, np.exp(1j * phase))


def _along(vec: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    """vec as an ndim-dimensional view that varies along `axis` only."""
    shape = [1] * ndim
    shape[axis] = vec.size
    return vec.reshape(shape)


def to_spectrum(field: Field) -> np.ndarray:
    """Fourier-series coefficients c_k in FFT order."""
    return np.fft.fftn(field.samples) / field.spec.num_points


def from_spectrum(spec: GridSpec, coeffs: np.ndarray) -> Field:
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != spec.shape:
        raise ShapeError(f"coefficient shape {coeffs.shape} does not match grid shape {spec.shape}")
    return Field(spec, np.fft.ifftn(coeffs) * spec.num_points)


def l2_norm(field: Field) -> float:
    """Discrete L^2 norm ((L/N)^n sum |u|^2)^{1/2}.  Raises NonFiniteError
    when a sample is NaN or infinite."""
    require_finite(field.samples, "field")
    return float(math.sqrt(field.spec.cell_volume * float(np.sum(np.abs(field.samples) ** 2))))


def require_finite(samples: np.ndarray, what: str) -> None:
    """Refuse NaN or infinite samples, naming how many there are and the first."""
    finite = np.isfinite(samples)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise NonFiniteError(f"{what}: {bad.size} non-finite sample(s), the first at flat index {bad[0]}")


def sup_norm(field: Field) -> float:
    """Largest |u| over the samples.  Raises NonFiniteError when a sample is
    NaN or infinite."""
    require_finite(field.samples, "field")
    return float(np.max(np.abs(field.samples)))


def _as_shift_vector(spec: GridSpec, y: Sequence[float] | float) -> np.ndarray:
    yvec = np.atleast_1d(np.asarray(y, dtype=float))
    if yvec.shape != (spec.dim,):
        raise ShapeError(f"translation vector must have length {spec.dim}")
    return np.mod(yvec, spec.period)


def translate(field: Field, y: Sequence[float] | float) -> Field:
    """Translate u to u(. - y).

    For y on the sample lattice this is an exact cyclic index shift;
    otherwise the shift acts by spectral modulation, which agrees with the
    lattice path to rounding error and composes as a group action.
    """
    spec = field.spec
    yvec = _as_shift_vector(spec, y)
    steps = yvec / spec.spacing
    rounded = np.rint(steps)
    if np.all(np.abs(steps - rounded) <= 1e-12):
        shifts = tuple(int(r) % spec.samples_per_axis for r in rounded)
        return Field(spec, np.roll(field.samples, shifts, axis=tuple(range(spec.dim))))
    mesh = frequency_mesh(spec)
    phase = np.tensordot(yvec, mesh, axes=(0, 0))
    return from_spectrum(spec, to_spectrum(field) * np.exp(-1j * phase))


def lattice_shifts(spec: GridSpec, per_axis: int) -> np.ndarray:
    """Index shifts (G, dim) of the sub-lattice with `per_axis` points per
    axis, in C order; `per_axis` must be a positive divisor of N."""
    n_samp = spec.samples_per_axis
    m = int(per_axis)
    if m != per_axis or m < 1 or n_samp % m != 0:
        raise ShapeError(f"{per_axis} lattice points per axis must be a positive divisor of {n_samp} samples per axis")
    grids = np.meshgrid(*([np.arange(m) * (n_samp // m)] * spec.dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _lattice_fold(samples: np.ndarray, per_axis: int) -> np.ndarray:
    """sum_gamma tau_gamma f over the `lattice_shifts` sub-lattice, on the one
    cell where it takes all its values, shape (N / per_axis,) * ndim: a
    reshape-sum of the cells of f.  `per_axis` must divide N."""
    cell = samples.shape[0] // per_axis
    blocks = samples.reshape((per_axis, cell) * samples.ndim)
    return blocks.sum(axis=tuple(range(0, 2 * samples.ndim, 2)))


def tile_translates(samples: np.ndarray) -> np.ndarray:
    """Every N^n window of `samples` tiled to (2N)^n, as a read-only view:
    the one array `gather_translates` takes the translates of `samples` from."""
    tiled = np.tile(samples, (2,) * samples.ndim)
    return sliding_window_view(tiled, samples.shape)


def gather_translates(tiled: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """tau_y samples for index shifts y, from `tiled = tile_translates(samples)`.

    Shifts of shape (G, dim) give a new (G, N, .., N) array; one shift of
    shape (dim,) gives a read-only view of a single translate.
    """
    n_samp = tiled.shape[-1]
    # tau_y u is the N^n window, starting at N - y, of u tiled to (2N)^n
    starts = (n_samp - np.asarray(shifts)) % n_samp
    return tiled[tuple(starts.T)]


def translates(samples: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """tau_y samples = np.roll(samples, y) for index shifts y.  One shift of
    shape (dim,) is rolled into a new array; shifts of shape (G, dim) are
    gathered from one (2N)^n tile (see `gather_translates`)."""
    shifts = np.asarray(shifts)
    if shifts.ndim == 1:
        return np.roll(samples, tuple(shifts.tolist()), axis=tuple(range(samples.ndim)))
    return gather_translates(tile_translates(samples), shifts)


def pointwise_mul(f: Field, g: Field) -> Field:
    if f.spec != g.spec:
        raise ShapeError("pointwise product requires identical grids")
    return Field(f.spec, f.samples * g.samples)


# ---------------------------------------------------------------------------
# smooth bumps


def smooth_step(t: np.ndarray | float) -> np.ndarray:
    """C^infinity step: exactly 0 for t <= 0, exactly 1 for t >= 1.

    Built from psi(t) = exp(-1/t) as psi(t) / (psi(t) + psi(1-t)).
    """
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(tc > 0.0, np.exp(-1.0 / np.maximum(tc, 1e-300)), 0.0)
        b = np.where(tc < 1.0, np.exp(-1.0 / np.maximum(1.0 - tc, 1e-300)), 0.0)
    return a / (a + b)


def _canonical_profile(t: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1-t^2)) on |t| < 1, exactly 0 outside; peak value 1."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    tsq = np.where(inside, t * t, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.exp(1.0 - 1.0 / (1.0 - tsq))
    out[inside] = vals[inside]
    return out


def axis_bump_values(
    x: np.ndarray,
    lo: float,
    hi: float,
    plateau: tuple[float, float] | None = None,
) -> np.ndarray:
    """One-axis bump profile on (lo, hi), optionally 1 on the plateau."""
    x = np.asarray(x, dtype=float)
    if plateau is None:
        return _canonical_profile((2.0 * x - lo - hi) / (hi - lo))
    plo, phi = plateau
    rise = smooth_step((x - lo) / (plo - lo))
    fall = smooth_step((hi - x) / (hi - phi))
    vals = rise * fall
    return np.where((x > lo) & (x < hi), vals, 0.0)


@dataclass(frozen=True, eq=False)
class Window:
    """Compactly supported smooth cutoff stored as a field.

    `axis_factors` are set only by `window_from_factors`: the real per-axis
    profiles f_a whose product f_0(x_0) ... f_{n-1}(x_{n-1}) formed the
    samples, so windowed spectra can transform in two stages.  A window
    made from its samples has none.
    """

    field: Field
    axis_factors: tuple[np.ndarray, ...] | None = dataclasses.field(default=None, init=False)

    @property
    def spec(self) -> GridSpec:
        return self.field.spec

    @functools.cached_property
    def factor_tiles(self) -> tuple[np.ndarray, ...]:
        """`tile_translates` of each axis factor, held complex: a product of
        two complex arrays is quicker than a mixed one and rounds to the same
        bits.  A window without factors, or with one (1-D), is one factor
        over every axis: its samples are tiled, as their real part when the
        imaginary part is identically zero (half the bytes to gather, and a
        product with a complex field that rounds to the same bits).  The
        samples must not be written after its first use."""
        if self.axis_factors is None or len(self.axis_factors) == 1:
            samples = self.field.samples
            return (tile_translates(samples if np.any(samples.imag) else samples.real),)
        return tuple(tile_translates(f.astype(np.complex128)) for f in self.axis_factors)


def _outer_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    """f_0(x_0) f_1(x_1) ... f_{n-1}(x_{n-1}), multiplied in from the first axis."""
    dim = len(factors)
    samples = np.ones((factors[0].size,) * dim, dtype=float)
    for axis, vals in enumerate(factors):
        samples = samples * _along(vals, dim, axis)
    return samples


def make_bump(
    spec: GridSpec,
    support_box: Sequence[tuple[float, float]],
    plateau_box: Sequence[tuple[float, float]] | None = None,
) -> Window:
    """Tensor-product bump supported strictly inside the fundamental cell.

    Without a plateau the per-axis profile is the canonical bump
    exp(1 - 1/(1-t^2)); with one, a smooth-step rise/fall that is exactly 1
    on the plateau box.  Samples vanish exactly outside the support box.
    The per-axis profiles are kept as the window's `axis_factors`.
    """
    support = tuple((float(lo), float(hi)) for lo, hi in support_box)
    if len(support) != spec.dim:
        raise ShapeError(f"need {spec.dim} support intervals, got {len(support)}")
    for lo, hi in support:
        if not (0.0 < lo < hi < spec.period):
            raise GridError(f"support interval ({lo}, {hi}) must lie strictly inside (0, {spec.period})")
    plateaus: tuple[tuple[float, float], ...] | None = None
    if plateau_box is not None:
        plateaus = tuple((float(a), float(b)) for a, b in plateau_box)
        if len(plateaus) != spec.dim:
            raise ShapeError("plateau_box must list one interval per axis")
        for (lo, hi), (plo, phi) in zip(support, plateaus):
            if not (lo < plo <= phi < hi):
                raise GridError(f"plateau ({plo}, {phi}) must nest strictly inside support ({lo}, {hi})")

    coords = coordinate_axes(spec)
    factors = tuple(
        axis_bump_values(coords[axis], lo, hi, plateaus[axis] if plateaus is not None else None)
        for axis, (lo, hi) in enumerate(support)
    )
    return window_from_factors(spec, factors)


def window_from_factors(spec: GridSpec, factors: Sequence[np.ndarray]) -> Window:
    """The tensor-product window f_0(x_0) ... f_{n-1}(x_{n-1}) of real
    per-axis profiles, which it keeps, as read-only copies, as its
    `axis_factors`: the samples are formed from them, so they match."""
    factors = tuple(np.array(f, dtype=float) for f in factors)
    if len(factors) != spec.dim or any(f.shape != (spec.samples_per_axis,) for f in factors):
        raise ShapeError(f"axis_factors must be {spec.dim} profiles of {spec.samples_per_axis} samples")
    for f in factors:
        f.flags.writeable = False
    window = Window(Field(spec, _outer_product(factors)))
    object.__setattr__(window, "axis_factors", factors)
    return window


def window_from_samples(field: Field) -> Window:
    """Wrap precomputed samples (squared cutoffs) as a Window without factors.
    Raises NonFiniteError when a sample is NaN or infinite."""
    require_finite(field.samples, "window")
    return Window(field)


# ---------------------------------------------------------------------------
# mollifiers


@dataclass(frozen=True, eq=False)
class Mollifier:
    """Radial smooth kernel of unit discrete mass, support radius epsilon * MOLLIFIER_RADIUS.

    `epsilon` lies in (0, 1]; the support must span at least
    _MIN_KERNEL_SAMPLES samples (ResolutionError otherwise) and fit in half
    a period.  The kernel is evaluated analytically by `mollifier_kernel`
    and renormalized so its discrete integral is exactly 1.
    """

    spec: GridSpec
    epsilon: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= 1.0):
            raise GridError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.epsilon < min_resolvable_epsilon(self.spec):
            across = 2.0 * (self.epsilon * MOLLIFIER_RADIUS) / self.spec.spacing
            raise ResolutionError(
                f"mollifier support spans {across:.2f} samples, fewer than the "
                f"required {_MIN_KERNEL_SAMPLES}; increase epsilon or refine the grid"
            )


def make_mollifier(spec: GridSpec, epsilon: float = 1.0) -> Mollifier:
    return Mollifier(spec, float(epsilon))


def min_resolvable_epsilon(spec: GridSpec) -> float:
    """Smallest epsilon whose scaled kernel still covers enough samples;
    GridError when the kernel's radius does not fit below half the period."""
    if not MOLLIFIER_RADIUS < 0.5 * spec.period:
        raise GridError(f"the mollifier radius {MOLLIFIER_RADIUS:g} needs a period above {2 * MOLLIFIER_RADIUS:g}")
    return 0.5 * _MIN_KERNEL_SAMPLES * spec.spacing / MOLLIFIER_RADIUS


def rescaled(moll: Mollifier, epsilon: float) -> Mollifier:
    """Same kernel family at a different epsilon."""
    return make_mollifier(moll.spec, epsilon)


def mollifier_kernel(moll: Mollifier) -> Field:
    """Scaled kernel phi_eps = eps^{-n} phi(./eps), renormalized to mass 1
    (positive: the sample at 0 holds the kernel's peak, 1)."""
    spec = moll.spec
    half = 0.5 * spec.period
    # displacement from 0, reduced per axis to [-L/2, L/2)
    axes = [np.mod(c + half, spec.period) - half for c in coordinate_axes(spec)]
    disp = np.stack(np.meshgrid(*axes, indexing="ij"))
    vals = _canonical_profile(np.sqrt(np.sum(disp**2, axis=0)) / (moll.epsilon * MOLLIFIER_RADIUS))
    return Field(spec, vals / (spec.cell_volume * float(np.sum(vals))))


def mollify(field: Field, moll: Mollifier) -> Field:
    """Periodic convolution phi_eps * u computed spectrally.

    The coefficients multiply as c_k(phi * u) = L^n c_k(phi) c_k(u), which is
    identical to the quadrature sum (L/N)^n sum_m phi(x_m) u(. - x_m).
    Raises NonFiniteError when a sample is NaN or infinite, which the
    transform would otherwise spread over every sample.
    """
    if field.spec != moll.spec:
        raise ShapeError("field and mollifier must share a grid")
    require_finite(field.samples, "field")
    kern = mollifier_kernel(moll)
    ck = to_spectrum(kern) * (field.spec.period**field.spec.dim)
    return from_spectrum(field.spec, to_spectrum(field) * ck)


# ---------------------------------------------------------------------------
# binary field format
#
# Layout (little endian): magic "FLD1", u32 version, u32 dim, u32 N,
# f64 period, u32 j, j * u32 block sizes, then N^dim complex samples as
# (re, im) f64 pairs in row-major order with axis 0 slowest.


def save_field(field: Field, path: str | Path) -> None:
    spec = field.spec
    header = struct.pack("<4sIII", _MAGIC, _FORMAT_VERSION, spec.dim, spec.samples_per_axis)
    header += struct.pack("<d", spec.period)
    header += struct.pack("<I", len(spec.blocks))
    header += struct.pack(f"<{len(spec.blocks)}I", *spec.blocks)
    payload = np.ascontiguousarray(field.samples, dtype="<c16").tobytes()
    Path(path).write_bytes(header + payload)


def load_field(path: str | Path) -> Field:
    raw = Path(path).read_bytes()
    fixed = struct.calcsize("<4sIIIdI")
    if len(raw) < fixed:
        raise FieldFormatError(f"truncated header: {len(raw)} bytes, need at least {fixed}")
    magic, version, dim, n, period, j = struct.unpack_from("<4sIIIdI", raw, 0)
    if magic != _MAGIC:
        raise FieldFormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _FORMAT_VERSION:
        raise FieldFormatError(f"unsupported format version {version}")
    offset = fixed
    if len(raw) < offset + 4 * j:
        raise FieldFormatError("truncated header: block list incomplete")
    blocks = struct.unpack_from(f"<{j}I", raw, offset)
    offset += 4 * j
    try:
        spec = GridSpec(dim, n, period, blocks)
    except GridError as exc:
        raise FieldFormatError(f"header describes no grid: {exc}") from exc
    expected = 16 * spec.num_points
    if len(raw) - offset != expected:
        raise FieldFormatError(
            f"payload holds {len(raw) - offset} bytes, expected {expected} for {n}^{dim} complex samples"
        )
    samples = np.frombuffer(raw, dtype="<c16", count=spec.num_points, offset=offset)
    require_finite(samples, f"field file {path}")
    return Field(spec, samples.reshape(spec.shape).astype(np.complex128))
