"""Deterministic field and symbol ensembles for the verification suites.

Every ensemble member is a fixed object (a finite set of Fourier
coefficients, or an absolutely-positioned bump sum) that can be realized
on any sufficiently fine grid.  Realizing the same member at two
resolutions samples the same function, which is what makes the
cross-resolution stability checks meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, ResolutionError
from .grid import Field, GridSpec, _along, coordinate_axes
from .psido import Symbol
from .weights import MultiOrder

__all__ = [
    "SpectralSample",
    "sample_band_limited",
    "critical_sample",
    "spectral_ensemble",
    "critical_ensemble",
    "realize_ensemble",
    "positive_field",
    "modulated_gaussian_values",
    "symbol_family",
]


@dataclass(frozen=True, eq=False)
class SpectralSample:
    """A trigonometric polynomial given by its centered coefficient cube."""

    kmax: int
    coeffs: np.ndarray  # shape (2 kmax + 1,) * dim

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    def realize(self, spec: GridSpec) -> Field:
        """Sample the polynomial on a grid (needs N >= 2 kmax + 2)."""
        if spec.dim != self.dim:
            raise HypothesisError(f"sample has {self.dim} axes, grid has {spec.dim}")
        n_samp = spec.samples_per_axis
        if n_samp < 2 * self.kmax + 2:
            raise ResolutionError(
                f"grid with {n_samp} samples per axis cannot carry modes up to {self.kmax}"
            )
        grid_coeffs = np.zeros(spec.shape, dtype=np.complex128)
        idx = [np.arange(-self.kmax, self.kmax + 1) % n_samp] * self.dim
        grid_coeffs[np.ix_(*idx)] = self.coeffs
        return Field(spec, np.fft.ifftn(grid_coeffs) * spec.num_points)


def _centered_norms(kmax: int, dim: int) -> np.ndarray:
    axes = np.meshgrid(*([np.arange(-kmax, kmax + 1)] * dim), indexing="ij")
    return np.sqrt(sum(np.asarray(a, dtype=float) ** 2 for a in axes))


def sample_band_limited(
    rng: np.random.Generator, dim: int, kmax: int = 10, decay: float = 1.5
) -> SpectralSample:
    """Random coefficients with polynomial decay, scaled to unit l^1 mass.

    The l^1 scaling bounds the sup norm by 1 on every grid, keeping
    ensemble members comparable across resolutions.
    """
    if kmax < 1:
        raise HypothesisError(f"kmax must be >= 1, got {kmax}")
    shape = (2 * kmax + 1,) * dim
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coeffs /= (1.0 + _centered_norms(kmax, dim)) ** decay
    mass = float(np.sum(np.abs(coeffs)))
    return SpectralSample(kmax, coeffs / mass)


def critical_sample(
    rng: np.random.Generator, dim: int, kmax: int, s: float, delta: float = 0.05
) -> SpectralSample:
    """Random phases with |c_k| = <k>^{-(s + dim/2 + delta)}.

    Lies in H^s with barely-summable margin delta, so smoothing-error decay
    rates are realized at their stated exponents instead of saturating.
    """
    if kmax < 1:
        raise HypothesisError(f"kmax must be >= 1, got {kmax}")
    shape = (2 * kmax + 1,) * dim
    mags = (1.0 + _centered_norms(kmax, dim) ** 2) ** (-(s + dim / 2.0 + delta) / 2.0)
    phases = np.exp(2j * math.pi * rng.uniform(size=shape))
    coeffs = mags * phases
    mass = float(np.sum(np.abs(coeffs)))
    return SpectralSample(kmax, coeffs / mass)


def spectral_ensemble(seed: int, count: int, dim: int, kmax: int = 10) -> list[SpectralSample]:
    streams = np.random.SeedSequence(seed).spawn(count)
    return [sample_band_limited(np.random.default_rng(ss), dim, kmax) for ss in streams]


def critical_ensemble(
    seed: int, count: int, dim: int, kmax: int, s: float, delta: float = 0.05
) -> list[SpectralSample]:
    streams = np.random.SeedSequence(seed).spawn(count)
    return [critical_sample(np.random.default_rng(ss), dim, kmax, s, delta) for ss in streams]


def realize_ensemble(samples: list[SpectralSample], spec: GridSpec) -> list[Field]:
    return [s.realize(spec) for s in samples]


def positive_field(spec: GridSpec, seed: int, kmax: int = 8) -> Field:
    """Smooth real field bounded below by 1."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sample = sample_band_limited(rng, spec.dim, kmax, decay=1.8)
    vals = sample.realize(spec).samples
    return Field(spec, 2.0 + np.real(vals))


def modulated_gaussian_values(
    spec: GridSpec,
    rng: np.random.Generator,
    center_box: tuple[float, float] = (1.0, 9.0),
    width_range: tuple[float, float] = (0.8, 1.5),
) -> np.ndarray:
    """Sum of two periodized modulated Gaussian bumps at absolute positions.

    Positions, widths and modulation frequencies are drawn once; the values
    are evaluated through wrapped displacements, so the same draw defines
    the same periodic function on any grid with the same period.
    """
    coords = [np.asarray(c) for c in coordinate_axes(spec)]
    total = np.zeros(spec.shape, dtype=np.complex128)
    for _ in range(2):
        amp = rng.uniform(0.5, 1.0)
        centers = rng.uniform(center_box[0], center_box[1], size=spec.dim)
        widths = rng.uniform(width_range[0], width_range[1], size=spec.dim)
        omega = rng.uniform(-1.5, 1.5, size=spec.dim)
        bump = np.ones(spec.shape, dtype=np.complex128)
        for axis in range(spec.dim):
            disp = np.mod(coords[axis] - centers[axis] + 0.5 * spec.period, spec.period) - 0.5 * spec.period
            vals = np.exp(-(disp**2) / (2.0 * widths[axis] ** 2) + 1j * omega[axis] * disp)
            bump = bump * _along(vals, spec.dim, axis)
        total = total + amp * bump
    return total


def symbol_family(
    name: str,
    spec: GridSpec,
    space_dim: int,
    order: MultiOrder,
    seed: int,
    count: int,
    center_box: tuple[float, float] = (1.0, 9.0),
    width_range: tuple[float, float] = (0.8, 1.5),
) -> list[Symbol]:
    """Named symbol ensembles: "gaussian", "separable", "random".

    Gaussians are absolutely positioned (resolution-independent up to their
    spectral tails); the other families are exact trigonometric polynomials.
    `center_box` and `width_range` tune the gaussian family only, e.g. to
    keep the bumps inside the smallest torus of a resolution sweep.
    """
    streams = np.random.SeedSequence(seed).spawn(count)
    out: list[Symbol] = []
    key = name.strip().lower()
    for ss in streams:
        rng = np.random.default_rng(ss)
        if key == "gaussian":
            vals = modulated_gaussian_values(spec, rng, center_box=center_box, width_range=width_range)
            out.append(Symbol(Field(spec, vals), space_dim, order))
        elif key == "separable":
            fx = sample_band_limited(rng, space_dim, kmax=3, decay=1.5)
            gx = sample_band_limited(rng, space_dim, kmax=3, decay=1.5)
            sub = GridSpec(space_dim, spec.samples_per_axis, spec.period, (space_dim,))
            f_vals = fx.realize(sub).samples
            g_vals = gx.realize(sub).samples
            n_ax = spec.dim
            vals = f_vals.reshape(f_vals.shape + (1,) * space_dim) * g_vals.reshape(
                (1,) * space_dim + g_vals.shape
            )
            assert vals.ndim == n_ax
            out.append(Symbol(Field(spec, vals), space_dim, order))
        elif key == "random":
            sample = sample_band_limited(rng, spec.dim, kmax=4, decay=1.2)
            out.append(Symbol(sample.realize(spec), space_dim, order))
        else:
            raise HypothesisError(
                f"unknown symbol family {name!r}; expected gaussian, separable or random"
            )
    return out
