"""Correctness oracles, each independent of the route katokit takes.

Every oracle returns the reference value for one timed operation; `miss`
turns a result and its reference into a relative error. An operation fails
when it raises, returns a non-finite value, or misses its reference by
more than the tolerance of its kind below. References are computed once per
run, after the timed phase.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerances, one per oracle kind.
TOLERANCES = {
    "amalgam": 1e-9,  # windowed norms against the convolution identity or a per-shift loop
    "partition": 1e-10,  # lattice periodization of the partition master bump against 1
    "schatten": 1e-9,  # Schatten norms against the HS identity or a Hermitian dilation
    "calculus": 1e-8,  # contour calculus against pointwise evaluation
}


def miss(value, reference) -> float:
    """Relative distance of a float or array result from its reference."""
    value = np.asarray(value)
    reference = np.asarray(reference)
    if value.shape != reference.shape or not np.all(np.isfinite(value)):
        return math.inf
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    return float(np.max(np.abs(value - reference))) / scale


# ---------------------------------------------------------------------------
# amalgam norms


def _weight_sq(spec, order) -> np.ndarray:
    """<<xi>>^{2s} on the FFT frequency lattice, built here from the grid."""
    n = spec.samples_per_axis
    freq = 2.0 * math.pi / spec.period * np.fft.fftfreq(n, d=1.0 / n)
    out = np.ones(spec.shape)
    axis = 0
    for size, s in zip(spec.blocks, order.s):
        block = np.zeros(spec.shape)
        for a in range(axis, axis + size):
            shape = [1] * spec.dim
            shape[a] = n
            block = block + (freq**2).reshape(shape)
        out = out * (1.0 + block) ** s
        axis += size
    return out


def full_grid_p2(u, window, order) -> float:
    """The p = 2 norm on the full translation grid, through the cyclic
    convolution identity sum_y |c_k(u tau_y chi)|^2 = N^n sum_j |u_{k-j}|^2 |chi_j|^2."""
    spec = u.spec
    npts = spec.num_points
    a = np.abs(np.fft.fftn(u.samples) / npts) ** 2
    b = np.abs(np.fft.fftn(window.field.samples) / npts) ** 2
    conv = np.real(np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b)))
    total = float(np.sum(_weight_sq(spec, order) * conv))
    return math.sqrt(spec.period ** (2 * spec.dim) * total)


def per_shift_norms(u, window_samples, order, stride: int) -> np.ndarray:
    """||roll(chi, y) u||_{H^s} for every index shift y on the stride lattice,
    one `h_norm` call per shift."""
    from katokit import grid, sobolev

    spec = u.spec
    axes = tuple(range(spec.dim))
    steps = range(0, spec.samples_per_axis, stride)
    out = []
    for shift in np.ndindex(*([len(steps)] * spec.dim)):
        rolled = np.roll(window_samples, tuple(i * stride for i in shift), axis=axes)
        out.append(sobolev.h_norm(grid.Field(spec, rolled * u.samples), order))
    return np.asarray(out)


def aggregate(norms: np.ndarray, p: float, weight: float) -> float:
    if math.isinf(p):
        return float(np.max(norms))
    return float((weight * np.sum(norms**p)) ** (1.0 / p))


def periodization(partition) -> np.ndarray:
    """sum_gamma tau_gamma h for the partition master bump h; exactly 1."""
    master = partition.master.field.samples.real
    stride = partition.spec.samples_per_axis // partition.cells_per_axis
    axes = tuple(range(partition.spec.dim))
    total = np.zeros_like(master)
    for gamma in np.ndindex(*([partition.cells_per_axis] * partition.spec.dim)):
        total += np.roll(master, tuple(g * stride for g in gamma), axis=axes)
    return total


# ---------------------------------------------------------------------------
# quantized operators


def hilbert_schmidt(symbol) -> float:
    """(2 pi)^{-n/2} ||a||_{L^2}, the Schatten 2-norm of every quantization."""
    spec = symbol.field.spec
    n = symbol.space_dim
    cell = (spec.period / spec.samples_per_axis) ** n * (2.0 * math.pi / spec.period) ** n
    l2 = math.sqrt(cell * float(np.sum(np.abs(symbol.field.samples) ** 2)))
    return (2.0 * math.pi) ** (-n / 2.0) * l2


def dilation_singular_values(entries: np.ndarray) -> np.ndarray:
    """Singular values as the nonnegative eigenvalues of [[0, A], [A^H, 0]]
    (Hermitian eigensolver, not the SVD)."""
    m = entries.shape[0]
    dilation = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    dilation[:m, m:] = entries
    dilation[m:, :m] = entries.conj().T
    return np.linalg.eigvalsh(dilation)[m:]


def schatten(singular_values: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(singular_values))
    return float(np.sum(singular_values**p) ** (1.0 / p))
