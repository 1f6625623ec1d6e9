"""Block bracket weights and their convolution inequalities.

For a partition of the coordinates of R^n into blocks of sizes
(n_1, .., n_j) and a real order vector s = (s_1, .., s_j), the block
weight is

    w_s(xi) = prod_l (1 + |xi_l|^2)^{s_l / 2},

written <<xi>>^s below.  Two facts carry the rest of the package:

* the submultiplicative (Peetre) estimate
  <<xi + eta>>^s <= 2^{|s|_1 / 2} <<xi>>^s <<eta>>^{|s|}, and
* the convolution bound <<.>>^{-2s} * <<.>>^{-2t} <= C <<.>>^{-2 sigma}
  with sigma = min(s, t, s + t - n/2 - eps) per block and an explicit,
  reproducible constant C.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import HypothesisError, ShapeError

__all__ = [
    "MultiOrder",
    "SigmaParams",
    "multi_order",
    "bracket",
    "multi_weight",
    "peetre_ratio",
    "peetre_check",
    "PeetreReport",
    "weight_l1_norm",
    "weight_l1_norm_quad",
    "conv_bound_constant",
    "weight_conv_constant",
    "weight_conv_check",
    "ConvCheckReport",
]


@dataclass(frozen=True)
class MultiOrder:
    """Order vector s attached to a block partition of the axes."""

    s: tuple[float, ...]
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        s = tuple(float(v) for v in self.s)
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "blocks", blocks)
        if len(s) != len(blocks):
            raise ShapeError(f"order has {len(s)} entries for {len(blocks)} blocks")
        if any(b < 1 for b in blocks):
            raise ShapeError(f"block sizes must be positive, got {blocks}")
        if not all(math.isfinite(v) for v in s):
            raise ShapeError(f"order entries must be finite, got {s}")

    @property
    def j(self) -> int:
        return len(self.blocks)

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    @property
    def total_abs(self) -> float:
        """|s|_1 = sum |s_l|."""
        return float(sum(abs(v) for v in self.s))

    @property
    def abs(self) -> "MultiOrder":
        return MultiOrder(tuple(abs(v) for v in self.s), self.blocks)

    def shifted(self, block: int, amount: float) -> "MultiOrder":
        """Order with s_block replaced by s_block + amount."""
        if not 0 <= block < self.j:
            raise ShapeError(f"block index {block} out of range for {self.j} blocks")
        s = list(self.s)
        s[block] += amount
        return MultiOrder(tuple(s), self.blocks)

    def dominates(self, other: "MultiOrder") -> bool:
        return self.blocks == other.blocks and all(a >= b for a, b in zip(self.s, other.s))


def multi_order(s: Sequence[float] | float, blocks: Sequence[int]) -> MultiOrder:
    blocks = tuple(int(b) for b in blocks)
    if np.isscalar(s):
        s = (float(s),) * len(blocks)
    return MultiOrder(tuple(float(v) for v in s), blocks)


def bracket(xi: np.ndarray | float) -> np.ndarray | float:
    """Japanese bracket <xi> = (1 + |xi|^2)^{1/2}; vectors along the last axis."""
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 0:
        return math.sqrt(1.0 + float(arr) ** 2)
    return np.sqrt(1.0 + np.sum(arr**2, axis=-1))


def _block_splits(order: MultiOrder) -> list[tuple[int, int]]:
    out, start = [], 0
    for b in order.blocks:
        out.append((start, start + b))
        start += b
    return out


def multi_weight(xi: np.ndarray, order: MultiOrder) -> np.ndarray | float:
    """<<xi>>^s for points xi with coordinates along the last axis."""
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if arr.shape[-1] != order.dim:
        raise ShapeError(f"points have {arr.shape[-1]} coordinates, order expects {order.dim}")
    result = np.ones(arr.shape[:-1], dtype=float)
    for (a, b), s_l in zip(_block_splits(order), order.s):
        block_sq = 1.0 + np.sum(arr[..., a:b] ** 2, axis=-1)
        result = result * block_sq ** (0.5 * s_l)
    if result.shape == ():
        return float(result)
    return result


def peetre_ratio(xi: np.ndarray, eta: np.ndarray, order: MultiOrder) -> np.ndarray:
    """<<xi+eta>>^s / (2^{|s|_1/2} <<xi>>^s <<eta>>^{|s|}); at most 1."""
    lhs = multi_weight(np.asarray(xi) + np.asarray(eta), order)
    rhs = (
        2.0 ** (0.5 * order.total_abs)
        * multi_weight(xi, order)
        * multi_weight(eta, order.abs)
    )
    return np.asarray(lhs / rhs)


@dataclass(frozen=True)
class PeetreReport:
    samples: int
    max_ratio: float
    passed: bool


def peetre_check(
    samples: int = 100_000,
    seed: int = 0,
    max_dim: int = 4,
    order_bound: float = 3.0,
    scale: float = 50.0,
) -> PeetreReport:
    """Randomized stress test of the Peetre inequality.

    Draws dimensions up to `max_dim`, random block partitions, orders with
    |s_l| <= order_bound and heavy-tailed points, and records the worst ratio.
    """
    for name, value in (("samples", samples), ("max_dim", max_dim)):
        if value < 1:
            raise HypothesisError(f"{name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    remaining = int(samples)
    worst = 0.0
    while remaining > 0:
        batch = min(remaining, 20_000)
        remaining -= batch
        dim = int(rng.integers(1, max_dim + 1))
        blocks: list[int] = []
        left = dim
        while left > 0:
            b = int(rng.integers(1, left + 1))
            blocks.append(b)
            left -= b
        s = tuple(float(v) for v in rng.uniform(-order_bound, order_bound, size=len(blocks)))
        order = MultiOrder(s, tuple(blocks))
        spread = rng.uniform(0.1, scale, size=(batch, 1))
        xi = rng.standard_normal((batch, dim)) * spread
        eta = rng.standard_normal((batch, dim)) * rng.uniform(0.1, scale, size=(batch, 1))
        ratios = peetre_ratio(xi, eta, order)
        worst = max(worst, float(np.max(ratios)))
    return PeetreReport(samples=int(samples), max_ratio=worst, passed=worst <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# convolution constants


def weight_l1_norm(lam: float, n: int) -> float:
    """|| <.>^{-2 lam} ||_{L^1(R^n)} = pi^{n/2} Gamma(lam - n/2) / Gamma(lam).

    The radial reduction of the integral gives this closed form for every
    admissible exponent lam > n/2.
    """
    lam = float(lam)
    if lam <= n / 2.0:
        raise HypothesisError(f"weight exponent lam={lam} must exceed n/2={n / 2.0} for integrability")
    return math.pi ** (n / 2.0) * math.gamma(lam - n / 2.0) / math.gamma(lam)


def weight_l1_norm_quad(lam: float, n: int) -> float:
    """Exp-sinh trapezoid evaluation of the same L^1 norm (cross-check route).

    The radial integral of r^{n-1} (1 + r^2)^{-lam} over r > 0 is taken
    through r = exp(pi/2 sinh t), step 1/64 on |t| <= 6 (Takahasi and Mori's
    double-exponential rule); the integrand is formed in log form so that
    neither end overflows."""
    lam = float(lam)
    if lam <= n / 2.0:
        raise HypothesisError(f"weight exponent lam={lam} must exceed n/2={n / 2.0} for integrability")
    surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    h = 1.0 / 64.0
    t = h * np.arange(-6 * 64, 6 * 64 + 1)
    log_r = 0.5 * math.pi * np.sinh(t)
    log_f = n * log_r - lam * np.logaddexp(0.0, 2.0 * log_r) + np.log(0.5 * math.pi * np.cosh(t))
    return surface * h * float(np.sum(np.exp(log_f)))


def conv_bound_constant(s: float, t: float, eps: float, n: int) -> float:
    """Constant C with <.>^{-2s} * <.>^{-2t} <= C <.>^{-2 sigma} on R^n.

    sigma = min(s, t, s + t - n/2 - eps).  For s, t >= 0 the constant is
    2^{2 sigma + 1} ||<.>^{-2(s+t-sigma)}||_{L^1}; otherwise
    2^{|sigma|} ||<.>^{-2(s+t)}||_{L^1}.
    """
    s, t, eps = float(s), float(t), float(eps)
    if s + t <= n / 2.0:
        raise HypothesisError(f"need s + t > n/2; got s+t={s + t}, n={n}")
    if not (0.0 < eps < s + t - n / 2.0):
        raise HypothesisError(f"need 0 < eps < s + t - n/2; got eps={eps}")
    sigma = min(s, t, s + t - n / 2.0 - eps)
    if s >= 0.0 and t >= 0.0:
        return 2.0 ** (2.0 * sigma + 1.0) * weight_l1_norm(s + t - sigma, n)
    return 2.0 ** abs(sigma) * weight_l1_norm(s + t, n)


@dataclass(frozen=True)
class SigmaParams:
    """Blockwise (s, t, eps) data for the convolution bound."""

    s: MultiOrder
    t: MultiOrder
    eps: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.s.blocks != self.t.blocks:
            raise ShapeError("s and t must share the block partition")
        eps = tuple(float(e) for e in self.eps)
        object.__setattr__(self, "eps", eps)
        if len(eps) != self.s.j:
            raise ShapeError(f"need one eps per block, got {len(eps)} for {self.s.j}")
        for s_l, t_l, e_l, n_l in zip(self.s.s, self.t.s, eps, self.s.blocks):
            if s_l + t_l <= n_l / 2.0:
                raise HypothesisError(f"block with s={s_l}, t={t_l} violates s + t > n/2 = {n_l / 2.0}")
            if not (0.0 < e_l < s_l + t_l - n_l / 2.0):
                raise HypothesisError(f"eps={e_l} outside (0, {s_l + t_l - n_l / 2.0})")

    @property
    def blocks(self) -> tuple[int, ...]:
        return self.s.blocks

    @property
    def sigma(self) -> MultiOrder:
        vals = tuple(
            min(s_l, t_l, s_l + t_l - n_l / 2.0 - e_l)
            for s_l, t_l, e_l, n_l in zip(self.s.s, self.t.s, self.eps, self.s.blocks)
        )
        return MultiOrder(vals, self.s.blocks)


def sigma_params(
    s: Sequence[float] | float,
    t: Sequence[float] | float,
    eps: Sequence[float] | float,
    blocks: Sequence[int],
) -> SigmaParams:
    blocks = tuple(int(b) for b in blocks)
    so = multi_order(s, blocks)
    to = multi_order(t, blocks)
    if np.isscalar(eps):
        eps = (float(eps),) * len(blocks)
    return SigmaParams(so, to, tuple(float(e) for e in eps))


def weight_conv_constant(params: SigmaParams, block: int) -> float:
    """Per-block convolution constant C(s_l, t_l, eps_l, n_l)."""
    if not 0 <= block < params.s.j:
        raise ShapeError(f"block index {block} out of range")
    return conv_bound_constant(
        params.s.s[block], params.t.s[block], params.eps[block], params.blocks[block]
    )


def weight_conv_constant_total(params: SigmaParams) -> float:
    """Product of the per-block constants (tensor structure of the weights)."""
    out = 1.0
    for block in range(params.s.j):
        out *= weight_conv_constant(params, block)
    return out


def _truncated_convolution(
    s: float, t: float, n: int, box: float, step: float, probes: np.ndarray
) -> np.ndarray:
    """Trapezoid-rule values of (<.>^{-2s} * <.>^{-2t})(xi) on a cube |eta|<=box."""
    if n > 2:
        raise HypothesisError(f"truncated convolution check supports block dimension 1 or 2, got {n}")
    axis = np.arange(-box, box + 0.5 * step, step)
    w = np.ones_like(axis)
    w[0] = w[-1] = 0.5
    eta = np.meshgrid(*[axis] * n, indexing="ij", sparse=True)
    weight_t = sum((e**2 for e in eta), 1.0) ** (-t) * functools.reduce(np.multiply.outer, [w] * n)
    volume = math.prod([step] * n)
    out = np.empty(len(probes))
    for i, xi in enumerate(np.reshape(probes, (len(probes), n))):
        weight_s = sum(((x - e) ** 2 for x, e in zip(xi, eta)), 1.0) ** (-s)
        out[i] = volume * float(np.sum(weight_s * weight_t))
    return out


@dataclass(frozen=True)
class ConvCheckReport:
    verdict: str
    max_ratio: float
    per_block_ratio: tuple[float, ...]
    per_block_constant: tuple[float, ...]
    per_block_empirical: tuple[float, ...]
    tail_fraction: float


def weight_conv_check(
    params: SigmaParams,
    box: float = 40.0,
    step: float = 0.05,
    probes_per_block: int = 17,
) -> ConvCheckReport:
    """Compare the truncated convolution against C <<xi>>^{-2 sigma} per block.

    Checked blockwise because the weights, hence the convolutions, factor
    over blocks exactly.  PASS when every sampled ratio stays below 1.05;
    INCONCLUSIVE when enlarging the box by half moves any value by more
    than 1% (truncation dominates); FAIL otherwise.
    """
    for name, value in (("box", box), ("step", step)):
        if not (math.isfinite(value) and value > 0.0):
            raise HypothesisError(f"{name} must be finite and positive, got {value}")
    if probes_per_block < 1:
        raise HypothesisError(f"probes_per_block must be >= 1, got {probes_per_block}")
    sigma = params.sigma.s
    ratios: list[float] = []
    consts: list[float] = []
    empirical: list[float] = []
    worst_tail = 0.0
    for block in range(params.s.j):
        n_l = params.blocks[block]
        s_l, t_l = params.s.s[block], params.t.s[block]
        c_l = weight_conv_constant(params, block)
        half = 0.5 * box
        if n_l == 1:
            probes = np.linspace(-half, half, probes_per_block)
            probe_pts = probes
            probe_norm_sq = probes**2
        else:
            side = int(round(math.sqrt(probes_per_block))) or 1
            g = np.linspace(-half, half, max(side, 3))
            p1, p2 = np.meshgrid(g, g, indexing="ij")
            probe_pts = np.stack([p1.ravel(), p2.ravel()], axis=-1)
            probe_norm_sq = np.sum(probe_pts**2, axis=-1)
        use_step = step if n_l == 1 else max(step, 0.1)
        vals = _truncated_convolution(s_l, t_l, n_l, box, use_step, probe_pts)
        vals_wide = _truncated_convolution(s_l, t_l, n_l, 1.5 * box, use_step, probe_pts)
        tail = float(np.max(np.abs(vals_wide - vals) / np.maximum(np.abs(vals_wide), 1e-300)))
        worst_tail = max(worst_tail, tail)
        target = (1.0 + probe_norm_sq) ** (-sigma[block])
        block_ratios = vals_wide / (c_l * target)
        ratios.append(float(np.max(block_ratios)))
        consts.append(c_l)
        empirical.append(float(np.max(vals_wide / target)))
    max_ratio = max(ratios)
    if worst_tail > 0.01:
        verdict = "INCONCLUSIVE"
    elif max_ratio <= 1.05:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return ConvCheckReport(
        verdict=verdict,
        max_ratio=max_ratio,
        per_block_ratio=tuple(ratios),
        per_block_constant=tuple(consts),
        per_block_empirical=tuple(empirical),
        tail_fraction=worst_tail,
    )
