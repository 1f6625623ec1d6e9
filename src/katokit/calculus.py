"""Holomorphic functional calculus on vectors of fields.

Given fields u_1, .., u_d whose joint range stays inside the domain of a
holomorphic Phi : Omega subset C^d -> C, the Cauchy representation

    h(x) = (2 pi i)^{-d} oint .. oint  Phi(zeta + v(x))
           / prod_k (zeta_k + v_k(x) - u_k(x))  dzeta_1 .. dzeta_d

over the polycircle |zeta_k| = 3 r reproduces Phi(u(x)) whenever the
smoothed proxy v = phi_eps * u sits within margin r of u in sup norm and
the polydisc of radius 3 r around v stays inside Omega.  Here r is an
eighth of the distance from the sampled range to the complement of Omega.
The trapezoid rule on each circle converges geometrically: an a-priori
annulus bound, from a modulus bound of Phi, picks the node count, a node
doubling certificate verifies it at run time, and the pointwise identity
h = Phi(u) is then checked directly since Phi is evaluable.

Inversion, division with a cutoff, the chain rule and joint-spectrum
witnesses are all thin wrappers over this representation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContourConfigError,
    GridError,
    HypothesisError,
    MarginError,
    NonFiniteError,
    OutOfDomainError,
    QuadratureError,
    ResolutionError,
    ShapeError,
)
from .grid import (
    Field,
    Window,
    l2_norm,
    make_mollifier,
    min_resolvable_epsilon,
    mollify,
    require_finite,
)
from .sobolev import h_norm, spectral_derivative
from .weights import MultiOrder

__all__ = [
    "Entire",
    "DiscComplement",
    "GenericDomain",
    "HoloFn",
    "holo_identity",
    "holo_square",
    "holo_exp",
    "holo_reciprocal",
    "holo_product2",
    "check_partial_consistency",
    "PartialReport",
    "range_distance",
    "range_diameter",
    "ContourSpec",
    "CalderonResult",
    "calderon_apply",
    "invert",
    "InversionResult",
    "divide",
    "DivisionResult",
    "chain_rule_check",
    "ChainRuleReport",
    "joint_spectrum_witness",
    "WitnessReport",
    "composite_continuity_check",
    "CompositeContinuityReport",
]


# ---------------------------------------------------------------------------
# one-variable domain library


class Entire:
    """All of C."""

    def contains(self, z: np.ndarray) -> np.ndarray:
        return np.ones(np.shape(z), dtype=bool)

    def complement_distance(self, z: np.ndarray) -> np.ndarray:
        return np.full(np.shape(z), np.inf)

    def __repr__(self) -> str:  # pragma: no cover
        return "Entire()"


@dataclass(frozen=True)
class DiscComplement:
    """|z - center| > radius (the inversion domain)."""

    center: complex
    radius: float

    def contains(self, z: np.ndarray) -> np.ndarray:
        return np.abs(z - self.center) > self.radius

    def complement_distance(self, z: np.ndarray) -> np.ndarray:
        return np.abs(z - self.center) - self.radius


@dataclass(frozen=True, eq=False)
class GenericDomain:
    """Membership predicate only; distances found by radial bisection.

    For each point a fan of DIRECTIONS directions is scanned for the
    nearest boundary crossing (bisected to RADIAL_TOL), then the best
    direction is refined by REFINE_ROUNDS parabolic steps in the angle.
    Accurate to ~1e-6 for smooth star-shaped complements; `reach` caps the
    search radius.
    """

    DIRECTIONS = 128
    RADIAL_TOL = 1e-8
    REFINE_ROUNDS = 3

    test: Callable[[np.ndarray], np.ndarray]
    reach: float = 64.0

    def __post_init__(self) -> None:
        if not 0.0 < self.reach < math.inf:
            raise HypothesisError(f"reach must be finite and positive, got {self.reach}")

    def contains(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.test(np.asarray(z)), dtype=bool)

    def _radial_crossing(self, z: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """Distance along e^{i phase} to the first exit, capped at reach."""
        lo = np.zeros(z.shape, dtype=float)
        hi = np.full(z.shape, self.reach, dtype=float)
        outside_at_reach = ~self.contains(z + hi * phase)
        steps = int(math.ceil(math.log2(self.reach / self.RADIAL_TOL)))
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            inside = self.contains(z + mid * phase)
            lo = np.where(inside & outside_at_reach, mid, lo)
            hi = np.where(inside & outside_at_reach, hi, np.where(outside_at_reach, mid, hi))
        return np.where(outside_at_reach, 0.5 * (lo + hi), self.reach)

    def complement_distance(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        angles = np.linspace(0.0, 2.0 * math.pi, self.DIRECTIONS, endpoint=False)
        dists = np.empty((self.DIRECTIONS, flat.size))
        for i, th in enumerate(angles):
            dists[i] = self._radial_crossing(flat, np.full(flat.shape, np.exp(1j * th)))
        best = np.argmin(dists, axis=0)
        step = 2.0 * math.pi / self.DIRECTIONS
        theta = angles[best]
        d_mid = dists[best, np.arange(flat.size)]
        d_lo = dists[(best - 1) % self.DIRECTIONS, np.arange(flat.size)]
        d_hi = dists[(best + 1) % self.DIRECTIONS, np.arange(flat.size)]
        for _ in range(self.REFINE_ROUNDS):
            denom = d_lo - 2.0 * d_mid + d_hi
            shift = np.where(np.abs(denom) > 1e-300, 0.5 * (d_lo - d_hi) / np.where(denom == 0, 1.0, denom), 0.0)
            shift = np.clip(shift, -1.0, 1.0)
            theta = theta + shift * step
            step *= 0.5
            d_lo = self._radial_crossing(flat, np.exp(1j * (theta - step)))
            d_mid = np.minimum(d_mid, self._radial_crossing(flat, np.exp(1j * theta)))
            d_hi = self._radial_crossing(flat, np.exp(1j * (theta + step)))
            d_mid = np.minimum(d_mid, np.minimum(d_lo, d_hi))
        return d_mid.reshape(z.shape)


DomainPart = Entire | DiscComplement | GenericDomain


def entire_domain(arity: int) -> tuple[DomainPart, ...]:
    return tuple(Entire() for _ in range(arity))


# ---------------------------------------------------------------------------
# holomorphic functions


def _symmetric_difference(
    evaluate: Callable[[np.ndarray], np.ndarray], k: int, z: np.ndarray
) -> np.ndarray:
    """dPhi/dz_k at the stacked points z by a symmetric difference with
    relative step 1e-6 (1 + |z_k|)."""
    step = 1e-6 * (1.0 + np.abs(z[k]))
    zp = np.array(z, dtype=complex, copy=True)
    zm = np.array(z, dtype=complex, copy=True)
    zp[k] = zp[k] + step
    zm[k] = zm[k] - step
    return (np.asarray(evaluate(zp)) - np.asarray(evaluate(zm))) / (2.0 * step)


@dataclass(frozen=True, eq=False)
class HoloFn:
    """A holomorphic map Phi : Omega subset C^d -> C with optional partials.

    `evaluate` receives a stacked array of shape (d, ...) and returns (...).
    The contour passes it read-only views of one node buffer that it reuses
    from call to call, one first-variable node row of shape
    (d, 1, 2n, .., 2n, N^n) per call, (1, 1, N^n) at d = 1: it may return a
    view of its argument, and writing into the argument raises ValueError.
    Missing partials fall back to symmetric differences with relative step
    1e-6 (1 + |z_k|).

    `modulus_bound(v, radius)` receives the smoothed proxy v, shape
    (d, samples), and a radius R, and returns per sample an upper bound on
    |Phi| over the polydisc {|z_k - v_k| <= R for every k}.  It is only
    asked for radii whose polydisc lies inside the domain.  With it the
    contour takes its node count from an a-priori trapezoid bound; without
    it the contour uses 64 nodes per circle and reports no bound.
    """

    arity: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    domain: tuple[DomainPart, ...]
    partials: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None
    label: str = "holo"
    modulus_bound: Callable[[np.ndarray, float], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise HypothesisError(f"arity must be >= 1, got {self.arity}")
        if len(self.domain) != self.arity:
            raise ShapeError("domain must list one factor per variable")
        if self.partials is not None and len(self.partials) != self.arity:
            raise ShapeError("partials must list one map per variable")

    def partial_at(self, k: int, z: np.ndarray) -> np.ndarray:
        """dPhi/dz_k at the stacked points z (shape (d, ...))."""
        if self.partials is not None:
            return np.asarray(self.partials[k](z))
        return _symmetric_difference(self.evaluate, k, z)


def holo_identity() -> HoloFn:
    return HoloFn(
        1,
        lambda z: z[0],
        entire_domain(1),
        (lambda z: np.ones_like(z[0]),),
        "z",
        lambda v, radius: np.abs(v[0]) + radius,
    )


def holo_square() -> HoloFn:
    return HoloFn(
        1,
        lambda z: z[0] ** 2,
        entire_domain(1),
        (lambda z: 2.0 * z[0],),
        "z^2",
        lambda v, radius: (np.abs(v[0]) + radius) ** 2,
    )


def holo_exp() -> HoloFn:
    return HoloFn(
        1,
        lambda z: np.exp(z[0]),
        entire_domain(1),
        (lambda z: np.exp(z[0]),),
        "exp",
        lambda v, radius: np.exp(np.real(v[0]) + radius),
    )


def holo_reciprocal(lower: float) -> HoloFn:
    """1/z on |z| > lower."""
    if not lower > 0.0:
        raise HypothesisError(f"reciprocal domain needs a positive radius, got {lower}")
    return HoloFn(
        1,
        lambda z: 1.0 / z[0],
        (DiscComplement(0.0, float(lower)),),
        (lambda z: -1.0 / z[0] ** 2,),
        "1/z",
        lambda v, radius: 1.0 / (np.abs(v[0]) - radius),
    )


def holo_product2() -> HoloFn:
    return HoloFn(
        2,
        lambda z: z[0] * z[1],
        entire_domain(2),
        (lambda z: z[1], lambda z: z[0]),
        "z1*z2",
        lambda v, radius: (np.abs(v[0]) + radius) * (np.abs(v[1]) + radius),
    )


@dataclass(frozen=True)
class PartialReport:
    max_rel_err: float
    points: int
    passed: bool
    skipped: bool


def _sample_domain(dom: DomainPart, rng: np.random.Generator, count: int) -> np.ndarray:
    if isinstance(dom, Entire):
        return rng.normal(scale=1.5, size=count) + 1j * rng.normal(scale=1.5, size=count)
    if isinstance(dom, DiscComplement):
        rho = dom.radius * 1.05 + np.abs(rng.normal(scale=2.0 * dom.radius + 1.0, size=count))
        return dom.center + rho * np.exp(2j * math.pi * rng.uniform(size=count))
    if isinstance(dom, GenericDomain):
        pts: list[complex] = []
        for _ in range(200):
            cand = rng.normal(scale=dom.reach / 8.0, size=4 * count) + 1j * rng.normal(
                scale=dom.reach / 8.0, size=4 * count
            )
            pts.extend(cand[dom.contains(cand)][: count - len(pts)])
            if len(pts) >= count:
                return np.asarray(pts[:count])
        raise HypothesisError("could not sample enough in-domain points from the predicate")
    raise HypothesisError(f"unsupported domain factor {dom!r}")


_PARTIAL_POINTS = 100


def check_partial_consistency(fn: HoloFn, seed: int = 0) -> PartialReport:
    """Supplied partials vs symmetric differences at random in-domain points."""
    if fn.partials is None:
        return PartialReport(0.0, 0, True, True)
    rng = np.random.default_rng(seed)
    z = np.stack([_sample_domain(dom, rng, _PARTIAL_POINTS) for dom in fn.domain])
    rels = []
    for k in range(fn.arity):
        analytic = np.asarray(fn.partials[k](z))
        numeric = _symmetric_difference(fn.evaluate, k, z)
        rels.append(np.max(np.abs(numeric - analytic) / np.maximum(np.abs(analytic), 1.0)))
    worst = float(np.max(rels))
    return PartialReport(worst, _PARTIAL_POINTS, worst <= 1e-6, False)


# ---------------------------------------------------------------------------
# contour machinery


def _stack_values(fields: Sequence[Field]) -> np.ndarray:
    if not fields:
        raise ShapeError("fields must hold at least one field")
    spec = fields[0].spec
    for f in fields[1:]:
        if f.spec != spec:
            raise ShapeError("all fields must share one grid")
    return np.stack([f.samples for f in fields])


def range_distance(fields: Sequence[Field], domain: Sequence[DomainPart]) -> float:
    """min over samples and coordinates of the distance to the complement.

    Entire coordinates contribute +inf; a fully entire domain returns +inf
    (the contour radius is then set from the range diameter instead).
    Raises when any sample leaves its domain factor; a non-finite sample
    lies outside every factor, Entire included.
    """
    return _range_distance(_stack_values(fields), domain)


def _range_distance(values: np.ndarray, domain: Sequence[DomainPart]) -> float:
    """`range_distance` of the stacked samples, one row per domain factor."""
    if values.shape[0] != len(domain):
        raise ShapeError("need one domain factor per field")
    for k, dom in enumerate(domain):
        ok = np.isfinite(values[k]) & dom.contains(values[k])
        if not bool(np.all(ok)):
            bad = np.argwhere(~ok)
            preview = [
                (tuple(int(i) for i in idx), complex(values[k][tuple(idx)])) for idx in bad[:5]
            ]
            raise OutOfDomainError(
                f"{bad.shape[0]} samples of field {k} leave the domain {dom!r}; first offenders "
                f"(index, value): {preview}"
            )
    return float(np.min([np.min(dom.complement_distance(row)) for row, dom in zip(values, domain)]))


def range_diameter(fields: Sequence[Field]) -> float:
    """Bounding-box diagonal of the sampled range, maxed over coordinates; refuses a non-finite sample."""
    for k, field in enumerate(fields):
        require_finite(field.samples, f"fields[{k}]")
    return _range_diameter(_stack_values(fields))


def _range_diameter(values: np.ndarray) -> float:
    """`range_diameter` of the stacked samples."""
    return float(np.max([math.hypot(float(np.ptp(row.real)), float(np.ptp(row.imag))) for row in values]))


# The contour geometry.  The margin radius r is an eighth of the range's
# distance to the domain boundary, and the circles have radius 3r: around a
# proxy v that lies within r of u they stay inside the domain (4r is half
# the distance), and the poles zeta = u - v lie inside them.  Smoothing
# starts at epsilon 0.4 and halves, at most 16 times, until v lies within
# r of u.
_RADIUS_FACTOR = 0.125
_CONTOUR_RADIUS_IN_R = 3.0
_EPS_START = 0.4
_MAX_HALVINGS = 16


# The node count.  Without an explicit nodes_per_circle the contour takes the
# smallest count from _MIN_NODES to _DEFAULT_NODES whose a-priori bound is
# within _BOUND_SHARE of the tighter gate, and _DEFAULT_NODES when none is
# (or when Phi has no modulus bound).  The annulus bound tries the inner
# circles |zeta| = q rho and the outer circles |zeta| = rho / q for each q
# in _ANNULUS_RATIOS.
_MIN_NODES = 16
_DEFAULT_NODES = 64
_BOUND_SHARE = 0.1
_ANNULUS_RATIOS = (0.7, 0.5, 0.45, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02)


@dataclass(frozen=True)
class ContourSpec:
    """Node count and gates of the Cauchy representation.

    The trapezoid rule uses nodes_per_circle nodes per circle, checked
    against twice as many: the node-doubling drift must stay within
    drift_tolerance and the result within tolerance of the pointwise
    evaluation.  With nodes_per_circle None (the default) the count is the
    smallest in 16..64 whose a-priori trapezoid bound is at most a tenth of
    min(tolerance, drift_tolerance), and 64 when Phi has no modulus bound or
    no count up to 64 meets that target.
    """

    nodes_per_circle: int | None = None
    tolerance: float = 1e-8
    drift_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        value = self.nodes_per_circle
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ContourConfigError(f"nodes_per_circle must be an integer, got {value!r}")
            if value < _MIN_NODES:
                raise ContourConfigError(f"nodes_per_circle must be >= {_MIN_NODES}, got {value}")
        # an infinite tolerance accepts any finite result (the node sweep uses it)
        for name in ("tolerance", "drift_tolerance"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ContourConfigError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class CalderonResult:
    """An accepted contour evaluation and its certificates.

    nodes_used is the fine node count 2n per circle of the returned sums.
    quadrature_bound is the a-priori bound on |h - Phi(u)| at those nodes,
    trapezoid error plus rounding (see `_trapezoid_bound`), and inf when
    Phi has no modulus bound.
    """

    field: Field
    r: float
    rho: float
    eps: float
    margin: float
    drift: float
    pointwise_error: float
    nodes_used: int
    halvings: int
    distance: float
    diameter: float
    quadrature_bound: float


def _contract(vals: np.ndarray, weights: Sequence[np.ndarray]) -> np.ndarray:
    """sum over a_1..a_d of vals[a_1, .., a_d, x] prod_k weights[k][a_k, x],
    one variable at a time from the last."""
    for w in reversed(weights):
        vals = np.einsum("...ax,ax->...x", vals, w)
    return vals


def _contour_sums(
    values: np.ndarray, smoothed: np.ndarray, fn: HoloFn, rho: float, nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid sums of the Cauchy representation with `nodes` and with
    2 * nodes nodes per circle, from one evaluation of fn at the fine nodes.

    The fine nodes are zeta_a = rho e^{2 pi i a / 2n}, and variable k weighs
    node a at sample x by W_k[a, x] = (zeta_a / 2n) / (zeta_a + v_k(x) - u_k(x)).
    The coarse nodes are the even fine nodes, bit for bit, and their weight
    zeta / n is exactly twice zeta / 2n, so the coarse sum is 2^d times the
    same contraction over the even sub-tensor.

    fn is called once per first-variable node, on the row of (2n)^(d-1)
    tuples sharing that node at every sample (one point per sample at d = 1).
    Each row's values are contracted over variables d..2, then weighed by the
    first variable's weight at the row's node, and added into both sums in
    node order: that order fixes the last bits of the sums.
    """
    d = values.shape[0]
    flat_u = values.reshape(d, -1)
    flat_v = smoothed.reshape(d, -1)
    npts = flat_u.shape[1]
    fine = 2 * nodes
    zeta = rho * np.exp(2j * math.pi * np.arange(fine) / fine)
    weights = np.empty((d, fine, npts), dtype=np.complex128)
    for k in range(d):
        poles = zeta[:, None] + flat_v[k][None, :] - flat_u[k][None, :]
        np.divide((zeta / fine)[:, None], poles, out=weights[k])
    coarse = np.zeros(npts, dtype=np.complex128)
    total = np.zeros(npts, dtype=np.complex128)
    # one node buffer for every call: variables 2..d do not depend on the
    # first variable's node and are filled once, variable 1 is rewritten per call
    nodes_buf = np.empty((d, 1) + (fine,) * (d - 1) + (npts,), dtype=np.complex128)
    for k in range(1, d):
        axis = [1] * (d + 1)
        axis[k] = -1
        np.add(flat_v[k], zeta.reshape(axis), out=nodes_buf[k])
    # fn sees a read-only view, so it cannot corrupt the nodes of later calls
    z = nodes_buf.view()
    z.flags.writeable = False
    even_tuples = (slice(None),) + (slice(None, None, 2),) * (d - 1)
    for a in range(fine):
        np.add(flat_v[0], zeta[a], out=nodes_buf[0])
        vals = np.asarray(fn.evaluate(z), dtype=np.complex128)
        lead = weights[0, a : a + 1]
        total += _contract(vals, [lead, *weights[1:]])
        if a % 2 == 0:
            coarse += _contract(vals[even_tuples], [lead, *weights[1:, ::2]])
        del vals  # else a row's values stay alive while fn evaluates the next
    shape = values.shape[1:]
    return (2.0**d * coarse).reshape(shape), total.reshape(shape)


def _trapezoid_bound(
    fn: HoloFn, values: np.ndarray, smoothed: np.ndarray, rho: float, reach: float
) -> Callable[[int], float] | None:
    """The a-priori error max_x |T_n - Phi(u(x))| of the n-node trapezoid
    rule on the circles |zeta_k| = rho, as a function of n; None when fn has
    no modulus bound.

    In variable k the integrand zeta_k / (zeta_k - p_k) Phi(zeta + v), with
    pole p = u - v, is analytic for |p_k| < |zeta_k| < reach, where reach is
    the smoothed range's distance to the domain boundary.  For inner and
    outer radii |p_k| < m' < rho < R' < reach the n-node rule errs by at
    most M_in q_in^n / (1 - q_in^n) + M_out q_out^n / (1 - q_out^n), with
    q_in = m' / rho, q_out = rho / R' and M the integrand's maximum on
    |zeta_k| = m' and on |zeta_k| = R' (Trefethen & Weideman, SIAM Review
    56, 2014, Thm 2.2).  At d > 1 the per-variable errors add, each with the
    other variables on their circles, where |zeta_j / (zeta_j - p_j)| is at
    most rho / (rho - |p_j|).  Per sample, each term takes its best radius
    from m' = q rho and R' = rho / q, q in _ANNULUS_RATIOS.

    Rounding is modelled, not proven: machine epsilon times the sum of
    |terms|, which is at most max |Phi| on the polydisc of radius rho times
    the circle factors, times d n for the additions along the node axes
    (Higham, Accuracy and Stability of Numerical Algorithms, §4.2) plus
    8 (1 + |v| + rho)(1 + 1 / (rho - |p|)) for the rounded node that Phi
    and the pole receive.
    """
    if fn.modulus_bound is None:
        return None
    d = values.shape[0]
    v = smoothed.reshape(d, -1)
    offset = np.abs(values.reshape(d, -1) - v)
    circle = rho / (rho - offset)
    circles = np.prod(circle, axis=0)
    q = np.asarray(_ANNULUS_RATIOS)[:, None]
    inner = q * rho
    outer = rho / q
    terms = []
    # a modulus past the float range is an infinite term, which no minimum takes
    with np.errstate(over="ignore"):
        modulus = np.asarray(fn.modulus_bound(v, rho), dtype=float)
        outer_modulus = np.stack(
            [
                np.asarray(fn.modulus_bound(v, radius), dtype=float) if radius < reach else np.full(v.shape[1], np.inf)
                for radius in outer[:, 0]
            ]
        )
        for k in range(d):
            others = circles / circle[k]
            gap = inner - offset[k]
            inner_factor = np.divide(inner, gap, out=np.full(gap.shape, np.inf), where=gap > 0.0)
            terms.append((modulus * others * inner_factor, outer_modulus * others * outer / (outer - offset[k])))
    sum_of_terms = float(np.max(modulus * circles))
    per_term = 8.0 * (1.0 + float(np.max(np.abs(v))) + rho) * (1.0 + 1.0 / (rho - float(np.max(offset))))

    def bound(nodes: int) -> float:
        power = q**nodes
        decay = power / (1.0 - power)
        total = sum(np.min(c_in * decay, axis=0) + np.min(c_out * decay, axis=0) for c_in, c_out in terms)
        rounding = np.finfo(float).eps * sum_of_terms * (d * nodes + per_term)
        return float(np.max(total)) + rounding

    return bound


def _node_count(contour: ContourSpec, bound: Callable[[int], float] | None) -> tuple[int, float]:
    """The node count n and the bound at the 2n nodes of the returned sums.

    n is the explicit count, else the smallest in _MIN_NODES.._DEFAULT_NODES
    whose bound meets _BOUND_SHARE of the tighter gate, else _DEFAULT_NODES.
    """
    if bound is None:
        return int(contour.nodes_per_circle or _DEFAULT_NODES), math.inf
    nodes = contour.nodes_per_circle
    if nodes is None:
        target = _BOUND_SHARE * min(contour.tolerance, contour.drift_tolerance)
        nodes = next((n for n in range(_MIN_NODES, _DEFAULT_NODES + 1) if bound(n) <= target), _DEFAULT_NODES)
    return int(nodes), bound(2 * int(nodes))


def calderon_apply(
    fields: Sequence[Field],
    fn: HoloFn,
    contour: ContourSpec | None = None,
) -> CalderonResult:
    """Evaluate Phi(u) through the contour representation, with certificates.

    Raises OutOfDomainError / MarginError / ContourConfigError /
    QuadratureError when the respective gate fails; an accepted run always
    satisfies the node-doubling drift bound and the pointwise identity
    |h - Phi(u)| <= tolerance.
    """
    contour = contour or ContourSpec()
    if len(fields) != fn.arity:
        raise ShapeError(f"expected {fn.arity} fields, got {len(fields)}")
    spec = fields[0].spec
    values = _stack_values(fields)
    dist = _range_distance(values, fn.domain)
    diam = _range_diameter(values)
    if math.isinf(dist):
        r = max(diam, 1.0) * _RADIUS_FACTOR
    else:
        r = dist * _RADIUS_FACTOR
    if not r > 0.0:
        raise ContourConfigError(f"margin radius must be positive, got r={r}")

    try:
        eps = max(_EPS_START, min_resolvable_epsilon(spec))
    except GridError as exc:
        raise ContourConfigError(f"{exc}; the grid's half period {0.5 * spec.period:.6g} cannot smooth the proxy") from exc
    halvings = 0
    margin = math.inf
    while True:
        try:
            moll = make_mollifier(spec, eps)
        except (ResolutionError, GridError) as exc:
            raise MarginError(
                f"smoothing margin {margin:.3g} (need < {r:.3g}) not reached before the "
                f"resolution floor at eps={eps:.3g}: {exc}"
            ) from exc
        smoothed = np.stack([mollify(Field(spec, values[k]), moll).samples for k in range(values.shape[0])])
        margin = float(np.max(np.abs(values - smoothed)))
        if margin < r:
            break
        if halvings >= _MAX_HALVINGS:
            raise MarginError(
                f"smoothing margin {margin:.3g} did not drop below r={r:.3g} "
                f"after {halvings} halvings of eps"
            )
        eps *= 0.5
        halvings += 1

    rho = _CONTOUR_RADIUS_IN_R * r
    reach = _range_distance(smoothed, fn.domain)
    if rho >= reach:
        raise ContourConfigError(
            f"contour radius {rho:.3g} reaches the domain boundary "
            f"(smoothed range is only {reach:.3g} away)"
        )

    # the bound's arrays are dropped before the sums allocate theirs
    nodes, quadrature_bound = _node_count(contour, _trapezoid_bound(fn, values, smoothed, rho, reach))
    h1, h2 = _contour_sums(values, smoothed, fn, rho, nodes)
    drift = float(np.max(np.abs(h2 - h1)))
    # both gates are written so that a NaN fails them
    if not drift <= contour.drift_tolerance:
        raise QuadratureError(
            f"node doubling {nodes} -> {2 * nodes} moved the result by {drift:.3g} "
            f"(> {contour.drift_tolerance:.3g}); quadrature not converged"
        )
    direct = np.asarray(fn.evaluate(values), dtype=np.complex128)
    pointwise = float(np.max(np.abs(h2 - direct)))
    if not pointwise <= contour.tolerance:
        raise QuadratureError(
            f"contour result differs from the pointwise evaluation by {pointwise:.3g} "
            f"(> {contour.tolerance:.3g})"
        )
    return CalderonResult(
        field=Field(spec, h2),
        r=r,
        rho=rho,
        eps=eps,
        margin=margin,
        drift=drift,
        pointwise_error=pointwise,
        nodes_used=2 * nodes,
        halvings=halvings,
        distance=dist,
        diameter=diam,
        quadrature_bound=quadrature_bound,
    )


# ---------------------------------------------------------------------------
# derived operations


_MIN_LOWER_BOUND = 1e-8


@dataclass(frozen=True)
class InversionResult:
    field: Field
    lower_bound: float
    residual: float
    calderon: CalderonResult
    h_norm_value: float | None = None


def invert(u: Field, order: MultiOrder | None = None) -> InversionResult:
    """1/u through the calculus on Omega = {|z| > min|u| / 2}.

    Reports the Sobolev norm of the result when `order` is given, as a
    finiteness witness for membership of 1/u in the same scale as u.
    Raises NonFiniteError when a sample of u is NaN or infinite.
    """
    require_finite(u.samples, "u")
    c = float(np.min(np.abs(u.samples)))
    if c < _MIN_LOWER_BOUND:
        raise HypothesisError(
            f"inversion requires min |u| >= {_MIN_LOWER_BOUND}, got {c:.3g}"
        )
    fn = holo_reciprocal(c / 2.0)
    res = calderon_apply([u], fn)
    residual = float(np.max(np.abs(u.samples * res.field.samples - 1.0)))
    tol = ContourSpec().tolerance
    if not residual <= tol:
        raise QuadratureError(f"inversion residual sup|u/u - 1| = {residual:.3g} exceeds {tol:.3g}")
    hval = h_norm(res.field, order) if order is not None else None
    return InversionResult(res.field, c, residual, res, hval)


@dataclass(frozen=True)
class DivisionResult:
    field: Field
    floor: float
    residual: float
    support_fraction: float
    inversion: InversionResult


_DIVISION_TOL = 1e-7


def divide(u: Field, v: Field, cutoff: Window | Field, c: float) -> DivisionResult:
    """u / v where v is bounded below on a cutoff neighborhood of supp u.

    Builds w = phi |v|^2 + c^2 (1 - phi) / 4 >= c^2 / 4 and returns
    conj(v) u invert(w), which equals u/v on supp u because phi = 1 there.
    Raises NonFiniteError when a sample of u, v or the cutoff is NaN or
    infinite.
    """
    phi = cutoff.field.samples if isinstance(cutoff, Window) else cutoff.samples
    if u.spec != v.spec or phi.shape != u.samples.shape:
        raise ShapeError("u, v and the cutoff must share one grid")
    for samples, what in ((u.samples, "u"), (v.samples, "v"), (phi, "cutoff")):
        require_finite(samples, what)
    if float(np.max(np.abs(np.imag(phi)))) > 1e-14:
        raise HypothesisError("cutoff must be real-valued")
    phi = np.real(phi)
    if float(np.min(phi)) < -1e-12 or float(np.max(phi)) > 1.0 + 1e-12:
        raise HypothesisError("cutoff must take values in [0, 1]")
    if not c > 0.0:
        raise HypothesisError(f"lower bound c must be positive, got {c}")
    scale = float(np.max(np.abs(u.samples)))
    supp_u = np.abs(u.samples) > 1e-12 * max(scale, 1e-300)
    supp_phi = phi > 1e-12
    if bool(np.any(supp_u)):
        if float(np.min(phi[supp_u])) < 1.0 - 1e-12:
            raise HypothesisError("cutoff must equal 1 on the support of u")
        if float(np.min(np.abs(v.samples[supp_u]))) < c * (1.0 - 1e-12):
            raise HypothesisError(f"|v| must stay >= c = {c} on the support of u")
    if bool(np.any(supp_phi)):
        if float(np.min(np.abs(v.samples[supp_phi]))) < 0.5 * c * (1.0 - 1e-12):
            raise HypothesisError(f"|v| must stay >= c/2 = {0.5 * c} on the support of the cutoff")
    w = phi * np.abs(v.samples) ** 2 + 0.25 * c**2 * (1.0 - phi)
    floor = float(np.min(w))
    if floor < 0.25 * c**2 * (1.0 - 1e-12):
        raise HypothesisError(f"w floor {floor:.3g} fell below c^2/4 = {0.25 * c ** 2:.3g}")
    inv = invert(Field(u.spec, w))
    result = np.conj(v.samples) * u.samples * inv.field.samples
    residual = 0.0
    if bool(np.any(supp_u)):
        residual = float(np.max(np.abs((result * v.samples - u.samples)[supp_u])))
    if not residual <= _DIVISION_TOL:
        raise QuadratureError(f"division residual {residual:.3g} exceeds {_DIVISION_TOL:.3g} on supp u")
    return DivisionResult(
        field=Field(u.spec, result),
        floor=floor,
        residual=residual,
        support_fraction=float(np.mean(supp_u)),
        inversion=inv,
    )


@dataclass(frozen=True)
class ChainRuleReport:
    per_axis: tuple[float, ...]
    max_rel_err: float
    passed: bool


def chain_rule_check(fields: Sequence[Field], fn: HoloFn) -> ChainRuleReport:
    """d_j Phi(u) = sum_k dPhi/dz_k(u) d_j u_k, spectral vs sample-wise."""
    res = calderon_apply(fields, fn)
    values = _stack_values(fields)
    spec = fields[0].spec
    parts = [np.asarray(fn.partial_at(k, values)) for k in range(fn.arity)]
    rels = []
    for axis in range(spec.dim):
        lhs = spectral_derivative(res.field, axis).samples
        rhs = np.zeros_like(lhs)
        for k in range(fn.arity):
            rhs += parts[k] * spectral_derivative(fields[k], axis).samples
        den = max(l2_norm(Field(spec, rhs)), 1e-300)
        rels.append(l2_norm(Field(spec, lhs - rhs)) / den)
    worst = float(np.max(rels))
    return ChainRuleReport(tuple(rels), worst, worst <= 1e-6)


@dataclass(frozen=True)
class WitnessReport:
    status: str
    delta_inf: float
    min_quadratic: float
    residual: float | None
    witnesses: tuple[Field, ...] | None


_WITNESS_RESIDUAL_TOL = 1e-8


def joint_spectrum_witness(fields: Sequence[Field], lam: Sequence[complex]) -> WitnessReport:
    """Witness fields v_k with sum_k v_k (u_k - lambda_k) = 1, or a refusal.

    A point lambda within 1e-6 (sup-norm) of the sampled range admits
    no stable witness; the report then carries status "refused" and the
    measured minimum of the quadratic sum_k |u_k - lambda_k|^2.  Raises
    NonFiniteError when a sample of a field or a component of lambda is NaN
    or infinite.
    """
    if len(lam) != len(fields):
        raise ShapeError("need one lambda component per field")
    for k, (field, z) in enumerate(zip(fields, lam)):
        require_finite(field.samples, f"fields[{k}]")
        if not cmath.isfinite(z):
            raise NonFiniteError(f"lam[{k}] = {z!r} is not finite")
    values = _stack_values(fields)
    spec = fields[0].spec
    diffs = values - np.asarray(lam, dtype=complex).reshape(-1, *([1] * spec.dim))
    quad = np.sum(np.abs(diffs) ** 2, axis=0)
    delta_inf = float(np.min(np.max(np.abs(diffs), axis=0)))
    min_quad = float(np.min(quad))
    if delta_inf < 1e-6 or min_quad < _MIN_LOWER_BOUND:
        return WitnessReport("refused", delta_inf, min_quad, None, None)
    inv = invert(Field(spec, quad))
    witnesses = tuple(Field(spec, np.conj(diffs[k]) * inv.field.samples) for k in range(len(fields)))
    combo = np.zeros(spec.shape, dtype=np.complex128)
    for k in range(len(fields)):
        combo += witnesses[k].samples * diffs[k]
    residual = float(np.max(np.abs(combo - 1.0)))
    if not residual <= _WITNESS_RESIDUAL_TOL:
        raise QuadratureError(f"witness residual {residual:.3g} exceeds {_WITNESS_RESIDUAL_TOL:.3g}")
    return WitnessReport("witness", delta_inf, min_quad, residual, witnesses)


@dataclass(frozen=True)
class CompositeContinuityReport:
    epsilons: tuple[float, ...]
    gaps: tuple[float, ...]
    monotone_ok: bool
    skipped: tuple[float, ...] = ()


_MONOTONE_SLACK = 1e-10


def composite_continuity_check(
    fields: Sequence[Field], fn: HoloFn, epsilons: Sequence[float]
) -> CompositeContinuityReport:
    """sup |Phi(phi_eps * u) - Phi(u)| decreases along a decreasing eps sweep.

    Only uses pointwise evaluation of Phi; the samples and every smoothed
    proxy must be finite and inside the domain (checked as in
    `range_distance`).  Epsilons below the kernel resolution floor are
    reported as skipped, not evaluated; one outside (0, 1], NaN included,
    raises GridError.
    """
    values = _stack_values(fields)
    _range_distance(values, fn.domain)
    spec = fields[0].spec
    molls, dropped = [], []
    for eps in sorted((float(e) for e in epsilons), reverse=True):
        try:
            molls.append(make_mollifier(spec, eps))
        except ResolutionError:
            dropped.append(eps)
    eps_sorted = [moll.epsilon for moll in molls]
    if len(eps_sorted) < 2:
        raise HypothesisError(
            f"need at least two resolvable epsilons (floor {min_resolvable_epsilon(spec):.3g}); got {eps_sorted}"
        )
    direct = np.asarray(fn.evaluate(values))
    gaps = []
    for moll in molls:
        smoothed = _stack_values([mollify(f, moll) for f in fields])
        _range_distance(smoothed, fn.domain)
        gaps.append(float(np.max(np.abs(np.asarray(fn.evaluate(smoothed)) - direct))))
    scale = max(float(np.max(gaps)), 1e-300)
    mono = all(
        gaps[i + 1] <= gaps[i] * (1.0 + _MONOTONE_SLACK) + _MONOTONE_SLACK * scale
        for i in range(len(gaps) - 1)
    )
    return CompositeContinuityReport(tuple(eps_sorted), tuple(gaps), mono, tuple(dropped))
