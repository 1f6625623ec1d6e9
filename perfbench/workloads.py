"""Inputs and timed operations of the batch workloads.

A batch workload is a fixed list of operations built from the seed. One
batch runs each operation once; the benchmark repeats batches for the run
time. Every operation belongs to a timing group (the ``kato_p*_s``,
``schatten_s`` and ``calderon_s`` sums; "" for none) and names an oracle
kind (see `oracles.TOLERANCES`) and a reference, computed after the timed
phase by a route independent of the library's.

Library functions are looked up on their module at call time, so a tracer
installed before `build` sees every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

BATCH_WORKLOADS = ("amalgam", "operators")


@dataclass
class Op:
    label: str
    group: str
    run: Callable[[], object]  # the timed call
    extract: Callable[[object], object]  # small checkable value, taken untimed
    reference: Callable[[], object]  # oracle value, computed once after timing
    kind: str  # key of oracles.TOLERANCES


def _child_int(seed: int, index: int) -> int:
    """An independent integer seed for input number `index`."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def build(workload: str, seed: int) -> tuple[list[Op], list[Callable[[], object]]]:
    """The operations of one batch and the set-up warm-up calls."""
    if workload == "amalgam":
        return _amalgam(seed)
    if workload == "operators":
        schatten_ops, schatten_warmups = _schatten(seed)
        calculus_ops, calculus_warmups = _calculus(seed)
        return schatten_ops + calculus_ops, schatten_warmups + calculus_warmups
    raise ValueError(f"unknown batch workload {workload!r}")


# ---------------------------------------------------------------------------
# amalgam: windowed norms at p = 1, 2, inf over one size mix

P_VALUES = ((1.0, "kato_p1"), (2.0, "kato_p2"), (math.inf, "kato_pinf"))
# (dim, samples per axis, translation points per axis or None for the full
# grid, field kinds, warm-up case). The 2-D N=64 full grid costs ~0.9 s a
# call, so it runs once per p and batch, on one field; each grid is warmed
# up on its cheapest translation grid.
CONTINUOUS_CASES = (
    (1, 1024, None, ("critical", "band"), False),
    (1, 1024, 64, ("critical", "band"), True),
    (2, 32, None, ("critical", "band"), True),
    (2, 64, 16, ("critical", "band"), True),
    (2, 64, None, ("critical",), False),
)
LATTICE_CASES = ((1, 256), (2, 128))
LATTICE_CELLS = 4
ORDER_S = 1.0


def _amalgam_inputs(seed: int, dim: int, n: int, index: int):
    from katokit import ensembles, grid, weights

    spec = grid.make_grid(dim, n)
    order = weights.multi_order(ORDER_S, spec.blocks)
    kmax = n // 2 - 12
    critical = ensembles.critical_ensemble(_child_int(seed, 2 * index), 1, dim, kmax, ORDER_S)
    band = ensembles.spectral_ensemble(_child_int(seed, 2 * index + 1), 1, dim, kmax=10)
    fields = {
        "critical": critical[0].realize(spec),
        "band": band[0].realize(spec),
    }
    length = spec.period
    window = grid.make_bump(
        spec,
        [(length / 8.0, 7.0 * length / 8.0)] * dim,
        [(length / 3.0, 2.0 * length / 3.0)] * dim,
    )
    return spec, order, fields, window


def _kato_call(u, norm_spec):
    from katokit import kato

    return lambda: kato.kato_norm(u, norm_spec)


def _amalgam(seed: int):
    from katokit import kato

    ops: list[Op] = []
    warmups: list[Callable[[], object]] = []
    index = 0
    for dim, n, m, kinds, warm in CONTINUOUS_CASES:
        spec, order, fields, window = _amalgam_inputs(seed, dim, n, index)
        index += 1
        stride = n // (m or n)
        weight = (spec.period / (m or n)) ** dim
        shift_norms = {kind: _ShiftNorms(fields[kind], window.field.samples, order, stride) for kind in kinds}
        for p, group in P_VALUES:
            norm_spec = kato.amalgam_spec(order, p, window, kato.ContinuousScheme(m))
            for kind in kinds:
                u = fields[kind]
                if p == 2.0 and m is None:
                    reference = functools.partial(oracles.full_grid_p2, u, window, order)
                else:
                    reference = functools.partial(shift_norms[kind].aggregate, p, weight)
                label = f"kato_norm p={p:g} {dim}d N={n} M={m or n} {kind}"
                ops.append(Op(label, group, _kato_call(u, norm_spec), float, reference, "amalgam"))
            if warm and p == 2.0:
                warmups.append(_kato_call(fields["critical"], norm_spec))

    for dim, n in LATTICE_CASES:
        spec, order, fields, _ = _amalgam_inputs(seed, dim, n, index)
        index += 1
        route = _LatticeRoute(spec, order, fields["critical"])
        label = f"{dim}d N={n}"
        ones = functools.partial(np.ones, spec.shape)
        ops.append(Op(f"build_partition {label}", "", route.build, oracles.periodization, ones, "partition"))
        for p, group in P_VALUES:
            if p == 2.0:
                ops.append(
                    Op(f"h_equals_k2_ratio {label}", group, route.h_equals_k2, float, route.reference_ratio, "amalgam")
                )
            else:
                run, reference = functools.partial(route.kato, p), functools.partial(route.reference_norm, p)
                ops.append(Op(f"kato_norm p={p:g} lattice {label}", group, run, float, reference, "amalgam"))
        ops.append(
            Op(f"lattice_decomposition_ratio {label}", "", route.decomposition, float, route.reference_ratio, "amalgam")
        )
        warmups.append(route.warm)
    return ops, warmups


class _ShiftNorms:
    """Per-shift norms of one field and window, computed once for all p."""

    def __init__(self, u, window_samples, order, stride: int) -> None:
        self.args = (u, window_samples, order, stride)
        self.norms = None

    def aggregate(self, p: float, weight: float) -> float:
        if self.norms is None:
            self.norms = oracles.per_shift_norms(*self.args)
        return oracles.aggregate(self.norms, p, weight)


class _LatticeRoute:
    """build_partition, then the lattice norms on the partition just built."""

    def __init__(self, spec, order, u) -> None:
        self.spec, self.order, self.u = spec, order, u
        self.partition = None
        self.norms = None

    def build(self):
        from katokit import sobolev

        self.partition = sobolev.build_partition(self.spec, LATTICE_CELLS)
        return self.partition

    def kato(self, p: float) -> float:
        from katokit import kato

        scheme = kato.LatticeScheme(LATTICE_CELLS)
        norm_spec = kato.amalgam_spec(self.order, p, self.partition.master, scheme)
        return kato.kato_norm(self.u, norm_spec)

    def h_equals_k2(self) -> float:
        from katokit import kato

        return kato.h_equals_k2_ratio(self.u, self.order, self.partition)

    def decomposition(self) -> float:
        from katokit import sobolev

        return sobolev.lattice_decomposition_ratio(self.u, self.partition, self.order)

    def warm(self) -> None:
        self.build()
        self.h_equals_k2()

    def reference_norm(self, p: float) -> float:
        if self.norms is None:
            master = self.partition.master.field.samples
            stride = self.spec.samples_per_axis // LATTICE_CELLS
            self.norms = oracles.per_shift_norms(self.u, master, self.order, stride)
        return oracles.aggregate(self.norms, p, 1.0)

    def reference_ratio(self) -> float:
        from katokit import sobolev

        return self.reference_norm(2.0) / sobolev.h_norm(self.u, self.order)


# ---------------------------------------------------------------------------
# operators, part one: quantize, then the SVD and three Schatten norms

SCHATTEN_CASES = ((16, ("gaussian", "separable", "random")), (32, ("gaussian",)))
SCHATTEN_P = (1.0, 2.0, math.inf)
TAU = 0.5


def _schatten(seed: int):
    from katokit import ensembles, grid, psido, weights

    ops: list[Op] = []
    warmups: list[Callable[[], object]] = []
    index = 0
    for n, families in SCHATTEN_CASES:
        spec = grid.make_grid(4, n, period=psido.self_dual_period(n), blocks=(2, 2))
        order = weights.multi_order((2.0, 2.0), (2, 2))
        for family in families:
            symbol = ensembles.symbol_family(family, spec, 2, order, _child_int(seed, index), 1)[0]
            index += 1
            holder = _Quantized(symbol)
            hs = functools.partial(oracles.hilbert_schmidt, symbol)
            ops.append(Op(f"quantize N={n} {family}", "schatten", holder.quantize, holder.frobenius, hs, "schatten"))
            for p in SCHATTEN_P:
                if p == 2.0:
                    reference = hs
                else:
                    reference = functools.partial(holder.reference, p)
                label = f"schatten_norm p={p:g} N={n} {family}"
                ops.append(Op(label, "schatten", functools.partial(holder.norm, p), float, reference, "schatten"))
            if family == families[0]:
                warmups.append(holder.warm)
    return ops, warmups


class _Quantized:
    """One symbol's operator, re-quantized every batch."""

    def __init__(self, symbol) -> None:
        self.symbol = symbol
        self.op = None
        self._singular_values = None

    def quantize(self):
        from katokit import psido

        self.op = psido.quantize(self.symbol, TAU)
        return self.op

    def norm(self, p: float) -> float:
        from katokit import psido

        return psido.schatten_norm(self.op, p)

    @staticmethod
    def frobenius(op) -> float:
        return float(np.linalg.norm(op.entries))

    def reference(self, p: float) -> float:
        if self._singular_values is None:
            from katokit import psido

            entries = psido.quantize(self.symbol, TAU).entries
            self._singular_values = oracles.dilation_singular_values(entries)
        return oracles.schatten(self._singular_values, p)

    def warm(self) -> None:
        from katokit import psido

        psido.schatten_norm(psido.quantize(self.symbol, TAU), 1.0)


# ---------------------------------------------------------------------------
# operators, part two: the contour calculus, d = 1 at N = 256 and d = 2 at N = 32


def _calculus(seed: int):
    from katokit import calculus, ensembles, grid

    spec = grid.make_grid(1, 256)
    u = ensembles.positive_field(spec, _child_int(seed, 0))
    lower = float(np.min(np.abs(u.samples)))
    numer = grid.make_bump(spec, [(2.0, 4.0)]).field
    cutoff = grid.make_bump(spec, [(0.05, 6.1)], [(2.0, 4.0)])
    spec2 = grid.make_grid(2, 32, blocks=(2,))
    f1 = ensembles.positive_field(spec2, _child_int(seed, 1), kmax=4)
    f2 = ensembles.positive_field(spec2, _child_int(seed, 2), kmax=4)
    x = u.samples
    quotient = np.where(np.abs(numer.samples) > 0.0, numer.samples / x, 0.0)

    def apply(fields, make_fn):
        return lambda: calculus.calderon_apply(fields, make_fn())

    cases = [
        ("calderon_apply exp d=1", apply([u], calculus.holo_exp), lambda: np.exp(x)),
        ("calderon_apply square d=1", apply([u], calculus.holo_square), lambda: x**2),
        (
            "calderon_apply reciprocal d=1",
            apply([u], lambda: calculus.holo_reciprocal(lower / 2.0)),
            lambda: 1.0 / x,
        ),
        ("invert d=1", lambda: calculus.invert(u), lambda: 1.0 / x),
        ("divide d=1", lambda: calculus.divide(numer, u, cutoff, lower), lambda: quotient),
        (
            "calderon_apply product2 d=2",
            apply([f1, f2], calculus.holo_product2),
            lambda: f1.samples * f2.samples,
        ),
    ]
    ops = [Op(label, "calderon", run, _result_samples, reference, "calculus") for label, run, reference in cases]
    warmups = [cases[0][1], cases[-1][1]]
    return ops, warmups


def _result_samples(result) -> np.ndarray:
    return np.array(result.field.samples)
