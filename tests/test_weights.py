"""Bracket weights, the shifted-weight inequality and convolution constants.

Property statements are written out next to each test.  The closed-form
L^1 norms are cross-checked against an exp-sinh quadrature before any
constant built from them is trusted.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katokit import weights
from katokit.errors import HypothesisError, ShapeError
from katokit.weights import (
    _truncated_convolution,
    bracket,
    conv_bound_constant,
    multi_order,
    multi_weight,
    peetre_check,
    peetre_ratio,
    sigma_params,
    weight_conv_check,
    weight_conv_constant,
    weight_l1_norm,
    weight_l1_norm_quad,
)

# ---------------------------------------------------------------------------
# bracket


def test_bracket_at_origin():
    assert bracket(0.0) == 1.0


def test_bracket_of_three_four():
    # (1 + 9 + 16)^{1/2} = sqrt(26)
    assert bracket(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(26.0))


def test_bracket_dominates_one_and_modulus():
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((1000, 3)) * rng.uniform(0.1, 30.0, size=(1000, 1))
    vals = np.asarray([bracket(row) for row in xi])
    mods = np.linalg.norm(xi, axis=-1)
    assert np.all(vals >= 1.0)
    assert np.all(vals >= mods)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_bracket_even_and_increasing_in_modulus(x):
    """<x> = <-x> and <x> <= <2x> for every real x."""
    assert bracket(x) == bracket(-x)
    assert bracket(x) <= bracket(2.0 * x)


# ---------------------------------------------------------------------------
# block weights


def test_weight_order_zero_is_one():
    order = multi_order(0.0, (2,))
    xi = np.random.default_rng(1).standard_normal((20, 2))
    assert np.max(np.abs(multi_weight(xi, order) - 1.0)) < 1e-15


def test_weight_blockwise_product_value():
    # blocks (1,1), s=(2,-1) at xi=(1,2): <1>^2 <2>^{-1} = 2/sqrt(5)
    order = multi_order((2.0, -1.0), (1, 1))
    got = multi_weight(np.array([1.0, 2.0]), order)
    assert got == pytest.approx(2.0 / math.sqrt(5.0))


def test_weight_rejects_wrong_width():
    order = multi_order((1.0, 1.0), (1, 2))
    with pytest.raises(ShapeError):
        multi_weight(np.zeros(2), order)


# ---------------------------------------------------------------------------
# shifted-weight (Peetre) inequality


def test_peetre_ratio_at_origin():
    # at xi = eta = 0 every bracket is 1, so the ratio is 2^{-|s|_1/2}
    order = multi_order((1.0, -2.0), (1, 1))
    got = peetre_ratio(np.zeros(2), np.zeros(2), order)
    assert got == pytest.approx(2.0 ** (-1.5))


def test_peetre_ratio_order_zero():
    order = multi_order(0.0, (3,))
    rng = np.random.default_rng(2)
    xi = rng.standard_normal((50, 3))
    eta = rng.standard_normal((50, 3))
    assert np.max(peetre_ratio(xi, eta, order)) <= 1.0 + 1e-12


def test_peetre_sweep_never_exceeds_one():
    report = peetre_check(samples=100000, seed=0, max_dim=4, order_bound=3.0, scale=50.0)
    assert report.passed
    assert report.max_ratio <= 1.0 + 1e-12
    assert report.samples == 100000


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_peetre_sweep_fails_when_the_weights_overflow():
    # at a spread of 1e200 the weights overflow and the quotients read NaN,
    # which no batch's worst value may drop
    report = peetre_check(samples=1000, seed=0, scale=1e200)
    assert not report.passed and math.isnan(report.max_ratio)


@pytest.mark.parametrize(
    "named, value",
    [("scale", 0.0), ("scale", -3.0), ("scale", math.nan), ("scale", math.inf)]
    + [("order_bound", -1.0), ("order_bound", math.nan), ("order_bound", math.inf)],
)
def test_peetre_refuses_a_spread_it_cannot_draw(named, value):
    # the spread is drawn from [0.1, scale) and the orders from
    # [-order_bound, order_bound): a value outside is refused, naming it
    with pytest.raises(HypothesisError, match=f"^{named} must be finite"):
        peetre_check(samples=10, **{named: value})


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    xi=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    eta=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_peetre_pointwise_property(s, xi, eta):
    """<xi+eta>^s <= 2^{|s|/2} <xi>^s <eta>^{|s|} for all real xi, eta, s."""
    lhs = bracket(xi + eta) ** s
    rhs = 2.0 ** (abs(s) / 2.0) * bracket(xi) ** s * bracket(eta) ** abs(s)
    assert lhs <= rhs * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# L^1 norms of negative-order weights


@pytest.mark.parametrize("lam,n", [(1.0, 1), (1.5, 1), (3.0, 2), (2.25, 2), (0.8, 1)])
def test_weight_l1_closed_form_matches_quadrature(lam, n):
    assert weight_l1_norm(lam, n) == pytest.approx(weight_l1_norm_quad(lam, n), rel=1e-9)


def test_weight_l1_known_value():
    # || <.>^{-2} ||_{L^1(R)} = integral of (1+x^2)^{-1} = pi
    assert weight_l1_norm(1.0, 1) == pytest.approx(math.pi)


def test_weight_l1_requires_integrability():
    with pytest.raises(HypothesisError):
        weight_l1_norm(0.5, 1)
    with pytest.raises(HypothesisError):
        weight_l1_norm_quad(1.0, 2)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
@pytest.mark.parametrize("norm", [weight_l1_norm, weight_l1_norm_quad])
def test_weight_l1_refuses_a_non_finite_exponent(norm, lam):
    # refused, not answered with nan (or 0.0 from the quadrature at inf)
    with pytest.raises(HypothesisError, match="lam=.*must be finite"):
        norm(lam, 1)


# ---------------------------------------------------------------------------
# convolution bound constants


def test_conv_constant_symmetric_unit_orders():
    # n=1, s=t=1, eps=0.25: sigma = 1 and C = 2^3 ||<.>^{-2}||_{L1} = 8 pi
    params = sigma_params(1.0, 1.0, 0.25, (1,))
    assert params.sigma.s == (1.0,)
    assert weight_conv_constant(params, 0) == pytest.approx(8.0 * math.pi)


def test_conv_constant_negative_order():
    # n=1, s=-0.5, t=2, eps=0.25: sigma = s = -0.5 and
    # C = 2^{1/2} ||<.>^{-3}||_{L1}, the norm checked by quadrature
    params = sigma_params(-0.5, 2.0, 0.25, (1,))
    assert params.sigma.s == (-0.5,)
    want = math.sqrt(2.0) * weight_l1_norm_quad(1.5, 1)
    assert weight_conv_constant(params, 0) == pytest.approx(want, rel=1e-9)


def test_conv_constant_rejects_bad_eps():
    with pytest.raises(HypothesisError):
        conv_bound_constant(1.0, 1.0, 2.0, 1)  # eps >= s + t - n/2
    with pytest.raises(HypothesisError):
        conv_bound_constant(0.2, 0.2, 0.1, 1)  # s + t <= n/2


def trapezoid_convolution_1d(s, t, xi, box, step):
    """Independent trapezoid sum for (<.>^{-2s} * <.>^{-2t})(xi) on [-box, box]."""
    eta = np.arange(-box, box + 0.5 * step, step)
    w = np.ones_like(eta)
    w[0] = w[-1] = 0.5
    return step * float(np.sum((1.0 + (xi - eta) ** 2) ** (-s) * (1.0 + eta**2) ** (-t) * w))


def test_conv_check_symmetric_case_passes():
    params = sigma_params(1.0, 1.0, 0.25, (1,))
    report = weight_conv_check(params, box=24.0, step=0.05, probes_per_block=17)
    assert report.verdict == "PASS"
    assert report.max_ratio <= 1.05


def test_conv_check_nan_tail_is_inconclusive(monkeypatch):
    # a NaN on the narrow box leaves the truncation tail unmeasured
    original = weights._truncated_convolution

    def narrow_nan(s, t, n, box, step, probes):
        return original(s, t, n, box, step, probes) * (math.nan if box == 24.0 else 1.0)

    monkeypatch.setattr(weights, "_truncated_convolution", narrow_nan)
    report = weight_conv_check(sigma_params(1.0, 1.0, 0.25, (1,)), box=24.0, step=0.05, probes_per_block=17)
    assert report.verdict == "INCONCLUSIVE" and math.isnan(report.tail_fraction)


def test_conv_value_at_origin_degenerate_first_factor():
    # s = 0 turns the convolution at xi = 0 into the plain L^1 norm of
    # <.>^{-2t}; the declared bound 2 ||<.>^{-4}||_{L1} then dominates it
    val = trapezoid_convolution_1d(0.0, 2.0, 0.0, 40.0, 0.02)
    assert val == pytest.approx(weight_l1_norm(2.0, 1), rel=1e-4)
    params = sigma_params(0.0, 2.0, 0.25, (1,))
    assert params.sigma.s == (0.0,)
    assert weight_conv_constant(params, 0) == pytest.approx(2.0 * weight_l1_norm(2.0, 1))
    assert val <= weight_conv_constant(params, 0)


def test_conv_check_degenerate_first_factor_passes():
    report = weight_conv_check(sigma_params(0.0, 2.0, 0.25, (1,)), box=24.0, step=0.05)
    assert report.verdict == "PASS"


def test_two_block_convolution_tensor_factorization():
    # with blocks (1,1) the product weight convolution over R^2 is the
    # tensor product of the 1-D convolutions; on a shared tensor quadrature
    # the double sum factors exactly
    box, step = 8.0, 0.1
    eta = np.arange(-box, box + 0.5 * step, step)
    w = np.ones_like(eta)
    w[0] = w[-1] = 0.5
    s, t = 1.0, 1.0
    xi = (0.7, -1.3)
    one_d = [trapezoid_convolution_1d(s, t, x, box, step) for x in xi]
    f1 = (1.0 + (xi[0] - eta) ** 2) ** (-s) * w
    f2 = (1.0 + (xi[1] - eta) ** 2) ** (-s) * w
    g1 = (1.0 + eta**2) ** (-t)
    g2 = (1.0 + eta**2) ** (-t)
    two_d = step * step * float(np.einsum("i,j->", f1 * g1, f2 * g2))
    assert two_d == pytest.approx(one_d[0] * one_d[1], rel=1e-10)


def test_truncated_convolution_at_n2_matches_dense_coordinates():
    # the open-grid coordinates add the same squares in the same order as
    # dense meshgrid coordinates, so the sums agree bit for bit
    box, step, s, t = 6.0, 0.1, 0.8, 0.7
    probes = np.array([[0.0, 0.0], [0.7, -1.3], [3.05, 2.5], [-6.0, 6.0]])
    axis = np.arange(-box, box + 0.5 * step, step)
    w = np.ones_like(axis)
    w[0] = w[-1] = 0.5
    e0, e1 = np.meshgrid(axis, axis, indexing="ij")
    weight_t = (1.0 + e0**2 + e1**2) ** (-t) * np.multiply.outer(w, w)
    want = [step * step * float(np.sum((1.0 + (x0 - e0) ** 2 + (x1 - e1) ** 2) ** (-s) * weight_t)) for x0, x1 in probes]
    assert np.array_equal(_truncated_convolution(s, t, 2, box, step, probes), want)


def test_conv_check_two_blocks():
    params = sigma_params((1.0, 1.0), (1.0, 1.0), (0.25, 0.25), (1, 1))
    report = weight_conv_check(params, box=24.0, step=0.05, probes_per_block=9)
    assert report.verdict == "PASS"
    assert len(report.per_block_ratio) == 2


def test_sigma_params_validation():
    with pytest.raises(ShapeError):
        sigma_params((1.0,), (1.0, 1.0), (0.25,), (1,))
    with pytest.raises(HypothesisError):
        sigma_params(0.1, 0.1, 0.05, (1,))  # s + t <= n/2
