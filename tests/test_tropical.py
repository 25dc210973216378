from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from deltasite.errors import PreconditionError
from deltasite.tropical import (GradedExpr, augmentation, compose, exp_series,
                                log_inverse_series, paper_log_series, trop_max,
                                tropicalize_log_sde)

rationals = hst.fractions(min_value=-10, max_value=10,
                          max_denominator=12)


def expr(coeffs=None, dt=0, dw=0):
    return GradedExpr.make(coeffs or {}, dt=dt, dw=dw)


def identity_coeffs(order):
    """The coefficients of the series X, to the given order."""
    return tuple(Fraction(int(n == 1)) for n in range(order + 1))


# -- augmentation ----------------------------------------------------------------

def test_augmentation_of_zero():
    assert augmentation(expr()) == 0


def test_augmentation_sums_coefficients():
    assert augmentation(expr({0: 3, 1: 2})) == 5


def test_augmentation_counts_markers_as_one():
    alpha, sigma = Fraction(1, 10), Fraction(1, 5)
    drift = expr({0: alpha - sigma * sigma / 2}, dt=1)
    assert augmentation(drift) == alpha - sigma * sigma / 2 + 1
    noise = expr({0: sigma}, dw=1)
    assert augmentation(noise) == sigma + 1


@settings(max_examples=80)
@given(hst.dictionaries(hst.integers(0, 4), rationals, max_size=4),
       hst.dictionaries(hst.integers(0, 4), rationals, max_size=4))
def test_augmentation_additive(c1, c2):
    a, b = expr(c1), expr(c2)
    assert augmentation(a + b) == augmentation(a) + augmentation(b)


# -- tropical max -----------------------------------------------------------------

def test_trop_max_idempotent():
    e = expr({0: Fraction(3, 7), 2: Fraction(-1, 2)})
    assert trop_max(e, e) == augmentation(e)


@settings(max_examples=80)
@given(hst.dictionaries(hst.integers(0, 3), rationals, max_size=3),
       hst.dictionaries(hst.integers(0, 3), rationals, max_size=3))
def test_trop_max_respects_augmentation_order(c1, c2):
    a, b = expr(c1), expr(c2)
    # comparison oracle: compare the augmentations directly
    ea, eb = augmentation(a), augmentation(b)
    assert trop_max(a, b) == (ea if ea >= eb else eb)


@settings(max_examples=60)
@given(rationals, rationals, rationals)
def test_trop_max_associative_commutative(x, y, z):
    a, b, c = expr({0: x}), expr({0: y}), expr({0: z})
    assert trop_max(a, b) == trop_max(b, a)
    left = max(trop_max(a, b), augmentation(c))
    right = max(augmentation(a), trop_max(b, c))
    assert left == right


@settings(max_examples=80)
@given(rationals, rationals, rationals)
def test_trop_max_shift_invariance(x, y, c):
    a, b = expr({0: x, 1: Fraction(1, 3)}), expr({1: y})
    shift = expr({0: c})
    assert trop_max(a + shift, b + shift) == trop_max(a, b) + c


# -- the tropical log-SDE -----------------------------------------------------------

def test_tropicalize_reference_point():
    assert tropicalize_log_sde(0.1, 0.2) == 0.2


def test_tropicalize_sigma_zero_gives_drift():
    assert tropicalize_log_sde(Fraction(3, 10), 0) == Fraction(3, 10)


def test_tropicalize_tie_returns_common_value():
    sigma = Fraction(1, 5)
    alpha = sigma * sigma / 2 + sigma
    assert tropicalize_log_sde(alpha, sigma) == sigma


def test_tropicalize_marker_shift_is_exactly_one():
    alpha, sigma = Fraction(1, 10), Fraction(1, 5)
    plain = tropicalize_log_sde(alpha, sigma)
    marked = tropicalize_log_sde(alpha, sigma, with_markers=True)
    assert marked - plain == 1


def test_tropicalize_rejects_negative_sigma():
    with pytest.raises(PreconditionError):
        tropicalize_log_sde(0.1, -0.2)


# -- series -----------------------------------------------------------------------

def test_exp_series_order_zero():
    assert exp_series(0).coeffs == (Fraction(1),)


def test_exp_series_small_orders():
    assert exp_series(3).coeffs == (Fraction(1), Fraction(1),
                                    Fraction(1, 2), Fraction(1, 6))


def test_paper_log_series_literal_coefficients():
    assert paper_log_series(3).coeffs == (Fraction(0), Fraction(-1),
                                          Fraction(1, 2), Fraction(-1, 3))


def test_log_inverse_matches_closed_form_oracle():
    # oracle: the alternating harmonic coefficients of log(1+x)
    s = log_inverse_series(8)
    want = tuple([Fraction(0)] + [Fraction((-1) ** (n + 1), n) for n in range(1, 9)])
    assert s.coeffs == want


@pytest.mark.parametrize("series", [log_inverse_series, paper_log_series])
def test_log_series_need_order_one(series):
    with pytest.raises(PreconditionError):
        series(0)


def test_log_inverse_composes_to_identity_order_six():
    n = 6
    got = compose(log_inverse_series(n), exp_series(n))
    assert got.coeffs == identity_coeffs(n)


def test_log_inverse_composes_to_identity_order_forty():
    # the referee independent of the closed form: substitution into exp
    n = 40
    got = compose(log_inverse_series(n), exp_series(n))
    assert got.coeffs == identity_coeffs(n)


def test_paper_log_is_not_an_inverse_at_order_one():
    n = 6
    got = compose(paper_log_series(n), exp_series(n))
    assert got.coefficient(1) == Fraction(-1)
    assert got.coeffs != identity_coeffs(n)


def test_series_arithmetic_is_exact_rational():
    s = compose(log_inverse_series(7), exp_series(7))
    assert all(isinstance(c, Fraction) for c in s.coeffs)
    t = exp_series(5) * paper_log_series(5)
    assert all(isinstance(c, Fraction) for c in t.coeffs)


def test_series_coefficient_bounds():
    s = exp_series(4)
    assert s.coefficient(4) == Fraction(1, 24)
    with pytest.raises(PreconditionError):
        s.coefficient(7)
