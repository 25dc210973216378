#!/usr/bin/env python3
"""Tropical reading of the log-SDE and the graded exp/log series.

The augmentation sums a graded expression's coefficients, each formal dt or
dW marker counting one.  Tropical max compares augmentations, so the two
branches of D log X trade their markers for a common +1 that cancels:
max{alpha - sigma^2/2 + 1, sigma + 1} = max{alpha - sigma^2/2, sigma} + 1.
"""
from fractions import Fraction

from deltasite import tropical as tr

alpha, sigma = Fraction(1, 10), Fraction(1, 5)
plain = tr.tropicalize_log_sde(alpha, sigma)
marked = tr.tropicalize_log_sde(alpha, sigma, with_markers=True)
print(f"tropical D log X at alpha={alpha}, sigma={sigma}: {plain}")
print(f"with dt/dW markers: {marked} (shift = {marked - plain})")

drift = tr.GradedExpr.make({0: alpha - sigma * sigma / 2}, dt=1)
noise = tr.GradedExpr.make({0: sigma}, dw=1)
print(f"augmentations: drift branch {tr.augmentation(drift)}, "
      f"noise branch {tr.augmentation(noise)}")

# exp as a graded tensor series, with its two candidate inverses
N = 6
e = tr.exp_series(N)
print(f"\nexp coefficients to order {N}: {[str(c) for c in e.coeffs]}")

true_log = tr.log_inverse_series(N)
print(f"reverted log:  {[str(c) for c in true_log.coeffs]}")
print(f"compose(log, exp) = {[str(c) for c in tr.compose(true_log, e).coeffs]}")

literal = tr.paper_log_series(N)
print(f"\nliteral (-1)^n/n series: {[str(c) for c in literal.coeffs]}")
composed = tr.compose(literal, e)
print(f"compose(literal, exp) = {[str(c) for c in composed.coeffs]}")
print(f"order-1 coefficient {composed.coefficient(1)} != 1: "
      "the literal series is a formal decoration, not the inverse")
