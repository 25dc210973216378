#!/usr/bin/env python3
"""The discrete delta operator on Brownian paths.

Three facts drive everything downstream: the product rule with its extra
DeltaX*DeltaY term holds pathwise exactly (it is algebra, not probability);
quadratic variation concentrates at elapsed time as the mesh refines; and
the log of a geometric Brownian motion drifts at alpha - sigma^2/2.
"""
import math

import numpy as np

from deltasite import stochastic as st

# pathwise product rule: exact up to float rounding on every path
x = st.sample_brownian(T=1.0, n=5000, seed=0, stream=0)
y = st.sample_brownian(T=1.0, n=5000, seed=0, stream=1)
print(f"product rule residual: {st.check_product_rule(x, y):.3e}")

# quadratic variation: (dW)^2 = dt in the mesh limit
for n in (1_000, 10_000, 100_000):
    w = st.sample_brownian(T=1.0, n=n, seed=1)
    print(f"n={n:>7}: QV = {st.quadratic_variation(w):.5f} (target 1)")

# Ito residual for f = w^3 shrinks like the square root of the mesh
print("\nIto residual trend for f(w) = w^3 (RMS over 200 paths):")
previous = None
for n in (250, 500, 1000, 2000):
    acc = [st.ito_residual("w3", st.sample_brownian(1.0, n, seed=0, stream=i)) ** 2
           for i in range(200)]
    rms = math.sqrt(math.fsum(acc) / len(acc))
    note = f"  ratio {previous / rms:.3f}" if previous else ""
    print(f"  n={n:>5}: rms={rms:.5f}{note}")
    previous = rms

# geometric Brownian motion: exact lognormal scheme, no discretization bias
params = st.GBMParams(alpha=0.1, sigma=0.2, x0=1.0, T=1.0, n=16, seed=42)
rates = st.gbm_terminal_log_rates(params, 10_000)
est = st.estimate_log_drift(rates)
print(f"\nlog drift over 10^4 paths: {est.mean:.5f} +/- {3 * est.stderr:.5f}"
      f" (alpha - sigma^2/2 = {0.1 - 0.5 * 0.2 ** 2})")
mean_terminal = float(np.mean(params.x0 * np.exp(rates * params.T)))
print(f"mean X_T: {mean_terminal:.5f} vs x0*exp(alpha*T) = {math.exp(0.1):.5f}")
