"""Tropical realization of the log-SDE and truncated tensor series.

Graded expressions carry rational (or float) coefficients by degree in the
formal variable nu, plus degree-one markers for the formal symbols dt and dW;
the augmentation sums all coefficients, so each marker evaluates to 1 per
unit.  Series coefficients are exact Fractions throughout; floats only appear
when the caller feeds them in.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import PreconditionError


def _as_exact(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return x


@dataclass(frozen=True)
class GradedExpr:
    coeffs: tuple[tuple[int, object], ...] = ()
    dt: object = 0
    dw: object = 0

    @staticmethod
    def make(coeffs=None, dt=0, dw=0) -> "GradedExpr":
        items = []
        for deg, c in sorted((coeffs or {}).items()):
            if deg < 0:
                raise PreconditionError("degrees must be nonnegative")
            c = _as_exact(c)
            if c != 0:
                items.append((deg, c))
        return GradedExpr(tuple(items), _as_exact(dt), _as_exact(dw))

    def __add__(self, other: "GradedExpr") -> "GradedExpr":
        merged = {d: c for d, c in self.coeffs}
        for d, c in other.coeffs:
            merged[d] = merged.get(d, 0) + c
        return GradedExpr.make(merged, self.dt + other.dt, self.dw + other.dw)


def augmentation(e: GradedExpr):
    """Sum of all coefficients; dt and dW markers count 1 per unit weight."""
    return sum((c for _, c in e.coeffs), start=Fraction(0)) + e.dt + e.dw


def trop_max(a: GradedExpr, b: GradedExpr):
    """max of the augmentations: the tropical reading of a formal sum."""
    return max(augmentation(a), augmentation(b))


def tropicalize_log_sde(alpha, sigma, with_markers: bool = False):
    """Tropical value of the log-price differential.

    The two branches are (alpha - sigma^2/2) dt and sigma dW; tropically each
    marker contributes 1, and since both branches carry exactly one marker the
    shift cancels: with markers the value exceeds the marker-free
    max(alpha - sigma^2/2, sigma) by exactly 1.
    """
    alpha, sigma = _as_exact(alpha), _as_exact(sigma)
    if sigma < 0:
        raise PreconditionError("sigma must be >= 0")
    drift = GradedExpr.make({0: alpha - sigma * sigma / 2}, dt=1 if with_markers else 0)
    noise = GradedExpr.make({0: sigma}, dw=1 if with_markers else 0)
    return trop_max(drift, noise)


# -- truncated tensor series ---------------------------------------------------


@dataclass(frozen=True)
class GradedTensorSeries:
    """Coefficients c_0..c_N of sum_n c_n (tensor^n X), exact rationals."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise PreconditionError(f"degree {n} outside stored order {self.order}")
        return self.coeffs[n]

    def __add__(self, other):
        n = min(self.order, other.order)
        return GradedTensorSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                out[i + j] += a * b
        return GradedTensorSeries(tuple(out))


def exp_series(order: int) -> GradedTensorSeries:
    """exp as coefficients 1/n! up to the truncation order."""
    if order < 0:
        raise PreconditionError("order must be >= 0")
    return GradedTensorSeries(tuple(Fraction(1, factorial(n)) for n in range(order + 1)))


def paper_log_series(order: int) -> GradedTensorSeries:
    """The literal coefficients (-1)^n / n for n >= 1 (constant term 0)."""
    if order < 1:
        raise PreconditionError("order must be >= 1")
    return GradedTensorSeries((0, *(Fraction((-1) ** n, n) for n in range(1, order + 1))))


def compose(outer: GradedTensorSeries, inner: GradedTensorSeries) -> GradedTensorSeries:
    """Substitution outer(inner - inner_0): composition at the inner series'
    basepoint, so exp (constant term 1) composes against log-type series."""
    n = min(outer.order, inner.order)
    shifted = GradedTensorSeries((Fraction(0),) + tuple(inner.coeffs[1: n + 1]))
    out = GradedTensorSeries(tuple([outer.coeffs[0]] + [Fraction(0)] * n))
    power = GradedTensorSeries(tuple([Fraction(1)] + [Fraction(0)] * n))
    for k in range(1, n + 1):
        power = power * shifted
        if outer.coeffs[k] == 0:
            continue
        scaled = GradedTensorSeries(tuple(outer.coeffs[k] * c for c in power.coeffs))
        out = out + scaled
    return out


def log_inverse_series(order: int) -> GradedTensorSeries:
    """The true compositional inverse of exp: log(1 + X), coefficients
    (-1)^(n+1) / n for n >= 1 (constant term 0), paper_log_series negated
    coefficientwise, so that compose(log_inverse_series, exp_series) is the identity."""
    return GradedTensorSeries(tuple(-c for c in paper_log_series(order).coeffs))
