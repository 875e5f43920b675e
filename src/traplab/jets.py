"""Second-order jet arithmetic and finite-difference jet construction.

``Jet1`` propagates a value together with its first and second derivative
with respect to one scalar variable through arithmetic and elementary
functions.  It is used wherever a radial or one-parameter profile needs exact
derivatives (mollifiers, isotropic metric factors) without hand-coding chain
rules.

``fd_metric_jet`` is the fallback for user-supplied metrics given only as a
callable: central differences with one Richardson extrapolation step, which
is accurate to roughly 1e-6 on smooth metrics and feeds the looser 1e-4
verification tier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import MetricJet2, Signature

FD_STEP = 1e-5


@dataclass
class Jet1:
    """Value with first and second derivative in one variable."""

    f: float
    d1: float = 0.0
    d2: float = 0.0

    @classmethod
    def variable(cls, x: float) -> "Jet1":
        return cls(float(x), 1.0, 0.0)

    @classmethod
    def const(cls, c: float) -> "Jet1":
        return cls(float(c), 0.0, 0.0)

    def __add__(self, other):
        o = _as_jet(other)
        return Jet1(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet1(-self.f, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + (-_as_jet(other))

    def __rsub__(self, other):
        return _as_jet(other) + (-self)

    def __mul__(self, other):
        o = _as_jet(other)
        return Jet1(
            self.f * o.f,
            self.d1 * o.f + self.f * o.d1,
            self.d2 * o.f + 2.0 * self.d1 * o.d1 + self.f * o.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_jet(other)
        if o.f == 0.0:
            raise ZeroDivisionError("jet division by zero value")
        inv = Jet1(1.0 / o.f, -o.d1 / o.f**2, (2.0 * o.d1**2 - o.f * o.d2) / o.f**3)
        return self * inv

    def __rtruediv__(self, other):
        return _as_jet(other) / self

    def __pow__(self, p: float):
        if self.f <= 0.0 and not float(p).is_integer():
            raise ValueError("fractional power of non-positive jet value")
        v = self.f**p
        return Jet1(
            v,
            p * self.f ** (p - 1) * self.d1,
            p * (p - 1) * self.f ** (p - 2) * self.d1**2 + p * self.f ** (p - 1) * self.d2,
        )

    def exp(self) -> "Jet1":
        v = math.exp(self.f)
        return Jet1(v, v * self.d1, v * (self.d1**2 + self.d2))

    def sqrt(self) -> "Jet1":
        return self**0.5

    def sin(self) -> "Jet1":
        s, c = math.sin(self.f), math.cos(self.f)
        return Jet1(s, c * self.d1, -s * self.d1**2 + c * self.d2)

    def cos(self) -> "Jet1":
        s, c = math.sin(self.f), math.cos(self.f)
        return Jet1(c, -s * self.d1, -c * self.d1**2 - s * self.d2)


def _as_jet(x) -> Jet1:
    if isinstance(x, Jet1):
        return x
    return Jet1(float(x), 0.0, 0.0)


def _mollifier_edge(u: Jet1) -> Jet1:
    # exp(-1/u) extended by zero for u <= 0; flat to all orders at u = 0
    if u.f <= 0.0:
        return Jet1(0.0, 0.0, 0.0)
    return (Jet1.const(-1.0) / u).exp()


def smoothstep_down(s: float) -> Jet1:
    """C-infinity step from 1 at s = 0 to 0 at s = 1, with derivatives.

    Built from the standard exp(-1/u) mollifier:
    sigma(s) = E(1 - s) / (E(1 - s) + E(s)).
    """
    if s <= 0.0:
        return Jet1(1.0, 0.0, 0.0)
    if s >= 1.0:
        return Jet1(0.0, 0.0, 0.0)
    sj = Jet1.variable(s)
    a = _mollifier_edge(Jet1.const(1.0) - sj)
    b = _mollifier_edge(sj)
    return a / (a + b)


def radial_hessian(value: Jet1, offset: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of F(|x|) from the radial jet of F.

    ``offset`` is x - center; at the origin the radial profile must be
    critical (d1 = 0) for the Hessian to exist, which holds for all profiles
    used here.
    """
    r = float(np.linalg.norm(offset))
    n = offset.shape[0]
    if r < 1e-14:
        return value.f, np.zeros(n), value.d2 * np.eye(n)
    xhat = offset / r
    grad = value.d1 * xhat
    outer = np.outer(xhat, xhat)
    hess = value.d2 * outer + (value.d1 / r) * (np.eye(n) - outer)
    return value.f, grad, hess


def fd_metric_jet(
    g_func: Callable[[np.ndarray], np.ndarray],
    p: np.ndarray,
    signature: Signature = Signature.LORENTZIAN,
) -> MetricJet2:
    """Build a metric 2-jet from a plain metric callable by finite differences.

    First derivatives use Richardson-extrapolated central differences; second
    derivatives use central second-difference stencils.  Suitable for smooth
    metrics at the 1e-4 verification tier.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    step = FD_STEP
    g0 = np.asarray(g_func(p), dtype=float)

    def d1(k: int, h: float) -> np.ndarray:
        e = np.zeros(n)
        e[k] = h
        return (np.asarray(g_func(p + e)) - np.asarray(g_func(p - e))) / (2 * h)

    dg = np.empty((n, n, n))
    for k in range(n):
        coarse = d1(k, step)
        fine = d1(k, step / 2)
        dg[k] = (4 * fine - coarse) / 3

    ddg = np.empty((n, n, n, n))
    for k in range(n):
        ek = np.zeros(n)
        ek[k] = step
        ddg[k, k] = (np.asarray(g_func(p + ek)) - 2 * g0 + np.asarray(g_func(p - ek))) / step**2
        for l in range(k + 1, n):
            el = np.zeros(n)
            el[l] = step
            mixed = (
                np.asarray(g_func(p + ek + el))
                - np.asarray(g_func(p + ek - el))
                - np.asarray(g_func(p - ek + el))
                + np.asarray(g_func(p - ek - el))
            ) / (4 * step**2)
            ddg[k, l] = mixed
            ddg[l, k] = mixed

    # symmetrize away finite-difference noise so jet invariants hold
    dg = 0.5 * (dg + np.swapaxes(dg, 1, 2))
    ddg = 0.5 * (ddg + np.swapaxes(ddg, 2, 3))
    ddg = 0.5 * (ddg + np.swapaxes(ddg, 0, 1))
    g0 = 0.5 * (g0 + g0.T)
    return MetricJet2(n, g0, dg, ddg, signature)
