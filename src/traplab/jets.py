"""Second-order jet arithmetic in one variable.

``Jet1`` propagates a value together with its first and second derivative
with respect to one scalar variable through arithmetic and elementary
functions.  It is used wherever a radial or one-parameter profile needs exact
derivatives (mollifiers, isotropic metric factors) without hand-coding chain
rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import norm


def elementwise(fn: Callable[[float], float], x):
    """``fn`` of a scalar, or of each entry of an array, one C-library call each.

    numpy picks the SIMD kernel of its vectorised exp and power by CPU, and
    those kernels may round differently from the C library in the last bit;
    calling ``math.exp`` or Python's ``**`` per entry gives the same bits for
    one point and for each point of a stack, on every host.
    """
    if isinstance(x, np.ndarray) and x.ndim:
        return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return fn(float(x))


def _power(x, p: float):
    return x**p if isinstance(x, float) else elementwise(lambda v: v**p, x)


@dataclass
class Jet1:
    """Value with first and second derivative in one variable.

    The three entries are floats, or arrays of one shape for a stack of
    points.
    """

    f: float
    d1: float = 0.0
    d2: float = 0.0

    @classmethod
    def variable(cls, x) -> "Jet1":
        return cls(_real(x), 1.0, 0.0)

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
        if _any(o.f == 0.0):
            raise ZeroDivisionError("jet division by zero value")
        inv = Jet1(
            1.0 / o.f,
            -o.d1 / _power(o.f, 2),
            (2.0 * _power(o.d1, 2) - o.f * o.d2) / _power(o.f, 3),
        )
        return self * inv

    def __rtruediv__(self, other):
        return _as_jet(other) / self

    def __pow__(self, p: float):
        if not float(p).is_integer() and _any(self.f <= 0.0):
            raise ValueError("fractional power of non-positive jet value")
        v = _power(self.f, p)
        return Jet1(
            v,
            p * _power(self.f, p - 1) * self.d1,
            p * (p - 1) * _power(self.f, p - 2) * _power(self.d1, 2)
            + p * _power(self.f, p - 1) * self.d2,
        )

    def exp(self) -> "Jet1":
        v = elementwise(math.exp, self.f)
        return Jet1(v, v * self.d1, v * (_power(self.d1, 2) + self.d2))

    def sin(self) -> "Jet1":
        s, c = elementwise(math.sin, self.f), elementwise(math.cos, self.f)
        return Jet1(s, c * self.d1, -s * _power(self.d1, 2) + c * self.d2)

    def cos(self) -> "Jet1":
        s, c = elementwise(math.sin, self.f), elementwise(math.cos, self.f)
        return Jet1(c, -s * self.d1, -c * _power(self.d1, 2) - s * self.d2)


def _any(flags) -> bool:
    """A comparison of floats, or whether any entry of an array comparison holds."""
    return flags if isinstance(flags, bool) else np.count_nonzero(flags) > 0


def _real(x):
    """A float for a scalar, a float array for an array."""
    return np.asarray(x, dtype=float) if isinstance(x, np.ndarray) and x.ndim else float(x)


def _as_jet(x) -> Jet1:
    if isinstance(x, Jet1):
        return x
    return Jet1(_real(x), 0.0, 0.0)


def smoothstep_down(s) -> Jet1:
    """C-infinity step from 1 at s = 0 to 0 at s = 1, with derivatives.

    Built from the standard exp(-1/u) mollifier, E(u) = exp(-1/u) for u > 0:
    sigma(s) = E(1 - s) / (E(1 - s) + E(s)).  ``s`` may be an array.
    """
    s = _real(s)
    inside = (s > 0.0) & (s < 1.0)
    sj = Jet1.variable(np.where(inside, s, 0.5))
    a = (Jet1.const(-1.0) / (Jet1.const(1.0) - sj)).exp()
    b = (Jet1.const(-1.0) / sj).exp()
    step = a / (a + b)
    return Jet1(
        np.where(inside, step.f, np.where(s <= 0.0, 1.0, 0.0)),
        np.where(inside, step.d1, 0.0),
        np.where(inside, step.d2, 0.0),
    )


def radial_hessian(value: Jet1, offset: np.ndarray) -> tuple:
    """Value, gradient and Hessian of F(|x|) from the radial jet of F.

    ``offset`` is x - center, of shape (..., n) with the radial jet entries
    of the leading shape; at the origin the radial profile must be critical
    (d1 = 0) for the Hessian to exist, which holds for all profiles used
    here.
    """
    offset = np.asarray(offset, dtype=float)
    r = norm(offset)[..., None]
    centre = r < 1e-14
    r = np.where(centre, 1.0, r)
    d1 = np.asarray(value.d1)[..., None]
    d2 = np.asarray(value.d2)[..., None, None]
    xhat = offset / r
    outer = xhat[..., :, None] * xhat[..., None, :]
    eye = np.eye(offset.shape[-1])
    hess = d2 * outer + (d1 / r)[..., None] * (eye - outer)
    # at the centre d1 = 0, so the gradient vanishes, and the Hessian is d2 I
    if np.count_nonzero(centre):
        hess = np.where(centre[..., None], d2 * eye, hess)
    return value.f, d1 * xhat, hess
