import math

import numpy as np
import pytest

from traplab.jets import Jet1, radial_hessian, smoothstep_down

from _oracles import fd_grad, fd_hess


class TestJet1:
    def test_polynomial(self):
        x = Jet1.variable(1.5)
        y = x * x * x - 2.0 * x + 1.0
        assert y.f == pytest.approx(1.5**3 - 3.0 + 1.0)
        assert y.d1 == pytest.approx(3 * 1.5**2 - 2.0)
        assert y.d2 == pytest.approx(6 * 1.5)

    def test_quotient_and_exp(self):
        x = Jet1.variable(0.7)
        y = (Jet1.const(1.0) / x).exp()

        def f(t):
            return math.exp(1.0 / t)

        h = 1e-5
        assert y.f == pytest.approx(f(0.7))
        assert y.d1 == pytest.approx((f(0.7 + h) - f(0.7 - h)) / (2 * h), rel=1e-8)
        assert y.d2 == pytest.approx((f(0.7 + h) - 2 * f(0.7) + f(0.7 - h)) / h**2, rel=1e-5)

    def test_trig_and_power(self):
        x = Jet1.variable(0.4)
        y = x.sin() * x.cos() + x**2.5
        d1 = math.cos(0.8) + 2.5 * 0.4**1.5
        d2 = -2 * math.sin(0.8) + 2.5 * 1.5 * 0.4**0.5
        assert y.d1 == pytest.approx(d1, rel=1e-12)
        assert y.d2 == pytest.approx(d2, rel=1e-12)

    def test_division_by_zero_value(self):
        with pytest.raises(ZeroDivisionError):
            Jet1.const(1.0) / Jet1.const(0.0)


class TestSmoothstep:
    def test_endpoints_flat(self):
        for s in (0.0, -1.0):
            j = smoothstep_down(s)
            assert (j.f, j.d1, j.d2) == (1.0, 0.0, 0.0)
        for s in (1.0, 2.0):
            j = smoothstep_down(s)
            assert (j.f, j.d1, j.d2) == (0.0, 0.0, 0.0)

    def test_midpoint_strictly_interior_and_decreasing(self):
        j = smoothstep_down(0.5)
        assert 0.0 < j.f < 1.0
        assert j.d1 < 0.0
        values = [smoothstep_down(s).f for s in np.linspace(0.05, 0.95, 19)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_derivatives_match_fd(self):
        h = 1e-6
        for s in (0.2, 0.5, 0.8):
            j = smoothstep_down(s)
            fd1 = (smoothstep_down(s + h).f - smoothstep_down(s - h).f) / (2 * h)
            assert j.d1 == pytest.approx(fd1, rel=1e-7, abs=1e-10)


class TestRadialHessian:
    def test_matches_fd(self, rng):
        def profile(r):
            rj = Jet1.variable(r)
            return (rj * rj * 0.3 + 1.0 / (rj + 1.0)).exp()

        x = np.array([0.6, -0.4, 0.9])
        value, grad, hess = radial_hessian(profile(float(np.linalg.norm(x))), x)

        def scalar(p):
            r = float(np.linalg.norm(p))
            return math.exp(0.3 * r * r + 1.0 / (r + 1.0))

        assert value == pytest.approx(scalar(x))
        assert np.abs(grad - fd_grad(scalar, x)).max() < 1e-7
        assert np.abs(hess - fd_hess(scalar, x)).max() < 1e-5

    def test_origin_isotropic(self):
        j = Jet1(2.0, 0.0, 0.5)
        value, grad, hess = radial_hessian(j, np.zeros(3))
        assert value == 2.0
        assert np.abs(grad).max() == 0.0
        assert np.abs(hess - 0.5 * np.eye(3)).max() == 0.0
