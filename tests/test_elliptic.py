"""Elliptic integral layer: oracles first, then the lifted functions."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import elliprd, elliprf

import harmonictori.elliptic
from harmonictori.differentials import _gamma_plus
from harmonictori.elliptic import (
    _axis_angle, _chart_value, _complete, _complete_KE, _FE, _half_angle,
    complementary_KE, complementary_modulus, complete_E, complete_K, incomplete_E_reg_imag,
    incomplete_F_imag, legendre_defect, lifted_E, lifted_F, w_imag,
)
from harmonictori.moduli import solve_level

# independent quadrature oracles on the defining integrals


def K_oracle(k):
    val, _ = quad(lambda t: 1.0 / math.sqrt(1 - k * k * math.sin(t) ** 2),
                  0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)
    return val


def E_oracle(k):
    val, _ = quad(lambda t: math.sqrt(1 - k * k * math.sin(t) ** 2),
                  0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)
    return val


def Fi_oracle(x, k):
    val, _ = quad(lambda t: 1.0 / math.sqrt((1 + t * t) * (1 + k * k * t * t)),
                  0, x, epsabs=1e-14, epsrel=1e-14)
    return val


def Ei_oracle(x, k):
    def f(t):
        a = math.sqrt(1 + t * t)
        return (1 - k * k) / (a * (math.sqrt(1 + k * k * t * t) + k * a))
    val, _ = quad(f, 0, x, epsabs=1e-14, epsrel=1e-14)
    return val


class TestComplete:
    def test_small_k_limit(self):
        assert complete_K(1e-12) == pytest.approx(math.pi / 2, abs=1e-10)
        assert complete_E(1e-12) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_frozen_values(self):
        # oracle values computed from the defining integrals at 1e-14
        assert complete_K(0.5) == pytest.approx(1.6857503548125963, abs=1e-13)
        assert complete_E(0.5) == pytest.approx(1.4674622093394272, abs=1e-13)

    @pytest.mark.parametrize("k", [0.1, 0.33, 0.5, 0.77, 0.9, 0.99])
    def test_against_oracle(self, k):
        assert complete_K(k) == pytest.approx(K_oracle(k), abs=1e-13)
        assert complete_E(k) == pytest.approx(E_oracle(k), abs=1e-13)

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
    def test_ordering(self, k):
        assert complete_K(k) > complete_E(k) > 1.0

    def test_monotonicity(self):
        ks = np.linspace(0.05, 0.95, 19)
        Ks = [complete_K(k) for k in ks]
        Es = [complete_E(k) for k in ks]
        assert all(b > a for a, b in zip(Ks, Ks[1:]))
        assert all(b < a for a, b in zip(Es, Es[1:]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            complete_K(bad)


class TestLegendre:
    @pytest.mark.parametrize("k,tol", [(0.5, 1e-11), (0.999, 1e-10), (1e-6, 1e-9)])
    def test_pointwise(self, k, tol):
        assert abs(legendre_defect(k)) < tol

    def test_grid(self):
        ks = np.geomspace(1e-6, 1 - 1e-6, 50)
        assert max(abs(legendre_defect(k)) for k in ks) < 1e-11


def test_complete_KE_against_mpmath():
    # toward both ends of (0, 1): K, E from R_F, R_D at (1 - k)(1 + k)
    ks = np.concatenate([np.geomspace(1e-10, 0.5, 60), 1 - np.geomspace(1e-12, 0.5, 60)])
    with mp.workdps(40):
        for k in ks.tolist():
            m = mp.mpf(k) ** 2
            assert complete_K(k) == pytest.approx(float(mp.ellipk(m)), rel=1e-14), k
            assert complete_E(k) == pytest.approx(float(mp.ellipe(m)), rel=1e-14), k


@pytest.mark.parametrize("k", [1e-8, 1e-6, 0.5, 1 - 1e-9])
def test_complementary_KE_against_mpmath(k):
    # the round trip through sqrt(1 - k^2) is off by 2e-2 at k = 1e-8
    with mp.workdps(40):
        m = 1 - mp.mpf(k) ** 2
        Kp = mp.ellipk(m)
        Kp_Ep = Kp - mp.ellipe(m)
    got_Kp, got_Kp_Ep = complementary_KE(k)
    assert got_Kp == pytest.approx(float(Kp), rel=1e-14)
    assert got_Kp_Ep == pytest.approx(float(Kp_Ep), rel=1e-14)


class TestImaginaryAxis:
    def test_w_values(self):
        assert w_imag(0.0, 0.3) == 1.0
        assert w_imag(1.0, 0.5) == pytest.approx(math.sqrt(2.5), rel=1e-15)

    @pytest.mark.parametrize("u", [3.0, -3.0])
    def test_w_lower_bound(self, u):
        k = 0.5
        assert w_imag(u, k) > math.sqrt(1 + k * k) * abs(u)

    def test_F_zero_and_oracle(self):
        assert incomplete_F_imag(0.0, 0.5) == 0.0
        assert incomplete_F_imag(1.0, 0.5) == pytest.approx(
            0.8512237490711854, abs=1e-12)
        assert incomplete_F_imag(0.7, 0.31) == pytest.approx(
            Fi_oracle(0.7, 0.31), abs=1e-12)

    def test_E_zero_and_oracle(self):
        assert incomplete_E_reg_imag(0.0, 0.5) == 0.0
        assert incomplete_E_reg_imag(2.0, 0.3) == pytest.approx(
            0.9087558987419291, abs=1e-12)

    def test_limits_at_infinity(self):
        k = 0.5
        kp = complementary_modulus(k)
        assert incomplete_F_imag(1e6, k) == pytest.approx(complete_K(kp), abs=1e-5)
        assert incomplete_E_reg_imag(1e6, k) == pytest.approx(
            complete_K(kp) - complete_E(kp), abs=1e-5)

    def test_odd_increasing_bounded(self):
        k = 0.42
        kp = complementary_modulus(k)
        xs = np.linspace(-8, 8, 33)
        vals = [incomplete_F_imag(x, k) for x in xs]
        for x, v in zip(xs, vals):
            assert incomplete_F_imag(-x, k) == pytest.approx(-v, abs=1e-14)
            assert abs(v) < complete_K(kp)
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLifted:
    def test_zero(self):
        assert lifted_F(0.0, 0.5) == 0.0
        assert lifted_E(0.0, 0.5) == 0.0

    def test_full_turn_increments(self):
        k = 0.5
        kp = complementary_modulus(k)
        assert lifted_F(2 * math.pi, k) == pytest.approx(
            2 * complete_K(kp), abs=1e-11)
        assert lifted_E(2 * math.pi, k) == pytest.approx(
            2 * (complete_K(kp) - complete_E(kp)), abs=1e-11)

    def test_chart_consistency(self):
        k = 0.5
        assert lifted_F(math.pi / 2, k) == pytest.approx(
            incomplete_F_imag(1.0, k), abs=1e-12)
        for xt in np.linspace(-math.pi + 0.01, math.pi - 0.01, 21):
            assert lifted_F(xt, k) == pytest.approx(
                incomplete_F_imag(math.tan(xt / 2), k), abs=1e-12)
            assert lifted_E(xt, k) == pytest.approx(
                incomplete_E_reg_imag(math.tan(xt / 2), k), abs=1e-12)

    @pytest.mark.parametrize("k", [1e-8, 1e-6, 1e-3])
    def test_full_turn_increments_small_k(self, k):
        # K' and E' must not pass through sqrt(1 - k^2) and back
        with mp.workdps(40):
            Kp = mp.ellipk(1 - mp.mpf(k) ** 2)
            Kp_Ep = Kp - mp.ellipe(1 - mp.mpf(k) ** 2)
        assert lifted_F(2 * math.pi, k) == pytest.approx(float(2 * Kp), rel=1e-14)
        assert lifted_E(2 * math.pi, k) == pytest.approx(float(2 * Kp_Ep), rel=1e-14)

    def test_half_angle_on_an_array_is_the_float_calls(self):
        rng = np.random.default_rng(19)
        odd = [math.pi * j for j in range(-41, 42, 2)]
        xs = np.array([0.0, -0.0, 1e-300, 2 * math.pi, math.pi - 1e-9, 1e8, -1e8,
                       *odd, *(x + y for x in odd[::5] for y in (-1e-15, 1e-15)),
                       *rng.uniform(-40.0, 40.0, 200), *(10.0 ** rng.uniform(2.0, 8.0, 100)
                                                         * rng.choice([-1.0, 1.0], 100))])
        assert [tuple(x.hex() for x in row) for row in zip(*_half_angle(xs))] == \
            [tuple(float(x).hex() for x in _half_angle(x)) for x in xs.tolist()]
        ulp = 2.0 ** -52
        with mp.workdps(40):
            for x in xs.tolist():
                m, s, c, u = _half_angle(x)
                assert m == int(m) and c > 0.0 and u == float(np.tan(0.5 * x))
                assert abs(s * s + c * c - 1.0) <= 4 * ulp
                reduced = mp.mpf(x) / 2 - int(m) * mp.pi
                assert abs(math.atan2(s, c) - reduced) <= 4 * ulp, x

    @pytest.mark.parametrize("fn", [lifted_F, lifted_E])
    @pytest.mark.parametrize("x_tilde", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, fn, x_tilde):
        with pytest.raises(ValueError, match="finite"):
            fn(x_tilde, 0.5)

    def test_quasi_periodicity(self):
        # E F~(x+2pi) - K E~(x+2pi) = E F~(x) - K E~(x) + pi
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = rng.uniform(0.05, 0.95)
            xt = rng.uniform(-10, 10)
            K, E = complete_K(k), complete_E(k)
            lhs = E * lifted_F(xt + 2 * math.pi, k) - K * lifted_E(xt + 2 * math.pi, k)
            rhs = E * lifted_F(xt, k) - K * lifted_E(xt, k) + math.pi
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_single_case_quasi_period(self):
        k, xt = 0.4, 0.7
        K, E = complete_K(k), complete_E(k)
        lhs = E * lifted_F(xt + 2 * math.pi, k) - K * lifted_E(xt + 2 * math.pi, k)
        rhs = E * lifted_F(xt, k) - K * lifted_E(xt, k) + math.pi
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_oddness(self):
        k = 0.3
        for xt in (0.4, 2.0, 5.5, 9.1):
            assert lifted_F(-xt, k) == pytest.approx(-lifted_F(xt, k), abs=1e-12)
            assert lifted_E(-xt, k) == pytest.approx(-lifted_E(xt, k), abs=1e-12)

    def test_strictly_increasing(self):
        k = 0.6
        xs = np.linspace(-7, 7, 57)
        vals = [lifted_F(x, k) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


# 40-digit mpmath oracle at the edges of the domain.  With phi the angle of
# the Jacobi imaginary transformation (arctan x on the axis, x~/2 on the
# cover), F = F(phi | 1 - k^2) and E_reg = F - E + k'^2 sin cos / (sqrt(y) + k)
# with y = 1 - k'^2 sin^2 phi; mpmath continues F and E past |phi| = pi/2.

def _mp_F_E_reg(phi, k):
    m = 1 - mp.mpf(k) ** 2
    s, c = mp.sin(phi), mp.cos(phi)
    F = mp.ellipf(phi, m)
    return F, F - mp.ellipe(phi, m) + m * s * c / (mp.sqrt(1 - m * s * s) + k)


EDGE_X = [0.0, 1e-12, -1e-12, 1.0, -1.0, 1e6, -1e6, 1e200, -1e200,
          math.inf, -math.inf]
EDGE_X_TILDE = [math.pi, -math.pi, math.pi - 1e-9, 2 * math.pi, 7.0, -20.0, 100.0]


@pytest.mark.parametrize("k", [1e-8, 1e-6, 1e-3, 0.5, 1 - 1e-6, 1 - 1e-9])
def test_edges_against_mpmath(k):
    with mp.workdps(40):
        Kp = float(mp.ellipk(1 - mp.mpf(k) ** 2))
        cases = []
        for x in EDGE_X:
            F, E = _mp_F_E_reg(mp.atan(mp.mpf(x)), k)
            cases += [(incomplete_F_imag, x, F), (incomplete_E_reg_imag, x, E)]
        for xt in EDGE_X_TILDE:
            F, E = _mp_F_E_reg(mp.mpf(xt) / 2, k)
            cases += [(lifted_F, xt, F), (lifted_E, xt, E)]
    for fn, arg, ref in cases:
        ref = float(ref)
        assert abs(fn(arg, k) - ref) <= 1e-14 * max(1.0, abs(ref), Kp), (
            fn.__name__, arg, fn(arg, k), ref)


# _FE and _complete evaluate floats through scipy.special.cython_special and
# arrays through the elliprf/elliprd ufuncs; both must give the same bits.

def _bits(values):
    return [float(v).hex() for v in values]


FE_EDGE_K = [1e-300, 1e-8, 0.5, 1.0 - 2.0 ** -53]
FE_EDGE_SC = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (1e-300, 1.0), (-1e-300, 1.0)]


def _FE_points():
    rng = np.random.default_rng(20)
    phi = rng.uniform(-math.pi / 2, math.pi / 2, 400)
    ks = np.concatenate([rng.uniform(0.0, 1.0, 200), 10.0 ** rng.uniform(-12, 0, 200)])
    ks = np.clip(ks, 1e-300, 1.0 - 2.0 ** -53)
    points = [(math.sin(a), math.cos(a), k) for a, k in zip(phi.tolist(), ks.tolist())]
    return points + [(s, c, k) for k in FE_EDGE_K for s, c in FE_EDGE_SC]


def test_FE_float_path_matches_array_path_bit_for_bit():
    s, c, k = map(list, zip(*_FE_points()))
    F_arr, E_arr = _FE(np.array(s), np.array(c), np.array(k))
    floats = [_FE(*point) for point in zip(s, c, k)]
    assert all(type(F) is float and type(E) is float for F, E in floats)
    assert _bits(F for F, _ in floats) == _bits(F_arr)
    assert _bits(E for _, E in floats) == _bits(E_arr)


@pytest.mark.parametrize("k", FE_EDGE_K + [0.3, 1e-150])
def test_complete_matches_the_ufuncs_bit_for_bit(k):
    for m, m1 in ((k * k, (1.0 - k) * (1.0 + k)), ((1.0 - k) * (1.0 + k), k * k)):
        K, KmE = _complete(m, m1)
        assert type(K) is float and type(KmE) is float
        ufunc = (elliprf(0.0, m1, 1.0), m * (elliprd(0.0, m1, 1.0) / 3.0))
        assert _bits((K, KmE)) == _bits(ufunc)


def test_complete_KE_of_an_array_is_the_float_values_bit_for_bit():
    # one array pass over the moduli, repeated ones included, gives each
    # point the (K, E) of its float
    rng = np.random.default_rng(23)
    ks = np.concatenate([rng.uniform(0.0, 1.0, 300), 10.0 ** rng.uniform(-12, 0, 100),
                         1.0 - 10.0 ** rng.uniform(-15, 0, 100), FE_EDGE_K])
    ks = rng.permutation(np.concatenate([ks, ks[:50]]))
    K, E = _complete_KE(ks)
    floats = [_complete_KE(k) for k in ks.tolist()]
    assert _bits(K) == _bits(K for K, _ in floats) and _bits(E) == _bits(E for _, E in floats)


def test_serial_path_makes_no_ufunc_call(monkeypatch):
    # scalar solves, the one a monodromy loop starts from among them, and
    # the gamma+ closed form at one point's floats take every R_F and R_D
    # from the float functions: with the ufuncs made to raise they return as
    # before
    def serial():
        mp = solve_level(1.0, 0.3, 0.41, 0.7)
        gamma = _gamma_plus(mp.p, mp.k, *_complete_KE(mp.k),
                            _chart_value(mp.u_tilde), _chart_value(mp.v_tilde))
        return mp, solve_level(2.5, 0.3, 0.37, 0.2), gamma
    expected = serial()

    def refuse(*args):
        raise AssertionError("ufunc called on the serial path")
    monkeypatch.setattr(harmonictori.elliptic, "elliprf", refuse)
    monkeypatch.setattr(harmonictori.elliptic, "elliprd", refuse)
    assert serial() == expected


def test_axis_angle_of_an_array_is_its_floats_bit_for_bit():
    # numpy's hypot for floats and arrays alike, the same ufunc loop, where
    # math.hypot can differ from it in the last bit
    x = np.random.default_rng(5).uniform(-2.0, 2.0, 2000)
    s, c = _axis_angle(x)
    floats = [_axis_angle(v) for v in x.tolist()]
    assert _bits(s) == _bits(sf for sf, _ in floats)
    assert _bits(c) == _bits(cf for _, cf in floats)


@pytest.mark.parametrize("fn", [lifted_F, lifted_E])
def test_lifted_integrals_evaluate_at_the_float_of_the_angle(fn):
    # a float32 angle is taken as its float, not evaluated in float32
    # (lifted_F(np.float32(30.0), 0.5) gave np.float32(20.809708))
    got, want = fn(np.float32(30.0), 0.5), fn(float(np.float32(30.0)), 0.5)
    assert type(got) is float and got.hex() == want.hex()
