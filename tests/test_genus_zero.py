"""Homogeneous torus spectral data: closed forms against brute-force oracles."""

import cmath
import math
import re

import numpy as np
import pytest

from harmonictori.genus_zero import (
    Genus0Data, Genus0Map, branch_point, conformal_type, differential_scalars,
    eigenline_branch_points, energy, harmonic_map_eval, holonomy_B,
    invert_map, map_params, normalize_tau, period_lattice, su2_exp,
)

RNG = np.random.default_rng(42)


def random_map():
    return Genus0Map(x=float(RNG.uniform(0.1, 10.0)),
                     delta=float(RNG.uniform(0.1, math.pi - 0.1)))


def exp_series(Z, terms=25):
    """Truncated power series oracle for the matrix exponential."""
    acc = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, terms):
        term = term @ Z / n
        acc = acc + term
    return acc


class TestBranchPoint:
    def test_clifford(self):
        assert branch_point(Genus0Map(1.0, math.pi / 2)) == pytest.approx(0.0, abs=1e-15)

    def test_cayley_oracle(self):
        m = Genus0Map(1.0, math.pi / 4)
        z = 1.0 * cmath.exp(1j * math.pi / 4)
        assert branch_point(m) == pytest.approx((z - 1j) / (z + 1j), abs=1e-15)

    def test_inside_disc_and_round_trip(self):
        for _ in range(100):
            m = random_map()
            a = branch_point(m)
            assert abs(a) < 1.0
            m2 = map_params(a)
            assert m2.x == pytest.approx(m.x, rel=1e-12)
            assert m2.delta == pytest.approx(m.delta, abs=1e-12)

    def test_inversion_identity(self):
        # branch_point(1/x, pi - delta) = -branch_point(x, delta)
        for _ in range(50):
            m = random_map()
            mirrored = Genus0Map(1.0 / m.x, math.pi - m.delta)
            assert branch_point(mirrored) == pytest.approx(-branch_point(m), abs=1e-12)


class TestMapParams:
    def test_center(self):
        m = map_params(0.0)
        assert (m.x, m.delta) == pytest.approx((1.0, math.pi / 2))

    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_real_alpha_keeps_right_angle(self, x):
        m = map_params((x - 1.0) / (x + 1.0))
        assert m.delta == pytest.approx(math.pi / 2, abs=1e-14)
        assert m.x == pytest.approx(x, rel=1e-14)

    def test_oracle_point(self):
        a = 0.3 + 0.4j
        z = 1j * (1 + a) / (1 - a)
        m = map_params(a)
        assert m.x == pytest.approx(abs(z))
        assert m.delta == pytest.approx(cmath.phase(z))
        assert branch_point(m) == pytest.approx(a, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            map_params(1.2)


class TestExponential:
    def test_identity(self):
        assert np.allclose(su2_exp(np.zeros((2, 2))), np.eye(2))

    def test_quarter_turn(self):
        Xhat = np.array([[0, 1], [-1, 0]], dtype=complex)
        out = su2_exp(math.pi / 2 * Xhat)
        assert np.allclose(out, Xhat, atol=1e-15)

    def test_against_series(self):
        for _ in range(20):
            a = RNG.uniform(-2, 2)
            b = complex(*RNG.uniform(-2, 2, 2))
            Z = np.array([[1j * a, b], [-b.conjugate(), -1j * a]])
            assert np.allclose(su2_exp(Z), exp_series(Z), atol=1e-10)

    def test_special_unitary(self):
        for _ in range(20):
            a = RNG.uniform(-3, 3)
            b = complex(*RNG.uniform(-3, 3, 2))
            U = su2_exp(np.array([[1j * a, b], [-b.conjugate(), -1j * a]]))
            assert np.abs(U @ U.conj().T - np.eye(2)).max() < 1e-12
            assert abs(np.linalg.det(U) - 1.0) < 1e-12

    def test_rejects_non_antihermitian(self):
        with pytest.raises(ValueError):
            su2_exp(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


class TestPeriodicity:
    def test_identity_at_origin(self):
        m = random_map()
        assert np.allclose(harmonic_map_eval(m, 0.0), np.eye(2))

    def test_lattice_periods(self):
        for _ in range(10):
            m = random_map()
            lat = period_lattice(m.x)
            w0 = complex(*RNG.uniform(-1, 1, 2))
            g0 = harmonic_map_eval(m, w0)
            for n, mm in ((1, 0), (0, 1), (2, 3), (-1, 2), (3, -3)):
                g1 = harmonic_map_eval(m, w0 + n * lat.kappa1 + mm * lat.kappa2)
                assert np.abs(g1 - g0).max() < 1e-11

    def test_half_period_moves(self):
        m = Genus0Map(1.3, 1.1)
        lat = period_lattice(m.x)
        g = harmonic_map_eval(m, lat.kappa1 / 2)
        assert np.abs(g - np.eye(2)).max() > 0.1

    def test_lattice_values(self):
        lat = period_lattice(1.0)
        q = math.pi / 4
        assert lat.kappa1 == pytest.approx(q * (1 - 1j))
        assert lat.kappa2 == pytest.approx(-q * (1 + 1j))
        lat = period_lattice(2.7)
        assert lat.kappa1 + lat.kappa2 == pytest.approx(-math.pi * 1j / (2 * 2.7))


class TestConformalType:
    def test_square_torus(self):
        tau = conformal_type(((1, 0), (0, 1)), 1.0)
        assert abs(tau) == pytest.approx(1.0)
        assert normalize_tau(tau) == pytest.approx(1j)

    def test_unit_circle_sweep(self):
        for x in np.geomspace(0.05, 20, 17):
            tau = normalize_tau(conformal_type(((1, 0), (0, 1)), x))
            assert abs(tau) == pytest.approx(1.0, abs=1e-12)
            assert tau.imag > 0

    def test_swapped_rows_give_i_directly(self):
        assert conformal_type(((0, 1), (1, 0)), 1.0) == pytest.approx(1j)

    def test_scaling_invariance(self):
        t1 = conformal_type(((1, 0), (0, 1)), 1.7)
        t2 = conformal_type(((2, 0), (0, 2)), 1.7)
        assert t1 == pytest.approx(t2)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            conformal_type(((1, 0), (2, 0)), 1.0)


class TestHolonomy:
    def test_off_diagonal(self):
        for _ in range(10):
            m = random_map()
            lat = period_lattice(m.x)
            zeta = complex(*RNG.uniform(-1, 1, 2)) or 0.3
            B = holonomy_B(1, zeta, m, lat.kappa1)
            assert B[0, 0] == 0 and B[1, 1] == 0

    def test_eigenvalue_formula(self):
        # -det B equals the discriminant prefactor times (z-a)(1-conj(a) z)
        for _ in range(10):
            m = random_map()
            lat = period_lattice(m.x)
            tau = lat.kappa2
            zeta = complex(*RNG.uniform(0.2, 1.2, 2))
            B = holonomy_B(2, zeta, m, tau)
            a = branch_point(m)
            xe = m.x * cmath.exp(1j * m.delta)
            expect = (-(tau + tau.conjugate() * zeta) ** 2 / zeta**2
                      * abs(1 - 1j * xe) ** 2 * (zeta - a) * (1 - a.conjugate() * zeta))
            got = -(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])
            assert got == pytest.approx(expect, rel=1e-12)

    def test_common_eigenvectors(self):
        m = random_map()
        lat = period_lattice(m.x)
        zeta = 0.4 + 0.7j
        B1 = holonomy_B(1, zeta, m, lat.kappa1)
        B2 = holonomy_B(2, zeta, m, lat.kappa2)
        _, v1 = np.linalg.eig(B1)
        for i in range(2):
            w = B2 @ v1[:, i]
            # eigenvector of B1 is an eigenvector of B2
            cross = w[0] * v1[1, i] - w[1] * v1[0, i]
            assert abs(cross) < 1e-10 * max(1.0, np.abs(w).max())


class TestEigenlineBranchPoints:
    def test_clifford(self):
        a, mirror = eigenline_branch_points(Genus0Map(1.0, math.pi / 2))
        assert a == pytest.approx(0.0, abs=1e-15)
        # alpha is zero to rounding, so the mirror point sits at infinity
        assert cmath.isinf(mirror) or abs(mirror) > 1e15

    def test_against_polynomial_oracle(self):
        # roots of the discriminant quadratic -det B * zeta^2/(tau+conj(tau) zeta)^2
        for _ in range(20):
            m = random_map()
            lat = period_lattice(m.x)
            tau = lat.kappa1

            def disc(z):
                B = holonomy_B(1, z, m, tau)
                return (-(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])
                        * z * z / (tau + tau.conjugate() * z) ** 2)

            zs = np.array([0.5, 1.5 + 0.5j, -0.7j])
            V = np.vander(zs, 3, increasing=True)
            coeffs = np.linalg.solve(V, np.array([disc(z) for z in zs]))
            roots = np.roots(coeffs[::-1])
            a, mirror = eigenline_branch_points(m)
            got = sorted(roots, key=abs)
            assert got[0] == pytest.approx(a, abs=1e-9)
            assert got[1] == pytest.approx(mirror, rel=1e-9)

    def test_reflection_pair(self):
        m = random_map()
        a, mirror = eigenline_branch_points(m)
        assert mirror == pytest.approx(1.0 / a.conjugate(), rel=1e-14)

    def test_simple_roots(self):
        # first-order coincidence only: the two roots stay distinct
        for _ in range(10):
            m = random_map()
            a, mirror = eigenline_branch_points(m)
            assert abs(a - mirror) > 1e-6


class TestEnergy:
    def test_identity_matrix_sign(self):
        d = Genus0Data(0.0, ((1, 0), (0, 1)))
        assert energy(d) == pytest.approx(-math.pi**2)
        d = Genus0Data(0.0, ((0, 1), (1, 0)))
        assert energy(d) == pytest.approx(math.pi**2)

    def test_half(self):
        d = Genus0Data(0.5, ((0, 1), (1, 0)))
        assert energy(d) == pytest.approx(5 * math.pi**2 / 3)

    def test_divergence_near_real_axis(self):
        d = Genus0Data(0.999, ((0, 1), (1, 0)))
        assert abs(energy(d)) > 100

    def test_inversion_preserves_energy(self):
        for _ in range(20):
            a = complex(*RNG.uniform(-0.6, 0.6, 2))
            d = Genus0Data(a, ((1, 2), (0, 1)))
            assert energy(invert_map(d)) == pytest.approx(energy(d), rel=1e-13)

    def test_invert_map(self):
        d = Genus0Data(0.3 + 0.1j, ((1, 0), (0, 1)))
        assert invert_map(d).alpha == -0.3 - 0.1j
        assert invert_map(invert_map(d)) == d
        d0 = Genus0Data(0.0, ((1, 0), (0, 1)))
        assert invert_map(d0).alpha == 0.0


class TestDifferentialScalars:
    def test_center(self):
        r1, _ = differential_scalars(0.0)
        assert r1 == pytest.approx(math.pi / 2 * (1 + 1j))

    def test_half(self):
        r1, _ = differential_scalars(0.5)
        assert r1 == pytest.approx(math.pi / 2 * (2 / 3 + 2j))

    def test_alpha_form_matches_first_scalar(self):
        # the closed alpha-expression reproduces r1; r2 is its conjugate
        for _ in range(50):
            a = complex(*RNG.uniform(-0.6, 0.6, 2))
            r1, r2 = differential_scalars(a)
            expect = math.pi / 2 * (1.0 / abs(1 + a) + 1j / abs(1 - a))
            assert r1 == pytest.approx(expect, rel=1e-10)
            assert r2 == pytest.approx(r1.conjugate(), rel=1e-12)


class TestValidation:
    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError):
            Genus0Data(0.1, ((1, 1), (1, 1)))

    def test_rejects_boundary_alpha(self):
        with pytest.raises(ValueError):
            Genus0Data(1.0, ((1, 0), (0, 1)))

    def test_rejects_degenerate_angle(self):
        with pytest.raises(ValueError):
            Genus0Map(1.0, 0.0)
        with pytest.raises(ValueError):
            Genus0Map(-1.0, 1.0)


def _alpha_past_the_disc(alpha):
    """Genus0Data refuses |alpha| >= 1, so alpha is set past its check."""
    d = Genus0Data(alpha=0.3, matrix=((1, 0), (0, 1)))
    object.__setattr__(d, "alpha", complex(alpha))
    return d


@pytest.mark.parametrize("call, message", [
    (lambda: su2_exp(np.zeros((3, 3))), "Z must be 2x2"),
    (lambda: su2_exp(np.diag([1j, 1j])), "Z must be traceless"),
    (lambda: period_lattice(0.0), "x must be positive"),
    (lambda: conformal_type(((1, -1), (0, 1)), 0.0),
     "degenerate period: tau_1 vanishes for this x"),
    (lambda: holonomy_B(3, 0.5, map_params(0.3), 1.0), "l must be 1 or 2"),
    (lambda: holonomy_B(1, 0.0, map_params(0.3), 1.0), "zeta must be nonzero"),
    (lambda: energy(_alpha_past_the_disc(1.0)), "energy is singular at alpha = +-1"),
    (lambda: energy(_alpha_past_the_disc(-1.0)), "energy is singular at alpha = +-1"),
    (lambda: differential_scalars(1.0), "singular at alpha = +-1"),
    (lambda: differential_scalars(-1.0), "singular at alpha = +-1"),
], ids=["su2_exp_3x3", "su2_exp_trace", "period_lattice_x", "conformal_type_tau1",
        "holonomy_l", "holonomy_zeta", "energy_plus_1", "energy_minus_1",
        "differential_scalars_plus_1", "differential_scalars_minus_1"])
def test_invalid_input_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, message", [
    (lambda bad: Genus0Data(alpha=complex(bad, 0.0), matrix=((0, 1), (1, 0))),
     "alpha must lie in the open unit disc"),
    (lambda bad: Genus0Data(alpha=complex(0.0, bad), matrix=((0, 1), (1, 0))),
     "alpha must lie in the open unit disc"),
    (lambda bad: map_params(complex(bad, 0.0)), "alpha must lie in the open unit disc"),
    (lambda bad: map_params(bad), "alpha must lie in the open unit disc"),
    (lambda bad: Genus0Map(x=bad, delta=1.0), "x must be positive and finite"),
    (lambda bad: period_lattice(bad), "x must be positive and finite"),
], ids=["Genus0Data_re", "Genus0Data_im", "map_params_complex", "map_params_float",
        "Genus0Map_x", "period_lattice_x"])
def test_non_finite_input_rejected(call, message, bad):
    # nan fails every comparison, so each check is written to fail on it
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bad)
