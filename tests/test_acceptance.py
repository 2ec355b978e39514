"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Criterion 10 is implemented exactly as stated and is a known
failure: the principal-branch level functions, which criteria 2, 3, 5 and 6
pin down numerically, place the inversion-symmetric annulus at level 1
rather than 0 (the two labels agree modulo the closing lattice).  See the
README section on conventions.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from harmonictori.curves import (
    BranchPair, build_frame, deck_lambda_tilde, forward_coords, inverse_coords,
)
from harmonictori.differentials import (
    construct_psi, contour_integral, gamma0_path, loop_A, loop_B,
    monodromy_track, theta_P_gamma_closed,
)
from harmonictori.elliptic import (
    complementary_modulus, complete_E, complete_K, legendre_defect,
)
from harmonictori.genus_zero import (
    Genus0Data, Genus0Map, branch_point, eigenline_branch_points, energy,
    harmonic_map_eval, invert_map, period_lattice,
)
from harmonictori.moduli import (
    T0_value, T_tilde, dT_tilde_du_tilde, dt0_du_raw, solve_level,
    spectral_test, sweep_level_set, t0_raw,
)
from harmonictori.verify import _random_frame, _random_pair

TWO_PI = 2.0 * math.pi


def _report(name: str, residual: float, tol: float, t0: float, limit: float,
            note: str = "") -> None:
    status = "PASS" if residual < tol else "FAIL"
    elapsed = time.time() - t0
    print(f"[{status}] {name}: max residual {residual:.3e} "
          f"(tolerance {tol:.1e}, {elapsed:.1f}s / limit {limit:.0f}s){note}")
    assert elapsed < limit, f"runtime {elapsed:.1f}s over the {limit:.0f}s limit"
    assert residual < tol


def test_criterion_01_legendre_relation():
    t0 = time.time()
    worst = max(abs(legendre_defect(float(k)))
                for k in np.geomspace(1e-6, 1 - 1e-6, 50))
    _report("C1 Legendre relation over 50 moduli", worst, 1e-11, t0, 1.0)


def test_criterion_02_period_table():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        fr = _random_frame(rng)
        K, E = complete_K(fr.k), complete_E(fr.k)
        kp = complementary_modulus(fr.k)
        Kp, Ep = complete_K(kp), complete_E(kp)
        A, B = loop_A(fr), loop_B(fr)
        for kind, loop, expect in (
                ("omega", A, 4 * K), ("e", A, 4 * E),
                ("omega", B, 2j * Kp), ("e", B, 2j * (Kp - Ep)),
                ("theta_P", A, 0.0), ("theta_P", B, 2j * math.pi)):
            val = contour_integral(kind, loop, fr)
            worst = max(worst, abs(val - expect) / max(1.0, abs(expect)))
    _report("C2 period table by contour quadrature", worst, 1e-8, t0, 30.0)


def test_criterion_03_gamma_closed_vs_quadrature():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        fr = _random_frame(rng)
        for s in (1, -1):
            closed = theta_P_gamma_closed(s, fr)
            quad = contour_integral("theta_P", gamma0_path(s, fr), fr)
            worst = max(worst, abs(closed - quad))
    _report("C3 closing integrals closed form vs quadrature", worst, 1e-6,
            t0, 60.0)


def test_criterion_04_coordinate_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        bp = _random_pair(rng)
        bp2 = inverse_coords(forward_coords(bp))
        worst = max(worst, abs(bp2.alpha - bp.alpha), abs(bp2.beta - bp.beta))
    _report("C4 coordinate round trip over 200 pairs", worst, 1e-9, t0, 5.0)


def test_criterion_05_symmetry_and_deck_shift():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for p in (1 / 3, 1 / 2, 1.0, 2.0, 3.0):
        for _ in range(40):
            k = float(rng.uniform(0.1, 0.9))
            u, v = map(float, rng.uniform(-3, 3, 2))
            if abs(u - v) < 1e-2:
                continue
            worst = max(worst, abs(t0_raw(p, k, u, v)
                                   + p * t0_raw(1.0 / p, k, v, u)))
            ut = float(rng.uniform(-math.pi, math.pi - 1e-3))
            vt = ut + float(rng.uniform(0.05, TWO_PI - 0.1))
            from harmonictori.curves import ModuliPoint
            mp = ModuliPoint(p=p, k=k, u_tilde=ut, v_tilde=vt)
            worst = max(worst, abs(T_tilde(deck_lambda_tilde(mp))
                                   - T_tilde(mp) - (p - 1.0)))
    _report("C5 inversion symmetry and deck shift", worst, 1e-9, t0, 10.0)


def test_criterion_06_derivative():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_fd = 0.0
    positive = True
    h = 1e-6
    for _ in range(60):
        p = float(rng.uniform(1.0, 3.0))
        k = float(rng.uniform(0.1, 0.9))
        u, v = map(float, rng.uniform(-3, 3, 2))
        if abs(u - v) < 0.05:
            continue
        d = dt0_du_raw(p, k, u, v)
        positive &= d > 0
        fd = (t0_raw(p, k, u + h, v) - t0_raw(p, k, u - h, v)) / (2 * h)
        worst_fd = max(worst_fd, abs(d - fd) / max(1.0, abs(d)))
        vt = float(rng.uniform(0.2, TWO_PI - 0.2)) + math.pi
        positive &= dT_tilde_du_tilde(p, k, math.pi, vt) > 0
    residual = worst_fd if positive else 1.0
    _report("C6 derivative positivity and finite differences", residual, 1e-6,
            t0, 10.0)


def test_criterion_07_closing_construction():
    t0 = time.time()
    targets = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1, 2)),
               (Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(1, 4)),
               (Fraction(2), Fraction(1, 3))]
    worst = 0.0
    for S, T in targets:
        mp = solve_level(float(S), float(T), 0.5, 0.3)
        fr = build_frame(inverse_coords(mp))
        cd = construct_psi(S, T, fr)
        m, np_, mp_ = S.denominator, T.numerator, T.denominator
        assert cd.l == mp_ // math.gcd(mp_, abs(m * np_)), (S, T, cd.l)
        worst = max(worst, cd.residual)
    _report("C7 minimal closing pair on five targets", worst, 1e-6, t0, 120.0)


def test_criterion_08_monodromy():
    t0 = time.time()
    ok = (monodromy_track(Fraction(0), loop_samples=32) == -1
          and monodromy_track(Fraction(1, 2), loop_samples=32) == -2)
    _report("C8 monodromy shift around two annuli", 0.0 if ok else 1.0, 0.5,
            t0, 120.0)


def test_criterion_09_topology():
    t0 = time.time()
    worst = 0.0
    mesh = sweep_level_set(Fraction(1), Fraction(0), 2, 7, TWO_PI,
                           k_min=0.35, k_max=0.6)
    assert mesh.complete
    for row in range(2):
        worst = max(worst, abs(mesh.alpha[row, 0] - mesh.alpha[row, -1]),
                    abs(mesh.beta[row, 0] - mesh.beta[row, -1]))
    # the half-ratio leaf shifts by p - 1 = -1/2 under the deck generator
    mp0 = solve_level(0.5, 0.0, 0.5, 0.2)
    shift = T_tilde(deck_lambda_tilde(mp0)) - T_tilde(mp0)
    worst = max(worst, abs(shift - (-0.5)) * 1e-1)  # scale into the 1e-8 budget
    assert abs(shift + 0.5) < 1e-9
    bp0 = inverse_coords(mp0)
    bp1 = inverse_coords(solve_level(0.5, 0.0, 0.5, 0.2 + TWO_PI))
    assert abs(bp1.alpha - bp0.alpha) > 1e-3  # helicoid leaves do not close
    _report("C9 annulus closure and helicoid shift", worst, 1e-8, t0, 120.0)


def test_criterion_10_chi_annulus_identification():
    """Faithful transcription of the stated criterion; known to fail.

    The level functions implemented here satisfy the inversion symmetry and
    deck-shift identities of criteria 5 and 6 exactly, and with those
    conventions every inversion-symmetric pair (a, -a) sits at T0 = -1 and
    lifted level 1 (the zero class modulo the closing lattice Z<1, S>).  The
    stated expectation of a literal zero is incompatible with the symmetry
    identity, so this test reports the honest values and fails.
    """
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    detections_ok = True
    for _ in range(50):
        r = float(rng.uniform(0.1, 0.8))
        th = float(rng.uniform(0.03, math.pi - 0.03))
        a = r * np.exp(1j * th)
        bp = BranchPair(a, -a)
        worst = max(worst, abs(T0_value(forward_coords(bp))))
        detections_ok &= spectral_test(bp, 20) == (Fraction(1), Fraction(0))
    residual = worst if detections_ok else max(worst, 1.0)
    _report("C10 chi-annulus at level zero (known convention conflict)",
            residual, 1e-9, t0, 5.0,
            note="  [expected failure: annulus sits at level 1 = 0 mod Z<1,S>]")


def test_criterion_11_genus_zero():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        m = Genus0Map(x=float(rng.uniform(0.2, 5.0)),
                      delta=float(rng.uniform(0.2, math.pi - 0.2)))
        lat = period_lattice(m.x)
        w0 = complex(*rng.uniform(-1, 1, 2))
        g0 = harmonic_map_eval(m, w0)
        for n, mm in ((1, 0), (0, 1), (2, -1)):
            g1 = harmonic_map_eval(m, w0 + n * lat.kappa1 + mm * lat.kappa2)
            worst = max(worst, float(np.abs(g1 - g0).max()) * 1e-3)  # 1e-11 budget
            assert np.abs(g1 - g0).max() < 1e-11
        a, mirror = eigenline_branch_points(m)
        assert abs(a - branch_point(m)) < 1e-9
        assert abs(mirror - 1.0 / a.conjugate()) < 1e-9 * abs(mirror)
    d = Genus0Data(0.0, ((0, 1), (1, 0)))
    assert abs(energy(d) - math.pi**2) < 1e-12
    for _ in range(20):
        al = complex(*rng.uniform(-0.6, 0.6, 2))
        dd = Genus0Data(al, ((0, 1), (1, 0)))
        assert energy(invert_map(dd)) == pytest.approx(energy(dd), rel=1e-12)
    _report("C11 homogeneous torus data", worst, 1e-8, t0, 5.0)
