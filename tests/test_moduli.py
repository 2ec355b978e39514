"""Closing functions S, T0, T~, the level-set solver and component logic."""

import itertools
import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonictori import moduli
from harmonictori.config import DEFAULTS
from harmonictori.curves import (
    _NOT_DISTINCT, _OFF_CHART, _OUTSIDE_DISC, BranchPair, ModuliPoint,
    deck_iota_tilde, deck_lambda_tilde, forward_coords, inverse_coords,
)
from harmonictori.elliptic import complete_E, complete_K
from harmonictori.moduli import (
    ComponentId, LevelSolveError, S_value, T0_value, T_tilde, best_rational,
    classify_component, dT0_du, dT_tilde_du_tilde, dT_tilde_dv_tilde, dt0_du_raw,
    moduli_summary, solve_level, spectral_test, sweep_level_set, t0_raw,
    t_tilde_raw,
)


def test_unreachable_level_stops_when_the_iterate_stalls(monkeypatch):
    # once the next iterate equals the current one every later step repeats
    # it, so both solvers give up there rather than after _MAX_STEPS steps,
    # and the sweep evaluates T~ at each point as often as the scalar solve
    elements = []
    level_part = moduli._level_part

    def counted(k, K, E, x):
        elements.append(np.size(x))
        return level_part(k, K, E, x)
    monkeypatch.setattr(moduli, "_level_part", counted)
    with pytest.raises(LevelSolveError, match="no convergence"):
        solve_level(1.0, 1e15, 0.5, 0.3)
    assert len(elements) <= 60
    elements.clear()
    mesh = sweep_level_set(1, 10 ** 15, 3, 4, 2 * math.pi)
    assert len(mesh.failures) == 12
    swept = sum(elements)
    elements.clear()
    for k, angle, why in mesh.failures:
        with pytest.raises(LevelSolveError, match=re.escape(why)):
            solve_level(1.0, 1e15, k, angle)
    assert swept == sum(elements)


@pytest.mark.parametrize("call, message", [
    (lambda: best_rational(0.5, 0), "max_den must be at least 1"),
    (lambda: classify_component(Fraction(0), Fraction(1, 2)), "p must be positive"),
    (lambda: sweep_level_set(Fraction(1), Fraction(1, 2), 3, 4, 1.0, k_min=0.5, k_max=0.5),
     "need 0 < k_min < k_max < 1"),
    (lambda: sweep_level_set(Fraction(1), Fraction(1, 2), 3, 4, 1.0, k_min=0.6, k_max=0.4),
     "need 0 < k_min < k_max < 1"),
], ids=["best_rational_max_den", "classify_component_p", "sweep_k_equal", "sweep_k_reversed"])
def test_invalid_input_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


RNG = np.random.default_rng(17)


def random_pair(radius=0.8, min_gap=5e-2):
    while True:
        a = complex(*RNG.uniform(-radius, radius, 2))
        b = complex(*RNG.uniform(-radius, radius, 2))
        if abs(a) < radius and abs(b) < radius and abs(a - b) > min_gap:
            return BranchPair(a, b)


def random_point(p=None):
    p = p if p is not None else RNG.uniform(0.25, 4.0)
    k = RNG.uniform(0.1, 0.9)
    ut = RNG.uniform(-math.pi, math.pi - 1e-3)
    vt = ut + RNG.uniform(0.05, 2 * math.pi - 0.1)
    return ModuliPoint(p=p, k=k, u_tilde=ut, v_tilde=vt)


class TestS:
    def test_symmetric(self):
        assert S_value(BranchPair(0.4j, -0.4j)) == pytest.approx(1.0)

    def test_third(self):
        assert S_value(BranchPair(0.0, 0.5)) == pytest.approx(1.0 / 3.0)

    def test_chi_inverts(self):
        for _ in range(100):
            bp = random_pair()
            assert S_value(bp) * S_value(BranchPair(-bp.alpha, -bp.beta)) \
                == pytest.approx(1.0, abs=1e-12)


class TestT0:
    def test_gamma_integral_identity(self):
        # 2 pi i T0 = S * (gamma- integral) - (gamma+ integral)
        from harmonictori.curves import build_frame
        from harmonictori.differentials import theta_P_gamma_closed
        for _ in range(10):
            bp = random_pair()
            fr = build_frame(bp)
            if min(abs(fr.nu - 1), abs(fr.nu + 1)) < 1e-6:
                continue
            s = S_value(bp)
            lhs = 2j * math.pi * t0_raw(s, fr.k, fr.u, fr.v)
            rhs = s * theta_P_gamma_closed(-1, fr) - theta_P_gamma_closed(1, fr)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_symmetric_annulus_principal_value(self):
        # the inversion-symmetric curves carry T0 = -1 in the principal
        # chart (the zero class mod Z<1, S>), and T~ = +1 on the principal lift
        for _ in range(20):
            r, th = RNG.uniform(0.1, 0.8), RNG.uniform(0.05, math.pi - 0.05)
            a = r * np.exp(1j * th)
            bp = BranchPair(a, -a)
            mp = forward_coords(bp)
            assert T0_value(mp) == pytest.approx(-1.0, abs=1e-9)
            assert T_tilde(mp) == pytest.approx(1.0, abs=1e-9)

    def test_inversion_symmetry(self):
        for _ in range(100):
            p = RNG.uniform(0.2, 5.0)
            k = RNG.uniform(0.1, 0.9)
            u, v = RNG.uniform(-3, 3, 2)
            if abs(u - v) < 1e-2:
                continue
            assert t0_raw(p, k, u, v) == pytest.approx(
                -p * t0_raw(1.0 / p, k, v, u), abs=1e-10)

    def test_diverges_on_diagonal(self):
        p, k, v = 1.3, 0.5, 0.7
        assert abs(t0_raw(p, k, v + 1e-4, v)) > 1e3
        assert abs(t0_raw(p, k, v - 1e-4, v)) > 1e3
        with pytest.raises(ValueError):
            t0_raw(p, k, v, v)


class TestTtilde:
    def test_equals_T0_when_windings_vanish(self):
        for _ in range(20):
            k = RNG.uniform(0.1, 0.9)
            ut = RNG.uniform(-math.pi + 0.05, math.pi - 0.1)
            vt = RNG.uniform(ut + 0.05, math.pi - 0.01)
            if vt <= ut:
                continue
            p = RNG.uniform(0.3, 3.0)
            mp = ModuliPoint(p=p, k=k, u_tilde=ut, v_tilde=vt)
            assert T_tilde(mp) == pytest.approx(T0_value(mp), abs=1e-12)

    def test_winding_relation(self):
        from harmonictori.elliptic import wind
        for _ in range(50):
            mp = random_point()
            shift_u = RNG.integers(-2, 3)
            ut = mp.u_tilde + 2 * math.pi * shift_u
            vt = mp.v_tilde + 2 * math.pi * shift_u
            big = ModuliPoint(p=mp.p, k=mp.k, u_tilde=ut, v_tilde=vt)
            expect = (T0_value(big)
                      + 2 * (mp.p * wind(big.v_tilde) - wind(big.u_tilde)))
            assert T_tilde(big) == pytest.approx(expect, abs=1e-10)

    def test_deck_shift(self):
        for p in (1 / 3, 1 / 2, 1.0, 2.0, 3.0):
            for _ in range(40):
                mp = random_point(p=p)
                lam = deck_lambda_tilde(mp)
                assert T_tilde(lam) - T_tilde(mp) == pytest.approx(p - 1.0, abs=1e-9)

    def test_full_turn_shift(self):
        for _ in range(20):
            mp = random_point()
            iota = deck_iota_tilde(mp)
            assert T_tilde(iota) - T_tilde(mp) == pytest.approx(
                2 * (mp.p - 1.0), abs=1e-9)

    def test_range_is_unbounded(self):
        p, k, vt = 1.5, 0.5, 1.0
        assert t_tilde_raw(p, k, vt - 1e-5, vt) > 1e3
        assert t_tilde_raw(p, k, vt - 2 * math.pi + 1e-5, vt) < -1e3


class TestDerivative:
    def test_positive_for_p_geq_1(self):
        for p in (1.0, 1.5, 2.0, 4.0):
            for _ in range(25):
                mp = random_point(p=p)
                assert dT0_du(mp) > 0.0
                assert dT_tilde_du_tilde(p, mp.k, mp.u_tilde, mp.v_tilde) > 0.0

    def test_finite_difference(self):
        h = 1e-6
        for _ in range(50):
            mp = random_point()
            u, v = mp.u, mp.v
            if abs(u - v) < 0.05 or abs(u) > 20:
                continue
            fd = (t0_raw(mp.p, mp.k, u + h, v) - t0_raw(mp.p, mp.k, u - h, v)) / (2 * h)
            assert dt0_du_raw(mp.p, mp.k, u, v) == pytest.approx(fd, rel=1e-6)

    def test_boundary_limit_form(self):
        # at u~ = pi, dT~/du~ matches its neighbours and the u -> inf limit
        p, k = 1.5, 0.45
        vt = math.pi + 1.2
        at_boundary = dT_tilde_du_tilde(p, k, math.pi, vt)
        near = dT_tilde_du_tilde(p, k, math.pi - 1e-7, vt)
        assert at_boundary == pytest.approx(near, rel=1e-6)
        v = math.tan(vt / 2)
        from harmonictori.elliptic import complete_E, complete_K, w_imag
        K, E = complete_K(k), complete_E(k)
        explicit = (-E + p * k * K * w_imag(v, k) + K * (1 + k * k * v * v)) / (math.pi * k)
        assert at_boundary == pytest.approx(explicit, rel=1e-12)


    @pytest.mark.parametrize("p, held", [(1 / 3, "u"), (1.0, "u"), (2.0, "v"), (5 / 2, "v")])
    def test_held_angle_on_the_boundary(self, p, held):
        # dT~ along the free angle while the held angle sits at u~ or v~ = pi
        # (v or u = tan(pi/2) = 1.6e16), against the derivative and a
        # one-sided difference quotient with the held angle at pi - h
        k, h, step = 0.5, 1e-8, 1e-6
        if held == "u":
            free = math.pi + 0.2
            deriv = lambda a: dT_tilde_dv_tilde(p, k, a, free)
            level = lambda a, x: t_tilde_raw(p, k, a, x)
        else:
            free = 0.2
            deriv = lambda a: dT_tilde_du_tilde(p, k, free, a)
            level = lambda a, x: t_tilde_raw(p, k, x, a)
        limit = deriv(math.pi)
        assert math.isfinite(limit)
        assert limit == pytest.approx(deriv(math.pi - h), rel=1e-5)
        quotient = (level(math.pi - h, free) - level(math.pi - h, free - step)) / step
        assert limit == pytest.approx(quotient, rel=1e-4)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_chart_functions_reject_non_finite_chart_values(self, bad):
        # every chart value is finite, the chart boundary's included
        for fn in (t0_raw, dt0_du_raw):
            for u, v in ((bad, -1.3), (-1.3, bad)):
                with pytest.raises(ValueError, match="finite"):
                    fn(0.7, 0.3, u, v)
        with pytest.raises(ValueError, match="T0 is undefined on the diagonal"):
            t0_raw(0.7, 0.3, 1.3, 1.3)
        with pytest.raises(ValueError, match="derivative undefined on the diagonal"):
            dt0_du_raw(0.7, 0.3, 1.3, 1.3)

    @pytest.mark.parametrize("p", [1 / 3, 1.0, 5 / 2])
    def test_array_twins_match_scalar_on_the_boundary(self, p):
        k = 0.5
        K, E = complete_K(k), complete_E(k)
        free = np.array([0.3, 1.7, 2.9])
        pi = np.full(3, math.pi)
        du = moduli._dT_du(p, k, K, E, moduli._chart_value(free - 2 * math.pi),
                           moduli._chart_value(pi))
        dv = moduli._dT_dv(p, k, K, E, moduli._chart_value(pi),
                           moduli._chart_value(free + math.pi))
        assert du.tolist() == [dT_tilde_du_tilde(p, k, x - 2 * math.pi, math.pi) for x in free]
        assert dv.tolist() == [dT_tilde_dv_tilde(p, k, math.pi, x + math.pi) for x in free]
        assert np.isfinite(du).all() and np.isfinite(dv).all()

    @pytest.mark.parametrize("p", [1 / 3, 1.0, 2.0, 5 / 2])
    def test_solve_with_held_angle_on_the_boundary_takes_newton_steps(self, p, monkeypatch):
        # a nan slope there would leave pure bisection: 36 evaluations of T~
        calls = []
        t_tilde = moduli._t_tilde

        def counted(*args):
            calls.append(args)
            return t_tilde(*args)
        monkeypatch.setattr(moduli, "_t_tilde", counted)
        mp = solve_level(p, 0.37, 0.5, math.pi)
        assert 0 < len(calls) <= 12
        assert abs(t_tilde_raw(p, 0.5, mp.u_tilde, mp.v_tilde) - 0.37) < DEFAULTS.solver_tol


def t_tilde_reference(p, k, u_tilde, v_tilde):
    """T~ at the float angles by mpmath at 50 digits, bracket written literally.

    The lifted integrals come from the Jacobi imaginary transformation at
    m = k'^2 with theta = x~/2: F~ = F(theta | m) and
    E~ = F(theta | m) - E(theta | m) + m sin cos / (sqrt(1 - m sin^2) + k).
    At a chart value of 1.6e16 the literal bracket cancels about 16 digits,
    which 50 digits leave room for.
    """
    with mpmath.workdps(50):
        p, k = mpmath.mpf(p), mpmath.mpf(k)
        m = 1 - k * k
        K, E = mpmath.ellipk(k * k), mpmath.ellipe(k * k)

        def share(x_tilde):
            theta = mpmath.mpf(x_tilde) / 2
            s, c = mpmath.sin(theta), mpmath.cos(theta)
            F = mpmath.ellipf(theta, m)
            E_reg = F - mpmath.ellipe(theta, m) + m * s * c / (mpmath.sqrt(1 - m * s * s) + k)
            return E * F - K * E_reg, mpmath.tan(theta)
        (fu, u), (fv, v) = share(u_tilde), share(v_tilde)
        wu = mpmath.sqrt((1 + u * u) * (1 + k * k * u * u))
        wv = mpmath.sqrt((1 + v * v) * (1 + k * k * v * v))
        bracket = p * (wv / (u - v) + k * v) + (wu / (u - v) - k * u)
        return float((4 * p * fv - 4 * fu - 4 * K * bracket) / (2 * mpmath.pi))


class TestChartBoundary:
    """Float odd multiples of pi take the finite chart value tan(x~/2)."""

    @pytest.mark.parametrize("held", ["u", "v"])
    def test_t_tilde_against_mpmath_at_odd_multiples_of_pi(self, held):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(60):
            p = float(rng.uniform(0.2, 4.0))
            k = float(10.0 ** rng.uniform(-6.0, math.log10(0.99)))
            odd = math.pi * (2 * int(rng.integers(-2, 2)) + 1)
            other = float(rng.uniform(1e-3, 2 * math.pi - 1e-3))
            ut, vt = (odd, odd + other) if held == "u" else (odd - other, odd)
            ref = t_tilde_reference(p, k, ut, vt)
            worst = max(worst, abs(t_tilde_raw(p, k, ut, vt) - ref) / max(1.0, abs(ref)))
        assert worst < 1e-13

    def test_solves_with_the_held_angle_on_the_boundary_land_on_their_level(self):
        # small k, where the boundary's chart value and the bracket's
        # cancellation are largest; a solve may still fail where no float
        # angle lies within solver_tol of the root
        rng = np.random.default_rng(29)
        cases = [(2.5, 1.5, 1e-6, 3 * math.pi)] + [
            (float(rng.choice([1 / 3, 1.0, 2.5, float(rng.uniform(0.2, 4.0))])),
             float(rng.uniform(-3.0, 3.0)), float(10.0 ** rng.uniform(-8.0, -3.0)),
             math.pi * (2 * int(rng.integers(-2, 2)) + 1)) for _ in range(80)]
        solved = 0
        for p, q, k, angle in cases:
            try:
                mp = solve_level(p, q, k, angle)
            except LevelSolveError:
                continue
            solved += 1
            assert abs(t_tilde_reference(p, k, mp.u_tilde, mp.v_tilde) - q) <= (
                DEFAULTS.solver_tol + 1e-12), (p, q, k, angle)
        assert solved > len(cases) // 2

    @pytest.mark.parametrize("angle", [0.7, math.pi, -3 * math.pi])
    @pytest.mark.parametrize("fn", [t_tilde_raw, dT_tilde_du_tilde, dT_tilde_dv_tilde])
    def test_lifted_functions_reject_the_diagonal(self, fn, angle):
        with pytest.raises(ValueError, match="diagonal"):
            fn(1.5, 0.5, angle, angle)


class TestTurns:
    """Each whole turn adds pi to an angle's share of T~ (Legendre's relation)."""

    @pytest.mark.parametrize("k", [1e-6, 1e-3, 0.5, 0.9])
    def test_t_tilde_against_mpmath_after_many_turns(self, k):
        # about 160 turns; turn terms 2m K' and 2m (K' - E') would carry the
        # float Legendre defect once per turn, up to 1.1e-14 here
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(60):
            p = float(rng.uniform(0.2, 4.0))
            ut = float(rng.choice([-1e3, 1e3]) + rng.uniform(-1.0, 1.0))
            vt = ut + float(rng.uniform(0.1, 2 * math.pi - 0.1))
            ref = t_tilde_reference(p, k, ut, vt)
            worst = max(worst, abs(t_tilde_raw(p, k, ut, vt) - ref) / max(1.0, abs(ref)))
        assert worst < 4e-15

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_t_tilde_rejects_non_finite_angles(self, bad):
        for ut, vt in ((bad, 0.3), (0.3, bad)):
            with pytest.raises(ValueError, match="finite"):
                t_tilde_raw(1.5, 0.5, ut, vt)


def reference_solve(p, q, k, fixed_angle, tol=DEFAULTS.solver_tol):
    """solve_level as a loop over the public T~ and dT~, which recompute K(k),
    E(k) and the held angle's share on every call, started at the midpoint
    of the band less moduli._EDGE at each end.  Returns the point and the
    free angles at which T~ was evaluated, in order."""
    TWO_PI, evaluated = 2 * math.pi, []
    if p > 1.0:
        lo, hi, sign = fixed_angle - TWO_PI, fixed_angle, 1.0
        level = lambda x: t_tilde_raw(p, k, x, fixed_angle) - q
        slope = lambda x: dT_tilde_du_tilde(p, k, x, fixed_angle)
    else:
        lo, hi, sign = fixed_angle, fixed_angle + TWO_PI, -1.0
        level = lambda x: t_tilde_raw(p, k, fixed_angle, x) - q
        slope = lambda x: dT_tilde_dv_tilde(p, k, fixed_angle, x)

    def f(x):
        evaluated.append(x)
        return level(x)
    a, b = lo + moduli._EDGE, hi - moduli._EDGE
    x = 0.5 * (a + b)
    fx = f(x)
    for _ in range(moduli._MAX_STEPS):
        if abs(fx) < tol:
            break
        if (fx < 0.0) == (sign > 0.0):
            a = x
        else:
            b = x
        d = slope(x)
        step = -fx / d if d != 0.0 else 0.0
        xn = x + step
        if not (min(a, b) < xn < max(a, b)) or step == 0.0:
            xn = 0.5 * (a + b)
        x, fx = xn, f(xn)
    else:
        raise LevelSolveError(f"no convergence for q={q!r}: residual {fx!r}")
    if p > 1.0:
        return ModuliPoint(p=p, k=k, u_tilde=x, v_tilde=fixed_angle), evaluated
    return ModuliPoint(p=p, k=k, u_tilde=fixed_angle, v_tilde=x), evaluated


def solve_cases(seed):
    """Seeded (p, q, k, held angle) over p below, at and above 1, k at both
    ends of (0, 1) and held angles at odd multiples of pi; None draws one."""
    rng = np.random.default_rng(seed)
    for p, k, angle in itertools.product((1 / 3, 1.0, 5 / 2, None), (1e-12, 1 - 1e-12, None),
                                         (math.pi, -math.pi, 3 * math.pi, None)):
        yield (p or float(rng.uniform(0.2, 4.0)), float(rng.uniform(-3.0, 3.0)),
               k or float(rng.uniform(0.02, 0.98)), angle or float(rng.uniform(-9.0, 9.0)))


def warm_starts(case):
    """Starts a quarter, a half and most of the way across the band, and
    just inside its lower end."""
    p, _, _, angle = case
    lo = angle - 2 * math.pi if p > 1.0 else angle
    return [lo + 2 * math.pi * frac for frac in (1e-3, 0.25, 0.5, 0.9)]


def hex_point(mp):
    return mp.p, mp.k, mp.u_tilde.hex(), mp.v_tilde.hex()


class TestSolver:
    @pytest.mark.parametrize("case", list(solve_cases(41)), ids=str)
    def test_cold_solve_matches_the_reference_bit_for_bit(self, case, monkeypatch):
        # every iterate: the free angles at which T~ is evaluated, after the
        # held angle's share, are the reference's evaluation points
        parts = []
        level_part = moduli._level_part

        def recorded(k, K, E, x):
            parts.append(x)
            return level_part(k, K, E, x)
        try:
            expected, evaluated = reference_solve(*case)
        except LevelSolveError as exc:
            with pytest.raises(LevelSolveError, match=re.escape(str(exc))):
                solve_level(*case)
            return
        monkeypatch.setattr(moduli, "_level_part", recorded)
        got = solve_level(*case)
        assert hex_point(got) == hex_point(expected)
        assert [x.hex() for x in parts] == [case[3].hex()] + [x.hex() for x in evaluated]

    @pytest.mark.parametrize("case", [*solve_cases(41), *solve_cases(43)], ids=str)
    def test_cold_solve_is_a_warm_solve_from_the_midpoint(self, case):
        # the same bits, or the same failure, as a start at the bracket's midpoint
        p, _, _, angle = case
        lo, hi = (angle - 2 * math.pi, angle) if p > 1.0 else (angle, angle + 2 * math.pi)
        midpoint = 0.5 * ((lo + moduli._EDGE) + (hi - moduli._EDGE))
        outcomes = []
        for start in (None, midpoint):
            try:
                outcomes.append(hex_point(solve_level(*case, start=start)))
            except LevelSolveError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("p, q, k, angle", [(1 / 3, 0.37, 0.5, 0.2), (1.0, -1.5, 0.2, math.pi),
                                                (5 / 2, 2.0, 0.9, -4.0)])
    def test_start_outside_the_bracket_is_ignored(self, p, q, k, angle):
        cold = solve_level(p, q, k, angle)
        band = (angle - 2 * math.pi, angle) if p > 1.0 else (angle, angle + 2 * math.pi)
        for start in (*band, band[0] - 1.0, band[1] + 0.5, band[0] + 1e-13,
                      math.nan, math.inf, -math.inf):
            assert hex_point(solve_level(p, q, k, angle, start=start)) == hex_point(cold)

    @pytest.mark.parametrize("case", [*solve_cases(41), *solve_cases(43)], ids=str)
    def test_start_inside_the_bracket_solves_the_level(self, case):
        # and fails, with LevelSolveError alone, exactly where a cold solve fails
        p, q, k, angle = case
        try:
            reference_solve(*case)
        except LevelSolveError:
            for start in warm_starts(case):
                with pytest.raises(LevelSolveError):
                    solve_level(*case, start=start)
            return
        for start in warm_starts(case):
            mp = solve_level(*case, start=start)
            assert abs(t_tilde_raw(p, k, mp.u_tilde, mp.v_tilde) - q) < DEFAULTS.solver_tol
            assert (mp.v_tilde if p > 1.0 else mp.u_tilde) == angle
            assert mp.u_tilde < mp.v_tilde < mp.u_tilde + 2 * math.pi

    @pytest.mark.parametrize("case", list(solve_cases(43)), ids=str)
    def test_warm_solve_starts_at_once_inside_the_bracket(self, case, monkeypatch):
        # T~ diverges at the band ends, and a warm solve evaluates it first at
        # the start and then only on [lo + 1e-12, hi - 1e-12], the ends only
        # once bisection of an unreachable level has shrunk onto one
        p, _, _, angle = case
        lo, hi = (angle - 2 * math.pi, angle) if p > 1.0 else (angle, angle + 2 * math.pi)
        edge = moduli._EDGE
        free = []
        level_part = moduli._level_part

        def recorded(k, K, E, x):
            free.append(x)
            return level_part(k, K, E, x)
        monkeypatch.setattr(moduli, "_level_part", recorded)
        for start in warm_starts(case):
            free.clear()
            try:
                solve_level(*case, start=start)
            except LevelSolveError:
                pass
            assert free[:2] == [angle, start]  # the held angle's share comes first
            assert all(lo + edge <= x <= hi - edge for x in free[1:])

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_non_finite_held_angle_rejected(self, angle):
        for p in (1 / 3, 1.0, 2.0):
            with pytest.raises(ValueError, match="held angle must be finite"):
                solve_level(p, 0.2, 0.5, angle)

    def test_chi_annulus_of_level_one(self):
        mp = solve_level(1.0, 1.0, 0.5, 0.3)
        bp = inverse_coords(mp)
        assert abs(bp.alpha + bp.beta) < 1e-8
        assert abs(T_tilde(mp) - 1.0) < 1e-10

    def test_level_solution_consistency(self):
        mp = solve_level(1 / 3, 0.0, 0.5, 0.2)
        assert abs(T_tilde(mp)) < 1e-10
        assert S_value(inverse_coords(mp)) == pytest.approx(1 / 3, abs=1e-9)

    def test_p_geq_one_convention(self):
        mp = solve_level(2.0, 0.4, 0.5, 1.1)
        assert mp.v_tilde == 1.1
        assert mp.v_tilde - 2 * math.pi < mp.u_tilde < mp.v_tilde

    def test_deck_translated_levels_agree(self):
        p, k = 1.7, 0.5
        mp = solve_level(p, 0.37, k, 1.0)
        lam = deck_lambda_tilde(mp)
        mp2 = solve_level(p, 0.37 + (p - 1.0), k, lam.v_tilde)
        assert mp2.u_tilde == pytest.approx(lam.u_tilde, abs=1e-8)

    def test_random_levels(self):
        for _ in range(15):
            p = RNG.uniform(0.3, 3.0)
            q = RNG.uniform(-3, 3)
            k = RNG.uniform(0.15, 0.85)
            ang = RNG.uniform(-2, 2)
            mp = solve_level(p, q, k, ang)
            assert abs(T_tilde(mp) - q) < 1e-10
            assert mp.u_tilde < mp.v_tilde < mp.u_tilde + 2 * math.pi

    def test_graph_property(self):
        # distinct fixed angles give distinct, continuously varying solutions
        p, q, k = 0.6, 0.25, 0.5
        angs = np.linspace(0.0, 1.0, 9)
        sols = [solve_level(p, q, k, a).v_tilde for a in angs]
        diffs = np.diff(sols)
        assert all(abs(d) > 0 for d in diffs)
        assert max(abs(d) for d in diffs) < 1.0


class TestSweep:
    def test_annulus_closes(self):
        mesh = sweep_level_set(Fraction(1), Fraction(0), 3, 9, 2 * math.pi,
                               k_min=0.3, k_max=0.6)
        assert mesh.complete
        for row in range(3):
            assert abs(mesh.alpha[row, 0] - mesh.alpha[row, -1]) < 1e-8
            assert abs(mesh.beta[row, 0] - mesh.beta[row, -1]) < 1e-8

    def test_annulus_half_turn_reaches_relabeled_pair(self):
        # advancing the rescaled free angle by pi lands on the same curve
        # with the branch points relabeled: the annulus closes downstairs
        from harmonictori.curves import angle_rescale
        q, k, ut0 = 0.25, 0.5, 0.3
        mp0 = solve_level(1.0, q, k, ut0)
        bp0 = inverse_coords(mp0)
        rk = math.sqrt(k)
        ut1 = angle_rescale(angle_rescale(ut0, rk) + math.pi, 1.0 / rk)
        bp1 = inverse_coords(solve_level(1.0, q, k, ut1))
        assert abs(bp1.alpha - bp0.beta) < 1e-8
        assert abs(bp1.beta - bp0.alpha) < 1e-8

    def test_helicoid_does_not_close(self):
        mesh = sweep_level_set(Fraction(1, 2), Fraction(0), 2, 7, 2 * math.pi,
                               k_min=0.4, k_max=0.5)
        assert mesh.complete
        assert abs(mesh.alpha[0, 0] - mesh.alpha[0, -1]) > 1e-3

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_level_set(Fraction(1), Fraction(0), 1, 8, 1.0)
        with pytest.raises(ValueError):
            sweep_level_set(Fraction(0), Fraction(0), 2, 8, 1.0)

    def test_helicoid_records_detect_to_same_component(self):
        # principal lifts of swept points may differ from the solved leaf by
        # deck shifts, but the detected ratio and component class are stable
        p, q = Fraction(2), Fraction(1, 3)
        mesh = sweep_level_set(p, q, 2, 6, 2 * math.pi, k_min=0.35, k_max=0.6)
        target = classify_component(p, q)
        assert mesh.solved.all()
        for alpha, beta in zip(mesh.alpha.ravel(), mesh.beta.ravel()):
            got = spectral_test(BranchPair(alpha, beta), 30)
            assert got is not None and got[0] == p
            assert classify_component(*got) == target


def bits(x):
    """The exact bits of a float or complex, sign of zero included."""
    z = complex(x)
    return float(z.real).hex(), float(z.imag).hex()


def scalar_sweep(p, q, k_grid, angle_grid, span, k_min, k_max, angle_start):
    """The sweep as a per-point loop over the scalar solve_level.

    Returns {(k, angle): (u~, v~, alpha, beta)} for solved points and
    {(k, angle): reason} for failed ones, both in grid order.
    """
    solved, failed = {}, {}
    ks = np.linspace(k_min, k_max, k_grid).tolist()
    angles = (angle_start + np.linspace(0.0, span, angle_grid)).tolist()
    for k in ks:
        for ang in angles:
            try:
                mp = solve_level(float(p), float(q), k, ang)
                bp = inverse_coords(mp)
            except (LevelSolveError, ValueError) as exc:
                failed[k, ang] = str(exc)
                continue
            solved[k, ang] = (mp.u_tilde, mp.v_tilde, bp.alpha, bp.beta)
    return solved, failed


def check_batched_against_scalar(p, q, k_grid, angle_grid, span,
                                 k_min=0.02, k_max=0.98, angle_start=0.1):
    """The batched sweep fails where the scalar solve fails, for the same
    reasons and in the same order, solves the other points to the same bits
    of (u~, v~, alpha, beta), holds nan at the failed ones, and every solved
    point solves the level inside the band at its grid angle."""
    mesh = sweep_level_set(p, q, k_grid, angle_grid, span, k_min=k_min,
                           k_max=k_max, angle_start=angle_start)
    solved, failed = scalar_sweep(p, q, k_grid, angle_grid, span, k_min, k_max,
                                  angle_start)
    assert mesh.failures == [(k, a, why) for (k, a), why in failed.items()]
    ks, angles = mesh.k_values, mesh.angle_values
    points = list(zip(*np.nonzero(mesh.solved)))
    columns = (mesh.u_tilde, mesh.v_tilde, mesh.alpha, mesh.beta)
    assert [((ks[i], angles[j]), tuple(bits(c[i, j]) for c in columns))
            for i, j in points] == \
        [(key, tuple(map(bits, vals))) for key, vals in solved.items()]
    for column in columns:
        assert np.isnan(column[~mesh.solved]).all()
    pf, qf = float(p), float(q)
    held = mesh.v_tilde if pf > 1.0 else mesh.u_tilde
    for i, j in points:
        u, v = mesh.u_tilde[i, j], mesh.v_tilde[i, j]
        assert abs(t_tilde_raw(pf, ks[i], u, v) - qf) < DEFAULTS.solver_tol
        assert u < v < u + 2 * math.pi
        assert held[i, j] == angles[j]
    return mesh


class TestBatchedSweep:
    @pytest.mark.parametrize("angle_start", [0.1, math.pi])
    @pytest.mark.parametrize("span", [2 * math.pi, 4 * math.pi])
    @pytest.mark.parametrize("q", [Fraction(-3), Fraction(37, 100), Fraction(3)])
    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1), Fraction(5, 2)])
    def test_matches_scalar_solve(self, p, q, span, angle_start):
        mesh = check_batched_against_scalar(p, q, 4, 7, span, angle_start=angle_start)
        assert mesh.complete

    @pytest.mark.parametrize("q", [10 ** 4, 10 ** 7, 10 ** 9, 10 ** 11])
    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1), Fraction(5, 2)])
    def test_levels_at_the_precision_floor(self, p, q):
        # T~ = q lies near the band ends, and |T~ - q| < solver_tol
        # is out of reach of double precision at most points: the iteration
        # wanders for 100 steps and the residual it ends on is part of the
        # failure reason, so only the same arithmetic reproduces it
        mesh = check_batched_against_scalar(p, Fraction(q), 3, 5, 2 * math.pi)
        assert any(why.startswith("no convergence") for _, _, why in mesh.failures)

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1), Fraction(5, 2)])
    def test_unreachable_level_fails_everywhere(self, p):
        mesh = check_batched_against_scalar(p, Fraction(10 ** 15), 3, 4, 2 * math.pi,
                                            angle_start=math.pi)
        assert not mesh.solved.any() and len(mesh.failures) == 12
        assert all(why.startswith("no convergence") for _, _, why in mesh.failures)

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1), Fraction(5, 2)])
    def test_coordinate_rejections_match_scalar(self, p):
        # at k near 1e-35 solved points have |beta| rounding to 1, which
        # inverse_coords rejects; the sweep fails them with the same reason
        mesh = check_batched_against_scalar(p, Fraction(37, 100), 2, 5, 2 * math.pi,
                                            k_min=1e-40, k_max=1e-30)
        assert any(why == "branch points must lie in the open unit disc"
                   for _, _, why in mesh.failures)

    def test_tiny_k_sweep_is_warning_free(self):
        # below k ~ 1e-154 k^2 underflows to 0; that must stay silent, and a
        # point there either solves its level or the coordinate map rejects it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mesh = check_batched_against_scalar(Fraction(1, 3), Fraction(37, 100), 3, 4,
                                                6.28, k_min=1e-160, k_max=0.5)
        assert mesh.solved[1:].all()
        k = mesh.k_values[0]
        failed = {angle: why for k_, angle, why in mesh.failures if k_ == k}
        for j, angle in enumerate(mesh.angle_values):
            if mesh.solved[0, j]:
                u, v = mesh.u_tilde[0, j], mesh.v_tilde[0, j]
                assert abs(t_tilde_raw(1 / 3, k, u, v) - 0.37) < DEFAULTS.solver_tol
            else:
                assert failed[angle] in (_OUTSIDE_DISC, _NOT_DISTINCT, _OFF_CHART)

    def test_rejected_branch_pairs_join_the_failures(self, monkeypatch):
        # a point the coordinate map rejects fails like a point the solver
        # fails: nan in every grid array, listed in grid order with its reason
        map_leaf = moduli._inverse_coords_array

        def rejecting(p, k, u_tilde, v_tilde):
            alpha, beta, reasons = map_leaf(p, k, u_tilde, v_tilde)
            reasons[0] = reasons[6] = "branch points must be distinct"
            return alpha, beta, reasons
        monkeypatch.setattr(moduli, "_inverse_coords_array", rejecting)
        mesh = sweep_level_set(Fraction(1), Fraction(37, 100), 3, 4, math.pi)
        ks, angles = mesh.k_values, mesh.angle_values
        assert mesh.failures == [(ks[0], angles[0], "branch points must be distinct"),
                                 (ks[1], angles[2], "branch points must be distinct")]
        assert mesh.solved.sum() == 10 and not mesh.solved[0, 0] and not mesh.solved[1, 2]
        for grid in (mesh.u_tilde, mesh.v_tilde, mesh.alpha, mesh.beta):
            assert np.isnan(grid[0, 0]) and np.isnan(grid[1, 2])
            assert not np.isnan(np.delete(grid.ravel(), [0, 6])).any()

    def test_per_point_arrays_match_scalar_solves(self):
        # points that form no grid: each k repeats and they come out of
        # order, some held angles are float odd multiples of pi, and a few
        # points sit on a level out of reach
        rng = np.random.default_rng(41)
        n, boundary = 200, [m * math.pi for m in (-3, -1, 1, 3)]
        ks = rng.choice(rng.uniform(0.02, 0.98, 15), n)
        angles = np.where(rng.random(n) < 0.3, rng.choice(boundary, n),
                          rng.uniform(-4 * math.pi, 4 * math.pi, n))
        ps = rng.choice([1 / 3, 1.0, 5 / 2], n)
        qs = np.where(rng.random(n) < 0.05, 1e15, rng.choice([-2.05, 0.37, 1.6], n))
        outcomes = []
        for p, q in sorted(set(zip(ps.tolist(), qs.tolist()))):
            at = np.flatnonzero((ps == p) & (qs == q))
            solved, reasons = moduli._solve_level_grid(p, q, ks[at], angles[at],
                                                       DEFAULTS.solver_tol)
            for x, why, k, angle in zip(solved.tolist(), reasons, ks[at].tolist(),
                                        angles[at].tolist()):
                try:
                    mp = solve_level(p, q, k, angle)
                except LevelSolveError as exc:
                    assert math.isnan(x) and why == str(exc)
                    outcomes.append("failed")
                    continue
                assert why is None
                assert x.hex() == (mp.u_tilde if p > 1.0 else mp.v_tilde).hex()
                outcomes.append("solved on the boundary" if angle in boundary else "solved")
        assert len(outcomes) == n and len(set(outcomes)) == 3

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(p=st.fractions(Fraction(1, 4), Fraction(4), max_denominator=6),
           q=st.fractions(Fraction(-3), Fraction(3), max_denominator=100),
           k_min=st.floats(0.02, 0.5), k_width=st.floats(0.01, 0.48),
           angle_start=st.one_of(st.sampled_from([math.pi, -math.pi, 3 * math.pi]),
                                 st.floats(-10.0, 10.0)),
           span=st.one_of(st.sampled_from([2 * math.pi, 4 * math.pi]),
                          st.floats(0.1, 4 * math.pi)),
           k_grid=st.integers(2, 4), angle_grid=st.integers(2, 6))
    def test_property_matches_scalar_solve(self, p, q, k_min, k_width, angle_start,
                                           span, k_grid, angle_grid):
        check_batched_against_scalar(p, q, k_grid, angle_grid, span, k_min=k_min,
                                     k_max=k_min + k_width, angle_start=angle_start)


class TestClassification:
    def test_annulus(self):
        c = classify_component(Fraction(1), Fraction(3))
        assert c == ComponentId("annulus", Fraction(1), Fraction(3))

    def test_helicoid_residues(self):
        a = classify_component(Fraction(1, 2), Fraction(0))
        b = classify_component(Fraction(1, 2), Fraction(-1, 2))
        assert a == b
        assert a.q_class == Fraction(0)

    def test_integer_p(self):
        assert classify_component(Fraction(2), Fraction(0)) == \
            classify_component(Fraction(2), Fraction(1))
        assert classify_component(Fraction(2), Fraction(1, 2)) != \
            classify_component(Fraction(2), Fraction(0))

    def test_residue_canonical_range(self):
        for _ in range(50):
            p = Fraction(int(RNG.integers(1, 9)), int(RNG.integers(1, 9)))
            if p == 1:
                continue
            q = Fraction(int(RNG.integers(-20, 20)), int(RNG.integers(1, 9)))
            r = classify_component(p, q).q_class
            assert 0 <= r < abs(p - 1)


class TestSpectralDetection:
    def test_round_trip(self):
        mp = solve_level(1 / 3, 1 / 4, 0.5, 0.2)
        assert spectral_test(inverse_coords(mp), 20) == (Fraction(1, 3), Fraction(1, 4))

    def test_generic_pair_rejected(self):
        assert spectral_test(BranchPair(0.3 + 0.2j, 0.4 - 0.1j), 20) is None

    def test_chi_fixed_curves(self):
        # intrinsic label of the inversion-symmetric annulus is (1, 1)
        got = spectral_test(BranchPair(0.25 + 0.15j, -0.25 - 0.15j), 20)
        assert got == (Fraction(1), Fraction(1))

    def test_best_rational(self):
        # 311/99 is the semiconvergent beating 22/7 under the same cap
        assert best_rational(math.pi, 100) == Fraction(311, 99)
        assert best_rational(math.pi, 7) == Fraction(22, 7)
        assert best_rational(math.pi, 1000) == Fraction(355, 113)
        assert best_rational(-0.25, 10) == Fraction(-1, 4)


class TestSummary:
    def test_annulus_zero(self):
        s = moduli_summary(Fraction(1), Fraction(0))
        assert (s.l, s.monodromy) == (1, -1)
        assert s.component.kind == "annulus"

    def test_annulus_half(self):
        s = moduli_summary(Fraction(1), Fraction(1, 2))
        assert (s.l, s.monodromy) == (2, -2)

    def test_helicoid(self):
        s = moduli_summary(Fraction(1, 3), Fraction(0))
        assert s.component.kind == "helicoid"
        assert s.l == 1
        assert s.monodromy is None
        assert "Mat2*(Z) x S^1" in s.fibre

    def test_l_values(self):
        assert moduli_summary(Fraction(1, 3), Fraction(1, 4)).l == 4
        assert moduli_summary(Fraction(2), Fraction(1, 3)).l == 3
