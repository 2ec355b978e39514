"""Seeded job lists for the benchmark workloads.

The job list is a pure function of (workload, seed, seconds): the seed picks
the values, ``seconds`` picks how many jobs.  What drives an operation's
cost is laid out by a fixed design that does not depend on the seed: which
p-category, grid size, curve kind or loop length each slot gets, and where in
the (k, angle, q) box it sits.  The seed jitters each slot within its own
stratum and draws the rest (where each p-category's cycle starts, loop
levels, rotations), so two seeds give different inputs with the same mix and
nearly the same cost.

The rates below size the fixed work so that one run's operations take
roughly ``seconds`` seconds of wall time at the commit that introduced the
benchmark, on the machine it was written on.  They are never compared with a
measurement: a faster program simply finishes the same work sooner.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from fractions import Fraction

LEAF_POINTS_PER_S = 950.0
CURVES_PER_S = 4.5
LOOP_SAMPLES_PER_S = 1000.0

TWO_PI = 2.0 * math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0
Q_RANGE = (-3.0, 3.0)

P_BELOW = ("1/5", "1/3", "1/2", "2/3", "3/4")
P_ABOVE = ("4/3", "3/2", "2", "5/2", "13/5")
P_CATEGORIES = ("below", "one", "above")

# one leaf cycle: four 8x16, two 16x32 and one 32x64 grids, so that the
# median and the tail latency each fall inside one grid size
LEAF_CYCLE = ((8, 16), (8, 16), (16, 32), (8, 16), (8, 16), (16, 32), (32, 64))
CURVE_K = (0.05, 0.85)
# Random pairs: |z| up to R_MAX, Jacobi modulus in RANDOM_K.  Below k = 0.02
# the contour refinement cost grows without bound (one pair at k = 4e-4 took
# 15 s), so a single such draw would set a whole run's throughput; 0.02 is
# also the leaf_sweep k floor.
RANDOM_R_MAX = 0.97
RANDOM_K = (0.02, 0.5)
LOOP_SAMPLES = (64, 96, 128)
LOOP_K = (0.05, 0.95)
CONTRACTIBLE_K = (0.1, 0.9)


def _rational(rng: random.Random, max_abs: int, max_den: int) -> str:
    den = rng.randint(1, max_den)
    return str(Fraction(rng.randint(-max_abs * den, max_abs * den), den))


def _level(x: float) -> str:
    """The rational with denominator at most 5 nearest to x."""
    return str(Fraction(x).limit_denominator(5))


def _p_values(rng: random.Random, category: str, n: int) -> list[str]:
    """n p-values of a category, cycling through its list from a seeded start."""
    if category == "one":
        return ["1"] * n
    values = P_BELOW if category == "below" else P_ABOVE
    start = rng.randrange(len(values))
    return [values[(start + j) % len(values)] for j in range(n)]


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """Slot j of n lies in the j-th equal stratum of [lo, hi), jittered."""
    return [lo + (hi - lo) * (j + rng.random()) / n for j in range(n)]


def _spread(rng: random.Random, n: int, lo: float, hi: float, step: float = GOLDEN
             ) -> list[float]:
    """Slot j of n at the point frac(j * step) of [lo, hi), jittered by up to
    1/n: paired with ``_strata`` (and with another irrational step) it spreads
    n slots evenly over a plane in the same pattern for every seed."""
    return [lo + (hi - lo) * ((j * step + rng.random() / n) % 1.0) for j in range(n)]


def jacobi_k(a: complex, b: complex) -> float:
    """Jacobi modulus of the branch pair (a, b), from its closed form."""
    num = abs(1.0 - a.conjugate() * b)
    dif = abs(a - b)
    return (num - dif) / (num + dif)


def leaf_jobs(rng: random.Random, seconds: float) -> list[dict]:
    """level-set leaves in whole rounds of three LEAF_CYCLEs: slot i has the
    p-category i % 3, so each round gives every slot of the cycle every
    category once, and spans alternate between one and two turns.  The cost
    of a point varies by up to 2x with (p, q), most at large |q|, so the
    leaves of each grid size take q from strata of [-3, 3]."""
    round_points = 3 * sum(k * a for k, a in LEAF_CYCLE)
    n = 3 * len(LEAF_CYCLE) * max(1, round(seconds * LEAF_POINTS_PER_S / round_points))
    grids = [LEAF_CYCLE[i % len(LEAF_CYCLE)] for i in range(n)]
    categories = [P_CATEGORIES[i % 3] for i in range(n)]
    ps = {c: _p_values(rng, c, categories.count(c)) for c in P_CATEGORIES}
    qs = {g: _strata(rng, grids.count(g), *Q_RANGE) for g in set(grids)}
    jobs = []
    for i, category in enumerate(categories):
        k_grid, angle_grid = grids[i]
        turns = 1 + i % 2
        jobs.append({"p": ps[category].pop(0), "q": _level(qs[k_grid, angle_grid].pop(0)),
                     "k_grid": k_grid, "angle_grid": angle_grid,
                     "span": TWO_PI * turns, "turns": turns})
    return jobs


def _spectral_curve(rng, p, q, k, angle, solve_level, inverse_coords):
    redrawn = 0
    while True:
        try:
            bp = inverse_coords(solve_level(float(Fraction(p)), float(Fraction(q)), k, angle))
        except (RuntimeError, ValueError):
            redrawn += 1
            angle = rng.uniform(-math.pi, math.pi)
            continue
        return {"alpha": [bp.alpha.real, bp.alpha.imag], "beta": [bp.beta.real, bp.beta.imag],
                "p": p, "q": q, "k": k}, redrawn


def _random_pair(rng, radius, k):
    """alpha at the given radius and a random angle; beta at pseudo-hyperbolic
    distance (1 - k)/(1 + k) from alpha, which fixes the Jacobi modulus."""
    alpha = cmath.rect(radius, rng.uniform(-math.pi, math.pi))
    delta = (1.0 - k) / (1.0 + k)
    while True:
        w = cmath.rect(delta, rng.uniform(-math.pi, math.pi))
        beta = (w + alpha) / (1.0 + alpha.conjugate() * w)
        if abs(beta) <= RANDOM_R_MAX:
            return {"alpha": [alpha.real, alpha.imag], "beta": [beta.real, beta.imag],
                    "p": None, "q": None, "k": jacobi_k(alpha, beta)}


def curve_jobs(rng: random.Random, seconds: float, solve_level, inverse_coords
               ) -> tuple[list[dict], int]:
    """Every fifth slot is a random (non-spectral) pair; the others are
    spectral curves solved from (p, q, k, angle), cycling through the three
    p-categories.  Cost falls with k and rises where an angle nears the chart
    boundary, so each category spreads its slots over the (k, angle, q) box
    in a fixed pattern.  Every fourth p = 1 curve lies on the
    inversion-symmetric annulus q = 1, whose cost climbs steeply with k, so
    each run holds the same share of it.

    Returns the jobs and the number of generation solves that failed and were
    redrawn (these are input generation, not measured operations).
    """
    n = max(5, round(seconds * CURVES_PER_S))
    kinds = ["random" if i % 5 == 4 else P_CATEGORIES[(i - i // 5) % 3] for i in range(n)]
    plan = {}
    for c in P_CATEGORIES:
        m = kinds.count(c)
        plan[c] = list(zip(_p_values(rng, c, m), _strata(rng, m, *CURVE_K),
                           _spread(rng, m, -math.pi, math.pi),
                           _spread(rng, m, *Q_RANGE, step=SILVER)))
    m = kinds.count("random")
    # area-uniform |alpha| = r_max sqrt(u), paired with the k design
    plan["random"] = list(zip(_strata(rng, m, 0.0, 1.0), _spread(rng, m, *RANDOM_K)))
    jobs, redrawn, n_one = [], 0, 0
    for kind in kinds:
        if kind == "random":
            u, k = plan["random"].pop(0)
            jobs.append(_random_pair(rng, RANDOM_R_MAX * math.sqrt(u), k))
            continue
        p, k, angle, x = plan[kind].pop(0)
        q = _level(x)
        if kind == "one":
            q = "1" if n_one % 4 == 3 else ("6/5" if q == "1" else q)
            n_one += 1
        job, err = _spectral_curve(rng, p, q, k, angle, solve_level, inverse_coords)
        jobs.append(job)
        redrawn += err
    return jobs, redrawn


def loop_jobs(rng: random.Random, seconds: float) -> list[dict]:
    """Every fourth slot is a contractible loop and loop lengths cycle
    64/96/128; within each (kind, length) group the slots spread over the
    (k, start angle) plane in a fixed pattern, because a loop's cost grows
    with its length and as k falls."""
    mean_samples = sum(LOOP_SAMPLES) / len(LOOP_SAMPLES)
    n = max(4, round(seconds * LOOP_SAMPLES_PER_S / mean_samples))
    slots = [(i % 4 == 3, LOOP_SAMPLES[i % 3]) for i in range(n)]
    plan = {}
    for group in sorted(set(slots)):
        m = slots.count(group)
        plan[group] = list(zip(_strata(rng, m, *(CONTRACTIBLE_K if group[0] else LOOP_K)),
                               _spread(rng, m, -math.pi, math.pi)))
    jobs = []
    for contractible, samples in slots:
        k, u_tilde0 = plan[contractible, samples].pop(0)
        jobs.append({"q": _rational(rng, 3, 7), "k": k, "u_tilde0": u_tilde0,
                     "samples": samples, "contractible": contractible})
    return jobs


def digest(jobs: list[dict]) -> str:
    blob = json.dumps(jobs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _share(n: int, total: int) -> float:
    return round(n / total, 4) if total else 0.0


def properties(workload: str, jobs: list[dict]) -> dict:
    """Measured shares of the input properties the workload's cost depends on."""
    n = len(jobs)
    if workload == "leaf_sweep":
        pts = [j["k_grid"] * j["angle_grid"] for j in jobs]
        grids: dict[str, int] = {}
        for j in jobs:
            key = f"{j['k_grid']}x{j['angle_grid']}"
            grids[key] = grids.get(key, 0) + 1
        qs = [Fraction(j["q"]) for j in jobs]
        return {
            "p1_share": _share(sum(j["p"] == "1" for j in jobs), n),
            "p1_point_share": _share(sum(x for j, x in zip(jobs, pts) if j["p"] == "1"), sum(pts)),
            "grid_mix": grids,
            "two_turn_share": _share(sum(j["turns"] == 2 for j in jobs), n),
            "negative_q_share": _share(sum(q < 0 for q in qs), n),
            "abs_q_gt_1_share": _share(sum(abs(q) > 1 for q in qs), n),
        }
    if workload == "curve_census":
        def rmax(j):
            return max(abs(complex(*j["alpha"])), abs(complex(*j["beta"])))
        return {
            "nonspectral_share": _share(sum(j["p"] is None for j in jobs), n),
            "near_circle_share": _share(sum(rmax(j) > 0.9 for j in jobs), n),
            "p1_share": _share(sum(j["p"] == "1" for j in jobs), n),
            "symmetric_annulus_share": _share(sum(j["p"] == j["q"] == "1" for j in jobs), n),
            "k_min": round(min(j["k"] for j in jobs), 4),
        }
    return {
        "contractible_share": _share(sum(j["contractible"] for j in jobs), n),
        "samples_mix": {str(s): sum(j["samples"] == s for j in jobs) for s in LOOP_SAMPLES},
        "nominal_samples": sum(j["samples"] + 1 for j in jobs),
    }
