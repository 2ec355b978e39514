"""Output checks, run after the timed phase.

Each check returns a list of problems; an operation with any problem counts
as failed.  The references are independent of the library: mpmath for T~,
the closed form for S, and the component rule written out here.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import oracle

TWO_PI = 2.0 * math.pi
# The solver stops once its own T~ is within solver_tol (1e-10) of q; the
# library's T~ agrees with mpmath to about 1e-14, so the oracle allows 1e-12.
T_TOL = 1e-10 + 1e-12
# S of the written branch points must reproduce p at the detection tolerance.
S_TOL = 1e-9
# verify's tolerance for every checklist residual
CHECKLIST_TOL = 1e-7

_WROTE = re.compile(r"wrote (\d+) records to .*?(?: \((\d+) failures\))?(?:;|$)", re.M)
_PARTIAL = re.compile(r"^# partial: (\d+) grid points failed$")


def component(p: Fraction, q: Fraction) -> tuple:
    """Annuli (p = 1) are labelled by q, helicoids by q mod |p - 1|."""
    if p == 1:
        return ("annulus", q)
    step = abs(p - 1)
    return ("helicoid", p, q - math.floor(q / step) * step)


def check_point(p: float, q: float, k: float, u_tilde: float, v_tilde: float) -> list[str]:
    if not u_tilde < v_tilde < u_tilde + TWO_PI:
        return [f"band violated at k={k!r}: u~={u_tilde!r}, v~={v_tilde!r}"]
    t = oracle.t_tilde(p, k, u_tilde, v_tilde)
    if not abs(t - q) <= T_TOL:
        return [f"T~ = {t!r} != q = {q!r} at (k={k!r}, u~={u_tilde!r}, v~={v_tilde!r})"]
    return []


def parse_leaf_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != "p,q,k,u_tilde,v_tilde,re_alpha,im_alpha,re_beta,im_beta":
        raise ValueError("missing column header")
    return comments, [[float(x) for x in ln.split(",")] for ln in body[1:]]


def check_leaf(job: dict, rc: int, stdout: str, csv_text: str, obj_text: str,
               sample: list[int]) -> tuple[list[str], int, int]:
    """Checks one level-set leaf; returns (problems, rows, oracle points checked).

    ``sample`` holds the row indices to check against the mpmath oracle; the
    band and S checks cover every row.
    """
    if rc != 0:
        return [f"level-set exited {rc}"], 0, 0
    m = _WROTE.search(stdout)
    if not m:
        return [f"unexpected stdout {stdout!r}"], 0, 0
    reported, failures = int(m.group(1)), int(m.group(2) or 0)
    try:
        comments, rows = parse_leaf_csv(csv_text)
    except ValueError as exc:
        return [f"bad CSV: {exc}"], 0, 0
    problems = []
    grid = job["k_grid"] * job["angle_grid"]
    partial = [int(x.group(1)) for x in map(_PARTIAL.match, comments) if x]
    if failures:
        problems.append(f"{failures} of {grid} grid points failed to solve")
    if len(rows) != reported or reported + failures != grid:
        problems.append(f"{len(rows)} rows, {reported} reported, {failures} failed, grid {grid}")
    if partial != ([failures] if failures else []):
        problems.append(f"partial header {partial} disagrees with {failures} failures")
    vertices = sum(1 for ln in obj_text.splitlines() if ln.startswith("v "))
    if vertices != len(rows):
        problems.append(f"OBJ has {vertices} vertices for {len(rows)} rows")
    p, q = float(Fraction(job["p"])), float(Fraction(job["q"]))
    for r in rows:
        if r[0] != p or r[1] != q:
            problems.append(f"row labelled ({r[0]}, {r[1]}), expected ({p}, {q})")
            break
        if not r[3] < r[4] < r[3] + TWO_PI:
            problems.append(f"band violated: u~={r[3]!r}, v~={r[4]!r}")
            break
        s = oracle.closing_ratio(complex(r[5], r[6]), complex(r[7], r[8]))
        if not abs(s - p) <= S_TOL * max(1.0, p):
            problems.append(f"S(alpha, beta) = {s!r} != p = {p!r}")
            break
    checked = 0
    for i in sample:
        if i < len(rows):
            r = rows[i]
            problems += check_point(p, q, r[2], r[3], r[4])
            checked += 1
    return problems, len(rows), checked


def check_curve(job: dict, detected, checklist) -> list[str]:
    problems = []
    if job["p"] is None:
        if detected is not None:
            problems.append(f"random pair detected as spectral {detected}")
    else:
        p, q = Fraction(job["p"]), Fraction(job["q"])
        if detected is None:
            problems.append(f"spectral curve ({p}, {q}) not detected")
        elif detected[0] != p or component(*detected) != component(p, q):
            problems.append(f"generated ({p}, {q}) detected as ({detected[0]}, {detected[1]})")
    for e in checklist:
        # a random pair's raw closing integrals (P8) are not integral
        if job["p"] is None and e.item.startswith("P8"):
            continue
        if not e.residual < CHECKLIST_TOL:
            problems.append(f"{e.item} residual {e.residual:.3e}")
    return problems


def check_loop(job: dict, result: int) -> list[str]:
    expect = 0 if job["contractible"] else -Fraction(job["q"]).denominator
    if result != expect:
        return [f"monodromy {result!r}, expected {expect}"]
    return []


def check_solve(job: dict, args: tuple, point) -> list[str]:
    """One solve_level call recorded inside monodromy_track: (p, q, k, angle)."""
    p, q, k, angle = (float(x) for x in args[:4])
    u_tilde, v_tilde = float(point.u_tilde), float(point.v_tilde)
    fixed = v_tilde if p > 1.0 else u_tilde
    problems = [] if fixed == angle else [f"fixed angle moved: {angle!r} -> {fixed!r}"]
    if q != float(Fraction(job["q"])):
        problems.append(f"solve at q={q!r} inside a loop at q={job['q']}")
    return problems + check_point(p, q, k, u_tilde, v_tilde)
