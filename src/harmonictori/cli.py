"""Command-line front end and file export.

Subcommands:

- ``curve-info``  closing data and the spectral-data checklist for one curve
- ``level-set``   sample a moduli-space leaf to delimited text and OBJ mesh
- ``enumerate``   distinct path components at a fixed ratio p
- ``genus0``      homogeneous torus report from (alpha, matrix)
- ``verify``      run the seeded invariant suites

Exit codes: 0 success, 1 usage or invalid input, 2 curve not spectral at the
detection tolerance, 3 verification failure.  Rationals cross the boundary
as exact "n/m" strings.  All floating-point output is serialized at 17
significant digits and carries no timestamps, so identical configuration and
arguments produce byte-identical files.  ``main`` builds its parser on its
first call and reuses it for every later call in the process, and
``level-set`` writes each of its files with one write; identical inputs
still give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .config import CONFIG_ENV_VAR, RunConfig, load_config
from .curves import BranchPair, build_frame
from .differentials import (
    ClosingData, ContinuationError, construct_psi, hitchin_checklist,
)
from .genus_zero import (
    Genus0Data, branch_point, conformal_type, differential_scalars,
    energy, harmonic_map_eval, map_params, normalize_tau, period_lattice,
)
from .moduli import (
    LevelSetMesh, S_value, moduli_summary, spectral_test, sweep_level_set,
)
from .verify import SUITES, run_suites

import numpy as np

def f17(x: float) -> str:
    return format(float(x), ".17g")


def c17(z: complex) -> str:
    return f"{f17(z.real)} {'+' if z.imag >= 0 else '-'} {f17(abs(z.imag))}i"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise ValueError(f"expected RE,IM, got {text!r}") from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"expected a rational like 3/4, got {text!r}") from exc


@dataclass
class CurveReport:
    alpha: complex
    beta: complex
    k: float
    p: float
    spectral: tuple[Fraction, Fraction] | None
    closing: ClosingData | None
    checklist: list

    def render(self) -> str:
        lines = ["curve report", "------------"]
        lines.append(f"alpha      = {c17(self.alpha)}")
        lines.append(f"beta       = {c17(self.beta)}")
        lines.append(f"modulus k  = {f17(self.k)}")
        lines.append(f"ratio S    = {f17(self.p)}")
        if self.spectral is None:
            lines.append("spectral   = no (at the detection tolerance)")
        else:
            ps, qs = self.spectral
            summ = moduli_summary(ps, qs)
            comp = summ.component
            lines.append(f"spectral   = yes: p = {ps}, q = {qs}")
            lines.append(f"component  = {comp.kind}(p={comp.p}, q_class={comp.q_class})")
            lines.append(f"fibre      = {summ.fibre}")
            if summ.monodromy is not None:
                lines.append(f"monodromy  = {summ.monodromy}")
        if self.closing is not None:
            cd = self.closing
            lines.append(f"closing    = l={cd.l}, a={f17(cd.a)}, b={f17(cd.b)}, "
                         f"integers=({cd.n}, {cd.m}, {cd.gamma_plus}, {cd.gamma_minus}), "
                         f"residual={cd.residual:.3e}")
        lines.append("checklist:")
        for e in self.checklist:
            lines.append(f"  {e.item:34s} residual {e.residual:.3e}  ({e.detail})")
        return "\n".join(lines)


def cmd_curve_info(args, cfg: RunConfig) -> int:
    alpha = _parse_complex(args.alpha)
    beta = _parse_complex(args.beta)
    if args.max_den < 1:
        raise ValueError("max-den must be at least 1")
    bp = BranchPair(alpha, beta)
    frame = build_frame(bp)
    detected = spectral_test(bp, args.max_den, cfg.detection_tol)
    closing = None
    if detected is not None:
        try:
            closing = construct_psi(detected[0], detected[1], frame)
        except (ValueError, ContinuationError) as exc:
            print(f"warning: closing construction failed: {exc}", file=sys.stderr)
    try:
        checklist = hitchin_checklist(frame, closing)
    except (ValueError, ContinuationError) as exc:
        print(f"error: checklist failed: {exc}", file=sys.stderr)
        return 1
    report = CurveReport(alpha=alpha, beta=beta, k=frame.k, p=S_value(bp),
                         spectral=detected, closing=closing, checklist=checklist)
    print(report.render())
    return 0 if detected is not None else 2


def _solved_text(mesh: LevelSetMesh) -> tuple[list[str], ...]:
    """The %.17g text of k, u~, v~, Re/Im alpha and Re/Im beta at each solved
    point, k-major.  Each distinct float is formatted once: k once per grid
    row, the held angle (u~ for p <= 1, v~ for p > 1) once per grid column."""
    ok = mesh.solved

    def per_point(grid):
        return list(map("%.17g".__mod__, grid[ok].tolist()))

    def per_line(values, shape):
        text = np.array(list(map("%.17g".__mod__, values)), dtype=object).reshape(shape)
        return np.broadcast_to(text, ok.shape)[ok].tolist()

    held = per_line(mesh.angle_values, (1, -1))
    u, v = (per_point(mesh.u_tilde), held) if mesh.p > 1 else (held, per_point(mesh.v_tilde))
    return (per_line(mesh.k_values, (-1, 1)), u, v, *map(per_point, (
        mesh.alpha.real, mesh.alpha.imag, mesh.beta.real, mesh.beta.imag)))


def _rows(*columns: list) -> tuple:
    """The entries of equal-length columns, row by row."""
    flat = [None] * (len(columns) * len(columns[0]))
    for j, column in enumerate(columns):
        flat[j::len(columns)] = column
    return tuple(flat)


def _write_leaf(mesh: LevelSetMesh, cfg: RunConfig, span: float, path: str,
                mesh_path: str = "") -> None:
    """The leaf as CSV at ``path`` and, given ``mesh_path``, as an ASCII OBJ
    triangle mesh with the (Re alpha, Im alpha, k) embedding: the solved
    points are the vertices, and each grid quad whose four corners solved
    gives two triangles.  One write per file, from one _solved_text(mesh)."""
    text = _solved_text(mesh)
    n = len(text[0])
    row = f"{f17(float(mesh.p))},{f17(float(mesh.q))}," + ",".join(["%s"] * 7) + "\n"
    partial = "" if mesh.complete else f"# partial: {len(mesh.failures)} grid points failed\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# level set p={mesh.p} q={mesh.q} k_grid={len(mesh.k_values)} "
                 f"angle_grid={len(mesh.angle_values)} span={f17(span)} "
                 f"k_min={f17(cfg.k_min)} k_max={f17(cfg.k_max)} "
                 f"angle_start={f17(cfg.angle_start)}\n{partial}"
                 "p,q,k,u_tilde,v_tilde,re_alpha,im_alpha,re_beta,im_beta\n"
                 + row * n % _rows(*text))
    if not mesh_path:
        return

    def corners(a):
        return np.stack([a[:-1, :-1], a[1:, :-1], a[1:, 1:], a[:-1, 1:]], axis=-1)
    ok = mesh.solved
    number = np.cumsum(ok).reshape(ok.shape)  # 1-based vertex numbers where ok
    quads = corners(number)[corners(ok).all(axis=-1)]
    k, _, _, re_alpha, im_alpha, _, _ = text
    with open(mesh_path, "w", encoding="utf-8") as fh:
        fh.write(f"# level set p={mesh.p} q={mesh.q}\n"
                 + "v %s %s %s\n" * n % _rows(re_alpha, im_alpha, k)
                 + "f %d %d %d\n" * (2 * len(quads))
                 % tuple(quads[:, [0, 1, 2, 0, 2, 3]].ravel().tolist()))


def cmd_level_set(args, cfg: RunConfig) -> int:
    p = _parse_fraction(args.p)
    q = _parse_fraction(args.q)
    mesh = sweep_level_set(p, q, args.k_grid, args.angle_grid, args.span,
                           k_min=cfg.k_min, k_max=cfg.k_max,
                           angle_start=cfg.angle_start,
                           solver_tol=cfg.solver_tol)
    _write_leaf(mesh, cfg, args.span, args.out, args.mesh)
    n_ok, n_bad = int(mesh.solved.sum()), len(mesh.failures)
    print(f"wrote {n_ok} records to {args.out}"
          + (f" ({n_bad} failures)" if n_bad else "")
          + (f"; mesh to {args.mesh}" if args.mesh else ""))
    return 0


def cmd_enumerate(args, cfg: RunConfig) -> int:
    p = _parse_fraction(args.p)
    if p <= 0:
        raise ValueError("p must be positive")
    if args.max_den < 1:
        raise ValueError("max-den must be at least 1")
    if p == 1:
        # annuli are labeled by q itself; list |q| <= 1 at this denominator cap
        qs = sorted({Fraction(n, d) for d in range(1, args.max_den + 1)
                     for n in range(-d, d + 1)})
        print(f"annuli at p = 1 with |q| <= 1, denominator <= {args.max_den} "
              f"(one component per rational q):")
    else:
        step = abs(p - 1)
        qs = sorted({Fraction(n, d) for d in range(1, args.max_den + 1)
                     for n in range(0, math.ceil(step * d))
                     if Fraction(n, d) < step})
        print(f"helicoid components at p = {p}: residues mod {step} "
              f"with denominator <= {args.max_den}:")
    for q in qs:
        s = moduli_summary(p, q)
        mono = f" monodromy={s.monodromy}" if s.monodromy is not None else ""
        print(f"  {s.component.kind}(q_class={s.component.q_class})  l={s.l}{mono}")
    return 0


def cmd_genus0(args, cfg: RunConfig) -> int:
    alpha = _parse_complex(args.alpha)
    entries = [int(v) for v in args.matrix.split(",")]
    if len(entries) != 4:
        raise ValueError("matrix needs exactly four integers a,b,c,d")
    matrix = ((entries[0], entries[1]), (entries[2], entries[3]))
    data = Genus0Data(alpha=alpha, matrix=matrix)
    m = map_params(alpha)
    # cross-checks before printing: inverse transform, double periodicity
    # and the closed form of r_1
    lat = period_lattice(m.x)
    g0 = harmonic_map_eval(m, 0.37 + 0.21j)
    g1 = harmonic_map_eval(m, 0.37 + 0.21j + lat.kappa1 + 2 * lat.kappa2)
    r1, r2 = differential_scalars(alpha)
    alpha_form = math.pi / 2 * (1 / abs(1 + alpha) + 1j / abs(1 - alpha))
    for name, residual, tol in (
            ("branch point round trip", abs(branch_point(m) - alpha), 1e-10),
            ("double periodicity", float(np.abs(g1 - g0).max()), 1e-10),
            ("r_1 closed form", abs(r1 - alpha_form), 1e-10 * abs(r1))):
        if not residual < tol:
            print(f"error: cross-check {name} failed: residual {residual:.3e} "
                  f"(tolerance {tol:.1e})", file=sys.stderr)
            return 3
    tau = conformal_type(matrix, m.x)
    E = energy(data)
    lines = [
        "homogeneous torus report",
        "------------------------",
        f"alpha    = {c17(alpha)}",
        f"x        = {f17(m.x)}",
        f"delta    = {f17(m.delta)}   (Hopf latitude {f17(m.delta - math.pi / 2)})",
        f"kappa_1  = {c17(lat.kappa1)}",
        f"kappa_2  = {c17(lat.kappa2)}",
        f"tau      = {c17(tau)}   (normalized {c17(normalize_tau(tau))})",
        f"r_1      = {c17(r1)}",
        f"r_2      = {c17(r2)}",
        f"energy   = {f17(E)}   |energy| = {f17(abs(E))}",
    ]
    if abs(E) > 100:
        lines.append("warning: energy is large; alpha is near the singular points +-1")
    print("\n".join(lines))
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    results = run_suites(args.suite, args.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    print(f"{len(results) - len(failed)}/{len(results)} invariants passed "
          f"(suite={args.suite}, seed={args.seed})")
    if failed:
        for r in failed:
            print("replay sample: "
                  + json.dumps({"invariant": r.name, **r.sample}), file=sys.stderr)
        return 3
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by later ones."""
    parser = _Parser(
        prog="harmonic-tori",
        description="Spectral data for equivariant harmonic tori in the 3-sphere.",
        epilog=f"A config file of key = value lines is read from the path in "
               f"${CONFIG_ENV_VAR} when set.")
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("curve-info", help="closing data and checklist for one curve")
    ci.add_argument("--alpha", required=True, help="branch point as RE,IM")
    ci.add_argument("--beta", required=True, help="branch point as RE,IM")
    ci.add_argument("--max-den", type=int, default=50,
                    help="denominator cap for rational detection")
    ci.set_defaults(func=cmd_curve_info)

    ls = sub.add_parser("level-set", help="sample a leaf of the moduli space")
    ls.add_argument("--p", required=True, help="ratio S as N/M")
    ls.add_argument("--q", required=True, help="level of the lifted T as N/M")
    ls.add_argument("--k-grid", type=int, required=True)
    ls.add_argument("--angle-grid", type=int, required=True)
    ls.add_argument("--span", type=float, required=True,
                    help="free-angle span in radians (2 pi is one full turn)")
    ls.add_argument("--out", required=True, help="delimited text output path")
    ls.add_argument("--mesh", default="", help="optional OBJ mesh output path")
    ls.set_defaults(func=cmd_level_set)

    en = sub.add_parser("enumerate", help="distinct components at fixed p")
    en.add_argument("--p", required=True, help="ratio S as N/M")
    en.add_argument("--max-den", type=int, required=True)
    en.set_defaults(func=cmd_enumerate)

    g0 = sub.add_parser("genus0", help="homogeneous torus report")
    g0.add_argument("--alpha", required=True, help="branch point as RE,IM")
    g0.add_argument("--matrix", required=True,
                    help="integer matrix rows as a,b,c,d")
    g0.set_defaults(func=cmd_genus0)

    ve = sub.add_parser("verify", help="run the invariant suites")
    ve.add_argument("--suite", default="all", choices=["all", *SUITES])
    ve.add_argument("--seed", type=int, default=0)
    ve.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config()
    except (OSError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args, cfg)
    except (OSError, ValueError) as exc:  # invalid input, or an output path not writable
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
