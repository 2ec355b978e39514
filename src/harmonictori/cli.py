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
first call and reuses it for every later call in the process.

``level-set`` writes each file with one write, from one array kernel whose
text is '%.17g' byte for byte: for 1e-4 <= |x| < 1e16, the 17-digit D nearest
|x| 10**s, s = 16 - floor(log10 |x|) <= 20.  10**s is an exact double, so
Dekker's product hi + lo is exact, and hi > 2**53 is even, so hi + rint(lo)
rounds half to even as Python's dtoa does.  Other values take '%.17g'.
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


def _split(a):  # Veltkamp: a as two halves of at most 26 bits
    c = 134217729.0 * a
    return c - (c - a), a - (c - (c - a))


def _tables():
    """D's text is five words: a pad, the sign, "0.000", digit 0, then digits
    1-16 each after a '.'.  Those words by chunk and by sign and digit 0; the
    last nonzero digit by chunk; the bytes that show by e and last nonzero
    digit; 10**s, split; and the doubles nearest 10**k (exact or above it)."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # of 0000-9999, by place
    words = np.full((10020, 8), 46, np.uint8)
    words[:10000, 1::2] = digits.T + 48
    words[10000:] = np.frombuffer(b"".join(b"\0%c0.000%d" % (s, d) for s in b"\0-"
                                           for d in range(10)), np.uint8).reshape(20, 8)
    place = np.arange(4, dtype=np.uint8)[:, None]
    last = np.where(digits > 0, place + 1, 0).max(axis=0)
    e, sig = np.ix_(np.arange(-4, 16), np.arange(17))
    p, e3, sig3 = np.arange(1, 17), e[..., None], sig[..., None]
    show = np.zeros((20, 17, 40), bool)
    show[..., 1] = show[..., 7] = True
    show[..., 2] = show[..., 3] = e < 0
    show[..., 4:7] = np.arange(3) < -e3 - 1
    show[..., 8::2] = (p == e3 + 1) & (p <= sig3)
    show[..., 9::2] = (p <= e3) | (p <= sig3)
    p10 = np.array([float(10 ** s) for s in range(22)])  # exact: 5**21 < 2**53
    return (words.view(np.uint64).ravel(), np.where(last, last + 4 * place, 0),
            np.where(show, 255, 0).astype(np.uint8).reshape(340, 40),
            np.array([p10, *_split(p10)]), np.array([float(f"1e{k}") for k in range(-5, 18)]))


_WORDS, _LAST, _SHOW, _P10, _TENS = _tables()


def _g17(x):
    """'%.17g' % v for each v of the float64 array x, as rows of 40 ASCII
    bytes padded with zero bytes, the first byte a pad: see the module docstring."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    e += (a >= _TENS[e + 6]).astype(np.intp) - (a < _TENS[e + 5])  # where log10 missed
    (ah, al), (b, bh, bl) = _split(a), _P10[:, 16 - e]
    hi = a * b  # hi + lo == a * 10**(16 - e) exactly: Dekker's product
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    # D < 10**17: a double below 10**(e + 1) lies below it by over 5e-17 of it
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    top = d // 10 ** 8
    index = np.empty((5, len(x)), np.intp)  # digit 0, then chunks 1-4
    index[0] = top // 10 ** 8
    index[2], index[4] = top - index[0] * 10 ** 8, d - top * 10 ** 8
    index[1::2] = index[2::2] // 10000
    index[2::2] -= index[1::2] * 10000
    sig = _LAST.take(index[1:] + 10000 * np.arange(4)[:, None]).max(axis=0)
    index[0] += 10000 + 10 * (x < 0)
    text = _WORDS.take(index.T).view(np.uint8)
    text &= _SHOW.take((e + 4) * 17 + sig, axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        b = np.frombuffer((" %-39.17g" * slow.size % tuple(x[slow].tolist())).encode(), np.uint8)
        text[slow] = np.where(b == 32, 0, b).reshape(-1, 40)
    return text


def _write_leaf(mesh: LevelSetMesh, cfg: RunConfig, span: float, path: str,
                mesh_path: str = "") -> None:
    """The leaf as CSV at ``path`` and, given ``mesh_path``, as an ASCII OBJ
    triangle mesh with the (Re alpha, Im alpha, k) embedding: the solved
    points are the vertices, and each grid quad whose four corners solved
    gives two triangles.  Records index one _g17 table: p, q, the k values
    and held angles once each, the free angle, alpha and beta of each solved
    point, and the vertex numbers from 0.  One write per file."""
    def joined(table, index, seps):  # the rows at index, each after its separator
        text = table.take(index, axis=0)
        text[..., 0] = np.frombuffer(seps, np.uint8)
        return text.tobytes().translate(None, b"\0")  # less the pad bytes
    ok = mesh.solved
    n, (rows, cols) = int(ok.sum()), ok.shape
    table = _g17(np.concatenate((
        [float(mesh.p), float(mesh.q)], mesh.k_values, mesh.angle_values,
        (mesh.u_tilde if mesh.p > 1 else mesh.v_tilde)[ok], mesh.alpha[ok].view(float),
        mesh.beta[ok].view(float), np.arange(n + 1.0 if mesh_path else 0))))
    i, j = np.nonzero(ok)
    r, at = np.arange(n), 2 + rows + cols
    tag = at + 5 * n  # the vertex number 0, whose text "0" becomes "v"
    record = np.empty((n, 10), np.intp)  # CSV fields p, q, k, u~, v~, alpha, beta; tag
    record[:, [0, 1, 9]] = (0, 1, tag)
    record[:, 2] = i + 2
    held, free = [4, 3] if mesh.p > 1 else [3, 4]
    record[:, held], record[:, free] = j + 2 + rows, at + r
    record[:, 5:9] = (at + n + 2 * r)[:, None] + (0, 1, 2 * n, 2 * n + 1)
    partial = "" if mesh.complete else f"\n# partial: {len(mesh.failures)} grid points failed"
    with open(path, "wb") as fh:
        fh.write(f"# level set p={mesh.p} q={mesh.q} k_grid={rows} angle_grid={cols} "
                 f"span={f17(span)} k_min={f17(cfg.k_min)} k_max={f17(cfg.k_max)} "
                 f"angle_start={f17(cfg.angle_start)}{partial}\n"
                 "p,q,k,u_tilde,v_tilde,re_alpha,im_alpha,re_beta,im_beta".encode()
                 + joined(table, record[:, :9], b"\n,,,,,,,,") + b"\n")
    if not mesh_path:
        return

    def corners(a):
        return np.stack([a[:-1, :-1], a[1:, :-1], a[1:, 1:], a[:-1, 1:]], axis=-1)
    number = np.cumsum(ok).reshape(ok.shape)  # 1-based vertex numbers where ok
    quads = corners(number)[corners(ok).all(axis=-1)]
    table[tag, 1] = 118  # v
    face = np.pad(quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3), ((0, 0), (1, 0)))
    # a narrow copy: the separator, the sign's byte (for the tag), the digits of n
    numbers = table[tag:, [0, 1, 7, *range(9, 7 + 2 * len(str(n)), 2)]]
    numbers[0, 1] = 102  # f
    with open(mesh_path, "wb") as fh:
        fh.write(f"# level set p={mesh.p} q={mesh.q}".encode()
                 + joined(table, record[:, [9, 5, 6, 2]], b"\n   ")
                 + joined(numbers, face, b"\n   ") + b"\n")


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
