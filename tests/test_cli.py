"""Command-line interface: exit codes, file formats, determinism, config."""

import ast
import dataclasses
import functools
import importlib
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import harmonictori
from harmonictori import cli, differentials
from harmonictori.cli import _g17, _write_leaf, f17, main
from harmonictori.config import CONFIG_ENV_VAR, RunConfig, load_config
from harmonictori.curves import BranchPair
from harmonictori.moduli import LevelSetMesh, LevelSolveError, spectral_test, sweep_level_set


def start_cli(args, cwd=None):
    """The CLI started in a fresh interpreter that imports this package,
    whether or not PYTHONPATH names it."""
    src = os.path.dirname(os.path.dirname(harmonictori.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.Popen([sys.executable, "-m", "harmonictori.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=cwd)


def run_cli(args, cwd=None):
    """start_cli, waited for."""
    proc = start_cli(args, cwd)
    stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


@pytest.mark.parametrize("args, message", [
    (["curve-info", "--alpha", "0.3", "--beta", "0.1,0.2"], "expected RE,IM, got '0.3'"),
    (["level-set", "--p", "1/0", "--q", "0", "--k-grid", "3", "--angle-grid", "4",
      "--span", "1.0", "--out", "unused.csv"], "expected a rational like 3/4, got '1/0'"),
    (["enumerate", "--p", "0", "--max-den", "3"], "p must be positive"),
    (["enumerate", "--p", "2", "--max-den", "0"], "max-den must be at least 1"),
    (["genus0", "--alpha", "0.3,0.1", "--matrix", "1,2,3"],
     "matrix needs exactly four integers a,b,c,d"),
    (["genus0", "--alpha", "nan,0", "--matrix", "0,1,1,0"],
     "alpha must lie in the open unit disc"),
], ids=["curve_info_point", "level_set_rational", "enumerate_p", "enumerate_max_den",
        "genus0_matrix", "genus0_nan_alpha"])
def test_invalid_input_is_a_usage_error(args, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_cli_import_leaves_out_test_only_modules():
    # every CLI call pays the import: quadrature and the test oracles stay out
    src = os.path.dirname(os.path.dirname(harmonictori.__file__))
    probe = "import sys, harmonictori.cli; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True).stdout.split()
    assert "harmonictori.cli" in loaded
    assert not {"scipy.integrate", "mpmath", "hypothesis"} & set(loaded)


def test_cli_import_builds_no_parser():
    # the parser is built on the first main() call, so the import that every
    # CLI call pays constructs no ArgumentParser; the build_parser call after
    # it shows that the probe counts a build
    src = os.path.dirname(os.path.dirname(harmonictori.__file__))
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counted(self, *args, **kwargs):\n"
             "    built.append(self)\n"
             "    init(self, *args, **kwargs)\n"
             "argparse.ArgumentParser.__init__ = counted\n"
             "import harmonictori.cli\n"
             "print(len(built))\n"
             "harmonictori.cli.build_parser()\n"
             "print(len(built))\n")
    counts = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True).stdout.split()
    assert counts[0] == "0" and int(counts[1]) > 0


def test_later_main_calls_build_no_parser(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert main(["enumerate", "--p", "2", "--max-den", "2"]) == 0
    built.clear()
    assert main(["enumerate", "--p", "1/2", "--max-den", "2"]) == 0
    capsys.readouterr()
    assert built == []


def test_modules_use_their_imports_and_export_defined_names():
    # every module but the package's own re-export list reads each name it
    # imports (in code or in __all__), and every name of an __all__ resolves;
    # every private name a module defines at its top level is read somewhere
    # in the package, by name, attribute or import, so that no helper lives
    # on for the tests alone
    trees = {}
    for path in sorted(Path(harmonictori.__file__).parent.glob("*.py")):
        name = f"harmonictori.{path.stem}" if path.stem != "__init__" else "harmonictori"
        tree = trees[name] = ast.parse(path.read_text(encoding="utf-8"))
        exported = getattr(importlib.import_module(name), "__all__", [])
        assert [x for x in exported if not hasattr(sys.modules[name], x)] == [], name
        if path.stem == "__init__":
            continue
        imported = [alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert [x for x in imported if x not in read and x not in exported] == [], name
    used = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    for name, tree in trees.items():
        defined = [target.id for node in tree.body
                   if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for target in ast.walk(node) if isinstance(target, ast.Name)
                   and isinstance(target.ctx, ast.Store)]
        defined += [node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        private = [x for x in defined if x.startswith("_") and not x.startswith("__")]
        assert [x for x in private if x not in used] == [], name


def per_element_calls(source):
    """The calls of ``source`` that apply a Python function to an array one
    element at a time: np.fromiter over a map or generator, and a map or
    comprehension over an array's .tolist() that calls a math function."""
    def over_tolist(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".tolist")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and node.args:
            head, first = ast.unparse(node.func), node.args[0]
            if head == "np.fromiter" and (isinstance(first, ast.GeneratorExp) or
                                          isinstance(first, ast.Call) and ast.unparse(first.func) == "map"):
                found.append(ast.unparse(node))
            elif head == "map" and "math." in ast.unparse(first) and any(map(over_tolist, node.args[1:])):
                found.append(ast.unparse(node))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            if "math." in ast.unparse(node.elt) and any(over_tolist(g.iter) for g in node.generators):
                found.append(ast.unparse(node))
    return found


def test_src_maps_no_python_function_over_array_elements():
    # numpy's ufuncs serve floats and arrays alike (elliptic._ufunc), so no
    # module pays a Python call per element of an array to reproduce them;
    # the scan itself catches the per-element forms it names
    for bad in ("np.fromiter(map(fn, x.tolist()), float, x.size)",
                "np.fromiter(map(lambda y: math.hypot(1.0, y), x.tolist()), float)",
                "y = list(map(math.tan, (0.5 * x).tolist()))",
                "y = [math.atan(v) for v in x.tolist()]"):
        assert per_element_calls(bad) != [], bad
    assert per_element_calls('text = list(map("%.17g".__mod__, grid.tolist()))') == []
    for path in sorted(Path(harmonictori.__file__).parent.glob("*.py")):
        assert per_element_calls(path.read_text(encoding="utf-8")) == [], path.name


def test_successive_calls_match_fresh_interpreters(tmp_path, monkeypatch, capsys):
    # in one process, each call of a sequence of main() calls, a help request
    # and argparse rejections among them, gives the exit code, output and
    # files of the same call in a fresh interpreter, and a failed call leaks
    # nothing: the parser main reuses keeps no state from call to call
    calls = [
        ["level-set", "--p=1/2", "--q=1/3", "--k-grid=3", "--angle-grid=4",
         "--span=6.0", "--out=leaf.csv", "--mesh=leaf.obj"],
        ["level-set", "--help"],
        ["level-set", "--p=2", "--q=1", "--k-grid=x", "--out=bad.csv"],
        ["verify", "--suite", "elliptic"],
        ["verify", "--suite", "nope"],
        ["curve-info", "--alpha", "0.3,0.0", "--beta=-0.3,0.0"],
        ["level-set", "--p=2", "--q=1", "--k-grid=2", "--angle-grid=3", "--span=1.0",
         "--out=other.csv"],
    ]
    monkeypatch.setenv("COLUMNS", "80")
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    # the fresh interpreters run meanwhile; each writes files of its own
    procs = [start_cli(argv, cwd=fresh) for argv in calls]
    codes = []
    for argv, proc in zip(calls, procs):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        captured = capsys.readouterr()
        stdout, stderr = proc.communicate()
        assert (codes[-1], captured.out, captured.err) == (proc.returncode, stdout, stderr)
    assert codes == [0, 0, 1, 0, 1, 0, 0]
    for folder in (here, fresh):
        assert sorted(p.name for p in folder.iterdir()) == ["leaf.csv", "leaf.obj", "other.csv"]
    for name in ("leaf.csv", "leaf.obj", "other.csv"):
        assert (here / name).read_bytes() == (fresh / name).read_bytes()


class TestCurveInfo:
    def test_symmetric_curve_is_spectral(self, capsys):
        code = main(["curve-info", "--alpha", "0.3,0.0", "--beta=-0.3,0.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spectral   = yes" in out
        assert "annulus" in out
        assert "monodromy  = -1" in out
        for line in out.splitlines():
            if "residual" in line and "P" in line:
                val = float(line.split("residual")[1].split()[0])
                assert val < 1e-7

    def test_checklist_prints_the_nine_measured_entries(self, capsys):
        # the quaternionic line bundle is not constructed, so no line reports
        # a residual for it; each printed line is a measured residual
        assert main(["curve-info", "--alpha", "0.3,0.0", "--beta=-0.3,0.0"]) == 0
        out = capsys.readouterr().out
        lines = out.split("checklist:\n")[1].splitlines()
        items = [re.fullmatch(r"  (.{34}) residual \d\.\d{3}e[+-]\d\d  \(.*\)", line)
                 for line in lines]
        assert [m[1].rstrip() for m in items] == [
            "P1 real curve", "P2 no circle zeros", "P3 double poles, no residues",
            "P4 involution odd", "P5 reality", "P6 imaginary periods", "P7 periods in 2 pi i Z",
            "P8 closing integrals", "P9 independent principal parts"]
        assert "line bundle" not in out

    def test_generic_curve_not_spectral(self, capsys):
        code = main(["curve-info", "--alpha", "0.31,0.2", "--beta", "0.4,-0.12"])
        out = capsys.readouterr().out
        assert code == 2
        assert "spectral   = no" in out
        assert "P8" in out

    def test_equal_points_invalid(self):
        assert main(["curve-info", "--alpha", "0.5,0.0", "--beta", "0.5,0.0"]) == 1

    def test_outside_disc_invalid(self):
        assert main(["curve-info", "--alpha", "1.5,0.0", "--beta", "0.2,0.0"]) == 1

    @pytest.mark.parametrize("alpha, beta", [
        ("nan,0", "0.3,0"), ("0.3,0", "0.1,nan"), ("inf,0", "0.3,0"),
    ], ids=["alpha_nan", "beta_nan", "alpha_inf"])
    def test_non_finite_point_invalid(self, capsys, alpha, beta):
        assert main(["curve-info", "--alpha", alpha, "--beta", beta]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: branch points must lie in the open unit disc\n"
        assert captured.out == ""

    @pytest.mark.parametrize("alpha, beta, message", [
        # alpha = 0 puts the double pole over zeta = 0 on the branch point f(alpha) = 1
        ("0,0", "0.9,0", "double pole (1-0j) sits on a branch point"),
    ], ids=["pole_on_branch_point"])
    def test_failing_checklist_is_an_error(self, capsys, alpha, beta, message):
        assert main(["curve-info", "--alpha", alpha, "--beta", beta]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: checklist failed: ")
        assert message in captured.err
        assert captured.out == ""

    def test_unsettled_quadrature_is_an_error(self, capsys, monkeypatch):
        # a contour segment that does not settle in 13 levels fails the
        # checklist; here no sweep settles any
        monkeypatch.setattr(differentials, "_sweep", lambda geom, integrand, segs: None)
        assert main(["curve-info", "--alpha", "0.3,0", "--beta=-0.3,0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: checklist failed: no quadrature convergence on [")
        assert captured.out == ""

    def test_nearly_equal_points_pass(self, capsys):
        # k within 3e-10 of 1: loop A's panels, graded by distance, pass
        # between the branch points 1 and 1/k
        assert main(["curve-info", "--alpha", "0.5,0", "--beta", "0.5000000001,0"]) == 0
        out = capsys.readouterr().out
        assert "spectral   = yes: p = 1/9, q = -7/9" in out
        assert "P8 closing integrals" in out

    @pytest.mark.parametrize("max_den", ["0", "-3"])
    def test_max_den_below_one_invalid(self, capsys, max_den):
        assert main(["curve-info", "--alpha", "0.3,0.0", "--beta=-0.3,0.0",
                     f"--max-den={max_den}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: max-den must be at least 1\n"
        assert captured.out == ""


class TestLevelSet:
    def test_output_and_round_trip(self, tmp_path, capsys):
        out = tmp_path / "leaf.csv"
        mesh = tmp_path / "leaf.obj"
        code = main(["level-set", "--p", "1/1", "--q", "0/1",
                     "--k-grid", "3", "--angle-grid", "4",
                     "--span", "1.5", "--out", str(out), "--mesh", str(mesh)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "p,q,k,u_tilde,v_tilde,re_alpha,im_alpha,re_beta,im_beta"
        assert len(lines) == 2 + 12
        # every record detects back to the commanded leaf (the level is
        # deck-invariant at p = 1, so q is recovered exactly)
        for row in lines[2:]:
            vals = [float(v) for v in row.split(",")]
            bp = BranchPair(complex(vals[5], vals[6]), complex(vals[7], vals[8]))
            assert spectral_test(bp, 30) == (Fraction(1), Fraction(0))
        body = mesh.read_text().splitlines()
        assert sum(1 for l in body if l.startswith("v ")) == 12
        assert sum(1 for l in body if l.startswith("f ")) == 2 * 2 * 3

    def test_determinism(self, tmp_path, capsys, monkeypatch):
        # an 8x16 leaf whose fixed angles start on the chart boundary u~ = pi
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"angle_start = {math.pi!r}\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_file))
        for name in ("a", "b"):
            assert main(["level-set", "--p", "1/2", "--q", "0/1",
                         "--k-grid", "8", "--angle-grid", "16",
                         "--span", "6.283185307179586",
                         "--out", str(tmp_path / f"{name}.csv"),
                         "--mesh", str(tmp_path / f"{name}.obj")]) == 0
        capsys.readouterr()
        lines = (tmp_path / "a.csv").read_text().splitlines()
        assert "angle_start=3.1415926535897931" in lines[0]
        assert len(lines) == 2 + 8 * 16
        for ext in ("csv", "obj"):
            first, second = (tmp_path / f"{name}.{ext}" for name in ("a", "b"))
            assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("p, k_grid, angle_grid, message", [
        ("1/1", "0", "4", "grids must have at least 2 samples"),
        ("1/1", "4", "1", "grids must have at least 2 samples"),
        ("0/1", "4", "4", "p must be positive"),
        ("-1/2", "4", "4", "p must be positive"),
    ], ids=["k_grid_0", "angle_grid_1", "p_0", "p_negative"])
    def test_bad_grid(self, tmp_path, capsys, p, k_grid, angle_grid, message):
        out = tmp_path / "x.csv"
        code = main(["level-set", f"--p={p}", "--q", "0/1", "--k-grid", k_grid,
                     "--angle-grid", angle_grid, "--span", "1.0", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("target", ["out", "mesh"])
    def test_unwritable_output_is_an_error(self, tmp_path, capsys, target):
        paths = {"out": str(tmp_path / "x.csv"), "mesh": str(tmp_path / "x.obj")}
        paths[target] = str(tmp_path / "missing" / f"x.{target}")
        code = main(["level-set", "--p", "1/1", "--q", "0/1", "--k-grid", "3",
                     "--angle-grid", "4", "--span", "1.0",
                     "--out", paths["out"], "--mesh", paths["mesh"]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and paths[target] in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("span", ["nan", "inf", "-inf"])
    def test_non_finite_span_rejected(self, tmp_path, capsys, span):
        out = tmp_path / "x.csv"
        code = main(["level-set", "--p", "1/1", "--q", "0/1", "--k-grid", "3",
                     "--angle-grid", "4", f"--span={span}", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: angle span and start must be finite\n"
        assert captured.out == "" and not out.exists()

    def test_overflowing_angle_grid_rejected(self, tmp_path, capsys, monkeypatch):
        # angle_start + span overflows at the grid's last angle: an error,
        # where every point used to fail with residual nan and exit 0
        cfg = tmp_path / "big.cfg"
        cfg.write_text("angle_start = 1e308\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        out = tmp_path / "x.csv"
        code = main(["level-set", "--p", "1/1", "--q", "0/1", "--k-grid", "2",
                     "--angle-grid", "3", "--span", "1e308", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: the last grid angle must be finite, got inf\n"
        assert captured.out == "" and not out.exists()


def mesh_with_holes(p=Fraction(1), k_grid=5, angle_grid=7,
                    holes=((2, 3), (0, 4), (4, 0), (3, 6), (1, 1), (1, 2))):
    """A leaf with failures injected at the grid points ``holes`` (by default
    a 5x7 leaf with holes inside it, on its edges and at a corner), as a
    failed solve leaves them: nan in every grid array."""
    mesh = sweep_level_set(p, Fraction(0), k_grid, angle_grid, 2 * math.pi,
                           k_min=0.3, k_max=0.6)
    for i, j in holes:
        for grid in (mesh.u_tilde, mesh.v_tilde, mesh.alpha, mesh.beta):
            grid[i, j] = np.nan
        mesh.failures.append((mesh.k_values[i], mesh.angle_values[j], "injected"))
    return mesh


def float_keyed_obj(mesh):
    """The OBJ text by the float-keyed algorithm the grid-index writer
    replaced: vertices numbered in grid order, each quad found by looking
    up its four (k, angle) corners."""
    ks, angles = mesh.k_values, mesh.angle_values
    index, lines = {}, [f"# level set p={mesh.p} q={mesh.q}"]
    solved = [(k, ang, complex(mesh.alpha[i, j])) for i, k in enumerate(ks)
              for j, ang in enumerate(angles) if not np.isnan(mesh.u_tilde[i, j])]
    for n, (k, ang, alpha) in enumerate(solved, start=1):
        index[(k, ang)] = n
        lines.append(f"v {f17(alpha.real)} {f17(alpha.imag)} {f17(k)}")
    for i in range(len(ks) - 1):
        for j in range(len(angles) - 1):
            quad = [(ks[i], angles[j]), (ks[i + 1], angles[j]),
                    (ks[i + 1], angles[j + 1]), (ks[i], angles[j + 1])]
            if any(q not in index for q in quad):
                continue
            a, b, c, d = (index[q] for q in quad)
            lines += [f"f {a} {b} {c}", f"f {a} {c} {d}"]
    return "\n".join(lines) + "\n"


def f17_rows(mesh):
    """The CSV records by one f17 per value, solved points in grid order."""
    return [",".join(f17(x) for x in (
        mesh.p, mesh.q, k, mesh.u_tilde[i, j], mesh.v_tilde[i, j],
        mesh.alpha[i, j].real, mesh.alpha[i, j].imag,
        mesh.beta[i, j].real, mesh.beta[i, j].imag))
        for i, k in enumerate(mesh.k_values) for j in range(len(mesh.angle_values))
        if not np.isnan(mesh.u_tilde[i, j])]


# a 20x16 leaf with holes at its grid points (15, 10) and (16, 4), 6 grid
# points before and 4 after the one that becomes its 256th record; 318
# vertices and 554 faces
PAST_BLOCK = {"k_grid": 20, "angle_grid": 16, "holes": ((15, 10), (16, 4))}
ALL_FAILED = {"k_grid": 4, "angle_grid": 5,
              "holes": tuple((i, j) for i in range(4) for j in range(5))}

# the held angle is u~ for p <= 1 and v~ for p > 1
HELD_SIDES = pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 3), Fraction(5, 2)],
                                     ids=["p=1", "p=1/3", "p=5/2"])


def write_leaf(mesh, tmp_path):
    """The CSV lines and the OBJ text that _write_leaf writes for ``mesh``."""
    csv, obj = tmp_path / "leaf.csv", tmp_path / "leaf.obj"
    _write_leaf(mesh, RunConfig(k_min=0.3, k_max=0.6), 2 * math.pi, str(csv), str(obj))
    return csv.read_text().splitlines(), obj.read_text()


@functools.cache
def solved_leaf(p):
    """One 12x10 leaf with every point solved, shared by the hole-mask examples."""
    mesh = sweep_level_set(p, Fraction(0), 12, 10, 2 * math.pi, k_min=0.3, k_max=0.6)
    assert mesh.complete
    return mesh


class TestWriters:
    @HELD_SIDES
    def test_obj_matches_float_keyed_algorithm(self, p, tmp_path):
        mesh = mesh_with_holes(p)
        _, text = write_leaf(mesh, tmp_path)
        assert text == float_keyed_obj(mesh)
        assert sum(1 for line in text.splitlines() if line.startswith("v ")) == 35 - 6
        assert sum(1 for line in text.splitlines() if line.startswith("f ")) == 2 * (24 - 14)

    @HELD_SIDES
    def test_csv_rows_match_f17_per_value(self, p, tmp_path):
        mesh = mesh_with_holes(p)
        lines, _ = write_leaf(mesh, tmp_path)
        assert lines[1] == "# partial: 6 grid points failed"
        assert lines[3:] == f17_rows(mesh)

    @HELD_SIDES
    @pytest.mark.parametrize("leaf, failed, vertices, faces", [
        (PAST_BLOCK, 2, 320 - 2, 2 * (19 * 15 - 8)), (ALL_FAILED, 20, 0, 0),
    ], ids=["past_block", "all_failed"])
    def test_block_edges_match_references(self, leaf, failed, vertices, faces, p, tmp_path):
        # an all-failed leaf writes only the CSV's header lines and the OBJ's comment
        mesh = mesh_with_holes(p, **leaf)
        lines, obj = write_leaf(mesh, tmp_path)
        assert lines[0].startswith("# level set ")
        assert lines[1:3] == [f"# partial: {failed} grid points failed",
                              "p,q,k,u_tilde,v_tilde,re_alpha,im_alpha,re_beta,im_beta"]
        assert lines[3:] == f17_rows(mesh) and len(lines[3:]) == vertices
        assert obj == float_keyed_obj(mesh)
        obj_lines = obj.splitlines()
        assert [sum(1 for line in obj_lines if line.startswith(tag)) for tag in ("v ", "f ")] \
            == [vertices, faces] and len(obj_lines) == 1 + vertices + faces

    @HELD_SIDES
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(holes=st.lists(st.booleans(), min_size=120, max_size=120))
    @example(holes=[False] * 120)
    @example(holes=[True] * 120)
    def test_hole_masks_match_references(self, p, holes, tmp_path_factory):
        # any set of failed points, the empty and the full one included,
        # leaves the same records and faces as the per-value references
        leaf = solved_leaf(p)
        mask = np.array(holes).reshape(12, 10)
        grids = {name: getattr(leaf, name).copy()
                 for name in ("u_tilde", "v_tilde", "alpha", "beta")}
        for grid in grids.values():
            grid[mask] = np.nan
        mesh = dataclasses.replace(leaf, **grids, failures=[
            (leaf.k_values[i], leaf.angle_values[j], "injected") for i, j in np.argwhere(mask)])
        lines, obj = write_leaf(mesh, tmp_path_factory.mktemp("leaf"))
        header = 3 if mask.any() else 2
        assert lines[header - 1].startswith("p,q,k,") and lines[header:] == f17_rows(mesh)
        assert obj == float_keyed_obj(mesh)

    def test_level_set_writes_each_file_once(self, tmp_path, monkeypatch, capsys):
        # the files cli opens count their writes; a leaf of 320 records, more
        # than the writers' old 256-line blocks, is still one write per file
        writes = {}

        class Counted:
            def __init__(self, fh, path):
                self.fh, self.path = fh, path

            def __enter__(self):
                self.fh.__enter__()
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                writes[self.path] = writes.get(self.path, 0) + 1
                return self.fh.write(text)

        monkeypatch.setattr(cli, "open", lambda path, *args, **kwargs:
                            Counted(open(path, *args, **kwargs), path), raising=False)
        csv, obj = tmp_path / "leaf.csv", tmp_path / "leaf.obj"
        assert main(["level-set", "--p", "1/3", "--q", "1/2", "--k-grid", "20",
                     "--angle-grid", "16", "--span", "6.283185307179586",
                     "--out", str(csv), "--mesh", str(obj)]) == 0
        assert "wrote 320 records" in capsys.readouterr().out
        assert writes == {str(csv): 1, str(obj): 1}
        assert len(csv.read_text().splitlines()) == 2 + 320

    @HELD_SIDES
    def test_values_outside_the_fixed_range_match_references(self, p, tmp_path):
        # -0.0, 1e-300, the smallest subnormal and 1e17 in Im beta and 3e-5
        # in Re alpha take '%.17g' itself; their rows land among the array
        # text of the CSV and of the OBJ vertices in place
        mesh = mesh_with_holes(p)
        at = np.argwhere(mesh.solved)[[0, 7, 12, 28]]
        for (i, j), im_beta in zip(at, (-0.0, 1e-300, 5e-324, 1e17)):
            mesh.beta[i, j] = complex(mesh.beta[i, j].real, im_beta)
        i, j = at[2]
        mesh.alpha[i, j] = complex(3e-5, mesh.alpha[i, j].imag)
        lines, obj = write_leaf(mesh, tmp_path)
        assert lines[3:] == f17_rows(mesh)
        assert {"-0", "1e-300", "4.9406564584124654e-324", "1e+17"} \
            <= {line.split(",")[8] for line in lines[3:]}
        assert obj == float_keyed_obj(mesh) and "\nv 3.0000000000000001e-05 " in obj

    def test_vertex_numbers_of_five_digits_match_references(self, tmp_path):
        # 10 010 vertices: numbers of one to five digits in the faces
        # (a random leaf at p > 1, v~ held), and its last quad
        rng = np.random.default_rng(3)
        shape, angles = (7, 1430), np.linspace(-1, 5, 1430)
        alpha, beta = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape) for _ in range(2))
        mesh = LevelSetMesh(Fraction(5, 2), Fraction(-7, 3), np.linspace(0.1, 0.9, 7).tolist(),
                            angles.tolist(), rng.uniform(-2, 2, shape),
                            np.broadcast_to(angles, shape).copy(), alpha, beta, [])
        lines, obj = write_leaf(mesh, tmp_path)
        assert lines[2:] == f17_rows(mesh) and obj == float_keyed_obj(mesh)
        assert obj.endswith("f 8579 10009 10010\nf 8579 10010 8580\n")


def kernel_text(values):
    """The _g17 text of each value, its pad bytes dropped."""
    return [row[row != 0].tobytes().decode() for row in _g17(np.array(values, dtype=float))]


# 1 + 2**-17 has 18 significant digits, the last a 5: a tie at 17 digits
TIES = [1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17, 0.5 + 2.0 ** -18, 0.5 + 3 * 2.0 ** -18,
        1234567890123456.25, 1234567890123456.75, 211 * 2.0 ** -21, 213 * 2.0 ** -21]
# the powers of ten from 1e-5 to 1e17 (1e-4 and 1e16 end the fixed range)
POWERS = [float(f"1e{k}") for k in range(-5, 18)]
EDGES = [*POWERS, *(float(np.nextafter(x, to)) for x in POWERS for to in (0.0, math.inf)),
         0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, math.inf, math.nan]


class TestTextKernel:
    def test_ties_are_ties(self):
        for x in TIES:
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, x

    def test_edge_values_match_percent_g(self):
        # both ends of the fixed range, powers of ten and their neighbours,
        # ties at the 17th digit, zeros, subnormals, nan and infinities
        values = [sign * x for x in TIES + EDGES for sign in (1.0, -1.0)]
        assert kernel_text(values) == ["%.17g" % x for x in values]
        assert kernel_text([-0.0, 1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17]) == [
            "-0", "1.0000076293945312", "1.0000228881835938"]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.one_of(st.floats(), st.floats(1e-4, 1e16), st.floats(-1e16, -1e-4)),
                           min_size=1, max_size=30))
    def test_matches_percent_g_on_any_floats(self, values):
        assert kernel_text(values) == ["%.17g" % x for x in values]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 10 ** 15))
    @example(n=1)
    @example(n=9999)
    @example(n=10000)
    def test_vertex_numbers_match_percent_d(self, n):
        assert kernel_text([n]) == ["%d" % n]


class TestEnumerate:
    def test_p1_lists_annuli(self, capsys):
        assert main(["enumerate", "--p", "1/1", "--max-den", "3"]) == 0
        out = capsys.readouterr().out
        for token in ("q_class=0", "q_class=1/3", "q_class=1/2",
                      "q_class=2/3", "q_class=-1/2", "q_class=1"):
            assert token in out

    def test_p2_residues(self, capsys):
        assert main(["enumerate", "--p", "2/1", "--max-den", "2"]) == 0
        out = capsys.readouterr().out
        assert "q_class=0" in out and "q_class=1/2" in out
        assert sum(1 for l in out.splitlines() if l.strip().startswith("helicoid(")) == 2

    def test_half_p(self, capsys):
        assert main(["enumerate", "--p", "1/2", "--max-den", "3"]) == 0
        out = capsys.readouterr().out
        assert "mod 1/2" in out


class TestGenus0:
    def test_clifford_report(self, capsys):
        code = main(["genus0", "--alpha", "0.0,0.0", "--matrix", "0,1,1,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau      = 0 + 1i" in out
        assert f"energy   = {format(math.pi**2, '.17g')}" in out

    def test_five_thirds_energy(self, capsys):
        code = main(["genus0", "--alpha", "0.5,0.0", "--matrix", "0,1,1,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert format(5 * math.pi**2 / 3, ".17g") in out

    def test_large_energy_warning(self, capsys):
        main(["genus0", "--alpha", "0.999,0.0", "--matrix", "0,1,1,0"])
        assert "warning" in capsys.readouterr().out

    def test_failed_cross_check_exits_3(self, monkeypatch, capsys):
        true_branch_point = cli.branch_point
        monkeypatch.setattr(cli, "branch_point",
                            lambda m: true_branch_point(m) + 1e-6)
        assert main(["genus0", "--alpha", "0.5,0.0", "--matrix", "0,1,1,0"]) == 3
        captured = capsys.readouterr()
        assert "branch point round trip" in captured.err
        assert captured.out == ""

    def test_singular_matrix(self):
        assert main(["genus0", "--alpha", "0.1,0.0", "--matrix", "1,1,1,1"]) == 1


class TestVerify:
    def test_elliptic_suite(self, capsys):
        assert main(["verify", "--suite", "elliptic", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "5/5 invariants passed" in out

    def test_all_suites(self, capsys):
        assert main(["verify", "--suite", "all"]) == 0
        assert "24/24 invariants passed" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["0", "42"])
    def test_bundle_suite(self, seed, capsys):
        assert main(["verify", "--suite", "bundle", "--seed", seed]) == 0
        assert "3/3 invariants passed" in capsys.readouterr().out

    @staticmethod
    def failed_bundle_loop(capsys) -> dict:
        """The replay sample of the annulus invariant of a failed bundle suite."""
        assert main(["verify", "--suite", "bundle"]) == 3
        captured = capsys.readouterr()
        assert "[FAIL] annulus monodromy equals moduli_summary" in captured.out
        assert "[pass] annulus loop end lies on its level" in captured.out
        assert "[pass] contractible loop has monodromy 0" in captured.out
        assert "2/3 invariants passed" in captured.out
        [line] = captured.err.splitlines()
        return json.loads(line.removeprefix("replay sample: "))

    def test_bundle_suite_fails_on_a_sign_flip(self, monkeypatch, capsys):
        from harmonictori import verify
        track = verify.monodromy_track
        monkeypatch.setattr(verify, "monodromy_track", lambda *args: -track(*args))
        sample = self.failed_bundle_loop(capsys)
        monkeypatch.undo()
        args = (Fraction(sample["q"]), sample["loop_samples"], sample["k"],
                sample["u_tilde0"], sample["contractible"])
        assert sample["got"] == -sample["expected"] == -track(*args) != 0

    def test_bundle_suite_fails_without_the_lift(self, monkeypatch, capsys):
        # a loop whose held angle crosses a turn needs the 4 pi m of the
        # lifted gamma+; with m held at 0 and the reduced angle's (s, c, u)
        # kept, its integer is off by 2 per turn
        half_angle = differentials._half_angle
        monkeypatch.setattr(differentials, "_half_angle",
                            lambda x_tilde: (0.0, *half_angle(x_tilde)[1:]))
        sample = self.failed_bundle_loop(capsys)
        assert sample["got"] != sample["expected"]

    def test_bundle_suite_fails_on_a_loop_that_raises(self, monkeypatch, capsys):
        from harmonictori import verify

        def raising(q, *args):
            raise differentials.ContinuationError("gamma+ integral shifted by 1.0, not 2 pi Z")
        monkeypatch.setattr(verify, "monodromy_track", raising)
        assert main(["verify", "--suite", "bundle"]) == 3
        captured = capsys.readouterr()
        assert "max residual inf" in captured.out and "1/3 invariants passed" in captured.out
        assert '"error": "ContinuationError: gamma+ integral shifted by 1.0' in captured.err

    def test_bundle_suite_fails_each_draw_that_raises_any_exception(self, monkeypatch, capsys):
        # any exception in a draw is that draw's inf residual, and the suite
        # keeps drawing: all 36 annulus and 12 contractible loops are tried
        from harmonictori import verify
        calls = []

        def raising(q, *args):
            calls.append(q)
            raise ValueError("a loop that raises")
        monkeypatch.setattr(verify, "monodromy_track", raising)
        assert main(["verify", "--suite", "bundle"]) == 3
        captured = capsys.readouterr()
        assert len(calls) == 48
        assert "[pass] annulus loop end lies on its level" in captured.out
        assert "1/3 invariants passed" in captured.out
        for name in ("annulus monodromy equals moduli_summary", "contractible loop has monodromy 0"):
            assert f"[FAIL] {name}: max residual inf " in captured.out
        samples = [json.loads(line.removeprefix("replay sample: "))
                   for line in captured.err.splitlines()]
        assert [sample["contractible"] for sample in samples] == [False, True]
        assert all(sample["error"] == "ValueError: a loop that raises" for sample in samples)

    def test_bundle_suite_fails_on_an_end_off_its_level(self, monkeypatch, capsys):
        # a deck map that moves v~ alone takes the loop's end off its level
        from harmonictori import verify
        monkeypatch.setattr(verify, "deck_lambda_tilde",
                            lambda mp: dataclasses.replace(mp, v_tilde=mp.v_tilde + 1e-3))
        assert main(["verify", "--suite", "bundle"]) == 3
        captured = capsys.readouterr()
        assert "[FAIL] annulus loop end lies on its level" in captured.out
        assert "2/3 invariants passed" in captured.out
        sample = json.loads(captured.err.splitlines()[0].removeprefix("replay sample: "))
        assert not sample["contractible"] and "error" not in sample

    def test_bundle_suite_fails_on_an_end_that_does_not_solve(self, monkeypatch, capsys):
        from harmonictori import verify

        def raising(*args):
            raise LevelSolveError("no convergence for q=0.5: residual nan")
        monkeypatch.setattr(verify, "solve_level", raising)
        assert main(["verify", "--suite", "bundle"]) == 3
        captured = capsys.readouterr()
        assert "[FAIL] annulus loop end lies on its level: max residual inf" in captured.out
        assert '"error": "LevelSolveError: no convergence for q=0.5' in captured.err

    def test_nan_residual_fails(self, monkeypatch, capsys):
        from harmonictori import verify
        monkeypatch.setattr(verify, "legendre_defect", lambda k: math.nan)
        assert main(["verify", "--suite", "elliptic"]) == 3
        captured = capsys.readouterr()
        assert "[FAIL] legendre relation on 50 moduli: max residual nan" in captured.out
        assert "4/5 invariants passed" in captured.out
        assert '"k": 1e-06' in captured.err

    @pytest.mark.parametrize("name, invariant, drawn", [
        ("theta_P_characterization_check", "principal part characterization", True),
        ("hitchin_checklist", "checklist on a constructed closing pair", False),
    ])
    def test_an_exception_fails_its_invariant_alone(self, monkeypatch, capsys, name,
                                                    invariant, drawn):
        # an exception inside one invariant is that invariant's failure: a
        # nan residual, and a replay sample that names the exception, after
        # the draw it was raised on where the suite knows it.  Every other
        # invariant still runs and passes, and verify exits 3
        from harmonictori import verify

        def raising(*args):
            raise RuntimeError("raised on purpose")
        monkeypatch.setattr(verify, name, raising)
        assert main(["verify", "--suite", "differentials"]) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 5 and lines[-1] == "3/4 invariants passed (suite=differentials, seed=0)"
        [failed] = [line for line in lines if line.startswith("[FAIL]")]
        assert failed.startswith(f"[FAIL] {invariant}: max residual nan (")
        [line] = captured.err.splitlines()
        sample = json.loads(line.removeprefix("replay sample: "))
        assert sample.pop("invariant") == invariant
        assert sample.pop("error") == "RuntimeError: raised on purpose"
        assert list(sample) == (["alpha", "beta"] if drawn else [])

    def test_unknown_suite_rejected(self):
        proc = run_cli(["verify", "--suite", "nonsense"])
        assert proc.returncode == 1
        assert "argument --suite: invalid choice: 'nonsense'" in proc.stderr


class TestConfig:
    def test_env_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k_min = 0.2\nk_max = 0.7\nangle_start = 1.5\n# comment\n")
        old = os.environ.get(CONFIG_ENV_VAR)
        os.environ[CONFIG_ENV_VAR] = str(cfg_file)
        try:
            cfg = load_config()
            assert (cfg.k_min, cfg.k_max, cfg.angle_start) == (0.2, 0.7, 1.5)
        finally:
            if old is None:
                os.environ.pop(CONFIG_ENV_VAR, None)
            else:
                os.environ[CONFIG_ENV_VAR] = old

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            load_config(str(cfg_file))

    @pytest.mark.parametrize("key", [
        "quad_abs_tol", "contour_rel_tol", "clearance", "boundary_eps",
        "max_den", "k_grid", "angle_grid", "out_path", "mesh_path", "seed",
    ])
    def test_removed_key_rejected(self, tmp_path, key):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(cfg_file))

    @pytest.mark.parametrize("line, message", [
        ("solver_tol = nan", "solver_tol must be positive and finite"),
        ("detection_tol = inf", "detection_tol must be positive and finite"),
        ("angle_start = nan", "angle_start must be finite"),
        ("angle_start = -inf", "angle_start must be finite"),
    ], ids=["solver_tol_nan", "detection_tol_inf", "angle_start_nan", "angle_start_inf"])
    def test_non_finite_value_rejected(self, tmp_path, monkeypatch, capsys, line, message):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_file))
        out = tmp_path / "x.csv"
        code = main(["level-set", "--p", "1/1", "--q", "0/1", "--k-grid", "3",
                     "--angle-grid", "4", "--span", "1.0", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: bad config: {message}\n"
        assert not out.exists()

    def test_line_without_equals_rejected(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("# comment\nk_min 0.2\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_file))
        assert main(["enumerate", "--p", "2", "--max-den", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: bad config: {cfg_file}:2: expected key = value\n"
        assert captured.out == ""

    def test_value_that_is_not_a_number_names_its_line_and_key(self, tmp_path, monkeypatch,
                                                              capsys):
        # float()'s own message named neither the file, the line nor the key
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("k_min = 0.2\nsolver_tol = abc\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_file))
        assert main(["enumerate", "--p", "2", "--max-den", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: bad config: {cfg_file}:2: "
                                f"solver_tol must be a number, got 'abc'\n")
        assert captured.out == ""

    @pytest.mark.parametrize("kwargs, message", [
        ({"solver_tol": -1.0}, "solver_tol must be positive and finite"),
        ({"angle_start": math.nan}, "angle_start must be finite"),
        ({"k_min": 0.5, "k_max": 0.5}, "need 0 < k_min < k_max < 1"),
    ], ids=["solver_tol_negative", "angle_start_nan", "k_equal"])
    def test_invalid_config_rejected_when_built(self, kwargs, message):
        # a sweep with such a config would fail at every point
        with pytest.raises(ValueError, match=message):
            RunConfig(**kwargs)

    def test_invalid_range_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad2.cfg"
        cfg_file.write_text("k_min = 0.9\nk_max = 0.2\n")
        with pytest.raises(ValueError):
            load_config(str(cfg_file))
