"""Command-line interface: exit codes, file formats, determinism, config."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from harmonictori.cli import _write_level_set, _write_mesh_obj, f17, main
from harmonictori.config import CONFIG_ENV_VAR, RunConfig, load_config
from harmonictori.curves import BranchPair
from harmonictori.moduli import spectral_test, sweep_level_set


def run_cli(args, env=None, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "harmonictori.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd)
    return proc


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
        # k within 3e-10 of 1: the loop quadrature cannot separate 1 from 1/k
        ("0.5,0", "0.5000000001,0", "no quadrature convergence"),
    ], ids=["pole_on_branch_point", "nearly_equal_points"])
    def test_failing_checklist_is_an_error(self, capsys, alpha, beta, message):
        assert main(["curve-info", "--alpha", alpha, "--beta", beta]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: checklist failed: ")
        assert message in captured.err
        assert captured.out == ""

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


def mesh_with_holes(p=Fraction(1)):
    """A 5x7 leaf with failures injected inside it, on its edges and at a
    corner, as a failed solve leaves them: nan in every grid array."""
    mesh = sweep_level_set(p, Fraction(0), 5, 7, 2 * math.pi,
                           k_min=0.3, k_max=0.6)
    for i, j in ((2, 3), (0, 4), (4, 0), (3, 6), (1, 1), (1, 2)):
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


# the held angle is u~ for p <= 1 and v~ for p > 1
HELD_SIDES = pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 3), Fraction(5, 2)],
                                     ids=["p=1", "p=1/3", "p=5/2"])


class TestWriters:
    @HELD_SIDES
    def test_obj_matches_float_keyed_algorithm(self, p, tmp_path):
        mesh = mesh_with_holes(p)
        _write_mesh_obj(mesh, str(tmp_path / "leaf.obj"))
        text = (tmp_path / "leaf.obj").read_text()
        assert text == float_keyed_obj(mesh)
        assert sum(1 for line in text.splitlines() if line.startswith("v ")) == 35 - 6
        assert sum(1 for line in text.splitlines() if line.startswith("f ")) == 2 * (24 - 14)

    @HELD_SIDES
    def test_csv_rows_match_f17_per_value(self, p, tmp_path):
        mesh = mesh_with_holes(p)
        _write_level_set(mesh, RunConfig(k_min=0.3, k_max=0.6), 2 * math.pi,
                         str(tmp_path / "leaf.csv"))
        lines = (tmp_path / "leaf.csv").read_text().splitlines()
        assert lines[1] == "# partial: 6 grid points failed"
        expected = [",".join(f17(x) for x in (
            mesh.p, mesh.q, k, mesh.u_tilde[i, j], mesh.v_tilde[i, j],
            mesh.alpha[i, j].real, mesh.alpha[i, j].imag,
            mesh.beta[i, j].real, mesh.beta[i, j].imag))
            for i, k in enumerate(mesh.k_values) for j in range(7)
            if not np.isnan(mesh.u_tilde[i, j])]
        assert lines[3:] == expected


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
        from harmonictori import cli
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
        assert "21/21 invariants passed" in capsys.readouterr().out

    def test_nan_residual_fails(self, monkeypatch, capsys):
        from harmonictori import verify
        monkeypatch.setattr(verify, "legendre_defect", lambda k: math.nan)
        assert main(["verify", "--suite", "elliptic"]) == 3
        captured = capsys.readouterr()
        assert "[FAIL] legendre relation on 50 moduli: max residual nan" in captured.out
        assert "4/5 invariants passed" in captured.out
        assert '"k": 1e-06' in captured.err

    def test_unknown_suite_rejected(self):
        proc = run_cli(["verify", "--suite", "nonsense"])
        assert proc.returncode == 1


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

    def test_invalid_range_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad2.cfg"
        cfg_file.write_text("k_min = 0.9\nk_max = 0.2\n")
        with pytest.raises(ValueError):
            load_config(str(cfg_file))
