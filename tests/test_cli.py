"""Command-line interface: exit codes, file formats, determinism, config."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from harmonictori.cli import main
from harmonictori.config import CONFIG_ENV_VAR, load_config
from harmonictori.curves import BranchPair
from harmonictori.moduli import spectral_test


def run_cli(args, env=None, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "harmonictori.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd)
    return proc


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

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["level-set", "--p", "1/2", "--q", "0/1",
                         "--k-grid", "2", "--angle-grid", "3",
                         "--span", "1.0", "--out", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid(self, capsys):
        code = main(["level-set", "--p", "1/1", "--q", "0/1", "--k-grid", "0",
                     "--angle-grid", "4", "--span", "1.0", "--out", "x.csv"])
        capsys.readouterr()
        assert code == 1


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

    def test_unknown_suite_rejected(self):
        proc = run_cli(["verify", "--suite", "nonsense"])
        assert proc.returncode == 1


class TestConfig:
    def test_env_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k_min = 0.2\nk_max = 0.7\nseed = 9\n# comment\n")
        old = os.environ.get(CONFIG_ENV_VAR)
        os.environ[CONFIG_ENV_VAR] = str(cfg_file)
        try:
            cfg = load_config()
            assert (cfg.k_min, cfg.k_max, cfg.seed) == (0.2, 0.7, 9)
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
        "max_den", "k_grid", "angle_grid", "out_path", "mesh_path",
    ])
    def test_removed_key_rejected(self, tmp_path, key):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(cfg_file))

    def test_invalid_range_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad2.cfg"
        cfg_file.write_text("k_min = 0.9\nk_max = 0.2\n")
        with pytest.raises(ValueError):
            load_config(str(cfg_file))
