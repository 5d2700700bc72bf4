import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relaxarea.chains import SingularChain
from relaxarea.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestArea:
    def test_vortex_area_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "area", "--field", "vortex", "--d", "1",
                           "--domain", "ball2", "--tol", "1e-6")
        assert code == 0
        value = float(out.split("area=")[1].split()[0])
        assert value == pytest.approx(7.2118, abs=5e-4)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "area.csv"
        code, *_ = run(capsys, "area", "--field", "constant",
                       "--domain", "ball2", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "quantity,value,error_estimate,nodes"
        assert float(lines[1].split(",")[1]) == pytest.approx(math.pi, rel=1e-8)


class TestEnergy:
    def test_planar_vortex_energy_line(self, capsys):
        code, out, _ = run(capsys, "energy", "--field", "planar_vortex",
                           "--domain", "ball3")
        assert code == 0
        tv = float(out.split("tv=")[1].split()[0])
        assert tv == pytest.approx(math.pi**2, rel=1e-4)
        assert "relaxed_rhs=" in out

    def test_relaxed_rhs_counts_only_the_chain_inside(self, capsys):
        # a length of 1 of the z-axis lies in the ball, so pi, not 2 pi
        code, out, _ = run(capsys, "energy", "--field", "planar_vortex",
                           "--domain", "ball3", "--radius", "0.5",
                           "--tol", "1e-5")
        assert code == 0
        tv_area = float(out.split("tv_area=")[1].split()[0])
        rhs = float(out.split("relaxed_rhs=")[1].split()[0])
        assert rhs == pytest.approx(tv_area + math.pi, abs=1e-10)
        assert rhs == pytest.approx(5.68386, abs=1e-5)

    def test_point_on_the_domain_boundary_exits_2(self, capsys):
        # vortex_chain m=3 has a vortex at x = 0.5, on this ball's boundary
        code, _, err = run(capsys, "energy", "--field", "vortex_chain",
                           "--domain", "ball2", "--radius", "0.5")
        assert code == 2
        assert "boundary" in err


class TestJacobian:
    def test_chain_extraction_and_csv(self, capsys, tmp_path):
        path = tmp_path / "chain.csv"
        code, out, _ = run(capsys, "jacobian", "--field", "planar_vortex",
                           "--grid", "64", "--out", str(path))
        assert code == 0
        mass = float(out.split("mass=")[1].split()[0])
        assert mass == pytest.approx(2.0, abs=0.1)
        back = SingularChain.from_csv(path)
        assert len(back) == 64

    @pytest.mark.parametrize("field", ["vortex", "planar_vortex", "vortex_chain"])
    def test_odd_grid_through_the_singular_centre_exits_2(self, capsys, field,
                                                          monkeypatch):
        from relaxarea import cli

        def no_extraction(*args):
            raise AssertionError("extraction ran")

        monkeypatch.setattr(cli, "extract_vortices_2d", no_extraction)
        monkeypatch.setattr(cli, "extract_lines_3d", no_extraction)
        code, out, err = run(capsys, "jacobian", "--field", field, "--grid", "21")
        assert code == 2 and out == ""
        assert "--grid 21" in err and "20 or 22" in err

    @pytest.mark.parametrize("field, grid", [
        ("constant", "21"), ("constant", "20"), ("vortex", "20"),
        ("vortex", "22"), ("planar_vortex", "20"), ("planar_vortex", "22")])
    def test_grids_off_the_singular_set_run(self, capsys, field, grid):
        code, out, _ = run(capsys, "jacobian", "--field", field, "--grid", grid)
        assert code == 0 and out.startswith("cells=")

    def test_chain_centre_on_a_lattice_edge_is_named(self, capsys):
        # at grid 10 a node column runs through the chain centre (0.5, 0):
        # no plaquette can hold it, so the run refuses, naming where it lies
        code, out, err = run(capsys, "jacobian", "--field", "vortex_chain",
                             "--grid", "10")
        assert code == 3 and out == ""
        near = err.split("passes through the singular set near (")[1]
        point = [float(x) for x in near.split(")")[0].split(",")]
        assert np.allclose(point, (0.5, 0.0), rtol=0, atol=1e-12)
        code, out, _ = run(capsys, "jacobian", "--field", "vortex_chain",
                           "--grid", "16")
        assert code == 0 and out.startswith("cells=3 ")

    def test_bad_study_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["relax", "--study", "nope"])
        assert exc.value.code == 2
        assert "nope" in capsys.readouterr().err


class TestRelax:
    def test_smoothing_study_outputs(self, capsys, tmp_path):
        path = tmp_path / "study.csv"
        code, out, _ = run(capsys, "relax", "--study", "smoothing",
                           "--eps", "0.2,0.1,0.05,0.025", "--out", str(path))
        assert code == 0
        assert "tv_vs_2pi=strict" in out
        text = path.read_text()
        assert text.splitlines()[0] == "param,A,TV,M2,err_A,err_TV,err_M2"
        blob = json.loads((tmp_path / "study.json").read_text())
        assert blob["verdicts"]["tv_vs_2pi"] == "strict"
        assert blob["limits"]["area"] == pytest.approx(10.3534, abs=0.05)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "relax", "--study", "smoothing",
            "--eps", "0.2,0.1,0.05", "--out", str(a))
        run(capsys, "relax", "--study", "smoothing",
            "--eps", "0.2,0.1,0.05", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_cyl2d_non_strict(self, capsys):
        code, out, _ = run(capsys, "relax", "--study", "cyl2d",
                           "--k", "4,8,16", "--tol", "1e-5")
        assert code == 0
        assert "tv_vs_2pi=non_strict" in out


class TestCounterexampleCli:
    def test_ball_variant_det_deviation(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--variant", "ball",
                           "--k", "2,4,8", "--tol", "1e-5")
        assert code == 0
        dev = float(out.split("det_ball_max_dev=")[1].split()[0])
        assert dev <= 1e-8

    def test_short_schedule_exits_2(self, capsys):
        code, _, err = run(capsys, "counterexample", "--variant", "ball",
                           "--k", "4,8")
        assert code == 2
        assert "at least 3" in err


class TestSubaddCli:
    def test_violation_line(self, capsys, tmp_path):
        path = tmp_path / "subadd.csv"
        code, out, _ = run(capsys, "subadd", "--radii", "0.2,0.9",
                           "--k", "8,16,32", "--tol", "1e-4",
                           "--out", str(path))
        assert code == 0
        assert "violation=True" in out
        blob = json.loads((tmp_path / "subadd.json").read_text())
        assert blob["violation_witnessed"] is True


class TestSweep:
    def test_sweep_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--family", "smoothing",
                           "--quantity", "tv", "--values", "0.2,0.1",
                           "--domain", "ball2", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "param,value,error_estimate"
        assert len(lines) == 3


class TestRejectedSchedules:
    @pytest.mark.parametrize("argv", [
        ("relax", "--study", "cyl2d", "--k", "0,4,8"),
        ("counterexample", "--variant", "ball", "--k", "0,2,4"),
    ])
    def test_zero_k_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: k must be an integer >= 2")

    def test_zero_sweep_value_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "ball",
                           "--values", "0,0.5")
        assert code == 2
        assert err.startswith("error: sweep values must be finite and positive")

    @pytest.mark.parametrize("family", ["ball", "cylinder"])
    @pytest.mark.parametrize("value", ["0.3", "1.0"])
    def test_sweep_value_not_reciprocal_k_exits_2(self, capsys, tmp_path,
                                                  family, value):
        # 0.3 would round to k = 3, 1.0 is k = 1
        path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--family", family,
                             "--values", f"0.5,{value}", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: sweep value {float(value)!r} of family")
        assert not path.exists()

    def test_sweep_accepts_rounded_reciprocals(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, *_ = run(capsys, "sweep", "--family", "ball", "--quantity",
                       "area", "--values", "0.33333333333333331,0.5",
                       "--domain", "ball3", "--tol", "1e-3", "--out", str(path))
        assert code == 0
        rows = path.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0.33333333333333331", "0.5"]

    @pytest.mark.parametrize("argv, flag, bad", [
        (("relax", "--study", "dipole", "--eps", "0.2,0.1,-0.05"),
         "--eps", "-0.05"),
        (("relax", "--study", "smoothing", "--eps", "0.2,0.1,nan"),
         "--eps", "nan"),
        (("relax", "--study", "dipole-grad", "--eps", "inf,0.2,0.1"),
         "--eps", "inf"),
        (("relax", "--study", "cyl2d", "--k", "4,8,nan"), "--k", "nan"),
        (("counterexample", "--variant", "ball", "--k", "4,inf,8"), "--k",
         "inf"),
        (("recover", "--construction", "cone4", "--eps", "nan"), "--eps",
         "nan"),
        (("recover", "--construction", "point", "--eps", "-0.2"), "--eps",
         "-0.2"),
        (("recover", "--construction", "point", "--eps", "0.2", "--delta",
          "0"), "--delta", "0.0"),
        (("recover", "--construction", "cone4", "--eps", "0.2", "--delta",
          "inf"), "--delta", "inf"),
        (("jacobian", "--field", "planar_vortex", "--grid", "16",
          "--radius", "-1"), "--radius", "-1.0"),
        (("jacobian", "--grid", "16", "--radius", "0"), "--radius", "0.0"),
        (("jacobian", "--field", "planar_vortex", "--grid", "16",
          "--radius", "nan"), "--radius", "nan"),
        (("jacobian", "--grid", "16", "--radius", "inf"), "--radius", "inf"),
    ])
    def test_non_finite_or_non_positive_value_exits_2(self, capsys, tmp_path,
                                                      argv, flag, bad):
        path = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}") and bad in err
        assert not path.exists()

    @pytest.mark.parametrize("radius", ["nan", "inf", "-inf", "0"])
    def test_non_finite_radius_exits_2(self, capsys, radius):
        for domain in ("ball2", "cube2"):
            code, out, err = run(capsys, "area", "--domain", domain,
                                 f"--radius={radius}")
            assert code == 2 and out == ""
            assert "must be positive and finite" in err

    def test_duplicate_schedule_values_exit_2(self, capsys):
        code, out, err = run(capsys, "relax", "--study", "smoothing",
                             "--eps", "0.2,0.2,0.1")
        assert code == 2 and out == ""
        assert "at least 3 distinct" in err

    def test_subadd_short_k_schedule_exits_2(self, capsys):
        code, _, err = run(capsys, "subadd", "--radii", "0.2,0.9",
                           "--k", "8,16")
        assert code == 2
        assert "at least 3 distinct" in err


class TestErrorPaths:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["area", "--bogus", "1"])
        assert exc.value.code == 2
        assert "--bogus" in capsys.readouterr().err

    def test_invalid_tolerance_exits_2(self, capsys):
        code, _, err = run(capsys, "area", "--field", "vortex",
                           "--domain", "ball2", "--tol", "0.5")
        assert code == 2
        assert "tolerance" in err

    def test_nonconvergence_exits_3(self, capsys):
        # the cube domain cannot resolve the 1/r layer to 1e-8
        code, _, err = run(capsys, "area", "--field", "vortex",
                           "--domain", "cube2", "--tol", "1e-8")
        assert code == 3
        assert err.startswith("error: area did not reach tol=1e-08 (estimate ")
        assert "from the singular set" in err  # where the refusal lies

    def test_unwritable_output_exits_4(self, capsys):
        code, _, err = run(capsys, "area", "--field", "constant",
                           "--domain", "ball2",
                           "--out", "/nonexistent-dir/x.csv")
        assert code == 4

    def test_every_subcommand_has_help(self, capsys):
        parser = build_parser()
        for name in ("area", "energy", "jacobian", "recover", "relax",
                     "counterexample", "subadd", "sweep"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "--tol" in out and "--out" in out

    def test_config_file_defaults_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-4, "field": "constant",
                                   "domain": "ball2"}))
        code, out, _ = run(capsys, "--config", str(cfg), "area")
        assert code == 0
        assert float(out.split("area=")[1].split()[0]) == pytest.approx(
            math.pi, rel=1e-6)
        # flags win over the config file
        code, out, _ = run(capsys, "--config", str(cfg), "area",
                           "--field", "vortex", "--tol", "1e-6")
        assert code == 0
        assert float(out.split("area=")[1].split()[0]) == pytest.approx(
            7.2118, abs=5e-4)

    def test_config_equals_form(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": "constant", "domain": "ball2"}))
        code, out, _ = run(capsys, f"--config={cfg}", "area")
        assert code == 0
        assert float(out.split("area=")[1].split()[0]) == pytest.approx(
            math.pi, rel=1e-6)

    @pytest.mark.parametrize("text", [None, "[1, 2]"])
    def test_bad_config_exits_2(self, capsys, tmp_path, text):
        # None: --config given without a value; else the file's content
        argv = ["area", "--config"]
        if text is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(text)
            argv.append(str(cfg))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config", [
        (["relax"], {"study": "smoothing", "eps": "0.2,0.1,0.05"}),
        (["recover"], {"construction": "smoothing", "eps": 0.1}),
        (["recover", "--eps", "0.1"], {"construction": "smoothing"}),
        # recover's abbreviated --con stays an abbreviation of --construction
        (["recover", "--con", "smoothing"], {"eps": 0.1}),
    ])
    def test_config_supplies_required_flags(self, capsys, tmp_path, argv,
                                            config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run(capsys, "--config", str(cfg), *argv)
        assert code == 0
        assert "study=smoothing" in out or "area=" in out

    def test_required_flag_missing_everywhere_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": "smoothing"}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "recover"])
        assert exc.value.code == 2
        assert "required: --eps" in capsys.readouterr().err

    def test_config_defaults_do_not_leak_into_the_next_call(self, capsys,
                                                           tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"study": "smoothing",
                                   "eps": "0.2,0.1,0.05"}))
        code, out, _ = run(capsys, "--config", str(cfg), "relax")
        assert code == 0 and "study=smoothing" in out
        with pytest.raises(SystemExit) as exc:
            main(["relax"])
        assert exc.value.code == 2
        assert "required: --study" in capsys.readouterr().err
        cfg.write_text(json.dumps({"field": "constant", "domain": "ball2"}))
        code, out, _ = run(capsys, "--config", str(cfg), "area")
        assert float(out.split("area=")[1].split()[0]) == pytest.approx(
            math.pi, rel=1e-6)
        code, out, _ = run(capsys, "area", "--domain", "ball2")
        assert float(out.split("area=")[1].split()[0]) == pytest.approx(
            7.2118, abs=5e-4)

    @pytest.mark.parametrize("flag", ["--conf", "--con", "--confi"])
    def test_abbreviated_config_names_config(self, capsys, tmp_path, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"study": "smoothing"}))
        with pytest.raises(SystemExit) as exc:
            main([flag, str(cfg), "relax"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--config" in err
        assert "invalid choice" not in err


class TestRecoverCli:
    def test_smoothing_masses(self, capsys):
        code, out, _ = run(capsys, "recover", "--construction", "smoothing",
                           "--eps", "0.1")
        assert code == 0
        area = float(out.split("area=")[1].split()[0])
        assert area == pytest.approx(10.3534 - math.pi * 0.1, abs=0.05)

    def test_point_removal_masses(self, capsys):
        code, out, _ = run(capsys, "recover", "--construction", "point",
                           "--eps", "0.05", "--tol", "1e-5")
        assert code == 0
        ring = float(out.split("ring_mass=")[1].split()[0])
        assert 0 < ring < 0.5


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "relaxarea", "area", "--field", "vortex",
         "--tol", "1e-4"], env=env, cwd=tmp_path, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("area=")
