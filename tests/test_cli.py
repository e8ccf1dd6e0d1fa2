import json
from pathlib import Path

import pytest

from pshmodels import model_from_spec
from pshmodels.cli import _check_step, _emit, main

ROOT = Path(__file__).resolve().parents[1]

BALL_TUBE = {"model": "elliptictube",
             "body": {"type": "ellipsoid", "Q": [[1.0, 0.0], [0.0, 1.0]]}}
INTERVAL_TUBE = {"model": "elliptictube",
                 "body": {"type": "ellipsoid", "Q": [[1.0]]}}
SQUARE_TUBE = {"model": "elliptictube",
               "body": {"type": "polytope",
                        "halfspaces": [{"a": [1, 0], "b": 1},
                                       {"a": [-1, 0], "b": 1},
                                       {"a": [0, 1], "b": 1},
                                       {"a": [0, -1], "b": 1}]}}
ASYM_STRIPTUBE = {"model": "striptube",
                  "body": {"type": "polytope",
                           "halfspaces": [{"a": [1], "b": 2},
                                          {"a": [-1], "b": 1}]}}
NEEDLE_STRIPTUBE = {"model": "striptube",
                    "body": {"type": "smooth", "kind": "superellipse",
                             "params": {"radii": [1e-8, 1e8], "power": 4}}}
HUGE_BALL = {"type": "ellipsoid", "Q": [[1e-30, 0.0], [0.0, 1e-30]]}
STRIP = {"model": "strip1d"}
DISC = {"model": "disc1d"}


@pytest.fixture
def spec_path(tmp_path):
    def write(spec, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_interval_tube_point(self, spec_path, capsys):
        code, out, _ = run(capsys, ["eval", "--model", spec_path(INTERVAL_TUBE),
                                    "--point", "0.5j"])
        assert code == 0
        record = json.loads(out)
        assert record["member"] is True
        assert record["u"] == pytest.approx(0.4636476090008061, abs=1e-15)
        assert record["p"] == pytest.approx(0.5, abs=1e-14)
        assert record["p_bar"] == pytest.approx(0.5, abs=1e-14)

    def test_strip_point(self, spec_path, capsys):
        code, out, _ = run(capsys, ["eval", "--model", spec_path(STRIP),
                                    "--point", "0.3+0.2j"])
        assert code == 0
        assert json.loads(out)["u"] == pytest.approx(0.2, abs=1e-16)

    def test_center_point(self, spec_path, capsys):
        code, out, _ = run(capsys, ["eval", "--model", spec_path(BALL_TUBE),
                                    "--point", "0.1,0.2"])
        assert code == 0
        assert json.loads(out)["u"] == 0.0

    def test_nonmember_exit_code(self, spec_path, capsys):
        code, out, _ = run(capsys, ["eval", "--model", spec_path(DISC),
                                    "--point", "2.0"])
        assert code == 3
        assert json.loads(out)["member"] is False

    def test_malformed_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["eval", "--model", str(bad),
                                    "--point", "0.0"])
        assert code == 2
        assert "error" in err

    def test_wrong_dimension(self, spec_path, capsys):
        code, _, err = run(capsys, ["eval", "--model", spec_path(BALL_TUBE),
                                    "--point", "0.1"])
        assert code == 2


class TestMetric:
    def test_disc_closed_form(self, spec_path, capsys):
        code, out, _ = run(capsys, ["metric", "--model", spec_path(DISC),
                                    "--x", "0.5", "--xi", "1.0"])
        assert code == 0
        record = json.loads(out)
        assert record["E_closed"] == pytest.approx(1.3333333333333333,
                                                   rel=1e-15)
        assert abs(record["E_fd"] - record["E_closed"]) <= 1e-6
        assert record["F_upper"] == pytest.approx(record["E_closed"],
                                                  rel=1e-12)

    def test_asymmetric_striptube(self, spec_path, capsys):
        code, out, _ = run(capsys, ["metric", "--model",
                                    spec_path(ASYM_STRIPTUBE),
                                    "--x", "0.0", "--xi", "-1.0"])
        assert code == 0
        assert json.loads(out)["E_closed"] == pytest.approx(1.0, abs=1e-14)

    def test_zero_direction(self, spec_path, capsys):
        code, out, _ = run(capsys, ["metric", "--model", spec_path(BALL_TUBE),
                                    "--x", "0.1,0.1", "--xi", "0,0"])
        assert code == 0
        assert json.loads(out) == {"E_closed": 0.0, "E_fd": 0.0,
                                   "F_upper": 0.0}

    def test_outside_center(self, spec_path, capsys):
        code, _, err = run(capsys, ["metric", "--model", spec_path(BALL_TUBE),
                                    "--x", "2.0,0.0", "--xi", "1,0"])
        assert code == 3


class TestGeodesic:
    def test_elliptic_chart(self, spec_path, capsys):
        code, out, _ = run(capsys, ["geodesic", "--model",
                                    spec_path(INTERVAL_TUBE),
                                    "--point", "0.5j"])
        assert code == 0
        record = json.loads(out)
        assert record["t1"] == pytest.approx(2.0, rel=1e-14)
        assert record["t2"] == pytest.approx(2.0, rel=1e-14)
        assert record["x1"] == [pytest.approx(1.0)]
        assert record["zeta0"] == [pytest.approx(0.0, abs=1e-15),
                                   pytest.approx(-0.5)]
        assert record["reconstruction_residual"] <= 1e-13

    def test_striptube_ray(self, spec_path, capsys):
        code, out, _ = run(capsys, ["geodesic", "--model",
                                    spec_path(ASYM_STRIPTUBE),
                                    "--point=-0.3j"])
        assert code == 0
        record = json.loads(out)
        assert record["height"] == pytest.approx(0.3, abs=1e-14)
        assert record["direction"] == [pytest.approx(-1.0)]

    def test_strip_has_no_chart(self, spec_path, capsys):
        code, _, err = run(capsys, ["geodesic", "--model", spec_path(STRIP),
                                    "--point", "0.2j"])
        assert code == 2

    def test_center_point_rejected(self, spec_path, capsys):
        code, _, _ = run(capsys, ["geodesic", "--model",
                                  spec_path(INTERVAL_TUBE), "--point", "0.5"])
        assert code == 3


class TestVerify:
    def test_all_on_ball_tube(self, spec_path, capsys):
        code, out, _ = run(capsys, ["verify", "--model", spec_path(BALL_TUBE),
                                    "--suite", "all", "--samples", "40",
                                    "--seed", "5"])
        record = json.loads(out)
        assert code == 0, record
        assert record["pass"] is True
        names = {r["check"] for r in record["suites"]}
        assert {"psh", "ma", "tube-levi", "gauge-derivatives", "maximality",
                "geodesics", "schwarz"} <= names

    def test_all_on_polytope_tube_skips_c2(self, spec_path, capsys):
        code, out, _ = run(capsys, ["verify", "--model",
                                    spec_path(SQUARE_TUBE), "--suite", "all",
                                    "--samples", "30", "--seed", "6"])
        record = json.loads(out)
        assert code == 0, record
        skipped = {r["check"] for r in record["suites"] if "skipped" in r}
        assert {"psh", "ma", "tube-levi", "gauge-derivatives"} <= skipped

    def test_c2_suite_on_polytope_is_config_error(self, spec_path, capsys):
        code, _, err = run(capsys, ["verify", "--model",
                                    spec_path(SQUARE_TUBE),
                                    "--suite", "tube-levi"])
        assert code == 2

    def test_failing_tolerance_exit_one(self, spec_path, capsys):
        code, out, _ = run(capsys, ["verify", "--model", spec_path(BALL_TUBE),
                                    "--suite", "ma", "--samples", "20",
                                    "--tol", "ma=1e-30",
                                    "--tol", "ma_abs=1e-30"])
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_report_determinism(self, spec_path, capsys):
        argv = ["verify", "--model", spec_path(BALL_TUBE), "--suite",
                "maximality", "--samples", "50", "--seed", "11"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert (code1, out1) == (code2, out2)

    def test_report_file_output(self, spec_path, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, ["verify", "--model", spec_path(STRIP),
                                    "--suite", "schwarz", "--samples", "100",
                                    "--out", str(out_path)])
        assert code == 0
        record = json.loads(out_path.read_text())
        assert record["check"] == "schwarz"
        assert set(record) == {"check", "model", "samples", "h", "tol",
                               "worst_point", "worst_value", "pass"}

    def test_unknown_tolerance_rejected(self, spec_path, capsys):
        code, _, err = run(capsys, ["verify", "--model", spec_path(STRIP),
                                    "--suite", "schwarz",
                                    "--tol", "bogus=1"])
        assert code == 2

    def test_zero_samples_rejected(self, spec_path, capsys):
        code, out, err = run(capsys, ["verify", "--model", spec_path(STRIP),
                                      "--suite", "maximality",
                                      "--samples", "0"])
        assert code == 2
        assert out == "" and "samples" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, spec_path, capsys, value):
        code, out, _ = run(capsys, ["verify", "--model", spec_path(STRIP),
                                    "--suite", "geodesics", "--samples", "5",
                                    "--tol", f"geodesic={value}"])
        assert code == 2
        assert out == ""

    def test_reports_are_strict_json(self, capsys):
        with pytest.raises(ValueError):
            _emit({"worst_value": float("-inf")}, None)
        assert capsys.readouterr().out == ""

    def test_convergence_error_has_own_exit_code(self, spec_path, capsys):
        # the safe sampler cannot reach 10 h inside a 1e-8-wide needle
        code, out, err = run(capsys, ["verify", "--model",
                                      spec_path(NEEDLE_STRIPTUBE),
                                      "--suite", "psh", "--samples", "3"])
        assert code == 4
        assert out == ""
        assert "safe sampling starved" in err

    @pytest.mark.parametrize("model", ["elliptictube", "striptube"])
    @pytest.mark.parametrize("suite", ["psh", "ma", "all"])
    def test_step_below_body_scale_rejected(self, spec_path, capsys, model,
                                            suite):
        # inradius 1e15: at h = 1e-3 every Levi entry is rounding noise,
        # and psh and ma used to pass with worst_value 0.0
        code, out, err = run(capsys, ["verify", "--model",
                                      spec_path({"model": model,
                                                 "body": HUGE_BALL}),
                                      "--suite", suite, "--samples", "5"])
        assert code == 2
        assert out == "" and "inradius" in err

    def test_step_check_leaves_other_suites_alone(self, spec_path, capsys):
        code, out, _ = run(capsys, ["verify", "--model",
                                    spec_path({"model": "striptube",
                                               "body": HUGE_BALL}),
                                    "--suite", "maximality", "--samples",
                                    "5"])
        assert code == 0, out

    @pytest.mark.parametrize("path", sorted(
        p for d in ("specs", "perfbench/specs")
        for p in (ROOT / d).glob("*.json")),
        ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_example_specs_pass_the_step_check(self, path):
        # each at the step README documents for it
        model = model_from_spec(json.loads(path.read_text()))
        _check_step(model, 2e-4 if "squircle" in path.name else 1e-3)


class TestSlice:
    def test_strip_grid(self, spec_path, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, ["slice", "--model", spec_path(STRIP),
                                  "--plane", "0,1", "--half-width", "1.0",
                                  "--resolution", "100",
                                  "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "c1,c2,member,u"
        assert len(lines) - 1 == 101 ** 2
        # u equals |Im z| on member cells
        for line in lines[1:200]:
            c1, c2, member, u = line.split(",")
            if member == "1":
                assert float(u) == pytest.approx(abs(float(c2)), abs=1e-15)
            else:
                assert u == ""

    def test_resolution_zero_single_row(self, spec_path, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, ["slice", "--model", spec_path(BALL_TUBE),
                                  "--plane", "2,3",
                                  "--center", "0,0,0,0",
                                  "--resolution", "0",
                                  "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) - 1 == 1

    def test_radial_symmetry_at_ball_center(self, spec_path, capsys,
                                            tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, ["slice", "--model", spec_path(BALL_TUBE),
                                  "--plane", "2,3", "--half-width", "0.5",
                                  "--resolution", "20",
                                  "--out", str(out_path)])
        assert code == 0
        import math
        for line in out_path.read_text().strip().splitlines()[1:]:
            c1, c2, member, u = line.split(",")
            if member == "1":
                r = math.hypot(float(c1), float(c2))
                assert float(u) == pytest.approx(math.atan(r), abs=1e-12)

    def test_bad_plane_indices(self, spec_path, capsys):
        for plane in ("0,0", "0,9", "0,1"):
            code, _, _ = run(capsys, ["slice", "--model",
                                      spec_path(BALL_TUBE),
                                      "--plane", plane, "--resolution", "2"])
            if plane == "0,1":
                assert code == 2  # two real coordinates
            else:
                assert code == 2
