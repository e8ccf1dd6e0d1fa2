import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from pshmodels import QUARTER_PI, EllipticTube, model_from_spec
from pshmodels.cli import _emit, main
from pshmodels.suites import TOL_DEFAULTS, check_step

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
SQUIRCLE_STRIPTUBE = {"model": "striptube",
                      "body": {"type": "smooth", "kind": "superellipse",
                               "params": {"radii": [1.0, 0.7], "power": 4}}}
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


def test_eval_serves_a_strip_tube_over_huge_radii(capsys, tmp_path):
    # the bounding radius of a superellipse of radii 1e200 is 1.4e200,
    # not an overflow, and Im z = 1e199 e1, whose squared norm overflows,
    # lies within it: a member whose gauge is the closed form 0.1. No
    # warning is raised or printed
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"model": "striptube", "body": {
        "type": "smooth", "kind": "superellipse",
        "params": {"radii": [1e200, 1e200], "power": 4}}}))
    for point, u in (("1e199,0", 0.0), ("0+1e199j,0", 0.1)):
        code, out, err = _run_quietly(capsys, ["eval", "--model", str(spec),
                                               "--point=" + point])
        assert (code, err) == (0, ""), point
        record = json.loads(out)
        assert record["member"] is True, point
        assert abs(record["u"] - u) <= 4 * math.ulp(u), point


def _count_gauge_rows(monkeypatch, model) -> list:
    """Record (formula, rows) for each call of the center pass
    ``_centers`` (the rows of X) and of the gauge formulas ``_gauges`` and
    ``_gauge_pairs`` (the rows of Y) on the class of model's body."""
    body = type(model.body)
    calls = []
    for name in ("_centers", "_gauges", "_gauge_pairs"):
        def counted(self, *args, name=name, formula=getattr(body, name)):
            calls.append((name, len(args[-1])))
            return formula(self, *args)
        monkeypatch.setattr(body, name, counted)
    return calls


class TestEval:
    @pytest.mark.parametrize("point, member", [
        ("0.1+0.2j,-0.2+0.15j", True), ("0.1+2j,0.3", False),
        ("1.5+0.1j,0", False)], ids=["member", "nonmember", "outside-body"])
    def test_one_gauge_pair(self, spec_path, capsys, monkeypatch, point,
                            member):
        # membership, potential and (p, p_bar) come from one center pass
        # and one gauge pair
        calls = _count_gauge_rows(monkeypatch, model_from_spec(SQUARE_TUBE))
        code, out, _ = run(capsys, ["eval", "--model", spec_path(SQUARE_TUBE),
                                    "--point=" + point])
        assert json.loads(out)["member"] is member
        assert code == (0 if member else 3)
        # outside the body no gauge is centered, and none is evaluated
        centered = json.loads(out)["p"] is not None
        assert calls == [("_centers", 1), ("_gauge_pairs", int(centered))]

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

    @pytest.mark.parametrize("name", ["ball_tube", "square_tube"])
    def test_fd_gap_is_relative_above_one(self, capsys, name):
        # E_fd is within 1e-13 of E_closed relative to it, but 3.3e-05 off
        # in absolute terms, which an absolute test called a disagreement
        argv = ["metric", "--model", str(ROOT / "specs" / f"{name}.json"),
                "--x", "0.1,0.1", "--xi", "1e9,0"]
        code, out, err = run(capsys, argv)
        record = json.loads(out)
        assert code == 0 and err == ""
        assert abs(record["E_fd"] - record["E_closed"]) > 1e-6
        # below 1 the test stays absolute
        code, out, err = run(capsys, argv[:-1] + ["0.5,0", "--tol",
                                                   "metric_fd=1e-17"])
        record = json.loads(out)
        gap = abs(record["E_fd"] - record["E_closed"])
        assert code == 0 and record["E_closed"] <= 1.0 and gap > 1e-17
        assert err == ("warning: closed-form and FD metrics differ by "
                       f"{gap:.3e}\n")

    def test_off_center_non_finite_xi_is_malformed(self, spec_path, capsys):
        # the model validates (x, xi) before it tests the center
        code, out, err = run(capsys, ["metric", "--model",
                                      spec_path(BALL_TUBE), "--x=5,5",
                                      "--xi=inf,0"])
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_center_tested_at_most_seven_times(self, spec_path, capsys,
                                               monkeypatch):
        # once each by metric, metric_slope and disc_upper_bound, then by
        # metric's gauge pair, the slope ladder's batch, and disc_bound's
        # gauge pair and chart
        from pshmodels.bodies import Ellipsoid
        calls = []
        centers = Ellipsoid._centers

        def counted(self, X):
            calls.append(len(X))
            return centers(self, X)
        monkeypatch.setattr(Ellipsoid, "_centers", counted)
        code, _, err = run(capsys, ["metric", "--model", spec_path(BALL_TUBE),
                                    "--x", "0.1,0.1", "--xi", "1,0.5"])
        assert (code, err) == (0, "")
        assert 0 < len(calls) <= 7

    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("spec", [DISC, BALL_TUBE, SQUARE_TUBE,
                                      INTERVAL_TUBE],
                             ids=["disc1d", "ball_tube", "square_tube",
                                  "interval_tube"])
    @pytest.mark.parametrize("scale", [1.0, 5e17])
    def test_near_the_center_edge(self, spec_path, capsys, spec, k, scale):
        # x = 1 - 10^-k, where E is about 10^k / 2 per unit xi: the
        # ladder's top step starts in the linear regime, not at an
        # absolute t = 1e-2, and reaches it also at a xi below 2^60,
        # which runs unscaled
        x = repr(1.0 - 10.0 ** -k)
        dim = model_from_spec(spec).dim
        code, out, err = run(capsys, [
            "metric", "--model", spec_path(spec),
            "--x=" + ",".join([x] + ["0"] * (dim - 1)),
            "--xi=" + ",".join([repr(scale), repr(scale / 2)][:dim])])
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert (abs(record["E_fd"] - record["E_closed"])
                <= 1e-9 * max(1.0, record["E_closed"]))

    @pytest.mark.parametrize("xi", ["0,0,0,0", "1,0,0,0", "0", "1"])
    def test_xi_of_wrong_dimension(self, spec_path, capsys, xi):
        # a zero xi used to skip the dimension check and print zeros
        code, out, err = run(capsys, ["metric", "--model",
                                      spec_path(BALL_TUBE), "--x", "0,0",
                                      "--xi", xi])
        assert code == 2
        assert out == "" and "xi dimension" in err


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

    def test_striptube_nonmember_rejected(self, capsys):
        # gauge 10 > pi/4: the record used to print "u": null with exit 0
        code, out, err = run(capsys, ["geodesic", "--model",
                                      str(ROOT / "specs" /
                                          "striptube_ellipsoid.json"),
                                      "--point", "0,5j"])
        assert code == 3
        assert out == "" and "not in the striptube domain" in err


# the common options each subcommand reads; it must refuse the others
READS = {"eval": ("--out",), "metric": ("--tol", "--out"),
         "geodesic": ("--out",), "slice": ("--out",),
         "verify": ("--seed", "--samples", "--step", "--tol", "--out")}
COMMON_VALUES = {"--seed": "7", "--samples": "5", "--step": "0.01",
                 "--tol": "psh=1e-6", "--out": "report.out"}
REQUIRED = {"eval": ["--point", "0.5j"], "metric": ["--x", "0", "--xi", "1"],
            "geodesic": ["--point", "0.5j"], "slice": ["--plane", "0,1"],
            "verify": ["--suite", "psh"]}


class TestOptions:
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in READS for flag in COMMON_VALUES
        if flag not in READS[command]])
    def test_unread_option_rejected(self, spec_path, capsys, command, flag):
        argv = [command, "--model", spec_path(INTERVAL_TUBE),
                *REQUIRED[command], flag, COMMON_VALUES[flag]]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize("command, name", [
        *(("metric", name) for name in TOL_DEFAULTS if name != "metric_fd"),
        ("verify", "metric_fd")])
    def test_unread_tolerance_rejected(self, spec_path, capsys, command,
                                      name):
        # metric reads metric_fd alone, and no verify suite reads it
        argv = [command, "--model", spec_path(DISC), *REQUIRED[command],
                "--tol", f"{name}=1e-30"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and name in err

    @pytest.mark.parametrize("command, name", [
        ("metric", "metric_fd"),
        *(("verify", name) for name in TOL_DEFAULTS if name != "metric_fd")])
    def test_read_tolerance_accepted(self, spec_path, capsys, command, name):
        # set to its default, an accepted override leaves the output as is
        argv = [command, "--model", spec_path(DISC), *REQUIRED[command]]
        expected = run(capsys, argv)
        assert expected[0] == 0
        assert run(capsys, argv + ["--tol",
                                   f"{name}={TOL_DEFAULTS[name]!r}"]) \
            == expected

    @pytest.mark.parametrize("argv, code", [
        (["eval", "--point", "0.1+0.2j,0.3j"], 0),
        (["eval", "--point", "2.0j,0"], 3),
        (["metric", "--x", "0.1,0.2", "--xi", "0.3,-0.5"], 0),
        (["metric", "--x", "0,0", "--xi", "0,0"], 0),
        (["geodesic", "--point", "0.1+0.2j,0.3j"], 0),
    ], ids=["eval", "eval-nonmember", "metric", "metric-zero", "geodesic"])
    def test_out_file_holds_the_stdout_bytes(self, spec_path, capsys,
                                             tmp_path, argv, code):
        model = ["--model", spec_path(BALL_TUBE)]
        code_stdout, out, _ = run(capsys, argv[:1] + model + argv[1:])
        out_path = tmp_path / "record.json"
        code_file, printed, _ = run(capsys, argv[:1] + model + argv[1:]
                                    + ["--out", str(out_path)])
        assert code_stdout == code_file == code
        assert printed == ""
        assert out_path.read_bytes() == out.encode("utf-8")


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

    @pytest.mark.parametrize("model", ["elliptictube", "striptube"])
    @pytest.mark.parametrize("suite", ["psh", "ma"])
    def test_safe_samplers_scale_with_the_body(self, spec_path, capsys,
                                               model, suite):
        # h / r = 1e-3 over inradius 1e15: the safe samplers used to
        # compare the dimensionless level or potential with the length
        # 10 h, and starved (elliptic) or drew from an empty range (strip)
        code, out, err = run(capsys, ["verify", "--model",
                                      spec_path({"model": model,
                                                 "body": HUGE_BALL}),
                                      "--suite", suite, "--samples", "5",
                                      "--step", "1e12"])
        assert code == 0, err
        assert json.loads(out)["samples"] == 5

    def test_geodesics_scale_with_the_body(self, spec_path, capsys):
        # the off-disc and reconstruction residuals are relative to |z|;
        # measured absolutely, maximality exited 2 "point is off the disc
        # image" and geodesics failed on rounding over inradius 1e15
        code, out, err = run(capsys, ["verify", "--model",
                                      spec_path({"model": "elliptictube",
                                                 "body": HUGE_BALL}),
                                      "--suite", "all", "--samples", "5",
                                      "--step", "1e12"])
        suites = {r["check"]: r for r in json.loads(out)["suites"]}
        assert suites["geodesics"]["pass"] is True
        assert suites["maximality"]["pass"] is True
        # every other suite passes too, except the Richardson suites: the
        # absolute residual_floor of 1e-12 sits above every residual at
        # this scale, so they compare no ratio, and a check that compared
        # nothing fails
        for name in ("tube-levi", "gauge-derivatives"):
            assert suites[name]["pass"] is False
            assert suites[name]["worst_point"] is None
        assert all(r["pass"] for name, r in suites.items()
                   if name not in ("tube-levi", "gauge-derivatives"))
        assert code == 1, err

    @pytest.mark.parametrize("spec", [STRIP, DISC], ids=["strip1d", "disc1d"])
    @pytest.mark.parametrize("step", ["nan", "inf"])
    @pytest.mark.parametrize("suite", ["psh", "all", "geodesics"])
    def test_non_finite_step_rejected(self, spec_path, capsys, spec, step,
                                      suite):
        # 1-D models have no body; the finiteness test used to be skipped
        # with it, and psh died in rng.uniform with exit 1
        code, out, err = run(capsys, ["verify", "--model", spec_path(spec),
                                      "--suite", suite, "--samples", "5",
                                      f"--step={step}"])
        assert code == 2
        assert out == "" and "--step must be positive and finite" in err

    @pytest.mark.parametrize("spec, limit", [
        (DISC, 0.8 * QUARTER_PI / 20.0), (STRIP, 0.9 * QUARTER_PI / 10.0)],
        ids=["disc1d", "strip1d"])
    @pytest.mark.parametrize("suite", ["psh", "ma", "all"])
    def test_step_past_the_safe_window_rejected(self, spec_path, capsys,
                                                spec, limit, suite):
        # the safe sampler of disc1d draws the height from
        # [max(0.3 pi/4, 20 h), 0.8 pi/4], strip1d from
        # [max(0.1 pi/4, 10 h), 0.9 pi/4]; past the limit NumPy used to
        # raise "high - low < 0", exit 2 with an internal message
        path = spec_path(spec)
        for step in ("0.1", repr(limit)):
            code, out, err = run(capsys, ["verify", "--model", path,
                                          "--suite", suite, "--samples", "5",
                                          "--step", step])
            assert code == 2
            assert out == ""
            assert f"--step {float(step):g}" in err and f"{limit:g}" in err
        below = repr(float(np.nextafter(limit, 0.0)))
        code, out, err = run(capsys, ["verify", "--model", path, "--suite",
                                      suite, "--samples", "5", "--step",
                                      below])
        assert code in (0, 1) and err == ""
        assert json.loads(out)

    def test_step_past_the_elliptic_window_rejected(self, capsys):
        # both gauges at most 0.8 keep u below atan(0.8); the floor
        # 10 h / rin reaches it from h = atan(0.8) / 10 on the unit ball,
        # where 10,000 redraw rounds used to starve (exit 4)
        path = str(ROOT / "specs" / "ball_tube.json")
        for suite in ("psh", "ma", "all"):
            code, out, err = run(capsys, ["verify", "--model", path,
                                          "--suite", suite, "--samples",
                                          "3", "--step", "0.1"])
            assert code == 2 and out == ""
            assert "--step 0.1 " in err and "0.0674741" in err
        code, out, err = run(capsys, ["verify", "--model", path, "--suite",
                                      "psh", "--samples", "3", "--step",
                                      "0.05"])
        assert code in (0, 1) and err == ""
        assert json.loads(out)["h"] == 0.05

    @pytest.mark.parametrize("spec, limit", [
        ("striptube_ellipsoid", "0.0706858"),
        ("striptube_squircle", "0.0745927")])
    def test_step_past_the_strip_window_rejected(self, capsys, spec, limit):
        # a strip-tube draw has |y| < 0.9 (pi/4) R, R = sup |w| over the
        # body, so the floor 10 h is out of reach from 0.9 (pi/4) R / 10
        # on, where 1,000 redraw rounds used to starve (exit 4)
        path = str(ROOT / "specs" / f"{spec}.json")
        code, out, err = run(capsys, ["verify", "--model", path, "--suite",
                                      "psh", "--samples", "3", "--step",
                                      "0.1"])
        assert code == 2 and out == ""
        assert "--step 0.1 " in err and limit in err
        code, out, err = run(capsys, ["verify", "--model", path, "--suite",
                                      "psh", "--samples", "3", "--step",
                                      "0.05"])
        assert code in (0, 1) and err == ""
        assert json.loads(out)["h"] == 0.05

    @pytest.mark.parametrize("suite", ["tube-levi", "gauge-derivatives"])
    def test_richardson_refusal_names_the_given_step(self, capsys, suite):
        # the Richardson suites draw at 2h = 0.04, past the 0.033737 of
        # the ellipsoid tube's window; the refusal is of --step 0.02, at
        # half that limit
        code, out, err = run(capsys, ["verify", "--model",
                                      str(ROOT / "specs" /
                                          "ellipsoid_tube.json"),
                                      "--suite", suite, "--step", "0.02"])
        assert code == 2 and out == ""
        assert "--step 0.02 " in err and "0.0168685" in err
        assert "0.04" not in err

    @pytest.mark.parametrize("spec", [STRIP, DISC], ids=["strip1d", "disc1d"])
    def test_check_step_has_no_window_rule(self, spec):
        # the safe sampler refuses what its window cannot serve
        assert check_step(model_from_spec(spec), 0.1, "psh") is None

    def test_safe_window_leaves_other_suites_alone(self, spec_path, capsys):
        code, out, _ = run(capsys, ["verify", "--model", spec_path(DISC),
                                    "--suite", "schwarz", "--samples", "5",
                                    "--step", "0.1"])
        assert code == 0, out

    @pytest.mark.parametrize("suite, floor", [("tube-levi", "1"),
                                              ("gauge-derivatives", "1e300")])
    def test_richardson_comparing_no_ratio_fails(self, spec_path, capsys,
                                                 suite, floor):
        # every residual at h is below the floor, so no ratio is compared;
        # such a check used to pass with worst_point null
        code, out, err = run(capsys, ["verify", "--model",
                                      spec_path(BALL_TUBE), "--suite", suite,
                                      "--samples", "5", "--tol",
                                      f"residual_floor={floor}"])
        assert code == 1, err
        report = json.loads(out)
        assert report["pass"] is False and report["worst_point"] is None

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
        check_step(model, 2e-4 if "squircle" in path.name else 1e-3)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("extra, message", [
        (["--plane", "0,0"], "plane indices"),
        (["--plane", "0,9"], "plane indices"),
        (["--plane", "0,1"], "imaginary coordinate"),
        (["--resolution", "-1"], "--resolution"),
        (["--half-width", "0"], "--half-width"),
        (["--half-width", "nan"], "--half-width"),
        (["--half-width", "inf"], "--half-width"),
        (["--center=nan,0,0,0"], "--center"),
        (["--center=0,0,-inf,0"], "--center"),
        (["--center=0,0,1e308,0", "--half-width", "1e308"], "--half-width"),
        (["--plane", "2,3,1"], "two indices I,J"),
        (["--plane", "2,x"], "two indices I,J"),
        # about 2.9 PiB, past the 47-bit address space: NumPy refuses the
        # grid without touching memory
        (["--resolution", "10000000"], "does not fit in memory"),
    ], ids=["plane-repeated", "plane-out-of-range", "plane-two-real",
            "resolution-negative", "half-width-zero", "half-width-nan",
            "half-width-inf", "center-nan", "center-inf", "grid-overflow",
            "plane-three-indices", "plane-not-an-integer",
            "grid-past-memory"])
    def test_rejects_bad_input(self, spec_path, capsys, tmp_path, extra,
                               message):
        out_path = tmp_path / "grid.csv"
        argv = ["slice", "--model", spec_path(BALL_TUBE), "--plane", "2,3",
                "--resolution", "2", "--out", str(out_path)]
        code, _, err = run(capsys, argv + extra)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "RuntimeWarning" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("spec, plane, center, half_width, resolution", [
        # the Re-Im plane leaves the polytope body: gauges without a center
        (SQUARE_TUBE, "0,2", "0,0.05,0,0.1", 1.25, 20),
        (SQUIRCLE_STRIPTUBE, "2,3", "0.1,0,0,0", 1.0, 12),
        # the grid holds the four points of the unit circle
        (DISC, "0,1", "0,0", 1.0, 4),
        # NumPy's complex abs puts this point inside the disc
        (DISC, "0,1", "-0.9972426976221218,-0.07420917759518231", 1.0, 0),
        # every spec of specs/, on off-centre planes; 1e-05 prints with an
        # exponent, and -0.0 is a signed zero
        ("ball_tube", "2,3", "0.05,-0.03,0,0", 1.25, 7),
        ("disc1d", "0,1", "1e-05,-0.0", 1.0, 1),
        ("ellipsoid_tube", "1,3", "-0.0,0.2,1e-05,0", 0.9, 0),
        ("interval_tube", "0,1", "0.1,-0.0", 1.2, 9),
        ("square_tube", "2,1", "1e-05,0,-0.0,0.3", 1.5, 6),
        ("strip1d", "1,0", "-0.0,1e-05", 1.0, 2),
        ("striptube_asym", "0,1", "0.5,-0.2", 2.5, 8),
        ("striptube_ellipsoid", "3,0", "0,0.1,-0.0,1e-05", 0.8, 1),
        ("striptube_squircle", "1,2", "0.1,-0.2,0.05,0.1", 0.9, 5),
        # no member point: the potential of zero rows
        ("ball_tube", "0,2", "5,5,5,5", 0.1, 3),
        ("strip1d", "0,1", "0,3", 0.5, 0),
    ], ids=["square-tube-re-im", "squircle-im-im", "disc-circle",
            "disc-last-bit", "ball-tube", "disc1d-res1", "ellipsoid-tube-res0",
            "interval-tube", "square-tube", "strip1d", "striptube-asym",
            "striptube-ellipsoid-res1", "striptube-squircle",
            "ball-tube-no-member", "strip1d-no-member"])
    def test_matches_scalar_evaluation(self, spec_path, capsys, tmp_path,
                                       spec, plane, center, half_width,
                                       resolution):
        if isinstance(spec, str):
            spec = json.loads((ROOT / "specs" / f"{spec}.json").read_text())
        out_path = tmp_path / "grid.csv"
        argv = ["slice", "--model", spec_path(spec), "--plane", plane,
                "--center=" + center, "--half-width", repr(half_width),
                "--resolution", str(resolution)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert run(capsys, argv + ["--out", str(out_path)])[0] == 0
        expected = _scalar_slice(model_from_spec(spec),
                                 [int(p) for p in plane.split(",")],
                                 np.array([float(c) for c in
                                           center.split(",")]),
                                 half_width, resolution)
        assert out.encode("utf-8") == expected
        assert out_path.read_bytes() == expected

    @pytest.mark.parametrize("spec", [BALL_TUBE, SQUARE_TUBE],
                             ids=["ellipsoid", "polytope"])
    def test_elliptic_tube_gauges_each_point_once(self, spec_path, capsys,
                                                  monkeypatch, spec):
        # one center pass over the grid and one gauge pair at the points
        # it centers decide membership and give the potential
        calls = _count_gauge_rows(monkeypatch, model_from_spec(spec))
        code, _, _ = run(capsys, ["slice", "--model", spec_path(spec),
                                  "--plane", "0,2", "--half-width", "1.25",
                                  "--resolution", "10"])
        assert code == 0
        # the grid reaches past the body: some of its 121 points center
        # no gauge
        assert [name for name, _ in calls] == ["_centers", "_gauge_pairs"]
        assert calls[0][1] == 121 and 0 < calls[1][1] < 121

    def test_writes_at_most_one_block(self, spec_path, monkeypatch):
        # the text goes out block by block, so it never sits whole in memory
        class Recording(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)
        writes = []
        stream = Recording()
        monkeypatch.setattr("sys.stdout", stream)
        resolution = 30
        assert main(["slice", "--model", spec_path(BALL_TUBE), "--plane",
                     "2,3", "--resolution", str(resolution)]) == 0
        assert "".join(writes) == stream.getvalue()
        assert stream.getvalue().count("\r\n") == 1 + (resolution + 1) ** 2
        for text in writes:
            assert text.endswith("\r\n")
            assert text.count("\r\n") <= resolution + 1


def _scalar_slice(model, plane, center, half_width, resolution) -> bytes:
    """The slice CSV from scalar member and potential, point by point."""
    i, j = plane
    n = model.dim
    ticks = (np.linspace(-half_width, half_width, resolution + 1)
             if resolution else np.array([0.0]))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["c1", "c2", "member", "u"])
    for c1 in ticks:
        for c2 in ticks:
            coords = center.copy()
            coords[i] += c1
            coords[j] += c2
            z = coords[:n] + 1j * coords[n:]
            member = model.member(z)
            writer.writerow([center[i] + c1, center[j] + c2, int(member),
                             model.potential(z) if member else ""])
    return out.getvalue().encode("utf-8")


def test_each_command_draws_its_own_samples(monkeypatch, capsys):
    # the cached draws key on the model, and each command builds its own;
    # counted are the rows drawn by the batched safe sampler
    draw, counts = EllipticTube.sample_fd_safe_batch, []

    def counted(self, rngs, h):
        counts[-1] += len(rngs)
        return draw(self, rngs, h)

    monkeypatch.setattr(EllipticTube, "sample_fd_safe_batch", counted)
    argv = ["verify", "--model", str(ROOT / "specs" / "ball_tube.json"),
            "--suite", "all", "--samples", "5"]
    outputs = []
    for _ in range(2):
        counts.append(0)
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert counts == [5 + 20, 5 + 20]
    assert outputs[0] == outputs[1]


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("suite", ["geodesics", "all"])
def test_nan_worst_value_is_written_as_null(monkeypatch, capsys, suite):
    # a NaN gap fails the geodesics suite; its report is still strict
    # JSON, with the key set of any other report, and the command exits
    # 1 as any failed check does
    argv = ["verify", "--model", str(ROOT / "specs" / "ball_tube.json"),
            "--suite", suite, "--samples", "5"]
    assert main(argv) == 0
    passing = _strict_json(capsys.readouterr().out)
    monkeypatch.setattr(EllipticTube, "geodesic_witnesses",
                        lambda self, seed, samples: ([0.0, math.nan], []))
    code, out, err = run(capsys, argv)
    assert (code, err) == (1, "")
    payload = _strict_json(out)
    assert payload.keys() == passing.keys()
    assert payload["pass"] is False
    if suite == "all":
        reports = {r["check"]: r for r in payload["suites"]}
        before = {r["check"]: r for r in passing["suites"]}
        assert all(reports[name] == before[name] for name in before
                   if name != "geodesics")
        report = reports["geodesics"]
    else:
        report = payload
    assert report["worst_value"] is None and report["pass"] is False


SPEC_PATHS = sorted((ROOT / "specs").glob("*.json"))
TINY_SCALES = ("1e-300", "1e-200", "1e-160")
HUGE_SCALES = ("1e150", "1e300")


def _run_quietly(capsys, argv):
    """run, failing on any warning the command raises or prints."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err and "warning" not in err
    return code, out, err


class TestExtremeScales:
    """``metric`` at xi = s e1 and ``eval`` at Im z = s e1, x = (0.1, ...),
    on every spec, at scales s whose squares leave the float range. Near
    the center the potential and the metric are 1-homogeneous in s."""

    @staticmethod
    def _case(path):
        model = model_from_spec(json.loads(path.read_text()))
        return model, np.full(model.dim, 0.1), np.eye(model.dim)[0]

    @pytest.mark.parametrize("scale", TINY_SCALES + HUGE_SCALES)
    @pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
    def test_metric(self, capsys, path, scale):
        model, x, e1 = self._case(path)
        xi = ",".join([scale] + ["0"] * (model.dim - 1))
        code, out, err = _run_quietly(capsys, [
            "metric", "--model", str(path),
            "--x", ",".join(["0.1"] * model.dim), "--xi", xi])
        # the metric, its slope and its disc bound run at xi scaled to
        # unit size, so the ladder enters the domain and the squircle's
        # gauge root find brackets at every scale
        assert code == 0 and err == ""
        record, s = _strict_json(out), float(scale)
        assert record["E_closed"] == pytest.approx(s * model.metric(x, e1),
                                                   rel=1e-12)
        assert record["F_upper"] == pytest.approx(
            s * model.disc_bound(x, e1), rel=1e-12)
        assert (abs(record["E_fd"] - record["E_closed"])
                <= TOL_DEFAULTS["metric_fd"] * record["E_closed"])

    @pytest.mark.parametrize("path", [p for p in SPEC_PATHS
                                      if p.stem != "striptube_squircle"],
                             ids=lambda p: p.stem)
    def test_metric_subnormal_xi(self, capsys, path):
        # at a subnormal xi the slope is positive and within a few
        # subnormal steps of the closed form (ball_tube read -1e-322 when
        # the ladder ran at the subnormal xi itself)
        model, _, _ = self._case(path)
        code, out, err = _run_quietly(capsys, [
            "metric", "--model", str(path),
            "--x", ",".join(["0.1"] * model.dim),
            "--xi", ",".join(["1e-320"] + ["0"] * (model.dim - 1))])
        assert code == 0 and err == ""
        record = _strict_json(out)
        assert record["E_closed"] > 0.0 and record["E_fd"] > 0.0
        assert (abs(record["E_fd"] - record["E_closed"])
                <= 2e-3 * record["E_closed"])

    @pytest.mark.parametrize("scale", TINY_SCALES + HUGE_SCALES)
    @pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
    def test_eval(self, capsys, path, scale):
        model, x, e1 = self._case(path)
        point = ",".join([f"0.1+{scale}j"] + ["0.1"] * (model.dim - 1))
        code, out, err = _run_quietly(capsys, ["eval", "--model", str(path),
                                               "--point", point])
        if path.stem == "striptube_squircle":
            assert code == 4 and err.startswith("convergence error:")
            return
        record = _strict_json(out)
        if scale in HUGE_SCALES:
            assert code == 3
            assert record["member"] is False and record["u"] is None
            return
        assert code == 0 and record["member"] is True
        assert all(record[key] is None or record[key] >= 0.0
                   for key in ("p", "p_bar"))
        # off the center u > 0, and u = s E(x, e1) to first order
        assert record["u"] > 0.0
        assert record["u"] == pytest.approx(float(scale)
                                            * model.metric(x, e1), rel=1e-12)


# (spec, xi) whose metric at x = (0.1, ...) is past the float range
PAST_THE_FLOAT_RANGE = {("ball_tube", "every"), ("ellipsoid_tube", "every"),
                        ("striptube_ellipsoid", "every"),
                        ("striptube_squircle", "every")}


@pytest.mark.parametrize("coordinates", ["every", "one"])
@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
def test_metric_past_the_float_range(capsys, path, coordinates):
    # xi = 1.7e308 in every coordinate, or 1e308 in one: a finite record,
    # or one domain error line where the metric leaves the float range
    dim = model_from_spec(json.loads(path.read_text())).dim
    xi = (["1.7e308"] * dim if coordinates == "every"
          else ["1e308"] + ["0"] * (dim - 1))
    code, out, err = _run_quietly(capsys, [
        "metric", "--model", str(path), "--x", ",".join(["0.1"] * dim),
        "--xi=" + ",".join(xi)])
    if (path.stem, coordinates) in PAST_THE_FLOAT_RANGE:
        assert (code, out) == (3, "")
        assert err == "domain error: metric is past the float range\n"
        return
    assert code == 0 and err == ""
    record = _strict_json(out)
    assert all(math.isfinite(value) and value > 1e307
               for value in record.values())


@pytest.mark.parametrize("coordinates", ["every", "one"])
@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
def test_eval_past_the_float_range(capsys, path, coordinates):
    # Im z = 1.7e308 in every coordinate, or in the first: no member, and
    # a gauge past the float range is reported as null in strict JSON
    dim = model_from_spec(json.loads(path.read_text())).dim
    point = (["0.1+1.7e308j"] * dim if coordinates == "every"
             else ["0.1+1.7e308j"] + ["0.1"] * (dim - 1))
    code, out, err = _run_quietly(capsys, [
        "eval", "--model", str(path), "--point=" + ",".join(point)])
    if path.stem == "striptube_squircle":
        assert code == 4 and err.startswith("convergence error:")
        return
    assert (code, err) == (3, "")
    record = _strict_json(out)
    assert record["member"] is False
    assert record["u"] is None and record["p"] is None


def test_slice_past_the_float_range(capsys):
    # the polytope gauge's quotient leaves the float range with no warning
    code, out, err = _run_quietly(capsys, [
        "slice", "--model", str(ROOT / "specs" / "square_tube.json"),
        "--plane", "0,2", "--center=0.5,0,1.7e308,0", "--resolution", "2",
        "--half-width", "0.1"])
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 9 and all(row.endswith(",0,") for row in rows)


ELLIPSOID_TUBE = {"model": "elliptictube",
                  "body": {"type": "ellipsoid", "Q": [[1.0, 0.0], [0.0, 4.0]]}}


@pytest.mark.parametrize("spec", [BALL_TUBE, ELLIPSOID_TUBE],
                         ids=["ball_tube", "ellipsoid_tube"])
def test_ellipsoid_edge_band_is_off_the_center(spec_path, capsys, spec):
    # x Q x = 1 - 5e-13: inside the ellipsoid, but within 1e-12 of its
    # edge, where no gauge is centered; membership, the center test,
    # metric, eval and slice agree that the tube's center does not hold x
    x = repr(math.sqrt(1.0 - 5e-13))
    model, path = model_from_spec(spec), spec_path(spec)
    assert model.body.contains([float(x), 0.0])
    assert not model.member_batch([[complex(x), 0j]])[0]
    assert not model.in_center([float(x), 0.0])
    code, out, err = run(capsys, ["metric", "--model", path, f"--x={x},0",
                                  "--xi=1,0"])
    assert (code, out) == (3, "")
    assert err == "domain error: x is not in the elliptictube center\n"
    code, out, err = run(capsys, ["eval", "--model", path, f"--point={x},0"])
    assert (code, err) == (3, "")
    assert json.loads(out) == {"member": False, "u": None, "p": None,
                               "p_bar": None}
    code, out, _ = run(capsys, ["slice", "--model", path, "--plane", "2,3",
                                f"--center={x},0,0,0", "--resolution", "0"])
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "0"


def test_parser_is_built_once(spec_path, capsys, monkeypatch):
    # build_parser costs about ten times a parse; main builds it once per
    # process, and a second command parses with it unchanged
    import argparse
    from pshmodels import cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    getattr(cli.build_parser, "cache_clear", lambda: None)()
    argv = ["eval", "--model", spec_path(SQUARE_TUBE), "--point=0.1+0.2j,0"]
    first, second = run(capsys, argv), run(capsys, argv)
    assert first == second and first[0] == 0
    assert built.count("pshmodels") == 1
