"""Pinned outputs of the CLI over the example specs.

``golden.json`` maps each command below to its exit code and either its
stdout and stderr (eval, geodesic, metric) or the sha256 of its stdout
(verify, slice). Any
change to a report, a record or a CSV byte shows here. Regenerate it only
when an output changes on purpose:

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pshmodels import model_from_spec
from pshmodels.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
POINTS = {1: "0.3+0.2j", 2: "0.1+0.2j,-0.2+0.15j"}
# the center metric's (x, xi) per dimension: an interior x, a nonzero xi
METRIC_ARGS = {1: ("0.3", "0.7"), 2: ("0.1,-0.2", "1,0.5")}


def _commands() -> dict:
    commands = {}
    for path in sorted((ROOT / "specs").glob("*.json")):
        spec, model = path.stem, str(path)
        step = "2e-4" if "squircle" in spec else "1e-3"
        for seed in ("42", "7"):
            commands[f"verify {spec} {seed}"] = [
                "verify", "--model", model, "--suite", "all", "--samples",
                "20", "--seed", seed, "--step", step]
        dim = model_from_spec(json.loads(path.read_text())).dim
        for command in ("eval", "geodesic"):
            commands[f"{command} {spec}"] = [command, "--model", model,
                                              "--point", POINTS[dim]]
        x, xi = METRIC_ARGS[dim]
        commands[f"metric {spec}"] = ["metric", "--model", model, "--x", x,
                                      "--xi", xi]
    commands["metric ball_tube zero xi"] = [
        "metric", "--model", str(ROOT / "specs" / "ball_tube.json"), "--x",
        "0.1,-0.2", "--xi", "0,0"]
    # about 2,500 smooth-body gauge rows per batched call
    commands["verify striptube_squircle 42 large"] = [
        "verify", "--model", str(ROOT / "specs" / "striptube_squircle.json"),
        "--suite", "all", "--samples", "100", "--step", "2e-4", "--seed",
        "42"]
    # many rows of the rejection retries of the batched samplers
    for spec in ("ball_tube", "square_tube", "striptube_asym",
                 "striptube_ellipsoid", "strip1d", "disc1d",
                 "ellipsoid_tube", "interval_tube"):
        commands[f"verify {spec} 1000003 large"] = [
            "verify", "--model", str(ROOT / "specs" / f"{spec}.json"),
            "--suite", "all", "--samples", "200", "--seed", "1000003"]
    for spec, plane in (("ball_tube", "2,3"), ("square_tube", "0,2")):
        commands[f"slice {spec}"] = [
            "slice", "--model", str(ROOT / "specs" / f"{spec}.json"),
            "--plane", plane, "--resolution", "20"]
    # off-centre planes through the other model kinds
    for spec, plane, center in (
            ("strip1d", "0,1", "0.3,0.1"),
            ("disc1d", "0,1", "0.2,-0.1"),
            ("interval_tube", "0,1", "0.1,0.05"),
            ("striptube_asym", "0,1", "0.5,-0.2"),
            ("striptube_squircle", "1,2", "0.1,-0.2,0.05,0.1"),
            ("square_tube", "2,3", "0.3,-0.2,0,0")):
        commands[f"slice {spec} off-centre"] = [
            "slice", "--model", str(ROOT / "specs" / f"{spec}.json"),
            "--plane", plane, "--center=" + center, "--resolution", "40"]
    # a Re-Im plane crossing the ellipsoid's edge, where centers are refused
    commands["slice ellipsoid_tube edge"] = [
        "slice", "--model", str(ROOT / "specs" / "ellipsoid_tube.json"),
        "--plane", "0,2", "--half-width", "1.25", "--resolution", "40"]
    # an ellipsoid gauge rescaled by a power of two, and gauges past the
    # float range
    for spec, label, point in (("ball_tube", "tiny y", "0.1+1e-300j,0"),
                               ("ball_tube", "huge y", "0.1+1e300j,0"),
                               ("square_tube", "huge y", "0.1+1e300j,0")):
        commands[f"eval {spec} {label}"] = [
            "eval", "--model", str(ROOT / "specs" / f"{spec}.json"),
            "--point", point]
    return commands


COMMANDS = _commands()


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if argv[0] in ("verify", "slice"):
        return {"code": code,
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    return {"code": code, "stdout": text, "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_is_pinned(name):
    assert _run(COMMANDS[name]) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    json.dump({name: _run(argv) for name, argv in sorted(COMMANDS.items())},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
