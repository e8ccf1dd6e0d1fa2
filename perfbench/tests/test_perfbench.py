"""Self-tests of the benchmark: its checks must not pass vacuously, its
trace arithmetic must hold, and each timed pass must get fresh inputs."""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import catalog  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import outermost_import_s  # noqa: E402
from session import Session  # noqa: E402

from pshmodels import cli  # noqa: E402


def _reference_text(key="ball_tube"):
    return (workloads.REFERENCE_DIR / f"{key}.json").read_text()


def _fake_main(text, rc=0):
    def main(argv):
        print(text, end="")
        return rc
    return main


@pytest.mark.parametrize("key", sorted(p.stem for p in
                                       workloads.REFERENCE_DIR.glob("*.json")))
def test_reference_reports_pass_their_check(key):
    text = _reference_text(key)
    assert checks.verify_problems(0, text, json.loads(text)) == []


def _fabricated(edit):
    report = json.loads(_reference_text())
    edit(report)
    return json.dumps(report, sort_keys=True) + "\n"


def _fail_pass(report):
    report["suites"][0]["pass"] = False
    report["pass"] = False


def _change_samples(report):
    report["suites"][0]["samples"] += 1


def _samples_above_reference(report):
    report["suites"][4]["samples"] += 1  # maximality


def _no_samples(report):
    report["suites"][5]["samples"] = 0  # geodesics


def _drop_suite(report):
    del report["suites"][-1]


def _skip_suite(report):
    report["suites"][2] = {"check": "tube-levi", "model": "elliptictube",
                           "skipped": "fabricated"}


def _non_finite(report):
    report["suites"][4]["worst_value"] = float("-inf")


@pytest.mark.parametrize("edit", [_fail_pass, _change_samples,
                                  _samples_above_reference, _no_samples,
                                  _drop_suite, _skip_suite, _non_finite])
def test_fabricated_report_raises_fail_frac(edit):
    cmd = workloads.commands("verify-closed", workloads.REFERENCE_SEED)[0]
    good = Session(_fake_main(_reference_text()))
    good.execute(cmd)
    assert (good.attempted, good.failed) == (1, 0)
    bad = Session(_fake_main(_fabricated(edit)))
    bad.execute(cmd)
    bad.execute(cmd)  # a repeated failure is checked again, not cached
    assert (bad.attempted, bad.failed) == (2, 2)


def test_drawn_suites_may_fall_short_of_the_reference():
    reference = json.loads(_reference_text("disc1d"))
    report = json.loads(_reference_text("disc1d"))
    maximality = report["suites"][4]
    assert maximality["check"] == "maximality"
    maximality["samples"] -= maximality["samples"] // 4  # one competitor
    assert checks.verify_problems(0, json.dumps(report), reference) == []


def test_exit_code_and_exception_fail():
    cmd = workloads.commands("verify-closed", workloads.REFERENCE_SEED)[0]
    session = Session(_fake_main(_reference_text(), rc=1))
    session.execute(cmd)

    def raising(argv):
        raise RuntimeError("escaped")
    session.main = raising
    session.execute(cmd)
    assert session.failed == 2
    assert "escaped" in session.problems[-1]


def _slice_output(cmd, resolution):
    argv = list(cmd.argv)
    argv[argv.index("--resolution") + 1] = str(resolution)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("index", [0, 1])
def test_slice_check_catches_perturbation(index):
    cmd = workloads.commands("slice-grid", 7)[index]
    body = json.loads(workloads.spec_path(cmd.spec).read_text())["body"]
    res = 24
    text = _slice_output(cmd, res)

    def problems(t):
        return checks.slice_problems(0, t, body, cmd.center, cmd.plane,
                                     workloads.SLICE_HALF_WIDTH, res)
    assert problems(text) == []
    lines = text.splitlines()
    members = [i for i, line in enumerate(lines[1:], 1)
               if line.split(",")[2] == "1"]
    assert 0 < len(members) < len(lines) - 1  # the grid leaves the domain
    c1, c2, flag, u = lines[members[len(members) // 2]].split(",")
    row = members[len(members) // 2]

    perturbed = list(lines)
    perturbed[row] = ",".join([c1, c2, flag, repr(float(u) + 1e-9)])
    assert problems("\n".join(perturbed) + "\n")

    flipped = list(lines)
    flipped[row] = ",".join([c1, c2, "0", ""])
    assert problems("\n".join(flipped) + "\n")

    assert problems("\n".join(lines[:-1]) + "\n")
    assert checks.slice_problems(2, text, body, cmd.center, cmd.plane,
                                 workloads.SLICE_HALF_WIDTH, res)


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [1, 4] has child [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0,
                                                             4.0]


def test_layer_metrics_on_hand_built_tree():
    tracer = spans.Tracer()
    ids = {n: tracer.intern(n) for n in ("bodies.gauge", "bodies.bisect",
                                         "bodies.contains")}
    # gauge [0, 8] -> bisect [1, 7] -> three contains of 1 s each; one more
    # contains under the gauge directly
    rows = [("bodies.gauge", -1, 0, 8), ("bodies.bisect", 0, 1, 7),
            ("bodies.contains", 1, 2, 3), ("bodies.contains", 1, 3, 4),
            ("bodies.contains", 1, 5, 6), ("bodies.contains", 0, 7, 7.5)]
    m = spans.layer_metrics(
        tracer.names, np.array([ids[r[0]] for r in rows]),
        np.array([r[1] for r in rows]), np.array([r[2] for r in rows], float),
        np.array([r[3] for r in rows], float), {})
    assert m["bodies.gauge.calls"] == 1
    assert m["bodies.gauge.self_s"] == pytest.approx(8 - 6 - 0.5)
    assert m["bodies.gauge.us_per_call"] == pytest.approx(8e6)
    assert m["bodies.bisect.self_s"] == pytest.approx(6 - 3)
    assert m["bodies.contains.calls"] == 4
    assert m["bodies.bisect.contains_per_call"] == 3


def _traced_round(tracer, argvs):
    tracer.begin_round()
    for argv in argvs:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    tracer.end_round()


def test_traced_counts_repeat_and_tracer_uninstalls():
    closed = ["verify", "--model", str(workloads.spec_path("square_tube")),
              "--suite", "all", "--samples", "3"]
    smooth = ["verify", "--model", str(workloads.spec_path("striptube_squircle")),
              "--suite", "maximality", "--samples", "2", "--step", "2e-4"]
    runner, substream = cli._SUITE_RUNNERS["psh"], cli.substream
    tracer = spans.Tracer()
    tracer.install()
    try:
        _traced_round(tracer, [closed])
        _traced_round(tracer, [closed])
        _traced_round(tracer, [smooth])
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert cli._SUITE_RUNNERS["psh"] is runner and cli.substream is substream
    first, second, third = (tracer.round_metrics(i) for i in range(3))
    _, unstable = spans.combine_rounds([first, second],
                                       catalog.exact_metrics())
    assert unstable == []
    assert first["bodies.gauge.calls"] > 0 and first["bodies.bisect.calls"] == 0
    assert first["bodies.construct_s"] > 0
    assert first["maximality.competitor_evals"] > 0
    assert third["bodies.bisect.calls"] > 0
    assert third["bodies.bisect.contains_per_call"] > 1


def test_outermost_import_s():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy.inner",
        "import time:        20 |         30 |   scipy.optimize",
        "import time:         5 |          5 |   other",
        "import time:         1 |         36 | pkg",
        "import time:         7 |          7 | scipy.linalg",
    ])
    assert outermost_import_s(log, "scipy") == pytest.approx(37e-6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_passes_of_a_run_never_repeat_inputs(workload):
    passes = [workloads.commands(workload, workloads.pass_seed(3, i))
              for i in range(3)]
    assert passes[0] == workloads.commands(workload,
                                           workloads.pass_seed(3, 0))
    for position in zip(*passes):
        assert len({cmd.argv for cmd in position}) == len(position)


def test_every_per_layer_metric_says_what_it_moves():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(catalog.MOVES) == list(catalog.units("per_layer"))
