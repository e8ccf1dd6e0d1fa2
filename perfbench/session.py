"""Closed-loop measurement of a workload through the real CLI entry point."""
from __future__ import annotations

import hashlib
import io
import json
import resource
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import catalog
import checks
import workloads
from spans import Tracer, combine_rounds

SPAN_FILE_DIR = workloads.ROOT / ".perfbench"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
MAX_PROBLEMS = 10


class Session:
    """Runs commands through a CLI ``main``, checks each output and tallies
    attempted and failed commands."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._passed: set = set()  # (command, digest) of checked outputs
        self._references: dict = {}
        self._bodies: dict = {}

    def reference(self, key: str) -> tuple:
        """(raw text, parsed report) of a stored reference report."""
        if key not in self._references:
            text = (workloads.REFERENCE_DIR / f"{key}.json").read_text(
                encoding="utf-8")
            self._references[key] = (text, json.loads(text))
        return self._references[key]

    def _body(self, spec: str) -> dict:
        if spec not in self._bodies:
            self._bodies[spec] = json.loads(workloads.spec_path(spec)
                                            .read_text(encoding="utf-8"))["body"]
        return self._bodies[spec]

    def problems_of(self, cmd, rc, text: str) -> list:
        if cmd.kind == "verify":
            return checks.verify_problems(rc, text, self.reference(cmd.key)[1])
        return checks.slice_problems(rc, text, self._body(cmd.spec),
                                     cmd.center, cmd.plane,
                                     workloads.SLICE_HALF_WIDTH,
                                     workloads.SLICE_RESOLUTION)

    def execute(self, cmd) -> tuple:
        """Run one command; returns (seconds, stdout text)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.main(list(cmd.argv))
        except Exception:  # an escaped exception fails only this command
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.record(cmd, rc, out.getvalue(), err.getvalue())
        return elapsed, out.getvalue()

    def record(self, cmd, rc, text: str, stderr: str = "") -> None:
        self.attempted += 1
        key = (cmd, hashlib.sha256(text.encode()).digest())
        if rc == 0 and key in self._passed:
            return
        problems = self.problems_of(cmd, rc, text)
        if not problems:
            self._passed.add(key)
            return
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            detail = stderr.strip().splitlines()[-1:] if stderr else []
            self.problems.append("; ".join([f"{' '.join(cmd.argv)}: "
                                            + problems[0]] + detail))


def closed_loop(session: Session, passes, deadline: float,
                min_rounds: int, tracer: Tracer | None = None) -> float:
    """Passes back to back until the deadline and at least min_rounds
    passes; ``passes(i)`` gives the commands of pass i. Returns the sum
    over the positions in a pass of the fastest time at each position.

    The fastest time, not the median: every pass does about the same
    amount of work, and load from other tenants of a shared host only adds
    time. Over 300 s of verify-smooth in one process on a 2-core host, the
    summed fastest times of 30-second windows had a relative standard
    deviation of 0.07, the summed medians 0.13.
    """
    times = []
    while len(times) < min_rounds or time.perf_counter() < deadline:
        if tracer:
            tracer.begin_round()
        times.append([session.execute(cmd)[0]
                      for cmd in passes(len(times))])
        if tracer:
            tracer.end_round()
    return sum(min(column) for column in zip(*times))


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    from pshmodels.cli import main
    session = Session(main)
    # no warm-up pass: wall_s keeps each position's fastest time, which the
    # first pass's one-time imports and caches do not reach
    start = time.perf_counter()
    if not trace:
        wall_s = closed_loop(
            session, lambda i: workloads.commands(
                workload, workloads.pass_seed(seed, i)),
            start + seconds, MIN_ROUNDS)
        return {"wall_s": wall_s, "peak_rss_mb": _peak_rss_mb(),
                **_tally(session)}
    # traced passes repeat one pass's inputs, so that their counts repeat;
    # the untraced passes they are compared with do the same
    commands = workloads.commands(workload, workloads.pass_seed(seed, 0))
    untraced = closed_loop(session, lambda i: commands, start + seconds / 2,
                           MIN_ROUNDS)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(session, lambda i: commands, start + seconds,
                             MIN_TRACED_ROUNDS, tracer)
    finally:
        tracer.uninstall()
    SPAN_FILE_DIR.mkdir(exist_ok=True)
    tracer.save(SPAN_FILE_DIR / f"spans-{workload}.npz")
    layers, unstable = combine_rounds(
        [tracer.round_metrics(i) for i in range(len(tracer.rounds))],
        catalog.exact_metrics())
    layers["trace.overhead_s"] = traced - untraced
    layers["cli.report_identical"] = _reference_pass(session, workload)
    return {"layers": layers, "unstable": unstable,
            "missing_hooks": tracer.missing, **_tally(session)}


def _reference_pass(session: Session, workload: str) -> int:
    """Run the workload's verify commands at the reference seed and count
    the reports byte-identical to the stored references."""
    identical = 0
    for cmd in workloads.commands(workload, workloads.REFERENCE_SEED):
        if cmd.kind == "verify":
            text = session.execute(cmd)[1]
            identical += text == session.reference(cmd.key)[0]
    return identical


def _tally(session: Session) -> dict:
    return {"attempted": session.attempted, "failed": session.failed,
            "problems": session.problems}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
