"""Workload definitions: the CLI commands each workload runs for a seed.

The benchmark owns copies of the model specs (``perfbench/specs``) so its
inputs stay fixed when the package's example specs change. The seed is the
only varying input: it is passed as ``--seed`` to ``verify`` and places the
slice planes, so the same seed always gives the same commands.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_DIR = BENCH_DIR / "specs"
REFERENCE_DIR = BENCH_DIR / "reference"

# The CLI's default seed; the stored reference reports are taken at it.
REFERENCE_SEED = 42

CLOSED_SPECS = ("ball_tube", "ellipsoid_tube", "interval_tube",
                "square_tube", "strip1d", "disc1d", "striptube_asym",
                "striptube_ellipsoid")
SMOOTH_SPEC = "striptube_squircle"

# Sizes: on a 2-core host a pass takes 0.5 s (slice-grid) to 1 s, in
# commands of at most 0.25 s, so a 30-second run makes about 20 to 50
# passes. wall_s keeps each command's fastest time, and short commands find
# quiet spells on a noisy host more often than long ones: run side by side
# in one process, the summed fastest times of 25-sample verify-closed
# passes varied between 30-second windows with a relative standard
# deviation of 0.10, those of 100-sample passes 0.16. Hence also the
# squircle pass is four commands of two samples.
CLOSED_SAMPLES = 25
SMOOTH_COMMANDS = 4
SMOOTH_SAMPLES = 2
# At the default h = 1e-3 the squircle fails psh (a known defect); this is
# the step the package README documents for it.
SMOOTH_STEP = "2e-4"
SLICE_RESOLUTION = 70
# The grids reach past both domains, so non-members take the
# OutsideDomainError path.
SLICE_HALF_WIDTH = 1.25
SLICE_OFFSET = 0.1

WORKLOADS = ("verify-closed", "verify-smooth", "slice-grid")

# Pass i of a run with seed s uses the commands of seed s * PASS_STRIDE + i,
# so no timed pass replays an earlier pass's inputs: a cache kept across
# calls in one process gains nothing there that a user, who runs one
# command per process, would not also gain.
PASS_STRIDE = 10 ** 6


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload; ``key`` names its reference."""
    key: str
    kind: str  # "verify" or "slice"
    spec: str
    argv: tuple
    plane: tuple = ()
    center: tuple = ()


def spec_path(spec: str) -> Path:
    return SPEC_DIR / f"{spec}.json"


def workload_specs(workload: str) -> tuple:
    """The specs a workload builds models from."""
    if workload == "verify-closed":
        return CLOSED_SPECS
    if workload == "verify-smooth":
        return (SMOOTH_SPEC,)
    if workload == "slice-grid":
        return ("ball_tube", "square_tube")
    raise ValueError(f"unknown workload {workload!r}")


def _verify(spec: str, seed: int, extra: tuple, key: str) -> Command:
    argv = ("verify", "--model", str(spec_path(spec)), "--suite", "all",
            "--seed", str(seed)) + extra
    return Command(key=key, kind="verify", spec=spec, argv=argv)


def _slice(spec: str, plane: tuple, center: tuple) -> Command:
    argv = ("slice", "--model", str(spec_path(spec)),
            "--plane", f"{plane[0]},{plane[1]}",
            # one token, so a leading minus is not read as an option
            "--center=" + ",".join(repr(c) for c in center),
            "--half-width", repr(SLICE_HALF_WIDTH),
            "--resolution", str(SLICE_RESOLUTION))
    return Command(key=spec, kind="slice", spec=spec, argv=argv,
                   plane=plane, center=center)


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index`` of a run with seed ``seed``."""
    return seed * PASS_STRIDE + index


def commands(workload: str, seed: int) -> list:
    """The commands of one pass over the workload, in run order."""
    if workload == "verify-closed":
        return [_verify(s, seed, ("--samples", str(CLOSED_SAMPLES)), s)
                for s in CLOSED_SPECS]
    if workload == "verify-smooth":
        extra = ("--samples", str(SMOOTH_SAMPLES), "--step", SMOOTH_STEP)
        return [_verify(SMOOTH_SPEC, SMOOTH_COMMANDS * seed + i, extra,
                        f"{SMOOTH_SPEC}-{i}") for i in range(SMOOTH_COMMANDS)]
    if workload == "slice-grid":
        rnd = random.Random(seed)
        a, b, c = (rnd.uniform(-SLICE_OFFSET, SLICE_OFFSET) for _ in range(3))
        # ball_tube: the Im-Im plane over the real point (a, b);
        # square_tube: the Re-Im plane of the first coordinate, offset in
        # the second coordinate by (b, c)
        return [_slice("ball_tube", (2, 3), (a, b, 0.0, 0.0)),
                _slice("square_tube", (0, 2), (0.0, b, 0.0, c))]
    raise ValueError(f"unknown workload {workload!r}")
