"""Output checks for the benchmark's CLI commands.

Each check returns a list of problems; an empty list means the output is
correct. The slice check recomputes every grid point with a vectorized
NumPy closed form written here, independently of ``pshmodels``.
"""
from __future__ import annotations

import json

import numpy as np

# Grid points this close to a boundary (of the body for Re z, of the tube
# for p * p_bar = 1) may fall either way under rounding.
BOUNDARY_BAND = 1e-9
U_TOL = 1e-12
COORD_TOL = 1e-12
# The package's ellipsoid gauge rejects centers with 1 - x^T Q x below this.
ELLIPSOID_EDGE = 1e-12
# Suites whose sample count depends on the seed: maximality drops a
# geodesic competitor, and geodesics a base point, drawn on or near the real
# axis (on disc1d, |Im z| <= 1e-3 for about one seed in 300). Their
# ``samples`` may fall short of the reference but never exceed it.
DRAWN_SUITES = ("maximality", "geodesics")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def verify_problems(rc, text: str, reference: dict) -> list:
    """Problems of a ``verify --suite all`` run against the reference report.

    The reference fixes the suite order, which suites are skipped and each
    suite's ``samples`` field (an upper bound for ``DRAWN_SUITES``); every
    suite run must pass. Values are not compared, since they depend on the
    seed.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    if not isinstance(report, dict) or set(report) != set(reference):
        return ["report keys differ from the reference"]
    problems = []
    if report["pass"] is not True:
        problems.append("overall pass is not true")
    suites, ref_suites = report["suites"], reference["suites"]
    if not isinstance(suites, list) or not all(isinstance(s, dict)
                                               for s in suites):
        return problems + ["suites is not a list of objects"]
    got = [s.get("check") for s in suites]
    want = [s["check"] for s in ref_suites]
    if got != want:
        return problems + [f"suites {got} differ from reference {want}"]
    for suite, ref in zip(suites, ref_suites):
        name = ref["check"]
        if set(suite) != set(ref):
            problems.append(f"{name}: keys differ from the reference")
        elif "skipped" in ref:
            continue
        elif suite["pass"] is not True:
            problems.append(f"{name}: pass is {suite['pass']!r}")
        elif not _samples_match(name, suite["samples"], ref["samples"]):
            problems.append(f"{name}: samples {suite['samples']} != "
                            f"{ref['samples']}")
    return problems


def _samples_match(suite: str, samples, reference: int) -> bool:
    if type(samples) is not int:
        return False
    if suite in DRAWN_SUITES:
        return 0 < samples <= reference
    return samples == reference


def closed_form(body: dict, x: np.ndarray, y: np.ndarray):
    """Membership, potential and boundary distance of tube points x + iy.

    ``body`` is the spec's body object; x and y are (N, n) arrays. Returns
    (member, u, margin), where margin is the smaller of the distance of x
    to the body's edge and |p p_bar - 1|.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if body["type"] == "ellipsoid":
            Q = np.asarray(body["Q"], dtype=float)
            d = 1.0 - np.einsum("ni,ij,nj->n", x, Q, x)
            b = np.einsum("ni,ij,nj->n", x, Q, y)
            c = np.einsum("ni,ij,nj->n", y, Q, y)
            root = np.sqrt(b * b + c * d)
            p, q = (b + root) / d, (root - b) / d
            inside = d >= ELLIPSOID_EDGE
            edge = np.abs(d - ELLIPSOID_EDGE)
        elif body["type"] == "polytope":
            A = np.array([h["a"] for h in body["halfspaces"]], dtype=float)
            bb = np.array([h["b"] for h in body["halfspaces"]], dtype=float)
            den = bb - x @ A.T
            ay = y @ A.T
            p = np.maximum(0.0, np.max(ay / den, axis=1))
            q = np.maximum(0.0, np.max(-ay / den, axis=1))
            inside = np.all(den > 0.0, axis=1)
            edge = np.min(np.abs(den), axis=1)
        else:
            raise ValueError(f"no closed form for body type {body['type']!r}")
        pq = p * q
        member = inside & (pq < 1.0)
        u = 0.5 * (np.arctan(p) + np.arctan(q))
    margin = np.where(inside, np.minimum(edge, np.abs(pq - 1.0)), edge)
    return member, u, margin


def slice_grid(center, half_width: float, resolution: int, plane):
    """The (c1, c2) coordinates of a slice, in the CLI's row order."""
    ticks = np.linspace(-half_width, half_width, resolution + 1)
    c1 = np.repeat(center[plane[0]] + ticks, ticks.size)
    c2 = np.tile(center[plane[1]] + ticks, ticks.size)
    return c1, c2


def slice_problems(rc, text: str, body: dict, center, plane,
                   half_width: float, resolution: int) -> list:
    """Problems of a ``slice`` CSV against the independent closed form."""
    if rc != 0:
        return [f"exit code {rc}"]
    lines = text.splitlines()
    if not lines or lines[0] != "c1,c2,member,u":
        return ["missing CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    want_c1, want_c2 = slice_grid(center, half_width, resolution, plane)
    if len(rows) != want_c1.size or any(len(r) != 4 for r in rows):
        return [f"expected {want_c1.size} rows of 4 fields"]
    try:
        c1 = np.array([float(r[0]) for r in rows])
        c2 = np.array([float(r[1]) for r in rows])
        flags = np.array([int(r[2]) for r in rows])
        u = np.array([float(r[3]) if r[3] else np.nan for r in rows])
    except ValueError as exc:
        return [f"malformed CSV field: {exc}"]
    problems = []
    if (np.max(np.abs(c1 - want_c1)) > COORD_TOL
            or np.max(np.abs(c2 - want_c2)) > COORD_TOL):
        problems.append("grid coordinates differ from the requested plane")
    n = len(center) // 2
    coords = np.tile(np.asarray(center, dtype=float), (c1.size, 1))
    coords[:, plane[0]] = c1
    coords[:, plane[1]] = c2
    member, ref_u, margin = closed_form(body, coords[:, :n], coords[:, n:])
    if not np.all(np.isin(flags, (0, 1))):
        problems.append("member flags are not 0/1")
    if np.any(np.isnan(u) != (flags == 0)):
        problems.append("u must be given exactly for members")
    clear = margin > BOUNDARY_BAND
    wrong = clear & ((flags == 1) != member)
    if np.any(wrong):
        problems.append(f"{int(np.sum(wrong))} member flags disagree with "
                        "the closed form")
    both = (flags == 1) & member
    if np.any(both):
        err = float(np.max(np.abs(u[both] - ref_u[both])))
        if not err <= U_TOL:
            problems.append(f"u differs from the closed form by {err:.3e}")
    return problems
