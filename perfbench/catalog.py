"""What each per-layer metric should move.

``BENCHMARK.json`` gives every metric's name, unit and direction; this
module reads them from there. A metric's layer is the first component of
its name. ``MOVES`` records, before any optimisation is measured, which
end-to-end metric on which workload a change to the layer should move.
"""
from __future__ import annotations

import json

from workloads import ROOT

_VERIFY = "wall_s on verify-closed and verify-smooth"
_CLOSED = "wall_s on verify-closed; zero calls on slice-grid"

MOVES = {
    "bodies.gauge.calls":
        "wall_s on verify-smooth (dominant), slice-grid and verify-closed",
    "bodies.gauge.self_s":
        "wall_s on verify-smooth (dominant), slice-grid and verify-closed",
    "bodies.gauge.us_per_call":
        "wall_s on verify-smooth (dominant), slice-grid and verify-closed",
    "bodies.contains.calls":
        "wall_s on verify-smooth (inside bisection) and verify-closed",
    "bodies.contains.self_s":
        "wall_s on verify-smooth (inside bisection) and verify-closed",
    "bodies.bisect.calls":
        "wall_s on verify-smooth only; zero on verify-closed and slice-grid",
    "bodies.bisect.self_s":
        "wall_s on verify-smooth only; zero on verify-closed and slice-grid",
    "bodies.bisect.contains_per_call":
        "wall_s on verify-smooth only; zero on verify-closed and slice-grid",
    "bodies.support.calls":
        "wall_s on verify-closed (slab and linear competitors)",
    "bodies.support.self_s":
        "wall_s on verify-closed (slab and linear competitors)",
    "bodies.construct_s":
        "setup_s and wall_s of polytope specs (square_tube, striptube_asym)",
    "models.potential.calls": "wall_s on every workload",
    "models.potential.self_s": "wall_s on every workload",
    "models.potential.us_per_call": "wall_s on every workload",
    "models.member.calls": "wall_s on slice-grid",
    "models.member.self_s": "wall_s on slice-grid",
    "models.member.reject_frac": "wall_s on slice-grid",
    "models.sample_member.calls": _CLOSED,
    "models.sample_member.self_s": _CLOSED,
    "models.sample_fd_safe.calls": _CLOSED,
    "models.sample_fd_safe.self_s": _CLOSED,
    "models.sample_fd_safe.contains_per_sample": _CLOSED,
    "sampling.substream.calls": _CLOSED,
    "sampling.substream.self_s": _CLOSED,
    "sampling.substream.us_per_call": _CLOSED,
    "sampling.unit_vector.calls": _CLOSED,
    "levi.levi_matrix.calls": _VERIFY,
    "levi.levi_matrix.self_s": _VERIFY,
    "levi.levi_line.calls": _VERIFY,
    "levi.levi_line.self_s": _VERIFY,
    "levi.field_evals_per_matrix": _VERIFY + " (30 at n = 2)",
    "levi.tube_levi_residual.calls": _VERIFY,
    "levi.tube_levi_residual.self_s": _VERIFY,
    "levi.gauge_identity_residuals.calls": _VERIFY,
    "levi.gauge_identity_residuals.self_s": _VERIFY,
    "maximality.max_violation.calls": "wall_s on verify-closed",
    "maximality.max_violation.self_s": "wall_s on verify-closed",
    "maximality.competitor_evals": "wall_s on verify-closed",
    "geodesics.chart.calls": "wall_s on verify-closed",
    "geodesics.chart.self_s": "wall_s on verify-closed",
    "geodesics.identity_residual.calls": "wall_s on verify-closed",
    "geodesics.identity_residual.self_s": "wall_s on verify-closed",
    "geodesics.striptube_geodesic.calls": _VERIFY,
    "geodesics.striptube_geodesic.self_s": _VERIFY,
    "cli.suite.psh.s": _VERIFY,
    "cli.suite.ma.s": _VERIFY,
    "cli.suite.tube-levi.s": "wall_s on verify-closed",
    "cli.suite.gauge-derivatives.s": "wall_s on verify-closed",
    "cli.suite.maximality.s": _VERIFY,
    "cli.suite.geodesics.s": _VERIFY,
    "cli.suite.schwarz.s": _VERIFY,
    "cli.load_model.s":
        "wall_s on every workload (polytope LPs on square_tube)",
    "cli.emit.s": "wall_s on slice-grid (CSV rows)",
    "cli.report_identical":
        "none; verify reports byte-identical to the reference",
    "setup.import_s": "setup_s on every workload",
    "setup.scipy_import_s":
        "setup_s on every workload; a lazy SciPy import removes it",
    "trace.overhead_s": "none; traced minus untraced wall_s",
}

# Metrics that must repeat exactly between traced passes of one seed.
EXACT_UNITS = ("count", "ratio", "fraction")


def units(section: str) -> dict:
    """Name -> unit of the metrics of a section of ``BENCHMARK.json``,
    ``end_to_end`` or ``per_layer``, in their listed order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def exact_metrics() -> set:
    return {name for name, unit in units("per_layer").items()
            if unit in EXACT_UNITS}
