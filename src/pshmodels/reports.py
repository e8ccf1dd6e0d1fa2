"""Machine-readable verification reports."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CheckReport:
    check: str
    model: str
    samples: int
    h: float
    tol: float
    worst_point: list | None
    worst_value: float
    passed: bool

    def to_dict(self) -> dict:
        # strict JSON has no NaN or infinity: a worst value that is not
        # finite is written as null, and its check fails
        finite = math.isfinite(self.worst_value)
        return {
            "check": self.check,
            "model": self.model,
            "samples": self.samples,
            "h": self.h,
            "tol": self.tol,
            "worst_point": self.worst_point,
            "worst_value": self.worst_value if finite else None,
            "pass": self.passed and finite,
        }


def point_to_list(z) -> list:
    """Complex point as [[re...], [im...]] for JSON output."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return [list(map(float, z.real)), list(map(float, z.imag))]
