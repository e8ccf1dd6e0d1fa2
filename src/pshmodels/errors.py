"""Exception types shared across the package. ``verify --suite all`` lists
a suite as skipped on NotApplicable alone; any other SpecError exits 2."""


class SpecError(ValueError):
    """Malformed body/model specification or invalid configuration."""


class NotApplicable(SpecError):
    """A verify suite does not apply to the model."""


class StepRefused(SpecError):
    """A step at or above ``limit``, where a safe sampler's window is empty."""

    def __init__(self, model: str, step: float, limit: float):
        super().__init__(f"--step {step:g} leaves the {model} safe sampler "
                         "no room; finite differences need a step below "
                         f"{limit:g}")
        self.limit = limit


class OutsideDomainError(ValueError):
    """A point lies outside the body, tube, or center where it is required."""


class ConvergenceError(RuntimeError):
    """An iterative routine (bisection, extrapolation, sampling) failed to settle."""
