"""Exception types shared across the package, and the one JSON reader.

The CLI maps these onto its exit-code contract: input problems exit 3,
infeasible optimizations exit 2, numerical failures exit 4.
"""

from __future__ import annotations

import json


class DlrPlanError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DlrPlanError):
    """Malformed files, schema violations, or out-of-range parameters."""


class CapacityError(InputError):
    """A requested construction exceeds a documented size cap."""


class InfeasibleError(DlrPlanError):
    """An optimization problem has no feasible point.

    ``vertices`` / ``lines`` carry the offending uncertainty vertices or
    line ids when the caller can identify them.
    """

    def __init__(self, message: str, *, vertices=None, lines=None):
        super().__init__(message)
        self.vertices = list(vertices) if vertices is not None else []
        self.lines = list(lines) if lines is not None else []


class UncoveredRealizationError(InfeasibleError):
    """A realized rating cannot be accommodated with the procured reserves."""


class NumericalError(DlrPlanError):
    """A numerical method failed to converge or hit a degenerate system."""


def read_json(path):
    """Parse a JSON file; invalid JSON is an InputError naming ``path``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc})") from exc
