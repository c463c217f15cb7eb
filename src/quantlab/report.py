"""Verification reports: the output currency of every certificate in the package.

Each numerical check in this package, whether run from the test suite or the
command line, produces a CheckReport: a named claim, the tolerance it was held
to, the worst error observed, and a pass/fail verdict that is derived from
those two numbers rather than stored independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named verification.

    Parameters
    ----------
    check_id : str
        Stable machine-readable name of the check, e.g. ``"kahler.j_squared"``.
    citation : str
        Self-contained statement of the mathematical claim being checked,
        including any normalization it depends on.
    tolerance : float
        Largest error that still counts as a pass.
    max_error : float
        Worst error actually observed.
    passed : bool
        Always equal to ``max_error <= tolerance``; the constructor enforces
        this so a report can never claim a verdict its numbers contradict.
    metadata : dict
        Free-form extras: sample counts, grid steps, seeds, timings.
    """

    check_id: str
    citation: str
    tolerance: float
    max_error: float
    passed: bool
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = bool(self.max_error <= self.tolerance)
        if self.passed != expected:
            raise ValueError(
                f"report {self.check_id!r}: passed={self.passed} contradicts "
                f"max_error={self.max_error!r} vs tolerance={self.tolerance!r}"
            )

    @classmethod
    def from_error(
        cls,
        check_id: str,
        citation: str,
        tolerance: float,
        max_error: float,
        **metadata: Any,
    ) -> "CheckReport":
        """Build a report, deriving the verdict from the numbers.  An
        error that is NaN or +inf fails every finite tolerance; the
        metadata then says so under ``failure``, unless the caller gave
        a reason of its own."""
        if math.isnan(max_error) or max_error == math.inf:
            metadata.setdefault(
                "failure", f"max_error is {float(max_error)!r}: the check "
                "computed no finite error")
        return cls(
            check_id=check_id,
            citation=citation,
            tolerance=float(tolerance),
            max_error=float(max_error),
            passed=bool(max_error <= tolerance),
            metadata=metadata,
        )
