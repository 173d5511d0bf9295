"""Operation accounting shared by the benchmark's parent and worker processes."""

from __future__ import annotations

from collections import Counter


def relative(a, b) -> float:
    """Relative difference, as qkm.report.relative_residual defines it.

    Kept here so that the gate does not run code of the library it checks.
    """
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class Gate:
    """Operation accounting for one workload process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any escape is a failed operation, not a crash
            self.failed += 1
            self.reasons[type(exc).__name__] += 1
            return None

    def check(self, label, residual, tol):
        self.attempted += 1
        if not residual <= tol:  # also catches nan
            self.failed += 1
            self.reasons[f"{label} above {tol:g}"] += 1
