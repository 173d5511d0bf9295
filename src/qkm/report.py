"""Identity reports: one verified identity at one parameter point.

Also what every check shares: its :class:`CheckResult`, which only the
registry judges; the relative residual of one comparison; and the worst
of many component residuals, NaN if any component is NaN.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

PASS = "PASS"
FAIL = "FAIL"
EXPECTED_FAIL = "EXPECTED_FAIL"
SKIPPED = "SKIPPED"
ERROR = "ERROR"

# Floor used in relative residuals so that 0 vs 0 compares as 0, not nan.
_FLOOR = 1e-300


def relative_residual(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| relative to the larger magnitude (floored away from 0)."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _FLOOR)


def worst_residual(residuals) -> float:
    """The largest of ``residuals``; NaN if any is NaN; 0.0 if there are none.

    This is IEEE 754-2019 maximum (sec. 9.6), which propagates a NaN.
    Python's ``max`` keeps a NaN only in first place, so a running maximum
    started at 0.0 would drop a point that evaluated to NaN.  Every
    component is consumed, and the result is one of them, bit for bit.
    """
    top = 0.0
    for r in residuals:
        if r > top or math.isnan(r):
            top = r
    return float(top)


class CheckResult(NamedTuple):
    """A check at one point: ``params`` and ``residual`` as an
    :class:`IdentityReport` carries them, with no id, tolerance or verdict."""

    params: dict
    residual: float


@dataclass
class IdentityReport:
    """Outcome of checking one identity at one parameter point.

    ``params`` records the evaluated point (and, for multi-part checks,
    the individual component residuals); ``residual`` is the worst
    component (:func:`worst_residual`), NaN when any component is NaN,
    which fails the check.  Verdicts: PASS iff residual <= tolerance, except for
    identities registered as negative controls, which report
    EXPECTED_FAIL when the residual exceeds ten times the tolerance.
    SKIPPED marks a point the library refused (outside its domain) and
    ERROR one where the check raised an unexpected exception; both give
    the reason in ``params["skip_reason"]``.
    """

    identity_id: str
    params: dict
    residual: float
    tolerance: float
    verdict: str
    wall_time_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.verdict in (PASS, EXPECTED_FAIL, SKIPPED)

    def as_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "params": {k: _plain(v) for k, v in sorted(self.params.items())},
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "verdict": self.verdict,
            "wall_time_ms": float(self.wall_time_ms),
        }


def _plain(value):
    """JSON-friendly, deterministic rendering of a parameter value."""
    if isinstance(value, complex):
        if value.imag == 0.0:
            return value.real
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return _plain(value.item())
    return value


def make_report(identity_id, params, residual, tolerance, started,
                negative_control=False) -> IdentityReport:
    residual = float(residual)
    if negative_control:
        verdict = EXPECTED_FAIL if residual > 10.0 * tolerance else FAIL
    else:
        verdict = PASS if residual <= tolerance else FAIL
    return IdentityReport(identity_id, dict(params), residual, float(tolerance),
                          verdict, (time.perf_counter() - started) * 1e3)


def skipped_report(identity_id, tolerance, reason, verdict=SKIPPED) -> IdentityReport:
    return IdentityReport(identity_id, {"skip_reason": reason}, float("nan"),
                          float(tolerance), verdict)
