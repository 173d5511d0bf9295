"""q-series special functions, Kashiwara-Miwa-type Boltzmann weights, and a
machine-checked identity suite.

Layout: ``qseries`` holds the q-Pochhammer / theta kernel, ``orthopoly``
the Laurent polynomials and their q-hypergeometric extension, ``fock`` the
Fock-space eigenbasis with its braces, weights, and star-triangle relation,
``vgamma`` the two-sector spin-lattice representation and the rational
Kashiwara-Miwa model, ``modular`` the modular-double / dilogarithm sector,
and ``registry`` + ``cli`` the runnable verification suite.
"""

from .context import QContext
from .errors import (DegenerateArgument, DomainError, EigensolverFailure,
                     OverflowGuard, PoleHit, QkmError, SingularMeasure,
                     TruncationExhausted, WindowTooSmall)
from .report import IdentityReport
from .registry import RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "QContext", "IdentityReport", "RunConfig", "run_suite", "QkmError",
    "DomainError", "TruncationExhausted", "DegenerateArgument", "OverflowGuard", "EigensolverFailure",
    "SingularMeasure", "PoleHit", "WindowTooSmall", "__version__",
]
