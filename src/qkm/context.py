"""Global evaluation context: deformation parameter and truncation policy."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, OverflowGuard


@dataclass(frozen=True)
class QContext:
    """Deformation parameter q (|q| < 1, possibly complex) plus tolerances.

    * ``tol_identity`` is the relative residual bound used by identity checks.
    * ``tail_cut`` ends series/products once three consecutive terms fall
      below it.  It is derived, always ``tol_identity / 100``, so one
      tolerance fixes every truncation of a run.
    * ``max_terms`` is a hard cap on any single truncated sum or product.

    q**(1/2) is computed once at construction on the principal branch and
    shared by every module, so quantities like q**(m + 1/2) carry a single
    consistent branch throughout a run.
    """

    q: complex
    tol_identity: float = 1e-9
    max_terms: int = 10_000
    tail_cut: float = field(init=False, compare=False)
    q_half: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = complex(self.q)
        object.__setattr__(self, "q", q)
        if not abs(q) < 1.0:
            raise DomainError(f"|q| must be strictly below 1, got {abs(q):.6g}")
        if not 0.0 < self.tol_identity < 1.0:
            raise DomainError("the tolerance must satisfy 0 < tol_identity < 1")
        object.__setattr__(self, "tail_cut", self.tol_identity / 100.0)
        object.__setattr__(self, "q_half", q ** 0.5)

    def q_pow_half(self, k: int) -> complex:
        """q**(k/2) for integer k, on the branch fixed at construction.

        One arithmetic for every integer type of ``k``: Python's complex
        power.  A result past double range is refused with OverflowGuard;
        one that underflows is 0, a value like any other.
        """
        try:
            return self.q_half ** int(k)
        except (OverflowError, ZeroDivisionError):
            raise OverflowGuard(f"q^({k}/2) at |q| = {abs(self.q):.3g} "
                                "leaves double range") from None

    def q_pow(self, k: int) -> complex:
        """q**k for integer k, by the same arithmetic and refusal as q_pow_half."""
        try:
            return self.q ** int(k)
        except (OverflowError, ZeroDivisionError):
            raise OverflowGuard(f"q^({k}) at |q| = {abs(self.q):.3g} "
                                "leaves double range") from None
