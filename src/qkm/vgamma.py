"""The two-Fock reducible representation and the rational Kashiwara-Miwa model.

The spin lattice gamma q^m, m in Z, splits into two Fock sectors labelled
by a parity sign.  Projector weights, the even-sublattice bold weights
V_x(m, m') of the rational Kashiwara-Miwa model, the star-triangle
relation at the selected gamma values (with its negative control at
generic gamma), and the partition-function functional equations live here.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .context import QContext
from .errors import DomainError, OverflowGuard, PoleHit, SingularMeasure
from .fock import brace, refuse_undecayed_sum, sqrt_qpoch2_table
from .orthopoly import lattice_brace_sums, overlap_sum, scaled_poly_values
from .qseries import (ThetaKind, bilateral_walk, bracket, log_qpoch_table,
                      qpoch_inf, qpoch_inf_multi, tail_sum, theta_product)
from .report import CheckResult, relative_residual, worst_residual

__all__ = [
    "GammaContext", "gamma_norm_const", "GammaDecomposition",
    "vgamma_decomposition", "weight_Veps", "weight_Veps_table",
    "weight_Veps_from_overlaps", "brace_gamma_residuals", "brace_gamma_check",
    "km_V", "km_S", "km_Phi", "km_kappa", "star_triangle_km",
    "km_log_z", "km_partition_checks", "windowed_bilateral_sum",
]

_LATTICE_DPS = 30  # working digits of the bilateral brace lattice sums
# km_V folds its running product into a logarithm outside this band, which
# leaves 2^523 of head-room on either side for the next factor ratio
_FOLD_LOW, _FOLD_HIGH = 2.0 ** -500, 2.0 ** 500


@dataclass(frozen=True)
class GammaContext:
    """Spin-lattice parameter gamma, its table window and selection label.

    ``nu`` is set only when gamma was constructed exactly as i q^nu with
    2 nu integer (the selected lattice); detection is never attempted by
    floating-point recognition.
    """

    gamma: complex
    m_window: int = 40
    nu: float | None = field(default=None)

    def __post_init__(self):
        if complex(self.gamma) == 0:
            raise DomainError("gamma must be nonzero")
        if self.nu is not None and abs(2 * self.nu - round(2 * self.nu)) > 1e-12:
            raise DomainError("selected gamma needs nu in Z/2")

    @property
    def selected(self) -> bool:
        return self.nu is not None

    @classmethod
    def make_selected(cls, nu: float, ctx: QContext) -> "GammaContext":
        two_nu = round(2 * nu)
        gamma = 1j * ctx.q_pow_half(two_nu)
        return cls(gamma=gamma, nu=two_nu / 2.0)


def windowed_bilateral_sum(term, ctx: QContext) -> complex:
    """The value of the bilateral_walk of term(m) over all integers m.

    No window is fixed: the walk stops at its own tail.  (The name stays
    because the benchmark's traced names list it.)
    """
    return bilateral_walk(term, ctx).value


def gamma_norm_const(gc: GammaContext, ctx: QContext) -> complex:
    """Normalisation -2 H(gamma) of the two-sector decomposition."""
    return -2.0 * theta_product(ThetaKind.H, gc.gamma, ctx)


@dataclass
class GammaDecomposition:
    """Overlap matrices between the spin lattice and the two Fock sectors.

    ``ket[e, a, j]`` is <eps, a | mu, m_values[j]> and ``bra[e, j, a]``
    is <mu, m_values[j] | eps, a>, with e = 0 for eps = +1, e = 1 for
    eps = -1.
    """
    ket: np.ndarray
    bra: np.ndarray
    m_values: np.ndarray
    gc: GammaContext
    mu: complex


def vgamma_decomposition(gc: GammaContext, mu, a_max: int,
                         ctx: QContext) -> GammaDecomposition:
    """Build the sector overlap matrices on the window |m| <= m_window."""
    mu = complex(mu)
    q = ctx.q
    gamma = gc.gamma
    m_values = np.arange(-gc.m_window, gc.m_window + 1)
    for m in m_values:
        if abs(bracket(gamma * q ** int(m))) < 1e-12:
            raise SingularMeasure(f"[gamma q^m] vanishes at m = {m}")
    n_m = len(m_values)
    ket = np.empty((2, a_max + 1, n_m), dtype=complex)
    bra = np.empty((2, n_m, a_max + 1), dtype=complex)
    n_gamma = gamma_norm_const(gc, ctx)
    norms = sqrt_qpoch2_table(ctx, a_max)
    a_range = np.arange(a_max + 1)
    mu_pow = mu ** a_range
    q_pow = q ** a_range
    alt_a = (-1.0) ** a_range
    for j, m in enumerate(m_values):
        m = int(m)
        xi = gamma * q ** m
        site = gamma ** m * ctx.q_pow_half(m * m)
        # site * q^{a^2/2} P_a / sqrt((q^2;q^2)_a); bounded for all (a, m)
        rows = scaled_poly_values(a_max, xi, ctx, scale=site) / norms
        sign_m = (-1.0) ** (m % 2)
        for e, eps in enumerate((1, -1)):
            parity = np.array([eps if (a + m) % 2 else 1 for a in a_range])
            ket[e, :, j] = mu_pow * parity * rows / n_gamma
            bra[e, j, :] = sign_m * alt_a * parity / mu_pow * q_pow * rows
    return GammaDecomposition(ket=ket, bra=bra, m_values=m_values, gc=gc, mu=mu)


def weight_Veps(x, eps: int, m: int, mp: int, gc: GammaContext,
                ctx: QContext) -> complex:
    """Sector weight V_x^{(eps)}(m, m') in closed q-product form."""
    return complex(weight_Veps_table(x, eps, [m], [mp], gc, ctx)[0, 0])


def weight_Veps_table(x, eps: int, m_values, mp_values, gc: GammaContext,
                      ctx: QContext) -> np.ndarray:
    """V_x^{(eps)} on a spin grid (assembled in log space, see weight_table).

    An x so small that q^2/x^2 leaves double range is refused with
    OverflowGuard.
    """
    x = complex(x)
    if x == 0:
        raise DomainError("weight needs x != 0")
    if eps not in (1, -1):
        raise DomainError("eps is a sign")
    q = ctx.q
    x2 = x * x
    if x2 == 0 or not cmath.isfinite(q * q / x2):
        raise OverflowGuard(f"weight argument x = {x} puts q^2/x^2 outside double range")
    gamma = gc.gamma
    g2 = gamma * gamma
    ms = np.asarray(m_values, dtype=int)[:, None]
    mps = np.asarray(mp_values, dtype=int)[None, :]
    log_v = (ms * ms + mps * mps) * np.log(complex(ctx.q_half)) \
        + (ms + mps) * np.log(gamma)
    factors = [(g2 / x, 2 + ms + mps), (1 / g2 / x, 2 - ms - mps),
               (1 / x, 2 + ms - mps), (1 / x, 2 - ms + mps)]
    den = qpoch_inf(q * q / x2, q * q, ctx) * gamma_norm_const(gc, ctx)
    signs = np.where((ms + mps) % 2 == 0, 1.0, float(eps)) * (-1.0) ** (ms % 2)
    return signs * log_qpoch_table(log_v, factors, q, den, ctx)


def weight_Veps_from_overlaps(x, eps: int, m: int, mp: int, gc: GammaContext,
                              ctx: QContext) -> complex:
    """Defining sector sum over one Fock tower (cross-check route)."""
    gamma = gc.gamma
    q = ctx.q
    sign = (-eps) ** m * eps ** mp
    total = overlap_sum(gamma * q ** m, gamma * q ** mp, x, ctx,
                        scale_m=gamma ** m * ctx.q_pow_half(m * m),
                        scale_mp=gamma ** mp * ctx.q_pow_half(mp * mp))
    return sign * total / gamma_norm_const(gc, ctx)


def brace_gamma_residuals(triples, gamma_list, ctx: QContext):
    """Worst residual and its components for each triple of brace_gamma_check.

    Returns one ``(worst, details)`` pair per triple; every gamma sums
    the whole batch and its a=b=c=0 norm M_gamma on one bilateral lattice.
    """
    q = ctx.q
    closed = [brace(a, b, c, ctx) for a, b, c in triples]
    parts = [[] for _ in triples]
    details = [{} for _ in triples]
    for i, gamma in enumerate(gamma_list):
        gamma = complex(gamma)
        totals, _ = lattice_brace_sums([*triples, (0, 0, 0)], gamma, _LATTICE_DPS, ctx)
        *totals, m_gamma_sum = map(complex, totals)  # the last part is the norm
        m_gamma_theta = -(theta_product(ThetaKind.H, gamma, ctx)
                          * theta_product(ThetaKind.THETA3, gamma, ctx)
                          / qpoch_inf(q * q, q * q, ctx))
        res_norm = relative_residual(m_gamma_sum, m_gamma_theta)
        for k, total in enumerate(totals):
            res_brace = relative_residual(total / m_gamma_sum, closed[k])
            details[k][f"res_brace_{i}"] = res_brace
            details[k][f"res_norm_{i}"] = res_norm
            parts[k] += (res_brace, res_norm)
    return [(worst_residual(p), d) for p, d in zip(parts, details)]


def brace_gamma_check(a: int, b: int, c: int, gamma_list, ctx: QContext):
    """gamma-independence of the lattice representation of {a, b, c}.

    For each gamma the weighted lattice sum, divided by its a=b=c=0
    normalisation M_gamma, must reproduce the closed form; M_gamma itself
    is also checked against its theta-product evaluation.
    """
    [(worst, details)] = brace_gamma_residuals([(a, b, c)], gamma_list, ctx)
    params = {"a": a, "b": b, "c": c, "gammas": [complex(g) for g in gamma_list]}
    params.update(details)
    return CheckResult(params, worst)


def km_V(x, m: int, mp: int, gc: GammaContext, ctx: QContext) -> complex:
    """Bold edge weight of the rational Kashiwara-Miwa model.

    V_x(m, m') = (q/x)^{2m} (x;q^2)_{m-m'} / (q^2/x;q^2)_{m-m'}
    times (g^2 x;q^2)_{m+m'} / (g^2 q^2/x;q^2)_{m+m'} with g = gamma;
    negative Pochhammer indices use the standard reciprocal extension
    (a;p)_{-n} = 1/(a p^{-n};p)_n.  Each ratio is one loop over its bounded
    factor ratios (1 - top q^{2k})/(1 - bot q^{2k}); the running product is
    folded into a logarithm whenever it nears the ends of double range, and
    one exp at the end gives the weight.  A vanishing denominator factor
    raises PoleHit, an exactly vanishing numerator factor makes the weight
    0, and a weight or a factor argument outside double range raises
    OverflowGuard.
    """
    x = complex(x)
    if x == 0:
        raise DomainError("weight needs x != 0")
    q = ctx.q
    q2 = q * q
    g2 = gc.gamma ** 2
    prod = 1.0 + 0.0j
    zero = False
    low, high = _FOLD_LOW, _FOLD_HIGH
    try:
        log_v = 2 * m * cmath.log(q / x)
        for top, bot, n in ((x, q2 / x, m - mp), (g2 * x, g2 * q2 / x, m + mp)):
            if n < 0:
                top, bot, n = bot * q2 ** n, top * q2 ** n, -n
            for _ in range(n):
                b = 1.0 - bot
                if abs(b) < 1e-14:
                    raise PoleHit(f"vanishing denominator factor {b!r} in a finite q-ratio")
                t = 1.0 - top
                if t == 0:
                    zero = True
                else:
                    prod *= t / b
                    if not low < abs(prod) < high:
                        log_v += cmath.log(prod)
                        prod = 1.0 + 0.0j
                top *= q2
                bot *= q2
        if zero:
            return 0.0 + 0.0j
        v = cmath.exp(log_v + cmath.log(prod))
        if cmath.isfinite(v):
            return v
    except (OverflowError, ValueError, ZeroDivisionError):
        pass
    raise OverflowGuard(f"km_V at (m, m') = ({m}, {mp}): the weight or a factor "
                        "of it leaves double range")


def km_S(m: int, gc: GammaContext, ctx: QContext) -> complex:
    """Site weight [gamma q^{2m}] / [gamma]."""
    return bracket(gc.gamma * ctx.q ** (2 * m)) / bracket(gc.gamma)


def km_Phi(x, gc: GammaContext, ctx: QContext) -> complex:
    """Scalar Phi(x) normalising the bold summation formula.

    The closed q-product form of its definition 1 / (2 [gamma] V_x^{(+-)}(0, 0)).
    """
    x = complex(x)
    q = ctx.q
    q2 = q * q
    g2 = gc.gamma ** 2
    num = qpoch_inf_multi((q2, q2 / (x * x), q2 * g2, q2 / g2), q2, ctx)
    den = qpoch_inf_multi((q2 / x, q2 / x, q2 * g2 / x, q2 / (g2 * x)), q2, ctx)
    return num / den


def km_kappa(x, gc: GammaContext, ctx: QContext) -> complex:
    """Star-triangle scalar kappa(x) at the selected gamma values.

    Closed forms exist on the selected lattice: nu = 0 (gamma = i) and
    |nu| = 1/2 (gamma = i q^{+-1/2}; both signs share one kappa).
    """
    if not gc.selected:
        raise DomainError("kappa has a closed form only at selected gamma")
    x = complex(x)
    q = ctx.q
    if gc.nu == 0:
        q4 = q ** 4
        return qpoch_inf(q * q * x * x, q4, ctx) / qpoch_inf(q4 / (x * x), q4, ctx)
    if abs(gc.nu) == 0.5:
        q2 = q * q
        return (qpoch_inf_multi((q * x, -q2 * x), q2, ctx)
                / qpoch_inf_multi((q2 / x, -q2 * q / x), q2, ctx))
    raise DomainError("kappa closed form implemented for nu in {0, +-1/2}")


def _bold_sum(x, y, a: int, c: int, gc: GammaContext, ctx: QContext) -> complex:
    """The sum over all spins b of V_x(a, b) S_b V_y(b, c)."""
    refuse_undecayed_sum(x, y, ctx)
    return windowed_bilateral_sum(
        lambda b: km_V(x, a, b, gc, ctx) * km_S(b, gc, ctx) * km_V(y, b, c, gc, ctx), ctx)


def km_summation_check(x, y, a: int, c: int, gc: GammaContext, ctx: QContext):
    """Residual of the bold summation formula over the full spin lattice."""
    x = complex(x)
    y = complex(y)
    lhs = _bold_sum(x, y, a, c, gc, ctx)
    rhs = (km_Phi(x, gc, ctx) * km_Phi(y, gc, ctx) / km_Phi(x * y, gc, ctx)
           * km_V(x * y, a, c, gc, ctx))
    res = relative_residual(lhs, rhs)
    return CheckResult({"x": x, "y": y, "a": a, "c": c, "gamma": gc.gamma}, res)


def km_inversion_check(x, a: int, c: int, gc: GammaContext, ctx: QContext):
    """Residual of the inversion relation (the x y = 1 case of the summation)."""
    x = complex(x)
    lhs = _bold_sum(x, 1 / x, a, c, gc, ctx)
    rhs = 0.0 + 0.0j
    if a == c:
        rhs = km_Phi(x, gc, ctx) * km_Phi(1 / x, gc, ctx) / km_S(a, gc, ctx)
    scale = abs(km_Phi(x, gc, ctx) * km_Phi(1 / x, gc, ctx) / km_S(a, gc, ctx))
    res = abs(lhs - rhs) / scale
    return CheckResult({"x": x, "a": a, "c": c, "gamma": gc.gamma}, res)


def star_triangle_km(x, y, a: int, b: int, c: int, gc: GammaContext,
                     ctx: QContext):
    """Residual of the Kashiwara-Miwa star-triangle relation at x y z = q.

    At selected gamma the triangle scalar is kappa(x) kappa(y) kappa(z) /
    kappa(1).  At generic gamma no kappa exists; the scalar is then
    calibrated at spins (0, 0, 0), so the residual measures
    whether any scalar can make the relation hold at the probed spins
    (the expected outcome is failure, per the negative control).
    """
    x = complex(x)
    y = complex(y)
    q = ctx.q
    z = q / (x * y)

    def lhs_at(sa, sb, sc):
        def summand(d):
            return (km_S(d, gc, ctx) * km_V(x, sa, d, gc, ctx)
                    * km_V(y, sb, d, gc, ctx) * km_V(z, sc, d, gc, ctx))
        return windowed_bilateral_sum(summand, ctx)

    def triangle_at(sa, sb, sc):
        return (km_V(q / x, sb, sc, gc, ctx) * km_V(q / y, sa, sc, gc, ctx)
                * km_V(q / z, sa, sb, gc, ctx))

    if gc.selected:
        scalar = (km_kappa(x, gc, ctx) * km_kappa(y, gc, ctx)
                  * km_kappa(z, gc, ctx) / km_kappa(1.0, gc, ctx))
        calibrated = False
    else:
        scalar = lhs_at(0, 0, 0) / triangle_at(0, 0, 0)
        calibrated = True
    lhs = lhs_at(a, b, c)
    rhs = scalar * triangle_at(a, b, c)
    res = relative_residual(lhs, rhs)
    return CheckResult({"x": x, "y": y, "spins": (a, b, c), "gamma": gc.gamma,
                        "selected": gc.selected, "calibrated_scalar": calibrated}, res)


def km_log_z(x, gc: GammaContext, ctx: QContext) -> complex:
    """Series for log z(x), the partition function per bold edge weight.

    Both series have terms in (q x)^n and (q^3/x)^n, so they decay only on
    the annulus |q|^3 < |x| < 1/|q|; outside it the series is refused.
    """
    if not gc.selected:
        raise DomainError("partition series known only at selected gamma")
    x = complex(x)
    q = ctx.q
    if not abs(q) ** 3 < abs(x) < 1 / abs(q):
        raise DomainError(f"partition series needs |q|^3 < |x| < 1/|q|, got |x| = {abs(x):.6g}")
    if gc.nu == 0:
        def terms():
            for n in count(1):
                yield (-(q ** (2 * n)) * (x ** (2 * n) - q ** (4 * n) / x ** (2 * n))
                       / (n * (1 - q ** (4 * n)) * (1 + q ** (2 * n))))
    elif abs(gc.nu) == 0.5:
        def terms():
            for n in count(1):
                yield (-(q ** n + (-(q * q)) ** n) * (x ** n - q ** (2 * n) / x ** n)
                       / (n * (1 - q ** (2 * n)) * (1 + q ** n)))
    else:
        raise DomainError("partition series implemented for nu in {0, +-1/2}")
    return tail_sum(terms(), ctx)


def km_partition_checks(x, gc: GammaContext, ctx: QContext):
    """Functional equations of the per-edge and per-site partition functions.

    Checks z(x) z(q^2/x) = 1 and z(x)/z(q/x) = kappa(x) from the series,
    the per-site value z_s kappa(1) = 1, and the one-step gamma shift
    ratio that connects nu = -1/2 to nu = +1/2 (both signs share one z,
    so the shift product must be 1).
    """
    x = complex(x)
    q = ctx.q
    q2 = q * q
    z_x = cmath.exp(km_log_z(x, gc, ctx))
    z_dual = cmath.exp(km_log_z(q2 / x, gc, ctx))
    z_ref = cmath.exp(km_log_z(q / x, gc, ctx))
    res_inv = abs(z_x * z_dual - 1.0)
    res_kappa = relative_residual(z_x / z_ref, km_kappa(x, gc, ctx))
    res_site = abs(km_kappa(q, gc, ctx) * km_kappa(1.0, gc, ctx) - 1.0)
    # nu = -1/2 -> nu = +1/2 is one gamma -> q gamma step; gamma^2 = -1/q there
    g2 = -1.0 / q
    shift = (qpoch_inf_multi((q2 / (g2 * x), q2 * g2 * x), q2, ctx)
             / qpoch_inf_multi((x / g2, q ** 4 * g2 / x), q2, ctx))
    res_shift = abs(shift - 1.0)
    res = worst_residual((res_inv, res_kappa, res_site, res_shift))
    return CheckResult({"x": x, "gamma": gc.gamma, "nu": gc.nu,
                        "res_inversion": res_inv, "res_kappa": res_kappa,
                        "res_site": res_site, "res_gamma_shift": res_shift}, res)
