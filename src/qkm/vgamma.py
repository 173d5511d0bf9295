"""The two-Fock reducible representation and the rational Kashiwara-Miwa model.

The spin lattice gamma q^m, m in Z, splits into two Fock sectors labelled
by a parity sign.  Projector weights, the even-sublattice bold weights
V_x(m, m') of the rational Kashiwara-Miwa model, the star-triangle
relation at the selected gamma values (with its negative control at
generic gamma), and the partition-function functional equations live here.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import count

import numpy as np

from .context import QContext
from .errors import DomainError, OverflowGuard, PoleHit, SingularMeasure
from .fock import brace, lattice_rows, refuse_undecayed_sum
from .orthopoly import lattice_brace_sums, overlap_sum
from .qseries import (ThetaKind, bilateral_walk, bracket, log_qpoch_table,
                      qpoch_inf, qpoch_inf_multi, tail_sum, theta_product)
from .report import CheckResult, relative_residual, worst_residual

__all__ = [
    "GammaContext", "gamma_norm_const", "vgamma_decomposition", "weight_Veps",
    "weight_Veps_table", "weight_Veps_from_overlaps", "brace_gamma_residuals", "brace_gamma_check",
    "km_V", "km_S", "km_Phi", "km_kappa", "star_triangle_km",
    "km_log_z", "km_partition_checks", "windowed_bilateral_sum",
]

_LATTICE_DPS = 30  # working digits of the bilateral brace lattice sums
# km_V's runs fold their running products into a logarithm outside this
# band, which leaves 2^523 of head-room on either side for the next factor
# ratio, and keeps the product of two running products inside double range
_FOLD_LOW, _FOLD_HIGH = 2.0 ** -500, 2.0 ** 500
# a GammaContext keeps the km_V runs of this many (x, q) pairs, dropping
# the least recently used first; a star-triangle check reads six
_KM_CHAIN_KEYS = 16


@dataclass(frozen=True)
class GammaContext:
    """Spin-lattice parameter gamma, its table window and selection label.

    ``nu`` is set only when gamma was constructed exactly as i q^nu with
    2 nu integer (the selected lattice); detection is never attempted by
    floating-point recognition.  The attribute ``_km_runs``, no field and
    so no part of the context's value, is km_V's store of runs (see km_V).
    """

    gamma: complex
    m_window: int = 40
    nu: float | None = field(default=None)

    def __post_init__(self):
        if complex(self.gamma) == 0:
            raise DomainError("gamma must be nonzero")
        if self.nu is not None and abs(2 * self.nu - round(2 * self.nu)) > 1e-12:
            raise DomainError("selected gamma needs nu in Z/2")
        runs = lru_cache(_KM_CHAIN_KEYS)(partial(_km_runs, gamma=self.gamma))
        object.__setattr__(self, "_km_runs", runs)

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


def vgamma_decomposition(gc: GammaContext, mu, a_max: int, ctx: QContext):
    """Sector overlaps ``(ket, bra, measure)`` on the window |m| <= m_window.

    ``ket[e, a, j]`` is <eps, a | mu, m> and ``bra[e, j, a]`` is
    <mu, m | eps, a> at m = j - m_window, with e = 0 for eps = +1 and e = 1
    for eps = -1.  ``measure[j]`` is the site measure [gamma q^m]; a window
    on which it vanishes is refused with SingularMeasure.
    """
    mu = complex(mu)
    q = ctx.q
    gamma = gc.gamma
    ms = np.arange(-gc.m_window, gc.m_window + 1)
    try:
        xis = [gamma * q ** int(m) for m in ms]
        sites = [gamma ** int(m) for m in ms]
    except (OverflowError, ZeroDivisionError):
        raise OverflowGuard(f"gamma q^m or gamma^m leaves double range on |m| <= "
                            f"{gc.m_window} at |q| = {abs(q):.3g}") from None
    measure = np.array([bracket(xi) for xi in xis])
    singular = np.flatnonzero(np.abs(measure) < 1e-12)
    if singular.size:
        raise SingularMeasure(f"[gamma q^m] vanishes at m = {ms[singular[0]]}")
    # site * q^{a^2/2} P_a / sqrt((q^2;q^2)_a); bounded for all (a, m)
    rows = lattice_rows(xis, [g * ctx.q_pow_half(int(m) ** 2) for g, m in zip(sites, ms)],
                        a_max, ctx)
    n_gamma = gamma_norm_const(gc, ctx)
    a = np.arange(a_max + 1)[:, None]
    mu_pow = mu ** a
    sign = np.where(ms % 2, -1.0, 1.0) * (-1.0) ** a  # (-)^m (-)^a
    parities = [np.where((a + ms) % 2, eps, 1) for eps in (1, -1)]
    ket = np.stack([mu_pow * parity * rows / n_gamma for parity in parities])
    bra = np.stack([(sign * parity / mu_pow * q ** a * rows).T for parity in parities])
    return ket, bra, measure


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


def _ratio_run(num: complex, den: complex, q2: complex, shift, n: int):
    """States 0 ... n of the running product of (1 - num)/(1 - den): ``(states, zero, stop)``.

    State k is ``(folded log, product)`` after k factors, folded outside the
    band _FOLD_LOW < |product| < _FOLD_HIGH; both arguments are shifted by
    q^2 (operator.mul or operator.truediv) after each factor, so a longer
    run repeats every operation of a shorter one.  ``zero`` is the first
    state past a vanishing numerator factor; ``stop``, ``(exception class,
    message)``, ends the states at a vanishing denominator factor (PoleHit)
    or a factor argument or product outside double range (OverflowGuard).
    """
    log, prod = 0j, 1.0 + 0.0j
    states = [(log, prod)]
    zero = math.inf
    while len(states) <= n:
        if not (cmath.isfinite(num) and cmath.isfinite(den)):
            return tuple(states), zero, (OverflowGuard, "a factor argument leaves double range")
        b = 1.0 - den
        if abs(b) < 1e-14:
            return tuple(states), zero, (PoleHit, f"vanishing denominator factor {b!r} "
                                                  "in a finite q-ratio")
        t = 1.0 - num
        if t == 0:
            zero = min(zero, len(states))
        else:
            prod *= t / b
            if not _FOLD_LOW < abs(prod) < _FOLD_HIGH:
                if prod == 0 or not cmath.isfinite(prod):
                    return tuple(states), zero, (OverflowGuard, "a product leaves double range")
                log += cmath.log(prod)
                prod = 1.0 + 0.0j
        states.append((log, prod))
        num = shift(num, q2)
        den = shift(den, q2)
    return tuple(states), zero, None


def _km_runs(x: complex, q: complex, gamma: complex):
    """km_V's four ``_ratio_run`` argument tuples and their runs so far (state 0).

    A ratio's n < 0 run takes (1 - bot q^{-2j}) / (1 - top q^{-2j}), j = 1 ... |n|,
    dividing by q^2 step by step; where q^2 underflows to 0 each factor is refused.
    """
    q2 = q * q
    g2 = gamma ** 2
    args = []
    for top, bot in ((x, q2 / x), (g2 * x, g2 * q2 / x)):
        args.append((top, bot, q2, operator.mul))
        args.append((cmath.inf, cmath.inf, q2, operator.truediv) if q2 == 0
                    else (bot / q2, top / q2, q2, operator.truediv))
    return args, [_ratio_run(*a, 0) for a in args]


def km_V(x, m: int, mp: int, gc: GammaContext, ctx: QContext) -> complex:
    """Bold edge weight of the rational Kashiwara-Miwa model.

    V_x(m, m') = (q/x)^{2m} (x;q^2)_{m-m'} / (q^2/x;q^2)_{m-m'}
    times (g^2 x;q^2)_{m+m'} / (g^2 q^2/x;q^2)_{m+m'} with g = gamma;
    negative Pochhammer indices use the standard reciprocal extension
    (a;p)_{-n} = 1/(a p^{-n};p)_n.  Each q-ratio depends on one integer, so
    it is read from a run of running products (one per ratio and sign of
    its index, see _ratio_run) that ``gc`` keeps for its last
    _KM_CHAIN_KEYS values of (x, q); an M x M spin grid costs O(M) factor
    ratios.  A run read past its end is rebuilt to at least twice its length
    and replaced whole, never changed in place, so threads may share a
    context without a lock, and every weight has the same bits cold or warm,
    in any call order and after eviction.  A vanishing denominator factor
    raises PoleHit, an exactly vanishing numerator factor makes the weight
    0, and a weight or a factor argument outside double range raises
    OverflowGuard.
    """
    x = complex(x)
    if x == 0:
        raise DomainError("weight needs x != 0")
    q = ctx.q
    args, runs = gc._km_runs(x, q)
    n1, n2 = m - mp, m + mp
    k1, n1 = (0, n1) if n1 >= 0 else (1, -n1)
    k2, n2 = (2, n2) if n2 >= 0 else (3, -n2)
    try:
        log_v = 2 * m * cmath.log(q / x)
        (states1, zero1, stop1), (states2, zero2, stop2) = runs[k1], runs[k2]
        if n1 >= len(states1) or n2 >= len(states2):
            if n1 >= len(states1) and stop1 is None:
                runs[k1] = states1, zero1, stop1 = _ratio_run(*args[k1], max(n1, 2 * len(states1)))
            if n2 >= len(states2) and stop2 is None:
                runs[k2] = states2, zero2, stop2 = _ratio_run(*args[k2], max(n2, 2 * len(states2)))
            if n1 >= len(states1) or n2 >= len(states2):
                error, message = stop1 if n1 >= len(states1) else stop2
                raise error(message)
        if n1 >= zero1 or n2 >= zero2:
            return 0.0 + 0.0j
        log1, prod1 = states1[n1]
        log2, prod2 = states2[n2]
        v = cmath.exp(log_v + log1 + log2 + cmath.log(prod1 * prod2))
        if cmath.isfinite(v):
            return v
    except (OverflowError, ValueError, OverflowGuard):
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
    dual = q * q / x  # (q^2/x)^k, not q^{2k}/x^k: the two powers apart underflow at tiny q
    if gc.nu == 0:
        def terms():
            for n in count(1):
                yield (-(q ** (2 * n)) * (x ** (2 * n) - dual ** (2 * n))
                       / (n * (1 - q ** (4 * n)) * (1 + q ** (2 * n))))
    elif abs(gc.nu) == 0.5:
        def terms():
            for n in count(1):
                yield (-(q ** n + (-(q * q)) ** n) * (x ** n - dual ** n)
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
