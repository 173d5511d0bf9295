"""Modular-double machinery: the noncompact dilogarithm, the spectral
wavefunction, and the hyperbolic Kashiwara-Miwa weight.

Everything runs in the strongly coupled wedge b = exp(i theta) with
theta in (0, pi/2), where both nomes q = exp(i pi b^2) and
qbar = exp(-i pi / b^2) are inside the unit disc and all products and
series converge fast.

Quadratures use an equal-weight rule on a shifted lattice of [-L, L]:
level 0 has the n0 nodes -L + h0/3 + h0 k (h0 = 2L/n0), and each
refinement adds only the nodes shifted by h/2, so every value already
summed is kept and level j holds n0 2^j nodes.  Two successive levels that
agree within tol_quad/10 certify the answer.  The lattice never holds
sigma = 0, where the sigma-space norm (z; q^2)_inf (zbar; qbar^2)_inf
vanishes and the spectral integrand is a removable singularity that
floating point cannot evaluate (a node there would be 0/0).
Both integrands are analytic in a strip around the
real axis and decay exponentially, so the rule converges geometrically in
the node count (Trefethen and Weideman, "The exponentially convergent
trapezoidal rule", SIAM Rev. 56, 2014, sec. 5); once two levels agree, the
finer one is already far more accurate than their difference.  The rule
needs nothing but the values at the nodes, so each level of nodes is one
call of the integrand on a numpy array: the dilogarithm, chi, the
q-products and the tail walks take their arithmetic from their argument,
running the Python-complex code on a number and the same code over numpy
lanes on an array.  At the registry's points the spectral integral
certifies at 128 nodes (two calls) and the convolution at 128 or 256 (two
or three calls), out of a 64-node start.

A window is refused with WindowTooSmall when the integrand has not decayed
at its edges.  The convolution is refused when |f(+-L)| times the window
length 2L exceeds tol_quad/100.  The spectral integrand falls about e-fold
per unit of sigma near L = 8 (the tail beyond the window measured 0.66 to
1.42 times |f(+-L)| at the registry's points for theta = 0.9 and 1.0), so
|f(+-L)| is about the tail the window drops, and the spectral integral is
refused when it exceeds tol_quad: at most 7.2e-7 at the default
theta = pi/5 and 2.8e-5 at 0.9, but 4.7e-4 at 1.0, where the truncated
integral missed the closed form by 1.4e-3.  An edge value that is not
finite is refused with OverflowGuard: at theta <= 0.25 Psi Psi and the
sigma-space norm both overflow at sigma = -8.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .context import QContext
from .errors import DomainError, OverflowGuard, PoleHit, TruncationExhausted, WindowTooSmall
from .orthopoly import chi
from .qseries import (ThetaKind, as_complex, complex_math, qpoch_inf, tail_length,
                      theta_product)
from .report import CheckResult, relative_residual, worst_residual

__all__ = [
    "ModularContext", "faddeev_phi",
    "psi", "psi_eigen_check", "phi_mu", "weight_V_modular",
    "weight_V_modular_integral", "s_weight",
    "summation_check_modular", "adaptive_midpoint",
]


@dataclass(frozen=True)
class ModularContext:
    """Modular parameter b = exp(i theta) and derived quantities.

    Fractional powers of the nomes are built directly from theta, so all
    of q^{1/2}, q^{1/4} and their barred partners sit on one consistent
    branch by construction.  The two nome contexts ``ctx_q`` and
    ``ctx_qbar`` are built once here and shared by every evaluation, as are
    the squared nomes and the powers b^{1/2}, q^{1/4} and qbar^{1/4}; like
    the other derived fields they take no part in equality or hashing.
    """

    theta: float
    quad_halfwidth: float = 8.0
    quad_points: int = 64
    tol_quad: float = 1e-4
    b: complex = field(init=False, repr=False, compare=False)
    q: complex = field(init=False, repr=False, compare=False)
    qbar: complex = field(init=False, repr=False, compare=False)
    eta: complex = field(init=False, repr=False, compare=False)
    q2: complex = field(init=False, repr=False, compare=False)
    qbar2: complex = field(init=False, repr=False, compare=False)
    b_half: complex = field(init=False, repr=False, compare=False)
    q_quarter: complex = field(init=False, repr=False, compare=False)
    qbar_quarter: complex = field(init=False, repr=False, compare=False)
    ctx_q: QContext = field(init=False, repr=False, compare=False)
    ctx_qbar: QContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi / 2:
            raise DomainError("strong coupling needs theta in (0, pi/2)")
        b = cmath.exp(1j * self.theta)
        q = cmath.exp(1j * cmath.pi * b * b)
        qbar = cmath.exp(-1j * cmath.pi / (b * b))
        if abs(q) >= 1 or abs(qbar) >= 1:
            raise DomainError("both nomes must lie inside the unit disc")
        eta = 1j * (b + 1 / b) / 2
        if abs(eta.real) > 1e-13:
            raise DomainError("eta = i cos(theta) must be purely imaginary")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qbar", qbar)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "q2", q * q)
        object.__setattr__(self, "qbar2", qbar * qbar)
        object.__setattr__(self, "b_half", cmath.exp(0.5j * self.theta))
        object.__setattr__(self, "q_quarter", cmath.exp(0.25j * cmath.pi * b * b))
        object.__setattr__(self, "qbar_quarter", cmath.exp(-0.25j * cmath.pi / (b * b)))
        object.__setattr__(self, "ctx_q", QContext(q=q, tol_identity=1e-10))
        object.__setattr__(self, "ctx_qbar", QContext(q=qbar, tol_identity=1e-10))


def faddeev_phi(x, mc: ModularContext) -> complex:
    """Noncompact dilogarithm by its double-product representation.

    phi(x) = (e^{2 pi b (x + eta)}; q^2)_inf / (e^{2 pi (x - eta)/b}; qbar^2)_inf;
    the two functional equations phi(x - i b^{+-1}/2) / phi(x + i b^{+-1}/2)
    = 1 + e^{2 pi x b^{+-1}} pin it down uniquely.  An array x gives phi
    in each lane (qseries.as_complex).
    """
    x = as_complex(x)
    b = mc.b
    exp = complex_math(x).exp
    w_num = exp(2 * cmath.pi * b * (x + mc.eta))
    w_den = exp(2 * cmath.pi * (x - mc.eta) / b)
    num = qpoch_inf(w_num, mc.q2, mc.ctx_q)
    den = _checked_qpoch(w_den, mc.qbar2, mc.ctx_qbar)
    return num / den


def _checked_qpoch(w, nome, ctx) -> complex:
    """qpoch_inf that refuses a factor on the pole lattice of the denominator,
    tested in every lane of an array w."""
    out = 1.0 + 0.0j
    f = as_complex(w)
    lanes = type(f) is np.ndarray
    for k in range(tail_length(abs(f), abs(nome), ctx.tail_cut, ctx.max_terms)):
        factor = 1.0 - f
        near = abs(factor) < 1e-12
        if near.any() if lanes else near:
            bad = complex(factor[near][0] if lanes else factor)
            raise PoleHit(f"dilogarithm pole: factor 1 - w q^{{2k}} = {bad!r} at k = {k}")
        out *= factor
        f = f * nome
    return out


def _z_pair(sigma, mc: ModularContext):
    """z = e^{-2 pi b sigma} and zbar = e^{-2 pi sigma / b}, per lane of an array sigma."""
    exp = complex_math(sigma).exp
    return exp(-2 * cmath.pi * mc.b * sigma), exp(-2 * cmath.pi * sigma / mc.b)


def _psi_in_sigma(x, mc: ModularContext):
    """Psi(., x) as a function of (sigma, z, zbar), its x-only factors built once.

    u = e^{pi b x}, ubar = e^{pi x / b}, their reciprocals, H(u) and G(x)
    depend on x alone; z and zbar come from the caller (see _z_pair), which
    may share them with the sigma-space norm.  sigma, z and zbar may be
    lanes (arrays), x is a number.
    """
    x = complex(x)
    ctxq, ctxqb = mc.ctx_q, mc.ctx_qbar
    u = cmath.exp(cmath.pi * mc.b * x)
    ub = cmath.exp(cmath.pi * x / mc.b)
    iu, iub = 1 / u, 1 / ub
    h_u = theta_product(ThetaKind.H, u, ctxq)
    g = (cmath.exp(-1j * cmath.pi / 8 + 0.5j * cmath.pi * x ** 2)
         / (mc.b_half * mc.q_quarter * h_u))

    def at(sigma, z, zb):
        phase = complex_math(sigma).exp(1j * cmath.pi * sigma * x)
        brack = (phase * chi(iub, zb, ctxqb) * chi(u, z, ctxq)
                 - chi(ub, zb, ctxqb) * chi(iu, z, ctxq) / phase)
        return g * brack

    return at


def psi(sigma, x, mc: ModularContext) -> complex:
    """Spectral wavefunction Psi(sigma, x).

    Psi = G(x) (e^{i pi sigma x} chibar(1/ubar) chi(u)
                - e^{-i pi sigma x} chibar(ubar) chi(1/u)),
    G(x) = e^{-i pi/8 + i pi x^2/2} / (b^{1/2} q^{1/4} H(u)), with chi at
    z = e^{-2 pi b sigma} and chibar at zbar = e^{-2 pi sigma / b}; the
    zeros of the theta function H(u) cancel against the bracket, so the
    whole expression is finite everywhere.  An array sigma gives Psi in
    each lane.
    """
    sigma = as_complex(sigma)
    return _psi_in_sigma(x, mc)(sigma, *_z_pair(sigma, mc))


def psi_eigen_check(sigma, x, mc: ModularContext):
    """Residuals of the two shift eigenvalue equations satisfied by Psi.

    (Psi(x + i b) - Psi(x - i b)) / (2 sinh(pi b x)) = -q^{1/2} e^{pi b sigma} Psi
    and the barred partner with b -> 1/b, the conjugate nome, and the
    opposite shift orientation.
    """
    sigma = complex(sigma)
    x = complex(x)
    b = mc.b
    p0 = psi(sigma, x, mc)
    qh = cmath.exp(0.5j * cmath.pi * b * b)
    qbh = cmath.exp(-0.5j * cmath.pi / (b * b))
    lhs1 = ((psi(sigma, x + 1j * b, mc) - psi(sigma, x - 1j * b, mc))
            / (2 * cmath.sinh(cmath.pi * b * x)))
    rhs1 = -qh * cmath.exp(cmath.pi * b * sigma) * p0
    lhs2 = ((psi(sigma, x - 1j / b, mc) - psi(sigma, x + 1j / b, mc))
            / (2 * cmath.sinh(cmath.pi * x / b)))
    rhs2 = -qbh * cmath.exp(cmath.pi * sigma / b) * p0
    res1 = relative_residual(lhs1, rhs1)
    res2 = relative_residual(lhs2, rhs2)
    return CheckResult({"sigma": sigma, "x": x, "theta": mc.theta,
                        "res_b": res1, "res_binv": res2},
                       worst_residual((res1, res2)))


def phi_mu(mu, mc: ModularContext) -> complex:
    """Scalar Phi(mu) normalising the closed-form weight.

    Phi(mu) = 2 e^{i pi/4} phi0^2 e^{-2 i pi mu^2 - 2 pi b mu} phi(eta - 2 mu)
    with phi0^2 = (q/qbar)^{1/12}, both exponentials taken exactly from b.
    """
    mu = complex(mu)
    b = mc.b
    phi0_sq = cmath.exp(1j * cmath.pi * (b * b + 1 / (b * b)) / 12)
    return (2 * cmath.exp(0.25j * cmath.pi) * phi0_sq
            * cmath.exp(-2j * cmath.pi * mu * mu - 2 * cmath.pi * b * mu)
            * faddeev_phi(mc.eta - 2 * mu, mc))


def _weight_ratio(mu, x, y, mc: ModularContext) -> complex:
    """The closed-form weight before its division by Phi(mu); x and y may be lanes."""
    x = as_complex(x)
    y = as_complex(y)
    nu = complex(mu) - mc.eta
    w1 = (x - y) / 2
    w2 = (x + y) / 2
    ratio = (faddeev_phi(w1 - nu, mc) / faddeev_phi(w1 + nu, mc)
             * faddeev_phi(w2 - nu, mc) / faddeev_phi(w2 + nu, mc))
    return complex_math(x).exp(2j * cmath.pi * nu * x) * ratio


def weight_V_modular(mu, x, y, mc: ModularContext) -> complex:
    """Hyperbolic edge weight in closed dilogarithm form."""
    return _weight_ratio(mu, x, y, mc) / phi_mu(mu, mc)


def s_weight(y, mc: ModularContext) -> complex:
    """Site weight 2 sinh(pi b y) sinh(pi y / b), per lane of an array y."""
    y = as_complex(y)
    sinh = complex_math(y).sinh
    return 2 * sinh(cmath.pi * mc.b * y) * sinh(cmath.pi * y / mc.b)


MAX_DOUBLINGS = 6  # refinements adaptive_midpoint tries before it gives up


def adaptive_midpoint(f, halfwidth: float, n0: int, tol: float) -> complex:
    """Equal-weight rule on a shifted lattice of [-L, L], refined until certified.

    Level 0 sums f over the n = max(n0, 8) nodes -L + h/3 + h k, h = 2L/n.
    Each refinement adds the n nodes shifted by h/2 to the running sum and
    halves h, so no node is evaluated twice and none lies at 0; the answer
    is certified once two successive levels agree within ``tol``.  f takes
    a level's nodes as one array and returns its values there as one
    array, which is added in node order.  f runs with numpy's floating-point
    warnings off; a level whose sum is not finite raises OverflowGuard.
    """
    n = max(n0, 8)
    h = 2.0 * halfwidth / n
    start = -halfwidth + h / 3
    total = _level_sum(f, start + h * np.arange(n))
    prev = h * total
    for _ in range(MAX_DOUBLINGS):
        total += _level_sum(f, start + h / 2 + h * np.arange(n))
        n *= 2
        h /= 2
        val = h * total
        if abs(val - prev) < tol:
            return val
        prev = val
    raise TruncationExhausted("quadrature did not certify; raise quad_points or tol")


def _level_sum(f, nodes):
    """The sum of f over one level's nodes, in node order, from one call of f."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        total = sum(f(nodes))
    if not cmath.isfinite(total):
        raise OverflowGuard(f"integrand is not finite at a node of [{nodes.min():.3g}, "
                            f"{nodes.max():.3g}]")
    return total


def _refuse_undecayed(f, mc: ModularContext, length: float, bound: float) -> None:
    """WindowTooSmall when the larger |f(+-L)|, times ``length``, exceeds ``bound``.

    An edge value that is not finite (the integrand overflowed there) is
    refused with OverflowGuard, since no window width would mend it.
    """
    edges = (abs(f(mc.quad_halfwidth)), abs(f(-mc.quad_halfwidth)))
    if not all(map(math.isfinite, edges)):
        raise OverflowGuard(f"integrand magnitudes {edges[0]:.3g}, {edges[1]:.3g} at the "
                            "window edges +-L leave double range")
    edge = max(edges)
    if edge * length > bound:
        raise WindowTooSmall(
            f"integrand magnitude {edge:.3g} at the window edge; raise quad_halfwidth")


def weight_V_modular_integral(mu, x, y, mc: ModularContext) -> complex:
    """The same weight from its spectral integral over sigma.

    Integrates e^{2 pi i mu sigma} Psi(sigma, x) Psi(sigma, y) divided by
    the sigma-space norm, against the constant N^{-1}; reproduces the
    closed form including its scalar Phi(mu).  The x- and y-only factors
    of the two wavefunctions are built once, and each node computes z and
    zbar once for the norm and both wavefunctions.
    """
    mu = complex(mu)
    q2, qb2 = mc.q2, mc.qbar2
    ctxq, ctxqb = mc.ctx_q, mc.ctx_qbar
    n_const = 2.0 / (mc.q_quarter * mc.qbar_quarter
                     * qpoch_inf(q2, q2, ctxq) * qpoch_inf(qb2, qb2, ctxqb))
    psi_x = _psi_in_sigma(x, mc)
    psi_y = _psi_in_sigma(y, mc)

    def integrand(sigma):
        sigma = as_complex(sigma)
        z, zb = _z_pair(sigma, mc)
        norm = qpoch_inf(z, q2, ctxq) * qpoch_inf(zb, qb2, ctxqb)
        return (complex_math(sigma).exp(2j * cmath.pi * mu * sigma)
                * psi_x(sigma, z, zb) * psi_y(sigma, z, zb) / norm)

    # the integrand falls about e-fold per unit of sigma near the edges, so
    # |f(+-L)| times one unit estimates the tail the window drops
    _refuse_undecayed(integrand, mc, 1.0, mc.tol_quad)
    val = adaptive_midpoint(integrand, mc.quad_halfwidth, mc.quad_points,
                            mc.tol_quad / 10.0)
    return val / n_const


def summation_check_modular(mu, mup, x, z, mc: ModularContext):
    """Residual of the weight convolution: V_mu * S * V_mup integrates to V_{mu+mup}.

    The y-integral runs over the full line; the integrand must already be
    negligible at the window edges, otherwise the window is rejected.  The
    two Phi normalisations do not depend on y, so they are computed once
    rather than at every grid point.
    """
    mu = complex(mu)
    mup = complex(mup)
    inv_norm = 1 / (phi_mu(mu, mc) * phi_mu(mup, mc))

    def integrand(y):
        return (_weight_ratio(mu, x, y, mc) * s_weight(y, mc)
                * _weight_ratio(mup, y, z, mc) * inv_norm)

    _refuse_undecayed(integrand, mc, 2 * mc.quad_halfwidth, mc.tol_quad * 1e-2)
    lhs = adaptive_midpoint(integrand, mc.quad_halfwidth, mc.quad_points,
                            mc.tol_quad / 10.0)
    rhs = weight_V_modular(mu + mup, x, z, mc)
    res = relative_residual(lhs, rhs)
    return CheckResult({"mu": mu, "mup": mup, "x": x, "z": z, "theta": mc.theta}, res)
