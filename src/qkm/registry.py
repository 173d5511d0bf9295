"""Identity registry: every machine-checked identity, as data.

Each entry of ``REGISTRY`` is data: an identity id, a tolerance, the default
point that ``--q`` / ``--gamma`` override, the q it pins whatever ``--q``
says, a negative-control flag and a check.  The check is a generator
over a :class:`Run`, which builds the entry's contexts on first use; each
step it yields is one parameter point.  :func:`run_entry` is the one loop
that times the points, turns them into reports and isolates the entry's
errors.  Identity ids carry a short catalogue tag so runs can be filtered
with globs like ``fock.*`` or ``*.star_triangle.*``.  Random points are
drawn from documented annuli via the run seed, so two runs with the same
configuration produce identical reports.
"""

from __future__ import annotations

import cmath
import fnmatch
import math
import os
import time
import traceback
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, product

import numpy as np

from . import fock, modular, orthopoly, qseries, vgamma
from .context import QContext
from .errors import DomainError, QkmError
from .qseries import refuse_cancellation
from .report import (ERROR, IdentityReport, make_report, relative_residual,
                     skipped_report, worst_residual)

DEFAULT_Q = 0.4
DEFAULT_THETA = math.pi / 5
GAMMA_GENERIC = 0.7 * cmath.exp(0.4j)
SELECTED_NU = (0.0, 0.5)
# tolerance of a check's QContext (it sets the tail cut) when --tol is unset
CONTEXT_TOL = 1e-9
# |q| band where the generic-gamma star-triangle defect exceeds 10x its
# tolerance; its first point reads 2.6e-6 at 1e-5 and 1.6e-6 at 0.9, but
# 2.6e-7 at 1e-6 and 6.9e-8 at 0.92
NEGATIVE_CONTROL_Q_BAND = (1e-5, 0.9)


@dataclass(frozen=True)
class RunConfig:
    """User-facing knobs for a verification run.

    ``q`` / ``gamma`` / ``gamma_nu`` / ``b_theta`` override each identity's
    documented default point; ``tol`` overrides the per-identity tolerance;
    ``m_window`` and ``a_max`` override table windows.  All identities
    draw their randomised points from ``seed``.
    """

    q: complex | None = None
    gamma: complex | None = None
    gamma_nu: float | None = None
    b_theta: float | None = None
    tol: float | None = None
    seed: int = 20240901
    filter: str = "*"
    fmt: str = "human"
    m_window: int | None = None
    a_max: int | None = None


@dataclass(frozen=True, eq=False)
class IdentityEntry:
    """One catalogue entry.

    ``check(run)`` is a generator over a :class:`Run`.  Each step yields
    ``(params, residual)``, as a library :class:`CheckResult` is, optionally
    followed by the identity id and the tolerance it is reported under (by
    default the entry's).  ``q`` is the default q (a tuple where the check
    runs at several) that ``--q`` replaces, or None for a check that
    ignores ``--q``; ``gamma`` is the default generic gamma (``--gamma C``).
    ``fixed_q`` is a q the check uses whatever ``--q`` says.
    """

    identity_id: str
    check: Callable[[Run], Iterator]
    tol: float = 1e-9
    q: complex | tuple | None = DEFAULT_Q
    gamma: complex = GAMMA_GENERIC
    fixed_q: complex | None = None
    negative: bool = False


def _default(value, default):
    """An override unless it is unset; falsy overrides are kept."""
    return default if value is None else value


class Run:
    """One entry's view of a run: its overrides resolved, contexts built on first use.

    A context is built only when the check first reads it, so an entry
    that reads no q is not refused over a bad ``--q``.  A check may set
    ``negative`` to report its points as a negative control.
    """

    def __init__(self, entry: IdentityEntry, cfg: RunConfig):
        self.entry = entry
        self.cfg = cfg
        self.tol = _default(cfg.tol, entry.tol)
        self.negative = entry.negative
        self.q = None if entry.q is None else _default(cfg.q, entry.q)

    def context(self, q, tol=None) -> QContext:
        """A QContext at q, with tolerance ``tol``, else ``--tol``, else CONTEXT_TOL."""
        return QContext(q=q, tol_identity=_default(tol, _default(self.cfg.tol,
                                                                 CONTEXT_TOL)))

    @cached_property
    def ctx(self) -> QContext:
        return self.context(self.q)

    @cached_property
    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.cfg.seed)

    @cached_property
    def mc(self) -> modular.ModularContext:
        return modular.ModularContext(theta=_default(self.cfg.b_theta, DEFAULT_THETA))

    def gamma_ctx(self) -> vgamma.GammaContext:
        """The generic gamma (``--gamma``, else the entry's) with its table
        window (``--m-window``, else 40)."""
        gamma = complex(_default(self.cfg.gamma, self.entry.gamma))
        return vgamma.GammaContext(gamma=gamma, m_window=_default(self.cfg.m_window, 40))

    def selected(self, nus=None) -> list[vgamma.GammaContext]:
        """Selected-lattice contexts at ``nus``, by default at ``--gamma
        selected:NU``, else at SELECTED_NU."""
        if nus is None:
            nus = SELECTED_NU if self.cfg.gamma_nu is None else (self.cfg.gamma_nu,)
        return [vgamma.GammaContext.make_selected(nu, self.ctx) for nu in nus]


def sample_annulus(rng, n: int, r_min: float, r_max: float) -> np.ndarray:
    """n complex points, modulus uniform in [r_min, r_max], phase uniform."""
    r = rng.uniform(r_min, r_max, n)
    phi = rng.uniform(0.0, 2 * math.pi, n)
    return r * np.exp(1j * phi)


# ---------------------------------------------------------------- qseries

def _theta(run):
    ctx = run.ctx

    def residual(kind, u):
        s, peak = qseries.theta_sum(kind, u, ctx)
        p = qseries.theta_product(kind, u, ctx)
        return abs(s - p) / max(abs(s), abs(p), peak)

    for kind in qseries.ThetaKind:
        us = sample_annulus(run.rng, 50, 0.5, 2.0)
        yield ({"kind": kind.value, "q": ctx.q, "n_points": 50},
               worst_residual(residual(kind, u) for u in us))


def _theta_const(run):
    ctx = run.ctx
    s, _ = qseries.theta_sum(qseries.ThetaKind.CAP_THETA4, 1.0, ctx)
    p = qseries.theta_product(qseries.ThetaKind.CAP_THETA4, 1.0, ctx)
    ratio = (qseries.qpoch_inf(ctx.q, ctx.q, ctx)
             / qseries.qpoch_inf(-ctx.q, ctx.q, ctx))
    yield {"q": ctx.q}, worst_residual((relative_residual(s, p), relative_residual(p, ratio),
                                        relative_residual(s, ratio)))


def _pentagonal(run):
    yield qseries.pentagonal_check(run.ctx)


def _gauss(run):
    ctx = run.ctx
    pts = [(0.2, 0.3)] + list(zip(sample_annulus(run.rng, 2, 0.1, 0.5),
                                  sample_annulus(run.rng, 2, 0.1, 0.5)))
    for x, z in pts:
        yield qseries.gauss_check(x, z, ctx)


def _gauss_double(run):
    ctx = run.ctx
    for z1, z2 in [(0.3, 0.2), tuple(sample_annulus(run.rng, 2, 0.1, 0.5))]:
        yield qseries.gauss_double_sum_check(z1, z2, ctx)


def _jacobi(run):
    b = cmath.exp(1j * _default(run.cfg.b_theta, DEFAULT_THETA))
    ctx = run.context(run.entry.fixed_q)
    for x in (0.0, 0.3, 0.7):
        yield qseries.jacobi_transform_check(x, b, ctx)


# -------------------------------------------------------------- orthopoly

def _route_spread(vals):
    """The largest distance between three routes' values, relative to the second."""
    return worst_residual((abs(vals[0] - vals[1]), abs(vals[1] - vals[2]),
                           abs(vals[0] - vals[2]))) / max(abs(vals[1]), 1e-300)


def _poly_methods(run):
    ctx = run.ctx
    for n in (5, 12, 20):
        devs = [_route_spread([orthopoly.poly_P(n, xi, ctx, m) for m in orthopoly.PolyEvalMethod])
                for xi in sample_annulus(run.rng, 5, 0.5, 2.0)]
        yield {"n": n, "q": ctx.q, "n_points": 5}, worst_residual(devs)


def _poly_difference(run):
    ctx = run.ctx
    for n, xi in ((3, 1.3), (5, 0.7 + 0.2j), (0, 2.0), (8, 1.7)):
        yield orthopoly.poly_P_difference_checks(n, xi, ctx)


def _genfun(run):
    ctx = run.ctx
    # the double series converges for |z| < |q| (its denominator is
    # (z^2/q^2; q^2)_inf), so below |q| = 0.4 the z points shrink with q
    s = min(1.0, abs(ctx.q) / 0.4)
    zs = sample_annulus(run.rng, 2, 0.1 * s, 0.4 * s)
    us = sample_annulus(run.rng, 2, 0.7, 1.4)
    vs = sample_annulus(run.rng, 2, 0.7, 1.4)
    for z, u, v in [(0.3 * s, 1.2, 0.8)] + list(zip(zs, us, vs)):
        yield orthopoly.genfun_checks(z, u, v, ctx)


def _norm_sum(run):
    ctx = run.ctx
    for m, mp in ((0, 0), (1, 3), (2, 2), (4, 1)):
        yield orthopoly.poly_norm_sum_check(m, mp, ctx)


def _chi_special(run):
    ctx = run.ctx
    q = ctx.q
    residuals = []
    for m in range(11):
        lhs = orthopoly.chi(orthopoly.ChiParams(1.1, q ** (-2 * m), q), ctx)
        rhs = 1.1 ** m * orthopoly.poly_P(m, 1.1, ctx)
        residuals.append(relative_residual(lhs, rhs))
    yield {"u": 1.1, "q": q, "m_max": 10}, worst_residual(residuals)


def _chi_ratio(run):
    q = run.entry.fixed_q
    ctx = run.context(q)
    m, z = 2, 0.3
    num = orthopoly.chi(orthopoly.ChiParams(q ** -m, z, q), ctx)
    den = orthopoly.chi(orthopoly.ChiParams(q ** m, z, q), ctx)
    yield {"m": m, "z": z, "q": q}, relative_residual(num / den, z ** m)


def _chi_equations(run):
    ctx = run.ctx
    for u, z in ((1.1, 0.3), (0.8j, 0.2)):
        yield orthopoly.chi_equation_checks(orthopoly.ChiParams(u, z, ctx.q), ctx)
    worst = worst_residual(
        orthopoly.chi_equation_checks(orthopoly.ChiParams(u, z, ctx.q), ctx)
        .params["res_wronskian"]
        for u in (0.7, 0.9, 1.2, 1.5, 0.6 + 0.3j)
        for z in (0.1, 0.25, 0.4, 0.15 + 0.1j, 0.55))
    yield {"q": ctx.q, "grid": "5x5"}, worst, "orthopoly.chi_wronskian.C_6"


# ------------------------------------------------------------------ fock

def _completeness(run):
    ctx = run.ctx
    a_max = _default(run.cfg.a_max, 14)
    m_max = _default(run.cfg.m_window, 50)
    vm = fock.vform_matrices(fock.FockRepParams(omega=1.1, lam=0.9, mu=1.2),
                             a_max, m_max, ctx)
    meas = np.array([fock.s_measure(int(m), ctx) for m in vm.m_values])
    # the largest term of the m-sums, against identity entries of size 1
    peak = np.max(np.abs(vm.chi)[:, :, None] * np.abs(meas)[:, None]
                  * np.abs(vm.chi_bar)[None]) / abs(vm.n_f)
    refuse_cancellation(peak, 1.0, run.tol, "the m-sum")
    ident = np.einsum("am,m,mb->ab", vm.chi, meas, vm.chi_bar) / vm.n_f
    res_m = float(np.max(np.abs(ident - np.eye(a_max + 1))))
    # dressed version exercising the gauge prefactors
    ket = np.array([[vm.ket(a, j) for j in range(len(vm.m_values))]
                    for a in range(a_max + 1)])
    bra = np.array([[vm.bra(j, a) for a in range(a_max + 1)]
                    for j in range(len(vm.m_values))])
    res_d = float(np.max(np.abs(np.einsum("am,m,mb->ab", ket, meas, bra)
                                - np.eye(a_max + 1))))
    # a-direction: sum_a chibar[m, a] chi[a, m'], the overlap sum at x = 1
    # times q^{(m(m+1) + m'(m'+1))/2}, for m' = m and m' = m - 1
    def a_sums():
        for m in range(5):
            xi = ctx.q_pow_half(2 * m + 1)
            target = (-1) ** m * vm.n_f / qseries.bracket(xi)
            total = ctx.q_pow_half(2 * m * (m + 1)) * orthopoly.overlap_sum(xi, xi, 1, ctx)
            yield relative_residual(total, target)
            if m >= 1:
                off = (ctx.q_pow_half(2 * m * m)
                       * orthopoly.overlap_sum(xi, ctx.q_pow_half(2 * m - 1), 1, ctx))
                yield abs(off) / abs(target)

    res_a = worst_residual(a_sums())
    yield ({"a_max": a_max, "m_max": m_max, "q": ctx.q, "res_m_sum": res_m,
            "res_dressed": res_d, "res_a_sum": res_a}, worst_residual((res_m, res_d, res_a)))


def _antisym(run):
    ctx = run.ctx
    m_w = _default(run.cfg.m_window, 40)
    vm = fock.vform_matrices(fock.FockRepParams(), _default(run.cfg.a_max, 10),
                             m_w - 1, ctx, m_min=-m_w)
    br = np.array([qseries.bracket(ctx.q_pow_half(2 * int(m) + 1))
                   for m in vm.m_values])
    sums = np.einsum("am,m,mb->ab", vm.chi, br, vm.chi_bar)
    scale = float(np.max(np.abs(vm.chi))) ** 2 * float(np.max(np.abs(br)))
    yield ({"window": f"[-{m_w},{m_w - 1}]", "q": ctx.q},
           float(np.max(np.abs(sums))) / scale)


def _spectral(run):
    q = complex(run.q)
    if q.imag != 0:
        raise DomainError("the spectral experiment runs at real q in (0, 1)")
    q = q.real
    for reg in (fock.Regularisation.I, fock.Regularisation.II):
        errs = fock.spectral_experiment(q, [8, 16, 32], reg).branch_errors[32]
        yield ({"reg": reg.value, "q": q, "N": 32, "errors": [float(e) for e in errs]},
               float(np.max(errs)))
    rep3 = fock.spectral_experiment(q, [31, 32], fock.Regularisation.III)
    gap = rep3.subsequence_gap
    yield ({"q": q, "gap": gap, "odd": [float(v) for v in rep3.odd_branches],
            "even": [float(v) for v in rep3.even_branches]},
           0.1 / gap, "fock.spectral_iii.4_8", 1.0)


def _brace_agreement(run):
    box = list(combinations_with_replacement(range(7), 3))
    for q in run.q if isinstance(run.q, tuple) else (run.q,):
        ctx = run.context(q, min(run.tol, 1e-9))
        devs = [_route_spread([spin, fock.brace(*t, ctx, fock.BraceMethod.CLOSED_FORM),
                               fock.brace(*t, ctx, fock.BraceMethod.RECURSION)])
                for t, spin in zip(box, fock.brace_spin_sums(box, ctx))]
        # np.argmax picks the first worst triple, or the first NaN
        yield ({"q": q, "box": "[0,6]^3", "worst_at": box[int(np.argmax(devs))]},
               worst_residual(devs))


def _cg(run):
    ctx = run.ctx
    q = ctx.q
    p1 = fock.FockRepParams(omega=1.2, lam=0.9)
    p2 = fock.FockRepParams(omega=0.8, lam=1.1)
    omega = 1.05
    a_dim = 12
    c0 = fock.cg_table(a_dim, 0, p1, p2, omega, ctx)
    vacuum = (abs(p1.lam * np.sqrt(1 - q ** (2 * a + 2)) * p2.lam
                  * np.sqrt(1 - q ** (2 * b + 2)) * c0[a + 1, b + 1]
                  - p1.omega / p2.omega * ctx.q_pow_half(2 * (a + b + 1)) * c0[a, b])
              for a in range(a_dim - 1) for b in range(a_dim - 1))
    yield {"q": q, "window": a_dim}, worst_residual(vacuum), "fock.cg_vacuum.4_36_4_37"

    def raising():
        prev = c0
        for c in range(6):
            nxt = fock.cg_table(a_dim, c + 1, p1, p2, omega, ctx)
            for a in range(1, a_dim - 1):
                for b in range(1, a_dim - 1):
                    lhs = (np.sqrt(1 - q ** (2 * a)) * np.sqrt(1 - q ** (2 * b))
                           / (p1.lam * p2.lam) * prev[a - 1, b - 1]
                           - p2.omega / p1.omega * ctx.q_pow_half(2 * (a + b + 1)) * prev[a, b])
                    yield abs(lhs - np.sqrt(1 - q ** (2 * c + 2)) * nxt[a, b])
            prev = nxt

    yield {"q": q, "c_max": 6}, worst_residual(raising()), "fock.cg_raising.4_38"


def _weight_closed_vs_sum(run):
    ctx = run.ctx
    # the occupation sum converges for |x| > |q|, so above |q| = 0.4 the
    # annulus [0.5, 0.9] shrinks towards |x| = 1 with 1 - |q|; every point
    # then keeps a gap of at least (1 - |q|) / 6 from |x| = |q|
    s = min(1.0, (1 - abs(ctx.q)) / 0.6)
    for x in [0.5, 0.8 * cmath.exp(0.3j)] + list(sample_annulus(run.rng, 1, 0.5, 0.9)):
        if s < 1:
            x = x / abs(x) * (1 - (1 - abs(x)) * s)
        tab = fock.weight_table(x, range(7), range(7), ctx)
        sums, peaks = fock.weight_table_from_overlaps(x, range(7), range(7), ctx)
        refuse_cancellation(peaks, sums, run.tol, "the occupation sum")
        worst = worst_residual(relative_residual(tab[m, mp], sums[m, mp])
                               for m in range(7) for mp in range(7))
        yield {"x": x, "q": ctx.q, "spins": "[0,6]^2"}, worst


def _weight_properties(run):
    ctx = run.ctx
    q = ctx.q
    for x in [0.7] + list(sample_annulus(run.rng, 2, 0.5, 0.9)):
        # spins -4..3: V(m, m') is tab[m + 4, m' + 4] and V(-1 - m, m') is tab[3 - m, m' + 4]
        tab = fock.weight_table(x, range(-4, 4), range(-4, 4), ctx)
        worst = worst_residual(relative_residual(tab[m + 4, mp + 4], other)
                               for m in range(4) for mp in range(4)
                               for other in (tab[mp + 4, m + 4], tab[3 - m, mp + 4]))
        yield {"x": x, "q": q}, worst, "fock.weight_symmetry.4_44"
    tab = fock.weight_table(1.0, range(5), range(5), ctx)

    def norm_residual(m, mp):
        br = qseries.bracket(ctx.q_pow_half(2 * m + 1))
        expect = (-1) ** m / br if m == mp else 0.0
        return abs(tab[m, mp] - expect) * abs(br)

    worst = worst_residual(norm_residual(m, mp) for m in range(5) for mp in range(5))
    yield {"q": q}, worst, "fock.weight_norm.4_45"
    for x, y in [(0.8, 0.7)] + [_transitivity_pair(run.rng, q) for _ in range(2)]:
        yield (*fock.transitivity_check_fock(x, y, 0, 0, ctx), "fock.weight_transitivity.4_46")
    for z in [0.6] + list(sample_annulus(run.rng, 2, 0.4, 0.9)):
        rhs = (fock.fock_norm_const(ctx) ** -2
               * qseries.qpoch_inf_multi((z, q * q / z), q, ctx)
               / qseries.qpoch_inf_multi((-z / q, -q / z), q, ctx))
        tab = (fock.weight_table(z, range(4), range(4), ctx)
               * fock.weight_table(q * q / z, range(4), range(4), ctx))
        worst = worst_residual(relative_residual(tab[m, mp], rhs)
                               for m, mp in ((0, 0), (1, 2), (3, 1)))
        yield {"z": z, "q": q}, worst, "fock.weight_product.4_47"


def _transitivity_pair(rng, q):
    """x, y from the annulus [0.6, 0.95] with |xy| >= |q| / 0.95: the
    transitivity sum decays like (|q| / |xy|)^k, so pairs with |xy| near
    |q| would walk hundreds of sites; they are drawn again."""
    for _ in range(100):
        x, y = sample_annulus(rng, 2, 0.6, 0.95)
        if abs(q) <= 0.95 * abs(x * y):
            return x, y
    raise DomainError("no transitivity pair with |xy| >= |q|/0.95 in 100 draws")


def _star_triangle_fock(run):
    ctx = run.context(run.q, min(run.tol, 1e-8))
    box = list(product(range(3), repeat=3))
    # the first point sits on the boundary xy = -q at any q (0.6 at the default)
    for x, y in ((0.5, -run.q / 0.5), (0.45, 0.7)):
        r = fock.star_triangle_fock(x, y, box, ctx)
        yield {"x": x, "y": y, "q": run.q, "spins": "[0,2]^3"}, r.residual
    # generic complex point confirming validity off the physical regime
    ctx_c = run.context(run.entry.fixed_q, min(run.tol, 1e-8))
    params, residual = fock.star_triangle_fock(0.6, 0.55 + 0.1j, [(1, 0, 2)], ctx_c)
    params["spins"] = params.pop("worst_at")  # a single triple: report it as the spins
    yield params, residual


def _partition_fock(run):
    ctx = run.ctx
    q = ctx.q
    res_fixed = abs(fock.partition_series_fock(q, ctx))
    x = 0.7
    res_anti = abs(fock.partition_series_fock(x, ctx)
                   + fock.partition_series_fock(q * q / x, ctx))
    kk = (fock.kappa_fock(x, ctx) * fock.kappa_fock(q * q / x, ctx)
          / fock.fock_norm_const(ctx) ** 2)
    lhs = (fock.weight_V_fock(x, 2, 1, ctx) * fock.weight_V_fock(q * q / x, 2, 1, ctx))
    res_cons = relative_residual(kk, lhs)
    yield ({"x": x, "q": q, "res_selfdual": res_fixed, "res_antisym": res_anti,
            "res_product": res_cons}, worst_residual((res_fixed, res_anti, res_cons)))


def _rll(run):
    yield fock.rll_check(1.3, 0.7, 8, run.ctx)
    yield fock.rll_check(1.3, 0.7, 8, run.ctx, sigma_x=True)


def _box(run):
    ctx = run.context(run.q, min(run.tol, 1e-8))
    yield fock.box_intertwining_check(1.1, 0.8, 0.9, 1.3, 20, ctx)


# ---------------------------------------------------------------- vgamma

def _centre_block(m_window, half):
    """The central 2 half + 1 sites of a table over the window [-m_window, m_window]."""
    if m_window < half:
        raise DomainError(f"the window {m_window} is narrower than the "
                          f"{2 * half + 1}-site centre block")
    return slice(m_window - half, m_window + half + 1)


def _vg_completeness(run):
    ctx = run.ctx
    gc = run.gamma_ctx()
    ctr = _centre_block(gc.m_window, 25)
    a_max = _default(run.cfg.a_max, 40)
    dec = vgamma.vgamma_decomposition(gc, 1.1, a_max, ctx)
    br = np.array([qseries.bracket(gc.gamma * ctx.q ** int(m))
                   for m in dec.m_values])

    def sector_residual(e, ep):
        g = np.einsum("am,m,mb->ab", dec.ket[e], br, dec.bra[ep])
        tgt = np.eye(a_max + 1) if e == ep else 0.0
        return float(np.max(np.abs((g - tgt)[:30, :30])))

    res_a = worst_residual(sector_residual(e, ep) for e in range(2) for ep in range(2))
    g = sum(np.einsum("ma,an->mn", dec.bra[e], dec.ket[e]) for e in range(2))
    tgt = np.diag(1.0 / br)
    res_m = float(np.max(np.abs((g - tgt)[ctr, ctr]))
                  / np.max(np.abs(tgt[ctr, ctr])))
    yield ({"gamma": gc.gamma, "q": ctx.q, "a_max": a_max, "res_sectors": res_a,
            "res_lattice": res_m}, worst_residual((res_a, res_m)))


def _vg_weight_closed_vs_sum(run):
    ctx = run.ctx
    gc = run.gamma_ctx()
    worst = worst_residual(
        relative_residual(vgamma.weight_Veps(*point, gc, ctx),
                          vgamma.weight_Veps_from_overlaps(*point, gc, ctx))
        for point in ((0.7, 1, 0, 0), (0.8, -1, 2, -3), (0.6 + 0.1j, 1, -1, 4)))
    yield {"gamma": gc.gamma, "q": ctx.q}, worst


def _vg_projectors(run):
    ctx = run.ctx
    gc = run.gamma_ctx()
    m_w = gc.m_window
    if m_w < 20:  # the centre block keeps 20 table sites on each side
        raise DomainError(f"the projector identities need a window of at least 20 sites, got {m_w}")
    ctr = _centre_block(m_w, min(20, m_w - 20))
    mv = np.arange(-m_w, m_w + 1)
    tab_p = vgamma.weight_Veps_table(1.0, 1, mv, mv, gc, ctx)
    tab_m = vgamma.weight_Veps_table(1.0, -1, mv, mv, gc, ctx)
    br = np.array([qseries.bracket(gc.gamma * ctx.q ** int(m)) for m in mv])
    proj_p = br[:, None] * tab_p
    proj_m = br[:, None] * tab_m

    def centre(left, right):
        # (left @ right)[ctr, ctr] without the rest; einsum makes no BLAS
        # call, and OpenBLAS runs a complex product this size on threads
        return np.einsum("ij,jk->ik", left[ctr], right[:, ctr])

    p_ctr, m_ctr = proj_p[ctr, ctr], proj_m[ctr, ctr]
    res = [float(np.max(np.abs(d)))
           for d in (p_ctr + m_ctr - np.eye(len(p_ctr)), centre(proj_p, proj_m),
                     centre(proj_p, proj_p) - p_ctr, centre(proj_m, proj_m) - m_ctr)]
    # orthogonality of the eps-sectors inside the summation formula, summed
    # over the whole lattice on tables grown as the walk needs them
    x, y = 0.7, 0.8
    fock.refuse_undecayed_sum(x, y, ctx)

    def cross(bs):
        row = vgamma.weight_Veps_table(x, 1, [0], bs, gc, ctx)[0].tolist()
        col = vgamma.weight_Veps_table(y, -1, bs, [1], gc, ctx)[:, 0].tolist()
        return [r * qseries.bracket(gc.gamma * ctx.q ** b) * c for b, r, c in zip(bs, row, col)]

    res_cross = abs(vgamma.windowed_bilateral_sum(qseries.sites_in_blocks(cross), ctx))
    scale = abs(vgamma.weight_Veps(x * y, 1, 0, 1, gc, ctx))
    yield ({"gamma": gc.gamma, "q": ctx.q, "window": m_w,
            "res_cross_sector": res_cross / scale}, worst_residual(res + [res_cross / scale]))


def _vg_parity(run):
    ctx = run.ctx
    gc = run.gamma_ctx()
    ms, mps = (-3, -2, 0, 1, 2), (-2, 1, 3, 4)
    tab = (vgamma.weight_Veps_table(0.7, 1, ms, mps, gc, ctx)
           + vgamma.weight_Veps_table(0.7, -1, ms, mps, gc, ctx))
    worst = worst_residual(abs(tab[i, j]) for i, m in enumerate(ms)
                           for j, mp in enumerate(mps) if (m + mp) % 2)
    yield {"gamma": gc.gamma, "q": ctx.q}, worst


def _vg_brace(run):
    ctx = run.ctx
    gammas = [0.6, 0.9 * cmath.exp(0.2j), run.gamma_ctx().gamma, ctx.q_pow_half(1)]
    yield vgamma.brace_gamma_check(2, 1, 1, gammas, ctx)
    box = list(combinations_with_replacement(range(5), 3))
    worst = worst_residual(r for r, _ in vgamma.brace_gamma_residuals(box, gammas[:2], ctx))
    yield ({"box": "[0,4]^3", "q": ctx.q, "gammas": [complex(g) for g in gammas[:2]]},
           worst)


def _vg_weight_symmetry(run):
    ctx = run.ctx
    gc = run.gamma_ctx()
    q = ctx.q

    def residuals():
        for a in range(-5, 6):
            for b in range(-5, 6):
                v = vgamma.km_V(0.7, a, b, gc, ctx)
                yield abs(v - vgamma.km_V(0.7, b, a, gc, ctx))
                yield abs(v * vgamma.km_V(q * q / 0.7, a, b, gc, ctx) - 1)
                yield abs(vgamma.km_V(q, a, b, gc, ctx) - 1)
                expect = 1 / vgamma.km_S(a, gc, ctx) if a == b else 0.0
                yield abs(vgamma.km_V(1.0, a, b, gc, ctx) - expect)

    yield {"gamma": gc.gamma, "q": q, "box": "[-5,5]^2"}, worst_residual(residuals())


def _vg_summation(run):
    ctx = run.ctx
    [gc] = run.selected((0.0,))
    for a, c in ((0, 0), (2, -1)):
        yield (*vgamma.km_summation_check(0.7, 0.8, a, c, gc, ctx), "vgamma.summation.5_25")
    for b in (1, 3):
        yield (*vgamma.km_inversion_check(0.7, 1, b, gc, ctx), "vgamma.inversion.5_26")


def _vg_star_triangle(run):
    if run.cfg.gamma is not None and run.cfg.gamma_nu is None:
        # a forced generic gamma turns this identity into its own negative
        # control: the relation is expected to fail off the selected lattice
        run.negative = True
        yield from _vg_star_triangle_generic(run)
        return
    ctx = run.ctx
    for gc in run.selected():
        for spins in ((0, 0, 0), (1, -1, 2)):
            yield vgamma.star_triangle_km(0.7, 0.6, *spins, gc, ctx)


def _vg_star_triangle_generic(run):
    ctx = run.ctx
    lo, hi = NEGATIVE_CONTROL_Q_BAND
    if not lo <= abs(ctx.q) <= hi:
        raise DomainError(f"the generic-gamma negative control discriminates only for "
                          f"{lo:g} <= |q| <= {hi:g}, got |q| = {abs(ctx.q):.6g}")
    gc = run.gamma_ctx()
    for spins in ((1, -1, 2), (2, 1, -1)):
        yield vgamma.star_triangle_km(0.7, 0.6, *spins, gc, ctx)


def _vg_partition(run):
    ctx = run.ctx
    for gc in run.selected():
        for x in (0.6, 0.75):
            yield vgamma.km_partition_checks(x, gc, ctx)


def _vg_kappa_shift(run):
    ctx = run.ctx
    q = ctx.q
    q2 = q * q
    gci, gch = run.selected(SELECTED_NU)
    g2 = gci.gamma ** 2

    def residual(x):
        lhs = vgamma.km_kappa(x, gch, ctx) / vgamma.km_kappa(x, gci, ctx)
        rhs = (qseries.qpoch_inf_multi((q2 * g2 * x, q2 / (g2 * x)), q2, ctx)
               / qseries.qpoch_inf_multi((q * x / g2, q ** 3 * g2 / x), q2, ctx))
        return relative_residual(lhs, rhs)

    yield {"q": q}, worst_residual(residual(x) for x in (0.6, 0.85))


# --------------------------------------------------------------- modular

def _dilog(run):
    mc = run.mc

    def residuals():
        for x in (0.2, -0.4, 0.7, 0.05, 1.1):
            l1 = modular.faddeev_phi(x - 0.5j * mc.b, mc) / modular.faddeev_phi(x + 0.5j * mc.b, mc)
            yield relative_residual(l1, 1 + cmath.exp(2 * cmath.pi * x * mc.b))
            l2 = modular.faddeev_phi(x - 0.5j / mc.b, mc) / modular.faddeev_phi(x + 0.5j / mc.b, mc)
            yield relative_residual(l2, 1 + cmath.exp(2 * cmath.pi * x / mc.b))

    yield {"theta": mc.theta, "grid": 5}, worst_residual(residuals())


def _psi_real(run):
    mc = run.mc
    residuals = []
    for (s, x) in ((0.3, 0.4), (0.1, 0.9), (-0.5, 0.25), (0.7, -0.6)):
        p = modular.psi(s, x, mc)
        residuals.append(abs(p.imag) / abs(p))
    yield {"theta": mc.theta}, worst_residual(residuals)


def _psi_symmetry(run):
    mc = run.mc
    worst = worst_residual(relative_residual(modular.psi(s, x, mc), modular.psi(s, -x, mc))
                           for s, x in ((0.3, 0.4), (0.15, 0.8)))
    yield {"theta": mc.theta}, worst


def _psi_eigen(run):
    for s, x in ((0.3, 0.4), (-0.2, 0.7)):
        yield modular.psi_eigen_check(s, x, run.mc)


def _weight_integral(run):
    mc = run.mc
    eta = mc.eta
    for (mu, x, y) in ((0.15j + eta / 3, 0.3, 0.5), (0.1j + eta / 4, 0.2, 0.4),
                       (0.25j + eta / 3, 0.35, 0.15)):
        closed = modular.weight_V_modular(mu, x, y, mc)
        integ = modular.weight_V_modular_integral(mu, x, y, mc)
        yield ({"mu": mu, "x": x, "y": y, "theta": mc.theta},
               relative_residual(closed, integ))


def _weight_symmetry(run):
    mc = run.mc
    mu = 0.15j + mc.eta / 3
    v = modular.weight_V_modular(mu, 0.3, 0.5, mc)
    worst = worst_residual((
        relative_residual(v, modular.weight_V_modular(mu, 0.5, 0.3, mc)),
        relative_residual(v, modular.weight_V_modular(mu, -0.3, 0.5, mc)),
        relative_residual(v, modular.weight_V_modular(mu, 0.3, -0.5, mc)),
    ))
    yield {"mu": mu, "theta": mc.theta}, worst


def _summation_modular(run):
    for mu, mup, x, z in ((0.2j, 0.25j, 0.3, 0.5), (0.15j, 0.2j, 0.2, 0.4),
                          (0.3j, 0.15j, 0.45, 0.1)):
        yield modular.summation_check_modular(mu, mup, x, z, run.mc)


REGISTRY: list[IdentityEntry] = [
    IdentityEntry("qseries.theta.A_4", _theta),
    IdentityEntry("qseries.theta_const.A_6", _theta_const),
    IdentityEntry("qseries.pentagonal.A_7", _pentagonal),
    IdentityEntry("qseries.gauss_double.A_8", _gauss_double),
    IdentityEntry("qseries.gauss.A_9", _gauss),
    IdentityEntry("qseries.jacobi.A_5", _jacobi, q=None, fixed_q=DEFAULT_Q),
    IdentityEntry("orthopoly.methods.B_1_B_2_B_3", _poly_methods),
    IdentityEntry("orthopoly.difference.B_4_B_5", _poly_difference),
    IdentityEntry("orthopoly.genfun.B_6_B_7", _genfun),
    IdentityEntry("orthopoly.norm_sum.B_8", _norm_sum),
    IdentityEntry("orthopoly.chi_special.C_2", _chi_special),
    IdentityEntry("orthopoly.chi_equations.C_3_C_4_C_5_C_6", _chi_equations, q=0.45),
    IdentityEntry("orthopoly.chi_ratio.6_15", _chi_ratio, q=None, fixed_q=0.5),
    IdentityEntry("fock.completeness.4_15_4_16", _completeness, tol=1e-8),
    IdentityEntry("fock.antisym.4_17", _antisym, tol=1e-8),
    IdentityEntry("fock.spectral.4_9_4_10", _spectral, tol=1e-6),
    IdentityEntry("fock.brace_agreement.4_27_4_28_4_39", _brace_agreement, tol=1e-10,
                  q=(0.3, 0.5)),
    IdentityEntry("fock.cg.4_36_4_37_4_38", _cg),
    IdentityEntry("fock.weight_closed_vs_sum.4_42_4_43", _weight_closed_vs_sum, tol=1e-8),
    IdentityEntry("fock.weight_properties.4_44_4_45_4_46_4_47", _weight_properties,
                  tol=1e-8),
    IdentityEntry("fock.star_triangle.4_49", _star_triangle_fock, tol=1e-7, q=-0.3,
                  fixed_q=0.35 * cmath.exp(0.2j)),
    IdentityEntry("fock.partition.4_52_4_53", _partition_fock),
    IdentityEntry("fock.rll.2_15", _rll, tol=1e-12),
    IdentityEntry("fock.box_intertwine.4_54", _box, tol=1e-5, q=0.35),
    IdentityEntry("vgamma.completeness.5_8", _vg_completeness, tol=1e-8),
    IdentityEntry("vgamma.weight_closed_vs_sum.5_10_5_11", _vg_weight_closed_vs_sum,
                  tol=1e-8),
    IdentityEntry("vgamma.projectors.5_12_5_13", _vg_projectors, tol=1e-8),
    IdentityEntry("vgamma.brace_gamma.5_14_5_15", _vg_brace, tol=1e-8),
    IdentityEntry("vgamma.parity.5_19", _vg_parity, tol=1e-8),
    IdentityEntry("vgamma.weight_symmetry.5_24", _vg_weight_symmetry, tol=1e-10),
    IdentityEntry("vgamma.summation.5_25_5_26", _vg_summation, tol=1e-8),
    IdentityEntry("vgamma.star_triangle.5_27", _vg_star_triangle, tol=1e-7),
    IdentityEntry("vgamma.star_triangle_generic.5_27", _vg_star_triangle_generic,
                  tol=1e-7, gamma=0.8 * cmath.exp(0.3j), negative=True),
    IdentityEntry("vgamma.kappa_shift.5_28", _vg_kappa_shift),
    IdentityEntry("vgamma.partition.5_29_5_30_5_31", _vg_partition),
    IdentityEntry("modular.dilog_funceq.6_17", _dilog, q=None),
    IdentityEntry("modular.psi_real.6_11", _psi_real, tol=1e-8, q=None),
    IdentityEntry("modular.psi_symmetry.6_11", _psi_symmetry, tol=1e-10, q=None),
    IdentityEntry("modular.psi_eigen.6_14", _psi_eigen, tol=1e-7, q=None),
    IdentityEntry("modular.weight_integral.6_22", _weight_integral, q=None,
                  tol=modular.ModularContext.tol_quad),
    IdentityEntry("modular.weight_symmetry.6_26_6_28", _weight_symmetry, tol=1e-10,
                  q=None),
    IdentityEntry("modular.summation.6_27", _summation_modular, q=None,
                  tol=modular.ModularContext.tol_quad),
]


def select_entries(pattern: str) -> list[IdentityEntry]:
    return [e for e in REGISTRY if fnmatch.fnmatch(e.identity_id, pattern)]


def _report(step, run: Run, started: float) -> IdentityReport:
    """One yielded step as a report, timed from ``started``.

    A step is ``(params, residual)``, then optionally the id and tolerance
    it is reported under; the entry's stand in for those left out.  The
    verdict is decided here, against that tolerance.
    """
    params, residual, *badge = step
    defaults = (run.entry.identity_id, run.tol)
    ident, tol = (*badge, *defaults[len(badge):])
    return make_report(ident, params, residual, tol, started,
                       negative_control=run.negative)


def run_entry(entry: IdentityEntry, cfg: RunConfig) -> list[IdentityReport]:
    """Run one entry's check; an exception replaces all its reports with one.

    A library error gives a SKIPPED report; any other exception is a defect
    and gives an ERROR report naming its class and the file and function
    that raised it (not the line, so an edit elsewhere in the file leaves
    the report unchanged), and the rest of the run still completes.
    """
    run = Run(entry, cfg)
    reports = []
    try:
        started = time.perf_counter()
        for step in entry.check(run):
            reports.append(_report(step, run, started))
            started = time.perf_counter()
    except QkmError as exc:
        return [skipped_report(entry.identity_id, run.tol, f"{type(exc).__name__}: {exc}")]
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        reason = (f"{type(exc).__name__}: {exc} (at {os.path.basename(where.filename)}"
                  f" in {where.name})")
        return [skipped_report(entry.identity_id, run.tol, reason, verdict=ERROR)]
    return reports


def run_suite(cfg: RunConfig) -> list[IdentityReport]:
    """Run every identity matching the filter; reports sorted for determinism."""
    reports: list[IdentityReport] = []
    for entry in select_entries(cfg.filter):
        reports.extend(run_entry(entry, cfg))
    reports.sort(key=lambda r: (r.identity_id, sorted(
        (k, str(v)) for k, v in r.params.items())))
    return reports
