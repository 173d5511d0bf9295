"""Identity registry: every machine-checked identity, with documented defaults.

Each entry runs a family of checks at fixed or seeded parameter points and
returns one report per point.  Identity ids carry a short catalogue tag so
runs can be filtered with globs like ``fock.*`` or ``*.star_triangle.*``.
Random points are drawn from documented annuli via the run seed, so two
runs with the same configuration produce identical reports.
"""

from __future__ import annotations

import cmath
import fnmatch
import math
import time
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

import numpy as np

from . import fock, modular, orthopoly, qseries, vgamma
from .context import QContext
from .errors import DomainError, QkmError, TailTooFat
from .report import IdentityReport, make_report, relative_residual, skipped_report

DEFAULT_Q = 0.4
DEFAULT_THETA = math.pi / 5


@dataclass(frozen=True)
class RunConfig:
    """User-facing knobs for a verification run.

    ``q`` / ``gamma`` / ``gamma_nu`` / ``b_theta`` override each identity's
    documented default point; ``tol`` overrides the per-identity tolerance;
    ``m_window`` and ``a_max`` override truncation windows.  All identities
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


@dataclass(frozen=True)
class IdentityEntry:
    identity_id: str
    runner: callable


def _default(value, default):
    """An override unless it is unset; falsy overrides are kept."""
    return default if value is None else value


def _ctx(cfg: RunConfig, default_q=DEFAULT_Q, tol=1e-9) -> QContext:
    q = cfg.q if cfg.q is not None else default_q
    return QContext(q=q, tol_identity=_tol(cfg, tol))


def _tol(cfg: RunConfig, default: float) -> float:
    return cfg.tol if cfg.tol is not None else default


def _rng(cfg: RunConfig) -> np.random.Generator:
    return np.random.default_rng(cfg.seed)


def sample_annulus(rng, n: int, r_min: float, r_max: float) -> np.ndarray:
    """n complex points, modulus uniform in [r_min, r_max], phase uniform."""
    r = rng.uniform(r_min, r_max, n)
    phi = rng.uniform(0.0, 2 * math.pi, n)
    return r * np.exp(1j * phi)


def _rebrand(report: IdentityReport, identity_id: str, tol: float,
             negative=False) -> IdentityReport:
    """Re-badge a library report under a registry id and tolerance."""
    rebadged = make_report(identity_id, report.params, report.residual, tol,
                           negative_control=negative)
    return replace(rebadged, wall_time_ms=report.wall_time_ms)


# ---------------------------------------------------------------- qseries

def _run_theta(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-9)
    rng = _rng(cfg)
    out = []
    for kind in qseries.ThetaKind:
        started = time.perf_counter()
        us = sample_annulus(rng, 50, 0.5, 2.0)
        worst = 0.0
        for u in us:
            s, peak = qseries.theta_sum(kind, u, ctx)
            p = qseries.theta_product(kind, u, ctx)
            worst = max(worst, abs(s - p) / max(abs(s), abs(p), peak))
        out.append(make_report("qseries.theta.A_4",
                               {"kind": kind.value, "q": ctx.q, "n_points": 50},
                               worst, tol, started))
    return out


def _run_theta_const(cfg):
    ctx = _ctx(cfg)
    started = time.perf_counter()
    s, _ = qseries.theta_sum(qseries.ThetaKind.CAP_THETA4, 1.0, ctx)
    p = qseries.theta_product(qseries.ThetaKind.CAP_THETA4, 1.0, ctx)
    ratio = (qseries.qpoch_inf(ctx.q, ctx.q, ctx)
             / qseries.qpoch_inf(-ctx.q, ctx.q, ctx))
    worst = max(relative_residual(s, p), relative_residual(p, ratio),
                relative_residual(s, ratio))
    return [make_report("qseries.theta_const.A_6", {"q": ctx.q}, worst,
                        _tol(cfg, 1e-9), started)]


def _run_pentagonal(cfg):
    ctx = _ctx(cfg)
    return [_rebrand(qseries.pentagonal_check(ctx), "qseries.pentagonal.A_7",
                     _tol(cfg, 1e-9))]


def _run_gauss(cfg):
    ctx = _ctx(cfg)
    rng = _rng(cfg)
    tol = _tol(cfg, 1e-9)
    pts = [(0.2, 0.3)] + list(zip(sample_annulus(rng, 2, 0.1, 0.5),
                                  sample_annulus(rng, 2, 0.1, 0.5)))
    return [_rebrand(qseries.gauss_check(x, z, ctx), "qseries.gauss.A_9", tol)
            for x, z in pts]


def _run_gauss_double(cfg):
    ctx = _ctx(cfg)
    rng = _rng(cfg)
    tol = _tol(cfg, 1e-9)
    pts = [(0.3, 0.2), tuple(sample_annulus(rng, 2, 0.1, 0.5))]
    return [_rebrand(qseries.gauss_double_sum_check(z1, z2, ctx),
                     "qseries.gauss_double.A_8", tol) for z1, z2 in pts]


def _run_jacobi(cfg):
    theta = cfg.b_theta if cfg.b_theta is not None else DEFAULT_THETA
    b = cmath.exp(1j * theta)
    ctx = QContext(q=DEFAULT_Q, tol_identity=_tol(cfg, 1e-9))
    return [_rebrand(qseries.jacobi_transform_check(x, b, ctx),
                     "qseries.jacobi.A_5", _tol(cfg, 1e-9))
            for x in (0.0, 0.3, 0.7)]


# -------------------------------------------------------------- orthopoly

def _run_poly_methods(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-9)
    rng = _rng(cfg)
    out = []
    for n in (5, 12, 20):
        started = time.perf_counter()
        worst = 0.0
        for xi in sample_annulus(rng, 5, 0.5, 2.0):
            vals = [orthopoly.poly_P(n, xi, ctx, m) for m in orthopoly.PolyEvalMethod]
            scale = max(abs(vals[1]), 1e-300)
            worst = max(worst,
                        max(abs(vals[0] - vals[1]), abs(vals[1] - vals[2]),
                            abs(vals[0] - vals[2])) / scale)
        out.append(make_report("orthopoly.methods.B_1_B_2_B_3",
                               {"n": n, "q": ctx.q, "n_points": 5},
                               worst, tol, started))
    return out


def _run_poly_difference(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-9)
    pts = [(3, 1.3), (5, 0.7 + 0.2j), (0, 2.0), (8, 1.7)]
    return [_rebrand(orthopoly.poly_P_difference_checks(n, xi, ctx),
                     "orthopoly.difference.B_4_B_5", tol) for n, xi in pts]


def _run_genfun(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-9)
    rng = _rng(cfg)
    pts = [(0.3, 1.2, 0.8)]
    zs = sample_annulus(rng, 2, 0.1, 0.4)
    us = sample_annulus(rng, 2, 0.7, 1.4)
    vs = sample_annulus(rng, 2, 0.7, 1.4)
    pts += list(zip(zs, us, vs))
    return [_rebrand(orthopoly.genfun_checks(z, u, v, ctx),
                     "orthopoly.genfun.B_6_B_7", tol) for z, u, v in pts]


def _run_norm_sum(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-9)
    return [_rebrand(orthopoly.poly_norm_sum_check(m, mp, ctx),
                     "orthopoly.norm_sum.B_8", tol)
            for m, mp in ((0, 0), (1, 3), (2, 2), (4, 1))]


def _run_chi_special(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-9)
    started = time.perf_counter()
    q = ctx.q
    worst = 0.0
    for m in range(11):
        lhs = orthopoly.chi(orthopoly.ChiParams(1.1, q ** (-2 * m), q), ctx)
        rhs = 1.1 ** m * orthopoly.poly_P(m, 1.1, ctx)
        worst = max(worst, relative_residual(lhs, rhs))
    return [make_report("orthopoly.chi_special.C_2", {"u": 1.1, "q": q, "m_max": 10},
                        worst, tol, started)]


def _run_chi_ratio(cfg):
    ctx = QContext(q=0.5, tol_identity=_tol(cfg, 1e-9))
    started = time.perf_counter()
    m, z = 2, 0.3
    num = orthopoly.chi(orthopoly.ChiParams(0.5 ** -m, z, 0.5), ctx)
    den = orthopoly.chi(orthopoly.ChiParams(0.5 ** m, z, 0.5), ctx)
    res = relative_residual(num / den, z ** m)
    return [make_report("orthopoly.chi_ratio.6_15", {"m": m, "z": z, "q": 0.5},
                        res, _tol(cfg, 1e-9), started)]


def _run_chi_equations(cfg):
    ctx = _ctx(cfg, default_q=0.45)
    tol = _tol(cfg, 1e-9)
    out = [_rebrand(orthopoly.chi_equation_checks(
        orthopoly.ChiParams(u, z, ctx.q), ctx),
        "orthopoly.chi_equations.C_3_C_4_C_5_C_6", tol)
        for u, z in ((1.1, 0.3), (0.8j, 0.2))]
    started = time.perf_counter()
    worst = 0.0
    for u in (0.7, 0.9, 1.2, 1.5, 0.6 + 0.3j):
        for z in (0.1, 0.25, 0.4, 0.15 + 0.1j, 0.55):
            r = orthopoly.chi_equation_checks(orthopoly.ChiParams(u, z, ctx.q), ctx)
            worst = max(worst, r.params["res_wronskian"])
    out.append(make_report("orthopoly.chi_wronskian.C_6",
                           {"q": ctx.q, "grid": "5x5"}, worst, tol, started))
    return out


# ------------------------------------------------------------------ fock

def _run_completeness(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-8)
    a_max = _default(cfg.a_max, 14)
    m_max = _default(cfg.m_window, 50)
    started = time.perf_counter()
    vm = fock.vform_matrices(fock.FockRepParams(omega=1.1, lam=0.9, mu=1.2),
                             a_max, m_max, ctx)
    meas = np.array([fock.s_measure(int(m), ctx) for m in vm.m_values])
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
    res_a = 0.0
    for m in range(5):
        xi = ctx.q_pow_half(2 * m + 1)
        target = (-1) ** m * vm.n_f / qseries.bracket(xi)
        total = ctx.q_pow_half(2 * m * (m + 1)) * orthopoly.overlap_sum(xi, xi, 1, ctx)
        res_a = max(res_a, relative_residual(total, target))
        if m >= 1:
            off = (ctx.q_pow_half(2 * m * m)
                   * orthopoly.overlap_sum(xi, ctx.q_pow_half(2 * m - 1), 1, ctx))
            res_a = max(res_a, abs(off) / abs(target))
    res = max(res_m, res_d, res_a)
    return [make_report("fock.completeness.4_15_4_16",
                        {"a_max": a_max, "m_max": m_max, "q": ctx.q,
                         "res_m_sum": res_m, "res_dressed": res_d,
                         "res_a_sum": res_a},
                        res, tol, started)]


def _run_antisym(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-8)
    started = time.perf_counter()
    m_w = _default(cfg.m_window, 40)
    vm = fock.vform_matrices(fock.FockRepParams(), _default(cfg.a_max, 10),
                             m_w - 1, ctx, m_min=-m_w)
    br = np.array([qseries.bracket(ctx.q_pow_half(2 * int(m) + 1))
                   for m in vm.m_values])
    sums = np.einsum("am,m,mb->ab", vm.chi, br, vm.chi_bar)
    scale = float(np.max(np.abs(vm.chi))) ** 2 * float(np.max(np.abs(br)))
    res = float(np.max(np.abs(sums))) / scale
    return [make_report("fock.antisym.4_17",
                        {"window": f"[-{m_w},{m_w - 1}]", "q": ctx.q},
                        res, tol, started)]


def _run_spectral(cfg):
    q = cfg.q if cfg.q is not None else DEFAULT_Q
    tol = _tol(cfg, 1e-6)
    if isinstance(q, complex) and q.imag != 0:
        return [skipped_report("fock.spectral.4_9_4_10", {"q": q}, tol,
                               "spectral experiment needs real q in (0, 1)")]
    q = float(q.real) if isinstance(q, complex) else float(q)
    out = []
    for reg, ident in ((fock.Regularisation.I, "fock.spectral.4_9_4_10"),
                       (fock.Regularisation.II, "fock.spectral.4_9_4_10")):
        started = time.perf_counter()
        rep = fock.spectral_experiment(q, [8, 16, 32], reg)
        errs = rep.branch_errors[32]
        out.append(make_report(ident,
                               {"reg": reg.value, "q": q, "N": 32,
                                "errors": [float(e) for e in errs]},
                               float(np.max(errs)), tol, started))
    started = time.perf_counter()
    rep3 = fock.spectral_experiment(q, [31, 32], fock.Regularisation.III)
    gap = rep3.subsequence_gap
    out.append(make_report("fock.spectral_iii.4_8",
                           {"q": q, "gap": gap, "odd": [float(v) for v in rep3.odd_branches],
                            "even": [float(v) for v in rep3.even_branches]},
                           0.1 / gap, 1.0, started))
    return out


def _run_brace_agreement(cfg):
    tol = _tol(cfg, 1e-10)
    qs = (cfg.q,) if cfg.q is not None else (0.3, 0.5)
    out = []
    for q in qs:
        ctx = QContext(q=q, tol_identity=min(tol, 1e-9))
        started = time.perf_counter()
        worst = 0.0
        arg = None
        box = list(combinations_with_replacement(range(7), 3))
        for t, spin in zip(box, fock.brace_spin_sums(box, ctx)):
            vals = [spin, fock.brace(*t, ctx, fock.BraceMethod.CLOSED_FORM),
                    fock.brace(*t, ctx, fock.BraceMethod.RECURSION)]
            scale = max(abs(vals[1]), 1e-300)
            dev = max(abs(vals[0] - vals[1]), abs(vals[1] - vals[2]),
                      abs(vals[0] - vals[2])) / scale
            if dev > worst:
                worst, arg = dev, t
        out.append(make_report("fock.brace_agreement.4_27_4_28_4_39",
                               {"q": q, "box": "[0,6]^3", "worst_at": arg},
                               worst, tol, started))
    return out


def _run_cg(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-9)
    q = ctx.q
    p1 = fock.FockRepParams(omega=1.2, lam=0.9)
    p2 = fock.FockRepParams(omega=0.8, lam=1.1)
    omega = 1.05
    a_dim = 12
    started = time.perf_counter()
    c0 = np.array([[fock.cg_coefficient(fock.CGSide.KET, a, b, 0, p1, p2, omega, ctx)
                    for b in range(a_dim + 1)] for a in range(a_dim + 1)])
    worst_vac = 0.0
    for a in range(a_dim - 1):
        for b in range(a_dim - 1):
            ann = (p1.lam * np.sqrt(1 - q ** (2 * a + 2)) * p2.lam
                   * np.sqrt(1 - q ** (2 * b + 2)) * c0[a + 1, b + 1]
                   - p1.omega / p2.omega * ctx.q_pow_half(2 * (a + b + 1)) * c0[a, b])
            worst_vac = max(worst_vac, abs(ann))
    rep_vac = make_report("fock.cg_vacuum.4_36_4_37",
                          {"q": q, "window": a_dim}, worst_vac, tol, started)
    started = time.perf_counter()
    worst_raise = 0.0
    prev = c0
    for c in range(6):
        nxt = np.array([[fock.cg_coefficient(fock.CGSide.KET, a, b, c + 1, p1, p2,
                                             omega, ctx)
                         for b in range(a_dim + 1)] for a in range(a_dim + 1)])
        for a in range(1, a_dim - 1):
            for b in range(1, a_dim - 1):
                lhs = (np.sqrt(1 - q ** (2 * a)) * np.sqrt(1 - q ** (2 * b))
                       / (p1.lam * p2.lam) * prev[a - 1, b - 1]
                       - p2.omega / p1.omega * ctx.q_pow_half(2 * (a + b + 1)) * prev[a, b])
                rhs = np.sqrt(1 - q ** (2 * c + 2)) * nxt[a, b]
                worst_raise = max(worst_raise, abs(lhs - rhs))
        prev = nxt
    rep_raise = make_report("fock.cg_raising.4_38", {"q": q, "c_max": 6},
                            worst_raise, tol, started)
    return [rep_vac, rep_raise]


def _run_weight_closed_vs_sum(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-8)
    rng = _rng(cfg)
    out = []
    pts = [0.5, 0.8 * cmath.exp(0.3j)] + list(sample_annulus(rng, 1, 0.5, 0.9))
    for x in pts:
        started = time.perf_counter()
        worst = 0.0
        for m in range(7):
            for mp in range(7):
                a = fock.weight_V_fock(x, m, mp, ctx)
                b = fock.weight_V_fock_from_overlaps(x, m, mp, ctx)
                worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
        out.append(make_report("fock.weight_closed_vs_sum.4_42_4_43",
                               {"x": x, "q": ctx.q, "spins": "[0,6]^2"},
                               worst, tol, started))
    return out


def _run_weight_properties(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-8)
    rng = _rng(cfg)
    q = ctx.q
    out = []
    xs = [0.7] + list(sample_annulus(rng, 2, 0.5, 0.9))
    for x in xs:
        started = time.perf_counter()
        worst = 0.0
        for m in range(4):
            for mp in range(4):
                v = fock.weight_V_fock(x, m, mp, ctx)
                worst = max(worst, relative_residual(v, fock.weight_V_fock(x, mp, m, ctx)))
                worst = max(worst, relative_residual(v, fock.weight_V_fock(x, -1 - m, mp, ctx)))
        out.append(make_report("fock.weight_symmetry.4_44", {"x": x, "q": q},
                               worst, tol, started))
    started = time.perf_counter()
    worst = 0.0
    for m in range(5):
        for mp in range(5):
            v = fock.weight_V_fock(1.0, m, mp, ctx)
            expect = ((-1) ** m / qseries.bracket(ctx.q_pow_half(2 * m + 1))
                      if m == mp else 0.0)
            scale = abs(qseries.bracket(ctx.q_pow_half(2 * m + 1)))
            worst = max(worst, abs(v - expect) * scale)
    out.append(make_report("fock.weight_norm.4_45", {"q": q}, worst, tol, started))
    for x, y in [(0.8, 0.7)] + [_transitivity_pair(rng, q) for _ in range(2)]:
        out.append(_rebrand(_transitivity_autogrow(x, y, 0, 0, ctx),
                            "fock.weight_transitivity.4_46", tol))
    zs = [0.6] + list(sample_annulus(rng, 2, 0.4, 0.9))
    for z in zs:
        started = time.perf_counter()
        rhs = (fock.fock_norm_const(ctx) ** -2
               * qseries.qpoch_inf_multi((z, q * q / z), q, ctx)
               / qseries.qpoch_inf_multi((-z / q, -q / z), q, ctx))
        worst = 0.0
        for m, mp in ((0, 0), (1, 2), (3, 1)):
            lhs = (fock.weight_V_fock(z, m, mp, ctx)
                   * fock.weight_V_fock(q * q / z, m, mp, ctx))
            worst = max(worst, relative_residual(lhs, rhs))
        out.append(make_report("fock.weight_product.4_47", {"z": z, "q": q},
                               worst, tol, started))
    return out


def _transitivity_pair(rng, q):
    """x, y from the annulus [0.6, 0.95] with |xy| >= |q| / 0.95.

    The middle-spin sum of the transitivity relation decays like
    (|q| / |xy|)^k, so pairs with |xy| near |q| would not converge inside
    the autogrow window; they are drawn again.
    """
    for _ in range(100):
        x, y = sample_annulus(rng, 2, 0.6, 0.95)
        if abs(q) <= 0.95 * abs(x * y):
            return x, y
    raise DomainError("no transitivity pair with |xy| >= |q|/0.95 in 100 draws")


def _transitivity_autogrow(x, y, m, mpp, ctx):
    m_sum = 40
    while True:
        try:
            return fock.transitivity_check_fock(x, y, m, mpp, m_sum, ctx)
        except TailTooFat:
            m_sum *= 2
            if m_sum > 640:
                raise


def _run_star_triangle_fock(cfg):
    tol = _tol(cfg, 1e-7)
    q = cfg.q if cfg.q is not None else -0.3
    ctx = QContext(q=q, tol_identity=min(tol, 1e-8))
    out = []
    for x, y in ((0.5, 0.6), (0.45, 0.7)):
        started = time.perf_counter()
        worst = 0.0
        for ma in range(3):
            for mb in range(3):
                for mc in range(3):
                    r = fock.star_triangle_fock(x, y, ma, mb, mc, 45, ctx)
                    worst = max(worst, r.residual)
        out.append(make_report("fock.star_triangle.4_49",
                               {"x": x, "y": y, "q": q, "spins": "[0,2]^3"},
                               worst, tol, started))
    # generic complex point confirming validity off the physical regime
    ctx_c = QContext(q=0.35 * cmath.exp(0.2j), tol_identity=min(tol, 1e-8))
    out.append(_rebrand(fock.star_triangle_fock(0.6, 0.55 + 0.1j, 1, 0, 2, 60, ctx_c),
                        "fock.star_triangle.4_49", tol))
    return out


def _run_partition_fock(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-9)
    q = ctx.q
    started = time.perf_counter()
    res_fixed = abs(fock.partition_series_fock(q, ctx))
    x = 0.7
    res_anti = abs(fock.partition_series_fock(x, ctx)
                   + fock.partition_series_fock(q * q / x, ctx))
    kk = (fock.kappa_fock(x, ctx) * fock.kappa_fock(q * q / x, ctx)
          / fock.fock_norm_const(ctx) ** 2)
    lhs = (fock.weight_V_fock(x, 2, 1, ctx) * fock.weight_V_fock(q * q / x, 2, 1, ctx))
    res_cons = relative_residual(kk, lhs)
    res = max(res_fixed, res_anti, res_cons)
    return [make_report("fock.partition.4_52_4_53",
                        {"x": x, "q": q, "res_selfdual": res_fixed,
                         "res_antisym": res_anti, "res_product": res_cons},
                        res, tol, started)]


def _run_rll(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-12)
    out = [_rebrand(fock.rll_check(1.3, 0.7, 8, ctx), "fock.rll.2_15", tol),
           _rebrand(fock.rll_check(1.3, 0.7, 8, ctx, sigma_x=True),
                    "fock.rll.2_15", tol)]
    return out


def _run_box(cfg):
    tol = _tol(cfg, 1e-5)
    ctx = QContext(q=cfg.q if cfg.q is not None else 0.35,
                   tol_identity=min(tol, 1e-8))
    return [_rebrand(fock.box_intertwining_check(1.1, 0.8, 0.9, 1.3, 20, ctx),
                     "fock.box_intertwine.4_54", tol)]


# ---------------------------------------------------------------- vgamma

def _gamma_generic(cfg) -> complex:
    if cfg.gamma is not None:
        return complex(cfg.gamma)
    return 0.7 * cmath.exp(0.4j)


def _run_vg_completeness(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-8)
    started = time.perf_counter()
    gc = vgamma.GammaContext(gamma=_gamma_generic(cfg),
                             m_window=_default(cfg.m_window, 40))
    a_max = _default(cfg.a_max, 40)
    dec = vgamma.vgamma_decomposition(gc, 1.1, a_max, ctx)
    br = np.array([qseries.bracket(gc.gamma * ctx.q ** int(m))
                   for m in dec.m_values])
    res_a = 0.0
    for e in range(2):
        for ep in range(2):
            g = np.einsum("am,m,mb->ab", dec.ket[e], br, dec.bra[ep])
            tgt = np.eye(a_max + 1) if e == ep else 0.0
            res_a = max(res_a, float(np.max(np.abs((g - tgt)[:30, :30]))))
    g = sum(np.einsum("ma,an->mn", dec.bra[e], dec.ket[e]) for e in range(2))
    tgt = np.diag(1.0 / br)
    n_m = len(dec.m_values)
    ctr = slice(n_m // 2 - 25, n_m // 2 + 26)
    res_m = float(np.max(np.abs((g - tgt)[ctr, ctr]))
                  / np.max(np.abs(tgt[ctr, ctr])))
    res = max(res_a, res_m)
    return [make_report("vgamma.completeness.5_8",
                        {"gamma": gc.gamma, "q": ctx.q, "a_max": a_max,
                         "res_sectors": res_a, "res_lattice": res_m},
                        res, tol, started)]


def _run_vg_weight_closed_vs_sum(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-8)
    gc = vgamma.GammaContext(gamma=_gamma_generic(cfg), m_window=40)
    started = time.perf_counter()
    worst = 0.0
    for (x, eps, m, mp) in ((0.7, 1, 0, 0), (0.8, -1, 2, -3),
                            (0.6 + 0.1j, 1, -1, 4)):
        a = vgamma.weight_Veps(x, eps, m, mp, gc, ctx)
        b = vgamma.weight_Veps_from_overlaps(x, eps, m, mp, gc, ctx)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return [make_report("vgamma.weight_closed_vs_sum.5_10_5_11",
                        {"gamma": gc.gamma, "q": ctx.q}, worst, tol, started)]


def _run_vg_projectors(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-8)
    started = time.perf_counter()
    gc = vgamma.GammaContext(gamma=_gamma_generic(cfg),
                             m_window=_default(cfg.m_window, 40))
    m_w = gc.m_window
    mv = np.arange(-m_w, m_w + 1)
    tab_p = vgamma.weight_Veps_table(1.0, 1, mv, mv, gc, ctx)
    tab_m = vgamma.weight_Veps_table(1.0, -1, mv, mv, gc, ctx)
    br = np.array([qseries.bracket(gc.gamma * ctx.q ** int(m)) for m in mv])
    proj_p = br[:, None] * tab_p
    proj_m = br[:, None] * tab_m
    n = len(mv)
    ctr = slice(n // 2 - 20, n // 2 + 21)
    eye = np.eye(n)
    res = max(
        float(np.max(np.abs((proj_p + proj_m - eye)[ctr, ctr]))),
        float(np.max(np.abs((proj_p @ proj_m)[ctr, ctr]))),
        float(np.max(np.abs((proj_p @ proj_p - proj_p)[ctr, ctr]))),
        float(np.max(np.abs((proj_m @ proj_m - proj_m)[ctr, ctr]))),
    )
    # orthogonality of the eps-sectors inside the summation formula; this
    # sum decays only like (q/xy)^2 per step, so it gets a wider window
    x, y = 0.7, 0.8

    def cross(b):
        return (vgamma.weight_Veps(x, 1, 0, b, gc, ctx)
                * qseries.bracket(gc.gamma * ctx.q ** b)
                * vgamma.weight_Veps(y, -1, b, 1, gc, ctx))

    res_cross = abs(vgamma.windowed_bilateral_sum(cross, m_w + 35, ctx))
    scale = abs(vgamma.weight_Veps(x * y, 1, 0, 1, gc, ctx))
    res = max(res, res_cross / scale)
    return [make_report("vgamma.projectors.5_12_5_13",
                        {"gamma": gc.gamma, "q": ctx.q, "window": m_w,
                         "res_cross_sector": res_cross / scale},
                        res, tol, started)]


def _run_vg_parity(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-8)
    started = time.perf_counter()
    gc = vgamma.GammaContext(gamma=_gamma_generic(cfg), m_window=40)
    worst = 0.0
    for m in (-3, -2, 0, 1, 2):
        for mp in (-2, 1, 3, 4):
            if (m + mp) % 2:
                worst = max(worst, abs(vgamma.weight_Veps(0.7, 1, m, mp, gc, ctx)
                                       + vgamma.weight_Veps(0.7, -1, m, mp, gc, ctx)))
    return [make_report("vgamma.parity.5_19", {"gamma": gc.gamma, "q": ctx.q},
                        worst, tol, started)]


def _run_vg_brace(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-8)
    gammas = [0.6, 0.9 * cmath.exp(0.2j), _gamma_generic(cfg), ctx.q_pow_half(1)]
    out = [_rebrand(vgamma.brace_gamma_check(2, 1, 1, gammas, ctx),
                    "vgamma.brace_gamma.5_14_5_15", tol)]
    started = time.perf_counter()
    worst = 0.0
    box = list(combinations_with_replacement(range(5), 3))
    for r, _ in vgamma.brace_gamma_residuals(box, gammas[:2], ctx):
        worst = max(worst, r)
    out.append(make_report("vgamma.brace_gamma.5_14_5_15",
                           {"box": "[0,4]^3", "q": ctx.q,
                            "gammas": [complex(g) for g in gammas[:2]]},
                           worst, tol, started))
    return out


def _run_vg_weight_symmetry(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-10)
    started = time.perf_counter()
    gc = vgamma.GammaContext(gamma=_gamma_generic(cfg), m_window=40)
    q = ctx.q
    worst = 0.0
    for a in range(-5, 6):
        for b in range(-5, 6):
            v = vgamma.km_V(0.7, a, b, gc, ctx)
            worst = max(worst, abs(v - vgamma.km_V(0.7, b, a, gc, ctx)))
            worst = max(worst, abs(v * vgamma.km_V(q * q / 0.7, a, b, gc, ctx) - 1))
            worst = max(worst, abs(vgamma.km_V(q, a, b, gc, ctx) - 1))
            expect = 1 / vgamma.km_S(a, gc, ctx) if a == b else 0.0
            worst = max(worst, abs(vgamma.km_V(1.0, a, b, gc, ctx) - expect))
    return [make_report("vgamma.weight_symmetry.5_24",
                        {"gamma": gc.gamma, "q": q, "box": "[-5,5]^2"},
                        worst, tol, started)]


def _run_vg_summation(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-8)
    gc = vgamma.GammaContext.make_selected(0.0, ctx,
                                           m_window=_default(cfg.m_window, 40))
    out = [_rebrand(vgamma.km_summation_check(0.7, 0.8, a, c, gc, ctx),
                    "vgamma.summation.5_25", tol)
           for a, c in ((0, 0), (2, -1))]
    out.append(_rebrand(vgamma.km_inversion_check(0.7, 1, 1, gc, ctx),
                        "vgamma.inversion.5_26", tol))
    out.append(_rebrand(vgamma.km_inversion_check(0.7, 1, 3, gc, ctx),
                        "vgamma.inversion.5_26", tol))
    return out


def _selected_contexts(cfg, ctx):
    window = _default(cfg.m_window, 40)
    if cfg.gamma_nu is not None:
        return [vgamma.GammaContext.make_selected(cfg.gamma_nu, ctx, window)]
    return [vgamma.GammaContext.make_selected(0.0, ctx, window),
            vgamma.GammaContext.make_selected(0.5, ctx, window)]


def _run_vg_star_triangle(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-7)
    out = []
    if cfg.gamma is not None and cfg.gamma_nu is None:
        # a forced generic gamma turns this identity into its own negative
        # control: the relation is expected to fail off the selected lattice
        gc = vgamma.GammaContext(gamma=complex(cfg.gamma),
                                 m_window=_default(cfg.m_window, 40))
        for spins in ((1, -1, 2), (2, 1, -1)):
            out.append(_rebrand(vgamma.star_triangle_km(0.7, 0.6, *spins, gc, ctx),
                                "vgamma.star_triangle.5_27", tol, negative=True))
        return out
    for gc in _selected_contexts(cfg, ctx):
        for spins in ((0, 0, 0), (1, -1, 2)):
            out.append(_rebrand(
                vgamma.star_triangle_km(0.7, 0.6, *spins, gc, ctx),
                "vgamma.star_triangle.5_27", tol))
    return out


def _run_vg_star_triangle_generic(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-7)
    gamma = cfg.gamma if cfg.gamma is not None else 0.8 * cmath.exp(0.3j)
    gc = vgamma.GammaContext(gamma=complex(gamma),
                             m_window=_default(cfg.m_window, 40))
    out = []
    for spins in ((1, -1, 2), (2, 1, -1)):
        out.append(_rebrand(vgamma.star_triangle_km(0.7, 0.6, *spins, gc, ctx),
                            "vgamma.star_triangle_generic.5_27", tol,
                            negative=True))
    return out


def _run_vg_partition(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-9)
    out = []
    for gc in _selected_contexts(cfg, ctx):
        for x in (0.6, 0.75):
            out.append(_rebrand(vgamma.km_partition_checks(x, gc, ctx),
                                "vgamma.partition.5_29_5_30_5_31", tol))
    return out


def _run_vg_kappa_shift(cfg):
    ctx = _ctx(cfg)
    tol = _tol(cfg, 1e-9)
    started = time.perf_counter()
    q = ctx.q
    q2 = q * q
    gci = vgamma.GammaContext.make_selected(0.0, ctx)
    gch = vgamma.GammaContext.make_selected(0.5, ctx)
    worst = 0.0
    for x in (0.6, 0.85):
        lhs = vgamma.km_kappa(x, gch, ctx) / vgamma.km_kappa(x, gci, ctx)
        g2 = gci.gamma ** 2
        rhs = (qseries.qpoch_inf_multi((q2 * g2 * x, q2 / (g2 * x)), q2, ctx)
               / qseries.qpoch_inf_multi((q * x / g2, q ** 3 * g2 / x), q2, ctx))
        worst = max(worst, relative_residual(lhs, rhs))
    return [make_report("vgamma.kappa_shift.5_28", {"q": q}, worst, tol, started)]


# --------------------------------------------------------------- modular

def _mc(cfg) -> modular.ModularContext:
    theta = cfg.b_theta if cfg.b_theta is not None else DEFAULT_THETA
    return modular.ModularContext(theta=theta)


def _run_dilog(cfg):
    mc = _mc(cfg)
    tol = _tol(cfg, 1e-9)
    started = time.perf_counter()
    worst = 0.0
    for x in (0.2, -0.4, 0.7, 0.05, 1.1):
        l1 = modular.faddeev_phi(x - 0.5j * mc.b, mc) / modular.faddeev_phi(x + 0.5j * mc.b, mc)
        r1 = 1 + cmath.exp(2 * cmath.pi * x * mc.b)
        l2 = modular.faddeev_phi(x - 0.5j / mc.b, mc) / modular.faddeev_phi(x + 0.5j / mc.b, mc)
        r2 = 1 + cmath.exp(2 * cmath.pi * x / mc.b)
        worst = max(worst, relative_residual(l1, r1), relative_residual(l2, r2))
    return [make_report("modular.dilog_funceq.6_17",
                        {"theta": mc.theta, "grid": 5}, worst, tol, started)]


def _run_psi_real(cfg):
    mc = _mc(cfg)
    tol = _tol(cfg, 1e-8)
    started = time.perf_counter()
    worst = 0.0
    for (s, x) in ((0.3, 0.4), (0.1, 0.9), (-0.5, 0.25), (0.7, -0.6)):
        p = modular.psi(s, x, mc)
        worst = max(worst, abs(p.imag) / abs(p))
    return [make_report("modular.psi_real.6_11", {"theta": mc.theta},
                        worst, tol, started)]


def _run_psi_symmetry(cfg):
    mc = _mc(cfg)
    tol = _tol(cfg, 1e-10)
    started = time.perf_counter()
    worst = 0.0
    for (s, x) in ((0.3, 0.4), (0.15, 0.8)):
        worst = max(worst, relative_residual(modular.psi(s, x, mc),
                                             modular.psi(s, -x, mc)))
    return [make_report("modular.psi_symmetry.6_11", {"theta": mc.theta},
                        worst, tol, started)]


def _run_psi_eigen(cfg):
    mc = _mc(cfg)
    tol = _tol(cfg, 1e-7)
    return [_rebrand(modular.psi_eigen_check(s, x, mc), "modular.psi_eigen.6_14", tol)
            for s, x in ((0.3, 0.4), (-0.2, 0.7))]


def _run_weight_integral(cfg):
    mc = _mc(cfg)
    tol = _tol(cfg, mc.tol_quad)
    eta = mc.eta
    out = []
    for (mu, x, y) in ((0.15j + eta / 3, 0.3, 0.5), (0.1j + eta / 4, 0.2, 0.4),
                       (0.25j + eta / 3, 0.35, 0.15)):
        started = time.perf_counter()
        closed = modular.weight_V_modular(mu, x, y, mc)
        integ = modular.weight_V_modular_integral(mu, x, y, mc)
        out.append(make_report("modular.weight_integral.6_22",
                               {"mu": mu, "x": x, "y": y, "theta": mc.theta},
                               relative_residual(closed, integ), tol, started))
    return out


def _run_weight_symmetry(cfg):
    mc = _mc(cfg)
    tol = _tol(cfg, 1e-10)
    started = time.perf_counter()
    mu = 0.15j + mc.eta / 3
    v = modular.weight_V_modular(mu, 0.3, 0.5, mc)
    worst = max(
        relative_residual(v, modular.weight_V_modular(mu, 0.5, 0.3, mc)),
        relative_residual(v, modular.weight_V_modular(mu, -0.3, 0.5, mc)),
        relative_residual(v, modular.weight_V_modular(mu, 0.3, -0.5, mc)),
        relative_residual(modular.weight_Vbar_modular(mu, 0.3, 0.5, mc),
                          modular.weight_V_modular(mc.eta - mu, 0.3, 0.5, mc)),
    )
    return [make_report("modular.weight_symmetry.6_26_6_28",
                        {"mu": mu, "theta": mc.theta}, worst, tol, started)]


def _run_summation_modular(cfg):
    mc = _mc(cfg)
    tol = _tol(cfg, mc.tol_quad)
    pts = [(0.2j, 0.25j, 0.3, 0.5), (0.15j, 0.2j, 0.2, 0.4),
           (0.3j, 0.15j, 0.45, 0.1)]
    return [_rebrand(modular.summation_check_modular(mu, mup, x, z, mc),
                     "modular.summation.6_27", tol)
            for mu, mup, x, z in pts]


REGISTRY: list[IdentityEntry] = [
    IdentityEntry("qseries.theta.A_4", _run_theta),
    IdentityEntry("qseries.theta_const.A_6", _run_theta_const),
    IdentityEntry("qseries.pentagonal.A_7", _run_pentagonal),
    IdentityEntry("qseries.gauss_double.A_8", _run_gauss_double),
    IdentityEntry("qseries.gauss.A_9", _run_gauss),
    IdentityEntry("qseries.jacobi.A_5", _run_jacobi),
    IdentityEntry("orthopoly.methods.B_1_B_2_B_3", _run_poly_methods),
    IdentityEntry("orthopoly.difference.B_4_B_5", _run_poly_difference),
    IdentityEntry("orthopoly.genfun.B_6_B_7", _run_genfun),
    IdentityEntry("orthopoly.norm_sum.B_8", _run_norm_sum),
    IdentityEntry("orthopoly.chi_special.C_2", _run_chi_special),
    IdentityEntry("orthopoly.chi_equations.C_3_C_4_C_5_C_6", _run_chi_equations),
    IdentityEntry("orthopoly.chi_ratio.6_15", _run_chi_ratio),
    IdentityEntry("fock.completeness.4_15_4_16", _run_completeness),
    IdentityEntry("fock.antisym.4_17", _run_antisym),
    IdentityEntry("fock.spectral.4_9_4_10", _run_spectral),
    IdentityEntry("fock.brace_agreement.4_27_4_28_4_39", _run_brace_agreement),
    IdentityEntry("fock.cg.4_36_4_37_4_38", _run_cg),
    IdentityEntry("fock.weight_closed_vs_sum.4_42_4_43", _run_weight_closed_vs_sum),
    IdentityEntry("fock.weight_properties.4_44_4_45_4_46_4_47", _run_weight_properties),
    IdentityEntry("fock.star_triangle.4_49", _run_star_triangle_fock),
    IdentityEntry("fock.partition.4_52_4_53", _run_partition_fock),
    IdentityEntry("fock.rll.2_15", _run_rll),
    IdentityEntry("fock.box_intertwine.4_54", _run_box),
    IdentityEntry("vgamma.completeness.5_8", _run_vg_completeness),
    IdentityEntry("vgamma.weight_closed_vs_sum.5_10_5_11", _run_vg_weight_closed_vs_sum),
    IdentityEntry("vgamma.projectors.5_12_5_13", _run_vg_projectors),
    IdentityEntry("vgamma.brace_gamma.5_14_5_15", _run_vg_brace),
    IdentityEntry("vgamma.parity.5_19", _run_vg_parity),
    IdentityEntry("vgamma.weight_symmetry.5_24", _run_vg_weight_symmetry),
    IdentityEntry("vgamma.summation.5_25_5_26", _run_vg_summation),
    IdentityEntry("vgamma.star_triangle.5_27", _run_vg_star_triangle),
    IdentityEntry("vgamma.star_triangle_generic.5_27", _run_vg_star_triangle_generic),
    IdentityEntry("vgamma.kappa_shift.5_28", _run_vg_kappa_shift),
    IdentityEntry("vgamma.partition.5_29_5_30_5_31", _run_vg_partition),
    IdentityEntry("modular.dilog_funceq.6_17", _run_dilog),
    IdentityEntry("modular.psi_real.6_11", _run_psi_real),
    IdentityEntry("modular.psi_symmetry.6_11", _run_psi_symmetry),
    IdentityEntry("modular.psi_eigen.6_14", _run_psi_eigen),
    IdentityEntry("modular.weight_integral.6_22", _run_weight_integral),
    IdentityEntry("modular.weight_symmetry.6_26_6_28", _run_weight_symmetry),
    IdentityEntry("modular.summation.6_27", _run_summation_modular),
]


def select_entries(pattern: str) -> list[IdentityEntry]:
    return [e for e in REGISTRY if fnmatch.fnmatch(e.identity_id, pattern)]


def run_entry(entry: IdentityEntry, cfg: RunConfig) -> list[IdentityReport]:
    """Run one entry, converting library errors into SKIPPED reports."""
    try:
        return entry.runner(cfg)
    except QkmError as exc:
        return [skipped_report(entry.identity_id, {}, _tol(cfg, 0.0),
                               f"{type(exc).__name__}: {exc}")]


def run_suite(cfg: RunConfig) -> list[IdentityReport]:
    """Run every identity matching the filter; reports sorted for determinism."""
    reports: list[IdentityReport] = []
    for entry in select_entries(cfg.filter):
        reports.extend(run_entry(entry, cfg))
    reports.sort(key=lambda r: (r.identity_id, sorted(
        (k, str(v)) for k, v in r.params.items())))
    return reports
