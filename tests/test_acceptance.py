"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s
tests/test_acceptance.py`` to see the table.  Tolerances and runtime
budgets are pinned here and nowhere else.
"""

import cmath
import itertools
import math
import time

import numpy as np
import pytest

from qkm.context import QContext
from qkm import fock, modular, orthopoly, qseries, vgamma
from qkm.report import relative_residual


def _line(num, label, worst, tol, elapsed, budget):
    ok = worst <= tol and elapsed <= budget
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {label}: "
          f"worst {worst:.3e} (tol {tol:.1e}), {elapsed:.1f}s (budget {budget:.0f}s)")
    assert worst <= tol, f"criterion {num}: residual {worst:.3e} above {tol:.1e}"
    assert elapsed <= budget, f"criterion {num}: runtime {elapsed:.1f}s over budget"


def test_criterion_01_brace_agreement():
    started = time.perf_counter()
    worst = 0.0
    for q in (0.3, 0.5):
        ctx = QContext(q=q)
        for a in range(7):
            for b in range(a, 7):
                for c in range(b, 7):
                    vals = [fock.brace(a, b, c, ctx, m) for m in fock.BraceMethod]
                    scale = max(abs(vals[1]), 1e-300)
                    worst = max(worst, max(abs(vals[0] - vals[1]),
                                           abs(vals[1] - vals[2]),
                                           abs(vals[0] - vals[2])) / scale)
    _line(1, "brace three-route agreement on [0,6]^3", worst, 1e-10,
          time.perf_counter() - started, 10.0)


def test_criterion_02_star_triangle_fock():
    started = time.perf_counter()
    ctx = QContext(q=-0.3)
    worst = 0.0
    box = list(itertools.product(range(3), repeat=3))
    for x, y in ((0.5, 0.6), (0.45, 0.7)):
        r = fock.star_triangle_fock(x, y, box, ctx)
        worst = max(worst, r.residual)
    _line(2, "Fock star-triangle, physical regime", worst, 1e-7,
          time.perf_counter() - started, 30.0)


def test_criterion_03_spectral_experiment():
    started = time.perf_counter()
    q = 0.4
    lowest = lambda n, reg: fock.spectral_experiment(q, n, reg)[:fock.SPECTRAL_BRANCHES]
    worst = max(float(np.max(np.abs(lowest(32, reg) - fock.branch_limits(q, reg))))
                for reg in (fock.Regularisation.I, fock.Regularisation.II))
    gap = float(np.max(np.abs(np.abs(lowest(31, fock.Regularisation.III))
                              - np.abs(lowest(32, fock.Regularisation.III)))))
    gap_ok = gap > 0.1
    elapsed = time.perf_counter() - started
    print(f"[criterion  3] spectral branches: reg I/II worst {worst:.3e}, "
          f"reg III gap {gap:.2f}")
    assert gap_ok, "odd/even subsequence limits too close"
    _line(3, "spectral limits at N = 32", worst, 1e-6, elapsed, 5.0)


def test_criterion_04_completeness():
    started = time.perf_counter()
    ctx = QContext(q=0.4)
    a_max, m_max = 14, 50
    chi, chi_bar = fock.vform_matrices(a_max, m_max, ctx)
    n_f = fock.fock_norm_const(ctx)
    meas = np.array([fock.s_measure(m, ctx) for m in range(m_max + 1)])
    ident = np.einsum("am,m,mb->ab", chi, meas, chi_bar) / n_f
    worst = float(np.max(np.abs(ident - np.eye(a_max + 1))))
    # dual direction, adaptively truncated in the occupation label
    from qkm.orthopoly import overlap_sum
    for m in range(5):
        xi = ctx.q_pow_half(2 * m + 1)
        target = (-1) ** m * n_f / qseries.bracket(xi)
        diag = ctx.q_pow_half(2 * m * (m + 1)) * overlap_sum(xi, xi, 1, ctx)
        worst = max(worst, relative_residual(diag, target))
        if m:
            off = (ctx.q_pow_half(2 * m * m)
                   * overlap_sum(xi, ctx.q_pow_half(2 * m - 1), 1, ctx))
            worst = max(worst, abs(off) / abs(target))
    # antisymmetric window sum
    chi2, chi_bar2 = fock.vform_matrices(10, 39, ctx, m_min=-40)
    br = np.array([qseries.bracket(ctx.q_pow_half(2 * m + 1)) for m in range(-40, 40)])
    sums = np.einsum("am,m,mb->ab", chi2, br, chi_bar2)
    scale = float(np.max(np.abs(chi2))) ** 2 * float(np.max(np.abs(br)))
    worst = max(worst, float(np.max(np.abs(sums))) / scale)
    _line(4, "eigenbasis completeness and antisymmetric sum", worst, 1e-8,
          time.perf_counter() - started, 30.0)


def test_criterion_05_weight_properties():
    started = time.perf_counter()
    ctx = QContext(q=0.4)
    q = ctx.q
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for x in rng.uniform(0.55, 0.9, 3) * np.exp(1j * rng.uniform(0, 0.5, 3)):
        for m in range(3):
            for mp in range(3):
                v = fock.weight_V_fock(x, m, mp, ctx)
                worst = max(worst, relative_residual(v, fock.weight_V_fock(x, mp, m, ctx)))
                worst = max(worst, relative_residual(
                    v, fock.weight_V_fock(x, -1 - m, mp, ctx)))
    for m in range(4):
        for mp in range(4):
            v = fock.weight_V_fock(1.0, m, mp, ctx)
            expect = ((-1) ** m / qseries.bracket(ctx.q_pow_half(2 * m + 1))
                      if m == mp else 0.0)
            worst = max(worst, abs(v - expect))
    for x, y in zip(rng.uniform(0.6, 0.95, 3), rng.uniform(0.6, 0.95, 3)):
        worst = max(worst, fock.transitivity_check_fock(x, y, 0, 0, ctx).residual)
    for z in rng.uniform(0.45, 0.9, 3):
        rhs = (fock.fock_norm_const(ctx) ** -2
               * qseries.qpoch_inf_multi((z, q * q / z), q, ctx)
               / qseries.qpoch_inf_multi((-z / q, -q / z), q, ctx))
        lhs = fock.weight_V_fock(z, 1, 2, ctx) * fock.weight_V_fock(q * q / z, 1, 2, ctx)
        worst = max(worst, relative_residual(lhs, rhs))
    _line(5, "weight symmetry / normalisation / transitivity / product",
          worst, 1e-8, time.perf_counter() - started, 60.0)


def test_criterion_06_vgamma_suite():
    started = time.perf_counter()
    ctx = QContext(q=0.4)
    q = ctx.q
    gammas = [0.7 * cmath.exp(0.4j), ctx.q_pow_half(1), 1j, 1j * ctx.q_pow_half(1)]
    worst = 0.0
    # completeness for every listed gamma
    for gamma in gammas:
        gc = vgamma.GammaContext(gamma=gamma, m_window=40)
        ket, bra, br = vgamma.vgamma_decomposition(gc, 1.1, 40, ctx)
        assert np.array_equal(br, [qseries.bracket(gamma * q ** m) for m in range(-40, 41)])
        for e in range(2):
            for ep in range(2):
                g = np.einsum("am,m,mb->ab", ket[e], br, bra[ep])
                tgt = np.eye(41) if e == ep else 0.0
                worst = max(worst, float(np.max(np.abs((g - tgt)[:28, :28]))))
    # projector algebra at the generic point
    gc = vgamma.GammaContext(gamma=gammas[0], m_window=40)
    mv = np.arange(-40, 41)
    tab_p = vgamma.weight_Veps_table(1.0, 1, mv, mv, gc, ctx)
    tab_m = vgamma.weight_Veps_table(1.0, -1, mv, mv, gc, ctx)
    br = np.array([qseries.bracket(gc.gamma * q ** int(m)) for m in mv])
    pp, pm = br[:, None] * tab_p, br[:, None] * tab_m
    ctr = slice(20, 61)
    worst = max(worst,
                float(np.max(np.abs((pp + pm - np.eye(81))[ctr, ctr]))),
                float(np.max(np.abs((pp @ pm)[ctr, ctr]))),
                float(np.max(np.abs((pp @ pp - pp)[ctr, ctr]))))
    # parity vanishing
    for m, mp in ((0, 1), (-2, 1), (2, 3)):
        worst = max(worst, abs(vgamma.weight_Veps(0.7, 1, m, mp, gc, ctx)
                               + vgamma.weight_Veps(0.7, -1, m, mp, gc, ctx)))
    # gamma-independence of the brace sum, all four gammas
    for (a, b, c) in ((0, 0, 0), (2, 1, 1), (3, 2, 4), (4, 4, 0)):
        worst = max(worst, vgamma.brace_gamma_check(a, b, c, gammas, ctx).residual)
    _line(6, "two-sector suite: completeness / projectors / parity / braces",
          worst, 1e-8, time.perf_counter() - started, 60.0)


def test_criterion_07_km_star_triangle_dichotomy():
    started = time.perf_counter()
    ctx = QContext(q=0.4)
    worst_sel = 0.0
    for nu in (0.0, 0.5):
        gc = vgamma.GammaContext.make_selected(nu, ctx)
        for spins in ((0, 0, 0), (1, -1, 2)):
            worst_sel = max(worst_sel,
                            vgamma.star_triangle_km(0.7, 0.6, *spins, gc, ctx).residual)
    gc_bad = vgamma.GammaContext(gamma=0.8 * cmath.exp(0.3j), m_window=40)
    generic = min(vgamma.star_triangle_km(0.7, 0.6, 1, -1, 2, gc_bad, ctx).residual,
                  vgamma.star_triangle_km(0.7, 0.6, 2, 1, -1, gc_bad, ctx).residual)
    elapsed = time.perf_counter() - started
    print(f"[criterion  7] star-triangle dichotomy: selected {worst_sel:.3e}, "
          f"generic {generic:.3e}")
    assert generic > 1e-3, "generic gamma unexpectedly satisfies the relation"
    _line(7, "star-triangle at selected gamma", worst_sel, 1e-7, elapsed, 60.0)


def test_criterion_08_km_partition_equations():
    started = time.perf_counter()
    ctx = QContext(q=0.4)
    worst = 0.0
    worst_site = 0.0
    for nu in (0.0, 0.5):
        gc = vgamma.GammaContext.make_selected(nu, ctx)
        for x in (0.6, 0.75):
            r = vgamma.km_partition_checks(x, gc, ctx)
            worst = max(worst, r.params["res_inversion"], r.params["res_kappa"])
            worst_site = max(worst_site, r.params["res_site"])
    assert worst_site < 1e-10, f"per-site value off by {worst_site:.3e}"
    _line(8, "partition functional equations", worst, 1e-9,
          time.perf_counter() - started, 30.0)


def test_criterion_09_rll():
    started = time.perf_counter()
    ctx = QContext(q=0.4)
    worst = max(fock.rll_check(1.3, 0.7, 8, ctx).residual,
                fock.rll_check(1.3, 0.7, 8, ctx, sigma_x=True).residual)
    _line(9, "six-vertex RLL on the truncated tower", worst, 1e-12,
          time.perf_counter() - started, 10.0)


def test_criterion_10_appendix_suite():
    started = time.perf_counter()
    ctx = QContext(q=0.4)
    b = cmath.exp(1j * math.pi / 5)
    worst = 0.0
    rng = np.random.default_rng(5)
    for kind in qseries.ThetaKind:
        for _ in range(10):
            u = rng.uniform(0.5, 2.0) * cmath.exp(2j * cmath.pi * rng.uniform())
            s, peak = qseries.theta_sum(kind, u, ctx)
            p = qseries.theta_product(kind, u, ctx)
            worst = max(worst, abs(s - p) / max(abs(s), abs(p), peak))
    s, _ = qseries.theta_sum(qseries.ThetaKind.CAP_THETA4, 1.0, ctx)
    p = qseries.theta_product(qseries.ThetaKind.CAP_THETA4, 1.0, ctx)
    ratio = qseries.qpoch_inf(0.4, 0.4, ctx) / qseries.qpoch_inf(-0.4, 0.4, ctx)
    worst = max(worst, relative_residual(s, p), relative_residual(p, ratio))
    worst = max(worst, qseries.pentagonal_check(ctx).residual)
    worst = max(worst, qseries.gauss_double_sum_check(0.3, 0.2, ctx).residual)
    worst = max(worst, qseries.gauss_check(0.2, 0.3, ctx).residual)
    worst = max(worst, qseries.jacobi_transform_check(0.3, b, ctx).residual)
    worst = max(worst, orthopoly.genfun_checks(0.3, 1.2, 0.8, ctx).residual)
    worst = max(worst, orthopoly.poly_norm_sum_check(0, 0, ctx).residual)
    worst = max(worst, orthopoly.poly_norm_sum_check(1, 3, ctx).residual)
    for n, xi in ((3, 1.3), (5, 0.7 + 0.2j), (8, 1.7)):
        worst = max(worst, orthopoly.poly_P_difference_checks(n, xi, ctx).residual)
        vals = [orthopoly.poly_P(n, xi, ctx, m) for m in orthopoly.PolyEvalMethod]
        worst = max(worst, max(abs(vals[0] - vals[1]), abs(vals[2] - vals[1]))
                    / max(abs(vals[1]), 1.0))
    for m in range(8):
        lhs = orthopoly.chi(1.1, 0.4 ** (-2 * m), ctx)
        rhs = 1.1 ** m * orthopoly.poly_P(m, 1.1, ctx)
        worst = max(worst, relative_residual(lhs, rhs))
    ctx45 = QContext(q=0.45)
    worst = max(worst, orthopoly.chi_equation_checks(1.1, 0.3, ctx45).residual)
    _line(10, "appendix identity suite", worst, 1e-9,
          time.perf_counter() - started, 60.0)


def test_criterion_11_modular_suite():
    started = time.perf_counter()
    mc = modular.ModularContext(theta=math.pi / 5)
    eta = mc.eta
    worst_exact = 0.0
    for x in (0.2, -0.4, 0.7):
        l1 = modular.faddeev_phi(x - 0.5j * mc.b, mc) / modular.faddeev_phi(x + 0.5j * mc.b, mc)
        worst_exact = max(worst_exact,
                          relative_residual(l1, 1 + cmath.exp(2 * cmath.pi * x * mc.b)))
        l2 = modular.faddeev_phi(x - 0.5j / mc.b, mc) / modular.faddeev_phi(x + 0.5j / mc.b, mc)
        worst_exact = max(worst_exact,
                          relative_residual(l2, 1 + cmath.exp(2 * cmath.pi * x / mc.b)))
    assert worst_exact < 1e-9, f"dilogarithm equations at {worst_exact:.3e}"
    worst_real = max(abs(modular.psi(s, x, mc).imag) / abs(modular.psi(s, x, mc))
                     for s, x in ((0.3, 0.4), (0.1, 0.9), (-0.5, 0.25)))
    assert worst_real < 1e-8, f"wavefunction reality at {worst_real:.3e}"
    worst_eigen = max(modular.psi_eigen_check(0.3, 0.4, mc).residual,
                      modular.psi_eigen_check(-0.2, 0.7, mc).residual)
    assert worst_eigen < 1e-7, f"eigen equations at {worst_eigen:.3e}"
    worst_quad = 0.0
    for (mu, x, y) in ((0.15j + eta / 3, 0.3, 0.5), (0.1j + eta / 4, 0.2, 0.4),
                       (0.25j + eta / 3, 0.35, 0.15)):
        closed = modular.weight_V_modular(mu, x, y, mc)
        integ = modular.weight_V_modular_integral(mu, x, y, mc)
        worst_quad = max(worst_quad, relative_residual(closed, integ))
    for (mu, mup, x, z) in ((0.2j, 0.25j, 0.3, 0.5), (0.15j, 0.2j, 0.2, 0.4),
                            (0.3j, 0.15j, 0.45, 0.1)):
        worst_quad = max(worst_quad,
                         modular.summation_check_modular(mu, mup, x, z, mc).residual)
    _line(11, "modular suite (quadrature checks)", worst_quad, 1e-4,
          time.perf_counter() - started, 180.0)


def test_criterion_12_box_intertwining():
    started = time.perf_counter()
    ctx = QContext(q=0.35)
    r = fock.box_intertwining_check(1.1, 0.8, 0.9, 1.3, 20, ctx)
    _line(12, "box R-matrix intertwining at spin cutoff 20", r.residual, 1e-5,
          time.perf_counter() - started, 300.0)
