"""Tests for the modular-double sector."""

import cmath
import math
import warnings

import numpy as np
import pytest

from qkm import modular
from qkm.errors import (DomainError, OverflowGuard, PoleHit, TruncationExhausted,
                        WindowTooSmall)
from qkm.modular import (ModularContext, adaptive_midpoint,
                         faddeev_phi, psi,
                         psi_eigen_check, s_weight, summation_check_modular,
                         weight_V_modular, weight_V_modular_integral)
from qkm.orthopoly import chi
from qkm.qseries import ThetaKind, qpoch_inf, theta_product
from qkm.report import relative_residual

MC = ModularContext(theta=math.pi / 5)


def test_context_regime_validation():
    with pytest.raises(DomainError):
        ModularContext(theta=2.0)
    assert abs(MC.q) < 1 and abs(MC.qbar) < 1
    assert abs(MC.eta.real) < 1e-15
    assert abs(MC.eta - 1j * math.cos(math.pi / 5)) < 1e-15


def _z_pair(s):
    return (cmath.exp(-2 * cmath.pi * MC.b * s), cmath.exp(-2 * cmath.pi * s / MC.b))


def test_derived_point_quantities():
    # the context's constants are the direct exponentials of theta and b, and
    # psi is G(x) times its bracket at u = e^{pi b x}, ubar = e^{pi x / b},
    # z = e^{-2 pi b sigma} and zbar = e^{-2 pi sigma / b}
    b = MC.b
    assert MC.q2 == MC.q * MC.q and MC.qbar2 == MC.qbar * MC.qbar
    assert MC.b_half == cmath.exp(0.5j * MC.theta)
    assert MC.q_quarter == cmath.exp(0.25j * cmath.pi * b * b)
    assert MC.qbar_quarter == cmath.exp(-0.25j * cmath.pi / (b * b))
    s, x = 0.3, 0.4
    u, ub = cmath.exp(cmath.pi * b * x), cmath.exp(cmath.pi * x / b)
    z, zb = _z_pair(s)
    c = lambda uu: chi(uu, z, MC.ctx_q)
    cb = lambda uu: chi(uu, zb, MC.ctx_qbar)
    phase = cmath.exp(1j * cmath.pi * s * x)
    g = (cmath.exp(-1j * cmath.pi / 8 + 0.5j * cmath.pi * x ** 2)
         / (MC.b_half * MC.q_quarter * theta_product(ThetaKind.H, u, MC.ctx_q)))
    rebuilt = g * (phase * cb(1 / ub) * c(u) - cb(ub) * c(1 / u) / phase)
    assert relative_residual(rebuilt, psi(s, x, MC)) < 1e-14


def test_dilog_functional_equations():
    for x in (0.2, -0.4, 0.7, 0.05, 1.1):
        l1 = faddeev_phi(x - 0.5j * MC.b, MC) / faddeev_phi(x + 0.5j * MC.b, MC)
        r1 = 1 + cmath.exp(2 * cmath.pi * x * MC.b)
        assert relative_residual(l1, r1) < 1e-9
        l2 = faddeev_phi(x - 0.5j / MC.b, MC) / faddeev_phi(x + 0.5j / MC.b, MC)
        r2 = 1 + cmath.exp(2 * cmath.pi * x / MC.b)
        assert relative_residual(l2, r2) < 1e-9


def test_dilog_pole_reported():
    # e^{2 pi (x - eta)/b} = 1 puts the argument on the pole lattice
    x_pole = MC.eta
    with pytest.raises(PoleHit):
        faddeev_phi(x_pole, MC)
    # one lane on the lattice refuses the whole array, naming its factor
    with pytest.raises(PoleHit, match=r"factor 1 - w q\^\{2k\} = .* at k = 0"):
        faddeev_phi(np.array([0.3, x_pole, -0.2]), MC)


def _convolution_nodes():
    """The nodes of the default convolution's first two levels."""
    h = 16.0 / 64
    return -8.0 + h / 3 + h / 2 * np.arange(128)


def test_dilog_over_lanes_matches_each_scalar_call():
    # every phi argument of the default convolution at the registry's first
    # two points, as arrays; numpy's complex multiply and divide round some
    # lanes differently from Python's, and the exponential turns the last
    # bit of its argument 2 pi b (x + eta), about 30 in size here, into
    # 30 eps relative, so a lane agrees with the scalar call within 1e-13
    ys = _convolution_nodes()
    for mu, x, z in ((0.2j, 0.3, 0.5), (0.25j, 0.5, 0.3)):
        nu = mu - MC.eta
        for arg in ((x - ys) / 2 - nu, (x - ys) / 2 + nu,
                    (ys + z) / 2 - nu, (ys + z) / 2 + nu):
            lanes = faddeev_phi(arg, MC)
            for lane, a in zip(lanes, arg):
                assert relative_residual(lane, faddeev_phi(complex(a), MC)) < 1e-13


def test_scalar_calls_keep_their_bits():
    # a number runs the Python-complex code, so these values are bit for
    # bit those of the scalar code before the kernels took arrays
    assert faddeev_phi(0.37 + 0.1j, MC) == 0.6667990888933735 + 0.42600110115159007j
    assert faddeev_phi(-1.2, MC) == 0.9999999975198551 + 7.042932423572319e-05j
    assert psi(0.3, 0.4, MC) == -0.5743042824526899 - 1.8274263857063397e-16j
    assert psi(-2.5, 0.7, MC) == 223878.31686028713 + 1.9986305832663966e-10j
    assert (weight_V_modular(0.15j + MC.eta / 3, 0.3, 0.5, MC)
            == 0.02970458663444041 - 1.016542901309102e-17j)
    assert weight_V_modular(0.2j, 1.1, -0.4, MC) == 0.0047001088625474394 - 4.738648324366638e-19j


def test_phi_inversion_probe_informational():
    p0 = faddeev_phi(0.0, MC) ** 2
    assert abs(abs(p0) - 1) < 1e-12  # pure phase
    # phi(x) phi(-x) converges to phi(0)^2 by continuity
    errs = [abs(faddeev_phi(s, MC) * faddeev_phi(-s, MC) - p0)
            for s in (0.1, 0.05, 0.025)]
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.05


def test_psi_reality_strong_coupling():
    for (s, x) in ((0.3, 0.4), (0.1, 0.9), (-0.5, 0.25), (0.7, -0.6)):
        p = psi(s, x, MC)
        assert abs(p.imag) / abs(p) < 1e-8


def test_psi_even_in_x():
    # swapping u <-> 1/u negates both the bracket and the theta factor, so
    # the wavefunction is even, matching its delta(x-x') + delta(x+x') norm
    for (s, x) in ((0.3, 0.4), (0.15, 0.8)):
        assert relative_residual(psi(s, x, MC), psi(s, -x, MC)) < 1e-12


def test_psi_eigen_equations():
    r = psi_eigen_check(0.3, 0.4, MC)
    assert r.params["res_b"] < 1e-7 and r.params["res_binv"] < 1e-7
    assert psi_eigen_check(-0.2, 0.7, MC).residual < 1e-7


def test_psi_finite_across_theta_zero():
    # H(u) vanishes at x = i b; the bracket zero cancels it
    x0 = 1j * MC.b
    vals = [psi(0.3, x0 + d, MC) for d in (-1e-3, -5e-4, 5e-4, 1e-3)]
    mags = [abs(v) for v in vals]
    assert max(mags) < 10 * min(mags)
    slope1 = abs(vals[1] - vals[0]) / 5e-4
    slope2 = abs(vals[3] - vals[2]) / 5e-4
    assert slope2 < 10 * max(slope1, 1e-3)


def test_psi_modular_partner_consistency():
    # swapping b <-> 1/b trades every ingredient for its barred partner and
    # conjugates the explicit phases; rebuilt that way from the barred
    # series, the wavefunction must coincide with itself (it is real)
    s, x = 0.3, 0.4
    u, ub = cmath.exp(cmath.pi * MC.b * x), cmath.exp(cmath.pi * x / MC.b)
    z, zb = _z_pair(s)
    ctxq, ctxqb = MC.ctx_q, MC.ctx_qbar
    c = lambda uu: chi(uu, z, ctxq)
    cb = lambda uu: chi(uu, zb, ctxqb)
    phase = cmath.exp(1j * cmath.pi * s * x)
    bracket_swapped = c(1 / u) * cb(ub) / phase - phase * c(u) * cb(1 / ub)
    h_bar = theta_product(ThetaKind.H, ub, ctxqb)
    qbq = cmath.exp(-0.25j * cmath.pi / MC.b ** 2)
    g_swapped = (cmath.exp(1j * cmath.pi / 8 - 0.5j * cmath.pi * x ** 2)
                 / (cmath.exp(-0.5j * MC.theta) * qbq * h_bar))
    swapped = g_swapped * bracket_swapped
    assert relative_residual(swapped, psi(s, x, MC)) < 1e-9


def test_weight_symmetries():
    mu = 0.15j + MC.eta / 3
    v = weight_V_modular(mu, 0.3, 0.5, MC)
    assert relative_residual(v, weight_V_modular(mu, 0.5, 0.3, MC)) < 1e-12
    assert relative_residual(v, weight_V_modular(mu, -0.3, 0.5, MC)) < 1e-12
    assert relative_residual(v, weight_V_modular(mu, 0.3, -0.5, MC)) < 1e-12


def test_weight_integral_reproduces_closed_form():
    for (mu, x, y) in ((0.15j + MC.eta / 3, 0.3, 0.5),
                       (0.1j + MC.eta / 4, 0.2, 0.4)):
        closed = weight_V_modular(mu, x, y, MC)
        integ = weight_V_modular_integral(mu, x, y, MC)
        assert relative_residual(closed, integ) < 1e-4


def test_summation_formula():
    for (mu, mup, x, z) in ((0.2j, 0.25j, 0.3, 0.5), (0.15j, 0.2j, 0.2, 0.4)):
        assert summation_check_modular(mu, mup, x, z, MC).residual < 1e-4


def test_summation_integrand_even():
    mu, mup, x, z = 0.2j, 0.25j, 0.3, 0.5
    f = lambda y: (weight_V_modular(mu, x, y, MC) * s_weight(y, MC)
                   * weight_V_modular(mup, y, z, MC))
    full = adaptive_midpoint(f, 8.0, 256, 1e-6)
    doubled = adaptive_midpoint(lambda y: f(np.abs(y)), 8.0, 256, 1e-6)
    assert relative_residual(full, doubled) < 1e-10


def test_summation_delta_limit_probe():
    # as mu' -> i0 the convolution target approaches the original weight
    mu, x, z = 0.2j, 0.3, 0.5
    ref = weight_V_modular(mu, x, z, MC)
    errs = []
    for s in (0.2, 0.1, 0.05):
        r = summation_check_modular(mu, s * 1j, x, z, MC)
        assert r.residual < 1e-4
        errs.append(relative_residual(weight_V_modular(mu + s * 1j, x, z, MC), ref))
    assert errs[2] < errs[1] < errs[0]


def test_window_too_small_raised():
    small = ModularContext(theta=math.pi / 5, quad_halfwidth=1.0)
    with pytest.raises(WindowTooSmall):
        summation_check_modular(0.2j, 0.25j, 0.3, 0.5, small)


def _record_quadratures(monkeypatch):
    """Make every adaptive_midpoint call record its integrand, its node
    count, its number of integrand calls and its value."""
    calls = []
    inner = modular.adaptive_midpoint

    def recording(f, *args, **kwargs):
        rec = {"f": f, "evals": 0, "calls": 0}

        def counted(t):
            rec["evals"] += np.size(t)
            rec["calls"] += 1
            return f(t)

        rec["value"] = inner(counted, *args, **kwargs)
        calls.append(rec)
        return rec["value"]

    monkeypatch.setattr(modular, "adaptive_midpoint", recording)
    return calls


def test_q_contexts_built_once_and_left_out_of_equality():
    mc = ModularContext(theta=math.pi / 5)
    assert mc.ctx_q is mc.ctx_q and mc.ctx_qbar is mc.ctx_qbar
    assert mc.ctx_q.q == mc.q and mc.ctx_qbar.q == mc.qbar
    assert mc == MC and hash(mc) == hash(MC)
    assert mc != ModularContext(theta=math.pi / 5, quad_points=128)


def test_default_quadrature_certifies_from_64_points(monkeypatch):
    calls = _record_quadratures(monkeypatch)
    weight_V_modular_integral(0.15j + MC.eta / 3, 0.3, 0.5, MC)
    summation_check_modular(0.2j, 0.25j, 0.3, 0.5, MC)
    # the nested lattice keeps its 64 nodes and adds 64 to certify, each
    # level in one integrand call
    assert [c["evals"] for c in calls] == [128, 128]
    assert [c["calls"] for c in calls] == [2, 2]


def test_default_start_agrees_with_a_512_point_reference(monkeypatch):
    ref = ModularContext(theta=math.pi / 5, quad_points=512)
    mu, x, y = 0.15j + MC.eta / 3, 0.3, 0.5
    assert relative_residual(weight_V_modular_integral(mu, x, y, MC),
                             weight_V_modular_integral(mu, x, y, ref)) < 1e-10
    calls = _record_quadratures(monkeypatch)
    for (mu, mup, x, z) in ((0.2j, 0.25j, 0.3, 0.5), (0.15j, 0.2j, 0.2, 0.4)):
        summation_check_modular(mu, mup, x, z, MC)
        summation_check_modular(mu, mup, x, z, ref)
    lhs = [c["value"] for c in calls]
    assert relative_residual(lhs[0], lhs[1]) < 1e-7
    assert relative_residual(lhs[2], lhs[3]) < 1e-7


def test_hoisted_summation_integrand_is_the_weight_product(monkeypatch):
    calls = _record_quadratures(monkeypatch)
    mu, mup, x, z = 0.2j, 0.25j, 0.3, 0.5
    summation_check_modular(mu, mup, x, z, MC)
    [rec] = calls
    for y in (-7.5, -2.0, -0.3, 0.01, 0.45, 1.7, 6.0):
        product = (weight_V_modular(mu, x, y, MC) * s_weight(y, MC)
                   * weight_V_modular(mup, y, z, MC))
        assert relative_residual(rec["f"](y), product) < 1e-13


@pytest.mark.parametrize("halfwidth, n0", [(8.0, 64), (1.5, 3)])
def test_nested_lattice_keeps_every_node_and_avoids_zero(halfwidth, n0):
    levels = []

    def recording(t):
        levels.append(t.copy())
        return np.exp(-t * t)

    # a zero tolerance never certifies, so all 7 levels run, one call each
    with pytest.raises(TruncationExhausted):
        adaptive_midpoint(recording, halfwidth, n0, 0.0)
    assert len(levels) == 7
    nodes = [float(t) for level in levels for t in level]
    n = max(n0, 8)
    h0 = 2 * halfwidth / n
    assert len(nodes) == n * 2 ** 6
    assert len(set(nodes)) == len(nodes)
    for level in range(7):
        seen = np.sort(nodes[:n * 2 ** level])
        h = h0 / 2 ** level
        lattice = -halfwidth + h0 / 3 + h * np.arange(n * 2 ** level)
        assert np.max(np.abs(seen - lattice)) < 1e-12
        assert np.min(np.abs(seen)) > 1e-12


def test_a_level_that_is_not_finite_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowGuard):
            adaptive_midpoint(lambda t: np.exp(1000.0 * t), 8.0, 64, 1e-6)
        with pytest.raises(OverflowGuard):
            adaptive_midpoint(lambda t: np.sqrt(t) * np.log(t + 8.0), 8.0, 64, 1e-6)


def test_spectral_integrand_is_psi_times_psi_over_the_norm(monkeypatch):
    calls = _record_quadratures(monkeypatch)
    mu, x, y = 0.15j + MC.eta / 3, 0.3, 0.5
    weight_V_modular_integral(mu, x, y, MC)
    [rec] = calls
    for s in (-7.5, -2.0, -0.3, 0.01, 0.45, 1.7, 6.0):
        s = complex(s)
        z, zb = _z_pair(s)
        norm = qpoch_inf(z, MC.q2, MC.ctx_q) * qpoch_inf(zb, MC.qbar2, MC.ctx_qbar)
        assert rec["f"](s) == (cmath.exp(2j * cmath.pi * mu * s)
                               * psi(s, x, MC) * psi(s, y, MC) / norm)


@pytest.mark.parametrize("theta", [1.0, 1.2])
def test_spectral_integral_refuses_an_undecayed_window(theta):
    # |f(-8)| is 4.7e-4 at theta = 1.0 and 0.26 at 1.2, above tol_quad = 1e-4;
    # the truncated integral missed the closed form by 1.4e-3 and 1.7 there
    mc = ModularContext(theta=theta)
    with pytest.raises(WindowTooSmall):
        weight_V_modular_integral(0.25j + mc.eta / 3, 0.35, 0.15, mc)


def test_spectral_integral_refuses_a_nan_window_edge():
    # at theta = 0.2 Psi Psi and the sigma-space norm both overflow at
    # sigma = -8, so the integrand there is inf / inf; the larger edge
    # magnitude must not fall back on the finite one at +8
    mc = ModularContext(theta=0.2)
    with pytest.raises(OverflowGuard):
        weight_V_modular_integral(0.15j + mc.eta / 3, 0.3, 0.5, mc)
