"""Tests for the spin-lattice sector and the rational Kashiwara-Miwa model."""

import cmath
import gc
import sys
import threading
import tracemalloc
from itertools import combinations_with_replacement, islice

import mpmath as mp
import numpy as np
import pytest

from qkm.context import QContext
from qkm.errors import DomainError, OverflowGuard, PoleHit, SingularMeasure
from qkm.fock import BraceMethod, brace, fock_norm_const, vform_matrices
from qkm.orthopoly import lattice_brace_sums, poly_rows
from qkm.qseries import bracket
from qkm.registry import RunConfig, run_suite
from qkm.vgamma import (_KM_CHAIN_KEYS, GammaContext, brace_gamma_check,
                        brace_gamma_residuals, gamma_norm_const,
                        km_inversion_check, km_kappa, km_log_z,
                        km_partition_checks, km_Phi, km_S, km_summation_check,
                        km_V, star_triangle_km,
                        vgamma_decomposition, weight_Veps,
                        weight_Veps_from_overlaps, weight_Veps_table)

CTX = QContext(q=0.4)
Q = 0.4
GENERIC = GammaContext(gamma=0.7 * cmath.exp(0.4j), m_window=40)


def test_selected_construction():
    gc = GammaContext.make_selected(0.5, CTX)
    assert gc.selected
    assert abs(gc.gamma - 1j * CTX.q_pow_half(1)) < 1e-16
    assert not GENERIC.selected


def test_selected_needs_half_integer():
    with pytest.raises(DomainError):
        GammaContext(gamma=1j, nu=0.3)


def test_completeness_both_directions():
    ket, bra, measure = vgamma_decomposition(GENERIC, 1.1, 40, CTX)
    br = np.array([bracket(GENERIC.gamma * Q ** m) for m in range(-40, 41)])
    assert np.allclose(measure, br, rtol=1e-14, atol=0)
    for e in range(2):
        for ep in range(2):
            g = np.einsum("am,m,mb->ab", ket[e], br, bra[ep])
            tgt = np.eye(41) if e == ep else np.zeros((41, 41))
            assert np.max(np.abs((g - tgt)[:30, :30])) < 1e-8
    g = sum(np.einsum("ma,an->mn", bra[e], ket[e]) for e in range(2))
    tgt = np.diag(1.0 / br)
    n = len(br)
    ctr = slice(n // 2 - 25, n // 2 + 26)
    rel = np.max(np.abs((g - tgt)[ctr, ctr])) / np.max(np.abs(tgt[ctr, ctr]))
    assert rel < 1e-8


def test_singular_measure_detected():
    # gamma q^m = 1 inside the window makes the site measure vanish
    gc = GammaContext(gamma=Q ** -2, m_window=10)
    with pytest.raises(SingularMeasure):
        vgamma_decomposition(gc, 1.0, 5, CTX)


def test_decomposition_past_double_range_is_refused():
    # q^m at m = -40 and q = 1e-8 leaves double range: a refusal, not an OverflowError
    with pytest.raises(OverflowGuard):
        vgamma_decomposition(GENERIC, 1.1, 8, QContext(q=1e-8))


def test_parity_action_on_sectors():
    _, bra, _ = vgamma_decomposition(GENERIC, 1.0, 8, CTX)
    mv = np.arange(-GENERIC.m_window, GENERIC.m_window + 1)
    for e, eps in ((0, 1), (1, -1)):
        for j in range(5, len(mv) - 5):
            m = int(mv[j])
            for a in range(6):
                lhs = bra[e][j - 1, a] - bra[e][j + 1, a]
                rhs = eps * Q ** a * CTX.q_pow_half(1) * bracket(GENERIC.gamma * Q ** m) \
                    * bra[e][j, a]
                assert abs(lhs - rhs) < 1e-12


def test_half_integer_gamma_reduces_to_fock():
    # at gamma = q^{1/2} the even sector reproduces the one-tower basis and
    # the odd sector annihilates symmetrised states
    gc = GammaContext(gamma=CTX.q_pow_half(1), m_window=30)
    ket, bra, _ = vgamma_decomposition(gc, 1.0, 10, CTX)
    chi, chi_bar = vform_matrices(10, 30, CTX)
    n_f = fock_norm_const(CTX)
    j0 = gc.m_window  # the column of m = 0
    for m in range(8):
        jm, jneg = j0 + m, j0 - 1 - m
        for a in range(8):
            sym = 0.5 * (ket[0][a, jm] + ket[0][a, jneg])
            assert abs(sym - 0.5 * chi[a, m] / n_f) < 1e-12
            anti = 0.5 * (ket[1][a, jm] + ket[1][a, jneg])
            assert abs(anti) < 1e-13
            assert abs(bra[0][jm, a] - (-1) ** m * chi_bar[m, a]) < 1e-12


def test_gamma_norm_doubles_fock_norm():
    gc = GammaContext(gamma=CTX.q_pow_half(1))
    from qkm.fock import fock_norm_const
    assert abs(gamma_norm_const(gc, CTX) - 2 * fock_norm_const(CTX)) < 1e-12


def test_sector_weight_closed_vs_sum():
    for (x, eps, m, mp) in ((0.7, 1, 0, 0), (0.8, -1, 2, -3), (0.6 + 0.1j, 1, -1, 4)):
        a = weight_Veps(x, eps, m, mp, GENERIC, CTX)
        b = weight_Veps_from_overlaps(x, eps, m, mp, GENERIC, CTX)
        assert abs(a - b) < 1e-9 * max(abs(a), 1e-300)


def test_sector_overlap_sum_keeps_the_digits_of_a_small_weight():
    # the weight is 1.1e-5, so a cut of tail_cut not scaled by the sum would
    # end its occupation sum after 40 terms, 6.0e-8 off the closed form
    x = 0.5683793022722872 - 0.5881274615146143j
    gc = GammaContext(gamma=0.7 * cmath.exp(0.4j))
    with mp.workdps(50):
        want = _mp_weight_Veps(x, -1, -3, 6, gc.gamma, mp.mpf(Q))
    got = weight_Veps_from_overlaps(x, -1, -3, 6, gc, CTX)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_sector_orthogonality():
    # opposite sectors convolve to zero under the lattice measure
    def cross(b):
        return (weight_Veps(0.7, 1, 0, b, GENERIC, CTX)
                * bracket(GENERIC.gamma * Q ** b)
                * weight_Veps(0.8, -1, b, 1, GENERIC, CTX))

    from qkm.vgamma import windowed_bilateral_sum
    total = windowed_bilateral_sum(cross, CTX)
    scale = abs(weight_Veps(0.7 * 0.8, 1, 0, 1, GENERIC, CTX))
    assert abs(total) / scale < 1e-8


def test_cross_sector_row_and_column_match_scalar_weights():
    # the projectors entry reads its cross-sector summand from rows and
    # columns grown in blocks; over +-75 sites every entry must be finite
    window = range(-75, 76)
    row = weight_Veps_table(0.7, 1, [0], window, GENERIC, CTX)[0]
    col = weight_Veps_table(0.8, -1, window, [1], GENERIC, CTX)[:, 0]
    assert np.all(np.isfinite(row)) and np.all(np.isfinite(col))
    for b in (-40, 0, 40):
        for tab, ref in ((row, weight_Veps(0.7, 1, 0, b, GENERIC, CTX)),
                         (col, weight_Veps(0.8, -1, b, 1, GENERIC, CTX))):
            assert abs(tab[b + 75] - ref) <= 1e-13 * abs(ref)


def _mp_weight_Veps(x, eps, m, mp_, gamma, q):
    """V_x^{(eps)}(m, m') from its closed q-product form in mpmath."""
    x, g = mp.mpc(x), mp.mpc(gamma)
    g2, q2 = g * g, q * q
    value = mp.sqrt(q) ** (m * m + mp_ * mp_) * g ** (m + mp_)
    for c, e in ((g2 / x, 2 + m + mp_), (1 / (g2 * x), 2 - m - mp_),
                 (1 / x, 2 + m - mp_), (1 / x, 2 - m + mp_)):
        value *= mp.qp(c * q ** e, q2)
    h_gamma = mp.qp(g2, q2) * mp.qp(q2 / g2, q2) * mp.qp(q2, q2) / g
    sign = (1 if (m + mp_) % 2 == 0 else eps) * (-1) ** (m % 2)
    return complex(sign * value / (mp.qp(q2 / (x * x), q2) * -2 * h_gamma))


def test_veps_row_and_column_match_an_mpmath_oracle():
    # a row and a column over +-70 sites, read every fifth site
    window = range(-70, 71)
    row = weight_Veps_table(0.7, 1, [0], window, GENERIC, CTX)[0]
    col = weight_Veps_table(0.8 * cmath.exp(0.6j), -1, window, [1], GENERIC, CTX)[:, 0]
    with mp.workdps(30):
        q = mp.mpf(Q)
        for b in window[::5]:
            for got, expect in ((row[b + 70], _mp_weight_Veps(0.7, 1, 0, b, GENERIC.gamma, q)),
                                (col[b + 70], _mp_weight_Veps(0.8 * cmath.exp(0.6j), -1, b, 1,
                                                              GENERIC.gamma, q))):
                assert abs(got - expect) <= 1e-11 * abs(expect), b


@pytest.mark.parametrize("x", [1e-170, 1e-160])
def test_veps_table_refuses_an_argument_outside_double_range(x):
    # x^2 underflows to 0 at 1e-170 and q^2/x^2 overflows at 1e-160: refused
    # before the denominator is built, with no bare ZeroDivisionError
    gc = GammaContext.make_selected(0.5, CTX)
    with pytest.raises(OverflowGuard, match="outside double range"):
        weight_Veps_table(x, 1, [0], [0], gc, CTX)


def test_projector_algebra():
    m_w = 40
    mv = np.arange(-m_w, m_w + 1)
    tab_p = weight_Veps_table(1.0, 1, mv, mv, GENERIC, CTX)
    tab_m = weight_Veps_table(1.0, -1, mv, mv, GENERIC, CTX)
    br = np.array([bracket(GENERIC.gamma * Q ** int(m)) for m in mv])
    pp = br[:, None] * tab_p
    pm = br[:, None] * tab_m
    n = len(mv)
    ctr = slice(n // 2 - 20, n // 2 + 21)
    eye = np.eye(n)
    assert np.max(np.abs((pp + pm - eye)[ctr, ctr])) < 1e-8
    assert np.max(np.abs((pp @ pm)[ctr, ctr])) < 1e-8
    assert np.max(np.abs((pp @ pp - pp)[ctr, ctr])) < 1e-8


def test_opposite_parity_sector_sum_vanishes():
    for m in (-3, -2, 0, 1, 2):
        for mp in (-2, 1, 3, 4):
            if (m + mp) % 2:
                total = (weight_Veps(0.7, 1, m, mp, GENERIC, CTX)
                         + weight_Veps(0.7, -1, m, mp, GENERIC, CTX))
                assert abs(total) < 1e-12


def test_brace_gamma_independence():
    gammas = [0.6, 0.9 * cmath.exp(0.2j), 0.7 * cmath.exp(0.4j), CTX.q_pow_half(1)]
    assert brace_gamma_check(2, 1, 1, gammas, CTX).residual < 1e-9
    assert brace_gamma_check(0, 0, 0, gammas, CTX).residual < 1e-12
    r = brace_gamma_check(3, 2, 4, gammas[:2], CTX)
    assert r.residual < 1e-8
    # the lattice sum at each gamma is cross-checked against the closed form
    assert abs(brace(3, 2, 4, CTX)) > 0


def test_brace_gamma_gives_verdicts_past_nine_indices():
    # the kernel's cancellation refusal is the only index limit: large
    # triples that keep their digits at q = 0.4 are checked
    for t in ((9, 9, 9), (30, 30, 30), (60, 60, 60)):
        rep = brace_gamma_check(*t, [0.6], CTX)
        assert rep.params["res_brace_0"] < 1e-14
        assert rep.residual < 1e-8  # the registry's tolerance


def test_brace_gamma_residuals_of_an_empty_batch():
    assert brace_gamma_residuals([], [0.6], CTX) == []


def test_brace_gamma_batch_is_exact():
    gammas = [0.6, 0.9 * cmath.exp(0.2j), CTX.q_pow_half(1)]
    batch = [(0, 0, 0), (4, 4, 4), (2, 1, 1), (0, 3, 1), (4, 0, 2)]
    for gamma in gammas:
        *totals, norm = lattice_brace_sums([*batch, (0, 0, 0)], gamma, 30, CTX)[0]
        for t, total in zip(batch, totals):
            assert lattice_brace_sums([t, (0, 0, 0)], gamma, 30, CTX)[0] == [total, norm]
    for t, (worst, details) in zip(batch, brace_gamma_residuals(batch, gammas, CTX)):
        rep = brace_gamma_check(*t, gammas, CTX)
        assert rep.residual == worst
        assert {k: v for k, v in rep.params.items() if k.startswith("res_")} == details


def _windowed_lattice_sums(triples, gamma, q, window=60, dps=30):
    """The lattice sums on the fixed sites |m| <= window, in site order."""
    with mp.workdps(dps):
        q = mp.mpc(q)
        qh = mp.sqrt(q)
        gamma = mp.mpc(gamma)
        totals = [mp.mpc(0)] * len(triples)
        norm = mp.mpc(0)
        for m in range(-window, window + 1):
            xi = gamma * q ** m
            site = gamma ** m * qh ** (m * m)
            rows = list(islice(poly_rows(xi, q, qh, site), 5))  # a, b, c <= 4
            f = (-1) ** m * (xi - 1 / xi)
            for i, (a, b, c) in enumerate(triples):
                totals[i] += f * rows[a] * rows[b] * rows[c]
            norm += f * site ** 3
        return [complex(t) for t in totals], complex(norm)


@pytest.mark.parametrize("q", [0.4, -0.3, 0.3 + 0.1j, 0.7, -0.8, 0.9])
def test_lattice_sums_stop_at_their_tail(q):
    box = list(combinations_with_replacement(range(5), 3))
    ctx = QContext(q=q)
    for gamma in (0.6, 0.9 * cmath.exp(0.2j)):
        parts, sites = lattice_brace_sums([*box, (0, 0, 0)], gamma, 30, ctx)
        *totals, norm = map(complex, parts)
        ref_totals, ref_norm = _windowed_lattice_sums(box, gamma, q)
        for total, ref in zip(totals + [norm], ref_totals + [ref_norm]):
            assert abs(total - ref) <= 1e-13 * abs(ref)
        if q == 0.4:
            assert sites < 40  # a ±60 window walks 121


def test_brace_gamma_refuses_a_sum_that_cancels_its_digits():
    # (8, 0, 8) at q = -0.3 cancels about 30 of the 30 digits
    with pytest.raises(DomainError, match="cancels more than 22"):
        brace_gamma_check(8, 0, 8, [0.6, 0.9 * cmath.exp(0.2j)], QContext(q=-0.3))


def test_brace_lattice_tables_are_not_retained():
    contexts = []  # kept alive, so anything stored on a context shows

    def point(k):
        ctx = QContext(q=0.3 + 0.01 * k)
        contexts.append(ctx)
        brace_gamma_check(4, 3, 4, [0.6 * cmath.exp(0.1j * k)], ctx)
        brace(3, 4, 4, ctx, BraceMethod.SPIN_SUM)

    point(-1)  # imports and first-use set-up
    contexts.clear()
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(20):
            point(k)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the 20 contexts take ~7 KB; one kept row table of a point ~60 KB, so
    # a cache of the last few tables or a table per context fails this
    assert retained < 256 * 1024


def test_km_weight_symmetry_box():
    for gc in (GENERIC, GammaContext.make_selected(0.0, CTX)):
        for a in range(-5, 6):
            for b in range(-5, 6):
                v = km_V(0.7, a, b, gc, CTX)
                assert abs(v - km_V(0.7, b, a, gc, CTX)) < 1e-12
                assert abs(v * km_V(Q * Q / 0.7, a, b, gc, CTX) - 1.0) < 1e-12
                assert abs(km_V(Q, a, b, gc, CTX) - 1.0) < 1e-13
                expect = 1 / km_S(a, gc, CTX) if a == b else 0.0
                assert abs(km_V(1.0, a, b, gc, CTX) - expect) < 1e-12


def test_weight_symmetry_entry_is_relative_near_one():
    # at q = 0.97 the generic-gamma weights on the [-5, 5]^2 box reach
    # |V| ~ 1e8, so the symmetry component is relative to them; the default
    # residual is set by the V(q) component
    [near_one] = run_suite(RunConfig(q=0.97, filter="vgamma.weight_symmetry*"))
    assert near_one.verdict == "PASS" and near_one.residual < 1e-12
    [default] = run_suite(RunConfig(filter="vgamma.weight_symmetry*"))
    assert default.verdict == "PASS" and default.residual == 2.220446049250313e-15


def _mp_qratio(top, bot, p, n):
    """(top; p)_n / (bot; p)_n in mpmath, with (a; p)_{-n} = 1/(a p^{-n}; p)_n."""
    if n < 0:
        return _mp_qratio(bot * p ** n, top * p ** n, p, -n)
    return mp.fprod((1 - top * p ** k) / (1 - bot * p ** k) for k in range(n))


def _mp_km_V(x, m, mp_, g2, q):
    x = mp.mpc(x)
    q2 = q * q
    return complex((q / x) ** (2 * m) * _mp_qratio(x, q2 / x, q2, m - mp_)
                   * _mp_qratio(g2 * x, g2 * q2 / x, q2, m + mp_))


def test_km_weight_matches_an_mpmath_oracle():
    # the 41 x 41 grid of the bulk-table benchmark (q = 0.4, nu = 1/2)
    gc = GammaContext.make_selected(0.5, CTX)
    with mp.workdps(40):
        q = mp.mpf(Q)
        g2 = -q  # gamma = i q^{1/2}
        for x in (0.62 * cmath.exp(2.2j), 0.85 * cmath.exp(-0.7j)):
            x_mp = mp.mpc(x)
            ratio1 = {n: _mp_qratio(x_mp, q * q / x_mp, q * q, n) for n in range(-40, 41)}
            ratio2 = {n: _mp_qratio(g2 * x_mp, g2 * q * q / x_mp, q * q, n)
                      for n in range(-40, 41)}
            for a in range(-20, 21):
                for b in range(-20, 21):
                    expect = complex((q / x_mp) ** (2 * a) * ratio1[a - b] * ratio2[a + b])
                    got = km_V(x, a, b, gc, CTX)
                    assert abs(got - expect) <= 1e-13 * abs(expect), (x, a, b)


@pytest.mark.parametrize("x, m, mp_", [
    (50.0, -40, -40),  # 3.2315e-164: the factor ratios alone reach 1e-320
    (0.05, 100, 0),    # -1.4433e180
    (0.7, 80, -80),    # 4.5923e-40
])
def test_km_weight_far_from_one_matches_an_mpmath_oracle(x, m, mp_):
    gc = GammaContext.make_selected(0.5, CTX)
    with mp.workdps(40):
        expect = _mp_km_V(x, m, mp_, -mp.mpf(Q), mp.mpf(Q))
    assert abs(km_V(x, m, mp_, gc, CTX) - expect) <= 1e-12 * abs(expect)


def test_km_weight_outside_double_range_is_classified():
    gc = GammaContext.make_selected(0.5, CTX)
    with pytest.raises(OverflowGuard):
        km_V(1e-6, 40, 40, gc, CTX)
    # (q^2)^{-3} for the reciprocal extension overflows at q = 1e-60
    with pytest.raises(OverflowGuard):
        km_V(0.7, 0, 3, gc, QContext(q=1e-60))


def test_km_weight_is_the_same_in_any_order():
    # the 41 x 41 grid read entry by entry from fresh contexts, backwards
    # from one context, and again after that context's store dropped it
    x = 0.62 * cmath.exp(2.2j)
    spins = [(a, b) for a in range(-20, 21) for b in range(-20, 21)]
    fresh = {s: km_V(x, *s, GammaContext.make_selected(0.5, CTX), CTX) for s in spins}
    gc = GammaContext.make_selected(0.5, CTX)
    assert {s: km_V(x, *s, gc, CTX) for s in reversed(spins)} == fresh
    for k in range(_KM_CHAIN_KEYS):
        km_V(0.5 + 0.001 * k, 3, -2, gc, CTX)
    misses = gc._km_runs.cache_info().misses
    assert {s: km_V(x, *s, gc, CTX) for s in spins} == fresh
    assert gc._km_runs.cache_info().misses == misses + 1  # x had been dropped


def test_km_weight_threads_sharing_a_context():
    # four threads extend the same 120-factor chains of one context at once,
    # switching every microsecond; each reads the bits of a fresh context
    xs = [0.62 * cmath.exp(0.37j * k) for k in range(16)]
    fresh = [km_V(x, 60, 60, GammaContext.make_selected(0.5, CTX), CTX) for x in xs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            gc = GammaContext.make_selected(0.5, CTX)
            got = []
            threads = [threading.Thread(target=lambda: got.append(
                [km_V(x, 60, 60, gc, CTX) for x in xs])) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == [fresh] * 4
    finally:
        sys.setswitchinterval(interval)


def test_km_refusals_leave_later_weights_alone():
    # at gamma = 1 and x = q^2 both q-ratios have a pole in their first
    # factor, and at x = 1e-6 the weight (40, 40) leaves double range
    gc = GammaContext(gamma=1.0 + 0.0j)
    for _ in range(2):
        with pytest.raises(PoleHit):
            km_V(Q * Q, 1, 1, gc, CTX)
        with pytest.raises(OverflowGuard):
            km_V(1e-6, 40, 40, gc, CTX)
    for x, m, mp_ in ((Q * Q, 0, 0), (1e-6, 0, 0), (1e-6, 3, -2), (0.7, 2, -1)):
        assert km_V(x, m, mp_, gc, CTX) == km_V(x, m, mp_, GammaContext(gamma=1.0 + 0.0j), CTX)


def test_km_weight_where_q_squared_underflows():
    # q^2 = 0: the factors of a negative index, q^{-2j} apart, are refused
    ctx = QContext(q=1e-200)
    gc = GammaContext.make_selected(0.5, ctx)
    with pytest.raises(OverflowGuard):
        km_V(0.7, 0, 3, gc, ctx)
    assert km_V(0.7, 0, 0, gc, ctx) == 1.0
    assert km_V(0.7, 3, 0, gc, ctx) == 0.0  # (q/x)^6 underflows


def test_km_chain_store_is_bounded():
    gc = GammaContext.make_selected(0.5, CTX)
    for k in range(100):
        km_V(0.5 * cmath.exp(0.06j * k), 4, -3, gc, CTX)
    info = gc._km_runs.cache_info()
    assert info.maxsize == _KM_CHAIN_KEYS == 16
    assert info.currsize == _KM_CHAIN_KEYS and info.misses == 100
    assert GammaContext.make_selected(0.5, CTX) == gc  # the store is not part of its value


def test_km_weight_set_bundle():
    gc = GammaContext.make_selected(0.0, CTX)
    assert abs(km_V(Q, 2, -1, gc, CTX) - 1.0) < 1e-13
    assert abs(km_S(0, gc, CTX) - 1.0) < 1e-15
    assert abs(km_Phi(1.0, gc, CTX) - 1.0) < 1e-12


def test_km_pole_reported():
    # denominator factor (gamma^2 q^2 / x; q^2)_{m+m'} vanishes here
    gc = GammaContext(gamma=1.0 + 0.0j)
    with pytest.raises(PoleHit):
        km_V(Q * Q, 1, 1, gc, CTX)


def test_km_phi_product_equals_definition():
    # Phi(x) is defined as 1 / (2 [gamma] V_x^{(+)}(0, 0))
    for gc in (GENERIC, GammaContext.make_selected(0.0, CTX)):
        a = km_Phi(0.7, gc, CTX)
        b = 1.0 / (2 * bracket(gc.gamma) * weight_Veps(0.7, 1, 0, 0, gc, CTX))
        assert abs(a - b) < 1e-12 * abs(a)


def test_km_summation_formula():
    gc = GammaContext.make_selected(0.0, CTX)
    assert km_summation_check(0.7, 0.8, 0, 0, gc, CTX).residual < 1e-8
    assert km_summation_check(0.7, 0.8, 2, -1, gc, CTX).residual < 1e-8
    assert km_inversion_check(0.7, 1, 1, gc, CTX).residual < 1e-8
    assert km_inversion_check(0.7, 1, 3, gc, CTX).residual < 1e-8


def test_km_summation_refuses_a_sum_that_does_not_decay():
    # the summands shrink like (|q| / |xy|)^{2|b|}: |xy| = 0.56 < |q| = 0.6
    ctx = QContext(q=0.6)
    gc = GammaContext.make_selected(0.0, ctx)
    with pytest.raises(DomainError, match=r"\|xy\| > \|q\| = 0\.6, got \|xy\| = 0\.56"):
        km_summation_check(0.7, 0.8, 0, 0, gc, ctx)


def test_star_triangle_selected_gamma():
    for nu in (0.0, 0.5):
        gc = GammaContext.make_selected(nu, CTX)
        assert star_triangle_km(0.7, 0.6, 0, 0, 0, gc, CTX).residual < 1e-7
        assert star_triangle_km(0.7, 0.6, 1, -1, 2, gc, CTX).residual < 1e-7


def test_star_triangle_keeps_the_digits_of_sides_that_cancel():
    # at q = -0.8, nu = 1/2 the sums over d > 0 and d < 0 are about -6.2e5
    # and +6.2e5 and the total is -2.18; two walks each stopped relative to
    # its own side left the total 3.8e-7 off (a mpmath sum agrees with the
    # closed-form side to 1.6e-10)
    ctx = QContext(q=-0.8)
    gc = GammaContext.make_selected(0.5, ctx)
    assert star_triangle_km(0.7, 0.6, 0, 0, 0, gc, ctx).residual < 1e-8


def test_star_triangle_generic_gamma_fails():
    gc = GammaContext(gamma=0.8 * cmath.exp(0.3j), m_window=40)
    assert star_triangle_km(0.7, 0.6, 1, -1, 2, gc, CTX).residual > 1e-3
    assert star_triangle_km(0.7, 0.6, 2, 1, -1, gc, CTX).residual > 1e-3


def test_kappa_site_value():
    gci = GammaContext.make_selected(0.0, CTX)
    gch = GammaContext.make_selected(0.5, CTX)
    for gc in (gci, gch):
        assert abs(km_kappa(Q, gc, CTX) * km_kappa(1.0, gc, CTX) - 1.0) < 1e-10
    # both signs of the half-integer label share one kappa
    gcm = GammaContext.make_selected(-0.5, CTX)
    assert abs(km_kappa(0.7, gch, CTX) - km_kappa(0.7, gcm, CTX)) < 1e-14


def test_partition_function_equations():
    for nu in (0.0, 0.5):
        gc = GammaContext.make_selected(nu, CTX)
        for x in (0.6, 0.75):
            r = km_partition_checks(x, gc, CTX)
            assert r.residual < 1e-9
            assert r.params["res_site"] < 1e-10


def test_partition_checks_at_tiny_q_give_a_verdict():
    # q^{2n} / x^n as a quotient of two powers is 0/0 at q = 1e-60 and
    # x = q/0.6; the series takes (q^2/x)^n
    ctx = QContext(q=1e-60)
    for nu in (0.0, 0.5):
        gc = GammaContext.make_selected(nu, ctx)
        for x in (0.6, 0.75):
            assert km_partition_checks(x, gc, ctx).residual < 1e-9


def test_partition_default_reports_are_pinned():
    # the residuals of the default vgamma.partition reports; a change that
    # moves them lists the move in CHANGES.md and updates them here
    pinned = {(0.0, 0.6): (1.1102230246251565e-16, 2.1878336902917917e-16, 0.0,
                           1.1102230246251565e-16),
              (0.0, 0.75): (0.0, 2.3317296232434356e-16, 0.0, 0.0),
              (0.5, 0.6): (0.0, 9.27228592704974e-15, 2.220446049250313e-16,
                           1.1102230246251565e-16),
              (0.5, 0.75): (0.0, 5.804272111195346e-14, 2.220446049250313e-16, 0.0)}
    for (nu, x), want in pinned.items():
        r = km_partition_checks(x, GammaContext.make_selected(nu, CTX), CTX)
        got = tuple(r.params[k] for k in ("res_inversion", "res_kappa", "res_site",
                                          "res_gamma_shift"))
        assert got == want, (nu, x)


def test_partition_series_brute_force_oracle():
    # 200 explicit terms of the nu = 0 series against the library value
    x, q = 0.7, Q
    total = 0.0
    for n in range(1, 201):
        total += (-(q ** (2 * n)) * (x ** (2 * n) - q ** (4 * n) / x ** (2 * n))
                  / (n * (1 - q ** (4 * n)) * (1 + q ** (2 * n))))
    gc = GammaContext.make_selected(0.0, CTX)
    assert abs(km_log_z(x, gc, CTX) - total) < 1e-12


def test_partition_series_refuses_x_off_its_annulus():
    # terms (q x)^n and (q^3/x)^n decay only for |q|^3 < |x| < 1/|q|
    ctx = QContext(q=0.9)
    for nu in (0.0, 0.5):
        gc = GammaContext.make_selected(nu, ctx)
        for x in (0.6, 1.2):
            with pytest.raises(DomainError):
                km_log_z(x, gc, ctx)


def test_partition_sign_label_identical():
    gch = GammaContext.make_selected(0.5, CTX)
    gcm = GammaContext.make_selected(-0.5, CTX)
    assert km_log_z(0.7, gch, CTX) == km_log_z(0.7, gcm, CTX)


def test_kappa_half_step_recursion():
    # ratio of the two selected closed forms matches the gamma-shift product
    from qkm.qseries import qpoch_inf_multi
    gci = GammaContext.make_selected(0.0, CTX)
    gch = GammaContext.make_selected(0.5, CTX)
    q2 = Q * Q
    for x in (0.6, 0.85):
        lhs = km_kappa(x, gch, CTX) / km_kappa(x, gci, CTX)
        g2 = gci.gamma ** 2
        rhs = (qpoch_inf_multi((q2 * g2 * x, q2 / (g2 * x)), q2, CTX)
               / qpoch_inf_multi((Q * x / g2, Q ** 3 * g2 / x), q2, CTX))
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_reality_on_physical_points():
    # at gamma = i the bold weight is real for real x even though the
    # intermediates are complex
    gc = GammaContext.make_selected(0.0, CTX)
    for a in range(-3, 4):
        for b in range(-3, 4):
            v = km_V(0.7, a, b, gc, CTX)
            assert abs(v.imag) < 1e-12 * max(abs(v), 1.0)
