"""Tests for the Fock-space sector: spectra, braces, weights, lattice relations."""

import cmath
import gc
import importlib
import pkgutil
import tracemalloc
import warnings
from itertools import combinations_with_replacement, product

import mpmath as mp
import numpy as np
import pytest

import qkm
from qkm import fock
from qkm.context import QContext
from qkm.errors import DomainError, OverflowGuard, TruncationExhausted
from qkm.fock import (SPECTRAL_BRANCHES, BraceMethod, FockRepParams, Regularisation,
                      box_intertwining_check, brace, brace_spin_sums,
                      branch_limits, build_truncated_H, cg_table, fock_norm_const,
                      kappa_fock, partition_series_fock, rll_check, s_measure,
                      spectral_experiment, sqrt_qpoch2_table, star_triangle_fock,
                      transitivity_check_fock, vbasis_operator_matrices,
                      vform_matrices, weight_table, weight_table_from_overlaps,
                      weight_V_fock, weight_V_fock_from_overlaps, _brace_closed)
from qkm.orthopoly import PolyEvalMethod, lattice_brace_sums, poly_P
from qkm.report import relative_residual
from qkm.qseries import (bracket, qpoch_finite_table, qpoch_inf,
                         qpoch_inf_multi, tail_walk)
from qkm.vgamma import GammaContext, km_V, vgamma_decomposition

CTX = QContext(q=0.4)
Q = 0.4


def test_truncated_h_transcription():
    # N = 1, boundary rule III: plain 2x2 with no feedback
    h = build_truncated_H(1, Regularisation.III, CTX)
    assert h[0, 0] == 0 and h[1, 1] == 0
    assert abs(h[0, 1] - Q ** -0.5 * np.sqrt(1 - Q ** 2)) < 1e-15
    assert abs(h[1, 0] + Q ** -1.5 * np.sqrt(1 - Q ** 2)) < 1e-15


def test_spectral_branches_reg_i():
    vals = {n: spectral_experiment(Q, n, Regularisation.I) for n in (8, 24)}
    errs = {n: np.abs(v[:SPECTRAL_BRANCHES] - branch_limits(Q, Regularisation.I))
            for n, v in vals.items()}
    # errors shrink with N and hit the closed-form limits
    assert np.max(errs[24]) < 1e-5
    assert np.max(errs[24]) < np.max(errs[8])
    assert abs(vals[24][0] - (Q ** 0.5 + Q ** -0.5)) < 1e-6


def test_spectral_reg_ii_negates_reg_i():
    vals1 = spectral_experiment(Q, 12, Regularisation.I)
    vals2 = spectral_experiment(Q, 12, Regularisation.II)
    for e in vals1:  # spectra are negatives as multisets
        assert np.min(np.abs(vals2 + e)) < 1e-9 * max(abs(e), 1.0)
    # oracle: conjugating by diag((-1)^a) maps rule I to minus rule II
    h1 = build_truncated_H(12, Regularisation.I, CTX)
    h2 = build_truncated_H(12, Regularisation.II, CTX)
    d = np.diag([(-1.0) ** a for a in range(13)])
    assert np.max(np.abs(d @ h1 @ d + h2)) < 1e-12


def test_spectral_reg_iii_splits():
    odd_branches, even_branches = (
        np.abs(spectral_experiment(Q, n, Regularisation.III)[:SPECTRAL_BRANCHES])
        for n in (31, 32))
    odd = [abs(Q ** (2 * m + 1) - Q ** (-2 * m - 1)) for m in range(2)]
    even = [abs(Q ** (2 * m) - Q ** (-2 * m)) for m in range(2)]
    assert abs(odd_branches[0] - odd[0]) < 1e-6
    assert abs(odd_branches[2] - odd[1]) < 1e-4
    assert abs(even_branches[0] - even[0]) < 1e-6
    assert np.max(np.abs(odd_branches - even_branches)) > 0.1


def test_spectral_experiment_refuses_too_few_eigenvalues_and_rule_iii_limits():
    with pytest.raises(DomainError, match="N = 2"):
        spectral_experiment(Q, 2, Regularisation.I)
    assert len(spectral_experiment(Q, 3, Regularisation.I)) == SPECTRAL_BRANCHES
    with pytest.raises(DomainError, match="rule III"):
        branch_limits(Q, Regularisation.III)


def test_vform_zero_row():
    chi, _ = vform_matrices(6, 10, CTX)
    for m in range(11):
        expect = CTX.q_pow_half(m * (m + 1))
        assert abs(chi[0, m] - expect) < 1e-14


def test_completeness_m_sum():
    for q in (0.3, 0.4, 0.5):
        ctx = QContext(q=q)
        chi, chi_bar = vform_matrices(12, 50, ctx)
        meas = np.array([s_measure(m, ctx) for m in range(51)])
        ident = np.einsum("am,m,mb->ab", chi, meas, chi_bar) / fock_norm_const(ctx)
        assert np.max(np.abs(ident - np.eye(13))) < 1e-8


def test_completeness_rows_stay_finite_at_negative_q():
    # at |q| = 0.3 the rows without q^{m(m+1)/2} overflow before m = 50,
    # so that factor has to ride in the recursion's start value
    ctx = QContext(q=-0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi, chi_bar = vform_matrices(14, 50, ctx)
    assert np.all(np.isfinite(chi))
    meas = np.array([s_measure(m, ctx) for m in range(51)])
    ident = np.einsum("am,m,mb->ab", chi, meas, chi_bar) / fock_norm_const(ctx)
    assert np.max(np.abs(ident - np.eye(15))) < 1e-8


def test_completeness_refuses_sites_that_underflow():
    # xi = q^{m+1/2} = 1e-(8m+4) at q = 1e-8: 1/xi overflows from m = 39 and
    # xi is 0 from m = 40, lost range rather than a domain refusal of P_n
    with pytest.raises(OverflowGuard, match=r"39 <= m <= 50 at \|q\| = 1e-08"):
        vform_matrices(12, 50, QContext(q=1e-8))
    with pytest.raises(OverflowGuard, match=r"5 <= m <= 50"):
        vform_matrices(12, 50, QContext(q=1e-60))
    assert np.all(np.isfinite(vform_matrices(12, 38, QContext(q=1e-8))[0]))


def test_antisymmetric_window_sum():
    m_w = 30
    chi, chi_bar = vform_matrices(8, m_w - 1, CTX, m_min=-m_w)
    br = np.array([bracket(CTX.q_pow_half(2 * m + 1)) for m in range(-m_w, m_w)])
    sums = np.einsum("am,m,mb->ab", chi, br, chi_bar)
    assert np.max(np.abs(sums)) < 1e-10 * np.max(np.abs(chi)) ** 2 * np.max(np.abs(br))


def test_brace_base_values():
    assert abs(brace(3, 2, 0, CTX) - Q ** 6) < 1e-15
    # by-hand value from one recursion step: {1,1,0} = q, {0,0,0} = 1
    hand = Q ** 3 - (1 - Q * Q) ** 2 / Q
    for method in BraceMethod:
        assert abs(brace(1, 1, 1, CTX, method) - hand) < 1e-10


def test_brace_method_agreement_small_box():
    for q in (0.3, 0.5):
        ctx = QContext(q=q)
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    vals = [brace(a, b, c, ctx, m) for m in BraceMethod]
                    scale = max(abs(vals[1]), 1e-300)
                    assert max(abs(vals[0] - vals[1]),
                               abs(vals[2] - vals[1])) / scale < 1e-11


@pytest.mark.parametrize("q", [0.3, 0.5, 0.35 * cmath.exp(0.2j)])
def test_brace_spin_sums_batch_is_exact(q):
    ctx = QContext(q=q)
    box = list(combinations_with_replacement(range(7), 3))
    batch = brace_spin_sums(box, ctx)
    # a value depends on its own triple only: not on the batch's depth,
    # its order, or the triples that stop earlier or later
    assert batch == [brace(*t, ctx, BraceMethod.SPIN_SUM) for t in box]
    assert brace_spin_sums(box[::-1], ctx) == batch[::-1]


@pytest.mark.parametrize("q", [0.4, -0.3, 0.3 + 0.1j, 0.7])
def test_brace_spin_sums_are_the_lattice_kernel_at_gamma_q_half(q):
    # the Fock route is the one-sided lattice sum at gamma = q^{1/2}; the
    # gamma route's bilateral sum there, over its a=b=c=0 norm, agrees
    ctx = QContext(q=q)
    box = list(combinations_with_replacement(range(7), 3))
    *totals, norm = lattice_brace_sums([*box, (0, 0, 0)], ctx.q_half, 30, ctx)[0]
    for spin, total in zip(brace_spin_sums(box, ctx), totals):
        assert abs(spin - complex(total / norm)) <= 1e-10 * abs(spin)
    assert brace_spin_sums([], ctx) == []


def test_brace_spin_sums_refuse_a_sum_that_cancels_its_digits():
    box = list(combinations_with_replacement(range(7), 3))
    # the [0,6]^3 box loses 40.7 of its 40 digits at q = 0.05
    with pytest.raises(DomainError, match="cancels more than 32 of its 40 digits"):
        brace_spin_sums(box, QContext(q=0.05))
    assert len(brace_spin_sums(box, QContext(q=0.2))) == len(box)  # 25.5 digits lost


@pytest.mark.parametrize("r", [0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95])
def test_spin_sum_norm_matches_mpmath(r):
    # the Fock route's normaliser is the (0, 0, 0) walk of its own lattice,
    # and it keeps the working precision, near the real axis and away from it
    for phase in (0.1, 1.2, -2.5):
        q = r * cmath.exp(1j * phase)
        [norm], _ = lattice_brace_sums([(0, 0, 0)], None, 40, QContext(q=q))
        with mp.workdps(60):
            mq = mp.mpc(q)
            want = -mp.qp(mq, mq) / mp.sqrt(mq)
            got = mp.mpc(mp.mpf(str(norm.real)), mp.mpf(str(norm.imag)))
            assert abs(got - want) <= mp.mpf(10) ** -40 * abs(want)


def test_brace_recursion_memo_lives_in_one_call():
    # nothing is kept between calls: no function of the library carries a
    # process-wide cache, so a fresh context per call fills none
    modules = [importlib.import_module(f"qkm.{info.name}")
               for info in pkgutil.iter_modules(qkm.__path__)]
    cached = [f"{module.__name__}.{name}"
              for module in modules for name, value in vars(module).items()
              if callable(value) and hasattr(value, "cache_info")]
    assert cached == []
    ctx = QContext(q=0.35 * cmath.exp(0.2j))
    first = brace(3, 2, 4, ctx, BraceMethod.RECURSION)
    assert brace(3, 2, 4, QContext(q=ctx.q), BraceMethod.RECURSION) == first
    assert abs(first - brace(3, 2, 4, ctx)) <= 1e-12 * abs(first)


def test_q_tables_are_not_retained():
    contexts = []  # kept alive, so anything stored on a context shows

    def point(k):
        ctx = QContext(q=0.3 + 0.01 * k)
        contexts.append(ctx)
        poly_P(8, 0.7 * cmath.exp(0.1j * k), ctx, PolyEvalMethod.EXPLICIT_SUM)
        vform_matrices(10, 20, ctx)
        vgamma_decomposition(GammaContext(gamma=0.7 * cmath.exp(0.4j), m_window=10),
                             1.1, 8, ctx)
        cg_table(6, 2, P1, P2, OMEGA, ctx)
        weight_V_fock(0.7, 1, 2, ctx)
        km_V(0.7, 5, -3, GammaContext(gamma=0.7 * cmath.exp(0.4j)), ctx)

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
    # the 20 contexts take ~7 KB; caching (q^2;q^2)_n, its square roots
    # and N_F per nome keeps about 6 KB a point, 120 KB in all
    assert retained < 32 * 1024


def test_brace_past_index_thirty_on_every_route():
    # the log-peak test alone bounds double range: {31, 0, 0} = q^0 is a
    # one-term k-sum, and at (60, 60, 60) the three routes agree
    for method in BraceMethod:
        assert abs(brace(31, 0, 0, CTX, method) - 1) < 1e-12
    vals = [brace(60, 60, 60, CTX, method) for method in BraceMethod]
    assert abs(vals[0] / 4.775e23 - 1) < 1e-3
    assert max(abs(v - vals[1]) for v in vals) < 1e-11 * abs(vals[1])


def test_brace_guard_is_its_k_loop():
    # the guard reads the log-peak at k = min(a, b, c) alone; it refuses
    # exactly where the largest term of the k-loop leaves double range
    for q in (1e-60, 1e-8, 0.05, 0.4, -0.97, 0.3 + 0.1j):
        ln_inv_q = np.log(1.0 / abs(q))
        for a, b, c in product(range(21), repeat=3):
            loop = max((2 * k * (a + b + c) + k - 3 * k * k - (a * b + a * c + b * c)) * ln_inv_q
                       for k in range(min(a, b, c) + 1))
            try:
                fock._brace_guard(a, b, c, q)
                refused = False
            except OverflowGuard:
                refused = True
            assert refused == (loop > 690.0), (q, a, b, c)
    with pytest.raises(DomainError):
        fock._brace_guard(2, -1, 3, 0.4)


def test_brace_recursion_runs_bottom_up_to_any_depth():
    # {0, 0, c} = 1: a call-stack descent ran out of frames near c = 1000
    assert brace(0, 0, 1200, CTX, BraceMethod.RECURSION) == 1

    def descent(a, b, c, q):
        if a < 0 or b < 0:
            return 0.0 + 0.0j
        if c == 0:
            return q ** (a * b)
        return (q ** (a + b) * descent(a, b, c - 1, q)
                - (1 - q ** (2 * a)) * (1 - q ** (2 * b)) * descent(a - 1, b - 1, c - 1, q) / q)

    # the same expression at every state, so the same bits as the descent
    ctx = QContext(q=0.35 * cmath.exp(0.2j))
    for a, b, c in product(range(5), repeat=3):
        assert brace(a, b, c, ctx, BraceMethod.RECURSION) == descent(a, b, c, ctx.q)


def test_brace_permutation_symmetry():
    v = brace(3, 1, 2, CTX)
    assert brace(2, 3, 1, CTX) == v  # closed form is manifestly symmetric
    assert abs(brace(1, 2, 3, CTX, BraceMethod.RECURSION) - v) < 1e-12
    assert abs(brace(2, 1, 3, CTX, BraceMethod.SPIN_SUM) - v) < 1e-12


P1 = FockRepParams(omega=1.2, lam=0.9)
P2 = FockRepParams(omega=0.8, lam=1.1)
OMEGA = 1.05


def test_cg_vacuum_closed_form():
    c0 = cg_table(4, 0, P1, P2, OMEGA, CTX)
    norms = sqrt_qpoch2_table(CTX, 4)
    assert c0.shape == (5, 5)
    for a in range(5):
        for b in range(5):
            f1 = OMEGA / (P1.lam * P2.omega)
            f2 = P1.omega / (P2.lam * OMEGA)
            expect = f1 ** a * f2 ** b * Q ** (a * b) / (norms[a] * norms[b])
            assert abs(c0[a, b] - expect) < 1e-13


def test_sqrt_qpoch2_table_is_the_principal_root():
    for q in (0.4, -0.3, 0.3 + 0.1j, 0.35 * cmath.exp(2.5j)):
        ctx = QContext(q=q)
        roots = sqrt_qpoch2_table(ctx, 6)
        assert roots.shape == (7,)
        for n, root in enumerate(roots):
            # each root reads the prefix table of its own length
            assert root == np.sqrt(qpoch_finite_table(q * q, q * q, n)[n] + 0j)
            assert root.real > 0


def test_cg_table_reads_the_table_of_its_largest_label():
    # c above n still finds its norm, and every entry is f1^a f2^b f3^c
    # {a,b,c} / sqrt((q^2;q^2)_a (q^2;q^2)_b (q^2;q^2)_c)
    tab = cg_table(2, 5, P1, P2, OMEGA, CTX)
    norms = sqrt_qpoch2_table(CTX, 5)
    f1 = OMEGA / (P1.lam * P2.omega)
    f2 = P1.omega / (P2.lam * OMEGA)
    f3 = -Q * P2.omega / P1.omega
    for a in range(3):
        for b in range(3):
            expect = (f1 ** a * f2 ** b * f3 ** 5 * brace(a, b, 5, CTX)
                      / (norms[a] * norms[b] * norms[5]))
            assert abs(tab[a, b] - expect) <= 1e-14 * abs(expect)


def test_cg_vacuum_annihilation():
    dim = 12
    c0 = cg_table(dim, 0, P1, P2, OMEGA, CTX)
    worst = 0.0
    for a in range(dim - 1):
        for b in range(dim - 1):
            ann = (P1.lam * np.sqrt(1 - Q ** (2 * a + 2)) * P2.lam
                   * np.sqrt(1 - Q ** (2 * b + 2)) * c0[a + 1, b + 1]
                   - P1.omega / P2.omega * Q ** (a + b + 1) * c0[a, b])
            worst = max(worst, abs(ann))
    assert worst < 1e-12


def test_cg_raising_identity():
    dim = 10
    prev = cg_table(dim, 0, P1, P2, OMEGA, CTX)
    for c in range(6):
        nxt = cg_table(dim, c + 1, P1, P2, OMEGA, CTX)
        for a in range(1, dim - 1):
            for b in range(1, dim - 1):
                lhs = (np.sqrt((1 - Q ** (2 * a)) * (1 - Q ** (2 * b)))
                       / (P1.lam * P2.lam) * prev[a - 1, b - 1]
                       - P2.omega / P1.omega * Q ** (a + b + 1) * prev[a, b])
                rhs = np.sqrt(1 - Q ** (2 * c + 2)) * nxt[a, b]
                assert abs(lhs - rhs) < 1e-12
        prev = nxt


def test_brace_spin_sum_route_matches_cg_kernel():
    # the weighted eigenbasis triple sum equals (-q)^c {a,b,c} / norms
    chi, chi_bar = vform_matrices(10, 60, CTX)
    meas = np.array([s_measure(m, CTX) for m in range(61)])
    norm = -CTX.q_pow_half(-1) * qpoch_inf(Q, Q, CTX)  # -q^{-1/2} (q; q)_inf
    roots = sqrt_qpoch2_table(CTX, 4)
    for (a, b, c) in ((0, 0, 0), (1, 2, 1), (3, 1, 2), (4, 4, 3)):
        lhs = np.sum(chi[a] * chi[b] * meas * chi_bar[:, c]) / norm
        rhs = (-Q) ** c * brace(a, b, c, CTX) / (roots[a] * roots[b] * roots[c])
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_weight_closed_vs_overlap_sum():
    for (x, m, mp) in ((0.5, 0, 0), (0.8, 2, 3), (0.7 + 0.2j, 1, 4)):
        a = weight_V_fock(x, m, mp, CTX)
        b = weight_V_fock_from_overlaps(x, m, mp, CTX)
        assert abs(a - b) < 1e-8 * abs(a)


def test_weight_delta_normalisation():
    for m in range(4):
        for mp in range(4):
            v = weight_V_fock(1.0, m, mp, CTX)
            expect = (-1) ** m / bracket(CTX.q_pow_half(2 * m + 1)) if m == mp else 0.0
            assert abs(v - expect) < 1e-10


def test_weight_symmetries():
    x = 0.7
    v = weight_V_fock(x, 1, 3, CTX)
    assert abs(v - weight_V_fock(x, 3, 1, CTX)) < 1e-14
    assert abs(v - weight_V_fock(x, -2, 3, CTX)) < 1e-14


def test_weight_product_relation():
    z = 0.6
    rhs = (fock_norm_const(CTX) ** -2
           * qpoch_inf_multi((z, Q * Q / z), Q, CTX)
           / qpoch_inf_multi((-z / Q, -Q / z), Q, CTX))
    for m, mp in ((0, 0), (1, 2), (3, 1)):
        lhs = weight_V_fock(z, m, mp, CTX) * weight_V_fock(Q * Q / z, m, mp, CTX)
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)


def test_weight_table_matches_scalar():
    tab = weight_table(0.7, range(4), range(4), CTX)
    for m in range(4):
        for mp in range(4):
            assert abs(tab[m, mp] - weight_V_fock(0.7, m, mp, CTX)) < 1e-13


@pytest.mark.parametrize("x", [1e-320, 1e-160])
def test_weight_table_refuses_an_argument_outside_double_range(x):
    # 1/x is infinite at 1e-320 and q^2/x^2 at 1e-160: refused before the
    # denominator's product is walked, not reported as a truncation failure
    with pytest.raises(OverflowGuard, match="outside double range"):
        weight_table(x, [0], [0], CTX)


def test_wide_weight_table_corners_match_an_mpmath_oracle():
    # the corners of a 161-spin window, where each log q-product takes its
    # longest chain, against the closed form in 40 digits
    window = np.arange(-80, 81)
    with mp.workdps(40):
        q = mp.mpf(Q)
        q2 = q * q
        norm = -mp.qp(q, q2) ** 2 * mp.qp(q2, q2) / mp.sqrt(q)
        for x in (0.7 * cmath.exp(0.9j), 0.55):
            tab = weight_table(x, window, window, CTX)
            y = 1 / mp.mpc(x)
            for i, j in product((0, 160), repeat=2):
                a, b = int(window[i]), int(window[j])
                expect = q ** ((a * (a + 1) + b * (b + 1)) // 2) / (mp.qp(q2 * y * y, q2) * norm)
                for e in (2 + a - b, 2 - a + b, 3 + a + b, 1 - a - b):
                    expect *= mp.qp(y * q ** e, q2)
                expect = complex(expect)
                assert abs(tab[i, j] - expect) <= 1e-11 * abs(expect), (x, a, b)


def test_transitivity():
    assert transitivity_check_fock(0.8, 0.7, 0, 0, CTX).residual < 1e-10
    assert transitivity_check_fock(0.8, 0.7, 2, 1, CTX).residual < 1e-10


def test_transitivity_delta_collapse():
    # y = 1 turns the sum into the delta measure
    assert transitivity_check_fock(0.8, 1.0, 1, 1, CTX).residual < 1e-10


def test_transitivity_sum_grown_in_blocks_equals_one_table():
    # the walk reads its summands from tables grown 16, 32, 64 sites at a
    # time; read from one table over the sites it summed, the same walk
    # gives the same sum bit for bit
    for x, y in ((0.8, 0.7), (0.5 + 0.4j, 0.9 - 0.2j)):
        r = transitivity_check_fock(x, y, 1, 2, CTX)
        sites = range(r.params["m_sum"] + 1)
        assert len(sites) > 48  # past the second block
        row_x = weight_table(x, [1], sites, CTX)[0].tolist()
        row_y = weight_table(y, sites, [2], CTX)[:, 0].tolist()
        walk = tail_walk((vx * s_measure(k, CTX) * vy
                          for k, vx, vy in zip(sites, row_x, row_y)), CTX)
        assert walk.terms == len(sites)
        rhs = weight_V_fock(complex(x) * complex(y), 1, 2, CTX)
        assert relative_residual(walk.value, rhs) == r.residual


def test_transitivity_inverse_pair():
    # x y = 1 reproduces the delta-normalised weight
    x, m, mpp = 0.8, 1, 1
    row_x = weight_table(x, [m], range(90), CTX)[0]
    row_y = weight_table(1 / x, range(90), [mpp], CTX)[:, 0]
    meas = np.array([s_measure(k, CTX) for k in range(90)])
    lhs = np.sum(row_x * meas * row_y)
    expect = (-1) ** m / bracket(CTX.q_pow_half(2 * m + 1))
    assert abs(lhs - expect) < 1e-9


def test_transitivity_gives_up_at_max_terms():
    with pytest.raises(TruncationExhausted):
        transitivity_check_fock(0.8, 0.7, 0, 0, QContext(q=Q, max_terms=40))


def test_transitivity_refuses_a_sum_that_does_not_decay():
    # the middle-spin sum shrinks like (|q| / |xy|)^k; |xy| = 0.4 = |q| is refused
    with pytest.raises(DomainError, match=r"\|xy\| > \|q\| = 0\.4, got \|xy\| = 0\.4"):
        transitivity_check_fock(0.8, 0.5, 0, 0, CTX)
    assert transitivity_check_fock(0.8, 0.55, 0, 0, CTX).residual < 1e-10


def test_star_triangle_physical_regime():
    ctx = QContext(q=-0.3)
    # x y = -q puts the first acceptance point on the delta boundary
    r = star_triangle_fock(0.5, 0.6, [(0, 0, 0)], ctx)
    assert r.params["boundary"] is True and r.residual < 1e-8
    assert star_triangle_fock(0.5, 0.6, [(2, 1, 3)], ctx).residual < 1e-8
    r = star_triangle_fock(0.45, 0.7, [(2, 1, 3)], ctx)
    assert r.params["boundary"] is False and r.residual < 1e-8


def test_star_triangle_generic_complex_point():
    ctx = QContext(q=0.35 * cmath.exp(0.2j))
    assert star_triangle_fock(0.6, 0.55 + 0.1j, [(1, 0, 2)], ctx).residual < 1e-8


def test_star_triangle_negative_control():
    ctx = QContext(q=-0.3)
    r = star_triangle_fock(0.45, 0.7, [(2, 1, 3)], ctx, perturb_r=0.01)
    assert r.residual > 1e-3


@pytest.mark.parametrize("x, y, boundary", [(0.5, 0.6, True), (0.45, 0.7, False)])
def test_star_triangle_box_reports_its_worst_triple(x, y, boundary):
    ctx = QContext(q=-0.3)
    box = list(product(range(3), repeat=3))
    r = star_triangle_fock(x, y, box, ctx)
    assert r.params["boundary"] is boundary and r.residual < 1e-8
    assert r.params["worst_at"] in box
    assert star_triangle_fock(x, y, box, ctx, perturb_r=0.01).residual > 1e-3


def test_star_triangle_refuses_negative_spins():
    # a negative spin would index its table from the end
    with pytest.raises(DomainError):
        star_triangle_fock(0.45, 0.7, [(-2, 1, 1)], QContext(q=-0.3))


def test_star_triangle_box_checks_the_tail_of_each_triple():
    box = list(product(range(3), repeat=3))
    with pytest.raises(TruncationExhausted):
        star_triangle_fock(0.45, 0.7, box, QContext(q=-0.3, max_terms=15))
    # at q = 0.9 the star sums rise to about 1e18 before they decay, and
    # keep too few digits for the tolerance: refused, not a FAIL at 1.0
    with pytest.raises(DomainError, match="star sum loses 1[0-9].[0-9] of 16 digits"):
        star_triangle_fock(0.45, 0.7, box, QContext(q=0.9, tol_identity=1e-8))


def test_partition_series():
    assert abs(partition_series_fock(Q, CTX)) < 1e-14
    x = 0.7
    assert abs(partition_series_fock(x, CTX)
               + partition_series_fock(Q * Q / x, CTX)) < 1e-12


def test_partition_series_refuses_x_off_its_annulus():
    # terms x^n and (q^2/x)^n decay only for |q|^2 < |x| < 1
    ctx = QContext(q=0.9)
    assert abs(partition_series_fock(0.9, ctx)) < 1e-12
    for x in (0.7, 1.2, -0.8):
        with pytest.raises(DomainError):
            partition_series_fock(x, ctx)


def test_partition_product_consistency():
    x = 0.7
    kk = (kappa_fock(x, CTX) * kappa_fock(Q * Q / x, CTX) / fock_norm_const(CTX) ** 2)
    lhs = weight_V_fock(x, 2, 1, CTX) * weight_V_fock(Q * Q / x, 2, 1, CTX)
    assert abs(kk - lhs) < 1e-9 * abs(kk)


def test_rll():
    assert rll_check(1.3, 0.7, 8, CTX).residual < 1e-12
    assert rll_check(1.3, 0.7, 8, CTX, sigma_x=True).residual < 1e-12


def test_rll_negative_control():
    assert rll_check(1.3, 0.7, 8, CTX, scramble=0.5).residual > 0.01


def test_vbasis_algebra_relations():
    ops = vbasis_operator_matrices(0.8, 20, CTX)
    k0, ep, em = ops["K0"], ops["Ep"], ops["Em"]
    eye = np.eye(21)
    blk = slice(0, 18)
    assert np.max(np.abs((ep @ em - (eye - k0 @ k0 / Q))[blk, blk])) < 1e-12
    assert np.max(np.abs((em @ ep - (eye - Q * k0 @ k0))[blk, blk])) < 1e-12
    assert np.max(np.abs((k0 @ ep - Q * ep @ k0)[blk, blk])) < 1e-12
    assert np.max(np.abs((k0 @ em - em @ k0 / Q)[blk, blk])) < 1e-12


def _box_residual_dense(x, xp, y, yp, m_cut, ctx):
    """The intertwining residual with both sides built as dense Kronecker products."""
    omega1, omega2 = np.sqrt(x * xp + 0j), np.sqrt(y * yp + 0j)
    dim = m_cut + 1
    spins = np.arange(dim)
    a, b, c, d = (weight_table(v, spins, spins, ctx)
                  for v in (y / xp, x / y, xp / yp, ctx.q ** 2 * yp / x))
    s_mat = (np.einsum("ac,bd->abcd", b, c) * a[:, :, None, None]
             * d[None, None]).reshape(dim * dim, dim * dim)
    meas = np.array([fock.s_measure(k, ctx) for k in range(dim)])
    s_mat = np.outer(meas, meas).ravel()[:, None] * s_mat
    ls = []
    for omega, mu in ((omega1, x / omega1), (omega2, y / omega2)):
        ops = vbasis_operator_matrices(mu, m_cut, ctx)
        k0 = ops["K0"]
        ls.append([[ops["Em"], -(omega * k0)], [k0 / omega, ops["Ep"]]])
    l1, l2 = ls
    keep = np.arange(dim * dim).reshape(dim, dim)[:-1, :-1].ravel()
    worst = 0.0
    for i in range(2):
        for k in range(2):
            lhs = sum(np.kron(l1[i][j], l2[j][k]) for j in range(2)) @ s_mat
            rhs = s_mat @ sum(np.kron(l2[i][j], l1[j][k]) for j in range(2))
            lhs, rhs = lhs[np.ix_(keep, keep)], rhs[np.ix_(keep, keep)]
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
            worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
    return worst


def test_box_intertwining_matches_dense_kronecker_products(monkeypatch):
    ctx = QContext(q=0.35)
    point = (1.1, 0.8, 0.9, 1.3, 8)
    dense = _box_residual_dense(*point, ctx)
    assert abs(box_intertwining_check(*point, ctx).residual - dense) < 1e-15
    # without the basis measure the box matrix is no intertwiner, for either route
    monkeypatch.setattr(fock, "s_measure", lambda m, ctx: 1.0)
    assert _box_residual_dense(*point, ctx) > 1e-3
    assert box_intertwining_check(*point, ctx).residual > 1e-3


@pytest.mark.parametrize("factor", ["A", "B", "C", "D"])
def test_box_intertwining_sees_one_changed_weight(monkeypatch, factor):
    # the box matrix is MA[a, b] B[a, c] C[b, d] D[c, d], its tables built in
    # that order; a 1% change of one entry of any of them breaks the relation
    ctx = QContext(q=0.35)
    calls = []

    def scaled(*args):
        tab = weight_table(*args)
        if len(calls) == "ABCD".index(factor):
            tab[2, 3] *= 1.01
        calls.append(factor)
        return tab

    monkeypatch.setattr(fock, "weight_table", scaled)
    assert box_intertwining_check(1.1, 0.8, 0.9, 1.3, 8, ctx).residual > 1e-4
    assert len(calls) == 4


def test_box_intertwining_never_holds_the_box_matrix():
    # the (21, 21, 21, 21) complex box matrix alone is 3.0 MiB; each side of
    # one block is 2.4 MiB, and both sides live at once
    ctx = QContext(q=0.35)
    box_intertwining_check(1.1, 0.8, 0.9, 1.3, 20, ctx)  # first-use set-up
    tracemalloc.start()
    try:
        box_intertwining_check(1.1, 0.8, 0.9, 1.3, 20, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("q", [0.4, -0.3, 0.35 * cmath.exp(0.2j)])
def test_brace_closed_reads_one_prefix_table(q):
    ctx = QContext(q=q)
    q2 = ctx.q * ctx.q

    def reference(a, b, c):
        a, b, c = sorted((a, b, c))
        s, p = a + b + c, a * b + a * c + b * c
        # (q^2; q^2)_n from a table built afresh for each n
        poch = [qpoch_finite_table(q2, q2, n)[n] for n in range(c + 1)]
        pref = poch[a] * poch[b] * poch[c]
        total = 0.0 + 0.0j
        for k in range(a + 1):
            num = (-1) ** k * ctx.q ** (p + 3 * k * k - k - 2 * k * s)
            den = poch[k] * poch[a - k] * poch[b - k] * poch[c - k]
            total += num / den
        return pref * total

    for a, b, c in product(range(13), range(13), range(8)):
        assert _brace_closed(a, b, c, ctx) == reference(a, b, c)


@pytest.mark.parametrize("q", [0.4, 0.3 + 0.1j])
def test_weight_table_from_overlaps_equals_scalar_route(q):
    ctx = QContext(q=q)
    x = 0.8 * cmath.exp(0.3j)
    tab, _ = weight_table_from_overlaps(x, range(4), range(-2, 5), ctx)
    for i, m in enumerate(range(4)):
        for j, mp in enumerate(range(-2, 5)):
            assert tab[i, j] == weight_V_fock_from_overlaps(x, m, mp, ctx)


def test_box_intertwining_small_cutoff():
    ctx = QContext(q=0.35)
    assert box_intertwining_check(1.1, 0.8, 0.9, 1.3, 12, ctx).residual < 1e-10
