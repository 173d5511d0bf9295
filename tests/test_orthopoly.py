"""Tests for the Laurent polynomials and their q-hypergeometric extension."""

import cmath
import math
import decimal
from decimal import Decimal
from itertools import combinations_with_replacement, islice

import mpmath as mp
import numpy as np
import pytest

from qkm.context import QContext
from qkm.errors import DegenerateArgument, DomainError, OverflowGuard
from qkm.fock import brace_spin_sums
from qkm.orthopoly import (ChiParams, DecimalComplex, PolyEvalMethod, chi,
                           chi_equation_checks, decimal_sqrt, genfun_checks,
                           lattice_brace_sums, overlap_grid, overlap_sum,
                           poly_norm_sum_check, poly_P, poly_P_difference_checks,
                           poly_rows, scaled_poly_iter, scaled_poly_values, to_decimal)
from qkm.qseries import decimal_digits, qpoch_inf, qpoch_inf_multi
from qkm.registry import RunConfig, run_suite
from qkm.vgamma import GammaContext

CTX = QContext(q=0.4)
METHODS = list(PolyEvalMethod)


def test_low_orders():
    xi = 1.3
    assert poly_P(0, xi, CTX) == 1
    assert abs(poly_P(1, xi, CTX) - (xi + 1 / xi)) < 1e-15
    # one step of the three-term recursion by hand
    expect2 = xi ** 2 + xi ** -2 + 1 + 0.4 ** -2
    assert abs(poly_P(2, xi, CTX) - expect2) < 1e-12


def test_three_methods_agree():
    rng = np.random.default_rng(3)
    for n in range(21):
        for _ in range(20):
            xi = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
            vals = [poly_P(n, xi, CTX, m) for m in METHODS]
            scale = max(abs(vals[1]), 1.0)
            assert abs(vals[0] - vals[1]) < 1e-9 * scale
            assert abs(vals[2] - vals[1]) < 1e-9 * scale


def test_parity():
    rng = np.random.default_rng(5)
    for n in range(21):
        xi = rng.uniform(0.6, 1.8) + 0.2j
        a = poly_P(n, -xi, CTX)
        b = (-1) ** n * poly_P(n, xi, CTX)
        assert abs(a - b) < 1e-9 * max(abs(b), 1.0)


def test_laurent_inversion_invariance():
    rng = np.random.default_rng(9)
    for n in range(21):
        xi = rng.uniform(0.6, 1.8) * np.exp(2j * np.pi * rng.uniform())
        a = poly_P(n, xi, CTX)
        b = poly_P(n, 1 / xi, CTX)
        assert abs(a - b) < 1e-9 * max(abs(a), 1.0)


def test_zero_argument_rejected():
    with pytest.raises(DomainError):
        poly_P(3, 0.0, CTX)


def test_overflow_guard():
    with pytest.raises(OverflowGuard):
        poly_P(60, 1.3, QContext(q=0.3))


def test_scaled_rows_match_plain_values():
    xi = 1.1 + 0.3j
    rows = scaled_poly_values(15, xi, CTX)
    for a in (0, 3, 9, 15):
        expect = CTX.q_pow_half(a * a) * poly_P(a, xi, CTX)
        assert abs(rows[a] - expect) < 1e-10 * max(abs(expect), 1.0)


def test_poly_rows_mpmath_matches_double():
    gamma = 0.7 * np.exp(0.4j)
    cases = [(CTX, 1.1 + 0.3j, 1.0), (CTX, CTX.q_pow_half(5), 1.0),
             (QContext(q=-0.3), 0.8 - 0.5j, 2.0 - 1.0j)]
    for m in (-3, 0, 2):
        cases.append((CTX, gamma * 0.4 ** m, gamma ** m * CTX.q_pow_half(m * m)))
    for ctx, xi, scale in cases:
        double = list(islice(scaled_poly_iter(xi, ctx, scale), 25))
        with mp.workdps(30):
            q = mp.mpc(ctx.q)
            rows = poly_rows(mp.mpc(xi), q, mp.sqrt(q), mp.mpc(scale))
            extended = [complex(row) for row in islice(rows, 25)]
        for d, e in zip(double, extended):
            assert abs(d - e) <= 1e-14 * abs(e)


def test_decimal_sqrt_of_a_real_positive_q_is_real():
    # a real q keeps an imaginary part of exactly 0 on either representation
    for q in (0.4, 0.3, 1e-60):
        with decimal_digits(30):
            root = DecimalComplex(Decimal(q), Decimal(0)).sqrt()
            assert root.imag == 0
            assert abs(root.real - Decimal(q).sqrt()) <= Decimal(10) ** -34 * root.real
            assert decimal_sqrt(to_decimal(q)) == Decimal(q).sqrt()


@pytest.mark.parametrize("q", [-0.3, 0.3 + 0.1j, 0.35 * cmath.exp(0.2j), -0.3 - 0.2j, 0.4j])
def test_decimal_sqrt_takes_the_branch_of_q_half(q):
    with decimal_digits(30):
        root = decimal_sqrt(to_decimal(q))
        assert abs(complex(root * root) - q) <= 1e-16
    assert abs(complex(root) - QContext(q=q).q_half) <= 1e-15


def test_decimal_complex_arithmetic():
    z, w = 0.3 - 0.7j, -1.1 + 0.2j
    with decimal_digits(30):
        dz, dw = to_decimal(z), to_decimal(w)
        cases = [(dz + dw, z + w), (dz - dw, z - w), (dz * dw, z * w), (dz / dw, z / w),
                 (1 / dz, 1 / z), (2 - dz, 2 - z), (-dz, -z), (dz ** 5, z ** 5),
                 (dz ** -3, z ** -3), (dz * Decimal(2), 2 * z), (abs(dz), abs(z))]
    for got, want in cases:
        assert abs(complex(got) - want) <= 1e-15 * abs(want)


def test_lattice_sums_refuse_zero_or_nonfinite_arguments():
    box = [(1, 1, 1), (0, 0, 0)]
    for gamma in (0, 0j, float("nan"), complex("inf")):
        with pytest.raises(DomainError, match="finite nonzero gamma"):
            lattice_brace_sums(box, gamma, 30, CTX)
    with pytest.raises(DomainError, match="finite nonzero q"):
        lattice_brace_sums(box, 0.6, 30, QContext(q=0.0))
    # a trapped decimal signal is a DomainError too, and the caller's decimal
    # context comes back unchanged
    before = decimal.getcontext().copy()
    for bad in (lambda: Decimal(1) / 0, lambda: Decimal(0) / 0,
                lambda: Decimal(10) ** 10 ** 7):
        with pytest.raises(DomainError, match="extended-precision arithmetic"):
            with decimal_digits(30):
                bad()
    after = decimal.getcontext()
    assert (after.prec, after.traps, after.flags) == (before.prec, before.traps, before.flags)


def test_lattice_sums_refuse_indices_that_are_not_nonnegative_integers():
    # a row index -1 would read the last row of the site
    for bad in ((-1, 0, 0), (0, np.int64(-2), 0), (1.0, 0, 0)):
        for gamma in (None, 0.6):
            with pytest.raises(DomainError, match="nonnegative integers"):
                lattice_brace_sums([bad, (0, 0, 0)], gamma, 30, CTX)


def _to_mp(x):
    if isinstance(x, DecimalComplex):
        return mp.mpc(mp.mpf(str(x.real)), mp.mpf(str(x.imag)))
    return mp.mpf(str(x))


def _mp_lattice_sums(triples, gamma, dps, q, window=60):
    """The lattice sums and their peak terms in mpmath at dps + 20 digits, on
    the sites 0..window (gamma None, one-sided) or |m| <= window (bilateral)."""
    with mp.workdps(dps + 20):
        q = mp.mpc(q)
        qh = mp.sqrt(q)
        one_sided = gamma is None
        gamma = qh if one_sided else mp.mpc(gamma)
        top = max(max(t) for t in triples)
        totals = [mp.mpc(0)] * len(triples)
        peaks = [mp.mpf(0)] * len(triples)
        for m in range(0 if one_sided else -window, window + 1):
            xi = gamma * q ** m
            rows = list(islice(poly_rows(xi, q, qh, gamma ** m * qh ** (m * m)), top + 1))
            f = (-1) ** (m % 2) * (xi - 1 / xi)
            for i, (a, b, c) in enumerate(triples):
                term = f * rows[a] * rows[b] * rows[c]
                totals[i] += term
                peaks[i] = max(peaks[i], abs(term))
        return totals, peaks


@pytest.mark.parametrize("q", [0.4, -0.3, 0.3 + 0.1j, 0.7, 0.9])
def test_lattice_sums_match_an_mpmath_oracle(q):
    ctx = QContext(q=q)
    fock_box = list(combinations_with_replacement(range(7), 3))
    gamma_box = [*combinations_with_replacement(range(5), 3), (0, 0, 0)]
    cases = [(fock_box, None, 40), (gamma_box, 0.6, 30), (gamma_box, 0.9 * cmath.exp(0.2j), 30)]
    for triples, gamma, dps in cases:
        totals, _ = lattice_brace_sums(triples, gamma, dps, ctx)
        ref, peaks = _mp_lattice_sums(triples, gamma, dps, q)
        with mp.workdps(dps + 20):
            for total, want, peak in zip(totals, ref, peaks):
                assert abs(_to_mp(total) - want) <= peak * mp.mpf(10) ** (8 - dps)


def _doubles(values, dps):
    """complex doubles of the values, a component under |value| 10^-dps (the
    rounding floor of the arithmetic) read as 0."""
    out = []
    for z in map(complex, values):
        floor = abs(z) * 10.0 ** -dps
        out.append(complex(z.real if abs(z.real) > floor else 0.0,
                           z.imag if abs(z.imag) > floor else 0.0))
    return out


def test_lattice_sums_round_to_the_oracle_at_the_default_points():
    # the registry's brace points: every complex double is the correctly
    # rounded value of the sum, as it was with 30/40-digit mpmath
    gamma_box = [*combinations_with_replacement(range(5), 3), (0, 0, 0)]
    for q in (0.3, 0.5):
        ctx = QContext(q=q)
        fock_box = list(combinations_with_replacement(range(7), 3))
        ref, _ = _mp_lattice_sums(fock_box, None, 40, q)
        with mp.workdps(60):
            mq = mp.mpc(q)
            norm = -mp.qp(mq, mq) / mp.sqrt(mq)
            want = [complex(total / norm) for total in ref]
        assert brace_spin_sums(fock_box, ctx) == want
    ctx = QContext(q=0.4)
    selected = [GammaContext.make_selected(nu, ctx).gamma for nu in (0.0, 0.5)]
    generic = 0.7 * cmath.exp(0.4j)
    for gamma in (0.6, 0.9 * cmath.exp(0.2j), generic, *selected, ctx.q_half):
        triples = gamma_box if gamma in (0.6, 0.9 * cmath.exp(0.2j)) else [(2, 1, 1), (0, 0, 0)]
        totals, _ = lattice_brace_sums(triples, gamma, 30, ctx)
        ref, _ = _mp_lattice_sums(triples, gamma, 30, 0.4)
        assert _doubles(totals, 30) == _doubles(ref, 30)


def _mp_site_terms(triples, gamma, q, window):
    """{m: the terms of every triple at site m} for |m| <= window, in 60-digit
    mpmath, with 1/xi taken by division at each site."""
    with mp.workdps(60):
        q = mp.mpc(q)
        qh = mp.sqrt(q)
        gamma = qh if gamma is None else mp.mpc(gamma)
        top = max(max(t) for t in triples)
        terms = {}
        for m in range(-window, window + 1):
            xi = gamma * q ** m
            rows = list(islice(poly_rows(xi, q, qh, gamma ** m * qh ** (m * m)), top + 1))
            f = (-1) ** (m % 2) * (xi - 1 / xi)
            terms[m] = [f * rows[a] * rows[b] * rows[c] for a, b, c in triples]
        return terms


def _mp_stop_rule(terms, n, gamma, dps):
    """Totals, peaks and sites walked of the one tail rule, read off the
    mpmath terms and exact magnitudes: each part stops after three
    consecutive terms with |t| <= 10^(5 - dps) max(|S|, peak), walking the
    sites 0, 1, ... (gamma None) or, on the bilateral lattice, 0, -1, 1, -2, ..."""
    window = max(terms)
    order = (range(window + 1) if gamma is None
             else [m for k in range(window) for m in (k, -k - 1)])
    with mp.workdps(60):
        cut = mp.mpf(10) ** (5 - dps)
        totals, peaks, sites = [], [], 0
        for i in range(n):
            total, peak, below = mp.mpc(0), mp.mpf(0), 0
            for walked, m in enumerate(order, 1):
                t = terms[m][i]
                total += t
                peak = max(peak, abs(t))
                below = below + 1 if abs(t) <= cut * max(abs(total), peak) else 0
                if below == 3:
                    break
            else:
                raise AssertionError("the oracle's window holds no tail")
            totals.append(total)
            peaks.append(peak)
            sites = max(sites, walked)
        return totals, peaks, sites


# complex q and gamma, as the point sweep draws them, and the Fock route
@pytest.mark.parametrize("q, gamma", [
    (0.4 * cmath.exp(0.3j), 0.75 * cmath.exp(2.1j)),
    (0.33 * cmath.exp(-0.5j), 0.62 * cmath.exp(-0.9j)),
    (0.48 * cmath.exp(0.55j), 0.88 * cmath.exp(0.4j)),
    (0.35 * cmath.exp(0.2j), None),
    (0.6 * cmath.exp(-0.25j), None),
])
def test_lattice_sums_match_a_60_digit_oracle_at_complex_q(q, gamma):
    # the walked 1/xi and the squared stop test change no total beyond the
    # digits the kernel keeps, and the kernel walks exactly the sites of the
    # one tail rule evaluated on exact magnitudes
    if gamma is None:
        triples, dps = list(combinations_with_replacement(range(7), 3)), 40
    else:
        triples, dps = list(combinations_with_replacement(range(5), 3)), 30
    totals, sites = lattice_brace_sums(triples, gamma, dps, QContext(q=q))
    ref, peaks, want_sites = _mp_stop_rule(_mp_site_terms(triples, gamma, q, 40),
                                           len(triples), gamma, dps)
    assert sites == want_sites
    with mp.workdps(60):
        for total, want, peak in zip(totals, ref, peaks):
            err = abs(_to_mp(total) - want)
            assert err <= peak * mp.mpf(10) ** (8 - dps)  # against the refusal's scale
            assert err <= abs(want) * mp.mpf(10) ** -8  # every accepted total keeps 8 digits


def test_overlap_sum_domain():
    with pytest.raises(DomainError):
        overlap_sum(1.1, 0.9, 0.3, CTX)
    with pytest.raises(DomainError):
        overlap_grid([1.1], [0.9], 0.3, CTX)


# a real, a complex and a near-edge x (|x| = 1.05 |q|, some 500 terms), and
# a complex q, whose complex rows expose any fused multiply-add in the grid
@pytest.mark.parametrize("q, x_over_q", [(0.4, 1.5), (0.4, 2.2 * np.exp(0.7j)),
                                         (0.4, 1.05),
                                         (0.35 * np.exp(0.2j), 2.2 * np.exp(0.7j))])
def test_overlap_grid_equals_scalar_sums(q, x_over_q):
    ctx = QContext(q=q)
    x = complex(abs(q) * x_over_q)
    xis = [ctx.q_pow_half(2 * m + 1) for m in range(7)]
    scales = [1.3 ** m for m in range(7)]
    sums, peaks = overlap_grid(xis, xis[::-1], x, ctx, scales, scales[::-1])
    for i, (xi, s) in enumerate(zip(xis, scales)):
        for j, (xj, t) in enumerate(zip(xis[::-1], scales[::-1])):
            assert sums[i, j] == overlap_sum(xi, xj, x, ctx, s, t)
            # the same terms walked to three in a row at or below
            # tail_cut * |running sum|, with their sum and peak
            f, total, peak, below = 1.0 + 0.0j, 0.0 + 0.0j, 0.0, 0
            rows = zip(scaled_poly_iter(xi, ctx, s), scaled_poly_iter(xj, ctx, t))
            for a, (ra, rb) in enumerate(rows):
                term = f * ra * rb
                total += term
                peak = max(peak, abs(term))
                below = below + 1 if abs(term) <= ctx.tail_cut * abs(total) else 0
                if below == 3:
                    break
                f *= -ctx.q / (x * (1 - (ctx.q * ctx.q) ** (a + 1)))
            assert sums[i, j] == total
            assert abs(peaks[i, j] - peak) <= 1e-15 * peak


def test_difference_equations():
    assert poly_P_difference_checks(3, 1.3, CTX).residual < 1e-9
    assert poly_P_difference_checks(0, 1.7, CTX).residual == 0.0


def test_difference_check_keeps_a_nan_component():
    # at q = 1e-8 the backward equation of P_8 evaluates to NaN; the check
    # carries it as its residual, and the registry fails that point,
    # whatever the other component
    rep = poly_P_difference_checks(8, 1.7, QContext(q=1e-8))
    assert np.isnan(rep.params["res_backward"])
    assert np.isnan(rep.residual)
    [reg] = [r for r in run_suite(RunConfig(q=1e-8, filter="orthopoly.difference*"))
             if r.params["n"] == 8]
    assert np.isnan(reg.residual) and reg.verdict == "FAIL"
    r = poly_P_difference_checks(5, 0.7 + 0.2j, QContext(q=0.35))
    assert r.residual < 1e-9


def test_difference_oracle_explicit_sum():
    # both sides of the three-point relation assembled from the explicit sum
    n, xi, q = 4, 1.2, 0.4
    p = poly_P(n, xi, CTX, PolyEvalMethod.EXPLICIT_SUM)
    p_up = poly_P(n, q * xi, CTX, PolyEvalMethod.EXPLICIT_SUM)
    p_dn = poly_P(n, xi / q, CTX, PolyEvalMethod.EXPLICIT_SUM)
    assert abs(p - q ** -n * (xi * p_up - p_dn / xi) / (xi - 1 / xi)) < 1e-9 * abs(p)


def test_degenerate_argument_rejected():
    with pytest.raises(DegenerateArgument):
        poly_P_difference_checks(3, 1.0 + 1e-8, CTX)


def test_generating_functions():
    assert genfun_checks(0.0, 1.2, 0.8, CTX).residual < 1e-12
    assert genfun_checks(0.3, 1.2, 0.8, CTX).residual < 1e-9


@pytest.mark.parametrize("q, z", [(0.4, 0.41), (0.4, 0.4j), (0.95, 0.93)])
def test_generating_functions_refuse_z_outside_the_disc(q, z):
    # the double series is the overlap sum at x = q^2/z, which has no tail
    # for |z| >= |q|; above |q| = 0.93 the bound 0.9 |q|^{-1/2} is tighter
    with pytest.raises(DomainError, match=r"got z = "):
        genfun_checks(z, 1.2, 0.8, QContext(q=q))


def test_genfun_double_oracle():
    # left side of the two-variable generating function summed with explicit
    # polynomial values (terms decay like (z/q)^n), right side from products
    q, z, u, v = 0.4, 0.12, 1.2, 0.8
    poch2 = [1.0]
    for n in range(1, 61):
        poch2.append(poch2[-1] * (1 - (q * q) ** n))
    lhs = sum((-1) ** n * q ** (n * (n - 1)) * z ** n
              * poly_P(n, u, CTX, PolyEvalMethod.FORWARD_RECURSION)
              * poly_P(n, v, CTX, PolyEvalMethod.FORWARD_RECURSION) / poch2[n]
              for n in range(38))
    rhs = (qpoch_inf_multi((z * u * v, z / (u * v), z * u / v, z * v / u), q * q, CTX)
           / qpoch_inf(z * z / (q * q), q * q, CTX))
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


@pytest.mark.parametrize("q", [0.4, -0.8, 0.3 + 0.1j])
def test_exactly_zero_overlap_sum_ends(q):
    # off the diagonal the sum is exactly 0, so its running sum is rounding
    # noise; the relative stop still ends it, in 73, 263 and 58 terms here
    assert poly_norm_sum_check(0, 1, QContext(q=q, max_terms=400)).residual < 1e-13


def test_norm_sum_diagonal_and_off():
    assert poly_norm_sum_check(0, 0, CTX).residual < 1e-9
    assert poly_norm_sum_check(2, 2, CTX).residual < 1e-9
    assert poly_norm_sum_check(1, 3, CTX).residual < 1e-9


def test_norm_sum_with_rows_out_of_double_range_is_an_overflow():
    # at q = 1e-60 the row q^{a^2/2} P_a(q^{9/2}) is inf from a = 2 and NaN
    # from a = 4; the walk stops at the first such term instead of walking
    # max_terms NaN terms to TruncationExhausted
    with pytest.raises(OverflowGuard):
        poly_norm_sum_check(4, 1, QContext(q=1e-60))
    [rep] = run_suite(RunConfig(filter="orthopoly.norm_sum*", q=1e-60))
    assert rep.params["skip_reason"].startswith("OverflowGuard: ")


def test_chi_with_terms_out_of_double_range_is_an_overflow():
    # chi(1.1, q^-20) at q = 1e-8: (z; q^2)_n overflows by the fifth term
    q = 1e-8
    with pytest.raises(OverflowGuard):
        chi(ChiParams(1.1, q ** -20, q), QContext(q=q))
    [rep] = run_suite(RunConfig(filter="orthopoly.chi_special*", q=q))
    assert rep.params["skip_reason"].startswith("OverflowGuard: ")


def test_chi_over_lanes_matches_each_scalar_call():
    # chi at the 128 nodes sigma of the default spectral quadrature, as one
    # array z: each lane is the walk of the scalar call, but numpy's complex
    # multiply may fuse a multiply-add and its division multiplies by a
    # reciprocal, so a lane may differ from the Python-complex call in its
    # last bits (at most 3.2 eps here)
    from qkm.modular import ModularContext
    mc = ModularContext(theta=math.pi / 5)
    h = 16.0 / 64
    sigma = -8.0 + h / 3 + h / 2 * np.arange(128)
    z, zb = np.exp(-2 * np.pi * mc.b * sigma), np.exp(-2 * np.pi * sigma / mc.b)
    for x in (0.3, 0.5):
        u, ub = cmath.exp(cmath.pi * mc.b * x), cmath.exp(cmath.pi * x / mc.b)
        for uu, zz, ctx in ((u, z, mc.ctx_q), (1 / u, z, mc.ctx_q),
                            (ub, zb, mc.ctx_qbar), (1 / ub, zb, mc.ctx_qbar)):
            lanes = chi(ChiParams(uu, zz, ctx.q), ctx)
            for lane, zi in zip(lanes, zz):
                scalar = chi(ChiParams(uu, complex(zi), ctx.q), ctx)
                assert abs(lane - scalar) <= 8 * np.finfo(float).eps * abs(scalar)


def test_chi_trivial_points():
    assert chi(ChiParams(1.7, 1.0, 0.4), CTX) == 1.0
    u = 0.9 + 0.2j
    lhs = chi(ChiParams(u, 0.4 ** -2, 0.4), CTX)
    assert abs(lhs - u * poly_P(1, u, CTX)) < 1e-12


def test_chi_reduces_to_polynomials():
    u = 1.1
    for m in range(11):
        lhs = chi(ChiParams(u, 0.4 ** (-2 * m), 0.4), CTX)
        rhs = u ** m * poly_P(m, u, CTX)
        assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)


def test_chi_wronskian_ratio():
    ctx = QContext(q=0.5)
    m, z = 2, 0.3
    num = chi(ChiParams(0.5 ** -m, z, 0.5), ctx)
    den = chi(ChiParams(0.5 ** m, z, 0.5), ctx)
    assert abs(num / den - z ** m) < 1e-12


def test_chi_equations():
    ctx = QContext(q=0.45)
    assert chi_equation_checks(ChiParams(1.1, 0.3, 0.45), ctx).residual < 1e-9
    ctx5 = QContext(q=0.5)
    assert chi_equation_checks(ChiParams(0.8j, 0.2, 0.5), ctx5).residual < 1e-9


def test_chi_equations_independent_series_oracle():
    # both sides of the u-shift relation summed to 100 explicit terms
    q, u, z = 0.5, 0.8j, 0.2
    q2 = q * q

    def chi_direct(uu, zz):
        total, term = 0.0, 1.0
        for n in range(100):
            total += term
            term *= -q2 ** (n + 1) * (1 - zz * q2 ** n) * uu ** 2 / (1 - q2 ** (n + 1))
        return total

    lhs = chi_direct(u / q, z)
    rhs = (1 - u * u) * chi_direct(u, z) + z * u * u * chi_direct(q * u, z)
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_chi_wronskian_degenerate_z():
    r = chi_equation_checks(ChiParams(1.3, 1.0, 0.4), CTX)
    # at z = 1 both sides of the Wronskian vanish identically
    assert r.params["res_wronskian"] < 1e-12


def test_chi_wronskian_grid():
    for u in (0.7, 0.9, 1.2, 1.5, 0.6 + 0.3j):
        for z in (0.1, 0.25, 0.4, 0.15 + 0.1j, 0.55):
            r = chi_equation_checks(ChiParams(u, z, 0.4), CTX)
            assert r.params["res_wronskian"] < 1e-9


@pytest.mark.parametrize("q", [0.4 + 0.3j, -0.5 + 0.45j, 0.3 * cmath.exp(2j),
                               cmath.exp(1j * cmath.pi * cmath.exp(0.4j * cmath.pi))])
def test_chi_matches_a_40_digit_oracle_at_complex_nome(q):
    # the last nome is the modular q at theta = pi/5
    # the terms fall below 1e-300 well before n = 60 at every (q, u, z) here
    ctx = QContext(q=q, tol_identity=1e-10)
    with mp.workdps(40):
        qq = mp.mpc(q)
        for u in (1.3, 0.7 + 0.4j, 2.1j, 1 / (0.7 + 0.4j)):
            for z in (0.3, 1.5 - 0.6j, 4 + 2j, 3e5 - 1e5j):
                uu, zz = mp.mpc(u) ** 2, mp.mpc(z)
                ref = complex(mp.fsum((-1) ** n * qq ** (n * (n + 1)) * mp.qp(zz, qq ** 2, n)
                                      / mp.qp(qq ** 2, qq ** 2, n) * uu ** n
                                      for n in range(60)))
                assert abs(chi(ChiParams(u, z, q), ctx) - ref) < 1e-13 * abs(ref)
