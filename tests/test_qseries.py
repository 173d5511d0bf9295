"""Tests for the q-series kernel."""

import cmath
import math
import warnings
from decimal import Decimal
from itertools import count, islice

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qkm import fock, modular, vgamma
from qkm.context import QContext
from qkm.errors import DomainError, OverflowGuard, TruncationExhausted
from qkm.orthopoly import DecimalComplex
from qkm.qseries import (ThetaKind, _log_qpoch_chain, bilateral_walk, bracket,
                         big_theta4_const, decimal_digits, gauss_check, gauss_double_sum_check,
                         jacobi_transform_check, pentagonal_check,
                         log_qpoch_inf_array, log_qpoch_table, qpoch_finite_table,
                         qpoch_inf, sites_in_blocks, tail_length, tail_walk,
                         theta_product, theta_sum)

CTX = QContext(q=0.4)


def factor_walk(sizes, cut, max_terms=10 ** 6):
    """The factors of a product of 1 - a_k up to the third in a row with
    |a_k| < cut: a factor 1 - a moves the running product by |a| relative,
    so this is the sum walk's rule on the factors."""
    out, below = [], 0
    for a in islice(sizes, max_terms):
        out.append(a)
        below = below + 1 if abs(a) < cut else 0
        if below == 3:
            return out
    raise TruncationExhausted("no tail")


def test_qpoch_finite_empty_product():
    assert qpoch_finite_table(0.7, 0.4, 0) == [1]


def test_qpoch_finite_unrolled():
    x, q = 0.3 + 0.1j, 0.5
    table = qpoch_finite_table(x, q, 2)
    assert table[1] == pytest.approx(1 - x)
    assert table[2] == pytest.approx((1 - x) * (1 - x * q))
    assert qpoch_finite_table(q, q, 1)[1] == pytest.approx(1 - q)


def test_qpoch_inf_at_zero_argument():
    assert qpoch_inf(0.0, 0.4, CTX) == 1


def test_qpoch_inf_pairing_oracle():
    # (q;q)_inf (-q;q)_inf = (q^2;q^2)_inf, checked against an explicit
    # factor-by-factor product oracle
    q = 0.4
    oracle = 1.0
    for k in range(1, 200):
        oracle *= 1 - q ** (2 * k)
    lhs = qpoch_inf(q, q, CTX) * qpoch_inf(-q, q, CTX)
    assert abs(lhs - oracle) < 1e-12


def test_qpoch_inf_shift_property():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-0.9, 0.9, 10) + 1j * rng.uniform(-0.3, 0.3, 10):
        ratio = qpoch_inf(x, 0.4, CTX) / qpoch_inf(x * 0.4, 0.4, CTX)
        assert abs(ratio - (1 - x)) < 1e-9


def test_log_qpoch_table_matches_scalar_products():
    q = 0.4 + 0.0j
    expo = np.arange(-2, 3)[:, None] + np.arange(3)[None, :]
    pref = np.full(expo.shape, 0.25 + 0.5j)
    den = 1.3 - 0.2j
    tab = log_qpoch_table(pref, [(0.7j, expo), (-0.5, 2 - expo)], q, den, CTX)
    for (i, j), e in np.ndenumerate(expo):
        expect = (np.exp(0.25 + 0.5j) * qpoch_inf(0.7j * q ** e, q * q, CTX)
                  * qpoch_inf(-0.5 * q ** (2 - e), q * q, CTX) / den)
        assert abs(tab[i, j] - expect) < 1e-12 * abs(expect)
    with pytest.raises(DomainError):
        log_qpoch_table(pref, [(0.7j, expo)], q, 0.0, CTX)


@pytest.mark.parametrize("q", [0.4, -0.3, 0.35 * cmath.exp(0.2j)])
def test_weight_tables_gather_is_exact(q):
    ctx = QContext(q=q)
    gc = vgamma.GammaContext(gamma=0.7 * cmath.exp(0.4j))
    x = 0.7 * cmath.exp(0.9j)
    tables = {
        "fock": lambda ms, mps: fock.weight_table(x, ms, mps, ctx),
        "veps+": lambda ms, mps: vgamma.weight_Veps_table(x, 1, ms, mps, gc, ctx),
        "veps-": lambda ms, mps: vgamma.weight_Veps_table(x, -1, ms, mps, gc, ctx),
    }
    # unsorted, sparse, with repeated spins
    ms, mps = [7, -3, 0, 7, 15, -11, 2, -3], [1, 12, -3, 1, 0, 9, 5]
    um, ump = sorted(set(ms)), sorted(set(mps))
    rows, cols = [um.index(m) for m in ms], [ump.index(mp) for mp in mps]
    window = np.arange(-80, 81)
    # every entry is a function of its own spins alone, so it equals the
    # 1 x 1 table bit for bit; on the 161 window, the first and last rows
    # already take every exponent of every factor
    lines = [(i, j) for i in (0, 160) for j in range(161)]
    for name, table in tables.items():
        got = table(ms, mps)
        assert np.array_equal(table(um, ump)[np.ix_(rows, cols)], got), name
        one = [[table([m], [mp])[0, 0] for mp in mps] for m in ms]
        assert np.array_equal(np.array(one), got), name
        wide = table(window, window)
        for i, j in lines:
            assert wide[i, j] == table([window[i]], [window[j]])[0, 0], (name, i, j)


def test_weight_table_evaluates_each_distinct_exponent_once(monkeypatch):
    # one anchored chain per factor: a logarithm per integer from the
    # smallest exponent to the anchor (about 30 past 0 at q = 0.4), not a
    # full tail per distinct exponent (about 95 terms each)
    sizes = []
    log = np.log

    def recording(z, *args, **kwargs):
        sizes.append(np.size(z))
        return log(z, *args, **kwargs)

    monkeypatch.setattr(np, "log", recording)
    for n in (41, 161):
        sizes.clear()
        window = np.arange(-(n // 2), n - n // 2)
        fock.weight_table(0.7, window, window, CTX)
        chains = [size for size in sizes if size > 1]
        assert len(chains) == 4
        assert max(chains) <= 2 * n + 40


@pytest.mark.parametrize("q", [0.4, -0.3, 0.35 * cmath.exp(0.2j)])
def test_log_qpoch_chain_is_the_tail_walk_of_each_exponent(q):
    # around the anchor each entry is a small logarithm, on which one term
    # more or fewer than the walk takes would show
    q, coef = complex(q), 0.7 * cmath.exp(0.9j)
    expo = np.arange(-10, 45)
    got = _log_qpoch_chain(coef, expo, q, CTX)
    for e, value in zip(expo.tolist(), got):
        args = factor_walk((coef * q ** (e + 2 * k) for k in count()), CTX.tail_cut)
        walk = sum(cmath.log(1 - a) for a in args)
        assert abs(value - walk) <= 1e-13 * abs(walk), e


def test_log_qpoch_table_chain_keeps_the_tail_rule_refusals():
    expo = np.arange(0, 5)[:, None]
    with pytest.raises(TruncationExhausted):  # 120 terms against a cap of 50
        log_qpoch_table(np.zeros(expo.shape), [(0.5, expo)], 0.9,
                        1.0, QContext(q=0.9, max_terms=50))
    with pytest.raises(TruncationExhausted):  # a size that is not finite
        log_qpoch_table(np.zeros(expo.shape), [(math.inf, expo)], 0.4, 1.0, CTX)
    # q = 0: (c 0^e; 0)_inf is 1 - c at e = 0 and 1 above it
    tab = log_qpoch_table(np.zeros(expo.shape), [(0.5, expo)], 0.0, 1.0, CTX)
    assert np.array_equal(tab[:, 0], [0.5, 1, 1, 1, 1])
    with pytest.raises(OverflowGuard):
        log_qpoch_table(np.zeros(expo.shape), [(0.5, expo - 1)], 0.0, 1.0, CTX)


def test_log_qpoch_table_overflowing_argument_is_classified():
    expo = np.arange(0, 801)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowGuard):
            log_qpoch_table(np.zeros(expo.shape), [(1.0, -expo)], 0.4, 1.0, CTX)


def test_log_qpoch_table_power_that_divides_by_zero_is_classified():
    # at q = 1e-8, q^-43 is an infinite power; numpy flags it as a division
    # by zero, which must stay off stderr and end in the guard, not a warning
    tiny = QContext(q=1e-8, tol_identity=1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowGuard):
            log_qpoch_table(0.0, [(2.2222222222222223, np.arange(-43, 5))], 1e-8, 1.0, tiny)


def test_truncation_exhausted_raised():
    slow = QContext(q=0.9999, max_terms=50)
    with pytest.raises(TruncationExhausted):
        qpoch_inf(0.5, 0.9999, slow)


def geometric(top, rate):
    t = top
    while True:
        yield t
        t *= rate


@settings(max_examples=60, deadline=None)
@given(log_top=st.floats(-200.0, 200.0), rate=st.floats(1e-3, 0.999),
       tol=st.sampled_from([1e-9, 1e-10]))
def test_tail_length_is_the_walk_count(log_top, rate, tol):
    # the closed form against a walk over sizes built by repeated products
    ctx = QContext(q=0.4, tol_identity=tol, max_terms=10 ** 6)
    terms = factor_walk(geometric(10.0 ** log_top, rate), ctx.tail_cut, ctx.max_terms)
    assume(all(abs(t - ctx.tail_cut) > 1e-9 * ctx.tail_cut for t in terms))
    assert tail_length(10.0 ** log_top, rate, ctx.tail_cut, ctx.max_terms) == len(terms)


def test_tail_length_at_the_edges():
    assert tail_length(0.0, 0.5, 1e-11, 10) == 3  # every term below the cut
    assert tail_length(2.0, 0.0, 1e-11, 10) == 4  # top, 0, 0, 0
    assert tail_length(1.0, 0.5, 1e-11, 40) == math.ceil(11 * math.log2(10)) + 3


@pytest.mark.parametrize("top, rate, max_terms", [
    (math.nan, 0.5, 100), (math.inf, 0.5, 100), (1.0, math.nan, 100),
    (1.0, math.inf, 100), (1.0, 1.0, 100), (1.0, 0.9, 100)])
def test_tail_length_refusals(top, rate, max_terms):
    # not finite, not shrinking, or 243 terms against a cap of 100
    with pytest.raises(TruncationExhausted):
        tail_length(top, rate, 1e-11, max_terms)


def test_scalar_products_take_tail_length_factors():
    # |q|^2 = 0.1 puts |q|^22 on the cut 1e-11, where a walk over the
    # computed factors and the closed-form count may differ by one; both
    # products take exactly the count, 25 here
    q = 0.3 + 0.1j
    ctx = QContext(q=q)
    n = tail_length(abs(q), abs(q), ctx.tail_cut, ctx.max_terms)
    table = qpoch_finite_table(q, q, n)
    assert n == 25 and table[n] != table[n - 1]
    assert qpoch_inf(q, q, ctx) == table[n]
    assert modular._checked_qpoch(q, q, ctx) == table[n]


def test_log_qpoch_array_refuses_a_count_above_max_terms():
    with pytest.raises(TruncationExhausted):
        log_qpoch_inf_array([0.5], 0.9999, QContext(q=0.9999, max_terms=50))


def test_tail_walk_never_draws_past_max_terms():
    drawn = []

    def terms():
        for k in count():
            drawn.append(k)
            yield 1.0

    with pytest.raises(TruncationExhausted):
        tail_walk(terms(), QContext(q=0.4, max_terms=5))
    assert drawn == [0, 1, 2, 3, 4]
    with pytest.raises(TruncationExhausted):
        tail_walk(iter([1.0, 1e-20, 1e-20]), CTX)  # ends before the tail


def test_tail_walk_stops_relative_to_its_running_sum():
    # every term is below the tail cut 1e-11, yet only the terms after the
    # first are small beside the sum; the walk ends on the third of those
    walk = tail_walk(iter([1e-20, 1e-32, -1e-32, 1e-32, 1.0]), CTX)
    assert (walk.value, walk.peak, walk.terms) == (1e-20 + 1e-32, 1e-20, 4)
    # a sum whose terms are exactly zero ends after three of them
    assert tail_walk(iter([0.0] * 4), CTX) == (0.0, 0.0, 3)


def test_tail_walk_stops_a_sum_that_cancels_at_its_rounding_floor():
    # 1, -1, 1/2, -1/2, ...: the running sum is exactly 0 after every pair
    # and equal to the last term in between, so no term is small beside it;
    # the walk ends on the third term at or below eps * peak = 2^-52
    def terms():
        for k in count():
            yield 0.5 ** k
            yield -0.5 ** k

    assert tail_walk(terms(), CTX) == (0.5 ** 53, 1.0, 2 * 52 + 3)


def test_tail_walk_stops_decimal_terms_at_the_decimal_rule():
    # in 30 digits a walk of Decimal or DecimalComplex terms stops on the
    # third term with |t| <= 10^(5 - 30) max(|S|, peak)
    with decimal_digits(30):
        # 10^-k sums to 1.11...: 10^-24 is above the cut, 10^-25 below it
        walk = tail_walk((Decimal(10) ** -k for k in count()), CTX)
        assert walk == (sum(Decimal(10) ** -k for k in range(28)), 1, 28)
        # i 10^-k sums to i 1.11...: |t| takes the imaginary part
        i = DecimalComplex(Decimal(0), Decimal(1))
        walk = tail_walk((i * Decimal(10) ** -k for k in count()), CTX)
        assert walk == (i * sum(Decimal(10) ** -k for k in range(28)), 1, 28)

        # i, -i, i/10, -i/10, ... cancels to 0 after every pair, and stops
        # at floor * peak = 10^-25
        def cancelling():
            for k in count():
                yield i * Decimal(10) ** -k
                yield -i * Decimal(10) ** -k

        walk = tail_walk(cancelling(), CTX)
        assert walk == (i * Decimal(10) ** -26, 1, 2 * 25 + 3)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.nan)])
def test_tail_walk_refuses_a_term_that_is_not_finite(bad):
    drawn = []

    def terms():
        for t in [1.0, bad, 0.0, 0.0, 0.0]:
            drawn.append(t)
            yield t

    with pytest.raises(OverflowGuard):
        tail_walk(terms(), CTX)
    assert len(drawn) == 2


def test_tail_walk_refuses_a_running_sum_that_overflows():
    with pytest.raises(OverflowGuard):
        tail_walk(iter([1e308, 1e308, 0.0, 0.0, 0.0]), CTX)


def _lane_terms():
    """Five term lists of different lengths: geometric, complex, alternating,
    one that cancels to 0 at its rounding floor, and one that is 0 after its
    third term and then not finite (a lane that has stopped adds nothing)."""
    def cancelling():
        for k in range(200):
            yield 0.5 ** k
            yield -0.5 ** k

    return [[0.3 ** k for k in range(400)],
            [(0.5 + 0.4j) ** k * (1 + 0.1j * k) for k in range(400)],
            [(-0.9) ** k for k in range(400)],
            list(cancelling()),
            [1.0, 2.0, 3.0, 0.0, 0.0, 0.0] + [math.inf] * 394]


def test_tail_walk_over_lanes_is_each_lane_walked_alone():
    lanes = _lane_terms()
    walk = tail_walk((np.array(col) for col in zip(*lanes)), CTX)
    for i, terms in enumerate(lanes):
        alone = tail_walk(iter(terms), CTX)
        assert (walk.value[i], walk.peak[i], walk.terms[i]) == alone
    assert len(set(walk.terms)) == len(lanes)
    assert walk.terms[4] == 6


def test_tail_walk_over_lanes_refuses_a_live_lane_that_is_not_finite():
    # the third lane turns inf at its fifth term, while it is still walking
    lanes = _lane_terms()[:3]
    lanes[2][4] = math.inf
    with pytest.raises(OverflowGuard, match=r"term 5 of a sum is \(inf"):
        tail_walk((np.array(col) for col in zip(*lanes)), CTX)


def test_bilateral_walk_gives_up_at_max_terms():
    # one walk over 0, -1, 1, -2, 2, ... draws no site past max_terms
    drawn = []

    def term(m):
        drawn.append(m)
        return 1.0

    with pytest.raises(TruncationExhausted):
        bilateral_walk(term, QContext(q=0.4, max_terms=5))
    assert drawn == [0, -1, 1, -2, 2]
    with pytest.raises(TruncationExhausted):
        vgamma.windowed_bilateral_sum(lambda m: 1.0, QContext(q=0.4, max_terms=5))
    # the first 0 counts as small beside the running sum 1, the -1 does not
    drawn.clear()

    def finite(m):
        drawn.append(m)
        return 0.0 if abs(m) >= 3 else 1.0 + m

    assert bilateral_walk(finite, CTX) == (5.0, 3.0, 8)
    assert drawn == [0, -1, 1, -2, 2, -3, 3, -4]


def test_bilateral_walk_keeps_the_digits_of_sides_that_cancel():
    # the sides sum to 1e6 and -1e6 and the total is exactly 1: a side
    # stopped relative to its own sum would leave the total about 1e-5
    # off; the one walk stops relative to the running total
    def term(m):
        if m > 0:
            return 1e6 * 0.5 ** m
        if m < 0:
            return -1e6 / 3 * (2 / 3) ** (-m - 1)
        return 1.0

    assert abs(bilateral_walk(term, CTX).value - 1.0) < 1e-9
    assert abs(vgamma.windowed_bilateral_sum(term, CTX) - 1.0) < 1e-9


def test_sites_in_blocks_grows_each_side_in_fixed_blocks():
    blocks = []

    def block(ms):
        blocks.append((ms.start, len(ms)))
        return [m * m + 0.5 for m in ms]

    site = sites_in_blocks(block)
    assert [site(m) for m in range(70)] == [m * m + 0.5 for m in range(70)]
    assert [site(m) for m in range(-1, -40, -1)] == [m * m + 0.5 for m in range(-1, -40, -1)]
    assert blocks == [(0, 32), (32, 32), (64, 32), (-1, 32), (-33, 32)]
    assert site(5) == 25.5 and len(blocks) == 5  # a known site is read, not recomputed


def test_bracket_fixed_points():
    assert bracket(1.0) == 0
    assert bracket(-1.0) == 0


def test_bracket_hand_value():
    # z = i q^{nu+m}: bracket = i (q^{nu+m} + q^{-nu-m}), expanded by hand
    q, nu, m = 0.4, 0.5, 2
    z = 1j * q ** (nu + m)
    expect = 1j * (q ** (nu + m) + q ** (-nu - m))
    assert abs(bracket(z) - expect) < 1e-14


def test_bracket_zero_rejected():
    with pytest.raises(DomainError):
        bracket(0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False))
def test_bracket_inversion_antisymmetry(z):
    assert abs(bracket(z) + bracket(1 / z)) <= 1e-12 * max(abs(bracket(z)), 1.0)


def test_theta_h_vanishes_at_one():
    assert abs(theta_sum(ThetaKind.H, 1.0, CTX)[0]) < 1e-12
    assert abs(theta_product(ThetaKind.H, 1.0, CTX)) < 1e-12


def test_theta_const_three_routes():
    s, _ = theta_sum(ThetaKind.CAP_THETA4, 1.0, CTX)
    p = theta_product(ThetaKind.CAP_THETA4, 1.0, CTX)
    ratio = qpoch_inf(0.4, 0.4, CTX) / qpoch_inf(-0.4, 0.4, CTX)
    assert abs(s - p) < 1e-12
    assert abs(p - ratio) < 1e-12
    assert abs(big_theta4_const(CTX) - s) < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(0.5, 2.0), st.floats(0.0, 6.28))
def test_theta4_u_inversion_symmetry(r, phi):
    u = r * cmath.exp(1j * phi)
    for theta in (lambda v: theta_sum(ThetaKind.THETA4, v, CTX)[0],
                  lambda v: theta_product(ThetaKind.THETA4, v, CTX)):
        a, b = theta(u), theta(1 / u)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_theta_sum_product_agreement_all_kinds():
    rng = np.random.default_rng(11)
    for ctx in (CTX, QContext(q=0.7 + 0.1j)):
        for kind in ThetaKind:
            for _ in range(50):
                u = rng.uniform(0.5, 2.0) * cmath.exp(2j * cmath.pi * rng.uniform())
                s, peak = theta_sum(kind, u, ctx)
                p = theta_product(kind, u, ctx)
                assert abs(s - p) <= 1e-9 * max(abs(s), abs(p), peak)


def test_jacobi_transform_holds():
    b = cmath.exp(1j * cmath.pi / 5)
    assert jacobi_transform_check(0.3, b, CTX).residual < 1e-9
    assert jacobi_transform_check(0.0, b, CTX).residual < 1e-9


def test_jacobi_transform_negative_control():
    b = cmath.exp(1j * cmath.pi / 5)
    r = jacobi_transform_check(0.3, b, CTX, rhs_phase=0.01)
    assert r.residual > 1e-9


def test_gauss_identity():
    assert gauss_check(0.2, 0.3, CTX).residual < 1e-9


def test_gauss_double_sum_trivial_point():
    r = gauss_double_sum_check(0.0, 0.0, CTX)
    assert r.params["res_double"] < 1e-15


def test_gauss_double_sum_against_brute_force():
    # oracle: plain 200x200 double loop, no tail machinery
    q2 = 0.16
    z1, z2 = 0.3, 0.2
    poch = [1.0]
    for n in range(1, 201):
        poch.append(poch[-1] * (1 - q2 ** n))
    total = 0.0
    for n1 in range(120):
        for n2 in range(120):
            total += q2 ** (n1 * n2) * z1 ** n1 * z2 ** n2 / (poch[n1] * poch[n2])
    rhs = qpoch_inf(z1 * z2, q2, CTX) / (qpoch_inf(z1, q2, CTX) * qpoch_inf(z2, q2, CTX))
    assert abs(total - rhs) < 1e-12
    assert gauss_double_sum_check(z1, z2, CTX).residual < 1e-9


def test_gauss_diagonal_against_brute_force():
    q2 = 0.16
    poch = [1.0]
    for n in range(1, 201):
        poch.append(poch[-1] * (1 - q2 ** n))
    total = sum(q2 ** (n * n) / poch[n] ** 2 for n in range(200))
    assert abs(total - 1 / qpoch_inf(q2, q2, CTX)) < 1e-13


def test_pentagonal_series():
    assert pentagonal_check(CTX).residual < 1e-9


def test_bilateral_sum_gaussian():
    # sum of q^{n^2} over Z equals the theta-constant at u = -1
    q = 0.4
    total = bilateral_walk(lambda n: q ** (n * n), CTX).value
    s, _ = theta_sum(ThetaKind.CAP_THETA3, 1.0, CTX)
    assert abs(total - s) < 1e-12


def test_context_validation():
    for q in (1.2, float("nan"), complex("nan+0.1j")):
        with pytest.raises(DomainError):
            QContext(q=q)
    with pytest.raises(TypeError):
        QContext(q=0.4, tol_identity=1e-9, tail_cut=1e-3)  # the cut is derived
    ctx = QContext(q=0.4, tol_identity=1e-6)
    assert ctx.tail_cut == pytest.approx(1e-8)
    assert ctx.q_pow_half(3) == pytest.approx(complex(0.4) ** 1.5)


def test_context_branch_consistency_negative_q():
    ctx = QContext(q=-0.3)
    # all half-integer powers share the principal branch fixed at construction
    assert ctx.q_pow_half(2) == pytest.approx(-0.3)
    assert ctx.q_pow_half(1) ** 2 == pytest.approx(-0.3)


def test_theta_zero_argument_rejected():
    for theta in (theta_sum, theta_product):
        with pytest.raises(DomainError):
            theta(ThetaKind.H, 0.0, CTX)


def test_theta_representation_mismatch(monkeypatch):
    # the catalogue's theta check compares the sum with the product form;
    # a sum that disagrees fails every kind
    from qkm.registry import RunConfig, run_suite
    import qkm.qseries as qs
    monkeypatch.setattr(qs, "theta_sum", lambda kind, u, ctx: (1.0 + 0j, 1.0))
    reports = run_suite(RunConfig(filter="qseries.theta.A_4"))
    assert [r.verdict for r in reports] == ["FAIL"] * 5


def test_theta_h_refuses_a_square_out_of_double_range():
    for u in (1e-200, 1e200, 1e-170j):
        with pytest.raises(DomainError):
            theta_product(ThetaKind.H, u, CTX)
