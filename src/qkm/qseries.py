"""q-series kernel: Pochhammer symbols, brackets, theta functions.

Everything downstream (orthogonal polynomials, lattice Boltzmann weights,
the modular-double machinery) is built on the primitives here.  Every
sum, in complex doubles, in numpy lanes of them or in the decimal
arithmetic of decimal_digits, stops by one rule, written once in
``tail_walk``, at the cut and the rounding floor of its arithmetic.
Products count their factors in closed form instead (``tail_length``, and
``log_qpoch_table`` for every exponent of a grid): a factor 1 - a moves
the running product by |a| relative, so that count is the same rule.
Nomes are always explicit; nothing squares a nome implicitly, callers
pass q*q where a base-q**2 symbol is wanted.
"""

from __future__ import annotations

import cmath
import math
import sys
from contextlib import contextmanager
from decimal import (Context, Decimal, DivisionByZero, InvalidOperation, Overflow, getcontext,
                     localcontext)
from enum import Enum
from functools import reduce
from itertools import chain, count, islice
from operator import mul
from typing import NamedTuple

import numpy as np

from .context import QContext
from .errors import DomainError, OverflowGuard, TruncationExhausted
from .report import CheckResult, relative_residual, worst_residual

__all__ = [
    "Walk", "as_complex", "complex_math", "tail_walk", "decimal_digits", "tail_length",
    "bilateral_walk",
    "tail_sum", "sites_in_blocks", "refuse_cancellation",
    "qpoch_finite_table", "qpoch_inf",
    "qpoch_inf_multi", "log_qpoch_inf_array", "log_qpoch_table", "bracket",
    "ThetaKind", "theta_sum", "theta_product", "big_theta4_const",
    "jacobi_transform_check", "gauss_check", "gauss_double_sum_check",
    "pentagonal_check",
]


# digits the decimal sums carry beyond their nominal dps (decimal_digits)
_GUARD_DIGITS = 5
_DECIMAL_TRAPS = (DivisionByZero, InvalidOperation, Overflow)


class Walk(NamedTuple):
    """What a tail walk summed: its value, its largest |term| and its length
    (one of each per lane for a walk over lanes)."""
    value: complex
    peak: float
    terms: int


def as_complex(x):
    """x as one Python complex, or, when x is an array, as complex lanes.

    A kernel that takes its arithmetic from its argument converts it with
    this: a number keeps the Python-complex code and its bits, an array of
    nodes runs the same code once over numpy lanes.
    """
    return complex(x) if type(x) is not np.ndarray else x.astype(complex, copy=False)


def complex_math(x):
    """The complex functions (exp, sinh, ...) of x's arithmetic: numpy for lanes, else cmath."""
    return cmath if type(x) is not np.ndarray else np


def _lane_size(t):
    """|t| in each lane, bit for bit Python's abs of a complex (np.abs is not)."""
    return np.hypot(t.real, t.imag)


def tail_walk(terms, ctx: QContext) -> Walk:
    """Sum a term iterable, in order, until three consecutive terms have
    |t| <= max(cut |S|, floor peak), S the running sum and peak the largest
    |t| so far.  The cut keeps the digits of a sum far below 1.  The floor
    ends a sum at the rounding error its largest terms already left in it,
    which no smaller term can change, so a sum that cancels to 0 ends too.
    Both numbers belong to the arithmetic of the terms:

    * complex doubles: cut ``ctx.tail_cut``, floor the machine epsilon;
    * lanes (terms that are complex arrays, one sum per entry): each lane
      follows the complex-double rule and, after its own three terms below
      it, adds nothing more, so it takes exactly the terms, value and peak
      of the walk over that lane alone; the walk ends once every lane has
      stopped, and value, peak and terms are arrays;
    * Decimal and DecimalComplex (terms with Decimal real parts), inside
      decimal_digits(dps): floor 10^(5 - dps) and no cut, so the running
      sum is never sized (a cut equal to the floor could end the walk
      sooner only where |S| > peak).  A walk whose first term is a
      DecimalComplex compares squared sizes, |t|^2 against floor^2 peak^2,
      so that no term takes a square root.

    peak / |value| is the cancellation of the sum.  Raises OverflowGuard at
    once on a term or running sum that is not finite (in a lane that has
    not stopped), TruncationExhausted after ``ctx.max_terms`` terms
    (drawing no more) or when ``terms`` ends.
    """
    terms = islice(terms, ctx.max_terms)
    first = next(terms, 0.0)  # an empty iterable sums a 0 and ends without a tail
    lanes = type(first) is np.ndarray
    size, squared, decimal = abs, False, not lanes and isinstance(first.real, Decimal)
    if not decimal:
        cut, floor, total = ctx.tail_cut, sys.float_info.epsilon, 0.0 + 0.0j
        if lanes:
            size = _lane_size
    else:
        dps = getcontext().prec - _GUARD_DIGITS  # inside decimal_digits(dps)
        floor, total = Decimal(10) ** (5 - dps), Decimal(0)
        if type(first) is not Decimal:
            size, floor, squared = (lambda t: t.real * t.real + t.imag * t.imag), floor * floor, True
    peak = noise = size(total)  # noise: floor * peak
    below, inf = 0, math.inf
    for n, t in enumerate(chain((first,), terms), 1):
        if lanes:  # a stopped lane adds 0 from here on, so it stays below the rule
            t = np.where(below < 3, t, 0)
        total += t
        now = size(t)
        if lanes:
            peak = np.maximum(peak, now)
            noise = floor * peak
        elif now > peak:
            peak, noise = now, floor * now
        if decimal:  # overflow is trapped, and the walk stops at its floor alone
            rel = noise
        else:
            scale = size(total)
            if not (scale.max() if lanes else scale) < inf:
                bad = t[~(scale < inf)][0] if lanes else t
                raise OverflowGuard(f"term {n} of a sum is {bad}; the sum leaves double range")
            rel = cut * scale
        if lanes:
            below = (below + 1) * ((now <= rel) | (now <= noise))
            if below.min() >= 3:  # a lane that stopped k terms ago has below = 3 + k
                return Walk(total, peak, n + 3 - below)
        elif now <= rel or now <= noise:
            below += 1
            if below == 3:
                return Walk(total, peak.sqrt() if squared else peak, n)
        else:
            below = 0
    raise TruncationExhausted(f"no tail within {ctx.max_terms} terms")


@contextmanager
def decimal_digits(dps: int):
    """Decimal arithmetic in dps digits plus _GUARD_DIGITS, in this thread.

    Division by zero, invalid operations and overflow are trapped and
    raised as DomainError; the caller's decimal context is restored.
    """
    with localcontext(Context(prec=dps + _GUARD_DIGITS, traps=list(_DECIMAL_TRAPS))):
        try:
            yield
        except _DECIMAL_TRAPS as exc:
            raise DomainError(f"extended-precision arithmetic failed: {type(exc).__name__}") from exc


def _first_below(size: float, rate: float, cut: float) -> int:
    """Smallest integer j with size * rate**j < cut, in closed form (size > 0)."""
    if rate == 0.0:
        return 0 if size < cut else 1
    return math.ceil((math.log(cut) - math.log(size)) / math.log(rate))


def tail_length(top, rate: float, cut: float, max_terms: int) -> int:
    """The factor count of a product of 1 - a_k, |a_k| = top * rate**k, 0 <= rate < 1:
    the factors at or above ``cut`` plus three below it (see the module
    docstring).  For an array of lane sizes ``top`` the count is that of the
    largest, so every lane runs at least its own count.  Raises
    TruncationExhausted on sizes that are not finite or do not shrink, and
    on a count above ``max_terms``."""
    if type(top) is np.ndarray:
        top = float(top.max(initial=0.0))
    if not (math.isfinite(top) and 0.0 <= rate < 1.0):
        raise TruncationExhausted(f"terms of size {top:.3g} * {rate:.3g}**k have no tail")
    above = 0 if top < cut else _first_below(top, rate, cut)
    if above + 3 > max_terms:
        raise TruncationExhausted(f"no tail within {max_terms} terms")
    return above + 3


def bilateral_walk(term, ctx: QContext) -> Walk:
    """The tail_walk of term(m) over all integers m, drawn 0, -1, 1, -2, ...:
    one walk over both sides, so sides that cancel keep the total's digits."""
    return tail_walk((term(site) for m in count() for site in (m, -m - 1)), ctx)


def tail_sum(terms, ctx: QContext) -> complex:
    """The value of the tail_walk over a term iterable."""
    return tail_walk(terms, ctx).value


def sites_in_blocks(block):
    """A site function for walks over m = 0, 1, ... and m = -1, -2, ...

    ``block(ms)`` returns the values at the sites of the range ``ms``.  A
    read past the known sites of a side (m >= 0 or m < 0), which must be
    read in order, computes the next 32 sites of that side.
    """
    known = {}

    def site(m):
        if m not in known:
            step = 1 if m >= 0 else -1
            ms = range(m, m + 32 * step, step)
            known.update(zip(ms, block(ms)))
        return known[m]

    return site


def refuse_cancellation(peak, value, tol: float, what: str):
    """Refuse a double-precision sum whose largest term ``peak`` dwarfs its ``value``.

    Rounding the largest terms alone leaves an error of about
    peak / |value| * eps; once ten times that exceeds the tolerance, the
    sum cannot tell a true identity from a false one, and is refused with
    the digits lost.  A ratio that is not finite (such as 0 / 0) is refused
    as well.  On arrays of sums the worst entry decides.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(np.max(np.divide(peak, np.abs(value))))
    if not math.isfinite(ratio):
        raise DomainError(f"{what} leaves double range: its peak-to-value ratio is {ratio}")
    if 10 * ratio * np.finfo(float).eps > tol:
        raise DomainError(f"{what} loses {math.log10(ratio):.1f} of 16 digits to "
                          f"cancellation, too many for the tolerance {tol:g}")


def qpoch_finite_table(x, q, n: int) -> list[complex]:
    """[(x; q)_0, (x; q)_1, ..., (x; q)_n] by one running product.

    Entry k is prod_{j<k} (1 - x q^j), the empty product 1 first; a call
    that needs (x; q)_k for several k reads them all from one table.
    """
    out = [1.0 + 0.0j]
    f = complex(x)
    q = complex(q)
    for _ in range(n):
        out.append(out[-1] * (1.0 - f))
        f *= q
    return out


def qpoch_inf(x, q, ctx: QContext) -> complex:
    """Infinite product prod_{k>=0} (1 - x q^k), truncated by the tail rule.

    An array x is a product per lane, all of them taking the factor count
    of the largest |x| (tail_length).
    """
    out = 1.0 + 0.0j
    f = as_complex(x)
    q = complex(q)
    for _ in range(tail_length(abs(f), abs(q), ctx.tail_cut, ctx.max_terms)):
        out *= 1.0 - f
        f = f * q  # not in place: f may be the caller's array
    return out


def qpoch_inf_multi(xs, q, ctx: QContext) -> complex:
    """Product of infinite q-Pochhammers over several first arguments."""
    return reduce(mul, (qpoch_inf(x, q, ctx) for x in xs), 1.0 + 0.0j)


def log_qpoch_inf_array(xs, q, ctx: QContext) -> np.ndarray:
    """Sum over k of log(1 - x q^k); its exp is the infinite product.

    Every x takes the tail_length of the largest |x|.  Branch-insensitive
    for that purpose (2 pi i shifts die in the exp), and immune to the
    overflow of huge intermediate products.
    """
    xs = np.asarray(xs, dtype=complex)
    q = complex(q)
    top = float(np.max(np.abs(xs), initial=0.0))
    powers = q ** np.arange(tail_length(top, abs(q), ctx.tail_cut, ctx.max_terms))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sum(np.log(1.0 - xs[..., None] * powers), axis=-1)


def _log_qpoch_chain(coef, expo, q, ctx: QContext) -> np.ndarray:
    """log (coef q^e; q^2)_inf at each exponent e of the integer grid ``expo``.

    Each entry takes the tail_length count of log(1 - coef q^j), j = e,
    e + 2, ...: it ends three terms past the anchor, the first j of e's
    parity from which |coef q^j| < ctx.tail_cut.  The anchor depends on (coef, q,
    tail_cut) alone, so one reverse cumulative sum per parity, over the
    integers from min(e) to the anchor, serves every entry at or below it,
    in the same order of additions whatever the grid; an entry above it
    takes its own three terms.  Raises TruncationExhausted where
    tail_length would: on sizes that are not finite or do not shrink, and
    on a chain longer than ctx.max_terms.
    """
    lo, hi = int(expo.min()), int(expo.max())
    size, rate = abs(coef), abs(q)
    if not (math.isfinite(size) and 0.0 <= rate < 1.0):
        raise TruncationExhausted(f"terms of size {size:.3g} * {rate:.3g}**j have no tail")
    first = _first_below(size, rate, ctx.tail_cut) if size else lo
    if (first + 5 - lo) // 2 + 1 > ctx.max_terms:
        raise TruncationExhausted(f"no tail within {ctx.max_terms} terms")
    js = np.arange(lo, max(hi, first + 1) + 5)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        args = coef * q ** js.astype(float)
    if not np.all(np.isfinite(args)):
        raise OverflowGuard("q-product argument leaves double range; "
                            "narrow the spin window")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(1.0 - args)
    # each entry's own three terms, replaced by the chain's running sums
    # at or below the anchor of its parity
    sums = np.empty_like(terms)
    sums[:-4] = terms[:-4] + (terms[2:-2] + terms[4:])
    for anchor in (first, first + 1):
        if anchor >= lo:
            start = (anchor - lo) % 2
            chain = np.cumsum(terms[start:anchor + 5 - lo:2][::-1])[::-1]
            sums[start:anchor + 1 - lo:2] = chain[:-2]
    return sums[expo - lo]


def log_qpoch_table(log_pref, factors, q, den, ctx: QContext) -> np.ndarray:
    """exp(log_pref + sum_f log (c_f q^{e_f}; q^2)_inf) / den on a grid.

    ``factors`` lists (c_f, e_f) pairs of a scalar coefficient and an
    integer exponent grid; every grid broadcasts against ``log_pref``.
    Each log q-product is one entry of an anchored chain per factor (see
    _log_qpoch_chain): O(range of e) logarithms for a whole grid, and every
    entry a function of its own exponent alone, so a table entry equals
    the 1 x 1 table bit for bit whatever grid it is read from.  Summing
    the logarithms keeps wide spin windows clear of the overflow of the
    raw products; entries whose weight leaves double range come out as 0
    or inf.  A factor argument that itself overflows raises OverflowGuard.
    """
    if den == 0:
        raise DomainError("weight evaluated on a pole of its closed form")
    log_v = log_pref
    for coef, expo in factors:
        log_v = log_v + _log_qpoch_chain(complex(coef), np.asarray(expo), complex(q), ctx)
    log_v = log_v - np.log(den)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        return np.exp(log_v)


def bracket(z) -> complex:
    """Square-bracket symbol z - 1/z."""
    z = complex(z)
    if z == 0:
        raise DomainError("bracket undefined at z = 0")
    return z - 1.0 / z


class ThetaKind(Enum):
    THETA4 = "theta4"
    THETA3 = "theta3"
    CAP_THETA4 = "Theta4"
    CAP_THETA3 = "Theta3"
    H = "H"


def theta_sum(kind: ThetaKind, u, ctx: QContext):
    """Theta function by its bilateral sum; returns (value, largest term)."""
    u = complex(u)
    if u == 0:
        raise DomainError("theta functions need u != 0")
    if kind is ThetaKind.THETA3:
        return theta_sum(ThetaKind.THETA4, -u, ctx)
    if kind is ThetaKind.CAP_THETA3:
        return theta_sum(ThetaKind.CAP_THETA4, -u, ctx)
    q = ctx.q
    if kind is ThetaKind.THETA4:
        term = lambda n: ctx.q_pow_half(n * n) * (-u) ** n
    elif kind is ThetaKind.CAP_THETA4:
        term = lambda n: q ** (n * n) * (-u) ** n
    else:  # H
        term = lambda n: q ** (n * (n - 1)) * (-1) ** n * u ** (2 * n - 1)
    walk = bilateral_walk(term, ctx)
    return walk.value, walk.peak


def theta_product(kind: ThetaKind, u, ctx: QContext) -> complex:
    """Theta function by its triple-product representation."""
    u = complex(u)
    if u == 0:
        raise DomainError("theta functions need u != 0")
    if kind is ThetaKind.THETA3:
        return theta_product(ThetaKind.THETA4, -u, ctx)
    if kind is ThetaKind.CAP_THETA3:
        return theta_product(ThetaKind.CAP_THETA4, -u, ctx)
    q = ctx.q
    if kind is ThetaKind.THETA4:
        return qpoch_inf_multi((ctx.q_half * u, ctx.q_half / u, q), q, ctx)
    if kind is ThetaKind.CAP_THETA4:
        return qpoch_inf_multi((q * u, q / u, q * q), q * q, ctx)
    u2 = u * u
    if u2 == 0 or not cmath.isfinite(u2):
        raise DomainError(f"theta function H needs u^2 in double range, got u = {u!r}")
    return qpoch_inf_multi((u2, q * q / u2, q * q), q * q, ctx) / u


def big_theta4_const(ctx: QContext) -> complex:
    """Theta constant (q, q, q^2; q^2)_inf used in normalisation constants."""
    q = ctx.q
    return qpoch_inf_multi((q, q, q * q), q * q, ctx)


def jacobi_transform_check(x: float, b, ctx: QContext, rhs_phase: float = 0.0):
    """Residual of the modular (Jacobi) transform of the odd theta product.

    With u = exp(pi b x), ubar = exp(pi x / b), q = exp(i pi b^2) and
    qbar = exp(-i pi / b^2), compares

        q^{1/4} (u^2, q^2/u^2, q^2; q^2)_inf / u

    against exp(3 i pi / 4 + i pi x^2) b^{-1} qbar^{1/4} times the same
    expression in the barred variables.  ``rhs_phase`` multiplies the right
    side by exp(i rhs_phase); nonzero values are negative-control probes.
    """
    b = complex(b)
    q = cmath.exp(1j * cmath.pi * b * b)
    qb = cmath.exp(-1j * cmath.pi / (b * b))
    for nome in (q, qb):
        if abs(nome) >= 1:
            raise DomainError("both nomes must contract; take b = exp(i theta), theta in (0, pi/2)")
    ctx_q = QContext(q=q, tol_identity=ctx.tol_identity, max_terms=ctx.max_terms)
    ctx_qb = QContext(q=qb, tol_identity=ctx.tol_identity, max_terms=ctx.max_terms)
    u = cmath.exp(cmath.pi * b * x)
    ub = cmath.exp(cmath.pi * x / b)
    lhs = (cmath.exp(1j * cmath.pi * b * b / 4)
           * qpoch_inf_multi((u * u, q * q / (u * u), q * q), q * q, ctx_q) / u)
    rhs = (cmath.exp(3j * cmath.pi / 4 + 1j * cmath.pi * x * x) / b
           * cmath.exp(-1j * cmath.pi / (4 * b * b))
           * qpoch_inf_multi((ub * ub, qb * qb / (ub * ub), qb * qb), qb * qb, ctx_qb) / ub)
    rhs *= cmath.exp(1j * rhs_phase)
    res = relative_residual(lhs, rhs)
    return CheckResult({"x": x, "b": b, "rhs_phase": rhs_phase}, res)


def gauss_check(x, z, ctx: QContext):
    """Residual of the Gauss summation sum_n x^n (z;q)_n/(q;q)_n = (xz;q)_inf/(x;q)_inf."""
    q = ctx.q
    x = complex(x)
    z = complex(z)

    def terms():
        t = 1.0 + 0.0j
        for n in count():
            yield t
            t *= x * (1 - z * q ** n) / (1 - q ** (n + 1))

    lhs = tail_sum(terms(), ctx)
    rhs = qpoch_inf(x * z, q, ctx) / qpoch_inf(x, q, ctx)
    res = relative_residual(lhs, rhs)
    return CheckResult({"x": x, "z": z, "q": q}, res)


def gauss_double_sum_check(z1, z2, ctx: QContext):
    """Two convergent consequences of the Gauss identity.

    First: the double sum over n1, n2 of q^{2 n1 n2} z1^n1 z2^n2 /
    ((q^2;q^2)_{n1} (q^2;q^2)_{n2}) equals (z1 z2; q^2)_inf /
    ((z1;q^2)_inf (z2;q^2)_inf).  Third: the diagonal sum of
    q^{2 n^2} / (q^2;q^2)_n^2 equals 1/(q^2;q^2)_inf.  (The middle,
    distributional, identity of the family is out of numerical scope.)
    """
    q = ctx.q
    q2 = q * q
    z1 = complex(z1)
    z2 = complex(z2)
    if abs(z1) >= 1 or abs(z2) >= 1:
        raise DomainError("double sum needs |z1|, |z2| < 1")

    poch = [1.0 + 0.0j]

    def poch2(n):
        while len(poch) <= n:
            k = len(poch)
            poch.append(poch[k - 1] * (1 - q2 ** k))
        return poch[n]

    def outer_terms():
        for n1 in count():
            w = z2 * q2 ** n1

            def inner():
                t = 1.0 + 0.0j
                for n2 in count():
                    yield t
                    t *= w / (1 - q2 ** (n2 + 1))

            yield z1 ** n1 / poch2(n1) * tail_sum(inner(), ctx)

    lhs1 = tail_sum(outer_terms(), ctx)
    rhs1 = qpoch_inf(z1 * z2, q2, ctx) / (qpoch_inf(z1, q2, ctx) * qpoch_inf(z2, q2, ctx))
    res1 = relative_residual(lhs1, rhs1)

    def diag_terms():
        for n in count():
            yield q2 ** (n * n) / poch2(n) ** 2

    lhs3 = tail_sum(diag_terms(), ctx)
    rhs3 = 1.0 / qpoch_inf(q2, q2, ctx)
    res3 = relative_residual(lhs3, rhs3)

    return CheckResult({"z1": z1, "z2": z2, "q": q,
                        "res_double": res1, "res_diagonal": res3},
                       worst_residual((res1, res3)))


def pentagonal_check(ctx: QContext):
    """Pentagonal-number series sum_m (-)^m q^{m(3m+1)/2} against (q;q)_inf."""
    q = ctx.q
    lhs = bilateral_walk(lambda m: (-1) ** m * q ** (m * (3 * m + 1) // 2), ctx).value
    rhs = qpoch_inf(q, q, ctx)
    res = relative_residual(lhs, rhs)
    return CheckResult({"q": q}, res)
