"""Laurent polynomials P_n(xi) and their q-hypergeometric extension chi(u, z).

P_n is defined by an explicit sum with q**2-binomial coefficients, or
equivalently by a q-shift recursion or a three-term recursion; the three
routes are kept side by side as mutual cross-checks.  chi(u, z) extends
P_n off the lattice z = q^{-2m} and is the building block of the modular
wavefunction.
"""

from __future__ import annotations

import cmath
import math
from decimal import Decimal
from enum import Enum
from itertools import count, islice

import numpy as np

from .context import QContext
from .errors import DegenerateArgument, DomainError, OverflowGuard
from .qseries import (as_complex, big_theta4_const, bilateral_walk, decimal_digits,
                      qpoch_finite_table, qpoch_inf, qpoch_inf_multi, tail_sum, tail_walk)
from .report import CheckResult, relative_residual, worst_residual

__all__ = [
    "PolyEvalMethod", "poly_P", "poly_rows", "scaled_poly_iter",
    "scaled_poly_values", "DecimalComplex", "to_decimal",
    "decimal_sqrt", "lattice_brace_sums", "overlap_sum", "overlap_grid",
    "poly_P_difference_checks", "genfun_checks", "poly_norm_sum_check",
    "chi", "chi_equation_checks",
]

# ln(1e300); exponents beyond this overflow double precision
_LN_OVERFLOW = 690.0


class PolyEvalMethod(Enum):
    EXPLICIT_SUM = "explicit_sum"
    FORWARD_RECURSION = "forward_recursion"
    QSHIFT_RECURSION = "qshift_recursion"


def _guard_scale(n: int, q: complex):
    # Largest term in the explicit sum carries q^{-2k(n-k)} ~ q^{-n^2/2}.
    if n > 1 and (n * n / 2.0) * math.log(1.0 / abs(q)) > _LN_OVERFLOW:
        raise OverflowGuard(
            f"P_{n} at |q| = {abs(q):.3g} exceeds double range; reduce n")


def poly_P(n: int, xi, ctx: QContext,
           method: PolyEvalMethod = PolyEvalMethod.FORWARD_RECURSION) -> complex:
    """P_n(xi), by the selected evaluation route.

    The default three-term recursion is numerically stable for |q| < 1;
    the explicit sum is kept as the cross-check oracle at moderate n.
    """
    xi = complex(xi)
    if xi == 0:
        raise DomainError("P_n needs xi != 0")
    if n < 0:
        raise DomainError("P_n defined for n >= 0")
    q = ctx.q
    _guard_scale(n, q)
    if method is PolyEvalMethod.EXPLICIT_SUM:
        poch = qpoch_finite_table(q * q, q * q, n)  # (q^2; q^2)_k for k <= n
        total = 0.0 + 0.0j
        for k in range(n + 1):
            total += (xi ** (2 * k - n) * q ** (-2 * k * (n - k))
                      * (poch[n] / (poch[k] * poch[n - k])))
        return total
    if method is PolyEvalMethod.FORWARD_RECURSION:
        prev, cur = 0.0 + 0.0j, 1.0 + 0.0j  # P_{-1} (unused), P_0
        s = xi + 1.0 / xi
        for m in range(n):
            prev, cur = cur, s * cur - (1 - q ** (-2 * m)) * prev
        return cur
    # q-shift recursion: level m needs P_m on the grid xi * q^j, |j| <= n - m.
    level = {j: 1.0 + 0.0j for j in range(-n, n + 1)}
    for m in range(n):
        nxt = {}
        for j in range(-(n - m - 1), n - m):
            x = xi * q ** j
            nxt[j] = q ** (-m) * (x * x * level[j + 1] - level[j - 1] / (x * x)) / (x - 1.0 / x)
        level = nxt
    return level[0]


def poly_rows(xi, q, qh, scale, coeffs=None, xi_inv=None):
    """Yield scale * q^{a^2/2} P_a(xi) for a = 0, 1, 2, ...

    The q^{a^2/2} weight is folded into the three-term recursion, whose
    coefficients then stay bounded, so large orders neither overflow nor
    lose the scale (plain P_a grows like q^{-a^2/2}).  ``scale`` folds a
    caller prefactor into the start value; on spin lattices xi = gamma q^m
    the natural site factor gamma^m q^{m^2/2} keeps every product bounded
    by |gamma|-powers.  The arithmetic is that of the arguments (complex
    doubles through scaled_poly_iter, Decimal and DecimalComplex numbers in
    the extended-precision lattice sums); ``qh`` is q^{1/2} on the caller's
    branch.  ``coeffs`` are the recursion coefficients
    (qh^{2a+1}, 1 - q^{2a}) for a = 0, 1, ..., computed once by a caller
    that runs many xi; a finite list ends the rows after len(coeffs) + 1.
    ``xi_inv`` is 1/xi when the caller already has it (a lattice walks it
    beside xi), else it is computed here.
    """
    if coeffs is None:
        coeffs = ((qh ** (2 * a + 1), 1 - q ** (2 * a)) for a in count())
    coeffs = iter(coeffs)
    s = xi + (1 / xi if xi_inv is None else xi_inv)
    yield scale
    # P_{-1} = 0: the first step has no down term
    for up, _ in islice(coeffs, 1):
        prev, cur = scale, up * s * scale
        yield cur
    for up, down in coeffs:
        prev, cur = cur, up * s * cur + down * prev
        yield cur


class DecimalComplex:
    """x + iy over Decimal, rounded in the current decimal context.

    The complex arithmetic the lattice sums need: + - * / with ints,
    Decimals and each other, integer powers, abs, the principal square root
    and complex().  A real lattice stays in plain Decimal (see to_decimal),
    and mixed operands promote to this type.
    """
    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, o):
        if type(o) is DecimalComplex:
            return DecimalComplex(self.real + o.real, self.imag + o.imag)
        return DecimalComplex(self.real + o, self.imag)

    __radd__ = __add__

    def __neg__(self):
        return DecimalComplex(-self.real, -self.imag)

    def __sub__(self, o):
        if type(o) is DecimalComplex:
            return DecimalComplex(self.real - o.real, self.imag - o.imag)
        return DecimalComplex(self.real - o, self.imag)

    def __rsub__(self, o):
        return DecimalComplex(o - self.real, -self.imag)

    def __mul__(self, o):
        if type(o) is DecimalComplex:
            return DecimalComplex(self.real * o.real - self.imag * o.imag,
                                  self.real * o.imag + self.imag * o.real)
        return DecimalComplex(self.real * o, self.imag * o)

    __rmul__ = __mul__

    def inverse(self):
        norm = self.real * self.real + self.imag * self.imag
        return DecimalComplex(self.real / norm, -self.imag / norm)

    def __truediv__(self, o):
        if type(o) is DecimalComplex:
            return self * o.inverse()
        return DecimalComplex(self.real / o, self.imag / o)

    def __rtruediv__(self, o):
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return (self ** -n).inverse()
        out, base = DecimalComplex(Decimal(1), Decimal(0)), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __abs__(self):
        return (self.real * self.real + self.imag * self.imag).sqrt()

    def sqrt(self):
        """Principal branch; the smaller part is y / (2 * larger), so it
        does not carry the cancellation of sqrt((|z| - |x|) / 2)."""
        x, y = self.real, self.imag
        big = ((abs(self) + abs(x)) / 2).sqrt()
        if not big:
            return DecimalComplex(big, big)
        small = y / (2 * big)
        if x >= 0:
            return DecimalComplex(big, small)
        return DecimalComplex(abs(small), big.copy_sign(y))

    def __complex__(self):
        return complex(float(self.real), float(self.imag))

    def __eq__(self, o):
        return (type(o) is DecimalComplex
                and self.real == o.real and self.imag == o.imag)

    def __repr__(self):
        return f"DecimalComplex({self.real!r}, {self.imag!r})"


def to_decimal(z):
    """The complex double z exactly: a Decimal when it is real, else a DecimalComplex."""
    z = complex(z)
    if z.imag == 0:
        return Decimal(z.real)
    return DecimalComplex(Decimal(z.real), Decimal(z.imag))


def decimal_sqrt(z):
    """Principal square root of a Decimal or DecimalComplex, as QContext.q_half."""
    if type(z) is DecimalComplex:
        return z.sqrt()
    if z >= 0:
        return z.sqrt()
    return DecimalComplex(Decimal(0), (-z).sqrt())


def lattice_brace_sums(triples, gamma, dps: int, ctx: QContext):
    """Lattice sums of the triples {a, b, c} over xi = gamma q^m, in dps digits.

    Site m contributes (-1)^m (xi - 1/xi) row_a row_b row_c, the rows
    scaled by gamma^m q^{m^2/2}.  A given gamma is summed over all m,
    walked 0, -1, 1, -2, ... as bilateral_walk does.  gamma None is
    q^{1/2} at the working precision, where xi = q^{m+1/2}, the weight
    cubed is q^{3m(m+1)/2} and the sites m and -1 - m carry equal terms,
    so it is summed over m = 0, 1, ... only; its (0, 0, 0) sum is then
    -q^{-1/2} (q; q)_inf (Euler's pentagonal theorem).
    Each triple is its own tail_walk, whose decimal rule stops it at the
    floor of the arithmetic (cut = floor = 10^(5 - dps)), so a total does
    not depend on the other triples.  The walks share a cache of sites:
    each site's rows and its f row_a row_b pairs are built once, and a
    term only when a walk reaches it.  The summands are O(1) while a total
    can be as small as q^{ab+ac+bc}; one that falls more than dps - 8
    digits below its peak keeps too few digits for a check and is refused,
    and so is an index that is not a nonnegative integer.

    The arithmetic is stdlib decimal at dps plus a few guard digits
    (decimal_digits), in Decimal on a real lattice and DecimalComplex
    otherwise.  Returns those totals and the number of sites walked.
    """
    if not all(isinstance(i, (int, np.integer)) and i >= 0 for t in triples for i in t):
        raise DomainError(f"brace indices must be nonnegative integers, got {triples}")
    for name, z in (("q", ctx.q), ("gamma", gamma)):
        if z is not None and (z == 0 or not cmath.isfinite(z)):
            raise DomainError(f"lattice sums need a finite nonzero {name}, got {z}")
    one_sided = gamma is None
    with decimal_digits(dps):
        q = to_decimal(ctx.q)
        qh = decimal_sqrt(q)  # principal branch, same as QContext.q_half
        gamma = qh if one_sided else to_decimal(gamma)
        top = max((max(t) for t in triples), default=0)
        coeffs = [(qh ** (2 * a + 1), 1 - q ** (2 * a)) for a in range(top)]
        q_inv = 1 / q
        moves = {1: (q, q_inv, gamma), -1: (q_inv, q, 1 / gamma)}
        # m -> (xi, 1/xi, gamma^m q^{m^2/2}, q^{|m|+1/2}); a walk reaches m
        # only after m -+ 1, so each site is one step on from the site before
        # it, and 1/xi is walked beside xi rather than inverted
        steps = {0: (gamma, 1 / gamma, 1, qh)}
        sites = {}  # m -> (rows, f, {(a, b): f row_a row_b})

        def site(m):
            if m:
                d = 1 if m > 0 else -1
                xi, xi_inv, scale, odd = steps[m - d]
                q_step, inv_step, gamma_step = moves[d]
                steps[m] = (xi * q_step, xi_inv * inv_step, scale * gamma_step * odd, odd * q)
            xi, xi_inv, scale, _ = steps[m]
            rows = list(poly_rows(xi, q, qh, scale, coeffs, xi_inv))
            sites[m] = rows, (xi_inv - xi if m % 2 else xi - xi_inv), {}
            return sites[m]

        def walk(a, b, c):
            ab = a, b

            def term(m):
                rows, f, pairs = sites[m] if m in sites else site(m)
                fab = pairs.get(ab)
                if fab is None:
                    fab = pairs[ab] = f * rows[a] * rows[b]
                return fab * rows[c]

            if one_sided:
                return tail_walk(map(term, count()), ctx)
            return bilateral_walk(term, ctx)

        walks = [walk(*t) for t in triples]
        digits = Decimal(10) ** (dps - 8)
        if any(w.peak > abs(w.value) * digits for w in walks):
            raise DomainError(f"lattice sum cancels more than {dps - 8} of its {dps} digits")
        return [w.value for w in walks], len(sites)


def scaled_poly_iter(xi, ctx: QContext, scale: complex = 1.0):
    """poly_rows in complex double precision on the context's branch of q^{1/2}."""
    xi = complex(xi)
    if xi == 0:
        raise DomainError("P_n needs xi != 0")
    return poly_rows(xi, ctx.q, ctx.q_half, complex(scale))


def scaled_poly_values(n_max: int, xi, ctx: QContext,
                       scale: complex = 1.0) -> np.ndarray:
    """scale * q^{a^2/2} P_a(xi) for a = 0..n_max as an array."""
    it = scaled_poly_iter(xi, ctx, scale)
    return np.array([next(it) for _ in range(n_max + 1)], dtype=complex)


def poly_P_difference_checks(n: int, xi, ctx: QContext):
    """Residuals of the two homogeneous difference equations for P_n.

    First: P_n(xi) = q^{-n} (xi P_n(q xi) - xi^{-1} P_n(xi/q)) / (xi - 1/xi).
    Second (backward): (1 - q^{-2n}) P_{n-1}(xi) =
    q^{-n} (P_n(q xi) - P_n(xi/q)) / (xi - 1/xi).  A side outside double
    range (at tiny |q|, q^{-n} times a difference of overflowed P_n values)
    is refused with OverflowGuard.
    """
    xi = complex(xi)
    if min(abs(xi - 1), abs(xi + 1)) < 1e-6:
        raise DegenerateArgument("difference quotient singular at xi = +-1; perturb xi")
    q = ctx.q
    q_n, q_2n = ctx.q_pow(-n), ctx.q_pow(-2 * n)
    p = poly_P(n, xi, ctx)
    p_up = poly_P(n, q * xi, ctx)
    p_dn = poly_P(n, xi / q, ctx)
    br = xi - 1.0 / xi
    sides = [p, q_n * (xi * p_up - p_dn / xi) / br]
    if n:
        sides += [(1 - q_2n) * poly_P(n - 1, xi, ctx), q_n * (p_up - p_dn) / br]
    if not all(map(cmath.isfinite, sides)):
        raise OverflowGuard(f"a side of the difference equations for P_{n} leaves double "
                            f"range at |q| = {abs(q):.3g}")
    res_fwd = relative_residual(*sides[:2])
    res_back = relative_residual(*sides[2:]) if n else 0.0
    res = worst_residual((res_fwd, res_back))
    return CheckResult({"n": n, "xi": xi, "q": q,
                        "res_difference": res_fwd, "res_backward": res_back}, res)


def genfun_checks(z, u, v, ctx: QContext):
    """Residuals of the two generating functions of P_n.

    Single: sum_n (-)^n q^{n(n-1)/2} z^n P_n(u) / (q;q)_n equals
    (z u, z/u; q)_inf / (z^2/q; q^2)_inf.  Double: sum_n (-)^n q^{n(n-1)}
    z^n P_n(u) P_n(v) / (q^2;q^2)_n equals
    (z u v, z/(u v), z u/v, z v/u; q^2)_inf / (z^2/q^2; q^2)_inf.  The
    double series is the overlap sum at x = q^2/z, which converges for
    |z| < |q|; a z outside that disc (or |z| >= 0.9 |q|^{-1/2}, the
    tighter bound above |q| = 0.93) is refused up front.
    """
    q = ctx.q
    z = complex(z)
    u = complex(u)
    v = complex(v)
    bound = min(abs(q), 0.9 * abs(q) ** -0.5)
    if abs(z) >= bound:
        raise DomainError(f"generating-function series need |z| < {bound:.6g}, got z = {z}")

    # Single generating function: q^{n(n-1)/2} P_n = q^{-n/2} * (q^{n^2/2} P_n).
    def single_terms():
        f = 1.0 + 0.0j  # (-z)^n q^{-n/2} / (q;q)_n, built incrementally
        for n, row in enumerate(scaled_poly_iter(u, ctx)):
            yield f * row
            f *= -z * ctx.q_pow_half(-1) / (1 - q ** (n + 1))

    lhs1 = tail_sum(single_terms(), ctx)
    rhs1 = (qpoch_inf_multi((z * u, z / u), q, ctx)
            / qpoch_inf(z * z / q, q * q, ctx))
    res1 = relative_residual(lhs1, rhs1)

    # Double: q^{n(n-1)} P_n P_n = q^{-n} rows, so the factors (-z/q)^n / (q^2;q^2)_n
    # are the overlap sum's at x = q^2/z; at z = 0 only the n = 0 term is left.
    lhs2 = overlap_sum(u, v, q * q / z, ctx) if z else 1.0 + 0.0j
    rhs2 = (qpoch_inf_multi((z * u * v, z / (u * v), z * u / v, z * v / u), q * q, ctx)
            / qpoch_inf(z * z / (q * q), q * q, ctx))
    res2 = relative_residual(lhs2, rhs2)

    res = worst_residual((res1, res2))
    return CheckResult({"z": z, "u": u, "v": v, "q": q,
                        "res_single": res1, "res_double": res2}, res)


def _overlap_factors(x: complex, q: complex):
    """Yield (-1)^a q^a x^{-a} / (q^2; q^2)_a for a = 0, 1, 2, ..."""
    f = 1.0 + 0.0j
    for a in count():
        yield f
        f *= -q / (x * (1 - (q * q) ** (a + 1)))


def overlap_sum(xi_m, xi_mp, x, ctx: QContext, scale_m=1, scale_mp=1) -> complex:
    """Tail-ruled sum over a of (-q/x)^a / (q^2;q^2)_a row_m(a) row_mp(a).

    row_m(a) = scale_m q^{a^2/2} P_a(xi_m), likewise row_mp; the sum
    converges for |x| > |q|.  This is the occupation overlap behind the
    Fock and sector weights and the completeness relations, and the 1x1
    call of overlap_grid.
    """
    sums, _ = overlap_grid([xi_m], [xi_mp], x, ctx, [scale_m], [scale_mp])
    return complex(sums[0, 0])


def overlap_grid(xis_m, xis_mp, x, ctx: QContext, scales_m=None, scales_mp=None):
    """The occupation overlap sums of every row xi with every column xi.

    Entry (i, j) sums (-q/x)^a / (q^2;q^2)_a row_i(a) row_j(a) over
    a = 0, 1, ..., with row_i(a) = scales_m[i] q^{a^2/2} P_a(xis_m[i]) and
    row_j likewise from the columns.  Each row and the factors are built
    once, as deep as the slowest entry needs.  Each entry is its own
    tail_walk, in complex doubles, so an entry does not depend on the grid
    it sits in.  Returns the sums and the largest term of each, whose
    ratio is the cancellation of the sum.
    """
    x = complex(x)
    if abs(x) <= abs(ctx.q):
        raise DomainError("overlap sum converges for |x| > |q| only")
    n_m, n_mp = len(xis_m), len(xis_mp)
    scales = [*([1] * n_m if scales_m is None else scales_m),
              *([1] * n_mp if scales_mp is None else scales_mp)]
    gens = [scaled_poly_iter(xi, ctx, scale=s)
            for xi, s in zip([*xis_m, *xis_mp], scales)]
    factors = _overlap_factors(x, ctx.q)
    rows = [[] for _ in gens]
    f = []

    def entry_terms(row_m, row_mp):
        for a in count():
            if a == len(f):  # one term deeper than any entry so far
                f.append(next(factors))
                for g, row in zip(gens, rows):
                    row.append(next(g))
            yield f[a] * row_m[a] * row_mp[a]

    walks = [tail_walk(entry_terms(row_m, row_mp), ctx)
             for row_m in rows[:n_m] for row_mp in rows[n_m:]]
    return (np.array([w.value for w in walks], dtype=complex).reshape(n_m, n_mp),
            np.array([w.peak for w in walks]).reshape(n_m, n_mp))


def poly_norm_sum_check(m: int, mp: int, ctx: QContext):
    """Diagonal specialisation of the double generating function.

    sum_n (-)^n q^{n(n+1)} P_n(q^{m+1/2}) P_n(q^{mp+1/2}) / (q^2;q^2)_n
    is delta_{m,mp} (-)^m q^{-m^2} Theta_4 / (1 - q^{2m+1}); as
    q^{n(n+1)} P_n P_n = q^n (q^{n^2/2} P_n)^2 it is the overlap sum at x = 1.
    """
    q = ctx.q
    lhs = overlap_sum(ctx.q_pow_half(2 * m + 1), ctx.q_pow_half(2 * mp + 1), 1, ctx)
    if m == mp:
        rhs = (-1) ** m * q ** (-m * m) * big_theta4_const(ctx) / (1 - q ** (2 * m + 1))
        res = relative_residual(lhs, rhs)
    else:
        scale = abs(big_theta4_const(ctx) / (1 - q))
        res = abs(lhs) / scale
    return CheckResult({"m": m, "mp": mp, "q": q}, res)


def chi(u, z, ctx: QContext) -> complex:
    """chi(u, z) = sum_n (-)^n q^{n(n+1)} (z;q^2)_n / (q^2;q^2)_n u^{2n}, q = ctx.q.

    Entire in u (terms carry q^{n(n+1)}); truncated by the tail rule.  The
    walk carries q^{2n} as a running product.  Arrays u or z give chi in
    each lane of their broadcast, one tail_walk over all lanes.
    """
    q2 = ctx.q * ctx.q
    u2 = as_complex(u) ** 2
    z = as_complex(z)
    first = 1.0 + 0.0j
    if type(u2) is np.ndarray or type(z) is np.ndarray:  # the walk's lanes
        first = np.full(np.broadcast(u2, z).shape, first)

    def terms():
        t = first
        p = 1.0 + 0.0j  # q^{2n}
        while True:
            yield t
            p_next = p * q2
            t = t * (-p_next * (1 - z * p) * u2 / (1 - p_next))
            p = p_next

    return tail_sum(terms(), ctx)


def chi_equation_checks(u, z, ctx: QContext):
    """Residuals of the shift equations and the Wronskian of chi.

    Checked relations, all at the same (u, z): the three-point shift in u,
    the two shifts of z by q^{+-2}, their Laurent combination, and the
    Wronskian chi(u/q,z) chi(1/u,z) - z chi(u,z) chi(q/u,z) =
    (u^2, q^2/u^2, z; q^2)_inf.
    """
    q = ctx.q
    u = complex(u)
    z = complex(z)
    if u == 0:
        raise DomainError("chi equations need u != 0")
    c = lambda uu, zz: chi(uu, zz, ctx)

    x = c(u, z)
    x_up = c(q * u, z)
    x_dn = c(u / q, z)
    res_shift_u = relative_residual(x_dn, (1 - u * u) * x + z * u * u * x_up)

    x_zup = c(u, q * q * z)
    x_zdn = c(u, z / (q * q))
    res_z_up = relative_residual((1 - z) * (1 - u * u) * x_zup, x_dn - z * x_up)
    res_z_dn = relative_residual((1 - u * u) * x_zdn, x_dn - z * u ** 4 * x_up)
    res_laurent = relative_residual(x_zdn / u + u * (1 - z) * x_zup,
                                    (u + 1.0 / u) * x)

    lhs_w = x_dn * c(1.0 / u, z) - z * x * c(q / u, z)
    rhs_w = qpoch_inf_multi((u * u, q * q / (u * u), z), q * q, ctx)
    res_w = relative_residual(lhs_w, rhs_w)

    res = worst_residual((res_shift_u, res_z_up, res_z_dn, res_laurent, res_w))
    return CheckResult({"u": u, "z": z, "q": q,
                        "res_shift_u": res_shift_u, "res_z_up": res_z_up,
                        "res_z_dn": res_z_dn, "res_laurent": res_laurent,
                        "res_wronskian": res_w}, res)
