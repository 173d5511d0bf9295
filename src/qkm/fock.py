"""Fock-space representation, its eigenbasis, and the lattice model built on it.

Contents: the truncated tridiagonal operator and its spectral experiment,
the basis-change matrices to the eigenbasis (the "V-form"), the symmetric
coefficients {a,b,c} (three evaluation routes) and the Clebsch-Gordan
table built from them, the edge Boltzmann weight V_x(m, m'), its
transitivity and star-triangle relations, the per-edge partition series,
the six-vertex RLL check on the truncated space, and the factorised box
R-matrix with its intertwining check.  The (q^2; q^2)_n tables, their
square roots and the normaliser N_F are built inside the call that needs
them; nothing is kept between calls.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from itertools import count, product

import numpy as np

from .context import QContext
from .errors import DomainError, EigensolverFailure, OverflowGuard
from .orthopoly import lattice_brace_sums, overlap_grid, scaled_poly_values
from .qseries import (bracket, big_theta4_const, decimal_digits, log_qpoch_table,
                      qpoch_finite_table, qpoch_inf, qpoch_inf_multi, refuse_cancellation,
                      sites_in_blocks, tail_sum, tail_walk)
from .report import CheckResult, relative_residual, worst_residual

__all__ = [
    "FockRepParams", "Regularisation", "TruncatedHamiltonian",
    "build_truncated_H", "SpectralReport", "spectral_experiment",
    "VFormMatrices", "vform_matrices", "s_measure", "fock_norm_const",
    "sqrt_qpoch2_table", "BraceMethod", "brace", "brace_spin_sums",
    "cg_table", "weight_V_fock", "weight_V_fock_from_overlaps",
    "weight_table", "weight_table_from_overlaps",
    "kappa_fock", "refuse_undecayed_sum", "transitivity_check_fock", "star_triangle_fock",
    "partition_series_fock", "rll_check", "vbasis_operator_matrices",
    "box_intertwining_check",
]

_SPIN_SUM_DPS = 40  # working digits of the brace spin sums


@dataclass(frozen=True)
class FockRepParams:
    """Representation labels: central parameter omega, ladder gauge lam,
    and the eigenbasis parameter mu."""
    omega: complex = 1.0
    lam: complex = 1.0
    mu: complex = 1.0

    def __post_init__(self):
        for name in ("omega", "lam", "mu"):
            if complex(getattr(self, name)) == 0:
                raise DomainError(f"{name} must be nonzero")


class Regularisation(Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """Finite section of the tridiagonal operator, with its boundary rule."""
    n: int
    regularisation: Regularisation

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need dimension N + 1 >= 2")


def build_truncated_H(params: TruncatedHamiltonian, ctx: QContext) -> np.ndarray:
    """(N+1) x (N+1) matrix of the tridiagonal eigenproblem.

    Interior rows are the exact difference equation; the last row closes
    the out-of-range term psi_{N+1} by the selected boundary rule:
    I: psi_{N+1} = (mu/lam) psi_N, II: the same with a minus sign,
    III: psi_{N+1} = 0.  The gauge ratio lam/mu is 1: a diagonal similarity
    removes it exactly, so the spectrum does not depend on it.
    """
    n = params.n
    q = ctx.q
    h = np.zeros((n + 1, n + 1), dtype=complex)
    for a in range(n + 1):
        pref = ctx.q_pow_half(-2 * a - 1)
        if a + 1 <= n:
            h[a, a + 1] = pref * np.sqrt(1 - q ** (2 * a + 2))
        if a - 1 >= 0:
            h[a, a - 1] = -pref * np.sqrt(1 - q ** (2 * a))
    edge = ctx.q_pow_half(-2 * n - 1) * np.sqrt(1 - q ** (2 * n + 2))
    if params.regularisation is Regularisation.I:
        h[n, n] += edge
    elif params.regularisation is Regularisation.II:
        h[n, n] -= edge
    return h


@dataclass
class SpectralReport:
    """Spectra of the truncated operator over a list of cutoffs.

    For boundary rules I/II, ``branch_errors[N]`` holds the distance of the
    four lowest computed branches from their closed-form limits.  For rule
    III the odd-N and even-N subsequences are reported separately together
    with the gap between their lowest branches.
    """
    q: float
    regularisation: Regularisation
    n_values: list
    eigenvalues: dict
    branch_limits: np.ndarray | None = None
    branch_errors: dict | None = None
    odd_branches: np.ndarray | None = None
    even_branches: np.ndarray | None = None
    subsequence_gap: float | None = None


SPECTRAL_BRANCHES = 4  # lowest branches the spectral experiment compares


def spectral_experiment(q: float, n_values, regularisation: Regularisation) -> SpectralReport:
    """Diagonalise the truncated operator for each cutoff in ``n_values``.

    The gauge ratio lam/mu is removed by an exact diagonal similarity
    before solving, so the spectra are computed at ratio 1 with a dense
    general eigensolver.  A cutoff N with fewer than SPECTRAL_BRANCHES
    eigenvalues is refused.
    """
    if not 0 < q < 1:
        raise DomainError("the spectral experiment runs at real q in (0, 1)")
    ctx = QContext(q=q)
    n_values = sorted(int(n) for n in n_values)
    if n_values and n_values[0] + 1 < SPECTRAL_BRANCHES:
        raise DomainError(f"{SPECTRAL_BRANCHES} branches need N + 1 >= {SPECTRAL_BRANCHES} "
                          f"eigenvalues, got N = {n_values[0]}")
    eigs = {}
    for n in n_values:
        h = build_truncated_H(TruncatedHamiltonian(n, regularisation), ctx)
        # Reverse the index grading (largest entries to the top-left) so the
        # QR iteration deflates the small eigenvalues at their own scale;
        # without this the norm ~ q^{-N} wipes out the low branches.
        h = h[::-1, ::-1]
        try:
            vals = np.linalg.eigvals(h)
        except np.linalg.LinAlgError as exc:
            raise EigensolverFailure(f"dense eigensolver failed at N = {n}") from exc
        eigs[n] = vals[np.argsort(np.abs(vals))]
    report = SpectralReport(q=q, regularisation=regularisation,
                            n_values=n_values, eigenvalues=eigs)
    ms = np.arange(SPECTRAL_BRANCHES)
    if regularisation in (Regularisation.I, Regularisation.II):
        sign = 1.0 if regularisation is Regularisation.I else -1.0
        limits = sign * (q ** (ms + 0.5) + q ** (-(ms + 0.5)))
        report.branch_limits = limits
        report.branch_errors = {
            n: np.abs(eigs[n][:SPECTRAL_BRANCHES] - limits) for n in n_values
        }
    else:
        odd = [n for n in n_values if n % 2 == 1]
        even = [n for n in n_values if n % 2 == 0]
        if odd:
            report.odd_branches = np.abs(eigs[odd[-1]][:SPECTRAL_BRANCHES])
        if even:
            report.even_branches = np.abs(eigs[even[-1]][:SPECTRAL_BRANCHES])
        if odd and even:
            report.subsequence_gap = float(
                np.max(np.abs(report.odd_branches - report.even_branches)))
    return report


def fock_norm_const(ctx: QContext) -> complex:
    """Normalisation constant -q^{-1/2} (q, q, q^2; q^2)_inf of the V-form."""
    return -ctx.q_pow_half(-1) * big_theta4_const(ctx)


def s_measure(m: int, ctx: QContext) -> complex:
    """Site measure S_m = (-)^m [q^{m+1/2}]."""
    return (-1) ** m * bracket(ctx.q_pow_half(2 * m + 1))


def sqrt_qpoch2_table(ctx: QContext, n: int) -> np.ndarray:
    """Principal square roots of (q^2; q^2)_k for k = 0, ..., n."""
    q2 = ctx.q * ctx.q
    return np.sqrt(np.array(qpoch_finite_table(q2, q2, n)) + 0j)


@dataclass
class VFormMatrices:
    """Basis-change matrices between occupation and eigenbasis labels.

    ``chi[a, j]`` is q^{a^2/2} P_a(q^{m+1/2}) q^{m(m+1)/2} / sqrt((q^2;q^2)_a)
    at m = m_values[j]; ``chi_bar[j, a]`` carries the extra (-)^a q^a.  The
    dressed matrix elements (with the (mu/lam)^{+-a} prefactors and the
    overall 1/N_F on the ket side) are exposed as ``ket``/``bra``.
    """
    chi: np.ndarray
    chi_bar: np.ndarray
    n_f: complex
    params: FockRepParams
    m_values: np.ndarray

    def ket(self, a: int, j: int) -> complex:
        r = self.params.mu / self.params.lam
        return r ** a * self.chi[a, j] / self.n_f

    def bra(self, j: int, a: int) -> complex:
        r = self.params.mu / self.params.lam
        return r ** (-a) * self.chi_bar[j, a]


def vform_matrices(params: FockRepParams, a_max: int, m_max: int,
                   ctx: QContext, m_min: int = 0) -> VFormMatrices:
    """Eigenbasis overlap matrices on the window a <= a_max, m_min <= m <= m_max."""
    if a_max < 1 or m_max < 1:
        raise DomainError("need a_max, m_max >= 1")
    q = ctx.q
    m_values = np.arange(m_min, m_max + 1)
    n_m = len(m_values)
    chi = np.empty((a_max + 1, n_m), dtype=complex)
    for j, m in enumerate(m_values):
        xi = ctx.q_pow_half(2 * m + 1)
        chi[:, j] = scaled_poly_values(a_max, xi, ctx, scale=ctx.q_pow_half(m * (m + 1)))
    chi /= sqrt_qpoch2_table(ctx, a_max)[:, None]
    signs = np.array([(-1) ** a * q ** a for a in range(a_max + 1)])
    chi_bar = (chi * signs[:, None]).T.copy()
    return VFormMatrices(chi=chi, chi_bar=chi_bar, n_f=fock_norm_const(ctx),
                         params=params, m_values=m_values)


class BraceMethod(Enum):
    SPIN_SUM = "spin_sum"
    CLOSED_FORM = "closed_form"
    RECURSION = "recursion"


def _brace_guard(a: int, b: int, c: int, q: complex):
    if min(a, b, c) < 0:
        raise DomainError("brace indices must be nonnegative")
    s = a + b + c
    ln_inv_q = np.log(1.0 / abs(q))
    log_peak = max((2 * k * s + k - 3 * k * k - (a * b + a * c + b * c)) * ln_inv_q
                   for k in range(min(a, b, c) + 1))
    if log_peak > 690.0 or max(a, b, c) > 30:
        raise OverflowGuard("brace indices too large for double precision; reduce (a, b, c)")


def brace(a: int, b: int, c: int, ctx: QContext,
          method: BraceMethod = BraceMethod.CLOSED_FORM) -> complex:
    """Symmetric coefficient {a, b, c} by the selected route.

    ``closed_form`` is the single finite k-sum, ``spin_sum`` the weighted
    eigenvalue-lattice sum over the triple product of polynomials, and
    ``recursion`` the two-term descent from {a, b, 0} = q^{ab}.
    """
    if method is BraceMethod.SPIN_SUM:
        return brace_spin_sums([(a, b, c)], ctx)[0]
    _brace_guard(a, b, c, ctx.q)
    if method is BraceMethod.CLOSED_FORM:
        return _brace_closed(a, b, c, ctx)
    return _brace_recursion(a, b, c, ctx)


def _brace_closed(a: int, b: int, c: int, ctx: QContext) -> complex:
    a, b, c = sorted((a, b, c))  # manifest symmetry, bit-identical permutations
    q = ctx.q
    q2 = q * q
    s = a + b + c
    p = a * b + a * c + b * c
    poch = qpoch_finite_table(q2, q2, c)  # (q^2; q^2)_n for n <= c = max(a, b, c)
    pref = poch[a] * poch[b] * poch[c]
    total = 0.0 + 0.0j
    for k in range(a + 1):
        # prefactor q^p folded into each term so exponents stay moderate
        num = (-1) ** k * q ** (p + 3 * k * k - k - 2 * k * s)
        den = poch[k] * poch[a - k] * poch[b - k] * poch[c - k]
        total += num / den
    return pref * total


def brace_spin_sums(triples, ctx: QContext) -> list[complex]:
    """Eigenvalue-lattice sums for the triples {a, b, c}, in extended precision.

    The one-sided lattice_brace_sums over xi = q^{m+1/2} in 40 digits (on
    the corners of the index box double precision would cancel away), each
    divided by the (0, 0, 0) sum of the same walk, the normaliser
    -q^{-1/2} (q; q)_inf of (4.27-4.28).  A sum that cancels more digits
    than the kernel keeps, or an index that is not a nonnegative integer,
    is refused by the kernel with DomainError.
    """
    *totals, norm = lattice_brace_sums([*triples, (0, 0, 0)], None, _SPIN_SUM_DPS, ctx)[0]
    with decimal_digits(_SPIN_SUM_DPS):
        return [complex(total / norm) for total in totals]


def _brace_recursion(a: int, b: int, c: int, ctx: QContext) -> complex:
    """The two-term descent in c, memoised within this one call."""
    q = ctx.q
    memo = {}

    def rec(a: int, b: int, c: int) -> complex:
        if a < 0 or b < 0:
            return 0.0 + 0.0j
        if c == 0:
            return q ** (a * b)
        key = (a, b, c)
        if key not in memo:
            memo[key] = (q ** (a + b) * rec(a, b, c - 1)
                         - (1 - q ** (2 * a)) * (1 - q ** (2 * b)) * rec(a - 1, b - 1, c - 1) / q)
        return memo[key]

    return rec(a, b, c)


def cg_table(n: int, c: int, params1: FockRepParams, params2: FockRepParams,
             omega, ctx: QContext) -> np.ndarray:
    """Symmetric Clebsch-Gordan coefficients of the two-factor co-product.

    Entry [a, b] couples the occupation labels a, b <= n to the composite
    label c: f1^a f2^b f3^c {a, b, c} / sqrt((q^2;q^2)_a (q^2;q^2)_b
    (q^2;q^2)_c), with every square root read from one table.
    """
    omega = complex(omega)
    norms = sqrt_qpoch2_table(ctx, max(n, c)).tolist()
    f1 = omega / (params1.lam * params2.omega)
    f2 = params1.omega / (params2.lam * omega)
    f3 = (-ctx.q * params2.omega / params1.omega) ** c
    out = np.empty((n + 1, n + 1), dtype=complex)
    for a in range(n + 1):
        for b in range(n + 1):
            core = brace(a, b, c, ctx) / (norms[a] * norms[b] * norms[c])
            out[a, b] = f1 ** a * f2 ** b * f3 * core
    return out


def weight_V_fock(x, m: int, mp: int, ctx: QContext) -> complex:
    """Edge Boltzmann weight V_x(m, m') in closed q-product form."""
    return complex(weight_table(x, [m], [mp], ctx)[0, 0])


def weight_V_fock_from_overlaps(x, m: int, mp: int, ctx: QContext) -> complex:
    """The same weight from its defining occupation sum (cross-check route).

    Sums (mu'/mu)^a <mu,m|lam,a><lam,a|mu',mp> over a; converges for
    |x| > |q|.  The 1x1 call of weight_table_from_overlaps.
    """
    weights, _ = weight_table_from_overlaps(x, [m], [mp], ctx)
    return complex(weights[0, 0])


def weight_table_from_overlaps(x, m_values, mp_values, ctx: QContext):
    """weight_V_fock_from_overlaps on a spin grid, equal to it entry for entry.

    One ``overlap_grid`` call builds each spin's occupation row once and
    stops every entry at its own tail.  Returns the weights and the
    largest term of each entry's sum on the same scale, so that
    peaks / |weights| is the cancellation of each entry.  The prefactors
    multiply in Python complex arithmetic, which rounds the same whatever
    the grid's size.
    """
    ms = [int(m) for m in m_values]
    mps = [int(mp) for mp in mp_values]
    sums, peaks = overlap_grid([ctx.q_pow_half(2 * m + 1) for m in ms],
                               [ctx.q_pow_half(2 * mp + 1) for mp in mps], x, ctx)
    n_f = fock_norm_const(ctx)
    pref = [[ctx.q_pow_half(m * (m + 1) + mp * (mp + 1)) / n_f for mp in mps] for m in ms]
    weights = [[p * s for p, s in zip(*rows)] for rows in zip(pref, sums.tolist())]
    return (np.array(weights, dtype=complex).reshape(sums.shape),
            np.abs(np.array(pref, dtype=complex).reshape(sums.shape)) * peaks)


def weight_table(x, m_values, mp_values, ctx: QContext) -> np.ndarray:
    """V_x on a spin grid, vectorised over both indices.

    Assembled in log space: the four numerator products grow like
    q^{-(m+m')^2/4} before the q^{(m(m+1)+m'(m'+1))/2} prefactor tames
    them, which overflows plain double arithmetic on wide spin windows.
    ``log_qpoch_table`` takes each product from one anchored chain per
    factor, O(M) logarithms for M x M entries, and every entry depends on
    its own (m, m') alone: it equals ``weight_V_fock`` bit for bit, whatever
    grid it is read from.  An x so small that q^2/x^2 leaves double range
    is refused with OverflowGuard.
    """
    x = complex(x)
    if x == 0:
        raise DomainError("weight needs x != 0")
    q = ctx.q
    y = 1.0 / x
    arg = q * q * y * y
    if not cmath.isfinite(arg):
        raise OverflowGuard(f"weight argument x = {x} puts q^2/x^2 outside double range")
    ms = np.asarray(m_values, dtype=int)[:, None]
    mps = np.asarray(mp_values, dtype=int)[None, :]
    log_v = np.log(complex(ctx.q_half)) * (ms * (ms + 1) + mps * (mps + 1))
    factors = [(y, expo)
               for expo in (2 + ms - mps, 2 - ms + mps, 3 + ms + mps, 1 - ms - mps)]
    den = qpoch_inf(arg, q * q, ctx) * fock_norm_const(ctx)
    return log_qpoch_table(log_v, factors, q, den, ctx)


def kappa_fock(x, ctx: QContext) -> complex:
    """Scalar kappa_x = (x; q)_inf / (-q/x; q)_inf."""
    q = ctx.q
    return qpoch_inf(x, q, ctx) / qpoch_inf(-q / x, q, ctx)


def refuse_undecayed_sum(x, y, ctx: QContext):
    """Refuse a spin sum of V_x S V_y (Fock, sector or bold weights) at |xy| <= |q|:
    its terms shrink like (|q| / |xy|)^k, k the Fock spin or 2|b| on Z."""
    xy = abs(complex(x) * complex(y))
    if not xy > abs(ctx.q):
        raise DomainError(f"a spin sum of V_x S V_y decays only for |xy| > |q| = "
                          f"{abs(ctx.q):.6g}, got |xy| = {xy:.6g}")


def transitivity_check_fock(x, y, m: int, mpp: int, ctx: QContext):
    """Residual of the transitivity sum: V_x * S * V_y summed equals V_{xy}.

    A tail_walk over the middle spin on tables grown in blocks; ``m_sum``
    is its last site.
    """
    refuse_undecayed_sum(x, y, ctx)

    def block(ks):
        row_x = weight_table(x, [m], ks, ctx)[0].tolist()
        row_y = weight_table(y, ks, [mpp], ctx)[:, 0].tolist()
        return [vx * s_measure(k, ctx) * vy for k, vx, vy in zip(ks, row_x, row_y)]

    walk = tail_walk(map(sites_in_blocks(block), count()), ctx)
    rhs = weight_V_fock(complex(x) * complex(y), m, mpp, ctx)
    res = relative_residual(walk.value, rhs)
    return CheckResult({"x": x, "y": y, "m": m, "mpp": mpp, "m_sum": walk.terms - 1}, res)


def _boundary_triangle_factor(m_a: int, m_b: int, ctx: QContext) -> complex:
    """Limit of kappa_z V_{-q/z}(m_a, m_b) as z -> 1 (the xy = -q boundary).

    Both factors have a simple zero/pole there; the finite limit is
    (q;q)_inf q^{(m_a(m_a+1)+m_b(m_b+1))/2} times the numerator products
    at z = 1, over 2 (-q;q)_inf (q^2;q^2)_inf N_F.
    """
    q = ctx.q
    num = qpoch_inf_multi((-q ** (1 + m_a - m_b), -q ** (1 - m_a + m_b),
                           -q ** (2 + m_a + m_b), -q ** float(-m_a - m_b)),
                          q * q, ctx)
    return (0.5 * qpoch_inf(q, q, ctx) / qpoch_inf(-q, q, ctx)
            * ctx.q_pow_half(m_a * (m_a + 1) + m_b * (m_b + 1)) * num
            / (qpoch_inf(q * q, q * q, ctx) * fock_norm_const(ctx)))


def star_triangle_fock(x, y, spins, ctx: QContext, perturb_r: float = 0.0):
    """Worst residual of the star-triangle relation over the spin triples ``spins``.

    The summed (star) side runs over one internal spin with measure S_m;
    the triangle side carries the scalar R = N_F kappa_x kappa_y
    kappa_{-q/xy}.  On the boundary xy = -q of the physical wedge the
    internal weight collapses to the delta-normalised one while
    kappa V_{xy} becomes a 0 * inf limit; that case is detected and both
    sides are evaluated in their exact limit forms.  ``perturb_r`` scales
    R by (1 + perturb_r) as a negative-control probe.  Each star sum is a
    tail_walk over the internal spin on tables grown in blocks shared by
    every triple, and is refused if it cancels more digits than
    ``ctx.tol_identity`` allows (refuse_cancellation).  The result carries
    the worst residual and the triple it occurs at (``worst_at``).
    """
    x = complex(x)
    y = complex(y)
    spins = [tuple(t) for t in spins]
    if min(min(t) for t in spins) < 0:
        # the tables are indexed by spin; V_x(-1 - m, m') = V_x(m, m') covers m < 0
        raise DomainError("star-triangle spins must be nonnegative")
    q = ctx.q
    z = -q / (x * y)
    n = max(max(t) for t in spins) + 1
    box = range(n)
    tab_qy = weight_table(-q / y, box, box, ctx)
    tab_qx = weight_table(-q / x, box, box, ctx)
    boundary = abs(z - 1.0) < 1e-8
    if boundary:
        tab_x = weight_table(x, box, box, ctx)
        tab_y = weight_table(y, box, box, ctx)
        r = (fock_norm_const(ctx) * kappa_fock(x, ctx) * kappa_fock(y, ctx)
             * (1.0 + perturb_r))
        factor = {}
    else:
        tab_xy = weight_table(x * y, box, box, ctx)
        r = fock_norm_const(ctx) * kappa_fock(x, ctx) * kappa_fock(y, ctx) * kappa_fock(z, ctx)
        r *= 1.0 + perturb_r

        def block(ks):
            # per site: V_x(., k), S_k, V_z(k, .) and V_y(., k) over the box
            return zip(weight_table(x, box, ks, ctx).T.tolist(),
                       [s_measure(k, ctx) for k in ks],
                       weight_table(z, ks, box, ctx).tolist(),
                       weight_table(y, box, ks, ctx).T.tolist())

        sites = sites_in_blocks(block)
    residuals = []
    for m_a, m_b, m_c in spins:
        if boundary:
            if (m_a, m_b) not in factor:
                factor[m_a, m_b] = _boundary_triangle_factor(m_a, m_b, ctx)
            lhs = tab_x[m_a, m_c] * tab_y[m_b, m_c]
            rhs = r * factor[m_a, m_b] * tab_qy[m_a, m_c] * tab_qx[m_b, m_c]
        else:
            walk = tail_walk((vx[m_a] * s * vz[m_c] * vy[m_b]
                              for vx, s, vz, vy in map(sites, count())), ctx)
            lhs = walk.value
            refuse_cancellation(walk.peak, lhs, ctx.tol_identity, "the star sum")
            rhs = r * tab_qy[m_a, m_c] * tab_xy[m_a, m_b] * tab_qx[m_b, m_c]
        residuals.append(relative_residual(lhs, rhs))
    worst = int(np.argmax(residuals))  # the first worst triple, or the first NaN
    return CheckResult({"x": x, "y": y, "spins": spins, "q": q, "perturb_r": perturb_r,
                        "boundary": boundary, "worst_at": spins[worst]},
                       worst_residual(residuals))


def partition_series_fock(x, ctx: QContext) -> complex:
    """log z_x = sum_{n>=1} (x^n - (q^2/x)^n) / (n (1-q^n) (1+(-q)^n)).

    The terms decay only on the annulus |q|^2 < |x| < 1; outside it the
    series diverges and is refused.
    """
    x = complex(x)
    q = ctx.q
    if not abs(q) ** 2 < abs(x) < 1:
        raise DomainError(f"partition series needs |q|^2 < |x| < 1, got |x| = {abs(x):.6g}")

    def terms():
        for n in count(1):
            yield ((x ** n - (q * q / x) ** n)
                   / (n * (1 - q ** n) * (1 + (-q) ** n)))

    return tail_sum(terms(), ctx)


def _fock_rep_matrices(a_max: int, ctx: QContext):
    """Occupation-basis generator matrices truncated to a <= a_max (sign label +1,
    ladder gauge 1)."""
    q = ctx.q
    dim = a_max + 1
    k0 = np.diag([ctx.q_pow_half(2 * a + 1) for a in range(dim)]).astype(complex)
    em = np.zeros((dim, dim), dtype=complex)
    ep = np.zeros((dim, dim), dtype=complex)
    for a in range(1, dim):
        em[a - 1, a] = np.sqrt(1 - q ** (2 * a))
    for a in range(dim - 1):
        ep[a + 1, a] = np.sqrt(1 - q ** (2 * a + 2))
    return em, ep, k0


def rll_check(lam, mu_spec, a_max: int, ctx: QContext,
              sigma_x: bool = False, scramble: float = 0.0):
    """Residual of the six-vertex RLL relation on the truncated Fock space.

    Both sides live on aux (2x2) x aux (2x2) x quantum; the residual is
    taken over all 16 aux components, restricted to the quantum block
    a <= a_max - 2 that truncation cannot touch.  ``sigma_x`` right-dresses
    both L factors by the first Pauli matrix; ``scramble`` perturbs one
    R-matrix entry as a negative control.
    """
    lam = complex(lam)
    mu = complex(mu_spec)
    q = ctx.q
    em, ep, k0 = _fock_rep_matrices(a_max, ctx)

    def l_matrix(spectral):
        entries = [[em, -k0 / spectral], [spectral * k0, ep]]
        if sigma_x:
            entries = [[entries[0][1], entries[0][0]],
                       [entries[1][1], entries[1][0]]]
        return entries

    l_lam = l_matrix(lam)
    l_mu = l_matrix(mu)

    r = np.zeros((2, 2, 2, 2), dtype=complex)  # indices (i1, i2, j1, j2)
    r[0, 0, 0, 0] = r[1, 1, 1, 1] = bracket(q * mu / lam)
    r[0, 1, 0, 1] = r[1, 0, 1, 0] = bracket(mu / lam)
    r[0, 1, 1, 0] = r[1, 0, 0, 1] = bracket(q)
    r[0, 0, 0, 0] *= 1.0 + scramble

    dim = a_max + 1
    block = slice(0, max(dim - 2, 1))

    def residual(i1, i2, k1, k2):
        lhs = np.zeros((dim, dim), dtype=complex)
        rhs = np.zeros((dim, dim), dtype=complex)
        for j1 in range(2):
            for j2 in range(2):
                lhs += r[i1, i2, j1, j2] * (l_lam[j1][k1] @ l_mu[j2][k2])
                rhs += (l_mu[i2][j2] @ l_lam[i1][j1]) * r[j1, j2, k1, k2]
        diff = np.max(np.abs(lhs[block, block] - rhs[block, block]))
        scale = max(np.max(np.abs(lhs[block, block])),
                    np.max(np.abs(rhs[block, block])), 1e-300)
        return diff / scale

    worst = worst_residual(residual(*aux) for aux in product(range(2), repeat=4))
    return CheckResult({"lam": lam, "mu": mu, "a_max": a_max,
                        "sigma_x": sigma_x, "scramble": scramble}, worst)


def vbasis_operator_matrices(mu, m_cut: int, ctx: QContext) -> dict:
    """Generator matrices K0, Ep and Em in the eigenbasis, folded onto spins m >= 0.

    The basis vectors with labels m and -1-m coincide, so the action that
    lowers m = 0 to m = -1 folds back into the m = 0 row.  Entries follow
    the two-term shift action with unit normalisation of the basis.  The
    central parameter omega enters only through K = omega K0 and
    K' = K0 / omega, which the co-product applies as scalars.
    """
    mu = complex(mu)
    dim = m_cut + 1
    k0 = np.zeros((dim, dim), dtype=complex)
    ep = np.zeros((dim, dim), dtype=complex)
    em = np.zeros((dim, dim), dtype=complex)

    def add(mat, row, col, val):
        if row == -1:
            row = 0  # fold: |m=-1> is |m=0>
        if 0 <= row < dim:
            mat[row, col] += val

    for m in range(dim):
        xi = ctx.q_pow_half(2 * m + 1)
        br = xi - 1.0 / xi
        add(k0, m + 1, m, 1.0 / br)
        add(k0, m - 1, m, -1.0 / br)
        add(ep, m - 1, m, xi / (mu * br))
        add(ep, m + 1, m, -1.0 / (xi * mu * br))
        add(em, m + 1, m, mu * xi / br)
        add(em, m - 1, m, -mu / (xi * br))
    return {"K0": k0, "Ep": ep, "Em": em}


def _l_bands(ops, omega, n: int) -> list[list[np.ndarray]]:
    """The diagonals of L = [[Em, -omega K0], [K0 / omega, Ep]] on the rows < n.

    ``ops`` holds the generator matrices, each tridiagonal once m = -1 is
    folded onto m = 0 (a band matrix: Golub & Van Loan, *Matrix
    Computations*, 4th ed., sec. 1.2).  Block (i, j) is the (n, 3) array
    of L[i][j][a, a + s] at row a and column s + 1; the entry left of
    column 0 is zero.
    """
    def bands(mat):
        padded = np.pad(mat[:n], ((0, 0), (1, 0)))
        return np.stack([np.diagonal(padded, k) for k in range(3)], axis=1)

    em, k0, ep = (bands(ops[name]) for name in ("Em", "K0", "Ep"))
    return [[em, -omega * k0], [k0 / omega, ep]]


def _box_factors(m, p, q, outer, n: int) -> tuple:
    """The factors of T[r, r2, o, o2] = M[r, r2] P[r, o] Q[r2, o2] N[o, o2], shifted.

    For ``_box_side``: M[r + s, r2 + t] as [r, s + 1, t + 1, r2],
    P[r + s, o] as [r, o, s + 1], Q[r2 + t, o2] as [t + 1, r2, o2] and N as
    [o, o2], for s, t in (-1, 0, 1) and spins r, r2, o, o2 < n; the index
    -1 reads 0.
    """
    shift = np.arange(n)[:, None] + np.arange(3)  # r + s + 1
    spins = np.arange(1, n + 1)
    m, p, q = (np.pad(f, ((1, 0), (1, 0))) for f in (m, p, q))
    return (m[shift[:, :, None, None], shift.T[None, None]],
            p[shift[:, None, :], spins[:, None]],
            q[shift.T[:, :, None], spins],
            outer[:n, :n])


def _box_side(lx, ly, i: int, k: int, factors, out: np.ndarray) -> None:
    """Block (i, k) of sum_j Lx[i][j] (x) Ly[j][k] applied to a factored box matrix.

    ``factors`` comes from ``_box_factors`` for the matrix T; Lx acts on its
    r and Ly on its r2.  With W[r, r2, s, t] = sum_j Lx[i][j][r, r + s]
    Ly[j][k][r2, r2 + t] from the bands of ``_l_bands``, the block is
    N[o, o2] sum_{s,t} W[r, r2, s, t] M[r + s, r2 + t] P[r + s, o] Q[r2 + t, o2]
    on the spins < n, written to ``out`` as the array [r, o, r2, o2].  The
    sum over t is a broadcast and the sum over s a batch of (n x 3) (3 x n^2)
    products, one per r; at n = 20 each is far below the size from which
    OpenBLAS runs a complex product on threads.
    """
    m, p, q, outer = factors
    n = len(outer)
    w = sum(lx[i][j][:, :, None, None] * ly[j][k].T[None, None] for j in range(2))
    w *= m  # [r, s, t, r2]
    part = sum(w[:, :, t, :, None] * q[t] for t in range(3))  # [r, s, r2, o2]
    np.matmul(p, part.reshape(n, 3, n * n), out=out.reshape(n, n, n * n))
    out *= outer[None, :, None, :]


def box_intertwining_check(x, xp, y, yp, m_cut: int, ctx: QContext):
    """Residual of the intertwining relation for the box R-matrix.

    Compares both co-product sides of (L1 (x) L2) S = S (L2 (x) L1) on the
    block truncation cannot touch (all spins <= m_cut - 1), block (i, k) of
    the auxiliary space at a time.  The box matrix
    S[a, b, c, d] = MA[a, b] B[a, c] C[b, d] D[c, d], MA = (meas (x) meas) A,
    is never assembled: each side is built from the weight tables and the
    three diagonals of each generator (``_box_side``).  The right side is
    (L2^T (x) L1^T) applied to S^T, the same form with (MA, B, C, D) read
    as (D, B^T, C^T, MA).  Each block is compared and reduced before the
    next is built.
    """
    x, xp, y, yp = (complex(v) for v in (x, xp, y, yp))
    q = ctx.q
    omega1 = np.sqrt(x * xp + 0j)
    mu1 = x / omega1
    omega2 = np.sqrt(y * yp + 0j)
    mu2 = y / omega2

    dim = m_cut + 1
    spins = np.arange(dim)
    a_tab = weight_table(y / xp, spins, spins, ctx)
    b_tab = weight_table(x / y, spins, spins, ctx)
    c_tab = weight_table(xp / yp, spins, spins, ctx)
    d_tab = weight_table(q * q * yp / x, spins, spins, ctx)
    # kernel -> coefficient matrix: the non-diagonal factors carry the
    # basis measure on their left index
    meas = np.array([s_measure(k, ctx) for k in range(dim)])
    ma_tab = np.multiply.outer(meas, meas) * a_tab

    n = dim - 1
    ops1 = vbasis_operator_matrices(mu1, m_cut, ctx)
    ops2 = vbasis_operator_matrices(mu2, m_cut, ctx)
    l1, l2 = _l_bands(ops1, omega1, n), _l_bands(ops2, omega2, n)
    l1_t, l2_t = (_l_bands({name: m.T for name, m in ops.items()}, omega, n)
                  for ops, omega in ((ops1, omega1), (ops2, omega2)))

    left = _box_factors(ma_tab, b_tab, c_tab, d_tab, n)
    right = _box_factors(d_tab, b_tab.T, c_tab.T, ma_tab, n)
    lhs, rhs = np.empty((2, n, n, n, n), dtype=complex)  # reused by every block

    def block_residual(i, k):
        _box_side(l1, l2, i, k, left, lhs)  # [a, c, b, d]
        _box_side(l2_t, l1_t, i, k, right, rhs)  # [c, a, d, b]
        scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
        np.subtract(lhs, rhs.transpose(1, 0, 3, 2), out=lhs)
        return np.abs(lhs).max() / scale

    worst = worst_residual(block_residual(i, k) for i, k in product(range(2), repeat=2))
    return CheckResult({"x": x, "xp": xp, "y": y, "yp": yp, "m_cut": m_cut}, worst)
