"""The in-process qkm workloads: inputs, one pass, and the correctness gate.

Pass i of a workload draws its inputs from ``numpy.random.default_rng([seed,
i])``, so a seed fixes every pass.  Each public call is one operation; so is
each comparison against an independent route.  An exception escaping a call
or a comparison outside its tolerance counts as a failed operation, with its
class recorded, and the pass goes on.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from gate import Gate, relative
from qkm import QContext, fock, modular, vgamma


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _window(n: int) -> np.ndarray:
    """n spins centred on 0: -n//2, ..., n - n//2 - 1."""
    return np.arange(-(n // 2), n - n // 2)


class WeightTables:
    """Bulk weight tables at q = 0.4 in one long-lived process.

    Why: this is the `qkm table` / transfer-matrix load.  The log-space
    q-product kernel dominates it; small windows are overhead-bound and the
    161-spin window is memory-bound, so a change trading one for the other
    shows.  It touches no mpmath, registry or CLI code.
    """

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size
        self.ctx = QContext(q=size["q"])
        self.generic = vgamma.GammaContext(gamma=0.7 * cmath.exp(0.4j))
        self.selected = vgamma.GammaContext.make_selected(0.5, self.ctx)
        self.mc = modular.ModularContext(theta=math.pi / 5)
        self.mu = 0.15j + self.mc.eta / 3
        self.windows = [_window(n) for n in size["fock_windows"]]
        self.veps_window = _window(size["veps_window"])
        self.km_window = _window(size["km_grid"])

    def inputs(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        # x in the overlap-route annulus |q| < |x| < 1.  The tables take up to
        # twice as long at some phases of x than at others, so the phase of
        # pass i is not drawn but follows the golden-ratio sequence: every run
        # sees the same even mix of slow and fast phases, whatever its seed.
        turn = (i * GOLDEN) % 1.0
        x = rng.uniform(0.5, 0.9) * cmath.exp(2j * math.pi * turn)
        lo = rng.uniform(-1.0, 0.5)
        grid = np.linspace(lo, lo + 1.5, self.size["modular_grid"])
        return {"x": x, "grid": grid, "rng": rng}

    def run(self, inp: dict, gate: Gate) -> tuple[int, dict]:
        """Build every table of one pass; returns (entries, tables)."""
        x, ctx = inp["x"], self.ctx
        tables = {}
        entries = 0
        for w in self.windows:
            tab = gate.call(fock.weight_table, x, w, w, ctx)
            tables[("fock", len(w))] = tab
            entries += w.size ** 2
        w = self.veps_window
        for eps in (1, -1):
            tables[("veps", eps)] = gate.call(vgamma.weight_Veps_table, x, eps, w, w,
                                              self.generic, ctx)
            entries += w.size ** 2
        km = np.full((self.km_window.size,) * 2, np.nan, dtype=complex)
        for i, m in enumerate(self.km_window):
            for j, mp in enumerate(self.km_window):
                v = gate.call(vgamma.km_V, x, int(m), int(mp), self.selected, ctx)
                if v is not None:
                    km[i, j] = v
        tables["km"] = km
        entries += km.size
        grid = inp["grid"]
        mod = np.full((grid.size,) * 2, np.nan, dtype=complex)
        for i, u in enumerate(grid):
            for j, v in enumerate(grid):
                val = gate.call(modular.weight_V_modular, self.mu, u, v, self.mc)
                if val is not None:
                    mod[i, j] = val
        tables["modular"] = mod
        entries += mod.size
        return entries, tables

    def check(self, inp: dict, tables: dict, gate: Gate, samples: int = 4):
        """Sampled entries against independent routes, at registry tolerances."""
        x, ctx, rng = inp["x"], self.ctx, inp["rng"]
        for w in self.windows:
            tab = tables[("fock", len(w))]
            # the overlap sum itself stops converging near |m| = 40
            half = min((len(w) - 1) // 2, 12)
            for _ in range(samples):
                m, mp = (int(v) for v in rng.integers(-half, half, 2, endpoint=True))
                ref = gate.call(fock.weight_V_fock_from_overlaps, x, m, mp, ctx)
                if tab is not None and ref is not None:
                    gate.check("fock.weight_table vs overlaps",
                               relative(tab[m - w[0], mp - w[0]], ref), 1e-8)
        w = self.veps_window
        # the sector overlap sum loses the value from |m| = 9 on (at q = 0.4)
        half = min((len(w) - 1) // 2, 6)
        for eps in (1, -1):
            tab = tables[("veps", eps)]
            for _ in range(samples):
                m, mp = (int(v) for v in rng.integers(-half, half, 2, endpoint=True))
                ref = gate.call(vgamma.weight_Veps_from_overlaps, x, eps, m, mp,
                                self.generic, ctx)
                if tab is not None and ref is not None:
                    gate.check("weight_Veps_table vs overlaps",
                               relative(tab[m - w[0], mp - w[0]], ref), 1e-8)
        for name, tab in (("km_V", tables["km"]), ("modular.V", tables["modular"])):
            n = tab.shape[0]
            for _ in range(2 * samples):
                i, j = (int(v) for v in rng.integers(0, n, 2))
                gate.check(f"{name} symmetry", relative(tab[i, j], tab[j, i]), 1e-10)


class PointSweep:
    """Fresh parameter points, with new contexts at every one.

    Why: nothing built per (q, gamma) is ever reused, so a cache or
    per-context table pays its build cost without amortising it -- the
    cost a long verify run hides.
    """

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size
        top = size["triple_max"]
        self.triples = list(itertools.product(range(top + 1), repeat=3))

    def inputs(self, i: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, i])
        per_pass = self.size["points_per_pass"]
        points = []
        for k in range(i * per_pass, (i + 1) * per_pass):
            # the triple sets most of a point's cost, so triples are not drawn
            # but walk the cube along the golden-ratio sequence: every run, and
            # the cold passes of every run, get the same mix of them
            turn = (k * GOLDEN) % 1.0
            points.append({
                "q": rng.uniform(0.3, 0.5) * cmath.exp(1j * rng.uniform(-0.6, 0.6)),
                "gamma": rng.uniform(0.6, 0.9) * cmath.exp(2j * math.pi * rng.uniform()),
                "x": rng.uniform(0.6, 0.95) * cmath.exp(2j * math.pi * rng.uniform()),
                "theta": rng.uniform(0.4, 1.2),
                "sigma": rng.uniform(-0.4, 0.4),
                "xs": rng.uniform(0.1, 0.8),
                "triple": self.triples[int(turn * len(self.triples))],
            })
        return points

    def run(self, points: list[dict], gate: Gate) -> tuple[int, None]:
        for p in points:
            self._point(p, gate)
        return len(points), None

    @staticmethod
    def _point(p: dict, gate: Gate):
        a, b, c = p["triple"]
        ctx = gate.call(QContext, p["q"])
        gc = gate.call(vgamma.GammaContext, p["gamma"])
        mc = gate.call(modular.ModularContext, p["theta"])
        if ctx is None or gc is None or mc is None:
            return
        vals = [gate.call(fock.brace, a, b, c, ctx, m) for m in fock.BraceMethod]
        if None not in vals:
            scale = max(abs(vals[1]), 1e-300)
            dev = max(abs(vals[0] - vals[1]), abs(vals[1] - vals[2]),
                      abs(vals[0] - vals[2])) / scale
            gate.check("brace routes", dev, 1e-10)
        rep = gate.call(vgamma.brace_gamma_check, a, b, c, [p["gamma"]], ctx)
        if rep is not None:
            gate.check("brace_gamma_check", rep.residual, 1e-8)
        closed = gate.call(fock.weight_V_fock, p["x"], a, b, ctx)
        summed = gate.call(fock.weight_V_fock_from_overlaps, p["x"], a, b, ctx)
        if closed is not None and summed is not None:
            gate.check("weight vs overlaps", relative(closed, summed), 1e-8)
        m, mp = a - 2, c
        v = gate.call(vgamma.km_V, p["x"], m, mp, gc, ctx)
        vt = gate.call(vgamma.km_V, p["x"], mp, m, gc, ctx)
        if v is not None and vt is not None:
            gate.check("km_V transposed", relative(v, vt), 1e-10)
        rep = gate.call(modular.psi_eigen_check, p["sigma"], p["xs"], mc)
        if rep is not None:
            gate.check("psi_eigen_check", rep.residual, 1e-7)


WORKLOADS = {"weight_tables": WeightTables, "point_sweep": PointSweep}
