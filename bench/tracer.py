"""Per-layer tracing of qkm, installed from outside the library.

`install` replaces every module binding of each function named in
`spec.TRACED` with a wrapper, so calls made inside the library are seen too
(``qpoch_inf``, for one, is imported into fock, vgamma and modular).  Each
wrapper counts calls and adds up self time: its span minus the spans of the
wrapped calls made inside it.  Spans are aggregated as they close instead of
being kept, because the inner kernels run hundreds of thousands of times a
pass.  A few wrappers also add counts worked out from the call arguments.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

from spec import TRACED


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._open = []  # child time gathered so far by each open span

    def wrap(self, name, fn, label=None, hook=None):
        """Wrap fn in a span named `name`, or `label(args, kwargs)` if given.

        `hook(args, kwargs)` may replace the arguments before the call and
        returns them with a `done(ok, span_s)` callback run after it.
        """
        open_spans, calls, self_s = self._open, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = label(args, kwargs) if label is not None else name
            done = None
            if hook is not None:
                args, kwargs, done = hook(args, kwargs)
            ok = False
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span = clock() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
                calls[span_name] += 1
                self_s[span_name] += span - child
                if done is not None:
                    done(ok, span)

        return traced

    # ------------------------------------------------------------ hooks

    def _log_qpoch_terms(self, args, kwargs):
        # the same truncation the kernel applies: one term per factor
        # (1 - x q^k) for k below the tail-rule cut, per array element
        xs = np.asarray(_arg(args, kwargs, 0, "xs"), dtype=complex)
        q = abs(complex(_arg(args, kwargs, 1, "q")))
        ctx = _arg(args, kwargs, 2, "ctx")
        top = float(np.max(np.abs(xs))) if xs.size else 0.0
        if top == 0.0:
            k_cut = 0
        elif q == 0.0:
            k_cut = 1
        else:
            k_cut = max(int(math.ceil((math.log(ctx.tail_cut) - math.log(top))
                                      / math.log(q))) + 3, 1)
        terms = xs.size * k_cut
        self.counts["qseries.log_qpoch_inf_array.terms_computed"] += terms
        self.counts["qseries.log_qpoch_inf_array.bytes_computed"] += 16 * terms
        return args, kwargs, None

    def _table_entries(self, name, m_pos):
        def hook(args, kwargs):
            rows = np.size(_arg(args, kwargs, m_pos, "m_values"))
            cols = np.size(_arg(args, kwargs, m_pos + 1, "mp_values"))
            self.counts[name] += rows * cols
            return args, kwargs, None
        return hook

    def _lattice_sites(self, args, kwargs):
        gammas = _arg(args, kwargs, 3, "gamma_list")
        window = _arg(args, kwargs, 5, "m_window", 60)
        self.counts["vgamma.brace_gamma_check.lattice_sites"] += \
            len(gammas) * (2 * window + 1)
        return args, kwargs, None

    def _midpoint_evals(self, args, kwargs):
        f = _arg(args, kwargs, 0, "f")
        n0 = max(_arg(args, kwargs, 2, "n0"), 8)
        evals = [0]

        def counted(t):
            evals[0] += 1
            return f(t)

        def done(ok, span):
            n = evals[0]
            self.counts["modular.adaptive_midpoint.evals"] += n
            if ok:
                # levels n0, 2 n0, 4 n0, ...; only the last one certifies
                levels = round(math.log2(n / n0 + 1))
                self.counts["modular.adaptive_midpoint.useful"] += n0 * 2 ** (levels - 1)

        args = (counted,) + tuple(args[1:]) if args else args
        if "f" in kwargs:
            kwargs = dict(kwargs, f=counted)
        return args, kwargs, done

    def _entry_time(self, args, kwargs):
        entry = _arg(args, kwargs, 0, "entry")

        def done(ok, span):
            self.counts[f"registry.entry.{entry.identity_id}.s"] += span
        return args, kwargs, done

    # ---------------------------------------------------------- install

    def _wrapper_for(self, module, function, fn):
        name = f"{module}.{function}"
        if name == "fock.brace":
            def brace_label(args, kwargs):
                method = _arg(args, kwargs, 4, "method")
                return f"fock.brace.{method.value if method else 'closed_form'}"
            return self.wrap(name, fn, label=brace_label)
        hooks = {
            "qseries.log_qpoch_inf_array": self._log_qpoch_terms,
            "fock.weight_table": self._table_entries("fock.weight_table.entries", 1),
            "vgamma.weight_Veps_table":
                self._table_entries("vgamma.weight_Veps_table.entries", 2),
            "vgamma.brace_gamma_check": self._lattice_sites,
            "modular.adaptive_midpoint": self._midpoint_evals,
            "registry.run_entry": self._entry_time,
        }
        return self.wrap(name, fn, hook=hooks.get(name))

    def install(self):
        """Wrap every binding of the traced functions in the loaded qkm modules."""
        modules = {name: importlib.import_module(f"qkm.{name}") for name in TRACED}
        package = [m for key, m in sys.modules.items()
                   if key == "qkm" or key.startswith("qkm.")]
        for module, functions in TRACED.items():
            for function in functions:
                original = getattr(modules[module], function)
                wrapper = self._wrapper_for(module, function, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def totals(self) -> dict[str, float]:
        """Raw totals: `<span>.calls`, `<span>.self_s` and the computed counts."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out
