"""Fixed definitions of the qkm benchmark: catalogue, workload sizes, metric names.

Everything here is data the benchmark holds independently of the library,
so that a change to the library cannot change what the benchmark expects.
Importing this module does not import qkm.
"""

from __future__ import annotations

WORKLOADS = ("verify_cli", "weight_tables", "point_sweep")

# Report ids of a default `qkm verify` and how many reports each has (97 in
# all).  Every verdict is PASS except on the generic-gamma negative control.
REPORT_COUNTS = {
    "fock.antisym.4_17": 1,
    "fock.box_intertwine.4_54": 1,
    "fock.brace_agreement.4_27_4_28_4_39": 2,
    "fock.cg_raising.4_38": 1,
    "fock.cg_vacuum.4_36_4_37": 1,
    "fock.completeness.4_15_4_16": 1,
    "fock.partition.4_52_4_53": 1,
    "fock.rll.2_15": 2,
    "fock.spectral.4_9_4_10": 2,
    "fock.spectral_iii.4_8": 1,
    "fock.star_triangle.4_49": 3,
    "fock.weight_closed_vs_sum.4_42_4_43": 3,
    "fock.weight_norm.4_45": 1,
    "fock.weight_product.4_47": 3,
    "fock.weight_symmetry.4_44": 3,
    "fock.weight_transitivity.4_46": 3,
    "modular.dilog_funceq.6_17": 1,
    "modular.psi_eigen.6_14": 2,
    "modular.psi_real.6_11": 1,
    "modular.psi_symmetry.6_11": 1,
    "modular.summation.6_27": 3,
    "modular.weight_integral.6_22": 3,
    "modular.weight_symmetry.6_26_6_28": 1,
    "orthopoly.chi_equations.C_3_C_4_C_5_C_6": 2,
    "orthopoly.chi_ratio.6_15": 1,
    "orthopoly.chi_special.C_2": 1,
    "orthopoly.chi_wronskian.C_6": 1,
    "orthopoly.difference.B_4_B_5": 4,
    "orthopoly.genfun.B_6_B_7": 3,
    "orthopoly.methods.B_1_B_2_B_3": 3,
    "orthopoly.norm_sum.B_8": 4,
    "qseries.gauss.A_9": 3,
    "qseries.gauss_double.A_8": 2,
    "qseries.jacobi.A_5": 3,
    "qseries.pentagonal.A_7": 1,
    "qseries.theta.A_4": 5,
    "qseries.theta_const.A_6": 1,
    "vgamma.brace_gamma.5_14_5_15": 2,
    "vgamma.completeness.5_8": 1,
    "vgamma.inversion.5_26": 2,
    "vgamma.kappa_shift.5_28": 1,
    "vgamma.parity.5_19": 1,
    "vgamma.partition.5_29_5_30_5_31": 4,
    "vgamma.projectors.5_12_5_13": 1,
    "vgamma.star_triangle.5_27": 4,
    "vgamma.star_triangle_generic.5_27": 2,
    "vgamma.summation.5_25": 2,
    "vgamma.weight_closed_vs_sum.5_10_5_11": 1,
    "vgamma.weight_symmetry.5_24": 1,
}
EXPECTED_FAIL_IDS = frozenset({"vgamma.star_triangle_generic.5_27"})

# The 42 registry entries, timed one by one in the traced verify_cli run.
ENTRY_IDS = (
    "qseries.theta.A_4",
    "qseries.theta_const.A_6",
    "qseries.pentagonal.A_7",
    "qseries.gauss_double.A_8",
    "qseries.gauss.A_9",
    "qseries.jacobi.A_5",
    "orthopoly.methods.B_1_B_2_B_3",
    "orthopoly.difference.B_4_B_5",
    "orthopoly.genfun.B_6_B_7",
    "orthopoly.norm_sum.B_8",
    "orthopoly.chi_special.C_2",
    "orthopoly.chi_equations.C_3_C_4_C_5_C_6",
    "orthopoly.chi_ratio.6_15",
    "fock.completeness.4_15_4_16",
    "fock.antisym.4_17",
    "fock.spectral.4_9_4_10",
    "fock.brace_agreement.4_27_4_28_4_39",
    "fock.cg.4_36_4_37_4_38",
    "fock.weight_closed_vs_sum.4_42_4_43",
    "fock.weight_properties.4_44_4_45_4_46_4_47",
    "fock.star_triangle.4_49",
    "fock.partition.4_52_4_53",
    "fock.rll.2_15",
    "fock.box_intertwine.4_54",
    "vgamma.completeness.5_8",
    "vgamma.weight_closed_vs_sum.5_10_5_11",
    "vgamma.projectors.5_12_5_13",
    "vgamma.brace_gamma.5_14_5_15",
    "vgamma.parity.5_19",
    "vgamma.weight_symmetry.5_24",
    "vgamma.summation.5_25_5_26",
    "vgamma.star_triangle.5_27",
    "vgamma.star_triangle_generic.5_27",
    "vgamma.kappa_shift.5_28",
    "vgamma.partition.5_29_5_30_5_31",
    "modular.dilog_funceq.6_17",
    "modular.psi_real.6_11",
    "modular.psi_symmetry.6_11",
    "modular.psi_eigen.6_14",
    "modular.weight_integral.6_22",
    "modular.weight_symmetry.6_26_6_28",
    "modular.summation.6_27",
)

# Workload sizes.  "tiny" exists for the benchmark's own smoke test.
SIZES = {
    "full": {
        "verify_cli": {"filter": "*"},
        "weight_tables": {"q": 0.4, "fock_windows": [6, 41, 161],
                          "veps_window": 121, "km_grid": 41, "modular_grid": 12},
        "point_sweep": {"points_per_pass": 5, "triple_max": 4},
    },
    "tiny": {
        "verify_cli": {"filter": "qseries.*"},
        "weight_tables": {"q": 0.4, "fock_windows": [6, 11],
                          "veps_window": 11, "km_grid": 5, "modular_grid": 3},
        "point_sweep": {"points_per_pass": 1, "triple_max": 1},
    },
}

# Fresh processes whose set-up and cold first pass are timed per run of an
# in-process workload; verify_cli gets one sample of each from every pass.
SETUP_PROBES = 9

# Passes made with tracing on, in one fresh process (in-process workloads) or
# one fresh process each (verify_cli).  Fixed, so traced counts repeat exactly.
TRACED_PASSES = {"verify_cli": 2, "weight_tables": 6, "point_sweep": 8}

E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_tail_s": "s",
    "items_per_s": "1/s",
    "first_pass_s": "s",
    "peak_rss_mb": "MB",
}

# Traced functions, by defining module.  Every binding of each one inside the
# qkm package is wrapped.  fock.brace is split by its `method` argument.
TRACED = {
    "qseries": ("qpoch_inf", "theta_product", "tail_sum", "log_qpoch_inf_array"),
    "orthopoly": ("scaled_poly_values", "poly_P", "chi"),
    "fock": ("brace", "weight_table", "weight_V_fock_from_overlaps",
             "star_triangle_fock", "spectral_experiment",
             "box_intertwining_check", "vform_matrices"),
    "vgamma": ("brace_gamma_check", "weight_Veps_table", "km_V",
               "windowed_bilateral_sum", "vgamma_decomposition",
               "star_triangle_km"),
    "modular": ("adaptive_midpoint", "psi", "weight_V_modular", "faddeev_phi"),
    "registry": ("run_entry",),
    "cli": ("main",),
}
BRACE_METHODS = ("spin_sum", "closed_form", "recursion")

# Counts worked out from call arguments (or, for evals, from counting the
# integrand calls), reported next to the spans.
COMPUTED = {
    "qseries.log_qpoch_inf_array.terms_computed": "count/pass",
    "qseries.log_qpoch_inf_array.bytes_computed": "B/pass",
    "fock.weight_table.entries": "count/pass",
    "vgamma.weight_Veps_table.entries": "count/pass",
    "vgamma.brace_gamma_check.lattice_sites": "count/pass",
    "modular.adaptive_midpoint.evals": "count/pass",
    "modular.adaptive_midpoint.useful_frac": "ratio",
}


def span_names() -> list[str]:
    names = []
    for module, functions in TRACED.items():
        for function in functions:
            if (module, function) == ("fock", "brace"):
                names.extend(f"fock.brace.{m}" for m in BRACE_METHODS)
            else:
                names.append(f"{module}.{function}")
    return names


def layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit, in print order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count/pass"
        units[f"{name}.self_s"] = "s/pass"
    units.update(COMPUTED)
    for entry in ENTRY_IDS:
        units[f"registry.entry.{entry}.s"] = "s/pass"
    units["trace_overhead_frac"] = "ratio"
    return units
