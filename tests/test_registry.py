"""Tests for the declarative registry: catalogue shape, overrides, error isolation."""

import ast
import io
import json
import math
import warnings
from collections import Counter
from pathlib import Path

import pytest

from qkm import qseries, registry
from qkm.cli import main
from qkm.registry import REGISTRY, IdentityEntry, RunConfig, run_suite, select_entries
from qkm.report import ERROR, worst_residual

# (identity_id, tolerance, verdict, sorted param keys, reports) of the
# default run; residuals are left out because they depend on the platform
DEFAULT_CATALOGUE = [
    ('fock.antisym.4_17', 1e-08, 'PASS', 'q window', 1),
    ('fock.box_intertwine.4_54', 1e-05, 'PASS', 'm_cut x xp y yp', 1),
    ('fock.brace_agreement.4_27_4_28_4_39', 1e-10, 'PASS', 'box q worst_at', 2),
    ('fock.cg_raising.4_38', 1e-09, 'PASS', 'c_max q', 1),
    ('fock.cg_vacuum.4_36_4_37', 1e-09, 'PASS', 'q window', 1),
    ('fock.completeness.4_15_4_16', 1e-08, 'PASS',
     'a_max m_max q res_a_sum res_dressed res_m_sum', 1),
    ('fock.partition.4_52_4_53', 1e-09, 'PASS',
     'q res_antisym res_product res_selfdual x', 1),
    ('fock.rll.2_15', 1e-12, 'PASS', 'a_max lam mu scramble sigma_x', 2),
    ('fock.spectral.4_9_4_10', 1e-06, 'PASS', 'N errors q reg', 2),
    ('fock.spectral_iii.4_8', 1.0, 'PASS', 'even gap odd q', 1),
    ('fock.star_triangle.4_49', 1e-07, 'PASS', 'boundary perturb_r q spins x y', 1),
    ('fock.star_triangle.4_49', 1e-07, 'PASS', 'q spins x y', 2),
    ('fock.weight_closed_vs_sum.4_42_4_43', 1e-08, 'PASS', 'q spins x', 3),
    ('fock.weight_norm.4_45', 1e-08, 'PASS', 'q', 1),
    ('fock.weight_product.4_47', 1e-08, 'PASS', 'q z', 3),
    ('fock.weight_symmetry.4_44', 1e-08, 'PASS', 'q x', 3),
    ('fock.weight_transitivity.4_46', 1e-08, 'PASS', 'm m_sum mpp x y', 3),
    ('modular.dilog_funceq.6_17', 1e-09, 'PASS', 'grid theta', 1),
    ('modular.psi_eigen.6_14', 1e-07, 'PASS', 'res_b res_binv sigma theta x', 2),
    ('modular.psi_real.6_11', 1e-08, 'PASS', 'theta', 1),
    ('modular.psi_symmetry.6_11', 1e-10, 'PASS', 'theta', 1),
    ('modular.summation.6_27', 0.0001, 'PASS', 'mu mup theta x z', 3),
    ('modular.weight_integral.6_22', 0.0001, 'PASS', 'mu theta x y', 3),
    ('modular.weight_symmetry.6_26_6_28', 1e-10, 'PASS', 'mu theta', 1),
    ('orthopoly.chi_equations.C_3_C_4_C_5_C_6', 1e-09, 'PASS',
     'q res_laurent res_shift_u res_wronskian res_z_dn res_z_up u z', 2),
    ('orthopoly.chi_ratio.6_15', 1e-09, 'PASS', 'm q z', 1),
    ('orthopoly.chi_special.C_2', 1e-09, 'PASS', 'm_max q u', 1),
    ('orthopoly.chi_wronskian.C_6', 1e-09, 'PASS', 'grid q', 1),
    ('orthopoly.difference.B_4_B_5', 1e-09, 'PASS',
     'n q res_backward res_difference xi', 4),
    ('orthopoly.genfun.B_6_B_7', 1e-09, 'PASS', 'q res_double res_single u v z', 3),
    ('orthopoly.methods.B_1_B_2_B_3', 1e-09, 'PASS', 'n n_points q', 3),
    ('orthopoly.norm_sum.B_8', 1e-09, 'PASS', 'm mp q', 4),
    ('qseries.gauss.A_9', 1e-09, 'PASS', 'q x z', 3),
    ('qseries.gauss_double.A_8', 1e-09, 'PASS', 'q res_diagonal res_double z1 z2', 2),
    ('qseries.jacobi.A_5', 1e-09, 'PASS', 'b rhs_phase x', 3),
    ('qseries.pentagonal.A_7', 1e-09, 'PASS', 'q', 1),
    ('qseries.theta.A_4', 1e-09, 'PASS', 'kind n_points q', 5),
    ('qseries.theta_const.A_6', 1e-09, 'PASS', 'q', 1),
    ('vgamma.brace_gamma.5_14_5_15', 1e-08, 'PASS',
     'a b c gammas res_brace_0 res_brace_1 res_brace_2 res_brace_3 res_norm_0 res_norm_1 res_norm_2 res_norm_3', 1),
    ('vgamma.brace_gamma.5_14_5_15', 1e-08, 'PASS', 'box gammas q', 1),
    ('vgamma.completeness.5_8', 1e-08, 'PASS',
     'a_max gamma q res_lattice res_sectors', 1),
    ('vgamma.inversion.5_26', 1e-08, 'PASS', 'a c gamma x', 2),
    ('vgamma.kappa_shift.5_28', 1e-09, 'PASS', 'q', 1),
    ('vgamma.parity.5_19', 1e-08, 'PASS', 'gamma q', 1),
    ('vgamma.partition.5_29_5_30_5_31', 1e-09, 'PASS',
     'gamma nu res_gamma_shift res_inversion res_kappa res_site x', 4),
    ('vgamma.projectors.5_12_5_13', 1e-08, 'PASS', 'gamma q res_cross_sector window', 1),
    ('vgamma.star_triangle.5_27', 1e-07, 'PASS',
     'calibrated_scalar gamma selected spins x y', 4),
    ('vgamma.star_triangle_generic.5_27', 1e-07, 'EXPECTED_FAIL',
     'calibrated_scalar gamma selected spins x y', 2),
    ('vgamma.summation.5_25', 1e-08, 'PASS', 'a c gamma x y', 2),
    ('vgamma.weight_closed_vs_sum.5_10_5_11', 1e-08, 'PASS', 'gamma q', 1),
    ('vgamma.weight_symmetry.5_24', 1e-10, 'PASS', 'box gamma q', 1),
]


def run_cli(argv):
    buf = io.StringIO()
    rc = main(argv, stream=buf)
    return rc, buf.getvalue()


def test_default_catalogue_shape():
    rc, out = run_cli(["verify", "--format", "json"])
    assert rc == 0
    reports = json.loads(out)
    shape = Counter((r["identity_id"], r["tolerance"], r["verdict"],
                     " ".join(sorted(r["params"]))) for r in reports)
    assert shape == Counter({row[:4]: row[4] for row in DEFAULT_CATALOGUE})
    assert len(reports) == 97
    assert Counter(r["verdict"] for r in reports) == {"PASS": 95, "EXPECTED_FAIL": 2}


def test_library_checks_make_no_reports():
    # a library check returns only (params, residual); the identity id, the
    # tolerance, the verdict and the timing are the registry's alone
    def names(module):
        tree = ast.parse((Path(registry.__file__).parent / f"{module}.py").read_text())
        return {getattr(node, attr) for node in ast.walk(tree) for attr in ("id", "attr", "name")
                if isinstance(getattr(node, attr, None), str)}

    banned = {"make_report", "IdentityReport", "perf_counter"}
    found = {m: names(m) & banned for m in ("qseries", "orthopoly", "fock", "vgamma", "modular")}
    assert not any(found.values()), found


def test_q_override_is_recorded_unless_the_entry_fixes_q():
    rc, out = run_cli(["verify", "--q", "0.3", "--format", "json"])
    assert rc in (0, 1)
    fixed = {e.identity_id: complex(e.fixed_q) for e in REGISTRY if e.fixed_q is not None}
    assert set(fixed) == {"qseries.jacobi.A_5", "orthopoly.chi_ratio.6_15",
                          "fock.star_triangle.4_49"}
    recorded = Counter()
    for r in json.loads(out):
        if "q" not in r["params"]:
            continue
        # the flag's value as a number: the string "0.3" compares unequal
        q = r["params"]["q"]
        if q != 0.3:
            # complex values render as str
            assert complex(q) == fixed.get(r["identity_id"]), r
        recorded[q == 0.3] += 1
    assert recorded[True] > 50 and recorded[False] >= 1


# each override runs on the entries that used to abort the whole run under it
@pytest.mark.parametrize("flags", [
    ["--filter", "*.partition.*", "--q", "0.9"],
    ["--filter", "*.partition.*", "--q", "-0.8"],
    ["--filter", "fock.s*", "--q", "0.3+0.1j"],
    ["--filter", "fock.s*", "--q", "0.35@0.2"],
    ["--filter", "*brace*", "--gamma", "0"],
], ids=" ".join)
def test_override_reports_every_selected_entry(flags, capsys, monkeypatch):
    per_entry = {}
    run_entry = registry.run_entry

    def recorded(entry, cfg):
        per_entry[entry.identity_id] = run_entry(entry, cfg)
        return per_entry[entry.identity_id]

    monkeypatch.setattr(registry, "run_entry", recorded)
    rc, out = run_cli(["verify", "--format", "json", *flags])
    assert rc in (0, 1)
    assert ERROR not in {r["verdict"] for r in json.loads(out)}
    assert len(json.loads(out)) == sum(map(len, per_entry.values()))
    assert set(per_entry) == {e.identity_id for e in select_entries(flags[1])}
    assert all(per_entry.values())
    assert "Traceback" not in capsys.readouterr().err


def test_genfun_points_stay_inside_the_radius_at_small_q():
    # the double series diverges at |z| = |q|, so its z points shrink with q
    rc, out = run_cli(["verify", "--q", "0.3", "--filter", "orthopoly.genfun*",
                       "--format", "json"])
    reports = json.loads(out)
    assert rc == 0 and reports
    assert {r["verdict"] for r in reports} == {"PASS"}


@pytest.mark.parametrize("q", [0.7, -0.8])
def test_weight_closed_vs_sum_points_leave_the_disc_of_q(q):
    # the occupation sum converges for |x| > |q|; the fixed x = 0.5 and the
    # annulus [0.5, 0.9] move towards |x| = 1 once |q| passes 0.4
    reports = run_suite(RunConfig(q=q, filter="fock.weight_closed*"))
    assert len(reports) == 3
    assert all(r.verdict == "PASS" and abs(r.params["x"]) > abs(q) for r in reports)


@pytest.mark.parametrize("entry", ["fock.completeness*", "fock.weight_closed*"])
def test_sums_that_cancel_past_the_tolerance_are_refused(entry):
    # at q = 0.9 the largest terms exceed the results by 14-16 digits
    [rep] = run_suite(RunConfig(q=0.9, filter=entry))
    assert rep.verdict == "SKIPPED"
    reason = rep.params["skip_reason"]
    assert reason.startswith("DomainError: ") and "digits to cancellation" in reason
    # at q = 0.7 they keep enough digits, and the checks run
    assert {r.verdict for r in run_suite(RunConfig(q=0.7, filter=entry))} == {"PASS"}


def test_refuse_cancellation_bound():
    # the rule is the library's (qseries), read by the registry and the
    # Fock star sums alike: a peak of 4.5e5 |value| passes at 1e-9, 5e5 not
    assert registry.refuse_cancellation is qseries.refuse_cancellation
    registry.refuse_cancellation(4.5e5, 1.0, 1e-9, "a sum")
    registry.refuse_cancellation(9e5, -2.0, 1e-9, "a sum")
    with pytest.raises(registry.DomainError, match="a sum loses 5.7 of 16 digits"):
        registry.refuse_cancellation(5e5, 1.0, 1e-9, "a sum")
    with pytest.raises(registry.DomainError, match="a sum loses 5.7 of 16 digits"):
        registry.refuse_cancellation([1.0, 5e5], [1.0, 1j], 1e-9, "a sum")  # worst entry


@pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
def test_refuse_cancellation_refuses_a_ratio_out_of_range(ratio):
    with pytest.raises(registry.DomainError, match="a sum leaves double range"):
        registry.refuse_cancellation(ratio, 1.0, 1e-9, "a sum")
    with pytest.raises(registry.DomainError, match="a sum leaves double range"):
        registry.refuse_cancellation(0.0, 0.0, 1e-9, "a sum")  # 0 / 0


def test_occupation_sum_out_of_range_is_refused_without_a_warning():
    # at q = 1e-8 the factor q^{m(m+1)/2} of the occupation sums underflows
    # to 0, so their peak-to-value ratio is 0 / 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [rep] = run_suite(RunConfig(q=1e-8, filter="fock.weight_closed*"))
    assert rep.verdict == "SKIPPED"
    assert rep.params["skip_reason"].startswith(
        "DomainError: the occupation sum leaves double range")


@pytest.mark.parametrize("q", ["1e-3", "1e-8"])
def test_sector_weight_sums_pass_at_small_q(q):
    # the weight at (0.6+0.1j, 1, -1, 4) is 4.6e-11 at q = 1e-3 and 1.5e-28 at
    # 1e-8, so a cut of tail_cut not scaled by the sum would end its
    # occupation sum at once (residual 1.0008 and 1.0000000077)
    rc, out = run_cli(["verify", "--q", q, "--filter", "vgamma.weight_closed_vs_sum*",
                       "--format", "json"])
    [rep] = json.loads(out)
    assert rc == 0 and rep["verdict"] == "PASS"


def test_generic_gamma_of_brace_entry_is_refused_as_a_domain_error():
    [rep] = run_suite(RunConfig(filter="vgamma.brace_gamma.*", gamma=0))
    assert rep.verdict == "SKIPPED"
    assert rep.params["skip_reason"] == "DomainError: gamma must be nonzero"


def test_tiny_generic_gamma_is_refused_by_the_theta_product():
    # gamma^2 underflows to 0 inside the theta function H
    [rep] = run_suite(RunConfig(filter="vgamma.brace_gamma.*", gamma=1e-200))
    assert rep.verdict == "SKIPPED"
    assert rep.params["skip_reason"].startswith(
        "DomainError: theta function H needs u^2 in double range")


@pytest.mark.parametrize("q, inside", [(1e-8, False), (1e-6, False), (1e-5, True),
                                       (-0.8, True), (0.9, True), (0.92, False),
                                       (-0.95, False), (0.97, False)])
def test_negative_control_is_refused_outside_its_q_band(q, inside):
    # outside 1e-5 <= |q| <= 0.9 the generic-gamma defect falls below 10x
    # its tolerance; a forced --gamma on the selected entry runs the same control
    refusal = ("DomainError: the generic-gamma negative control discriminates only "
               "for 1e-05 <= |q| <= 0.9")
    for pattern, gamma in (("vgamma.star_triangle_generic*", None),
                           ("vgamma.star_triangle.*", 0.8)):
        reports = run_suite(RunConfig(q=q, gamma=gamma, filter=pattern))
        if inside:
            assert [r.verdict for r in reports] == ["EXPECTED_FAIL"] * 2
        else:
            [rep] = reports
            assert rep.verdict == "SKIPPED"
            assert rep.params["skip_reason"].startswith(refusal)


def test_unexpected_exception_is_an_error_report_and_exit_three(monkeypatch, capsys):
    def broken(run):
        yield {"q": run.ctx.q}, 0.0
        raise TypeError("boom")

    entry = IdentityEntry("test.broken", broken, tol=1e-7)
    monkeypatch.setattr(registry, "REGISTRY", [entry, *REGISTRY])
    rc, out = run_cli(["verify", "--filter", "test.*"])
    assert rc == 3
    assert out.splitlines()[-1] == "ERROR: 1 of 1 checks"
    assert "Traceback" not in capsys.readouterr().err
    [rep] = run_suite(RunConfig(filter="test.*"))
    assert rep.verdict == ERROR and not rep.ok
    assert rep.tolerance == 1e-7
    # file and function, without a line number that any edit above would move
    assert rep.params["skip_reason"] == "TypeError: boom (at test_registry.py in broken)"


def test_entry_that_reads_no_q_ignores_a_bad_q():
    # contexts are built on first use, so a refused q touches only the
    # entries that read it
    reports = run_suite(RunConfig(q=1.5, filter="*.psi_real.*"))
    assert [r.verdict for r in reports] == ["PASS"]
    [rep] = run_suite(RunConfig(q=1.5, filter="orthopoly.chi_special.*"))
    assert rep.verdict == "SKIPPED" and rep.tolerance == 1e-9


@pytest.mark.parametrize("q", ["nan", "nan+0.1j"])
def test_a_nan_q_is_refused_like_one_outside_the_disc(q, capsys):
    # a NaN q once ran: max(worst, nan) dropped the NaN and gave PASS at 0.0
    def verdicts(flag):
        rc, out = run_cli(["verify", "--format", "json", "--q", flag])
        assert rc == 0
        reports = json.loads(out)
        assert all(r["params"]["skip_reason"].startswith("DomainError")
                   for r in reports if r["verdict"] == "SKIPPED")
        return Counter((r["identity_id"], r["verdict"]) for r in reports)

    assert verdicts(q) == verdicts("1.5")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("position", [0, 1, 2])
def test_worst_residual_propagates_a_nan_in_any_position(position):
    residuals = [1e-12, 3e-9, 2e-10]
    assert worst_residual(residuals) == 3e-9
    residuals[position] = math.nan
    assert math.isnan(worst_residual(residuals))
    assert math.isnan(worst_residual(iter(residuals)))


def test_worst_residual_of_no_components_is_zero():
    assert worst_residual([]) == 0.0
    assert worst_residual(r for r in ()) == 0.0


def test_a_nan_point_fails_the_theta_check(monkeypatch):
    # one of the 50 points of each kind evaluates to NaN: a running
    # max(0.0, nan) would drop it and report every kind as a PASS (the
    # theta3 forms call the theta4 ones, which only adds to counts past 50)
    product = qseries.theta_product
    calls = Counter()

    def nan_at_point_7(kind, u, ctx):
        calls[kind] += 1
        return math.nan if calls[kind] == 7 else product(kind, u, ctx)

    monkeypatch.setattr(qseries, "theta_product", nan_at_point_7)
    reports = run_suite(RunConfig(filter="qseries.theta.A_4"))
    assert len(reports) == 5
    for rep in reports:
        assert rep.verdict == "FAIL" and math.isnan(rep.residual)


def test_theta_0_2_refuses_the_spectral_integral_as_an_overflow():
    reports = run_suite(RunConfig(b_theta=0.2, filter="modular.*"))
    [integral] = [r for r in reports if r.identity_id == "modular.weight_integral.6_22"]
    assert integral.verdict == "SKIPPED"
    assert integral.params["skip_reason"].startswith("OverflowGuard:")
    assert all(r.verdict == "PASS" for r in reports if r is not integral)


@pytest.mark.parametrize("window", [20, 15])
def test_vgamma_centre_blocks_refuse_a_narrower_window(window):
    # completeness: a 51-site centre block on 2 window + 1 sites, where a
    # negative slice start would read the window's last sites as the
    # centre; projectors: a block that keeps 20 table sites on each side
    refusals = {
        "vgamma.completeness.5_8": (
            2 * window + 1 < 51,
            f"DomainError: the window {window} is narrower than the 51-site centre block"),
        "vgamma.projectors.5_12_5_13": (
            window < 20,
            f"DomainError: the projector identities need a window of at least 20 sites, "
            f"got {window}"),
    }
    for entry in REGISTRY:
        if entry.identity_id in refusals:
            [rep] = registry.run_entry(entry, RunConfig(m_window=window, a_max=8))
            refused, refusal = refusals[entry.identity_id]
            if refused:
                assert (rep.verdict, rep.params["skip_reason"]) == ("SKIPPED", refusal)
            else:
                assert rep.params.get("skip_reason") != refusal


def test_spin_sums_that_do_not_decay_are_refused():
    # V_x S V_y sums shrink like (|q| / |xy|)^{2|b|}; at q = 0.6 the
    # pair (0.7, 0.8) of the bold summation and the cross-sector sum has
    # |xy| = 0.56, and the fixed transitivity pair (0.8, 0.7) at q = -0.8
    refusal = "DomainError: a spin sum of V_x S V_y decays only for |xy| > |q|"
    for q, pattern in ((0.6, "vgamma.summation*"), (0.6, "vgamma.projectors*"),
                       (-0.8, "fock.weight_properties*")):
        [rep] = run_suite(RunConfig(filter=pattern, q=q))
        assert rep.params["skip_reason"].startswith(refusal), (q, pattern)


@pytest.mark.parametrize("window", [20, 25, 60])
def test_projectors_pass_on_every_window_from_the_margin(window):
    # the centre block shrinks with the window and keeps its 20-site margin
    [rep] = run_suite(RunConfig(filter="vgamma.projectors*", m_window=window))
    assert rep.verdict == "PASS", (rep.residual, rep.params)
