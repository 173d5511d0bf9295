"""Tests for the command-line front end and the registry plumbing."""

import decimal
import io
import json
import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

from qkm import fock, orthopoly, qseries, vgamma
from qkm.cli import UsageError, main, parse_complex
from qkm.orthopoly import poly_rows
from qkm.qseries import log_qpoch_table
from qkm.registry import REGISTRY, RunConfig, run_suite, select_entries


def run_cli(argv):
    buf = io.StringIO()
    rc = main(argv, stream=buf)
    return rc, buf.getvalue()


def test_parse_complex_forms():
    assert parse_complex("0.4") == 0.4
    assert parse_complex("-0.3") == -0.3
    assert parse_complex("0.8+0.3j") == 0.8 + 0.3j
    assert parse_complex("0.8+0.3i") == 0.8 + 0.3j
    v = parse_complex("0.8@0.3")
    assert abs(v - 0.8 * complex(__import__("cmath").exp(0.3j))) < 1e-15
    for bad in ("0.8@x", "r@0.3", "0.3+"):
        with pytest.raises(UsageError):
            parse_complex(bad)


def test_registry_covers_required_identities():
    ids = {e.identity_id for e in REGISTRY}
    required = {
        "qseries.theta.A_4", "qseries.jacobi.A_5", "qseries.theta_const.A_6",
        "qseries.pentagonal.A_7", "qseries.gauss_double.A_8", "qseries.gauss.A_9",
        "orthopoly.methods.B_1_B_2_B_3", "orthopoly.difference.B_4_B_5",
        "orthopoly.genfun.B_6_B_7", "orthopoly.norm_sum.B_8",
        "orthopoly.chi_special.C_2", "orthopoly.chi_equations.C_3_C_4_C_5_C_6",
        "fock.rll.2_15", "fock.completeness.4_15_4_16", "fock.antisym.4_17",
        "fock.brace_agreement.4_27_4_28_4_39", "fock.spectral.4_9_4_10",
        "fock.weight_properties.4_44_4_45_4_46_4_47", "fock.star_triangle.4_49",
        "fock.partition.4_52_4_53", "fock.box_intertwine.4_54",
        "vgamma.completeness.5_8", "vgamma.projectors.5_12_5_13",
        "vgamma.brace_gamma.5_14_5_15", "vgamma.parity.5_19",
        "vgamma.star_triangle.5_27", "vgamma.star_triangle_generic.5_27",
        "vgamma.partition.5_29_5_30_5_31",
        "modular.dilog_funceq.6_17", "modular.psi_eigen.6_14",
        "modular.weight_integral.6_22", "modular.summation.6_27",
    }
    assert required <= ids


def test_verify_qseries_passes():
    rc, out = run_cli(["verify", "--filter", "qseries.*"])
    assert rc == 0
    assert "FAIL" not in out.replace("EXPECTED_FAIL", "")


def test_verify_json_format():
    rc, out = run_cli(["verify", "--filter", "qseries.gauss.A_9",
                       "--format", "json"])
    assert rc == 0
    reports = json.loads(out)
    assert all(r["verdict"] == "PASS" for r in reports)
    assert {"identity_id", "params", "residual", "tolerance", "verdict",
            "wall_time_ms"} == set(reports[0])


def test_verify_csv_format():
    rc, out = run_cli(["verify", "--filter", "qseries.pentagonal.*",
                       "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("identity_id,")
    assert "qseries.pentagonal.A_7" in lines[1]


def test_empty_filter_is_usage_error():
    rc, _ = run_cli(["verify", "--filter", "no.such.identity"])
    assert rc == 2


def test_forced_failure_sets_exit_one():
    rc, out = run_cli(["verify", "--filter", "qseries.gauss.A_9",
                       "--tol", "1e-30", "--format", "json"])
    assert rc == 1
    assert all(r["verdict"] == "FAIL" for r in json.loads(out))


def test_negative_control_reports_expected_fail_and_exit_zero():
    rc, out = run_cli(["verify", "--filter", "vgamma.star_triangle_generic.*",
                       "--gamma", "generic:0.8@0.3", "--format", "json"])
    assert rc == 0
    reports = json.loads(out)
    assert reports and all(r["verdict"] == "EXPECTED_FAIL" for r in reports)
    assert all(r["residual"] > 1e-3 for r in reports)


def test_determinism_same_seed():
    def run_once(pattern):
        rc, out = run_cli(["verify", "--filter", pattern,
                           "--format", "json", "--seed", "42"])
        assert rc == 0
        reports = json.loads(out)
        for r in reports:
            r.pop("wall_time_ms")
        return json.dumps(reports, sort_keys=True)

    # the brace entries share row tables across triples, never across calls
    for pattern in ("fock.weight_*", "*brace*"):
        assert run_once(pattern) == run_once(pattern)


@pytest.mark.parametrize("flags", [
    ["--filter", ""], ["--gamma", ""], ["--tol", "0"], ["--tol", "-1e-9"],
    ["--tol", "nan"], ["--m-window", "0"], ["--m-window", "-3"],
    ["--a-max", "0"],
], ids=" ".join)
def test_falsy_or_nonpositive_override_is_usage_error(flags, capsys):
    rc, out = run_cli(["verify", "--format", "json", *flags])
    assert rc == 2 and out == ""
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--gamma", "selected:abc"], ["table", "vgamma.Vbold", "--gamma", "selected:x"],
    ["table", "fock.V", "--m-range", "3"], ["table", "fock.V", "--m-range", "a:b"],
    ["spectrum", "--N-list", "a,b"], ["spectrum", "--q", "0.3+0.1j"],
    ["verify", "--config", "{ini}"], ["verify", "--theta", "abc"], ["verify", "--seed", "x"],
    ["verify", "--m-window", "1.5"], ["table", "fock.V", "--points", "x"],
], ids=" ".join)
def test_malformed_argument_is_usage_error(argv, tmp_path, capsys):
    # a ValueError from parsing would escape as a traceback with exit 1, FAIL's
    # code; a flag value takes the config value's parse path, not argparse's
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseed = abc\n")
    rc, out = run_cli([a.format(ini=ini) for a in argv])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("error: cannot parse ")


@pytest.mark.parametrize("argv", [
    ["table", "fock.V", "--m-range", "5:0"], ["table", "vgamma.Vbold", "--m-range", "5:0"],
    ["table", "fock.V", "--mp-range", "2:1"], ["table", "modular.V", "--points", "0"],
    ["table", "modular.V", "--points", "-1"], ["spectrum", "--N-list", "2,3"],
], ids=" ".join)
def test_empty_grid_or_short_spectrum_is_refused(argv, capsys):
    # an empty table grid, or a cutoff with fewer eigenvalues than branches
    rc, out = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_nonpositive_override_in_config_file_is_usage_error(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nfilter = qseries.gauss.A_9\nm-window = 0\n")
    rc, out = run_cli(["verify", "--config", str(cfg)])
    assert rc == 2 and out == ""


def test_table_zero_theta_is_refused(capsys):
    rc, out = run_cli(["table", "modular.V", "--theta", "0"])
    assert rc == 2 and out == ""
    assert "DomainError" in capsys.readouterr().err


def test_registry_keeps_a_falsy_window():
    # a zero window is used as given (and refused), not replaced by 40
    [rep] = run_suite(RunConfig(filter="fock.antisym.4_17", m_window=0))
    assert rep.verdict == "SKIPPED" and rep.tolerance == 1e-8
    assert rep.params["skip_reason"].startswith("DomainError")


def test_brace_entries_build_one_row_table_per_site(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return poly_rows(*args)

    monkeypatch.setattr(orthopoly, "poly_rows", counted)
    # one (2, 1, 1) check over 4 gammas and the [0,4]^3 box over 2 gammas,
    # each gamma on fewer than 40 sites at q = 0.4: under (4 + 2) * 40 tables
    reports = run_suite(RunConfig(filter="vgamma.brace_gamma.*"))
    assert reports and all(r.verdict == "PASS" for r in reports)
    assert calls[0] <= 240
    calls[0] = 0
    # the [0,6]^3 box at q = 0.3 and 0.5: one table per site of the spin sum
    reports = run_suite(RunConfig(filter="fock.brace_agreement.*"))
    assert reports and all(r.verdict == "PASS" for r in reports)
    assert calls[0] <= 34


def test_weight_checks_build_one_table_per_point(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return log_qpoch_table(*args)

    monkeypatch.setattr(fock, "log_qpoch_table", counted)
    monkeypatch.setattr(vgamma, "log_qpoch_table", counted)
    # the weight checks read spin grids from one table per parameter point
    # or per block of a walked spin sum, 86 tables a default run; one
    # scalar call per spin pair would make 933
    rc, _ = run_cli(["verify", "--format", "json"])
    assert rc == 0
    assert calls[0] <= 100


def test_coproduct_checks_do_matrix_work(monkeypatch):
    calls = {"transitivity": 0, "kron": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fock, "transitivity_check_fock",
                        counted("transitivity", fock.transitivity_check_fock))
    monkeypatch.setattr(np, "kron", counted("kron", np.kron))
    rc, _ = run_cli(["verify", "--format", "json"])
    assert rc == 0
    # one window per transitivity pair, read off the summands' decay rate
    assert calls["transitivity"] == 3
    # the box check applies each generator through its three diagonals
    assert calls["kron"] == 0
    # closed-form braces, the cg norms and the explicit sum read (q^2;q^2)_n
    # from prefix tables: no library module has a scalar finite q-product
    assert not any(hasattr(module, "qpoch_finite")
                   for module in (qseries, fock, orthopoly, vgamma))


def test_jobs_flag_rejected():
    rc, _ = run_cli(["verify", "--filter", "qseries.gauss.A_9", "--jobs", "2"])
    assert rc == 2


def test_run_suite_leaves_mpmath_precision_alone():
    dps = mpmath.mp.dps
    run_suite(RunConfig(filter="vgamma.brace_gamma*"))
    assert mpmath.mp.dps == dps


def test_run_suite_leaves_the_decimal_context_alone():
    before = decimal.getcontext().copy()
    run_suite(RunConfig(filter="*brace*"))
    after = decimal.getcontext()
    assert (after.prec, after.traps) == (before.prec, before.traps)


BRACE_OVERRIDES = {
    # override: verdicts of fock.brace_agreement, then vgamma.brace_gamma
    "--q 1e-60": ["SKIPPED", "SKIPPED"],
    "--gamma 0": ["PASS", "PASS", "SKIPPED"],
    "--gamma 1e-200": ["PASS", "PASS", "SKIPPED"],
    "--q 0.05": ["SKIPPED", "PASS", "PASS"],
    "--q 0.2": ["PASS", "PASS", "PASS"],
    "--q 0.97": ["PASS", "SKIPPED"],
    "--q 0.99": ["SKIPPED", "SKIPPED"],
    "--q 0.3+0.1j": ["PASS", "PASS", "PASS"],
    "--q 0.35@0.2": ["PASS", "PASS", "PASS"],
    "--q -0.8": ["PASS", "PASS", "PASS"],
}


@pytest.mark.parametrize("override", BRACE_OVERRIDES)
def test_brace_overrides_give_verdicts_or_refusals(override, capsys):
    # no decimal signal or other exception escapes the extended-precision
    # lattice sums as an ERROR report, and nothing reaches stderr
    rc, out = run_cli(["verify", "--format", "json", "--filter", "*brace*",
                       *override.split()])
    reports = json.loads(out)
    assert rc == 0
    assert [r["verdict"] for r in reports] == BRACE_OVERRIDES[override]
    assert all(r["params"]["skip_reason"].startswith(("DomainError", "OverflowGuard"))
               for r in reports if r["verdict"] == "SKIPPED")
    assert capsys.readouterr().err == ""


def test_small_q_fock_brace_refusal_names_its_digits():
    rc, out = run_cli(["verify", "--format", "json", "--filter", "fock.brace*", "--q", "0.05"])
    [report] = json.loads(out)
    assert rc == 0 and report["verdict"] == "SKIPPED"
    assert report["params"]["skip_reason"] == (
        "DomainError: lattice sum cancels more than 32 of its 40 digits")


def test_brace_run_imports_no_mpmath():
    code = ("import sys; sys.modules['mpmath'] = None; from qkm.cli import main; "
            "sys.exit(main(['verify', '--format', 'json', '--filter', '*brace*']))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert {r["verdict"] for r in json.loads(proc.stdout)} == {"PASS"}


def test_transitivity_pairs_redrawn_near_convergence_edge():
    # this seed first draws |xy| = 0.4004 against q = 0.4, where the middle-
    # spin sum does not converge inside the autogrow window
    reports = run_suite(RunConfig(seed=145589026, filter="fock.weight_properties*"))
    assert len(reports) == 10
    assert all(r.verdict == "PASS" for r in reports)


def test_seed_zero_is_honoured():
    def points(*flags):
        rc, out = run_cli(["verify", "--filter", "qseries.gauss.A_9",
                           "--format", "json", *flags])
        assert rc == 0
        return [r["params"] for r in json.loads(out)]

    assert points() == points("--seed", str(RunConfig.seed))
    assert points("--seed", "0") != points()


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nfilter = qseries.gauss.A_9\nformat = json\nseed = 7\n")
    rc, out = run_cli(["verify", "--config", str(cfg)])
    assert rc == 0
    assert json.loads(out)[0]["identity_id"] == "qseries.gauss.A_9"
    # flags override the file
    rc, out = run_cli(["verify", "--config", str(cfg), "--format", "csv"])
    assert rc == 0
    assert out.startswith("identity_id,")


def test_table_fock_grid():
    rc, out = run_cli(["table", "fock.V", "--x", "0.7",
                       "--m-range", "0:5", "--mp-range", "0:5"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 37  # header + 36 grid points


def test_table_overflow_is_classified(capsys):
    # a q-product argument, and a km_V weight, outside double range
    for argv in (["fock.V", "--x", "0.7", "--m-range=0:800", "--mp-range=0:0"],
                 ["vgamma.Vbold", "--x", "1e-6", "--m-range=40:40", "--mp-range=40:40"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run_cli(["table", *argv])
        assert rc == 2
        assert out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: OverflowGuard: "), argv


def test_table_vbold_all_ones_at_x_q():
    rc, out = run_cli(["table", "vgamma.Vbold", "--x", "0.4",
                       "--gamma", "selected:0.5",
                       "--m-range=-2:2", "--mp-range=-2:2"])
    assert rc == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 25
    for row in rows:
        _, _, re, im = row.split(",")
        assert abs(float(re) - 1.0) < 1e-12 and abs(float(im)) < 1e-12


def test_table_modular_symmetric():
    rc, out = run_cli(["table", "modular.V", "--m-range", "0:1",
                       "--mp-range", "0:1", "--points", "3", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    vals = {(r["m"], r["mp"]): complex(r["re"], r["im"]) for r in rows}
    for (x, y), v in vals.items():
        assert abs(v - vals[(y, x)]) < 1e-10 * max(abs(v), 1.0)


def test_table_formats_are_csv_and_json(capsys):
    rc, out = run_cli(["table", "fock.V", "--format", "human"])
    assert rc == 2 and out == ""
    assert capsys.readouterr().err == "error: unknown format 'human' (choose csv, json)\n"


@pytest.mark.parametrize("argv", [["verify", "--format", "xml"],
                                  ["table", "fock.V", "--format", "xml"]], ids=" ".join)
def test_unknown_format_is_one_error_line(argv, capsys):
    rc, out = run_cli(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("error: unknown format 'xml' (choose ")


def test_catalogue_at_tiny_q_has_no_error_and_no_warning(capsys):
    # powers of q past double range are OverflowGuard refusals: no ERROR
    # report and no numpy RuntimeWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = run_cli(["verify", "--format", "json", "--q", "1e-8"])
    assert rc == 1
    assert "ERROR" not in {r["verdict"] for r in json.loads(out)}
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_whole_catalogue_at_q_1e_minus_60_has_no_error(capsys):
    # every entry gives a verdict or a classified refusal, and no verdict
    # carries a NaN residual
    rc, out = run_cli(["verify", "--format", "json", "--q", "1e-60"])
    reports = json.loads(out)
    assert rc == 1
    assert [r["identity_id"] for r in reports if r["verdict"] == "ERROR"
            or (r["verdict"] != "SKIPPED" and math.isnan(r["residual"]))] == []
    assert capsys.readouterr().err == ""


def test_table_unknown_weight():
    rc, _ = run_cli(["table", "bogus.V"])
    assert rc == 2


def test_spectrum_command():
    rc, out = run_cli(["spectrum", "--N-list", "8,16", "--reg", "I", "--q", "0.4"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("N,branch")
    assert len(lines) == 9  # two N values x four branches


def test_spectrum_reg_iii_gap():
    rc, out = run_cli(["spectrum", "--N-list", "21,22", "--reg", "III"])
    assert rc == 0
    assert "gap" in out


def test_run_suite_skips_on_bad_regime():
    cfg = RunConfig(q=0.5 + 0.2j, filter="fock.spectral.*")
    reports = run_suite(cfg)
    assert reports and reports[0].verdict == "SKIPPED"


def test_select_entries_glob():
    assert select_entries("vgamma.*")
    assert not select_entries("nope.*")


def test_forced_generic_gamma_turns_star_triangle_into_control():
    rc, out = run_cli(["verify", "--filter", "vgamma.star_triangle.*",
                       "--gamma", "generic:0.8+0.3i", "--format", "json"])
    assert rc == 0
    reports = json.loads(out)
    assert reports and all(r["verdict"] == "EXPECTED_FAIL" for r in reports)
