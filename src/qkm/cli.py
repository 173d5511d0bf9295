"""Command-line front end: verify / table / spectrum.

``qkm verify`` runs any glob-selected subset of the identity registry and
emits one report per (identity, parameter point) in human, json, or csv
form.  Exit codes: 0 when every verdict is PASS / EXPECTED_FAIL / SKIPPED,
1 on any FAIL, 2 on configuration or usage errors, and 3 when a check
raised an unexpected exception (an ERROR report; it outranks FAIL).
Complex flags such as ``--q`` take ``0.3+0.1j``, ``0.3+0.1i`` or the polar
``0.35@0.2``.  ``qkm table`` dumps weight values over a grid for external
tooling, and ``qkm spectrum`` runs the truncated-operator experiment.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import csv
import json
import sys

import numpy as np

from . import fock, modular, vgamma
from .context import QContext
from .errors import QkmError
from .registry import DEFAULT_THETA, RunConfig, run_suite, select_entries
from .report import ERROR, FAIL


class UsageError(Exception):
    pass


def parse_complex(text: str) -> complex:
    """Accept '0.4', '-0.3', '0.8+0.3j' (or ...i), and polar 'r@phase'."""
    text = text.strip().replace(" ", "")
    try:
        if "@" in text:
            r, phi = text.split("@", 1)
            return float(r) * cmath.exp(1j * float(phi))
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number {text!r}") from exc


def _parse(cast, text: str, what: str):
    """``cast(text)``, with a ValueError reported as a usage error naming ``what``."""
    try:
        return cast(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} {text!r}") from exc


def _check_format(fmt: str, allowed) -> None:
    if fmt not in allowed:
        raise UsageError(f"unknown format {fmt!r} (choose {', '.join(allowed)})")


def _int_pair(text: str) -> tuple[int, int]:
    lo, hi = text.split(":")
    return int(lo), int(hi)


def _parse_gamma(text: str) -> tuple[complex | None, float | None]:
    """gamma argument: 'selected:NU' or 'generic:C' or a bare complex."""
    if text.startswith("selected:"):
        return None, _parse(float, text.split(":", 1)[1], "--gamma selected:NU")
    if text.startswith("generic:"):
        return parse_complex(text.split(":", 1)[1]), None
    return parse_complex(text), None


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file {path!r} not found")
    values = {}
    for section in parser.sections():
        for key, val in parser.items(section):
            values[key.replace("-", "_")] = val
    return values


def _build_run_config(args) -> RunConfig:
    file_vals = _load_config_file(args.config) if args.config else {}

    def pick(name, flag_value, cast, default=None):
        if flag_value is not None:
            return _parse(cast, flag_value, name)
        if name in file_vals:
            return _parse(cast, file_vals[name], name)
        return default

    gamma, gamma_nu = None, None
    gamma_text = pick("gamma", args.gamma, str)
    if gamma_text is not None:
        gamma, gamma_nu = _parse_gamma(gamma_text)
    cfg = RunConfig(
        q=pick("q", args.q, parse_complex),
        gamma=gamma,
        gamma_nu=gamma_nu,
        b_theta=pick("theta", args.theta, float),
        tol=pick("tol", args.tol, float),
        seed=pick("seed", args.seed, int, RunConfig.seed),
        filter=pick("filter", args.filter, str, RunConfig.filter),
        fmt=pick("format", args.format, str, RunConfig.fmt),
        m_window=pick("m_window", args.m_window, int),
        a_max=pick("a_max", args.a_max, int),
    )
    for flag, value in (("tol", cfg.tol), ("m-window", cfg.m_window),
                        ("a-max", cfg.a_max)):
        if value is not None and not value > 0:
            raise UsageError(f"--{flag} must be positive, got {value}")
    _check_format(cfg.fmt, ("human", "json", "csv"))
    return cfg


def _emit_reports(reports, fmt: str, stream) -> None:
    rows = [r.as_dict() for r in reports]
    if fmt == "json":
        stream.write(json.dumps(rows, sort_keys=True, indent=2))
        stream.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(["identity_id", "verdict", "residual", "tolerance",
                         "wall_time_ms", "params"])
        for row in rows:
            writer.writerow([row["identity_id"], row["verdict"], row["residual"],
                             row["tolerance"], row["wall_time_ms"],
                             json.dumps(row["params"], sort_keys=True)])
        return
    for row in rows:
        params = ", ".join(f"{k}={v}" for k, v in row["params"].items())
        stream.write(f"{row['verdict']:<13} {row['identity_id']:<42} "
                     f"residual={row['residual']:.3e} tol={row['tolerance']:.1e} "
                     f"[{params}] {row['wall_time_ms']:.1f}ms\n")


def cmd_verify(args, stream) -> int:
    cfg = _build_run_config(args)
    if not select_entries(cfg.filter):
        raise UsageError(f"filter {cfg.filter!r} matches no registered identity")
    reports = run_suite(cfg)
    _emit_reports(reports, cfg.fmt, stream)
    failed = sum(r.verdict == FAIL for r in reports)
    errors = sum(r.verdict == ERROR for r in reports)
    if cfg.fmt == "human":
        if failed:
            stream.write(f"FAILED: {failed} of {len(reports)} checks\n")
        if errors:
            stream.write(f"ERROR: {errors} of {len(reports)} checks\n")
    return 3 if errors else 1 if failed else 0


def cmd_table(args, stream) -> int:
    _check_format(args.format, ("csv", "json"))
    m_lo, m_hi = _parse(_int_pair, args.m_range, "--m-range lo:hi")
    mp_lo, mp_hi = _parse(_int_pair, args.mp_range, "--mp-range lo:hi")
    points = _parse(int, args.points, "--points")
    if m_hi < m_lo or mp_hi < mp_lo or points < 1:
        raise UsageError("empty grid: each range needs lo <= hi, and --points >= 1")
    rows = []
    if args.weight_id == "fock.V":
        ctx = QContext(q=parse_complex(args.q) if args.q else 0.4)
        x = parse_complex(args.x) if args.x else 0.7
        tab = fock.weight_table(x, range(m_lo, m_hi + 1), range(mp_lo, mp_hi + 1), ctx)
        for i, m in enumerate(range(m_lo, m_hi + 1)):
            for j, mp in enumerate(range(mp_lo, mp_hi + 1)):
                rows.append((m, mp, tab[i, j]))
    elif args.weight_id == "vgamma.Vbold":
        ctx = QContext(q=parse_complex(args.q) if args.q else 0.4)
        gamma, nu = _parse_gamma(args.gamma) if args.gamma else (None, 0.0)
        if nu is not None:
            gc = vgamma.GammaContext.make_selected(nu, ctx)
        else:
            gc = vgamma.GammaContext(gamma=gamma)
        x = parse_complex(args.x) if args.x else ctx.q
        for m in range(m_lo, m_hi + 1):
            for mp in range(mp_lo, mp_hi + 1):
                rows.append((m, mp, vgamma.km_V(x, m, mp, gc, ctx)))
    elif args.weight_id == "modular.V":
        theta = DEFAULT_THETA if args.theta is None else _parse(float, args.theta, "--theta")
        mc = modular.ModularContext(theta=theta)
        mu = parse_complex(args.mu) if args.mu else 0.15j + mc.eta / 3
        xs = np.linspace(m_lo, m_hi, points)
        ys = np.linspace(mp_lo, mp_hi, points)
        for x in xs:
            for y in ys:
                rows.append((float(x), float(y),
                             modular.weight_V_modular(mu, x, y, mc)))
    else:
        raise UsageError(f"unknown weight_id {args.weight_id!r} "
                         "(choose fock.V, vgamma.Vbold, modular.V)")
    if args.format == "json":
        stream.write(json.dumps(
            [{"m": m, "mp": mp, "re": v.real, "im": v.imag} for m, mp, v in rows],
            sort_keys=True, indent=2))
        stream.write("\n")
    else:
        writer = csv.writer(stream)
        writer.writerow(["m", "mp", "re", "im"])
        for m, mp, v in rows:
            writer.writerow([m, mp, repr(float(v.real)), repr(float(v.imag))])
    return 0


def cmd_spectrum(args, stream) -> int:
    q = _parse(float, args.q, "real --q") if args.q else 0.4
    n_list = _parse(lambda t: [int(v) for v in t.split(",")], args.n_list, "--N-list")
    try:
        reg = fock.Regularisation(args.reg)
    except ValueError:
        raise UsageError(f"unknown regularisation {args.reg!r}") from None
    n_list = sorted(n_list)
    eigs = {n: fock.spectral_experiment(q, n, reg) for n in n_list}
    writer = csv.writer(stream)
    if reg is not fock.Regularisation.III:
        limits = fock.branch_limits(q, reg)
        writer.writerow(["N", "branch", "eigenvalue", "limit", "abs_error"])
        for n in n_list:
            errs = np.abs(eigs[n][:fock.SPECTRAL_BRANCHES] - limits)
            for k, err in enumerate(errs):
                writer.writerow([n, k, repr(complex(eigs[n][k])),
                                 repr(complex(limits[k])), repr(float(err))])
    else:
        writer.writerow(["N", "parity", "branch", "abs_eigenvalue"])
        for n in n_list:
            for k in range(fock.SPECTRAL_BRANCHES):
                writer.writerow([n, "odd" if n % 2 else "even", k,
                                 repr(float(abs(eigs[n][k])))])
        odd, even = ([n for n in n_list if n % 2 == p] for p in (1, 0))
        if odd and even:  # the lowest branches of the largest odd and even N
            lo_odd, lo_even = (np.abs(eigs[ns[-1]][:fock.SPECTRAL_BRANCHES]) for ns in (odd, even))
            writer.writerow(["gap", "", "", repr(float(np.max(np.abs(lo_odd - lo_even))))])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkm",
        description="q-series and Kashiwara-Miwa-type weight library: "
                    "identity verification, weight tables, spectral runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run the identity suite")
    ver.add_argument("--filter", default=None, help="glob over identity ids")
    ver.add_argument("--q", default=None, help="deformation parameter (complex)")
    ver.add_argument("--gamma", default=None,
                     help="gamma: complex, 'generic:C', or 'selected:NU'")
    ver.add_argument("--theta", default=None, help="modular angle, b = exp(i theta)")
    ver.add_argument("--tol", default=None, help="tolerance override")
    ver.add_argument("--seed", default=None, help="seed for random points (integer)")
    ver.add_argument("--format", default=None,
                     help="report format: human (default), json or csv")
    ver.add_argument("--m-window", dest="m_window", default=None, help="spin table window")
    ver.add_argument("--a-max", dest="a_max", default=None, help="occupation table cutoff")
    ver.add_argument("--config", default=None, help="INI config file")

    tab = sub.add_parser("table", help="emit weight values over a grid")
    tab.add_argument("weight_id", help="fock.V | vgamma.Vbold | modular.V")
    tab.add_argument("--x", default=None, help="weight argument (complex)")
    tab.add_argument("--mu", default=None, help="modular weight label (complex)")
    tab.add_argument("--q", default=None)
    tab.add_argument("--gamma", default=None)
    tab.add_argument("--theta", default=None, help="modular angle (modular.V)")
    tab.add_argument("--m-range", dest="m_range", default="0:5", help="lo:hi")
    tab.add_argument("--mp-range", dest="mp_range", default="0:5", help="lo:hi")
    tab.add_argument("--points", default="6", help="grid points per axis (modular.V)")
    tab.add_argument("--format", default="csv", help="output format: csv (default) or json")

    spec = sub.add_parser("spectrum", help="truncated-operator spectral run")
    spec.add_argument("--N-list", dest="n_list", default="8,16,24,32")
    spec.add_argument("--reg", default="I", help="boundary rule: I, II, or III")
    spec.add_argument("--q", default=None, help="real q in (0, 1)")
    return parser


def main(argv=None, stream=None) -> int:
    stream = stream or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return cmd_verify(args, stream)
        if args.command == "table":
            return cmd_table(args, stream)
        return cmd_spectrum(args, stream)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QkmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
