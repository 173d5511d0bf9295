"""The qkm benchmark: one workload at one seed, one JSON result line.

    python3 bench/run.py --workload verify_cli|weight_tables|point_sweep
                         --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from anywhere inside a qkm checkout; the library is imported from the
checkout's ``src`` directory, and nothing is installed or built.  Every
workload is a closed loop with one client in one process at a time:

* ``verify_cli`` -- each pass is a fresh ``qkm verify --format json`` process
  running the whole default catalogue at its built-in seed (``--seed`` does
  not reach it; see run_verify), whose 97 reports are gated.
* ``weight_tables`` -- one long-lived process building the bulk weight tables
  (``fock.weight_table`` on 6, 41 and 161 spins, ``weight_Veps_table`` on 121,
  a 41x41 ``km_V`` grid, a 12x12 ``weight_V_modular`` grid) per pass.
* ``point_sweep`` -- one process; each pass is five fresh parameter points,
  each with new contexts, through the brace routes, ``brace_gamma_check``,
  weights against their overlap sums, ``km_V`` and ``psi_eigen_check``.

With ``--trace 0`` the result holds the end-to-end metrics, measured with no
tracing.  ``pass_s`` and ``first_pass_s`` are means over passes.  The pass
metrics of ``weight_tables`` and ``point_sweep`` are in reference seconds,
which take out how much other work on the host slowed each pass (clock.py);
so is their ``setup_s``.  The summary line gives the mean slow-down and the
wall-time median.  All times of ``verify_cli`` are wall seconds: a verify
pass is a 3-5 s process, too long for the reference loops around it to
follow the load it met (normalised, its pass times spread more than raw
ones).

With ``--trace 1`` the result holds the per-layer metrics of a fixed number
of traced passes (per pass), and ``trace_overhead_frac`` from a preceding
untraced phase.  Before the result line come a run header, one line per
metric and a summary with the operation counts and ``failed_frac``.
``--size tiny`` shrinks every workload for the smoke test
(``python3 -m pytest bench``); ``--flip-verdict ID`` makes the verify gate
expect the wrong verdict for one report id, to show the gate can fail.
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib.metadata
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from clock import REF_S, scaled
from gate import Gate
from spec import (E2E_UNITS, EXPECTED_FAIL_IDS, REPORT_COUNTS, SETUP_PROBES,
                  SIZES, TRACED_PASSES, WORKLOADS, layer_units)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120.0
# no new pass starts after this, so a run ends well inside three minutes
DEADLINE_S = 140.0
MIN_TIMED_PASSES = 3


class Child:
    """A finished child process: output, exit code and parent-side times."""

    def __init__(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *map(str, argv)], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            self.out, self.err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            self.out, self.err = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        self.ended = time.perf_counter()
        self.code = proc.returncode

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


class Samples:
    """Everything one run measures, over all of its child processes."""

    def __init__(self):
        self.setup = []     # process start -> ready to run the first pass, as reported
        self.first = []     # cold first pass of a fresh process, as reported
        self.passes = []    # timed passes, wall s
        self.reported = []  # the same as reported: wall or reference s
        self.items = []     # items done by each timed pass
        self.rss_kb = []    # peak RSS of each process that did timed passes
        self.traced = []    # traced pass times, as reported
        self.layers = Counter()
        self.gate = Gate()

    def child_failed(self, child: Child, what: str):
        self.gate.attempted += 1
        self.gate.failed += 1
        tail = child.err.strip().splitlines()[-1:] or [f"exit {child.code}"]
        self.gate.reasons[f"{what}: {tail[0][:120]}"] += 1


# ---------------------------------------------------------------- verify_cli

def expected_verdicts(pattern: str, flip: str | None) -> dict:
    """(report id, verdict) -> count for the catalogue reports a filter selects."""
    out = {}
    for rid, count in REPORT_COUNTS.items():
        if fnmatch.fnmatch(rid, pattern):
            negative = (rid in EXPECTED_FAIL_IDS) != (rid == flip)
            out[(rid, "EXPECTED_FAIL" if negative else "PASS")] = count
    return out


def gate_reports(child: Child, expected: dict, gate: Gate) -> int:
    """Gate one `qkm verify` process; returns the number of reports it printed.

    The process is one operation, failed on a non-zero exit.  Each expected
    report is one more, failed unless a report with its id and verdict is
    there; each report beyond the expected number is a failed one too.
    """
    gate.attempted += 1
    if child.code != 0:
        gate.failed += 1
        gate.reasons[f"qkm verify exit {child.code}"] += 1
    total = sum(expected.values())
    try:
        rows = json.loads(child.out)
        got = Counter((r["identity_id"], r["verdict"]) for r in rows)
    except (ValueError, TypeError, KeyError) as exc:
        gate.attempted += total
        gate.failed += total
        gate.reasons[f"unparseable output ({type(exc).__name__})"] += total
        return 0
    matched = 0
    for key, count in expected.items():
        matched += min(count, got[key])
        if got[key] < count:
            seen = sorted({v for rid, v in got if rid == key[0] and v != key[1]})
            gate.reasons[f"{key[0]}: {'/'.join(seen) or 'missing'}, "
                         f"expected {key[1]}"] += count - got[key]
    if len(rows) > total:
        gate.reasons["reports beyond the catalogue"] += len(rows) - total
    gate.attempted += max(total, len(rows))
    gate.failed += max(total, len(rows)) - matched
    return len(rows)


def markers(stderr: str) -> dict:
    found = {}
    for line in stderr.splitlines():
        if line.startswith("bench-"):
            key, _, value = line.partition(" ")
            found[key[len("bench-"):]] = value
    return found


def run_verify(args, size, samples: Samples, deadline: float):
    # The catalogue runs at its built-in seed, as a plain `qkm verify` does.
    # At other seeds the registry draws some points its checks cannot
    # converge on and SKIPs whole entries (1 seed in 15 or so, e.g. seed
    # 145589026: fock.weight_transitivity.4_46 at |xy| near |q|), which the
    # gate would count as failed reports on every pass of the run.
    argv = ["verify", "--format", "json"]
    if size["filter"] != "*":
        argv += ["--filter", size["filter"]]
    expected = expected_verdicts(size["filter"], args.flip_verdict)

    def one(traced: bool):
        child = Child([HERE / "qkm_cli.py"] + (["--bench-trace"] if traced else []) + argv)
        found = markers(child.err)
        if "ready" not in found or "rss" not in found:
            samples.child_failed(child, "qkm verify process")
            return
        ready = float(found["ready"])
        items = gate_reports(child, expected, samples.gate)
        if traced:
            samples.traced.append(child.wall_s)
            if "trace" in found:
                samples.layers.update(json.loads(found["trace"]))
            return
        samples.setup.append(ready - child.started)
        samples.first.append(child.ended - ready)
        samples.passes.append(child.wall_s)
        samples.reported.append(child.wall_s)
        samples.items.append(items)
        samples.rss_kb.append(int(found["rss"]))

    started = time.perf_counter()
    done = 0
    while (time.perf_counter() - started < args.seconds or done < MIN_TIMED_PASSES) \
            and time.perf_counter() < deadline:
        one(traced=False)
        done += 1
    if args.trace:
        for _ in range(TRACED_PASSES["verify_cli"]):
            one(traced=True)


# ------------------------------------------------------ in-process workloads

def run_worker(args, samples: Samples, *, start=0, seconds=0.0, passes=1,
               traced=False):
    child = Child([HERE / "worker.py", args.workload, "--seed", args.seed,
                   "--size", args.size, "--start", start, "--seconds", seconds,
                   "--passes", passes]
                  + (["--trace"] if traced else []))
    lines = child.out.strip().splitlines()
    try:
        tag, ready = lines[0].split()
        result = json.loads(lines[-1])
        if tag != "ready" or child.code != 0:
            raise ValueError(tag)
    except (ValueError, IndexError):
        samples.child_failed(child, f"{args.workload} worker")
        return
    gate = samples.gate
    gate.attempted += result["attempted"]
    gate.failed += result["failed"]
    gate.reasons.update(result["reasons"])
    times, refs = result["pass_s"], result["ref_s"]
    reported = [scaled(t, refs[i], refs[i + 1]) for i, t in enumerate(times)]
    if traced:
        samples.traced.extend(reported[1:])
        samples.layers.update(result["trace"])
        return
    # refs[0] runs in the same process right after set-up
    samples.setup.append(scaled(float(ready) - child.started, refs[0], refs[0]))
    samples.first.append(reported[0])
    if passes > 1:
        samples.passes.extend(times[1:])
        samples.reported.extend(reported[1:])
        samples.items.extend(result["items"][1:])
        samples.rss_kb.append(result["peak_rss_kb"])


def run_in_process(args, samples: Samples, deadline: float):
    if args.trace:
        run_worker(args, samples, seconds=args.seconds, passes=MIN_TIMED_PASSES + 1)
        run_worker(args, samples, passes=TRACED_PASSES[args.workload], traced=True)
        return
    # each probe runs a different pass cold, so the first-pass median does
    # not rest on one draw of the inputs
    for start in range(1, SETUP_PROBES):
        if time.perf_counter() < deadline:
            run_worker(args, samples, start=start)
    run_worker(args, samples, seconds=args.seconds, passes=MIN_TIMED_PASSES + 1)


# ------------------------------------------------------------------ metrics

def tail(values: list[float]) -> tuple[float, dict]:
    """The sample with ten above it: the highest percentile ten samples exceed.

    With 11 to 20 samples that would fall below the median, so the sample
    just above the middle is taken instead; with fewer than 11 (verify_cli
    makes 6-10 passes a run) none has ten above it, and the slowest is
    taken.  The info says which.
    """
    n = len(values)
    rank = n if n < 11 else max(n - 10, n // 2 + 1)
    return sorted(values)[rank - 1], {"percentile": round(100 * rank / n, 2),
                                      "samples": n, "beyond": n - rank}


def end_to_end(samples: Samples) -> tuple[dict, dict]:
    # The mean, not the median: under on-and-off load the pass times split
    # into a fast and a slow group, and the median jumps between them.
    value, info = tail(samples.reported)
    return {
        "setup_s": statistics.median(samples.setup),
        "pass_s": statistics.fmean(samples.reported),
        "pass_tail_s": value,
        "items_per_s": sum(samples.items) / sum(samples.reported),
        "first_pass_s": statistics.fmean(samples.first),
        "peak_rss_mb": max(samples.rss_kb) / 1024.0,
    }, {"pass_tail_s": info, "setup_samples": len(samples.setup),
        "first_pass_samples": len(samples.first),
        "host_slowdown": sum(samples.passes) / sum(samples.reported),
        "wall_pass_s_median": statistics.median(samples.passes)}


def per_layer(samples: Samples, workload: str) -> tuple[dict, dict]:
    passes = TRACED_PASSES[workload]
    raw = samples.layers
    out = {}
    for name in layer_units():
        out[name] = raw.get(name, 0) / passes
    evals = raw.get("modular.adaptive_midpoint.evals", 0)
    out["modular.adaptive_midpoint.useful_frac"] = (
        raw.get("modular.adaptive_midpoint.useful", 0) / evals if evals else 0.0)
    untraced = statistics.median(samples.reported)
    out["trace_overhead_frac"] = (statistics.median(samples.traced) - untraced) / untraced
    return out, {"traced_passes": passes, "traced_samples": len(samples.traced),
                 "untraced_samples": len(samples.passes)}


# ------------------------------------------------------------------- output

def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def header(args) -> dict:
    init = (SRC / "qkm" / "__init__.py").read_text()
    qkm_version = re.search(r'__version__ = "([^"]+)"', init)
    return {
        "git_sha": git_sha(),
        "qkm": qkm_version.group(1) if qkm_version else "unknown",
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": int(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "size": dict(SIZES[args.size][args.workload], name=args.size),
        "setup_probes": SETUP_PROBES if args.workload != "verify_cli" else "one per pass",
        "traced_passes": TRACED_PASSES[args.workload],
        "reference_loop_s": REF_S if args.workload != "verify_cli" else "not used",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--flip-verdict", default=None, metavar="REPORT_ID")
    args = parser.parse_args()
    args.seed = str(args.seed)
    if not (SRC / "qkm" / "__init__.py").is_file():
        print(f"error: no qkm sources at {SRC}; run from a qkm checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    print(json.dumps({"header": header(args)}), flush=True)
    samples = Samples()
    if args.workload == "verify_cli":
        run_verify(args, SIZES[args.size]["verify_cli"], samples, deadline)
    else:
        run_in_process(args, samples, deadline)
    if not samples.passes or (args.trace and not samples.traced):
        print(f"error: no pass completed: {dict(samples.gate.reasons)}", file=sys.stderr)
        return 1

    if args.trace:
        values, info = per_layer(samples, args.workload)
        units = layer_units()
    else:
        values, info = end_to_end(samples)
        units = E2E_UNITS
    gate = samples.gate
    for name, unit in units.items():
        print(f"{name:<64} {values[name]:>16.6g} {unit}")
    print(json.dumps({"summary": dict(
        info, attempted=gate.attempted, failed=gate.failed,
        failed_frac=gate.failed / max(gate.attempted, 1),
        failures=dict(gate.reasons))}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
