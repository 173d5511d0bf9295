"""One process of an in-process workload; started by run.py, not by hand.

    python3 bench/worker.py WORKLOAD --seed N --size full|tiny --start I
                            [--seconds S] [--passes P] [--trace]

Sets up (imports qkm, builds the contexts and the inputs of pass I), prints
``ready <perf_counter>`` and runs pass I cold.  It then runs the passes after
it for S seconds, and at least until P passes in all are done, and
prints one JSON line with the pass times, the times of the reference loop
run before each pass and after the last (clock.py), item counts, operation
counts, its peak RSS and, with --trace, the per-layer totals.  The monotonic
clock is shared by all processes, so the parent can time set-up from its own
start time.
"""

import argparse
import json
import resource
import sys
import time

from clock import reference_s
from gate import Gate
from spec import SIZES
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size][args.workload])
    inputs = workload.inputs(args.start)
    print(f"ready {time.perf_counter()!r}", flush=True)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    gate = Gate()
    times, refs, items = [], [], []

    def one_pass(inputs):
        refs.append(reference_s())
        t0 = time.perf_counter()
        n, tables = workload.run(inputs, gate)
        times.append(time.perf_counter() - t0)
        items.append(n)
        if tables is not None:  # the sampled checks stay outside the pass time
            workload.check(inputs, tables, gate)

    one_pass(inputs)
    started = time.perf_counter()
    done = 1
    while done < args.passes or time.perf_counter() - started < args.seconds:
        one_pass(workload.inputs(args.start + done))
        done += 1
    refs.append(reference_s())

    print(json.dumps({
        "pass_s": times,
        "ref_s": refs,
        "items": items,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "reasons": dict(gate.reasons),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.totals() if tracer is not None else None,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
