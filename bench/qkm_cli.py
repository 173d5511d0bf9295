"""The `qkm` console script, with markers for the benchmark; run.py starts it.

    python3 bench/qkm_cli.py [--bench-trace] verify --format json

Runs ``qkm.cli.main`` on the remaining arguments exactly as the installed
`qkm` script does.  Once the interpreter, numpy and the qkm modules are
loaded it writes ``bench-ready <perf_counter>`` to stderr; on exit it writes
``bench-rss <peak RSS in KiB>``.  With ``--bench-trace`` it installs the
per-layer wrappers before the command and writes ``bench-trace <json
totals>`` after it.
"""

import json
import resource
import sys
import time

import qkm.cli


def run(argv) -> int:
    tracer = None
    if argv[:1] == ["--bench-trace"]:
        from tracer import Tracer
        argv = argv[1:]
        tracer = Tracer()
        tracer.install()
    try:
        return qkm.cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            sys.stderr.write(f"bench-trace {json.dumps(tracer.totals())}\n")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sys.stderr.write(f"bench-rss {peak}\n")


if __name__ == "__main__":
    sys.stderr.write(f"bench-ready {time.perf_counter()!r}\n")
    sys.stderr.flush()
    sys.exit(run(sys.argv[1:]))
