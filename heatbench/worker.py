"""Run one batch of heat-series CLI invocations in a fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds the `src` directory the package must come from, whether to
trace, and the argv of each invocation.  The worker imports
`heatseries.cli`, notes the monotonic time at which the import finished (the
parent subtracts its spawn time to get set-up time), calls `cli.main(argv)`
for each invocation in turn and writes per-invocation outcomes, batch wall
time, peak RSS, host-speed probe samples and, when tracing, the recorded
spans to RESULT.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

#: The speed probe runs this many loop iterations (about 0.2 ms) ...
PROBE_LOOPS = 3000
#: ... every this many seconds of wall time, about 0.4% of the run.
PROBE_INTERVAL_S = 0.05


class SpeedProbe:
    """Times a fixed pure-Python loop 20 times a second, from SIGALRM.

    The host's speed drifts by tens of percent over seconds to minutes as
    other tenants load the shared cores, in the same way on both of them.
    The parent divides each invocation's time by the probe's slowdown over
    the same interval, which cancels that drift.  The handler runs in the
    main thread between bytecodes, so the worker starts no thread.
    """

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # so that even a short worker has one sample
        return False


def _run(spec):
    import heatseries
    import heatseries.cli as cli

    imported = time.monotonic()
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(heatseries.__file__).startswith(src + os.sep):
        raise RuntimeError(f"heatseries imported from {heatseries.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes = []
    batch_start = time.perf_counter()
    for index, inv in enumerate(spec["invocations"]):
        stderr = io.StringIO()
        rc, error = None, None
        span = tracer.root(index, inv["cmd"]) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr), span:
                rc = cli.main(inv["argv"])
        except SystemExit as exc:  # argparse refusals
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI lets some exceptions escape; record and go on
            error = traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - t0
        outcomes.append(
            {"id": inv["id"], "cmd": inv["cmd"], "rc": rc, "error": error,
             "stderr": stderr.getvalue()[-2000:], "start": t0, "seconds": seconds}
        )
    return {
        "imported": imported,
        "wall": time.perf_counter() - batch_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "invocations": outcomes,
        "spans": tracer.spans if tracer else None,
    }


def main(argv):
    spec_path, result_path = argv[1], argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    try:
        with SpeedProbe() as probe:
            result = _run(spec)
        result["probe"] = probe.samples
    except Exception as exc:  # reported to the parent, which fails the run
        result = {"fatal": f"{type(exc).__name__}: {exc}"}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 1 if "fatal" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
