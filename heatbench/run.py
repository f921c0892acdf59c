"""The heatseries benchmark: seeded CLI workloads, checked against references.

Usage (from the repository root):

    python3 heatbench/run.py --workload {volume,heatmap,audits} --seed N \\
        --seconds S --trace {0,1} [--size {full,smoke}]

Each batch of a workload runs in a fresh worker interpreter (see worker.py),
one invocation after another: a closed loop with one client.  Batches repeat
until the next one would overrun `--seconds`.  Every reported value is
checked against an independent reference (reference.py) computed before any
timing starts and cached per seed under `.bench_work/`.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` untraced and traced batches alternate and it carries the
per-layer metrics (tracer.py) plus the tracing overhead.  Earlier lines
record the machine and details such as sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import plan as plans
import reference
import tracer

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphs.ring_s": "s",
    "graphs.ball_s": "s",
    "graphs.ring_calls": "count",
    "graphs.vertices_expanded": "count",
    "laplacian.extend_s": "s",
    "laplacian.steps": "count",
    "laplacian.vertex_updates": "count",
    "laplacian.edge_terms": "count",
    "laplacian.updates_per_s": "1/s",
    "laplacian.exact_frac": "ratio",
    "laplacian.useful_frac": "ratio",
    "series.eval_s": "s",
    "series.evals": "count",
    "series.terms": "count",
    "series.terms_per_s": "1/s",
    "series.refusals": "count",
    "series.cert_violations": "count",
    "series.audit_s": "s",
    "series.audit_points": "count",
    "cli.serialize_s": "s",
    "cli.report_bytes": "bytes",
    "cli.self_s": "s",
    "counterexample.growth_s": "s",
    "counterexample.flatness_s": "s",
    "counterexample.residual_s": "s",
    "counterexample.huang_s": "s",
    "oracle.self_s": "s",
    "oracle.dense_n": "count",
    "bounds.self_s": "s",
    "cmd.solve_s": "s",
    "cmd.backward_s": "s",
    "cmd.counterexample_s": "s",
    "cmd.verify_s": "s",
    "failed_frac": "ratio",
    "cert_err_ratio_max": "ratio",
    "trace.overhead_frac": "ratio",
    "host.slowdown": "ratio",
}

#: Layers each workload's premise says must do work; no spans there means
#: the tracer lost track of the layer, and the traced run fails.
EXPECTED_LAYERS = {
    "volume": ("graphs", "laplacian", "series", "cli"),
    "heatmap": ("graphs", "laplacian", "series", "cli"),
    "audits": ("graphs", "laplacian", "series", "bounds", "counterexample", "oracle", "cli"),
}

SETUP_PROBES = 5
#: The worker's speed probe loop takes about this long on the reference host
#: (Intel Xeon at 2.1 GHz, Python 3.11).  Timings are reported in seconds at
#: that speed: measured time divided by the slowdown the probe saw meanwhile.
#: A batch's time is the sum of its invocations' times so rescaled.
REF_PROBE_S = 2.5e-4
#: An invocation's slowdown averages the probes within this margin of it.
PROBE_PAD_S = 0.25
RUN_LIMIT_S = 170  # every run must end within 180 s
JSON_MAX = 1.7976931348623157e308  # stands in for an infinite error ratio
REF_FORMAT = 2  # bump when reference.compute changes what it caches


class BenchError(RuntimeError):
    """The run cannot produce a result; reported on stderr, exit status 2."""


def _worker_env(root):
    env = {k: v for k, v in os.environ.items() if k != "HEAT_SERIES_THREADS"}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        # one compute thread: the sandbox has two cores and the CLI is serial
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    """Spawns workers in a scratch directory and collects their results."""

    def __init__(self, root, workdir, deadline):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = _worker_env(root)
        self.spawned = 0

    def spawn(self, invocations, trace):
        self.spawned += 1
        spec_path = self.workdir / f"spec-{self.spawned}.json"
        result_path = self.workdir / f"result-{self.spawned}.json"
        spec = {"src": str(self.root / "src"), "trace": trace,
                "invocations": [{k: inv[k] for k in ("id", "cmd", "argv")} for inv in invocations]}
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a worker could start")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(spec_path), str(result_path)],
                cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {RUN_LIMIT_S} s run limit") from None
        if not result_path.exists():
            raise BenchError(f"worker died (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
        result = json.loads(result_path.read_text())
        if "fatal" in result:
            raise BenchError(f"worker failed: {result['fatal']}")
        result["setup_s"] = result["imported"] - spawned
        result["slowdown"] = statistics.fmean(d for _, d in result["probe"]) / REF_PROBE_S
        for o in result["invocations"]:
            lo, hi = o["start"] - PROBE_PAD_S, o["start"] + o["seconds"] + PROBE_PAD_S
            near = [d for t, d in result["probe"] if lo <= t <= hi]
            o["slowdown"] = statistics.fmean(near) / REF_PROBE_S if near else result["slowdown"]
            o["ref_s"] = o["seconds"] / o["slowdown"]
        result["ref_wall"] = sum(o["ref_s"] for o in result["invocations"])
        return result


def _batch_invocations(invocations, batch_no):
    """Give every report a per-batch output file."""
    out = []
    for inv in invocations:
        inv = dict(inv)
        inv["out"] = f"out-{batch_no}-{inv['id']}.json"
        inv["argv"] = inv["argv"] + ["--out", inv["out"]]
        out.append(inv)
    return out


def _check_batch(workdir, invocations, result, refs, tally):
    """Check every report of one batch; returns {index: (rmax, K)} for solves."""
    solve_windows = {}
    for index, (inv, outcome) in enumerate(zip(invocations, result["invocations"])):
        path = workdir / inv["out"]
        report = None
        if path.exists():
            try:
                report = json.loads(path.read_text())
            except json.JSONDecodeError:
                report = None
            path.unlink()
        res = reference.check(inv, outcome, report, refs.get(inv["id"], {}))
        tally.add(res)
        if inv["cmd"] == "solve" and not res.problems and outcome["rc"] == 0:
            rows = report["results"]["evaluations"]
            solve_windows[index] = (inv["check"]["rmax"], max((r["K_used"] for r in rows), default=0))
    return solve_windows


def _references(root, workload, seed, size, invocations):
    """Load this seed's references from the cache, or compute and store them."""
    digest = hashlib.sha256(json.dumps([REF_FORMAT, invocations], sort_keys=True).encode())
    cache = root / ".bench_work" / "cache" / f"{workload}-{size}-{seed}-{digest.hexdigest()[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    sys.path.insert(0, str(root / "src"))  # graph documents use the dense oracle
    try:
        refs = reference.compute(invocations)
    finally:
        sys.path.remove(str(root / "src"))
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(refs))
    tmp.replace(cache)
    return refs


def machine_record(root):
    """Commit, core count, CPU model, cache sizes and library versions."""
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    commit = None
    head = read(root / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        commit = read(root / ".git" / head[5:])
    elif head:
        commit = head
    src = hashlib.sha256()
    for path in sorted((root / "src" / "heatseries").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(index / n) for n in ("level", "type", "size"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
    }


def _at_reference_speed(metrics, slowdown):
    """Rescale a batch's per-layer times and rates to the reference speed."""
    out = {}
    for name, value in metrics.items():
        if name.endswith("_per_s"):
            out[name] = value * slowdown
        elif name.endswith("_s"):
            out[name] = value / slowdown
        else:
            out[name] = value
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _op_medians(batches, key):
    """Each invocation's median time over the batches, by invocation id.

    `op_p50_s` is the median of these.  Pooling all samples instead would
    let the median average a fast and a slow invocation across the gap
    between them whenever the sample count is even.
    """
    times = {}
    for r in batches:
        for o in r["invocations"]:
            times.setdefault(o["id"], []).append(o[key])
    return {ident: _median(ts) for ident, ts in times.items()}


def execute(workload, seed, seconds, trace, size="full", root=None, tamper=None):
    """One benchmark run; returns (result line dict, details dict).

    `tamper`, if given, is applied to the references before any check, so a
    test can plant a wrong reference and see it counted as a failure.
    """
    root = Path(root or os.getcwd()).resolve()
    if not (root / "src" / "heatseries" / "cli.py").is_file():
        raise BenchError(f"no heatseries sources under {root / 'src'}; run from the repository root")
    started = time.monotonic()
    invocations = plans.build(workload, seed, size)
    refs = _references(root, workload, seed, size, invocations)
    if tamper is not None:
        tamper(refs)

    workdir = root / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for inv in invocations:
            for name, content in inv["files"].items():
                (workdir / name).write_text(content)
        runner = Runner(root, workdir, started + RUN_LIMIT_S)
        runner.spawn([], False)  # warm the bytecode and file caches; not timed
        probes = [runner.spawn([], False) for _ in range(SETUP_PROBES)]

        tally = reference.CheckResult()
        plain, traced = [], []
        layer_spans = {}
        measure_start = time.monotonic()
        batch_costs = []
        while True:
            tracing = bool(trace) and len(traced) < len(plain)
            batch = _batch_invocations(invocations, runner.spawned)
            t0 = time.monotonic()
            result = runner.spawn(batch, tracing)
            probes.append(result)
            windows = _check_batch(workdir, batch, result, refs, tally)
            if tracing:
                metrics, spans_per_layer = tracer.summarize(result["spans"], windows)
                result["layer_metrics"] = _at_reference_speed(metrics, result["slowdown"])
                for layer, n in spans_per_layer.items():
                    layer_spans[layer] = layer_spans.get(layer, 0) + n
                traced.append(result)
            else:
                plain.append(result)
            batch_costs.append(time.monotonic() - t0)
            elapsed = time.monotonic() - measure_start
            if trace and not traced:
                continue
            if elapsed + _median(batch_costs) > min(seconds, runner.deadline - measure_start):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_medians = _op_medians(plain, "ref_s")
    details = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "batches": {"untraced": len(plain), "traced": len(traced)},
        "invocations_per_batch": len(invocations),
        "op_samples": sum(len(r["invocations"]) for r in plain),
        "setup_samples": len(probes),
        "slowdown": [r["slowdown"] for r in plain + traced],
        "measured": {
            "batch_wall_s": [r["wall"] for r in plain],
            "op_p50_s": _median(list(_op_medians(plain, "seconds").values())),
            "setup_s": _median([r["setup_s"] for r in probes]),
        },
        "op_median_s": op_medians,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "cert_violations": tally.cert_violations,
        "uncertified": tally.uncertified,
        "cert_err_ratio_max": min(tally.ratio_max, JSON_MAX),
        "err_over_bound_plus_envelope_max": tally.envelope_ratio_max,
        "problems": tally.problems[:10],
        "failure_examples": tally.notes,
        "cert_violation_examples": tally.cert_notes,
    }
    if not trace:
        values = {
            "wall_s": _median([r["ref_wall"] for r in plain]),
            "op_p50_s": _median(list(op_medians.values())),
            "setup_s": _median([r["setup_s"] / r["slowdown"] for r in probes]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        units = END_TO_END
    else:
        unmeasured = [l for l in EXPECTED_LAYERS[workload] if not layer_spans.get(l)]
        if unmeasured:
            raise BenchError(f"unmeasured layers on {workload}: {', '.join(unmeasured)} recorded no spans")
        values = {
            name: _median([r["layer_metrics"][name] for r in traced])
            for name in traced[0]["layer_metrics"]
        }
        for cmd in ("solve", "backward", "counterexample", "verify"):
            values[f"cmd.{cmd}_s"] = _median(
                [sum(o["ref_s"] for o in r["invocations"] if o["cmd"] == cmd) for r in plain]
            )
        values["series.cert_violations"] = tally.cert_violations / len(plain + traced)
        values["failed_frac"] = tally.uncertified / tally.attempted
        values["cert_err_ratio_max"] = min(tally.ratio_max, JSON_MAX)
        values["trace.overhead_frac"] = (
            _median([r["ref_wall"] for r in traced]) / _median([r["ref_wall"] for r in plain]) - 1.0
        )
        values["host.slowdown"] = _median([r["slowdown"] for r in plain + traced])
        details["layer_spans"] = layer_spans
        units = PER_LAYER
    line = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return line, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=plans.SIZES, default="full")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps the worker
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    try:
        line, details = execute(args.workload, args.seed, args.seconds, args.trace, args.size, root)
    except BenchError as exc:
        print(f"heatbench: error: {exc}", file=sys.stderr)
        return 2
    print("heatbench machine " + json.dumps(machine_record(root.resolve())))
    print("heatbench details " + json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
