"""Command-line front door.

Subcommands: laplacian, solve, backward, radius, counterexample, verify.
Reports are deterministic JSON (canonical 17-significant-digit floats) with
an optional lossy CSV projection for plotting; every report embeds the
resolved configuration and arithmetic mode.  Exit status: 0 when all
invoked audits pass, 1 on audit failure, 2 on usage errors, 3 on an
internal error (a one-line message, no traceback).

The CLI keeps parsing, refusals by option name, each report's `config` (its
key order is part of the bytes), dispatch and serialization; the owning
modules build the counterexample and radius reports.  solve, backward and
verify stay here while heatbench's tracer wraps their calls in this module.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from . import bounds
from . import counterexample as cx
from .errors import HeatSeriesError
from .graphs import (
    LocalFunction,
    _brief,
    complete_graph,
    cycle_graph,
    family_from_spec,
    float_or_inf,
    integer_segment,
    load_graph,
    number_problem,
    path_graph,
    random_weighted_graph,
    vertex_key,
)
from .laplacian import IteratedLaplacianTable, apply_laplacian
from .oracle import brute_iterate, dense_laplacian, expm_apply
from .series import (
    SeriesSolution,
    check_backward_solvability,
    require_degree_cap,
    series_eval,
)

AUDIT_FAILURE = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


# -- canonical serialization -------------------------------------------------

_NON_FINITE = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}


def _fmt_float(x):
    text = format(x, ".17g")
    return _NON_FINITE.get(text, text)


class _FloatTexts(dict):
    """Each nonzero float's text; 0.0 and -0.0 are equal keys that print apart."""

    def __missing__(self, x):
        text = _fmt_float(x)
        if x:
            self[x] = text
        return text


def _canonical(obj, keys, floats):
    """Return the canonical JSON of `obj`; `keys` and `floats` cache texts.

    Exact report types first; the isinstance chain serves subclasses (bool,
    np.float64), Fraction, tuples and everything else.
    """
    kind = type(obj)
    if kind is float:
        return floats[obj]
    if kind is dict:
        return _canonical_dict(obj, keys, floats)
    if kind is list:
        return _canonical_list(obj, keys, floats)
    if kind is int:
        return str(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is _EvalGrid:
        return _canonical_grid(obj, keys, floats)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return _canonical_list(obj, keys, floats)
    if isinstance(obj, dict):
        return _canonical_dict(obj, keys, floats)
    return json.dumps(str(obj))


def _canonical_list(obj, keys, floats):
    return "[" + ", ".join([_canonical(item, keys, floats) for item in obj]) + "]"


def _canonical_dict(obj, keys, floats):
    parts = []
    for key, val in obj.items():
        # only str keys are cached: 1 and True are equal keys that print apart
        if type(key) is str:
            prefix = keys.get(key)
            if prefix is None:
                prefix = keys[key] = encode_basestring_ascii(key) + ": "
        else:
            prefix = json.dumps(str(key)) + ": "
        if type(val) is float:
            parts.append(prefix + floats[val])
        elif type(val) is int:
            parts.append(prefix + str(val))
        else:
            parts.append(prefix + _canonical(val, keys, floats))
    return "{" + ", ".join(parts) + "}"


def _canonical_grid(grid, keys, floats):
    """The JSON of `grid.rows()`, written from the columns: each time's text
    and each vertex's once, each distinct value through the memo."""
    heads = [f'"t": {_canonical(t, keys, floats)}, "value": ' for t in grid.stamps]
    tails = [f', "tail_bound": {_canonical(b, keys, floats)}, '
             f'"K_used": {_canonical(k, keys, floats)}}}' for b, k in zip(grid.tails, grid.terms)]
    rows = []
    for x, values in zip(grid.vertices, zip(*grid.columns)):
        start = f'{{"vertex": {_canonical(x, keys, floats)}, '
        rows += [f"{start}{head}{floats[v]}{tail}" for head, v, tail in zip(heads, values, tails)]
    return "[" + ", ".join(rows) + "]"


def canonical_json(obj):
    return _canonical(obj, {}, _FloatTexts()) + "\n"


def _csv_cell(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return v


def _jsonable_vertex(x):
    return list(x) if isinstance(x, tuple) else x


# -- argument plumbing -------------------------------------------------------

def _add_output(parser):
    parser.add_argument("--out", metavar="FILE", help="report file (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _add_exact(parser):
    parser.add_argument("--exact", action="store_true",
                        help="exact rational arithmetic: parse numeric inputs as "
                        "rationals (default: float64 throughout)")


def _add_source(parser):
    """The options of the commands that solve on one graph with initial data."""
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--graph", metavar="FILE", help="finite graph JSON document")
    src.add_argument(
        "--family",
        metavar="SPEC",
        help="lazy family: z, lattice:<d> or tree:<k> (default z)",
    )
    _add_exact(parser)
    _add_output(parser)
    parser.add_argument(
        "--initial",
        metavar="FILE",
        help="initial data as JSON [[vertex, value], ...] (default: 1 at the root)",
    )


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="heat-series",
        description="Series solvers and audits for the heat equation on weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("laplacian", help="apply the Laplacian iterates and dump values")
    _add_source(p)
    p.add_argument("--kmax", type=int, default=5)

    p = sub.add_parser("solve", help="evaluate the series over a vertex/time grid")
    _add_source(p)
    p.add_argument("--t", default="-0.1", help="comma-separated evaluation times")
    p.add_argument("--tol", type=float, default=1e-11)
    p.add_argument("--rmax", type=int, default=3, help="vertex window radius")

    p = sub.add_parser("backward", help="backward Cauchy values plus solvability audit")
    _add_source(p)
    p.add_argument("--t", default="0.1", help="comma-separated nonnegative times")
    p.add_argument("--tol", type=float, default=1e-11)
    p.add_argument("--kmax", type=int, default=15)
    p.add_argument("--rmax", type=int, default=3)
    p.add_argument("--degree-bound", type=float, default=None,
                   help="assumed degree cap (default: audited maximum)")

    p = sub.add_parser("radius", help="fit envelopes, certify the radius, tabulate remainders")
    _add_source(p)
    p.add_argument("--rmax", type=int, default=8, help="fit window radius")
    p.add_argument("--kmax", type=int, default=40, help="remainder table length")
    p.add_argument("--amplitude", type=float, default=None,
                   help="growth envelope amplitude (skips fitting)")
    p.add_argument("--rate", type=float, default=None,
                   help="growth envelope exponent rate (with --amplitude; default 0)")
    p.add_argument("--deg-cap", type=float, default=None,
                   help="degree envelope cap (skips fitting)")
    p.add_argument("--deg-power", type=float, default=None,
                   help="degree envelope power (with --deg-cap; default 0)")
    p.add_argument("--delta", type=float, default=None,
                   help="time window half-width for the remainder table")

    p = sub.add_parser("counterexample", help="run the flat-bump sharpness audits")
    _add_output(p)
    p.add_argument("--beta", type=int, default=4)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--T", type=float, default=1.0, dest="time_shift")
    p.add_argument("--xmax", type=int, default=60, help="growth audit window end")
    p.add_argument("--kmax", type=int, default=10, help="flatness derivative orders")
    p.add_argument("--tol", type=float, default=1e-8, help="flatness tolerance")

    p = sub.add_parser("verify", help="oracle cross-check suite on the fixture set")
    _add_exact(p)
    _add_output(p)
    p.add_argument("--tol", type=float, default=1e-11)
    return parser


def _resolve_source(args, config):
    """The graph and initial data of a source command, recorded in `config`."""
    graph, src = _resolve_graph(args)
    initial, init_src = _resolve_initial(args, graph)
    config.update(src)
    config.update(init_src)
    return graph, initial


def _resolve_graph(args):
    if args.graph:
        return load_graph(Path(args.graph), exact=args.exact), {"graph": args.graph}
    family = args.family or "z"
    return family_from_spec(family), {"family": family}


def _parse_vertex(v):
    return tuple(_parse_vertex(c) for c in v) if isinstance(v, list) else v


def _resolve_initial(args, graph):
    if args.initial:
        parse_float = Fraction if args.exact else float
        try:
            doc = json.loads(Path(args.initial).read_text(), parse_float=parse_float)
        except json.JSONDecodeError as exc:
            raise HeatSeriesError(f"initial data file {args.initial}: invalid JSON: {exc}") from exc
        if not isinstance(doc, list):
            raise HeatSeriesError(f"initial data file {args.initial} must be a JSON array "
                                  "[[vertex, value], ...]")
        values = {}
        for rec in doc:
            if not isinstance(rec, list) or len(rec) != 2:
                raise HeatSeriesError(f"malformed initial-data record {rec!r}")
            x = _parse_vertex(rec[0])
            graph.check_vertex(x)
            if x in values:
                raise HeatSeriesError(f"duplicate vertex {x!r} in initial-data record {rec!r}")
            value = rec[1]
            problem = number_problem(value)
            if problem:
                raise HeatSeriesError(
                    f"{problem} value {_brief(value)} at vertex {x!r} of the initial data")
            values[x] = value if args.exact else float(value)
        return LocalFunction(values), {"initial": args.initial}
    return _unit_delta(graph, args.exact), {"initial": "delta-at-root"}


def _unit_delta(graph, exact):
    """1 at the root, as the exact integer or as a float64."""
    return LocalFunction.delta(graph.root, 1 if exact else 1.0)


def _parse_times(spec, exact):
    out = []
    for chunk in str(spec).split(","):
        chunk = chunk.strip()
        if chunk:
            try:
                t = Fraction(chunk) if exact else float(chunk)
            except (ValueError, ZeroDivisionError):
                kind = "rational" if exact else "float (rationals need --exact)"
                raise HeatSeriesError(f"--t: {chunk!r} is not a {kind}") from None
            if number_problem(t):
                raise HeatSeriesError(f"non-finite time {chunk!r}")
            out.append(t)
    if not out:
        raise HeatSeriesError("no evaluation times given")
    return out


def _require_nonnegative(args, *names):
    for name in names:
        value = getattr(args, name)
        if value < 0:
            raise HeatSeriesError(f"--{name} must be nonnegative, not {value!r}")


class _EvalGrid(NamedTuple):
    """The evaluations of solve and backward, held as columns.

    Row (i, j) is vertex `vertices[i]` at time stamp `stamps[j]`, with value
    `columns[j][i]` and the tail bound and order of time j's plan, which are
    the same at every vertex; rows run vertex-major.
    """

    vertices: list
    stamps: list
    tails: list
    terms: list
    columns: list

    def rows(self):
        """The row dicts, in report order, one at a time."""
        for x, values in zip(self.vertices, zip(*self.columns)):
            vertex = _jsonable_vertex(x)
            for t, v, b, k in zip(self.stamps, values, self.tails, self.terms):
                yield {"vertex": vertex, "t": t, "value": v, "tail_bound": b, "K_used": k}


def _eval_rows(solution, vertices, times, sign):
    """The grid of `vertices` x `times`, evaluated at sign * time.

    `sign` is +1 for the forward series and -1 for the backward problem,
    which is the same series at negated time; each row reports the time it
    was given.  The values are the columns `prefetch` returns; one
    `series_eval` per time, at the last vertex (the window holds the root at
    least), gives the time's tail bound and order.
    """
    signed = [sign * t for t in times]
    columns = solution.prefetch(vertices, signed)
    results = [series_eval(solution, vertices[-1], s) for s in signed]
    # a binary64 sum is a float already; the data (order 0) and exact sums need not be
    columns = [list(map(float_or_inf, column)) if isinstance(s, Fraction) or not res.terms_used
               else column for s, res, column in zip(signed, results, columns)]
    return _EvalGrid(vertices, [float(t) for t in times], [res.tail_bound for res in results],
                     [res.terms_used for res in results], columns)


def _rows_pass(grid, exact):
    """No binary64 value of nan or inf passes; an exact value printed inf is finite."""
    return exact or all(all(map(math.isfinite, column)) for column in grid.columns)


# -- subcommands -------------------------------------------------------------

def _cmd_laplacian(args, config):
    _require_nonnegative(args, "kmax")
    graph, initial = _resolve_source(args, config)
    config["kmax"] = args.kmax
    table = IteratedLaplacianTable(graph, initial)
    rows = []
    for k in range(args.kmax + 1):
        entry = table.entry(k)
        for x in sorted(entry.support, key=vertex_key):
            rows.append(
                {"k": k, "vertex": _jsonable_vertex(x), "value": float_or_inf(entry(x))}
            )
    return {"values": rows}, True, rows


def _cmd_solve(args, config):
    _require_nonnegative(args, "rmax")
    graph, initial = _resolve_source(args, config)
    times = _parse_times(args.t, args.exact)
    config.update({"t": [float(t) for t in times], "tol": args.tol, "rmax": args.rmax})
    solution = SeriesSolution(graph, initial, tol=args.tol)
    vertices = sorted(graph.ball(graph.root, args.rmax), key=vertex_key)
    grid = _eval_rows(solution, vertices, times, 1)
    return {"evaluations": grid}, _rows_pass(grid, args.exact), grid.rows()


def _cmd_backward(args, config):
    _require_nonnegative(args, "kmax", "rmax")
    graph, initial = _resolve_source(args, config)
    times = _parse_times(args.t, args.exact)
    if any(t < 0 for t in times):
        raise HeatSeriesError("backward times must be nonnegative")
    config.update(
        {
            "t": [float(t) for t in times],
            "tol": args.tol,
            "kmax": args.kmax,
            "rmax": args.rmax,
        }
    )
    solution = SeriesSolution(graph, initial, tol=args.tol)
    # refuse before any kernel call: a non-finite or negative cap first, then a
    # time the series cannot reach (planning needs no iterate), then, in the
    # audit, a cap below the audited Deg; without --degree-bound the audit
    # takes that Deg
    cap = args.degree_bound
    if cap is not None:
        require_degree_cap(cap)
    for t in times:
        solution._plan(-t)
    audit = check_backward_solvability(graph, initial, cap, args.kmax, args.rmax)
    config["degree_bound"] = audit.degree_cap
    vertices = sorted(graph.ball(graph.root, args.rmax), key=vertex_key)
    grid = _eval_rows(solution, vertices, times, -1)
    report = {
        "evaluations": grid,
        "solvability": {
            "verdict": audit.verdict,
            "scale": audit.scale,
            "rate": audit.rate,
            "witnesses": [
                {
                    "k": k,
                    "vertex": _jsonable_vertex(x),
                    "value": v,
                    "bound": b,
                }
                for k, x, v, b in audit.witnesses
            ],
            "note": audit.note,
        },
    }
    return report, audit.certified and _rows_pass(grid, args.exact), grid.rows()


def _cmd_radius(args, config):
    _require_nonnegative(args, "rmax", "kmax")
    # an exponent belongs to its envelope and is never dropped unseen
    if args.rate is not None and args.amplitude is None:
        raise HeatSeriesError("--rate needs --amplitude")
    if args.deg_power is not None and args.deg_cap is None:
        raise HeatSeriesError("--deg-power needs --deg-cap")
    # a given window is checked whatever kind the certificate turns out to be
    if args.delta is not None:
        bounds.check_delta(args.delta)
    graph, initial = _resolve_source(args, config)
    config.update({"rmax": args.rmax, "kmax": args.kmax})
    profile = growth = None
    if args.amplitude is not None:
        rate = 0.0 if args.rate is None else args.rate
        config.update({"amplitude": args.amplitude, "rate": rate})
        profile = bounds.GrowthProfile(args.amplitude, rate)
    if args.deg_cap is not None:
        power = 0.0 if args.deg_power is None else args.deg_power
        config.update({"deg_cap": args.deg_cap, "deg_power": power})
        growth = bounds.DegreeGrowth(args.deg_cap, power)
    report, config["delta"] = bounds.radius_report(
        graph, initial, args.rmax, args.kmax, profile, growth, args.delta)
    return report, True, report["remainder_table"]


def _cmd_counterexample(args, config):
    params = cx.FlatBumpParams(
        beta=args.beta,
        theta=args.theta,
        epsilon=args.epsilon,
        time_shift=args.time_shift,
    )
    config.update(
        {
            "beta": params.beta,
            "theta": params.theta,
            "epsilon": params.epsilon,
            "T": params.time_shift,
            "xmax": args.xmax,
            "kmax": args.kmax,
            "tol": args.tol,
        }
    )
    return cx.audit_report(params, args.xmax, args.kmax, args.tol)


def _verify_fixtures():
    yield "K2", complete_graph(2)
    yield "P10", path_graph(10)
    yield "C30", cycle_graph(30)
    yield "random20", random_weighted_graph(20, seed=7)
    yield "zseg15", integer_segment(15)


def _cmd_verify(args, config):
    config["tol"] = args.tol
    checks = []

    def check(graph_name, name, err, threshold, ok=True):
        checks.append(
            {
                "graph": graph_name,
                "check": name,
                "max_err": err,
                "threshold": threshold,
                "pass": err <= threshold and ok,
            }
        )

    for name, graph in _verify_fixtures():
        initial = _unit_delta(graph, args.exact)
        solution = SeriesSolution(graph, initial, tol=args.tol)
        op = dense_laplacian(graph)
        vec = op.vector_of(initial)

        times = (-0.1, -0.05, -0.01)
        vertices = graph.vertices()
        for t, column in zip(times, solution.prefetch(vertices, times)):
            ref = expm_apply(op, vec, t)
            bound = series_eval(solution, vertices[-1], t).tail_bound
            diffs = [abs(float(v) - float(ref[op.index[x]])) for x, v in zip(vertices, column)]
            check(name, f"series-vs-expm@t={format(t, '.17g')}", max(0.0, *diffs), 1e-10,
                  not any(diff > bound + 1e-12 for diff in diffs))

        err = 0.0
        ref = vec
        for k in range(0, 9):
            if k:
                ref = brute_iterate(op, ref, 1)
            # iterate magnitudes grow like (2D)^k; compare on that scale
            scale = max(1.0, max(abs(float(v)) for v in ref))
            mine = solution.table.entry(k)
            err = max(
                err,
                max(
                    abs(float(mine(x)) - float(ref[op.index[x]])) / scale
                    for x in graph.vertices()
                ),
            )
        check(name, "iterates-vs-dense@k<=8", err, 1e-10)

        lap = apply_laplacian(graph, initial)
        total = sum(graph.measure(x) * lap(x) for x in lap.support)
        check(name, "conservation", abs(float(total)), 1e-12)
    return {"checks": checks}, all(c["pass"] for c in checks), checks


_DISPATCH = {
    "laplacian": _cmd_laplacian,
    "solve": _cmd_solve,
    "backward": _cmd_backward,
    "radius": _cmd_radius,
    "counterexample": _cmd_counterexample,
    "verify": _cmd_verify,
}

_CSV_FIELDS = {
    "laplacian": ("k", "vertex", "value"),
    "solve": ("vertex", "t", "value", "tail_bound", "K_used"),
    "backward": ("vertex", "t", "value", "tail_bound", "K_used"),
    "radius": ("k", "Q"),
    "counterexample": ("x", "t", "residual"),
    "verify": ("graph", "check", "max_err", "threshold", "pass"),
}


def _write_report(args, command, config, body, passed, rows):
    report = {
        "command": command,
        "config": config,
        "arithmetic": "exact" if getattr(args, "exact", False) else "float64",
        "results": body,
        "pass": passed,
    }
    if args.format == "json":
        text = canonical_json(report)
    else:
        fields = _CSV_FIELDS[command]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_csv_cell(row.get(f)) for f in fields])
        text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {"command": args.command, "format": args.format}
    try:
        body, passed, rows = _DISPATCH[args.command](args, config)
        _write_report(args, args.command, config, body, passed, rows)
    except (HeatSeriesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # a defect, not bad input: keep exit 1 for audits
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return INTERNAL_ERROR
    return 0 if passed else AUDIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
