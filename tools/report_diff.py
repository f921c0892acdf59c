"""Compare the CLI reports of two source trees, byte for byte.

Usage (from the repository root):

    python3 tools/report_diff.py BASE_SRC CHANGE_SRC [--seeds 3 4] [--size full|smoke]

BASE_SRC and CHANGE_SRC are checkouts of the repository (or their `src`
directories).  The invocations are every one that `heatbench/plan.py`
builds for the volume, heatmap and audits workloads at each seed, then the
fixed edge cases in `EDGE_CASES`.  For each tree one fresh interpreter
(the two run side by side) imports `heatseries` from that tree and runs
them all in order through `heatseries.cli.main`, each batch in a directory
holding its input files, recording exit code, stdout and stderr.  The tool
prints every argv whose outcome differs between the trees and exits 1 if
any does, else 0.

`plan.py` is imported from this repository without writing bytecode next
to it, so the benchmark's files are only read.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("volume", "heatmap", "audits")

_DISCONNECTED = {
    "root": 0,
    "vertices": [{"id": i, "mu": 1.0} for i in (0, 1, 5, 6)],
    "edges": [{"u": 0, "v": 1, "w": 1.0}, {"u": 5, "v": 6, "w": 1.0}],
}


def _k2(mu, w):
    return {
        "root": 0,
        "vertices": [{"id": 0, "mu": mu}, {"id": 1, "mu": mu}],
        "edges": [{"u": 0, "v": 1, "w": w}],
    }


_ISOLATED_ROOT = {"root": 0, "vertices": [{"id": 0, "mu": 1}], "edges": []}


def _k2_text(mu, w):
    """A two-vertex document with measures 1 and `mu`, written as JSON literals
    that an exact parse keeps apart from their binary64 roundings."""
    return ('{"root": 0, "vertices": [{"id": 0, "mu": 1}, {"id": 1, "mu": %s}], '
            '"edges": [{"u": 0, "v": 1, "w": %s}]}' % (mu, w))


# a path 0-1-2-3-4 with the chord 1-3, measures and weights off 1
_WEIGHED = {
    "root": 0,
    "vertices": [{"id": i, "mu": mu} for i, mu in enumerate((0.5, 2, 1.5, 3, 0.25))],
    "edges": [{"u": u, "v": v, "w": w}
              for u, v, w in ((0, 1, 0.75), (1, 2, 1.25), (2, 3, 2), (3, 4, 0.5), (1, 3, 1.5))],
}

# a star whose hub has 40 unit-weight leaves: Deg is 40 there and 1 elsewhere
_HUB = {
    "root": 1,
    "vertices": [{"id": i, "mu": 1} for i in range(41)],
    "edges": [{"u": 0, "v": i, "w": 1} for i in range(1, 41)],
}

#: Input files of the edge cases, written to their batch directory, beside
#: the audits workload's graph files at seeds 35 and 55 (see `batches`).
EDGE_FILES = {
    "disconnected.json": json.dumps(_DISCONNECTED),
    "disconnected.initial.json": json.dumps([[5, 1.0]]),
    "k2.json": json.dumps(_k2(1.0, 1.0)),
    "huge.initial.json": json.dumps([[0, 1e9]]),
    "duplicate.initial.json": json.dumps([[0, 1.0], [0, 2.0]]),
    "isolated-root.json": json.dumps(_ISOLATED_ROOT),
    "heavy-k2.json": json.dumps(_k2(1, 1e308)),
    "light-k2.json": json.dumps(_k2(1e-308, 1)),
    "near-max.initial.json": json.dumps([[0, 1.7e308], [1, -1.5e308], [3, 1e308]]),
    "weighed.json": json.dumps(_WEIGHED),
    "hub.json": json.dumps(_HUB),
    # under --exact: a measure that rounds to 0.0, a Deg beyond binary64
    "tiny-measure.json": _k2_text("1e-400", "1"),
    "heavy-deg.json": _k2_text("1e-300", "1e300"),
    "big.initial.json": json.dumps([[0, 1e300]]),
    # under --exact: a value beyond binary64, refused in short form
    "beyond.initial.json": "[[0, 1], [1, 1e400]]",
    # a document that is not an array of records
    "scalar.initial.json": "5",
    # a document that is not JSON at all
    "bad.initial.json": "not json",
    # data whose sup|a| 2|t|D and ||a||_2 overflow binary64, and data whose
    # ||a||_2 is finite but whose Laplacian is not
    "e308.initial.json": json.dumps([[x, 1e308] for x in range(4)]),
    "one308.initial.json": json.dumps([[0, 1e308]]),
    # z data at vertices whose root distance no double holds, and one at the root
    "far.initial.json": json.dumps([[10 ** 400, 1.0], [-10 ** 400 - 1, -0.5], [0, 0.25]]),
    # lattice:3 data whose support lies off the root
    "off-root.initial.json": json.dumps([[[2, -1, 0], 1.0], [[0, 1, -3], -0.5]]),
    # a kernel step whose w f(x) = 1e300 * 1e10 overflows, though Deg = 1
    "overflow-k2.json": json.dumps(_k2(1e300, 1e300)),
    "e10.initial.json": json.dumps([[0, 1e10]]),
    # data whose envelope products overflow binary64 under a 1e300 cap
    "e200.initial.json": json.dumps([[0, 1e200]]),
    # under --exact: data whose value at the root lies past binary64
    "past-max.initial.json": json.dumps([[0, 1.5e308]]),
    # five float values on lattice:3, in an order no walk gives
    "five.initial.json": json.dumps([[[1, 0, 0], 0.245803], [[0, 0, 0], 0.483574],
                                     [[0, -1, 0], 0.590387], [[0, 0, 1], 0.884901],
                                     [[-1, 0, 0], 0.479797]]),
}

#: Small edge cases of solve, backward, radius, counterexample and verify:
#: refusals, precedence, audit verdicts, output shapes and summation paths
#: that no benchmark plan reaches.
EDGE_CASES = (
    ["backward", "--graph", "disconnected.json", "--initial", "disconnected.initial.json",
     "--kmax", "3", "--rmax", "1"],
    ["backward", "--graph", "disconnected.json", "--initial", "disconnected.initial.json",
     "--kmax", "3", "--rmax", "1", "--exact"],
    ["backward", "--graph", "k2.json", "--initial", "huge.initial.json", "--t", "0.1"],
    ["backward", "--family", "tree:3", "--t", "0.05", "--kmax", "4", "--rmax", "2"],
    ["backward", "--family", "tree:3", "--t", "0.05", "--kmax", "4", "--rmax", "2", "--exact"],
    ["backward", "--family", "z", "--t", "0", "--kmax", "3", "--rmax", "2", "--format", "csv"],
    ["solve", "--family", "z", "--t=0,-0.0", "--rmax", "2", "--format", "csv"],
    ["backward", "--family", "z", "--t=-0.0,0.1", "--kmax", "3", "--rmax", "1"],
    ["backward", "--family", "z", "--degree-bound", "1e200", "--kmax", "3", "--rmax", "1"],
    ["backward", "--family", "z", "--degree-bound", "1", "--kmax", "3", "--rmax", "1"],
    ["backward", "--family", "z", "--degree-bound=nan", "--kmax", "3", "--rmax", "1"],
    ["backward", "--family", "lattice:2", "--t=1", "--rmax", "2", "--kmax", "2",
     "--degree-bound=nan"],
    ["backward", "--family", "z", "--t=1e9", "--kmax", "3", "--rmax", "1"],
    ["backward", "--family", "z", "--t=1e9", "--kmax", "3", "--rmax", "1", "--degree-bound=nan"],
    # an unreachable time is refused before the long audit
    ["backward", "--family", "z", "--t=1e9", "--kmax", "600", "--rmax", "1"],
    # a long audit on a family whose balls grow linearly; on lattice:2 the
    # same kmax exhausts memory
    ["backward", "--family", "z", "--t", "0.01", "--kmax", "600", "--rmax", "1"],
    ["backward", "--family", "z", "--tol=0", "--kmax", "3"],
    ["backward", "--family", "z", "--t=-0.1"],
    ["backward", "--family", "z", "--rmax=-1"],
    ["backward", "--family", "z", "--kmax=-1"],
    ["solve", "--family", "z", "--rmax=-1"],
    ["solve", "--family", "z", "--t=1e9", "--rmax", "1"],
    ["solve", "--family", "z", "--tol=inf", "--t=5", "--rmax", "0"],
    ["solve", "--family", "lattice:2", "--t=0.5,-0.25", "--rmax", "2", "--exact"],
    ["radius", "--family", "z", "--kmax", "3"],
    ["radius", "--family", "z", "--kmax", "2", "--amplitude", "1", "--deg-cap", "2"],
    ["radius", "--kmax", "3", "--amplitude", "1", "--rate", "1", "--deg-cap", "3",
     "--deg-power", "0"],
    ["radius", "--family", "z", "--kmax", "2", "--rate=0.5"],
    ["radius", "--family", "z", "--kmax", "2", "--deg-power=0.5"],
    ["radius", "--family", "z", "--amplitude", "1", "--rate=nan"],
    ["radius", "--family", "z", "--deg-cap", "2", "--deg-power=nan"],
    ["radius", "--family", "z", "--kmax", "2", "--amplitude=inf"],
    ["radius", "--family", "z", "--kmax", "2", "--delta=inf"],
    ["radius", "--deg-cap=inf", "--amplitude", "1", "--rate", "1"],
    ["radius", "--family", "z", "--kmax", "0", "--delta=-1"],
    ["radius", "--family", "z", "--kmax", "3", "--amplitude", "1", "--rate", "2", "--delta=nan"],
    # a window scale 2 delta cap that underflows to 0
    ["radius", "--family", "z", "--deg-cap", "0.1", "--delta", "5e-324"],
    # x = 3 samples 0, 0 and a negative value
    ["counterexample", "--beta", "10", "--xmax", "12", "--kmax", "3"],
    # large beta: a wide growth window, and one that fails the audit (exit 1)
    ["counterexample", "--beta", "40", "--epsilon", "0.5"],
    ["counterexample", "--beta", "100"],
    # a given theta and time shift
    ["counterexample", "--beta", "6", "--theta", "0.3", "--T", "2.5", "--xmax", "30",
     "--kmax", "4"],
    # data that no grid rate fits from the inner spheres, on a finite graph
    ["radius", "--graph", "seed35.json", "--initial", "seed35.initial.json", "--rmax", "3"],
    # degrees that no grid power fits from the inner spheres, on a finite graph
    ["radius", "--graph", "seed55.json", "--initial", "seed55.initial.json", "--rmax", "3"],
    # integer data summed at float times
    ["verify", "--exact"],
    ["verify", "--exact", "--format", "csv"],
    ["solve", "--family", "z", "--initial", "duplicate.initial.json"],
    ["solve", "--family", "z", "--exact", "--initial", "beyond.initial.json"],
    ["solve", "--family", "z", "--initial", "scalar.initial.json"],
    ["solve", "--family", "z", "--t", "1/2"],
    ["solve", "--family", "z", "--exact", "--t", "abc"],
    ["solve", "--family", "lattice:1.5"],
    ["solve", "--family", "tree:x"],
    ["solve", "--family", "z:3"],
    ["radius", "--graph", "isolated-root.json"],
    ["radius", "--graph", "heavy-k2.json"],
    ["radius", "--graph", "light-k2.json"],
    # float iterates that overflow to inf and nan
    ["solve", "--family", "z", "--initial", "near-max.initial.json", "--rmax", "2"],
    # exact iterates through the light cone
    ["solve", "--exact", "--family", "lattice:2", "--t=1/4", "--rmax", "2"],
    ["backward", "--exact", "--graph", "weighed.json", "--t", "1/10", "--kmax", "4",
     "--rmax", "2"],
    # grids summed ahead: repeated times, 0 beside -0.0, 1/2 beside 0.5
    ["solve", "--family", "z", "--t=0.5,0,0.5,-0.5,-0.0", "--rmax", "3"],
    ["solve", "--family", "z", "--t=0.5,1/2,0,0.5,-0.5,-0.0", "--rmax", "3", "--exact"],
    ["backward", "--graph", "weighed.json", "--t", "0.1,0.05,0.1", "--kmax", "4", "--rmax", "2"],
    # graph numbers outside binary64, refused when the graph is built
    ["solve", "--exact", "--graph", "tiny-measure.json"],
    ["radius", "--exact", "--graph", "tiny-measure.json"],
    ["solve", "--exact", "--graph", "heavy-deg.json"],
    ["radius", "--exact", "--graph", "heavy-deg.json"],
    # exact iterates beyond binary64, reported as signed inf
    ["laplacian", "--family", "z", "--exact", "--kmax", "20", "--initial", "big.initial.json"],
    ["backward", "--family", "z", "--exact", "--kmax", "20", "--rmax", "1", "--t=1/1000",
     "--initial", "big.initial.json"],
    # CSV rows of the residual sweep, the remainder table of each certificate
    # kind (empty out of hypothesis) and the iterates
    ["counterexample", "--beta", "4", "--format", "csv"],
    ["radius", "--family", "z", "--kmax", "3", "--format", "csv"],
    ["radius", "--family", "z", "--kmax", "3", "--amplitude", "1", "--rate", "1",
     "--deg-cap", "3", "--format", "csv"],
    ["radius", "--family", "z", "--kmax", "3", "--amplitude", "1", "--rate", "2",
     "--format", "csv"],
    ["laplacian", "--family", "z", "--kmax", "3", "--format", "csv"],
    # lazy-family shapes the plans never run: a wide lattice, a path-like and
    # a bushy tree, and data away from the root
    ["solve", "--family", "lattice:4", "--t=0.1", "--rmax", "1"],
    ["solve", "--family", "tree:2", "--t=0.5", "--rmax", "3"],
    ["backward", "--family", "tree:4", "--t", "0.05", "--kmax", "4", "--rmax", "2"],
    ["solve", "--family", "lattice:3", "--initial", "off-root.initial.json", "--t=0.2",
     "--rmax", "1"],
    ["solve", "--family", "z", "--initial", "far.initial.json", "--t=0.3", "--rmax", "2"],
    # a file that is not JSON, refused by name; its stderr differs from a tree
    # that passes the parser's bare message through
    ["solve", "--family", "z", "--initial", "bad.initial.json"],
    # a negative degree cap, refused by name; its stderr differs from a tree
    # that reports it as a Deg above the cap
    ["backward", "--family", "z", "--degree-bound=-1", "--kmax", "3", "--rmax", "1"],
    # float values that must not depend on the window (--rmax) or on the
    # audit run before the series (--kmax); their bits move against a tree
    # whose sums ran in the order walks had numbered the vertices in
    ["solve", "--family", "lattice:3", "--initial", "five.initial.json", "--t=1,-0.5",
     "--rmax", "1"],
    ["backward", "--family", "lattice:3", "--initial", "five.initial.json", "--t=2",
     "--rmax", "2", "--kmax", "12"],
    # a cap of 0, met by an edgeless root region
    ["backward", "--graph", "isolated-root.json", "--degree-bound", "0", "--kmax", "2",
     "--rmax", "1"],
    # forward times summed by the Chebyshev series: their values and K differ
    # from a tree that sums the Taylor series there, which refuses t = 50 and
    # fills ball(18) of the tree at t = 1
    ["solve", "--family", "z", "--t=50", "--rmax", "2"],
    ["solve", "--family", "tree:3", "--t=1", "--rmax", "2"],
    # no edge, so the forward value is the data (byte-identical)
    ["solve", "--graph", "isolated-root.json", "--t=1", "--rmax", "1"],
    # tails that cannot be finite, refused at once by name: their stderr
    # differs from a tree that gives up after 400 terms
    ["solve", "--family", "z", "--t=1", "--initial", "e308.initial.json", "--rmax", "1"],
    ["solve", "--family", "z", "--t=-1", "--initial", "e308.initial.json", "--rmax", "1"],
    ["solve", "--family", "z", "--t=1", "--initial", "one308.initial.json", "--rmax", "1"],
    # rows that are not finite do not pass (exit 1): they passed in a tree
    # that did not check
    ["solve", "--graph", "overflow-k2.json", "--initial", "e10.initial.json", "--t=0.5"],
    ["solve", "--graph", "overflow-k2.json", "--initial", "e10.initial.json", "--t=-0.5"],
    ["backward", "--graph", "overflow-k2.json", "--initial", "e10.initial.json", "--t=0.5",
     "--kmax", "2"],
    # an exact row past binary64 prints inf and still passes
    ["solve", "--family", "z", "--exact", "--t=-1/4", "--rmax", "1",
     "--initial", "past-max.initial.json"],
    # backward times summed on the Chebyshev table: a tree that sums the
    # Taylor series refuses t = -60 and fills ball(17) of the tree at t = -1
    ["solve", "--family", "z", "--t=-60", "--rmax", "2"],
    ["solve", "--family", "tree:3", "--t=-1", "--rmax", "2"],
    # uneven degrees keep the Taylor series backward (byte-identical): the
    # Chebyshev sum would cancel on the scale e^{2D|t|} = e^48 at a leaf
    ["solve", "--graph", "hub.json", "--t=-0.6,0.6", "--rmax", "1"],
    # a backward scale e^{2z} beyond binary64, refused at once naming z
    ["solve", "--family", "z", "--t=-180", "--rmax", "0"],
    # envelope audits whose products overflow to inf, and whose zero cap
    # meets an infinite growth in 0 * inf = nan, which no iterate exceeds:
    # both refuted with no warning on stderr
    ["backward", "--family", "z", "--initial", "e200.initial.json", "--degree-bound", "1e300",
     "--kmax", "40", "--rmax", "1"],
    ["backward", "--graph", "isolated-root.json", "--initial", "huge.initial.json",
     "--degree-bound", "0", "--kmax", "200", "--rmax", "1"],
)


def _import_plan():
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(REPO / "heatbench"))
    import plan

    return plan


def batches(seeds, size):
    """[{"files", "argvs"}]: each plan batch, then the edge cases."""
    plan = _import_plan()
    out = []
    for seed in seeds:
        for workload in WORKLOADS:
            invocations = plan.build(workload, seed, size)
            files = {}
            for inv in invocations:
                files.update(inv["files"])
            out.append({"files": files, "argvs": [inv["argv"] for inv in invocations]})
    files = dict(EDGE_FILES, **_audits_graph_files(plan, 35), **_audits_graph_files(plan, 55))
    out.append({"files": files, "argvs": [list(a) for a in EDGE_CASES]})
    return out


def _audits_graph_files(plan, seed):
    """The audits workload's graph document and its data at `seed`, as
    seed<N>.json and seed<N>.initial.json."""
    files = {}
    for inv in plan.build("audits", seed):
        files.update(inv["files"])
    return {f"seed{seed}.json": files["graph.json"],
            f"seed{seed}.initial.json": files["graph.initial.json"]}


def source_dir(tree):
    """The directory holding the `heatseries` package of `tree`."""
    tree = Path(tree).resolve()
    for candidate in (tree / "src", tree):
        if (candidate / "heatseries" / "cli.py").is_file():
            return candidate
    raise SystemExit(f"error: no heatseries package under {tree}")


def _worker():
    """Run the batches read from stdin; write [[rc, stdout, stderr], ...]."""
    import contextlib
    import io
    import traceback

    import heatseries.cli as cli

    src = os.path.realpath(os.environ["REPORT_DIFF_SRC"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"heatseries imported from {cli.__file__}, not from {src}")
    results = []
    for i, batch in enumerate(json.load(sys.stdin)):
        workdir = Path(f"batch{i}")
        workdir.mkdir()
        for name, content in batch["files"].items():
            (workdir / name).write_text(content)
        os.chdir(workdir)
        for argv in batch["argvs"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse refusals
                    rc = exc.code
                except Exception as exc:  # escaped the CLI: part of the outcome
                    rc = None
                    err.write("".join(traceback.format_exception_only(type(exc), exc)))
            results.append([rc, out.getvalue(), err.getvalue()])
        os.chdir("..")
    json.dump(results, sys.stdout)


def run_trees(trees, work):
    """Outcomes of every argv in `work` for each tree, one fresh interpreter each.

    The interpreters run side by side, each in its own temporary directory.
    """
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            "import report_diff; report_diff._worker()")
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        tmp = Path(tmp)
        (tmp / "work.json").write_text(json.dumps(work))
        procs = []
        for i, tree in enumerate(trees):
            src = source_dir(tree)
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
                       REPORT_DIFF_SRC=str(src))
            env.pop("HEAT_SERIES_THREADS", None)
            cwd = tmp / f"tree{i}"
            cwd.mkdir()
            with open(tmp / "work.json") as stdin, open(cwd / "out.json", "w") as out, \
                    open(cwd / "err.txt", "w") as err:
                procs.append(subprocess.Popen([sys.executable, "-c", code], stdin=stdin,
                                              stdout=out, stderr=err, cwd=cwd, env=env))
        statuses = [proc.wait() for proc in procs]
        results = []
        for i, (tree, status) in enumerate(zip(trees, statuses)):
            if status != 0:
                detail = (tmp / f"tree{i}" / "err.txt").read_text()
                raise SystemExit(f"error: the worker for {tree} failed:\n{detail}")
            results.append(json.loads((tmp / f"tree{i}" / "out.json").read_text()))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE_SRC")
    parser.add_argument("change", metavar="CHANGE_SRC")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 4])
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    work = batches(args.seeds, args.size)
    argvs = [argv for batch in work for argv in batch["argvs"]]
    base, change = run_trees([args.base, args.change], work)
    differing = 0
    for argv, old, new in zip(argvs, base, change):
        if old != new:
            differing += 1
            parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                     if a != b]
            print(f"differs ({', '.join(parts)}): {shlex.join(argv)}")
            for label, (rc, _, err) in (("base", old), ("change", new)):
                print(f"  {label}: exit {rc}, stderr {err[-200:]!r}")
    print(f"{len(argvs)} invocations, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
