"""Seeded workload plans for the heatseries benchmark.

A plan is the list of CLI invocations one batch issues, in order, together
with the input files each one reads and the check its report must pass.
Plans depend only on (workload, seed, size): this module never imports
`heatseries`, so a change to the package cannot change its inputs.

Within one batch no invocation repeats, because the batch runs in one
process and the lru caches in `heatseries.counterexample` would turn a
repeat into a cache hit.  The seed changes data values, time offsets and
graph documents, never the amount of work (families, windows, time
magnitudes and support shapes are fixed), so run-to-run spread measures the
program and the host rather than the seed.
"""

from __future__ import annotations

import itertools
import json
import random

WORKLOADS = ("volume", "heatmap", "audits")
SIZES = ("full", "smoke")


def _num(x, digits=6):
    """Decimal literal of a seeded number, so files and references agree."""
    return format(round(x, digits), f".{digits}f")


def lattice_ball(dim, radius):
    """Integer points of Z^dim with l1 norm <= radius, as tuples."""
    rng = range(-radius, radius + 1)
    return [p for p in itertools.product(rng, repeat=dim) if sum(map(abs, p)) <= radius]


def tree_ball(degree, radius):
    """Vertex words of the degree-k tree within `radius` of the base vertex.

    Same encoding as the CLI's tree family: the base is the empty word, the
    first letter ranges over 0..k-1 and every later letter over 0..k-2.
    """
    out = [()]
    layer = [()]
    for depth in range(radius):
        width = degree if depth == 0 else degree - 1
        layer = [w + (i,) for w in layer for i in range(width)]
        out.extend(layer)
    return out


def _vertex_json(v):
    return list(v) if isinstance(v, tuple) else v


def _signed_unit_values(rng, count):
    """`count` decimals in (-1, 1), the first forced to +-1 so sup|a| = 1.

    Pinning the sup norm pins the series truncation order K, which the
    certificate derives from sup|a|; the seed then moves values, not work.
    """
    vals = [_num(rng.uniform(-1.0, 1.0)) for _ in range(count)]
    vals[0] = "1.0" if rng.random() < 0.5 else "-1.0"
    return vals


def _initial_file(records):
    return json.dumps([[_vertex_json(v), float(s)] for v, s in records])


def _times_arg(times):
    # the CLI needs the --t=... form once a time is negative
    return "--t=" + ",".join(times)


def random_graph_doc(rng, n):
    """Connected weighted graph document: a random tree plus n//2 chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {}
    for i in range(1, n):
        edges[frozenset((order[i], order[rng.randrange(i)]))] = None
    while len(edges) < (n - 1) + n // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.setdefault(frozenset((u, v)), None)
    return {
        "root": 0,
        "vertices": [{"id": i, "mu": float(_num(rng.uniform(0.5, 2.0), 3))} for i in range(n)],
        "edges": [
            {"u": min(p), "v": max(p), "w": float(_num(rng.uniform(0.5, 2.0), 3))}
            for p in sorted(edges, key=sorted)
        ],
    }


class _Builder:
    def __init__(self):
        self.invocations = []

    def add(self, ident, argv, check, files=None):
        self.invocations.append(
            {"id": ident, "cmd": argv[0], "argv": argv, "files": files or {}, "check": check}
        )


def _solve_lattice(b, ident, rng, family, dim, t, rmax, float_data):
    files, data, argv = {}, None, ["solve", "--family", family, _times_arg([t]), "--rmax", str(rmax)]
    if float_data:
        support = lattice_ball(dim, 1)
        data = list(zip(support, _signed_unit_values(rng, len(support))))
        files[f"{ident}.initial.json"] = _initial_file(data)
        argv += ["--initial", f"{ident}.initial.json"]
    check = {"kind": "lattice", "dim": dim, "times": [t], "rmax": rmax,
             "data": None if data is None else [[_vertex_json(v), s] for v, s in data]}
    b.add(ident, argv, check, files)


def _solve_tree(b, ident, rng, degree, t, rmax, float_data):
    files, profile, argv = {}, None, ["solve", "--family", f"tree:{degree}", _times_arg([t]), "--rmax", str(rmax)]
    if float_data:
        profile = _signed_unit_values(rng, 2)  # radial: value by distance 0, 1
        records = [(w, profile[len(w)]) for w in tree_ball(degree, 1)]
        files[f"{ident}.initial.json"] = _initial_file(records)
        argv += ["--initial", f"{ident}.initial.json"]
    check = {"kind": "tree", "degree": degree, "times": [t], "rmax": rmax, "profile": profile}
    b.add(ident, argv, check, files)


def _volume(b, rng, size):
    if size == "smoke":
        cases = [("lattice:2", 2, "0.3", 2), ("lattice:3", 3, "0.05", 1)]
        tree = ("0.05", 2)
    else:
        cases = [("lattice:2", 2, "1", 4), ("lattice:3", 3, "0.15", 3)]
        tree = ("0.15", 4)
    for family, dim, t, rmax in cases:
        tag = family.replace(":", "")
        _solve_lattice(b, f"{tag}-delta", rng, family, dim, t, rmax, False)
        _solve_lattice(b, f"{tag}-float", rng, family, dim, t, rmax, True)
    _solve_tree(b, "tree3-delta", rng, 3, tree[0], tree[1], False)
    _solve_tree(b, "tree3-float", rng, 3, tree[0], tree[1], True)


def _heatmap(b, rng, size):
    # x in [-rmax, rmax], times on a 0.5 grid across [-tmax, tmax]; the first
    # grid is the canonical one, later ones are shifted by a seeded offset.
    rmax, tmax, grids = (5, 3, 2) if size == "smoke" else (60, 20, 2)
    steps = int(4 * tmax)
    offsets = [0.0] + [round(rng.uniform(0.05, 0.45), 4) for _ in range(grids - 1)]
    for j, off in enumerate(offsets):
        count = steps + 1 if off == 0 else steps
        times = [_num(-tmax + 0.5 * i + off, 4) for i in range(count)]
        argv = ["solve", "--family", "z", _times_arg(times), "--rmax", str(rmax)]
        b.add(f"z-grid{j}", argv, {"kind": "lattice", "dim": 1, "times": times, "rmax": rmax, "data": None})


def _audits(b, rng, size):
    smoke = size == "smoke"
    for beta in (3,) if smoke else (3, 4, 5):
        eps = _num(rng.uniform(0.9, 1.1), 2)
        argv = ["counterexample", "--beta", str(beta), "--epsilon", eps]
        if smoke:
            argv += ["--xmax", "12", "--kmax", "3"]
        b.add(f"cx-beta{beta}", argv, {"kind": "counterexample"})
    b.add("verify", ["verify"], {"kind": "verify"})

    # backward Cauchy values plus the solvability audit, on a family ...
    support = lattice_ball(2, 1)
    data = list(zip(support, _signed_unit_values(rng, len(support))))
    times = ["0.1", "0.25"]
    kmax, rmax = (6, 2) if smoke else (20, 4)
    b.add(
        "bw-lattice2",
        ["backward", "--family", "lattice:2", _times_arg(times), "--kmax", str(kmax),
         "--rmax", str(rmax), "--initial", "bw-lattice2.initial.json"],
        {"kind": "lattice", "dim": 2, "times": times, "rmax": rmax, "backward": True,
         "data": [[_vertex_json(v), s] for v, s in data]},
        {"bw-lattice2.initial.json": _initial_file(data)},
    )

    # ... and on a seeded finite graph document
    n = 12 if smoke else 30
    doc = random_graph_doc(rng, n)
    gdata = [[v, s] for v, s in zip(rng.sample(range(n), 3), _signed_unit_values(rng, 3))]
    files = {"graph.json": json.dumps(doc), "graph.initial.json": _initial_file(gdata)}
    times = ["0.1", "0.3"]
    b.add(
        "bw-graph",
        ["backward", "--graph", "graph.json", "--initial", "graph.initial.json",
         _times_arg(times), "--kmax", "12", "--rmax", "3"],
        {"kind": "graph", "doc": doc, "data": gdata, "times": times, "rmax": 3, "backward": True},
        files,
    )
    b.add("exact-laplacian-graph",
          ["laplacian", "--graph", "graph.json", "--exact", "--initial", "graph.initial.json",
           "--kmax", "8"],
          {"kind": "laplacian_graph", "doc": doc, "data": gdata, "kmax": 8})
    b.add("radius-lattice2", ["radius", "--family", "lattice:2"],
          {"kind": "radius_family", "degree": 4})
    b.add("radius-graph", ["radius", "--graph", "graph.json", "--initial", "graph.initial.json",
                           "--rmax", "3"],
          {"kind": "radius_graph", "doc": doc, "data": gdata, "rmax": 3})

    # explicitly exact arithmetic: dyadic rationals on Z
    zdata = [[x, _num(rng.choice((-1, 1)) * rng.randrange(1, 16) / 16, 4)] for x in rng.sample(range(-3, 4), 3)]
    zfile = {"z.initial.json": _initial_file(zdata)}
    times = ["-0.5", "0.25", "1"]
    b.add("exact-solve-z",
          ["solve", "--family", "z", "--exact", "--initial", "z.initial.json", _times_arg(times), "--rmax", "5"],
          {"kind": "lattice", "dim": 1, "times": times, "rmax": 5, "data": zdata, "exact": True}, zfile)
    b.add("exact-laplacian-z",
          ["laplacian", "--family", "z", "--exact", "--initial", "z.initial.json", "--kmax", "12"],
          {"kind": "laplacian_z", "data": zdata, "kmax": 12}, zfile)


_BUILDERS = {"volume": _volume, "heatmap": _heatmap, "audits": _audits}


def build(workload, seed, size="full"):
    """The invocation list of one batch of `workload` for `seed`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder()
    _BUILDERS[workload](b, rng, size)
    ids = [inv["id"] for inv in b.invocations]
    argvs = [json.dumps(inv["argv"]) for inv in b.invocations]
    if len(set(ids)) != len(ids) or len(set(argvs)) != len(argvs):
        raise RuntimeError("a batch must not repeat an invocation")
    return b.invocations
