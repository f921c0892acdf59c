import contextlib
import csv
import io
import json
import math
import re
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import heatseries.bounds as bounds_mod
import heatseries.cli as cli
import heatseries.counterexample as cx_mod
import heatseries.laplacian as laplacian_mod
import heatseries.series as series_mod
from heatseries.cli import canonical_json, main
from heatseries.graphs import family_from_spec, float_or_inf, vertex_key
from heatseries.laplacian import IteratedLaplacianTable
from heatseries.oracle import brute_iterate, dense_laplacian
from heatseries.series import SeriesSolution, series_eval


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write_graph(tmp_path, doc, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


K2_DOC = {
    "root": 0,
    "vertices": [{"id": 0, "mu": 1.0}, {"id": 1, "mu": 1.0}],
    "edges": [{"u": 0, "v": 1, "w": 1.0}],
}

# a kernel step whose w f(x) = 1e300 * 1e10 overflows, though Deg = 1
OVERFLOW_K2_DOC = {
    "root": 0,
    "vertices": [{"id": 0, "mu": 1e300}, {"id": 1, "mu": 1e300}],
    "edges": [{"u": 0, "v": 1, "w": 1e300}],
}


class TestLaplacianCommand:
    def test_dump(self, capsys):
        code, out = run(["laplacian", "--family", "z", "--kmax", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "laplacian"
        assert report["arithmetic"] == "float64"
        values = {
            (row["k"], row["vertex"]): row["value"]
            for row in report["results"]["values"]
        }
        assert values[(1, 0)] == -2.0
        assert values[(2, 0)] == 6.0

    def test_csv(self, capsys):
        code, out = run(
            ["laplacian", "--family", "z", "--kmax", "1", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,vertex,value"
        assert any(line.startswith("1,0,-2") for line in lines)

    def test_negative_kmax_named(self):
        code, err = _exit_and_stderr(["laplacian", "--kmax=-5"])
        assert code == 2
        assert "--kmax" in err and "Traceback" not in err


class TestSolveCommand:
    def test_k2_spectral_values(self, tmp_path, capsys):
        path = write_graph(tmp_path, K2_DOC)
        code, out = run(
            ["solve", "--graph", path, "--t=-0.1", "--rmax", "1"], capsys
        )
        assert code == 0
        rows = json.loads(out)["results"]["evaluations"]
        values = {row["vertex"]: row["value"] for row in rows}
        assert values[0] == pytest.approx((1 + math.exp(0.2)) / 2, abs=1e-10)
        assert values[1] == pytest.approx((1 - math.exp(0.2)) / 2, abs=1e-10)
        assert all(row["tail_bound"] <= 1e-11 for row in rows)

    @pytest.mark.parametrize("exact", ([], ["--exact"]))
    def test_ids_that_do_not_compare(self, tmp_path, capsys, exact):
        plain = {
            "root": 0,
            "vertices": [{"id": i, "mu": 1} for i in range(3)],
            "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 1, "v": 2, "w": 1}],
        }
        argv = ["solve", "--t=0.1,-0.2", "--rmax", "2"] + exact
        values = []
        for doc in (MIXED_IDS_DOC, plain):
            code, out = run(argv + ["--graph", write_graph(tmp_path, doc)], capsys)
            assert code == 0
            rows = json.loads(out)["results"]["evaluations"]
            values.append({(row["vertex"], row["t"]): row["value"] for row in rows})
        renamed = {0: 0, "a,b": 1, "x": 2}
        assert {(renamed[x], t): v for (x, t), v in values[0].items()} == values[1]

    def test_initial_file(self, tmp_path, capsys):
        path = write_graph(tmp_path, K2_DOC)
        init = tmp_path / "a.json"
        init.write_text(json.dumps([[0, 2.0], [1, -2.0]]))
        code, out = run(
            ["solve", "--graph", path, "--initial", str(init), "--t=0"], capsys
        )
        assert code == 0
        rows = json.loads(out)["results"]["evaluations"]
        assert {row["vertex"]: row["value"] for row in rows} == {0: 2.0, 1: -2.0}

    def test_unknown_family_exit2(self, capsys):
        code, _ = run(["solve", "--family", "hyperbolic:7", "--t=0"], capsys)
        assert code == 2

    def test_forward_light_cone_stays_small(self, monkeypatch, capsys):
        graphs = []

        def recording(spec):
            graphs.append(family_from_spec(spec))
            return graphs[-1]

        monkeypatch.setattr(cli, "family_from_spec", recording)
        code, out = run(["solve", "--family", "tree:3", "--t=1", "--rmax", "2"], capsys)
        assert code == 0
        assert {row["K_used"] for row in json.loads(out)["results"]["evaluations"]} == {17}
        # K = 17 cuts the cone at ball(10), 3,070 vertices; the Taylor
        # series' K = 32 filled ball(18), 786,430 vertices
        assert len(graphs[0].index.vertices) <= 6000

    def test_backward_light_cone_stays_small(self, monkeypatch, capsys):
        graphs = []

        def recording(spec):
            graphs.append(family_from_spec(spec))
            return graphs[-1]

        monkeypatch.setattr(cli, "family_from_spec", recording)
        code, out = run(["solve", "--family", "tree:3", "--t=-1", "--rmax", "2"], capsys)
        assert code == 0
        assert {row["K_used"] for row in json.loads(out)["results"]["evaluations"]} == {19}
        # K = 19 cuts entry k at radius 21 - k, so the sources of entry 10
        # reach ball(10) and their rows ball(11), 6,142 vertices; the Taylor
        # series' K = 32 filled ball(17), about 393k vertices
        assert len(graphs[0].index.vertices) <= 3 * 2 ** 11 - 2

    def test_mixed_sign_grid_makes_one_cone_pass(self, monkeypatch, capsys):
        depths = []
        cone = series_mod.light_cone_iterates

        def counted(graph, base, depth, reach, step):
            depths.append(depth)
            return cone(graph, base, depth, reach, step)

        monkeypatch.setattr(series_mod, "light_cone_iterates", counted)
        code, out = run(["solve", "--family", "z", "--t=-20,-0.5,0,3,20", "--rmax", "5"],
                        capsys)
        assert code == 0
        rows = json.loads(out)["results"]["evaluations"]
        assert {row["t"]: row["K_used"] for row in rows} == {
            -20.0: 106, -0.5: 13, 0.0: 0, 3.0: 22, 20.0: 48}
        assert depths == [106]

    def test_backward_scale_beyond_binary64_named(self, monkeypatch):
        calls = []
        original = laplacian_mod.apply_laplacian

        def counting(graph, f):
            calls.append(len(f))
            return original(graph, f)

        monkeypatch.setattr(laplacian_mod, "apply_laplacian", counting)
        # e^{2z} = e^{4 * 180} > 1.8e308
        assert _exit_and_stderr(["solve", "--family", "z", "--t=-180", "--rmax", "0"]) == (
            2, "error: the backward scale e^(2z) is not finite in binary64: ||a||_2 = 1, "
               "z = D|t| = 360\n")
        assert calls == []

    # the last: a finite time 0 column before the non-finite one
    @pytest.mark.parametrize("argv", [["solve", "--t=0.5"], ["solve", "--t=-0.5"],
                                      ["backward", "--t=0.5", "--kmax", "2"],
                                      ["solve", "--t=0,0.5"]])
    def test_non_finite_rows_do_not_pass(self, argv, tmp_path, capsys):
        # w f(x) = 1e300 * 1e10 overflows inside the kernel step
        doc = OVERFLOW_K2_DOC
        init = tmp_path / "a.json"
        init.write_text(json.dumps([[0, 1e10]]))
        argv = argv + ["--graph", write_graph(tmp_path, doc), "--initial", str(init),
                       "--rmax", "1"]
        code, out = run(argv, capsys)
        report = json.loads(out)
        rows = report["results"]["evaluations"]
        assert len(rows) == 2 * len(report["config"]["t"])
        assert not all(math.isfinite(float(row["value"])) for row in rows)
        assert (code, report["pass"]) == (1, False)

    def test_exact_row_beyond_binary64_passes(self, tmp_path, capsys):
        # an exact value past binary64 prints as inf but is finite
        init = tmp_path / "a.json"
        init.write_text(json.dumps([[0, 1.5e308]]))
        code, out = run(["solve", "--family", "z", "--exact", "--initial", str(init),
                         "--t=-1/4", "--rmax", "1"], capsys)
        report = json.loads(out)
        values = [row["value"] for row in report["results"]["evaluations"]]
        assert values[1] == "inf" and math.isfinite(values[0])
        assert (code, report["pass"]) == (0, True)

    def test_z_answered_at_large_forward_times(self, capsys):
        code, out = run(["solve", "--family", "z", "--t=20,50", "--rmax", "1"], capsys)
        assert code == 0
        rows = json.loads(out)["results"]["evaluations"]
        assert {row["t"]: row["K_used"] for row in rows} == {20.0: 48, 50.0: 74}
        # e^{-2t} I_0(2t) ~ (4 pi t)^{-1/2} (1 + 1 / (16 t))
        for row in rows:
            if row["vertex"] == 0:
                t = row["t"]
                assert row["value"] == pytest.approx((1 + 1 / (16 * t)) / math.sqrt(4 * math.pi * t),
                                                     rel=1e-3)

    def test_edgeless_graph_forward_returns_the_data(self, tmp_path, capsys):
        doc = {"root": 0, "vertices": [{"id": 0, "mu": 1}], "edges": []}
        init = tmp_path / "a.json"
        init.write_text(json.dumps([[0, 2.5]]))
        code, out = run(["solve", "--graph", write_graph(tmp_path, doc), "--initial", str(init),
                         "--t=1", "--rmax", "1"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["evaluations"] == [
            {"vertex": 0, "t": 1.0, "value": 2.5, "tail_bound": 0.0, "K_used": 0}]

    @pytest.mark.parametrize("t, value, terms", [("1", 0.0, 0), ("5e-324", 1.0, 1)])
    def test_degenerate_forward_times_and_data(self, t, value, terms, tmp_path, capsys):
        init = tmp_path / "a.json"
        init.write_text(json.dumps([[[0, 0], value]]))
        code, out = run(["solve", "--family", "lattice:2", f"--t={t}", "--rmax", "0",
                         "--initial", str(init)], capsys)
        assert code == 0
        (row,) = json.loads(out)["results"]["evaluations"]
        assert (row["value"], row["K_used"]) == (value, terms)

    @pytest.mark.parametrize("argv, message", [
        (["--t=1e308"], "error: tail bound cannot reach tolerance 1e-11: ||a||_2 = 1, "
                        "z = Dt = inf is not finite in binary64\n"),
        (["--t=1e6"], "error: tail bound 1.9215788988491294 did not reach tolerance 1e-11 "
                      "within 400 terms: ||a||_2 = 1, z = Dt = 2e+06\n"),
        # ||a||_2 of four values 1e308 overflows, at either sign of t
        (["--t=-1", "--initial", "BIG"], "error: tail bound cannot reach tolerance 1e-11: "
                                         "||a||_2 = inf, z = D|t| = 2 is not finite in binary64\n"),
        (["--t=1", "--initial", "BIG"], "error: tail bound cannot reach tolerance 1e-11: "
                                        "||a||_2 = inf, z = Dt = 2 is not finite in binary64\n"),
    ])
    def test_unreachable_tail_refused_before_any_kernel_call(self, argv, message, tmp_path,
                                                             monkeypatch):
        big = tmp_path / "big.json"
        big.write_text(json.dumps([[x, 1e308] for x in range(4)]))
        calls = []
        original = laplacian_mod.apply_laplacian

        def counting(graph, f):
            calls.append(len(f))
            return original(graph, f)

        monkeypatch.setattr(laplacian_mod, "apply_laplacian", counting)
        argv = [str(big) if a == "BIG" else a for a in argv]
        assert _exit_and_stderr(["solve", "--family", "z"] + argv) == (2, message)
        assert calls == []


class TestBackwardCommand:
    @pytest.mark.parametrize("far", [10 ** 400, 10 ** 306])
    def test_data_where_n_ln_n_lies_past_binary64(self, far, tmp_path, capsys):
        # the envelope growth e^{rate n ln n} is 1 at rate 0, not an
        # OverflowError (exit 3) or a nan that hides the point at `far`
        init = tmp_path / "a.json"
        init.write_text(json.dumps([[far, 1.0], [-far - 1, -0.5], [0, 0.25]]))
        code, out = run(["backward", "--family", "z", "--initial", str(init), "--kmax", "3",
                         "--rmax", "1"], capsys)
        audit = json.loads(out)["results"]["solvability"]
        assert (code, audit["verdict"], audit["scale"], audit["rate"]) == (0, "certified", 1, 0)
        assert audit["witnesses"] == [{"k": 0, "vertex": far, "value": 1, "bound": 1}]

    def test_line_certified(self, capsys):
        code, out = run(
            ["backward", "--family", "z", "--t", "0.1", "--kmax", "12", "--rmax", "2"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        solv = report["results"]["solvability"]
        assert solv["verdict"] == "certified"
        assert solv["rate"] == 0.0
        assert report["pass"] is True

    def test_negative_time_exit2(self, capsys):
        code, _ = run(["backward", "--family", "z", "--t=-0.1"], capsys)
        assert code == 2

    def test_edgeless_graph_has_degree_cap_zero(self, tmp_path, capsys):
        doc = {"root": "a", "vertices": [{"id": "a", "mu": 1}], "edges": []}
        code, out = run(["backward", "--graph", write_graph(tmp_path, doc), "--kmax", "2"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["solvability"]["verdict"] == "certified"

    def test_envelope_beyond_binary64_is_infinite(self, capsys):
        # (2 * 1e200)^k overflows from k = 2 on; the infinite envelope holds
        code, out = run(
            ["backward", "--family", "z", "--degree-bound", "1e200", "--kmax", "3", "--rmax", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"]["solvability"]["verdict"] == "certified"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("source, initial, cap, kmax, witnesses", [
        # 1e6 (2 * 1e300)^k e^{rate n ln n} overflows binary64 from k = 2 on,
        # and at k = 1 far enough out
        (["--family", "z"], [[0, 1e200]], "1e300", "40", [[0, 0, 1e200, 1e6]]),
        # from k = 150 on, 0^k e^{0.95 k ln k} = 0 * inf is nan, which no
        # iterate exceeds
        (None, [[0, 1e9]], "0", "200", [[0, 0, 1e9, 1e6]]),
    ], ids=["overflow", "zero-times-inf"])
    def test_envelope_overflow_refutes_without_warnings(self, tmp_path, capsys, source,
                                                        initial, cap, kmax, witnesses):
        if source is None:
            doc = {"root": 0, "vertices": [{"id": 0, "mu": 1}], "edges": []}
            source = ["--graph", write_graph(tmp_path, doc)]
        init = tmp_path / "initial.json"
        init.write_text(json.dumps(initial))
        code = main(["backward", *source, "--initial", str(init), "--degree-bound", cap,
                     "--kmax", kmax, "--rmax", "1"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        solv = json.loads(captured.out)["results"]["solvability"]
        assert solv["verdict"] == "refuted-up-to-K"
        assert [[w["k"], w["vertex"], w["value"], w["bound"]] for w in solv["witnesses"]] == witnesses

    def test_refuted_exit1(self, tmp_path, capsys):
        path = write_graph(tmp_path, K2_DOC)
        init = tmp_path / "huge.json"
        init.write_text(json.dumps([[0, 1e9]]))
        code, out = run(
            ["backward", "--graph", path, "--initial", str(init), "--t", "0.1"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["results"]["solvability"]["verdict"] == "refuted-up-to-K"

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_default_degree_cap_is_the_exact_audited_maximum(self, tmp_path, capsys, exact):
        # Deg = 1/3 everywhere, which no binary64 number equals
        doc = dict(K2_DOC, vertices=[{"id": 0, "mu": 3}, {"id": 1, "mu": 3}],
                   edges=[{"u": 0, "v": 1, "w": 1}])
        path = write_graph(tmp_path, doc)
        code, out = run(["backward", "--graph", path, "--t", "0.1"] + exact, capsys)
        assert code == 0
        assert json.loads(out)["config"]["degree_bound"] == 1 / 3

    def test_negative_kmax_named(self):
        code, err = _exit_and_stderr(["backward", "--family", "z", "--kmax=-5"])
        assert code == 2
        assert "kmax" in err and "islice" not in err

    @pytest.mark.parametrize("cap", ("nan", "inf", "-inf", "1e400"))
    def test_non_finite_degree_bound_exit2(self, cap):
        code, err = _exit_and_stderr(
            ["backward", "--family", "z", f"--degree-bound={cap}", "--kmax", "3"]
        )
        assert code == 2
        assert "degree cap" in err and "Traceback" not in err

    @pytest.mark.parametrize("cap", ("nan", "1"))
    def test_bad_degree_bound_refused_before_any_kernel_call(self, cap, monkeypatch):
        calls = []
        original = laplacian_mod.apply_laplacian

        def counting(graph, f):
            calls.append(len(f))
            return original(graph, f)

        monkeypatch.setattr(laplacian_mod, "apply_laplacian", counting)
        code, err = _exit_and_stderr(
            ["backward", "--family", "lattice:3", "--t=1", "--rmax", "4",
             f"--degree-bound={cap}", "--kmax", "3"]
        )
        assert code == 2
        assert ("degree cap" if cap == "nan" else "degree bound violated") in err
        assert calls == []

    @pytest.mark.parametrize("cap", ([], ["--degree-bound", "1"]))
    def test_unreachable_time_refused_before_any_kernel_call(self, cap, monkeypatch):
        calls = []
        original = laplacian_mod.apply_laplacian

        def counting(graph, f):
            calls.append(len(f))
            return original(graph, f)

        monkeypatch.setattr(laplacian_mod, "apply_laplacian", counting)
        code, err = _exit_and_stderr(
            ["backward", "--family", "z", "--t=1e9", "--kmax", "600", "--rmax", "1"] + cap
        )
        assert code == 2
        # a time refusal wins over a finite cap below the audited Deg
        assert err == ("error: the backward scale e^(2z) is not finite in binary64: "
                       "||a||_2 = 1, z = D|t| = 2e+09\n")
        assert calls == []

    @pytest.mark.parametrize("cap", ("-1", "-1e-300"))
    def test_negative_degree_bound_named_before_any_kernel_call(self, cap, monkeypatch):
        calls = []
        original = laplacian_mod.apply_laplacian

        def counting(graph, f):
            calls.append(len(f))
            return original(graph, f)

        monkeypatch.setattr(laplacian_mod, "apply_laplacian", counting)
        # the cap is refused before the unreachable time and any iterate
        code, err = _exit_and_stderr(
            ["backward", "--family", "lattice:3", "--t=1e9", "--rmax", "4",
             f"--degree-bound={cap}", "--kmax", "3"]
        )
        assert code == 2
        assert err == f"error: negative degree cap {float(cap)!r}\n"
        assert calls == []

    def test_zero_degree_bound_is_met_by_an_edgeless_graph(self, tmp_path, capsys):
        doc = {"root": 0, "vertices": [{"id": 0, "mu": 1}], "edges": []}
        code, out = run(["backward", "--graph", write_graph(tmp_path, doc),
                         "--degree-bound", "0", "--kmax", "2", "--rmax", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["degree_bound"] == 0
        assert report["results"]["solvability"]["verdict"] == "certified"

    def test_degree_cap_refusal_wins_over_a_time_refusal(self):
        code, err = _exit_and_stderr(
            ["backward", "--family", "z", "--t=1e9", "--degree-bound=nan", "--kmax", "3"]
        )
        assert code == 2
        assert err == "error: non-finite degree cap nan\n"

    @pytest.mark.parametrize("argv, option", [
        (["solve", "--rmax=-1"], "--rmax"),
        (["backward", "--rmax=-1"], "--rmax"),
        (["backward", "--kmax=-1"], "--kmax"),
    ])
    def test_negative_window_named(self, argv, option):
        code, err = _exit_and_stderr(argv + ["--family", "z"])
        assert code == 2
        assert err == f"error: {option} must be nonnegative, not -1\n"

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_rows_are_the_forward_series_at_negated_time(self, exact, capsys):
        window = ["--family", "z", "--rmax", "2"] + exact
        code, out = run(["backward", "--t=0.1,0,0.25", "--kmax", "3"] + window, capsys)
        assert code == 0
        backward = json.loads(out)["results"]["evaluations"]
        code, out = run(["solve", "--t=-0.1,0,-0.25"] + window, capsys)
        assert code == 0
        forward = json.loads(out)["results"]["evaluations"]
        assert [row["t"] for row in backward] == [0.1, 0.0, 0.25] * 5
        assert [dict(row, t=None) for row in backward] == [dict(row, t=None) for row in forward]

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_disconnected_document_is_inconclusive(self, tmp_path, capsys, exact):
        doc = {
            "root": 0,
            "vertices": [{"id": i, "mu": 1.0} for i in (0, 1, 5, 6)],
            "edges": [{"u": 0, "v": 1, "w": 1.0}, {"u": 5, "v": 6, "w": 1.0}],
        }
        init = tmp_path / "a.json"
        init.write_text(json.dumps([[5, 1.0]]))
        code, out = run(
            ["backward", "--graph", write_graph(tmp_path, doc), "--initial", str(init),
             "--kmax", "3", "--rmax", "1"] + exact,
            capsys,
        )
        assert code == 1
        solvability = json.loads(out)["results"]["solvability"]
        assert solvability["verdict"] == "inconclusive"
        assert solvability["note"] == (
            "audit region not connected to the root: no path from 5 to 0"
        )


# five float values on lattice:3, around the root and summed in an order
# the window does not give
FIVE_ON_LATTICE3 = [[[1, 0, 0], 0.245803], [[0, 0, 0], 0.483574], [[0, -1, 0], 0.590387],
                    [[0, 0, 1], 0.884901], [[-1, 0, 0], 0.479797]]


class TestValuesDependOnlyOnTheQuestion:
    """A float value depends on the graph, the data and t, not on the window
    or the audit that ran before it."""

    @staticmethod
    def rows(argv, tmp_path, capsys):
        init = tmp_path / "five.json"
        init.write_text(json.dumps(FIVE_ON_LATTICE3))
        code, out = run(argv + ["--family", "lattice:3", "--initial", str(init)], capsys)
        assert code == 0
        return json.loads(out)["results"]["evaluations"]

    def test_solve_rows_do_not_depend_on_rmax(self, tmp_path, capsys):
        rows = {rmax: {json.dumps([row["vertex"], row["t"]]): row for row in self.rows(
                    ["solve", "--t=1,-0.5", "--rmax", str(rmax)], tmp_path, capsys)}
                for rmax in (1, 2, 3)}
        for small, large in ((1, 2), (1, 3), (2, 3)):
            assert rows[small].keys() <= rows[large].keys()
            assert [rows[large][key] for key in rows[small]] == list(rows[small].values())

    def test_backward_rows_do_not_depend_on_kmax(self, tmp_path, capsys):
        short, long = (self.rows(["backward", "--t=2", "--rmax", "2", "--kmax", kmax],
                                 tmp_path, capsys) for kmax in ("2", "12"))
        assert len(short) == 25 and short == long


# a seeded 30-vertex graph document (the audits workload's, seed 35) whose
# data peaks at distance 2, beyond every grid rate from the inner spheres
SEED35_MU = (1.481, 0.63, 0.869, 1.799, 0.89, 1.51, 1.951, 0.598, 0.555, 1.119, 1.245,
             1.574, 1.785, 1.23, 0.999, 1.304, 1.579, 1.303, 1.091, 1.348, 1.723, 0.713,
             0.981, 1.794, 0.83, 1.06, 0.697, 1.019, 1.5, 1.466)
SEED35_EDGES = (
    (0, 4, 0.804), (0, 5, 0.908), (0, 10, 1.964), (0, 19, 0.831), (0, 21, 1.234),
    (0, 22, 0.671), (0, 24, 0.951), (0, 27, 0.592), (1, 12, 1.915), (2, 12, 1.991),
    (2, 14, 1.409), (2, 20, 0.987), (3, 4, 0.89), (3, 24, 1.13), (4, 9, 1.146),
    (5, 7, 1.635), (5, 26, 1.502), (6, 12, 1.764), (6, 14, 1.367), (6, 29, 1.369),
    (7, 12, 1.191), (7, 15, 0.642), (7, 23, 0.926), (7, 24, 1.57), (7, 25, 1.912),
    (8, 28, 1.633), (9, 19, 1.404), (10, 26, 1.32), (10, 27, 1.159), (11, 20, 1.591),
    (11, 23, 1.226), (12, 16, 0.912), (12, 17, 1.333), (12, 19, 1.844), (12, 25, 1.472),
    (13, 21, 1.39), (15, 18, 1.379), (16, 27, 1.953), (17, 20, 0.929), (17, 21, 1.48),
    (17, 29, 1.048), (18, 26, 1.8), (25, 28, 1.555), (28, 29, 1.264),
)
SEED35_DOC = {
    "root": 0,
    "vertices": [{"id": i, "mu": mu} for i, mu in enumerate(SEED35_MU)],
    "edges": [{"u": u, "v": v, "w": w} for u, v, w in SEED35_EDGES],
}
SEED35_DATA = [[17, 1.0], [26, -0.230256], [22, -0.047312]]


class TestRadiusCommand:
    def test_explicit_constants(self, capsys):
        code, out = run(
            [
                "radius",
                "--amplitude", "1", "--rate", "1",
                "--deg-cap", "3", "--deg-power", "0",
                "--kmax", "5",
            ],
            capsys,
        )
        assert code == 0
        cert = json.loads(out)["results"]["certificate"]
        assert cert["kind"] == "finite-lower-bound"
        assert cert["radius"] == pytest.approx(1 / (6 * math.e), rel=1e-15)

    def test_fitted_line(self, capsys):
        code, out = run(["radius", "--family", "z", "--rmax", "4"], capsys)
        assert code == 0
        report = json.loads(out)["results"]
        assert report["degree_growth"] == {
            "cap": 2.0,
            "power": 0.0,
            "source": "fitted",
        }
        assert report["certificate"]["kind"] == "infinite"
        table = report["remainder_table"]
        assert table and table[-1]["Q"] < table[0]["Q"]

    def test_underflowing_window_scale(self, capsys):
        # 2 delta cap underflows to 0: the envelope is 0, not a domain error
        code, out = run(["radius", "--family", "z", "--deg-cap", "0.1", "--delta", "5e-324"],
                        capsys)
        assert code == 0
        table = json.loads(out)["results"]["remainder_table"]
        assert table and all(row["Q"] == 0 for row in table)

    @pytest.mark.parametrize("option", ("--kmax=-5", "--rmax=-3"))
    def test_negative_window_named(self, option):
        code, err = _exit_and_stderr(["radius", option])
        assert code == 2
        assert option.split("=")[0] in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, name", [
        (["--amplitude", "1", "--rate=nan"], "rate"),
        (["--deg-cap", "2", "--deg-power=nan"], "power"),
        (["--amplitude=inf"], "amplitude"),
        (["--delta=inf"], "delta"),
        (["--deg-cap=inf", "--amplitude", "1", "--rate", "1"], "cap"),
    ])
    def test_non_finite_constant_named(self, argv, name):
        code, err = _exit_and_stderr(["radius", "--family", "z", "--kmax", "2"] + argv)
        assert code == 2
        assert err.startswith(f"error: non-finite {name} ") and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--kmax", "0", "--delta=-1"], "delta must be positive"),
        (["--kmax", "3", "--amplitude", "1", "--rate", "2", "--delta=nan"],
         "delta must be positive"),
        (["--kmax", "3", "--amplitude", "1", "--rate", "2", "--delta=inf"],
         "non-finite delta inf"),
    ])
    def test_meaningless_delta_refused_whatever_the_kind(self, argv, message):
        code, err = _exit_and_stderr(["radius", "--family", "z"] + argv)
        assert code == 2
        assert err == f"error: {message}\n"

    def test_root_without_edges_names_the_fitted_cap(self, tmp_path):
        doc = {"root": 0, "vertices": [{"id": 0, "mu": 1}], "edges": []}
        code, err = _exit_and_stderr(["radius", "--graph", write_graph(tmp_path, doc)])
        assert code == 2
        assert err == (
            "error: fitted degree cap 0.0 is not positive and finite: the root 0 has no edges\n"
        )

    @pytest.mark.parametrize("mu, w, delta", [
        (1, 1e308, "0.0"), (1e-308, 1, "0.0"), (1, 5e-324, "inf"),
    ])
    def test_derived_window_beyond_binary64_is_named(self, tmp_path, mu, w, delta):
        doc = {
            "root": 0,
            "vertices": [{"id": 0, "mu": mu}, {"id": 1, "mu": mu}],
            "edges": [{"u": 0, "v": 1, "w": w}],
        }
        code, err = _exit_and_stderr(["radius", "--graph", write_graph(tmp_path, doc)])
        assert code == 2
        assert err.startswith(f"error: derived window delta = 0.9 / (2 e cap) = {delta} ")
        assert "degree cap" in err and "--delta" in err

    def test_degree_growth_beyond_the_grid_gets_the_flat_envelope(self, tmp_path, capsys):
        # Deg = 1e6 + 1 at distance 2 outgrows cap * d^power for every grid
        # power, so the finite graph gets the flat envelope at its largest Deg
        weights = (1, 1, 1e6, 1)
        doc = {
            "root": 0,
            "vertices": [{"id": i, "mu": 1} for i in range(5)],
            "edges": [{"u": i, "v": i + 1, "w": w} for i, w in enumerate(weights)],
        }
        code, out = run(["radius", "--graph", write_graph(tmp_path, doc)], capsys)
        assert code == 0
        growth = json.loads(out)["results"]["degree_growth"]
        assert (growth["cap"], growth["power"], growth["source"]) == (1000001.0, 0.0, "fitted")

    @pytest.mark.parametrize("option, partner", [
        ("--rate=0.5", "--amplitude"), ("--deg-power=0.5", "--deg-cap"),
    ])
    def test_exponent_without_its_envelope_refused(self, option, partner):
        code, err = _exit_and_stderr(["radius", "--family", "z", "--kmax", "2", option])
        assert code == 2
        assert option.split("=")[0] in err and partner in err

    def test_bad_explicit_constant_refused_before_fitting(self, monkeypatch):
        def fit(*args):
            raise AssertionError("fitted before the explicit constants were checked")

        monkeypatch.setattr(bounds_mod, "fit_growth_profile", fit)
        code, err = _exit_and_stderr(["radius", "--family", "z", "--deg-cap=-1"])
        assert (code, err) == (2, "error: cap must be positive\n")

    def test_omitted_exponents_recorded_as_zero(self, capsys):
        code, out = run(
            ["radius", "--family", "z", "--kmax", "2", "--amplitude", "1", "--deg-cap", "2"],
            capsys,
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert list(config)[-7:] == ["rmax", "kmax", "amplitude", "rate", "deg_cap",
                                     "deg_power", "delta"]
        assert (config["rate"], config["deg_power"]) == (0.0, 0.0)

    def test_unfittable_finite_data_gets_the_flat_envelope(self, tmp_path, capsys):
        initial = tmp_path / "graph.initial.json"
        initial.write_text(json.dumps(SEED35_DATA))
        argv = ["radius", "--graph", write_graph(tmp_path, SEED35_DOC), "--initial",
                str(initial), "--rmax", "3"]
        code, out = run(argv, capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert (results["profile"]["amplitude"], results["profile"]["rate"]) == (1.0, 0.0)
        assert results["profile"]["source"] == "fitted"
        # the fitted degree power (1.2) alone puts it out of hypothesis
        assert results["degree_growth"]["power"] == 1.2
        assert results["certificate"]["kind"] == "out-of-hypothesis"

    def test_profile_fit_window_is_at_least_two(self, capsys):
        profiles = []
        for rmax in ("0", "1", "2"):
            code, out = run(["radius", "--rmax", rmax, "--kmax", "3"], capsys)
            assert code == 0
            profiles.append(json.loads(out)["results"]["profile"])
        assert profiles[0] == profiles[1] == profiles[2]


class TestCounterexampleCommand:
    def test_audit_bundle(self, tmp_path, capsys):
        out_file = tmp_path / "cx.json"
        code, _ = run(
            [
                "counterexample",
                "--beta", "4", "--epsilon", "1",
                "--xmax", "20",
                "--out", str(out_file),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        results = report["results"]
        assert results["residual_poly_zero"] is True
        assert results["growth_pass"] is True
        assert results["max_residual"] <= 1e-9 * results["max_value"]
        assert results["conclusion"]["not_time_analytic"] is True
        assert report["config"]["T"] == 1.0

    def test_a_negative_sample_shows_a_nonzero_solution(self, capsys):
        # at beta 10 the solution at x = 3 is zero, zero, then negative
        code, out = run(
            ["counterexample", "--beta", "10", "--xmax", "12", "--kmax", "3"], capsys
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert [v for _, v in results["positivity"][3]["samples"]][:2] == [0, 0]
        assert results["positivity"][3]["samples"][2][1] < 0
        assert results["conclusion"]["not_time_analytic"] is True

    def test_bad_theta_exit2(self, capsys):
        code, _ = run(["counterexample", "--beta", "4", "--theta", "0.95"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "option, name",
        [("--T=1e400", "time_shift"), ("--epsilon=inf", "epsilon"),
         ("--tol=inf", "tol"), ("--tol=nan", "tol"), ("--tol=-1", "tol")],
    )
    def test_meaningless_value_exit2(self, option, name):
        code, err = _exit_and_stderr(["counterexample", "--xmax", "8", "--kmax", "1", option])
        assert code == 2
        assert name in err and "Traceback" not in err

    @staticmethod
    def _counting(monkeypatch, names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            fn = getattr(cx_mod, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cx_mod, name, counted)
        return calls

    def test_bad_tol_refused_before_any_evaluation(self, monkeypatch):
        calls = self._counting(monkeypatch, ["_column"])
        code, err = _exit_and_stderr(["counterexample", "--tol=nan"])
        assert code == 2
        assert err == "error: tol must be finite and positive, not nan\n"
        assert calls == {"_column": 0}

    def test_empty_window_refused_before_residuals_and_huang(self, monkeypatch):
        names = ["heat_residual_1d", "huang_bound_audit", "_column"]
        calls = self._counting(monkeypatch, names)
        code, err = _exit_and_stderr(["counterexample", "--xmax", "3"])
        assert code == 2
        assert err == (
            "error: audit window empty: admissible radius starts at "
            "6.594885082800512, window ends at 3\n"
        )
        assert calls == dict.fromkeys(names, 0)

    def test_empty_window_at_a_large_beta_refused_at_once(self):
        # the flatness witnesses at beta 10000 take seconds; none may run
        start = time.perf_counter()
        code, err = _exit_and_stderr(["counterexample", "--beta", "10000", "--xmax", "3",
                                      "--kmax", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == (
            "error: audit window empty: admissible radius starts at "
            "10.870952905821461, window ends at 3\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["--kmax", "0", "--tol=nan", "--xmax", "3"], "kmax must be >= 1"),
        (["--tol=nan", "--xmax", "3"], "tol must be finite and positive, not nan"),
        (["--beta", "2", "--epsilon", "0.5", "--xmax", "3"],
         "growth audit needs beta > max(1, 2/epsilon)"),
    ])
    def test_the_first_bad_input_is_named(self, monkeypatch, argv, message):
        calls = self._counting(monkeypatch, ["_column"])
        code, err = _exit_and_stderr(["counterexample"] + argv)
        assert code == 2
        assert err == f"error: {message}\n"
        assert calls == {"_column": 0}


def _old_iterate_errors(exact):
    """verify's iterates-vs-dense errors with a fresh table and product per k."""
    for name, graph in cli._verify_fixtures():
        initial = cli._unit_delta(graph, exact)
        op = dense_laplacian(graph)
        vec = op.vector_of(initial)
        err = 0.0
        for k in range(0, 9):
            ref = brute_iterate(op, vec, k)
            scale = max(1.0, max(abs(float(v)) for v in ref))
            mine = IteratedLaplacianTable(graph, initial).entry(k)
            err = max(
                err,
                max(
                    abs(float(mine(x)) - float(ref[op.index[x]])) / scale
                    for x in graph.vertices()
                ),
            )
        yield name, err


class TestVerifyCommand:
    def test_passes_and_deterministic(self, tmp_path, capsys):
        f1, f2 = tmp_path / "v1.json", tmp_path / "v2.json"
        assert main(["verify", "--out", str(f1)]) == 0
        assert main(["verify", "--out", str(f2)]) == 0
        b1, b2 = f1.read_bytes(), f2.read_bytes()
        assert b1 == b2
        report = json.loads(b1)
        assert report["pass"] is True
        assert all(c["pass"] for c in report["results"]["checks"])

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_iterate_errors_match_the_recomputed_reference(self, capsys, exact):
        code, out = run(["verify"] + exact, capsys)
        assert code == 0
        mine = {
            c["graph"]: c["max_err"]
            for c in json.loads(out)["results"]["checks"]
            if c["check"] == "iterates-vs-dense@k<=8"
        }
        assert mine == dict(_old_iterate_errors(bool(exact)))

    def test_one_table_and_one_running_product_per_fixture(self, monkeypatch, capsys):
        tables, products, cones = [], [], []
        init = laplacian_mod.IteratedLaplacianTable.__init__
        cone = laplacian_mod.light_cone_iterates

        def counted_init(self, *args):
            tables.append(self)
            init(self, *args)

        def counted_cone(*args):
            cones.append(args[-1])
            return cone(*args)

        def counted_iterate(op, vec, k):
            products.append(k)
            return brute_iterate(op, vec, k)

        monkeypatch.setattr(laplacian_mod.IteratedLaplacianTable, "__init__", counted_init)
        monkeypatch.setattr(cli, "brute_iterate", counted_iterate)
        monkeypatch.setattr(series_mod, "light_cone_iterates", counted_cone)
        code, _ = run(["verify"], capsys)
        assert code == 0
        graphs = [graph for _, graph in cli._verify_fixtures()]
        regular = [graph.is_regular for graph in graphs]
        # the L^k table of the iterate check, a T_k table on a regular
        # fixture, and one cone pass for the three backward times, on the
        # T_k table there and on the L^k table elsewhere
        kinds = [isinstance(t.step, laplacian_mod.ChebyshevStep) for t in tables]
        assert kinds.count(False) == len(graphs)
        assert kinds.count(True) == regular.count(True) == 2
        assert [isinstance(step, laplacian_mod.ChebyshevStep) for step in cones] == regular
        assert products == [1] * 8 * len(graphs)

    def test_csv_projection(self, capsys):
        code, out = run(["verify", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "graph,check,max_err,threshold,pass"
        assert len(lines) > 10


class TestSchemaErrors:
    def test_bad_graph_exit2(self, tmp_path, capsys):
        doc = dict(K2_DOC, edges=[{"u": 0, "v": 0, "w": 1.0}])
        path = write_graph(tmp_path, doc)
        code, _ = run(["solve", "--graph", path, "--t=0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("value", [[1], "1", None, True])
    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_non_numeric_initial_exit2(self, tmp_path, capsys, value, exact):
        init = tmp_path / "a.json"
        init.write_text(json.dumps([[0, value]]))
        code = main(["solve", "--family", "z", "--initial", str(init), "--t=0.1"] + exact)
        assert code == 2
        assert "non-numeric" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, literal",
        [
            ('"mu": 2', '"mu": "a"'),
            ('"mu": 2', '"mu": true'),
            ('"mu": 2', '"mu": 1e400'),
            ('"w": 1', '"w": "1"'),
            ('"w": 1', '"w": false'),
            ('"w": 1', '"w": 1e400'),
            ('"w": 1', '"w": NaN'),
            ('"id": 0', '"id": [1]'),
            ('"root": 0', '"root": [0]'),
            ('"u": 0', '"u": {"a": 0}'),
        ],
    )
    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_bad_graph_value_exit2(self, tmp_path, capsys, field, literal, exact):
        text = ('{"root": 0, "vertices": [{"id": 0, "mu": 2}, {"id": 1, "mu": 1}], '
                '"edges": [{"u": 0, "v": 1, "w": 1}]}')
        assert field in text
        path = tmp_path / "g.json"
        path.write_text(text.replace(field, literal, 1))
        code = main(["solve", "--graph", str(path), "--t=0"] + exact)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["laplacian", "solve"])
    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_non_finite_initial_exit2(self, tmp_path, capsys, command, exact):
        init = tmp_path / "a.json"
        init.write_text("[[0, 1], [1, 1e400]]")
        code = main([command, "--family", "z", "--initial", str(init)] + exact)
        err = capsys.readouterr().err
        assert code == 2
        assert "non-finite value" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, exact, shown", [
        ("[[0, 1], [1, 1e400]]", [], "non-finite value inf at vertex 1"),
        ("[[0, 1], [1, 1e400]]", ["--exact"],
         r"non-finite value ~1e\+400 \(Fraction\) at vertex 1"),
        ('[[0, 1], [-3, "%s"]]' % ("x" * 500), [],
         r"non-numeric value 'x{23}\.\.\. \(str\) at vertex -3"),
    ], ids=["float", "exact", "string"])
    def test_refused_initial_value_is_short_and_names_its_vertex(self, tmp_path, text, exact,
                                                               shown):
        init = tmp_path / "a.json"
        init.write_text(text)
        code, err = _exit_and_stderr(["solve", "--family", "z", "--initial", str(init)] + exact)
        assert code == 2
        assert re.fullmatch(f"error: {shown} of the initial data\n", err)
        assert len(err) < 100

    @pytest.mark.parametrize("command", ["solve", "backward", "radius", "laplacian"])
    @pytest.mark.parametrize("mu, w, message", [
        # the measure 1e-400 rounds to 0.0; Deg = 1e300 / 1e-300 lies beyond binary64
        ("1e-400", "1", r"measure ~1e-400 \(Fraction\) at vertex 1 rounds to 0.0 in binary64"),
        ("1e-300", "1e300", "Deg = weight sum / measure at vertex 1 is not finite in binary64"),
    ])
    def test_exact_graph_numbers_beyond_binary64_exit2(self, tmp_path, capsys, command, mu, w,
                                                       message):
        path = tmp_path / "g.json"
        path.write_text('{"root": 0, "vertices": [{"id": 0, "mu": 1}, {"id": 1, "mu": %s}], '
                        '"edges": [{"u": 0, "v": 1, "w": %s}]}' % (mu, w))
        code = main([command, "--graph", str(path), "--exact"])
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(f"error: {message}\n", err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "--family", "z"],
            ["counterexample", "--graph", "g.json"],
            ["counterexample", "--exact"],
            ["verify", "--graph", "g.json"],
            ["verify", "--family", "z"],
        ],
    )
    def test_options_a_command_never_reads_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_json_graph_exit2(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"root": 0,')
        code, err = _exit_and_stderr(["solve", "--graph", str(path)])
        assert code == 2
        assert err.startswith("error: invalid JSON: ") and "Traceback" not in err

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_duplicate_initial_vertex_exit2(self, tmp_path, exact):
        init = tmp_path / "a.json"
        init.write_text("[[0, 1.0], [1, 3.0], [0, 2.0]]")
        code, err = _exit_and_stderr(
            ["solve", "--family", "z", "--initial", str(init)] + exact
        )
        assert code == 2
        value = "Fraction(2, 1)" if exact else "2.0"
        assert err == f"error: duplicate vertex 0 in initial-data record [0, {value}]\n"

    @pytest.mark.parametrize("command", ["solve", "backward"])
    @pytest.mark.parametrize("spec, exact, message", [
        ("1/2", [], "--t: '1/2' is not a float (rationals need --exact)"),
        ("0.1,x", [], "--t: 'x' is not a float (rationals need --exact)"),
        ("abc", ["--exact"], "--t: 'abc' is not a rational"),
        ("1/0", ["--exact"], "--t: '1/0' is not a rational"),
    ])
    def test_unparsable_time_names_the_option(self, command, spec, exact, message):
        code, err = _exit_and_stderr([command, "--family", "z", f"--t={spec}"] + exact)
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        ("lattice:1.5", "family 'lattice:1.5': dimension '1.5' is not an integer"),
        ("tree:x", "family 'tree:x': degree 'x' is not an integer"),
        ("z:3", "family 'z:3': z takes no parameter"),
        ("z:", "family 'z:': z takes no parameter"),
    ])
    def test_bad_family_spec_named(self, spec, message):
        code, err = _exit_and_stderr(["solve", "--family", spec, "--t=0"])
        assert code == 2
        assert err == f"error: {message}\n"

    def test_malformed_initial_record_exit2(self, tmp_path):
        init = tmp_path / "a.json"
        init.write_text("[[0, 1.0], [1]]")
        code, err = _exit_and_stderr(["solve", "--family", "z", "--initial", str(init)])
        assert code == 2
        assert err == "error: malformed initial-data record [1]\n"

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_invalid_json_initial_named_exit2(self, tmp_path, exact):
        init = tmp_path / "a.json"
        init.write_text("not json")
        code, err = _exit_and_stderr(["solve", "--family", "z", "--initial", str(init)] + exact)
        assert code == 2
        assert err == (f"error: initial data file {init}: invalid JSON: "
                       "Expecting value: line 1 column 1 (char 0)\n")

    @pytest.mark.parametrize("text", ["5", "null", '{"0": 1.0}'])
    def test_initial_document_not_an_array_exit2(self, tmp_path, text):
        init = tmp_path / "a.json"
        init.write_text(text)
        code, err = _exit_and_stderr(["solve", "--family", "z", "--initial", str(init)])
        assert code == 2
        assert err == (f"error: initial data file {init} must be a JSON array "
                       "[[vertex, value], ...]\n")

    @pytest.mark.parametrize("argv", [
        ["solve", "--t=5", "--rmax", "0"], ["backward", "--kmax", "3"], ["verify"],
    ])
    @pytest.mark.parametrize("tol, message", [
        ("inf", "non-finite tolerance inf"),
        ("nan", "tolerance must be positive"),
        ("0", "tolerance must be positive"),
    ])
    def test_meaningless_tol_exit2(self, argv, tol, message):
        code, err = _exit_and_stderr(argv + [f"--tol={tol}"])
        assert code == 2
        assert err == f"error: {message}\n"

    def test_missing_file_exit2(self, capsys):
        code, _ = run(["solve", "--graph", "/nonexistent.json", "--t=0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["solve", "backward"])
    @pytest.mark.parametrize("spec, exact", [
        ("nan", []), ("inf", []), ("-inf", []), ("1e400", []), ("1e400", ["--exact"]),
        ("0.1,1e400", []),
    ])
    def test_non_finite_time_exit2(self, capsys, command, spec, exact):
        code = main([command, "--family", "z", f"--t={spec}"] + exact)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: non-finite time") and "tail bound" not in err


class TestExactMode:
    def test_exact_flag_recorded(self, tmp_path, capsys):
        path = write_graph(tmp_path, K2_DOC)
        code, out = run(
            ["laplacian", "--graph", path, "--exact", "--kmax", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["arithmetic"] == "exact"

    def test_exact_line_iterates_are_binomials(self, capsys):
        code, out = run(["laplacian", "--family", "z", "--exact", "--kmax", "12"], capsys)
        assert code == 0
        values = {
            (row["k"], row["vertex"]): row["value"]
            for row in json.loads(out)["results"]["values"]
        }
        expected = {
            (k, x): (-1) ** (k + x) * math.comb(2 * k, k + x)
            for k in range(13)
            for x in range(-k, k + 1)
        }
        assert values == expected

    def test_iterates_beyond_binary64_report_signed_inf(self, tmp_path, capsys):
        init = tmp_path / "a.json"
        init.write_text("[[0, 1e300]]")
        argv = ["laplacian", "--family", "z", "--kmax", "20", "--initial", str(init)]
        reports = []
        for exact in ([], ["--exact"]):
            assert main(argv + exact) == 0
            reports.append(json.loads(capsys.readouterr().out)["results"]["values"])
        # as in float mode, where these iterates overflow
        infinite = [[(r["k"], r["vertex"], r["value"]) for r in rows
                     if r["value"] in ("inf", "-inf")] for rows in reports]
        assert infinite[0] and infinite[1] == infinite[0]

    def test_backward_audit_beyond_binary64_inconclusive(self, tmp_path, capsys):
        init = tmp_path / "a.json"
        init.write_text("[[0, 1e300]]")
        code, out = run(["backward", "--family", "z", "--exact", "--kmax", "20", "--rmax", "1",
                         "--t=1/1000", "--initial", str(init)], capsys)
        assert code == 1
        results = json.loads(out)["results"]
        assert results["solvability"]["note"] == "an audited iterate is not finite in binary64"
        assert all(math.isfinite(row["value"]) for row in results["evaluations"])


def _table_value_types(monkeypatch, argv, initial, capsys, tmp_path):
    """Types of every iterate value the command computed, with the default
    unit delta and with `initial` as the --initial file."""
    seen = set()
    original = laplacian_mod.apply_laplacian

    def recording(graph, f):
        out = original(graph, f)
        seen.update(type(v) for _, v in out.items())
        return out

    monkeypatch.setattr(laplacian_mod, "apply_laplacian", recording)
    init = tmp_path / "a.json"
    init.write_text(json.dumps(initial))
    for extra in ([], ["--initial", str(init)]):
        code, _ = run(argv + extra, capsys)
        assert code == 0
    return seen


class TestArithmetic:
    """Float64 unless --exact, whatever the Python types of the inputs."""

    # integer and decimal literals mixed in one initial-data file
    LINE_DATA = [[0, 1], [1, -2], [2, 0.5]]
    COMMANDS = (
        (["laplacian", "--family", "z", "--kmax", "4"], LINE_DATA),
        (["solve", "--family", "z", "--t=-0.5,0.5", "--rmax", "2"], LINE_DATA),
        (
            ["solve", "--family", "lattice:2", "--t=0.2", "--rmax", "1"],
            [[[0, 0], 1], [[1, 0], -2], [[0, 1], 0.5]],
        ),
    )

    @pytest.mark.parametrize("argv, initial", COMMANDS)
    def test_default_builds_float_tables(self, argv, initial, monkeypatch, capsys, tmp_path):
        seen = _table_value_types(monkeypatch, argv, initial, capsys, tmp_path)
        assert seen == {float}

    @pytest.mark.parametrize("argv, initial", COMMANDS)
    def test_exact_builds_rational_tables(self, argv, initial, monkeypatch, capsys, tmp_path):
        seen = _table_value_types(monkeypatch, argv + ["--exact"], initial, capsys, tmp_path)
        assert seen and seen <= {int, Fraction}


def _old_fmt_float(x):
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(x, ".17g")


def _old_canonical(obj, out):
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(_old_fmt_float(obj))
    elif isinstance(obj, Fraction):
        out.write(json.dumps(str(obj)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, item in enumerate(obj):
            if i:
                out.write(", ")
            _old_canonical(item, out)
        out.write("]")
    elif isinstance(obj, dict):
        out.write("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.write(", ")
            out.write(json.dumps(str(key)))
            out.write(": ")
            _old_canonical(val, out)
        out.write("}")
    else:
        out.write(json.dumps(str(obj)))


def old_canonical_json(obj):
    """The isinstance-chain serializer the type dispatch replaced: the oracle."""
    buf = io.StringIO()
    _old_canonical(obj, buf)
    buf.write("\n")
    return buf.getvalue()


REPORT_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.fractions(),
    st.text(),
)
REPORT_KEYS = st.one_of(
    st.text(), st.integers(), st.booleans(), st.floats(), st.fractions(), st.tuples(st.integers())
)
REPORTS = st.recursive(
    REPORT_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(REPORT_KEYS, inner, max_size=4),
    ),
    max_leaves=25,
)


def _captured_report(argv):
    """Run `argv` and return (exit code, stdout, the report handed to canonical_json)."""
    captured = []
    original = cli.canonical_json

    def recording(report):
        captured.append(report)
        return original(report)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "canonical_json", recording)
        code = main(argv)
    (report,) = captured
    return code, out.getvalue(), report


def _expanded(obj):
    """`obj` with each evaluation grid replaced by the list of its row dicts."""
    if type(obj) is cli._EvalGrid:
        return list(obj.rows())
    if type(obj) is dict:
        return {key: _expanded(val) for key, val in obj.items()}
    return obj


def _plain_floats(obj):
    """Every exact float in `obj`, keys excluded, in document order."""
    if type(obj) is float:
        return [obj]
    items = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else ()
    return [x for item in items for x in _plain_floats(item)]


# the times of a heatmap grid: 0.5 apart across [-3, 3]
HEATMAP_ARGV = ["solve", "--family", "z", "--t=" + ",".join(str(t / 2) for t in range(-6, 7)),
                "--rmax", "10"]


class TestCanonicalJson:
    @given(REPORTS)
    @settings(max_examples=300, deadline=None)
    # equal keys of different types print apart, so str keys alone are cached
    @example([{1: 0}, {True: 0}, {1.0: 0}, {Fraction(1): 0}, {"1": 0}, {"True": 0}])
    @example({"a": [math.inf, -math.inf, math.nan, -0.0, np.float64(math.nan)], "b": {"a": ("a",)}})
    # the float memo: 0.0 and -0.0 are equal keys that print apart, nan equals
    # nothing, and 1, True and np.float64 equal floats but take other paths
    @example([0.0, -0.0, 0.0, -0.0])
    @example({"a": -0.0, "b": 0.0, "c": -0.0})
    @example([{"t": 0.0, "v": 0.1}, {"t": -0.0, "v": 0.1}])
    @example([math.nan, math.nan, {"a": math.nan, "b": math.nan}])
    @example([math.nan, float("nan"), {"a": float("nan"), "b": -math.nan}])
    @example([math.inf, -math.inf, math.inf, {"a": -math.inf, "b": math.inf}])
    @example([0.1, np.float64(0.1), 0.1])
    @example([1.0, 1, True, 1.0])
    @example({"x": 1.0, "y": 1, "z": True})
    def test_byte_identical_to_the_isinstance_chain(self, report):
        assert canonical_json(report) == old_canonical_json(report)

    def test_a_real_report(self):
        code, out, report = _captured_report(
            ["backward", "--family", "z", "--t=0.1,0.5", "--kmax", "6"]
        )
        assert code == 0
        assert out == old_canonical_json(_expanded(report))

    def test_a_heatmap_shaped_report(self):
        code, out, report = _captured_report(HEATMAP_ARGV)
        assert code == 0
        rows = list(report["results"]["evaluations"].rows())
        assert len(rows) == 21 * 13
        # the memo's hits: u(x, t) = u(-x, t), and t and tail_bound repeat down a time
        by_point = {(row["vertex"], row["t"]): row for row in rows}
        assert all(by_point[(-x, t)]["value"] == row["value"] for (x, t), row in by_point.items())
        assert len({row["tail_bound"] for row in rows}) <= 13
        floats = _plain_floats(_expanded(report))
        assert len(set(floats)) < len(floats) / 2
        assert out == old_canonical_json(_expanded(report))

    def test_each_distinct_float_is_formatted_once(self, monkeypatch):
        report = {
            "grid": _captured_report(HEATMAP_ARGV)[2],
            "zeros": [0.0, -0.0, {"a": 0.0, "b": -0.0}, (0.0, 2.5)],
            "repeats": [2.5, {"a": 2.5, "b": [2.5, -2.5]}, (-2.5, 1e300)],
        }
        calls = []
        original = cli._fmt_float

        def counting(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(cli, "_fmt_float", counting)
        text = canonical_json(report)
        monkeypatch.undo()
        assert text == old_canonical_json(_expanded(report))
        floats = _plain_floats(_expanded(report))
        nonzero = [x for x in floats if x]
        assert sorted(x for x in calls if x) == sorted(set(nonzero))
        # zeros are not memoized, but a grid formats a time's stamp and tail
        # once, not once per row: each sign is formatted, at most once a use
        zeros = Counter(math.copysign(1.0, x) for x in calls if not x)
        uses = Counter(math.copysign(1.0, x) for x in floats if not x)
        assert zeros.keys() == uses.keys() and zeros <= uses
        assert len(calls) < len(floats) / 2


# graph documents whose ids are strs that CSV must quote and JSON escapes,
# and ints beside a float
STR_IDS_DOC = {
    "root": "a,b",
    "vertices": [{"id": i, "mu": 1.0} for i in ("a,b", 'say "hi"', "\u00e9")],
    "edges": [{"u": "a,b", "v": 'say "hi"', "w": 0.5}, {"u": 'say "hi"', "v": "\u00e9", "w": 2.0}],
}
# the path 0 - 1 - 2 with its ids 1 and 2 renamed "a,b" and "x": the middle
# vertex's neighbour ids do not compare
MIXED_IDS_DOC = {
    "root": 0,
    "vertices": [{"id": i, "mu": 1} for i in (0, "a,b", "x")],
    "edges": [{"u": 0, "v": "a,b", "w": 1}, {"u": "a,b", "v": "x", "w": 1}],
}
FLOAT_IDS_DOC = {
    "root": 0,
    "vertices": [{"id": i, "mu": 1.0} for i in (0, 2.5, 7)],
    "edges": [{"u": 0, "v": 2.5, "w": 0.5}, {"u": 2.5, "v": 7, "w": 2.0}],
}
# (argv, graph document or None, --initial records or None)
GRID_CASES = [
    # w f(x) = 1e300 * 1e10 overflows: rows of nan and +-inf
    (["solve", "--t=0.5"], OVERFLOW_K2_DOC, [[0, 1e10]]),
    (["solve", "--t=-0.5"], OVERFLOW_K2_DOC, [[0, 1e10]]),
    (["backward", "--t=0.5", "--kmax", "2"], OVERFLOW_K2_DOC, [[0, 1e10]]),
    # K = 0 and tail 0.0, at times 0.0 and -0.0 that print apart
    (["solve", "--family", "z", "--t=0,-0.0", "--rmax", "2"], None, None),
    # exact values past binary64, printed inf
    (["solve", "--family", "z", "--exact", "--t=-1/4,0", "--rmax", "1"], None,
     [[0, 1.5e308], [1, -1.5e308]]),
    (["solve", "--family", "z", "--exact", "--t=1/3", "--rmax", "1"], None, [[0, 1], [1, -2]]),
    # the tree's root [], lattice tuples and graph-document ids
    (["solve", "--family", "tree:3", "--t=0.1,-0.1", "--rmax", "2"], None, None),
    (["backward", "--family", "lattice:2", "--t=0.1,0.25", "--kmax", "4", "--rmax", "2"],
     None, None),
    (["solve", "--t=0.2,-0.3", "--rmax", "2"], STR_IDS_DOC, None),
    (["backward", "--t=0.2", "--kmax", "3", "--rmax", "2"], FLOAT_IDS_DOC, None),
    (["solve", "--t=0.2,-0.3", "--rmax", "2"], MIXED_IDS_DOC, None),
    # a single row
    (["solve", "--family", "z", "--t=0.5", "--rmax", "0"], None, None),
]


def _grid_argv(argv, doc, initial, tmp_path):
    if doc is not None:
        argv = argv + ["--graph", write_graph(tmp_path, doc)]
    if initial is not None:
        (tmp_path / "a.json").write_text(json.dumps(initial))
        argv = argv + ["--initial", str(tmp_path / "a.json")]
    return argv


class TestGridWriter:
    """The report of an evaluation grid, written from its columns, against
    the old writers over the grid's row dicts."""

    @pytest.mark.parametrize("argv, doc, initial", GRID_CASES)
    def test_json_and_csv_match_the_row_writers(self, argv, doc, initial, tmp_path):
        argv = _grid_argv(argv, doc, initial, tmp_path)
        code, out, report = _captured_report(argv)
        assert out == canonical_json(report) == old_canonical_json(_expanded(report))

        rows = list(report["results"]["evaluations"].rows())
        fields = ("vertex", "t", "value", "tail_bound", "K_used")
        assert all(tuple(row) == fields for row in rows)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([format(v, ".17g") if type(v) is float else v for v in row.values()])
        got = io.StringIO()
        with contextlib.redirect_stdout(got):
            assert main(argv + ["--format", "csv"]) == code
        assert got.getvalue() == want.getvalue()

    def test_the_cases_reach_every_kind_of_cell(self, tmp_path):
        values, vertices, zeros = set(), set(), set()
        for i, (argv, doc, initial) in enumerate(GRID_CASES):
            (tmp_path / str(i)).mkdir()
            report = _captured_report(_grid_argv(argv, doc, initial, tmp_path / str(i)))[2]
            grid = report["results"]["evaluations"]
            values.update(json.dumps(v) for column in grid.columns for v in column)
            vertices.update(json.dumps(cli._jsonable_vertex(x)) for x in grid.vertices)
            zeros.update(math.copysign(1.0, t) for t in grid.stamps if t == 0)
            if len(grid.vertices) * len(grid.stamps) == 1:
                values.add("single row")
        assert {"NaN", "Infinity", "-Infinity", "single row"} <= values
        assert {"[]", "[0, 1]", '"a,b"', '"say \\"hi\\""', '"\\u00e9"', "2.5"} <= vertices
        assert zeros == {1.0, -1.0}


class TestTracedCalls:
    """heatbench's tracer times `cli.series_eval` and `cli.canonical_json`:
    one series_eval per time stamp and one canonical_json per JSON report."""

    @pytest.mark.parametrize("argv, vertices, times", [
        (["solve", "--family", "z", "--t=0.5,-0.25,0", "--rmax", "3"], 7, 3),
        (["solve", "--family", "lattice:2", "--t=0.1,0.2", "--rmax", "2"], 13, 2),
        (["backward", "--family", "z", "--t=0.1,0.3", "--kmax", "4", "--rmax", "2"], 5, 2),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_series_eval_per_time(self, argv, vertices, times, fmt, monkeypatch, capsys):
        calls = Counter()

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in ("series_eval", "canonical_json"):
            monkeypatch.setattr(cli, name, counted(name))
        assert main(argv + ["--format", fmt]) == 0
        lines = 1 if fmt == "json" else vertices * times + 1
        assert len(capsys.readouterr().out.splitlines()) == lines
        assert calls == Counter(series_eval=times, canonical_json=1 if fmt == "json" else 0)


LATTICE3_DATA = [[[0, 0, 0], -1.0], [[1, 0, 0], 0.25], [[0, 0, -1], 0.5]]
TREE3_DATA = [[[], 1.0], [[0], -0.5], [[1], -0.5], [[2], -0.5]]
Z_TIMES = "--t=" + ",".join(str(t / 2) for t in range(-8, 9))
# (argv, --initial records or None): the shapes of the benchmark's volume and
# heatmap workloads, and backward runs on a family and on a graph document;
# the exact runs are kept small, since the exact kernel is slow
REPORT_CASES = [
    (["solve", "--family", "lattice:2", "--t=1", "--rmax", "4"], None),
    (["solve", "--family", "lattice:3", "--t=0.15", "--rmax", "3", "--format", "csv"],
     LATTICE3_DATA),
    (["solve", "--family", "tree:3", "--t=0.15", "--rmax", "4"], TREE3_DATA),
    (["solve", "--family", "tree:3", "--t=0.1", "--rmax", "2", "--exact"], TREE3_DATA),
    (["solve", "--family", "lattice:2", "--t=0.3,-0.2", "--rmax", "2", "--exact",
      "--format", "csv"], None),
    (["solve", "--family", "z", Z_TIMES, "--rmax", "12"], None),
    (["solve", "--family", "z", Z_TIMES, "--rmax", "12", "--format", "csv"], [[-2, 0.75], [3, -1.0]]),
    (["solve", "--family", "z", "--t=0,0.5,-1", "--rmax", "6", "--exact"], [[-2, 0.75], [3, -1.0]]),
    (["backward", "--family", "tree:3", "--t=0.1,0.2", "--kmax", "6", "--rmax", "2"], None),
    (["backward", "--family", "tree:3", "--t=0.1", "--kmax", "3", "--rmax", "2", "--exact",
      "--format", "csv"], None),
    (["backward", "--family", "lattice:2", "--t=0.1,0.25", "--kmax", "8", "--rmax", "3",
      "--format", "csv"], [[[0, 0], 1.0], [[1, 0], -0.5], [[0, -1], 0.25]]),
    (["backward", "--graph", "GRAPH", "--t=0.1,0.3", "--kmax", "6", "--rmax", "2"], [[1, 0.5], [7, -1.0]]),
    (["backward", "--graph", "GRAPH", "--t=0.1,0.3", "--kmax", "4", "--rmax", "2", "--exact",
      "--format", "csv"], [[1, 0.5], [7, -1.0]]),
]
REPORT_GRAPH = {
    "root": 0,
    "vertices": [{"id": i, "mu": 1.0 + 0.25 * (i % 3)} for i in range(10)],
    "edges": [{"u": i, "v": i + 1, "w": 0.5 + 0.5 * (i % 2)} for i in range(6)]
    + [{"u": 0, "v": 4, "w": 2.0}, {"u": 7, "v": 8, "w": 1.0}, {"u": 8, "v": 9, "w": 1.5}],
}


# times of order 0 (0 and -0.0 print apart) and a repeated time, in float
# and exact arithmetic
ORACLE_CASES = REPORT_CASES + [
    (["solve", "--family", "z", "--t=0.5,0,0.5,-0.5,-0.0", "--rmax", "3"] + exact,
     [[-2, 0.75], [3, -1.0]])
    for exact in ([], ["--exact"])
]


class TestLightConeReports:
    @pytest.mark.parametrize("argv, initial", ORACLE_CASES)
    def test_reports_equal_the_per_point_series(self, argv, initial, monkeypatch, capsys, tmp_path):
        """The report of solve or backward against the one written from rows
        that `series_eval` gives one point at a time, on a fresh solution
        that never prefetched."""
        argv = [str(tmp_path / "g.json") if a == "GRAPH" else a for a in argv]
        (tmp_path / "g.json").write_text(json.dumps(REPORT_GRAPH))
        if initial is not None:
            (tmp_path / "a.json").write_text(json.dumps(initial))
            argv += ["--initial", str(tmp_path / "a.json")]
        written = []
        write_report = cli._write_report

        def recording(*call):
            written.append(call)
            write_report(*call)

        monkeypatch.setattr(cli, "_write_report", recording)
        code = main(argv)
        out = capsys.readouterr().out

        ((args, command, config, body, passed, _),) = written
        sign = 1 if command == "solve" else -1
        graph, data = cli._resolve_source(args, {})
        fresh = SeriesSolution(graph, data, tol=args.tol)
        rows = []
        for x in sorted(graph.ball(graph.root, args.rmax), key=vertex_key):
            for t in cli._parse_times(args.t, args.exact):
                value, tail, terms = series_eval(fresh, x, sign * t)
                rows.append({"vertex": cli._jsonable_vertex(x), "t": float(t),
                             "value": float_or_inf(value), "tail_bound": tail, "K_used": terms})

        def typed(rows):
            return [[(type(v), repr(v)) for v in row.values()] for row in rows]

        assert typed(body["evaluations"].rows()) == typed(rows)
        certified = command == "solve" or body["solvability"]["verdict"] == "certified"
        want_pass = certified and (args.exact or all(math.isfinite(row["value"]) for row in rows))
        assert (code, passed) == (0 if want_pass else 1, want_pass)
        write_report(args, command, config, {**body, "evaluations": rows}, want_pass, rows)
        assert capsys.readouterr().out == out

    def test_kernel_work_stays_in_the_light_cone(self, monkeypatch, capsys):
        sizes = []
        original = laplacian_mod.apply_laplacian

        def counting(graph, f):
            sizes.append(len(f))
            return original(graph, f)

        monkeypatch.setattr(laplacian_mod, "apply_laplacian", counting)
        code, _ = run(["solve", "--family", "tree:3", "--t=0.15", "--rmax", "4"], capsys)
        assert code == 0
        # the cone takes 758 support vertices through the kernel, the full
        # Chebyshev table to K = 10 takes 2,102
        assert sum(sizes) <= 1000


class TestInternalError:
    def test_unexpected_exception_exits_3_in_one_line(self, monkeypatch, capsys):
        def broken(*args):
            raise ZeroDivisionError("boom\nsecond line")

        monkeypatch.setitem(cli._DISPATCH, "solve", broken)
        assert main(["solve"]) == cli.INTERNAL_ERROR == 3
        err = capsys.readouterr().err
        assert err == "internal error: ZeroDivisionError: boom second line\n"

    def test_unwritable_report_is_a_usage_error(self, tmp_path, capsys):
        code = main(["solve", "--rmax", "1", "--out", str(tmp_path / "no" / "such.json")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err


# -- bounded fuzzing of the input boundary -----------------------------------

NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from([0.5, 1e-300, 1e300, 1e400]),
    st.text(max_size=2),
    st.none(),
    st.booleans(),
)
IDS = st.one_of(
    st.integers(0, 3), st.text(max_size=1), st.lists(st.integers(0, 1), max_size=1),
    st.none(), st.booleans(), st.floats(0, 3),
)
JUNK = st.one_of(st.none(), st.integers(), st.text(max_size=2), st.lists(st.integers(), max_size=2))
GRAPH_DOCS = st.one_of(
    st.fixed_dictionaries({
        "root": IDS,
        "vertices": st.lists(
            st.one_of(st.fixed_dictionaries({"id": IDS, "mu": NUMBERS}), JUNK), max_size=4
        ),
        "edges": st.lists(
            st.one_of(st.fixed_dictionaries({"u": IDS, "v": IDS, "w": NUMBERS}), JUNK), max_size=5
        ),
    }),
    st.dictionaries(st.sampled_from(["root", "vertices", "edges"]), JUNK),
    JUNK,
)
GRAPH_COMMANDS = st.sampled_from([
    ["solve", "--t=0.1,-0.2", "--rmax", "1"],
    ["laplacian", "--kmax", "2"],
    ["backward", "--t=0.1", "--kmax", "2", "--rmax", "1"],
    ["radius", "--rmax", "1", "--kmax", "3"],
])
REALS = st.one_of(
    st.floats().map(repr), st.sampled_from(["0", "-1", "1e-300", "1e400", "x", "", "1/2"])
)
SMALL_INTS = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["x", "1.5", ""]))
TIMES = st.lists(st.one_of(st.floats(-4, 4).map(repr), REALS), max_size=3).map(",".join)
# the families whose balls grow linearly, and names that are no family
FAMILIES = st.sampled_from(
    ["z", "lattice:1", "tree:2", "lattice:0", "tree:1", "lattice:", "tree:x", "foo", "z:3"]
)


class TestParserReuse:
    ARGVS = (
        ["solve", "--family", "z", "--exact", "--t=1/4", "--rmax", "1"],
        ["solve", "--family", "z", "--t=0.25", "--rmax", "1"],
        ["backward", "--family", "z", "--t=0.1", "--kmax", "3", "--rmax", "1", "--format", "csv"],
        ["laplacian", "--family", "lattice:2", "--kmax", "2", "--exact"],
        ["solve", "--family", "z", "--t=0.25", "--rmax", "1"],
    )

    def _outcomes(self, capsys, fresh):
        out = []
        for argv in self.ARGVS:
            if fresh:
                cli.build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_calls_in_a_row_give_the_bytes_of_fresh_calls(self, capsys):
        fresh = self._outcomes(capsys, fresh=True)
        cli.build_parser.cache_clear()
        reused = self._outcomes(capsys, fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        assert reused == fresh
        arithmetic = [json.loads(out)["arithmetic"] for _, out, _ in reused[:2]]
        assert arithmetic == ["exact", "float64"]


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


def _flag(name):
    return st.sampled_from([[], [name]])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: sum(ps, []))


SOURCE = _argv(_option("--family", FAMILIES), _flag("--exact"),
               _option("--format", st.sampled_from(["json", "csv"])))
ARGVS = st.one_of(
    _argv(st.just(["solve"]), SOURCE, _option("--t", TIMES), _option("--tol", REALS),
          _option("--rmax", SMALL_INTS)),
    _argv(st.just(["backward"]), SOURCE, _option("--t", TIMES), _option("--tol", REALS),
          _option("--kmax", SMALL_INTS), _option("--rmax", SMALL_INTS),
          _option("--degree-bound", REALS)),
    _argv(st.just(["laplacian"]), SOURCE, _option("--kmax", SMALL_INTS)),
    _argv(st.just(["radius"]), SOURCE, _option("--rmax", SMALL_INTS),
          _option("--kmax", SMALL_INTS), _option("--amplitude", REALS), _option("--rate", REALS),
          _option("--deg-cap", REALS), _option("--deg-power", REALS), _option("--delta", REALS)),
    _argv(st.just(["counterexample", "--xmax", "8", "--kmax", "1"]),
          _option("--beta", SMALL_INTS), _option("--theta", REALS),
          _option("--epsilon", REALS), _option("--T", REALS), _option("--tol", REALS)),
    st.tuples(st.just("unknown"), st.text(max_size=3)).map(list),
)


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, err.getvalue()


class TestFuzzedInput:
    """Bad input gets exit 2 and a message; no input reaches an internal error."""

    # derandomized, so that the suite stays deterministic; longer random
    # runs of the same strategies are how new cases are found
    @given(GRAPH_DOCS, GRAPH_COMMANDS, _flag("--exact"))
    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # a one-vertex document once divided by its zero degree cap
    @example({"root": "", "vertices": [{"id": "", "mu": 1}], "edges": []},
             ["backward", "--t=0.1", "--kmax", "2", "--rmax", "1"], [])
    def test_graph_documents(self, tmp_path, doc, command, exact):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, err = _exit_and_stderr(command + ["--graph", str(path)] + exact)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err

    @given(ARGVS)
    @settings(max_examples=120, deadline=None, derandomize=True)
    # inputs that once overflowed binary64 inside an audit
    @example(["counterexample", "--xmax", "8", "--kmax", "1", "--theta=1e-300"])
    @example(["backward", "--exact", "--degree-bound=1e179", "--kmax", "3"])
    @example(["solve", "--exact", "--t=1e400"])
    # non-finite flat-bump parameters and flatness tolerances once passed
    @example(["counterexample", "--xmax", "8", "--kmax", "1", "--T=1e400"])
    @example(["counterexample", "--xmax", "8", "--kmax", "1", "--epsilon=inf"])
    @example(["counterexample", "--xmax", "8", "--kmax", "1", "--tol=inf"])
    @example(["counterexample", "--xmax", "8", "--kmax", "1", "--tol=nan"])
    @example(["counterexample", "--xmax", "8", "--kmax", "1", "--tol=-1"])
    # non-finite or half-given envelope constants once passed
    @example(["radius", "--family", "z", "--amplitude", "1", "--rate=nan"])
    @example(["radius", "--family", "z", "--kmax", "2", "--delta=inf"])
    @example(["radius", "--family", "z", "--kmax", "2", "--rate=0.5"])
    @example(["radius", "--deg-cap=inf", "--amplitude", "1", "--rate", "1"])
    def test_argument_vectors(self, argv):
        code, err = _exit_and_stderr(argv)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
