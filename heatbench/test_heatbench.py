"""The benchmark's own checks, at smoke size.

Run from the repository root:  python3 -m pytest heatbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import plan
import reference
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(plan.WORKLOADS)


@pytest.mark.parametrize("workload", plan.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_emits_every_declared_metric(workload, trace):
    line, details = run.execute(workload, 7, 0.1, trace, size="smoke", root=ROOT)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in line["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["attempted"] == details["attempted"]


def test_planted_wrong_reference_counts_as_failed():
    clean, _ = run.execute("volume", 7, 0.1, 0, size="smoke", root=ROOT)

    def plant(refs):
        values = refs["lattice2-delta"]
        key = next(iter(values))
        values[key][0] = str(float(values[key][0]) + 1.0)

    planted, details = run.execute("volume", 7, 0.1, 0, size="smoke", root=ROOT, tamper=plant)
    batches = details["batches"]["untraced"]
    assert planted["failed"] == clean["failed"] + batches
    assert planted["attempted"] == clean["attempted"]


def test_certificate_violation_counts_apart_from_wrong_values():
    inv = {"id": "z", "check": {"kind": "lattice"}}
    outcome = {"rc": 0, "error": None}
    refs = {reference._key(0, 1.0): ["0.5", "1e-10"]}  # envelope (K + 1) * 1e-10

    def checked(value):
        row = {"vertex": 0, "t": 1.0, "value": value, "tail_bound": 1e-12, "K_used": 20}
        return reference.check(inv, outcome, {"results": {"evaluations": [row]}}, refs)

    exact, violation, wrong = checked(0.5), checked(0.5 + 1e-9), checked(0.5 + 1e-6)
    assert (exact.failed, exact.cert_violations, exact.uncertified) == (0, 0, 0)
    assert (violation.failed, violation.cert_violations, violation.uncertified) == (0, 1, 1)
    assert (wrong.failed, wrong.cert_violations, wrong.uncertified) == (1, 1, 1)
    assert not (exact.problems or violation.problems or wrong.problems)


def test_missing_traced_name_fails_and_is_named(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    bogus = ("heatseries.laplacian", "no_such_kernel", "laplacian.extend")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (bogus,))
    with pytest.raises(tracer.MissingTargetError, match="heatseries.laplacian.no_such_kernel"):
        tracer.Tracer().install()


def test_layer_without_spans_is_unmeasured(monkeypatch):
    monkeypatch.setitem(run.EXPECTED_LAYERS, "volume", run.EXPECTED_LAYERS["volume"] + ("oracle",))
    with pytest.raises(run.BenchError, match="unmeasured layers on volume: oracle"):
        run.execute("volume", 7, 0.1, 1, size="smoke", root=ROOT)


def test_plans_are_seeded_and_never_repeat_an_invocation():
    for workload in plan.WORKLOADS:
        a, b = plan.build(workload, 1), plan.build(workload, 1)
        assert a == b
        argvs = [json.dumps(inv["argv"]) for inv in a]
        assert len(set(argvs)) == len(argvs)
        assert a != plan.build(workload, 2)


def test_plans_do_not_import_the_package():
    code = ("import sys; import plan; [plan.build(w, 1) for w in plan.WORKLOADS]; "
            "sys.exit('heatseries' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], cwd=Path(plan.__file__).parent).returncode == 0


def test_negative_times_use_the_equals_form():
    for inv in plan.build("heatmap", 1):
        times = [a for a in inv["argv"] if a.startswith("--t")]
        assert len(times) == 1 and times[0].startswith("--t=-")
