"""The benchmark's own tests, at smoke sizes.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke_args(workload: str, trace: int) -> argparse.Namespace:
    return run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                           "--trace", str(trace), "--smoke"])


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    for entry in SPEC["workloads"]:
        assert entry["why"] == wl.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values())
    elif workload == "pathmodel-wide":
        assert values["tl.jones_rep.s"] == 0 and values["tl.stack_matchings.calls"] == 0
        assert values["pathmodel.global_gate.self_s"] > 0
    elif workload == "oracle-symbolic":
        assert values["pathmodel.enumerate_paths.calls"] == 0 and values["pathmodel.global_gate.self_s"] == 0
        assert values["tl.stack_matchings.calls"] > 0 and values["laurent.mul.calls"] > 0
    elif workload == "sampler-fine":
        assert values["sampling.shots"] > 0 and values["sampling.bit_stream.calls"] > 0
    else:
        assert values["checks.cases"] > 0 and values["checks.check_representation.s"] > 0


def first_output(workload: wl.Workload) -> tuple[wl.Invocation, dict]:
    cli = run.import_cli()
    inv = next(workload.rounds(random.Random(0), True))[0]
    call = run.invoke(cli, inv)
    assert wl.check_output(workload, inv, call.rc, call.stdout) == []
    return inv, json.loads(call.stdout)


PERTURBATIONS = {
    "pathmodel-wide": lambda doc: doc["value"].__setitem__(0, doc["value"][0] + 1e-6),
    "oracle-symbolic": lambda doc: doc["polynomial_a"]["terms"][0].__setitem__(
        1, str(int(doc["polynomial_a"]["terms"][0][1]) + 1)),
    "sampler-fine": lambda doc: doc["exact_value"].__setitem__(1, doc["exact_value"][1] + 1e-6),
    "verify-small": lambda doc: doc["suites"][2].__setitem__("cases", 0),
}


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_output_check_trips_on_one_perturbed_number(name):
    workload = wl.WORKLOADS[name]
    inv, doc = first_output(workload)
    PERTURBATIONS[name](doc)
    assert wl.check_output(workload, inv, 0, json.dumps(doc))
    assert wl.check_output(workload, inv, 1, json.dumps(doc)) == ["exit status 1"]
    assert wl.check_output(workload, inv, 0, "not json")


def test_thorough_check_catches_a_consistently_scaled_value():
    workload = wl.WORKLOADS["pathmodel-wide"]
    inv, doc = first_output(workload)
    assert wl.check_output(workload, inv, 0, json.dumps(doc), thorough=True) == []
    for field in ("value", "weighted_trace"):  # keeps value = prefactor*d^(n-1)*weighted_trace
        doc[field] = [x * (1 + 1e-6) for x in doc[field]]
    assert wl.check_output(workload, inv, 0, json.dumps(doc)) == []
    assert wl.check_output(workload, inv, 0, json.dumps(doc), thorough=True)


def test_a_wrong_output_fails_the_run(monkeypatch, capsys):
    import tljones.cli

    emit = tljones.cli._emit

    def perturbed(document):
        document["value"] = [document["value"][0] + 1e-6, document["value"][1]]
        emit(document)

    monkeypatch.setattr(tljones.cli, "_emit", perturbed)
    result = run.run_workload(smoke_args("pathmodel-wide", 0))
    assert result["correct"] is False and result["failed"] > 0


def test_spans_account_for_every_invocation_wall_time():
    cli = run.import_cli()
    calls = []
    for name in wl.WORKLOADS:
        rounds = wl.WORKLOADS[name].rounds(random.Random(1), True)
        calls += [inv for _ in range(2) for inv in next(rounds)]
    tracer = Tracer()
    tracer.install()
    try:
        import tljones.checks
        import tljones.evaluation
        import tljones.sampling

        # rebound in every importing module, not only where it is defined
        for module, name in ((tljones.evaluation, "global_gate"), (tljones.sampling, "build_gates"),
                             (tljones.checks, "braid_gen_unitary"), (tljones.cli, "jones_value_exact")):
            assert getattr(module, name).__wrapped__ is not None
        traced = []
        for index, inv in enumerate(calls):
            tracer.invocation = index
            traced.append(run.invoke(cli, inv))
    finally:
        tracer.uninstall()
    assert not hasattr(tljones.evaluation.global_gate, "__wrapped__")
    assert tracer.missing == set()
    gaps = run.accounting_gaps(tracer, traced)
    assert len(gaps) == len(calls) and max(abs(gap) for gap in gaps) < 1e-6
    labels = {span.label for span in tracer.spans}
    assert "pathmodel.braid_gen_unitary" in labels and "checks.braid_gen_unitary" not in labels
    assert {span.invocation for span in tracer.spans if span.label == "cli.main"} == set(range(len(calls)))


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify-small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
