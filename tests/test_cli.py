import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tljones.cli
import tljones.pathmodel
import tljones.tl
from tljones import checks
from tljones.cli import main


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def load_json(text: str):
    """json.loads that refuses Infinity, -Infinity and NaN, which json.dumps writes but JSON lacks."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestPaths:
    def test_dimensions(self, capsys):
        status, out, err = run_cli(capsys, "paths", "--n", "3", "--k", "5")
        assert status == 0 and err == ""
        data = load_json(out)
        assert data == {"n": 3, "k": 5, "dims": {"2": 2, "4": 1}, "total": 3}

    def test_counts_without_enumerating(self, capsys, monkeypatch):
        monkeypatch.setattr(tljones.pathmodel, "_walk_tables", None)  # building any walk would fail
        status, out, err = run_cli(capsys, "paths", "--n", "40", "--k", "12")
        assert status == 0 and err == ""
        assert load_json(out)["total"] == 91586476950

    def test_cost_does_not_grow_with_k(self, capsys):
        status, out, err = run_cli(capsys, "paths", "--n", "3", "--k", "1000000000")
        assert status == 0 and err == ""
        assert load_json(out)["dims"] == {"2": 2, "4": 1}


# Outputs frozen while lambda was stored for every height 0..k, which took 2.7 s and 488 MB on
# the first and 1.3 s and 259 MB on the second (2-vCPU VM).
FROZEN_LARGE_INPUTS = [
    (
        ["evaluate", "--braid", "1", "--strands", "2", "--k", "10000000"],
        '{"a_value": [1.5707963267948903e-07, 0.9999999999999877], "d": 1.9999999999999014, "k": 10000000, "method": "exact-path-model", "n": 2, "normalization": 1.2566370614357724e-06, "prefactor": [4.712388980384516e-07, 0.9999999999998891], "prefactor_rule": "(-A^3)^writhe", "value": [0.9999999999999997, 3.1763735522036263e-22], "weighted_trace": [2.3561944901923744e-07, -0.4999999999999689], "word": [1], "writhe": 1}\n',
    ),
    (
        ["sample", "--braid", "1 1 1", "--strands", "2", "--k", "5000000"],
        '{"a_value": [3.1415926535897413e-07, 0.9999999999999507], "abs_error": 0.135137962568469, "d": 1.9999999999996052, "delta": 0.05, "epsilon": 0.1, "error_confidence": 0.95, "exact_value": [1.000000000004738, -1.1908012688974581e-17], "iterations": 185, "k": 5000000, "method": "sampled", "n": 2, "normalization": 2.513274122870677e-06, "prefactor": [-2.8274333882270474e-06, -0.9999999999960032], "prefactor_rule": "(-A^3)^writhe", "raw_trace": [1.698158191128487e-07, 1.2566370614348422e-06], "seed": 0, "value": [0.9999996179098177, -0.13513796256792882], "value_error_bound": 0.48668912518859087, "weighted_trace": [0.0675675675675537, 0.4999999999998025], "word": [1, 1, 1], "writhe": 3}\n',
    ),
    (  # k = 3 admits one walk at any n, so the gate bound never refuses it
        ["evaluate", "--braid", "1 -2 3", "--strands", "100", "--k", "3"],
        '{"a_value": [0.49999999999999994, 0.8660254037844387], "d": 1.0000000000000002, "k": 3, "method": "exact-path-model", "n": 100, "normalization": 0.8660254037844386, "prefactor": [1.0, 2.7755575615628914e-16], "prefactor_rule": "(-A^3)^writhe", "value": [1.0000000000000215, 8.326672684688855e-16], "weighted_trace": [0.9999999999999997, 5.551115123125782e-16], "word": [1, -2, 3], "writhe": 1}\n',
    ),
    (  # the largest power of ten whose path-weight products stay normal floats; V(t -> 1) = 1
        ["evaluate", "--braid", "1 -2 1 -2", "--strands", "3", "--k", str(10**154)],
        '{"a_value": [1.5707963267948964e-154, 1.0], "d": 2.0, "k": ' + str(10**154) + ', "method": "exact-path-model", "n": 3, "normalization": 2.513274122871834e-153, "prefactor": [1.0, 0.0], "prefactor_rule": "(-A^3)^writhe", "value": [1.0000000000000002, 6.2906391798019296e-170], "weighted_trace": [0.25000000000000006, 1.5726597949504824e-170], "word": [1, -2, 1, -2], "writhe": 0}\n',
    ),
]


@pytest.mark.parametrize(("argv", "expected"), FROZEN_LARGE_INPUTS, ids=["evaluate-k1e7", "sample-k5e6", "evaluate-n100-k3", "evaluate-k1e154"])
def test_large_k_and_n_print_frozen_bytes_quickly(capsys, argv, expected):
    # lambda is stored only up to height n + 2, so a huge k costs no more than k = n + 2
    start = time.perf_counter()
    status, out, err = run_cli(capsys, *argv)
    assert (status, out, err) == (0, expected, "")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", ["evaluate", "sample"])
def test_oversized_model_refused_before_enumeration(capsys, monkeypatch, command):
    monkeypatch.setattr(tljones.pathmodel, "_walk_tables", None)  # building any walk would fail
    status, out, err = run_cli(capsys, command, "--braid", "1", "--strands", "18", "--k", "8")
    assert status == 2 and out == ""
    assert err.startswith("error: n=18, k=8: ") and "MAX_GATE_BYTES" in err and len(err.splitlines()) == 1


def test_oversized_braid_image_refused_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(tljones.tl, "MAX_IMAGE_TERMS", 3)
    status, out, err = run_cli(capsys, "exact", "--braid", "1 2 3 1 2 3", "--strands", "4")
    assert status == 2 and out == ""
    assert err.startswith("error: braid image passed MAX_IMAGE_TERMS = 3 ") and len(err.splitlines()) == 1


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    # a defect is neither bad input (2) nor a failed verification (1), and prints no traceback
    def broken(n, k):
        raise RuntimeError("walk count went wrong")

    monkeypatch.setattr(tljones.cli, "count_walks", broken)
    status, out, err = run_cli(capsys, "paths", "--n", "3", "--k", "5")
    assert (status, out, err) == (3, "", "internal error: RuntimeError: walk count went wrong\n")


class TestExact:
    def test_trefoil_polynomial(self, capsys):
        status, out, _ = run_cli(capsys, "exact", "--braid", "1 1 1", "--strands", "2")
        assert status == 0
        data = load_json(out)
        assert data["writhe"] == 3
        assert data["polynomial_a"]["terms"] == [[4, "1"], [12, "1"], [16, "-1"]]
        assert data["polynomial_t"]["terms"] == [[-4, "-1"], [-3, "1"], [-1, "1"]]

    def test_hopf_t_unavailable(self, capsys):
        status, out, _ = run_cli(capsys, "exact", "--braid", "1 1", "--strands", "2")
        assert status == 0
        data = load_json(out)
        assert data["polynomial_t"] is None
        assert "divisible by 4" in data["t_unavailable_reason"]

    def test_sweep_csv(self, capsys):
        status, out, _ = run_cli(
            capsys, "exact", "--braid", "1 1 1", "--strands", "2",
            "--sweep-k", "3..5", "--format", "csv",
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,re,im,abs"
        assert len(lines) == 4

    def test_sweep_reads_the_polynomial_only(self, capsys, monkeypatch):
        def path_model(*args, **kwargs):
            raise AssertionError("exact --sweep-k evaluated the path model")

        monkeypatch.setattr(tljones.cli, "jones_value_exact", path_model)
        status, out, err = run_cli(
            capsys, "exact", "--braid", "1 1 1", "--strands", "2", "--sweep-k", "3..6"
        )
        assert status == 0, err
        assert [row["k"] for row in load_json(out)["sweep"]] == [3, 4, 5, 6]

    def test_csv_without_sweep_rejected(self, capsys):
        status, _, err = run_cli(
            capsys, "exact", "--braid", "1", "--strands", "2", "--format", "csv"
        )
        assert status == 2 and "sweep" in err

    @pytest.mark.parametrize(
        "argv, work",
        [(("exact",), "jones_polynomial"), (("evaluate", "--k", "5"), "jones_value_exact")],
        ids=["exact", "evaluate"],
    )
    def test_csv_without_sweep_refused_before_any_work(self, capsys, monkeypatch, argv, work):
        def computed(*args):
            raise RuntimeError(f"{work} ran before --format csv was refused")

        monkeypatch.setattr(tljones.cli, work, computed)
        status, out, err = run_cli(capsys, *argv, "--braid", "1", "--strands", "2", "--format", "csv")
        assert (status, out, err) == (2, "", "error: --format csv is only available with --sweep-k\n")


class TestEvaluate:
    def test_unknot_value(self, capsys):
        status, out, _ = run_cli(
            capsys, "evaluate", "--braid", "1", "--strands", "2", "--k", "5"
        )
        assert status == 0
        data = load_json(out)
        assert data["value"][0] == pytest.approx(1.0, abs=1e-9)
        assert data["value"][1] == pytest.approx(0.0, abs=1e-9)

    def test_sweep(self, capsys):
        status, out, _ = run_cli(
            capsys, "evaluate", "--braid", "1 1 1", "--strands", "2", "--sweep-k", "3..6"
        )
        assert status == 0
        data = load_json(out)
        assert [row["k"] for row in data["sweep"]] == [3, 4, 5, 6]

    def test_requires_braid_source(self, capsys):
        status, _, err = run_cli(capsys, "evaluate", "--k", "5")
        assert status == 2 and "braid" in err

    def test_rejects_two_braid_sources(self, capsys, tmp_path):
        path = tmp_path / "braid.json"
        path.write_text(json.dumps({"strands": 2, "word": [1]}))
        status, _, err = run_cli(
            capsys, "evaluate", "--braid", "1", "--strands", "2",
            "--braid-file", str(path), "--k", "4",
        )
        assert status == 2 and "exactly one" in err

    def test_braid_file(self, capsys, tmp_path):
        path = tmp_path / "braid.json"
        path.write_text(json.dumps({"strands": 3, "word": [1, -2, 1, -2]}))
        status, out, _ = run_cli(capsys, "evaluate", "--braid-file", str(path), "--k", "5")
        assert status == 0
        assert load_json(out)["word"] == [1, -2, 1, -2]

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "must be an object"),
            ({"strands": 3, "word": "12"}, "'word' must be a list of integers"),
            ({"strands": 3, "word": [1.5]}, "'word' must be a list of integers"),
            ({"strands": True, "word": [1]}, "'strands' must be an integer"),
        ],
        ids=["json-list", "word-string", "word-float", "strands-bool"],
    )
    def test_braid_file_type_rejected(self, capsys, tmp_path, payload, message):
        path = tmp_path / "braid.json"
        path.write_text(json.dumps(payload))
        status, out, err = run_cli(capsys, "evaluate", "--braid-file", str(path), "--k", "5")
        assert status == 2 and out == ""
        assert message in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "payload, key",
        [({"word": [1]}, "strands"), ({"strands": 2}, "word")],
        ids=["no-strands", "no-word"],
    )
    def test_braid_file_missing_key(self, capsys, tmp_path, payload, key):
        path = tmp_path / "braid.json"
        path.write_text(json.dumps(payload))
        status, out, err = run_cli(capsys, "evaluate", "--braid-file", str(path), "--k", "5")
        assert status == 2 and out == ""
        assert f"has no '{key}' key" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("k", ["0", "2", "-1"])
    def test_small_k_rejected(self, capsys, k):
        status, out, err = run_cli(capsys, "evaluate", "--braid", "1", "--strands", "2", "--k", k)
        assert status == 2 and out == ""
        assert f"--k must be >= 3, got {k}" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--k", str(2**1023)],
            ["evaluate", "--k", str(2**1024)],
            ["evaluate", "--sweep-k", f"{2**1024}..{2**1024}"],
            ["exact", "--sweep-k", f"{2**1024}..{2**1024}"],
            ["sample", "--k", str(2**1023)],
            ["evaluate", "--k", str(10**160)],
            ["evaluate", "--k", str(10**200)],
            ["evaluate", "--sweep-k", f"{10**160}..{10**160}"],
            ["sample", "--k", str(10**200)],
        ],
        ids=["evaluate-2^1023", "evaluate-2^1024", "evaluate-sweep", "exact-sweep", "sample",
             "evaluate-1e160", "evaluate-1e200", "evaluate-sweep-1e160", "sample-1e200"],
    )
    def test_k_past_the_float_range_refused(self, capsys, argv):
        # pi / (2k) needs 2k as a float, and from k of about 2.1e154 the path weights' products underflow
        # (the figure-eight, whose value tends to 1, read 2.5 at k = 1e200); the message must not echo k's digits
        status, out, err = run_cli(capsys, argv[0], "--braid", "1", "--strands", "2", *argv[1:])
        assert (status, out) == (2, "")
        assert err.startswith("error: k is too large") and len(err.splitlines()) == 1 and len(err) < 200

    def test_exact_sweep_reads_no_weights(self, capsys):
        status, out, err = run_cli(capsys, "exact", "--braid", "1 -2 1 -2", "--strands", "3", "--sweep-k", f"{10**200}..{10**200}")
        assert (status, err) == (0, "")
        assert load_json(out)["sweep"][0]["value"] == [1.0, 0.0]

    def test_deeply_nested_braid_file_refused(self, capsys, tmp_path):
        path = tmp_path / "braid.json"
        path.write_text("[" * 100000)
        status, out, err = run_cli(capsys, "evaluate", "--braid-file", str(path), "--k", "5")
        assert (status, out) == (2, "")
        assert err.startswith(f"error: cannot load braid file {path}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "braid, message",
        [("1 -5 2", "generator index 5 out of range [1, 2]"), ("1 0 2", "0 is not a valid signed generator index")],
        ids=["out-of-range", "zero"],
    )
    def test_braid_token_messages(self, capsys, braid, message):
        # text and JSON braids share one letter decoder, so they fail with the same line
        status, out, err = run_cli(capsys, "evaluate", "--braid", braid, "--strands", "3", "--k", "5")
        assert (status, out, err) == (2, "", f"error: {message}\n")

    def test_parse_error_status(self, capsys):
        status, _, err = run_cli(
            capsys, "evaluate", "--braid", "9", "--strands", "2", "--k", "5"
        )
        assert status == 2 and "out of range" in err


class TestSample:
    def test_sampled_output_fields(self, capsys):
        status, out, _ = run_cli(
            capsys, "sample", "--braid", "1 1 1", "--strands", "2", "--k", "5",
            "--epsilon", "0.1", "--delta", "0.1", "--seed", "3",
        )
        assert status == 0
        data = load_json(out)
        assert data["method"] == "sampled"
        assert data["seed"] == 3
        assert data["abs_error"] >= 0.0
        assert data["exact_value"] is not None

    def test_raw_flag_gone_and_raw_trace_always_printed(self, capsys):
        argv = ["sample", "--braid", "1 1 1", "--strands", "2", "--k", "5", "--seed", "3"]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--raw"])
        assert exit_info.value.code == 2 and "--raw" in capsys.readouterr().err
        status, out, _ = run_cli(capsys, *argv)
        data = load_json(out)
        assert status == 0 and "headline" not in data
        assert len(data["raw_trace"]) == 2 and data["value"] != data["raw_trace"]

    def test_shot_budget_rejected(self, capsys):
        status, out, err = run_cli(
            capsys, "sample", "--braid", "1 1 1", "--strands", "2", "--k", "5", "--epsilon", "1e-6",
        )
        assert status == 2 and out == ""
        assert "budget" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, value", [("--epsilon", "1e-200"), ("--epsilon", "1e-160"), ("--epsilon", "1e-100")]
    )
    def test_tiny_epsilon_or_delta_refused(self, capsys, flag, value):
        # epsilon^2 underflowing to 0, or ln(2/delta) / (2 epsilon^2) overflowing, is an input error, not a crash
        status, out, err = run_cli(capsys, "sample", "--braid", "1", "--strands", "2", "--k", "5", flag, value)
        assert status == 2 and out == ""
        assert err.startswith("error: ") and "budget" in err and len(err.splitlines()) == 1
        assert len(err) < 200

    @pytest.mark.parametrize(
        "flag, value", [("--delta", "0"), ("--delta", "-1"), ("--delta", "2"), ("--delta", "nan"), ("--epsilon", "7")]
    )
    def test_out_of_range_target_refused_with_explicit_iterations(self, capsys, flag, value):
        # an explicit shot count still reports epsilon and delta, and the error bound reads delta
        status, out, err = run_cli(
            capsys, "sample", "--braid", "1 1 1", "--strands", "2", "--k", "5", "--iterations", "10", flag, value,
        )
        assert status == 2 and out == ""
        assert err.startswith(f"error: {flag[2:]} must be in (0, 1)") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("iterations", [(), ("--iterations", "10")], ids=["planned", "explicit-iterations"])
    def test_delta_whose_error_bound_overflows_refused(self, capsys, iterations):
        # the error bound reads ln(4/delta), so 4/delta must be finite whoever picks the shot count
        status, out, err = run_cli(
            capsys, "sample", "--braid", "1 1 1", "--strands", "2", "--k", "5", *iterations, "--delta", "1e-320",
        )
        assert (status, out) == (2, "")
        assert err == "error: delta=1e-320 is too small: 4/delta overflows\n"

    def test_smallest_delta_accepted_prints_valid_json(self, capsys):
        status, out, err = run_cli(
            capsys, "sample", "--braid", "1 1 1", "--strands", "2", "--k", "5", "--iterations", "10",
            "--delta", "2.225073858507202e-308",
        )
        assert (status, err) == (0, "")
        assert load_json(out)["value_error_bound"] > 0.0

    def test_byte_identical_repeat(self, capsys):
        args = (
            "sample", "--braid", "1 -2 1 -2", "--strands", "3", "--k", "6",
            "--epsilon", "0.2", "--delta", "0.2", "--seed", "77",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1.encode() == out2.encode()


class TestVerify:
    def test_small_battery_passes(self, capsys):
        status, out, err = run_cli(
            capsys, "verify", "--n", "3", "--k", "4", "--samples", "5", "--seed", "0"
        )
        assert status == 0, err
        data = load_json(out)
        assert data["all_passed"] is True
        assert {suite["name"] for suite in data["suites"]} == {
            "tl_relations",
            "markov_trace_axioms",
            "representation",
            "trace_compatibility",
            "oracle_equivalence",
            "knot_sanity",
        }

    def test_tolerance_override_can_fail(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--k", "4", "--samples", "5",
            "--tol", "unitarity=1e-30",
        )
        assert status == 1
        assert load_json(out)["all_passed"] is False

    def test_strict_overrides_pass(self, capsys):
        # tighter bounds on the five floating families than the defaults, one --tol each
        strict = {"unitarity": 1e-13, "phi_relations": 1e-11, "braid_relations": 1e-11,
                  "trace_compat": 1e-11, "oracle_match": 1e-10}
        tols = [arg for name, value in strict.items() for arg in ("--tol", f"{name}={value}")]
        status, out, err = run_cli(capsys, "verify", "--n", "3", "--k", "4", "--samples", "2", *tols)
        assert status == 0, err
        assert load_json(out)["tolerances"] == dataclasses.asdict(checks.Tolerances(**strict))

    @pytest.mark.parametrize(
        "flag, value", [("--n", "1"), ("--k", "2"), ("--samples", "0"), ("--samples", "-1")]
    )
    def test_vacuous_bounds_rejected(self, capsys, flag, value):
        status, out, err = run_cli(capsys, "verify", flag, value)
        assert status == 2 and out == ""
        assert err.startswith(f"error: {flag} must be >=")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-12"])
    def test_non_finite_or_negative_tolerance_rejected(self, capsys, value):
        status, out, err = run_cli(capsys, "verify", "--n", "3", "--k", "4", "--samples", "2", "--tol", f"unitarity={value}")
        assert status == 2 and out == ""
        assert err.startswith("error: tolerance unitarity must be finite and >= 0")

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(checks.Tolerances)])
    def test_every_tolerance_field_checked_where_built(self, field):
        with pytest.raises(ValueError, match=f"tolerance {field} must be finite"):
            checks.Tolerances(**{field: float("nan")})

    def test_value_recompute_is_not_a_tolerance(self, capsys):
        status, out, err = run_cli(capsys, "verify", "--tol", "value_recompute=1e-12")
        assert status == 2 and out == "" and "value_recompute" in err

    def test_unknown_tolerance_names_the_valid_fields(self, capsys):
        status, out, err = run_cli(capsys, "verify", "--tol", "unitary=1e-12")
        assert status == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: unknown tolerance 'unitary'") and "unitarity" in err

    def test_bad_tol_syntax(self, capsys):
        status, _, err = run_cli(capsys, "verify", "--tol", "unitarity")
        assert status == 2 and "NAME=VALUE" in err

    def test_unknown_profile(self, capsys):
        # there are no tolerance profiles: --profile, even "strict", is an unknown argument
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--profile", "strict"])
        assert exit_info.value.code == 2 and "--profile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "3", "--k", str(2**1024), "--samples", "1"],
            ["--n", "40", "--k", "40", "--samples", "1"],
            ["--n", "2", "--k", "1000000"],
            ["--samples", "1000000000"],
        ],
        ids=["k-2^1024", "n40-k40", "k-1e6", "samples-1e9"],
    )
    def test_over_budget_refused_before_any_suite(self, argv):
        # in a child process, so that a grid that does run is cut by the timeout instead of hanging the suite
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        completed = subprocess.run([sys.executable, "-m", "tljones.cli", "verify", *argv], env={**os.environ, "PYTHONPATH": path},
                                   capture_output=True, text=True, timeout=30)
        assert (completed.returncode, completed.stdout) == (2, "")
        assert completed.stderr.startswith("error: verification is estimated at over 60 s of work")
        assert len(completed.stderr.splitlines()) == 1
        assert time.perf_counter() - start < 10

    def test_verify_never_imports_numpy_random(self):
        # numpy.random costs about 2 MB of resident memory, and verify draws no random numbers.
        script = (
            "import contextlib, io, json, sys\n"
            "import numpy\n"
            "eager = 'numpy.random' in sys.modules\n"  # NumPy < 2 imports it with numpy itself
            "from tljones import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(['verify', '--n', '4', '--k', '5', '--samples', '5'])\n"
            "print(json.dumps([status, eager, 'numpy.random' in sys.modules]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        completed = subprocess.run([sys.executable, "-W", "error", "-c", script], env={**os.environ, "PYTHONPATH": path},
                                   capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        status, eager, loaded = load_json(completed.stdout)
        assert status == 0
        if eager:
            pytest.skip("this NumPy imports numpy.random together with numpy")
        assert not loaded

    def test_profile_is_not_read_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TLJONES_TOL_PROFILE", "strict")
        status, out, err = run_cli(capsys, "verify", "--n", "3", "--k", "4", "--samples", "2")
        assert status == 0, err
        assert load_json(out)["tolerances"] == dataclasses.asdict(checks.Tolerances())
