import dataclasses
import json

import pytest

import tljones.cli
import tljones.pathmodel
import tljones.tl
from tljones import checks
from tljones.cli import main


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestPaths:
    def test_dimensions(self, capsys):
        status, out, err = run_cli(capsys, "paths", "--n", "3", "--k", "5")
        assert status == 0 and err == ""
        data = json.loads(out)
        assert data == {"n": 3, "k": 5, "dims": {"2": 2, "4": 1}, "total": 3}

    def test_counts_without_enumerating(self, capsys, monkeypatch):
        monkeypatch.setattr(tljones.pathmodel, "path_endpoint", None)  # grouping walks into sectors would fail
        status, out, err = run_cli(capsys, "paths", "--n", "40", "--k", "12")
        assert status == 0 and err == ""
        assert json.loads(out)["total"] == 91586476950


@pytest.mark.parametrize("command", ["evaluate", "sample"])
def test_oversized_model_refused_before_enumeration(capsys, monkeypatch, command):
    monkeypatch.setattr(tljones.pathmodel, "path_endpoint", None)  # grouping walks into sectors would fail
    status, out, err = run_cli(capsys, command, "--braid", "1", "--strands", "18", "--k", "8")
    assert status == 2 and out == ""
    assert err.startswith("error: n=18, k=8: ") and "MAX_GATE_BYTES" in err and len(err.splitlines()) == 1


def test_oversized_braid_image_refused_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(tljones.tl, "MAX_IMAGE_TERMS", 3)
    status, out, err = run_cli(capsys, "exact", "--braid", "1 2 3 1 2 3", "--strands", "4")
    assert status == 2 and out == ""
    assert err.startswith("error: braid image passed MAX_IMAGE_TERMS = 3 ") and len(err.splitlines()) == 1


class TestExact:
    def test_trefoil_polynomial(self, capsys):
        status, out, _ = run_cli(capsys, "exact", "--braid", "1 1 1", "--strands", "2")
        assert status == 0
        data = json.loads(out)
        assert data["writhe"] == 3
        assert data["polynomial_a"]["terms"] == [[4, "1"], [12, "1"], [16, "-1"]]
        assert data["polynomial_t"]["terms"] == [[-4, "-1"], [-3, "1"], [-1, "1"]]

    def test_hopf_t_unavailable(self, capsys):
        status, out, _ = run_cli(capsys, "exact", "--braid", "1 1", "--strands", "2")
        assert status == 0
        data = json.loads(out)
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
        assert [row["k"] for row in json.loads(out)["sweep"]] == [3, 4, 5, 6]

    def test_csv_without_sweep_rejected(self, capsys):
        status, _, err = run_cli(
            capsys, "exact", "--braid", "1", "--strands", "2", "--format", "csv"
        )
        assert status == 2 and "sweep" in err


class TestEvaluate:
    def test_unknot_value(self, capsys):
        status, out, _ = run_cli(
            capsys, "evaluate", "--braid", "1", "--strands", "2", "--k", "5"
        )
        assert status == 0
        data = json.loads(out)
        assert data["value"][0] == pytest.approx(1.0, abs=1e-9)
        assert data["value"][1] == pytest.approx(0.0, abs=1e-9)

    def test_sweep(self, capsys):
        status, out, _ = run_cli(
            capsys, "evaluate", "--braid", "1 1 1", "--strands", "2", "--sweep-k", "3..6"
        )
        assert status == 0
        data = json.loads(out)
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
        assert json.loads(out)["word"] == [1, -2, 1, -2]

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
        data = json.loads(out)
        assert data["method"] == "sampled"
        assert data["seed"] == 3
        assert data["abs_error"] >= 0.0
        assert data["exact_value"] is not None

    def test_raw_flag_promotes_raw_trace(self, capsys):
        status, out, _ = run_cli(
            capsys, "sample", "--braid", "1 1 1", "--strands", "2", "--k", "5",
            "--seed", "3", "--raw",
        )
        data = json.loads(out)
        assert status == 0
        assert data["headline"] == "raw_trace"
        assert data["value"] == data["raw_trace"]

    def test_shot_budget_rejected(self, capsys):
        status, out, err = run_cli(
            capsys, "sample", "--braid", "1 1 1", "--strands", "2", "--k", "5", "--epsilon", "1e-6",
        )
        assert status == 2 and out == ""
        assert "budget" in err and len(err.splitlines()) == 1

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
        data = json.loads(out)
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
        assert json.loads(out)["all_passed"] is False

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
        status, _, err = run_cli(capsys, "verify", "--profile", "nope")
        assert status == 2 and "profile" in err

    def test_profile_is_not_read_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TLJONES_TOL_PROFILE", "strict")
        status, out, err = run_cli(capsys, "verify", "--n", "3", "--k", "4", "--samples", "2")
        assert status == 0, err
        assert json.loads(out)["tolerances"] == dataclasses.asdict(checks.Tolerances())
        assert checks.PROFILES["strict"] != checks.Tolerances()
