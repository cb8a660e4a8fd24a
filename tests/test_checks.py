"""The verify suites' bookkeeping: one recorder counts every case, keeps the
worst residual and writes one detail line per failure."""

import dataclasses
import re
import types

import tljones
from tljones import checks, tl
from tljones.checks import Tolerances, _Recorder, run_verification

SUITES = (
    "tl_relations",
    "markov_trace_axioms",
    "representation",
    "trace_compatibility",
    "oracle_equivalence",
    "knot_sanity",
)
SYMBOLIC = {"tl_relations", "markov_trace_axioms"}
RESIDUAL_LINE = re.compile(r" \d\.\d\de[+-]\d{2,3}$")  # "{label} {residual:.2e}"


class TestRecorder:
    def test_residual_fails_only_above_its_bound(self):
        rec = _Recorder()
        rec.check(1e-12, 1e-12, "at the bound")
        rec.check(3e-12, 1e-12, "above the bound")
        rec.check(2e-13, 1e-12, "below the bound")
        report = rec.report("suite")
        assert (report.name, report.passed, report.cases) == ("suite", False, 3)
        assert report.max_residual == 3e-12
        assert report.details == ["above the bound 3.00e-12"]

    def test_exact_comparison_keeps_its_label(self):
        rec = _Recorder()
        rec.holds(True, "holds")
        rec.holds(False, "n=3: cyclicity failed")
        report = rec.report("suite")
        assert (report.passed, report.cases, report.max_residual) == (False, 2, 0.0)
        assert report.details == ["n=3: cyclicity failed"]

    def test_empty_recorder_passes_with_no_cases(self):
        report = _Recorder().report("suite")
        assert (report.passed, report.cases, report.max_residual, report.details) == (True, 0, 0.0, [])

    def test_json_record_has_every_field(self):
        rec = _Recorder()
        rec.check(0.5, 0.25, "x")
        assert rec.report("suite").to_json_dict() == {
            "name": "suite", "passed": False, "max_residual": 0.5, "cases": 1, "details": ["x 5.00e-01"],
        }


class TestSuiteCases:
    def test_cases_per_suite_pinned(self):
        reports = run_verification(n_max=4, k_max=5, samples=5, seed=0)
        assert [r.name for r in reports] == list(SUITES)
        assert [r.cases for r in reports] == [43, 33, 176, 5, 72, 19]
        assert all(r.passed and not r.details for r in reports)

    def test_zero_tolerances_fail_every_floating_suite(self):
        zero = Tolerances(**{f.name: 0.0 for f in dataclasses.fields(Tolerances)} | {"unitarity": 1e-30})
        reports = run_verification(n_max=4, k_max=5, samples=5, seed=0, tol=zero)
        for report in reports:
            assert report.passed == (not report.details)
            assert len(report.details) <= report.cases
            if report.name in SYMBOLIC:
                assert report.passed and report.max_residual == 0.0
                continue
            assert not report.passed, report.name
            assert report.max_residual > 0.0
            for line in report.details:
                assert RESIDUAL_LINE.search(line), line

    def test_failed_relation_is_one_detail(self, monkeypatch):
        def one_failure(n, sample_count, seed):
            return tl.RelationReport(n, (("E1^2 = d E1", True), ("associativity sample 0", False)))

        monkeypatch.setattr(checks.tl, "verify_tl_relations", one_failure)
        report = checks.check_tl_relations(n_max=3)
        assert (report.passed, report.cases) == (False, 4)
        assert report.details == ["n=2: associativity sample 0", "n=3: associativity sample 0"]


def test_public_names_are_exactly_the_bound_names():
    bound = {
        name for name, value in vars(tljones).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(tljones.__all__) == sorted(bound)
    assert len(set(tljones.__all__)) == len(tljones.__all__)
    for name in tljones.__all__:
        assert getattr(tljones, name) is not None

