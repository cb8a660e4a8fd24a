"""The verify suites' bookkeeping: each suite's CheckReport counts every case,
keeps the worst residual, writes one detail line per failure, and passes when
there is none."""

import collections
import dataclasses
import inspect
import math
import pathlib
import re
import sys
import types

import pytest

import tljones
from tljones import checks, evaluation, tl
from tljones.checks import CheckReport, Tolerances, run_verification

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
        report = CheckReport("suite")
        report.check(1e-12, 1e-12, "at the bound")
        report.check(3e-12, 1e-12, "above the bound")
        report.check(2e-13, 1e-12, "below the bound")
        assert (report.name, report.passed, report.cases) == ("suite", False, 3)
        assert report.max_residual == 3e-12
        assert report.details == ["above the bound 3.00e-12"]

    def test_non_finite_residual_fails(self):
        report = CheckReport("suite")
        report.check(float("nan"), 1e-12, "nan residual")
        report.check(float("inf"), 1e-12, "inf residual")
        assert (report.passed, report.cases) == (False, 2)
        assert report.details == ["nan residual nan", "inf residual inf"]
        assert math.isnan(report.max_residual)

    @pytest.mark.parametrize("residuals", [(float("nan"), 1e-15), (1e-15, float("nan")), (3e-12, float("nan"), 0.5)])
    def test_nan_residual_is_the_max_residual_in_any_order(self, residuals):
        report = CheckReport("suite")
        for residual in residuals:
            report.check(residual, 1e-12, "x")
        assert math.isnan(report.max_residual)

    def test_exact_comparison_keeps_its_label(self):
        report = CheckReport("suite")
        report.holds(True, "holds")
        report.holds(False, "n=3: cyclicity failed")
        assert (report.passed, report.cases, report.max_residual) == (False, 2, 0.0)
        assert report.details == ["n=3: cyclicity failed"]

    def test_empty_recorder_passes_with_no_cases(self):
        report = CheckReport("suite")
        assert (report.passed, report.cases, report.max_residual, report.details) == (True, 0, 0.0, [])

    def test_json_record_has_every_field(self):
        report = CheckReport("suite")
        report.check(0.5, 0.25, "x")
        assert report.to_json_dict() == {
            "name": "suite", "passed": False, "max_residual": 0.5, "cases": 1, "details": ["x 5.00e-01"],
        }


def _relation_cases(monkeypatch, **sizes) -> list[tuple[bool, str]]:
    """Every (ok, label) check_tl_relations records, passing or not."""
    cases = []
    monkeypatch.setattr(CheckReport, "holds", lambda self, ok, label: cases.append((ok, label)))
    checks.check_tl_relations(**sizes)
    return cases


class TestRelations:
    def test_n3_passes(self):
        assert checks.check_tl_relations(n_max=3).passed

    def test_n2_only_square_relation(self, monkeypatch):
        assert _relation_cases(monkeypatch, n_max=2, samples=0) == [(True, "n=2: E1^2 = d E1")]

    def test_n5_distant_commutation_present(self, monkeypatch):
        # 1 + 4 + 8 + 13 relations for n = 2..5; the 13 at n=5 include the three distant commutations
        cases = _relation_cases(monkeypatch, n_max=5, samples=0)
        assert len(cases) == 26 and all(ok for ok, _ in cases)
        at_5 = [label for _, label in cases if label.startswith("n=5: ")]
        assert len(at_5) == 13
        assert {"n=5: E1 E3 = E3 E1", "n=5: E1 E4 = E4 E1", "n=5: E2 E4 = E4 E2"} <= set(at_5)


class TestSuiteCases:
    def test_cases_per_suite_pinned(self):
        reports = run_verification(n_max=4, k_max=5, samples=5, seed=0)
        assert [r.name for r in reports] == list(SUITES)
        assert [r.cases for r in reports] == [43, 33, 163, 5, 72, 19]
        assert all(r.passed and not r.details for r in reports)

    @pytest.mark.parametrize(
        "sizes, message",
        [({"n_max": 1}, "n_max must be >= 2, got 1"), ({"k_max": 2}, "k_max must be >= 3, got 2"),
         ({"samples": 0}, "samples must be >= 1, got 0")],
        ids=["n_max", "k_max", "samples"],
    )
    def test_empty_grid_refused(self, sizes, message):
        # each would leave a suite with no case, which passes having checked nothing (or die inside randrange)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_verification(**({"n_max": 3, "k_max": 4, "samples": 2} | sizes))

    def test_estimate_sums_every_k_in_closed_form(self):
        # the walk counts stop changing at k = n + 2, so the estimate multiplies instead of looping over k
        for n_max in range(2, 9):
            for k_max in range(3, 15):
                grid = sum(checks._grid_work(n, k) for n in range(2, n_max + 1) for k in range(3, k_max + 1))
                # n_max = 1 leaves only the per-k and per-sample terms
                assert checks._estimated_work(n_max, k_max, 7) - checks._estimated_work(1, k_max, 7) == grid, (n_max, k_max)

    def test_wide_k3_grid_within_budget(self):
        # every k = 3 sector holds one walk, so no far-commutation case runs there and none is charged
        assert checks._estimated_work(400, 3, 1) <= checks.VERIFY_BUDGET_NS

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
        # with a loop weight of 1 every square relation fails, and nothing else does
        monkeypatch.setattr(checks.tl, "LOOP_WEIGHT", tl.LaurentPoly.one())
        report = checks.check_tl_relations(n_max=3, samples=1)
        assert (report.passed, report.cases) == (False, 7)
        assert report.details == ["n=2: E1^2 = d E1", "n=3: E1^2 = d E1", "n=3: E2^2 = d E2"]

    @pytest.mark.parametrize(
        "power, failing",
        [(lambda n: 1, ("trace of identity is not 1",)),
         (lambda n: n, ("trace of identity is not 1", "strand-closure axiom failed"))],
        ids=["d", "d^n"],
    )
    def test_trace_off_by_a_power_of_d_fails(self, monkeypatch, power, failing):
        # a factor of d fails only the identity case, since the other two axioms are linear;
        # a factor that grows with n also breaks the strand-closure axiom
        trace = tl.markov_trace
        monkeypatch.setattr(checks.tl, "markov_trace", lambda element: tl.times_d(trace(element), power(element.n)))
        report = checks.check_trace_axioms(n_max=3, samples=5)
        assert not report.passed
        assert set(report.details) == {f"n={n}: {case}" for n in (2, 3) for case in failing}


# The check_representation residuals each Tolerances field bounds, by the label's last part.
REPRESENTATION_LABELS = {
    "eigen_residual": ("eigenvector residual",),
    "phi_relations": ("idempotency", "recoupling"),
    "spectrum": ("spectrum",),
    "unitarity": ("unitarity",),
    "braid_relations": ("braid relation",),
}


def _residual_name(detail: str) -> str:
    """The residual's name in a "{place}: {name} {residual:.2e}" detail line."""
    return detail.rsplit(": ", 1)[1].rsplit(" ", 1)[0]


class TestRepresentationWiring:
    @pytest.mark.parametrize("field", sorted(REPRESENTATION_LABELS))
    def test_zero_field_fails_only_its_own_residuals(self, field):
        report = checks.check_representation(n_max=4, k_max=5, tol=Tolerances(**{field: 0.0}))
        names = {_residual_name(line) for line in report.details}
        assert not report.passed
        assert names and names <= set(REPRESENTATION_LABELS[field]), names

    def test_every_residual_is_bounded_by_its_own_field(self, monkeypatch):
        fields = sorted(REPRESENTATION_LABELS)
        tol = Tolerances(**{field: (j + 1) * 1e-3 for j, field in enumerate(fields)})  # one distinct bound per field
        bound_of = {label: getattr(tol, field) for field in fields for label in REPRESENTATION_LABELS[field]}
        seen = set()
        check = CheckReport.check

        def spy(self, residual, bound, label):
            name = label.rsplit(": ", 1)[1]
            assert bound == bound_of[name], label
            seen.add(name)
            check(self, residual, bound, label)

        monkeypatch.setattr(CheckReport, "check", spy)
        assert checks.check_representation(n_max=4, k_max=5, tol=tol).passed
        assert seen == set(bound_of)


def _corrupt_table(monkeypatch, n, k, key, edit):
    """check_representation's bases, with edit applied to the (diag, off, partner) table key of the (n, k) one."""
    build = checks.enumerate_paths

    def corrupted(n_, k_):
        basis = build(n_, k_)
        if (n_, k_) == (n, k):
            edit(*basis.tables[key])
        return basis

    monkeypatch.setattr(checks, "enumerate_paths", corrupted)


class TestExactCases:
    """Symmetry and far commutation are exact comparisons, and a wrong letter table fails them."""

    def test_wrong_partner_breaks_symmetry(self, monkeypatch):
        def edit(diag, off, partner):
            partner[1] = 0  # walk 1 of sector 3 swaps bits 3, 4 into walk 2, not walk 0

        _corrupt_table(monkeypatch, 4, 5, (3, 3), edit)
        report = checks.check_representation(n_max=4, k_max=5)
        assert not report.passed
        assert "n=4 k=5 i=3 m=3: symmetry" in report.details
        assert "n=4 k=5 (1,3) m=3: commutation" in report.details

    def test_wrong_diagonal_breaks_far_commutation_only(self, monkeypatch):
        def edit(diag, off, partner):
            diag[1] = 0.5  # Phi_1 stays symmetric but no longer commutes with Phi_3

        _corrupt_table(monkeypatch, 4, 5, (1, 3), edit)
        report = checks.check_representation(n_max=4, k_max=5)
        assert not report.passed
        assert "n=4 k=5 (1,3) m=3: commutation" in report.details
        assert not [line for line in report.details if line.endswith("symmetry")]


def test_exact_cases_only_on_sectors_that_can_fail_them(monkeypatch):
    # at k = 3 every sector holds one walk, and a 1x1 block is symmetric and commutes with every other,
    # so neither comparison is a case there; the floating residuals still are
    labels = []
    holds = CheckReport.holds

    def spy(self, ok, label):
        labels.append(label)
        holds(self, ok, label)

    monkeypatch.setattr(CheckReport, "holds", spy)
    report = checks.check_representation(n_max=8, k_max=3)
    assert report.passed and report.cases > 0
    assert not [label for label in labels if label.endswith(("symmetry", "commutation"))], labels


def test_each_suite_builds_each_basis_once(monkeypatch):
    # a walk basis depends only on (n, k), so a suite builds it once and evaluates every case that needs it on it
    built = collections.Counter()  # (suite, n, k) -> builds
    build = checks.enumerate_paths

    def spy(n, k):
        frame = sys._getframe(1)
        while not frame.f_code.co_name.startswith("check_"):
            frame = frame.f_back
        built[frame.f_code.co_name, n, k] += 1
        return build(n, k)

    def per_evaluation(n, k):
        raise AssertionError(f"a suite built the ({n}, {k}) basis for one evaluation")

    monkeypatch.setattr(checks, "enumerate_paths", spy)
    monkeypatch.setattr(evaluation, "enumerate_paths", per_evaluation)
    assert all(report.passed for report in run_verification(n_max=4, k_max=5, samples=5, seed=0))
    assert {suite for suite, _, _ in built} == {
        "check_representation", "check_trace_compatibility", "check_oracle_equivalence", "check_knot_sanity",
    }
    assert max(built.values()) == 1, [key for key, count in built.items() if count > 1]


def test_knot_sanity_moves_stay_within_k_max(monkeypatch):
    # the Markov-move cases draw their k from 3..min(8, k_max), so a small grid builds no basis past k_max
    built = set()
    build = checks.enumerate_paths

    def spy(n, k):
        built.add((n, k))
        return build(n, k)

    monkeypatch.setattr(checks, "enumerate_paths", spy)
    assert all(report.passed for report in run_verification(n_max=3, k_max=4, samples=2, seed=0))
    assert built and max(k for _, k in built) <= 4, sorted(built)


def test_public_names_are_exactly_the_bound_names():
    bound = {
        name for name, value in vars(tljones).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(tljones.__all__) == sorted(bound)
    assert len(set(tljones.__all__)) == len(tljones.__all__)
    for name in tljones.__all__:
        assert getattr(tljones, name) is not None


def test_every_public_function_has_a_user():
    # a function the package exports is named by another src/ module, a demo or the README
    root = pathlib.Path(__file__).resolve().parents[1]
    unused = []
    for name in tljones.__all__:
        function = getattr(tljones, name)
        if not inspect.isfunction(function):
            continue
        home = pathlib.Path(inspect.getfile(function)).name
        sources = [p for p in (root / "src" / "tljones").glob("*.py") if p.name not in (home, "__init__.py")]
        sources += [*(root / "demos").glob("*.py"), root / "README.md"]
        if not any(re.search(rf"\b{name}\b", p.read_text()) for p in sources):
            unused.append(name)
    assert unused == []
