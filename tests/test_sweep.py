import json
import math

import pytest

from plevylab import cli
from plevylab import sweep as S
from plevylab.constants import kdp_mean
from plevylab.fields import SignJump, bv_seminorm
from plevylab.geometry import interval
from plevylab.quadrature import QuadratureError


def small_case(case_id="w1p-linear-det", **overrides):
    cases = {c.case_id: c for c in S.builtin_suite(seed=7)}
    base = cases[case_id]
    if overrides:
        from dataclasses import replace
        base = replace(base, **overrides)
    return base


def test_suite_enumeration():
    cases = S.builtin_suite()
    assert len(cases) >= 12
    ids = [c.case_id for c in cases]
    assert len(set(ids)) == len(ids)
    # stable across calls
    assert ids == [c.case_id for c in S.builtin_suite()]


def test_suite_targets_recomputed():
    # the BV case's target must equal the constants/fields product, not a
    # stored literal
    report = S.run_sweep(small_case("bv-signjump",
                                    grid=(0.4, 0.2, 0.1)))
    expect = kdp_mean(1, 1.0) * bv_seminorm(SignJump(1), interval(-1, 1))
    assert report.target_value == expect


def test_linear_sweep_converges():
    report = S.run_sweep(small_case(grid=(0.1, 0.05, 0.02)))
    assert report.verdict == S.VERDICT_CONVERGED
    errs = [r.abs_err for r in report.rows]
    assert all(a >= b for a, b in zip(errs[-3:], errs[-2:]))
    assert report.rows[-1].stderr == 0.0


def test_counterexample_sweep_verdict():
    report = S.run_sweep(small_case("counterexample-energy",
                                    grid=(0.2, 0.1, 0.05)))
    assert report.target_value == 0.0
    assert report.verdict == S.VERDICT_DIVERGED_TARGET
    assert "limit exists" in report.detail


def test_divergent_cutoff_sweep():
    report = S.run_sweep(small_case("counterexample-frac-divergent"))
    assert report.verdict == S.VERDICT_DIVERGENT
    assert report.final_error > 0.5  # the fitted slope


def test_subcritical_cutoff_sweep():
    report = S.run_sweep(small_case("counterexample-frac-regular"))
    assert report.verdict == S.VERDICT_CONVERGED


def test_report_roundtrip():
    report = S.run_sweep(small_case("generator-gaussian-d1"))
    blob = json.dumps(report.to_dict(), sort_keys=True)
    again = S.report_from_dict(json.loads(blob))
    assert again == report


def test_csv_shape():
    case = small_case("generator-gaussian-d1")
    report = S.run_sweep(case)
    text = S.suite_csv([case], [report])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(S.CSV_HEADER)
    assert len(lines) == 1 + len(case.grid)


def test_mc_sweep_rows_have_stderr():
    case = small_case("w1p-linear-mc", grid=(0.2, 0.1), n_samples=50_000)
    report = S.run_sweep(case)
    assert all(r.stderr > 0 for r in report.rows)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        S.run_sweep(small_case(kind="nonsense"))


@pytest.mark.slow
def test_builtin_suite_verdicts():
    # every built-in case, at its full grid, reaches the verdict it expects
    cases = S.builtin_suite(seed=42)
    for case in cases:
        report = S.run_sweep(case)
        assert report.verdict == case.expected, case.case_id


def test_failing_row_names_the_case_and_eps(monkeypatch, capsys):
    # p = 2 against a jump diverges at the interface
    case = S.SweepCase("jump-p2", "energy", {"field": "sign_jump", "d": "1"},
                       2.0, (0.1,), "bv", S.VERDICT_CONVERGED,
                       domain_spec={"domain": "interval_union",
                                    "intervals": "-1.0:1.0"},
                       family_spec={"family": "stable", "d": "1",
                                    "p": "2.0"})
    with pytest.raises(QuadratureError) as info:
        S.run_sweep(case)
    assert str(info.value).startswith(
        "case jump-p2 at eps=0.1: pair energy diverges at the jump "
        "interface")
    assert info.value.achieved == math.inf
    monkeypatch.setattr(S, "builtin_suite", lambda seed, n_samples: [case])
    assert cli.main(["sweep", "--case", "jump-p2"]) == 2
    assert "case jump-p2 at eps=0.1" in capsys.readouterr().err
