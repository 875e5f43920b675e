"""Acceptance suite: every criterion at its stated tolerance.

Each test drives the corresponding verification suite (the same functions
behind ``traplab verify``) and prints one pass/fail line per check; run with
``pytest tests/test_acceptance.py -v -s`` to see all lines, or use the
command line (``traplab verify all``) for the aggregated report.

Known red check: the null-v/spacelike-w curvature perturbation is verified
against the published reference constant -4/n * g(w, w), while the directly
computed value is -8/n * g(w, w).  The computed value is certified
independently: the README records the closed-form derivation,
test_conformal.py pins the numeric value and checks it against the sympy
oracle in _oracles.py.  The program keeps the reference as published and
reports the case's four records (n = 1, 2, 5, 10) as failing, so
``traplab verify all`` and ``traplab curvature --case null-spacelike`` exit
1.  The criterion-1 test asserts exactly that outcome: those four records,
and no other, fail with the stated constants.  Every other criterion requires all its records to
pass.
"""

import pytest

from traplab import verify


def _report(name, records):
    lines = []
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        lines.append(
            f"[{status}] {name}/{rec.name}: measured={rec.measured} "
            f"expected={rec.expected} tol={rec.tolerance}"
        )
    text = "\n".join(lines)
    print("\n" + text)
    return text


def _assert_all(name, records):
    text = _report(name, records)
    bad = [r for r in records if not r.passed]
    assert not bad, f"{len(bad)} failed check(s) in {name}:\n{text}"


def test_criterion_01_curvature_perturbation_values():
    # timelike: -e^{2/n}/n; null/null: -8/n; n in {1, 2, 5, 10}, 1e-6
    # relative, under 5 s.  null/spacelike: the computed -(8/n) g(w,w) is
    # measured against the published reference -(4/n) g(w,w), so exactly
    # those four records fail, by design.
    records = verify.verify_curvature_perturbation_values()
    text = _report("criterion-1", records)
    ns = (1, 2, 5, 10)
    cases = ("timelike", "null-spacelike", "null-null")
    assert [r.name for r in records] == [
        f"curvature-perturbation-{case}-n{n}" for case in cases for n in ns
    ] + ["curvature-perturbation-runtime"]
    failing = {r.name: r for r in records if not r.passed}
    assert set(failing) == {f"curvature-perturbation-null-spacelike-n{n}" for n in ns}, text
    for n in ns:
        rec = failing[f"curvature-perturbation-null-spacelike-n{n}"]
        assert rec.measured == pytest.approx(-8.0 / n, rel=1e-9)
        assert rec.expected == -4.0 / n
        assert rec.tolerance == 1e-6
        assert "-4/n" in rec.detail and "-8/n" in rec.detail


def test_criterion_02_trapping_perturbation():
    # torus: -4/n^2 and 2/n at every sample for n in 1..32, classification
    # flips extremal -> trapped, under 10 s.
    _assert_all("criterion-2", verify.verify_trapping_construction())


def test_criterion_03_conformal_dual_path():
    # 50 seeded (surface, rescaling) pairs, 1e-6 relative agreement.
    _assert_all("criterion-3", verify.verify_conformal_dual_path())


def test_criterion_04_curvature_axioms():
    # symmetry residuals < 1e-9 on 100 random exact jets; flat < 1e-10.
    _assert_all("criterion-4", verify.verify_curvature_axioms())


def test_criterion_05_energy_condition_chain():
    # inclusion chain on every shipped scenario; torus weak/strict split
    # with witness value zero.
    _assert_all("criterion-5", verify.verify_energy_chain())


def test_criterion_06_constraints():
    # flat vacuum exact to 1e-12; isotropic slice vacuum to 1e-8 at 200
    # points; cylinder slice density 1 to 1e-9.
    _assert_all("criterion-6", verify.verify_constraints())


def test_criterion_07_mots_spectral_suite():
    # potential -1 to 1e-9; lambda1 -> -1 across resolutions; second-order
    # grid ratio in [3.5, 4.5]; constant eigenfunction; nondegeneracy;
    # under 30 s.
    _assert_all("criterion-7", verify.verify_spectral_suite())


def test_criterion_08_deformation_step():
    # centered difference of theta_+ matches lambda1 phi to 2e-3 pointwise
    # and the sign-rule displacement achieves theta_+ < 0 at all nodes.
    _assert_all("criterion-8", verify.verify_deformation())


def test_criterion_09_linear_analysis_lemmas():
    # 1000 equivalence triples, 500 codimension instances, 200 projection
    # identities, zero discrepancies, under 5 s.
    _assert_all("criterion-9", verify.verify_linear_lemmas())


def test_criterion_10_spectral_properties():
    # 50 seeded random operators: real minimal principal eigenvalue with
    # one-signed eigenfunction; drift-free instances symmetric to 1e-9.
    _assert_all("criterion-10", verify.verify_spectral_properties())


def test_criterion_11_determinism():
    # identical config and seed give byte-identical reports modulo wall time.
    _assert_all("criterion-11", verify.verify_determinism())
