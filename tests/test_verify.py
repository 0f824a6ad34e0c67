import cmath
import csv
import dataclasses
import json
import math

import pytest

from qconnect import (
    EmptyGrid,
    IDENTITY_IDS,
    IdentityCheck,
    SpiralProximity,
    check,
    default_grid,
    default_suite,
    qairy_Ai_with_condition,
    qpochhammer_inf,
    ramanujan_Aq_with_condition,
    run_suite,
    theta,
)
from qconnect.qcore import TermLog, Truncation
from qconnect.verify import PointRecord


class TestDefaultGrid:
    def test_shape(self):
        grid = default_grid()
        assert len(grid) == 24
        moduli = sorted({round(abs(x), 9) for x in grid})
        assert len(moduli) == 3
        assert moduli[0] == pytest.approx(0.15)
        assert moduli[-1] == pytest.approx(8.0)
        # log-spaced middle ring
        assert moduli[1] == pytest.approx(math.sqrt(0.15 * 8.0))

    def test_angles_avoid_real_axis(self):
        for x in default_grid():
            ang = abs(cmath.phase(x))
            assert min(ang, math.pi - ang) >= math.pi / 16 - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            default_grid(n_moduli=0)


class TestIdentityCheckConstruction:
    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            IdentityCheck("watson-2", 0.5)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            IdentityCheck("watson", 0.5, tol=0.0)

    def test_all_ids_constructible(self):
        for ident in IDENTITY_IDS:
            IdentityCheck(ident, 0.5, lam=0.7, abc=(-4, 3, 0.5))


class TestCheckBehavior:
    def test_missing_lambda(self):
        with pytest.raises(ValueError):
            check(IdentityCheck("thm-2f0", 0.5))

    def test_missing_abc(self):
        with pytest.raises(ValueError):
            check(IdentityCheck("watson", 0.5))

    def test_lambda_on_base_spiral_raises(self):
        with pytest.raises(SpiralProximity):
            check(IdentityCheck("thm-2f0", 0.5, lam=1.0))

    def test_empty_grid_raises(self):
        grid = (2.0 + 1.0j, 3.0)  # all outside |x| < 1
        with pytest.raises(EmptyGrid):
            check(IdentityCheck("thm-eq-Eq", 0.5, grid=grid))

    def test_prefiltered_points_are_recorded(self):
        grid = (0.4 + 0.2j, 2.0 + 1.0j)
        rep = check(IdentityCheck("thm-eq-Eq", 0.5, grid=grid))
        assert rep.passed
        assert rep.n_evaluated == 1
        assert rep.n_skipped == 1
        skipped = [p for p in rep.points if p.skipped][0]
        assert "|x|" in skipped.reason

    def test_runtime_domain_errors_become_skips_and_block_pass(self):
        # aq/b = q^-1 makes a lower parameter of the connection side land in
        # q^(-N); every point dies at evaluation time, none silently passes
        rep = check(
            IdentityCheck("watson", 0.5, abc=(2.0, 2.0 * 0.5**2, 0.5))
        )
        assert rep.n_evaluated == 0
        assert not rep.passed
        assert all(p.skipped for p in rep.points)
        assert any("q^(-N)" in (p.reason or "") for p in rep.points)

    def test_exclusion_spiral_points_skipped(self):
        lam = 0.7
        grid = (1.3 + 0.2j, -lam * 0.5**2)
        rep = check(IdentityCheck("thm-2f0", 0.5, lam=lam, grid=grid))
        assert rep.n_evaluated == 1
        assert rep.n_skipped == 1

    def test_mutation_is_detected(self):
        rep = check(
            IdentityCheck("thm-2f0", 0.5, lam=0.7),
            mutations=frozenset({"drop-one-minus-q"}),
        )
        assert not rep.passed
        assert rep.max_rel_err > 1e-3

    def test_condition_recorded(self):
        rep = check(IdentityCheck("thm-ramanujan-qairy", 0.5))
        assert all(p.condition >= 1.0 for p in rep.points if not p.skipped)

    def test_watson_internal_condition_is_not_forgiven(self):
        # the lhs 2phi1 cancels with internal condition ~2.1e9 at this abc and
        # is really 6.6e-8 off; the point's condition (~2.5) does not fold
        # that into the tolerance, so the check must not PASS
        rep = check(IdentityCheck("watson", 0.8, abc=(2j, -3, 0.25)))
        assert rep.n_evaluated >= 1
        assert not rep.passed

    def test_custom_tolerance_can_fail(self):
        rep = check(IdentityCheck("qde-ramanujan", 0.5, tol=1e-30))
        assert not rep.passed

    def test_truncation_cap_becomes_a_skip(self):
        # any package error at a point is a record, not an abort of the suite
        rep = check(IdentityCheck("ismail-zhang", 0.5, trunc=Truncation(n_max=5)))
        assert rep.n_evaluated == 0 and not rep.passed
        assert all(p.skipped and "n_max" in p.reason for p in rep.points)

    def test_underflowed_theta_denominator_becomes_a_skip(self):
        # at q = 0.99 theta(-lambda/q) theta(lambda/x) underflows to 0 at
        # this x, though each factor is above the theta floor
        x = -0.14711779206048456 - 0.029263548302419253j
        rep = check(IdentityCheck("thm-2f0", 0.99, lam=0.7, grid=(x,)))
        (point,) = rep.points
        assert point.skipped and "numerically zero" in point.reason


    @pytest.mark.parametrize("q, plain_terms", [(0.8, 129_338), (0.99, 37_356_688)])
    def test_residue_lemma_work(self, q, plain_terms):
        # a deterministic work guard: the one-argument products of the
        # residue integrand take the log-series split, at most half the
        # TermLog count the check takes with every product on the plain loop.
        # The verdict is pinned at q = 0.8 only: at 0.99 the circle rule's
        # means sit at their noise floor, so its stop is left to chance
        log = TermLog()
        rep = check(IdentityCheck("residue-lemma", q, trunc=Truncation(log=log)))
        assert rep.passed or q == 0.99
        assert 2 * log.terms <= plain_terms


def _ramanujan_qairy_terms(q, x):
    """(summand, internal condition) of thm-ramanujan-qairy at x, from the
    public evaluators: A_{q^2}(-q^3/x^2) and the two theta-weighted Ai_q."""
    lhs, c0 = ramanujan_Aq_with_condition(q * q, -(q**3) / (x * x))
    den = qpochhammer_inf((q, -1 + 0j), q)
    a1, c1 = qairy_Ai_with_condition(q, -x)
    a2, c2 = qairy_Ai_with_condition(q, x)
    return [(lhs, c0), (theta(q, x / q) * a1 / den, c1), (theta(q, -x / q) * a2 / den, c2)]


def _qde_qairy_terms(q, x):
    """(summand, internal condition) of qde-qairy at x:
    Ai_q(q^2 x) + x Ai_q(q x) = Ai_q(x)."""
    a1, c1 = qairy_Ai_with_condition(q, q * q * x)
    a2, c2 = qairy_Ai_with_condition(q, q * x)
    a3, c3 = qairy_Ai_with_condition(q, x)
    return [(a1, c1), (x * a2, c2), (a3, c3)]


class TestConditionComposition:
    @pytest.mark.parametrize(
        "ident, terms",
        [("thm-ramanujan-qairy", _ramanujan_qairy_terms), ("qde-qairy", _qde_qairy_terms)],
    )
    def test_point_condition_composes_internal_conditions(self, ident, terms):
        # condition = sum |t_i| cond_i / max(|lhs|, |rhs|), at least 1
        q = 0.5
        rep = check(IdentityCheck(ident, q))
        points = [p for p in rep.points if not p.skipped]
        assert points
        dropped_seen = [False, False, False]
        for p in points:
            ts = terms(q, p.x)
            mag = max(abs(p.lhs), abs(p.rhs))
            composed = max(sum(abs(t) * c for t, c in ts) / mag, 1.0)
            assert p.condition == pytest.approx(composed, rel=1e-12)
            # dropping one term's internal condition must show at some point
            for i in range(len(ts)):
                without = sum(abs(t) * (1.0 if j == i else c) for j, (t, c) in enumerate(ts))
                if p.condition > 1.01 * max(without / mag, 1.0):
                    dropped_seen[i] = True
        assert all(dropped_seen)

    @pytest.mark.parametrize("ident", ["operational-lemma", "formal-inverses"])
    def test_formal_point_is_its_worst_coefficient_pair(self, ident):
        rep = check(IdentityCheck(ident, 0.5))
        for p in rep.points:
            assert not p.skipped and p.condition == 1.0
            assert p.rel_err == abs(p.lhs - p.rhs) / max(abs(p.lhs), abs(p.rhs))


class TestSuite:
    def test_empty_config(self):
        assert run_suite([]) == []

    def test_default_suite_composition(self):
        checks = default_suite()
        assert len(checks) == 3 * len(IDENTITY_IDS)
        assert {c.q for c in checks} == {0.3 + 0j, 0.5 + 0j, 0.8 + 0j}

    def test_default_suite_passes_at_half(self):
        reports = run_suite(default_suite(qs=(0.5,)))
        assert all(r.passed for r in reports)
        assert {r.identity for r in reports} == set(IDENTITY_IDS)


@pytest.fixture(scope="module")
def report():
    return check(IdentityCheck("thm-eq-Eq", 0.5))


class TestReportSerialization:
    def test_json_schema_keys(self, report):
        d = report.to_json_dict()
        assert list(d.keys()) == [
            "identity",
            "q",
            "lambda",
            "points",
            "max_rel_err",
            "pass",
            "trunc",
        ]
        assert d["q"] == {"re": 0.5, "im": 0.0}
        assert d["lambda"] is None
        assert d["trunc"] == {"eps": 1e-15, "n_max": 10000}
        point = d["points"][0]
        assert list(point.keys()) == [
            "x",
            "lhs",
            "rhs",
            "abs_err",
            "rel_err",
            "condition",
            "skipped",
            "reason",
        ]

    def test_json_round_trip_is_byte_identical(self, report):
        text = report.to_json()
        again = json.dumps(json.loads(text), separators=(",", ":"))
        assert again == text

    def test_csv_columns(self, report):
        lines = report.to_csv().splitlines()
        assert lines[0] == (
            "x_re,x_im,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,"
            "condition,skipped,reason"
        )
        assert len(lines) == 1 + len(report.points)

    def test_csv_cells_match_json(self, report):
        tricky = PointRecord(
            0.3 - 2j, 0j, 0j, 0.0, 0.0, 0.0, True, 'excluded, "on purpose", here'
        )
        rep = dataclasses.replace(report, points=report.points + [tricky])
        header, *rows = list(csv.reader(rep.to_csv().splitlines()))
        points = rep.to_json_dict()["points"]
        assert len(rows) == len(points) == len(report.points) + 1
        for row, point in zip(rows, points):
            cells = dict(zip(header, row, strict=True))
            for key, value in point.items():
                if isinstance(value, dict):
                    assert float(cells[key + "_re"]) == value["re"]
                    assert float(cells[key + "_im"]) == value["im"]
                elif isinstance(value, bool):
                    assert cells[key] == ("true" if value else "false")
                elif isinstance(value, float):
                    assert float(cells[key]) == value
                else:
                    assert cells[key] == (value or "")
        assert dict(zip(header, rows[-1]))["reason"] == 'excluded, "on purpose", here'

    def test_deterministic(self):
        a = check(IdentityCheck("ismail-zhang", 0.5)).to_json()
        b = check(IdentityCheck("ismail-zhang", 0.5)).to_json()
        assert a == b

    def test_pass_iff_max_under_tol(self, report):
        assert report.passed == (
            report.max_rel_err <= report.tol and report.n_evaluated >= 1
        )


class TestPerIdentitySpotChecks:
    def test_thm_ramanujan_qairy_single_point(self):
        rep = check(IdentityCheck("thm-ramanujan-qairy", 0.5, grid=(1.0,)))
        assert rep.passed
        p = rep.points[0]
        assert p.rel_err < 1e-10
        # lhs is the entire series at -q^3
        from qconnect import ramanujan_Aq

        assert abs(p.lhs - ramanujan_Aq(0.25, -0.125)) < 1e-14

    def test_watson_reference_point(self):
        rep = check(
            IdentityCheck("watson", 0.5, abc=(-4, 3, 0.5), grid=(0.8 + 0j,))
        )
        assert rep.passed
        assert rep.points[0].rel_err < 1e-9

    def test_qde_theta_uses_disjoint_paths(self):
        rep = check(IdentityCheck("qde-theta", 0.5))
        assert rep.passed

    def test_residue_lemma_point_count(self):
        rep = check(IdentityCheck("residue-lemma", 0.5))
        # two anchors, k = 0..5 by quadrature plus k = 0..8 by products
        assert len(rep.points) == 2 * (6 + 9)

    def test_formal_inverses_pass_where_coefficients_underflow(self):
        # at q = 0.05 the first-kind weights q^(n(n-1)/2) fall below 1e-300
        # inside the degree-30 series; the round trip compares its valid prefix
        rep = check(IdentityCheck("formal-inverses", 0.05))
        assert rep.passed
        assert rep.n_evaluated == 5
        assert rep.max_rel_err < 1e-15

    def test_operational_lemma_runs_all_pairs(self):
        rep = check(IdentityCheck("operational-lemma", 0.5))
        assert len(rep.points) == 36
        assert rep.passed
