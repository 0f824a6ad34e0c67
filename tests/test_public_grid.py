"""Every public evaluator on a fixed grid of bases and arguments, down to 0
and up to the edge of double range: each call gives a finite value or a
``QConnectError``, never a bare Python error or a nan."""

import cmath
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qconnect import (
    DomainError,
    E_exp,
    FormalSeries,
    IdentityCheck,
    QDEOperator,
    QConnectError,
    SolutionAtInfinity,
    Truncation,
    ZeroArgument,
    apply_operator,
    as_modulus,
    borel_minus_operator_image,
    check,
    contour_residue,
    default_grid,
    e_exp,
    f_via_residues,
    g_borel_image,
    qairy_Ai,
    qpochhammer_inf,
    qpochhammer_inf_shifted_pole,
    qpochhammer_n,
    qborel_minus,
    qborel_plus,
    qlaplace_minus,
    qlaplace_plus,
    ramanujan_Aq,
    rphis,
    theta,
    theta_product,
    theta_sum,
    two_f_zero,
    two_f_zero_closed,
)
from qconnect.qcore import Spiral
from conftest import rel_err

# the tiny bases put q^2, q^k or 1/|q|^2 past double range
QS = (
    0.05,
    0.5,
    0.95,
    0.999,
    -0.9,
    0.6 * cmath.exp(2.1j),
    1e-60,
    1e-100,
    1e-155,
    1e-200,
    1e-300,
    1e-200j,
)
ARGS = (
    0j,
    1e-300,
    1e-100,
    1e-12,
    1e-3,
    0.37 + 0.21j,
    -2.3 + 1.1j,
    1e3,
    1e12,
    1e100,
    1e300,
    complex(1e308, 1e308),  # finite parts, modulus just inside double range
)
EVALUATORS = {
    "qpochhammer_inf": lambda q, x: qpochhammer_inf(x, q),
    "qpochhammer_inf_shifted_pole": lambda q, x: qpochhammer_inf_shifted_pole(x, q, 3),
    "qpochhammer_n": lambda q, x: qpochhammer_n(x, q, 5),
    "theta": theta,
    "theta_sum": theta_sum,
    "theta_product": theta_product,
    "rphis": lambda q, x: rphis((0.3,), (0.2,), q, x),
    "e_exp": e_exp,
    "E_exp": E_exp,
    "ramanujan_Aq": ramanujan_Aq,
    "qairy_Ai": qairy_Ai,
    "g_borel_image": g_borel_image,
    "f_via_residues": f_via_residues,
    "two_f_zero": lambda q, x: two_f_zero(q, 0.7, x),
    "two_f_zero_closed": lambda q, x: two_f_zero_closed(q, 0.7, x),
    "SolutionAtInfinity": lambda q, x: SolutionAtInfinity(q, x).value(),
    "qlaplace_plus": lambda q, x: qlaplace_plus(lambda s: 1.0, q, 0.7, x),
    "qlaplace_minus": lambda q, x: qlaplace_minus(lambda tau: 1.0, q, x),
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_finite_value_or_typed_error(name):
    fn = EVALUATORS[name]
    for q in QS:
        for x in ARGS:
            try:
                value = fn(q, x)
            except QConnectError:
                continue
            assert cmath.isfinite(value), (name, q, x, value)


# the formal maps at each (m, l): the monomial and shift powers of the
# operator and of the operational relation; l = 10^9 shifts by sigma_q^(10^9)
FORMAL_MAPS = {
    "apply_operator": lambda m, l, f: (apply_operator(QDEOperator(((m, 1, l), (0, -1, 0))), f),),
    "qborel_plus": lambda m, l, f: (qborel_plus(f),),
    "qborel_minus": lambda m, l, f: (qborel_minus(f),),
    "borel_minus_operator_image": borel_minus_operator_image,
    # an operator coefficient out of double range
    "apply_operator, nan c": lambda m, l, f: (
        apply_operator(QDEOperator(((m, complex(math.nan, 0.0), l),)), f),
    ),
}
FORMAL_ML = ((0, 0), (1, 3), (5, 0), (5, 5), (2, 7), (15, 0), (23, 0), (35, 2), (3, 10**9))


def formal_series(q, scale):
    """operational-lemma's kind of series, order 40 with unit-disc
    coefficients (every fifth one zero), times scale."""
    rng = random.Random(9173)
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale for _ in range(41)]
    coeffs[4::5] = [0j] * len(coeffs[4::5])
    return FormalSeries(as_modulus(q), coeffs)


def formal_input(base, bad=None):
    """operational-lemma's kind of series at q = 0.5, given with ``base`` as
    it is, with c_2 replaced by ``bad`` where one is given."""
    coeffs = list(formal_series(0.5, 1.0).coeffs)
    if bad is not None:
        coeffs[2] = bad
    return FormalSeries(base, coeffs)


# series given with a bare base, and with a coefficient out of double range
# at n = 2 (its modulus overflows, or it is nan), formed inside the test
FORMAL_INPUTS = (
    lambda: formal_input(0.5),
    lambda: formal_input(as_modulus(0.5), complex(1.7e308, 1.7e308)),
    lambda: formal_input(as_modulus(0.5), complex(math.nan, 0.0)),
)


@pytest.mark.parametrize("name", FORMAL_MAPS)
def test_formal_maps_finite_or_typed_error(name):
    inputs = [
        (lambda q=q, scale=scale: formal_series(q, scale), (q, scale))
        for q in QS
        for scale in (1.0, 1e-200, 1e200)
    ]
    inputs += [(make, i) for i, make in enumerate(FORMAL_INPUTS)]
    for make, label in inputs:
        for m, l in FORMAL_ML:
            try:
                out = FORMAL_MAPS[name](m, l, make())
            except QConnectError:
                continue
            for g in out:
                assert all(map(cmath.isfinite, g.coeffs)), (name, label, m, l)


def powers_of_ten(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)
# |q| log-uniform from 1e-300 to 0.999, and uniform over [0.5, 0.999] and
# [0.99, 0.999] for the bases near 1, where products and theta values
# underflow; real (either sign) or complex
BASES = st.builds(
    lambda m, a: m if a is None else cmath.rect(m, a),
    st.one_of(
        powers_of_ten(-300, math.log10(0.999)), st.floats(0.5, 0.999), st.floats(0.99, 0.999)
    ),
    st.one_of(st.none(), st.just(math.pi), ANGLES),
)
# 0, non-finite parts, and moduli from subnormal up to 1.78e308
POINTS = st.one_of(
    st.sampled_from(
        (0j, complex(math.nan), complex(math.inf), complex(1.0, -math.inf), complex(1e308, 1e308))
    ),
    st.builds(cmath.rect, powers_of_ten(-320, 308.25), ANGLES),
)
# derandomized, so tier-1 draws the same inputs on every run
PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("name", EVALUATORS)
@PROPERTY
@given(q=BASES, x=POINTS)
def test_finite_value_or_typed_error_property(name, q, x):
    try:
        value = EVALUATORS[name](q, x)
    except QConnectError:
        return
    assert cmath.isfinite(value), (q, x, value)


@pytest.mark.parametrize("identity", ["thm-eq-Eq", "lemma-alt", "thm-2f0", "qde-2f0-resummed"])
@PROPERTY
@given(q=BASES, x=POINTS)
def test_check_reports_or_typed_error_property(identity, q, x):
    # the identities that divide by theta: a report whose evaluated points
    # are finite, or a typed error
    try:
        rep = check(IdentityCheck(identity, q, lam=0.7, grid=(x,)))
    except QConnectError:
        return
    assert math.isfinite(rep.max_rel_err)
    for p in rep.points:
        assert p.skipped or (cmath.isfinite(p.lhs) and cmath.isfinite(p.rhs)), (q, x, p)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: qairy_Ai(0.5, complex(1e308, 1e308)), DomainError),
        (lambda: rphis((0.3,), (0.2,), 0.5, complex(1e308, 1e308)), DomainError),
        (lambda: qpochhammer_inf_shifted_pole(0.0, 0.05, 3), ZeroArgument),
        (lambda: qpochhammer_inf_shifted_pole(1e-300, 0.05, 3), DomainError),
        (lambda: qpochhammer_n(1e300, 0.5, 5), DomainError),
        # eps / max|a| underflows to 0 at a small eps: the factor count
        # takes a difference of logs, so the product overflows as at the
        # default eps
        (lambda: qpochhammer_inf(1.7e308, 0.5, Truncation(eps=1e-17)), DomainError),
        (lambda: qpochhammer_inf(1e308 + 1e308j, 0.5, Truncation(eps=1e-17)), DomainError),
        (lambda: E_exp(0.5, 1.7e308, Truncation(eps=1e-17), mode="product"), DomainError),
        # tiny bases: q^k, q^(-n) or q^2 underflows to 0 on the way
        (lambda: theta(1e-120, 1e308 + 1e308j), DomainError),
        (lambda: qlaplace_plus(lambda s: 1.0, 1e-60, 0.7, 1e100), DomainError),
        (lambda: g_borel_image(1e-200, 0.5), DomainError),
        (lambda: two_f_zero(1e-300, 0.7, 2.1), DomainError),
        # a non-finite center, anchor or lambda
        (lambda: contour_residue(lambda z: 1 / z, math.nan, 0.1), DomainError),
        (lambda: Spiral(math.nan, as_modulus(0.5)).exclude(1.0), DomainError),
        (lambda: qlaplace_plus(lambda s: 1.0, 0.5, math.nan, 1.3), DomainError),
        (lambda: qlaplace_plus(lambda s: 1.0, 0.5, math.inf, 1.3), DomainError),
        # malformed grid bounds and counts
        (lambda: default_grid(0, 8), DomainError),
        (lambda: default_grid(-1, 8), DomainError),
        (lambda: default_grid(math.nan, 8), DomainError),
        (lambda: default_grid(1, math.inf), DomainError),
        (lambda: qpochhammer_n(0.5, 0.5, 2.5), DomainError),
        (lambda: qpochhammer_inf_shifted_pole(0.7, 0.5, 2.5), DomainError),
    ],
)
def test_edge_of_double_range_error_class(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("q", [1e-100, 1e-160, 1.6e-162])
def test_residue_lemma_names_its_sample_out_of_range(q):
    # at k = 2 the residue circle's center is lambda q^(-2), where the
    # integrand's product times tau overflows: each anchor skips at its first
    # circle rule, naming the sample, not a rule that did not stabilize
    rep = check(IdentityCheck("residue-lemma", q))
    assert rep.n_evaluated == 0 and not rep.passed
    for p in rep.points:
        assert p.skipped and "is not finite: (nan+nanj)" in p.reason, p.reason


def test_tiny_base_values():
    # spiral points q^k past double range are skipped in the distance test,
    # and 1/|q|^2 overflows to an unbounded contour radius
    assert cmath.isfinite(two_f_zero_closed(1e-100, 0.7, 1e-100))
    assert qpochhammer_inf_shifted_pole(1e-100, 1e-155, 3) == 0  # ~1e-630 underflows
    assert abs(qlaplace_minus(lambda tau: 1.0, 1e-200, 1.0) - 1) < 1e-15


@pytest.mark.parametrize("q", [1e-60, 1e-100, 1e-100j])
@pytest.mark.parametrize("x", [2.1, 2.1 + 0.3j, 1e3])
def test_tiny_base_spiral_sum_matches_closed_form(q, x):
    # once the Borel image underflows to 0 down the spiral, lambda q^(n-2)
    # overflows to inf and then to inf+nanj; the zero terms stay zero
    assert rel_err(two_f_zero(q, 0.7, x), two_f_zero_closed(q, 0.7, x)) < 1e-14


@pytest.mark.parametrize("fn", [two_f_zero, two_f_zero_closed])
@pytest.mark.parametrize(
    "q, lam, x",
    [
        # |x| / |lambda| overflows, or underflows to 0, in the exclusion test
        (0.05, 0.7, complex(1e308, 1e308)),
        (0.5, 10.0, 5e-324),
        # the modulus of x minus a spiral point, or of the point, overflows
        (0.05, 1e20 * (1 + 1j), complex(1e308, 1e308)),
        (0.6j, 1e20 * (1 + 1j), complex(1.2e308, 3e307)),
    ],
)
def test_spiral_distance_at_the_edge_of_double_range(fn, q, lam, x):
    with pytest.raises(DomainError):
        fn(q, lam, x)
