"""Every public evaluator on a fixed grid of bases and arguments, down to 0
and up to the edge of double range: each call gives a finite value or a
``QConnectError``, never a bare Python error or a nan."""

import cmath
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qconnect import (
    DomainError,
    E_exp,
    IdentityCheck,
    QConnectError,
    SolutionAtInfinity,
    Truncation,
    ZeroArgument,
    check,
    e_exp,
    f_via_residues,
    g_borel_image,
    qairy_Ai,
    qpochhammer_inf,
    qpochhammer_inf_shifted_pole,
    qpochhammer_n,
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
    ],
)
def test_edge_of_double_range_error_class(call, error):
    with pytest.raises(error):
        call()


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
