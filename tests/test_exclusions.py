"""Every spiral and pole exclusion of the package, one parametrized test.

Each site is probed at relative distance 0.5 delta from a point of its spiral,
where it must exclude (raise its error class, return a skip reason or a
terminating degree), and at 2 delta, where it must not.  A site with a
``delta`` argument is probed at 1e-6 and 1e-3; the others at their fixed
tolerance.
"""

import cmath

import pytest

from qconnect import (
    BadLowerParameter,
    IdentityCheck,
    PoleHit,
    SolutionAtInfinity,
    SpiralProximity,
    as_modulus,
    check,
    e_exp,
    g_borel_image,
    qpochhammer_inf_shifted_pole,
    rphis,
    two_f_zero,
    two_f_zero_closed,
)
from qconnect.qcore import DEFAULT_PROXIMITY, _EXACT_TOL, _terminating_degree

Q = as_modulus(0.5)
LAM = 0.7
X_OK = 2.4 * cmath.exp(0.3j)  # off every spiral below
GRID_OK = 0.3 + 0.4j  # a second grid point that no filter excludes
DIRECTION = cmath.exp(0.9j)  # of the offset from the spiral point
DELTAS = (1e-6, 1e-3)


def evaluated(f):
    """A site that excludes by raising; otherwise its value is discarded."""

    def site(x, delta):
        f(x, delta)
        return None

    return site


def skip_reason(identity, **params):
    """A verify prefilter: the reason recorded for grid point x, or None."""

    def site(x, delta):
        chk = IdentityCheck(identity, Q.q, grid=(x, GRID_OK), delta=delta, **params)
        point = check(chk).points[0]
        return point.reason if point.skipped else None

    return site


# (id, spiral point, deltas, site, error class or None for a returned verdict)
SITES = [
    ("shifted-pole-lambda", Q.q**-2, DELTAS,
     evaluated(lambda x, d: qpochhammer_inf_shifted_pole(x, Q, 3, delta=d)), SpiralProximity),
    ("two-f-zero-lambda", Q.q**-2, DELTAS,
     evaluated(lambda x, d: two_f_zero(Q, x, X_OK, delta=d)), SpiralProximity),
    ("closed-form-lambda", Q.q**-2, DELTAS,
     evaluated(lambda x, d: two_f_zero_closed(Q, x, X_OK, delta=d)), SpiralProximity),
    ("closed-form-x", -LAM * Q.q**-2, DELTAS,
     evaluated(lambda x, d: two_f_zero_closed(Q, LAM, x, delta=d)), SpiralProximity),
    ("spiral-sum-x", -LAM * Q.q**-2, DELTAS,
     evaluated(lambda x, d: two_f_zero(Q, LAM, x, delta=d)), SpiralProximity),
    ("solution-at-infinity-t", Q.q**-2, DELTAS,
     evaluated(lambda x, d: SolutionAtInfinity(Q, x, d)), SpiralProximity),
    ("verify-lambda", Q.q**-2, DELTAS,
     evaluated(lambda x, d: check(IdentityCheck("thm-2f0", Q.q, lam=x, grid=(X_OK,), delta=d))),
     SpiralProximity),
    ("e_q-pole", Q.q**-2, DELTAS,
     evaluated(lambda x, d: e_exp(Q, x, mode="product", delta=d)), PoleHit),
    ("borel-pole-plus", Q.q**-4, DELTAS,
     evaluated(lambda x, d: g_borel_image(Q, x, delta=d)), PoleHit),
    ("borel-pole-minus", -(Q.q**-4), DELTAS,
     evaluated(lambda x, d: g_borel_image(Q, x, delta=d)), PoleHit),
    ("lower-parameter", Q.q**-2, (DEFAULT_PROXIMITY,),
     evaluated(lambda x, d: rphis((0.3,), (x,), Q, 0.4)), BadLowerParameter),
    ("terminating-degree", Q.q**-2, (_EXACT_TOL,),
     lambda x, d: _terminating_degree((x,), Q), None),
    ("filter-unit-disc", Q.q**2, DELTAS, skip_reason("thm-eq-Eq"), None),
    ("filter-watson", Q.q**2, DELTAS, skip_reason("watson", abc=(-4, 3, 0.5)), None),
    ("filter-neg-lambda", -LAM * Q.q**-2, DELTAS, skip_reason("thm-2f0", lam=LAM), None),
]

CASES = [
    pytest.param(point, delta, site, error, id=f"{name}-{delta:g}")
    for name, point, deltas, site, error in SITES
    for delta in deltas
]


@pytest.mark.parametrize("point, delta, site, error", CASES)
def test_excluded_at_half_delta_and_not_at_twice_delta(point, delta, site, error):
    near = point * (1 + 0.5 * delta * DIRECTION)
    far = point * (1 + 2 * delta * DIRECTION)
    if error is None:
        assert site(near, delta) is not None
    else:
        with pytest.raises(error) as info:
            site(near, delta)
        if error is BadLowerParameter:
            assert "q^(-N)" in str(info.value)
    assert site(far, delta) is None
