"""Every spiral and pole exclusion of the package, one parametrized test.

Each site is probed at relative distance 0.5 delta from a point of its spiral,
where it must exclude (raise its error class, return a skip reason or a
terminating degree), and at 2 delta, where it must not.  delta is
``DEFAULT_PROXIMITY``, the one threshold of every exclusion, except for the
near-exact recognition of terminating parameters (``_EXACT_TOL``).
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


def evaluated(f):
    """A site that excludes by raising; otherwise its value is discarded."""

    def site(x):
        f(x)
        return None

    return site


def skip_reason(identity, **params):
    """A verify grid filter: the reason recorded for grid point x, or None."""

    def site(x):
        chk = IdentityCheck(identity, Q.q, grid=(x, GRID_OK), **params)
        point = check(chk).points[0]
        return point.reason if point.skipped else None

    return site


# (id, spiral point, site, error class or None for a returned verdict)
SITES = [
    ("shifted-pole-lambda", Q.q**-2,
     evaluated(lambda x: qpochhammer_inf_shifted_pole(x, Q, 3)), SpiralProximity),
    ("two-f-zero-lambda", Q.q**-2, evaluated(lambda x: two_f_zero(Q, x, X_OK)), SpiralProximity),
    ("closed-form-lambda", Q.q**-2,
     evaluated(lambda x: two_f_zero_closed(Q, x, X_OK)), SpiralProximity),
    ("closed-form-x", -LAM * Q.q**-2,
     evaluated(lambda x: two_f_zero_closed(Q, LAM, x)), SpiralProximity),
    ("spiral-sum-x", -LAM * Q.q**-2, evaluated(lambda x: two_f_zero(Q, LAM, x)), SpiralProximity),
    ("solution-at-infinity-t", Q.q**-2,
     evaluated(lambda x: SolutionAtInfinity(Q, x)), SpiralProximity),
    ("verify-lambda", Q.q**-2,
     evaluated(lambda x: check(IdentityCheck("thm-2f0", Q.q, lam=x, grid=(X_OK,)))),
     SpiralProximity),
    ("e_q-pole", Q.q**-2, evaluated(lambda x: e_exp(Q, x, mode="product")), PoleHit),
    ("borel-pole-plus", Q.q**-4, evaluated(lambda x: g_borel_image(Q, x)), PoleHit),
    ("borel-pole-minus", -(Q.q**-4), evaluated(lambda x: g_borel_image(Q, x)), PoleHit),
    ("lower-parameter", Q.q**-2,
     evaluated(lambda x: rphis((0.3,), (x,), Q, 0.4)), BadLowerParameter),
    ("filter-unit-disc", Q.q**2, skip_reason("thm-eq-Eq"), None),
    ("filter-watson", Q.q**2, skip_reason("watson", abc=(-4, 3, 0.5)), None),
    ("filter-neg-lambda", -LAM * Q.q**-2, skip_reason("thm-2f0", lam=LAM), None),
]

CASES = [
    pytest.param(point, DEFAULT_PROXIMITY, site, error, id=f"{name}-{DEFAULT_PROXIMITY:g}")
    for name, point, site, error in SITES
] + [
    pytest.param(
        Q.q**-2, _EXACT_TOL, lambda x: _terminating_degree((x,), Q), None,
        id=f"terminating-degree-{_EXACT_TOL:g}",
    )
]


@pytest.mark.parametrize("point, delta, site, error", CASES)
def test_excluded_at_half_delta_and_not_at_twice_delta(point, delta, site, error):
    near = point * (1 + 0.5 * delta * DIRECTION)
    far = point * (1 + 2 * delta * DIRECTION)
    if error is None:
        assert site(near) is not None
    else:
        with pytest.raises(error) as info:
            site(near)
        if error is BadLowerParameter:
            assert "q^(-N)" in str(info.value)
    assert site(far) is None
