"""The named q-special functions and their resummed representations.

The two q-analogues of the Airy function both solve second order linear
q-difference equations:

* the entire series A_q(x) = sum q^(n^2) (-x)^n / (q;q)_n solves
  q x u(q^2 x) - u(qx) + u(x) = 0;
* the entire series Ai_q(x) = 1phi1(0; -q; q, -x) solves
  u(q^2 x) + x u(qx) - u(x) = 0.

Around infinity the second equation is solved by z(t) = E(t) f(t) with
t = 1/x, gauge E(t) = 1/theta_q(-q^2 t) and f(t) = A_{q^2}(-q^3 t^2); the
module exposes f both as that series and as the residue-sum closed form that
the second-kind Borel-Laplace pipeline produces, so the two can be checked
against each other and against direct contour quadrature.

For the divergent series 2phi0(0,0;-;q,-x/q), :func:`two_f_zero` returns the
first-kind Borel-Laplace resummation along the spiral [lambda; q] and
:func:`two_f_zero_closed` the theta-weighted closed form it must equal for
x off [-lambda; q].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    DomainError,
    NoConvergence,
    PoleHit,
    ThetaZero,
    ZeroArgument,
)
from .qcore import (
    DEFAULT_PROXIMITY,
    QModulus,
    Spiral,
    Truncation,
    as_modulus,
    e_exp,
    qpochhammer_inf,
    rphis,
    rphis_with_condition,
    theta,
    _below_noise,
    _condition,
    _finite_abs,
    _sum_tail,
    _trunc,
    _weighted_abs,
)
from .series import QDEOperator
from .transforms import _spiral_sum, _theta_from_x

__all__ = [
    "ramanujan_Aq",
    "ramanujan_Aq_with_condition",
    "qairy_Ai",
    "qairy_Ai_with_condition",
    "g_borel_image",
    "f_via_residues",
    "two_f_zero",
    "two_f_zero_closed",
    "SolutionAtInfinity",
    "ramanujan_operator",
    "qairy_operator",
]

# denominator theta values below this magnitude are treated as exact zeros
_THETA_FLOOR = 1e-250


def ramanujan_Aq_with_condition(
    q: QModulus | complex, x: complex, trunc: Truncation | None = None
) -> tuple[complex, float]:
    """:func:`ramanujan_Aq` plus the internal condition sum|term|/|value|."""
    _finite_abs(x, "A_q")
    tr = _trunc(trunc)
    qm = as_modulus(q)
    qc = qm.q

    def terms() -> Iterator[complex]:
        one = 1 + 0j
        # q^(2n+1) keeps its own running product: the table's entry rounds differently
        pw, t, q2n1, n = qm._powers, one, qc, 0
        while True:
            yield t
            if n + 1 >= len(pw):
                pw = qm._powers_to(n + 2)
            t *= q2n1 * (-x) / (one - pw[n + 1])
            q2n1 *= qc * qc
            n += 1

    total, abs_sum, _, count = _sum_tail(
        terms(), tr, 0j, 0.0, 1.0, tr.streak, "A_q series tail"
    )
    tr.note(count)
    return total, _condition(abs_sum, abs(total))


def ramanujan_Aq(
    q: QModulus | complex, x: complex, trunc: Truncation | None = None
) -> complex:
    """Entire q-Airy analogue A_q(x) = sum_{n>=0} q^(n^2) (-x)^n / (q;q)_n.

    Also used at base q^2 for the solution at infinity.
    """
    return ramanujan_Aq_with_condition(q, x, trunc)[0]


def qairy_Ai(
    q: QModulus | complex, x: complex, trunc: Truncation | None = None
) -> complex:
    """The q-Airy function Ai_q(x) = 1phi1(0; -q; q, -x), entire in x."""
    qm = as_modulus(q)
    return rphis((0j,), (-qm.q,), qm, -x, trunc)


def qairy_Ai_with_condition(
    q: QModulus | complex, x: complex, trunc: Truncation | None = None
) -> tuple[complex, float]:
    """:func:`qairy_Ai` plus the internal condition of its defining series."""
    qm = as_modulus(q)
    return rphis_with_condition((0j,), (-qm.q,), qm, -x, trunc)


def g_borel_image(
    q: QModulus | complex,
    tau: complex,
    trunc: Truncation | None = None,
) -> complex:
    """Second-kind Borel image g(tau) = 1 / ((-q^2 tau; q)_inf (q^2 tau; q)_inf).

    g solves g(q tau) = (1 + q^2 tau)(1 - q^2 tau) g(tau) with g(0) = 1 and
    has simple poles exactly at tau = +-q^(-2-k), k >= 0.

    Evaluated as the one product 1/(q^4 tau^2; q^2)_inf, by
    (a; q)_inf (-a; q)_inf = (a^2; q^2)_inf, so ``trunc.log`` counts the
    factors of that product.  Within relative distance
    delta = ``DEFAULT_PROXIMITY`` of a pole :class:`PoleHit` is raised.  Every
    pole has modulus at least |q|^(-2), so for |q^2 tau| < 1 - 2 delta none
    lies within delta and the pole scan is skipped.  A non-finite tau, or one
    so large that the product overflows, raises
    :class:`~qconnect.errors.DomainError`.
    """
    qm = q if isinstance(q, QModulus) else as_modulus(q)
    _finite_abs(tau, "the Borel image", "tau")
    q2t = qm.q * qm.q * tau
    if not abs(q2t) < 1 - 2 * DEFAULT_PROXIMITY:
        anchor = qm.q**-2
        for sgn in (1, -1):
            k = Spiral(sgn * anchor, qm).half_hit(tau)
            if k is not None:
                raise PoleHit(
                    f"tau={tau!r} lies within {DEFAULT_PROXIMITY} of the pole "
                    f"{sgn}*q^({-2 + k}) of the Borel image"
                )
    q2m = qm.squared()
    try:
        return 1 / qpochhammer_inf(q2t * q2t, q2m, trunc)
    except DomainError:
        raise DomainError(
            f"tau={tau!r} is out of double range for the Borel image (q={qm.q!r}): "
            "the product (q^4 tau^2; q^2)_inf overflows or underflows"
        ) from None


def f_via_residues(
    q: QModulus | complex, t: complex, trunc: Truncation | None = None
) -> complex:
    """Residue-sum closed form of the series factor at infinity,

        f(t) = [theta(q^2 t) 1phi1(0;-q;q,1/t) + theta(-q^2 t) 1phi1(0;-q;q,-1/t)]
               / (q, -1; q)_inf,

    which must agree with A_{q^2}(-q^3 t^2) and with the contour-quadrature
    value of the second-kind q-Laplace transform of the Borel image.

    For small |t| the two 1phi1 series at +-1/t cancel large terms, and the
    two products T_1, T_2 of the numerator cancel each other.  The condition
    (|T_1| cond_1 + |T_2| cond_2) / |T_1 + T_2|, with cond_i the internal
    condition of the series in T_i, is the factor by which the value loses
    precision.  Where 100 ulp times it reaches 1, the noise floor
    :func:`~qconnect.transforms.qlaplace_minus` also applies, no significant
    digit is left and the call raises
    :class:`~qconnect.errors.NoConvergence`.  A value out of double range
    raises :class:`~qconnect.errors.DomainError`.
    """
    if t == 0:
        raise ZeroArgument("f is evaluated at nonzero t")
    tr = _trunc(trunc)
    qm = as_modulus(q)
    qc = qm.q
    q2t = qm.q2 * t
    s_p, cond_p = rphis_with_condition((0j,), (-qc,), qm, 1 / t, tr)
    s_m, cond_m = rphis_with_condition((0j,), (-qc,), qm, -1 / t, tr)
    t_p = theta(qm, q2t, tr) * s_p
    t_m = theta(qm, -q2t, tr) * s_m
    num = t_p + t_m
    value = num / qpochhammer_inf((qc, -1 + 0j), qm, tr)
    try:
        cond = _condition(_weighted_abs(((t_p, cond_p), (t_m, cond_m))), abs(num))
    except OverflowError:
        value = math.nan  # the moduli of the products leave double range
    if not cmath.isfinite(value):
        raise DomainError(f"t={t!r} is out of double range for the residue sum (q={qc!r})")
    if _below_noise(cond):
        raise NoConvergence(
            f"the residue sum at t={t!r} (q={qc!r}) has condition {cond:.3e}: "
            "no significant digits survive in double precision"
        )
    return value


def two_f_zero(
    q: QModulus | complex,
    lam: complex,
    x: complex,
    trunc: Truncation | None = None,
) -> complex:
    """Resummation of the divergent series 2phi0(0,0;-;q,-x/q) along [lambda;q].

    This is the first-kind Laplace transform of the first-kind Borel image
    phi(xi) = e_q(xi/q) = 1/(xi/q; q)_inf.  Requires lambda off q^Z (else phi
    hits poles and the closed form degenerates) and x off [-lambda; q].

    Only phi(lambda) is evaluated as a product, with the single pole check of
    :func:`~qconnect.qcore.e_exp`; the other spiral values follow from the
    q-difference equation e_q(q xi) = (1 - xi) e_q(xi):
    phi(lambda q^(n+1)) = (1 - lambda q^(n-1)) phi(lambda q^n) upward and
    phi(lambda q^(n-1)) = phi(lambda q^n) / (1 - lambda q^(n-2)) downward.
    No other spiral point needs a pole check: the relative distance of
    lambda q^n from q^Z is that of lambda.
    """
    tr = _trunc(trunc)
    qm = as_modulus(q)
    qc = qm.q
    Spiral(1 + 0j, qm).exclude(lam, "lambda")
    phi0 = e_exp(qm, lam / qc, tr, mode="product")

    def up() -> Iterator[complex]:
        phi, a = phi0, lam / qc  # a = lambda q^(n-1)
        while True:
            yield phi
            phi *= 1 - a
            a *= qc

    def down() -> Iterator[complex]:
        phi, b = phi0, lam / qm.squared().q  # b = lambda q^(n-2); q^2 checked for underflow
        while True:
            if phi:  # once phi underflows to 0, b may overflow to inf+nanj
                phi /= 1 - b
            b /= qc
            yield phi

    return _spiral_sum(up(), down(), qm, lam, x, tr)


def _two_f_zero_closed_parts(
    qm: QModulus, lam: complex, x: complex, tr: Truncation
) -> tuple[complex, complex]:
    """The even and odd terms of :func:`two_f_zero_closed`."""
    if x == 0:
        raise ZeroArgument("x must be nonzero")
    qc = qm.q
    Spiral(1 + 0j, qm).exclude(lam, "lambda")
    Spiral(-lam, qm).exclude(x)
    th_lam = theta(qm, -lam / qc, tr)
    th_lx = _theta_from_x(qm, lam / x, x, tr)
    den = th_lam * th_lx
    # each factor may clear the floor while their product underflows to 0
    if abs(th_lam) < _THETA_FLOOR or abs(th_lx) < _THETA_FLOOR or den == 0:
        raise ThetaZero(
            "the denominator theta_q(-lambda/q) theta_q(lambda/x) is numerically zero"
        )
    q2m = qm.squared()
    pref = qpochhammer_inf(qc, qm, tr) / den
    try:
        v_even = -lam * lam / (qc * x)
    except ZeroDivisionError:  # q x underflows to 0: theta of v_even leaves range
        v_even = complex(math.inf)
    even = (
        pref
        * _theta_from_x(q2m, v_even, x, tr)
        * rphis((0j,), (qc,), q2m, qm.q2 / x, tr)
    )
    odd = (
        pref
        * (lam / x)
        * _theta_from_x(q2m, -lam * lam / x, x, tr)
        * rphis((0j,), (qc**3,), q2m, qc**3 / x, tr)
        / (1 - qc)
    )
    # an overflowing denominator would make both terms 0 or nan
    if not (cmath.isfinite(den) and cmath.isfinite(even + odd)):
        raise DomainError(
            f"x={x!r} is out of double range for the closed form of 2f0 (q={qc!r}, "
            f"lambda={lam!r}): its theta factors or their products leave double range"
        )
    return even, odd


def two_f_zero_closed(
    q: QModulus | complex,
    lam: complex,
    x: complex,
    trunc: Truncation | None = None,
) -> complex:
    """Closed form of the resummed 2f0(0,0;-;q,-x/q) along [lambda; q]:

        (q;q)_inf / (theta_q(-lambda/q) theta_q(lambda/x)) *
        [ theta_{q^2}(-lambda^2/(q x)) 1phi1(0;q;q^2,q^2/x)
          + (lambda/x)/(1-q) theta_{q^2}(-lambda^2/x) 1phi1(0;q^3;q^2,q^3/x) ].
    """
    even, odd = _two_f_zero_closed_parts(as_modulus(q), lam, x, _trunc(trunc))
    return even + odd


def ramanujan_operator(K: complex) -> QDEOperator:
    """The operator K x sigma_q^2 - sigma_q + 1 (Ramanujan equation at K = q)."""
    return QDEOperator(((1, complex(K), 2), (0, -1 + 0j, 1), (0, 1 + 0j, 0)))


def qairy_operator() -> QDEOperator:
    """The operator sigma_q^2 + x sigma_q - 1 annihilating Ai_q."""
    return QDEOperator(((0, 1 + 0j, 2), (1, 1 + 0j, 1), (0, -1 + 0j, 0)))


@dataclass(frozen=True)
class SolutionAtInfinity:
    """Solution z(t) = E(t) f(t) of the q-Airy equation around infinity.

    t = 1/x; the gauge E(t) = 1/theta_q(-q^2 t) satisfies
    E(qt) = -q^2 t E(t) and E(q^2 t) = q^5 t^2 E(t), and the series factor is
    f(t) = A_{q^2}(-q^3 t^2).  Defined for t off the spiral q^Z (zeros of the
    gauge denominator scaled by q^2).
    """

    q: QModulus
    t: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_modulus(self.q))
        if self.t == 0:
            raise ZeroArgument("t must be nonzero")
        Spiral(1 + 0j, self.q).exclude(self.t, "t")

    def prefactor(self, trunc: Truncation | None = None) -> complex:
        return 1 / theta(self.q, -self.q.q2 * self.t, trunc)

    def series_factor(self, trunc: Truncation | None = None) -> complex:
        try:
            x = -self.q.q**3 * self.t**2
        except OverflowError:
            raise DomainError(f"t={self.t!r} is out of double range for the series factor") from None
        return ramanujan_Aq(self.q.squared(), x, trunc)

    def value(self, trunc: Truncation | None = None) -> complex:
        """z(t); a value out of double range raises
        :class:`~qconnect.errors.DomainError`."""
        v = self.prefactor(trunc) * self.series_factor(trunc)
        if not cmath.isfinite(v):
            raise DomainError(
                f"t={self.t!r} is out of double range for the solution at infinity "
                f"(q={self.q.q!r}): the gauge times the series factor overflows"
            )
        return v
