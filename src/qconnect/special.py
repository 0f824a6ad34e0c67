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
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

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
    qpochhammer_inf,
    theta,
    _below_noise,
    _condition,
    _finite_abs,
    _neg_lam_spiral,
    _once,
    _qpochhammer_one,
    _SeriesPlan,
    _STREAK,
    _sum_tail,
    _ThetaPlan,
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
        terms(), tr, 0j, 0.0, 1.0, _STREAK, "A_q series tail"
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
    return qairy_Ai_with_condition(q, x, trunc)[0]


def qairy_Ai_with_condition(
    q: QModulus | complex, x: complex, trunc: Truncation | None = None
) -> tuple[complex, float]:
    """:func:`qairy_Ai` plus the internal condition of its defining series."""
    return _qairy_plan(as_modulus(q), _trunc(trunc))(-x)


def _qairy_plan(qm: QModulus, tr: Truncation) -> _SeriesPlan:
    """The plan of the series 1phi1(0; -q; q, y) of Ai_q at one base
    (``qcore._SeriesPlan``): called at y = -x, it gives Ai_q(x) and the
    series' condition."""
    return _SeriesPlan((0j,), (-qm.q,), qm, tr)


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
    factors of that product.  The product is taken by the body of the
    one-argument :func:`~qconnect.qcore.qpochhammer_inf`
    (``qcore._qpochhammer_one``), past the public call's dispatch on its
    argument, with the same bits and errors: a quadrature node of
    :func:`~qconnect.transforms.qlaplace_minus` pays for no second check.
    Within relative distance delta = ``DEFAULT_PROXIMITY`` of a pole
    :class:`PoleHit` is raised.  Every
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
    a = q2t * q2t
    try:
        return 1 / _qpochhammer_one(a, _finite_abs(a, "(a;q)_inf", "a"), q2m, _trunc(trunc), a)
    except DomainError:
        raise DomainError(
            f"tau={tau!r} is out of double range for the Borel image (q={qm.q!r}): "
            "the product (q^4 tau^2; q^2)_inf overflows or underflows"
        ) from None


def _residue_sum_at(
    qm: QModulus, tr: Truncation
) -> Callable[[complex], tuple[tuple[complex, float], tuple[complex, float]]]:
    """The residue sum of :func:`f_via_residues` at one base, as a function
    of x = 1/t: x -> ((t_1, c_1), (t_2, c_2)), with

        t_1 = theta_q(x/q) Ai_q(-x) / (q, -1; q)_inf,
        t_2 = theta_q(-x/q) Ai_q(x) / (q, -1; q)_inf,

    so that f(t) = t_1 + t_2 (theta_q(z) = theta_q(q/z) makes
    theta_q(+-x/q) = theta_q(+-q^2 t)), and c_i the condition of the series
    in t_i.  Forming it raises nothing: it forms one series plan for both
    Ai_q (:func:`_qairy_plan`), one theta plan for both thetas, whose
    arguments share one circle, and (q, -1; q)_inf at the first call, once
    (``qcore._once``).  :func:`f_via_residues` is this form at x = 1/t, and
    the rhs of the identity thm-ramanujan-qairy (``verify``) is this form."""
    qc = qm.q
    den = _once(lambda: qpochhammer_inf((qc, -1 + 0j), qm, tr))
    ai = _qairy_plan(qm, tr)  # Ai_q(y) is the plan at -y
    th = _ThetaPlan(qm, tr)

    def terms(x: complex) -> tuple[tuple[complex, float], tuple[complex, float]]:
        d = den()
        a1, c1 = ai(x)  # Ai_q(-x); -(-x) is x, bit for bit
        a2, c2 = ai(-x)
        return (th(x / qc) * a1 / d, c1), (th(-x / qc) * a2 / d, c2)

    return terms


def f_via_residues(
    q: QModulus | complex, t: complex, trunc: Truncation | None = None
) -> complex:
    """Residue-sum closed form of the series factor at infinity,

        f(t) = [theta(q^2 t) 1phi1(0;-q;q,1/t) + theta(-q^2 t) 1phi1(0;-q;q,-1/t)]
               / (q, -1; q)_inf,

    which must agree with A_{q^2}(-q^3 t^2) and with the contour-quadrature
    value of the second-kind q-Laplace transform of the Borel image.  It is
    the sum t_1 + t_2 of :func:`_residue_sum_at` at x = 1/t, which takes
    theta_q(+-q^2 t) as theta_q(+-x/q), and the identity thm-ramanujan-qairy
    checks that same form.

    For small |t| the two 1phi1 series at +-1/t cancel large terms, and the
    two products t_1, t_2 of the numerator cancel each other.  The condition
    (|t_1| c_1 + |t_2| c_2) / |t_1 + t_2|, with c_i the internal condition
    of the series in t_i, is the factor by which the value loses precision.
    Where 100 ulp times it reaches 1, the noise floor
    :func:`~qconnect.transforms.qlaplace_minus` also applies, no significant
    digit is left and the call raises
    :class:`~qconnect.errors.NoConvergence`.  A non-finite t, or a value, a
    series or a theta factor out of double range, raises
    :class:`~qconnect.errors.DomainError` naming t.
    """
    if t == 0:
        raise ZeroArgument("f is evaluated at nonzero t")
    _finite_abs(t, "the residue sum", "t")
    qm = as_modulus(q)
    try:
        terms = _residue_sum_at(qm, _trunc(trunc))(1 / t)
        value = terms[0][0] + terms[1][0]
        cond = _condition(_weighted_abs(terms), abs(value))
    except (DomainError, OverflowError):  # OverflowError: a |t_i| leaves double range
        value = math.nan
    if not cmath.isfinite(value):
        raise DomainError(
            f"t={t!r} is out of double range for the residue sum (q={qm.q!r}): "
            "1/t, a series 1phi1(0;-q;q,+-1/t), a theta_q(+-q^2 t) or their products "
            "leave double range"
        )
    if _below_noise(cond):
        raise NoConvergence(
            f"the residue sum at t={t!r} (q={qm.q!r}) has condition {cond:.3e}: "
            "no significant digits survive in double precision"
        )
    return value


class _BorelSpiral:
    """The Borel image phi(lambda q^n) = e_q(lambda q^(n-1)) on the spiral
    [lambda; q], tabled for the spiral sums of one per-lambda form
    (:func:`_two_f_zero_at`), from phi(lambda) = ``phi0``.

    The values follow from the q-difference equation e_q(q xi) =
    (1 - xi) e_q(xi), upward phi(lambda q^(n+1)) = (1 - lambda q^(n-1))
    phi(lambda q^n) and downward phi(lambda q^(n-1)) = phi(lambda q^n) /
    (1 - lambda q^(n-2)), each formed once, by the first sum that reaches
    it, and read by every later one: the recurrence and its running
    lambda q^(n-1), lambda q^(n-2) are those each sum once ran, so every
    value has the same bits.  :meth:`up` and :meth:`down` give the lazy
    sequences of ``transforms._spiral_sum``, and :meth:`up_ratio` and
    :meth:`down_ratio` the closed bounds on their ratios that let its tails
    end where the streak rule's last terms cannot move the sum."""

    __slots__ = ("qm", "lam", "_up", "_down", "_a", "_b", "_alam", "_aq")

    def __init__(self, phi0: complex, lam: complex, qm: QModulus) -> None:
        self.qm, self.lam = qm, lam
        self._up = [phi0]  # phi(lambda q^n), n = 0, 1, ...
        self._down: list[complex] = []  # phi(lambda q^n), n = -1, -2, ...
        self._a = lam / qm.q  # lambda q^(n-1) of the next step up
        self._b: complex | None = None  # lambda q^(n-2) of the next step down
        self._alam, self._aq = abs(lam), abs(qm.q)

    def up(self) -> Iterator[complex]:
        """phi(lambda q^n) for n = 0, 1, 2, ...: the table, then new values."""
        return itertools.chain(self._up, self._more_up())

    def down(self) -> Iterator[complex]:
        """phi(lambda q^n) for n = -1, -2, ...: the table, then new values."""
        return itertools.chain(self._down, self._more_down())

    def _more_up(self) -> Iterator[complex]:
        vals, qc = self._up, self.qm.q
        phi, a = vals[-1], self._a
        while True:
            phi *= 1 - a
            a *= qc
            self._a = a
            vals.append(phi)
            yield phi

    def _more_down(self) -> Iterator[complex]:
        vals, qc = self._down, self.qm.q
        phi = vals[-1] if vals else self._up[0]
        b = self._b
        if b is None:
            b = self.lam / self.qm.squared().q  # q^2 checked for underflow
        while True:
            if phi:  # once phi underflows to 0, b may overflow to inf+nanj
                phi /= 1 - b
            b /= qc
            self._b = b
            vals.append(phi)
            yield phi

    def up_ratio(self, c: int) -> float:
        """A bound on |phi(lambda q^(n+1)) / phi(lambda q^n)| = |1 - lambda
        q^(n-1)| for every n >= c >= 1: 1 + |lambda| |q|^(c-1)."""
        return 1 + self._alam * self._aq ** (c - 1)

    def down_ratio(self, c: int) -> float:
        """A bound on |phi(lambda q^(-n-1)) / phi(lambda q^(-n))| =
        1 / |1 - lambda q^(-n-2)| for every n >= c >= 1:
        |q|^(c+2) / (|lambda| - |q|^(c+2)), inf where that is no bound."""
        p = self._aq ** (c + 2)
        return p / (self._alam - p) if self._alam > p else math.inf


def _lam_factor(
    lam: complex, qm: QModulus, what: str, form: Callable[[complex], complex], a: complex
) -> complex:
    """``form(a)``: the x-free factor ``what`` at a, formed from lambda.  A
    non-finite a, or a factor out of double range (a
    :class:`~qconnect.errors.DomainError` of ``form``), raises
    :class:`~qconnect.errors.DomainError` naming lambda, not a."""
    if not cmath.isfinite(a):
        why = "lambda/q overflows"
    else:
        try:
            return form(a)
        except DomainError:
            why = "the factor leaves double range"
    raise DomainError(f"lambda={lam!r} is out of double range for {what} (q={qm.q!r}): {why}")


def _two_f_zero_at(
    qm: QModulus, lam: complex, tr: Truncation
) -> Callable[[complex], complex]:
    """:func:`two_f_zero` at one (q, lambda), as a function of x.  Forming
    it raises nothing.  lambda and x arrive checked (``qcore._neg_lam_spiral``
    and the exclusion of x from [-lambda; q]): by :func:`two_f_zero` at each
    call, by an identity check once in ``prepare`` and once per grid point
    in its filter.  phi(lambda) = 1/(lambda/q; q)_inf is formed at the first
    call, once (``qcore._once``: an error there is raised again at every
    call), with no pole test, since lambda off q^Z puts lambda/q off it; a
    lambda/q or a product out of double range raises
    :class:`~qconnect.errors.DomainError` naming lambda (:func:`_lam_factor`).
    The spiral sum takes its theta_q(lambda/x) from this
    form's own theta plan, and its Borel values from this form's own table
    (:class:`_BorelSpiral`), so the sums at every x of one check form each
    phi(lambda q^n) once."""
    th = _ThetaPlan(qm, tr)

    def spiral() -> _BorelSpiral:
        phi = _lam_factor(
            lam, qm, "phi(lambda) = 1/(lambda/q; q)_inf",
            lambda a: 1 / qpochhammer_inf(a, qm, tr), lam / qm.q,
        )
        return _BorelSpiral(phi, lam, qm)

    borel = _once(spiral)

    def value(x: complex) -> complex:
        phi = borel()
        ratios = (phi.up_ratio, phi.down_ratio)
        return _spiral_sum(phi.up(), phi.down(), th, lam, x, ratios)

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
    hits poles and the closed form degenerates) and x off [-lambda; q]; each
    is checked here, once, lambda first (``qcore._neg_lam_spiral``), and the
    per-lambda form and its spiral sum test no spiral.

    Only phi(lambda) is evaluated as a product, with no pole test of its
    own: lambda's check settles it.  The other spiral values follow from the
    q-difference equation e_q(q xi) = (1 - xi) e_q(xi):
    phi(lambda q^(n+1)) = (1 - lambda q^(n-1)) phi(lambda q^n) upward and
    phi(lambda q^(n-1)) = phi(lambda q^n) / (1 - lambda q^(n-2)) downward.
    No other spiral point needs a pole check: the relative distance of
    lambda q^n from q^Z is that of lambda.  Their ratios are bounded in
    closed form, by 1 + |lambda| |q|^(n-1) upward and mirrored downward,
    so each tail of the spiral sum ends at the first small term of its
    streak wherever the terms the streak would still add cannot move the
    sum (``transforms._spiral_sum``): the value is that of the full
    streak, bit for bit.
    """
    qm, tr = as_modulus(q), _trunc(trunc)
    _neg_lam_spiral(lam, qm).exclude(x)
    return _two_f_zero_at(qm, lam, tr)(x)


def _two_f_zero_closed_parts_at(
    qm: QModulus, lam: complex, tr: Truncation
) -> Callable[[complex], tuple[complex, complex]]:
    """:func:`_two_f_zero_closed_parts` at one (q, lambda), as a function of
    x.  Forming it takes the base q^2 (``QModulus.squared``: a q whose
    square underflows to 0 raises :class:`~qconnect.errors.DomainError`
    here) and forms the plans, which raise nothing until called: one theta
    plan at base q and one at base q^2 (``qcore._ThetaPlan``), which take
    every theta of the closed form, and the plans of the two 1phi1 at base
    q^2 (``qcore._SeriesPlan``).  lambda and x arrive checked
    (``qcore._neg_lam_spiral`` and the exclusion of x from [-lambda; q]): by
    :func:`_two_f_zero_closed_parts` at each call, by an identity check once
    in ``prepare`` and once per grid point in its filter; only x = 0 is
    refused here.  theta_q(-lambda/q) is formed at its first use, once
    (``qcore._once``); (q;q)_inf is the base-q theta plan's own
    (``_ThetaPlan.qq``), formed once, ahead of it, so that an error of
    (q;q)_inf names q, and one of -lambda/q or its theta names lambda
    (:func:`_lam_factor`)."""
    qc = qm.q
    q2m = qm.squared()
    th, th_q2 = _ThetaPlan(qm, tr), _ThetaPlan(q2m, tr)

    @_once
    def theta_lam() -> complex:
        th.qq()
        return _lam_factor(lam, qm, "theta_q(-lambda/q)", th, -lam / qc)

    even_series = _SeriesPlan((0j,), (qc,), q2m, tr)
    odd_series = _SeriesPlan((0j,), (qc**3,), q2m, tr)

    def parts(x: complex) -> tuple[complex, complex]:
        if x == 0:
            raise ZeroArgument("x must be nonzero")
        th_lam = theta_lam()
        th_lx = _theta_from_x(th, lam / x, x)
        den = th_lam * th_lx
        # each factor may clear the floor while their product underflows to 0
        if abs(th_lam) < _THETA_FLOOR or abs(th_lx) < _THETA_FLOOR or den == 0:
            raise ThetaZero(
                "the denominator theta_q(-lambda/q) theta_q(lambda/x) is numerically zero"
            )
        pref = th.qq() / den
        try:
            v_even = -lam * lam / (qc * x)
        except ZeroDivisionError:  # q x underflows to 0: theta of v_even leaves range
            v_even = complex(math.inf)
        even = (
            pref
            * _theta_from_x(th_q2, v_even, x)
            * even_series(qm.q2 / x)[0]
        )
        odd = (
            pref
            * (lam / x)
            * _theta_from_x(th_q2, -lam * lam / x, x)
            * odd_series(qc**3 / x)[0]
            / (1 - qc)
        )
        # an overflowing denominator would make both terms 0 or nan
        if not (cmath.isfinite(den) and cmath.isfinite(even + odd)):
            raise DomainError(
                f"x={x!r} is out of double range for the closed form of 2f0 (q={qc!r}, "
                f"lambda={lam!r}): its theta factors or their products leave double range"
            )
        return even, odd

    return parts


def _two_f_zero_closed_parts(
    qm: QModulus, lam: complex, x: complex, tr: Truncation
) -> tuple[complex, complex]:
    """The even and odd terms of :func:`two_f_zero_closed`.  lambda and x
    are checked here, once, as :func:`two_f_zero` checks them, after the
    refusals of a base whose square underflows and of x = 0."""
    parts = _two_f_zero_closed_parts_at(qm, lam, tr)
    if x != 0:  # x = 0 is refused by parts, ahead of lambda's check
        _neg_lam_spiral(lam, qm).exclude(x)
    return parts(x)


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
        self.q._pole_spiral().exclude(self.t, "t")

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
