"""Analytic q-Borel-Laplace machinery.

Two resummation pipelines live here.  The second kind pairs the coefficient
reweight a_n -> a_n q^(-n(n-1)/2) with a contour integral against the theta
kernel on a small circle,

    (L_q^- g)(t) = (1/2 pi i) oint_{|tau|=r} g(tau) theta_q(t/tau) dtau/tau,

evaluated by the uniform N-node circle rule with node doubling (the rule is
exact on Laurent polynomials of degree < N, and the integrand's Laurent tail
decays like q^(n^2/2), so doubling converges geometrically).  Both rules of
a comparison alias the coefficients at multiples of 2N, so the first rule is
chosen large enough that the kernel's coefficients there are negligible.
The first kind pairs a_n -> a_n q^(+n(n-1)/2) with a bilateral sum over a
q-spiral,

    (L_q^+ phi)(x) = sum_{n in Z} phi(lambda q^n) / theta_q(lambda q^n / x).

The kernel values are generated from a single theta evaluation through the
exact shift law, which keeps the superexponential weights well scaled on both
tails.  The covering transformation t^2 = x with base sqrt(q) rounds out the
toolkit.
"""

from __future__ import annotations

import cmath
import itertools
import math
from operator import mul, truediv
from typing import Callable, Iterator

from .errors import (
    DomainError,
    NoConvergence,
    PoleOnContour,
    ZeroArgument,
)
from .qcore import (
    QModulus,
    Spiral,
    Truncation,
    as_modulus,
    theta,
    _below_noise,
    _condition,
    _finite_abs,
    _sum_tail,
    _theta_circle,
    _theta_tails,
    _trunc,
)
from .series import QDEOperator

__all__ = [
    "qlaplace_minus",
    "qlaplace_plus",
    "covering_transform",
    "contour_residue",
]


#: node count of the first circle rule, and the cap of node doubling
_START_NODES = 32
_MAX_NODES = 4096


def _circle_mean(
    sample: Callable[[float], complex],
    eps: float,
    start: int = _START_NODES,
) -> complex:
    """Mean of sample(angle) over uniform circle nodes, doubling the nodes
    until two successive rules, the first of ``start`` nodes or more, agree
    to eps.

    The N-node rule takes the sum of the Laurent coefficients of sample at
    all multiples of N, the 2N-node rule those at multiples of 2N: both hold
    the coefficients at ±2N, ±4N, ..., so their agreement cannot vouch for
    them.  ``start`` must be large enough that the coefficients from
    ±2 ``start`` on are negligible; the default, 32 nodes, suits integrands
    whose coefficients decay like 0.25^n or faster.  The samples are always taken
    and summed in the same order (``_START_NODES`` nodes, then the new nodes
    of each doubling), so the value of each rule does not depend on
    ``start``: a larger ``start`` only skips the first comparisons.

    Agreement is relative to max(|mean|, mean|sample|): once the rules match
    to within the roundoff of summing samples of that magnitude, more nodes
    cannot improve the value (the residual is cancellation noise, not
    discretization error).  A mean whose condition mean|sample| / |mean| fails
    the noise floor (``qcore._below_noise``) is refused: it would carry no
    significant digits, only the cancellation noise of the samples.
    """
    n = _START_NODES
    total = 0 + 0j
    abs_total = 0.0
    for j in range(n):
        v = sample(2.0 * math.pi * j / n)
        total += v
        abs_total += abs(v)
    mean = total / n
    while 2 * n <= _MAX_NODES:
        for j in range(n):
            v = sample(2.0 * math.pi * (2 * j + 1) / (2 * n))
            total += v
            abs_total += abs(v)
        n *= 2
        new_mean = total / n
        if n > start and abs(new_mean - mean) <= eps * max(abs(new_mean), abs_total / n):
            if _below_noise(_condition(abs_total / n, abs(new_mean))):
                raise NoConvergence(
                    "quadrature value sits below the cancellation noise floor "
                    f"(|mean| = {abs(new_mean):.3e} vs samples of size "
                    f"{abs_total / n:.3e}); no significant digits survive in "
                    "double precision"
                )
            return new_mean
        mean = new_mean
    raise NoConvergence(
        f"circle rule did not stabilize to eps={eps} within {_MAX_NODES} nodes"
    )


def _kernel_start(qm: QModulus, rho: float, eps: float) -> int:
    """First node count of the circle rule for the theta kernel on |x| = rho.

    The kernel's Laurent coefficients on that circle have moduli
    |q|^(n(n-1)/2) rho^n, whose logs form a parabola with its peak at
    n* = 1/2 + log(rho) / (-log|q|).  The first comparison of
    :func:`_circle_mean`, N against 2N nodes, sees the coefficients at ±N but
    not those at ±2N, ±4N, ...; the count is the smallest power of two
    N >= ``_START_NODES`` with 2N beyond |n*| and the coefficients at ±2N
    below eps times the peak: (-log|q|) (2N - |n*|)^2 / 2 > -log(eps).  A
    count whose first comparison would pass ``_MAX_NODES`` raises
    :class:`~qconnect.errors.NoConvergence`.
    """
    a = -qm._log_q
    peak = abs(0.5 + math.log(rho) / a)
    need = -math.log(eps)
    n = _START_NODES
    while 2 * n <= peak or 0.5 * a * (2 * n - peak) ** 2 <= need:
        n *= 2
    if 2 * n > _MAX_NODES:
        raise NoConvergence(
            f"the theta kernel on |x| = {rho:.3e} (q={qm.q!r}) needs a first circle "
            f"rule of {n} nodes, beyond the cap of {_MAX_NODES}"
        )
    return n


def qlaplace_minus(
    g: Callable[[complex], complex],
    q: QModulus | complex,
    t: complex,
    r: float | None = None,
    trunc: Truncation | None = None,
) -> complex:
    """Second-kind q-Laplace transform of g at t by circle quadrature.

    g must be analytic on the closed disk |tau| <= r with 0 < r < 1/|q|^2;
    the default radius min(1, 0.5/|q|^2) stays inside that bound and away
    from the nearest admissible pole circle.  Failures inside g become
    :class:`PoleOnContour`; a non-stabilizing rule raises
    :class:`NoConvergence`.

    Conditioning: the achievable relative accuracy is limited by
    max|g * theta| on the contour over the result.  Borel images of
    q-Gevrey-decaying coefficient sequences (a_n ~ q^(n(n-1)/2), the class
    this transform resums) stay bounded and evaluate to full precision;
    feeding the Borel image of an O(1)-coefficient polynomial of high degree
    inflates the contour values by q^(-n(n-1)/2) and the lost digits are
    irrecoverable in doubles.

    Every kernel argument t/tau lies on the one circle |x| = |t|/r, so the
    theta kernel's per-circle invariants (shift, the split of the triple
    product into leading powers and a log-series tail, and the constant
    factor, see :func:`~qconnect.qcore._theta_circle`) are built once per
    call; each node then multiplies the leading powers and sums the tail
    series.  ``trunc.log`` counts 2 per leading power plus 2 per tail term
    at each node (52 to 68 at q = 0.8 for |t| in [0.3, 4], against 316 to
    330 for every power), plus once the count of (q;q)_inf.

    The circle rule starts at the node count of :func:`_kernel_start`: 32
    wherever the kernel's Laurent coefficients at ±64 are below eps times
    their peak (for q <= 0.9 and |t| up to a few units), more for large |t|
    or |q| near 1, where a smaller rule would alias coefficients far above
    the value; there the integral is ill conditioned and ends in
    :class:`NoConvergence`, not in a wrong value.  A non-finite t or a bad
    radius raises :class:`~qconnect.errors.DomainError`.
    """
    if t == 0:
        raise ZeroArgument("q-Laplace transform target t must be nonzero")
    at = _finite_abs(t, "the q-Laplace transform", "t")
    tr = _trunc(trunc)
    qm = as_modulus(q)
    aq2 = abs(qm.q) ** 2
    r_max = 1.0 / aq2 if aq2 else math.inf  # |q|^2 may underflow to 0
    if r is None:
        r = min(1.0, 0.5 * r_max)
    if not 0.0 < r < r_max:
        raise DomainError(f"contour radius must satisfy 0 < r < 1/|q|^2 = {r_max}")
    kernel = _theta_circle(qm, at / r, tr)
    start = _kernel_start(qm, at / r, tr.eps)

    def sample(angle: float) -> complex:
        tau = r * cmath.exp(1j * angle)
        try:
            gv = g(tau)
        except Exception as exc:
            raise PoleOnContour(
                f"integrand failed on |tau| = {r} at angle {angle:.6f}: {exc}"
            ) from exc
        return gv * kernel(t / tau)

    return _circle_mean(sample, tr.eps, start=start)


def contour_residue(
    f: Callable[[complex], complex],
    center: complex,
    radius: float,
    trunc: Truncation | None = None,
) -> complex:
    """Residue of f at ``center`` by quadrature on a small surrounding circle.

    The circle must separate ``center`` from all other singularities of f.
    A residue below the cancellation noise floor of its samples raises
    :class:`~qconnect.errors.NoConvergence`, as in :func:`qlaplace_minus`.
    That includes a residue of zero (f holomorphic at ``center``): its mean
    is pure cancellation noise, which the quadrature cannot tell from a
    nonzero residue lost in the noise of larger samples.
    """
    if not 0.0 < radius < math.inf:
        raise DomainError(f"residue circle radius must be positive and finite, got {radius!r}")
    tr = _trunc(trunc)

    def sample(angle: float) -> complex:
        w = radius * cmath.exp(1j * angle)
        try:
            return f(center + w) * w
        except Exception as exc:
            raise PoleOnContour(
                f"integrand failed on the residue circle at angle {angle:.6f}: {exc}"
            ) from exc

    return _circle_mean(sample, tr.eps)


def qlaplace_plus(
    phi: Callable[[complex], complex],
    q: QModulus | complex,
    lam: complex,
    x: complex,
    trunc: Truncation | None = None,
) -> complex:
    """First-kind q-Laplace transform of phi along the spiral [lambda; q].

    Requires x off the spiral [-lambda; q], where the kernel theta vanishes.
    The bilateral sum is truncated symmetrically once five consecutive terms
    on a tail fall below the tolerance; successive term ratios are
    lambda q^n / x upward and superexponential downward, via the theta shift
    law.  phi must be evaluable on the whole spiral (use pole-aware product
    forms, not series, for functions continued past their disc).
    """
    qm = as_modulus(q)
    qc = qm.q
    return _spiral_sum(
        (phi(lam * qc**n) for n in itertools.count()),
        (phi(lam * _spiral_power(qc, n)) for n in itertools.count(-1, -1)),
        qm,
        lam,
        x,
        trunc,
    )


def _spiral_power(qc: complex, n: int) -> complex:
    """q^n on the lower tail of a spiral sum, where n grows without bound: a
    tail that runs on until q^n leaves double range raises
    :class:`~qconnect.errors.DomainError` instead of ``OverflowError``."""
    try:
        return qc**n
    except (OverflowError, ZeroDivisionError):  # q^(-n) may underflow to 0
        raise DomainError(
            f"the spiral sum's lower tail ran past double range: q^{n} overflows (q={qc!r})"
        ) from None


def _theta_from_x(qm: QModulus, v: complex, x: complex, tr: Truncation) -> complex:
    """theta_q(v) for an argument v formed from the caller's x (lambda/x and
    the like); where v, or theta of it, leaves double range, the
    :class:`~qconnect.errors.DomainError` names x, not v."""
    try:
        return theta(qm, v, tr)
    except DomainError:  # ZeroArgument too: v underflowed to 0
        raise DomainError(
            f"x={x!r} is out of double range for the theta factors formed from it"
        ) from None


def _spiral_sum(
    up: Iterator[complex],
    down: Iterator[complex],
    qm: QModulus,
    lam: complex,
    x: complex,
    trunc: Truncation | None,
) -> complex:
    """The bilateral sum of :func:`qlaplace_plus`, given the Borel image on
    the spiral as two lazy sequences: ``up`` yields phi(lambda q^n) for
    n = 0, 1, 2, ... and ``down`` for n = -1, -2, ....

    Each tail draws values only until it is truncated, so a caller that knows
    a recurrence along the spiral can generate them without evaluating phi
    pointwise.  By the shift law, 1/theta_q(lambda q^n/x) is the theta
    series' term q^(n(n-1)/2) (lambda/x)^n over theta_q(lambda/x): the
    weights are the tails of ``qcore._theta_tails`` at lambda/x.
    """
    if lam == 0:
        raise ZeroArgument("the spiral anchor lambda must be nonzero")
    if x == 0:
        raise ZeroArgument("x must be nonzero")
    tr = _trunc(trunc)
    Spiral(-lam, qm).exclude(x)
    ratio = lam / x
    th = _theta_from_x(qm, ratio, x, tr)
    streak = max(5, tr.streak)
    upper, lower = _theta_tails(qm, ratio)
    total = next(up) * (1 + 0j) / th  # the n = 0 term, of weight 1
    total, _, scale, n_up = _sum_tail(
        map(truediv, map(mul, up, upper), itertools.repeat(th)),
        tr, total, 0.0, max(abs(total), 1e-300), streak, "spiral sum upper tail",
    )
    total, _, _, n_down = _sum_tail(
        map(truediv, map(mul, down, lower), itertools.repeat(th)),
        tr, total, 0.0, scale, streak, "spiral sum lower tail",
    )
    tr.note(1 + n_up + n_down)
    return total


def covering_transform(op: QDEOperator) -> QDEOperator:
    """Covering transformation of a q-difference operator.

    Under t^2 = x, v(t) = u(t^2) and p = sqrt(q), a term c x^m sigma_q^l
    acting on u corresponds to c t^(2m) sigma_p^l acting on v: the shift
    sigma_p^l v(t) = u(p^(2l) t^2) = u(q^l x) reproduces sigma_q^l, while
    monomial degrees double.  The returned operator is meant to act on series
    in t at the base sqrt(q) of the input's base.
    """
    return QDEOperator(tuple((2 * m, c, l) for m, c, l in op.terms))
