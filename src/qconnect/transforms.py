"""Analytic q-Borel-Laplace machinery.

Two resummation pipelines live here.  The second kind pairs the coefficient
reweight a_n -> a_n q^(-n(n-1)/2) with a contour integral against the theta
kernel on a small circle,

    (L_q^- g)(t) = (1/2 pi i) oint_{|tau|=r} g(tau) theta_q(t/tau) dtau/tau,

evaluated by the uniform N-node circle rule with node doubling (the rule is
exact on Laurent polynomials of degree < N; the kernel's Laurent tail decays
like q^(n^2/2) and the Borel image's like (r |q|^2)^n, so doubling converges
geometrically).  Both rules of a comparison alias the coefficients at
multiples of 2N: the first rule is chosen large enough that the kernel's
coefficients there are negligible, and the stop estimates the rest from the
decay of the differences and the Borel image's rate.
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
from numbers import Real
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
    _below_noise,
    _condition,
    _finite_abs,
    _SPIRAL_STREAK,
    _sum_tail,
    _theta_tails,
    _ThetaPlan,
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

#: the unit nodes of each circle rule, by its node count (:func:`_rule_nodes`)
_RULE_NODES: dict[int, tuple[complex, ...]] = {}


def _rule_nodes(n: int) -> tuple[complex, ...]:
    """The unit nodes that the n-node circle rule samples beyond the rules
    before it: all of e^(2 pi i j/n) at n = ``_START_NODES``, the odd j
    above, for n up to ``_MAX_NODES``.  Each is formed once, from the angle
    2 pi j/n written as the rule has always written it, so a node holds the
    bits that cmath.exp(1j * angle) gives at every call."""
    nodes = _RULE_NODES.get(n)
    if nodes is None:
        if n == _START_NODES:
            angles = [2.0 * math.pi * j / n for j in range(n)]
        else:
            angles = [2.0 * math.pi * (2 * j + 1) / n for j in range(n // 2)]
        nodes = _RULE_NODES[n] = tuple([cmath.exp(1j * a) for a in angles])
    return nodes


def _node_angle(u: complex) -> float:
    """The angle in [0, 2 pi) of a node u of :func:`_rule_nodes`, with the
    bits of its own angle expression, for the messages of a failed sample.
    Every node is e^(2 pi i m/``_MAX_NODES``) for an integer m, and
    2 pi m/``_MAX_NODES`` differs from 2 pi j/n only by power-of-two
    scalings, which are exact."""
    m = round(cmath.phase(u) / (2.0 * math.pi) * _MAX_NODES) % _MAX_NODES
    return 2.0 * math.pi * m / _MAX_NODES


def _circle_mean(
    sample: Callable[[complex], complex],
    eps: float,
    start: int = _START_NODES,
    rate: float = 1.0,
    trust: Callable[[], bool] | None = None,
) -> complex:
    """Mean of sample(u) over the uniform circle nodes u = e^(2 pi i j/N),
    doubling the nodes until a rule and the one before it, the first of
    ``start`` nodes or more, pass the stop test below at eps.

    The nodes come from the per-rule table of :func:`_rule_nodes`, so a
    quadrature takes no exponential per node, and each node has the bits of
    cmath.exp(1j * 2 pi j/N): the sampler scales the unit node to its
    circle, as it scaled that exponential before the table.

    The N-node rule takes the sum of the Laurent coefficients of sample at
    all multiples of N, the 2N-node rule those at multiples of 2N: both hold
    the coefficients at ±2N, ±4N, ..., so their agreement cannot vouch for
    them.  Their difference d_N = |I_2N - I_N| is the coefficients at ±N
    (and ±3N, ...), which only the N-node rule holds, and the 2N-node rule
    is accepted once

        d_N k_N <= eps max(|I_2N|, mean|sample|),

    the coefficients at ±2N, its error, estimated from those at ±N by the
    factor k_N = min(1, max(rate^N, (d_N / d_(N/2))^2)).  The estimate
    bounds them if either the coefficients shrink from ±N to ±2N by
    ``rate``^N, an a-priori rate the caller knows, or the logs of their
    moduli are concave in n from ±N/2 on, so that the decay seen from N/2
    to N only steepens (geometric tails, the theta kernel's parabola,
    entire functions such as e^(c u)).  While the differences do not
    shrink, and always at the default rate 1, k_N is 1: plain agreement,
    which cannot see the aliased coefficients, so ``start`` must then be
    large enough that the coefficients from ±2 ``start`` on are negligible
    (for the default, 32 nodes, those from ±64 on).  k_N is 1 also wherever
    ``trust``, if given, returns False: called once a rule's samples are
    taken, it is the caller's test that its integrand's coefficients are as
    the estimate assumes (:func:`qlaplace_minus` trusts neither estimate
    where the mean of its g's own samples sits below the noise floor).  The
    first d_(N/2) is that of the ``_START_NODES``-node rule and its half on
    every other node.  The samples are always taken and summed in the same
    order (``_START_NODES`` nodes, then the new nodes of each doubling), so
    the value of each rule depends on none of ``start``, ``rate`` and
    ``trust``: they only choose the rule returned.

    The bound is relative to max(|mean|, mean|sample|): once the rules match
    to within the roundoff of summing samples of that magnitude, more nodes
    cannot improve the value (the residual is cancellation noise, not
    discretization error).  A mean whose condition mean|sample| / |mean| fails
    the noise floor (``qcore._below_noise``) is refused: it would carry no
    significant digits, only the cancellation noise of the samples.  A rule
    whose sum is not finite raises :class:`~qconnect.errors.DomainError`
    naming its first sample that is not finite.
    """
    total = 0 + 0j
    abs_total = 0.0
    diff = math.inf  # |I_N - I_(N/2)|, of the rule before
    n = _START_NODES // 2
    while 2 * n <= _MAX_NODES:
        n *= 2
        nodes = _rule_nodes(n)
        values = [sample(u) for u in nodes]
        for v in values:
            total += v
            abs_total += abs(v)
        if not cmath.isfinite(total):  # once per rule; then name the sample
            for u, v in zip(nodes, values):
                if not cmath.isfinite(v):
                    raise DomainError(
                        f"the circle rule's sample at angle {_node_angle(u):.6f} "
                        f"is not finite: {v!r}"
                    )
            raise DomainError(f"the sum of the {n}-node circle rule's samples overflows")
        if n == _START_NODES:  # the half rule on every other node, for the first decay
            mean = sum(values[::2]) / (n // 2)
        new_mean = total / n
        last, diff = diff, abs(new_mean - mean)
        # k_N < 1 decides only where plain agreement fails, and only there
        # is trust asked
        if n > start and (
            diff <= (bound := eps * max(abs(new_mean), abs_total / n))
            or rate < 1.0
            and diff < last < math.inf
            and diff * max(rate ** (n // 2), (diff / last) ** 2) <= bound
            and (trust is None or trust())
        ):
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

    g must be analytic on the open disc |tau| < 1/|q|^2, as the Borel images
    this transform resums are (the poles of
    :func:`~qconnect.special.g_borel_image` lie at ±q^(-2-k)).  The radius
    bound 0 < r < 1/|q|^2 and the default radius min(1, 0.5/|q|^2), away
    from that disc's rim, assume it.  Analyticity alone bounds the Taylor
    coefficients of g on |tau| = r by a constant times (r |q|^2)^n, not
    their ratios, so the circle rule's stop (:func:`_circle_mean`) is given
    the rate r |q|^2 and also reads the decay of its own differences.  Its
    error estimate holds where the integrand's coefficients shrink by
    (r |q|^2)^N from index ±N to ±2N, as the Borel image's do, or have
    log-concave moduli from ±N/2 on, as e^(c tau) and 1/(1 - c tau) have;
    a g whose coefficients rise again after a dip (one large term of high
    degree, say) can pass any finite rule, plain agreement too.  Neither
    estimate is trusted where the mean of g's own samples on the rule sits
    below the noise floor (``qcore._below_noise`` of mean|g| / |mean g|):
    there the coefficients that g's value rests on are noise against the
    ones the rule aliases, and the rule stops on plain agreement, as before
    the rate.  On the 64-node rule that ratio reads about 1.00002, 1.0017
    and 1.13 for the Borel image at q = 0.3, 0.5 and 0.8, at most 1.45 for
    1/(1 - q^2 tau) with its pole on the rim, 2.9e6 for e^(30 tau), and
    6e14 to 1e15 for the Borel images of random polynomials of degree 60
    to 100 at q = 0.8, which the trusted estimates once let through with
    values of 1e162 to 1e290; they now end in :class:`NoConvergence`.  A
    g with a singularity inside the disc breaks the contract; its value may
    carry fewer digits than eps.
    Failures inside g, or a value of g that does not multiply the kernel's,
    become :class:`PoleOnContour` naming the node's angle; a
    non-stabilizing rule raises :class:`NoConvergence`.

    Conditioning: the achievable relative accuracy is limited by
    max|g * theta| on the contour over the result.  Borel images of
    q-Gevrey-decaying coefficient sequences (a_n ~ q^(n(n-1)/2), the class
    this transform resums) stay bounded and evaluate to full precision;
    feeding the Borel image of an O(1)-coefficient polynomial of high degree
    inflates the contour values by q^(-n(n-1)/2) and the lost digits are
    irrecoverable in doubles.

    Every kernel argument t/tau lies on the one circle |x| = |t|/r, so the
    theta kernel's per-circle invariants (shift, the split of the triple
    product into leading powers and a log-series tail, taken at every base,
    and the constant factor, see ``qcore._ThetaPlan.circle``) are
    built once per call; each node then multiplies the leading powers and
    sums the tail series.  ``trunc.log`` counts 2 per leading power plus 2
    per tail term at each node (52 to 68 at q = 0.8 for |t| in [0.3, 4],
    against 316 to 330 for every power), plus once the count of (q;q)_inf.
    A kernel value that underflows enters the mean as it is: theta's
    underflow rule is for callers that divide by it, and at q = 0.993 the
    circle for t = 0.5 passes through the zero -q^2 of theta.

    The circle rule starts at the node count of :func:`_kernel_start`: 32
    wherever the kernel's Laurent coefficients at ±64 are below eps times
    their peak (for q <= 0.9 and |t| up to a few units), more for large |t|
    or |q| near 1, where a smaller rule would alias coefficients far above
    the value; there the integral is ill conditioned and ends in
    :class:`NoConvergence`, not in a wrong value.  On the Borel image at
    |t| in [0.3, 4] the rule stops at 64 nodes for |q| <= 0.8 (a rate of
    0.5 at most, and the 32-node rule's difference times 0.5^32, or times
    its squared ratio to the 16-node one's, is below eps), and at 64 or 128
    at q = 0.9 and 0.95.  On e^(30 tau), whose coefficients rise up to
    n = 30, it stops at 128.  A non-finite t, a radius that is no real
    number in range, or a t so large that the theta kernel on its circle
    leaves double range, raises :class:`~qconnect.errors.DomainError`, the
    last naming t (not the kernel's argument t/tau).
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
    if not (isinstance(r, Real) and 0.0 < r < r_max):
        raise DomainError(f"contour radius must satisfy 0 < r < 1/|q|^2 = {r_max}, got r={r!r}")
    try:
        kernel = _ThetaPlan(qm, tr).circle(at / r)
    except DomainError:
        raise _kernel_out_of_range(t, r) from None
    start = _kernel_start(qm, at / r, tr.eps)
    gs: list = []  # g's own samples, in the order of the rule's nodes
    keep = gs.append

    def sample(u: complex) -> complex:
        tau = r * u
        try:
            kv = kernel(t / tau)
        except DomainError:
            raise _kernel_out_of_range(t, r) from None
        try:
            gv = g(tau)
            v = gv * kv
        except Exception as exc:
            raise PoleOnContour(
                f"integrand failed on |tau| = {r} at angle {_node_angle(u):.6f}: {exc}"
            ) from exc
        keep(gv)
        return v

    def trusted() -> bool:
        # the mean of g on the rule clears the noise floor of its samples
        try:
            mean_abs = sum(map(abs, gs)) / len(gs)
            return not _below_noise(_condition(mean_abs, abs(sum(gs) / len(gs))))
        except ArithmeticError:  # a modulus or a sum beyond double range
            return False

    return _circle_mean(sample, tr.eps, start=start, rate=r * aq2, trust=trusted)


def _kernel_out_of_range(t: complex, r: float) -> DomainError:
    """The refusal of :func:`qlaplace_minus` where its theta kernel leaves
    double range: it names t, not the kernel's argument t/tau."""
    return DomainError(f"t={t!r} is out of double range for theta_q(t/tau) on |tau| = {r}")


def contour_residue(
    f: Callable[[complex], complex],
    center: complex,
    radius: float,
    trunc: Truncation | None = None,
) -> complex:
    """Residue of f at ``center`` by quadrature on a small surrounding circle.

    The circle must separate ``center`` from all other singularities of f.
    The nodes are center + radius u, u from the circle rule's table of unit
    nodes (:func:`_circle_mean`), and a caller whose integrand has a factor
    that depends only on the circle forms it once per call, as
    ``residue-lemma`` forms its product kernel
    (``qcore._qpochhammer_kernel``).  A failure of f becomes
    :class:`~qconnect.errors.PoleOnContour`, naming the node's angle.
    A residue below the cancellation noise floor of its samples raises
    :class:`~qconnect.errors.NoConvergence`, as in :func:`qlaplace_minus`.
    That includes a residue of zero (f holomorphic at ``center``): its mean
    is pure cancellation noise, which the quadrature cannot tell from a
    nonzero residue lost in the noise of larger samples.
    """
    _finite_abs(center, "the residue quadrature", "center")
    if not (isinstance(radius, Real) and 0.0 < radius < math.inf):
        raise DomainError(f"residue circle radius must be positive and finite, got {radius!r}")
    tr = _trunc(trunc)

    def sample(u: complex) -> complex:
        w = radius * u
        try:
            return f(center + w) * w
        except Exception as exc:
            raise PoleOnContour(
                f"integrand failed on the residue circle at angle {_node_angle(u):.6f}: {exc}"
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

    lambda and x are checked here, once, and the sum (:func:`_spiral_sum`)
    tests no spiral: a lambda that is 0 or not finite, then an x that is not
    finite or lies on [-lambda; q], raises a
    :class:`~qconnect.errors.DomainError` naming it.
    """
    qm = as_modulus(q)
    qc = qm.q
    if lam == 0:
        raise ZeroArgument("the spiral anchor lambda must be nonzero")
    _finite_abs(lam, "the spiral sum", "lambda")
    Spiral(-lam, qm).exclude(x)
    return _spiral_sum(
        (phi(lam * qc**n) for n in itertools.count()),
        (phi(lam * _spiral_power(qc, n)) for n in itertools.count(-1, -1)),
        _ThetaPlan(qm, _trunc(trunc)),
        lam,
        x,
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


def _theta_from_x(th: _ThetaPlan, v: complex, x: complex) -> complex:
    """theta_q(v) by the plan ``th`` for an argument v formed from the
    caller's x (lambda/x and the like); where v, or theta of it, leaves
    double range, the :class:`~qconnect.errors.DomainError` names x, not v."""
    try:
        return th(v)
    except DomainError:  # ZeroArgument too: v underflowed to 0
        raise DomainError(
            f"x={x!r} is out of double range for the theta factors formed from it"
        ) from None


def _spiral_sum(
    up: Iterator[complex],
    down: Iterator[complex],
    th: _ThetaPlan,
    lam: complex,
    x: complex,
    ratios: tuple[Callable[[int], float], Callable[[int], float]] | None = None,
) -> complex:
    """The bilateral sum of :func:`qlaplace_plus`, given the Borel image on
    the spiral as two lazy sequences: ``up`` yields phi(lambda q^n) for
    n = 0, 1, 2, ... and ``down`` for n = -1, -2, ....  The caller hands in
    its theta plan ``th`` (its base and truncation are the sum's).

    lambda and x arrive checked (lambda nonzero and finite, x finite and off
    [-lambda; q]): by the public entry points once per call
    (:func:`qlaplace_plus`, ``special.two_f_zero``), by an identity check
    once in ``prepare`` and once per grid point in its filter
    (``verify._lam_off_qz``).  Only x = 0 is refused here, ahead of the
    division by x.

    Each tail draws values only until it is truncated, so a caller that knows
    a recurrence along the spiral can generate them without evaluating phi
    pointwise.  By the shift law, 1/theta_q(lambda q^n/x) is the theta
    series' term q^(n(n-1)/2) (lambda/x)^n over theta_q(lambda/x): the
    weights are the tails of ``qcore._theta_tails`` at lambda/x.

    Each tail ends under the streak rule of :class:`Truncation`, with five
    small terms in a row (``qcore._SPIRAL_STREAK``).  A caller that bounds
    the ratios of its Borel values passes ``ratios`` = (up, down): up(c)
    bounds |phi(lambda q^(n+1)) / phi(lambda q^n)| and down(c)
    |phi(lambda q^(-n-1)) / phi(lambda q^(-n))| for every n >= c, both
    falling with c.  With the weights' ratios |q|^n |lambda/x| and
    |q|^(n+1) |x/lambda| they bound every later term in closed form
    (``qcore._theta_tails``), and a tail ends at the first small term of
    its streak wherever that bound puts every term the streak would still
    add below half the spacing of the doubles at both parts of the sum and
    at its sum|term| (``qcore._sum_tail``): the value is that of the full
    streak, bit for bit, and ``trunc.log`` counts fewer terms.  Without
    ``ratios`` (:func:`qlaplace_plus`, whose phi has no such bound) the
    streak runs in full.
    """
    if x == 0:
        raise ZeroArgument("x must be nonzero")
    tr = th.tr
    ratio = lam / x
    th_ratio = _theta_from_x(th, ratio, x)
    upper, lower = _theta_tails(th.qm, ratio)
    up_later = down_later = None
    if ratios is not None:  # the weights' ratios, as in qcore._theta_tails
        aq, az = abs(th.qm.q), abs(ratio)
        up_later, down_later = (az, aq, ratios[0]), (aq / az, aq, ratios[1])
    total = next(up) * (1 + 0j) / th_ratio  # the n = 0 term, of weight 1
    a0 = abs(total)
    total, abs_sum, scale, n_up = _sum_tail(
        map(truediv, map(mul, up, upper), itertools.repeat(th_ratio)),
        tr, total, a0, max(a0, 1e-300), _SPIRAL_STREAK, "spiral sum upper tail", up_later,
    )
    total, _, _, n_down = _sum_tail(
        map(truediv, map(mul, down, lower), itertools.repeat(th_ratio)),
        tr, total, abs_sum, scale, _SPIRAL_STREAK, "spiral sum lower tail", down_later,
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
