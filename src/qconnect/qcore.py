"""Scalar building blocks for q-series numerics.

Everything here works with ordinary double-precision ``complex`` values and a
base q with 0 < |q| < 1.  The module provides q-shifted factorials (finite and
infinite), the bilateral theta function with its triple-product evaluator, the
generalized basic hypergeometric series, and the two q-exponentials.  All
infinite sums and products are truncated under an explicit :class:`Truncation`
policy; nothing is ever cut silently.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import (
    BadLowerParameter,
    DivergentSeries,
    DomainError,
    OutsideRadius,
    PoleHit,
    QConnectError,
    SpiralProximity,
    TruncationExceeded,
    ZeroArgument,
)

__all__ = [
    "QModulus",
    "Truncation",
    "TermLog",
    "Spiral",
    "DEFAULT_TRUNCATION",
    "as_modulus",
    "qpochhammer_n",
    "qpochhammer_inf",
    "qpochhammer_inf_shifted_pole",
    "theta",
    "theta_sum",
    "theta_sum_with_condition",
    "theta_product",
    "rphis",
    "rphis_with_condition",
    "e_exp",
    "E_exp",
]

#: relative distance below which a point counts as sitting on a spiral/pole
DEFAULT_PROXIMITY = 1e-6

#: near-exact relative distance used to recognize terminating series parameters
_EXACT_TOL = 1e-12

#: 100 ulp: a value below this fraction of the size of the terms it cancels
#: from carries no significant digits
_NOISE_FLOOR = 100.0 * 2.2e-16

#: a product's split multiplies the factors 1 - a q^n with |a q^n| above this
#: and sums the log-series of the rest (:func:`_split_plan`)
_TAIL_SPLIT = 0.1
_LOG_TAIL_SPLIT = math.log(_TAIL_SPLIT)

#: the tail rule's run of small terms: a series, theta or A_q tail, or a
#: product of two or more arguments, ends after this many in a row
_STREAK = 3
#: the same run for both tails of the 2phi0 spiral sum
#: (``transforms._spiral_sum``)
_SPIRAL_STREAK = 5

#: the smallest normal double: a product below it has lost its digits
_TINY = sys.float_info.min

#: q**e is taken whole, with pow's bits, where |e log10|q|| is below this;
#: :func:`_weighted` applies larger powers in chunks
_WHOLE_POW_LOG = 250.0

_T = TypeVar("_T")


@dataclass(frozen=True)
class QModulus:
    """The base q of all q-series here, constrained to 0 < |q| < 1.

    Derived bases used throughout: ``q2`` (= q^2, for even/odd splits) and the
    principal square root ``p`` (for the covering transformation).  Use
    :meth:`squared` / :meth:`sqrt` when a :class:`QModulus` at the derived base
    is needed; :meth:`squared` returns the same instance on every call.

    Each instance carries private tables, extended on demand by assigning a
    longer tuple (so a concurrent reader never sees a half-built one): its
    powers q^0, q^1, ..., the running product from 1 + 0j that every loop
    here reads instead of multiplying its own, and the log-series
    coefficients of the products' split.  A third table, a dict filled by
    :meth:`_pow`, holds q**e for the exponents e callers asked for, each
    with pow's bits (not the running product's), and only where
    |e log10|q|| is below ``_WHOLE_POW_LOG``, the range :func:`_weighted`
    takes whole: it is never filled densely, and a shift by q^(10^9) adds
    no entry.  Four constants of q are set once, at construction: ``_log_q``
    = log|q|, ``_log10_q`` = log10|q|, ``_k_cap``, the largest |k| at which
    |q|^k is representable (the reach of :meth:`Spiral.nearest`), and
    ``_log_tail_room``, of the split's remainder bound (:func:`_split_plan`).
    The two pole spirals [1; q] (:meth:`_pole_spiral`,
    :meth:`_exact_pole_spiral`) are formed at their first use and kept.
    None of these is a dataclass field: equality, hash and repr depend on q
    alone.
    """

    q: complex
    # class-level starting values, shadowed per instance once set; being
    # unannotated, they are not dataclass fields
    _powers = (1 + 0j,)
    _log_coeffs = ()
    _squared = None
    _poles = None
    _exact_poles = None

    def __post_init__(self) -> None:
        qc = complex(self.q)
        object.__setattr__(self, "q", qc)
        if not 0.0 < abs(qc) < 1.0:
            raise ValueError(f"base must satisfy 0 < |q| < 1, got |q| = {abs(qc)!r}")
        log10_q = math.log10(abs(qc))
        object.__setattr__(self, "_log_q", math.log(abs(qc)))
        object.__setattr__(self, "_log10_q", log10_q)
        object.__setattr__(self, "_pow_table", {})
        object.__setattr__(self, "_k_cap", int(290 / abs(log10_q)) + 1)
        # log((1 - |q|)(1 - _TAIL_SPLIT) / 10), of the split's remainder bound
        object.__setattr__(
            self, "_log_tail_room", math.log((1 - abs(qc)) * (1 - _TAIL_SPLIT) / 10)
        )

    def _powers_to(self, n: int) -> tuple[complex, ...]:
        """The table q^0, q^1, ..., with at least n entries."""
        pw = self._powers
        if len(pw) >= n:
            return pw
        qc = self.q
        qn = pw[-1]
        ext = list(pw)
        for _ in range(max(n, 2 * len(pw), 32) - len(pw)):
            qn *= qc
            ext.append(qn)
        pw = tuple(ext)
        object.__setattr__(self, "_powers", pw)
        return pw

    def _log_coeffs_to(self, n: int) -> tuple[complex, ...]:
        """The table c_1, c_2, ... of log (w;q)_inf = -sum_k c_k w^k, at least n
        long: c_k = 1/(k (1 - q)(1 + q + ... + q^(k-1))), free of cancellation."""
        cs = self._log_coeffs
        if len(cs) >= n:
            return cs
        size = max(n, 2 * len(cs))
        one_minus_q = 1 - self.q
        sums = accumulate(self._powers_to(size)[:size])  # 1 + q + ... + q^(k-1)
        cs = tuple([1 / (k * (one_minus_q * s)) for k, s in enumerate(sums, 1)])
        object.__setattr__(self, "_log_coeffs", cs)
        return cs

    def _pow(self, e: int) -> complex:
        """q**e, with pow's bits; kept in the power table where |e log10|q||
        is below ``_WHOLE_POW_LOG``, and formed afresh at each call beyond."""
        w = self._pow_table.get(e)
        if w is None:
            w = self.q**e
            if abs(e * self._log10_q) < _WHOLE_POW_LOG:
                self._pow_table[e] = w
        return w

    def _pows(self, exps: Iterable[int]) -> list[complex]:
        """:meth:`_pow` at each exponent of exps."""
        get = self._pow_table.get
        return [w if (w := get(e)) is not None else self._pow(e) for e in exps]

    def _weighted(self, c: complex, e: int) -> complex:
        """:func:`_weighted` at this base, c * q**e, with q**e read from the
        power table where it is taken whole: the same bits."""
        if e == 0 or c == 0:
            return c
        w = self._pow_table.get(e)
        if w is None:
            if abs(e * self._log10_q) >= _WHOLE_POW_LOG:
                return _weighted(c, self.q, e)
            w = self._pow(e)
        return c * w

    @property
    def q2(self) -> complex:
        return self.q * self.q

    @property
    def p(self) -> complex:
        """Principal square root of q."""
        return cmath.sqrt(self.q)

    def squared(self) -> "QModulus":
        sq = self._squared
        if sq is None:
            if self.q * self.q == 0:
                raise DomainError(f"q={self.q!r} is out of double range: q^2 underflows to 0")
            sq = QModulus(self.q * self.q)
            object.__setattr__(self, "_squared", sq)
        return sq

    def sqrt(self) -> "QModulus":
        return QModulus(cmath.sqrt(self.q))

    def _pole_spiral(self) -> "Spiral":
        """The spiral [1; q] = q^Z at ``DEFAULT_PROXIMITY``: the poles of e_q
        and of the r_phi_s denominators, and the lambda exclusion.  Formed at
        the first use and then kept, as :meth:`squared` is; a :class:`Spiral`
        depends on q alone."""
        sp = self._poles
        if sp is None:
            sp = Spiral(1 + 0j, self)
            object.__setattr__(self, "_poles", sp)
        return sp

    def _exact_pole_spiral(self) -> "Spiral":
        """[1; q] at the near-exact ``_EXACT_TOL`` that recognizes terminating
        parameters (:func:`_terminating_degree`), kept as :meth:`_pole_spiral` is."""
        sp = self._exact_poles
        if sp is None:
            sp = Spiral(1 + 0j, self, _EXACT_TOL)
            object.__setattr__(self, "_exact_poles", sp)
        return sp


def as_modulus(q: "QModulus | complex | float") -> QModulus:
    """Coerce a bare number into a validated :class:`QModulus`."""
    if isinstance(q, QModulus):
        return q
    return QModulus(complex(q))


@dataclass
class TermLog:
    """Optional sink counting the terms/factors a computation consumed."""

    terms: int = 0

    def note(self, n: int) -> None:
        self.terms += n


@dataclass(frozen=True)
class Truncation:
    """Tail-tolerance policy for every infinite sum and product.

    A series tail is accepted once 3 consecutive terms (5 in both tails of
    the 2phi0 spiral sum; ``qcore._STREAK``, ``qcore._SPIRAL_STREAK``) fall
    below ``eps`` relative to the running scale (the largest of the partial
    sum and the largest term seen; the guard keeps bilateral sums
    terminating at theta zeros, where the partial sum itself cancels to ~0).
    Where the term ratios have a closed bound (the theta sum, the 2phi0
    spiral sum), a tail ends at the first small term of its streak if the
    bound shows that the terms the streak would still add cannot move the
    sum (``qcore._sum_tail``): the value is the full streak's, bit for bit,
    and the count smaller.  A product of two or more arguments is accepted
    once 3 consecutive factors 1 - a q^n have |a q^n| < ``eps``; a
    one-argument product, the theta kernel's pair, and each argument of
    :func:`theta_product` multiply the leading factors and sum the rest as
    a log-series whose remainder is below ``eps``/10 (both counts are set
    in closed form before any factor is multiplied; ``qcore._split_plan``
    and ``qcore._product_plan``).  ``n_max`` is the most terms one tail, or
    powers one product, may take, an integer of at least 1: a tail that
    needs one more raises :class:`~qconnect.errors.TruncationExceeded`.
    ``eps`` is a relative tolerance, 0 < eps < 1; the split's log-series
    count K is at least 1 only for such an eps.  log eps is kept beside it,
    formed once.  ``eps`` and ``n_max`` are what a report records of it.
    """

    eps: float = 1e-15
    n_max: int = 10000
    log: TermLog | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.eps < 1:
            raise ValueError("eps must satisfy 0 < eps < 1")
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise ValueError(f"n_max must be at least 1 and an integer, got n_max={self.n_max!r}")
        # log eps, read by every product plan; not a field, as QModulus's tables
        object.__setattr__(self, "_log_eps", math.log(self.eps))

    def note(self, n: int) -> None:
        if self.log is not None:
            self.log.note(n)


DEFAULT_TRUNCATION = Truncation()


def _trunc(trunc: Truncation | None) -> Truncation:
    return DEFAULT_TRUNCATION if trunc is None else trunc


def _sum_tail(
    terms: Iterable[complex],
    tr: Truncation,
    total: complex,
    abs_sum: float,
    scale: float,
    streak: int,
    what: str,
    later: tuple[float, float, Callable[[int], float] | None] | None = None,
) -> tuple[complex, float, float, int]:
    """The one tail loop of every series and spiral sum: add ``terms`` to
    ``total`` (and their moduli to ``abs_sum``) under the rule of
    :class:`Truncation`, with ``streak`` small terms in a row (``_STREAK``,
    or ``_SPIRAL_STREAK`` for the spiral sum), until that rule or ``terms``
    ends it.  Returns (total, abs_sum, scale, terms taken).

    A caller that bounds its term ratios in closed form passes ``later`` =
    (r0, a, factor): once c terms are taken, every later ratio
    |t_(n+1) / t_n| is at most r_c = r0 a^c factor(c) (factor(c) = 1
    where factor is None), and r_c falls with c.  Where r_c < 1, every
    later term is below |t_c| r_c.  At the first small term of a streak,
    that bound below an eighth of ulp(m), m the least of |Re total|,
    |Im total| and ``abs_sum``, is below half the spacing of the doubles
    next to each (the spacing below a power of two is half its ulp) with a
    factor 2 to spare for the rounding of the terms: no term the streak
    would still add can move total or abs_sum, nor so the scale, and the
    tail ends there.  Total, abs_sum and scale are those of the full streak, bit
    for bit, and only the count is smaller.  It ends there only where the
    streak would end within ``n_max`` too, and never at a zero part, which
    a term's zero of the other sign would move.  Without ``later`` (the
    series plans, A_q) the loop is the streak rule alone, with no added
    work per term.

    A sum that leaves double range raises
    :class:`~qconnect.errors.DomainError` without running on to ``n_max``:
    a nan term (never small) raises when it is drawn, an infinite term
    makes the scale infinite, so the streak rule ends the tail and the
    check of the total raises, and a term or sum whose modulus overflows
    (finite parts, |t| above the double range) raises at once.
    """
    eps = tr.eps
    n_max = tr.n_max
    inf = math.inf
    small = count = 0
    try:
        for t in terms:
            if count == n_max:
                raise TruncationExceeded(f"{what} not below eps={eps} after n_max={n_max} terms")
            total += t
            at = abs(t)
            abs_sum += at
            count += 1
            # scale = max(scale, |total|, at), without the cost of a call per term
            a = abs(total)
            if a > scale:
                scale = a
            if at > scale:
                scale = at
            if at <= eps * scale:
                small += 1
                if small == streak:
                    break
                if small == 1 and later is not None and count + streak - 1 <= n_max:
                    r0, a, factor = later
                    r = r0 * a**count
                    if factor is not None:
                        r *= factor(count)
                    m = min(abs(total.real), abs(total.imag), abs_sum)
                    if r < 1 and m > 0 and 8.0 * at * r < math.ulp(m):
                        break
            elif at < inf:
                small = 0
            else:
                raise DomainError(f"{what} is out of double range: the sum overflows")
    except OverflowError:
        # abs() of a term or sum whose parts are finite but whose modulus is not
        raise DomainError(f"{what} is out of double range: the sum overflows") from None
    if not cmath.isfinite(total):
        raise DomainError(f"{what} is out of double range: the sum overflows")
    return total, abs_sum, scale, count


def _condition(weighted: float, mag: float) -> float:
    """The one condition rule, so conditions compose (Higham, ch. 3): terms whose
    moduli times their own conditions sum to ``weighted``, combined to modulus
    ``mag``, give weighted / mag, at least 1; at mag 0, inf (1 if all terms are 0)."""
    if mag:
        return max(weighted / mag, 1.0)
    return math.inf if weighted else 1.0


def _weighted_abs(terms: Iterable[tuple[complex, float]]) -> float:
    """sum |t| * cond over (term, condition) pairs, for :func:`_condition`."""
    return sum(abs(t) * c for t, c in terms)


def _below_noise(cond: float) -> bool:
    """The noise floor: no digit is left once 100 ulp times ``cond`` reaches 1."""
    return _NOISE_FLOOR * cond >= 1


def _once(form: Callable[[], _T]) -> Callable[[], _T]:
    """``form`` called at the first use only: later uses return its value,
    or raise its error again.  An identity check forms its x-free values so
    (``verify``: products, spirals, a theta at a fixed argument), and so do
    the per-parameter forms of ``special``: each is formed at the step where
    a point first needs it, and a value that cannot be formed fails every
    point at that same step, with the same error (a package error, or an
    arithmetic one that leaves double range, the errors a check records as
    skips).  The memo lives as long as the returned function.  A plan
    (:class:`_SeriesPlan`, :class:`_ThetaPlan`) needs no such wrapper: it is
    formed without raising and keeps its own memo, by the same rule."""
    memo: list = []

    def get() -> _T:
        if not memo:
            memo.append(_formed(form))
        return _recalled(memo[0])

    return get


def _formed(form: Callable[..., _T], *args) -> tuple[_T | None, Exception | None]:
    """(``form(*args)``, None), or (None, the error) where it raised one of
    the errors kept by :func:`_once`: the memo of a factor formed once."""
    try:
        return form(*args), None
    except (QConnectError, ArithmeticError) as exc:
        return None, exc


def _recalled(memo: tuple[_T | None, Exception | None]) -> _T:
    """The value of a memo of :func:`_formed`, or its error raised again."""
    value, err = memo
    if err is not None:
        raise err.with_traceback(None)
    return value


def _finite_abs(x: complex, what: str, name: str = "x") -> float:
    """|x| for the argument ``name`` of ``what``; a non-finite x, or a finite
    x whose modulus leaves double range, raises
    :class:`~qconnect.errors.DomainError`."""
    if not cmath.isfinite(x):
        raise DomainError(f"{what} needs a finite argument, got {name}={x!r}")
    try:
        return abs(x)
    except OverflowError:
        raise DomainError(
            f"{what}: {name}={x!r} is out of double range (its modulus overflows)"
        ) from None


def _count(n: int, name: str) -> None:
    """Refuse a count ``name`` = n that is not a nonnegative integer with
    :class:`~qconnect.errors.DomainError`."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {name}={n!r}")


@dataclass(frozen=True)
class Spiral:
    """The discrete q-spiral [anchor; q] = {anchor * q^k : k in Z}.

    Used as the exclusion locus of theorems (theta zeros, e_q poles).  The
    membership test is a relative-distance test against the nearest spiral
    point, with k running over both signs; points closer than ``delta`` are
    rejected rather than extrapolated.  Every exclusion in the package goes
    through :meth:`exclude` (the whole spiral) or :meth:`half_hit` (the
    half-spiral k <= 0 of poles and terminating parameters), at the one
    threshold ``DEFAULT_PROXIMITY``; only the recognition of terminating
    parameters uses the near-exact ``_EXACT_TOL``.
    """

    anchor: complex
    base: QModulus
    delta: float = DEFAULT_PROXIMITY

    def __post_init__(self) -> None:
        if self.anchor == 0:
            raise ZeroArgument("spiral anchor must be nonzero")
        _finite_abs(self.anchor, "a q-spiral", "anchor")

    def nearest(self, x: complex, name: str = "x") -> tuple[int, float]:
        """Return (k, relative distance) of the spiral point nearest to x.

        Since |anchor * q^k| is monotone in k, candidate exponents live near
        log(|x|/|anchor|)/log|q|; a short scan around that value suffices.
        A non-finite x raises :class:`~qconnect.errors.DomainError` naming
        ``name``.
        """
        ax = _finite_abs(x, "spiral distance", name)
        if ax == 0.0:
            return 0, math.inf
        base = self.base
        q = base.q
        anchor = self.anchor
        # a difference of logs: the quotient |x|/|anchor| may leave double range
        k0 = (math.log(ax) - math.log(abs(anchor))) / base._log_q
        # |q|^k must stay representable; spiral points beyond that are moot
        k_cap = base._k_cap
        best_k, best_d = 0, math.inf
        for k in range(math.floor(k0) - 2, math.ceil(k0) + 3):
            if abs(k) > k_cap:
                continue
            try:
                s = anchor * q**k
                a_s = abs(s)
                d = abs(x - s) / (a_s if a_s > ax else ax)
            except (OverflowError, ZeroDivisionError):
                # q^k, |s| or |x - s| beyond double range: x is far from s
                continue
            if d < best_d:
                best_k, best_d = k, d
        return best_k, best_d

    def distance(self, x: complex) -> float:
        return self.nearest(x)[1]

    def contains(self, x: complex) -> bool:
        return self.distance(x) < self.delta

    def exclude(self, x: complex, name: str = "x") -> None:
        """Raise :class:`~qconnect.errors.SpiralProximity` when the argument
        ``name`` = x lies within ``delta`` of the spiral; a non-finite x
        raises :class:`~qconnect.errors.DomainError` naming ``name``.  One
        :meth:`nearest` call, which tests x's finiteness."""
        if self.nearest(x, name)[1] < self.delta:
            where = "q^Z" if self.anchor == 1 else f"[{self.anchor!r};q]"
            raise SpiralProximity(
                f"{name}={x!r} lies within {self.delta} of the spiral {where} "
                f"(q={self.base.q!r})"
            )

    def half_hit(self, x: complex, name: str = "x") -> int | None:
        """The exponent k <= 0 of the half-spiral point anchor * q^k within
        ``delta`` of x, or None: at once where |x| < |anchor| (1 - 2 delta),
        x = 0 included, and otherwise from :meth:`nearest`, whose error for a
        non-finite x names ``name``, as in :meth:`exclude`."""
        # every half-spiral point has modulus >= |anchor|, so an x well inside
        # that circle is farther than delta from all of them; |x|^2 from the
        # parts, unlike abs(), raises no OverflowError, and a nan or an inf
        # (or a square that overflows) fails the test and goes to nearest()
        r = abs(self.anchor) * (1 - 2 * self.delta)
        if x.real * x.real + x.imag * x.imag < r * r:
            return None
        k, d = self.nearest(x, name)
        return k if d < self.delta and k <= 0 else None


def _neg_lam_spiral(lam: complex, qm: QModulus) -> Spiral:
    """The spiral [-lambda; q] of a spiral anchor lambda, after its one
    check: lambda = 0 raises :class:`~qconnect.errors.ZeroArgument`, a
    non-finite lambda :class:`~qconnect.errors.DomainError`, and lambda on
    q^Z :class:`~qconnect.errors.SpiralProximity`, each naming lambda."""
    if lam == 0:
        raise ZeroArgument("the spiral anchor lambda must be nonzero")
    qm._pole_spiral().exclude(lam, "lambda")
    return Spiral(-lam, qm)


def qpochhammer_n(a: complex, q: QModulus | complex, n: int) -> complex:
    """Finite q-shifted factorial (a; q)_n = prod_{j<n} (1 - a q^j).

    The empty product (n = 0) is 1.  A product that is not finite (a
    non-finite a, or one so large that the product overflows) raises
    :class:`~qconnect.errors.DomainError`.
    """
    _count(n, "n")
    one = 1 + 0j
    prod = one
    for qj in as_modulus(q)._powers_to(n)[:n]:
        prod *= one - a * qj
    if not cmath.isfinite(prod):
        raise DomainError(f"a={a!r} is out of double range for (a;q)_{n}: the product overflows")
    return prod


def _below(avals: Sequence[complex], qn: complex, eps: float) -> bool:
    """The streak rule's test at one power q^n: |a_i q^n| < eps for every i."""
    for av in avals:
        if abs(av * qn) >= eps:
            return False
    return True


def _split_plan(amax: float, qm: QModulus, tr: Truncation) -> tuple[int, int]:
    """How a one-argument (a; q)_inf, |a| = amax finite, is taken: the split
    (M, K), the leading M powers multiplied and K >= 1 terms of the
    log-series log (w;q)_inf = -sum_k c_k w^k at w = a q^M summed (Gasper &
    Rahman, section 1.3; c_k from :meth:`QModulus._log_coeffs_to`).

    M is the first with amax |q|^M <= ``_TAIL_SPLIT``, so every factor with
    |a q^n| above it is multiplied and exact zeros stay exact; K is the
    first, and at least 1, with
    |w|^(K+1) / ((1 - |q|)(1 - _TAIL_SPLIT)) < eps/10, a bound on the
    series' remainder.  The split reads only amax.  M + K above ``n_max``
    raises :class:`~qconnect.errors.TruncationExceeded`, before either table
    grows (M alone is about 2.3 / (1 - |q|) near |q| = 1); on return the
    tables hold the M + 1 powers and the K coefficients.
    """
    log_q = qm._log_q
    log_a = math.log(amax) if amax else -math.inf  # a = 0: w = 0 and K = 1
    n = math.ceil((_LOG_TAIL_SPLIT - log_a) / log_q) if amax > _TAIL_SPLIT else 0
    # log|w| = log amax + M log|q|
    k = math.floor((tr._log_eps + qm._log_tail_room) / (log_a + n * log_q)) or 1
    if n + k > tr.n_max:  # before the tables grow to the count
        raise TruncationExceeded(
            f"(a;q)_inf tail not below eps={tr.eps} after n_max={tr.n_max} factors"
        )
    if len(qm._powers) <= n:  # the calls cost more than the tests
        qm._powers_to(n + 1)
    if len(qm._log_coeffs) < k:
        qm._log_coeffs_to(k)
    return n, k


def _product_plan(
    avals: Sequence[complex], amax: float, qm: QModulus, tr: Truncation
) -> int:
    """How (a_1, ..., a_m; q)_inf, m >= 2, max|a_i| = amax, is taken: the n
    powers of the streak rule (one argument takes :func:`_split_plan`).

    The streak rule takes the first n after which ``_STREAK`` (3)
    consecutive powers had |a_i q^n| < eps for every i.  The moduli shrink
    geometrically, so that is n0 + 3, n0 the first n with every
    |a_i q^n| < eps: the nearest integer j >= 0 to
    (log eps - log amax) / log|q| (a difference of logs, as eps/amax may
    underflow) or j + 1.  The rounding of the logs and of the running power
    q^n moves that estimate by far less than half a factor, so one test of
    the rule at j decides.

    ``n_max`` caps n: above it raises
    :class:`~qconnect.errors.TruncationExceeded`, before the table of powers
    grows; on return it holds the n + 1 powers.
    """
    eps, n_max = tr.eps, tr.n_max
    if not amax:  # every factor is 1
        n = _STREAK
    else:
        j = round((tr._log_eps - math.log(amax)) / qm._log_q) if amax >= eps else 0  # else n0 = 0
        n = j + _STREAK
        if n <= n_max and not _below(avals, qm._powers_to(n + 2)[j], eps):
            n += 1  # n0 = j + 1
    if n > n_max:  # before the table grows to the count
        raise TruncationExceeded(
            f"(a;q)_inf tail not below eps={eps} after n_max={n_max} factors"
        )
    if len(qm._powers) <= n:
        qm._powers_to(n + 1)
    return n


def _product_range(prod: complex, avals: Sequence[complex], pw: Sequence[complex], a) -> None:
    """The range rule of :func:`qpochhammer_inf`: a product that overflows, or
    one below the normal double range with no exactly zero factor
    1 - a_i q^n over the powers ``pw``, raises
    :class:`~qconnect.errors.DomainError` naming the argument ``a``."""
    if not cmath.isfinite(prod):
        raise DomainError(f"a={a!r} is out of double range for (a;q)_inf: the product overflows")
    if abs(prod) < _TINY and 0 not in [1 - av * qn for qn in pw for av in avals]:
        raise DomainError(f"a={a!r} is out of double range for (a;q)_inf: the product underflows")


def _qpochhammer_one(
    a0: complex,
    amax: float,
    qm: QModulus,
    tr: Truncation,
    a: object,
    split: tuple[int, int] | None = None,
) -> complex:
    """The one-argument (a0; q)_inf of :func:`qpochhammer_inf`, |a0| = amax
    finite, after its argument checks: the split, the range rule (errors
    name ``a``, the argument as given) and the count M + K.  A theta plan
    takes its (q;q)_inf here, and :func:`special.g_borel_image` its product.
    A ``split`` (M, K) given by the caller, taken by :func:`_split_plan` at
    a modulus of at least |a0|, replaces the one at amax: the body of a
    :func:`_qpochhammer_kernel`."""
    n, n_tail = _split_plan(amax, qm, tr) if split is None else split
    pw = qm._powers[:n]
    one = 1 + 0j
    prod = one
    for qn in pw:
        prod *= one - a0 * qn
    # Horner's rule from c_K down to c_1
    w = a0 * qm._powers[n]
    s = 0j
    for c in qm._log_coeffs[n_tail - 1 :: -1]:
        s = (s + c) * w
    try:
        prod *= cmath.exp(-s)
    except OverflowError:  # fails the range check below
        prod = complex(math.inf)
    if not (cmath.isfinite(prod) and abs(prod) >= _TINY):  # no call on the common path
        _product_range(prod, (a0,), pw, a)
    if tr.log is not None:
        tr.log.terms += n + n_tail
    return prod


def _qpochhammer_kernel(
    amax: float, qm: QModulus, tr: Truncation
) -> Callable[[complex], complex]:
    """(a; q)_inf as a function of a, for the arguments of one circle (or
    any set) with |a| <= amax: the product kernel of a circle quadrature.

    The split of :func:`_split_plan` is taken once, at amax, at the first
    call, so forming the kernel raises nothing, as forming a plan does; each
    call then runs the body of the one-argument :func:`qpochhammer_inf`
    (:func:`_qpochhammer_one`) at that split, its range rule and count
    included, errors naming a.  The argument checks are the caller's: every
    a must be finite, with |a| <= amax, and amax finite.  The split at the
    largest modulus multiplies every factor that the split at a smaller one
    would, and bounds the log-series remainder of each, so a value differs
    from :func:`qpochhammer_inf`'s only in rounding."""
    split = None

    def value(a: complex) -> complex:
        nonlocal split
        if split is None:
            split = _split_plan(amax, qm, tr)
        return _qpochhammer_one(a, amax, qm, tr, a, split)

    return value


def qpochhammer_inf(
    a: complex | Sequence[complex],
    q: QModulus | complex,
    trunc: Truncation | None = None,
) -> complex:
    """Infinite q-shifted factorial (a; q)_inf, or the multi-argument product
    (a_1, ..., a_m; q)_inf when ``a`` is a sequence.

    The product converges absolutely for any finite a since |q| < 1.  One
    argument is taken by the log-series split, two or more by the streak
    rule (see below; ``trunc`` sets both).  A non-finite argument, one whose
    modulus leaves double range, a product that overflows, or one below the
    normal double range with no exactly zero factor (so callers never divide
    by an underflowed product) raises :class:`~qconnect.errors.DomainError`.

    The plan comes in closed form from :func:`_split_plan` or
    :func:`_product_plan` (which raise where ``n_max`` is exceeded); the
    factors from the table of powers are then multiplied in a loop with no
    tail test, written out for one, two and three arguments.  One argument
    always takes the split: the leading M factors times exp(-S), S the first
    K >= 1 terms of the log-series at w = a q^M; ``trunc.log`` counts
    M + K.  More arguments take the n factors of the streak rule, n per
    argument in the count.

    The one-argument body (:func:`_qpochhammer_one`) is shared: a caller
    whose argument is checked already takes it directly
    (:func:`special.g_borel_image`), and a circle quadrature takes it at one
    split per circle (:func:`_qpochhammer_kernel`), so neither pays for the
    dispatch, the checks or the split at every node; a one-off call here
    forms no kernel.
    """
    tr = DEFAULT_TRUNCATION if trunc is None else trunc
    qm = q if isinstance(q, QModulus) else as_modulus(q)
    if not isinstance(a, (list, tuple)):
        a0 = complex(a)
        return _qpochhammer_one(a0, _finite_abs(a0, "(a;q)_inf", "a"), qm, tr, a)
    avals = tuple(map(complex, a))
    if not avals:
        return 1 + 0j
    amax = max([_finite_abs(av, "(a;q)_inf", "a") for av in avals])
    m = len(avals)
    if m == 1:
        return _qpochhammer_one(avals[0], amax, qm, tr, a)
    n = _product_plan(avals, amax, qm, tr)
    pw = qm._powers[:n]
    one = 1 + 0j
    prod = one
    if m == 2:
        a0, a1 = avals
        for qn in pw:
            prod *= one - a0 * qn
            prod *= one - a1 * qn
    elif m == 3:
        a0, a1, a2 = avals
        for qn in pw:
            prod *= one - a0 * qn
            prod *= one - a1 * qn
            prod *= one - a2 * qn
    else:
        for qn in pw:
            for av in avals:
                prod *= one - av * qn
    if not (cmath.isfinite(prod) and abs(prod) >= _TINY):
        _product_range(prod, avals, pw, a)
    if tr.log is not None:
        tr.log.terms += n * m
    return prod


def qpochhammer_inf_shifted_pole(
    lam: complex,
    q: QModulus | complex,
    k: int,
    trunc: Truncation | None = None,
) -> complex:
    """Evaluate 1 / (lam * q^(-k); q)_inf through its pole-free closed form

        1/(lam q^{-k}; q)_inf = (-lam)^{-k} q^{k(k+1)/2} / ((lam; q)_inf (q/lam; q)_k),

    valid for lam outside the spiral q^Z.  This continues the reciprocal of
    the defining product past the unit disc without ever forming the nearly
    singular leading factors.  lam = 0 raises
    :class:`~qconnect.errors.ZeroArgument`, a non-finite lam
    :class:`~qconnect.errors.DomainError` and lam on q^Z
    :class:`~qconnect.errors.SpiralProximity`, each naming lambda.
    """
    _count(k, "k")
    return _shifted_pole_at(lam, as_modulus(q), trunc)(k)


def _shifted_pole_at(
    lam: complex, qm: QModulus, trunc: Truncation | None
) -> Callable[[int], complex]:
    """:func:`qpochhammer_inf_shifted_pole` at one (lambda, q), as a
    function of k >= 0.  The check of lambda (:func:`_neg_lam_spiral`)
    and (lambda; q)_inf are formed once (``_once``), each at the step where
    the closed form first needs it, so an error keeps its place."""
    qc = qm.q
    lam_off_qz = _once(lambda: _neg_lam_spiral(lam, qm))
    lam_inf = _once(lambda: qpochhammer_inf(lam, qm, trunc))

    def value(k: int) -> complex:
        lam_off_qz()
        try:
            qk = qc ** (k * (k + 1) // 2)
            num = (-lam) ** (-k) * qk
            den = lam_inf() * qpochhammer_n(qc / lam, qm, k)
            v = num / den
        except (OverflowError, ZeroDivisionError):
            v = math.nan
        if not cmath.isfinite(v):
            raise DomainError(
                f"lambda={lam!r} is out of double range for the closed form of "
                f"1/(lambda q^(-k); q)_inf (q={qc!r}, k={k}): a factor overflows"
            )
        return v

    return value


def _theta_tails(qm: QModulus, z: complex) -> tuple[Iterator[complex], Iterator[complex]]:
    """The terms n = 1, 2, ... (ratio q^(n-1) z) and n = -1, -2, ... (ratio
    q^m / z at n = -m) of theta_q(z) = sum_n q^(n(n-1)/2) z^n, as running
    products over the table of powers: the series of :func:`theta_sum` and
    the weights of the first-kind spiral sum (``transforms._spiral_sum``).
    Once c terms of a tail are taken, the later ratios are at most
    |q|^c |z| upward and |q|^(c+1) / |z| downward, falling with c: the
    closed bounds (|z|, |q|, ...) and (|q| / |z|, |q|, ...) that
    ``_sum_tail`` takes as ``later``."""

    def upper() -> Iterator[complex]:
        pw, t, n = qm._powers, 1 + 0j, 0
        while True:
            if n >= len(pw):
                pw = qm._powers_to(n + 1)
            t *= pw[n] * z
            n += 1
            yield t

    def lower() -> Iterator[complex]:
        pw, u, m = qm._powers, 1 + 0j, 1
        while True:
            if m >= len(pw):
                pw = qm._powers_to(m + 1)
            u *= pw[m] / z
            m += 1
            yield u

    return upper(), lower()


def theta_sum_with_condition(
    q: QModulus | complex, x: complex, trunc: Truncation | None = None
) -> tuple[complex, float]:
    """Bilateral theta sum together with its internal condition number.

    The condition is sum|term| / |result|; it grows without bound near the
    zero spiral -q^Z (and generally as |q| -> 1, where the zeros crowd
    together), which is exactly the loss factor of the sum evaluation.
    """
    if x == 0:
        raise ZeroArgument("theta is undefined at x = 0")
    _finite_abs(x, "theta")
    tr = _trunc(trunc)
    qm = as_modulus(q)
    upper, lower = _theta_tails(qm, x)
    aq, ax = abs(qm.q), abs(x)
    total, abs_sum, scale, n_up = _sum_tail(
        upper, tr, 1 + 0j, 1.0, 1.0, _STREAK, "theta upper tail", (ax, aq, None)
    )
    total, abs_sum, _, n_down = _sum_tail(
        lower, tr, total, abs_sum, scale, _STREAK, "theta lower tail", (aq / ax, aq, None)
    )
    tr.note(1 + n_up + n_down)
    return total, _condition(abs_sum, abs(total))


def theta_sum(
    q: QModulus | complex, x: complex, trunc: Truncation | None = None
) -> complex:
    """Bilateral theta series theta_q(x) = sum_{n in Z} q^(n(n-1)/2) x^n.

    Both tails are truncated independently under ``trunc``; the sum converges
    for every x != 0 because of the q^(n(n-1)/2) decay on each side.  A
    tail ends at the first small term of its streak wherever the closed
    bound on the later term ratios, |q|^n |x| upward and |q|^(n+1) / |x|
    downward, puts every term the streak would still add below half the
    spacing of the doubles at both parts of the sum and at sum|term|
    (``qcore._sum_tail``): value and condition are those of the full
    streak, bit for bit, and ``trunc.log`` counts fewer terms.  Near
    the zero spiral the sum cancels catastrophically; prefer :func:`theta`
    (product form) when full relative accuracy matters.
    """
    return theta_sum_with_condition(q, x, trunc)[0]


def theta_product(
    q: QModulus | complex, x: complex, trunc: Truncation | None = None
) -> complex:
    """Theta via the bare triple product theta_q(x) = (q, -x, -q/x; q)_inf,
    with no shift law: the reference path of ``qde-theta``, disjoint from
    :func:`theta` and from the bilateral sum.

    Each of the three arguments takes its own one-argument split
    (``_split_plan``, as the one-argument :func:`qpochhammer_inf`): its
    leading M factors, those with |a q^n| above ``_TAIL_SPLIT``, are
    multiplied, and the rest is summed as K terms of the log-series, the
    three sums entering as one factor exp(-S).  The leading factors are
    multiplied power by power, the three arguments in turn, as the streak
    rule did, so the running product stays in double range wherever theta
    does (at q = 0.995, (-x;q)_inf alone overflows at |x| = 8, and theta
    does not).  That takes 76 or 77 factors and terms in all at q = 0.8
    for |x| in [0.5, 8], where the streak rule over the three arguments
    takes 474 to 504, and is about 4 times more accurate against 30-digit
    references (median over seeded x, q = 0.3 to 0.995).  ``trunc.log``
    counts the M + K of each argument.  Exact zeros on the spiral -q^Z
    come out as exact zero factors here (each has modulus 1, so it is
    multiplied), which the bilateral sum can only approach through
    cancellation.  The range rule of :func:`qpochhammer_inf` applies, with
    its errors naming the three arguments.
    """
    if x == 0:
        raise ZeroArgument("theta is undefined at x = 0")
    qm = as_modulus(q)
    tr = _trunc(trunc)
    args = (qm.q, -x, -qm.q / x)
    moduli = [_finite_abs(a, "(a;q)_inf", "a") for a in args]
    splits = [_split_plan(am, qm, tr) for am in moduli]
    # the arguments by their leading count, most first: each power n below
    # the least count multiplies all three, then two, then one
    (a0, m0), (a1, m1), (a2, m2) = sorted(
        zip(args, [m for m, _ in splits]), key=lambda am: -am[1]
    )
    pw = qm._powers
    one = 1 + 0j
    prod = one
    for qn in pw[:m2]:
        prod *= one - a0 * qn
        prod *= one - a1 * qn
        prod *= one - a2 * qn
    for qn in pw[m2:m1]:
        prod *= one - a0 * qn
        prod *= one - a1 * qn
    for qn in pw[m1:m0]:
        prod *= one - a0 * qn
    # Horner's rule from c_K down to c_1 at each w = a q^M
    cs = qm._log_coeffs
    s = 0j
    for a, (m, k) in zip(args, splits):
        w = a * pw[m]
        sa = 0j
        for c in cs[k - 1 :: -1]:
            sa = (sa + c) * w
        s += sa
    try:
        prod *= cmath.exp(-s)
    except OverflowError:  # fails the range check below
        prod = complex(math.inf)
    if not (cmath.isfinite(prod) and abs(prod) >= _TINY):
        _product_range(prod, args, pw[:m0], args)
    if tr.log is not None:
        tr.log.terms += sum([m + k for m, k in splits])
    return prod


def theta(
    q: QModulus | complex,
    x: complex,
    trunc: Truncation | None = None,
) -> complex:
    """Jacobi theta function theta_q(x), x != 0.

    The one evaluation path is a theta plan (``_ThetaPlan``) at the single
    point x: the shift law brings |x| into [0.2, 5], and the triple product
    (q, -x0, -q/x0; q)_inf at x0 = q^k x is split into a few multiplied
    leading factors, which keep the zeros on -q^Z exact, and one log-series
    tail factor.  ``trunc.log`` counts 2 per leading power plus 2 per tail
    term, plus the M + K of (q;q)_inf.  The bilateral sum
    (:func:`theta_sum`) cancels catastrophically near the zero spiral (badly
    so for |q| close to 1, where the zeros crowd in modulus); it and
    :func:`theta_product` cross-check this path in the test suite.  Where
    the bare x^k leaves double range, the shift-law factor is
    x0^k q^(-k(k+1)/2) with the power of q in chunks.  Non-finite x, and x
    so large or small that theta_q(x) or the shift-law factor leaves double
    range, raise :class:`~qconnect.errors.DomainError`; a factor count above
    ``n_max`` raises :class:`~qconnect.errors.TruncationExceeded`.  A value
    below the normal double range with no exactly zero factor raises
    DomainError too, the underflow rule of :func:`qpochhammer_inf`, so no
    caller divides by an underflowed theta (at q = 0.995,
    theta_q(-0.7 + 0.05i) underflows); the zeros on -q^Z stay 0.

    An identity check forms one plan per side and base, once, and calls it
    at every theta that side takes, with the same bits as these calls: the
    plan forms (q;q)_inf once and one kernel per circle |x| = rho.
    """
    return _ThetaPlan(as_modulus(q), _trunc(trunc))(x)


def _weighted(c: complex, q: complex, e: int) -> complex:
    """c * q**e for exponents whose bare weight may leave float range.

    Large exponents are applied in chunks of q^(+-chunk); since every chunk
    moves the magnitude monotonically toward the final value, intermediates
    stay representable whenever the result is.  This keeps the error at a few
    ulp (an exp/log route would lose accuracy proportional to |e|).  Once the
    running product is 0 or not finite, no further chunk can bring it back,
    and it is returned as it stands (a weight like q^(10^9) costs no more
    than the chunks that reach 0).
    """
    if e == 0 or c == 0:
        return c
    step_log = math.log10(abs(q))
    if abs(e * step_log) < _WHOLE_POW_LOG:
        return c * q**e
    chunk = max(1, int(200.0 / abs(step_log)))
    sign = 1 if e > 0 else -1
    qch = q ** (sign * chunk)
    rem = abs(e)
    out = c
    while rem >= chunk:
        out *= qch
        rem -= chunk
        if not out or not cmath.isfinite(out):
            return out
    if rem:
        out *= q ** (sign * rem)
    return out


def _theta_shift(qm: QModulus, ax: float) -> int:
    """Shift k of :func:`theta`'s shift law for |x| = ax: 0 inside the annulus
    0.2 <= |x| <= 5, where the triple product is evaluated directly, and
    otherwise the k that brings |q^k x| nearest to 1."""
    if 0.2 <= ax <= 5.0:
        return 0
    return round(-math.log(ax) / qm._log_q)


class _ThetaPlan:
    """theta_q at one base and truncation, as a function of x: the part of
    :func:`theta` that does not depend on x, formed once and then called at
    any number of x, each call giving the bits, or the error, of
    :func:`theta` at that x.

    It holds (q;q)_inf, formed by the first kernel that needs it, once
    (:meth:`qq`), and one kernel per shift and split (k, M, K)
    (:meth:`circle`).  A kernel reads q, the truncation and those three
    alone, so the points of one circle, whose moduli may differ in their
    last bits, share it.  The zero and underflow rules of :func:`theta` are
    applied at each call.

    With ``over_qq`` the constant (q;q)_inf is left out of every kernel: the
    plan gives theta_q(x) / (q;q)_inf = (-x, -q/x; q)_inf, the pairs of the
    connection formulae (Gasper & Rahman, section 4.3), with no (q;q)_inf to
    underflow near |q| = 1, and the underflow rule is that of this quotient.
    """

    __slots__ = ("qm", "tr", "over_qq", "_qq", "_kernels")

    def __init__(self, qm: QModulus, tr: Truncation, over_qq: bool = False) -> None:
        self.qm, self.tr, self.over_qq = qm, tr, over_qq
        # the memo of (q;q)_inf (:meth:`qq`), once formed
        self._qq: tuple | None = (1 + 0j, None) if over_qq else None
        self._kernels: dict[tuple[int, int, int], Callable[[complex], complex]] = {}

    def qq(self) -> complex:
        """(q;q)_inf (1 with ``over_qq``), formed at the first call, past the
        argument checks of :func:`qpochhammer_inf`.  The rule of
        :func:`_once`, with its memo in the plan, which spares a one-off
        :func:`theta` a closure: a later call returns the value, or raises
        the error again (from |q| ~ 0.9978 on it underflows, and every
        kernel fails at that step with that error)."""
        if self._qq is None:
            qc = self.qm.q
            self._qq = _formed(_qpochhammer_one, qc, abs(qc), self.qm, self.tr, qc)
        return _recalled(self._qq)

    def __call__(self, x: complex) -> complex:
        if x == 0:
            raise ZeroArgument("theta is undefined at x = 0")
        ax = _finite_abs(x, "theta")
        v = self.circle(ax)(x)
        if abs(v) < _TINY:
            # the kernel's factors 1 + x0 q^n and 1 + (q/x0) q^n, x0 = q^k x
            qm = self.qm
            x0 = qm.q ** _theta_shift(qm, ax) * x
            y = qm.q / x0
            if 0 not in [f for qn in qm._powers for f in (1 + x0 * qn, 1 + y * qn)]:
                what = "theta_q(x)/(q;q)_inf" if self.over_qq else "theta_q(x)"
                raise DomainError(
                    f"x={x!r} is out of double range for theta (q={qm.q!r}): {what} underflows"
                )
        return v

    def circle(self, rho: float) -> Callable[[complex], complex]:
        """The kernel for arguments on the circle |x| = rho, as a function of x.

        Everything that depends only on |x| is computed here: the shift k of
        :func:`_theta_shift`, the split of (-x0, -q/x0; q)_inf with
        x0 = q^k x (by :func:`_split_plan`, which caps the powers taken at
        ``n_max``), and the constant (q;q)_inf q^(k(k-1)/2).  The pair is
        split as one argument of modulus max(|x0|, |q/x0|), since the split
        reads only that: the leading M powers, up to the first with
        max(|x0|, |q/x0|) |q|^M <= ``_TAIL_SPLIT``, are multiplied out, so
        the zeros of theta stay exact zero factors, and the rest is one
        factor exp(-S), with S the first K >= 1 terms of the log-series at
        both w1 = -x0 q^M and w2 = -(q/x0) q^M.  The kernel of (k, M, K) is
        built once per plan.

        ``trunc.log`` notes the count of (q;q)_inf once per plan, and 2 per
        leading power plus 2 per tail term at each call.  The constant times
        the bare x^k scales the product wherever that is finite; elsewhere
        the one fallback is x0^k q^(-k(k+1)/2) times (q;q)_inf, with the
        power of q applied in chunks by :func:`_weighted`.  rho not finite
        and positive, or a value (or factor) out of double range, raises
        :class:`~qconnect.errors.DomainError`; a split above ``n_max``
        raises :class:`~qconnect.errors.TruncationExceeded`.  A value that
        underflows is returned: a plan's call applies the underflow rule,
        while a quadrature sample that underflows is only summed.
        """
        if not 0.0 < rho < math.inf:
            raise DomainError(f"theta needs a finite nonzero argument, got |x|={rho!r}")
        qm = self.qm
        qc = qm.q
        k = _theta_shift(qm, rho)
        try:
            qk = qc**k
        except (OverflowError, ZeroDivisionError):  # q^k at k < 0 leaves double range
            raise DomainError(
                f"|x|={rho!r} is out of double range for theta (q={qc!r}): the "
                "shift-law factor q^(k(k-1)/2) overflows"
            ) from None
        if not qk:  # then |x| > |q|^(-k), beyond double range, and so is theta
            raise DomainError(
                f"|x|={rho!r} is out of double range for theta (q={qc!r}): q^{k} underflows to 0"
            )
        # the factor moduli |a q^n| are the same at every x on the circle, and
        # the split reads only the larger: one argument of that modulus
        amax = max(abs(qk * rho), abs(qc / (qk * rho)))
        m, n_tail = _split_plan(amax, qm, self.tr)
        kernel = self._kernels.get((k, m, n_tail))
        if kernel is not None:
            return kernel
        pw = qm._powers
        lead = pw[:m]
        # c_K, ..., c_1 for Horner's rule, and w = -a q^M = a * w_scale
        tail = qm._log_coeffs[n_tail - 1 :: -1]
        w_scale = -pw[m]
        one = 1 + 0j
        qq = self.qq()
        # k(k-1)/2 >= 0 and |q| < 1: this power raises nothing
        const = qq * qc ** (k * (k - 1) // 2)
        const_x0 = const * (1 + 0j)  # const * x**0, bit for bit, signs of zeros too
        factors = 2 * (m + n_tail)
        log = self.tr.log

        def value(x: complex) -> complex:
            x0 = qk * x
            y = qc / x0
            prod = one
            for qn in lead:
                prod *= (one + x0 * qn) * (one + y * qn)
            w1, w2 = x0 * w_scale, y * w_scale
            s1 = s2 = 0j
            for c in tail:
                s1 = (s1 + c) * w1
                s2 = (s2 + c) * w2
            try:
                prod *= cmath.exp(-(s1 + s2))
            except OverflowError:  # fails the range check below
                prod = complex(math.inf)
            if log is not None:
                log.terms += factors
            try:
                v = (const * x**k if k else const_x0) * prod
            except (OverflowError, ZeroDivisionError):
                v = math.nan
            if not cmath.isfinite(v):
                # x0^k q^(-k(k+1)/2), |x0| near 1, the power of q in chunks,
                # unless the factor's log-modulus is out of range anyway
                e = k * (k - 1) // 2
                if k * math.log10(abs(x)) + e * math.log10(abs(qc)) < 309:
                    v = qq * _weighted(x0**k, qc, e - k * k) * prod
                if not cmath.isfinite(v):
                    raise DomainError(
                        f"x={x!r} is out of double range for theta (q={qc!r}): theta_q(x), "
                        "its shift-law factor q^(k(k-1)/2) x^k or its product overflows"
                    )
            return v

        self._kernels[k, m, n_tail] = value
        return value


def _terminating_degree(upper: Sequence[complex], qm: QModulus) -> int | None:
    """Degree at which an upper parameter a = q^(-m), m >= 0 kills the series."""
    spiral = qm._exact_pole_spiral()
    best: int | None = None
    for a in upper:
        k = spiral.half_hit(a, "upper parameter")
        if k is not None and (best is None or -k < best):
            best = -k
    return best


class _SeriesPlan:
    """The part of r_phi_s(upper; lower; q, x) that does not depend on x,
    under one truncation: formed once, then called at any number of x, each
    call returning (value, condition) as :func:`rphis_with_condition` does.

    Forming it stores the parameters and raises nothing.  The pole test of
    each lower parameter (:class:`BadLowerParameter`), the terminating
    degree, the test for a divergent series and the closed tail's N
    (:func:`rphis`) are set at the first call, once (:meth:`_form_tail`),
    and a refusal there is raised again at every later call, x = 0
    included: the rule of :func:`_once`, with the memo in the plan, as
    :meth:`_ThetaPlan.qq` keeps its own.  A divergent series gives 1 at
    x = 0 and raises :class:`DivergentSeries` at every other x.  The term
    ratio t_(n+1) / t_n = ratio_n x, times (-q^n)^d where d = 1 + s - r != 0,
    has the x-free factor
    ratio_n = prod(1 - a_i q^n) / (prod(1 - b_j q^n)(1 - q^(n+1))) in a
    table, each entry added the first time any evaluation reaches n: every
    evaluation multiplies the same bits a loop forming the ratio afresh
    would.  A zero denominator raises at the n where it appears, in every
    evaluation that reaches it.
    """

    __slots__ = ("ups", "lows", "qm", "tr", "d", "_tail", "_ratios", "_shifts")

    def __init__(
        self, upper: Sequence[complex], lower: Sequence[complex], qm: QModulus, tr: Truncation
    ) -> None:
        self.qm, self.tr = qm, tr
        self.ups = tuple(map(complex, upper))
        self.lows = tuple(map(complex, lower))
        self.d = 1 + len(self.lows) - len(self.ups)
        # the memo of :meth:`_form_tail`, once formed
        self._tail: tuple | None = None
        self._ratios: list[complex] = []  # ratio_n
        self._shifts: list[complex] = []  # (-q^n)^d, where d != 0

    def _form_tail(self) -> tuple[int | None, int, bool]:
        """(terminating degree or None, the closed tail's N or -1, whether
        the series diverges); a lower parameter on q^(-N) raises."""
        ups, lows, qm, tr = self.ups, self.lows, self.qm, self.tr
        poles = qm._pole_spiral()
        for b in lows:
            if poles.half_hit(b, "lower parameter") is not None:
                raise BadLowerParameter(
                    f"lower parameter {b!r} lies within {DEFAULT_PROXIMITY} of q^(-N) "
                    f"(q={qm.q!r}); the series has a vanishing denominator"
                )
        term_deg = _terminating_degree(ups, qm)
        if self.d < 0 and term_deg is None:
            return None, -1, True
        n_close = -1  # the point N of the closed tail; -1: none
        if self.d == 0 and term_deg is None:
            # every |a_i|, |b_j| is finite here (the spiral tests raise otherwise)
            aq = abs(qm.q)
            c = sum([abs(a) for a in ups]) + sum([abs(b) for b in lows]) + aq
            # the first n with c |q|^n / (1 - |q|) <= eps/10, from logs (c may be
            # huge, eps/10 subnormal); above n_max - 1 the closed tail would not
            # fit in the cap
            n_f = (math.log(tr.eps) + math.log((1 - aq) / 10) - math.log(c)) / qm._log_q
            if n_f <= tr.n_max - 1:
                n_close = max(math.ceil(n_f), 0)
        return term_deg, n_close, False

    def __call__(self, x: complex) -> tuple[complex, float]:
        return self._at(x, _finite_abs(x, "r_phi_s"))

    def _at(self, x: complex, ax: float) -> tuple[complex, float]:
        """The evaluation at x, |x| = ax finite."""
        if self._tail is None:
            self._tail = _formed(self._form_tail)
        term_deg, n_close, divergent = _recalled(self._tail)
        if x == 0:
            return 1 + 0j, 1.0
        if divergent:
            raise DivergentSeries(
                f"r-s = {len(self.ups) - len(self.lows)} > 1 with nonterminating upper "
                "parameters: radius of convergence is zero"
            )
        d = self.d
        if d == 0 and ax >= 1 and term_deg is None:
            raise OutsideRadius(
                f"|x| = {ax} >= 1 outside the radius of convergence of a "
                f"{len(self.ups)}phi{len(self.lows)} series"
            )
        ups, lows, qm = self.ups, self.lows, self.qm
        ratios, shifts = self._ratios, self._shifts
        last = -1 if term_deg is None else term_deg  # an int compares faster than None
        closed = 0.0  # what the closed tail adds to sum|term| beyond |its value|

        def terms() -> Iterator[complex]:
            nonlocal closed
            one = 1 + 0j
            pw, t, n, known = qm._powers, one, 0, len(ratios)
            n_pw = len(pw)
            add_ratio, add_shift = ratios.append, shifts.append
            while True:
                if n == n_close:
                    # the terms from here on are t_N x^m to within eps/10 in all
                    tail = t / (1 - x)
                    closed = abs(t) / (1 - ax) - abs(tail)
                    yield tail
                    return
                yield t
                if n == last:
                    return
                if n < known:
                    t *= ratios[n] * x
                    if d:
                        t *= shifts[n]
                    n += 1
                    continue
                # the table's entry n, formed by the first evaluation that reaches it
                if n + 1 >= n_pw:
                    pw = qm._powers_to(n + 2)
                    n_pw = len(pw)
                qn = pw[n]
                num = one
                for a in ups:
                    num *= one - a * qn
                den = one
                for b in lows:
                    den *= one - b * qn
                den *= one - pw[n + 1]
                if not den:
                    raise BadLowerParameter("vanishing denominator factor in series term")
                ratio = num / den
                t *= ratio * x
                if d:
                    shift = (-qn) ** d
                    t *= shift
                    add_shift(shift)
                add_ratio(ratio)
                n += 1

        tr = self.tr
        total, abs_sum, _, count = _sum_tail(
            terms(), tr, 0j, 0.0, 1.0, _STREAK, "r_phi_s series tail"
        )
        tr.note(count)
        return total, _condition(abs_sum + closed, abs(total))


def rphis_with_condition(
    upper: Sequence[complex],
    lower: Sequence[complex],
    q: QModulus | complex,
    x: complex,
    trunc: Truncation | None = None,
) -> tuple[complex, float]:
    """:func:`rphis` together with the internal condition sum|term|/|value|.

    Entire series evaluated far from the origin cancel large terms down to a
    small value; the condition is the factor by which double precision loses
    accuracy there.  Where :func:`rphis` closes the geometric tail of an
    r = s + 1 series at t_N, sum|term| takes |t_N| / (1 - |x|), a bound on
    the moduli of the terms the tail replaces, so the condition never drops.
    """
    ax = _finite_abs(x, "r_phi_s")
    return _SeriesPlan(upper, lower, as_modulus(q), _trunc(trunc))._at(x, ax)


def rphis(
    upper: Sequence[complex],
    lower: Sequence[complex],
    q: QModulus | complex,
    x: complex,
    trunc: Truncation | None = None,
) -> complex:
    """Generalized basic hypergeometric series r_phi_s at base q.

    .. math::

        {}_r\\varphi_s(a_1..a_r; b_1..b_s; q, x) = \\sum_{n\\ge 0}
        \\frac{(a_1,..,a_r;q)_n}{(b_1,..,b_s;q)_n (q;q)_n}
        \\left\\{(-1)^n q^{n(n-1)/2}\\right\\}^{1+s-r} x^n

    The radius of convergence is infinite, 1 or 0 according to r-s < 1,
    r-s = 1 or r-s > 1.  Nonterminating divergent input raises
    :class:`DivergentSeries`; r-s = 1 with |x| >= 1 raises
    :class:`OutsideRadius`; a lower parameter in q^(-N) raises
    :class:`BadLowerParameter`.

    Terms are added under the streak rule of :class:`Truncation`.  A
    nonterminating series with r-s = 1 has term ratio
    x prod(1 - a_i q^n) / (prod(1 - b_j q^n)(1 - q^(n+1))), which tends to x;
    from the first n = N with C |q|^n / (1 - |q|) <= eps/10,
    C = sum|a_i| + sum|b_j| + |q|, that bound caps the relative drift of every
    later term from t_N x^m.  So where the streak rule has not ended the sum
    by N, the rest is added in closed form as t_N / (1 - x), one term in
    ``trunc.log``, and the sum converges up to |x| -> 1.  N is set once,
    from logs; above ``n_max`` - 1 the closed tail would not fit in the cap
    and the streak rule alone decides.  Where the streak rule ends first,
    the closed tail changes nothing, bit for bit.

    The base may be any :class:`QModulus` (q, q^2, sqrt(q), ...), which is how
    the even/odd split identities at base q^2 are evaluated.

    The term ratios' factors prod(1 - a_i q^n) / (prod(1 - b_j q^n)(1 - q^(n+1)))
    do not depend on x.  A call forms a plan (``_SeriesPlan``) and
    evaluates it at x, which runs the parameter checks first; an identity
    check forms one plan per series and side, once, and evaluates it at
    every grid point, with the same bits and errors as these calls.
    """
    return rphis_with_condition(upper, lower, q, x, trunc)[0]


def e_exp(
    q: QModulus | complex,
    x: complex,
    trunc: Truncation | None = None,
    mode: str = "product",
) -> complex:
    """q-exponential e_q(x) = 1phi0(0; -; q, x) = sum x^n/(q;q)_n.

    ``mode`` selects "product" (the default) or "series".  The product form
    e_q(x) = 1/(x; q)_inf holds for all x off the pole half-spiral
    {q^(-k) : k >= 0}, has no cancellation, and raises :class:`PoleHit`
    within ``DEFAULT_PROXIMITY`` of a pole, on either side of it.  The
    defining series converges only for |x| < 1 and loses about log10 of its
    internal condition (:func:`rphis_with_condition`) in digits: at
    q = 0.95 and x = -0.9 it is 21x off, at condition 4.8e16.  The series
    closes its geometric tail (:func:`rphis`), so it converges up to
    |x| -> 1: at q = 0.5 and x = 0.9999 it takes 55 terms.  Both modes
    raise :class:`PoleHit` within ``DEFAULT_PROXIMITY`` of a pole; the
    series' closed tail would otherwise sum to the pole's value.
    """
    qm = as_modulus(q)
    if mode not in ("series", "product"):
        raise ValueError(f"unknown e_exp mode {mode!r}")
    k = qm._pole_spiral().half_hit(x)
    if k is not None:
        raise PoleHit(
            f"x={x!r} lies within {DEFAULT_PROXIMITY} of the e_q pole q^{k} "
            f"(half-spiral of [1;q], q={qm.q!r})"
        )
    if mode == "series":
        return rphis((0j,), (), qm, x, trunc)
    return 1 / qpochhammer_inf(x, qm, trunc)


def E_exp(
    q: QModulus | complex,
    x: complex,
    trunc: Truncation | None = None,
    mode: str = "product",
) -> complex:
    """q-exponential E_q(x) = 0phi0(-; -; q, -x) = sum q^(n(n-1)/2) x^n/(q;q)_n.

    Entire in x.  ``mode`` selects "product" (the default), the
    cancellation-free E_q(x) = (-x; q)_inf, or "series", which loses digits
    where its terms cancel, as :func:`e_exp`'s does.
    """
    qm = as_modulus(q)
    if mode == "series":
        return rphis((), (), qm, -x, trunc)
    if mode != "product":
        raise ValueError(f"unknown E_exp mode {mode!r}")
    return qpochhammer_inf(-x, qm, trunc)
