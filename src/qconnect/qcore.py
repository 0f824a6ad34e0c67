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
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BadLowerParameter,
    DivergentSeries,
    DomainError,
    OutsideRadius,
    PoleHit,
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
#: and sums the log-series of the rest (:func:`_product_plan`)
_TAIL_SPLIT = 0.1
_LOG_TAIL_SPLIT = math.log(_TAIL_SPLIT)

#: the smallest normal double: a product below it has lost its digits
_TINY = sys.float_info.min


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
    coefficients of the products' split.  Three constants of q are set
    once, at construction: ``_log_q`` = log|q|, ``_k_cap``, the largest
    |k| at which |q|^k is representable (the reach of
    :meth:`Spiral.nearest`), and ``_log_tail_room``, of the split's
    remainder bound (:func:`_product_plan`).  None of these is a dataclass
    field: equality, hash and repr depend on q alone.
    """

    q: complex
    # class-level starting values, shadowed per instance once set; being
    # unannotated, they are not dataclass fields
    _powers = (1 + 0j,)
    _log_coeffs = ()
    _squared = None

    def __post_init__(self) -> None:
        qc = complex(self.q)
        object.__setattr__(self, "q", qc)
        if not 0.0 < abs(qc) < 1.0:
            raise ValueError(f"base must satisfy 0 < |q| < 1, got |q| = {abs(qc)!r}")
        object.__setattr__(self, "_log_q", math.log(abs(qc)))
        object.__setattr__(self, "_k_cap", int(290 / abs(math.log10(abs(qc)))) + 1)
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

    A series tail is accepted once ``streak`` consecutive terms fall below
    ``eps`` relative to the running scale (the largest of the partial sum and
    the largest term seen; the guard keeps bilateral sums terminating at theta
    zeros, where the partial sum itself cancels to ~0), a product once
    ``streak`` consecutive factors 1 - a q^n have |a q^n| < ``eps`` (a count
    set in closed form before any factor is multiplied).  ``n_max`` is the
    most terms one tail, or factors per argument one product, may take: a
    tail that needs one more raises :class:`~qconnect.errors.TruncationExceeded`.
    """

    eps: float = 1e-15
    n_max: int = 10000
    streak: int = 3
    log: TermLog | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.streak < 1:
            raise ValueError("streak must be at least 1")

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
) -> tuple[complex, float, float, int]:
    """The one tail loop of every series and spiral sum: add ``terms`` to
    ``total`` (and their moduli to ``abs_sum``) under the rule of
    :class:`Truncation`, with ``streak`` small terms in a row, until that
    rule or ``terms`` ends it.  Returns (total, abs_sum, scale, terms taken).

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
            raise ValueError("spiral anchor must be nonzero")

    def nearest(self, x: complex) -> tuple[int, float]:
        """Return (k, relative distance) of the spiral point nearest to x.

        Since |anchor * q^k| is monotone in k, candidate exponents live near
        log(|x|/|anchor|)/log|q|; a short scan around that value suffices.
        """
        ax = _finite_abs(x, "spiral distance")
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
        ``name`` = x lies within ``delta`` of the spiral."""
        if self.contains(x):
            where = "q^Z" if self.anchor == 1 else f"[{self.anchor!r};q]"
            raise SpiralProximity(
                f"{name}={x!r} lies within {self.delta} of the spiral {where} "
                f"(q={self.base.q!r})"
            )

    def half_hit(self, x: complex) -> int | None:
        """The exponent k <= 0 of the half-spiral point anchor * q^k within
        ``delta`` of x, or None (always None at x = 0, whose distance is
        infinite)."""
        k, d = self.nearest(x)
        return k if d < self.delta and k <= 0 else None


def qpochhammer_n(a: complex, q: QModulus | complex, n: int) -> complex:
    """Finite q-shifted factorial (a; q)_n = prod_{j<n} (1 - a q^j).

    The empty product (n = 0) is 1.  A product that is not finite (a
    non-finite a, or one so large that the product overflows) raises
    :class:`~qconnect.errors.DomainError`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
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


def _product_plan(
    avals: Sequence[complex], amax: float, qm: QModulus, tr: Truncation, split: bool
) -> tuple[int, int]:
    """How (a_1, ..., a_m; q)_inf, max|a_i| = amax, is taken: (n, 0), the
    n powers of the streak rule, or, with ``split``, (M, K), the leading M
    powers multiplied and K >= 1 terms of the log-series
    log (w;q)_inf = -sum_k c_k w^k at w = a q^M summed (Gasper & Rahman,
    section 1.3; c_k from :meth:`QModulus._log_coeffs_to`).

    The streak rule takes the first n after which ``tr.streak`` consecutive
    powers had |a_i q^n| < eps for every i.  The moduli shrink
    geometrically, so that is n0 + streak, n0 the first n with every
    |a_i q^n| < eps: the nearest integer j >= 0 to
    (log eps - log amax) / log|q| (a difference of logs, as eps/amax may
    underflow) or j + 1.  The rounding of the logs and of the running power
    q^n moves that estimate by far less than half a factor, so one test of
    the rule at j decides.

    M is the first with amax |q|^M <= ``_TAIL_SPLIT``, so every factor with
    |a q^n| above it is multiplied and exact zeros stay exact; K is the
    first, and at least 1, with
    |w|^(K+1) / ((1 - |q|)(1 - _TAIL_SPLIT)) < eps/10, a bound on the
    series' remainder.  The split is taken where M + K < j + streak: the
    set-up of its tail (a slice of the coefficients and one exp) costs no
    more than the plain loop's test of the streak rule at j, so the split
    is the cheaper wherever it takes fewer powers.  ``n_max`` caps the
    powers taken, M + K or n: above it raises
    :class:`~qconnect.errors.TruncationExceeded`, before either table grows
    (M alone is about 2.3 / (1 - |q|) near |q| = 1).  On return the tables
    hold the M + 1 or n + 1 powers and the K coefficients.
    """
    eps, streak, n_max = tr.eps, tr.streak, tr.n_max
    k = 0
    if not amax:  # every factor is 1
        n = streak
    else:
        log_q = qm._log_q
        log_eps = math.log(eps)
        log_a = math.log(amax)
        j = round((log_eps - log_a) / log_q) if amax >= eps else 0  # else n0 = 0
        n = j + streak
        if split:
            m = math.ceil((_LOG_TAIL_SPLIT - log_a) / log_q) if amax > _TAIL_SPLIT else 0
            # log|w| = log amax + M log|q|
            k = math.floor((log_eps + qm._log_tail_room) / (log_a + m * log_q)) or 1
            if m + k < n:
                n = m
            else:
                k = 0
        if not k and n <= n_max and not _below(avals, qm._powers_to(n + 2)[j], eps):
            n += 1  # n0 = j + 1
    if n + k > n_max:  # before the tables grow to the count
        raise TruncationExceeded(
            f"(a;q)_inf tail not below eps={eps} after n_max={n_max} factors"
        )
    if len(qm._powers) <= n:  # the calls cost more than the tests
        qm._powers_to(n + 1)
    if len(qm._log_coeffs) < k:
        qm._log_coeffs_to(k)
    return n, k


def qpochhammer_inf(
    a: complex | Sequence[complex],
    q: QModulus | complex,
    trunc: Truncation | None = None,
) -> complex:
    """Infinite q-shifted factorial (a; q)_inf, or the multi-argument product
    (a_1, ..., a_m; q)_inf when ``a`` is a sequence.

    Factors are accumulated until |a q^n| stays below ``trunc.eps`` for
    ``trunc.streak`` consecutive n; the product converges absolutely for any
    finite a since |q| < 1.  A non-finite argument, one whose modulus leaves
    double range, a product that overflows, or one below the normal double
    range with no exactly zero factor (so callers never divide by an
    underflowed product) raises :class:`~qconnect.errors.DomainError`.

    The plan comes in closed form from :func:`_product_plan` (which raises
    where ``n_max`` is exceeded); the factors from the table of powers are
    then multiplied in a loop with no tail test, written out for one, two
    and three arguments.  One argument takes the split where it is cheaper:
    the leading M factors times exp(-S), S the first K terms of the
    log-series at w = a q^M; ``trunc.log`` counts M + K.  More arguments
    take the n factors of the streak rule, n per argument in the count.
    """
    tr = DEFAULT_TRUNCATION if trunc is None else trunc
    qm = q if isinstance(q, QModulus) else as_modulus(q)
    if isinstance(a, (list, tuple)):
        avals = tuple(map(complex, a))
        if not avals:
            return 1 + 0j
        amax = max([_finite_abs(av, "(a;q)_inf", "a") for av in avals])
    else:
        avals = (complex(a),)
        amax = _finite_abs(avals[0], "(a;q)_inf", "a")
    m = len(avals)
    n, n_tail = _product_plan(avals, amax, qm, tr, m == 1)
    pw = qm._powers[:n]
    one = 1 + 0j
    prod = one
    if m == 1:
        (a0,) = avals
        for qn in pw:
            prod *= one - a0 * qn
        if n_tail:
            # Horner's rule from c_K down to c_1
            w = a0 * qm._powers[n]
            s = 0j
            for c in qm._log_coeffs[n_tail - 1 :: -1]:
                s = (s + c) * w
            try:
                prod *= cmath.exp(-s)
            except OverflowError:  # fails the range check below
                prod = complex(math.inf)
    elif m == 2:
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
    if not cmath.isfinite(prod):
        raise DomainError(f"a={a!r} is out of double range for (a;q)_inf: the product overflows")
    if abs(prod) < _TINY and 0 not in [one - av * qn for qn in pw for av in avals]:
        raise DomainError(f"a={a!r} is out of double range for (a;q)_inf: the product underflows")
    if tr.log is not None:
        tr.log.terms += (n + n_tail) * m
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
    singular leading factors.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if lam == 0:
        raise ZeroArgument("the closed form of 1/(lambda q^(-k); q)_inf needs lambda != 0")
    qm = as_modulus(q)
    Spiral(1 + 0j, qm).exclude(lam, "lambda")
    try:
        qk = qm.q ** (k * (k + 1) // 2)
        num = (-lam) ** (-k) * qk
        den = qpochhammer_inf(lam, qm, trunc) * qpochhammer_n(qm.q / lam, qm, k)
        value = num / den
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not cmath.isfinite(value):
        raise DomainError(
            f"lambda={lam!r} is out of double range for the closed form of "
            f"1/(lambda q^(-k); q)_inf (q={qm.q!r}, k={k}): a factor overflows"
        )
    return value


def _theta_tails(qm: QModulus, z: complex) -> tuple[Iterator[complex], Iterator[complex]]:
    """The terms n = 1, 2, ... (ratio q^(n-1) z) and n = -1, -2, ... (ratio
    q^m / z at n = -m) of theta_q(z) = sum_n q^(n(n-1)/2) z^n, as running
    products over the table of powers: the series of :func:`theta_sum` and
    the weights of the first-kind spiral sum (``transforms._spiral_sum``)."""

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
    upper, lower = _theta_tails(as_modulus(q), x)
    total, abs_sum, scale, n_up = _sum_tail(
        upper, tr, 1 + 0j, 1.0, 1.0, tr.streak, "theta upper tail"
    )
    total, abs_sum, _, n_down = _sum_tail(
        lower, tr, total, abs_sum, scale, tr.streak, "theta lower tail"
    )
    tr.note(1 + n_up + n_down)
    return total, _condition(abs_sum, abs(total))


def theta_sum(
    q: QModulus | complex, x: complex, trunc: Truncation | None = None
) -> complex:
    """Bilateral theta series theta_q(x) = sum_{n in Z} q^(n(n-1)/2) x^n.

    Both tails are truncated independently under ``trunc``; the sum converges
    for every x != 0 because of the q^(n(n-1)/2) decay on each side.  Near
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

    Exact zeros on the spiral -q^Z come out as exact zero factors here,
    which the bilateral sum can only approach through cancellation.
    """
    if x == 0:
        raise ZeroArgument("theta is undefined at x = 0")
    qm = as_modulus(q)
    return qpochhammer_inf((qm.q, -x, -qm.q / x), qm, trunc)


def theta(
    q: QModulus | complex,
    x: complex,
    trunc: Truncation | None = None,
) -> complex:
    """Jacobi theta function theta_q(x), x != 0.

    The one evaluation path is the kernel of :func:`_theta_circle` at the
    single point x: the shift law brings |x| into [0.2, 5], and the triple
    product (q, -x0, -q/x0; q)_inf at x0 = q^k x is split into a few
    multiplied leading factors, which keep the zeros on -q^Z exact, and one
    log-series tail factor.  ``trunc.log`` counts 3 per leading power plus
    3 per tail term (2 per power where the split saves nothing, plus the
    factors of (q;q)_inf).  The bilateral sum (:func:`theta_sum`) cancels
    catastrophically near the zero spiral (badly so for |q| close to 1,
    where the zeros crowd in modulus); it and :func:`theta_product`
    cross-check this path in the test suite.  Where the bare x^k leaves
    double range, the shift-law factor is x0^k q^(-k(k+1)/2) with the power
    of q in chunks.  Non-finite x, and x so large or small that theta_q(x)
    or the shift-law factor leaves double range, raise
    :class:`~qconnect.errors.DomainError`; a factor count above ``n_max``
    raises :class:`~qconnect.errors.TruncationExceeded`.
    """
    if x == 0:
        raise ZeroArgument("theta is undefined at x = 0")
    return _theta_circle(as_modulus(q), _finite_abs(x, "theta"), trunc)(x)


def _weighted(c: complex, q: complex, e: int) -> complex:
    """c * q**e for exponents whose bare weight may leave float range.

    Large exponents are applied in chunks of q^(+-chunk); since every chunk
    moves the magnitude monotonically toward the final value, intermediates
    stay representable whenever the result is.  This keeps the error at a few
    ulp (an exp/log route would lose accuracy proportional to |e|).
    """
    if e == 0 or c == 0:
        return c
    step_log = math.log10(abs(q))
    if abs(e * step_log) < 250.0:
        return c * q**e
    chunk = max(1, int(200.0 / abs(step_log)))
    sign = 1 if e > 0 else -1
    qch = q ** (sign * chunk)
    rem = abs(e)
    out = c
    while rem >= chunk:
        out *= qch
        rem -= chunk
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


def _theta_circle(
    qm: QModulus, rho: float, trunc: Truncation | None = None
) -> Callable[[complex], complex]:
    """:func:`theta` for arguments on one circle |x| = rho, as a function of x.

    Everything that depends only on |x| is computed once: the shift k of
    :func:`_theta_shift`, the plan of (-x0, -q/x0; q)_inf with x0 = q^k x
    (by :func:`_product_plan`, which caps the powers taken at ``n_max``),
    and the constant (q;q)_inf q^(k(k-1)/2), with (q;q)_inf from
    :func:`qpochhammer_inf`.  Where the plan splits, the leading M powers,
    up to the first with max(|x0|, |q/x0|) |q|^M <= ``_TAIL_SPLIT``, are
    multiplied out, so the zeros of theta stay exact zero factors, and the
    rest is one factor exp(-S), with S the first K terms of the log-series
    at both w1 = -x0 q^M and w2 = -(q/x0) q^M; elsewhere every power of
    the streak rule is multiplied.

    ``trunc.log`` notes the count of (q;q)_inf once, here, and 2 per
    leading power plus 2 per tail term at each call.  The
    constant times the bare x^k scales the product wherever that is finite;
    elsewhere the one fallback is x0^k q^(-k(k+1)/2) times (q;q)_inf, with
    the power of q applied in chunks by :func:`_weighted`.
    rho not finite and positive, or a value (or factor) out of double
    range, raises :class:`~qconnect.errors.DomainError`; a plan above
    ``n_max`` raises :class:`~qconnect.errors.TruncationExceeded`.
    """
    if not 0.0 < rho < math.inf:
        raise DomainError(f"theta needs a finite nonzero argument, got |x|={rho!r}")
    tr = _trunc(trunc)
    qc = qm.q
    k = _theta_shift(qm, rho)
    try:
        qk = qc**k
        q_shift = qc ** (k * (k - 1) // 2)
    except (OverflowError, ZeroDivisionError):  # q^k at k < 0 leaves double range
        raise DomainError(
            f"|x|={rho!r} is out of double range for theta (q={qc!r}): the "
            "shift-law factor q^(k(k-1)/2) overflows"
        ) from None
    if not qk:  # then |x| > |q|^(-k), beyond double range, and so is theta
        raise DomainError(
            f"|x|={rho!r} is out of double range for theta (q={qc!r}): q^{k} underflows to 0"
        )
    # the factor moduli |a q^n| are the same at every x on the circle
    avals = (-qk * rho, -qc / (qk * rho))
    m, n_tail = _product_plan(avals, max(abs(avals[0]), abs(avals[1])), qm, tr, True)
    pw = qm._powers
    lead = pw[:m]
    # c_K, ..., c_1 for Horner's rule, and w = -a q^M = a * w_scale
    tail = qm._log_coeffs[n_tail - 1 :: -1] if n_tail else ()
    w_scale = -pw[m]
    one = 1 + 0j
    qq = qpochhammer_inf(qc, qm, tr)  # raises from |q| ~ 0.9978 on, where it underflows
    const = qq * q_shift
    const_x0 = const * (1 + 0j)  # const * x**0, bit for bit, signs of zeros too
    factors = 2 * (m + n_tail)
    log = tr.log

    def value(x: complex) -> complex:
        x0 = qk * x
        y = qc / x0
        prod = one
        for qn in lead:
            prod *= (one + x0 * qn) * (one + y * qn)
        if tail:
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

    return value


def _terminating_degree(upper: Sequence[complex], qm: QModulus) -> int | None:
    """Degree at which an upper parameter a = q^(-m), m >= 0 kills the series."""
    spiral = Spiral(1 + 0j, qm, _EXACT_TOL)
    best: int | None = None
    for a in upper:
        k = spiral.half_hit(a)
        if k is not None and (best is None or -k < best):
            best = -k
    return best


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
    accuracy there.
    """
    ax = _finite_abs(x, "r_phi_s")
    tr = _trunc(trunc)
    qm = as_modulus(q)
    ups = tuple(complex(a) for a in upper)
    lows = tuple(complex(b) for b in lower)
    r, s = len(ups), len(lows)
    d = 1 + s - r

    pole_spiral = Spiral(1 + 0j, qm)
    for b in lows:
        if pole_spiral.half_hit(b) is not None:
            raise BadLowerParameter(
                f"lower parameter {b!r} lies within {DEFAULT_PROXIMITY} of q^(-N) "
                f"(q={qm.q!r}); the series has a vanishing denominator"
            )

    if x == 0:
        return 1 + 0j, 1.0

    term_deg = _terminating_degree(ups, qm)
    if d < 0 and term_deg is None:
        raise DivergentSeries(
            f"r-s = {r - s} > 1 with nonterminating upper parameters: "
            "radius of convergence is zero"
        )
    if d == 0 and ax >= 1 and term_deg is None:
        raise OutsideRadius(
            f"|x| = {ax} >= 1 outside the radius of convergence of a "
            f"{r}phi{s} series"
        )

    def terms() -> Iterator[complex]:
        one = 1 + 0j
        pw, t, n = qm._powers, one, 0
        while True:
            yield t
            if n == term_deg:
                return
            if n + 1 >= len(pw):
                pw = qm._powers_to(n + 2)
            qn = pw[n]
            num = one
            for a in ups:
                num *= one - a * qn
            den = one
            for b in lows:
                den *= one - b * qn
            den *= one - pw[n + 1]
            if den == 0:
                raise BadLowerParameter("vanishing denominator factor in series term")
            t *= num / den * x
            if d:
                t *= (-qn) ** d
            n += 1

    total, abs_sum, _, count = _sum_tail(
        terms(), tr, 0j, 0.0, 1.0, tr.streak, "r_phi_s series tail"
    )
    tr.note(count)
    return total, _condition(abs_sum, abs(total))


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

    The base may be any :class:`QModulus` (q, q^2, sqrt(q), ...), which is how
    the even/odd split identities at base q^2 are evaluated.
    """
    return rphis_with_condition(upper, lower, q, x, trunc)[0]


def e_exp(
    q: QModulus | complex,
    x: complex,
    trunc: Truncation | None = None,
    mode: str = "auto",
) -> complex:
    """q-exponential e_q(x) = 1phi0(0; -; q, x) = sum x^n/(q;q)_n.

    The defining series converges only for |x| < 1; the product form
    e_q(x) = 1/(x; q)_inf continues it to all x off the pole half-spiral
    {q^(-k) : k >= 0}.  ``mode`` selects "series", "product" or "auto"
    (series inside the unit disc, product outside).  Product mode raises
    :class:`PoleHit` within ``DEFAULT_PROXIMITY`` of a pole.
    """
    qm = as_modulus(q)
    if mode == "auto":
        mode = "series" if _finite_abs(x, "e_q") < 1 else "product"
    if mode == "series":
        return rphis((0j,), (), qm, x, trunc)
    if mode != "product":
        raise ValueError(f"unknown e_exp mode {mode!r}")
    k = Spiral(1 + 0j, qm).half_hit(x)
    if k is not None:
        raise PoleHit(
            f"x={x!r} lies within {DEFAULT_PROXIMITY} of the e_q pole q^{k} "
            f"(half-spiral of [1;q], q={qm.q!r})"
        )
    return 1 / qpochhammer_inf(x, qm, trunc)


def E_exp(
    q: QModulus | complex,
    x: complex,
    trunc: Truncation | None = None,
    mode: str = "auto",
) -> complex:
    """q-exponential E_q(x) = 0phi0(-; -; q, -x) = sum q^(n(n-1)/2) x^n/(q;q)_n.

    Entire in x, with product form E_q(x) = (-x; q)_inf.  "auto" uses the
    series inside the closed unit disc and the (cancellation-free) product
    outside.
    """
    qm = as_modulus(q)
    if mode == "auto":
        mode = "series" if _finite_abs(x, "E_q") <= 1 else "product"
    if mode == "series":
        return rphis((), (), qm, -x, trunc)
    if mode != "product":
        raise ValueError(f"unknown E_exp mode {mode!r}")
    return qpochhammer_inf(-x, qm, trunc)
