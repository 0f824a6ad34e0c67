"""Truncated formal power series and q-difference operator algebra.

Series here are plain coefficient vectors over ``complex`` with an attached
base; they exist for the exact, coefficientwise side of the theory (formal
Borel transforms, operator identities), not for summation.  Reweighting by
q^(-n(n-1)/2) grows superexponentially (and q^(+n(n-1)/2) decays so), so a
reweighted series ends at its representable prefix rather than carrying
infinities or flushed zeros: its length is its valid order.

Every weight q**e of the maps is read from the base's power table
(:meth:`~qconnect.qcore.QModulus._pow`), which holds pow's bits for the
exponents with |e log10|q|| below 250; beyond that,
:func:`~qconnect.qcore._weighted` applies the power in chunks.  A series the
maps build is made by :func:`_series`, which skips the per-coefficient
conversion of public construction: its coefficients are complex already.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import takewhile
from math import log10
from typing import Callable

from .errors import BaseMismatch
from .qcore import QModulus, _finite_abs, _once, _weighted, as_modulus

__all__ = [
    "FormalSeries",
    "QDEOperator",
    "apply_operator",
    "qborel_plus",
    "qborel_minus",
    "borel_minus_operator_image",
]

# a reweighted coefficient below _FLUSH or above 10^_LOG_CLIP ends the series
_FLUSH = 1e-300
_LOG_CLIP = 307.0


@dataclass(frozen=True)
class FormalSeries:
    """Coefficients c_0..c_N of a truncated power series at a fixed base.

    The base is taken through :func:`~qconnect.qcore.as_modulus`, so a bare
    number is validated as one; a coefficient that is not finite, or whose
    modulus leaves double range, raises
    :class:`~qconnect.errors.DomainError`.
    """

    base: QModulus
    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", as_modulus(self.base))
        cs = tuple(map(complex, self.coeffs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        for n, c in enumerate(cs):
            _finite_abs(c, "a formal series", f"c_{n}")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> complex:
        return self.coeffs[n]

    def prefix(self, order: int) -> "FormalSeries":
        if order < 0 or order > self.order:
            raise ValueError("prefix order out of range")
        return _series(self.base, self.coeffs[: order + 1])

    def scale(self, c: complex) -> "FormalSeries":
        c = complex(c)
        return _series(self.base, tuple([c * v for v in self.coeffs]))

    def _check_base(self, other: "FormalSeries") -> None:
        if other.base.q != self.base.q:
            raise BaseMismatch(
                f"series bases differ: {self.base.q!r} vs {other.base.q!r}"
            )

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_base(other)
        return _series(self.base, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + other.scale(-1)

    def __neg__(self) -> "FormalSeries":
        return self.scale(-1)

    def evaluate(self, x: complex) -> complex:
        """Horner evaluation of the truncated polynomial."""
        acc = 0 + 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _series(base: QModulus, coeffs: tuple[complex, ...]) -> FormalSeries:
    """A series from a nonempty tuple of ``complex`` this module formed,
    without :class:`FormalSeries`' per-coefficient conversion."""
    f = object.__new__(FormalSeries)
    object.__setattr__(f, "base", base)
    object.__setattr__(f, "coeffs", coeffs)
    return f


@dataclass(frozen=True)
class QDEOperator:
    """Finite sum of terms c * x^m * sigma_q^l with m, l >= 0.

    sigma_q is the shift (sigma_q f)(x) = f(qx); the base it shifts by is the
    base of the series the operator is applied to.  A coefficient c that is
    not finite, or whose modulus leaves double range, raises
    :class:`~qconnect.errors.DomainError`.
    """

    terms: tuple[tuple[int, complex, int], ...]

    def __post_init__(self) -> None:
        norm = []
        for m, c, l in self.terms:
            if m < 0 or l < 0:
                raise ValueError("monomial and shift powers must be nonnegative")
            c = complex(c)
            _finite_abs(c, "a q-difference operator", "c")
            norm.append((int(m), c, int(l)))
        object.__setattr__(self, "terms", tuple(norm))

    @classmethod
    def identity(cls) -> "QDEOperator":
        return cls(((0, 1 + 0j, 0),))

    @classmethod
    def sigma(cls, l: int = 1) -> "QDEOperator":
        return cls(((0, 1 + 0j, l),))

    @property
    def max_monomial(self) -> int:
        return max((m for m, _, _ in self.terms), default=0)

    def __add__(self, other: "QDEOperator") -> "QDEOperator":
        return QDEOperator(self.terms + other.terms)

    def scale(self, c: complex) -> "QDEOperator":
        return QDEOperator(tuple((m, c * cc, l) for m, cc, l in self.terms))


def apply_operator(op: QDEOperator, f: FormalSeries) -> FormalSeries:
    """Apply sum c x^m sigma_q^l to f, coefficientwise.

    Coefficient n of x^m sigma_q^l f is q^(l(n-m)) c_{n-m} (zero for n < m).
    The result is recorded through order N - max(m), the largest order every
    term of the operator is known at.
    """
    qm = f.base
    n_out = f.order - op.max_monomial
    if n_out < 0:
        raise ValueError("series order too small for the operator's monomials")
    out = [0 + 0j] * (n_out + 1)
    for m, c, l in op.terms:
        count = n_out - m + 1
        ws = qm._pows(range(0, l * count, l) if l else [0] * count)
        for n, w, a in zip(range(m, n_out + 1), ws, f.coeffs):
            out[n] += c * w * a
    return _series(qm, tuple(out))


def _reweight(f: FormalSeries, sign: int) -> FormalSeries:
    """Coefficient reweight c_n -> c_n q^(sign * n(n-1)/2).

    The series ends before the first coefficient whose weighted value would
    exceed 10^_LOG_CLIP or fall below _FLUSH (to 0 included) from a nonzero
    input, so every coefficient it keeps is the reweighted one.  c_0 and c_1
    carry weight 1 and are always kept.
    """
    qm = f.base
    lq = qm._log10_q
    table = qm._pow_table
    out: list[complex] = []
    for n, c in enumerate(f.coeffs):
        e = sign * (n * (n - 1) // 2)
        if not c or not e:
            out.append(c)
            continue
        w = table.get(e)
        ac = abs(c)
        # a weight in the table lies between 1e-250 and 1e250, so a
        # coefficient 1e-49 < |c| < 1e49 is neither clipped nor flushed
        if w is not None and 1e-49 < ac < 1e49:
            out.append(c * w)
            continue
        if log10(ac) + e * lq > _LOG_CLIP:
            break
        v = qm._weighted(c, e)
        if abs(v) < _FLUSH:
            break
        out.append(v)
    return _series(qm, tuple(out))


def qborel_plus(f: FormalSeries) -> FormalSeries:
    """First-kind q-Borel transform: a_n -> a_n q^(+n(n-1)/2)."""
    return _reweight(f, +1)


def qborel_minus(f: FormalSeries) -> FormalSeries:
    """Second-kind q-Borel transform: a_n -> a_n q^(-n(n-1)/2).

    The weights grow superexponentially; coefficients that would overflow cut
    the series to its valid prefix.
    """
    return _reweight(f, -1)


def _shift_coefficients(f: FormalSeries, lpow: int) -> FormalSeries:
    """sigma_q^lpow on coefficients, c_n -> q^(lpow * n) c_n; lpow may be < 0.

    The negative case is the formal inverse shift needed by the operational
    relation when l < m.
    """
    weighted = f.base._weighted
    return _series(f.base, tuple([weighted(c, lpow * n) for n, c in enumerate(f.coeffs)]))


def _borel_minus_operator_image_of(
    f: FormalSeries,
) -> Callable[[int, int], tuple[FormalSeries, FormalSeries]]:
    """:func:`borel_minus_operator_image` for one series f, as a function of
    (m, l): B_q^- f, which only the right-hand side reads, is formed at the
    first call, once."""
    bf = _once(lambda: qborel_minus(f))
    qm = f.base

    def image(m: int, l: int) -> tuple[FormalSeries, FormalSeries]:
        if m < 0 or l < 0:
            raise ValueError("m and l must be nonnegative")
        lhs = qborel_minus(apply_operator(QDEOperator(((m, 1 + 0j, l),)), f))

        # tau^m and the prefactor on the first f.order - 2m + 1 coefficients
        # of sigma_q^(l-m) B_q^- f, ending before the first that is not finite
        g = _shift_coefficients(bf(), l - m).coeffs[: max(f.order - 2 * m + 1, 0)]
        e = -(m * (m - 1) // 2)
        try:
            qf = qm._pow(e)
        except ArithmeticError:  # q^e leaves double range: in chunks, per coefficient
            weighted = [_weighted(c, qm.q, e) for c in g]
        else:
            weighted = [qf * c for c in g]
        shifted = [0 + 0j] * m + list(takewhile(cmath.isfinite, weighted))
        rhs = _series(qm, tuple(shifted[: f.order - m + 1]))

        n = min(lhs.order, rhs.order)
        return lhs.prefix(n), rhs.prefix(n)

    return image


def borel_minus_operator_image(
    m: int, l: int, f: FormalSeries
) -> tuple[FormalSeries, FormalSeries]:
    """Both sides of the operational relation of the second-kind Borel map,

        B_q^-(t^m sigma_q^l f) = q^(-m(m-1)/2) tau^m sigma_q^(l-m) B_q^- f,

    computed along independent coefficient paths and truncated to a common
    order for testing.  The right-hand side, like a reweighted series, ends
    before its first coefficient that is not finite (the prefactor, or the
    inverse shift where l < m, overflows there), so both sides are finite
    wherever f is.
    """
    return _borel_minus_operator_image_of(f)(m, l)
