"""Truncated formal power series and q-difference operator algebra.

Series here are plain coefficient vectors over ``complex`` with an attached
base; they exist for the exact, coefficientwise side of the theory (formal
Borel transforms, operator identities), not for summation.  Reweighting by
q^(-n(n-1)/2) grows superexponentially (and q^(+n(n-1)/2) decays so), so a
reweighted series ends at its representable prefix rather than carrying
infinities or flushed zeros: its length is its valid order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log10
from typing import Callable

from .errors import BaseMismatch
from .qcore import QModulus, _once, _weighted

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
    """Coefficients c_0..c_N of a truncated power series at a fixed base."""

    base: QModulus
    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> complex:
        return self.coeffs[n]

    def prefix(self, order: int) -> "FormalSeries":
        if order < 0 or order > self.order:
            raise ValueError("prefix order out of range")
        return FormalSeries(self.base, self.coeffs[: order + 1])

    def scale(self, c: complex) -> "FormalSeries":
        return FormalSeries(self.base, tuple(c * v for v in self.coeffs))

    def _check_base(self, other: "FormalSeries") -> None:
        if other.base.q != self.base.q:
            raise BaseMismatch(
                f"series bases differ: {self.base.q!r} vs {other.base.q!r}"
            )

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_base(other)
        n = min(self.order, other.order)
        return FormalSeries(
            self.base,
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)),
        )

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


@dataclass(frozen=True)
class QDEOperator:
    """Finite sum of terms c * x^m * sigma_q^l with m, l >= 0.

    sigma_q is the shift (sigma_q f)(x) = f(qx); the base it shifts by is the
    base of the series the operator is applied to.
    """

    terms: tuple[tuple[int, complex, int], ...]

    def __post_init__(self) -> None:
        norm = []
        for m, c, l in self.terms:
            if m < 0 or l < 0:
                raise ValueError("monomial and shift powers must be nonnegative")
            norm.append((int(m), complex(c), int(l)))
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
    q = f.base.q
    big_m = op.max_monomial
    n_out = f.order - big_m
    if n_out < 0:
        raise ValueError("series order too small for the operator's monomials")
    out = [0 + 0j] * (n_out + 1)
    for m, c, l in op.terms:
        for n in range(m, n_out + 1):
            out[n] += c * q ** (l * (n - m)) * f.coeffs[n - m]
    return FormalSeries(f.base, tuple(out))


def _reweight(f: FormalSeries, sign: int) -> FormalSeries:
    """Coefficient reweight c_n -> c_n q^(sign * n(n-1)/2).

    The series ends before the first coefficient whose weighted value would
    exceed 10^_LOG_CLIP or fall below _FLUSH (to 0 included) from a nonzero
    input, so every coefficient it keeps is the reweighted one.  c_0 and c_1
    carry weight 1 and are always kept.
    """
    q = f.base.q
    lq = log10(abs(q))
    out: list[complex] = []
    for n, c in enumerate(f.coeffs):
        e = sign * (n * (n - 1) // 2)
        if c == 0 or e == 0:
            out.append(c)
            continue
        if log10(abs(c)) + e * lq > _LOG_CLIP:
            break
        v = _weighted(c, q, e)
        if abs(v) < _FLUSH:
            break
        out.append(v)
    return FormalSeries(f.base, tuple(out))


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
    q = f.base.q
    return FormalSeries(
        f.base,
        tuple(_weighted(c, q, lpow * n) if c != 0 else c for n, c in enumerate(f.coeffs)),
    )


def _borel_minus_operator_image_of(
    f: FormalSeries,
) -> Callable[[int, int], tuple[FormalSeries, FormalSeries]]:
    """:func:`borel_minus_operator_image` for one series f, as a function of
    (m, l): B_q^- f, which only the right-hand side reads, is formed at the
    first call, once."""
    bf = _once(lambda: qborel_minus(f))
    qc = f.base.q

    def image(m: int, l: int) -> tuple[FormalSeries, FormalSeries]:
        if m < 0 or l < 0:
            raise ValueError("m and l must be nonnegative")
        lhs = qborel_minus(apply_operator(QDEOperator(((m, 1 + 0j, l),)), f))

        g = _shift_coefficients(bf(), l - m)
        qf = qc ** (-(m * (m - 1) // 2))
        shifted = [0 + 0j] * m + [qf * c for c in g.coeffs]
        rhs = FormalSeries(f.base, tuple(shifted[: f.order - m + 1]))

        n = min(lhs.order, rhs.order)
        return lhs.prefix(n), rhs.prefix(n)

    return image


def borel_minus_operator_image(
    m: int, l: int, f: FormalSeries
) -> tuple[FormalSeries, FormalSeries]:
    """Both sides of the operational relation of the second-kind Borel map,

        B_q^-(t^m sigma_q^l f) = q^(-m(m-1)/2) tau^m sigma_q^(l-m) B_q^- f,

    computed along independent coefficient paths and truncated to a common
    order for testing.
    """
    return _borel_minus_operator_image_of(f)(m, l)
