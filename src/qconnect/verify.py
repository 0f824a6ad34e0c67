"""Numerical verification of connection formulae over complex grids.

Every identity is evaluated with disjoint code paths on its two sides (no
shared memoized subexpression), point by point over a grid that respects the
identity's exclusion set.  Each identity has one hook, ``prepare``
(:class:`_IdentitySpec`), which checks its parameters and gives the
function of a grid point and the grid filter.  What does not depend on x is
formed once per check and per side, and none of it outlives the check or is
read by the other side: the plans of the basic hypergeometric series
(``qcore._SeriesPlan``), whose term ratios
prod(1 - a_i q^n) / (prod(1 - b_j q^n)(1 - q^(n+1))) each side forms once
per series and reads at every grid point, and the theta plans
(``qcore._ThetaPlan``): each side takes its theta values at one base
through one plan, which forms (q;q)_inf once, the side's only (q;q)_inf,
and one kernel per circle |x| = rho it meets (a check's grid has three
moduli); Watson's and Ismail-Zhang's connection sides take their pairs
(y, q/y; q)_inf = theta_q(-y) / (q;q)_inf as theta ratios on such a plan.
thm-ramanujan-qairy's rhs is no copy: it reads the residue sum that
``special.f_via_residues`` ships, ``special._residue_sum_at``, where
``special`` binds it, at x = 1/t, with theta_q(+-x/q) = theta_q(+-q^2 t)
(theta_q(z) = theta_q(q/z)), so a fault in the shipped form fails the check.
``residue-lemma``'s lhs forms one product kernel per residue
circle (``qcore._qpochhammer_kernel``), which takes the split of
(tau/lambda; q)_inf once, at the circle's largest |tau/lambda|, at its
first node, and is read at that circle's nodes only; its rhs reads none.
Each exclusion is tested once per check: ``prepare`` tests the parameters
(thm-2f0 and qde-2f0-resummed check lambda in :func:`_lam_off_qz`) and the
grid filter tests x, so the per-lambda 2phi0 forms, their spiral sums and
lemma-alt's e_q(x/q) test no spiral again.
The per-point function returns the point's records, each made by
:func:`_record`.  Filtered points and evaluation-time errors (any
:class:`~qconnect.errors.QConnectError`) become skip records, never silent
passes or aborted runs.  Each evaluated point carries a
condition composed by one rule: sum |t_i| cond_i / max(|lhs|, |rhs|), at
least 1, over the summands t_i with cond_i the internal condition of the
evaluator of t_i (1 where none is measured).  Above 1e3 the tolerance widens
to tol * condition, since exact identities with catastrophic cancellation
must not produce false failures.  The report-level ``max_rel_err`` is the
condition-adjusted maximum over the evaluated records, so ``pass`` is
exactly ``max_rel_err <= tol`` with at least one evaluated point.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    DomainError, EmptyGrid, QConnectError, TruncationExceeded, ZeroArgument
)
from .qcore import (
    DEFAULT_TRUNCATION,
    E_exp,
    QModulus,
    Spiral,
    Truncation,
    as_modulus,
    qpochhammer_inf,
    qpochhammer_n,
    theta_product,
    theta_sum_with_condition,
    _condition,
    _finite_abs,
    _neg_lam_spiral,
    _once,
    _qpochhammer_kernel,
    _SeriesPlan,
    _shifted_pole_at,
    _ThetaPlan,
    _weighted_abs,
)
from .series import (
    FormalSeries,
    _borel_minus_operator_image_of,
    _series,
    qborel_minus,
    qborel_plus,
)
from . import special
from .special import (
    _qairy_plan,
    _two_f_zero_at,
    _two_f_zero_closed_parts_at,
    ramanujan_Aq,
    ramanujan_Aq_with_condition,
)
from .transforms import contour_residue

__all__ = [
    "IDENTITY_IDS",
    "IdentityCheck",
    "PointRecord",
    "IdentityReport",
    "default_grid",
    "check",
    "run_suite",
    "default_suite",
]

_CONDITION_KNEE = 1e3
_DEGENERATE = 1e-250


def default_grid(rmin: float = 0.15, rmax: float = 8.0) -> tuple[complex, ...]:
    """3 log-spaced moduli rmin, sqrt(rmin rmax), rmax at 8 uniform angles,
    offset from the real axis by pi/16 to dodge the common exclusion
    spirals: 24 points.  A caller that wants another grid passes its points
    (``IdentityCheck(grid=...)``, ``qconnect check --grid``)."""
    if not 0 < rmin <= rmax < math.inf:
        raise DomainError(f"grid needs finite 0 < rmin <= rmax, got rmin={rmin!r}, rmax={rmax!r}")
    step = (rmax / rmin) ** 0.5
    moduli = [rmin * step**i for i in range(3)]
    angles = [math.pi / 16 + 2.0 * math.pi * j / 8 for j in range(8)]
    return tuple(m * cmath.exp(1j * a) for m in moduli for a in angles)


@dataclass(frozen=True)
class IdentityCheck:
    """One identity, its parameters, grid and tolerance."""

    identity: str
    q: complex
    lam: complex | None = None
    abc: tuple[complex, complex, complex] | None = None
    grid: tuple[complex, ...] | None = None
    tol: float | None = None
    trunc: Truncation = DEFAULT_TRUNCATION

    def __post_init__(self) -> None:
        if self.identity not in IDENTITY_IDS:
            raise ValueError(
                f"unknown identity {self.identity!r}; valid ids: {', '.join(IDENTITY_IDS)}"
            )
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.grid is not None:
            object.__setattr__(self, "grid", tuple(complex(x) for x in self.grid))


@dataclass
class PointRecord:
    x: complex
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    condition: float
    skipped: bool
    reason: str | None


#: PointRecord's fields in order, read once: (name, is complex).  A complex
#: field is {"re", "im"} in JSON and the two CSV columns name_re, name_im.
_POINT_FIELDS = tuple((f.name, f.type in ("complex", complex)) for f in fields(PointRecord))
_CSV_HEADER = tuple(
    col
    for name, is_cpx in _POINT_FIELDS
    for col in ((name + "_re", name + "_im") if is_cpx else (name,))
)


def _cpx(z: complex | None) -> dict | None:
    return None if z is None else {"re": float(z.real), "im": float(z.imag)}


@dataclass
class IdentityReport:
    identity: str
    q: complex
    lam: complex | None
    tol: float
    trunc: Truncation
    points: list[PointRecord]
    max_rel_err: float
    passed: bool

    @property
    def n_evaluated(self) -> int:
        return sum(1 for p in self.points if not p.skipped)

    @property
    def n_skipped(self) -> int:
        return sum(1 for p in self.points if p.skipped)

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "q": _cpx(self.q),
            "lambda": _cpx(self.lam),
            "points": [
                {
                    name: _cpx(getattr(p, name)) if is_cpx else getattr(p, name)
                    for name, is_cpx in _POINT_FIELDS
                }
                for p in self.points
            ],
            "max_rel_err": float(self.max_rel_err),
            "pass": bool(self.passed),
            "trunc": {"eps": float(self.trunc.eps), "n_max": int(self.trunc.n_max)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for p in self.points:
            row = []
            for name, is_cpx in _POINT_FIELDS:
                v = getattr(p, name)
                if is_cpx:
                    row += (repr(v.real), repr(v.imag))
                elif isinstance(v, float):
                    row.append(repr(v))
                elif isinstance(v, bool):
                    row.append("true" if v else "false")
                else:
                    row.append(v or "")  # the optional reason
            writer.writerow(row)
        return buf.getvalue()

    def summary(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return (
            f"{word} {self.identity} q={self.q} max_rel_err={self.max_rel_err:.3e} "
            f"evaluated={self.n_evaluated} skipped={self.n_skipped}"
        )


def _plain(*summands: complex) -> tuple[tuple[complex, float], ...]:
    """Terms for summands with no internal condition of their own: 1."""
    return tuple((t, 1.0) for t in summands)


def _record(
    x: complex, lhs: complex, rhs: complex, terms: tuple[tuple[complex, float], ...] = ()
) -> PointRecord:
    """The record of one comparison of lhs with rhs: rel_err |lhs - rhs| /
    max(|lhs|, |rhs|) and the condition sum |t| * cond over max(|lhs|,
    |rhs|), at least 1 (``qcore._condition``), over ``terms``, the
    (summand, internal condition) pairs that formed the sides.  The
    condition of a summand is the cancellation measured inside its evaluator
    (a theta sum, an entire series far from its origin), 1 where none is
    measured (:func:`_plain`); a formal (series level) comparison passes its
    worst coefficient pair and no terms.  A skip where a side is not finite
    (a nan error would drop out of the report's maximum unseen) or both
    sides are below 1e-250."""
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        reason = "a side is out of double range (not finite)"
        return PointRecord(x, 0j, 0j, 0.0, 0.0, 0.0, True, reason)
    mag = max(abs(lhs), abs(rhs))
    if mag < _DEGENERATE:
        reason = "both sides below 1e-250 (degenerate point)"
        return PointRecord(x, lhs, rhs, 0.0, 0.0, 0.0, True, reason)
    abs_err = abs(lhs - rhs)
    cond = _condition(_weighted_abs(terms), mag)
    return PointRecord(x, lhs, rhs, abs_err, abs_err / mag, cond, False, None)


def _series_worst(lhs: FormalSeries, rhs: FormalSeries) -> tuple[complex, complex, float]:
    """Worst per-coefficient relative discrepancy between two series; the
    first pair with a side not finite is the worst, at rel inf, so that
    :func:`_record` skips the point (a nan rel would lose every comparison)."""
    n = min(lhs.order, rhs.order) + 1
    ls, rs = lhs.coeffs[:n], rhs.coeffs[:n]
    if not (all(map(cmath.isfinite, ls)) and all(map(cmath.isfinite, rs))):
        return next(
            (a, b, math.inf)
            for a, b in zip(ls, rs)
            if not (cmath.isfinite(a) and cmath.isfinite(b))
        )
    top, k = 0.0, 0  # a later pair wins a tie, and a pair of zeros reads 0
    for i, (a, b) in enumerate(zip(ls, rs)):
        m, mb = abs(a), abs(b)
        if mb > m:
            m = mb
        if m > 0:
            rel = abs(a - b) / m
            if rel >= top:
                top = rel
                k = i
        elif top == 0.0:
            k = i
    return ls[k], rs[k], top


def _random_series(base: QModulus, order: int, seed: int) -> FormalSeries:
    rng = random.Random(seed)
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(order + 1)]
    coeffs[0] = 1 + 0j
    return _series(base, tuple(coeffs))  # complex and finite: no public checks


# ---------------------------------------------------------------------------
# per-identity evaluators


def _lam_off_qz(
    chk: IdentityCheck, qm: QModulus
) -> tuple[complex, Callable[[complex], str | None]]:
    """The check's lambda, which it must have: nonzero, finite and off the
    spiral q^Z (``qcore._neg_lam_spiral``), and the grid filter of the
    spiral [-lambda; q] that this check of lambda formed.  These are the
    only tests of lambda and x that thm-2f0 and qde-2f0-resummed make: the
    per-lambda forms of ``special`` and their spiral sums take both as
    settled, and [-lambda; q] is invariant under x -> qx, so
    qde-2f0-resummed's sums at qx and q^2 x need no test of their own."""
    if chk.lam is None:
        raise ValueError(f"identity {chk.identity!r} needs a lambda parameter")
    lam = complex(chk.lam)
    spiral = _neg_lam_spiral(lam, qm)
    return lam, lambda x: _off_spiral(spiral, x)


def _off_spiral(spiral: Spiral, x: complex) -> str | None:
    """The skip reason for a grid point x on the spiral, or not finite,
    else None."""
    try:
        spiral.exclude(x)
    except QConnectError as exc:
        return str(exc)
    return None


def _unit_disc_off_qz(qm: QModulus) -> Callable[[complex], str | None]:
    """The grid filter of the unit disc off q^Z."""
    poles = qm._pole_spiral()

    def reason(x):
        if abs(x) >= 1:
            return f"|x|={abs(x):.6g} outside the |x|<1 domain"
        return _off_spiral(poles, x)

    return reason


def _prep_watson(chk, qm, tr, mutations):
    if chk.abc is None or len(chk.abc) != 3:
        raise ValueError("the watson identity needs the (a, b, c) parameters")
    a, b, c = chk.abc
    # the connection side divides by each of them, x-free, in prepare
    for name, v in zip("abc", chk.abc):
        if not _finite_abs(v, "the watson identity", name):
            raise ZeroArgument(f"the watson identity needs a nonzero {name}, got {name}={v!r}")
    qc = qm.q
    # the connection side's x-free factors, K1 = (b, c/a; q)_inf / (c, b/a; q)_inf
    # and K2 = (a, c/b; q)_inf / (c, a/b; q)_inf, each at the term that needs it
    k1 = _once(
        lambda: qpochhammer_inf((b, c / a), qm, tr) / qpochhammer_inf((c, b / a), qm, tr)
    )
    k2 = _once(
        lambda: qpochhammer_inf((a, c / b), qm, tr) / qpochhammer_inf((c, a / b), qm, tr)
    )
    # the plans of the lhs 2phi1 and of the connection side's two
    lhs_series = _SeriesPlan((a, b), (c,), qm, tr)
    series_a = _SeriesPlan((a, a * qc / c), (a * qc / b,), qm, tr)
    series_b = _SeriesPlan((b, b * qc / c), (b * qc / a,), qm, tr)
    # the pairs (y, q/y; q)_inf = theta_q(-y) / (q;q)_inf, (q;q)_inf left out
    pairs = _ThetaPlan(qm, tr, over_qq=True)

    def point(x):
        arg = c * qc / (a * b * x)
        lhs = lhs_series(x)[0]
        c1 = k1()
        th_x = pairs(-x)
        t1 = c1 * (pairs(-a * x) / th_x) * series_a(arg)[0]
        t2 = k2() * (pairs(-b * x) / th_x) * series_b(arg)[0]
        return [_record(x, lhs, t1 + t2, _plain(t1, t2))]

    in_disc = _unit_disc_off_qz(qm)

    def reason(x):
        if abs(x) < 1:  # inside the disc, the connection side's overlap domain
            try:
                arg = c * qc / (a * b * x)
            except ZeroDivisionError:  # a b x is 0, or underflows to 0
                arg = complex(math.inf)
            if abs(arg) >= 1:
                return f"|cq/(abx)|={abs(arg):.6g} outside the overlap domain"
        return in_disc(x)

    return point, reason


def _prep_ismail_zhang(chk, qm, tr, mutations):
    qc = qm.q
    q2m = qm.squared()
    c0 = _once(lambda: qpochhammer_inf(qc, q2m, tr))
    series_1 = _SeriesPlan((0j,), (qc,), q2m, tr)
    series_3 = _SeriesPlan((0j,), (qc**3,), q2m, tr)
    # the pairs (y, q^2/y; q^2)_inf = theta_{q^2}(-y) / (q^2;q^2)_inf at base
    # q^2, (q^2;q^2)_inf left out
    pairs = _ThetaPlan(q2m, tr, over_qq=True)

    def point(x):
        lhs = ramanujan_Aq(qm, x, tr)
        c = c0()
        t1 = pairs(-qc * x) / c * series_1(qm.q2 / x)[0]
        t2 = qc * pairs(-1 / x) / ((1 - qc) * c) * series_3(qc**3 / x)[0]
        return [_record(x, lhs, t1 - t2, _plain(t1, -t2))]

    return point, None


def _prep_thm_ramanujan_qairy(chk, qm, tr, mutations):
    q2m = qm.squared()
    # the rhs is the residue sum that f_via_residues ships, read where
    # special binds it, so the check tests the shipped form itself
    residue_sum = special._residue_sum_at(qm, tr)

    def point(x):
        lhs, c0 = ramanujan_Aq_with_condition(q2m, -(qm.q**3) / (x * x), tr)
        terms = residue_sum(x)
        return [_record(x, lhs, terms[0][0] + terms[1][0], ((lhs, c0),) + terms)]

    return point, None


def _prep_thm_eq_Eq(chk, qm, tr, mutations):
    qc = qm.q
    # e_q's series 1phi0(0; -; q, x); the grid filter keeps x off its poles
    e_series = _SeriesPlan((0j,), (), qm, tr)
    th = _ThetaPlan(qm, tr)  # and its (q;q)_inf

    def point(x):
        lhs = e_series(x)[0]
        rhs = th.qq() * E_exp(qm, -qc / x, tr) / th(-x)
        return [_record(x, lhs, rhs, _plain(rhs))]

    return point, _unit_disc_off_qz(qm)


def _prep_lemma_alt(chk, qm, tr, mutations):
    qc = qm.q
    q2m = qm.squared()
    series_1 = _SeriesPlan((), (qc,), q2m, tr)
    series_3 = _SeriesPlan((), (qc**3,), q2m, tr)
    th = _ThetaPlan(qm, tr)  # and its (q;q)_inf

    def point(x):
        # e_q(x/q) = 1/(x/q; q)_inf: the grid filter keeps x off its poles
        lhs = 1 / qpochhammer_inf(x / qc, qm, tr)
        pref = th.qq() / th(-x / qc)
        t1 = pref * series_1(qc**5 / (x * x))[0]
        t2 = (
            -pref
            * qm.q2
            / ((1 - qc) * x)
            * series_3(qc**7 / (x * x))[0]
        )
        return [_record(x, lhs, t1 + t2, _plain(t1, t2))]

    return point, _unit_disc_off_qz(qm)


def _prep_thm_2f0(chk, qm, tr, mutations):
    lam, reason = _lam_off_qz(chk, qm)
    resummed = _two_f_zero_at(qm, lam, tr)
    closed_parts = _two_f_zero_closed_parts_at(qm, lam, tr)

    def point(x):
        lhs = resummed(x)
        even, odd = closed_parts(x)
        if "drop-one-minus-q" in mutations:
            odd *= 1 - qm.q
        return [_record(x, lhs, even + odd, _plain(even, odd))]

    return point, reason


def _prep_qde_ramanujan(chk, qm, tr, mutations):
    qc = qm.q

    def point(x):
        t1 = qc * x * ramanujan_Aq(qm, qm.q2 * x, tr)
        t2 = ramanujan_Aq(qm, x, tr)
        t3 = ramanujan_Aq(qm, qc * x, tr)
        return [_record(x, t1 + t2, t3, _plain(t1, t2, t3))]

    return point, None


def _prep_qde_qairy(chk, qm, tr, mutations):
    qc = qm.q
    # Ai_q(y) is the plan at -y
    ai_lhs, ai_rhs = _qairy_plan(qm, tr), _qairy_plan(qm, tr)

    def point(x):
        a1, c1 = ai_lhs(-(qm.q2 * x))
        a2, c2 = ai_lhs(-(qc * x))
        t3, c3 = ai_rhs(-x)
        t1, t2 = a1, x * a2
        return [_record(x, t1 + t2, t3, ((t1, c1), (t2, c2), (t3, c3)))]

    return point, None


def _prep_qde_theta(chk, qm, tr, mutations):
    # lhs by the bilateral sum, rhs through the triple product: fully disjoint
    # paths, and no shift-law renormalization anywhere (that would be
    # circular).  The sum side's internal cancellation is the honest
    # condition of the comparison; the worst of the four shifts is reported.
    qc = qm.q

    def point(x):
        base = theta_product(qm, x, tr)
        records = []
        for k in range(1, 5):
            lhs, cond = theta_sum_with_condition(qm, qc**k * x, tr)
            rhs = qc ** (-(k * (k - 1) // 2)) * x ** (-k) * base
            records.append(_record(x, lhs, rhs, ((lhs, cond),)))
        return [max(records, key=_adjusted)]

    return point, None


def _prep_qde_2f0(chk, qm, tr, mutations):
    lam, reason = _lam_off_qz(chk, qm)
    qc = qm.q
    # each side resums along [lambda; q] with its own per-lambda form, and
    # takes its theta with its own plan
    resummed_lhs, th_lhs = _two_f_zero_at(qm, lam, tr), _ThetaPlan(qm, tr)
    resummed_rhs, th_rhs = _two_f_zero_at(qm, lam, tr), _ThetaPlan(qm, tr)

    def u(th, resummed, y: complex) -> complex:
        return th(y) * resummed(y)

    def point(x):
        t1 = qc * x * u(th_lhs, resummed_lhs, qm.q2 * x)
        t2 = u(th_lhs, resummed_lhs, x)
        t3 = u(th_rhs, resummed_rhs, qc * x)
        return [_record(x, t1 + t2, t3, _plain(t1, t2, t3))]

    return point, reason


_RESIDUE_K_QUAD = 5
_RESIDUE_K_PRODUCT = 8


def _prep_residue_lemma(chk, qm, tr, mutations):
    # the grid points are the anchors lambda
    qc = qm.q
    qq = _once(lambda: qpochhammer_inf(qc, qm, tr))
    spread = min(abs(1 - qc), 1.0)  # the circles' radii over |center|, times 4

    def point(lam):
        out = []
        qq_inf = qq()
        for k in range(_RESIDUE_K_QUAD + 1):
            qk = qc**-k
            center = lam * qk
            rho = 0.25 * abs(center) * spread
            # one split for the circle, at its largest |tau/lambda|, which is
            # (|center| + rho)/|lambda| = |q^-k| (1 + spread/4)
            product = _qpochhammer_kernel(abs(qk) * (1 + 0.25 * spread), qm, tr)

            def integrand(tau: complex) -> complex:
                return 1 / (product(tau / lam) * tau)

            lhs = contour_residue(integrand, center, rho, tr)
            rhs = (
                (-1) ** (k + 1)
                * qc ** (k * (k + 1) // 2)
                / (qpochhammer_n(qc, qm, k) * qq_inf)
            )
            out.append(_record(center, lhs, rhs, _plain(lhs, rhs)))
        shifted_pole = _shifted_pole_at(lam, qm, tr)  # (lambda; q)_inf once per anchor
        for k in range(_RESIDUE_K_PRODUCT + 1):
            pt = lam * qc**-k
            lhs = 1 / qpochhammer_inf(pt, qm, tr)
            rhs = shifted_pole(k)
            out.append(_record(pt, lhs, rhs, _plain(lhs, rhs)))
        return out

    return point, None


_FORMAL_ORDER = 40


def _integer_pair(x: complex) -> tuple[int, int]:
    """The integers (round(Re x), round(Im x)) that a formal check reads
    from its grid point x; a non-finite x raises
    :class:`~qconnect.errors.DomainError` naming it."""
    if not cmath.isfinite(x):
        raise DomainError(f"a formal check needs a finite grid point, got x={x!r}")
    return int(round(x.real)), int(round(x.imag))


def _prep_operational_lemma(chk, qm, tr, mutations):
    # one series under test, and its B_q^- f formed once for the rhs
    image = _borel_minus_operator_image_of(_random_series(qm, _FORMAL_ORDER, seed=9173))

    def point(x):
        m, l = _integer_pair(x)
        wl, wr, _ = _series_worst(*image(m, l))
        return [_record(x, wl, wr)]

    return point, None


def _prep_formal_inverses(chk, qm, tr, mutations):
    def point(x):
        order, seed = _integer_pair(x)
        if order < 0:
            raise ValueError("the series order (the real part of x) must be nonnegative")
        if order > tr.n_max:  # before any coefficient is drawn
            raise TruncationExceeded(f"series order {order} is above n_max={tr.n_max}")
        f = _random_series(qm, order, seed=7000 + seed)
        back1 = qborel_plus(qborel_minus(f))
        back2 = qborel_minus(qborel_plus(f))
        n = min(back1.order, back2.order)
        pairs = (_series_worst(back1, f.prefix(n)), _series_worst(back2, f.prefix(n)))
        wl, wr, _ = max(pairs, key=lambda w: w[2])
        return [_record(x, wl, wr)]

    return point, None


@dataclass(frozen=True)
class _IdentitySpec:
    """One identity: its default tolerance and grid, and its one hook,
    ``prepare``.  :func:`check` calls it once, with (check, base,
    truncation, mutations), before it looks at the grid.  ``prepare``
    refuses parameters the identity cannot take, so a missing or excluded
    parameter raises ahead of :class:`~qconnect.errors.EmptyGrid`, and
    returns (point, reason): point, the function of one grid point x that
    gives the records of its comparisons (:func:`_record`), and reason, the
    grid filter built from what ``prepare`` has checked, which gives the
    skip reason of a point outside the identity's domain or None (reason is
    None where the domain takes every grid point).  Whatever does not depend
    on x is formed inside ``prepare``, for each side apart, and lives as
    long as point: one check.  The plans (see the module docstring) are
    formed directly, since a plan raises nothing until called; the other
    x-free values, such as products, are wrapped in ``qcore._once`` and
    formed at their first use, so a value that cannot be formed fails every
    point at that step."""

    tol: float
    grid: tuple[complex, ...]
    prepare: Callable[
        [IdentityCheck, QModulus, Truncation, frozenset],
        tuple[Callable[[complex], list[PointRecord]], Callable[[complex], str | None] | None],
    ]


_GRID_FULL = default_grid(0.15, 8.0)
_GRID_SUBUNIT = default_grid(0.15, 0.9)


_REGISTRY: Mapping[str, _IdentitySpec] = {
    "watson": _IdentitySpec(1e-9, _GRID_SUBUNIT, _prep_watson),
    "ismail-zhang": _IdentitySpec(1e-10, _GRID_FULL, _prep_ismail_zhang),
    "thm-ramanujan-qairy": _IdentitySpec(1e-9, _GRID_FULL, _prep_thm_ramanujan_qairy),
    "thm-eq-Eq": _IdentitySpec(1e-12, _GRID_SUBUNIT, _prep_thm_eq_Eq),
    "lemma-alt": _IdentitySpec(1e-12, _GRID_SUBUNIT, _prep_lemma_alt),
    "thm-2f0": _IdentitySpec(1e-8, _GRID_FULL, _prep_thm_2f0),
    "qde-ramanujan": _IdentitySpec(1e-9, _GRID_FULL, _prep_qde_ramanujan),
    "qde-qairy": _IdentitySpec(1e-9, _GRID_FULL, _prep_qde_qairy),
    "qde-theta": _IdentitySpec(1e-9, _GRID_FULL, _prep_qde_theta),
    "qde-2f0-resummed": _IdentitySpec(1e-9, _GRID_FULL, _prep_qde_2f0),
    "residue-lemma": _IdentitySpec(
        1e-8, (0.3 + 0j, 2.0 * cmath.exp(0.7j)), _prep_residue_lemma
    ),
    "operational-lemma": _IdentitySpec(
        1e-13,
        tuple(complex(m, l) for m in range(6) for l in range(6)),
        _prep_operational_lemma,
    ),
    "formal-inverses": _IdentitySpec(
        1e-13, tuple(complex(30, s) for s in range(5)), _prep_formal_inverses
    ),
}

#: every identity id, in registry order
IDENTITY_IDS = tuple(_REGISTRY)


def _adjusted(p: PointRecord) -> float:
    """A point's relative error with the conditioning it explains divided
    out: above the condition knee, the tolerance widens by the condition."""
    return p.rel_err / p.condition if p.condition > _CONDITION_KNEE else p.rel_err


def check(chk: IdentityCheck, mutations: frozenset[str] = frozenset()) -> IdentityReport:
    """Run one identity check and return its report.

    ``mutations`` deliberately corrupts a formula ("drop-one-minus-q" on
    thm-2f0) so the harness itself can be tested; it is never part of a
    normal run.  The identity's ``prepare`` (:class:`_IdentitySpec`) gives
    the function of one grid point and the grid filter.  Any package error
    at a point (a domain exclusion, a truncation cap, a quadrature that does
    not settle), and an argument formed from x that leaves double range
    (x = 0 on a custom grid, or an x*x that underflows to 0), becomes a skip
    record carrying its message.
    """
    qm = as_modulus(chk.q)
    spec = _REGISTRY[chk.identity]
    point, keep = spec.prepare(chk, qm, chk.trunc, mutations)
    grid = chk.grid if chk.grid is not None else spec.grid
    tol = chk.tol if chk.tol is not None else spec.tol
    reasons = [keep(x) if keep else None for x in grid]
    if grid and all(r is not None for r in reasons):
        raise EmptyGrid(
            f"every grid point of {chk.identity!r} is excluded; first reason: {reasons[0]}"
        )

    points: list[PointRecord] = []
    for x, reason in zip(grid, reasons):
        if reason is None:
            try:
                points += point(x)
                continue
            except QConnectError as exc:
                reason = str(exc)
            except ArithmeticError as exc:  # an argument formed from x leaves double range
                reason = f"an argument formed from x={x!r} leaves double range: {exc}"
        points.append(PointRecord(x, 0j, 0j, 0.0, 0.0, 0.0, True, reason))

    adjusted = [_adjusted(p) for p in points if not p.skipped]
    max_adj = max(adjusted, default=0.0)
    passed = bool(adjusted) and max_adj <= tol
    return IdentityReport(
        identity=chk.identity,
        q=qm.q,
        lam=None if chk.lam is None else complex(chk.lam),
        tol=tol,
        trunc=chk.trunc,
        points=points,
        max_rel_err=max_adj,
        passed=passed,
    )


def run_suite(
    checks: Sequence[IdentityCheck], mutations: frozenset[str] = frozenset()
) -> list[IdentityReport]:
    """Run every check; failures are data, not exceptions."""
    return [check(c, mutations) for c in checks]


def default_suite(
    qs: Iterable[complex] = (0.3, 0.5, 0.8),
    lam: complex = 0.7,
    abc: tuple[complex, complex, complex] = (-4, 3, 0.5),
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> list[IdentityCheck]:
    """All identities at each base; the configuration the acceptance run uses."""
    out = []
    for q in qs:
        for ident in IDENTITY_IDS:
            out.append(
                IdentityCheck(
                    identity=ident,
                    q=complex(q),
                    lam=complex(lam),
                    abc=tuple(complex(v) for v in abc),
                    trunc=trunc,
                )
            )
    return out
