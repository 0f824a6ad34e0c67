"""Numerical verification of connection formulae over complex grids.

Every identity is evaluated with disjoint code paths on its two sides (no
shared memoized subexpression), point by point over a grid that respects the
identity's exclusion set.  Filtered points and evaluation-time errors (any
:class:`~qconnect.errors.QConnectError`) become skip records, never silent
passes or aborted runs.  Each evaluated point carries a condition composed
by one rule: sum |t_i| cond_i / max(|lhs|, |rhs|), at least 1, over the
summands t_i with cond_i the internal condition of the evaluator of t_i (1
where none is measured).  Above 1e3 the tolerance widens to tol * condition,
since exact identities with catastrophic cancellation must not produce false
failures.  The report-level ``max_rel_err`` is the condition-adjusted
maximum, so ``pass`` is exactly ``max_rel_err <= tol`` with at least one
evaluated point.
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

from .errors import EmptyGrid, QConnectError, SpiralProximity
from .qcore import (
    DEFAULT_TRUNCATION,
    E_exp,
    QModulus,
    Spiral,
    Truncation,
    as_modulus,
    e_exp,
    qpochhammer_inf,
    qpochhammer_inf_shifted_pole,
    qpochhammer_n,
    rphis,
    theta,
    theta_product,
    theta_sum_with_condition,
    _condition,
    _weighted_abs,
)
from .series import FormalSeries, borel_minus_operator_image, qborel_minus, qborel_plus
from .special import (
    _two_f_zero_closed_parts,
    qairy_Ai_with_condition,
    ramanujan_Aq,
    ramanujan_Aq_with_condition,
    two_f_zero,
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


def default_grid(
    rmin: float = 0.15,
    rmax: float = 8.0,
    n_moduli: int = 3,
    n_angles: int = 8,
) -> tuple[complex, ...]:
    """Log-spaced moduli in [rmin, rmax] at n_angles uniform angles, offset
    from the real axis by pi/16 to dodge the common exclusion spirals."""
    if n_moduli < 1 or n_angles < 1:
        raise ValueError("grid needs at least one modulus and one angle")
    if n_moduli == 1:
        moduli = [rmin]
    else:
        step = (rmax / rmin) ** (1.0 / (n_moduli - 1))
        moduli = [rmin * step**i for i in range(n_moduli)]
    angles = [math.pi / 16 + 2.0 * math.pi * j / n_angles for j in range(n_angles)]
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


@dataclass(frozen=True)
class _Eval:
    """One evaluated comparison: lhs vs rhs with the summands that formed them.

    Each term is a (summand, internal condition) pair, the condition being
    the cancellation measured inside the evaluator of the summand (a theta
    sum, an entire series far from its origin), 1 where none is measured
    (:func:`_plain`).  The point's condition is sum |t| * cond over
    max(|lhs|, |rhs|), at least 1 (``qcore._condition``).  A formal (series
    level) comparison passes its worst coefficient pair and no terms.
    """

    x: complex
    lhs: complex
    rhs: complex
    terms: tuple[tuple[complex, float], ...] = ()


def _plain(*summands: complex) -> tuple[tuple[complex, float], ...]:
    """Terms for summands with no internal condition of their own: 1."""
    return tuple((t, 1.0) for t in summands)


def _point(ev: _Eval) -> PointRecord:
    """The record of one comparison: rel_err |lhs - rhs| / max(|lhs|, |rhs|)
    and the composed condition; a skip where a side is not finite (a nan
    error would drop out of the report's maximum unseen) or both sides are
    below 1e-250."""
    if not (cmath.isfinite(ev.lhs) and cmath.isfinite(ev.rhs)):
        reason = "a side is out of double range (not finite)"
        return PointRecord(ev.x, 0j, 0j, 0.0, 0.0, 0.0, True, reason)
    mag = max(abs(ev.lhs), abs(ev.rhs))
    if mag < _DEGENERATE:
        reason = "both sides below 1e-250 (degenerate point)"
        return PointRecord(ev.x, ev.lhs, ev.rhs, 0.0, 0.0, 0.0, True, reason)
    abs_err = abs(ev.lhs - ev.rhs)
    cond = _condition(_weighted_abs(ev.terms), mag)
    return PointRecord(ev.x, ev.lhs, ev.rhs, abs_err, abs_err / mag, cond, False, None)


def _series_worst(lhs: FormalSeries, rhs: FormalSeries) -> tuple[complex, complex, float]:
    """Worst per-coefficient relative discrepancy between two series."""
    n = min(lhs.order, rhs.order)
    worst = (lhs.coeffs[0], rhs.coeffs[0], 0.0)
    for i in range(n + 1):
        a, b = lhs.coeffs[i], rhs.coeffs[i]
        m = max(abs(a), abs(b))
        rel = abs(a - b) / m if m > 0 else 0.0
        if rel >= worst[2]:
            worst = (a, b, rel)
    return worst


def _random_series(base: QModulus, order: int, seed: int) -> FormalSeries:
    rng = random.Random(seed)
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(order + 1)]
    coeffs[0] = 1 + 0j
    return FormalSeries(base, tuple(coeffs))


# ---------------------------------------------------------------------------
# per-identity evaluators


def _need_lam(chk: IdentityCheck) -> complex:
    if chk.lam is None:
        raise ValueError(f"identity {chk.identity!r} needs a lambda parameter")
    return complex(chk.lam)


def _validate_lam_off_qz(chk: IdentityCheck, qm: QModulus) -> None:
    Spiral(1 + 0j, qm).exclude(_need_lam(chk), "lambda")


def _off_spiral(spiral: Spiral, x: complex) -> str | None:
    """The skip reason for a grid point x on the spiral, else None."""
    try:
        spiral.exclude(x)
    except SpiralProximity as exc:
        return str(exc)
    return None


def _filter_unit_disc_off_one_spiral(
    chk: IdentityCheck, qm: QModulus, x: complex
) -> str | None:
    if abs(x) >= 1:
        return f"|x|={abs(x):.6g} outside the |x|<1 domain"
    return _off_spiral(Spiral(1 + 0j, qm), x)


def _filter_watson(chk: IdentityCheck, qm: QModulus, x: complex) -> str | None:
    a, b, c = chk.abc  # validated already
    if abs(x) >= 1:
        return f"|x|={abs(x):.6g} outside the |x|<1 domain"
    try:
        arg = c * qm.q / (a * b * x)
    except ZeroDivisionError:  # a b x is 0, or underflows to 0
        arg = complex(math.inf)
    if abs(arg) >= 1:
        return f"|cq/(abx)|={abs(arg):.6g} outside the overlap domain"
    return _off_spiral(Spiral(1 + 0j, qm), x)


def _filter_neg_lam_spiral(chk: IdentityCheck, qm: QModulus, x: complex) -> str | None:
    return _off_spiral(Spiral(-_need_lam(chk), qm), x)


def _eval_watson(chk, qm, x, tr, mutations):
    a, b, c = chk.abc
    qc = qm.q
    arg = c * qc / (a * b * x)
    lhs = rphis((a, b), (c,), qm, x, tr)
    den = qpochhammer_inf((c, b / a, x, qc / x), qm, tr)
    t1 = (
        qpochhammer_inf((b, c / a, a * x, qc / (a * x)), qm, tr)
        / den
        * rphis((a, a * qc / c), (a * qc / b,), qm, arg, tr)
    )
    den2 = qpochhammer_inf((c, a / b, x, qc / x), qm, tr)
    t2 = (
        qpochhammer_inf((a, c / b, b * x, qc / (b * x)), qm, tr)
        / den2
        * rphis((b, b * qc / c), (b * qc / a,), qm, arg, tr)
    )
    return [_Eval(x, lhs, t1 + t2, _plain(t1, t2))]


def _eval_ismail_zhang(chk, qm, x, tr, mutations):
    qc = qm.q
    q2m = qm.squared()
    lhs = ramanujan_Aq(qm, x, tr)
    c0 = qpochhammer_inf(qc, q2m, tr)
    t1 = (
        qpochhammer_inf((qc * x, qc / x), q2m, tr)
        / c0
        * rphis((0j,), (qc,), q2m, qm.q2 / x, tr)
    )
    t2 = (
        qc
        * qpochhammer_inf((qm.q2 * x, 1 / x), q2m, tr)
        / ((1 - qc) * c0)
        * rphis((0j,), (qc**3,), q2m, qc**3 / x, tr)
    )
    return [_Eval(x, lhs, t1 - t2, _plain(t1, -t2))]


def _eval_thm_ramanujan_qairy(chk, qm, x, tr, mutations):
    qc = qm.q
    lhs, c0 = ramanujan_Aq_with_condition(qm.squared(), -(qc**3) / (x * x), tr)
    den = qpochhammer_inf((qc, -1 + 0j), qm, tr)
    a1, c1 = qairy_Ai_with_condition(qm, -x, tr)
    a2, c2 = qairy_Ai_with_condition(qm, x, tr)
    t1 = theta(qm, x / qc, tr) * a1 / den
    t2 = theta(qm, -x / qc, tr) * a2 / den
    return [_Eval(x, lhs, t1 + t2, ((lhs, c0), (t1, c1), (t2, c2)))]


def _eval_thm_eq_Eq(chk, qm, x, tr, mutations):
    qc = qm.q
    lhs = e_exp(qm, x, tr, mode="series")
    rhs = qpochhammer_inf(qc, qm, tr) * E_exp(qm, -qc / x, tr) / theta(qm, -x, tr)
    return [_Eval(x, lhs, rhs, _plain(rhs))]


def _eval_lemma_alt(chk, qm, x, tr, mutations):
    qc = qm.q
    lhs = e_exp(qm, x / qc, tr, mode="product")
    pref = qpochhammer_inf(qc, qm, tr) / theta(qm, -x / qc, tr)
    t1 = pref * rphis((), (qc,), qm.squared(), qc**5 / (x * x), tr)
    t2 = (
        -pref
        * qm.q2
        / ((1 - qc) * x)
        * rphis((), (qc**3,), qm.squared(), qc**7 / (x * x), tr)
    )
    return [_Eval(x, lhs, t1 + t2, _plain(t1, t2))]


def _eval_thm_2f0(chk, qm, x, tr, mutations):
    lam = _need_lam(chk)
    lhs = two_f_zero(qm, lam, x, tr)
    even, odd = _two_f_zero_closed_parts(qm, lam, x, tr)
    if "drop-one-minus-q" in mutations:
        odd *= 1 - qm.q
    return [_Eval(x, lhs, even + odd, _plain(even, odd))]


def _eval_qde_ramanujan(chk, qm, x, tr, mutations):
    qc = qm.q
    t1 = qc * x * ramanujan_Aq(qm, qm.q2 * x, tr)
    t2 = ramanujan_Aq(qm, x, tr)
    t3 = ramanujan_Aq(qm, qc * x, tr)
    return [_Eval(x, t1 + t2, t3, _plain(t1, t2, t3))]


def _eval_qde_qairy(chk, qm, x, tr, mutations):
    qc = qm.q
    a1, c1 = qairy_Ai_with_condition(qm, qm.q2 * x, tr)
    a2, c2 = qairy_Ai_with_condition(qm, qc * x, tr)
    t3, c3 = qairy_Ai_with_condition(qm, x, tr)
    t1, t2 = a1, x * a2
    return [_Eval(x, t1 + t2, t3, ((t1, c1), (t2, c2), (t3, c3)))]


def _eval_qde_theta(chk, qm, x, tr, mutations):
    # lhs by the bilateral sum, rhs through the triple product: fully disjoint
    # paths, and no shift-law renormalization anywhere (that would be
    # circular).  The sum side's internal cancellation is the honest
    # condition of the comparison; the worst of the four shifts is reported.
    qc = qm.q
    base = theta_product(qm, x, tr)
    evals = []
    for k in range(1, 5):
        lhs, cond = theta_sum_with_condition(qm, qc**k * x, tr)
        rhs = qc ** (-(k * (k - 1) // 2)) * x ** (-k) * base
        evals.append(_Eval(x, lhs, rhs, ((lhs, cond),)))
    return [max(evals, key=lambda ev: _adjusted(_point(ev)))]


def _eval_qde_2f0(chk, qm, x, tr, mutations):
    lam = _need_lam(chk)
    qc = qm.q

    def u(y: complex) -> complex:
        return theta(qm, y, tr) * two_f_zero(qm, lam, y, tr)

    t1 = qc * x * u(qm.q2 * x)
    t2 = u(x)
    t3 = u(qc * x)
    return [_Eval(x, t1 + t2, t3, _plain(t1, t2, t3))]


_RESIDUE_K_QUAD = 5
_RESIDUE_K_PRODUCT = 8


def _eval_residue_lemma(chk, qm, lam, tr, mutations):
    qc = qm.q
    out = []
    qq_inf = qpochhammer_inf(qc, qm, tr)
    for k in range(_RESIDUE_K_QUAD + 1):
        center = lam * qc**-k
        rho = 0.25 * abs(center) * min(abs(1 - qc), 1.0)

        def integrand(tau: complex) -> complex:
            return 1 / (qpochhammer_inf(tau / lam, qm, tr) * tau)

        lhs = contour_residue(integrand, center, rho, tr)
        rhs = (
            (-1) ** (k + 1)
            * qc ** (k * (k + 1) // 2)
            / (qpochhammer_n(qc, qm, k) * qq_inf)
        )
        out.append(_Eval(center, lhs, rhs, _plain(lhs, rhs)))
    for k in range(_RESIDUE_K_PRODUCT + 1):
        pt = lam * qc**-k
        lhs = 1 / qpochhammer_inf(pt, qm, tr)
        rhs = qpochhammer_inf_shifted_pole(lam, qm, k, tr)
        out.append(_Eval(pt, lhs, rhs, _plain(lhs, rhs)))
    return out


_FORMAL_ORDER = 40


def _eval_operational_lemma(chk, qm, x, tr, mutations):
    m, l = int(round(x.real)), int(round(x.imag))
    f = _random_series(qm, _FORMAL_ORDER, seed=9173)
    wl, wr, _ = _series_worst(*borel_minus_operator_image(m, l, f))
    return [_Eval(x, wl, wr)]


def _eval_formal_inverses(chk, qm, x, tr, mutations):
    order, seed = int(round(x.real)), int(round(x.imag))
    f = _random_series(qm, order, seed=7000 + seed)
    back1 = qborel_plus(qborel_minus(f))
    back2 = qborel_minus(qborel_plus(f))
    n = min(back1.order, back2.order)
    pairs = (_series_worst(back1, f.prefix(n)), _series_worst(back2, f.prefix(n)))
    wl, wr, _ = max(pairs, key=lambda w: w[2])
    return [_Eval(x, wl, wr)]


@dataclass(frozen=True)
class _IdentitySpec:
    tol: float
    grid: tuple[complex, ...]
    evaluate: Callable
    prefilter: Callable[[IdentityCheck, QModulus, complex], str | None] | None = None
    validate: Callable[[IdentityCheck, QModulus], None] | None = None


_GRID_FULL = default_grid(0.15, 8.0)
_GRID_SUBUNIT = default_grid(0.15, 0.9)


def _validate_watson(chk: IdentityCheck, qm: QModulus) -> None:
    if chk.abc is None:
        raise ValueError("the watson identity needs the (a, b, c) parameters")


_REGISTRY: Mapping[str, _IdentitySpec] = {
    "watson": _IdentitySpec(
        1e-9, _GRID_SUBUNIT, _eval_watson, _filter_watson, _validate_watson
    ),
    "ismail-zhang": _IdentitySpec(1e-10, _GRID_FULL, _eval_ismail_zhang),
    "thm-ramanujan-qairy": _IdentitySpec(1e-9, _GRID_FULL, _eval_thm_ramanujan_qairy),
    "thm-eq-Eq": _IdentitySpec(
        1e-12, _GRID_SUBUNIT, _eval_thm_eq_Eq, _filter_unit_disc_off_one_spiral
    ),
    "lemma-alt": _IdentitySpec(
        1e-12, _GRID_SUBUNIT, _eval_lemma_alt, _filter_unit_disc_off_one_spiral
    ),
    "thm-2f0": _IdentitySpec(
        1e-8, _GRID_FULL, _eval_thm_2f0, _filter_neg_lam_spiral, _validate_lam_off_qz
    ),
    "qde-ramanujan": _IdentitySpec(1e-9, _GRID_FULL, _eval_qde_ramanujan),
    "qde-qairy": _IdentitySpec(1e-9, _GRID_FULL, _eval_qde_qairy),
    "qde-theta": _IdentitySpec(1e-9, _GRID_FULL, _eval_qde_theta),
    "qde-2f0-resummed": _IdentitySpec(
        1e-9, _GRID_FULL, _eval_qde_2f0, _filter_neg_lam_spiral, _validate_lam_off_qz
    ),
    "residue-lemma": _IdentitySpec(
        1e-8, (0.3 + 0j, 2.0 * cmath.exp(0.7j)), _eval_residue_lemma
    ),
    "operational-lemma": _IdentitySpec(
        1e-13,
        tuple(complex(m, l) for m in range(6) for l in range(6)),
        _eval_operational_lemma,
    ),
    "formal-inverses": _IdentitySpec(
        1e-13, tuple(complex(30, s) for s in range(5)), _eval_formal_inverses
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
    normal run.  Any package error at a point (a domain exclusion, a
    truncation cap, a quadrature that does not settle), and an argument
    formed from x that leaves double range (x = 0 on a custom grid, or an
    x*x that underflows to 0), becomes a skip record carrying its message.
    """
    qm = as_modulus(chk.q)
    spec = _REGISTRY[chk.identity]
    if spec.validate is not None:
        spec.validate(chk, qm)
    grid = chk.grid if chk.grid is not None else spec.grid
    tol = chk.tol if chk.tol is not None else spec.tol

    reasons = [spec.prefilter(chk, qm, x) if spec.prefilter else None for x in grid]
    if grid and all(r is not None for r in reasons):
        raise EmptyGrid(
            f"every grid point of {chk.identity!r} is excluded; first reason: {reasons[0]}"
        )

    points: list[PointRecord] = []
    max_adj = 0.0
    n_eval = 0
    for x, reason in zip(grid, reasons):
        if reason is None:
            try:
                evals = spec.evaluate(chk, qm, x, chk.trunc, mutations)
            except QConnectError as exc:
                reason = str(exc)
            except ArithmeticError as exc:  # an argument formed from x leaves double range
                reason = f"an argument formed from x={x!r} leaves double range: {exc}"
        if reason is not None:
            points.append(PointRecord(x, 0j, 0j, 0.0, 0.0, 0.0, True, reason))
            continue
        for ev in evals:
            p = _point(ev)
            points.append(p)
            if not p.skipped:
                max_adj = max(max_adj, _adjusted(p))
                n_eval += 1

    passed = n_eval >= 1 and max_adj <= tol
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
