import cmath
import dataclasses
import itertools
import math
import random
import statistics
import sys
from decimal import Decimal

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qconnect import (
    DEFAULT_TRUNCATION,
    BadLowerParameter,
    DivergentSeries,
    DomainError,
    E_exp,
    OutsideRadius,
    PoleHit,
    QConnectError,
    QModulus,
    Spiral,
    SpiralProximity,
    TermLog,
    Truncation,
    TruncationExceeded,
    ZeroArgument,
    as_modulus,
    e_exp,
    g_borel_image,
    qlaplace_minus,
    qpochhammer_inf,
    qpochhammer_inf_shifted_pole,
    qpochhammer_n,
    qlaplace_plus,
    ramanujan_Aq,
    rphis,
    rphis_with_condition,
    theta,
    theta_product,
    theta_sum,
    theta_sum_with_condition,
    two_f_zero,
)
from qconnect import qcore
from qconnect.qcore import (
    DEFAULT_PROXIMITY,
    _EXACT_TOL,
    _condition,
    _finite_abs,
    _SeriesPlan,
    _shifted_pole_at,
    _sum_tail,
    _terminating_degree,
    _ThetaPlan,
)
from conftest import decimal_rel_err, decimal_theta, rel_err, theta_rounding_bound

mp.mp.dps = 40


def mp_qp(a, q, n=None):
    return complex(mp.qp(mp.mpc(a), mp.mpc(q), n))


def mp_theta(q, x):
    q, x = mp.mpc(q), mp.mpc(x)
    return complex(mp.qp(q, q) * mp.qp(-x, q) * mp.qp(-q / x, q))


def mp_qp_long(a, q):
    """(a;q)_inf at 40 digits for |q| up to 0.997 (beyond mpmath's default
    factor cap)."""
    return mp.qp(mp.mpc(a), mp.mpc(q), maxterms=10**6)


def mp_theta_long(q, x):
    return mp_qp_long(q, q) * mp_qp_long(-x, q) * mp_qp_long(-q / x, q)


def mp_qp_mpc(a, q):
    """(a;q)_inf at 30 digits as an mpmath value, for |q| up to 0.995 in far
    fewer operations than mp.qp: the factors 1 - a q^n while |a q^n| > 0.01,
    then the rest as exp(-sum_k w^k / (k (1 - q^k))) at w = a q^n (Gasper &
    Rahman, section 1.3), whose twelve terms leave a remainder below 1e-22."""
    m = max(0, math.ceil(math.log(0.01 / abs(a)) / math.log(abs(q))))
    with mp.workdps(30):
        q, w, head = mp.mpc(q), mp.mpc(a), mp.mpc(1)
        for _ in range(m):
            head *= 1 - w
            w *= q
        s, wk, qk = mp.mpc(0), w, q
        for k in range(1, 13):
            s += wk / (k * (1 - qk))
            wk *= w
            qk *= q
        return head * mp.exp(-s)


def mp_qp_split(a, q):
    """:func:`mp_qp_mpc` rounded to a complex."""
    return complex(mp_qp_mpc(a, q))


def streak_product(avals, q, tr):
    """(a_1..a_m; q)_inf by the plain streak rule: the reference for the
    closed-form factor count.  Returns (value, factors consumed)."""
    prod = 1 + 0j
    qn = 1 + 0j
    small = 0
    n = 0
    while small < qcore._STREAK:
        mag = 0.0
        for av in avals:
            f = av * qn
            prod *= 1 - f
            mag = max(mag, abs(f))
        small = small + 1 if mag < tr.eps else 0
        qn *= q
        n += 1
        if n > tr.n_max:
            raise TruncationExceeded("reference loop exceeded n_max")
    return prod, n * len(avals)


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


annulus_points = st.builds(
    cmath.rect,
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
)


class TestQModulus:
    def test_accepts_interior(self):
        qm = QModulus(0.5)
        assert qm.q == 0.5 + 0j
        assert qm.q2 == 0.25 + 0j
        assert abs(qm.p * qm.p - qm.q) <= 2e-16

    def test_complex_base(self):
        qm = QModulus(0.3 + 0.2j)
        assert abs(qm.q2) < abs(qm.q) < 1
        assert qm.sqrt().q == cmath.sqrt(0.3 + 0.2j)

    @pytest.mark.parametrize("bad", [0, 1, -1, 1.2, 2j, cmath.exp(0.4j)])
    def test_rejects_outside(self, bad):
        with pytest.raises(ValueError):
            QModulus(bad)

    def test_derived_base_objects(self):
        qm = QModulus(0.8)
        assert qm.squared().q == pytest.approx(0.64)
        assert qm.sqrt().q == pytest.approx(math.sqrt(0.8))

    def test_as_modulus_passthrough(self):
        qm = QModulus(0.4)
        assert as_modulus(qm) is qm
        assert as_modulus(0.4).q == qm.q

    def test_pole_spirals_formed_once(self):
        qm = QModulus(0.4)
        poles, exact = qm._pole_spiral(), qm._exact_pole_spiral()
        assert poles is qm._pole_spiral() and exact is qm._exact_pole_spiral()
        assert poles == Spiral(1 + 0j, qm)
        assert exact == Spiral(1 + 0j, qm, _EXACT_TOL)
        # not fields: equality, hash and repr still depend on q alone
        assert qm == QModulus(0.4) and hash(qm) == hash(QModulus(0.4))
        assert repr(qm) == repr(QModulus(0.4))


class TestTruncation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"eps": 0},
            {"eps": -1e-3},
            {"eps": 1},
            {"eps": 30},
            {"eps": math.inf},
            {"n_max": 0},
            {"n_max": 2.5},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            Truncation(**kw)

    def test_log_eps_is_kept_beside_eps(self):
        tr = Truncation(eps=1e-12)
        assert tr._log_eps == math.log(1e-12)
        assert dataclasses.replace(tr, eps=1e-10)._log_eps == math.log(1e-10)
        # not a field: equality, hash and repr read eps alone
        names = [f.name for f in dataclasses.fields(Truncation)]
        assert names == ["eps", "n_max", "log"]
        assert tr == Truncation(eps=1e-12) and hash(tr) == hash(Truncation(eps=1e-12))
        assert "_log_eps" not in repr(tr)

    def test_term_log_counts(self):
        log = TermLog()
        tr = Truncation(log=log)
        qpochhammer_inf(0.5, 0.5, tr)
        assert log.terms > 10

    # the one n_max rule of every series and spiral sum: a tail may take
    # n_max terms, so the smallest accepted n_max is its longest tail's length
    @pytest.mark.parametrize(
        "call, smallest, what",
        [
            (lambda tr: theta_sum(0.5, 1.3 + 0.2j, tr), 13, "theta upper tail"),
            (lambda tr: rphis((0.3,), (0.2,), 0.5, 1.3 + 0.2j, tr), 14, "r_phi_s series tail"),
            # terminating at degree 9: the series ends after its 10 terms
            (lambda tr: rphis((0.5**-9,), (0.2,), 0.5, 1.3 + 0.2j, tr), 10, "r_phi_s series tail"),
            (lambda tr: ramanujan_Aq(0.5, 1.3 + 0.2j, tr), 11, "A_q series tail"),
            # phi(s) = 1 + s resums to 1 + x; at x = 1e-12 the spiral's upper
            # tail, not the product of its theta, is the longest loop
            (
                lambda tr: qlaplace_plus(lambda s: 1 + s, 0.3, 0.7, 1e-12, tr),
                35,
                "spiral sum upper tail",
            ),
        ],
        ids=["theta_sum", "rphis", "rphis-terminating", "ramanujan_Aq", "qlaplace_plus"],
    )
    def test_smallest_accepted_n_max(self, call, smallest, what):
        call(Truncation(n_max=smallest))
        msg = f"^{what} not below eps=1e-15 after n_max={smallest - 1} terms$"
        with pytest.raises(TruncationExceeded, match=msg):
            call(Truncation(n_max=smallest - 1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: theta_sum(0.5, 1e300),
            lambda: theta_sum(0.5, 1e-300),
            lambda: rphis((0.3,), (0.2,), 0.5, 1e14),
            lambda: ramanujan_Aq(0.5, 1e300),
        ],
    )
    def test_overflowing_sum_is_domain_error(self, call):
        # terms that overflow to inf and nan
        with pytest.raises(DomainError, match="out of double range: the sum overflows"):
            call()

    @pytest.mark.parametrize("bad", [math.inf, complex(math.inf, math.nan), complex(math.nan, 0)])
    def test_tail_stops_at_the_first_non_finite_terms(self, bad):
        drawn = []

        def terms():
            while True:
                drawn.append(bad)
                yield bad

        with pytest.raises(DomainError, match="out of double range"):
            _sum_tail(terms(), DEFAULT_TRUNCATION, 1 + 0j, 1.0, 1.0, 3, "endless tail")
        assert len(drawn) <= 3


class TestSpiral:
    def test_contains_spiral_points(self, qmod):
        sp = Spiral(0.7 + 0.2j, qmod)
        for k in range(-6, 7):
            assert sp.contains((0.7 + 0.2j) * qmod.q**k)

    def test_rejects_off_spiral(self, qmod):
        sp = Spiral(0.7, qmod)
        assert not sp.contains(0.7 * qmod.q**2 * cmath.exp(0.3j))
        assert not sp.contains(0.7 * 1.01)

    def test_zero_anchor_rejected(self):
        with pytest.raises(ValueError):
            Spiral(0, as_modulus(0.5))

    def test_zero_point_far(self):
        assert not Spiral(1, as_modulus(0.5)).contains(0)

    def test_nearest_exponent(self):
        sp = Spiral(1, as_modulus(0.5))
        k, d = sp.nearest(0.5**-4 * 1.0000001)
        assert k == -4 and d < 1e-6

    @pytest.mark.parametrize("x", [math.nan, math.inf, complex(0.3, math.nan)])
    def test_non_finite_point_is_domain_error(self, x):
        with pytest.raises(DomainError, match="finite"):
            Spiral(1, as_modulus(0.5)).nearest(x)

    @pytest.mark.parametrize("delta", [DEFAULT_PROXIMITY, _EXACT_TOL])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.6 * cmath.exp(2.1j)])
    def test_half_hit_is_the_full_scan(self, q, delta):
        # half_hit returns None without a scan well inside |anchor|; the full
        # scan is nearest() and its threshold, for every x
        def full_scan(sp, x):
            k, d = sp.nearest(x)
            return k if d < sp.delta and k <= 0 else None

        qm = QModulus(q)
        rng = random.Random(f"half-hit-{q}-{delta}")
        for anchor in (1, -1, 0.9 * cmath.exp(0.3j), qm.q**-2):
            sp = Spiral(anchor, qm, delta)
            ra = abs(anchor)
            xs = [0, 0j, ra * (1 - 2 * delta), ra * (1 - 2 * delta) * 1j, ra, -ra]
            # spiral points moved by 0.3, 1 or 3 delta; moduli over four
            # decades; moduli around the early return's threshold
            xs += [
                anchor * qm.q**k * (1 + rng.choice((0.3, 1, 3)) * delta * rng.uniform(-1, 1))
                for k in range(-4, 5)
            ]
            xs += [ra * point(rng, -3, 1) for _ in range(60)]
            xs += [
                cmath.rect(ra * (1 - 2 * delta * rng.uniform(0.5, 2)), rng.uniform(-3.2, 3.2))
                for _ in range(20)
            ]
            for x in xs:
                assert sp.half_hit(x) == full_scan(sp, x), (anchor, x)
            for x in (math.nan, math.inf, complex(0.3, math.nan), complex(-math.inf, 0.2), BIG):
                with pytest.raises(DomainError):
                    full_scan(sp, x)
                with pytest.raises(DomainError):
                    sp.half_hit(x)


class TestQPochhammerN:
    def test_empty_product(self):
        assert qpochhammer_n(123 + 4j, 0.5, 0) == 1

    def test_vanishing_factor(self):
        # (1 - a q) = 0 at a=2, q=0.5
        assert qpochhammer_n(2, 0.5, 2) == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            qpochhammer_n(0.5, 0.5, -1)

    def test_three_term_product(self):
        # (0.5)(0.75)(0.875)
        assert qpochhammer_n(0.5, 0.5, 3) == pytest.approx(0.328125, abs=0)

    @pytest.mark.parametrize("a", [0.3 - 0.8j, 2.5, -4])
    def test_matches_mpmath(self, qmod, a):
        assert rel_err(qpochhammer_n(a, qmod, 7), mp_qp(a, qmod.q, 7)) < 1e-13


class TestQPochhammerInf:
    def test_zero_argument(self, qmod):
        assert qpochhammer_inf(0, qmod) == 1

    @pytest.mark.parametrize("empty", [[], ()])
    def test_no_arguments_is_the_empty_product(self, qmod, empty):
        log = TermLog()
        assert qpochhammer_inf(empty, qmod, Truncation(log=log)) == 1
        assert log.terms == 0

    def test_unit_argument(self, qmod):
        assert qpochhammer_inf(1, qmod) == 0

    def test_direct_product_oracle(self):
        # partial product with 200 factors; tail below 2^-200
        want = 1 + 0j
        for j in range(200):
            want *= 1 - 0.5 * 0.5**j
        assert rel_err(qpochhammer_inf(0.5, 0.5), want) < 1e-15

    def test_multi_argument_folds(self, qmod):
        single = qpochhammer_inf(0.3, qmod) * qpochhammer_inf(-0.4 + 0.1j, qmod)
        assert rel_err(qpochhammer_inf((0.3, -0.4 + 0.1j), qmod), single) < 1e-14

    def test_truncation_exceeded(self):
        with pytest.raises(TruncationExceeded):
            qpochhammer_inf(0.9, 0.99, Truncation(eps=1e-15, n_max=20))

    @pytest.mark.parametrize("a", [2 - 1j, -3.5, 0.9j])
    def test_matches_mpmath(self, qmod, a):
        assert rel_err(qpochhammer_inf(a, qmod), mp_qp(a, qmod.q)) < 1e-13

    def test_complex_base(self):
        qm = as_modulus(0.4 + 0.3j)
        assert rel_err(qpochhammer_inf(1.5 - 2j, qm), mp_qp(1.5 - 2j, qm.q)) < 1e-13

    @pytest.mark.parametrize(
        "a", [math.nan, math.inf, complex(0.5, math.nan), (0.3, -math.inf), (math.nan, 0.2)]
    )
    def test_non_finite_argument_rejected(self, a):
        with pytest.raises(DomainError, match="finite"):
            qpochhammer_inf(a, 0.5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: qpochhammer_inf(-1e14, 0.5),
            lambda: qpochhammer_inf((0.3, -1e14), 0.5),
            lambda: E_exp(0.5, 1e14),
            lambda: e_exp(0.5, 1e20 + 0.1j),
        ],
    )
    def test_overflowing_product_is_domain_error(self, call):
        # finite arguments whose product leaves double range (it was nan+nanj)
        with pytest.raises(DomainError, match="out of double range"):
            call()

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.8, 0.95, 0.99, 0.6 * cmath.exp(2.1j)])
    def test_matches_streak_rule_bit_for_bit(self, q):
        # two to four arguments: the plain loop of the streak rule (one
        # argument takes the split: TestOneArgumentProduct)
        rng = random.Random(f"qpoch-{q}")
        qm = as_modulus(q)
        for _ in range(60):
            avals = tuple(
                0j
                if rng.random() < 0.15
                else cmath.rect(10 ** rng.uniform(-18, 12), rng.uniform(-math.pi, math.pi))
                for _ in range(rng.randint(2, 4))
            )
            want, factors = streak_product(avals, qm.q, DEFAULT_TRUNCATION)
            log = TermLog()
            # n_max one below the reference's factor rows must raise; equal to it, not
            rows = factors // len(avals)
            with pytest.raises(TruncationExceeded):
                qpochhammer_inf(avals, qm, Truncation(n_max=rows - 1))
            if not cmath.isfinite(want):
                # a product that overflows is a DomainError, not nan+nanj
                for tr in (Truncation(log=log), Truncation(n_max=rows)):
                    with pytest.raises(DomainError, match="out of double range"):
                        qpochhammer_inf(avals, qm, tr)
                continue
            got = qpochhammer_inf(avals, qm, Truncation(log=log))
            assert bits(got) == bits(want)
            assert log.terms == factors
            assert bits(qpochhammer_inf(avals, qm, Truncation(n_max=rows))) == bits(want)

    @pytest.mark.parametrize("n_max", [1, 2, 5, 17, 40])
    def test_truncation_exceeded_where_streak_rule_raises(self, n_max):
        # two arguments, the plain loop
        rng = random.Random(n_max)
        for _ in range(40):
            q = rng.choice((0.05, 0.5, 0.8, 0.95, 0.99))
            avals = tuple(
                cmath.rect(10 ** rng.uniform(-18, 12), rng.uniform(-math.pi, math.pi))
                for _ in range(2)
            )
            tr = Truncation(n_max=n_max)
            try:
                want = bits(streak_product(avals, q, tr)[0])
            except TruncationExceeded:
                with pytest.raises(TruncationExceeded):
                    qpochhammer_inf(avals, q, tr)
            else:
                assert bits(qpochhammer_inf(avals, q, tr)) == want

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95, 0.99, 0.6 * cmath.exp(2.1j)])
    def test_closed_form_count_at_the_eps_boundary(self, q):
        # max|a| |q^n| within a few ulp of eps, on both sides: the count in
        # closed form is the streak rule's, with its bits, and n_max one
        # below it raises while n_max equal to it does not (two arguments,
        # the plain loop)
        qm = QModulus(q)
        straddled = False
        for n in (1, 2, 7, 30, 200):
            amax = DEFAULT_TRUNCATION.eps / abs(qm._powers_to(n + 1)[n])
            if amax > 1e10:  # the product would overflow
                continue
            for _ in range(4):
                amax = math.nextafter(amax, 0.0)
            rows_seen = set()
            for _ in range(9):
                for avals in ((complex(amax), cmath.rect(amax, -2.3)), (cmath.rect(amax, 0.7), 0j)):
                    log = TermLog()
                    tr = Truncation(log=log)
                    want, factors = streak_product(avals, qm.q, tr)
                    assert bits(qpochhammer_inf(avals, qm, tr)) == bits(want)
                    assert log.terms == factors
                    rows = factors // len(avals)
                    rows_seen.add(rows)
                    with pytest.raises(TruncationExceeded):
                        qpochhammer_inf(avals, qm, Truncation(n_max=rows - 1))
                    got = qpochhammer_inf(avals, qm, Truncation(n_max=rows))
                    assert bits(got) == bits(want)
                amax = math.nextafter(amax, math.inf)
            straddled = straddled or len(rows_seen) > 1
        # the ulp steps crossed eps for at least one n: both sides were tested
        assert straddled

    @pytest.mark.parametrize("q", [0.3, 0.8, 0.6 * cmath.exp(2.1j)])
    def test_term_log_leaves_values_alone(self, q):
        # the counts go straight into log.terms: with and without a log, the
        # evaluators give the same bits
        rng = random.Random(f"log-{q}")
        qm = QModulus(q)
        plain, logged = Truncation(), Truncation(log=TermLog())
        for _ in range(20):
            a, b = point(rng, -3, 3), point(rng, -3, 3)
            x, tau, t = point(rng, -2, 2), point(rng, -1, 0), point(rng, -0.5, 0.6)
            for fn in (
                lambda tr: qpochhammer_inf(a, qm, tr),
                lambda tr: qpochhammer_inf((a, b, x), qm, tr),
                lambda tr: theta(qm, x, tr),
                lambda tr: g_borel_image(qm, tau, tr),
                lambda tr: qlaplace_minus(lambda s: g_borel_image(qm, s, tr), qm, t, trunc=tr),
            ):
                assert bits(fn(plain)) == bits(fn(logged))
        assert logged.log.terms > 0


def split_plan(a, q, eps=DEFAULT_TRUNCATION.eps):
    """(M, K) of the one-argument split, from its definition: M leading
    powers to the first with |a| |q|^M <= 0.1, K >= 1 log-series terms to
    the first remainder bound |w|^(K+1) / ((1 - |q|)(1 - 0.1)) below eps/10."""
    aq = abs(q)
    lead = next(m for m in itertools.count() if abs(a) * aq**m <= 0.1)
    w = abs(a) * aq**lead
    tail = next(k for k in itertools.count(1) if w ** (k + 1) / ((1 - aq) * 0.9) < eps / 10)
    return lead, tail


SPLIT_QS = (0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.6 * cmath.exp(2.1j), -0.7 + 0.1j)


class TestOneArgumentProduct:
    # one argument, at every base: the leading factors with |a q^n| > 0.1
    # times exp(-S), S the first K >= 1 terms of log (w;q)_inf at w = a q^M

    @pytest.mark.parametrize("q", SPLIT_QS)
    def test_matches_mpmath(self, q):
        # |a| from 1e-18 to 1e12: a few ulp per power taken, plus the tail
        # the plain loop drops below eps; fewer draws where the reference
        # takes thousands of factors
        qm = QModulus(q)
        rng = random.Random(f"split-{q}")
        for _ in range({0.95: 16, 0.99: 8}.get(q, 40)):
            a = point(rng, -18, 12)
            want = mp_qp_long(a, qm.q)
            log = TermLog()
            try:
                got = qpochhammer_inf(a, qm, Truncation(log=log))
            except DomainError:
                assert abs(want) > 1e300  # the product overflows on its way
                continue
            tol = 4 * 2**-52 * log.terms + min(abs(a), 1e-15) / (1 - abs(qm.q))
            assert abs(got - want) <= tol * abs(want), (a, got)

    @pytest.mark.parametrize("q, limit", [(0.8, 1e-15), (0.95, 5e-15)])
    def test_median_error(self, q, limit):
        # the leading factors are fewer than the streak rule's, so fewer
        # roundings of the drifting table of powers enter the product
        rng = random.Random(f"median-{q}")
        errs = sorted(
            float(abs(qpochhammer_inf(a, q) - want) / abs(want))
            for a, want in (
                (a, mp_qp_long(a, q))
                for a in (point(rng, -1, 1) for _ in range(40))
            )
        )
        assert (errs[19] + errs[20]) / 2 <= limit

    @pytest.mark.parametrize("q", SPLIT_QS + (0.05, 0.01))
    def test_counts_and_n_max(self, q):
        # TermLog counts M + K at every base, also at small ones, where the
        # streak rule's n can be fewer; n_max caps exactly the powers taken
        qm = QModulus(q)
        rng = random.Random(f"count-{q}")
        for _ in range(40):
            a = point(rng, -18, 3)
            lead, tail = split_plan(a, qm.q)
            log = TermLog()
            try:
                got = qpochhammer_inf(a, qm, Truncation(log=log))
            except DomainError:
                continue  # out of double range: TestQPochhammerInf
            assert log.terms == lead + tail
            taken = log.terms
            assert bits(qpochhammer_inf(a, qm, Truncation(n_max=taken))) == bits(got)
            if taken > 1:
                with pytest.raises(TruncationExceeded):
                    qpochhammer_inf(a, qm, Truncation(n_max=taken - 1))

    @pytest.mark.parametrize("q", [0.5, 0.99, 0.6 * cmath.exp(2.1j)])
    @pytest.mark.parametrize(
        "a", [1e-18j, -3e-17 + 1e-18j, 1e-14, 1e-14j, -3e-15, 2e-13 * cmath.exp(0.4j)]
    )
    def test_tiny_argument_keeps_its_first_order_term(self, q, a):
        # the split sums K >= 1 terms, so (a;q)_inf = 1 - a/(1 - q) + ...
        # keeps its first-order term, imaginary part and all; below eps too
        qm = QModulus(q)
        want = complex(mp_qp_long(a, qm.q))
        got = qpochhammer_inf(a, qm)
        assert got != 1
        assert abs(got.imag - want.imag) <= 1e-12 * abs(want.imag)
        assert rel_err(got, want) < 2e-16

    @pytest.mark.parametrize("q", [1e-60, 1e-100, 1e-155, 1e-200, 1e-300, 1e-200j])
    @pytest.mark.parametrize("a", [1e-300, 1e-100, 0.37 + 0.21j, 3e100 + 1e99j, 3e150j, 3e300])
    def test_edge_of_double_range(self, q, a):
        # at a tiny base the split's w = a q^M may underflow to 0: the value
        # still agrees with mpmath, or the product overflows (DomainError)
        want = mp_qp_long(a, q)
        if not abs(want) < 1e308:
            with pytest.raises(DomainError, match="out of double range"):
                qpochhammer_inf(a, q)
        else:
            assert rel_err(qpochhammer_inf(a, q), complex(want)) < 1e-15

    @pytest.mark.parametrize(
        "fn, want",
        [
            (lambda: theta(0.997, 1.3), lambda: mp_theta_long(0.997, 1.3)),
            (
                lambda: e_exp(0.997, 1.3 + 0.2j, mode="product"),
                lambda: 1 / mp_qp_long(1.3 + 0.2j, 0.997),
            ),
            (lambda: E_exp(0.997, 1.3, mode="product"), lambda: mp_qp_long(-1.3, 0.997)),
            (lambda: qpochhammer_inf(0.997, 0.997), lambda: mp_qp_long(0.997, 0.997)),
        ],
    )
    def test_n_max_caps_the_powers_taken(self, fn, want):
        # the streak rule would take about 11 500 powers, above the default
        # n_max = 10 000; the split takes fewer than 900
        assert rel_err(fn(), complex(want())) < 1e-12

    def test_n_max_counts_the_powers_of_either_plan(self):
        # two arguments take the plain loop, whose n is above n_max at q = 0.997
        with pytest.raises(TruncationExceeded):
            qpochhammer_inf((0.997, 1.3), 0.997)
        # one argument takes the split also at a small base, where its
        # M + K is more than the streak rule's n; M + K counts against n_max
        a, q = 9.9, 0.01  # |a q| just below 0.1: K = 16
        lead, tail = split_plan(a, q)
        _, n = streak_product((a,), q, DEFAULT_TRUNCATION)
        assert lead + tail > n
        log = TermLog()
        got = qpochhammer_inf(a, q, Truncation(log=log))
        assert rel_err(got, complex(mp_qp_long(a, q))) < 2e-16
        assert log.terms == lead + tail
        assert qpochhammer_inf(a, q, Truncation(n_max=lead + tail)) == got
        with pytest.raises(TruncationExceeded):
            qpochhammer_inf(a, q, Truncation(n_max=lead + tail - 1))

    @pytest.mark.parametrize("q", [0.999999, 1 - 1e-9])
    @pytest.mark.parametrize(
        "fn",
        [
            lambda qm: qpochhammer_inf(0.5, qm),
            lambda qm: theta(qm, 1.0),
            lambda qm: e_exp(qm, 1.3 + 0.2j, mode="product"),
            lambda qm: E_exp(qm, 1.3, mode="product"),
        ],
    )
    def test_n_max_is_checked_before_the_tables_grow(self, q, fn):
        # M alone is about 2.3 / (1 - q) powers (2.3e9 at 1 - 1e-9): the plan
        # raises before the table of powers or of coefficients grows to it
        qm = QModulus(q)
        with pytest.raises(TruncationExceeded):
            fn(qm)
        assert len(qm._powers) <= DEFAULT_TRUNCATION.n_max + 2
        assert len(qm._log_coeffs) <= DEFAULT_TRUNCATION.n_max

    @pytest.mark.parametrize(
        "fn",
        [
            lambda: qpochhammer_inf(0.998, 0.998),  # (q;q)_inf ~ 8e-356
            lambda: qpochhammer_inf(0.5, 0.9995),  # ~ 2e-506
            lambda: qpochhammer_inf(0.99, 0.9978),  # subnormal, ~ 5e-315
            lambda: e_exp(0.9995, 0.5, mode="product"),
            lambda: g_borel_image(0.9995, 0.9),
            lambda: theta(0.998, 1.3),
        ],
    )
    def test_underflowed_product_is_domain_error(self, fn):
        # below the normal double range with no exactly zero factor, the
        # product has lost its digits; a caller dividing by a zero there would
        # raise ZeroDivisionError
        with pytest.raises(DomainError, match="underflows"):
            fn()

    @pytest.mark.parametrize("a, q", [(1.0, 0.998), (8.0, 0.5), ((0.3, 8.0), 0.5)])
    def test_exact_zero_factor_stays_zero(self, a, q):
        assert qpochhammer_inf(a, q) == 0


class TestShiftedPoleContinuation:
    def test_k_zero_reduces_to_reciprocal(self, qmod):
        lhs = qpochhammer_inf_shifted_pole(0.35, qmod, 0)
        assert rel_err(lhs, 1 / qpochhammer_inf(0.35, qmod)) < 1e-14

    @pytest.mark.parametrize("lam", [0.35, 2 * cmath.exp(0.7j)])
    @pytest.mark.parametrize("k", range(9))
    def test_matches_defining_product(self, qmod, lam, k):
        # the defining product still converges at lam q^-k
        direct = 1 / qpochhammer_inf(lam * qmod.q**-k, qmod)
        closed = qpochhammer_inf_shifted_pole(lam, qmod, k)
        assert rel_err(closed, direct) < 1e-10

    def test_rejects_lambda_on_spiral(self, qmod):
        with pytest.raises(SpiralProximity):
            qpochhammer_inf_shifted_pole(qmod.q**2, qmod, 3)
        with pytest.raises(SpiralProximity):
            qpochhammer_inf_shifted_pole(1.0, qmod, 1)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            qpochhammer_inf_shifted_pole(0.3, 0.5, -1)

    @pytest.mark.parametrize("lam", [0.35, 2 * cmath.exp(0.7j)])
    def test_per_lambda_form_is_the_public_call(self, qmod, lam):
        log, want_log = TermLog(), TermLog()
        at = _shifted_pole_at(lam, qmod, Truncation(log=log))
        for k in range(9):
            want = qpochhammer_inf_shifted_pole(lam, qmod, k, Truncation(log=want_log))
            assert bits(at(k)) == bits(want)
        # (lambda; q)_inf once, not once per k
        one = TermLog()
        qpochhammer_inf(lam, qmod, Truncation(log=one))
        assert log.terms == want_log.terms - 8 * one.terms


class TestThetaProduct:
    """qde-theta's reference: (q;q)_inf, (-x;q)_inf and (-q/x;q)_inf, each
    by the one-argument split."""

    @pytest.mark.parametrize("q", [0.3, 0.8, 0.95, 0.995])
    def test_no_less_accurate_than_the_streak_rule(self, q):
        rng = random.Random(f"theta-product-{q}")
        split, streak = [], []
        for _ in range(24):
            x = cmath.rect(10 ** rng.uniform(math.log10(0.15), math.log10(8)), rng.uniform(-3, 3))
            try:
                got = theta_product(q, x)
                old = qpochhammer_inf((q, -x, -q / x), q)
            except DomainError:  # theta underflows (q = 0.995, x near the negative axis)
                continue
            with mp.workdps(30):
                ref = mp_qp_mpc(q, q) * mp_qp_mpc(-x, q) * mp_qp_mpc(-q / x, q)
                split.append(float(abs(got - ref) / abs(ref)))
                streak.append(float(abs(old - ref) / abs(ref)))
        assert len(split) >= 20
        assert statistics.median(split) <= statistics.median(streak)
        assert max(split) < 2e-13

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_zero_spiral_stays_exact(self, k):
        # the factor 1 + x q^n, or 1 + (q/x) q^n, that vanishes at x = -q^k
        # has modulus 1 and is multiplied, not summed in the log-series
        assert theta_product(0.5, -(0.5**k)) == 0
        assert theta_product(0.5, -((0.5 + 0j) ** k)) == 0

    @pytest.mark.parametrize("x", [1, cmath.exp(0.7j), 1.1 + 0.3j, 0.5, 2, 8])
    def test_counts_the_split_of_each_argument(self, x):
        q = 0.8
        log, streak_log = TermLog(), TermLog()
        theta_product(q, x, Truncation(log=log))
        qpochhammer_inf((q, -x, -q / x), q, Truncation(log=streak_log))
        want = 0
        for a in (q, -x, -q / x):
            one = TermLog()
            qpochhammer_inf(a, q, Truncation(log=one))
            want += one.terms
        assert log.terms == want <= 77
        assert streak_log.terms >= 474


class TestTheta:
    def test_zero_argument_rejected(self, qmod):
        with pytest.raises(ZeroArgument):
            theta(qmod, 0)

    @pytest.mark.parametrize("k", range(-3, 5))
    def test_zero_spiral(self, qmod, k):
        # zeros exactly on -q^Z
        val = theta(qmod, -qmod.q**k)
        assert abs(val) < 1e-13

    def test_sum_equals_product(self, qmod):
        for x in (2 + 0.3j, -0.7 + 1.1j, 0.45, 3.9j):
            s, cond = theta_sum_with_condition(qmod, x)
            p = theta_product(qmod, x)
            assert rel_err(s, p) < 1e-12 * max(cond, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(x=annulus_points)
    def test_sum_product_mutual_oracle(self, x):
        qm = as_modulus(0.5)
        assume(Spiral(-1, qm, 1e-3).distance(x) > 1e-3)
        s, cond = theta_sum_with_condition(qm, x)
        p = theta(qm, x)
        assert rel_err(s, p) < 1e-12 * max(cond, 1.0)

    def test_matches_mpmath(self, qmod):
        for x in (1.3 + 0.4j, -2.5 + 0.2j, 0.08 + 0.03j, 40 - 5j):
            assert rel_err(theta(qmod, x), mp_theta(qmod.q, x)) < 5e-13

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_shift_law(self, qmod, k):
        # theta(q^k x) = q^(-k(k-1)/2) x^-k theta(x), both sides by bilateral sum
        x = 1.3 + 0.4j
        lhs = theta_sum(qmod, qmod.q**k * x)
        rhs = qmod.q ** (-k * (k - 1) // 2) * x**-k * theta_sum(qmod, x)
        assert rel_err(lhs, rhs) < 1e-12

    def test_inversion(self, qmod):
        for x in (1.7 - 0.6j, 0.4 + 0.2j):
            assert rel_err(theta(qmod, 1 / x), theta(qmod, x) / x) < 1e-13

    def test_renormalized_far_values(self, qmod):
        # auto renormalization agrees with the direct bilateral sum
        for x in (30 + 7j, 0.011 - 0.004j):
            s, cond = theta_sum_with_condition(qmod, x)
            assert rel_err(theta(qmod, x), s) < 1e-11 * max(cond, 1.0)

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.8, 0.95])
    def test_setup_takes_q_q_infinity_past_the_public_checks(self, q, monkeypatch):
        # the set-up's (q;q)_inf is the one-argument product itself: the same
        # bits and TermLog count as the public call, without that call
        x = 1.3 - 0.4j
        log = TermLog()
        want = theta(QModulus(q), x, Truncation(log=log))
        qq_log = TermLog()
        qpochhammer_inf(q, QModulus(q), Truncation(log=qq_log))
        m, k = qcore._split_plan(max(abs(x), q / abs(x)), QModulus(q), DEFAULT_TRUNCATION)
        assert log.terms == qq_log.terms + 2 * (m + k)

        def refuse(*args, **kwargs):
            raise AssertionError("theta called the public qpochhammer_inf")

        monkeypatch.setattr(qcore, "qpochhammer_inf", refuse)
        log2 = TermLog()
        assert bits(theta(QModulus(q), x, Truncation(log=log2))) == bits(want)
        assert log2.terms == log.terms

    def test_setup_keeps_the_underflow_of_q_q_infinity(self):
        with pytest.raises(DomainError, match=r"a=\(0\.998\+0j\) .* the product underflows"):
            theta(0.998, 0.5 + 0.5j)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_argument_rejected(self, x):
        with pytest.raises(DomainError, match="finite"):
            theta(0.5, x)

    @pytest.mark.parametrize("x", [1e300, 1e-300, -1e300j])
    def test_shift_law_overflow_is_domain_error(self, x):
        with pytest.raises(DomainError, match="out of double range"):
            theta(0.5, x)

    @pytest.mark.parametrize(
        "q, x",
        [
            (0.995, -0.7 + 0.05j),  # it returned -0j
            (0.997, -(0.997**2) * (2.0135 + 0.2084j)),  # about 1e-630, it returned 0j
            (0.997, -2.0),
            (0.997, -1.0000005),  # about -2.3e-715, 5e-7 from the zero -1
        ],
    )
    def test_underflowed_value_is_domain_error(self, q, x):
        # the rule of qpochhammer_inf: below the normal double range with no
        # exactly zero factor, theta has lost its digits, and callers divide
        # by it
        with pytest.raises(DomainError, match="theta_q\\(x\\) underflows"):
            theta(q, x)

    @pytest.mark.parametrize("q", [0.995, 0.997])
    @pytest.mark.parametrize("x", [lambda q: -1.0, lambda q: -q])
    def test_exact_zero_factor_stays_zero_where_values_underflow(self, q, x):
        # 1 + x0 q^0 = 0 at x = -1, and 1 + (q/x0) q^0 = 0 at x = -q
        assert theta(q, x(q)) == 0

    @pytest.mark.parametrize("x", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_sum_rejects_non_finite_argument_up_front(self, x):
        log = TermLog()
        with pytest.raises(DomainError, match="finite"):
            theta_sum_with_condition(0.5, x, Truncation(log=log))
        assert log.terms == 0


def mp_theta_sum(q, x):
    """theta_q(x) by its bilateral sum over |n| <= 150 at 40 digits, each
    term from the last by its ratio (q^n x upward, q^m / x downward): no
    shift law enters the reference."""
    with mp.workdps(40):
        q, x = mp.mpc(q), mp.mpc(x)
        total = up = down = qn = mp.mpc(1)
        for _ in range(150):
            up *= qn * x
            qn *= q
            down *= qn / x
            total += up + down
        return complex(total)


FAR_QS = (0.3, 0.5, 0.6 * cmath.exp(2.1j))


class TestThetaFarFromUnitCircle:
    """theta where the bare powers q^(k(k-1)/2) and x^k of the shift law
    leave double range (from about |x| = 4e9 at q = 0.5) but theta does not."""

    # at |q| = 0.6 theta itself leaves double range before |x| = 1e12
    @pytest.mark.parametrize(
        "q, r",
        [(q, r) for q in FAR_QS for r in (1e9, 5e9, 1e11, 1e12) if abs(q) < 0.6 or r < 1e12],
        ids=lambda v: f"{v:.3g}",
    )
    @pytest.mark.parametrize("angle", [0.0, 2.0])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_matches_mpmath(self, q, r, angle, mirrored):
        x = cmath.exp(1j * angle) * (1 / r if mirrored else r)
        # a complex q takes its powers q^n, n >= 100, through the polar
        # form (the bare shift law is 1.4e-13 off at |x| = 1e9 already), and
        # x0^k carries k times the rounding of x0 = q^k x: up to 3.2e-13
        tol = 1e-13 if isinstance(q, float) else 5e-13
        assert rel_err(theta(q, x), mp_theta_sum(q, x)) < tol

    def test_half_at_5e9(self):
        assert rel_err(theta(0.5, 5e9), mp_theta_sum(0.5, 5e9)) < 1e-13

    @pytest.mark.parametrize("q, x", [(0.5, 1e9), (0.5, 1.3e-9 + 2e-10j), (0.3, -2e8j)])
    def test_bare_shift_law_kept_where_it_fits(self, q, x):
        # the bare powers q^(k(k-1)/2) x^k scale the kernel's product here;
        # theta is within a tenth of the a-priori rounding bound of 34 digits
        got = theta(q, x)
        assert decimal_rel_err(got, decimal_theta(q, x)) < 0.1 * theta_rounding_bound(q, x)

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.8, 0.95, 0.6 * cmath.exp(2.1j)])
    def test_single_points_against_34_digits(self, q):
        # |x| from 1e-9 to 1e9 on both sides of the annulus [0.2, 5]: within a
        # tenth of the a-priori bound, or a DomainError where theta_q(x)
        # itself leaves double range (at once where its largest term,
        # q^(n(n-1)/2) x^n, is above 1e310, off the zeros)
        rng = random.Random(f"single-{q}")
        log_q = math.log(abs(q))
        for e in range(-18, 19):
            x = cmath.rect(10 ** (e / 2), rng.uniform(-math.pi, math.pi))
            n = round(0.5 - math.log(abs(x)) / log_q)
            if (n * (n - 1) / 2 * log_q + n * math.log(abs(x))) / math.log(10) > 310:
                with pytest.raises(DomainError, match="out of double range"):
                    theta(q, x)
                continue
            exact = decimal_theta(q, x)
            if (exact[0] ** 2 + exact[1] ** 2).sqrt() > Decimal("1.7e308"):
                with pytest.raises(DomainError, match="out of double range"):
                    theta(q, x)
                continue
            got = theta(q, x)
            assert decimal_rel_err(got, exact) < 0.1 * theta_rounding_bound(q, x)

    @pytest.mark.parametrize(
        "q, x", [(0.5, 3e10 + 1e10j), (0.3, -1.3159718445627704e16 + 2.875450939299445e16j)]
    )
    def test_was_nan_where_x_to_the_k_overflowed_to_nan(self, q, x):
        assert rel_err(theta(q, x), mp_theta_sum(q, x)) < 1e-13

    @pytest.mark.parametrize("q, x", [
        (0.5, 2.95e13),  # the factor fits, the factor times the product does not
        (0.5, 1.7e-14),
    ])
    def test_value_out_of_range_is_domain_error(self, q, x):
        with pytest.raises(DomainError, match="out of double range"):
            theta(q, x)

    def test_underflowing_power_is_domain_error(self):
        # x^k underflowed to 0 and 0^(-n) raised ZeroDivisionError
        with pytest.raises(DomainError, match="out of double range"):
            theta(0.8, 2e-10 - 1e-10j)


class TestRphis:
    def test_x_zero_is_one(self, qmod):
        assert rphis((0.3, -2), (0.7,), qmod, 0) == 1

    @pytest.mark.parametrize("x", [math.nan, math.inf, complex(0.2, math.nan)])
    def test_non_finite_argument_rejected_up_front(self, x):
        log = TermLog()
        with pytest.raises(DomainError, match="finite"):
            rphis_with_condition((0.3,), (0.7,), 0.5, x, Truncation(log=log))
        assert log.terms == 0

    def test_2phi1_hand_expansion(self):
        # 2phi1(a,b;c;q,x): first four coefficients written out at
        # (a,b,c,q,x) = (-4, 3, 0.5, 0.5, 0.1)
        a, b, c, q, x = -4, 3, 0.5, 0.5, 0.1

        def coeff(n):
            num = den = 1.0
            for j in range(n):
                num *= (1 - a * q**j) * (1 - b * q**j)
                den *= (1 - c * q**j) * (1 - q ** (j + 1))
            return num / den

        partial = sum(coeff(n) * x**n for n in range(4))
        tail = sum(coeff(n) * x**n for n in range(4, 60))
        assert rel_err(rphis((a, b), (c,), 0.5, x), partial + tail) < 1e-14
        # the 4-term expansion already carries most of the value at x=0.1
        assert abs(tail) < 1e-2 * abs(partial)

    def test_1phi1_entire_brute_force(self):
        # 1phi1(0; q; q^2, q^2/x) at q=0.5, x=3
        q, x = 0.5, 3.0
        q2 = q * q
        total = 0.0
        for n in range(80):
            num = (-1) ** n * q2 ** (n * (n - 1) / 2)
            den = 1.0
            for j in range(n):
                den *= (1 - q * q2**j) * (1 - q2 ** (j + 1))
            total += num / den * (q2 / x) ** n
        got = rphis((0j,), (q,), as_modulus(q2), q2 / x)
        assert rel_err(got, total) < 1e-14

    @pytest.mark.parametrize(
        "up,low,x",
        [((0.5,), (2.25,), 4.0), ((), (3,), 0.5), ((1 + 1j,), (2, 3 + 0.5j), 3 + 4j)],
    )
    def test_matches_mpmath_qhyper(self, up, low, x):
        got = rphis(up, low, 0.25, x)
        want = complex(mp.qhyper(list(up), list(low), mp.mpf("0.25"), x))
        assert rel_err(got, want) < 1e-12

    def test_divergent_rejected(self, qmod):
        with pytest.raises(DivergentSeries):
            rphis((0.3, 0.4), (), qmod, 0.1)
        with pytest.raises(DivergentSeries):
            rphis((0j, 0j), (), qmod, -0.1)

    def test_terminating_divergent_allowed(self):
        # upper parameter q^-3 cuts the series at degree 3
        q = 0.5
        a = q**-3
        got = rphis((a, 2), (), as_modulus(q), 0.3)
        total = 0.0
        for n in range(4):
            num = 1.0
            den = 1.0
            for j in range(n):
                num *= (1 - a * q**j) * (1 - 2 * q**j)
                den *= 1 - q ** (j + 1)
            total += num / den * ((-1) ** n * q ** (n * (n - 1) / 2)) ** -1 * 0.3**n
        assert rel_err(got, total) < 1e-13

    def test_closed_tail_counts_against_n_max(self):
        # 2phi1(0.3, 0.2; 0.3; 0.5, 0.9) closes its tail at N = 55: N terms
        # plus the tail; with n_max = N the streak rule alone runs past it
        ups, lows, tr = (0.3, 0.2), (0.3,), DEFAULT_TRUNCATION
        n_close = closed_tail_start(ups, lows, QModulus(0.5), tr)
        assert n_close == 55
        log = TermLog()
        got = rphis(ups, lows, 0.5, 0.9, Truncation(n_max=n_close + 1, log=log))
        assert log.terms == n_close + 1
        assert got == rphis(ups, lows, 0.5, 0.9)
        want = complex(mp.qhyper([0.3, 0.2], [0.3], mp.mpf(0.5), 0.9))
        assert rel_err(got, want) < 1e-15
        with pytest.raises(TruncationExceeded):
            rphis(ups, lows, 0.5, 0.9, Truncation(n_max=n_close))

    def test_outside_radius(self, qmod):
        with pytest.raises(OutsideRadius):
            rphis((0.3, 0.4), (0.6,), qmod, 1.0)

    def test_bad_lower_parameter(self, qmod):
        with pytest.raises(BadLowerParameter):
            rphis((0.3,), (qmod.q**-2,), qmod, 0.1)
        with pytest.raises(BadLowerParameter):
            rphis((0.3,), (1.0,), qmod, 0.1)


def oracle_rphis(ups, lows, qm, x, tr):
    """The r_phi_s term loop that forms each term ratio afresh, as
    rphis_with_condition did before its plans: the oracle of
    :class:`TestSeriesPlan`."""
    ax = _finite_abs(x, "r_phi_s")
    ups = tuple(complex(a) for a in ups)
    lows = tuple(complex(b) for b in lows)
    r, s = len(ups), len(lows)
    d = 1 + s - r
    for b in lows:
        if Spiral(1 + 0j, qm).half_hit(b) is not None:
            raise BadLowerParameter(f"lower parameter {b!r} on q^(-N)")
    if x == 0:
        return 1 + 0j, 1.0
    exact = Spiral(1 + 0j, qm, _EXACT_TOL)
    degrees = [-k for k in map(exact.half_hit, ups) if k is not None]
    term_deg = min(degrees) if degrees else None
    if d < 0 and term_deg is None:
        raise DivergentSeries("r - s > 1")
    if d == 0 and ax >= 1 and term_deg is None:
        raise OutsideRadius("|x| >= 1")
    n_close = -1
    if d == 0 and term_deg is None:
        aq = abs(qm.q)
        c = sum([abs(a) for a in ups]) + sum([abs(b) for b in lows]) + aq
        n_f = (math.log(tr.eps) + math.log((1 - aq) / 10) - math.log(c)) / qm._log_q
        if n_f <= tr.n_max - 1:
            n_close = max(math.ceil(n_f), 0)
    closed = 0.0

    def terms():
        nonlocal closed
        one = 1 + 0j
        pw, t, n = qm._powers, one, 0
        while True:
            if n == n_close:
                tail = t / (1 - x)
                closed = abs(t) / (1 - ax) - abs(tail)
                yield tail
                return
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

    total, abs_sum, _, count = _sum_tail(terms(), tr, 0j, 0.0, 1.0, qcore._STREAK, "series")
    tr.note(count)
    return total, _condition(abs_sum + closed, abs(total))


class TestSeriesPlan:
    """One plan evaluated at many x gives, at each, the bits, condition and
    TermLog count of the loop that forms every term ratio afresh, in any
    order of the x and whether its table is empty, partly or fully grown."""

    @staticmethod
    def _outcome(call, x, log):
        before = log.terms
        try:
            value, cond = call(x)
        except (DivergentSeries, OutsideRadius, TruncationExceeded) as exc:
            return type(exc).__name__, log.terms - before
        return bits(value), cond.hex(), log.terms - before

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.48 + 0.36j])
    def test_matches_the_loop_in_either_order(self, q):
        rng = random.Random(f"plan-{q}")
        qm = QModulus(q)
        families = [
            (2, 1, (-1, 0.1)),  # 2phi1, |x| up to about 1.26: some OutsideRadius
            (1, 1, (-1, 1)),  # 1phi1, entire
            (0, 1, (-1, 1)),  # 0phi1
            (1, 0, (-1, 0)),  # 1phi0, e_q's family, |x| < 1
            (0, 0, (-1, 1)),  # 0phi0
        ]
        evaluated = 0
        for r, s, (lo, hi) in families:
            for _ in range(6):
                ups = tuple(point(rng, -1, 1) for _ in range(r))
                lows = tuple(point(rng, -1, 0.3) for _ in range(s))
                xs = [point(rng, lo, hi) for _ in range(7)] + [0j]
                if r == s + 1:
                    # near the unit circle, where the geometric tail is closed
                    xs.append(cmath.rect(1 - 10 ** rng.uniform(-4, -1), rng.uniform(-3, 3)))
                want_log = TermLog()
                want_tr = Truncation(log=want_log)
                want = [
                    self._outcome(lambda x: oracle_rphis(ups, lows, qm, x, want_tr), x, want_log)
                    for x in xs
                ]
                log = TermLog()
                plan = _SeriesPlan(ups, lows, qm, Truncation(log=log))
                assert [self._outcome(plan, x, log) for x in xs] == want
                # the same plan again, its table grown, in reverse order
                assert [self._outcome(plan, x, log) for x in reversed(xs)] == want[::-1]
                # a new plan whose table grows in reverse order
                log = TermLog()
                plan = _SeriesPlan(ups, lows, qm, Truncation(log=log))
                assert [self._outcome(plan, x, log) for x in reversed(xs)] == want[::-1]
                evaluated += sum(1 for w in want if len(w) == 3)
        assert evaluated >= 200

    def test_terminating_and_divergent(self):
        qm = QModulus(0.5)
        log = TermLog()
        plan = _SeriesPlan((qm.q**-3, 0.3, 0.2), (0.7,), qm, Truncation(log=log))
        for x in (3.0, -0.4j, 0.01):
            want = oracle_rphis((qm.q**-3, 0.3, 0.2), (0.7,), qm, x, DEFAULT_TRUNCATION)
            before = log.terms
            assert plan(x) == want and log.terms - before == 4
        divergent = _SeriesPlan((0.3, 0.2, 0.1), (0.7,), qm, DEFAULT_TRUNCATION)
        assert divergent(0) == (1, 1.0)
        for _ in range(2):  # raised at every x != 0, while x = 0 gives 1
            with pytest.raises(DivergentSeries):
                divergent(0.3)
            assert divergent(0) == (1, 1.0)

    def test_lower_parameter_refused_at_every_call(self):
        # forming the plan raises nothing; its first call refuses the lower
        # parameter 4 = q^-2, at x = 0 too, and every later call raises the
        # same error again, before x = 0's value 1 and before any term
        qm = QModulus(0.5)
        message = (
            r"^lower parameter \(4\+0j\) lies within 1e-06 of q\^\(-N\) "
            r"\(q=\(0\.5\+0j\)\); the series has a vanishing denominator$"
        )
        for ups in ((0.2,), (0.3, 0.2, 0.1)):  # the second also diverges
            log = TermLog()
            plan = _SeriesPlan(ups, (4.0,), qm, Truncation(log=log))
            errors = []
            for x in (0j, 0.3, 0j, -0.7j, 0.3, 0j):
                with pytest.raises(BadLowerParameter, match=message) as info:
                    plan(x)
                errors.append(info.value)
            assert all(e is errors[0] for e in errors)
            assert log.terms == 0
            # a plan first called at x != 0 refuses x = 0 after it
            plan = _SeriesPlan(ups, (4.0,), qm, DEFAULT_TRUNCATION)
            for x in (0.3, 0j):
                with pytest.raises(BadLowerParameter, match=message):
                    plan(x)
            # the public calls keep that error, x = 0 included
            for x in (0, 0.3):
                with pytest.raises(BadLowerParameter, match=message):
                    rphis(ups, (4.0,), qm, x)
                with pytest.raises(BadLowerParameter, match=message):
                    rphis_with_condition(ups, (4.0,), qm, x)

    def test_rphis_is_plan_and_evaluation(self):
        qm = QModulus(0.5)
        ups, lows = (0.3 + 0.1j, -2.0), (0.7j,)
        plan = _SeriesPlan(ups, lows, qm, DEFAULT_TRUNCATION)
        for x in (0.3 - 0.2j, 0.9j, -0.05):
            assert plan(x) == rphis_with_condition(ups, lows, qm, x)
            assert plan(x)[0] == rphis(ups, lows, 0.5, x)


def oracle_theta(qm, x, tr):
    """theta_q(x) with its kernel built afresh at the call, (q;q)_inf
    included, as :func:`theta` did before its plans: the oracle of
    :class:`TestThetaPlan`."""
    if x == 0:
        raise ZeroArgument("theta is undefined at x = 0")
    rho = _finite_abs(x, "theta")
    qc = qm.q
    k = qcore._theta_shift(qm, rho)
    try:
        qk = qc**k
        q_shift = qc ** (k * (k - 1) // 2)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(
            f"|x|={rho!r} is out of double range for theta (q={qc!r}): the "
            "shift-law factor q^(k(k-1)/2) overflows"
        ) from None
    if not qk:
        raise DomainError(
            f"|x|={rho!r} is out of double range for theta (q={qc!r}): q^{k} underflows to 0"
        )
    m, n_tail = qcore._split_plan(max(abs(qk * rho), abs(qc / (qk * rho))), qm, tr)
    pw = qm._powers
    lead, tail, w_scale = pw[:m], qm._log_coeffs[n_tail - 1 :: -1], -pw[m]
    qq = qcore._qpochhammer_one(qc, abs(qc), qm, tr, qc)
    const = qq * q_shift
    one = 1 + 0j
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
    except OverflowError:
        prod = complex(math.inf)
    tr.note(2 * (m + n_tail))
    try:
        v = (const * x**k if k else const * (1 + 0j)) * prod
    except (OverflowError, ZeroDivisionError):
        v = math.nan
    if not cmath.isfinite(v):
        e = k * (k - 1) // 2
        if k * math.log10(abs(x)) + e * math.log10(abs(qc)) < 309:
            v = qq * qcore._weighted(x0**k, qc, e - k * k) * prod
        if not cmath.isfinite(v):
            raise DomainError(
                f"x={x!r} is out of double range for theta (q={qc!r}): theta_q(x), "
                "its shift-law factor q^(k(k-1)/2) x^k or its product overflows"
            )
    if abs(v) < sys.float_info.min:
        if 0 not in [f for qn in qm._powers for f in (1 + x0 * qn, 1 + y * qn)]:
            raise DomainError(
                f"x={x!r} is out of double range for theta (q={qc!r}): theta_q(x) underflows"
            )
    return v


class TestThetaPlan:
    """One theta plan called at many x gives, at each, the bits of the
    kernel built afresh at that call, or its error with its message, in any
    order of the x and whether its kernels are built or not; and so does
    :func:`theta`."""

    @staticmethod
    def _outcome(call, x):
        try:
            return bits(call(x))
        except QConnectError as exc:
            return type(exc).__name__, str(exc)

    def _check_orders(self, qm, tr, xs, seed):
        want = [self._outcome(lambda x: oracle_theta(qm, x, tr), x) for x in xs]
        plan = _ThetaPlan(qm, tr)
        assert [self._outcome(plan, x) for x in xs] == want
        # the same plan again, its kernels built, in reverse order
        assert [self._outcome(plan, x) for x in reversed(xs)] == want[::-1]
        # a fresh plan in a shuffled order, and the one-off calls
        order = list(range(len(xs)))
        random.Random(seed).shuffle(order)
        fresh = _ThetaPlan(qm, tr)
        assert [self._outcome(fresh, xs[i]) for i in order] == [want[i] for i in order]
        assert [self._outcome(lambda x: theta(qm, x, tr), x) for x in xs] == want
        return want

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.8, 0.95, 0.48 + 0.36j])
    def test_matches_the_per_call_kernel_in_any_order(self, q, monkeypatch):
        rng = random.Random(f"theta-plan-{q}")
        qm = QModulus(q)
        fallbacks = []
        weighted = qcore._weighted
        monkeypatch.setattr(
            qcore, "_weighted", lambda *a: fallbacks.append(a) or weighted(*a)
        )
        # |x| from 1e-3 to 1e3 (shifts of both signs), one circle whose
        # moduli differ in their last bits, the zeros -q^k, the shift-law
        # fallback far out, and arguments out of range
        xs = [point(rng, -3, 3) for _ in range(60)]
        rho = 10 ** rng.uniform(-1, 1)
        xs += [cmath.rect(rho, rng.uniform(-math.pi, math.pi)) for _ in range(12)]
        xs += [-(qm.q**k) for k in range(-3, 4)]
        # the fallback: |x|^|k| > 1e308 with |k| ~ log|x| / log(1/|q|), where
        # log10 theta ~ (log10 |x|)^2 / (2 log10(1/|q|)) is still below 308
        lq = -math.log10(abs(q))
        lo, hi = math.sqrt(308 * lq), 0.98 * math.sqrt(616 * lq)
        xs += [point(rng, lo, hi) for _ in range(12)] + [point(rng, -hi, -lo) for _ in range(12)]
        xs += [point(rng, hi + 1, hi + 5) for _ in range(3)]
        xs += [0j, complex(math.nan, 1.0), complex(math.inf, 0.0), 1e300, 1e-300j]
        want = self._check_orders(qm, DEFAULT_TRUNCATION, xs, str(q))
        values = [w for w in want if w[0] not in ("DomainError", "ZeroArgument")]
        assert sum(1 for w in values if not any(map(float.fromhex, w))) >= 3  # exact zeros
        assert fallbacks  # the fallback ran, in the oracle and in the plans
        errors = {w[0] for w in want}
        assert {"DomainError", "ZeroArgument"} <= errors

    @pytest.mark.parametrize("n_max", [30, 60, 90])
    def test_a_split_above_n_max_raises_in_every_order(self, n_max):
        rng = random.Random(f"theta-plan-n-max-{n_max}")
        qm = QModulus(0.95)
        xs = [point(rng, -2, 2) for _ in range(30)]
        want = self._check_orders(qm, Truncation(n_max=n_max), xs, n_max)
        assert any(w[0] == "TruncationExceeded" for w in want)

    def test_underflow_rule_near_one(self):
        # at q = 0.995 theta_q(-0.7 + 0.05i) underflows, while the zeros -1
        # and -q stay exact; at 0.998 (q;q)_inf itself underflows
        qm = QModulus(0.995)
        rng = random.Random("theta-plan-0.995")
        xs = [-0.7 + 0.05j, -1.0, -qm.q, -0.6 + 0.6j] + [point(rng, -0.5, 0.5) for _ in range(20)]
        want = self._check_orders(qm, DEFAULT_TRUNCATION, xs, 995)
        assert want[0][0] == "DomainError" and "theta_q(x) underflows" in want[0][1]
        assert want[1] == want[2] == bits(0j)
        want = self._check_orders(QModulus(0.998), DEFAULT_TRUNCATION, xs, 998)
        message = "a=(0.998+0j) is out of double range for (a;q)_inf: the product underflows"
        assert set(want) == {("DomainError", message)}

    def test_forms_q_q_infinity_once_and_one_kernel_per_circle(self, monkeypatch):
        formed = []
        one = qcore._qpochhammer_one
        monkeypatch.setattr(qcore, "_qpochhammer_one", lambda *a: formed.append(a) or one(*a))
        qm = QModulus(0.8)
        log = TermLog()
        plan = _ThetaPlan(qm, Truncation(log=log))
        circles = (0.15, 1.1, 8.0)
        for j in range(8):
            for rho in circles:
                plan(cmath.rect(rho, math.pi / 16 + j * math.pi / 4))
        assert len(formed) == 1
        assert len(plan._kernels) == len(circles)
        # (q;q)_inf noted once; each call notes its kernel's factors
        qq_log = TermLog()
        qpochhammer_inf(qm.q, qm, Truncation(log=qq_log))
        kernel_terms = sum(2 * (m + n) for (_, m, n) in plan._kernels)
        assert log.terms == qq_log.terms + 8 * kernel_terms

    def test_a_failed_constant_fails_every_call_alike(self, monkeypatch):
        # the underflow of (q;q)_inf at 0.998 is formed once, then raised again
        formed = []
        one = qcore._qpochhammer_one
        monkeypatch.setattr(qcore, "_qpochhammer_one", lambda *a: formed.append(a) or one(*a))
        plan = _ThetaPlan(QModulus(0.998), DEFAULT_TRUNCATION)
        for x in (0.5 + 0.5j, 3.0, -2.0 + 1j):
            with pytest.raises(DomainError, match="the product underflows"):
                plan(x)
        assert len(formed) == 1

    @pytest.mark.parametrize("q", [0.3, 0.8, 0.48 + 0.36j, 0.995])
    def test_pairs_plan_is_theta_over_q_q_infinity(self, q):
        # over_qq leaves (q;q)_inf out: theta_q(x)/(q;q)_inf = (-x, -q/x; q)_inf
        qm = QModulus(q)
        rng = random.Random(f"pairs-{q}")
        pairs = _ThetaPlan(qm, DEFAULT_TRUNCATION, over_qq=True)
        tol = 1e-13 if abs(q) < 0.9 else 1e-11
        for _ in range(40):
            x = point(rng, -1, 1) if abs(q) < 0.9 else point(rng, -0.3, 0.3)
            assert rel_err(pairs(x), qpochhammer_inf((-x, -qm.q / x), qm)) < tol
        if q == 0.995:
            # theta underflows there; the pair does not
            with pytest.raises(DomainError, match="underflows"):
                theta(qm, -0.7 + 0.05j)
            x = -0.7 + 0.05j
            assert rel_err(pairs(x), qpochhammer_inf((-x, -qm.q / x), qm)) < tol
        else:
            qq = qpochhammer_inf(qm.q, qm)
            for _ in range(10):
                x = point(rng, -1, 1)
                assert rel_err(pairs(x) * qq, theta(qm, x)) < 1e-14


class TestQExponentials:
    def test_at_zero(self, qmod):
        assert e_exp(qmod, 0) == 1
        assert E_exp(qmod, 0) == 1

    def test_product_oracle(self):
        got = e_exp(0.5, 0.3)
        assert rel_err(got, 1 / qpochhammer_inf(0.3, 0.5)) < 1e-14

    def test_reciprocal_pair(self):
        assert rel_err(e_exp(0.5, 0.3) * E_exp(0.5, -0.3), 1.0) < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.builds(
            cmath.rect,
            st.floats(min_value=0.01, max_value=0.95),
            st.floats(min_value=-math.pi, max_value=math.pi),
        )
    )
    def test_reciprocal_pair_property(self, x):
        qm = as_modulus(0.5)
        assert rel_err(e_exp(qm, x) * E_exp(qm, -x), 1.0) < 1e-12

    def test_series_vs_product_modes(self, qmod):
        x = 0.6 * cmath.exp(0.9j)
        s = e_exp(qmod, x, mode="series")
        p = e_exp(qmod, x, mode="product")
        assert rel_err(s, p) < 1e-13

    def test_product_mode_beyond_disc(self, qmod):
        x = 3.7 * cmath.exp(0.4j)
        assert rel_err(e_exp(qmod, x), 1 / qpochhammer_inf(x, qmod)) < 1e-14

    def test_series_mode_outside_radius(self, qmod):
        with pytest.raises(OutsideRadius):
            e_exp(qmod, 1.2, mode="series")

    def test_pole_hit(self, qmod):
        with pytest.raises(PoleHit):
            e_exp(qmod, qmod.q**-2, mode="product")
        # mirror point on the negative half is fine
        e_exp(qmod, -(qmod.q**-2), mode="product")

    @pytest.mark.parametrize("mode", ["product", "series"])
    def test_non_finite_argument_is_domain_error(self, mode):
        with pytest.raises(DomainError, match="finite"):
            e_exp(0.5, math.nan, mode=mode)

    @pytest.mark.parametrize("mode", ["taylor", "auto"])
    @pytest.mark.parametrize("fn", [e_exp, E_exp])
    def test_unknown_mode_rejected(self, fn, mode):
        with pytest.raises(ValueError, match=f"unknown E?e?_exp mode '{mode}'"):
            fn(0.5, 0.3, mode=mode)

    @pytest.mark.parametrize("x", [1 - 1e-7, 1 + 1e-7])
    def test_pole_at_one_excluded_on_both_sides(self, x):
        with pytest.raises(PoleHit):
            e_exp(0.5, x)

    @pytest.mark.parametrize("x", [1 - 1e-7, 1 - 1e-12])
    def test_series_mode_excludes_the_pole_too(self, x):
        # the closed tail would sum to the pole's value (3.46e12 at 1 - 1e-12)
        with pytest.raises(PoleHit):
            e_exp(0.5, x, mode="series")

    def test_series_mode_keeps_its_value_off_the_pole(self):
        log = TermLog()
        got = e_exp(0.5, 0.9999, Truncation(log=log), mode="series")
        assert log.terms == 55
        assert bits(got) == bits(rphis((0j,), (), 0.5, 0.9999))

    def test_E_entire_modes_agree(self, qmod):
        for x in (4.2 - 1.1j, 0.3 + 0.1j):
            s = E_exp(qmod, x, mode="series")
            p = E_exp(qmod, x, mode="product")
            # the series cancels internally far out; compare loosely there
            tol = 1e-13 if abs(x) <= 1 else 1e-9
            assert rel_err(s, p) < tol

    @pytest.mark.parametrize(
        "fn, q, x, want",
        [
            (e_exp, 0.95, -0.9, lambda q, x: 1 / mp.qp(x, q)),
            (e_exp, 0.9, -0.95, lambda q, x: 1 / mp.qp(x, q)),
            (E_exp, 0.95, -0.9, lambda q, x: mp.qp(-x, q)),
        ],
    )
    def test_product_keeps_the_digits_the_series_lost(self, fn, q, x, want):
        # the series is 21x, 2.8e-8 and 9.9x off here (conditions 4.8e16,
        # about 1e8, 9.9e16)
        ref = want(mp.mpf(q), mp.mpf(x))
        assert float(abs(fn(q, x) - ref) / abs(ref)) < 1e-14
        assert fn(q, x) == fn(q, x, mode="product")
        assert float(abs(fn(q, x, mode="series") - ref) / abs(ref)) > 1e-9

    @pytest.mark.parametrize(
        "q", [0.05, 0.3, 0.5, 0.8, 0.9, 0.95, 0.48 + 0.36j, -0.7 + 0.1j, cmath.rect(0.6, 2.1)]
    )
    def test_default_is_the_product_and_within_1e_14(self, q):
        qm = QModulus(q)
        rng = random.Random(21)
        for _ in range(300):
            x = cmath.rect(rng.uniform(0.05, 0.999), rng.uniform(-math.pi, math.pi))
            for fn, want in ((e_exp, 1 / mp_qp_split(x, q)), (E_exp, mp_qp_split(-x, q))):
                got = fn(qm, x)
                assert bits(got) == bits(fn(qm, x, mode="product"))
                assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("x", [0.999, 0.9999, -0.99999, 0.99999j])
    def test_series_up_to_the_unit_circle(self, q, x):
        # e_q = 1phi0(0; -; q, x) = 1/(x; q)_inf and a 2phi1 by Heine's
        # transformation (Gasper & Rahman (1.4.1)),
        # 2phi1(a, b; c; q, x) = (b, ax; q)_inf / (c, x; q)_inf 2phi1(c/b, x; ax; q, b);
        # the plain streak rule runs past n_max on every one of these
        qm = QModulus(q)
        a, b, c = 0.3 + 0.2j, 0.4 - 0.3j, 0.6j
        mq, mx = mp.mpf(q), mp.mpc(x)
        heine = (
            mp.qp(b, mq) * mp.qp(a * mx, mq) / (mp.qp(c, mq) * mp.qp(mx, mq))
            * mp.qhyper([mp.mpc(c) / b, mx], [a * mx], mq, mp.mpc(b))
        )
        calls = [
            ((0j,), (), 1 / mp.qp(mx, mq), lambda tr: e_exp(qm, x, tr, mode="series")),
            ((a, b), (c,), heine, lambda tr: rphis((a, b), (c,), qm, x, tr)),
        ]
        for ups, lows, want, call in calls:
            value, abs_sum = mp_geometric_series(ups, lows, q, x)
            assert abs(value - want) <= 1e-30 * abs(want)
            with pytest.raises(TruncationExceeded):
                running_rphis(ups, lows, qm, x, DEFAULT_TRUNCATION)
            log = TermLog()
            got = call(Truncation(log=log))
            err = float(abs(got - want) / abs(want))
            assert err <= closed_tail_bound(float(abs_sum / abs(want)), log.terms, False)

    def test_inverse_base_coefficient_identity(self):
        # coefficient n of sum x^n/(q^-1;q^-1)_n equals coefficient n of
        # E_q(-qx), i.e. (-1)^n q^(n(n+1)/2)/(q;q)_n, for n <= 30
        q = 0.5
        poch_inv = 1.0  # (q^-1; q^-1)_n
        poch = 1.0  # (q; q)_n
        for n in range(31):
            if n:
                poch_inv *= 1 - q ** -n
                poch *= 1 - q**n
            lhs = 1 / poch_inv
            rhs = (-1) ** n * q ** (n * (n + 1) / 2) / poch
            assert rel_err(lhs, rhs) < 1e-13


# ---------------------------------------------------------------------------
# The table of powers q^n on QModulus, and the loops that read it

#: bases of the bit-for-bit comparisons with the running-power loops
REF_QS = (0.05, 0.3, 0.5, 0.8, 0.95, 0.6 * cmath.exp(2.1j), -0.7 + 0.1j)

BIG = complex(1.7e308, 1.7e308)  # finite, but |BIG| overflows


def running_powers(q, n):
    """q^0, ..., q^(n-1) by the running product the table must reproduce."""
    out = []
    qn = 1 + 0j
    for _ in range(n):
        out.append(qn)
        qn *= q
    return out


def running_qpochhammer_n(a, q, n):
    """(a; q)_n with its own running power: the reference for qpochhammer_n."""
    prod = 1 + 0j
    qj = 1 + 0j
    for _ in range(n):
        prod *= 1 - a * qj
        qj *= q
    return prod


def running_theta_sum(q, x, tr):
    """Both tails of the bilateral theta sum with their own running powers:
    the reference for theta_sum_with_condition."""
    total = 1 + 0j
    abs_sum = 1.0
    scale = 1.0
    count = 1
    t = 1 + 0j
    qn = 1 + 0j
    small = n = 0
    while small < qcore._STREAK:
        t *= qn * x
        qn *= q
        total += t
        abs_sum += abs(t)
        n += 1
        count += 1
        scale = max(scale, abs(total), abs(t))
        small = small + 1 if abs(t) <= tr.eps * scale else 0
        if n > tr.n_max:
            raise TruncationExceeded("reference upper tail exceeded n_max")
    u = 1 + 0j
    qn = q
    small = m = 0
    while small < qcore._STREAK:
        u *= qn / x
        qn *= q
        total += u
        abs_sum += abs(u)
        m += 1
        count += 1
        scale = max(scale, abs(total), abs(u))
        small = small + 1 if abs(u) <= tr.eps * scale else 0
        if m > tr.n_max:
            raise TruncationExceeded("reference lower tail exceeded n_max")
    tr.note(count)
    cond = abs_sum / abs(total) if total != 0 else math.inf
    return total, max(cond, 1.0)


def running_rphis(ups, lows, qm, x, tr):
    """The r_phi_s term loop with its own running power q^n: the reference
    for rphis_with_condition (inputs that pass its parameter checks)."""
    ups = tuple(complex(a) for a in ups)
    lows = tuple(complex(b) for b in lows)
    d = 1 + len(lows) - len(ups)
    term_deg = _terminating_degree(ups, qm)
    qc = qm.q
    total = 0 + 0j
    abs_sum = 0.0
    t = 1 + 0j
    qn = 1 + 0j
    scale = 1.0
    small = n = 0
    while True:
        total += t
        abs_sum += abs(t)
        scale = max(scale, abs(total), abs(t))
        if term_deg is not None and n >= term_deg:
            n += 1
            break
        small = small + 1 if abs(t) <= tr.eps * scale else 0
        if small >= qcore._STREAK:
            n += 1
            break
        if n >= tr.n_max:
            raise TruncationExceeded("reference series exceeded n_max")
        num = 1 + 0j
        for a in ups:
            num *= 1 - a * qn
        den = 1 + 0j
        for b in lows:
            den *= 1 - b * qn
        den *= 1 - qn * qc
        t *= num / den * x
        if d:
            t *= (-qn) ** d
        qn *= qc
        n += 1
    tr.note(n)
    cond = abs_sum / abs(total) if total != 0 else math.inf
    return total, max(cond, 1.0)


def closed_tail_start(ups, lows, qm, tr):
    """The first n with C |q|^n / (1 - |q|) <= eps/10, C = sum|a_i| + sum|b_j|
    + |q|, by a plain loop: where rphis_with_condition closes the tail of a
    nonterminating r = s + 1 series, or None (no closure, or it would not fit
    in n_max)."""
    if len(ups) != len(lows) + 1 or _terminating_degree(ups, qm) is not None:
        return None
    aq = abs(qm.q)
    c = sum(abs(a) for a in ups) + sum(abs(b) for b in lows) + aq
    n = 0
    while c * aq**n / (1 - aq) > tr.eps / 10:
        n += 1
    return n if n < tr.n_max else None


def mp_geometric_series(ups, lows, q, x):
    """(sum t_n, sum |t_n|) of a nonterminating r = s + 1 series at 40 digits,
    |x| < 1: the terms one by one while C |q|^n / (1 - |q|) > 1e-45, then the
    rest as t_N x^k, whose relative drift that bound caps (every later ratio
    t_(n+1)/t_n is x times a factor within it of 1)."""
    aq = abs(q)
    c = sum(abs(a) for a in ups) + sum(abs(b) for b in lows) + aq
    n_terms = max(0, math.ceil((math.log(1e-45 * (1 - aq)) - math.log(c)) / math.log(aq)))
    q, x = mp.mpc(q), mp.mpc(x)
    ups = [mp.mpc(a) for a in ups]
    lows = [mp.mpc(b) for b in lows]
    t, qn, total, abs_sum = mp.mpc(1), mp.mpc(1), mp.mpc(0), mp.mpf(0)
    for _ in range(n_terms):
        total += t
        abs_sum += abs(t)
        num = den = mp.mpc(1)
        for a in ups:
            num *= 1 - a * qn
        for b in lows:
            den *= 1 - b * qn
        t *= num / (den * (1 - qn * q)) * x
        qn *= q
    return total + t / (1 - x), abs_sum + abs(t) / (1 - abs(x))


#: unit roundoff of a double
U = 2.0**-53


def closed_tail_bound(cond, terms, streak_finishes):
    """The error bound of a series whose tail is closed, relative to its
    value: 16 u cond where the plain streak rule also finishes (on those
    inputs of test_rphis that rule is up to 25 u cond off, the closed tail
    up to 6), and (terms / 2) u cond, at least 16, where it runs past n_max,
    near |x| = 1, as each term t_n carries the rounding of n running
    products (Higham, ch. 3)."""
    return (16 if streak_finishes else max(16, terms / 2)) * U * cond


def running_two_f_zero(q, lam, x, tr):
    """The first-kind spiral sum of two_f_zero with its own running powers:
    the weights are the bilateral theta series' terms at lambda/x, running
    products of q^n (lambda/x) upward and of q^m / (lambda/x) downward,
    over theta_q(lambda/x); the reference for the spiral sum's loops."""
    qm = as_modulus(q)
    qc = qm.q
    phi0 = e_exp(qm, lam / qc, tr, mode="product")
    ratio = lam / x
    th = theta(qm, ratio, tr)
    streak = qcore._SPIRAL_STREAK

    def upper():
        # phi(lambda q^(n+1)) = (1 - lambda q^(n-1)) phi(lambda q^n)
        phi, a, w, qn = phi0, lam / qc, 1 + 0j, 1 + 0j
        while True:
            phi *= 1 - a
            a *= qc
            w *= qn * ratio
            qn *= qc
            yield phi * w / th

    def lower():
        # phi(lambda q^(n-1)) = phi(lambda q^n) / (1 - lambda q^(n-2))
        phi, b, u, qm_ = phi0, lam / (qc * qc), 1 + 0j, qc
        while True:
            phi /= 1 - b
            b /= qc
            u *= qm_ / ratio
            qm_ *= qc
            yield phi * u / th

    def tail(total, scale, terms):
        small = count = 0
        for t in terms:
            if count == tr.n_max:
                raise TruncationExceeded("reference spiral tail exceeded n_max")
            total += t
            count += 1
            scale = max(scale, abs(total), abs(t))
            small = small + 1 if abs(t) <= tr.eps * scale else 0
            if small == streak:
                return total, scale, count

    total = phi0 * (1 + 0j) / th
    total, scale, n_up = tail(total, max(abs(total), 1e-300), upper())
    total, _, n_down = tail(total, scale, lower())
    tr.note(1 + n_up + n_down)
    return total


def outcome(fn, *args, **kw):
    """(value bits, condition, TermLog terms) of one call, or the error type."""
    log = TermLog()
    try:
        out = fn(*args, Truncation(log=log, **kw))
    except TruncationExceeded:
        return "TruncationExceeded", log.terms
    if isinstance(out, tuple):
        return bits(out[0]), out[1].hex(), log.terms
    return bits(out), log.terms


def assert_fewer_terms(got, want):
    """An :func:`outcome` equal to the reference's but for its TermLog
    count, which may fall and never rise: the theta and spiral-sum tails
    end where the streak's last terms cannot move the sum, which the
    reference loops, under the streak rule alone, do not see."""
    assert got[:-1] == want[:-1]
    assert got[-1] <= want[-1]


def point(rng, lo, hi):
    return cmath.rect(10 ** rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


class TestPowerTable:
    @pytest.mark.parametrize("q", REF_QS)
    def test_table_is_the_running_product(self, q):
        qm = QModulus(q)
        want = [bits(p) for p in running_powers(qm.q, 800)]
        assert [bits(p) for p in qm._powers_to(800)[:800]] == want

    @pytest.mark.parametrize("q", REF_QS)
    def test_growing_in_steps_equals_building_at_once(self, q):
        grown = QModulus(q)
        for n in (0, 1, 2, 5, 33, 34, 100, 101, 333, 700):
            assert len(grown._powers_to(n)) >= n
        at_once = QModulus(q)._powers_to(700)
        assert [bits(p) for p in grown._powers[:700]] == [bits(p) for p in at_once[:700]]

    def test_tables_belong_to_their_instance(self):
        a, b = QModulus(0.5), QModulus(0.5)
        a._powers_to(100)
        assert b._powers == (1 + 0j,)
        assert a._powers_to(10) is a._powers

    @pytest.mark.parametrize("q", REF_QS)
    def test_squared_is_one_cached_instance(self, q):
        qm = QModulus(q)
        assert qm.squared() is qm.squared()
        assert qm.squared().q == qm.q * qm.q

    def test_eq_hash_repr_ignore_the_table(self):
        used, fresh = QModulus(0.5), QModulus(0.5)
        used._powers_to(300)
        used._log_coeffs_to(50)
        used.squared()
        assert vars(used).keys() >= {"_log_q", "_k_cap", "_powers", "_log_coeffs", "_squared"}
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "QModulus(q=(0.5+0j))"
        assert [f.name for f in dataclasses.fields(QModulus)] == ["q"]
        assert QModulus(0.5) != QModulus(0.25)

    @pytest.mark.parametrize("q", REF_QS)
    def test_log_coefficients_are_the_running_sum(self, q):
        # c_k = 1/(k (1 - q)(1 + q + ... + q^(k-1))) by a running sum, bit
        # for bit, whether the table grows in steps or at once
        qm = QModulus(q)
        want, s = [], 0j
        for j, qj in enumerate(running_powers(qm.q, 300)):
            s += qj
            want.append(bits(1 / ((j + 1) * ((1 - qm.q) * s))))
        for n in (0, 1, 3, 17, 40, 41, 300):
            assert len(qm._log_coeffs_to(n)) >= n
        assert [bits(c) for c in qm._log_coeffs[:300]] == want
        assert [bits(c) for c in QModulus(q)._log_coeffs_to(300)[:300]] == want

    def test_theta_reuses_the_coefficient_table(self):
        qm = QModulus(0.8)
        theta(qm, 1.3 + 0.4j)
        table = qm._log_coeffs
        assert table
        theta(qm, -0.4 + 1.3j)  # the same circle: the table is long enough
        assert qm._log_coeffs is table

    @pytest.mark.parametrize("q", REF_QS)
    def test_cached_logs_are_the_bare_expressions(self, q):
        qm = QModulus(q)
        assert bits(qm._log_q) == bits(math.log(abs(qm.q)))
        assert qm._k_cap == int(290 / abs(math.log10(abs(qm.q)))) + 1


class TestLoopsMatchRunningPowers:
    @pytest.mark.parametrize("q", REF_QS)
    def test_qpochhammer_inf_any_arity(self, q):
        # arities 2 and 3 run written-out loops, 4 and 5 the general one; the
        # instance is shared (its table reused) or a bare number (built
        # afresh); one argument takes the split (TestOneArgumentProduct)
        rng = random.Random(f"arity-{q}")
        qm = QModulus(q)
        for _ in range(50):
            avals = tuple(point(rng, -18, 12) for _ in range(rng.randint(2, 5)))
            want, factors = streak_product(avals, qm.q, DEFAULT_TRUNCATION)
            for base in (qm, q):
                if cmath.isfinite(want):
                    assert outcome(qpochhammer_inf, avals, base) == (bits(want), factors)
                else:
                    with pytest.raises(DomainError, match="out of double range"):
                        qpochhammer_inf(avals, base)

    @pytest.mark.parametrize("q", REF_QS)
    def test_qpochhammer_n(self, q):
        rng = random.Random(f"poch-n-{q}")
        qm = QModulus(q)
        for n in range(60):
            a = point(rng, -3, 3)
            want = bits(running_qpochhammer_n(a, qm.q, n))
            assert bits(qpochhammer_n(a, qm, n)) == want
            assert bits(qpochhammer_n(a, q, n)) == want

    @pytest.mark.parametrize("q", REF_QS)
    def test_theta_sum(self, q):
        rng = random.Random(f"theta-sum-{q}")
        qm = QModulus(q)
        for _ in range(40):
            x = point(rng, -2, 2)
            want = outcome(running_theta_sum, qm.q, x)
            for base in (qm, q):
                assert_fewer_terms(outcome(theta_sum_with_condition, base, x), want)

    @pytest.mark.parametrize("q", REF_QS)
    def test_first_kind_spiral_sum(self, q):
        # two_f_zero's spiral sum weights its terms by the theta series'
        # tails at lambda/x, which read q^n from the table
        rng = random.Random(f"spiral-{q}")
        qm = QModulus(q)
        for _ in range(20):
            lam = rng.choice((0.7, 1.3, 0.9 * cmath.exp(0.3j)))
            x = point(rng, -0.8, 0.9)
            want = outcome(running_two_f_zero, qm.q, lam, x)
            for base in (qm, q):
                assert_fewer_terms(outcome(two_f_zero, base, lam, x), want)

    @pytest.mark.parametrize("q", REF_QS)
    def test_rphis(self, q):
        # bit for bit wherever the streak rule ends the sum before the closed
        # tail's point N; where the tail is closed, against mpmath
        rng = random.Random(f"rphis-{q}")
        qm = QModulus(q)
        cases = [((), (), point(rng, -1, 1)), ((0j,), (), point(rng, -1, -0.05))]
        for _ in range(12):
            a, b, c = (point(rng, -1, 1) for _ in range(3))
            cases += [
                ((a, b), (c,), point(rng, -1, -0.05)),  # 2phi1, |x| < 1
                ((a,), (b,), point(rng, -1, 1)),  # 1phi1, entire
                ((0j,), (-qm.q,), point(rng, -1, 1)),  # Ai_q
                ((qm.q**-3, a), (), point(rng, -1, 0)),  # terminating 2phi0
            ]
        # r = s + 1 at |x| in [0.5, 0.9999]: e_q, 1phi0 and 2phi1
        xs = [-0.9999, -0.99 + 0j, 0.9999j, -0.7j]
        xs += [
            cmath.rect(1 - 10 ** rng.uniform(-4, -0.31), rng.uniform(-math.pi, math.pi))
            for _ in range(4)
        ]
        for x in xs:
            a, b, c = (point(rng, -1, 1) for _ in range(3))
            cases += [((0j,), (), x), ((a,), (), x), ((a, b), (c,), x)]
        closed = 0
        for ups, lows, x in cases:
            want = outcome(lambda tr: running_rphis(ups, lows, qm, x, tr))
            n_close = closed_tail_start(ups, lows, qm, DEFAULT_TRUNCATION)
            if n_close is None or want[-1] <= n_close and want[0] != "TruncationExceeded":
                assert outcome(rphis_with_condition, ups, lows, qm, x) == want
                assert outcome(rphis_with_condition, ups, lows, q, x) == want
                continue
            closed += 1
            log = TermLog()
            got, cond = rphis_with_condition(ups, lows, qm, x, Truncation(log=log))
            assert log.terms == n_close + 1  # the closed tail counts as one term
            assert outcome(rphis_with_condition, ups, lows, q, x)[:2] == (bits(got), cond.hex())
            value, abs_sum = mp_geometric_series(ups, lows, qm.q, x)
            want_cond = float(abs_sum / abs(value))
            err = float(abs(got - value) / abs(value))
            streak_finishes = want[0] != "TruncationExceeded"
            assert err <= closed_tail_bound(want_cond, log.terms, streak_finishes)
            # the closed tail adds |t_N| / (1 - |x|) to sum|term|, a bound on
            # its terms' moduli: the condition is not below mpmath's, but for
            # the rounding of the running sums and the error of the value it
            # divides by
            assert cond >= want_cond * (1 - 1e-12) / (1 + err)
        assert closed >= 9  # at least the points with |x| >= 0.99


class TestModulusOverflow:
    # finite input whose modulus overflows is a DomainError, never a bare
    # OverflowError or a run to n_max
    @pytest.mark.parametrize(
        "call",
        [
            lambda: qpochhammer_inf(BIG, 0.5),
            lambda: qpochhammer_inf((0.3, BIG), 0.5),
            lambda: theta(0.5, BIG),
            lambda: theta_sum(0.5, BIG),
            lambda: e_exp(0.5, BIG),
            lambda: e_exp(0.5, BIG, mode="product"),
            lambda: E_exp(0.5, BIG),
            lambda: E_exp(0.5, BIG, mode="product"),
            lambda: rphis((0.3,), (0.2,), 0.5, BIG),
            lambda: Spiral(1 + 0j, as_modulus(0.5)).nearest(BIG),
        ],
    )
    def test_domain_error(self, call):
        with pytest.raises(DomainError, match="out of double range"):
            call()
