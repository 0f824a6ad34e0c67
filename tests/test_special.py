import cmath
import math
import random

import pytest

from qconnect import (
    DomainError,
    NoConvergence,
    PoleHit,
    SolutionAtInfinity,
    Spiral,
    SpiralProximity,
    TermLog,
    ThetaZero,
    Truncation,
    ZeroArgument,
    as_modulus,
    default_grid,
    e_exp,
    f_via_residues,
    g_borel_image,
    qairy_Ai,
    qlaplace_minus,
    qlaplace_plus,
    qpochhammer_inf,
    qpochhammer_n,
    ramanujan_Aq,
    ramanujan_Aq_with_condition,
    theta,
    two_f_zero,
    two_f_zero_closed,
)
from qconnect.qcore import DEFAULT_PROXIMITY
from conftest import rel_err


def brute_Aq(q: complex, x: complex, terms: int = 80) -> complex:
    total = 0j
    for n in range(terms):
        total += q ** (n * n) * (-x) ** n / qpochhammer_n(q, q, n)
    return total


def brute_Aiq(q: complex, x: complex, terms: int = 80) -> complex:
    total = 0j
    for n in range(terms):
        num = (-1) ** n * q ** (n * (n - 1) // 2) * (-x) ** n
        total += num / (qpochhammer_n(-q, q, n) * qpochhammer_n(q, q, n))
    return total


BOREL_QS = (0.3, 0.5, 0.8, 0.95, 0.6 * cmath.exp(2.1j))


def scan_finds_pole(qm, tau, delta):
    """The Borel image's pole test without the modulus gate."""
    for sgn in (1, -1):
        k, dist = Spiral(sgn * qm.q**-2, qm, delta).nearest(tau)
        if dist < delta and k <= 0:
            return True
    return False


def pole_distance(qm, tau):
    return min(Spiral(sgn * qm.q**-2, qm).distance(tau) for sgn in (1, -1))


class TestRamanujanFunction:
    def test_value_at_zero(self, qmod):
        assert ramanujan_Aq(qmod, 0) == 1

    def test_brute_force_oracle(self, qmod):
        from qconnect import ramanujan_Aq_with_condition

        for x in (2.0, -1.3 + 0.8j, 0.05j):
            got, cond = ramanujan_Aq_with_condition(qmod, x)
            assert rel_err(got, brute_Aq(qmod.q, x)) < 1e-13 * max(cond, 1.0)

    def test_tail_collapses_quickly(self):
        # at q=0.5, x=2 the sum needs only a handful of terms
        got = ramanujan_Aq(0.5, 2)
        want = brute_Aq(0.5, 2, terms=15)
        assert rel_err(got, want) < 1e-15

    def test_difference_equation_residual(self):
        q, x = 0.5, 1 + 0.3j
        res = q * x * ramanujan_Aq(q, q * q * x) - ramanujan_Aq(q, q * x) + ramanujan_Aq(q, x)
        assert abs(res) < 1e-12

    def test_squared_base(self, qmod):
        q2 = qmod.squared()
        assert rel_err(ramanujan_Aq(q2, 1.5), brute_Aq(qmod.q**2, 1.5)) < 1e-13

    @pytest.mark.parametrize("x", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_non_finite_argument_rejected_up_front(self, x):
        log = TermLog()
        with pytest.raises(DomainError, match="finite"):
            ramanujan_Aq_with_condition(0.5, x, Truncation(log=log))
        assert log.terms == 0


class TestQAiryFunction:
    def test_value_at_zero(self, qmod):
        assert qairy_Ai(qmod, 0) == 1

    def test_brute_force_oracle(self, qmod):
        from qconnect import qairy_Ai_with_condition

        for x in (0.8 - 0.2j, -2.5, 4j):
            got, cond = qairy_Ai_with_condition(qmod, x)
            assert rel_err(got, brute_Aiq(qmod.q, x)) < 1e-12 * max(cond, 1.0)

    def test_difference_equation_residual(self):
        q = 0.5
        x = 0.8 - 0.2j
        res = qairy_Ai(q, q * q * x) + x * qairy_Ai(q, q * x) - qairy_Ai(q, x)
        assert abs(res) < 1e-12

    def test_theta_ratio_second_solution(self, qmod):
        # u(x) = theta(q^2 x)/theta(-q^2 x) * Ai_q(-x) solves the same equation
        q = qmod.q

        def u(xx):
            return theta(qmod, q * q * xx) / theta(qmod, -q * q * xx) * qairy_Ai(qmod, -xx)

        x = 0.8 * cmath.exp(0.45j)
        res = u(q * q * x) + x * u(q * x) - u(x)
        scale = max(abs(u(x)), abs(x * u(q * x)), abs(u(q * q * x)))
        assert abs(res) <= 1e-11 * scale


class TestBorelImage:
    def test_normalized_at_zero(self, qmod):
        assert g_borel_image(qmod, 0) == 1

    def test_first_order_equation(self, qmod):
        q = qmod.q
        for tau in (0.3, -0.4 + 0.2j, 1.1j):
            lhs = g_borel_image(qmod, q * tau)
            rhs = (1 + q * q * tau) * (1 - q * q * tau) * g_borel_image(qmod, tau)
            assert rel_err(lhs, rhs) < 1e-13

    def test_direct_product_oracle(self):
        q, tau = 0.5, 0.3
        want = 1.0
        for j in range(120):
            want /= (1 + q * q * tau * q**j) * (1 - q * q * tau * q**j)
        assert rel_err(g_borel_image(0.5, 0.3), want) < 1e-14

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_pole_exclusion(self, qmod, sign, k):
        pole = sign * qmod.q ** (-2 - k)
        with pytest.raises(PoleHit):
            g_borel_image(qmod, pole)

    @pytest.mark.parametrize(
        # at q = 0.95 the reference's own error over its ~1400 factors is
        # 1.5e-14 (against mpmath on these points)
        "q, tol",
        [(q, 5e-14 if q == 0.95 else 1e-14) for q in BOREL_QS],
    )
    def test_matches_two_argument_product(self, q, tol):
        qm = as_modulus(q)
        rng = random.Random(f"borel-{q}")
        checked = 0
        while checked < 200:
            tau = cmath.rect(
                math.exp(rng.uniform(math.log(1e-3), math.log(3.0))) / abs(qm.q) ** 2,
                rng.uniform(-math.pi, math.pi),
            )
            if pole_distance(qm, tau) < 0.05:
                # 1 - a^2 and (1 - a)(1 + a) round differently by ~ulp/distance
                continue
            q2t = qm.q2 * tau
            want = 1 / qpochhammer_inf((-q2t, q2t), qm)
            assert rel_err(g_borel_image(qm, tau), want) < tol
            checked += 1

    @pytest.mark.parametrize("q", BOREL_QS)
    @pytest.mark.parametrize("delta", [DEFAULT_PROXIMITY])
    def test_pole_gate_keeps_pole_decisions(self, q, delta):
        # the modulus gate skips the scan only where it cannot fire: PoleHit
        # is raised exactly where the ungated scan finds a pole within delta
        qm = as_modulus(q)
        rng = random.Random(f"gate-{q}-{delta}")
        points = []
        for k in range(4):
            for sgn in (1, -1):
                pole = sgn * qm.q ** (-2 - k)
                for _ in range(10):
                    d = rng.uniform(0.5 * delta, 2 * delta)
                    points.append(pole * (1 + d * cmath.exp(1j * rng.uniform(-math.pi, math.pi))))
        edge = (1 - 2 * delta) / abs(qm.q) ** 2
        for _ in range(40):
            u = rng.uniform(-4.0, 4.0) * 1e-16
            points.append(cmath.rect(edge * (1 + u), rng.uniform(-math.pi, math.pi)))
        hits = 0
        for tau in points:
            want = scan_finds_pole(qm, tau, delta)
            try:
                g_borel_image(qm, tau)
                got = False
            except PoleHit:
                got = True
            assert got == want, tau
            hits += got
        assert 0 < hits < len(points)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, complex(0.3, math.nan)])
    def test_non_finite_argument_is_domain_error(self, tau):
        with pytest.raises(DomainError, match="finite"):
            g_borel_image(0.5, tau)


class TestSeriesFactorAtInfinity:
    def test_equals_entire_series(self, qmod):
        q = qmod.q
        for t in (2.0, 0.6 + 0.8j, 10.0):
            lhs = f_via_residues(qmod, t)
            rhs = ramanujan_Aq(qmod.squared(), -(q**3) * t * t)
            assert rel_err(lhs, rhs) < 1e-10

    def test_equals_contour_quadrature(self, qmod):
        for t in (2.0, 0.6 + 0.8j):
            lhs = f_via_residues(qmod, t)
            rhs = qlaplace_minus(lambda tau: g_borel_image(qmod, tau), qmod, t)
            assert rel_err(lhs, rhs) < 1e-10

    def test_zero_rejected(self, qmod):
        with pytest.raises(ZeroArgument):
            f_via_residues(qmod, 0)

    @pytest.mark.parametrize("q, t", [(0.8, 0.05), (0.8, 0.1), (0.95, 0.3)])
    def test_no_digits_left_is_no_convergence(self, q, t):
        # the 1phi1 series at +-1/t cancel: (0.8, 0.05) was 1.4e6 off and
        # (0.8, 0.1) 3 % off against A_{q^2}(-q^3 t^2)
        with pytest.raises(NoConvergence):
            f_via_residues(q, t)

    @pytest.mark.parametrize("q, t", [(0.5, 1e-12), (0.95, 1e-3)])
    def test_overflowing_value_is_domain_error(self, q, t):
        # both returned nan+nanj
        with pytest.raises(DomainError, match="out of double range"):
            f_via_residues(q, t)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_value_kept_where_the_condition_leaves_digits(self, q):
        # |t| >= 0.3 at q <= 0.8, the range of the solution at infinity the
        # contour quadrature is checked on, keeps its value
        qm = as_modulus(q)
        rng = random.Random(f"residues-{q}")
        for _ in range(20):
            t = cmath.rect(10 ** rng.uniform(math.log10(0.3), math.log10(4.0)), rng.uniform(-3, 3))
            want = ramanujan_Aq(qm.squared(), -(qm.q**3) * t * t)
            assert rel_err(f_via_residues(qm, t), want) < 1e-9


class TestResummedDivergentSeries:
    def test_pipeline_matches_closed_form(self):
        v1 = two_f_zero(0.5, 0.7, 2.4)
        v2 = two_f_zero_closed(0.5, 0.7, 2.4)
        assert rel_err(v1, v2) < 1e-10

    def test_both_sides_move_with_lambda(self):
        lam = 1.1 * cmath.exp(0.4j)
        v1 = two_f_zero(0.5, lam, 2.4)
        v2 = two_f_zero_closed(0.5, lam, 2.4)
        assert rel_err(v1, v2) < 1e-10
        # a different anchor gives a different resummation of the same series
        other = two_f_zero(0.5, 0.7, 2.4)
        assert rel_err(v1, other) > 1e-4

    def test_lambda_covariance(self, qmod):
        # [q lam; q] = [lam; q], so the sum is unchanged
        lam, x = 0.7, 2.4
        v1 = two_f_zero(qmod, lam, x)
        v2 = two_f_zero(qmod, qmod.q * lam, x)
        assert rel_err(v1, v2) < 1e-10

    def test_exclusion_spiral_rejected(self):
        with pytest.raises(SpiralProximity):
            two_f_zero(0.5, 0.7, -0.7)
        with pytest.raises(SpiralProximity):
            two_f_zero_closed(0.5, 0.7, -0.7 * 0.5**2)

    def test_lambda_on_base_spiral_rejected(self, qmod):
        with pytest.raises(SpiralProximity):
            two_f_zero(qmod, 1.0, 2.4)
        with pytest.raises(SpiralProximity):
            two_f_zero_closed(qmod, qmod.q**-1, 2.4)

    def test_underflowed_denominator_is_theta_zero(self):
        # each theta factor clears the floor; their product underflows to 0
        with pytest.raises(ThetaZero):
            two_f_zero_closed(0.99, 0.7, -0.14711779206048456 - 0.029263548302419253j)

    def test_resummed_solution_solves_equation(self, qmod):
        # u(x) = theta(x) * resummed value solves q x u(q^2 x) - u(qx) + u(x) = 0
        lam = 0.7
        q = qmod.q

        def u(xx):
            return theta(qmod, xx) * two_f_zero(qmod, lam, xx)

        for x in (2.4, 0.9 * cmath.exp(1.1j)):
            t1 = q * x * u(q * q * x)
            t2 = u(x)
            t3 = u(q * x)
            res = abs(t1 + t2 - t3)
            assert res <= 1e-9 * max(abs(t1), abs(t2), abs(t3))

    def test_optimal_truncation_of_divergent_expansion(self):
        # for small |x| the resummed value shadows the divergent series
        # sum q^(-n(n-1)/2) (x/q)^n / (q;q)_n truncated at its smallest term
        q, lam, x = 0.5, 0.7, 0.02
        resummed = two_f_zero(q, lam, x)
        term = 1.0 + 0j
        total = 0j
        total_at_min = 0j
        smallest = math.inf
        for n in range(40):
            if abs(term) < smallest:
                smallest = abs(term)
                total_at_min = total + term
            total += term
            term *= q ** (-n) * (x / q) / (1 - q ** (n + 1))
            if n > 3 and abs(term) > 100 * smallest:
                break
        assert abs(resummed - total_at_min) < 1e-3

    def test_zero_arguments_rejected(self):
        with pytest.raises(ZeroArgument):
            two_f_zero(0.5, 0.7, 0)
        with pytest.raises(ZeroArgument):
            two_f_zero_closed(0.5, 0.7, 0)

    @pytest.mark.parametrize("lam, x", [(math.nan, 2.4), (0.7, math.nan), (0.7, math.inf)])
    def test_non_finite_arguments_are_domain_errors(self, lam, x):
        with pytest.raises(DomainError, match="finite"):
            two_f_zero(0.5, lam, x)

    @pytest.mark.parametrize("lam", [0.7, 1.3, 0.9 * cmath.exp(0.3j)])
    def test_recurrence_matches_pointwise_borel_image(self, qmod, lam):
        # phi evaluated afresh at every spiral point, through the public API
        def phi(xi):
            return e_exp(qmod, xi / qmod.q, mode="product")

        for x in default_grid():
            pointwise = qlaplace_plus(phi, qmod, lam, x)
            assert rel_err(two_f_zero(qmod, lam, x), pointwise) < 1e-11


class TestSolutionAtInfinity:
    def test_value_is_product_of_parts(self):
        sol = SolutionAtInfinity(as_modulus(0.5), 4 + 1j)
        v = sol.value()
        assert rel_err(v, sol.prefactor() * sol.series_factor()) < 1e-15

    def test_gauge_shift_laws(self, qmod):
        q = qmod.q

        def E(t):
            return 1 / theta(qmod, -q * q * t)

        for t in (4 + 1j, 7 - 2j):
            assert rel_err(E(q * t), -q * q * t * E(t)) < 1e-12
            assert rel_err(E(q * q * t), q**5 * t * t * E(t)) < 1e-12

    def test_solves_equation_at_infinity(self, qmod):
        # -z(q^2 t) + z(q t)/(q^2 t) + z(t) = 0
        q = qmod.q

        def z(t):
            return SolutionAtInfinity(qmod, t).value()

        for t in (4 * cmath.exp(0.35j), 2.1 - 1.7j):
            t1 = z(q * t) / (q * q * t)
            t2 = z(t)
            t3 = z(q * q * t)
            assert abs(t1 + t2 - t3) <= 1e-9 * max(abs(t1), abs(t2), abs(t3))

    def test_spiral_exclusion(self, qmod):
        with pytest.raises(SpiralProximity):
            SolutionAtInfinity(qmod, qmod.q**3)
        with pytest.raises(ZeroArgument):
            SolutionAtInfinity(qmod, 0)

    def test_underflowed_gauge_denominator_is_domain_error(self):
        # theta(-q^2 t) is about 1e-630: 1 / theta raised ZeroDivisionError
        with pytest.raises(DomainError, match="underflows"):
            SolutionAtInfinity(0.997, 2.01348852699586 + 0.20842525299536835j).value()

    def test_overflowing_value_is_domain_error(self):
        # both factors are finite (about 4e37 and 3e277); their product is
        # not, and it returned -inf+nanj
        sol = SolutionAtInfinity(0.997, 1.0680543499144963 - 4.975511401930275j)
        assert cmath.isfinite(sol.prefactor()) and cmath.isfinite(sol.series_factor())
        with pytest.raises(DomainError, match="out of double range"):
            sol.value()


# ---------------------------------------------------------------------------
# Loops that read q^n from the base's table, against their running-power form

REF_QS = (0.05, 0.3, 0.5, 0.8, 0.95, 0.6 * cmath.exp(2.1j), -0.7 + 0.1j)

BIG = complex(1.7e308, 1.7e308)  # finite, but |BIG| overflows


def running_Aq(q, x, tr):
    """The A_q series with its own running powers q^n and q^(2n+1): the
    reference for ramanujan_Aq_with_condition."""
    total = 0 + 0j
    abs_sum = 0.0
    t = 1 + 0j
    qn = 1 + 0j
    q2n1 = q
    scale = 1.0
    small = n = 0
    while True:
        total += t
        abs_sum += abs(t)
        scale = max(scale, abs(total), abs(t))
        small = small + 1 if abs(t) <= tr.eps * scale else 0
        if small >= tr.streak:
            break
        if n >= tr.n_max:
            raise TruncationExceeded("reference A_q series exceeded n_max")
        qn *= q
        t *= q2n1 * (-x) / (1 - qn)
        q2n1 *= q * q
        n += 1
    tr.note(n + 1)
    cond = abs_sum / abs(total) if total != 0 else float("inf")
    return total, max(cond, 1.0)


def bits(z):
    return z.real.hex(), z.imag.hex()


class TestRunningPowerReference:
    @pytest.mark.parametrize("q", REF_QS)
    def test_ramanujan_Aq_bit_for_bit(self, q):
        rng = random.Random(f"Aq-{q}")
        qm = as_modulus(q)
        for _ in range(60):
            x = cmath.rect(10 ** rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
            want_log, got_log, fresh_log = TermLog(), TermLog(), TermLog()
            want, want_cond = running_Aq(qm.q, x, Truncation(log=want_log))
            for base, log in ((qm, got_log), (q, fresh_log)):
                got, cond = ramanujan_Aq_with_condition(base, x, Truncation(log=log))
                assert bits(got) == bits(want)
                assert cond == want_cond
                assert log.terms == want_log.terms

    @pytest.mark.parametrize("q", REF_QS)
    def test_squared_base_reuses_one_instance(self, q):
        # the base q^2 of g_borel_image and the solution at infinity is the
        # cached square, whose table then serves every later call
        qm = as_modulus(q)
        g_borel_image(qm, 0.3 + 0.1j)
        sol = SolutionAtInfinity(qm, 0.7 + 0.2j)
        sol.series_factor()
        assert qm.squared() is qm.squared()
        assert len(qm.squared()._powers) > 1


class TestOutOfDoubleRange:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: ramanujan_Aq(0.5, BIG),
            lambda: qairy_Ai(0.5, BIG),
            lambda: two_f_zero(0.5, 0.7, BIG),
            lambda: two_f_zero(0.5, BIG, 2.4),
            lambda: g_borel_image(0.5, BIG),
        ],
    )
    def test_overflowing_modulus_is_domain_error(self, call):
        with pytest.raises(DomainError, match="out of double range"):
            call()

    @pytest.mark.parametrize("tau", [1e100, 1e200, -3e150j])
    def test_borel_image_names_tau_when_the_product_overflows(self, tau):
        # 1e100: the product overflows on the way; 1e200: so does q^4 tau^2
        with pytest.raises(DomainError, match="out of double range") as exc:
            g_borel_image(0.5, tau)
        assert f"tau={tau!r}" in str(exc.value)
        assert "a=(inf" not in str(exc.value)

    @pytest.mark.parametrize("fn", [two_f_zero, two_f_zero_closed])
    @pytest.mark.parametrize("x", [1e308 + 1e308j, 1e-320])
    def test_two_f_zero_names_x_when_lambda_over_x_leaves_range(self, fn, x):
        # lambda/x underflows to 0 (its complex division overflows the
        # denominator) or overflows; theta would blame an x = 0 or inf
        with pytest.raises(DomainError, match="out of double range") as exc:
            fn(0.05, 0.7, x)
        assert not isinstance(exc.value, ZeroArgument)
        assert f"x={x!r}" in str(exc.value)
        assert "x = 0" not in str(exc.value)

    @pytest.mark.parametrize("fn", [two_f_zero, two_f_zero_closed])
    @pytest.mark.parametrize(
        "q, x", [(0.05, 1.5e308), (0.05, 1e300 + 1e300j), (0.05, 1e-300), (0.5, 3e-308)]
    )
    def test_two_f_zero_names_x_when_theta_of_lambda_over_x_leaves_range(self, fn, q, x):
        # lambda/x stays nonzero and finite, but theta of it (or of
        # -lambda^2/x at base q^2) leaves double range
        with pytest.raises(DomainError, match="out of double range") as exc:
            fn(q, 0.7, x)
        assert repr(x) in str(exc.value)
        for internal in (0.7 / x, -0.49 / x, -0.49 / (q * x)):
            assert repr(internal) not in str(exc.value)

    @pytest.mark.parametrize(
        "q, lam, x",
        [
            # theta(-lambda/q) theta(lambda/x) overflows: it returned nan+nanj
            (
                1.3941465272413474e-48,
                -0.005378541608418432 + 0.0018798344886986364j,
                -1.1013363134775243e193 - 3.480201140742112e192j,
            ),
            # q x underflows to 0 in -lambda^2/(q x): it raised ZeroDivisionError
            (
                2.0118859755897055e-162,
                2.272212050433223 + 13.66354344196615j,
                9.929724116268112e-182 - 1.9589323927271065e-181j,
            ),
        ],
    )
    def test_closed_2f0_out_of_range_is_domain_error(self, q, lam, x):
        with pytest.raises(DomainError, match="out of double range") as exc:
            two_f_zero_closed(q, lam, x)
        assert f"x={x!r}" in str(exc.value)

    def test_borel_image_still_finite_below_overflow(self):
        # a large tau whose product stays finite keeps its (small) value
        v = g_borel_image(0.5, 1e10 + 0.5j)
        assert cmath.isfinite(v) and 0 < abs(v) < 1e-100
