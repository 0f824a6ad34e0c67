import cmath
import itertools
import math
import random

import pytest

from qconnect import (
    DomainError,
    FormalSeries,
    NoConvergence,
    PoleOnContour,
    SpiralProximity,
    TermLog,
    Truncation,
    TruncationExceeded,
    ZeroArgument,
    as_modulus,
    contour_residue,
    covering_transform,
    g_borel_image,
    qairy_operator,
    qborel_minus,
    qborel_plus,
    qlaplace_minus,
    qlaplace_plus,
    qpochhammer_inf,
    ramanujan_operator,
    theta,
    theta_sum_with_condition,
)
from qconnect import transforms, verify
from qconnect.qcore import _theta_circle, _theta_shift
from conftest import decimal_rel_err, decimal_theta, random_series, rel_err, theta_rounding_bound

LAMBDAS = (0.7, 1.3, 0.9 * cmath.exp(0.3j))


def gevrey_polynomial(qm, order, seed):
    """Random polynomial with q-Gevrey decaying coefficients (a B+ image)."""
    return qborel_plus(random_series(qm, order, seed))


class TestQLaplaceMinus:
    def test_constant_integrand(self, qmod):
        for t in (0.5, 2.0 + 1.0j, 5.0):
            assert abs(qlaplace_minus(lambda tau: 1.0, qmod, t) - 1.0) < 1e-10

    def test_inverts_borel_on_gevrey_polynomials(self, qmod):
        f = gevrey_polynomial(qmod, 30, 7)
        g = qborel_minus(f)
        assert g.order == f.order == 30
        for t in (0.7 + 0.2j, 2.0 - 1.1j, 12.0 + 3.0j):
            got = qlaplace_minus(lambda tau: g.evaluate(tau), qmod, t)
            assert rel_err(got, f.evaluate(t)) < 1e-10

    def test_inverts_borel_on_plain_low_degree(self):
        qm = as_modulus(0.5)
        p = random_series(qm, 6, 3)
        g = qborel_minus(p)
        for t in (0.9 + 0.4j, 3.0 - 2.0j):
            got = qlaplace_minus(lambda tau: g.evaluate(tau), qm, t)
            assert rel_err(got, p.evaluate(t)) < 1e-10

    def test_radius_independence(self):
        # Cauchy: any admissible radius gives the same value
        qm = as_modulus(0.5)
        g = lambda tau: g_borel_image(qm, tau)
        t = 1.5 + 0.5j
        v1 = qlaplace_minus(g, qm, t, r=0.5)
        v2 = qlaplace_minus(g, qm, t, r=2.0)
        assert rel_err(v1, v2) < 1e-12

    def test_zero_target_rejected(self, qmod):
        with pytest.raises(ZeroArgument):
            qlaplace_minus(lambda tau: 1.0, qmod, 0)

    def test_radius_bound_enforced(self):
        qm = as_modulus(0.5)
        with pytest.raises(ValueError):
            qlaplace_minus(lambda tau: 1.0, qm, 1.0, r=4.0)
        with pytest.raises(ValueError):
            qlaplace_minus(lambda tau: 1.0, qm, 1.0, r=0.0)

    def test_integrand_failure_becomes_pole_on_contour(self):
        qm = as_modulus(0.5)

        def bad(tau):
            raise ZeroDivisionError("pole")

        with pytest.raises(PoleOnContour):
            qlaplace_minus(bad, qm, 1.0)

    def test_unresummable_integrand_raises_no_convergence(self):
        # the Borel image of a plain degree-30 polynomial needs ~1e131
        # cancellation on the contour; the rule must refuse, not return noise
        qm = as_modulus(0.5)
        g = qborel_minus(random_series(qm, 30, 1))
        with pytest.raises(NoConvergence):
            qlaplace_minus(lambda tau: g.evaluate(tau), qm, 1.5)


KERNEL_QS = (0.3, 0.5, 0.8, 0.95, 0.6 * cmath.exp(2.1j))


def default_radius(qm):
    return min(1.0, 0.5 / abs(qm.q) ** 2)


class TestThetaCircleKernel:
    @pytest.mark.parametrize("q", KERNEL_QS)
    @pytest.mark.parametrize(
        # |t|/r inside the annulus [0.2, 5] (k = 0) and outside it (k != 0)
        "t",
        [0.7 + 0.2j, 2.0 - 1.1j, 0.05 + 0.01j, 12.0 + 3.0j, 40j],
    )
    def test_matches_theta_at_every_node(self, q, t):
        qm = as_modulus(q)
        r = default_radius(qm)
        kernel = _theta_circle(qm, abs(t) / r)
        for j in range(64):
            x = t / (r * cmath.exp(2j * math.pi * j / 64))
            assert rel_err(kernel(x), theta(qm, x)) < 1e-13

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_factor_count_matches_triple_product(self, q):
        # 2 per leading power and 2 per tail term per call, fewer than the 2
        # per power of (-x0, -q/x0; q)_inf, which the three-argument product
        # (q, -x0, -q/x0; q)_inf takes 3 per power of; (q;q)_inf is the
        # one-argument product, noted once, at set-up, with its own count
        qm = as_modulus(q)
        aq = abs(qm.q)
        for rho in (0.21, 1.0, 4.9, 0.013, 70.0):
            k = _theta_shift(qm, rho)
            x = rho * cmath.exp(0.7j)
            x0 = qm.q**k * x
            ref = Truncation(log=TermLog())
            qpochhammer_inf((qm.q, -x0, -qm.q / x0), qm, ref)
            qq = Truncation(log=TermLog())
            qpochhammer_inf(qm.q, qm, qq)
            tr = Truncation(log=TermLog())
            kernel = _theta_circle(qm, rho, tr)
            setup = tr.log.terms
            kernel(x)
            # M leading powers, to the first with max(|x0|, |q/x0|) |q|^M <= 0.1,
            # and K >= 1 tail terms, to the first remainder bound below eps/10
            amax = max(abs(x0), abs(qm.q / x0))
            lead = next(m for m in itertools.count() if amax * aq**m <= 0.1)
            w = amax * aq**lead
            tail = next(
                n for n in itertools.count(1) if w ** (n + 1) / ((1 - aq) * 0.9) < 1e-16
            )
            assert setup == qq.log.terms
            assert tr.log.terms - setup == 2 * (lead + tail)
            assert 3 * (tr.log.terms - setup) < 2 * ref.log.terms

    @pytest.mark.parametrize("n_max", range(30, 90, 3))
    def test_truncation_exceeded_where_theta_raises(self, n_max):
        qm = as_modulus(0.6)
        tr = Truncation(n_max=n_max)
        for rho in (0.3, 3.0, 40.0):
            x = rho * cmath.exp(0.4j)
            try:
                theta(qm, x, tr)
            except TruncationExceeded:
                with pytest.raises(TruncationExceeded):
                    _theta_circle(qm, rho, tr)(x)
            else:
                _theta_circle(qm, rho, tr)(x)

    @pytest.mark.parametrize("x", [1e9, 5e9, 1e11, 3e10 + 1e10j, 2e-10 - 1e-10j])
    def test_matches_theta_where_bare_shift_law_overflows(self, x):
        # from |x| ~ 5e9 at q = 0.5, x^k or q^(k(k-1)/2) leaves double range
        # while theta_q(x) itself does not
        qm = as_modulus(0.5)
        assert rel_err(_theta_circle(qm, abs(x))(x), theta(qm, x)) < 3e-15

    def test_huge_target_reaches_the_noise_floor(self):
        # the kernel now has a value at |t|/r = 5e9; the samples of a constant
        # integrand cancel far below their size, a typed error
        with pytest.raises(NoConvergence):
            qlaplace_minus(lambda tau: 1.0, as_modulus(0.5), 5e9)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0])
    def test_bad_modulus_is_domain_error(self, rho):
        with pytest.raises(DomainError):
            _theta_circle(as_modulus(0.5), rho)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_qlaplace_minus_matches_per_node_path(self, q):
        # reference: the full public theta and the two-argument product at
        # every node, through the same circle rule; where the samples cancel
        # (mean|sample| >> |value|) both paths carry that much rounding noise
        qm = as_modulus(q)
        r = default_radius(qm)
        rng = random.Random(f"per-node-{q}")

        def g(tau):
            q2t = qm.q2 * tau
            return 1 / qpochhammer_inf((-q2t, q2t), qm)

        for _ in range(40):
            t = cmath.rect(
                math.exp(rng.uniform(math.log(0.3), math.log(4.0))),
                rng.uniform(-math.pi, math.pi),
            )
            sizes = []

            def sample(angle):
                tau = r * cmath.exp(1j * angle)
                v = g(tau) * theta(qm, t / tau)
                sizes.append(abs(v))
                return v

            ref = transforms._circle_mean(sample, 1e-15)
            got = qlaplace_minus(lambda tau: g_borel_image(qm, tau), qm, t)
            cond = max(1.0, sum(sizes) / len(sizes) / abs(ref))
            assert rel_err(got, ref) < 1e-13 * cond

    @pytest.mark.parametrize("t", [math.nan, complex(math.inf, 1.0), complex(1.0, math.nan)])
    def test_non_finite_target_is_domain_error(self, t):
        with pytest.raises(DomainError):
            qlaplace_minus(lambda tau: 1.0, as_modulus(0.5), t)

    @pytest.mark.parametrize("r", [0.0, -1.0, 4.0, math.nan])
    def test_bad_radius_is_domain_error(self, r):
        with pytest.raises(DomainError):
            qlaplace_minus(lambda tau: 1.0, as_modulus(0.5), 1.0, r=r)

    def test_far_target_is_domain_error_as_in_theta(self):
        with pytest.raises(DomainError, match="out of double range"):
            qlaplace_minus(lambda tau: 1.0, as_modulus(0.5), 1e300)

    @pytest.mark.parametrize("x", [-2.0, -4.0, -0.5, -0.25, -32.0, -1 / 64])
    def test_exact_zero_on_the_zero_spiral(self, x):
        # every factor with |a q^n| >= 0.1 stays in the multiplied product, so
        # the zeros -q^Z of theta come out as exact zero factors
        assert _theta_circle(as_modulus(0.5), abs(x))(complex(x)) == 0

    def test_plain_loop_where_the_split_saves_nothing(self):
        # at q = 0.05, |x| = 1.6 the leading powers and the tail terms would
        # be no fewer than the powers of the plain loop, which runs instead
        qm = as_modulus(0.05)
        rho = 1.6
        x = rho * cmath.exp(0.7j)
        ref = Truncation(log=TermLog())
        qpochhammer_inf((qm.q, -x, -qm.q / x), qm, ref)
        got_log, want_log = TermLog(), TermLog()
        kernel = _theta_circle(qm, rho, Truncation(log=got_log))
        plain = running_theta_circle(qm, rho, Truncation(log=want_log))
        setup = got_log.terms
        assert kernel(x) == plain(x)
        assert 3 * (got_log.terms - setup) == 2 * ref.log.terms
        # (q;q)_inf by its own streak rule, as qpochhammer_inf takes it
        qq = TermLog()
        qpochhammer_inf(qm.q, qm, Truncation(log=qq))
        assert setup == qq.terms


ALIASED = (
    (0.92, 2540 * cmath.exp(0.3j)),
    (0.95, 154 * cmath.exp(0.3j)),
    (0.8, 50200 * cmath.exp(0.3j)),
)


def counted_borel_image(qm):
    """g_borel_image at base qm, and the list its calls are counted in."""
    calls = []

    def g(tau):
        calls.append(tau)
        return g_borel_image(qm, tau)

    return g, calls


def random_targets(seed, n):
    rng = random.Random(seed)
    return [
        cmath.rect(
            math.exp(rng.uniform(math.log(0.3), math.log(4.0))), rng.uniform(-math.pi, math.pi)
        )
        for _ in range(n)
    ]


class TestCircleRuleStart:
    """The circle rule starts at 32 nodes, or where the theta kernel's
    coefficients at twice the start are negligible; a comparison of N with
    2N nodes cannot see the coefficients both rules alias."""

    @pytest.mark.parametrize("q, t", ALIASED)
    def test_aliased_kernel_is_no_convergence(self, q, t):
        with pytest.raises(NoConvergence):
            qlaplace_minus(lambda tau: 1.0, as_modulus(q), t)

    def test_a_bare_32_node_start_returns_an_aliased_value(self):
        # the value is 1; the coefficients at +-64 of the kernel on
        # |x| = |t|/r lie some 1e112 above it and both of the first two
        # rules hold them
        q, t = ALIASED[2]
        qm = as_modulus(q)
        r = default_radius(qm)
        kernel = _theta_circle(qm, abs(t) / r)

        def sample(angle):
            return kernel(t / (r * cmath.exp(1j * angle)))

        assert abs(transforms._circle_mean(sample, 1e-15, start=32)) > 1e100
        assert transforms._kernel_start(qm, abs(t) / r, 1e-15) == 64

    @pytest.mark.parametrize("q, nodes", [(0.3, 64), (0.5, 64), (0.8, 128)])
    def test_node_counts_of_the_borel_image(self, q, nodes):
        qm = as_modulus(q)
        for t in random_targets(f"nodes-{q}", 20):
            g, calls = counted_borel_image(qm)
            qlaplace_minus(g, qm, t)
            assert len(calls) == nodes

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_residue_lemma_circles_take_64_nodes(self, q, monkeypatch):
        counts = []

        def counted_residue(f, center, radius, trunc=None):
            calls = []
            counts.append(calls)
            return contour_residue(lambda z: calls.append(z) or f(z), center, radius, trunc)

        monkeypatch.setattr(verify, "contour_residue", counted_residue)
        for lam in LAMBDAS:
            rep = verify.check(verify.IdentityCheck("residue-lemma", q, lam=lam))
            assert rep.passed
        assert counts and all(len(calls) == 64 for calls in counts)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.9, 0.95])
    def test_never_more_samples_than_a_64_node_start(self, q):
        qm = as_modulus(q)
        r = default_radius(qm)
        for t in random_targets(f"start-{q}", 8):
            g, calls = counted_borel_image(qm)
            kernel = _theta_circle(qm, abs(t) / r)
            ref_calls = []

            def sample(angle):
                tau = r * cmath.exp(1j * angle)
                ref_calls.append(tau)
                return g_borel_image(qm, tau) * kernel(t / tau)

            outcomes = []
            for run in (
                lambda: qlaplace_minus(g, qm, t),
                lambda: transforms._circle_mean(sample, 1e-15, start=64),
            ):
                try:
                    outcomes.append(run())
                except NoConvergence:
                    outcomes.append(None)
            assert len(calls) <= len(ref_calls)
            if len(calls) == len(ref_calls):
                assert outcomes[0] == outcomes[1]


class TestQLaplacePlus:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_inverts_borel_on_degree_30(self, qmod, lam):
        if abs(qmod.q - 0.3) < 1e-9:
            # the n -> -inf spiral tail of a degree-30 image leaves double
            # range at q=0.3 before its terms fall below tolerance
            order = 12
        else:
            order = 30
        p = random_series(qmod, order, 23)
        phi = qborel_plus(p)
        for x in (0.7 + 0.3j, 3.0 + 1.0j):
            got = qlaplace_plus(lambda xi: phi.evaluate(xi), qmod, lam, x)
            assert rel_err(got, p.evaluate(x)) < 1e-9

    def test_monomial_identity(self):
        qm = as_modulus(0.5)
        k = 7
        w = qm.q ** (k * (k - 1) // 2)
        got = qlaplace_plus(lambda xi: w * xi**k, qm, 0.7, 1.9 - 0.4j)
        assert rel_err(got, (1.9 - 0.4j) ** k) < 1e-12

    def test_exclusion_spiral_rejected(self, qmod):
        lam = 0.7
        with pytest.raises(SpiralProximity):
            qlaplace_plus(lambda xi: 1.0, qmod, lam, -lam * qmod.q**3)

    def test_zero_arguments_rejected(self, qmod):
        with pytest.raises(ZeroArgument):
            qlaplace_plus(lambda xi: 1.0, qmod, 0, 1.0)
        with pytest.raises(ZeroArgument):
            qlaplace_plus(lambda xi: 1.0, qmod, 0.7, 0)

    def test_overflowing_lower_tail_is_domain_error(self):
        # phi(0.7 q^-1) = 2.4e308 overflows, so the lower tail's terms are nan
        with pytest.raises(DomainError, match="out of double range"):
            qlaplace_plus(lambda s: 1e308 * (1 + s), 0.5, 0.7, 2.4)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.9])
    @pytest.mark.parametrize("lam", LAMBDAS, ids=["0.7", "1.3", "complex"])
    def test_constant_sums_to_one_within_theta_condition(self, q, lam):
        # the spiral weights are theta's own series terms at lambda/x over
        # theta_q(lambda/x), so phi = 1 sums to 1, within 64 ulp times the
        # condition of that series
        for x in verify.default_grid():
            _, cond = theta_sum_with_condition(q, lam / x)
            got = qlaplace_plus(lambda s: 1.0, q, lam, x)
            assert abs(got - 1) <= 64 * 2.0**-52 * cond, (x, got, cond)

    def test_spiral_power_out_of_range_is_domain_error(self):
        assert transforms._spiral_power(0.5 + 0j, -3) == 8
        with pytest.raises(DomainError, match="q\\^-1100 overflows"):
            transforms._spiral_power(0.5 + 0j, -1100)


class TestContourResidue:
    def test_simple_pole(self):
        got = contour_residue(lambda z: 1 / (z - 0.3), 0.3, 0.1)
        assert rel_err(got, 1.0) < 1e-12

    def test_pole_with_analytic_factor(self):
        c = 0.4 + 0.2j
        got = contour_residue(lambda z: cmath.exp(z) / (z - c), c, 0.15)
        assert rel_err(got, cmath.exp(c)) < 1e-12

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            contour_residue(lambda z: 1 / z, 0, 0)

    @pytest.mark.parametrize("radius", [0.0, -0.1, math.nan, math.inf])
    def test_bad_radius_is_domain_error(self, radius):
        with pytest.raises(DomainError):
            contour_residue(lambda z: 1 / z, 0, radius)

    def test_value_below_the_noise_floor_is_no_convergence(self):
        # samples of size 1e20 around a residue of 1: no digit of it survives
        with pytest.raises(NoConvergence):
            contour_residue(lambda z: 1 / z + 1e20 * (z / 0.1) ** 127, 0, 0.1)

    @pytest.mark.parametrize("f", [lambda z: 1.0, cmath.exp, lambda z: 1 / (z - 1)])
    def test_zero_residue_is_no_convergence(self, f):
        # f holomorphic at the center: the mean of f(c + w) w is cancellation
        # noise (or an exact 0), below the noise floor of the samples
        with pytest.raises(NoConvergence, match="noise floor"):
            contour_residue(f, 0, 0.1)

    def test_identically_zero_integrand_is_exact(self):
        # every sample is 0: nothing cancels, so 0 is exact, not noise
        assert contour_residue(lambda z: 0.0, 0, 0.1) == 0
        assert qlaplace_minus(lambda tau: 0j, 0.5, 1.3) == 0


class TestCoveringTransform:
    def test_identity_fixed(self):
        from qconnect import QDEOperator

        op = QDEOperator.identity()
        assert covering_transform(op).terms == op.terms

    def test_ramanujan_operator_image(self):
        q = 0.5
        cov = covering_transform(ramanujan_operator(q))
        assert cov.terms == ((2, q + 0j, 2), (0, -1 + 0j, 1), (0, 1 + 0j, 0))

    def test_covered_equation_annihilates_series_factor(self, qmod):
        # u(x) = A_{q^2}(-q^3 x) solves K x u(q^4 x) - u(q^2 x) + u(x) = 0
        # with K = -q^5 at base q^2; its covering v(t) = u(t^2) is killed by
        # the covering transform of that operator at base q.
        from qconnect import FormalSeries, apply_operator

        q = qmod.q
        K = -(q**5)
        op = covering_transform(ramanujan_operator(K))
        # v(t) coefficients: even entries of A_{q^2}(-q^3 t^2)
        order = 30 if abs(q) >= 0.5 else 22
        coeffs = [0j] * (order + 1)
        poch = 1 + 0j
        for m in range(order // 2 + 1):
            coeffs[2 * m] = q ** (2 * m * m + 3 * m) / poch
            poch *= 1 - q ** (2 * (m + 1))
        v = FormalSeries(qmod, tuple(coeffs))
        out = apply_operator(op, v)
        assert all(abs(c) <= 1e-14 for c in out.coeffs)

    def test_qairy_operator_image_doubles_monomials(self):
        cov = covering_transform(qairy_operator())
        assert cov.terms == ((0, 1 + 0j, 2), (2, 1 + 0j, 1), (0, -1 + 0j, 0))


# ---------------------------------------------------------------------------
# The theta kernel reads q^n from the base's table; its running-power form

REF_QS = (0.05, 0.3, 0.5, 0.8, 0.95, 0.6 * cmath.exp(2.1j), -0.7 + 0.1j)


def running_theta_circle(qm, rho, tr):
    """The per-circle kernel with its own list of running powers: the
    reference for _theta_circle."""
    qc = qm.q
    k = _theta_shift(qm, rho)
    qk = qc**k
    const = qpochhammer_inf(qc, qm, tr) * qc ** (k * (k - 1) // 2)
    avals = (qc, -qk * rho, -qc / (qk * rho))
    qn = 1 + 0j
    powers = []
    small = 0
    while small < tr.streak:
        powers.append(qn)
        small = small + 1 if max(abs(av * qn) for av in avals) < tr.eps else 0
        qn *= qc
        if len(powers) > tr.n_max:
            raise TruncationExceeded("reference kernel exceeded n_max")

    def value(x):
        x0 = qk * x
        y = qc / x0
        prod = 1 + 0j
        for qn in powers:
            prod *= (1 + x0 * qn) * (1 + y * qn)
        tr.note(2 * len(powers))
        return const * x**k * prod

    return value


class TestThetaCircleRunningPowers:
    @pytest.mark.parametrize("q", REF_QS)
    def test_kernel_bit_for_bit(self, q):
        # the kernel multiplies the leading powers and sums a log-series for
        # the rest of the product, so it is no longer bit-equal to the loop
        # over every power; both stay within a tenth of the a-priori rounding
        # bound against 34 digits, and the kernel notes no more factors; on a
        # fresh instance the first kernel builds the table of powers, a second
        # reuses it
        rng = random.Random(f"circle-{q}")
        for _ in range(6):
            rho = 10 ** rng.uniform(-1.5, 1.5)
            qm = as_modulus(q)
            got_log, want_log = TermLog(), TermLog()
            kernel = _theta_circle(qm, rho, Truncation(log=got_log))
            again = _theta_circle(qm, rho)
            ref = running_theta_circle(qm, rho, Truncation(log=want_log))
            for j in range(32):
                x = cmath.rect(rho, 2 * math.pi * j / 32)
                exact = decimal_theta(q, x)
                bound = 0.1 * theta_rounding_bound(q, x)
                got = kernel(x)
                assert decimal_rel_err(got, exact) < bound
                assert decimal_rel_err(ref(x), exact) < bound
                assert again(x) == got
            assert got_log.terms <= want_log.terms

    def test_overflowing_target_is_domain_error(self):
        with pytest.raises(DomainError, match="out of double range"):
            qlaplace_minus(lambda tau: 1.0, as_modulus(0.5), complex(1.7e308, 1.7e308))
