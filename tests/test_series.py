import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconnect import (
    BaseMismatch,
    FormalSeries,
    QDEOperator,
    apply_operator,
    as_modulus,
    borel_minus_operator_image,
    qairy_operator,
    qborel_minus,
    qborel_plus,
    ramanujan_operator,
)
from conftest import ramanujan_coeffs, random_series, rel_err


def gaussian_order_cap(q: complex, budget: float = 280.0) -> int:
    """Largest n with |q|^(n^2) above the representable coefficient band."""
    import math

    return int(math.sqrt(budget / abs(math.log10(abs(q)))))


def coeff_rel(a: FormalSeries, b: FormalSeries) -> float:
    n = min(a.order, b.order)
    worst = 0.0
    for i in range(n + 1):
        m = max(abs(a.coeffs[i]), abs(b.coeffs[i]))
        if m > 0:
            worst = max(worst, abs(a.coeffs[i] - b.coeffs[i]) / m)
    return worst


class TestFormalSeries:
    def test_needs_constant(self):
        with pytest.raises(ValueError):
            FormalSeries(as_modulus(0.5), ())

    def test_base_mismatch(self):
        f = FormalSeries(as_modulus(0.5), (1, 2))
        g = FormalSeries(as_modulus(0.3), (1, 2))
        with pytest.raises(BaseMismatch):
            f + g

    def test_arithmetic_truncates_to_min_order(self):
        qm = as_modulus(0.5)
        f = FormalSeries(qm, (1, 2, 3))
        g = FormalSeries(qm, (1, 1))
        assert (f + g).coeffs == (2 + 0j, 3 + 0j)
        assert (f - g).coeffs == (0 + 0j, 1 + 0j)

    def test_evaluate_horner(self):
        f = FormalSeries(as_modulus(0.5), (1, -2, 3))
        x = 0.4 + 0.1j
        assert rel_err(f.evaluate(x), 1 - 2 * x + 3 * x * x) < 1e-15

    def test_prefix(self):
        f = FormalSeries(as_modulus(0.5), (1, 2, 3, 4))
        assert f.prefix(1).coeffs == (1 + 0j, 2 + 0j)
        with pytest.raises(ValueError):
            f.prefix(9)


class TestQDEOperator:
    def test_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            QDEOperator(((-1, 1, 0),))
        with pytest.raises(ValueError):
            QDEOperator(((0, 1, -2),))

    def test_identity_application(self, qmod):
        f = random_series(qmod, 12, 5)
        out = apply_operator(QDEOperator.identity(), f)
        assert out.coeffs == f.coeffs

    def test_sigma_on_linear(self):
        qm = as_modulus(0.5)
        f = FormalSeries(qm, (1, 1))
        out = apply_operator(QDEOperator.sigma(), f)
        assert out.coeffs == (1 + 0j, 0.5 + 0j)

    def test_monomial_shifts_and_truncates(self):
        qm = as_modulus(0.5)
        f = FormalSeries(qm, (1, 2, 3))
        out = apply_operator(QDEOperator(((1, 1 + 0j, 0),)), f)
        # order drops by the monomial degree
        assert out.order == 1
        assert out.coeffs == (0 + 0j, 1 + 0j)

    def test_ramanujan_operator_annihilates_series(self, qmod):
        f = FormalSeries(qmod, ramanujan_coeffs(qmod, 40))
        out = apply_operator(ramanujan_operator(qmod.q), f)
        scale = max(abs(c) for c in f.coeffs)
        assert all(abs(c) <= 1e-14 * scale for c in out.coeffs)

    def test_qairy_operator_annihilates_series(self, qmod):
        # Ai_q coefficients: (-1)^n q^(n(n-1)/2) (-1)^n / ((-q,q;q)_n) = q^(n(n-1)/2)/((-q;q)_n (q;q)_n)
        q = qmod.q
        coeffs = []
        poch = 1 + 0j
        for n in range(41):
            coeffs.append(q ** (n * (n - 1) // 2) / poch)
            poch *= (1 + q ** (n + 1)) * (1 - q ** (n + 1))
        f = FormalSeries(qmod, tuple(coeffs))
        out = apply_operator(qairy_operator(), f)
        assert all(abs(c) <= 1e-14 for c in out.coeffs)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.complex_numbers(max_magnitude=3, allow_nan=False))
    def test_linearity(self, seed, a):
        qm = as_modulus(0.5)
        f = random_series(qm, 15, seed)
        g = random_series(qm, 15, seed + 1)
        op = QDEOperator(((1, 0.3 - 0.1j, 2), (0, -1 + 0j, 1), (0, 1 + 0j, 0)))
        lhs = apply_operator(op, f.scale(a) + g)
        rhs = apply_operator(op, f).scale(a) + apply_operator(op, g)
        assert coeff_rel(lhs, rhs) < 1e-13


class TestBorelReweights:
    def test_low_order_weights_are_unity(self, qmod):
        f = FormalSeries(qmod, (2 + 1j, -3))
        assert qborel_plus(f).coeffs == f.coeffs
        assert qborel_minus(f).coeffs == f.coeffs

    def test_minus_weight_value(self):
        qm = as_modulus(0.5)
        f = FormalSeries(qm, (0, 0, 1))
        # n=2 weight q^-1
        assert qborel_minus(f).coeffs[2] == pytest.approx(2.0)
        assert qborel_plus(f).coeffs[2] == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_on_degree_30(self, qmod, seed):
        f = random_series(qmod, 30, seed)
        assert coeff_rel(qborel_plus(qborel_minus(f)), f) < 1e-13
        assert coeff_rel(qborel_minus(qborel_plus(f)), f) < 1e-13

    def test_minus_clips_to_valid_prefix(self):
        qm = as_modulus(0.3)
        f = random_series(qm, 64, 2)
        g = qborel_minus(f)
        assert g.order < 64
        # the surviving prefix agrees with an unclipped lower-order transform
        h = qborel_minus(f.prefix(g.order))
        assert coeff_rel(g, h) == 0.0

    def test_plus_flushes_underflow(self):
        qm = as_modulus(0.3)
        f = FormalSeries(qm, tuple([1.0] * 101))
        g = qborel_plus(f)
        # the series ends before the first coefficient that would underflow
        assert g.order < 100
        assert all(c != 0 for c in g.coeffs)
        h = qborel_plus(f.prefix(g.order))
        assert h.order == g.order
        assert coeff_rel(g, h) == 0.0


class TestOperationalRelation:
    def test_m_zero_is_plain_shift(self, qmod):
        f = random_series(qmod, 20, 11)
        lhs, rhs = borel_minus_operator_image(0, 1, f)
        assert coeff_rel(lhs, rhs) < 5e-16

    def test_on_entire_solution_series(self, qmod):
        order = min(30, gaussian_order_cap(qmod.q))
        f = FormalSeries(qmod, ramanujan_coeffs(qmod, order))
        lhs, rhs = borel_minus_operator_image(1, 2, f)
        assert coeff_rel(lhs, rhs) < 1e-13

    def test_on_random_degree_20(self, qmod):
        f = random_series(qmod, 20, 3)
        lhs, rhs = borel_minus_operator_image(2, 2, f)
        assert coeff_rel(lhs, rhs) < 1e-13

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("l", range(6))
    def test_exact_for_small_powers(self, m, l):
        # includes l < m, where the inverse shift acts on coefficients
        qm = as_modulus(0.5)
        f = random_series(qm, 40, 17)
        lhs, rhs = borel_minus_operator_image(m, l, f)
        assert lhs.order == rhs.order == 40 - m
        assert coeff_rel(lhs, rhs) < 1e-13


class TestCoveringImageFirstOrderEquation:
    def test_borel_image_of_covered_equation(self, qmod):
        # f(t) = Sum q^(2m^2+3m)/(q^2;q^2)_m t^(2m); its second-kind Borel
        # image g must satisfy g(q tau) = (1 - q^4 tau^2) g(tau), i.e.
        # q^n g_n = g_n - q^4 g_{n-2}, and equals q^(4m)/(q^2;q^2)_m at n=2m.
        q = qmod.q
        mmax = min(20, gaussian_order_cap(q) // 2)
        coeffs = [0j] * (2 * mmax + 1)
        poch = 1 + 0j
        for m in range(mmax + 1):
            coeffs[2 * m] = q ** (2 * m * m + 3 * m) / poch
            poch *= 1 - q ** (2 * (m + 1))
        g = qborel_minus(FormalSeries(qmod, tuple(coeffs)))
        poch = 1 + 0j
        for m in range(g.order // 2 + 1):
            want = q ** (4 * m) / poch
            assert rel_err(g.coeffs[2 * m], want) < 1e-13
            poch *= 1 - q ** (2 * (m + 1))
        for n in range(2, g.order + 1):
            lhs = q**n * g.coeffs[n]
            rhs = g.coeffs[n] - q**4 * g.coeffs[n - 2]
            assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), abs(rhs), 1.0)
