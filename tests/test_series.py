import cmath
import random
from math import log10

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconnect import (
    BaseMismatch,
    FormalSeries,
    IdentityCheck,
    QDEOperator,
    QModulus,
    apply_operator,
    as_modulus,
    borel_minus_operator_image,
    check,
    qairy_operator,
    qborel_minus,
    qborel_plus,
    ramanujan_operator,
)
from qconnect import qcore, verify
from qconnect.series import _series
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


# ---------------------------------------------------------------------------
# the per-coefficient path of the formal maps before the power table, copied
# here as the oracle of TestPowerTable: every weight is a bare q ** e or
# qcore._weighted; every series is built unchecked (series._series), since
# an oracle's coefficient may leave double range where the maps must end,
# and the public constructor refuses a coefficient that is not finite

_FLUSH = 1e-300
_LOG_CLIP = 307.0


def oracle_apply_operator(op, f):
    q = f.base.q
    big_m = op.max_monomial
    n_out = f.order - big_m
    if n_out < 0:
        raise ValueError("series order too small for the operator's monomials")
    out = [0 + 0j] * (n_out + 1)
    for m, c, l in op.terms:
        for n in range(m, n_out + 1):
            out[n] += c * q ** (l * (n - m)) * f.coeffs[n - m]
    return _series(f.base, tuple(out))


def oracle_reweight(f, sign):
    q = f.base.q
    lq = log10(abs(q))
    out = []
    for n, c in enumerate(f.coeffs):
        e = sign * (n * (n - 1) // 2)
        if c == 0 or e == 0:
            out.append(c)
            continue
        if log10(abs(c)) + e * lq > _LOG_CLIP:
            break
        v = qcore._weighted(c, q, e)
        if abs(v) < _FLUSH:
            break
        out.append(v)
    return _series(f.base, tuple(out))


def oracle_shift_coefficients(f, lpow):
    q = f.base.q
    return _series(
        f.base,
        tuple(
            qcore._weighted(c, q, lpow * n) if c != 0 else c for n, c in enumerate(f.coeffs)
        ),
    )


def oracle_image_sides(m, l, f):
    """Both sides of the operational relation before the common truncation;
    the rhs raises the bare error of its prefactor q^(-m(m-1)/2) where that
    leaves double range."""
    qc = f.base.q
    lhs = oracle_reweight(oracle_apply_operator(QDEOperator(((m, 1 + 0j, l),)), f), -1)
    g = oracle_shift_coefficients(oracle_reweight(f, -1), l - m)
    qf = qc ** (-(m * (m - 1) // 2))
    shifted = [0 + 0j] * m + [qf * c for c in g.coeffs]
    return lhs, _series(f.base, tuple(shifted[: f.order - m + 1]))


def series_bits(f):
    return [(c.real.hex(), c.imag.hex()) for c in f.coeffs]


def seeded_series(qm, order, seed, spread=0.0):
    """Unit-disc coefficients, every fifth one zero, each scaled by
    10^u with u uniform in [-spread, spread]."""
    rng = random.Random(seed)
    coeffs = []
    for n in range(order + 1):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.uniform(-spread, spread)
        coeffs.append(0j if n % 5 == 4 else c)
    return FormalSeries(qm, tuple(coeffs))


TABLE_QS = [0.05, 0.3, 0.8, 0.999, 1e-3, 0.48 + 0.36j, -0.7 + 0.1j]


class TestPowerTable:
    """The formal maps read q**e from the base's power table and give the
    bits of the oracle's per-coefficient path on every input it returns on."""

    @staticmethod
    def _inputs(qm):
        # unit coefficients, and coefficients spread over 1e-120..1e120, which
        # cross the reweights' 10^307 clip and 1e-300 flush from both sides
        return [seeded_series(qm, 60, 9173)] + [
            seeded_series(qm, 60, seed, spread=120.0) for seed in range(4)
        ]

    @pytest.mark.parametrize("q", TABLE_QS)
    def test_reweights_match_the_oracle(self, q):
        qm = QModulus(q)
        for f in self._inputs(qm) + [FormalSeries(qm, (1.0,) * 101)]:
            for sign, fn in ((+1, qborel_plus), (-1, qborel_minus)):
                assert series_bits(fn(f)) == series_bits(oracle_reweight(f, sign)), sign

    @pytest.mark.parametrize(
        "u, sign, cut",
        [(-48.5, 1, False), (-50.5, 1, True), (48.5, -1, False), (57.5, -1, True)],
    )
    def test_cuts_next_to_the_table_edge(self, u, sign, cut):
        # |q^190| = 10^(-249.85) at this base, just inside the table: a
        # coefficient 10^u at n = 20 is flushed or clipped by its own size
        qm = QModulus(10**-1.315)
        coeffs = [1.0] * 21
        coeffs[20] = 10**u * (0.6 - 0.8j)
        f = FormalSeries(qm, coeffs)
        fn = qborel_plus if sign > 0 else qborel_minus
        fn(FormalSeries(qm, [1.0] * 21))  # puts q^(sign 190) in the table
        assert sign * 190 in qm._pow_table
        g = fn(f)
        assert series_bits(g) == series_bits(oracle_reweight(f, sign))
        assert g.order == (19 if cut else 20)

    @pytest.mark.parametrize("q", TABLE_QS)
    def test_apply_operator_matches_the_oracle(self, q):
        qm = QModulus(q)
        ops = [
            QDEOperator(((0, 1, 0), (1, -0.5 + 0.2j, 2), (3, 0.3, 1), (2, 1.5j, 7))),
            QDEOperator(((2, 1, 10**9), (0, -1, 0))),
            QDEOperator(((4, 0, 3), (1, 2.5, 40))),
        ]
        for f in self._inputs(qm):
            for op in ops:
                got = apply_operator(op, f)
                assert series_bits(got) == series_bits(oracle_apply_operator(op, f))

    @pytest.mark.parametrize("q", TABLE_QS)
    def test_operator_image_matches_the_oracle(self, q):
        qm = QModulus(q)
        grid = [(m, l) for m in (0, 1, 2, 3, 5, 14, 15, 21, 23, 35) for l in (0, 1, 4, 10**9)]
        for f in self._inputs(qm)[:3]:
            for m, l in grid:
                lhs, rhs = borel_minus_operator_image(m, l, f)
                assert lhs.order == rhs.order
                assert all(map(cmath.isfinite, lhs.coeffs + rhs.coeffs)), (m, l)
                try:
                    want_lhs, want_rhs = oracle_image_sides(m, l, f)
                except ArithmeticError:  # the bare prefactor left double range
                    want_lhs = oracle_reweight(
                        oracle_apply_operator(QDEOperator(((m, 1 + 0j, l),)), f), -1
                    )
                    assert series_bits(lhs) == series_bits(want_lhs.prefix(lhs.order))
                    continue
                # the rhs ends before its first coefficient that is not finite
                finite = []
                for c in want_rhs.coeffs:
                    if not cmath.isfinite(c):
                        break
                    finite.append(c)
                n = min(want_lhs.order, len(finite) - 1)
                assert series_bits(lhs) == series_bits(want_lhs.prefix(n)), (m, l)
                assert series_bits(rhs) == series_bits(want_rhs.prefix(n)), (m, l)

    def test_chunked_weights_past_the_table(self):
        # at q = 0.05, n(n-1)/2 |log10 q| crosses 250 between n = 20 and 21,
        # and the reweight keeps n = 21 and 22, applied in chunks
        qm = QModulus(0.05)
        assert abs(190 * qm._log10_q) < qcore._WHOLE_POW_LOG <= abs(210 * qm._log10_q)
        f = seeded_series(qm, 40, 9173)
        g = qborel_minus(f)
        assert g.order == 22
        assert series_bits(g) == series_bits(oracle_reweight(f, -1))
        assert -210 not in qm._pow_table and -190 in qm._pow_table

    def test_table_holds_pow_bits(self):
        qm = QModulus(0.48 + 0.36j)
        f = seeded_series(qm, 40, 1)
        qborel_minus(apply_operator(QDEOperator(((1, 1, 3),)), f))
        assert qm._pow_table
        for e, w in qm._pow_table.items():
            assert (w.real.hex(), w.imag.hex()) == ((qm.q**e).real.hex(), (qm.q**e).imag.hex())
            assert abs(e * qm._log10_q) < qcore._WHOLE_POW_LOG

    def test_table_stays_bounded_under_a_huge_shift(self):
        qm = QModulus(0.5)
        f = seeded_series(qm, 40, 9173)
        apply_operator(QDEOperator(((2, 1, 10**9),)), f)
        borel_minus_operator_image(0, 10**9, f)
        borel_minus_operator_image(3, 10**9, f)
        rep = check(IdentityCheck("operational-lemma", qm, grid=(1e9j, 3 + 1e9j)))
        assert all(p.skipped for p in rep.points)
        # the exponents asked for are n(n-1)/2 of the reweights and 0: one
        # entry each, none of the multiples of 10^9
        assert len(qm._pow_table) <= 2 * (f.order + 1)
        assert all(abs(e * qm._log10_q) < qcore._WHOLE_POW_LOG for e in qm._pow_table)

    def test_maps_build_complex_tuples(self):
        qm = QModulus(0.5)
        f = FormalSeries(qm, [1, 2.5, 3j])
        assert f.coeffs == (1 + 0j, 2.5 + 0j, 3j)
        with pytest.raises(ValueError):
            FormalSeries(qm, ["one"])
        for g in (
            qborel_minus(f),
            qborel_plus(f),
            apply_operator(QDEOperator.sigma(2), f),
            f.prefix(1),
            f.scale(2),
            f + f,
            *borel_minus_operator_image(1, 2, f),
        ):
            assert type(g) is FormalSeries and type(g.coeffs) is tuple
            assert all(type(c) is complex for c in g.coeffs)


class TestOperatorImageAtTheEdgeOfDoubleRange:
    """Where the prefactor q^(-m(m-1)/2), or the image's inverse shift,
    leaves double range, both sides end at their representable prefix."""

    @pytest.mark.parametrize(
        "q, m, l",
        [(0.05, 23, 0), (0.3, 35, 0), (1e-3, 15, 0), (1e-60, 5, 0), (1e-8, 5, 5)],
    )
    def test_finite_sides(self, q, m, l):
        f = seeded_series(as_modulus(q), 40, 9173)
        lhs, rhs = borel_minus_operator_image(m, l, f)
        assert lhs.order == rhs.order
        assert all(map(cmath.isfinite, lhs.coeffs + rhs.coeffs))

    def test_rhs_ends_before_its_overflow(self):
        # B_q^- f at q = 1e-8 holds coefficients near 1e288, which the
        # prefactor q^(-10) = 1e80 takes past double range at index 14
        f = verify._random_series(as_modulus(1e-8), 40, seed=9173)  # operational-lemma's
        _, full_rhs = oracle_image_sides(5, 5, f)
        assert not cmath.isfinite(full_rhs.coeffs[14])
        assert all(map(cmath.isfinite, full_rhs.coeffs[:14]))
        lhs, rhs = borel_minus_operator_image(5, 5, f)
        assert rhs.order == lhs.order == 13
        assert series_bits(rhs) == series_bits(full_rhs.prefix(13))
