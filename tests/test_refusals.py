"""Parameters the package cannot take reach the user as typed errors.

A spiral anchor lambda of 0 or not finite, or one whose phi(lambda) =
1/(lambda/q; q)_inf or theta_q(-lambda/q) cannot be formed in double
range, a Watson a, b or c that is 0 or
not finite, an r_phi_s parameter that is not finite, a base whose square
underflows to 0 where an identity evaluates at base q^2, and a formal
series or operator coefficient out of double range each raise a
:class:`~qconnect.errors.DomainError` that names the parameter, on which
the CLI exits 3 with no traceback.  A Watson abc that is not three values
is a usage error (``ValueError``), and a formal series given a bare base
validates it as a :class:`QModulus`.  A contour radius that is no real
number is a :class:`~qconnect.errors.DomainError` naming it, a Borel image
whose value does not multiply the theta kernel's is a
:class:`~qconnect.errors.PoleOnContour` naming the node's angle, and the
residue sum and the contour at infinity name their t, not the series
argument 1/t or the theta arguments +-1/(q t) and t/tau.
"""

import math
import re
from decimal import Decimal

import pytest

from qconnect import (
    DomainError,
    FormalSeries,
    IdentityCheck,
    PoleOnContour,
    QDEOperator,
    ZeroArgument,
    as_modulus,
    check,
    contour_residue,
    f_via_residues,
    qborel_minus,
    qborel_plus,
    qpochhammer_inf_shifted_pole,
    qlaplace_minus,
    qlaplace_plus,
    rphis,
    two_f_zero,
    two_f_zero_closed,
)
from qconnect.cli import main
from qconnect.qcore import Spiral

ZERO_LAMBDA = "^the spiral anchor lambda must be nonzero$"
NON_FINITE = [complex(math.nan, 0.0), complex(0.7, math.inf), complex(-math.inf, 0.0)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLambda:
    @pytest.mark.parametrize(
        "form",
        [two_f_zero, two_f_zero_closed, lambda q, lam, k: qpochhammer_inf_shifted_pole(lam, q, k)],
        ids=["two_f_zero", "two_f_zero_closed", "qpochhammer_inf_shifted_pole"],
    )
    def test_zero_lambda_is_a_zero_argument(self, form):
        with pytest.raises(ZeroArgument, match=ZERO_LAMBDA):
            form(0.5, 0, 2)
        with pytest.raises(ZeroArgument, match=ZERO_LAMBDA):
            form(0.5, -0j, 2)

    @pytest.mark.parametrize("ident", ["thm-2f0", "qde-2f0-resummed"])
    def test_zero_lambda_refused_by_check(self, ident):
        with pytest.raises(ZeroArgument, match=ZERO_LAMBDA):
            check(IdentityCheck(ident, 0.5, lam=0))

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_non_finite_lambda_is_named(self, lam):
        name = f"lambda={lam!r}"
        for call in (
            lambda: two_f_zero(0.5, lam, 1.3),
            lambda: two_f_zero_closed(0.5, lam, 1.3),
            lambda: qpochhammer_inf_shifted_pole(lam, 0.5, 2),
            lambda: check(IdentityCheck("thm-2f0", 0.5, lam=lam)),
            lambda: check(IdentityCheck("qde-2f0-resummed", 0.5, lam=lam)),
            lambda: qlaplace_plus(lambda s: 1.0, 0.5, lam, 1.3),
        ):
            with pytest.raises(DomainError) as info:
                call()
            assert name in str(info.value) and "x=" not in str(info.value)

    @pytest.mark.parametrize(
        "q, lam",
        [(0.5, 1e308), (1e-200, 3e200), (0.5, -1e308j), (0.5, 1e200), (0.5, 1e300), (0.9, 1e150)],
    )
    def test_lambda_whose_phi_leaves_range_is_named(self, q, lam):
        # lambda/q or the product (lambda/q; q)_inf overflows, so phi(lambda)
        # cannot be formed: the refusal names lambda, not the product's argument
        message = rf"^lambda={re.escape(repr(lam))} is out of double range for phi\(lambda\)"
        with pytest.raises(DomainError, match=message):
            two_f_zero(q, lam, 1.3)

    @pytest.mark.parametrize(
        "q, lam",
        [(0.5, 1e308), (0.5, -1e308j), (0.5, 1e200), (0.5, 1e300), (0.5, 1e-300), (0.9, 1e150)],
    )
    def test_lambda_whose_theta_leaves_range_is_named(self, q, lam):
        # -lambda/q or its theta leaves double range: the refusal names lambda,
        # not x, which the closed form's theta_q(-lambda/q) does not read
        message = rf"^lambda={re.escape(repr(lam))} is out of double range for theta_q\(-lambda/q\)"
        with pytest.raises(DomainError, match=message) as info:
            two_f_zero_closed(q, lam, 1.3)
        assert "x=" not in str(info.value)

    def test_base_whose_qq_underflows_is_not_blamed_on_lambda(self):
        # (q;q)_inf underflows from |q| ~ 0.9978 on, at every lambda: the
        # refusal names q's product, not lambda
        with pytest.raises(DomainError, match=r"^a=\(0\.999\+0j\) .* underflows$"):
            two_f_zero_closed(0.999, 0.5, 1.3)

    @pytest.mark.parametrize("ident", ["thm-2f0", "qde-2f0-resummed"])
    def test_lambda_whose_phi_leaves_range_is_the_skip_reason(self, ident):
        # lambda/q overflows (1e308) or the product does (1e200)
        for lam in (1e308, 1e200):
            rep = check(IdentityCheck(ident, 0.5, lam=lam, grid=(1.3,)))
            [p] = rep.points
            assert p.skipped and p.reason.startswith(
                f"lambda={complex(lam)!r} is out of double range for phi(lambda)"
            )

    def test_lambda_whose_phi_leaves_range_exits_3(self, capsys):
        for fn in ("2f0", "2f0-closed"):
            for lam in (1e308, 1e200):
                code, out, err = run_cli(capsys, "eval", fn, "--q", "0.5", "--lambda", str(lam), "--x", "1.3")
                assert code == 3 and not out
                assert err.startswith(f"domain error: lambda={complex(lam)!r} is out of double range")

    def test_spiral_exclusion_names_its_argument(self):
        spiral = Spiral(1 + 0j, as_modulus(0.5))
        with pytest.raises(DomainError, match=r"got t=\(nan\+0j\)"):
            spiral.exclude(complex(math.nan, 0.0), "t")
        with pytest.raises(DomainError, match=r"got x=inf"):
            spiral.exclude(math.inf)
        with pytest.raises(DomainError, match=r"got anchor=nan$"):
            Spiral(math.nan, as_modulus(0.5)).exclude(1.0)
        with pytest.raises(DomainError, match=r"got center=nan$"):
            contour_residue(lambda z: 1 / z, math.nan, 0.1)

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "thm-2f0", "--q", "0.5", "--lambda", "0"),
            ("check", "qde-2f0-resummed", "--q", "0.5", "--lambda", "0"),
            ("eval", "2f0-closed", "--q", "0.5", "--lambda", "0", "--x", "1.3"),
            ("eval", "2f0", "--q", "0.5", "--lambda", "0", "--x", "1.3"),
        ],
    )
    def test_cli_exits_3(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert err == "domain error: the spiral anchor lambda must be nonzero\n"


class TestWatsonParameters:
    @pytest.mark.parametrize("abc", [(1, 2), (1, 2, 3, 4), ()])
    def test_not_three_values(self, abc):
        with pytest.raises(ValueError, match=r"needs the \(a, b, c\) parameters"):
            check(IdentityCheck("watson", 0.5, abc=abc))

    @pytest.mark.parametrize(
        "abc, name",
        [
            ((math.nan, 2, 3), "a"),
            ((1, complex(0, math.inf), 3), "b"),
            ((1, 2, -math.inf), "c"),
            ((1, 2, complex(1.7e308, 1.7e308)), "c"),
        ],
    )
    def test_non_finite_value_is_named(self, abc, name):
        with pytest.raises(DomainError, match=rf"\b{name}="):
            check(IdentityCheck("watson", 0.5, abc=abc))

    @pytest.mark.parametrize(
        "abc, name", [((0, 3, 0.5), "a"), ((-4, 0j, 0.5), "b"), ((-4, 3, 0), "c")]
    )
    def test_zero_value_is_named(self, capsys, abc, name):
        # the connection side divides by a, b and c
        with pytest.raises(ZeroArgument, match=rf"needs a nonzero {name}, got {name}=0"):
            check(IdentityCheck("watson", 0.5, abc=abc))
        text = ",".join(str(complex(v).real) for v in abc)
        code, _, err = run_cli(capsys, "check", "watson", "--q", "0.5", f"--abc={text}")
        assert code == 3 and err.startswith("domain error: the watson identity needs a nonzero")


class TestSeriesParameters:
    @pytest.mark.parametrize(
        "upper, lower, x, name",
        [
            ((math.nan,), (), 0.3, "upper parameter"),
            ((0.2,), (math.nan,), 0, "lower parameter"),
            ((0.2, complex(1.0, math.inf)), (0.5,), 0.3, "upper parameter"),
            ((0.2,), (0.5, -math.inf), 0.3, "lower parameter"),
        ],
    )
    def test_non_finite_parameter_is_named(self, upper, lower, x, name):
        # the nan is a parameter, not the point x, which is finite here
        with pytest.raises(DomainError) as info:
            rphis(upper, lower, 0.5, x)
        msg = str(info.value)
        assert f"got {name}=" in msg and "x=" not in msg

    def test_spiral_half_hit_names_its_argument(self):
        spiral = Spiral(1 + 0j, as_modulus(0.5))
        with pytest.raises(DomainError, match=r"got b=\(nan\+0j\)"):
            spiral.half_hit(complex(math.nan, 0.0), "b")
        with pytest.raises(DomainError, match=r"got x=inf"):
            spiral.half_hit(math.inf)


class TestBaseSquareUnderflows:
    """The identities that evaluate at base q^2 refuse a q whose square
    underflows to 0 (|q| below about 1.57e-162) before any point; where q^2
    is subnormal but nonzero, their reports stand as they were."""

    IDENTS = ["ismail-zhang", "lemma-alt", "thm-ramanujan-qairy", "thm-2f0"]

    @pytest.mark.parametrize("ident", IDENTS)
    def test_refused_by_check(self, ident):
        with pytest.raises(DomainError, match=r"q=\(1\.5e-162\+0j\) .* q\^2 underflows to 0$"):
            check(IdentityCheck(ident, 1.5e-162, lam=0.7))

    @pytest.mark.parametrize("ident", IDENTS)
    def test_cli_exits_3(self, capsys, ident):
        code, out, err = run_cli(capsys, "check", ident, "--q", "1.5e-162", "--lambda", "0.7")
        assert code == 3 and not out
        assert err.startswith("domain error: q=(1.5e-162+0j)") and "Traceback" not in err

    @pytest.mark.parametrize(
        "ident, q, evaluated",
        [
            ("ismail-zhang", 1.6e-162, 8),
            ("ismail-zhang", 1e-160, 16),
            ("lemma-alt", 1.6e-162, 24),
            ("lemma-alt", 1e-160, 24),
            ("thm-ramanujan-qairy", 1.6e-162, 24),
            ("thm-ramanujan-qairy", 1e-160, 24),
            ("thm-2f0", 1.6e-162, 24),
            ("thm-2f0", 1e-160, 24),
        ],
    )
    def test_reports_above_the_underflow(self, ident, q, evaluated):
        rep = check(IdentityCheck(ident, q, lam=0.7))
        assert rep.passed and rep.n_evaluated == evaluated
        assert not any("q^2 underflows" in p.reason for p in rep.points if p.skipped)


class TestFormalInputs:
    def test_bare_base_is_a_modulus(self):
        f = FormalSeries(0.5, (1, 2, 3))
        assert f.base == as_modulus(0.5)
        g = FormalSeries(as_modulus(0.5), (1, 2, 3))
        assert qborel_minus(f).coeffs == qborel_minus(g).coeffs
        assert qborel_plus(f).coeffs == qborel_plus(g).coeffs
        with pytest.raises(ValueError, match=r"0 < \|q\| < 1"):
            FormalSeries(1.5, (1, 2))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (complex(1.7e308, 1.7e308), r"c_2=\(1\.7e\+308\+1\.7e\+308j\) is out of double range"),
            (complex(math.nan, 0.0), r"got c_2=\(nan\+0j\)"),
            (complex(1.0, -math.inf), r"got c_2=\(1-infj\)"),
        ],
        ids=["modulus-overflows", "nan", "infinite-part"],
    )
    def test_coefficient_out_of_range(self, bad, message):
        with pytest.raises(DomainError, match=message):
            FormalSeries(as_modulus(0.5), (1, 2, bad, 4))

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), math.inf])
    def test_operator_coefficient_out_of_range(self, bad):
        with pytest.raises(DomainError, match=r"q-difference operator needs a finite argument"):
            QDEOperator(((0, bad, 1),))
        with pytest.raises(DomainError):
            QDEOperator.identity().scale(bad)


class TestContour:
    @pytest.mark.parametrize("radius", [1j, 0.5 + 0j, None, "0.5", Decimal("0.5")])
    def test_radius_that_is_no_real_number_is_named(self, radius):
        with pytest.raises(DomainError, match=rf"got {re.escape(repr(radius))}$"):
            contour_residue(lambda z: 1 / z, 0, radius)
        if radius is not None:  # None is qlaplace_minus's default radius
            with pytest.raises(DomainError, match=rf"got r={re.escape(repr(radius))}$"):
                qlaplace_minus(lambda s: 1.0, 0.5, 1.0, r=radius)

    @pytest.mark.parametrize("value", [None, "1", [1.0]])
    def test_borel_image_value_that_does_not_multiply_names_its_node(self, value):
        with pytest.raises(PoleOnContour, match="at angle 0.000000: "):
            qlaplace_minus(lambda s: value, 0.5, 1.0)

    def test_theta_kernel_errors_stay_domain_errors(self):
        # the kernel on |x| = 1e200 overflows; g is never the cause
        for g in (lambda s: 1.0, lambda s: None):
            with pytest.raises(DomainError, match="out of double range for theta"):
                qlaplace_minus(g, 0.5, 1e200)

    @pytest.mark.parametrize("t", [1e200, -3e250j, 1e307])
    def test_theta_kernel_refusal_names_t(self, t):
        # the kernel's argument t/tau is no argument the caller passed
        with pytest.raises(DomainError) as exc:
            qlaplace_minus(lambda s: 1.0, 0.5, t)
        assert str(exc.value).startswith(f"t={t!r} is out of double range")
        assert "x=" not in str(exc.value)


class TestResidueSum:
    @pytest.mark.parametrize("t", NON_FINITE)
    def test_non_finite_t_is_named(self, t):
        with pytest.raises(DomainError, match=r"^the residue sum needs a finite argument, got t="):
            f_via_residues(0.5, t)

    @pytest.mark.parametrize("t", [1e300, -2e300j, 1.5e308])
    def test_t_whose_theta_leaves_range_is_named(self, t):
        # theta_q(+-q^2 t), taken as theta_q(+-x/q) at x = 1/t, leaves double
        # range: x/q is no argument the caller passed
        with pytest.raises(DomainError) as exc:
            f_via_residues(0.5, t)
        assert str(exc.value).startswith(f"t={t!r} is out of double range")
        assert "x=" not in str(exc.value)

    @pytest.mark.parametrize("t", [1e-300, -1e-300j, 5e-324])
    def test_t_whose_reciprocal_overflows_the_series_is_named(self, t):
        with pytest.raises(DomainError, match=rf"^t={re.escape(repr(t))} is out of double range"):
            f_via_residues(0.5, t)
