import math
import random
from decimal import Decimal, localcontext

import pytest

from qconnect import FormalSeries, QModulus, as_modulus


def rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def random_series(base: QModulus, order: int, seed: int) -> FormalSeries:
    rng = random.Random(seed)
    return FormalSeries(
        base,
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(order + 1)),
    )


def ramanujan_coeffs(qm: QModulus, order: int) -> tuple[complex, ...]:
    """Maclaurin coefficients of A_q: c_n = q^(n^2) (-1)^n / (q;q)_n."""
    q = qm.q
    out = []
    poch = 1 + 0j
    for n in range(order + 1):
        out.append(q ** (n * n) * (-1) ** n / poch)
        poch *= 1 - q ** (n + 1)
    return tuple(out)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def decimal_theta(q, x):
    """theta_q(x) = sum_n q^(n(n-1)/2) x^n to 34 digits, as the pair (real
    part, imaginary part) of decimals.

    The sum cancels its largest term, the one at the integer n nearest
    1/2 - log|x| / log|q|, down to the value (near the zeros, and on the
    negative axis as |q| nears 1), so it is summed again with as many more
    digits as it lost."""
    q, x = complex(q), complex(x)
    log_q, log_x = math.log(abs(q)), math.log(abs(x))
    n = round(0.5 - log_x / log_q)
    log10_peak = (n * (n - 1) / 2 * log_q + n * log_x) / math.log(10)
    lost = 0
    while True:
        with localcontext() as ctx:
            ctx.prec = 39 + lost
            one = (Decimal(1), Decimal(0))
            qd = (Decimal(q.real), Decimal(q.imag))
            xd = (Decimal(x.real), Decimal(x.imag))
            m2 = xd[0] ** 2 + xd[1] ** 2
            tiny = Decimal(10) ** (math.floor(log10_peak) - ctx.prec - 2)
            total = one
            # term ratios q^n x upward (n = 0, 1, ...), q^m / x downward (m = 1, 2, ...)
            for ratio, power in ((xd, one), ((xd[0] / m2, -xd[1] / m2), qd)):
                term = one
                while abs(term[0]) + abs(term[1]) >= tiny:
                    term = _cmul(term, _cmul(power, ratio))
                    total = (total[0] + term[0], total[1] + term[1])
                    power = _cmul(power, qd)
            size = (total[0] ** 2 + total[1] ** 2).sqrt()
        now_lost = math.ceil(log10_peak - float(size.log10()))
        if now_lost <= lost:
            return total
        lost = now_lost


def decimal_rel_err(value, exact):
    with localcontext() as ctx:
        ctx.prec = 40
        dr, di = Decimal(value.real) - exact[0], Decimal(value.imag) - exact[1]
        return float((dr * dr + di * di).sqrt() / (exact[0] ** 2 + exact[1] ** 2).sqrt())


def theta_rounding_bound(q, x):
    """A-priori relative rounding bound 4 ulp (cond + 4 k^2) of theta_q(x) by
    the shifted triple product: cond sums 1 + |a q^n| / |1 - a q^n| over the
    factors of (q, -x, -q/x; q)_inf, and the shift-law powers x^k and
    q^(k(k-1)/2) add a few ulp per unit of |k|."""
    cond = 0.0
    for a in (q, -x, -q / x):
        aq = complex(a)
        while abs(aq) > 1e-18:
            cond += 1.0 + abs(aq) / max(abs(1 - aq), 1e-300)
            aq *= q
        cond += 1.0
    k = round(-math.log(abs(x)) / math.log(abs(q)))
    return 4 * 2.0**-52 * (cond + 4.0 * k * k)


@pytest.fixture(params=[0.3, 0.5, 0.8], ids=lambda q: f"q={q}")
def qmod(request) -> QModulus:
    return as_modulus(request.param)
