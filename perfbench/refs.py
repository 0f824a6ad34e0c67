"""High-precision references computed with mpmath, apart from the program.

Every reference returns ``(value, cond)``: the value at ``DPS`` significant
digits, and an a-priori bound on how many units in the last place a careful
double-precision evaluation may lose (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 3 and 4).  A program value passes when its
relative error is at most ``ULP_FACTOR * ulp * cond``:

* products (a_1..a_m; q)_inf: each factor 1 - a q^k carries a rounding error
  of about ulp * |a q^k| / |1 - a q^k| relative, and each multiplication one
  ulp, so cond = sum_k (1 + |a q^k| / |1 - a q^k|);
* series sum t_n: term n is built by n multiplications from term 0 and the
  summation cancels sum|t_n| down to |sum t_n|, so
  cond = sum_n (n + 1) |t_n| / |sum t_n|.

Nothing here imports ``qconnect``; the references never see the program's
output.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

DPS = 34
ULP = 2.0**-52
#: safety factor over the a-priori rounding bound
ULP_FACTOR = 4.0

mp.mp.dps = DPS


def tolerance(cond: float) -> float:
    return ULP_FACTOR * ULP * cond


def rel_err(value: complex, ref) -> float:
    ref = mp.mpc(ref)
    if ref == 0:
        return 0.0 if value == 0 else math.inf
    return float(abs(mp.mpc(value) - ref) / abs(ref))


def digits(err: float) -> float:
    """Correct significant digits, -log10(relative error), capped at 16."""
    if err <= 1e-16:
        return 16.0
    return min(16.0, -math.log10(err))


def _product_cond(a: complex, q: complex) -> float:
    cond = 0.0
    aq = complex(a)
    while abs(aq) > 1e-18:
        cond += 1.0 + abs(aq) / max(abs(1 - aq), 1e-300)
        aq *= q
    return cond + 1.0


def _mpq(q):
    return mp.mpf(q) if isinstance(q, float) else mp.mpc(q)


_QQ: dict = {}


def qpoch(avals, q):
    """(a_1, ..., a_m; q)_inf via ``mpmath.qp``."""
    value = mp.mpc(1)
    cond = 0.0
    for a in avals:
        if a == q:
            if q not in _QQ:
                _QQ[q] = mp.qp(_mpq(q), _mpq(q))
            value *= _QQ[q]
        else:
            value *= mp.qp(mp.mpc(a), _mpq(q))
        cond += _product_cond(a, q)
    return value, cond


@functools.lru_cache(maxsize=None)
def theta(q, x):
    """Jacobi theta by the triple product (q, -x, -q/x; q)_inf.

    The program renormalizes |x| by the shift law before its product; the
    powers x^k and q^(k(k-1)/2) of that step add a few ulp per unit of |k|.
    """
    x = complex(x)
    value, cond = qpoch((q, -x, -q / x), q)
    k = abs(round(-math.log(abs(x)) / math.log(abs(q))))
    return value, cond + 4.0 * k * k


def _series_cond(upper, lower, q, x) -> float:
    """sum (n+1)|t_n| / |sum t_n| for r_phi_s, in double precision (only
    magnitudes are needed)."""
    q, x = complex(q), complex(x)
    d = 1 + len(lower) - len(upper)
    t = 1 + 0j
    total = 0j
    weighted = 0.0
    biggest = 1.0
    qn = 1 + 0j
    n = 0
    while True:
        total += t
        weighted += (n + 1) * abs(t)
        biggest = max(biggest, abs(t))
        if t == 0 or (n > 3 and abs(t) < 1e-22 * biggest):
            break
        num = 1 + 0j
        for a in upper:
            num *= 1 - complex(a) * qn
        den = 1 - qn * q
        for b in lower:
            den *= 1 - complex(b) * qn
        t *= num / den * x * (-qn) ** d
        qn *= q
        n += 1
    return weighted / abs(total)


def rphis(upper, lower, q, x):
    """r_phi_s(upper; lower; q, x) via ``mpmath.qhyper``."""
    ups = [mp.mpc(a) for a in upper]
    lows = [mp.mpc(b) for b in lower]
    value = mp.qhyper(ups, lows, _mpq(q), mp.mpc(x))
    return value, _series_cond(upper, lower, q, x)


def qairy_Ai(q, x):
    """Ai_q(x) = 1phi1(0; -q; q, -x)."""
    return rphis((0j,), (-q,), q, -complex(x))


def e_series(q, x):
    """e_q(x) = 1phi0(0; -; q, x), |x| < 1, from its product 1/(x; q)_inf
    (q-binomial theorem); the program sums the series."""
    inv, _ = qpoch((x,), q)
    return 1 / inv, _series_cond((0j,), (), q, x)


def ramanujan_Aq(q, x):
    """A_q(x) = sum q^(n^2) (-x)^n / (q;q)_n, summed at ``DPS`` digits."""
    q = mp.mpc(q)
    x = mp.mpc(x)
    t = mp.mpc(1)
    total = mp.mpc(0)
    weighted = mp.mpf(0)
    biggest = mp.mpf(1)
    qn = mp.mpc(1)
    n = 0
    while True:
        total += t
        weighted += (n + 1) * abs(t)
        biggest = max(biggest, abs(t))
        if n > 3 and abs(t) < mp.mpf(10) ** -(DPS + 4) * biggest:
            break
        t *= q ** (2 * n + 1) * (-x) / (1 - qn * q)
        qn *= q
        n += 1
    return total, float(weighted / abs(total))


def theta_sum_ref(q, x, k: int):
    """theta_q(q^k x), from theta_q(x) by the shift law
    theta_q(q^k x) = q^(-k(k-1)/2) x^(-k) theta_q(x), with the condition of
    the bilateral sum at y = q^k x, sum (|n|+1)|q^(n(n-1)/2) y^n| / |theta|,
    which is what an evaluation by the sum loses near the zero spiral -q^Z."""
    base, _ = theta(q, x)
    mq, mx = _mpq(q), mp.mpc(x)
    value = mq ** (-(k * (k - 1) // 2)) * mx ** (-k) * base
    qf, yf = abs(q), abs(complex(x)) * abs(q) ** k
    weighted = 0.0
    for sign in (1, -1):
        n = 0 if sign == 1 else -1
        while True:
            e = 0.5 * n * (n - 1) * math.log(qf) + n * math.log(yf)
            if e < -80.0 and n * sign > 3:
                break
            weighted += (abs(n) + 1) * math.exp(min(e, 700.0))
            n += sign
    return value, weighted / float(abs(value))


def residue_exact(q, k: int):
    """Residue of 1/((tau/lambda; q)_inf tau) at tau = lambda q^(-k):
    -1 / ((q^(-k); q)_k (q; q)_inf), independent of lambda."""
    mq = _mpq(q)
    head = mp.mpc(1)
    for j in range(k):
        head *= 1 - mq ** (j - k)
    return -1 / (head * qpoch((q,), q)[0])
