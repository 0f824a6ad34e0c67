"""The benchmark's three workloads: inputs made from a seed, the operations
that use them, and the checks of every output.

A workload is built in two steps.  The constructor draws the inputs from the
seed with the standard library only; :meth:`Workload.bind` then resolves the
program's functions from a freshly imported ``qconnect`` package.  Functions
are looked up on the package or module at call time, so the tracer's wrappers
are seen when it is installed.

One *unit* is the whole list of operations a run repeats; a run attempts
whole units only, so every count per operation repeats exactly for a seed.
The mpmath references are computed in :meth:`Workload.finish`, after the
timed loop.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from pathlib import Path

#: the 13 identities of the verification harness, in registry order
IDENTITIES = (
    "watson",
    "ismail-zhang",
    "thm-ramanujan-qairy",
    "thm-eq-Eq",
    "lemma-alt",
    "thm-2f0",
    "qde-ramanujan",
    "qde-qairy",
    "qde-theta",
    "qde-2f0-resummed",
    "residue-lemma",
    "operational-lemma",
    "formal-inverses",
)
#: the lambda values of the acceptance tests
LAMBDAS = (0.7 + 0j, 1.3 + 0j, 0.9 * cmath.exp(0.3j))
ABC = "-4,3,0.5"
VERIFY_QS = (0.3, 0.5, 0.8)
PRODUCT_QS = (0.3, 0.5, 0.8, 0.9, 0.95)
SERIES_QS = (0.3, 0.5, 0.8)
RESUM_QS = (0.3, 0.5, 0.8)
#: pointwise inputs per (evaluator, q) cell
POINTWISE_PER_CELL = 10
#: resum-infinity values of t per q
RESUM_PER_Q = 35
#: an input closer than this (relative) to an exclusion spiral is redrawn
SPIRAL_MARGIN = 1e-2
#: the contour and residue values must match A_{q^2}(-q^3 t^2) this closely
RESUM_TOL = 1e-9
#: relative tolerance of a residue obtained by circle quadrature
RESIDUE_QUAD_TOL = 1e-12
#: identities whose lhs values are compared with mpmath
LHS_CHECKED = (
    "watson",
    "ismail-zhang",
    "thm-ramanujan-qairy",
    "thm-eq-Eq",
    "lemma-alt",
    "qde-theta",
    "residue-lemma",
)


def cli_complex(z: complex) -> str:
    """A complex literal in the CLI grammar ("a+bi")."""
    return f"{z.real!r}{z.imag:+}i"


def _spiral_distance(x: complex, anchor: complex, q: float) -> float:
    """Relative distance from x to the nearest point of anchor * q^Z."""
    k0 = math.log(abs(x) / abs(anchor)) / math.log(q)
    best = math.inf
    for k in range(math.floor(k0) - 1, math.ceil(k0) + 2):
        s = anchor * q**k
        best = min(best, abs(x - s) / max(abs(s), abs(x)))
    return best


class _Draw:
    """Seeded draws, |x| log-uniform in [lo, hi] at any angle, off spirals.

    Draws come in strata: the k-th of every ``strata`` draws of a kind takes
    log|x| from the k-th of ``strata`` equal slices of [log lo, log hi], in an
    order the seed shuffles.  The spread of moduli, which sets the cost of
    every evaluator, then barely changes from seed to seed.
    """

    def __init__(self, seed: int, salt: str, strata: int) -> None:
        self.rng = random.Random(f"{salt}:{seed}")
        self.strata = strata
        self.slices: dict[tuple, list[int]] = {}

    def point(self, stream, lo: float, hi: float, q: float = 0.5, avoid=()) -> complex:
        """Next draw of ``stream`` (one stream per input kind and argument)."""
        if not self.slices.get(stream):
            order = list(range(self.strata))
            self.rng.shuffle(order)
            self.slices[stream] = order
        k = self.slices[stream].pop()
        width = (math.log(hi) - math.log(lo)) / self.strata
        while True:
            r = math.exp(math.log(lo) + width * (k + self.rng.random()))
            x = cmath.rect(r, self.rng.uniform(-math.pi, math.pi))
            if all(_spiral_distance(x, a, q) >= SPIRAL_MARGIN for a in avoid):
                return x


class Failure(Exception):
    """An operation ran to its end but failed (the CLI exited non-zero)."""


class Workload:
    """Base of the workloads.  A workload provides ``bind(qc)`` (resolve the
    program's functions), ``warmup()`` (one operation on a fixed input),
    ``unit()`` (the list of operations a run repeats), ``call(op)`` (one timed
    operation), ``record(op, out)`` (check and keep one output, untimed) and
    ``finish()`` (compare the kept outputs with mpmath after the loop and
    return the correct digits of each).  Failed checks go to ``problems``."""

    name = ""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def fail(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        else:
            self.problems[-1] = f"... and more; last: {text}"


def _check_value(wl: Workload, label: str, value: complex, ref, cond: float) -> float:
    from refs import digits, rel_err, tolerance

    err = rel_err(value, ref)
    if not err <= tolerance(cond):
        wl.fail(f"{label}: rel err {err:.3e} > tol {tolerance(cond):.3e} (cond {cond:.3g})")
    return digits(err)


# ---------------------------------------------------------------------------
# verify: `qconnect check` through the CLI entry point


class Verify(Workload):
    """All 13 identities at q in {0.3, 0.5, 0.8} as `qconnect check` runs
    them.  The seed shuffles the order of each round and picks which lambda
    each (identity, q) slot uses in each round; a unit is three rounds, so
    every slot meets every lambda once."""

    name = "verify"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__()
        rng = random.Random(f"verify:{seed}")
        slots = [(ident, q) for q in VERIFY_QS for ident in IDENTITIES]
        offsets = [rng.randrange(len(LAMBDAS)) for _ in slots]
        self.ops = []
        for r in range(len(LAMBDAS)):
            order = list(range(len(slots)))
            rng.shuffle(order)
            for i in order:
                ident, q = slots[i]
                self.ops.append((ident, q, (offsets[i] + r) % len(LAMBDAS), i))
        self.out_dir = root / "perfbench" / "out" / "verify"
        self.mutant_lam = LAMBDAS[rng.randrange(len(LAMBDAS))]
        self.reports: dict[tuple, str] = {}
        self.variants: list[tuple[tuple, str]] = []

    def argv(self, ident: str, q: float, lam: complex, slot: int) -> list[str]:
        return [
            "check", ident, "--q", repr(q), f"--lambda={cli_complex(lam)}",
            f"--abc={ABC}", "--out", str(self.out_dir / f"{slot}.json"),
        ]

    def bind(self, qc) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.cli = qc.cli
        self.qc = qc

    def warmup(self) -> None:
        self._main(self.argv("watson", 0.5, LAMBDAS[0], -1))

    def unit(self) -> list:
        return self.ops

    def _main(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    def call(self, op):
        ident, q, li, slot = op
        rc, text = self._main(self.argv(ident, q, LAMBDAS[li], slot))
        if rc != 0:
            raise Failure(f"qconnect check {ident} q={q} exited {rc}: {text.strip()}")
        return text

    def record(self, op, out) -> None:
        ident, q, li, slot = op
        label = f"{ident} q={q} lambda={LAMBDAS[li]:.4g}"
        if not out.startswith("PASS "):
            self.fail(f"{label}: printed {out.strip()!r}")
        s = (self.out_dir / f"{slot}.json").read_text(encoding="utf-8")
        key = (ident, q, li)
        first = self.reports.setdefault(key, s)
        if s is not first:
            if s == first:
                return
            self.fail(f"{label}: report differs from the first run of the same input")
            self.variants.append((key, s))
        self._check_report(label, s)

    def _check_report(self, label: str, s: str) -> None:
        rep = json.loads(s)
        if json.dumps(rep, separators=(",", ":")) != s:
            self.fail(f"{label}: report does not round-trip byte for byte")
        if rep["pass"] is not True:
            self.fail(f"{label}: report does not pass")
        if not any(not p["skipped"] for p in rep["points"]):
            self.fail(f"{label}: report has no evaluated point")

    def finish(self) -> list[float]:
        mutant = self.qc.check(
            self.qc.IdentityCheck("thm-2f0", 0.5, lam=self.mutant_lam),
            mutations=frozenset({"drop-one-minus-q"}),
        )
        if mutant.passed:
            self.fail("the drop-one-minus-q mutant of thm-2f0 passed")
        out: list[float] = []
        seen: set[str] = set()
        for (ident, q, li), s in list(self.reports.items()) + self.variants:
            if ident not in LHS_CHECKED or s in seen:
                continue
            seen.add(s)
            out.extend(_check_lhs(self, ident, q, json.loads(s)))
        return out


def _cpx(d) -> complex:
    return complex(d["re"], d["im"])


def _check_lhs(wl: Workload, ident: str, q: float, rep: dict) -> list[float]:
    """Compare the lhs column of one report with mpmath."""
    import refs

    out = []
    pos = 0  # residue-lemma: index within one grid point's 6 + 9 records
    for p in rep["points"]:
        if p["skipped"]:
            pos = 0
            continue
        x, lhs = _cpx(p["x"]), _cpx(p["lhs"])
        label = f"{ident} q={q} x={x:.4g} lhs"
        if ident == "watson":
            a, b, c = (complex(v) for v in ABC.split(","))
            ref, cond = refs.rphis((a, b), (c,), q, x)
        elif ident == "ismail-zhang":
            ref, cond = refs.ramanujan_Aq(q, x)
        elif ident == "thm-ramanujan-qairy":
            ref, cond = refs.ramanujan_Aq(q * q, -(q**3) / (x * x))
        elif ident == "thm-eq-Eq":
            ref, cond = refs.e_series(q, x)
        elif ident == "lemma-alt":
            inv, cond = refs.qpoch((x / q,), q)
            ref = 1 / inv
        elif ident == "qde-theta":
            # the report keeps the worst of theta(q^k x), k = 1..4, summed
            # bilaterally; compare with the nearest of the four
            cands = [refs.theta_sum_ref(q, x, k) for k in range(1, 5)]
            ref, cond = min(cands, key=lambda c: refs.rel_err(lhs, c[0]))
        else:  # residue-lemma: k = 0..5 by quadrature, then k = 0..8 by product
            k, pos = pos, (pos + 1) % 15
            if k < 6:
                err = refs.rel_err(lhs, refs.residue_exact(q, k))
                if not err <= RESIDUE_QUAD_TOL:
                    wl.fail(f"{label}: residue rel err {err:.3e} > {RESIDUE_QUAD_TOL:g}")
                out.append(refs.digits(err))
                continue
            inv, cond = refs.qpoch((x,), q)
            ref = 1 / inv
        out.append(_check_value(wl, label, lhs, ref, cond))
    return out


# ---------------------------------------------------------------------------
# pointwise: scalar calls of the public evaluators


def _pointwise_inputs(seed: int) -> list[tuple]:
    """(kind, q, args) for every input of one unit."""
    d = _Draw(seed, "pointwise", POINTWISE_PER_CELL)
    ins = []
    one, neg = 1 + 0j, -1 + 0j
    for q in PRODUCT_QS:
        for _ in range(POINTWISE_PER_CELL):
            for kind, m in (("qpoch1", 1), ("qpoch2", 2), ("qpoch3", 3), ("e_product", 1)):
                ins.append((kind, q, tuple(d.point((kind, q, j), 0.1, 10, q, (one,)) for j in range(m))))
            for kind in ("theta", "E_product"):
                ins.append((kind, q, (d.point((kind, q), 0.1, 10, q, (neg,)),)))
    for q in SERIES_QS:
        for _ in range(POINTWISE_PER_CELL):
            a, b, c = (d.point(("phi21", q, j), 0.1, 10, q, (one,)) for j in range(3))
            ins.append(("phi21", q, (a, b, c, d.point(("phi21", q), 0.1, 0.9))))
            a, b = (d.point(("phi11", q, j), 0.1, 10, q, (one,)) for j in range(2))
            ins.append(("phi11", q, (a, b, d.point(("phi11", q), 0.1, 10))))
            for kind in ("Aq", "Ai"):
                ins.append((kind, q, (d.point((kind, q), 0.1, 10),)))
            ins.append(("e_series", q, (d.point(("e_series", q), 0.1, 0.9),)))
    return ins


class Pointwise(Workload):
    """Seeded scalar calls: product-form evaluators at q up to 0.95, series
    evaluators at q up to 0.8.  Each operation is one call."""

    name = "pointwise"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__()
        self.inputs = _pointwise_inputs(seed)
        self.order = list(range(len(self.inputs)))
        random.Random(f"pointwise-order:{seed}").shuffle(self.order)
        self.first: dict[int, complex] = {}

    def bind(self, qc) -> None:
        self.qc = qc
        self.trunc = qc.Truncation(log=qc.TermLog())
        self.qms = {q: qc.as_modulus(q) for q in PRODUCT_QS}
        self.ops = []
        for i in self.order:
            kind, q, args = self.inputs[i]
            qm = self.qms[q]
            if kind in ("qpoch1", "qpoch2", "qpoch3"):
                call = ("qpochhammer_inf", (args if len(args) > 1 else args[0], qm), {})
            elif kind == "theta":
                call = ("theta", (qm, args[0]), {})
            elif kind == "e_product":
                call = ("e_exp", (qm, args[0]), {"mode": "product"})
            elif kind == "E_product":
                call = ("E_exp", (qm, args[0]), {"mode": "product"})
            elif kind == "phi21":
                call = ("rphis", ((args[0], args[1]), (args[2],), qm, args[3]), {})
            elif kind == "phi11":
                call = ("rphis", ((args[0],), (args[1],), qm, args[2]), {})
            elif kind == "Aq":
                call = ("ramanujan_Aq", (qm, args[0]), {})
            elif kind == "Ai":
                call = ("qairy_Ai", (qm, args[0]), {})
            else:
                call = ("e_exp", (qm, args[0]), {"mode": "series"})
            name, cargs, kw = call
            self.ops.append((i, name, cargs, {**kw, "trunc": self.trunc}))

    def warmup(self) -> None:
        self.qc.theta(self.qc.as_modulus(0.5), 1.1 + 0.4j, trunc=self.trunc)

    def unit(self) -> list:
        return self.ops

    def call(self, op):
        return getattr(self.qc, op[1])(*op[2], **op[3])

    def record(self, op, out) -> None:
        i = op[0]
        first = self.first.get(i)
        if first is None:
            self.first[i] = out
        elif out != first:
            self.fail(f"input {i}: {out!r} differs from the first call's {first!r}")

    def reference(self, i: int):
        import refs

        kind, q, args = self.inputs[i]
        if kind in ("qpoch1", "qpoch2", "qpoch3"):
            return refs.qpoch(args, q)
        if kind == "theta":
            return refs.theta(q, args[0])
        if kind == "e_product":
            inv, cond = refs.qpoch(args, q)
            return 1 / inv, cond
        if kind == "E_product":
            return refs.qpoch((-args[0],), q)
        if kind == "phi21":
            return refs.rphis(args[:2], args[2:3], q, args[3])
        if kind == "phi11":
            return refs.rphis(args[:1], args[1:2], q, args[2])
        if kind == "Aq":
            return refs.ramanujan_Aq(q, args[0])
        if kind == "Ai":
            return refs.qairy_Ai(q, args[0])
        return refs.e_series(q, args[0])

    def finish(self) -> list[float]:
        out = []
        for i, value in sorted(self.first.items()):
            ref, cond = self.reference(i)
            kind, q, args = self.inputs[i]
            out.append(_check_value(self, f"{kind} q={q} args={args}", value, ref, cond))
        return out


# ---------------------------------------------------------------------------
# resum-infinity: the second-kind Borel-Laplace solution at infinity


class ResumInfinity(Workload):
    """f(t) by contour quadrature of the Borel image and by the residue sum,
    for seeded t with |t| log-uniform in [0.3, 4], off q^Z."""

    name = "resum-infinity"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__()
        d = _Draw(seed, "resum", RESUM_PER_Q)
        self.inputs = [
            (q, d.point(q, 0.3, 4.0, q, (1 + 0j,))) for q in RESUM_QS for _ in range(RESUM_PER_Q)
        ]
        self.order = list(range(len(self.inputs)))
        random.Random(f"resum-order:{seed}").shuffle(self.order)
        self.first: dict[int, tuple[complex, complex]] = {}

    def bind(self, qc) -> None:
        self.qc = qc
        self.trunc = qc.Truncation(log=qc.TermLog())
        self.ops = [(i, qc.as_modulus(self.inputs[i][0]), self.inputs[i][1]) for i in self.order]

    def _f(self, qm, t) -> tuple[complex, complex]:
        qc, tr = self.qc, self.trunc
        contour = qc.qlaplace_minus(lambda tau: qc.g_borel_image(qm, tau, tr), qm, t, trunc=tr)
        residue = qc.f_via_residues(qm, t, tr)
        return contour, residue

    def warmup(self) -> None:
        self._f(self.qc.as_modulus(0.5), 1.1 + 0.4j)

    def unit(self) -> list:
        return self.ops

    def call(self, op):
        return self._f(op[1], op[2])

    def record(self, op, out) -> None:
        i = op[0]
        first = self.first.get(i)
        if first is None:
            self.first[i] = out
        elif out != first:
            self.fail(f"input {i}: {out!r} differs from the first call's {first!r}")

    def finish(self) -> list[float]:
        import refs

        out = []
        for i, (contour, residue) in sorted(self.first.items()):
            q, t = self.inputs[i]
            ref, _ = refs.ramanujan_Aq(refs.mp.mpf(q) ** 2, -refs.mp.mpf(q) ** 3 * refs.mp.mpc(t) ** 2)
            for label, value in (("contour", contour), ("residue", residue)):
                err = refs.rel_err(value, ref)
                if not err <= RESUM_TOL:
                    self.fail(f"{label} q={q} t={t}: rel err {err:.3e} > {RESUM_TOL:g}")
                out.append(refs.digits(err))
        return out


WORKLOADS = {w.name: w for w in (Verify, Pointwise, ResumInfinity)}
