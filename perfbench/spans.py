"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of each ``qconnect`` module under
every name that binds them, in every module namespace (so calls between the
program's own modules are seen), plus two methods on their classes.  Each
call becomes a span with its layer, parent, start and end; spans are kept in
flat arrays and folded after each unit of work into per-layer totals, with
self time = duration minus the time of child spans.

Work counts come from the program's own instruments: terms and factors are
the change in ``trunc.log.terms`` across the call (``TermLog`` deltas, self
part only), and quadrature nodes are calls of the integrand the wrapper hands
to ``qlaplace_minus`` and ``contour_residue``.
"""

from __future__ import annotations

import inspect
import time
from array import array

#: (layer, home module, function names); twins share a layer, and a twin
#: called from inside its own layer's span is folded into that span
LAYERS = (
    ("qcore.qpochhammer_inf", "qcore", ("qpochhammer_inf",)),
    ("qcore.e_exp", "qcore", ("e_exp",)),
    ("qcore.theta", "qcore", ("theta",)),
    ("qcore.rphis", "qcore", ("rphis", "rphis_with_condition")),
    ("special.ramanujan_Aq", "special", ("ramanujan_Aq", "ramanujan_Aq_with_condition")),
    ("special.qairy_Ai", "special", ("qairy_Ai", "qairy_Ai_with_condition")),
    ("special.two_f_zero", "special", ("two_f_zero",)),
    ("special.two_f_zero_closed", "special", ("two_f_zero_closed", "_two_f_zero_closed_parts")),
    ("special.g_borel_image", "special", ("g_borel_image",)),
    ("special.f_via_residues", "special", ("f_via_residues",)),
    ("transforms.qlaplace_plus", "transforms", ("qlaplace_plus",)),
    ("transforms.qlaplace_minus", "transforms", ("qlaplace_minus",)),
    ("transforms.contour_residue", "transforms", ("contour_residue",)),
    ("series.qborel_plus", "series", ("qborel_plus",)),
    ("series.qborel_minus", "series", ("qborel_minus",)),
    ("series.apply_operator", "series", ("apply_operator",)),
    ("verify.check", "verify", ("check",)),
    ("cli.main", "cli", ("main",)),
)
#: (layer, home module, class, method)
METHODS = (
    ("qcore.Spiral.nearest", "qcore", "Spiral", "nearest"),
    ("verify.IdentityReport.to_json", "verify", "IdentityReport", "to_json"),
)
#: layers whose first argument is a quadrature integrand
NODE_LAYERS = ("transforms.qlaplace_minus", "transforms.contour_residue")
MODULES = ("qcore", "series", "transforms", "special", "verify", "cli")


class Totals:
    __slots__ = ("calls", "self_s", "work", "nodes")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.work = 0
        self.nodes = 0


class Tracer:
    def __init__(self, qc) -> None:
        self.qc = qc
        self.mods = {name: getattr(qc, name) for name in MODULES}
        self.names = [layer for layer, _, _ in LAYERS] + [layer for layer, *_ in METHODS]
        self.totals = {name: Totals() for name in self.names}
        self.stack: list[int] = []
        self._clear()
        self.patches: list[tuple[object, str, object]] = []
        self.wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for li, (layer, home, fnames) in enumerate(LAYERS):
            for fname in fnames:
                fn = getattr(self.mods[home], fname)
                self.wrappers[id(fn)] = self._wrap(fn, li, layer in NODE_LAYERS)
        self.method_patches = []
        for mi, (layer, home, cls, meth) in enumerate(METHODS):
            klass = getattr(self.mods[home], cls)
            fn = klass.__dict__[meth]
            self.method_patches.append((klass, meth, fn, self._wrap(fn, len(LAYERS) + mi, False)))
    def _clear(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.work = array("q")
        self.nodes = array("q")

    def _wrap(self, fn, layer_idx: int, counts_nodes: bool):
        params = list(inspect.signature(fn).parameters)
        tname = "trunc" if "trunc" in params else ("tr" if "tr" in params else None)
        tpos = params.index(tname) if tname else 10**6
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.layer[stack[-1]] == layer_idx:
                return fn(*args, **kwargs)
            tr = kwargs[tname] if tname in kwargs else (args[tpos] if len(args) > tpos else None)
            log = tr.log if tr is not None else None
            before = log.terms if log is not None else 0
            i = len(tracer.layer)
            tracer.layer.append(layer_idx)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.t1.append(0.0)
            tracer.work.append(-1)
            tracer.nodes.append(0)
            if counts_nodes:
                integrand = args[0]

                def counted(z):
                    tracer.nodes[i] += 1
                    return integrand(z)

                args = (counted,) + args[1:]
            stack.append(i)
            tracer.t0.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.t1[i] = perf()
                stack.pop()
                if log is not None:
                    tracer.work[i] = log.terms - before

        return wrapper

    def install(self) -> None:
        """Bind every wrapper under each name that binds its original."""
        mods = [self.qc] + list(self.mods.values())
        for mod in mods:
            for name, value in list(vars(mod).items()):
                w = self.wrappers.get(id(value))
                if w is not None:
                    self.patches.append((mod, name, value))
                    setattr(mod, name, w)
        for klass, meth, fn, w in self.method_patches:
            setattr(klass, meth, w)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self.patches):
            setattr(mod, name, value)
        self.patches.clear()
        for klass, meth, fn, w in self.method_patches:
            setattr(klass, meth, fn)

    def fold(self) -> int:
        """Fold the recorded spans into per-layer totals; return their number."""
        n = len(self.layer)
        child_s = [0.0] * n
        child_work = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.t1[i] - self.t0[i]
                if self.work[i] > 0:
                    child_work[p] += self.work[i]
        for i in range(n):
            t = self.totals[self.names[self.layer[i]]]
            t.calls += 1
            t.self_s += self.t1[i] - self.t0[i] - child_s[i]
            if self.work[i] >= 0:
                t.work += self.work[i] - child_work[i]
            t.nodes += self.nodes[i]
        self._clear()
        return n
