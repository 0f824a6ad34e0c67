"""Command-line front end: evaluate functions at a point, run identity checks.

Exit codes: 0 success/pass, 1 identity check failure, 2 usage or parse error,
3 domain exclusion (the message names the offending spiral or pole).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .errors import DomainError, QConnectError
from .qcore import (
    DEFAULT_PROXIMITY,
    DEFAULT_TRUNCATION,
    E_exp,
    Spiral,
    TermLog,
    Truncation,
    as_modulus,
    e_exp,
    rphis,
    theta,
)
from .special import (
    f_via_residues,
    g_borel_image,
    qairy_Ai,
    ramanujan_Aq,
    two_f_zero,
    two_f_zero_closed,
)
from .verify import IdentityCheck, IDENTITY_IDS, check

_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_CPX = re.compile(rf"^({_NUM})(?:([+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$")

_GRAMMAR = 'complex literals are "a", "a+bi" or "a-bi" with no spaces, e.g. 0.5, 1+2i, -3.1e-2-0.4i'


def parse_complex(text: str) -> complex:
    m = _CPX.match(text.strip())
    if m is None:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}; {_GRAMMAR}")
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) else 0.0
    return complex(re_part, im_part)


def parse_complex_list(text: str) -> tuple[complex, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_complex(tok) for tok in text.split(","))


def fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{z.real:.14e}{sign}{abs(z.imag):.14e}i"


#: ``qconnect eval`` name -> evaluator(q, args, trunc); the keys, in this
#: order, are the parser's choices
_EVALUATORS = {
    "Aq": lambda qm, a, tr: ramanujan_Aq(qm, a.x, tr),
    "Aiq": lambda qm, a, tr: qairy_Ai(qm, a.x, tr),
    "theta": lambda qm, a, tr: theta(qm, a.x, tr),
    "eq": lambda qm, a, tr: e_exp(qm, a.x, tr),
    "Eq": lambda qm, a, tr: E_exp(qm, a.x, tr),
    "rphis": lambda qm, a, tr: rphis(a.upper, a.lower, qm, a.x, tr),
    "2f0": lambda qm, a, tr: two_f_zero(qm, a.lam, a.x, tr),
    "2f0-closed": lambda qm, a, tr: two_f_zero_closed(qm, a.lam, a.x, tr),
    "f-residues": lambda qm, a, tr: f_via_residues(qm, a.x, tr),
    "g-borel": lambda qm, a, tr: g_borel_image(qm, a.x, tr),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="qconnect",
        description="q-special functions and numerical verification of their connection formulae",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one function at a point")
    ev.add_argument("function", choices=tuple(_EVALUATORS))
    ev.add_argument("--q", type=parse_complex, required=True, help="base, 0<|q|<1")
    ev.add_argument("--x", type=parse_complex, required=True, help="argument")
    ev.add_argument("--lambda", dest="lam", type=parse_complex, default=None,
                    help="spiral anchor (2f0 family)")
    ev.add_argument("--upper", type=parse_complex_list, default=(),
                    help="comma-separated upper parameters (rphis)")
    ev.add_argument("--lower", type=parse_complex_list, default=(),
                    help="comma-separated lower parameters (rphis)")
    ev.add_argument("--eps", type=float, default=DEFAULT_TRUNCATION.eps, help="tail tolerance")
    ev.add_argument("--n-max", type=int, default=DEFAULT_TRUNCATION.n_max, help="term cap")

    ck = sub.add_parser("check", help="verify one identity over a grid")
    ck.add_argument("identity", choices=IDENTITY_IDS)
    ck.add_argument("--q", type=parse_complex, required=True)
    ck.add_argument("--lambda", dest="lam", type=parse_complex, default=None)
    ck.add_argument("--abc", type=parse_complex_list, default=None,
                    help="comma-separated a,b,c parameters (watson)")
    ck.add_argument("--tol", type=float, default=None)
    ck.add_argument("--grid", type=str, default=None,
                    help="semicolon-separated complex grid points "
                         "(default: the identity's built-in grid)")
    ck.add_argument("--out", type=str, default=None, help="report file path")
    ck.add_argument("--format", choices=("json", "csv"), default="json")
    ck.add_argument("--eps", type=float, default=DEFAULT_TRUNCATION.eps)
    ck.add_argument("--n-max", type=int, default=DEFAULT_TRUNCATION.n_max)
    return parser


def _truncation(args) -> tuple[Truncation, TermLog]:
    log = TermLog()
    return Truncation(eps=args.eps, n_max=args.n_max, log=log), log


def _cmd_eval(args) -> int:
    trunc, log = _truncation(args)
    qm = as_modulus(args.q)
    fn = args.function

    if fn in ("2f0", "2f0-closed") and args.lam is None:
        print("error: --lambda is required for the 2f0 family", file=sys.stderr)
        return 2

    print(fmt_complex(_EVALUATORS[fn](qm, args, trunc)))
    if fn == "theta" and Spiral(-1 + 0j, qm).contains(args.x):
        print(
            f"warning: x lies within {DEFAULT_PROXIMITY} of the theta zero spiral -q^Z; "
            "the value is a near-cancellation"
        )
    print(f"terms={log.terms} eps={trunc.eps:g} n_max={trunc.n_max}")
    return 0


def _cmd_check(args) -> int:
    trunc, _ = _truncation(args)
    grid = None
    if args.grid is not None:
        try:
            grid = tuple(parse_complex(tok) for tok in args.grid.split(";") if tok.strip())
        except argparse.ArgumentTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    abc = None
    if args.abc is not None:
        if len(args.abc) != 3:
            print("error: --abc needs exactly three comma-separated values", file=sys.stderr)
            return 2
        abc = (args.abc[0], args.abc[1], args.abc[2])

    chk = IdentityCheck(
        identity=args.identity,
        q=args.q,
        lam=args.lam,
        abc=abc,
        grid=grid,
        tol=args.tol,
        trunc=trunc,
    )
    report = check(chk)

    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        if args.format == "json":
            out_path.write_text(report.to_json(), encoding="utf-8")
        else:
            out_path.write_text(report.to_csv(), encoding="utf-8")

    word = "PASS" if report.passed else "FAIL"
    print(
        f"{word} max_rel_err={report.max_rel_err:.6e} "
        f"evaluated={report.n_evaluated} skipped={report.n_skipped} tol={report.tol:g}"
    )
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_check(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QConnectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
