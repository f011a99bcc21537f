"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 when a check fails
(a witness is printed), 2 on unknown commands, malformed input or an
unreadable input file.  JSON reports are versioned with a ``schema``
field and are byte-identical for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .algebra import (
    C,
    AlgebraParams,
    CoefficientTooLongError,
    Element,
    InvalidIndexError,
    Window,
    bracket,
    center_in_window,
    check_jacobi,
)
from .cohomology import solve_h1, verify_invariants_are_central, verify_skew_image_lemma
from .derivations import is_derivation, table_from_json
from .literals import LiteralError, parse_element, parse_tensor2
from .tensors import (
    check_cojacobi_identity,
    check_mybe,
    coboundary,
    skew_part_membership,
    ybe_c,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

MAX_WINDOW = 64
# Bracket coefficients grow with lambda's digits, and so does the run time
# of every job (README, "Common flags").
MAX_LAMBDA_DIGITS = 300
# Below 4 the window holds at most L[-1..1], an sl2 whose invariant tensors
# are not center products: the interior checks would fail falsely, and h1
# reports dimensions that are not the window-stable ones.
MIN_INTERIOR_WINDOW = 4


class UsageError(ValueError):
    pass


Report = tuple[bool, dict, str]  # a handler's verdict, JSON payload and text


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if any(ch in text for ch in ".eE"):  # Fraction reads 1e5000, too long to print
        raise UsageError(f"decimals and exponents are rejected, use a rational like -5/3: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational: {text!r} ({exc})")


def _validate(args: argparse.Namespace) -> None:
    """Parse and range-check the namespace in place: --s, --lambda and
    --central become args.params, the window bound (on the commands that
    take one) a Window and --degree a Fraction."""
    if hasattr(args, "s"):
        s = _parse_rational(args.s)
        lam = _parse_rational(args.lam)
        if max(abs(lam.numerator), lam.denominator) >= 10**MAX_LAMBDA_DIGITS:
            raise UsageError(
                f"lambda's numerator and denominator must have at most "
                f"{MAX_LAMBDA_DIGITS} digits, to bound the run time"
            )
        central = {"true": True, "false": False}[args.central]
        try:
            args.params = AlgebraParams(s, lam, central)
        except ValueError as exc:
            raise UsageError(str(exc))
    bound = getattr(args, "window", None)
    if bound is not None:
        if not (0 < bound <= MAX_WINDOW):
            raise UsageError(f"window bound must be in 1..{MAX_WINDOW}, got {bound}")
        if (
            args.command in ("h1", "invariants", "skew-lemma", "verify-paper")
            and bound < MIN_INTERIOR_WINDOW
        ):
            raise UsageError(
                f"{args.command} needs --window at least {MIN_INTERIOR_WINDOW}: the "
                f"interior check needs at least L[-2..2], got {bound}"
            )
        args.window = Window.symmetric(bound)
    if hasattr(args, "degree"):
        args.degree = _parse_rational(args.degree or "0")
        if (args.degree * 2).denominator != 1:
            raise UsageError(
                f"degree must be an integer or half-integer: {args.degree}"
            )


def _read_input(path: str) -> str:
    """The text of an input file; a missing, unreadable or undecodable file
    is a usage error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot decode {path!r}: {exc}") from None


def _refuse_c(p: AlgebraParams, source: str, vec) -> None:
    """The library reads c as central whatever p says, so on the centerless
    algebra a literal that names c is refused here."""
    if not p.central and any(
        C in (key if type(key) is tuple else (key,)) for key in vec.terms
    ):
        raise UsageError(f"{source} names c, which the centerless algebra (--central false) lacks")


def _element(args: argparse.Namespace, text: str) -> Element:
    x = parse_element(text)
    _refuse_c(args.params, f"element {text!r}", x)
    return x


def _load_r(args: argparse.Namespace):
    if not args.r:
        raise UsageError("this command needs an r-matrix file (--r FILE)")
    r = parse_tensor2(_read_input(args.r))
    _refuse_c(args.params, f"r-matrix file {args.r!r}", r)
    if not skew_part_membership(r):
        print("warning: r is not skew (not in the image of 1 - twist)", file=sys.stderr)
    return r


# ---------------------------------------------------------------------------
# Command handlers (return a Report, which main prints and maps to an exit code)
# ---------------------------------------------------------------------------

def _cmd_bracket(args: argparse.Namespace) -> Report:
    x, y = (_element(args, text) for text in args.operands)
    out = bracket(x, y, args.params)
    return True, {"params": args.params.as_dict(), "result": str(out)}, str(out)


def _cmd_jacobi(args: argparse.Namespace) -> Report:
    rep = check_jacobi(args.params, args.window)
    human = (
        f"Jacobi: {'pass' if rep.ok else 'FAIL'} "
        f"({rep.checked} triples checked)"
    )
    if not rep.ok:
        gx, gy, gz, res = rep.failures[0]
        human += f"\nwitness: ({gx.label()}, {gy.label()}, {gz.label()}) -> {res}"
    payload = {
        "params": args.params.as_dict(),
        "window": [args.window.lo, args.window.hi],
        "checked": rep.checked,
        "violations": len(rep.failures),
    }
    return rep.ok, payload, human


def _cmd_center(args: argparse.Namespace) -> Report:
    basis = center_in_window(args.params, args.window)
    human = "center basis: " + (", ".join(str(b) for b in basis) if basis else "(zero)")
    payload = {
        "params": args.params.as_dict(),
        "window": [args.window.lo, args.window.hi],
        "basis": [str(b) for b in basis],
    }
    return True, payload, human


def _cmd_cybe(args: argparse.Namespace) -> Report:
    r = _load_r(args)
    obstruction = ybe_c(r, args.params)
    ok = not obstruction
    human = "CYBE: satisfied" if ok else f"CYBE: violated, c(r) = {obstruction}"
    payload = {
        "params": args.params.as_dict(),
        "satisfied": ok,
        "obstruction_terms": len(obstruction.terms),
    }
    return ok, payload, human


def _cmd_mybe(args: argparse.Namespace) -> Report:
    r = _load_r(args)
    ok = check_mybe(r, args.params, args.window)
    human = "MYBE: satisfied" if ok else "MYBE: violated"
    payload = {
        "params": args.params.as_dict(),
        "window": [args.window.lo, args.window.hi],
        "satisfied": ok,
    }
    return ok, payload, human


def _cmd_coboundary(args: argparse.Namespace) -> Report:
    r = _load_r(args)
    x = _element(args, args.operands[0])
    out = coboundary(r, x, args.params)
    return True, {"params": args.params.as_dict(), "result": str(out)}, str(out)


def _cmd_cojacobi(args: argparse.Namespace) -> Report:
    r = _load_r(args)
    bad = []
    for g in args.window.basis_indices(args.params):
        if not check_cojacobi_identity(r, Element.basis(g), args.params):
            bad.append(g.label())
    human = "co-Jacobi balance: holds" if not bad else f"co-Jacobi balance: broken at {bad}"
    payload = {
        "params": args.params.as_dict(),
        "window": [args.window.lo, args.window.hi],
        "violations": bad,
    }
    return not bad, payload, human


def _cmd_check_derivation(args: argparse.Namespace) -> Report:
    if not args.derivation:
        raise UsageError("check-derivation needs --derivation FILE")
    text = _read_input(args.derivation)
    try:
        table = table_from_json(text)
    except (LiteralError, InvalidIndexError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise UsageError(f"malformed derivation table {args.derivation!r}: {reason}") from None
    lo, hi = table.window.lo, table.window.hi
    if not (-MAX_WINDOW <= lo and hi <= MAX_WINDOW):
        raise UsageError(
            f"derivation table window [{lo}, {hi}] must lie in [-{MAX_WINDOW}, {MAX_WINDOW}]"
        )
    # is_derivation reads only the entries of window generators
    gens = set(table.window.basis_indices(args.params))
    for g, value in table.values.items():
        if g not in gens:
            raise UsageError(
                f"derivation table {args.derivation!r} has an entry for {g.label()}, "
                f"not a generator of the algebra on window [{lo}, {hi}]"
            )
        _refuse_c(args.params, f"derivation table {args.derivation!r} at {g.label()}", value)
    rep = is_derivation(table, args.params)
    human = (
        f"derivation check: {'pass' if rep.ok else 'FAIL'} "
        f"({rep.checked} pairs checked, {rep.skipped} boundary pairs skipped)"
    )
    if not rep.ok:
        g, h, lhs, rhs = rep.witness()
        human += f"\nwitness pair ({g.label()}, {h.label()}): D[g,h] = {lhs} but action gives {rhs}"
    payload = {
        "params": args.params.as_dict(),
        "checked": rep.checked,
        "skipped": rep.skipped,
        "violations": len(rep.violations),
    }
    return rep.ok, payload, human


def _cmd_h1(args: argparse.Namespace) -> Report:
    rep = solve_h1(args.params, args.target, args.degree, args.window)
    human = (
        f"H1 {args.target} degree {args.degree}: dim_der={rep.dim_der} "
        f"dim_inn={rep.dim_inn} dim_h1={rep.dim_h1}"
        + (" (certified basis: " + ", ".join(rep.quotient_names) + ")" if rep.certified and rep.quotient_names else "")
        + (f"\nnote: {rep.note}" if rep.note else "")
    )
    return True, {"report": rep.as_dict()}, human


def _cmd_invariants(args: argparse.Namespace) -> Report:
    rep = verify_invariants_are_central(args.params, args.order, args.window)
    human = (
        f"invariant tensors (order {args.order}): "
        f"{'match center products' if rep.ok else 'MISMATCH'} "
        f"(dim {rep.details['kernel_dim']})"
    )
    return rep.ok, {"report": rep.as_dict()}, human


def _cmd_skew_lemma(args: argparse.Namespace) -> Report:
    rep = verify_skew_image_lemma(args.params, args.window)
    human = (
        "skew-image decomposition: holds"
        if rep.ok
        else f"skew-image decomposition: fails for {rep.details['failures']}"
    )
    return rep.ok, {"report": rep.as_dict()}, human


def _cmd_verify_paper(args: argparse.Namespace) -> Report:
    # imported here, its only user: no other command needs verify.py
    from .verify import run_verification

    results = run_verification(window=args.window.hi, log=None if args.json else print)
    ok = all(r.ok for r in results)
    criteria = [
        {"number": r.number, "name": r.name, "ok": r.ok, "details": r.details}
        for r in results
    ]
    payload = {"window": args.window.hi, "criteria": criteria, "ok": ok}
    return ok, payload, "all criteria passed" if ok else "some criteria FAILED"


_HANDLERS = {
    "bracket": _cmd_bracket,
    "jacobi": _cmd_jacobi,
    "center": _cmd_center,
    "cybe": _cmd_cybe,
    "mybe": _cmd_mybe,
    "coboundary": _cmd_coboundary,
    "cojacobi": _cmd_cojacobi,
    "check-derivation": _cmd_check_derivation,
    "h1": _cmd_h1,
    "invariants": _cmd_invariants,
    "skew-lemma": _cmd_skew_lemma,
    "verify-paper": _cmd_verify_paper,
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svlie",
        description=(
            "Exact workbench for the deformative Schrodinger-Virasoro "
            "Lie algebras: brackets, Yang-Baxter checks, derivation "
            "verification and windowed cohomology."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def algebra_flags(sp, window=True):
        sp.add_argument("--s", required=True, choices=["0", "1/2"], help="sector")
        sp.add_argument("--lambda", dest="lam", required=True, metavar="RAT",
                        help="deformation parameter, a rational like -5/3")
        sp.add_argument("--central", choices=["true", "false"], default="true",
                        help="keep the central charge c (default true)")
        if window:
            sp.add_argument("--window", type=int, default=12, metavar="N",
                            help=f"doubled-degree bound, at most {MAX_WINDOW}")
        sp.add_argument("--json", action="store_true", help="machine-readable report")

    sp = sub.add_parser("bracket", help="bracket of two element literals")
    algebra_flags(sp, window=False)
    sp.add_argument("operands", nargs=2, metavar="ELEMENT")

    sp = sub.add_parser("jacobi", help="exact Jacobi check on a window")
    algebra_flags(sp)

    sp = sub.add_parser("center", help="window center basis")
    algebra_flags(sp)

    sp = sub.add_parser("cybe", help="classical Yang-Baxter check for an r-matrix")
    algebra_flags(sp, window=False)
    sp.add_argument("--r", required=True, metavar="FILE")

    sp = sub.add_parser("mybe", help="modified Yang-Baxter check on a window")
    algebra_flags(sp)
    sp.add_argument("--r", required=True, metavar="FILE")

    sp = sub.add_parser("coboundary", help="cobracket candidate at an element")
    algebra_flags(sp, window=False)
    sp.add_argument("--r", required=True, metavar="FILE")
    sp.add_argument("operands", nargs=1, metavar="ELEMENT")

    sp = sub.add_parser("cojacobi", help="co-Jacobi balance for every window generator")
    algebra_flags(sp)
    sp.add_argument("--r", required=True, metavar="FILE")

    sp = sub.add_parser("check-derivation", help="verify a serialized derivation table")
    algebra_flags(sp, window=False)
    sp.add_argument("--derivation", required=True, metavar="FILE")

    sp = sub.add_parser("h1", help="windowed first-cohomology dimensions")
    algebra_flags(sp)
    sp.add_argument("--degree", default="0", metavar="RAT")
    sp.add_argument("--target", choices=["algebra", "tensor-square"], default="algebra")

    sp = sub.add_parser("invariants", help="invariant tensors vs center products")
    algebra_flags(sp)
    sp.add_argument("--order", type=int, choices=[1, 2], default=2)

    sp = sub.add_parser("skew-lemma", help="skew-orbit decomposition check")
    algebra_flags(sp)

    sp = sub.add_parser("verify-paper", help="run the full verification suite")
    sp.add_argument("--window", type=int, default=16, metavar="N",
                    help="window of criteria 6 and 9 only (default 16); the "
                    "other criteria run on pinned windows")
    sp.add_argument("--json", action="store_true")

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Fold values like '-5/3' into '--flag=-5/3'.

    argparse only special-cases plain negative integers, so a bare
    '--lambda -5/3' would otherwise be read as a dangling option.
    """
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--lambda", "--degree") and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and len(nxt) > 1 and nxt[1].isdigit():
                out.append(f"{tok}={nxt}")
                skip = True
                continue
        out.append(tok)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_negative_values(list(argv)))
    try:
        _validate(args)
        ok, payload, human = _HANDLERS[args.command](args)
    except (UsageError, LiteralError, InvalidIndexError, CoefficientTooLongError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        payload = {"schema": 1, "command": args.command, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
