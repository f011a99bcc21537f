"""Parsing of element and r-matrix literals.

Grammar (bit-exact with the canonical printers):

    element := ['-'] term (('+'|'-') term)*
    term    := [coeff '*'] gen
    coeff   := rational like '3' or '1/2'
    gen     := 'L[' int ']' | 'M[' int ']' | 'Y[' halfint ']' | 'c'
    halfint := int | int '/2'

Tensor terms replace gen with ``gen (x) gen``; r-matrix files carry one
signed tensor term per line, with blank lines and '#' comments ignored.
Digits are ASCII only.  Spaces and tabs may stand around signs, '*' and
'(x)', and after '[' and '/', nowhere else inside a term.

Each signed term is one match of a compiled pattern.  Only a rejected
term is walked again, one piece at a time, to find its 1-based
line/column diagnostic.  Y-parity against s is not checked here; the
consuming operation validates it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NoReturn, Union

from .algebra import BasisIndex, C, Element
from .tensors import Tensor2

__all__ = ["LiteralError", "ParseDiagnostic", "parse_element", "parse_tensor2"]


@dataclass
class ParseDiagnostic:
    line: int
    column: int
    message: str
    token: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message} (at {self.token!r})"


class LiteralError(ValueError):
    def __init__(self, diagnostic: ParseDiagnostic) -> None:
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# Groups: sign, coefficient numerator and denominator, then kind, index and
# index denominator per generator (all None for 'c').  Trailing blanks are
# consumed, so a literal ends where a match ends at len(text).  No two
# blank runs may meet: a failed match would try every split of a long
# run between them, cubic in its length.
_GEN = r"(?:c|([LMY])\[[ \t]*(-?[0-9]+)(?:/[ \t]*(-?[0-9]+))?\])"
_SIGNED = r"[ \t]*(?:([-+])[ \t]*)?(?:(-?[0-9]+)(?:/[ \t]*(0*[1-9][0-9]*))?[ \t]*\*[ \t]*)?" + _GEN
_ELEMENT_TERM = re.compile(_SIGNED + r"[ \t]*")
_TENSOR_TERM = re.compile(_SIGNED + r"[ \t]*\(x\)[ \t]*" + _GEN + r"[ \t]*")
_BLANKS = re.compile(r"[ \t]*")


@lru_cache(maxsize=1024)
def _key(kind, num, den) -> BasisIndex:
    """The basis key of one generator's groups; ValueError if invalid.

    Cached, so a generator read again reuses its key.  An invalid group
    raises on every call: lru_cache caches no exceptions.
    """
    if kind is None:
        return C
    if den is None:
        return BasisIndex(kind, 2 * int(num))
    if kind != "Y" or int(den) != 2:
        raise ValueError("not a Y half-integer index")
    return BasisIndex(kind, int(num))


def _terms(text: str, line: int, tensor: bool, terms: dict) -> dict:
    """Add the signed terms of one non-blank literal to terms, one pattern
    match each, and return terms."""
    pattern = _TENSOR_TERM if tensor else _ELEMENT_TERM
    pos, end = 0, len(text)
    while pos < end:
        m = pattern.match(text, pos)
        if m is None or (pos and not m[1]):  # every term after the first is signed
            _diagnose(text, pos, line, tensor)
        g = m.groups()
        try:  # int() raises ValueError on digit runs longer than Python allows
            num = 1 if g[1] is None else int(g[1])
            if g[0] == "-":
                num = -num
            coeff = num if g[2] is None else Fraction(num, int(g[2]))
            key = _key(g[3], g[4], g[5])
            if tensor:
                key = (key, _key(g[6], g[7], g[8]))
        except ValueError:
            _diagnose(text, pos, line, tensor)
        terms[key] = terms[key] + coeff if key in terms else coeff
        pos = m.end()
    return terms


def _diagnose(text: str, pos: int, line: int, tensor: bool) -> NoReturn:
    """Walk the rejected term at ``pos`` again, one piece at a time, and
    raise the diagnostic of the first piece that does not fit."""

    def fail(message: str, at: int) -> NoReturn:
        token = text[at : at + 8] or "<end>"
        raise LiteralError(ParseDiagnostic(line, at + 1, message, token))

    def take(pattern: str, message: str = "", blanks: bool = True):
        nonlocal pos
        if blanks:
            pos = _BLANKS.match(text, pos).end()
        m = re.compile(pattern).match(text, pos)
        if m is None:
            if message:
                fail(message, pos)
            return None
        pos = m.end()
        return m

    def integer() -> int:
        m = take(r"-?[0-9]+", "expected an integer")
        try:
            return int(m[0])
        except ValueError:
            fail("integer has too many digits", m.start())

    def generator() -> None:
        if take("c"):
            return
        kind = take("[LMY]", "expected a generator (L[..], M[..], Y[..] or c)")[0]
        take(r"\[", "expected '[' after generator kind", blanks=False)
        integer()
        if take("/", blanks=False):
            den_at = pos
            if integer() != 2:
                fail("only integers and halves are allowed", den_at)
            if kind != "Y":
                fail(f"{kind} takes an integer degree", den_at)
        take(r"\]", "expected ']' closing the generator index", blanks=False)

    take("[-+]" if pos else "[-+]?", "expected '+' or '-' between terms")
    if take(r"(?=-?[ \t]*[0-9])"):  # a digit, or '-' then a digit: a coefficient
        start = pos
        integer()
        if take("/", blanks=False):
            den_at = pos
            if integer() <= 0:
                fail("denominator must be positive", den_at)
        if not take(r"\*"):
            fail("expected '*' between coefficient and generator", start)
    generator()
    if tensor:
        take(r"\(x\)", "expected '(x)' between the tensor slots")
        generator()
    raise AssertionError(f"term at column {pos + 1} of {text!r} fits but did not match")


def parse_element(text: str, line: int = 1) -> Element:
    """Parse an element literal; canonical print/parse round-trips."""
    if not text.strip(" \t"):
        raise LiteralError(ParseDiagnostic(line, len(text) + 1, "empty element literal", "<end>"))
    if text.strip() == "0":
        return Element.zero()
    return Element(_terms(text, line, False, {}))


def parse_tensor2(source: Union[str, Iterable[str]]) -> Tensor2:
    """Parse a two-tensor from a single literal or from r-matrix lines.

    A string is parsed as one '+/-'-joined literal unless it contains
    "\n", in which case it is cut at each "\n" into file-format lines, so
    its diagnostics read as those of the same lines passed as a list.
    """
    if isinstance(source, str):
        lines = source.split("\n") if "\n" in source else [source]
    else:
        lines = list(source)
    terms: dict = {}
    parsed_any = False
    for lineno, raw in enumerate(lines, start=1):
        # strip comments only; columns in diagnostics stay exact
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped:
            continue
        parsed_any = True
        if stripped.lstrip() == "0":
            continue
        _terms(stripped, lineno, True, terms)
    if not parsed_any:
        raise LiteralError(
            ParseDiagnostic(1, 1, "no tensor terms found", "<empty>")
        )
    return Tensor2(terms)
