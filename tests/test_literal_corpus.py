"""Replay the pinned literal corpus (``tests/data/literal_corpus.json``).

The corpus holds about 2,000 valid and malformed literals with the exact
result the character-at-a-time scanner gave for each: the sorted terms,
or the line, column, message and token of the ``ParseDiagnostic``.  See
``tests/data/make_literal_corpus.py`` for how it was made.

The first recorded difference is the digit rule: only ASCII ``0-9`` are
digits now.  Inputs with other Unicode digits (``²``, ``٣``) and integers
longer than ``int`` accepts used to raise a bare ``ValueError`` or, for
``٣``, to parse; each of them now gives its recorded result or a
``LiteralError``.

The second is the line split of ``parse_tensor2``: a string is cut at
"\n" only, as a list of file lines is, where the scanner also cut it at
"\r" and the other ``str.splitlines`` breaks.  Three pins changed their
token and kept their line, column and message: ``'(x)\r0212\t\n#/L/'``,
``'\n12\r.12[QL[0]c'`` and ``']\t\rQ0\nY3 '``.
"""

import json
from pathlib import Path

import pytest

from svlie import LiteralError, parse_element, parse_tensor2

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "literal_corpus.json").read_text(encoding="utf-8")
)


def _result(mode, source):
    try:
        if mode == "element":
            terms = parse_element(source).terms
        else:
            terms = parse_tensor2(source).terms
    except LiteralError as exc:
        d = exc.diagnostic
        return {"error": [d.line, d.column, d.message, d.token]}
    rows = []
    for key, coeff in sorted(terms.items()):
        key = [list(key)] if mode == "element" else [list(k) for k in key]
        rows.append([key, str(coeff)])
    return {"terms": rows}


def _digit_rule_applies(entry) -> bool:
    text = "".join(entry["input"]) if entry["mode"] == "lines" else entry["input"]
    foreign = any(ch.isdigit() and ch not in "0123456789" for ch in text)
    return foreign or "crash" in entry


def test_corpus_covers_every_mode_and_outcome():
    assert len(CORPUS) >= 1900
    for mode in ("element", "tensor", "lines"):
        outcomes = {k for e in CORPUS if e["mode"] == mode for k in e if k != "mode"}
        assert {"terms", "error", "crash"} <= outcomes


@pytest.mark.parametrize("mode", ["element", "tensor", "lines"])
def test_corpus_replays_byte_identically(mode):
    mismatches = []
    for entry in CORPUS:
        if entry["mode"] != mode or _digit_rule_applies(entry):
            continue
        expected = {k: v for k, v in entry.items() if k not in ("mode", "input")}
        got = _result(mode, entry["input"])
        if got != expected:
            mismatches.append((entry["input"], expected, got))
    assert not mismatches, mismatches[:5]


def test_digit_rule_changes_only_to_literal_errors():
    entries = [e for e in CORPUS if _digit_rule_applies(e)]
    assert len(entries) >= 40
    for entry in entries:
        expected = {k: v for k, v in entry.items() if k not in ("mode", "input")}
        got = _result(entry["mode"], entry["input"])
        assert got == expected or "error" in got, entry["input"]
