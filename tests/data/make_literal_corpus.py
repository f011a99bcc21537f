"""Write ``literal_corpus.json``: literals paired with the parser's result.

    PYTHONPATH=src python tests/data/make_literal_corpus.py

Inputs (seed 8) are token soup, one or two random edits of the README
examples and of canonically printed random elements and tensors, and a
few hand-written edge cases.  Each is fed to ``parse_element`` (mode
``element``), to ``parse_tensor2`` on one string (``tensor``) and to
``parse_tensor2`` on a list of file lines (``lines``).  The result is the
sorted terms, the ``ParseDiagnostic`` fields, or the name of any other
exception.  ``tests/test_literal_corpus.py`` replays the file.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from svlie import LiteralError, parse_element, parse_tensor2
from svlie.verify import random_element, random_tensor

OUT = Path(__file__).with_name("literal_corpus.json")

SOUP = [
    "L", "M", "Y", "c", "[", "]", "/", "*", "+", "-", "(x)", "(", "x", ")",
    " ", "  ", "\t", "0", "1", "2", "3", "12", "-1", "1/2", "/2", "L[", "Y[",
    "M[", "#", "\n", "\r", "²", "٣", "Q", ".", "02", "L[0]", "Y[1/2]",
]
EDIT_CHARS = "LMYc[]/*+-()x 0123456789#\t²٣.Q"
README_ELEMENTS = ["-4*L[0] - 1/2*c", "Y[-3/2]", "L[2]", "L[-2]", "-1/2*c", "0"]
README_TENSORS = [
    "1 * L[0] (x) L[1]",
    "-1 * L[1] (x) L[0]",
    "M[-1] (x) M[1] - 2 M[0] (x) M[0] + M[1] (x) M[-1]",
    "1 * L[0] (x) L[1] - 1 * L[1] (x) L[0]",
]
EDGES = [
    "", "   ", "\t", "0", " 0 ", "\n0", "0\n", "L[0]\n", "٣*L[0]",
    "L[٣]", "²*L[0]", "3²*L[0]", "L[1] + ٣*c",
    "1" + "0" * 5000 + "*L[0]", "L[" + "1" * 5000 + "]", "1/" + "7" * 5000 + "*c",
    "Y[1/" + "0" * 5000 + "2]", "Y[1/02]", "Y[ 1/ 2]", "3/ 2*L[0]", "--3*L[0]",
    "- - 3*L[0]", "- -3*L[0]", "+-3*L[0]", "3/-2*L[0]", "3/0*L[0]", "L[2/2]",
    "Y[2/2]", "Y[1/-2]", "c[0]", "cc", "L [0]", "L[0 ]", "L[0 /2]", "L[ -0]",
]


def edit(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(6)
        ch = rng.choice(EDIT_CHARS)
        if op == 0:
            text = text[:i] + text[i + 1 :]
        elif op == 1:
            text = text[:i] + ch + text[i:]
        elif op == 2:
            text = text[:i] + ch + text[i + 1 :]
        elif op == 3 and i + 1 < len(text):
            text = text[:i] + text[i + 1] + text[i] + text[i + 2 :]
        elif op == 4:
            j = rng.randrange(i, len(text) + 1)
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + rng.choice([" ", "\t", "  "]) + text[i:]
    return text


def soup(rng: random.Random) -> str:
    return "".join(rng.choice(SOUP) for _ in range(rng.randint(1, 10)))


def result(mode: str, source) -> dict:
    try:
        if mode == "element":
            terms = parse_element(source).terms
        else:
            terms = parse_tensor2(source).terms
    except LiteralError as exc:
        d = exc.diagnostic
        return {"error": [d.line, d.column, d.message, d.token]}
    except Exception as exc:  # the cases the corpus is meant to expose
        return {"crash": type(exc).__name__}
    rows = []
    for key, coeff in sorted(terms.items()):
        key = [list(key)] if mode == "element" else [list(k) for k in key]
        rows.append([key, str(coeff)])
    return {"terms": rows}


def inputs(rng: random.Random):
    for text in EDGES:
        yield "element", text
        yield "tensor", text
    for k in range(700):
        el = str(random_element(rng, k % 2))
        base = rng.choice(README_ELEMENTS + [el] * 3)
        pick = k % 7
        yield "element", soup(rng) if pick < 3 else el if pick == 3 else edit(rng, base)
    for k in range(650):
        tn = random_tensor(rng, k % 2)
        base = rng.choice(README_TENSORS + [str(tn)] * 3)
        pick = k % 7
        text = soup(rng) if pick < 3 else str(tn) if pick == 3 else edit(rng, base)
        yield "tensor", text
    for k in range(550):
        lines = random_tensor(rng, k % 2).file_lines() + ["# comment", "", "  "]
        rng.shuffle(lines)
        i = rng.randrange(len(lines))
        pick = k % 5
        if pick == 1:
            lines[i] = soup(rng)
        elif pick > 1:
            lines[i] = edit(rng, lines[i] or rng.choice(README_TENSORS))
        yield "lines", lines


def main() -> None:
    rng = random.Random(8)
    rows = [
        {"mode": mode, "input": source, **result(mode, source)}
        for mode, source in inputs(rng)
    ]
    with OUT.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(row, ensure_ascii=True) for row in rows))
        fh.write("\n]\n")
    print(f"{len(rows)} entries -> {OUT}")


if __name__ == "__main__":
    main()
