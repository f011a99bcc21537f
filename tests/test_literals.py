"""Element and r-matrix literal parsing, printing and diagnostics."""

import random
import time
from fractions import Fraction

import pytest

from svlie import (
    BasisIndex,
    C,
    Element,
    L,
    LiteralError,
    M,
    Tensor2,
    Tensor3,
    Y,
    literals,
    parse_element,
    parse_tensor2,
)
from svlie.verify import random_element, random_tensor

HALF = Fraction(1, 2)


# Reference printers that work on the Fraction itself (abs(), > and str())
# with an uncached label; the library's printers must match them byte for byte.
def reference_label(idx: BasisIndex) -> str:
    if idx.kind == "c":
        return "c"
    if idx.dd % 2 == 0:
        return f"{idx.kind}[{idx.dd // 2}]"
    return f"{idx.kind}[{idx.dd}/2]"


def reference_format_terms(items, tensor: bool) -> str:
    if not items:
        return "0"
    parts: list[str] = []
    for key, coeff in items:
        if tensor:
            gens = " (x) ".join(reference_label(idx) for idx in key)
            body = f"{abs(coeff)} * {gens}"
        else:
            mag = abs(coeff)
            body = reference_label(key) if mag == 1 else f"{mag}*{reference_label(key)}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def reference_file_lines(t: Tensor2) -> list[str]:
    return [
        f"{coeff} * {reference_label(i)} (x) {reference_label(j)}"
        for (i, j), coeff in sorted(t.terms.items())
    ]


def printer_coeff(rng: random.Random) -> Fraction:
    """A nonzero coefficient: +-1, another integer, a half, or one whose
    numerator or denominator is above 2**64."""
    sign = rng.choice((1, -1))
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(sign)
    if kind == 1:
        return Fraction(sign * rng.randint(2, 60))
    if kind == 2:
        return Fraction(sign * (2 * rng.randint(0, 30) + 1), 2)
    if kind == 3:
        return Fraction(sign * rng.randint(2**64, 2**90))
    return Fraction(sign * rng.randint(1, 2**90), rng.randint(2**64 + 1, 2**80))


def printer_index(rng: random.Random, s2: int) -> BasisIndex:
    kind = rng.choice("LMYc")
    if kind == "c":
        return C
    return BasisIndex(kind, 2 * rng.randint(-12, 12) + (s2 if kind == "Y" else 0))


class TestParseElement:
    def test_spec_example(self):
        el = parse_element("-4*L[0] - 1/2*c")
        assert el.coeff(L(0)) == -4
        assert el.coeff(C) == Fraction(-1, 2)

    def test_unit_coefficients(self):
        assert parse_element("L[2]") == Element.basis(L(2))
        assert parse_element("-L[2]") == -Element.basis(L(2))

    def test_half_integer_y(self):
        assert parse_element("Y[3/2]") == Element.basis(Y(Fraction(3, 2)))
        assert parse_element("Y[-1/2]") == Element.basis(Y(-HALF))

    def test_zero_literal(self):
        assert parse_element("0") == Element.zero()

    def test_terms_merge(self):
        assert parse_element("L[1] + L[1]") == Element.basis(L(1)).scaled(2)
        assert parse_element("L[1] - L[1]") == Element.zero()

    def test_whitespace_tolerated(self):
        assert parse_element("  3*M[-2]   +   c ") == parse_element("3*M[-2] + c")

    def test_third_rejected(self):
        with pytest.raises(LiteralError) as exc:
            parse_element("L[1/3]")
        assert "halves" in str(exc.value)

    def test_half_degree_on_l_rejected(self):
        with pytest.raises(LiteralError):
            parse_element("L[1/2]")

    def test_diagnostic_positions(self):
        with pytest.raises(LiteralError) as exc:
            parse_element("L[1] + 2 M[0]")
        diag = exc.value.diagnostic
        assert diag.line == 1 and diag.column == 8
        assert "*" in diag.message

    def test_missing_bracket(self):
        with pytest.raises(LiteralError):
            parse_element("L 1")

    def test_empty_input(self):
        with pytest.raises(LiteralError):
            parse_element("   ")

    def test_only_ascii_digits(self):
        # str.isdigit() accepts these; int() parsed '٣' as 3 and crashed on '²'
        for text, column in (("L[٣]", 3), ("٣*L[0]", 1), ("²*L[0]", 1), ("3²*L[0]", 1)):
            with pytest.raises(LiteralError) as exc:
                parse_element(text)
            assert exc.value.diagnostic.column == column

    def test_overlong_integers_rejected(self):
        for text, column in (
            ("1" * 5000 + "*L[0]", 1),
            ("L[1] - 1/" + "7" * 5000 + "*c", 10),
            ("Y[ -" + "3" * 5000 + "/2]", 4),
        ):
            with pytest.raises(LiteralError) as exc:
                parse_element(text)
            diag = exc.value.diagnostic
            assert (diag.column, diag.message) == (column, "integer has too many digits")

    def test_blanks_where_allowed(self):
        assert parse_element(" - 3/ 2 * L[ -1] + Y[ 1/ 2] ") == parse_element("-3/2*L[-1] + Y[1/2]")

    def test_long_blank_runs_parse_in_linear_time(self):
        # a pattern with two adjacent blank runs backtracks cubically here
        blanks = " " * 20000
        start = time.perf_counter()
        for text in (blanks + "x", "L[0] +" + blanks + "x", "- " + blanks + "3 *" + blanks + "x"):
            with pytest.raises(LiteralError):
                parse_element(text)
        with pytest.raises(LiteralError):
            parse_tensor2("L[0]" + blanks + "(x)" + blanks + "x")
        assert parse_element(blanks + "-" + blanks + "L[1]" + blanks) == -Element.basis(L(1))
        assert time.perf_counter() - start < 2.0

    def test_unknown_generator(self):
        with pytest.raises(LiteralError):
            parse_element("Q[1]")


class TestParseTensor:
    def test_single_line(self):
        t = parse_tensor2("1 * L[0] (x) L[1]")
        assert t == Tensor2.basis(L(0), L(1))

    def test_multi_line_file_format(self):
        lines = [
            "# the skew rank-one solution",
            "1 * L[0] (x) L[1]",
            "",
            "-1 * L[1] (x) L[0]",
        ]
        t = parse_tensor2(lines)
        assert t == Tensor2.basis(L(0), L(1)) - Tensor2.basis(L(1), L(0))

    def test_plus_joined_literal(self):
        t = parse_tensor2("1 * c (x) M[2] - 1 * M[2] (x) c")
        assert t.coeff((C, M(2))) == 1
        assert t.coeff((M(2), C)) == -1

    def test_coefficientless_term(self):
        assert parse_tensor2("L[0] (x) L[1]") == Tensor2.basis(L(0), L(1))

    def test_empty_rejected(self):
        with pytest.raises(LiteralError):
            parse_tensor2(["# nothing here", ""])

    def test_bad_separator(self):
        with pytest.raises(LiteralError):
            parse_tensor2("1 * L[0] @ L[1]")

    def test_diagnostic_line_number_in_files(self):
        lines = ["1 * L[0] (x) L[1]", "# fine", "  1 * L[2] @ L[0]"]
        with pytest.raises(LiteralError) as exc:
            parse_tensor2(lines)
        diag = exc.value.diagnostic
        assert diag.line == 3
        assert diag.column == 12  # position of '@' in the original line

    @pytest.mark.parametrize(
        "sep",
        ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    )
    def test_string_and_lines_give_the_same_diagnostic(self, sep):
        # only "\n" ends a line of a string; every other line break is a
        # character of its line, as it is in a list of lines
        lines = ["1 * L[0] (x) L[1]", f"L[0] (x) L[1]{sep}junk", ""]
        with pytest.raises(LiteralError) as as_string:
            parse_tensor2("\n".join(lines))
        with pytest.raises(LiteralError) as as_lines:
            parse_tensor2(lines)
        assert as_string.value.diagnostic == as_lines.value.diagnostic
        assert (as_lines.value.diagnostic.line, as_lines.value.diagnostic.column) == (2, 14)

    def test_file_lines_round_trip(self):
        t = Tensor2(
            {
                (L(0), L(1)): Fraction(1),
                (L(1), L(0)): Fraction(-1),
                (M(2), C): Fraction(3, 7),
            }
        )
        assert parse_tensor2(t.file_lines()) == t


class TestRoundTrip:
    def test_element_round_trip_randomized(self):
        rng = random.Random(101)
        for k in range(500):
            el = random_element(rng, k % 2)
            assert parse_element(str(el)) == el

    def test_tensor_round_trip_randomized(self):
        rng = random.Random(103)
        for k in range(500):
            t = random_tensor(rng, k % 2)
            assert parse_tensor2(str(t)) == t
            assert parse_tensor2(t.file_lines()) == t

    def test_zero_prints_as_zero(self):
        assert str(Element.zero()) == "0"
        assert str(Tensor2.zero()) == "0"

    def test_canonical_term_order(self):
        el = parse_element("c + M[1] + L[5] + Y[0]")
        assert str(el) == "L[5] + M[1] + Y[0] + c"


class TestPrinterBytes:
    @pytest.mark.parametrize("s2", [0, 1])
    def test_integer_printers_match_the_fraction_printers(self, s2):
        rng = random.Random(1700 + s2)
        for _ in range(400):
            el = Element({printer_index(rng, s2): printer_coeff(rng) for _ in range(rng.randint(0, 5))})
            t2 = Tensor2(
                {
                    (printer_index(rng, s2), printer_index(rng, s2)): printer_coeff(rng)
                    for _ in range(rng.randint(0, 5))
                }
            )
            t3 = Tensor3(
                {
                    tuple(printer_index(rng, s2) for _ in range(3)): printer_coeff(rng)
                    for _ in range(rng.randint(0, 5))
                }
            )
            assert str(el) == reference_format_terms(sorted(el.terms.items()), tensor=False)
            assert str(t2) == reference_format_terms(sorted(t2.terms.items()), tensor=True)
            assert str(t3) == reference_format_terms(sorted(t3.terms.items()), tensor=True)
            assert t2.file_lines() == reference_file_lines(t2)
            if el:
                assert parse_element(str(el)) == el
            if t2:
                assert parse_tensor2(str(t2)) == t2
                assert parse_tensor2(t2.file_lines()) == t2

    def test_label_cache_is_bounded(self):
        for dd in range(-1500, 1500):
            idx = BasisIndex("Y", dd)
            assert idx.label() == reference_label(idx)
        assert BasisIndex.label.cache_info().currsize <= 1024


class TestKeyCache:
    @pytest.mark.parametrize("gen", ["L[1/2]", "Y[1/3]", "M[-5/2]", "Y[ 7/ 3]"])
    def test_malformed_generator_repeats_its_diagnostic(self, gen):
        # lru_cache caches no exceptions, so the invalid group raises again
        for parse, text in (
            (parse_element, gen),
            (parse_element, f"L[0] - 1/2*{gen}"),
            (parse_tensor2, f"3 * {gen} (x) L[0]"),
            (parse_tensor2, f"L[0] (x) {gen}"),
        ):
            diagnostics = []
            for _ in range(3):
                with pytest.raises(LiteralError) as exc:
                    parse(text)
                diagnostics.append(exc.value.diagnostic)
            assert diagnostics[0] == diagnostics[1] == diagnostics[2]
            assert diagnostics[0].message in (
                "only integers and halves are allowed",
                f"{gen[0]} takes an integer degree",
            )

    def test_cache_is_bounded(self):
        for n in range(1100):  # more than 1,024 distinct indices
            assert parse_element(f"{n + 2}*L[{n}] - Y[{n}/2]") == Element(
                {L(n): n + 2, BasisIndex("Y", n): -1}
            )
        assert literals._key.cache_info().currsize <= 1024
