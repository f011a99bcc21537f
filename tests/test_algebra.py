"""Bracket table, grading, windows and structural checks."""

import random
from fractions import Fraction

import pytest

from svlie import (
    AlgebraParams,
    BasisIndex,
    C,
    Element,
    InvalidIndexError,
    L,
    M,
    Window,
    Y,
    bracket,
    center_in_window,
    check_jacobi,
    degree_of,
    parse_element,
)
from svlie.algebra import bracket_table
from svlie.tensors import Tensor2

HALF = Fraction(1, 2)


def b(x, y, p):
    return bracket(Element.basis(x), Element.basis(y), p)


class TestBracket:
    def test_virasoro_central_term_vanishes_at_one(self):
        p = AlgebraParams(HALF, -1)
        assert b(L(1), L(-1), p) == parse_element("-2*L[0]")

    def test_virasoro_central_term(self):
        p = AlgebraParams(HALF, -1)
        assert b(L(2), L(-2), p) == parse_element("-4*L[0] - 1/2*c")
        # (m^3 - m)/12 at m = -3
        assert b(L(3), L(-3), p) == parse_element("-6*L[0] - 2*c")

    def test_central_switch_drops_c(self):
        p = AlgebraParams(HALF, -1, central=False)
        assert b(L(2), L(-2), p) == parse_element("-4*L[0]")

    def test_y_pair(self):
        p = AlgebraParams(HALF, 3)
        assert b(Y(HALF), Y(-HALF), p) == parse_element("-M[0]")

    def test_l_m(self):
        p = AlgebraParams(HALF, -1)
        assert b(L(1), M(2), p) == parse_element("3*M[3]")

    def test_l_y_half_coefficient(self):
        p = AlgebraParams(HALF, -1)
        assert b(L(1), Y(HALF), p) == parse_element("1/2*Y[3/2]")

    def test_self_bracket_vanishes(self):
        p = AlgebraParams(0, 7)
        x = parse_element("L[1] + 2*M[-3] - 1/2*Y[2] + c")
        assert not bracket(x, x, p)

    def test_total_table_zero_pairs(self):
        p = AlgebraParams(0, 2)
        assert not b(M(1), M(2), p)
        assert not b(M(1), Y(2), p)
        assert not b(C, L(5), p)
        assert not b(M(3), C, p)

    def test_y_parity_rejected(self):
        p = AlgebraParams(0, 1)
        with pytest.raises(InvalidIndexError):
            b(L(1), Y(HALF), p)

    def test_bilinearity(self):
        p = AlgebraParams(0, Fraction(-5, 3))
        x = parse_element("2*L[1] - 3*M[2]")
        y = parse_element("L[-1] + 1/3*Y[0]")
        expanded = (
            b(L(1), L(-1), p).scaled(2)
            + b(L(1), Y(0), p).scaled(Fraction(2, 3))
            + b(M(2), L(-1), p).scaled(-3)
            + b(M(2), Y(0), p).scaled(-1)
        )
        assert bracket(x, y, p) == expanded


class TestBracketProperties:
    WINDOW = Window.symmetric(10)

    @pytest.mark.parametrize("s,lam", [(HALF, Fraction(-2)), (Fraction(0), Fraction(4, 3))])
    def test_antisymmetry(self, s, lam):
        p = AlgebraParams(s, lam)
        gens = self.WINDOW.basis_indices(p)
        for x in gens:
            for y in gens:
                assert b(x, y, p) == -b(y, x, p)

    def test_grading(self):
        p = AlgebraParams(HALF, 5)
        gens = self.WINDOW.basis_indices(p)
        for x in gens:
            for y in gens:
                out = b(x, y, p)
                if out:
                    assert degree_of(out) == x.degree + y.degree or not out

    def test_center_annihilates(self):
        p = AlgebraParams(0, -2)
        for g in self.WINDOW.basis_indices(p):
            assert not b(C, g, p)

    def test_ideal_property(self):
        # products with M or Y stay inside the span of M, Y and c
        p = AlgebraParams(HALF, Fraction(7, 2))
        gens = self.WINDOW.basis_indices(p)
        for x in gens:
            for y in gens:
                if x.kind in ("M", "Y") or y.kind in ("M", "Y"):
                    for idx in b(x, y, p).support():
                        assert idx.kind in ("M", "Y", "c")


class TestDegreeAndWindow:
    def test_degree_homogeneous(self):
        assert degree_of(parse_element("L[3] + 2*M[3]")) == 3

    def test_degree_half(self):
        assert degree_of(parse_element("Y[3/2]")) == Fraction(3, 2)

    def test_degree_inhomogeneous(self):
        assert degree_of(parse_element("L[1] + M[2]")) == "inhomogeneous"

    def test_degree_zero_element(self):
        assert degree_of(Element.zero()) == "any"

    def test_window_must_contain_zero(self):
        with pytest.raises(ValueError):
            Window(2, 6)

    def test_interior_halves_toward_zero(self):
        assert Window(-12, 12).interior() == Window(-6, 6)
        assert Window(-13, 9).interior() == Window(-6, 4)

    def test_basis_indices_parities(self):
        w = Window.symmetric(4)
        half = w.basis_indices(AlgebraParams(HALF, 0))
        assert BasisIndex("Y", 1) in half and BasisIndex("Y", 2) not in half
        integer = w.basis_indices(AlgebraParams(0, 0))
        assert BasisIndex("Y", 2) in integer and BasisIndex("Y", 1) not in integer
        # indices_at appends L, M, Y, c: already the canonical order
        for s in (Fraction(0), HALF):
            for central in (True, False):
                p = AlgebraParams(s, 0, central)
                for dd in range(w.lo, w.hi + 1):
                    assert w.indices_at(dd, p) == sorted(w.indices_at(dd, p))

    def test_centerless_window_has_no_c(self):
        w = Window.symmetric(4)
        assert C not in w.basis_indices(AlgebraParams(0, 0, central=False))


class TestJacobi:
    @pytest.mark.parametrize(
        "s,lam",
        [(HALF, Fraction(-2)), (Fraction(0), Fraction(5)), (Fraction(0), Fraction(-5, 3))],
    )
    def test_jacobi_passes(self, s, lam):
        for central in (True, False):
            rep = check_jacobi(AlgebraParams(s, lam, central), Window.symmetric(12))
            assert rep.ok and rep.checked > 500

    def test_asymmetric_window(self):
        rep = check_jacobi(AlgebraParams(0, 1), Window(-4, 8))
        assert rep.ok and rep.checked > 0

    def test_corrupted_bracket_fails_with_witness(self):
        p = AlgebraParams(0, 5)

        def corrupted(x, y):
            out = bracket(x, y, p)
            # deliberately wrong structure constant on one generator pair
            if x.coeff(L(1)) and y.coeff(M(1)):
                out = out + Element.basis(M(2))
            return out

        rep = check_jacobi(p, Window.symmetric(6), bracket_fn=corrupted)
        assert not rep.ok
        gx, gy, gz, residual = rep.failures[0]
        assert residual


class TestCenter:
    def test_half_sector_center_is_c(self):
        basis = center_in_window(AlgebraParams(HALF, 3), Window.symmetric(8))
        assert [str(v) for v in basis] == ["c"]

    def test_zero_zero_center(self):
        basis = center_in_window(AlgebraParams(0, 0), Window.symmetric(8))
        assert {str(v) for v in basis} == {"c", "M[0]"}

    def test_zero_zero_centerless(self):
        basis = center_in_window(AlgebraParams(0, 0, central=False), Window.symmetric(8))
        assert [str(v) for v in basis] == ["M[0]"]

    def test_generic_centerless_center_vanishes(self):
        assert center_in_window(AlgebraParams(0, 7, central=False), Window.symmetric(8)) == []


class TestParams:
    def test_s_validation(self):
        with pytest.raises(ValueError):
            AlgebraParams(Fraction(1, 3), 0)

    def test_rational_coercion(self):
        p = AlgebraParams("1/2", "-5/3")
        assert p.s == HALF and p.lam == Fraction(-5, 3)

    def test_structure_constants_cached_consistently(self):
        p1 = AlgebraParams(0, Fraction(1, 2))
        p2 = AlgebraParams(0, Fraction(1, 2))
        x, y = Element.basis(L(2)), Element.basis(M(-1))
        assert bracket(x, y, p1) == bracket(x, y, p2) == Element({M(1): -2})


def test_random_triple_jacobi_spot_checks():
    rng = random.Random(7)
    w = Window.symmetric(16)
    for _ in range(60):
        s = rng.choice((Fraction(0), HALF))
        p = AlgebraParams(s, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        gens = w.basis_indices(p)
        x, y, z = (Element.basis(rng.choice(gens)) for _ in range(3))
        lhs = (
            bracket(bracket(x, y, p), z, p)
            + bracket(bracket(y, z, p), x, p)
            + bracket(bracket(z, x, p), y, p)
        )
        assert not lhs


def reference_act(table, g, vec):
    """g . vec with every tuple key taken slot by slot."""
    out = {}
    for key, c in vec.items():
        for slot, x in enumerate(key):
            for e, k in table[g, x]:
                res = key[:slot] + (e,) + key[slot + 1:]
                out[res] = out.get(res, 0) + c * k
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize(
    "s, lam, central",
    [(0, 0, True), (0, Fraction(-5, 3), False), (HALF, -1, True), (HALF, 2, False)],
)
def test_act_on_triples_and_singles_matches_the_slot_loop(s, lam, central):
    p = AlgebraParams(s, lam, central)
    table = bracket_table(p)
    gens = Window.symmetric(10).basis_indices(p) + [C]
    rng = random.Random(17)
    for arity in (3, 1):
        for _ in range(60):
            vec = {
                tuple(rng.choice(gens) for _ in range(arity)): rng.choice(
                    (1, -1, rng.randint(-40, 40), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                )
                for _ in range(rng.randint(1, 12))
            }
            # a single is a bare generator key: act takes no 1-tuple
            bare = vec if arity == 3 else {key: c for (key,), c in vec.items()}
            for g in rng.sample(gens, 6):
                got = table.act(g, bare)
                if arity == 1:
                    got = {(e,): c for e, c in got.items()}
                # same terms in the same order, so printed results match too
                assert list(got.items()) == list(reference_act(table, g, vec).items())


def test_int_bool_and_fraction_coefficients_compare_equal():
    for cls, key in ((Element, L(1)), (Tensor2, (L(1), C))):
        assert cls({key: 2}) == cls({key: Fraction(2)}) == cls({key: Fraction(4, 2)})
        assert cls({key: True}) == cls({key: 1}) == cls({key: Fraction(1)})
        assert cls({key: False}) == cls({key: 0}) == cls({key: Fraction(0)}) == cls.zero()
        for coeff in (True, 3, Fraction(-1, 2)):
            assert type(cls({key: coeff}).coeff(key)) is Fraction
    assert str(Element({L(1): True})) == "L[1]"
