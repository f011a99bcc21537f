"""Derivation tables: catalog constructors, inner derivations, components."""

from fractions import Fraction

import pytest

from svlie import (
    AlgebraParams,
    BasisIndex,
    DerivationTable,
    Element,
    L,
    M,
    Tensor2,
    Window,
    Y,
    catalog,
    catalog_basis,
    homogeneous_component,
    inner,
    is_derivation,
    parse_element,
)
from svlie.algebra import C
from svlie.derivations import (
    CatalogCaseError,
    case_label,
    table_from_json,
    table_to_json,
)

HALF = Fraction(1, 2)
W12 = Window.symmetric(12)


def support_degrees(D: DerivationTable) -> set[Fraction]:
    """All degree shifts present in a raw rule's values."""
    out = set()
    for g, val in D.values.items():
        for key in val.terms:
            dd = key.dd if isinstance(key, BasisIndex) else sum(i.dd for i in key)
            out.add(Fraction(dd - g.dd, 2))
    return out


def check_homogeneous(table: DerivationTable) -> None:
    """Raise unless every value sits in degree (deg g + degree)."""
    if table.degree is None:
        raise ValueError("table has no declared degree")
    shift = int(table.degree * 2)
    for g, val in table.values.items():
        for key in val.terms:
            dd = key.dd if isinstance(key, BasisIndex) else sum(i.dd for i in key)
            if dd != g.dd + shift:
                raise ValueError(
                    f"value at {g.label()} leaves degree {g.degree + table.degree}"
                )

CASES = [
    (HALF, Fraction(0)),
    (HALF, Fraction(-1)),
    (HALF, Fraction(-2)),
    (HALF, Fraction(3)),
    (Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(-1)),
    (Fraction(0), Fraction(-2)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(5)),
]


class TestCatalog:
    @pytest.mark.parametrize("s,lam", CASES + [(Fraction(0), Fraction(-3))])
    @pytest.mark.parametrize("central", [True, False])
    def test_families_are_derivations(self, s, lam, central):
        p = AlgebraParams(s, lam, central)
        for target in ("algebra", "tensor-square"):
            for table in catalog_basis(p, target, W12):
                rep = is_derivation(table, p)
                assert rep.ok, f"{table.name}: {rep.witness()}"
                assert rep.checked > 0
                check_homogeneous(table)
                assert table.degree == 0

    def test_family_sizes_algebra(self):
        sizes = {}
        for s, lam in CASES:
            p = AlgebraParams(s, lam, True)
            sizes[(str(s), str(lam))] = len(catalog_basis(p, "algebra", W12))
        assert sizes == {
            ("1/2", "0"): 3,
            ("1/2", "-1"): 2,
            ("1/2", "-2"): 2,
            ("1/2", "3"): 1,
            ("0", "0"): 3,
            ("0", "-1"): 3,
            ("0", "-2"): 2,
            ("0", "1"): 2,
            ("0", "5"): 1,
        }

    def test_family_sizes_tensor(self):
        # free scalars times center dimension, per case row
        expected = {
            ("1/2", "-1", True): 4,
            ("1/2", "-2", True): 4,
            ("1/2", "3", True): 2,
            ("0", "0", True): 12,
            ("0", "-1", True): 6,
            ("0", "-2", True): 4,
            ("0", "1", True): 4,
            ("0", "5", True): 2,
            ("0", "0", False): 6,
            ("0", "5", False): 0,
            ("1/2", "-1", False): 0,
            ("1/2", "0", True): 12,
            ("1/2", "0", False): 6,
            ("0", "-3", True): 4,
            ("0", "-3", False): 0,
        }
        for (s, lam, central), size in expected.items():
            p = AlgebraParams(Fraction(s), Fraction(lam), central)
            assert len(catalog_basis(p, "tensor-square", W12)) == size

    def test_named_rule_example(self):
        # the integer-sector constant Y-transport at deformation 1
        p = AlgebraParams(0, 1)
        (table,) = catalog(p, "algebra", W12, params={"y_to_m_1": 1})
        assert table.value(Y(3)) == Element.basis(M(3))
        assert not table.value(L(2))

    def test_tensor_rule_example(self):
        # left center leg on the linear transport at (0, 0)
        p = AlgebraParams(0, 0)
        (table,) = catalog(
            p, "tensor-square", W12, params={"l_to_m_n_left": parse_element("c")}
        )
        assert table.value(L(3)) == Tensor2({(parse_element("c").support()[0], M(3)): 3})
        assert not table.value(Y(1))

    def test_quadratic_minus_linear_weight(self):
        p = AlgebraParams(HALF, -1)
        (table,) = catalog(p, "algebra", W12, params={"l_to_m_n2_minus_n": 1})
        assert table.value(L(3)) == Element.basis(M(3)).scaled(6)
        assert not table.value(L(1))  # weight vanishes at 1
        assert not table.value(L(0))

    def test_combined_parameter_instance(self):
        # both scalars set at once on the half-sector -1 row
        p = AlgebraParams(HALF, -1)
        (table,) = catalog(
            p, "algebra", W12, params={"l_to_m_n2_minus_n": 1, "ideal_scale": 1}
        )
        rep = is_derivation(table, p)
        assert rep.ok and rep.checked > 0
        assert table.value(L(2)) == Element.basis(M(2)).scaled(2)
        assert table.value(M(1)) == Element.basis(M(1)).scaled(2)
        assert table.value(Y(HALF)) == Element.basis(Y(HALF))

    def test_table_addition_window_mismatch(self):
        p = AlgebraParams(0, 5)
        t1 = catalog_basis(p, "algebra", W12)[0]
        t2 = catalog_basis(p, "algebra", Window.symmetric(8))[0]
        with pytest.raises(ValueError):
            t1 + t2

    def test_case_error_for_wrong_row(self):
        with pytest.raises(CatalogCaseError):
            catalog(AlgebraParams(HALF, 3), "algebra", W12, params={"l_to_m_n2_minus_n": 1})
        with pytest.raises(CatalogCaseError):
            catalog(AlgebraParams(0, 0), "algebra", W12, params={"l_to_m_n3": 1})

    def test_minus_three_family(self):
        p = AlgebraParams(0, -3)
        ideal, y0 = catalog_basis(p, "algebra", W12)
        assert (ideal.name, y0.name) == ("ideal_scale", "y0_to_c")
        assert y0.values == {Y(0): Element.basis(C)}
        assert [t.name for t in catalog_basis(p, "tensor-square", W12)] == [
            "ideal_scale|left|c",
            "ideal_scale|right|c",
            "y0_to_c|left|c",
            "y0_to_c|right|c",
        ]
        # y0_to_c sends Y[0] to c, so centerless rows leave it out
        p = AlgebraParams(0, -3, central=False)
        assert [t.name for t in catalog_basis(p, "algebra", W12)] == ["ideal_scale"]
        assert catalog_basis(p, "tensor-square", W12) == []

    def test_y0_to_c_fails_off_its_row(self):
        # [L[1], Y[-1]] = -Y[0] at deformation -1, where Y[0] -> c breaks
        (table,) = catalog(AlgebraParams(0, -3), "algebra", W12, params={"y0_to_c": 1})
        rep = is_derivation(table, AlgebraParams(0, -1))
        assert not rep.ok and rep.witness() is not None

    @pytest.mark.parametrize("central", [True, False])
    def test_no_catalog_holds_an_empty_table(self, central):
        for s, lam in CASES + [(Fraction(0), Fraction(-3))]:
            p = AlgebraParams(s, lam, central)
            for target in ("algebra", "tensor-square"):
                for table in catalog_basis(p, target, W12):
                    assert table.values, (p.describe(), table.name)

    def test_case_labels(self):
        assert case_label(AlgebraParams(0, -2)) == Fraction(-2)
        assert case_label(AlgebraParams(0, Fraction(7, 2))) == "generic"
        assert case_label(AlgebraParams(HALF, 1)) == "generic"

    def test_mismatched_case_control_fails_with_witness(self):
        own = AlgebraParams(0, -2)
        wrong = AlgebraParams(0, -1)
        (table,) = catalog(own, "algebra", W12, params={"l_to_m_n3": 1})
        rep = is_derivation(table, wrong)
        assert not rep.ok
        g, h, lhs, rhs = rep.witness()
        assert lhs != rhs


class TestInner:
    def test_inner_m0_vanishes_at_lambda_zero(self):
        p = AlgebraParams(0, 0)
        table = inner(Element.basis(M(0)), p, W12)
        assert not table.values

    def test_inner_m0_nonzero_generically(self):
        p = AlgebraParams(0, 5)
        table = inner(Element.basis(M(0)), p, W12)
        assert table.value(L(1)) == Element.basis(M(1)).scaled(-5)

    def test_inner_l1_matches_bracket(self):
        p = AlgebraParams(HALF, -2)
        table = inner(Element.basis(L(1)), p, W12)
        assert table.value(L(2)) == parse_element("-L[3]")
        assert table.degree == Fraction(1)

    @pytest.mark.parametrize("s,lam", [(HALF, Fraction(-1)), (Fraction(0), Fraction(2))])
    def test_inner_tables_are_derivations(self, s, lam):
        p = AlgebraParams(s, lam)
        w = Window.symmetric(8)
        for v in (
            Element.basis(L(1)),
            Element.basis(M(-2)),
            Tensor2.basis(L(1), M(-1)),
            Tensor2.basis(M(0), M(0)),
        ):
            rep = is_derivation(inner(v, p, w), p)
            assert rep.ok

    def test_inner_y0_equals_linear_y_transport_at_minus_one(self):
        # the degenerate case behind the dimension discrepancy with the
        # upstream table: at deformation -1 this inner table reproduces
        # the linear Y-to-M rule exactly
        p = AlgebraParams(0, -1)
        table = inner(Element.basis(Y(0)), p, W12)
        (rule,) = (
            t for t in catalog_basis(p, "algebra", W12) if t.name == "y_to_m_n"
        )
        for g in W12.basis_indices(p):
            assert table.value(g) == -rule.value(g)

    def test_inhomogeneous_rejected(self):
        p = AlgebraParams(0, 0)
        with pytest.raises(ValueError):
            inner(parse_element("L[1] + L[2]"), p, W12)


class TestComponents:
    def test_catalog_is_its_own_zero_component(self):
        p = AlgebraParams(HALF, -1)
        (sigma,) = (
            t for t in catalog_basis(p, "algebra", W12) if t.name != "ideal_scale"
        )
        assert homogeneous_component(sigma, 0).values == sigma.values
        assert not homogeneous_component(sigma, 1).values

    def test_inner_component_selection(self):
        p = AlgebraParams(HALF, -1)
        table = inner(Element.basis(L(1)), p, Window.symmetric(8))
        assert homogeneous_component(table, 1).values == table.values
        assert not homogeneous_component(table, 0).values

    def test_components_sum_back(self):
        p = AlgebraParams(0, 2)
        w = Window.symmetric(6)
        mixed = DerivationTable(
            "algebra",
            None,
            w,
            {
                L(1): parse_element("M[1] + 2*L[3]"),
                M(0): parse_element("Y[-2] - c"),
            },
        )
        parts = [homogeneous_component(mixed, a) for a in support_degrees(mixed)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        assert total.values == mixed.values

    def test_tensor_components_sum_back(self):
        w = Window.symmetric(6)
        mixed = DerivationTable(
            "tensor-square",
            None,
            w,
            {
                L(1): Tensor2(
                    {
                        (M(0), M(1)): Fraction(2),
                        (L(2), M(1)): Fraction(1, 3),
                    }
                )
            },
        )
        degrees = support_degrees(mixed)
        assert degrees == {Fraction(0), Fraction(2)}
        parts = [homogeneous_component(mixed, a) for a in degrees]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        assert total.values == mixed.values


class TestSerialization:
    def test_algebra_round_trip(self):
        p = AlgebraParams(0, -2)
        (table,) = catalog(p, "algebra", W12, params={"l_to_m_n3": Fraction(2, 3)})
        back = table_from_json(table_to_json(table))
        assert back.values == table.values
        assert back.target == table.target
        assert back.degree == table.degree
        assert back.window == table.window

    def test_tensor_round_trip(self):
        p = AlgebraParams(0, 0)
        (table,) = catalog(
            p,
            "tensor-square",
            W12,
            params={
                "ideal_scale_left": parse_element("c"),
                "l_to_m_1_right": parse_element("2*M[0]"),
            },
        )
        back = table_from_json(table_to_json(table))
        assert back.values == table.values

    def test_homogeneity_validation(self):
        table = DerivationTable(
            "algebra", Fraction(0), W12, {L(1): parse_element("M[2]")}
        )
        with pytest.raises(ValueError):
            check_homogeneous(table)
