"""Derivation tables: catalog constructors, inner derivations, components."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
from svlie.algebra import C, bracket_table, center_in_window
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


# ---------------------------------------------------------------------------
# Reference catalog: one record per member with its own value rule, a
# separate special-lambda set and a term-by-term tensor product.  The
# data table of svlie.derivations must emit the same tables.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefMember:
    name: str
    source: str  # 'L', 'Y', 'Y0' or 'ideal'
    weight: Callable[[int], Fraction]

    def element_value(self, g: BasisIndex) -> Element:
        if self.source == "ideal":
            if g.kind == "M":
                return Element({g: Fraction(2)})
            if g.kind == "Y":
                return Element.basis(g)
            return Element.zero()
        if self.source == "Y0":
            return Element.basis(C) if g == BasisIndex("Y", 0) else Element.zero()
        if self.source == "L" and g.kind == "L":
            return Element({BasisIndex("M", g.dd): self.weight(g.dd // 2)})
        if self.source == "Y" and g.kind == "Y":
            # integer sector only; Y and M then share doubled degrees
            return Element({BasisIndex("M", g.dd): self.weight(g.dd // 2)})
        return Element.zero()


REF_IDEAL = RefMember("ideal_scale", "ideal", lambda n: Fraction(1))
REF_ROWS = {
    (1, Fraction(0)): [
        REF_IDEAL,
        RefMember("l_to_m_1", "L", lambda n: Fraction(1)),
        RefMember("l_to_m_n", "L", lambda n: Fraction(n)),
    ],
    (1, Fraction(-1)): [REF_IDEAL, RefMember("l_to_m_n2_minus_n", "L", lambda n: Fraction(n * n - n))],
    (1, Fraction(-2)): [REF_IDEAL, RefMember("l_to_m_n3", "L", lambda n: Fraction(n**3))],
    (1, "generic"): [REF_IDEAL],
    (0, Fraction(0)): [
        REF_IDEAL,
        RefMember("l_to_m_1", "L", lambda n: Fraction(1)),
        RefMember("l_to_m_n", "L", lambda n: Fraction(n)),
    ],
    (0, Fraction(-1)): [
        REF_IDEAL,
        RefMember("l_to_m_n2", "L", lambda n: Fraction(n * n)),
        RefMember("y_to_m_n", "Y", lambda n: Fraction(n)),
    ],
    (0, Fraction(-2)): [REF_IDEAL, RefMember("l_to_m_n3", "L", lambda n: Fraction(n**3))],
    (0, Fraction(1)): [REF_IDEAL, RefMember("y_to_m_1", "Y", lambda n: Fraction(1))],
    (0, Fraction(-3)): [REF_IDEAL, RefMember("y0_to_c", "Y0", lambda n: Fraction(1))],
    (0, "generic"): [REF_IDEAL],
}
REF_SPECIAL = {
    0: {Fraction(0), Fraction(1), Fraction(-1), Fraction(-2), Fraction(-3)},
    1: {Fraction(0), Fraction(-1), Fraction(-2)},
}


def reference_case_label(p):
    return p.lam if p.lam in REF_SPECIAL[p.s2] else "generic"


def reference_members(p):
    members = REF_ROWS[p.s2, reference_case_label(p)]
    return [m for m in members if p.central or m.source != "Y0"]


def reference_values(member, w, p):
    values = {}
    for g in w.basis_indices(p):
        val = member.element_value(g)
        if val:
            values[g] = val
    return values


def reference_tensorize(values, leg, side):
    out = {}
    for g, val in values.items():
        terms = {}
        for idx, coeff in val.terms.items():
            for z, cz in leg.terms.items():
                key = (z, idx) if side == "left" else (idx, z)
                terms[key] = terms.get(key, 0) + coeff * cz
        t = Tensor2(terms)
        if t:
            out[g] = t
    return out


def reference_catalog_basis(p, target, w):
    members = reference_members(p)
    if target == "algebra":
        return [
            DerivationTable("algebra", Fraction(0), w, reference_values(m, w, p), name=m.name)
            for m in members
        ]
    legs = center_in_window(p, w)
    return [
        DerivationTable(
            "tensor-square", Fraction(0), w,
            reference_tensorize(reference_values(m, w, p), leg, side),
            name=f"{m.name}|{side}|{leg}",
        )
        for m in members for side in ("left", "right") for leg in legs
    ]


def reference_catalog(p, target, w, params):
    members = {m.name: m for m in reference_members(p)}
    values: dict = {}
    for key, value in sorted(params.items()):
        if target == "algebra":
            piece = {
                g: v.scaled(value) for g, v in reference_values(members[key], w, p).items()
            }
        else:
            name, side = key.rsplit("_", 1)
            piece = reference_tensorize(reference_values(members[name], w, p), value, side)
        for g, v in piece.items():
            values[g] = values[g] + v if g in values else v
    return DerivationTable(target, Fraction(0), w, values, name="+".join(sorted(params)))


def reference_inner(v, p, w):
    table = bracket_table(p)
    values = {}
    for g in w.basis_indices(p):
        val = table.act(g, v.terms)
        if val:
            values[g] = type(v)({key: c / p.scale for key, c in val.items()})
    return values


REF_LAMBDAS = sorted(
    {Fraction(k, 4) for k in range(-16, 17)} | {Fraction(-5, 3), Fraction(5), Fraction(-3)}
)
REF_WINDOWS = [
    Window.symmetric(1), Window.symmetric(4), Window.symmetric(8), Window(-6, 0), Window(0, 9)
]


class TestCatalogReference:
    @pytest.mark.parametrize("s", [Fraction(0), HALF], ids=["s=0", "s=1/2"])
    @pytest.mark.parametrize("central", [True, False], ids=["central", "centerless"])
    def test_catalog_basis_matches_reference(self, s, central):
        for lam in REF_LAMBDAS:
            p = AlgebraParams(s, lam, central)
            assert case_label(p) == reference_case_label(p), p.describe()
            for w in REF_WINDOWS:
                for target in ("algebra", "tensor-square"):
                    got = [table_to_json(t) for t in catalog_basis(p, target, w)]
                    want = [table_to_json(t) for t in reference_catalog_basis(p, target, w)]
                    assert got == want, (p.describe(), target, w)

    @pytest.mark.parametrize("central", [True, False], ids=["central", "centerless"])
    def test_catalog_params_match_reference(self, central):
        leg = parse_element("3/2*M[0] - 2*c")
        for (s2, lam), members in REF_ROWS.items():
            lam = Fraction(7) if lam == "generic" else lam
            p = AlgebraParams(Fraction(s2, 2), lam, central)
            names = [m.name for m in reference_members(p)]
            scalars = {n: Fraction(-3, 2) * (i + 1) for i, n in enumerate(names)}
            legs = {f"{n}_{side}": leg for n in names for side in ("left", "right")}
            for w in (Window.symmetric(8), Window(0, 9)):
                for target, params in (("algebra", scalars), ("tensor-square", legs)):
                    (got,) = catalog(p, target, w, params=params)
                    want = reference_catalog(p, target, w, params)
                    assert table_to_json(got) == table_to_json(want), (p.describe(), target)

    @pytest.mark.parametrize("s,lam", [(HALF, Fraction(-1)), (Fraction(0), Fraction(-5, 3))])
    def test_inner_matches_reference(self, s, lam):
        p = AlgebraParams(s, lam)
        w = Window.symmetric(8)
        for v in (
            Element.basis(L(1)),
            parse_element("-2/3*M[-2]"),
            Element.basis(Y(s)),
            Tensor2.basis(L(1), M(-1)),
            Tensor2({(M(0), C): Fraction(5, 2), (C, L(0)): Fraction(-1)}),
        ):
            assert inner(v, p, w).values == reference_inner(v, p, w)


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

    @pytest.mark.parametrize("target", ["algebra", "tensor-square"])
    def test_case_error_for_empty_params(self, target):
        with pytest.raises(CatalogCaseError, match="names no constructor"):
            catalog(AlgebraParams(0, 0), target, W12, params={})

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
