"""Derivations of the algebra with values in itself or its tensor square.

A derivation is stored extensionally: a table of values at every window
generator.  Closed-form rules exist only inside the named constructors,
which cover the known degree-zero families for each deformation case.
Verification, inner derivations and the homogeneous degree decomposition
are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Optional, Union

from .algebra import (
    C,
    AlgebraParams,
    BasisIndex,
    Element,
    Window,
    bracket_table,
    center_in_window,
    rat,
)
from .tensors import Tensor2

__all__ = [
    "CatalogCaseError",
    "DerivationReport",
    "DerivationTable",
    "case_label",
    "catalog",
    "catalog_basis",
    "homogeneous_component",
    "inner",
    "is_derivation",
    "table_from_json",
    "table_to_json",
]

ALGEBRA = "algebra"
TENSOR = "tensor-square"

Value = Union[Element, Tensor2]


class CatalogCaseError(ValueError):
    """Requested constructors do not exist for the given case row."""


def _zero(target: str) -> Value:
    return Element.zero() if target == ALGEBRA else Tensor2.zero()


@dataclass
class DerivationTable:
    """A degree-homogeneous linear rule on a window of generators.

    values maps in-window generators to elements (algebra target) or
    two-tensors (tensor-square target); absent entries mean zero.  degree
    may be None for raw rules that have not been decomposed yet.
    """

    target: str
    degree: Optional[Fraction]
    window: Window
    values: dict[BasisIndex, Value] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if self.target not in (ALGEBRA, TENSOR):
            raise ValueError(f"unknown target {self.target!r}")
        self.values = {g: v for g, v in self.values.items() if v}

    def value(self, g: BasisIndex) -> Value:
        return self.values.get(g, _zero(self.target))

    def __add__(self, other: "DerivationTable") -> "DerivationTable":
        if (self.target, self.window) != (other.target, other.window):
            raise ValueError("tables live on different targets or windows")
        degree = self.degree if self.degree == other.degree else None
        vals = dict(self.values)
        for g, v in other.values.items():
            vals[g] = vals[g] + v if g in vals else v
        return DerivationTable(self.target, degree, self.window, vals)

    def scaled(self, factor) -> "DerivationTable":
        factor = rat(factor)
        return DerivationTable(
            self.target,
            self.degree,
            self.window,
            {g: v.scaled(factor) for g, v in self.values.items()},
            self.name,
        )


@dataclass
class DerivationReport:
    table: DerivationTable
    params: AlgebraParams
    checked: int
    skipped: int
    violations: list  # (g, h, lhs, rhs)

    @property
    def ok(self) -> bool:
        return not self.violations

    def witness(self):
        return self.violations[0] if self.violations else None


def is_derivation(D: DerivationTable, p: AlgebraParams) -> DerivationReport:
    """Check the derivation identity on every admissible generator pair.

    A pair (g, h) is admissible when the bracket components stay in the
    window and both action results are window-supported; boundary pairs
    are skipped, never guessed.

    The identity is checked in integers, scaled by p.scale (the bracket
    table) and by the common denominator of the table's values; only a
    violation builds its two sides as values.  Every term of [g, h] has
    the doubled degree g.dd + h.dd, so one degree test places the whole
    bracket in or out of the window; a generator without a value acts on
    nothing, so its action is not computed, and a pair with no value at g,
    at h or at any term of [g, h] is counted as checked without either
    side being built.
    """
    w = D.window
    gens = w.basis_indices(p)
    table = bracket_table(p)
    den = lcm(1, *(c.denominator for v in D.values.values() for c in v.terms.values()))
    vals = {
        g: {key: c.numerator * (den // c.denominator) for key, c in v.terms.items()}
        for g, v in D.values.items()
    }
    unit = p.scale * den
    make = Element if D.target == ALGEBRA else Tensor2
    lo, hi = w.lo, w.hi
    checked = skipped = 0
    violations = []
    for i, g in enumerate(gens):
        dg, vg = g.dd, vals.get(g)
        for j in range(i + 1, len(gens)):
            h = gens[j]
            br = table[g, h]
            if br and not lo <= dg + h.dd <= hi:
                skipped += 1
                continue
            vh = vals.get(h)
            if not (vg or vh or any(e in vals for e, _ in br)):
                checked += 1  # both sides are zero
                continue
            rhs = table.act(g, vh) if vh else {}
            rhs_h = table.act(h, vg) if vg else {}
            if not (all(map(w.contains, rhs)) and all(map(w.contains, rhs_h))):
                skipped += 1
                continue
            lhs: dict = {}
            for e, k in br:
                for key, c in vals.get(e, {}).items():
                    lhs[key] = lhs.get(key, 0) + k * c
            # rhs - lhs, in act's own fresh dict; a violation adds lhs back
            for key, c in rhs_h.items():
                rhs[key] = rhs.get(key, 0) - c
            for key, c in lhs.items():
                rhs[key] = rhs.get(key, 0) - c
            checked += 1
            if any(rhs.values()):
                for key, c in lhs.items():
                    rhs[key] += c
                violations.append((
                    g,
                    h,
                    make({key: Fraction(c, unit) for key, c in lhs.items()}),
                    make({key: Fraction(c, unit) for key, c in rhs.items()}),
                ))
    return DerivationReport(D, p, checked, skipped, violations)


def inner(v: Value, p: AlgebraParams, w: Window) -> DerivationTable:
    """The inner derivation g -> g . v for a homogeneous v."""
    if isinstance(v, Tensor2):
        target = TENSOR
        degrees = {i.dd + j.dd for (i, j) in v.terms}
    else:
        target = ALGEBRA
        degrees = {i.dd for i in v.terms}
    if len(degrees) > 1:
        raise ValueError("inner derivation needs a homogeneous element")
    shift = degrees.pop() if degrees else 0
    table = bracket_table(p)
    values = {}
    for g in w.basis_indices(p):
        val = table.act(g, v.terms)
        if val:
            values[g] = type(v)({key: c / p.scale for key, c in val.items()})
    return DerivationTable(target, Fraction(shift, 2), w, values, name="inner")


# ---------------------------------------------------------------------------
# Named degree-zero constructors
# ---------------------------------------------------------------------------
#
# Each case row of the family carries a small basis of outer degree-zero
# derivations, written here by what the rule does:
#
#   ideal_scale       M_n -> 2 M_n,  Y_q -> Y_q
#   l_to_m_<weight>   L_n -> weight(n) M_n
#   y_to_m_<weight>   Y_n -> weight(n) M_n   (integer sector only)
#   y0_to_c           Y_0 -> c               (central rows only)
#
# Tensor-square versions put a window-central leg on either side of the
# same values; their span is what the degree-zero tensor cohomology
# reproduces.

def _w_one(n: int) -> Fraction:
    return Fraction(1)


def _w_n(n: int) -> Fraction:
    return Fraction(n)


def _w_n2(n: int) -> Fraction:
    return Fraction(n * n)


def _w_n3(n: int) -> Fraction:
    return Fraction(n**3)


def _w_n2_minus_n(n: int) -> Fraction:
    return Fraction(n * n - n)


@dataclass(frozen=True)
class _Member:
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
            coeff = self.weight(g.dd // 2)
            return Element({BasisIndex("M", g.dd): coeff})
        if self.source == "Y" and g.kind == "Y":
            # integer sector only; Y and M then share doubled degrees
            coeff = self.weight(g.dd // 2)
            return Element({BasisIndex("M", g.dd): coeff})
        return Element.zero()


_IDEAL_SCALE = _Member("ideal_scale", "ideal", _w_one)

_CASE_MEMBERS: dict[tuple[int, object], list[_Member]] = {
    # s = 1/2 rows, keyed by the deformation parameter
    (1, Fraction(0)): [
        _IDEAL_SCALE,
        _Member("l_to_m_1", "L", _w_one),
        _Member("l_to_m_n", "L", _w_n),
    ],
    (1, Fraction(-1)): [_IDEAL_SCALE, _Member("l_to_m_n2_minus_n", "L", _w_n2_minus_n)],
    (1, Fraction(-2)): [_IDEAL_SCALE, _Member("l_to_m_n3", "L", _w_n3)],
    (1, "generic"): [_IDEAL_SCALE],
    # s = 0 rows
    (0, Fraction(0)): [
        _IDEAL_SCALE,
        _Member("l_to_m_1", "L", _w_one),
        _Member("l_to_m_n", "L", _w_n),
    ],
    (0, Fraction(-1)): [
        _IDEAL_SCALE,
        _Member("l_to_m_n2", "L", _w_n2),
        _Member("y_to_m_n", "Y", _w_n),
    ],
    (0, Fraction(-2)): [_IDEAL_SCALE, _Member("l_to_m_n3", "L", _w_n3)],
    (0, Fraction(1)): [_IDEAL_SCALE, _Member("y_to_m_1", "Y", _w_one)],
    # [L_n, Y_-n] = 0 at -3, so Y_0 is no bracket and Y_0 -> c is a derivation
    (0, Fraction(-3)): [_IDEAL_SCALE, _Member("y0_to_c", "Y0", _w_one)],
    (0, "generic"): [_IDEAL_SCALE],
}

_SPECIAL = {0: {Fraction(0), Fraction(1), Fraction(-1), Fraction(-2), Fraction(-3)},
            1: {Fraction(0), Fraction(-1), Fraction(-2)}}


def case_label(p: AlgebraParams) -> object:
    """The case row key for (s, lam): the special value or 'generic'."""
    return p.lam if p.lam in _SPECIAL[p.s2] else "generic"


def _case_members(p: AlgebraParams) -> list[_Member]:
    members = _CASE_MEMBERS[p.s2, case_label(p)]
    return [m for m in members if p.central or m.source != "Y0"]


def _algebra_table(member: _Member, w: Window, p: AlgebraParams) -> dict[BasisIndex, Element]:
    values = {}
    for g in w.basis_indices(p):
        val = member.element_value(g)
        if val:
            values[g] = val
    return values


def _tensorize(values: Mapping[BasisIndex, Element], leg: Element, side: str) -> dict:
    out = {}
    for g, val in values.items():
        terms = {}
        for idx, coeff in val.terms.items():
            for z, cz in leg.terms.items():
                key = (z, idx) if side == "left" else (idx, z)
                c = coeff * cz
                terms[key] = terms[key] + c if key in terms else c
        t = Tensor2(terms)
        if t:
            out[g] = t
    return out


def catalog_basis(p: AlgebraParams, target: str, w: Window) -> list[DerivationTable]:
    """The full unit-parameter family for the case row of p.

    Every case row has one; y0_to_c, whose value is c, is left out on
    centerless rows.  Algebra target: one table per member.  Tensor
    target: one table per (member, side, window-central leg), the
    center-legged versions of the algebra family.  The length of this list
    is the raw parameter count; the dimension is the number of these
    tables that stay independent modulo inner derivations, which solve_h1
    certifies.
    """
    members = _case_members(p)
    if target == ALGEBRA:
        return [
            DerivationTable(ALGEBRA, Fraction(0), w, _algebra_table(member, w, p),
                            name=member.name)
            for member in members
        ]
    legs = center_in_window(p, w)
    tables = []
    for member in members:
        base = _algebra_table(member, w, p)
        for side in ("left", "right"):
            for leg in legs:
                tables.append(
                    DerivationTable(TENSOR, Fraction(0), w, _tensorize(base, leg, side),
                                    name=f"{member.name}|{side}|{leg}")
                )
    return tables


def catalog(
    p: AlgebraParams,
    target: str,
    w: Window,
    params: Optional[Mapping[str, object]] = None,
) -> list[DerivationTable]:
    """Named constructors for the case row selected by p.

    With params=None, emit the unit basis family.  Otherwise params maps
    member names (algebra target) to rational coefficients, or keys
    '<member>_left'/'<member>_right' (tensor target) to central Elements
    that fold the scalar and the center leg together.  Unknown keys raise
    CatalogCaseError, so requesting a constructor under the wrong
    deformation parameter fails loudly.
    """
    if params is None:
        return catalog_basis(p, target, w)
    members = {m.name: m for m in _case_members(p)}
    if target == ALGEBRA:
        allowed = set(members)
    else:
        allowed = {f"{n}_{side}" for n in members for side in ("left", "right")}
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise CatalogCaseError(
            f"no constructor {unknown[0]!r} for the case {p.describe()}; "
            f"allowed: {sorted(allowed)}"
        )
    combined: Optional[DerivationTable] = None
    for key, value in sorted(params.items()):
        if target == ALGEBRA:
            member = members[key]
            piece = DerivationTable(
                ALGEBRA, Fraction(0), w, _algebra_table(member, w, p), name=key
            ).scaled(rat(value))
        else:
            name, side = key.rsplit("_", 1)
            if not isinstance(value, Element):
                raise CatalogCaseError(f"{key} takes a central Element leg")
            base = _algebra_table(members[name], w, p)
            piece = DerivationTable(
                TENSOR, Fraction(0), w, _tensorize(base, value, side), name=key
            )
        combined = piece if combined is None else combined + piece
    assert combined is not None
    combined.name = "+".join(sorted(params))
    return [combined]


def homogeneous_component(D: DerivationTable, alpha: Fraction) -> DerivationTable:
    """Extract the degree-alpha part of each value of a raw rule."""
    alpha = rat(alpha)
    shift = alpha * 2
    values = {}
    for g, val in D.values.items():
        want = g.dd + shift
        kept = {}
        for key, coeff in val.terms.items():
            dd = key.dd if isinstance(key, BasisIndex) else sum(i.dd for i in key)
            if dd == want:
                kept[key] = coeff
        if kept:
            values[g] = type(val)(kept)
    return DerivationTable(D.target, alpha, D.window, values, name=D.name)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def table_to_json(D: DerivationTable) -> str:
    payload = {
        "target": D.target,
        "degree": None if D.degree is None else str(D.degree),
        "window": [D.window.lo, D.window.hi],
        "values": [
            {"gen": g.label(), "value": str(D.value(g))}
            for g in sorted(D.values)
        ],
    }
    if D.name:
        payload["name"] = D.name
    return json.dumps(payload, indent=2)


def table_from_json(text: str) -> DerivationTable:
    from .literals import parse_element, parse_tensor2

    payload = json.loads(text)
    target = payload["target"]
    degree = None if payload.get("degree") is None else rat(payload["degree"])
    lo, hi = payload["window"]
    window = Window(lo, hi)
    values = {}
    for pos, entry in enumerate(payload["values"]):
        gen = parse_element(entry["gen"])
        if list(gen.terms.values()) != [1]:
            msg = "must be a single generator with coefficient 1"
            raise ValueError(f"values[{pos}]: gen {entry['gen']!r} {msg}")
        (g,) = gen.terms
        if target == ALGEBRA:
            values[g] = parse_element(entry["value"])
        else:
            values[g] = parse_tensor2(entry["value"])
    return DerivationTable(target, degree, window, values, payload.get("name", ""))
