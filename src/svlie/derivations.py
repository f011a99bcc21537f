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
from typing import Mapping, Optional, Union

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
from .tensors import Tensor2, diag_action, tensor_of

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
    values = {g: diag_action(Element.basis(g), v, p) for g in w.basis_indices(p)}
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

# name -> (source kind, weight at n); only the L and Y kinds read the weight
_MEMBERS = {
    "ideal_scale": ("ideal", None),
    "l_to_m_1": ("L", lambda n: 1),
    "l_to_m_n": ("L", lambda n: n),
    "l_to_m_n2": ("L", lambda n: n * n),
    "l_to_m_n3": ("L", lambda n: n**3),
    "l_to_m_n2_minus_n": ("L", lambda n: n * n - n),
    "y_to_m_1": ("Y", lambda n: 1),
    "y_to_m_n": ("Y", lambda n: n),
    "y0_to_c": ("Y0", None),
}

# (2s, lam) -> member names; every other lam of a sector is "generic"
_CASE_MEMBERS: dict[tuple[int, object], tuple[str, ...]] = {
    (1, Fraction(0)): ("ideal_scale", "l_to_m_1", "l_to_m_n"),
    (1, Fraction(-1)): ("ideal_scale", "l_to_m_n2_minus_n"),
    (1, Fraction(-2)): ("ideal_scale", "l_to_m_n3"),
    (1, "generic"): ("ideal_scale",),
    (0, Fraction(0)): ("ideal_scale", "l_to_m_1", "l_to_m_n"),
    (0, Fraction(-1)): ("ideal_scale", "l_to_m_n2", "y_to_m_n"),
    (0, Fraction(-2)): ("ideal_scale", "l_to_m_n3"),
    (0, Fraction(1)): ("ideal_scale", "y_to_m_1"),
    # [L_n, Y_-n] = 0 at -3, so Y_0 is no bracket and Y_0 -> c is a derivation
    (0, Fraction(-3)): ("ideal_scale", "y0_to_c"),
    (0, "generic"): ("ideal_scale",),
}


def case_label(p: AlgebraParams) -> object:
    """The case row key for (s, lam): the special value or 'generic'."""
    return p.lam if (p.s2, p.lam) in _CASE_MEMBERS else "generic"


def _case_members(p: AlgebraParams) -> list[str]:
    names = _CASE_MEMBERS[p.s2, case_label(p)]
    return [n for n in names if p.central or _MEMBERS[n][0] != "Y0"]


def _algebra_table(name: str, w: Window, p: AlgebraParams) -> dict[BasisIndex, Element]:
    """The values of the member name, at unit scalar, on every window
    generator; zero values are dropped by DerivationTable."""
    source, weight = _MEMBERS[name]
    values = {}
    for g in w.basis_indices(p):
        if source == "ideal" and g.kind in ("M", "Y"):
            values[g] = Element({g: 2 if g.kind == "M" else 1})
        elif source == "Y0" and g == BasisIndex("Y", 0):
            values[g] = Element.basis(C)
        elif source == g.kind:
            # Y rows are integer-sector only; Y and M then share doubled degrees
            values[g] = Element({BasisIndex("M", g.dd): weight(g.dd // 2)})
    return values


def _tensorize(values: Mapping[BasisIndex, Element], leg: Element, side: str) -> dict:
    if side == "left":
        return {g: tensor_of(leg, val) for g, val in values.items()}
    return {g: tensor_of(val, leg) for g, val in values.items()}


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
            DerivationTable(ALGEBRA, Fraction(0), w, _algebra_table(name, w, p), name=name)
            for name in members
        ]
    legs = center_in_window(p, w)
    tables = []
    for name in members:
        base = _algebra_table(name, w, p)
        for side in ("left", "right"):
            for leg in legs:
                tables.append(
                    DerivationTable(TENSOR, Fraction(0), w, _tensorize(base, leg, side),
                                    name=f"{name}|{side}|{leg}")
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
    that fold the scalar and the center leg together.  Unknown keys, or
    no key at all, raise CatalogCaseError, so requesting a constructor under the wrong
    deformation parameter fails loudly.
    """
    if params is None:
        return catalog_basis(p, target, w)
    members = _case_members(p)
    if target == ALGEBRA:
        allowed = set(members)
    else:
        allowed = {f"{n}_{side}" for n in members for side in ("left", "right")}
    unknown = sorted(set(params) - allowed)
    if unknown or not params:
        what = f"no constructor {unknown[0]!r}" if unknown else "params names no constructor"
        raise CatalogCaseError(
            f"{what} for the case {p.describe()}; allowed: {sorted(allowed)}"
        )
    combined: Optional[DerivationTable] = None
    for key, value in sorted(params.items()):
        if target == ALGEBRA:
            piece = DerivationTable(
                ALGEBRA, Fraction(0), w, _algebra_table(key, w, p), name=key
            ).scaled(rat(value))
        else:
            name, side = key.rsplit("_", 1)
            if not isinstance(value, Element):
                raise CatalogCaseError(f"{key} takes a central Element leg")
            base = _algebra_table(name, w, p)
            piece = DerivationTable(
                TENSOR, Fraction(0), w, _tensorize(base, value, side), name=key
            )
        combined = piece if combined is None else combined + piece
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
    if type(lo) is not int or type(hi) is not int:
        raise ValueError(f"window bounds must be integers: {payload['window']}")
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
