"""Tensor square and cube of the algebra under the diagonal adjoint action.

Tensors are kept in fully expanded canonical coordinates: finitely
supported maps from ordered index pairs (or triples) to exact rationals.
The classical Yang-Baxter operator, the coboundary map and the related
identity checks all live here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import (
    AlgebraParams,
    BasisIndex,
    Element,
    SparseVector,
    Window,
    bracket_table,
    generating_set,
)

__all__ = [
    "Tensor2",
    "Tensor3",
    "check_compatibility",
    "check_cojacobi_identity",
    "check_cybe",
    "check_mybe",
    "coboundary",
    "cyclic",
    "diag_action",
    "skew_part_membership",
    "twist",
    "ybe_c",
]

Triple = tuple[BasisIndex, BasisIndex, BasisIndex]


class Tensor2(SparseVector):
    """Element of the tensor square, r = sum a_i (x) b_i."""

    __slots__ = ()
    _arity = 2

    def file_lines(self) -> list[str]:
        """One signed term per line, the r-matrix file format."""
        lines = []
        for (i, j), coeff in sorted(self.terms.items()):
            lines.append(f"{coeff} * {i.label()} (x) {j.label()}")
        return lines


class Tensor3(SparseVector):
    """Element of the triple tensor product."""

    __slots__ = ()
    _arity = 3


def tensor_of(x: Element, y: Element) -> Tensor2:
    out = {}
    for i, ci in x.terms.items():
        for j, cj in y.terms.items():
            out[(i, j)] = ci * cj
    return Tensor2(out)


def twist(t: Tensor2) -> Tensor2:
    """Swap the two slots termwise."""
    return Tensor2({(j, i): c for (i, j), c in t.terms.items()})


def cyclic(t: Tensor3) -> Tensor3:
    """Rotate slots: a (x) b (x) c -> b (x) c (x) a."""
    return Tensor3({(j, k, i): c for (i, j, k), c in t.terms.items()})


def skew_part_membership(t: Tensor2) -> bool:
    """True iff t lies in the image of (1 - twist), i.e. twist(t) == -t."""
    return twist(t) == -t


def diag_action(x: Element, t: SparseVector, p: AlgebraParams) -> SparseVector:
    """Leibniz action on every slot of t, a Tensor2 or a Tensor3:
    x . (a (x) b) = [x,a] (x) b + a (x) [x,b]."""
    table = bracket_table(p)
    out: dict = {}
    for g, cg in x.terms.items():
        for key, c in table.act(g, t.terms).items():
            out[key] = out.get(key, 0) + cg * c
    return type(t)({key: c / p.scale for key, c in out.items()})


def coboundary(r: Tensor2, x: Element, p: AlgebraParams) -> Tensor2:
    """The candidate cobracket at x: the diagonal action of x on r.

    Skewness of r is not enforced here; callers that need the bialgebra
    conclusion check it separately.
    """
    return diag_action(x, r, p)


def ybe_c(r: Tensor2, p: AlgebraParams) -> Tensor3:
    """Yang-Baxter obstruction of r.

    Expanded termwise over pairs of terms of r; each summand carries one
    bracket and two pass-through slots, so the result lives in the triple
    tensor product of the algebra itself.
    """
    table = bracket_table(p)
    out: dict[Triple, Fraction] = {}

    def add(key: Triple, val: Fraction) -> None:
        out[key] = out.get(key, 0) + val

    terms = list(r.terms.items())
    for (a1, b1), c1 in terms:
        for (a2, b2), c2 in terms:
            c = c1 * c2
            for e, k in table[a1, a2]:
                add((e, b1, b2), c * k)
            for e, k in table[b1, a2]:
                add((a1, e, b2), c * k)
            for e, k in table[b1, b2]:
                add((a1, a2, e), c * k)
    return Tensor3({key: v / p.scale for key, v in out.items()})


def check_cybe(r: Tensor2, p: AlgebraParams) -> bool:
    """Classical Yang-Baxter equation: the obstruction vanishes."""
    return not ybe_c(r, p)


def check_mybe(r: Tensor2, p: AlgebraParams, w: Window) -> bool:
    """Modified Yang-Baxter equation on a window: every in-window
    generator kills the obstruction.  The generating set is tried: what
    kills a finite tensor is a subalgebra (see algebra.generating_set)."""
    obstruction = ybe_c(r, p)
    if not obstruction:
        return True
    for g in generating_set(p, w):
        if diag_action(Element.basis(g), obstruction, p):
            return False
    return True


@lru_cache(maxsize=1)
def _cobracket_memo(r: Tensor2, p: AlgebraParams) -> tuple[Tensor3, dict]:
    """ybe_c(r, p) and a memo of the generator cobrackets of r, shared by
    the co-Jacobi checks of one (r, p).  Callers check one r over a run of
    generators, so only the last pair is kept: each held pair keeps tens of
    kilobytes alive."""
    return ybe_c(r, p), {}


def check_cojacobi_identity(r: Tensor2, x: Element, p: AlgebraParams) -> bool:
    """Exact two-sided evaluation of the co-Jacobi balance for r at x.

    The cyclic symmetrization of (1 (x) cobracket) applied to the
    cobracket of x must equal the action of x on the Yang-Baxter
    obstruction.  This holds identically for skew r (r = -twist(r)), where
    a False return indicates an implementation bug.  For r that is not
    skew the balance need not hold, and a False return is expected.
    """
    obstruction, memo = _cobracket_memo(r, p)

    def cobracket(g: BasisIndex) -> Tensor2:
        t = memo.get(g)
        if t is None:
            t = memo[g] = coboundary(r, Element.basis(g), p)
        return t

    first: dict = {}
    for g, c in x.terms.items():
        for key, cu in cobracket(g).terms.items():
            first[key] = first.get(key, 0) + c * cu
    # 1 (x) cobracket, applied to the second slot of the cobracket of x
    nested: dict[Triple, Fraction] = {}
    for (i, j), c in first.items():
        for (u, v), cu in cobracket(j).terms.items():
            nested[i, u, v] = nested.get((i, u, v), 0) + c * cu
    lhs = Tensor3(nested)
    lhs = lhs + cyclic(lhs) + cyclic(cyclic(lhs))
    return lhs == diag_action(x, obstruction, p)


def check_compatibility(r: Tensor2, x: Element, y: Element, p: AlgebraParams) -> bool:
    """Cocycle identity for the coboundary: it must hold for any r."""
    from .algebra import bracket

    lhs = coboundary(r, bracket(x, y, p), p)
    rhs = diag_action(x, coboundary(r, y, p), p) - diag_action(
        y, coboundary(r, x, p), p
    )
    return lhs == rhs
