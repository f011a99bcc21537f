"""Tensor square and cube of the algebra under the diagonal adjoint action.

Tensors are kept in fully expanded canonical coordinates: finitely
supported maps from ordered index pairs (or triples) to exact rationals.
The classical Yang-Baxter operator, the coboundary map and the related
identity checks all live here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .algebra import (
    AlgebraParams,
    BasisIndex,
    Element,
    SparseVector,
    Window,
    bracket,
    bracket_table,
    diag_action,
    format_term,
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
        return [format_term(key, coeff, True) for key, coeff in sorted(self.terms.items())]


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


def coboundary(r: Tensor2, x: Element, p: AlgebraParams) -> Tensor2:
    """The candidate cobracket at x: the diagonal action of x on r.

    Skewness of r is not enforced here; callers that need the bialgebra
    conclusion check it separately.
    """
    return diag_action(x, r, p)


def _integer_terms(v: SparseVector) -> tuple[int, dict]:
    """(d, v times d), where d is the lcm of the denominators of v, so
    every coefficient of the scaled v is an int."""
    d = lcm(1, *(c.denominator for c in v.terms.values()))
    return d, {key: c.numerator * (d // c.denominator) for key, c in v.terms.items()}


@lru_cache(maxsize=1)
def _cobracket_memo(r: Tensor2, p: AlgebraParams) -> tuple[int, dict, dict, dict]:
    """The integer data of the Yang-Baxter checks of one (r, p): R and r
    times R (see _integer_terms), the obstruction ybe_c(r, p) times
    p.scale * R**2 (zeros dropped), and a memo of the generator cobrackets
    of r times p.scale * R.  Callers check one r over a run of generators,
    so only the last pair is kept: each held pair keeps tens of kilobytes
    alive.

    The obstruction is expanded termwise over pairs of terms of r; each
    summand carries one bracket and two pass-through slots, so it lives in
    the triple tensor product of the algebra itself.
    """
    table = bracket_table(p)
    R, r_int = _integer_terms(r)
    out: dict[Triple, int] = {}
    terms = list(r_int.items())
    for (a1, b1), c1 in terms:
        for (a2, b2), c2 in terms:
            c = c1 * c2
            for e, k in table[a1, a2]:
                key = (e, b1, b2)
                out[key] = out.get(key, 0) + c * k
            for e, k in table[b1, a2]:
                key = (a1, e, b2)
                out[key] = out.get(key, 0) + c * k
            for e, k in table[b1, b2]:
                key = (a1, a2, e)
                out[key] = out.get(key, 0) + c * k
    return R, r_int, {key: v for key, v in out.items() if v}, {}


def ybe_c(r: Tensor2, p: AlgebraParams) -> Tensor3:
    """Yang-Baxter obstruction of r, summed in integers (_cobracket_memo)."""
    R, _, obstruction, _ = _cobracket_memo(r, p)
    unit = p.scale * R * R
    return Tensor3({key: Fraction(v, unit) for key, v in obstruction.items()})


def check_cybe(r: Tensor2, p: AlgebraParams) -> bool:
    """Classical Yang-Baxter equation: the obstruction vanishes."""
    return not _cobracket_memo(r, p)[2]


def check_mybe(r: Tensor2, p: AlgebraParams, w: Window) -> bool:
    """Modified Yang-Baxter equation on a window: every in-window
    generator kills the obstruction.  The generating set is tried: what
    kills a finite tensor is a subalgebra (see algebra.generating_set)."""
    obstruction = _cobracket_memo(r, p)[2]
    if not obstruction:
        return True
    table = bracket_table(p)
    for g in generating_set(p, w):
        if table.act(g, obstruction):
            return False
    return True


def check_cojacobi_identity(r: Tensor2, x: Element, p: AlgebraParams) -> bool:
    """Exact two-sided evaluation of the co-Jacobi balance for r at x.

    The cyclic symmetrization of (1 (x) cobracket) applied to the
    cobracket of x must equal the action of x on the Yang-Baxter
    obstruction.  This holds identically for skew r (r = -twist(r)), where
    a False return indicates an implementation bug.  For r that is not
    skew the balance need not hold, and a False return is expected.

    Both sides are summed in integers: with x scaled by X, the lcm of its
    denominators, and the memo's integer r, obstruction and cobrackets,
    each side comes out p.scale**2 * R**2 * X times the true one.
    """
    table = bracket_table(p)
    _, r_int, obstruction, memo = _cobracket_memo(r, p)

    def cobracket(g: BasisIndex) -> dict:
        t = memo.get(g)
        if t is None:
            t = memo[g] = table.act(g, r_int)
        return t

    _, x_int = _integer_terms(x)
    first: dict = {}
    for g, c in x_int.items():
        for key, cu in cobracket(g).items():
            first[key] = first.get(key, 0) + c * cu
    # 1 (x) cobracket, applied to the second slot of the cobracket of x
    nested: dict[Triple, int] = {}
    for (i, j), c in first.items():
        if c:
            for (u, v), cu in cobracket(j).items():
                nested[i, u, v] = nested.get((i, u, v), 0) + c * cu
    # summed over the three cyclic rotations of its slots; rotating the
    # summed terms is cheaper, as many terms share a key
    lhs: dict[Triple, int] = {}
    for (i, u, v), c in nested.items():
        if c:
            lhs[i, u, v] = lhs.get((i, u, v), 0) + c
            lhs[u, v, i] = lhs.get((u, v, i), 0) + c
            lhs[v, i, u] = lhs.get((v, i, u), 0) + c
    rhs: dict[Triple, int] = {}
    for g, c in x_int.items():
        for key, cu in table.act(g, obstruction).items():
            rhs[key] = rhs.get(key, 0) + c * cu
    return {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def check_compatibility(r: Tensor2, x: Element, y: Element, p: AlgebraParams) -> bool:
    """Cocycle identity for the coboundary: it must hold for any r."""
    lhs = coboundary(r, bracket(x, y, p), p)
    rhs = diag_action(x, coboundary(r, y, p), p) - diag_action(
        y, coboundary(r, x, p), p
    )
    return lhs == rhs
