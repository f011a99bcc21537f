"""Exact construction of the deformative Schroedinger-Virasoro Lie algebras.

The family is indexed by a sector s in {0, 1/2} and a rational deformation
parameter lam, with an optional central charge generator c.  The basis
consists of Virasoro generators L_n, current generators M_n, half-shifted
generators Y_{s+n} and (optionally) c.  All degrees are stored doubled, so
the integer grading (s = 0) and the half-integer grading (s = 1/2) share
one integer representation.

Every coefficient is an exact ``fractions.Fraction`` (bracket_int and
BracketTable hold ints over the common denominator p.scale); all values
here are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterator, Mapping, NamedTuple, Optional, Union

from .linalg import RowEchelon

__all__ = [
    "AlgebraParams",
    "BasisIndex",
    "BracketTable",
    "CoefficientTooLongError",
    "Element",
    "InvalidIndexError",
    "JacobiReport",
    "SparseVector",
    "Window",
    "C",
    "L",
    "M",
    "Y",
    "action_kernel",
    "bracket",
    "bracket_int",
    "bracket_table",
    "center_in_window",
    "center_keys",
    "check_jacobi",
    "degree_of",
    "diag_action",
    "generating_set",
    "rat",
]

Rational = Union[int, str, Fraction]

HALF = Fraction(1, 2)


def rat(x: Rational) -> Fraction:
    """Coerce an int, a string like '-5/3' or a Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


class InvalidIndexError(ValueError):
    """A basis index is malformed or violates the Y-parity rule for s."""


class CoefficientTooLongError(ValueError):
    """A coefficient to print has more digits than str(int) converts."""


class BasisIndex(NamedTuple):
    """A generator tag with a doubled degree.

    kind is one of 'L', 'M', 'Y', 'c'.  The actual degree is dd/2.  Tuple
    ordering gives the canonical order: kind L < M < Y < c, then degree.
    """

    kind: str
    dd: int

    @property
    def degree(self) -> Fraction:
        return Fraction(self.dd, 2)

    @lru_cache(maxsize=1024)
    def label(self) -> str:
        """The literal form, cached: the printers ask for it on every term."""
        if self.kind == "c":
            return "c"
        if self.dd % 2 == 0:
            return f"{self.kind}[{self.dd // 2}]"
        return f"{self.kind}[{self.dd}/2]"

    def __str__(self) -> str:  # pragma: no cover - repr helper
        return self.label()


def L(n: int) -> BasisIndex:
    return BasisIndex("L", 2 * n)


def M(n: int) -> BasisIndex:
    return BasisIndex("M", 2 * n)


def Y(q: Rational) -> BasisIndex:
    """Y generator of degree q; q may be an integer or a half-integer."""
    q = rat(q) if not isinstance(q, Fraction) else q
    dd = q * 2
    if dd.denominator != 1:
        raise InvalidIndexError(f"Y degree must be integer or half-integer: {q}")
    return BasisIndex("Y", int(dd))


C = BasisIndex("c", 0)

_KINDS = ("L", "M", "Y", "c")


def check_index(idx: BasisIndex, s2: Optional[int] = None) -> None:
    """Validate an index; with s2 = 2s given, also check the Y parity."""
    if idx.kind not in _KINDS:
        raise InvalidIndexError(f"unknown generator kind {idx.kind!r}")
    if idx.kind in ("L", "M") and idx.dd % 2 != 0:
        raise InvalidIndexError(f"{idx.kind} index must have integer degree: {idx}")
    if idx.kind == "c" and idx.dd != 0:
        raise InvalidIndexError("c carries degree 0 only")
    if s2 is not None and idx.kind == "Y" and idx.dd % 2 != s2 % 2:
        raise InvalidIndexError(
            f"Y index {idx.label()} has the wrong parity for s={Fraction(s2, 2)}"
        )


@dataclass(frozen=True)
class AlgebraParams:
    """Selects one algebra of the family: the pair (s, lam) plus the
    central switch (when False, c is set to zero and dropped everywhere).

    Derived once, with the hash: s2 = 2s (the Y parity class), scale (see
    bracket_int) and the integer multipliers bracket_int reads, scale
    times lam, (lam + 1)/2, 1/2 and 1/12 (k_lm, k_ly, k_half, k_c)."""

    s: Fraction
    lam: Fraction
    central: bool = True
    s2: int = field(init=False, compare=False, repr=False)
    scale: int = field(init=False, compare=False, repr=False)
    k_lm: int = field(init=False, compare=False, repr=False)
    k_ly: int = field(init=False, compare=False, repr=False)
    k_half: int = field(init=False, compare=False, repr=False)
    k_c: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "s", rat(self.s))
        set_(self, "lam", rat(self.lam))
        if self.s not in (Fraction(0), HALF):
            raise ValueError(f"s must be 0 or 1/2, got {self.s}")
        num, den = self.lam.numerator, self.lam.denominator
        D = lcm(12, 2 * den)
        set_(self, "s2", int(self.s * 2))
        set_(self, "scale", D)
        set_(self, "k_lm", num * (D // den))
        set_(self, "k_ly", (num + den) * (D // (2 * den)))
        set_(self, "k_half", D // 2)
        set_(self, "k_c", D // 12)
        set_(self, "_hash", hash((self.s, self.lam, self.central)))

    def __hash__(self) -> int:
        return self._hash

    def as_dict(self) -> dict:
        """The parameters as every JSON report writes them."""
        return {"s": str(self.s), "lambda": str(self.lam), "central": self.central}

    def describe(self) -> str:
        c = "central" if self.central else "centerless"
        return f"s={self.s}, lambda={self.lam}, {c}"


class SparseVector:
    """A finitely supported exact-rational vector over hashable keys: the
    container that elements and tensors share.

    Canonical form: no stored coefficient is zero, so equality is plain
    coefficient comparison between vectors of the same type.  Treated as
    immutable after construction.  Keys are tuples of _arity basis indices
    and print in tensor form; Element overrides both.
    """

    __slots__ = ("terms",)
    _arity = 0

    def __init__(self, terms: Optional[dict] = None) -> None:
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
                if coeff:
                    clean[key] = coeff
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis(cls, *indices: BasisIndex):
        if len(indices) != cls._arity:
            raise ValueError(f"expected {cls._arity} indices")
        return cls({tuple(indices): Fraction(1)})

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def items(self) -> Iterator:
        return iter(self.terms.items())

    def support(self) -> list:
        return sorted(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def scaled(self, factor: Rational):
        factor = rat(factor)
        if not factor:
            return type(self)()
        return type(self)({k: c * factor for k, c in self.terms.items()})

    __mul__ = scaled
    __rmul__ = scaled

    def __str__(self) -> str:
        return format_terms(sorted(self.terms.items()), tensor=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self})"


class Element(SparseVector):
    """An element of the algebra: a sparse vector over basis indices."""

    __slots__ = ()

    @classmethod
    def basis(cls, idx: BasisIndex) -> "Element":
        return cls({idx: Fraction(1)})

    def __str__(self) -> str:
        return format_terms(sorted(self.terms.items()), tensor=False)


def format_terms(items, tensor: bool) -> str:
    """Shared canonical printer for element and tensor literals.

    Elements print as ``-4*L[0] - 1/2*c`` (no spaces around ``*``, unit
    coefficients elided); tensor terms keep an explicit coefficient with
    spaces, e.g. ``1 * L[0] (x) L[1]``.
    """
    if not items:
        return "0"
    parts: list[str] = []
    signs = _LEAD
    for key, coeff in items:
        parts.append(format_term(key, coeff, tensor, signs))
        signs = _NEXT
    return " ".join(parts)


# the sign of a leading term, and of a term after another one
_LEAD = ("", "-")
_NEXT = ("+ ", "- ")


def format_term(key, coeff: Fraction, tensor: bool, signs: tuple = _LEAD) -> str:
    """One term of format_terms, signed as a leading term by default."""
    # the magnitude from the integers: abs(), > and str() on a Fraction
    # each build objects in Python code
    num, den = coeff.numerator, coeff.denominator
    try:
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
    except ValueError:  # str(int) raises it only past the digit limit
        limit = sys.get_int_max_str_digits()
        raise CoefficientTooLongError(f"a coefficient exceeds the {limit}-digit limit") from None
    if tensor:
        body = f"{mag} * {' (x) '.join([idx.label() for idx in key])}"
    else:
        body = key.label() if mag == "1" else f"{mag}*{key.label()}"
    return signs[num < 0] + body


# ---------------------------------------------------------------------------
# The bracket
# ---------------------------------------------------------------------------

# the result indices of bracket_int, shared by every table: a window-64
# Jacobi check and tensor-square solve reach 207 distinct ones
_index = lru_cache(maxsize=4096)(BasisIndex)


def bracket_int(
    a: BasisIndex, b: BasisIndex, p: AlgebraParams
) -> tuple[tuple[BasisIndex, int], ...]:
    """Bracket of two basis generators, every coefficient times p.scale.

    The table is total: generator pairs without a listed product return
    the empty tuple rather than raising.  Only the stated products are
    non-vanishing:

        [L_n, L_m]     = (m - n) L_{m+n} + (m^3 - m)/12 delta_{m+n,0} c
        [L_n, M_m]     = (m - lam*n) M_{m+n}
        [L_n, Y_q]     = (q - (lam+1)/2 * n) Y_{q+n}
        [Y_q, Y_r]     = (r - q) M_{q+r}   (index sum lands on an M degree)

    plus the antisymmetric flips; anything involving c is zero.  When
    central is off the c coefficient is dropped.  p.scale = lcm(12,
    2 den(lam)) clears the denominators 12, den(lam) and 2 den(lam) of
    these constants, so every returned coefficient is an int; the
    multipliers p.k_lm, p.k_ly, p.k_half and p.k_c are derived once per
    parameter set.  Only the L-M and L-Y products depend on lam: every
    other entry is the same for all lam of one (s2, central, scale), which
    BracketTable shares.  The returned indices are interned.
    """
    check_index(a, p.s2)
    check_index(b, p.s2)
    if a.kind == "c" or b.kind == "c":
        return ()
    sign = 1
    if (a.kind, b.kind) in (("M", "L"), ("Y", "L")):
        a, b, sign = b, a, -1
    ka, kb = a.kind, b.kind
    out: list[tuple[BasisIndex, int]] = []
    if ka == "L" and kb == "L":
        n, m = a.dd // 2, b.dd // 2
        coeff = (m - n) * p.scale
        if coeff:
            out.append((_index("L", a.dd + b.dd), sign * coeff))
        if p.central and m + n == 0:
            cc = (m**3 - m) * p.k_c
            if cc:
                out.append((C, sign * cc))
    elif ka == "L" and kb == "M":
        n, m = a.dd // 2, b.dd // 2
        coeff = m * p.scale - n * p.k_lm
        if coeff:
            out.append((_index("M", a.dd + b.dd), sign * coeff))
    elif ka == "L" and kb == "Y":
        coeff = b.dd * p.k_half - (a.dd // 2) * p.k_ly
        if coeff:
            out.append((_index("Y", a.dd + b.dd), sign * coeff))
    elif ka == "Y" and kb == "Y":
        coeff = (b.dd - a.dd) * p.k_half
        if coeff:
            out.append((_index("M", a.dd + b.dd), sign * coeff))
    return tuple(out)


# the kind pairs whose bracket depends on lam; every other entry is shared
_LAM_KINDS = frozenset({("L", "M"), ("M", "L"), ("L", "Y"), ("Y", "L")})


@lru_cache(maxsize=8)
def _lam_free_entries(s2: int, central: bool, scale: int) -> dict:
    """The bracket_int entries shared by every parameter set with this
    (s2, central, scale): all but the L-M and L-Y ones.  s2 is part of
    the key because check_index enforces the Y parity, so a wrong-parity
    key raises before it can be stored."""
    return {}


class BracketTable(dict):
    """Generator brackets times p.scale, keyed on (a, b) and computed on
    first lookup: bracket_int(a, b, p), or bracket_fn read on the basis
    pair when one is given.

    Without bracket_fn the table starts as a copy of the lam-free entries
    already computed for its (s2, central, scale), so a new lam computes
    only its L-M and L-Y entries, and a miss of any other kind is stored
    there for the next table.  A bracket_fn table neither reads nor
    writes them."""

    def __init__(self, p: AlgebraParams, bracket_fn=None) -> None:
        self.p = p
        self.bracket_fn = bracket_fn
        self.shared = None
        if bracket_fn is None:
            self.shared = _lam_free_entries(p.s2, p.central, p.scale)
            self.update(self.shared)

    def __missing__(self, key: tuple[BasisIndex, BasisIndex]):
        a, b = key
        if self.bracket_fn is None:
            terms = bracket_int(a, b, self.p)
            if (a.kind, b.kind) not in _LAM_KINDS:
                self.shared[key] = terms
        else:
            out = self.bracket_fn(Element.basis(a), Element.basis(b))
            terms = tuple((e, c * self.p.scale) for e, c in out.items())
        self[key] = terms
        return terms

    def act(self, g: BasisIndex, vec: Mapping) -> dict:
        """Coordinates of g . vec times p.scale, zeros dropped.

        vec maps keys to coefficients: a generator key is bracketed, a
        pair or triple key takes the Leibniz action slot by slot,
        g . (a (x) b) = [g, a] (x) b + a (x) [g, b].
        """
        out: dict = {}
        for key, c in vec.items():
            if type(key) is BasisIndex:
                for e, k in self[g, key]:
                    out[e] = out.get(e, 0) + c * k
                continue
            # pairs and triples unpacked: slicing the key made a pair-key
            # call about a third slower
            if len(key) == 2:
                a, b = key
                for e, k in self[g, a]:
                    out[e, b] = out.get((e, b), 0) + c * k
                for e, k in self[g, b]:
                    out[a, e] = out.get((a, e), 0) + c * k
                continue
            a, b, d = key
            for e, k in self[g, a]:
                out[e, b, d] = out.get((e, b, d), 0) + c * k
            for e, k in self[g, b]:
                out[a, e, d] = out.get((a, e, d), 0) + c * k
            for e, k in self[g, d]:
                out[a, b, e] = out.get((a, b, e), 0) + c * k
        return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=8)
def bracket_table(p: AlgebraParams) -> BracketTable:
    """The shared BracketTable of p.  The last few parameter sets are kept,
    so a sweep over many of them holds a bounded number of tables; a new
    one starts from the lam-free entries its (s2, central, scale) shares
    with the parameter sets before it."""
    return BracketTable(p)


def diag_action(x: Element, t: SparseVector, p: AlgebraParams) -> SparseVector:
    """Leibniz action on every slot of t, an Element, Tensor2 or Tensor3:
    x . (a (x) b) = [x,a] (x) b + a (x) [x,b]."""
    table = bracket_table(p)
    out: dict = {}
    for g, cg in x.terms.items():
        for key, c in table.act(g, t.terms).items():
            out[key] = out.get(key, 0) + cg * c
    return type(t)({key: c / p.scale for key, c in out.items()})


def bracket(x: Element, y: Element, p: AlgebraParams) -> Element:
    """Bilinear extension of the generator bracket table: the diagonal
    action on the one slot of y."""
    return diag_action(x, y, p)


def degree_of(x: Element) -> Union[Fraction, str]:
    """Common degree of a homogeneous element.

    Returns the Fraction degree, the marker 'inhomogeneous' for mixed
    support, or 'any' for the zero element.
    """
    degrees = {idx.dd for idx in x.terms}
    if not degrees:
        return "any"
    if len(degrees) > 1:
        return "inhomogeneous"
    return Fraction(degrees.pop(), 2)


# ---------------------------------------------------------------------------
# Degree windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """A symmetric-ish doubled-degree interval [lo, hi] with lo <= 0 <= hi.

    Every finite computation is bounded by such a window; an index is in
    the window iff lo <= dd <= hi.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (self.lo <= 0 <= self.hi):
            raise ValueError(f"window must contain 0: [{self.lo}, {self.hi}]")

    @classmethod
    def symmetric(cls, bound: int) -> "Window":
        return cls(-bound, bound)

    def contains_dd(self, dd: int) -> bool:
        return self.lo <= dd <= self.hi

    def contains(self, key) -> bool:
        """A generator key, or every generator of a tuple key, is in the window."""
        if type(key) is BasisIndex:
            return self.lo <= key.dd <= self.hi
        for i in key:
            if not self.lo <= i.dd <= self.hi:
                return False
        return True

    def interior(self) -> "Window":
        """The inner half-window, bounds halved toward zero."""
        return Window(-((-self.lo) // 2), self.hi // 2)

    def indices_at(self, dd: int, p: AlgebraParams) -> list[BasisIndex]:
        """All basis indices of doubled degree dd inside the window,
        appended in the canonical kind order L, M, Y, c."""
        if not self.contains_dd(dd):
            return []
        out = []
        if dd % 2 == 0:
            out.append(BasisIndex("L", dd))
            out.append(BasisIndex("M", dd))
        if dd % 2 == p.s2 % 2:
            out.append(BasisIndex("Y", dd))
        if dd == 0 and p.central:
            out.append(C)
        return out

    def basis_indices(self, p: AlgebraParams) -> list[BasisIndex]:
        """All window generators, in canonical order."""
        out = []
        for dd in range(self.lo, self.hi + 1):
            out.extend(self.indices_at(dd, p))
        return sorted(out)


def generating_set(p: AlgebraParams, w: Window) -> list[BasisIndex]:
    """The window generators that write the Leibniz rows of
    cohomology.assemble and act in action_kernel, center_keys and
    tensors.check_mybe.

    On a window that holds doubled degrees -4..4 these are L[0], L[+-1],
    L[+-2] and the Y[q] with |q| <= 1, which generate every generator
    (README, "Generating-set rows"); on any other window, every window
    generator.  What kills a finite tensor is a subalgebra, since the
    action on it is never truncated, so the action kernels are exact; the
    center is spanned by the single generators these bracket to zero, as
    center_keys shows.  A map that is Leibniz against a generating set is
    a derivation (Farnsteiner, J. Algebra 118, 1988); on windows the kept
    rows have the rank of all rows, which is checked: without L[0] window
    4 loses rank, and without the window guard window 3 and the one-sided
    windows do.
    """
    gens = w.basis_indices(p)
    if not (w.lo <= -4 and w.hi >= 4):
        return gens
    return [
        g for g in gens
        if (g.kind == "L" and abs(g.dd) <= 4) or (g.kind == "Y" and abs(g.dd) <= 2)
    ]


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

@dataclass
class JacobiReport:
    params: AlgebraParams
    window: Window
    checked: int
    failures: list  # (x, y, z, residual Element)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_jacobi(p: AlgebraParams, w: Window, bracket_fn=None) -> JacobiReport:
    """Exact Jacobi check over all in-window generator triples.

    A triple is checked when all pairwise sums and the triple sum of
    doubled degrees stay in the window, so every intermediate product is
    representable.  bracket_fn may replace the bracket (the negative
    controls in the test suite corrupt it deliberately); it is read on
    generator pairs only and extended bilinearly.

    The nested brackets are summed on the scaled table, so each residual
    is p.scale**2 times the true one; only a failing triple builds its
    residual Element.

    The table is read once into a matrix over the positions of the window
    generators: rows[a][b] holds [gens[a], gens[b]] as (position, coeff)
    terms for every pair whose doubled degrees sum into the window.  A
    product of degree dd(a) + dd(b) brackets with the third generator
    inside the window sum of the triple, so its cell is there.  A product
    off that degree or outside the window (only a bracket_fn can name
    one) gets a position of its own and a full row.  The third generator
    of (x, y) has its doubled degree in the interval the three window
    conditions leave, and the generators of each kind are sorted by
    degree, so bisect finds exactly the k > j that pass, in order.
    """
    table = bracket_table(p) if bracket_fn is None else BracketTable(p, bracket_fn)
    scale2 = p.scale**2
    lo, hi = w.lo, w.hi
    gens = w.basis_indices(p)
    n = len(gens)
    dds = [g.dd for g in gens]
    pos = {g: a for a, g in enumerate(gens)}

    def cell(ga: BasisIndex, gb: BasisIndex) -> tuple:
        return tuple((pos.setdefault(e, len(pos)), k) for e, k in table[ga, gb])

    rows: list = [[None] * n for _ in range(n)]
    odd = {}
    for a in range(n):
        for b in range(n):
            if lo <= dds[a] + dds[b] <= hi:
                rows[a][b] = cell(gens[a], gens[b])
                for e, _ in rows[a][b]:
                    if e >= n or dds[e] != dds[a] + dds[b]:
                        odd[e] = None
    keys = list(pos)
    rows += [None] * (len(keys) - n)
    for e in odd:
        rows[e] = [cell(keys[e], gb) for gb in gens]
    keys = list(pos)
    starts = [a for a in range(n) if a == 0 or gens[a].kind != gens[a - 1].kind]
    blocks = [(a, dds[a:b]) for a, b in zip(starts, starts[1:] + [n])]
    checked = 0
    failures = []
    for i in range(n):
        dx, row_x = dds[i], rows[i]
        for j in range(i + 1, n):
            dy = dds[j]
            if not lo <= dx + dy <= hi:
                continue
            xy, row_y = row_x[j], rows[j]
            zlo = lo - min(dx, dy, dx + dy)
            zhi = hi - max(dx, dy, dx + dy)
            for start, block in blocks:
                k0 = start + bisect_left(block, zlo)
                if k0 <= j:
                    k0 = j + 1
                k1 = start + bisect_right(block, zhi)
                if k0 >= k1:
                    continue
                checked += k1 - k0
                for k in range(k0, k1):
                    res: dict[int, int] = {}
                    for e, c in xy:
                        for f, c2 in rows[e][k]:
                            res[f] = res.get(f, 0) + c * c2
                    for e, c in row_y[k]:
                        for f, c2 in rows[e][i]:
                            res[f] = res.get(f, 0) + c * c2
                    for e, c in rows[k][i]:
                        for f, c2 in rows[e][j]:
                            res[f] = res.get(f, 0) + c * c2
                    if res and any(res.values()):
                        residual = Element({keys[f]: Fraction(v, scale2) for f, v in res.items()})
                        failures.append((gens[i], gens[j], gens[k], residual))
    return JacobiReport(p, w, checked, failures)


def action_kernel(p: AlgebraParams, w: Window) -> list[dict]:
    """Kernel of the diagonal adjoint action on window-supported pair
    tensors of total doubled degree 0, as one {(a, b): coefficient} dict
    per free column.

    The generating set acts, and products are compared to zero wherever
    they land, so what it kills is killed by the brackets it generates:
    every window generator.

    Only the degree-0 slice is built, which is exact: L[0] is in every
    window and acts on a key of total degree d as multiplication by d, so
    on a slice with d != 0 the invariant kernel is zero.  A generator of
    degree e maps slice d into slice d + e, so rows never mix slices and
    the slice-0 echelon form and kernel vectors equal those of the system
    over every window tensor.
    """
    table = bracket_table(p)
    gens = w.basis_indices(p)
    keys = [(a, b) for a in gens for b in w.indices_at(-a.dd, p)]
    rows: dict[tuple, dict[int, int]] = {}
    for g in generating_set(p, w):
        if g == L(0):
            continue  # L[0] multiplies the degree-0 slice by 0: empty rows
        for col, key in enumerate(keys):
            # BracketTable.act written out: a call per key made the
            # kernels benchmark about 30% slower
            for slot, x in enumerate(key):
                for e, k in table[g, x]:
                    res = key[:slot] + (e,) + key[slot + 1:]
                    cell = rows.setdefault((g, res), {})
                    cell[col] = cell.get(col, 0) + k
    ech = RowEchelon()
    # rows times p.scale, in build order: the echelon stores the same rows
    for row in rows.values():
        ech.insert(row)
    return [{keys[i]: c for i, c in vec.items()} for vec in ech.kernel_basis(len(keys))]


def center_keys(p: AlgebraParams, w: Window) -> list[BasisIndex]:
    """The window center: the degree-0 window generators, in canonical
    order, that every generating-set generator brackets to zero.

    This is exact.  L[0] acts on degree d as multiplication by d, so the
    center lies in degree 0, and each actor sends L[0], M[0], Y[0] and c
    to distinct keys (L_n: L_n, M_n, Y_n; Y_q: Y_q, M_q; M_m: M_m), so the
    action on degree 0 has one column per row and its kernel is spanned
    by generators.  What the generating set kills, every generator kills.
    """
    table = bracket_table(p)
    gens = generating_set(p, w)
    return [z for z in w.indices_at(0, p) if not any(table[g, z] for g in gens)]


def center_in_window(p: AlgebraParams, w: Window) -> list[Element]:
    """Basis of the window-supported vectors killed by every in-window
    generator: the unit vectors at center_keys."""
    return [Element.basis(z) for z in center_keys(p, w)]
