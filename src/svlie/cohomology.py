"""Windowed exact computation of derivation spaces and first cohomology.

The derivation identity is encoded as an integer linear system over
unknowns (generator, target basis key).  Equations are emitted only when
every coefficient they touch is representable inside the window, so the
truncation of any genuine derivation of the infinite algebra satisfies
the system; window artifacts are then suppressed by restricting solution
tables to the interior half-window before dimensions are read off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .algebra import (
    AlgebraParams,
    BasisIndex,
    Element,
    L,
    Window,
    action_kernel,
    bracket_table,
    center_keys,
    generating_set,
    rat,
)
from .derivations import (
    ALGEBRA,
    TENSOR,
    DerivationTable,
    catalog_basis,
)
from .linalg import RowEchelon, int_row
from .tensors import Tensor2, twist

__all__ = [
    "CENTER_TENSOR",
    "CohomologyReport",
    "LinearSystem",
    "assemble",
    "solve_h1",
    "inner_vectors",
    "paper_table_regression",
    "verify_center_tensor_identity",
    "verify_invariants_are_central",
    "verify_skew_image_lemma",
]

CENTER_TENSOR = "center-tensor"

TargetKey = Union[BasisIndex, tuple[BasisIndex, BasisIndex]]

# (actor kind, result kind) pairs for which [actor, x] can have the
# result kind.  A tensor row is exactly representable when both legs lie
# in the window and, for each leg res whose other leg is central (every
# leg on the raw tensor square), every feeding actor has
# lo <= res.dd - actor.dd <= hi: the feeder x then lies in the window.
_FEEDERS = frozenset({
    ("L", "L"), ("L", "M"), ("L", "Y"), ("L", "c"), ("M", "M"), ("Y", "Y"),
    ("Y", "M"),
})


def _gen_order(g: BasisIndex):
    # boundary generators first so that elimination expresses them in
    # terms of generators nearer the core
    return (-abs(g.dd), g.dd, g.kind)


@dataclass
class LinearSystem:
    """The assembled derivation-identity constraints for one case.

    labels are (generator, target key) pairs in the deterministic pivot
    order; rows are integer coefficient dicts over label ids, each an
    equation times p.scale as the bracket table sums it, with a provenance
    tag naming the generator pair and result key it encodes.
    """

    params: AlgebraParams
    target: str
    alpha: Fraction
    window: Window
    labels: list[tuple[BasisIndex, TargetKey]]
    index: dict[tuple[BasisIndex, TargetKey], int]
    rows: list[dict[int, int]]
    provenance: list[tuple[BasisIndex, BasisIndex, TargetKey]]
    generators: list[BasisIndex]
    center_set: Optional[frozenset]

    @property
    def n_unknowns(self) -> int:
        return len(self.labels)

    def interior_ids(self) -> list[int]:
        inner = self.window.interior()
        return [
            i for i, (g, t) in enumerate(self.labels)
            if inner.contains(g) and inner.contains(t)
        ]


def _slice_keys(
    p: AlgebraParams,
    target: str,
    w: Window,
    dd: int,
    center_set: Optional[frozenset] = None,
) -> list[TargetKey]:
    """Window-supported target basis keys of doubled degree dd."""
    if target == ALGEBRA:
        return w.indices_at(dd, p)
    if center_set is not None:
        keys = set()
        for z in center_set:
            for x in w.indices_at(dd - z.dd, p):
                keys.add((z, x))
                keys.add((x, z))
        return sorted(keys)
    keys = []
    for dd1 in range(w.lo, w.hi + 1):
        dd2 = dd - dd1
        if not w.contains_dd(dd2):
            continue
        for i in w.indices_at(dd1, p):
            for j in w.indices_at(dd2, p):
                keys.append((i, j))
    keys.sort()
    return keys


def assemble(
    p: AlgebraParams,
    target: str,
    alpha: Union[Fraction, int, str],
    w: Window,
    *,
    _actors: Optional[Sequence[BasisIndex]] = None,
) -> LinearSystem:
    """Build the exact linear system for degree-alpha derivation tables.

    Unknowns are the coefficients of D(g) over the window-supported
    target basis in degree deg(g) + alpha, for every window generator g.
    One equation block is emitted per generator pair, filtered down to the
    rows whose coefficients all live inside the window.  Except on the raw
    tensor-square target, only the pairs with a side in
    algebra.generating_set are kept: the same row space, with fewer rows
    (README, "Generating-set rows").

    Only work that can reach a row is done.  At degree 0, [L0, x] =
    deg(x) x and L0 multiplies every key of D(x) by deg(x), so in the pair
    of L0 and x the terms D([L0, x]) and L0 . D(x) cancel and only x
    acting on D(L0) is summed.  A pair whose generators and bracket terms
    all have empty slices builds no block and is skipped.

    On the center-tensor target only the rows at keys with a central first
    leg are emitted: the others are their twists (README, "The twist
    halving").  labels and index stay complete.

    _actors, for solve_h1 only, replaces the generating set off the raw
    tensor square: solve_h1 passes [L[0]] for the L[0] rows of a nonzero
    degree.
    """
    if target not in (ALGEBRA, TENSOR, CENTER_TENSOR):
        raise ValueError(f"unknown target {target!r}")
    alpha = rat(alpha)
    shift2 = alpha * 2
    if shift2.denominator != 1:
        raise ValueError(f"degree must be an integer or half-integer: {alpha}")
    shift = int(shift2)
    center_set = frozenset(center_keys(p, w)) if target == CENTER_TENSOR else None
    base = TENSOR if target == CENTER_TENSOR else target

    gens = sorted(w.basis_indices(p), key=_gen_order)
    labels: list[tuple[BasisIndex, TargetKey]] = []
    # (label id, key) per generator: its labels are contiguous, and the
    # rows share these int objects
    slots: dict[BasisIndex, list[tuple[int, TargetKey]]] = {}
    # center tensor: slots keeps the keys (z, x) and mirrored the (x, z),
    # z central and x not
    mirrored: dict[BasisIndex, list[tuple[int, TargetKey]]] = {}
    for g in gens:
        keys = _slice_keys(p, base, w, g.dd + shift, center_set)
        slots[g] = list(enumerate(keys, len(labels)))
        labels.extend((g, t) for t in keys)
        if center_set is not None:
            mirrored[g] = [s for s in slots[g] if s[1][0] not in center_set]
            slots[g] = [s for s in slots[g] if s[1][0] in center_set]
    index = {lab: i for i, lab in enumerate(labels)}

    lo, hi = w.lo, w.hi
    whole = ((lo, hi), (lo, hi))
    on_algebra = base == ALGEBRA
    # per generator and leg kind, the degree interval a tensor leg must lie
    # in when the feeder rule applies to it with that generator acting
    reach = {} if on_algebra else {
        g: {
            kind: (max(lo, lo + g.dd), min(hi, hi + g.dd))
            if (g.kind, kind) in _FEEDERS else (lo, hi)
            for kind in "LMYc"
        }
        for g in gens
    }

    table = bracket_table(p)
    rows: list[dict[int, int]] = []
    provenance: list[tuple[BasisIndex, BasisIndex, TargetKey]] = []

    if target == TENSOR:
        oriented = [(g, h) for i, g in enumerate(gens) for h in gens[i + 1 :]]
    else:
        # each generating-set generator against every other generator,
        # each pair once and in gens order
        rank = {g: i for i, g in enumerate(gens)}
        oriented = {
            (g, h) if rank[g] < rank[h] else (h, g)
            for g in (generating_set(p, w) if _actors is None else _actors)
            for h in gens
            if h != g
        }
    pairs = sorted(
        (max(abs(g.dd), abs(h.dd)), abs(g.dd) + abs(h.dd), g, h) for g, h in oriented
    )

    l0 = L(0)
    for _, _, g, h in pairs:
        br = table[g, h]
        # every term of [g, h] has doubled degree g.dd + h.dd
        dd = g.dd + h.dd
        if br and not lo <= dd <= hi:
            continue
        if on_algebra and not (
            lo <= g.dd + shift <= hi
            and lo <= h.dd + shift <= hi
            and (not br or lo <= dd + shift <= hi)
        ):
            continue
        if not (slots[g] or slots[h] or any(slots[e] for e, _ in br)):
            continue
        if shift == 0 and (g == l0 or h == l0):
            # D([L0, x]) and L0 . D(x) cancel: only x acting on D(L0) is left
            br = ()
            actors = ((h, g, 1),) if g == l0 else ((g, h, -1),)
        else:
            actors = ((g, h, -1), (h, g, 1))
        block: dict[TargetKey, dict[int, int]] = {}
        for e, k in br:
            # the first entries of the block: each (t, lab) is new
            for lab, t in slots[e]:
                block.setdefault(t, {})[lab] = k
        for actor, source, sign in actors:
            # BracketTable.act written out: a call per key made the
            # h1-cases benchmark about 23% slower
            for lab, t in slots[source]:
                if on_algebra:
                    for e, k in table[actor, t]:
                        cell = block.setdefault(e, {})
                        cell[lab] = cell.get(lab, 0) + sign * k
                    continue
                a, b = t
                if center_set is None:  # window generators kill the center
                    for e, k in table[actor, a]:
                        cell = block.setdefault((e, b), {})
                        cell[lab] = cell.get(lab, 0) + sign * k
                for e, k in table[actor, b]:
                    cell = block.setdefault((a, e), {})
                    cell[lab] = cell.get(lab, 0) + sign * k
            # a key (x, z) reaches a row (z', z) only if deg [actor, x] = 0
            if mirrored and actor.dd + source.dd + shift == 0:
                for lab, (x, z) in mirrored[source]:
                    for e, k in table[actor, x]:
                        if e in center_set:
                            cell = block.setdefault((e, z), {})
                            cell[lab] = cell.get(lab, 0) + sign * k
        if not on_algebra:
            rg, rh = reach[g], reach[h]
        for t, expr in sorted(block.items()):
            if not on_algebra:
                # a leg beside a central one lies in both generators'
                # intervals of its kind, any other leg in the window; the
                # center tensor's row keys all have a central first leg
                t1, t2 = t
                (a1, b1), (c1, d1) = (
                    (rg[t1.kind], rh[t1.kind])
                    if center_set is None or t2 in center_set else whole
                )
                (a2, b2), (c2, d2) = rg[t2.kind], rh[t2.kind]
                x1, x2 = t1.dd, t2.dd
                if not (
                    a1 <= x1 <= b1 and c1 <= x1 <= d1
                    and a2 <= x2 <= b2 and c2 <= x2 <= d2
                ):
                    continue
            if 0 in expr.values():
                expr = {lab: c for lab, c in expr.items() if c}
                if not expr:
                    continue
            rows.append(expr)
            provenance.append((g, h, t))

    return LinearSystem(
        p, target, alpha, w, labels, index, rows, provenance, gens, center_set
    )


def inner_vectors(system: LinearSystem) -> list[dict[int, int]]:
    """Truncated coordinate vectors of g -> g . v for every window-supported
    homogeneous v in the target degree of the system, as integer rows
    times p.scale."""
    p = system.params
    shift = int(system.alpha * 2)
    base = TENSOR if system.target == CENTER_TENSOR else system.target
    vs = _slice_keys(p, base, system.window, shift, system.center_set)
    table = bracket_table(p)
    out = []
    for v in vs:
        vec: dict[int, int] = {}
        for g in system.generators:
            for key, k in table.act(g, {v: 1}).items():
                lab = system.index.get((g, key))
                if lab is not None:
                    vec[lab] = vec.get(lab, 0) + k
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            out.append(vec)
    return out


def table_to_vector(system: LinearSystem, table: DerivationTable) -> dict[int, Fraction]:
    """Coordinates of a table in the unknown space, truncated to the window."""
    vec: dict[int, Fraction] = {}
    for g, val in table.values.items():
        for key, coeff in val.terms.items():
            lab = system.index.get((g, key))
            if lab is not None:
                vec[lab] = vec.get(lab, Fraction(0)) + coeff
    return {k: c for k, c in vec.items() if c}


class _CountedOnRead:
    """A dataclass field that may be given a function of no arguments in
    place of its value: the first read calls it and keeps the result."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot)  # the field has no default
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass
class CohomologyReport:
    """Exact dimensions after interior restriction, with certificates.

    n_rows counts the rows of the full system, twin rows included.  When
    solve_h1 decided a nonzero degree without assembling that system, it
    passes a function that assembles and counts it, called when n_rows is
    first read (so also by as_dict, ==, repr and dataclasses.replace); the
    value is the same either way.
    """

    params: AlgebraParams
    target: str
    alpha: Fraction
    window: Window
    dim_der: int
    dim_inn: int
    n_unknowns: int
    n_rows: int = _CountedOnRead()
    quotient_names: list[str] = field(default_factory=list)
    certified: bool = False
    method: str = "full-window"
    quotient_tables: list[DerivationTable] = field(default_factory=list)
    note: str = ""

    @property
    def interior(self) -> Window:
        return self.window.interior()

    @property
    def dim_h1(self) -> int:
        return self.dim_der - self.dim_inn

    def as_dict(self) -> dict:
        return {
            "s": str(self.params.s),
            "lambda": str(self.params.lam),
            "central": self.params.central,
            "target": self.target,
            "degree": str(self.alpha),
            "window": [self.window.lo, self.window.hi],
            "interior": [self.interior.lo, self.interior.hi],
            "dim_der": self.dim_der,
            "dim_inn": self.dim_inn,
            "dim_h1": self.dim_h1,
            "unknowns": self.n_unknowns,
            "rows": self.n_rows,
            "quotient_basis": self.quotient_names,
            "certificates": [
                {
                    "name": t.name,
                    "values": [
                        {"gen": g.label(), "value": str(t.value(g))}
                        for g in sorted(t.values)
                    ],
                }
                for t in self.quotient_tables
            ],
            "certified": self.certified,
            "method": self.method,
            "note": self.note,
        }


def _twist_parts(system: LinearSystem, interior: frozenset) -> tuple[list, list]:
    """The rows at keys (z, x), x outside the center, in assembly order;
    and for the twist-symmetric and antisymmetric parts the rows at
    keys (z, z') folded into the part, with the part's interior labels.

    A label (x, z) folds onto its twin (z, x) and a pair (z, z'), (z', z)
    onto its lower id, times +1 or -1; (z, z) is 0 in the antisymmetric
    part.  The kernel is the direct sum of the parts' kernels.
    """
    center = system.center_set
    labels, index = system.labels, system.index

    def fold(lab):
        # (representative, its factor in the antisymmetric part)
        g, (a, b) = labels[lab]
        if b not in center:
            return lab, 1
        t = index[(g, (b, a))]
        if a not in center or t < lab:
            return t, -1
        return lab, int(lab != t)

    a_rows, f_rows = [], []
    for row, (_, _, t) in zip(system.rows, system.provenance):
        (f_rows if t[1] in center else a_rows).append(row)
    folds = {}
    for row in f_rows:
        for lab in row:
            if lab not in folds:
                folds[lab] = fold(lab)
    own = []
    for lab in sorted(interior):
        if labels[lab][1][0] in center:
            rep, sign = fold(lab)
            if rep == lab:
                own.append((lab, sign))
    parts = []
    for anti in (False, True):
        rows = []
        for row in f_rows:
            out: dict[int, int] = {}
            for lab, c in row.items():
                rep, sign = folds[lab]
                out[rep] = out.get(rep, 0) + (sign * c if anti else c)
            rows.append({lab: c for lab, c in out.items() if c})
        parts.append((rows, [lab for lab, sign in own if sign or not anti]))
    return a_rows, parts


def _row_count(system: LinearSystem) -> int:
    """The rows of the full system: on the center tensor the rows at keys
    (z, x), x outside the center, stand for their twins too."""
    if system.center_set is None:
        return len(system.rows)
    center = system.center_set
    return len(system.rows) + sum(t[1] not in center for _, _, t in system.provenance)


def _interior_nullity(system: LinearSystem, interior: frozenset) -> int:
    """The dimension of the system's kernel restricted to the interior
    labels: the interior unit rows independent of the rows.  The center
    tensor is ranked as its twist-symmetric plus antisymmetric part
    (_twist_parts), which covers the twin rows."""
    if system.center_set is None:
        head, parts = [], [(system.rows, sorted(interior))]
    else:
        head, parts = _twist_parts(system, interior)
    ech = RowEchelon()
    for row in head:
        ech.insert(row)
    dim = 0
    for rows, units in parts:
        ech_part = ech.copy()
        for row in rows:
            ech_part.insert(row)
        for lab in units:
            if ech_part.insert({lab: 1}) is not None:
                dim += 1
    return dim


def solve_h1(
    p: AlgebraParams,
    target: str,
    alpha: Union[Fraction, int, str],
    w: Window,
    candidates: Optional[Sequence[DerivationTable]] = None,
    system: Optional[LinearSystem] = None,
) -> CohomologyReport:
    """Derivation space, inner subspace and their quotient on a window.

    Dimensions are reported after restricting solutions (and inner tables)
    to the interior half-window.  candidates are a basis of the expected
    quotient: by default the case row's named constructors at degree 0
    and the empty family at any other degree.  The report is marked
    certified when the independent candidates span the quotient exactly;
    otherwise note says how far they fall short.  A system passed in must
    have been assembled for these params, degree, window and target.

    Tensor-square degree slices are infinite in each degree, so a raw
    window kernel also contains shadows of derivations into the completed
    tensor product (window-filling patterns that never have finite
    support; see the README).  The tensor-square target is therefore
    solved on the center-legged submodule, whose slices are finite and
    faithful; the unreduced system remains available through assemble().
    It is ranked as its twist-symmetric plus antisymmetric part
    (_twist_parts); rows counts the full system, twin rows included.
    Every row is inserted as assembled, in assembly order: the echelon's
    stored rows do not depend on either.

    A nonzero degree alpha, with no system passed, is first decided from
    the rows of the pairs (L[0], h) alone (README, "Nonzero degrees").
    Such a row says alpha D(h) = h . D(L[0]) wherever it is emitted, so D
    is the inner derivation g -> g . D(L[0])/alpha on every label an L[0]
    row reaches, and the short path nearly always decides.  It is exact:
    truncated inner vectors satisfy every emitted row, so Inn <= K, the
    kernel of all rows; the L[0] rows are some of the rows, so K <= K0,
    their kernel.  On the interior dim_inn <= dim_der <= dim0, dim0 being
    K0's dimension there, so dim0 == dim_inn gives dim_der = dim_inn.
    Otherwise the full system is assembled and solved.  When the short
    path decides, n_rows assembles the full system to count its rows only
    when first read.
    """
    solve_target = CENTER_TENSOR if target == TENSOR else target
    method = "center-reduced" if target == TENSOR else "full-window"
    alpha = rat(alpha)
    if system is not None:
        for name, got, want in (
            ("target", system.target, solve_target),
            ("params", system.params, p),
            ("alpha", system.alpha, alpha),
            ("window", system.window, w),
        ):
            if got != want:
                raise ValueError(f"system {name} {got!r} does not match {want!r}")
    short = system is None and alpha != 0
    sys_ = system if system is not None else assemble(
        p, solve_target, alpha, w, _actors=[L(0)] if short else None
    )
    interior = frozenset(sys_.interior_ids())
    dim_der = _interior_nullity(sys_, interior)

    ech_inn = RowEchelon()
    for vec in inner_vectors(sys_):
        ech_inn.insert({k: c for k, c in vec.items() if k in interior})
    dim_inn = ech_inn.rank
    if short and dim_der != dim_inn:
        # the L[0] rows leave more than the inner space: solve in full
        sys_ = assemble(p, solve_target, alpha, w)
        dim_der = _interior_nullity(sys_, interior)
        short = False
    dim_h1 = dim_der - dim_inn

    if candidates is None:
        # nonzero degrees carry no outer classes; certify against the
        # empty family
        base = ALGEBRA if target == ALGEBRA else TENSOR
        candidates = catalog_basis(p, base, w) if sys_.alpha == 0 else []

    names: list[str] = []
    tables: list[DerivationTable] = []
    ech_q = ech_inn.copy()
    for table in candidates:
        vec = table_to_vector(sys_, table)
        row = int_row({k: c for k, c in vec.items() if k in interior})
        if ech_q.insert(row) is not None:
            names.append(table.name or f"candidate-{len(names) + 1}")
            tables.append(table)
    certified = dim_h1 == len(names)
    note = "" if certified else (
        f"the named constructors span {len(names)} of {dim_h1} classes"
    )

    return CohomologyReport(
        params=p,
        target=target,
        alpha=sys_.alpha,
        window=w,
        dim_der=dim_der,
        dim_inn=dim_inn,
        n_unknowns=sys_.n_unknowns,
        n_rows=(
            (lambda: _row_count(assemble(p, solve_target, alpha, w)))
            if short else _row_count(sys_)
        ),
        quotient_names=names,
        certified=certified,
        method=method,
        quotient_tables=tables,
        note=note,
    )


# ---------------------------------------------------------------------------
# Verification jobs
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    name: str
    params: AlgebraParams
    window: Window
    ok: bool
    details: dict

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "s": str(self.params.s),
            "lambda": str(self.params.lam),
            "central": self.params.central,
            "window": [self.window.lo, self.window.hi],
            "ok": self.ok,
            "details": self.details,
        }


def _interior_vec(value, inner: Window) -> dict:
    return {key: c for key, c in value.terms.items() if inner.contains(key)}


def verify_invariants_are_central(
    p: AlgebraParams, n: int, w: Window
) -> CheckReport:
    """Invariant window tensors coincide with products of central elements
    on the interior: the unit vectors at the keys Z or Z x Z, Z the
    generators center_keys shows span the center, all in degree 0.  Order 1
    ranks the unit vectors at Z against Z, so it passes by construction:
    center_keys' proof and test_center_keys_equal_full_center back it."""
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    center = center_keys(p, w)
    if n == 1:
        kernel = [Element.basis(z) for z in center]
        keys = set(center)
    else:
        kernel = [Tensor2(vec) for vec in action_kernel(p, w)]
        keys = {(z1, z2) for z1 in center for z2 in center}
    inner = w.interior()
    # the interior keys the kernel rows touch, numbered as echelon columns
    columns: dict = {}
    ech = RowEchelon()
    for v in kernel:
        row = _interior_vec(v, inner)
        ech.insert(int_row({columns.setdefault(k, len(columns)): c for k, c in row.items()}))
    ok = columns.keys() <= keys and ech.rank == len(keys)
    return CheckReport(
        "invariants-are-central",
        p,
        w,
        ok,
        {
            "order": n,
            "kernel_dim": ech.rank,
            "center_product_dim": len(keys),
            "kernel_basis": [str(v) for v in kernel],
        },
    )


def verify_skew_image_lemma(p: AlgebraParams, w: Window) -> CheckReport:
    """Window tensors whose orbit is skew decompose, on the interior, as a
    skew tensor plus a product of central elements: v + twist(v) has no
    key outside Z x Z, Z the generators center_keys shows span the center.

    The twist commutes with the action, so v has a skew orbit exactly when
    v + twist(v) is in the invariant kernel K, i.e. v is a skew tensor plus
    a symmetric one in K.  The key condition is linear: u + twist(u) over a
    basis u of K decides it, a failing u being a counterexample.  space_dim
    is N(N-1)/2 (N window generators) plus the rank of the u + twist(u)."""
    center = center_keys(p, w)
    columns: dict = {}
    ech = RowEchelon()
    failures = []
    for u in map(Tensor2, action_kernel(p, w)):
        sym = u + twist(u)
        ech.insert(int_row({columns.setdefault(k, len(columns)): c for k, c in sym.terms.items()}))
        if any(not (k[0] in center and k[1] in center) for k in _interior_vec(sym, w.interior())):
            failures.append(str(u))
    n = len(w.basis_indices(p))
    details = {"space_dim": n * (n - 1) // 2 + ech.rank, "failures": failures}
    return CheckReport("skew-image", p, w, not failures, details)


def verify_center_tensor_identity(p: AlgebraParams, w: Window) -> CheckReport:
    """Degree-zero cohomology valued in center-legged tensors equals the
    center-tensored degree-zero cohomology of the algebra itself.

    The right side is the rank of the tensor catalog modulo the inner
    space on the interior: the certificate count of the left report.
    """
    report = solve_h1(p, CENTER_TENSOR, 0, w)
    left, right = report.dim_h1, len(report.quotient_names)

    h1_report = solve_h1(p, ALGEBRA, 0, w)
    center_dim = len(center_keys(p, w))
    naive = 2 * center_dim * h1_report.dim_h1

    ok = left == right
    return CheckReport(
        "center-tensor-identity",
        p,
        w,
        ok,
        {
            "left_dim": left,
            "right_dim": right,
            "naive_product_dim": naive,
            "overlap": naive - right,
            "h1_algebra_dim": h1_report.dim_h1,
            "center_dim": center_dim,
        },
    )


# ---------------------------------------------------------------------------
# The case-table regression
# ---------------------------------------------------------------------------

CASE_ROWS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(1, 2), Fraction(-1)),
    (Fraction(1, 2), Fraction(-2)),
    (Fraction(1, 2), Fraction(3)),
    (Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(-1)),
    (Fraction(0), Fraction(-2)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(5)),
)


@dataclass
class RegressionRow:
    """One case row: raw constructor count against the solved dimension.

    expected is the raw length of the tensor catalog and ok compares the
    solved dimensions with it.  independent counts the catalog tables that
    stay independent modulo the inner space (equal at every window), and
    dependent names the ones that do not; certified holds when that
    independent family spans the quotient at every window.
    """

    params: AlgebraParams
    expected: int
    dims: dict[int, int]
    verdict: str
    ok: bool
    independent: int
    certified: bool
    dependent: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "s": str(self.params.s),
            "lambda": str(self.params.lam),
            "central": self.params.central,
            "expected_dim": self.expected,
            "independent_dim": self.independent,
            "dependent": list(self.dependent),
            "dims_by_window": {str(k): v for k, v in sorted(self.dims.items())},
            "verdict": self.verdict,
            "certified": self.certified,
            "ok": self.ok,
        }


@dataclass
class RegressionReport:
    rows: list[RegressionRow]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def as_dict(self) -> dict:
        return {"rows": [r.as_dict() for r in self.rows], "ok": self.ok}


def paper_table_regression(
    windows: Sequence[int] = (12, 16, 20),
    central_settings: Sequence[bool] = (True, False),
    cases: Sequence[tuple[Fraction, Fraction]] = CASE_ROWS,
) -> RegressionReport:
    """Degree-zero tensor cohomology across every case row.

    The raw expected count is the length of the unit constructor family
    (free scalars times the window center dimension).  It equals the
    dimension only when the constructors are independent modulo inner
    derivations, so each row also carries the independent count that
    solve_h1 certifies.  The verdict states whether a triangular
    coboundary structure is possible, which happens exactly when that
    independent count vanishes.
    """
    rows = []
    for s, lam in cases:
        for central in central_settings:
            p = AlgebraParams(s, lam, central)
            w0 = Window.symmetric(windows[0])
            names = [t.name for t in catalog_basis(p, TENSOR, w0)]
            expected = len(names)
            dims: dict[int, int] = {}
            quotients: list[list[str]] = []
            all_certified = True
            for n in windows:
                report = solve_h1(p, TENSOR, 0, Window.symmetric(n))
                dims[n] = report.dim_h1
                quotients.append(report.quotient_names)
                all_certified = all_certified and report.certified
            ok = set(dims.values()) == {expected} and all_certified
            quotient = quotients[0]
            certified = all_certified and all(q == quotient for q in quotients)
            independent = len(quotient)
            dependent = tuple(name for name in names if name not in quotient)
            verdict = (
                "triangular coboundary"
                if independent == 0
                else "not triangular coboundary"
            )
            rows.append(
                RegressionRow(
                    p, expected, dims, verdict, ok, independent, certified, dependent
                )
            )
    return RegressionReport(rows)
