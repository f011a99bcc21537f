"""Integer structure-constant assembly against the Fraction construction.

The reference keeps the assembly the integer table replaces: every
coefficient read from `bracket_int` as a `Fraction` over `p.scale`, equation rows
summed in `Fraction`s and cleared by `int_row`, target keys enumerated by
a scan over degree pairs, tensor rows filtered by the feeder-kind and
parity rule rather than by a degree interval, and the window center
computed again for the inner vectors.  The systems built on either path
must agree exactly: labels, rows, provenance, index, slice keys and the
inner vectors, once the integer rows and inner vectors, which `assemble`
and `inner_vectors` give times `p.scale`, are divided by it.

On the center-tensor target `assemble` emits the rows at the keys with a
central first leg; they are compared with the reference rows at those
keys, in order.  The twist tests check on the reference's full system
that the rows at the other keys are the twists of rows `assemble` emits,
and a full-system `solve_h1` over the reference rows pins the twist-split
solver's reports.

The generating-set tests compare the rows `assemble` keeps with every
pair's rows, obtained by patching `generating_set` to return every window
generator.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from svlie.algebra import (
    C,
    AlgebraParams,
    BasisIndex,
    Element,
    L,
    M,
    Window,
    Y,
    bracket,
    bracket_int,
    center_keys,
    generating_set,
)
from svlie import cohomology
from svlie.cohomology import (
    CASE_ROWS,
    CENTER_TENSOR,
    CohomologyReport,
    _gen_order,
    _twist_parts,
    assemble,
    inner_vectors,
    solve_h1,
)
from svlie.derivations import ALGEBRA, TENSOR, catalog_basis
from svlie.linalg import RowEchelon, int_row

HALF = Fraction(1, 2)

ROWS = [
    (HALF, Fraction(0)),
    (HALF, Fraction(-1)),
    (HALF, Fraction(-2)),
    (HALF, Fraction(3)),
    (Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(-1)),
    (Fraction(0), Fraction(-2)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(5)),
    (Fraction(0), Fraction(-3)),
    (Fraction(0), Fraction(-5, 3)),
    # large and non-dyadic denominators of lambda
    (Fraction(0), Fraction(7, 1000000007)),
    (HALF, Fraction(-5, 3)),
]

WINDOWS = [Window.symmetric(b) for b in (2, 4, 6)] + [Window(-2, 5)]
DEGREES = [Fraction(0), HALF, -HALF, Fraction(2), Fraction(-2)]
TARGETS = [ALGEBRA, CENTER_TENSOR, TENSOR]


@lru_cache(maxsize=None)
def frac_bracket(a, b, p):
    """The generator bracket as (index, Fraction) pairs, read off
    bracket_int directly rather than through a table, memoized per
    (a, b, p)."""
    return tuple((e, Fraction(k, p.scale)) for e, k in bracket_int(a, b, p))


# The row filter as first written: the source kinds that can feed a result
# kind under the bracket with an actor kind, and the parity a source of
# each kind must have.  assemble tests the same rule as a degree interval.
FEEDERS = {
    ("L", "L"): ("L",),
    ("L", "M"): ("M",),
    ("L", "Y"): ("Y",),
    ("L", "c"): ("L",),
    ("M", "M"): ("L",),
    ("Y", "Y"): ("L",),
    ("Y", "M"): ("Y",),
}


def parity_ok(kind, dd, s2):
    if kind in ("L", "M"):
        return dd % 2 == 0
    if kind == "Y":
        return dd % 2 == s2 % 2
    return dd == 0


def reference_slice_keys(p, base, w, dd, center_set):
    """Window target keys of doubled degree dd: every pair of degrees
    scanned, center-legged keys kept when center_set is given."""
    if base == ALGEBRA:
        return w.indices_at(dd, p)
    keys = []
    for dd1 in range(w.lo, w.hi + 1):
        for i in w.indices_at(dd1, p):
            for j in w.indices_at(dd - dd1, p):
                if center_set is None or i in center_set or j in center_set:
                    keys.append((i, j))
    return sorted(keys)


# the generating set on a window that holds doubled degrees -4..4
GENERATORS = {L(0), L(1), L(-1), L(2), L(-2), Y(0), Y(1), Y(-1), Y(HALF), Y(-HALF)}


def keeps_pair(target, w, g, h):
    """The raw tensor-square target and windows without doubled degrees
    -4..4 keep every pair; the others the pairs with a side in GENERATORS."""
    return (
        target == TENSOR
        or not (w.lo <= -4 and 4 <= w.hi)
        or g in GENERATORS
        or h in GENERATORS
    )


def reference_assemble(p, target, alpha, w):
    """The Fraction assembly: (labels, index, rows, provenance, gens,
    slice_keys, center_set), keeping the pairs that keeps_pair names."""
    shift = int(alpha * 2)
    center_set = frozenset(center_keys(p, w)) if target == CENTER_TENSOR else None
    base = TENSOR if target == CENTER_TENSOR else target
    gens = sorted(w.basis_indices(p), key=_gen_order)
    slice_keys = {
        g: reference_slice_keys(p, base, w, g.dd + shift, center_set) for g in gens
    }
    labels = [(g, t) for g in gens for t in slice_keys[g]]
    index = {lab: i for i, lab in enumerate(labels)}

    def tensor_row_ok(g, h, t):
        t1, t2 = t
        if not (w.contains(t1) and w.contains(t2)):
            return False
        for actor in (g, h):
            for res, other in ((t1, t2), (t2, t1)):
                for sk in FEEDERS.get((actor.kind, res.kind), ()):
                    dd_a = res.dd - actor.dd
                    if not parity_ok(sk, dd_a, p.s2):
                        continue
                    if center_set is not None:
                        a = BasisIndex(sk, dd_a)
                        if a not in center_set and other not in center_set:
                            continue
                    if not w.contains_dd(dd_a):
                        return False
        return True

    pairs = [
        (g, h) for i, g in enumerate(gens) for h in gens[i + 1:]
        if keeps_pair(target, w, g, h)
    ]
    pairs.sort(key=lambda gh: (
        max(abs(gh[0].dd), abs(gh[1].dd)), abs(gh[0].dd) + abs(gh[1].dd), gh[0], gh[1]
    ))
    rows, provenance = [], []
    for g, h in pairs:
        br = frac_bracket(g, h, p)
        if any(not w.contains(e) for e, _ in br):
            continue
        if base == ALGEBRA and not all(
            w.contains_dd(x.dd + shift) for x in [g, h] + [e for e, _ in br]
        ):
            continue
        block = {}

        def add(t, lab, coeff):
            cell = block.setdefault(t, {})
            cell[lab] = cell.get(lab, Fraction(0)) + coeff

        for e, k in br:
            for t in slice_keys.get(e, ()):
                add(t, index[(e, t)], k)
        for actor, source, sign in ((g, h, -1), (h, g, 1)):
            for t in slice_keys[source]:
                lab = index[(source, t)]
                if base == ALGEBRA:
                    for e, k in frac_bracket(actor, t, p):
                        add(e, lab, sign * k)
                else:
                    a, b = t
                    for e, k in frac_bracket(actor, a, p):
                        add((e, b), lab, sign * k)
                    for e, k in frac_bracket(actor, b, p):
                        add((a, e), lab, sign * k)
        for t in sorted(block):
            expr = {lab: c for lab, c in block[t].items() if c}
            if not expr or (base != ALGEBRA and not tensor_row_ok(g, h, t)):
                continue
            rows.append(int_row(expr))
            provenance.append((g, h, t))
    return labels, index, rows, provenance, gens, slice_keys, center_set


@lru_cache(maxsize=None)
def reference_center_tensor(p, alpha, w):
    """reference_assemble on the center-tensor target, memoized: the
    assembly, twist and solver tests share it."""
    return reference_assemble(p, CENTER_TENSOR, alpha, w)


def reference_inner_vectors(p, target, alpha, w, index, gens, center_set):
    base = TENSOR if target == CENTER_TENSOR else target
    out = []
    for v in reference_slice_keys(p, base, w, int(alpha * 2), center_set):
        vec = {}
        for g in gens:
            if base == ALGEBRA:
                images = [(e, k) for e, k in frac_bracket(g, v, p)]
            else:
                a, b = v
                images = [((e, b), k) for e, k in frac_bracket(g, a, p)]
                images += [((a, e), k) for e, k in frac_bracket(g, b, p)]
            for key, k in images:
                lab = index.get((g, key))
                if lab is not None:
                    vec[lab] = vec.get(lab, Fraction(0)) + k
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            out.append(vec)
    return out


def assert_matches_reference(s, lam, targets, degrees, windows):
    for central in (True, False):
        p = AlgebraParams(s, lam, central)
        for target in targets:
            for alpha in degrees:
                for w in windows:
                    case = (p, target, alpha, w)
                    system = assemble(p, target, alpha, w)
                    labels, index, rows, prov, gens, keys, center = (
                        reference_center_tensor(p, alpha, w)
                        if target == CENTER_TENSOR
                        else reference_assemble(p, target, alpha, w)
                    )
                    if center is not None:
                        # assemble emits the rows at keys (z, x), z central
                        emitted = [i for i, t in enumerate(prov) if t[2][0] in center]
                        rows = [rows[i] for i in emitted]
                        prov = [prov[i] for i in emitted]
                    assert system.labels == labels, case
                    assert system.index == index, case
                    # assemble emits each row times p.scale: int_row(R / D)
                    assert [
                        int_row({k: Fraction(c, p.scale) for k, c in row.items()})
                        for row in system.rows
                    ] == rows, case
                    assert system.provenance == prov, case
                    assert system.generators == gens, case
                    assert system.center_set == center, case
                    assert [
                        {k: Fraction(c, p.scale) for k, c in vec.items()}
                        for vec in inner_vectors(system)
                    ] == reference_inner_vectors(
                        p, target, alpha, w, index, gens, center
                    ), case


@pytest.mark.parametrize("s,lam", ROWS, ids=[f"{s}:{lam}" for s, lam in ROWS])
def test_assemble_matches_fraction_reference(s, lam):
    assert_matches_reference(s, lam, TARGETS, DEGREES, WINDOWS)


@pytest.mark.parametrize("s,lam", ROWS, ids=[f"{s}:{lam}" for s, lam in ROWS])
def test_tensor_row_filter_on_one_sided_windows(s, lam):
    """On one-sided windows the feeders of many legs leave the window:
    the interval filter keeps the rows the feeder rule keeps."""
    assert_matches_reference(
        s,
        lam,
        (CENTER_TENSOR, TENSOR),
        (Fraction(0), Fraction(2), Fraction(-2)),
        (Window(0, 6), Window(-6, 0)),
    )


# the assembly grid plus window 1
TWIST_WINDOWS = WINDOWS + [Window.symmetric(1)]


def twist_cases(s, lam):
    for central in (True, False):
        p = AlgebraParams(s, lam, central)
        for alpha in DEGREES:
            for w in TWIST_WINDOWS:
                yield p, alpha, w


def twist_row(labels, index, row):
    """row with every label (g, (a, b)) replaced by (g, (b, a))."""
    out = {}
    for lab, c in row.items():
        g, (a, b) = labels[lab]
        out[index[(g, (b, a))]] = c
    return out


@pytest.mark.parametrize("s,lam", ROWS, ids=[f"{s}:{lam}" for s, lam in ROWS])
def test_center_tensor_rows_are_twist_symmetric(s, lam):
    """On the full reference system, with Z the window center: the rows at
    keys (x, z), x outside Z, are exactly the twists of the rows at keys
    (z, x), and those touch only labels (g, (z', x')) with x' outside Z."""
    for p, alpha, w in twist_cases(s, lam):
        case = (p, alpha, w)
        labels, index, rows, prov, _, _, center = reference_center_tensor(p, alpha, w)
        if lam == 0:
            # window 1 at s = 0 holds only degree 0, all of it central there
            if w == Window.symmetric(1) and not p.s2:
                assert center == set(w.indices_at(0, p)), case
            else:
                assert center == ({C, M(0)} if p.central else {M(0)}), case
        by_key = dict(zip(prov, rows))
        assert len(by_key) == len(rows), case
        a_keys = [(g, h, t) for g, h, t in prov if t[1] not in center]
        b_keys = [(g, h, t) for g, h, t in prov if t[0] not in center]
        assert len(a_keys) == len(b_keys), case
        for g, h, (z, x) in a_keys:
            row = by_key[(g, h, (z, x))]
            assert z in center, case
            for lab in row:
                a, b = labels[lab][1]
                assert a in center and b not in center, (case, labels[lab])
            assert by_key[(g, h, (x, z))] == twist_row(labels, index, row), case


@pytest.mark.parametrize("s,lam", ROWS, ids=[f"{s}:{lam}" for s, lam in ROWS])
def test_twist_parts_kernels_add_up(s, lam):
    """The kernel of the full reference system is the direct sum of the
    twist-symmetric and antisymmetric kernels: with every label as an
    interior label, the unit rows of both parts add the full nullity."""
    for p, alpha, w in twist_cases(s, lam):
        system = assemble(p, CENTER_TENSOR, alpha, w)
        head, parts = _twist_parts(system, frozenset(range(system.n_unknowns)))
        nullity = 0
        for rows, units in parts:
            ech = RowEchelon()
            for row in head + rows:
                ech.insert(row)
            nullity += sum(ech.insert({lab: 1}) is not None for lab in units)
        rows = reference_center_tensor(p, alpha, w)[2]
        assert nullity == system.n_unknowns - _rank(rows), (p, alpha, w)


def reference_solve_h1(p, target, alpha, w):
    """solve_h1 on the full reference system, as it ran before the twist
    split: every row inserted in elimination order (at a nonzero degree
    the pairs with L[0] first), interior unit rows on every label."""
    labels, index, rows, prov, gens, _, center = reference_center_tensor(p, alpha, w)
    if alpha:
        l0 = L(0)
        first = [l0 in (g, h) for g, h, _ in prov]
        rows = [r for r, f in zip(rows, first) if f] + [
            r for r, f in zip(rows, first) if not f
        ]
    ech = RowEchelon()
    for row in rows:
        ech.insert(row)
    inner = w.interior()
    interior = frozenset(
        i for i, (g, t) in enumerate(labels) if inner.contains(g) and inner.contains(t)
    )
    aug = ech.copy()
    dim_der = sum(aug.insert({lab: 1}) is not None for lab in sorted(interior))

    def restricted(vec):
        return int_row({k: v for k, v in vec.items() if k in interior})

    ech_inn = RowEchelon()
    for vec in reference_inner_vectors(p, CENTER_TENSOR, alpha, w, index, gens, center):
        ech_inn.insert(restricted(vec))
    dim_inn = ech_inn.rank
    dim_h1 = dim_der - dim_inn
    names, tables = [], []
    for table in catalog_basis(p, TENSOR, w) if alpha == 0 else []:
        vec = {}
        for g, val in table.values.items():
            for key, coeff in val.terms.items():
                lab = index.get((g, key))
                if lab is not None:
                    vec[lab] = vec.get(lab, Fraction(0)) + coeff
        if ech_inn.insert(restricted(vec)) is not None:
            names.append(table.name)
            tables.append(table)
    return CohomologyReport(
        params=p,
        target=target,
        alpha=Fraction(alpha),
        window=w,
        dim_der=dim_der,
        dim_inn=dim_inn,
        n_unknowns=len(labels),
        n_rows=len(rows),
        quotient_names=names,
        certified=dim_h1 == len(names),
        method="center-reduced" if target == TENSOR else "full-window",
        quotient_tables=tables,
        note="" if dim_h1 == len(names) else (
            f"the named constructors span {len(names)} of {dim_h1} classes"
        ),
    )


@pytest.mark.parametrize("s,lam", ROWS, ids=[f"{s}:{lam}" for s, lam in ROWS])
def test_twist_split_solve_matches_full_system(s, lam):
    """solve_h1 ranks the symmetric and antisymmetric parts of the
    center-tensor system separately; its reports equal a full-system
    solve over the reference rows on both tensor targets."""
    for p, alpha, w in twist_cases(s, lam):
        for target in (TENSOR, CENTER_TENSOR):
            want = reference_solve_h1(p, target, alpha, w).as_dict()
            assert solve_h1(p, target, alpha, w).as_dict() == want, (p, alpha, w, target)


def full_rows(system):
    """Every row of the system: assemble's rows, then on the center-tensor
    target the twist of each row at a key (z, x) with x outside the center."""
    center = system.center_set
    if center is None:
        return system.rows
    return system.rows + [
        twist_row(system.labels, system.index, row)
        for row, (_, _, t) in zip(system.rows, system.provenance)
        if t[1] not in center
    ]


def _rank(rows):
    ech = RowEchelon()
    for row in rows:
        ech.insert(row)
    return ech.rank


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(any(x == y for y in rest) for x in part)


GENERATING_ROWS = list(CASE_ROWS) + [
    (HALF, Fraction(0)),
    (Fraction(0), Fraction(-3)),
    (Fraction(0), Fraction(-5, 3)),
    (Fraction(0), Fraction(7, 1000000007)),
]
GENERATING_CASES = [(Fraction(0), n) for n in (8, 12, 16)] + [
    (alpha, 8) for alpha in (HALF, -HALF, Fraction(2), Fraction(-2))
]


def every_generator(p, w):
    return w.basis_indices(p)


@pytest.mark.parametrize(
    "s,lam", GENERATING_ROWS, ids=[f"{s}:{lam}" for s, lam in GENERATING_ROWS]
)
def test_generating_set_rows_span_every_pair(s, lam, monkeypatch):
    """The kept rows are an order-preserving subsequence of every pair's
    rows with the same rank, and solve_h1 reports the same apart from
    the row count."""
    for central in (True, False):
        p = AlgebraParams(s, lam, central)
        for alpha, n in GENERATING_CASES:
            w = Window.symmetric(n)
            for target, solve_target in ((ALGEBRA, ALGEBRA), (CENTER_TENSOR, TENSOR)):
                case = (p, target, alpha, n)
                kept = assemble(p, target, alpha, w)
                with monkeypatch.context() as m:
                    m.setattr(cohomology, "generating_set", every_generator)
                    full = assemble(p, target, alpha, w)
                assert _is_subsequence(
                    list(zip(kept.provenance, kept.rows)),
                    zip(full.provenance, full.rows),
                ), case
                assert kept.labels == full.labels, case
                assert _rank(full_rows(kept)) == _rank(full_rows(full)), case
                got = solve_h1(p, solve_target, alpha, w, system=kept).as_dict()
                want = solve_h1(p, solve_target, alpha, w, system=full).as_dict()
                assert got.pop("rows") == len(full_rows(kept)), case
                want.pop("rows")
                assert got == want, case


def test_raw_tensor_square_keeps_every_pair(monkeypatch):
    """On the raw tensor-square target the generating-set rows lose rank,
    so that target is not filtered."""
    p = AlgebraParams(0, 1, central=False)
    w = Window.symmetric(6)
    system = assemble(p, TENSOR, -2, w)
    with monkeypatch.context() as m:
        m.setattr(cohomology, "generating_set", lambda p, w: [])
        assert assemble(p, TENSOR, -2, w).provenance == system.provenance
    kept = [
        row for row, (g, h, _) in zip(system.rows, system.provenance)
        if keeps_pair(CENTER_TENSOR, w, g, h)
    ]
    assert len(kept) < len(system.rows)
    assert _rank(system.rows) == 774
    assert _rank(kept) == 756


# symmetric windows 1-3 and the one-sided windows lack doubled degrees
# -4..4 and keep every pair
GUARD_WINDOWS = [Window.symmetric(b) for b in range(1, 9)] + [
    Window(-4, 9),
    Window(-9, 4),
    Window(0, 6),
    Window(-6, 0),
]


@pytest.mark.parametrize("s", [Fraction(0), HALF], ids=["s=0", "s=1/2"])
def test_window_guard_keeps_rank(s, monkeypatch):
    """On every window the kept rows have the rank of every pair's rows.
    Without the window guard the rank drops: at window 3, (1/2, -2),
    degree +-2, and on Window(0, 6) and Window(-6, 0) at (0, -4), degree
    -2 and 2, all on the algebra target."""
    for lam in (Fraction(-4), Fraction(-2)):
        p = AlgebraParams(s, lam)
        for w in GUARD_WINDOWS:
            gens = generating_set(p, w)
            if w.lo <= -4 and 4 <= w.hi:
                assert len(gens) == (7 if p.s2 else 8), w
            else:
                assert gens == w.basis_indices(p), w
            for alpha in (0, HALF, -HALF, 1, -1, 2, -2):
                for target in (ALGEBRA, CENTER_TENSOR):
                    case = (p, w, alpha, target)
                    kept = assemble(p, target, alpha, w)
                    with monkeypatch.context() as m:
                        m.setattr(cohomology, "generating_set", every_generator)
                        full = assemble(p, target, alpha, w)
                    assert _rank(full_rows(kept)) == _rank(full_rows(full)), case


def test_l0_stays_in_generating_set():
    """Without L[0] the kept rows lose rank at window 4."""
    p = AlgebraParams(HALF, 0)
    w = Window.symmetric(4)
    system = assemble(p, ALGEBRA, 2, w)
    without = set(generating_set(p, w)) - {L(0)}
    rows = [
        row for row, (g, h, _) in zip(system.rows, system.provenance)
        if g in without or h in without
    ]
    assert (_rank(rows), _rank(system.rows)) == (15, 16)


def test_window_64_tensor_square_solve():
    report = solve_h1(AlgebraParams(0, 0), TENSOR, 0, Window.symmetric(64))
    assert report.n_rows == 16186
    assert report.n_unknowns == 2352
    assert (report.dim_der, report.dim_inn, report.dim_h1) == (20, 8, 12)
    assert report.certified


def literal_bracket(a, b, p):
    """[a, b] from the defining formulas, as a {index: Fraction} dict."""
    if (a.kind, b.kind) in (("M", "L"), ("Y", "L")):
        return {e: -k for e, k in literal_bracket(b, a, p).items()}
    n, m = a.degree, b.degree
    out = {}
    if (a.kind, b.kind) == ("L", "L"):
        out[BasisIndex("L", a.dd + b.dd)] = m - n
        if p.central and m + n == 0:
            out[C] = (m**3 - m) / 12
    elif (a.kind, b.kind) == ("L", "M"):
        out[BasisIndex("M", a.dd + b.dd)] = m - p.lam * n
    elif (a.kind, b.kind) == ("L", "Y"):
        out[BasisIndex("Y", a.dd + b.dd)] = m - (p.lam + 1) / 2 * n
    elif (a.kind, b.kind) == ("Y", "Y"):
        out[BasisIndex("M", a.dd + b.dd)] = m - n
    return {e: Fraction(k) for e, k in out.items() if k}


@pytest.mark.parametrize("s", [Fraction(0), HALF])
def test_bracket_tables_match_literal_formulas(s):
    for lam in [Fraction(k, 4) for k in range(-16, 17)]:
        for central in (True, False):
            p = AlgebraParams(s, lam, central)
            gens = Window.symmetric(10).basis_indices(p)
            for a in gens:
                for b in gens:
                    expected = literal_bracket(a, b, p)
                    got = bracket(Element.basis(a), Element.basis(b), p).terms
                    assert got == expected, (a, b, p)
                    assert all(type(k) is Fraction for k in got.values())
                    ints = bracket_int(a, b, p)
                    assert all(type(k) is int for _, k in ints)
                    assert {e: k / p.scale for e, k in ints} == expected


def test_scale_clears_every_denominator():
    for lam, scale in [(0, 12), (Fraction(1, 2), 12), (Fraction(-5, 3), 12),
                       (Fraction(3, 8), 48), (Fraction(7, 1000000007), 12000000084)]:
        p = AlgebraParams(0, lam)
        assert p.scale == scale
        assert p.s2 == 0 and AlgebraParams(HALF, lam).s2 == 1


def test_params_equality_hash_and_repr_unchanged():
    p = AlgebraParams(HALF, Fraction(-5, 3), False)
    q = AlgebraParams("1/2", "-5/3", False)
    assert p == q and hash(p) == hash(q)
    assert hash(p) == hash((p.s, p.lam, p.central))
    assert p != AlgebraParams(HALF, Fraction(-5, 3), True)
    assert repr(p) == (
        "AlgebraParams(s=Fraction(1, 2), lam=Fraction(-5, 3), central=False)"
    )
    assert p.describe() == "s=1/2, lambda=-5/3, centerless"
    with pytest.raises(ValueError):
        AlgebraParams(1, 0)
