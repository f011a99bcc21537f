"""Integer structure-constant assembly against the Fraction construction.

The reference keeps the assembly the integer table replaces: every
coefficient read from `bracket_int` as a `Fraction` over `p.scale`, equation rows
summed in `Fraction`s and cleared by `int_row`, and the window center
computed again for the inner vectors.  The systems built on either path
must agree exactly: labels, rows, provenance, index, slice keys and the
inner vectors.
"""

from fractions import Fraction

import pytest

from svlie.algebra import (
    C,
    AlgebraParams,
    BasisIndex,
    Element,
    Window,
    bracket,
    bracket_int,
)
from svlie.cohomology import (
    _FEEDERS,
    CENTER_TENSOR,
    _center_index_set,
    _gen_order,
    _parity_ok,
    _slice_keys,
    assemble,
    inner_vectors,
)
from svlie.derivations import ALGEBRA, TENSOR
from svlie.linalg import int_row

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


def frac_bracket(a, b, p):
    """The generator bracket as (index, Fraction) pairs, read off
    bracket_int directly rather than through a table."""
    return [(e, Fraction(k, p.scale)) for e, k in bracket_int(a, b, p)]


def reference_assemble(p, target, alpha, w):
    """The Fraction assembly: (labels, index, rows, provenance, gens,
    slice_keys, center_set)."""
    shift = int(alpha * 2)
    center_set = _center_index_set(p, w) if target == CENTER_TENSOR else None
    base = TENSOR if target == CENTER_TENSOR else target
    gens = sorted(w.basis_indices(p), key=_gen_order)
    slice_keys = {g: _slice_keys(p, base, w, g.dd + shift, center_set) for g in gens}
    labels = [(g, t) for g in gens for t in slice_keys[g]]
    index = {lab: i for i, lab in enumerate(labels)}

    def tensor_row_ok(g, h, t):
        t1, t2 = t
        if not (w.contains(t1) and w.contains(t2)):
            return False
        for actor in (g, h):
            for res, other in ((t1, t2), (t2, t1)):
                for sk in _FEEDERS.get((actor.kind, res.kind), ()):
                    dd_a = res.dd - actor.dd
                    if not _parity_ok(sk, dd_a, p.s2):
                        continue
                    if center_set is not None:
                        a = BasisIndex(sk, dd_a)
                        if a not in center_set and other not in center_set:
                            continue
                    if not w.contains_dd(dd_a):
                        return False
        return True

    pairs = [(g, h) for i, g in enumerate(gens) for h in gens[i + 1:]]
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


def reference_inner_vectors(p, target, alpha, w, index, gens, center_set):
    base = TENSOR if target == CENTER_TENSOR else target
    out = []
    for v in _slice_keys(p, base, w, int(alpha * 2), center_set):
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


@pytest.mark.parametrize("s,lam", ROWS, ids=[f"{s}:{lam}" for s, lam in ROWS])
def test_assemble_matches_fraction_reference(s, lam):
    for central in (True, False):
        p = AlgebraParams(s, lam, central)
        for target in TARGETS:
            for alpha in DEGREES:
                for w in WINDOWS:
                    case = (p, target, alpha, w)
                    system = assemble(p, target, alpha, w)
                    labels, index, rows, prov, gens, keys, center = (
                        reference_assemble(p, target, alpha, w)
                    )
                    assert system.labels == labels, case
                    assert system.index == index, case
                    assert system.rows == rows, case
                    assert system.provenance == prov, case
                    assert system.generators == gens, case
                    assert system.slice_keys == keys, case
                    assert system.center_set == center, case
                    assert inner_vectors(system) == reference_inner_vectors(
                        p, target, alpha, w, index, gens, center
                    ), case


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
