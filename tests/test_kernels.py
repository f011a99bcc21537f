"""The degree-0 action kernels against the full ordered-pair systems.

The reference keeps the construction the graded kernel replaces: one
unknown per window generator (center) or per ordered pair of window
generators (invariants, skew image), rows from every in-window generator
acting through `bracket`, slot by slot on pairs, and one `RowEchelon`
over every slice.  The reports built on either kernel must agree exactly.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from svlie import algebra, linalg
from svlie.algebra import (
    AlgebraParams,
    Element,
    L,
    Window,
    action_kernel,
    bracket,
    bracket_table,
    center_in_window,
)
from svlie.cohomology import (
    CheckReport,
    _interior_vec,
    verify_invariants_are_central,
    verify_skew_image_lemma,
)
from svlie.linalg import RowEchelon, int_row
from svlie.literals import parse_tensor2
from svlie.tensors import Tensor2, check_mybe, diag_action, tensor_of, twist, ybe_c

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
]

WINDOWS = [Window.symmetric(b) for b in range(2, 7)] + [Window(-2, 5)]


def _span_rank(vectors):
    """Rank of {key: Fraction} vectors, each inserted once."""
    keymap = {}
    ech = RowEchelon()
    for vec in vectors:
        ech.insert(int_row({keymap.setdefault(k, len(keymap)): c for k, c in vec.items()}))
    return ech.rank


def kernel_of(rows, keys):
    ech = RowEchelon()
    for rkey in sorted(rows):
        ech.insert(int_row(rows[rkey]))
    return [{keys[i]: c for i, c in vec.items()} for vec in ech.kernel_basis(len(keys))]


def add_row_entry(rows, rkey, col, coeff):
    cell = rows.setdefault(rkey, {})
    cell[col] = cell.get(col, 0) + coeff


def full_center(p, w):
    """Kernel of the adjoint action over every window generator."""
    gens = w.basis_indices(p)
    rows = {}
    for g in gens:
        for col, v in enumerate(gens):
            for res, coeff in bracket(Element.basis(g), Element.basis(v), p).items():
                add_row_entry(rows, (g, res), col, coeff)
    return [Element(v) for v in kernel_of(rows, gens)]


def pair_action(g, key, p):
    """g . (a (x) b) = [g, a] (x) b + a (x) [g, b], zeros dropped."""
    a, b = key
    x = Element.basis(g)
    out = {}
    for e, k in bracket(x, Element.basis(a), p).items():
        out[e, b] = out.get((e, b), 0) + k
    for e, k in bracket(x, Element.basis(b), p).items():
        out[a, e] = out.get((a, e), 0) + k
    return {res: c for res, c in out.items() if c}


def full_pair_kernels(p, w):
    """Invariant and symmetric-part kernels over every ordered pair of
    window generators, all degree slices in one system each."""
    gens = w.basis_indices(p)
    keys = [(a, b) for a in gens for b in gens]
    plain, folded = {}, {}
    for g in gens:
        for col, key in enumerate(keys):
            for res, coeff in pair_action(g, key, p).items():
                add_row_entry(plain, (g, res), col, coeff)
                add_row_entry(folded, (g, min(res, res[::-1])), col, coeff)
    return kernel_of(plain, keys), kernel_of(folded, keys)


def reference_invariants(p, n, w, center, pair_kernel):
    kernel = center if n == 1 else [Tensor2(v) for v in pair_kernel]
    if n == 1:
        products = center
    else:
        products = [tensor_of(z1, z2) for z1 in center for z2 in center]
    inner = w.interior()
    kernel_rank = _span_rank(_interior_vec(v, inner) for v in kernel)
    product_rank = _span_rank(_interior_vec(v, inner) for v in products)
    joint_rank = _span_rank(
        [_interior_vec(v, inner) for v in kernel]
        + [_interior_vec(v, inner) for v in products]
    )
    return CheckReport(
        "invariants-are-central",
        p,
        w,
        kernel_rank == product_rank == joint_rank,
        {
            "order": n,
            "kernel_dim": kernel_rank,
            "center_product_dim": product_rank,
            "kernel_basis": [str(v) for v in kernel],
        },
    )


def reference_skew(p, w, center, pair_kernel, sym_kernel):
    basis = [Tensor2(v) for v in pair_kernel]
    products = [tensor_of(z1, z2) for z1 in center for z2 in center]
    inner = w.interior()
    product_vecs = [_interior_vec(v, inner) for v in products]
    product_rank = _span_rank(product_vecs)
    failures = []
    for v in basis:
        v_int = Tensor2(_interior_vec(v, inner))
        sym = v_int + twist(v_int)
        if sym and _span_rank(product_vecs + [dict(sym.terms)]) != product_rank:
            failures.append(str(v))
    return CheckReport(
        "skew-image",
        p,
        w,
        not failures,
        {"space_dim": len(sym_kernel), "failures": failures},
    )


@pytest.mark.parametrize("central", [True, False], ids=["central", "centerless"])
@pytest.mark.parametrize("s,lam", ROWS, ids=[f"{s},{lam}" for s, lam in ROWS])
def test_reports_match_full_pair_reference(s, lam, central):
    p = AlgebraParams(s, lam, central)
    for w in WINDOWS:
        center = full_center(p, w)
        pair_kernel, sym_kernel = full_pair_kernels(p, w)

        assert center_in_window(p, w) == center
        for n in (1, 2):
            got = verify_invariants_are_central(p, n, w).as_dict()
            assert got == reference_invariants(p, n, w, center, pair_kernel).as_dict()
        got = verify_skew_image_lemma(p, w).as_dict()
        assert got == reference_skew(p, w, center, pair_kernel, sym_kernel).as_dict()


EXACT_LAMBDAS = [Fraction(k, 4) for k in range(-16, 17)] + [
    Fraction(-5, 3),
    Fraction(7, 1000000007),
]
EXACT_WINDOWS = [Window.symmetric(b) for b in range(2, 7)] + [
    Window(0, 8),
    Window(-2, 5),
    Window(-7, 3),
    Window(-4, 8),
]


def kernels_of(p, w):
    return [
        center_in_window(p, w),
        action_kernel(p, w),
    ]


@pytest.mark.parametrize("central", [True, False], ids=["central", "centerless"])
@pytest.mark.parametrize("s", [Fraction(0), HALF], ids=["s=0", "s=1/2"])
def test_center_keys_equal_full_center(s, central):
    # every generator acting on every window vector, all slices in one
    # system; the one-sided windows act with every generator
    for lam in EXACT_LAMBDAS:
        p = AlgebraParams(s, lam, central)
        for w in EXACT_WINDOWS:
            assert center_in_window(p, w) == full_center(p, w), (p, w)


def all_actor_kernels(p, w):
    """The action kernels with every window generator acting."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(algebra, "generating_set", lambda p, w: w.basis_indices(p))
        return kernels_of(p, w)


@pytest.mark.parametrize("central", [True, False], ids=["central", "centerless"])
@pytest.mark.parametrize("s", [Fraction(0), HALF], ids=["s=0", "s=1/2"])
def test_generating_set_kernels_equal_all_actor_kernels(s, central):
    # the same vectors with the same key order, not just the same span
    for lam in EXACT_LAMBDAS:
        p = AlgebraParams(s, lam, central)
        for w in EXACT_WINDOWS:
            assert repr(kernels_of(p, w)) == repr(all_actor_kernels(p, w)), (p, w)


# symmetric windows 1-3 and the one-sided windows lack doubled degrees
# -4..4, so every window generator acts there
GUARD_WINDOWS = [Window.symmetric(b) for b in range(1, 9)] + [
    Window(-4, 9),
    Window(-9, 4),
    Window(0, 6),
    Window(-6, 0),
]


@pytest.mark.parametrize("s", [Fraction(0), HALF], ids=["s=0", "s=1/2"])
def test_window_guard_kernels_equal_all_actor_kernels(s):
    for lam in (Fraction(-4), Fraction(-2), Fraction(0), Fraction(-5, 3)):
        for central in (True, False):
            p = AlgebraParams(s, lam, central)
            for w in GUARD_WINDOWS:
                assert repr(kernels_of(p, w)) == repr(all_actor_kernels(p, w)), (p, w)


@pytest.mark.parametrize("central", [True, False], ids=["central", "centerless"])
@pytest.mark.parametrize("s", [Fraction(0), HALF], ids=["s=0", "s=1/2"])
def test_l0_kills_the_degree_0_slice(s, central):
    # action_kernel skips L[0] on this premise; the all-actor kernels skip
    # it as well, so they cannot check it
    for lam in EXACT_LAMBDAS:
        p = AlgebraParams(s, lam, central)
        table = bracket_table(p)
        for w in EXACT_WINDOWS:
            gens = w.basis_indices(p)
            keys = [(a,) for a in w.indices_at(0, p)]
            keys += [(a, b) for a in gens for b in w.indices_at(-a.dd, p)]
            for key in keys:
                assert table.act(L(0), {key: 1}) == {}, (p, w, key)


MYBE_RS = [
    parse_tensor2("1 * L[0] (x) L[1] - 1 * L[1] (x) L[0]"),
    parse_tensor2("1 * L[-1] (x) L[2] - 1 * L[2] (x) L[-1]"),
    # degree-0 obstructions: at s = 1/2, lambda = 0 every degree-0
    # generator kills them and only the others decide
    parse_tensor2("1 * L[3] (x) L[-3] - 1 * L[-3] (x) L[3]"),
    parse_tensor2("1 * L[1] (x) L[-1] - 1 * L[-1] (x) L[1]"),
]


@pytest.mark.parametrize("s", [Fraction(0), HALF], ids=["s=0", "s=1/2"])
def test_mybe_verdicts_equal_all_actor_loop(s):
    seen = set()
    for lam in (Fraction(0), Fraction(5), Fraction(-5, 3)):
        for central in (True, False):
            p = AlgebraParams(s, lam, central)
            for w in EXACT_WINDOWS:
                for r in MYBE_RS:
                    obstruction = ybe_c(r, p)
                    want = not any(
                        diag_action(Element.basis(g), obstruction, p)
                        for g in w.basis_indices(p)
                    )
                    assert check_mybe(r, p, w) == want, (p, w, str(r))
                    seen.add(want)
    assert seen == {True, False}


def test_window_64_pair_kernel_rows(monkeypatch):
    # the generating set's rows without L[0]; every window generator but
    # L[0] acting inserts 106,948
    inserted = []
    insert = linalg.RowEchelon.insert

    def counting_insert(ech, row):
        inserted.append(row)
        return insert(ech, row)

    monkeypatch.setattr(linalg.RowEchelon, "insert", counting_insert)
    action_kernel(AlgebraParams(0, 0), Window.symmetric(64))
    assert len(inserted) == 3974


@pytest.mark.parametrize(
    "s,lam,space_dim,kernel_dim",
    [(0, 0, 19113, 4), (HALF, -2, 18916, 1), (0, Fraction(-5, 3), 19111, 1)],
    ids=["0,0", "1/2,-2", "0,-5/3"],
)
def test_window_64_skew_and_invariant_dims(s, lam, space_dim, kernel_dim):
    p, w = AlgebraParams(s, lam), Window.symmetric(64)
    rep = verify_skew_image_lemma(p, w)
    assert rep.ok and rep.details["space_dim"] == space_dim
    rep = verify_invariants_are_central(p, 2, w)
    assert rep.ok and rep.details["kernel_dim"] == kernel_dim


def test_arity_is_checked():
    # action_kernel takes (p, w) only: a stale arity argument raises
    with pytest.raises(TypeError):
        action_kernel(AlgebraParams(0, 0), Window.symmetric(2), 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["skew-lemma", "--s", "1/2", "--lambda", "-2"],
        ["invariants", "--s", "0", "--lambda", "0", "--order", "2"],
        ["center", "--s", "0", "--lambda", "0"],
    ],
    ids=["skew-lemma", "invariants", "center"],
)
def test_window_cap_finishes_in_bounded_time(argv):
    # the largest window the CLI accepts; 60 s is the budget for any
    # accepted input
    proc = subprocess.run(
        [sys.executable, "-m", "svlie.cli", *argv, "--window", "64", "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == argv[0]
