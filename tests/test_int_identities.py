"""Integer-table Jacobi and derivation checks against the Fraction checks.

The reference keeps the checks the integer structure-constant table
replaces: an `Element` per generator, a `Fraction` bracket on every
nested product and `Fraction` arithmetic on every triple and pair, with
the derivation identity compared on bracket values, slot by slot on
tensors.  Its generator brackets are read off `bracket_int` and memoized
per (a, b, p), apart from `BracketTable`.  Both must report the same
`checked` and `skipped` counts and the same failure and violation lists,
witness values included.
"""

import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from svlie.algebra import (
    C,
    AlgebraParams,
    BasisIndex,
    Element,
    InvalidIndexError,
    Window,
    L,
    M,
    Y,
    bracket,
    BracketTable,
    bracket_int,
    bracket_table,
    check_jacobi,
)
from svlie.algebra import _lam_free_entries
from svlie.cli import main
from svlie.cohomology import solve_h1
from svlie.derivations import (
    ALGEBRA,
    TENSOR,
    DerivationTable,
    catalog,
    catalog_basis,
    inner,
    is_derivation,
    table_to_json,
)
from svlie.tensors import Tensor2

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

# the odd and one-sided windows bind the three window conditions of a
# triple differently
JACOBI_WINDOWS = [
    Window.symmetric(3),
    Window.symmetric(4),
    Window.symmetric(8),
    Window(-4, 8),
    Window(0, 7),
    Window(-9, 2),
]
DERIVATION_WINDOWS = [Window.symmetric(6), Window.symmetric(10), Window(-4, 8), Window(-10, 0)]


@lru_cache(maxsize=None)
def basis_bracket(a, b, p):
    """[a, b] as (key, Fraction) terms, read off bracket_int, memoized per
    (a, b, p)."""
    return tuple((e, Fraction(k, p.scale)) for e, k in bracket_int(a, b, p))


def frac_bracket(x, y, p):
    """The bilinear extension of basis_bracket, in Fractions."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for e, k in basis_bracket(a, b, p):
                out[e] = out.get(e, 0) + ca * cb * k
    return Element(out)


def reference_check_jacobi(p, w, bracket_fn=None):
    """The Fraction Jacobi check: (checked, failures)."""
    brk = bracket_fn or (lambda x, y: frac_bracket(x, y, p))
    gens = w.basis_indices(p)
    checked = 0
    failures = []
    for i, gx in enumerate(gens):
        ex = Element.basis(gx)
        for j in range(i + 1, len(gens)):
            gy = gens[j]
            if not w.contains_dd(gx.dd + gy.dd):
                continue
            ey = Element.basis(gy)
            for k in range(j + 1, len(gens)):
                gz = gens[k]
                if not (
                    w.contains_dd(gy.dd + gz.dd)
                    and w.contains_dd(gx.dd + gz.dd)
                    and w.contains_dd(gx.dd + gy.dd + gz.dd)
                ):
                    continue
                ez = Element.basis(gz)
                res = (
                    brk(brk(ex, ey), ez)
                    + brk(brk(ey, ez), ex)
                    + brk(brk(ez, ex), ey)
                )
                checked += 1
                if res:
                    failures.append((gx, gy, gz, res))
    return checked, failures


def _act(g, val, p):
    """g . val from `basis_bracket` alone: the Leibniz rule on both slots
    of a Tensor2."""
    if not isinstance(val, Tensor2):
        return frac_bracket(Element.basis(g), val, p)
    out = {}
    for (a, b), c in val.items():
        for e, k in basis_bracket(g, a, p):
            out[e, b] = out.get((e, b), 0) + c * k
        for e, k in basis_bracket(g, b, p):
            out[a, e] = out.get((a, e), 0) + c * k
    return Tensor2(out)


def _support_in_window(val, w):
    for key in val.terms:
        keys = (key,) if isinstance(key, BasisIndex) else key
        if not all(w.contains(i) for i in keys):
            return False
    return True


def reference_is_derivation(D, p):
    """The Fraction derivation check: (checked, skipped, violations)."""
    w = D.window
    gens = w.basis_indices(p)
    zero = Element.zero() if D.target == ALGEBRA else Tensor2.zero()
    checked = skipped = 0
    violations = []
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            br = Element(dict(basis_bracket(g, h, p)))
            if any(not w.contains(e) for e in br.terms):
                skipped += 1
                continue
            rhs_g = _act(g, D.value(h), p)
            rhs_h = _act(h, D.value(g), p)
            if not (_support_in_window(rhs_g, w) and _support_in_window(rhs_h, w)):
                skipped += 1
                continue
            lhs = zero
            for e, coeff in br.items():
                lhs = lhs + D.value(e).scaled(coeff)
            rhs = rhs_g - rhs_h
            checked += 1
            if lhs != rhs:
                violations.append((g, h, lhs, rhs))
    return checked, skipped, violations


def assert_same_failures(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b
        assert [type(x) for x in a] == [type(x) for x in b]
        assert [str(x) for x in a[2:]] == [str(x) for x in b[2:]]


def assert_jacobi_matches(p, w, bracket_fn=None, reference_fn=None):
    rep = check_jacobi(p, w, bracket_fn=bracket_fn)
    checked, failures = reference_check_jacobi(p, w, reference_fn or bracket_fn)
    assert rep.checked == checked
    assert_same_failures(rep.failures, failures)
    return rep


def assert_derivation_matches(D, p):
    rep = is_derivation(D, p)
    checked, skipped, violations = reference_is_derivation(D, p)
    assert (rep.checked, rep.skipped) == (checked, skipped)
    assert_same_failures(rep.violations, violations)
    return rep


def perturbed(D, rng):
    """D with one stored coefficient moved by a random nonzero rational."""
    g = rng.choice(sorted(D.values))
    val = D.values[g]
    terms = dict(val.terms)
    key = rng.choice(sorted(terms))
    terms[key] += Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 7]))
    values = dict(D.values)
    values[g] = type(val)(terms)
    return DerivationTable(D.target, D.degree, D.window, values, name=D.name)


def catalog_tables(p, w):
    for target in (ALGEBRA, TENSOR):
        yield from catalog_basis(p, target, w)


def test_bracket_table_is_shared_per_params():
    p = AlgebraParams(0, Fraction(-5, 3))
    assert bracket_table(p) is bracket_table(AlgebraParams(0, Fraction(-5, 3)))
    assert bracket_table(p) is not bracket_table(AlgebraParams(0, Fraction(-5, 3), False))
    assert bracket_table(p)[L(2), M(1)] == ((M(3), 52),)  # (1 + 10/3) * 12


def test_lambda_sweep_keeps_few_tables():
    """check_jacobi over 100 values of lambda in one process.  Only the
    last few tables stay cached, so the traced peak stays under 1 MB; with
    every table kept it reaches about 12 MB."""
    w = Window.symmetric(8)
    tracemalloc.start()
    try:
        for k in range(100):
            assert check_jacobi(AlgebraParams(0, Fraction(2 * k - 99, 101)), w).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def shared_entries(p):
    return _lam_free_entries(p.s2, p.central, p.scale)


def lam_dependent(key):
    return {key[0].kind, key[1].kind} in ({"L", "M"}, {"L", "Y"})


class TestSharedLamFreeEntries:
    """Every lam of one (s2, central, scale) shares the bracket entries
    other than L-M and L-Y; a new BracketTable starts from them."""

    def test_wrong_parity_raises_after_a_sweep(self):
        w = Window.symmetric(8)
        for s in (0, HALF):
            for k in range(-8, 9):
                assert check_jacobi(AlgebraParams(s, Fraction(k, 2)), w).ok
        for s, good, bad in ((0, Y(1), Y(HALF)), (HALF, Y(HALF), Y(1))):
            table = BracketTable(AlgebraParams(s, Fraction(3, 2)))
            for x in (bad, BasisIndex("L", 1), BasisIndex("M", -3)):
                for other in (L(1), L(-2), M(0), good, bad, C):
                    with pytest.raises(InvalidIndexError):
                        table[x, other]
                    with pytest.raises(InvalidIndexError):
                        table[other, x]
                assert all(x not in key for key in shared_entries(table.p))

    def test_equal_scale_lambdas_share_lam_free_entries(self):
        w = Window.symmetric(8)
        for s in (0, HALF):
            p, q = AlgebraParams(s, HALF), AlgebraParams(s, Fraction(-3, 2))
            assert p.scale == q.scale
            gens = w.basis_indices(p)
            first = BracketTable(p)
            for a in gens:
                for b in gens:
                    first[a, b]
            second = BracketTable(q)
            differ = 0
            for key, terms in first.items():
                if lam_dependent(key):
                    assert key not in second
                    assert second[key] == bracket_int(*key, q)
                    differ += second[key] != terms
                else:
                    assert dict.get(second, key) is terms
            assert differ > 0

    def test_central_and_centerless_keep_their_c_terms(self):
        for lam in (Fraction(7, 3), Fraction(-7, 3)):
            for central in (True, False):
                for flag in (central, not central):
                    p = AlgebraParams(0, lam, flag)
                    table = BracketTable(p)
                    for n in range(-4, 5):
                        assert table[L(n), L(-n)] == bracket_int(L(n), L(-n), p)
                        has_c = any(e == C for e, _ in table[L(n), L(-n)])
                        assert has_c == (flag and n not in (-1, 0, 1))

    def test_bracket_fn_table_leaves_shared_entries_untouched(self):
        p = AlgebraParams(0, 5)
        assert check_jacobi(p, Window.symmetric(6)).ok
        shared = shared_entries(p)
        before = dict(shared)
        assert before

        def corrupted(x, y):
            (a,), (b,) = x.terms, y.terms
            out = Element({e: Fraction(k, p.scale) for e, k in bracket_int(a, b, p)})
            if (a, b) == (L(1), L(1)):
                out = out + Element.basis(M(2))
            return out

        table = BracketTable(p, corrupted)
        assert not table
        assert table[L(1), L(1)] == ((M(2), p.scale),)
        assert not check_jacobi(p, Window.symmetric(6), bracket_fn=corrupted).ok
        assert shared_entries(p) is shared and shared == before
        assert bracket_table(p)[L(1), L(1)] == ()

    def test_cached_entries_match_bracket_int_after_the_lambda_sweep(self):
        """The lambda-sweep benchmark grid: degree-0 solves at window 8,
        the algebra at every quarter step of [-4, 4], the tensor square
        at the half-integers."""
        w = Window.symmetric(8)
        grid = [AlgebraParams(s, Fraction(k, 4)) for s in (0, HALF) for k in range(-16, 17)]
        for p in grid:
            solve_h1(p, ALGEBRA, 0, w)
            if p.lam.denominator <= 2:
                solve_h1(p, TENSOR, 0, w)
        for p in grid:
            shared = shared_entries(p)
            assert shared
            for key, terms in shared.items():
                assert not lam_dependent(key)
                assert terms == bracket_int(*key, p)
            for key, terms in bracket_table(p).items():
                assert terms == bracket_int(*key, p)


@pytest.mark.parametrize("s,lam", ROWS)
def test_jacobi_matches_reference(s, lam):
    for central in (True, False):
        p = AlgebraParams(s, lam, central)
        for w in JACOBI_WINDOWS:
            rep = assert_jacobi_matches(p, w)
            assert rep.ok and rep.checked > 0


def test_jacobi_bilinear_corruption_matches_reference():
    p = AlgebraParams(0, 5)

    def corrupted(x, y):
        out = bracket(x, y, p)
        extra = x.coeff(L(1)) * y.coeff(M(1)) - x.coeff(M(1)) * y.coeff(L(1))
        return out + Element({M(2): extra * Fraction(3, 7)})

    for w in (Window.symmetric(6), Window(-4, 8)):
        rep = assert_jacobi_matches(p, w, bracket_fn=corrupted)
        assert not rep.ok


def bilinear(hook):
    """hook read on basis pairs only and extended bilinearly."""

    def extended(x, y):
        out = Element()
        for a, ca in x.items():
            for b, cb in y.items():
                out = out + hook(Element.basis(a), Element.basis(b)).scaled(ca * cb)
        return out

    return extended


def test_jacobi_hook_is_read_on_generator_pairs():
    """A hook that is not bilinear (the corruption used in test_algebra) is
    read on basis pairs and extended bilinearly.  A hook product outside
    the window (L[9]), off the degree of its pair (L[-3]), or c on a
    centerless row is bracketed with the third generator like any other
    product."""
    p = AlgebraParams(0, 5)

    def corrupted(x, y):
        out = bracket(x, y, p)
        if x.coeff(L(1)) and y.coeff(M(1)):
            out = out + Element.basis(M(2))
        return out

    rep = assert_jacobi_matches(
        p, Window.symmetric(6), bracket_fn=corrupted, reference_fn=bilinear(corrupted)
    )
    assert not rep.ok

    w = Window.symmetric(6)
    for central in (True, False):
        q = AlgebraParams(0, 5, central)

        def off_window(x, y):
            out = bracket(x, y, q)
            if x.coeff(L(1)) and y.coeff(L(2)):
                out = out + Element({L(9): 1, L(-3): 1})
            if x.coeff(L(1)) and y.coeff(M(-1)):
                out = out + Element({C: 3})
            if x.coeff(C) and y.coeff(L(0)):
                out = out + Element.basis(M(0))
            return out

        rep = assert_jacobi_matches(
            q, w, bracket_fn=off_window, reference_fn=bilinear(off_window)
        )
        assert any(not w.contains(f) for *_, res in rep.failures for f in res.terms)
        assert any(gz == M(0) for _, _, gz, _ in rep.failures)


def test_jacobi_count_at_the_window_cap():
    """The only check at the CLI window cap, where the Fraction reference
    is too slow: every triple i < j < k whose pair and triple sums stay in
    the window is counted."""
    rep = check_jacobi(AlgebraParams(0, Fraction(-5, 3)), Window.symmetric(64))
    assert rep.ok and rep.checked == 522120


@pytest.mark.parametrize("s,lam", ROWS)
def test_catalog_derivations_match_reference(s, lam):
    rng = random.Random(f"{s}/{lam}")
    for central in (True, False):
        p = AlgebraParams(s, lam, central)
        for w in DERIVATION_WINDOWS:
            for table in catalog_tables(p, w):
                rep = assert_derivation_matches(table, p)
                assert rep.ok and rep.checked > 0
                bad = assert_derivation_matches(perturbed(table, rng), p)
                if w.lo == 0 or w.hi == 0:
                    # no pair of opposite degrees: at lambda = 0 nothing
                    # checked there fixes the values at L[0] and M[0]
                    continue
                # moving the one coefficient of y0_to_c (Y[0] -> c) only
                # rescales it, which leaves a derivation
                assert bad.ok == (sum(len(v.terms) for v in table.values.values()) == 1)


def test_catalog_under_other_rows_matches_reference():
    w = Window.symmetric(8)
    for (s, lam), (_, other) in zip(ROWS, ROWS[1:] + ROWS[:1]):
        own = AlgebraParams(s, lam)
        for table in catalog_tables(own, w):
            assert_derivation_matches(table, AlgebraParams(s, other))
            assert_derivation_matches(table, AlgebraParams(s, other, central=False))


def test_mismatched_case_controls_match_reference():
    w = Window.symmetric(16)
    controls = [
        (AlgebraParams(0, -2), {"l_to_m_n3": 1}, AlgebraParams(0, -1)),
        (AlgebraParams(HALF, -1), {"l_to_m_n2_minus_n": 1}, AlgebraParams(HALF, 3)),
        (AlgebraParams(0, 1), {"y_to_m_1": 1}, AlgebraParams(0, 5)),
    ]
    for own, params, wrong in controls:
        (table,) = catalog(own, ALGEBRA, w, params=params)
        rep = assert_derivation_matches(table, wrong)
        assert not rep.ok and rep.witness() is not None


def test_inner_and_raw_tables_match_reference():
    """inner() against the values of _act, and raw tables."""
    w = Window.symmetric(6)
    for s, lam in ROWS:
        for central in (True, False):
            p = AlgebraParams(s, lam, central)
            for v in (
                Element({L(1): Fraction(2, 3)}),
                Element({M(0): 1}),
                Tensor2({(L(0), L(1)): Fraction(-5, 2)}),
                Tensor2({(M(-1), L(2)): Fraction(1, 3), (L(1), M(0)): 4}),
            ):
                table = inner(v, p, w)
                acted = {g: _act(g, v, p) for g in w.basis_indices(p)}
                assert table.values == {g: val for g, val in acted.items() if val}
                assert assert_derivation_matches(table, p).ok
    # inhomogeneous values with mixed denominators, and a value whose
    # action leaves the window
    p = AlgebraParams(0, -2)
    raw = DerivationTable(
        ALGEBRA, None, w,
        {L(1): Element({M(1): Fraction(1, 3), L(2): 5}), M(0): Element({M(0): 2})},
    )
    assert not assert_derivation_matches(raw, p).ok
    outside = DerivationTable(
        ALGEBRA, Fraction(0), Window.symmetric(4), {L(1): Element({L(1): 1, M(6): 1})}
    )
    assert_derivation_matches(outside, p)
    # at lambda = 0, M[1] acts on this value by cancelling M[1] (x) M[3]
    # outright, so the pair (M[1], L[0]) is checked, not skipped
    cancel = DerivationTable(
        TENSOR, Fraction(0), Window.symmetric(4),
        {L(0): Tensor2({(L(0), M(3)): 1, (M(1), L(2)): -1})},
    )
    for lam in (0, 1):
        assert_derivation_matches(cancel, AlgebraParams(0, lam))


SKIP_WINDOWS = [Window.symmetric(6), Window.symmetric(3), Window(0, 7), Window(-9, 2)]


def empty_pairs(D, p):
    """(inside, outside): the pairs with no value at g, at h or at any term
    of [g, h], split by whether [g, h] stays in the window."""
    w = D.window
    gens = w.basis_indices(p)
    inside = outside = 0
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            br = basis_bracket(g, h, p)
            if g in D.values or h in D.values or any(e in D.values for e, _ in br):
                continue
            if all(w.contains(e) for e, _ in br):
                inside += 1
            else:
                outside += 1
    return inside, outside


def sparse_tables(p, w):
    """Tables that leave most pairs empty: inner derivations of single
    terms, and values at one or two generators (inside every window)."""
    y = Y(Fraction(p.s2, 2))
    for v in (
        Element({L(1): Fraction(2, 3)}),
        Element({M(0): 1}),
        Tensor2({(L(0), M(1)): Fraction(-5, 2)}),
    ):
        yield inner(v, p, w)
    yield DerivationTable(ALGEBRA, None, w, {L(1): Element({M(1): Fraction(1, 3), L(2): 5})})
    yield DerivationTable(
        ALGEBRA, Fraction(0), w, {M(0): Element({M(0): 2}), y: Element({y: Fraction(-1, 2)})}
    )
    yield DerivationTable(TENSOR, Fraction(1), w, {L(1): Tensor2({(L(0), M(2)): Fraction(2, 7)})})
    yield DerivationTable(
        TENSOR, Fraction(0), w,
        {L(0): Tensor2({(M(0), L(0)): 3}), y: Tensor2({(y, M(0)): Fraction(1, 5)})},
    )


@pytest.mark.parametrize("s,lam", [(HALF, Fraction(-1)), (Fraction(0), Fraction(0)),
                                   (Fraction(0), Fraction(-5, 3))])
def test_sparse_tables_match_reference(s, lam):
    """is_derivation counts a pair with no value at g, at h or at any term
    of [g, h] without building it; the counts and violations must still
    match the reference, on tables and windows where such pairs stay in
    the window and where their bracket leaves it."""
    rng = random.Random(f"sparse {s}/{lam}")
    totals = [0, 0]
    for central in (True, False):
        p = AlgebraParams(s, lam, central)
        for w in SKIP_WINDOWS:
            for table in sparse_tables(p, w):
                assert_derivation_matches(table, p)
                if table.values:  # inner(M[0]) is zero at lambda = 0
                    assert_derivation_matches(perturbed(table, rng), p)
                for k, n in enumerate(empty_pairs(table, p)):
                    totals[k] += n
    assert all(totals), totals


def test_wrong_parity_value_raises_like_reference():
    w = Window.symmetric(6)
    table = DerivationTable(ALGEBRA, Fraction(0), w, {L(1): Element({Y(HALF): 1})})
    p = AlgebraParams(0, 1)
    with pytest.raises(InvalidIndexError) as want:
        reference_is_derivation(table, p)
    with pytest.raises(InvalidIndexError) as got:
        is_derivation(table, p)
    assert str(got.value) == str(want.value)


def test_check_derivation_witness_line(capsys, tmp_path):
    (table,) = catalog(
        AlgebraParams(0, -2), ALGEBRA, Window.symmetric(10), params={"l_to_m_n3": 1}
    )
    path = tmp_path / "table.json"
    path.write_text(table_to_json(table))
    code = main(["check-derivation", "--s", "0", "--lambda", "-1", "--derivation", str(path)])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "derivation check: FAIL (477 pairs checked, 84 boundary pairs skipped)",
        "witness pair (L[-5], L[1]): D[g,h] = -384*M[-4] but action gives -504*M[-4]",
    ]
