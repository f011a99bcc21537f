"""Tensor operations, the Yang-Baxter operator and the identity checks."""

import random
from fractions import Fraction

import pytest

from svlie import (
    AlgebraParams,
    Element,
    L,
    M,
    Tensor2,
    Tensor3,
    Window,
    Y,
    bracket,
    check_compatibility,
    check_cojacobi_identity,
    check_cybe,
    check_mybe,
    coboundary,
    cyclic,
    diag_action,
    parse_element,
    parse_tensor2,
    skew_part_membership,
    twist,
    ybe_c,
)
from svlie.algebra import bracket_int, generating_set
from svlie.tensors import _cobracket_memo
from svlie.verify import random_element, random_tensor

HALF = Fraction(1, 2)

WITT_R = parse_tensor2("1 * L[0] (x) L[1] - 1 * L[1] (x) L[0]")
NEG_R = parse_tensor2("1 * L[-1] (x) L[2] - 1 * L[2] (x) L[-1]")


def test_elements_and_tensors_share_one_container():
    # equality is by exact type, and no instance carries a __dict__
    assert Element() != Tensor2()
    assert Tensor2.zero() != Tensor3.zero()
    assert Element.basis(L(0)) == parse_element("L[0]")
    with pytest.raises(ValueError):
        Tensor2.basis(L(0))
    for v in (Element.basis(L(0)), Tensor2.basis(L(0), M(1)), Tensor3.zero()):
        assert not hasattr(v, "__dict__")


class TestTwistCyclic:
    def test_twist_swaps(self):
        assert twist(Tensor2.basis(L(0), L(1))) == Tensor2.basis(L(1), L(0))

    def test_twist_involution_and_skew(self):
        rng = random.Random(3)
        for _ in range(25):
            t = random_tensor(rng)
            assert twist(twist(t)) == t
        assert twist(WITT_R) == -WITT_R

    def test_twist_zero(self):
        assert twist(Tensor2.zero()) == Tensor2.zero()

    def test_cyclic_rotates(self):
        assert cyclic(Tensor3.basis(L(1), M(2), Y(3))) == Tensor3.basis(M(2), Y(3), L(1))

    def test_cyclic_order_three(self):
        rng = random.Random(5)
        for _ in range(25):
            t = random_tensor(rng)
            t3 = Tensor3({(a, b, a): c for (a, b), c in t.terms.items()})
            assert cyclic(cyclic(cyclic(t3))) == t3

    def test_skew_membership(self):
        assert skew_part_membership(WITT_R)
        assert not skew_part_membership(Tensor2.basis(L(0), L(1)))
        assert skew_part_membership(Tensor2.zero())


class TestDiagAction:
    def test_witt_r_is_l1_invariant(self):
        p = AlgebraParams(HALF, -1)
        assert not diag_action(Element.basis(L(1)), WITT_R, p)

    def test_center_acts_trivially(self):
        p = AlgebraParams(0, 4)
        rng = random.Random(11)
        c = parse_element("c")
        for _ in range(10):
            assert not diag_action(c, random_tensor(rng), p)

    def test_l0_scales_by_total_degree(self):
        p = AlgebraParams(0, 2)
        l0 = Element.basis(L(0))
        for n, m in ((3, -1), (2, 2), (-4, 1)):
            t = Tensor2.basis(L(n), L(m))
            assert diag_action(l0, t, p) == t.scaled(n + m)

    def test_l0_scales_triples(self):
        p = AlgebraParams(0, 2)
        t = Tensor3.basis(L(1), L(2), L(-4))
        assert diag_action(Element.basis(L(0)), t, p) == t.scaled(-1)

    def test_action3_center_and_zero(self):
        p = AlgebraParams(HALF, 0)
        t = Tensor3.basis(L(1), M(0), Y(HALF))
        assert not diag_action(parse_element("c"), t, p)
        assert not diag_action(Element.basis(L(2)), Tensor3.zero(), p)

    @pytest.mark.parametrize("s,lam", [(HALF, Fraction(-1)), (Fraction(0), Fraction(5, 2))])
    def test_module_action_identity(self, s, lam):
        # [x,y] acting equals the commutator of the separate actions
        p = AlgebraParams(s, lam)
        rng = random.Random(17)
        gens = Window.symmetric(6).basis_indices(p)
        for _ in range(40):
            x = Element.basis(rng.choice(gens))
            y = Element.basis(rng.choice(gens))
            t = random_tensor(rng, p.s2, max_terms=2)
            lhs = diag_action(bracket(x, y, p), t, p)
            rhs = diag_action(x, diag_action(y, t, p), p) - diag_action(
                y, diag_action(x, t, p), p
            )
            assert lhs == rhs

    def test_skewness_preserved(self):
        p = AlgebraParams(0, -3)
        rng = random.Random(23)
        gens = Window.symmetric(6).basis_indices(p)
        for _ in range(25):
            t = random_tensor(rng, 0, max_terms=3)
            skew = t - twist(t)
            moved = diag_action(Element.basis(rng.choice(gens)), skew, p)
            assert skew_part_membership(moved)


class TestCoboundary:
    def test_zero_r(self):
        p = AlgebraParams(0, 1)
        assert not coboundary(Tensor2.zero(), Element.basis(L(2)), p)

    def test_witt_r_at_l1(self):
        p = AlgebraParams(HALF, -1)
        assert not coboundary(WITT_R, Element.basis(L(1)), p)

    def test_witt_r_at_l2_hand_expansion(self):
        p = AlgebraParams(HALF, -1)
        expected = parse_tensor2(
            "-2 * L[2] (x) L[1] - 1 * L[0] (x) L[3] + 1 * L[3] (x) L[0] + 2 * L[1] (x) L[2]"
        )
        assert coboundary(WITT_R, Element.basis(L(2)), p) == expected

    def test_cobracket_of_skew_is_skew(self):
        p = AlgebraParams(0, Fraction(7, 3))
        rng = random.Random(29)
        gens = Window.symmetric(8).basis_indices(p)
        for _ in range(25):
            t = random_tensor(rng, 0, max_terms=3)
            r = t - twist(t)
            x = Element.basis(rng.choice(gens))
            assert skew_part_membership(coboundary(r, x, p))


def brute_force_ybe(r: Tensor2, p: AlgebraParams) -> Tensor3:
    """Independent oracle: the literal three-sum expansion, written
    directly against the defining formula rather than through ybe_c.  It
    is also the Fraction ybe_c that the integer one replaced: the same
    expansion, summed in Fractions."""
    def br(a, b):
        return [(e, Fraction(k, p.scale)) for e, k in bracket_int(a, b, p)]

    total = {}
    terms = list(r.terms.items())
    for (a1, b1), c1 in terms:
        for (a2, b2), c2 in terms:
            for e, k in br(a1, a2):
                total[(e, b1, b2)] = total.get((e, b1, b2), 0) + c1 * c2 * k
            for e, k in br(b1, a2):
                total[(a1, e, b2)] = total.get((a1, e, b2), 0) + c1 * c2 * k
            for e, k in br(b1, b2):
                total[(a1, a2, e)] = total.get((a1, a2, e), 0) + c1 * c2 * k
    return Tensor3(total)


def reference_check_mybe(r: Tensor2, p: AlgebraParams, w: Window) -> bool:
    """The Fraction check_mybe: diag_action of each generator on the
    Fraction obstruction."""
    obstruction = brute_force_ybe(r, p)
    return not any(
        diag_action(Element.basis(g), obstruction, p) for g in generating_set(p, w)
    )


def reference_check_cojacobi_identity(r: Tensor2, x: Element, p: AlgebraParams) -> bool:
    """The Fraction co-Jacobi balance: the cyclic sum of (1 (x) cobracket)
    on the cobracket of x against x acting on the Fraction obstruction."""
    first: dict = {}
    for g, c in x.terms.items():
        for key, cu in coboundary(r, Element.basis(g), p).terms.items():
            first[key] = first.get(key, 0) + c * cu
    nested: dict = {}
    for (i, j), c in first.items():
        for (u, v), cu in coboundary(r, Element.basis(j), p).terms.items():
            nested[i, u, v] = nested.get((i, u, v), 0) + c * cu
    lhs = Tensor3(nested)
    lhs = lhs + cyclic(lhs) + cyclic(cyclic(lhs))
    return lhs == diag_action(x, brute_force_ybe(r, p), p)


class TestYangBaxter:
    @pytest.mark.parametrize("s,lam", [(HALF, Fraction(-1)), (Fraction(0), Fraction(5))])
    def test_witt_r_solves_cybe(self, s, lam):
        p = AlgebraParams(s, lam)
        assert not ybe_c(WITT_R, p)
        assert check_cybe(WITT_R, p)
        assert check_mybe(WITT_R, p, Window.symmetric(8))

    def test_zero_r(self):
        p = AlgebraParams(0, 0)
        assert check_cybe(Tensor2.zero(), p)
        assert check_mybe(Tensor2.zero(), p, Window.symmetric(6))

    def test_negative_control(self):
        p = AlgebraParams(0, 5, central=False)
        obstruction = ybe_c(NEG_R, p)
        assert obstruction
        assert not check_cybe(NEG_R, p)
        assert not check_mybe(NEG_R, p, Window.symmetric(8))

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for s in (Fraction(0), HALF):
            p = AlgebraParams(s, Fraction(rng.randint(-6, 6), 2) if s == 0 else -2)
            for _ in range(10):
                t = random_tensor(rng, p.s2, max_terms=3)
                r = t - twist(t)
                assert ybe_c(r, p) == brute_force_ybe(r, p)

    def test_cybe_implies_mybe(self):
        p = AlgebraParams(HALF, -2)
        assert check_cybe(WITT_R, p)
        for bound in (4, 8, 12):
            assert check_mybe(WITT_R, p, Window.symmetric(bound))

    def test_mybe_implies_cybe_on_sampled_instances(self):
        # centerless, generic deformation: the two checks agree on every
        # sampled skew r (full equivalence is a theorem, sampled here)
        rng = random.Random(41)
        w = Window.symmetric(10)
        p = AlgebraParams(0, Fraction(7, 2), central=False)
        seen_true = seen_false = 0
        samples = [WITT_R, NEG_R, Tensor2.zero()]
        samples += [random_tensor(rng, 0, max_terms=2) for _ in range(12)]
        for t in samples:
            r = t - twist(t)
            mybe = check_mybe(r, p, w)
            cybe = check_cybe(r, p)
            assert mybe == cybe
            seen_true += cybe
            seen_false += not cybe
        assert seen_true and seen_false  # both branches exercised

    @pytest.mark.parametrize("s", [Fraction(0), HALF])
    @pytest.mark.parametrize("central", [True, False])
    def test_integer_checks_match_fraction_reference(self, s, central):
        # random skew and non-skew r with non-integer coefficients, basis
        # and non-basis x; every verdict and the obstruction must agree
        # with the Fraction references, and each verdict is seen both ways
        p = AlgebraParams(s, Fraction(-5, 3) if central else Fraction(7, 2), central)
        rng = random.Random(f"ybe {s} {central}")
        w = Window.symmetric(4)
        gens = w.basis_indices(p)
        samples = [WITT_R.scaled(Fraction(2, 3)), Tensor2.zero()]
        for _ in range(6):
            t = random_tensor(rng, p.s2, max_terms=3)
            samples += [t, t - twist(t)]
        seen = {"cybe": set(), "mybe": set(), "cojacobi": set()}
        for r in samples:
            want = brute_force_ybe(r, p)
            got = ybe_c(r, p)
            assert got == want and str(got) == str(want)
            cybe = check_cybe(r, p)
            assert cybe == (not want)
            mybe = check_mybe(r, p, w)
            assert mybe == reference_check_mybe(r, p, w)
            seen["cybe"].add(cybe)
            seen["mybe"].add(mybe)
            xs = [parse_element("2*L[1] - M[0] + 1/3*c"), random_element(rng, p.s2, max_terms=3)]
            for x in xs + [Element.basis(g) for g in rng.sample(gens, 3)]:
                ok = check_cojacobi_identity(r, x, p)
                assert ok == reference_check_cojacobi_identity(r, x, p)
                seen["cojacobi"].add(ok)
        for name, verdicts in seen.items():
            assert verdicts == {True, False}, name


class TestIdentities:
    def test_cojacobi_balance_for_solutions(self):
        p = AlgebraParams(HALF, -1)
        for g in Window.symmetric(8).basis_indices(p):
            assert check_cojacobi_identity(WITT_R, Element.basis(g), p)

    def test_cojacobi_balance_for_negative_control(self):
        # both sides are nonzero but still agree
        p = AlgebraParams(0, 5)
        assert ybe_c(NEG_R, p)
        for g in Window.symmetric(8).basis_indices(p):
            assert check_cojacobi_identity(NEG_R, Element.basis(g), p)

    def test_cojacobi_balance_when_legs_repeat(self):
        # terms of r share left and right legs, so the nested cobracket
        # meets the same generator in several terms
        p = AlgebraParams(0, 5)
        t = parse_tensor2(
            "L[0] (x) L[1] + 2 * L[0] (x) M[2] + M[1] (x) L[1] - L[2] (x) M[-1]"
        )
        r = t - twist(t)
        for g in Window.symmetric(4).basis_indices(p):
            assert check_cojacobi_identity(r, Element.basis(g), p)

    def test_cojacobi_reuse_is_keyed_by_r_and_params(self):
        # the obstruction and cobrackets kept between calls belong to one
        # (r, p): r's with shared legs, and several r at the same p, must
        # not see each other's entries
        p, q = AlgebraParams(0, 5), AlgebraParams(HALF, -1)
        t = parse_tensor2(
            "L[0] (x) L[1] + 2 * L[0] (x) M[2] + M[1] (x) L[1] - L[2] (x) M[-1]"
        )
        cases = ((t - twist(t), p), (NEG_R, p), (WITT_R, p), (t - twist(t), q))
        x = parse_element("2*L[1] - M[0] + 1/3*c")
        for r, params in cases:
            for g in Window.symmetric(4).basis_indices(params):
                assert check_cojacobi_identity(r, Element.basis(g), params)
            assert check_cojacobi_identity(r, x, params)
            # the memo holds integers: r times R, the obstruction times
            # scale * R**2 and the cobrackets times scale * R
            R, r_int, obstruction, memo = _cobracket_memo(r, params)
            scale = params.scale
            assert r_int == {key: c * R for key, c in r.terms.items()}
            assert obstruction == {
                key: c * scale * R**2 for key, c in brute_force_ybe(r, params).terms.items()
            }
            assert memo
            for g, cob in memo.items():
                want = coboundary(r, Element.basis(g), params)
                assert cob == {key: c * scale * R for key, c in want.terms.items()}

    def test_cojacobi_zero_r(self):
        p = AlgebraParams(0, 0)
        assert check_cojacobi_identity(Tensor2.zero(), Element.basis(L(3)), p)

    def test_compatibility_identity(self):
        p = AlgebraParams(HALF, Fraction(-5, 3))
        rng = random.Random(37)
        gens = Window.symmetric(4).basis_indices(p)
        for _ in range(30):
            t = random_tensor(rng, p.s2, max_terms=3)
            r = t - twist(t)
            x = Element.basis(rng.choice(gens))
            y = Element.basis(rng.choice(gens))
            assert check_compatibility(r, x, y, p)

    def test_compatibility_equal_arguments(self):
        p = AlgebraParams(0, 2)
        x = Element.basis(L(1))
        assert check_compatibility(WITT_R, x, x, p)
