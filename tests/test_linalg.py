"""Exact sparse elimination: ranks, kernels, determinism."""

import random
from fractions import Fraction

import pytest

from svlie import linalg
from svlie.algebra import AlgebraParams, Window, action_kernel
from svlie.linalg import RowEchelon, int_row


def echelon_of(rows):
    ech = RowEchelon()
    for row in rows:
        ech.insert(int_row(dict(row)))
    return ech


def rank_of(rows):
    """Rank of rows with int or Fraction values."""
    return echelon_of(rows).rank


def annihilates(vec, rows):
    """Exact check that every given row annihilates the vector."""
    return all(not sum(c * vec.get(k, 0) for k, c in row.items()) for row in rows)


class TestRowEchelon:
    def test_rank_simple(self):
        rows = [{0: 1, 1: 2}, {1: 1}, {0: 1, 1: 3}]
        assert echelon_of(rows).rank == 2

    def test_dependent_row(self):
        ech = echelon_of([{0: 1, 1: 2}, {1: 1}])
        assert ech.insert({0: 2, 1: 5}) is None

    def test_kernel_hand_case(self):
        # x0 + x1 + x2 = 0, x1 - x2 = 0  =>  kernel spanned by (-2, 1, 1)
        ech = echelon_of([{0: 1, 1: 1, 2: 1}, {1: 1, 2: -1}])
        (vec,) = ech.kernel_basis(3)
        scale = vec[2]
        normalized = {k: v / scale for k, v in vec.items()}
        assert normalized == {0: Fraction(-2), 1: Fraction(1), 2: Fraction(1)}

    def test_kernel_of_zero_system(self):
        ech = RowEchelon()
        basis = ech.kernel_basis(3)
        assert len(basis) == 3

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(13)
        rows = [
            {j: rng.randint(-4, 4) for j in rng.sample(range(12), 4)}
            for _ in range(18)
        ]
        rows = [r for r in rows if any(r.values())]
        ech = echelon_of(rows)
        for vec in ech.kernel_basis(12):
            assert annihilates(vec, (int_row(dict(r)) for r in rows))
        assert ech.rank + len(ech.kernel_basis(12)) == 12

    def test_fraction_rows_cleared(self):
        row = int_row({0: Fraction(1, 2), 1: Fraction(1, 3)})
        assert row == {0: 3, 1: 2}

    def test_determinism(self):
        rng = random.Random(99)
        rows = [
            {j: rng.randint(-9, 9) for j in rng.sample(range(20), 5)}
            for _ in range(40)
        ]
        e1 = echelon_of(rows)
        e2 = echelon_of(rows)
        assert e1._pivots == e2._pivots

    def test_copy_is_independent(self):
        ech = echelon_of([{0: 1, 1: 1}])
        dup = ech.copy()
        dup.insert({1: 1})
        assert ech.rank == 1 and dup.rank == 2

    def test_rank_of_fraction_vectors(self):
        vecs = [
            {0: Fraction(1, 2), 1: Fraction(1, 2)},
            {0: Fraction(1), 1: Fraction(1)},
            {1: Fraction(2, 7)},
        ]
        assert rank_of(vecs) == 2

    def test_augmented_rank_counts_restricted_kernel(self):
        # kernel of [1 1 0] is 2-dimensional; restricted to coordinate 0 it
        # is 1-dimensional, counted by inserting the unit row e0
        ech = echelon_of([{0: 1, 1: 1}])
        aug = ech.copy()
        new = sum(1 for i in (0,) if aug.insert({i: 1}) is not None)
        assert new == 1


def reference_kernel_basis(ech, n_cols):
    """Per-free-column Fraction back-substitution over every pivot row."""
    rows = sorted(ech._pivots.items(), reverse=True)
    free = [c for c in range(n_cols) if c not in ech._pivots]
    basis = []
    for f in free:
        vec = {f: Fraction(1)}
        for piv, items in rows:
            if piv > f:
                continue
            s = Fraction(0)
            for col, coeff in items[1:]:
                xv = vec.get(col)
                if xv is not None:
                    s += coeff * xv
            if s:
                vec[piv] = -s / items[0][1]
        basis.append(vec)
    return basis


LAMBDAS = [Fraction(k, 4) for k in range(-16, 17)] + [
    Fraction(-5, 3),
    Fraction(7, 1000000007),
]
WINDOWS = [Window.symmetric(b) for b in range(2, 7)] + [
    Window(0, 8),
    Window(-2, 5),
    Window(-7, 3),
    Window(-4, 8),
]


class TestKernelBasisReference:
    """kernel_basis gives the reference's vectors, key order included."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sparse_systems(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(1, 24)
            rows = []
            for _ in range(rng.randint(0, 2 * n)):
                cols = rng.sample(range(n), rng.randint(1, min(n, 6)))
                rows.append({j: rng.randint(-9, 9) for j in cols})
                if rng.random() < 0.3:
                    # a dependent row: a combination of two earlier ones
                    a, b = rng.choice(rows), rng.choice(rows)
                    rows.append({k: 2 * a.get(k, 0) - 3 * b.get(k, 0) for k in {**a, **b}})
            ech = echelon_of(r for r in rows if any(r.values()))
            assert repr(ech.kernel_basis(n)) == repr(reference_kernel_basis(ech, n))

    def test_empty_and_full_rank_systems(self):
        for n in (0, 1, 4):
            assert repr(RowEchelon().kernel_basis(n)) == repr(
                reference_kernel_basis(RowEchelon(), n)
            )
        rng = random.Random(7)
        for n in range(1, 12):
            ech = echelon_of(
                {i: rng.randint(1, 9), **{j: rng.randint(-9, 9) for j in range(i + 1, n)}}
                for i in range(n)
            )
            assert ech.rank == n
            assert ech.kernel_basis(n) == reference_kernel_basis(ech, n) == []
            # free columns past every pivot
            assert repr(ech.kernel_basis(n + 3)) == repr(
                reference_kernel_basis(ech, n + 3)
            )

    @pytest.mark.parametrize("s", [Fraction(0), Fraction(1, 2)], ids=["s=0", "s=1/2"])
    def test_action_kernel_echelons(self, s, monkeypatch):
        kernel_basis = RowEchelon.kernel_basis
        checked = []

        def compared(ech, n_cols):
            got = kernel_basis(ech, n_cols)
            assert repr(got) == repr(reference_kernel_basis(ech, n_cols))
            checked.append(got)
            return got

        monkeypatch.setattr(linalg.RowEchelon, "kernel_basis", compared)
        for lam in LAMBDAS:
            for central in (True, False):
                p = AlgebraParams(s, lam, central)
                for w in WINDOWS:
                    action_kernel(p, w, 1)
                    action_kernel(p, w, 2)
                    action_kernel(p, w, 2, symmetric=True)
        assert len(checked) == len(LAMBDAS) * 2 * len(WINDOWS) * 3
