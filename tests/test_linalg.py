"""Exact sparse elimination: ranks, kernels, determinism."""

import random
from fractions import Fraction

from svlie.linalg import RowEchelon, int_row, rank_of


def echelon_of(rows):
    ech = RowEchelon()
    for row in rows:
        ech.insert(int_row(dict(row)))
    return ech


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
