"""Exact sparse elimination: ranks, kernels, determinism."""

import heapq
import random
from fractions import Fraction
from math import gcd

import pytest

from svlie import cohomology, linalg
from svlie.algebra import AlgebraParams, Window, action_kernel
from svlie.cohomology import assemble
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
        for piv, row in rows:
            if piv > f:
                continue
            s = Fraction(0)
            for col, coeff in row.items():
                xv = vec.get(col) if col != piv else None
                if xv is not None:
                    s += coeff * xv
            if s:
                vec[piv] = -s / row[piv]
        basis.append(vec)
    return basis


def random_rows(rng, n):
    """Sparse rows over n columns, some of them combinations of earlier ones."""
    rows = []
    for _ in range(rng.randint(0, 2 * n)):
        cols = rng.sample(range(n), rng.randint(1, min(n, 6)))
        rows.append({j: rng.randint(-9, 9) for j in cols})
        if rng.random() < 0.3:
            # a dependent row: a combination of two earlier ones
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append({k: 2 * a.get(k, 0) - 3 * b.get(k, 0) for k in {**a, **b}})
    return rows


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
            ech = echelon_of(r for r in random_rows(rng, n) if any(r.values()))
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
                    action_kernel(p, w)
        assert len(checked) == len(LAMBDAS) * 2 * len(WINDOWS)


# ---------------------------------------------------------------------------
# The heap-based echelon that the reduced one replaced, kept as a reference
# ---------------------------------------------------------------------------

_NORMALIZE_EVERY = 8


def _normalize(row, lead):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[lead] < 0:
        g = -g
    items = sorted(row.items())
    if g not in (0, 1):
        items = [(k, v // g) for k, v in items]
    return items


class HeapEchelon:
    """Row echelon form whose stored rows are reduced only below their
    pivot: a row is reduced through chains of pivot rows taken from a heap
    of its columns, and kernel_basis back-reduces the pivot rows."""

    def __init__(self):
        self._pivots = {}

    @property
    def rank(self):
        return len(self._pivots)

    def copy(self):
        dup = HeapEchelon()
        dup._pivots = dict(self._pivots)
        return dup

    def insert(self, row):
        row = dict(row)
        heap = list(row)
        heapq.heapify(heap)
        steps = 0
        while heap:
            col = heapq.heappop(heap)
            val = row.get(col, 0)
            if not val:
                row.pop(col, None)
                continue
            pivot = self._pivots.get(col)
            if pivot is None:
                self._pivots[col] = _normalize(row, col)
                return col
            lead = pivot[0][1]
            if lead != 1:
                for k in row:
                    row[k] *= lead
            del row[col]
            for k, pv in pivot[1:]:
                cur = row.get(k)
                if cur is None:
                    nv = -val * pv
                    if nv:
                        row[k] = nv
                        heapq.heappush(heap, k)
                else:
                    nv = cur - val * pv
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
            steps += 1
            if steps % _NORMALIZE_EVERY == 0 and row:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    for k in row:
                        row[k] //= g
        return None

    def kernel_basis(self, n_cols):
        basis = {c: {c: Fraction(1)} for c in range(n_cols) if c not in self._pivots}
        reduced = {}
        for piv in sorted(self._pivots, reverse=True):
            row = dict(self._pivots[piv])
            for q in [q for q in row if q in reduced]:
                red = reduced[q]
                g = gcd(red[q], row[q])
                a, b = red[q] // g, row[q] // g
                if a != 1:
                    row = {k: a * v for k, v in row.items()}
                for k, v in red.items():
                    row[k] = row.get(k, 0) - b * v
            g = gcd(*row.values()) * (1 if row[piv] > 0 else -1)
            row = reduced[piv] = {k: v // g for k, v in row.items() if v}
            for c, k in row.items():
                if c != piv:
                    basis[c][piv] = Fraction(-k, row[piv])
        return list(basis.values())


def assert_reduced(ech):
    """Each stored row is primitive with a positive lead at its lowest
    column, holds no other pivot column, and the column index names
    exactly the rows that hold each free column."""
    pivots = ech._pivots
    holders = {}
    for piv, row in pivots.items():
        assert min(row) == piv and row[piv] > 0
        assert all(row.values()) and gcd(*row.values()) == 1
        assert [c for c in row if c in pivots] == [piv]
        for c in row:
            if c != piv:
                holders.setdefault(c, set()).add(piv)
    assert {c: qs for c, qs in ech._holders.items() if qs} == holders


class PairedEchelon:
    """A RowEchelon that repeats every operation on a HeapEchelon and
    checks that both return the same."""

    made: list = []

    def __init__(self, new=None, ref=None):
        self.new = RowEchelon() if new is None else new
        self.ref = HeapEchelon() if ref is None else ref
        PairedEchelon.made.append(self)

    @property
    def rank(self):
        assert self.new.rank == self.ref.rank
        return self.new.rank

    def copy(self):
        return PairedEchelon(self.new.copy(), self.ref.copy())

    def insert(self, row):
        got = self.new.insert(row)
        assert got == self.ref.insert(row)
        return got

    def kernel_basis(self, n_cols):
        got = self.new.kernel_basis(n_cols)
        assert repr(got) == repr(self.ref.kernel_basis(n_cols))
        return got


class TestHeapReference:
    """The reduced echelon returns what the heap-based one returned."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_systems(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(60):
            n = rng.randint(1, 24)
            ech = PairedEchelon()
            for row in random_rows(rng, n):
                ech.insert(row)
                assert_reduced(ech.new)
            assert ech.new.rank == ech.ref.rank
            ech.kernel_basis(n)
            ech.kernel_basis(n + 2)

    @pytest.mark.parametrize(
        "s,lam,window",
        [
            pytest.param(Fraction(s, 2), Fraction(k, 4), 8, id=f"s={s}/2-lam={k}/4-w8")
            for s in (0, 1)
            for k in range(-16, 17)
        ]
        + [
            pytest.param(Fraction(0), Fraction(0), 32, id="s=0-lam=0-w32"),
            pytest.param(Fraction(0), Fraction(7, 10**100 + 7), 32, id="s=0-lam=7/(10^100+7)-w32"),
        ],
    )
    def test_assembled_degree0_systems(self, s, lam, window, monkeypatch):
        # every echelon of the solve, its copies and certificates included
        monkeypatch.setattr(cohomology, "RowEchelon", PairedEchelon)
        p = AlgebraParams(s, lam, True)
        w = Window.symmetric(window)
        for target, solved in (("algebra", "algebra"), ("tensor-square", "center-tensor")):
            monkeypatch.setattr(PairedEchelon, "made", [])
            system = assemble(p, solved, 0, w)
            cohomology.solve_h1(p, target, 0, w, system=system)
            assert len(PairedEchelon.made) >= 3
            for ech in PairedEchelon.made:
                assert_reduced(ech.new)
                assert ech.new.rank == ech.ref.rank
                ech.kernel_basis(system.n_unknowns)


class TestReducedEchelon:
    def test_new_pivot_clears_its_column(self):
        ech = echelon_of([{0: 2, 1: 1, 3: 1}, {2: 1, 3: 5}])
        assert ech.insert({1: 3, 3: 1}) == 1
        assert_reduced(ech)
        assert ech._pivots[0] == {0: 3, 3: 1}

    def test_copy_independent_when_shared_rows_are_rewritten(self):
        base = [{0: 1, 2: 1, 4: 1}, {1: 1, 2: 2, 3: 1}]
        ech = echelon_of(base)
        rows = dict(ech._pivots)
        dup = ech.copy()
        # a pivot at 2 rewrites both stored rows, which the copies share
        assert dup.insert({2: 1, 3: -1}) == 2
        assert dup._pivots == {0: {0: 1, 3: 1, 4: 1}, 1: {1: 1, 3: 3}, 2: {2: 1, 3: -1}}
        assert ech._pivots == rows and ech.rank == 2
        # the original goes on independently of the copy
        assert ech.insert({2: 1, 4: 2}) == 2
        assert ech._pivots == {0: {0: 1, 4: -1}, 1: {1: 1, 3: 1, 4: -4}, 2: {2: 1, 4: 2}}
        assert dup._pivots[2] == {2: 1, 3: -1}
        for e, extra in ((ech, {2: 1, 4: 2}), (dup, {2: 1, 3: -1})):
            assert_reduced(e)
            for vec in e.kernel_basis(5):
                assert annihilates(vec, base + [extra])

    def test_long_lambda_coefficients_stay_small(self):
        p = AlgebraParams(Fraction(0), Fraction(7, 10**100 + 7), True)
        system = assemble(p, "algebra", 0, Window.symmetric(16))
        ech = RowEchelon()
        for row in system.rows:
            ech.insert(row)
        assert_reduced(ech)
        # assemble gives each row times p.scale: measure its primitive part
        inputs = max(
            (max(map(abs, row.values())) // gcd(*row.values())).bit_length()
            for row in system.rows
        )
        stored = max(abs(c).bit_length() for row in ech._pivots.values() for c in row.values())
        # 336 and 335 bits; the heap echelon stored up to 665 bits here
        assert stored <= inputs + 16

    @pytest.mark.parametrize("s", [Fraction(0), Fraction(1, 2)], ids=["s=0", "s=1/2"])
    def test_any_scale_and_order_store_the_same_rows(self, s):
        # what lets callers insert raw rows in assembly order; at s = 0 the
        # half-integer degrees are empty, so the integer ones are added
        rng = random.Random(21)
        w = Window.symmetric(8)
        for lam in (Fraction(0), Fraction(7, 10)):
            p = AlgebraParams(s, lam, True)
            for target in ("algebra", "center-tensor"):
                for alpha in (0, Fraction(1, 2), Fraction(-1, 2), 1, -1):
                    system = assemble(p, target, alpha, w)
                    plain = RowEchelon()
                    for row in system.rows:
                        plain.insert(row)
                    rows = list(system.rows)
                    rng.shuffle(rows)
                    scaled = RowEchelon()
                    for row in rows:
                        k = rng.choice([-1, 1]) * rng.randint(1, 10**6)
                        scaled.insert({col: k * c for col, c in row.items()})
                    case = (p, target, alpha)
                    assert scaled._pivots == plain._pivots, case
                    assert scaled.rank == plain.rank, case
                    n = system.n_unknowns
                    assert repr(scaled.kernel_basis(n)) == repr(plain.kernel_basis(n)), case

    def test_kernel_basis_rejects_columns_past_n_cols(self):
        ech = RowEchelon()
        ech.insert({0: 1, 5: 1})
        with pytest.raises(ValueError, match="column 5.*n_cols = 3"):
            ech.kernel_basis(3)
        # a pivot past n_cols is rejected as well
        ech = RowEchelon()
        ech.insert({4: 2})
        with pytest.raises(ValueError, match="column 4"):
            ech.kernel_basis(4)
        assert ech.kernel_basis(5) == [{c: 1} for c in range(4)]
