"""Sparse exact linear algebra over the rationals.

Rows are dicts mapping integer column labels to integer coefficients
(fraction rows are cleared of denominators first).  The echelon form is
kept fully reduced, in integers: a stored row holds its pivot, its lowest
column, and only columns that are no pivot, and is gcd-primitive with a
positive pivot coefficient.  An incoming row is reduced in one pass over
its own pivot columns, and a new pivot is cleared from the stored rows
that hold its column, so coefficients stay small and no floating error or
rational blowup arises.  Given the row space and the column order this
form is unique: any integer scaling of the input rows and any insertion
order give the same stored rows, so callers insert rows as they build
them and ranks, kernels and certificates are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

__all__ = ["RowEchelon", "int_row"]


def int_row(row: dict) -> dict:
    """row times d, d the lcm of its denominators, zeros dropped; the
    values may be ints, Fractions or both."""
    d = lcm(1, *(c.denominator for c in row.values()))
    return {k: c.numerator * (d // c.denominator) for k, c in row.items() if c}


class RowEchelon:
    """Incremental reduced row echelon form with deterministic reduction.

    Stored rows are keyed by their pivot column; _holders maps each column
    that is no pivot to the pivots of the stored rows holding it.  Stored
    rows are replaced, never mutated, so copies share them and copy only
    the index.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}
        self._holders: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def copy(self) -> "RowEchelon":
        dup = RowEchelon()
        dup._pivots = dict(self._pivots)
        dup._holders = {c: set(qs) for c, qs in self._holders.items()}
        return dup

    def insert(self, row: dict[int, int]) -> Optional[int]:
        """Reduce a row against the stored rows and keep the remainder.

        Returns the new pivot column, or None when the row is dependent.
        The input dict is left unchanged.
        """
        pivots = self._pivots
        acc = dict(row)
        # one pass over the row's pivot columns: stored rows hold no other
        # pivot, so subtracting one fills no pivot column of acc
        for c in row:
            prow = pivots.get(c)
            if prow is None:
                continue
            v = acc[c]
            lead = prow[c]
            if lead != 1:
                g = gcd(lead, v)
                if g != lead:
                    a = lead // g
                    for k in acc:
                        acc[k] *= a
                    v *= a
                v //= lead
            for k, pv in prow.items():
                acc[k] = acc.get(k, 0) - v * pv
        if not any(acc.values()):
            return None
        acc = {k: v for k, v in acc.items() if v}
        piv = min(acc)
        g = gcd(*acc.values())
        if acc[piv] < 0:
            g = -g
        if g != 1:
            acc = {k: v // g for k, v in acc.items()}
        holders = self._holders
        lead = acc[piv]
        for q in holders.pop(piv, ()):
            # clear piv from the stored row q: a * old - b * acc
            old = pivots[q]
            g = gcd(lead, old[piv])
            a, b = lead // g, old[piv] // g
            new = {k: a * v for k, v in old.items()} if a != 1 else dict(old)
            for k, v in acc.items():
                nv = new.get(k, 0) - b * v
                if nv:
                    if k not in new:
                        holders.setdefault(k, set()).add(q)
                    new[k] = nv
                elif k in new:
                    del new[k]
                    if k != piv:
                        holders[k].discard(q)
            g = gcd(*new.values())
            pivots[q] = {k: v // g for k, v in new.items()} if g != 1 else new
        for k in acc:
            if k != piv:
                holders.setdefault(k, set()).add(piv)
        pivots[piv] = acc
        return piv

    def kernel_basis(self, n_cols: int) -> list[dict[int, Fraction]]:
        """One exact kernel vector per free column, unit at that column.

        The vector of free column f reads -coeff(f) / lead off every
        stored row that has f, in descending pivot order.  Every stored
        column must lie below n_cols.
        """
        last = max((max(row) for row in self._pivots.values()), default=-1)
        if last >= n_cols:
            raise ValueError(f"a stored row holds column {last}, not below n_cols = {n_cols}")
        basis = {c: {c: Fraction(1)} for c in range(n_cols) if c not in self._pivots}
        for piv in sorted(self._pivots, reverse=True):
            row = self._pivots[piv]
            lead = row[piv]
            for c, k in row.items():
                if c != piv:
                    basis[c][piv] = Fraction(-k, lead)
        return list(basis.values())
