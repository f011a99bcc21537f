"""Sparse exact linear algebra over the rationals.

Rows are dicts mapping integer column labels to integer coefficients
(fraction rows are cleared of denominators first).  Elimination is
fraction-free: a row combination multiplies through by the pivot leading
coefficient and the result is gcd-normalized, so no floating error and no
rational blowup.  The pivot of a stored row is its lowest column label;
rows are inserted in the caller's deterministic order, which makes ranks,
kernels and certificates reproducible.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

__all__ = ["RowEchelon", "int_row"]

_NORMALIZE_EVERY = 8


def int_row(row: dict) -> dict[int, int]:
    """Clear denominators; accepts int or Fraction values."""
    denom = 1
    for v in row.values():
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
    out = {}
    for k, v in row.items():
        iv = int(v * denom) if denom != 1 or isinstance(v, Fraction) else v
        if iv:
            out[k] = iv
    return out


def _normalize(row: dict[int, int], lead: int) -> list[tuple[int, int]]:
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


class RowEchelon:
    """Incremental row echelon form with deterministic reduction.

    Stored pivot rows are immutable sorted (column, coeff) lists keyed by
    their pivot column; copies therefore share row storage.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, list[tuple[int, int]]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def copy(self) -> "RowEchelon":
        dup = RowEchelon()
        dup._pivots = dict(self._pivots)
        return dup

    def insert(self, row: dict[int, int]) -> Optional[int]:
        """Reduce a row against the stored pivots and keep the remainder.

        Returns the new pivot column, or None when the row is dependent.
        The input dict is left unchanged: insert works on a copy.
        """
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
            # row := lead(pivot) * row - val * pivot; fill columns are all
            # greater than col because pivot rows are sorted.
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

    def kernel_basis(self, n_cols: int) -> list[dict[int, Fraction]]:
        """One exact kernel vector per free column, unit at that column.

        The pivot rows are reduced once, in integers and from the last
        pivot up, until each keeps only its pivot and free columns; the
        vector of free column f then reads -coeff(f) / lead off every
        reduced row that has f, in descending pivot order.
        """
        basis = {c: {c: Fraction(1)} for c in range(n_cols) if c not in self._pivots}
        reduced: dict[int, dict[int, int]] = {}
        for piv in sorted(self._pivots, reverse=True):
            row = dict(self._pivots[piv])
            # row := a * row - b * reduced[q] clears q and adds free columns only
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
