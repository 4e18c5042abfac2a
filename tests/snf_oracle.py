"""The swap-based Smith normal form, kept as the oracle of the in-place one.

This is eqcohom.linalg.smith_normal_form as it was written before it
eliminated on the row store without swapping: three mutable copies (the
matrix, left and right) with per-entry get/set, each pivot swapped to (t, t)
and made positive, ties broken row-major by the current (swapped) position.
It shares nothing with the new engine but the IntMatrix type and the copy of
a matrix into rows and a column index.
"""

from eqcohom.linalg import IntMatrix, SnfDecomposition, _rows_and_columns


class _Workspace:
    """The Smith normal form's mutable copy of a matrix: its rows and a
    column index."""

    def __init__(self, m: IntMatrix):
        self.rows = m.rows
        self.cols = m.cols
        self.row, self.col = _rows_and_columns(m)  # i -> {j: v}, j -> set of i

    def get(self, i, j):
        return self.row.get(i, {}).get(j, 0)

    def set(self, i, j, v):
        if v:
            self.row.setdefault(i, {})[j] = v
            self.col.setdefault(j, set()).add(i)
        else:
            r = self.row.get(i)
            if r and j in r:
                del r[j]
                if not r:
                    del self.row[i]
                c = self.col[j]
                c.discard(i)
                if not c:
                    del self.col[j]

    def add_row(self, src, dst, c):
        """row[dst] += c * row[src]"""
        if not c:
            return
        for j, v in list(self.row.get(src, {}).items()):
            self.set(dst, j, self.get(dst, j) + c * v)

    def add_col(self, src, dst, c):
        """col[dst] += c * col[src]"""
        if not c:
            return
        for i in list(self.col.get(src, set())):
            v = self.get(i, src)
            self.set(i, dst, self.get(i, dst) + c * v)

    def swap_rows(self, a, b):
        if a == b:
            return
        ra, rb = self.row.get(a, {}), self.row.get(b, {})
        for j in set(ra) | set(rb):
            va, vb = ra.get(j, 0), rb.get(j, 0)
            self.set(a, j, vb)
            self.set(b, j, va)

    def swap_cols(self, a, b):
        if a == b:
            return
        ia = set(self.col.get(a, set()))
        ib = set(self.col.get(b, set()))
        for i in ia | ib:
            va, vb = self.get(i, a), self.get(i, b)
            self.set(i, a, vb)
            self.set(i, b, va)

    def scale_row(self, i, c):
        for j, v in list(self.row.get(i, {}).items()):
            self.set(i, j, c * v)

    def to_matrix(self):
        return IntMatrix._of(self.rows, self.cols, self.row)


def _smallest_entry(w: _Workspace, t):
    """Position of a nonzero of least absolute value in w[t:, t:], ties
    broken row-major, the first unit taken at once; None if the block is 0."""
    pivot = best = None
    for i in sorted(w.row):
        if i < t:
            continue
        r = w.row[i]
        for j in sorted(r):
            if j < t:
                continue
            x = abs(r[j])
            if best is None or x < best:
                if x == 1:
                    return i, j
                best, pivot = x, (i, j)
    return pivot


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form left @ a @ right == s with nonnegative divisor-chain diagonal.

    left accumulates the row operations and right the column operations.
    Pivot rule: smallest absolute value, ties broken row-major, stopping at
    a unit; this makes the decomposition deterministic for golden tests.
    """
    w = _Workspace(a)
    left = _Workspace(IntMatrix.identity(a.rows))
    right = _Workspace(IntMatrix.identity(a.cols))

    def row_add(src, dst, c):  # w[dst] += c*w[src]
        w.add_row(src, dst, c)
        left.add_row(src, dst, c)

    def col_add(src, dst, c):  # wcol[dst] += c*wcol[src]
        w.add_col(src, dst, c)
        right.add_col(src, dst, c)

    def move_to(t, pivot):
        """Swap the pivot to (t, t) and make it positive."""
        i, j = pivot
        w.swap_rows(t, i)
        left.swap_rows(t, i)
        w.swap_cols(t, j)
        right.swap_cols(t, j)
        if w.get(t, t) < 0:
            w.scale_row(t, -1)
            left.scale_row(t, -1)

    for t in range(min(a.rows, a.cols)):
        pivot = _smallest_entry(w, t)
        if pivot is None:
            break
        move_to(t, pivot)
        while True:
            p = w.get(t, t)
            progressed = False
            for i in [i for i in w.col.get(t, set()) if i > t]:
                row_add(t, i, -(w.get(i, t) // p))
                if w.get(i, t):
                    progressed = True
            for j in [j for j in w.row.get(t, {}) if j > t]:
                col_add(t, j, -(w.get(t, j) // p))
                if w.get(t, j):
                    progressed = True
            if progressed:
                # leftover remainders are smaller than p; re-pivot on one
                move_to(t, _smallest_entry(w, t))
                continue
            # row/col t cleared; enforce divisibility of the remaining block
            bad = next((i for i in sorted(w.row) if i > t
                        and any(j > t and v % p for j, v in w.row[i].items())), None)
            if bad is None:
                break
            row_add(bad, t, 1)  # drag the non-divisible entry into row t

    return SnfDecomposition(left.to_matrix(), w.to_matrix(), right.to_matrix())
