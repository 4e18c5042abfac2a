"""Exact integer and rational linear algebra.

Everything downstream (cellular complexes, bar constructions, Deligne
cones) reduces to Smith normal form, integer kernels and rational ranks
computed here.  No floating point anywhere: integer matrices carry
arbitrary-precision Python ints, rational ones carry fractions.Fraction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


class CompositionNotZero(Exception):
    """Consecutive differentials do not compose to zero."""


# ---------------------------------------------------------------------------
# integer matrices


def _exact_int(v):
    """v as an int; ValueError if v is not an integer value."""
    i = int(v)
    if i != v:
        raise ValueError(f"non-integral matrix entry {v!r}")
    return i


def _pruned(store):
    """store without its zero values and the rows they leave empty; the
    order of what stays is kept."""
    out = {}
    for i, r in store.items():
        if 0 in r.values():
            r = {j: v for j, v in r.items() if v}
        if r:
            out[i] = r
    return out


class IntMatrix:
    """Immutable integer matrix, stored once by rows: row index -> {column:
    nonzero int}, with no empty rows.

    This module is the only reader of that store (``_store``).  Other
    modules build matrices through the constructor (an {(i, j): value}
    dict), from_rows, identity, zero, from_blocks (the one place where block
    offsets and signs are placed) or the arithmetic, and read them through
    the accessors; the one exception is the bar cochain builder
    (simplicial.BarLevels._coface_sum), which sums its rows as dicts and
    hands them to _of.  ``entries`` is an {(i, j): value} dict derived from the
    rows on each read, for tests and tools.  ``_kept`` holds what the matrix
    has computed about itself: its hash, its rank over Q (rank) and its
    Smith form (smith), each at the first read.  Being immutable makes that
    safe, and whatever holds the matrix shares them.  The one way a matrix
    loses its rows is handed_over, which moves them to reduce_complex for a
    matrix that nothing reads again.

    Serialization is dense (arrays of arrays of decimal strings);
    bar-complex differentials are large and very sparse.  An entry that is
    not an integer value (say Fraction(3, 2)) raises ValueError rather than
    being truncated.
    """

    __slots__ = ("rows", "cols", "_store", "_kept")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        store = {}
        for (i, j), v in entries.items():
            if not v:
                continue
            if type(v) is not int:
                v = _exact_int(v)
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            r = store.get(i)
            if r is None:
                store[i] = {j: v}
            else:
                r[j] = v
        self.rows, self.cols, self._store, self._kept = rows, cols, store, None

    @classmethod
    def _of(cls, rows, cols, store):
        """Wrap a row store that is already valid: in bounds, int values,
        no zeros and no empty rows.  The matrix takes ownership of it."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._store, m._kept = rows, cols, store, None
        return m

    # -- constructors

    @classmethod
    def from_rows(cls, data, cols=None):
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(rows, cols, entries)

    @classmethod
    def from_blocks(cls, rows, cols, blocks):
        """The rows x cols matrix holding sign * m with its (0, 0) entry at
        (row_off, col_off), for each (row_off, col_off, m, sign) in blocks.

        Overlapping blocks add up; a sum that cancels leaves no entry.  A
        block reaching outside the shape, or a sign other than +1 or -1,
        raises ValueError.  One block that is the whole matrix with sign +1
        is returned as it is (matrices are immutable).
        """
        if len(blocks) == 1 and blocks[0][:2] == (0, 0) and blocks[0][3] == 1 \
                and (blocks[0][2].rows, blocks[0][2].cols) == (rows, cols):
            return blocks[0][2]
        store = {}
        merged = False
        for r0, c0, m, sign in blocks:
            if sign not in (1, -1):
                raise ValueError(f"block sign {sign!r} is not +1 or -1")
            if r0 < 0 or c0 < 0 or r0 + m.rows > rows or c0 + m.cols > cols:
                raise ValueError(f"{m.rows}x{m.cols} block at ({r0},{c0}) "
                                 f"outside {rows}x{cols}")
            for i, r in m._store.items():
                out = store.get(r0 + i)
                if out is None:
                    store[r0 + i] = {c0 + j: sign * v for j, v in r.items()}
                else:
                    merged = True
                    for j, v in r.items():
                        out[c0 + j] = out.get(c0 + j, 0) + sign * v
        return cls._of(rows, cols, _pruned(store) if merged else store)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, {})

    # -- access

    @property
    def entries(self):
        """{(i, j): value} of the nonzero entries, a fresh dict on each read."""
        return {(i, j): v for i, r in self._store.items() for j, v in r.items()}

    def __getitem__(self, key):
        i, j = key
        r = self._store.get(i)
        return r.get(j, 0) if r else 0

    def row(self, i):
        """{column: value} of the nonzero entries of row i, a fresh dict."""
        return dict(self._store.get(i, ()))

    def column(self, j):
        out = [0] * self.rows
        for i, r in self._store.items():
            v = r.get(j)
            if v:
                out[i] = v
        return out

    def to_rows(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for i, r in self._store.items():
            dense = out[i]
            for j, v in r.items():
                dense[j] = v
        return out

    def is_zero(self):
        return not self._store

    def diagonal(self):
        return [self[i, i] for i in range(min(self.rows, self.cols))]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._store == other._store

    def _keep(self, key, compute):
        """compute(self) at the first read under key, then the kept value."""
        kept = self._kept = self._kept or {}
        if key not in kept:
            kept[key] = compute(self)
        return kept[key]

    def __hash__(self):
        return self._keep("hash", lambda m: hash((m.rows, m.cols, frozenset(
            (i, frozenset(r.items())) for i, r in m._store.items()))))

    def rank(self):
        """The rank over Q (rank_q), taken at the first read and kept."""
        return self._keep("rank", rank_q)

    def smith(self):
        """The Smith form (smith_normal_form), taken at the first read and kept."""
        return self._keep("smith", smith_normal_form)

    def handed_over(self):
        """This matrix's rows, moved into a matrix of the same shape whose
        rows reduce_complex takes over instead of copying them.  For a matrix
        that nothing reads again: this one is left without rows, and so is
        the one returned once it is reduced, so that a later read fails
        instead of seeing rows the reduction has changed."""
        m = _HandedOver._of(self.rows, self.cols, self._store)
        self._store = None
        return m

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntMatrix({self.to_rows()})"
        nnz = sum(len(r) for r in self._store.values())
        return f"IntMatrix({self.rows}x{self.cols}, {nnz} nonzero)"

    # -- arithmetic

    def __add__(self, other):
        self._check_same_shape(other)
        return IntMatrix.from_blocks(self.rows, self.cols, [(0, 0, self, 1), (0, 0, other, 1)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not c:
            return IntMatrix.zero(self.rows, self.cols)
        c = _exact_int(c)
        return IntMatrix._of(self.rows, self.cols,
                             {i: {j: c * v for j, v in r.items()} for i, r in self._store.items()})

    def _product_rows(self, other):
        """(i, {j: sum}) for each stored row i of self @ other, summed one
        row at a time; a sum may be 0 and a row may be empty."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        right = other._store
        for i, r in self._store.items():
            acc = {}
            for k, v in r.items():
                rk = right.get(k)
                if rk:
                    for j, w in rk.items():
                        acc[j] = acc.get(j, 0) + v * w
            yield i, acc

    def __matmul__(self, other):
        store = {i: acc for i, acc in self._product_rows(other) if acc}
        return IntMatrix._of(self.rows, other.cols, _pruned(store))

    def product_is_zero(self, other):
        """Whether self @ other is zero, checked on every row without
        building it: only one row's sums are kept, and the first row with a
        nonzero entry ends the check."""
        return not any(any(acc.values()) for _, acc in self._product_rows(other))

    def transpose(self):
        store = {}
        for i, r in self._store.items():
            for j, v in r.items():
                t = store.get(j)
                if t is None:
                    store[j] = {i: v}
                else:
                    t[i] = v
        return IntMatrix._of(self.cols, self.rows, store)

    def apply(self, vec):
        """Matrix times integer/rational column vector (as a list)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for i, r in self._store.items():
            out[i] = sum(v * vec[j] for j, v in r.items())
        return out

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    # -- reading (dense; an entry is a JSON int or a decimal string)

    @classmethod
    def from_json_obj(cls, obj):
        data = [[int(s) for s in row] for row in obj["entries"]]
        m = cls.from_rows(data, cols=obj["cols"]) if data else cls.zero(obj["rows"], obj["cols"])
        if m.rows != obj["rows"]:
            raise ValueError("row count mismatch in serialized matrix")
        return m


# ---------------------------------------------------------------------------
# Smith normal form


class _HandedOver(IntMatrix):
    """A matrix from IntMatrix.handed_over, whose rows reduce_complex takes
    over instead of copying."""

    __slots__ = ()


@dataclass(frozen=True)
class SnfDecomposition:
    """left @ a @ right == s for the input a: left and right unimodular, s
    diagonal with nonnegative entries d_1 | d_2 | ... (zeros last)."""

    left: IntMatrix
    s: IntMatrix
    right: IntMatrix


def _rows_and_columns(m: IntMatrix):
    """The rows of m as a mutable store, i -> {j: v}, and its column index,
    j -> set of the rows i with a nonzero at (i, j).  The store is a copy,
    except for a matrix from handed_over, whose own rows it takes over."""
    if type(m) is _HandedOver:
        row, m._store = m._store, None
    else:
        row = {i: dict(r) for i, r in m._store.items()}
    col = {}
    for i, r in row.items():
        for j in r:
            c = col.get(j)
            if c is None:
                col[j] = {i}
            else:
                c.add(i)
    return row, col


def _add_row(store, src, dst, c, col=None):
    """store[dst] += c * store[src] in a row store i -> {j: v}, for c != 0;
    a row left empty goes.  col, the store's column index, is kept in step
    when given."""
    r = store[dst]
    for j, v in store[src].items():
        x = r.get(j, 0) + c * v
        if x:
            if col is not None and j not in r:
                col[j].add(dst)
            r[j] = x
        else:
            del r[j]
            if col is not None:
                col[j].discard(dst)
    if not r:
        del store[dst]


def _least_entry(row):
    """(i, j) of a nonzero of least absolute value in a row store whose rows
    are in index order: ties go to the least (i, j), and the first row that
    holds a unit ends the scan."""
    best = None
    for i, r in row.items():
        x, j = min((abs(v), j) for j, v in r.items())
        if x == 1:
            return i, j
        if best is None or x < best[0]:
            best = x, i, j
    return best[1:]


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form left @ a @ right == s with nonnegative divisor-chain diagonal.

    Elimination runs in place on the row store of a copy of a, with its
    column index; left is kept as a store of rows and right as a store of
    columns, so that every step is a row operation on each.  Nothing is
    swapped: each pivot is cleared where it stands, re-pivoting while
    remainders are left and adding in the first row with an entry the
    pivot does not divide, and then its row and column leave the store.
    At the end left and right are permuted once so that pivot t sits at
    (t, t), and the rows of left of negative pivots are negated.  Pivot
    rule: smallest absolute value, ties broken by the original (row,
    column) index, a unit taken at once; the decomposition is deterministic.
    """
    row, col = _rows_and_columns(a)
    row = dict(sorted(row.items()))  # rows only ever leave, so they stay in order
    left = {i: {i: 1} for i in range(a.rows)}    # i -> row i of left
    right = {j: {j: 1} for j in range(a.cols)}   # j -> column j of right
    pivots = []
    while row:
        i0, j0 = _least_entry(row)
        while True:
            p = row[i0][j0]
            for i, c in [(i, -(row[i][j0] // p)) for i in col[j0] if i != i0]:
                _add_row(row, i0, i, c, col)
                _add_row(left, i0, i, c)
            prow = row[i0]
            for j, c in [(j, -(v // p)) for j, v in prow.items() if j != j0 and v // p]:
                for i in col[j0]:  # column j += c * column j0
                    r = row[i]
                    x = r.get(j, 0) + c * r[j0]
                    if x:
                        if j not in r:
                            col[j].add(i)
                        r[j] = x
                    else:
                        del r[j]
                        col[j].discard(i)
                _add_row(right, j0, j, c)
            if len(prow) > 1 or len(col[j0]) > 1:
                i0, j0 = _least_entry(row)  # the remainders are smaller than p
                continue
            bad = next((i for i, r in row.items() if any(v % p for v in r.values())), None)
            if bad is None:
                break
            _add_row(row, bad, i0, 1, col)  # bring an entry p does not divide into its row
            _add_row(left, bad, i0, 1)
        del row[i0], col[j0]
        pivots.append((i0, j0, p))

    rows = [i for i, _, _ in pivots]
    rows += sorted(set(range(a.rows)).difference(rows))
    cols = [j for _, j, _ in pivots]
    cols += sorted(set(range(a.cols)).difference(cols))
    for i, _, p in pivots:
        if p < 0:
            left[i] = {k: -v for k, v in left[i].items()}
    return SnfDecomposition(
        IntMatrix._of(a.rows, a.rows, {t: left[i] for t, i in enumerate(rows)}),
        IntMatrix._of(a.rows, a.cols, {t: {t: abs(p)} for t, (_, _, p) in enumerate(pivots)}),
        IntMatrix._of(a.cols, a.cols, {t: right[j] for t, j in enumerate(cols)}).transpose())


def kernel_basis(a: IntMatrix):
    """Columns (as lists) generating ker(a) over Z, a pure sublattice."""
    snf = smith_normal_form(a)
    diag = snf.s.diagonal()
    return [snf.right.column(j) for j in range(a.cols) if j >= len(diag) or diag[j] == 0]


def solve_int(a: IntMatrix, b):
    """One integer solution x of a @ x == b, or None."""
    snf = smith_normal_form(a)
    diag = snf.s.diagonal()
    y = [0] * a.cols
    for i, ci in enumerate(snf.left.apply(list(b))):  # solve s y == left b
        d = diag[i] if i < len(diag) else 0
        if d:
            if ci % d:
                return None
            y[i] = ci // d
        elif ci:
            return None
    return snf.right.apply(y)


# columns of minimum count whose entries rank_q weighs for each pivot
_PIVOT_SCAN_COLUMNS = 8

# largest Markowitz cost of a unit pivot that reduce_complex takes
_FILL_CAP = 128


def rank_q(a: IntMatrix, lead=None):
    """Rank over Q by sparse elimination (exact fractions when pivots aren't units).

    Pivot rule: the columns are kept in buckets by their count of nonzeros,
    updated as entries appear and vanish.  Each step weighs only the
    entries of up to _PIVOT_SCAN_COLUMNS columns of the minimum count and
    takes the best by (not a unit, Markowitz cost (row length - 1) *
    (column count - 1)), stopping early at a unit of cost 0.  A step thus
    costs the entries it touches, not a scan of the whole matrix.
    Elimination is exact: c // p when p divides c, Fraction(c, p) otherwise.

    With lead, a set of columns, the pivots are taken in lead columns while
    one has an entry left, and the pair (rank of the lead columns, rank of
    a) is returned: row operations keep the rank of every set of columns,
    so the pivots taken before the lead columns run empty number theirs.
    """
    if lead is None and a.rows > a.cols:
        a = a.transpose()  # rows along the short axis: faster on bar-complex windows
    row, col = _rows_and_columns(a)
    first = lead or ()
    buckets, lead_buckets = {}, {}  # column count -> set of columns with that many nonzeros
    for j, rows_j in col.items():
        (lead_buckets if j in first else buckets).setdefault(len(rows_j), set()).add(j)
    rank = lead_rank = 0
    while lead_buckets or buckets:
        pool = lead_buckets or buckets
        count = min(pool)
        best = None
        for scanned, j in enumerate(pool[count], 1):
            for i in col[j]:
                key = (abs(row[i][j]) != 1, (len(row[i]) - 1) * (count - 1))
                if best is None or key < best:
                    best, i0, j0 = key, i, j
            if best == (False, 0) or scanned == _PIVOT_SCAN_COLUMNS:
                break
        prow = row[i0]
        p = prow[j0]
        old_counts = {j: len(col[j]) for j in prow if j != j0}
        old_counts[j0] = count
        for j in prow:
            col[j].discard(i0)
        for i in list(col[j0]):
            c = row[i][j0]
            _add_row(row, i0, i, -(c // p if c % p == 0 else Fraction(c, p)), col)
        del row[i0], col[j0]
        for j, n in old_counts.items():
            home = lead_buckets if j in first else buckets
            bucket = home[n]
            bucket.discard(j)
            if not bucket:
                del home[n]
            if j != j0:
                m = len(col[j])
                if m:
                    home.setdefault(m, set()).add(j)
                else:
                    del col[j]
        rank += 1
        lead_rank += pool is lead_buckets
    return rank if lead is None else (lead_rank, rank)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
class FgAbGroup:
    """Z^free_rank + Z/d_1 + ... + Z/d_k with 2 <= d_1 | d_2 | ... | d_k."""

    free_rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} not a divisor chain")

    @classmethod
    def from_diagonal(cls, diag, ambient_rank):
        """Z^ambient_rank modulo relations d_i * e_i (zeros and beyond = free)."""
        diag = [abs(d) for d in diag]
        nonzero = [d for d in diag if d]
        tors = tuple(d for d in nonzero if d >= 2)
        return cls(free_rank=ambient_rank - len(nonzero), torsion=tors)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other):
        """The sum in divisor-chain form: each factor d of other goes into
        the chain from its largest factor c down, by Z/c + Z/d = Z/lcm(c, d)
        + Z/gcd(c, d), and what is left of d above 1 becomes the smallest."""
        chain = list(self.torsion)
        for d in other.torsion:
            for i in range(len(chain) - 1, -1, -1):
                chain[i], d = lcm(chain[i], d), gcd(chain[i], d)
            if d > 1:
                chain.insert(0, d)
        return FgAbGroup(self.free_rank + other.free_rank, tuple(chain))

    def torsion_part(self):
        return FgAbGroup(0, self.torsion)

    def __str__(self):
        return render_summands([("ℤ", self.free_rank)], self.torsion)

    def to_json_obj(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def render_summands(ranked, torsion):
    """X^r for each (X, r) in ranked with r > 0 (X alone for r = 1, (X)^r
    for a name longer than one symbol), then Z/d for each d in torsion,
    joined by (+); "0" when there is none."""
    parts = [x if r == 1 else f"{x}^{r}" if len(x) == 1 else f"({x})^{r}"
             for x, r in ranked if r]
    parts.extend(f"ℤ/{d}" for d in torsion)
    return " ⊕ ".join(parts) if parts else "0"


@dataclass(frozen=True)
class StructuredCoefGroup:
    """Coefficient-extended cohomology value: (C/Z)^r + finite, or C^r.

    C is modeled by Q and C/Z by this structured decomposition; the ranks
    and torsion are all the paper's statements depend on, and they do not
    see the field extension Q -> C.
    """

    divisible_circle_rank: int = 0
    vector_rank: int = 0
    finite_part: FgAbGroup = FgAbGroup()

    def __post_init__(self):
        if self.finite_part.free_rank:
            raise ValueError("finite part must have free rank 0")
        if self.divisible_circle_rank and self.vector_rank:
            raise ValueError("C/Z and C summands cannot mix in one coefficient mode")

    def is_trivial(self):
        return (self.divisible_circle_rank == 0 and self.vector_rank == 0
                and self.finite_part.is_trivial())

    def __str__(self):
        return render_summands([("ℂ/ℤ", self.divisible_circle_rank), ("ℂ", self.vector_rank)],
                               self.finite_part.torsion)

    def to_json_obj(self):
        return {
            "divisible_circle_rank": self.divisible_circle_rank,
            "vector_rank": self.vector_rank,
            "finite_part": self.finite_part.to_json_obj(),
        }


# ---------------------------------------------------------------------------
# unit-pivot reduction of cochain complexes
#
# Eliminating an entry +-1 of d^t at (i, j) removes basis element j in degree
# t and i in degree t+1 without changing cohomology (Gaussian reduction of
# complexes): d^t picks up the Schur complement, d^{t-1} loses row j, d^{t+1}
# loses column i.  Bar-construction differentials collapse almost entirely
# under this, which is what keeps the truncated computations desk-scale.


class ReducedComplex:
    """Result of reduce_complex: ranks and differentials of the small core."""

    def __init__(self, ranks, diffs):
        self.ranks = ranks
        self.diffs = diffs  # diffs[t]: rank[t] -> rank[t+1]


def reduce_complex(ranks, diffs):
    """Unit-pivot reduction of a cochain complex given by matrices.

    ranks: list of module ranks, diffs[t]: IntMatrix of shape
    (ranks[t+1] x ranks[t]).  Returns a ReducedComplex with the same
    cohomology in every degree.  Only pivots of value +-1 are used, so all
    arithmetic stays integral.  The matrices are left as they are, except
    one from IntMatrix.handed_over, whose rows the reduction takes over
    instead of copying.

    Pivot rule: a first-in first-out worklist holds the rows and columns
    whose length has dropped to 1 (in any degree); a lone +-1 entry there
    has Markowitz cost 0, an elementary collapse with no fill, and is
    eliminated as it is popped.  A lone entry of any other value stays.
    Once the worklist is empty, per-degree sweeps take the fill-bearing unit
    pivots in order of Markowitz cost (row length - 1) * (column count - 1),
    from 1 up to _FILL_CAP, draining the worklist after each elimination,
    until a full round over the degrees takes nothing.  Unit pivots whose
    cost exceeds _FILL_CAP are never taken and are left in the reduced
    complex for rank_q and the Smith normal form.
    """
    n_mat = len(ranks) - 1
    rows, cols = [], []  # rows[t]: i -> {j: v} and cols[t]: j -> set of i, of diffs[t]
    for d in diffs:
        row_t, col_t = _rows_and_columns(d)
        rows.append(row_t)
        cols.append(col_t)
    alive = [set(range(r)) for r in ranks]
    queue = deque()  # (t, True, i): row i of diffs[t]; (t, False, j): column j
    for t in range(n_mat):
        queue.extend((t, True, i) for i, r in rows[t].items() if len(r) == 1)
        queue.extend((t, False, j) for j, c in cols[t].items() if len(c) == 1)

    def drop_row(t, i):
        """Row i of diffs[t] goes; a column left with one entry is queued."""
        r = rows[t].pop(i, None)
        if r:
            col_t = cols[t]
            for j in r:
                c = col_t[j]
                c.discard(i)
                if len(c) == 1:
                    queue.append((t, False, j))
                elif not c:
                    del col_t[j]

    def drop_col(t, j):
        """Column j of diffs[t] goes; a row left with one entry is queued."""
        c = cols[t].pop(j, None)
        if c:
            row_t = rows[t]
            for i in c:
                r = row_t[i]
                del r[j]
                if len(r) == 1:
                    queue.append((t, True, i))
                elif not r:
                    del row_t[i]

    def eliminate(t, i0, j0):
        row_t, col_t = rows[t], cols[t]
        prow, pcol = row_t[i0], col_t[j0]
        if len(prow) > 1 and len(pcol) > 1:
            # Schur complement: D -= c * p^{-1} * b   (p in {1,-1})
            p = prow[j0]
            for i in pcol:
                if i == i0:
                    continue
                r = row_t[i]
                f = r[j0] * p
                for j, b in prow.items():
                    if j == j0:
                        continue
                    v = r.get(j, 0) - f * b
                    if v:
                        if j not in r:
                            col_t[j].add(i)
                        r[j] = v
                    else:
                        del r[j]
                        col_t[j].discard(i)
        drop_row(t, i0)
        drop_col(t, j0)
        if t > 0:
            drop_row(t - 1, j0)  # basis element j0 of degree t died
        if t + 1 < n_mat:
            drop_col(t + 1, i0)  # basis element i0 of degree t+1 died
        alive[t].discard(j0)
        alive[t + 1].discard(i0)

    def drain():
        """Take the cost-0 unit pivots of the worklist until it is empty."""
        while queue:
            t, is_row, k = queue.popleft()
            if is_row:
                r = rows[t].get(k)
                if r is None or len(r) != 1:
                    continue  # stale: the row grew or went
                i0 = k
                (j0, v), = r.items()
            else:
                c = cols[t].get(k)
                if c is None or len(c) != 1:
                    continue
                j0 = k
                (i0,) = c
                v = rows[t][i0][j0]
            if v == 1 or v == -1:
                eliminate(t, i0, j0)

    def sweep(t):
        """Take the fill-bearing unit pivots of diffs[t] in order of cost."""
        row_t, col_t = rows[t], cols[t]
        cands = sorted(((len(r) - 1) * (len(col_t[j]) - 1), i, j)
                       for i, r in row_t.items()
                       for j, v in r.items() if v == 1 or v == -1)
        done = 0
        for _, i0, j0 in cands:
            r = row_t.get(i0)
            if r is None or r.get(j0) not in (1, -1):
                continue  # stale candidate
            cost = (len(r) - 1) * (len(col_t[j0]) - 1)
            if 0 < cost <= _FILL_CAP:
                eliminate(t, i0, j0)
                drain()
                done += 1
        return done

    drain()
    while sum(sweep(t) for t in range(n_mat)):
        pass

    # repack surviving indices densely
    index = [sorted(a) for a in alive]
    lookup = [{orig: k for k, orig in enumerate(idx)} for idx in index]
    new_ranks = [len(idx) for idx in index]
    new_diffs = []
    for t in range(n_mat):
        at_i, at_j = lookup[t + 1], lookup[t]
        new_diffs.append(IntMatrix._of(new_ranks[t + 1], new_ranks[t], {
            at_i[i]: {at_j[j]: v for j, v in r.items()} for i, r in rows[t].items()}))
    return ReducedComplex(new_ranks, new_diffs)


def cohomology_at(d_in: IntMatrix, d_out: IntMatrix) -> FgAbGroup:
    """ker(d_out)/im(d_in) in invariant-factor form.

    Shapes: d_in maps Z^a -> Z^n, d_out maps Z^n -> Z^b, so cols(d_out)
    == rows(d_in) == n.  Raises CompositionNotZero when d_out @ d_in != 0.

    The entry point for raw matrices: read as the complex Z^a -> Z^n ->
    Z^b, through IntCochainComplex.cohomology at its middle degree.  The
    complex checks d_out @ d_in = 0 when it is built, and its
    IllFormedDoubleComplex is raised here as CompositionNotZero.
    """
    from .complexes import IllFormedDoubleComplex, IntCochainComplex

    if d_out.cols != d_in.rows:
        raise ValueError(f"middle rank mismatch: d_out cols {d_out.cols}, d_in rows {d_in.rows}")
    try:
        cx = IntCochainComplex(0, [d_in.cols, d_in.rows, d_out.rows], [d_in, d_out])
    except IllFormedDoubleComplex as err:
        raise CompositionNotZero("d_out @ d_in != 0: not a complex at this spot") from err
    return cx.cohomology(1)


def coefficient_change(h_n: FgAbGroup, h_next: FgAbGroup) -> StructuredCoefGroup:
    """Universal coefficients with C/Z: H^n( . x C/Z) = (C/Z)^{free rank
    h_n} + torsion(h_next), since C/Z is divisible and Tor(Z/m, C/Z) = Z/m.
    h_n and h_next are the integral cohomology in consecutive degrees n, n+1
    of a complex of free Z-modules.
    """
    return StructuredCoefGroup(divisible_circle_rank=h_n.free_rank,
                               finite_part=h_next.torsion_part())


# ---------------------------------------------------------------------------
# rational dense matrices
#
# No CLI command reaches this block: ranks go through rank_q, integral
# solutions through solve_int, and finite symmetries act without inverses.
# Its one caller in the package is chern.invariant_connection_space; beyond
# it, the tests' oracles use it, and bench/tracer.py times these five names
# as linalg.dense_q.


def q_rref(m):
    """Reduced row echelon form; returns (rref, pivot columns)."""
    a = [row[:] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def q_rank(m):
    return len(q_rref(m)[1])


def q_nullspace(m):
    """Basis of {x : m x = 0}, as column vectors (lists)."""
    rref, pivots = q_rref(m)
    ncols = len(m[0]) if m else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -rref[r][fc]
        basis.append(x)
    return basis


def q_solve(m, b):
    """One rational solution of m x = b, or None."""
    nrows = len(m)
    aug = [m[i][:] + [Fraction(b[i])] for i in range(nrows)]
    rref, pivots = q_rref(aug)
    ncols = len(m[0]) if m else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][ncols]
    return x


def q_inverse(m):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(m)
    cols = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        col = q_solve(m, e)
        if col is None:
            return None
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]
