import ast
import json
import random
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

import pytest

from eqcohom import linalg
from eqcohom.linalg import (
    CompositionNotZero,
    FgAbGroup,
    IntMatrix,
    StructuredCoefGroup,
    coefficient_change,
    cohomology_at,
    kernel_basis,
    q_nullspace,
    q_rank,
    q_solve,
    rank_q,
    reduce_complex,
    smith_normal_form,
    solve_int,
)
from eqcohom.simplicial import CellComplex, FiniteGroup, GAction, bar_complex, bar_levels
from snf_oracle import smith_normal_form as swap_smith_normal_form
from test_acceptance import _acceptance_actions
from test_normalized_bar import full_bar_complex


# --- independent oracles -----------------------------------------------------


def det_int(rows):
    """Exact determinant by expansion (oracle use only, tiny matrices)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def gcd_all(values):
    g = 0
    for v in values:
        g = gcd2(g, abs(v))
    return g


def gcd2(a, b):
    while b:
        a, b = b, a % b
    return a


def snf_diagonal_oracle(m: IntMatrix):
    """Invariant factors via gcds of k x k minors: d_1...d_k = gcd(k-minors)."""
    rows = m.to_rows()
    n = min(m.rows, m.cols)
    minor_gcds = [1]
    for k in range(1, n + 1):
        vals = []
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                vals.append(det_int(sub))
        minor_gcds.append(gcd_all(vals))
    diag = []
    for k in range(1, n + 1):
        if minor_gcds[k] == 0:
            diag.append(0)
        else:
            diag.append(minor_gcds[k] // minor_gcds[k - 1])
    return diag


def rank_oracle(m: IntMatrix):
    """Dense fraction Gaussian elimination, independent of the sparse path."""
    a = [[Fraction(v) for v in row] for row in m.to_rows()]
    rank = 0
    for c in range(m.cols):
        pr = next((i for i in range(rank, m.rows) if a[i][c]), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        for i in range(m.rows):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def cohomology_oracle(d_in: IntMatrix, d_out: IntMatrix):
    free = d_in.rows - rank_oracle(d_out) - rank_oracle(d_in)
    tors = [d for d in snf_diagonal_oracle(d_in) if d >= 2]
    group = FgAbGroup(free)
    for d in tors:
        group = group.direct_sum(FgAbGroup(0, (d,)))
    return group


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols)


# --- Smith normal form -------------------------------------------------------


def test_snf_zero_matrix():
    snf = smith_normal_form(IntMatrix.from_rows([[0]]))
    assert snf.s == IntMatrix.from_rows([[0]])
    assert snf.left == IntMatrix.identity(1)
    assert snf.right == IntMatrix.identity(1)


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(3))
    assert snf.s == IntMatrix.identity(3)


def test_snf_worked_example():
    # d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = |det| = 8
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    snf = smith_normal_form(m)
    assert snf.s.diagonal() == [2, 4]
    assert snf.left @ m @ snf.right == snf.s


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        m = IntMatrix.zero(rows, cols)
        snf = smith_normal_form(m)
        assert snf.left @ m @ snf.right == snf.s == m
        assert snf.s.diagonal() == []


def test_snf_random_properties():
    rng = random.Random(20240817)
    for _ in range(120):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = random_matrix(rng, rows, cols)
        snf = smith_normal_form(m)
        assert snf.left @ m @ snf.right == snf.s
        assert abs(det_int(snf.left.to_rows())) == 1
        assert abs(det_int(snf.right.to_rows())) == 1
        diag = snf.s.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        # off-diagonal must vanish
        for (i, j), v in snf.s.entries.items():
            assert i == j and v


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(99)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -6, 6)
        assert smith_normal_form(m).s.diagonal() == snf_diagonal_oracle(m)


def test_snf_deterministic():
    rng = random.Random(7)
    m = random_matrix(rng, 5, 5)
    first = smith_normal_form(m)
    again = smith_normal_form(m)
    assert first.left == again.left and first.s == again.s and first.right == again.right


def det_bareiss(m: IntMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination on sparse
    rows: after step k each entry below row k is a (k + 1)-minor, so every
    division by the previous pivot is exact (oracle use, any size)."""
    n = m.rows
    rows = [m.row(i) for i in range(n)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i].get(k)), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for i in range(k + 1, n):
            r = rows[i]
            c = r.get(k, 0)
            new = {j: p * v for j, v in r.items() if j > k}
            if c:
                for j, v in top.items():
                    if j > k:
                        new[j] = new.get(j, 0) - c * v
            assert all(v % prev == 0 for v in new.values())
            rows[i] = {j: v // prev for j, v in new.items() if v}
        prev = p
    return sign * prev


def test_det_bareiss_matches_expansion():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(0, 5)
        m = matrix_with_zero_lines(rng, n, n)
        assert det_bareiss(m) == det_int(m.to_rows())


def test_snf_matches_the_swap_oracle():
    # the swap-based engine this one replaced gives the same invariant
    # factors, well past the 4 x 4 reach of the minor-gcd oracle: sparse
    # matrices up to 40 x 40 with zero, repeated and dependent rows and zero
    # columns, and the unreduced bar differentials into degrees 3 and 4
    rng = random.Random(2001)
    cases = [sparse_matrix(rng, rng.randint(1, 40), rng.randint(1, 40),
                           rng.choice([0.05, 0.15, 0.4])) for _ in range(50)]
    for name in ("cyclic:4", "cyclic:6", "symmetric:3"):
        act = GAction.trivial(FiniteGroup.named(name), CellComplex.point())
        cx = bar_complex(bar_levels(act, 4), 4)
        cases += [cx.differential(2), cx.differential(3)]  # C6: 125 x 25, 125 x 125
    torsion = set()
    for m in cases:
        snf = smith_normal_form(m)
        diag = snf.s.diagonal()
        assert diag == swap_smith_normal_form(m).s.diagonal(), m
        assert snf.left @ m @ snf.right == snf.s
        assert abs(det_bareiss(snf.left)) == 1 and abs(det_bareiss(snf.right)) == 1
        torsion.update(d for d in diag if d > 1)
    assert {2, 4, 6} <= torsion  # not only units


def matrix_with_zero_lines(rng, rows, cols):
    """A small random matrix, some of whose rows and columns are zero."""
    m = random_matrix(rng, rows, cols, -4, 4)
    dead_rows = {i for i in range(rows) if rng.random() < 0.2}
    dead_cols = {j for j in range(cols) if rng.random() < 0.2}
    return IntMatrix(rows, cols, {(i, j): v for (i, j), v in m.entries.items()
                                  if i not in dead_rows and j not in dead_cols})


def rank_and_divisor(m: IntMatrix):
    """Rank and last nonzero determinantal divisor (gcd of the r x r minors)."""
    factors = [d for d in snf_diagonal_oracle(m) if d]
    return len(factors), prod(factors)


def test_solve_int_exactly_when_minor_gcds_agree():
    # a x = b has an integer solution iff a and [a | b] have the same rank r
    # and the same gcd of r x r minors
    rng = random.Random(31)
    outcomes = set()
    for k in range(150):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        a = matrix_with_zero_lines(rng, rows, cols)
        if k % 3 == 0:
            b = a.apply([rng.randint(-3, 3) for _ in range(cols)])
        else:
            b = [rng.randint(-4, 4) for _ in range(rows)]
        augmented = IntMatrix.from_blocks(rows, cols + 1, [
            (0, 0, a, 1), (0, cols, IntMatrix.from_rows([[v] for v in b], cols=1), 1)])
        solvable = rank_and_divisor(a) == rank_and_divisor(augmented)
        x = solve_int(a, b)
        assert (x is not None) == solvable, (a.to_rows(), b)
        if x is not None:
            assert a.apply(x) == b
        outcomes.add(solvable)
    assert outcomes == {True, False}


def test_kernel_basis_is_saturated():
    # the kernel basis spans a pure sublattice: as the columns of a matrix
    # it has full column rank and every invariant factor 1
    rng = random.Random(57)
    for _ in range(80):
        a = matrix_with_zero_lines(rng, rng.randint(0, 4), rng.randint(0, 5))
        basis = kernel_basis(a)
        k = IntMatrix(a.cols, len(basis), {(i, j): v for j, col in enumerate(basis)
                                           for i, v in enumerate(col) if v})
        assert len(basis) == a.cols - rank_q(a)
        assert snf_diagonal_oracle(k) == [1] * len(basis), a.to_rows()


def test_kernel_and_solve():
    rng = random.Random(4)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -4, 4)
        for col in kernel_basis(m):
            assert all(v == 0 for v in m.apply(col))
        assert len(kernel_basis(m)) == m.cols - rank_q(m)
        x = [rng.randint(-3, 3) for _ in range(m.cols)]
        b = m.apply(x)
        y = solve_int(m, b)
        assert y is not None and m.apply(y) == b
    assert solve_int(IntMatrix.from_rows([[2]]), [1]) is None


def sparse_matrix(rng, rows, cols, density):
    """Sparse entries in -3..3 (non-unit pivots, so fractions), with some
    all-zero columns and rows, duplicated rows and rows dependent on two
    earlier ones, shuffled."""
    dead = set(rng.sample(range(cols), cols // 5))
    data = []
    for _ in range(rows):
        roll = rng.random()
        if data and roll < 0.15:
            data.append(list(rng.choice(data)))
        elif len(data) >= 2 and roll < 0.3:
            a, b = rng.sample(data, 2)
            c = rng.randint(-3, 3)
            data.append([x + c * y for x, y in zip(a, b)])
        elif roll < 0.4:
            data.append([0] * cols)
        else:
            data.append([rng.randint(-3, 3) if j not in dead and rng.random() < density else 0
                         for j in range(cols)])
    rng.shuffle(data)
    return IntMatrix.from_rows(data, cols=cols)


def test_rank_q_matches_dense_oracle():
    rng = random.Random(12)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert rank_q(m) == rank_oracle(m)
    for k in range(40):
        short, long = rng.randint(1, 40), rng.randint(20, 60)
        m = sparse_matrix(rng, short, long, rng.choice([0.05, 0.1, 0.2, 0.4]))
        if k % 2:
            m = m.transpose()  # tall: rank_q eliminates on the transpose
        assert rank_q(m) == rank_oracle(m), (m.rows, m.cols, k)


def test_rank_q_with_lead_columns_gives_their_rank_and_the_rank():
    # wide and tall, a few columns or most of them, and no column at all
    rng = random.Random(13)
    for k in range(60):
        rows, cols = rng.randint(1, 30), rng.randint(1, 30)
        m = sparse_matrix(rng, rows, cols, rng.choice([0.1, 0.2, 0.4]))
        lead = set(rng.sample(range(cols), rng.randint(0, cols)))
        dense = m.to_rows()
        sub = IntMatrix.from_rows([[row[j] for j in sorted(lead)] for row in dense],
                                  cols=len(lead))
        assert rank_q(m, lead) == (rank_oracle(sub), rank_oracle(m)), (rows, cols, k)


def test_a_matrix_keeps_its_factorizations():
    # wide and tall, zero and nonzero: the kept rank and Smith form are
    # those of the functions, a second read returns the kept object, and
    # keeping them changes neither the hash nor equality
    rng = random.Random(14)
    for k in range(40):
        short, long = rng.randint(1, 12), rng.randint(1, 20)
        m = sparse_matrix(rng, short, long, rng.choice([0.1, 0.3]))
        if k % 2:
            m = m.transpose()
        if k % 5 == 0:
            m = IntMatrix.zero(m.rows, m.cols)
        copy = IntMatrix(m.rows, m.cols, m.entries)
        before = (hash(m), m == copy)
        assert m.rank() == rank_q(m), (m.rows, m.cols, k)
        snf = m.smith()
        want = smith_normal_form(copy)
        assert (snf.left, snf.s, snf.right) == (want.left, want.s, want.right), k
        assert m.smith() is snf
        assert (hash(m), m == copy) == before == (hash(copy), True)


# --- matrices ----------------------------------------------------------------


def test_matrix_mul_and_serialization():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == IntMatrix.from_rows([[2, 1], [4, 3]])
    big = IntMatrix.from_rows([[10**30, -1], [0, 2]])
    obj = json.loads('{"rows": 2, "cols": 2, "entries": [["%d", "-1"], ["0", "2"]]}' % 10**30)
    assert IntMatrix.from_json_obj(obj) == big


def test_product_is_zero_agrees_with_the_product():
    # random products, products that cancel to zero entry by entry, and
    # products whose only nonzero entry is in the last row
    rng = random.Random(2718)
    seen = {"zero": 0, "nonzero": 0, "cancelled": 0, "last_row": 0}
    for _ in range(400):
        rows, mid, cols = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = random_matrix(rng, rows, mid, -2, 2)
        b = random_matrix(rng, mid, cols, -2, 2) if rng.random() < 0.5 else \
            IntMatrix.zero(mid, cols)
        kind = rng.randrange(3)
        if kind == 1 and mid >= 2 and cols:
            # b = [x ; -x ; 0] against a with two equal leading columns
            x = random_matrix(rng, 1, cols, -3, 3)
            b = IntMatrix.from_blocks(mid, cols, [(0, 0, x, 1), (1, 0, x, -1)])
            first = random_matrix(rng, rows, 1, -3, 3)
            a = IntMatrix.from_blocks(rows, mid, [(0, 0, first, 1), (0, 1, first, 1)])
            seen["cancelled"] += not (a.is_zero() or b.is_zero())
        elif kind == 2 and rows and mid and cols:
            # one nonzero entry, in the last row of the product
            a = IntMatrix(rows, mid, {(rows - 1, rng.randrange(mid)): rng.choice([-3, 2])})
            b = random_matrix(rng, mid, cols, -2, 2)
            seen["last_row"] += not (a @ b).is_zero()
        want = (a @ b).is_zero()
        assert a.product_is_zero(b) == want
        seen["zero" if want else "nonzero"] += 1
    assert all(seen.values()), seen
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1]]).product_is_zero(IntMatrix.from_rows([[1, 2], [3, 4]]))


def test_matrix_shape_guards():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1]]) @ IntMatrix.from_rows([[1, 2], [3, 4]])


def test_matrix_rejects_non_integral_entries():
    with pytest.raises(ValueError):
        IntMatrix(1, 1, {(0, 0): Fraction(3, 2)})
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[Fraction(1, 2), 1]])
    # integral values of other exact types are stored as ints
    m = IntMatrix.from_rows([[Fraction(4, 2), True, 0]])
    assert m.entries == {(0, 0): 2, (0, 1): 1}
    assert all(type(v) is int for v in m.entries.values())


def test_hstack():
    # [a | b], placed by from_blocks
    a = IntMatrix.from_rows([[1, 0], [0, 2]])
    b = IntMatrix.from_rows([[3], [4]])
    assert IntMatrix.from_blocks(2, 3, [(0, 0, a, 1), (0, 2, b, 1)]) == \
        IntMatrix.from_rows([[1, 0, 3], [0, 2, 4]])
    assert IntMatrix.from_blocks(2, 1, [(0, 0, IntMatrix.zero(2, 0), 1), (0, 0, b, 1)]) == b
    with pytest.raises(ValueError):
        IntMatrix.from_blocks(1, 3, [(0, 0, IntMatrix.from_rows([[1, 2]]), 1), (0, 2, b, 1)])


def _rows_are_clean(m: IntMatrix):
    """The row store holds no zero value and no empty row."""
    return all(r and 0 not in r.values() for r in m._store.values())


def test_from_blocks_matches_dense_oracle():
    rng = random.Random(1709)
    cancelled = zero_size = 0
    for _ in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        dense = [[0] * cols for _ in range(rows)]
        blocks = []
        for _ in range(rng.randint(0, 5)):
            h, w = rng.randint(0, rows), rng.randint(0, cols)
            r0, c0 = rng.randint(0, rows - h), rng.randint(0, cols - w)
            m = random_matrix(rng, h, w, -2, 2) if h and w else IntMatrix.zero(h, w)
            sign = rng.choice([1, -1])
            placed = [(r0, c0, m, sign)]
            if rng.random() < 0.3:
                placed.append((r0, c0, m, -sign))  # the pair cancels to 0
                cancelled += not m.is_zero()
            zero_size += not (h and w)
            for b in placed:
                blocks.append(b)
                for i, row in enumerate(b[2].to_rows()):
                    for j, v in enumerate(row):
                        dense[b[0] + i][b[1] + j] += b[3] * v
        got = IntMatrix.from_blocks(rows, cols, blocks)
        assert got.to_rows() == dense
        assert got == IntMatrix.from_rows(dense, cols=cols)
        assert _rows_are_clean(got)
    assert cancelled and zero_size


def test_from_blocks_rejects_blocks_outside_the_shape():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    for r0, c0 in [(1, 0), (0, 1), (-1, 0), (0, -1), (3, 3)]:
        with pytest.raises(ValueError):
            IntMatrix.from_blocks(2, 2, [(r0, c0, m, 1)])
    with pytest.raises(ValueError):
        IntMatrix.from_blocks(2, 2, [(0, 0, m, 2)])
    assert IntMatrix.from_blocks(2, 2, [(2, 2, IntMatrix.zero(0, 0), 1)]).is_zero()


def test_no_empty_row_is_stored_after_cancellation():
    a = IntMatrix.from_rows([[1, 1], [1, 0], [0, 0]])
    b = IntMatrix.from_rows([[1], [-1]])
    product = a @ b  # row 0 cancels, row 2 is zero
    assert product == IntMatrix.from_rows([[0], [1], [0]])
    assert product.row(0) == {} and product.row(1) == {0: 1}
    difference = a - a
    total = a + a.scale(-1)
    blocks = IntMatrix.from_blocks(3, 4, [(0, 0, a, 1), (0, 2, a, 1), (0, 2, a, -1)])
    for m in (product, difference, total, blocks, a.scale(0)):
        assert _rows_are_clean(m)
    assert difference.is_zero() and total.is_zero() and a.scale(0).is_zero()
    assert blocks == IntMatrix.from_rows([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])


def test_equality_hash_and_json_ignore_how_a_matrix_was_built():
    dense = [[1, 0, 2], [0, 0, 0], [3, -1, 0]]
    by_rows = IntMatrix.from_rows(dense)
    perm = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    by_product = (by_rows @ perm) @ perm.transpose()  # other column order per row
    bottom = IntMatrix.from_rows([[3, -1, 0]])
    top = IntMatrix.from_rows([[1, 0, 2]])
    by_blocks = IntMatrix.from_blocks(3, 3, [(2, 0, bottom, 1), (0, 0, top, 1),
                                             (0, 2, IntMatrix.from_rows([[5]]), 1),
                                             (0, 2, IntMatrix.from_rows([[5]]), -1)])
    for m in (by_product, by_blocks):
        assert m == by_rows
        assert hash(m) == hash(by_rows)
        assert m.to_rows() == dense
        assert m.entries == by_rows.entries == {(0, 0): 1, (0, 2): 2, (2, 0): 3, (2, 1): -1}
    assert len({by_rows, by_product, by_blocks}) == 1


def test_only_linalg_reads_the_matrix_layout():
    # every module but linalg goes through IntMatrix's constructors and
    # accessors; chern's ConnectionMatrix and CurvatureMatrix have their own
    # .entries, matrices of forms
    src = Path(linalg.__file__).resolve().parent
    readers = set()
    for path in sorted(src.glob("*.py")):
        if path.name in ("linalg.py", "chern.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("entries", "_store"):
                readers.add(f"{path.name}:{node.lineno}")
    assert not readers, sorted(readers)


# --- abelian groups ----------------------------------------------------------


def test_fg_ab_group_normalization():
    g = FgAbGroup(1, (2, 4))
    assert str(g) == "ℤ ⊕ ℤ/2 ⊕ ℤ/4"
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    assert FgAbGroup.from_diagonal([1, 1, 2, 6, 0], ambient_rank=6) == FgAbGroup(2, (2, 6))


def test_direct_sum_renormalizes():
    # Z/2 + Z/3 = Z/6 in invariant-factor form
    assert FgAbGroup(0, (2,)).direct_sum(FgAbGroup(0, (3,))) == FgAbGroup(0, (6,))
    assert FgAbGroup(1, (2,)).direct_sum(FgAbGroup(2, (2,))) == FgAbGroup(3, (2, 2))


def _random_divisor_chain(rng):
    chain = []
    for _ in range(rng.randint(0, 4)):
        chain.append((chain[-1] if chain else 1) * rng.choice([1, 2, 3, 4, 5, 6, 9, 12]))
    return tuple(d for d in chain if d >= 2)


def test_direct_sum_matches_smith_form_of_block_diagonal():
    # the invariant factors of Z/a_1 + ... + Z/b_1 + ... are the Smith form
    # of diag(a_1, ..., b_1, ...), taken by the swapping oracle
    rng = random.Random(29)
    for _ in range(300):
        a, b = _random_divisor_chain(rng), _random_divisor_chain(rng)
        free_a, free_b = rng.randint(0, 2), rng.randint(0, 2)
        orders = a + b
        diag = IntMatrix(len(orders), len(orders), {(i, i): d for i, d in enumerate(orders)})
        snf = swap_smith_normal_form(diag).s.diagonal()
        want = FgAbGroup(free_a + free_b, tuple(d for d in snf if d >= 2))
        assert FgAbGroup(free_a, a).direct_sum(FgAbGroup(free_b, b)) == want, (a, b)


# --- cohomology_at -----------------------------------------------------------


def test_cohomology_trivial_cases():
    z3 = IntMatrix.zero(3, 3)
    assert cohomology_at(IntMatrix.zero(3, 0), z3) == FgAbGroup(3)
    # x2 : Z -> Z followed by zero map gives Z/2
    assert cohomology_at(IntMatrix.from_rows([[2]]), IntMatrix.zero(0, 1)) == FgAbGroup(0, (2,))
    # injective outgoing multiplication-by-p kills everything
    assert cohomology_at(IntMatrix.zero(1, 0), IntMatrix.from_rows([[5]])) == FgAbGroup(0)


def test_cohomology_rejects_non_complex():
    with pytest.raises(CompositionNotZero):
        cohomology_at(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))


def test_cohomology_at_checks_each_complex_once(monkeypatch):
    # the complex it builds checks d_out @ d_in once, and so does the
    # reduced complex it reads: no third check before either
    calls = []
    real = IntMatrix.product_is_zero

    def counting(self, other):
        calls.append((self, other))
        return real(self, other)
    monkeypatch.setattr(IntMatrix, "product_is_zero", counting)
    assert cohomology_at(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[0]])) == \
        FgAbGroup(0, (2,))
    assert len(calls) == 2


def _random_complex_pair(rng, a, n, b):
    """Build d_in, d_out with d_out @ d_in == 0 via a factored middle map."""
    d_in = random_matrix(rng, n, a, -3, 3)
    # d_out rows orthogonal to im(d_in): use rational nullspace of d_in^T
    basis = q_nullspace([[Fraction(v) for v in row] for row in d_in.transpose().to_rows()])
    rows = []
    for _ in range(b):
        if basis:
            combo = [Fraction(0)] * n
            for vec in basis:
                c = rng.randint(-2, 2)
                combo = [x + c * y for x, y in zip(combo, vec)]
            denom = 1
            for v in combo:
                denom = denom * v.denominator // gcd2(denom, v.denominator)
            rows.append([int(v * denom) for v in combo])
        else:
            rows.append([0] * n)
    return d_in, IntMatrix.from_rows(rows, cols=n)


def test_cohomology_matches_bruteforce_oracle():
    rng = random.Random(2718)
    for _ in range(60):
        a, n, b = rng.randint(0, 4), rng.randint(1, 5), rng.randint(0, 4)
        d_in, d_out = _random_complex_pair(rng, a, n, b)
        assert cohomology_at(d_in, d_out) == cohomology_oracle(d_in, d_out)


def test_reduce_complex_preserves_cohomology():
    rng = random.Random(515)
    for _ in range(30):
        a, n, b = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
        d_in, d_out = _random_complex_pair(rng, a, n, b)
        red = reduce_complex([a, n, b], [d_in, d_out])
        assert (red.diffs[1] @ red.diffs[0]).is_zero()
        assert cohomology_at(d_in, d_out) == cohomology_oracle(red.diffs[0], red.diffs[1])


def _random_long_complex(rng, degrees):
    """A complex in degrees 0..degrees-1 with d^2 = 0 by construction, and
    its cohomology per degree.

    Each degree holds free cells (cohomology Z) and consecutive degrees share
    pairs e -> a f with a a unit or not (torsion Z/|a|).  A few elementary
    changes of basis mix the cells, E acting on the rows of d^{k-1} and E^{-1}
    on the columns of d^k; the cells they miss keep zero rows and columns,
    and a pair they miss keeps a lone entry a.
    """
    free = [rng.randint(0, 2) for _ in range(degrees)]
    pairs = [[rng.choice([1, -1, 1, -1, 2, -2, 3]) for _ in range(rng.randint(0, 2))]
             for _ in range(degrees - 1)]
    ranks = [free[k] + (len(pairs[k - 1]) if k else 0) + (len(pairs[k]) if k < degrees - 1 else 0)
             for k in range(degrees)]
    # cell order in degree k: targets of the pairs from k-1, free cells, sources of pairs to k+1
    dense = []
    for k, ps in enumerate(pairs):
        src0 = ranks[k] - len(ps)
        m = [[0] * ranks[k] for _ in range(ranks[k + 1])]
        for idx, a in enumerate(ps):
            m[idx][src0 + idx] = a
        dense.append(m)
    for k in range(degrees):
        for _ in range(rng.randint(0, ranks[k])):
            if ranks[k] < 2:
                break
            a, b = rng.sample(range(ranks[k]), 2)
            c = rng.choice([1, -1, 2])
            if k > 0:
                row_a, row_b = dense[k - 1][a], dense[k - 1][b]
                dense[k - 1][a] = [x + c * y for x, y in zip(row_a, row_b)]
            if k < degrees - 1:
                for row in dense[k]:
                    row[b] -= c * row[a]
    diffs = [IntMatrix.from_rows(m, cols=ranks[k]) for k, m in enumerate(dense)]
    expected = []
    for k in range(degrees):
        group = FgAbGroup(free[k])
        for a in (pairs[k - 1] if k else []):
            if abs(a) > 1:
                group = group.direct_sum(FgAbGroup(0, (abs(a),)))
        expected.append(group)
    return ranks, diffs, expected


def _around(ranks, diffs, k):
    """(d_in, d_out) of degree k, zero matrices at the ends."""
    d_in = diffs[k - 1] if k else IntMatrix.zero(ranks[0], 0)
    d_out = diffs[k] if k < len(diffs) else IntMatrix.zero(0, ranks[k])
    return d_in, d_out


def test_reduce_complex_long_random_complexes():
    rng = random.Random(8128)
    lone_non_units = zero_lines = 0
    for _ in range(40):
        ranks, diffs, expected = _random_long_complex(rng, rng.randint(4, 6))
        lone_non_units += sum(1 for d in diffs for (i, j), v in d.entries.items()
                              if abs(v) > 1 and sum(1 for (i2, _) in d.entries if i2 == i) == 1)
        zero_lines += sum(d.rows + d.cols - len({i for i, _ in d.entries})
                          - len({j for _, j in d.entries}) for d in diffs)
        red = reduce_complex(ranks, diffs)
        assert len(red.ranks) == len(ranks)
        for k in range(len(red.diffs) - 1):
            assert (red.diffs[k + 1] @ red.diffs[k]).is_zero()
        for k, want in enumerate(expected):
            assert cohomology_oracle(*_around(ranks, diffs, k)) == want
            assert cohomology_oracle(*_around(red.ranks, red.diffs, k)) == want
    assert lone_non_units and zero_lines  # the inputs exercise both


def test_reduce_complex_collapses_staircases_without_fill(monkeypatch):
    # d e_j = f_j + f_{j+1}: Z^k -> Z^{k+1} is injective and its transpose
    # surjective.  Each collapse leaves the next row (in the first) or the
    # next column (in the second) with a single entry, so the cost-0
    # worklist alone reduces both to their cohomology
    monkeypatch.setattr(linalg, "_FILL_CAP", 0)
    k = 12
    entries = {(j, j): 1 for j in range(k)}
    entries.update({(j + 1, j): 1 for j in range(k)})
    d = IntMatrix(k + 1, k, entries)
    red = reduce_complex([k, k + 1], [d])
    assert red.ranks == [0, 1]
    red = reduce_complex([k + 1, k], [d.transpose()])
    assert red.ranks == [1, 0]


class _RefWorkspace:
    """Mutable sparse matrix with row and column indexes, for the reference
    reduction; filled from the public entries view."""

    def __init__(self, m: IntMatrix):
        self.rows = m.rows
        self.cols = m.cols
        self.row = {}  # i -> {j: v}
        self.col = {}  # j -> set of i
        for (i, j), v in m.entries.items():
            self.row.setdefault(i, {})[j] = v
            self.col.setdefault(j, set()).add(i)

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

    def to_matrix(self):
        return IntMatrix(self.rows, self.cols,
                         {(i, j): v for i, r in self.row.items() for j, v in r.items()})


def _sweep_reference(ranks, diffs):
    """Reference unit-pivot reduction: per-degree sweeps that sort every unit
    candidate by Markowitz cost, first at cost 0 until nothing is left, then
    at costs up to _FILL_CAP, back to cost 0 after any progress."""
    n_deg = len(ranks)
    ws = [_RefWorkspace(d) for d in diffs]
    alive = [set(range(r)) for r in ranks]

    def eliminate(t, i0, j0):
        w = ws[t]
        p = w.get(i0, j0)
        prow = [(j, v) for j, v in w.row[i0].items() if j != j0]
        pcol = [(i, w.get(i, j0)) for i in w.col[j0] if i != i0]
        for i, c in pcol:
            f = c * p
            for j, bv in prow:
                w.set(i, j, w.get(i, j) - f * bv)
        for j, _ in prow:
            w.set(i0, j, 0)
        for i, _ in pcol:
            w.set(i, j0, 0)
        w.set(i0, j0, 0)
        if t > 0:
            for j in list(ws[t - 1].row.get(j0, {})):
                ws[t - 1].set(j0, j, 0)
        if t + 1 < n_deg - 1:
            for i in list(ws[t + 1].col.get(i0, set())):
                ws[t + 1].set(i, i0, 0)
        alive[t].discard(j0)
        alive[t + 1].discard(i0)

    def sweep(t, cap):
        w = ws[t]
        cands = sorted(((len(r) - 1) * (len(w.col[j]) - 1), i, j)
                       for i, r in w.row.items() for j, v in r.items() if v in (1, -1))
        done = 0
        for _, i0, j0 in cands:
            if w.get(i0, j0) not in (1, -1):
                continue
            if (len(w.row[i0]) - 1) * (len(w.col[j0]) - 1) > cap:
                continue
            eliminate(t, i0, j0)
            done += 1
        return done

    cap = 0
    while True:
        if sum(sweep(t, cap) for t in range(n_deg - 1)):
            cap = 0
        elif cap >= linalg._FILL_CAP:
            break
        else:
            cap = linalg._FILL_CAP
    index = [sorted(a) for a in alive]
    lookup = [{orig: k for k, orig in enumerate(idx)} for idx in index]
    new_ranks = [len(idx) for idx in index]
    new_diffs = [IntMatrix(new_ranks[t + 1], new_ranks[t],
                           {(lookup[t + 1][i], lookup[t][j]): v
                            for (i, j), v in ws[t].to_matrix().entries.items()})
                 for t in range(n_deg - 1)]
    return linalg.ReducedComplex(new_ranks, new_diffs)


def _bar_complexes_for_reference():
    # every row of every top degree (bar_complex keeps only the generator
    # rows of its top), so that the reduction orders are compared on the
    # same complexes as before
    for act in _acceptance_actions():
        for n in range(4):
            yield full_bar_complex(bar_levels(act, n + 1), n + 1)
    c6 = FiniteGroup.cyclic(6)
    sub = next(s for s in c6.subgroups() if len(s) == 3)
    yield full_bar_complex(bar_levels(GAction.coset_action(c6, sub), 5), 5)
    lens = GAction.lens_sphere(3)
    for n in range(5):
        yield full_bar_complex(bar_levels(lens, n + 1), n + 1)


def test_reduce_complex_no_worse_than_sweep_reference():
    # cohomology equal on every complex; cells and nonzeros no higher summed
    # over the set (the pivot orders differ, and a few complexes come out
    # slightly larger than under the reference while most come out smaller)
    cells = {"got": 0, "ref": 0}
    nnz = {"got": 0, "ref": 0}
    count = 0
    for cx in _bar_complexes_for_reference():
        got = reduce_complex(cx.ranks, cx.diffs)
        ref = _sweep_reference(cx.ranks, cx.diffs)
        for k in range(len(cx.ranks)):
            assert cohomology_at(*_around(got.ranks, got.diffs, k)) == \
                cohomology_at(*_around(ref.ranks, ref.diffs, k))
        for key, red in (("got", got), ("ref", ref)):
            cells[key] += sum(red.ranks)
            nnz[key] += sum(len(d.entries) for d in red.diffs)
        count += 1
    assert count == 86
    assert cells["got"] <= cells["ref"]
    assert nnz["got"] <= nnz["ref"]


# --- coefficient change ------------------------------------------------------


def test_coefficient_change_modes():
    # H^n = Z, H^{n+1} = Z/5 with C/Z coefficients: (C/Z) + Z/5
    out = coefficient_change(FgAbGroup(1), FgAbGroup(0, (5,)))
    assert out == StructuredCoefGroup(divisible_circle_rank=1, finite_part=FgAbGroup(0, (5,)))


def test_coefficient_change_rank_matches_rational_rank():
    # rank of H^n(C tensor Q) computed independently over Q on a 2-term complex
    rng = random.Random(31)
    for _ in range(25):
        a, n, b = rng.randint(0, 3), rng.randint(1, 4), rng.randint(0, 3)
        d_in, d_out = _random_complex_pair(rng, a, n, b)
        h = cohomology_at(d_in, d_out)
        q_dim = n - rank_oracle(d_out) - rank_oracle(d_in)
        assert coefficient_change(h, FgAbGroup(0)).divisible_circle_rank == q_dim


def test_universal_coefficient_two_term_oracle():
    # Z --x p--> Z: H^0 = 0, H^1 = Z/p; C/Z cochain complex has
    # H^0 = ker(p: C/Z -> C/Z) = Z/p computed by direct enumeration of 1/p Z.
    p = 7
    d = IntMatrix.from_rows([[p]])
    h0 = cohomology_at(IntMatrix.zero(1, 0), d)
    h1 = cohomology_at(d, IntMatrix.zero(0, 1))
    assert h0 == FgAbGroup(0)
    assert h1 == FgAbGroup(0, (p,))
    out = coefficient_change(h0, h1)
    assert out == StructuredCoefGroup(divisible_circle_rank=0, finite_part=FgAbGroup(0, (p,)))


# --- rational helpers --------------------------------------------------------


def test_q_helpers():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert q_rank(m) == 1
    null = q_nullspace(m)
    assert len(null) == 1 and null[0][0] * 2 + null[0][1] * 4 == 0
    assert q_solve(m, [Fraction(3), Fraction(6)]) is not None
    assert q_solve(m, [Fraction(3), Fraction(7)]) is None


def test_q_helpers_stay_exact_on_int_rows():
    # plain int rows must give Fractions, not floats: 1 / 3 is not exact
    null = q_nullspace([[3, 1]])
    assert null == [[Fraction(-1, 3), Fraction(1)]]
    assert all(type(v) is Fraction for v in null[0])
    assert q_solve([[3]], [1]) == [Fraction(1, 3)]
