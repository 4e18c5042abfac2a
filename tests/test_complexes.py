import random
from fractions import Fraction

import pytest

from eqcohom import complexes, linalg
from eqcohom.linalg import FgAbGroup, IntMatrix, kernel_basis, q_rank
from eqcohom.complexes import (
    AxiomViolation,
    ComplexMap,
    DoubleComplex,
    DoubleComplexMap,
    IllFormedDoubleComplex,
    IntCochainComplex,
    NotACocycle,
    NotChainMap,
    SHCMorphism,
    SimplicialHomotopyCochainComplex,
    bad_resolution_counterexample,
    bockstein_apply,
    bockstein_image,
    bockstein_image_matches_torsion,
    cone,
    cone_homotopy,
    quasi_iso_by_rows,
    qz_torsion_cocycles,
    total_complex,
)
from eqcohom.simplicial import FiniteGroup, GAction, bar_complex, bar_levels


def two_term(m):
    mat = IntMatrix.from_rows(m) if isinstance(m, list) else m
    return IntCochainComplex(0, [mat.cols, mat.rows], [mat])


# --- cochain complexes -------------------------------------------------------


def test_complex_validation():
    with pytest.raises(IllFormedDoubleComplex):
        IntCochainComplex(0, [1, 1, 1],
                          [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])])
    cx = IntCochainComplex(0, [1, 1, 1],
                           [IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[0]])])
    assert cx.cohomology(0) == FgAbGroup(0)
    assert cx.cohomology(1) == FgAbGroup(0, (2,))
    assert cx.cohomology(2) == FgAbGroup(1)
    assert cx.cohomology(5) == FgAbGroup(0)


# --- double complexes and totalization ---------------------------------------


def square_double_complex():
    """2x2 square of Z with identity maps and commuting squares."""
    one = IntMatrix.identity(1)
    ranks = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    horiz = {(0, 0): one, (1, 0): one}
    vert = {(0, 0): one, (0, 1): one}
    return DoubleComplex(1, 1, ranks, horiz, vert)


def _s3_bar_complex():
    """An unreduced complex with unit pivots to take and torsion left over:
    the normalized bar complex of S3 on S3/<(0 1)> in degrees 0..4."""
    s3 = FiniteGroup.symmetric(3)
    return bar_complex(bar_levels(GAction.coset_action(s3, (0, 1)), 4), 4)


def _counting_reductions(monkeypatch):
    calls = []
    real = complexes.reduce_complex

    def counting(ranks, diffs):
        calls.append(list(ranks))
        return real(ranks, diffs)
    monkeypatch.setattr(complexes, "reduce_complex", counting)
    monkeypatch.setattr(linalg, "reduce_complex", counting)
    return calls


def test_reading_every_degree_reduces_the_complex_once(monkeypatch):
    calls = _counting_reductions(monkeypatch)
    cx = _s3_bar_complex()
    groups = [cx.cohomology(n) for n in range(-1, cx.n_max + 2)]
    dims = [cx.cohomology_q_dim(n) for n in range(-1, cx.n_max + 2)]
    assert calls == [cx.ranks]
    assert [g.free_rank for g in groups] == dims
    assert any(g.torsion for g in groups)


def test_a_reduced_complex_is_its_own_reduction():
    cx = _s3_bar_complex()
    red = cx.reduced()
    assert red is cx.reduced()
    assert red.reduced() is red
    assert sum(red.ranks) < sum(cx.ranks)


def test_cohomology_of_a_reduced_complex_reduces_and_rechecks_nothing(monkeypatch):
    cx = _s3_bar_complex()
    red = cx.reduced()
    want = [cx.cohomology(n) for n in range(cx.n_max + 1)]

    def refuse(*args):
        raise AssertionError("reduced or re-checked a complex that was already reduced")
    monkeypatch.setattr(complexes, "reduce_complex", refuse)
    monkeypatch.setattr(linalg, "reduce_complex", refuse)
    monkeypatch.setattr(IntMatrix, "product_is_zero", refuse)
    assert [red.cohomology(n) for n in range(red.n_max + 1)] == want
    assert [red.cohomology_q_dim(n) for n in range(red.n_max + 1)] == \
        [g.free_rank for g in want]


def test_total_of_single_row_is_the_row():
    d = IntMatrix.from_rows([[2]])
    dc = DoubleComplex(0, 1, {(0, 0): 1, (0, 1): 1}, {(0, 0): d}, {})
    tot = total_complex(dc)
    assert tot.ranks == [1, 1]
    assert tot.differential(0) == d


def test_total_of_identity_square_is_acyclic():
    tot = total_complex(square_double_complex())
    # brute force kernel/image over Z at each degree
    for n in range(0, 3):
        assert tot.cohomology(n).is_trivial()
    # degree-1 module is Z^2, differential [[-1],[1parts]] etc.
    assert tot.ranks == [1, 2, 1]


def test_double_complex_validation_catches_noncommuting():
    one = IntMatrix.identity(1)
    two = IntMatrix.from_rows([[2]])
    ranks = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    with pytest.raises(IllFormedDoubleComplex):
        DoubleComplex(1, 1, ranks, {(0, 0): one, (1, 0): two}, {(0, 0): one, (0, 1): one})


def test_total_square_zero_random():
    rng = random.Random(88)
    for _ in range(20):
        # random commuting squares: horizontal d from a chain complex tensor trick
        a = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        ranks = {(p, q): 2 for p in range(2) for q in range(2)}
        horiz = {(p, 0): a for p in range(2)}
        ident = IntMatrix.identity(2)
        vert = {(0, q): ident for q in range(2)}
        if not (a @ a).is_zero():
            continue
        dc = DoubleComplex(1, 1, ranks, horiz, vert)
        tot = total_complex(dc)
        for k in range(len(tot.diffs) - 1):
            assert (tot.diffs[k + 1] @ tot.diffs[k]).is_zero()


# --- cones --------------------------------------------------------------------


def test_cone_of_identity_is_acyclic():
    rng = random.Random(5)
    d = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)])
    cx = two_term(d)
    ident = {0: IntMatrix.identity(3), 1: IntMatrix.identity(2)}
    c = cone(ComplexMap(cx, cx, ident))
    for n in range(c.n_min, c.n_max + 1):
        assert c.cohomology(n).is_trivial()


def test_cone_of_multiplication_by_two():
    z = IntCochainComplex(0, [1], [])
    w = ComplexMap(z, z, {0: IntMatrix.from_rows([[2]])})
    c = cone(w)
    assert c.cohomology(0) == FgAbGroup(0, (2,))
    assert c.cohomology(-1) == FgAbGroup(0)


def test_cone_rejects_non_chain_map():
    cx = two_term([[2]])
    with pytest.raises(NotChainMap):
        ComplexMap(cx, cx, {0: IntMatrix.from_rows([[1]]), 1: IntMatrix.from_rows([[2]])})


def _h_dims(cx):
    return {n: cx.cohomology_q_dim(n) for n in range(cx.n_min, cx.n_max + 1)}


def _induced_image_dim(w, n):
    """dim over Q of the image of H^n(w)."""
    src, tgt = w.source, w.target
    ker = kernel_basis(src.differential(n))
    cols = [w.component(n).apply(c) for c in ker]
    d_t = tgt.differential(n - 1)
    joined = [[Fraction(cols[j][i]) for j in range(len(cols))] +
              [Fraction(d_t.entries.get((i, j2), 0)) for j2 in range(d_t.cols)]
              for i in range(tgt.rank(n))]
    rel = [[Fraction(d_t.entries.get((i, j2), 0)) for j2 in range(d_t.cols)]
           for i in range(tgt.rank(n))]
    return q_rank(joined) - q_rank(rel)


def test_cone_long_exact_sequence_rank_bookkeeping():
    # H^n(cone) over Q has dim coker(H^n w) + dim ker(H^{n+1} w)
    rng = random.Random(314)
    for _ in range(15):
        d = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        while not (d @ d).is_zero():
            d = IntMatrix.from_rows([[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        cx = IntCochainComplex(0, [3, 3, 3], [d, d])
        k = rng.randint(-2, 2)

        h_mats = {n: IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]) for n in (1, 2)}

        def h(n):  # homotopy component C^n -> C^{n-1}
            return h_mats.get(n, IntMatrix.zero(cx.rank(n - 1), cx.rank(n)))

        comps = {}
        for n in range(0, 3):
            m = IntMatrix.identity(3).scale(k)
            m = m + (cx.differential(n - 1) @ h(n))
            m = m + (h(n + 1) @ cx.differential(n))
            comps[n] = m
        w = ComplexMap(cx, cx, comps)
        c = cone(w)
        for n in range(-1, 3):
            dim_cone = c.cohomology_q_dim(n)
            h_s = _h_dims(cx)
            im_n = _induced_image_dim(w, n) if 0 <= n <= 2 else 0
            im_n1 = _induced_image_dim(w, n + 1) if 0 <= n + 1 <= 2 else 0
            coker = h_s.get(n, 0) - im_n
            ker = h_s.get(n + 1, 0) - im_n1
            assert dim_cone == coker + ker


# --- simplicial homotopy cochain complexes -----------------------------------


def constant_shc(p_max, w_ranks, f_blocks, s_odd, rng=None):
    """Constant cosimplicial module: all cofaces/codegeneracies identity.

    w_ranks: dict grade -> rank of W^q.  f_blocks: dict grade -> IntMatrix
    W^q -> W^{q+1} with f^2 = 0.  s_odd: dict (p, i, q) -> IntMatrix giving
    individual homotopies; aggregate must vanish on even levels.
    """
    grades = sorted(w_ranks)
    ranks = {(p, q): w_ranks[q] for p in range(p_max + 1) for q in grades}
    cofaces = {}
    codegens = {}
    for p in range(p_max):
        for i in range(p + 2):
            cofaces[(p, i)] = {q: IntMatrix.identity(w_ranks[q]) for q in grades}
        for i in range(p + 1):
            codegens[(p, i)] = {q: IntMatrix.identity(w_ranks[q]) for q in grades}
    f = {}
    for p in range(p_max + 1):
        for q, blk in f_blocks.items():
            f[(p, q)] = blk
    s = {}
    for (p, i, q), m in s_odd.items():
        s.setdefault((p, i), {})[q] = m
    return SimplicialHomotopyCochainComplex(p_max, grades, ranks, cofaces, codegens, f, s)


def sample_shc(rng):
    """Valid instance with nonzero aggregate s on odd levels and nilpotent f."""
    w_ranks = {0: 2, 1: 2, 2: 2, 3: 2, 4: 2}
    nil = IntMatrix.from_rows([[0, 1], [0, 0]])
    f_blocks = {q: nil for q in range(4)}

    def commutant_block(a):
        # sf = fs forces blocks [[a, b], [0, a]] with a shared across grades
        return IntMatrix.from_rows([[a, rng.randint(-2, 2)], [0, a]])

    a1, a2, a3 = (rng.randint(-2, 2) for _ in range(3))
    s_odd = {}
    # level 1: one homotopy, free; level 2: two homotopies with zero sum;
    # level 3: one free block (aggregate s vanishes on even levels)
    for q in (0, 1, 2):
        s_odd[(1, 0, q)] = commutant_block(a1)
        same = commutant_block(a2)
        s_odd[(2, 0, q)] = same
        s_odd[(2, 1, q)] = same
        s_odd[(3, 0, q)] = commutant_block(a3)
        s_odd[(3, 1, q)] = IntMatrix.zero(2, 2)
        s_odd[(3, 2, q)] = IntMatrix.zero(2, 2)
    return constant_shc(3, w_ranks, f_blocks, s_odd)


def _conjugate_shc(shc, rng):
    """Transport all structure maps through random unimodular changes of basis."""
    from eqcohom.linalg import solve_int

    def random_unimodular(n):
        m = IntMatrix.identity(n)
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.randint(-2, 2)
            entries = dict(m.entries)
            for (r, cix), v in m.entries.items():  # col_i += c * col_j
                if cix == j:
                    entries[(r, i)] = entries.get((r, i), 0) + c * v
            m = IntMatrix(n, n, entries)
        return m

    def inverse(m):
        # det is +-1, so solving m x = e_i columnwise stays integral
        cols = []
        for i in range(m.rows):
            e = [0] * m.rows
            e[i] = 1
            cols.append(solve_int(m, e))
        return IntMatrix.from_rows([[cols[j][i] for j in range(m.rows)]
                                    for i in range(m.rows)], cols=m.rows)

    a = {}
    a_inv = {}
    for (p, q), r in shc.ranks.items():
        m = random_unimodular(r)
        a[(p, q)] = m
        a_inv[(p, q)] = inverse(m)

    def conj(m, p_src, q_src, p_tgt, q_tgt):
        left = a.get((p_tgt, q_tgt), IntMatrix.identity(m.rows))
        right = a_inv.get((p_src, q_src), IntMatrix.identity(m.cols))
        return left @ m @ right

    cofaces = {}
    codegens = {}
    for (p, i), per_q in shc.cofaces.items():
        cofaces[(p, i)] = {q: conj(m, p, q, p + 1, q) for q, m in per_q.items()}
    for (p, i), per_q in shc.codegens.items():
        codegens[(p, i)] = {q: conj(m, p + 1, q, p, q) for q, m in per_q.items()}
    f = {(p, q): conj(m, p, q, p, q + 1) for (p, q), m in shc.f.items()}
    s = {}
    for (p, i), per_q in shc.s.items():
        s[(p, i)] = {q: conj(m, p, q, p - 1, q + 2) for q, m in per_q.items()}
    return SimplicialHomotopyCochainComplex(shc.p_max, shc.grades, shc.ranks,
                                            cofaces, codegens, f, s)


def test_shc_axioms_and_total_square_zero():
    rng = random.Random(1234)
    for _ in range(5):
        shc = sample_shc(rng)
        assert any(not shc.s_map(p, q).is_zero()
                   for p in range(shc.p_max + 1) for q in shc.grades)
        tot = shc.total()  # validates square-zero internally
        assert tot.ranks[0] == 2


def test_shc_conjugated_instances_stay_valid():
    rng = random.Random(77)
    shc = _conjugate_shc(sample_shc(rng), rng)
    shc.total()


def test_shc_axiom_violation_reported():
    rng = random.Random(9)
    shc = sample_shc(rng)
    bad_s = {k: dict(v) for k, v in shc.s.items()}
    bad_s[(2, 0)] = {0: IntMatrix.from_rows([[1, 0], [0, 1]])}
    with pytest.raises(AxiomViolation):
        SimplicialHomotopyCochainComplex(shc.p_max, shc.grades, shc.ranks,
                                         shc.cofaces, shc.codegens, shc.f, bad_s)


def test_homotopy_total_matches_double_total_when_s_zero():
    # with s = 0 and f^2 = 0 the homotopy total agrees with the double-complex
    # total after the standard sign change x |-> (-1)^{pq} x
    rng = random.Random(11)
    w_ranks = {0: 2, 1: 2, 2: 2}
    nil = IntMatrix.from_rows([[0, 1], [0, 0]])
    shc = constant_shc(2, w_ranks, {0: nil, 1: nil}, {})
    tot_h = shc.total()
    ranks = {(p, q): 2 for p in range(3) for q in range(3)}
    horiz = {(p, q): nil for p in range(3) for q in range(2)}
    vert = {}
    for p in range(2):
        for q in range(3):
            ident = IntMatrix.identity(2)
            vert[(p, q)] = ident if p % 2 else IntMatrix.zero(2, 2)
    # constant cosimplicial module: alternating sum of p+2 identity cofaces
    # is 0 for even p and id for odd p
    dc = DoubleComplex(2, 2, ranks, horiz, vert)
    tot_d = total_complex(dc)
    assert tot_h.ranks == tot_d.ranks
    for n in range(len(tot_h.diffs)):
        lay = [(p, n - p) for p in range(3) if 0 <= n - p <= 2]
        lay_next = [(p, n + 1 - p) for p in range(3) if 0 <= n + 1 - p <= 2]
        sign_src = []
        for (p, q) in lay:
            sign_src.extend([(-1) ** (p * q)] * 2)
        sign_tgt = []
        for (p, q) in lay_next:
            sign_tgt.extend([(-1) ** (p * q)] * 2)
        d_h = tot_h.diffs[n]
        d_d = tot_d.diffs[n]
        conj = {}
        for (i, j), v in d_d.entries.items():
            conj[(i, j)] = sign_tgt[i] * v * sign_src[j]
        assert d_h == IntMatrix(d_d.rows, d_d.cols, conj)


def test_cone_of_shc_morphism_satisfies_invariants():
    rng = random.Random(21)
    shc = sample_shc(rng)
    comps = {(p, q): IntMatrix.identity(2).scale(3)
             for p in range(shc.p_max + 1) for q in shc.grades}
    w = SHCMorphism(shc, shc, comps)
    c = cone_homotopy(w)  # validates the homotopy-complex axioms on construction
    assert isinstance(c, SimplicialHomotopyCochainComplex)
    c.total()
    assert cone(w).ranks  # dispatch through cone() also works


# --- Bockstein ----------------------------------------------------------------


def periodic_complex(p, length=6):
    """Z --0--> Z --p--> Z --0--> Z --p--> ...

    This is the cochain complex of the standard periodic resolution of the
    cyclic group of order p (degrees 0..length-1).
    """
    mats = []
    for k in range(length - 1):
        mats.append(IntMatrix.from_rows([[0 if k % 2 == 0 else p]]))
    return IntCochainComplex(0, [1] * length, mats)


def test_bockstein_on_torsion_free_is_zero():
    cx = IntCochainComplex(0, [1, 1], [IntMatrix.from_rows([[0]])])
    assert qz_torsion_cocycles(cx, 1) == []
    assert bockstein_image(cx, 1) == FgAbGroup(0)


def test_bockstein_periodic_resolution():
    p = 5
    cx = periodic_complex(p)
    assert cx.cohomology(2) == FgAbGroup(0, (p,))
    gens = qz_torsion_cocycles(cx, 2)
    assert len(gens) == 1
    rep, order = gens[0]
    assert order == p and rep == [Fraction(1, p)]
    z = bockstein_apply(cx, 2, rep)
    assert z in ([1], [-1])  # the lift 1/p maps under d to +-1, then negated
    ok, image, torsion = bockstein_image_matches_torsion(cx, 2)
    assert ok and image == FgAbGroup(0, (p,)) == torsion


def test_bockstein_rejects_non_cocycle():
    cx = periodic_complex(4)
    with pytest.raises(NotACocycle):
        bockstein_apply(cx, 2, [Fraction(1, 3)])  # 4 * 1/3 not integral


def test_bockstein_image_matches_torsion_random():
    rng = random.Random(606)
    for _ in range(20):
        d1 = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        cx = IntCochainComplex(0, [3, 3], [d1])
        ok, image, torsion = bockstein_image_matches_torsion(cx, 1)
        assert ok, (image, torsion, d1.to_rows())


# --- the broken-resolution counterexample ------------------------------------


def test_bad_resolution_counterexample_default():
    rep = bad_resolution_counterexample()
    assert rep.is_counterexample
    assert rep.witness_in == (0, 1)
    assert rep.witness_out == (0, 2)  # i + conj-twisted sum doubles the imaginary part
    assert rep.witness_real_projection == 0
    assert rep.honest_composite_is_zero


def test_bad_resolution_all_honest_lifts():
    rep = bad_resolution_counterexample([["id", "id"], ["id", "id", "id"]])
    assert not rep.is_counterexample
    assert rep.composite.is_zero()


# --- quasi-isomorphism two-pass check ----------------------------------------


def test_quasi_iso_identity_map():
    dc = square_double_complex()
    comps = {(p, q): IntMatrix.identity(1) for p in range(2) for q in range(2)}
    v = quasi_iso_by_rows(DoubleComplexMap(dc, dc, comps))
    assert v.rowwise and v.total


def test_quasi_iso_designed_failure():
    # target has a row with nonzero row-cohomology; the zero map fails rowwise
    one = IntMatrix.identity(1)
    tgt = DoubleComplex(0, 1, {(0, 0): 1, (0, 1): 1}, {(0, 0): IntMatrix.zero(1, 1)}, {})
    src = DoubleComplex(0, 1, {(0, 0): 0, (0, 1): 0}, {}, {})
    del one
    zero_map = DoubleComplexMap(src, tgt, {})
    v = quasi_iso_by_rows(zero_map, direction="horizontal")
    assert not v.rowwise and not v.total
