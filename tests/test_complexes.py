import random
from fractions import Fraction

import pytest

from eqcohom import complexes, deligne, linalg
from eqcohom.linalg import FgAbGroup, IntMatrix
from eqcohom.complexes import (
    DoubleComplex,
    IllFormedDoubleComplex,
    IntCochainComplex,
    NotACocycle,
    bad_resolution_counterexample,
    bockstein_apply,
    bockstein_image,
    bockstein_image_matches_torsion,
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


def test_a_view_keeps_the_differentials_of_its_degrees():
    # upto(top) holds the same differential objects below top; its d^top is
    # a different matrix, a zero one, so it shares nothing with the
    # complex's d^top, and reading it leaves that one's rank and Smith form
    # as they are
    red = _s3_bar_complex().reduced()     # ranks 1, 1, 1, 1, ...; d^1 = (2)
    top = 1
    view = red.upto(top)
    assert red.upto(red.n_max) is red and red.upto(red.n_max + 3) is red
    assert (view.n_min, view.n_max, view.ranks) == (0, top, red.ranks[:top + 1])
    assert all(a is b for a, b in zip(view.diffs, red.diffs))
    assert view.reduced() is view
    d_view, d_red = view.differential(top), red.differential(top)
    assert d_view.rank() == 0 and not any(d_view.smith().s.diagonal())
    assert d_red.rank() == 1 and d_red.smith().s.diagonal() == [2]
    assert view.cohomology(1) == FgAbGroup(1) and red.cohomology(1) == FgAbGroup(0)
    assert [view.cohomology(0), view.cohomology_q_dim(0)] == \
        [red.cohomology(0), red.cohomology_q_dim(0)]


ONE, ZERO = IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[0]])


def _view_of_a_planted_square(monkeypatch):
    # a checked complex whose d^1 d^0 is then made nonzero: its view of
    # degrees 0..2 holds that pair and checks it, its one product
    cx = IntCochainComplex(0, [1, 1, 1, 1], [ZERO, ZERO, ZERO])
    cx.diffs[:2] = [ONE, ONE]
    calls = []
    real = IntMatrix.product_is_zero

    def counting(self, other):
        calls.append((self, other))
        return real(self, other)
    monkeypatch.setattr(IntMatrix, "product_is_zero", counting)
    try:
        cx.upto(2)
    finally:
        assert calls == [(ONE, ONE)]


def _reduction_with_a_planted_square(monkeypatch):
    def planted(ranks, diffs):
        return linalg.ReducedComplex([1, 1, 1], [ONE, ONE])
    monkeypatch.setattr(complexes, "reduce_complex", planted)
    IntCochainComplex(0, [1, 1, 1], [ZERO, ZERO]).reduced()


@pytest.mark.parametrize("build, error", [
    (lambda mp: IntCochainComplex(0, [1, 1, 1], [ONE, ONE]), IllFormedDoubleComplex),
    (_view_of_a_planted_square, IllFormedDoubleComplex),
    (lambda mp: linalg.cohomology_at(ONE, ONE), linalg.CompositionNotZero),
    # S S != 0 in the rational part
    (lambda mp: deligne.MixedComplex(IntCochainComplex(0, [0, 0, 0], [IntMatrix.zero(0, 0)] * 2),
                                     [1, 1, 1], [IntMatrix.zero(1, 0)] * 2, [ONE, ONE]),
     IllFormedDoubleComplex),
    # Q1 P0 + S1 Q0 = 2 + 0 in the whole cone, though P P = 0 and S S = 0
    (lambda mp: deligne.MixedComplex(IntCochainComplex(0, [1, 1, 0],
                                                       [IntMatrix.from_rows([[2]]),
                                                        IntMatrix.zero(0, 1)]),
                                     [1, 1, 1], [ONE, ONE], [ZERO, ZERO]),
     IllFormedDoubleComplex),
    (_reduction_with_a_planted_square, IllFormedDoubleComplex),
], ids=["constructor", "upto", "cohomology_at", "mixed-S-S", "mixed-Q-P-plus-S-Q", "reduced"])
def test_no_path_builds_a_complex_with_nonzero_d_squared(monkeypatch, build, error):
    with pytest.raises(error):
        build(monkeypatch)


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
