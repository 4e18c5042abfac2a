"""The normalized bar complex against the full one, and its properties.

bar_complex builds the normalized bar total complex, on tuples without the
identity.  The total complex of cellular_double_complex, on all tuples, is
its oracle: the two are chain homotopy equivalent over Z, so they agree on
H^n over Z and Q below their common truncation degree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from eqcohom import simplicial
from eqcohom.complexes import IntCochainComplex, total_complex
from eqcohom.linalg import FgAbGroup, IntMatrix
from eqcohom.simplicial import (
    CellComplex,
    FiniteGroup,
    GAction,
    bar_complex,
    bar_levels,
    cellular_double_complex,
    equivariant_cohomology,
    total_window,
)
from test_acceptance import _acceptance_actions


def assert_same_cohomology(act, n_max):
    """H^n over Z and Q agree for n <= n_max on the normalized and the full
    bar total complexes in degrees 0..n_max + 1."""
    bl = bar_levels(act, n_max + 1)
    normalized = bar_complex(bl, n_max + 1)
    full = total_complex(cellular_double_complex(bl))
    for n in range(n_max + 1):
        assert normalized.cohomology(n) == full.cohomology(n), (act.name, n)
        assert normalized.cohomology_q_dim(n) == full.cohomology_q_dim(n), (act.name, n)


def test_normalized_matches_full_on_acceptance_actions():
    for act in _acceptance_actions():
        assert_same_cohomology(act, 3)


def test_normalized_matches_full_on_lens_sphere():
    assert_same_cohomology(GAction.lens_sphere(3), 4)


def test_normalized_cells_and_vertical_map_restrict_the_full_ones():
    # level p keeps the (|G|-1)^p tuples without the identity, and the
    # normalized dV is the full dV on those rows and columns
    for act in (GAction.coset_action(FiniteGroup.symmetric(3), (0, 1)),
                GAction.lens_sphere(3),
                GAction.trivial(FiniteGroup.cyclic(4), CellComplex.circle(2))):
        bl = bar_levels(act, 3)
        m, e = act.group.order, act.group.identity
        for p in range(4):
            tuples = [t for t in range(m ** p)
                      if all((t // m ** k) % m != e for k in range(p))]
            assert bl.nondegenerate_tuples(p) == tuples
            for q in range(act.space.dim + 1):
                nq = act.space.ncells(q)
                assert bl.normalized_cells(p, q) == (m - 1) ** p * nq
                if p == 3:
                    continue
                upper = bl.nondegenerate_tuples(p + 1)
                full = bl.full_vertical_matrix(p, q).to_rows()
                keep_rows = [t * nq + c for t in upper for c in range(nq)]
                keep_cols = [t * nq + c for t in tuples for c in range(nq)]
                want = [[full[i][j] for j in keep_cols] for i in keep_rows]
                assert bl.vertical_matrix(p, q) == IntMatrix.from_rows(want, cols=len(keep_cols))


def test_trivial_group_normalized_complex_is_the_space():
    # the trivial group has no nondegenerate tuple above level 0
    act = GAction.trivial(FiniteGroup.cyclic(1), CellComplex.circle(2))
    cx = bar_complex(bar_levels(act, 3), 3)
    assert cx.ranks == [2, 2, 0, 0]
    assert cx.diffs[0] == CellComplex.circle(2).coboundary(0)


# --- the certified top degree --------------------------------------------------------


def full_bar_complex(bl, top):
    """Every row of every degree 0..top, from total_window: the oracle for
    bar_complex's top degree, built without its row selection."""
    ranks, diffs = total_window(bl, 0, top)
    return IntCochainComplex(0, [ranks[k] for k in range(top + 1)],
                             [diffs[k] for k in range(top)])


@pytest.mark.parametrize("top", range(1, 6))
def test_certified_top_keeps_every_lower_degree(top):
    # below its top degree, bar_complex has the full complex's H^k over Z and
    # Q; at n = top - 1 >= 1 the top of each acceptance action holds the
    # rows of the tuples that start with a generator, |S| of every |G| - 1,
    # and where H^{top-1}(Q) != 0 (at top = 1 for each of these actions, and
    # the lens sphere at top = 4) it holds every row
    for act in _acceptance_actions() + [GAction.lens_sphere(3)]:
        bl = bar_levels(act, top)
        cx, full = bar_complex(bl, top), full_bar_complex(bl, top)
        for k in range(top):
            assert cx.cohomology(k) == full.cohomology(k), (act.name, top, k)
            assert cx.cohomology_q_dim(k) == full.cohomology_q_dim(k), (act.name, top, k)
        assert cx.ranks[:top] == full.ranks[:top]
        if act.space.dim == 0 and top >= 2:
            kept, rows = len(act.group.generators()), act.group.order - 1
            assert cx.ranks[top] * rows == full.ranks[top] * kept, (act.name, top)
        if full.cohomology_q_dim(top - 1):
            assert cx.ranks[top] == full.ranks[top], (act.name, top)


def test_failed_certificate_falls_back_to_every_row(monkeypatch):
    # with a set that does not generate S3 the partial complex is wrong (on
    # S3/<(1 2)> at top = 1 its H^0 is Z^2, though the quotient is a point)
    # and its H^{top-1}(Q) is not 0: bar_complex builds the top again, with
    # every row, and gives the full complex's answers
    tops = []
    real_top = simplicial._top_degree

    def recording_top(bl, top, firsts):
        tops.append(firsts)
        return real_top(bl, top, firsts)
    monkeypatch.setattr(FiniteGroup, "generators", lambda self: (1,))
    monkeypatch.setattr(simplicial, "_top_degree", recording_top)
    s3 = FiniteGroup.symmetric(3)
    for act in (GAction.coset_action(s3, (0, 1)), GAction.trivial(s3, CellComplex.point())):
        for top in range(1, 5):
            tops.clear()
            bl = bar_levels(act, top)
            cx, full = bar_complex(bl, top), full_bar_complex(bl, top)
            for k in range(top):
                assert cx.cohomology(k) == full.cohomology(k), (act.name, top, k)
            assert tops == [(1,), None], (act.name, top)
            assert cx == full, (act.name, top)


def test_generators_are_chosen_greedily():
    assert FiniteGroup.cyclic(1).generators() == ()
    assert FiniteGroup.cyclic(6).generators() == (1,)
    s3 = FiniteGroup.symmetric(3)
    assert s3.generators() == (1, 2)     # two transpositions
    assert s3.generators() is s3.generators()
    assert FiniteGroup.quaternion8().generators() == (1, 2, 4)   # -1, i, j


# --- properties over random small actions ------------------------------------------


GROUPS = ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
          "symmetric:3", "dihedral:2"]


def disjoint_union(group, subgroups):
    """G acting on the disjoint union of the coset spaces G/H, H in subgroups."""
    perms = {g: [] for g in group.elements()}
    for sub in subgroups:
        part = GAction.coset_action(group, sub)
        offset = len(perms[group.identity])
        for g in group.elements():
            perms[g] += [offset + c for c in part.perms[g][0]]
    return GAction.points_action(group, len(perms[group.identity]), perms)


@st.composite
def orbit_actions(draw, min_orbits=1):
    """A named group of order <= 6 and 1..3 orbits G/H, as the list of H."""
    group = FiniteGroup.named(draw(st.sampled_from(GROUPS)))
    orbits = draw(st.lists(st.sampled_from(group.subgroups()), min_size=min_orbits, max_size=3))
    return group, orbits


@st.composite
def circle_actions(draw):
    """circle:k for k <= 4 under a trivial action of a named group, the
    rotations of a cyclic group of order dividing k, or (k <= 3) the
    dihedral group of the k-gon, whose reflections reverse the edges."""
    k = draw(st.integers(min_value=1, max_value=4))
    space = CellComplex.circle(k)
    kind = draw(st.sampled_from(["trivial", "rotation", "dihedral"] if k <= 3
                                else ["trivial", "rotation"]))
    if kind == "trivial":
        return GAction.trivial(FiniteGroup.named(draw(st.sampled_from(GROUPS))), space)
    if kind == "rotation":
        d = draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0]))
        perms = {g: [[(c + g * (k // d)) % k for c in range(k)]] * 2 for g in range(d)}
        return GAction(FiniteGroup.cyclic(d), space, perms)
    # element g of dihedral:k is x -> s + (-1)^r x with s = g % k, r = g // k;
    # a reflection sends the edge v_x -> v_{x+1} to v_{s-x-1} -> v_{s-x}, reversed
    group = FiniteGroup.dihedral(k)
    perms, signs = {}, {}
    for g in group.elements():
        shift, r = g % k, g // k
        vertices = [(shift + (-1) ** r * x) % k for x in range(k)]
        edges = [(shift + x) % k for x in range(k)] if r == 0 else \
            [(shift - x - 1) % k for x in range(k)]
        perms[g] = [vertices, edges]
        signs[g] = [[1] * k, [(-1) ** r] * k]
    return GAction(group, space, perms, signs)


PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(orbit_actions())
def test_property_normalized_matches_full(group_orbits):
    group, orbits = group_orbits
    assert_same_cohomology(disjoint_union(group, orbits), 2)


@PROPERTY_SETTINGS
@given(circle_actions())
def test_property_normalized_matches_full_on_circles(act):
    assert_same_cohomology(act, 2)


@PROPERTY_SETTINGS
@given(orbit_actions())
def test_property_shapiro_stabilizers_give_the_g_bar_cohomology(group_orbits):
    # H^k_G(union of the G/H) = sum of H^k(H), each H on a point, k <= 3
    group, orbits = group_orbits
    union = bar_complex(bar_levels(disjoint_union(group, orbits), 4), 4)
    stabilizers = [bar_complex(bar_levels(GAction.trivial(group.subgroup(sub),
                                                          CellComplex.point()), 4), 4)
                   for sub in orbits]
    for k in range(4):
        total = FgAbGroup(0)
        for cx in stabilizers:
            total = total.direct_sum(cx.cohomology(k))
        assert union.cohomology(k) == total, (group.name, orbits, k)


@PROPERTY_SETTINGS
@given(orbit_actions(min_orbits=2), st.integers(min_value=1, max_value=2))
def test_property_additive_over_orbits(group_orbits, cut):
    # H(M + N) = H(M) + H(N) for M, N unions of orbits
    group, orbits = group_orbits
    cut = min(cut, len(orbits) - 1)
    union = disjoint_union(group, orbits)
    for n in range(3):
        left, right = (equivariant_cohomology(disjoint_union(group, part), n)
                       for part in (orbits[:cut], orbits[cut:]))
        assert equivariant_cohomology(union, n) == left.direct_sum(right), n


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=6))
def test_property_cyclic_point_is_periodic(k):
    # the periodic resolution of C_k: Z, 0, Z/k, 0, Z/k, ...
    act = GAction.trivial(FiniteGroup.cyclic(k), CellComplex.point())
    for n in range(5):
        want = FgAbGroup(1) if n == 0 else (
            FgAbGroup(0, (k,)) if n % 2 == 0 and k > 1 else FgAbGroup(0))
        assert equivariant_cohomology(act, n) == want, (k, n)
