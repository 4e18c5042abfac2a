"""The normalized bar complex against the full one, and its properties.

bar_complex builds the normalized bar total complex, on tuples without the
identity.  The total complex of cellular_double_complex, on all tuples, is
its oracle: the two are chain homotopy equivalent over Z, so they agree on
H^n over Z and Q below their common truncation degree.
"""

import pytest
from hypothesis import given, settings, strategies as st

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
from test_simplicial import _nondegenerate_tuples


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
        m = act.group.order
        for p in range(4):
            tuples = _nondegenerate_tuples(act.group, p)
            for q in range(act.space.dim + 1):
                nq = act.space.ncells(q)
                assert bl.normalized_cells(p, q) == (m - 1) ** p * nq
                if p == 3:
                    continue
                upper = _nondegenerate_tuples(act.group, p + 1)
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


# --- the generator rows of the top degree ---------------------------------------------


def full_bar_complex(bl, top):
    """Every row of every degree 0..top, from total_window: the oracle for
    bar_complex's top degree, built without its row selection."""
    ranks, diffs = total_window(bl, 0, top)
    return IntCochainComplex(0, [ranks[k] for k in range(top + 1)],
                             [diffs[k] for k in range(top)])


@pytest.mark.parametrize("top", range(1, 6))
def test_certified_top_keeps_every_lower_degree(top):
    # below its top degree, bar_complex has the full complex's H^k over Z and
    # Q, and its top holds every level-0 row and, above level 0, the rows of
    # the tuples that start with a generator: |S| (|G|-1)^{p-1} of the
    # (|G|-1)^p tuples of level p, also where H^{top-1}(Q) != 0 (at top = 1
    # for each of these actions, and the lens sphere at top = 4)
    for act in _acceptance_actions() + [GAction.lens_sphere(3)]:
        bl = bar_levels(act, top)
        cx, full = bar_complex(bl, top), full_bar_complex(bl, top)
        for k in range(top):
            assert cx.cohomology(k) == full.cohomology(k), (act.name, top, k)
            assert cx.cohomology_q_dim(k) == full.cohomology_q_dim(k), (act.name, top, k)
        assert cx.ranks[:top] == full.ranks[:top]
        kept, m = len(act.group.generators()), act.group.order
        rows = sum(act.space.ncells(q) * (1 if q == top else kept * (m - 1) ** (top - q - 1))
                   for q in range(min(top, act.space.dim) + 1))
        assert cx.ranks[top] == rows, (act.name, top)


def test_non_generating_set_gives_a_wrong_h0(monkeypatch):
    # the generator rows are exact only for a generating set: with (1,),
    # which does not generate S3, the top of S3/<(1 2)> at top = 1 keeps too
    # few rows, and H^0 comes out Z^2, though the quotient is a point
    act = GAction.coset_action(FiniteGroup.symmetric(3), (0, 1))
    assert bar_complex(bar_levels(act, 1), 1).cohomology(0) == FgAbGroup(1)
    monkeypatch.setattr(FiniteGroup, "generators", lambda self: (1,))
    assert bar_complex(bar_levels(act, 1), 1).cohomology(0) == FgAbGroup(2)


def test_bar_complex_checks_each_relation_once(monkeypatch):
    # one complex is built, and d^2 = 0 is checked on each of its relations
    # d^{k+1} d^k exactly once, the top one with the generator rows
    checked = []
    real = IntMatrix.product_is_zero

    def recording(self, other, *args):
        checked.append((self, other))    # kept alive, so ids stay distinct
        return real(self, other, *args)
    monkeypatch.setattr(IntMatrix, "product_is_zero", recording)
    s3 = FiniteGroup.symmetric(3)
    for act in (GAction.coset_action(s3, (0, 1)), GAction.trivial(s3, CellComplex.point()),
                GAction.lens_sphere(3)):
        for top in range(1, 5):
            bl = bar_levels(act, top)
            checked.clear()
            cx = bar_complex(bl, top)
            assert [(id(a), id(b)) for a, b in checked] == \
                [(id(cx.diffs[k + 1]), id(cx.diffs[k])) for k in range(top - 1)], (act.name, top)


def test_generators_are_chosen_greedily():
    assert FiniteGroup.cyclic(1).generators() == ()
    assert FiniteGroup.cyclic(6).generators() == (1,)
    s3 = FiniteGroup.symmetric(3)
    assert s3.generators() == (1, 2)     # two transpositions
    assert s3.generators() is s3.generators()
    assert FiniteGroup.quaternion8().generators() == (1, 2, 4)   # -1, i, j


def closure(group, elements):
    """The elements reached from the identity by right multiplication with
    the given elements: for a finite group, the subgroup they generate."""
    reached, frontier = {group.identity}, [group.identity]
    while frontier:
        frontier = [h for h in {group.mul(x, s) for x in frontier for s in elements}
                    if h not in reached]
        reached.update(frontier)
    return reached


NAMED_GROUPS = [f"cyclic:{n}" for n in range(1, 7)] + ["symmetric:3", "symmetric:4"] + \
    [f"dihedral:{n}" for n in range(2, 5)] + ["quaternion:8"]


@pytest.mark.parametrize("name", NAMED_GROUPS)
def test_generators_generate_the_group_and_each_subgroup(name):
    # the top degree is exact because the first entries of its rows generate
    # the group; bar_complex also runs on every subgroup (the stabilizers of
    # Shapiro's lemma), so each subgroup's generators must generate it
    group = FiniteGroup.named(name)
    for sub in group.subgroups():
        h = group.subgroup(sub)
        assert closure(h, h.generators()) == set(h.elements()), (name, sub)
    assert closure(group, group.generators()) == set(group.elements())


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
    # at each top 1..3, so that the generator rows are compared with every
    # row also where the degree below carries rational cohomology
    group, orbits = group_orbits
    for top in range(1, 4):
        assert_same_cohomology(disjoint_union(group, orbits), top - 1)


@PROPERTY_SETTINGS
@given(circle_actions())
def test_property_normalized_matches_full_on_circles(act):
    for top in range(1, 4):
        assert_same_cohomology(act, top - 1)


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
