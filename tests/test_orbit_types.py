"""One reduced bar complex per orbit type, kept on its group.

A 0-dimensional action's bar complex is the sum over its orbits of the
complexes that its group keeps per orbit type (H, chi), each G on the cosets
G/H with Z twisted by chi (FiniteGroup.orbit_bar).  Its oracles are the
unreduced bar complex of the whole action (bar_complex) and the Deligne cone
over it (build_deligne_mixed), on actions whose points are renumbered and
whose basis vectors are flipped, so that no orbit is literally a coset
action.
"""

from hypothesis import given, settings, strategies as st

from eqcohom import deligne
from eqcohom.complexes import IntCochainComplex
from eqcohom.deligne import build_deligne_mixed, differential_cohomology_zero_dim, hexagon
from eqcohom.simplicial import (
    BarLevels,
    CellComplex,
    FiniteGroup,
    GAction,
    bar_complex,
    bar_levels,
    equivariant_cohomology,
)

GROUPS = ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "symmetric:3",
          "dihedral:2"]

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def sign_characters(group, stab):
    """Every homomorphism chi: H -> {1, -1} on the subgroup with these
    sorted elements, as the tuple of chi(h): the trivial one, and one per
    subgroup K of index 2 in H (normal, so chi = -1 off K is one)."""
    out = [(1,) * len(stab)]
    for k in group.subgroups():
        if 2 * len(k) == len(stab) and set(k) <= set(stab):
            out.append(tuple(1 if h in k else -1 for h in stab))
    return out


def induced(group, stab, chi):
    """G on G/H, Z twisted by chi, built apart from GAction.signed_cosets:
    (perms, signs) over the cosets in the order of their largest elements
    r, with g r = r' h sending the coset of r to chi(h) times that of r'."""
    reps = sorted({max(group.mul(g, h) for h in stab) for g in group.elements()})
    coset = {group.mul(r, h): k for k, r in enumerate(reps) for h in stab}
    sign = dict(zip(stab, chi))
    perms, signs = {}, {}
    for g in group.elements():
        perms[g] = [coset[group.mul(g, r)] for r in reps]
        signs[g] = [sign[group.mul(group.inverse[reps[k]], group.mul(g, r))]
                    for k, r in zip(perms[g], reps)]
    return perms, signs


@st.composite
def signed_point_actions(draw):
    """A named group of order <= 6 on 1..3 orbits G/H, each twisted by a
    sign character of H, with the points renumbered and the basis vector of
    each point x replaced by flips[x] times it."""
    group = FiniteGroup.named(draw(st.sampled_from(GROUPS)))
    parts = []
    for stab in draw(st.lists(st.sampled_from(group.subgroups()), min_size=1, max_size=3)):
        parts.append(induced(group, stab, draw(st.sampled_from(sign_characters(group, stab)))))
    k = sum(len(part_perms[group.identity]) for part_perms, _ in parts)
    number = draw(st.permutations(range(k)))
    flips = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    perms = {g: [[None] * k] for g in group.elements()}
    signs = {g: [[None] * k] for g in group.elements()}
    offset = 0
    for part_perms, part_signs in parts:
        for g in group.elements():
            for x, (y, s) in enumerate(zip(part_perms[g], part_signs[g])):
                # g e_x = s e_y, so g (f_x e_x) = f_x f_y s (f_y e_y)
                perms[g][0][number[offset + x]] = number[offset + y]
                signs[g][0][number[offset + x]] = flips[offset + x] * flips[offset + y] * s
        offset += len(part_perms[group.identity])
    return GAction(group, CellComplex.points(k), perms, signs)


@SETTINGS
@given(signed_point_actions(), st.integers(min_value=1, max_value=3))
def test_property_orbit_sum_has_the_cohomology_of_the_bar_complex(act, top):
    # below the top, the sum of the orbit types' reduced complexes has the
    # H^k over Z of the whole action's unreduced bar complex
    cx = act.reduced_bar(top)
    bar = bar_complex(bar_levels(act, top), top)
    for k in range(top):
        assert cx.cohomology(k) == bar.cohomology(k), (act.perms, act.signs, k)


@SETTINGS
@given(signed_point_actions(), st.integers(min_value=0, max_value=2))
def test_property_orbit_sum_cone_matches_the_unreduced_cone(act, n):
    # the cone over the orbit sum and the cone over the unreduced bar
    # complex of the whole action have one Ĥ^n; the hexagon, whose corners
    # come from the stabilizers, holds
    assert differential_cohomology_zero_dim(act, n) == \
        build_deligne_mixed(act, n).mixed.cohomology(n), (act.perms, act.signs, n)
    assert hexagon(act, n).all_exact, (act.perms, act.signs, n)


def _recording_builds(monkeypatch):
    builds = []
    real_init = BarLevels.__init__

    def counting_init(self, act, top):
        builds.append((act.group, act.space.ncells(0), top))
        real_init(self, act, top)

    monkeypatch.setattr(BarLevels, "__init__", counting_init)
    return builds


def test_two_actions_that_share_an_orbit_type_build_its_complex_once(monkeypatch):
    builds = _recording_builds(monkeypatch)
    s3 = FiniteGroup.symmetric(3)
    everything, ones = tuple(s3.elements()), (1,) * s3.order
    cosets = GAction.coset_action(s3, (0, 1))
    mixed = GAction.points_action(s3, 4, {g: cosets.perms[g][0] + [3] for g in s3.elements()})
    again = GAction.coset_action(s3, (0, 1))
    equivariant_cohomology(cosets, 3)
    assert builds == [(s3, 3, 4)]
    # the coset orbit of mixed is served by the complex cosets built; its
    # fixed point is the one new type
    equivariant_cohomology(mixed, 3)
    equivariant_cohomology(again, 2)
    assert builds == [(s3, 3, 4), (s3, 1, 4)]
    # the trivial point action and mixed's fixed point share one complex,
    # which is also the fixed point's corner: Shapiro is the identity there
    point = GAction.trivial(s3, CellComplex.point())
    assert point.reduced_bar(3) is s3.orbit_bar(everything, ones, 3)
    hexagon(mixed, 2)
    hexagon(point, 2)
    assert builds == [(s3, 3, 4), (s3, 1, 4), (s3.subgroup((0, 1)), 1, 3)]
    # a larger top grows the type, and the smaller tops read the grown one
    grown = point.reduced_bar(5)
    assert grown.n_max == 5 and s3.orbit_bar(everything, ones, 2) is grown
    assert builds[-1] == (s3, 1, 5)


def _actions_of(group):
    """Actions of one group that share orbit types: a point, two coset
    actions, a coset orbit beside a fixed point, and signed orbits."""
    pair = group.subgroups()[1]            # a subgroup of order 2
    cosets = GAction.coset_action(group, pair)
    fixed = cosets.space.ncells(0)
    everything = tuple(group.elements())
    return [
        GAction.trivial(group, CellComplex.point()),
        cosets,
        GAction.points_action(group, fixed + 1,
                              {g: cosets.perms[g][0] + [fixed] for g in group.elements()}),
        GAction.signed_cosets(group, everything, sign_characters(group, everything)[-1]),
        GAction.coset_action(group, group.subgroups()[0]),
        GAction.signed_cosets(group, pair, sign_characters(group, pair)[-1]),
    ]


def _answers(act, degrees):
    return {n: [equivariant_cohomology(act, n), equivariant_cohomology(act, n, "QmodZ"),
                differential_cohomology_zero_dim(act, n), hexagon(act, n).to_json_obj()]
            for n in degrees}


def test_no_answer_depends_on_which_action_of_a_group_is_asked_first():
    # actions of one group asked in one order with degrees ascending, in the
    # reverse order with degrees descending, and each on a group of its own
    for name in ("symmetric:3", "cyclic:4"):
        forward = _actions_of(FiniteGroup.named(name))
        backward = _actions_of(FiniteGroup.named(name))
        up = [_answers(act, range(4)) for act in forward]
        down = [_answers(act, reversed(range(4))) for act in reversed(backward)][::-1]
        for index, (ascending, descending) in enumerate(zip(up, down)):
            alone = _answers(_actions_of(FiniteGroup.named(name))[index], range(4))
            assert ascending == alone, (name, index)
            assert descending == alone, (name, index)


def test_no_matrix_held_by_a_kept_complex_a_view_or_a_cone_changes(monkeypatch):
    # the reduction takes over the rows of each bar complex built for a
    # keep; no matrix that a kept complex, a view of one or a cone holds may
    # change when later queries build, reduce and sum more complexes
    held = []
    real_orbit_bar, real_keep = FiniteGroup.orbit_bar, GAction.reduced_bar
    real_upto, real_cone = IntCochainComplex.upto, deligne.deligne_cone

    def holding(cx):
        held.extend(cx.diffs)
        return cx

    def cone(cx, n):
        mixed = real_cone(cx, n)
        held.extend(mixed.integral.diffs + mixed.q_blocks + mixed.rational.diffs
                    + mixed.whole.diffs)
        return mixed

    monkeypatch.setattr(FiniteGroup, "orbit_bar",
                        lambda self, *args: holding(real_orbit_bar(self, *args)))
    monkeypatch.setattr(GAction, "reduced_bar", lambda self, top: holding(real_keep(self, top)))
    monkeypatch.setattr(IntCochainComplex, "upto", lambda self, top: holding(real_upto(self, top)))
    monkeypatch.setattr(deligne, "deligne_cone", cone)
    group = FiniteGroup.cyclic(4)
    actions = _actions_of(group) + [GAction.lens_sphere(2)]
    for act in actions[:3] + actions[-1:]:
        for n in range(3):
            equivariant_cohomology(act, n)
            if act.space.dim == 0:
                hexagon(act, n)
    before = [(m, m.entries) for m in held]
    for act in actions:
        for n in range(5):
            equivariant_cohomology(act, n, "QmodZ")
            if act.space.dim == 0:
                hexagon(act, n)
    assert len(held) > len(before)
    assert all(m.entries == entries for m, entries in before)
    # reading the rows of a matrix that handed them over raises
    assert all(isinstance(m.entries, dict) for m in held)


def test_an_action_without_zero_cells_has_no_orbits():
    # no orbit types: the sum of none is the zero complex up to the top
    act = GAction.trivial(FiniteGroup.symmetric(3), CellComplex.points(0))
    assert act.orbit_types() == []
    assert act.reduced_bar(3).ranks == [0, 0, 0, 0]
    for n in range(3):
        assert equivariant_cohomology(act, n).is_trivial()
        assert differential_cohomology_zero_dim(act, n).is_trivial()
        assert hexagon(act, n).all_exact
