import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from eqcohom.complexes import IntCochainComplex, total_complex
from eqcohom import simplicial
from eqcohom.linalg import (
    FgAbGroup,
    IntMatrix,
    StructuredCoefGroup,
    coefficient_change,
    cohomology_at,
    rank_q,
)
from eqcohom.simplicial import (
    BarLevels,
    CellComplex,
    CoefficientNotDivisible,
    FiniteGroup,
    GAction,
    InvalidAction,
    BAR_BUDGET,
    BarComplexTooLarge,
    bar_levels,
    bar_size,
    cellular_double_complex,
    equivariant_cohomology,
    group_average,
    total_window,
    vertical_apply,
)


# --- groups -------------------------------------------------------------------


def test_named_groups():
    for spec, order in [("cyclic:6", 6), ("symmetric:3", 6), ("dihedral:4", 8),
                        ("quaternion:8", 8)]:
        g = FiniteGroup.named(spec)
        assert g.order == order
        e = g.identity
        for a in g.elements():
            assert g.mul(a, g.inverse[a]) == e


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # not a group


def test_subgroup_enumeration():
    s3 = FiniteGroup.symmetric(3)
    subs = s3.subgroups()
    assert len(subs) == 6  # 1, three C2, C3, S3
    assert tuple([s3.identity]) in subs
    assert tuple(sorted(s3.elements())) in subs


def _brute_force_subgroups(group):
    rest = [g for g in group.elements() if g != group.identity]
    found = []
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            cand = {group.identity, *extra}
            if all(group.table[a][b] in cand for a in cand for b in cand):
                found.append(tuple(sorted(cand)))
    return sorted(found, key=lambda h: (len(h), h))


@pytest.mark.parametrize("name", [f"cyclic:{n}" for n in range(1, 9)] + ["symmetric:3"]
                         + [f"dihedral:{n}" for n in range(2, 5)] + ["quaternion:8"])
def test_subgroups_by_closure_match_every_subset(name):
    group = FiniteGroup.named(name)
    assert group.subgroups() == _brute_force_subgroups(group)


def test_symmetric_4_has_30_subgroups():
    s4 = FiniteGroup.symmetric(4)
    subs = s4.subgroups()
    assert len(subs) == len(set(subs)) == 30
    # the trivial group, 9 of order 2, 4 of order 3, 3 cyclic and 4 Klein
    # four-groups, 4 copies of S3, 3 dihedral of order 8, A4 and S4
    assert Counter(len(h) for h in subs) == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
    for h in subs:
        assert all(s4.table[a][b] in h for a in h for b in h)


def test_group_json_roundtrip():
    # a group file names a family or gives its table
    g = FiniteGroup.cyclic(4)
    assert FiniteGroup.from_json_obj({"name": "cyclic:4"}).table == g.table
    table = json.loads("[[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]")
    assert FiniteGroup.from_json_obj({"table": table}).table == g.table


# --- cell complexes and actions -------------------------------------------------


def test_circle_complex():
    c = CellComplex.circle(3)
    assert c.cells == [3, 3]
    assert (c.boundary(1) @ c.boundary(2)).is_zero()
    # H^0 = Z, H^1 = Z for the circle
    assert cohomology_at(IntMatrix.zero(3, 0), c.coboundary(0)) == FgAbGroup(1)
    assert cohomology_at(c.coboundary(0), IntMatrix.zero(0, 3)) == FgAbGroup(1)


def test_action_validation():
    # not a permutation
    with pytest.raises(InvalidAction):
        GAction.points_action(FiniteGroup.cyclic(2), 2, {0: [0, 1], 1: [0, 0]})
    # not a homomorphism: g^2 = e but the square of the permutation is not id
    with pytest.raises(InvalidAction):
        GAction.points_action(FiniteGroup.cyclic(3), 2, {0: [0, 1], 1: [1, 0], 2: [1, 0]})


def test_coset_action_needs_a_subgroup():
    c3, s3 = FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)
    for group, elements in [(c3, (1,)), (c3, (0, 1)), (c3, ()), (c3, (0, 7)), (c3, (0, -1)),
                            (s3, (0, 1, 2))]:
        with pytest.raises(InvalidAction):
            GAction.coset_action(group, elements)
    for sub in s3.subgroups():
        act = GAction.coset_action(s3, sub)
        assert act.space.ncells(0) == s3.order // len(sub)


def test_rotation_action_and_generator_closure():
    # element g acts as the g-th power of the generator's shift
    act = GAction.cyclic_rotation_circle(5)
    shift = [(c + 1) % 5 for c in range(5)]
    power = list(range(5))
    for g in range(5):
        assert act.perms[g] == [power, power]
        power = [shift[c] for c in power]
    assert act.orbit_count() == 1


def test_action_json_roundtrip():
    # the rotation of circle:3 as an action file: its boundary is a dense
    # matrix of decimal strings, and signs default to +1
    act = GAction.cyclic_rotation_circle(3)
    back = GAction.from_json_obj(json.loads("""{
        "group": {"name": "cyclic:3"},
        "space": {"cells": [3, 3], "boundaries": [
            {"rows": 3, "cols": 3, "entries": [["-1", "0", "1"], ["1", "-1", "0"], ["0", "1", "-1"]]}]},
        "perms": {"0": [[0, 1, 2], [0, 1, 2]], "1": [[1, 2, 0], [1, 2, 0]],
                  "2": [[2, 0, 1], [2, 0, 1]]}}"""))
    assert back.space.boundaries == act.space.boundaries
    assert back.perms == act.perms and back.signs == act.signs


# --- bar levels -----------------------------------------------------------------


def test_trivial_group_bar_levels():
    act = GAction.trivial(FiniteGroup.cyclic(1), CellComplex.circle(2))
    bl = bar_levels(act, 3)
    for p in range(4):
        assert bl.cells(p, 0) == 2 and bl.cells(p, 1) == 2
    for p in range(1, 4):
        for i in range(p + 1):
            for t in range(1):
                assert bl.face_tuple(p, i, t) == (0, 0)


def test_c2_point_level_two_faces():
    act = GAction.trivial(FiniteGroup.cyclic(2), CellComplex.point())
    bl = bar_levels(act, 2)
    assert [bl.cells(p, 0) for p in range(3)] == [1, 2, 4]
    # tuples (g1, g2) encoded as 2*g1 + g2; faces drop g1 / multiply / drop g2
    expected = {
        0: lambda g1, g2: (g2, 0),
        1: lambda g1, g2: ((g1 + g2) % 2, 0),
        2: lambda g1, g2: (g1, g2),
    }
    for g1 in range(2):
        for g2 in range(2):
            t = 2 * g1 + g2
            for i in range(3):
                assert bl.face_tuple(2, i, t) == expected[i](g1, g2)


def test_simplicial_identities_c3_on_triangle():
    act = GAction.cyclic_rotation_circle(3)
    bar_levels(act, 3)  # constructor runs the exhaustive identity check


def merge_wrongly_from(level):
    """A face tabulation whose d_1 drops g_1 (acts as d_0) from the given level up."""
    original = simplicial._face_maps

    def face_maps(p, *args):
        faces = original(p, *args)
        if p >= level:
            faces[1] = faces[0]
        return faces
    return face_maps


def test_wrong_face_map_raises_on_fresh_group(monkeypatch):
    monkeypatch.setattr(simplicial, "_face_maps", merge_wrongly_from(2))
    group = FiniteGroup.cyclic(2)
    act = GAction.trivial(group, CellComplex.point())
    with pytest.raises(InvalidAction):
        bar_levels(act, 2)
    assert group.bar_checked_level == 1  # the failing level is not recorded
    with pytest.raises(InvalidAction):
        bar_levels(act, 2)


def test_wrong_face_map_above_checked_levels_raises(monkeypatch):
    group = FiniteGroup.cyclic(2)
    bar_levels(GAction.trivial(group, CellComplex.point()), 2)
    monkeypatch.setattr(simplicial, "_face_maps", merge_wrongly_from(3))
    with pytest.raises(InvalidAction):
        bar_levels(GAction.trivial(group, CellComplex.points(2)), 3)


def test_wrong_degeneracy_above_checked_levels_raises(monkeypatch):
    group = FiniteGroup.cyclic(3)
    bar_levels(GAction.trivial(group, CellComplex.point()), 2)
    original = simplicial._degeneracy_maps

    def degeneracy_maps(p, *args):  # s_i acts as s_{i+1} from level 2 up
        maps = original(p, *args)
        return [maps[min(i + 1, p)] for i in range(p + 1)] if p >= 2 else maps
    monkeypatch.setattr(simplicial, "_degeneracy_maps", degeneracy_maps)
    with pytest.raises(InvalidAction):
        bar_levels(GAction.trivial(group, CellComplex.point()), 3)


TABLE_GROUPS = [f"cyclic:{k}" for k in range(1, 7)] + ["symmetric:3", "dihedral:4", "quaternion:8"]


def _nondegenerate_tuples(group, p):
    """The tuples of level p with no identity entry, in increasing order."""
    m, e = group.order, group.identity
    return [t for t in range(m ** p) if all((t // m ** k) % m != e for k in range(p))]


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_tables_match_face_and_degeneracy_tuples(name):
    # the list-arithmetic tabulation against the per-tuple maps, levels <= 4
    group = FiniteGroup.named(name)
    bl = bar_levels(GAction.trivial(group, CellComplex.point()), 4)
    e = group.identity
    for p in range(5):
        tuples = range(group.order ** p)
        for i in range(p + 1):
            assert bl.degeneracy_table(p, i) == [bl.degeneracy_tuple(p, i, t) for t in tuples]
        if p == 0:
            continue
        position = {t: r for r, t in enumerate(_nondegenerate_tuples(group, p - 1))}
        for i in range(p + 1):
            codes, acts = bl.face_table(p, i)
            assert list(zip(codes, acts or [e] * len(codes))) == \
                [bl.face_tuple(p, i, t) for t in tuples], (p, i)
            # over the nondegenerate tuples: positions, None where degenerate
            codes, acts = bl.nondegenerate_face_table(p, i)
            want = [bl.face_tuple(p, i, t) for t in _nondegenerate_tuples(group, p)]
            assert list(zip(codes, acts or [e] * len(codes))) == \
                [(position.get(t2), g) for t2, g in want], (p, i)


def test_subgroup_reindexes_and_is_kept_on_the_group():
    s3 = FiniteGroup.symmetric(3)
    assert s3.subgroup(range(6)) is s3
    for elements in s3.subgroups():
        sub = s3.subgroup(elements)
        assert sub is s3.subgroup(reversed(elements))
        assert sub.order == len(elements) and elements[sub.identity] == s3.identity
        for a in sub.elements():
            for b in sub.elements():
                assert elements[sub.mul(a, b)] == s3.mul(elements[a], elements[b])


def test_subgroup_rejects_a_set_that_is_not_a_subgroup():
    c4, s3 = FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)
    not_closed = [(c4, (0, 1)), (s3, (0, 1, 2)), (c4, (0, 1, 3))]
    no_identity = [(c4, (2,)), (c4, ()), (s3, (1,))]
    out_of_range = [(c4, (0, 4)), (c4, (0, -1))]
    for group, elements in not_closed + no_identity + out_of_range:
        with pytest.raises(InvalidAction):
            group.subgroup(elements)
    assert not c4._subgroups and not s3._subgroups


def test_identity_check_runs_once_per_group_and_level(monkeypatch):
    checked = []
    original = BarLevels._verify_level

    def record(self, level):
        checked.append(level)
        original(self, level)
    monkeypatch.setattr(BarLevels, "_verify_level", record)
    group = FiniteGroup.symmetric(3)
    bar_levels(GAction.trivial(group, CellComplex.point()), 2)
    assert checked == [1, 2] and group.bar_checked_level == 2
    # another action over the same group at the same truncation
    bar_levels(GAction.coset_action(group, (0,)), 2)
    assert checked == [1, 2]
    bar_levels(GAction.coset_action(group, (0,)), 4)
    assert checked == [1, 2, 3, 4] and group.bar_checked_level == 4
    # an equal table in a new group object is checked afresh
    bar_levels(GAction.trivial(FiniteGroup.symmetric(3), CellComplex.point()), 1)
    assert checked == [1, 2, 3, 4, 1]


def test_bar_budget_admits_the_largest_tested_inputs_tenfold():
    # hexagons at n = 4 read degrees 0..5; Q/Z at n = 4 and the unreduced
    # Deligne cones at n = 4 read degrees 0..6
    from test_acceptance import _acceptance_actions

    largest = [(act, 5) for act in _acceptance_actions()]
    largest += [(GAction.lens_sphere(3), 6),
                (GAction.trivial(FiniteGroup.cyclic(4), CellComplex.point()), 6)]
    for act, top in largest:
        assert 10 * sum(bar_size(act, top)) <= BAR_BUDGET, (act.name, top)


def test_bar_levels_over_the_budget_fail_before_any_work(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("bar levels built over the budget")

    monkeypatch.setattr(BarLevels, "__init__", no_build)
    act = GAction.trivial(FiniteGroup.cyclic(2), CellComplex.point())
    # 20 cells for C2, but 2^20 - 1 tuples for the identity check of levels
    # 0..19, which also compares 5129 relations
    assert bar_size(act, 19) == (20, 2 ** 20 - 1)
    for call in (lambda: bar_levels(act, 19), lambda: equivariant_cohomology(act, 18)):
        with pytest.raises(BarComplexTooLarge) as err:
            call()
        assert isinstance(err.value, InvalidAction) and "1053724" in str(err.value)


def test_trivial_group_refused_by_its_relation_count(monkeypatch):
    # the trivial group's levels hold one tuple each, but its identity check
    # compares 2p^2 + p relations at level p: the count stops it past level 90
    built = []
    monkeypatch.setattr(BarLevels, "__init__", lambda self, act, P: built.append((act.name, P)))
    trivial = GAction.trivial(FiniteGroup.cyclic(1), CellComplex.point())
    for call, top in [(lambda: bar_levels(trivial, 1001), 1001),
                      (lambda: equivariant_cohomology(trivial, 1000), 1001),
                      (lambda: bar_levels(trivial, 91), 91)]:
        with pytest.raises(BarComplexTooLarge) as err:
            call()
        relations = top * (top + 1) * (4 * top + 5) // 6 - 1
        assert f"compares {relations} relations" in str(err.value)
    assert built == []
    # near the cut, and the largest inputs of the CLI's checks, stay accepted:
    # H^6 of S3 on a point reads levels 0..7 and H^15 of C2 on circle:12
    # levels 0..16
    accepted = [(trivial, 90), (GAction.trivial(FiniteGroup.symmetric(3), CellComplex.point()), 7),
                (GAction.trivial(FiniteGroup.cyclic(2), CellComplex.circle(12)), 16)]
    for act, top in accepted:
        bar_levels(act, top)
    assert built == [(act.name, top) for act, top in accepted]


def test_relation_count_is_what_the_identity_check_compares(monkeypatch):
    compared = []
    real_same_map = simplicial._same_map
    monkeypatch.setattr(simplicial, "_same_map",
                        lambda *args: compared.append(1) or real_same_map(*args))
    for top in range(8):
        compared.clear()
        BarLevels(GAction.trivial(FiniteGroup.cyclic(1), CellComplex.point()), top)
        assert len(compared) == max(top * (top + 1) * (4 * top + 5) // 6 - 1, 0)


def test_absurd_tops_refused_without_their_exact_count(monkeypatch):
    def no_count(*args):
        raise AssertionError("counted the cells of an absurd top")

    monkeypatch.setattr(simplicial, "bar_size", no_count)
    monkeypatch.setattr(BarLevels, "__init__", no_count)
    c3 = GAction.trivial(FiniteGroup.cyclic(3), CellComplex.point())
    trivial = GAction.trivial(FiniteGroup.cyclic(1), CellComplex.point())
    for act, top, least in [(c3, 20001, "3^20001"), (c3, 10 ** 9, f"3^{10 ** 9}"),
                            (trivial, BAR_BUDGET, str(BAR_BUDGET + 1))]:
        with pytest.raises(BarComplexTooLarge, match=re.escape(f"at least {least} tuples")):
            bar_levels(act, top)


def test_bar_size_sums_in_closed_form():
    for name, space in [("cyclic:1", CellComplex.point()), ("cyclic:3", CellComplex.circle(3)),
                        ("symmetric:3", CellComplex.points(0))]:
        act = GAction.trivial(FiniteGroup.named(name), space)
        m = act.group.order
        for top in range(-1, 9):
            cells = sum((m - 1) ** p * space.ncells(q)
                        for p in range(top + 1) for q in range(top - p + 1))
            assert bar_size(act, top) == (cells, sum(m ** p for p in range(top + 1)))


def test_degenerate_inputs():
    act = GAction.swap_two_points()
    with pytest.raises(ValueError):
        bar_levels(act, -1)
    bl = bar_levels(act, 1)
    with pytest.raises(ValueError):
        bl.face_tuple(0, 0, 0)


# --- cellular double complex -----------------------------------------------------


def test_trivial_group_double_complex_alternates():
    act = GAction.trivial(FiniteGroup.cyclic(1), CellComplex.circle(2))
    bl = bar_levels(act, 3)
    dc = cellular_double_complex(bl)
    for p in range(3):
        v = dc.vert(p, 0)
        if p % 2 == 0:
            assert v.is_zero()
        else:
            assert v == IntMatrix.identity(2)


def test_cp_point_column_is_bar_complex():
    p = 3
    act = GAction.trivial(FiniteGroup.cyclic(p), CellComplex.point())
    bl = bar_levels(act, 4)
    dc = cellular_double_complex(bl)
    tot = total_complex(dc)
    # against the standard periodic resolution of the cyclic group
    periodic = IntCochainComplex(0, [1] * 6, [
        IntMatrix.from_rows([[0 if k % 2 == 0 else p]]) for k in range(5)])
    for n in range(3):
        assert tot.cohomology(n) == periodic.cohomology(n)


def test_c2_two_swapped_points_is_contractible_quotient():
    act = GAction.swap_two_points()
    for n in range(3):
        want = FgAbGroup(1) if n == 0 else FgAbGroup(0)
        assert equivariant_cohomology(act, n) == want


# --- equivariant cohomology ------------------------------------------------------


def test_trivial_on_circle():
    act = GAction.trivial(FiniteGroup.cyclic(1), CellComplex.circle(2))
    assert equivariant_cohomology(act, 0) == FgAbGroup(1)
    assert equivariant_cohomology(act, 1) == FgAbGroup(1)
    assert equivariant_cohomology(act, 2) == FgAbGroup(0)


@pytest.mark.parametrize("p", [2, 3])
def test_group_cohomology_of_cyclic(p):
    act = GAction.trivial(FiniteGroup.cyclic(p), CellComplex.point())
    want = [FgAbGroup(1), FgAbGroup(0), FgAbGroup(0, (p,)), FgAbGroup(0), FgAbGroup(0, (p,))]
    for n, expect in enumerate(want):
        assert equivariant_cohomology(act, n) == expect


@pytest.mark.parametrize("p", [2, 3])
def test_free_rotation_matches_quotient(p):
    act = GAction.cyclic_rotation_circle(p)
    quotient = CellComplex.circle(1)  # S^1 / C_p is again a circle
    for n in range(4):
        d_in = quotient.coboundary(n - 1) if n >= 1 else IntMatrix.zero(1, 0)
        d_out = quotient.coboundary(n)
        if n > 1:
            d_in = IntMatrix.zero(0, 0)
            d_out = IntMatrix.zero(0, 0)
        want = cohomology_at(d_in, d_out)
        assert equivariant_cohomology(act, n) == want


def test_coefficient_modes():
    act = GAction.trivial(FiniteGroup.cyclic(3), CellComplex.point())
    assert equivariant_cohomology(act, 1, "Q") == 0
    assert equivariant_cohomology(act, 0, "Q") == 1
    # H^1(BC_3, C/Z) = (C/Z)^0 + torsion H^2 = Z/3
    got = equivariant_cohomology(act, 1, "QmodZ")
    assert got == StructuredCoefGroup(divisible_circle_rank=0, finite_part=FgAbGroup(0, (3,)))
    got0 = equivariant_cohomology(act, 0, "QmodZ")
    assert got0 == StructuredCoefGroup(divisible_circle_rank=1, finite_part=FgAbGroup(0))


def test_unknown_coefficient_mode_raises_before_any_work(monkeypatch):
    act = GAction.trivial(FiniteGroup.cyclic(3), CellComplex.point())
    with pytest.raises(ValueError):
        equivariant_cohomology(act, -1, "R")

    def no_build(*args, **kwargs):
        raise AssertionError("bar construction built for an unknown coefficient mode")

    monkeypatch.setattr(simplicial, "bar_levels", no_build)
    monkeypatch.setattr(simplicial, "total_window", no_build)
    with pytest.raises(ValueError):
        equivariant_cohomology(act, 2, "R")


def window_reference(act, n, coeff):
    """H^n over Z or Q from the three-degree window n-1..n+1 of the bar
    total complex, unreduced for Q."""
    ranks, diffs = total_window(bar_levels(act, n + 2), max(n - 1, 0), n + 1)
    d_in = diffs[n - 1] if n >= 1 else IntMatrix.zero(ranks[0], 0)
    d_out = diffs[n]
    if coeff == "Z":
        return cohomology_at(d_in, d_out)
    return ranks[n] - rank_q(d_out) - rank_q(d_in)


def reference_actions():
    actions = [GAction.trivial(FiniteGroup.cyclic(1), CellComplex.point())]
    for group in [FiniteGroup.cyclic(k) for k in (2, 3, 4)] + [FiniteGroup.symmetric(3)]:
        actions.append(GAction.trivial(group, CellComplex.point()))
        indices = {}
        for sub in group.subgroups():
            indices.setdefault(group.order // len(sub), sub)
        actions += [GAction.coset_action(group, sub)
                    for index, sub in indices.items() if 2 <= index <= 4]
        # the smallest coset orbit plus a fixed point
        base = GAction.coset_action(group, indices[min(i for i in indices if i >= 2)])
        k = base.space.ncells(0) + 1
        perms = {g: [list(base.perms[g][0]) + [k - 1]] for g in group.elements()}
        actions.append(GAction(group, CellComplex.points(k), perms))
    actions += [GAction.lens_sphere(3), GAction.cyclic_rotation_circle(3),
                GAction.trivial(FiniteGroup.cyclic(2), CellComplex.circle(2)),
                GAction.swap_two_points()]
    return actions


def test_bar_complex_from_degree_zero_matches_window_reference():
    for act in reference_actions():
        # H^4 of S3 takes seconds per action, so its Q/Z answer stops at n = 2
        top = 3 if act.group.order == 6 else 4
        h_z = [window_reference(act, n, "Z") for n in range(top + 1)]
        for n in range(4):
            assert equivariant_cohomology(act, n, "Z") == h_z[n], (act.name, n)
            assert equivariant_cohomology(act, n, "Q") == window_reference(act, n, "Q"), (act.name, n)
            if n < top:
                # Q/Z from two separately computed integral answers
                want = coefficient_change(h_z[n], h_z[n + 1])
                assert equivariant_cohomology(act, n, "QmodZ") == want, (act.name, n)


def test_one_bar_construction_per_query(monkeypatch):
    builds = []
    real_init = BarLevels.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(BarLevels, "__init__", counting_init)
    # the action keeps the reduced complex of the largest top built on it:
    # a query builds one bar construction when its top goes past that one,
    # and none when a kept complex already reaches it
    act = GAction.coset_action(FiniteGroup.symmetric(3), (0,))
    kept = 0
    for coeff in ("Z", "Q", "QmodZ"):
        for n in range(3):
            top = n + 2 if coeff == "QmodZ" else n + 1
            builds.clear()
            equivariant_cohomology(act, n, coeff)
            assert len(builds) == (1 if top > kept else 0), (coeff, n, kept)
            if top > kept:
                assert builds[0][1] == top, (coeff, n)
                kept = top
    assert kept == 4
    # a fresh action keeps nothing: its first query always builds once
    for coeff in ("Z", "Q", "QmodZ"):
        for n in range(3):
            builds.clear()
            equivariant_cohomology(GAction.coset_action(FiniteGroup.symmetric(3), (0,)), n, coeff)
            assert len(builds) == 1, (coeff, n)


# --- group averaging --------------------------------------------------------------


def test_group_average_contracts_closed_cochains():
    rng = random.Random(42)
    act = GAction.cyclic_rotation_circle(3)
    bl = bar_levels(act, 3)
    for q in (0, 1):
        for p in (1, 2):
            for _ in range(20):
                eta = [Fraction(rng.randint(-5, 5)) for _ in range(bl.cells(p - 1, q))]
                omega = vertical_apply(bl, p - 1, q, eta)  # exact, hence closed
                avg = group_average(bl, p, q, omega)
                assert vertical_apply(bl, p - 1, q, avg) == [Fraction(v) for v in omega]


def test_group_average_inverts_level_zero_pullback():
    # a level-1 cochain constant over the group factor is the pullback of the
    # level-0 cochain it came from, and averaging returns exactly that cochain
    act = GAction.swap_two_points()
    bl = bar_levels(act, 2)
    eta = [Fraction(3), Fraction(-1)]
    omega = []
    for g in range(2):
        for c in range(2):
            omega.append(eta[c])
    avg = group_average(bl, 1, 0, omega)
    assert avg == eta


def test_group_average_non_closed_has_no_contraction():
    act = GAction.swap_two_points()
    bl = bar_levels(act, 2)
    omega = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]  # not dV-closed
    assert vertical_apply(bl, 1, 0, omega) != [0] * 8
    avg = group_average(bl, 1, 0, omega)
    back = vertical_apply(bl, 0, 0, avg)
    assert back != omega


def test_group_average_integer_divisibility():
    act = GAction.swap_two_points()
    bl = bar_levels(act, 1)
    with pytest.raises(CoefficientNotDivisible):
        group_average(bl, 1, 0, [1, 0, 0, 0], over="Z")
    assert group_average(bl, 1, 0, [2, 4, 6, 8], over="Z") == [4, 6]


# --- lens spaces ---------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_lens_pattern_on_sphere(p):
    # the free lens-pattern action of the cyclic group on the 3-sphere:
    # equivariant cohomology is that of the quotient lens space, whose
    # cochain complex Z --0--> Z --p--> Z --0--> Z we compute independently
    act = GAction.lens_sphere(p)
    quotient = IntCochainComplex(0, [1, 1, 1, 1], [
        IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[p]]), IntMatrix.from_rows([[0]])])
    for n in range(4):
        assert equivariant_cohomology(act, n) == quotient.cohomology(n)


def test_lens_pattern_bockstein_is_iso_at_two():
    # H^1(C/Z) = Z/p maps onto torsion H^2 = Z/p: the Bockstein is an
    # isomorphism realized by multiplying the 1/p-lift up to an integer class
    from eqcohom.complexes import bockstein_image_matches_torsion, qz_torsion_cocycles

    p = 3
    act = GAction.lens_sphere(p)
    bl = bar_levels(act, 4)
    ranks, diffs = total_window(bl, 0, 3)
    cx = IntCochainComplex(0, [ranks[k] for k in range(4)], [diffs[k] for k in range(3)]).reduced()
    assert cx.cohomology(2) == FgAbGroup(0, (p,))
    gens = qz_torsion_cocycles(cx, 2)
    assert [order for _rep, order in gens] == [p]
    ok, image, torsion = bockstein_image_matches_torsion(cx, 2)
    assert ok and image == FgAbGroup(0, (p,)) == torsion
