import dataclasses
import sys
from fractions import Fraction
from math import prod

import pytest

from eqcohom import complexes, deligne, linalg, simplicial
from eqcohom.deligne import (
    DiffCohGroup,
    FlatEquivariantLineBundle,
    MixedComplex,
    PositiveDimensionalInput,
    build_deligne_mixed,
    deligne_cone,
    differential_cohomology_zero_dim,
    flat_equivariant_chern_class,
    hexagon,
)
from eqcohom.linalg import FgAbGroup, IntMatrix, kernel_basis, rank_q
from eqcohom.complexes import IntCochainComplex
from eqcohom.simplicial import (
    BarLevels,
    CellComplex,
    FiniteGroup,
    GAction,
    bar_complex,
    bar_levels,
    equivariant_cohomology,
    total_window,
)
from test_acceptance import _acceptance_actions


def trivial_point():
    return GAction.trivial(FiniteGroup.cyclic(1), CellComplex.point())


def cp_point(p):
    return GAction.trivial(FiniteGroup.cyclic(p), CellComplex.point())


# --- mixed complexes -----------------------------------------------------------


def test_mixed_complex_validation():
    # degrees 0..2 with P0 = [2]: d^2 = 0 needs Q1 P0 + S1 Q0 = 0
    integral = IntCochainComplex(0, [1, 1, 0], [IntMatrix.from_rows([[2]]), IntMatrix.zero(0, 1)])
    q_blocks = [IntMatrix.from_rows([[-1]]), IntMatrix.from_rows([[-1]])]
    with pytest.raises(ValueError):
        MixedComplex(integral, [1, 1, 1], q_blocks,
                     [IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[2]])])
    ok = MixedComplex(integral, [1, 1, 1], q_blocks,
                      [IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[-2]])])
    assert ok.integral.cohomology(1) == FgAbGroup(0, (2,))


def test_mixed_validation_checks_every_row(monkeypatch):
    # an integral part with P P != 0 cannot be built, and validate checks
    # every row of the whole cone, the P P rows among them
    one, zero = IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[0]])
    with pytest.raises(complexes.IllFormedDoubleComplex):
        IntCochainComplex(0, [1, 1, 1], [one, one])
    rows = []
    real = IntMatrix._product_rows

    def recording(self, other):
        for i, acc in real(self, other):
            rows.append((self, i))
            yield i, acc
    monkeypatch.setattr(IntMatrix, "_product_rows", recording)
    integral = IntCochainComplex(0, [1, 1, 1], [IntMatrix.zero(1, 1), one])
    mixed = MixedComplex(integral, [1, 1, 1], [one.scale(-1), one.scale(-1)], [zero, zero])
    top = mixed.whole.diffs[1]            # [[P1, 0], [Q1, S1]] = [[1, 0], [-1, 0]]
    assert [i for m, i in rows if m is top] == [0, 1]


def test_mixed_cocycle_and_coboundary():
    # trivial group on a point, n = 1: the normalized cone has no integral
    # cells in degree 1, and S_1 kills every rational value v
    data = build_deligne_mixed(trivial_point(), 1)
    mixed = data.mixed
    assert (mixed.int_rank(1), mixed.rat_rank(1)) == (0, 1)
    assert not any(mixed.s_block(1).apply([Fraction(1, 3)]))


def test_mixed_coboundary_through_nonzero_s_block():
    # n = 0, C2 on a point (one nondegenerate tuple per level, P1 = [2]):
    # S0 = [[0], [1]] and S1 = [[2, 0], [-1, 0]] have pivots.  From degree
    # 1, d(y; w0, w1) = (2y; 2 w0, y - w0).
    mixed = build_deligne_mixed(cp_point(2), 0).mixed
    assert mixed.p_block(1) == IntMatrix.from_rows([[2]])
    assert mixed.s_block(0) == IntMatrix.from_rows([[0], [1]])
    assert mixed.s_block(1) == IntMatrix.from_rows([[2, 0], [-1, 0]])


# --- differential cohomology of points ------------------------------------------


def test_trivial_group_point_pattern():
    act = trivial_point()
    assert differential_cohomology_zero_dim(act, 0) == DiffCohGroup(free_rank=1)
    assert differential_cohomology_zero_dim(act, 1) == DiffCohGroup(circle_rank=1)
    for n in (2, 3, 4):
        assert differential_cohomology_zero_dim(act, n).is_trivial()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cp_point_degree_two_is_cyclic(p):
    got = differential_cohomology_zero_dim(cp_point(p), 2)
    assert got == DiffCohGroup(torsion=FgAbGroup(0, (p,)))


def test_cp_point_pattern_matches_hom_oracle():
    # degree 2 equals Hom(C_p, C/Z) = Z/p, computed independently by counting
    # homomorphisms into the rationals mod 1
    p = 4
    homs = set()
    for k in range(p):
        # generator -> k/p defines a homomorphism iff p * (k/p) = 0 mod 1
        if (p * Fraction(k, p)) % 1 == 0:
            homs.add(Fraction(k, p))
    assert len(homs) == p
    got = differential_cohomology_zero_dim(cp_point(p), 2)
    assert prod(got.torsion.torsion) == len(homs)


def route_cases():
    return [
        (trivial_point(), range(0, 4)),
        (cp_point(2), range(0, 4)),
        (cp_point(3), range(0, 3)),
        (GAction.swap_two_points(), range(0, 4)),
        (GAction.coset_action(FiniteGroup.symmetric(3), (0,)), range(0, 2)),
        # the largest unreduced cones: 4^6 and 6^5 integral cells on top
        (cp_point(4), range(0, 5)),
        (GAction.trivial(FiniteGroup.symmetric(3), CellComplex.point()), range(0, 4)),
    ]


def long_exact_sequence_oracle(act, n):
    """H^n of the cone read off the integral groups: the connecting map is
    the coefficient inclusion, whose rank is the free rank, so
    H^n = (C/Z)^{rank H^{n-1}(Z)} (+) torsion H^n(Z) for n >= 1, H^0 = H^0(Z)."""
    h_n = equivariant_cohomology(act, n, "Z")
    if n == 0:
        return DiffCohGroup(free_rank=h_n.free_rank, torsion=h_n.torsion_part())
    h_prev = equivariant_cohomology(act, n - 1, "Z")
    return DiffCohGroup(circle_rank=h_prev.free_rank, torsion=h_n.torsion_part())


def test_reduced_and_unreduced_cones_agree_with_the_long_exact_sequence():
    # the cone over the reduced complex, the cone over the unreduced one,
    # and the long exact sequence read off two separate integral answers
    for act, degrees in route_cases():
        for n in degrees:
            reduced = differential_cohomology_zero_dim(act, n)
            unreduced = build_deligne_mixed(act, n).mixed.cohomology(n)
            assert reduced == unreduced == long_exact_sequence_oracle(act, n), \
                (act.group.name, n)
    for act in _acceptance_actions():
        for n in range(4):
            assert differential_cohomology_zero_dim(act, n) == \
                long_exact_sequence_oracle(act, n), (act.name, n)


def test_diffcoh_builds_one_bar_construction(monkeypatch):
    builds = []
    real_init = BarLevels.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        real_init(self, *args, **kwargs)

    def no_cone(*args, **kwargs):
        raise AssertionError("the cone was built over the unreduced bar complex")

    monkeypatch.setattr(BarLevels, "__init__", counting_init)
    monkeypatch.setattr(deligne, "build_deligne_mixed", no_cone)
    cases = [(trivial_point(), range(4)), (cp_point(2), range(4)),
             (GAction.trivial(FiniteGroup.symmetric(3), CellComplex.point()), (2, 3))]
    for act, degrees in cases:
        for n in degrees:
            builds.clear()
            differential_cohomology_zero_dim(act, n)
            assert len(builds) == 1, (act.group.name, n)


def kernel_connecting_rank(mixed, k):
    """rank(H^k(int) -> H^{k+1}(rat)) from an integral kernel basis of P:
    the images Q x of ker P, counted modulo im S."""
    kernels = kernel_basis(mixed.p_block(k))
    if not kernels:
        return 0
    images = mixed.q_block(k) @ IntMatrix.from_rows(kernels).transpose()
    s_prev = mixed.s_block(k)
    beside = IntMatrix.from_blocks(images.rows, images.cols + s_prev.cols,
                                   [(0, 0, images, 1), (0, images.cols, s_prev, 1)])
    return rank_q(beside) - rank_q(s_prev)


def test_connecting_rank_matches_kernel_formula():
    for act, degrees in route_cases():
        for n in degrees:
            mixed = build_deligne_mixed(act, n).mixed
            # every degree up to n, which includes the two cohomology(n)
            # reads; every degree up to n_max takes six times as long (3.1 s
            # against 0.5 s over these cones on a 2-core host), most of it
            # in the kernel SNF of the top levels
            for k in range(mixed.n_min - 1, n + 1):
                assert mixed.connecting_rank(k) == kernel_connecting_rank(mixed, k), \
                    (act.group.name, n, k)
            # the reduced cones are small enough for every degree
            reduced = deligne_cone(bar_complex(bar_levels(act, n + 2), n + 1).reduced(), n)
            for k in range(reduced.n_min - 1, reduced.n_max + 1):
                assert reduced.connecting_rank(k) == kernel_connecting_rank(reduced, k), \
                    (act.group.name, n, k)


def test_a_second_read_factors_nothing(monkeypatch):
    # each matrix keeps its own rank and Smith form, so no matrix of cx
    # reaches rank_q or smith_normal_form twice
    received = {"rank_q": [], "smith_normal_form": []}

    def recording(name):
        real = getattr(linalg, name)

        def record(m):
            received[name].append(m)
            return real(m)
        return record

    for name in received:
        monkeypatch.setattr(linalg, name, recording(name))
    cx = bar_complex(bar_levels(GAction.trivial(FiniteGroup.symmetric(3), CellComplex.point()),
                                4), 4).reduced()
    for n in range(1, 4):
        cx.cohomology(n)
        cx.cohomology_q_dim(n)
        complexes.bockstein_image(cx, n)
    for name, matrices in received.items():
        assert len({id(m) for m in matrices}) == len(matrices), name
    # the cone's differentials keep their own factorizations: a second read
    # of the cone factors nothing
    cone = deligne_cone(cx, 2)
    first = cone.cohomology(2)
    for matrices in received.values():
        matrices.clear()
    assert cone.cohomology(2) == first
    assert received == {"rank_q": [], "smith_normal_form": []}


def test_a_points_hexagon_factors_no_matrix_twice(monkeypatch):
    # the upto view, the cone's rational part and the corners hold the kept
    # complex's own differential objects; each matrix keeps its rank and
    # Smith form, so no matrix object is factored twice.  Every received
    # matrix stays referenced, so no id is reused.
    received = {"rank_q": [], "smith_normal_form": []}

    def recording(name, real):
        def record(m, *rest):
            if not rest:     # rank_q with lead columns answers another question
                received[name].append(m)
            return real(m, *rest)
        return record

    for name in received:
        real = getattr(linalg, name)
        hook = recording(name, real)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("eqcohom") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, hook)
    for group in (FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)):
        act = GAction.trivial(group, CellComplex.point())
        for n in reversed(range(5)):
            hexagon(act, n)
    for name, matrices in received.items():
        assert len({id(m) for m in matrices}) == len(matrices), \
            (name, len(matrices), len({id(m) for m in matrices}))


def orbit_type_keys(act):
    """The complexes a hexagon of act reads, as (group, H, chi): each
    orbit's type on G, its block of the cone, and its stabilizer H on a
    point twisted by chi, kept on the subgroup, for its corners.  A fixed
    point's two are one."""
    keys = set()
    for stab, signs in act.orbit_types():
        sub = act.group.subgroup(stab)
        keys |= {(id(act.group), stab, signs), (id(sub), tuple(sub.elements()), signs)}
    return keys


def recording_builds(monkeypatch):
    """Record each BarLevels built as (group, H, chi, top): every bar
    construction a hexagon makes is the signed coset action of one orbit
    type (GAction.signed_cosets), whose point 0 is the coset H itself."""
    builds = []
    real_init = BarLevels.__init__

    def counting_init(self, act, top):
        (stab, signs), = act.orbit_types()
        builds.append((id(act.group), stab, signs, top))
        real_init(self, act, top)

    monkeypatch.setattr(BarLevels, "__init__", counting_init)
    return builds


def test_one_bar_construction_per_hexagon(monkeypatch):
    # each on a fresh group, degrees asked in increasing order, so that no
    # kept complex reaches the next top: one BarLevels and one bar total
    # complex per orbit type that the hexagon reads (orbit_type_keys), none
    # twice, and none extra when M is a point; one Deligne cone
    builds = recording_builds(monkeypatch)
    totals = []
    cones = []
    real_bar = simplicial.bar_complex
    real_cone = deligne.deligne_cone

    def counting_bar(*args):
        totals.append(args)
        return real_bar(*args)

    def counting_cone(*args):
        cones.append(args)
        return real_cone(*args)

    monkeypatch.setattr(simplicial, "bar_complex", counting_bar)
    monkeypatch.setattr(deligne, "deligne_cone", counting_cone)
    s3 = FiniteGroup.symmetric(3)
    mixed = GAction.points_action(s3, 4, {g: GAction.coset_action(s3, (0, 1)).perms[g][0] + [3]
                                          for g in s3.elements()})
    actions = [trivial_point(), cp_point(2), GAction.swap_two_points(),
               GAction.coset_action(FiniteGroup.symmetric(3), (0,)),
               GAction.trivial(FiniteGroup.cyclic(3), CellComplex.points(2)), mixed]
    for act in actions:
        keys = orbit_type_keys(act)
        if act.space.ncells(0) == 1:
            assert len(keys) == 1
        for n in range(4):
            builds.clear()
            totals.clear()
            cones.clear()
            hexagon(act, n)
            assert len(cones) == 1, (act.name, n, len(cones))
            assert len(builds) == len(keys), (act.name, n, builds)
            assert {b[:3] for b in builds} == keys, (act.name, n)
            assert all(b[3] == n + 1 for b in builds), (act.name, n, builds)
            assert len(totals) == len(builds), (act.name, n, len(totals))


@pytest.mark.parametrize("n", range(5))
def test_hexagon_reads_no_window_datum_from_the_complex_on_m(monkeypatch, n):
    # with more than one 0-cell, H^{n-1}(Z), H^n(Z), the Bockstein image and
    # iota's rank all come from complexes of stabilizers on a point: outside
    # the Deligne cone's own H^n, no cohomology, rational dimension or
    # Bockstein image is read from act's complex or from an orbit type whose
    # stabilizer is not the whole group it is kept on
    origin = []       # (complex, "action", "orbit" or "point")
    read_from = []
    in_cone = []
    real_keep, real_orbit_bar = GAction.reduced_bar, FiniteGroup.orbit_bar
    real_cohomology, real_q_dim = IntCochainComplex.cohomology, IntCochainComplex.cohomology_q_dim
    real_bockstein, real_cone = deligne.bockstein_image, MixedComplex.cohomology

    def source(cx):
        return [label for made, label in origin if made is cx]

    def kept_complex(self, top):
        cx = real_keep(self, top)
        origin.append((cx, "action"))
        return cx

    def orbit_bar(self, stab, signs, top):
        cx = real_orbit_bar(self, stab, signs, top)
        origin.append((cx, "point" if stab == tuple(self.elements()) else "orbit"))
        return cx

    def reading(real):
        def read(cx, k):
            if not in_cone:
                read_from.extend(source(cx) or ["unknown"])
            return real(cx, k)
        return read

    def cone_cohomology(self, k):
        in_cone.append(k)
        try:
            return real_cone(self, k)
        finally:
            in_cone.pop()

    monkeypatch.setattr(GAction, "reduced_bar", kept_complex)
    monkeypatch.setattr(FiniteGroup, "orbit_bar", orbit_bar)
    monkeypatch.setattr(IntCochainComplex, "cohomology", reading(real_cohomology))
    monkeypatch.setattr(IntCochainComplex, "cohomology_q_dim", reading(real_q_dim))
    monkeypatch.setattr(deligne, "bockstein_image", reading(real_bockstein))
    monkeypatch.setattr(MixedComplex, "cohomology", cone_cohomology)
    for act in _acceptance_actions():
        if act.space.ncells(0) == 1:
            continue
        origin.clear()
        read_from.clear()
        hexagon(act, n)
        assert read_from, (act.name, n)
        assert set(read_from) == {"point"}, (act.name, n, read_from)


def test_shapiro_corners_match_the_complex_on_m_with_signed_points():
    # a 0-cell whose stabilizer reverses its sign twists Z by that sign;
    # the stabilizer on a point carries the same sign
    c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    actions = [
        GAction(c2, CellComplex.points(3), {0: [[0, 1, 2]], 1: [[1, 0, 2]]},
                {0: [[1, 1, 1]], 1: [[1, 1, -1]]}),
        GAction(c4, CellComplex.points(2), {g: [[0, 1]] for g in range(4)},
                {g: [[1, (-1) ** g]] for g in range(4)}),
        GAction(c4, CellComplex.points(3), {g: [[g % 2, 1 - g % 2, 2]] for g in range(4)},
                {g: [[1, 1, (-1) ** g]] for g in range(4)}),
    ]
    for act in actions:
        h = [equivariant_cohomology(act, n) for n in range(5)]
        for n in range(5):
            evidence = hexagon(act, n).evidence
            assert evidence["H^n(Z)"] == h[n], (n, act.signs)
            if n:
                assert evidence["H^{n-1}(Z)"] == h[n - 1], (n, act.signs)
                assert evidence["rank iota on H^n"] == equivariant_cohomology(act, n, "Q")


def _signed_zero_cell_actions():
    c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    return [
        GAction(c2, CellComplex.point(), {0: [[0]], 1: [[0]]}, {0: [[1]], 1: [[-1]]}),
        GAction(c2, CellComplex.points(2), {0: [[0, 1]], 1: [[1, 0]]},
                {0: [[1, 1]], 1: [[-1, -1]]}),
        GAction(c4, CellComplex.points(2), {g: [[0, 1]] for g in range(4)},
                {g: [[1, (-1) ** g]] for g in range(4)}),
        GAction(c4, CellComplex.points(3), {g: [[g % 2, 1 - g % 2, 2]] for g in range(4)},
                {g: [[1, 1, (-1) ** g]] for g in range(4)}),
    ]


@pytest.mark.parametrize("act", _signed_zero_cell_actions(),
                         ids=["C2-point", "C2-two-points", "C4-two-points", "C4-three-points"])
def test_hexagon_holds_when_an_element_reverses_a_zero_cell(act):
    # an invariant function f satisfies f(g c) = sign(g, c) f(c): a 0-cell
    # whose stabilizer reverses its sign carries none, so the form corners
    # count fewer functions than orbits
    functions = equivariant_cohomology(act, 0, "Q")
    for n in range(4):
        rep = hexagon(act, n)
        assert rep.all_exact, (n, rep.exactness)
        assert all(rep.squares.values()), (n, rep.squares)
        assert rep.evidence["orbits"] == len(act.orbit_types())
        corner = {0: "closed_forms", 1: "forms_mod_exact"}.get(n)
        if corner and functions:
            assert rep.corners[corner].endswith(f"ℂ^{functions}"), (n, rep.corners)
        elif corner:
            assert rep.corners[corner] == "0", (n, rep.corners)


def test_hexagon_reduces_each_bar_complex_it_builds_once(monkeypatch):
    # Ĥ^n and the integral corners read one reduction of each complex: no
    # complex object is reduced twice, and each bar construction is reduced
    # exactly once.  Each group builds one bar complex per orbit type and
    # top, and rebuilds a type only for a larger top, over every hexagon of
    # the criterion-5 actions, which share their groups
    builds = recording_builds(monkeypatch)
    reduced = []      # the differential lists handed to reduce_complex, kept alive
    totals = []
    real_reduce, real_bar = complexes.reduce_complex, simplicial.bar_complex

    def counting_reduce(ranks, diffs):
        reduced.append(diffs)
        return real_reduce(ranks, diffs)

    def counting_bar(*args):
        totals.append(args)
        return real_bar(*args)
    monkeypatch.setattr(complexes, "reduce_complex", counting_reduce)
    monkeypatch.setattr(linalg, "reduce_complex", counting_reduce)
    monkeypatch.setattr(simplicial, "bar_complex", counting_bar)
    tops = {}         # (group, H, chi) -> the tops built for it, in order
    for act in _acceptance_actions():
        for n in range(5):
            reduced.clear()
            totals.clear()
            builds.clear()
            hexagon(act, n)
            assert len({id(diffs) for diffs in reduced}) == len(reduced), (act.name, n)
            assert len(reduced) == len(totals) == len(builds), (act.name, n)
            for *key, top in builds:
                tops.setdefault(tuple(key), []).append(top)
    assert tops
    assert all(built == sorted(set(built)) for built in tops.values()), tops


def _fresh_actions():
    """The 20 criterion-5 actions and the lens sphere of order 3, built
    anew: no complex is kept on any of them yet."""
    return _acceptance_actions() + [GAction.lens_sphere(3)]


def _answers_at(act, n):
    """Everything asked of act at degree n: the hexagon report and Ĥ^n of a
    0-dimensional action, and H^n over Z, Q and Q/Z of the lens sphere."""
    if act.space.dim > 0:
        return [equivariant_cohomology(act, n, coeff) for coeff in ("Z", "Q", "QmodZ")]
    return [hexagon(act, n).to_json_obj(), differential_cohomology_zero_dim(act, n)]


@pytest.mark.parametrize("index", range(len(_fresh_actions())))
def test_no_answer_depends_on_the_order_degrees_are_asked(index):
    # each action keeps the reduced bar complex of the largest top built on
    # it: degrees asked ascending (each one builds past the last), descending
    # (the first builds, the rest are served by the kept complex) and each
    # on a fresh action must give the same answers
    ascending, descending = _fresh_actions()[index], _fresh_actions()[index]
    up = {n: _answers_at(ascending, n) for n in range(5)}
    down = {n: _answers_at(descending, n) for n in reversed(range(5))}
    for n in range(5):
        fresh = _answers_at(_fresh_actions()[index], n)
        assert up[n] == fresh, (ascending.name, n)
        assert down[n] == fresh, (descending.name, n)


def test_hexagon_negative_degree_rejected_before_any_work(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("bar construction built for a negative degree")

    monkeypatch.setattr(BarLevels, "__init__", no_build)
    for n in (-1, -2, -3):
        with pytest.raises(ValueError):
            hexagon(cp_point(2), n)


def test_positive_dimensional_input_rejected():
    act = GAction.cyclic_rotation_circle(3)
    with pytest.raises(PositiveDimensionalInput):
        differential_cohomology_zero_dim(act, 1)
    with pytest.raises(PositiveDimensionalInput):
        hexagon(act, 1)


# --- hexagon ---------------------------------------------------------------------


def test_hexagon_c2_two_swapped_points_degree_one():
    act = GAction.swap_two_points()
    rep = hexagon(act, 1)
    assert rep.all_exact
    # ker I is everything: the hat group is C/Z coming from H^0(C)
    assert rep.corners["hhat"] == DiffCohGroup(circle_rank=1)
    assert rep.squares["left"] and rep.squares["right"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hexagon_cp_point_bottom_row(p):
    act = cp_point(p)
    for n in range(0, 5):
        rep = hexagon(act, n)
        assert rep.all_exact, (p, n, rep.exactness)
        if n in (2, 4):
            assert rep.evidence["image(-beta)"] == FgAbGroup(0, (p,))


def _grown(**summands):
    """A corner mutation: each named integral corner gains a summand."""
    return lambda c: dataclasses.replace(
        c, **{name: getattr(c, name).direct_sum(extra) for name, extra in summands.items()})


@pytest.mark.parametrize("act, n, mutate, flipped", [
    (cp_point(2), 2, lambda c: dataclasses.replace(c, beta_image=FgAbGroup(0)), {"bottom_row"}),
    (cp_point(2), 2, lambda c: dataclasses.replace(c, iota_rank=c.iota_rank + 1), {"bottom_row"}),
    (cp_point(3), 0, _grown(h_n=FgAbGroup(1)), {"top_row", "diagonal_b"}),
    (GAction.swap_two_points(), 1, _grown(h_prev=FgAbGroup(1)), {"top_row"}),
    (cp_point(3), 2, _grown(h_n=FgAbGroup(0, (2,)), beta_image=FgAbGroup(0, (2,))),
     {"diagonal_a", "diagonal_b"}),
    (cp_point(2), 3, _grown(h_prev=FgAbGroup(1)), {"diagonal_a"}),
], ids=["beta-image-zero", "iota-rank-up", "free-h0-point", "free-h0-swap",
        "z2-in-hn-and-image", "free-h2"])
def test_each_computed_verdict_fails_under_a_corner_mutation(monkeypatch, act, n, mutate,
                                                             flipped):
    # a wrong integral corner must show: every computed verdict is flipped
    # by one of these; the rest are named in the report's notes
    assert hexagon(act, n).all_exact
    real = deligne._integral_corners
    monkeypatch.setattr(deligne, "_integral_corners",
                        lambda *args: mutate(real(*args)))
    rep = hexagon(act, n)
    failed = {k for k, ok in rep.exactness.items() if not ok}
    assert flipped <= failed, (failed, rep.exactness)


@pytest.mark.parametrize("act", [cp_point(3), GAction.swap_two_points()],
                         ids=["c3-point", "swap"])
def test_diagonals_at_degree_zero_fail_with_one_more_free_class(monkeypatch, act):
    # at n = 0 diagonal_a compares the free rank of the cone's H^0 with the
    # invariant-function count: one extra free class in the cone must show
    assert hexagon(act, 0).all_exact
    real = MixedComplex.cohomology

    def one_more_free(self, k):
        h = real(self, k)
        return dataclasses.replace(h, free_rank=h.free_rank + 1) if k == 0 else h

    monkeypatch.setattr(MixedComplex, "cohomology", one_more_free)
    rep = hexagon(act, 0)
    assert not rep.exactness["diagonal_a"] and not rep.exactness["diagonal_b"], rep.exactness


def test_hexagon_text_rendering():
    rep = hexagon(GAction.swap_two_points(), 1)
    text = rep.render_text()
    assert "hexagon at degree n = 1" in text
    assert "-beta" in text
    assert "squares.left (every n) and top_row (n >= 2) hold by construction" in text
    obj = rep.to_json_obj()
    assert obj["exactness"]["bottom_row"] is True


def test_hexagon_property_small_suite():
    # a slice of the acceptance-5 family, kept quick here
    groups = [FiniteGroup.cyclic(k) for k in (1, 2, 3, 4)] + [FiniteGroup.symmetric(3)]
    for group in groups:
        actions = [GAction.trivial(group, CellComplex.point())]
        for sub in group.subgroups():
            if group.order // len(sub) <= 3 and len(sub) < group.order:
                actions.append(GAction.coset_action(group, sub))
        for act in actions[:3]:
            for n in range(0, 3):
                rep = hexagon(act, n)
                assert rep.all_exact, (group.name, n, rep.exactness)


# --- lens holonomy --------------------------------------------------------------------


def test_lens_trivial_weight():
    assert flat_equivariant_chern_class(5, 0) == 0


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (5, 2), (7, 3)])
def test_lens_classes(p, q):
    assert flat_equivariant_chern_class(p, q) == Fraction(q, p)


def test_lens_dual_bundle_sums_to_zero():
    for p, q in [(3, 1), (5, 2), (7, 4), (9, 5)]:
        total = flat_equivariant_chern_class(p, q) + flat_equivariant_chern_class(p, p - q)
        assert total % 1 == 0


def test_tangent_plus_normal_model_agrees():
    # the rotating-frame model: transport 1/p per edge, trivial fiber action;
    # same class as the weight-1 product bundle
    for p in (2, 3, 5):
        bundle = FlatEquivariantLineBundle(p, [Fraction(1, p)] * p, [Fraction(0)] * p)
        assert bundle.cocycle_conditions_hold()
        assert bundle.pairing_kills_coboundaries()
        assert bundle.pairing_with_fundamental_cycle() == Fraction(1, p)
        assert flat_equivariant_chern_class(p, 1) == Fraction(1, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lens_evaluation_functional_is_read_off_the_bar_complex(p):
    # e_0 + e_p (edge 0 closed up by (generator, v_0)) kills d^0 of the bar
    # complex of the rotation circle; closing it up by (generator, v_1),
    # cell p + 1, does not; d^0 is the whole matrix from total_window, since
    # bar_complex builds only the generator rows of its top degree
    d0 = total_window(bar_levels(GAction.cyclic_rotation_circle(p), 1), 0, 1)[1][0]

    def kills_d0(closing):
        return not any(d0[0, j] + d0[closing, j] for j in range(d0.cols))

    assert kills_d0(p)
    assert not kills_d0(p + 1)
    assert FlatEquivariantLineBundle.weight_bundle(p, 1).pairing_kills_coboundaries()


def test_lens_nontrivial_holonomy_rejected():
    with pytest.raises(ValueError):
        FlatEquivariantLineBundle(3, [Fraction(1, 2), 0, 0], [0, 0, 0])


# --- bar levels built only as far as they are read -------------------------------


def _record_table_reads(monkeypatch):
    """Patch BarLevels and FiniteGroup so that every face or degeneracy
    table read outside the simplicial-identity check is recorded as (level,
    checked level): a face table of level p, full or over the nondegenerate
    tuples (the group's normalized_bar_faces, which the normalized bar
    complex reads), reads level p, a degeneracy table of level p writes
    into level p + 1."""
    reads = []
    verifying = []
    face, normalized_faces, degeneracy, verify = (
        BarLevels.face_table, FiniteGroup.normalized_bar_faces,
        BarLevels.degeneracy_table, BarLevels._verify_level)

    def face_table(self, p, i):
        if not verifying:
            reads.append((p, self.group.bar_checked_level))
        return face(self, p, i)

    def normalized_bar_faces(self, p):
        if not verifying:
            reads.append((p, self.bar_checked_level))
        return normalized_faces(self, p)

    def degeneracy_table(self, p, i):
        if not verifying:
            reads.append((p + 1, self.group.bar_checked_level))
        return degeneracy(self, p, i)

    def verify_level(self, level):
        verifying.append(level)
        try:
            verify(self, level)
        finally:
            verifying.pop()

    monkeypatch.setattr(BarLevels, "face_table", face_table)
    monkeypatch.setattr(FiniteGroup, "normalized_bar_faces", normalized_bar_faces)
    monkeypatch.setattr(BarLevels, "degeneracy_table", degeneracy_table)
    monkeypatch.setattr(BarLevels, "_verify_level", verify_level)
    return reads


def _fresh_s3_on_three_points():
    group = FiniteGroup.symmetric(3)
    sub = next(s for s in group.subgroups() if len(s) == 2)
    return GAction.coset_action(group, sub)


@pytest.mark.parametrize("n", range(4))
def test_levels_read_are_checked_and_hexagon_checks_no_more(monkeypatch, n):
    reads = _record_table_reads(monkeypatch)
    calls = [lambda act: hexagon(act, n),
             lambda act: differential_cohomology_zero_dim(act, n)]
    calls += [lambda act, c=c: equivariant_cohomology(act, n, c) for c in ("Z", "Q", "QmodZ")]
    for call in calls:
        act = _fresh_s3_on_three_points()
        assert act.group.bar_checked_level == 0
        reads.clear()
        call(act)
        assert reads
        assert all(level <= checked for level, checked in reads), reads
    act = _fresh_s3_on_three_points()
    hexagon(act, n)
    assert act.group.bar_checked_level == n + 1
