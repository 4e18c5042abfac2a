"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is either exact output of an independent oracle
(periodic resolutions, quotient complexes, scalar polynomial evaluation,
hand enumeration) or a pinned table value; all comparisons are exact, no
tolerances are needed anywhere because the arithmetic is rational.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from eqcohom.bundled import s3_conjugation_double_complex
from eqcohom.cartan import (
    EquivariantForm,
    LinearAction,
    cartan_cohomology_truncated,
    cartan_d,
    getzler_chain_map_check,
    is_invariant,
    lie_derivative,
    parse_form,
)
from eqcohom.chern import (
    ConnectionMatrix,
    InvariantPolynomial,
    curvature,
    equivariant_characteristic_form,
    form_zero_matrix,
    form_mat_add,
    moment_map,
    random_invariant_connection,
    transgression,
    whitney_check,
)
from eqcohom.complexes import (
    IntCochainComplex,
    bad_resolution_counterexample,
    total_complex,
)
from eqcohom.deligne import flat_equivariant_chern_class, hexagon
from eqcohom.linalg import (
    FgAbGroup,
    IntMatrix,
    StructuredCoefGroup,
    coefficient_change,
    cohomology_at,
)
from eqcohom.simplicial import (
    CellComplex,
    FiniteGroup,
    GAction,
    bar_levels,
    equivariant_cohomology,
    group_average,
    vertical_apply,
)


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# --- criterion 1: the conjugation table of the 3-sphere ------------------------


def test_criterion_01_s3_conjugation_table():
    t0 = time.monotonic()
    dc = s3_conjugation_double_complex()
    assert dc.vert(0, 3).is_zero()
    assert dc.vert(1, 3) == IntMatrix.from_rows([[0, 0], [0, 0], [0, 1]])
    tot = total_complex(dc)
    expected_z = {0: FgAbGroup(1), 1: FgAbGroup(0), 2: FgAbGroup(0),
                  3: FgAbGroup(1), 4: FgAbGroup(1)}
    ok = True
    for k, want in expected_z.items():
        h = tot.cohomology(k)
        ok = ok and h == want
        ok = ok and tot.cohomology_q_dim(k) == want.free_rank
        structured = coefficient_change(h, tot.cohomology(k + 1))
        want_circle = StructuredCoefGroup(divisible_circle_rank=want.free_rank)
        ok = ok and structured == want_circle
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 1.0,
           f"H^*(conjugation) = Z,0,0,Z,Z over Z, Q, C/Z-structured ({elapsed:.2f}s)")


# --- criterion 2: lens classes ---------------------------------------------------


def test_criterion_02_lens_classes():
    t0 = time.monotonic()
    ok = True
    for p, q in [(2, 1), (3, 1), (5, 2), (7, 3)]:
        ok = ok and flat_equivariant_chern_class(p, q) == Fraction(q, p)
    elapsed = time.monotonic() - t0
    report(2, ok and elapsed < 1.0, f"holonomy classes q/p exact ({elapsed:.2f}s)")


# --- criterion 3: group cohomology of cyclic groups ------------------------------


def test_criterion_03_cyclic_group_cohomology():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        act = GAction.trivial(FiniteGroup.cyclic(p), CellComplex.point())
        # oracle: the standard periodic resolution 0, x p, 0, x p, ...
        periodic = IntCochainComplex(0, [1] * 7, [
            IntMatrix.from_rows([[0 if k % 2 == 0 else p]]) for k in range(6)])
        for n in range(5):
            got = equivariant_cohomology(act, n)
            ok = ok and got == periodic.cohomology(n)
    elapsed = time.monotonic() - t0
    report(3, ok and elapsed < 30.0,
           f"H^*(BC_p) matches the periodic resolution, p in 2,3,5 ({elapsed:.1f}s)")


# --- criterion 4: free actions compare with the quotient --------------------------


def test_criterion_04_free_action_comparison():
    ok = True
    quotient = CellComplex.circle(1)
    for p in (2, 3):
        act = GAction.cyclic_rotation_circle(p)
        for k in range(4):
            if k == 0:
                want = cohomology_at(IntMatrix.zero(1, 0), quotient.coboundary(0))
            elif k == 1:
                want = cohomology_at(quotient.coboundary(0), IntMatrix.zero(0, 1))
            else:
                want = FgAbGroup(0)
            ok = ok and equivariant_cohomology(act, k) == want
    report(4, ok, "H^k of free rotations equals H^k of the quotient circle, k <= 3")


# --- criteria 5 and 6: hexagon exactness and the Bockstein image -------------------


def _acceptance_actions():
    """All transitive actions on <= 4 points (coset actions on subgroups of
    index <= 4), the trivial point, and one mixed orbit pattern per group,
    for the cyclic groups of order <= 6 and the symmetric group on 3 letters."""
    groups = [FiniteGroup.cyclic(k) for k in range(1, 7)] + [FiniteGroup.symmetric(3)]
    actions = []
    for group in groups:
        actions.append(GAction.trivial(group, CellComplex.point()))
        seen_indices = set()
        for sub in group.subgroups():
            index = group.order // len(sub)
            if 2 <= index <= 4 and index not in seen_indices:
                seen_indices.add(index)
                actions.append(GAction.coset_action(group, sub,
                                                    name=f"{group.name}/H{len(sub)}"))
        # a mixed orbit pattern: smallest nontrivial coset orbit plus a fixed point
        for sub in group.subgroups():
            index = group.order // len(sub)
            if 2 <= index <= 3:
                base = GAction.coset_action(group, sub)
                k = base.space.ncells(0) + 1
                perms = {g: [list(base.perms[g][0]) + [k - 1]] for g in group.elements()}
                actions.append(GAction(group, CellComplex.points(k), perms,
                                       name=f"{group.name} mixed"))
                break
    return actions


# corners, evidence and verdicts of the 100 criterion-5 reports, pinned
PINNED_HEXAGONS = Path(__file__).resolve().parent / "criterion5_hexagons.json"


def test_criterion_05_06_hexagon_and_bockstein():
    pinned = json.loads(PINNED_HEXAGONS.read_text(encoding="utf-8"))
    t0 = time.monotonic()
    ok5 = True
    ok6 = True
    count = 0
    for act in _acceptance_actions():
        for n in range(5):
            rep = hexagon(act, n)
            obj = rep.to_json_obj()
            got = json.loads(json.dumps(
                {"action": f"{act.group.name} on {act.name or act.space.name}", "degree": n,
                 **{k: obj[k] for k in ("corners", "evidence", "exactness", "squares")}}))
            assert got == pinned[count], (act.name, n)
            count += 1
            if not rep.all_exact:
                ok5 = False
                print("hexagon failure:", act.group.name, act.name, n, rep.exactness)
            if n >= 1:
                image = rep.evidence["image(-beta)"]
                torsion = rep.evidence["torsion H^n"]
                if image != torsion:
                    ok6 = False
                    print("bockstein failure:", act.group.name, act.name, n, image, torsion)
    assert count == len(pinned)
    elapsed = time.monotonic() - t0
    report(5, ok5 and elapsed < 300.0,
           f"all four exactness verdicts positive on {count} instances ({elapsed:.1f}s)")
    report(6, ok6, "image of -beta equals torsion(H^n) on every instance")


# --- criteria 7 and 8: Cartan identities and Cartan cohomology by weight -----------


def _random_form(rng, act, max_x=3):
    num_u, num_x = act.lie_algebra.dim, act.m
    terms = {}
    for _ in range(rng.randint(1, 4)):
        u = tuple(rng.randint(0, 1) for _ in range(num_u))
        x = tuple(rng.randint(0, max_x) for _ in range(num_x))
        dx = tuple(sorted(rng.sample(range(num_x), rng.randint(0, num_x))))
        terms[(u, x, dx)] = Fraction(rng.randint(-4, 4))
    return EquivariantForm(num_u, num_x, terms)


def test_criterion_07_cartan_identities():
    t0 = time.monotonic()
    rng = random.Random(40404)
    rot = LinearAction.circle_rotation_r2()
    su2 = LinearAction.so3_vector_r3()
    ok = True
    for act in (rot, su2):
        for _ in range(100):
            omega = _random_form(rng, act)
            image = cartan_d(act, omega)
            for (u, _x, dx) in image.terms:
                ok = ok and (2 * sum(u) + len(dx) - 1) in omega.cartan_degrees()
            lhs = cartan_d(act, image)
            rhs = EquivariantForm.zero(act.lie_algebra.dim, act.m)
            for a in range(act.lie_algebra.dim):
                rhs = rhs + lie_derivative(act, a, omega).u_times(a)
            ok = ok and lhs == rhs
    invariants = [
        (rot, parse_form("x1^2 + x2^2", 1, 2)),
        (rot, parse_form("x1*dx2 - x2*dx1", 1, 2)),
        (rot, parse_form("dx1^dx2", 1, 2)),
        (su2, parse_form("u1*x1 + u2*x2 + u3*x3", 3, 3)),
        (su2, parse_form("x1^2 + x2^2 + x3^2", 3, 3)),
        (su2, parse_form("dx1^dx2^dx3", 3, 3)),
    ]
    for act, omega in invariants:
        ok = ok and is_invariant(act, omega)
        ok = ok and cartan_d(act, cartan_d(act, omega)).is_zero()
    elapsed = time.monotonic() - t0
    report(7, ok and elapsed < 60.0,
           f"degree +1, d_C^2 = sum u_a L_a on 200 random forms, "
           f"d_C^2 = 0 on invariants ({elapsed:.1f}s)")


def test_criterion_08_equivariant_de_rham_plane():
    t0 = time.monotonic()
    act = LinearAction.circle_rotation_r2()
    ok = True
    for n in range(6):
        want = 1 if n % 2 == 0 else 0
        dim, by_weight = cartan_cohomology_truncated(act, n, 6)  # blocks of weight 0..6
        ok = ok and dim == by_weight[0] == want
    elapsed = time.monotonic() - t0
    report(8, ok, f"rotation plane: dims 1,0,1,0,1,0 in C_0, blocks of weight 1..6 acyclic "
                  f"({elapsed:.1f}s)")


# --- criterion 9: flat representation forms -----------------------------------------


def test_criterion_09_flat_representation_forms():
    rot = LinearAction.circle_rotation_r2()
    su2 = LinearAction.so3_vector_r3()
    cases = [
        (rot, [[[7]]], 1),
        (rot, [[[0, -3], [3, 0]]], 2),
        (su2, su2.rep, 3),
    ]
    ok = True
    for act, drho, rank in cases:
        a = ConnectionMatrix.zero(rank, act.lie_algebra.dim, act.m)
        mu = moment_map(a, drho, act)
        for poly in (InvariantPolynomial("total_chern"), InvariantPolynomial("trace_power", 2)):
            out = equivariant_characteristic_form(poly, curvature(a), mu)
            ok = ok and out.form_degrees() <= {0}
            # oracle: evaluate the polynomial on the scalar matrix of u-linear forms
            m = form_zero_matrix(rank, act.lie_algebra.dim, act.m)
            for idx, mat in enumerate(drho):
                add = [[EquivariantForm.constant(act.lie_algebra.dim, act.m,
                                                 mat[i][j]).u_times(idx)
                        for j in range(rank)] for i in range(rank)]
                m = form_mat_add(m, add)
            ok = ok and out == poly.evaluate(m)
    report(9, ok, "P(drho) in the symmetric algebra, total Chern and trace powers, ranks <= 3")


# --- criterion 10: transgression ------------------------------------------------------


def test_criterion_10_transgression():
    t0 = time.monotonic()
    rng = random.Random(777)
    rot = LinearAction.circle_rotation_r2()
    ok = True
    for trial in range(50):
        rank = 1 if trial % 2 == 0 else 2
        poly = InvariantPolynomial("chern", 1) if rank == 1 else \
            InvariantPolynomial("chern", 2 if trial % 4 == 1 else 1)
        a0 = random_invariant_connection(rot, rank, rng)
        a1 = random_invariant_connection(rot, rank, rng)
        drho = [[[0] * rank for _ in range(rank)]]
        tr = transgression(rot, a0, a1, poly)
        want = (equivariant_characteristic_form(poly, curvature(a1), moment_map(a1, drho, rot))
                - equivariant_characteristic_form(poly, curvature(a0), moment_map(a0, drho, rot)))
        ok = ok and cartan_d(rot, tr) == want
    elapsed = time.monotonic() - t0
    report(10, ok, f"d_C of the transgression equals the difference of forms, "
                   f"50 invariant pairs ({elapsed:.1f}s)")


# --- criterion 11: Whitney sum ---------------------------------------------------------


def test_criterion_11_whitney():
    t0 = time.monotonic()
    rng = random.Random(888)
    rot = LinearAction.circle_rotation_r2()
    ok = True
    for trial in range(50):
        r1 = rng.choice([1, 2])
        r2 = rng.choice([1, 3 - r1])
        a1 = random_invariant_connection(rot, r1, rng, x_bound=1)
        a2 = random_invariant_connection(rot, r2, rng, x_bound=1)
        drho1 = [[[rng.randint(-2, 2) if i == j else 0 for j in range(r1)] for i in range(r1)]]
        drho2 = [[[rng.randint(-2, 2) if i == j else 0 for j in range(r2)] for i in range(r2)]]
        ok = ok and whitney_check(rot, a1, a2, drho1, drho2).holds
    elapsed = time.monotonic() - t0
    report(11, ok, f"total-Chern determinant identity on 50 block pairs ({elapsed:.1f}s)")


# --- criterion 12: the broken-resolution counterexample --------------------------------


def test_criterion_12_counterexample():
    rep = bad_resolution_counterexample()
    honest = bad_resolution_counterexample([["id", "id"], ["id", "id", "id"]])
    ok = (rep.is_counterexample and rep.witness_out == (0, 2)
          and rep.witness_real_projection == 0
          and rep.honest_composite_is_zero
          and not honest.is_counterexample)
    report(12, ok, "conjugation lift breaks dV dV = 0, witnessed on the imaginary unit")


# --- criterion 13: group-averaging contraction ------------------------------------------


def test_criterion_13_contraction():
    t0 = time.monotonic()
    rng = random.Random(999)
    setups = [
        GAction.trivial(FiniteGroup.cyclic(2), CellComplex.point()),
        GAction.swap_two_points(),
        GAction.cyclic_rotation_circle(3),
        GAction.coset_action(FiniteGroup.cyclic(4), (0, 2)),
        GAction.coset_action(FiniteGroup.symmetric(3), (0,)),
        GAction.coset_action(FiniteGroup.cyclic(6), (0, 3)),
    ]
    checked = 0
    ok = True
    while checked < 100:
        act = setups[checked % len(setups)]
        bl = bar_levels(act, 3)
        q = rng.choice(range(act.space.dim + 1))
        p = rng.choice([1, 2])
        eta = [Fraction(rng.randint(-5, 5)) for _ in range(bl.cells(p - 1, q))]
        omega = vertical_apply(bl, p - 1, q, eta)
        avg = group_average(bl, p, q, omega)
        ok = ok and vertical_apply(bl, p - 1, q, avg) == [Fraction(v) for v in omega]
        checked += 1
    elapsed = time.monotonic() - t0
    report(13, ok, f"dV(average) = omega on 100 closed cochains, |G| <= 6 ({elapsed:.1f}s)")


# --- criterion 14: finite Getzler degeneration -------------------------------------------


def test_criterion_14_getzler_finite():
    act = GAction.swap_two_points()
    bl = bar_levels(act, 4)
    ok = all(getzler_chain_map_check(bl, p, 0) for p in range(4))
    report(14, ok, "comparison map intertwines the boundaries through level 3, "
                   "exhaustively on the swap action")
