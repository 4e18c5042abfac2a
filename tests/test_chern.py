import random
from fractions import Fraction

import pytest

import eqcohom.chern as chern
from eqcohom.cartan import (
    EquivariantForm,
    LieAlgebra,
    LinearAction,
    cartan_d,
    is_invariant,
    parse_form,
)
from eqcohom.chern import (
    ConnectionMatrix,
    ConnectionNotInvariant,
    CurvatureMatrix,
    InvariantPolynomial,
    MomentMap,
    bundle_action_matrices,
    connection_is_invariant,
    curvature,
    equivariant_characteristic_form,
    form_mat_add,
    form_mat_scale,
    form_zero_matrix,
    invariant_connection_space,
    moment_map,
    random_invariant_connection,
    reparametrized_transgression,
    transgression,
    whitney_check,
)
from form_checks import conjugation_invariance_check, moment_defining_equation_check

ROT = LinearAction.circle_rotation_r2()


def conn(rows, act=ROT):
    entries = [[parse_form(s, act.lie_algebra.dim, act.m) for s in row] for row in rows]
    return ConnectionMatrix(len(rows), entries)


# --- curvature -----------------------------------------------------------------


def test_flat_zero_connection():
    a = ConnectionMatrix.zero(2, 1, 2)
    r = curvature(a)
    assert all(f.is_zero() for row in r.entries for f in row)


def test_abelian_curvature_is_da():
    a = conn([["x1*dx2"]])
    r = curvature(a)
    assert r.entries[0][0] == parse_form("dx1^dx2", 1, 2)


def test_noncommuting_term_contributes():
    # rank 2 with constant coefficient entries: A^A != 0, verified against a
    # hand expansion of (dA + A^A)
    a = conn([["0", "x1*dx1"], ["x2*dx2", "0"]])
    r = curvature(a)
    # dA diagonal blocks vanish; (A^A)_{00} = x1 dx1 ^ x2 dx2
    assert r.entries[0][0] == parse_form("x1*x2*dx1^dx2", 1, 2)
    assert r.entries[1][1] == parse_form("x1*x2*dx2^dx1", 1, 2)
    assert r.entries[0][1] == parse_form("dx1^dx1", 1, 2)  # zero
    assert r.entries[0][1].is_zero()


def test_bianchi_checked_on_construction():
    rng = random.Random(3)
    for _ in range(10):
        a = random_invariant_connection(ROT, 2, rng)
        curvature(a)  # CurvatureMatrix validates Bianchi internally


def test_curvature_computed_once_and_bianchi_still_checked(monkeypatch):
    wedge = chern.form_mat_wedge
    calls = []

    def counting_wedge(a, b):
        calls.append((a, b))
        return wedge(a, b)

    monkeypatch.setattr(chern, "form_mat_wedge", counting_wedge)
    a = conn([["0", "x1*dx1"], ["x2*dx2", "0"]])
    r = curvature(a)
    assert len(calls) == 3  # A^A for R, then R^A and A^R for Bianchi
    assert (r.connection, r.rank) == (a, 2)
    assert r.entries[0][0] == parse_form("x1*x2*dx1^dx2", 1, 2)
    with pytest.raises(TypeError):
        CurvatureMatrix(a, r.entries)  # the entries are derived, never passed in
    monkeypatch.setattr(chern, "form_mat_wedge", wedge)

    # corrupt R = dA + A^A by a 2-form with nonzero d: dR != R^A - A^R = 0
    add = chern.form_mat_add

    def corrupting_add(x, y):
        out = add(x, y)
        out[0][0] = out[0][0] + parse_form("x1*dx2^dx3", 3, 3)
        return out

    flat = ConnectionMatrix.zero(1, 3, 3)
    assert curvature(flat).entries[0][0].is_zero()
    monkeypatch.setattr(chern, "form_mat_add", corrupting_add)
    with pytest.raises(ValueError, match="Bianchi identity fails"):
        curvature(flat)


# --- moment maps ----------------------------------------------------------------


def test_moment_of_flat_connection_is_drho():
    a = ConnectionMatrix.zero(1, 1, 2)
    drho = [[[3]]]
    mu = moment_map(a, drho, ROT)
    assert mu.components[0][0][0] == EquivariantForm.constant(1, 2, 3)


def test_moment_with_zero_bundle_action_is_contraction():
    rng = random.Random(5)
    a = random_invariant_connection(ROT, 1, rng)
    mu = moment_map(a, [[[0]]], ROT)
    want = a.entries[0][0].contract_linear_field(ROT.rep[0])
    assert mu.components[0][0][0] == want


def test_weight_q_line_bundle_moment():
    # S^1 weight-q action on a line over R^2 with A = 0: mu = q
    q = 4
    a = ConnectionMatrix.zero(1, 1, 2)
    mu = moment_map(a, [[[q]]], ROT)
    assert mu.components[0][0][0] == EquivariantForm.constant(1, 2, q)


def test_moment_requires_invariance():
    bad = conn([["x1*dx1"]])
    assert not connection_is_invariant(ROT, bad)
    with pytest.raises(ConnectionNotInvariant):
        moment_map(bad, [[[0]]], ROT)


def test_moment_defining_equation_on_sections():
    rng = random.Random(11)
    for rank in (1, 2):
        drho = [[[rng.randint(-2, 2) if i == j else 0 for j in range(rank)]
                 for i in range(rank)]]
        a = random_invariant_connection(ROT, rank, rng, drho=drho)
        if not connection_is_invariant(ROT, a, drho):
            continue
        mu = moment_map(a, drho, ROT)
        for _ in range(5):
            phi = [parse_form(f"{rng.randint(-3, 3)} + {rng.randint(-2, 2)}*x1*x2", 1, 2)
                   for _ in range(rank)]
            assert moment_defining_equation_check(ROT, a, drho, mu, phi)
        # the check can fail: move one moment entry by a constant
        moved = [[[f for f in row] for row in comp] for comp in mu.components]
        moved[0][0][0] = moved[0][0][0] + EquivariantForm.constant(1, 2, 1)
        phi = [EquivariantForm.constant(1, 2, 1)] * rank
        assert moment_defining_equation_check(ROT, a, drho, mu, phi)
        assert not moment_defining_equation_check(ROT, a, drho, MomentMap(rank, moved), phi)


@pytest.mark.parametrize("act", [ROT, LinearAction.so3_vector_r3()], ids=["rotation", "so3"])
def test_no_bundle_action_is_the_zero_action_at_every_entry_point(act):
    # drho=None turns into forms in bundle_action_matrices alone, as k zero
    # r x r matrices, so every entry point answers as for an explicit zero drho
    rng = random.Random(13)
    k, m = act.lie_algebra.dim, act.m
    poly = InvariantPolynomial("chern", 1)
    for rank in (1, 2):
        zero = [[[0] * rank for _ in range(rank)] for _ in range(k)]
        assert bundle_action_matrices(None, rank, k, m) == [form_zero_matrix(rank, k, m)] * k
        assert bundle_action_matrices(zero, rank, k, m) == [form_zero_matrix(rank, k, m)] * k
        assert [c.entries for c in invariant_connection_space(act, rank, x_bound=1)] == \
            [c.entries for c in invariant_connection_space(act, rank, drho=zero, x_bound=1)]
        a0 = random_invariant_connection(act, rank, rng, x_bound=1)
        a1 = random_invariant_connection(act, rank, rng, x_bound=1)
        bad = ConnectionMatrix(rank, form_mat_add(
            a0.entries, [[parse_form("x1*dx1" if i == j == 0 else "0", k, m)
                          for j in range(rank)] for i in range(rank)]))
        assert not connection_is_invariant(act, bad)
        for c in (a0, a1, bad):
            assert connection_is_invariant(act, c) == connection_is_invariant(act, c, zero)
        mu = moment_map(a0, None, act)
        assert mu == moment_map(a0, zero, act)
        phi = [parse_form(f"{i + 1} + x1*x2", k, m) for i in range(rank)]
        moved = MomentMap(rank, [form_mat_add(comp, [[EquivariantForm.constant(k, m, 1)] * rank]
                                              * rank) for comp in mu.components])
        for got in (mu, moved):
            assert moment_defining_equation_check(act, a0, None, got, phi) == \
                moment_defining_equation_check(act, a0, zero, got, phi) == (got is mu)
        assert transgression(act, a0, a1, poly) == transgression(act, a0, a1, poly, zero)
        assert whitney_check(act, a0, a1) == whitney_check(act, a0, a1, zero, zero)


# --- invariant polynomials --------------------------------------------------------


def test_conjugation_invariance():
    # 50+ random rational matrices per polynomial, across ranks <= 4
    rng = random.Random(17)
    for kind, k in [("chern", 1), ("chern", 2), ("trace_power", 2),
                    ("trace_power", 3), ("total_chern", 0), ("pontryagin", 1)]:
        for rank in (2, 3, 4):
            poly = InvariantPolynomial(kind, k)
            assert conjugation_invariance_check(poly, rank, rng, trials=17)


def test_flat_trivial_gives_constant_term():
    a = ConnectionMatrix.zero(2, 1, 2)
    mu = moment_map(a, [[[0, 0], [0, 0]]], ROT)
    out = equivariant_characteristic_form(InvariantPolynomial("total_chern"), curvature(a), mu)
    assert out == EquivariantForm.constant(1, 2, 1)


def test_flat_representation_form_is_polynomial_in_u():
    # A = 0 with a linear representation: P(R + mu) = P(drho), zero exterior
    # degree, for total-Chern and trace-power polynomials (ranks <= 3)
    rng = random.Random(23)
    su2 = LinearAction.so3_vector_r3()
    cases = [
        (ROT, [[[0, -2], [2, 0]]], 2),
        (ROT, [[[5]]], 1),
        (su2, su2.rep, 3),  # the vector representation acting on its own fibers
    ]
    for act, drho, rank in cases:
        a = ConnectionMatrix.zero(rank, act.lie_algebra.dim, act.m)
        mu = moment_map(a, drho, act)
        for poly in [InvariantPolynomial("total_chern"),
                     InvariantPolynomial("trace_power", 2)]:
            out = equivariant_characteristic_form(poly, curvature(a), mu)
            assert out.form_degrees() <= {0}
            assert all(sum(x) == 0 for (_u, x, _dx) in out.terms)  # constant in x
            # oracle: scalar u-polynomial determinant/trace of sum_a u_a drho_a
            oracle = _scalar_poly_oracle(poly, drho, act.lie_algebra.dim, act.m)
            assert out == oracle
    del rng


def _scalar_poly_oracle(poly, drho, num_u, num_x):
    """P(sum_a u_a drho_a) computed on a scalar matrix of u-polynomials."""
    rank = len(drho[0])
    m = form_zero_matrix(rank, num_u, num_x)
    for a, mat in enumerate(drho):
        entries = [[EquivariantForm.constant(num_u, num_x, mat[i][j]).u_times(a)
                    for j in range(rank)] for i in range(rank)]
        m = form_mat_add(m, entries)
    return poly.evaluate(m)


def test_weight_line_bundle_first_chern():
    q = 3
    a = ConnectionMatrix.zero(1, 1, 2)
    mu = moment_map(a, [[[q]]], ROT)
    c1 = equivariant_characteristic_form(InvariantPolynomial("chern", 1), curvature(a), mu)
    assert c1 == parse_form(f"{q}*u1", 1, 2)


def test_characteristic_forms_are_closed():
    rng = random.Random(29)
    for rank in (1, 2):
        for _ in range(5):
            a = random_invariant_connection(ROT, rank, rng)
            mu = moment_map(a, [[[0] * rank for _ in range(rank)]], ROT)
            for poly in [InvariantPolynomial("chern", 1), InvariantPolynomial("trace_power", 2),
                         InvariantPolynomial("total_chern")]:
                omega = equivariant_characteristic_form(poly, curvature(a), mu)
                assert cartan_d(ROT, omega).is_zero()
                assert is_invariant(ROT, omega)


# --- transgression -----------------------------------------------------------------


def test_transgression_of_equal_connections_vanishes():
    rng = random.Random(31)
    a = random_invariant_connection(ROT, 2, rng)
    poly = InvariantPolynomial("chern", 1)
    assert transgression(ROT, a, a, poly).is_zero()


def test_abelian_transgression_explicit():
    # rank 1, P = c1, A0 = 0, A1 = alpha: the transgression is alpha itself
    # (the t-integral of dt ^ alpha), and d of it is R1 - R0 = d alpha
    trivial = LinearAction(LieAlgebra.abelian(1), [[[0, 0], [0, 0]]])
    a0 = ConnectionMatrix.zero(1, 1, 2)
    alpha = parse_form("x1*dx2", 1, 2)
    a1 = ConnectionMatrix(1, [[alpha]])
    poly = InvariantPolynomial("chern", 1)
    tr = transgression(trivial, a0, a1, poly)
    assert tr == alpha
    assert tr.d() == curvature(a1).entries[0][0]


def test_transgression_identity_random_pairs():
    rng = random.Random(37)
    poly_c1 = InvariantPolynomial("chern", 1)
    poly_c2 = InvariantPolynomial("chern", 2)
    checked = 0
    for _ in range(50):
        rank = rng.choice([1, 2])
        a0 = random_invariant_connection(ROT, rank, rng)
        a1 = random_invariant_connection(ROT, rank, rng)
        drho = [[[0] * rank for _ in range(rank)]]
        poly = poly_c2 if rank == 2 and rng.random() < 0.5 else poly_c1
        tr = transgression(ROT, a0, a1, poly)
        want = (equivariant_characteristic_form(poly, curvature(a1), moment_map(a1, drho, ROT))
                - equivariant_characteristic_form(poly, curvature(a0), moment_map(a0, drho, ROT)))
        assert cartan_d(ROT, tr) == want
        checked += 1
    assert checked == 50


def test_transgression_path_reparametrization_stable():
    rng = random.Random(41)
    poly = InvariantPolynomial("chern", 1)
    for _ in range(5):
        a0 = random_invariant_connection(ROT, 2, rng)
        a1 = random_invariant_connection(ROT, 2, rng)
        straight = transgression(ROT, a0, a1, poly)
        bent = reparametrized_transgression(ROT, a0, a1, poly)
        assert straight == bent


def test_reparametrized_transgression_differs_by_exact_form():
    # The square (t, r) -> (1 - s) A0 + s A1 with s = (1 - r) t + r t^2 (3 - 2t)
    # joins the straight path (r = 0) to the bent one (r = 1) and is constant
    # on the sides t = 0 and t = 1.  P of it is d_C-closed, so Stokes on the
    # square gives bent - straight = -d_C(eta) with eta the integral of P over
    # the square (r integrated first, then t).  Both paths run along one
    # segment, so for these linear families the difference is zero as well.
    rng = random.Random(59)
    half = Fraction(1, 2)
    for rank, poly in [(1, InvariantPolynomial("chern", 1)),
                       (2, InvariantPolynomial("chern", 2)),
                       (2, InvariantPolynomial("trace_power", 2))]:
        drho = [[[half if i == j else 0 for j in range(rank)] for i in range(rank)]]
        a0 = random_invariant_connection(ROT, rank, rng, drho=drho)
        a1 = random_invariant_connection(ROT, rank, rng, drho=drho)
        straight = transgression(ROT, a0, a1, poly, drho)
        bent = reparametrized_transgression(ROT, a0, a1, poly, drho)
        want = (equivariant_characteristic_form(poly, curvature(a1), moment_map(a1, drho, ROT))
                - equivariant_characteristic_form(poly, curvature(a0), moment_map(a0, drho, ROT)))
        assert cartan_d(ROT, bent) == want

        num_x = ROT.m + 2
        t = EquivariantForm.coordinate(1, num_x, ROT.m)
        r = EquivariantForm.coordinate(1, num_x, ROT.m + 1)
        one = EquivariantForm.constant(1, num_x, 1)
        bend = t.wedge(t).wedge(EquivariantForm.constant(1, num_x, 3) - t.scale(2))
        s = (one - r).wedge(t) + r.wedge(bend)
        square = ConnectionMatrix(rank, [
            [(one - s).wedge(e0.embed(num_x)) + s.wedge(e1.embed(num_x))
             for e0, e1 in zip(row0, row1)]
            for row0, row1 in zip(a0.entries, a1.entries)])
        act2 = ROT.extend_trivially(2)
        omega = equivariant_characteristic_form(poly, curvature(square),
                                                moment_map(square, drho, act2))
        assert cartan_d(act2, omega).is_zero()
        eta = omega.fiber_integrate().fiber_integrate()
        assert bent - straight == -cartan_d(ROT, eta)


def test_transgression_identity_rational_action_and_connections():
    # weight 1/2, a rational bundle action and connections scaled by 1/3 mix
    # int and Fraction coefficients all the way through
    half = LinearAction.circle_rotation_r2(weight=Fraction(1, 2))
    rng = random.Random(61)
    third = Fraction(1, 3)
    seen_fraction = seen_nonzero = False
    for rank, poly in [(1, InvariantPolynomial("chern", 1)),
                       (2, InvariantPolynomial("chern", 1)),
                       (2, InvariantPolynomial("chern", 2))]:
        drho = [[[Fraction(1, 2) if i == j else 0 for j in range(rank)]
                 for i in range(rank)]]
        a0, a1 = (ConnectionMatrix(rank, form_mat_scale(
            random_invariant_connection(half, rank, rng, drho=drho).entries, third))
            for _ in range(2))
        tr = transgression(half, a0, a1, poly, drho)
        want = (equivariant_characteristic_form(poly, curvature(a1), moment_map(a1, drho, half))
                - equivariant_characteristic_form(poly, curvature(a0), moment_map(a0, drho, half)))
        assert cartan_d(half, tr) == want
        values = list(tr.terms.values()) + list(want.terms.values())
        assert all(type(v) is int or v.denominator > 1 for v in values)
        seen_fraction |= any(type(v) is Fraction for v in values)
        seen_nonzero |= not want.is_zero()
    assert seen_fraction and seen_nonzero


# --- Whitney sum --------------------------------------------------------------------


def test_whitney_flat_commuting_case():
    a1 = ConnectionMatrix.zero(1, 1, 2)
    a2 = ConnectionMatrix.zero(2, 1, 2)
    v = whitney_check(ROT, a1, a2, drho=[[[2]]], drho2=[[[1, 0], [0, -1]]])
    assert v.holds


def test_whitney_rank_one_pair_explicit():
    a1 = conn([["x1*dx2"]])
    a2 = conn([["x2*dx1"]])
    v = whitney_check(ROT, a1, a2)
    assert v.holds
    # witness forms: the degree-1 coefficient is the trace R1 + R2 + u(mu1 + mu2);
    # here the curvatures dx1^dx2 and -dx1^dx2 cancel and the moments remain
    total_c1 = v.sum_coefficients[1]
    mu1 = a1.entries[0][0].contract_linear_field(ROT.rep[0]).u_times(0)
    mu2 = a2.entries[0][0].contract_linear_field(ROT.rep[0]).u_times(0)
    want = (curvature(a1).entries[0][0] + curvature(a2).entries[0][0] + mu1 + mu2)
    assert total_c1 == want
    assert total_c1 == parse_form("u1*x1^2 - u1*x2^2", 1, 2)


def test_whitney_random_blocks():
    rng = random.Random(43)
    for _ in range(50):
        r1 = rng.choice([1, 2])
        r2 = rng.choice([1, 2, 3 - r1])
        a1 = random_invariant_connection(ROT, r1, rng, x_bound=1)
        a2 = random_invariant_connection(ROT, r2, rng, x_bound=1)
        drho1 = [[[rng.randint(-2, 2) if i == j else 0 for j in range(r1)] for i in range(r1)]]
        drho2 = [[[rng.randint(-2, 2) if i == j else 0 for j in range(r2)] for i in range(r2)]]
        assert whitney_check(ROT, a1, a2, drho1, drho2).holds


# --- product axiom at the form level --------------------------------------------------


def test_leibniz_and_product_axiom_shadow():
    rng = random.Random(47)
    for _ in range(30):
        alpha = _random_homogeneous(rng)
        omega = _random_homogeneous(rng)
        d_alpha = cartan_d(ROT, alpha)
        d_omega = cartan_d(ROT, omega)
        (degree,) = alpha.cartan_degrees()
        sign = -1 if degree % 2 else 1
        lhs = cartan_d(ROT, alpha.wedge(omega))
        rhs = d_alpha.wedge(omega) + alpha.wedge(d_omega).scale(sign)
        assert lhs == rhs
    # a(alpha) cup x = a(alpha ^ R(x)): both curvatures agree at the form level
    a = random_invariant_connection(ROT, 1, rng)
    mu = moment_map(a, [[[1]]], ROT)
    r_x = equivariant_characteristic_form(InvariantPolynomial("chern", 1), curvature(a), mu)
    assert cartan_d(ROT, r_x).is_zero()
    alpha = parse_form("x1*dx2 - x2*dx1", 1, 2)
    lhs = cartan_d(ROT, alpha.wedge(r_x))
    rhs = cartan_d(ROT, alpha).wedge(r_x)
    assert lhs == rhs


def _random_homogeneous(rng):
    while True:
        num_u, num_x = 1, 2
        u = (rng.randint(0, 1),)
        x = tuple(rng.randint(0, 2) for _ in range(2))
        r = rng.randint(0, 2)
        dx = tuple(sorted(rng.sample(range(2), r)))
        coeff = rng.randint(-3, 3)
        if coeff:
            return EquivariantForm(num_u, num_x, {(u, x, dx): Fraction(coeff)})


# --- invariant connection spaces -------------------------------------------------------


def test_invariant_connection_space_nontrivial():
    from eqcohom.linalg import q_rank

    basis = invariant_connection_space(ROT, 1, x_bound=1)
    assert basis
    for c in basis:
        assert connection_is_invariant(ROT, c)
    # the angular form x1 dx2 - x2 dx1 lies in the computed span
    angular = parse_form("x1*dx2 - x2*dx1", 1, 2)
    keys = sorted({k for c in basis for k in c.entries[0][0].terms} | set(angular.terms))
    vectors = [[c.entries[0][0].terms.get(k, Fraction(0)) for k in keys] for c in basis]
    target = [angular.terms.get(k, Fraction(0)) for k in keys]
    assert q_rank(vectors + [target]) == q_rank(vectors)


def test_invariant_connection_space_builds_bundle_action_once(monkeypatch):
    build = chern.bundle_action_matrices
    calls = []

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(chern, "bundle_action_matrices", counting_build)
    drho = [[[1, 0], [0, -1]]]
    basis = invariant_connection_space(ROT, 2, drho=drho, x_bound=1)
    assert len(calls) == 1
    assert basis and all(connection_is_invariant(ROT, c, drho) for c in basis)


def test_moment_map_builds_bundle_action_once(monkeypatch):
    # the invariance criterion and the components share one conversion of drho
    build = chern.bundle_action_matrices
    calls = []

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(chern, "bundle_action_matrices", counting_build)
    drho = [[[1, 0], [0, -1]]]
    a = invariant_connection_space(ROT, 2, drho=drho, x_bound=1)[0]
    calls.clear()
    mu = moment_map(a, drho, ROT)
    assert len(calls) == 1
    # mu(X) = iota(X^#) A + drho(X), built from the public pieces
    mats = build(drho, 2, a.num_u, a.num_x)
    assert mu.components[0] == form_mat_add(
        [[entry.contract_linear_field(ROT.rep[0]) for entry in row] for row in a.entries],
        mats[0])
    calls.clear()
    with pytest.raises(ConnectionNotInvariant):
        moment_map(conn([["x1*dx1"]]), [[[0]]], ROT)
    assert len(calls) == 1
