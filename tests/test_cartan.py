import math
import random
from fractions import Fraction

import pytest

import eqcohom.cartan as cartan
from eqcohom.cartan import (
    EquivariantForm,
    LieAlgebra,
    LinearAction,
    ShuffleIndex,
    TruncationUnstable,
    _cartan_cohomology_dim,
    _monomials_of_cartan_degree,
    cartan_cohomology_truncated,
    cartan_d,
    fiber_integrate_interval,
    format_form,
    fundamental_vector_field,
    getzler_chain_map_check,
    getzler_dbar_matrix,
    getzler_map_finite,
    group_transform,
    is_invariant,
    lie_derivative,
    parse_form,
    shuffle_set,
    total_lie,
)
from eqcohom.linalg import q_nullspace, q_rank
from eqcohom.simplicial import GAction, bar_levels


ROT = LinearAction.circle_rotation_r2()
SO3 = LinearAction.so3_vector_r3()


def form(text, act=ROT):
    return parse_form(text, act.lie_algebra.dim, act.m)


def random_form(rng, act, max_x=3, max_terms=4):
    num_u, num_x = act.lie_algebra.dim, act.m
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        u = tuple(rng.randint(0, 1) for _ in range(num_u))
        x = tuple(rng.randint(0, max_x) for _ in range(num_x))
        r = rng.randint(0, num_x)
        dx = tuple(sorted(rng.sample(range(num_x), r)))
        terms[(u, x, dx)] = Fraction(rng.randint(-4, 4))
    return EquivariantForm(num_u, num_x, terms)


# --- Lie algebras ---------------------------------------------------------------


def test_so3_brackets():
    g = LieAlgebra.so3()
    assert g.bracket_coeffs(0, 1) == [0, 0, 1]
    assert g.bracket_coeffs(1, 0) == [0, 0, -1]
    with pytest.raises(ValueError):
        LieAlgebra(2, {(0, 0, 1): 1})  # not antisymmetric


def test_rep_bracket_validation():
    with pytest.raises(ValueError):
        LinearAction(LieAlgebra.so3(), [
            [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
            [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],  # wrong third generator
        ])


# --- fundamental vector fields ----------------------------------------------------


def test_zero_field():
    v = fundamental_vector_field(ROT, [0])
    assert all(all(c == 0 for c in row) for row in v)


def test_rotation_field():
    v = fundamental_vector_field(ROT, [1])
    # X#(x, y) = (-y, x)
    assert v == [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]


def test_field_bracket_convention():
    # [X#, Y#] = -[X, Y]# for linear left actions
    g = SO3.lie_algebra
    for b in range(3):
        for c in range(3):
            vb = fundamental_vector_field(SO3, [1 if i == b else 0 for i in range(3)])
            vc = fundamental_vector_field(SO3, [1 if i == c else 0 for i in range(3)])
            # bracket of linear fields Ax, Bx is (BA - AB) x
            from eqcohom.cartan import _mat_sub
            from eqcohom.linalg import q_mul
            bracket = _mat_sub(q_mul(vc, vb), q_mul(vb, vc))
            want = fundamental_vector_field(SO3, [-v for v in g.bracket_coeffs(b, c)])
            assert bracket == want


# --- the Cartan differential -------------------------------------------------------


def test_cartan_d_constant_dies():
    assert cartan_d(ROT, form("1")).is_zero()


def test_cartan_d_rotation_example():
    omega = form("x1*dx2 - x2*dx1")
    out = cartan_d(ROT, omega)
    assert out == form("2*dx1^dx2 + u1*x1^2 + u1*x2^2")
    # the example is invariant, so d_C squares to zero on it
    assert cartan_d(ROT, out).is_zero()


def test_cartan_degree_raises_by_one():
    rng = random.Random(7)
    for act in (ROT, SO3):
        for _ in range(40):
            omega = random_form(rng, act)
            image = cartan_d(act, omega)
            for (u, _x, dx) in image.terms:
                in_degs = omega.cartan_degrees()
                assert 2 * sum(u) + len(dx) - 1 in in_degs


def test_dc_squared_is_u_weighted_lie_derivative():
    # d_C^2 w = sum_a u_a L_{X_a} w, exactly, invariant or not (200 random forms)
    rng = random.Random(2024)
    for act in (ROT, SO3):
        for _ in range(100):
            omega = random_form(rng, act)
            lhs = cartan_d(act, cartan_d(act, omega))
            rhs = EquivariantForm.zero(act.lie_algebra.dim, act.m)
            for a in range(act.lie_algebra.dim):
                rhs = rhs + lie_derivative(act, a, omega).u_times(a)
            assert lhs == rhs


def test_dc_squared_zero_on_invariants():
    rng = random.Random(5)
    radial = form("x1^2 + x2^2")
    assert cartan_d(ROT, cartan_d(ROT, radial)).is_zero()
    for _ in range(20):
        # invariant by averaging structure: functions of the radius
        k = rng.randint(1, 3)
        omega = form(f"x1^{2 * k} + {k}*x1^2 + {k}*x2^2") if k > 1 else radial
        if not is_invariant(ROT, omega):
            continue
        assert cartan_d(ROT, cartan_d(ROT, omega)).is_zero()


# --- invariance ---------------------------------------------------------------------


def test_is_invariant_examples():
    assert is_invariant(ROT, form("x1^2 + x2^2"))
    assert not is_invariant(ROT, form("x1"))
    assert is_invariant(ROT, form("u1*x1^2 + u1*x2^2"))
    assert is_invariant(ROT, form("x1*dx2 - x2*dx1"))
    assert is_invariant(ROT, form("dx1^dx2"))


def test_invariance_of_so3_pairing():
    # sum_a u_a x_a is the equivariant pairing; needs the coadjoint twist
    omega = parse_form("u1*x1 + u2*x2 + u3*x3", 3, 3)
    assert is_invariant(SO3, omega)
    assert not is_invariant(SO3, parse_form("u1*x1", 3, 3))
    # manifold Lie derivative alone does not vanish on it
    assert not all(lie_derivative(SO3, a, omega).is_zero() for a in range(3))


def test_d_preserves_invariance():
    rng = random.Random(31)
    candidates = [form("x1^2 + x2^2"), form("x1*dx2 - x2*dx1"), form("dx1^dx2"),
                  parse_form("u1*x1 + u2*x2 + u3*x3", 3, 3)]
    acts = [ROT, ROT, ROT, SO3]
    del rng
    for act, omega in zip(acts, candidates):
        assert is_invariant(act, omega)
        assert is_invariant(act, cartan_d(act, omega))


def test_finite_subgroup_invariance():
    act = LinearAction.circle_rotation_r2(finite_order=4)
    assert is_invariant(act, parse_form("x1^2 + x2^2", 1, 2))
    # x1*x2 is killed by the connected test? L(x1 x2) = -x2^2 + x1^2 != 0, so
    # use a rotation-by-pi/2 violating example that IS infinitesimally flat:
    # any function of the radius passes both; a quadrupole passes neither.
    assert not is_invariant(act, parse_form("x1^4 - x2^4", 1, 2))


def test_group_transform_is_action():
    act = LinearAction.circle_rotation_r2(finite_order=4)
    g, ad = act.finite_elements[0]
    omega = parse_form("x1 + 2*x2 + x1*dx2", 1, 2)
    once = group_transform(act, omega, g, ad)
    twice = group_transform(act, once, g, ad)
    g2 = [[-1, 0], [0, -1]]
    assert twice == group_transform(act, omega, g2, [[1]])


def test_finite_elements_inverted_once_per_action(monkeypatch):
    calls = []
    inverse = cartan.q_inverse
    monkeypatch.setattr(cartan, "q_inverse", lambda m: calls.append(m) or inverse(m))
    act = LinearAction.circle_rotation_r2(finite_order=4)
    assert len(calls) == 2  # g and Ad(g), at construction
    table = [cartan_cohomology_truncated(act, n, 6) for n in range(6)]
    assert table == [(1, True), (0, True)] * 3
    cartan_cohomology_truncated(act, 2, 2)
    assert len(calls) == 2  # none per monomial, at bound 6 as at bound 2


def test_singular_finite_element_rejected_at_construction():
    with pytest.raises(ValueError, match="invertible"):
        LinearAction(LieAlgebra.abelian(1), [[[0, -1], [1, 0]]], [([[1, 0], [0, 0]], [[1]])])
    with pytest.raises(ValueError, match="invertible"):
        LinearAction(LieAlgebra.abelian(1), [[[0, -1], [1, 0]]], [([[0, -1], [1, 0]], [[0]])])


# --- wedge algebra -------------------------------------------------------------------


def test_wedge_graded_commutative():
    rng = random.Random(12)
    for _ in range(60):
        a = random_form(rng, ROT)
        b = random_form(rng, ROT)
        try:
            da = a.cartan_degree()
            db = b.cartan_degree()
        except ValueError:
            continue
        lhs = a.wedge(b)
        sign = -1 if (da % 2) and (db % 2) else 1
        # graded commutativity uses the form degree, not the Cartan degree:
        # u variables are even, dx odd; restrict to single-term forms
        fa = list(a.form_degrees())
        fb = list(b.form_degrees())
        if len(fa) != 1 or len(fb) != 1:
            continue
        sign = -1 if (fa[0] % 2) and (fb[0] % 2) else 1
        assert lhs == b.wedge(a).scale(sign)


def test_integral_coefficients_are_stored_as_int():
    key = ((0,), (1, 0), (1,))
    forms = [EquivariantForm(1, 2, {key: v}) for v in (2, Fraction(2), Fraction(4, 2))]
    assert forms[0] == forms[1] == forms[2]
    assert len({hash(f) for f in forms}) == 1
    assert all(type(f.terms[key]) is int for f in forms)
    assert {str(f) for f in forms} == {"2*x1*dx2"}
    half = EquivariantForm(1, 2, {key: Fraction(1, 2)})
    assert type(half.terms[key]) is Fraction
    assert str(half) == "1/2*x1*dx2"
    # a Fraction that becomes integral by arithmetic is stored as an int again
    assert type((half + half).terms[key]) is int
    assert type(half.scale(Fraction(4)).terms[key]) is int


def test_integral_action_keeps_int_coefficients():
    assert all(type(v) is int for m in ROT.rep for row in m for v in row)
    assert all(type(v) is int for (a, b, c), v in SO3.lie_algebra.structure.items())
    omega = form("x1^2*x2*dx1 + 3*u1*x2^2*dx1^dx2")
    images = [cartan_d(ROT, omega), total_lie(ROT, 0, omega), lie_derivative(ROT, 0, omega)]
    images += [cartan_d(SO3, form("x1*x2*dx3 - 2*x3*dx1^dx2", SO3)),
               total_lie(SO3, 1, form("u1*x1*x3 + u3*dx2", SO3))]
    assert all(type(v) is int for img in images for v in img.terms.values())
    assert all(not img.is_zero() for img in images)


def test_print_parse_roundtrip():
    rng = random.Random(77)
    for act in (ROT, SO3):
        for _ in range(40):
            omega = random_form(rng, act)
            text = format_form(omega)
            back = parse_form(text, act.lie_algebra.dim, act.m)
            assert back == omega, text


# --- truncated cohomology -------------------------------------------------------------


def test_rotation_plane_cohomology_even():
    # H_{S1}(R^2) is a polynomial ring on the degree-2 generator u
    for n, want in [(0, 1), (2, 1), (4, 1)]:
        dim, _ = cartan_cohomology_truncated(ROT, n, 6)
        assert dim == want


def test_rotation_plane_cohomology_odd():
    for n in (1, 3, 5):
        dim, _ = cartan_cohomology_truncated(ROT, n, 6)
        assert dim == 0


def test_so3_odd_degree_vanishes():
    # H^odd(BSO(3); Q) = 0: the cocycle |x|^2 (x . dx) has x-degree 3, inside
    # the cap, but its primitive |x|^4 / 4 has x-degree 4, one above it
    dim, _ = cartan_cohomology_truncated(SO3, 1, 3)
    assert dim == 0


def test_trivial_symmetry_line():
    # R^1 with the zero generator: constants in degree zero, nothing above
    one_dim = LinearAction(LieAlgebra.abelian(1), [[[0]]])
    dim, _ = cartan_cohomology_truncated(one_dim, 0, 3)
    assert dim == 1


# Chevalley-Weil: polynomial forms on R^m are acyclic by a linear homotopy
# that commutes with the action, so the Cartan cohomology is S(g*)^G, with
# u in degree 2 (Berline-Getzler-Vergne ch. 7; Guillemin-Sternberg ch. 4).
def circle_table(n):
    """H^n of Q[u], u in degree 2."""
    return 1 if n % 2 == 0 else 0


def quartic_table(n):
    """H^n of a polynomial ring on one generator of degree 4: Q[p1] with
    p1 = u1^2 + u2^2 + u3^2 for SO(3), Q[u^2] for O(2)."""
    return 1 if n % 4 == 0 else 0


@pytest.mark.parametrize("act", [
    LinearAction.circle_rotation_r2(),
    LinearAction.circle_rotation_r2(weight=2),
    LinearAction.circle_rotation_r2(weight=Fraction(1, 2)),
    LinearAction.circle_rotation_r2(finite_order=2),
    LinearAction.circle_rotation_r2(finite_order=4),
], ids=["weight1", "weight2", "weight_half", "order2", "order4"])
def test_circle_matches_chevalley_weil(act):
    for n in range(7):
        assert cartan_cohomology_truncated(act, n, 4)[0] == circle_table(n), n


def test_so3_matches_chevalley_weil():
    for n in range(7):
        assert cartan_cohomology_truncated(SO3, n, 2)[0] == quartic_table(n), n


# O(2) acting on R through the determinant: SO(2) acts trivially and a
# reflection flips both x and u, so S(g*)^G = Q[u^2] with u^2 in degree 4
O2_DET = LinearAction(LieAlgebra.abelian(1), [[[0]]], [([[-1]], [[-1]])])


def test_o2_on_determinant_line_matches_chevalley_weil():
    for n in range(7):
        assert cartan_cohomology_truncated(O2_DET, n, 4)[0] == quartic_table(n), n


def dense_reference(act, n, x_bound):
    """The dense formula the rank computation replaced: bases of the
    invariant forms from q_nullspace of the stacked invariance operator,
    then the kernel and the in-cap image of d_C on those bases."""
    num_u, num_x = act.lie_algebra.dim, act.m

    def invariant_forms(deg, bound):
        basis = _monomials_of_cartan_degree(num_u, num_x, deg, bound)
        images = []
        for key in basis:
            f = EquivariantForm(num_u, num_x, {key: 1})
            images.append([total_lie(act, a, f) for a in range(num_u)]
                          + [group_transform(act, f, g, ad) - f
                             for g, ad in act.finite_elements])
        rows = []
        for op in range(num_u + len(act.finite_elements)):
            keys = sorted({k for img in images for k in img[op].terms})
            rows += [[img[op].terms.get(k, Fraction(0)) for img in images] for k in keys]
        if rows:
            coords = q_nullspace(rows)
        else:
            coords = [[Fraction(int(i == j)) for j in range(len(basis))]
                      for i in range(len(basis))]
        return [EquivariantForm(num_u, num_x, dict(zip(basis, vec))) for vec in coords]

    def matrix(forms, basis):
        return [[f.terms.get(key, Fraction(0)) for f in forms] for key in basis]

    inv_n = invariant_forms(n, x_bound)
    inv_prev = invariant_forms(n - 1, x_bound + 1)
    target = _monomials_of_cartan_degree(num_u, num_x, n + 1, x_bound + 1)
    dim_ker = len(inv_n) - q_rank(matrix([cartan_d(act, f) for f in inv_n], target))
    mid = _monomials_of_cartan_degree(num_u, num_x, n, x_bound + 2)
    over = [key for key in mid if sum(key[1]) > x_bound]
    images = [cartan_d(act, f) for f in inv_prev]
    dim_img_in = q_rank(matrix(images, mid)) - q_rank(matrix(images, over))
    saturated = any(f.x_degree_max() >= x_bound - 1 for f in inv_n + inv_prev)
    return dim_ker - dim_img_in, saturated


def test_ranks_match_dense_reference():
    half = LinearAction.circle_rotation_r2(weight=Fraction(1, 2))
    cases = [(ROT, range(5), range(4)), (half, range(5), range(4)),
             (LinearAction.circle_rotation_r2(finite_order=4), range(5), range(4)),
             (LinearAction(LieAlgebra.abelian(1), [[[0]]]), range(4), range(3)),
             # scalings of the line: invariants only at x-degree 0, so the
             # flag is False above bound 1
             (LinearAction(LieAlgebra.abelian(1), [[[1]]]), range(4), range(4)),
             (LinearAction(LieAlgebra.abelian(1), [[[Fraction(2, 3)]]]), range(4), range(4)),
             (ROT.extend_trivially(), range(4), range(3)),
             (O2_DET, range(5), range(4)),
             (SO3, range(3), range(3))]
    for act, degrees, bounds in cases:
        for n in degrees:
            for b in bounds:
                assert _cartan_cohomology_dim(act, n, b, {}) == dense_reference(act, n, b), \
                    (act.rep, n, b)


def test_zero_lie_algebra():
    # no symmetry on R^0: the Cartan complex is Q in degree 0
    act = LinearAction(LieAlgebra.abelian(0), [])
    assert cartan_cohomology_truncated(act, 0, 2) == (1, False)
    assert cartan_cohomology_truncated(act, 0, 0) == (1, True)
    for n in range(1, 4):
        assert cartan_cohomology_truncated(act, n, 2)[0] == 0


def test_stability_checked_at_consecutive_bounds(monkeypatch):
    # an error that repeats with the parity of the bound agrees at b and b + 2
    exact = cartan._cartan_cohomology_dim

    def parity_error(act, n, x_bound, images):
        dim, saturated = exact(act, n, x_bound, images)
        return dim + x_bound % 2, saturated

    monkeypatch.setattr(cartan, "_cartan_cohomology_dim", parity_error)
    with pytest.raises(TruncationUnstable, match=r"bounds \[6, 7, 8\]"):
        cartan_cohomology_truncated(ROT, 2, 6)


def test_negative_x_bound_rejected_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a rank was computed")

    monkeypatch.setattr(cartan, "_cartan_cohomology_dim", no_work)
    for bound in (-1, -3):
        with pytest.raises(ValueError, match=f"x_bound must be nonnegative, got {bound}"):
            cartan_cohomology_truncated(ROT, 0, bound)


# --- fiber integration ------------------------------------------------------------


def test_fiber_integrate_no_dt():
    omega = parse_form("x1*dx2", 1, 3)  # t = x3
    assert fiber_integrate_interval(omega).is_zero()


def test_fiber_integrate_constant():
    omega = parse_form("dx3^dx1", 1, 3).scale(-1)  # dt^dx1 = -dx1^dt... normalize
    # dt ^ (x1 dx2): encode directly with t last
    omega = parse_form("x1*dx2^dx3", 1, 3)
    out = fiber_integrate_interval(omega)
    # dx2^dt = -dt^dx2, so the integral of x1 dx2^dt is -x1 dx2
    assert out == parse_form("-1*x1*dx2", 1, 2)


def test_fiber_integrate_polynomial():
    # w = t dt^alpha + t^2 beta with alpha = dx1, beta = dx1: dt part gives alpha/2
    omega = parse_form("x3*dx3^dx1 + x3^2*dx1", 1, 3)
    out = fiber_integrate_interval(omega)
    # dx3^dx1 = -dx1^dx3: t dt^dx1 integrates to dx1/2; stored term x3*dx3^dx1
    # is t dt^dx1 directly (dx3 comes first in the key after sorting: dx1^dx3
    # with sign -1)... rely on the homotopy identity test below for signs;
    # here check the t-power rule only
    vals = list(out.terms.values())
    assert vals and all(abs(v) == Fraction(1, 2) for v in vals)


def test_homotopy_identity_random():
    # d_C (int w) + int (d_C w) = i_1^* w - i_0^* w for 100 random polynomial forms
    rng = random.Random(99)
    act3 = ROT.extend_trivially()  # rotation on R^2, trivial on the interval
    for _ in range(100):
        omega = random_form(rng, act3, max_x=4)
        lhs = cartan_d(ROT, fiber_integrate_interval(omega)) + \
            fiber_integrate_interval(cartan_d(act3, omega))
        rhs = omega.restrict_t(1) - omega.restrict_t(0)
        assert lhs == rhs


def test_restriction_compatible_with_action():
    act3 = ROT.extend_trivially()
    omega = parse_form("x3*x1*dx2 + x3^2*dx3", 1, 3)
    assert omega.restrict_t(0) == parse_form("0", 1, 2)
    assert omega.restrict_t(1) == parse_form("x1*dx2", 1, 2)
    del act3


# --- shuffles and the finite comparison map ---------------------------------------


def _shuffle_oracle(l, p):
    """Independent enumeration: filter all permutations by the two runs."""
    from itertools import permutations as permute
    out = []
    for pi in permute(range(1, p + 1)):
        if list(pi[:l]) == sorted(pi[:l]) and list(pi[l:]) == sorted(pi[l:]):
            inv = sum(1 for i in range(p) for j in range(i + 1, p) if pi[i] > pi[j])
            out.append((pi, (-1) ** inv))
    return out


def test_shuffle_counts_and_signs():
    assert [s.permutation for s in shuffle_set(0, 3)] == [(1, 2, 3)]
    assert shuffle_set(0, 3)[0].sign == 1
    for l, p in [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)]:
        got = shuffle_set(l, p)
        oracle = dict(_shuffle_oracle(l, p))
        assert len(got) == math.comb(p, l) == len(oracle)
        for s in got:
            assert oracle[s.permutation] == s.sign
    # signed counts from the oracle: (1,2) cancels, (2,4) sums to 2
    assert sum(sign for _, sign in _shuffle_oracle(1, 2)) == 0
    s24 = shuffle_set(2, 4)
    assert sum(s.sign for s in s24) == sum(sign for _, sign in _shuffle_oracle(2, 4)) == 2
    with pytest.raises(ValueError):
        ShuffleIndex(1, 2, (2, 1), 1)  # wrong sign stored


def test_getzler_chain_map_c2_two_points():
    act = GAction.swap_two_points()
    bl = bar_levels(act, 4)
    for p in range(4):
        assert getzler_chain_map_check(bl, p, 0)


def test_getzler_chain_map_rotation_circle():
    act = GAction.cyclic_rotation_circle(3)
    bl = bar_levels(act, 3)
    for p in range(3):
        for q in (0, 1):
            assert getzler_chain_map_check(bl, p, q)


def test_getzler_map_is_identity_on_coordinates():
    act = GAction.swap_two_points()
    bl = bar_levels(act, 2)
    coch = list(range(bl.cells(1, 0)))
    assert getzler_map_finite(bl, 1, 0, coch) == coch
    # applying boundary then the map equals the map then the group-cochain
    # boundary, exhaustively over the basis
    dbar = getzler_dbar_matrix(bl, 1, 0)
    vert = bl.full_vertical_matrix(1, 0)
    for j in range(bl.cells(1, 0)):
        basis_vec = [1 if i == j else 0 for i in range(bl.cells(1, 0))]
        assert dbar.apply(basis_vec) == vert.apply(basis_vec)
