import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import eqcohom.cartan as cartan
import eqcohom.linalg as linalg
from eqcohom.cartan import (
    EquivariantForm,
    LieAlgebra,
    LinearAction,
    CartanCheckFailed,
    CartanComplexTooLarge,
    cartan_cohomology_range,
    cartan_cohomology_truncated,
    cartan_d,
    format_form,
    fundamental_vector_field,
    getzler_chain_map_check,
    getzler_dbar_matrix,
    group_transform,
    is_invariant,
    lie_derivative,
    cartan_size,
    check_cartan_query,
    parse_form,
    total_lie,
)
from eqcohom.cli import EXIT_INTERNAL, main
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
            from eqcohom.cartan import _mat_mul, _mat_sub
            bracket = _mat_sub(_mat_mul(vc, vb), _mat_mul(vb, vc))
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
    once = group_transform(omega, g, ad)
    twice = group_transform(once, g, ad)
    g2 = [[-1, 0], [0, -1]]
    assert twice == group_transform(omega, g2, [[1]])


def test_finite_elements_never_inverted(monkeypatch):
    # a form is fixed by g exactly when it is fixed by g^-1: the constructor,
    # is_invariant and the Cartan blocks pull back along (g, Ad) itself
    def no_dense(*args):
        raise AssertionError("the dense rational engine was used")

    monkeypatch.setattr(cartan, "q_inverse", no_dense)
    monkeypatch.setattr(linalg, "q_rref", no_dense)
    act = LinearAction.circle_rotation_r2(finite_order=4)
    table = [cartan_cohomology_truncated(act, n, 6) for n in range(6)]
    assert table == [(1, [1, 0, 0, 0, 0, 0, 0]), (0, [0] * 7)] * 3
    # O(2) on the plane: the reflection fixes x1, flips x2 and u, so the
    # rotation-invariant u1 and x1 dx2 - x2 dx1 are not O(2)-invariant
    o2 = LinearAction(LieAlgebra.abelian(1), [[[0, -1], [1, 0]]],
                      [([[1, 0], [0, -1]], [[-1]])])
    assert [cartan_cohomology_truncated(o2, n, 4)[0] for n in range(5)] == [1, 0, 0, 0, 1]
    assert is_invariant(o2, parse_form("u1^2 + x1^2 + x2^2", 1, 2))
    assert not is_invariant(o2, parse_form("u1", 1, 2))
    assert not is_invariant(o2, parse_form("x1*dx2 - x2*dx1", 1, 2))


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


# --- cohomology by scaling weight -------------------------------------------------------


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
    # H^odd(BSO(3); Q) = 0: C_0 holds u-polynomials only, all of even
    # degree, and the blocks of weight 1..3 are acyclic
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


def block_basis(act, deg, w):
    """The tuple keys of the monomials of Cartan degree deg and weight w,
    by brute force over all exponents up to the degrees."""
    num_u, num_x = act.lie_algebra.dim, act.m
    return [(u, x, dx) for u in product(range(max(deg, 0) // 2 + 1), repeat=num_u)
            for x in product(range(w + 1), repeat=num_x)
            for r in range(num_x + 1) for dx in combinations(range(num_x), r)
            if 2 * sum(u) + r == deg and sum(x) + r == w]


def dense_reference(act, n, x_bound):
    """dim H^n(C_w) for w = 0..x_bound by dense linear algebra: bases of the
    invariant forms of each block from q_nullspace of the stacked invariance
    operator (group_transform inverting each finite element anew), then the
    kernel and the image of d_C on those bases."""
    num_u, num_x = act.lie_algebra.dim, act.m

    def invariant_forms(deg, w):
        basis = block_basis(act, deg, w)
        images = []
        for key in basis:
            f = EquivariantForm(num_u, num_x, {key: 1})
            images.append([total_lie(act, a, f) for a in range(num_u)]
                          + [group_transform(f, g, ad) - f
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

    def rank_of_d(forms):
        images = [cartan_d(act, f) for f in forms]
        keys = sorted({k for img in images for k in img.terms})
        return q_rank([[img.terms.get(k, Fraction(0)) for img in images] for k in keys]) \
            if keys else 0

    by_weight = []
    for w in range(x_bound + 1):
        inv_n = invariant_forms(n, w)
        by_weight.append(len(inv_n) - rank_of_d(inv_n) - rank_of_d(invariant_forms(n - 1, w)))
    return by_weight


DENSE_CASES = [
    (ROT, range(5), range(4)),
    (LinearAction.circle_rotation_r2(weight=Fraction(1, 2)), range(5), range(4)),
    (LinearAction.circle_rotation_r2(finite_order=4), range(5), range(4)),
    (LinearAction(LieAlgebra.abelian(1), [[[0]]]), range(4), range(3)),
    # scalings of the line: no invariant form but the constants
    (LinearAction(LieAlgebra.abelian(1), [[[1]]]), range(4), range(4)),
    (LinearAction(LieAlgebra.abelian(1), [[[Fraction(2, 3)]]]), range(4), range(4)),
    (ROT.extend_trivially(), range(4), range(3)),
    (O2_DET, range(5), range(4)),
    (SO3, range(3), range(3)),
]


def test_ranks_match_dense_reference():
    for act, degrees, bounds in DENSE_CASES:
        for n in degrees:
            for b in bounds:
                want = dense_reference(act, n, b)
                assert cartan_cohomology_truncated(act, n, b) == (sum(want), want), \
                    (act.rep, n, b)


def test_block_sizes_in_closed_form():
    # the preflight count is the number of columns the blocks are built on
    for act, degrees, bounds in DENSE_CASES:
        for n in list(degrees) + [-1, 7]:
            for b in bounds:
                want = sum(len(block_basis(act, m, w)) for m in (n, n - 1) for w in range(b + 1))
                assert cartan_size(act, [n], b) == want, (act.rep, n, b)
                assert want == sum(len(cartan._block_columns(act, m, w)[0])
                                   for m in (n, n - 1) for w in range(b + 1))


def test_rank_q_calls_of_the_bench_rotation_queries(monkeypatch):
    # the six rotation queries of the cartan_chern benchmark build the blocks
    # of degrees -1..5 and weights 0..6 once each on a fresh action, and take
    # rank [L; D] and rank L of each block that has rows in one elimination:
    # degree -1 has no monomial, and on w = 0 the monomials are the u^k,
    # which L and D send to 0, so 6 degrees x 6 weights
    calls = []
    real = cartan.rank_q
    monkeypatch.setattr(cartan, "rank_q", lambda *args: calls.append(args) or real(*args))
    rot = LinearAction.circle_rotation_r2()
    for n in range(6):
        cartan_cohomology_truncated(rot, n, 6)
    assert len(calls) == 36


O2_PLANE = LinearAction(LieAlgebra.abelian(1), [[[0, -1], [1, 0]]],
                        [([[1, 0], [0, -1]], [[-1]])])


def test_a_degree_range_builds_each_block_once(monkeypatch, capsys):
    # cartan --degrees 0..5 at the default bound 6 builds the blocks of
    # degrees -1..5 once each: 7 x 7 = 49, where one call per degree builds
    # degrees n - 1 and n, 84 in all
    built = []
    real = cartan._block_columns
    monkeypatch.setattr(cartan, "_block_columns",
                        lambda act, n, w: built.append((n, w)) or real(act, n, w))
    assert main(["cartan", "--degrees", "0..5"]) == 0
    assert "dim H^4_Cartan = 1" in capsys.readouterr().out
    assert len(built) == len(set(built)) == 49


@pytest.mark.parametrize("act, bound", [(ROT, 6), (SO3, 3), (O2_PLANE, 4)],
                         ids=["rotation", "so3", "o2_plane"])
def test_a_degree_range_answers_as_each_degree_alone(act, bound):
    for lo, hi in [(0, 5), (2, 4), (3, 3)]:
        want = {n: cartan_cohomology_truncated(act, n, bound) for n in range(lo, hi + 1)}
        assert cartan_cohomology_range(act, range(lo, hi + 1), bound) == want, (lo, hi)


def _fresh(act):
    """A copy of act that keeps no block."""
    return LinearAction(act.lie_algebra, act.rep, act.finite_elements)


@pytest.mark.parametrize("act, bound", [(ROT, 6), (SO3, 3), (O2_PLANE, 4)],
                         ids=["rotation", "so3", "o2_plane"])
def test_kept_blocks_answer_as_a_fresh_action(monkeypatch, act, bound):
    # after degrees 0..5 at bound b, every block of degrees -1..5 and weights
    # 0..b is kept: a second range, and each degree alone, at any bound up
    # to b builds no block and answers as an action that keeps none
    act = _fresh(act)
    cartan_cohomology_range(act, range(0, 6), bound)
    assert len(act.cartan_blocks) == 7 * (bound + 1)
    queries = [(range(lo, hi + 1), b) for b in range(bound + 1)
               for lo, hi in [(0, 5), (2, 4)] + [(n, n) for n in range(6)]]
    want = [cartan_cohomology_range(_fresh(act), degrees, b) for degrees, b in queries]
    monkeypatch.setattr(cartan, "_block_columns", _no_work)
    for order in (range(len(queries)), reversed(range(len(queries)))):
        for i in order:
            assert cartan_cohomology_range(act, *queries[i]) == want[i], queries[i]
    assert len(act.cartan_blocks) == 7 * (bound + 1)


def test_a_kept_block_keeps_three_ints():
    # (monomials, rank [L; D], rank L) per (degree, weight): C_1 is spanned
    # by x1, x2 in degree 0 and by dx1, dx2 in degree 1, which the rotation
    # moves, so L has rank 2 on both; C_0 is 1 in degree 0 and empty in 1
    act = _fresh(ROT)
    cartan_cohomology_truncated(act, 1, 1)
    assert act.cartan_blocks == {(0, 0): (1, 0, 0), (0, 1): (2, 2, 2),
                                 (1, 0): (0, 0, 0), (1, 1): (2, 2, 2)}


def test_over_budget_query_on_kept_blocks_refused_before_any_work(monkeypatch):
    # degrees 0..3 and 3..5 at bound 4 keep every block of degrees 0..5, 76
    # and 82 monomials; degrees 0..5 together count 117, over a budget of 100,
    # and are refused though no block would be built
    act = _fresh(ROT)
    monkeypatch.setattr(cartan, "CARTAN_BUDGET", 100)
    cartan_cohomology_range(act, range(0, 4), 4)
    cartan_cohomology_range(act, range(3, 6), 4)
    monkeypatch.setattr(cartan, "_block_columns", _no_work)
    monkeypatch.setattr(cartan, "rank_q", _no_work)
    with pytest.raises(CartanComplexTooLarge, match="117 monomials, over the budget of 100"):
        cartan_cohomology_range(act, range(0, 6), 4)


def test_the_budget_counts_distinct_blocks(monkeypatch):
    # so3 at bound 6 through degree 10 counted 25 979 monomials, one block
    # pair per degree, where 14 659 are distinct; through degree 12 even the
    # distinct blocks are over the budget, and nothing is built
    check_cartan_query(SO3, range(0, 11), 6)
    assert cartan_size(SO3, range(0, 11), 6) == 14659
    assert cartan_size(SO3, range(0, 11), 6) \
        == sum(cartan_size(SO3, [n], 6) for n in range(0, 11, 2))
    monkeypatch.setattr(cartan, "_block_columns", _no_work)
    with pytest.raises(CartanComplexTooLarge, match="23044 monomials"):
        cartan_cohomology_range(SO3, range(0, 13), 6)


def test_zero_lie_algebra():
    # no symmetry on R^0: the Cartan complex is Q in degree 0
    act = LinearAction(LieAlgebra.abelian(0), [])
    assert cartan_cohomology_truncated(act, 0, 2) == (1, [1, 0, 0])
    assert cartan_cohomology_truncated(act, 0, 0) == (1, [1])
    for n in range(1, 4):
        assert cartan_cohomology_truncated(act, n, 2)[0] == 0


def _one_contraction_sign_flipped(act, omega):
    """d_C with -u_1 iota(X_1^#) in place of +u_1 iota(X_1^#)."""
    flip = omega.contract_linear_field(act.rep[0]).u_times(0).scale(2)
    return REAL_CARTAN_D(act, omega) - flip


def _no_exterior_derivative(act, omega):
    return REAL_CARTAN_D(act, omega) - omega.d()


REAL_CARTAN_D = cartan.cartan_d


@pytest.mark.parametrize("mutant, action, n, match", [
    # the homotopy identity holds for any sign of u_a iota(X_a^#); for so3 the
    # flip breaks d_C^2 = 0 on invariants, and a block of weight 1 has -1 classes
    (_one_contraction_sign_flipped, "so3-vector", 4, r"H\^4\(C_1\) has dimension -1"),
    (_no_exterior_derivative, "rotation", 0, r"iota_E d_C is 0 on x\d, not 1 times it"),
], ids=["sign_flip_so3", "no_d_rotation"])
def test_mutated_cartan_d_raises_instead_of_answering(monkeypatch, capsys, mutant, action, n,
                                                      match):
    # a fresh action: ROT and SO3 keep the blocks that earlier tests built,
    # and a kept block is not built again under the mutant
    act = LinearAction.so3_vector_r3() if action == "so3-vector" \
        else LinearAction.circle_rotation_r2()
    monkeypatch.setattr(cartan, "cartan_d", mutant)
    with pytest.raises(CartanCheckFailed, match=match):
        cartan_cohomology_truncated(act, n, 2)
    # an internal error in the CLI, not a failed precondition
    assert main(["cartan", "--action", action, "--degrees", str(n), "--x-bound", "2"]) \
        == EXIT_INTERNAL
    assert "CartanCheckFailed" in capsys.readouterr().err


def _no_work(*args):
    raise AssertionError("a block was built")


def test_negative_x_bound_rejected_before_any_work(monkeypatch):
    monkeypatch.setattr(cartan, "_block_columns", _no_work)
    for bound in (-1, -3):
        with pytest.raises(ValueError, match=f"x_bound must be nonnegative, got {bound}"):
            cartan_cohomology_truncated(ROT, 0, bound)


def test_blocks_over_the_budget_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(cartan, "_block_columns", _no_work)
    assert cartan_size(SO3, [4], 16) <= cartan.CARTAN_BUDGET < cartan_size(SO3, [4], 17)
    with pytest.raises(CartanComplexTooLarge,
                       match=f"283186 monomials, over the budget of {cartan.CARTAN_BUDGET}"):
        cartan_cohomology_truncated(SO3, 4, 40)


# --- fiber integration ------------------------------------------------------------


def test_fiber_integrate_no_dt():
    omega = parse_form("x1*dx2", 1, 3)  # t = x3
    assert omega.fiber_integrate().is_zero()


def test_fiber_integrate_constant():
    omega = parse_form("dx3^dx1", 1, 3).scale(-1)  # dt^dx1 = -dx1^dt... normalize
    # dt ^ (x1 dx2): encode directly with t last
    omega = parse_form("x1*dx2^dx3", 1, 3)
    out = omega.fiber_integrate()
    # dx2^dt = -dt^dx2, so the integral of x1 dx2^dt is -x1 dx2
    assert out == parse_form("-1*x1*dx2", 1, 2)


def test_fiber_integrate_polynomial():
    # w = t dt^alpha + t^2 beta with alpha = dx1, beta = dx1: dt part gives alpha/2
    omega = parse_form("x3*dx3^dx1 + x3^2*dx1", 1, 3)
    out = omega.fiber_integrate()
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
        lhs = cartan_d(ROT, omega.fiber_integrate()) + \
            cartan_d(act3, omega).fiber_integrate()
        rhs = omega.restrict_t(1) - omega.restrict_t(0)
        assert lhs == rhs


def test_restriction_compatible_with_action():
    act3 = ROT.extend_trivially()
    omega = parse_form("x3*x1*dx2 + x3^2*dx3", 1, 3)
    assert omega.restrict_t(0) == parse_form("0", 1, 2)
    assert omega.restrict_t(1) == parse_form("x1*dx2", 1, 2)
    del act3


# --- the finite comparison map ---------------------------------------------------


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
    # applying boundary then the map equals the map then the group-cochain
    # boundary, exhaustively over the basis
    dbar = getzler_dbar_matrix(bl, 1, 0)
    vert = bl.full_vertical_matrix(1, 0)
    for j in range(bl.cells(1, 0)):
        basis_vec = [1 if i == j else 0 for i in range(bl.cells(1, 0))]
        assert dbar.apply(basis_vec) == vert.apply(basis_vec)
