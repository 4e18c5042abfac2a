"""The packed form kernel against the tuple-keyed oracle, and its lane limit.

EquivariantForm keeps each term under one int key (the dx bitmask in the
low bits, one guarded lane per exponent above it).  form_oracle.py keeps
the operations as they were written on (u, x, dx) tuples; every operation
of the packed kernel must give the same term dict, read through the
tuple view terms, on random forms with up to 3 u and 4 x variables and
int and Fraction coefficients.  An exponent past MAX_EXPONENT must raise
LaneOverflow wherever it comes from, never wrap into a neighbouring lane.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import eqcohom.cartan as cartan
import form_oracle as oracle
from eqcohom.cartan import (
    MAX_EXPONENT,
    EquivariantForm,
    CartanCheckFailed,
    LaneOverflow,
    LieAlgebra,
    LinearAction,
    cartan_cohomology_truncated,
    cartan_d,
    cartan_size,
    check_cartan_query,
    lie_derivative,
    parse_form,
    total_lie,
)
from eqcohom.chern import ConnectionMatrix, form_mat_wedge
from eqcohom.cli import EXIT_PRECONDITION, main

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

COEFFICIENTS = st.one_of(st.integers(-3, 3),
                         st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def term_dicts(draw, num_u, num_x, form_degree=None):
    """Up to four terms; with form_degree, every term has that many dx."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        u = tuple(draw(st.integers(0, 3)) for _ in range(num_u))
        x = tuple(draw(st.integers(0, 3)) for _ in range(num_x))
        r = draw(st.integers(0, num_x)) if form_degree is None else form_degree
        dx = tuple(sorted(draw(st.sets(st.integers(0, num_x - 1), min_size=r, max_size=r))))
        terms[(u, x, dx)] = draw(COEFFICIENTS)
    return {k: v for k, v in terms.items() if v}


@st.composite
def shapes(draw):
    return draw(st.integers(0, 3)), draw(st.integers(1, 4))


def matrices(rows, cols):
    return st.lists(st.lists(COEFFICIENTS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def terms_of(form):
    return dict(form.terms)


# --- every operation against the oracle ----------------------------------------------


@PROPERTY_SETTINGS
@given(st.data())
def test_packed_kernel_matches_the_tuple_oracle(data):
    num_u, num_x = data.draw(shapes())
    f_terms = data.draw(term_dicts(num_u, num_x))
    g_terms = data.draw(term_dicts(num_u, num_x))
    f, g = EquivariantForm(num_u, num_x, f_terms), EquivariantForm(num_u, num_x, g_terms)
    assert terms_of(f) == f_terms
    field = data.draw(matrices(num_x, num_x))
    u_matrix = data.draw(matrices(num_u, num_u))
    value = data.draw(COEFFICIENTS)
    extra = data.draw(st.integers(0, 2))

    assert terms_of(f.wedge(g)) == oracle.wedge(f_terms, g_terms)
    assert terms_of(g.wedge(f)) == oracle.wedge(g_terms, f_terms)
    assert terms_of(f.d()) == oracle.d(num_x, f_terms)
    assert terms_of(f.contract_linear_field(field)) == \
        oracle.contract_linear_field(num_x, f_terms, field)
    for a in range(num_u):
        assert terms_of(f.u_times(a)) == oracle.u_times(f_terms, a)
    assert terms_of(f.embed(num_x + extra)) == oracle.embed(f_terms, extra)
    assert terms_of(f.fiber_integrate()) == oracle.fiber_integrate(num_x, f_terms)
    assert terms_of(f.restrict_t(value)) == oracle.restrict_t(num_x, f_terms, value)
    assert terms_of(f.substitute_linear(field)) == \
        oracle.substitute_linear(num_u, num_x, f_terms, field)
    assert terms_of(f.substitute_linear(field, u_matrix)) == \
        oracle.substitute_linear(num_u, num_x, f_terms, field, u_matrix)
    # a matrix product accumulates several wedges into one packed dict
    assert terms_of(form_mat_wedge([[f, g]], [[g], [f]])[0][0]) == \
        oracle.add_terms(oracle.wedge(f_terms, g_terms), oracle.wedge(g_terms, f_terms))


@PROPERTY_SETTINGS
@given(st.data())
def test_d_is_a_graded_derivation(data):
    # d(a ^ b) = da ^ b + (-1)^|a| a ^ db for a of form degree |a|
    num_u, num_x = data.draw(shapes())
    degree = data.draw(st.integers(0, num_x))
    a = EquivariantForm(num_u, num_x, data.draw(term_dicts(num_u, num_x, degree)))
    b = EquivariantForm(num_u, num_x, data.draw(term_dicts(num_u, num_x)))
    sign = -1 if degree % 2 else 1
    assert a.wedge(b).d() == a.d().wedge(b) + a.wedge(b.d()).scale(sign)
    assert a.d().d().is_zero()


# --- the generator tables of an action against the oracle ----------------------------

TABLE_ACTIONS = {
    "rotation": LinearAction.circle_rotation_r2(),
    "so3": LinearAction.so3_vector_r3(),
    "o2_plane": LinearAction(LieAlgebra.abelian(1), [[[0, -1], [1, 0]]],
                             [([[1, 0], [0, -1]], [[-1]])]),
    # rational entries, and a finite element of order 4
    "half_rotation_c4": LinearAction.circle_rotation_r2(weight=Fraction(1, 2), finite_order=4),
}


def oracle_u_derivation(act, a, terms):
    """u_b -> sum_c c^b_{a c} u_c on the u variables, on tuple keys."""
    out = {}
    k = act.lie_algebra.dim
    for (u, x, dx), v in terms.items():
        for b in range(k):
            for c in range(k):
                coeff = act.lie_algebra.c(b, a, c)
                if u[b] and coeff:
                    moved = list(u)
                    moved[b] -= 1
                    moved[c] += 1
                    key = (tuple(moved), x, dx)
                    out[key] = out.get(key, 0) + u[b] * coeff * v
    return oracle.add_terms(out)


@PROPERTY_SETTINGS
@given(st.data())
@pytest.mark.parametrize("name", sorted(TABLE_ACTIONS))
def test_every_table_driven_derivation_matches_the_oracle(name, data):
    # d_C, iota_E, iota(X_a^#), the manifold Lie derivative by Cartan's magic
    # formula d iota + iota d, and total_lie as that plus the u-derivation
    act = TABLE_ACTIONS[name]
    num_u, num_x = act.lie_algebra.dim, act.m
    terms = data.draw(term_dicts(num_u, num_x))
    f = EquivariantForm(num_u, num_x, terms)
    identity = [[int(i == j) for j in range(num_x)] for i in range(num_x)]
    assert terms_of(f.d()) == oracle.d(num_x, terms)
    assert terms_of(f.derive(act.tables["euler"])) == \
        oracle.contract_linear_field(num_x, terms, identity)
    contractions = [oracle.contract_linear_field(num_x, terms, mat) for mat in act.rep]
    assert terms_of(cartan_d(act, f)) == oracle.add_terms(
        oracle.d(num_x, terms), *(oracle.u_times(t, a) for a, t in enumerate(contractions)))
    for a, mat in enumerate(act.rep):
        assert terms_of(f.contract_linear_field(mat)) == contractions[a]
        assert terms_of(f.derive(act.tables["iota"][a])) == contractions[a]
        magic = oracle.add_terms(oracle.d(num_x, contractions[a]), oracle.contract_linear_field(
            num_x, oracle.d(num_x, terms), mat))
        assert terms_of(lie_derivative(act, a, f)) == magic
        assert terms_of(total_lie(act, a, f)) == \
            oracle.add_terms(magic, oracle_u_derivation(act, a, terms))


def test_a_derivation_refuses_a_form_over_other_variable_counts():
    with pytest.raises(ValueError, match="different variable counts"):
        total_lie(TABLE_ACTIONS["so3"], 0, parse_form("x1*dx2", 1, 2))


@pytest.mark.parametrize("num_u", [0, 1, 3])
def test_connection_entries_must_be_plain_one_forms(num_u):
    # the check reads the u lanes and the dx mask of each packed key
    u0 = (0,) * num_u
    ok = {(u0, (2, 0, 1), (0,)): 1, (u0, (0, 0, 0), (2,)): Fraction(-1, 2)}
    ConnectionMatrix(1, [[EquivariantForm(num_u, 3, ok)]])
    bad = [(u0, (1, 0, 0), ()), (u0, (0, 0, 0), (0, 2)), (u0, (0, 0, 0), (0, 1, 2))]
    if num_u:   # a one-form times u_k
        bad.append(((0,) * (num_u - 1) + (1,), (0, 0, 0), (1,)))
    for key in bad:
        form = EquivariantForm(num_u, 3, {**ok, key: 1})
        with pytest.raises(ValueError, match="plain one-forms"):
            ConnectionMatrix(1, [[form]])


def test_terms_is_a_read_only_tuple_view():
    f = parse_form("2*u1*x1^3*dx2 - 1/2*x2*dx1^dx2", 1, 2)
    assert terms_of(f) == {((1,), (3, 0), (1,)): 2, ((0,), (0, 1), (0, 1)): Fraction(-1, 2)}
    with pytest.raises(TypeError):
        f.terms[((0,), (0, 0), ())] = 1
    assert all(type(k) is int for k in f.packed)


# --- the lane limit -------------------------------------------------------------------


def test_constructor_and_parser_reject_exponents_past_the_lane_limit():
    at_limit = ((MAX_EXPONENT,), (0, MAX_EXPONENT), (0,))
    assert terms_of(EquivariantForm(1, 2, {at_limit: 1})) == {at_limit: 1}
    for key in [((MAX_EXPONENT + 1,), (0, 0), ()), ((0,), (0, MAX_EXPONENT + 1), ()),
                ((0,), (10 ** 6, 0), (1,))]:
        with pytest.raises(LaneOverflow, match=str(MAX_EXPONENT)):
            EquivariantForm(1, 2, {key: 1})
    assert parse_form(f"x2^{MAX_EXPONENT}", 1, 2) == EquivariantForm(1, 2, {((0,), (0, MAX_EXPONENT), ()): 1})
    for text in [f"x2^{MAX_EXPONENT + 1}", f"u1^{MAX_EXPONENT}*u1", f"x1^{MAX_EXPONENT}*x1*dx1"]:
        with pytest.raises(LaneOverflow, match=str(MAX_EXPONENT)):
            parse_form(text, 1, 2)


def test_exponents_that_grow_past_the_limit_raise_instead_of_wrapping():
    half = MAX_EXPONENT // 2 + 1
    high_x = parse_form(f"x1^{half}*dx2", 1, 2)
    assert high_x.wedge(parse_form(f"x1^{half - 2}", 1, 2)) == parse_form(f"x1^{2 * half - 2}*dx2", 1, 2)
    with pytest.raises(LaneOverflow):
        high_x.wedge(parse_form(f"x1^{half}*x2", 1, 2))
    # the top lane (x2 here) has no lane above it to spill into, and still raises
    with pytest.raises(LaneOverflow):
        parse_form(f"x2^{MAX_EXPONENT}", 1, 2).wedge(parse_form("x2", 1, 2))
    with pytest.raises(LaneOverflow):
        parse_form(f"u1^{MAX_EXPONENT}", 1, 2).u_times(0)
    with pytest.raises(LaneOverflow):
        parse_form(f"x2^{MAX_EXPONENT}*dx1", 1, 2).contract_linear_field([[0, 1], [0, 0]])
    # a matrix product raises as well: its entries are accumulated in one dict
    with pytest.raises(LaneOverflow):
        form_mat_wedge([[high_x]], [[parse_form(f"x1^{half}", 1, 2)]])
    rot = LinearAction.circle_rotation_r2()
    assert total_lie(rot, 0, parse_form(f"x1^{MAX_EXPONENT}", 1, 2)) == \
        parse_form(f"-{MAX_EXPONENT}*x1^{MAX_EXPONENT - 1}*x2", 1, 2)


def test_every_derivation_that_raises_an_exponent_checks_the_lanes():
    rot, so3 = TABLE_ACTIONS["rotation"], TABLE_ACTIONS["so3"]
    top = MAX_EXPONENT
    # d_C sends dx1 to -u1 x2, the Euler contraction dx1 to x1, the rotation
    # x1 to x2, and the u-derivation of X_1 in so3 u3 to u2
    for result in [lambda: cartan_d(rot, parse_form(f"x2^{top}*dx1", 1, 2)),
                   lambda: parse_form(f"x1^{top}*dx1", 1, 2).derive(rot.tables["euler"]),
                   lambda: total_lie(rot, 0, parse_form(f"x1*x2^{top}", 1, 2)),
                   lambda: lie_derivative(rot, 0, parse_form(f"x1*x2^{top}", 1, 2)),
                   lambda: total_lie(so3, 0, parse_form(f"u2^{top}*u3", 3, 3))]:
        with pytest.raises(LaneOverflow):
            result()
    # d only lowers exponents
    assert parse_form(f"x1^{top}*x2^{top}", 1, 2).d() == parse_form(
        f"{top}*x1^{top - 1}*x2^{top}*dx1 + {top}*x1^{top}*x2^{top - 1}*dx2", 1, 2)


def test_the_homotopy_check_names_the_identity_the_form_and_the_weight(monkeypatch):
    # d_C + d doubles dx1 in d_C x1, so the identity gives 2 x1 on x1 in C_1
    real = cartan.cartan_d
    monkeypatch.setattr(cartan, "cartan_d", lambda act, omega: real(act, omega) + omega.d())
    with pytest.raises(CartanCheckFailed, match=re.escape(
            "d_C iota_E + iota_E d_C is 2*x1 on x1, not 1 times it")):
        cartan_cohomology_truncated(LinearAction.circle_rotation_r2(), 0, 1)


def _no_rank(matrix):
    raise AssertionError("a rank was computed")


def test_truncated_cohomology_refuses_bounds_past_the_lane_limit(monkeypatch):
    # blocks reach x-degree x_bound and u-degree n // 2 + 1
    monkeypatch.setattr(cartan, "rank_q", _no_rank)
    rot = LinearAction.circle_rotation_r2()
    with pytest.raises(LaneOverflow, match=f"lane limit {MAX_EXPONENT}"):
        cartan_cohomology_truncated(rot, 0, MAX_EXPONENT + 1)
    with pytest.raises(LaneOverflow, match=f"lane limit {MAX_EXPONENT}"):
        cartan_cohomology_truncated(rot, 2 * MAX_EXPONENT, 0)
    # the largest bound and degree within the limit pass the lane check
    check_cartan_query(rot, [0], MAX_EXPONENT)
    check_cartan_query(rot, [2 * MAX_EXPONENT - 1], 0)


def test_cli_x_bound_past_the_lane_limit_exits_3(monkeypatch, capsys):
    # a rank computed first would exit 4, not 3
    monkeypatch.setattr(cartan, "rank_q", _no_rank)
    code = main(["cartan", "--degrees", "0..5", "--x-bound", str(MAX_EXPONENT + 1)])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert f"lane limit {MAX_EXPONENT}" in err and f"x_bound <= {MAX_EXPONENT}" in err
    # blocks over the budget: every degree of the query counts
    code = main(["cartan", "--action", "so3-vector", "--degrees", "4..4", "--x-bound", "40"])
    assert code == EXIT_PRECONDITION
    assert f"over the budget of {cartan.CARTAN_BUDGET}" in capsys.readouterr().err
    assert cartan_size(LinearAction.so3_vector_r3(), [4], 16) <= cartan.CARTAN_BUDGET
    assert main(["cartan", "--action", "so3-vector", "--degrees", "3..4", "--x-bound", "16"]) \
        == EXIT_PRECONDITION
