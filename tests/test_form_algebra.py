"""The two construction paths of EquivariantForm, and the one-dict sums.

The constructor validates outside input; the operations build their
results with EquivariantForm._of, which checks no key.  The property tests
show that every such result is one the constructor accepts unchanged, with
int coefficients wherever they are integral, and that the sums built in
one term dict equal the pairwise acc + term sums kept here as reference.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from eqcohom.cartan import (
    EquivariantForm,
    LieAlgebra,
    LinearAction,
    _sum_forms,
    cartan_d,
    lie_derivative,
    parse_form,
    total_lie,
)
from eqcohom.chern import (
    elementary_symmetric,
    form_mat_scalar_conjugate,
    form_mat_wedge,
    form_trace,
)
from eqcohom.linalg import q_inverse

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# Fraction(4, 2) and Fraction(3, 3) are integral: they must be stored as int
COEFFICIENTS = st.one_of(st.integers(-3, 3),
                         st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


# --- the validating constructor ------------------------------------------------------


@pytest.mark.parametrize("key", [
    ((-1,), (-2,), ()),
    ((0,), (-1,), ()),
    ((0,), (1.5,), ()),
    ((1.0,), (1,), ()),
    ((True,), (0,), ()),
    ((0,), (1,), (0.0,)),
])
def test_constructor_rejects_exponents_that_are_not_nonnegative_ints(key):
    with pytest.raises(ValueError):
        EquivariantForm(1, 1, {key: 3})


@pytest.mark.parametrize("text", ["u0*x1", "x0", "x3", "dx0", "dx3", "dx1^dx3",
                                  "u2*x1", "x0^2", "2*u1*dx0^dx1"])
def test_parse_form_rejects_indices_outside_the_variables(text):
    # variables are numbered from 1: index 0 would read as the last one
    with pytest.raises(ValueError):
        parse_form(text, 1, 2)


# --- random forms ---------------------------------------------------------------------


@st.composite
def term_dicts(draw, num_u, num_x, even=False):
    """Up to three terms; even forms have no dx or two of them."""
    sizes = [r for r in ((0, 2) if even else range(num_x + 1)) if r <= num_x]
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        u = tuple(draw(st.integers(0, 2)) for _ in range(num_u))
        x = tuple(draw(st.integers(0, 2)) for _ in range(num_x))
        r = draw(st.sampled_from(sizes))
        dx = tuple(sorted(draw(st.sets(st.integers(0, num_x - 1), min_size=r, max_size=r))))
        terms[(u, x, dx)] = draw(COEFFICIENTS)
    return terms


@st.composite
def form_pairs(draw):
    """(f, g) over 0-2 u and 1-3 x variables; g cancels some terms of f."""
    num_u, num_x = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    f_terms = draw(term_dicts(num_u, num_x))
    g_terms = draw(term_dicts(num_u, num_x))
    for key in draw(st.sets(st.sampled_from(sorted(f_terms)))) if f_terms else ():
        g_terms[key] = -f_terms[key]
    return EquivariantForm(num_u, num_x, f_terms), EquivariantForm(num_u, num_x, g_terms)


def rational_matrices(rows, cols):
    return st.lists(st.lists(COEFFICIENTS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _action(num_u, num_x, matrix):
    """An action of a num_u-dimensional Lie algebra on R^num_x: with two
    generators and room for them the nonabelian [X1, X2] = X2, so that
    total_lie moves u exponents; otherwise copies of one matrix."""
    if num_u == 2 and num_x >= 2:
        e00 = [[int(i == j == 0) for j in range(num_x)] for i in range(num_x)]
        e01 = [[int((i, j) == (0, 1)) for j in range(num_x)] for i in range(num_x)]
        return LinearAction(LieAlgebra(2, {(1, 0, 1): 1, (1, 1, 0): -1}), [e00, e01])
    return LinearAction(LieAlgebra.abelian(num_u), [matrix] * num_u)


def assert_trusted(result):
    """The constructor accepts the result unchanged, and every coefficient
    is an int or a Fraction that is not integral."""
    assert EquivariantForm(result.num_u, result.num_x, result.terms) == result
    for v in result.terms.values():
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v


# --- the trusted path -----------------------------------------------------------------


@PROPERTY_SETTINGS
@given(st.data())
def test_every_trusted_result_is_a_valid_form(data):
    f, g = data.draw(form_pairs())
    num_u, num_x = f.num_u, f.num_x
    matrix = data.draw(rational_matrices(num_x, num_x))
    u_matrix = data.draw(rational_matrices(num_u, num_u))
    c = data.draw(COEFFICIENTS)
    act = _action(num_u, num_x, matrix)
    results = [f + g, f - g, f.scale(c), f.scale(Fraction(4, 2)), -f, f.wedge(g),
               g.wedge(f), f.d(), f.contract_linear_field(matrix), f.embed(num_x + 1),
               f.fiber_integrate(), f.restrict_t(c), f.substitute_linear(matrix),
               f.substitute_linear(matrix, u_matrix), cartan_d(act, f),
               _sum_forms(num_u, num_x, [f, g, f.scale(-1)])]
    results += [f.u_times(a) for a in range(num_u)]
    results += [total_lie(act, a, f) for a in range(num_u)]
    for result in results:
        assert_trusted(result)
    # a sum whose Fraction coefficients add up to integers stores ints
    half = EquivariantForm(num_u, num_x, {key: Fraction(1, 2) for key in f.terms})
    assert_trusted(half + half)
    assert (half + half).terms == {key: 1 for key in f.terms}


# --- one-dict sums against pairwise sums ----------------------------------------------


def naive_sum(num_u, num_x, forms):
    acc = EquivariantForm.zero(num_u, num_x)
    for form in forms:
        acc = acc + form
    return acc


def naive_total_lie(act, a, omega):
    out = lie_derivative(act, a, omega)
    k = act.lie_algebra.dim
    for (u, x, dx), v in omega.terms.items():
        for b in range(k):
            for c in range(k):
                coeff = act.lie_algebra.c(b, a, c)
                if u[b] and coeff:
                    nu = list(u)
                    nu[b] -= 1
                    nu[c] += 1
                    out = out + EquivariantForm(omega.num_u, omega.num_x,
                                                {(tuple(nu), x, dx): v * coeff * u[b]})
    return out


def naive_mat_wedge(a, b):
    num_u, num_x = a[0][0].num_u, a[0][0].num_x
    return [[naive_sum(num_u, num_x, (a[i][k].wedge(b[k][j]) for k in range(len(b))))
             for j in range(len(b[0]))] for i in range(len(a))]


def _sign(sigma):
    inversions = sum(1 for i, j in combinations(range(len(sigma)), 2) if sigma[i] > sigma[j])
    return -1 if inversions % 2 else 1


def naive_elementary_symmetric(m, k):
    num_u, num_x = m[0][0].num_u, m[0][0].num_x
    if k == 0:
        return EquivariantForm.constant(num_u, num_x, 1)
    acc = EquivariantForm.zero(num_u, num_x)
    for idx in combinations(range(len(m)), k):
        for sigma in permutations(range(k)):
            prod = EquivariantForm.constant(num_u, num_x, _sign(sigma))
            for i in range(k):
                prod = prod.wedge(m[idx[i]][idx[sigma[i]]])
            acc = acc + prod
    return acc


@PROPERTY_SETTINGS
@given(st.data())
def test_one_dict_sums_equal_pairwise_sums(data):
    f, g = data.draw(form_pairs())
    num_u, num_x = f.num_u, f.num_x
    matrix = data.draw(rational_matrices(num_x, num_x))
    act = _action(num_u, num_x, matrix)
    forms = [f, g, f.wedge(g), g.scale(-1), f]
    assert _sum_forms(num_u, num_x, forms) == naive_sum(num_u, num_x, forms)
    assert cartan_d(act, f) == naive_sum(
        num_u, num_x, [f.d()] + [f.contract_linear_field(act.rep[a]).u_times(a)
                                 for a in range(num_u)])
    for a in range(num_u):
        assert total_lie(act, a, f) == naive_total_lie(act, a, f)

    rank = data.draw(st.integers(1, 3))
    m = [[EquivariantForm(num_u, num_x, data.draw(term_dicts(num_u, num_x, even=True)))
          for _ in range(rank)] for _ in range(rank)]
    other = [[EquivariantForm(num_u, num_x, data.draw(term_dicts(num_u, num_x)))
              for _ in range(rank)] for _ in range(rank)]
    assert form_mat_wedge(m, other) == naive_mat_wedge(m, other)
    assert form_trace(other) == naive_sum(num_u, num_x, (other[i][i] for i in range(rank)))
    for k in range(rank + 1):
        assert elementary_symmetric(m, k) == naive_elementary_symmetric(m, k)
    g_mat = data.draw(rational_matrices(rank, rank))
    g_inv = q_inverse(g_mat)
    assume(g_inv is not None)
    want = [[naive_sum(num_u, num_x, (m[k][l].scale(Fraction(g_mat[i][k]) * g_inv[l][j])
                                      for k in range(rank) for l in range(rank)))
             for j in range(rank)] for i in range(rank)]
    assert form_mat_scalar_conjugate(m, g_mat) == want
