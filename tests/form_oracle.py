"""The tuple-keyed form algebra, kept as the oracle of the packed kernel.

These are the operations of eqcohom.cartan.EquivariantForm as they were
written on (u_exponents, x_exponents, dx_indices) keys, before the keys
became packed ints: exponents are added as tuples and exterior monomials
are merged by an insertion sort that counts its transpositions.  Each
function takes term dicts {key: value} and returns a new one without zero
values; num_u and num_x are the variable counts.  Nothing here imports the
packed kernel.
"""

from fractions import Fraction
from operator import add


def _nonzero(terms):
    return {k: v for k, v in terms.items() if v}


def merge_dx(dx1, dx2):
    """Concatenate exterior monomials; returns (sign, sorted tuple), or
    (0, ()) when an index repeats."""
    merged = list(dx1) + list(dx2)
    if len(set(merged)) != len(merged):
        return 0, ()
    sign = 1
    # insertion sort counting inversions
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(merged)


def wedge(f, g):
    out = {}
    for (u1, x1, dx1), v1 in f.items():
        for (u2, x2, dx2), v2 in g.items():
            sign, dx = merge_dx(dx1, dx2)
            if sign == 0:
                continue
            key = (tuple(map(add, u1, u2)), tuple(map(add, x1, x2)), dx)
            out[key] = out.get(key, 0) + sign * v1 * v2
    return _nonzero(out)


def add_terms(*term_dicts):
    out = {}
    for terms in term_dicts:
        for k, v in terms.items():
            out[k] = out.get(k, 0) + v
    return _nonzero(out)


def scale(terms, c):
    return _nonzero({k: c * v for k, v in terms.items()})


def d(num_x, terms):
    """Exterior derivative in the x variables."""
    out = {}
    for (u, x, dx), v in terms.items():
        for i in range(num_x):
            if x[i] == 0:
                continue
            sign, new_dx = merge_dx((i,), dx)
            if sign == 0:
                continue
            new_x = list(x)
            new_x[i] -= 1
            key = (u, tuple(new_x), new_dx)
            out[key] = out.get(key, 0) + sign * v * x[i]
    return _nonzero(out)


def contract_linear_field(num_x, terms, field_matrix):
    """iota_V for the linear vector field V(x) = field_matrix @ x."""
    out = {}
    for (u, x, dx), v in terms.items():
        for pos, i in enumerate(dx):
            rest = dx[:pos] + dx[pos + 1:]
            sign = -1 if pos % 2 else 1
            for j in range(num_x):
                coeff = field_matrix[i][j]
                if not coeff:
                    continue
                new_x = list(x)
                new_x[j] += 1
                key = (u, tuple(new_x), rest)
                out[key] = out.get(key, 0) + sign * coeff * v
    return _nonzero(out)


def u_times(terms, a):
    out = {}
    for (u, x, dx), v in terms.items():
        nu = list(u)
        nu[a] += 1
        out[(tuple(nu), x, dx)] = v
    return out


def embed(terms, extra):
    """Extend by extra fresh fixed coordinates."""
    pad = (0,) * extra
    return {(u, x + pad, dx): v for (u, x, dx), v in terms.items()}


def fiber_integrate(num_x, terms):
    """Integrate the dt component over [0, 1], t the last coordinate; a
    trailing dt is moved to the front with the sign (-1)^{|I|}."""
    t_index = num_x - 1
    out = {}
    for (u, x, dx), v in terms.items():
        if t_index not in dx:
            continue
        rest = tuple(i for i in dx if i != t_index)
        sign = -1 if len(rest) % 2 else 1
        key = (u, x[:-1], rest)
        out[key] = out.get(key, 0) + Fraction(sign * v, x[t_index] + 1)
    return _nonzero(out)


def restrict_t(num_x, terms, value):
    """Pull back along the inclusion at t = value (drops dt terms)."""
    t_index = num_x - 1
    out = {}
    for (u, x, dx), v in terms.items():
        if t_index in dx:
            continue
        coeff = v * value ** x[t_index] if x[t_index] else v
        key = (u, x[:-1], dx)
        out[key] = out.get(key, 0) + coeff
    return _nonzero(out)


def _unit_x(n, k):
    e = [0] * n
    e[k] = 1
    return tuple(e)


def _poly_mul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _substitute_u(num_u, terms, u_exp, u_matrix):
    """Multiply u-free terms by the image of u^u_exp under the linear
    substitution u_b -> sum_c u_matrix[b][c] u_c."""
    out = terms
    for b in range(num_u):
        for _ in range(u_exp[b]):
            out = add_terms(*(scale(u_times(out, c), u_matrix[b][c])
                              for c in range(num_u) if u_matrix[b][c]))
    return out


def substitute_linear(num_u, num_x, terms, a_matrix, u_matrix=None):
    """Pullback along x -> A x, with an optional linear substitution on the
    u variables."""
    zero_u = (0,) * num_u
    x_polys = [{_unit_x(num_x, k): a_matrix[j][k] for k in range(num_x) if a_matrix[j][k]}
               for j in range(num_x)]
    dx_images = [_nonzero({(zero_u, (0,) * num_x, (k,)): a_matrix[j][k] for k in range(num_x)})
                 for j in range(num_x)]
    pieces = []
    for (u, x, dx), v in terms.items():
        poly = {(0,) * num_x: v}
        for j in range(num_x):
            for _ in range(x[j]):
                poly = _poly_mul(poly, x_polys[j])
        form = _nonzero({(zero_u, xe, ()): c for xe, c in poly.items()})
        for j in dx:
            form = wedge(form, dx_images[j])
        if u_matrix is not None:
            form = _substitute_u(num_u, form, u, u_matrix)
        else:
            form = {(u, xk, dxk): c for (_u0, xk, dxk), c in form.items()}
        pieces.append(form)
    return add_terms(*pieces)
