"""Symbolic equivariant forms for linear actions on R^m.

An equivariant form is a finite sum of terms

    coefficient * u^a (x) x^b (x) dx_{i_1} ^ ... ^ dx_{i_r}

with exact rational coefficients, held as int when integral and as
Fraction otherwise (see _exact); u_1..u_k are coordinates on the Lie algebra
(polynomial degree counts twice in the grading), x_1..x_m coordinates on
the base, dx-monomials keep strictly increasing index order.  The Cartan
differential is d + sum_a u_a iota(V_a) where V_a is the fundamental
vector field of the a-th basis element, with the left-action convention
V_a(x) = rep(X_a) x.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .linalg import IntMatrix, q_identity, q_inverse, q_mul, q_zeros, rank_q


class TruncationUnstable(Exception):
    pass


def _exact(v):
    """An exact coefficient: an int stays as it is; anything else becomes a
    Fraction, or its numerator when the denominator is 1.  Integral
    coefficients thus stay on int arithmetic, and Fraction(2) and 2 (equal,
    with equal hashes) are stored alike."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


# ---------------------------------------------------------------------------
# Lie algebras and linear actions


class LieAlgebra:
    """Structure constants [X_b, X_c] = sum_a c[a][b][c] X_a, all rational
    (held through _exact)."""

    def __init__(self, dim, structure=None, basis_names=None):
        self.dim = dim
        if structure is None:
            structure = {}
        self.structure = {}
        for (a, b, c), v in structure.items():
            v = _exact(v)
            if v:
                self.structure[(a, b, c)] = v
        self.basis_names = basis_names or [f"X{i + 1}" for i in range(dim)]
        self._validate()

    def c(self, a, b, c):
        return self.structure.get((a, b, c), 0)

    def bracket_coeffs(self, b, c):
        """Coefficients of [X_b, X_c] in the basis."""
        return [self.c(a, b, c) for a in range(self.dim)]

    def _validate(self):
        k = self.dim
        for b in range(k):
            for c in range(k):
                for a in range(k):
                    if self.c(a, b, c) != -self.c(a, c, b):
                        raise ValueError("structure constants are not antisymmetric")
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    # Jacobi: [[a,b],c] + [[b,c],a] + [[c,a],b] = 0
                    for e in range(k):
                        total = 0
                        for d in range(k):
                            total += self.c(d, a, b) * self.c(e, d, c)
                            total += self.c(d, b, c) * self.c(e, d, a)
                            total += self.c(d, c, a) * self.c(e, d, b)
                        if total:
                            raise ValueError("Jacobi identity fails")

    @classmethod
    def abelian(cls, k):
        return cls(k)

    @classmethod
    def so3(cls):
        """Cross-product basis: [X1, X2] = X3 cyclically (su(2) over Q)."""
        structure = {}
        for (a, b, c) in [(2, 0, 1), (0, 1, 2), (1, 2, 0)]:
            structure[(a, b, c)] = 1
            structure[(a, c, b)] = -1
        return cls(3, structure, basis_names=["X1", "X2", "X3"])

    def to_json_obj(self):
        return {"dim": self.dim,
                "structure": [[a, b, c, str(v)] for (a, b, c), v in sorted(self.structure.items())]}

    @classmethod
    def from_json_obj(cls, obj):
        return cls(obj["dim"], {(a, b, c): v for a, b, c, v in obj["structure"]})


class LinearAction:
    """A representation of the Lie algebra on R^m by rational matrices, with
    optional finite subgroup elements (pairs of a base matrix and its
    adjoint-action matrix) for the non-connected part of invariance checks.
    Entries are held through _exact, so an integral action keeps contractions
    and Lie derivatives on int arithmetic.

    finite_inverses holds (g^{-1}, Ad^{-1}) for each finite element, inverted
    once here; a singular g or Ad raises ValueError."""

    def __init__(self, lie_algebra: LieAlgebra, rep, finite_elements=()):
        self.lie_algebra = lie_algebra
        self.rep = [_exact_matrix(m) for m in rep]
        if len(self.rep) != lie_algebra.dim:
            raise ValueError("need one representation matrix per basis element")
        self.m = len(self.rep[0]) if self.rep else 0
        for mat in self.rep:
            if len(mat) != self.m or any(len(r) != self.m for r in mat):
                raise ValueError("representation matrices must be square of equal size")
        self.finite_elements = []
        for g, ad in finite_elements:
            adq = _exact_matrix(ad if ad is not None else q_identity(lie_algebra.dim))
            self.finite_elements.append((_exact_matrix(g), adq))
        self.finite_inverses = [(q_inverse(g), q_inverse(ad)) for g, ad in self.finite_elements]
        if any(g_inv is None or ad_inv is None for g_inv, ad_inv in self.finite_inverses):
            raise ValueError("finite element matrices must be invertible")
        self._validate()

    def _validate(self):
        k = self.lie_algebra.dim
        for b in range(k):
            for c in range(k):
                comm = _mat_sub(q_mul(self.rep[b], self.rep[c]),
                                q_mul(self.rep[c], self.rep[b]))
                want = q_zeros(self.m, self.m)
                for a in range(k):
                    coeff = self.lie_algebra.c(a, b, c)
                    if coeff:
                        want = _mat_add(want, _mat_scale(self.rep[a], coeff))
                if comm != want:
                    raise ValueError("rep does not respect the bracket")

    @classmethod
    def circle_rotation_r2(cls, weight=1, finite_order=None):
        """Rotation generator on R^2 with the given rational weight."""
        rep = [[[0, -weight], [weight, 0]]]
        finite = []
        if finite_order in (2, 4):
            g = [[-1, 0], [0, -1]] if finite_order == 2 else [[0, -1], [1, 0]]
            finite.append((g, [[1]]))
        return cls(LieAlgebra.abelian(1), rep, finite)

    @classmethod
    def so3_vector_r3(cls):
        l1 = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
        l2 = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
        l3 = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
        return cls(LieAlgebra.so3(), [l1, l2, l3])

    def extend_trivially(self, extra=1):
        """Same action on R^{m+extra}; the new coordinates are fixed (used
        for the interval factor in transgression computations)."""
        k = self.lie_algebra.dim
        rep = []
        for a in range(k):
            mat = [[self.rep[a][i][j] for j in range(self.m)] + [0] * extra
                   for i in range(self.m)]
            mat += [[0] * (self.m + extra) for _ in range(extra)]
            rep.append(mat)
        finite = []
        for g, ad in self.finite_elements:
            gmat = [[g[i][j] for j in range(self.m)] + [0] * extra
                    for i in range(self.m)]
            for r in range(extra):
                row = [0] * (self.m + extra)
                row[self.m + r] = 1
                gmat.append(row)
            finite.append((gmat, ad))
        return LinearAction(self.lie_algebra, rep, finite)

    def to_json_obj(self):
        return {"lie_algebra": self.lie_algebra.to_json_obj(),
                "rep": [[[str(v) for v in row] for row in m] for m in self.rep],
                "finite_elements": [
                    ([[str(v) for v in row] for row in g],
                     [[str(v) for v in row] for row in ad])
                    for g, ad in self.finite_elements]}

    @classmethod
    def from_json_obj(cls, obj):
        return cls(LieAlgebra.from_json_obj(obj["lie_algebra"]), obj["rep"],
                   obj.get("finite_elements", []))


def _exact_matrix(m):
    return [[_exact(v) for v in row] for row in m]


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_scale(a, c):
    return [[c * x for x in row] for row in a]


# ---------------------------------------------------------------------------
# equivariant forms


class EquivariantForm:
    """Finite sum of (u-monomial x x-polynomial x exterior monomial) terms.

    Keys are (u_exponents, x_exponents, dx_indices) with the dx tuple
    strictly increasing; values are nonzero exact rationals, an int when
    integral and a Fraction otherwise (_exact).  Every key is validated on
    construction.
    """

    __slots__ = ("num_u", "num_x", "terms")

    def __init__(self, num_u, num_x, terms=None):
        self.num_u = num_u
        self.num_x = num_x
        self.terms = {}
        for key, v in (terms or {}).items():
            v = _exact(v)
            if not v:
                continue
            u, x, dx = key
            if len(u) != num_u or len(x) != num_x:
                raise ValueError("exponent tuple lengths do not match the variable counts")
            if list(dx) != sorted(set(dx)) or any(not 0 <= i < num_x for i in dx):
                raise ValueError(f"bad dx monomial {dx}")
            self.terms[(tuple(u), tuple(x), tuple(dx))] = v

    # -- constructors

    @classmethod
    def zero(cls, num_u, num_x):
        return cls(num_u, num_x)

    @classmethod
    def constant(cls, num_u, num_x, value):
        return cls(num_u, num_x, {((0,) * num_u, (0,) * num_x, ()): value})

    @classmethod
    def coordinate(cls, num_u, num_x, i):
        x = [0] * num_x
        x[i] = 1
        return cls(num_u, num_x, {((0,) * num_u, tuple(x), ()): 1})

    @classmethod
    def dx(cls, num_u, num_x, i):
        return cls(num_u, num_x, {((0,) * num_u, (0,) * num_x, (i,)): 1})

    # -- structure

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, EquivariantForm):
            return NotImplemented
        return (self.num_u, self.num_x, self.terms) == (other.num_u, other.num_x, other.terms)

    def __hash__(self):
        return hash((self.num_u, self.num_x, frozenset(self.terms.items())))

    def cartan_degrees(self):
        """Set of Cartan degrees 2|u| + |dx| present among the terms."""
        return {2 * sum(u) + len(dx) for (u, _x, dx) in self.terms}

    def cartan_degree(self):
        degs = self.cartan_degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous form with degrees {sorted(degs)}")
        return degs.pop()

    def form_degrees(self):
        return {len(dx) for (_u, _x, dx) in self.terms}

    def x_degree_max(self):
        return max((sum(x) for (_u, x, _dx) in self.terms), default=0)

    # -- algebra

    def _check_compatible(self, other):
        if (self.num_u, self.num_x) != (other.num_u, other.num_x):
            raise ValueError("forms live over different variable counts")

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return EquivariantForm(self.num_u, self.num_x, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _exact(c)
        return EquivariantForm(self.num_u, self.num_x,
                               {k: c * v for k, v in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def wedge(self, other):
        self._check_compatible(other)
        out = {}
        merged = {}  # (dx1, dx2) -> _merge_dx(dx1, dx2), for this call only
        for (u1, x1, dx1), v1 in self.terms.items():
            for (u2, x2, dx2), v2 in other.terms.items():
                pair = (dx1, dx2)
                merge = merged.get(pair)
                if merge is None:
                    merge = merged[pair] = _merge_dx(dx1, dx2)
                sign, dx = merge
                if sign == 0:
                    continue
                u = tuple(a + b for a, b in zip(u1, u2))
                x = tuple(a + b for a, b in zip(x1, x2))
                key = (u, x, dx)
                out[key] = out.get(key, 0) + sign * v1 * v2
        return EquivariantForm(self.num_u, self.num_x, out)

    def d(self):
        """Exterior derivative in the x variables."""
        out = {}
        for (u, x, dx), v in self.terms.items():
            for i in range(self.num_x):
                if x[i] == 0:
                    continue
                sign, new_dx = _merge_dx((i,), dx)
                if sign == 0:
                    continue
                new_x = list(x)
                new_x[i] -= 1
                key = (u, tuple(new_x), new_dx)
                out[key] = out.get(key, 0) + sign * v * x[i]
        return EquivariantForm(self.num_u, self.num_x, out)

    def contract_linear_field(self, field_matrix):
        """iota_V for the linear vector field V(x) = field_matrix @ x."""
        out = {}
        for (u, x, dx), v in self.terms.items():
            for pos, i in enumerate(dx):
                rest = dx[:pos] + dx[pos + 1:]
                sign = -1 if pos % 2 else 1
                for j in range(self.num_x):
                    coeff = field_matrix[i][j]
                    if not coeff:
                        continue
                    new_x = list(x)
                    new_x[j] += 1
                    key = (u, tuple(new_x), rest)
                    out[key] = out.get(key, 0) + sign * coeff * v
        return EquivariantForm(self.num_u, self.num_x, out)

    def u_times(self, a):
        out = {}
        for (u, x, dx), v in self.terms.items():
            nu = list(u)
            nu[a] += 1
            out[(tuple(nu), x, dx)] = v
        return EquivariantForm(self.num_u, self.num_x, out)

    def embed(self, num_x):
        """Extend by fresh fixed coordinates (exponent zero everywhere)."""
        if num_x < self.num_x:
            raise ValueError("cannot shrink the coordinate count")
        pad = (0,) * (num_x - self.num_x)
        return EquivariantForm(self.num_u, num_x,
                               {(u, x + pad, dx): v for (u, x, dx), v in self.terms.items()})

    def substitute_linear(self, a_matrix, u_matrix=None):
        """Pullback along x -> A x (so x_j -> sum_k A[j][k] x_k and dx_j
        likewise), with an optional linear substitution on the u variables."""
        out = EquivariantForm.zero(self.num_u, self.num_x)
        x_polys = [{_unit_x(self.num_x, k): _exact(a_matrix[j][k])
                    for k in range(self.num_x) if a_matrix[j][k]}
                   for j in range(self.num_x)]
        for (u, x, dx), v in self.terms.items():
            poly = {(0,) * self.num_x: v}
            for j in range(self.num_x):
                for _ in range(x[j]):
                    poly = _poly_mul(poly, x_polys[j])
            form = EquivariantForm.zero(self.num_u, self.num_x)
            base = EquivariantForm(self.num_u, self.num_x,
                                   {((0,) * self.num_u, xe, ()): c for xe, c in poly.items()})
            wedge_part = EquivariantForm.constant(self.num_u, self.num_x, 1)
            for j in dx:
                lin = EquivariantForm(self.num_u, self.num_x,
                                      {((0,) * self.num_u, (0,) * self.num_x, (k,)):
                                       a_matrix[j][k]
                                       for k in range(self.num_x) if a_matrix[j][k]})
                wedge_part = wedge_part.wedge(lin)
            form = base.wedge(wedge_part)
            if u_matrix is not None:
                form = _substitute_u(form, u, u_matrix)
            else:
                form = EquivariantForm(self.num_u, self.num_x,
                                       {(u, xk, dxk): c for (_u0, xk, dxk), c in form.terms.items()})
            out = out + form
        return out

    # -- interval fiber operations: the LAST x variable is the interval
    # coordinate t, its differential dt = dx_{m-1}

    def fiber_integrate(self):
        """Integrate the dt component over [0, 1]; terms without dt die.

        Convention: the integral of dt ^ alpha is the t-integral of alpha,
        so a trailing dt is moved to the front with the sign (-1)^{|I|}.
        """
        t_index = self.num_x - 1
        out = {}
        for (u, x, dx), v in self.terms.items():
            if t_index not in dx:
                continue
            rest = tuple(i for i in dx if i != t_index)
            sign = -1 if len(rest) % 2 else 1
            e = x[t_index]
            new_x = x[:-1]
            key = (u, new_x, rest)
            out[key] = out.get(key, 0) + Fraction(sign * v, e + 1)
        return EquivariantForm(self.num_u, self.num_x - 1, out)

    def restrict_t(self, value):
        """Pull back along the inclusion at t = value (drops dt terms)."""
        t_index = self.num_x - 1
        value = _exact(value)
        out = {}
        for (u, x, dx), v in self.terms.items():
            if t_index in dx:
                continue
            coeff = v * value ** x[t_index] if x[t_index] else v
            key = (u, x[:-1], dx)
            out[key] = out.get(key, 0) + coeff
        return EquivariantForm(self.num_u, self.num_x - 1, out)

    # -- printing / parsing

    def __str__(self):
        return format_form(self)

    def __repr__(self):
        return f"EquivariantForm({format_form(self)!r})"


def _unit_x(n, k):
    e = [0] * n
    e[k] = 1
    return tuple(e)


def _poly_mul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _merge_dx(dx1, dx2):
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


def _substitute_u(form, u_exp, u_matrix):
    """Multiply a (u-free) form by the image of the monomial u^u_exp under
    the linear substitution u_b -> sum_c u_matrix[b][c] u_c."""
    out = form
    k = len(u_exp)
    for b in range(k):
        for _ in range(u_exp[b]):
            summed = EquivariantForm.zero(form.num_u, form.num_x)
            for c in range(k):
                if u_matrix[b][c]:
                    summed = summed + out.u_times(c).scale(u_matrix[b][c])
            out = summed
    return out


# ---------------------------------------------------------------------------
# Cartan differential and invariance


def fundamental_vector_field(act: LinearAction, coeffs):
    """Matrix of the linear field X^#(x) = rep(X) x for X = sum coeffs X_a."""
    m = act.m
    out = q_zeros(m, m)
    for a, c in enumerate(coeffs):
        if c:
            out = _mat_add(out, _mat_scale(act.rep[a], _exact(c)))
    return out


def cartan_d(act: LinearAction, omega: EquivariantForm) -> EquivariantForm:
    """d_C = d + sum_a u_a iota(X_a^#); raises the Cartan degree by one."""
    out = omega.d()
    for a in range(act.lie_algebra.dim):
        out = out + omega.contract_linear_field(act.rep[a]).u_times(a)
    return out


def lie_derivative(act: LinearAction, a, omega: EquivariantForm) -> EquivariantForm:
    """Manifold Lie derivative along X_a^#, via Cartan's magic formula."""
    ia = omega.contract_linear_field(act.rep[a])
    return ia.d() + omega.d().contract_linear_field(act.rep[a])


def total_lie(act: LinearAction, a, omega: EquivariantForm) -> EquivariantForm:
    """Equivariance derivative: manifold Lie derivative plus the induced
    derivation on the u variables (u_b -> sum_c c^b_{a c} u_c)."""
    out = lie_derivative(act, a, omega)
    k = act.lie_algebra.dim
    for (u, x, dx), v in omega.terms.items():
        for b in range(k):
            if u[b] == 0:
                continue
            for c in range(k):
                coeff = act.lie_algebra.c(b, a, c)
                if not coeff:
                    continue
                nu = list(u)
                nu[b] -= 1
                nu[c] += 1
                out = out + EquivariantForm(omega.num_u, omega.num_x,
                                            {(tuple(nu), x, dx): v * coeff * u[b]})
    return out


def group_transform(act: LinearAction, omega: EquivariantForm, g, ad):
    """The action of a group element: pull the form back along x -> g^{-1} x
    and twist the u variables by Ad_{g^{-1}}.  g and ad are inverted on
    every call; the finite elements of act use act.finite_inverses."""
    g_inv = q_inverse(g)
    ad_inv = q_inverse(ad)
    if g_inv is None or ad_inv is None:
        raise ValueError("finite element matrices must be invertible")
    return omega.substitute_linear(g_inv, u_matrix=ad_inv)


def is_invariant(act: LinearAction, omega: EquivariantForm) -> bool:
    """Infinitesimal criterion on the connected part, plus the supplied
    finite subgroup elements when present."""
    for a in range(act.lie_algebra.dim):
        if not total_lie(act, a, omega).is_zero():
            return False
    for g_inv, ad_inv in act.finite_inverses:
        if omega.substitute_linear(g_inv, u_matrix=ad_inv) != omega:
            return False
    return True


# ---------------------------------------------------------------------------
# truncated Cartan cohomology


def _monomials_of_cartan_degree(num_u, num_x, n, x_bound):
    out = []
    for du in range(n // 2 + 1):
        r = n - 2 * du
        if r < 0 or r > num_x:
            continue
        for u in _compositions(du, num_u):
            for dx in combinations(range(num_x), r):
                for dx_total in range(x_bound + 1):
                    for x in _compositions(dx_total, num_x):
                        out.append((u, x, dx))
    return out


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def _operator_images(act, key):
    """Term dicts of the images of one monomial: L first (total_lie per Lie
    basis element, then g.w - w per finite element), cartan_d last."""
    num_u, num_x = act.lie_algebra.dim, act.m
    form = EquivariantForm(num_u, num_x, {key: 1})
    images = [total_lie(act, a, form) for a in range(num_u)]
    images += [form.substitute_linear(g_inv, u_matrix=ad_inv) - form
               for g_inv, ad_inv in act.finite_inverses]
    images.append(cartan_d(act, form))
    return [img.terms for img in images]


def _graded_rank(columns, grade, rows_of):
    """Rank over Q of the operator whose column for the monomial key has
    the entries rows_of(key), a list of term dicts (row (i, term) holds
    rows_of(key)[i][term]).  The operator must preserve grade(key): the
    rank is the sum of rank_q over the graded blocks.  Each row is scaled
    by the lcm of its denominators, so rational actions take the same
    integer path."""
    blocks = {}
    for key in columns:
        blocks.setdefault(grade(key), []).append(key)
    total = 0
    for block in blocks.values():
        rows = {}
        for j, key in enumerate(block):
            for i, terms in enumerate(rows_of(key)):
                for term, c in terms.items():
                    rows.setdefault((i, term), {})[j] = c
        entries = {}
        for r, row in enumerate(rows.values()):
            scale = lcm(*(c.denominator for c in row.values()))
            for j, c in row.items():
                entries[(r, j)] = c.numerator * (scale // c.denominator)
        total += rank_q(IntMatrix(len(rows), len(block), entries))
    return total


def _form_grade(key):
    """s = |x| + |dx|: d moves (|x|, |dx|) by (-1, +1), the contraction by
    (+1, -1), and L preserves both."""
    _u, x, dx = key
    return sum(x) + len(dx)


def _block(key):
    u, x, dx = key
    return sum(u), sum(x), len(dx)


def _cartan_cohomology_dim(act, n, x_bound, images):
    """(dimension, saturated flag) at one truncation level, from ranks.

    L is the invariance operator, D = cartan_d, and pi keeps the target
    coordinates of x-degree > x_bound.  Over the degree-n monomials of
    x-degree <= x_bound, dim ker = N - rank [L; D]; over the degree-(n-1)
    monomials of x-degree <= x_bound + 1 (D raises the x-degree by at most
    one, so these primitives can still bound a form inside the cap), the
    image inside the cap has dimension rank [L; D] - rank [L; pi D].  Both
    stacks preserve s = |x| + |dx| and are ranked block by block.

    saturated warns that invariant forms near the cap took part: some
    (|u|, |x|, |dx|) block with |x| >= x_bound - 1 has invariants.  L
    preserves that triple, so its kernel is spanned by vectors inside one
    block each.

    images maps each monomial to _operator_images(act, key); it is filled
    here as needed and shared by the bounds of one query, since every
    image depends on the action and the monomial alone.
    """
    num_u, num_x = act.lie_algebra.dim, act.m
    top = _monomials_of_cartan_degree(num_u, num_x, n, x_bound)
    prev = _monomials_of_cartan_degree(num_u, num_x, n - 1, x_bound + 1)
    for key in top + prev:
        if key not in images:
            images[key] = _operator_images(act, key)

    def projected(key):
        *lie, d = images[key]
        return lie + [{t: c for t, c in d.items() if sum(t[1]) > x_bound}]

    dim_ker = len(top) - _graded_rank(top, _form_grade, images.__getitem__)
    dim_img_in = (_graded_rank(prev, _form_grade, images.__getitem__)
                  - _graded_rank(prev, _form_grade, projected))

    near_cap = {}
    for key in top + prev:
        if sum(key[1]) >= x_bound - 1:
            near_cap.setdefault(_block(key), []).append(key)
    saturated = any(len(block) > _graded_rank(block, _block, lambda key: images[key][:-1])
                    for block in near_cap.values())
    return dim_ker - dim_img_in, saturated


def cartan_cohomology_truncated(act: LinearAction, n, x_bound):
    """Dimension over Q of invariant Cartan cohomology in degree n, with
    the x-polynomial degree capped at x_bound.

    Returns (dimension, saturated) where saturated warns that monomials
    near the cap participated.  The dimension is computed at x_bound,
    x_bound + 1 and x_bound + 2 from one shared set of operator images;
    unless all three agree, TruncationUnstable names the three bounds.
    Comparing consecutive bounds catches an error that repeats with the
    parity of the bound.  A negative x_bound raises ValueError.
    """
    if x_bound < 0:
        raise ValueError(f"x_bound must be nonnegative, got {x_bound}")
    images = {}
    dim, saturated = _cartan_cohomology_dim(act, n, x_bound, images)
    bounds = (x_bound, x_bound + 1, x_bound + 2)
    dims = [dim] + [_cartan_cohomology_dim(act, n, b, images)[0] for b in bounds[1:]]
    if len(set(dims)) > 1:
        raise TruncationUnstable(
            f"degree {n}: dimensions {dims} at bounds {list(bounds)}")
    return dim, saturated


# ---------------------------------------------------------------------------
# interval fiber integration


def fiber_integrate_interval(omega: EquivariantForm) -> EquivariantForm:
    """Fiber integral over [0,1] (the last coordinate); together with the
    restrictions i_0, i_1 it satisfies

        d_C (integral w) + integral (d_C w) = i_1^* w - i_0^* w

    exactly, for any polynomial form (the group acting trivially on t)."""
    return omega.fiber_integrate()


# ---------------------------------------------------------------------------
# shuffles and the finite-group comparison map


@dataclass(frozen=True)
class ShuffleIndex:
    l: int
    p: int
    permutation: tuple  # pi(1..p) as a tuple, 1-based values
    sign: int

    def __post_init__(self):
        pi = self.permutation
        if sorted(pi) != list(range(1, self.p + 1)):
            raise ValueError("not a permutation of 1..p")
        if list(pi[:self.l]) != sorted(pi[:self.l]) or \
                list(pi[self.l:]) != sorted(pi[self.l:]):
            raise ValueError("monotonicity runs violated")
        if self.sign != _parity(pi):
            raise ValueError("stored sign is not the parity")


def _parity(pi):
    sign = 1
    for i in range(len(pi)):
        for j in range(i + 1, len(pi)):
            if pi[i] > pi[j]:
                sign = -sign
    return sign


def shuffle_set(l, p):
    """All (l, p-l) shuffles with their signs; the count is binomial(p, l)."""
    if not 0 <= l <= p:
        raise ValueError("need 0 <= l <= p")
    out = []
    values = list(range(1, p + 1))
    for first in combinations(values, l):
        rest = tuple(v for v in values if v not in first)
        pi = first + rest
        out.append(ShuffleIndex(l, p, pi, _parity(pi)))
    return out


def getzler_dbar_matrix(bl, p, q):
    """The bar-type boundary on C^p(G, C^q(M)) from the group-cochain
    formula: drop the first entry, multiply adjacent entries with
    alternating signs, and act on the coefficients with the last entry.

    This is written independently of the face-map machinery; the finite
    degeneration of the comparison map is the identity on coordinates, so
    agreeing with the simplicial vertical differential is exactly the
    chain-map property of that comparison.
    """
    group = bl.group
    space = bl.space
    m = group.order
    nq = space.ncells(q)
    rows = (m ** (p + 1)) * nq
    cols = (m ** p) * nq
    entries = {}

    def add(row, col, val):
        entries[(row, col)] = entries.get((row, col), 0) + val

    for t in range(m ** (p + 1)):
        # decode (g_0, ..., g_p), g_0 most significant
        g = []
        rest = t
        for pos in range(p + 1):
            power = m ** (p - pos)
            g.append(rest // power)
            rest %= power
        # term 0: drop g_0
        col_t = 0
        for pos in range(1, p + 1):
            col_t = col_t * m + g[pos]
        for c in range(nq):
            add(t * nq + c, col_t * nq + c, 1)
        # terms 1..p: merge g_{i-1} g_i
        for i in range(1, p + 1):
            merged = list(g)
            merged[i - 1] = group.mul(g[i - 1], g[i])
            del merged[i]
            col_t = 0
            for v in merged:
                col_t = col_t * m + v
            sign = -1 if i % 2 else 1
            for c in range(nq):
                add(t * nq + c, col_t * nq + c, sign)
        # term p+1: act with g_p on the coefficient cochain
        col_t = 0
        for v in g[:-1]:
            col_t = col_t * m + v
        sign = -1 if (p + 1) % 2 else 1
        gp = g[-1]
        for c in range(nq):
            c2, s = bl.act.act_cell(gp, q, c)
            add(t * nq + c, col_t * nq + c2, sign * s)
    return IntMatrix(rows, cols, {k: v for k, v in entries.items() if v})


def getzler_map_finite(bl, p, q, cochain):
    """For a finite group the comparison map is the identity on the
    coordinates of C^q(G^p x M) = C^p(G, C^q(M)): all contraction terms
    vanish with the Lie algebra, and the only shuffle is the identity."""
    expected = bl.cells(p, q)
    if len(cochain) != expected:
        raise ValueError("cochain length does not match the level")
    return list(cochain)


def getzler_chain_map_check(bl, p, q):
    """Does the comparison map intertwine the simplicial boundary with the
    group-cochain boundary at level p?  (Exhaustive: matrix equality.)"""
    return bl.full_vertical_matrix(p, q) == getzler_dbar_matrix(bl, p, q)


# ---------------------------------------------------------------------------
# printing and parsing


def format_form(omega: EquivariantForm) -> str:
    if not omega.terms:
        return "0"
    pieces = []
    for (u, x, dx), v in sorted(omega.terms.items()):
        factors = []
        for a, e in enumerate(u):
            if e == 1:
                factors.append(f"u{a + 1}")
            elif e > 1:
                factors.append(f"u{a + 1}^{e}")
        for i, e in enumerate(x):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        if dx:
            factors.append("^".join(f"dx{i + 1}" for i in dx))
        coeff = str(v)
        if factors and v == 1:
            body = "*".join(factors)
        elif factors and v == -1:
            body = "-" + "*".join(factors)
        elif factors:
            body = coeff + "*" + "*".join(factors)
        else:
            body = coeff
        pieces.append(body)
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


_TOKEN = re.compile(r"^(u|x|dx)(\d+)(?:\^(\d+))?$")


def parse_form(text, num_u, num_x) -> EquivariantForm:
    """Parse the printer grammar: rational coefficients, u1..uk, x1..xm,
    dx1..dxm, '^' wedges dx factors (or powers scalars), '*' multiplies."""
    text = text.strip()
    if text in ("0", ""):
        return EquivariantForm.zero(num_u, num_x)
    terms = {}
    if text.startswith("- "):
        text = "-" + text[2:]
    normalized = text.replace(" - ", " + -")
    for chunk in normalized.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        coeff = sign
        u = [0] * num_u
        x = [0] * num_x
        dx = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            if factor.startswith("dx"):
                for wf in factor.split("^"):
                    mobj = _TOKEN.match(wf)
                    if not mobj or mobj.group(1) != "dx":
                        raise ValueError(f"cannot parse wedge factor {wf!r}")
                    dx.append(int(mobj.group(2)) - 1)
                continue
            mobj = _TOKEN.match(factor)
            if not mobj:
                raise ValueError(f"cannot parse factor {factor!r}")
            kind, idx, power = mobj.group(1), int(mobj.group(2)) - 1, mobj.group(3)
            e = int(power) if power else 1
            if kind == "u":
                u[idx] += e
            elif kind == "x":
                x[idx] += e
            else:
                dx.append(idx)
        sgn, dx_sorted = _merge_dx(dx, ())
        if sgn == 0:
            continue
        key = (tuple(u), tuple(x), dx_sorted)
        terms[key] = terms.get(key, 0) + coeff * sgn
    return EquivariantForm(num_u, num_x, terms)
