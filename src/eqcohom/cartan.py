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
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from math import comb, lcm
from operator import or_
from types import MappingProxyType

from .linalg import IntMatrix, q_inverse, rank_q


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


class InvalidLieAction(ValueError):
    """Lie data that fail antisymmetry, Jacobi, the bracket or invertibility."""


class LieAlgebra:
    """Structure constants [X_b, X_c] = sum_a c[a][b][c] X_a, all rational
    (held through _exact)."""

    def __init__(self, dim, structure=None):
        self.dim = dim
        if structure is None:
            structure = {}
        self.structure = {}
        for (a, b, c), v in structure.items():
            v = _exact(v)
            if v:
                self.structure[(a, b, c)] = v
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
                        raise InvalidLieAction("structure constants are not antisymmetric")
        # Jacobi: [[a,b],c] + [[b,c],a] + [[c,a],b] = 0, coefficient by coefficient
        for a, b, c, e in product(range(k), repeat=4):
            if sum(self.c(d, a, b) * self.c(e, d, c) + self.c(d, b, c) * self.c(e, d, a)
                   + self.c(d, c, a) * self.c(e, d, b) for d in range(k)):
                raise InvalidLieAction("Jacobi identity fails")

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
        return cls(3, structure)

    @classmethod
    def from_json_obj(cls, obj):
        return cls(obj["dim"], {(a, b, c): v for a, b, c, v in obj["structure"]})


class LinearAction:
    """A representation of the Lie algebra on R^m by rational matrices, with
    optional finite subgroup elements (pairs of a base matrix and its
    adjoint-action matrix) for the non-connected part of invariance checks.
    Entries are held through _exact, so an integral action keeps contractions
    and Lie derivatives on int arithmetic.

    A finite element is never inverted: a form is fixed by a map exactly when
    it is fixed by the map's inverse.  A misshapen g or Ad raises ValueError,
    a singular one InvalidLieAction.

    An action keeps the generator tables of its derivations (tables, see
    _tabulate), its trivial extensions (extensions, see extend_trivially)
    and, in cartan_blocks, three ints per block C_w in degree n that a
    Cartan query has built: {(n, w): (monomials, rank [L; D], rank L)}.
    The homotopy check runs once per block built; the budget
    (check_cartan_query) counts every block of a query, kept or not."""

    def __init__(self, lie_algebra: LieAlgebra, rep, finite_elements=()):
        self.lie_algebra = lie_algebra
        self.rep = [_exact_matrix(m) for m in rep]
        if len(self.rep) != lie_algebra.dim:
            raise ValueError("need one representation matrix per basis element")
        self.m = len(self.rep[0]) if self.rep else 0
        if not all(_is_square(mat, self.m) for mat in self.rep):
            raise ValueError("representation matrices must be square of equal size")
        k = lie_algebra.dim
        self.finite_elements = []
        for g, ad in finite_elements:
            g = _exact_matrix(g)
            ad = _exact_matrix(ad if ad is not None else [[int(i == j) for j in range(k)]
                                                          for i in range(k)])
            if not (_is_square(g, self.m) and _is_square(ad, k)):
                raise ValueError("finite element matrices must be square, g of size "
                                 f"{self.m} and Ad of size {k}")
            if not (_invertible(g) and _invertible(ad)):
                raise InvalidLieAction("finite element matrices must be invertible")
            self.finite_elements.append((g, ad))
        self._validate()
        self.tables = self._tabulate()
        self.cartan_blocks = {}
        self.extensions = {}

    def _validate(self):
        k = self.lie_algebra.dim
        for b in range(k):
            for c in range(k):
                comm = _mat_sub(_mat_mul(self.rep[b], self.rep[c]),
                                _mat_mul(self.rep[c], self.rep[b]))
                want = [[0] * self.m for _ in range(self.m)]
                for a in range(k):
                    coeff = self.lie_algebra.c(a, b, c)
                    if coeff:
                        want = _mat_add(want, _mat_scale(self.rep[a], coeff))
                if comm != want:
                    raise InvalidLieAction("rep does not respect the bracket")

    def _tabulate(self):
        """The generator tables (_table) of d_C and iota_E, and per basis
        element X_a those of iota(X_a^#) and of the manifold and total Lie
        derivatives; the u-derivation of X_a is u_b -> sum_c c^b_{a c} u_c."""
        k, m = self.lie_algebra.dim, self.m
        us = [_unit(m, a) for a in range(k)]
        xs = [_unit(m, k + j) for j in range(m)]
        dxs = [1 << i for i in range(m)]
        d_c = {i: {} for i in range(m)}
        tables = {"iota": [], "lie": [], "total_lie": []}
        for a, mat in enumerate(self.rep):
            for i, image in _images(mat, [us[a] + x for x in xs]).items():
                d_c[i].update(image)
            x_images = {k + i: image for i, image in _images(mat, xs).items()}
            dx_images = _images(mat, dxs)
            u_matrix = [[self.lie_algebra.c(b, a, e) for e in range(k)] for b in range(k)]
            tables["iota"].append(_table(k, m, {}, _images(mat, xs)))
            tables["lie"].append(_table(k, m, x_images, dx_images))
            tables["total_lie"].append(_table(k, m, {**_images(u_matrix, us), **x_images},
                                              dx_images))
        tables["cartan_d"] = _table(k, m, {k + i: {bit: 1} for i, bit in enumerate(dxs)}, d_c)
        tables["euler"] = _table(k, m, {}, {i: {x: 1} for i, x in enumerate(xs)})
        return tables

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
        for the interval factor in transgression computations).  Built once
        per extra and kept in extensions."""
        m = self.m

        def pad(mat, corner):
            """mat in the top left corner, corner * identity in the bottom right."""
            return ([list(row) + [0] * extra for row in mat]
                    + [[0] * m + [corner * (r == c) for c in range(extra)] for r in range(extra)])
        if extra not in self.extensions:
            self.extensions[extra] = LinearAction(
                self.lie_algebra, [pad(mat, 0) for mat in self.rep],
                [(pad(g, 1), ad) for g, ad in self.finite_elements])
        return self.extensions[extra]

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


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _is_square(mat, n):
    return len(mat) == n and all(len(row) == n for row in mat)


def _invertible(mat):
    """Is the square matrix mat of full rank over Q?"""
    return _ranks([{i: row[j] for i, row in enumerate(mat) if row[j]}
                   for j in range(len(mat))], ())[1] == len(mat)


def _mat_scale(a, c):
    return [[c * x for x in row] for row in a]


# ---------------------------------------------------------------------------
# equivariant forms


class LaneOverflow(ValueError):
    """An exponent does not fit in its lane of a packed key."""


LANE_BITS = 8     # the width of an exponent's lane in a packed key, guard bit included
MAX_EXPONENT = (1 << (LANE_BITS - 1)) - 1


def _pack(num_x, u, x, dx):
    return sum(e << (num_x + LANE_BITS * j) for j, e in enumerate((*u, *x))) + sum(1 << i for i in dx)


def _unpack(num_u, num_x, key):
    """The (u_exponents, x_exponents, dx_indices) tuples of a packed key."""
    e = [key >> (num_x + LANE_BITS * j) & MAX_EXPONENT for j in range(num_u + num_x)]
    return tuple(e[:num_u]), tuple(e[num_u:]), tuple(i for i in range(num_x) if key >> i & 1)


def _unit(num_x, lane):
    """The packed key of exponent 1 in one lane: u_a is lane a, x_i lane num_u + i."""
    return 1 << (num_x + LANE_BITS * lane)


def _check_lanes(num_u, num_x, terms):
    """Raise LaneOverflow if a key of terms has a guard bit set."""
    lanes = num_u + num_x
    guards = ((1 << LANE_BITS * lanes) - 1) // ((1 << LANE_BITS) - 1) << (num_x + LANE_BITS - 1)
    if reduce(or_, terms, 0) & guards:
        raise LaneOverflow(f"an exponent grew past the lane limit {MAX_EXPONENT}")


class EquivariantForm:
    """Finite sum of (u-monomial x x-polynomial x exterior monomial) terms.

    packed maps each term's key, one int, to its coefficient.  The low
    num_x bits of a key hold the dx set as a bitmask (bit i for dx_{i+1});
    above them u_1..u_k, then x_1..x_m, each take a lane of LANE_BITS bits
    whose top bit is a guard, so an exponent is at most MAX_EXPONENT.  Two
    monomials with disjoint dx masks multiply by adding their keys; an
    exponent that grows past the limit sets a guard bit, which the
    operations that raise exponents check (LaneOverflow).  terms is the
    read-only tuple view {(u_exponents, x_exponents, dx_indices): value},
    built on each read.  Values are nonzero exact rationals, an int when
    integral and a Fraction otherwise (_exact).  The constructor validates
    tuple keys (an exponent above MAX_EXPONENT raises LaneOverflow); the
    operations build their results by _of, which checks no key because
    theirs are valid by construction.
    """

    __slots__ = ("num_u", "num_x", "packed")

    def __init__(self, num_u, num_x, terms=None):
        self.num_u = num_u
        self.num_x = num_x
        self.packed = {}
        for key, v in (terms or {}).items():
            v = _exact(v)
            if not v:
                continue
            u, x, dx = key
            if len(u) != num_u or len(x) != num_x:
                raise ValueError("exponent tuple lengths do not match the variable counts")
            if any(type(e) is not int or e < 0 for e in (*u, *x)):
                raise ValueError(f"exponents must be nonnegative ints, got {key}")
            if max((*u, *x), default=0) > MAX_EXPONENT:
                raise LaneOverflow(f"exponent above the lane limit {MAX_EXPONENT} in {key}")
            if (any(type(i) is not int or not 0 <= i < num_x for i in dx)
                    or list(dx) != sorted(set(dx))):
                raise ValueError(f"bad dx monomial {dx}")
            self.packed[_pack(num_x, u, x, dx)] = v

    @classmethod
    def _of(cls, num_u, num_x, packed):
        """Wrap a packed term dict whose keys are valid by construction: zero
        values are dropped and values that are not int go through _exact,
        but no key is checked."""
        form = cls.__new__(cls)
        form.num_u = num_u
        form.num_x = num_x
        form.packed = {k: v if type(v) is int else _exact(v)
                       for k, v in packed.items() if v}
        return form

    @property
    def terms(self):
        num_u, num_x = self.num_u, self.num_x
        return MappingProxyType({_unpack(num_u, num_x, k): v for k, v in self.packed.items()})

    # -- constructors

    @classmethod
    def zero(cls, num_u, num_x):
        return cls._of(num_u, num_x, {})

    @classmethod
    def constant(cls, num_u, num_x, value):
        return cls._of(num_u, num_x, {0: value})

    @classmethod
    def coordinate(cls, num_u, num_x, i):
        x = [0] * num_x
        x[i] = 1
        return cls(num_u, num_x, {((0,) * num_u, tuple(x), ()): 1})

    # -- structure

    def is_zero(self):
        return not self.packed

    def __eq__(self, other):
        if not isinstance(other, EquivariantForm):
            return NotImplemented
        return (self.num_u, self.num_x, self.packed) == (other.num_u, other.num_x, other.packed)

    def __hash__(self):
        return hash((self.num_u, self.num_x, frozenset(self.packed.items())))

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

    # -- algebra

    def _check_compatible(self, other):
        if (self.num_u, self.num_x) != (other.num_u, other.num_x):
            raise ValueError("forms live over different variable counts")

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.packed)
        for k, v in other.packed.items():
            terms[k] = terms.get(k, 0) + v
        return EquivariantForm._of(self.num_u, self.num_x, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _exact(c)
        return EquivariantForm._of(self.num_u, self.num_x,
                                   {k: c * v for k, v in self.packed.items()})

    def __neg__(self):
        return self.scale(-1)

    def wedge(self, other):
        out = {}
        _wedge_into(out, self, other)
        return EquivariantForm._of(self.num_u, self.num_x, out)

    def d(self):
        """Exterior derivative in the x variables."""
        return self.derive(_d_table(self.num_u, self.num_x))

    def contract_linear_field(self, field_matrix):
        """iota_V for the linear vector field V(x) = field_matrix @ x."""
        xs = [_unit(self.num_x, self.num_u + j) for j in range(self.num_x)]
        return self.derive(_table(self.num_u, self.num_x, {}, _images(field_matrix, xs)))

    def derive(self, table):
        """The image under the (anti)derivation of a generator table (_table)."""
        if table[:2] != (self.num_u, self.num_x):
            raise ValueError("the form and the derivation live over different variable counts")
        return EquivariantForm._of(self.num_u, self.num_x, _derive(table, self.packed))

    def u_times(self, a):
        unit = _unit(self.num_x, a)
        out = {k + unit: v for k, v in self.packed.items()}
        _check_lanes(self.num_u, self.num_x, out)
        return EquivariantForm._of(self.num_u, self.num_x, out)

    def embed(self, num_x):
        """Extend by fresh fixed coordinates (exponent zero everywhere)."""
        if num_x < self.num_x:
            raise ValueError("cannot shrink the coordinate count")
        low = (1 << self.num_x) - 1
        return EquivariantForm._of(self.num_u, num_x, {(k >> self.num_x) << num_x | k & low: v
                                                       for k, v in self.packed.items()})

    def substitute_linear(self, a_matrix, u_matrix=None):
        """Pullback along x -> A x (so x_j -> sum_k A[j][k] x_k and dx_j
        likewise), with an optional linear substitution on the u variables."""
        num_u, num_x = self.num_u, self.num_x
        x_images = [EquivariantForm._of(num_u, num_x, {_unit(num_x, num_u + k): a for k, a
                                                       in enumerate(row)}) for row in a_matrix]
        dx_images = [EquivariantForm._of(num_u, num_x, {1 << k: a for k, a in enumerate(row)})
                     for row in a_matrix]
        u_lanes = _unit(num_x, num_u) - (1 << num_x)

        def image(k, v):
            u, x, dx = _unpack(num_u, num_x, k)
            form = EquivariantForm._of(num_u, num_x, {k & u_lanes if u_matrix is None else 0: v})
            for j, e in enumerate(x):
                for _ in range(e):
                    form = form.wedge(x_images[j])
            for j in dx:
                form = form.wedge(dx_images[j])
            return form if u_matrix is None else _substitute_u(form, u, u_matrix)

        return _sum_forms(num_u, num_x, (image(k, v) for k, v in self.packed.items()))

    # -- interval fiber operations: the LAST x variable is the interval
    # coordinate t, its differential dt = dx_{m-1}

    def _split_t(self):
        """(key without t, dt bit, t exponent, value) for each term."""
        num_x = self.num_x
        dt = 1 << (num_x - 1)
        top = num_x + LANE_BITS * (self.num_u + num_x - 1)
        below = (1 << (top - num_x)) - 1
        for k, v in self.packed.items():
            yield (k >> num_x & below) << (num_x - 1) | k & (dt - 1), k & dt, k >> top, v

    def fiber_integrate(self):
        """Fiber integral over [0, 1], the last coordinate t: integrate the
        dt component; terms without dt die.  Together with the restrictions
        i_0, i_1 (restrict_t) it satisfies the homotopy identity

            d_C (integral w) + integral (d_C w) = i_1^* w - i_0^* w

        exactly, for any polynomial form (the group acting trivially on t).

        Convention: the integral of dt ^ alpha is the t-integral of alpha,
        so a trailing dt is moved to the front with the sign (-1)^{|I|}.
        """
        low = (1 << (self.num_x - 1)) - 1
        out = {}
        for key, dt, e, v in self._split_t():
            if dt:
                sign = -1 if (key & low).bit_count() & 1 else 1
                out[key] = out.get(key, 0) + Fraction(sign * v, e + 1)
        return EquivariantForm._of(self.num_u, self.num_x - 1, out)

    def restrict_t(self, value):
        """Pull back along the inclusion at t = value (drops dt terms)."""
        value = _exact(value)
        out = {}
        for key, dt, e, v in self._split_t():
            if not dt:
                out[key] = out.get(key, 0) + (v * value ** e if e else v)
        return EquivariantForm._of(self.num_u, self.num_x - 1, out)

    # -- printing / parsing

    def __str__(self):
        return format_form(self)

    def __repr__(self):
        return f"EquivariantForm({format_form(self)!r})"


def _inversions(m1, m2):
    """Pairs i > j with i in the dx mask m1 and j in m2: the transpositions
    that sort the dx of m1 followed by the dx of m2."""
    return sum((m1 >> j + 1).bit_count() for j in range(m2.bit_length()) if m2 >> j & 1)


def _wedge_into(out, f, g):
    """Add the terms of f ^ g into the packed term dict out, a sum that the
    caller wraps with EquivariantForm._of.  Two monomials multiply by adding
    their keys; the sign of each pair of dx masks is taken once per call."""
    f._check_compatible(g)
    low = (1 << f.num_x) - 1
    signs = {}  # (mask1 << num_x | mask2) -> sign of the pair, for this call only
    for k1, v1 in f.packed.items():
        m1 = k1 & low
        for k2, v2 in g.packed.items():
            m2 = k2 & low
            if m1 & m2:
                continue
            pair = m1 << f.num_x | m2
            sign = signs.get(pair)
            if sign is None:
                sign = signs[pair] = -1 if _inversions(m1, m2) & 1 else 1
            key = k1 + k2
            out[key] = out.get(key, 0) + sign * v1 * v2
    _check_lanes(f.num_u, f.num_x, out)


def _sum_forms(num_u, num_x, forms):
    """The sum of an iterable of forms over num_u, num_x variables,
    accumulated in one term dict."""
    out = {}
    for form in forms:
        if (form.num_u, form.num_x) != (num_u, num_x):
            raise ValueError("forms live over different variable counts")
        for k, v in form.packed.items():
            out[k] = out.get(k, 0) + v
    return EquivariantForm._of(num_u, num_x, out)


def _substitute_u(form, u_exp, u_matrix):
    """Multiply a (u-free) form by the image of the monomial u^u_exp under
    the linear substitution u_b -> sum_c u_matrix[b][c] u_c."""
    out = form
    k = len(u_exp)
    for b in range(k):
        for _ in range(u_exp[b]):
            out = _sum_forms(form.num_u, form.num_x,
                             (out.u_times(c).scale(u_matrix[b][c])
                              for c in range(k) if u_matrix[b][c]))
    return out


# ---------------------------------------------------------------------------
# (anti)derivations from generator tables
#
# d, the contractions, the Lie derivatives and d_C are (anti)derivations of
# the free graded-commutative algebra on u, x and dx, each fixed by its values
# on the generators.  A monomial is s * g * rest for each factor g, s = -1 for
# a dx behind an odd number of dx and 1 otherwise; whatever the parity of D,
# D(monomial) is the sum over the factors of exponent * s * D(g) ^ rest.


def _images(matrix, gens):
    """{i: sum_j matrix[i][j] gens[j]} as {packed key: coefficient}, for the nonzero rows."""
    images = ({g: c for g, c in zip(gens, row) if c} for row in matrix)
    return {i: image for i, image in enumerate(images) if image}


def _table(num_u, num_x, lanes, dxs):
    """The generator table of a derivation from the images {lane: image} of
    u_1..u_k, x_1..x_m (lanes 0..k + m - 1) and {i: image} of dx_{i+1}, each
    image {packed key: coefficient} with at most one dx; the others go to 0.
    An image term is kept as (the generator's shift or bit, image key - its
    key, the image's dx bit, the bits below that bit, coefficient)."""
    low = (1 << num_x) - 1

    def term(generator, key, c):
        dx = key & low
        return key - generator, dx, max(dx - 1, 0), c
    return (num_u, num_x,
            [(num_x + LANE_BITS * lane, *term(_unit(num_x, lane), key, c))
             for lane, image in lanes.items() for key, c in image.items()],
            [(1 << i, *term(1 << i, key, c)) for i, image in dxs.items() for key, c in image.items()])


def _d_table(num_u, num_x):
    """The table of d: x_i -> dx_i."""
    return _table(num_u, num_x, {num_u + i: {1 << i: 1} for i in range(num_x)}, {})


def _derive(table, packed):
    """The image of a packed term dict under the derivation of table, a term
    dict that may hold zeros; raises LaneOverflow past the lane limit.  The
    sign of an image term is that of moving its dx, and the dx taken out, in."""
    num_u, num_x, lanes, dxs = table
    low = (1 << num_x) - 1
    out = {}
    get = out.get
    for k, v in packed.items():
        k_dx = k & low
        for shift, delta, dx, below, c in lanes:
            e = k >> shift & MAX_EXPONENT
            if e and not dx & k_dx:
                key = k + delta
                out[key] = get(key, 0) + (-c if (k_dx & below).bit_count() & 1 else c) * e * v
        for bit, delta, dx, below, c in dxs:
            rest = k_dx ^ bit
            if k & bit and not dx & rest:
                key = k + delta
                sign = ((k_dx & (bit - 1)).bit_count() + (rest & below).bit_count()) & 1
                out[key] = get(key, 0) + (-c if sign else c) * v
    _check_lanes(num_u, num_x, out)
    return out


# ---------------------------------------------------------------------------
# Cartan differential and invariance


def fundamental_vector_field(act: LinearAction, coeffs):
    """Matrix of the linear field X^#(x) = rep(X) x for X = sum coeffs X_a."""
    m = act.m
    out = [[0] * m for _ in range(m)]
    for a, c in enumerate(coeffs):
        if c:
            out = _mat_add(out, _mat_scale(act.rep[a], _exact(c)))
    return out


def cartan_d(act: LinearAction, omega: EquivariantForm) -> EquivariantForm:
    """d_C = d + sum_a u_a iota(X_a^#); raises the Cartan degree by one.
    Without a Lie algebra d_C is d, over any number of x variables."""
    return omega.derive(act.tables["cartan_d"]) if act.lie_algebra.dim else omega.d()


def lie_derivative(act: LinearAction, a, omega: EquivariantForm) -> EquivariantForm:
    """Manifold Lie derivative along X_a^#, d iota + iota d by Cartan's magic
    formula: x -> rep(X_a) x and dx -> rep(X_a) dx on the generators."""
    return omega.derive(act.tables["lie"][a])


def total_lie(act: LinearAction, a, omega: EquivariantForm) -> EquivariantForm:
    """Equivariance derivative: manifold Lie derivative plus the induced
    derivation on the u variables (u_b -> sum_c c^b_{a c} u_c)."""
    return omega.derive(act.tables["total_lie"][a])


def group_transform(omega: EquivariantForm, g, ad):
    """The action of a group element: pull the form back along x -> g^{-1} x
    and twist the u variables by Ad_{g^{-1}}.  g and ad are inverted on
    every call; invariance under a LinearAction's finite elements needs no
    inverse (is_invariant)."""
    g_inv = q_inverse(g)
    ad_inv = q_inverse(ad)
    if g_inv is None or ad_inv is None:
        raise ValueError("finite element matrices must be invertible")
    return omega.substitute_linear(g_inv, u_matrix=ad_inv)


def _invariance_images(act: LinearAction, omega: EquivariantForm):
    """The invariance operator L on omega: total_lie per Lie basis element,
    then S(g, Ad) omega - omega per finite element, with S the pullback
    substitute_linear.  S(g, Ad) is the action of g^{-1}, and a form is
    fixed by g exactly when it is fixed by g^{-1}, so no element is
    inverted."""
    return [total_lie(act, a, omega) for a in range(act.lie_algebra.dim)] + [
        omega.substitute_linear(g, u_matrix=ad) - omega for g, ad in act.finite_elements]


def is_invariant(act: LinearAction, omega: EquivariantForm) -> bool:
    """Infinitesimal criterion on the connected part, plus the supplied
    finite subgroup elements when present: every image of the invariance
    operator (_invariance_images) is zero."""
    return all(image.is_zero() for image in _invariance_images(act, omega))


# ---------------------------------------------------------------------------
# Cartan cohomology by scaling weight
#
# X_a^#(x) = rep(X_a) x is linear, so d moves (|x|, |dx|) by (-1, +1) and each
# u_a iota(X_a^#) by (+1, -1): d_C preserves the weight w = |x| + |dx|, and so
# do the invariance operators.  The invariant Cartan complex is the direct
# sum of its blocks C_w, each finite in each degree.  The Euler field
# E = sum_i x_i d/dx_i commutes with every linear field, and iota_E
# anticommutes with each iota(X_a^#), so d_C iota_E + iota_E d_C = L_E = w on
# C_w: every block with w > 0 is acyclic, and H(C_0) = S(g*)^G
# (Berline-Getzler-Vergne ch. 7; Guillemin-Sternberg, Supersymmetry and
# Equivariant de Rham Theory, ch. 4).


class CartanComplexTooLarge(Exception):
    """The blocks of a query hold more than CARTAN_BUDGET monomials."""


class CartanCheckFailed(Exception):
    """The homotopy identity failed on a monomial, or a block of weight
    w > 0 has cohomology: an internal error, never an answer."""


CARTAN_BUDGET = 20_000  # monomials over the blocks of one query


def _compositions(total, parts):
    """The tuples of parts nonnegative ints that sum to total."""
    return [tuple(c.count(i) for i in range(parts))
            for c in combinations_with_replacement(range(parts), total)]


def _dx_counts(n, w, num_x):
    """The |dx| of the monomials of Cartan degree n = 2|u| + |dx| and weight w."""
    return [r for r in range(min(n, w, num_x) + 1) if (n - r) % 2 == 0]


def cartan_size(act: LinearAction, degrees, x_bound):
    """The number of monomials in the blocks C_w, w = 0..x_bound, of the
    degrees lo - 1..hi, where lo and hi are the first and last of the
    consecutive degrees: each block that cartan_cohomology_range builds,
    counted once.  In closed form: dx subsets times the compositions of
    |x| = w - |dx| and of |u| = (m - |dx|) / 2 in degree m."""
    num_u, num_x = act.lie_algebra.dim, act.m

    def count(total, parts):
        return comb(total + parts - 1, parts - 1) if parts else int(total == 0)
    return sum(comb(num_x, r) * count(w - r, num_x) * count((m - r) // 2, num_u)
               for m in range(degrees[0] - 1, degrees[-1] + 1) for w in range(x_bound + 1)
               for r in _dx_counts(m, w, num_x))


def check_cartan_query(act: LinearAction, degrees, x_bound):
    """Refuse a query on the consecutive degrees (a range, or a list of
    one) before any work: a negative x_bound (ValueError), an exponent past
    MAX_EXPONENT (LaneOverflow; blocks reach x-degree x_bound and u-degree
    n // 2 + 1 for the last degree n), or blocks over CARTAN_BUDGET
    monomials, each distinct block counted once (cartan_size)."""
    if x_bound < 0:
        raise ValueError(f"x_bound must be nonnegative, got {x_bound}")
    n = degrees[-1]
    need = max(x_bound, n // 2 + 1)
    if need > MAX_EXPONENT:
        raise LaneOverflow(f"degree {n} at x_bound {x_bound} needs exponents up to {need}, "
                           f"above the lane limit {MAX_EXPONENT}: x_bound <= {MAX_EXPONENT}, "
                           f"degree <= {2 * MAX_EXPONENT - 1}")
    size = cartan_size(act, degrees, x_bound)
    if size > CARTAN_BUDGET:
        raise CartanComplexTooLarge(f"degrees {degrees[0]}..{n} at x_bound {x_bound}: the "
                                    f"blocks hold {size} monomials, over the budget of "
                                    f"{CARTAN_BUDGET}")


def _block_columns(act, n, w):
    """The columns of [L; D] on the monomials of C_w in degree n, dicts from
    a row (operator, term) to its entry, and the set of the rows of L.  L
    is the invariance operator of is_invariant (_invariance_images);
    D = cartan_d.  With S the pullback substitute_linear, S(g, Ad) - 1 is
    -S(g, Ad) (S(g^-1, Ad^-1) - 1), an invertible map of C_w times the
    block of g.f - f, so every kernel and rank is that of the latter.
    Checks d_C iota_E + iota_E d_C = w on each monomial."""
    num_u, num_x = act.lie_algebra.dim, act.m
    euler = act.tables["euler"]
    columns, lie_rows = [], set()
    for r in _dx_counts(n, w, num_x):
        for u, dx, x in product(_compositions((n - r) // 2, num_u),
                                combinations(range(num_x), r), _compositions(w - r, num_x)):
            f = EquivariantForm._of(num_u, num_x, {_pack(num_x, u, x, dx): 1})
            images = _invariance_images(act, f)
            df = cartan_d(act, f)
            homotopy = cartan_d(act, f.derive(euler)) + df.derive(euler)
            if homotopy != f.scale(w):
                raise CartanCheckFailed(f"d_C iota_E + iota_E d_C is {homotopy} on {f}, "
                                        f"not {w} times it")
            column = {(i, t): c for i, img in enumerate(images) for t, c in img.packed.items()}
            lie_rows.update(column)
            column.update(((len(images), t), c) for t, c in df.packed.items())
            columns.append(column)
    return columns, lie_rows


def _block_ranks(act, n, w):
    """(monomial count, rank [L; D], rank L) of C_w in degree n, kept on act:
    the block is built, and its homotopy identity checked, on first need."""
    if (n, w) not in act.cartan_blocks:
        columns, lie_rows = _block_columns(act, n, w)
        rank_lie, rank_full = _ranks(columns, lie_rows)
        act.cartan_blocks[(n, w)] = (len(columns), rank_full, rank_lie)
    return act.cartan_blocks[(n, w)]


def _ranks(columns, lead):
    """(rank of the rows in lead, rank) over Q of the matrix with these
    columns (dicts from row to entry), each row scaled by the lcm of its
    denominators: one elimination (rank_q) of the transpose, the rows in
    lead eliminated first."""
    rows = {}
    for j, column in enumerate(columns):
        for row, c in column.items():
            rows.setdefault(row, {})[j] = c
    if not rows:
        return 0, 0
    entries = {}
    for i, row in enumerate(rows.values()):
        scale = lcm(*(c.denominator for c in row.values()))
        for j, c in row.items():
            entries[(j, i)] = c.numerator * (scale // c.denominator)
    return rank_q(IntMatrix(len(columns), len(rows), entries),
                  {i for i, row in enumerate(rows) if row in lead})


def cartan_cohomology_truncated(act: LinearAction, n, x_bound):
    """Dimension over Q of invariant Cartan cohomology in degree n, read off
    the blocks C_w with w = 0..x_bound.

    Returns (dim, by_weight), by_weight[w] = dim H^n(C_w), dim =
    sum(by_weight).  With N_n the monomials of C_w in degree n, L the
    invariance operator and D = cartan_d, the invariant cocycles less the
    images of the invariant (n-1)-cochains give

        H^n(C_w) = (N_n - rank [L; D]_n) - (rank [L; D]_{n-1} - rank L_{n-1}).

    It reads those three ints per weight from the blocks of degrees n - 1
    and n kept on act: cartan_cohomology_range over the one degree n.
    """
    return cartan_cohomology_range(act, range(n, n + 1), x_bound)[n]


def cartan_cohomology_range(act: LinearAction, degrees, x_bound):
    """{n: (dim, by_weight)} of cartan_cohomology_truncated for each of the
    consecutive degrees (a range).  The formula reads, per weight w, the
    monomial count and the ranks of [L; D] and L of the blocks of degrees
    lo - 1..hi, which act keeps (LinearAction.cartan_blocks): a block is
    built, and its ranks taken, only when no earlier query on act built it.

    The second computation is exact and uses no rank: the homotopy identity
    on every monomial of every block built.  A failed identity, or
    H^n(C_w) != 0 for some w > 0 in any answer, raises CartanCheckFailed;
    check_cartan_query refuses the query, counting all its blocks, kept or
    not, before any work.
    """
    check_cartan_query(act, degrees, x_bound)
    by_weight = {n: [] for n in degrees}
    for w in range(x_bound + 1):
        _, rank_full, rank_lie = _block_ranks(act, degrees[0] - 1, w)
        for n in degrees:
            image = rank_full - rank_lie    # rank of D on the invariant cochains below
            count, rank_full, rank_lie = _block_ranks(act, n, w)
            dim = (count - rank_full) - image
            if w and dim:
                raise CartanCheckFailed(f"H^{n}(C_{w}) has dimension {dim}, but C_{w} is acyclic")
            by_weight[n].append(dim)
    return {n: (sum(dims), dims) for n, dims in by_weight.items()}


# ---------------------------------------------------------------------------
# permutation signs and the finite-group comparison map


def _parity(pi):
    """The sign of a permutation, by counting its inversions."""
    sign = 1
    for i in range(len(pi)):
        for j in range(i + 1, len(pi)):
            if pi[i] > pi[j]:
                sign = -sign
    return sign


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


def getzler_chain_map_check(bl, p, q):
    """Does the comparison map intertwine the simplicial boundary with the
    group-cochain boundary at level p?  (Exhaustive: matrix equality.)"""
    return bl.full_vertical_matrix(p, q) == getzler_dbar_matrix(bl, p, q)


# ---------------------------------------------------------------------------
# printing and parsing


def format_form(omega: EquivariantForm) -> str:
    pieces = []
    for (u, x, dx), v in sorted(omega.terms.items()):
        factors = [f"{name}{i + 1}" + (f"^{e}" if e > 1 else "")
                   for name, exps in (("u", u), ("x", x)) for i, e in enumerate(exps) if e]
        if dx:
            factors.append("^".join(f"dx{i + 1}" for i in dx))
        body = "*".join(factors)
        pieces.append(str(v) if not factors else body if v == 1 else
                      "-" + body if v == -1 else f"{v}*{body}")
    # a piece starts with "-" only in its coefficient
    return " + ".join(pieces).replace(" + -", " - ") or "0"


_TOKEN = re.compile(r"^(u|x|dx)(\d+)(?:\^(\d+))?$")


def _variable_index(mobj, num_u, num_x):
    """0-based index of a matched u, x or dx token; the printer numbers
    variables from 1, so 0 and numbers above the variable count raise
    ValueError."""
    kind, number = mobj.group(1), int(mobj.group(2))
    count = num_u if kind == "u" else num_x
    if not 1 <= number <= count:
        raise ValueError(f"{kind}{number} is not among {kind}1..{kind}{count}")
    return number - 1


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
                    dx.append(_variable_index(mobj, num_u, num_x))
                continue
            mobj = _TOKEN.match(factor)
            if not mobj:
                raise ValueError(f"cannot parse factor {factor!r}")
            kind, idx, power = mobj.group(1), _variable_index(mobj, num_u, num_x), mobj.group(3)
            e = int(power) if power else 1
            if kind == "u":
                u[idx] += e
            elif kind == "x":
                x[idx] += e
            else:
                dx.append(idx)
        if len(set(dx)) < len(dx):
            continue
        inversions = sum(a > b for a, b in combinations(dx, 2))
        key = (tuple(u), tuple(x), tuple(sorted(dx)))
        terms[key] = terms.get(key, 0) + coeff * (-1) ** inversions
    return EquivariantForm(num_u, num_x, terms)
