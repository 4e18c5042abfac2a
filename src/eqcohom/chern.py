"""Equivariant Chern-Weil calculus on trivialized bundles over R^m.

Connections are r x r matrices A of one-forms (the covariant derivative is
d + A), curvature is R = dA + A ^ A, and for an invariant connection the
moment of a basis element X_a is iota(X_a^#) A + drho_E(X_a).  Substituting
R + sum_a u_a mu_a into an invariant polynomial yields a d_C-closed
equivariant form; transgression along the convex path of two connections
inverts d_C on the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations

from .cartan import (
    EquivariantForm,
    LinearAction,
    _compositions,
    _sum_forms,
    _wedge_into,
    fiber_integrate_interval,
    lie_derivative,
)
from .linalg import q_nullspace


class ConnectionNotInvariant(Exception):
    pass


# ---------------------------------------------------------------------------
# matrices of forms


def form_zero_matrix(rank, num_u, num_x):
    z = EquivariantForm.zero(num_u, num_x)
    return [[z for _ in range(rank)] for _ in range(rank)]


def form_mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def form_mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def form_mat_scale(a, c):
    return [[x.scale(c) for x in row] for row in a]


def form_mat_wedge(a, b):
    num_u, num_x = a[0][0].num_u, a[0][0].num_x
    out = []
    for row_a in a:
        row = []
        for j in range(len(b[0])):
            terms = {}
            for a_ik, row_b in zip(row_a, b):
                _wedge_into(terms, a_ik, row_b[j])
            row.append(EquivariantForm._of(num_u, num_x, terms))
        out.append(row)
    return out


def form_mat_d(a):
    return [[x.d() for x in row] for row in a]


def form_mat_contract(a, field):
    return [[x.contract_linear_field(field) for x in row] for row in a]


def form_mat_u_times(a, idx):
    return [[x.u_times(idx) for x in row] for row in a]


def form_trace(a):
    return _sum_forms(a[0][0].num_u, a[0][0].num_x, (a[i][i] for i in range(len(a))))


def form_mat_scalar_conjugate(a, g):
    """g a g^{-1} for a rational invertible scalar matrix g."""
    from .linalg import q_inverse
    g_inv = q_inverse(g)
    r = len(a)
    num_u, num_x = a[0][0].num_u, a[0][0].num_x
    out = form_zero_matrix(r, num_u, num_x)
    for i in range(r):
        for j in range(r):
            out[i][j] = _sum_forms(num_u, num_x,
                                   (a[k][l].scale(Fraction(g[i][k]) * Fraction(g_inv[l][j]))
                                    for k in range(r) for l in range(r)))
    return out


def _principal_minor_det(m, subset):
    """Determinant of the principal submatrix of a nonempty subset; entries
    must be even forms.  Each permutation's last factor is wedged straight
    into the one term dict of the sum."""
    idx = list(subset)
    k = len(idx)
    if k == 1:
        return m[idx[0]][idx[0]]
    terms = {}
    for sigma in permutations(range(k)):
        factors = [m[idx[i]][idx[sigma[i]]] for i in range(k)]
        prod = factors[0].scale(_perm_sign(sigma))
        for factor in factors[1:-1]:
            prod = prod.wedge(factor)
        _wedge_into(terms, prod, factors[-1])
    return EquivariantForm._of(m[0][0].num_u, m[0][0].num_x, terms)


def _perm_sign(sigma):
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


def elementary_symmetric(m, k):
    """e_k of a matrix of commuting (even) forms: sum of principal k-minors."""
    r = len(m)
    num_u, num_x = m[0][0].num_u, m[0][0].num_x
    if k == 0:
        return EquivariantForm.constant(num_u, num_x, 1)
    return _sum_forms(num_u, num_x,
                      (_principal_minor_det(m, subset) for subset in combinations(range(r), k)))


def trace_power(m, k):
    num_u, num_x = m[0][0].num_u, m[0][0].num_x
    if k == 0:
        return EquivariantForm.constant(num_u, num_x, len(m))
    power = m
    for _ in range(k - 1):
        power = form_mat_wedge(power, m)
    return form_trace(power)


# ---------------------------------------------------------------------------
# connections, curvature, moments


@dataclass
class ConnectionMatrix:
    """r x r matrix of one-forms on R^m (u-degree zero entries only)."""

    rank: int
    entries: list  # list of lists of EquivariantForm

    def __post_init__(self):
        if len(self.entries) != self.rank or any(len(r) != self.rank for r in self.entries):
            raise ValueError("connection matrix shape mismatch")
        for row in self.entries:
            for form in row:
                for (u, _x, dx) in form.terms:
                    if sum(u) != 0 or len(dx) != 1:
                        raise ValueError("connection entries must be plain one-forms")

    @property
    def num_u(self):
        return self.entries[0][0].num_u

    @property
    def num_x(self):
        return self.entries[0][0].num_x

    @classmethod
    def zero(cls, rank, num_u, num_x):
        return cls(rank, form_zero_matrix(rank, num_u, num_x))


@dataclass
class CurvatureMatrix:
    """The curvature R = dA + A ^ A of a connection A.

    Only the connection is given: rank and entries are derived from it once,
    on construction, so a curvature with other entries cannot be built.  The
    Bianchi identity dR = R ^ A - A ^ R is checked on every construction.
    """

    connection: ConnectionMatrix
    rank: int = field(init=False)
    entries: list = field(init=False)

    def __post_init__(self):
        a = self.connection.entries
        self.rank = self.connection.rank
        self.entries = form_mat_add(form_mat_d(a), form_mat_wedge(a, a))
        lhs = form_mat_d(self.entries)
        rhs = form_mat_sub(form_mat_wedge(self.entries, a), form_mat_wedge(a, self.entries))
        if lhs != rhs:
            raise ValueError("Bianchi identity fails")


def curvature(a: ConnectionMatrix) -> CurvatureMatrix:
    return CurvatureMatrix(a)


@dataclass
class MomentMap:
    """Per Lie-algebra basis element an r x r matrix of functions."""

    rank: int
    components: list  # per basis element: matrix of 0-form EquivariantForms


def bundle_action_matrices(drho, rank, num_u, num_x):
    """Constant endomorphisms drho_E(X_a) as matrices of 0-forms."""
    out = []
    for mat in drho:
        rows = []
        for i in range(rank):
            rows.append([EquivariantForm.constant(num_u, num_x, mat[i][j])
                         for j in range(rank)])
        out.append(rows)
    return out


def connection_is_invariant(act: LinearAction, a: ConnectionMatrix, drho=None):
    """Infinitesimal invariance: L_{X_a^#} A = [drho(X_a), A] for every basis
    element (drho = 0 when the bundle action is trivial)."""
    return _is_invariant(act, a, None if drho is None else
                         bundle_action_matrices(drho, a.rank, a.num_u, a.num_x))


def _is_invariant(act: LinearAction, a: ConnectionMatrix, drho_mats):
    """connection_is_invariant with drho given by bundle_action_matrices,
    or None for drho = 0."""
    num_u, num_x = a.num_u, a.num_x
    for idx in range(act.lie_algebra.dim):
        lied = [[lie_derivative(act, idx, entry) for entry in row] for row in a.entries]
        if drho_mats is None:
            want = form_zero_matrix(a.rank, num_u, num_x)
        else:
            want = form_mat_sub(form_mat_wedge(drho_mats[idx], a.entries),
                                form_mat_wedge(a.entries, drho_mats[idx]))
        if lied != want:
            return False
    return True


def _moment_components(a: ConnectionMatrix, drho_mats, act: LinearAction):
    """iota(X_a^#) A + drho_E(X_a) per basis element, drho given by
    bundle_action_matrices."""
    return [form_mat_add(form_mat_contract(a.entries, act.rep[idx]), drho_mats[idx])
            for idx in range(act.lie_algebra.dim)]


def moment_map(a: ConnectionMatrix, drho, act: LinearAction) -> MomentMap:
    """mu(X_a) = iota(X_a^#) A + drho_E(X_a), for an invariant connection.

    drho: per basis element a rational r x r matrix (the derivative of the
    bundle action in the trivialization).  Raises ConnectionNotInvariant if
    the combined invariance criterion fails.  drho is turned into matrices
    of 0-forms once, for the criterion and the components alike.
    """
    drho_mats = bundle_action_matrices(drho, a.rank, a.num_u, a.num_x)
    if not _is_invariant(act, a, drho_mats):
        raise ConnectionNotInvariant("connection fails the combined invariance criterion")
    return MomentMap(a.rank, _moment_components(a, drho_mats, act))


def moment_defining_equation_check(act, a: ConnectionMatrix, drho, mu: MomentMap, phi):
    """Check nabla_{X^#} phi + L^E_X phi == mu(X) phi on a section phi
    (a list of polynomial 0-forms), for every basis element."""
    num_u, num_x = a.num_u, a.num_x
    drho_mats = bundle_action_matrices(drho, a.rank, num_u, num_x)
    for idx in range(act.lie_algebra.dim):
        field = act.rep[idx]
        for i in range(a.rank):
            nabla_i = phi[i].d()
            for j in range(a.rank):
                nabla_i = nabla_i + a.entries[i][j].wedge(phi[j])
            lhs = nabla_i.contract_linear_field(field)
            # L^E phi = drho phi - directional derivative along X^#
            lie_part = EquivariantForm.zero(num_u, num_x)
            for j in range(a.rank):
                lie_part = lie_part + drho_mats[idx][i][j].wedge(phi[j])
            lie_part = lie_part - phi[i].d().contract_linear_field(field)
            lhs = lhs + lie_part
            rhs = EquivariantForm.zero(num_u, num_x)
            for j in range(a.rank):
                rhs = rhs + mu.components[idx][i][j].wedge(phi[j])
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# invariant polynomials and characteristic forms


@dataclass(frozen=True)
class InvariantPolynomial:
    """chern_k, total_chern, trace_power_k or pontryagin_k.

    Chern forms carry a formal normalization (no 1/(2 pi i) factors); the
    integrality bookkeeping lives in the holonomy computations of the
    differential-cohomology layer.
    """

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("chern", "total_chern", "trace_power", "pontryagin"):
            raise ValueError(f"unknown invariant polynomial kind {self.kind!r}")
        if self.k < 0:
            raise ValueError(f"invariant polynomial degree must be nonnegative, got {self.k}")

    def evaluate(self, m):
        if self.kind == "chern":
            return elementary_symmetric(m, self.k)
        if self.kind == "total_chern":
            return _sum_forms(m[0][0].num_u, m[0][0].num_x,
                              (elementary_symmetric(m, k) for k in range(len(m) + 1)))
        if self.kind == "trace_power":
            return trace_power(m, self.k)
        if self.kind == "pontryagin":
            sign = -1 if self.k % 2 else 1
            return elementary_symmetric(m, 2 * self.k).scale(sign)
        raise AssertionError


def conjugation_invariance_check(poly: InvariantPolynomial, rank, rng, trials=10):
    """P(g B g^{-1}) == P(B) on random rational matrices."""
    from .linalg import q_inverse
    for _ in range(trials):
        b = [[EquivariantForm.constant(0, 1, Fraction(rng.randint(-4, 4)))
              for _ in range(rank)] for _ in range(rank)]
        while True:
            g = [[Fraction(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(rank)]
            if q_inverse(g) is not None:
                break
        if poly.evaluate(form_mat_scalar_conjugate(b, g)) != poly.evaluate(b):
            return False
    return True


def equivariant_curvature(r: CurvatureMatrix, mu: MomentMap):
    """R + sum_a u_a mu(X_a): the matrix substituted into the polynomial."""
    out = r.entries
    for a, comp in enumerate(mu.components):
        out = form_mat_add(out, form_mat_u_times(comp, a))
    return out


def equivariant_characteristic_form(poly: InvariantPolynomial, r: CurvatureMatrix,
                                    mu: MomentMap) -> EquivariantForm:
    """P(R + mu): a d_C-closed equivariant form (closedness is checked by
    the callers' tests rather than re-verified on every evaluation)."""
    return poly.evaluate(equivariant_curvature(r, mu))


# ---------------------------------------------------------------------------
# transgression


def _connection_on_interval(a0: ConnectionMatrix, a1: ConnectionMatrix, s):
    """The path (1 - s) A0 + s A1 as a connection on R^m x [0,1], where s is
    a polynomial in t, the appended last coordinate."""
    if a0.rank != a1.rank:
        raise ValueError("connections live on different ranks")
    num_x = a0.num_x + 1
    one_minus_s = EquivariantForm.constant(a0.num_u, num_x, 1) - s
    entries = [[one_minus_s.wedge(e0.embed(num_x)) + s.wedge(e1.embed(num_x))
                for e0, e1 in zip(row0, row1)]
               for row0, row1 in zip(a0.entries, a1.entries)]
    return ConnectionMatrix(a0.rank, entries)


def _path_transgression(act, a0, a1, poly, drho, path):
    """Fiber integral of P over the connections (1 - s) A0 + s A1, where
    path(t) gives s as a polynomial in the interval coordinate t."""
    rank = a0.rank
    if drho is None:
        drho = [[[0] * rank for _ in range(rank)] for _ in range(act.lie_algebra.dim)]
    t = EquivariantForm.coordinate(a0.num_u, a0.num_x + 1, a0.num_x)
    a_s = _connection_on_interval(a0, a1, path(t))
    mu_s = moment_map(a_s, drho, act.extend_trivially())
    omega_s = equivariant_characteristic_form(poly, curvature(a_s), mu_s)
    return fiber_integrate_interval(omega_s)


def transgression(act: LinearAction, a0: ConnectionMatrix, a1: ConnectionMatrix,
                  poly: InvariantPolynomial, drho=None) -> EquivariantForm:
    """Fiber integral of P over the convex path of connections; satisfies
    d_C (transgression) = P(at A1) - P(at A0) exactly."""
    return _path_transgression(act, a0, a1, poly, drho, lambda t: t)


def reparametrized_transgression(act: LinearAction, a0, a1, poly, drho=None):
    """Same transgression along t -> t^2 (3 - 2t); used to test that the
    class of the transgression form does not depend on the path."""
    def path(t):
        three = EquivariantForm.constant(t.num_u, t.num_x, 3)
        return t.wedge(t).wedge(three - t.scale(2))
    return _path_transgression(act, a0, a1, poly, drho, path)


# ---------------------------------------------------------------------------
# Whitney sum


@dataclass
class WhitneyVerdict:
    holds: bool
    sum_coefficients: list    # det(I + t(M (+) M')) coefficients
    product_coefficients: list


def whitney_check(act: LinearAction, a: ConnectionMatrix, a2: ConnectionMatrix,
                  drho=None, drho2=None) -> WhitneyVerdict:
    """Total-Chern multiplicativity for the block sum, coefficientwise in
    the formal variable t: det(I + t(M (+) M')) = det(I+tM) det(I+tM')."""
    r1, r2 = a.rank, a2.rank
    k = act.lie_algebra.dim
    if drho is None:
        drho = [[[0] * r1 for _ in range(r1)] for _ in range(k)]
    if drho2 is None:
        drho2 = [[[0] * r2 for _ in range(r2)] for _ in range(k)]
    # the determinant identity holds whether or not the connections are
    # invariant, so the moment formula is applied without the precondition
    num_u, num_x = a.num_u, a.num_x
    m1 = equivariant_curvature(curvature(a), MomentMap(r1, _moment_components(
        a, bundle_action_matrices(drho, r1, num_u, num_x), act)))
    m2 = equivariant_curvature(curvature(a2), MomentMap(r2, _moment_components(
        a2, bundle_action_matrices(drho2, r2, a2.num_u, a2.num_x), act)))
    zero = EquivariantForm.zero(num_u, num_x)
    block = []
    for i in range(r1 + r2):
        row = []
        for j in range(r1 + r2):
            if i < r1 and j < r1:
                row.append(m1[i][j])
            elif i >= r1 and j >= r1:
                row.append(m2[i - r1][j - r1])
            else:
                row.append(zero)
        block.append(row)
    lhs = [elementary_symmetric(block, n) for n in range(r1 + r2 + 1)]
    c1 = [elementary_symmetric(m1, n) for n in range(r1 + 1)]
    c2 = [elementary_symmetric(m2, n) for n in range(r2 + 1)]
    rhs = []
    for n in range(r1 + r2 + 1):
        terms = {}
        for i in range(n + 1):
            if i <= r1 and (n - i) <= r2:
                _wedge_into(terms, c1[i], c2[n - i])
        rhs.append(EquivariantForm._of(num_u, num_x, terms))
    return WhitneyVerdict(lhs == rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# invariant connection sampling (for the property suites)


def invariant_connection_space(act: LinearAction, rank, drho=None, x_bound=2):
    """Basis of connections solving the invariance criterion with entries of
    polynomial degree <= x_bound."""
    num_u, num_x = act.lie_algebra.dim, act.m
    monos = []
    for i in range(num_x):
        for total in range(x_bound + 1):
            for exps in _compositions(total, num_x):
                monos.append((exps, i))
    slots = [(r_i, c_j, mono) for r_i in range(rank) for c_j in range(rank)
             for mono in monos]
    if drho is None:
        drho = [[[0] * rank for _ in range(rank)] for _ in range(num_u)]
    drho_mats = bundle_action_matrices(drho, rank, num_u, num_x)

    def basis_connection(slot):
        (r_i, c_j, (exps, dx_i)) = slot
        entries = form_zero_matrix(rank, num_u, num_x)
        entries[r_i][c_j] = EquivariantForm(
            num_u, num_x, {((0,) * num_u, exps, (dx_i,)): 1})
        return entries

    rows = []
    images = []
    for slot in slots:
        entries = basis_connection(slot)
        defect = []
        for idx in range(num_u):
            lied = [[lie_derivative(act, idx, e) for e in row] for row in entries]
            want = form_mat_sub(form_mat_wedge(drho_mats[idx], entries),
                                form_mat_wedge(entries, drho_mats[idx]))
            defect.append(form_mat_sub(lied, want))
        images.append(defect)
    keys = set()
    for defect in images:
        for idx in range(num_u):
            for i in range(rank):
                for j in range(rank):
                    keys.update(defect[idx][i][j].terms)
    keys = sorted(keys)
    for idx in range(num_u):
        for i in range(rank):
            for j in range(rank):
                for key in keys:
                    rows.append([img[idx][i][j].terms.get(key, Fraction(0))
                                 for img in images])
    coords = q_nullspace(rows) if rows else [
        [Fraction(1) if i == j else Fraction(0) for j in range(len(slots))]
        for i in range(len(slots))]
    out = []
    for vec in coords:
        entries = form_zero_matrix(rank, num_u, num_x)
        for c, slot in zip(vec, slots):
            if c:
                add = basis_connection(slot)
                entries = form_mat_add(entries, form_mat_scale(add, c))
        out.append(ConnectionMatrix(rank, entries))
    return out


def random_invariant_connection(act: LinearAction, rank, rng, drho=None, x_bound=2):
    basis = invariant_connection_space(act, rank, drho=drho, x_bound=x_bound)
    entries = form_zero_matrix(rank, act.lie_algebra.dim, act.m)
    for conn in basis:
        c = rng.randint(-2, 2)
        if c:
            entries = form_mat_add(entries, form_mat_scale(conn.entries, c))
    return ConnectionMatrix(rank, entries)
