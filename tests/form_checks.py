"""Checks on equivariant forms that only the tests run.

group_transform inverts a finite element with the dense Fraction engine,
which the package never does (a form is fixed by g exactly when it is
fixed by g^-1, so LinearAction pulls back along g itself); the Cartan
tests' dense reference uses it as an independent invariance operator.
The Chern-Weil checks restate two identities on explicit data: the
moment's defining equation on a section, and the conjugation invariance
of a polynomial on random scalar matrices.
"""

from fractions import Fraction

from eqcohom.cartan import EquivariantForm, _sum_forms
from eqcohom.chern import (
    ConnectionMatrix,
    InvariantPolynomial,
    MomentMap,
    bundle_action_matrices,
    form_mat_add,
    form_mat_d,
    form_mat_derive,
    form_mat_sub,
    form_mat_wedge,
    form_zero_matrix,
)
from eqcohom.linalg import q_inverse


def group_transform(omega: EquivariantForm, g, ad):
    """The action of a group element: pull the form back along x -> g^{-1} x
    and twist the u variables by Ad_{g^{-1}}.  g and ad are inverted on
    every call."""
    g_inv = q_inverse(g)
    ad_inv = q_inverse(ad)
    if g_inv is None or ad_inv is None:
        raise ValueError("finite element matrices must be invertible")
    return omega.substitute_linear(g_inv, u_matrix=ad_inv)


def form_mat_scalar_conjugate(a, g):
    """g a g^{-1} for a rational invertible scalar matrix g."""
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


def moment_defining_equation_check(act, a: ConnectionMatrix, drho, mu: MomentMap, phi):
    """Check nabla_{X^#} phi + L^E_X phi == mu(X) phi on a section phi
    (a list of polynomial 0-forms), for every basis element."""
    col = [[f] for f in phi]
    d_phi = form_mat_d(col)
    nabla = form_mat_add(d_phi, form_mat_wedge(a.entries, col))
    drho_mats = bundle_action_matrices(drho, a.rank, a.num_u, a.num_x)
    for idx in range(act.lie_algebra.dim):
        iota = act.tables["iota"][idx]
        # L^E phi = drho phi - directional derivative along X^#
        lie_e = form_mat_sub(form_mat_wedge(drho_mats[idx], col), form_mat_derive(d_phi, iota))
        lhs = form_mat_add(form_mat_derive(nabla, iota), lie_e)
        if lhs != form_mat_wedge(mu.components[idx], col):
            return False
    return True


def conjugation_invariance_check(poly: InvariantPolynomial, rank, rng, trials=10):
    """P(g B g^{-1}) == P(B) on random rational matrices."""
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
