"""Deligne-cone differential cohomology for finite groups on 0-dimensional
complexes, the differential-cohomology hexagon, and lens-type holonomy.

The degree-n Deligne complex is the shifted cone of

    Z (+) (forms of degree >= n)  -->  forms,   (z, w) |-> w - z,

taken over the bar object.  For a 0-dimensional space the only forms are
functions, so every group in sight is finite dimensional and the cone is a
two-column mixed complex: an integer part mapping into a rational part.
Cohomology is computed from the long exact sequence linking the integral
and rational bar complexes; the divisible part splits off because C/Z is
injective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import IntCochainComplex, bockstein_image
from .linalg import (
    FgAbGroup,
    IntMatrix,
    StructuredCoefGroup,
    coefficient_change,
    render_summands,
)
from .simplicial import GAction, bar_complex, bar_levels, total_window


class PositiveDimensionalInput(Exception):
    pass


# ---------------------------------------------------------------------------
# result type


@dataclass(frozen=True)
class DiffCohGroup:
    """(C/Z)^circle (+) C^vector (+) Z^free (+) finite torsion."""

    circle_rank: int = 0
    vector_rank: int = 0
    free_rank: int = 0
    torsion: FgAbGroup = FgAbGroup()

    def __post_init__(self):
        if self.torsion.free_rank:
            raise ValueError("torsion part must be finite")

    def is_trivial(self):
        return not (self.circle_rank or self.vector_rank or self.free_rank) \
            and self.torsion.is_trivial()

    def __str__(self):
        return render_summands([("ℂ/ℤ", self.circle_rank), ("ℂ", self.vector_rank),
                                ("ℤ", self.free_rank)], self.torsion.torsion)

    def to_json_obj(self):
        return {"circle_rank": self.circle_rank, "vector_rank": self.vector_rank,
                "free_rank": self.free_rank, "torsion": self.torsion.to_json_obj()}


# ---------------------------------------------------------------------------
# mixed complexes: integer blocks mapping into rational blocks


class MixedComplex:
    """Degreewise Z^{a_k} (+) Q^{b_k} with triangular differential blocks

        P = integral.differential(k): Z^{a_k} -> Z^{a_{k+1}}
        q_blocks[k]:                  Z^{a_k} -> Q^{b_{k+1}}
        S = rational.differential(k): Q^{b_k} -> Q^{b_{k+1}}

    Three IntCochainComplexes hold the blocks: integral (P), rational (the
    S blocks) and whole, the cone itself with differential [[P, 0], [Q, S]],
    built by validate.  Each checks its own d^2 = 0 when it is built; that
    of whole holds P P = 0, Q P + S Q = 0 and S S = 0 at once, and a failure
    raises IllFormedDoubleComplex, a ValueError.  Every rank below is kept
    on its differential (IntMatrix.rank), shared by whatever holds it.
    Every block is an IntMatrix: the cone differential has integer entries
    even where it acts on rational cochains, so every rank is taken in
    exact integer arithmetic.

    Nothing maps out of the rational part into the integral part, so the
    rational columns form a subcomplex with an integral quotient.
    """

    def __init__(self, integral, rat_ranks, q_blocks, s_blocks):
        if not isinstance(integral, IntCochainComplex):
            raise TypeError("the integral part of a MixedComplex must be an IntCochainComplex")
        self.integral = integral
        self.n_min = integral.n_min
        self.q_blocks = list(q_blocks)
        if not all(isinstance(m, IntMatrix) for m in self.q_blocks + list(s_blocks)):
            raise TypeError("MixedComplex blocks must be IntMatrix")
        self.rational = IntCochainComplex(self.n_min, rat_ranks, s_blocks)
        self.validate()

    @property
    def n_max(self):
        return self.integral.n_max

    def int_rank(self, k):
        return self.integral.rank(k)

    def rat_rank(self, k):
        return self.rational.rank(k)

    def p_block(self, k):
        return self.integral.differential(k)

    def q_block(self, k):
        i = k - self.n_min
        if 0 <= i < len(self.q_blocks):
            return self.q_blocks[i]
        return IntMatrix.zero(self.rat_rank(k + 1), self.int_rank(k))

    def s_block(self, k):
        return self.rational.differential(k)

    def validate(self):
        """Build the whole cone, which checks its d^2 = 0 on every row and so
        covers every square of the blocks."""
        degrees = range(self.n_min, self.n_max + 1)
        ranks = [self.int_rank(k) + self.rat_rank(k) for k in degrees]
        self.whole = IntCochainComplex(self.n_min, ranks, [
            IntMatrix.from_blocks(ranks[i + 1], ranks[i], [
                (0, 0, self.p_block(k), 1),
                (self.int_rank(k + 1), 0, self.q_block(k), 1),
                (self.int_rank(k + 1), self.int_rank(k), self.s_block(k), 1),
            ]) for i, k in enumerate(degrees[:-1])])

    def rat_cohomology_dim(self, k):
        return self.rat_rank(k) - self.s_block(k).rank() - self.s_block(k - 1).rank()

    def connecting_rank(self, k):
        """Rank of the connecting map H^k(int) -> H^{k+1}(rat).

        The kernel of [[P, 0], [Q, S]] is ker S + {x in ker P : Q x in im S},
        so its rank exceeds rank P + rank S by exactly the rank wanted.
        """
        return (self.whole.differential(k).rank() - self.integral.differential(k).rank()
                - self.rational.differential(k).rank())

    def cohomology(self, k) -> DiffCohGroup:
        """H^k via the long exact sequence of the rational subcomplex.

        0 -> coker(delta_{k-1}) -> H^k -> ker(delta_k) -> 0 with delta the
        connecting map; the left side is divisible, hence injective, so the
        extension splits.
        """
        h_int = self.integral.cohomology(k)
        beta_k = self.rat_cohomology_dim(k)
        rho_prev = self.connecting_rank(k - 1)
        rho_here = self.connecting_rank(k)
        return DiffCohGroup(
            circle_rank=rho_prev,
            vector_rank=beta_k - rho_prev,
            free_rank=h_int.free_rank - rho_here,
            torsion=h_int.torsion_part(),
        )


# ---------------------------------------------------------------------------
# the Deligne cone over a 0-dimensional space


@dataclass
class DeligneComplexData:
    """Assembled mixed complex for D(n) over the bar object of a
    0-dimensional G-space."""

    mixed: MixedComplex


def deligne_cone(cx: IntCochainComplex, n) -> MixedComplex:
    """D(n) over a complex C of free Z-modules in degrees 0..T, read as the
    cochains of the bar object of a 0-dimensional space.

    Blocks per total degree k: the integral cochains C^k, and the rational
    function slot C^{k-1} (the cone's form column, one degree lower); for
    n = 0 the truncation sigma^{>=0} keeps a second rational slot C^k.  The
    cone map sends an integer cochain z to -z in the function slot, with the
    simplicial sign (-1)^k.
    """
    if cx.n_min != 0:
        raise ValueError("the Deligne cone needs a complex starting at degree 0")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    cells = cx.ranks
    degrees = len(cells)
    if n == 0:
        rat_ranks = [cells[k] + (cells[k - 1] if k >= 1 else 0) for k in range(degrees)]
    else:
        rat_ranks = [cells[k - 1] if k >= 1 else 0 for k in range(degrees)]
    q_blocks = []
    s_blocks = []
    for k in range(degrees - 1):
        # the sigma^{>= n} slot of degree k+1 sits at degree k: rows offset 0
        # for n >= 1; for n = 0 the degree-(k+1) slot comes first
        offset = cells[k + 1] if n == 0 else 0
        sign = -1 if k % 2 else 1  # (-1)^p with p = k, times the cone's -1
        ident = IntMatrix.identity(cells[k])
        q_blocks.append(IntMatrix.from_blocks(rat_ranks[k + 1], cells[k],
                                              [(offset, 0, ident, -sign)]))
        vert_prev = cx.differential(k - 1)
        if n == 0:
            # [[d_here, 0], [cone map, d_prev]]: the cone map sends the
            # degree-k sigma-slot to the degree-k function slot
            s_blocks.append(IntMatrix.from_blocks(rat_ranks[k + 1], rat_ranks[k], [
                (0, 0, cx.diffs[k], 1),
                (cells[k + 1], cells[k], vert_prev, 1),
                (cells[k + 1], 0, ident, sign),
            ]))
        else:
            s_blocks.append(vert_prev)
    return MixedComplex(cx, rat_ranks, q_blocks, s_blocks)


def build_deligne_mixed(act: GAction, n) -> DeligneComplexData:
    """D(n) over the unreduced normalized bar complex of G^. x M for
    0-dimensional M, degrees 0..n+2 (bar_complex of the levels up to n+2).
    Its degree n+2 holds only the generator rows (bar_complex); H^n of the
    cone reads degrees <= n+1 only."""
    if act.space.dim > 0:
        raise PositiveDimensionalInput("the Deligne cone needs a 0-dimensional complex")
    return DeligneComplexData(deligne_cone(bar_complex(bar_levels(act, n + 2), n + 2), n))


def differential_cohomology_zero_dim(act: GAction, n) -> DiffCohGroup:
    """H^n of the Deligne cone D(n), split by divisibility.

    The cone is built over degrees 0..n+1 (IntCochainComplex.upto) of the
    action's unit-pivot reduced normalized bar complex (GAction.reduced_bar):
    the sum over its orbits of the complexes that the group keeps per orbit
    type, each built from bar levels 0..n+1 only when none kept reaches
    degree n+1.  It gives the H^n of the cone over the full bar complex:
    H^n reads only cone degrees n-1..n+1, which hold cochains of degree
    <= n+1.  The bar complex of the action is the sum of those of its
    orbits, each isomorphic to its type's by a renumbering of the points
    and the signs of their basis vectors, and both the inclusion of the
    normalized cochains and unit-pivot reduction are chain homotopy
    equivalences over Z that stay ones after tensoring with Q.  All of
    them commute with Z -> Q and
    with the sigma^{>=n} slot, which over a 0-dimensional space is all of
    C (x) Q for n = 0 and zero for n >= 1, so the cones are
    quasi-isomorphic.  Degree n+1 holds the full degree of a kept complex
    with a higher top, or only the generator rows (bar_complex): either
    way d^n has the kernel of the full one over Z, and the cone's H^n reads
    d^n only through that kernel.
    """
    if act.space.dim > 0:
        raise PositiveDimensionalInput(
            "positive-dimensional cells: differential cohomology is computed for "
            "0-dimensional complexes only")
    if n < 0:
        return DiffCohGroup()
    return deligne_cone(act.reduced_bar(n + 1).upto(n + 1), n).cohomology(n)


# ---------------------------------------------------------------------------
# the hexagon


@dataclass
class HexagonReport:
    group_name: str
    degree: int
    corners: dict          # name -> group or (label, dimension) description
    maps: dict             # name -> description with chain data when computed
    exactness: dict        # top_row / bottom_row / diagonal_a / diagonal_b -> bool
    squares: dict          # left / right commutativity verdicts
    evidence: dict         # rank bookkeeping backing every verdict
    notes: list = field(default_factory=list)

    @property
    def all_exact(self):
        return all(self.exactness.values())

    def to_json_obj(self):
        def enc(v):
            if hasattr(v, "to_json_obj"):
                return v.to_json_obj()
            return str(v)
        return {
            "group": self.group_name,
            "degree": self.degree,
            "corners": {k: enc(v) for k, v in self.corners.items()},
            "maps": self.maps,
            "exactness": self.exactness,
            "squares": self.squares,
            "evidence": {k: str(v) for k, v in self.evidence.items()},
            "notes": self.notes,
        }

    def render_text(self):
        c = {k: str(v) for k, v in self.corners.items()}
        lines = [
            f"hexagon at degree n = {self.degree} ({self.group_name})",
            "",
            f"        {c['forms_mod_exact']:^24} --d--> {c['closed_forms']:^24}",
            "       /        a                                R        \\",
            f"  {c['h_prev_C']:^20}        {c['hhat']:^16}        {c['h_n_C']:^20}",
            "       \\                                          I      /",
            f"        {c['h_prev_CmodZ']:^24} --(-beta)--> {c['h_n_Z']:^20}",
            "",
            "exactness: " + ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                                      for k, v in self.exactness.items()),
            "squares:   " + ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                                      for k, v in self.squares.items()),
        ]
        for note in self.notes:
            lines.append("note: " + note)
        return "\n".join(lines)


@dataclass(frozen=True)
class _IntegralCorners:
    """The integral data of the hexagon at degree n: H^{n-1}(Z), H^n(Z), the
    image of -beta: H^{n-1}(C/Z) -> H^n(Z) and the rank of iota: H^n(Z) ->
    H^n(C).  At n = 0 the image is 0 and iota is injective."""

    h_prev: FgAbGroup
    h_n: FgAbGroup
    beta_image: FgAbGroup
    iota_rank: int

    @classmethod
    def of(cls, cx: IntCochainComplex, n):
        """The corners of a complex; iota's rank is dim H^n(Q).  All read
        the ranks and Smith forms that cx's differentials keep, shared with
        the cone built over cx, so none is taken twice."""
        h_n = cx.cohomology(n)
        if n == 0:
            return cls(FgAbGroup(0), h_n, FgAbGroup(0), h_n.free_rank)
        return cls(cx.cohomology(n - 1), h_n, bockstein_image(cx, n), cx.cohomology_q_dim(n))

    def direct_sum(self, other):
        """The corners of the direct sum: Bockstein and iota commute with it."""
        return _IntegralCorners(self.h_prev.direct_sum(other.h_prev),
                                self.h_n.direct_sum(other.h_n),
                                self.beta_image.direct_sum(other.beta_image),
                                self.iota_rank + other.iota_rank)


def _integral_corners(act: GAction, n) -> _IntegralCorners:
    """The integral corners of a 0-dimensional action at degree n, summed
    over its orbits by Shapiro's lemma (GAction.orbit_types).

    An orbit of type (H, chi) contributes the corners of H on a point, Z
    twisted by chi: the reduced normalized bar complex that the subgroup H
    keeps for its own point orbit type (FiniteGroup.orbit_bar), reaching at
    least degree n+1, so a later degree or another action reuses it.  Each
    distinct type is read once.  A fixed point's type is G's own point
    type, so its corners read the very complex that is its block of the
    cone (GAction.reduced_bar): there Shapiro is the identity.
    """
    total = _IntegralCorners(FgAbGroup(0), FgAbGroup(0), FgAbGroup(0), 0)
    per_type = {}
    for stab, signs in act.orbit_types():
        corners = per_type.get((stab, signs))
        if corners is None:
            sub = act.group.subgroup(stab)
            corners = per_type[(stab, signs)] = _IntegralCorners.of(
                sub.orbit_bar(tuple(sub.elements()), signs, n + 1), n)
        total = total.direct_sum(corners)
    return total


def hexagon(act: GAction, n) -> HexagonReport:
    """Build the six corners and verify the four exactness statements and
    both commuting squares, by rank computations, for an action on a
    0-dimensional complex.

    Ĥ^n is differential_cohomology_zero_dim(act, n): the Deligne cone over
    degrees 0..n+1 of act's reduced normalized bar total complex
    (GAction.reduced_bar), the one cone built.  That complex is the sum
    over the orbits of the complexes that G keeps per orbit type (H, chi),
    each G on G/H; a type's complex is built, from BarLevels 0..n+1, and
    reduced only when none kept on G reaches degree n+1.  Its degree n+1 is
    full, or holds only the generator rows (bar_complex); either way ker
    d^n is the full one.  At n <= 1 the form corners count the invariant
    functions on M, ker d^0 = H^0 of the same complex, which the reduction
    keeps: its rank in degree 0 minus rank d^0.  H^{n-1}(Z), H^n(Z), the
    Bockstein image and the rank of iota come from the stabilizers of the
    orbits, one bar complex of each distinct H on a point twisted by chi,
    kept on the subgroup (_integral_corners, Shapiro's lemma), each summed
    over the orbits, so the diagonal verdicts compare complexes of
    different groups.  The one case left without an independent check is a
    fixed point (M a single point among them): there Shapiro is the
    identity, and the orbit's corners are read from its own block of the
    cone, the complex of G on a point.

    Computed: bottom_row, diagonal_a and diagonal_b at every n, and top_row
    at n <= 1, where it compares the function count with H^n(C) or
    H^{n-1}(C).  Not computed: the left square holds by construction, since
    at n = 1 a(f) and the inclusion of f mod Z are the same cone cochain
    (0, f) when d^0 f = 0, and at n != 1 one path runs through a zero
    corner; top_row at n >= 2 compares two zero corners; the right square
    is True at n = 0 and copies bottom_row at n >= 1 (the report's notes
    say so).  A positive-dimensional action raises
    PositiveDimensionalInput, whose form corners are not finite
    dimensional; a negative degree raises ValueError.
    """
    if n < 0:
        raise ValueError(f"hexagon degree must be nonnegative, got {n}")
    if act.space.dim > 0:
        raise PositiveDimensionalInput(
            "positive-dimensional cells: the hexagon is computed for 0-dimensional "
            "complexes only")
    hhat = differential_cohomology_zero_dim(act, n)
    cx = act.reduced_bar(n + 1)
    orbits = len(act.orbit_types())
    name = f"{act.group.name or 'group'} on {act.space.name or 'space'}"
    integral = _integral_corners(act, n)
    h_prev, h_n = integral.h_prev, integral.h_n
    dim_l = h_prev.free_rank      # H^{n-1}(M_G, C) has this C-dimension
    dim_r = h_n.free_rank
    bl_corner = coefficient_change(h_prev, h_n) if n >= 1 else StructuredCoefGroup()

    # the invariant functions on M: ker d^0 on the functions on M's 0-cells
    # with the signs G gives them; reduction keeps ker d^0 up to isomorphism
    functions = cx.rank(0) - cx.differential(0).rank() if n <= 1 else 0
    tl_dim = functions if n == 1 else 0   # invariant functions mod d(nothing)
    tr_dim = functions if n == 0 else 0   # closed invariant 0-forms
    corners = {
        "h_prev_C": f"ℂ^{dim_l}" if dim_l else "0",
        "forms_mod_exact": (f"Ω⁰(M)^G ≅ ℂ^{tl_dim}" if tl_dim else "0"),
        "closed_forms": (f"Ω⁰_cl(M)^G ≅ ℂ^{tr_dim}" if tr_dim else "0"),
        "h_n_C": f"ℂ^{dim_r}" if dim_r else "0",
        "h_prev_CmodZ": bl_corner,
        "h_n_Z": h_n,
        "hhat": hhat,
    }

    evidence = {
        "H^{n-1}(Z)": h_prev, "H^n(Z)": h_n,
        "dim H^{n-1}(C)": dim_l, "dim H^n(C)": dim_r,
        "orbits": orbits,
    }
    exact = {}
    squares = {}
    notes = []

    # Bockstein data, summed over the orbits
    if n >= 1:
        torsion = h_n.torsion_part()
        evidence["image(-beta)"] = integral.beta_image
        evidence["torsion H^n"] = torsion
        # ker(iota: H^n(Z) -> H^n(C)) = torsion
        evidence["rank iota on H^n"] = integral.iota_rank
        exact["bottom_row"] = (integral.beta_image == torsion
                               and integral.iota_rank == h_n.free_rank)
    else:
        # n = 0: the row is 0 -> 0 -> H^0(Z) -> H^0(C) with injective iota
        exact["bottom_row"] = h_n.torsion_part().is_trivial()
        evidence["image(-beta)"] = FgAbGroup(0)

    # top row
    if n == 0:
        # 0 -> 0 -> closed invariant functions -> H^0(C): injective with
        # image everything invariant, exact by dimension count
        exact["top_row"] = (tr_dim == dim_r)
    elif n == 1:
        # H^0(C) -> invariant functions -> 0: surjective, ranks agree
        exact["top_row"] = (dim_l == tl_dim)
    else:
        exact["top_row"] = (tl_dim == 0 and tr_dim == 0)

    # diagonal A: ker R = image of H^{n-1}(C/Z) in Hhat (R = 0 for n >= 1)
    if n == 0:
        exact["diagonal_a"] = (hhat.circle_rank == 0 and bl_corner.is_trivial()
                               and hhat.free_rank == tr_dim)
    else:
        incl_iso = (hhat.circle_rank == bl_corner.divisible_circle_rank
                    and hhat.torsion == bl_corner.finite_part
                    and hhat.vector_rank == 0 and hhat.free_rank == 0)
        exact["diagonal_a"] = incl_iso and exact["bottom_row"]

    # diagonal B: ker I = image of a, and I onto H^n(Z)
    if n == 0:
        exact["diagonal_b"] = (hhat.free_rank == h_n.free_rank
                               and hhat.torsion == h_n.torsion_part())
    elif n == 1:
        surj_a = (hhat.circle_rank == tl_dim and hhat.torsion == h_n.torsion_part())
        exact["diagonal_b"] = surj_a and h_n.free_rank == 0
        if h_n.free_rank:
            notes.append("H^1(Z) has free rank; I cannot be onto with zero curvature corner")
    else:
        exact["diagonal_b"] = (hhat.circle_rank == 0 and tl_dim == 0
                               and hhat.torsion == h_n.torsion_part()
                               and h_n.free_rank == 0)

    # left square, by construction: at n = 1, a(f) and the inclusion of f mod
    # Z are the same cone cochain (0, f), since d^0 f = 0 for an invariant f
    # over a 0-dimensional M; at n != 1 one path runs through a zero corner
    squares["left"] = True
    # right square: R followed by the de Rham class vs iota after I; for
    # 0-dimensional spaces R = 0 above degree zero and I lands in torsion
    squares["right"] = exact["bottom_row"] if n >= 1 else True

    maps = {
        "a": "forms corner -> Hhat (degree-one slot of the cone)",
        "I": "projection to the integral part",
        "R": "projection to the truncated form part (zero above degree 0 here)",
        "-beta": "lift a Q/Z cocycle to Q, apply d, negate",
        "inclusion": "r -> ((-1)^{n+1} d r, (-1)^{n+1} r), normalized so I after it is -beta",
    }
    notes.append("extension split: the divisible kernel of I is injective, so the "
                 "sequence 0 -> (C/Z)-part -> Hhat -> H^n(Z)-part -> 0 splits")
    notes.append("verdicts not computed: squares.left (every n) and top_row (n >= 2) "
                 "hold by construction; squares.right is constant at n = 0 and copies "
                 "bottom_row at n >= 1")
    return HexagonReport(name, n, corners, maps, exact, squares, evidence, notes)


# ---------------------------------------------------------------------------
# flat equivariant line bundles on the circle and lens holonomy


@dataclass
class FlatEquivariantLineBundle:
    """Cellular circle with p vertices/edges; transports are logarithmic
    (rational) parallel transports per edge, fiber_weights[v] is the log of
    the generator's fiber action over vertex v.  The total transport around
    the circle must be an integer (the underlying bundle is trivial)."""

    p: int
    transports: list       # rational log transport per edge i: v_i -> v_{i+1}
    fiber_weights: list    # rational log fiber twist of the generator over v_i

    def __post_init__(self):
        if len(self.transports) != self.p or len(self.fiber_weights) != self.p:
            raise ValueError("need one transport per edge and one weight per vertex")
        self.transports = [Fraction(t) for t in self.transports]
        self.fiber_weights = [Fraction(w) for w in self.fiber_weights]
        total = sum(self.transports)
        if total.denominator != 1:
            raise ValueError(f"total holonomy {total} is not integral: bundle not trivial")

    @classmethod
    def weight_bundle(cls, p, q):
        """Product bundle, trivial connection, generator acts by q/p on fibers."""
        if not (p >= 2 and 0 <= q < p):
            raise ValueError("need p >= 2 and 0 <= q < p")
        return cls(p, [Fraction(0)] * p, [Fraction(q, p)] * p)

    def phi(self, k, v):
        """Log fiber twist of the k-th power of the generator over vertex v."""
        total = Fraction(0)
        for _ in range(k % self.p):
            total += self.fiber_weights[v]
            v = (v + 1) % self.p
        return total

    def cocycle_conditions_hold(self):
        p = self.p
        # group cocycle: phi(k+l, v) = phi(k, g^l v) + phi(l, v) mod 1
        for k in range(p):
            for l in range(p):
                for v in range(p):
                    lhs = self.phi((k + l) % p, v)
                    rhs = self.phi(k, (v + l) % p) + self.phi(l, v)
                    if (lhs - rhs) % 1 != 0:
                        return False
        # equivariance of the transport: phi(k, head) - phi(k, tail)
        # equals t_e - t_{g^k e} mod 1
        for k in range(p):
            for e in range(p):
                tail, head = e, (e + 1) % p
                lhs = self.phi(k, head) - self.phi(k, tail)
                rhs = self.transports[e] - self.transports[(e + k) % p]
                if (lhs - rhs) % 1 != 0:
                    return False
        return True

    def pairing_with_fundamental_cycle(self):
        """Evaluate the holonomy cocycle on edge 0 plus the bar 1-cell
        (generator, v_0) closing it up; returns a value in Q mod 1."""
        return (self.transports[0] + self.phi(1, 0)) % 1

    def pairing_kills_coboundaries(self):
        """The evaluation functional e_0 + e_p (edge 0 plus the bar 1-cell
        (generator, v_0), cell p in degree 1) vanishes on d^0 of the bar
        complex of the rotation circle, so it pairs with a cycle.  d^0 is the
        whole matrix from total_window: bar_complex would build only some of
        the rows of its top degree."""
        d0 = total_window(bar_levels(GAction.cyclic_rotation_circle(self.p), 1), 0, 1)[1][0]
        edge0, closing = d0.row(0), d0.row(self.p)
        return all(edge0.get(j, 0) + closing.get(j, 0) == 0 for j in range(d0.cols))


def flat_equivariant_chern_class(p, q) -> Fraction:
    """First equivariant differential Chern class of the weight-q flat
    bundle over the rotation circle: the equivariant holonomy along the
    fundamental domain, as an element of Q mod 1.

    The bundle is flat so the class lives in H^1 with C/Z coefficients;
    evaluation on the fundamental-domain cycle [0, 1/p] closed up by the
    group direction produces exactly q/p.
    """
    bundle = FlatEquivariantLineBundle.weight_bundle(p, q)
    if not bundle.cocycle_conditions_hold():
        raise ValueError("holonomy data is not a cocycle")
    if not bundle.pairing_kills_coboundaries():
        raise ValueError("evaluation cycle is not closed")
    return bundle.pairing_with_fundamental_cycle()
