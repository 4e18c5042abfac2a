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
from math import lcm

from .complexes import (
    DoubleComplex,
    IntCochainComplex,
    bockstein_image,
    bockstein_image_matches_torsion,
    total_complex,
)
from .linalg import (
    FgAbGroup,
    IntMatrix,
    StructuredCoefGroup,
    coefficient_change,
    kernel_basis,
    solve_int,
)
from .simplicial import GAction, bar_complex, bar_levels, total_window


class PositiveDimensionalInput(Exception):
    pass


class InconsistentCorners(Exception):
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
        parts = []
        if self.circle_rank == 1:
            parts.append("ℂ/ℤ")
        elif self.circle_rank > 1:
            parts.append(f"(ℂ/ℤ)^{self.circle_rank}")
        if self.vector_rank == 1:
            parts.append("ℂ")
        elif self.vector_rank > 1:
            parts.append(f"ℂ^{self.vector_rank}")
        if self.free_rank == 1:
            parts.append("ℤ")
        elif self.free_rank > 1:
            parts.append(f"ℤ^{self.free_rank}")
        if not self.torsion.is_trivial():
            parts.append(str(self.torsion))
        return " ⊕ ".join(parts) if parts else "0"

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
    built by validate.  d^2 = 0 of whole holds P P = 0, Q P + S Q = 0 and
    S S = 0 at once (a failed square raises ValueError); its P P rows are
    checked once, by the integral complex if it checked itself.  Each
    complex factors its own differentials, once: every rank below is read
    through them, and an S block that is the integral complex's own
    differential one degree down (as for n >= 1 in deligne_cone) has its
    rank read there.  Every block is an IntMatrix: the cone differential
    has integer entries even where it acts on rational cochains, so every
    rank is taken in exact integer arithmetic.  Only the chain-level check
    (is_coboundary) carries Fractions, in its vectors.

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
        # its d^2 = 0 is part of the whole cone's, checked in validate
        self.rational = IntCochainComplex(self.n_min, rat_ranks, s_blocks, check=False)
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
        """Build the whole cone and check its d^2 = 0, which covers every
        square of the blocks.  The rows of its integral block are P P: when
        the integral complex checked its own d^2 = 0 (checked), only the
        rows below them, Q P + S Q and S S, are checked here."""
        degrees = range(self.n_min, self.n_max + 1)
        ranks = [self.int_rank(k) + self.rat_rank(k) for k in degrees]
        diffs = [IntMatrix.from_blocks(ranks[i + 1], ranks[i], [
            (0, 0, self.p_block(k), 1),
            (self.int_rank(k + 1), 0, self.q_block(k), 1),
            (self.int_rank(k + 1), self.int_rank(k), self.s_block(k), 1),
        ]) for i, k in enumerate(degrees[:-1])]
        self.whole = IntCochainComplex(self.n_min, ranks, diffs, check=False)
        for i, k in enumerate(degrees[:-2]):
            start = self.int_rank(k + 2) if self.integral.checked else 0
            if not diffs[i + 1].product_is_zero(diffs[i], start):
                raise ValueError(f"the mixed blocks fail d^2 = 0: d^{k + 1} composed "
                                 f"with d^{k} is nonzero")

    def s_rank(self, k):
        """The rank of S_k, read from the integral complex when S_k is its
        d^{k-1}, the same matrix object, and from the rational one otherwise."""
        s = self.s_block(k)
        if s is self.integral.differential(k - 1):
            return self.integral.differential_rank(k - 1)
        return self.rational.differential_rank(k)

    def rat_cohomology_dim(self, k):
        return self.rat_rank(k) - self.s_rank(k) - self.s_rank(k - 1)

    def connecting_rank(self, k):
        """Rank of the connecting map H^k(int) -> H^{k+1}(rat).

        The kernel of [[P, 0], [Q, S]] is ker S + {x in ker P : Q x in im S},
        so its rank exceeds rank P + rank S by exactly the rank wanted.
        """
        return (self.whole.differential_rank(k) - self.integral.differential_rank(k)
                - self.s_rank(k))

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

    # -- chain level

    def is_coboundary(self, k, x, v):
        """Does (x, v) = d(y, w) have a solution with y integral, w rational?

        With r the integral functionals killing im S (r S = 0), a rational w
        with v - Q y = S w exists exactly when r (v - Q y) = 0.  So y must
        solve [P; N r Q] y = [x; N r v] over Z, N clearing the denominators
        of r v: one integer solve.
        """
        p, q = self.p_block(k - 1), self.q_block(k - 1)
        r = kernel_basis(self.s_block(k - 1).transpose())
        rv = [sum(ri * Fraction(vi) for ri, vi in zip(row, v)) for row in r]
        scale = lcm(*(val.denominator for val in rv))
        rq = (IntMatrix.from_rows(r, cols=q.rows) @ q).scale(scale)
        stacked = IntMatrix.from_blocks(p.rows + rq.rows, p.cols,
                                        [(0, 0, p, 1), (p.rows, 0, rq, 1)])   # [P; N r Q]
        return solve_int(stacked, list(x) + [int(val * scale) for val in rv]) is not None


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
    Its degree n+2 holds the certified generator rows, or every row where
    the certificate fails (bar_complex); H^n of the cone reads degrees
    <= n+1 only, so it is the same either way."""
    if act.space.dim > 0:
        raise PositiveDimensionalInput(
            "the Deligne cone needs a 0-dimensional complex; "
            "use hexagon() with supplied form corners instead")
    return DeligneComplexData(deligne_cone(bar_complex(bar_levels(act, n + 2), n + 2), n))


def differential_cohomology_zero_dim(act: GAction, n) -> DiffCohGroup:
    """H^n of the Deligne cone D(n), split by divisibility.

    The cone is built over the unit-pivot reduced normalized bar complex
    (bar_complex) in degrees 0..n+1, from bar levels 0..n+1 (the levels it
    reads, the only ones built and checked).  It gives the H^n of the cone
    over the full bar complex: H^n reads only cone degrees n-1..n+1, which
    hold cochains of degree <= n+1, and both the inclusion of the
    normalized cochains and unit-pivot reduction are chain homotopy
    equivalences over Z that stay ones after tensoring with Q.  They
    commute with Z -> Q and with the sigma^{>=n} slot, which over a
    0-dimensional space is all of C (x) Q for n = 0 and zero for n >= 1, so
    the cones are quasi-isomorphic.  Degree n+1 holds the certified
    generator rows, or every row where the certificate fails (bar_complex):
    its d^n has the kernel of the full one over Z, and the cone's H^n reads
    d^n only through that kernel.
    """
    if act.space.dim > 0:
        raise PositiveDimensionalInput(
            "positive-dimensional cells: use hexagon() with supplied form corners")
    if n < 0:
        return DiffCohGroup()
    return deligne_cone(bar_complex(bar_levels(act, n + 1), n + 1).reduced(), n).cohomology(n)


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


@dataclass
class SuppliedCorners:
    """Finite presentation of the double complex for actions whose form
    corners cannot be computed cellularly (positive-dimensional models)."""

    double_complex: DoubleComplex
    name: str = "supplied"
    closed_form_cocycles: list = None   # optional vectors at bidegree (0, n)
    form_degree: int = None

    def validate_cocycles(self, n):
        if self.closed_form_cocycles is None:
            return
        q = self.form_degree if self.form_degree is not None else n
        dc = self.double_complex
        for vec in self.closed_form_cocycles:
            if len(vec) != dc.rank(0, q):
                raise InconsistentCorners("cocycle vector has the wrong length")
            if any(dc.vert(0, q).apply(list(vec))):
                raise InconsistentCorners(
                    "supplied form is not equivariant: d0* and d1* pullbacks differ")
            if any(dc.horiz(0, q).apply(list(vec))):
                raise InconsistentCorners("supplied form is not closed")


def hexagon(act, n, supplied: SuppliedCorners = None) -> HexagonReport:
    """Build the six corners and verify the four exactness statements and
    both commuting squares, by rank computations.

    For 0-dimensional spaces (see _hexagon_zero_dim) Ĥ^n comes from the
    bar construction of act, levels 0..n+1, and H^{n-1}(Z), H^n(Z) and the
    Bockstein data from the stabilizers of its orbits on a point (Shapiro's
    lemma), each summed over the orbits; when M is a single point the two
    come from the same complex.  The form corners at n <= 1 count the
    invariant functions, |M_0| - rank d^0.  bottom_row, diagonal_a,
    diagonal_b and top_row at n <= 1 are computed; the left square holds
    by construction, top_row at n >= 2 compares two zero corners, and the
    right square is constant at n = 0 and restates bottom_row above it
    (the report's notes say so).  Each bar construction builds and checks
    levels 0..n+1 only, and its degree n+1 holds the certified generator
    rows or, where the certificate fails, every row (bar_complex): only
    ker d^n enters the degrees read.
    Positive-dimensional actions must supply their double complex (the
    form corners then enter as labels with their cocycle data checked).  A
    negative degree raises ValueError.
    """
    if n < 0:
        raise ValueError(f"hexagon degree must be nonnegative, got {n}")
    if supplied is not None:
        return _hexagon_from_supplied(supplied, n)
    if not isinstance(act, GAction):
        raise TypeError("hexagon needs a GAction or supplied corners")
    if act.space.dim > 0:
        raise PositiveDimensionalInput(
            "positive-dimensional cells: supply the double complex and form corners")
    return _hexagon_zero_dim(act, n)


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
        the ranks and Smith forms that cx keeps, so none is taken twice."""
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


def _integral_corners(act: GAction, n, bar: IntCochainComplex) -> _IntegralCorners:
    """The integral corners of a 0-dimensional action at degree n, summed
    over its orbits by Shapiro's lemma (GAction.orbit_stabilizers).

    Each distinct stabilizer H contributes the corners of the reduced
    normalized bar complex of H on a point in degrees 0..n+1, built once.
    When M is a single point, Shapiro is the identity and H is G itself:
    the corners are then read from the reduction of `bar`, the bar complex
    of act in degrees 0..n+1 that the caller already holds.
    """
    if act.space.ncells(0) == 1:
        return _IntegralCorners.of(bar.reduced(), n)
    total = _IntegralCorners(FgAbGroup(0), FgAbGroup(0), FgAbGroup(0), 0)
    per_stabilizer = {}
    for stab in act.orbit_stabilizers():
        corners = per_stabilizer.get(stab)
        if corners is None:
            cx = bar_complex(bar_levels(stab, n + 1), n + 1).reduced()
            corners = per_stabilizer[stab] = _IntegralCorners.of(cx, n)
        total = total.direct_sum(corners)
    return total


def _hexagon_zero_dim(act: GAction, n) -> HexagonReport:
    """The hexagon of a 0-dimensional action.

    Ĥ^n is read off the Deligne cone over the normalized bar total complex
    of act in degrees 0..n+1 (bar_complex of BarLevels 0..n+1, the only
    levels built and checked), reduced once; it is the one cone built.  Its
    degree n+1 holds the certified generator rows, or every row where the
    certificate fails (at n = 0 when M carries an invariant function), and
    ker d^n is the full one.  At n <= 1 the form corners count the
    invariant functions on M, ker d^0 of the same complex unreduced:
    |M_0| - rank d^0.  H^{n-1}(Z), H^n(Z), the
    Bockstein image and the rank of iota come from the stabilizers of the
    orbits, one bar complex of each distinct stabilizer on a point
    (_integral_corners, Shapiro's lemma), so the diagonal verdicts compare
    complexes of different groups.  The one case left without an
    independent check is M a single point: there Shapiro is the identity,
    and the integral corners are read from the cone's own reduced complex.

    Computed: bottom_row, diagonal_a and diagonal_b at every n, and top_row
    at n <= 1, where it compares the function count with H^n(C) or
    H^{n-1}(C).  Not computed: the left square holds by construction, since
    at n = 1 a(f) and the inclusion of f mod Z are the same cone cochain
    (0, f) when d^0 f = 0, and at n != 1 one path runs through a zero
    corner; top_row at n >= 2 compares two zero corners; the right square
    is True at n = 0 and copies bottom_row at n >= 1.
    """
    orbits = act.orbit_count()
    name = f"{act.group.name or 'group'} on {act.space.name or 'space'}"
    bar = bar_complex(bar_levels(act, n + 1), n + 1)
    hhat = deligne_cone(bar.reduced(), n).cohomology(n)
    integral = _integral_corners(act, n, bar)
    h_prev, h_n = integral.h_prev, integral.h_n
    dim_l = h_prev.free_rank      # H^{n-1}(M_G, C) has this C-dimension
    dim_r = h_n.free_rank
    bl_corner = coefficient_change(h_prev, h_n, "CmodZ") if n >= 1 else StructuredCoefGroup()

    # the invariant functions on M: ker d^0 of the unreduced complex, whose
    # degree 0 is the functions on M's 0-cells with the signs G gives them
    functions = bar.ranks[0] - bar.differential_rank(0) if n <= 1 else 0
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


def _hexagon_from_supplied(supplied: SuppliedCorners, n) -> HexagonReport:
    """Corner table for a supplied double complex: the integral corners and
    the bottom row are computed; analytic form corners are reported as the
    supplied labels (the smooth function spaces are not desk-scale objects)."""
    supplied.validate_cocycles(n)
    tot = total_complex(supplied.double_complex).reduced()
    h_prev, h_n = tot.cohomology(n - 1), tot.cohomology(n)
    bl_corner = coefficient_change(h_prev, h_n, "CmodZ")
    beta_ok, beta_image, torsion = (bockstein_image_matches_torsion(tot, n)
                                    if n >= 1 else (True, FgAbGroup(0), FgAbGroup(0)))
    corners = {
        "h_prev_C": f"ℂ^{h_prev.free_rank}" if h_prev.free_rank else "0",
        "forms_mod_exact": "supplied (analytic)",
        "closed_forms": "supplied (analytic)",
        "h_n_C": f"ℂ^{h_n.free_rank}" if h_n.free_rank else "0",
        "h_prev_CmodZ": bl_corner,
        "h_n_Z": h_n,
        "hhat": "not computed (analytic form corners)",
    }
    exact = {"bottom_row": beta_ok}
    notes = ["form corners supplied as labels; top row and diagonals are not "
             "computed for positive-dimensional models",
             f"supplied closed-form cocycles verified: "
             f"{len(supplied.closed_form_cocycles or [])}"]
    return HexagonReport(supplied.name, n, corners, {},
                         exact, {}, {"image(-beta)": beta_image, "torsion": torsion}, notes)


def corner_table(dc: DoubleComplex, degrees, coeffs=("Z", "Q", "QmodZ")):
    """H^k of the total complex of a supplied double complex for the three
    coefficient systems, reported per degree, all read from one reduction
    of the total complex."""
    tot = total_complex(dc).reduced()
    out = {}
    for k in degrees:
        row = {}
        h_k = tot.cohomology(k)
        if "Z" in coeffs:
            row["Z"] = h_k
        if "Q" in coeffs:
            row["Q"] = tot.cohomology_q_dim(k)
        if "QmodZ" in coeffs:
            row["QmodZ"] = coefficient_change(h_k, tot.cohomology(k + 1), "CmodZ")
        out[k] = row
    return out


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

    @classmethod
    def tangent_plus_normal(cls, p):
        """TS^1 (+) N in the rotating frame: transport 1/p per edge, trivial
        fiber action; total holonomy 1 (a full turn), still integral."""
        return cls(p, [Fraction(1, p)] * p, [Fraction(0)] * p)

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


# ---------------------------------------------------------------------------
# homotopy formula on [0,1] x (points)


@dataclass
class IntervalModel:
    """[0,1] x M for a 0-dimensional G-space M: per component (tuple, point)
    a subdivided interval with K edges carrying piecewise polynomial data of
    degree <= D.  Functions are continuous piecewise polynomials encoded as
    (vertex values, bubble coefficients s^e - s per edge)."""

    act: GAction
    K: int
    D: int

    def fn_dim_per_component(self):
        return (self.K + 1) + self.K * (self.D - 1)

    # function basis per component: K+1 vertex hats, then (edge, e) bubbles
    # with 2 <= e <= D; one-form basis: (edge, e) monomials s^e ds, 0 <= e < D


def _fn_eval(model: IntervalModel, coeffs, t):
    """Evaluate a single-component function at global t in [0, 1]."""
    K, D = model.K, model.D
    t = Fraction(t)
    if t == 1:
        edge, s = K - 1, Fraction(1)
    else:
        scaled = t * K
        edge = int(scaled)
        s = scaled - edge
    val = coeffs[edge] * (1 - s) + coeffs[edge + 1] * s
    base = K + 1
    for e in range(2, D + 1):
        val += coeffs[base + edge * (D - 1) + (e - 2)] * (s ** e - s)
    return val


def _fn_d(model: IntervalModel, coeffs):
    """Derivative of a component function, in the per-edge basis s^e ds
    (s the local edge coordinate, running over [0, 1] on each edge)."""
    K, D = model.K, model.D
    out = [Fraction(0)] * (K * D)
    for edge in range(K):
        out[edge * D + 0] += coeffs[edge + 1] - coeffs[edge]
        base = K + 1
        for e in range(2, D + 1):
            c = coeffs[base + edge * (D - 1) + (e - 2)]
            out[edge * D + (e - 1)] += c * e
            out[edge * D + 0] += -c
    return out


def _one_form_integral(model: IntervalModel, form):
    """Integral over the component: each edge contributes its s-integral."""
    K, D = model.K, model.D
    total = Fraction(0)
    for edge in range(K):
        for e in range(D):
            total += form[edge * D + e] * Fraction(1, e + 1)
    return total


def homotopy_formula_check(act: GAction, n=1, K=2, D=3, cocycle=None, rng=None):
    """Verify i_1^* x - i_0^* x = a(integral of R(x)) for a Deligne cocycle
    on [0,1] x M with 0-dimensional M.

    The degree must be 1 (the only interesting degree over an interval of
    points: higher form degrees vanish on the 1-complex in the quotient
    direction and the statement degenerates).  A cocycle is (omega, eta, z)
    with omega the one-form slot, eta the function slot and z the integral
    level-1 slot, subject to omega = d eta, del eta = -z and del z = 0.
    Returns (holds, details).
    """
    if act.space.dim > 0:
        raise PositiveDimensionalInput("the interval model extends a 0-dimensional space")
    if n != 1:
        raise ValueError("the homotopy formula checker is implemented for degree 1")
    model = IntervalModel(act, K, D)
    n0 = act.space.ncells(0)
    fdim = model.fn_dim_per_component()
    if cocycle is None:
        cocycle = _random_interval_cocycle(model, rng)
    eta, z = cocycle  # eta: per point-component function coeffs; z: per (g, m)
    # cocycle conditions (omega := d eta is forced by the cone relation)
    for g in act.group.elements():
        for m in range(n0):
            gm = act.perms[g][0][m]
            # del eta (g, m) = eta(m) - eta(gm) must equal -z(g, m), constant
            diff = [eta[m][i] - eta[gm][i] for i in range(fdim)]
            const = diff[0]
            for t in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
                if _fn_eval(model, diff, t) != const:
                    return False, "eta equivariance defect is not constant"
            if const != -z[(g, m)]:
                return False, "del eta != -z"
    for g1 in act.group.elements():
        for g2 in act.group.elements():
            for m in range(n0):
                g2m = act.perms[g2][0][m]
                lhs = z[(g2, m)] - z[(act.group.mul(g1, g2), m)] + z[(g1, g2m)]
                if lhs != 0:
                    return False, "z is not a group cocycle"
    # both sides as degree-1 cocycles over the points
    mixed = build_deligne_mixed(act, 1).mixed
    c0 = act.space.ncells(0)
    v_diff = [_fn_eval(model, eta[m], 1) - _fn_eval(model, eta[m], 0) for m in range(c0)]
    x_diff = [0] * mixed.int_rank(1)  # the z-slots of i_1 and i_0 cancel
    # a(integral of R): R(x) = omega = d eta, fiber integral per component
    integral = [_one_form_integral(model, _fn_d(model, eta[m])) for m in range(c0)]
    x_rhs = [0] * mixed.int_rank(1)
    diff_x = [a - b for a, b in zip(x_diff, x_rhs)]
    diff_v = [a - b for a, b in zip(v_diff, integral)]
    if any(diff_x) or any(diff_v):
        # still allowed: equality as cohomology classes
        ok = mixed.is_coboundary(1, diff_x, diff_v)
    else:
        ok = True
    return ok, {"i1_minus_i0": v_diff, "a_of_integral": integral}


def _random_interval_cocycle(model: IntervalModel, rng):
    import random as _random
    rng = rng or _random.Random(0)
    act = model.act
    n0 = act.space.ncells(0)
    fdim = model.fn_dim_per_component()
    # integer offsets along orbits give the z-part; a base polynomial per orbit
    base = {}
    offset = {}
    seen = set()
    for m in range(n0):
        if m in seen:
            continue
        poly = [Fraction(rng.randint(-3, 3)) for _ in range(fdim)]
        orbit = []
        for g in act.group.elements():
            gm = act.perms[g][0][m]
            if gm not in seen:
                seen.add(gm)
                orbit.append(gm)
        for idx, gm in enumerate(sorted(orbit)):
            base[gm] = poly
            offset[gm] = rng.randint(-2, 2) if idx else 0
    # shift every vertex value by the integer offset: eta(m) - eta(gm) is
    # then the constant offset difference, an integer, as required
    eta = {}
    for m in range(n0):
        eta[m] = list(base[m])
        for i in range(model.K + 1):
            eta[m][i] = eta[m][i] + offset[m]
    z = {}
    for g in act.group.elements():
        for m in range(n0):
            gm = act.perms[g][0][m]
            z[(g, m)] = -(offset[m] - offset[gm])
    return eta, z
