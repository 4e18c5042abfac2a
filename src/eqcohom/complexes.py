"""Cochain complexes, double complexes and Bockstein machinery.

Double complexes store commuting squares (d dV == dV d); the sign (-1)^q
on the vertical map is inserted only at totalization (totalize).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (
    FgAbGroup,
    IntMatrix,
    kernel_basis,
    reduce_complex,
    smith_normal_form,
)


class IllFormedDoubleComplex(ValueError):
    """A complex or double complex whose d^2 = 0 or shapes fail."""


class NotACocycle(Exception):
    pass


# ---------------------------------------------------------------------------
# cochain complexes


class IntCochainComplex:
    """Finite complex of free Z-modules, degrees n_min .. n_min+len(ranks)-1.

    diffs[k] is d^{n_min+k}: degree n_min+k -> n_min+k+1; outside the stored
    range every module is zero.  Every complex checks its own d^2 = 0, on
    every row, when it is built.  Cohomology is read off its reduction
    (reduced), computed once and kept, so no degree read reduces anything
    again.  The complex keeps only that reduction: the rank over Q and the
    Smith form of d^n are kept on the matrix itself (IntMatrix.rank and
    smith), so complexes that hold the same matrix share them.
    """

    def __init__(self, n_min, ranks, diffs):
        self.n_min = n_min
        self.ranks = list(ranks)
        self.diffs = list(diffs)
        self._reduced = None     # the reduction, once computed; True when reduced
        if len(self.diffs) != max(len(self.ranks) - 1, 0):
            raise ValueError("need one differential between consecutive degrees")
        for k, d in enumerate(self.diffs):
            if (d.rows, d.cols) != (self.ranks[k + 1], self.ranks[k]):
                raise ValueError(f"differential {k} has shape {d.rows}x{d.cols}, "
                                 f"expected {self.ranks[k + 1]}x{self.ranks[k]}")
        for k in range(len(self.diffs) - 1):
            if not self.diffs[k + 1].product_is_zero(self.diffs[k]):
                raise IllFormedDoubleComplex(
                    f"d^{self.n_min + k + 1} composed with d^{self.n_min + k} is nonzero")

    @property
    def n_max(self):
        return self.n_min + len(self.ranks) - 1

    def rank(self, n):
        k = n - self.n_min
        return self.ranks[k] if 0 <= k < len(self.ranks) else 0

    def differential(self, n):
        k = n - self.n_min
        if 0 <= k < len(self.diffs):
            return self.diffs[k]
        return IntMatrix.zero(self.rank(n + 1), self.rank(n))

    def upto(self, top):
        """The complex of degrees n_min..top: the same differential objects
        below top, with what they keep, and d^top zero, checked when built
        like any complex, and reduced when this one is.  The complex itself
        when top reaches n_max."""
        if top >= self.n_max:
            return self
        k = max(top - self.n_min + 1, 0)
        view = IntCochainComplex(self.n_min, self.ranks[:k], self.diffs[:max(k - 1, 0)])
        if self._reduced is True:
            view._reduced = True
        return view

    def cohomology(self, n) -> FgAbGroup:
        """H^n off the reduced complex: the invariant factors of the Smith
        form of d^{n-1} (ker d^n is pure, so it holds all torsion of
        Z^k / im d^{n-1}) and the free rank rank(n) - rk d^n - rk d^{n-1}."""
        red = self.reduced()
        return FgAbGroup.from_diagonal(red.differential(n - 1).smith().s.diagonal(),
                                       red.rank(n) - red.differential(n).rank())

    def cohomology_q_dim(self, n) -> int:
        red = self.reduced()
        return red.rank(n) - red.differential(n).rank() - red.differential(n - 1).rank()

    def reduced(self):
        """Unit-pivot reduced complex with the same cohomology everywhere,
        computed and d^2-checked once; a reduced complex returns itself (its
        _reduced is True: holding itself, only the cycle collector frees it).
        The reduction works on a copy of the rows, so this complex stays in
        use; reduced_taking_rows is for one that nothing reads again."""
        if self._reduced is None:
            self._reduced = _of_reduction(self.n_min,
                                          reduce_complex(self.ranks, self.diffs))
        return self if self._reduced is True else self._reduced

    def __eq__(self, other):
        if not isinstance(other, IntCochainComplex):
            return NotImplemented
        return (self.n_min, self.ranks, self.diffs) == (other.n_min, other.ranks, other.diffs)

    def __repr__(self):
        return f"IntCochainComplex(n_min={self.n_min}, ranks={self.ranks})"


def _of_reduction(n_min, red) -> IntCochainComplex:
    """The complex of a reduce_complex result, starting at degree n_min,
    d^2-checked when built and marked as its own reduction."""
    cx = IntCochainComplex(n_min, red.ranks, red.diffs)
    cx._reduced = True
    return cx


def reduced_taking_rows(cx: IntCochainComplex) -> IntCochainComplex:
    """cx.reduced() for a complex built only to be reduced, which nothing
    reads again once its d^2 = 0 check has passed: the reduction takes over
    the rows of its differentials instead of copying them
    (IntMatrix.handed_over), and cx is left without them."""
    return _of_reduction(cx.n_min, reduce_complex(cx.ranks,
                                                  [d.handed_over() for d in cx.diffs]))


def block_sum(parts, top) -> IntCochainComplex:
    """The direct sum of reduced complexes that start at degree 0 and reach
    degree top, in degrees 0..T for T the least of their n_max (top when
    there are none): d^k, k < T, holds the parts' d^k on its diagonal, part
    after part, so H^k of the sum is the sum of the parts' H^k for every
    k < T.  Reduced, as its parts are, and d^2-checked when built like any
    complex; one part is returned itself."""
    if len(parts) == 1:
        return parts[0]
    top = min((cx.n_max for cx in parts), default=top)
    ranks = [sum(cx.rank(k) for cx in parts) for k in range(top + 1)]
    diffs = []
    for k in range(top):
        blocks, row, col = [], 0, 0
        for cx in parts:
            blocks.append((row, col, cx.differential(k), 1))
            row, col = row + cx.rank(k + 1), col + cx.rank(k)
        diffs.append(IntMatrix.from_blocks(row, col, blocks))
    out = IntCochainComplex(0, ranks, diffs)
    out._reduced = True
    return out


# ---------------------------------------------------------------------------
# double complexes


class DoubleComplex:
    """First-quadrant rectangle of free Z-modules with commuting squares.

    horizontal[(p, q)]: (p, q) -> (p, q+1)   (cellular d)
    vertical[(p, q)]:   (p, q) -> (p+1, q)   (simplicial face alternating sum)
    """

    def __init__(self, p_max, q_max, ranks, horizontal, vertical):
        self.p_max = p_max
        self.q_max = q_max
        self.ranks = dict(ranks)
        self.horizontal = dict(horizontal)
        self.vertical = dict(vertical)
        self.validate()

    def rank(self, p, q):
        if 0 <= p <= self.p_max and 0 <= q <= self.q_max:
            return self.ranks.get((p, q), 0)
        return 0

    def horiz(self, p, q):
        m = self.horizontal.get((p, q))
        return m if m is not None else IntMatrix.zero(self.rank(p, q + 1), self.rank(p, q))

    def vert(self, p, q):
        m = self.vertical.get((p, q))
        return m if m is not None else IntMatrix.zero(self.rank(p + 1, q), self.rank(p, q))

    def validate(self):
        for p in range(self.p_max + 1):
            for q in range(self.q_max + 1):
                d, v = self.horiz(p, q), self.vert(p, q)
                if (d.rows, d.cols) != (self.rank(p, q + 1), self.rank(p, q)):
                    raise IllFormedDoubleComplex(f"horizontal shape at ({p},{q})")
                if (v.rows, v.cols) != (self.rank(p + 1, q), self.rank(p, q)):
                    raise IllFormedDoubleComplex(f"vertical shape at ({p},{q})")
                if not self.horiz(p, q + 1).product_is_zero(d):
                    raise IllFormedDoubleComplex(f"d.d != 0 at ({p},{q})")
                if not self.vert(p + 1, q).product_is_zero(v):
                    raise IllFormedDoubleComplex(f"dV.dV != 0 at ({p},{q})")
                if self.vert(p, q + 1) @ d != self.horiz(p + 1, q) @ v:
                    raise IllFormedDoubleComplex(f"square at ({p},{q}) does not commute")


def anti_diagonal(n, p_max, rank):
    """The bidegrees of total degree n = p + q, p = 0..p_max ascending, as
    (p, q, offset, rank) with offsets into the total module; rank(p, q) is
    0 outside the object, and bidegrees of rank 0 are left out."""
    out = []
    offset = 0
    for p in range(p_max + 1):
        r = rank(p, n - p)
        if r:
            out.append((p, n - p, offset, r))
            offset += r
    return out


def totalize(n_lo, n_hi, p_max, rank, horiz, vert):
    """Ranks (a dict) of the total modules of degrees n_lo..n_hi of a
    double complex, and its total differentials diffs[n], n_lo <= n < n_hi:
    d + (-1)^q dV, with horiz(p, q): (p, q) -> (p, q + 1) and
    vert(p, q): (p, q) -> (p + 1, q).  A block is built only where both of
    its ends have nonzero rank.
    """
    layouts = {n: anti_diagonal(n, p_max, rank) for n in range(n_lo, n_hi + 1)}
    ranks = {n: sum(r for _, _, _, r in lay) for n, lay in layouts.items()}
    diffs = {}
    for n in range(n_lo, n_hi):
        t_off = {(p, q): off for p, q, off, _ in layouts[n + 1]}
        blocks = []
        for p, q, off, _ in layouts[n]:
            target = t_off.get((p, q + 1))
            if target is not None:
                blocks.append((target, off, horiz(p, q), 1))
            target = t_off.get((p + 1, q))
            if target is not None:
                blocks.append((target, off, vert(p, q), (-1) ** q))
        diffs[n] = IntMatrix.from_blocks(ranks[n + 1], ranks[n], blocks)
    return ranks, diffs


def total_complex(dc: DoubleComplex) -> IntCochainComplex:
    """Total complex with differential d + (-1)^q dV, blockwise."""
    if not isinstance(dc, DoubleComplex):
        raise IllFormedDoubleComplex("total_complex expects a DoubleComplex")
    n_max = dc.p_max + dc.q_max
    ranks, diffs = totalize(0, n_max, dc.p_max, dc.rank, dc.horiz, dc.vert)
    return IntCochainComplex(0, [ranks[n] for n in range(n_max + 1)],
                             [diffs[n] for n in range(n_max)])


# ---------------------------------------------------------------------------
# Bockstein -beta: H^{n-1}(., Q/Z) -> H^n(., Z)


def bockstein_apply(cx: IntCochainComplex, n, rep):
    """-beta on a Q/Z-cocycle representative (list of Fractions in degree n-1).

    Lift to Q, apply d, negate; the result is an integral cocycle in degree
    n.  Raises NotACocycle if d(rep) is not integral.
    """
    d = cx.differential(n - 1)
    if len(rep) != d.cols:
        raise ValueError("representative has wrong length")
    image = d.apply([Fraction(v) for v in rep])
    out = []
    for v in image:
        v = Fraction(v)
        if v.denominator != 1:
            raise NotACocycle("representative is not closed modulo Z")
        out.append(-int(v))
    return out


def qz_torsion_cocycles(cx: IntCochainComplex, n):
    """Generators of the finite part of H^{n-1}(., Q/Z) as rational cochains.

    From the Smith form left @ d^{n-1} @ right = s that d^{n-1} keeps: the
    cochains right e_i / s_i (for diagonal entries s_i >= 2) are closed mod
    Z and generate the torsion summand; -beta maps them to the classes of
    -left^{-1} e_i.
    """
    snf = cx.differential(n - 1).smith()
    out = []
    for i, si in enumerate(snf.s.diagonal()):
        if si >= 2:
            col = snf.right.column(i)
            out.append(([Fraction(c, si) % 1 for c in col], si))
    return out


def bockstein_image(cx: IntCochainComplex, n) -> FgAbGroup:
    """Subgroup of H^n(., Z) hit by -beta, as an abstract group.

    The divisible part of H^{n-1}(., Q/Z) maps to zero (its image in a
    finitely generated group is divisible); the finite generators are the
    Smith-form cochains of qz_torsion_cocycles.
    """
    gens = []
    for rep, _order in qz_torsion_cocycles(cx, n):
        gens.append(bockstein_apply(cx, n, rep))
    if not gens:
        return FgAbGroup(0)
    d_in = cx.differential(n - 1)
    k = len(gens[0])
    w = IntMatrix.from_rows([[g[i] for g in gens] for i in range(k)], cols=len(gens))
    # kernel of Z^{#gens} -> H^n: combinations landing in im(d_in)
    stacked = IntMatrix.from_blocks(k, w.cols + d_in.cols,
                                    [(0, 0, w, 1), (0, w.cols, d_in, -1)])
    rel_rows = []
    for col in kernel_basis(stacked):
        rel_rows.append(col[:w.cols])
    if not rel_rows:
        return FgAbGroup(w.cols)
    rel = IntMatrix.from_rows([[row[j] for row in rel_rows] for j in range(w.cols)],
                              cols=len(rel_rows))
    diag = smith_normal_form(rel).s.diagonal()
    return FgAbGroup.from_diagonal(diag, w.cols)


def bockstein_image_matches_torsion(cx: IntCochainComplex, n):
    image = bockstein_image(cx, n)
    torsion = cx.cohomology(n).torsion_part()
    return image == torsion, image, torsion


# ---------------------------------------------------------------------------
# the broken-resolution counterexample (lifted identity need not be simplicial)


IDENT = IntMatrix.from_rows([[1, 0], [0, 1]])
CONJ = IntMatrix.from_rows([[1, 0], [0, -1]])  # complex conjugation on Q(i)


@dataclass
class BadResolutionReport:
    lift_choices: list       # per level, per face index: "id" or "conj"
    boundaries: list         # alternating-sum composites per level (2x2 over Q(i))
    composite: IntMatrix     # level 0 -> level 2
    witness_in: tuple        # element of C as (re, im)
    witness_out: tuple
    witness_real_projection: int
    honest_composite_is_zero: bool = field(default=True)

    @property
    def is_counterexample(self):
        return not self.composite.is_zero()


def bad_resolution_counterexample(lift_choices=None) -> BadResolutionReport:
    """Resolve Z -> C -> C/Z over the trivial group on a point and lift the
    identity levelwise; choosing complex conjugation for one lift breaks
    dV dV = 0, witnessed on the imaginary unit.

    C is modeled as pairs of rationals (re, im); every lift of id_Z along
    C -> C is id or conjugation.  lift_choices[p][i] picks the lift used for
    face i at level p; the default inserts a single conjugation at level 0.
    """
    if lift_choices is None:
        lift_choices = [["id", "conj"], ["id", "id", "id"]]
    mats = {"id": IDENT, "conj": CONJ}
    boundaries = []
    for p, lifts in enumerate(lift_choices):
        if len(lifts) != p + 2:
            raise ValueError(f"level {p} needs {p + 2} face lifts")
        total = IntMatrix.zero(2, 2)
        for i, name in enumerate(lifts):
            m = mats[name]
            total = total + (m if i % 2 == 0 else m.scale(-1))
        boundaries.append(total)
    composite = boundaries[1] @ boundaries[0]
    witness_in = (0, 1)  # the imaginary unit i
    wz = composite.apply(list(witness_in))
    honest = []
    for p, lifts in enumerate(lift_choices):
        total = IntMatrix.zero(2, 2)
        for i in range(len(lifts)):
            total = total + (IDENT if i % 2 == 0 else IDENT.scale(-1))
        honest.append(total)
    return BadResolutionReport(
        lift_choices=lift_choices,
        boundaries=boundaries,
        composite=composite,
        witness_in=witness_in,
        witness_out=tuple(wz),
        witness_real_projection=wz[0],
        honest_composite_is_zero=honest[1].product_is_zero(honest[0]),
    )
