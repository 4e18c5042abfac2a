"""Cochain complexes, double complexes, cones and Bockstein machinery.

Conventions fixed once and used everywhere:

* double complexes store commuting squares (d dV == dV d); the sign
  (-1)^q on the vertical map is inserted only at totalization;
* the cone of w: A -> B lives on A^{n+1} (+) B^n with differential
  (x, y) |-> (-d_A x, d_B y - w x);
* simplicial homotopy cochain complexes totalize with dV + s + (-1)^p f,
  where s lowers the level by one and raises the internal grade by two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (
    FgAbGroup,
    IntMatrix,
    kernel_basis,
    rank_q,
    reduce_complex,
    smith_normal_form,
    solve_int,
)


class IllFormedDoubleComplex(Exception):
    pass


class NotChainMap(Exception):
    pass


class AxiomViolation(Exception):
    pass


class NotACocycle(Exception):
    pass


# ---------------------------------------------------------------------------
# cochain complexes


class IntCochainComplex:
    """Finite complex of free Z-modules, degrees n_min .. n_min+len(ranks)-1.

    diffs[k] is d^{n_min+k}: degree n_min+k -> n_min+k+1; outside the stored
    range every module is zero.  d^2 = 0 is checked once, when it is built
    (unless check=False), and checked records whether it was.  Cohomology
    is read off its reduction (reduced), computed once and kept, so no
    degree read reduces anything again.  A complex is the one owner of the
    factorizations of its differentials: differential_rank(n) and smith(n)
    compute the rank over Q and the Smith form of d^n at the first read and
    keep them, so no second read factors anything.
    """

    def __init__(self, n_min, ranks, diffs, check=True):
        self.n_min = n_min
        self.ranks = list(ranks)
        self.diffs = list(diffs)
        self._reduced = None     # the reduction, once computed
        self._is_reduced = False
        self._rank_q = {}        # degree -> rank over Q of d^n, once computed
        self._smith = {}         # degree -> Smith form of d^n, once computed
        self.checked = check     # whether d^2 = 0 was checked on construction
        if len(self.diffs) != max(len(self.ranks) - 1, 0):
            raise ValueError("need one differential between consecutive degrees")
        for k, d in enumerate(self.diffs):
            if (d.rows, d.cols) != (self.ranks[k + 1], self.ranks[k]):
                raise ValueError(f"differential {k} has shape {d.rows}x{d.cols}, "
                                 f"expected {self.ranks[k + 1]}x{self.ranks[k]}")
        if check:
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

    def differential_rank(self, n) -> int:
        """The rank over Q of d^n, taken at the first read and kept."""
        if n not in self._rank_q:
            self._rank_q[n] = rank_q(self.differential(n))
        return self._rank_q[n]

    def smith(self, n):
        """The Smith form of d^n, taken at the first read and kept."""
        if n not in self._smith:
            self._smith[n] = smith_normal_form(self.differential(n))
        return self._smith[n]

    def cohomology(self, n) -> FgAbGroup:
        """H^n off the reduced complex: the invariant factors of the Smith
        form of d^{n-1} (ker d^n is pure, so it holds all torsion of
        Z^k / im d^{n-1}) and the free rank rank(n) - rk d^n - rk d^{n-1}."""
        red = self.reduced()
        return FgAbGroup.from_diagonal(red.smith(n - 1).s.diagonal(),
                                       red.rank(n) - red.differential_rank(n))

    def cohomology_q_dim(self, n) -> int:
        red = self.reduced()
        return red.rank(n) - red.differential_rank(n) - red.differential_rank(n - 1)

    def reduced(self):
        """Unit-pivot reduced complex with the same cohomology everywhere,
        computed and d^2-checked once; a reduced complex returns itself."""
        if self._is_reduced:
            return self
        if self._reduced is None:
            red = reduce_complex(self.ranks, self.diffs)
            self._reduced = IntCochainComplex(self.n_min, red.ranks, red.diffs)
            self._reduced._is_reduced = True
        return self._reduced

    def __eq__(self, other):
        if not isinstance(other, IntCochainComplex):
            return NotImplemented
        return (self.n_min, self.ranks, self.diffs) == (other.n_min, other.ranks, other.diffs)

    def __repr__(self):
        return f"IntCochainComplex(n_min={self.n_min}, ranks={self.ranks})"


@dataclass
class ComplexMap:
    """Degreewise map of cochain complexes, commuting with differentials."""

    source: IntCochainComplex
    target: IntCochainComplex
    components: dict  # degree -> IntMatrix

    def __post_init__(self):
        lo = min(self.source.n_min, self.target.n_min)
        hi = max(self.source.n_max, self.target.n_max)
        for n in range(lo, hi + 1):
            f_n = self.component(n)
            f_next = self.component(n + 1)
            lhs = self.target.differential(n) @ f_n
            rhs = f_next @ self.source.differential(n)
            if lhs != rhs:
                raise NotChainMap(f"does not commute with d in degree {n}")

    def component(self, n):
        m = self.components.get(n)
        if m is None:
            return IntMatrix.zero(self.target.rank(n), self.source.rank(n))
        if (m.rows, m.cols) != (self.target.rank(n), self.source.rank(n)):
            raise ValueError(f"component {n} has wrong shape")
        return m


def cone(w) -> IntCochainComplex:
    """Mapping cone of a chain map (or of a homotopy-complex morphism).

    For w: A -> B the cone has degree-n module A^{n+1} (+) B^n and
    differential (x, y) |-> (-d_A x, d_B y - w x); its square vanishes
    because w is a chain map, which is re-verified here.
    """
    if isinstance(w, SHCMorphism):
        return cone_homotopy(w).total()
    a, b = w.source, w.target
    n_min = min(a.n_min - 1, b.n_min)
    n_max = max(a.n_max - 1, b.n_max)
    ranks = [a.rank(n + 1) + b.rank(n) for n in range(n_min, n_max + 1)]
    diffs = []
    for n in range(n_min, n_max):
        ra2, ra1 = a.rank(n + 2), a.rank(n + 1)
        diffs.append(IntMatrix.from_blocks(ra2 + b.rank(n + 1), ra1 + b.rank(n), [
            (0, 0, a.differential(n + 1), -1),
            (ra2, ra1, b.differential(n), 1),
            (ra2, 0, w.component(n + 1), -1),
        ]))
    return IntCochainComplex(n_min, ranks, diffs)


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

    def block_layout(self, n):
        """Anti-diagonal p+q = n as a list of (p, q, offset, rank), p ascending."""
        return anti_diagonal(n, self.p_max, self.rank)


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


def totalize(n_lo, n_hi, p_max, rank, arrows):
    """Ranks (a dict) of the total modules of degrees n_lo..n_hi of a
    bigraded object, and its total differentials diffs[n], n_lo <= n < n_hi.

    Each arrow (dp, dq, block, sign) maps bidegree (p, q) to
    (p + dp, q + dq) by sign(p, q) * block(p, q).  A block is built only
    where both of its ends have nonzero rank.
    """
    layouts = {n: anti_diagonal(n, p_max, rank) for n in range(n_lo, n_hi + 1)}
    ranks = {n: sum(r for _, _, _, r in lay) for n, lay in layouts.items()}
    diffs = {}
    for n in range(n_lo, n_hi):
        t_off = {(p, q): off for p, q, off, _ in layouts[n + 1]}
        blocks = []
        for p, q, off, _ in layouts[n]:
            for dp, dq, block, sign in arrows:
                target = t_off.get((p + dp, q + dq))
                if target is not None:
                    blocks.append((target, off, block(p, q), sign(p, q)))
        diffs[n] = IntMatrix.from_blocks(ranks[n + 1], ranks[n], blocks)
    return ranks, diffs


def total_complex(dc: DoubleComplex) -> IntCochainComplex:
    """Total complex with differential d + (-1)^q dV, blockwise."""
    if not isinstance(dc, DoubleComplex):
        raise IllFormedDoubleComplex("total_complex expects a DoubleComplex")
    n_max = dc.p_max + dc.q_max
    ranks, diffs = totalize(0, n_max, dc.p_max, dc.rank,
                            [(0, 1, dc.horiz, lambda p, q: 1),
                             (1, 0, dc.vert, lambda p, q: (-1) ** q)])
    return IntCochainComplex(0, [ranks[n] for n in range(n_max + 1)],
                             [diffs[n] for n in range(n_max)])


@dataclass
class DoubleComplexMap:
    """Bidegreewise map of double complexes commuting with d and dV."""

    source: DoubleComplex
    target: DoubleComplex
    components: dict  # (p, q) -> IntMatrix

    def __post_init__(self):
        pm = max(self.source.p_max, self.target.p_max)
        qm = max(self.source.q_max, self.target.q_max)
        for p in range(pm + 1):
            for q in range(qm + 1):
                f = self.component(p, q)
                if self.target.horiz(p, q) @ f != self.component(p, q + 1) @ self.source.horiz(p, q):
                    raise NotChainMap(f"horizontal square at ({p},{q})")
                if self.target.vert(p, q) @ f != self.component(p + 1, q) @ self.source.vert(p, q):
                    raise NotChainMap(f"vertical square at ({p},{q})")

    def component(self, p, q):
        m = self.components.get((p, q))
        if m is None:
            return IntMatrix.zero(self.target.rank(p, q), self.source.rank(p, q))
        return m

    def total_map(self) -> ComplexMap:
        src = total_complex(self.source)
        tgt = total_complex(self.target)
        comps = {}
        for n in range(max(src.n_max, tgt.n_max) + 1):
            t_off = {(p, q): off for p, q, off, _ in self.target.block_layout(n)}
            comps[n] = IntMatrix.from_blocks(tgt.rank(n), src.rank(n), [
                (t_off[(p, q)], off, self.component(p, q), 1)
                for p, q, off, _ in self.source.block_layout(n) if (p, q) in t_off])
        return ComplexMap(src, tgt, comps)


# ---------------------------------------------------------------------------
# induced maps on cohomology and the two-pass quasi-isomorphism check


def _coords_in_kernel(kernel_cols, vec):
    """Coordinates of an integer vector in a basis of a kernel lattice.  The
    basis (kernel_basis) spans a pure sublattice, so the vector has integral
    coordinates exactly when it lies in the rational span, and they are
    unique."""
    m = IntMatrix.from_rows([[col[i] for col in kernel_cols] for i in range(len(vec))],
                            cols=len(kernel_cols))
    sol = solve_int(m, vec)
    if sol is None:
        raise ValueError("vector not in kernel span")
    return sol


def induced_map_data(d_in_s, d_out_s, d_in_t, d_out_t, f_mid):
    """Present H(source), H(target) and the induced map in kernel coordinates.

    Returns (rel_s, rel_t, fbar) where H_s = Z^{k_s}/im(rel_s) etc. and fbar
    is the matrix of the induced map.
    """
    ker_s = kernel_basis(d_out_s)
    ker_t = kernel_basis(d_out_t)
    rel_s = _relations_in_kernel(ker_s, d_in_s)
    rel_t = _relations_in_kernel(ker_t, d_in_t)
    cols = []
    for col in ker_s:
        image = f_mid.apply(col)
        cols.append(_coords_in_kernel(ker_t, image))
    fbar = IntMatrix.from_rows(
        [[cols[j][i] for j in range(len(cols))] for i in range(len(ker_t))],
        cols=len(ker_s)) if ker_t else IntMatrix.zero(0, len(ker_s))
    return rel_s, rel_t, fbar


def _relations_in_kernel(kernel_cols, d_in):
    cols = [_coords_in_kernel(kernel_cols, d_in.column(j)) for j in range(d_in.cols)]
    if not kernel_cols:
        return IntMatrix.zero(0, d_in.cols)
    return IntMatrix.from_rows(
        [[cols[j][i] for j in range(d_in.cols)] for i in range(len(kernel_cols))],
        cols=d_in.cols)


def is_iso_presented(rel_s: IntMatrix, rel_t: IntMatrix, fbar: IntMatrix) -> bool:
    """Is Z^{k_s}/im(rel_s) -> Z^{k_t}/im(rel_t) via fbar an isomorphism?"""
    k_s, k_t = fbar.cols, rel_t.rows

    def beside(sign):  # [fbar | sign * rel_t]
        return IntMatrix.from_blocks(k_t, k_s + rel_t.cols, [(0, 0, fbar, 1), (0, k_s, rel_t, sign)])

    # surjective: [fbar | rel_t] has trivial cokernel
    diag = smith_normal_form(beside(1)).s.diagonal()
    if len([d for d in diag if d]) != k_t or any(d not in (0, 1) for d in diag):
        return False
    # injective: fbar x in im(rel_t) forces x in im(rel_s)
    for col in kernel_basis(beside(-1)):
        x = col[:k_s]
        if solve_int(rel_s, x) is None:
            return False
    return True


def is_iso_rational(d_in_s, d_out_s, d_in_t, d_out_t, f_mid) -> bool:
    """Induced iso on cohomology over Q, by rank bookkeeping."""
    dim_s = d_in_s.rows - rank_q(d_out_s) - rank_q(d_in_s)
    dim_t = d_in_t.rows - rank_q(d_out_t) - rank_q(d_in_t)
    if dim_s != dim_t:
        return False
    # dim of induced image = rank [f | d_in_t] - rank d_in_t, restricted to cycles
    cycles = IntMatrix.from_rows(kernel_basis(d_out_s), cols=d_out_s.cols).transpose()
    images = f_mid @ cycles
    image_dim = rank_q(IntMatrix.from_blocks(d_in_t.rows, images.cols + d_in_t.cols, [
        (0, 0, images, 1), (0, images.cols, d_in_t, 1)])) - rank_q(d_in_t)
    return image_dim == dim_s


@dataclass
class QuasiIsoVerdict:
    rowwise: bool
    total: bool
    rowwise_detail: dict
    total_detail: dict


def quasi_iso_by_rows(dmap: DoubleComplexMap, direction="vertical", field="Z",
                      p_limit=None, n_limit=None) -> QuasiIsoVerdict:
    """Executable instance of the two-pass spectral-sequence lemma.

    First checks that the map is an isomorphism on cohomology taken in one
    direction at every bidegree, then independently checks the induced map
    of total complexes degreewise.  Both verdicts are reported; the lemma
    says the first implies the second.

    p_limit / n_limit restrict the checked bidegrees and total degrees: a
    truncation of an unbounded object (a bar construction, say) has inflated
    cohomology along its cut row, which is not evidence against the lemma.
    """
    src, tgt = dmap.source, dmap.target
    pm = max(src.p_max, tgt.p_max)
    qm = max(src.q_max, tgt.q_max)
    if p_limit is not None:
        pm = min(pm, p_limit)
    rowwise_detail = {}
    ok_rows = True
    for p in range(pm + 1):
        for q in range(qm + 1):
            if direction == "vertical":
                din_s, dout_s = src.vert(p - 1, q), src.vert(p, q)
                din_t, dout_t = tgt.vert(p - 1, q), tgt.vert(p, q)
            else:
                din_s, dout_s = src.horiz(p, q - 1), src.horiz(p, q)
                din_t, dout_t = tgt.horiz(p, q - 1), tgt.horiz(p, q)
            f = dmap.component(p, q)
            if field == "Q":
                ok = is_iso_rational(din_s, dout_s, din_t, dout_t, f)
            else:
                ok = is_iso_presented(*induced_map_data(din_s, dout_s, din_t, dout_t, f))
            rowwise_detail[(p, q)] = ok
            ok_rows = ok_rows and ok
    tmap = dmap.total_map()
    total_detail = {}
    ok_total = True
    top = max(tmap.source.n_max, tmap.target.n_max)
    if n_limit is not None:
        top = min(top, n_limit)
    for n in range(top + 1):
        din_s, dout_s = tmap.source.differential(n - 1), tmap.source.differential(n)
        din_t, dout_t = tmap.target.differential(n - 1), tmap.target.differential(n)
        f = tmap.component(n)
        if field == "Q":
            ok = is_iso_rational(din_s, dout_s, din_t, dout_t, f)
        else:
            ok = is_iso_presented(*induced_map_data(din_s, dout_s, din_t, dout_t, f))
        total_detail[n] = ok
        ok_total = ok_total and ok
    return QuasiIsoVerdict(ok_rows, ok_total, rowwise_detail, total_detail)


# ---------------------------------------------------------------------------
# simplicial homotopy cochain complexes


class SimplicialHomotopyCochainComplex:
    """Levels p = 0..P of graded modules with cofaces, codegeneracies, a
    grade-raising map f and a homotopy s = (s_i) killing f^2.

    Gradings: coface[(p, i)][q]: M^{p,q} -> M^{p+1,q} for i = 0..p+1,
    codegeneracy[(p, i)][q]: M^{p+1,q} -> M^{p,q} for i = 0..p,
    f[(p, q)]: M^{p,q} -> M^{p,q+1},
    s[(p, i)][q]: M^{p,q} -> M^{p-1,q+2} for i = 0..p-1.

    The aggregate maps dV = sum (-1)^i coface_i and s = sum (-1)^i s_i
    satisfy s dV + dV s = -f^2, s f = f s, s^2 = 0.
    """

    def __init__(self, p_max, grades, ranks, cofaces, codegens, f, s):
        self.p_max = p_max
        self.grades = sorted(grades)
        self.ranks = dict(ranks)
        self.cofaces = {k: dict(v) for k, v in cofaces.items()}
        self.codegens = {k: dict(v) for k, v in codegens.items()}
        self.f = dict(f)
        self.s = {k: dict(v) for k, v in s.items()}
        self.validate()

    def rank(self, p, q):
        if 0 <= p <= self.p_max:
            return self.ranks.get((p, q), 0)
        return 0

    def coface(self, p, i, q):
        m = self.cofaces.get((p, i), {}).get(q)
        return m if m is not None else IntMatrix.zero(self.rank(p + 1, q), self.rank(p, q))

    def codegen(self, p, i, q):
        m = self.codegens.get((p, i), {}).get(q)
        return m if m is not None else IntMatrix.zero(self.rank(p, q), self.rank(p + 1, q))

    def f_map(self, p, q):
        m = self.f.get((p, q))
        return m if m is not None else IntMatrix.zero(self.rank(p, q + 1), self.rank(p, q))

    def s_single(self, p, i, q):
        m = self.s.get((p, i), {}).get(q)
        return m if m is not None else IntMatrix.zero(self.rank(p - 1, q + 2), self.rank(p, q))

    def boundary(self, p, q):
        """dV = sum of (-1)^i cofaces: M^{p,q} -> M^{p+1,q}."""
        out = IntMatrix.zero(self.rank(p + 1, q), self.rank(p, q))
        for i in range(p + 2):
            m = self.coface(p, i, q)
            out = out + (m if i % 2 == 0 else m.scale(-1))
        return out

    def s_map(self, p, q):
        """s = sum of (-1)^i s_i: M^{p,q} -> M^{p-1,q+2}."""
        out = IntMatrix.zero(self.rank(p - 1, q + 2), self.rank(p, q))
        for i in range(p):
            m = self.s_single(p, i, q)
            out = out + (m if i % 2 == 0 else m.scale(-1))
        return out

    def validate(self):
        qs = self.grades
        for p in range(self.p_max - 1):
            for q in qs:
                for j in range(p + 3):
                    for i in range(j):
                        # coface relation D_j D_i = D_i D_{j-1}
                        lhs = self.coface(p + 1, j, q) @ self.coface(p, i, q)
                        rhs = self.coface(p + 1, i, q) @ self.coface(p, j - 1, q)
                        if lhs != rhs:
                            raise AxiomViolation(
                                f"simplicial identities: cofaces ({i},{j}) at level {p}, grade {q}")
        for p in range(self.p_max):
            for q in qs:
                for i in range(p + 2):
                    for j in range(p + 1):
                        lhs = self.codegen(p, j, q) @ self.coface(p, i, q)
                        if i < j:
                            rhs = self.coface(p - 1, i, q) @ self.codegen(p - 1, j - 1, q)
                        elif i in (j, j + 1):
                            rhs = IntMatrix.identity(self.rank(p, q))
                        else:
                            rhs = self.coface(p - 1, i - 1, q) @ self.codegen(p - 1, j, q)
                        if lhs != rhs:
                            raise AxiomViolation(
                                f"simplicial identities: mixed ({i},{j}) at level {p}, grade {q}")
        for p in range(self.p_max + 1):
            for q in qs:
                # s dV + dV s = -f^2 (at the top level the s dV term is empty)
                lhs = (self.s_map(p + 1, q) @ self.boundary(p, q)
                       + self.boundary(p - 1, q + 2) @ self.s_map(p, q))
                rhs = (self.f_map(p, q + 1) @ self.f_map(p, q)).scale(-1)
                if lhs != rhs:
                    raise AxiomViolation(f"s dV + dV s = -f^2 at level {p}, grade {q}")
                # s f = f s
                if (self.s_map(p, q + 1) @ self.f_map(p, q)
                        != self.f_map(p - 1, q + 2) @ self.s_map(p, q)):
                    raise AxiomViolation(f"sf = fs at level {p}, grade {q}")
                # s^2 = 0
                if not self.s_map(p - 1, q + 2).product_is_zero(self.s_map(p, q)):
                    raise AxiomViolation(f"s^2 = 0 at level {p}, grade {q}")
                # f is a map of simplicial modules
                if p < self.p_max:
                    if (self.f_map(p + 1, q) @ self.boundary(p, q)
                            != self.boundary(p, q + 1) @ self.f_map(p, q)):
                        raise AxiomViolation(f"f dV = dV f at level {p}, grade {q}")

    def total(self) -> IntCochainComplex:
        """Total complex with boundary dV + s + (-1)^p f; square-zero verified."""
        degrees = sorted({p + q for (p, q) in self.ranks})
        if not degrees:
            return IntCochainComplex(0, [0], [])
        n_min, n_max = degrees[0], degrees[-1]
        ranks, diffs = totalize(n_min, n_max, self.p_max, self.rank, [
            (1, 0, self.boundary, lambda p, q: 1),
            (-1, 2, self.s_map, lambda p, q: 1),
            (0, 1, self.f_map, lambda p, q: (-1) ** p),
        ])
        for n in range(n_min, n_max - 1):
            if not diffs[n + 1].product_is_zero(diffs[n]):
                raise AxiomViolation(f"homotopy total differential fails d^2 = 0 at {n}")
        return IntCochainComplex(n_min, [ranks[n] for n in range(n_min, n_max + 1)],
                                 [diffs[n] for n in range(n_min, n_max)], check=False)


@dataclass
class SHCMorphism:
    """Grading-preserving map of homotopy complexes commuting with the
    simplicial structure, f and s."""

    source: SimplicialHomotopyCochainComplex
    target: SimplicialHomotopyCochainComplex
    components: dict  # (p, q) -> IntMatrix

    def __post_init__(self):
        src, tgt = self.source, self.target
        for p in range(src.p_max + 1):
            for q in set(src.grades) | set(tgt.grades):
                w = self.component(p, q)
                if p < src.p_max:
                    for i in range(p + 2):
                        if tgt.coface(p, i, q) @ w != self.component(p + 1, q) @ src.coface(p, i, q):
                            raise NotChainMap(f"coface {i} at ({p},{q})")
                if tgt.f_map(p, q) @ w != self.component(p, q + 1) @ src.f_map(p, q):
                    raise NotChainMap(f"f at ({p},{q})")
                if tgt.s_map(p, q) @ w != self.component(p - 1, q + 2) @ src.s_map(p, q):
                    raise NotChainMap(f"s at ({p},{q})")

    def component(self, p, q):
        m = self.components.get((p, q))
        return m if m is not None else IntMatrix.zero(self.target.rank(p, q), self.source.rank(p, q))


def cone_homotopy(w: SHCMorphism) -> SimplicialHomotopyCochainComplex:
    """Cone of a morphism of homotopy complexes: grade k holds
    F^{p,k+1} (+) F'^{p,k}, boundary blocks (-f, -w; 0, f'), homotopy diag(s, s')."""
    a, b = w.source, w.target
    p_max = min(a.p_max, b.p_max)
    grades = sorted({q - 1 for q in a.grades} | set(b.grades))
    ranks = {}
    for p in range(p_max + 1):
        for k in grades:
            r = a.rank(p, k + 1) + b.rank(p, k)
            if r:
                ranks[(p, k)] = r

    def diag(a_map, b_map, p, i):
        """{k: diag(a_map(p, i, k + 1), b_map(p, i, k))} over the grades,
        0 x 0 blocks left out."""
        out = {}
        for k in grades:
            x, y = a_map(p, i, k + 1), b_map(p, i, k)
            if x.rows + y.rows or x.cols + y.cols:
                out[k] = IntMatrix.from_blocks(x.rows + y.rows, x.cols + y.cols,
                                               [(0, 0, x, 1), (x.rows, x.cols, y, 1)])
        return out

    cofaces = {(p, i): diag(a.coface, b.coface, p, i)
               for p in range(p_max) for i in range(p + 2)}
    codegens = {(p, i): diag(a.codegen, b.codegen, p, i)
                for p in range(p_max) for i in range(p + 1)}
    s = {(p, i): diag(a.s_single, b.s_single, p, i)
         for p in range(1, p_max + 1) for i in range(p)}
    f = {}
    for p in range(p_max + 1):
        for k in grades:
            ra1, ra0 = a.rank(p, k + 2), a.rank(p, k + 1)
            rows, cols = ra1 + b.rank(p, k + 1), ra0 + b.rank(p, k)
            if rows and cols:
                f[(p, k)] = IntMatrix.from_blocks(rows, cols, [
                    (0, 0, a.f_map(p, k + 1), -1),
                    (ra1, ra0, b.f_map(p, k), 1),
                    (ra1, 0, w.component(p, k + 1), -1),
                ])
    return SimplicialHomotopyCochainComplex(p_max, grades, ranks, cofaces, codegens, f, s)


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

    From the Smith form left @ d^{n-1} @ right = s that cx keeps: the
    cochains right e_i / s_i (for diagonal entries s_i >= 2) are closed mod
    Z and generate the torsion summand; -beta maps them to the classes of
    -left^{-1} e_i.
    """
    snf = cx.smith(n - 1)
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
