"""The simplicial bar object G^. x M for a finite group acting cellularly.

Level p carries |G|^p copies of the cell structure of M (the group factors
are discrete, so q-cells are (p-tuple, q-cell of M) pairs).  Face maps drop
the first entry, multiply adjacent entries, or act on M with the last entry;
degeneracies insert the identity.  The cellular cochain double complex of
this object computes equivariant cohomology.

The pipeline reads the normalized cochains, those that vanish on tuples
containing the identity (Eilenberg-Mac Lane; Brown, Cohomology of Groups
I.5): level p of them has (|G|-1)^p copies of the cells of M, one per tuple
over G \\ {e}.  Their inclusion into the full cochains is a chain homotopy
equivalence over Z, in each column of the double complex, so the total
complexes have the same cohomology with any coefficients.  The full double
complex stays as the test oracle and for the group-averaging helpers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, permutations, repeat
from math import factorial
from operator import getitem, itemgetter

from .complexes import (
    DoubleComplex,
    IntCochainComplex,
    block_sum,
    reduced_taking_rows,
    totalize,
)
from .linalg import (
    FgAbGroup,
    IntMatrix,
    StructuredCoefGroup,
    coefficient_change,
)


class InvalidAction(Exception):
    pass


class CoefficientNotDivisible(Exception):
    pass


# ---------------------------------------------------------------------------
# finite groups


class FiniteGroup:
    """Multiplication table group; elements are indices 0..order-1."""

    def __init__(self, table, name=None):
        _refuse_large_table(name, len(table))
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        self.name = name
        for row in self.table:
            if len(row) != self.order:
                raise ValueError("multiplication table must be square")
        self.identity = self._find_identity()
        self.inverse = self._build_inverses()
        self._check_associativity()
        # highest bar level whose simplicial identities BarLevels has checked
        # for this group (they compare group elements only); level 0 has none
        self.bar_checked_level = 0
        self._subgroups = {}          # sorted element tuple -> FiniteGroup
        self._normalized_faces = {}   # bar level -> its faces on nondegenerate tuples
        self._orbit_bars = {}         # orbit type (H, signs) -> orbit_bar(), largest top built
        self._generators = None       # generators(), once chosen

    def _find_identity(self):
        for e in range(self.order):
            if all(self.table[e][g] == g and self.table[g][e] == g for g in range(self.order)):
                return e
        raise ValueError("table has no identity element")

    def _build_inverses(self):
        inv = [None] * self.order
        for g in range(self.order):
            for h in range(self.order):
                if self.table[g][h] == self.identity and self.table[h][g] == self.identity:
                    inv[g] = h
                    break
            if inv[g] is None:
                raise ValueError(f"element {g} has no inverse")
        return inv

    def _check_associativity(self):
        t = self.table
        for a in range(self.order):
            for b in range(self.order):
                ab = t[a][b]
                for c in range(self.order):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise ValueError("table is not associative")

    def mul(self, a, b):
        return self.table[a][b]

    def elements(self):
        return range(self.order)

    # -- named families

    @classmethod
    def cyclic(cls, n):
        return cls([[(i + j) % n for j in range(n)] for i in range(n)], name=f"cyclic:{n}")

    @classmethod
    def symmetric(cls, n):
        perms = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
        return cls(table, name=f"symmetric:{n}")

    @classmethod
    def dihedral(cls, n):
        """Order 2n: elements (k, r) acting on n vertices, r = 0 rotation, 1 reflection."""
        elems = [(k, r) for r in (0, 1) for k in range(n)]
        index = {e: i for i, e in enumerate(elems)}

        def compose(a, b):
            (k1, r1), (k2, r2) = a, b
            # (k, r): x -> k + (-1)^r x mod n; composition of a after b
            k = (k1 + (-1) ** r1 * k2) % n
            return (k, (r1 + r2) % 2)

        table = [[index[compose(a, b)] for b in elems] for a in elems]
        return cls(table, name=f"dihedral:{n}")

    @classmethod
    def quaternion8(cls):
        # elements 1, -1, i, -i, j, -j, k, -k encoded as (axis, sign):
        names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

        def mul_units(a, b):
            def split(u):
                sgn = -1 if u.startswith("-") else 1
                return sgn, u.lstrip("-")

            sa, ua = split(a)
            sb, ub = split(b)
            basic = {
                ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
                ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
                ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
                ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
                ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
                ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
            }
            s, u = basic[(ua, ub)]
            s *= sa * sb
            return ("-" if s < 0 else "") + u

        index = {nm: i for i, nm in enumerate(names)}
        table = [[index[mul_units(a, b)] for b in names] for a in names]
        return cls(table, name="quaternion:8")

    @classmethod
    def named(cls, spec):
        """Parse 'cyclic:5', 'symmetric:3', 'dihedral:4', 'quaternion:8'.  The
        order follows from the spec, so a table over BAR_BUDGET raises
        BarComplexTooLarge before anything is built."""
        kind, _, arg = spec.partition(":")
        n = int(arg) if arg else None
        if kind == "quaternion":
            if n != 8:
                raise ValueError("only quaternion:8 is available")
            return cls.quaternion8()
        if kind not in ("cyclic", "symmetric", "dihedral"):
            raise ValueError(f"unknown group family {spec!r}")
        least = 0 if kind == "symmetric" else 1
        if n is None or n < least:
            raise ValueError(f"{kind}:n needs an order n >= {least}, as in {kind}:3")
        # 7! is already over the budget: no larger factorial is formed
        order = {"cyclic": n, "dihedral": 2 * n, "symmetric": factorial(min(n, 7))}[kind]
        _refuse_large_table(spec, order)
        return getattr(cls, kind)(n)

    def _subgroup_elements(self, elements):
        """The elements as a sorted tuple; InvalidAction unless they are a
        subgroup (in range, with the identity, closed under the product)."""
        sub = tuple(sorted(set(elements)))
        if not all(0 <= g < self.order for g in sub) or self.identity not in sub \
                or any(self.table[a][b] not in sub for a in sub for b in sub):
            raise InvalidAction(f"{list(sub)} is not a subgroup of {self.name or 'the group'}")
        return sub

    def subgroup(self, elements):
        """The subgroup on these elements as a FiniteGroup, its table
        reindexed in increasing element order; the group itself for all of
        its elements.  Kept on the group, so each subgroup is built once and
        the simplicial identities of its bar levels are checked once."""
        sub = self._subgroup_elements(elements)
        if len(sub) == self.order:
            return self
        group = self._subgroups.get(sub)
        if group is None:
            index = {g: i for i, g in enumerate(sub)}
            group = FiniteGroup([[index[self.table[a][b]] for b in sub] for a in sub])
            self._subgroups[sub] = group
        return group

    def normalized_bar_faces(self, p):
        """The faces d_0..d_p of bar level p on the tuples without the
        identity, as _face_maps over the alphabet G \\ {e}: a code is the
        position of its tuple among the nondegenerate tuples of its level,
        and a face that lands on a degenerate tuple has code None.  Built
        once per level and kept: the faces depend on the group alone."""
        faces = self._normalized_faces.get(p)
        if faces is None:
            rest = [g for g in range(self.order) if g != self.identity]
            digit = {g: a for a, g in enumerate(rest)}
            merge = [[digit.get(self.table[g][h]) for h in rest] for g in rest]
            faces = _face_maps(p, len(rest), merge, rest)
            self._normalized_faces[p] = faces
        return faces

    def orbit_bar(self, stabilizer, signs, top):
        """The reduced normalized bar complex of the orbit type (H, chi) in
        degrees 0..T for some T >= top: G on the cosets G/H, Z twisted by the
        sign character chi of H (GAction.signed_cosets), with stabilizer the
        sorted elements of H and signs[i] = chi(stabilizer[i]).  Kept on the
        group, one complex per orbit type, and built, from bar_levels of the
        signed coset action, only when top goes past the largest T built so
        far for that type; it then replaces the kept one.  Its H^k is the
        true H^k for every k < T (bar_complex).  A 0-dimensional action's
        complex is the sum of its orbits' (GAction.reduced_bar), and H on a
        point twisted by chi, the type (all of H, chi) kept on the subgroup,
        gives an orbit's integral corners (Shapiro's lemma)."""
        key = (stabilizer, signs)
        cx = self._orbit_bars.get(key)
        if cx is None or cx.n_max < top:
            cx = _kept_reduction(GAction.signed_cosets(self, stabilizer, signs), top)
            self._orbit_bars[key] = cx
        return cx

    def _closure(self, elements):
        """The subgroup that elements generate, as a frozenset."""
        reached, frontier = {self.identity}, [self.identity]
        while frontier:
            frontier = [h for h in {self.table[x][s] for x in frontier for s in elements}
                        if h not in reached]
            reached.update(frontier)
        return frozenset(reached)

    def generators(self):
        """A generating set, chosen greedily in element order: each element
        that the ones before it do not generate.  Chosen once and kept on the
        group; the trivial group has none."""
        if self._generators is None:
            gens, reached = [], {self.identity}
            for g in self.elements():
                if g not in reached:
                    gens.append(g)
                    reached = self._closure(gens)
            self._generators = tuple(gens)
        return self._generators

    def subgroups(self):
        """All subgroups, as sorted element tuples ordered by (size,
        elements).  A subgroup is the join of its cyclic subgroups, so
        joining each subgroup found with each cyclic one until nothing new
        appears reaches every subgroup."""
        cyclic = {self._closure([g]) for g in self.elements()}
        found, frontier = set(cyclic), cyclic
        while frontier:
            frontier = {self._closure(a | c) for a in frontier for c in cyclic
                        if not c <= a} - found
            found |= frontier
        return sorted((tuple(sorted(h)) for h in found), key=lambda h: (len(h), h))

    @classmethod
    def from_json_obj(cls, obj):
        if "name" in obj:
            return cls.named(obj["name"])
        return cls(obj["table"])


# ---------------------------------------------------------------------------
# cell complexes


class CellComplex:
    """Finite regular-ish CW data: cell counts per dimension and integer
    boundary matrices bd[d]: C_d -> C_{d-1} with bd bd = 0."""

    def __init__(self, cells, boundaries, name=None):
        self.cells = list(cells)
        self.boundaries = list(boundaries)  # boundaries[d]: C_{d+1} -> C_d shape
        self.name = name
        if not all(isinstance(c, int) and c >= 0 for c in self.cells):
            raise ValueError(f"cell counts must be nonnegative integers, got {self.cells}")
        if len(self.boundaries) != max(len(self.cells) - 1, 0):
            raise ValueError("need one boundary matrix between consecutive dimensions")
        for d, bd in enumerate(self.boundaries):
            if (bd.rows, bd.cols) != (self.cells[d], self.cells[d + 1]):
                raise ValueError(f"boundary {d + 1} has wrong shape")
        for d in range(len(self.boundaries) - 1):
            if not self.boundaries[d].product_is_zero(self.boundaries[d + 1]):
                raise ValueError("cellular boundary does not square to zero")

    @property
    def dim(self):
        return len(self.cells) - 1

    def ncells(self, d):
        return self.cells[d] if 0 <= d < len(self.cells) else 0

    def boundary(self, d):
        """C_d -> C_{d-1}."""
        if 1 <= d <= self.dim:
            return self.boundaries[d - 1]
        return IntMatrix.zero(self.ncells(d - 1), self.ncells(d))

    def coboundary(self, q):
        """Cochain differential C^q -> C^{q+1} (transpose of boundary)."""
        return self.boundary(q + 1).transpose()

    # -- stock models

    @classmethod
    def point(cls):
        return cls([1], [], name="point")

    @classmethod
    def points(cls, k):
        return cls([k], [], name=f"points:{k}")

    @classmethod
    def circle(cls, k):
        """k vertices v_0..v_{k-1}, k edges e_i: v_i -> v_{i+1 mod k}."""
        if k < 1:
            raise ValueError("need at least one vertex")
        bd = {}
        for i in range(k):
            bd[((i + 1) % k, i)] = bd.get(((i + 1) % k, i), 0) + 1
            bd[(i, i)] = bd.get((i, i), 0) - 1
        return cls([k, k], [IntMatrix(k, k, bd)], name=f"circle:{k}")

    @classmethod
    def from_json_obj(cls, obj):
        return cls(obj["cells"], [IntMatrix.from_json_obj(b) for b in obj["boundaries"]])


# ---------------------------------------------------------------------------
# group actions


class GAction:
    """Cellular left action: per element and dimension a signed cell permutation.

    perms[g][d][c] is the image cell of c, signs[g][d][c] its orientation
    sign.  Validated on construction: the assignment is a homomorphism with
    signs, and it commutes with the cellular boundary.
    """

    def __init__(self, group: FiniteGroup, space: CellComplex, perms, signs=None, name=None):
        self.group = group
        self.space = space
        self.perms = {g: [list(p) for p in perms[g]] for g in group.elements()}
        if signs is None:
            signs = {g: [[1] * space.ncells(d) for d in range(space.dim + 1)]
                     for g in group.elements()}
        self.signs = {g: [list(s) for s in signs[g]] for g in group.elements()}
        self.name = name
        self._bar = None           # reduced_bar(), of the largest top built so far
        self._validate()

    def _validate(self):
        g0 = self.group.identity
        for d in range(self.space.dim + 1):
            n = self.space.ncells(d)
            if self.perms[g0][d] != list(range(n)) or any(s != 1 for s in self.signs[g0][d]):
                raise InvalidAction("identity element must act trivially")
        for g in self.group.elements():
            for d in range(self.space.dim + 1):
                n = self.space.ncells(d)
                if sorted(self.perms[g][d]) != list(range(n)):
                    raise InvalidAction(f"element {g} is not a cell permutation in dim {d}")
                if any(s not in (1, -1) for s in self.signs[g][d]):
                    raise InvalidAction("orientation signs must be +-1")
        for g in self.group.elements():
            for h in self.group.elements():
                gh = self.group.mul(g, h)
                for d in range(self.space.dim + 1):
                    for c in range(self.space.ncells(d)):
                        via = self.perms[g][d][self.perms[h][d][c]]
                        s_via = self.signs[h][d][c] * self.signs[g][d][self.perms[h][d][c]]
                        if via != self.perms[gh][d][c] or s_via != self.signs[gh][d][c]:
                            raise InvalidAction("action is not a homomorphism")
        for g in self.group.elements():
            for d in range(1, self.space.dim + 1):
                lhs = self.space.boundary(d) @ self.chain_matrix(g, d)
                rhs = self.chain_matrix(g, d - 1) @ self.space.boundary(d)
                if lhs != rhs:
                    raise InvalidAction(f"element {g} does not commute with the boundary in dim {d}")

    def chain_matrix(self, g, d):
        n = self.space.ncells(d)
        return IntMatrix(n, n, {(self.perms[g][d][c], c): self.signs[g][d][c] for c in range(n)})

    def act_cell(self, g, d, c):
        return self.perms[g][d][c], self.signs[g][d][c]

    def _orbit_representatives(self):
        """The first 0-cell of each orbit on 0-cells, in increasing order."""
        seen = set()
        firsts = []
        for c in range(self.space.ncells(0)):
            if c not in seen:
                firsts.append(c)
                seen.update(self.perms[g][0][c] for g in self.group.elements())
        return firsts

    def orbit_types(self):
        """The orbit type (H, chi) of each orbit on 0-cells, in the order of
        their first 0-cells c: the stabilizer H of c as a sorted element
        tuple, and chi(h), the sign that h gives c, for each h in it.  M's
        0-cells are then the disjoint union of the G/H, with Z twisted by
        chi, and Shapiro's lemma (Brown, Cohomology of Groups III.5-6) gives
        H^*_G(0-cells of M) = the sum over orbits of H^*(H; Z twisted by chi)."""
        out = []
        for c in self._orbit_representatives():
            stab = tuple(g for g in self.group.elements() if self.perms[g][0][c] == c)
            out.append((stab, tuple(self.signs[g][0][c] for g in stab)))
        return out

    def reduced_bar(self, top):
        """The reduced normalized bar complex of this action in degrees 0..T
        for some T >= top, kept on the action, and built only when top goes
        past the largest T built so far.  Its H^k is the true H^k for every
        k < T (bar_complex), so it serves every query whose degrees read lie
        below top.

        A positive-dimensional action, whose boundaries join its orbits,
        reduces bar_complex of bar_levels(self, top).  A 0-dimensional one is
        the direct sum, orbit after orbit, of the complexes its group keeps
        for their orbit types (FiniteGroup.orbit_bar): the cochains of
        G^. x M split over the orbits, and an orbit of type (H, chi) is the
        signed coset action on G/H up to a renumbering of its points and the
        signs of their basis vectors.  One orbit is its type's complex itself.
        Either way a top over BAR_BUDGET for the whole action is refused
        before anything is built; a kept complex serves only tops at or below
        one that already passed the budget."""
        if self._bar is None or self._bar.n_max < top:
            if self.space.dim > 0:
                self._bar = _kept_reduction(self, top)
            else:
                _refuse_over_budget(self, top)
                self._bar = block_sum([self.group.orbit_bar(stab, signs, top)
                                        for stab, signs in self.orbit_types()], top)
        return self._bar

    @classmethod
    def signed_cosets(cls, group, stabilizer, signs, name=None):
        """G on the cosets of the subgroup with these sorted elements, in
        the order of their least elements r, with Z twisted by the sign
        character chi (signs[i] = chi(stabilizer[i])): g r = r' h with h in H
        sends the basis vector of the coset of r to chi(h) times that of r',
        the induced module of chi.  The orbit type (H, chi) as an action."""
        chi = dict(zip(stabilizer, signs))
        reps, coset_of = [], {}
        for g in group.elements():
            if g not in coset_of:
                coset_of.update((group.mul(g, h), len(reps)) for h in stabilizer)
                reps.append(g)
        inverse = [group.inverse[r] for r in reps]
        perms, twists = {}, {}
        for g in group.elements():
            moved = [group.mul(g, r) for r in reps]
            images = [coset_of[x] for x in moved]
            perms[g] = [images]
            twists[g] = [[chi[group.mul(inverse[j], x)] for j, x in zip(images, moved)]]
        return cls(group, CellComplex.points(len(reps)), perms, twists,
                   name=name or f"cosets[{len(reps)}]")

    # -- stock actions

    @classmethod
    def trivial(cls, group, space):
        perms = {g: [list(range(space.ncells(d))) for d in range(space.dim + 1)]
                 for g in group.elements()}
        return cls(group, space, perms, name="trivial")

    @classmethod
    def points_action(cls, group, k, elem_perms, name=None):
        space = CellComplex.points(k)
        perms = {g: [list(elem_perms[g])] for g in group.elements()}
        return cls(group, space, perms, name=name)

    @classmethod
    def coset_action(cls, group, subgroup_elements, name=None):
        """Left multiplication on cosets of the given subgroup, in the order
        of their least elements; InvalidAction if the elements are not a
        subgroup."""
        sub = group._subgroup_elements(subgroup_elements)
        return cls.signed_cosets(group, sub, (1,) * len(sub), name)

    @classmethod
    def cyclic_rotation_circle(cls, p):
        """Free rotation of the cyclic group of order p on the p-gon circle."""
        group = FiniteGroup.cyclic(p)
        space = CellComplex.circle(p)
        perms = {g: [[(c + g) % p for c in range(p)], [(c + g) % p for c in range(p)]]
                 for g in range(p)}
        return cls(group, space, perms, name=f"rotation:{p}")

    @classmethod
    def swap_two_points(cls):
        group = FiniteGroup.cyclic(2)
        return cls.points_action(group, 2, {0: [0, 1], 1: [1, 0]}, name="swap")

    @classmethod
    def lens_sphere(cls, p):
        """Free cyclic action on the 3-sphere in its lens cell structure:
        p cells in every dimension, rotated by the generator.  The quotient
        is a lens space with H^2 of order p."""
        group = FiniteGroup.cyclic(p)
        ring = CellComplex.circle(p).boundary(1)   # of the 1-cells, and of the 3-cells
        disks = IntMatrix(p, p, {(i, j): 1 for i in range(p) for j in range(p)})  # each wraps
        space = CellComplex([p, p, p, p], [ring, disks, ring], name=f"lens-sphere:{p}")
        perms = {g: [[(c + g) % p for c in range(p)] for _ in range(4)]
                 for g in range(p)}
        return cls(group, space, perms, name=f"lens:{p}")

    @classmethod
    def from_json_obj(cls, obj):
        group = FiniteGroup.from_json_obj(obj["group"])
        space = CellComplex.from_json_obj(obj["space"])
        perms = {int(g): p for g, p in obj["perms"].items()}
        signs = {int(g): s for g, s in obj["signs"].items()} if "signs" in obj else None
        return cls(group, space, perms, signs)


# ---------------------------------------------------------------------------
# bar levels


def _runs(starts, width):
    """range(s, s + width) for each s in starts, one after another, as an
    iterator; a start of None gives width Nones."""
    if width == 1:
        return iter(starts)
    nones = (None,) * width
    return chain.from_iterable(nones if s is None else range(s, s + width) for s in starts)


def _face_maps(p, radix, merge, acting):
    """The faces d_0..d_p of bar level p >= 1, tabulated by list arithmetic
    on mixed-radix codes.

    A tuple of level p is p digits in range(radix), the first most
    significant; merge[a][b] is the digit of the product of the elements
    with digits a and b, or None where that product is not in the
    alphabet, and acting[a] is the element with digit a.  Face i is a
    decorated map (codes, acts): tuple t goes to tuple codes[t] of level
    p - 1 (None where a merged product left the alphabet), and acts[t] acts
    on the M factor; acts is None, every element the identity, except for
    the last face.  Codes and acts are tuples, so that a gatherer over the
    codes holds no copy of them (_gatherer).  Over the alphabet G (merge
    the group table) these are face_tuple on every tuple.
    """
    lower = radix ** (p - 1)
    faces = [(tuple(range(lower)) * radix, None)]       # d_0 drops g_1
    merged = [c for row in merge for c in row]
    for i in range(1, p):                                # d_i merges g_i, g_{i+1}
        width = radix ** (p - i - 1)
        starts = [None if c is None else (high * radix + c) * width
                  for high in range(radix ** (i - 1)) for c in merged]
        faces.append((tuple(_runs(starts, width)), None))
    # d_p drops g_p, which acts: tuple t goes to t // radix
    last = tuple(chain.from_iterable(zip(*[range(lower)] * radix)))
    faces.append((last, tuple(acting) * lower))
    return faces


def _degeneracy_maps(p, radix, identity):
    """The degeneracies s_0..s_p of bar level p over the alphabet G (radix
    |G|), by list arithmetic: s_i inserts the identity after g_i, and
    codes[t] is the code of s_i t at level p + 1 (degeneracy_tuple on every
    tuple)."""
    return [list(_runs(range(identity * width, radix ** (p + 1), radix * width), width))
            for width in (radix ** (p - i) for i in range(p + 1))]


def _gatherer(codes):
    """seq -> the tuple of seq[c] for c in codes, as one itemgetter, built
    once per map and applied to every map composed after it; a single code
    is wrapped, since itemgetter of one index gives the item, not a tuple.
    The itemgetter holds codes itself when codes is a tuple, a copy of it
    otherwise."""
    if len(codes) == 1:
        (c,) = codes
        return lambda seq: (seq[c],)
    return itemgetter(*codes)


def _compose(outer, inner, table):
    """outer after inner, for decorated maps (codes, acts) with no None
    code, inner carrying _gatherer(codes) as a third entry: inner's codes
    sent on by outer, and the element acting on M the product of outer's
    element after inner's, for the group table.  Codes and acts come out as
    tuples."""
    (out_codes, out_acts), (_, in_acts, gather) = outer, inner
    codes = gather(out_codes)
    if out_acts is None:
        return codes, in_acts
    firsts = gather(out_acts)
    if in_acts is None:
        return codes, firsts
    return codes, tuple(map(getitem, map(table.__getitem__, firsts), in_acts))


def _same_map(f, g, identity):
    """Whether two decorated maps agree on every tuple; acts None stands for
    every element the identity.  Codes and acts are compared as tuples."""
    (f_codes, f_acts), (g_codes, g_acts) = f, g
    if f_codes != g_codes:
        return False
    if f_acts is None or g_acts is None:
        acts = g_acts if f_acts is None else f_acts
        return acts is None or acts.count(identity) == len(acts)
    return f_acts == g_acts


class BarLevels:
    """Levels 0..P of G^p x M with face/degeneracy maps as cellular maps.

    Tuples (g_1, ..., g_p) are encoded with g_1 most significant:
    t = g_1 m^{p-1} + ... + g_p where m = |G|.  A q-cell of level p is the
    pair (t, c), flattened as t * ncells(q) + c.

    The face and degeneracy maps are tabulated by _face_maps and
    _degeneracy_maps.  The simplicial identities are checked on the full
    tables, all m^p tuples of a level.  The cochain matrices the pipeline
    reads (vertical_matrix, horizontal_matrix, over normalized_cells) are
    those of the normalized complex: its basis at level p is the
    nondegenerate tuples, those with no identity entry, in increasing
    order, and a q-cell (r, c) is flattened as r * ncells(q) + c with r the
    position of the tuple; their faces are the group's
    normalized_bar_faces, _face_maps over G \\ {e}.  The full cochains
    (cells, full_vertical_matrix, full_horizontal_matrix) serve the
    group-averaging helpers and the tests.
    """

    def __init__(self, act: GAction, P):
        if P < 0:
            raise ValueError("truncation must be nonnegative")
        if not isinstance(act, GAction):
            raise InvalidAction("bar_levels needs a validated GAction")
        self.act = act
        self.group = act.group
        self.space = act.space
        self.P = P
        m = self.group.order
        self.tuple_counts = [m ** p for p in range(P + 1)]
        self.nondegenerate_counts = [(m - 1) ** p for p in range(P + 1)]
        self._face_tables = {}            # level -> its faces on all tuples
        self._degeneracy_tables = {}      # level -> its degeneracies on all tuples
        if P > self.group.bar_checked_level:
            self.verify_simplicial_identities()

    def face_table(self, p, i):
        """Face i of level p on all tuples, a decorated map (codes, acts):
        tuple t goes to tuple codes[t] of level p - 1 with acts[t] acting on
        the M factor (acts None: the identity acts)."""
        faces = self._face_tables.get(p)
        if faces is None:
            g = self.group
            faces = _face_maps(p, g.order, g.table, list(g.elements()))
            self._face_tables[p] = faces
        return faces[i]

    def degeneracy_table(self, p, i):
        """Degeneracy i of level p on all tuples: codes[t] is s_i t."""
        degeneracies = self._degeneracy_tables.get(p)
        if degeneracies is None:
            degeneracies = _degeneracy_maps(p, self.group.order, self.group.identity)
            self._degeneracy_tables[p] = degeneracies
        return degeneracies[i]

    def cells(self, p, q):
        """q-cells of level p of the full bar object."""
        if 0 <= p <= self.P:
            return self.tuple_counts[p] * self.space.ncells(q)
        return 0

    def normalized_cells(self, p, q):
        """q-cells of level p of the normalized complex."""
        if 0 <= p <= self.P:
            return self.nondegenerate_counts[p] * self.space.ncells(q)
        return 0

    # -- decorated tuple maps: (tuple index) -> (tuple index, acting element)

    def face_tuple(self, p, i, t):
        """Face i of the bar object at level p, on tuple indices.

        Returns (t', g) where g is the element acting on the M factor
        (identity except for the last face).
        """
        m = self.group.order
        e = self.group.identity
        if p < 1 or not (0 <= i <= p):
            raise ValueError(f"face index {i} out of range at level {p}")
        if i == 0:
            return t % self.tuple_counts[p - 1], e
        if i == p:
            return t // m, t % m
        low_count = p - i - 1
        low = t % (m ** low_count)
        rest = t // (m ** low_count)
        g_next = rest % m
        rest //= m
        g_i = rest % m
        high = rest // m
        merged = self.group.mul(g_i, g_next)
        return (high * m + merged) * (m ** low_count) + low, e

    def degeneracy_tuple(self, p, i, t):
        """Degeneracy i at level p: insert the identity after position i."""
        m = self.group.order
        if not (0 <= i <= p):
            raise ValueError(f"degeneracy index {i} out of range at level {p}")
        low_count = p - i
        low = t % (m ** low_count)
        high = t // (m ** low_count)
        return (high * m + self.group.identity) * (m ** low_count) + low

    def verify_simplicial_identities(self):
        """Exhaustive check of all simplicial relations on decorated tuples.

        Cell parts factor through the (already validated) action
        homomorphism, so comparing the acting group elements suffices.  The
        relations then depend on the group alone: the levels up to
        group.bar_checked_level are skipped, and each level checked is
        recorded there.
        """
        for level in range(self.group.bar_checked_level + 1, self.P + 1):
            self._verify_level(level)
            self.group.bar_checked_level = level
            # the next level reads the faces of levels >= level and the
            # degeneracies of levels >= level - 1 only: free the rest
            self._face_tables.pop(level - 1, None)
            self._degeneracy_tables.pop(level - 2, None)
        # the normalized complex does not read the full tables: free them
        self._face_tables.clear()
        self._degeneracy_tables.clear()

    def _verify_level(self, level):
        """The relations whose tables reach no higher than this level:
        d_i d_j from it, d_i s_j into it and s_i s_j two levels up into it.
        Each side is composed over every tuple as a whole tuple, through one
        gatherer per inner map (_gatherer), shared by every relation that
        map is the inner one of."""
        table, e = self.group.table, self.group.identity
        face = self.face_table
        gatherers = {}

        def degeneracy(p, i):  # as a decorated map: nothing acts on M
            return self.degeneracy_table(p, i), None

        def inner(p, i, is_face):
            """Face or degeneracy i of level p with its gatherer, made at its
            first use as an inner map."""
            key = (p, i, is_face)
            if key not in gatherers:
                codes, acts = face(p, i) if is_face else degeneracy(p, i)
                gatherers[key] = (codes, acts, _gatherer(codes))
            return gatherers[key]

        def fails(f, g):
            return not _same_map(f, g, e)

        p = level
        if p >= 2:
            for j in range(p + 1):
                for i in range(j):
                    if fails(_compose(face(p - 1, i), inner(p, j, True), table),
                             _compose(face(p - 1, j - 1), inner(p, i, True), table)):
                        raise InvalidAction(
                            f"simplicial identity d_{i} d_{j} failed at level {p}")
            p = level - 2
            for j in range(p + 1):
                for i in range(j + 1):
                    if fails(_compose(degeneracy(p + 1, i), inner(p, j, False), table),
                             _compose(degeneracy(p + 1, j + 1), inner(p, i, False), table)):
                        raise InvalidAction(
                            f"simplicial identity s_{i} s_{j} failed at level {p}")
        p = level - 1
        identity = (tuple(range(self.tuple_counts[p])), None)
        for j in range(p + 1):
            s_j = inner(p, j, False)
            for i in range(p + 2):
                got = _compose(face(p + 1, i), s_j, table)
                if i < j:
                    want = _compose(degeneracy(p - 1, j - 1), inner(p, i, True), table)
                elif i in (j, j + 1):
                    want = identity
                else:
                    want = _compose(degeneracy(p - 1, j), inner(p, i - 1, True), table)
                if fails(got, want):
                    raise InvalidAction(
                        f"simplicial identity d_{i} s_{j} failed at level {p}")
            # s_j is the inner map of no later relation, and its gatherer,
            # unlike a face's, holds a copy of its codes: free it
            del gatherers[(p, j, False)]

    # -- cochain matrices

    def _coface_sum(self, q, faces, rows, cols):
        """The sum of sign * d_i^* on q-cochains over (sign, face) in faces,
        a rows x cols matrix.  A face is a decorated map (codes, acts): d_i
        of tuple r of the upper level is tuple codes[r] of the lower one,
        with acts[r] acting on M (acts None: the identity acts); a code None
        (a degenerate face) contributes nothing.  The rows are summed as
        dicts and handed to IntMatrix as they are, without zeros or empty
        rows."""
        nq = self.space.ncells(q)
        perms, signs = self.act.perms, self.act.signs
        # per element: (cell, its image, orientation sign) of each q-cell
        moves = [list(zip(range(nq), perms[g][q], signs[g][q])) for g in self.group.elements()]
        store = {}
        for sign, (codes, acts) in faces:
            for r, (r2, g) in enumerate(zip(codes, acts or repeat(self.group.identity))):
                if r2 is None:
                    continue
                row0, col0 = r * nq, r2 * nq
                for c, c2, s in moves[g]:
                    row = store.get(row0 + c)
                    if row is None:
                        store[row0 + c] = {col0 + c2: sign * s}
                    else:
                        col = col0 + c2
                        row[col] = row.get(col, 0) + sign * s
        nonzero = {}
        for i, row in store.items():
            if not all(row.values()):       # faces that cancel
                row = {j: v for j, v in row.items() if v}
                if not row:
                    continue
            nonzero[i] = row
        return IntMatrix._of(rows, cols, nonzero)

    def leading_tuples(self, p, firsts):
        """The positions among the nondegenerate tuples of level p of those
        whose first entry is in firsts, in increasing order: the rows that
        vertical_matrix and horizontal_matrix keep at level p.  All of them
        for firsts None and at level 0, whose one tuple is empty; none above
        level 0 for the trivial group, which has no nondegenerate tuple there."""
        count = self.nondegenerate_counts[p]
        if firsts is None or p == 0 or not count:
            return range(count)
        e = self.group.identity
        width = count // (self.group.order - 1)
        starts = sorted((g - (g > e)) * width for g in firsts)   # g's digit, times width
        return list(chain.from_iterable(range(s, s + width) for s in starts))

    def vertical_matrix(self, p, q, firsts=None):
        """Normalized dV: C^q(level p) -> C^q(level p+1), the alternating sum
        of the face pullbacks on nondegenerate tuples.  With firsts, only
        the rows of the tuples of level p + 1 that start with an element of
        firsts (leading_tuples), in their order."""
        if p + 1 > self.P:
            return IntMatrix.zero(0, self.normalized_cells(p, q))
        faces = [((-1) ** i, face) for i, face in enumerate(self.group.normalized_bar_faces(p + 1))]
        rows = self.leading_tuples(p + 1, firsts)
        if firsts is not None:
            faces = [(sign, ([codes[r] for r in rows], acts and [acts[r] for r in rows]))
                     for sign, (codes, acts) in faces]
        return self._coface_sum(q, faces, len(rows) * self.space.ncells(q),
                                self.normalized_cells(p, q))

    def horizontal_matrix(self, p, q, firsts=None):
        """Normalized cellular cochain d: C^q(level p) -> C^{q+1}(level p),
        blockwise over nondegenerate tuples.  With firsts, only the rows of
        the tuples that start with an element of firsts (leading_tuples)."""
        cob = self.space.coboundary(q)
        rows = self.leading_tuples(p, firsts)
        return IntMatrix.from_blocks(len(rows) * cob.rows, self.nondegenerate_counts[p] * cob.cols,
                                     [(k * cob.rows, r * cob.cols, cob, 1)
                                      for k, r in enumerate(rows)])

    def full_vertical_matrix(self, p, q):
        """dV on the full cochains: the alternating sum of the face pullbacks."""
        if p + 1 > self.P:
            return IntMatrix.zero(0, self.cells(p, q))
        return self._coface_sum(
            q, [((-1) ** i, self.face_table(p + 1, i)) for i in range(p + 2)],
            self.cells(p + 1, q), self.cells(p, q))

    def full_horizontal_matrix(self, p, q):
        """Cellular cochain d on the full cochains, blockwise over all tuples."""
        cob, copies = self.space.coboundary(q), self.tuple_counts[p]
        return IntMatrix.from_blocks(copies * cob.rows, copies * cob.cols,
                                     [(t * cob.rows, t * cob.cols, cob, 1) for t in range(copies)])


# The largest bar construction a query may build, counted by bar_size and
# bar_levels: the cells of the normalized bar total complex, the tuples of
# the full tables that the simplicial-identity check tabulates, and the
# relations that it compares.  It counts every row of the top degree, though
# bar_complex builds only its generator rows: a deliberate overcount, kept
# so that the inputs it accepts stay the same.  The largest tier-1 and
# benchmark inputs need about 25 000.  Near the budget a query takes seconds
# and over a hundred megabytes: H^6 of symmetric:3 on a point needs 433 886
# (degrees 0..7, 307 of them relations) and took 5.6 s of process time and
# 133 MB max RSS through the CLI in a fresh process on a 2-core host
# (Python 3.11), of which bar_levels, the identity check of levels 0..7,
# took 1.6 s and 128 MB.  With every top row built it took 19 s and 264 MB.
# symmetric:4 on a point at degree 9 would need about 10^14.
BAR_BUDGET = 500_000


class BarComplexTooLarge(InvalidAction):
    """The bar construction of a query is over BAR_BUDGET (a failed
    precondition, like every InvalidAction)."""


def _refuse_large_table(name, order):
    """BarComplexTooLarge when a group of at least this order has over
    BAR_BUDGET table entries, as many as its bar level 2 has tuples."""
    if order * order > BAR_BUDGET:
        raise BarComplexTooLarge(
            f"{name or 'the group'} has order at least {order}: its multiplication table "
            f"has at least {order * order} entries, over the budget of {BAR_BUDGET}")


def bar_size(act: GAction, top):
    """(cells, tuples): the cells of the normalized bar total complex in
    degrees 0..top, sum over p + q <= top of (|G|-1)^p |M_q|, and the full
    tuples of levels 0..top, sum of |G|^p, that the identity check reads;
    top + 1 products and sums."""
    m = act.group.order
    upto = [0, *accumulate(act.space.cells)]  # upto[q + 1] = |M_0| + ... + |M_q|
    cells, power = 0, 1
    for p in range(top + 1):
        cells += power * upto[min(top - p, act.space.dim) + 1]
        power *= m - 1
    return cells, (m ** (top + 1) - 1) // (m - 1) if m > 1 else top + 1


def _refuse_over_budget(act: GAction, P):
    """BarComplexTooLarge when the bar complex of act in degrees 0..P, the
    identity check's tables and the relations it compares are over
    BAR_BUDGET together.  The check reads at least max(P + 1, |G|^P)
    tuples, so a P past BAR_BUDGET, or past its bit length for |G| > 1, is
    refused without the exact count.

    Level p has p(p + 1) relations d_i s_j and, from level 2 on, p(p + 1)/2
    relations d_i d_j and p(p - 1)/2 relations s_i s_j: 2 at level 1 and
    2p^2 + p above, P(P + 1)(4P + 5)/6 - 1 over levels 1..P.  Each compares
    two maps on all |G|^p tuples, so the count binds only where the tuples
    are few: the trivial group, whose levels hold one tuple each."""
    m = act.group.order
    if P >= BAR_BUDGET or (m > 1 and P > BAR_BUDGET.bit_length()):
        raise BarComplexTooLarge(
            f"{act.group.name or 'the group'} on {act.space.name or 'the space'} in degrees "
            f"0..{P}: the identity check reads at least "
            f"{f'{m}^{P}' if m > 1 else P + 1} tuples, over the budget of {BAR_BUDGET}")
    cells, tuples = bar_size(act, P)
    relations = max(P * (P + 1) * (4 * P + 5) // 6 - 1, 0)
    if cells + tuples + relations > BAR_BUDGET:
        raise BarComplexTooLarge(
            f"{act.group.name or 'the group'} on {act.space.name or 'the space'} in degrees "
            f"0..{P}: the normalized bar complex has {cells} cells and the identity check "
            f"reads {tuples} tuples and compares {relations} relations, "
            f"{cells + tuples + relations} together, over the budget of {BAR_BUDGET}")


def bar_levels(act: GAction, P) -> BarLevels:
    """The bar levels 0..P of act, refused before anything is built when
    they are over BAR_BUDGET (_refuse_over_budget)."""
    _refuse_over_budget(act, P)
    return BarLevels(act, P)


# ---------------------------------------------------------------------------
# the cellular double complex and equivariant cohomology


def cellular_double_complex(bl: BarLevels) -> DoubleComplex:
    """Bidegree (p, q) holds cellular q-cochains of G^p x M, all |G|^p
    tuples; the vertical map is the alternating sum of face pullbacks, the
    horizontal one is the cellular coboundary.  Squares commute; signs enter
    at totalization.  Its total complex is the oracle for bar_complex."""
    space = bl.space
    ranks = {}
    horiz = {}
    vert = {}
    for p in range(bl.P + 1):
        for q in range(space.dim + 1):
            ranks[(p, q)] = bl.cells(p, q)
            if q < space.dim:
                horiz[(p, q)] = bl.full_horizontal_matrix(p, q)
            if p < bl.P:
                vert[(p, q)] = bl.full_vertical_matrix(p, q)
    return DoubleComplex(bl.P, space.dim, ranks, horiz, vert)


def total_window(bl: BarLevels, n_lo, n_hi):
    """Ranks for degrees n_lo..n_hi of the normalized bar total complex and
    the differentials between them (diffs[n] for n_lo <= n < n_hi), without
    materializing bidegrees outside the window."""
    dim = bl.space.dim
    return totalize(max(n_lo, 0), n_hi, bl.P,
                    lambda p, q: bl.normalized_cells(p, q) if 0 <= q <= dim else 0,
                    bl.horizontal_matrix, bl.vertical_matrix)


def bar_complex(bl: BarLevels, top) -> IntCochainComplex:
    """The normalized bar total complex of bl in degrees 0..top, checked for
    d^2 = 0, from one totalize call: degree n < top holds
    (|G|-1)^p |M_q| cells for each p + q = n, where the full complex,
    cellular_double_complex's total, holds |G|^p |M_q|.  The two are chain
    homotopy equivalent over Z.

    Degree top holds only the rows of level 0 and of the bar tuples (Brown,
    Cohomology of Groups I.5) that start with one of the group's
    generators() (BarLevels.leading_tuples): the rank rule keeps those rows
    of each bidegree in degree top, and the blocks that land there build
    only them.  d^{top-1} on those rows has the kernel of the full one over
    Z.  Let y = D x lie in degree top, and let s be a generator.  In the
    untruncated complex D y = 0, and its component at the row
    (s, w, rest) reads y(w, rest) - y(sw, rest) + (terms on tuples that
    start with s): d_0 drops s, d_1 merges s and w, the later faces keep s
    in front, the horizontal term lies on (s, w, rest) itself, and a
    degenerate face is 0.  So if y vanishes on level 0 and on the generator
    rows, it vanishes on (sw, rest) wherever it does on (w, rest), and
    induction on the word length of w gives y = 0.  Every H^k with k < top
    is therefore that of the full complex; H^top of a truncated complex
    never was the true H^top.

    It starts at degree 0 so that its reduction can pair every cell with a
    partner one degree down: a window cut off below keeps its bottom cells,
    and the fill they cause, in the reduced complex.  total_window builds
    every row of every degree.
    """
    dim, firsts = bl.space.dim, bl.group.generators()

    def rank(p, q):
        if not 0 <= q <= dim:
            return 0
        if p + q < top:
            return bl.normalized_cells(p, q)
        return len(bl.leading_tuples(p, firsts)) * bl.space.ncells(q)

    def rows(p, q):  # a block from bidegree (p, q) lands in degree p + q + 1
        return firsts if p + q + 1 == top else None

    ranks, diffs = totalize(0, top, bl.P, rank,
                            lambda p, q: bl.horizontal_matrix(p, q, rows(p, q)),
                            lambda p, q: bl.vertical_matrix(p, q, rows(p, q)))
    return IntCochainComplex(0, [ranks[k] for k in range(top + 1)],
                             [diffs[k] for k in range(top)])


def _kept_reduction(act: GAction, top) -> IntCochainComplex:
    """bar_complex of bar_levels(act, top), reduced, for a complex kept on
    an action or a group: nothing else holds the unreduced complex, so once
    its d^2 = 0 check has passed the reduction takes over its rows instead
    of copying them (reduced_taking_rows)."""
    return reduced_taking_rows(bar_complex(bar_levels(act, top), top))


def equivariant_cohomology(act: GAction, n, coeff="Z"):
    """H^n of the normalized bar total complex (bar_complex), for a space of
    any dimension.

    coeff 'Z' gives an FgAbGroup, 'Q' the rational dimension, 'QmodZ' the
    structured (C/Z)-coefficient group via the integral answer in degrees n
    and n+1.

    The complex is GAction.reduced_bar, reaching at least degree n + 1
    (n + 2 for 'QmodZ'): for a 0-dimensional action the sum of the
    complexes its group keeps per orbit type, for any other the one kept
    on the action.  A kept complex is built, from the levels 0..n+1
    (0..n+2) that it reads, and reduced once only when none reaches that
    far.  Its top degree holds only the generator rows (bar_complex); every
    degree read lies below it.  A query over BAR_BUDGET for the whole
    action raises BarComplexTooLarge before anything is built.
    """
    if coeff not in ("Z", "Q", "QmodZ"):
        raise ValueError(f"unknown coefficient mode {coeff!r}")
    if n < 0:
        return FgAbGroup(0) if coeff == "Z" else (
            0 if coeff == "Q" else StructuredCoefGroup())
    cx = act.reduced_bar(n + 2 if coeff == "QmodZ" else n + 1)
    if coeff == "QmodZ":
        return coefficient_change(cx.cohomology(n), cx.cohomology(n + 1))
    if coeff == "Z":
        return cx.cohomology(n)
    return cx.cohomology_q_dim(n)


# ---------------------------------------------------------------------------
# group averaging contraction (over Q)


def vertical_apply(bl: BarLevels, p, q, cochain):
    """Apply the full dV to a level-p cochain given as a list of values."""
    return bl.full_vertical_matrix(p, q).apply(cochain)


def group_average(bl: BarLevels, p, q, cochain, over="Q"):
    """Integration over the group: averages out the first bar coordinate.

    Sends a level-p q-cochain to level p-1; when the input is dV-closed the
    result is a dV-preimage: dV(group_average(w)) == w exactly.  Over Z the
    division by |G| must be exact, otherwise CoefficientNotDivisible.
    """
    if p < 1:
        raise ValueError("needs a level >= 1 cochain")
    m = bl.group.order
    nq = bl.space.ncells(q)
    out = []
    for t in range(bl.tuple_counts[p - 1]):
        for c in range(nq):
            total = 0
            for g in range(m):
                t_src = g * bl.tuple_counts[p - 1] + t
                total += cochain[t_src * nq + c]
            if over == "Z":
                if total % m:
                    raise CoefficientNotDivisible(
                        f"sum {total} not divisible by |G| = {m} over Z")
                out.append(total // m)
            else:
                out.append(Fraction(total, m))
    return out
