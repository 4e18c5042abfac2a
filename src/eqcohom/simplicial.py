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
complex stays as the test oracle and for the cosimplicial helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, permutations, repeat
from operator import add

from .complexes import DoubleComplex, IntCochainComplex, totalize
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


class NotACover(Exception):
    pass


# ---------------------------------------------------------------------------
# finite groups


class FiniteGroup:
    """Multiplication table group; elements are indices 0..order-1."""

    def __init__(self, table, name=None):
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
        """Parse 'cyclic:5', 'symmetric:3', 'dihedral:4', 'quaternion:8'."""
        kind, _, arg = spec.partition(":")
        n = int(arg) if arg else None
        if n is None and kind in ("cyclic", "symmetric", "dihedral"):
            raise ValueError(f"{kind} needs an order, as in {kind}:3")
        if kind == "cyclic":
            return cls.cyclic(n)
        if kind == "symmetric":
            return cls.symmetric(n)
        if kind == "dihedral":
            return cls.dihedral(n)
        if kind == "quaternion":
            if n != 8:
                raise ValueError("only quaternion:8 is available")
            return cls.quaternion8()
        raise ValueError(f"unknown group family {spec!r}")

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

    def to_json_obj(self):
        if self.name:
            return {"name": self.name}
        return {"table": self.table}

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
    def interval(cls, k):
        """k edges, k+1 vertices: a subdivided [0, 1]."""
        bd = {}
        for i in range(k):
            bd[(i + 1, i)] = 1
            bd[(i, i)] = -1
        return cls([k + 1, k], [IntMatrix(k + 1, k, bd)], name=f"interval:{k}")

    def to_json_obj(self):
        return {"cells": self.cells, "boundaries": [b.to_json_obj() for b in self.boundaries]}

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

    def orbit_count(self):
        """Number of orbits on 0-cells."""
        return len(self._orbit_representatives())

    def _orbit_representatives(self):
        """The first 0-cell of each orbit on 0-cells, in increasing order."""
        seen = set()
        firsts = []
        for c in range(self.space.ncells(0)):
            if c not in seen:
                firsts.append(c)
                seen.update(self.perms[g][0][c] for g in self.group.elements())
        return firsts

    def orbit_stabilizers(self):
        """One action per orbit on 0-cells: the stabilizer H of the orbit's
        first 0-cell c, a subgroup of the group (FiniteGroup.subgroup), on a
        point, each element with the sign it gives c.  M's 0-cells are then
        the disjoint union of the G/H, with Z twisted by those signs, and
        Shapiro's lemma (Brown, Cohomology of Groups III.5-6) gives
        H^*_G(0-cells of M) = the sum over orbits of H^*(H) with these
        coefficients.  Orbits with equal stabilizers and signs share one
        action."""
        shared = {}
        out = []
        for c in self._orbit_representatives():
            stab = tuple(g for g in self.group.elements() if self.perms[g][0][c] == c)
            signs = tuple(self.signs[g][0][c] for g in stab)
            act = shared.get((stab, signs))
            if act is None:
                sub = self.group.subgroup(stab)
                act = shared[(stab, signs)] = GAction(
                    sub, CellComplex.point(), {h: [[0]] for h in sub.elements()},
                    {h: [[s]] for h, s in zip(sub.elements(), signs)})
            out.append(act)
        return out

    # -- stock actions

    @classmethod
    def trivial(cls, group, space):
        perms = {g: [list(range(space.ncells(d))) for d in range(space.dim + 1)]
                 for g in group.elements()}
        return cls(group, space, perms, name="trivial")

    @classmethod
    def from_generator_perms(cls, group, space, gen_perms, gen_signs=None):
        """Close generator data over the whole group by BFS on words."""
        dims = space.dim + 1
        ident = [list(range(space.ncells(d))) for d in range(dims)]
        ident_s = [[1] * space.ncells(d) for d in range(dims)]
        perms = {group.identity: ident}
        signs = {group.identity: ident_s}
        frontier = [group.identity]
        while frontier:
            nxt = []
            for g in frontier:
                for gen, gp in gen_perms.items():
                    gs = (gen_signs or {}).get(gen, [[1] * space.ncells(d) for d in range(dims)])
                    h = group.mul(gen, g)
                    if h in perms:
                        continue
                    perms[h] = [[gp[d][perms[g][d][c]] for c in range(space.ncells(d))]
                                for d in range(dims)]
                    signs[h] = [[signs[g][d][c] * gs[d][perms[g][d][c]]
                                 for c in range(space.ncells(d))] for d in range(dims)]
                    nxt.append(h)
            frontier = nxt
        if len(perms) != group.order:
            raise InvalidAction("generators do not reach the whole group")
        return cls(group, space, perms, signs)

    @classmethod
    def points_action(cls, group, k, elem_perms, name=None):
        space = CellComplex.points(k)
        perms = {g: [list(elem_perms[g])] for g in group.elements()}
        return cls(group, space, perms, name=name)

    @classmethod
    def coset_action(cls, group, subgroup_elements, name=None):
        """Left multiplication on cosets of the given subgroup; InvalidAction
        if the elements are not a subgroup."""
        sub = group._subgroup_elements(subgroup_elements)
        cosets = []
        seen = {}
        for g in group.elements():
            coset = tuple(sorted(group.mul(g, h) for h in sub))
            if coset not in seen:
                seen[coset] = len(cosets)
                cosets.append(coset)
        elem_perms = {}
        for g in group.elements():
            perm = []
            for coset in cosets:
                image = tuple(sorted(group.mul(g, x) for x in coset))
                perm.append(seen[image])
            elem_perms[g] = perm
        return cls.points_action(group, len(cosets), elem_perms,
                                 name=name or f"cosets[{len(cosets)}]")

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
        bd1 = {}
        for i in range(p):
            bd1[((i + 1) % p, i)] = bd1.get(((i + 1) % p, i), 0) + 1
            bd1[(i, i)] = bd1.get((i, i), 0) - 1
        bd2 = {(i, j): 1 for i in range(p) for j in range(p)}  # each disk wraps the circle
        bd3 = {}
        for i in range(p):
            bd3[((i + 1) % p, i)] = bd3.get(((i + 1) % p, i), 0) + 1
            bd3[(i, i)] = bd3.get((i, i), 0) - 1
        space = CellComplex([p, p, p, p],
                            [IntMatrix(p, p, bd1), IntMatrix(p, p, bd2), IntMatrix(p, p, bd3)],
                            name=f"lens-sphere:{p}")
        perms = {g: [[(c + g) % p for c in range(p)] for _ in range(4)]
                 for g in range(p)}
        return cls(group, space, perms, name=f"lens:{p}")

    def to_json_obj(self):
        return {
            "group": self.group.to_json_obj(),
            "space": self.space.to_json_obj(),
            "perms": {str(g): self.perms[g] for g in self.group.elements()},
            "signs": {str(g): self.signs[g] for g in self.group.elements()},
        }

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
    """range(s, s + width) for each s in starts, concatenated into one list;
    a start of None gives width Nones."""
    if width == 1:
        return list(starts)
    nones = (None,) * width
    return list(chain.from_iterable(nones if s is None else range(s, s + width)
                                    for s in starts))


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
    the last face.  Over the alphabet G (merge the group table) these are
    face_tuple on every tuple.
    """
    size, lower = radix ** p, radix ** (p - 1)
    faces = [(list(range(lower)) * radix, None)]        # d_0 drops g_1
    merged = [c for row in merge for c in row]
    for i in range(1, p):                                # d_i merges g_i, g_{i+1}
        width = radix ** (p - i - 1)
        starts = [None if c is None else (high * radix + c) * width
                  for high in range(radix ** (i - 1)) for c in merged]
        faces.append((_runs(starts, width), None))
    last = [0] * size                                    # d_p drops g_p, which acts
    for d in range(radix):
        last[d::radix] = range(lower)
    faces.append((last, acting * lower))
    return faces


def _degeneracy_maps(p, radix, identity):
    """The degeneracies s_0..s_p of bar level p over the alphabet G (radix
    |G|), by list arithmetic: s_i inserts the identity after g_i, and
    codes[t] is the code of s_i t at level p + 1 (degeneracy_tuple on every
    tuple)."""
    return [_runs(range(identity * width, radix ** (p + 1), radix * width), width)
            for width in (radix ** (p - i) for i in range(p + 1))]


def _compose(outer, inner, table):
    """outer after inner, for decorated maps (codes, acts) with no None
    code: inner's codes sent on by outer, and the element acting on M the
    product of outer's element after inner's, for the group table."""
    (out_codes, out_acts), (in_codes, in_acts) = outer, inner
    codes = list(map(out_codes.__getitem__, in_codes))
    if out_acts is None:
        return codes, in_acts
    firsts = map(out_acts.__getitem__, in_codes)
    if in_acts is None:
        return codes, list(firsts)
    flat = [c for row in table for c in row]        # a * |G| + b -> ab
    return codes, list(map(flat.__getitem__, map(add, map(len(table).__mul__, firsts), in_acts)))


def _same_map(f, g, identity):
    """Whether two decorated maps agree on every tuple; acts None stands for
    every element the identity."""
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
    (cells, face_pullback, full_vertical_matrix, full_horizontal_matrix)
    serve the cosimplicial helpers and the tests.
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
        self._nondegenerate = [[0]]       # level p -> its nondegenerate tuples
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

    def nondegenerate_tuples(self, p):
        """The tuples of level p with no identity entry, in increasing order."""
        m, e = self.group.order, self.group.identity
        levels = self._nondegenerate
        while len(levels) <= p:
            levels.append([t * m + g for t in levels[-1] for g in range(m) if g != e])
        return levels[p]

    def nondegenerate_face_table(self, p, i):
        """Face i of the nondegenerate tuples of level p, a decorated map
        (codes, acts): codes[r] is the position of the face of tuple r among
        the nondegenerate tuples of level p - 1, or None where the face is
        degenerate, and acts[r] acts on the M factor (acts None: the
        identity acts)."""
        return self.group.normalized_bar_faces(p)[i]

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

    def face_cell(self, p, i, q, t, c):
        t2, g = self.face_tuple(p, i, t)
        c2, sign = self.act.act_cell(g, q, c)
        return t2, c2, sign

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
        # the normalized complex does not read the full tables: free them
        self._face_tables.clear()
        self._degeneracy_tables.clear()

    def _verify_level(self, level):
        """The relations whose tables reach no higher than this level:
        d_i d_j from it, d_i s_j into it and s_i s_j two levels up into it.
        Each side is composed over every tuple as a whole list."""
        table, e = self.group.table, self.group.identity
        face = self.face_table

        def degeneracy(p, i):  # as a decorated map: nothing acts on M
            return self.degeneracy_table(p, i), None

        def fails(f, g):
            return not _same_map(f, g, e)

        p = level
        if p >= 2:
            for j in range(p + 1):
                for i in range(j):
                    if fails(_compose(face(p - 1, i), face(p, j), table),
                             _compose(face(p - 1, j - 1), face(p, i), table)):
                        raise InvalidAction(
                            f"simplicial identity d_{i} d_{j} failed at level {p}")
            p = level - 2
            for j in range(p + 1):
                for i in range(j + 1):
                    if fails(_compose(degeneracy(p + 1, i), degeneracy(p, j), table),
                             _compose(degeneracy(p + 1, j + 1), degeneracy(p, i), table)):
                        raise InvalidAction(
                            f"simplicial identity s_{i} s_{j} failed at level {p}")
        p = level - 1
        identity = (list(range(self.tuple_counts[p])), None)
        for j in range(p + 1):
            s_j = degeneracy(p, j)
            for i in range(p + 2):
                got = _compose(face(p + 1, i), s_j, table)
                if i < j:
                    want = _compose(degeneracy(p - 1, j - 1), face(p, i), table)
                elif i in (j, j + 1):
                    want = identity
                else:
                    want = _compose(degeneracy(p - 1, j), face(p, i - 1), table)
                if fails(got, want):
                    raise InvalidAction(
                        f"simplicial identity d_{i} s_{j} failed at level {p}")

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
        faces = [((-1) ** i, self.nondegenerate_face_table(p + 1, i)) for i in range(p + 2)]
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
        if firsts is None:
            return _block_diagonal(cob, self.nondegenerate_counts[p])
        rows = self.leading_tuples(p, firsts)
        return IntMatrix.from_blocks(len(rows) * cob.rows, self.nondegenerate_counts[p] * cob.cols,
                                     [(k * cob.rows, r * cob.cols, cob, 1)
                                      for k, r in enumerate(rows)])

    def full_vertical_matrix(self, p, q):
        """dV on the full cochains: the alternating sum of face_pullback(p, i, q)."""
        if p + 1 > self.P:
            return IntMatrix.zero(0, self.cells(p, q))
        return self._coface_sum(
            q, [((-1) ** i, self.face_table(p + 1, i)) for i in range(p + 2)],
            self.cells(p + 1, q), self.cells(p, q))

    def full_horizontal_matrix(self, p, q):
        """Cellular cochain d on the full cochains, blockwise over all tuples."""
        return _block_diagonal(self.space.coboundary(q), self.tuple_counts[p])

    def degeneracy_pullback(self, p, i, q):
        """sigma_i^*: C^q(level p+1) -> C^q(level p)."""
        nq = self.space.ncells(q)
        return IntMatrix(self.cells(p, q), self.cells(p + 1, q),
                         {(t * nq + c, t2 * nq + c): 1
                          for t, t2 in enumerate(self.degeneracy_table(p, i))
                          for c in range(nq)})

    def face_pullback(self, p, i, q):
        """d_i^*: C^q(level p) -> C^q(level p+1), a single face pullback."""
        return self._coface_sum(q, [(1, self.face_table(p + 1, i))],
                                self.cells(p + 1, q), self.cells(p, q))


def _block_diagonal(m: IntMatrix, copies):
    """copies copies of m down the diagonal, one per bar tuple."""
    return IntMatrix.from_blocks(copies * m.rows, copies * m.cols,
                                 [(t * m.rows, t * m.cols, m, 1) for t in range(copies)])


def bar_homotopy_complex(bl: BarLevels):
    """The finite-group degeneration of the bar-type resolution: levels are
    bar cochains, cofaces the face pullbacks, f the cellular coboundary and
    the homotopy s = 0 (the Lie algebra is zero for a finite group)."""
    from .complexes import SimplicialHomotopyCochainComplex

    space = bl.space
    grades = list(range(space.dim + 1))
    ranks = {(p, q): bl.cells(p, q) for p in range(bl.P + 1) for q in grades}
    cofaces = {}
    codegens = {}
    for p in range(bl.P):
        for i in range(p + 2):
            cofaces[(p, i)] = {q: bl.face_pullback(p, i, q) for q in grades}
        for i in range(p + 1):
            codegens[(p, i)] = {q: bl.degeneracy_pullback(p, i, q) for q in grades}
    f = {(p, q): bl.full_horizontal_matrix(p, q)
         for p in range(bl.P + 1) for q in range(space.dim)}
    return SimplicialHomotopyCochainComplex(bl.P, grades, ranks, cofaces, codegens, f, {})


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


def bar_levels(act: GAction, P) -> BarLevels:
    """The bar levels 0..P of act.  Before anything is built, raises
    BarComplexTooLarge when their bar complex in degrees 0..P, the identity
    check's tables and the relations it compares are over BAR_BUDGET
    together.  The check reads at least max(P + 1, |G|^P) tuples, so a P
    past BAR_BUDGET, or past its bit length for |G| > 1, is refused without
    the exact count.

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
                    [(0, 1, bl.horizontal_matrix, lambda p, q: 1),
                     (1, 0, bl.vertical_matrix, lambda p, q: (-1) ** q)])


def bar_complex(bl: BarLevels, top) -> IntCochainComplex:
    """The normalized bar total complex of bl in degrees 0..top, checked for
    d^2 = 0: degree n < top holds (|G|-1)^p |M_q| cells for each p + q = n,
    where the full complex, cellular_double_complex's total, holds
    |G|^p |M_q|.  The two are chain homotopy equivalent over Z.

    Degree top holds only the rows of level 0 and of the bar tuples (Brown,
    Cohomology of Groups I.5) that start with one of the group's
    generators(), and d^{top-1} on those rows has the kernel of the full
    one over Z.  Let y = D x lie in degree top, and let s be a generator.
    In the untruncated complex D y = 0, and its component at the row
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
    and the fill they cause, in the reduced complex.
    """
    ranks, diffs = total_window(bl, 0, max(top - 1, 0))
    if top == 0:
        return IntCochainComplex(0, [ranks[0]], [])
    rank, d = _top_degree(bl, top)
    return IntCochainComplex(0, [ranks[k] for k in range(top)] + [rank],
                             [diffs[k] for k in range(top - 1)] + [d])


def _top_degree(bl: BarLevels, top):
    """The rank of degree top >= 1 of the normalized bar total complex and
    d^{top-1} into it, on the rows of level 0 and of the tuples that start
    with one of the group's generators() (BarLevels.leading_tuples)."""
    dim, firsts = bl.space.dim, bl.group.generators()

    def rank(p, q):
        if not 0 <= q <= dim:
            return 0
        if p + q < top:
            return bl.normalized_cells(p, q)
        return len(bl.leading_tuples(p, firsts)) * bl.space.ncells(q)

    ranks, diffs = totalize(
        top - 1, top, bl.P, rank,
        [(0, 1, lambda p, q: bl.horizontal_matrix(p, q, firsts), lambda p, q: 1),
         (1, 0, lambda p, q: bl.vertical_matrix(p, q, firsts), lambda p, q: (-1) ** q)])
    return ranks[top], diffs[top - 1]


def equivariant_cohomology(act: GAction, n, coeff="Z"):
    """H^n of the normalized bar total complex (bar_complex), for a space of
    any dimension.

    coeff 'Z' gives an FgAbGroup, 'Q' the rational dimension, 'QmodZ' the
    structured (C/Z)-coefficient group via the integral answer in degrees n
    and n+1.

    The total complex is taken from degree 0 up to n + 1 (n + 2 for
    'QmodZ') and reduced once.  Its top degree is also its bar truncation:
    the levels built and checked against the simplicial identities are
    0..n+1 for 'Z' and 'Q' and 0..n+2 for 'QmodZ', the levels it reads.
    The top degree holds only the generator rows (bar_complex); every
    degree read lies below it.
    A query over BAR_BUDGET raises BarComplexTooLarge before any of them
    is built.
    """
    if coeff not in ("Z", "Q", "QmodZ"):
        raise ValueError(f"unknown coefficient mode {coeff!r}")
    if n < 0:
        return FgAbGroup(0) if coeff == "Z" else (
            0 if coeff == "Q" else StructuredCoefGroup())
    top = n + 2 if coeff == "QmodZ" else n + 1
    cx = bar_complex(bar_levels(act, top), top).reduced()
    if coeff == "QmodZ":
        return coefficient_change(cx.cohomology(n), cx.cohomology(n + 1), "CmodZ")
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


# ---------------------------------------------------------------------------
# simplicial covers


@dataclass
class SimplicialCover:
    """Derived covers U^(p) indexed by A^{p+1}, refining the bar levels.

    members[p][alpha] is the set of (q, t, c) cells of level p in the
    derived cover set; alpha is a (p+1)-tuple of base indices.
    """

    bl: BarLevels
    base: list           # list of subcomplexes: dict q -> frozenset of cell ids
    members: dict        # p -> {alpha: frozenset((q, t, c))}

    def index_face(self, alpha, i):
        return alpha[:i] + alpha[i + 1:]

    def index_degeneracy(self, alpha, i):
        return alpha[:i + 1] + (alpha[i],) + alpha[i + 1:]


def _subcomplex_closed(space: CellComplex, cells_by_dim):
    for q in range(1, space.dim + 1):
        faces = cells_by_dim.get(q - 1, frozenset())
        boundary_rows = space.boundary(q).transpose()  # row c: the faces of cell c
        for c in cells_by_dim.get(q, frozenset()):
            if not boundary_rows.row(c).keys() <= faces:
                return False
    return True


def simplicial_cover(bl: BarLevels, base_cover, P=None) -> SimplicialCover:
    """Derived simplicial cover of G^. x M from a base cover by subcomplexes.

    base_cover: list of dicts q -> iterable of cell indices.  The derived
    sets are U^(p)_alpha = intersections of face preimages; the index sets
    A^{p+1} with delete/double maps form a simplicial set.
    """
    if P is None:
        P = bl.P
    space = bl.space
    base = [{q: frozenset(sub.get(q, ())) for q in range(space.dim + 1)} for sub in base_cover]
    for sub in base:
        if not _subcomplex_closed(space, sub):
            raise NotACover("base cover set is not closed under the cellular boundary")
    covered = {q: set() for q in range(space.dim + 1)}
    for sub in base:
        for q, cs in sub.items():
            covered[q].update(cs)
    for q in range(space.dim + 1):
        if covered[q] != set(range(space.ncells(q))):
            raise NotACover(f"base cover misses {q}-cells")

    members = {0: {}}
    for a, sub in enumerate(base):
        cells = set()
        for q, cs in sub.items():
            for c in cs:
                cells.add((q, 0, c))
        members[0][(a,)] = frozenset(cells)

    n_base = len(base)
    for p in range(1, P + 1):
        members[p] = {}
        alphas = _tuples(n_base, p + 1)
        for alpha in alphas:
            cells = set()
            for q in range(space.dim + 1):
                for t in range(bl.tuple_counts[p]):
                    for c in range(space.ncells(q)):
                        ok = True
                        for i in range(p + 1):
                            t2, c2, _ = bl.face_cell(p, i, q, t, c)
                            beta = alpha[:i] + alpha[i + 1:]
                            if (q, t2, c2) not in members[p - 1][beta]:
                                ok = False
                                break
                        if ok:
                            cells.add((q, t, c))
            members[p][alpha] = frozenset(cells)
        union = set().union(*members[p].values()) if members[p] else set()
        expect = {(q, t, c) for q in range(space.dim + 1)
                  for t in range(bl.tuple_counts[p]) for c in range(space.ncells(q))}
        if union != expect:
            raise NotACover(f"derived cover misses cells at level {p}")
    cover = SimplicialCover(bl, base, members)
    _verify_cover_invariants(cover, P)
    return cover


def _tuples(n, length):
    out = [()]
    for _ in range(length):
        out = [t + (a,) for t in out for a in range(n)]
    return out


def _verify_cover_invariants(cover: SimplicialCover, P):
    bl = cover.bl
    for p in range(1, P + 1):
        for alpha, cells in cover.members[p].items():
            for i in range(p + 1):
                beta = cover.index_face(alpha, i)
                target = cover.members[p - 1][beta]
                for (q, t, c) in cells:
                    t2, c2, _ = bl.face_cell(p, i, q, t, c)
                    if (q, t2, c2) not in target:
                        raise NotACover(f"face {i} leaves the derived cover at level {p}")
    for p in range(P):
        for alpha, cells in cover.members[p].items():
            for i in range(p + 1):
                gamma = cover.index_degeneracy(alpha, i)
                target = cover.members[p + 1].get(gamma, frozenset())
                for (q, t, c) in cells:
                    t2 = bl.degeneracy_tuple(p, i, t)
                    if (q, t2, c) not in target:
                        raise NotACover(f"degeneracy {i} leaves the derived cover at level {p}")


def is_refinement(cover_v: SimplicialCover, cover_u: SimplicialCover, r, P=None):
    """Does V refine U via the index map r (V_b inside U_{r(b)}), compatibly
    with all face maps on derived covers?"""
    if P is None:
        P = min(max(cover_v.members), max(cover_u.members))
    for p in range(P + 1):
        for alpha, cells in cover_v.members[p].items():
            image = tuple(r[a] for a in alpha)
            if image not in cover_u.members[p]:
                return False
            if not cells <= cover_u.members[p][image]:
                return False
    return True


# ---------------------------------------------------------------------------
# functoriality: equivariant cellular maps induce maps of double complexes


@dataclass
class EquivariantCellMap:
    """Cellular map of G-spaces commuting with the action (same group)."""

    source: GAction
    target: GAction
    cell_map: list  # per dimension, list of target cell indices
    cell_sign: list = None

    def __post_init__(self):
        if self.cell_sign is None:
            self.cell_sign = [[1] * self.source.space.ncells(d)
                              for d in range(self.source.space.dim + 1)]
        src, tgt = self.source, self.target
        if src.group.table != tgt.group.table:
            raise InvalidAction("equivariant maps need the same group")
        for g in src.group.elements():
            for d in range(src.space.dim + 1):
                for c in range(src.space.ncells(d)):
                    gc, s1 = src.act_cell(g, d, c)
                    lhs = (self.cell_map[d][gc], s1 * self.cell_sign[d][gc])
                    fc = self.cell_map[d][c]
                    gfc, s2 = tgt.act_cell(g, d, fc)
                    rhs = (gfc, self.cell_sign[d][c] * s2)
                    if lhs != rhs:
                        raise InvalidAction("cell map is not equivariant")
        for d in range(1, src.space.dim + 1):
            if (tgt.space.boundary(d) @ self.chain_matrix(d)
                    != self.chain_matrix(d - 1) @ src.space.boundary(d)):
                raise InvalidAction("cell map does not commute with the boundary")

    def chain_matrix(self, d):
        n_s = self.source.space.ncells(d)
        n_t = self.target.space.ncells(d)
        return IntMatrix(n_t, n_s,
                         {(self.cell_map[d][c], c): self.cell_sign[d][c] for c in range(n_s)})

    def bar_cochain_pullback(self, p, q):
        """f^* on the normalized q-cochains of level p, from M' to M,
        blockwise over the nondegenerate tuples."""
        return _block_diagonal(self.chain_matrix(q).transpose(),
                               (self.source.group.order - 1) ** p)
