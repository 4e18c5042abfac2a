"""The simplicial bar object G^. x M for a finite group acting cellularly.

Level p carries |G|^p copies of the cell structure of M (the group factors
are discrete, so q-cells are (p-tuple, q-cell of M) pairs).  Face maps drop
the first entry, multiply adjacent entries, or act on M with the last entry;
degeneracies insert the identity.  The cellular cochain double complex of
this object computes equivariant cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

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

    def subgroups(self):
        """All subgroups, as sorted element tuples (fine for order <= 24)."""
        from itertools import combinations
        found = set()
        rest = [g for g in range(self.order) if g != self.identity]
        for r in range(len(rest) + 1):
            for extra in combinations(rest, r):
                cand = {self.identity, *extra}
                if all(self.table[a][b] in cand for a in cand for b in cand):
                    found.add(tuple(sorted(cand)))
        return sorted(found, key=lambda s: (len(s), s))

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
            if not (self.boundaries[d] @ self.boundaries[d + 1]).is_zero():
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
        seen = set()
        orbits = 0
        for c in range(self.space.ncells(0)):
            if c in seen:
                continue
            orbits += 1
            for g in self.group.elements():
                seen.add(self.perms[g][0][c])
        return orbits

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
        sub = sorted(subgroup_elements)
        if not sub or not all(0 <= g < group.order for g in sub) \
                or any(group.mul(a, b) not in sub for a in sub for b in sub):
            raise InvalidAction(f"{sub} is not a subgroup of {group.name or 'the group'}")
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


class BarLevels:
    """Levels 0..P of G^p x M with face/degeneracy maps as cellular maps.

    Tuples (g_1, ..., g_p) are encoded with g_1 most significant:
    t = g_1 m^{p-1} + ... + g_p where m = |G|.  A q-cell of level p is the
    pair (t, c), flattened as t * ncells(q) + c.
    """

    def __init__(self, act: GAction, P, verify=True):
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
        self._face_tables = {}
        self._degeneracy_tables = {}
        if verify and P > self.group.bar_checked_level:
            self.verify_simplicial_identities()

    def face_table(self, p, i):
        """face_tuple(p, i, .) tabulated over all tuples of level p."""
        key = (p, i)
        tab = self._face_tables.get(key)
        if tab is None:
            tab = [self.face_tuple(p, i, t) for t in range(self.tuple_counts[p])]
            self._face_tables[key] = tab
        return tab

    def degeneracy_table(self, p, i):
        key = (p, i)
        tab = self._degeneracy_tables.get(key)
        if tab is None:
            tab = [self.degeneracy_tuple(p, i, t) for t in range(self.tuple_counts[p])]
            self._degeneracy_tables[key] = tab
        return tab

    def cells(self, p, q):
        if 0 <= p <= self.P:
            return self.tuple_counts[p] * self.space.ncells(q)
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

    def _verify_level(self, level):
        """The relations whose tables reach no higher than this level:
        d_i d_j from it, d_i s_j into it and s_i s_j two levels up into it."""
        mul = self.group.mul
        e = self.group.identity
        p = level
        if p >= 2:
            faces_p = [self.face_table(p, i) for i in range(p + 1)]
            faces_lo = [self.face_table(p - 1, i) for i in range(p)]
            for j in range(p + 1):
                fj = faces_p[j]
                for i in range(j):
                    fi_lo = faces_lo[i]
                    fi = faces_p[i]
                    fj1_lo = faces_lo[j - 1]
                    for t in range(self.tuple_counts[p]):
                        tj, gj = fj[t]
                        ti, gi = fi_lo[tj]
                        ti2, gi2 = fi[t]
                        tj2, gj2 = fj1_lo[ti2]
                        if ti != tj2 or mul(gi, gj) != mul(gj2, gi2):
                            raise InvalidAction(
                                f"simplicial identity d_{i} d_{j} failed at level {p}")
            p = level - 2
            degen_p = [self.degeneracy_table(p, i) for i in range(p + 1)]
            degen_hi = [self.degeneracy_table(p + 1, i) for i in range(p + 2)]
            for j in range(p + 1):
                for i in range(j + 1):
                    dj, di = degen_p[j], degen_p[i]
                    hi_i, hi_j1 = degen_hi[i], degen_hi[j + 1]
                    for t in range(self.tuple_counts[p]):
                        if hi_i[dj[t]] != hi_j1[di[t]]:
                            raise InvalidAction(
                                f"simplicial identity s_{i} s_{j} failed at level {p}")
        p = level - 1
        degen_p = [self.degeneracy_table(p, i) for i in range(p + 1)]
        faces_hi = [self.face_table(p + 1, i) for i in range(p + 2)]
        faces_p = [self.face_table(p, i) for i in range(p + 1)] if p >= 1 else []
        degen_lo = [self.degeneracy_table(p - 1, i) for i in range(p)] if p >= 1 else []
        for j in range(p + 1):
            dj = degen_p[j]
            for i in range(p + 2):
                fhi = faces_hi[i]
                for t in range(self.tuple_counts[p]):
                    got = fhi[dj[t]]
                    if i < j:
                        t2, g2 = faces_p[i][t]
                        want = (degen_lo[j - 1][t2], g2)
                    elif i in (j, j + 1):
                        want = (t, e)
                    else:
                        t2, g2 = faces_p[i - 1][t]
                        want = (degen_lo[j][t2], g2)
                    if got != want:
                        raise InvalidAction(
                            f"simplicial identity d_{i} s_{j} failed at level {p}")

    # -- cochain matrices

    def vertical_matrix(self, p, q):
        """dV: C^q(level p) -> C^q(level p+1), alternating sum of face pullbacks."""
        if p + 1 > self.P:
            return IntMatrix.zero(0, self.cells(p, q))
        nq = self.space.ncells(q)
        entries = {}
        for i in range(p + 2):
            tab = self.face_table(p + 1, i)
            sign_i = -1 if i % 2 else 1
            for t in range(self.tuple_counts[p + 1]):
                t2, g = tab[t]
                perm = self.act.perms[g][q]
                sgns = self.act.signs[g][q]
                for c in range(nq):
                    key = (t * nq + c, t2 * nq + perm[c])
                    entries[key] = entries.get(key, 0) + sign_i * sgns[c]
        return IntMatrix(self.cells(p + 1, q), self.cells(p, q), entries)

    def horizontal_matrix(self, p, q):
        """Cellular cochain d: C^q(level p) -> C^{q+1}(level p), blockwise over tuples."""
        return _block_diagonal(self.space.coboundary(q), self.tuple_counts[p])

    def degeneracy_pullback(self, p, i, q):
        """sigma_i^*: C^q(level p+1) -> C^q(level p)."""
        nq = self.space.ncells(q)
        entries = {}
        for t in range(self.tuple_counts[p]):
            t2 = self.degeneracy_tuple(p, i, t)
            for c in range(nq):
                entries[(t * nq + c, t2 * nq + c)] = 1
        return IntMatrix(self.cells(p, q), self.cells(p + 1, q), entries)

    def face_pullback(self, p, i, q):
        """d_i^*: C^q(level p) -> C^q(level p+1), a single face pullback."""
        nq = self.space.ncells(q)
        entries = {}
        tab = self.face_table(p + 1, i)
        for t in range(self.tuple_counts[p + 1]):
            t2, g = tab[t]
            for c in range(nq):
                c2, s = self.act.act_cell(g, q, c)
                entries[(t * nq + c, t2 * nq + c2)] = s
        return IntMatrix(self.cells(p + 1, q), self.cells(p, q), entries)


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
    f = {(p, q): bl.horizontal_matrix(p, q)
         for p in range(bl.P + 1) for q in range(space.dim)}
    return SimplicialHomotopyCochainComplex(bl.P, grades, ranks, cofaces, codegens, f, {})


def bar_levels(act: GAction, P, verify=True) -> BarLevels:
    return BarLevels(act, P, verify=verify)


# ---------------------------------------------------------------------------
# the cellular double complex and equivariant cohomology


def cellular_double_complex(bl: BarLevels) -> DoubleComplex:
    """Bidegree (p, q) holds cellular q-cochains of G^p x M; the vertical map
    is the alternating sum of face pullbacks, the horizontal one is the
    cellular coboundary.  Squares commute; signs enter at totalization."""
    space = bl.space
    ranks = {}
    horiz = {}
    vert = {}
    for p in range(bl.P + 1):
        for q in range(space.dim + 1):
            ranks[(p, q)] = bl.cells(p, q)
            if q < space.dim:
                horiz[(p, q)] = bl.horizontal_matrix(p, q)
            if p < bl.P:
                vert[(p, q)] = bl.vertical_matrix(p, q)
    return DoubleComplex(bl.P, space.dim, ranks, horiz, vert)


def total_window(bl: BarLevels, n_lo, n_hi):
    """Ranks for degrees n_lo..n_hi of the bar total complex and the
    differentials between them (diffs[n] for n_lo <= n < n_hi), without
    materializing bidegrees outside the window."""
    dim = bl.space.dim
    return totalize(max(n_lo, 0), n_hi, bl.P,
                    lambda p, q: bl.cells(p, q) if 0 <= q <= dim else 0,
                    [(0, 1, bl.horizontal_matrix, lambda p, q: 1),
                     (1, 0, bl.vertical_matrix, lambda p, q: (-1) ** q)])


def bar_complex(bl: BarLevels, top) -> IntCochainComplex:
    """The bar total complex of bl in degrees 0..top, checked for d^2 = 0.

    It starts at degree 0 so that its reduction can pair every cell with a
    partner one degree down: a window cut off below keeps its bottom cells,
    and the fill they cause, in the reduced complex.
    """
    ranks, diffs = total_window(bl, 0, top)
    return IntCochainComplex(0, [ranks[k] for k in range(top + 1)],
                             [diffs[k] for k in range(top)])


def equivariant_cohomology(act: GAction, n, coeff="Z"):
    """H^n of the bar total complex.

    coeff 'Z' gives an FgAbGroup, 'Q' the rational dimension, 'QmodZ' the
    structured (C/Z)-coefficient group via the integral answer in degrees n
    and n+1.

    The total complex is taken from degree 0 up to n + 1 (n + 2 for
    'QmodZ') and reduced once.  Its top degree is also its bar truncation:
    the levels built and checked against the simplicial identities are
    0..n+1 for 'Z' and 'Q' and 0..n+2 for 'QmodZ', the levels it reads.
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
    """Apply dV to a level-p cochain given as a list of values."""
    nq = bl.space.ncells(q)
    out = [0] * bl.cells(p + 1, q)
    for t in range(bl.tuple_counts[p + 1]):
        for i in range(p + 2):
            t2, g = bl.face_tuple(p + 1, i, t)
            sign_i = -1 if i % 2 else 1
            for c in range(nq):
                c2, s = bl.act.act_cell(g, q, c)
                out[t * nq + c] += sign_i * s * cochain[t2 * nq + c2]
    return out


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
        """f^*: C^q(G^p x M') -> C^q(G^p x M), blockwise over tuples."""
        return _block_diagonal(self.chain_matrix(q).transpose(), self.source.group.order ** p)
