"""Worked examples shipped with the workbench.

The corpus covers the computations the package is built around: group
cohomology of cyclic groups, free circle rotations, the swap action, the
conjugation action of the 3-sphere on itself (via its two-cell bar double
complex), the flat lens bundles, the rotation-plane Cartan model and flat
representation forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import DoubleComplex, bockstein_image_matches_torsion, total_complex
from .deligne import flat_equivariant_chern_class
from .linalg import IntMatrix, coefficient_change


def s3_conjugation_double_complex() -> DoubleComplex:
    """Cellular bar double complex of the conjugation action of the 3-sphere
    on itself, with one 0-cell and one 3-cell per factor, at levels 0..6.

    Level p of the bar object is (S^3)^p x S^3; its 3-cells put the 3-cell
    in exactly one factor, giving p+1 of them, and there is a single 0-cell.
    The face maps act on 3-cells by dropping or merging factors; the last
    face conjugates, which collapses the 3-cell of the last group factor to
    the fixed point.  The resulting boundaries reproduce the known values
    d^(0) = 0 and d^(1)(a, b) = (0, 0, b) on the 3-column.
    """
    p_max = 6
    ranks = {}
    horiz = {}
    vert = {}
    for p in range(p_max + 1):
        ranks[(p, 0)] = 1
        ranks[(p, 3)] = p + 1
        for q in (1, 2):
            ranks[(p, q)] = 0

    def face_image_3cell(p_level, j, i):
        """Image of 3-cell e_i (1-based) of level p_level under face j, as a
        1-based index at level p_level - 1, or None when it collapses."""
        last = p_level + 1  # index of the M-factor cell
        if j == 0:
            return None if i == 1 else i - 1
        if j < p_level:
            if i < j:
                return i
            if i in (j, j + 1):
                return j
            return i - 1
        # last face: conjugation by the final group entry
        if i <= p_level - 1:
            return i
        if i == p_level:
            return None  # g e g^{-1} degenerates to the fixed point
        return p_level  # the M-cell maps onto the M-cell of the lower level

    for p in range(p_max):
        # 0-column: one cell per level, faces all hit it; alternating sum
        total = sum((-1) ** j for j in range(p + 2))
        vert[(p, 0)] = IntMatrix(1, 1, {(0, 0): total} if total else {})
        entries = {}
        for i in range(1, p + 3):  # 3-cells of level p+1
            for j in range(p + 2):
                img = face_image_3cell(p + 1, j, i)
                if img is None:
                    continue
                key = (i - 1, img - 1)
                entries[key] = entries.get(key, 0) + (-1) ** j
        vert[(p, 3)] = IntMatrix(p + 2, p + 1, {k: v for k, v in entries.items() if v})
    return DoubleComplex(p_max, 3, ranks, horiz, vert)


@dataclass
class BundledExample:
    """A named job: examples --run runs it through the CLI's own dispatch."""
    name: str
    description: str
    job: dict


def _run_s3_conjugation():
    """The conjugation table: checks that the closed 3-form, the 3-cell of
    level 0, is closed and equivariant (both differentials out of bidegree
    (0, 3) are zero), then reads H^0..H^4 with Z, Q and C/Z coefficients and
    the bottom row's exactness at degree 3 (bockstein_image_matches_torsion)
    off one reduction of the total complex."""
    dc = s3_conjugation_double_complex()
    if not (dc.vert(0, 3).is_zero() and dc.horiz(0, 3).is_zero()):
        raise ValueError("the 3-form of the conjugation table is not closed and equivariant")
    tot = total_complex(dc).reduced()
    h = [tot.cohomology(k) for k in range(6)]
    return {
        "integral": {k: str(h[k]) for k in range(5)},
        "rational_dims": {k: tot.cohomology_q_dim(k) for k in range(5)},
        "circle_coeff": {k: str(coefficient_change(h[k], h[k + 1])) for k in range(5)},
        "bottom_row_exact": bockstein_image_matches_torsion(tot, 3)[0],
    }


def _run_lens_family():
    return {f"({p},{q})": str(flat_equivariant_chern_class(p, q))
            for p, q in [(2, 1), (3, 1), (5, 2), (7, 3)]}


def bundled_examples():
    return [
        BundledExample(
            "cp-point",
            "group cohomology of the cyclic group of order 3 (action on a point)",
            {"command": "cohomology", "group": "cyclic:3", "space": "point",
             "degrees": "0..5", "coeff": "z"}),
        BundledExample(
            "cp-free-circle",
            "free rotation of the cyclic group of order 3 on the 3-gon circle",
            {"command": "cohomology", "group": "cyclic:3", "space": "circle:3",
             "action": "rotation", "degrees": "0..3", "coeff": "z"}),
        BundledExample(
            "c2-two-points",
            "swap action on two points: degree-1 hexagon with all verdicts",
            {"command": "hexagon", "group": "cyclic:2", "space": "two-points",
             "degree": 1}),
        BundledExample(
            "s3-conjugation",
            "conjugation action of the 3-sphere on itself: cohomology table "
            "R, 0, 0, R, R from the two-cell bar double complex",
            {"command": "verify", "suite": "s3-table"}),
        BundledExample(
            "lens-family",
            "flat weight bundles over the rotation circle: holonomy classes q/p",
            {"command": "verify", "suite": "lens"}),
        BundledExample(
            "s1-rotation-cartan",
            "Cartan model of the rotation action on the plane, degrees 0..5",
            {"command": "cartan", "action": "rotation", "degrees": "0..5",
             "x_bound": 6}),
        BundledExample(
            "flat-representation",
            "characteristic form of the flat vector-representation bundle",
            {"command": "chern", "preset": "so3-vector", "poly": "trace_power:2"}),
        BundledExample(
            "cp-point-diffcoh",
            "differential cohomology of the cyclic group of order 3 on a point",
            {"command": "diffcoh", "group": "cyclic:3", "space": "point",
             "degree": 2}),
    ]
