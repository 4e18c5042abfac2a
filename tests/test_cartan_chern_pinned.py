"""Chern and Cartan outputs pinned byte for byte.

cartan_chern_forms.json holds the printed forms of transgressions,
characteristic forms and Whitney coefficients for fixed invariant
connections on the rotation of R^2, and the Cartan cohomology of the
rotation and of so3 in degrees 0..5 as [dim, by_weight].  It was written by
pinned_outputs() before the form algebra built its results without
re-validating their keys, so any change to the forms the algebra computes
shows here.
"""

import json
from pathlib import Path

from eqcohom.cartan import LinearAction, cartan_cohomology_truncated, parse_form
from eqcohom.chern import (
    ConnectionMatrix,
    InvariantPolynomial,
    curvature,
    equivariant_characteristic_form,
    moment_map,
    transgression,
    whitney_check,
)

PINNED = Path(__file__).resolve().parent / "cartan_chern_forms.json"

ROT = LinearAction.circle_rotation_r2()

# rotation-invariant one-forms f(r^2) (x1 dx1 + x2 dx2) + g(r^2) (x1 dx2 - x2 dx1)
CONNECTIONS = {
    "radial": [["x1*dx1 + x2*dx2"]],
    "angular": [["-2*x2*dx1 + 2*x1*dx2"]],
    "mixed": [["1/2*x1*dx1 + 1/2*x2*dx2 - x1^2*x2*dx1 + x1^3*dx2 - x2^3*dx1 + x1*x2^2*dx2"]],
    "diagonal": [["x1*dx2 - x2*dx1", "0"], ["0", "-1/3*x1*dx1 - 1/3*x2*dx2"]],
    "full": [["x1*dx1 + x2*dx2", "x1*dx2 - x2*dx1"],
             ["-x1*dx2 + x2*dx1", "3*x1*dx2 - 3*x2*dx1"]],
    "upper": [["0", "-3/2*x1*dx1 - 3/2*x2*dx2"], ["0", "x1*dx2 - x2*dx1"]],
}

TRANSGRESSIONS = [("radial", "angular", "chern:1"), ("angular", "mixed", "chern:1"),
                  ("diagonal", "full", "chern:1"), ("diagonal", "full", "chern:2"),
                  ("full", "upper", "chern:2"), ("upper", "diagonal", "total_chern:0")]

WHITNEY = [("radial", "mixed", [[[2]]], [[[-1]]]),
           ("angular", "full", [[[1]]], [[[2, 0], [0, -1]]]),
           ("upper", "radial", [[[0, 0], [0, 1]]], [[[-2]]]),
           ("diagonal", "full", [[[1, 0], [0, 0]]], [[[0, 0], [0, -2]]])]


def _connection(name):
    return ConnectionMatrix(len(CONNECTIONS[name]),
                            [[parse_form(text, 1, 2) for text in row]
                             for row in CONNECTIONS[name]])


def _poly(spec):
    kind, k = spec.split(":")
    return InvariantPolynomial(kind, int(k))


def _zero_drho(rank):
    return [[[0] * rank for _ in range(rank)]]


def pinned_outputs():
    """Every pinned output, as JSON-ready data."""
    out = {"transgression": [], "characteristic": [], "whitney": [], "cartan": {}}
    for name0, name1, spec in TRANSGRESSIONS:
        form = transgression(ROT, _connection(name0), _connection(name1), _poly(spec))
        out["transgression"].append([name0, name1, spec, str(form)])
    for name in CONNECTIONS:
        a = _connection(name)
        mu = moment_map(a, _zero_drho(a.rank), ROT)
        specs = [f"chern:{k}" for k in range(1, a.rank + 1)] + ["total_chern:0",
                                                                "trace_power:2"]
        for spec in specs:
            form = equivariant_characteristic_form(_poly(spec), curvature(a), mu)
            out["characteristic"].append([name, spec, str(form)])
    for name1, name2, drho1, drho2 in WHITNEY:
        verdict = whitney_check(ROT, _connection(name1), _connection(name2), drho1, drho2)
        out["whitney"].append([name1, name2, verdict.holds,
                               [str(f) for f in verdict.sum_coefficients],
                               [str(f) for f in verdict.product_coefficients]])
    for label, act, x_bound in (("rotation", ROT, 6),
                                ("so3", LinearAction.so3_vector_r3(), 2)):
        out["cartan"][label] = [list(cartan_cohomology_truncated(act, n, x_bound))
                                for n in range(6)]
    return out


def test_cartan_and_chern_outputs_match_pinned():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(pinned_outputs())) == pinned
