"""The bases of invariant connections pinned byte for byte.

The random connections of the cartan_chern benchmark and of the property
suites are drawn from invariant_connection_space, so a change to its bases
changes what those measure.  connection_bases.json holds the printed bases
for the rotation of R^2, O(2) on the plane and so3 on R^3, ranks 1 and 2,
x-bounds 1 and 2, with the trivial bundle action (drho None), the identity,
and, in rank 2, diag(1, -1) per Lie basis element.  It was written by
pinned_bases().
"""

import json
from pathlib import Path

from eqcohom.cartan import LinearAction
from eqcohom.chern import invariant_connection_space

PINNED = Path(__file__).resolve().parent / "connection_bases.json"

ACTIONS = {
    "rotation": LinearAction.circle_rotation_r2(),
    "o2": LinearAction.circle_rotation_r2(finite_order=2),
    "so3": LinearAction.so3_vector_r3(),
}


def _bundle_actions(act, rank):
    dim = act.lie_algebra.dim
    out = {"none": None,
           "identity": [[[int(i == j) for j in range(rank)] for i in range(rank)]] * dim}
    if rank == 2:
        out["diag"] = [[[1, 0], [0, -1]]] * dim
    return out


def pinned_bases():
    """Every pinned basis, as JSON-ready data: one list of printed
    connection matrices per (action, rank, bound, bundle action)."""
    out = {}
    for label, act in ACTIONS.items():
        for rank in (1, 2):
            for bound in (1, 2):
                for name, drho in _bundle_actions(act, rank).items():
                    basis = invariant_connection_space(act, rank, drho=drho, x_bound=bound)
                    out[f"{label}/rank{rank}/bound{bound}/{name}"] = [
                        [[str(f) for f in row] for row in conn.entries] for conn in basis]
    return out


def test_connection_bases_match_pinned():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert pinned_bases() == pinned
