"""Code that only the tests reach stays out of src.

Each module of src/eqcohom is parsed with ast.  A function, class or
method (dunders aside) fails the scan when no Name or Attribute anywhere
in src reaches it, its own definition not counted, and neither the bench
scripts, the CI workflow nor the acceptance tests name it.  A helper that
only tests call belongs next to those tests (form_checks.py, form_oracle.py,
snf_oracle.py).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eqcohom"

# name -> why src keeps it although nothing in src reaches it
ALLOWED = {
    "contract_linear_field": "iota of any linear field, a reference the form tests compare against",
    "restrict_t": "the pullback at t = value, the other side of the fiber-integral homotopy",
    "face_tuple": "the per-tuple reference the face tables are tested against",
    "degeneracy_tuple": "the per-tuple reference the degeneracy tables are tested against",
    "cellular_double_complex": "the full, unnormalized double complex: the oracle for bar_complex",
    "connection_is_invariant": "the public wrapper of the combined invariance criterion",
    "reparametrized_transgression": "reworked by the Stokes check on a 2-simplex (ROADMAP)",
    "dihedral": "FiniteGroup.named reaches it through getattr(cls, kind)",
}


def _names(node):
    """Counter of the Name ids and Attribute attrs under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreached():
    """The definitions in src that nothing outside the tests reaches, sorted."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    used = sum((_names(tree) for tree in trees), Counter())
    outside = "\n".join(path.read_text() for path in [*sorted((ROOT / "bench").glob("*.py")),
                                                     ROOT / ".github/workflows/tier1.yml",
                                                     ROOT / "tests/test_acceptance.py"])
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - _names(node)[name] > 0:
                continue
            if re.search(rf"\b{re.escape(name)}\b", outside):
                continue
            found.add(name)
    return sorted(found)


def test_src_holds_no_code_only_tests_reach():
    # a name missing from the allow-list is code to move or delete; an
    # allowed name that src now reaches, or that is gone, is a stale entry
    assert unreached() == sorted(ALLOWED)
