"""Command-line front end.

Subcommands: cohomology, diffcoh, hexagon, cartan, chern, verify, examples.
Inputs are named families (cyclic:5, symmetric:3, dihedral:4, quaternion:8),
stock spaces (point, points:k, two-points, circle:k) or JSON files using the
package serialization.  Exit codes: 0 ok, 2 schema error, 3 mathematical
precondition failed, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import bundled
from .cartan import LinearAction, TruncationUnstable, cartan_cohomology_truncated
from .chern import (
    ConnectionMatrix,
    InvariantPolynomial,
    curvature,
    equivariant_characteristic_form,
    moment_map,
)
from .deligne import (
    PositiveDimensionalInput,
    differential_cohomology_zero_dim,
    hexagon,
)
from .simplicial import (
    CellComplex,
    CoefficientNotDivisible,
    FiniteGroup,
    GAction,
    InvalidAction,
    NotACover,
    equivariant_cohomology,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

_MATH_ERRORS = (PositiveDimensionalInput, InvalidAction, CoefficientNotDivisible,
                NotACover, TruncationUnstable)


class SchemaError(Exception):
    pass


_COMMANDS = ("cohomology", "diffcoh", "hexagon", "cartan", "chern", "verify", "examples")

_FIELDS = {
    "cohomology": {"command", "group", "space", "action", "degrees", "coeff", "format"},
    "diffcoh": {"command", "group", "space", "action", "degree", "format"},
    "hexagon": {"command", "group", "space", "action", "degree", "format"},
    "cartan": {"command", "action", "degrees", "x_bound", "format"},
    "chern": {"command", "preset", "poly", "format"},
    "verify": {"command", "suite", "group", "space", "action", "degrees", "format"},
    "examples": {"command", "run", "format"},
}


@dataclass
class JobSpec:
    command: str
    inputs: dict
    fmt: str = "text"

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict):
            raise SchemaError("job must be a JSON object")
        command = obj.get("command")
        if command not in _COMMANDS:
            raise SchemaError(f"unknown command {command!r}")
        unknown = set(obj) - _FIELDS[command]
        if unknown:
            raise SchemaError(f"unknown fields for {command}: {sorted(unknown)}")
        fmt = obj.get("format", "text")
        if fmt not in ("text", "json"):
            raise SchemaError(f"format must be text or json, got {fmt!r}")
        inputs = {k: v for k, v in obj.items() if k not in ("command", "format")}
        return cls(command, inputs, fmt)


def _int(value, what):
    """An integer input, given as a JSON int or a decimal string."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise SchemaError(f"{what} must be an integer, got {value!r}")


def _str(value, what):
    """A string input: SchemaError when missing or of another JSON type."""
    if value is None:
        raise SchemaError(f"missing {what}")
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string, got {value!r}")
    return value


def _load_group(spec):
    spec = _str(spec, "group")
    if spec.endswith(".json"):
        with open(spec) as fh:
            return FiniteGroup.from_json_obj(json.load(fh))
    try:
        return FiniteGroup.named(spec)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _load_space(spec):
    spec = _str(spec, "space")
    if spec.endswith(".json"):
        with open(spec) as fh:
            return CellComplex.from_json_obj(json.load(fh))
    if spec == "point":
        return CellComplex.point()
    if spec == "two-points":
        return CellComplex.points(2)
    if spec.startswith("points:"):
        k = _int(spec.split(":")[1], "points:k")
        if k < 0:
            raise SchemaError(f"points:k needs k >= 0, got {k}")
        return CellComplex.points(k)
    if spec.startswith("circle:"):
        k = _int(spec.split(":")[1], "circle:k")
        if k < 1:
            raise SchemaError(f"circle:k needs k >= 1, got {k}")
        return CellComplex.circle(k)
    raise SchemaError(f"unknown space {spec!r}")


def _build_action(inputs):
    action_spec = inputs.get("action", "auto")
    if isinstance(action_spec, str) and action_spec.endswith(".json"):
        with open(action_spec) as fh:
            return GAction.from_json_obj(json.load(fh))
    group = _load_group(inputs.get("group"))
    space = _load_space(inputs.get("space"))
    if action_spec in ("auto", None):
        if space.name == "points:2" and group.order == 2 and inputs.get("space") == "two-points":
            action_spec = "swap"
        elif space.name and space.name.startswith("circle:") and \
                group.name == f"cyclic:{space.ncells(0)}":
            action_spec = "rotation"
        else:
            action_spec = "trivial"
    if action_spec == "trivial":
        return GAction.trivial(group, space)
    if action_spec == "swap":
        if group.order != 2 or space.ncells(0) != 2 or space.dim != 0:
            raise SchemaError("swap action needs an order-2 group on two points")
        return GAction.points_action(group, 2, {group.identity: [0, 1],
                                                1 - group.identity: [1, 0]}, name="swap")
    if action_spec == "rotation":
        k = space.ncells(0)
        if group.name != f"cyclic:{k}" or space.dim != 1:
            raise SchemaError("rotation action needs cyclic:k on circle:k")
        return GAction.cyclic_rotation_circle(k)
    if isinstance(action_spec, str) and action_spec.startswith("cosets:"):
        sub = tuple(_int(x, "cosets element") for x in action_spec.split(":")[1].split(","))
        if not all(0 <= g < group.order for g in sub):
            raise SchemaError(f"cosets elements must lie in 0..{group.order - 1}, got {sub}")
        return GAction.coset_action(group, sub)
    raise SchemaError(f"unknown action {action_spec!r}")


def _parse_degrees(spec):
    if spec is None:
        raise SchemaError("missing degrees")
    if isinstance(spec, str) and ".." in spec:
        lo, _, hi = spec.partition("..")
        return list(range(_int(lo, "degrees"), _int(hi, "degrees") + 1))
    return [_int(spec, "degrees")]


def _cartan_action(spec):
    if spec in (None, "rotation"):
        return LinearAction.circle_rotation_r2()
    if spec == "so3-vector":
        return LinearAction.so3_vector_r3()
    if isinstance(spec, str) and spec.endswith(".json"):
        with open(spec) as fh:
            return LinearAction.from_json_obj(json.load(fh))
    raise SchemaError(f"unknown linear action {spec!r}")


def _largest_first(degrees, compute):
    """{n: compute(n)} in the order of degrees, computed from the largest
    degree down: an input over the bar budget (BarComplexTooLarge) fails
    before any smaller degree is computed."""
    values = {n: compute(n) for n in sorted(degrees, reverse=True)}
    return {n: values[n] for n in degrees}


def run(job: JobSpec):
    """Dispatch a validated job; returns (payload, text_lines)."""
    if job.command == "cohomology":
        act = _build_action(job.inputs)
        degrees = _parse_degrees(job.inputs.get("degrees"))
        coeff = {"z": "Z", "q": "Q", "qmodz": "QmodZ"}.get(
            str(job.inputs.get("coeff", "z")).lower())
        if coeff is None:
            raise SchemaError("coeff must be one of z, q, qmodz")
        values = _largest_first(degrees, lambda n: equivariant_cohomology(act, n, coeff))
        label = {"Z": "ℤ", "Q": "ℚ-dim", "QmodZ": "ℂ/ℤ"}[coeff]
        lines = [f"H^{n}({act.group.name or 'G'} ⋉ {act.space.name or 'M'}; {label}) = {v}"
                 for n, v in values.items()]
        lines.append("summary: " + ", ".join(str(values[n]) for n in degrees))
        return {str(n): _enc(v) for n, v in values.items()}, lines
    if job.command == "diffcoh":
        act = _build_action(job.inputs)
        n = _int(job.inputs.get("degree"), "degree")
        value = differential_cohomology_zero_dim(act, n)
        return {"degree": n, "group": _enc(value)}, [f"Ĥ^{n} = {value}"]
    if job.command == "hexagon":
        act = _build_action(job.inputs)
        n = _int(job.inputs.get("degree"), "degree")
        if n < 0:
            raise SchemaError(f"hexagon degree must be nonnegative, got {n}")
        rep = hexagon(act, n)
        return rep.to_json_obj(), rep.render_text().splitlines()
    if job.command == "cartan":
        act = _cartan_action(job.inputs.get("action"))
        degrees = _parse_degrees(job.inputs.get("degrees"))
        bound = _int(job.inputs.get("x_bound", 6), "x_bound")
        if bound < 0:
            raise SchemaError(f"x_bound must be nonnegative, got {bound}")
        out = {}
        lines = []
        for n in degrees:
            dim, saturated = cartan_cohomology_truncated(act, n, bound)
            out[str(n)] = {"dim": dim, "saturated": saturated}
            suffix = " (bound saturated)" if saturated else ""
            lines.append(f"dim H^{n}_Cartan = {dim}{suffix}")
        return out, lines
    if job.command == "chern":
        return _run_chern(job.inputs)
    if job.command == "verify":
        return _run_verify(job.inputs)
    if job.command == "examples":
        return _run_examples(job.inputs)
    raise SchemaError(f"unhandled command {job.command!r}")


def _run_chern(inputs):
    preset = _str(inputs.get("preset", "weight:1"), "preset")
    poly_spec = str(inputs.get("poly", "chern:1"))
    kind, _, arg = poly_spec.partition(":")
    kind = {"chern1": "chern", "total": "total_chern"}.get(kind, kind)
    try:
        poly = InvariantPolynomial(kind, _int(arg, "poly degree") if arg else 0)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if preset.startswith("weight:"):
        q = _int(preset.split(":")[1], "weight")
        act = LinearAction.circle_rotation_r2()
        a = ConnectionMatrix.zero(1, 1, 2)
        mu = moment_map(a, [[[q]]], act)
    elif preset == "so3-vector":
        act = LinearAction.so3_vector_r3()
        a = ConnectionMatrix.zero(3, 3, 3)
        mu = moment_map(a, act.rep, act)
    else:
        raise SchemaError(f"unknown chern preset {preset!r}")
    form = equivariant_characteristic_form(poly, curvature(a), mu)
    return {"form": str(form)}, [f"{poly_spec}({preset}) = {form}"]


def _run_verify(inputs):
    suite = inputs.get("suite")
    if suite == "hexagon":
        act = _build_action(inputs)
        degrees = _parse_degrees(inputs.get("degrees", "0..2"))
        if any(n < 0 for n in degrees):
            raise SchemaError(f"hexagon degrees must be nonnegative, got {min(degrees)}")
        reports = _largest_first(degrees, lambda n: hexagon(act, n))
        out = {}
        lines = []
        for n, rep in reports.items():
            out[str(n)] = rep.exactness
            verdicts = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in rep.exactness.items())
            lines.append(f"degree {n}: {verdicts}")
        ok = all(all(v.values()) for v in out.values())
        lines.append("all exactness verdicts positive" if ok else "FAILURES above")
        return out, lines
    if suite == "lens":
        values = bundled._run_lens_family()
        return values, [f"ĉ₁{k} = {v}" for k, v in values.items()]
    if suite == "s3-table":
        table = bundled._run_s3_conjugation()
        lines = [f"H^{k}(conjugation; ℤ) = {v}" for k, v in table["integral"].items()]
        lines.append(f"bottom row exact: {table['bottom_row_exact']}")
        return table, lines
    raise SchemaError(f"unknown verify suite {suite!r}")


def _run_examples(inputs):
    name = inputs.get("run")
    examples = bundled.bundled_examples()
    if name is None:
        out = {ex.name: ex.description for ex in examples}
        lines = [f"{ex.name}: {ex.description}" for ex in examples]
        return out, lines
    for ex in examples:
        if ex.name == name:
            result = ex.run()
            return {"name": ex.name, "result": _enc(result)}, [f"{ex.name}: {result}"]
    raise SchemaError(f"no bundled example named {name!r}")


def _enc(value):
    if hasattr(value, "to_json_obj"):
        return value.to_json_obj()
    if isinstance(value, dict):
        return {str(k): _enc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_enc(v) for v in value]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def build_parser():
    parser = argparse.ArgumentParser(prog="eqcohom",
                                     description="equivariant cohomology workbench")
    parser.add_argument("--job", help="run a JSON job file instead of flags")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("cohomology", help="equivariant cohomology of a cellular action")
    p.add_argument("--group", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--action", default="auto")
    p.add_argument("--degrees", required=True)
    p.add_argument("--coeff", default="z")
    p = sub.add_parser("diffcoh", help="differential cohomology of a 0-dimensional action")
    p.add_argument("--group", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--action", default="auto")
    p.add_argument("--degree", type=int, required=True)
    p = sub.add_parser("hexagon", help="differential-cohomology hexagon with verdicts")
    p.add_argument("--group", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--action", default="auto")
    p.add_argument("--degree", type=int, required=True)
    p = sub.add_parser("cartan", help="truncated Cartan-model cohomology")
    p.add_argument("--action", default="rotation")
    p.add_argument("--degrees", required=True)
    p.add_argument("--x-bound", dest="x_bound", type=int, default=6)
    p = sub.add_parser("chern", help="equivariant characteristic forms")
    p.add_argument("--preset", default="weight:1")
    p.add_argument("--poly", default="chern:1")
    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--group")
    p.add_argument("--space")
    p.add_argument("--action", default="auto")
    p.add_argument("--degrees")
    p = sub.add_parser("examples", help="list or run bundled examples")
    p.add_argument("--run")
    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.job:
            with open(args.job) as fh:
                job = JobSpec.from_obj(json.load(fh))
        else:
            if not args.command:
                parser.print_help()
                return EXIT_SCHEMA
            obj = {k: v for k, v in vars(args).items()
                   if k not in ("job",) and v is not None}
            obj["format"] = getattr(args, "format", "text")
            job = JobSpec.from_obj(obj)
        payload, lines = run(job)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except _MATH_ERRORS as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if job.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
