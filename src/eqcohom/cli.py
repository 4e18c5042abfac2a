"""Command-line front end.

Subcommands: cohomology, diffcoh, hexagon, cartan, chern, verify, examples,
each declared once in _COMMANDS: its string flags (x_bound is --x-bound) and
its --job fields are the same names, and run applies every default and parse.
Inputs are named families (cyclic:5, symmetric:3, dihedral:4, quaternion:8),
stock spaces (point, points:k, two-points, circle:k) or JSON files, each read
by _read_json.  Exit codes: 0 ok, 2 schema error, 3 mathematical
precondition failed, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import bundled
from .cartan import (
    CartanComplexTooLarge,
    InvalidLieAction,
    LaneOverflow,
    LinearAction,
    cartan_cohomology_range,
)
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
    equivariant_cohomology,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

_MATH_ERRORS = (PositiveDimensionalInput, InvalidAction, CoefficientNotDivisible,
                CartanComplexTooLarge, LaneOverflow, InvalidLieAction)


class SchemaError(Exception):
    pass


# command -> (help line, input fields); every command also takes format
_COMMANDS = {
    "cohomology": ("equivariant cohomology of a cellular action",
                   ("group", "space", "action", "degrees", "coeff")),
    "diffcoh": ("differential cohomology of a 0-dimensional action",
                ("group", "space", "action", "degree")),
    "hexagon": ("differential-cohomology hexagon with verdicts",
                ("group", "space", "action", "degree")),
    "cartan": ("Cartan-model cohomology by scaling weight", ("action", "degrees", "x_bound")),
    "chern": ("equivariant characteristic forms", ("preset", "poly")),
    "verify": ("run a verification suite", ("suite", "group", "space", "action", "degrees")),
    "examples": ("list or run bundled examples", ("run",)),
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
        if not isinstance(command, str) or command not in _COMMANDS:
            raise SchemaError(f"unknown command {command!r}")
        unknown = set(obj) - {"command", "format", *_COMMANDS[command][1]}
        if unknown:
            raise SchemaError(f"unknown fields for {command}: {sorted(unknown)}")
        fmt = obj.get("format", "text")
        if fmt not in ("text", "json"):
            raise SchemaError(f"format must be text or json, got {fmt!r}")
        inputs = {k: v for k, v in obj.items() if k not in ("command", "format")}
        return cls(command, inputs, fmt)


def _int(value, what):
    """An integer input, given as a JSON int or a decimal string."""
    if value is None:
        raise SchemaError(f"missing {what}")
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


def _read_json(path, reader):
    """reader(the JSON in the file at path).  SchemaError when the file cannot
    be read or decoded into an object; a failed precondition passes through."""
    try:
        with open(path) as fh:
            return reader(json.load(fh))
    except (SchemaError, *_MATH_ERRORS):
        raise
    except Exception as exc:
        raise SchemaError(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def _load_group(spec):
    spec = _str(spec, "group")
    if spec.endswith(".json"):
        return _read_json(spec, FiniteGroup.from_json_obj)
    try:
        return FiniteGroup.named(spec)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _load_space(spec):
    spec = _str(spec, "space")
    if spec.endswith(".json"):
        return _read_json(spec, CellComplex.from_json_obj)
    if spec == "point":
        return CellComplex.point()
    if spec == "two-points":
        return CellComplex.points(2)
    kind, _, arg = spec.partition(":")
    if kind in ("points", "circle"):
        k, least = _int(arg, f"{kind}:k"), int(kind == "circle")
        if k < least:
            raise SchemaError(f"{kind}:k needs k >= {least}, got {k}")
        return getattr(CellComplex, kind)(k)
    raise SchemaError(f"unknown space {spec!r}")


def _build_action(inputs):
    action_spec = inputs.get("action", "auto")
    if isinstance(action_spec, str) and action_spec.endswith(".json"):
        for name in ("group", "space"):
            if name in inputs:
                raise SchemaError(f"{name} is given beside {action_spec}, which names its own")
        return _read_json(action_spec, GAction.from_json_obj)
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
        act = GAction.coset_action(group, sub)
        index = act.space.ncells(0)
        if space.dim != 0 or space.ncells(0) != index:
            raise SchemaError(f"cosets:{','.join(map(str, sub))} acts on {index} points, "
                              f"not on {space.name or 'the given space'}")
        return act
    raise SchemaError(f"unknown action {action_spec!r}")


def _parse_degrees(spec):
    """The degrees lo..hi, or the one degree n, as a range: nothing is
    allocated per degree, and callers read its ends."""
    if spec is None:
        raise SchemaError("missing degrees")
    if isinstance(spec, str) and ".." in spec:
        lo, _, hi = spec.partition("..")
        lo, hi = _int(lo, "degrees"), _int(hi, "degrees")
        if hi < lo:
            raise SchemaError(f"empty degree range {spec!r}: {hi} < {lo}")
        return range(lo, hi + 1)
    n = _int(spec, "degrees")
    return range(n, n + 1)


def _cartan_action(spec):
    if spec in (None, "rotation"):
        return LinearAction.circle_rotation_r2()
    if spec == "so3-vector":
        return LinearAction.so3_vector_r3()
    if isinstance(spec, str) and spec.endswith(".json"):
        return _read_json(spec, LinearAction.from_json_obj)
    raise SchemaError(f"unknown linear action {spec!r}")


def _largest_first(degrees, compute):
    """{n: compute(n)} in the order of the range degrees, computed from the
    largest degree down: an input over the bar budget (BarComplexTooLarge)
    fails before any smaller degree is computed, and the bar complexes the
    largest degree builds are kept, per orbit type on the group of a
    0-dimensional action and on a positive-dimensional action itself
    (GAction.reduced_bar), so every smaller degree reads them instead of
    building its own."""
    values = {n: compute(n) for n in reversed(degrees)}
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
        if degrees[0] < 0:
            raise SchemaError(f"Cartan degrees must be nonnegative, got {degrees[0]}")
        bound = _int(job.inputs.get("x_bound", 6), "x_bound")
        if bound < 0:
            raise SchemaError(f"x_bound must be nonnegative, got {bound}")
        values = cartan_cohomology_range(act, degrees, bound)
        return ({str(n): {"dim": dim, "by_weight": by_weight}
                 for n, (dim, by_weight) in values.items()},
                [f"dim H^{n}_Cartan = {dim}" for n, (dim, _) in values.items()])
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
    suite = _str(inputs.get("suite"), "suite")
    if suite == "hexagon":
        act = _build_action(inputs)
        degrees = _parse_degrees(inputs.get("degrees", "0..2"))
        if degrees[0] < 0:
            raise SchemaError(f"hexagon degrees must be nonnegative, got {degrees[0]}")
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
            payload, lines = run(JobSpec.from_obj(ex.job))
            return {"name": ex.name, "result": payload}, [f"{ex.name}:", *lines]
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
    for command, (help_line, fields) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name in (*fields, "format"):
            p.add_argument("--" + name.replace("_", "-"))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.job:
            job = _read_json(args.job, JobSpec.from_obj)
        else:
            if not args.command:
                parser.print_help()
                return EXIT_SCHEMA
            job = JobSpec.from_obj({k: v for k, v in vars(args).items()
                                    if k != "job" and v is not None})
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
