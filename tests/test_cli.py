import json

import pytest

from eqcohom.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_SCHEMA,
    JobSpec,
    SchemaError,
    main,
    run,
)
from eqcohom.bundled import bundled_examples
from eqcohom.simplicial import BAR_BUDGET, BarLevels


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_text_output(capsys):
    code, out, _ = invoke(capsys, "cohomology", "--group", "cyclic:3",
                          "--space", "point", "--degrees", "0..5", "--coeff", "z")
    assert code == EXIT_OK
    assert "summary: ℤ, 0, ℤ/3, 0, ℤ/3, 0" in out


def test_cohomology_json_roundtrip(capsys):
    code, out, _ = invoke(capsys, "cohomology", "--group", "cyclic:2",
                          "--space", "point", "--degrees", "0..2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["2"] == {"free_rank": 0, "torsion": [2]}
    # parse(print(x)) = x
    assert json.loads(json.dumps(payload)) == payload


def test_diffcoh_command(capsys):
    code, out, _ = invoke(capsys, "diffcoh", "--group", "cyclic:3",
                          "--space", "point", "--degree", "2")
    assert code == EXIT_OK and "ℤ/3" in out


def test_verify_hexagon_suite(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "hexagon", "--group", "cyclic:2",
                          "--space", "two-points", "--degrees", "0..2")
    assert code == EXIT_OK
    assert "all exactness verdicts positive" in out


def test_schema_errors(capsys):
    code, _, err = invoke(capsys, "cohomology", "--group", "cyclic:3",
                          "--space", "martian", "--degrees", "0..1")
    assert code == EXIT_SCHEMA and "schema error" in err
    with pytest.raises(SchemaError):
        JobSpec.from_obj({"command": "cohomology", "bogus": 1})
    with pytest.raises(SchemaError):
        JobSpec.from_obj({"command": "launch"})


def test_precondition_exit_code(capsys):
    # diffcoh on a positive-dimensional space is a math precondition failure
    code, _, err = invoke(capsys, "diffcoh", "--group", "cyclic:3",
                          "--space", "circle:3", "--degree", "1")
    assert code == EXIT_PRECONDITION and "precondition" in err
    # cosets of a set that is not a subgroup
    code, _, err = invoke(capsys, "cohomology", "--group", "cyclic:3", "--space", "point",
                          "--action", "cosets:1", "--degrees", "0")
    assert code == EXIT_PRECONDITION and "not a subgroup" in err


def test_query_over_the_bar_budget_exits_3_before_any_work(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a bar construction was started over the budget")

    monkeypatch.setattr(BarLevels, "__init__", no_build)
    code, out, err = invoke(capsys, "cohomology", "--group", "symmetric:4",
                            "--space", "point", "--degrees", "0..9")
    # H^9 reads degrees 0..10: 23^p nondegenerate tuples and 24^p tuples per level
    cells = sum(23 ** p for p in range(11))
    tuples = sum(24 ** p for p in range(11))
    assert code == EXIT_PRECONDITION and out == ""
    assert "precondition failed" in err and "0..10" in err
    assert f"{cells} cells" in err and f"{tuples} tuples" in err and str(BAR_BUDGET) in err


def test_job_file(tmp_path, capsys):
    job = {"command": "verify", "suite": "lens", "format": "json"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out, _ = invoke(capsys, "--job", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["(3,1)"] == "1/3"


def test_examples_listing_and_run(capsys):
    code, out, _ = invoke(capsys, "examples")
    assert code == EXIT_OK
    assert len(bundled_examples()) >= 7
    for ex in bundled_examples():
        assert ex.name in out
    code, out, _ = invoke(capsys, "examples", "--run", "lens-family")
    assert code == EXIT_OK and "1/3" in out


def test_cartan_and_chern_commands(capsys):
    code, out, _ = invoke(capsys, "cartan", "--action", "rotation", "--degrees", "0..2",
                          "--x-bound", "4")
    assert code == EXIT_OK and "dim H^0_Cartan = 1" in out
    code, out, _ = invoke(capsys, "chern", "--preset", "weight:3", "--poly", "chern:1")
    assert code == EXIT_OK and "3*u1" in out


def test_run_rejects_unknown_command():
    with pytest.raises(SchemaError):
        run(JobSpec("cohomology", {"group": "cyclic:3", "space": "point",
                                   "degrees": "0..1", "coeff": "bogus"}))


@pytest.mark.parametrize("job", [
    {"command": "diffcoh", "group": "cyclic:2", "space": "point"},
    {"command": "diffcoh", "group": "cyclic:2", "space": "point", "degree": "two"},
    {"command": "hexagon", "group": "cyclic:2", "space": "point"},
    {"command": "hexagon", "group": "cyclic:2", "space": "point", "degree": 1.5},
    {"command": "cohomology", "group": "cyclic:2", "space": "point", "degrees": "0..x"},
    {"command": "cohomology", "group": "cyclic:2", "space": "point", "degrees": [0, 1]},
    {"command": "cohomology", "group": "cyclic:2", "space": "point", "degrees": 1,
     "truncation": "deep"},
    {"command": "cohomology", "group": "cyclic:2", "space": "points:x", "degrees": 0},
    {"command": "cohomology", "group": "cyclic:3", "space": "circle:x", "degrees": 0},
    {"command": "cohomology", "group": "symmetric:3", "space": "point",
     "action": "cosets:0,a", "degrees": 0},
    {"command": "cartan", "degrees": "0..1", "x_bound": "six"},
    {"command": "chern", "preset": "weight:x"},
    {"command": "chern", "poly": "chern:x"},
])
def test_non_integer_inputs_are_schema_errors(tmp_path, capsys, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, _, err = invoke(capsys, "--job", str(path))
    assert code == EXIT_SCHEMA and "schema error" in err, err


def test_integer_strings_are_accepted(tmp_path, capsys):
    job = {"command": "diffcoh", "group": "cyclic:3", "space": "points:1",
           "degree": "2", "format": "json"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out, _ = invoke(capsys, "--job", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["group"]["torsion"]["torsion"] == [3]


@pytest.mark.parametrize("job", [
    {"command": "cohomology", "group": 3, "space": "point", "degrees": 0},
    {"command": "cohomology", "group": "cyclic:2", "space": 3, "degrees": 0},
    {"command": "hexagon", "group": ["cyclic:2"], "space": "point", "degree": 1},
    {"command": "chern", "preset": 3},
    {"command": "chern", "preset": None},
    {"command": "cohomology", "group": "cyclic:2", "space": "points:-1", "degrees": 0},
    {"command": "cohomology", "group": "cyclic:3", "space": "circle:0", "degrees": 0},
    {"command": "cohomology", "group": "cyclic:", "space": "point", "degrees": 0},
    {"command": "cohomology", "group": "cyclic:3", "space": "point",
     "action": "cosets:0,7", "degrees": 0},
    {"command": "chern", "poly": "foo:1"},
])
def test_malformed_names_and_counts_are_schema_errors(tmp_path, capsys, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, _, err = invoke(capsys, "--job", str(path))
    assert code == EXIT_SCHEMA and "schema error" in err, err


@pytest.mark.parametrize("argv", [
    ("hexagon", "--group", "cyclic:2", "--space", "point", "--degree", "-1"),
    ("hexagon", "--group", "cyclic:2", "--space", "point", "--degree", "-3"),
    ("verify", "--suite", "hexagon", "--group", "cyclic:2", "--space", "two-points",
     "--degrees=-1..1"),
    ("chern", "--poly", "chern:-1"),
    ("cartan", "--degrees", "0", "--x-bound", "-1"),
])
def test_out_of_range_degrees_are_schema_errors(capsys, argv):
    # a negative hexagon degree or polynomial degree and a negative x-bound
    # are bad input, not internal errors or failed preconditions
    code, _, err = invoke(capsys, *argv)
    assert code == EXIT_SCHEMA and "schema error" in err, err


def test_removed_truncation_flag_and_job_field_exit_2(tmp_path, capsys):
    # the bar truncation follows from the degrees; neither the flag nor the
    # job field that used to set it is accepted
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--group", "cyclic:2", "--space", "point",
              "--truncation", "3", "--degrees", "0..2"])
    assert exc.value.code == EXIT_SCHEMA == 2
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "cohomology", "group": "cyclic:2",
                                "space": "point", "degrees": "0..2", "truncation": 3}))
    code, _, err = invoke(capsys, "--job", str(path))
    assert code == EXIT_SCHEMA and "unknown fields" in err and "truncation" in err, err
