import json

import pytest

from eqcohom import linalg
from eqcohom.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_SCHEMA,
    JobSpec,
    SchemaError,
    _largest_first,
    _parse_degrees,
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


def test_coset_action_must_match_the_space(capsys):
    # cosets:0,2 of cyclic:4 acts on its 2 cosets: on circle:3 or points:3
    # it is a schema error, not H of points:2 in place of the given space
    for space in ("circle:3", "points:3", "point"):
        code, out, err = invoke(capsys, "cohomology", "--group", "cyclic:4", "--space", space,
                                "--action", "cosets:0,2", "--degrees", "0..1")
        assert code == EXIT_SCHEMA and out == "" and "acts on 2 points" in err, (space, err)
    for space in ("points:2", "two-points"):
        code, out, _ = invoke(capsys, "cohomology", "--group", "cyclic:4", "--space", space,
                              "--action", "cosets:0,2", "--degrees", "0..2")
        assert code == EXIT_OK and "summary: ℤ, 0, ℤ/2" in out, space
    # the element and subgroup checks come first and keep their exit codes
    code, _, err = invoke(capsys, "cohomology", "--group", "cyclic:4", "--space", "circle:3",
                          "--action", "cosets:0,7", "--degrees", "0")
    assert code == EXIT_SCHEMA and "must lie in" in err
    code, _, err = invoke(capsys, "cohomology", "--group", "cyclic:4", "--space", "circle:3",
                          "--action", "cosets:0,1", "--degrees", "0")
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


def test_trivial_group_at_degree_1000_exits_3_before_any_work(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a bar construction was started over the budget")

    monkeypatch.setattr(BarLevels, "__init__", no_build)
    code, out, err = invoke(capsys, "cohomology", "--group", "cyclic:1",
                            "--space", "point", "--degrees", "1000")
    # one tuple per level, but 2p^2 + p relations at level p of 0..1001
    assert code == EXIT_PRECONDITION and out == ""
    assert "0..1001" in err and "compares 670172502 relations" in err


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
    {"command": "verify", "suite": "hexagon", "group": "cyclic:2", "space": "point",
     "degrees": "3..1"},
    {"command": "cohomology", "group": "cyclic:2", "space": "point", "degrees": "3..1"},
    {"command": "cartan", "degrees": "2..0"},
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
    ("verify", "--suite", "hexagon", "--group", "cyclic:2", "--space", "point",
     "--degrees", "3..1"),
    ("cohomology", "--group", "cyclic:2", "--space", "point", "--degrees", "3..1"),
    ("cartan", "--degrees", "2..0"),
    ("cartan", "--degrees=-1..1"),
])
def test_out_of_range_degrees_are_schema_errors(capsys, argv):
    # a negative hexagon or Cartan degree or polynomial degree, a negative
    # x-bound and an empty degree range are bad input, not internal errors,
    # failed preconditions or a run that checks nothing
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


O2_PLANE = {"lie_algebra": {"dim": 1, "structure": []}, "rep": [[["0", "-1"], ["1", "0"]]],
            "finite_elements": [[[["1", "0"], ["0", "-1"]], [["-1"]]]]}
ALL_OK = "bottom_row=ok, top_row=ok, diagonal_a=ok, diagonal_b=ok"


@pytest.mark.parametrize("argv, want", [
    (("cohomology", "--group", "symmetric:3", "--space", "point", "--degrees", "0..3"),
     ["summary: ℤ, 0, ℤ/2, 0"]),
    (("diffcoh", "--group", "cyclic:3", "--space", "point", "--degree", "2"), ["Ĥ^2 = ℤ/3"]),
    (("hexagon", "--group", "cyclic:2", "--space", "two-points", "--degree", "1"),
     [f"exactness: {ALL_OK}", "squares:   left=ok, right=ok"]),
    (("verify", "--suite", "hexagon", "--group", "symmetric:3", "--space", "points:3",
      "--action", "cosets:0,1", "--degrees", "0..2"),
     [f"degree {n}: {ALL_OK}" for n in range(3)] + ["all exactness verdicts positive"]),
    (("verify", "--suite", "lens"),
     ["ĉ₁(2,1) = 1/2", "ĉ₁(3,1) = 1/3", "ĉ₁(5,2) = 2/5", "ĉ₁(7,3) = 3/7"]),
    (("verify", "--suite", "s3-table"),
     [f"H^{k}(conjugation; ℤ) = {v}" for k, v in enumerate("ℤ00ℤℤ")]
     + ["bottom row exact: True"]),
    (("chern", "--preset", "so3-vector", "--poly", "trace_power:2"),
     ["trace_power:2(so3-vector) = -2*u3^2 - 2*u2^2 - 2*u1^2"]),
    (("examples",), [f"{ex.name}: {ex.description}" for ex in bundled_examples()]),
    (("examples", "--run", "c2-two-points"), [f"exactness: {ALL_OK}"]),
    (("cartan", "--action", "rotation", "--degrees", "0..4", "--x-bound", "4"),
     [f"dim H^{n}_Cartan = {d}" for n, d in enumerate([1, 0, 1, 0, 1])]),
    (("cartan", "--action", "so3-vector", "--degrees", "0..4", "--x-bound", "2"),
     [f"dim H^{n}_Cartan = {d}" for n, d in enumerate([1, 0, 0, 0, 1])]),
    (("cartan", "--action", "O2_PLANE", "--degrees", "0..4", "--x-bound", "4"),
     [f"dim H^{n}_Cartan = {d}" for n, d in enumerate([1, 0, 0, 0, 1])]),
])
def test_no_command_runs_the_dense_rational_engine(tmp_path, capsys, monkeypatch, argv, want):
    # ranks go through rank_q, integral solutions through solve_int, and a
    # finite symmetry acts without an inverse: every answer comes out with
    # the dense Fraction elimination disabled
    def no_dense(*args):
        raise AssertionError("the dense rational engine was used")

    monkeypatch.setattr(linalg, "q_rref", no_dense)
    path = tmp_path / "o2.json"
    path.write_text(json.dumps(O2_PLANE))
    code, out, err = invoke(capsys, *[str(path) if a == "O2_PLANE" else a for a in argv])
    assert code == EXIT_OK, err
    lines = out.splitlines()
    assert all(line in lines for line in want), out


def test_every_bundled_example_runs_its_own_job(tmp_path, capsys):
    for ex in bundled_examples():
        path = tmp_path / f"{ex.name}.json"
        path.write_text(json.dumps(ex.job))
        code, job_out, err = invoke(capsys, "--job", str(path))
        assert code == EXIT_OK, (ex.name, err)
        code, out, err = invoke(capsys, "examples", "--run", ex.name)
        assert code == EXIT_OK, (ex.name, err)
        assert out == f"{ex.name}:\n{job_out}"
    # the job asks for degree 2, and degree 2 is what runs
    code, out, _ = invoke(capsys, "examples", "--run", "cp-point-diffcoh")
    assert out.splitlines() == ["cp-point-diffcoh:", "Ĥ^2 = ℤ/3"]


@pytest.mark.parametrize("argv", [
    ("cohomology", "--group", "cyclic:3", "--space", "point", "--degrees", "20000"),
    ("cohomology", "--group", "cyclic:3", "--space", "point", "--degrees", "0..1000000000"),
    ("cohomology", "--group", "cyclic:1", "--space", "point", "--degrees", "0..1000000000"),
    ("hexagon", "--group", "cyclic:3", "--space", "point", "--degree", "20000"),
    ("diffcoh", "--group", "cyclic:3", "--space", "point", "--degree", "20000"),
    ("verify", "--suite", "hexagon", "--group", "cyclic:2", "--space", "two-points",
     "--degrees", "0..1000000000"),
    ("cartan", "--degrees", "0..1000000000"),
])
def test_huge_degrees_exit_3_before_any_work(capsys, monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("a bar construction was started for a huge degree")

    monkeypatch.setattr(BarLevels, "__init__", no_build)
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_PRECONDITION and out == "" and "precondition failed" in err, err


def test_degree_ranges_are_not_lists():
    assert _parse_degrees("0..1000000000") == range(0, 1000000001)
    assert _parse_degrees("7") == range(7, 8)
    assert _largest_first(range(2, 5), lambda n: n * n) == {2: 4, 3: 9, 4: 16}
