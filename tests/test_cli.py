import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import degenskel
from degenskel import BasicModel, ModelDescription, PluricanonicalForm, build_complex, field
from degenskel.cli import main
from helpers import FIXTURES, random_poly, random_rigid_point


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ks_chain_vertex(capsys):
    code, out, _ = run(capsys, "ks", fx("chain_123.json"), fx("chain_form_vertex.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["strata"] == ["E3"]
    assert payload["globalWeight"] == "1/3"
    assert payload["connected"] is True
    assert payload["pseudomanifold"] is True


def test_ks_output_is_deterministic(capsys):
    first = run(capsys, "ks", fx("kulikov_k3.json"), fx("kulikov_form.json"))
    second = run(capsys, "ks", fx("kulikov_k3.json"), fx("kulikov_form.json"))
    assert first == second


def test_complex_dot(capsys):
    code, out, _ = run(capsys, "complex", fx("coordinate_planes.json"), "--dot")
    assert code == 0
    assert out.count("(N=1)") == 3
    assert out.count(" -- ") == 3
    assert "// 2-face C123: E1, E2, E3" in out


def test_complex_json_round_trips(capsys):
    code, out, _ = run(capsys, "complex", fx("star_curve.json"))
    assert code == 0
    payload = json.loads(out)
    reparsed = ModelDescription.from_dict(payload)
    original = ModelDescription.from_dict(
        json.loads((FIXTURES / "star_curve.json").read_text())
    )
    assert reparsed == original
    assert payload["dimension"] == 1
    assert payload["counts"] == {"0": 4, "1": 3}


def test_check_valid_fixture(capsys):
    code, out, _ = run(
        capsys,
        "check",
        fx("chain_123.json"),
        fx("chain_form_flat.json"),
        "--samples",
        "50",
    )
    assert code == 0
    assert "model invariants hold" in out
    assert "form invariants hold" in out
    assert "sampled points respect the weight bounds" in out


def test_check_invalid_model_exits_1(capsys):
    code, _, err = run(capsys, "check", fx("invalid_model.json"))
    assert code == 1
    assert "S1234" in err
    assert "incompatible face maps" in err


def test_check_validates_each_pair_once(capsys, monkeypatch):
    from degenskel import weight

    calls = []
    original = weight.form_problems
    monkeypatch.setattr(
        weight, "form_problems", lambda m, f: calls.append(f) or original(m, f)
    )
    code, out, _ = run(
        capsys,
        "check",
        fx("kulikov_k3.json"),
        fx("kulikov_form.json"),
        fx("kulikov_form.json"),
        "--samples",
        "50",
    )
    assert code == 0
    assert out.count("50 sampled points respect the weight bounds") == 2
    assert len(calls) == 2


def test_check_invalid_form_exits_1(capsys):
    code, _, err = run(capsys, "check", fx("chain_123.json"), fx("invalid_form.json"))
    assert code == 1
    assert "E2" in err and "horizontal" in err


def test_weight_command(capsys):
    point = json.dumps(
        {"stratum": "C12", "barycentric": {"E1": "1/2", "E2": "1/2"}}
    )
    code, out, _ = run(
        capsys, "weight", fx("chain_123.json"), fx("chain_form_flat.json"), point
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"stratum": "C12", "weight": "1", "lowerBoundOnly": False}


def test_weight_command_from_file(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(
        json.dumps({"stratum": "E3", "barycentric": {"E3": "1"}})
    )
    code, out, _ = run(
        capsys, "weight", fx("chain_123.json"), fx("chain_form_vertex.json"), str(path)
    )
    assert code == 0
    assert json.loads(out)["weight"] == "1/3"


def test_essential_command(capsys):
    code, out, _ = run(
        capsys,
        "essential",
        fx("disconnected_argmin.json"),
        fx("disconnected_form.json"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["strata"] == ["E1", "E3"]
    assert payload["connected"] is False
    assert payload["pseudomanifold"] is False
    assert payload["globalWeight"] == ["1"]


def test_flow_command(capsys):
    code, out, _ = run(capsys, "flow", "1", "1", "t/(1+t)", "1+t", "1/2", "T1+T2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "0"
    assert payload["terms"] == [
        {"i": 0, "vK": "0"},
        {"i": 1, "vK": "1"},
        {"i": 2, "vK": "1"},
    ]


def test_flow_rejects_invalid_point(capsys):
    code, _, err = run(capsys, "flow", "2", "1", "t/(1+t)", "(1+t)^2/t", "0", "T1")
    assert code == 1
    assert "negative valuation" in err
    code, _, err = run(capsys, "flow", "2", "3", "t", "1", "0", "T1")
    assert code == 1
    assert "must equal t" in err


def test_flow_command_needs_no_gcd(capsys, monkeypatch):
    # the point (t/(1+t), 1+t) and f parse and validate without a gcd (the
    # relation x1 * x2 = t is checked by cross-multiplying), while the reduced
    # coefficient c0 = (t + (1+t)^3)/(1+t)^2 of the canonical-arithmetic path
    # would need one; the CLI prints valuations only, so none is taken
    def no_gcd(a, b):
        raise AssertionError("gcd taken on the flow path")

    monkeypatch.setattr(field, "_poly_gcd", no_gcd)
    code, out, _ = run(
        capsys, "flow", "1", "1", "t/(1+t)", "1+t", "1/2", "T1/(1+t) + T2"
    )
    assert code == 0
    assert json.loads(out) == {
        "value": "0",
        "terms": [{"i": 0, "vK": "0"}, {"i": 1, "vK": "1"}, {"i": 2, "vK": "1"}],
    }


# sha256 of the stdout of every command of _flow_cli_commands(), taken
# while flow_expansion still reduced each Taylor coefficient when built
FLOW_CLI_DIGEST = "eb4a7c489c4aad0bece009215cfd8daa0910e40460672475f3affe6521b5d975"


def _flow_cli_commands() -> list[list[str]]:
    """Seeded flow commands: dense (T1+T2+c*t)^n and sparse f at random
    rigid points, each at every time of 0, 1/2, 1, 5 and inf."""
    rng = random.Random(1807)
    commands = []
    for n1, n2 in ((1, 1), (2, 1), (3, 1), (1, 2)):
        bm = BasicModel(n1, n2)
        for n in (2, 3):
            x = random_rigid_point(rng, bm)
            dense = f"(T1+T2+{rng.choice((-3, -1, 2, 5))}*t)^{n}"
            sparse = repr(random_poly(rng, 2, max_terms=5))[len("MultivariatePoly("):-1]
            for f in (dense, sparse):
                for s in ("0", "1/2", "1", "5", "inf"):
                    commands.append(["flow", str(n1), str(n2), str(x.x1), str(x.x2), s, f])
    return commands


def test_flow_cli_stdout_is_pinned(capsys):
    digest = hashlib.sha256()
    for argv in _flow_cli_commands():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == FLOW_CLI_DIGEST


def test_retract_command(capsys):
    code, out, _ = run(capsys, "retract", "1", "1", "t*(1+t)", "1/(1+t)")
    assert code == 0
    payload = json.loads(out)
    assert payload["stratum"] == "O"
    assert payload["alpha"] == {"E1": "1", "E2": "0"}
    assert payload["skeletonPoint"] == {
        "stratum": "E1",
        "barycentric": {"E1": "1"},
    }


def test_ks_output_reparses_to_equal_subcomplex(capsys):
    from degenskel import Subcomplex, build_complex, ks_skeleton
    from helpers import load_form, load_model

    model = load_model("chain_123.json")
    form = load_form("chain_form_vertex.json")
    code, out, _ = run(capsys, "ks", fx("chain_123.json"), fx("chain_form_vertex.json"))
    assert code == 0
    payload = json.loads(out)
    rebuilt = Subcomplex(build_complex(model), payload["strata"])
    assert rebuilt == ks_skeleton(model, form)
    assert Fraction(payload["globalWeight"]) == Fraction(1, 3)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["essential", fx("chain_123.json")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "complex", str(bad))
    assert code == 1
    assert "malformed JSON" in err


@pytest.mark.parametrize("point", ["{bad", '{"stratum": "C12",', " {}}"])
def test_malformed_inline_point_exits_1(capsys, point):
    code, out, err = run(
        capsys, "weight", fx("chain_123.json"), fx("chain_form_flat.json"), point
    )
    assert code == 1 and out == ""
    assert err.startswith("error: point argument: malformed JSON: ")
    assert len(err.splitlines()) == 1


NESTED_T = "(" * 200 + "t" + ")" * 200


@pytest.mark.parametrize("argv", [
    ["flow", "1", "1", "t", "1", "0", "(" * 200 + "T1" + ")" * 200],
    ["flow", "1", "1", NESTED_T, "1", "0", "T1"],
    ["retract", "1", "1", "1", NESTED_T],
])
def test_deeply_nested_expression_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: expression nested too deeply\n"


def test_moderately_nested_expression_is_accepted(capsys):
    nested = "(" * 40 + "T1" + ")" * 40
    code, out, _ = run(capsys, "flow", "1", "1", "t", "1", "0", nested)
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for argv in (
        ["complex", str(deep)],
        ["ks", fx("chain_123.json"), str(deep)],
        ["check", fx("chain_123.json"), str(deep)],
        ["weight", fx("chain_123.json"), fx("chain_form_flat.json"), str(deep)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert f"{deep}: JSON nested too deeply" in err
        assert "Traceback" not in err
    code, out, err = run(
        capsys, "weight", fx("chain_123.json"), fx("chain_form_flat.json"),
        '{"stratum": ' + "[" * 100000,
    )
    assert code == 1 and out == ""
    assert err == "error: point argument: JSON nested too deeply\n"


def test_face_list_exits_1(tmp_path, capsys):
    path = tmp_path / "faces.json"
    path.write_text(json.dumps({
        "components": [{"id": "A"}, {"id": "B"}],
        "strata": [{"id": "AB", "components": ["A", "B"], "faces": ["A"]}],
    }))
    code, _, err = run(capsys, "complex", str(path))
    assert code == 1
    assert err.startswith("error: malformed stratum entry")


def test_non_numeric_coordinate_exits_1(capsys):
    point = json.dumps({"stratum": "C12", "barycentric": {"E1": "x", "E2": "1"}})
    code, _, err = run(
        capsys, "weight", fx("coordinate_planes.json"), fx("planes_form.json"), point
    )
    assert code == 1
    assert err.startswith("error: invalid barycentric coordinate")


PAIR = {"components": [{"id": "A"}, {"id": "B"}]}
PAIR_FORM = {"m": 1, "vertical": {"A": 0, "B": 0}}


@pytest.mark.parametrize(
    "model, message",
    [
        (
            {"components": [{"id": "A", "multiplicity": True}]},
            "component A: multiplicity must be a positive integer",
        ),
        ({"components": [{"id": ["A"]}]}, "component id ['A'] is not a string"),
        (
            dict(PAIR, strata=[{"id": ["S"], "components": ["A", "B"]}]),
            "stratum id ['S'] is not a string",
        ),
        (
            dict(PAIR, strata=[{"id": "S", "components": "AB"}]),
            "stratum S: 'components' must be a JSON array of ids",
        ),
        (
            dict(PAIR, strata=[{"id": "S", "components": [["A"], "B"]}]),
            "stratum S: 'components' must be a JSON array of ids",
        ),
        (
            dict(PAIR, strata=[
                {"id": "S", "components": ["A", "B"], "faces": {"A": ["B"]}}
            ]),
            "stratum S: face targets must be ids",
        ),
        ({"components": "AA"}, "model 'components' must be a JSON array"),
        (dict(PAIR, strata="AB"), "model 'strata' must be a JSON array"),
    ],
)
def test_mistyped_model_exits_1(tmp_path, capsys, model, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "form, message",
    [
        (dict(PAIR_FORM, m=True), "pluricanonical level m must be a positive integer"),
        (dict(PAIR_FORM, horizontal="AB"), "form 'horizontal' must be a JSON array of ids"),
        (dict(PAIR_FORM, horizontal=[["S"]]), "form 'horizontal' must be a JSON array of ids"),
        (dict(PAIR_FORM, vertical="AB"), "form 'vertical' must be a JSON object"),
    ],
)
def test_mistyped_form_exits_1(tmp_path, capsys, form, message):
    model_path, form_path = tmp_path / "model.json", tmp_path / "form.json"
    model_path.write_text(json.dumps(PAIR))
    form_path.write_text(json.dumps(form))
    code, out, err = run(capsys, "check", str(model_path), str(form_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {form_path}: {message}\n"


@pytest.mark.parametrize(
    "point, message",
    [
        (
            {"stratum": "C12", "barycentric": {"E1": "inf", "E2": "0"}},
            "invalid barycentric coordinate: Invalid literal for Fraction: 'inf'",
        ),
        (
            {"stratum": ["C12"], "barycentric": {"E1": "1"}},
            "point must be a JSON object with 'stratum' and 'barycentric'",
        ),
        (
            {"stratum": "C12", "barycentric": ["E1"]},
            "point must be a JSON object with 'stratum' and 'barycentric'",
        ),
    ],
)
def test_mistyped_point_exits_1(capsys, point, message):
    code, _, err = run(
        capsys,
        "weight",
        fx("coordinate_planes.json"),
        fx("planes_form.json"),
        json.dumps(point),
    )
    assert code == 1
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "literal", ["0.30000000000000001", "0.3", "1e-400", "1.0", "5E-1"]
)
def test_json_float_coordinate_exits_1(capsys, literal):
    point = '{"stratum": "C12", "barycentric": {"E1": %s, "E2": "7/10"}}' % literal
    code, out, err = run(
        capsys, "weight", fx("chain_123.json"), fx("chain_form_flat.json"), point
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: invalid barycentric coordinate for E1: a JSON float is not exact;"
        ' write the rational as a string such as "3/10"\n'
    )


@pytest.mark.parametrize("coords", ['"3/10", "E2": "7/10"', '1, "E2": 0'])
def test_exact_coordinates_are_accepted(capsys, coords):
    # the string the float message suggests, and JSON integers
    point = '{"stratum": "C12", "barycentric": {"E1": %s}}' % coords
    code, out, _ = run(
        capsys, "weight", fx("chain_123.json"), fx("chain_form_flat.json"), point
    )
    assert code == 0
    assert json.loads(out)["stratum"] in ("C12", "E1")


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "complex", "no_such_file.json")
    assert code == 1
    assert "cannot read" in err


def test_check_names_each_bad_path_once(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}: malformed JSON: ")
    assert err.count(str(bad)) == 1
    # unreadable model and form files, with a schema problem in a third file
    missing = str(tmp_path / "missing.json")
    mistyped = tmp_path / "mistyped.json"
    mistyped.write_text(json.dumps(dict(PAIR_FORM, m=True)))
    code, out, err = run(capsys, "check", missing, missing, str(mistyped))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: cannot read {missing}: No such file or directory",
        f"error: cannot read {missing}: No such file or directory",
        f"error: {mistyped}: pluricanonical level m must be a positive integer",
    ]
    code, out, err = run(capsys, "check", fx("chain_123.json"), missing, str(bad))
    assert code == 1 and out == ""
    first, second = err.splitlines()
    assert first == f"error: cannot read {missing}: No such file or directory"
    assert second.startswith(f"error: {bad}: malformed JSON: ")
    assert second.count(str(bad)) == 1


def test_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "ks.json"
    code, out, _ = run(
        capsys,
        "ks",
        fx("chain_123.json"),
        fx("chain_form_vertex.json"),
        "-o",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["strata"] == ["E3"]


def test_non_utf8_file_exits_1(tmp_path, capsys):
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe\x00bad")
    line = f"error: {binary}: not UTF-8 (invalid start byte at byte 0)"
    code, out, err = run(capsys, "complex", str(binary))
    assert (code, out, err) == (1, "", line + "\n")
    # check names the path once and still lists the other files' problems
    mistyped = tmp_path / "mistyped.json"
    mistyped.write_text(json.dumps(dict(PAIR_FORM, m=True)))
    code, out, err = run(capsys, "check", fx("chain_123.json"), str(binary), str(mistyped))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        line,
        f"error: {mistyped}: pluricanonical level m must be a positive integer",
    ]
    assert err.count(str(binary)) == 1
    # a point file given to weight
    code, out, err = run(
        capsys, "weight", fx("chain_123.json"), fx("chain_form_flat.json"), str(binary)
    )
    assert (code, out, err) == (1, "", line + "\n")


@pytest.mark.parametrize("command", ["complex", "ks", "essential", "check"])
def test_model_without_components_exits_1(tmp_path, capsys, command):
    model = tmp_path / "empty.json"
    model.write_text(json.dumps({"components": [], "strata": []}))
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"m": 1, "vertical": {}}))
    argv = [command, str(model)] + ([] if command == "complex" else [str(form)])
    code, out, err = run(capsys, *argv)
    prefix = f"{model}: " if command == "check" else ""
    assert (code, out, err) == (1, "", f"error: {prefix}model has no components\n")


NINES = "9" * 5000


@pytest.mark.parametrize("argv", [
    ["flow", "1", "1", "t", "1", "0", NINES],
    ["flow", "1", "1", "t", "1", "0", "T1^" + NINES],
    ["retract", "1", "1", "t", NINES],
], ids=["flow-literal", "flow-exponent", "retract"])
def test_overlong_integer_literal_exits_1(capsys, argv):
    # past the digit limit of int(), which raises a plain ValueError
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: integer literal of 5000 digits is too long\n")


def test_overlong_json_integer_exits_1(tmp_path, capsys):
    model = tmp_path / "big.json"
    model.write_text(
        '{"components": [{"id": "E1", "multiplicity": ' + NINES + '}], "strata": []}'
    )
    point = '{"stratum": "E1", "barycentric": {"E1": ' + NINES + "}}"
    for argv, source in (
        (["complex", str(model)], str(model)),
        (["check", str(model)], str(model)),
        (["weight", fx("chain_123.json"), fx("chain_form_flat.json"), point],
         "point argument"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {source}: malformed JSON: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_weight_past_the_digit_limit_exits_1(tmp_path, capsys):
    # (nu + m)/N = 10^4300 loads, but has one digit more than int() may print
    model = tmp_path / "one.json"
    model.write_text(json.dumps({"components": [{"id": "E1"}], "strata": []}))
    form = tmp_path / "huge.json"
    form.write_text('{"m": 1, "vertical": {"E1": ' + "9" * 4300 + "}}")
    point = '{"stratum": "E1", "barycentric": {"E1": 1}}'
    for argv in (["weight", str(model), str(form), point], ["ks", str(model), str(form)]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: rational of 4301 digits is too long to print\n")


def test_out_of_range_variable_is_quoted_at_most_80_characters(capsys):
    token = "T" + "9" * 4000
    code, out, err = run(capsys, "flow", "1", "1", "t", "1", "0", token)
    line = f"error: variable {token[:77]}... out of range: expression has arity 2\n"
    assert (code, out, err) == (1, "", line)


def _run_in_the_c_locale(*argv):
    # with UTF-8 mode and locale coercion off, the locale's encoding is ASCII
    env = dict(
        os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
        PYTHONPATH=str(Path(degenskel.__file__).resolve().parent.parent),
    )
    return subprocess.run(
        [sys.executable, "-m", "degenskel.cli", *argv],
        capture_output=True, env=env, timeout=60,
    )


ACCENTED = {"components": [{"id": "E\u00e9", "multiplicity": 1}], "strata": []}


def test_output_file_is_utf8_in_the_c_locale(tmp_path):
    model = tmp_path / "accent.json"
    model.write_text(json.dumps(ACCENTED), encoding="utf-8")
    out = tmp_path / "out.dot"
    proc = _run_in_the_c_locale("complex", str(model), "--dot", "-o", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    dot = build_complex(ModelDescription.from_dict(ACCENTED)).to_dot()
    assert out.read_bytes() == dot.encode("utf-8")
    assert '"E\u00e9"'.encode("utf-8") in out.read_bytes()


def test_stdout_is_utf8_in_the_c_locale(tmp_path):
    model = tmp_path / "accent.json"
    model.write_text(json.dumps(ACCENTED), encoding="utf-8")
    proc = _run_in_the_c_locale("complex", str(model), "--dot")
    assert (proc.returncode, proc.stderr) == (0, b"")
    dot = build_complex(ModelDescription.from_dict(ACCENTED)).to_dot()
    assert proc.stdout == dot.encode("utf-8")
    assert '"E\u00e9"'.encode("utf-8") in proc.stdout


# a JSON escape decodes to a lone surrogate, which UTF-8 cannot encode
SURROGATE_COMPONENT = {"components": [{"id": "E\ud800", "multiplicity": 1}], "strata": []}
SURROGATE_STRATUM = {
    "components": [{"id": "E1", "multiplicity": 1}, {"id": "E2", "multiplicity": 1}],
    "strata": [{"id": "C\udfff", "components": ["E1", "E2"]}],
}


@pytest.mark.parametrize("data, line, to_file", [
    (SURROGATE_COMPONENT, r"error: component id 'E\ud800' is not valid UTF-8", False),
    (SURROGATE_COMPONENT, r"error: component id 'E\ud800' is not valid UTF-8", True),
    (SURROGATE_STRATUM, r"error: stratum id 'C\udfff' is not valid UTF-8", False),
], ids=["component-stdout", "component-file", "stratum-stdout"])
def test_lone_surrogate_id_exits_1(tmp_path, capsys, data, line, to_file):
    model = tmp_path / "surrogate.json"
    model.write_text(json.dumps(data), encoding="utf-8")
    assert "\\u" in model.read_text(encoding="utf-8")
    out_path = tmp_path / "out.dot"
    argv = ["complex", str(model), "--dot"] + (["-o", str(out_path)] if to_file else [])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", line + "\n")
    assert not out_path.exists()
