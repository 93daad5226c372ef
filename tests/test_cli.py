import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fslat import algebras as A
from fslat import cli
from fslat import constructions as C
from fslat import groups as G
from fslat import quasivar as Q
from fslat.cli import hasse_dot, run
from tables import rotated_hexagon_fan


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def invoke_json(capsys, argv):
    code, out = invoke(capsys, argv)
    return code, json.loads(out)


def write_algebra(tmp_path, algebra, name="algebra.json"):
    path = tmp_path / name
    path.write_text(json.dumps(A.algebra_to_dict(algebra)))
    return str(path)


def test_group_subgroups(capsys):
    code, payload = invoke_json(capsys, ["group", "subgroups", "--orders", "2,2"])
    assert code == 0
    assert payload["count"] == 5
    assert len(payload["subgroups"]) == 5
    assert payload["subgroups"][0]["elements"] == [[0, 0]]


def test_build_then_validate_roundtrip(capsys, tmp_path):
    out = str(tmp_path / "m.json")
    code, _ = invoke(capsys, ["build", "maroti", "--orders", "4", "--subgroup", "0;2", "--out", out])
    assert code == 0
    code, payload = invoke_json(capsys, ["validate", "--algebra", out])
    assert code == 0 and payload["valid"]


def test_validate_reports_violation_with_exit_1(capsys, tmp_path):
    fan = C.maroti(G.make_group([2]), G.trivial_subgroup(G.make_group([2])))
    meet = [list(r) for r in fan.meet]
    meet[0][1] = 0
    broken = A.FSemilattice(fan.group, fan.carrier, meet, fan.action)
    path = write_algebra(tmp_path, broken)
    code, payload = invoke_json(capsys, ["validate", "--algebra", path])
    assert code == 1
    assert payload["valid"] is False
    assert payload["axiom"].startswith("meet-")
    assert payload["witness"] is not None


def test_byte_identical_reruns(capsys):
    argv = ["verify-bijection", "--orders", "2,3"]
    _, first = invoke(capsys, argv)
    _, second = invoke(capsys, argv)
    assert first == second


def test_verify_bijection_report(capsys):
    code, payload = invoke_json(capsys, ["verify-bijection", "--orders", "2,3"])
    assert code == 0
    assert payload["subgroup_count"] == 4
    assert payload["representative_count"] == 4
    assert payload["ok"] and payload["pairwise_distinct"]


def test_quasi_failure_exit_code_and_witness(capsys, tmp_path):
    te = C.two_element(G.make_group([2]))
    path = write_algebra(tmp_path, te)
    code, payload = invoke_json(capsys, ["quasi", "--algebra", path, "--qi", "g0(x)=x -> x = x^y"])
    assert code == 1
    assert payload["holds"] is False
    assert payload["witness"] == {"x": "1", "y": "0"}


def test_quasi_holds_exit_zero(capsys, tmp_path):
    fan = C.maroti(G.make_group([2]), G.trivial_subgroup(G.make_group([2])))
    path = write_algebra(tmp_path, fan)
    code, payload = invoke_json(capsys, ["quasi", "--algebra", path, "--qi", "g0(x)=x -> x = x^y"])
    assert code == 0 and payload["holds"]


def test_quasi_takes_a_space_free_value_without_premises(capsys, tmp_path, monkeypatch):
    path = write_algebra(tmp_path, C.two_element(G.make_group([2])))
    spaced = invoke(capsys, ["quasi", "--algebra", path, "--qi", "-> x = y"])
    monkeypatch.setattr(sys, "argv", ["fslat", "quasi", "--algebra", path, "--qi", "->x=y"])
    assert invoke(capsys, None) == spaced
    for argv in (["--qi", "->x=y"], ["--qi=->x=y"], ["--meta", "--qi", "->x=y"], ["--q", "->x=y"]):
        code, out = invoke(capsys, ["quasi", "--algebra", path] + argv)
        if "--meta" in argv:
            payload = json.loads(out)
            assert payload["meta"]["argv"] == ["quasi", "--algebra", path] + argv
            out = cli.dumps(payload["payload"]) + "\n"
        assert (code, out) == spaced
    assert spaced[0] == 1 and json.loads(spaced[1])["witness"] == {"x": "0", "y": "1"}
    # the value is still one quasi-identity: "->" alone after --qi is no option
    code, out = invoke(capsys, ["quasi", "--algebra", path, "--qi", "->x=y", "--qi", "->x=x"])
    assert code == 0 and json.loads(out)["quasi_identity"] == "-> x = x"
    # balpha's own --q takes an integer: "->5" is still no value for it
    [(code, _, err)] = _outcomes(capsys, [["balpha", "--alpha", "1+sqrt2", "--beta", "2", "--q", "->5"]])
    assert code == 2 and err.endswith("error: argument --q: expected one argument\n")


def test_hasse_counts(capsys, tmp_path):
    fan = C.maroti(G.make_group([4]), G.subgroup_from_elements(G.make_group([4]), [(0,), (2,)]))
    path = write_algebra(tmp_path, fan)
    code, out = invoke(capsys, ["hasse", "--algebra", path])
    assert code == 0
    nodes = [line for line in out.splitlines() if line.strip().endswith('";') and "->" not in line]
    arrows = [line for line in out.splitlines() if "->" in line]
    assert len(nodes) == 3 and len(arrows) == 2

    one = A.FSemilattice(G.make_group([2]), ("e",), ((0,),), ((0,),))
    path1 = write_algebra(tmp_path, one, "one.json")
    _, out1 = invoke(capsys, ["hasse", "--algebra", path1])
    assert "->" not in out1

    a7 = C.counterexample_a7()
    path7 = write_algebra(tmp_path, a7, "a7.json")
    _, out7 = invoke(capsys, ["hasse", "--algebra", path7])
    assert sum("->" in line for line in out7.splitlines()) == 6


def test_hasse_action_arcs_and_dot_file(capsys, tmp_path):
    fan = C.maroti(G.make_group([4]), G.subgroup_from_elements(G.make_group([4]), [(0,), (2,)]))
    path = write_algebra(tmp_path, fan)
    dot = tmp_path / "fan.dot"
    code, _ = invoke(capsys, ["hasse", "--algebra", path, "--dot", str(dot), "--actions"])
    assert code == 0
    text = dot.read_text()
    assert text == hasse_dot(fan, include_actions=True)
    assert "style=dashed" in text


def test_check_minimal(capsys, tmp_path):
    a7 = C.counterexample_a7()
    path = write_algebra(tmp_path, a7)
    code, payload = invoke_json(capsys, ["check-minimal", "--algebra", path, "--generator", "a0"])
    assert code == 1
    assert payload["minimal"] is False and payload["counterexample"] == "p"

    fan = C.maroti(G.make_group([6]), G.subgroup_from_elements(G.make_group([6]), [(0,), (3,)]))
    path2 = write_algebra(tmp_path, fan, "fan.json")
    code, payload = invoke_json(capsys, ["check-minimal", "--algebra", path2])
    assert code == 0 and payload["minimal"]


def test_unknown_generator_label_is_named_without_quotes(capsys, tmp_path):
    path = write_algebra(tmp_path, C.counterexample_a7())
    for command in ("check-minimal", "decompose", "simplicity"):
        assert run([command, "--algebra", path, "--generator", "zz"]) == 2
        assert capsys.readouterr() == ("", "error: no carrier element labeled 'zz'\n")


def test_decompose(capsys, tmp_path):
    fan = C.maroti(G.make_group([4]), G.subgroup_from_elements(G.make_group([4]), [(0,), (2,)]))
    path = write_algebra(tmp_path, fan)
    code, payload = invoke_json(capsys, ["decompose", "--algebra", path])
    assert code == 0
    assert payload["subgroup"]["elements"] == [[0], [2]]
    assert payload["factor_size"] == 1


def test_simplicity(capsys, tmp_path):
    fan = C.maroti(G.make_group([2, 2]), G.trivial_subgroup(G.make_group([2, 2])))
    path = write_algebra(tmp_path, fan)
    code, payload = invoke_json(capsys, ["simplicity", "--algebra", path])
    assert code == 0
    assert payload["simple"] and payload["congruences"] == 2


def test_simplicity_over_the_widest_group_is_quick(capsys, tmp_path):
    # six atoms in a ring over Z^16: the generators' orders multiply to
    # 648^3 * 6, about 1.6e9, while the action image has 6 elements
    path = write_algebra(tmp_path, rotated_hexagon_fan(cli.MAX_GROUP_RANK))
    start = time.perf_counter()
    code, payload = invoke_json(capsys, ["simplicity", "--algebra", path])
    assert time.perf_counter() - start < 1
    assert code == 0 and payload["simple"]
    assert payload["separating_quasi_identity"] == "x = g15(x) -> x = x ^ y"


def test_balpha(capsys):
    code, payload = invoke_json(capsys, ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3"])
    assert code == 0
    assert payload["between"] == [3, 2]
    assert payload["report"]["separates"]
    assert payload["report"]["witness"] == [0, 0]
    assert payload["report"]["alpha"]["squares"] == {"a^2": 9, "b^2*d": 8}
    assert payload["report"]["beta"]["squares"] == {"a^2": 9, "b^2*d": 12}


def test_balpha_equal_inputs_usage_error(capsys):
    code, _ = invoke(capsys, ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:2"])
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [["--samples", "-1"], ["--samples", "290"], ["--p", "3"], ["--q", "2"]],
    ids=["negative-samples", "samples-beyond-window", "p-without-q", "q-without-p"],
)
def test_balpha_bad_flags_are_usage_errors(capsys, flags):
    assert run(["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3"] + flags) == 2
    captured = capsys.readouterr()
    assert_usage_error(captured.out, captured.err)


def test_balpha_traces_the_whole_window(capsys):
    argv = ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--samples", "289"]
    code, payload = invoke_json(capsys, argv)
    assert code == 0
    points = [(m, n) for m, n, _ in payload["report"]["alpha_samples"]]
    assert len(points) == len(set(points)) == 289
    assert [(m, n) for m, n, _ in payload["report"]["beta_samples"]] == points


def test_quasi_refuses_too_many_valuations(capsys, tmp_path):
    c24 = G.make_group([24])
    path = write_algebra(tmp_path, C.maroti(c24, G.trivial_subgroup(c24)))
    names = "uvwxyz"
    qi = f"-> {'^'.join(names)} = {'^'.join(reversed(names))}"
    start = time.perf_counter()
    assert run(["quasi", "--algebra", path, "--qi", qi]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert_usage_error(captured.out, captured.err)
    assert "25^6 valuations" in captured.err
    # three variables, as in every benchmark request, still scan
    assert run(["quasi", "--algebra", path, "--qi", "-> x^y^z = z^y^x"]) == 0
    capsys.readouterr()


def test_usage_errors(capsys, tmp_path):
    assert run(["no-such-command"]) == 2
    assert run(["group", "subgroups"]) == 2  # missing --orders
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["validate", "--algebra", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert run(["validate", "--algebra", str(missing)]) == 2
    capsys.readouterr()
    # JSON nested past the interpreter's recursion limit, bare or inside an
    # otherwise valid algebra, is refused with one line
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    deep_action = tmp_path / "deep_action.json"
    algebra = A.algebra_to_dict(C.two_element(G.make_group([2])))
    deep_action.write_text(
        json.dumps(algebra).replace('"action": [', '"action": [' + "[" * 5000 + "]" * 5000 + ", ")
    )
    for path in (nested, deep_action):
        for command in ("validate", "hasse", "check-minimal"):
            assert run([command, "--algebra", str(path)]) == 2
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert captured.out == "" and len(lines) == 1, (path, command)
            assert lines[0] == f"error: {path}: JSON nests too deeply to load"


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "maroti"],
        ["build", "maroti", "--orders", "4"],
        ["build", "twisted", "--subgroup", "0;2"],
        ["build", "ak"],
        ["build", "two-element"],
    ],
)
def test_build_missing_option_is_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["build", "maroti", "--orders", "4", "--subgroup", "0;2", "--transversal", "0;1"], "--transversal"),
        (["build", "maroti", "--orders", "4", "--subgroup", "0;2", "--u", "chain2"], "--u"),
        (["build", "maroti", "--orders", "4", "--subgroup", "0;2", "--u", "trivial"], "--u"),
        (["build", "twisted", "--orders", "4", "--subgroup", "0;2", "--k", "3"], "--k"),
        (["build", "two-element", "--orders", "4", "--k", "3"], "--k"),
        (["build", "two-element", "--orders", "4", "--subgroup", "0;2"], "--subgroup"),
        (["build", "ak", "--k", "3", "--orders", "4"], "--orders"),
        (["build", "ak", "--k", "3", "--orders", "4", "--subgroup", "0;2"], "--orders or --subgroup"),
    ],
)
def test_build_unused_option_is_usage_error(capsys, argv, flags):
    # a flag the kind does not read is refused by name, never ignored
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: build {argv[1]} does not take {flags}\n")


def test_build_twisted_and_ak(capsys, tmp_path):
    code, payload = invoke_json(
        capsys,
        ["build", "twisted", "--orders", "4", "--subgroup", "0;2", "--u", "chain2"],
    )
    assert code == 0
    assert len(payload["carrier"]) == 5

    code, payload = invoke_json(capsys, ["build", "ak", "--k", "3"])
    assert code == 0
    assert payload["group"]["orders"] == [0]
    assert len(payload["carrier"]) == 4

    code, payload = invoke_json(capsys, ["build", "two-element", "--orders", "6"])
    assert code == 0 and len(payload["carrier"]) == 2


def test_build_twisted_custom_transversal(capsys):
    code, payload = invoke_json(
        capsys,
        [
            "build",
            "twisted",
            "--orders",
            "4",
            "--subgroup",
            "0;2",
            "--transversal",
            "0;3",
        ],
    )
    assert code == 0
    assert "u@3" in payload["carrier"]


@pytest.mark.parametrize("text", ["", " ", ";", " ; "], ids=["empty", "space", "semicolon", "spaced"])
@pytest.mark.parametrize(
    "option, message",
    [
        ("--subgroup", "error: a subgroup is nonempty\n"),
        ("--transversal", "error: representatives do not meet every coset exactly once\n"),
    ],
    ids=["subgroup", "transversal"],
)
def test_build_twisted_blank_element_list_is_usage_error(capsys, option, message, text):
    # a blank list names no element: the subgroup and the transversal are
    # refused alike, neither falling back to a default nor leaking a parse error
    argv = ["build", "twisted", "--orders", "4", "--subgroup", "0;2", "--transversal", "0;1"]
    argv[argv.index(option) + 1] = text
    assert run(argv) == 2
    assert capsys.readouterr() == ("", message)


def test_meta_wraps_canonical_payload(capsys):
    code, payload = invoke_json(capsys, ["group", "subgroups", "--orders", "2", "--meta"])
    assert code == 0
    assert set(payload) == {"payload", "meta"}
    assert payload["payload"]["count"] == 2


def test_meta_records_the_argv_run_parsed(capsys, monkeypatch):
    # the host process's own arguments are not the request's
    monkeypatch.setattr(sys, "argv", ["pytest", "-q", "whatever"])
    argv = ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--samples", "1", "--meta"]
    code, payload = invoke_json(capsys, argv)
    assert code == 0
    assert payload["meta"]["argv"] == argv
    monkeypatch.setattr(sys, "argv", ["fslat"] + argv)
    assert run() == 0
    assert json.loads(capsys.readouterr().out)["meta"]["argv"] == argv


@pytest.mark.parametrize(
    "argv",
    [
        ["balpha", "--alpha", "(1+-1*sqrt:5)/2", "--beta", "sqrt:2", "--samples", "289"],
        ["validate", "--algebra", "{path}"],
        ["group", "subgroups", "--orders", "2,2"],
    ],
    ids=["balpha", "invalid-algebra", "subgroups"],
)
def test_out_file_equals_stdout(capsys, tmp_path, argv):
    fan = C.maroti(G.make_group([2]), G.trivial_subgroup(G.make_group([2])))
    meet = [list(r) for r in fan.meet]
    meet[0][1] = 0
    broken = A.FSemilattice(fan.group, ("\u00e9", '"q"', "back\\slash"), meet, fan.action)
    argv = [arg.format(path=write_algebra(tmp_path, broken)) for arg in argv]
    code, out = invoke(capsys, argv)
    path = tmp_path / "out.json"
    assert run(argv + ["--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
)
# any code point, lone surrogates included, and the ones JSON escapes
_JSON_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800", "\udfff"])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(_JSON_VALUES)
def test_dumps_matches_json_dumps_indent_2(value):
    assert cli.dumps(value) == json.dumps(value, indent=2)


class _Text(str):
    pass


class _Number(int):
    pass


class _Real(float):
    pass


class _Items(list):
    pass


class _Table(dict):
    pass


def test_dumps_writes_subclasses_as_their_base_types():
    value = _Items(
        [_Text("\u00e9"), _Number(-4), _Real("nan"), _Real(2.5), (_Table({_Text("k"): 1}),)]
    )
    value.append(_Table(flag=_Number(True)))
    assert cli.dumps(value) == json.dumps(value, indent=2)


# Payload-shaped values for the writer's inline paths: dicts with scalar
# values, and lists of rows (lists and tuples of scalars, empty ones too)
# whose items may be subclasses or small list and dict subclasses.
_ROW_ITEMS = (
    _JSON_SCALARS
    | _JSON_TEXT
    | _JSON_TEXT.map(_Text)
    | st.integers().map(_Number)
    | st.floats().map(_Real)
)
_ROW_ITEMS_OR_SMALL_CONTAINERS = (
    _ROW_ITEMS
    | st.lists(_ROW_ITEMS, max_size=2).map(_Items)
    | st.dictionaries(_JSON_TEXT, _ROW_ITEMS, max_size=2).map(_Table)
)
_ROWS = st.one_of(
    st.lists(_ROW_ITEMS, max_size=4),
    st.lists(_ROW_ITEMS, max_size=4).map(tuple),
    st.lists(_ROW_ITEMS_OR_SMALL_CONTAINERS, max_size=3),
    st.lists(_ROW_ITEMS_OR_SMALL_CONTAINERS, max_size=3).map(tuple),
)
_PAYLOADS = st.recursive(
    st.dictionaries(_JSON_TEXT, _ROW_ITEMS, max_size=5) | st.lists(_ROWS, max_size=5),
    lambda inner: st.lists(inner | _ROWS, max_size=3)
    | st.lists(inner | _ROWS, max_size=3).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner | _ROW_ITEMS | _ROWS, max_size=3)
    | st.dictionaries(_JSON_TEXT, inner | _ROWS, max_size=2).map(_Table),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(_PAYLOADS)
# strings holding the row writer's patterns and JSON's escapes
@example([["],", '","', "["], ['"', "\\", "\n", " "], ["],\n    [", "],\\n    [", "\t\u00e9"]])
@example([[math.nan, math.inf], [-math.inf, 2**64, -(2**70) - 1, 10**40]])
@example((("a", 1), [2.5, None], (True, False)))
@example({"a": {"b": {"c": [[1, 2], ("x",)], "d": 1}}})
@example([[1, 2], {"k": [3, [4]]}, (5,), []])
@example([[1], ()])
def test_dumps_inline_rows_and_entries_match_json_dumps_indent_2(value):
    assert cli.dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        object(),
        [1, {"a": frozenset()}],
        {1: "int key"},
        [[1, 2], [3, {1: "int key"}]],
        [[1, 2], [3, {4}]],
        [("a",), [{5: 6}]],
        {"rows": [[1], [{7}]]},
    ],
)
def test_dumps_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        cli.dumps(value)


def test_module_entrypoint_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "fslat", "group", "subgroups", "--orders", "2,4"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 8


def _fresh_process(argv):
    """Exit code, stdout and stderr of ``python -m fslat`` on argv, in a new process."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "fslat", *argv], capture_output=True, text=True, timeout=60, env=env
    )
    return result.returncode, result.stdout, result.stderr


def test_a_rewritten_algebra_file_gets_a_fresh_process_answer(capsys, tmp_path):
    # loaded algebras are kept by content, not by path: one path holds a
    # valid fan, then that table with one entry a JSON true (== 1), then a
    # valid algebra on another table, between in-process requests
    fan = A.algebra_to_dict(C.maroti(G.make_group([6]), G.subgroup_from_elements(G.make_group([6]), [(0,), (3,)])))
    true_entry = json.loads(json.dumps(fan))
    true_entry["meet"][1][1] = True
    contents = [fan, true_entry, A.algebra_to_dict(C.counterexample_a7())]
    path = str(tmp_path / "algebra.json")
    codes = []
    for data in contents:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for command in ("check-minimal", "decompose"):
            argv = [command, "--algebra", path]
            first, second = _outcomes(capsys, [argv, argv])
            assert first == second == _fresh_process(argv)
            codes.append(first[0])
    assert codes == [0, 0, 2, 2, 1, 2]


def _parser_corpus(tmp_path):
    """Interleaved subcommands, usage errors and ``--help``, over a fan file."""
    fan = C.maroti(G.make_group([4]), G.subgroup_from_elements(G.make_group([4]), [(0,), (2,)]))
    path = write_algebra(tmp_path, fan)
    return [
        ["build", "ak", "--k", "2"],
        ["validate", "--algebra", path],
        ["no-such-command"],
        ["quasi", "--algebra", path, "--qi", "x ^ y = y -> x = y"],
        ["--help"],
        ["build", "ak"],
        ["check-minimal", "--algebra", path, "--meta"],
        ["hasse", "--algebra", path],
        ["build", "ak", "--k", "2"],
        ["group", "subgroups", "--help"],
    ]


def _outcomes(capsys, argvs):
    """Exit code, stdout and stderr of ``run`` on each argv; a ``--meta``
    payload's clock reading is dropped."""
    out = []
    for argv in argvs:
        code = run(argv)
        captured = capsys.readouterr()
        stdout = captured.out
        if '"meta"' in stdout:
            stdout = json.loads(stdout)["payload"]
        out.append((code, stdout, captured.err))
    return out


def test_run_reuses_one_parser(capsys, monkeypatch, tmp_path):
    argvs = _parser_corpus(tmp_path)
    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()
    shared = _outcomes(capsys, argvs)
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = _outcomes(capsys, argvs)
    assert [code for code, _, _ in shared] == [0, 0, 2, 1, 0, 2, 0, 0, 0, 0]
    assert shared == fresh


def test_run_parses_like_a_whole_argv_parse(capsys, monkeypatch, tmp_path):
    # ``run`` hands the words after a subcommand to that subcommand's parser;
    # the reference parses every argv whole, with the top-level ``parse_args``
    balpha = ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--samples", "2"]
    argvs = _parser_corpus(tmp_path)
    fan = argvs[1][-1]
    argvs += [
        [],
        ["-h"],
        ["balpha", "-h"],
        ["balpha", "--he"],
        ["group"],
        ["group", "-h"],
        ["group", "no-such-subcommand"],
        ["group", "subgroups", "--orders", "2", "extra"],
        ["no-such-command", "--alpha", "sqrt:2"],
        ["--alpha", "sqrt:2"],
        ["Balpha"],
        ["bal"],
        ["", "balpha"],
        balpha,
        ["balpha", "--alp", "sqrt:2", "--be", "sqrt:3", "--sam", "2"],
        ["balpha", "--alpha=sqrt:2", "--beta", "sqrt:3", "--samples=1"],
        balpha + ["extra", "words"],
        balpha + ["--unknown", "1"],
        balpha + ["--"],
        balpha + ["--", "extra"],
        ["balpha", "--", "--alpha", "sqrt:2", "--beta", "sqrt:3"],
        ["--", "balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3"],
        ["balpha", "--alpha", "sqrt:2"],
        ["balpha", "--samples", "x", "--alpha", "sqrt:2", "--beta", "sqrt:3"],
        ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--meta", "--help"],
        ["build", "nope"],
        ["build", "ak", "--k", "2", "--k", "3"],
        ["build", "ak", "ak", "--k", "2"],
        ["quasi", "--algebra", fan, "--qi", "->x=y"],
        ["quasi", "--algebra", fan, "--qi", "-> x = x"],
        ["quasi", "--algebra", fan, "--qi"],
        ["validate", "--algebra", fan, "-x"],
    ]
    dispatched = _outcomes(capsys, argvs)
    whole = cli.build_parser()
    whole.subcommands = {}  # no first word names a subcommand: every argv goes to parse_args
    monkeypatch.setattr(cli, "_shared_parser", lambda: whole)
    assert dispatched == _outcomes(capsys, argvs)


def _shape_cases():
    fan = A.algebra_to_dict(C.maroti(G.make_group([2]), G.trivial_subgroup(G.make_group([2]))))
    bool_meet = json.loads(json.dumps(fan))
    bool_meet["carrier"] = ["a", "b"]
    bool_meet["meet"] = [[False, False], [False, True]]
    bool_meet["action"] = [[0, 1]]
    bool_action = json.loads(json.dumps(bool_meet))
    bool_action["meet"] = [[0, 0], [0, 1]]
    bool_action["action"] = [[False, True]]
    int_labels = json.loads(json.dumps(fan))
    int_labels["carrier"] = list(range(len(fan["carrier"])))
    list_label = json.loads(json.dumps(fan))
    list_label["carrier"][0] = ["a"]
    cases = [bool_meet, bool_action, int_labels, list_label]
    for entry in (True, 1.0, "1"):
        case = json.loads(json.dumps(fan))
        case["action"][0][0] = entry
        cases.append(case)
    for label in (1, None, True):
        case = json.loads(json.dumps(fan))
        case["carrier"][1] = label
        cases.append(case)
    list_entry = json.loads(json.dumps(fan))
    list_entry["meet"][0][1] = [1]
    cases.append(list_entry)
    # a string or an object is not an array, though it iterates as its
    # characters or keys: "ab" and {"a": 1, "b": 2} would pass as carriers
    pair = {"group": {"orders": [1]}, "carrier": ["a", "b"], "meet": [[0, 0], [0, 1]], "action": [[0, 1]]}
    cases.append(dict(pair, carrier="ab"))
    cases.append(dict(pair, carrier={"a": 1, "b": 2}))
    cases.append(dict(pair, meet={"0": [0, 0], "1": [0, 1]}))
    cases.append(dict(pair, action="01"))
    return cases


def test_shape_error_messages_name_the_offender(capsys, tmp_path):
    # the whole-row type tests fall back to the per-entry loop, which names
    # the first label that is not a string and the first bad meet entry,
    # unhashable ones included; a bad permutation entry is reported for the
    # whole permutation
    messages = [
        "meet entry False is not an index below 2",
        "action table is not a carrier permutation",
        "carrier label 0 is not a string",
        "carrier label ['a'] is not a string",
        *["action table is not a carrier permutation"] * 3,
        "carrier label 1 is not a string",
        "carrier label None is not a string",
        "carrier label True is not a string",
        "meet entry [1] is not an index below 3",
        *["malformed algebra payload: 'carrier' is not a JSON array"] * 2,
        "malformed algebra payload: 'meet' is not a JSON array",
        "malformed algebra payload: 'action' is not a JSON array",
    ]
    path = tmp_path / "bad.json"
    for payload, message in zip(_shape_cases(), messages, strict=True):
        path.write_text(json.dumps(payload))
        assert run(["validate", "--algebra", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("payload", _shape_cases())
def test_shape_errors_exit_2(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for argv in (["validate"], ["hasse"], ["check-minimal"], ["quasi", "--qi", "-> x = x"]):
        assert run(argv + ["--algebra", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    with pytest.raises(A.ShapeError):
        A.algebra_from_dict(payload)


@pytest.mark.parametrize("length", [A.MAX_LABEL_LENGTH, A.MAX_LABEL_LENGTH + 1])
def test_carrier_labels_are_capped_when_loaded(capsys, tmp_path, length):
    # the load cache keeps labels as loaded; the library's own algebras are
    # not capped (a quotient joins its members' labels), so check_shape
    # passes the long label and only a file is refused
    fan = C.maroti(G.make_group([2]), G.trivial_subgroup(G.make_group([2])))
    long = A.FSemilattice(fan.group, ("x" * length, *fan.carrier[1:]), fan.meet, fan.action)
    A.check_shape(long)
    path = write_algebra(tmp_path, long)
    for command in ("validate", "check-minimal"):
        code = run([command, "--algebra", path])
        captured = capsys.readouterr()
        if length <= A.MAX_LABEL_LENGTH:
            assert (code, captured.err) == (0, "")
        else:
            assert (code, captured) == (2, ("", f"error: carrier labels take at most 256 characters, got {length}\n"))


def test_hasse_escapes_labels(capsys, tmp_path):
    group = G.make_group([2])
    labels = ('a"]; evil [x="', "back\\slash", "o")
    odd = A.FSemilattice(group, labels, [[0, 2, 2], [2, 1, 2], [2, 2, 2]], [[1, 0, 2]])
    assert A.validate_axioms(odd).ok
    path = write_algebra(tmp_path, odd)
    code, out = invoke(capsys, ["hasse", "--algebra", path, "--actions"])
    assert code == 0
    lines = out.splitlines()
    assert lines[2:5] == ['  "a\\"]; evil [x=\\"";', '  "back\\\\slash";', '  "o";']
    # with every quoted identifier removed, only DOT punctuation is left
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    shapes = {"  ;", "   -> ;", "   ->  [style=dashed, label=, constraint=false];"}
    assert {quoted.sub("", line) for line in lines[2:-1]} == shapes


def test_deeply_nested_qi_is_usage_error(capsys, tmp_path):
    fan = C.maroti(G.make_group([2]), G.trivial_subgroup(G.make_group([2])))
    path = write_algebra(tmp_path, fan)
    qi = "-> " + "(" * 2000 + "x" + ")" * 2000 + " = x"
    assert run(["quasi", "--algebra", path, "--qi", qi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def assert_usage_error(out, err):
    """Exit 2 prints nothing on stdout and one ``error:`` line on stderr."""
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


def validate_output(path):
    """Exit code and stdout of ``fslat validate`` on the algebra file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["validate", "--algebra", path])
    return code, out.getvalue()


def assert_refused_at_the_door(argv, path, code, out, err):
    """A table that fails an axiom gets exit 1 and the ``validate`` payload
    from every command that loads it, and nothing on stderr."""
    assert (code, out) == validate_output(path), argv
    assert code == 1 and err == "", argv


def test_decompose_verification_error_is_usage_error(capsys, tmp_path, monkeypatch):
    # a shape-valid table whose generator permutation is not an automorphism
    # is refused at the door; a reconstruction that failed verification, a
    # bug on a valid algebra, would still be a usage error
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"group": {"orders": [2]}, "carrier": ["e0", "e1"],
                    "meet": [[0, 0], [0, 1]], "action": [[1, 0]]})
    )
    argv = ["decompose", "--algebra", str(path), "--generator", "e1"]
    code = run(argv)
    captured = capsys.readouterr()
    assert_refused_at_the_door(argv, str(path), code, captured.out, captured.err)
    assert json.loads(captured.out)["axiom"] == "action-automorphism"

    def failing(algebra, a):
        raise C.VerificationError("reconstruction map failed verification")

    monkeypatch.setattr(cli.quasivar, "decompose_ku", failing)
    fan = C.maroti(G.make_group([2]), G.trivial_subgroup(G.make_group([2])))
    assert run(["decompose", "--algebra", write_algebra(tmp_path, fan, "fan.json")]) == 2
    captured = capsys.readouterr()
    assert_usage_error(captured.out, captured.err)
    assert "reconstruction map failed verification" in captured.err


@pytest.mark.parametrize("command", ["check-minimal", "decompose", "simplicity"])
def test_meet_leaving_the_closure_is_a_named_usage_error(capsys, tmp_path, command):
    # a ^ b = c but b ^ a = a: a table whose one-sided closure of a would
    # leave the closure; it fails idempotence first (a ^ a = b), and the
    # door refuses it with that axiom before any closure runs
    path = tmp_path / "lopsided.json"
    path.write_text(
        json.dumps({"group": {"orders": [1]}, "carrier": ["a", "b", "c"],
                    "meet": [[1, 2, 0], [0, 0, 0], [0, 0, 0]], "action": [[0, 1, 2]]})
    )
    code = run([command, "--algebra", str(path)])
    captured = capsys.readouterr()
    assert_refused_at_the_door(command, str(path), code, captured.out, captured.err)
    assert json.loads(captured.out) == {
        "valid": False, "axiom": "meet-idempotence", "witness": [0], "detail": "a ^ a != a"
    }


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (
            ["group", "subgroups", "--orders", "2,2,2,2,2,2,2,2"],
            ["group", "subgroups", "--orders", "64"],
        ),
        (["build", "ak", "--k", "1000000000"], ["build", "ak", "--k", "256"]),
        (
            ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:1000000000000000003"],
            ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:999999937"],
        ),
        (["validate", "--algebra", "{C65}"], ["validate", "--algebra", "{C64}"]),
        (
            ["group", "subgroups", "--orders", ",".join(["1"] * 17)],
            ["group", "subgroups", "--orders", ",".join(["1"] * 16)],
        ),
    ],
    ids=["orders", "ak", "radicand", "algebra-group", "rank"],
)
def test_hostile_sizes_are_usage_errors(capsys, tmp_path, argv, accepted):
    # "{Cn}" names a file holding the two-element algebra over Cn
    paths = {
        f"C{n}": write_algebra(tmp_path, C.two_element(G.make_group([n])), f"C{n}.json")
        for n in (64, 65)
    }
    assert run([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert_usage_error(captured.out, captured.err)
    # a size at the cap, above every size the tests and the benchmark use
    assert run([arg.format(**paths) for arg in accepted]) == 0
    capsys.readouterr()


def _balpha_at_digit_cap(longer=None):
    """A balpha request whose P, Q, D and R all have ``MAX_INT_DIGITS`` digits,
    D zero-padded, in lowest terms; the one named ``longer`` gets one more."""
    n = G.MAX_INT_DIGITS
    numbers = {"P": "1" + "0" * (n - 1), "Q": "9" * n, "D": "999999937".zfill(n), "R": "7" * n}
    if longer:
        numbers[longer] = ("0" if longer == "D" else "1") + numbers[longer]
    alpha = "({P}+{Q}*sqrt:{D})/{R}".format(**numbers)
    beta = "(-{R}+{Q}*sqrt:{D})/{P}".format(**{**numbers, "R": "8" * n})
    return ["balpha", "--alpha", alpha, "--beta", beta]


def test_balpha_at_the_digit_cap_prints_its_payload(capsys):
    argv = _balpha_at_digit_cap()
    code, payload = invoke_json(capsys, argv)
    assert code == 0 and payload["report"]["separates"]
    # printed as given, in lowest terms, but for D's leading zeros
    padded = "sqrt:" + "999999937".zfill(G.MAX_INT_DIGITS)
    assert [payload["alpha"], payload["beta"]] == [
        arg.replace(padded, "sqrt:999999937") for arg in argv[2::2]
    ]


@pytest.mark.parametrize("longer", ["P", "Q", "D", "R"])
def test_balpha_past_the_digit_cap_is_a_usage_error(capsys, monkeypatch, longer):
    # refused at parse time, before the search that once ran to the end
    # and then failed to print a 4,000-digit payload
    searches = []
    monkeypatch.setattr(cli.irrationals, "rational_between", lambda *args: searches.append(args))
    assert run(_balpha_at_digit_cap(longer)) == 2
    captured = capsys.readouterr()
    assert_usage_error(captured.out, captured.err)
    assert (captured.err, searches) == (f"error: integers take at most {G.MAX_INT_DIGITS} digits, got 1001\n", [])


# Groups of thousands of cyclic factors: validation compares every pair of
# generator permutations, which once took 29 s on the first, 10.5 s before
# the order refusal on the second and more than 120 s on the third.
_WIDE_GROUPS = {"trivial": [1] * 10_000, "order-65": [65] + [1] * 5_999, "infinite": [0] * 200_000}


@pytest.mark.parametrize("name", sorted(_WIDE_GROUPS))
def test_wide_groups_are_refused_by_rank_before_validation(capsys, tmp_path, name):
    orders = _WIDE_GROUPS[name]
    path = tmp_path / "wide.json"
    table = {"group": {"orders": orders}, "carrier": ["a"], "meet": [[0]], "action": [[0]] * len(orders)}
    path.write_text(json.dumps(table))
    shown = ",".join(map(str, orders))
    message = f"error: groups take at most {cli.MAX_GROUP_RANK} cyclic factors, got {len(orders)}\n"
    for argv in (
        ["validate", "--algebra", str(path)],
        ["check-minimal", "--algebra", str(path)],
        ["verify-bijection", "--orders", shown],
        ["group", "subgroups", "--orders", shown],
    ):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 0.5, argv[0]
        assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "qi", ["g\u0660(x)=x -> x = x^y", "g0^\u0662(x)=x -> x = x^y"], ids=["generator", "power"]
)
def test_qi_digits_are_ascii(capsys, tmp_path, qi):
    # Arabic-Indic digits were read as g0 and as the power 2
    c4 = G.make_group([4])
    fan = C.maroti(c4, G.subgroup_from_elements(c4, [(0,), (2,)]))
    with pytest.raises(Q.QuasiIdentitySyntaxError, match="^unrecognized characters in "):
        Q.parse_quasi_identity(qi, c4)
    assert run(["quasi", "--algebra", write_algebra(tmp_path, fan), "--qi", qi]) == 2
    captured = capsys.readouterr()
    assert_usage_error(captured.out, captured.err)


@pytest.mark.parametrize("digits", [G.MAX_INT_DIGITS, G.MAX_INT_DIGITS + 1], ids=["at-cap", "past-cap"])
def test_qi_power_digit_cap(capsys, tmp_path, monkeypatch, digits):
    # 10^m - 1 is a multiple of 3, so the check holds on a_3; past the cap
    # it is refused at parse time, before any valuation runs
    path = write_algebra(tmp_path, C.a_k(3))
    checks = []
    holds = cli.quasivar.holds_quasi_identity
    monkeypatch.setattr(cli.quasivar, "holds_quasi_identity", lambda *args: checks.append(args) or holds(*args))
    power = "9" * digits
    code = run(["quasi", "--algebra", path, "--qi", f"-> g0^{power}(g0^-{power}(x)) = g0^{power}(x)"])
    captured = capsys.readouterr()
    if digits <= G.MAX_INT_DIGITS:
        assert (code, len(checks)) == (0, 1)
        assert json.loads(captured.out)["holds"]
        return
    assert (code, checks) == (2, [])
    assert_usage_error(captured.out, captured.err)
    assert captured.err == f"error: integers take at most {G.MAX_INT_DIGITS} digits, got 1001\n"


# Integers ``int`` reads but the ASCII reader refuses: 1_0 as 10, +2 as 2 and
# the Arabic-Indic three as 3; the empty text and a suffix fail either way.
MALFORMED_INTEGERS = ["1_0", "+2", "\u0663", "", "2x"]


@pytest.mark.parametrize(
    "text", MALFORMED_INTEGERS, ids=["underscore", "plus", "arabic-indic", "empty", "suffix"]
)
def test_malformed_integers_are_usage_errors(capsys, text):
    message = f"invalid integer {text!r}; use ASCII digits with an optional leading '-'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        G.parse_int(text)
    for argv in (
        ["verify-bijection", "--orders", text],
        ["group", "subgroups", "--orders", text],
        ["build", "maroti", "--orders", "4,4", "--subgroup", f"0,0;0,{text}"],
    ):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    balpha = ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3"]
    for flag, argv in (
        ("--k", ["build", "ak", "--k", text]),
        ("--limit", ["simplicity", "--algebra", "unread.json", "--limit", text]),
        ("--p", balpha + ["--p", text, "--q", "1"]),
        ("--q", balpha + ["--p", "3", "--q", text]),
        ("--samples", balpha + ["--samples", text]),
    ):
        # argparse's usage lines, then its error line naming the flag
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.endswith(f": error: argument {flag}: {message}\n"), argv


def test_integers_keep_their_spaces_and_sign(capsys):
    assert G.parse_int(" -7\n") == -7
    assert G.parse_element(" 1, -2 ") == (1, -2)
    code, spaced = invoke(capsys, ["group", "subgroups", "--orders", " 2 , 3 "])
    assert (code, spaced) == invoke(capsys, ["group", "subgroups", "--orders", "2,3"])
    code, payload = invoke_json(capsys, ["build", "ak", "--k", " 3 "])
    assert code == 0 and payload == A.algebra_to_dict(C.a_k(3))


# Each integer reader: a request with {v} standing for the value, the
# library call that does the request's work once its integers are read, and
# the later check that a MAX_INT_DIGITS-digit value of the given digit meets
# once the reader has passed it.
_INT_READERS = {
    "orders": (["group", "subgroups", "--orders", "{v}"], (G, "subgroups"), "9", "multiply to more than 64"),
    "subgroup": (
        ["build", "maroti", "--orders", "4", "--subgroup", "0;{v}"],
        (G, "subgroup_from_elements"),
        "1",
        "not closed under inverse",
    ),
    "transversal": (
        ["build", "twisted", "--orders", "6", "--subgroup", "0;3", "--u", "chain2", "--transversal", "3;1;{v}"],
        (G, "make_transversal"),
        "1",
        "representatives do not meet every coset exactly once",
    ),
    "k": (["build", "ak", "--k", "{v}"], (C, "a_k"), "9", "atoms"),
    "limit": (
        ["simplicity", "--algebra", "{fan}", "--limit", "-{v}"],
        (cli.quasivar, "simplicity_and_quotient_report"),
        "9",
        "exceeds congruence limit -",
    ),
    "p": (
        ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--p", "{v}", "--q", "1"],
        (cli.irrationals, "check_separating_identity"),
        "9",
        "need alpha < p/q < beta",
    ),
    "q": (
        ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--p", "3", "--q", "{v}"],
        (cli.irrationals, "check_separating_identity"),
        "9",
        "need alpha < p/q < beta",
    ),
    "samples": (
        ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--samples", "{v}"],
        (cli.irrationals, "rational_between"),
        "9",
        "sample count must be",
    ),
    "qi-index": (
        ["quasi", "--algebra", "{fan}", "--qi", "-> g{v}(x) = x"],
        (cli.quasivar, "holds_quasi_identity"),
        "9",
        "out of range for rank 1",
    ),
}


@pytest.mark.parametrize("digits", [G.MAX_INT_DIGITS, G.MAX_INT_DIGITS + 1], ids=["at-cap", "past-cap"])
@pytest.mark.parametrize("reader", sorted(_INT_READERS))
def test_integer_digit_cap(capsys, tmp_path, monkeypatch, reader, digits):
    # past the cap, each once ran its request and then failed to print with
    # CPython's 4,300-digit message, which names no flag
    argv, (module, name), digit, later = _INT_READERS[reader]
    fan = write_algebra(tmp_path, C.maroti(G.make_group([6]), G.trivial_subgroup(G.make_group([6]))))
    calls = []
    work = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(args) or work(*args, **kw))
    assert run([arg.format(v=digit * digits, fan=fan) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error: " in line]
    assert len(errors) == 1, captured.err
    if digits <= G.MAX_INT_DIGITS:
        assert later in errors[0]
        return
    assert calls == []
    assert errors[0].endswith(f"integers take at most {G.MAX_INT_DIGITS} digits, got {digits}")


def test_integer_digit_cap_counts_digits_not_the_sign():
    assert G.parse_int(" -" + "9" * G.MAX_INT_DIGITS + " ") == -(10**G.MAX_INT_DIGITS - 1)
    with pytest.raises(ValueError, match=f"^integers take at most {G.MAX_INT_DIGITS} digits, got 1001$"):
        G.parse_int("-0" + "9" * G.MAX_INT_DIGITS)
    with pytest.raises(ValueError, match=f"^integers take at most {G.MAX_INT_DIGITS} digits, got 1001$"):
        Q.parse_quasi_identity("-> g0" + "9" * G.MAX_INT_DIGITS + "(x) = x", G.make_group([2]))


_FUZZ_QIS = ("x^y=x & y^z=y -> x^z=x", "g0(x)=x -> x = x^y", "-> g1^-2(x) ^ y = y ^ x")


@st.composite
def shape_valid_tables(draw):
    orders = draw(st.sampled_from([[1], [2], [3], [4], [2, 2], [0], [6], [0, 2]]))
    n = draw(st.integers(1, 4))
    meet = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    action = [list(draw(st.permutations(range(n)))) for _ in orders]
    return {"group": {"orders": orders}, "carrier": [f"e{i}" for i in range(n)],
            "meet": meet, "action": action}


_DOOR_COMMANDS = ("check-minimal", "decompose", "simplicity", "hasse")


def check_exit_code_contract(table, generator):
    """Every door command on the table: exit 0 or 1 with its payload, or a
    one-line usage error, on a valid table; exit 1 with the ``validate``
    payload on a table that ``validate_axioms`` rejects."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/algebra.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh)
        valid = A.validate_axioms(A.algebra_from_dict(table)).ok
        requests = [["quasi", "--algebra", path, "--qi", qi] for qi in _FUZZ_QIS]
        for command in _DOOR_COMMANDS:
            flags = [] if generator is None or command == "hasse" else ["--generator", generator]
            requests.append([command, "--algebra", path] + flags)
        for argv in requests:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            if not valid:
                assert_refused_at_the_door(argv, path, code, out.getvalue(), err.getvalue())
            elif code == 2:
                assert_usage_error(out.getvalue(), err.getvalue())
            else:
                assert code in (0, 1), argv
                if argv[0] != "hasse":
                    json.loads(out.getvalue())
        return valid


@given(shape_valid_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_cli_exit_code_contract_on_random_tables(table, data):
    check_exit_code_contract(table, data.draw(st.sampled_from([None] + table["carrier"])))


def test_door_refuses_a_table_whose_closures_disagree():
    # the 5-element table on which ``check-minimal --generator 0`` once
    # accepted 0 as a generator and then raised ``NotGeneratedError``: its
    # meet is not idempotent, so every command refuses it at the door
    table = {
        "group": {"orders": [0]},
        "carrier": ["0", "1", "2", "3", "4"],
        "meet": [[4, 2, 4, 0, 4], [1, 4, 4, 4, 0], [1, 3, 0, 0, 3], [2, 3, 1, 2, 1], [4, 1, 4, 3, 0]],
        "action": [[2, 0, 4, 3, 1]],
    }
    report = A.validate_axioms(A.algebra_from_dict(table))
    assert (report.axiom, report.witness) == ("meet-idempotence", (0,))
    for generator in [None] + table["carrier"]:
        assert not check_exit_code_contract(table, generator)
