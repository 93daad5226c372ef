import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fslat import groups as G
from fslat import quasivar as Q

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


def run_census(*argv):
    return run_script("bijection_census.py", *argv)


@pytest.mark.parametrize("value", ["0", "-5", "65", "200", "four", "1_0"])
def test_census_refuses_orders_outside_the_cli_range(value):
    result = run_census("--max-order", value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "argument --max-order" in result.stderr
    assert "Traceback" not in result.stderr


def test_census_runs_a_small_order():
    result = run_census("--max-order", "4")
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()
    # C1, C2, C3, C2xC2 and C4 have 1 + 2 + 2 + 5 + 3 subgroups
    assert [row.split()[0] for row in rows[1:6]] == ["C1", "C2", "C3", "C2xC2", "C4"]
    assert rows[-1].startswith("13 subgroups verified in ")


def test_census_json_is_one_canonical_document():
    # the reports of every group up to order 8 in the in-process payload
    # form, with no timings: two runs print the same bytes
    first, second = run_census("--max-order", "8", "--json"), run_census("--json", "--max-order", "8")
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout and first.stderr == second.stderr == ""
    want = [Q.verify_bijection(spec).to_dict() for spec in G.all_group_specs(8)]
    assert first.stdout == json.dumps(want, indent=2) + "\n"
    assert [report["orders"] for report in json.loads(first.stdout)][:4] == [[1], [2], [3], [2, 2]]


def test_census_reports_a_closed_pipe_as_one_error_line():
    # the order-32 document is about 800 kB, far more than a pipe holds, so
    # the script is still writing when the reader takes one line and leaves
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / "bijection_census.py"), "--max-order", "32", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert stderr == "error: [Errno 32] Broken pipe\n"


def test_pins_take_no_arguments():
    # a pin name is no selection: every pin always runs
    result = run_script("pins.py", "balpha")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.endswith("error: unrecognized arguments: balpha\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sqrt:4", "sqrt:3"], "error: radicand 4 must be square-free and >= 2\n"),
        (["sqrt:3", "sqrt:2"], "error: need alpha < beta\n"),
    ],
    ids=["square-radicand", "reversed-pair"],
)
def test_separating_demo_bad_pairs_are_usage_errors(argv, message):
    result = run_script("separating_demo.py", *argv)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", message)


@pytest.mark.parametrize("value", ["-5", "290", "many", "1_0"])
def test_separating_demo_refuses_samples_outside_the_window(value):
    result = run_script("separating_demo.py", "sqrt:2", "sqrt:3", "--samples", value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "argument --samples" in result.stderr
    assert "Traceback" not in result.stderr


def test_separating_demo_runs_a_pair():
    result = run_script("separating_demo.py", "sqrt:2", "sqrt:3", "--samples", "3")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "simplest rational between: 3/2",
        "identity min(x+3, x+2*alpha) = x+2*alpha: holds  [q*alpha < p since 8 < 9]",
        "identity min(x+3, x+2*beta) = x+2*beta: fails  [q*beta > p since 12 > 9]",
        "failing witness in the beta algebra: x = 0+0a",
        "sample trace (x, equal-in-alpha, equal-in-beta):",
        "      0+0a   True  False",
        "    -1+-1a   True  False",
        "     -1+0a   True  False",
        "verdict: separates",
    ]


@pytest.mark.parametrize(
    "argv, samples",
    [(["sqrt:2", "sqrt:3"], 12), (["(0+-1*sqrt:2)/1", "sqrt:3"], 12), (["sqrt:2", "sqrt:3", "--samples", "289"], 289)],
    ids=["default-samples", "a-zero-default-samples", "samples-at-the-cap"],
)
def test_separating_demo_traces_its_samples(argv, samples):
    # 12 samples by default; 289, the cap, is accepted where 290 is refused
    result = run_script("separating_demo.py", *argv)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert lines[-1] == "verdict: separates"
    assert len(lines) - lines.index("sample trace (x, equal-in-alpha, equal-in-beta):") - 2 == samples


@pytest.mark.parametrize(
    "alpha, beta, reasons",
    [
        # a = 0: sign_with_radical returns the sign of b
        ("(0+-1*sqrt:2)/1", "sqrt:3", ["a = 0 and b = 1 > 0", "a = 0 and b = -1 < 0"]),
        # a and b of one sign: no squares are compared
        (
            "(-1+-1*sqrt:2)/1",
            "(3+1*sqrt:2)/1",
            ["a = 1 and b = 1 are both positive", "a = -3 and b = -1 are both negative"],
        ),
        # a > 0 > b: b^2*d against a^2
        ("sqrt:2", "sqrt:3", ["8 < 9", "12 > 9"]),
        # a < 0 < b: a^2 against b^2*d
        ("(0+-1*sqrt:3)/1", "(0+-1*sqrt:2)/1", ["9 < 12", "9 > 8"]),
    ],
    ids=["a-zero", "one-sign", "a-positive", "a-negative"],
)
def test_separating_demo_names_the_sign_case(alpha, beta, reasons):
    result = run_script("separating_demo.py", alpha, beta, "--samples", "0")
    assert result.returncode == 0, result.stderr
    certificates = result.stdout.splitlines()[1:3]
    assert [line.split("since ")[1] for line in certificates] == [r + "]" for r in reasons]
    assert "holds  [q*alpha < p since" in certificates[0]
    assert "fails  [q*beta > p since" in certificates[1]


def test_every_name_perfbench_traces_exists():
    # perfbench/spans.py looks each name up with getattr when a traced run
    # starts, so a deleted or renamed function would fail only those runs
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(short, name) for table in (spans.SPANS, spans.COUNTS) for short, names in table.items()
             for name in names]
    assert len(names) > 10
    missing = [f"fslat.{short}.{name}" for short, name in names
               if not callable(getattr(importlib.import_module(f"fslat.{short}"), name, None))]
    assert missing == []
