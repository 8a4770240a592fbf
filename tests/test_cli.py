"""Command-line surface: files, reports, exit codes, golden bytes."""

import json
import os
import subprocess
import sys
import time

import pytest

from pargal import cli
from pargal.actionfile import load_action, save_action
from pargal.corpus import standard_corpus

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
CORPUS = os.path.join(ROOT, "corpus")
GOLDEN = os.path.join(CORPUS, "golden")

FIXTURES = [
    "ex1",
    "ex2",
    "ex2-star",
    "trivial-Z2",
    "trivial-Z4",
    "global-Z2-swap",
    "klein-product",
]


def fixture(name):
    return os.path.join(CORPUS, f"{name}.json")


def run_cli(*argv):
    return cli.run(list(argv))


@pytest.mark.parametrize("name", FIXTURES)
def test_corpus_fixture_verifies(name, capsys):
    assert run_cli("verify", fixture(name)) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


@pytest.mark.parametrize("name", FIXTURES)
def test_corpus_fixture_matches_builder(name):
    assert load_action(fixture(name)) == standard_corpus()[name]


def test_save_load_round_trip(tmp_path):
    act = load_action(fixture("ex1"))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_action(act, str(p1))
    again = load_action(str(p1))
    assert again == act
    save_action(again, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_fixture_fails_verify(capsys):
    rc = run_cli("verify", os.path.join(CORPUS, "corrupted-p4.json"))
    assert rc == 1
    out = capsys.readouterr().out
    assert "(P4)" in out and "g=g, h=g, basis=e1" in out


def test_corrupted_fixture_rejected_by_other_commands(capsys):
    rc = run_cli("galois", os.path.join(CORPUS, "corrupted-p4.json"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "axiom failure" in err


def test_non_normal_quotient_request_errors(capsys):
    rc = run_cli("quotient", os.path.join(CORPUS, "s3-regular.json"), "--subgroup", "s")
    assert rc == 2
    assert "non-normal" in capsys.readouterr().err


def test_integer_base_ring_refused(capsys):
    rc = run_cli("verify", os.path.join(CORPUS, "bad-base-Z.json"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "unsupported base ring 'Z': supported rings are Q and Z/n (n >= 2)" in err


def test_quotient_report_example1(capsys):
    rc = run_cli("quotient", fixture("ex1"), "--subgroup", "g2")
    assert rc == 0
    out = capsys.readouterr().out
    assert "e1 + e3" in out
    assert "intrinsic route equals the psi_H route" in out


def test_trace_command(capsys):
    rc = run_cli("trace", fixture("ex1"), "--element", "1,0,0")
    assert rc == 0
    out = capsys.readouterr().out
    assert "e1 + e2 + e3" in out


def test_iso_command_exit_codes(capsys):
    assert run_cli("iso", fixture("trivial-Z2"), fixture("global-Z2-swap")) == 0
    capsys.readouterr()
    assert run_cli("iso", fixture("ex1"), fixture("ex2")) == 1


def test_restrict_roundtrip(tmp_path, capsys):
    out = tmp_path / "restricted.json"
    rc = run_cli("restrict", fixture("ex1"), "--subgroup", "g2", "--out", str(out))
    assert rc == 0
    sub = load_action(str(out))
    assert sub.group.order == 2


def test_suite_requires_single_group(capsys):
    rc = run_cli("suite", fixture("ex1"), fixture("trivial-Z2"))
    assert rc == 2
    assert "one group" in capsys.readouterr().err


def test_base_override(capsys):
    rc = run_cli("verify", fixture("ex1"), "--base", "Z/2")
    assert rc == 0


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["frobnicate", "x.json"])
    assert exc.value.code == 2


def test_missing_file_is_usage_error(capsys):
    assert run_cli("verify", os.path.join(CORPUS, "no-such.json")) == 2


# the golden action files that --out writes, NAME.action.json, sit next to
# the golden reports
GOLDEN_ACTIONS = sorted(name for name in os.listdir(GOLDEN) if name.endswith(".action.json"))


@pytest.mark.parametrize("name", sorted(set(os.listdir(GOLDEN)) - set(GOLDEN_ACTIONS)))
def test_golden_reports_are_reproduced(name, capsys):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        golden = fh.read()
    doc = json.loads(golden)
    argv = [doc["command"], *doc["args"], "--json"]
    if doc["command"] in ("quotient", "invariants", "psi"):
        # the recorded args omit flags; recover them from the golden name
        if name.endswith("-g2.json"):
            argv += ["--subgroup", "g2"]
    olddir = os.getcwd()
    os.chdir(ROOT)
    try:
        rc = run_cli(*argv)
    finally:
        os.chdir(olddir)
    out = capsys.readouterr().out
    assert out == golden
    assert rc in (0, 1)


@pytest.mark.parametrize("name", GOLDEN_ACTIONS)
def test_golden_actions_are_reproduced(name, tmp_path, capsys):
    # ex1.idempotent.action.json is `pargal idempotent corpus/ex1.json --out`
    fixture_name, command = name.split(".")[:2]
    out = tmp_path / name
    assert run_cli(command, fixture(fixture_name), "--out", str(out)) == 0
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert out.read_bytes() == fh.read()


def _set(path, value):
    """A document edit: replace the value at a key path of ex2.json."""

    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


VERIFY = ("verify",)


@pytest.mark.parametrize(
    "edit, argv, located",
    [
        (_set(["algebra"], 5), VERIFY, "/algebra: expected an object"),
        (_set(["algebra", "constants", 0], 7), VERIFY, "/algebra/constants/0: bad quadruple 7"),
        (_set(["algebra", "constants", 0], ["0", 0, 0, "1"]), VERIFY, "/algebra/constants/0: index out of range"),
        (_set(["action", "g", "matrix"], 3), VERIFY, "/action/g/matrix: expected a list"),
        (_set(["algebra", "unit", 1], "1/0"), VERIFY, "/algebra/unit: bad scalar '1/0'"),
        (_set(["action", "g", "matrix", 1, 0], "1/0"), VERIFY, "/action/g/matrix/1: bad scalar '1/0'"),
        (None, ("trace", "--element", "1/0,1"), "bad scalar '1/0'"),
        # JSON booleans load as Python bools, which are ints
        (_set(["format"], True), VERIFY, "bad.json: unsupported format True, expected 1"),
        (_set(["group", "table", 0, 1], True), VERIFY, "/group/table: rows must be lists of element indices"),
        (_set(["algebra", "constants", 0], [False, False, False, "1"]), VERIFY,
         "/algebra/constants/0: index out of range"),
        (_set(["group"], {"cyclic": [True]}), VERIFY, "/group: cyclic spec must be a non-empty list of integers"),
    ],
    ids=["algebra-not-object", "constant-not-list", "index-string", "matrix-not-list",
         "unit-zero-denominator", "matrix-zero-denominator", "trace-element",
         "format-boolean", "table-boolean", "index-boolean", "cyclic-boolean"],
)
def test_malformed_input_exits_2_with_location(edit, argv, located, tmp_path, capsys):
    with open(fixture("ex2"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if edit is not None:
        edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(argv[0], str(path), *argv[1:]) == 2
    assert located in capsys.readouterr().err


def test_undecodable_file_exits_2_with_location(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    assert run_cli("verify", str(path)) == 2
    assert f"pargal verify: {path}: not UTF-8 text: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_many_labels_fail_before_any_cube(tmp_path, capsys):
    # validation reads the sparse constants directly; a dense rank^3 table
    # for 400 labels would hold 64 million entries
    rank = 400
    doc = {
        "format": 1,
        "base": "Q",
        "algebra": {"labels": [f"b{i}" for i in range(rank)], "constants": [], "unit": ["1"] * rank},
        "group": {"cyclic": [1]},
        "action": {},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    t0 = time.perf_counter()
    assert run_cli("verify", str(path)) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "unit does not fix basis vector b0" in capsys.readouterr().err


def test_worked_examples_script_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "worked_examples.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "class map at g2 swaps v and w: True" in proc.stdout


def test_cli_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pargal.cli", "verify", fixture("ex2")],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_verify_reports_a_non_idempotent_domain_unit(tmp_path, capsys):
    # Z_3 on Q^2 with 1_g2 = e1 + 2 e2: a failed report, not a usage error
    from test_paction import non_idempotent_domain_unit

    path = tmp_path / "z3.json"
    save_action(non_idempotent_domain_unit(), str(path))
    assert run_cli("verify", str(path)) == 1
    out = capsys.readouterr().out
    assert "FAIL      unital: each 1_g is idempotent  [1_g2 not idempotent]" in out
    assert "[g=g: 1_(g^-1) is not idempotent]" in out
