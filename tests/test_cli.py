"""Command-line surface: files, reports, exit codes, golden bytes."""

import json
import math
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from pargal import cli
from pargal.scalars import QQ, Matrix, Modular
from pargal.algebra import Algebra
from pargal.actionfile import load_action, save_action
from pargal.corpus import standard_corpus
from pargal.groups import make_cyclic, make_product
from pargal.harrison import ExtensionClass, star_product_suite
from pargal.paction import global_action

from test_actionfile import matrix_route
from test_paction import frobenius_f4

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


def test_modulus_too_large_for_exact_primality_is_refused(capsys):
    big = 10**29 + 7  # 30 digits, no prime factor <= 41
    rc = run_cli("verify", fixture("ex1"), "--base", f"Z/{big}")
    assert rc == 2
    assert f"pargal verify: ring spec 'Z/{big}': modulus {big} is too large" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, expected",
    [(("tensor", fixture("ex1")), "pargal tensor: expected 2 file argument(s)"),
     (("suite",), "pargal suite: expected at least one file argument")],
    ids=["tensor-one-file", "suite-no-file"],
)
def test_a_wrong_number_of_files_is_a_usage_error(argv, expected, capsys):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == expected + "\n"


def test_suite_requires_single_group(capsys):
    rc = run_cli("suite", fixture("ex1"), fixture("trivial-Z2"))
    assert rc == 2
    assert "one group" in capsys.readouterr().err


def test_suite_command_reports_the_library_suite(capsys):
    names = ["ex1", "ex2", "ex2-star", "trivial-Z4"]
    assert run_cli("suite", *map(fixture, names), "--json") == 1
    doc = json.loads(capsys.readouterr().out)
    suite = star_product_suite([ExtensionClass.certify(load_action(fixture(name))) for name in names])
    certified = [{"name": f"class {i} certified", "status": "pass", "witness": None} for i in range(len(names))]
    laws = [{"name": name, "status": status, "witness": note} for name, status, note in suite.checks]
    assert doc["checks"] == certified + laws
    assert len(doc["checks"]) == 114
    assert sum(c["status"] == "fail" for c in doc["checks"]) == 8
    assert doc["data"] == {"iso witnesses": suite.witnesses} == {"iso witnesses": 98}


@pytest.fixture
def fixed_point(tmp_path):
    """Z_2 acting trivially on R^1: a certified global action, but the
    generator fixes the one point, so no Galois coordinates exist."""
    path = str(tmp_path / "fixed.json")
    save_action(global_action(make_cyclic(2), Algebra.split(QQ, ["e"]), [Matrix.identity(QQ, 1)] * 2), path)
    return path


def test_galois_command_fails_on_an_action_that_is_not_galois(fixed_point, capsys):
    assert run_cli("galois", fixed_point, "--json") == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == [{"name": "partial Galois coordinates exist", "status": "fail", "witness": None}]
    assert doc["data"] == {}


def test_suite_command_stops_at_a_class_that_is_not_galois(fixed_point, capsys):
    assert run_cli("suite", fixed_point, "--json") == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == [{"name": "class 0 certified", "status": "fail", "witness": "no partial Galois coordinates exist"}]
    assert doc["data"] == {}


def test_suite_command_exits_3_on_an_undecided_law(tmp_path, capsys):
    # F_4 under Frobenius has no split presentation: the suite's first
    # searched law is undecided, and nothing fails
    path = str(tmp_path / "f4.json")
    save_action(frobenius_f4(), path)
    assert run_cli("suite", path, "--json") == 3
    doc = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["status"]) for c in doc["checks"]] == [
        ("class 0 certified", "pass"),
        ("class 0 valid", "pass"),
        ("commutativity (0,0)", "pass"),
        ("associativity (0,0,0)", "undecided"),
    ]
    assert doc["checks"][-1]["witness"] == "carrier admits no split presentation"


@pytest.mark.parametrize(
    "names, factor",
    [(["s3-regular", "ex1"], 0), (["klein-product", "trivial-Z2"], 0), (["s3-regular"], 0), (["trivial-Z2", "s3-regular"], 1)],
)
def test_compose_refuses_a_factor_that_is_not_cyclic(names, factor, capsys):
    assert run_cli("compose", *map(fixture, names)) == 2
    assert f"factor {factor}: the group is not presented as the product of cyclic groups" in capsys.readouterr().err


def test_base_override(capsys):
    rc = run_cli("verify", fixture("ex1"), "--base", "Z/2")
    assert rc == 0


def _line_document(base, idem_g, matrix_g):
    """Z_2 on the carrier R over ``base``, with 1_g and M_g the scalars given."""
    return {
        "format": 1,
        "base": base,
        "algebra": {"labels": ["e"], "constants": [[0, 0, 0, "1"]], "unit": ["1"]},
        "group": {"cyclic": [2]},
        "action": {"1": {"idempotent": ["1"], "matrix": [["1"]]},
                   "g": {"idempotent": [idem_g], "matrix": [[matrix_g]]}},
    }


def test_commands_agree_on_the_axioms_over_the_base_ring(tmp_path, capsys):
    # x -> -x is no automorphism of Q, but is the identity of Z/2: with
    # --base every command checks the axioms over the ring it runs on
    path = tmp_path / "negation.json"
    path.write_text(json.dumps(_line_document("Q", "1", "-1")), encoding="utf-8")
    assert [run_cli(c, str(path), "--base", "Z/2") for c in ("verify", "galois", "invariants")] == [0, 1, 0]
    assert capsys.readouterr().err == ""
    assert [run_cli(c, str(path)) for c in ("verify", "galois", "invariants")] == [1, 2, 2]
    assert capsys.readouterr().err.count("axiom failure") == 2


def test_a_base_change_checks_the_axioms_once(tmp_path, monkeypatch, capsys):
    # 1_g = 3 is idempotent over Z/6 and over Z/3, where it is 0, but not
    # over Z/4, where 3 is a unit
    import pargal.actionfile as actionfile

    path = tmp_path / "three.json"
    path.write_text(json.dumps(_line_document("Z/6", "3", "3")), encoding="utf-8")
    calls = []

    def counted(act, verify=cli.verify_partial_action):
        calls.append(act)
        return verify(act)

    for module in (cli, actionfile):
        monkeypatch.setattr(module, "verify_partial_action", counted)
    assert cli._load(str(path), "Z/3").algebra.ring == Modular(3)
    assert len(calls) == 1 and calls[0].algebra.ring == Modular(3)
    assert run_cli("galois", str(path), "--base", "Z/4") == 2
    assert "three.json: axioms fail over Z/4: " in capsys.readouterr().err


def test_unknown_command_usage_error(capsys):
    # argparse lists the choices in the order of cli.HANDLERS
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate", "x.json")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'frobnicate'" in err
    assert re.findall(r"[\w-]+", err.split("choose from", 1)[1]) == list(cli.HANDLERS)


def test_the_parser_is_built_on_the_first_run_and_reused():
    # a fresh interpreter, so no earlier run has built the parser yet
    probe = f"""
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import pargal, pargal.cli
counts = [len(built)]
with contextlib.redirect_stdout(io.StringIO()):
    for k in range(21):
        pargal.cli.run(["verify", {fixture("ex1")!r}, "--json"])
        if k in (0, 20):
            counts.append(len(built))
print(counts)
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 1, 1]"


def test_help_after_earlier_runs_reads_the_width_it_is_printed_at(monkeypatch, capsys):
    run_cli("verify", fixture("ex1"), "--json")
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        printed = capsys.readouterr().out
        cli.build_parser().print_help()
        assert printed == capsys.readouterr().out


def test_a_usage_error_leaves_the_next_run_unchanged(capsys):
    argv = ("verify", fixture("ex1"), "--json")
    assert run_cli(*argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate", "x.json")
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == first


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


@pytest.mark.parametrize("name", ["ex1", "ex2", "global-Z2-swap"])
def test_globalize_command_runs_the_certificate_once(name, monkeypatch, capsys):
    # globalize raises unless every check passes, so the command reports
    # the certificate that globalize ran, with the same check names
    from pargal import envelope

    certify = envelope.certify_globalization
    calls = []
    monkeypatch.setattr(envelope, "certify_globalization", lambda gd: calls.append(gd) or certify(gd))
    assert run_cli("globalize", fixture(name), "--json") == 0
    assert len(calls) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [{"name": c.name, "status": "pass", "witness": None} for c in certify(calls[0]).checks]


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

# a Q action of Z_2 on Q[s]/(s^2 - 1) with 1_g = (1 + s)/2 and alpha_g the
# identity of Q 1_g: valid over Q, with no value over Z/2
HALF = {
    "format": 1,
    "base": "Q",
    "algebra": {"labels": ["1", "s"], "unit": ["1", "0"],
                "constants": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]]},
    "group": {"cyclic": [2]},
    "action": {"1": {"idempotent": ["1", "0"], "matrix": [["1", "0"], ["0", "1"]]},
               "g": {"idempotent": ["1/2", "1/2"], "matrix": [["1/2", "1/2"], ["1/2", "1/2"]]}},
}
NO_VALUE = "scalar 1/2 has no value in Z/2: its denominator is not a unit"


def _half(base):
    """A document edit: the document HALF over ``base``."""
    return lambda doc: (doc.clear(), doc.update(HALF, base=base))


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
        (None, ("trace", "--element", "1,x,3"), "pargal trace: --element coordinate 2: Invalid literal for Fraction: 'x'"),
        (None, ("decompose", "--factors", "2,x"), "pargal decompose: --factors entry 2: 'x' is not an integer"),
        (None, ("decompose", "--factors", "2,,2"), "pargal decompose: --factors entry 2: '' is not an integer"),
        # the orders are multiplied before any cyclic group is built: make_cyclic
        # refuses orders above |G| = 4 here, and this one would never return
        (None, ("decompose", "--factors", "99999999999999999999"),
         "pargal decompose: the group is not presented as the product of cyclic groups of orders [99999999999999999999]"),
        # JSON booleans load as Python bools, which are ints
        (_set(["format"], True), VERIFY, "bad.json: unsupported format True, expected 1"),
        (_set(["group", "table", 0, 1], True), VERIFY, "/group/table: rows must be lists of element indices"),
        (_set(["algebra", "constants", 0], [False, False, False, "1"]), VERIFY,
         "/algebra/constants/0: index out of range"),
        (_set(["group"], {"cyclic": [True]}), VERIFY, "/group: cyclic spec must be a non-empty list of integers"),
        # the integer 1 is read before true, which equals it and hashes alike:
        # the loader's scalar memo must not hand true the value of 1
        (_set(["action", "g", "matrix"], [[0, 1], [True, 0]]), VERIFY,
         "/action/g/matrix/1: Invalid literal for Fraction: 'True'"),
        (_set(["group"], {}), VERIFY, "bad.json/group: group needs either 'cyclic' or 'table'"),
        # the orders multiply to 1, the number of action entries
        (lambda doc: doc.update(group={"cyclic": [-1, -1]}, action={"1": doc["action"]["1"]}), VERIFY,
         "bad.json/group: cyclic group order must be >= 1, got -1"),
        (_set(["action", "g", "matrix"], [["0", "1"]]), VERIFY, "/action/g/matrix: expected 2 entries, got 1"),
        (None, ("psi",), "pargal psi: this command needs --subgroup"),
        (None, ("trace",), "pargal trace: trace needs --element with comma-separated coordinates"),
        (None, ("decompose",), "pargal decompose: decompose needs --factors, e.g. --factors 2,2"),
        (_half("Z/2"), VERIFY, f"bad.json/action/g/idempotent: {NO_VALUE}"),
        (_half("Q"), ("verify", "--base", "Z/2"), f"bad.json: --base Z/2: {NO_VALUE}"),
    ],
    ids=["algebra-not-object", "constant-not-list", "index-string", "matrix-not-list",
         "unit-zero-denominator", "matrix-zero-denominator", "trace-element", "trace-element-located",
         "factors-not-integer", "factors-empty-entry", "factors-above-the-group-order",
         "format-boolean", "table-boolean", "index-boolean", "cyclic-boolean", "scalar-true-after-one",
         "group-without-kind", "cyclic-negative", "matrix-short", "psi-no-subgroup", "trace-no-element",
         "decompose-no-factors", "denominator-no-unit", "denominator-no-unit-over-base"],
)
def test_malformed_input_exits_2_with_location(edit, argv, located, tmp_path, capsys, monkeypatch):
    import pargal.harrison as harrison

    build = harrison.make_cyclic

    def make_cyclic(n):
        assert n <= 4, f"make_cyclic({n}) built for a group of order 4"
        return build(n)

    monkeypatch.setattr(harrison, "make_cyclic", make_cyclic)
    with open(fixture("ex2"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if edit is not None:
        edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(argv[0], str(path), *argv[1:]) == 2
    assert located in capsys.readouterr().err


def test_repeated_group_labels_exit_2_with_location(tmp_path, capsys):
    # with labels 1 and 1, the one entry "1" would serve both elements
    with open(fixture("global-Z2-swap"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["group"]["labels"] = ["1", "1"]
    del doc["action"]["g"]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("verify", str(path)) == 2
    assert f"pargal verify: {path}/group/labels: repeated label '1'" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["psi", "quotient"])
def test_psi_and_quotient_at_a_large_subgroup_finish_in_seconds(command, tmp_path, capsys):
    # Z_48 on 24 points with H = <g2>, |H| = 24: a sum over the 2^24 subsets
    # of H would take minutes
    from test_harrison import subset_class

    path = tmp_path / "z48.json"
    save_action(subset_class(48, range(24)).action, str(path))
    budget = 5.0
    t0 = time.perf_counter()
    code = run_cli(command, str(path), "--subgroup", "g2")
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    print(f"pargal {command} on Z_48 over 24 points, |H| = 24: {elapsed:.2f} s, budget {budget} s")
    assert elapsed < budget, f"pargal {command} exceeded its {budget} s budget: {elapsed:.2f} s"
    # psi_H(1_S) = 1_T already at H = <g2> (README, "Known discrepancies")
    failed = re.findall(r"^  FAIL +(.*?)(?:  \[.*)?$", out, re.M)
    assert (code, failed) == ((1, ["psi_H(1_S) = 1_T iff H = G"]) if command == "psi" else (0, []))


def test_worked_examples_script_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "worked_examples.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "class map at g2 swaps v and w: True" in proc.stdout


def test_cli_entry_point_subprocess(capsys):
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
    # the console process builds its own parser; the in-process run reuses one
    argv = ["verify", fixture("ex2"), "--json"]
    proc = subprocess.run([sys.executable, "-m", "pargal.cli", *argv], capture_output=True, env=env, cwd=ROOT)
    assert (proc.returncode, proc.stdout) == (run_cli(*argv), capsys.readouterr().out.encode())


def test_verify_reports_a_non_idempotent_domain_unit(tmp_path, capsys):
    # Z_3 on Q^2 with 1_g2 = e1 + 2 e2: a failed report, not a usage error
    from test_paction import non_idempotent_domain_unit

    path = tmp_path / "z3.json"
    save_action(non_idempotent_domain_unit(), str(path))
    assert run_cli("verify", str(path)) == 1
    out = capsys.readouterr().out
    assert "FAIL      unital: each 1_g is idempotent  [1_g2 not idempotent]" in out
    assert "[g=g: 1_(g^-1) is not idempotent]" in out


def _ex2_document():
    with open(fixture("ex2"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("orders", [[100000], [2, 50000], [10**12, 10**12], [-1, 100000], [100000, 0]])
def test_oversized_cyclic_order_fails_before_any_group_is_built(orders, tmp_path, capsys, monkeypatch):
    # ex2 lists 4 action entries; a Cayley table of order 100000 would hold
    # 10^10 entries
    import pargal.actionfile as actionfile

    def refused(n, *args):
        raise AssertionError(f"make_cyclic({n}) was called")

    monkeypatch.setattr(actionfile, "make_cyclic", refused)
    doc = _ex2_document()
    doc["group"] = {"cyclic": orders}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(actionfile.ActionFileError, match="/group: the cyclic orders do not multiply to 4"):
        load_action(str(path))
    assert run_cli("verify", str(path)) == 2
    assert "big.json/group: the cyclic orders do not multiply to 4, the number of action entries" in capsys.readouterr().err


def test_key_mismatch_message_caps_the_label_lists(tmp_path, capsys):
    doc = _ex2_document()
    entry = doc["action"]["1"]
    doc["group"] = {"cyclic": [40]}
    doc["action"] = {f"h{k:02}": entry for k in range(40)}
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("verify", str(path)) == 2
    err = capsys.readouterr().err
    assert "element keys do not match the group (missing ['1', 'g', 'g10'," in err
    assert "'g17'] and 30 more, extra ['h00'," in err
    assert "'h09'] and 30 more)" in err
    assert len(err) < 400


# Loader fuzz: mutations of every corpus document that no loader may
# accept.  Each one must be an ActionFileError, and exit 2 from the CLI,
# never a traceback.  Scalars may be JSON numbers ("1" and 1 load alike),
# so a shape mutation of a string never puts a number there.

CORPUS_FILES = sorted(name for name in os.listdir(CORPUS) if name.endswith(".json"))
# placeholders that the text mutations replace after json.dumps
BIG, DEEP = "\u0000big", "\u0000deep"


def _paths(node, path=()):
    """Every key path of a JSON document, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _wrong_kinds(value):
    """JSON values of another kind than ``value``, the kinds the corpus
    documents hold; never a number in place of a string."""
    return {
        dict: [[], ["1"], "1", 7, None, True],
        list: [{}, {"1": "1"}, "1", 7, None, False],
        str: [[], ["1"], {}, None, True],
        int: ["1", [], {}, None, False],
    }[type(value)]


@st.composite
def broken_documents(draw):
    """The text of a corpus document after one mutation that breaks it."""
    name = draw(st.sampled_from(CORPUS_FILES))
    with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    kind = draw(st.sampled_from(
        ["truncated", "shape", "boolean", "deleted", "scalar", "non-split", "non-group", "cyclic", "repeated-label"]
    ))
    if kind == "truncated":
        return text[: draw(st.integers(0, text.rindex("}") - 1))]
    if kind in ("shape", "boolean"):
        path = draw(st.sampled_from(list(_paths(doc))))
        pool = [True, False] if kind == "boolean" else _wrong_kinds(_at(doc, path))
        doc = _replaced(doc, path, draw(st.sampled_from(pool)))
    elif kind == "deleted":
        path = draw(st.sampled_from([p for p in _paths(doc) if p and isinstance(_at(doc, p[:-1]), dict)]))
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "scalar":
        places = [("algebra", "unit", i) for i in range(len(doc["algebra"]["unit"]))]
        places += [("algebra", "constants", n, 3) for n in range(len(doc["algebra"]["constants"]))]
        places += [("action", g, "idempotent", i) for g, e in doc["action"].items() for i in range(len(e["idempotent"]))]
        places += [("action", g, "matrix", i, j) for g, e in doc["action"].items()
                   for i, row in enumerate(e["matrix"]) for j in range(len(row))]
        bad = draw(st.sampled_from(["1/0", "x", "", "1/", "--1", "0x1", "1e", "nan", "inf", "9" * 5000, BIG, DEEP]))
        doc = _replaced(doc, draw(st.sampled_from(places)), bad)
    elif kind == "non-split":
        # the corpus carriers are split: only e_i e_i = e_i is set, so
        # zeroing it breaks the unit, and a one-sided e_i e_j (i != j)
        # breaks commutativity
        rank = len(doc["algebra"]["labels"])
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        doc["algebra"]["constants"].append([i, j, i, "0" if i == j else "1"])
    elif kind == "non-group":
        # row 0 constant: element 0 has no inverse, or there is no identity
        labels = sorted(doc["action"])
        n = len(labels)
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))
        doc["group"] = {"labels": labels, "table": [[0] * n] + rows[1:]}
    elif kind == "repeated-label":
        # a second element takes the label of a first, and its entry goes;
        # the one document with a cyclic group is broken already
        labels = doc["group"].get("labels", [])
        if len(labels) > 1:
            i, j = draw(st.lists(st.integers(0, len(labels) - 1), min_size=2, max_size=2, unique=True))
            del doc["action"][labels[j]]
            labels[j] = labels[i]
    else:
        # a product of the right size whose labels are the action's keys
        # (as (1,1) (1,g) (g,1) (g,g) are klein-product's) would load
        orders = draw(st.lists(st.integers(1, 10**12), min_size=1, max_size=3))
        n = len(doc["action"])
        if math.prod(orders) == n and set(make_product([make_cyclic(k) for k in orders]).labels) == set(doc["action"]):
            orders.append(2)
        doc["group"] = {"cyclic": orders}
    text = json.dumps(doc)
    return text.replace(json.dumps(BIG), "1" * 5000).replace(json.dumps(DEEP), "[" * 100000 + "]" * 100000)


@given(text=broken_documents())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_broken_documents_are_located_errors(text, tmp_path, capsys, monkeypatch):
    import pargal.actionfile as actionfile

    build = actionfile.make_cyclic

    def bounded(n, *args):
        # no corpus group needs more; a larger one is the blow-up under test
        assert n <= 64, f"make_cyclic({n}) was called"
        return build(n, *args)

    monkeypatch.setattr(actionfile, "make_cyclic", bounded)
    path = tmp_path / "broken.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(actionfile.ActionFileError) as raised:
        load_action(str(path))
    # the diagnostic of the matrix route, the former loader, to the byte
    with monkeypatch.context() as patched:
        patched.setattr(actionfile, "action_from_document", matrix_route)
        with pytest.raises(actionfile.ActionFileError) as oracle:
            load_action(str(path))
    assert str(raised.value) == str(oracle.value)
    capsys.readouterr()
    assert run_cli("verify", str(path)) == 2
    assert capsys.readouterr().err.startswith(f"pargal verify: {path}")


@pytest.mark.parametrize("exponent", ["1e10000000", "-2.5E-10000000"])
def test_scalar_exponent_beyond_the_digit_limit_is_a_located_error(exponent, tmp_path, capsys):
    # Fraction would build 10^(10^7), a 33-million-bit integer, for 11 bytes
    with open(fixture("ex2"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["action"]["g"]["matrix"][1][0] = exponent
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert run_cli("verify", str(path)) == 2
    assert run_cli("trace", fixture("ex2"), "--element", f"1,{exponent}") == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"pargal verify: {path}/action/g/matrix/1: bad scalar {exponent!r}: exponent beyond 4300",
        f"pargal trace: --element coordinate 2: bad scalar {exponent!r}: exponent beyond 4300",
    ]


def relabelled_z4(tmp_path):
    """trivial-Z4 with its group elements named e, a, a2, a3."""
    doc = json.loads(open(fixture("trivial-Z4"), encoding="utf-8").read())
    names = dict(zip(doc["group"]["labels"], ["e", "a", "a2", "a3"]))
    doc["group"]["labels"] = [names[x] for x in doc["group"]["labels"]]
    doc["action"] = {names[x]: entry for x, entry in doc["action"].items()}
    path = tmp_path / "z4-relabelled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "name, factors",
    [("trivial-Z4", "4,1"), ("klein-product", "2,2,1"), ("klein-product", "2,2"), ("relabelled-Z4", "4")],
)
def test_decompose_round_trips_whatever_the_group_labels(name, factors, tmp_path, capsys):
    # the factors recompose over the product's labels, which need not be
    # the input's
    path = relabelled_z4(tmp_path) if name == "relabelled-Z4" else fixture(name)
    assert run_cli("decompose", path, "--factors", factors) == 0
    out = capsys.readouterr().out
    assert re.search(r"^  pass +compose of the factors is iso to the input$", out, re.M)


def test_invariants_of_the_empty_subgroup_are_those_of_the_trivial_one(capsys):
    # '' names the trivial subgroup, as in restrict, psi and quotient
    reports = []
    for spec in ("", "1"):
        assert run_cli("invariants", fixture("ex1"), "--subgroup", spec, "--json") == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["data"] == reports[1]["data"]
    assert reports[0]["data"]["rank"] == 3


# every command that takes --out: (command, fixtures, other arguments)
OUT_COMMANDS = [
    ("restrict", ["ex1"], ["--subgroup", "g2"]),
    ("tensor", ["ex1", "ex2"], []),
    ("product", ["ex1", "ex1"], []),
    ("inverse", ["ex1"], []),
    ("idempotent", ["ex1"], []),
    ("compose", ["trivial-Z2", "trivial-Z2"], []),
]


@pytest.mark.parametrize("command, names, extra", OUT_COMMANDS, ids=[c[0] for c in OUT_COMMANDS])
@pytest.mark.parametrize("target", ["missing directory", "a directory"])
def test_an_unwritable_out_path_exits_2_with_its_location(command, names, extra, target, tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "x.json" if target == "missing directory" else tmp_path
    assert run_cli(command, *map(fixture, names), *extra, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"pargal {command}: {out}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["product", "ex1", "ex2"], ["idempotent", "ex1"]], ids=lambda argv: argv[0])
def test_rank_lines_of_a_point_set_build_no_ideal(argv, monkeypatch, capsys):
    # |D_g| is read off the certified point set, with no unital_ideal
    import pargal.paction as paction

    def refused(*args):
        raise AssertionError("unital_ideal was called")

    monkeypatch.setattr(paction, "unital_ideal", refused)
    command, *names = argv
    assert run_cli(command, *map(fixture, names), "--json") == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["domain ranks" if command == "product" else "ideal ranks"]


RANK_ZERO = {
    "format": 1,
    "base": "Q",
    "algebra": {"labels": [], "constants": [], "unit": []},
    "group": {"cyclic": [2]},
    "action": {"1": {"idempotent": [], "matrix": []}, "g": {"idempotent": [], "matrix": []}},
}


@pytest.fixture
def rank_zero(tmp_path):
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps(RANK_ZERO), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["invariants"], ["globalize"], ["psi", "--subgroup", "g"], ["quotient", "--subgroup", "g"],
     ["quotient-check", "--subgroup", "g"]],
    ids=lambda argv: argv[0],
)
def test_a_rank_0_carrier_reads_no_orbit(argv, rank_zero, capsys):
    # a point set with no point, so every orbit read (components, enveloping
    # set, H-orbits) is empty
    assert load_action(rank_zero).points.maps == [[], []]
    command, *options = argv
    assert run_cli(command, rank_zero, *options, "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(check["status"] == "pass" for check in doc["checks"])
    if command == "invariants":
        assert doc["data"] == {"rank": 0, "basis": []}


@pytest.mark.parametrize("command", ["idempotent", "product"])
def test_a_rank_0_carrier_is_no_class(command, rank_zero, capsys):
    files = [rank_zero] * (2 if command == "product" else 1)
    assert run_cli(command, *files) == 2
    assert f"pargal {command}: fixed ring has rank 0, expected the base ring" in capsys.readouterr().err
