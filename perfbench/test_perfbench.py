"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They check that generated inputs are valid, that fingerprints do not move
under relabelling, that the tracer is transparent and restores every
binding, and that the entry command reports every metric with its unit.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_library()

import pargal  # noqa: E402
import canon  # noqa: E402
import workloads  # noqa: E402
from gen import gset_action, lex_rank, regular_restriction, relabel, shuffled  # noqa: E402
from tracer import LAYERS, Tracer, metric_specs, read_spans  # noqa: E402

with open(run.EXPECTED, encoding="utf-8") as fh:
    EXPECTED = json.load(fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

# ops cheap enough to run in a test, per workload
CHEAP = {
    "suite": lambda name: name == "suite/F2",
    "products": lambda name: "Z8" not in name and "Z7" not in name,
    "iso": lambda name: name not in ("iso/none-r8", "iso/none-r7", "iso/none-r5-Z6", "iso/relabel-r8"),
    "cli": lambda name: True,
}


@pytest.fixture
def workdir():
    os.makedirs(run.WORK_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.WORK_DIR)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def cheap_ops(name, seed, workdir):
    return [op for op in workloads.build(name, seed, workdir) if CHEAP[name](op.name)]


# -- generated inputs -------------------------------------------------------------

@pytest.mark.parametrize("ring", [pargal.QQ, pargal.Modular(2), pargal.Modular(6)])
def test_regular_restrictions_are_partial_galois(ring):
    rng = random.Random(7)
    for n in range(2, 8):
        for _ in range(3):
            k = rng.randrange(1, n + 1)
            subset = rng.sample(range(n), k)
            act = regular_restriction(ring, n, subset, shift=rng.randrange(n), order=shuffled(rng, k))
            assert pargal.verify_partial_action(act).passed
            pargal.ExtensionClass.certify(act)


def test_relabel_keeps_axioms_and_iso_class():
    # a non-split basis: the carrier of a product is a subalgebra of a tensor
    x = pargal.ExtensionClass.certify(regular_restriction(pargal.QQ, 4, [0, 1, 2]))
    carrier = pargal.harrison_product(x, x).action
    for act in (x.action, carrier):
        moved = relabel(act, shuffled(random.Random(3), act.algebra.rank))
        assert pargal.verify_partial_action(moved).passed
        assert workloads.action_fp(moved) == workloads.action_fp(act)
        assert pargal.iso_check(act, moved).status == "iso"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_seed_builds_valid_inputs(name, workdir):
    # build() verifies every action and certifies every class, raising otherwise
    for seed in (1, 2):
        assert {op.name for op in workloads.build(name, seed, workdir)} == set(EXPECTED[name])


def test_relabel_pairs_exit_at_the_seeded_position():
    for seed in (1, 2):
        rng = random.Random(seed)
        for _, n, orbits, window in workloads.ISO_RELABEL[:2]:
            r = sum(orbits)
            pts_a = [workloads.orbit_points(orbits)[i] for i in shuffled(rng, r)]
            pts_b, t = workloads.relabel_at(rng, pts_a, workloads.gset_automorphisms(orbits), window)
            res = pargal.iso_check(gset_action(pargal.QQ, n, orbits, pts_a), gset_action(pargal.QQ, n, orbits, pts_b))
            m = res.morphism.matrix
            # split idempotents sort as e_{r-1}, ..., e_0; read the witness as a permutation of them
            sigma = [r - 1 - next(j for j in range(r) if m.rows[j][r - 1 - i]) for i in range(r)]
            assert lex_rank(sigma) == t


# -- fingerprints -----------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_fingerprints_do_not_depend_on_the_seed(name, workdir):
    for op in cheap_ops(name, 5, workdir):
        assert op.fingerprint(op.fn(op.inputs)) == EXPECTED[name][op.name], op.name


def test_suite_keeps_the_documented_failures():
    for ring in ("Q", "F2", "Z6"):
        checks = EXPECTED["suite"][f"suite/{ring}"]["checks"]
        failing = [n for n, status in checks if status == "fail"]
        assert len(failing) == 10
        assert all(n.startswith(("x x* x = x", "x* x x* = x*", "idempotent_class idempotent")) for n in failing)


def test_canonical_key_is_an_iso_invariant():
    rng = random.Random(11)
    for ring in (pargal.QQ, pargal.Modular(6)):
        a = regular_restriction(ring, 8, [0, 1, 2, 4, 5, 7])
        b = regular_restriction(ring, 8, [0, 1, 2, 4, 5, 7], shift=3, order=shuffled(rng, 6))
        c = regular_restriction(ring, 8, [0, 1, 2, 4, 5, 6])
        assert canon.action_key(a) == canon.action_key(b)
        assert canon.action_key(a) != canon.action_key(c)


# -- tracer -----------------------------------------------------------------------

def bindings():
    """Every attribute of pargal's modules and of the traced classes, by identity."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "pargal" or mod_name.startswith("pargal."):
            for attr, value in vars(mod).items():
                out[(mod_name, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in vars(value).items():
                        if cattr != "__slotnames__":  # copyreg's cache, filled by deepcopy
                            out[(mod_name, attr, cattr)] = id(cvalue)
    return out


def traced_pass(ops):
    tracer = Tracer()
    inputs = [copy.deepcopy(op.inputs) for op in ops]
    with tracer:
        fps = [tracer.untimed(op.fingerprint, tracer.op(i, op.fn, inputs[i])) for i, op in enumerate(ops)]
    return tracer, fps


def test_tracer_is_transparent_and_restores_bindings(workdir):
    before = bindings()
    ops = cheap_ops("products", 1, workdir)[:6] + cheap_ops("iso", 1, workdir) + cheap_ops("cli", 1, workdir)[:40]
    expected = [EXPECTED[op.name.split("/")[0]][op.name] for op in ops]
    tracer, fps = traced_pass(ops)
    assert fps == expected
    assert bindings() == before
    assert tracer.calls[tracer.names.index("cli.run")] == 40
    spans_file = os.path.join(workdir, "spans.gz")
    tracer.write_spans(spans_file, {"ops": [op.name for op in ops]})
    head, spans = read_spans(spans_file)
    assert head["ops"] == [op.name for op in ops] and len(spans) == len(tracer.span_name)
    assert spans[-1] == (tracer.span_name[-1], tracer.span_parent[-1], tracer.span_op[-1],
                         tracer.span_start[-1], tracer.span_end[-1])
    # every span closed, and children nest inside their parents
    assert not tracer.stack
    for i in range(len(tracer.span_name)):
        parent = tracer.span_parent[i]
        assert tracer.span_start[i] <= tracer.span_end[i]
        if parent >= 0:
            assert tracer.span_start[parent] <= tracer.span_start[i] <= tracer.span_end[i] <= tracer.span_end[parent]


def test_traced_counts_repeat_exactly(workdir):
    ops = cheap_ops("suite", 1, workdir) + cheap_ops("products", 1, workdir)[:8]
    first, _ = traced_pass(ops)
    second, _ = traced_pass(ops)
    a, b = first.metrics(0.0), second.metrics(0.0)
    counted = [name for name, unit, _ in metric_specs() if unit in ("count", "ratio")]
    assert {k: a[k] for k in counted} == {k: b[k] for k in counted}
    assert a["harrison.verify_per_product"] == 2.0
    assert 0 < a["harrison.harrison_product.distinct_ratio"] < 1


def test_every_layer_function_exists():
    for layer, fns in LAYERS.items():
        mod = sys.modules[f"pargal.{layer}"]
        for fn in fns:
            owner = mod
            for part in fn.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}.{fn}"


# -- the entry command ----------------------------------------------------------------

def entry(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_tail_rule():
    assert run.tail(list(range(12))) == (11, 100.0, 0)
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail(list(range(1000))) == (989, 99.0, 10)


def test_entry_prints_every_end_to_end_metric():
    out = entry("--workload", "cli", "--seed", "4", "--seconds", "0.1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    spec = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    table = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
    assert table == dict(run.END_TO_END)


def test_entry_prints_every_per_layer_metric():
    out = entry("--workload", "cli", "--seed", "4", "--seconds", "0.1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    spec = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["metrics"]["cli.run.calls"]["value"] == len(EXPECTED["cli"])


def test_entry_fails_without_the_sources(workdir):
    shutil.copytree(HERE, os.path.join(workdir, "perfbench"), ignore=shutil.ignore_patterns("_work", "_out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    out = entry("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=workdir)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
