"""The action-file loader against the matrix route it replaced.

``matrix_route`` is the former ``action_from_document``: every carrier is
built on |G| dense matrices and |G| elements and checked by
``verify_partial_action``.  The loader now reads a standard carrier (R^n
on its standard basis) straight onto its certified point set, and must
give the same action, the same point set and the same diagnostics.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pargal import cli
from pargal.actionfile import (
    FORMAT_VERSION,
    ActionFileError,
    _capped,
    _is_int,
    _labels,
    _list,
    _load_group,
    _need,
    _object,
    _scalar,
    action_from_document,
    load_action,
    save_action,
)
from pargal.algebra import Algebra, AlgebraError, Element
from pargal.paction import PartialAction, verify_partial_action
from pargal.scalars import Matrix, parse_ring

from test_paction import partial_zn_sets, relabel

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
CORPUS = os.path.join(ROOT, "corpus")
CORPUS_FILES = sorted(name[:-5] for name in os.listdir(CORPUS) if name.endswith(".json"))


def matrix_route(doc, where, verify=True):
    """The former loader: each scalar parsed through a per-document memo at
    an eagerly built locator, every carrier validated as an Algebra, and
    the action built on Elements and Matrices and verified on them."""
    version = _need(doc, "format", where)
    if not _is_int(version) or version != FORMAT_VERSION:
        raise ActionFileError(where, f"unsupported format {version!r}, expected {FORMAT_VERSION}")
    try:
        ring = parse_ring(str(_need(doc, "base", where)))
    except ValueError as exc:
        raise ActionFileError(f"{where}/base", str(exc)) from None
    memo = {}

    def scalar(value, where):
        if type(value) is not str:
            return _scalar(ring, value, where)
        if value not in memo:
            memo[value] = _scalar(ring, value, where)
        return memo[value]

    def scalars(values, where, length):
        return [scalar(v, where) for v in _list(values, where, length)]

    alg_where = f"{where}/algebra"
    alg_spec = _need(doc, "algebra", where)
    labels = _labels(_need(alg_spec, "labels", alg_where), f"{alg_where}/labels")
    rank = len(labels)
    constants = {}
    for n, entry in enumerate(_list(_need(alg_spec, "constants", alg_where), f"{alg_where}/constants")):
        entry_where = f"{alg_where}/constants/{n}"
        if not isinstance(entry, list) or len(entry) != 4:
            raise ActionFileError(entry_where, f"bad quadruple {entry!r}")
        i, j, k, value = entry
        if not all(_is_int(t) and 0 <= t < rank for t in (i, j, k)):
            raise ActionFileError(entry_where, f"index out of range in {entry!r}")
        constants.setdefault((i, j), {})[k] = scalar(value, entry_where)
    table = {ij: tuple(row.items()) for ij, row in constants.items()}
    unit = scalars(_need(alg_spec, "unit", alg_where), f"{alg_where}/unit", rank)
    try:
        algebra = Algebra(ring, labels, table, unit, validate=True)
    except AlgebraError as exc:
        raise ActionFileError(alg_where, str(exc)) from None

    group_spec = _need(doc, "group", where)
    action_spec = _object(_need(doc, "action", where), f"{where}/action")
    group = _load_group(group_spec, f"{where}/group", len(action_spec))
    if set(action_spec) != set(group.labels):
        missing = sorted(set(group.labels) - set(action_spec))
        extra = sorted(set(action_spec) - set(group.labels))
        raise ActionFileError(
            f"{where}/action",
            f"element keys do not match the group (missing {_capped(missing)}, extra {_capped(extra)})",
        )
    idems = []
    maps = []
    for label in group.labels:
        entry = action_spec[label]
        entry_where = f"{where}/action/{label}"
        coords = scalars(_need(entry, "idempotent", entry_where), f"{entry_where}/idempotent", rank)
        rows = _list(_need(entry, "matrix", entry_where), f"{entry_where}/matrix", rank)
        idems.append(algebra.element(coords))
        maps.append(Matrix(ring, [scalars(r, f"{entry_where}/matrix/{i}", rank) for i, r in enumerate(rows)], rank))
    act = PartialAction(group, algebra, idems, maps)
    if verify:
        report = verify_partial_action(act)
        if not report.passed:
            bad = report.failures()[0]
            raise ActionFileError(f"{where}/action", f"axiom failure: {bad.name} [{bad.witness}]")
    return act


def matrix_base_change(act, base):
    """The former ``cli._change_base``: every action rebuilt on matrices."""
    ring = parse_ring(base)
    algebra = act.algebra.over(ring)
    algebra.validate()
    idems = [algebra.element(e.coords) for e in act.idems]
    maps = [Matrix(ring, [[ring.coerce(v) for v in row] for row in m.rows], algebra.rank) for m in act.maps]
    return PartialAction(act.group, algebra, idems, maps)


def matrix_load(path, base=None, verify=True):
    """``cli._load`` on the matrix route."""
    with open(path, encoding="utf-8") as fh:
        act = matrix_route(json.load(fh), path, verify=verify)
    if base and base != repr(act.algebra.ring):
        act = matrix_base_change(act, base)
        if verify:
            rep = verify_partial_action(act)
            if not rep.passed:
                bad = rep.failures()[0]
                raise ActionFileError(path, f"axioms fail over {base}: {bad.name} [{bad.witness}]")
    return act


def outcome(load, *args, **kwargs):
    """The action ``load`` returns, or the text of the error it raises."""
    try:
        return load(*args, **kwargs)
    except (ActionFileError, AlgebraError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same_outcome(path, base=None, verify=True):
    got = outcome(cli._load, path, base, verify=verify)
    want = outcome(matrix_load, path, base, verify=verify)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, PartialAction), got
    assert got.group == want.group
    assert got.algebra == want.algebra
    # the point set first: on the matrix route it is read off the matrices
    assert got.points == want.points
    assert got.idems == want.idems
    assert got.maps == want.maps


def corpus_copies(name, workdir):
    """The corpus file ``name`` and, when it loads unverified, its copies
    on the reversed and on a rotated basis, written by ``save_action``."""
    path = os.path.join(CORPUS, f"{name}.json")
    act = outcome(matrix_load, path, verify=False)
    if isinstance(act, str):
        return [path]
    r = act.algebra.rank
    copies = [path]
    for k, perm in enumerate([list(reversed(range(r))), [(i + 1) % r for i in range(r)]]):
        copies.append(os.path.join(workdir, f"{name}.r{k}.json"))
        save_action(relabel(act, perm), copies[-1])
    return copies


@pytest.mark.parametrize("name", CORPUS_FILES)
@pytest.mark.parametrize("base", [None, "Z/2", "Z/6"])
def test_loader_matches_the_matrix_route_on_the_corpus(name, base, tmp_path):
    for path in corpus_copies(name, str(tmp_path)):
        for verify in (True, False):
            assert_same_outcome(path, base, verify)


@given(partial_zn_sets())
@settings(max_examples=60, deadline=None)
def test_loader_matches_the_matrix_route_on_partial_zn_sets(act):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "set.json")
        save_action(act, path)
        for base in (None, "Z/2", "Z/6"):
            assert_same_outcome(path, base)


# the corpus files on R^n on its standard basis that load verified
STANDARD_FILES = ["ex1", "ex2", "ex2-star", "global-Z2-swap", "klein-product", "s3-regular", "trivial-Z2",
                  "trivial-Z4", "z3-regularity-witness"]


@st.composite
def off_certificate_documents(draw):
    """A standard corpus document with one coefficient of a 1_g or an M_g
    changed: flipped between 0 and 1, or set off {0, 1}.  The carrier stays
    standard, but the data fails the point certificate, as corrupted-p4's
    does, and is built and verified on its matrices."""
    with open(os.path.join(CORPUS, f"{draw(st.sampled_from(STANDARD_FILES))}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    places = [(e["idempotent"], i) for e in doc["action"].values() for i in range(len(e["idempotent"]))]
    places += [(row, j) for e in doc["action"].values() for row in e["matrix"] for j in range(len(row))]
    values, i = draw(st.sampled_from(places))
    values[i] = draw(st.sampled_from([{"0": "1", "1": "0"}[values[i]], "2", "-1", "1/2"]))
    return doc


@given(off_certificate_documents())
@settings(max_examples=80, deadline=None)
def test_data_off_the_point_certificate_fails_alike_on_both_routes(doc):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "off.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for base in (None, "Z/2"):
            assert_same_outcome(path, base)
            assert_same_outcome(path, base, verify=False)
        # what `pargal verify` reports, witnesses included
        got = verify_partial_action(load_action(path, verify=False)).checks
        assert got == verify_partial_action(matrix_load(path, verify=False)).checks
        assert load_action(path, verify=False).points is None


@st.composite
def carrier_variants(draw):
    """A standard corpus document with its algebra written another way: a
    unit entry or a constant changed, or a quadruple appended, which may
    keep the carrier standard (zeros, "1/1", a repeated e_i e_i = e_i) or
    not (a unit entry 0 or 2, e_i e_i = 2 e_i, e_i e_j = e_i)."""
    with open(os.path.join(CORPUS, f"{draw(st.sampled_from(STANDARD_FILES))}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    algebra = doc["algebra"]
    rank = len(algebra["labels"])
    i, j, k = (draw(st.integers(0, rank - 1)) for _ in range(3))
    value = draw(st.sampled_from(["0", "1", "1/1", "2", "2/2", "-1"]))
    kind = draw(st.sampled_from(["unit", "constant", "appended"]))
    if kind == "unit":
        algebra["unit"][i] = value
    elif kind == "constant":
        algebra["constants"][i][3] = value
    else:
        algebra["constants"].append([i, j, k, value])
    return doc


@given(carrier_variants())
@settings(max_examples=80, deadline=None)
def test_carriers_written_another_way_load_alike_on_both_routes(doc):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "variant.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert_same_outcome(path)
        assert_same_outcome(path, "Z/2")


def count_constructions(monkeypatch):
    """The list that records every Matrix and Element built from now on."""
    built = []
    for cls in (Matrix, Element):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=init, _cls=cls, **kw: built.append(_cls) or _init(self, *a, **kw))
    return built


@pytest.mark.parametrize("name", ["ex1", "ex2", "trivial-Z4", "klein-product", "s3-regular"])
def test_standard_carriers_load_with_no_matrix_or_element(name, monkeypatch):
    path = os.path.join(CORPUS, f"{name}.json")
    built = count_constructions(monkeypatch)
    act = load_action(path)
    rebased = cli._load(path, "Z/6")
    assert verify_partial_action(act).passed and verify_partial_action(rebased).passed
    assert built == []
    assert act._maps is None and act._idems is None and rebased._maps is None
    assert repr(rebased.algebra.ring) == "Z/6" and rebased.algebra.is_split()
    # both are written on first read, one matrix per group element
    assert act.maps and built.count(Matrix) == act.group.order


def test_carriers_failing_the_point_certificate_load_on_matrices(monkeypatch):
    # corrupted-p4 is R^2 on its standard basis with 0/1 data that is no
    # partial G-set: built on matrices, which name the axiom witness
    path = os.path.join(CORPUS, "corrupted-p4.json")
    built = count_constructions(monkeypatch)
    act = load_action(path, verify=False)
    assert act._maps is not None and built.count(Matrix) == act.group.order
    with pytest.raises(ActionFileError, match=r"axiom failure: \(P3\) .* \[g=g2, h=g\]$"):
        load_action(path)


def test_documents_in_memory_load_like_files():
    path = os.path.join(CORPUS, "ex1.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert action_from_document(doc, "ex1") == matrix_route(doc, "ex1")
