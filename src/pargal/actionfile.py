"""Action files: versioned JSON serialization of partial actions.

Scalars travel as strings ("3/4", "5") so no precision is lost, with a
decimal exponent of at most the interpreter's integer digit limit (4300 by
default); structure constants are sparse [i, j, k, value] quadruples; the
acting group is either {"cyclic": [n1, ...]} or an explicit labelled Cayley
table.  Loading validates the algebra, the group and the partial-action
axioms, and fails with a located diagnostic.  A standard carrier, R^n on
its standard basis, loads onto its certified point set (the partial G-set
of :func:`paction._read_points`): its matrices and idempotents are written
on first read.  Every other carrier, and a standard one whose data fails
the point certificate, is built and verified on its matrices.  Saving is
canonical, so a second round trip is byte-identical.
"""

from __future__ import annotations

import json

from .scalars import Matrix, parse_ring
from .algebra import Algebra, AlgebraError
from .groups import FiniteGroup, GroupError, make_cyclic, make_product, multiply_to
from .paction import PartialAction, _on_points, _read_points, verify_partial_action

FORMAT_VERSION = 1


class ActionFileError(ValueError):
    """Malformed or invalid action file; carries a location string."""

    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__(f"{where}: {message}")


def _need(doc, key: str, where: str):
    if key not in _object(doc, where):
        raise ActionFileError(where, f"missing key {key!r}")
    return doc[key]


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ActionFileError(where, f"expected an object, got {type(value).__name__}")
    return value


def _list(value, where: str, length=None) -> list:
    if not isinstance(value, list):
        raise ActionFileError(where, f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ActionFileError(where, f"expected {length} entries, got {len(value)}")
    return value


def _is_int(value) -> bool:
    """A JSON integer: JSON booleans load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _labels(value, where: str) -> list:
    if not all(isinstance(lab, str) for lab in _list(value, where)):
        raise ActionFileError(where, "labels must be strings")
    return value


def _scalar(ring, value, where: str):
    try:
        return ring.scalar_from_str(str(value))
    except ValueError as exc:
        raise ActionFileError(where, str(exc)) from None


class _Memo(dict):
    """Each distinct scalar string of one document, parsed on its first
    lookup and kept.  Only str keys, because true == 1 and both hash alike,
    and the JSON true must stay an error: any other key raises KeyError,
    and a string that does not parse raises ValueError and is not kept."""

    def __init__(self, ring):
        super().__init__()
        self.parse = ring.scalar_from_str

    def __missing__(self, value):
        if type(value) is not str:
            raise KeyError(value)
        out = self[value] = self.parse(value)
        return out


def _capped(labels: list) -> str:
    """A label list for a message, cut after 10 entries."""
    more = len(labels) - 10
    return f"{labels[:10]}" + (f" and {more} more" if more > 0 else "")


def _load_group(spec, where: str, order: int) -> FiniteGroup:
    """The group of ``spec``; a cyclic product is checked against the
    ``order`` the action lists before its Cayley table is built."""
    if "cyclic" in _object(spec, where):
        orders = spec["cyclic"]
        if not isinstance(orders, list) or not orders or not all(_is_int(n) for n in orders):
            raise ActionFileError(where, "cyclic spec must be a non-empty list of integers")
        if not multiply_to(orders, order):
            raise ActionFileError(where, f"the cyclic orders do not multiply to {order}, the number of action entries")
        try:
            return make_product([make_cyclic(n) for n in orders])
        except GroupError as exc:
            raise ActionFileError(where, str(exc)) from None
    if "table" in spec:
        labels = _labels(_need(spec, "labels", where), f"{where}/labels")
        n = len(labels)
        if len(set(labels)) != n:  # one action entry would serve two elements
            raise ActionFileError(f"{where}/labels", f"repeated label {next(x for x in labels if labels.count(x) > 1)!r}")
        table = _list(spec["table"], f"{where}/table", n)
        if not all(isinstance(row, list) and all(_is_int(x) and 0 <= x < n for x in row) for row in table):
            raise ActionFileError(f"{where}/table", "rows must be lists of element indices")
        try:
            return FiniteGroup(labels, table)
        except GroupError as exc:
            raise ActionFileError(where, str(exc)) from None
    raise ActionFileError(where, "group needs either 'cyclic' or 'table'")


def load_action(path: str, verify: bool = True) -> PartialAction:
    """Read an action file; raises ActionFileError with a locator on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ActionFileError(path, str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ActionFileError(f"{path}:{exc.lineno}", exc.msg) from None
    except UnicodeDecodeError as exc:
        raise ActionFileError(path, f"not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # an integer literal past the digit limit, or arrays nested past the
        # recursion limit
        raise ActionFileError(path, f"not readable as JSON: {exc}") from None
    return action_from_document(doc, path, verify=verify)


def action_from_document(doc: dict, where: str, verify: bool = True) -> PartialAction:
    """The action of a parsed action file, located at ``where``.

    R^n on its standard basis, with unit (1, ..., 1), loads onto its
    certified point set (:func:`paction._read_points`) with no matrix and
    no element built; any other carrier, and a standard one whose 0/1
    coefficients fail the certificate, is built on its matrices and, with
    ``verify``, checked by :func:`verify_partial_action`."""
    version = _need(doc, "format", where)
    if not _is_int(version) or version != FORMAT_VERSION:
        raise ActionFileError(where, f"unsupported format {version!r}, expected {FORMAT_VERSION}")
    try:
        ring = parse_ring(str(_need(doc, "base", where)))
    except ValueError as exc:
        raise ActionFileError(f"{where}/base", str(exc)) from None
    lookup = _Memo(ring).__getitem__

    def scalar(value, *located):
        try:
            return lookup(value)
        except (KeyError, TypeError, ValueError):
            return _scalar(ring, value, "".join(map(str, located)))

    def scalars(values, *located):
        # one pass through the memo; a row that fails there is read again
        # at its locator, which is only then built and names the first fault
        if type(values) is list and len(values) == rank:
            try:
                return list(map(lookup, values))
            except (KeyError, TypeError, ValueError):
                pass
        at = "".join(map(str, located))
        return [_scalar(ring, v, at) for v in _list(values, at, rank)]

    alg_where = f"{where}/algebra"
    alg_spec = _need(doc, "algebra", where)
    labels = _labels(_need(alg_spec, "labels", alg_where), f"{alg_where}/labels")
    rank = len(labels)
    # sparse (i, j) -> {k: c}; a repeated quadruple overrides the earlier one
    constants = {}
    for n, entry in enumerate(_list(_need(alg_spec, "constants", alg_where), f"{alg_where}/constants")):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ActionFileError(f"{alg_where}/constants/{n}", f"bad quadruple {entry!r}")
        i, j, k, value = entry
        if not all(_is_int(t) and 0 <= t < rank for t in (i, j, k)):
            raise ActionFileError(f"{alg_where}/constants/{n}", f"index out of range in {entry!r}")
        constants.setdefault((i, j), {})[k] = scalar(value, alg_where, "/constants/", n)
    unit = scalars(_need(alg_spec, "unit", alg_where), alg_where, "/unit")
    one = ring.coerce(1)
    standard = all(u == one for u in unit) and _is_standard(constants, rank, one)
    if standard:
        algebra = Algebra.split(ring, labels)
    else:
        try:
            algebra = Algebra(ring, labels, {ij: tuple(row.items()) for ij, row in constants.items()}, unit)
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
    domains = []
    matrices = []
    for label in group.labels:
        entry = action_spec[label]
        entry_where = f"{where}/action/{label}"
        domains.append(scalars(_need(entry, "idempotent", entry_where), entry_where, "/idempotent"))
        rows = _list(_need(entry, "matrix", entry_where), f"{entry_where}/matrix", rank)
        matrices.append([scalars(r, entry_where, "/matrix/", i) for i, r in enumerate(rows)])
    if standard:
        read = _read_points(group, domains, [zip(*rows) for rows in matrices])
        if read:
            return _on_points(group, algebra, *read)
    act = PartialAction(group, algebra, [algebra.element(c) for c in domains], [Matrix(ring, m, rank) for m in matrices])
    if verify:
        report = verify_partial_action(act)
        if not report.passed:
            bad = report.failures()[0]
            raise ActionFileError(f"{where}/action", f"axiom failure: {bad.name} [{bad.witness}]")
    return act


def _is_standard(constants: dict, rank: int, one) -> bool:
    """Whether the sparse constants (i, j) -> {k: c}, zeros dropped, are
    those of R^rank on its standard basis: e_i e_i = e_i, e_i e_j = 0."""
    diagonal = 0
    for (i, j), row in constants.items():
        entries = [(k, c) for k, c in row.items() if c != 0]
        if i == j and entries == [(i, one)]:
            diagonal += 1
        elif entries:
            return False
    return diagonal == rank


def action_to_document(act: PartialAction) -> dict:
    """Canonical document for an action; groups are written as explicit tables."""
    ring = act.algebra.ring
    s = ring.scalar_to_str
    constants = []
    table = act.algebra.table
    for i in range(act.algebra.rank):
        for j in range(act.algebra.rank):
            for k, c in table[i][j]:
                constants.append([i, j, k, s(c)])
    return {
        "format": FORMAT_VERSION,
        "base": repr(ring),
        "algebra": {
            "labels": list(act.algebra.labels),
            "constants": constants,
            "unit": [s(c) for c in act.algebra.unit],
        },
        "group": {
            "labels": list(act.group.labels),
            "table": [list(row) for row in act.group.table],
        },
        "action": {
            act.group.labels[g]: {
                "idempotent": [s(c) for c in act.idems[g].coords],
                "matrix": [[s(v) for v in row] for row in act.maps[g].rows],
            }
            for g in act.group.elements()
        },
    }


def save_action(act: PartialAction, path: str):
    """Write the canonical document of ``act``; raises ActionFileError with
    the path when it cannot be written."""
    doc = action_to_document(act)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise ActionFileError(path, str(exc)) from None
