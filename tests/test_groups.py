"""Group machinery tests."""

from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pargal.groups import (
    FiniteGroup,
    GroupError,
    QuotientData,
    Subgroup,
    all_subgroups,
    delta_subgroup,
    delta_transversal,
    is_normal,
    make_cyclic,
    make_product,
    quotient,
    subgroup_closure,
)


def test_make_cyclic_four():
    g = make_cyclic(4)
    assert g.labels == ["1", "g", "g2", "g3"]
    assert g.mul(1, 3) == 0
    assert g.inv(1) == 3
    assert g.is_abelian()


def test_make_cyclic_trivial():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.identity == 0


def test_make_cyclic_rejects_zero():
    with pytest.raises(GroupError):
        make_cyclic(0)


def test_klein_four():
    z2 = make_cyclic(2)
    k = make_product([z2, z2])
    assert k.order == 4
    assert all(k.mul(a, a) == k.identity for a in range(4))
    assert k.labels == ["(1,1)", "(1,g)", "(g,1)", "(g,g)"]


def test_product_associative_up_to_reindexing():
    z2, z3 = make_cyclic(2), make_cyclic(3)
    flat = make_product([z2, z3, z2])
    nested = make_product([z2, make_product([z3, z2])])
    assert flat.table == nested.table


def test_subgroup_closure_z4():
    g = make_cyclic(4)
    h = subgroup_closure(g, [2])
    assert h.members == (0, 2)
    assert subgroup_closure(g, [1]).order == 4
    assert subgroup_closure(g, []).members == (0,)


def test_quotient_z4_by_squares():
    g = make_cyclic(4)
    h = subgroup_closure(g, [2])
    q = quotient(g, h)
    assert q.quotient.order == 2
    assert q.transversal == (0, 1)
    assert [g.labels[r] for r in q.transversal] == ["1", "g"]
    # (rep, h) -> rep*h is a bijection onto G
    seen = {g.mul(r, m) for r in q.transversal for m in h.members}
    assert seen == set(range(4))


def test_is_normal_abelian_always():
    g = make_cyclic(6)
    for seeds in ([], [2], [3], [1]):
        assert is_normal(g, subgroup_closure(g, seeds))


def s3():
    # symmetric group on 3 letters; elements as permutation tuples
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    labels = ["e", "r", "r2", "s", "rs", "r2s"]
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    return FiniteGroup(labels, table)


def test_non_normal_subgroup_quotient_errors():
    g = s3()
    assert not g.is_abelian()
    h = subgroup_closure(g, [3])  # {e, s}, not normal
    assert h.order == 2
    assert not is_normal(g, h)
    with pytest.raises(GroupError, match="non-normal"):
        quotient(g, h)
    rot = subgroup_closure(g, [1])
    assert is_normal(g, rot)
    assert quotient(g, rot).quotient.order == 2


def method_call_is_normal(group, sub):
    """is_normal through FiniteGroup.mul and inv, as it read the group
    before it read the Cayley table's rows."""
    mset = set(sub.members)
    for g in range(group.order):
        gi = group.inv(g)
        for h in sub.members:
            if group.mul(group.mul(g, h), gi) not in mset:
                return False
    return True


def method_call_quotient(group, sub, transversal=None):
    """quotient through FiniteGroup.mul, as it built the cosets and the
    quotient's Cayley table before it read the table's rows."""
    if not method_call_is_normal(group, sub):
        raise GroupError("quotient by a non-normal subgroup is undefined")
    coset_index = [None] * group.order
    if transversal is None:
        reps = []
        for a in range(group.order):
            if coset_index[a] is None:
                reps.append(a)
                for h in sub.members:
                    coset_index[group.mul(a, h)] = len(reps) - 1
        transversal = tuple(reps)
    else:
        transversal = tuple(transversal)
        for q, r in enumerate(transversal):
            for h in sub.members:
                coset_index[group.mul(r, h)] = q
    table = [[coset_index[group.mul(a, b)] for b in transversal] for a in transversal]
    q = FiniteGroup([group.labels[r] for r in transversal], table, validate=False)
    return QuotientData(group, sub, transversal, q, tuple(coset_index))


@pytest.mark.parametrize(
    "group", [make_cyclic(12), make_product([make_cyclic(2), make_cyclic(4)]), s3()], ids=["Z12", "Z2xZ4", "S3"]
)
def test_quotient_reads_table_rows_like_the_method_calls(group):
    # every subgroup, with the greedy transversal and with the largest
    # element of each coset but the identity's; a non-normal one raises
    raised = 0
    for sub in all_subgroups(group):
        assert is_normal(group, sub) == method_call_is_normal(group, sub)
        if not method_call_is_normal(group, sub):
            with pytest.raises(GroupError, match="non-normal"):
                quotient(group, sub)
            raised += 1
            continue
        expected = method_call_quotient(group, sub)
        assert quotient(group, sub) == expected
        cosets = [[a for a, q in enumerate(expected.coset_index) if q == k] for k in range(len(expected.transversal))]
        transversal = [group.identity] + [max(c) for c in cosets[1:]]
        assert quotient(group, sub, transversal) == method_call_quotient(group, sub, transversal)
    assert raised == (3 if group.order == 6 else 0)


def test_delta_subgroup_z2():
    z2 = make_cyclic(2)
    d = delta_subgroup(z2)
    assert [d.parent.labels[m] for m in d.members] == ["(1,1)", "(g,g)"]


def test_delta_subgroup_z4():
    z4 = make_cyclic(4)
    d = delta_subgroup(z4)
    labels = [d.parent.labels[m] for m in d.members]
    assert set(labels) == {"(1,1)", "(g,g3)", "(g2,g2)", "(g3,g)"}
    assert labels[0] == "(1,1)"
    trans = delta_transversal(z4)
    assert [d.parent.labels[t] for t in trans] == ["(1,1)", "(g,1)", "(g2,1)", "(g3,1)"]
    q = quotient(d.parent, d, transversal=trans)
    assert q.quotient.order == 4
    # the coset map (a,b) |-> ab identifies the quotient with Z4
    assert q.quotient.table == z4.table


def test_delta_requires_abelian():
    with pytest.raises(GroupError, match="abelian"):
        delta_subgroup(s3())


def test_subgroup_invariants():
    g = make_cyclic(4)
    with pytest.raises(GroupError):
        Subgroup(g, (1, 0))
    with pytest.raises(GroupError):
        Subgroup(g, (0, 1))  # not closed


def test_as_group_roundtrip():
    g = make_cyclic(4)
    h = subgroup_closure(g, [2]).as_group()
    assert h.order == 2
    assert h.labels == ["1", "g2"]
    assert h.mul(1, 1) == 0


def test_is_abelian_is_decided_once_and_kept():
    # a group read from a table decides once, on the first ask, and keeps it
    z6 = make_cyclic(6)
    for g, abelian in ((FiniteGroup(z6.labels, z6.table), True), (s3(), False)):
        assert g._abelian is None
        assert g.is_abelian() is abelian and g._abelian is abelian
        assert g.is_abelian() is abelian
    # make_cyclic is abelian by construction, and a product is abelian
    # exactly when its factors are: both record it when they are built
    built = (
        (z6, True),
        (make_product([make_cyclic(2), make_cyclic(3)]), True),
        (make_product([make_cyclic(2), FiniteGroup(z6.labels, z6.table)]), True),
        (make_product([make_cyclic(2), s3()]), False),
    )
    for g, abelian in built:
        assert g._abelian is abelian
        assert g.is_abelian() is abelian
        assert FiniteGroup(g.labels, g.table).is_abelian() is abelian


def brute_force_subgroups(group):
    """The closures of all 2^(|G|-1) sets of non-identity seeds, ordered by
    (order, members)."""
    others = [x for x in group.elements() if x != group.identity]
    seen = {}
    for size in range(len(others) + 1):
        for seeds in combinations(others, size):
            sub = subgroup_closure(group, seeds)
            seen[sub.members] = sub
    return [seen[m] for m in sorted(seen, key=lambda m: (len(m), m))]


@pytest.mark.parametrize(
    "group",
    [make_cyclic(n) for n in range(1, 9)]
    + [make_product([make_cyclic(2), make_cyclic(4)]), make_product([make_cyclic(2)] * 2), s3()],
    ids=[f"Z{n}" for n in range(1, 9)] + ["Z2xZ4", "klein", "S3"],
)
def test_all_subgroups_matches_the_closures_of_every_seed_set(group):
    assert all_subgroups(group) == brute_force_subgroups(group)


def test_all_subgroups_of_z48_are_its_ten_cyclic_subgroups():
    subs = all_subgroups(make_cyclic(48))
    assert [sub.order for sub in subs] == [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]
    assert all(sub.members == subgroup_closure(sub.parent, [48 // sub.order % 48]).members for sub in subs)


# The row-wise checks of FiniteGroup and Subgroup against the scalar loops
# that they replaced, kept here as oracles, on valid and perturbed tables
# and member sets.


def scalar_associativity_failure(labels, table):
    """The message of the first (a, b, c) with (ab)c != a(bc), or None."""
    n = len(labels)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return f"table is not associative at ({labels[a]}, {labels[b]}, {labels[c]})"
    return None


def pairwise_closure_failure(parent, members):
    """The message of Subgroup's checks, closure read pair by pair, or None."""
    members = tuple(members)
    if not members or members[0] != parent.identity:
        return "subgroup members must start with the identity"
    mset = set(members)
    if len(mset) != len(members):
        return "subgroup members repeat"
    for a in members:
        if parent.inv(a) not in mset:
            return "subgroup not closed under inverses"
        for b in members:
            if parent.mul(a, b) not in mset:
                return "subgroup not closed under products"
    return None


ORACLE_GROUPS = [make_cyclic(n) for n in (1, 2, 3, 5, 6, 8)] + [
    make_product([make_cyclic(2), make_cyclic(4)]),
    make_product([make_cyclic(2)] * 2),
    s3(),
]


def raised(build):
    try:
        build()
    except GroupError as exc:
        return str(exc)
    return None


@given(st.sampled_from(ORACLE_GROUPS), st.data())
@settings(max_examples=300, deadline=None)
def test_the_row_wise_associativity_check_matches_the_scalar_loop(group, data):
    table = [list(row) for row in group.table]
    n = group.order
    for _ in range(data.draw(st.integers(0, 3))):
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):
            c = data.draw(st.integers(0, n - 1))
            table[a][b], table[a][c] = table[a][c], table[a][b]
        else:
            table[a][b] = data.draw(st.integers(0, n - 1))
    before = raised(lambda: FiniteGroup(group.labels, table, validate=False))
    expected = before or scalar_associativity_failure(group.labels, table)
    assert raised(lambda: FiniteGroup(group.labels, table)) == expected


def test_the_row_wise_associativity_check_names_the_first_triple():
    # Z5 with g g and g g2 swapped in row g, then in column g: the identity
    # and the inverses survive, and the first triple that fails has c = g2
    g = make_cyclic(5)
    table = [list(row) for row in g.table]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    table[1][1], table[2][1] = table[2][1], table[1][1]
    FiniteGroup(g.labels, table, validate=False)
    message = scalar_associativity_failure(g.labels, table)
    assert message == "table is not associative at (g, g, g2)"
    with pytest.raises(GroupError) as exc:
        FiniteGroup(g.labels, table)
    assert str(exc.value) == message


@given(st.sampled_from(ORACLE_GROUPS), st.data())
@settings(max_examples=300, deadline=None)
def test_the_row_wise_closure_check_matches_the_pairwise_loop(group, data):
    n = group.order
    subs = all_subgroups(group)
    members = list(data.draw(st.sampled_from(subs)).members)
    for _ in range(data.draw(st.integers(0, 2))):
        x = data.draw(st.integers(0, n - 1))
        if x in members and data.draw(st.booleans()):
            members.remove(x)
        else:
            members.insert(data.draw(st.integers(0, len(members))), x)
    assert raised(lambda: Subgroup(group, tuple(members))) == pairwise_closure_failure(group, members)
