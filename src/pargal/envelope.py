"""Globalization (T, beta) of a unital partial action, and the psi_H machinery.

The enveloping action is realized inside the function algebra S^G with
(beta_h f)(g) = f(gh): S embeds by s |-> (g |-> alpha_{g^-1}(s 1_g)) and T is
the span of the translates of the embedded copy.  The model is irrelevant to
callers; what is certified is (G1)-(G4) plus the identities 1_g =
beta_g(1_S) 1_S.  Pulling an element of T down to S is reading its slot at
the group identity, since t * iota(1_S) = iota(t(1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .scalars import Matrix, canonical_row_form, intersect_modules, module_contains, modules_equal
from .algebra import (
    Algebra,
    AlgebraError,
    AlgebraMorphism,
    Element,
    SubAlgebra,
    algebra_on_module,
    subalgebra_from_constraints,
)
from .groups import Subgroup
from .paction import ActionReport, IsoResult, PartialAction, _match_iso, global_action


@dataclass
class GlobalizationData:
    """A certified global action (T, beta) enveloping a partial action.

    ``down`` maps T coordinates to S coordinates of t * 1_S (composed with
    the inverse of the embedding; defined on all of T).
    """

    action: PartialAction
    algebra: Algebra  # T, with structure constants of its own
    beta: list  # per group element, a T -> T matrix
    embed: AlgebraMorphism  # S -> T (non-unital; image is the ideal T*iota(1_S))
    one_s: Element  # iota(1_S) as an element of T
    down: Matrix  # T coords -> S coords of t(1) = iota^{-1}(t * iota(1_S))

    @property
    def group(self):
        return self.action.group


def _function_algebra(act: PartialAction, slot_order) -> Algebra:
    S = act.algebra
    n = S.rank
    table = {}
    for slot in range(len(slot_order)):
        base = slot * n
        for i in range(n):
            for j in range(n):
                entries = S.table[i][j]
                if entries:
                    table[(base + i, base + j)] = tuple((base + k, c) for k, c in entries)
    labels = [f"{act.group.labels[g]}:{lab}" for g in slot_order for lab in S.labels]
    unit = list(S.unit) * len(slot_order)
    return Algebra(S.ring, labels, table, unit, validate=False)


def globalize(act: PartialAction, slot_order=None) -> GlobalizationData:
    """Construct and certify the enveloping action of a unital partial action.

    ``slot_order`` permutes the internal presentation only (used to exercise
    uniqueness up to global isomorphism); the certificates are independent
    of it.
    """
    G = act.group
    S = act.algebra
    ring = S.ring
    n = S.rank
    if slot_order is None:
        slot_order = tuple(G.elements())
    else:
        slot_order = tuple(slot_order)
        if sorted(slot_order) != list(G.elements()):
            raise AlgebraError("slot_order must permute the group elements")
    F = _function_algebra(act, slot_order)
    slot_of = {g: i for i, g in enumerate(slot_order)}

    # iota(s)(g) = alpha_g(s 1_{g^-1}): block at slot g is M_g.  This is the
    # pairing consistent with (beta_h f)(g) = f(gh); the slot at the group
    # identity is then a section of the embedding.
    iota_rows = []
    for g in slot_order:
        iota_rows.extend(act.maps[g].rows)
    iota = Matrix(ring, iota_rows, n)

    # (beta_h f)(g) = f(gh): slot g of the image reads slot gh of the argument
    def beta_ambient(h: int) -> Matrix:
        m = Matrix.zero(ring, F.rank, F.rank)
        for g in G.elements():
            src = slot_of[G.mul(g, h)] * n
            dst = slot_of[g] * n
            for i in range(n):
                m.rows[dst + i][src + i] = 1
        return m

    betas_f = [beta_ambient(h) for h in G.elements()]
    span_rows = []
    iota_cols = iota.transpose().rows  # iota(b_i) as vectors
    for h in G.elements():
        bh = betas_f[h]
        for col in iota_cols:
            span_rows.append(bh.matvec(col))
    t_rows = canonical_row_form(Matrix(ring, span_rows, F.rank))

    # unit of T: 1_F - prod_g (1_F - beta_g(iota(1_S)))
    one_f = list(F.unit)
    prod = one_f
    for h in G.elements():
        u = betas_f[h].matvec(iota.matvec(list(S.unit)))
        factor = [ring.sub(a, b) for a, b in zip(one_f, u)]
        prod = F.mul_coords(prod, factor)
    t_unit = [ring.sub(a, b) for a, b in zip(one_f, prod)]

    sub = algebra_on_module(F, t_rows, t_unit, what="globalization T")
    T = sub.algebra
    k = T.rank

    def to_t(vec) -> list:
        got = sub.express(vec)
        if got is None:
            raise AssertionError("globalization: vector escapes T (bug trap)")
        return got

    beta_t = []
    for h in G.elements():
        cols = [to_t(betas_f[h].matvec(row)) for row in t_rows.rows]
        beta_t.append(Matrix(ring, [list(r) for r in zip(*cols)], k))
    embed_cols = [to_t(col) for col in iota_cols]
    embed = AlgebraMorphism(S, T, Matrix(ring, [list(r) for r in zip(*embed_cols)], n))
    one_s = Element(T, to_t(iota.matvec(list(S.unit))))
    slot = slot_order.index(G.identity)
    down = Matrix(ring, [[t_rows.rows[j][slot * n + i] for j in range(k)] for i in range(n)], k)

    gd = GlobalizationData(act, T, beta_t, embed, one_s, down)
    rep = certify_globalization(gd)
    if not rep.passed:
        raise AssertionError(
            "globalization certificate failed (bug trap): "
            + "; ".join(f"{c.name}: {c.witness}" for c in rep.failures())
        )
    return gd


def certify_globalization(gd: GlobalizationData) -> ActionReport:
    """Check that beta is a global action satisfying (G1)-(G4) and Eq-style
    compatibility 1_g = beta_g(1_S) 1_S."""
    act = gd.action
    G = act.group
    T = gd.algebra
    ring = T.ring
    rep = ActionReport()

    ok, witness = True, None
    for g in G.elements():
        mor = AlgebraMorphism(T, T, gd.beta[g])
        fail = mor.multiplicative_failure()
        if fail is not None or not mor.is_unital() or not mor.is_bijective():
            ok, witness = False, f"beta_{G.labels[g]} is not an automorphism"
            break
    rep.add("beta_g are algebra automorphisms", ok, witness)

    ok = gd.beta[G.identity].is_identity()
    witness = None
    if ok:
        for g in G.elements():
            for h in G.elements():
                if gd.beta[g].mul(gd.beta[h]) != gd.beta[G.mul(g, h)]:
                    ok, witness = False, f"beta_{G.labels[g]} beta_{G.labels[h]} != beta_(gh)"
                    break
            if not ok:
                break
    else:
        witness = "beta_1 != id"
    rep.add("beta is a group action", ok, witness)

    emb = gd.embed.matrix
    iota_cols = emb.transpose().rows  # iota(s_i) for the basis s_i of S
    emb_module = canonical_row_form(emb.transpose())
    ok, witness = True, None
    for j in range(T.rank):
        for i, col in enumerate(iota_cols):
            prod = T.mul_coords([1 if t == j else 0 for t in range(T.rank)], col)
            if not module_contains(emb_module, prod):
                ok, witness = False, f"T*iota({act.algebra.labels[i]}) escapes iota(S)"
                break
        if not ok:
            break
    rep.add("(G1) iota(S) is an ideal of T", ok, witness)

    ok, witness = True, None
    for g in G.elements():
        ideal_rows = [emb.matvec(list(row)) for row in act.ideal(g).basis.rows]
        lhs = Matrix.from_rows(ring, ideal_rows, T.rank)
        beta_s = Matrix.from_rows(ring, [gd.beta[g].matvec(col) for col in iota_cols], T.rank)
        rhs = intersect_modules(emb_module, canonical_row_form(beta_s))
        if not modules_equal(lhs, rhs):
            ok, witness = False, f"g={G.labels[g]}"
            break
    rep.add("(G2) iota(S_g) = iota(S) /\\ beta_g(iota(S))", ok, witness)

    ok, witness = True, None
    for g in G.elements():
        gi = G.inv(g)
        lhs = gd.beta[g].mul(emb).mul(act.idem_matrix(gi))
        rhs = emb.mul(act.maps[g])
        if lhs != rhs:
            ok, witness = False, f"g={G.labels[g]}"
            break
    rep.add("(G3) beta_g extends alpha_g on S_(g^-1)", ok, witness)

    span = [gd.beta[g].matvec(col) for g in G.elements() for col in iota_cols]
    ok = modules_equal(Matrix.from_rows(ring, span, T.rank), Matrix.identity(ring, T.rank))
    rep.add("(G4) T = sum_g beta_g(iota(S))", ok, None if ok else "span of translates is a proper submodule")

    ok, witness = True, None
    for g in G.elements():
        lhs = Element(T, gd.beta[g].matvec(list(gd.one_s.coords))) * gd.one_s
        rhs = gd.embed(act.idems[g])
        if lhs != rhs:
            ok, witness = False, f"g={G.labels[g]}"
            break
    rep.add("1_g = beta_g(1_S) 1_S", ok, witness)

    # restricting the globalization reproduces the action matrix-for-matrix:
    # beta_g on iota(S_{g^-1}) equals iota alpha_g, already (G3); idempotents
    # are recovered by the previous check; the down map splits the embedding.
    ok = gd.down.mul(emb).is_identity()
    rep.add("pull-down splits the embedding", ok, None if ok else "down o iota != id")
    return rep


@dataclass
class SubgroupIdempotents:
    sub: Subgroup
    eis: list  # orthogonal idempotents e_1..e_m of T
    e_h: Element

    def check(self):
        for i, e in enumerate(self.eis):
            if not e.is_idempotent():
                raise AssertionError(f"e_{i + 1} is not idempotent")
            for f in self.eis[i + 1 :]:
                if not (e * f).is_zero():
                    raise AssertionError("subgroup idempotents are not orthogonal")


def subgroup_idempotents(gd: GlobalizationData, sub: Subgroup) -> SubgroupIdempotents:
    """e_1 = 1_S, e_i = prod_{j<i} (1_T - beta_{h_j}(1_S)) * beta_{h_i}(1_S)."""
    T = gd.algebra
    one_t = T.one()
    translates = [Element(T, gd.beta[h].matvec(list(gd.one_s.coords))) for h in sub.members]
    eis = []
    for i, ui in enumerate(translates):
        e = ui
        for uj in translates[:i]:
            e = e * (one_t - uj)
        eis.append(e)
    out = SubgroupIdempotents(sub, eis, sum(eis[1:], eis[0]))
    out.check()
    for ui, ei in zip(translates, eis):
        if ui * ei != ei:
            raise AssertionError("subgroup_idempotents: beta_{h_i}(1_S) e_i = e_i fails (bug trap)")
    return out


def psi_h(gd: GlobalizationData, sub: Subgroup, idems: SubgroupIdempotents | None = None) -> AlgebraMorphism:
    """psi_H(t) = sum_i beta_{h_i}(t) e_i, cross-checked against the defining
    inclusion-exclusion double sum (disagreement is a bug trap).  ``idems``
    are the subgroup idempotents of ``sub`` when the caller has them."""
    T = gd.algebra
    ring = T.ring
    if idems is None:
        idems = subgroup_idempotents(gd, sub)
    total = Matrix.zero(ring, T.rank, T.rank)
    for h, e in zip(sub.members, idems.eis):
        total = total.add(T.mult_matrix(e.coords).mul(gd.beta[h]))

    translates = [Element(T, gd.beta[h].matvec(list(gd.one_s.coords))) for h in sub.members]
    alt = Matrix.zero(ring, T.rank, T.rank)
    m = len(sub.members)
    for l in range(1, m + 1):
        for subset in combinations(range(m), l):
            coeff = T.one()
            for idx in subset:
                coeff = coeff * translates[idx]
            term = T.mult_matrix(coeff.coords).mul(gd.beta[sub.members[subset[-1]]])
            if l % 2 == 1:
                alt = alt.add(term)
            else:
                alt = alt.sub(term)
    if alt != total:
        raise AssertionError("psi_H: double-sum form disagrees with the e_i form (bug trap)")
    return AlgebraMorphism(T, T, total)


def fixed_ring(gd: GlobalizationData, sub: Subgroup) -> SubAlgebra:
    """T^H as a subalgebra of T."""
    T = gd.algebra
    rows = []
    ident = Matrix.identity(T.ring, T.rank)
    for h in sub.members:
        rows.extend(gd.beta[h].sub(ident).rows)
    return subalgebra_from_constraints(T, Matrix.from_rows(T.ring, rows, T.rank))


def psi_report(gd: GlobalizationData, sub: Subgroup) -> ActionReport:
    """The psi_H property suite (injectivity on S, e_H, fixed-ring identities)."""
    from .paction import invariants, restrict
    from .scalars import kernel

    T = gd.algebra
    ring = T.ring
    G = gd.group
    rep = ActionReport()
    idems = subgroup_idempotents(gd, sub)
    psi = psi_h(gd, sub, idems)
    e_h = idems.e_h

    rep.add(
        "e_H = psi_H(1_S)",
        psi(gd.one_s) == e_h,
        None,
    )
    rep.add("e_H is a central idempotent", e_h.is_idempotent(), None)

    on_s = psi.matrix.mul(gd.embed.matrix)
    rep.add("psi_H restricted to S is injective", kernel(on_s).nrows == 0, None)

    is_full = sub.order == G.order
    rep.add(
        "psi_H(1_S) = 1_T iff H = G",
        (psi(gd.one_s) == T.one()) == is_full,
        f"H order {sub.order}",
    )

    th = fixed_ring(gd, sub)
    s_ah = invariants(restrict(gd.action, sub))
    # T^H 1_S = S^{alpha_H} as modules of S
    down = gd.down
    th_rows = [down.matvec(T.mul_coords(row_coords, list(gd.one_s.coords))) for row_coords in _sub_coords(th)]
    lhs = canonical_row_form(Matrix.from_rows(gd.action.algebra.ring, th_rows, gd.action.algebra.rank))
    rep.add("T^H 1_S = S^(alpha_H)", lhs == canonical_row_form(s_ah.basis), None)

    # psi_H(S^{alpha_H}) <= T^H, and multiplication by 1_S inverts it
    th_module = canonical_row_form(Matrix.from_rows(ring, _sub_coords(th), T.rank))
    ok, ok_inv = True, True
    e_h_mat = T.mult_matrix(e_h.coords)
    for row in s_ah.basis.rows:
        t = psi.matrix.matvec(gd.embed.matrix.matvec(list(row)))
        if not module_contains(th_module, t):
            ok = False
        if e_h_mat.matvec(t) != t:
            ok_inv = False
        back = down.matvec(T.mul_coords(t, list(gd.one_s.coords)))
        if back != list(row):
            ok_inv = False
    rep.add("psi_H(S^(alpha_H)) <= T^H", ok, None)
    rep.add("psi_H: S^(alpha_H) ~ T^H e_H with inverse mult by 1_S", ok_inv, None)

    # left/right T^H-linearity on a spanning set
    linear = True
    for acoords in _sub_coords(th):
        ea = T.mult_matrix(acoords)
        if psi.matrix.mul(ea) != ea.mul(psi.matrix):
            linear = False
            break
    rep.add("psi_H is T^H-linear", linear, None)
    return rep


def _sub_coords(sub: SubAlgebra):
    return [list(r) for r in sub.basis.rows]


def global_iso_check(gd1: GlobalizationData, gd2: GlobalizationData) -> IsoResult:
    """Global G-isomorphism: beta-equivariant with f(1_S) = 1_S', decided as
    ``iso_check`` on the global actions with the points under 1_S coloured."""
    if gd1.group != gd2.group:
        raise AlgebraError("global_iso_check: different groups")
    t1 = global_action(gd1.group, gd1.algebra, gd1.beta)
    t2 = global_action(gd2.group, gd2.algebra, gd2.beta)
    return _match_iso(t1, t2, (gd1.one_s, gd2.one_s))
