"""Globalization (T, beta) of a unital partial action, and the psi_H machinery.

The enveloping action is realized inside the function algebra S^G with
(beta_h f)(g) = f(gh): S embeds by s |-> (g |-> alpha_{g^-1}(s 1_g)) and T is
the span of the translates of the embedded copy.  The model is irrelevant to
callers; what is certified is (G1)-(G4) plus the identities 1_g =
beta_g(1_S) 1_S.  Pulling an element of T down to S is reading its slot at
the group identity, since t * iota(1_S) = iota(t(1)).

On a standard carrier whose partial G-set X passes the point-set
certificate, the translates are the indicators of the classes of the
enveloping set G x X / ~ (Abadie; Dokuchaev-Exel), read by the partial
G-set core (:func:`~pargal.gset.envelope`) and built as an action by
:func:`~pargal.paction._orbit_action`, so T, beta and the embedding are
read off the classes without a row reduction,
and the certificate tests that X is the restriction of that set.  Every
other action takes the span of translates and the matrix checks; so does
data that fails that test, so every report and witness is the matrix one.
Either way beta is held once, as the enveloping action, and data of the
wrong shape is refused when it is built.  The subgroup idempotents and
psi_H of a point set are likewise sets of classes and a 0/1 matrix, built
without a product in T.  psi_H is built once, in its e_i form, on either
route; the inclusion-exclusion double sum that defines it is the tests'
oracle (:func:`psi_h` argues why they agree).
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Matrix, canonical_row_form, intersect_modules, kernel, module_contains
from .algebra import (
    Algebra,
    AlgebraError,
    AlgebraMorphism,
    Element,
    SubAlgebra,
    algebra_on_module,
    deferred_labels,
)
from .groups import Subgroup
from . import gset
from .paction import (
    ActionReport,
    Check,
    IsoResult,
    PartialAction,
    _match_iso,
    _orbit_action,
    global_action,
    invariants,
    restrict,
)


@dataclass
class GlobalizationData:
    """A certified global action (T, beta) enveloping a partial action.

    beta is held once, as ``enveloping_action``; T (``algebra``) and
    ``beta`` are read off it, so an action on points writes its matrices
    only when ``beta`` is read.  Data of the wrong shape
    (:func:`_shape_failure`) raises :class:`~pargal.algebra.AlgebraError`
    when it is built, by ``dataclasses.replace`` too.  ``down`` composes
    t |-> t * 1_S with the inverse of the embedding, on all of T.
    """

    action: PartialAction
    enveloping_action: PartialAction  # beta, the global action of G on T
    embed: AlgebraMorphism  # S -> T (non-unital; image is the ideal T*iota(1_S))
    one_s: Element  # iota(1_S) as an element of T
    down: Matrix  # T coords -> S coords of t(1) = iota^{-1}(t * iota(1_S))

    def __post_init__(self):
        shape = _shape_failure(self)
        if shape is not None:
            raise AlgebraError(shape)

    @property
    def group(self):
        return self.action.group

    @property
    def algebra(self) -> Algebra:  # T, with structure constants of its own
        return self.enveloping_action.algebra

    @property
    def beta(self) -> tuple:  # per group element, a T -> T matrix
        return self.enveloping_action.maps


def _function_algebra(act: PartialAction) -> Algebra:
    S = act.algebra
    n, s_table = S.rank, S.table
    table = {}
    for g in act.group.elements():
        base = g * n
        for i in range(n):
            for j in range(n):
                entries = s_table[i][j]
                if entries:
                    table[(base + i, base + j)] = tuple((base + k, c) for k, c in entries)
    labels = [f"{g}:{lab}" for g in act.group.labels for lab in S.labels]
    unit = list(S.unit) * act.group.order
    return Algebra(S.ring, labels, table, unit, validate=False)


def globalize(act: PartialAction) -> GlobalizationData:
    """Construct and certify the enveloping action of a unital partial action.

    The globalization is unique up to global isomorphism (Abadie;
    Dokuchaev-Exel), so one presentation is built: slot g of S^G is the
    g-th block of n coordinates.  A standard carrier whose partial G-set
    passes the point-set certificate (:attr:`PartialAction.points`)
    is globalized on its enveloping set (:func:`_globalize_points`); any
    other action goes through the span of translates in S^G
    (:func:`_globalize_matrices`).  Both build the same data.
    """
    points = act.points
    gd = _globalize_points(act, points) if points is not None else _globalize_matrices(act)
    rep = certify_globalization(gd)
    if not rep.passed:
        raise AssertionError(
            "globalization certificate failed (bug trap): "
            + "; ".join(f"{c.name}: {c.witness}" for c in rep.failures())
        )
    return gd


def _globalize_points(act: PartialAction, points) -> GlobalizationData:
    """The globalization of the certified partial G-set X of ``act``, its
    record ``points``, on the enveloping set G x X / ~
    (:func:`~pargal.gset.envelope`).  The indicators of the classes are the
    rows of the canonical row form that :func:`_globalize_matrices`
    computes, so T is split on them, beta_t permutes them by pi_t, the
    enveloping action (:func:`~pargal.paction._orbit_action`, labelled by
    the points g:<label>), and e_x embeds as the class c(x) of (1, x)."""
    G, S = act.group, act.algebra
    ring, n = S.ring, S.rank
    classes, pis, c = gset.envelope(G, points)
    group_labels = G.labels
    point_labels = deferred_labels(lambda labels: [f"{g}:{lab}" for g in group_labels for lab in labels], S)
    env = _orbit_action(G, ring, classes, pis, point_labels, "beta")
    T, k = env.algebra, len(classes)
    embed = [[0] * n for _ in range(k)]
    down = [[0] * k for _ in range(n)]
    one_s = [0] * k
    for x in range(n):
        j = c[G.identity * n + x]
        embed[j][x] = down[x][j] = one_s[j] = 1
    return GlobalizationData(
        act, env, AlgebraMorphism(S, T, Matrix(ring, embed, n)), Element(T, one_s), Matrix(ring, down, k)
    )


def _globalize_matrices(act: PartialAction) -> GlobalizationData:
    """The globalization of any unital partial action, as the span of the
    translates of iota(S) inside S^G."""
    G = act.group
    S = act.algebra
    ring = S.ring
    n = S.rank
    F = _function_algebra(act)

    # iota(s)(g) = alpha_g(s 1_{g^-1}): block at slot g is M_g.  This is the
    # pairing consistent with (beta_h f)(g) = f(gh); the slot at the group
    # identity is then a section of the embedding.
    iota_rows = []
    for g in G.elements():
        iota_rows.extend(act.maps[g].rows)
    iota = Matrix(ring, iota_rows, n)

    # (beta_h f)(g) = f(gh): slot g of the image reads slot gh of the argument
    def beta(h: int, vec) -> list:
        out = []
        for g in G.elements():
            src = G.mul(g, h) * n
            out.extend(vec[src : src + n])
        return out

    iota_cols = iota.transpose().rows  # iota(b_i) as vectors
    span_rows = [beta(h, col) for h in G.elements() for col in iota_cols]
    t_rows = canonical_row_form(Matrix(ring, span_rows, F.rank))

    # unit of T: 1_F - prod_g (1_F - beta_g(iota(1_S)))
    one_f = list(F.unit)
    prod = one_f
    for h in G.elements():
        u = beta(h, iota.matvec(list(S.unit)))
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
        cols = [to_t(beta(h, row)) for row in t_rows.rows]
        beta_t.append(Matrix(ring, [list(r) for r in zip(*cols)], k))
    embed_cols = [to_t(col) for col in iota_cols]
    embed = AlgebraMorphism(S, T, Matrix(ring, [list(r) for r in zip(*embed_cols)], n))
    one_s = Element(T, to_t(iota.matvec(list(S.unit))))
    down = Matrix(ring, [[t_rows.rows[j][G.identity * n + i] for j in range(k)] for i in range(n)], k)
    return GlobalizationData(act, global_action(G, T, beta_t), embed, one_s, down)


# the checks of certify_globalization, in the order it reports them
_AUTOMORPHISMS = "beta_g are algebra automorphisms"
_GROUP_ACTION = "beta is a group action"
_G1 = "(G1) iota(S) is an ideal of T"
_G2 = "(G2) iota(S_g) = iota(S) /\\ beta_g(iota(S))"
_G3 = "(G3) beta_g extends alpha_g on S_(g^-1)"
_G4 = "(G4) T = sum_g beta_g(iota(S))"
_UNITS = "1_g = beta_g(1_S) 1_S"
_PULL_DOWN = "pull-down splits the embedding"
_GLOBALIZATION_CHECKS = (_AUTOMORPHISMS, _GROUP_ACTION, _G1, _G2, _G3, _G4, _UNITS, _PULL_DOWN)


def certify_globalization(gd: GlobalizationData) -> ActionReport:
    """Check that beta is a global action satisfying (G1)-(G4) and Eq-style
    compatibility 1_g = beta_g(1_S) 1_S.

    Data that :func:`_certified_on_points` reads as the restriction of an
    enveloping set passes every check.  Any other data runs the checks on
    matrices (:func:`_certify_on_matrices`), which name the witness of each
    failure.
    """
    if _certified_on_points(gd):
        return ActionReport([Check(name, True) for name in _GLOBALIZATION_CHECKS])
    return _certify_on_matrices(gd)


def _shape_failure(gd: GlobalizationData) -> str | None:
    """What in ``gd`` has the wrong group or shape, or None when the
    enveloping action is a global action of the group of the action, the
    embedding k x n, the pull-down n x k and 1_S k coordinates.  The count
    and shape of the beta matrices are checked where the enveloping action
    is built (:class:`~pargal.paction.PartialAction`).  An enveloping
    action with a certified point set (:attr:`PartialAction.points`) is
    global when each a_g is total: 1_g, the indicator of the domain of
    a_(g^-1), is then 1_T, so no 1_g is written."""
    env, G = gd.enveloping_action, gd.group
    if env.group != G:
        return "beta acts by another group than the action"
    pis = env.points
    if pis is not None:
        bad = next((g for g in G.elements() if None in pis.maps[G.inv(g)]), None)
    else:
        one = env.algebra.one()
        bad = next((g for g in G.elements() if env.idems[g] != one), None)
    if bad is not None:
        return f"beta is not global: 1_{G.labels[bad]} != 1_T"
    n, k = gd.action.algebra.rank, env.algebra.rank
    for what, m, rows, cols in (("the embedding", gd.embed.matrix, k, n), ("the pull-down", gd.down, n, k)):
        if (m.nrows, m.ncols) != (rows, cols):
            return f"{what} is {m.nrows} x {m.ncols}, not {rows} x {cols}"
    return None if len(gd.one_s.coords) == k else f"1_S has {len(gd.one_s.coords)} coordinates, not {k}"


def _certified_on_points(gd: GlobalizationData) -> bool:
    """Whether ``gd`` is the restriction of its enveloping set to the points
    of the action, in O(|G| k + n^2).

    It reads ``gd`` when the action has a certified point set X, the maps
    a_g (:attr:`PartialAction.points`), and so has the enveloping
    action (:attr:`GlobalizationData.enveloping_action`), the pi_g: on
    total maps, T is split and beta_g is the permutation matrix of pi_g,
    with pi_1 = id and pi_g pi_h = pi_gh.  The embedding must send e_x to
    one class c(x), c injective; write C = c(X).  The test is the
    definition of a globalization: 1_S = 1_C, a_g(x) = c^-1(pi_g(c(x)))
    where pi_g(c(x)) lies in C and a_g(x) is undefined elsewhere, the
    pi_g(C) cover the classes, and the pull-down splits the embedding.

    Passing implies every check of :func:`_certify_on_matrices`.  A
    permutation matrix is a unital automorphism of a split algebra, and
    T e_c(x) is spanned by e_c(x), which is (G1).  The restriction is (G3):
    column x of beta_g iota E_(g^-1) and of iota M_g is e_(pi_g(c(x))) =
    e_(c(a_g(x))) where a_g is defined, on D_(g^-1), and 0 off it.  At
    g^-1 it is (G2), since a span of unit vectors is read off its support:
    D_g, the domain of a_(g^-1), is the x with pi_g^-1(c(x)) in C, so
    c(D_g) = C /\\ pi_g(C).  With 1_S = 1_C, beta_g(1_S) 1_S is the
    indicator of that set, as iota(1_g) is, which is the units check; at
    g = 1 it reads 1_S 1_S = 1_C, so an idempotent 1_S passes only as 1_C.
    (G4) is the cover, and entry (i, x) of ``down`` iota is down[i][c(x)].
    A failure here proves nothing; the caller then runs the matrix checks.
    """
    points = gd.action.points
    pis = None if points is None else gd.enveloping_action.points
    c = gset.row_sources(zip(*gd.embed.matrix.rows))
    if pis is None or c is None or None in c:
        return False
    n, k = len(c), gd.algebra.rank
    inverse = {j: x for x, j in enumerate(c)}
    if len(inverse) != n or gd.one_s.coords != tuple(int(j in inverse) for j in range(k)):
        return False
    if any([inverse.get(pi[j]) for j in c] != a for pi, a in zip(pis.maps, points.maps)):
        return False
    if {pi[j] for pi in pis.maps for j in c} != set(range(k)):
        return False
    return all(gd.down.rows[i][j] == (1 if i == x else 0) for i in range(n) for x, j in enumerate(c))


def _certify_on_matrices(gd: GlobalizationData) -> ActionReport:
    """The checks of :func:`certify_globalization` on the matrices of
    ``gd``, each with its first witness."""
    act, T, beta, emb = gd.action, gd.algebra, gd.beta, gd.embed.matrix
    G, ring, rep = act.group, T.ring, ActionReport()

    def add(name, witness):
        rep.add(name, witness is None, witness)

    def first_g(fails):
        """g=... for the first group element g where ``fails(g)``, or None."""
        return next((f"g={G.labels[g]}" for g in G.elements() if fails(g)), None)

    def automorphism(m):
        mor = AlgebraMorphism(T, T, m)
        return mor.multiplicative_failure() is None and mor.is_unital() and mor.is_bijective()

    bad = next((g for g in G.elements() if not automorphism(beta[g])), None)
    add(_AUTOMORPHISMS, None if bad is None else f"beta_{G.labels[bad]} is not an automorphism")

    if not beta[G.identity].is_identity():
        add(_GROUP_ACTION, "beta_1 != id")
    else:
        pairs = ((g, h) for g in G.elements() for h in G.elements() if beta[g].mul(beta[h]) != beta[G.mul(g, h)])
        add(_GROUP_ACTION, next((f"beta_{G.labels[g]} beta_{G.labels[h]} != beta_(gh)" for g, h in pairs), None))

    iota_cols = emb.transpose().rows  # iota(s_i) for the basis s_i of S
    emb_module = canonical_row_form(emb.transpose())
    units = Matrix.identity(ring, T.rank).rows
    products = ((i, T.mul_coords(e, col)) for e in units for i, col in enumerate(iota_cols))
    escapes = (i for i, prod in products if not module_contains(emb_module, prod))
    add(_G1, next((f"T*iota({act.algebra.labels[i]}) escapes iota(S)" for i in escapes), None))

    def translates(g):
        return Matrix.from_rows(ring, [beta[g].matvec(col) for col in iota_cols], T.rank)

    def g2_fails(g):
        lhs = Matrix.from_rows(ring, [emb.matvec(list(row)) for row in act.ideal(g).basis.rows], T.rank)
        return canonical_row_form(lhs) != intersect_modules(emb_module, translates(g))

    add(_G2, first_g(g2_fails))
    add(_G3, first_g(lambda g: beta[g].mul(emb).mul(act.idem_matrix(G.inv(g))) != emb.mul(act.maps[g])))
    span = Matrix.from_rows(ring, [row for g in G.elements() for row in translates(g).rows], T.rank)
    add(_G4, None if canonical_row_form(span).is_identity() else "span of translates is a proper submodule")
    one = gd.one_s
    add(_UNITS, first_g(lambda g: Element(T, beta[g].matvec(list(one.coords))) * one != gd.embed(act.idems[g])))
    # restricting the globalization reproduces the action matrix-for-matrix:
    # beta_g on iota(S_{g^-1}) equals iota alpha_g, already (G3); idempotents
    # are recovered by the previous check; the down map splits the embedding.
    add(_PULL_DOWN, None if gd.down.mul(emb).is_identity() else "down o iota != id")
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


def _class_translates(gd: GlobalizationData, sub: Subgroup):
    """(backs, ups): for each h_i in ``sub.members`` the back map
    pi_(h_i^-1) = pi_(h_i)^-1 of beta_(h_i) on the classes of
    :func:`_globalize_points`, so that (beta_(h_i) v)_c =
    v[pi_(h_i^-1)(c)], and the set of classes of beta_(h_i)(1_S).  The pi_g
    are the point set of the enveloping action
    (:attr:`GlobalizationData.enveloping_action`).  None unless it and the
    action have certified point sets (:attr:`PartialAction.points`)
    and 1_S is 0/1."""
    one = gd.one_s.coords
    env = gd.enveloping_action
    pis = None if gd.action.points is None else env.points
    if pis is None or one.count(0) + one.count(1) != len(one):
        return None
    backs = [pis.maps[gd.group.inv(h)] for h in sub.members]
    return backs, [{c for c, s in enumerate(back) if one[s] == 1} for back in backs]


def subgroup_idempotents(gd: GlobalizationData, sub: Subgroup) -> SubgroupIdempotents:
    """e_1 = 1_S, e_i = prod_{j<i} (1_T - beta_{h_j}(1_S)) * beta_{h_i}(1_S).

    On classes (:func:`_class_translates`) e_i is the indicator of the
    classes of beta_(h_i)(1_S) in no earlier one: disjoint 0/1 vectors,
    which pass the checks of :func:`_idempotents_on_matrices` by
    construction."""
    classes = _class_translates(gd, sub)
    if classes is None:
        return _idempotents_on_matrices(gd, sub)
    k = gd.algebra.rank
    eis, union = [], set()
    for up in classes[1]:
        eis.append(Element(gd.algebra, tuple(int(c in up and c not in union) for c in range(k))))
        union |= up
    return SubgroupIdempotents(sub, eis, Element(gd.algebra, tuple(int(c in union) for c in range(k))))


def _idempotents_on_matrices(gd: GlobalizationData, sub: Subgroup) -> SubgroupIdempotents:
    """:func:`subgroup_idempotents` as products of elements of T, checked."""
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
    """psi_H(t) = sum_i beta_(h_i)(t) e_i over the members h_1, ..., h_m of
    ``sub`` in order.  ``idems``, when the caller has them, must be
    ``subgroup_idempotents(gd, sub)``.

    This is the defining inclusion-exclusion double sum: with u_i =
    beta_(h_i)(1_S) and u_A the product of the u_i over i in A, psi_H is
    the sum over nonempty A of {1..m} of (-1)^(|A|+1) u_A beta_(h_(max A)).
    Group its terms by j = max A and write A = B u {j} with B of {i < j}:
    they add up to (sum_B (-1)^|B| u_B) u_j beta_(h_j) = prod_(i<j) (1 - u_i)
    u_j beta_(h_j) = e_j beta_(h_j).  That uses only commutativity and
    distributivity, so it holds in any commutative ring and for any u_i, on
    both routes (``mult_matrix`` is linear).  :func:`subgroup_idempotents`
    defines e_j by exactly that product (:func:`_idempotents_on_matrices`),
    or as the classes of u_j in no earlier u_i, which is the same product of
    0/1 indicators.  So psi_H is built once, in O(|H| k) on classes and with
    |H| products in T otherwise; the tests hold the double sum as its oracle.

    On classes (:func:`_class_translates`) row c of e_i beta_(h_i) is e_i(c)
    at column pi_(h_i)^-1(c)."""
    if idems is None:
        idems = subgroup_idempotents(gd, sub)
    classes = _class_translates(gd, sub)
    if classes is None:
        return _psi_on_matrices(gd, sub, idems)
    T = gd.algebra
    ring, k = T.ring, T.rank
    rows = [[0] * k for _ in range(k)]
    for back, e in zip(classes[0], idems.eis):
        for c, v in enumerate(e.coords):
            if v != 0:
                rows[c][back[c]] = ring.add(rows[c][back[c]], v)
    return AlgebraMorphism(T, T, Matrix(ring, rows, k))


def _psi_on_matrices(gd: GlobalizationData, sub: Subgroup, idems: SubgroupIdempotents) -> AlgebraMorphism:
    """:func:`psi_h` as a sum of |H| k x k matrix products."""
    T = gd.algebra
    total = Matrix.zero(T.ring, T.rank, T.rank)
    for h, e in zip(sub.members, idems.eis):
        total = total.add(T.mult_matrix(e.coords).mul(gd.beta[h]))
    return AlgebraMorphism(T, T, total)


def fixed_ring(gd: GlobalizationData, sub: Subgroup) -> SubAlgebra:
    """T^H as a subalgebra of T: the invariants of beta restricted to H,
    whose constraints beta_h - 1_h are beta_h - I, since 1_h = 1_T.  A
    certified point set of beta is handed to the restriction
    (:func:`~pargal.paction.restrict`)."""
    return invariants(restrict(gd.enveloping_action, sub))


def _pull(gd: GlobalizationData, t) -> list:
    """iota^-1(t 1_S): the S coordinates of the T coordinates t times 1_S."""
    return gd.down.matvec(gd.algebra.mul_coords(t, gd.one_s.coords))


def psi_report(gd: GlobalizationData, sub: Subgroup) -> ActionReport:
    """The psi_H property suite (injectivity on S, e_H, fixed-ring identities)."""
    T = gd.algebra
    S = gd.action.algebra
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

    # T^H 1_S = S^{alpha_H} as modules of S; both bases come from
    # invariants, in canonical row form
    th = fixed_ring(gd, sub)
    s_ah = invariants(restrict(gd.action, sub))
    lhs = canonical_row_form(Matrix.from_rows(S.ring, [_pull(gd, row) for row in th.basis.rows], S.rank))
    rep.add("T^H 1_S = S^(alpha_H)", lhs == s_ah.basis, None)

    # psi_H(S^{alpha_H}) <= T^H, and multiplication by 1_S inverts it
    ok, ok_inv = True, True
    e_h_mat = T.mult_matrix(e_h.coords)
    for row in s_ah.basis.rows:
        t = psi.matrix.matvec(gd.embed.matrix.matvec(list(row)))
        if not module_contains(th.basis, t):
            ok = False
        if e_h_mat.matvec(t) != t:
            ok_inv = False
        if _pull(gd, t) != list(row):
            ok_inv = False
    rep.add("psi_H(S^(alpha_H)) <= T^H", ok, None)
    rep.add("psi_H: S^(alpha_H) ~ T^H e_H with inverse mult by 1_S", ok_inv, None)

    # left/right T^H-linearity on a spanning set
    linear = True
    for acoords in th.basis.rows:
        ea = T.mult_matrix(acoords)
        if psi.matrix.mul(ea) != ea.mul(psi.matrix):
            linear = False
            break
    rep.add("psi_H is T^H-linear", linear, None)
    return rep


def global_iso_check(gd1: GlobalizationData, gd2: GlobalizationData) -> IsoResult:
    """Global G-isomorphism: beta-equivariant with f(1_S) = 1_S', decided as
    ``iso_check`` on the global actions with the points under 1_S coloured."""
    if gd1.group != gd2.group:
        raise AlgebraError("global_iso_check: different groups")
    return _match_iso(gd1.enveloping_action, gd2.enveloping_action, (gd1.one_s, gd2.one_s))
