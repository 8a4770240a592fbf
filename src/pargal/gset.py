"""Partial G-sets on points: the core that every point route reads.

A partial G-set on the points 0 .. r - 1 is one partial map per group
element, maps[g][i] = a_g(i), or None off the domain of a_g.  On R^X on its
standard basis it is the partial action whose 1_g is the indicator of the
domain of a_(g^-1) and whose alpha_g sends e_i to e_(a_g(i));
:mod:`pargal.paction` keeps that view.  This module holds plain lists only,
with no algebra: the reader and the certificate, whose one walk yields the
record of a partial G-set (:class:`PartialGSet`), the one orbit read of its
quotients with the move of each (the H-quotient, the delta-G quotients of
the product X x Y and of the hat set P, and the enveloping set G x X / ~),
the rooted codes that match and key its components, and the point trap of
an iso witness.
"""

from __future__ import annotations

from typing import NamedTuple

from .groups import FiniteGroup, GroupError


class PartialGSet(NamedTuple):
    """A certified partial G-set (:func:`certify`): the maps a_g, the
    roots of its components, the least point of each, ascending, and the
    component of each point, comp[y] the index of its root in ``roots``."""

    maps: list
    roots: list
    comp: list


def read(group: FiniteGroup, domains, columns) -> PartialGSet | None:
    """The partial G-set on the points p_i with 0/1 coefficients
    ``domains[g]`` of 1_g and ``columns[g][i]`` of alpha_g(p_i), as the
    maps a_g (a_g(i) = j for the one 1 of column i at j), certified, or
    None."""
    if any(d.count(0) + d.count(1) != len(d) for d in domains):
        return None
    maps = [row_sources(c) for c in columns]
    if None in maps:
        return None
    return certify(group, maps, domains)


def certify(group: FiniteGroup, maps, domains=None) -> PartialGSet | None:
    """The record of the partial G-set when the partial maps a_g =
    ``maps[g]`` and the domains D_g = ``domains[g]`` (by default the domain
    of a_(g^-1)) form one (Exel; Kellendonk-Lawson), else None: a_1 = id,
    and a_g a_h(j) = a_gh(j) when a_gh(j) lies in D_g, undefined otherwise,
    which is the identity M_g M_h = E_g M_gh of (P4) read on points.

    On R^X with 0/1 data every other check of
    :func:`~pargal.paction.verify_partial_action` follows.  (P4) at (g, 1)
    puts the image of a_g in D_g.  At (g^-1, g) it makes a_(g^-1) a_g the
    identity on D_(g^-1), undefined off it; as (g, g^-1) defines a_(g^-1)
    on all of D_g, a_g is defined exactly on D_(g^-1), a bijection onto D_g
    with inverse a_(g^-1), which is (P1).  So D_g is the domain of
    a_(g^-1).  At (1, 1) it gives D_1 = X, which with a_1 = id is (P2).  At
    (g, h) and (g^-1, gh) it gives (P3).  A 0/1 vector is idempotent.  So
    the certificate holds exactly when the matrix checks pass.

    Decided per component, in O(|G| r) on a free set, O(|G|^2 r) at most:
    (1) a_1 = id; (2) D_g is the domain of a_(g^-1), when ``domains`` are
    given (:func:`read`); (3) from each point x not yet reached, phi(g) =
    a_g(x) on Dom_x = {g : a_g(x) defined} reaches phi(Dom_x), and
    a_h(phi(g)) = phi(hg) for every h and every g in Dom_x, undefined when
    hg is not in Dom_x.  A partial G-set passes: it is the restriction of a
    G-set to X, with D_g the points of X in gX and a_h(y) = hy where both
    lie in X.  Conversely (3) makes K_x = {g : phi(g) = x} closed under
    products, a subgroup; phi(gk) = a_g(x) = phi(g) for k in K_x, and
    a_(g'^-1) sends phi(g) = phi(g') to x, so g'^-1 g is in K_x.  So phi is
    constant exactly on the cosets gK_x, the component of x is Dom_x/K_x
    inside G/K_x, and a_h is the translation restricted to it.  A later
    root x' meeting that component at y = phi'(g') fails (3), as
    a_(g'^-1)(y) stays in the component and x' does not.  So X is a
    disjoint union of such restrictions, with D_g the domain of a_(g^-1)
    by (2): the restriction of a G-set, which (P4) accepts.  The walk
    starts at the least point not yet reached, and on success each start
    reaches exactly its component, so the starts are the roots, and the
    walk numbers each point with the component it reaches it in.
    """
    if any(j != i for i, j in enumerate(maps[group.identity])):
        return None
    if domains is not None and any(
        [j is not None for j in maps[gi]] != list(map(bool, dom)) for gi, dom in zip(group.inverse, domains)
    ):
        return None
    comp = [None] * len(maps[group.identity])
    roots = []
    for x, k in enumerate(comp):
        if k is not None:
            continue
        k = len(roots)
        roots.append(x)
        phi = [a[x] for a in maps]
        dom = [g for g, y in enumerate(phi) if y is not None]
        points = [phi[g] for g in dom]
        for y in points:
            comp[y] = k
        if any([a[y] for y in points] != [phi[hg[g]] for g in dom] for a, hg in zip(maps, group.table)):
            return None
    return PartialGSet(maps, roots, comp)


def fixes_a_root(group: FiniteGroup, gset: PartialGSet) -> bool:
    """Whether some a_g with g != 1 of ``gset`` fixes a point, read at the
    roots of its components alone: O(|G|) per component, not per point.

    It is exact.  X is the restriction of a G-set Y (:func:`certify`), and
    each point y of the component of a root x is hx for some h.  If a_g(y)
    = y with g != 1, then k = h^-1 g h != 1 and kx = x, with x in X, so
    a_k(x) = x; and a root is a point.  So some a_g with g != 1 fixes a
    point of a component exactly when one fixes its root: the stabilizer
    K_x of (3) in :func:`certify` is 1 exactly when every K_y is, K_y = h
    K_x h^-1."""
    maps = gset.maps
    return any(maps[g][x] == x for g in group.elements() if g != group.identity for x in gset.roots)


def _orbit_quotient(npoints: int, identity, reps, members, move):
    """The quotient of a partial G-set X on the points 0 .. npoints - 1 by
    a normal subgroup H: its H-orbits, ascending and ordered by least point;
    for each g of ``reps`` the map sending orbit k to the orbit of
    ``move(g, h, p)`` = a_gh(p), p the least point of k, for the first h of
    ``members`` (the elements of H) where it is defined, else None; and the
    orbit of each point.  It is the one orbit read of a quotient, and every
    read below hands it the move of its own points.

    X is the restriction of a G-set Y (:func:`certify`).  The orbit of p is
    {a_h(p) : h in H}, one move per h, so the unvisited point of least
    index is the least point of its orbit.  The images are well defined:
    if a_gh(p) and a_gh'(p') are defined, p' = a_k(p) with k in H, then
    gh'p' = (gh'kh^-1 g^-1) ghp in Y, with gh'kh^-1 g^-1 in H as H is
    normal; and as gh'k lies in gH, some move of p by gH is defined when
    one of p' is, for any representative g."""
    comp = [None] * npoints
    orbits = []
    for p in range(npoints):
        if comp[p] is None:
            orbit = sorted({q for h in members if (q := move(identity, h, p)) is not None})
            for q in orbit:
                comp[q] = len(orbits)
            orbits.append(orbit)
    images = []
    for g in reps:
        image = [None] * len(orbits)
        for k, orbit in enumerate(orbits):
            for h in members:
                q = move(g, h, orbit[0])
                if q is not None:
                    image[k] = comp[q]
                    break
        images.append(image)
    return orbits, images, comp


def quotient(group: FiniteGroup, gset: PartialGSet, reps, members):
    """The read of :func:`_orbit_quotient` of ``gset`` by the normal
    subgroup of the elements ``members``, one orbit map per representative
    g of ``reps``: the move of p by (g, h) is a_gh(p)."""
    maps, table = gset.maps, group.table
    return _orbit_quotient(len(maps[0]), group.identity, reps, members, lambda g, h, p: maps[table[g][h]][p])


def _delta_read(group: FiniteGroup, npoints: int, move):
    """The read of a partial G x G-set by delta G = {(s, s^-1)}, the coset
    of (g, 1) at g: ``move(g, s, p)`` is the image of p under (gs, s^-1)."""
    if not group.is_abelian():
        raise GroupError("delta subgroup requires an abelian group")
    return _orbit_quotient(npoints, group.identity, group.elements(), group.elements(), move)


def product(group: FiniteGroup, a: PartialGSet, b: PartialGSet):
    """The delta-G read of X x Y, the points of ``a`` and ``b``, whose
    orbits are the components of the product of their classes: point (x, y)
    is x |Y| + y, as e_x (x) e_y in the tensor basis, and (l, t) sends it
    to (a_l(x), b_t(y)), a partial G x G-set, the restriction of the
    product of the G-sets that X and Y restrict."""
    map_a, map_b = a.maps, b.maps
    ny, table, inverse = len(map_b[0]), group.table, group.inverse

    def move(g, s, p):
        u, v = map_a[table[g][s]][p // ny], map_b[inverse[s]][p % ny]
        return None if u is None or v is None else u * ny + v

    return _delta_read(group, len(map_a[0]) * ny, move)


def hat(group: FiniteGroup, a: PartialGSet):
    """The points P = [(g, i) : i in D_g] of prod_g S_g, ordered by g and
    then i, and their delta-G read, whose orbits are the components of the
    idempotent class of ``a``; D_g is the domain of a_(g^-1).

    The hat action of (l, t) sends (g, i) to (ltg, a_l(i)) when i lies in
    D_tg and D_(l^-1) and a_l(i) lies in D_ltg, which is what E_h M_l E_tg
    does in :func:`~pargal.harrison.hat_action`: with X the restriction of
    a G-set Y, P is that of the G x G-set G x Y, (l, t)(g, y) = (ltg, ly)
    (G is abelian), as i lies in D_g when i and g^-1 i lie in X.  So a_l(i)
    in D_ltg already puts i in D_tg."""
    maps, table = a.maps, group.table
    index, points = {}, []
    for g, gi in enumerate(group.inverse):
        for i, j in enumerate(maps[gi]):
            if j is not None:
                index[g, i] = len(points)
                points.append((g, i))

    def move(g, s, p):
        # (gs, s^-1) sends (h, i) to (gh, a_gs(i))
        h, i = points[p]
        j = maps[table[g][s]][i]
        return None if j is None else index.get((table[g][h], j))

    return points, _delta_read(group, len(points), move)


def envelope(group: FiniteGroup, a: PartialGSet):
    """The read of the enveloping set G x X / ~ of ``a`` (Abadie): its
    classes, the permutation pi_t of the classes at each t, and the class
    of each point (g, y), numbered g |X| + y as e_y in slot g of S^G.

    The class of (1, x) is {(k, a_k(x)) : x in D_(k^-1)}, the support of
    iota(e_x), and since a_g a_h is contained in a_gh, any two translates
    of such supports are equal or disjoint.  They partition G x X into the
    orbits of G x 1 in the partial G x G-set (k, t)(g, y) = (k g t^-1,
    a_k(y)), and pi_t is the image of the coset of (1, t)."""
    maps, n = a.maps, len(a.maps[0])
    table, inverse = group.table, group.inverse

    def move(t, k, p):
        # (k, t) sends (g, y) to (k g t^-1, a_k(y))
        j = maps[k][p % n]
        return None if j is None else table[table[k][p // n]][inverse[t]] * n + j

    return _orbit_quotient(group.order * n, group.identity, group.elements(), group.elements(), move)


def canonical_form(gset: PartialGSet, kept):
    """Canonical form of ``gset`` with the rooted codes kept in ``kept``
    (:func:`_component_from`): the sorted component codes, each the least
    rooted code of a point of the component."""
    maps, codes = gset.maps, []
    for root in gset.roots:
        component = _component_from(maps, kept, root)[0]
        codes.append(min(_component_from(maps, kept, x)[1] for x in component))
    return tuple(sorted(codes))


def _component_from(maps, kept, x, colour=None):
    """The points of the component of x, in the order g first reaches them
    as a_g(x), and the rooted code of x, computed once and kept in
    ``kept[x]``.  The code holds, for each g, the first h with a_h(x) =
    a_g(x), or -1 where a_g(x) is undefined; with ``colour``, one bit per
    point, colour[y] for the points y in that order, follows.

    On a partial G-set (:func:`certify`) the component of x is {a_g(x) : g
    in Dom_x}, and a_g(x) = a_h(x) exactly when g and h lie in one coset of
    K_x.  So the code fixes Dom_x and K_x, and with them the component
    rooted at x up to isomorphism: a_h(a_g(x)) = a_hg(x), defined exactly
    when hg lies in Dom_x.  Two roots x and x' have equal codes exactly
    when a_g(x) -> a'_g(x') is well defined and bijective, and then it is
    an isomorphism of their components sending x to x', which pairs the
    two orders point by point.  One pass over the maps: O(|G|)."""
    if kept[x] is None:
        first = {}
        code = [-1 if y is None else first.setdefault(y, g) for g, y in enumerate([f[x] for f in maps])]
        order = list(first)
        if colour is not None:
            code += [colour[y] for y in order]
        kept[x] = (order, tuple(code))
    return kept[x]


def match_components(maps_a, maps_b, kept_a, kept_b, colour_a, colour_b):
    """The bijection sigma of the points of two partial G-sets with
    sigma(a_g(i)) = b_g(sigma(i)) for each g (both None off the domains)
    and, when given, colour_b[sigma(i)] = colour_a[i], greatest in the
    lexicographic order of (sigma(r-1), ..., sigma(0)) (the witness that
    perfbench's relabel pairs pin), as (sigma, None); or (None, k) when
    there is none, with k the size of the first component of a with no
    partner.  For certified maps, maps[g^-1] is None exactly off D_g, so
    sigma also carries D_g onto D'_g.  ``kept_a`` and ``kept_b`` keep the
    rooted code of each point (:func:`_component_from`).

    The image of one point fixes sigma on its component, and rooted codes
    are equal exactly when such a sigma sends one root to the other.  So
    sending the last unmapped point of a to the last unused point of b with
    the same rooted code, pairing their components in first-reach order,
    extends to a full isomorphism when one exists."""
    r = len(maps_a[0])
    sigma, used, down = [None] * r, [False] * r, range(r - 1, -1, -1)
    for i in down:
        if sigma[i] is None:
            order, code = _component_from(maps_a, kept_a, i, colour_a)
            k = next((k for k in down if not used[k] and _component_from(maps_b, kept_b, k, colour_b)[1] == code), None)
            if k is None:
                return None, len(order)
            for x, y in zip(order, kept_b[k][0]):
                sigma[x], used[y] = y, True
    return sigma, None


def row_sources(rows):
    """The index of the 1 in each of ``rows`` (None for a zero row) when
    every row is 0/1 with at most one 1; None otherwise.  On the rows of a
    matrix m this is where each entry of m v comes from, (m v)_i =
    v[out[i]]; on its columns, ``zip(*m.rows)``, where each basis vector
    goes, m e_j = e_(out[j])."""
    out = []
    for row in rows:
        ones = row.count(1)
        if ones > 1 or ones + row.count(0) != len(row):
            return None
        out.append(row.index(1) if ones else None)
    return out


def trap_on_points(group: FiniteGroup, pa, pb, pi) -> None:
    """The bug trap of an iso witness f e_x = e_pi(x) between the certified
    maps ``pa`` and ``pb``, in the order and with the messages of the
    matrix trap: pi(D_g) = D'_g, read off the domains of a_(g^-1) and
    a'_(g^-1), then pi a_g = a'_g pi on D_(g^-1)."""
    for g in group.elements():
        source_b = pb[group.inv(g)]
        if any((source_b[pi[x]] is None) != (y is None) for x, y in enumerate(pa[group.inv(g)])):
            raise AssertionError(f"iso_check: f(S_g) != S'_g at g={group.labels[g]} (bug trap)")
        image_b = pb[g]
        if any(j is not None and image_b[pi[x]] != pi[j] for x, j in enumerate(pa[g])):
            raise AssertionError(f"iso_check: f alpha_g != alpha'_g f at g={group.labels[g]} (bug trap)")
