import gc
import random
import weakref

import pytest

from chambers import catalog, chamber, covers, coxeter, groups
from chambers.chamber import HomogeneousSpec, TypedGallery
from chambers.covers import CoveringMap
from chambers.errors import (
    BudgetExceeded,
    IncompatibleOnH,
    NotCovering,
    NotHomomorphism,
    ResidueCollision,
)


def identity_cover(C):
    return CoveringMap(C, C, tuple(range(C.n)))


def random_gallery(C, start, steps, rng):
    adj = C.adjacency()
    ch, ty = [start], []
    for _ in range(steps):
        i, d = rng.choice(adj[ch[-1]])
        ch.append(d)
        ty.append(i)
    return TypedGallery(tuple(ch), tuple(ty))


# ---------------------------------------------------------------------------
# is_covering


def test_identity_is_covering():
    fano = catalog.build_fano_flags()
    ok, diag = covers.is_covering(identity_cover(fano))
    assert ok and diag is None


def test_not_locally_injective():
    thin = coxeter.coxeter_complex(coxeter.A1xA1)
    # collapse chamber 3 onto its type-1 panel partner
    partner = [d for d in thin.panel_of(1, 3) if d != 3][0]
    mp = list(range(thin.n))
    mp[3] = partner
    ok, diag = covers.is_covering(CoveringMap(thin, thin, tuple(mp)))
    assert not ok and diag
    with pytest.raises(ValueError):
        CoveringMap(thin, thin, tuple(mp[:-1]))


def test_split_panel_breaks_adjacency():
    fano = catalog.build_fano_flags()
    split = {i: list(fano.panels[i]) for i in fano.types}
    a, *rest = split[1][0]
    split[1][0:1] = [(a,), tuple(rest)]
    cover = chamber.from_partitions(fano.n, 2, split)
    ok, diag = covers.is_covering(CoveringMap(cover, fano, tuple(range(fano.n))))
    assert not ok and diag == "{1,2}-residue at cover chamber 0 breaks type-1 adjacency"


def test_singer_projection_is_covering():
    base, quot, proj = catalog.build_singer_quotient(5)
    ok, diag = covers.is_covering(proj)
    assert ok, diag


# ---------------------------------------------------------------------------
# lifting


def test_lift_gallery_basics():
    fano = catalog.build_fano_flags()
    p = identity_cover(fano)
    empty = TypedGallery((0,), ())
    assert covers.lift_gallery(p, empty, 0).chambers == (0,)
    rng = random.Random(5)
    g = random_gallery(fano, 0, 5, rng)
    assert covers.lift_gallery(p, g, 0) == g


def test_lift_project_roundtrip():
    base, quot, proj = catalog.build_singer_quotient(5)
    rng = random.Random(6)
    for _ in range(100):
        start_cover = rng.randrange(base.n)
        g = random_gallery(quot, proj.chamber_map[start_cover], rng.randint(0, 8), rng)
        lifted = covers.lift_gallery(proj, g, start_cover)
        projected = TypedGallery(tuple(proj.chamber_map[c] for c in lifted.chambers),
                                 lifted.types)
        assert projected == g


def test_lift_concat_functorial():
    base, quot, proj = catalog.build_singer_quotient(5)
    rng = random.Random(7)
    for _ in range(30):
        c0 = rng.randrange(base.n)
        g1 = random_gallery(quot, proj.chamber_map[c0], 4, rng)
        g2 = random_gallery(quot, g1.end, 4, rng)
        both = covers.lift_gallery(proj, g1.concat(g2), c0)
        first = covers.lift_gallery(proj, g1, c0)
        second = covers.lift_gallery(proj, g2, first.end)
        assert both == first.concat(second)


def test_lift_nontrivial_class_changes_fiber_point():
    base, quot, proj = catalog.build_singer_quotient(5)
    res = covers.universal_cover(quot, 0, max_chambers=10 ** 5)
    rng = random.Random(8)
    moved = False
    for _ in range(400):
        g = random_gallery(quot, 0, 10, rng)
        if g.end != 0:
            continue
        lifted = covers.lift_gallery(res.covering, g, res.root)
        if lifted.end != res.root:
            moved = True
            break
    assert moved


def test_lift_detects_bad_covering():
    thin = coxeter.coxeter_complex(coxeter.A1xA1)
    partner = [d for d in thin.panel_of(1, 3) if d != 3][0]
    mp = list(range(thin.n))
    mp[3] = partner
    bad = CoveringMap(thin, thin, tuple(mp))
    g = TypedGallery((partner, 3), (1,))
    with pytest.raises(NotCovering):
        covers.lift_gallery(bad, g, mp.index(partner))


# ---------------------------------------------------------------------------
# universal covers


def test_rank2_cover_is_isomorphism():
    for C in (catalog.build_fano_flags(), catalog.build_gq22()):
        res = covers.universal_cover(C, 0, max_chambers=10 ** 4)
        assert not res.truncated
        assert res.covering.cover.n == C.n
        assert len(res.deck) == 1 and res.regular


def test_buildings_simply_connected():
    a3 = catalog.build_a3_f2()
    res = covers.universal_cover(a3, 0, max_chambers=10 ** 5)
    assert res.covering.cover.n == 315 and len(res.deck) == 1
    cc3 = coxeter.coxeter_complex(coxeter.C3)
    res = covers.universal_cover(cc3, 0, max_chambers=10 ** 4)
    assert res.covering.cover.n == 48 and len(res.deck) == 1


def test_singer_round_trip():
    base, quot, proj = catalog.build_singer_quotient(5)
    res = covers.universal_cover(quot, 0, max_chambers=10 ** 5)
    assert not res.truncated
    assert res.covering.cover.n == 315
    assert len(res.deck) == 5 and res.regular
    assert chamber.is_isomorphic(res.covering.cover, base)
    # regular cover: all fibers have equal size
    fibers = {}
    for c in res.covering.chamber_map:
        fibers[c] = fibers.get(c, 0) + 1
    assert set(fibers.values()) == {5}


def test_neumaier_simply_connected():
    # the A7 triple geometry is its own universal 2-cover: a simply
    # 2-connected C3 system that is not a building
    neu, _ = catalog.build_neumaier_a7()
    res = covers.universal_cover(neu, 0, max_chambers=10 ** 5)
    assert not res.truncated
    assert res.covering.cover.n == 315
    assert len(res.deck) == 1 and res.regular


def test_truncation_reported():
    a3 = catalog.build_a3_f2()
    res = covers.universal_cover(a3, 0, max_chambers=10)
    assert res.truncated and res.covering is None


def test_universal_cover_preconditions():
    from chambers.errors import Disconnected

    disc = chamber.from_partitions(4, 2, {1: [(0, 1), (2, 3)], 2: [(0, 1), (2, 3)]})
    with pytest.raises(Disconnected):
        covers.universal_cover(disc, 0)
    rank1 = chamber.from_partitions(2, 1, {1: [(0, 1)]})
    with pytest.raises(ValueError):
        covers.universal_cover(rank1, 0)


def test_universal_cover_self_check_raises(monkeypatch):
    monkeypatch.setattr(covers, "is_covering", lambda p: (False, "forced failure"))
    with pytest.raises(NotCovering, match="forced failure"):
        covers.universal_cover(catalog.build_fano_flags(), 0)


def test_elementary_homotopy_single_moves():
    # a single segment replacement inside one rank-2 residue is always an
    # elementary homotopy, and elementary implies homotopic
    cc3 = coxeter.coxeter_complex(coxeter.C3)
    rng = random.Random(14)
    pairs = [(1, 2), (1, 3), (2, 3)]
    hits = 0
    for _ in range(40):
        g = random_gallery(cc3, rng.randrange(cc3.n), rng.randint(1, 5), rng)
        s = rng.randint(0, len(g))
        e = rng.randint(s, len(g))
        fitting = [Q for Q in pairs if set(g.types[s:e]) <= set(Q)]
        if not fitting:
            continue
        P = rng.choice(fitting)
        u, v = g.chambers[s], g.chambers[e]
        comp = cc3.component_map(P)
        if comp[u] != comp[v]:
            continue
        segs = covers._segment_galleries(cc3, u, v, P, 4)
        if not segs:
            continue
        seg = rng.choice(segs)
        g2 = TypedGallery(g.chambers[:s] + seg.chambers + g.chambers[e + 1:],
                          g.types[:s] + seg.types + g.types[e:]).normalized()
        gn = g.normalized()
        if gn == g2:
            continue
        assert covers.elementary_homotopic(cc3, gn, g2)
        assert covers.homotopic(cc3, gn, g2)
        hits += 1
    assert hits >= 10


def test_homotopy_invariance_of_lifting():
    base, quot, proj = catalog.build_singer_quotient(5)
    rng = random.Random(10)
    for _ in range(40):
        g1 = random_gallery(quot, 0, rng.randint(0, 6), rng)
        g2 = quot.min_gallery(0, g1.end)
        hom = covers.homotopic(quot, g1, g2, budget=10 ** 5)
        l1 = covers.lift_gallery(proj, g1, 0)
        l2 = covers.lift_gallery(proj, g2, 0)
        if hom:
            assert l1.end == l2.end
        elif l1.end != l2.end:
            assert not hom


# ---------------------------------------------------------------------------
# deck transformations


def test_deck_identity():
    fano = catalog.build_fano_flags()
    deck, regular = covers.deck_transformations(identity_cover(fano))
    assert deck == [tuple(range(fano.n))] and regular


def _s6_quotient_pair():
    """Thin rank-5 system on S6 quotiented by S3 and its non-normal Z2."""
    S6 = groups.symmetric_group(6)
    triv = groups.Subgroup(S6, [groups.identity(6)])
    faces = {i: groups.subgroup_generated(S6, [groups.perm_from_cycles(6, [(i - 1, i)])])
             for i in range(1, 6)}
    thin = chamber.from_cosets(HomogeneousSpec(S6, triv, faces))
    a = groups.perm_from_cycles(6, [(0, 1, 2), (3, 4, 5)])
    b = groups.perm_from_cycles(6, [(0, 3), (1, 5), (2, 4)])
    pi = groups.group_from_generators([a, b])
    assert pi.order == 6
    index = {g: c for c, g in enumerate(thin.labels)}

    def leftmult(g):
        return tuple(index[groups.mul(g, thin.labels[c])] for c in range(thin.n))

    Q120, p1 = chamber.quotient(thin, [leftmult(g) for g in pi.elements])
    Q360, p2 = chamber.quotient(thin, [leftmult(g) for g in
                                       (groups.identity(6), b)])
    r = [None] * Q360.n
    for x in range(thin.n):
        r[p2[x]] = p1[x]
    return thin, Q120, Q360, CoveringMap(Q360, Q120, tuple(r))


def test_nonregular_cover():
    # the fundamental group here is nonabelian of order 6; the 3-fold cover
    # from its non-normal order-2 subgroup has trivial deck group
    thin, Q120, Q360, cmap = _s6_quotient_pair()
    ok, diag = covers.is_covering(cmap)
    assert ok, diag
    deck, regular = covers.deck_transformations(cmap)
    fiber = sum(1 for x in cmap.chamber_map if x == cmap.chamber_map[0])
    assert fiber == 3
    assert len(deck) == 1 and not regular


def test_universal_cover_of_s6_quotient():
    thin, Q120, Q360, cmap = _s6_quotient_pair()
    res = covers.universal_cover(Q120, 0, max_chambers=10 ** 4)
    assert res.covering.cover.n == 720
    assert len(res.deck) == 6 and res.regular
    assert chamber.is_isomorphic(res.covering.cover, thin)
    # the deck group is the nonabelian group of order 6
    compose = lambda f, g: tuple(f[g[c]] for c in range(720))
    assert any(compose(a, b) != compose(b, a)
               for a in res.deck for b in res.deck)


def test_universal_property():
    # the universal cover factors through every other covering of the base
    thin, Q120, Q360, cmap = _s6_quotient_pair()
    res = covers.universal_cover(Q120, 0, max_chambers=10 ** 4)
    factor = covers.covering_between(res.covering, cmap)
    assert factor is not None
    assert factor.cover.n == 720 and factor.base.n == 360
    # composing recovers the universal projection
    composed = tuple(cmap.chamber_map[factor.chamber_map[c]] for c in range(720))
    assert composed == res.covering.chamber_map
    base, quot, proj = catalog.build_singer_quotient(5)
    res2 = covers.universal_cover(quot, 0, max_chambers=10 ** 5)
    factor2 = covers.covering_between(res2.covering, proj)
    assert factor2 is not None and factor2.base.n == 315


# ---------------------------------------------------------------------------
# gallery homotopy


def test_elementary_homotopic():
    a2 = coxeter.coxeter_complex(coxeter.A2)
    g121 = chamber.gallery_from_types(a2, 0, (1, 2, 1))
    g212 = chamber.gallery_from_types(a2, 0, (2, 1, 2))
    assert covers.elementary_homotopic(a2, g121, g121)
    assert covers.elementary_homotopic(a2, g121, g212)
    # two disjoint alterations across different type pairs need two steps
    a3 = coxeter.coxeter_complex(coxeter.A3)
    g1 = chamber.gallery_from_types(a3, 0, (1, 2, 1, 3, 2, 3))
    g2 = chamber.gallery_from_types(a3, 0, (2, 1, 2, 2, 3, 2))
    if g1.end == g2.end:
        assert not covers.elementary_homotopic(a3, g1, g2)


def test_homotopic_matches_bfs_on_thin_a2():
    a2 = coxeter.coxeter_complex(coxeter.A2)
    rng = random.Random(11)
    for _ in range(25):
        g1 = random_gallery(a2, 0, rng.randint(0, 4), rng)
        g2 = random_gallery(a2, 0, rng.randint(0, 4), rng)
        if g1.end != g2.end:
            continue
        fast = covers.homotopic(a2, g1, g2)
        slow = covers.homotopic_bfs(a2, g1, g2, budget=5000)
        assert fast == slow
        assert fast  # rank-2 systems are simply 2-connected


def test_homotopic_in_buildings():
    a3 = catalog.build_a3_f2()
    rng = random.Random(12)
    for _ in range(15):
        g1 = random_gallery(a3, 0, rng.randint(0, 6), rng)
        g2 = a3.min_gallery(0, g1.end)
        assert covers.homotopic(a3, g1, g2, budget=10 ** 5)


def test_homotopic_distinguishes_classes():
    base, quot, proj = catalog.build_singer_quotient(5)
    res = covers.universal_cover(quot, 0, max_chambers=10 ** 5)
    rng = random.Random(13)
    trivial = TypedGallery((0,), ())
    seen_nontrivial = False
    for _ in range(300):
        g = random_gallery(quot, 0, 10, rng)
        if g.end != 0:
            continue
        hom = covers.homotopic(quot, g, trivial, budget=10 ** 5)
        lift_end = covers.lift_gallery(res.covering, g, res.root).end
        assert hom == (lift_end == res.root)
        seen_nontrivial |= not hom
    assert seen_nontrivial


def test_homotopic_budget():
    # a freshly loaded system, so no cover is kept for it yet
    a3 = chamber.system_from_json(chamber.system_to_json(catalog.build_a3_f2()))
    g = TypedGallery((0,), ())
    with pytest.raises(BudgetExceeded):
        covers.homotopic(a3, g, g, budget=10)


def test_homotopic_one_cover_lifted_from_any_start(monkeypatch):
    # one cover based at chamber 0 answers like a cover based at each start
    quot = catalog.build("singer-quotient-z5")["system"]
    C = chamber.system_from_json(chamber.system_to_json(quot))
    rng = random.Random(14)
    queries = []
    for start in (5, 17, 33, 62):
        res = covers.universal_cover(C, c0=start, with_deck=False)
        for _ in range(20):
            g1 = random_gallery(C, start, rng.randint(2, 12), rng)
            g2 = C.min_gallery(start, g1.end)
            ends = {covers.lift_gallery(res.covering, g, res.root).end for g in (g1, g2)}
            queries.append((g1, g2, len(ends) == 1))
    built = []
    universal_cover = covers.universal_cover

    def counting(system, *args, **kwargs):
        built.append(system)
        return universal_cover(system, *args, **kwargs)

    monkeypatch.setattr(covers, "universal_cover", counting)
    assert [covers.homotopic(C, g1, g2) for g1, g2, _ in queries] == [h for *_, h in queries]
    assert any(not h for *_, h in queries)
    assert built == [C]


def test_homotopic_cover_dies_with_its_system():
    C = chamber.system_from_json(chamber.system_to_json(catalog.build_fano_flags()))
    g = TypedGallery((0,), ())
    kept = len(covers._COVERS)
    assert covers.homotopic(C, g, g)
    assert len(covers._COVERS) == kept + 1
    ref = weakref.ref(C)
    del C
    gc.collect()
    assert ref() is None and len(covers._COVERS) == kept


def test_homotopic_rejects_mismatched_extremities():
    a2 = coxeter.coxeter_complex(coxeter.A2)
    g1 = chamber.gallery_from_types(a2, 0, (1,))
    g2 = chamber.gallery_from_types(a2, 0, (2,))
    with pytest.raises(ValueError):
        covers.homotopic(a2, g1, g2)


# ---------------------------------------------------------------------------
# subgroup lifts


def _klein_spec():
    a = groups.perm_from_cycles(4, [(0, 1), (2, 3)])
    b = groups.perm_from_cycles(4, [(0, 2), (1, 3)])
    G = groups.group_from_generators([a, b])
    triv = groups.Subgroup(G, [groups.identity(4)])
    ab = groups.mul(a, b)
    faces = {1: groups.subgroup_generated(G, [a]),
             2: groups.subgroup_generated(G, [b]),
             3: groups.subgroup_generated(G, [ab])}
    return G, triv, faces, (a, b, ab)


def test_cover_from_lift_trivial_pi():
    G, triv, faces, _ = _klein_spec()
    spec = HomogeneousSpec(G, triv, faces)
    pi = groups.group_from_generators([groups.identity(1)])
    e1 = groups.identity(1)
    phi = {i: {g: e1 for g in faces[i].elements} for i in (1, 2, 3)}
    cover, cmap, connected = covers.cover_from_lift(spec, pi, phi)
    assert cover.n == 4 and connected
    assert covers.is_covering(cmap)[0]


def test_cover_from_lift_disconnected_double():
    G, triv, faces, _ = _klein_spec()
    spec = HomogeneousSpec(G, triv, faces)
    z = groups.perm_from_cycles(2, [(0, 1)])
    pi = groups.group_from_generators([z])
    e2 = groups.identity(2)
    phi = {i: {g: e2 for g in faces[i].elements} for i in (1, 2, 3)}
    cover, cmap, connected = covers.cover_from_lift(spec, pi, phi)
    assert cover.n == 8 and not connected
    assert covers.is_covering(cmap)[0]
    # two components, each isomorphic to the base
    comp = cover.component_map(cover.types)
    assert len(set(comp)) == 2


def test_cover_from_lift_connected_double():
    # reading the deck coordinate on one face connects the lift: it becomes
    # the thin rank-3 cube complex double-covering the 4-chamber quotient
    G, triv, faces, (a, b, ab) = _klein_spec()
    spec = HomogeneousSpec(G, triv, faces)
    z = groups.perm_from_cycles(2, [(0, 1)])
    pi = groups.group_from_generators([z])
    e2 = groups.identity(2)
    e4 = groups.identity(4)
    phi = {1: {e4: e2, a: e2},
           2: {e4: e2, b: e2},
           3: {e4: e2, ab: z}}
    cover, cmap, connected = covers.cover_from_lift(spec, pi, phi)
    assert cover.n == 8 and connected
    ok, diag = covers.is_covering(cmap)
    assert ok, diag
    thin = coxeter.coxeter_complex(
        coxeter.CoxeterMatrix([[1, 2, 2], [2, 1, 2], [2, 2, 1]]))
    assert chamber.is_isomorphic(cover, thin)
    deck, regular = covers.deck_transformations(cmap)
    assert len(deck) == 2 and regular
    # consistent with the universal cover of the base
    base = chamber.from_cosets(spec)
    res = covers.universal_cover(base, 0, max_chambers=100)
    assert res.covering.cover.n == 8 and len(res.deck) == 2


def test_cover_from_lift_errors():
    G, triv, faces, (a, b, ab) = _klein_spec()
    spec = HomogeneousSpec(G, triv, faces)
    z = groups.perm_from_cycles(2, [(0, 1)])
    pi = groups.group_from_generators([z])
    e2 = groups.identity(2)
    e4 = groups.identity(4)
    bad = {1: {e4: z, a: e2},  # phi(identity) != identity: not a homomorphism
           2: {e4: e2, b: e2},
           3: {e4: e2, ab: e2}}
    with pytest.raises(NotHomomorphism):
        covers.cover_from_lift(spec, pi, bad)
    # principal subgroup bigger than trivial, maps disagreeing on it
    H2 = groups.subgroup_generated(G, [a])
    faces2 = {1: groups.Subgroup(G, G.elements, check=False),
              2: groups.Subgroup(G, G.elements, check=False)}
    spec2 = HomogeneousSpec(G, H2, faces2)
    hom1 = {g: e2 for g in G.elements}
    # a genuine homomorphism G -> Z2 sending a -> z, b -> e
    hom2 = {}
    for g in G.elements:
        hom2[g] = z if g in (a, ab) else e2
    with pytest.raises(IncompatibleOnH):
        covers.cover_from_lift(spec2, pi, {1: hom1, 2: hom2})
