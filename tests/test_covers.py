import collections
import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

import corpus
from chambers import catalog, chamber, covers, coxeter, groups
from chambers.chamber import HomogeneousSpec, TypedGallery
from chambers.covers import CoveringMap
from chambers.errors import (
    BudgetExceeded,
    IncompatibleOnH,
    NotCovering,
    NotHomomorphism,
)


def identity_cover(C):
    return CoveringMap(C, C, tuple(range(C.n)))


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


def test_map_of_bools_is_not_into_the_base():
    two = chamber.from_partitions(2, 1, {1: [(0, 1)]})
    assert covers.is_covering(CoveringMap(two, two, (0, 1))) == (True, None)
    assert covers.is_covering(CoveringMap(two, two, (False, True))) == (
        False, "map not into base chamber set")


def test_missing_chamber_is_named_in_one_pass():
    # the map misses only the last chamber; a scan that rebuilt the image
    # set for each chamber took seconds at this size
    n = 20_000
    dots = chamber.from_partitions(n, 1, {1: [(c,) for c in range(n)]})
    ok, diag = covers.is_covering(CoveringMap(dots, dots, tuple(range(n - 1)) + (0,)))
    assert (ok, diag) == (False, f"not surjective: base chamber {n - 1} has empty fiber")


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


def _reference_is_covering(p):
    """is_covering as it was before it picked out the resized types: every
    residue compares the panel sizes of its chambers for both its types."""
    cover, base, mp = p.cover, p.base, p.chamber_map
    if cover.rank != base.rank:
        return False, "rank mismatch"
    if any(type(b) is bool or not 0 <= b < base.n for b in mp):
        return False, "map not into base chamber set"
    for i in cover.types:
        for panel in cover.panels[i]:
            ids = {base.panel_id(i, mp[c]) for c in panel}
            if len(ids) > 1:
                return False, f"type-{i} panel {panel} does not map into one panel"
    hit = set(mp)
    if len(hit) != base.n:
        missing = next(b for b in range(base.n) if b not in hit)
        return False, f"not surjective: base chamber {missing} has empty fiber"
    for P in itertools.combinations(cover.types, 2):
        base_comp = base.component_map(P)
        base_size = collections.Counter(base_comp)
        for res in cover.residues(P):
            images = [mp[c] for c in res.chambers]
            size = base_size[base_comp[images[0]]]
            if len(res.chambers) != size or len(set(images)) != len(images):
                return False, (f"{{{P[0]},{P[1]}}}-residue at cover chamber "
                               f"{res.chambers[0]} is not bijective onto its image")
            for t in P:
                if any(len(cover.panel_of(t, x)) != len(base.panel_of(t, mp[x]))
                       for x in res.chambers):
                    return False, (f"{{{P[0]},{P[1]}}}-residue at cover chamber "
                                   f"{res.chambers[0]} breaks type-{t} adjacency")
    return True, None


def _perturbed(p, rng):
    """Seeded perturbations of a covering map: one panel of the cover split
    in two, one chamber collapsed onto a panel partner's image, and the
    fibers over two base chambers swapped."""
    cover, base, mp = p.cover, p.base, p.chamber_map
    i = rng.choice(cover.types)
    big = [panel for panel in cover.panels[i] if len(panel) > 1]
    if big:
        panel = rng.choice(big)
        cut = rng.randrange(1, len(panel))
        parts = {t: list(cover.panels[t]) for t in cover.types}
        parts[i].remove(panel)
        parts[i] += [panel[:cut], panel[cut:]]
        yield CoveringMap(chamber.from_partitions(cover.n, cover.rank, parts), base, mp)
    c = rng.randrange(cover.n)
    collapsed = list(mp)
    collapsed[c] = mp[rng.choice(cover.panel_of(i, c))]
    yield CoveringMap(cover, base, tuple(collapsed))
    u, v = rng.sample(range(base.n), 2) if base.n > 1 else (0, 0)
    swap = {u: v, v: u}
    yield CoveringMap(cover, base, tuple(swap.get(b, b) for b in mp))


def test_is_covering_matches_reference():
    # the per-type size screen changes no verdict and no diagnostic: on the
    # identity of every corpus system, on real coverings (universal covers,
    # the z5 projection) and on seeded perturbations of all of them
    rng = random.Random(20261019)
    maps = [identity_cover(C) for C in corpus.named_systems() + [corpus.pg42()]]
    maps += [covers.universal_cover(C, 0).covering for C in corpus.named_systems()]
    maps.append(catalog.build("singer-quotient-z5")["projection"])
    maps += [identity_cover(corpus.random_connected_system(rng)) for _ in range(200)]
    kinds = collections.Counter()
    for p in list(maps):
        for _ in range(3):
            maps.extend(_perturbed(p, rng))
    for p in maps:
        got = covers.is_covering(p)
        assert got == _reference_is_covering(p), (p.cover.panels, p.chamber_map)
        kinds[got[1] and got[1].split(" ")[-1]] += 1
    # every verdict is seen: covering, adjacency, bijectivity, panels, fibers
    assert {None, "adjacency", "image", "panel", "fiber"} <= set(kinds), kinds


def test_is_covering_of_rank_1_ignores_panel_sizes():
    # with no rank-2 residues there is nothing to compare panel sizes in, so
    # a split panel still covers, as it always did
    rng = random.Random(7)
    for _ in range(100):
        C = corpus.random_partitions(rng, 1, rng.randint(1, 8))
        for p in [identity_cover(C), *_perturbed(identity_cover(C), rng)]:
            assert covers.is_covering(p) == _reference_is_covering(p)
    two = chamber.from_partitions(2, 1, {1: [(0, 1)]})
    split = chamber.from_partitions(2, 1, {1: [(0,), (1,)]})
    assert covers.is_covering(CoveringMap(split, two, (0, 1))) == (True, None)


# ---------------------------------------------------------------------------
# lifting


def test_lift_gallery_basics():
    fano = catalog.build_fano_flags()
    p = identity_cover(fano)
    empty = TypedGallery((0,), ())
    assert covers.lift_gallery(p, empty, 0).chambers == (0,)
    rng = random.Random(5)
    g = corpus.random_gallery(fano, 0, 5, rng)
    assert covers.lift_gallery(p, g, 0) == g
    # start -1 must not wrap around to the last cover chamber
    for start in (-1, fano.n):
        with pytest.raises(ValueError, match=f"start chamber {start} outside"):
            covers.lift_gallery(p, TypedGallery((fano.n - 1,), ()), start)


def test_lift_project_roundtrip():
    base, quot, proj = catalog.build_singer_quotient(5)
    rng = random.Random(6)
    for _ in range(100):
        start_cover = rng.randrange(base.n)
        g = corpus.random_gallery(quot, proj.chamber_map[start_cover], rng.randint(0, 8), rng)
        lifted = covers.lift_gallery(proj, g, start_cover)
        projected = TypedGallery(tuple(proj.chamber_map[c] for c in lifted.chambers),
                                 lifted.types)
        assert projected == g


def test_lift_concat_functorial():
    base, quot, proj = catalog.build_singer_quotient(5)
    rng = random.Random(7)
    for _ in range(30):
        c0 = rng.randrange(base.n)
        g1 = corpus.random_gallery(quot, proj.chamber_map[c0], 4, rng)
        g2 = corpus.random_gallery(quot, g1.end, 4, rng)
        joined = TypedGallery(g1.chambers + g2.chambers[1:], g1.types + g2.types)
        both = covers.lift_gallery(proj, joined, c0)
        first = covers.lift_gallery(proj, g1, c0)
        second = covers.lift_gallery(proj, g2, first.end)
        assert both.chambers == first.chambers + second.chambers[1:]


def test_lift_nontrivial_class_changes_fiber_point():
    base, quot, proj = catalog.build_singer_quotient(5)
    res = covers.universal_cover(quot, 0, max_chambers=10 ** 5)
    rng = random.Random(8)
    moved = False
    for _ in range(400):
        g = corpus.random_gallery(quot, 0, 10, rng)
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
    assert chamber.isomorphism(res.covering.cover, base) is not None
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


def test_universal_cover_refuses_rank_0_before_building_anything():
    # a rank-0 system built in code has no panels, whatever its chamber
    # count, and the rank test comes before anything of that size is made
    # (a rank-0 file with n > 1 is refused when it is loaded)
    tracemalloc.start()
    try:
        C = chamber.from_partitions(10 ** 11, 0, {})
        with pytest.raises(ValueError, match="requires rank >= 2"):
            covers.universal_cover(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5


def test_universal_cover_self_check_raises(monkeypatch):
    monkeypatch.setattr(covers, "is_covering", lambda p: (False, "forced failure"))
    with pytest.raises(NotCovering, match="forced failure"):
        covers.universal_cover(catalog.build_fano_flags(), 0)


def test_elementary_homotopy_single_moves():
    # a single segment replacement inside one rank-2 residue is homotopic to
    # the original by both engines
    cc3 = coxeter.coxeter_complex(coxeter.C3)
    rng = random.Random(14)
    pairs = [(1, 2), (1, 3), (2, 3)]
    hits = 0
    for _ in range(40):
        g = corpus.random_gallery(cc3, rng.randrange(cc3.n), rng.randint(1, 5), rng)
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
        segs = _segment_galleries(cc3, u, v, P, 4)
        if not segs:
            continue
        seg = rng.choice(segs)
        g2 = TypedGallery(g.chambers[:s] + seg.chambers + g.chambers[e + 1:],
                          g.types[:s] + seg.types + g.types[e:]).normalized()
        gn = g.normalized()
        if gn == g2:
            continue
        assert covers.homotopic(cc3, gn, g2)
        assert _homotopic_bfs(cc3, gn, g2, budget=5 * 10 ** 4)
        hits += 1
    assert hits >= 10


def test_homotopy_invariance_of_lifting():
    base, quot, proj = catalog.build_singer_quotient(5)
    rng = random.Random(10)
    for _ in range(40):
        g1 = corpus.random_gallery(quot, 0, rng.randint(0, 6), rng)
        g2 = quot.min_gallery(0, g1.end)
        hom = covers.homotopic(quot, g1, g2, budget=10 ** 5)
        l1 = covers.lift_gallery(proj, g1, 0)
        l2 = covers.lift_gallery(proj, g2, 0)
        if hom:
            assert l1.end == l2.end
        elif l1.end != l2.end:
            assert not hom


# ---------------------------------------------------------------------------
# the gluer against the panel-copying reference engine


class _ReferenceGluer:
    """The gluer as it was before panels were shared: each node opens its own
    copy of every base panel it needs, and a residue walk closes its pair
    only on the node it started from.  Same covers, many more nodes.  Once
    closed, the roots of each cover panel are handed one copy of it, as
    universal_cover reads each panel dict once."""

    def __init__(self, base, c0, max_chambers):
        self.base = base
        self.max = max_chambers
        self.pairs = list(itertools.combinations(base.types, 2))
        self.proj = []
        self.parent = []
        self.rank_ = []
        self.panels = []
        self.done = []
        self.live = 0
        self.truncated = False
        self.tasks = collections.deque()
        self.root0 = self._new_node(c0)

    def _new_node(self, b):
        nid = len(self.proj)
        self.proj.append(b)
        self.parent.append(nid)
        self.rank_.append(0)
        self.panels.append({})
        self.done.append(set())
        self.live += 1
        if self.live > self.max:
            self.truncated = True
        for P in self.pairs:
            self.tasks.append((nid, P))
        return nid

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        pend = [(a, b)]
        while pend:
            x, y = pend.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            assert self.proj[rx] == self.proj[ry]
            if self.rank_[rx] < self.rank_[ry]:
                rx, ry = ry, rx
            elif self.rank_[rx] == self.rank_[ry]:
                self.rank_[rx] += 1
            self.parent[ry] = rx
            self.live -= 1
            for t, mp_y in self.panels[ry].items():
                mp_x = self.panels[rx].get(t)
                if mp_x is None:
                    self.panels[rx][t] = mp_y
                else:
                    for bch, nd in mp_y.items():
                        nd2 = mp_x.get(bch)
                        if nd2 is None:
                            mp_x[bch] = nd
                        elif self.find(nd2) != self.find(nd):
                            pend.append((nd2, nd))
            self.panels[ry] = None
            merged = self.done[rx] & self.done[ry]
            self.done[rx] = merged
            self.done[ry] = None
            for P in self.pairs:
                if P not in merged:
                    self.tasks.append((rx, P))

    def get_panel(self, x, t):
        rx = self.find(x)
        mp = self.panels[rx].get(t)
        if mp is None:
            b = self.proj[rx]
            mp = {}
            for bch in self.base.panel_of(t, b):
                mp[bch] = rx if bch == b else self._new_node(bch)
            self.panels[self.find(rx)][t] = mp
        return mp

    def close_residue(self, x, P):
        rx = self.find(x)
        if P in self.done[rx]:
            return
        b0 = self.proj[rx]
        slot = {b0: rx}
        queue = [b0]
        for y in queue:
            for t in P:
                for z, nz in list(self.get_panel(slot[y], t).items()):
                    if z == y:
                        continue
                    if z in slot:
                        if self.find(slot[z]) != self.find(nz):
                            self.union(slot[z], nz)
                    else:
                        slot[z] = nz
                        queue.append(z)
        self.done[self.find(rx)].add(P)

    def run(self):
        while self.tasks:
            if self.truncated:
                return
            x, P = self.tasks.popleft()
            self.close_residue(x, P)
        shared = {}
        for r in {self.find(x) for x in range(len(self.proj))}:
            for t, mp in self.panels[r].items():
                key = t, frozenset(self.find(nd) for nd in mp.values())
                self.panels[r][t] = shared.setdefault(key, mp)


_GLUER = covers._Gluer


def _cover_by(monkeypatch, engine, C, c0, max_chambers=10 ** 6):
    """Everything universal_cover answers with the given gluer engine, and
    the gluer it ran."""
    made = []

    class Recorded(engine):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(covers, "_Gluer", Recorded)
    res = covers.universal_cover(C, c0, max_chambers=max_chambers)
    p = res.covering
    answer = (res.truncated, res.root, res.deck, res.regular,
              p and (p.chamber_map, p.cover.panels))
    return answer, made[0]


def _panels_shared(g):
    """Each root's type-t panel holds the root over its own base chamber,
    and the class of every member of the panel holds that same panel."""
    roots = {g.find(x) for x in range(len(g.proj))}
    return all(g.find(mp[g.proj[r]]) == r
               and all(g.panels[g.find(nd)][t] is mp for nd in mp.values())
               for r in roots for t, mp in g.panels[r].items())


def test_gluer_matches_reference_on_named_systems(monkeypatch):
    for C in corpus.named_systems():
        for c0 in sorted({0, C.n // 2, C.n - 1}):
            old, old_gluer = _cover_by(monkeypatch, _ReferenceGluer, C, c0)
            new, gluer = _cover_by(monkeypatch, _GLUER, C, c0)
            assert new == old and not new[0]
            assert len(gluer.proj) < len(old_gluer.proj) and _panels_shared(gluer)


# the gluer's work per corpus.named_systems() entry, the same from chambers
# 0, n // 2 and n - 1: (nodes made, unions, peak live nodes).  Catalog
# fano, gq22, a3-f2, neumaier-a7 and singer-quotient-z5; thin A3, C3, H3, A4
# and D4; central quotients of C3, H3, D4 and A1x3.
GLUER_WORK = [(21, 0, 21), (45, 0, 45), (427, 112, 319), (2835, 2520, 2835), (427, 112, 319),
              (27, 3, 25), (48, 0, 48), (130, 10, 120), (152, 32, 121), (230, 38, 192),
              (48, 0, 48), (130, 10, 120), (230, 38, 192), (8, 0, 8)]


def test_gluer_work_is_pinned(monkeypatch):
    for C, work in zip(corpus.named_systems(), GLUER_WORK, strict=True):
        for c0 in sorted({0, C.n // 2, C.n - 1}):
            _, gluer = _cover_by(monkeypatch, _GLUER, C, c0)
            assert (len(gluer.proj), gluer.unions, gluer.peak) == work, (C, c0)
            res = covers.universal_cover(C, c0, with_deck=False)
            assert (res.nodes, res.unions) == work[:2]


def test_gluer_matches_reference_on_random_systems(monkeypatch):
    rng = random.Random(20121205)
    truncated = collections.Counter()
    for _ in range(1000):
        C = corpus.random_connected_system(rng)
        c0 = rng.randrange(C.n)
        old, _ = _cover_by(monkeypatch, _ReferenceGluer, C, c0, max_chambers=2000)
        new, gluer = _cover_by(monkeypatch, _GLUER, C, c0, max_chambers=2000)
        assert new == old and _panels_shared(gluer), (C.panels, c0)
        truncated[new[0]] += 1
    assert truncated[True] >= 10 and truncated[False] >= 10


def test_universal_cover_pg42(monkeypatch):
    # the 9,765 maximal flags of PG(4,2), a building of type A4: simply
    # 2-connected, so it is its own universal cover
    C = corpus.pg42()
    (truncated, _, deck, regular, (chamber_map, _)), gluer = _cover_by(
        monkeypatch, _GLUER, C, 0)
    assert not truncated and len(chamber_map) == C.n == 9765
    assert sorted(chamber_map) == list(range(C.n))
    assert len(deck) == 1 and regular
    assert (len(gluer.proj), gluer.unions, gluer.peak) == (15237, 5472, 9773)


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
    assert chamber.isomorphism(res.covering.cover, thin) is not None
    # the deck group is the nonabelian group of order 6
    compose = lambda f, g: tuple(f[g[c]] for c in range(720))
    assert any(compose(a, b) != compose(b, a)
               for a in res.deck for b in res.deck)


def _forced_extension(A, mpA, B, mpB, a0, b0):
    """The reference extension of a0 -> b0 to a map f: A -> B with
    mpB(f(x)) = mpA(x), using that panels of B embed into base panels.
    Requires A connected; the result need not be injective, so it serves
    covers of different sizes.  Each panel of A is matched once: from
    another of its chambers it would meet the same panel of B."""
    f = [None] * A.n
    f[a0] = b0
    placed = 1
    queue = [a0]
    sides = [(A.panels[i], A._panel_idx[i], B.panels[i], B._panel_idx[i], [False] * len(A.panels[i]))
             for i in A.types]
    while queue:
        x = queue.pop()
        y = f[x]
        for a_panels, a_idx, b_panels, b_idx, walked in sides:
            p = a_idx[x]
            if walked[p]:
                continue
            walked[p] = True
            by_base = {}
            for w in b_panels[b_idx[y]]:
                if mpB[w] in by_base:
                    return None
                by_base[mpB[w]] = w
            for z in a_panels[p]:
                w = by_base.get(mpA[z])
                if w is None:
                    return None
                if f[z] is None:
                    f[z] = w
                    placed += 1
                    queue.append(z)
                elif f[z] != w:
                    return None
    if placed != A.n:
        return None
    return tuple(f)


def _covering_between(p, q):
    """A covering map from p's total space onto q's, commuting with the two
    projections to their common base; None if no extension works.  Seeds
    are searched over q's fiber, per the universal property."""
    A, B = p.cover, q.cover
    assert p.base.n == q.base.n and p.base.panels == q.base.panels
    assert A.is_connected()
    mpA, mpB = p.chamber_map, q.chamber_map
    for b0 in range(B.n):
        if mpB[b0] != mpA[0]:
            continue
        f = _forced_extension(A, mpA, B, mpB, 0, b0)
        if f is None:
            continue
        cm = CoveringMap(A, B, f)
        if covers.is_covering(cm)[0]:
            return cm
    return None


def test_universal_property():
    # the universal cover factors through every other covering of the base
    thin, Q120, Q360, cmap = _s6_quotient_pair()
    res = covers.universal_cover(Q120, 0, max_chambers=10 ** 4)
    factor = _covering_between(res.covering, cmap)
    assert factor is not None
    assert factor.cover.n == 720 and factor.base.n == 360
    # composing recovers the universal projection
    composed = tuple(cmap.chamber_map[factor.chamber_map[c]] for c in range(720))
    assert composed == res.covering.chamber_map
    base, quot, proj = catalog.build_singer_quotient(5)
    res2 = covers.universal_cover(quot, 0, max_chambers=10 ** 5)
    factor2 = _covering_between(res2.covering, proj)
    assert factor2 is not None and factor2.base.n == 315


# ---------------------------------------------------------------------------
# gallery homotopy, against the breadth-first reference engine


def _segment_galleries(C, u, v, P, max_len, charge=lambda: None):
    """All galleries u -> v with types within the pair P, length <= max_len.
    Each stack push first calls charge(), which may raise to stop."""
    out = []
    stack = [((u,), ())]
    while stack:
        chambers, types = stack.pop()
        c = chambers[-1]
        if c == v:
            out.append(TypedGallery(chambers, types))
        if len(types) >= max_len:
            continue
        for i in P:
            for d in C.panel_of(i, c):
                if d != c:
                    charge()
                    stack.append((chambers + (d,), types + (i,)))
    return out


def _homotopic_bfs(C, g1, g2, budget=10 ** 5):
    """The reference engine for covers.homotopic: bounded breadth-first
    search over the elementary-homotopy graph of galleries, at most 4 steps
    longer than the longer input.  Exact on small systems.  Every stack
    push of the segment enumerations is charged to `budget`, which so
    bounds the galleries kept too: each came from a push.
    True / False-by-exhaustion / BudgetExceeded."""
    spent = itertools.count(1)

    def charge():
        if next(spent) > budget:
            raise BudgetExceeded("gallery BFS budget exhausted")

    chamber.validate_gallery(C, g1)
    chamber.validate_gallery(C, g2)
    g1 = g1.normalized()
    g2 = g2.normalized()
    assert g1.start == g2.start and g1.end == g2.end
    if g1 == g2:
        return True
    max_len = max(len(g1), len(g2)) + 4
    seen = {g1}
    frontier = [g1]
    pairs = list(itertools.combinations(C.types, 2))
    while frontier:
        nxt = []
        for g in frontier:
            n = len(g)
            for s in range(n + 1):
                for e in range(s, n + 1):
                    seg_types = set(g.types[s:e])
                    for P in pairs:
                        if not seg_types <= set(P):
                            continue
                        u, v = g.chambers[s], g.chambers[e]
                        if C.component_map(P)[u] != C.component_map(P)[v]:
                            continue
                        room = max_len - (n - (e - s))
                        for seg in _segment_galleries(C, u, v, P, room, charge):
                            g2new = TypedGallery(
                                g.chambers[:s] + seg.chambers + g.chambers[e + 1:],
                                g.types[:s] + seg.types + g.types[e:]).normalized()
                            if g2new == g2:
                                return True
                            if g2new not in seen:
                                seen.add(g2new)
                                nxt.append(g2new)
        frontier = nxt
    return False


def test_homotopic_matches_bfs_on_thin_a2():
    a2 = coxeter.coxeter_complex(coxeter.A2)
    rng = random.Random(11)
    for _ in range(25):
        g1 = corpus.random_gallery(a2, 0, rng.randint(0, 4), rng)
        g2 = corpus.random_gallery(a2, 0, rng.randint(0, 4), rng)
        if g1.end != g2.end:
            continue
        fast = covers.homotopic(a2, g1, g2)
        slow = _homotopic_bfs(a2, g1, g2, budget=5000)
        assert fast == slow
        assert fast  # rank-2 systems are simply 2-connected


def test_homotopic_matches_bfs_off_simply_connected():
    # the cube complex A1x3 modulo its centre: the loop of types 1, 2, 3
    # closes here but not in the cube, its universal cover
    q = corpus.central_quotient(corpus.A1x3)
    loop = corpus.gallery_from_types(q, 0, (1, 2, 3))
    trivial = TypedGallery((0,), ())
    assert q.n == 4 and loop.end == 0
    fast = covers.homotopic(q, loop, trivial)
    slow = _homotopic_bfs(q, loop, trivial, budget=3 * 10 ** 5)
    assert (fast, slow) == (False, False)
    with pytest.raises(BudgetExceeded):
        _homotopic_bfs(q, loop, trivial, budget=500)
    # W(A1x3) is abelian: a type word and any reordering of it are homotopic
    rng = random.Random(16)
    reordered = 0
    for _ in range(10):
        c = rng.randrange(q.n)
        word = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        g1 = corpus.gallery_from_types(q, c, word)
        g2 = corpus.gallery_from_types(q, c, rng.sample(word, len(word)))
        fast = covers.homotopic(q, g1, g2)
        slow = _homotopic_bfs(q, g1, g2, budget=3 * 10 ** 5)
        assert (fast, slow) == (True, True), (c, g1.types, g2.types)
        reordered += g1 != g2
    assert reordered >= 3


def test_homotopic_bfs_charges_segment_pushes(monkeypatch):
    # two galleries of lengths 1 and 3 in a 4-chamber rank-3 system: the
    # reference kept under 2,000 galleries but pushed about 5.2 million
    # segment galleries before answering False.  Each push is charged to
    # the budget, so the search stops at the first push past it
    C = chamber.ChamberSystem(4, 3, {1: [[0], [1], [2, 3]], 2: [[0, 3], [1, 2]],
                                     3: [[0, 1, 2], [3]]})
    g1 = TypedGallery((1, 2), (2,))
    g2 = TypedGallery((1, 0, 3, 2), (3, 2, 1))
    pushes = []
    segments = _segment_galleries

    def counted(C, u, v, P, max_len, charge):
        def counted_charge():
            pushes.append(P)
            charge()
        return segments(C, u, v, P, max_len, counted_charge)

    monkeypatch.setitem(globals(), "_segment_galleries", counted)
    with pytest.raises(BudgetExceeded):
        _homotopic_bfs(C, g1, g2, budget=2000)
    assert len(pushes) == 2001


def test_homotopic_matches_bfs_on_hypothesis_systems():
    # small connected systems of rank 2-4 and two short galleries with
    # common extremities, the second closed off by a shortest gallery.  A
    # homotopy the search finds is one, so homotopic must not deny it; its
    # False (exhaustion within 4 extra steps) is no proof and is not
    # compared.  Every pair is homotopic in a rank-2 system, its one rank-2
    # residue.  Either engine may run out of budget: an infinite universal
    # cover, or too many segment galleries to enumerate
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    outcomes = collections.Counter()

    @hypothesis.seed(2012)
    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @hypothesis.given(st.randoms(use_true_random=False), st.integers(0, 2), st.integers(0, 2))
    def check(rng, steps1, steps2):
        C = corpus.random_connected_system(rng)
        hypothesis.assume(C.n > 1)      # a lone chamber has no step to take
        start = rng.randrange(C.n)
        g1 = corpus.random_gallery(C, start, steps1, rng)
        g2 = corpus.random_gallery(C, start, steps2, rng)
        tail = C.min_gallery(g2.end, g1.end)
        g2 = TypedGallery(g2.chambers + tail.chambers[1:], g2.types + tail.types)
        try:
            fast = covers.homotopic(C, g1, g2, budget=2000)
        except BudgetExceeded:
            fast = None
        try:
            slow = _homotopic_bfs(C, g1, g2, budget=2 * 10 ** 5)
        except BudgetExceeded:
            slow = None
        if slow:
            assert fast is not False, (C.panels, g1, g2)
        if C.rank == 2:
            assert fast and slow is not False, (C.panels, g1, g2)
        outcomes[fast, slow] += 1

    check()
    assert outcomes[True, True] >= 75


def test_homotopic_in_buildings():
    a3 = catalog.build_a3_f2()
    rng = random.Random(12)
    for _ in range(15):
        g1 = corpus.random_gallery(a3, 0, rng.randint(0, 6), rng)
        g2 = a3.min_gallery(0, g1.end)
        assert covers.homotopic(a3, g1, g2, budget=10 ** 5)


def test_homotopic_distinguishes_classes():
    base, quot, proj = catalog.build_singer_quotient(5)
    res = covers.universal_cover(quot, 0, max_chambers=10 ** 5)
    rng = random.Random(13)
    trivial = TypedGallery((0,), ())
    seen_nontrivial = False
    for _ in range(300):
        g = corpus.random_gallery(quot, 0, 10, rng)
        if g.end != 0:
            continue
        hom = covers.homotopic(quot, g, trivial, budget=10 ** 5)
        lift_end = covers.lift_gallery(res.covering, g, res.root).end
        assert hom == (lift_end == res.root)
        seen_nontrivial |= not hom
    assert seen_nontrivial


def test_homotopic_budget():
    # the budget bounds live gluer nodes, not chambers, and the message says
    # how far the gluer got: the 315-chamber neumaier-a7 needs 2,835 nodes,
    # all made before the first union.  Freshly loaded systems, so no cover
    # is kept for them yet.
    g = TypedGallery((0,), ())
    for C, budget, work in ((catalog.build_a3_f2(), 10, "21 nodes and 0 unions"),
                            (catalog.build_neumaier_a7()[0], 2834, "2835 nodes and 0 unions")):
        C = chamber.system_from_json(chamber.system_to_json(C))
        with pytest.raises(BudgetExceeded) as err:
            covers.homotopic(C, g, g, budget=budget)
        assert str(err.value) == (f"universal cover needs more than {budget} live gluer nodes "
                                  f"(stopped after {work}); homotopy undecided")


def test_homotopic_one_cover_lifted_from_any_start(monkeypatch):
    # one cover based at chamber 0 answers like a cover based at each start
    quot = catalog.build("singer-quotient-z5")["system"]
    C = chamber.system_from_json(chamber.system_to_json(quot))
    rng = random.Random(14)
    queries = []
    for start in (5, 17, 33, 62):
        res = covers.universal_cover(C, c0=start, with_deck=False)
        for _ in range(20):
            g1 = corpus.random_gallery(C, start, rng.randint(2, 12), rng)
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
    g1 = corpus.gallery_from_types(a2, 0, (1,))
    g2 = corpus.gallery_from_types(a2, 0, (2,))
    with pytest.raises(ValueError):
        covers.homotopic(a2, g1, g2)
    # a chamber or type out of range is named, not wrapped or looked up
    for bad, named in ((TypedGallery((0, a2.n), (1,)), f"chamber {a2.n} outside"),
                       (TypedGallery((-1, -1), (1,)), "chamber -1 outside"),
                       (TypedGallery((0, 0), (3,)), "type 3 outside")):
        with pytest.raises(ValueError, match=named):
            covers.homotopic(a2, bad, bad)


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
    assert chamber.isomorphism(cover, corpus.thin(corpus.A1x3)) is not None
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


def test_cover_from_lift_reads_connectivity_off_the_cover(monkeypatch):
    # the Neumaier A7 spec lifted into Z1, Z2 and Z3 by trivial maps: |pi|
    # disjoint copies of the base, connected only for Z1, decided without
    # a generation test
    _, spec = catalog.build_neumaier_a7()
    base_ct = groups.left_cosets(spec.group, spec.principal)

    def refuse(*args, **kwargs):
        raise RuntimeError("generates called")
    monkeypatch.setattr(groups, "generates", refuse)
    for k in (1, 2, 3):
        pi = groups.group_from_generators([groups.perm_from_cycles(k, [tuple(range(k))])])
        e = groups.identity(k)
        phi = {i: {g: e for g in F.elements} for i, F in spec.faces.items()}
        cover, cmap, connected = covers.cover_from_lift(spec, pi, phi)
        assert cover.n == 315 * k
        assert connected is (k == 1)
        assert len(set(cover.component_map(cover.types))) == k
        assert cmap.chamber_map == tuple(base_ct.coset_of[rep[:7]] for rep in cover.labels)
        ok, diag = covers.is_covering(cmap)
        assert ok, diag


def _forced_deck(p):
    """The reference deck search: the forced extensions from chamber 0 to
    each point of its fiber that are bijections."""
    cover, mp = p.cover, p.chamber_map
    fiber = [x for x in range(cover.n) if mp[x] == mp[0]]
    autos = [f for f in (_forced_extension(cover, mp, cover, mp, 0, y) for y in fiber)
             if f is not None and len(set(f)) == cover.n]
    return autos, len(autos) == len(fiber)


def test_deck_search_agrees_with_the_forced_extension():
    # deck_transformations runs the isomorphism engine coloured by the
    # covering map; it finds the same maps, in fiber order, as the forced
    # extension on universal covers, the non-regular S6 cover and the
    # connected subgroup lifts of the Klein and Neumaier A7 specs
    coverings = [covers.universal_cover(C, 0, max_chambers=10 ** 5).covering
                 for C in corpus.named_systems()]
    coverings.append(_s6_quotient_pair()[3])
    G, triv, faces, gens = _klein_spec()
    z = groups.perm_from_cycles(2, [(0, 1)])
    pi = groups.group_from_generators([z])
    e2 = groups.identity(2)
    for images in itertools.product((e2, z), repeat=3):
        phi = {i: {groups.identity(4): e2, g: w}
               for i, g, w in zip((1, 2, 3), gens, images)}
        cover, cmap, connected = covers.cover_from_lift(HomogeneousSpec(G, triv, faces), pi, phi)
        if connected:
            coverings.append(cmap)
    _, spec = catalog.build_neumaier_a7()
    e1 = groups.identity(1)
    phi = {i: {g: e1 for g in F.elements} for i, F in spec.faces.items()}
    coverings.append(covers.cover_from_lift(spec, groups.group_from_generators([e1]), phi)[1])
    assert len(coverings) >= len(corpus.named_systems()) + 5
    regular = collections.Counter()
    for p in coverings:
        deck, reg = covers.deck_transformations(p)
        assert (deck, reg) == _forced_deck(p), p.base
        regular[reg] += 1
    assert regular[True] >= 10 and regular[False] >= 1
