import collections
import itertools
import json
import math
import random
import sys

import pytest

import corpus
from chambers import catalog, chamber, cli, covers, coxeter, groups, verify
from chambers.chamber import HomogeneousSpec, TypedGallery
from chambers.errors import (
    ActionNotFree,
    BudgetExceeded,
    Disconnected,
    DuplicateChamber,
    InconsistentResidues,
    NotSubgroup,
    PartitionNotCovering,
    ResidueCollision,
    ResidueNotPolygon,
)


def test_from_partitions_validation():
    C = chamber.from_partitions(2, 1, {1: [(0, 1)]})
    assert C.n == 2 and C.panel_of(1, 0) == (0, 1)
    C = chamber.from_partitions(2, 1, {1: [(0,), (1,)]})
    assert not C.is_connected()
    with pytest.raises(DuplicateChamber):
        chamber.from_partitions(3, 1, {1: [(0, 1), (1, 2)]})
    with pytest.raises(PartitionNotCovering):
        chamber.from_partitions(3, 1, {1: [(0, 1)]})
    with pytest.raises(PartitionNotCovering):
        chamber.from_partitions(2, 2, {1: [(0, 1)]})
    # counts and chamber ids must be integers: a float or a digit string is
    # refused, not truncated
    for n, rank, panel in ((2.0, 1, (0, 1)), (2, 1.0, (0, 1)), (2, 1, (0, 1.0)), ("2", 1, (0, 1)),
                           (2, 1, (0, "1"))):
        with pytest.raises(TypeError):
            chamber.from_partitions(n, rank, {1: [panel]})


def test_partition_faults_keep_their_errors():
    # a partition that fails a whole-partition test is scanned panel by
    # panel, which raises the first fault with its own type and message;
    # each fault sits after a valid panel, in either type, in lists or tuples
    valid = {1: [(0, 1), (2, 3)], 2: [(0, 2), (1, 3)]}
    faults = [([(0, 1), (2, True)], TypeError, "a bool chamber id in a type-{t} panel"),
              ([(0, 1), (2, 4)], PartitionNotCovering, "chamber id 4 out of range"),
              ([(0, 1), (-1, 2, 3)], PartitionNotCovering, "chamber id -1 out of range"),
              ([(0, 1), (1, 2, 3)], DuplicateChamber, "chamber 1 repeated in type-{t} partition"),
              ([(0, 1), (), (2, 3)], PartitionNotCovering, "empty panel of type {t}"),
              ([(0, 1), (3,)], PartitionNotCovering, "chamber 2 missing from type-{t} partition"),
              ([(0, 1), (2, 3), (4,)], PartitionNotCovering, "chamber id 4 out of range"),
              ([(0, 1), (2, 3.0)], TypeError, None)]
    for t in (1, 2):
        for panels, error, message in faults:
            for shape in (tuple, list):
                parts = {**valid, t: shape(map(shape, panels))}
                with pytest.raises(error) as info:
                    chamber.ChamberSystem(4, 2, parts)
                if message is not None:
                    assert str(info.value) == message.format(t=t)
    # ids that are integers but not exact ints take the scan and convert
    C = chamber.ChamberSystem(4, 2, valid)
    assert C.panels == {1: ((0, 1), (2, 3)), 2: ((0, 2), (1, 3))}
    Id = type("Id", (int,), {})
    odd = {1: [(Id(3), 2), [1, 0]], 2: iter([(0, 2), (3, 1)])}
    D = chamber.ChamberSystem(4, 2, odd)
    assert D.panels == C.panels and type(D.panels[1][0][0]) is int


def test_from_cosets_s3():
    S3 = groups.symmetric_group(3)
    triv = groups.Subgroup(S3, [groups.identity(3)])
    f1 = groups.subgroup_generated(S3, [groups.perm_from_cycles(3, [(0, 1)])])
    f2 = groups.subgroup_generated(S3, [groups.perm_from_cycles(3, [(1, 2)])])
    C = chamber.from_cosets(HomogeneousSpec(S3, triv, {1: f1, 2: f2}))
    assert C.n == 6
    assert chamber.isomorphism(C, coxeter.coxeter_complex(coxeter.A2)) is not None
    # panel sizes equal the face-group index over the principal subgroup
    for i in (1, 2):
        assert all(len(p) == 2 for p in C.panels[i])


def test_from_cosets_single_chamber():
    S3 = groups.symmetric_group(3)
    whole = groups.Subgroup(S3, S3.elements, check=False)
    C = chamber.from_cosets(HomogeneousSpec(S3, whole, {1: whole}))
    assert C.n == 1 and len(C.panels[1]) == 1


def test_spec_equality_ignores_vertex_cache():
    S3 = groups.symmetric_group(3)
    triv = groups.Subgroup(S3, [groups.identity(3)])
    faces = {i: groups.subgroup_generated(S3, [groups.perm_from_cycles(3, [(i - 1, i)])])
             for i in (1, 2)}
    a, b = HomogeneousSpec(S3, triv, faces), HomogeneousSpec(S3, triv, faces)
    assert a.vertex_group(1).order == 2
    assert a == b and "_vertex_cache" not in repr(a)


def _reference_from_cosets(spec):
    """Partitions and labels of the coset system built with one coset table
    per face group: the type-i panels bucket the principal cosets by the
    face-group coset of their representative."""
    G = spec.group
    ct_H = groups.left_cosets(G, spec.principal)
    partitions = {}
    for i in spec.types:
        ct_i = groups.left_cosets(G, spec.faces[i])
        buckets = {}
        for cid, rep in enumerate(ct_H.reps):
            buckets.setdefault(ct_i.coset_of[rep], []).append(cid)
        partitions[i] = tuple(sorted(tuple(sorted(v)) for v in buckets.values()))
    return partitions, ct_H.reps


def _assert_from_cosets_matches_reference(spec):
    C = chamber.from_cosets(spec)
    assert (C.panels, C.labels) == _reference_from_cosets(spec)


def test_from_cosets_matches_reference_on_named_specs():
    _assert_from_cosets_matches_reference(catalog.a3_f2_spec())
    _assert_from_cosets_matches_reference(catalog.build_neumaier_a7()[1])
    # the rank-2 truncations of PG(3,2): a minimal parabolic as principal
    # subgroup, the two maximal parabolics over it as faces
    spec = catalog.a3_f2_spec()
    G, faces, vertex = spec.group, spec.faces, spec.vertex
    for j in (1, 2, 3):
        over = {t: vertex[k] for t, k in enumerate((k for k in (1, 2, 3) if k != j), start=1)}
        _assert_from_cosets_matches_reference(HomogeneousSpec(G, faces[j], over))


def test_from_cosets_matches_reference_on_random_specs():
    rng = random.Random(1021)
    ranks = set()
    for t in range(40):
        G = corpus.pool_group(corpus.GROUP_POOL[t % len(corpus.GROUP_POOL)])
        hgens = rng.sample(G.elements, rng.randint(0, 1))
        H = groups.subgroup_generated(G, hgens or [groups.identity(G.degree)])
        if G.order // H.order > 1000:
            continue
        faces = {i: groups.subgroup_generated(G, hgens + rng.sample(G.elements, rng.randint(1, 2)))
                 for i in range(1, rng.choice((2, 3)) + 1)}
        _assert_from_cosets_matches_reference(HomogeneousSpec(G, H, faces))
        ranks.add(len(faces))
    assert ranks == {2, 3}


def test_from_cosets_refuses_malformed_faces_like_reference():
    # faces that are subsets containing H: a subgroup face gives the
    # reference's system, and any other face is refused, where the
    # reference accepts some unions of H-cosets whose translates happen to
    # tile G
    S3 = groups.symmetric_group(3)
    triv = groups.Subgroup(S3, [groups.identity(3)])
    not_sub = groups.Subgroup(S3, [groups.identity(3), groups.perm_from_cycles(3, [(0, 1)]),
                                   groups.perm_from_cycles(3, [(1, 2)])], check=False)
    with pytest.raises(NotSubgroup):
        chamber.from_cosets(HomogeneousSpec(S3, triv, {1: not_sub}))
    rng = random.Random(1022)
    seen = collections.Counter()
    for t in range(300):
        G = corpus.pool_group(corpus.GROUP_POOL[t % 3])
        H = groups.subgroup_generated(G, rng.sample(G.elements, 1))
        subset = set(H.elements) | set(rng.sample(G.elements, rng.randint(1, 4)))
        if t % 2:
            subset = {groups.mul(s, h) for s in subset for h in H.elements}
        face = groups.Subgroup(G, subset, check=False)
        ct = groups.left_cosets(G, H)
        union = len({ct.coset_of[g] for g in subset}) * H.order == len(subset)
        subgroup = all(groups.mul(a, b) in subset for a in subset for b in subset)
        spec = HomogeneousSpec(G, H, {1: face, 2: groups.Subgroup(G, G.elements, check=False)})
        try:
            want = _reference_from_cosets(spec)
        except NotSubgroup:
            want = None
        try:
            C = chamber.from_cosets(spec)
            got = (C.panels, C.labels)
        except NotSubgroup:
            got = None
        if subgroup:
            assert got == want is not None
        else:
            assert got is None
        seen[union, subgroup, want is None] += 1
    assert seen[True, True, False] and seen[True, False, True] and seen[False, False, True]
    # unions of H-cosets that are no subgroup, accepted by the reference
    assert seen[True, False, False] == 15


# (G, H, face) drawn by the loop above: unions of H-cosets that are no
# subgroup, whose translates tile G, so the reference accepts them
_TILING_NON_SUBGROUPS = (
    ("S4", [(0, 1, 2, 3), (3, 2, 1, 0)],
     [(0, 1, 2, 3), (2, 0, 1, 3), (3, 1, 0, 2), (3, 2, 1, 0)]),
    ("S4", [(0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 2, 1, 0)],
     [(0, 1, 2, 3), (0, 3, 2, 1), (1, 2, 3, 0), (1, 3, 0, 2), (2, 0, 1, 3), (2, 0, 3, 1),
      (3, 1, 0, 2), (3, 2, 1, 0)]),
    ("S5", [(0, 1, 2, 3, 4), (3, 2, 1, 0, 4)],
     [(0, 1, 2, 3, 4), (1, 0, 2, 3, 4), (3, 2, 0, 1, 4), (3, 2, 1, 0, 4)]),
)


@pytest.mark.parametrize("gname, h, face", _TILING_NON_SUBGROUPS)
def test_from_cosets_refuses_a_tiling_face_that_is_no_subgroup(gname, h, face):
    G = corpus.pool_group(gname)
    H = groups.Subgroup(G, h)
    spec = HomogeneousSpec(G, H, {1: groups.Subgroup(G, face, check=False),
                                  2: groups.Subgroup(G, G.elements, check=False)})
    _reference_from_cosets(spec)        # accepted: the face's translates tile G
    with pytest.raises(NotSubgroup, match="not closed under products"):
        chamber.from_cosets(spec)


def test_residues():
    a3 = catalog.build_a3_f2()
    assert a3.residue((), 5).chambers == (5,)
    assert len(a3.residue(a3.types, 0).chambers) == 315
    assert len(a3.residue((1, 2), 0).chambers) == 21
    assert len(a3.residue((1, 3), 0).chambers) == 9
    rs = a3.residues((1, 2))
    assert len(rs) == 15 and sum(len(r.chambers) for r in rs) == 315
    # a type outside 1..rank is a ValueError, not a bare KeyError
    for bad in (lambda: a3.residues((5,)), lambda: a3.component_map((1, 0)),
                lambda: a3.residue((4,), 0), lambda: a3._residue_gonalities(1, 5)):
        with pytest.raises(ValueError, match=r"type \d outside 1\.\.3"):
            bad()


# per entry point taking a chamber id or a type, a call on the Fano flag
# system C and its identity covering p passing b in that place; a start at
# chamber 1 is where True would land if it were read as an id
_ID_CALLS = {
    "residue-type": lambda C, p, b: C.residue((b,), 0),
    "residue-chamber": lambda C, p, b: C.residue((1,), b),
    "residues": lambda C, p, b: C.residues((1, b)),
    "component_map": lambda C, p, b: C.component_map((b,)),
    "min_gallery-start": lambda C, p, b: C.min_gallery(b, 3),
    "min_gallery-end": lambda C, p, b: C.min_gallery(0, b),
    "validate_gallery-chamber":
        lambda C, p, b: chamber.validate_gallery(C, TypedGallery((1, b), (1,))),
    "validate_gallery-type":
        lambda C, p, b: chamber.validate_gallery(C, TypedGallery((0, 0), (b,))),
    "lift_gallery": lambda C, p, b: covers.lift_gallery(p, TypedGallery((1,), ()), b),
    "universal_cover": lambda C, p, b: covers.universal_cover(C, c0=b),
    "w_distance-x": lambda C, p, b: verify.w_distance(C, coxeter.A2, b, 0),
    "w_distance-y": lambda C, p, b: verify.w_distance(C, coxeter.A2, 0, b),
    "isomorphism-start-x": lambda C, p, b: chamber.isomorphism(C, C, (b, 1)),
    "isomorphism-start-y": lambda C, p, b: chamber.isomorphism(C, C, (1, b)),
}


@pytest.mark.parametrize("name", sorted(_ID_CALLS))
def test_ids_are_checked_at_every_entry_point(name):
    # -1 must not wrap to the last chamber, n is one past it, and a bool or
    # a float is no id: each is refused, never read or truncated
    fano = catalog.build_fano_flags()
    p = covers.CoveringMap(fano, fano, tuple(range(fano.n)))
    for bad in (-1, fano.n, True, 1.5):
        with pytest.raises((TypeError, ValueError)):
            _ID_CALLS[name](fano, p, bad)


def test_residues_match_per_chamber_scan_on_named_systems():
    # the listing against residue's former scan of all chambers per call
    for C in corpus.named_systems():
        for k in range(C.rank + 1):
            for J in itertools.combinations(C.types, k):
                comp = C.component_map(J)
                scans = {tuple(d for d in range(C.n) if comp[d] == comp[c]) for c in range(C.n)}
                listing = C.residues(J)
                assert [r.chambers for r in listing] == sorted(scans), (C, J)
                assert all(r.types == frozenset(J) for r in listing)
                for c in (0, C.n - 1):
                    assert C.residue(J, c) == listing[comp[c]]


def _sorted_buckets(keys):
    """The grouping each builder wrote before `_chambers_by_key`: a list
    per key, then every group and the list of groups sorted."""
    buckets = {}
    for c, key in enumerate(keys):
        buckets.setdefault(key, []).append(c)
    return sorted(tuple(sorted(v)) for v in buckets.values())


def test_chambers_by_key_matches_sorted_buckets_on_random_keys():
    # the builders' keys are ints (thin complexes, component ids), tuples
    # (flags), frozensets (quotients) and object ids (covers); a generator
    # of keys is read once, as the flag and cover builders pass it
    rng = random.Random(36)
    shapes = (lambda k: k, lambda k: (k % 3, (k // 3,)), lambda k: frozenset({k, k % 4}))
    for trial in range(300):
        n = rng.randint(1, 80)
        pool = rng.randint(1, n)
        keys = list(map(shapes[trial % 3], (rng.randrange(pool) for _ in range(n))))
        want = _sorted_buckets(keys)
        assert chamber._chambers_by_key(keys) == want, keys
        assert chamber._chambers_by_key(iter(keys)) == want
        assert all(type(g) is tuple for g in chamber._chambers_by_key(keys))
    assert chamber._chambers_by_key([]) == []


def test_min_gallery():
    a2 = coxeter.coxeter_complex(coxeter.A2)
    g = a2.min_gallery(0, 0)
    assert g.chambers == (0,) and g.types == ()
    tsets = corpus.minimal_type_sets(a2, 0)
    assert tsets[0] == frozenset({()})
    table = coxeter.enumerate_group(coxeter.A2)
    w0 = corpus.longest_id(table)
    assert tsets[w0] == frozenset({(1, 2, 1), (2, 1, 2)})
    # adjacent chambers sharing only an i-panel have type set {(i,)}
    partner = [d for d in a2.panel_of(1, 0) if d != 0][0]
    assert tsets[partner] == frozenset({(1,)})
    g = a2.min_gallery(0, w0)
    assert len(g) == 3
    chamber.validate_gallery(a2, g)
    # a minimal gallery's type word is one of the minimal type words
    a3 = catalog.build_a3_f2()
    tsets = corpus.minimal_type_sets(a3, 5)
    for y in range(0, a3.n, 7):
        g = a3.min_gallery(5, y)
        chamber.validate_gallery(a3, g)
        assert (g.start, g.end) == (5, y) and g.types in tsets[y]
    disc = chamber.from_partitions(2, 1, {1: [(0,), (1,)]})
    with pytest.raises(Disconnected):
        disc.min_gallery(0, 1)


def test_gallery_walks_match_the_adjacency_reference():
    # the panel walks visit a chamber's neighbours type by type and within a
    # type in panel member order, the order of the adjacency lists, so the
    # breadth-first orders, distances and galleries equal the reference's;
    # random partitions put some chamber pairs in panels of two types, so a
    # neighbour shows up twice in the walk
    rng = random.Random(28)
    systems = corpus.named_systems() + [
        corpus.random_partitions(rng, rng.randint(1, 4), rng.randint(1, 12)) for _ in range(300)]
    repeated = 0
    for C in systems:
        adj = C.adjacency()
        assert adj == [tuple((i, d) for i in C.types for d in C.panel_of(i, c) if d != c)
                       for c in range(C.n)]
        repeated += any(len({d for _, d in a}) < len(a) for a in adj)
        for x in sorted({0, C.n - 1, rng.randrange(C.n)}):
            order, dist = corpus.distances_from(C, x)
            assert C._distances_from(x) == (order, dist)
            for y in order[::max(1, len(order) // 25)] + order[-1:]:
                assert C.min_gallery(x, y) == corpus.min_gallery(C, x, y), (C, x, y)
    assert repeated >= 100


def test_gallery_normalize():
    g = TypedGallery((0, 0, 1), (1, 1))
    assert g.normalized().chambers == (0, 1)
    with pytest.raises(ValueError):
        TypedGallery((0, 1), ())


def test_validate_gallery_names_chambers_and_types_out_of_range():
    fano = catalog.build_fano_flags()
    # -1 must not wrap around to the last chamber
    for gal, named in ((TypedGallery((-1, 7), (1,)), "chamber -1 outside"),
                       (TypedGallery((0, fano.n), (1,)), f"chamber {fano.n} outside"),
                       (TypedGallery((0, 0), (0,)), "type 0 outside"),
                       (TypedGallery((0, 0), (3,)), "type 3 outside")):
        with pytest.raises(ValueError, match=named):
            chamber.validate_gallery(fano, gal)


def test_generalized_mgon():
    thin2 = coxeter.coxeter_complex(coxeter.A1xA1)
    assert chamber.infer_type_matrix(thin2).order(1, 2) == 2
    fano = catalog.build_fano_flags()
    assert chamber.infer_type_matrix(fano).order(1, 2) == 3


def test_incidence_graph_stats_edge_cases():
    # (girth, diameter); None is no cycle, respectively a disconnected graph
    path = chamber.from_partitions(2, 2, {1: [(0, 1)], 2: [(0,), (1,)]})
    assert chamber.incidence_graph_stats(path) == (None, 2)
    two_edges = chamber.from_partitions(2, 2, {1: [(0,), (1,)], 2: [(0,), (1,)]})
    assert chamber.incidence_graph_stats(two_edges) == (None, None)
    double_edge = chamber.from_partitions(2, 2, {1: [(0, 1)], 2: [(0, 1)]})
    assert chamber.incidence_graph_stats(double_edge) == (2, 1)
    assert chamber.incidence_graph_stats(catalog.build_gq22()) == (8, 4)
    # panels of more than 64 chambers: the pass folds their balls in chunks
    star = chamber.from_partitions(200, 2, {1: [range(200)], 2: [(c,) for c in range(200)]})
    assert chamber.incidence_graph_stats(star) == _reference_stats(star) == (None, 2)
    grid = _digon(2, 150)
    assert chamber.incidence_graph_stats(grid) == _reference_stats(grid) == (4, 2)
    assert grid._residue_gonalities(1, 2) == ((0, 2),)


def test_infer_type_matrix():
    assert chamber.infer_type_matrix(coxeter.coxeter_complex(coxeter.C3)) == coxeter.C3
    M = chamber.infer_type_matrix(catalog.build_a3_f2())
    assert M == coxeter.A3
    # inconsistent: disjoint union of a triangle system and a digon system
    fano = catalog.build_fano_flags()
    thin2 = coxeter.coxeter_complex(coxeter.A1xA1)
    n = fano.n + thin2.n
    parts = {}
    for i in (1, 2):
        panels = [p for p in fano.panels[i]]
        panels += [tuple(c + fano.n for c in p) for p in thin2.panels[i]]
        parts[i] = panels
    mixed = chamber.from_partitions(n, 2, parts)
    with pytest.raises(InconsistentResidues):
        chamber.infer_type_matrix(mixed)
    # a residue that is no polygon at all
    path = chamber.from_partitions(2, 2, {1: [(0, 1)], 2: [(0,), (1,)]})
    with pytest.raises(ResidueNotPolygon):
        chamber.infer_type_matrix(path)


def test_is_simplicial():
    ok, wit = chamber.is_simplicial(coxeter.coxeter_complex(coxeter.A3))
    assert ok and wit is None
    single = chamber.from_partitions(1, 3, {1: [(0,)], 2: [(0,)], 3: [(0,)]})
    assert chamber.is_simplicial(single)[0]
    # the 3-chamber Singer quotient of the Fano flags: every chamber has the
    # same vertex pair
    q = chamber.from_partitions(3, 2, {1: [(0, 1, 2)], 2: [(0, 1, 2)]})
    ok, wit = chamber.is_simplicial(q)
    assert not ok and wit[0] == "duplicate-vertices"


def _residue_vertices(C):
    """Per chamber, its vertex ids read from membership in the corank-1
    residues: the k-th (I minus t)-residue of C.residues is type-t vertex k."""
    verts = [[None] * C.rank for _ in range(C.n)]
    full = frozenset(C.types)
    for t in C.types:
        for k, r in enumerate(C.residues(full - {t})):
            for c in r.chambers:
                verts[c][t - 1] = k
    return [tuple(v) for v in verts]


def _pair_scan(C):
    """Simpliciality by the quadratic pair scan over vertices read from the
    corank-1 residues: the reference for chamber.chamber_vertices and the
    grouping pass of chamber.is_simplicial, with no code shared."""
    verts = _residue_vertices(C)
    seen = {}
    for c, v in enumerate(verts):
        if v in seen:
            return False, ("duplicate-vertices", seen[v], c)
        seen[v] = c
    full = frozenset(C.types)
    for x, y in itertools.combinations(range(C.n), 2):
        S = frozenset(i for t, i in enumerate(C.types) if verts[x][t] == verts[y][t])
        if S and C.component_map(full - S)[x] != C.component_map(full - S)[y]:
            return False, ("no-common-face", x, y, tuple(sorted(S)))
    return True, None


def test_is_simplicial_matches_pair_scan():
    systems = corpus.named_systems()
    rng = random.Random(20121205)
    for _ in range(3000):
        systems.append(corpus.random_partitions(rng, rng.randint(2, 4), rng.randint(1, 12)))
        systems.append(corpus.random_flags(rng, rng.randint(2, 4), rng.randint(1, 30),
                                           rng.randint(2, 4)))
    kinds = collections.Counter()
    for C in systems:
        got = chamber.is_simplicial(C)
        assert got == _pair_scan(C), C.panels
        kinds[got[1][0] if got[1] else "simplicial"] += 1
    assert min(kinds[k] for k in ("simplicial", "duplicate-vertices", "no-common-face")) >= 50


def test_chamber_vertices_of_rank_0_and_1():
    # no types: every chamber has the empty vertex tuple, so two chambers
    # are one simplex twice; one type: each chamber is its own vertex
    bare = chamber.from_partitions(3, 0, {})
    assert chamber.chamber_vertices(bare) == [(), (), ()]
    assert chamber.is_simplicial(bare) == (False, ("duplicate-vertices", 0, 1))
    assert chamber.is_simplicial(chamber.from_partitions(1, 0, {})) == (True, None)
    line = chamber.from_partitions(3, 1, {1: [(0, 2), (1,)]})
    assert chamber.chamber_vertices(line) == [(0,), (1,), (2,)]
    assert chamber.is_simplicial(line) == (True, None)


def test_is_simplicial_matches_pair_scan_on_hypothesis_systems():
    # random partitions of ranks 0-4 into panels of 1-4 chambers are mostly
    # simplicial or repeat a vertex tuple; closed galleries of ranks 3 and 4,
    # like the hexagon below, also share vertices with no common face
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.seed(2012)
    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @hypothesis.given(st.data())
    def check(data):
        if data.draw(st.booleans()):
            # the gallery 0, 1, ..., n - 1, 0, no type twice in a row
            rank, n = data.draw(st.integers(3, 4)), data.draw(st.integers(6, 12))
            word = [data.draw(st.integers(1, rank))]
            for _ in range(n - 1):
                word.append(data.draw(st.sampled_from([t for t in range(1, rank + 1)
                                                       if t != word[-1]])))
            hypothesis.assume(word[-1] != word[0])
            steps = [(k, (k + 1) % n) for k in range(n)]
            partitions = {i: [p for p, t in zip(steps, word) if t == i] for i in range(1, rank + 1)}
            for panels in partitions.values():
                paired = set(itertools.chain.from_iterable(panels))
                panels += [(c,) for c in range(n) if c not in paired]
        else:
            rank, n = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 12))
            partitions = {}
            for i in range(1, rank + 1):
                order = data.draw(st.permutations(range(n)))
                cuts = [0]
                while cuts[-1] < n:
                    cuts.append(cuts[-1] + data.draw(st.integers(1, 4)))
                partitions[i] = [order[a:b] for a, b in zip(cuts, cuts[1:])]
        C = chamber.from_partitions(n, rank, partitions)
        assert chamber.chamber_vertices(C) == _residue_vertices(C), C.panels
        assert chamber.is_simplicial(C) == _pair_scan(C), C.panels

    check()


def test_is_simplicial_no_common_face():
    # a hexagon of chambers 0-1-2-3-4-5-0 with edge types 1,2,3,1,3,2;
    # chambers 2 and 5 share their type-2 and type-3 vertices but no 1-panel
    C = chamber.from_partitions(6, 3, {1: [(0, 1), (3, 4), (2,), (5,)],
                                       2: [(1, 2), (0, 5), (3,), (4,)],
                                       3: [(2, 3), (4, 5), (0,), (1,)]})
    assert chamber.chamber_vertices(C)[2][1:] == chamber.chamber_vertices(C)[5][1:]
    assert chamber.is_simplicial(C) == (False, ("no-common-face", 2, 5, (2, 3)))
    # rank 4: chambers 0 and 1 are joined by galleries of types 141, 242 and
    # 343 and share their type-1, type-2 and type-3 vertices, but no 4-panel;
    # every other pair passes, so only the three-type grouping finds it
    C = chamber.from_partitions(8, 4, {1: [(0, 2), (1, 3), (4,), (5,), (6,), (7,)],
                                       2: [(0, 4), (1, 5), (2,), (3,), (6,), (7,)],
                                       3: [(0, 6), (1, 7), (2,), (3,), (4,), (5,)],
                                       4: [(2, 3), (4, 5), (6, 7), (0,), (1,)]})
    assert chamber.is_simplicial(C) == (False, ("no-common-face", 0, 1, (1, 2, 3)))
    assert _pair_scan(C) == chamber.is_simplicial(C)


def test_is_simplicial_answers_past_2000_chambers():
    C = corpus.pg42()
    assert C.n == 9765
    assert chamber.is_simplicial(C) == (True, None)


def _fano_auto(fano, M):
    """The flag permutation induced by a GL(3,2) matrix (basis images)."""
    perm = tuple(catalog.mat_apply(M, v) - 1 for v in range(1, 8))
    index = {lab: c for c, lab in enumerate(fano.labels)}
    return tuple(index[(perm[p - 1] + 1, tuple(sorted(perm[x - 1] + 1 for x in L)))]
                 for p, L in fano.labels)


def test_quotient_trivial_and_collisions():
    fano = catalog.build_fano_flags()
    Q, proj = chamber.quotient(fano, [tuple(range(fano.n))])
    assert Q.n == fano.n and chamber.isomorphism(Q, fano) is not None
    # rank-2 systems admit no proper quotient: the whole system is one
    # rank-2 residue; the Singer cycle's generator is closed to its group
    with pytest.raises(ResidueCollision):
        chamber.quotient(fano, [_fano_auto(fano, (2, 4, 3))])


def test_quotient_closes_generators():
    table = coxeter.enumerate_group(coxeter.C3)
    thin = coxeter.complex_from_table(table)
    w0 = corpus.longest_id(table)
    Q, proj = chamber.quotient(thin, [tuple(table.mult_id(w0, e) for e in range(48))])
    assert Q.n == 24 and all(proj[e] == proj[table.mult_id(w0, e)] for e in range(48))
    # a Singer cycle and a transvection generate all 168 elements of GL(3,2),
    # more than the 21 flags: the action cannot be free
    fano = catalog.build_fano_flags()
    with pytest.raises(ActionNotFree):
        chamber.quotient(fano, [_fano_auto(fano, (2, 4, 3)), _fano_auto(fano, (1, 3, 4))])
    with pytest.raises(ValueError):
        chamber.quotient(fano, [tuple(range(20))])
    with pytest.raises(ValueError):
        chamber.quotient(fano, [tuple(reversed(range(21)))])


def test_quotient_singer():
    base, quot, proj = catalog.build_singer_quotient(5)
    assert base.n == 315 and quot.n == 63
    with pytest.raises(ResidueCollision):
        catalog.build_singer_quotient(15)
    with pytest.raises(ResidueCollision):
        catalog.build_singer_quotient(3)
    for order in (1, 4):
        with pytest.raises(ValueError):
            catalog.build_singer_quotient(order)


def _quotient_by_element_scans(C, gens):
    """The quotient by scanning every group element over every chamber:
    the reference for `chamber.quotient`, which reads orbits.  Returns
    (ActionNotFree, the chambers some g != 1 fixes, or None past C.n
    elements), (ResidueCollision, (the first type pair with an invariant
    residue, the chambers whose residue some g != 1 maps into itself)) or
    (quotient, projection)."""
    ident = groups.identity(C.n)
    try:
        autos = groups.group_from_generators(gens or [ident], cap=C.n).elements
    except BudgetExceeded:
        return ActionNotFree, None
    moving = [a for a in autos if a != ident]
    fixed = [c for c in range(C.n) if any(a[c] == c for a in moving)]
    if fixed:
        return ActionNotFree, fixed
    for i, j in itertools.combinations(C.types, 2):
        comp = C.component_map((i, j))
        hit = [c for c in range(C.n) if any(comp[a[c]] == comp[c] for a in moving)]
        if hit:
            return ResidueCollision, ((i, j), hit)
    orbit, reps = [None] * C.n, []
    for c in range(C.n):
        if orbit[c] is None:
            for a in autos:
                orbit[a[c]] = len(reps)
            reps.append(c)
    partitions = {i: sorted({tuple(sorted({orbit[c] for c in p})) for p in C.panels[i]})
                  for i in C.types}
    labels = None if C.labels is None else tuple(C.labels[r] for r in reps)
    return chamber.ChamberSystem(len(reps), C.rank, partitions, labels), tuple(orbit)


def _assert_quotient_matches_scans(C, gens):
    """The same quotient as the element scans, or the same error; a
    witness chamber is the least chamber of a shorter orbit (the least
    with a stabilizer g != 1), or the least chamber sharing its residue
    and its orbit with another, in the first type pair that has one."""
    want, detail = _quotient_by_element_scans(C, gens)
    try:
        Q, proj = chamber.quotient(C, gens)
    except (ActionNotFree, ResidueCollision) as exc:
        assert type(exc) is want, (type(exc), want)
        if detail is None:
            assert str(exc) == f"the automorphisms generate more than {C.n} elements"
        elif want is ActionNotFree:
            assert str(exc) == f"automorphism fixes chamber {min(detail)}"
        else:
            (i, j), hit = detail
            assert str(exc) == (f"automorphism maps the {{{i},{j}}}-residue of chamber "
                                f"{min(hit)} into itself")
        return type(exc)
    assert isinstance(want, chamber.ChamberSystem), (want, detail)
    assert (Q.n, Q.rank, Q.panels, Q.labels, proj) == (want.n, want.rank, want.panels,
                                                       want.labels, detail)
    return chamber.ChamberSystem


def test_quotient_matches_element_scans():
    outcomes = collections.Counter()
    # the Singer subgroups of orders 1, 3, 5 and 15 on the PG(3,2) flags
    a3 = catalog.build_a3_f2()
    for order in (1, 3, 5, 15):
        outcomes[_assert_quotient_matches_scans(
            a3, [catalog.singer_flag_automorphism(15 // order)])] += 1
    # left multiplication by each element of W on its thin complex: free,
    # with an invariant residue exactly when w lies in a conjugate of some W_ij
    for M in (coxeter.A3, coxeter.C3, coxeter.H3):
        table, thin = coxeter.group_table(M), corpus.thin(M)
        for w in range(table.order):
            left = tuple(table.mult_id(w, e) for e in range(table.order))
            outcomes[_assert_quotient_matches_scans(thin, [left])] += 1
    # the cyclic group of each automorphism a pair (0, y) starts
    for C in corpus.named_systems():
        if C.n > 400:
            continue
        for y in range(C.n):
            a = chamber.isomorphism(C, C, (0, y))
            if a is not None:
                outcomes[_assert_quotient_matches_scans(C, [a])] += 1
    assert min(outcomes.values()) >= 3 and len(outcomes) == 3, outcomes
    # the least collision: one residue of two chambers that g swaps
    pair = chamber.from_partitions(2, 2, {1: [(0, 1)], 2: [(0,), (1,)]})
    assert _assert_quotient_matches_scans(pair, [(1, 0)]) is ResidueCollision


def test_quotient_refuses_a_group_that_fixes_a_component_pointwise():
    # three hexagons; g fixes the first pointwise and swaps the other two,
    # so no residue meets an orbit twice: only the orbit sizes show that
    # the action is not free
    hexagon = coxeter.coxeter_complex(coxeter.A2)
    C = chamber.from_partitions(18, 2, {i: [tuple(c + off for c in p) for off in (0, 6, 12)
                                            for p in hexagon.panels[i]] for i in (1, 2)})
    g = tuple(range(6)) + tuple(range(12, 18)) + tuple(range(6, 12))
    assert _assert_quotient_matches_scans(C, [g]) is ActionNotFree
    with pytest.raises(ActionNotFree, match="fixes chamber 0$"):
        chamber.quotient(C, [g])


def test_sub_system_requires_panel_closure():
    fano = catalog.build_fano_flags()
    with pytest.raises(ValueError):
        corpus.sub_system(fano, [0, 1], (1, 2))


def test_isomorphism_negative():
    fano = catalog.build_fano_flags()
    gq = catalog.build_gq22()
    assert chamber.isomorphism(fano, gq) is None
    thin = coxeter.coxeter_complex(coxeter.A1xA1)
    disc = chamber.from_partitions(4, 2, {1: [(0, 1), (2, 3)], 2: [(0, 1), (2, 3)]})
    assert chamber.isomorphism(thin, disc) is None


def test_isomorphism_of_disconnected_systems():
    # with no unmatched chamber next to a matched one, the search branches
    # on the least unmatched chamber, which starts the next component
    rng = random.Random(7)
    hexagon = coxeter.coxeter_complex(coxeter.A2)
    fano = catalog.build_fano_flags()
    A = corpus.shuffled_union(rng, hexagon, fano)
    B = corpus.shuffled_union(rng, fano, hexagon)
    iso = chamber.isomorphism(A, B)
    assert iso is not None and len(iso) == A.n
    assert chamber.verify_isomorphism(A, B, tuple(iso[c] for c in range(A.n)))
    # same counts and panel sizes, but the second hexagon has no partner:
    # a digon and a two-chamber loop are left
    two_hexagons = corpus.shuffled_union(rng, hexagon, hexagon)
    digon = coxeter.coxeter_complex(coxeter.A1xA1)
    loop = chamber.from_partitions(2, 2, {1: [(0, 1)], 2: [(0, 1)]})
    assert chamber.isomorphism(two_hexagons,
                               corpus.shuffled_union(rng, hexagon, digon, loop)) is None
    assert chamber.isomorphism(two_hexagons,
                               corpus.shuffled_union(rng, hexagon, hexagon)) is not None
    # more components than the interpreter's default recursion limit
    dust = chamber.from_partitions(1200, 1, {1: [(c,) for c in range(1200)]})
    assert chamber.isomorphism(dust, dust) == tuple(range(1200))


def test_isomorphism_of_shuffled_copies():
    rng = random.Random(13)
    named = [catalog.build(name)["system"]
             for name in ("a3-f2", "neumaier-a7", "singer-quotient-z5", "gq22")]
    for C in named + [corpus.pg42()]:
        A, B = corpus.shuffled_union(rng, C), corpus.shuffled_union(rng, C)
        assert chamber.verify_isomorphism(A, B, chamber.isomorphism(A, B)), C


def test_isomorphism_of_coset_model_and_of_distinct_geometries():
    neu, spec = catalog.build_neumaier_a7()
    cosets = chamber.from_cosets(spec)
    assert chamber.verify_isomorphism(neu, cosets, chamber.isomorphism(neu, cosets))
    # same chamber count and panel sizes; the C3 building is no Alt(7) geometry
    assert chamber.isomorphism(catalog.build_a3_f2(), neu) is None


def test_isomorphism_matches_brute_force():
    # reference engine: try every permutation of the chambers
    rng = random.Random(1981)
    found = 0
    for k in range(600):
        rank, n = rng.randint(2, 3), rng.randint(1, 6)
        A = corpus.random_partitions(rng, rank, n)
        B = corpus.shuffled_union(rng, A) if k % 2 else corpus.random_partitions(rng, rank, n)
        iso = chamber.isomorphism(A, B)
        brute = any(chamber.verify_isomorphism(A, B, p) for p in itertools.permutations(range(n)))
        assert (iso is not None) == brute, (A.panels, B.panels)
        assert iso is None or chamber.verify_isomorphism(A, B, iso)
        found += brute
    assert 300 < found < 600


def test_verify_isomorphism():
    fano = catalog.build_fano_flags()
    assert chamber.verify_isomorphism(fano, fano, tuple(range(fano.n)))
    bad = list(range(fano.n))
    bad[0], bad[1] = bad[1], bad[0]
    # chamber 0's type-1 panel (0, 3, 6) would go to (1, 3, 6), no panel
    assert not chamber.verify_isomorphism(fano, fano, tuple(bad))
    # one-chamber panels: any bijection is an isomorphism, nothing else is
    two = chamber.from_partitions(2, 1, {1: [(0,), (1,)]})
    for form in (tuple, lambda m: dict(enumerate(m))):
        assert chamber.verify_isomorphism(two, two, form((1, 0)))
        assert not chamber.verify_isomorphism(two, two, form((0, 0)))
    assert not chamber.verify_isomorphism(two, two, {0: 0, 2: 1})
    # entries are chamber ids: bools and floats are none, even where their
    # values would give an isomorphism
    panel = chamber.from_partitions(2, 1, {1: [(0, 1)]})
    assert chamber.verify_isomorphism(panel, panel, (1, 0))
    for bad in ((True, False), (1.0, 0.0), {0: True, 1: 0}, ("1", "0")):
        assert not chamber.verify_isomorphism(panel, panel, bad), bad


def test_isomorphism_from_a_given_pair():
    # the type-preserving automorphisms of a thin complex act regularly, so
    # each pair (x, y) starts exactly one, the left translation by y x^-1
    C = corpus.thin(coxeter.A3)
    for y in range(C.n):
        a = chamber.isomorphism(C, C, (5, y))
        assert a[5] == y and chamber.verify_isomorphism(C, C, a)
    # a gallery of three chambers has no automorphism but the identity
    path = chamber.from_partitions(3, 2, {1: [(0, 1), (2,)], 2: [(0,), (1, 2)]})
    assert chamber.isomorphism(path, path, (0, 0)) == (0, 1, 2)
    assert chamber.isomorphism(path, path, (0, 1)) is None
    assert chamber.isomorphism(path, path, (0, 2)) is None
    # between two systems: the pair fixes where the first chamber goes
    neu = catalog.build_neumaier_a7()[0]
    copy = corpus.shuffled_union(random.Random(5), neu)
    y = chamber.isomorphism(neu, copy)[0]
    a = chamber.isomorphism(neu, copy, (0, y))
    assert a[0] == y and chamber.verify_isomorphism(neu, copy, a)


def test_isomorphism_from_a_pair_matches_brute_force():
    # reference engine: every permutation fixing where x goes
    rng = random.Random(1984)
    moved = 0
    for _ in range(150):
        A = corpus.random_partitions(rng, rng.randint(2, 3), rng.randint(1, 6))
        autos = [p for p in itertools.permutations(range(A.n))
                 if chamber.verify_isomorphism(A, A, p)]
        for x in range(A.n):
            for y in range(A.n):
                a = chamber.isomorphism(A, A, (x, y))
                assert (a is not None) == any(p[x] == y for p in autos), (A.panels, x, y)
                assert a is None or (a[x] == y and chamber.verify_isomorphism(A, A, a))
                moved += a is not None and x != y
    assert moved > 100


def test_isomorphism_budget_counts_matched_chambers():
    # a found map matches every chamber at least once
    a3 = catalog.build_a3_f2()
    assert chamber.isomorphism(a3, a3, (0, 7), budget=a3.n - 1) is None
    a = chamber.isomorphism(a3, a3, (0, 7), budget=a3.n * a3.rank)
    assert a[0] == 7 and chamber.verify_isomorphism(a3, a3, a)
    assert chamber.isomorphism(a3, a3, budget=0) is None
    assert chamber.isomorphism(a3, a3) == tuple(range(a3.n))


def test_json_roundtrip_and_dot():
    fano = catalog.build_fano_flags()
    obj = chamber.system_to_json(fano)
    text = json.dumps(obj, sort_keys=True)
    C2 = chamber.system_from_json(json.loads(text))
    assert C2.n == fano.n and C2.panels == fano.panels
    dot = chamber.adjacency_dot(fano)
    assert "c0 --" in dot or "-- c0" in dot
    inc = chamber.incidence_dot(fano)
    assert "a0" in inc and "b0" in inc


def test_json_labels_round_trip_on_catalog():
    for name in catalog.CATALOG:
        try:
            C = catalog.build(name)["system"]
        except ResidueCollision:
            continue
        text = json.dumps(chamber.system_to_json(C))
        loaded = chamber.system_from_json(json.loads(text))
        # the labels come back as parsed: equal in their JSON form
        assert json.dumps(loaded.labels) == json.dumps(C.labels), name
        assert json.dumps(chamber.system_to_json(loaded)) == text, name
    # nested labels stay lists, which key no dict
    a3 = chamber.system_from_json(json.loads(json.dumps(chamber.system_to_json(
        catalog.build_a3_f2()))))
    with pytest.raises(TypeError, match="unhashable"):
        catalog.label_map(a3.labels, a3, lambda lab: lab)


def test_json_refuses_rank_0_with_more_than_one_chamber():
    # no panel backs a second chamber of rank 0, so the count alone is
    # refused before anything of its size is built; one chamber loads (a
    # system built in code keeps any count)
    for n in (2, 10 ** 11):
        with pytest.raises(PartitionNotCovering, match=f"rank 0 with {n} chambers"):
            chamber.system_from_json({"rank": 0, "n": n, "panels": {}})
    assert chamber.system_from_json({"rank": 0, "n": 1, "panels": {}}).n == 1
    with pytest.raises(TypeError):
        chamber.system_from_json({"rank": False, "n": 2, "panels": {}})


def test_component_maps_deterministic():
    a3 = catalog.build_a3_f2()
    rng = random.Random(9)
    for _ in range(5):
        J = tuple(sorted(rng.sample([1, 2, 3], rng.randint(1, 3))))
        m1 = a3.component_map(J)
        m2 = a3.component_map(frozenset(J))
        assert m1 == m2


# ---------------------------------------------------------------------------
# the cached rank-2 residue pass against the per-residue corpus.sub_system route


def _reference_stats(C):
    """(girth, diameter) of a rank-2 system's panel incidence graph on dict
    adjacency sets, as computed before the residue pass: the reference for
    chamber.incidence_graph_stats."""
    adj = {}
    pairs = set()
    multi = False
    for c in range(C.n):
        u, v = (1, C.panel_id(1, c)), (2, C.panel_id(2, c))
        multi |= (u, v) in pairs
        pairs.add((u, v))
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    girth, diameter = None, 0
    for s in adj:
        dist, parent, frontier = {s: 0}, {s: None}, [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v], parent[v] = dist[u] + 1, u
                        nxt.append(v)
                    elif parent[u] != v and (girth is None or dist[u] + dist[v] + 1 < girth):
                        girth = dist[u] + dist[v] + 1
            frontier = nxt
        if len(dist) < len(adj):
            diameter = None
        elif diameter is not None:
            diameter = max(diameter, max(dist.values()))
    return (2 if multi else girth), diameter


def _reference_polygon(C):
    girth, diameter = _reference_stats(C)
    if diameter is not None and girth is not None and diameter >= 2 and girth == 2 * diameter:
        return diameter
    return None


def _reference_type_matrix(C):
    """infer_type_matrix by one sub_system per residue, as (rows, None) or
    (None, the exception's type and text)."""
    k = C.rank
    entries = [[1 if i == j else None for j in range(k)] for i in range(k)]
    for i, j in itertools.combinations(C.types, 2):
        m_seen = None
        for res in C.residues((i, j)):
            m = _reference_polygon(corpus.sub_system(C, res.chambers, (i, j))[0])
            if m is None:
                return None, ("ResidueNotPolygon", f"{{{i},{j}}}-residue at chamber "
                              f"{res.chambers[0]} is not a generalized m-gon")
            if m_seen is None:
                m_seen = m
            elif m_seen != m:
                return None, ("InconsistentResidues",
                              f"{{{i},{j}}}-residues demand both m={m_seen} and m={m}")
        entries[i - 1][j - 1] = entries[j - 1][i - 1] = m_seen
    return coxeter.CoxeterMatrix(entries).rows, None


def _assert_residue_pass_matches_reference(C, ms):
    """The pass's (least chamber, m) lists and infer_type_matrix against the
    sub_system route, and the public rank-2 functions against the reference
    kernel on every residue; counts each m (None included) into ms and
    returns the reference type matrix or error."""
    try:
        got = chamber.infer_type_matrix(C).rows, None
    except (ResidueNotPolygon, InconsistentResidues) as exc:
        got = None, (type(exc).__name__, str(exc))
    want_matrix = _reference_type_matrix(C)
    assert got == want_matrix, C.panels
    for i, j in itertools.combinations(C.types, 2):
        want = []
        for res in C.residues((i, j)):
            sub, _ = corpus.sub_system(C, res.chambers, (i, j))
            m = _reference_polygon(sub)
            assert chamber.incidence_graph_stats(sub) == _reference_stats(sub), C.panels
            assert sub._residue_gonalities(1, 2) == ((0, m),), C.panels
            want.append((res.chambers[0], m))
            ms[m] += 1
        assert list(C._residue_gonalities(i, j)) == want, (C.panels, i, j)
    if C.rank == 2:
        assert chamber.incidence_graph_stats(C) == _reference_stats(C), C.panels
    return want_matrix


def test_residue_pass_matches_sub_system_route_on_named_systems():
    # W(5,2) and the thin I2(m) for m >= 7 take the level-synchronous pass
    # past the random pool's hexagons, up to level 12
    pg42, w52 = corpus.pg42(), catalog.subspace_flags(6, symplectic=True)
    thin = [coxeter.coxeter_complex(coxeter.dihedral(m)) for m in range(7, 13)]
    ms = collections.Counter()
    for C in corpus.named_systems() + [pg42, w52] + thin:
        _assert_residue_pass_matches_reference(C, ms)
    assert pg42.n == 9765 and chamber.infer_type_matrix(pg42) == corpus.A4
    assert w52.n == 2835 and chamber.infer_type_matrix(w52) == coxeter.C3
    assert [chamber.incidence_graph_stats(C) for C in thin] == [(2 * m, m) for m in range(7, 13)]
    assert None not in ms and sum(ms.values()) > 5150 and all(ms[m] == 1 for m in range(7, 13))


def _digon(a, b):
    """The generalized digon on an a x b grid: rows are the type-1 panels,
    columns the type-2 panels; a star, no digon, when a or b is 1."""
    return chamber.from_partitions(a * b, 2, {1: [range(r * b, r * b + b) for r in range(a)],
                                              2: [range(c, a * b, b) for c in range(b)]})


def _polygon_pool():
    """Per rank, the blocks of `corpus.random_polygon_system`: thin
    complexes, and at rank 2 also fano, gq22 and the digons up to 3 x 3."""
    A1x4 = coxeter.CoxeterMatrix([[1 if i == j else 2 for j in range(4)] for i in range(4)])
    pool = {r: [corpus.thin(M) for M in Ms] for r, Ms in (
        (3, (coxeter.A3, coxeter.C3, corpus.A1xA2, corpus.A1x3)), (4, (A1x4, corpus.A1xA3)))}
    pool[2] = [coxeter.coxeter_complex(coxeter.CoxeterMatrix([[1, m], [m, 1]]))
               for m in range(2, 7)]
    pool[2] += [catalog.build_fano_flags(), catalog.build_gq22()] + [
        _digon(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    return pool


def test_residue_pass_matches_sub_system_route_on_random_systems():
    pool = _polygon_pool()
    rng = random.Random(1205)
    ms = collections.Counter()
    outcomes = collections.Counter()
    for _ in range(1000):
        _, error = _assert_residue_pass_matches_reference(
            corpus.random_polygon_system(rng, pool), ms)
        outcomes[error and error[0]] += 1
    assert ms[None] >= 50 and sum(v for m, v in ms.items() if m is not None) >= 50
    assert min(ms[m] for m in (2, 3, 4, 5, 6)) >= 10
    assert min(outcomes[k] for k in (None, "ResidueNotPolygon", "InconsistentResidues")) >= 20


def _feit_higman_failures(m, s, t):
    """The statements a finite thick generalized m-gon of order (s, t)
    breaks (Feit-Higman, J. Algebra 1, 1964; Higman's inequality and the
    quadrangle divisibility, Payne-Thas, Finite Generalized Quadrangles,
    1984, ch. 1; Van Maldeghem, Generalized Polygons, 1998, ch. 1)."""
    def square(x):
        return math.isqrt(x) ** 2 == x
    failures = [] if m in (2, 3, 4, 6, 8) else ["m"]
    if m == 4:
        failures += [] if s <= t * t and t <= s * s else ["s <= t^2, t <= s^2"]
        failures += [] if s * t * (s + 1) * (t + 1) % (s + t) == 0 else ["s + t | st(s+1)(t+1)"]
    if m == 6 and not square(s * t):
        failures.append("st square")
    if m == 8 and not square(2 * s * t):
        failures.append("2st square")
    return failures


def _thick_polygon_orders(C):
    """(m, per type its panel sizes) of each thick residue the rank-2 pass
    judges a generalized m-gon; thick: every panel holds 3 chambers or more."""
    out = []
    for i, j in itertools.combinations(C.types, 2):
        for res, (least, m) in zip(C.residues((i, j)), C._residue_gonalities(i, j)):
            assert res.chambers[0] == least
            sizes = [{len(C.panel_of(k, c)) for c in res.chambers} for k in (i, j)]
            if m is not None and min(map(min, sizes)) >= 3:
                out.append((m, sizes))
    return out


def test_feit_higman_on_thick_residues():
    # the orders of known polygons pass, and orders no polygon has fail
    assert [_feit_higman_failures(m, s, t) for m, s, t in (
        (2, 2, 7), (3, 4, 4), (4, 2, 4), (4, 3, 9), (6, 2, 2), (6, 2, 8), (8, 2, 4))] == [[]] * 7
    assert [_feit_higman_failures(m, s, t) for m, s, t in (
        (5, 2, 2), (4, 3, 15), (4, 3, 4), (6, 2, 3), (8, 2, 2))] == [
        ["m"], ["s <= t^2, t <= s^2"], ["s + t | st(s+1)(t+1)"], ["st square"], ["2st square"]]
    rng = random.Random(1205)
    pool = _polygon_pool()
    systems = (corpus.named_systems() + [catalog.subspace_flags(6, symplectic=True)]
               + [corpus.random_polygon_system(rng, pool) for _ in range(1000)])
    ms = collections.Counter()
    for C in systems:
        for m, sizes in _thick_polygon_orders(C):
            # a thick generalized polygon has an order: panel sizes are
            # constant per type
            assert all(len(x) == 1 for x in sizes), (C.panels, m, sizes)
            s, t = (x.pop() - 1 for x in sizes)
            assert _feit_higman_failures(m, s, t) == [], (C.panels, m, s, t)
            ms[m] += 1
    # no corpus system has a thick hexagon or octagon residue
    assert set(ms) == {2, 3, 4} and min(ms.values()) >= 20, ms


def test_rank2_pass_matches_reference_on_hypothesis_systems():
    # panels of 1-4 chambers give multi-edges, trees and disconnected graphs
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.seed(2012)
    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 14))
        partitions = {}
        for i in (1, 2):
            order = data.draw(st.permutations(range(n)))
            cuts = [0]
            while cuts[-1] < n:
                cuts.append(cuts[-1] + data.draw(st.integers(1, 4)))
            partitions[i] = [order[a:b] for a, b in zip(cuts, cuts[1:])]
        C = chamber.from_partitions(n, 2, partitions)
        assert chamber.incidence_graph_stats(C) == _reference_stats(C), C.panels
        want = tuple((r.chambers[0], _reference_polygon(corpus.sub_system(C, r.chambers, (1, 2))[0]))
                     for r in C.residues((1, 2)))
        assert C._residue_gonalities(1, 2) == want, C.panels

    check()


def test_check_computes_each_pair_once(capsys, monkeypatch, tmp_path):
    # chambers check --building --c3 --ll --simplicial: type inference, the
    # building check and the C3 check read one residue pass per type pair
    # (A3 is not C3-shaped, so --ll takes the point and line types)
    f = tmp_path / "a3.json"
    f.write_text(json.dumps(chamber.system_to_json(catalog.build_a3_f2())))
    calls = collections.Counter()
    kernel = chamber._residue_girths_and_diameters

    def counted_kernel(C, i, j):
        calls[i, j] += 1
        return kernel(C, i, j)

    monkeypatch.setattr(chamber, "_residue_girths_and_diameters", counted_kernel)
    assert not hasattr(chamber, "sub_system") and not hasattr(verify, "sub_system")
    code = cli.main(["check", str(f), "--building", "--c3", "--ll", "--simplicial",
                     "--points", "1", "--lines", "2"])
    verdict = json.loads(capsys.readouterr().out)
    assert code == 1 and verdict["type"] == "A3" and verdict["building"] and verdict["ll"]["holds"]
    assert verdict["c3"] is False and verdict["c3_report"]["type_matrix"] == verdict["type_matrix"]
    # one level-synchronous kernel call per type pair, for all its residues
    assert calls == {(1, 2): 1, (1, 3): 1, (2, 3): 1}


def test_check_judges_simpliciality_once(capsys, monkeypatch, tmp_path):
    # chambers check --building --c3 --ll --simplicial on the A7 geometry:
    # the C3 check and --simplicial read one cached verdict, so the
    # grouping pass reads the vertex map once; the (LL) witness labels
    # read it once more
    f = tmp_path / "a7.json"
    f.write_text(json.dumps(chamber.system_to_json(catalog.build("neumaier-a7")["system"])))
    calls = collections.Counter()
    vertices = chamber.chamber_vertices

    def counted_vertices(C):
        calls[sys._getframe(1).f_code.co_name] += 1
        return vertices(C)

    monkeypatch.setattr(chamber, "chamber_vertices", counted_vertices)
    code = cli.main(["check", str(f), "--building", "--c3", "--ll", "--simplicial"])
    verdict = json.loads(capsys.readouterr().out)
    assert code == 1 and verdict["type"] == "C3" and not verdict["building"]
    assert verdict["c3"] and verdict["simplicial"] and not verdict["ll"]["holds"]
    assert calls == {"is_simplicial": 1, "_vertex_labels": 1}
