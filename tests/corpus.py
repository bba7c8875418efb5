"""The shared inputs of the cross-engine tests: named systems, seeded
generators and the reference routes several test modules read, each
defined once.

Named systems are built once per session and shared by every test that
iterates them.  A shared system carries warm caches (component maps,
residue gonalities, the cover `homotopic` keeps for it), so a test that
counts work builds its own object instead.  The generators draw everything
from the rng they are given; each test fixes its own seed.
"""

from functools import lru_cache

from chambers import catalog, chamber, coxeter, groups
from chambers.chamber import TypedGallery
from chambers.coxeter import A3, C3, H3, CoxeterMatrix
from chambers.errors import ChambersError

A4 = CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]])
D4 = CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]])
A1xA3 = CoxeterMatrix([[1, 2, 2, 2], [2, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]])
A2xA2 = CoxeterMatrix([[1, 3, 2, 2], [3, 1, 2, 2], [2, 2, 1, 3], [2, 2, 3, 1]])
A1x3 = CoxeterMatrix([[1, 2, 2], [2, 1, 2], [2, 2, 1]])
A1xA2 = CoxeterMatrix([[1, 2, 2], [2, 1, 3], [2, 3, 1]])

# a3-f2-cosets has a3-f2's panels (test_catalog checks it), so it stays out
CATALOG = ("fano", "gq22", "a3-f2", "neumaier-a7", "singer-quotient-z5")
GROUP_POOL = ("S4", "S5", "A5", "A6", "A7")
THIN = (A3, C3, H3, A4, D4)
# the quotient of the cube complex A1x3 is not simply 2-connected
QUOTIENTS = (C3, H3, D4, A1x3)


def relabelled(M, perm):
    """M with type perm[a] in the place of type a + 1."""
    return CoxeterMatrix([[M.order(perm[a], perm[b]) for b in range(M.rank)]
                          for a in range(M.rank)])


@lru_cache(maxsize=None)
def thin(M):
    """The thin Coxeter complex of M."""
    return coxeter.coxeter_complex(M)


@lru_cache(maxsize=None)
def pool_group(name):
    """A group of GROUP_POOL by name, or GL(4,2) on its 15 points."""
    if name == "GL(4,2)":
        return catalog.gl4_2()
    n = int(name[1:])
    return groups.symmetric_group(n) if name[0] == "S" else groups.alternating_group(n)


def longest_id(table):
    """The id of the longest element in a finite Coxeter group table."""
    return max(range(table.order), key=lambda e: len(table.elements[e]))


@lru_cache(maxsize=None)
def central_quotient(M):
    """The thin complex of M modulo its central longest element."""
    table = coxeter.group_table(M)
    w0 = longest_id(table)
    auto = tuple(table.mult_id(w0, e) for e in range(table.order))
    return chamber.quotient(thin(M), [auto])[0]


def named_systems(names=CATALOG, thin_types=THIN, quotient_types=QUOTIENTS):
    """The catalog entries (their builders cache them), thin complexes and
    central quotients named."""
    return ([catalog.build(name)["system"] for name in names] + [thin(M) for M in thin_types]
            + [central_quotient(M) for M in quotient_types])


@lru_cache(maxsize=None)
def pg42():
    """The 9,765 maximal flags (p, L, P, S) of PG(4,2), a building of type
    A4; type i varies the i-th member."""
    return catalog.subspace_flags(5)


def torus():
    """The 3x3 triangulated torus: 18 chambers of the infinite type Ã2,
    every m_ij = 3 and every rank-2 residue a thin hexagon.  Vertex (a, b)
    of Z3 x Z3 has type (a - b) mod 3 + 1; the chambers are the triangles
    {(a, b), (a+1, b), (a, b+1)} and {(a+1, b), (a, b+1), (a+1, b+1)},
    labelled by their vertices in type order, and two triangles are
    i-adjacent when they share their vertices of the other two types."""
    triangles = set()
    for a in range(3):
        for b in range(3):
            for tri in (((a, b), (a + 1, b), (a, b + 1)),
                        ((a + 1, b), (a, b + 1), (a + 1, b + 1))):
                by_type = {(x - y) % 3 + 1: (x % 3, y % 3) for x, y in tri}
                triangles.add(tuple(by_type[t] for t in (1, 2, 3)))
    labels = sorted(triangles)
    partitions = {}
    for i in (1, 2, 3):
        panels = {}
        for c, tri in enumerate(labels):
            panels.setdefault(tri[:i - 1] + tri[i:], []).append(c)
        partitions[i] = list(panels.values())
    return chamber.from_partitions(len(labels), 3, partitions, labels=labels)


def distances_from(C, x):
    """The chambers reachable from x in breadth-first order over
    `C.adjacency()`, and per chamber its gallery distance from x, None if
    unreachable: the reference for `C._distances_from`, which walks the
    panels instead."""
    adj = C.adjacency()
    dist = [None] * C.n
    dist[x] = 0
    order = [x]
    for c in order:
        for _, d in adj[c]:
            if dist[d] is None:
                dist[d] = dist[c] + 1
                order.append(d)
    return order, dist


def min_gallery(C, x, y):
    """The gallery y -> x that steps to the first closer entry of each
    chamber's adjacency list, reversed: the reference for `C.min_gallery`."""
    adj = C.adjacency()
    _, dist = distances_from(C, x)
    chambers, types = [y], []
    while chambers[-1] != x:
        c = chambers[-1]
        i, u = next((i, u) for i, u in adj[c] if dist[u] == dist[c] - 1)
        chambers.append(u)
        types.append(i)
    return TypedGallery(tuple(reversed(chambers)), tuple(reversed(types)))


def minimal_type_sets(C, x):
    """Per chamber y, the frozenset of the type words of the minimal
    galleries x -> y, None if y is unreachable: the W-distance oracle,
    read against `reduced_word_lookup`."""
    order, dist = distances_from(C, x)
    adj = C.adjacency()
    tsets = [None] * C.n
    tsets[x] = frozenset({()})
    for c in order[1:]:
        tsets[c] = frozenset(w + (i,) for i, u in adj[c] if dist[u] == dist[c] - 1
                             for w in tsets[u])
    return tsets


def reduced_word_lookup(table):
    """Each element's reduced-word set, mapped to its table id."""
    memo = {}
    return {table.reduced_words(e, memo): e for e in range(table.order)}


def sub_system(C, chambers, J):
    """The restriction to a chamber subset and type subset, types relabelled
    1..|J| in increasing order of J, and the map from old to new chamber
    ids.  The subset must be panel-closed for every type in J (residues
    are).  The reference route of the residue-pass cross-checks."""
    J = sorted(set(J))
    chambers = sorted(set(chambers))
    old2new = {c: i for i, c in enumerate(chambers)}
    partitions = {}
    for new_i, i in enumerate(J, start=1):
        panels = set()
        for c in chambers:
            panel = C.panel_of(i, c)
            if any(d not in old2new for d in panel):
                raise ValueError("chamber subset is not panel-closed for the requested types")
            panels.add(tuple(old2new[d] for d in panel))
        partitions[new_i] = sorted(panels)
    labels = None
    if C.labels is not None:
        labels = tuple(C.labels[c] for c in chambers)
    return chamber.from_partitions(len(chambers), len(J), partitions, labels=labels), old2new


def gallery_from_types(C, start, types):
    """Walk a type word from a chamber where each step has a unique partner
    (thin systems); raises on ambiguity."""
    chambers = [start]
    for i in types:
        others = [d for d in C.panel_of(i, chambers[-1]) if d != chambers[-1]]
        if len(others) != 1:
            raise ValueError(f"type walk ambiguous at chamber {chambers[-1]}, type {i}")
        chambers.append(others[0])
    return TypedGallery(tuple(chambers), tuple(types))


def shuffled_union(rng, *systems):
    """The disjoint union of systems of one rank, chamber ids shuffled."""
    n = sum(C.n for C in systems)
    ids = rng.sample(range(n), n)
    parts, offset = {i: [] for i in systems[0].types}, 0
    for C in systems:
        for i in C.types:
            parts[i] += [[ids[offset + c] for c in p] for p in C.panels[i]]
        offset += C.n
    return chamber.from_partitions(n, systems[0].rank, parts)


# ---------------------------------------------------------------------------
# seeded generators


def random_gallery(C, start, steps, rng):
    """A gallery of the given length from start, each step to a random
    adjacent chamber."""
    adj = C.adjacency()
    ch, ty = [start], []
    for _ in range(steps):
        i, d = rng.choice(adj[ch[-1]])
        ch.append(d)
        ty.append(i)
    return TypedGallery(tuple(ch), tuple(ty))


def random_partitions(rng, rank, n, sizes=(1, 2, 3)):
    """Each type cuts a shuffled chamber list into panels whose sizes are
    drawn from sizes."""
    partitions = {}
    for i in range(1, rank + 1):
        order = rng.sample(range(n), n)
        cuts = [0]
        while cuts[-1] < n:
            cuts.append(cuts[-1] + rng.choice(sizes))
        partitions[i] = [order[a:b] for a, b in zip(cuts, cuts[1:])]
    return chamber.from_partitions(n, rank, partitions)


def random_flags(rng, rank, n, size):
    """Chambers are distinct random tuples over range(size)."""
    return catalog._flag_system({tuple(rng.randrange(size) for _ in range(rank))
                                 for _ in range(n)}, rank)


def random_connected_system(rng):
    """A connected system of rank 2-4: random partitions into panels of one
    to three chambers, or a flag system on random tuples."""
    while True:
        rank = rng.randint(2, 4)
        if rng.random() < 0.5:
            C = random_partitions(rng, rank, rng.randint(1, 5))
        else:
            size = rng.randint(2, 3)
            C = random_flags(rng, rank, rng.randint(1, 12), size)
        if C.is_connected():
            return C


def random_system(rng):
    """A random rank-2 or rank-3 system on at most 12 chambers, with panels
    of one to three chambers, and a finite matrix: the inferred one where
    there is one, else a random one of the same rank."""
    rank = rng.choice((2, 3))
    C = random_partitions(rng, rank, rng.randrange(1, 13), sizes=(1, 2, 2, 3))
    try:
        M = chamber.infer_type_matrix(C)
        if coxeter.is_finite(M):
            return C, M
    except ChambersError:
        pass
    if rank == 2:
        return C, rng.choice((coxeter.A1xA1, coxeter.A2, coxeter.C2, coxeter.dihedral(6)))
    return C, rng.choice((A3, C3, H3))


def stabilizer_predicates(rng, degree, count):
    """(label, predicate) pairs on permutations of range(degree): the whole
    group (no condition), the trivial group (every point fixed), then count
    seeded ones, each the setwise stabilizer of one to three random point
    sets or the pointwise stabilizer of a random point set."""
    def setwise(sets):
        return lambda g: all(frozenset(g[x] for x in s) == s for s in sets)

    def pointwise(points):
        return lambda g: all(g[x] == x for x in points)

    out = [("whole", setwise(())), ("trivial", pointwise(range(degree)))]
    for _ in range(count):
        if rng.random() < 0.5:
            sets = [frozenset(rng.sample(range(degree), rng.randint(1, degree - 1)))
                    for _ in range(rng.randint(1, 3))]
            out.append((f"setwise {[sorted(s) for s in sets]}", setwise(sets)))
        else:
            points = rng.sample(range(degree), rng.randint(1, degree - 1))
            out.append((f"pointwise {sorted(points)}", pointwise(points)))
    return out


def random_polygon_system(rng, pool):
    """A rank 2-4 system made of one or two blocks, chamber ids shuffled.
    A block is a random partition system; or a polygon or digon from the
    pool on two random types, the other types cut into panels of 1-3
    chambers; or a thin Coxeter complex of the rank with its types permuted."""
    rank = rng.randint(2, 4)
    blocks = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.random()
        if kind < 0.25:
            blocks.append(random_partitions(rng, rank, rng.randint(1, 6)))
        elif kind < 0.85:
            poly = rng.choice(pool[2])
            i, j = rng.sample(range(1, rank + 1), 2)
            cut = random_partitions(rng, rank, poly.n)
            blocks.append(chamber.from_partitions(
                poly.n, rank, {**cut.panels, i: poly.panels[1], j: poly.panels[2]}))
        else:
            C = rng.choice(pool[rank])
            sigma = dict(zip(C.types, rng.sample(C.types, rank)))
            blocks.append(chamber.from_partitions(
                C.n, rank, {sigma[t]: C.panels[t] for t in C.types}))
    return shuffled_union(rng, *blocks)
