"""Chamber systems over a type set I = {1..k}: panels, residues, galleries,
coset constructions, generalized-polygon residues, simpliciality, quotients.

Chambers are dense ids 0..n-1.  A system is immutable after construction;
its one layout is the sorted panels and one panel index per type, which
every engine walks to reach a chamber's neighbours.  Derived data (residue
partitions, rank-2 residue gonalities, the simpliciality verdict) is
cached internally.  A rank-2 residue is a generalized m-gon when its panel
graph has girth 2m and diameter m >= 2; one level-synchronous bitset pass
per type pair measures both for all of the pair's residues at once.
"""

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain, combinations, compress, islice, repeat

from . import groups
from .coxeter import CoxeterMatrix, _int
from .errors import (
    ActionNotFree,
    BudgetExceeded,
    Disconnected,
    DuplicateChamber,
    InconsistentResidues,
    NotSubgroup,
    PartitionNotCovering,
    ResidueCollision,
    ResidueNotPolygon,
    WrongRank,
)


_map_or = partial(map, operator.or_)
_map_add = partial(map, operator.add)
_first = operator.itemgetter(0)


def _chambers_by_key(keys):
    """The chamber ids 0..n-1 grouped by equal key, one key per chamber in
    id order: tuples in order of least member, each ascending, the panel
    order `ChamberSystem` keeps.  Every builder of derived panels groups here."""
    by_key = {}
    for c, key in enumerate(keys):
        by_key.setdefault(key, []).append(c)
    return list(map(tuple, by_key.values()))


def _sorted_partition(part, n):
    """The panels of `part`, each sorted, in sorted order, when `part` is a
    list or tuple of non-empty lists or tuples of exact ints that together
    hold each of 0..n-1 once; else None.  Whole-partition tests only."""
    if type(part) not in (list, tuple) or not set(map(type, part)) <= {list, tuple} or not all(part):
        return None
    flat = list(chain.from_iterable(part))
    if (len(flat) != n or set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= n
            or len(set(flat)) != n):
        return None
    return sorted(map(tuple, map(sorted, part)))


class ChamberSystem:
    def __init__(self, n, rank, partitions, labels=None):
        self.n = _int(n)
        self.rank = _int(rank)
        if self.n <= 0:
            raise PartitionNotCovering(f"empty system: chamber count {self.n} is not positive")
        if self.rank < 0:
            raise PartitionNotCovering(f"negative rank {self.rank}")
        if not all(isinstance(i, int) and 1 <= i <= self.rank for i in partitions):
            raise PartitionNotCovering(f"a partition type lies outside 1..{self.rank}")
        pans = {}
        for i in range(1, self.rank + 1):
            if i not in partitions:
                raise PartitionNotCovering(f"no partition for type {i}")
            panels = _sorted_partition(partitions[i], self.n)
            if panels is None:
                # the per-panel scan converts other ids or raises the first fault
                seen = set()
                panels = []
                for panel in partitions[i]:
                    panel = sorted(panel)
                    if bool in map(type, panel):
                        raise TypeError(f"a bool chamber id in a type-{i} panel")
                    panel = tuple(map(operator.index, panel))
                    if not panel:
                        raise PartitionNotCovering(f"empty panel of type {i}")
                    for c in panel:
                        if not 0 <= c < self.n:
                            raise PartitionNotCovering(f"chamber id {c} out of range")
                        if c in seen:
                            raise DuplicateChamber(f"chamber {c} repeated in type-{i} partition")
                        seen.add(c)
                    panels.append(panel)
                if len(seen) != self.n:
                    missing = next(c for c in range(self.n) if c not in seen)
                    raise PartitionNotCovering(f"chamber {missing} missing from type-{i} partition")
                panels.sort()
            pans[i] = tuple(panels)
        self.panels = pans
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length mismatch")
        self._panel_idx = {}
        for i, panels in self.panels.items():
            idx = [None] * self.n
            for p, panel in enumerate(panels):
                for c in panel:
                    idx[c] = p
            self._panel_idx[i] = tuple(idx)
        # the engines reach c's neighbours as panels[idx[c]] per (type, panels, idx)
        self._type_panels = tuple((i, self.panels[i], self._panel_idx[i]) for i in self.types)
        self._comp_cache = {}
        self._gon_cache = {}
        self._simp_cache = None
        self._inv_cache = None

    # --- basic queries ------------------------------------------------

    def _chamber(self, c, what="chamber"):
        """c as a chamber id: an integer, not a bool, in 0..n-1."""
        c = _int(c)
        if not 0 <= c < self.n:
            raise ValueError(f"{what} {c} outside 0..{self.n - 1}")
        return c

    def _types(self, J):
        """J as a frozenset of types: integers, not bools, in 1..rank."""
        J = frozenset(map(_int, J))
        bad = J.difference(self.panels)
        if bad:
            raise ValueError(f"type {min(bad)} outside 1..{self.rank}")
        return J

    @property
    def types(self):
        return tuple(range(1, self.rank + 1))

    def panel_of(self, i, c):
        """The type-i panel through chamber c, as a sorted tuple."""
        return self.panels[i][self._panel_idx[i][c]]

    def panel_id(self, i, c):
        return self._panel_idx[i][c]

    def adjacency(self):
        """Per chamber, the tuple of (type, other chamber) adjacencies, type by
        type and within a type in panel member order.  A view built from the
        panels on each call; no engine reads it."""
        return [tuple((i, d) for i, panels, idx in self._type_panels for d in panels[idx[c]]
                      if d != c) for c in range(self.n)]

    # --- residues -----------------------------------------------------

    def component_map(self, J):
        """Component id per chamber under adjacency restricted to types J,
        numbered in order of least member."""
        J = self._types(J)
        cached = self._comp_cache.get(J)
        if cached is not None:
            return cached
        comp = [None] * self.n
        cid = 0
        # per type its panels, the panel index and which panels were walked
        sides = [(self.panels[i], self._panel_idx[i], [False] * len(self.panels[i])) for i in J]
        for start in range(self.n):
            if comp[start] is not None:
                continue
            comp[start] = cid
            stack = [start]
            while stack:
                c = stack.pop()
                for panels, idx, walked in sides:
                    p = idx[c]
                    if walked[p]:
                        continue
                    walked[p] = True
                    for d in panels[p]:
                        if comp[d] is None:
                            comp[d] = cid
                            stack.append(d)
            cid += 1
        comp = tuple(comp)
        self._comp_cache[J] = comp
        return comp

    def residue(self, J, c):
        """The J-residue through chamber c."""
        return self.residues(J)[self.component_map(J)[self._chamber(c)]]

    def residues(self, J):
        """All J-residues, the k-th being component k of component_map(J)."""
        J = self._types(J)
        return [Residue(J, v) for v in _chambers_by_key(self.component_map(J))]

    def _residue_gonalities(self, i, j):
        """Per {i,j}-residue, ordered by least member, (least chamber, m)
        with the residue a generalized m-gon, or m None: girth 2m and
        diameter m >= 2, read from one `_residue_girths_and_diameters` pass
        over the pair.  Cached."""
        J = frozenset((i, j))
        if J not in self._gon_cache:
            self._gon_cache[J] = tuple(
                (least, diameter if diameter >= 2 and girth == 2 * diameter else None)
                for least, girth, diameter in _residue_girths_and_diameters(self, i, j))
        return self._gon_cache[J]

    def is_connected(self):
        comp = self.component_map(self.types)
        return all(x == comp[0] for x in comp)

    # --- galleries ----------------------------------------------------

    def _distances_from(self, x):
        """The chambers reachable from x in breadth-first order, and per
        chamber its gallery distance from x, None if unreachable."""
        x = self._chamber(x)
        dist = [None] * self.n
        dist[x] = 0
        order = [x]
        for c in order:
            dc = dist[c] + 1
            for _, panels, idx in self._type_panels:
                for d in panels[idx[c]]:
                    if dist[d] is None:
                        dist[d] = dc
                        order.append(d)
        return order, dist

    def min_gallery(self, x, y):
        """One shortest gallery from x to y."""
        y = self._chamber(y)
        _, dist = self._distances_from(x)
        if dist[y] is None:
            raise Disconnected(f"no gallery from {x} to {y}")
        chambers, types = [y], []
        c = y
        while c != x:
            i, c = next((i, u) for i, panels, idx in self._type_panels for u in panels[idx[c]]
                        if dist[u] == dist[c] - 1)
            chambers.append(c)
            types.append(i)
        return TypedGallery(tuple(reversed(chambers)), tuple(reversed(types)))

    def __repr__(self):
        return f"ChamberSystem(n={self.n}, rank={self.rank})"


@dataclass(frozen=True)
class Residue:
    types: frozenset
    chambers: tuple

    @property
    def rank(self):
        return len(self.types)


@dataclass(frozen=True)
class TypedGallery:
    chambers: tuple
    types: tuple

    def __post_init__(self):
        if len(self.chambers) != len(self.types) + 1:
            raise ValueError(f"{len(self.chambers)} chambers do not fit a type word of "
                             f"length {len(self.types)}")

    @property
    def start(self):
        return self.chambers[0]

    @property
    def end(self):
        return self.chambers[-1]

    def __len__(self):
        return len(self.types)

    def normalized(self):
        """Drop stuttering steps (repeated chambers)."""
        chambers = [self.chambers[0]]
        types = []
        for c, i in zip(self.chambers[1:], self.types):
            if c != chambers[-1]:
                chambers.append(c)
                types.append(i)
        return TypedGallery(tuple(chambers), tuple(types))


def validate_gallery(C, gal):
    """Every chamber lies in 0..n-1, every type in 1..rank, and every step
    stays inside a panel of its type; stutters are allowed."""
    for c in gal.chambers:
        C._chamber(c, "gallery chamber")
    C._types(gal.types)
    for (c, d), i in zip(zip(gal.chambers, gal.chambers[1:]), gal.types):
        if C.panel_id(i, c) != C.panel_id(i, d):
            raise ValueError(f"step {c}->{d} is not inside a type-{i} panel")
    return True


# ---------------------------------------------------------------------------
# constructors


def from_partitions(n, rank, partitions, labels=None):
    return ChamberSystem(n, rank, partitions, labels=labels)


@dataclass
class HomogeneousSpec:
    """A finite group with nested subgroups defining a coset chamber system:
    chambers are left cosets of the principal subgroup, the type-i panel of
    gH is {g'H : g^-1 g' in face[i]}."""

    group: object
    principal: object
    faces: dict
    vertex: dict = None
    _vertex_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        H = self.principal
        for i, Gi in sorted(self.faces.items()):
            if not H.set <= Gi.set:
                raise NotSubgroup(f"principal subgroup not contained in face group {i}")
        if self.vertex:
            for j, Gj in sorted(self.vertex.items()):
                for i, Gi in sorted(self.faces.items()):
                    if i != j and not Gi.set <= Gj.set:
                        raise NotSubgroup(f"face group {i} not contained in vertex group {j}")

    @property
    def types(self):
        return tuple(sorted(self.faces))

    def vertex_group(self, j):
        """Vertex group of type j: supplied, else generated by the other faces."""
        if self.vertex and j in self.vertex:
            return self.vertex[j]
        if j not in self._vertex_cache:
            gens = []
            for i, Gi in sorted(self.faces.items()):
                if i != j:
                    gens.extend(Gi.elements)
            self._vertex_cache[j] = groups.subgroup_generated(self.group, gens)
        return self._vertex_cache[j]


def from_cosets(spec):
    """Coset chamber system of a HomogeneousSpec.  Chamber ids follow the
    deterministic coset order of the principal subgroup H, whose
    representatives are the labels.  The type-i panel of gH is {g f H} over
    a transversal f of H in face[i], read from its least chamber.  A face
    that is not a union of H-cosets, is not closed under products (checked
    as S*f in S over the transversal, |S|^2/|H| products), or whose panels
    overlap, raises NotSubgroup."""
    G = spec.group
    H = spec.principal
    types = spec.types
    if types != tuple(range(1, len(types) + 1)):
        raise ValueError("face types must be 1..k")
    ct = groups.left_cosets(G, H)
    n, coset_of = ct.index, ct.coset_of
    partitions = {}
    for i in types:
        Gi = spec.faces[i]
        transversal = {coset_of.get(f): f for f in Gi.elements}
        if None in transversal or len(transversal) * H.order != Gi.order:
            raise NotSubgroup(f"face group {i} is not a union of principal cosets in the group")
        compiled = [groups._right_mul(f) for f in transversal.values()]
        # a union of H-cosets S is a subgroup iff S*t lies in S for every
        # t of its transversal, since then S*S = (S*T)*H lies in S*H = S
        if not all(Gi.set.issuperset(map(m, Gi.elements)) for m in compiled):
            raise NotSubgroup(f"face group {i} is not closed under products")
        placed = [False] * n
        partitions[i] = []
        for c, g in enumerate(ct.reps):
            if not placed[c]:
                panel = [coset_of[f(g)] for f in compiled]
                for d in panel:
                    placed[d] = True
                partitions[i].append(panel)
        # each chamber lies in its own panel: overlaps show in the count
        if len(partitions[i]) * len(compiled) != n:
            raise NotSubgroup(f"translates of face group {i} overlap")
    return ChamberSystem(n, len(types), partitions, labels=ct.reps)


# ---------------------------------------------------------------------------
# rank-2 residues as generalized polygons


def _sides(C, comp, i, j):
    """Per type t of the pair, (panels, [(size, count)], residue per panel,
    position per panel id or None): the type-t panels sorted by size, so
    that each size class is one run, and kept in place when all sizes agree."""
    sides = []
    for t in (i, j):
        P = C.panels[t]
        sizes = list(map(len, P))
        res = list(map(comp.__getitem__, map(_first, P)))
        if sizes.count(sizes[0]) == len(sizes):
            sides.append((P, [(sizes[0], len(P))], res, None))
            continue
        order = sorted(range(len(P)), key=sizes.__getitem__)
        sides.append((list(map(P.__getitem__, order)), sorted(Counter(sizes).items()),
                      list(map(res.__getitem__, order)),
                      sorted(range(len(P)), key=order.__getitem__)))
    return sides


def _residue_girths_and_diameters(C, i, j):
    """Per {i,j}-residue, ordered by least member, (least chamber, girth,
    diameter) of its panel graph; girth 2 is a multi-edge, None no cycle.

    All residues of the pair advance one level at a time.  Panel u holds
    its ball B_L(u), the panels within distance L, as a bitmask over its
    own residue's panels: B_1(u) is u and its neighbours, B_L(u) for L >= 2
    the OR of B_{L-1}(v) over the neighbours v.  Every B_{L-1}(v) holds
    B_{L-2}(u) (empty for L = 1), and the sets B_{L-1}(v) - B_{L-2}(u) are
    disjoint unless two paths of length <= L from u meet, closing a cycle.
    So as integers the sum of the B_{L-1}(v) less (deg u - 1) B_{L-2}(u)
    exceeds their OR exactly when u closes a cycle at level L; the first
    such level is half the girth, and level 1 finds a repeated neighbour,
    a multi-edge.  The diameter is the first level at which every ball
    of the residue is the whole residue."""
    comp = C.component_map((i, j))
    least = [0]
    for k in range(1, max(comp) + 1):
        least.append(comp.index(k, least[-1]))
    size = [0] * len(least)
    sides = _sides(C, comp, i, j)
    # the graph is bipartite: a type-i panel gathers the balls of the
    # type-j panels through its chambers, and the other way round
    state = []
    for (P, classes, res, _), (_, _, _, pos), t in zip(sides, sides[::-1], (j, i)):
        other = C._panel_idx[t] if pos is None else list(map(pos.__getitem__, C._panel_idx[t]))
        bits = []
        for r in res:
            bits.append(1 << size[r])
            size[r] += 1
        # the spare last index keeps the gathered balls a tuple
        gather = operator.itemgetter(*map(other.__getitem__, chain.from_iterable(P)), 0)
        state.append((gather, classes, res, bits))
    whole = [(1 << s) - 1 for s in size]
    full = [list(map(whole.__getitem__, res)) for _, _, res, _ in state]
    girth, diameter = [None] * len(least), [None] * len(least)
    open_ = set(range(len(least)))
    two_down, one_down = [[0] * len(bits) for *_, bits in state], [bits for *_, bits in state]
    level = 0
    while open_:
        level += 1
        balls = []
        for (gather, classes, res, bits), theirs, back in zip(state, one_down[::-1], two_down):
            got = gather(theirs)
            mine = []
            lo = off = 0
            for d, count in classes:
                hi, end = lo + count, off + count * d
                if d == 1:
                    mine += got[off:end]
                else:
                    cols = [got[k:end:d] for k in range(off, off + d)]
                    # fold 64 columns per nest of maps: a panel of many
                    # chambers would otherwise nest them past the C stack
                    ors = sums = cols[0]
                    for k in range(1, d, 64):
                        ors = list(reduce(_map_or, cols[k:k + 64], ors))
                        sums = list(reduce(_map_add, cols[k:k + 64], sums))
                    sums = map(operator.sub, sums, map(operator.mul, repeat(d - 1), back[lo:hi]))
                    # the first level at which a panel of a residue closes
                    # a cycle is half its girth; later levels, and the
                    # repeats of a multi-edge that the OR ignores, close more
                    for r in set(compress(res[lo:hi], map(operator.ne, sums, ors))):
                        if girth[r] is None:
                            girth[r] = 2 * level
                    mine += ors
                lo, off = hi, end
            balls.append(mine if level > 1 else list(map(operator.or_, mine, bits)))
        two_down, one_down = one_down, balls
        unfinished = set()
        for (_, _, res, _), mine, want in zip(state, balls, full):
            unfinished.update(compress(res, map(operator.ne, mine, want)))
        for r in open_ - unfinished:
            diameter[r] = level
        open_ = unfinished
    return list(zip(least, girth, diameter))


def incidence_graph_stats(C):
    """(girth, diameter) of the panel incidence graph of a rank-2 system:
    the least girth over its components, 2 on a multi-edge, None with no
    cycle; the diameter None unless the graph is connected."""
    if C.rank != 2:
        raise WrongRank(f"rank-2 system required, got rank {C.rank}")
    stats = _residue_girths_and_diameters(C, 1, 2)
    girth = min((g for _, g, _ in stats if g is not None), default=None)
    return girth, (stats[0][2] if len(stats) == 1 else None)


def infer_type_matrix(C):
    """The Coxeter matrix M with every {i,j}-residue a generalized
    m_ij-gon; errors if some residue is not a polygon or two residues of the
    same type pair disagree."""
    k = C.rank
    entries = [[1 if i == j else None for j in range(k)] for i in range(k)]
    for i, j in combinations(C.types, 2):
        m_seen = None
        for least, m in C._residue_gonalities(i, j):
            if m is None:
                raise ResidueNotPolygon(
                    f"{{{i},{j}}}-residue at chamber {least} is not a generalized m-gon")
            if m_seen is None:
                m_seen = m
            elif m_seen != m:
                raise InconsistentResidues(
                    f"{{{i},{j}}}-residues demand both m={m_seen} and m={m}")
        entries[i - 1][j - 1] = entries[j - 1][i - 1] = m_seen
    return CoxeterMatrix(entries)


# ---------------------------------------------------------------------------
# simpliciality


def chamber_vertices(C):
    """Per chamber, the tuple of its corank-1 residue ids (its vertices),
    one per type: one zip of the corank-1 component maps."""
    if not C.rank:
        return [()] * C.n
    full = frozenset(C.types)
    return list(zip(*(C.component_map(full - {i}) for i in C.types)))


def _least_per_key(keys):
    """Per position, the least position with an equal key: a dict filled
    from the back keeps each key's first position."""
    n = len(keys)
    first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
    return list(map(first.__getitem__, keys))


def is_simplicial(C):
    """Whether the system is a simplicial complex: chambers are determined
    by their vertex tuples, and any two chambers sharing vertex types S lie
    in a common (I minus S)-residue.  Returns (bool, witness).  Cached.

    One pass per S with 2 <= |S| < rank maps each chamber x to the least
    chamber with x's S-vertices.  A pair of them in two (I minus S)-residues
    fails, and so do those pairs for the exact types they share, whose
    residues are finer.  The witness is the least failing pair.  |S| = 1
    is vacuous: the type-t vertex is the (I minus t)-residue."""
    if C._simp_cache is not None:
        return C._simp_cache
    verts = chamber_vertices(C)
    chambers = range(C.n)
    least = _least_per_key(verts)
    dup = next(compress(chambers, map(operator.ne, least, chambers)), None)
    if dup is not None:
        C._simp_cache = False, ("duplicate-vertices", least[dup], dup)
        return C._simp_cache
    fails = []
    for k in range(2, C.rank):
        for S in combinations(C.types, k):
            comp = C.component_map(set(C.types) - set(S))
            least = _least_per_key(list(map(operator.itemgetter(*(i - 1 for i in S)), verts)))
            fails += compress(zip(least, chambers),
                              map(operator.ne, map(comp.__getitem__, least), comp))
    if not fails:
        C._simp_cache = True, None
        return C._simp_cache
    x, y = min(fails)
    S = tuple(i for i in C.types if verts[x][i - 1] == verts[y][i - 1])
    C._simp_cache = False, ("no-common-face", x, y, S)
    return C._simp_cache


# ---------------------------------------------------------------------------
# quotients by free automorphism groups


def quotient(C, gens):
    """Quotient by the group G generated by type-preserving automorphisms,
    which must act freely with no invariant rank-2 residues.  Returns
    (system, projection).  G acts freely iff every orbit has |G| chambers
    (orbit-stabilizer); then a g != 1 maps an {i,j}-residue into itself iff
    the residue meets an orbit twice.  The witnesses are the least chamber
    of a shorter orbit, and the least chamber sharing its residue and its
    orbit with another."""
    gens = [tuple(map(_int, a)) for a in gens]
    if any(len(a) != C.n for a in gens):
        raise ValueError(f"automorphism generators must have one entry per chamber ({C.n})")
    try:
        order = groups.group_from_generators(gens or [groups.identity(C.n)], cap=C.n).order
    except BudgetExceeded:
        # orbit-stabilizer: a group with more elements than chambers cannot act freely
        raise ActionNotFree(f"the automorphisms generate more than {C.n} elements") from None
    if not all(verify_isomorphism(C, C, a) for a in gens):
        raise ValueError("automorphism is not a type-preserving chamber permutation")
    orbit = [None] * C.n
    reps = []
    for c in range(C.n):
        if orbit[c] is not None:
            continue
        members = groups.orbit(c, gens, operator.getitem, C.n)
        if len(members) < order:
            raise ActionNotFree(f"automorphism fixes chamber {c}")
        for d in members:
            orbit[d] = len(reps)
        reps.append(c)
    for i, j in combinations(C.types, 2):
        keys = list(zip(C.component_map((i, j)), orbit))
        if len(set(keys)) < C.n:
            least = _least_per_key(keys)
            c = min(compress(least, map(operator.ne, least, range(C.n))))
            raise ResidueCollision(
                f"automorphism maps the {{{i},{j}}}-residue of chamber {c} into itself")
    partitions = {i: _chambers_by_key(frozenset(map(orbit.__getitem__, C.panel_of(i, r)))
                                      for r in reps) for i in C.types}
    labels = None
    if C.labels is not None:
        labels = tuple(C.labels[r] for r in reps)
    return ChamberSystem(len(reps), C.rank, partitions, labels=labels), tuple(orbit)


# ---------------------------------------------------------------------------
# isomorphism of chamber systems (type-preserving)


def _chamber_invariant(C):
    """Per chamber, the sizes of its panels and of its rank-2 residues.
    Cached on C."""
    if C._inv_cache is None:
        maps = ([C._panel_idx[i] for i in C.types]
                + [C.component_map(J) for J in combinations(C.types, 2)])
        sizes = [Counter(m) for m in maps]
        C._inv_cache = tuple(tuple(size[m[c]] for m, size in zip(maps, sizes)) for c in range(C.n))
    return C._inv_cache


def isomorphism(A, B, start=None, budget=None):
    """A type-preserving isomorphism A -> B as a tuple chamber map, or None:
    the search of `_isomorphism` with each chamber coloured by its panel
    and rank-2 residue sizes.  A pair start = (x, y) is the first branch,
    with y its one option.  Past `budget` chambers matched, rematches after
    backtracking included, the search gives up with None.
    """
    if start is not None:
        start = A._chamber(start[0]), B._chamber(start[1])
    inv_a, inv_b = _chamber_invariant(A), _chamber_invariant(B)
    # also tells apart systems of different size or rank
    if sorted(inv_a) != sorted(inv_b):
        return None
    return _isomorphism(A, B, inv_a, inv_b, start, budget)


def _isomorphism(A, B, col_a, col_b, start=None, budget=None):
    """An isomorphism A -> B of systems of one size and rank that maps each
    chamber x to one of colour col_a[x] in col_b, or None.

    Backtracking over two arrays and an undo trail.  Matching u -> v pairs
    each A-panel through u once with the B-panel through v: a matched
    member must lie in it, and a free one takes the one free chamber of
    its colour there; given several, it takes its one `options` or waits.
    A panel whose members all have images is marked walked; unmatching a
    member clears the mark.  The search branches on the least unmatched
    chamber next to a matched one, else on the least unmatched chamber; a
    start pair is the first branch.
    """
    # per type: A's panels and index, B's, and which A-panels are walked
    sides = [(pa, ia, pb, ib, [False] * len(pa))
             for (_, pa, ia), (_, pb, ib) in zip(A._type_panels, B._type_panels)]
    fwd, bwd, trail, by_colour = [-1] * A.n, [-1] * B.n, [], {}

    def options(x):
        """The free chambers of x's colour in the B-panel through the image
        of a matched neighbour of x, per type; of all B without one."""
        c, opts = col_a[x], None
        for pa, ia, pb, ib, _ in sides:
            for w in pa[ia[x]]:
                if fwd[w] >= 0:
                    q = ib[fwd[w]]
                    opts = [y for y in (pb[q] if opts is None else opts)
                            if ib[y] == q and bwd[y] < 0 and col_b[y] == c]
                    break
        if opts is None:
            if not by_colour:
                for y in range(B.n):
                    by_colour.setdefault(col_b[y], []).append(y)
            opts = [y for y in by_colour.get(c, ()) if bwd[y] < 0]
        return opts

    def match(x, y):
        """Match x -> y and walk the panels of each chamber matched;
        False at a contradiction."""
        fwd[x], bwd[y] = y, x
        trail.append(x)
        for u in islice(trail, len(trail) - 1, None):
            for pa, ia, pb, ib, walked in sides:
                p, q = ia[u], ib[fwd[u]]
                if walked[p]:
                    continue
                free = {}           # colour -> its one free chamber, or -1 for several
                for w in pb[q]:
                    if bwd[w] < 0:
                        free[col_b[w]] = -1 if col_b[w] in free else w
                full = True
                for z in pa[p]:
                    w = fwd[z]
                    if w >= 0:
                        if ib[w] != q:
                            return False
                        continue
                    w = free.get(col_a[z], -2)
                    if w == -1:
                        opts = options(z)
                        if len(opts) != 1:
                            if not opts:
                                return False
                            full = False
                            continue
                        w = opts[0]
                    elif w < 0 or bwd[w] >= 0:
                        return False
                    fwd[z], bwd[w] = w, z
                    trail.append(z)
                walked[p] = full
        return True

    # depth-first search over branch points (chamber, options left, trail length before it)
    branches, steps = [], 0
    while len(trail) < A.n:
        if start is not None and not branches:
            x, y = start
            opts = [y] if col_a[x] == col_b[y] else []
        else:
            x = next((z for z in range(A.n) if fwd[z] < 0 and any(
                fwd[w] >= 0 for pa, ia, _, _, _ in sides for w in pa[ia[z]])), fwd.index(-1))
            opts = options(x)
        branches.append((x, iter(opts), len(trail)))
        while True:
            if not branches:
                return None
            x, rest, mark = branches[-1]
            while len(trail) > mark:
                z = trail.pop()
                bwd[fwd[z]] = -1
                fwd[z] = -1
                for _, ia, _, _, walked in sides:
                    walked[ia[z]] = False
            y = next(rest, None)
            if y is None:
                branches.pop()
                continue
            matched = match(x, y)
            steps += len(trail) - mark
            if budget is not None and steps > budget:
                return None
            if matched:
                break
    return tuple(fwd)


def verify_isomorphism(A, B, mapping):
    """Check that an explicit chamber map, a sequence or a dict indexed by
    the chambers of A, is a type-preserving isomorphism.  An entry that is
    a bool or no integer fails."""
    if A.n != B.n or A.rank != B.rank or len(mapping) != A.n:
        return False
    try:
        images = [_int(mapping[c]) for c in range(A.n)]
    except (KeyError, TypeError):
        return False
    if sorted(images) != list(range(B.n)):
        return False
    for i in A.types:
        for panel in A.panels[i]:
            image = tuple(sorted(images[c] for c in panel))
            if image != B.panel_of(i, images[panel[0]]):
                return False
    return True


# ---------------------------------------------------------------------------
# serialization


def system_to_json(C):
    """C as a JSON object.  The labels are written as C holds them:
    json.dumps writes tuples and lists as the same arrays."""
    obj = {
        "rank": C.rank,
        "n": C.n,
        "panels": {str(i): [list(p) for p in C.panels[i]] for i in C.types},
    }
    if C.labels is not None:
        obj["labels"] = list(C.labels)
    return obj


def system_from_json(obj):
    """The system of a parsed JSON object.  Its labels are the parsed
    values, carried without conversion, so nested labels stay lists: a
    loaded system's labels cannot key a dict, so `catalog.label_map`
    cannot index it and `verify.check_star` on it raises TypeError.  A
    file of rank 0 has no panel to back a second chamber, so one with
    n > 1 is refused before anything of size n is built."""
    if _int(obj["rank"]) == 0 and _int(obj["n"]) > 1:
        raise PartitionNotCovering(f"rank 0 with {obj['n']} chambers: no panel backs them")
    if not isinstance(obj["panels"], dict):
        raise TypeError(f"panels must be an object of type -> panel list, "
                        f"got {type(obj['panels']).__name__}")
    partitions = {int(i): panels for i, panels in obj["panels"].items()}
    if len(partitions) < len(obj["panels"]):
        raise ValueError(f"panels keys {sorted(obj['panels'])} name some type twice")
    return ChamberSystem(obj["n"], obj["rank"], partitions, labels=obj.get("labels"))


_DOT_COLORS = ["red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta"]


def adjacency_dot(C):
    """DOT multigraph of chamber adjacency, one color per type."""
    lines = ["graph chambers {"]
    for c in range(C.n):
        lines.append(f"  c{c};")
    for i in C.types:
        color = _DOT_COLORS[(i - 1) % len(_DOT_COLORS)]
        for panel in C.panels[i]:
            for a, b in combinations(panel, 2):
                lines.append(f'  c{a} -- c{b} [color={color}, label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def incidence_dot(C):
    """DOT bipartite incidence graph of a rank-2 system."""
    if C.rank != 2:
        raise WrongRank("incidence DOT requires a rank-2 system")
    lines = ["graph incidence {"]
    for p in range(len(C.panels[1])):
        lines.append(f"  a{p} [shape=circle];")
    for p in range(len(C.panels[2])):
        lines.append(f"  b{p} [shape=box];")
    for c in range(C.n):
        lines.append(f"  a{C.panel_id(1, c)} -- b{C.panel_id(2, c)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
