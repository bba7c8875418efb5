"""Chamber systems over a type set I = {1..k}: panels, residues, galleries,
coset constructions, generalized-polygon residues, simpliciality, quotients.

Chambers are dense ids 0..n-1.  A system is immutable after construction;
derived data (adjacency, residue partitions) is cached internally.
"""

from dataclasses import dataclass, field
from itertools import combinations

from . import groups
from .coxeter import CoxeterMatrix
from .errors import (
    ActionNotFree,
    BudgetExceeded,
    CapExceeded,
    Disconnected,
    DuplicateChamber,
    InconsistentResidues,
    NotSubgroup,
    PartitionNotCovering,
    ResidueCollision,
    ResidueNotPolygon,
    WrongRank,
)


_TYPE_SET_CAP = 10 ** 4      # type words per chamber; past it, is_building's type-set-budget


class ChamberSystem:
    def __init__(self, n, rank, partitions, labels=None):
        self.n = int(n)
        self.rank = int(rank)
        pans = {}
        for i in range(1, self.rank + 1):
            if i not in partitions:
                raise PartitionNotCovering(f"no partition for type {i}")
            seen = set()
            panels = []
            for panel in partitions[i]:
                panel = tuple(sorted(int(c) for c in panel))
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
        self._adj = None
        self._comp_cache = {}

    # --- basic queries ------------------------------------------------

    @property
    def types(self):
        return tuple(range(1, self.rank + 1))

    def panel_of(self, i, c):
        """The type-i panel through chamber c, as a sorted tuple."""
        return self.panels[i][self._panel_idx[i][c]]

    def panel_id(self, i, c):
        return self._panel_idx[i][c]

    def adjacency(self):
        """Per chamber, the list of (type, other chamber) adjacencies."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for i in self.types:
                for panel in self.panels[i]:
                    for c in panel:
                        for d in panel:
                            if d != c:
                                adj[c].append((i, d))
            self._adj = [tuple(a) for a in adj]
        return self._adj

    # --- residues -----------------------------------------------------

    def component_map(self, J):
        """Component id per chamber under adjacency restricted to types J."""
        J = frozenset(J)
        cached = self._comp_cache.get(J)
        if cached is not None:
            return cached
        comp = [None] * self.n
        cid = 0
        for start in range(self.n):
            if comp[start] is not None:
                continue
            comp[start] = cid
            stack = [start]
            while stack:
                c = stack.pop()
                for i in J:
                    for d in self.panel_of(i, c):
                        if comp[d] is None:
                            comp[d] = cid
                            stack.append(d)
            cid += 1
        comp = tuple(comp)
        self._comp_cache[J] = comp
        return comp

    def residue(self, J, c):
        """The J-residue through chamber c."""
        J = frozenset(int(j) for j in J)
        for j in J:
            if j not in self.types:
                raise ValueError(f"type {j} out of range")
        comp = self.component_map(J)
        members = tuple(d for d in range(self.n) if comp[d] == comp[c])
        return Residue(J, members)

    def residues(self, J):
        """All J-residues, ordered by least member."""
        J = frozenset(J)
        comp = self.component_map(J)
        buckets = {}
        for c in range(self.n):
            buckets.setdefault(comp[c], []).append(c)
        return [Residue(J, tuple(v)) for _, v in sorted(buckets.items(), key=lambda kv: kv[1][0])]

    def is_connected(self):
        if self.n == 0:
            return True
        comp = self.component_map(self.types)
        return all(x == comp[0] for x in comp)

    # --- galleries ----------------------------------------------------

    def min_gallery(self, x, y):
        """One shortest gallery from x to y."""
        if x == y:
            return TypedGallery((x,), ())
        adj = self.adjacency()
        prev = {x: None}
        frontier = [x]
        while frontier and y not in prev:
            nxt = []
            for c in frontier:
                for i, d in adj[c]:
                    if d not in prev:
                        prev[d] = (c, i)
                        nxt.append(d)
            frontier = nxt
        if y not in prev:
            raise Disconnected(f"no gallery from {x} to {y}")
        chambers, types = [y], []
        c = y
        while prev[c] is not None:
            p, i = prev[c]
            chambers.append(p)
            types.append(i)
            c = p
        return TypedGallery(tuple(reversed(chambers)), tuple(reversed(types)))

    def minimal_type_sets_from(self, x):
        """For every chamber y, the set of type words of minimal galleries
        x -> y.  Unreachable chambers get None."""
        adj = self.adjacency()
        dist = {x: 0}
        order = [x]
        head = 0
        while head < len(order):
            c = order[head]
            head += 1
            for i, d in adj[c]:
                if d not in dist:
                    dist[d] = dist[c] + 1
                    order.append(d)
        tsets = [None] * self.n
        tsets[x] = {()}
        for c in order[1:]:
            dc = dist[c]
            words = set()
            for i, u in adj[c]:
                if dist.get(u) == dc - 1:
                    for w in tsets[u]:
                        words.add(w + (i,))
                        if len(words) > _TYPE_SET_CAP:
                            raise BudgetExceeded(
                                f"minimal-gallery type set exceeded {_TYPE_SET_CAP}")
            tsets[c] = words
        return [frozenset(t) if t is not None else None for t in tsets]

    def minimal_gallery_types(self, x, y):
        tsets = self.minimal_type_sets_from(x)
        if tsets[y] is None:
            raise Disconnected(f"no gallery from {x} to {y}")
        return tsets[y]

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

    def concat(self, other):
        if self.end != other.start:
            raise ValueError(f"gallery ending at {self.end} cannot continue from {other.start}")
        return TypedGallery(self.chambers + other.chambers[1:], self.types + other.types)

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
    """Every step stays inside a panel of its type; stutters are allowed."""
    for (c, d), i in zip(zip(gal.chambers, gal.chambers[1:]), gal.types):
        if C.panel_id(i, c) != C.panel_id(i, d):
            raise ValueError(f"step {c}->{d} is not inside a type-{i} panel")
    return True


def gallery_from_types(C, start, types):
    """Walk a type word from a chamber, if each step has a unique partner
    (thin systems); raises on ambiguity."""
    chambers = [start]
    for i in types:
        panel = C.panel_of(i, chambers[-1])
        others = [d for d in panel if d != chambers[-1]]
        if len(others) != 1:
            raise ValueError(f"type walk ambiguous at chamber {chambers[-1]}, type {i}")
        chambers.append(others[0])
    return TypedGallery(tuple(chambers), tuple(types))


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
    deterministic coset order of the principal subgroup."""
    G = spec.group
    H = spec.principal
    types = spec.types
    if types != tuple(range(1, len(types) + 1)):
        raise ValueError("face types must be 1..k")
    ct_H = groups.left_cosets(G, H)
    n = ct_H.index
    partitions = {}
    for i in types:
        Gi = spec.faces[i]
        ct_i = groups.left_cosets(G, Gi)
        buckets = {}
        for cid, rep in enumerate(ct_H.reps):
            buckets.setdefault(ct_i.coset_of[rep], []).append(cid)
        partitions[i] = sorted(tuple(sorted(v)) for v in buckets.values())
    return ChamberSystem(n, len(types), partitions, labels=ct_H.reps)


# ---------------------------------------------------------------------------
# rank-2 residues as generalized polygons


def _incidence_graph(C):
    """Bipartite panel graph of a rank-2 system: vertices are panels of the
    two types, one edge per chamber.  Returns (adjacency dict, multi_edge)."""
    assert C.rank == 2
    adj = {}
    seen_pairs = set()
    multi = False
    for c in range(C.n):
        u = (1, C.panel_id(1, c))
        v = (2, C.panel_id(2, c))
        if (u, v) in seen_pairs:
            multi = True
        seen_pairs.add((u, v))
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj, multi


def _girth_and_diameter(adj):
    """(girth, diameter) of a simple graph by one breadth-first search per
    vertex; None for no cycle, respectively for a disconnected graph."""
    girth = None
    diameter = 0
    for s in adj:
        dist = {s: 0}
        parent = {s: None}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif parent[u] != v:
                        cyc = dist[u] + dist[v] + 1
                        if girth is None or cyc < girth:
                            girth = cyc
            frontier = nxt
        if len(dist) < len(adj):
            diameter = None
        elif diameter is not None:
            diameter = max(diameter, max(dist.values()))
    return girth, diameter


def incidence_graph_stats(C):
    """(girth, diameter) of the panel incidence graph of a rank-2 system;
    girth 2 encodes a multi-edge, None encodes no cycle / disconnected."""
    if C.rank != 2:
        raise WrongRank(f"rank-2 system required, got rank {C.rank}")
    adj, multi = _incidence_graph(C)
    girth, diameter = _girth_and_diameter(adj)
    return (2 if multi else girth), diameter


def polygon_parameter(C):
    """The m for which a rank-2 system is a generalized m-gon, else None."""
    girth, diam = incidence_graph_stats(C)
    if diam is None or girth is None:
        return None
    if diam >= 2 and girth == 2 * diam:
        return diam
    return None


def is_generalized_mgon(C, m):
    if C.rank != 2:
        raise WrongRank(f"rank-2 system required, got rank {C.rank}")
    return polygon_parameter(C) == m


def sub_system(C, chambers, J):
    """Restrict to a chamber subset and type subset; types are relabeled
    1..|J| in increasing order of J.  The subset must be panel-closed for
    every type in J (residues are)."""
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
    return ChamberSystem(len(chambers), len(J), partitions, labels=labels), old2new


def infer_type_matrix(C):
    """The Coxeter matrix M with every {i,j}-residue a generalized
    m_ij-gon; errors if some residue is not a polygon or two residues of the
    same type pair disagree."""
    k = C.rank
    entries = [[1 if i == j else None for j in range(k)] for i in range(k)]
    for i, j in combinations(C.types, 2):
        m_seen = None
        for res in C.residues((i, j)):
            sub, _ = sub_system(C, res.chambers, (i, j))
            m = polygon_parameter(sub)
            if m is None:
                raise ResidueNotPolygon(
                    f"{{{i},{j}}}-residue at chamber {res.chambers[0]} is not a generalized m-gon")
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
    one per type."""
    full = frozenset(C.types)
    maps = [C.component_map(full - {i}) for i in C.types]
    return [tuple(maps[t][c] for t in range(C.rank)) for c in range(C.n)]


def is_simplicial(C, budget=2000):
    """Whether the system is a simplicial complex: chambers are determined
    by their vertex tuples, and any two chambers sharing vertex types S lie
    in a common (I minus S)-residue.  Returns (bool, witness)."""
    if C.n > budget:
        raise BudgetExceeded(f"{C.n} chambers exceeds pair-scan budget {budget}")
    verts = chamber_vertices(C)
    seen = {}
    for c, v in enumerate(verts):
        if v in seen:
            return False, ("duplicate-vertices", seen[v], c)
        seen[v] = c
    full = frozenset(C.types)
    for x, y in combinations(range(C.n), 2):
        S = frozenset(i for t, i in enumerate(C.types) if verts[x][t] == verts[y][t])
        if not S:
            continue
        J = full - S
        comp = C.component_map(J)
        if comp[x] != comp[y]:
            return False, ("no-common-face", x, y, tuple(sorted(S)))
    return True, None


# ---------------------------------------------------------------------------
# quotients by free automorphism groups


def quotient(C, gens):
    """Quotient by the group generated by type-preserving automorphisms,
    which must act freely with no invariant rank-2 residues.  Returns
    (system, projection)."""
    gens = [tuple(a) for a in gens]
    if any(len(a) != C.n for a in gens):
        raise ValueError(f"automorphism generators must have one entry per chamber ({C.n})")
    ident = groups.identity(C.n)
    try:
        autos = groups.group_from_generators(gens or [ident], cap=C.n).elements
    except CapExceeded:
        # orbit-stabilizer: a group with more elements than chambers cannot act freely
        raise ActionNotFree(f"the automorphisms generate more than {C.n} elements") from None
    if not all(verify_isomorphism(C, C, a) for a in gens):
        raise ValueError("automorphism is not a type-preserving chamber permutation")
    for a in autos:
        if a == ident:
            continue
        for c in range(C.n):
            if a[c] == c:
                raise ActionNotFree(f"automorphism fixes chamber {c}")
    for i, j in combinations(C.types, 2):
        comp = C.component_map((i, j))
        for a in autos:
            if a == ident:
                continue
            for c in range(C.n):
                if comp[a[c]] == comp[c]:
                    raise ResidueCollision(
                        f"automorphism maps the {{{i},{j}}}-residue of chamber {c} into itself")
    orbit = [None] * C.n
    reps = []
    for c in range(C.n):
        if orbit[c] is not None:
            continue
        oid = len(reps)
        reps.append(c)
        for a in autos:
            orbit[a[c]] = oid
    partitions = {}
    for i in C.types:
        panels = {tuple(sorted({orbit[c] for c in panel})) for panel in C.panels[i]}
        partitions[i] = sorted(panels)
    labels = None
    if C.labels is not None:
        labels = tuple(C.labels[r] for r in reps)
    return ChamberSystem(len(reps), C.rank, partitions, labels=labels), tuple(orbit)


# ---------------------------------------------------------------------------
# isomorphism of chamber systems (type-preserving)


def _chamber_invariant(C):
    return [tuple(len(C.panel_of(i, c)) for i in C.types) for c in range(C.n)]


def isomorphism(A, B):
    """A type-preserving isomorphism A -> B as a chamber map, or None.

    Backtracking search seeded at chamber 0 of A; panel bijections are the
    branch points.
    """
    if A.n != B.n or A.rank != B.rank:
        return None
    for i in A.types:
        if sorted(map(len, A.panels[i])) != sorted(map(len, B.panels[i])):
            return None
    inv_a = _chamber_invariant(A)
    inv_b = _chamber_invariant(B)

    def search(fwd, bwd, stack):
        while stack:
            a = stack.pop()
            b = fwd[a]
            for i in A.types:
                Pa = A.panel_of(i, a)
                Pb = B.panel_of(i, b)
                if len(Pa) != len(Pb):
                    return None
                for x in Pa:
                    if x in fwd and B.panel_id(i, fwd[x]) != B.panel_id(i, b):
                        return None
                for y in Pb:
                    if y in bwd and A.panel_id(i, bwd[y]) != A.panel_id(i, a):
                        return None
                un_a = [x for x in Pa if x not in fwd]
                av_b = [y for y in Pb if y not in bwd]
                if len(un_a) != len(av_b):
                    return None
                if not un_a:
                    continue
                if len(un_a) == 1:
                    x, y = un_a[0], av_b[0]
                    if inv_a[x] != inv_b[y]:
                        return None
                    fwd[x] = y
                    bwd[y] = x
                    stack.append(a)
                    stack.append(x)
                    break
                x = un_a[0]
                for y in av_b:
                    if inv_a[x] != inv_b[y]:
                        continue
                    fwd2 = dict(fwd)
                    bwd2 = dict(bwd)
                    fwd2[x] = y
                    bwd2[y] = x
                    res = search(fwd2, bwd2, stack + [a, x])
                    if res is not None:
                        return res
                return None
        if len(fwd) == A.n:
            return fwd
        # disconnected remainder: restart on the least unmatched pair
        rest_a = next(c for c in range(A.n) if c not in fwd)
        for rb in range(B.n):
            if rb in bwd or inv_a[rest_a] != inv_b[rb]:
                continue
            fwd2 = dict(fwd)
            bwd2 = dict(bwd)
            fwd2[rest_a] = rb
            bwd2[rb] = rest_a
            res = search(fwd2, bwd2, [rest_a])
            if res is not None:
                return res
        return None

    if A.n == 0:
        return {}
    for b0 in range(B.n):
        if inv_a[0] != inv_b[b0]:
            continue
        res = search({0: b0}, {b0: 0}, [0])
        if res is not None:
            return res
    return None


def is_isomorphic(A, B):
    return isomorphism(A, B) is not None


def verify_isomorphism(A, B, mapping):
    """Check that an explicit chamber map is a type-preserving isomorphism."""
    if A.n != B.n or A.rank != B.rank or len(mapping) != A.n:
        return False
    if sorted(mapping) != list(range(B.n)):
        return False
    for i in A.types:
        for panel in A.panels[i]:
            image = tuple(sorted(mapping[c] for c in panel))
            if image != B.panel_of(i, mapping[panel[0]]):
                return False
    return True


# ---------------------------------------------------------------------------
# serialization


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(_jsonable(v) for v in x)
    return x


def system_to_json(C):
    obj = {
        "rank": C.rank,
        "n": C.n,
        "panels": {str(i): [list(p) for p in C.panels[i]] for i in C.types},
    }
    if C.labels is not None:
        obj["labels"] = [_jsonable(x) for x in C.labels]
    return obj


def system_from_json(obj):
    partitions = {int(i): [tuple(p) for p in panels] for i, panels in obj["panels"].items()}
    labels = obj.get("labels")
    if labels is not None:
        labels = tuple(tuple(x) if isinstance(x, list) else x for x in labels)
    return ChamberSystem(obj["n"], obj["rank"], partitions, labels=labels)


_DOT_COLORS = ["red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta"]


def adjacency_dot(C, name="chambers"):
    """DOT multigraph of chamber adjacency, one color per type."""
    lines = [f"graph {name} {{"]
    for c in range(C.n):
        lines.append(f"  c{c};")
    for i in C.types:
        color = _DOT_COLORS[(i - 1) % len(_DOT_COLORS)]
        for panel in C.panels[i]:
            for a, b in combinations(panel, 2):
                lines.append(f'  c{a} -- c{b} [color={color}, label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def incidence_dot(C, name="incidence"):
    """DOT bipartite incidence graph of a rank-2 system."""
    if C.rank != 2:
        raise WrongRank("incidence DOT requires a rank-2 system")
    lines = [f"graph {name} {{"]
    for p in range(len(C.panels[1])):
        lines.append(f"  a{p} [shape=circle];")
    for p in range(len(C.panels[2])):
        lines.append(f"  b{p} [shape=box];")
    for c in range(C.n):
        lines.append(f"  a{C.panel_id(1, c)} -- b{C.panel_id(2, c)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
