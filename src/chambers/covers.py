"""Gallery homotopy, 2-coverings, universal covers and deck transformations.

A 2-covering is a type-preserving surjection of chamber systems that maps
every rank-2 residue isomorphically onto a rank-2 residue.  The universal
cover is built by incremental residue gluing with union-find: panels of the
cover are full copies of base panels, and each rank-2 residue incident to a
frontier chamber is lifted whole and closed up, merging gallery classes
exactly when the covering axioms force it.
"""

import weakref
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from . import groups
from .chamber import ChamberSystem, HomogeneousSpec, TypedGallery, from_cosets, validate_gallery
from .errors import (
    BudgetExceeded,
    Disconnected,
    IncompatibleOnH,
    NotCovering,
    NotHomomorphism,
)


@dataclass(frozen=True)
class CoveringMap:
    cover: ChamberSystem
    base: ChamberSystem
    chamber_map: tuple

    def __post_init__(self):
        if len(self.chamber_map) != self.cover.n:
            raise ValueError(f"chamber map has {len(self.chamber_map)} entries for a cover "
                             f"of {self.cover.n} chambers")


@dataclass(frozen=True)
class CoverResult:
    covering: object            # CoveringMap, or None when truncated
    base_chamber: int
    truncated: bool
    deck: tuple                 # cover automorphisms commuting with the map
    regular: bool
    root: int                   # cover chamber of the trivial gallery class


def is_covering(p):
    """Verify the three 2-covering conditions exhaustively.

    Returns (ok, diagnostic); the diagnostic names the first violation.
    """
    cover, base, mp = p.cover, p.base, p.chamber_map
    if cover.rank != base.rank:
        return False, "rank mismatch"
    if any(not 0 <= b < base.n for b in mp):
        return False, "map not into base chamber set"
    for i in cover.types:
        for panel in cover.panels[i]:
            ids = {base.panel_id(i, mp[c]) for c in panel}
            if len(ids) > 1:
                return False, f"type-{i} panel {panel} does not map into one panel"
    if len(set(mp)) != base.n:
        missing = next(b for b in range(base.n) if b not in set(mp))
        return False, f"not surjective: base chamber {missing} has empty fiber"
    for P in combinations(cover.types, 2):
        base_comp = base.component_map(P)
        base_members = {}
        for b in range(base.n):
            base_members.setdefault(base_comp[b], []).append(b)
        for res in cover.residues(P):
            images = [mp[c] for c in res.chambers]
            rid = base_comp[images[0]]
            target = base_members[rid]
            if len(res.chambers) != len(target) or len(set(images)) != len(images):
                return False, (f"{{{P[0]},{P[1]}}}-residue at cover chamber "
                               f"{res.chambers[0]} is not bijective onto its image")
            # bijective on the residue, so t-panels map onto t-panels iff sizes agree
            for t in P:
                if any(len(cover.panel_of(t, x)) != len(base.panel_of(t, mp[x]))
                       for x in res.chambers):
                    return False, (f"{{{P[0]},{P[1]}}}-residue at cover chamber "
                                   f"{res.chambers[0]} breaks type-{t} adjacency")
    return True, None


def lift_gallery(p, gal, start):
    """The unique gallery over `gal` starting at the cover chamber `start`."""
    cover, base, mp = p.cover, p.base, p.chamber_map
    validate_gallery(base, gal)
    if mp[start] != gal.start:
        raise ValueError("start chamber does not lie over the gallery's start")
    chambers = [start]
    for (b_from, b_to), i in zip(zip(gal.chambers, gal.chambers[1:]), gal.types):
        cur = chambers[-1]
        if b_to == b_from:
            chambers.append(cur)
            continue
        panel = cover.panel_of(i, cur)
        matches = [d for d in panel if mp[d] == b_to]
        if len(matches) != 1:
            raise NotCovering(
                f"panel lifting failed over base step {b_from}->{b_to} (type {i}): "
                f"{len(matches)} candidates")
        chambers.append(matches[0])
    return TypedGallery(tuple(chambers), gal.types)


# ---------------------------------------------------------------------------
# universal cover by residue gluing


class _Gluer:
    def __init__(self, base, c0, max_chambers):
        self.base = base
        self.max = max_chambers
        self.pairs = list(combinations(base.types, 2))
        self.proj = []
        self.parent = []
        self.rank_ = []
        self.panels = []            # root -> {type: {base chamber: node}}
        self.done = []              # root -> set of closed pairs
        self.live = 0
        self.truncated = False
        self.tasks = deque()
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
            assert self.proj[rx] == self.proj[ry], "glued chambers over different base chambers"
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
        i, j = P
        comp = self.base.component_map(P)
        b0 = self.proj[rx]
        slot = {b0: rx}
        queue = [b0]
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            ny = slot[y]
            for t in (i, j):
                mp = self.get_panel(ny, t)
                for z, nz in list(mp.items()):
                    if z == y:
                        continue
                    assert comp[z] == comp[b0]
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


def universal_cover(C, c0=0, max_chambers=10 ** 6, with_deck=True):
    """Universal 2-cover of a connected system, chambers being homotopy
    classes of galleries from c0.  Truncation at max_chambers is reported,
    never silent."""
    if not 0 <= c0 < C.n:
        raise ValueError(f"base chamber {c0} outside 0..{C.n - 1}")
    if not C.is_connected():
        raise Disconnected("universal cover requires a connected base")
    if C.rank < 2:
        raise ValueError("universal cover requires rank >= 2")
    g = _Gluer(C, c0, max_chambers)
    g.run()
    if g.truncated:
        return CoverResult(None, c0, True, (), False, -1)
    roots = list(dict.fromkeys(g.find(nd) for nd in range(len(g.proj))))  # by least member
    dense = {r: i for i, r in enumerate(roots)}
    n = len(roots)
    partitions = {}
    for t in C.types:
        panels = set()
        for r in roots:
            mp = g.panels[r].get(t)
            assert mp is not None, "panel missing after closure"
            panels.add(tuple(sorted({dense[g.find(nd)] for nd in mp.values()})))
        partitions[t] = sorted(panels)
    cover = ChamberSystem(n, C.rank, partitions)
    chamber_map = tuple(g.proj[r] for r in roots)
    p = CoveringMap(cover, C, chamber_map)
    ok, diag = is_covering(p)
    if not ok:
        raise NotCovering(f"universal cover failed its own covering check: {diag}")
    deck, regular = deck_transformations(p) if with_deck else ((), False)
    return CoverResult(p, c0, False, tuple(deck), regular, dense[g.find(g.root0)])


def deck_transformations(p):
    """All cover automorphisms commuting with the covering map, found by
    extension from each fiber point over one base chamber.  Requires a
    connected cover.  Returns (list, regular)."""
    cover, mp = p.cover, p.chamber_map
    if not cover.is_connected():
        raise ValueError("deck search requires a connected cover")
    anchor = 0
    b0 = mp[anchor]
    fiber = [x for x in range(cover.n) if mp[x] == b0]
    autos = []
    for f in fiber:
        phi = _extend_commuting(cover, mp, cover, mp, anchor, f)
        if phi is not None and len(set(phi)) == cover.n:
            autos.append(phi)
    regular = len(autos) == len(fiber)
    return autos, regular


def _extend_commuting(A, mpA, B, mpB, a0, b0):
    """Extend a0 -> b0 to a map f: A -> B with mpB(f(x)) = mpA(x), using
    that panels of B embed into base panels.  Requires A connected; the
    result need not be injective."""
    f = {a0: b0}
    queue = [a0]
    while queue:
        x = queue.pop()
        y = f[x]
        for i in A.types:
            Px = A.panel_of(i, x)
            Py = B.panel_of(i, y)
            by_base = {}
            for w in Py:
                if mpB[w] in by_base:
                    return None
                by_base[mpB[w]] = w
            for z in Px:
                w = by_base.get(mpA[z])
                if w is None:
                    return None
                if z in f:
                    if f[z] != w:
                        return None
                else:
                    f[z] = w
                    queue.append(z)
    if len(f) != A.n:
        return None
    return tuple(f[c] for c in range(A.n))


def covering_between(p, q):
    """A covering map from p's total space onto q's, commuting with the two
    projections to their common base; None if no extension works.  Seeds
    are searched over q's fiber, per the universal property."""
    A, B = p.cover, q.cover
    if p.base.n != q.base.n or p.base.panels != q.base.panels:
        raise ValueError("coverings must share their base")
    if not A.is_connected():
        raise ValueError("the covering total space must be connected")
    mpA, mpB = p.chamber_map, q.chamber_map
    for b0 in range(B.n):
        if mpB[b0] != mpA[0]:
            continue
        f = _extend_commuting(A, mpA, B, mpB, 0, b0)
        if f is None:
            continue
        cm = CoveringMap(A, B, f)
        ok, _ = is_covering(cm)
        if ok:
            return cm
    return None


# ---------------------------------------------------------------------------
# gallery homotopy


def elementary_homotopic(C, g1, g2):
    """Whether g2 differs from g1 by one elementary homotopy: a common
    prefix and suffix with both middle segments running inside a single
    rank-2 residue (types within one 2-subset) between the same extremities."""
    validate_gallery(C, g1)
    validate_gallery(C, g2)
    if g1.start != g2.start or g1.end != g2.end:
        return False
    if g1 == g2:
        return True
    n1, n2 = len(g1), len(g2)
    pre = 0
    while (pre < n1 and pre < n2
           and g1.chambers[pre + 1] == g2.chambers[pre + 1]
           and g1.types[pre] == g2.types[pre]):
        pre += 1
    suf = 0
    while (suf < n1 - pre and suf < n2 - pre
           and g1.chambers[n1 - 1 - suf] == g2.chambers[n2 - 1 - suf]
           and g1.types[n1 - 1 - suf] == g2.types[n2 - 1 - suf]):
        suf += 1
    mid1 = g1.types[pre:n1 - suf]
    mid2 = g2.types[pre:n2 - suf]
    used = set(mid1) | set(mid2)
    if len(used) > 2:
        return False
    return C.rank >= 2


# per system, its complete universal cover at chamber 0 as (cover, chamber
# map): nothing in an entry refers to its system, so the entry dies with it
_COVERS = weakref.WeakKeyDictionary()


def homotopic(C, g1, g2, budget=10 ** 5):
    """Whether two galleries with the same extremities are homotopic.

    Decided by lifting both galleries from one cover chamber over their
    common start: the universal cover is simply 2-connected, so the
    galleries are homotopic iff their lifts share an endpoint.  The cover is
    built once per system.  Raises BudgetExceeded if it cannot be built
    within `budget` chambers (undecided, distinct from False).
    """
    validate_gallery(C, g1)
    validate_gallery(C, g2)
    g1 = g1.normalized()
    g2 = g2.normalized()
    if g1.start != g2.start or g1.end != g2.end:
        raise ValueError("homotopy is defined for galleries with equal extremities")
    hit = _COVERS.get(C)
    if hit is None:
        res = universal_cover(C, max_chambers=budget, with_deck=False)
        if res.truncated:
            raise BudgetExceeded(f"universal cover exceeded {budget} chambers; homotopy undecided")
        hit = _COVERS[C] = (res.covering.cover, res.covering.chamber_map)
    cover, chamber_map = hit
    p = CoveringMap(cover, C, chamber_map)
    start = chamber_map.index(g1.start)
    return lift_gallery(p, g1, start).end == lift_gallery(p, g2, start).end


def _segment_galleries(C, u, v, P, max_len):
    """All galleries u -> v with types within the pair P, length <= max_len."""
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
                    stack.append((chambers + (d,), types + (i,)))
    return out


def homotopic_bfs(C, g1, g2, budget=10 ** 5):
    """Bounded breadth-first search over the elementary-homotopy graph of
    galleries, at most 4 steps longer than the longer input.  Exact on small
    systems; meant for cross-validation of homotopic().
    True / False-by-exhaustion / BudgetExceeded."""
    validate_gallery(C, g1)
    validate_gallery(C, g2)
    g1 = g1.normalized()
    g2 = g2.normalized()
    if g1.start != g2.start or g1.end != g2.end:
        raise ValueError("homotopy is defined for galleries with equal extremities")
    if g1 == g2:
        return True
    max_len = max(len(g1), len(g2)) + 4
    seen = {g1}
    frontier = [g1]
    pairs = list(combinations(C.types, 2))
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
                        for seg in _segment_galleries(C, u, v, P, room):
                            g2new = TypedGallery(
                                g.chambers[:s] + seg.chambers + g.chambers[e + 1:],
                                g.types[:s] + seg.types + g.types[e:]).normalized()
                            if g2new == g2:
                                return True
                            if g2new not in seen:
                                if len(seen) >= budget:
                                    raise BudgetExceeded("gallery BFS budget exhausted")
                                seen.add(g2new)
                                nxt.append(g2new)
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# the subgroup-lift covering construction


def cover_from_lift(spec, pi, phi):
    """Covering of the coset system of `spec` built from a direct product
    with `pi` and per-type homomorphisms phi[i]: face_i -> pi agreeing on
    the principal subgroup.  Returns (cover system, covering map, connected).
    """
    G = spec.group
    H = spec.principal
    for i in spec.types:
        Fi = spec.faces[i]
        f = phi[i]
        if set(f.keys()) != set(Fi.elements):
            raise NotHomomorphism(f"phi[{i}] not defined on exactly the face group")
        for g in Fi.elements:
            if f[g] not in pi:
                raise NotHomomorphism(f"phi[{i}] image outside pi")
        for a in Fi.elements:
            for b in Fi.elements:
                if f[groups.mul(a, b)] != groups.mul(f[a], f[b]):
                    raise NotHomomorphism(f"phi[{i}] is not a homomorphism")
    t0 = spec.types[0]
    for i in spec.types[1:]:
        for h in H.elements:
            if phi[i][h] != phi[t0][h]:
                raise IncompatibleOnH(f"phi[{i}] and phi[{t0}] disagree on the principal subgroup")
    Ghat = groups.direct_product(G, pi)
    hatH = groups.Subgroup(Ghat, [groups.pair_perm(h, phi[t0][h]) for h in H.elements],
                           check=False)
    hat_faces = {}
    for i in spec.types:
        Fi = spec.faces[i]
        hat_faces[i] = groups.Subgroup(Ghat, [groups.pair_perm(g, phi[i][g]) for g in Fi.elements],
                                       check=False)
    hat_spec = HomogeneousSpec(Ghat, hatH, hat_faces)
    cover = from_cosets(hat_spec)
    base = from_cosets(spec)
    base_ct = groups.left_cosets(G, H)
    d1 = G.degree
    chamber_map = []
    for rep in cover.labels:
        g_part = tuple(rep[x] for x in range(d1))
        chamber_map.append(base_ct.coset_of[g_part])
    covering = CoveringMap(cover, base, tuple(chamber_map))
    connected = groups.generates(Ghat, list(hat_faces.values()))
    return cover, covering, connected
