"""Gallery homotopy, 2-coverings, universal covers and deck transformations.

A 2-covering is a type-preserving surjection of chamber systems that maps
every rank-2 residue isomorphically onto a rank-2 residue.  The universal
cover is built by incremental residue gluing with union-find.  The gluer's
state is flat lists over dense node ids; each root holds one bitmask of
the type pairs whose residue is closed at it.  A cover panel is one dict
from the base panel's chambers to nodes, opened once and shared by all its
members; merging two nodes pairs up their panels by base chamber.  Closing
a rank-2 residue walks the base residue from one node, placing one node
per base chamber and reading each base panel's cover panel once: a panel
opened on the walk takes the nodes already placed, and two nodes placed
over one base chamber are merged, exactly as the covering axioms force.
A walk that merged nothing closes the residue for every chamber it placed.
"""

import weakref
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

from . import groups
from .chamber import (ChamberSystem, HomogeneousSpec, TypedGallery, _chambers_by_key, _isomorphism,
                      from_cosets, validate_gallery)
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
    nodes: int = 0              # union-find nodes the gluer made
    unions: int = 0             # unions the gluer made


def is_covering(p):
    """Verify the three 2-covering conditions exhaustively.

    Returns (ok, diagnostic); the diagnostic names the first violation.
    """
    cover, base, mp = p.cover, p.base, p.chamber_map
    if cover.rank != base.rank:
        return False, "rank mismatch"
    if any(type(b) is bool or not 0 <= b < base.n for b in mp):
        return False, "map not into base chamber set"
    for i in cover.types:
        pid = base._panel_idx[i]
        for panel in cover.panels[i]:
            ids = {pid[mp[c]] for c in panel}
            if len(ids) > 1:
                return False, f"type-{i} panel {panel} does not map into one panel"
    hit = set(mp)
    if len(hit) != base.n:
        missing = next(b for b in range(base.n) if b not in hit)
        return False, f"not surjective: base chamber {missing} has empty fiber"
    # each panel maps into one base panel, so a type can break adjacency
    # only if some panel of it differs in size from its image's panel
    resized = {i for i in cover.types
               if any(len(panel) != len(base.panel_of(i, mp[panel[0]]))
                      for panel in cover.panels[i])}
    for P in combinations(cover.types, 2):
        base_comp = base.component_map(P)
        base_size = Counter(base_comp)      # chambers per base P-residue
        for res in cover.residues(P):
            images = [mp[c] for c in res.chambers]
            size = base_size[base_comp[images[0]]]
            if len(res.chambers) != size or len(set(images)) != len(images):
                return False, (f"{{{P[0]},{P[1]}}}-residue at cover chamber "
                               f"{res.chambers[0]} is not bijective onto its image")
            # bijective on the residue, so t-panels map onto t-panels iff sizes agree
            for t in P:
                if t in resized and any(len(cover.panel_of(t, x)) != len(base.panel_of(t, mp[x]))
                                        for x in res.chambers):
                    return False, (f"{{{P[0]},{P[1]}}}-residue at cover chamber "
                                   f"{res.chambers[0]} breaks type-{t} adjacency")
    return True, None


def lift_gallery(p, gal, start):
    """The unique gallery over `gal` starting at the cover chamber `start`."""
    cover, base, mp = p.cover, p.base, p.chamber_map
    validate_gallery(base, gal)
    start = cover._chamber(start, "start chamber")
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
    """Union-find over cover nodes, each lying over one base chamber.  Node
    state is in flat lists over dense node ids: `proj` (base chamber),
    `parent`, `rank_`, `panels` (on roots, {type: shared panel dict}; None
    once merged away) and `done` (on roots, one bitmask of closed pairs, bit
    k for pairs[k]).  A task is the int node << len(pairs) | mask: close
    the pairs in mask at that node's class, in order.  Between calls, the
    roots that share a type-t panel dict are exactly its nodes' roots."""

    def __init__(self, base, c0, max_chambers):
        self.base = base
        self.max = max_chambers
        self.pairs = list(combinations(base.types, 2))
        self.sides = [tuple((t, base._panel_idx[t]) for t in P) for P in self.pairs]
        self.all_pairs = (1 << len(self.pairs)) - 1
        self.proj = []
        self.parent = []
        self.rank_ = []
        self.panels = []
        self.done = []
        self.live = 0
        self.peak = 0               # most live nodes at once; over max truncates
        self.unions = 0
        self.tasks = deque()
        self.root0 = self._new_node(c0)

    @property
    def truncated(self):
        return self.peak > self.max

    def _new_node(self, b):
        nid = len(self.proj)
        self.proj.append(b)
        self.parent.append(nid)
        self.rank_.append(0)
        self.panels.append({})
        self.done.append(0)
        self.live += 1
        if self.live > self.peak:
            self.peak = self.live
        self.tasks.append(nid << len(self.pairs) | self.all_pairs)
        return nid

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        find, proj, panels, done, rank_ = self.find, self.proj, self.panels, self.done, self.rank_
        pend = [(a, b)]
        while pend:
            x, y = pend.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            if proj[rx] != proj[ry]:
                raise NotCovering("gluing merged chambers over different base chambers")
            if rank_[rx] < rank_[ry]:
                rx, ry = ry, rx
            elif rank_[rx] == rank_[ry]:
                rank_[rx] += 1
            self.parent[ry] = rx
            self.live -= 1
            self.unions += 1
            # both panels of a type copy one base panel: pair them up by base
            # chamber, and re-point the members of ry's panel to rx's
            pan_x = panels[rx]
            for t, mp_y in panels[ry].items():
                mp_x = pan_x.setdefault(t, mp_y)
                if mp_x is mp_y:
                    continue
                for bch, nd in mp_y.items():
                    panels[find(nd)][t] = mp_x
                    if find(mp_x[bch]) != find(nd):
                        pend.append((mp_x[bch], nd))
            panels[ry] = None
            merged = done[rx] = done[rx] & done[ry]
            if merged != self.all_pairs:
                self.tasks.append(rx << len(self.pairs) | self.all_pairs & ~merged)

    def _open_panel(self, rx, t, slot):
        """Open the type-t panel of root rx.  It takes the walk's `slot`
        node over each base chamber where that node has no t-panel yet, and
        a new node elsewhere."""
        find, panels = self.find, self.panels
        mp = {}
        for bch in self.base.panel_of(t, self.proj[rx]):
            nd = slot.get(bch)
            if nd is None or t in panels[find(nd)]:
                nd = self._new_node(bch)
            mp[bch] = nd
        for nd in mp.values():
            panels[find(nd)][t] = mp
        return mp

    def close_residue(self, rx, k):
        """Walk the pairs[k]-residue from root rx, placing one node per base
        chamber.  Each base panel's cover panel is read once: a second read
        would meet only nodes placed already, or merged with them."""
        find, parent, panels = self.find, self.parent, self.panels
        unions = self.unions
        b0 = self.proj[rx]
        slot = {b0: rx}
        queue = [b0]
        sides = [(t, pid, set()) for t, pid in self.sides[k]]
        for y in queue:
            for t, pid, read in sides:
                p = pid[y]
                if p in read:
                    continue
                read.add(p)
                x = slot[y]
                if parent[x] != x:
                    x = find(x)
                mp = panels[x].get(t)
                if mp is None:
                    mp = self._open_panel(x, t, slot)
                for z, nz in mp.items():
                    sz = slot.get(z)
                    if sz is None:
                        slot[z] = nz
                        queue.append(z)
                    elif sz != nz and find(sz) != find(nz):
                        self.union(sz, nz)
        # a walk without unions found the residue closed, from any of its chambers
        done, bit = self.done, 1 << k
        for nd in (slot.values() if self.unions == unions else (rx,)):
            if parent[nd] != nd:
                nd = find(nd)
            done[nd] |= bit

    def run(self):
        tasks, parent, done, find = self.tasks, self.parent, self.done, self.find
        k = len(self.pairs)
        while tasks:
            task = tasks.popleft()
            x = task >> k
            for j in range(k):
                if task >> j & 1:
                    rx = x if parent[x] == x else find(x)
                    if not done[rx] >> j & 1:
                        self.close_residue(rx, j)
                        if self.truncated:
                            return


def universal_cover(C, c0=0, max_chambers=10 ** 6, with_deck=True):
    """Universal 2-cover of a connected system, chambers being homotopy
    classes of galleries from c0.  Truncation at max_chambers is reported,
    never silent.

    The gluer keeps its nodes in flat lists over dense ids with a bitmask
    of closed pairs per root, and a residue walk reads each shared panel
    dict once.  max_chambers bounds the gluer's live union-find nodes, not
    the cover's chambers.  The nodes opened for panels are live until
    residue walks merge them, so the peak can exceed the answer: the
    315-chamber cover of neumaier-a7 truncates at 2,834 and finishes at
    2,835.  The result counts the gluer's nodes and unions either way."""
    c0 = C._chamber(c0, "base chamber")
    if max_chambers < 1:
        raise ValueError(f"chamber budget {max_chambers} is not positive")
    if C.rank < 2:
        raise ValueError("universal cover requires rank >= 2")
    if not C.is_connected():
        raise Disconnected("universal cover requires a connected base")
    g = _Gluer(C, c0, max_chambers)
    g.run()
    nodes = len(g.proj)
    work = (nodes, nodes - g.live)      # each union retires one live node
    if g.truncated:
        return CoverResult(None, c0, True, (), False, -1, *work)
    # cover chamber k is roots[k], the roots in order of least member node
    roots = list(dict.fromkeys(map(g.find, range(nodes))))
    try:
        partitions = {t: _chambers_by_key(id(g.panels[r][t]) for r in roots) for t in C.types}
    except KeyError as exc:
        raise NotCovering(f"type-{exc.args[0]} panel missing after closure") from None
    cover = ChamberSystem(len(roots), C.rank, partitions)
    chamber_map = tuple(g.proj[r] for r in roots)
    p = CoveringMap(cover, C, chamber_map)
    ok, diag = is_covering(p)
    if not ok:
        raise NotCovering(f"universal cover failed its own covering check: {diag}")
    deck, regular = deck_transformations(p) if with_deck else ((), False)
    return CoverResult(p, c0, False, tuple(deck), regular, roots.index(g.find(g.root0)), *work)


def deck_transformations(p):
    """All cover automorphisms commuting with the covering map: the
    isomorphism search of the cover onto itself with each chamber coloured
    by its base chamber, from one anchor to each point of its fiber.  A
    2-covering maps each panel injectively into a base panel, so the
    colours force every match and no search branches.  Requires a
    connected cover.  Returns (list, regular)."""
    cover, mp = p.cover, p.chamber_map
    if not cover.is_connected():
        raise ValueError("deck search requires a connected cover")
    anchor = 0
    fiber = [x for x in range(cover.n) if mp[x] == mp[anchor]]
    autos = [phi for f in fiber
             if (phi := _isomorphism(cover, cover, mp, mp, (anchor, f))) is not None]
    return autos, len(autos) == len(fiber)


# ---------------------------------------------------------------------------
# gallery homotopy


# per system, its complete universal cover at chamber 0 as (cover, chamber
# map): nothing in an entry refers to its system, so the entry dies with it
_COVERS = weakref.WeakKeyDictionary()


def homotopic(C, g1, g2, budget=10 ** 5):
    """Whether two galleries with the same extremities are homotopic.

    Decided by lifting both galleries from one cover chamber over their
    common start: the universal cover is simply 2-connected, so the
    galleries are homotopic iff their lifts share an endpoint.  The cover is
    built once per system.  `budget` bounds the gluer's live union-find
    nodes, as universal_cover's max_chambers does; past it, BudgetExceeded
    says how far the gluer got (undecided, distinct from False).
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
            raise BudgetExceeded(
                f"universal cover needs more than {budget} live gluer nodes (stopped after "
                f"{res.nodes} nodes and {res.unions} unions); homotopy undecided")
        hit = _COVERS[C] = (res.covering.cover, res.covering.chamber_map)
    cover, chamber_map = hit
    p = CoveringMap(cover, C, chamber_map)
    start = chamber_map.index(g1.start)
    return lift_gallery(p, g1, start).end == lift_gallery(p, g2, start).end


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
    # a coset's least element has the least element of its G-coset as G-part
    base_id = {rep: c for c, rep in enumerate(base.labels)}
    chamber_map = tuple(base_id[rep[:G.degree]] for rep in cover.labels)
    # a coset system is connected iff its faces generate the group
    return cover, CoveringMap(cover, base, chamber_map), cover.is_connected()
