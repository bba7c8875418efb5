"""Gallery homotopy, 2-coverings, universal covers and deck transformations.

A 2-covering is a type-preserving surjection of chamber systems that maps
every rank-2 residue isomorphically onto a rank-2 residue.  The universal
cover is built by incremental residue gluing with union-find.  A cover
panel is one dict from the base panel's chambers to nodes, opened once and
shared by all its members; merging two nodes pairs up their panels by base
chamber.  Closing a rank-2 residue walks the base residue from one node,
placing one node per base chamber: a panel opened on the walk takes the
nodes already placed, and two nodes placed over one base chamber are
merged, exactly as the covering axioms force.  A walk that merged nothing
closes the residue for every chamber it placed.
"""

import weakref
from collections import Counter, deque
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
                if any(len(cover.panel_of(t, x)) != len(base.panel_of(t, mp[x]))
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
    def __init__(self, base, c0, max_chambers):
        self.base = base
        self.max = max_chambers
        self.pairs = list(combinations(base.types, 2))
        self.proj = []
        self.parent = []
        self.rank_ = []
        self.panels = []            # root -> {type: {base chamber: node}}, shared by the panel
        self.done = []              # root -> set of closed pairs
        self.live = 0
        self.unions = 0
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
            if self.proj[rx] != self.proj[ry]:
                raise NotCovering("gluing merged chambers over different base chambers")
            if self.rank_[rx] < self.rank_[ry]:
                rx, ry = ry, rx
            elif self.rank_[rx] == self.rank_[ry]:
                self.rank_[rx] += 1
            self.parent[ry] = rx
            self.live -= 1
            self.unions += 1
            # both panels of a type copy one base panel: pair them up by base
            # chamber, and re-point the members of ry's panel to rx's
            for t, mp_y in self.panels[ry].items():
                mp_x = self.panels[rx].setdefault(t, mp_y)
                if mp_x is mp_y:
                    continue
                for bch, nd in mp_y.items():
                    self.panels[self.find(nd)][t] = mp_x
                    if self.find(mp_x[bch]) != self.find(nd):
                        pend.append((mp_x[bch], nd))
            self.panels[ry] = None
            merged = self.done[rx] & self.done[ry]
            self.done[rx] = merged
            self.done[ry] = None
            for P in self.pairs:
                if P not in merged:
                    self.tasks.append((rx, P))

    def get_panel(self, x, t, slot):
        """The type-t panel of x.  Opened on first use, it takes the walk's
        `slot` chamber over each base chamber where that chamber has no
        t-panel yet, and a new node elsewhere."""
        rx = self.find(x)
        mp = self.panels[rx].get(t)
        if mp is None:
            mp = {}
            for bch in self.base.panel_of(t, self.proj[rx]):
                nd = slot.get(bch)
                if nd is None or t in self.panels[self.find(nd)]:
                    nd = self._new_node(bch)
                mp[bch] = nd
            for nd in mp.values():
                self.panels[self.find(nd)][t] = mp
        return mp

    def close_residue(self, x, P):
        rx = self.find(x)
        if P in self.done[rx]:
            return
        unions = self.unions
        slot = {self.proj[rx]: rx}
        queue = [self.proj[rx]]
        for y in queue:
            for t in P:
                for z, nz in self.get_panel(slot[y], t, slot).items():
                    if z not in slot:
                        slot[z] = nz
                        queue.append(z)
                    elif self.find(slot[z]) != self.find(nz):
                        self.union(slot[z], nz)
        # a walk without unions found the residue closed, from any of its chambers
        for nd in (slot.values() if self.unions == unions else (rx,)):
            self.done[self.find(nd)].add(P)

    def run(self):
        while self.tasks:
            if self.truncated:
                return
            x, P = self.tasks.popleft()
            self.close_residue(x, P)


def universal_cover(C, c0=0, max_chambers=10 ** 6, with_deck=True):
    """Universal 2-cover of a connected system, chambers being homotopy
    classes of galleries from c0.  Truncation at max_chambers is reported,
    never silent.

    max_chambers bounds the gluer's live union-find nodes, not the cover's
    chambers.  The nodes opened for panels are live until residue walks
    merge them, so the peak can exceed the answer: the 315-chamber cover of
    neumaier-a7 truncates at 2,834 and finishes at 2,835."""
    c0 = C._chamber(c0, "base chamber")
    if max_chambers < 1:
        raise ValueError(f"chamber budget {max_chambers} is not positive")
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
            if mp is None:
                raise NotCovering(f"type-{t} panel missing after closure")
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
