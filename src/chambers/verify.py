"""Building verification via the W-valued distance, and rank-3 geometry
checks: point/line axiom (LL), the isotropy-containment criterion, shadows."""

from dataclasses import dataclass, field
from itertools import combinations
from operator import getitem

from . import coxeter, groups
from .chamber import (
    _chamber_invariant,
    chamber_vertices,
    from_cosets,
    infer_type_matrix,
    is_simplicial,
    isomorphism,
    verify_isomorphism,
)
from .errors import (
    BudgetExceeded,
    Disconnected,
    InconsistentResidues,
    MissingVertexGroups,
    NoSuchW,
    ResidueNotPolygon,
    WrongRank,
)

# coxeter's table memo, under the name perfbench/workloads.py::clear_caches
# uses to reset it between benchmark runs.  It holds the per-matrix tables
# and the per-diagram-type entries they are read off, so clearing it drops both.
_TABLE_CACHE = coxeter._TABLE_CACHE
_MAX_VIOLATIONS = 25


def _w_distances_from(C, table, x):
    """Per chamber y, the table id of delta(x, y), or None for no element or
    no gallery; and the minimal-gallery type sets from x if needed, else None.

    In breadth-first order, the neighbours u of y one step closer to x, in
    i-panels, must all give one w = delta(x, u) r_i whose right descents are
    those i.  Reduced-word sets split by last letter over right descents, so
    this holds everywhere iff every type set is an element's reduced-word
    set.  Where it fails, each type set is identified by its least word."""
    adj = C.adjacency()
    right, descents = table.right, table.descents
    dist = [None] * C.n
    delta = [None] * C.n
    dist[x], delta[x] = 0, 0
    order = [x]
    for y in order:
        closer = []
        for i, u in adj[y]:
            if dist[u] is None:
                dist[u] = dist[y] + 1
                order.append(u)
            elif dist[u] == dist[y] - 1:
                closer.append((i, right[delta[u]][i - 1]))
        if y == x:
            continue
        w = closer[0][1]
        if any(v != w for _, v in closer) or {i for i, _ in closer} != descents[w]:
            break
        delta[y] = w
    else:
        return delta, None
    tsets = C.minimal_type_sets_from(x)
    rwsets = table.reduced_word_sets()
    for y, t in enumerate(tsets):
        e = None if t is None else table.canonical_id(min(t))
        delta[y] = e if e is not None and rwsets[e] == t else None
    return delta, tsets


def _check_rank(C, M):
    if M is not None and M.rank != C.rank:
        raise WrongRank(f"type matrix of rank {M.rank} for a system of rank {C.rank}")


def w_distance(C, M, x, y):
    """The W-element whose reduced words are exactly the minimal-gallery
    types from x to y; raises NoSuchW (with both sets) otherwise."""
    _check_rank(C, M)
    x, y = C._chamber(x), C._chamber(y)
    table = coxeter.group_table(M)
    delta, tsets = _w_distances_from(C, table, x)
    if delta[y] is not None:
        return table.element(delta[y])
    if tsets is None or tsets[y] is None:
        raise Disconnected(f"no gallery from {x} to {y}")
    cand = table.canonical_id(min(tsets[y]))
    raise NoSuchW(f"minimal gallery types from {x} to {y} match no group element",
                  gallery_types=tsets[y], candidate=table.element(cand),
                  candidate_words=table.reduced_word_sets()[cand])


def is_building(C, M=None, budget=2000):
    """Check the building property.  Returns (bool, report).

    Four conditions: (a) every panel has at least two chambers, (b) every
    rank-2 residue is a generalized m_ij-gon, (c) for every ordered pair the
    minimal-gallery type set is the reduced-word set of a group element
    (the W-valued distance), and (d) the gate property: within any panel,
    exactly one chamber is nearest to any outside chamber x and the others
    sit at its one-letter extension.  Given (c), the others sit there as
    soon as the nearest chamber is unique, so (d) is checked as uniqueness.

    (d) is not implied by (c) alone: the quotient of the thin C3 complex by
    its central longest element has 24 chambers, every pair matching a
    reduced-word set (the two lifts of a pair have lengths L and 9 - L, so
    the shorter route is unique), yet it is not a building.  The gate
    property fails there and is part of the classical W-metric axioms.

    (c) and (d) are scanned per source x in id order, and a type-preserving
    automorphism carries a passing source to a passing one.  So after x
    passes, the sources in its orbit under the automorphisms found from x
    to later chambers with its invariant are skipped.  The verdict,
    violations and truncation are the full scan's; pairs_checked counts C.n
    per scanned source.  `budget` is the chamber count past which the check
    refuses with BudgetExceeded.
    """
    _check_rank(C, M)
    report = {"building": False, "violations": [], "pairs_checked": 0, "truncated": False}

    def add(v):
        if len(report["violations"]) < _MAX_VIOLATIONS:
            report["violations"].append(v)
        else:
            report["truncated"] = True

    if C.n > budget:
        raise BudgetExceeded(f"{C.n} chambers exceeds pair-scan budget {budget}")
    if not C.is_connected():
        add({"kind": "disconnected"})
        return False, report
    if M is None:
        M = infer_type_matrix(C)
    report["type_matrix"] = [list(r) for r in M.rows]
    ok = True
    for i in C.types:
        for panel in C.panels[i]:
            if len(panel) < 2:
                add({"kind": "thin-panel", "type": i, "panel": list(panel)})
                ok = False
    for i, j in combinations(C.types, 2):
        want = M.order(i, j)
        for least, m in C._residue_gonalities(i, j):
            if m != want:
                add({"kind": "bad-residue", "types": [i, j], "chamber": least,
                     "expected": want, "got": m})
                ok = False
    table = coxeter.group_table(M)
    lengths = [len(w) for w in table.elements]
    # automorphisms found so far; each search matches at most C.n * C.rank
    # chambers, so together they cost about the C.n ** 2 pairs of a full scan
    autos, searches = [], C.n // max(C.rank, 1)
    covered = [False] * C.n
    for x in range(C.n):
        if report["truncated"]:
            break
        if covered[x]:
            continue
        try:
            delta, tsets = _w_distances_from(C, table, x)
        except BudgetExceeded:
            add({"kind": "type-set-budget", "source": x})
            ok = False
            continue
        report["pairs_checked"] += C.n
        if tsets is not None:
            for y, t in enumerate(tsets):
                if delta[y] is None:
                    add({"kind": "no-such-w", "pair": [x, y], "types": sorted(map(list, t))[:8]})
            ok = False
            continue
        gated = True
        for i in C.types:
            for panel in C.panels[i]:
                lens = [lengths[delta[y]] for y in panel]
                if lens.count(min(lens)) > 1:
                    add({"kind": "no-gate", "source": x, "type": i, "panel": list(panel)})
                    gated = False
        if not gated:
            ok = False
            continue
        # x passes, so does its image under any type-preserving automorphism
        inv = _chamber_invariant(C)
        orbit = groups.orbit(x, autos, getitem, C.n)
        for y in range(x + 1, C.n):
            if searches and not covered[y] and y not in orbit and inv[y] == inv[x]:
                searches -= 1
                a = isomorphism(C, C, (x, y), C.n * C.rank)
                if a is not None and verify_isomorphism(C, C, a):
                    autos.append(a)
                    orbit = groups.orbit(x, autos, getitem, C.n)
        for y in orbit:
            covered[y] = True
    report["building"] = ok
    return ok, report


# ---------------------------------------------------------------------------
# incidence geometries


@dataclass
class IncidenceGeometry:
    """Vertices are corank-1 residues, one family per type; two vertices of
    different types are incident iff their residues share a chamber."""

    system: object
    adjacency: dict = field(repr=False)
    labels: dict = field(repr=False)
    _chambers: dict = field(repr=False)     # per vertex, its chambers in ascending order

    def vertices_of_type(self, t):
        return sorted({v for v in self.adjacency if v[0] == t})

    @property
    def vertices(self):
        return sorted(self.adjacency)

    def incident(self, u, v):
        return v in self.adjacency[u]

    def chambers_of(self, v):
        return self._chambers[v]

    def label(self, v):
        return self.labels.get(v)


def incidence_geometry(C):
    adjacency, chambers = {}, {}
    for c, vs in enumerate(chamber_vertices(C)):
        vs = tuple(zip(C.types, vs))
        for t, v in enumerate(vs):
            chambers.setdefault(v, []).append(c)
            adjacency.setdefault(v, set()).update(vs[:t] + vs[t + 1:])
    labels = {}
    if C.labels is not None and all(
            isinstance(x, tuple) and len(x) == C.rank for x in C.labels):
        for (t, k), cs in chambers.items():
            lab = C.labels[cs[0]][t - 1]
            if lab is not None and all(C.labels[c][t - 1] == lab for c in cs):
                labels[t, k] = lab
    return IncidenceGeometry(C, adjacency, labels, chambers)


def shadow(geom, v, t):
    """All type-t vertices incident to v."""
    if v[0] == t:
        raise ValueError("shadow type must differ from the vertex's own type")
    return {w for w in geom.adjacency[v] if w[0] == t}


def check_LL(geom, point_type, line_type):
    """Axiom (LL): two distinct lines share at most one point.
    Returns (bool, witness) with witness = (p, q, x, x') on failure."""
    lines = geom.vertices_of_type(line_type)
    shadows = {x: frozenset(shadow(geom, x, point_type)) for x in lines}
    for x, x2 in combinations(lines, 2):
        common = shadows[x] & shadows[x2]
        if len(common) >= 2:
            p, q = sorted(common)[:2]
            return False, (p, q, x, x2)
    return True, None


def c3_roles(M):
    """(point, line, plane) types of a C3 matrix: its diagram's node order,
    from the node off the 4-bond (its vertex residues are the 4-gons)."""
    if coxeter.matrix_name(M) != "C3":
        raise ValueError("matrix is not C3-shaped")
    return coxeter._component_type(M, M.types)[1]


def check_star(spec, point_type, line_type, system=None):
    """The isotropy containment criterion on a coset chamber system: for
    every line vertex x and distinct points q != q' incident to x,
    S(q) & S(q') <= S(x): what fixes q and q' fixes the flags xq and xq'.
    Chamber c is the coset of system.labels[c] (from_cosets sets the
    representatives as labels), so a type-j vertex through c has stabilizer
    labels[c] G_j labels[c]^-1.  Returns (bool, witness)."""
    if not spec.faces:
        raise MissingVertexGroups("spec carries no face groups")
    G = spec.group
    if system is None:
        system = from_cosets(spec)
    elif system.labels is None:
        raise ValueError("system has no labels to read coset representatives from")
    elif any(g not in G for g in system.labels):
        raise ValueError("a system label is not an element of the group")
    geom = incidence_geometry(system)

    stab_cache = {}

    def vertex_stab(v):
        got = stab_cache.get(v)
        if got is None:
            t, _ = v
            rep = system.labels[geom.chambers_of(v)[0]]
            # rep h rep^-1 sends rep[x] to rep[h[x]]
            back = groups._right_mul(groups.inv(rep))
            got = frozenset(back(groups.mul(rep, h)) for h in spec.vertex_group(t).elements)
            stab_cache[v] = got
        return got

    for x in geom.vertices_of_type(line_type):
        Sx = vertex_stab(x)
        points = sorted(shadow(geom, x, point_type))
        for q1, q2 in combinations(points, 2):
            lhs = vertex_stab(q1) & vertex_stab(q2)
            if not lhs <= Sx:
                bad = sorted(lhs - Sx)[0]
                return False, (x, q1, q2, bad)
    return True, None


def is_c3_geometry(C):
    """Rank-3, connected, inferred type C3 up to relabeling, and simplicial.
    Returns (bool, report).

    Residual connectedness (Buekenhout-Cohen, Diagram Geometry, ch. 3)
    needs no check: in rank 3 the chambers of a vertex residue are
    connected, and two of them in a common i-panel share their vertex of the
    third type, so the vertices incident to a vertex are connected through
    its chambers."""
    report = {}
    if C.rank != 3:
        report["reason"] = f"rank {C.rank} != 3"
        return False, report
    if not C.is_connected():
        report["reason"] = "disconnected"
        return False, report
    try:
        M = infer_type_matrix(C)
    except (ResidueNotPolygon, InconsistentResidues) as exc:
        report["reason"] = f"residues not polygonal: {exc}"
        return False, report
    report["type_matrix"] = [list(r) for r in M.rows]
    if coxeter.matrix_name(M) != "C3":
        offdiag = sorted(M.order(i, j) for i, j in combinations(M.types, 2))
        report["reason"] = f"type matrix is not C3 up to relabeling (gonalities {offdiag})"
        return False, report
    simp, wit = is_simplicial(C)
    if not simp:
        report["reason"] = "not simplicial"
        report["witness"] = wit
        return False, report
    return True, report
