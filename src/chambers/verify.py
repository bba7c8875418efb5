"""Building verification via the W-valued distance, and rank-3 geometry
checks: point/line axiom (LL), the isotropy-containment criterion, shadows."""

from dataclasses import dataclass, field
from itertools import combinations

from . import coxeter, groups
from .chamber import (
    chamber_vertices,
    from_cosets,
    infer_type_matrix,
    is_simplicial,
    polygon_parameter,
    sub_system,
)
from .errors import (
    BudgetExceeded,
    Disconnected,
    InconsistentResidues,
    MissingVertexGroups,
    NoSuchW,
    ResidueNotPolygon,
)

# coxeter's table memo, under the name perfbench/workloads.py::clear_caches
# uses to reset it between benchmark runs.
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


def w_distance(C, M, x, y):
    """The W-element whose reduced words are exactly the minimal-gallery
    types from x to y; raises NoSuchW (with both sets) otherwise."""
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
    """
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
        for res in C.residues((i, j)):
            sub, _ = sub_system(C, res.chambers, (i, j))
            m = polygon_parameter(sub)
            if m != want:
                add({"kind": "bad-residue", "types": [i, j], "chamber": res.chambers[0],
                     "expected": want, "got": m})
                ok = False
    table = coxeter.group_table(M)
    lengths = [len(w) for w in table.elements]
    for x in range(C.n):
        if report["truncated"]:
            break
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
        for i in C.types:
            for panel in C.panels[i]:
                lens = [lengths[delta[y]] for y in panel]
                if lens.count(min(lens)) > 1:
                    add({"kind": "no-gate", "source": x, "type": i, "panel": list(panel)})
                    ok = False
    report["building"] = ok
    return ok, report


# ---------------------------------------------------------------------------
# incidence geometries


@dataclass
class IncidenceGeometry:
    """Vertices are corank-1 residues, one family per type; two vertices of
    different types are incident iff their residues share a chamber."""

    system: object
    chamber_vertices: tuple        # per chamber, tuple of vertex ids by type
    adjacency: dict = field(repr=False)
    labels: dict = field(repr=False)

    def vertices_of_type(self, t):
        return sorted({v for v in self.adjacency if v[0] == t})

    @property
    def vertices(self):
        return sorted(self.adjacency)

    def incident(self, u, v):
        return v in self.adjacency[u]

    def chambers_of(self, v):
        t, cid = v
        C = self.system
        comp = C.component_map(frozenset(C.types) - {t})
        return [c for c in range(C.n) if comp[c] == cid]

    def label(self, v):
        return self.labels.get(v)


def incidence_geometry(C):
    vertices = tuple(tuple(zip(C.types, vs)) for vs in chamber_vertices(C))
    adjacency = {}
    for vs in vertices:
        for u, v in combinations(vs, 2):
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        for v in vs:
            adjacency.setdefault(v, set())
    labels = {}
    if C.labels is not None and all(
            isinstance(x, tuple) and len(x) == C.rank for x in C.labels):
        for c in range(C.n):
            for ti, v in enumerate(vertices[c]):
                lab = C.labels[c][ti]
                if v in labels and labels[v] != lab:
                    labels[v] = None
                else:
                    labels.setdefault(v, lab)
        labels = {v: lab for v, lab in labels.items() if lab is not None}
    return IncidenceGeometry(C, vertices, adjacency, labels)


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
    """(point, line, plane) types read off a C3-shaped matrix: the point
    type is the node off the 4-bond (its vertex residues are the 4-gons),
    the line type is the middle node."""
    four = [(i, j) for i, j in combinations(M.types, 2) if M.order(i, j) == 4]
    if len(four) != 1:
        raise ValueError("matrix does not have a unique 4-bond")
    a, b = four[0]
    q = next(t for t in M.types if t not in (a, b))
    r = a if M.order(a, q) == 3 else b
    t = b if r == a else a
    if M.order(q, r) != 3 or M.order(q, t) != 2:
        raise ValueError("matrix is not C3-shaped")
    return q, r, t


def check_star(spec, point_type, line_type, geom=None, system=None):
    """The isotropy containment criterion on a coset chamber system: for
    every line vertex x and distinct points q != q' incident to x, the
    stabilizer of {q, q'} inside the vertex groups must fix the flags xq
    and xq'.  Returns (bool, witness)."""
    if not spec.faces:
        raise MissingVertexGroups("spec carries no face groups")
    G = spec.group
    if system is None:
        system = from_cosets(spec)
    if geom is None:
        geom = incidence_geometry(system)
    ct = groups.left_cosets(G, spec.principal)

    stab_cache = {}

    def vertex_stab(v):
        got = stab_cache.get(v)
        if got is None:
            t, _ = v
            c = min(geom.chambers_of(v))
            rep = ct.reps[c]
            rep_inv = groups.inv(rep)
            Gj = spec.vertex_group(t)
            got = frozenset(groups.mul(groups.mul(rep, h), rep_inv) for h in Gj.elements)
            stab_cache[v] = got
        return got

    for x in geom.vertices_of_type(line_type):
        Sx = vertex_stab(x)
        points = sorted(shadow(geom, x, point_type))
        for q1, q2 in combinations(points, 2):
            lhs = vertex_stab(q1) & vertex_stab(q2)
            rhs = (Sx & vertex_stab(q1)) & (Sx & vertex_stab(q2))
            if not lhs <= rhs:
                bad = sorted(lhs - rhs)[0]
                return False, (x, q1, q2, bad)
    return True, None


def residually_connected(C, geom=None):
    """Every vertex residue induces a connected incidence structure on the
    vertices incident to it (checked through shared chambers)."""
    if geom is None:
        geom = incidence_geometry(C)
    for v in geom.vertices:
        nbrs = geom.adjacency[v]
        if not nbrs:
            if C.rank > 1:
                return False
            continue
        edges = {}
        for c in geom.chambers_of(v):
            others = [u for u in geom.chamber_vertices[c] if u != v]
            for a, b in combinations(others, 2):
                edges.setdefault(a, set()).add(b)
                edges.setdefault(b, set()).add(a)
        if set(edges) != set(nbrs):
            return False
        start = next(iter(nbrs))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in edges.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != set(nbrs):
            return False
    return True


def is_c3_geometry(C, budget=2000):
    """Rank-3, connected, inferred type C3 up to relabeling, residually
    connected, and simplicial.  Returns (bool, report)."""
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
    offdiag = sorted(M.order(i, j) for i, j in combinations(M.types, 2))
    if offdiag != [2, 3, 4]:
        report["reason"] = f"type matrix is not C3 up to relabeling (gonalities {offdiag})"
        return False, report
    if not residually_connected(C):
        report["reason"] = "not residually connected"
        return False, report
    simp, wit = is_simplicial(C, budget=budget)
    if not simp:
        report["reason"] = "not simplicial"
        report["witness"] = wit
        return False, report
    return True, report
