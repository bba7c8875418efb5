"""Building verification via the W-valued distance, and rank-3 geometry
checks: point/line axiom (LL), the isotropy-containment criterion, shadows."""

from dataclasses import dataclass, field
from itertools import combinations

from . import groups
from .chamber import (
    chamber_vertices,
    from_cosets,
    infer_type_matrix,
    is_simplicial,
    polygon_parameter,
    sub_system,
)
from .coxeter import enumerate_group
from .errors import (
    BudgetExceeded,
    InconsistentResidues,
    MissingVertexGroups,
    NoSuchW,
    ResidueNotPolygon,
)

_TABLE_CACHE = {}


def group_table(M):
    table = _TABLE_CACHE.get(M)
    if table is None:
        table = enumerate_group(M)
        _TABLE_CACHE[M] = table
    return table


def w_distance(C, M, x, y, cap=10 ** 4):
    """The W-element whose reduced words are exactly the minimal-gallery
    types from x to y; raises NoSuchW (with both sets) otherwise."""
    table = group_table(M)
    tset = C.minimal_gallery_types(x, y, cap=cap)
    e = table.w_lookup().get(tset)
    if e is not None:
        return table.element(e)
    some = min(tset)
    cand = table.canonical_id(some)
    raise NoSuchW(
        f"minimal gallery types from {x} to {y} match no group element",
        gallery_types=tset,
        candidate=table.element(cand),
        candidate_words=table.reduced_word_sets()[cand])


def w_distance_report(C, M, cap=10 ** 4):
    """The full ordered-pair table: (x, y) -> WElement where the
    minimal-gallery type set equals that element's reduced words, or a
    violation record carrying the offending type set."""
    table = group_table(M)
    lookup = table.w_lookup()
    out = {}
    for x in range(C.n):
        tsets = C.minimal_type_sets_from(x, cap=cap)
        for y in range(C.n):
            if tsets[y] is None:
                out[(x, y)] = {"pair": (x, y), "disconnected": True}
                continue
            e = lookup.get(tsets[y])
            if e is None:
                out[(x, y)] = {"pair": (x, y), "types": tsets[y]}
            else:
                out[(x, y)] = table.element(e)
    return out


def is_building(C, M=None, budget=2000, cap=10 ** 4, max_violations=25):
    """Check the building property.  Returns (bool, report).

    Four conditions: (a) every panel has at least two chambers, (b) every
    rank-2 residue is a generalized m_ij-gon, (c) for every ordered pair the
    minimal-gallery type set is the reduced-word set of a group element
    (the W-valued distance), and (d) the gate property: within any panel,
    exactly one chamber is nearest to any outside chamber x and the others
    sit at its one-letter extension.

    (d) is not implied by (c) alone: the quotient of the thin C3 complex by
    its central longest element has 24 chambers, every pair matching a
    reduced-word set (the two lifts of a pair have lengths L and 9 - L, so
    the shorter route is unique), yet it is not a building.  The gate
    property fails there and is part of the classical W-metric axioms.
    """
    report = {"building": False, "violations": [], "pairs_checked": 0, "truncated": False}

    def add(v):
        if len(report["violations"]) < max_violations:
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
    table = group_table(M)
    lookup = table.w_lookup()
    lengths = [len(w) for w in table.elements]
    for x in range(C.n):
        if report["truncated"] and not ok:
            break
        try:
            tsets = C.minimal_type_sets_from(x, cap=cap)
        except BudgetExceeded:
            add({"kind": "type-set-budget", "source": x})
            ok = False
            continue
        delta = [None] * C.n
        for y in range(C.n):
            report["pairs_checked"] += 1
            delta[y] = lookup.get(tsets[y])
            if delta[y] is None:
                add({"kind": "no-such-w", "pair": [x, y],
                     "types": sorted(map(list, tsets[y]))[:8]})
                ok = False
        if any(d is None for d in delta):
            continue
        for i in C.types:
            for panel in C.panels[i]:
                vals = [delta[y] for y in panel]
                lens = [lengths[e] for e in vals]
                mn = min(lens)
                gates = [e for e, l in zip(vals, lens) if l == mn]
                ext = table.right[gates[0]][i - 1]
                if (len(gates) != 1 or lengths[ext] != mn + 1
                        or any(e != ext for e, l in zip(vals, lens) if l != mn)):
                    add({"kind": "no-gate", "source": x, "type": i,
                         "panel": list(panel)})
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
