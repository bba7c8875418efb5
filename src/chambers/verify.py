"""Building verification via the W-valued distance, and rank-3 geometry
checks: point/line axiom (LL) and the isotropy-containment criterion, both
read on the vertex map chamber.chamber_vertices (a vertex is a corank-1
residue, two vertices are incident iff their residues share a chamber)."""

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
    """Per chamber y, the table id of delta(x, y) or None; the local
    failures (y, [(i, u, delta(x, u) r_i), ...]) in breadth-first order;
    and the order and distances that C._distances_from(x) gives.

    Once the closer neighbours u of y, in i-panels, are all determined, they
    must give one w = delta(x, u) r_i whose right descents are exactly those
    i: reduced-word sets split by last letter over right descents, so then
    y's type set is RW(w).  Otherwise it holds words of two elements or a
    non-reduced word, or misses w's words ending in a descent no neighbour
    gives; y is a failure and stays undetermined, and so does every chamber
    past it, unreported."""
    right, descents = table.right, table.descents
    dist = [None] * C.n
    delta = [None] * C.n
    # per chamber the table row of its delta; an undetermined one gives None
    rows = [(None,) * C.rank] * C.n
    dist[x], delta[x], rows[x] = 0, 0, right[0]
    order, failures = [x], []
    for y in order:
        closer = []
        for i, panels, idx in C._type_panels:
            for u in panels[idx[y]]:
                if dist[u] is None:
                    dist[u] = dist[y] + 1
                    order.append(u)
                elif dist[u] == dist[y] - 1:
                    closer.append((i, u, rows[u][i - 1]))
        if y == x:
            continue
        w = closer[0][2]
        if (w is not None and all(v == w for _, _, v in closer)
                and {i for i, _, _ in closer} == descents[w]):
            delta[y], rows[y] = w, right[w]
        elif None not in [v for _, _, v in closer]:
            failures.append((y, closer))
    return delta, failures, order, dist


def _check_rank(C, M):
    if M is not None and M.rank != C.rank:
        raise WrongRank(f"type matrix of rank {M.rank} for a system of rank {C.rank}")


def w_distance(C, M, x, y):
    """The W-element whose reduced words are exactly the minimal-gallery
    types from x to y; raises NoSuchW with a local witness otherwise.

    Past a failure of propagation, the chambers z on minimal galleries
    x -> y are walked in distance order.  z's type set T(z) holds prefixes
    of T(y)'s words, so if T(y) is a reduced-word set, T(z) lies in the
    reduced words RW(e_z) of one element e_z: a step that gives two
    elements or steps down proves NoSuchW at z.  So T(z) stays inside
    RW(e_z), which bounds the work, and the answer is e_y iff T(y) = RW(e_y)."""
    _check_rank(C, M)
    x, y = C._chamber(x), C._chamber(y)
    table = coxeter.group_table(M)
    delta, _, order, dist = _w_distances_from(C, table, x)
    if delta[y] is not None:
        return table.element(delta[y])
    if dist[y] is None:
        raise Disconnected(f"no gallery from {x} to {y}")
    _, back = C._distances_from(y)
    right, descents = table.right, table.descents
    elem, words = {x: 0}, {x: {()}}
    for z in [z for z in order if dist[z] + back[z] == dist[y]][1:]:   # ends at y
        closer = [(i, u, right[elem[u]][i - 1]) for i, panels, idx in C._type_panels
                  for u in panels[idx[z]] if dist[u] == dist[z] - 1]
        e = closer[0][2]
        if any(v != e or i in descents[elem[u]] for i, u, v in closer):
            missing = None
            break
        elem[z] = e
        words[z] = {s + (i,) for i, u, _ in closer for s in words[u]}
    else:
        missing = min(table.reduced_words(elem[y]) - words[y], default=None)
        if missing is None:
            return table.element(elem[y])
    raise NoSuchW(f"minimal gallery types from {x} to {y} match no group element "
                  f"(failure at chamber {z})", pair=(x, y), chamber=z,
                  closer=tuple((i, u, table.elements[v]) for i, u, v in closer),
                  missing=missing)


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

    From x, (c) fails iff the propagation of delta(x, .) has a local
    failure at some y; each is a violation {"kind": "no-such-w", "pair":
    [x, y], "closer": [[i, u, word of delta(x, u) r_i], ...]}, and a source
    with one skips (d).  An infinite W(M) ends the check after (a) and (b)
    with the violation {"kind": "infinite-type"}.
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
    if not coxeter.is_finite(M):
        # a finite system of infinite type is no building: its apartments
        # would be infinite Coxeter complexes (Abramenko-Brown, GTM 248)
        add({"kind": "infinite-type"})
        return False, report
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
        delta, failures, _, _ = _w_distances_from(C, table, x)
        report["pairs_checked"] += C.n
        if failures:
            for y, closer in failures:
                add({"kind": "no-such-w", "pair": [x, y],
                     "closer": [[i, u, list(table.elements[v])] for i, u, v in closer]})
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
# rank-3 geometry checks on the vertex map


def _roles(C, point_type, line_type):
    """The point and line types as ints in 1..rank; they must differ."""
    p, l = (min(C._types((t,))) for t in (point_type, line_type))
    if p == l:
        raise ValueError(f"point and line types must differ, both are {p}")
    return p, l


def check_LL(C, point_type, line_type):
    """Axiom (LL): two distinct lines share at most one point.  A vertex is
    (type, id) with its id from chamber_vertices, and a line's points are
    the point vertices of its chambers.  Returns (bool, witness) with
    witness = (p, q, x, x') on failure: the least two common points of the
    first pair of lines, in id order, that share two."""
    p, l = _roles(C, point_type, line_type)
    points = {}
    for vs in chamber_vertices(C):
        points.setdefault(vs[l - 1], set()).add(vs[p - 1])
    for x, x2 in combinations(sorted(points), 2):
        common = points[x] & points[x2]
        if len(common) >= 2:
            a, b = sorted(common)[:2]
            return False, ((p, a), (p, b), (l, x), (l, x2))
    return True, None


def c3_roles(M):
    """(point, line, plane) types of a C3 matrix: its diagram's node order,
    from the node off the 4-bond (its vertex residues are the 4-gons)."""
    if coxeter.matrix_name(M) != "C3":
        raise ValueError("matrix is not C3-shaped")
    return M._diagram[0][1][1]     # the node order of its one component


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
    p, l = _roles(system, point_type, line_type)
    least, points = {}, {}
    for c, vs in enumerate(chamber_vertices(system)):
        q, x = (p, vs[p - 1]), (l, vs[l - 1])
        least.setdefault(q, c)
        least.setdefault(x, c)
        points.setdefault(x, set()).add(q)

    stab_cache = {}

    def vertex_stab(v):
        got = stab_cache.get(v)
        if got is None:
            rep = system.labels[least[v]]
            # rep h rep^-1 sends rep[x] to rep[h[x]]
            back = groups._right_mul(groups.inv(rep))
            got = frozenset(back(groups.mul(rep, h)) for h in spec.vertex_group(v[0]).elements)
            stab_cache[v] = got
        return got

    for x in sorted(points):
        Sx = vertex_stab(x)
        for q1, q2 in combinations(sorted(points[x]), 2):
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
