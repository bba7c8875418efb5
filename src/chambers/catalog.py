"""Reference geometries: flag systems of subspaces of F2^n, projective or
totally isotropic (`subspace_flags`), which give the Fano flags, the
symplectic quadrangle over F2 and PG(3,2); PG(3,2) again as GL(4,2)
cosets; the A7 triple geometry; and Singer-subgroup quotients.

All constructions are deterministic: fixed generator matrices, fixed basis
order, chambers sorted lexicographically by label.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import groups
from .chamber import ChamberSystem, HomogeneousSpec, from_cosets, incidence_graph_stats, quotient
from .covers import CoveringMap
from .errors import CatalogMismatch


def _expect(what, got, want):
    """Raise CatalogMismatch unless a construction gave its known count;
    a raise, not an assert, so the check survives `python -O`."""
    if got != want:
        raise CatalogMismatch(f"{what}: got {got}, expected {want}")


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bitmask vectors


def mat_apply(M, v):
    """Apply a matrix (tuple of basis images) to a bitmask vector."""
    r = 0
    b = 0
    while v:
        if v & 1:
            r ^= M[b]
        v >>= 1
        b += 1
    return r


def subspaces(dim_total, dim):
    """All dim-dimensional subspaces of F2^dim_total as frozensets of
    nonzero vectors.  Each level is spanned from the one below: S and a
    vector v outside it span S, S + v and v."""
    level = {frozenset()}
    for _ in range(dim):
        level = {S | {s ^ v for s in S} | {v}
                 for S in level for v in range(1, 1 << dim_total) if v not in S}
    return sorted(level, key=sorted)


# companion matrix of x^4 + x + 1 (primitive over F2); order 15
SINGER_MATRIX = (2, 4, 8, 3)


@lru_cache(maxsize=None)
def gl4_2():
    """GL(4,2) as permutations of the 15 nonzero vectors of F2^4."""
    cyc = (2, 4, 8, 1)       # basis 4-cycle
    tv = (1, 3, 4, 8)        # transvection e2 -> e1 + e2
    gens = [tuple(mat_apply(M, v) - 1 for v in range(1, 16)) for M in (cyc, tv)]
    G = groups.group_from_generators(gens, cap=30000)
    _expect("|GL(4,2)|", G.order, 20160)
    return G


# ---------------------------------------------------------------------------
# flag systems


def _point_img(g, p):
    """Image of a 1-based point under a 0-based permutation."""
    return g[p - 1] + 1


def _points_img(g, points):
    """Image of a tuple of 1-based points under a 0-based permutation, sorted."""
    return tuple(sorted(g[x - 1] + 1 for x in points))


def _plane_img(g, plane):
    """Image of a set of lines under a 0-based point permutation, as the
    sorted tuple of sorted lines."""
    return tuple(sorted(_points_img(g, t) for t in plane))


# how a point permutation moves each part of a (point, line, plane) label:
# PG(3,2) planes are point sets, A7 geometry planes are sets of lines
_A3_PARTS = (_point_img, _points_img, _points_img)
_A7_PARTS = (_point_img, _points_img, _plane_img)


def _flag_system(flags, rank):
    """Chamber system from maximal flags: chambers sorted by label, the
    type-i panel collects flags equal away from position i-1."""
    flags = sorted(flags)
    index = {f: c for c, f in enumerate(flags)}
    partitions = {}
    for i in range(1, rank + 1):
        buckets = {}
        for f, c in index.items():
            key = f[:i - 1] + f[i:]
            buckets.setdefault(key, []).append(c)
        partitions[i] = sorted(tuple(sorted(v)) for v in buckets.values())
    return ChamberSystem(len(flags), rank, partitions, labels=tuple(flags))


def _flag_spec(G, parts, flag):
    """The coset spec of G on the orbit of `flag`: the principal subgroup
    fixes every part, face i every part but part i, vertex j part j."""
    types = range(1, len(flag) + 1)

    def stab(js):
        fixed = [(parts[j - 1], flag[j - 1]) for j in js]

        def pred(g):    # a loop: all() over a generator costs 3x per element
            for img, x in fixed:
                if img(g, x) != x:
                    return False
            return True
        return groups.stabilizer(G, pred)
    principal = stab(types)
    faces = {i: stab([j for j in types if j != i]) for i in types}
    vertex = {j: stab([j]) for j in types}
    return HomogeneousSpec(G, principal, faces, vertex=vertex)


def subspace_flags(dim, symplectic=False):
    """The maximal flags of subspaces of F2^dim as a chamber system, type i
    varying the i-th member.  Each member is spanned from the one below, S,
    by a vector v outside S; v is the least of its coset v + S, so each
    member arises once.  With `symplectic`, v must also be orthogonal to S
    for the form [[0,I],[I,0]], which pairs bit i with bit i + dim/2, so
    every member is totally isotropic.  A label is the point, then each
    larger member as the sorted tuple of its nonzero vectors."""
    half = dim // 2

    def orthogonal(x, y):       # the form is the parity of x & (y, halves swapped)
        return bin(x & (y >> half | (y & ((1 << half) - 1)) << half)).count("1") % 2 == 0

    members = {}        # each subspace once, shared by every chain through it
    chains = [(frozenset(),)]
    for _ in range(half if symplectic else dim - 1):
        chains = [c + (members.setdefault(S, S),)
                  for c in chains for v in range(1, 1 << dim)
                  if all(v < v ^ s for s in c[-1])     # also v not in c[-1]: v ^ v = 0
                  and (not symplectic or all(orthogonal(v, s) for s in c[-1]))
                  for S in (c[-1] | {s ^ v for s in c[-1]} | {v},)]
    labels = {S: tuple(sorted(S)) for S in members}
    flags = [(min(c[1]),) + tuple(labels[S] for S in c[2:]) for c in chains]
    return _flag_system(flags, len(flags[0]))


@lru_cache(maxsize=None)
def build_fano_flags():
    """Incident (point, line) pairs of the projective plane over F2."""
    C = subspace_flags(3)
    _expect("Fano flags", C.n, 21)
    return C


@lru_cache(maxsize=None)
def build_gq22():
    """Incident (point, totally isotropic line) pairs of the symplectic
    space F2^4 with form matrix [[0,I],[I,0]]."""
    C = subspace_flags(4, symplectic=True)
    _expect("GQ(2,2) lines", len(C.panels[1]), 15)
    _expect("GQ(2,2) flags", C.n, 45)
    return C


@lru_cache(maxsize=None)
def a3_f2_spec():
    """GL(4,2) with the stabilizers of the flag e1 < <e1,e2> < <e1,e2,e3>
    and of its parts: Borel, minimal and maximal parabolics."""
    spec = _flag_spec(gl4_2(), _A3_PARTS, (1, (1, 2, 3), tuple(range(1, 8))))
    _expect("|Borel|", spec.principal.order, 64)
    _expect("minimal parabolic orders", [spec.faces[j].order for j in (1, 2, 3)], [192] * 3)
    _expect("maximal parabolic orders", [spec.vertex[j].order for j in (1, 2, 3)],
            [1344, 576, 1344])
    return spec


@lru_cache(maxsize=None)
def build_a3_f2():
    """The 315-chamber flag system of PG(3,2)."""
    C = subspace_flags(4)
    _expect("PG(3,2) lines and planes", (len(C.residues((1, 3))), len(C.residues((1, 2)))),
            (35, 15))
    _expect("PG(3,2) flags", C.n, 315)
    return C


@lru_cache(maxsize=None)
def build_a3_f2_cosets():
    """The PG(3,2) flag system as the coset system of GL(4,2) with its
    Borel and minimal parabolics."""
    C = from_cosets(a3_f2_spec())
    _expect("PG(3,2) Borel cosets", C.n, 315)
    return C


# ---------------------------------------------------------------------------
# the A7 triple geometry


def _plane_key(plane):
    return tuple(sorted(tuple(sorted(t)) for t in plane))


@lru_cache(maxsize=None)
def fano_planes_on_7():
    """All 30 Fano plane structures on {1..7}, via the S7 orbit of one;
    each is the sorted tuple of its sorted lines."""
    std = _plane_key([(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)])
    transpositions = [groups.perm_from_cycles(7, [(a, a + 1)]) for a in range(6)]
    planes = groups.orbit(std, transpositions, _plane_img, 30)
    _expect("Fano planes on 7 points", len(planes), 30)
    return sorted(planes)


@lru_cache(maxsize=None)
def a7_plane_orbit():
    """The Alt(7)-orbit of Fano structures containing the lexicographically
    least plane (15 of the 30)."""
    three_cycles = [groups.perm_from_cycles(7, [(a, a + 1, a + 2)]) for a in range(5)]
    planes = groups.orbit(fano_planes_on_7()[0], three_cycles, _plane_img, 15)
    _expect("Alt(7)-orbit of Fano planes", len(planes), 15)
    return sorted(planes)


@lru_cache(maxsize=None)
def build_neumaier_a7():
    """The 315-chamber rank-3 geometry on 7 points, all 35 triples as
    lines, and one Alt(7)-orbit of Fano structures as planes.  Returns
    (system, coset spec under Alt(7))."""
    planes = a7_plane_orbit()
    flags = [(p, t, pl) for pl in planes for t in pl for p in t]
    C = _flag_system(flags, 3)
    _expect("triple geometry flags", C.n, 315)

    spec = _flag_spec(groups.alternating_group(7), _A7_PARTS, min(flags))
    _expect("|flag stabilizer|", spec.principal.order, 8)
    _expect("panel stabilizer orders", [spec.faces[j].order for j in (1, 2, 3)], [24] * 3)
    _expect("point, line and plane stabilizer orders",
            [spec.vertex[j].order for j in (1, 2, 3)], [360, 72, 168])
    return C, spec


# ---------------------------------------------------------------------------
# Singer quotients


def label_map(labels, target, act):
    """The chamber map that sends label l to the chamber of `target`
    labelled act(l)."""
    index = {lab: c for c, lab in enumerate(target.labels)}
    return tuple(index[act(lab)] for lab in labels)


def a3_f2_label_action(g, label):
    """Apply a GL(4,2) point permutation (0-based vector indices) to a
    PG(3,2) flag label."""
    return tuple(img(g, x) for img, x in zip(_A3_PARTS, label))


def neumaier_label_action(g, label):
    """Apply an Alt(7) symbol permutation (0-based) to a triple-geometry
    flag label."""
    return tuple(img(g, x) for img, x in zip(_A7_PARTS, label))


def singer_flag_automorphism(power=1):
    """The chamber permutation of the PG(3,2) flag system induced by the
    power of the fixed Singer matrix."""
    def image(v):
        for _ in range(power):
            v = mat_apply(SINGER_MATRIX, v)
        return v - 1

    g = tuple(image(v) for v in range(1, 16))
    base = build_a3_f2()
    return label_map(base.labels, base, lambda lab: a3_f2_label_action(g, lab))


def build_singer_quotient(subgroup_order=15):
    """Quotient of the PG(3,2) flag system by the cyclic subgroup of the
    given order inside the Singer cycle of the fixed primitive matrix.

    Orders 15 and 3 are rejected with ResidueCollision: their order-3
    subgroup stabilizes the five lines that are 1-dimensional over F4, so
    the projection would not be a 2-covering.  Order 5 gives the free
    63-chamber quotient.  Returns (base, quotient, projection map).
    """
    if subgroup_order <= 1 or 15 % subgroup_order:
        raise ValueError(f"subgroup order {subgroup_order} is not a divisor > 1 of 15")
    base = build_a3_f2()
    quot, proj = quotient(base, [singer_flag_automorphism(15 // subgroup_order)])
    return base, quot, CoveringMap(base, quot, proj)


# ---------------------------------------------------------------------------
# the catalog table


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    expected: dict
    builder: object
    note: str = ""


CATALOG = {
    e.name: e for e in [
        CatalogEntry(
            "fano", "flag system of the projective plane over F2",
            {"n": 21, "rank": 2, "girth": 6, "diameter": 3},
            lambda: {"system": build_fano_flags()}),
        CatalogEntry(
            "gq22", "flag system of the symplectic quadrangle over F2",
            {"n": 45, "rank": 2, "girth": 8, "diameter": 4},
            lambda: {"system": build_gq22()}),
        CatalogEntry(
            "a3-f2", "flag system of PG(3,2)",
            {"n": 315, "rank": 3},
            lambda: {"system": build_a3_f2()}),
        CatalogEntry(
            "a3-f2-cosets", "PG(3,2) flags as GL(4,2) Borel cosets",
            {"n": 315, "rank": 3},
            lambda: {"system": build_a3_f2_cosets(), "spec": a3_f2_spec()}),
        CatalogEntry(
            "neumaier-a7", "triple geometry on 7 points under Alt(7)",
            {"n": 315, "rank": 3},
            lambda: dict(zip(("system", "spec"), build_neumaier_a7()))),
        CatalogEntry(
            "singer-quotient-z5", "free Singer-subgroup quotient of the PG(3,2) flags",
            {"n": 63, "rank": 3},
            lambda: dict(zip(("base", "system", "projection"), build_singer_quotient(5)))),
        CatalogEntry(
            "singer-quotient", "order-15 Singer quotient of the PG(3,2) flags",
            {"n": 21, "rank": 3},
            lambda: dict(zip(("base", "system", "projection"), build_singer_quotient(15))),
            note=("rejected at build time: the order-3 subgroup of the Singer cycle "
                  "stabilizes the five F4-lines, so no 2-covering quotient exists")),
    ]
}


def build(name):
    """Build a catalog entry and validate it against its expected stats."""
    entry = CATALOG[name]
    artifacts = entry.builder()
    C = artifacts["system"]
    exp = entry.expected
    if C.n != exp["n"] or C.rank != exp["rank"]:
        raise CatalogMismatch(f"catalog {name}: got n={C.n} rank={C.rank}, expected {exp}")
    if "girth" in exp:
        girth, diam = incidence_graph_stats(C)
        if (girth, diam) != (exp["girth"], exp["diameter"]):
            raise CatalogMismatch(
                f"catalog {name}: incidence graph ({girth},{diam}) != expected")
    return artifacts
