"""Finite permutation groups by full enumeration.

Permutations are tuples of images on 0..d-1.  Groups are closed by
`orbit`, the one breadth-first closure routine, with a configurable cap;
element order is always lexicographic on image tuples, so coset ids and
chamber ids derived from them are reproducible across runs.
"""

from .errors import ActionNotClosed, CapExceeded, DegreeMismatch, NotSubgroup

DEFAULT_CAP = 10 ** 5


def identity(degree):
    return tuple(range(degree))


def mul(a, b):
    """Composition a after b: (a*b)(x) = a(b(x))."""
    return tuple(a[x] for x in b)


def inv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def is_perm(a):
    return sorted(a) == list(range(len(a)))


def perm_from_cycles(degree, cycles):
    """Build a permutation from disjoint cycles of 0-based points."""
    points = [x for cyc in cycles for x in cyc]
    if len(set(points)) != len(points) or not all(0 <= x < degree for x in points):
        raise ValueError(f"cycles {cycles} are not disjoint cycles on 0..{degree - 1}")
    imgs = list(range(degree))
    for cyc in cycles:
        for s, t in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
            imgs[s] = t
    return tuple(imgs)


class PermGroup:
    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)       # lex sorted
        self.order = len(self.elements)
        self.index = {g: i for i, g in enumerate(self.elements)}

    def __contains__(self, g):
        return g in self.index

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def orbit(start, gens, act, cap):
    """The images of `start` under all words in `gens`, found breadth-first,
    where `act(g, x)` applies one generator; raises CapExceeded past `cap`."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(g, x)
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"orbit exceeded cap {cap}")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def close(degree, gens, cap):
    """The elements of the group generated by `gens`: the orbit of the
    identity under left multiplication."""
    return orbit(identity(degree), gens, mul, cap)


def group_from_generators(gens, cap=DEFAULT_CAP):
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator (use the identity)")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise DegreeMismatch("generators have mixed degrees")
        if not is_perm(g):
            raise ValueError(f"not a permutation: {g}")
    elements = sorted(close(degree, gens, cap))
    return PermGroup(degree, gens, elements)


def symmetric_group(n, cap=DEFAULT_CAP):
    gens = [perm_from_cycles(n, [(i, i + 1)]) for i in range(n - 1)] or [identity(n)]
    return group_from_generators(gens, cap=cap)


def alternating_group(n):
    gens = [perm_from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)] or [identity(n)]
    return group_from_generators(gens)


class Subgroup:
    def __init__(self, parent, elements, check=True):
        self.parent = parent
        self.elements = tuple(sorted(set(elements)))
        self.set = frozenset(self.elements)
        self.order = len(self.elements)
        if check:
            self._validate()

    def _validate(self):
        if identity(self.parent.degree) not in self.set:
            raise NotSubgroup("missing identity")
        for g in self.elements:
            if g not in self.parent:
                raise NotSubgroup("element outside parent group")
            if inv(g) not in self.set:
                raise NotSubgroup("not closed under inverse")
        for g in self.elements:
            for h in self.elements:
                if mul(g, h) not in self.set:
                    raise NotSubgroup("not closed under composition")

    def __contains__(self, g):
        return g in self.set

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"


def subgroup_generated(parent, gens):
    elems = close(parent.degree, [tuple(g) for g in gens], parent.order)
    for g in elems:
        if g not in parent:
            raise NotSubgroup("generated subgroup escapes parent")
    return Subgroup(parent, elems, check=False)


def stabilizer(parent, predicate):
    """Subgroup of all elements satisfying a closure-stable predicate.

    The predicate must cut out a subgroup (stabilizers do); only the cheap
    identity/inverse checks are run here.
    """
    elems = [g for g in parent.elements if predicate(g)]
    H = Subgroup(parent, elems, check=False)
    if identity(parent.degree) not in H.set:
        raise NotSubgroup("predicate rejects the identity")
    for g in H.elements:
        if inv(g) not in H.set:
            raise NotSubgroup("predicate not inverse-closed")
    return H


class CosetTable:
    """Left cosets gH of a subgroup, in first-appearance order over the
    lex-sorted parent elements; coset 0 is H itself with representative id."""

    def __init__(self, parent, subgroup, reps, coset_of):
        self.parent = parent
        self.subgroup = subgroup
        self.reps = tuple(reps)
        self.coset_of = coset_of               # dict element -> coset id
        self.index = len(self.reps)

    def coset_id(self, g):
        return self.coset_of[g]


def left_cosets(G, H):
    if H.parent is not G:
        if any(g not in G for g in H.elements):
            raise NotSubgroup("H is not a subgroup of G")
    coset_of = {}
    reps = []
    for g in G.elements:
        if g in coset_of:
            continue
        cid = len(reps)
        reps.append(g)
        for h in H.elements:
            coset_of[mul(g, h)] = cid
    if len(reps) * H.order != G.order:
        raise NotSubgroup(f"{len(reps)} cosets of {H.order} elements do not partition "
                          f"a group of order {G.order}")
    return CosetTable(G, H, reps, coset_of)


def generates(G, parts):
    """Whether the union of the given subgroups generates G."""
    gens = set()
    for part in parts:
        gens.update(part.elements)
    if not gens:
        return G.order == 1
    closed = close(G.degree, sorted(gens), G.order)
    return len(closed) == G.order


def is_free_action(H, points, action):
    """True iff no non-identity element of H fixes any point.

    `action(g, p)` must land back in `points` for every g in H.
    """
    points = set(points)
    e = identity(H.parent.degree)
    free = True
    for g in H.elements:
        for p in points:
            q = action(g, p)
            if q not in points:
                raise ActionNotClosed(f"action leaves the point set at {p!r}")
            if g != e and q == p:
                free = False
    return free


def direct_product(G1, G2):
    """G1 x G2 acting on the disjoint union of the two domains."""
    d1, d2 = G1.degree, G2.degree

    def embed1(g):
        return tuple(g) + tuple(d1 + x for x in range(d2))

    def embed2(g):
        return tuple(range(d1)) + tuple(d1 + x for x in g)

    gens = [embed1(g) for g in G1.generators] + [embed2(g) for g in G2.generators]
    G = group_from_generators(gens, cap=10 ** 6)
    assert G.order == G1.order * G2.order
    return G


def pair_perm(g, p):
    """The element (g, p) of a direct product, as a concatenated permutation."""
    d1 = len(g)
    return tuple(g) + tuple(d1 + x for x in p)


def group_to_json(G):
    return {"degree": G.degree, "generators": [list(g) for g in G.generators]}


def group_from_json(obj):
    return group_from_generators([tuple(g) for g in obj["generators"]])
