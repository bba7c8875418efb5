"""Finite permutation groups by full enumeration.

Permutations are tuples of images on 0..d-1.  Groups are closed by
`orbit`, the one breadth-first closure routine, with a configurable cap;
element order is always lexicographic on image tuples, so coset ids and
chamber ids derived from them are reproducible across runs.  Products run
in C: x -> x*g is `operator.itemgetter(*g)`, compiled once per g where one
g multiplies many x.

`stabilizer` sieves cosets instead of testing every element: its predicate
runs about [G:H] + |H| times, and `close` runs once more each time the
subgroup found so far grows.  It requires a predicate that cuts out a
subgroup, and catches one that does not only on the elements it tests.
"""

from itertools import filterfalse, repeat
from operator import itemgetter

from .errors import CapExceeded, DegreeMismatch, NotSubgroup

try:
    from operator import call as _apply
except ImportError:         # Python < 3.11
    def _apply(f, x):
        return f(x)

DEFAULT_CAP = 10 ** 5


def identity(degree):
    return tuple(range(degree))


def mul(a, b):
    """Composition a after b: (a*b)(x) = a(b(x))."""
    if len(b) > 1:
        return itemgetter(*b)(a)
    return tuple(a[x] for x in b)


def _right_mul(g):
    """x -> x*g as one compiled call; itemgetter returns a tuple only for
    two or more indices, so degrees 0 and 1 take the tuple path."""
    if len(g) > 1:
        return itemgetter(*g)
    return lambda x: tuple(x[i] for i in g)


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
    identity under right multiplication, the same set as under left."""
    return orbit(identity(degree), [_right_mul(g) for g in gens], _apply, cap)


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


def symmetric_group(n):
    gens = [perm_from_cycles(n, [(i, i + 1)]) for i in range(n - 1)] or [identity(n)]
    return group_from_generators(gens)


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
    """The subgroup H of the elements of `parent` satisfying `predicate`,
    by coset sieving.

    The elements are scanned in lex order, skipping those already in the
    subgroup K <= H found so far and those ruled out.  A passing element
    joins K's generators and K is closed again; a failing f rules out its
    whole coset fK, which misses H when K <= H.  The predicate therefore
    runs about [G:H] + |H| times, not |G|: once per ruled-out coset, once
    per generator, and once more on every element of the final K, which
    must all pass.

    Precondition: the predicate cuts out a subgroup (stabilizers do).  A
    predicate that rejects the identity, or accepts an element but not its
    inverse, or is not closed under products, raises NotSubgroup, but only
    when the failing element is one that was tested; elements in ruled-out
    cosets are never tested.
    """
    e = identity(parent.degree)
    if not predicate(e):
        raise NotSubgroup("predicate rejects the identity")
    elements, index = parent.elements, parent.index
    gens, K = [], {e}
    right = [_right_mul(e)]          # x -> x*k for k in K
    # one element per ruled-out coset of K; the ids of K and of those cosets
    fails, seen = [], {index[e]}

    def rule_out(f):
        fails.append(f)
        seen.update(map(index.__getitem__, map(_apply, right, repeat(f))))

    for i in filterfalse(seen.__contains__, range(parent.order)):
        g = elements[i]
        if not predicate(g):
            rule_out(g)
            continue
        gens.append(g)
        K = close(parent.degree, gens, parent.order)
        if not K <= index.keys():
            raise NotSubgroup("generated subgroup escapes parent")
        right = [_right_mul(k) for k in K]
        old, fails = fails, []
        seen.clear()                 # in place: the scan's filter holds this set
        seen.update(map(index.__getitem__, K))
        for f in old:
            if index[f] not in seen:
                rule_out(f)
    # the parent's own tuples, so that the copies `close` made can be freed
    H = Subgroup(parent, [elements[index[k]] for k in K], check=False)
    for k in H.elements:
        if not predicate(k):
            if predicate(inv(k)):
                raise NotSubgroup("predicate not inverse-closed")
            raise NotSubgroup("predicate not closed under products")
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


def left_cosets(G, H):
    if H.parent is not G:
        if any(g not in G for g in H.elements):
            raise NotSubgroup("H is not a subgroup of G")
    coset_of = {}
    reps = []
    hs = [_right_mul(h) for h in H.elements]
    for g in G.elements:
        if g in coset_of:
            continue
        cid = len(reps)
        reps.append(g)
        for h in hs:
            coset_of[h(g)] = cid
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


def direct_product(G1, G2):
    """G1 x G2 acting on the disjoint union of the two domains.  Each factor
    is closed from its own generators and the pairs (g, h) are listed
    g-major, which is lex order; a factor whose generators do not give its
    claimed order raises ValueError, a product past 10**6 CapExceeded."""
    d1, d2, cap = G1.degree, G2.degree, 10 ** 6
    E1 = sorted(close(d1, G1.generators, cap))
    E2 = sorted(close(d2, G2.generators, cap))
    if len(E1) * len(E2) > cap:
        raise CapExceeded(f"direct product of order {len(E1) * len(E2)} exceeds cap {cap}")
    if len(E1) * len(E2) != G1.order * G2.order:
        raise ValueError(f"direct product has order {len(E1) * len(E2)}, "
                         f"not {G1.order} * {G2.order}")
    shifted = [tuple(d1 + x for x in h) for h in E2]
    gens = ([pair_perm(g, identity(d2)) for g in G1.generators]
            + [pair_perm(identity(d1), h) for h in G2.generators])
    return PermGroup(d1 + d2, gens, [g + h for g in E1 for h in shifted])


def pair_perm(g, p):
    """The element (g, p) of a direct product, as a concatenated permutation."""
    d1 = len(g)
    return tuple(g) + tuple(d1 + x for x in p)
