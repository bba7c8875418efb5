import os
import random
import subprocess
import sys
import textwrap

import pytest

import chambers
import corpus
from chambers import catalog, groups
from chambers.errors import CapExceeded, DegreeMismatch, NotSubgroup


def test_perm_helpers():
    a = groups.perm_from_cycles(4, [(0, 1, 2)])
    assert a == (1, 2, 0, 3)
    assert groups.mul(a, groups.inv(a)) == groups.identity(4)
    assert groups.mul(a, a) == groups.perm_from_cycles(4, [(0, 2, 1)])
    for cycles in ([(0, 1), (1, 2)], [(0, 1), (0, 1)], [(3, 4)]):
        with pytest.raises(ValueError):
            groups.perm_from_cycles(4, cycles)


def test_orbit():
    # the cyclic shift moves 0 through all of Z/5; the cap bounds the orbit
    shift = groups.perm_from_cycles(5, [tuple(range(5))])
    assert groups.orbit(0, [shift], lambda g, x: g[x], 5) == set(range(5))
    assert groups.orbit(0, [], lambda g, x: g[x], 1) == {0}
    with pytest.raises(CapExceeded):
        groups.orbit(0, [shift], lambda g, x: g[x], 4)


def test_group_from_generators():
    G = groups.group_from_generators([groups.identity(3)])
    assert G.order == 1
    G = groups.group_from_generators([groups.perm_from_cycles(3, [(0, 1, 2)])])
    assert G.order == 3
    assert groups.symmetric_group(4).order == 24
    with pytest.raises(DegreeMismatch):
        groups.group_from_generators([groups.identity(3), groups.identity(4)])
    with pytest.raises(CapExceeded):
        groups.group_from_generators(
            [groups.perm_from_cycles(6, [(i, i + 1)]) for i in range(5)], cap=100)


def test_alternating_7():
    assert groups.alternating_group(7).order == 2520


def test_determinism():
    g1 = groups.symmetric_group(4)
    g2 = groups.symmetric_group(4)
    assert g1.elements == g2.elements
    assert g1.elements == tuple(sorted(g1.elements))


def test_subgroup_validation():
    G = groups.symmetric_group(3)
    t = groups.perm_from_cycles(3, [(0, 1)])
    with pytest.raises(NotSubgroup):
        groups.Subgroup(G, [groups.identity(3), t, groups.perm_from_cycles(3, [(1, 2)])])
    H = groups.subgroup_generated(G, [t])
    assert H.order == 2


def test_left_cosets_and_lagrange():
    G = groups.symmetric_group(4)
    whole = groups.Subgroup(G, G.elements, check=False)
    assert groups.left_cosets(G, whole).index == 1
    trivial = groups.Subgroup(G, [groups.identity(4)])
    ct = groups.left_cosets(G, trivial)
    assert ct.index == 24
    assert ct.reps[0] == groups.identity(4)
    H = groups.subgroup_generated(G, [groups.perm_from_cycles(4, [(0, 1, 2)])])
    ct = groups.left_cosets(G, H)
    assert ct.index * H.order == G.order
    # every element's coset contains it
    for g in G.elements:
        cid = ct.coset_of[g]
        rep = ct.reps[cid]
        assert groups.mul(groups.inv(rep), g) in H.set
    # a subset that is no subgroup does not split G into cosets of its size
    S3 = groups.symmetric_group(3)
    not_sub = groups.Subgroup(S3, [groups.identity(3), groups.perm_from_cycles(3, [(0, 1)]),
                                   groups.perm_from_cycles(3, [(1, 2)])], check=False)
    with pytest.raises(NotSubgroup):
        groups.left_cosets(S3, not_sub)


def _random_perm(rng, degree):
    p = list(range(degree))
    rng.shuffle(p)
    return tuple(p)


def test_closure_kernel_matches_left_multiplication_orbit():
    # the right-multiplication closure against the orbit of the identity
    # under left multiplication, on seeded generator sets of degree 0..9:
    # the same element set, and CapExceeded at the same caps
    rng = random.Random(1018)

    def left_orbit(degree, gens, cap):
        return groups.orbit(groups.identity(degree), gens,
                            lambda g, x: tuple(g[i] for i in x), cap)

    sizes = set()
    for trial in range(120):
        degree = trial % 10
        gens = [_random_perm(rng, degree) for _ in range(rng.randint(0, 3))]
        if degree >= 2 and rng.randrange(3) == 0:
            a, b = rng.sample(range(degree), 2)
            gens = [groups.perm_from_cycles(degree, [(a, b)])]
        for cap in (1, 2, 24, 720, 5040):
            try:
                want = left_orbit(degree, gens, cap)
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    groups.close(degree, gens, cap)
                continue
            assert groups.close(degree, gens, cap) == want
            sizes.add(len(want))
            if gens:
                G = groups.group_from_generators(gens, cap=cap)
                assert G.elements == tuple(sorted(want)) and G.degree == degree
    assert {1, 2}.issubset(sizes) and max(sizes) > 100


def test_products_inverses_and_cosets_match_their_definitions():
    rng = random.Random(1019)
    for degree in range(10):
        for _ in range(20):
            a, b = _random_perm(rng, degree), _random_perm(rng, degree)
            ab = groups.mul(a, b)
            assert type(ab) is tuple and ab == tuple(a[b[x]] for x in range(degree))
            assert groups.mul(a, groups.inv(a)) == groups.identity(degree)
            assert groups.mul(groups.inv(a), a) == groups.identity(degree)
    for G in (groups.group_from_generators([()]), groups.group_from_generators([(0,)]),
              groups.symmetric_group(3), groups.symmetric_group(4),
              groups.alternating_group(5)):
        subgroups = [groups.Subgroup(G, [groups.identity(G.degree)]),
                     groups.Subgroup(G, G.elements, check=False)]
        for _ in range(4):
            subgroups.append(groups.subgroup_generated(G, rng.sample(G.elements, 1)))
        for H in subgroups:
            ct = groups.left_cosets(G, H)
            # coset ids in first-appearance order over the sorted elements
            reps, coset_of = [], {}
            for g in G.elements:
                if g not in coset_of:
                    coset_of.update({tuple(g[x] for x in h): len(reps) for h in H.elements})
                    reps.append(g)
            assert ct.reps == tuple(reps) and ct.coset_of == coset_of
            assert ct.index * H.order == G.order


def test_gl42_borel_index():
    spec = catalog.a3_f2_spec()
    G, borel, faces = spec.group, spec.principal, spec.faces
    assert G.order == 20160
    assert borel.order == 64
    assert groups.left_cosets(G, borel).index == 315
    assert groups.generates(G, list(faces.values()))


def test_generates():
    G = groups.symmetric_group(4)
    whole = groups.Subgroup(G, G.elements, check=False)
    trivial = groups.Subgroup(G, [groups.identity(4)])
    assert groups.generates(G, [whole])
    assert not groups.generates(G, [trivial, trivial])
    # monotone: adding a part never flips true -> false
    a = groups.subgroup_generated(G, [groups.perm_from_cycles(4, [(0, 1)])])
    b = groups.subgroup_generated(G, [groups.perm_from_cycles(4, [(0, 1, 2, 3)])])
    assert groups.generates(G, [a, b])
    assert groups.generates(G, [a, b, trivial])


def test_direct_product():
    A = groups.symmetric_group(3)
    B = groups.group_from_generators([groups.perm_from_cycles(2, [(0, 1)])])
    G = groups.direct_product(A, B)
    assert G.order == 12 and G.degree == 5
    # the same group as the closure of the embedded generators, factors of
    # degree 0 and 1 included
    pool = [groups.group_from_generators([()]), groups.group_from_generators([(0,)]), A, B,
            groups.alternating_group(5),
            groups.group_from_generators([groups.perm_from_cycles(7, [tuple(range(7))])])]
    for X in pool:
        for Y in pool:
            d1, d2 = X.degree, Y.degree
            gens = ([groups.pair_perm(g, groups.identity(d2)) for g in X.generators]
                    + [groups.pair_perm(groups.identity(d1), h) for h in Y.generators])
            want = groups.group_from_generators(gens, cap=10 ** 6)
            G = groups.direct_product(X, Y)
            assert (G.degree, G.generators, G.elements) == (d1 + d2, want.generators, want.elements)
    S7 = groups.symmetric_group(7)
    with pytest.raises(CapExceeded):
        groups.direct_product(S7, S7)


@pytest.mark.parametrize("name", corpus.GROUP_POOL + ("GL(4,2)",))
def test_stabilizer_sieve_matches_full_scan(name):
    # seeded setwise and pointwise stabilizers, the whole and the trivial
    # group among them: the sieve returns the subgroup the full scan finds
    G = corpus.pool_group(name)
    rng = random.Random(1024)
    orders = []
    for label, pred in corpus.stabilizer_predicates(rng, G.degree, 4 if name == "GL(4,2)" else 10):
        H = groups.stabilizer(G, pred)
        assert H.elements == tuple(g for g in G.elements if pred(g)), label
        assert H.parent is G
        orders.append(H.order)
    assert orders[:2] == [G.order, 1] and len(set(orders)) > 2


def test_stabilizer_misuse_raises():
    S3 = groups.symmetric_group(3)
    e, c = groups.identity(3), groups.perm_from_cycles(3, [(0, 1, 2)])
    swaps = {groups.perm_from_cycles(3, [(0, 1)]), groups.perm_from_cycles(3, [(1, 2)])}
    with pytest.raises(NotSubgroup, match="rejects the identity"):
        groups.stabilizer(S3, lambda g: g != e)
    with pytest.raises(NotSubgroup, match="not inverse-closed"):
        groups.stabilizer(S3, lambda g: g in (e, c))
    with pytest.raises(NotSubgroup, match="not closed under products"):
        groups.stabilizer(S3, lambda g: g == e or g in swaps)
    # the precondition: an element in a ruled-out coset is never tested, so
    # a predicate that also accepts the 3-cycle (1,2,0), in the coset of the
    # failing (1,0,2) over K = <(1 2)>, goes unnoticed
    swap12 = groups.perm_from_cycles(3, [(1, 2)])
    H = groups.stabilizer(S3, lambda g: g in (e, swap12, (1, 2, 0)))
    assert H.elements == (e, swap12)


def _stabilizer_calls(monkeypatch, build):
    """Predicate calls made by groups.stabilizer during build()."""
    sieve, calls = groups.stabilizer, []

    def counted(G, pred):
        return sieve(G, lambda g: calls.append(g) or pred(g))
    monkeypatch.setattr(groups, "stabilizer", counted)
    build()
    monkeypatch.undo()
    return len(calls)


def test_stabilizer_predicate_calls_scale_with_index(monkeypatch):
    # work counts of the seven flag stabilizers of each coset geometry.  A
    # full scan makes 7 * |G| calls: 17,640 for Alt(7), 141,120 for GL(4,2).
    # The sieve tests at least one element per coset of H other than H and
    # every element of H, so no fewer than the sum of [G:H] + |H| over the
    # seven: 687 + 680 for Alt(7), 695 + 3,904 for GL(4,2)
    neumaier = _stabilizer_calls(monkeypatch, catalog.build_neumaier_a7.__wrapped__)
    assert neumaier == 1428
    parabolics = _stabilizer_calls(monkeypatch, catalog.a3_f2_spec.__wrapped__)
    assert parabolics == 4650


def test_input_checks_survive_optimized_mode():
    # `python -O` strips asserts; the checks on caller input must not be asserts
    # and the gluer's invariants raise NotCovering instead of asserting
    script = textwrap.dedent("""
        import sys
        from chambers import catalog, covers, groups
        from chambers.chamber import TypedGallery
        from chambers.errors import NotCovering
        rejected = 0
        lying = groups.PermGroup(2, [(0, 1)], [(0, 1), (1, 0)])
        for bad in (lambda: groups.perm_from_cycles(3, [(0, 1), (1, 2)]),
                    lambda: TypedGallery((0, 1), ()),
                    lambda: groups.direct_product(lying, groups.symmetric_group(3))):
            try:
                bad()
            except ValueError:
                rejected += 1
        fano = catalog.build_fano_flags()
        cover = covers.universal_cover(fano).covering.cover
        gluer = covers._Gluer(fano, 0, 100)
        over_1 = gluer._new_node(1)
        covers._Gluer.run = lambda self: None
        for bad in (lambda: gluer.union(gluer.root0, over_1),
                    lambda: covers.universal_cover(fano)):
            try:
                bad()
            except NotCovering:
                rejected += 1
        print(sys.flags.optimize, rejected, cover.n)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(chambers.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.split() == ["1", "5", "21"]
