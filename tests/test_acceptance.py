"""Acceptance suite.  One test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Criterion 6 is implemented faithfully as stated and is expected to fail:
the order-15 Singer subgroup contains an order-3 element stabilizing the
five lines of PG(3,2) that are F4-subspaces, so the 21-chamber quotient
identifies chambers inside {point,plane}-residues and its projection is not
a 2-covering.  The order-5 Singer subgroup acts freely on all vertices and
gives the 63-chamber covering used by the lifting suite.
"""

import itertools
import random
import time

import pytest

import corpus
from chambers import catalog, chamber, cli, covers, coxeter, groups, verify
from chambers.chamber import HomogeneousSpec, TypedGallery
from chambers.errors import ResidueCollision


def _report(num, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_coxeter_orders():
    timings = {}
    for name, M, want in (("A3", coxeter.A3, 24), ("C3", coxeter.C3, 48),
                          ("H3", coxeter.H3, 120)):
        t0 = time.perf_counter()
        table = coxeter.enumerate_group(M)
        dt = time.perf_counter() - t0
        timings[name] = dt
        assert table.order == want, (name, table.order)
        assert dt < 5.0, f"{name} enumeration took {dt:.1f}s"
    _report(1, True, f"orders 24/48/120, {max(timings.values()):.2f}s worst")


def test_criterion_2_polar_admissibility():
    assert not coxeter.is_admissible_polar(coxeter.H3)
    values = [0, 2, 3, 4, 5, 6, 7, 8]   # 0 encodes infinity
    admissible = {2, 3, 4, 6}
    checked = 0
    for a in values:
        M = coxeter.CoxeterMatrix([[1, a], [a, 1]])
        assert coxeter.is_admissible_polar(M) == (a in admissible)
        checked += 1
    for a, b, c in itertools.product(values, repeat=3):
        M = coxeter.CoxeterMatrix([[1, a, b], [a, 1, c], [b, c, 1]])
        expect = a in admissible and b in admissible and c in admissible
        assert coxeter.is_admissible_polar(M) == expect
        checked += 1
    _report(2, True, f"{checked} matrices scanned exhaustively")


THIN_CASES = [
    coxeter.A1,
    *[coxeter.dihedral(m) for m in range(2, 9)],
    corpus.A1x3,
    corpus.A1xA2,
    coxeter.CoxeterMatrix([[1, 2, 2], [2, 1, 4], [2, 4, 1]]),      # A1 x C2
    coxeter.CoxeterMatrix([[1, 2, 2], [2, 1, 6], [2, 6, 1]]),      # A1 x G2
    coxeter.A3,
    coxeter.C3,
    coxeter.H3,
]


def test_criterion_3_thin_buildings():
    t0 = time.perf_counter()
    rng = random.Random(100)
    for M in THIN_CASES:
        assert coxeter.is_finite(M)
        table = coxeter.enumerate_group(M)
        C = coxeter.complex_from_table(table)
        ok, report = verify.is_building(C, M)
        assert ok, (M, report["violations"][:3])
        for _ in range(100):
            u = rng.randrange(table.order)
            v = rng.randrange(table.order)
            w = verify.w_distance(C, M, u, v)
            assert w.word == table.elements[table.mult_id(table.inv_id(u), v)]
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"thin-building suite took {dt:.1f}s"
    _report(3, True, f"{len(THIN_CASES)} finite types, {dt:.1f}s")


def test_criterion_4_thick_buildings():
    fano = catalog.build_fano_flags()
    assert fano.n == 21
    assert chamber.incidence_graph_stats(fano) == (6, 3)
    assert chamber.infer_type_matrix(fano) == coxeter.A2
    assert verify.is_building(fano, coxeter.A2)[0]

    gq = catalog.build_gq22()
    assert gq.n == 45
    assert chamber.incidence_graph_stats(gq) == (8, 4)
    assert chamber.infer_type_matrix(gq) == coxeter.C2
    assert verify.is_building(gq, coxeter.C2)[0]

    a3 = catalog.build_a3_f2()
    assert a3.n == 315
    assert chamber.infer_type_matrix(a3) == coxeter.A3
    t0 = time.perf_counter()
    ok, report = verify.is_building(a3, coxeter.A3)
    dt = time.perf_counter() - t0
    # one automorphism orbit: one source scanned
    assert ok and report["pairs_checked"] == 315
    assert dt < 120.0, f"building check took {dt:.1f}s"
    _report(4, True, f"A2/C2/A3 thick buildings verified, building check {dt:.1f}s")


def test_criterion_5_neumaier_geometry():
    t0 = time.perf_counter()
    neu, spec = catalog.build_neumaier_a7()
    assert neu.n == 315
    M = chamber.infer_type_matrix(neu)
    q, r, t = verify.c3_roles(M)

    ok_c3, rep = verify.is_c3_geometry(neu)
    assert ok_c3, rep

    plane_res = neu.residue(frozenset(neu.types) - {t}, 0)
    sub, _ = corpus.sub_system(neu, plane_res.chambers, sorted(frozenset(neu.types) - {t}))
    assert len(plane_res.chambers) == 21
    assert chamber.infer_type_matrix(sub).order(1, 2) == 3
    assert all(len(p) == 3 for i in sub.types for p in sub.panels[i])  # order 2

    point_res = neu.residue(frozenset(neu.types) - {q}, 0)
    sub, _ = corpus.sub_system(neu, point_res.chambers, sorted(frozenset(neu.types) - {q}))
    assert len(point_res.chambers) == 45
    assert chamber.infer_type_matrix(sub).order(1, 2) == 4

    ll, wit = verify.check_LL(neu, q, r)
    assert not ll and wit is not None
    # the witness labels, read with the CLI's rule
    p1, p2, x1, x2 = cli._vertex_labels(neu, neu.labels, wit)
    assert {p1, p2} == {1, 2}
    assert {x1, x2} == {(1, 2, 3), (1, 2, 4)}

    ok_b, _ = verify.is_building(neu, M)
    assert not ok_b

    ok_s, wit_s = verify.check_star(spec, q, r)
    assert not ok_s and wit_s is not None

    dt = time.perf_counter() - t0
    assert dt < 120.0, f"criterion 5 took {dt:.1f}s"
    _report(5, True, f"C3 yes / LL no / building no / star no, {dt:.1f}s")


@pytest.mark.xfail(strict=True, reason=(
    "the order-3 subgroup of the order-15 Singer cycle fixes the five "
    "F4-lines of PG(3,2) setwise, so the 21-chamber quotient collapses "
    "{point,plane}-residues and its projection cannot be a 2-covering; the "
    "order-5 subgroup quotient (63 chambers) is the covering that exists."))
def test_criterion_6_singer_round_trip():
    try:
        base, quot, proj = catalog.build_singer_quotient(15)
    except ResidueCollision as exc:
        _report(6, False, f"unattainable as specified: {exc}")
        raise
    assert quot.n == 21
    ok, diag = covers.is_covering(proj)
    assert ok, diag
    res = covers.universal_cover(quot, 0, max_chambers=10 ** 6)
    assert not res.truncated
    assert res.covering.cover.n == 315
    assert len(res.deck) == 15 and res.regular
    assert chamber.isomorphism(res.covering.cover, base) is not None
    _report(6, True)


def test_criterion_6b_free_singer_round_trip():
    """The covering round trip that is actually attainable: the order-5
    Singer subgroup acts freely on points, lines and planes."""
    t0 = time.perf_counter()
    base, quot, proj = catalog.build_singer_quotient(5)
    assert quot.n == 63
    ok, diag = covers.is_covering(proj)
    assert ok, diag
    res = covers.universal_cover(quot, 0, max_chambers=10 ** 6)
    assert not res.truncated
    assert res.covering.cover.n == 315
    assert len(res.deck) == 5 and res.regular
    assert chamber.isomorphism(res.covering.cover, base) is not None
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(6, True, f"(amended z5 round trip) 63 -> 315, deck 5 regular, {dt:.1f}s")


def test_criterion_7_simple_connectivity():
    for name, C in (("A3(F2)", catalog.build_a3_f2()),
                    ("thin C3", coxeter.coxeter_complex(coxeter.C3))):
        t0 = time.perf_counter()
        res = covers.universal_cover(C, 0, max_chambers=10 ** 6)
        dt = time.perf_counter() - t0
        assert not res.truncated
        assert res.covering.cover.n == C.n          # bijective covering
        assert len(res.deck) == 1 and res.regular   # trivial deck group
        assert dt < 120.0, f"{name} cover took {dt:.1f}s"
    _report(7, True, "universal covers of rank-3 buildings are isomorphisms")


def _random_spec(rng, pool):
    while True:
        G = rng.choice(pool)
        hgens = [rng.choice(G.elements) for _ in range(rng.randint(0, 1))]
        H = (groups.subgroup_generated(G, hgens) if hgens
             else groups.Subgroup(G, [groups.identity(G.degree)]))
        if G.order // H.order > 1200:
            continue
        k = rng.choice([2, 3])
        style = rng.randrange(3)
        if style == 0:
            # faces confined to a point stabilizer: disconnected unless H fills in
            K = groups.stabilizer(G, lambda g: g[0] == 0)
            faces = {}
            for i in range(1, k + 1):
                extra = [rng.choice(K.elements) for _ in range(rng.randint(1, 2))]
                faces[i] = groups.subgroup_generated(G, list(H.elements) + extra)
            if any(g not in K.set for F in faces.values() for g in F.elements):
                continue
        else:
            faces = {}
            for i in range(1, k + 1):
                extra = [rng.choice(G.elements) for _ in range(rng.randint(1, 2))]
                faces[i] = groups.subgroup_generated(G, list(H.elements) + extra)
        if G.order // H.order < 2:
            continue
        return HomogeneousSpec(G, H, faces)


def test_criterion_8_primitivity_equivalence():
    pool = [groups.symmetric_group(4), groups.symmetric_group(5),
            groups.alternating_group(5), groups.alternating_group(6)]
    rng = random.Random(2024)
    connected_seen = disconnected_seen = 0
    for _ in range(10):
        spec = _random_spec(rng, pool)
        C = chamber.from_cosets(spec)
        conn = C.is_connected()
        gen = groups.generates(spec.group, [spec.faces[i] for i in spec.types])
        assert conn == gen, (spec.group, [spec.faces[i].order for i in spec.types])
        connected_seen += conn
        disconnected_seen += not conn
    assert connected_seen and disconnected_seen, "sampler must exercise both outcomes"
    _report(8, True, f"{connected_seen} connected / {disconnected_seen} disconnected specs")


def test_criterion_9_word_problem_suite():
    rng = random.Random(42)
    pats = {}
    for M in (coxeter.A3, coxeter.C3):
        pats[M] = coxeter._patterns(M)
    tables = {M: coxeter.enumerate_group(M) for M in (coxeter.A3, coxeter.C3)}
    moves_tested = 0
    for M, table in tables.items():
        for _ in range(5000):
            f = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 12)))
            e = table.canonical_id(f)
            w = table.elements[e]
            # braid-move invariance
            nbrs = coxeter._braid_neighbors(f, pats[M])
            if nbrs:
                g = rng.choice(nbrs)
                assert table.canonical_id(g) == e
                moves_tested += 1
            # length alternation
            i = rng.randint(1, 3)
            w2 = table.elements[table.right[e][i - 1]]
            assert abs(len(w2) - len(w)) == 1
    assert moves_tested > 1000
    # the sixteen reduced words of the longest element of W(A3)
    ta3 = tables[coxeter.A3]
    w0 = ta3.element(corpus.longest_id(ta3))
    assert len(coxeter.reduced_words(coxeter.A3, w0)) == 16
    # group laws through the word API
    for _ in range(100):
        M = coxeter.C3
        u, v, w = (coxeter.canonical(M, tuple(rng.randint(1, 3) for _ in range(6)))
                   for _ in range(3))
        assert coxeter.multiply(M, coxeter.multiply(M, u, v), w) == \
            coxeter.multiply(M, u, coxeter.multiply(M, v, w))
        assert coxeter.multiply(M, u, coxeter.inverse(M, u)).word == ()
    _report(9, True, f"10^4 words, {moves_tested} braid moves, group laws sampled")


def test_criterion_10_lifting_suite():
    """Lifting suite on the free Singer covering (the order-5 subgroup; the
    order-15 quotient does not exist, see criterion 6)."""
    base, quot, proj = catalog.build_singer_quotient(5)
    rng = random.Random(77)
    fibers = {}
    for c, b in enumerate(proj.chamber_map):
        fibers.setdefault(b, []).append(c)
    for _ in range(1000):
        g = corpus.random_gallery(quot, rng.randrange(quot.n), rng.randint(0, 10), rng)
        start = rng.choice(fibers[g.start])
        lifted = covers.lift_gallery(proj, g, start)
        projected = TypedGallery(tuple(proj.chamber_map[c] for c in lifted.chambers),
                                 lifted.types)
        assert projected == g
        # lifting is unique: a second walk lands identically
        assert covers.lift_gallery(proj, g, start) == lifted
    # homotopic base galleries lift to equal endpoints
    checked = 0
    for _ in range(100):
        g1 = corpus.random_gallery(quot, 0, rng.randint(0, 8), rng)
        g2 = quot.min_gallery(0, g1.end)
        if covers.homotopic(quot, g1, g2, budget=10 ** 5):
            l1 = covers.lift_gallery(proj, g1, 0)
            l2 = covers.lift_gallery(proj, g2, 0)
            assert l1.end == l2.end
            checked += 1
    assert checked >= 30
    _report(10, True, f"10^3 lifts round-trip, {checked} homotopic pairs share endpoints")
