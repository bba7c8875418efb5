import hashlib
import json
import random

import pytest

from chambers import catalog, chamber, cli, coxeter, verify
from chambers.errors import ChambersError, Disconnected, NoSuchW


def test_w_distance_thin():
    table = coxeter.enumerate_group(coxeter.C3)
    C = coxeter.complex_from_table(table)
    rng = random.Random(20)
    for _ in range(100):
        u = rng.randrange(table.order)
        v = rng.randrange(table.order)
        w = verify.w_distance(C, coxeter.C3, u, v)
        expected = table.mult_id(table.inv_id(u), v)
        assert w.word == table.elements[expected]


def test_w_distance_identity_and_symmetry():
    a3 = catalog.build_a3_f2()
    M = coxeter.A3
    assert verify.w_distance(a3, M, 7, 7).is_identity()
    rng = random.Random(21)
    for _ in range(20):
        x, y = rng.randrange(315), rng.randrange(315)
        w_xy = verify.w_distance(a3, M, x, y)
        w_yx = verify.w_distance(a3, M, y, x)
        assert coxeter.inverse(M, w_xy) == w_yx


def test_w_distance_violation_carries_sets():
    neu, _ = catalog.build_neumaier_a7()
    M = chamber.infer_type_matrix(neu)
    hit = False
    for y in range(1, 60):
        try:
            verify.w_distance(neu, M, 0, y)
        except NoSuchW as exc:
            assert exc.gallery_types and exc.candidate_words
            hit = True
            break
    assert hit


def test_w_distance_every_pair():
    fano = catalog.build_fano_flags()
    assert all(isinstance(verify.w_distance(fano, coxeter.A2, x, y), coxeter.WElement)
               for x in range(21) for y in range(21))
    neu, _ = catalog.build_neumaier_a7()
    small, _ = chamber.sub_system(neu, neu.residue((1, 2), 0).chambers, (1, 2))
    assert verify.is_building(small, coxeter.A2)[1]["pairs_checked"] == small.n ** 2
    assert all(isinstance(verify.w_distance(small, coxeter.A2, x, y), coxeter.WElement)
               for x in range(small.n) for y in range(small.n))
    two = chamber.from_partitions(2, 2, {1: [(0,), (1,)], 2: [(0,), (1,)]})
    with pytest.raises(Disconnected):
        verify.w_distance(two, coxeter.A2, 0, 1)


def _central_quotient(M):
    table = coxeter.enumerate_group(M)
    C = coxeter.complex_from_table(table)
    w0 = table.longest_id()
    auto = tuple(table.mult_id(w0, e) for e in range(table.order))
    return chamber.quotient(C, [auto])[0]


def _random_system(rng):
    """A random rank-2 or rank-3 system on at most 12 chambers, with panels
    of one to three chambers, and a finite matrix: the inferred one where
    there is one, else a random one of the same rank."""
    rank = rng.choice((2, 3))
    n = rng.randrange(1, 13)
    partitions = {}
    for i in range(1, rank + 1):
        cs = rng.sample(range(n), n)
        partitions[i] = []
        while cs:
            size = rng.choice((1, 2, 2, 3))
            partitions[i].append(cs[:size])
            cs = cs[size:]
    C = chamber.from_partitions(n, rank, partitions)
    try:
        M = chamber.infer_type_matrix(C)
        if coxeter.is_finite(M):
            return C, M
    except ChambersError:
        pass
    if rank == 2:
        return C, rng.choice((coxeter.A1xA1, coxeter.A2, coxeter.C2, coxeter.dihedral(6)))
    return C, rng.choice((coxeter.A3, coxeter.C3, coxeter.H3))


def test_w_distance_propagation_matches_type_sets():
    # second engine: read every row off the minimal-gallery type sets
    systems = [(catalog.build(name)["system"], None) for name in
               ("fano", "gq22", "a3-f2", "neumaier-a7", "singer-quotient-z5")]
    systems += [(coxeter.coxeter_complex(M), M) for M in (coxeter.A3, coxeter.C3, coxeter.H3)]
    systems += [(_central_quotient(M), M) for M in (coxeter.C3, coxeter.H3)]
    rng = random.Random(4)
    systems += [_random_system(rng) for _ in range(300)]
    propagated = fell_back = 0
    for C, M in systems:
        table = coxeter.group_table(M or chamber.infer_type_matrix(C))
        lookup = {s: e for e, s in enumerate(table.reduced_word_sets())}
        for x in range(C.n):
            row, tsets = verify._w_distances_from(C, table, x)
            types = C.minimal_type_sets_from(x)
            assert row == [None if t is None else lookup.get(t) for t in types], (C, M, x)
            # propagation gives up exactly when some type set is no element's
            assert (tsets is None) == all(e is not None for e, t in zip(row, types) if t)
            propagated += tsets is None
            fell_back += tsets is not None
    assert propagated > 1000 and fell_back > 1000


def test_building_verdict_builds_no_type_sets(monkeypatch):
    def refuse(self, x):
        raise AssertionError("type sets built for a building")

    a3 = catalog.build_a3_f2()
    monkeypatch.setattr(chamber.ChamberSystem, "minimal_type_sets_from", refuse)
    ok, report = verify.is_building(a3, coxeter.A3)
    assert ok and report["pairs_checked"] == 315 * 315
    assert verify.w_distance(a3, coxeter.A3, 0, 314).length <= 6


def test_one_table_per_matrix(monkeypatch, tmp_path, capsys):
    # the benchmark resets the memo through verify's name for it
    assert verify._TABLE_CACHE is coxeter._TABLE_CACHE
    calls = []
    enumerate_group = coxeter.enumerate_group

    def counting(M, *args, **kwargs):
        calls.append(M)
        return enumerate_group(M, *args, **kwargs)

    monkeypatch.setattr(coxeter, "_TABLE_CACHE", {})
    monkeypatch.setattr(coxeter, "enumerate_group", counting)
    C = coxeter.coxeter_complex(coxeter.H3)
    ok, _ = verify.is_building(C, coxeter.H3)
    assert ok and verify.w_distance(C, coxeter.H3, 0, C.n - 1).length == 15
    mfile = tmp_path / "h3.json"
    mfile.write_text(json.dumps(coxeter.matrix_to_json(coxeter.H3)))
    assert cli.main(["coxeter", "--matrix", str(mfile), "--order"]) == 0
    assert capsys.readouterr().out == "120\n"
    assert calls == [coxeter.H3]


def _digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_failure_reports_pinned():
    # sha256 of the reports taken before the W-distance was propagated, when
    # every pair was looked up by its minimal-gallery type set
    neu, _ = catalog.build_neumaier_a7()
    z5 = catalog.build("singer-quotient-z5")["system"]
    cases = [
        (neu, chamber.infer_type_matrix(neu), 315,
         "a55a1f2bdcad0754b678f41fcd8c012f0be47d3b36b2219b8003119926d85363"),
        (z5, chamber.infer_type_matrix(z5), 126,
         "2e79006e338f5a988db687f764be702ebd80b40c821b6148278f25cc4ba38f72"),
        (_central_quotient(coxeter.C3), coxeter.C3, 120,
         "570504c6fa0f9cedba42a034f6dab6ea9306f5ffdf6141279c230f8575eb3b68"),
        (catalog.build_fano_flags(), coxeter.C2, 84,
         "5923329fc92d97a3572613a09ec7f3ad8d35c5b64f528d2e192827cd9b26d624"),
    ]
    for C, M, pairs, digest in cases:
        ok, report = verify.is_building(C, M)
        assert not ok and report["truncated"]
        assert len(report["violations"]) == 25 and report["pairs_checked"] == pairs
        assert _digest(report) == digest


def test_is_building_catalog():
    fano = catalog.build_fano_flags()
    assert verify.is_building(fano, coxeter.A2)[0]
    gq = catalog.build_gq22()
    assert verify.is_building(gq, coxeter.C2)[0]
    a3 = catalog.build_a3_f2()
    ok, report = verify.is_building(a3, coxeter.A3)
    assert ok and report["pairs_checked"] == 315 * 315
    neu, _ = catalog.build_neumaier_a7()
    okn, repn = verify.is_building(neu, chamber.infer_type_matrix(neu))
    assert not okn
    assert any(v["kind"] == "no-such-w" for v in repn["violations"])


def test_building_locality():
    # residues of a building are buildings of the restricted type
    a3 = catalog.build_a3_f2()
    res = a3.residue((1, 2), 0)
    sub, _ = chamber.sub_system(a3, res.chambers, (1, 2))
    assert verify.is_building(sub, coxeter.A2)[0]
    res = a3.residue((2, 3), 0)
    sub, _ = chamber.sub_system(a3, res.chambers, (2, 3))
    assert verify.is_building(sub, coxeter.A2)[0]


def test_cover_transfer():
    # a verified covering preserves the rank-2 polygon parameters
    base, quot, proj = catalog.build_singer_quotient(5)
    assert chamber.infer_type_matrix(quot) == chamber.infer_type_matrix(base)


def test_incidence_geometry_counts():
    single = chamber.from_partitions(1, 3, {1: [(0,)], 2: [(0,)], 3: [(0,)]})
    geom = verify.incidence_geometry(single)
    assert len(geom.vertices) == 3
    for v in geom.vertices:
        assert len(geom.adjacency[v]) == 2
    fano = catalog.build_fano_flags()
    gf = verify.incidence_geometry(fano)
    assert len(gf.vertices_of_type(1)) == 7
    assert len(gf.vertices_of_type(2)) == 7
    incidences = sum(len(gf.adjacency[v]) for v in gf.vertices_of_type(1))
    assert incidences == 21
    neu, _ = catalog.build_neumaier_a7()
    gn = verify.incidence_geometry(neu)
    assert len(gn.vertices_of_type(1)) == 7
    assert len(gn.vertices_of_type(2)) == 35
    assert len(gn.vertices_of_type(3)) == 15


def test_shadow():
    fano = catalog.build_fano_flags()
    geom = verify.incidence_geometry(fano)
    line = geom.vertices_of_type(2)[0]
    assert len(verify.shadow(geom, line, 1)) == 3
    neu, _ = catalog.build_neumaier_a7()
    gn = verify.incidence_geometry(neu)
    plane = gn.vertices_of_type(3)[0]
    assert len(verify.shadow(gn, plane, 2)) == 7
    assert len(verify.shadow(gn, plane, 1)) == 7
    with pytest.raises(ValueError):
        verify.shadow(gn, plane, 3)


def test_check_LL():
    a3 = catalog.build_a3_f2()
    geom = verify.incidence_geometry(a3)
    holds, _ = verify.check_LL(geom, 1, 2)
    assert holds
    # buildings of type C3 satisfy (LL) too
    cc3 = coxeter.coxeter_complex(coxeter.C3)
    gc3 = verify.incidence_geometry(cc3)
    q, r, _ = verify.c3_roles(coxeter.C3)
    assert verify.check_LL(gc3, q, r)[0]
    neu, _ = catalog.build_neumaier_a7()
    gn = verify.incidence_geometry(neu)
    holds, wit = verify.check_LL(gn, 1, 2)
    assert not holds
    p, q, x, x2 = wit
    labels = {gn.label(p), gn.label(q)}
    lines = {gn.label(x), gn.label(x2)}
    # two symbols lying on two distinct triples
    assert labels == {1, 2}
    assert lines == {(1, 2, 3), (1, 2, 4)}


def test_c3_roles():
    q, r, t = verify.c3_roles(coxeter.C3)
    assert (q, r, t) == (1, 2, 3)
    relabeled = coxeter.CoxeterMatrix([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    q, r, t = verify.c3_roles(relabeled)
    assert (q, r, t) == (3, 2, 1)
    with pytest.raises(ValueError):
        verify.c3_roles(coxeter.A3)


def test_check_star():
    spec = catalog.a3_f2_spec()
    ok, wit = verify.check_star(spec, 1, 2, system=catalog.build_a3_f2("cosets"))
    assert ok and wit is None
    neu, nspec = catalog.build_neumaier_a7()
    ok, wit = verify.check_star(nspec, 1, 2)
    assert not ok and wit is not None


def test_is_c3_geometry():
    cc3 = coxeter.coxeter_complex(coxeter.C3)
    assert verify.is_c3_geometry(cc3)[0]
    neu, _ = catalog.build_neumaier_a7()
    ok, report = verify.is_c3_geometry(neu)
    assert ok, report
    a3 = catalog.build_a3_f2()
    ok, report = verify.is_c3_geometry(a3)
    assert not ok and "not C3" in report["reason"]
    fano = catalog.build_fano_flags()
    assert not verify.is_c3_geometry(fano)[0]


def test_residually_connected():
    neu, _ = catalog.build_neumaier_a7()
    assert verify.residually_connected(neu)
    assert verify.residually_connected(catalog.build_a3_f2())


def test_central_quotient_needs_gate_axiom():
    # Quotienting the thin C3 complex by its central longest element gives a
    # 24-chamber thin C3 geometry in which every single pair still matches a
    # reduced-word set (the two lifts have lengths L and 9-L, so the shorter
    # route is unique), yet it is not a building.  The gate condition is the
    # part of the W-metric axioms that detects it.
    from chambers import covers

    table = coxeter.enumerate_group(coxeter.C3)
    C = coxeter.complex_from_table(table)
    w0 = table.longest_id()
    auto = tuple(table.mult_id(w0, e) for e in range(table.order))
    Q, proj = chamber.quotient(C, [tuple(range(48)), auto])
    assert Q.n == 24

    assert all(isinstance(verify.w_distance(Q, coxeter.C3, x, y), coxeter.WElement)
               for x in range(24) for y in range(24))
    ok, rep = verify.is_building(Q, coxeter.C3)
    assert not ok
    assert {v["kind"] for v in rep["violations"]} == {"no-gate"}

    # a second C3 geometry that is not a building, with the (LL) failure
    # and the 2-fold cover round trip to match
    assert verify.is_c3_geometry(Q)[0]
    geom = verify.incidence_geometry(Q)
    q, r, _ = verify.c3_roles(coxeter.C3)
    assert not verify.check_LL(geom, q, r)[0]
    res = covers.universal_cover(Q, 0, max_chambers=1000)
    assert res.covering.cover.n == 48
    assert len(res.deck) == 2 and res.regular
    assert chamber.is_isomorphic(res.covering.cover, C)
