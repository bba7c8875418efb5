import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest

import corpus
from chambers import catalog, chamber, cli, coxeter, verify
from chambers.errors import BudgetExceeded, ChambersError, Disconnected, NoSuchW, WrongRank


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


def test_type_matrix_of_another_rank_is_refused():
    fano, a3 = catalog.build_fano_flags(), catalog.build_a3_f2()
    for check in (lambda: verify.is_building(fano, coxeter.A3),
                  lambda: verify.is_building(a3, coxeter.A2),
                  lambda: verify.w_distance(fano, coxeter.A3, 0, 5),
                  lambda: verify.w_distance(a3, coxeter.A2, 0, 5)):
        with pytest.raises(WrongRank):
            check()


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
    small, _ = corpus.sub_system(neu, neu.residue((1, 2), 0).chambers, (1, 2))
    # one automorphism orbit, so one source is scanned
    assert verify.is_building(small, coxeter.A2)[1]["pairs_checked"] == small.n == 21
    assert all(isinstance(verify.w_distance(small, coxeter.A2, x, y), coxeter.WElement)
               for x in range(small.n) for y in range(small.n))
    two = chamber.from_partitions(2, 2, {1: [(0,), (1,)], 2: [(0,), (1,)]})
    with pytest.raises(Disconnected):
        verify.w_distance(two, coxeter.A2, 0, 1)


def test_w_distance_propagation_matches_type_sets():
    # second engine: read every row off the minimal-gallery type sets
    # thin D4's type sets take seconds
    systems = [(C, None) for C in corpus.named_systems(thin_types=corpus.THIN[:-1])]
    rng = random.Random(4)
    systems += [corpus.random_system(rng) for _ in range(300)]
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

    # a freshly loaded system, so no cache of a shared one answers
    a3 = chamber.system_from_json(chamber.system_to_json(catalog.build_a3_f2()))
    monkeypatch.setattr(chamber.ChamberSystem, "minimal_type_sets_from", refuse)
    ok, report = verify.is_building(a3, coxeter.A3)
    assert ok and report["pairs_checked"] == 315
    assert verify.w_distance(a3, coxeter.A3, 0, 314).length <= 6


def test_one_table_per_matrix(monkeypatch, tmp_path, capsys):
    # the benchmark resets the memo through verify's name for it
    assert verify._TABLE_CACHE is coxeter._TABLE_CACHE
    calls = []
    enumerate_group = coxeter.enumerate_group

    def counting(M, *args, **kwargs):
        calls.append(M)
        return enumerate_group(M, *args, **kwargs)

    cache = {}
    monkeypatch.setattr(coxeter, "_TABLE_CACHE", cache)
    monkeypatch.setattr(verify, "_TABLE_CACHE", cache)
    monkeypatch.setattr(coxeter, "enumerate_group", counting)
    C = coxeter.coxeter_complex(coxeter.H3)
    ok, _ = verify.is_building(C, coxeter.H3)
    assert ok and verify.w_distance(C, coxeter.H3, 0, C.n - 1).length == 15
    mfile = tmp_path / "h3.json"
    mfile.write_text(json.dumps(coxeter.matrix_to_json(coxeter.H3)))
    assert cli.main(["coxeter", "--matrix", str(mfile), "--order"]) == 0
    assert capsys.readouterr().out == "120\n"
    # a relabelling of H3 is read off H3's table, with no second enumeration
    H3r = corpus.relabelled(coxeter.H3, (3, 1, 2))
    assert coxeter.group_table(H3r).order == 120 and H3r != coxeter.H3
    assert calls == [coxeter.H3]
    # clearing the memo by verify's name drops the per-diagram entries too
    verify._TABLE_CACHE.clear()
    assert coxeter.group_table(H3r).order == 120
    assert calls == [coxeter.H3, H3r]


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
        (corpus.central_quotient(coxeter.C3), coxeter.C3, 120,
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
    assert ok and report["pairs_checked"] == 315
    neu, _ = catalog.build_neumaier_a7()
    okn, repn = verify.is_building(neu, chamber.infer_type_matrix(neu))
    assert not okn
    assert any(v["kind"] == "no-such-w" for v in repn["violations"])


def _all_sources_is_building(C, M):
    """The building check with a full scan from every source: the reference
    engine of the one-source-per-orbit scan, which must give the same
    verdict, violations and truncation from at most as many pairs."""
    report = {"building": False, "violations": [], "pairs_checked": 0, "truncated": False}

    def add(v):
        if len(report["violations"]) < verify._MAX_VIOLATIONS:
            report["violations"].append(v)
        else:
            report["truncated"] = True

    if not C.is_connected():
        add({"kind": "disconnected"})
        return False, report
    report["type_matrix"] = [list(r) for r in M.rows]
    ok = True
    for i in C.types:
        for panel in C.panels[i]:
            if len(panel) < 2:
                add({"kind": "thin-panel", "type": i, "panel": list(panel)})
                ok = False
    for i, j in itertools.combinations(C.types, 2):
        for least, m in C._residue_gonalities(i, j):
            if m != M.order(i, j):
                add({"kind": "bad-residue", "types": [i, j], "chamber": least,
                     "expected": M.order(i, j), "got": m})
                ok = False
    table = coxeter.group_table(M)
    for x in range(C.n):
        if report["truncated"]:
            break
        try:
            delta, tsets = verify._w_distances_from(C, table, x)
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
                lens = [len(table.elements[delta[y]]) for y in panel]
                if lens.count(min(lens)) > 1:
                    add({"kind": "no-gate", "source": x, "type": i, "panel": list(panel)})
                    ok = False
    report["building"] = ok
    return ok, report


def _assert_same_verdict(C, M):
    """The orbit scan against the all-sources scan; returns both pair counts."""
    ok, report = verify.is_building(C, M)
    want_ok, want = _all_sources_is_building(C, M)
    got = dict(report)
    assert ok == want_ok and got.pop("pairs_checked") <= want.pop("pairs_checked"), C
    assert got == want, C
    return report["pairs_checked"], C.n ** 2


def _finite_matrix(C, rng):
    """C's inferred matrix if it is finite, else a finite one of C's rank."""
    try:
        M = chamber.infer_type_matrix(C)
        if coxeter.is_finite(M):
            return M
    except ChambersError:
        pass
    return rng.choice({2: (coxeter.A2, coxeter.C2), 3: (coxeter.A3, coxeter.C3),
                       4: (corpus.A4, corpus.D4)}[C.rank])


def test_orbit_scan_matches_all_sources():
    rng = random.Random(19)
    named = corpus.named_systems()
    named += [corpus.shuffled_union(rng, C) for C in named]
    scanned = total = 0
    for C in named:
        pairs, full = _assert_same_verdict(C, chamber.infer_type_matrix(C))
        scanned, total = scanned + pairs, total + full
    # the buildings among them have a chamber-transitive group: one source each
    assert 20 * scanned < total
    skipped = 0
    for _ in range(300):
        C = corpus.random_connected_system(rng)
        pairs, full = _assert_same_verdict(C, _finite_matrix(C, rng))
        skipped += pairs < full
    # systems checked against a matrix they do not have, too: sources fail
    # in every way, and some pass and have automorphisms
    for _ in range(300):
        pairs, full = _assert_same_verdict(*corpus.random_system(rng))
        skipped += pairs < full
    assert skipped > 100


def test_failing_first_source_searches_no_automorphism(monkeypatch):
    def refuse(*args):
        raise AssertionError("automorphism search after a failing source")

    monkeypatch.setattr(verify, "isomorphism", refuse)
    monkeypatch.setattr(verify, "_chamber_invariant", refuse)
    for name in ("neumaier-a7", "singer-quotient-z5"):
        C = catalog.build(name)["system"]
        assert not verify.is_building(C, chamber.infer_type_matrix(C))[0]


def test_building_check_computes_the_chamber_invariant_once(monkeypatch):
    # the invariant is cached on the system: the automorphism searches
    # reuse the one the scan computed
    C = chamber.system_from_json(chamber.system_to_json(catalog.build_a3_f2()))
    counted, searches = [], []
    monkeypatch.setattr(chamber, "Counter", lambda m: counted.append(m) or Counter(m))
    isomorphism = verify.isomorphism
    monkeypatch.setattr(verify, "isomorphism", lambda *a: searches.append(a) or isomorphism(*a))
    assert verify.is_building(C)[0]
    # one Counter per panel type and per pair of types
    assert searches and len(counted) == C.rank + math.comb(C.rank, 2)


def test_orbit_scan_exact_without_searches(monkeypatch):
    # a search that finds nothing only leaves more sources to scan
    isomorphism = chamber.isomorphism
    monkeypatch.setattr(verify, "isomorphism",
                        lambda A, B, start, budget: isomorphism(A, B, start, 0))
    for C in corpus.named_systems(thin_types=corpus.THIN[:3]):
        M = chamber.infer_type_matrix(C)
        ok, report = verify.is_building(C, M)
        assert (ok, report) == _all_sources_is_building(C, M), C
        assert not ok or report["pairs_checked"] == C.n ** 2


def test_pg42_building_verdict():
    # 9,765 chambers, one automorphism orbit: one source scanned
    C = corpus.pg42()
    ok, report = verify.is_building(C, budget=10 ** 4)
    assert ok and report["pairs_checked"] == 9765 and report["violations"] == []
    assert report["type_matrix"] == [list(r) for r in corpus.A4.rows]
    with pytest.raises(BudgetExceeded):
        verify.is_building(C)


def test_is_building_thin_panels_and_inferred_type():
    # a gallery of three chambers: one singleton panel per type, and its
    # one rank-2 residue is a path, not a hexagon
    path = chamber.from_partitions(3, 2, {1: [(0, 1), (2,)], 2: [(0,), (1, 2)]})
    ok, report = verify.is_building(path, coxeter.A2)
    assert not ok
    assert report["violations"] == [
        {"kind": "thin-panel", "type": 1, "panel": [2]},
        {"kind": "thin-panel", "type": 2, "panel": [0]},
        {"kind": "bad-residue", "types": [1, 2], "chamber": 0, "expected": 3, "got": None}]
    # M left out: inferred from the residues
    single = chamber.from_partitions(1, 1, {1: [(0,)]})
    ok, report = verify.is_building(single)
    assert not ok and report["type_matrix"] == [[1]]
    assert report["violations"] == [{"kind": "thin-panel", "type": 1, "panel": [0]}]
    fano = catalog.build_fano_flags()
    assert verify.is_building(fano) == verify.is_building(fano, coxeter.A2)
    assert verify.is_building(fano)[1]["type_matrix"] == [[1, 3], [3, 1]]


def test_building_locality():
    # residues of a building are buildings of the restricted type
    a3 = catalog.build_a3_f2()
    res = a3.residue((1, 2), 0)
    sub, _ = corpus.sub_system(a3, res.chambers, (1, 2))
    assert verify.is_building(sub, coxeter.A2)[0]
    res = a3.residue((2, 3), 0)
    sub, _ = corpus.sub_system(a3, res.chambers, (2, 3))
    assert verify.is_building(sub, coxeter.A2)[0]


def test_cover_transfer():
    # a verified covering preserves the rank-2 polygon parameters
    base, quot, proj = catalog.build_singer_quotient(5)
    assert chamber.infer_type_matrix(quot) == chamber.infer_type_matrix(base)


def _vertices(C, t):
    """The type-t vertices of C as (t, id) pairs, read off chamber_vertices."""
    return sorted({(t, vs[t - 1]) for vs in chamber.chamber_vertices(C)})


def _shadow(C, v, t):
    """The type-t vertices incident to v: those of v's chambers."""
    return {(t, vs[t - 1]) for vs in chamber.chamber_vertices(C) if vs[v[0] - 1] == v[1]}


def test_vertex_counts():
    single = chamber.from_partitions(1, 3, {1: [(0,)], 2: [(0,)], 3: [(0,)]})
    assert chamber.chamber_vertices(single) == [(0, 0, 0)]
    fano = catalog.build_fano_flags()
    assert len(_vertices(fano, 1)) == len(_vertices(fano, 2)) == 7
    # a flag is one incidence, and the vertex tuples of the flags differ
    assert len(set(chamber.chamber_vertices(fano))) == 21
    neu, _ = catalog.build_neumaier_a7()
    assert [len(_vertices(neu, t)) for t in neu.types] == [7, 35, 15]


def test_shadow():
    fano = catalog.build_fano_flags()
    assert len(_shadow(fano, _vertices(fano, 2)[0], 1)) == 3
    neu, _ = catalog.build_neumaier_a7()
    plane = _vertices(neu, 3)[0]
    assert len(_shadow(neu, plane, 2)) == 7
    assert len(_shadow(neu, plane, 1)) == 7


def test_check_LL():
    a3 = catalog.build_a3_f2()
    holds, _ = verify.check_LL(a3, 1, 2)
    assert holds
    # buildings of type C3 satisfy (LL) too
    cc3 = coxeter.coxeter_complex(coxeter.C3)
    q, r, _ = verify.c3_roles(coxeter.C3)
    assert verify.check_LL(cc3, q, r)[0]
    neu, _ = catalog.build_neumaier_a7()
    holds, wit = verify.check_LL(neu, 1, 2)
    assert not holds
    p, q, x, x2 = wit
    assert p[0] == q[0] == 1 and x[0] == x2[0] == 2
    assert {p, q} <= _shadow(neu, x, 1) & _shadow(neu, x2, 1)
    labels = cli._vertex_labels(neu, wit)
    # two symbols lying on two distinct triples
    assert set(labels[:2]) == {1, 2}
    assert set(labels[2:]) == {(1, 2, 3), (1, 2, 4)}


@pytest.mark.parametrize("roles", [(1, 5), (5, 2), (0, 2), (True, 2), (1, True), (2, 2)])
@pytest.mark.parametrize("check", ["check_LL", "check_star"])
def test_role_types_are_checked(check, roles):
    # a role outside 1..rank used to pass vacuously, and True read as type 1
    neu, spec = catalog.build_neumaier_a7()
    args = (neu, *roles) if check == "check_LL" else (spec, *roles)
    with pytest.raises(TypeError if bool in map(type, roles) else ValueError):
        getattr(verify, check)(*args)


def test_c3_roles():
    assert verify.c3_roles(coxeter.C3) == (1, 2, 3)
    # old type t moves to place perm.index(t) + 1, and its role goes with it
    for perm in itertools.permutations((1, 2, 3)):
        roles = tuple(perm.index(t) + 1 for t in (1, 2, 3))
        assert verify.c3_roles(corpus.relabelled(coxeter.C3, perm)) == roles
    for M in (coxeter.A3, coxeter.H3, coxeter.A1xA1, corpus.A1xA2):
        with pytest.raises(ValueError):
            verify.c3_roles(M)


def test_check_star():
    spec = catalog.a3_f2_spec()
    ok, wit = verify.check_star(spec, 1, 2, system=catalog.build_a3_f2_cosets())
    assert ok and wit is None
    neu, nspec = catalog.build_neumaier_a7()
    ok, wit = verify.check_star(nspec, 1, 2)
    assert not ok and wit is not None


def test_check_star_pinned_for_every_role_pair():
    # verdicts and witnesses of every (point, line) role pair on both coset
    # models, as reading each vertex's least chamber by a scan gave them
    pinned = {
        "a3": [(True, None),
               (False, ((3, 0), (1, 0), (1, 1),
                        (0, 1, 2, 7, 8, 9, 10, 3, 4, 5, 6, 11, 12, 13, 14))),
               (True, None),
               (True, None),
               (False, ((1, 0), (3, 0), (3, 1),
                        (1, 0, 2, 3, 5, 4, 6, 7, 9, 8, 10, 11, 13, 12, 14))),
               (True, None)],
        "neumaier": [(False, ((2, 0), (1, 0), (1, 1), (0, 1, 3, 2, 4, 6, 5))),
                     (False, ((3, 0), (1, 0), (1, 1), (0, 1, 2, 3, 5, 6, 4))),
                     (False, ((1, 0), (2, 0), (2, 1), (1, 0, 2, 3, 4, 6, 5))),
                     (True, None),
                     (False, ((1, 0), (3, 0), (3, 1), (1, 2, 0, 3, 5, 6, 4))),
                     (True, None)],
    }
    specs = {"a3": (catalog.a3_f2_spec(), catalog.build_a3_f2_cosets()),
             "neumaier": (catalog.build_neumaier_a7()[1], None)}
    roles = [(p, l) for p in (1, 2, 3) for l in (1, 2, 3) if p != l]
    for name, (spec, system) in specs.items():
        got = [verify.check_star(spec, p, l, system=system) for p, l in roles]
        assert got == pinned[name], name


def test_vertex_labels_match_a_merge_on_named_systems():
    # the CLI's witness labels against a chamber-by-chamber merge of the
    # label tuples, for every vertex
    labelled = 0
    for C in corpus.named_systems():
        verts = chamber.chamber_vertices(C)
        labels = {}
        if C.labels is not None and all(isinstance(x, tuple) and len(x) == C.rank
                                        for x in C.labels):
            for c in range(C.n):
                for ti, vid in enumerate(verts[c]):
                    v, lab = (ti + 1, vid), C.labels[c][ti]
                    labels[v] = None if v in labels and labels[v] != lab else labels.get(v, lab)
        vertices = sorted({(t, vs[t - 1]) for vs in verts for t in C.types})
        assert cli._vertex_labels(C, vertices) == [labels.get(v) for v in vertices]
        labelled += any(v is not None for v in labels.values())
    assert labelled >= 3


def _renumbered(C, rng):
    """C with its chambers renumbered at random, labels moved along."""
    new = list(range(C.n))
    rng.shuffle(new)
    partitions = {i: [tuple(new[c] for c in p) for p in C.panels[i]] for i in C.types}
    labels = [None] * C.n
    for c, lab in enumerate(C.labels):
        labels[new[c]] = lab
    return chamber.from_partitions(C.n, C.rank, partitions, labels=labels)


def test_check_star_on_renumbered_coset_system():
    # the criterion reads each chamber's coset representative from the
    # labels, so renumbering the chambers keeps the verdict
    spec = catalog.a3_f2_spec()
    C = chamber.from_cosets(spec)
    rng = random.Random(1020)
    for _ in range(5):
        assert verify.check_star(spec, 1, 2, system=_renumbered(C, rng)) == (True, None)
    _, nspec = catalog.build_neumaier_a7()
    ok, _ = verify.check_star(nspec, 1, 2, system=_renumbered(chamber.from_cosets(nspec), rng))
    assert not ok
    unlabelled = chamber.from_partitions(C.n, C.rank, C.panels)
    with pytest.raises(ValueError, match="no labels"):
        verify.check_star(spec, 1, 2, system=unlabelled)
    foreign = list(C.labels)
    foreign[7] = tuple(range(15))[::-1]       # reverses the 15 points: not in GL(4,2)
    with pytest.raises(ValueError, match="not an element"):
        verify.check_star(spec, 1, 2, system=chamber.from_partitions(
            C.n, C.rank, C.panels, labels=foreign))


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


def test_central_quotient_needs_gate_axiom():
    # Quotienting the thin C3 complex by its central longest element gives a
    # 24-chamber thin C3 geometry in which every single pair still matches a
    # reduced-word set (the two lifts have lengths L and 9-L, so the shorter
    # route is unique), yet it is not a building.  The gate condition is the
    # part of the W-metric axioms that detects it.
    from chambers import covers

    C, Q = corpus.thin(coxeter.C3), corpus.central_quotient(coxeter.C3)
    assert Q.n == 24

    assert all(isinstance(verify.w_distance(Q, coxeter.C3, x, y), coxeter.WElement)
               for x in range(24) for y in range(24))
    ok, rep = verify.is_building(Q, coxeter.C3)
    assert not ok
    assert {v["kind"] for v in rep["violations"]} == {"no-gate"}

    # a second C3 geometry that is not a building, with the (LL) failure
    # and the 2-fold cover round trip to match
    assert verify.is_c3_geometry(Q)[0]
    q, r, _ = verify.c3_roles(coxeter.C3)
    assert not verify.check_LL(Q, q, r)[0]
    res = covers.universal_cover(Q, 0, max_chambers=1000)
    assert res.covering.cover.n == 48
    assert len(res.deck) == 2 and res.regular
    assert chamber.is_isomorphic(res.covering.cover, C)
