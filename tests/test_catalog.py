import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import chambers
import corpus
from chambers import catalog, chamber, cli, coxeter, groups, verify
from chambers.errors import ResidueCollision

# sha256 of the bytes `chambers build <name> --out` writes; any change to a
# builder, the chamber order or the JSON layout shows up here
BUILD_DIGESTS = {
    "fano": "4eb85809005d56d4bc10d2649b0b1dd6ded9f3ebf477d9f5e865a4f5ca894ac1",
    "gq22": "b79e4386f6e64b3f479dea4d584293044f71bd746c586829b34eaf7dce33ac11",
    "a3-f2": "62936f6d275433b1b2184ca540ac5395772430875b2400b6ea98cc9f537d890b",
    "a3-f2-cosets": "831d41f473464db4340d8b2caaa7fe100946545e7491cae2dccdf05ca16bf6cc",
    "neumaier-a7": "c3dd845a1c2e1656b070167297d1b80225e6fe771b7fbbc14100728a86018660",
    "singer-quotient-z5": "ef2f90e11dcbae5a95634dbb60123e726cf683309b32fe77f5c6c254e3b430af",
}


def test_catalog_builds_and_validates():
    for name, entry in catalog.CATALOG.items():
        if name == "singer-quotient":
            with pytest.raises(ResidueCollision):
                catalog.build(name)
            continue
        artifacts = catalog.build(name)
        C = artifacts["system"]
        assert C.n == entry.expected["n"]
        assert C.rank == entry.expected["rank"]


@pytest.mark.parametrize("name", sorted(BUILD_DIGESTS))
def test_build_output_is_pinned(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert cli.main(["build", name, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_DIGESTS[name]


def test_wrong_stabilizer_order_raises_under_optimized_mode():
    # `python -O` strips asserts; a stabilizer of the wrong order (here each
    # cut down to the stabilizer of point 0) still stops both coset builds
    script = textwrap.dedent("""
        import sys
        from chambers import catalog, groups
        from chambers.errors import CatalogMismatch
        sieve = groups.stabilizer
        groups.stabilizer = lambda G, pred: sieve(G, lambda g: pred(g) and g[0] == 0)
        for build in (catalog.a3_f2_spec, catalog.build_neumaier_a7):
            try:
                build()
            except CatalogMismatch as exc:
                print(exc)
        print(sys.flags.optimize)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(chambers.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.splitlines() == [
        "minimal parabolic orders: got [64, 192, 192], expected [192, 192, 192]",
        "panel stabilizer orders: got [8, 24, 24], expected [24, 24, 24]",
        "1"]


def test_builds_deterministic():
    before = json.dumps(chamber.system_to_json(catalog.build_fano_flags()), sort_keys=True)
    catalog.build_fano_flags.cache_clear()
    after = json.dumps(chamber.system_to_json(catalog.build_fano_flags()), sort_keys=True)
    assert before == after
    b1 = json.dumps(chamber.system_to_json(catalog.build_neumaier_a7()[0]), sort_keys=True)
    catalog.build_neumaier_a7.cache_clear()
    b2 = json.dumps(chamber.system_to_json(catalog.build_neumaier_a7()[0]), sort_keys=True)
    assert b1 == b2


def test_symplectic_flags_of_rank_3_are_a_c3_geometry():
    # the polar space W(5,2): 63 points, 315 totally isotropic lines and
    # 135 totally isotropic planes of F2^6
    C = catalog.subspace_flags(6, symplectic=True)
    assert C.n == 2835
    assert [len(C.residues(J)) for J in ((2, 3), (1, 3), (1, 2))] == [63, 315, 135]
    assert coxeter.matrix_name(chamber.infer_type_matrix(C)) == "C3"
    assert verify.is_c3_geometry(C)[0]


def test_fano_planes_enumeration():
    planes = catalog.fano_planes_on_7()
    assert len(planes) == 30
    orbit = catalog.a7_plane_orbit()
    assert len(orbit) == 15
    # the chosen orbit contains the lexicographically least plane
    assert catalog._plane_key(planes[0]) == min(map(catalog._plane_key, orbit))


def test_singer_matrix_order():
    v, k = 1, 0
    while True:
        v = catalog.mat_apply(catalog.SINGER_MATRIX, v)
        k += 1
        if v == 1:
            break
    assert k == 15


def test_singer_automorphism_properties():
    base = catalog.build_a3_f2()
    g = catalog.singer_flag_automorphism(1)
    assert sorted(g) == list(range(base.n))
    assert chamber.verify_isomorphism(base, base, g)
    # order 15 on chambers
    cur = tuple(range(base.n))
    for _ in range(15):
        cur = tuple(g[c] for c in cur)
    assert cur == tuple(range(base.n))


def test_explicit_isomorphisms():
    # the coset of g goes to the flag g . f0, f0 the least flag label (the
    # one whose stabilizer is the principal subgroup); a coset system's
    # labels are its coset representatives
    neu, spec = catalog.build_neumaier_a7()
    for cosets, flags, act in (
            (catalog.build_a3_f2_cosets(), catalog.build_a3_f2(), catalog.a3_f2_label_action),
            (chamber.from_cosets(spec), neu, catalog.neumaier_label_action)):
        f0 = min(flags.labels)
        m = catalog.label_map(cosets.labels, flags, lambda g: act(g, f0))
        assert chamber.verify_isomorphism(cosets, flags, m)


def test_generic_isomorphism_search_a3f2():
    a3 = catalog.build_a3_f2()
    a3c = catalog.build_a3_f2_cosets()
    assert chamber.isomorphism(a3, a3c) is not None


def test_a3f2_coset_entry_differs_from_flags_only_in_labels():
    # so the cross-engine tests, which read panels only, leave it out
    flags, cosets = (catalog.build(name)["system"] for name in ("a3-f2", "a3-f2-cosets"))
    assert flags.panels == cosets.panels and flags.labels != cosets.labels


def test_neumaier_vertex_groups_match_derived():
    _, spec = catalog.build_neumaier_a7()
    for j in spec.types:
        supplied = spec.vertex[j]
        derived = groups.subgroup_generated(
            spec.group,
            [g for i, F in sorted(spec.faces.items()) if i != j for g in F.elements])
        assert supplied.set == derived.set


def test_neumaier_point_residue_is_gq22():
    neu, _ = catalog.build_neumaier_a7()
    res = neu.residue((2, 3), 0)
    assert len(res.chambers) == 45
    sub, _ = corpus.sub_system(neu, res.chambers, (2, 3))
    assert chamber.infer_type_matrix(sub).order(1, 2) == 4
    assert chamber.isomorphism(sub, catalog.build_gq22()) is not None
    # a generalized quadrangle of order (2,2): panels of size 3 throughout
    assert all(len(p) == 3 for i in sub.types for p in sub.panels[i])


def test_neumaier_plane_residue_is_fano():
    neu, _ = catalog.build_neumaier_a7()
    res = neu.residue((1, 2), 0)
    assert len(res.chambers) == 21
    sub, _ = corpus.sub_system(neu, res.chambers, (1, 2))
    assert chamber.infer_type_matrix(sub).order(1, 2) == 3
    assert all(len(p) == 3 for i in sub.types for p in sub.panels[i])


def test_line_residues_are_digons():
    neu, _ = catalog.build_neumaier_a7()
    res = neu.residue((1, 3), 0)
    assert len(res.chambers) == 9
    sub, _ = corpus.sub_system(neu, res.chambers, (1, 3))
    assert chamber.infer_type_matrix(sub).order(1, 2) == 2
