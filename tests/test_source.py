import ast
import pathlib
import sys

import chambers
from chambers import errors

SRC = pathlib.Path(chambers.__file__).parent


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so a library check must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) >= 9
    assert found == []


def test_library_imports_only_the_standard_library():
    # the runtime stays dependency-free: every absolute import names a
    # standard-library module; the library's own modules import relatively
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module))
    assert len(found) >= 20
    assert [(f, m) for f, m in found if m.partition(".")[0] not in sys.stdlib_module_names] == []


def _references(tree, name, where):
    """The dotted enclosing def of each use or import of `name` under tree;
    a dotted name such as `groups.orbit` matches that attribute only."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _references(node, name, f"{where}.{node.name}")
            continue
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and name in (node.attr, ast.unparse(node))
                or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            found.append(where)
        found += _references(node, name, where)
    return found


def test_flag_systems_come_from_two_builders():
    # subspace flags have one builder; the A7 geometry lists its own flags
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _references(ast.parse(path.read_text(), str(path)), "_flag_system", path.stem)
    assert found == ["catalog.subspace_flags", "catalog.build_neumaier_a7"]


def test_braid_closure_serves_only_group_enumeration():
    # the word API walks group tables; braid closure names new elements
    # while `enumerate_group` builds a table, and nowhere else
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _references(ast.parse(path.read_text(), str(path)), "_braid_class", path.stem)
    assert found == ["coxeter.enumerate_group.climb"]


def test_one_level_loop_builds_every_coxeter_table():
    # enumeration and relabelling share the ShortLex level scan and differ
    # only in how they name e * r_i; no second level loop is left
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _references(ast.parse(path.read_text(), str(path)), "_level_table", path.stem)
        assert "_relabelled_table" not in path.read_text(), path.name
    assert found == ["coxeter.enumerate_group", "coxeter.group_table"]


def test_rank2_kernel_serves_residue_gonalities_and_incidence_stats():
    # one level-synchronous pass per type pair: the cached residue
    # gonalities (type inference, building and C3 checks) and the rank-2
    # incidence statistics call it, and nothing else does
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _references(ast.parse(path.read_text(), str(path)),
                             "_residue_girths_and_diameters", path.stem)
    assert found == ["chamber.ChamberSystem._residue_gonalities", "chamber.incidence_graph_stats"]
    for gone in ("_panel_graph", "_girth_and_diameter", "_gonality"):
        assert all(gone not in path.read_text() for path in SRC.glob("*.py")), gone


def test_rank3_checks_read_the_one_vertex_map():
    # a vertex is a corank-1 residue, read off chamber_vertices by the
    # simpliciality check, the (LL) and isotropy checks and the CLI's
    # witness labels; no second vertex map (an incidence-geometry class,
    # its constructor and shadows) is left in the library
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += _references(tree, "chamber_vertices", path.stem)
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for gone in ("IncidenceGeometry", "incidence_geometry", "shadow"):
            assert gone not in defined and not _references(tree, gone, path.stem), gone
    assert found == ["chamber.is_simplicial", "cli._vertex_labels",
                     "verify", "verify.check_LL", "verify.check_star"]


def test_one_w_distance_engine():
    # delta(x, .) is propagated on the group table and a failure is its own
    # witness; no minimal-gallery type sets, whole-group reduced-word sets
    # or type-set budget are left in the library (tests/corpus.py keeps the
    # type sets as the oracle)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for gone in ("minimal_type_sets_from", "_TYPE_SET_CAP", "reduced_word_sets",
                     "type-set-budget"):
            assert gone not in text, (path.name, gone)


def test_engines_walk_panels_not_adjacency_lists():
    # the sorted panels and one panel index per type are the one layout:
    # breadth-first walks, galleries, the W-distance and the isomorphism
    # search read panels[idx[c]], and `adjacency()` is a view no library
    # code calls; no per-chamber neighbour list is cached
    found, defined = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(name, where) for name in ("adjacency", "_adj")
                  for where in _references(tree, name, path.stem)]
        defined += [f"{path.stem}.{node.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "adjacency"]
    assert defined == ["chamber.adjacency"]
    assert found == []


def test_one_json_loader_for_chamber_systems():
    # labels are carried as given both ways, so no label converter or
    # second system writer is left; every CLI command that reads a system
    # file loads it with chamber.system_from_json
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for gone in ("_tupled", "_jsonable", "_system_json"):
            assert gone not in text, (path.name, gone)
    tree = ast.parse((SRC / "cli.py").read_text())
    readers, loaders = [], []
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "file":
                readers.append(node.name)
            if (isinstance(sub, ast.Call) and ast.unparse(sub.func) == "chamber.system_from_json"
                    and [ast.unparse(a) for a in sub.args] == ["_load_json(args.file)"]):
                loaders.append(node.name)
    assert readers == loaders == ["cmd_check", "cmd_cover", "cmd_quotient", "cmd_report"]


def test_one_map_extension_engine():
    # the colouring search extends partial chamber maps through panels:
    # the isomorphism search colours by panel and residue sizes, the deck
    # search by the covering map; no second extension engine is left in
    # the library (tests/test_covers.py keeps the forced extension as the
    # factorization reference)
    found = []
    for path in sorted(SRC.glob("*.py")):
        assert "_extend_commuting" not in path.read_text(), path.name
        found += _references(ast.parse(path.read_text(), str(path)), "_isomorphism", path.stem)
    assert found == ["chamber.isomorphism", "covers", "covers.deck_transformations"]


def test_one_closure_routine():
    # `groups.orbit` closes groups, and its orbits are the diagram
    # components, the quotient orbits, the building check's automorphism
    # orbits and the catalog's plane orbits; braid closure is the one
    # closure left beside it
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _references(ast.parse(path.read_text(), str(path)), "groups.orbit", path.stem)
    assert sorted(set(found)) == ["catalog.a7_plane_orbit", "catalog.fano_planes_on_7",
                                  "chamber.quotient", "coxeter.diagram_components",
                                  "verify.is_building"]


def _defs(tree, where):
    """Each def and class under tree by its dotted name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{where}.{node.name}", node
            yield from _defs(node, f"{where}.{node.name}")


def test_one_grouping_routine_builds_derived_panels():
    # flag systems, quotients, thin complexes, universal covers and residue
    # lists group chamber ids by one key per chamber with _chambers_by_key,
    # whose order is the one ChamberSystem keeps, and none of them sorts
    # or deduplicates panels itself: the flag sort numbers the chambers,
    # and the quotient's set is its residue test
    builders = ["catalog._flag_system", "chamber.ChamberSystem.residues", "chamber.quotient",
                "covers.universal_cover", "coxeter.complex_from_table"]
    found, sorting = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += _references(tree, "_chambers_by_key", path.stem)
        for name, node in _defs(tree, path.stem):
            if name in builders:
                sorting[name] = [ast.unparse(sub) for sub in ast.walk(node)
                                 if isinstance(sub, ast.SetComp) or isinstance(sub, ast.Call) and (
                                     ast.unparse(sub.func) in ("sorted", "set")
                                     or isinstance(sub.func, ast.Attribute)
                                     and sub.func.attr == "sort")]
    assert sorted(set(found) - {"catalog", "covers"}) == builders
    assert sorting == {"catalog._flag_system": ["sorted(flags)"],
                       "chamber.ChamberSystem.residues": [], "chamber.quotient": ["set(keys)"],
                       "covers.universal_cover": [], "coxeter.complex_from_table": []}


def test_one_error_for_every_cap():
    # CapExceeded is only the old name of BudgetExceeded, kept for callers
    # outside the library
    assert errors.CapExceeded is errors.BudgetExceeded
    named = [path.name for path in sorted(SRC.glob("*.py")) if "CapExceeded" in path.read_text()]
    assert named == ["errors.py"]


def test_every_module_level_import_is_used():
    # the package's __init__ imports only to export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound, todo = [], list(tree.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound += [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                todo += ast.iter_child_nodes(node)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in bound if name not in used]
    assert unused == []
