import ast
import pathlib

import chambers

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


def _references(tree, name, where):
    """The dotted enclosing def of each use or import of `name` under tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _references(node, name, f"{where}.{node.name}")
            continue
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
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
    assert found == ["coxeter.enumerate_group"]


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
