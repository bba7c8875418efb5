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
