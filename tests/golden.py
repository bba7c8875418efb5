"""Golden CLI transcripts: for each (argv, input) row, the exit code, the
sha256 of stdout and the first line of stderr of `cli.main`, run in
process.  `tests/test_golden.py` runs every row and compares it with
`tests/golden.json`; a change that alters an answer on purpose rewrites
the table with

    PYTHONPATH=src python tests/golden.py

and names every changed row and why.

The rows: `build` of every catalog entry; seven system commands (`check`
with every check, with all but `--ll`, and `--ll` with given roles,
`cover`, and `report` as JSON, DOT and incidence DOT) on every buildable catalog entry, the thin
complexes of `corpus.THIN`, three disjoint hexagons and the Ã2 torus;
`coxeter --order` and `--complex` on sixteen matrices; `quotient` of
a3-f2 by its Singer subgroups; four commands on malformed or oddly
labelled files, one of them with labels nested 10^5 deep; and a type-only
`check` and `cover` on the PG(4,2) flags.
B4 is left out of the matrices: a fresh table of it costs seconds.

Where stderr is the interpreter's own text (a `TypeError` from `int()`,
a `KeyError`, a JSON decoding error), which differs between Python
versions, the table keeps only its `input error:` or `error: <Type>:`
prefix.  The text is the library's own when the exception came from a
`raise` statement in the package.
"""

import contextlib
import hashlib
import io
import json
import linecache
import pathlib
import sys

import corpus
from chambers import catalog, chamber, cli
from chambers.coxeter import A1, A2, A3, C3, H3, INFINITY, CoxeterMatrix, dihedral

TABLE = pathlib.Path(__file__).with_name("golden.json")
PACKAGE = pathlib.Path(cli.__file__).parent

SYSTEM_COMMANDS = (
    ("check", "--building", "--c3", "--ll", "--simplicial"),
    # --ll without roles exits 2 on a type that is not C3, before any check
    ("check", "--building", "--c3", "--simplicial"),
    ("check", "--ll", "--points", "1", "--lines", "2"),
    ("cover",),
    ("report", "--format", "json"),
    ("report", "--format", "dot"),
    ("report", "--format", "dot", "--incidence"),
)
MALFORMED_COMMANDS = (SYSTEM_COMMANDS[0], ("cover",), SYSTEM_COMMANDS[4], SYSTEM_COMMANDS[5])

MATRICES = {
    "A1": A1, "A2": A2, "A3": A3, "C3": C3, "H3": H3, "A4": corpus.A4, "D4": corpus.D4,
    "D4-relabelled": corpus.relabelled(corpus.D4, (2, 4, 1, 3)),
    "A1xA2": corpus.A1xA2, "A1xA3": corpus.A1xA3, "A2xA2": corpus.A2xA2, "A1x3": corpus.A1x3,
    "I2(7)": dihedral(7), "I2(inf)": dihedral(INFINITY),
    "affine-A2": CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]]), "rank-0": CoxeterMatrix([]),
}


def _three_hexagons():
    """Three disjoint thin hexagons: a rank-2 system that is not connected."""
    hexagon = [[[0, 1], [2, 3], [4, 5]], [[1, 2], [3, 4], [5, 0]]]
    panels = {str(i + 1): [[c + 6 * k for c in p] for k in range(3) for p in hexagon[i]]
              for i in range(2)}
    return {"rank": 2, "n": 18, "panels": panels}


def _malformed(fano):
    """Files that the system commands must refuse or read oddly: variants
    of the fano system's JSON, and raw bytes: text that is no JSON, and
    labels nested deeper than the decoder can recurse."""
    labels = fano["labels"]

    def with_(**changes):
        return {**fano, **changes}

    panels = fano["panels"]
    return {
        "labels-5": with_(labels=5),
        "labels-true": with_(labels=True),
        "labels-null": with_(labels=None),
        "labels-short": with_(labels=labels[:-1]),
        "labels-long": with_(labels=labels + labels[:1]),
        "labels-string": with_(labels="abc"),
        "labels-object": with_(labels={"a": 1}),
        "labels-wrapped": with_(labels=[{"label": lab} for lab in labels]),
        "labels-one-string": with_(labels=labels[:3] + ["x"] + labels[4:]),
        "top-list": [fano],
        "top-string": "fano",
        "not-json": b"{",
        "nested-deep": json.dumps(with_(labels="deep")).replace(
            '"deep"', "[" * 10 ** 5 + "]" * 10 ** 5).encode(),
        "panels-number": with_(panels=5),
        "panels-list": with_(panels=[panels["1"], panels["2"]]),
        "panel-out-of-range": with_(panels={**panels, "1": [[0, 99]] + panels["1"][1:]}),
        "panel-repeat": with_(panels={**panels, "1": [[0, 1, 0]] + panels["1"][1:]}),
        "panel-bools": with_(panels={**panels, "1": [[False, True]] + panels["1"][1:]}),
        "panel-float": with_(panels={**panels, "1": [[0, 1.5]] + panels["1"][1:]}),
        "type-missing": with_(panels={"1": panels["1"]}),
        "type-twice": with_(panels={**panels, "01": panels["1"]}),
        "rank-true": with_(rank=True),
        "rank-0-many": {"rank": 0, "n": 5, "panels": {}},
        "empty": {"rank": 2, "n": 0, "panels": {"1": [], "2": []}},
        "no-panels": {"rank": 2, "n": 21},
    }


def inputs():
    """The input files by name, as JSON values (bytes are raw file text),
    and the rows as argv tuples with each input named by its file name."""
    systems = {name: chamber.system_to_json(catalog.build(name)["system"])
               for name in sorted(catalog.CATALOG) if name != "singer-quotient"}
    for name, M in zip(("A3", "C3", "H3", "A4", "D4"), corpus.THIN):
        systems[f"thin-{name}"] = chamber.system_to_json(corpus.thin(M))
    systems["three-hexagons"] = _three_hexagons()
    systems["torus"] = chamber.system_to_json(corpus.torus())
    files = dict(systems)
    rows = [("build", name) for name in sorted(catalog.CATALOG)]
    for name in systems:
        for command in SYSTEM_COMMANDS:
            if command == ("cover",) and name == "torus":
                # its universal cover is the infinite Ã2 complex: the gluer truncates
                command = ("cover", "--max-chambers", "1000")
            rows.append((command[0], f"{name}.json", *command[1:]))
    for name, M in MATRICES.items():
        files[f"m-{name}"] = {"rank": M.rank, "m": [list(r) for r in M.rows]}
        rows += [("coxeter", "--matrix", f"m-{name}.json", flag) for flag in ("--order", "--complex")]
    for order in (1, 3, 5, 15):
        files[f"singer-{order}"] = {"generators": [catalog.singer_flag_automorphism(15 // order)]}
        rows.append(("quotient", "a3-f2.json", "--auto", f"singer-{order}.json"))
    for name, obj in _malformed(systems["fano"]).items():
        files[name] = obj
        rows += [(command[0], f"{name}.json", *command[1:]) for command in MALFORMED_COMMANDS]
    files["pg42"] = chamber.system_to_json(corpus.pg42())
    rows += [("check", "pg42.json"), ("cover", "pg42.json")]
    return files, rows


class _Stderr(io.StringIO):
    """Captured stderr that notes, at its first write, whether the exception
    being reported was raised by a `raise` statement in the package."""

    library_text = True

    def write(self, text):
        if not self.tell():
            tb = sys.exc_info()[2]
            while tb is not None and tb.tb_next is not None:
                tb = tb.tb_next
            if tb is not None:
                path = tb.tb_frame.f_code.co_filename
                line = linecache.getline(path, tb.tb_lineno).lstrip()
                self.library_text = (pathlib.Path(path).parent == PACKAGE
                                     and line.startswith("raise "))
        return super().write(text)


def _pinned(line, library_text):
    """The stderr line as the table keeps it: whole, or its prefix alone."""
    if library_text or not line:
        return line
    if line.startswith("input error:"):
        return "input error:"
    kind, _, _ = line.partition(": ")[2].partition(":")
    return f"error: {kind}:"


def run(directory, argv):
    """(exit code, sha256 of stdout, first stderr line as pinned) of one row,
    with each input file name resolved in `directory`."""
    argv = [str(directory / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), _Stderr()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    line = err.getvalue().partition("\n")[0]
    return {"exit": code, "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": _pinned(line, err.library_text)}


def transcripts(directory):
    """Every row's record, keyed by its argv joined by spaces."""
    files, rows = inputs()
    for name, obj in files.items():
        path = directory / f"{name}.json"
        if isinstance(obj, bytes):
            path.write_bytes(obj)
        else:
            path.write_text(json.dumps(obj))
    return {" ".join(argv): run(directory, argv) for argv in rows}


def main():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = transcripts(pathlib.Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} rows written to {TABLE}")


if __name__ == "__main__":
    main()
