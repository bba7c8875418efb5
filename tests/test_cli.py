import functools
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import corpus
import chambers
from chambers import catalog, chamber, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "fano" in out and "neumaier-a7" in out and "singer-quotient" in out


def test_coxeter_order(capsys, tmp_path):
    mfile = tmp_path / "a3.json"
    mfile.write_text(json.dumps({"rank": 3, "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]}))
    code, out, _ = run(capsys, "coxeter", "--matrix", str(mfile), "--order")
    assert code == 0 and out.strip() == "24"


def test_coxeter_infinite(capsys, tmp_path):
    # I2(inf) and affine A2
    mfile = tmp_path / "aff.json"
    for m in ([[1, 0], [0, 1]], [[1, 3, 3], [3, 1, 3], [3, 3, 1]]):
        mfile.write_text(json.dumps({"rank": len(m), "m": m}))
        for mode in ("--order", "--complex"):
            code, out, _ = run(capsys, "coxeter", "--matrix", str(mfile), mode)
            assert code == 1
            assert json.loads(out) == {"error": "InfiniteGroup",
                                       "detail": "W(M) is infinite; enumerate requires finite type"}


def test_coxeter_complex(capsys, tmp_path):
    mfile = tmp_path / "a2.json"
    mfile.write_text(json.dumps({"rank": 2, "m": [[1, 3], [3, 1]]}))
    code, out, _ = run(capsys, "coxeter", "--matrix", str(mfile), "--complex")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 6 and obj["rank"] == 2


def test_build_and_check_building(capsys, tmp_path):
    f = tmp_path / "fano.json"
    code, _, _ = run(capsys, "build", "fano", "--out", str(f))
    assert code == 0
    code, out, _ = run(capsys, "check", str(f), "--building")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["building"] is True


def test_check_building_on_a_finite_system_of_infinite_type(capsys, tmp_path):
    # the 3x3 torus has type Ã2: a verdict with exit 1, not an InfiniteGroup error
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(chamber.system_to_json(corpus.torus())))
    code, out, err = run(capsys, "check", str(path), "--building")
    assert (code, err) == (1, "")
    verdict = json.loads(out)
    assert verdict["building"] is False and verdict["type"] == "rank3"
    assert verdict["violations"] == [{"kind": "infinite-type"}]


def test_check_ll_neumaier(capsys, tmp_path):
    f = tmp_path / "neu.json"
    code, _, _ = run(capsys, "build", "neumaier-a7", "--out", str(f))
    assert code == 0
    code, out, _ = run(capsys, "check", str(f), "--ll", "--c3")
    assert code == 1
    verdict = json.loads(out)
    assert verdict["ll"]["holds"] is False
    wit = verdict["ll"]["witness"]
    assert {p["label"] for p in wit["points"]} == {1, 2}
    assert sorted(tuple(x["label"]) for x in wit["lines"]) == [(1, 2, 3), (1, 2, 4)]
    assert verdict["c3"] is True


def test_build_singer_quotient_fails(capsys):
    code, out, _ = run(capsys, "build", "singer-quotient")
    assert code == 1
    assert json.loads(out)["error"] == "ResidueCollision"


def test_cover_singer_z5(capsys, tmp_path):
    f = tmp_path / "q.json"
    code, _, _ = run(capsys, "build", "singer-quotient-z5", "--out", str(f))
    assert code == 0
    code, out, _ = run(capsys, "cover", str(f), "--max-chambers", "1000")
    assert code == 0
    obj = json.loads(out)
    assert obj["chambers"] == 315 and obj["deck_order"] == 5
    assert obj["regular"] is True and obj["truncated"] is False


def test_cover_truncated(capsys, tmp_path):
    f = tmp_path / "a3.json"
    run(capsys, "build", "a3-f2", "--out", str(f))
    code, out, _ = run(capsys, "cover", str(f), "--max-chambers", "10")
    assert code == 1 and json.loads(out)["truncated"] is True


def test_cover_budget_counts_gluer_nodes(capsys, tmp_path):
    # --max-chambers bounds the gluer's live nodes: 2,835 of them for the
    # 315 chambers of neumaier-a7, as --help says
    f = tmp_path / "neu.json"
    run(capsys, "build", "neumaier-a7", "--out", str(f))
    code, out, _ = run(capsys, "cover", str(f), "--max-chambers", "2834")
    assert code == 1 and json.loads(out) == {"truncated": True}
    code, out, _ = run(capsys, "cover", str(f), "--max-chambers", "2835")
    assert code == 0 and json.loads(out)["chambers"] == 315


def test_cover_base_chamber_out_of_range(capsys, tmp_path):
    f = tmp_path / "fano.json"
    run(capsys, "build", "fano", "--out", str(f))
    for base in ("99", "-1"):
        code, out, err = run(capsys, "cover", str(f), "--base-chamber", base)
        assert code == 2 and out == "" and "input error" in err


def test_cover_rejects_nonpositive_budget(capsys, tmp_path):
    f = tmp_path / "fano.json"
    run(capsys, "build", "fano", "--out", str(f))
    for budget in ("0", "-5"):
        code, out, err = run(capsys, "cover", str(f), "--max-chambers", budget)
        assert code == 2 and out == "" and "input error" in err


def test_quotient_cli(capsys, tmp_path):
    f = tmp_path / "a3.json"
    run(capsys, "build", "a3-f2", "--out", str(f))
    g = catalog.singer_flag_automorphism(3)  # order 5, acts freely on residues
    afile = tmp_path / "auto.json"
    afile.write_text(json.dumps({"generators": [list(g)]}))
    code, out, _ = run(capsys, "quotient", str(f), "--auto", str(afile))
    assert code == 0
    obj = json.loads(out)
    assert obj["quotient"]["n"] == 63
    # the order-15 Singer generator is rejected
    afile.write_text(json.dumps({"generators": [list(catalog.singer_flag_automorphism(1))]}))
    code, out, _ = run(capsys, "quotient", str(f), "--auto", str(afile))
    assert code == 1
    assert json.loads(out)["error"] == "ResidueCollision"
    afile.write_text(json.dumps({"generators": []}))
    code, out, _ = run(capsys, "quotient", str(f), "--auto", str(afile))
    assert code == 0 and json.loads(out)["quotient"]["n"] == 315


def test_quotient_cli_rejects_bad_generators(capsys, tmp_path):
    f = tmp_path / "fano.json"
    run(capsys, "build", "fano", "--out", str(f))
    afile = tmp_path / "auto.json"
    for gens in ([[1, 0, 2]], [list(range(22))]):
        afile.write_text(json.dumps({"generators": gens}))
        code, _, err = run(capsys, "quotient", str(f), "--auto", str(afile))
        assert code == 2 and "input error" in err


def test_quotient_cli_refuses_bool_chamber_ids(capsys, tmp_path):
    # [true, false] is no automorphism of two chambers, not the identity
    f = tmp_path / "two.json"
    f.write_text(json.dumps({"rank": 1, "n": 2, "panels": {"1": [[0, 1]]}}))
    afile = tmp_path / "auto.json"
    afile.write_text(json.dumps({"generators": [[True, False]]}))
    code, out, err = run(capsys, "quotient", str(f), "--auto", str(afile))
    assert code == 2 and out == "" and "input error" in err


def test_quotient_cli_group_larger_than_chamber_set(capsys, tmp_path):
    # GL(4,2), of order 20160, acting on the 315 flags of PG(3,2)
    f = tmp_path / "a3.json"
    run(capsys, "build", "a3-f2", "--out", str(f))
    base = catalog.build_a3_f2()
    act = catalog.a3_f2_label_action
    gens = [list(catalog.label_map(base.labels, base, functools.partial(act, g)))
            for g in catalog.gl4_2().generators]
    afile = tmp_path / "auto.json"
    afile.write_text(json.dumps({"generators": gens}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "quotient", str(f), "--auto", str(afile))
    assert code == 1 and json.loads(out)["error"] == "ActionNotFree"
    assert time.perf_counter() - start < 2.0


def test_report_dot(capsys, tmp_path):
    f = tmp_path / "fano.json"
    run(capsys, "build", "fano", "--out", str(f))
    code, out, _ = run(capsys, "report", str(f), "--format", "dot")
    assert code == 0 and out.startswith("graph")
    code, out, _ = run(capsys, "report", str(f), "--format", "dot", "--incidence")
    assert code == 0 and "a0" in out


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "build", "no-such-thing")
    assert code == 2 and "unknown catalog entry" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad), "--building")
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"), "--building")
    assert code == 2



def test_quotient_generators_not_a_list(capsys, tmp_path):
    f = tmp_path / "fano.json"
    run(capsys, "build", "fano", "--out", str(f))
    auto = tmp_path / "auto.json"
    auto.write_text(json.dumps({"generators": 5}))
    code, _, err = run(capsys, "quotient", str(f), "--auto", str(auto))
    assert code == 2 and "input error" in err


def test_check_panels_not_a_list(capsys, tmp_path):
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"rank": 1, "n": 1, "panels": {"1": 5}}))
    code, _, err = run(capsys, "check", str(system), "--building")
    assert code == 2 and "input error" in err


def test_coxeter_matrix_not_rows(capsys, tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"m": 3}))
    code, _, err = run(capsys, "coxeter", "--matrix", str(matrix), "--order")
    assert code == 2 and "input error" in err


def test_coxeter_rank_field_must_be_an_integer(capsys, tmp_path):
    matrix = tmp_path / "m.json"
    for rank in (True, 1.0):
        matrix.write_text(json.dumps({"rank": rank, "m": [[1]]}))
        code, out, err = run(capsys, "coxeter", "--matrix", str(matrix), "--order")
        assert code == 2 and out == "" and "input error" in err


def test_non_integer_json_numbers_are_input_errors(capsys, tmp_path):
    # never truncated: m = 3.5 is not an A2 matrix, n = 3.9 not three chambers
    matrix = tmp_path / "m.json"
    for m in (3.5, "3"):
        matrix.write_text(json.dumps({"m": [[1, m], [m, 1]]}))
        code, out, err = run(capsys, "coxeter", "--matrix", str(matrix), "--order")
        assert code == 2 and out == "" and "input error" in err
    system = tmp_path / "system.json"
    for n, c in ((3.9, 2.7), (3, 2.7), (3.9, 2)):
        system.write_text(json.dumps({"rank": 2, "n": n,
                                      "panels": {"1": [[0, 1], [2]], "2": [[0], [1, c]]}}))
        code, out, err = run(capsys, "check", str(system), "--building")
        assert code == 2 and out == "" and "input error" in err


def test_json_booleans_are_input_errors(capsys, tmp_path):
    # JSON true and false are not the integers 1 and 0
    system = tmp_path / "system.json"
    for obj in ({"rank": True, "n": 2, "panels": {"1": [[False, True]]}},
                {"rank": 1, "n": 2, "panels": {"1": [[False, True]]}},
                {"rank": 1, "n": True, "panels": {"1": [[0]]}}):
        system.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", str(system), "--building")
        assert code == 2 and out == "" and "input error" in err and "bool" in err
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"m": [[True, 3], [3, True]]}))
    code, out, err = run(capsys, "coxeter", "--matrix", str(matrix), "--order")
    assert code == 2 and out == "" and "input error" in err and "bool" in err


def test_panels_that_are_not_an_object_are_input_errors(capsys, tmp_path):
    # every command that reads a system refuses a panels list, string or
    # null, and two keys naming one type ("1" and "01"), where one partition
    # would silently win
    system, auto = tmp_path / "system.json", tmp_path / "auto.json"
    auto.write_text(json.dumps({"generators": [[0, 1]]}))
    for panels in ([[0, 1]], "01", None, {"1": [[0], [1]], "01": [[0, 1]], "2": [[0, 1]]}):
        system.write_text(json.dumps({"rank": 2, "n": 2, "panels": panels}))
        for argv in (("check", str(system)), ("cover", str(system)),
                     ("quotient", str(system), "--auto", str(auto)), ("report", str(system))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and "input error" in err and "panels" in err, argv


LOADER_COMMANDS = (("check", "--building", "--c3", "--ll", "--simplicial"), ("cover",),
                   ("report", "--format", "json"))


def test_system_commands_refuse_bad_labels(capsys, tmp_path):
    # check, cover and report keep the file's labels as parsed, and refuse
    # what system_from_json refuses: labels that are no sequence, a label
    # count other than n, a file that is no JSON object
    fano = chamber.system_to_json(catalog.build_fano_flags())
    system = tmp_path / "system.json"
    for obj, message in (({**fano, "labels": 5}, "'int' object is not iterable"),
                         ({**fano, "labels": fano["labels"][:-1]}, "labels length mismatch"),
                         ([fano], "input error")):
        system.write_text(json.dumps(obj))
        for command, *flags in LOADER_COMMANDS:
            code, out, err = run(capsys, command, str(system), *flags)
            assert code == 2 and out == "" and message in err, (command, message)
            assert err.startswith("input error: ") and "Traceback" not in err


def test_system_commands_echo_labels_as_parsed(capsys, tmp_path):
    # labels given as a string or an object are a sequence of characters
    # or of keys: report and cover write them back as such, and they name
    # no (LL) witness vertex, as they are no rank-tuples
    system = tmp_path / "system.json"

    def run_on(obj, command, *flags):
        system.write_text(json.dumps(obj))
        code, out, _ = run(capsys, command, str(system), *flags)
        return code, out

    check, cover, report = LOADER_COMMANDS
    for C in (catalog.build_fano_flags(), catalog.build_neumaier_a7()[0]):
        bare = chamber.system_to_json(C)
        del bare["labels"]
        letters = "".join(chr(ord("a") + c % 26) for c in range(C.n))
        for labels in (letters, {f"k{c}": c for c in range(C.n)}):
            labelled = {**bare, "labels": labels}
            code, out = run_on(labelled, *check)
            assert (code, out) == run_on(bare, *check)
            if C.rank == 3:
                wit = json.loads(out)["ll"]["witness"]
                assert [v["label"] for v in wit["points"] + wit["lines"]] == [None] * 4
                continue
            code, out = run_on(labelled, *report)
            assert code == 0 and json.loads(out) == {**bare, "labels": list(labels)}
            expected = json.loads(run_on(bare, *cover)[1])
            expected["base"]["labels"] = list(labels)
            code, out = run_on(labelled, *cover)
            assert code == 0 and json.loads(out) == expected


def test_json_nested_past_the_recursion_limit_is_an_input_error(capsys, monkeypatch, tmp_path):
    # the decoder recurses once per nesting level: every command that reads
    # a file, from a path or from stdin, refuses one nested 10^5 deep with
    # the library's message and exit code 2, not a traceback and exit 1
    deep = "[" * 10 ** 5 + "]" * 10 ** 5
    fano = chamber.system_to_json(catalog.build_fano_flags())
    system, good, auto, matrix = (tmp_path / f"{name}.json" for name in ("system", "good", "auto", "m"))
    system.write_text(json.dumps({**fano, "labels": "deep"}).replace('"deep"', deep))
    good.write_text(json.dumps(fano))
    auto.write_text(f'{{"generators": {deep}}}')
    matrix.write_text(f'{{"m": {deep}}}')
    argvs = [(command, str(system), *flags) for command, *flags in LOADER_COMMANDS]
    argvs += [("quotient", str(system), "--auto", str(auto)),
              ("quotient", str(good), "--auto", str(auto)),
              ("coxeter", "--matrix", str(matrix), "--order"), ("check", "-")]
    monkeypatch.setattr(sys, "stdin", io.StringIO(system.read_text()))
    for argv in argvs:
        assert run(capsys, *argv) == (2, "", "input error: JSON nested too deeply to read\n"), argv
    # nesting the decoder can follow is read and written back as parsed
    label = "x"
    for _ in range(200):
        label = [label]
    good.write_text(json.dumps({**fano, "labels": [label] + fano["labels"][1:]}))
    code, out, _ = run(capsys, "report", str(good))
    assert code == 0 and json.loads(out)["labels"][0] == label


def test_quotient_names_bad_panels_before_bad_labels(capsys, tmp_path):
    # quotient loads like the other system commands: the panels are judged
    # first, then the labels
    system, auto = tmp_path / "system.json", tmp_path / "auto.json"
    auto.write_text(json.dumps({"generators": [[0, 1]]}))
    for panels, message in (({"1": [[0, 5]]}, "chamber id 5 out of range"),
                            ({"1": [[0, 1]]}, "'int' object is not iterable")):
        system.write_text(json.dumps({"rank": 1, "n": 2, "panels": panels, "labels": 5}))
        code, out, err = run(capsys, "quotient", str(system), "--auto", str(auto))
        assert code == 2 and out == "" and message in err, panels


def test_sizes_given_only_as_numbers_are_refused_within_a_memory_cap(tmp_path):
    # a rank, a chamber count or a Coxeter entry that no panel or table
    # backs is refused before anything of that size is built; the child
    # runs under a 1 GB address space cap, so a regression fails with
    # MemoryError instead of filling the host's memory.  A row is (argv
    # with {} for the input file, input, exit code, start of stdout, a
    # phrase of stderr).
    resource = pytest.importorskip("resource")
    cap = 2 ** 30
    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
            "from chambers import cli; sys.exit(cli.main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(chambers.__file__).parents[1])}
    huge = {"m": [[1, 10 ** 12], [10 ** 12, 1]]}
    budget = '{"detail":"group enumeration exceeded cap'
    for argv, obj, exit_code, stdout, message in (
            (["check", "{}"], {"rank": 10 ** 11, "n": 1, "panels": {}}, 2, "",
             "no partition for type 1"),
            (["cover", "{}"], {"rank": 0, "n": 10 ** 11, "panels": {}}, 2, "",
             "rank 0 with 100000000000 chambers"),
            (["check", "{}", "--simplicial"], {"rank": 0, "n": 10 ** 11, "panels": {}}, 2, "",
             "rank 0 with 100000000000 chambers"),
            (["report", "{}", "--format", "dot"], {"rank": 0, "n": 10 ** 8, "panels": {}}, 2, "",
             "rank 0 with 100000000 chambers"),
            (["coxeter", "--order", "--matrix", "{}"], huge, 1, budget, ""),
            (["coxeter", "--complex", "--matrix", "{}"], huge, 1, budget, "")):
        system = tmp_path / "input.json"
        system.write_text(json.dumps(obj))
        argv = [str(system) if a == "{}" else a for a in argv]
        done = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == exit_code and done.stdout.startswith(stdout), (argv, done)
        assert message in done.stderr and "Traceback" not in done.stderr, done.stderr
        assert stdout == "" or json.loads(done.stdout)["error"] == "BudgetExceeded"


def test_rank_0_complex_of_the_empty_matrix_passes_check(capsys, monkeypatch, tmp_path):
    # W of the empty matrix is the trivial group: its complex is one
    # chamber of rank 0, which `check -` loads from the pipe and passes
    matrix = tmp_path / "empty.json"
    matrix.write_text(json.dumps({"m": []}))
    code, out, _ = run(capsys, "coxeter", "--matrix", str(matrix), "--complex")
    assert code == 0 and json.loads(out)["n"] == 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    assert run(capsys, "check", "-")[0] == 0


def test_console_script_entry_point_lists_the_catalog(capsys):
    # the `chambers` script that pyproject.toml installs runs the CLI
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["chambers"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr)(["list"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith(sorted(catalog.CATALOG)[0])


def test_check_rejects_bad_counts_and_types(capsys, tmp_path):
    system = tmp_path / "system.json"
    for obj in ({"rank": 2, "n": -1, "panels": {"1": [], "2": []}},
                {"rank": -1, "n": 0, "panels": {}},
                {"rank": 1, "n": 2, "panels": {"1": [[0, 1]], "2": [[0], [1]]}}):
        system.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", str(system), "--building")
        assert code == 2 and out == "" and "PartitionNotCovering" in err


def test_check_ll_rejects_bad_point_and_line_types(capsys, tmp_path):
    f = tmp_path / "a3.json"
    run(capsys, "build", "a3-f2", "--out", str(f))
    for types in (("7", "9"), ("0", "2"), ("2", "2")):
        code, out, err = run(capsys, "check", str(f), "--ll", "--points", types[0],
                             "--lines", types[1])
        assert code == 2 and out == "" and "--points/--lines" in err
    code, out, _ = run(capsys, "check", str(f), "--ll", "--points", "1", "--lines", "2")
    assert code == 0 and json.loads(out)["ll"]["holds"] is True


def test_check_ll_uses_given_roles_on_c3_type(capsys, tmp_path):
    # on a C3 type, given --points/--lines replace the diagram's own roles:
    # no two triples of the A7 geometry lie in two common planes
    f = tmp_path / "neu.json"
    run(capsys, "build", "neumaier-a7", "--out", str(f))
    code, out, _ = run(capsys, "check", str(f), "--ll")
    assert code == 1 and json.loads(out)["ll"]["holds"] is False
    code, out, _ = run(capsys, "check", str(f), "--ll", "--points", "2", "--lines", "3")
    assert code == 0 and json.loads(out)["ll"] == {"holds": True, "witness": None}


def test_check_ll_refuses_one_of_points_and_lines(capsys, tmp_path):
    for name in ("neumaier-a7", "a3-f2"):
        f = tmp_path / f"{name}.json"
        run(capsys, "build", name, "--out", str(f))
        for flag in ("--points", "--lines"):
            code, out, err = run(capsys, "check", str(f), "--ll", flag, "1")
            assert code == 2 and out == ""
            assert err == "--points/--lines must be two different types in 1..3\n"


def test_check_ll_refused_before_any_check(capsys, tmp_path, monkeypatch):
    # a3-f2 has rank-3 type A3, not C3-shaped: --ll needs --points/--lines,
    # and the refusal comes before the building check runs
    f = tmp_path / "a3.json"
    run(capsys, "build", "a3-f2", "--out", str(f))

    def refuse(*args, **kwargs):
        raise RuntimeError("is_building ran")

    monkeypatch.setattr(cli.verify, "is_building", refuse)
    code, out, err = run(capsys, "check", str(f), "--building", "--ll")
    assert code == 2 and out == ""
    assert err == "--ll needs --points/--lines when the type is not C3-shaped\n"


def test_check_rejects_empty_system(capsys, tmp_path):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"rank": 3, "n": 0, "panels": {"1": [], "2": [], "3": []}}))
    code, out, err = run(capsys, "check", str(f))
    assert code == 2 and out == ""
    assert "PartitionNotCovering" in err and "empty system" in err


def test_check_all_on_non_polygonal_residue(capsys, tmp_path):
    # the {1,2}-residue is one 1-panel, a path and not a polygon: there is
    # no type matrix, so the building and (LL) verdicts fail unchecked
    f = tmp_path / "np.json"
    f.write_text(json.dumps({"rank": 3, "n": 2,
                             "panels": {"1": [[0, 1]], "2": [[0], [1]], "3": [[0], [1]]}}))
    code, out, err = run(capsys, "check", str(f), "--building", "--ll", "--c3", "--simplicial")
    assert code == 1 and err == ""
    verdict = json.loads(out)
    assert verdict["type"] is None and verdict["type_matrix"] is None
    assert verdict["type_error"] == ("ResidueNotPolygon: {1,2}-residue at chamber 0 "
                                     "is not a generalized m-gon")
    assert verdict["building"] is False and "violations" not in verdict
    assert verdict["ll"] == {"holds": False, "error": "no rank-3 type matrix"}
    assert verdict["c3"] is False


def test_parser_is_built_once_and_reused(capsys, tmp_path):
    # a usage error from the shared parser leaves it as a fresh one would be
    assert cli.make_parser() is cli.make_parser()
    f, mfile = tmp_path / "fano.json", tmp_path / "d4.json"
    run(capsys, "build", "fano", "--out", str(f))
    mfile.write_text(json.dumps({"m": [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]}))
    calls = [("check", str(f), "--no-such-flag"),
             ("check", str(f), "--building", "--simplicial"),
             ("cover", str(f), "--max-chambers", "100"),
             ("coxeter", "--matrix", str(mfile), "--order"),
             ("coxeter", "--bogus")]

    def outcome(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    shared = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.make_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 2]
    assert shared[3][1] == "192\n" and "unrecognized arguments" in shared[0][2]
