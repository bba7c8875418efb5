import json
import time

from chambers import catalog, cli


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
    mfile = tmp_path / "aff.json"
    mfile.write_text(json.dumps({"rank": 2, "m": [[1, 0], [0, 1]]}))
    code, out, _ = run(capsys, "coxeter", "--matrix", str(mfile), "--order")
    assert code == 1
    assert json.loads(out)["error"] == "InfiniteGroup"


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


def test_cover_base_chamber_out_of_range(capsys, tmp_path):
    f = tmp_path / "fano.json"
    run(capsys, "build", "fano", "--out", str(f))
    for base in ("99", "-1"):
        code, out, err = run(capsys, "cover", str(f), "--base-chamber", base)
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


def test_quotient_cli_group_larger_than_chamber_set(capsys, tmp_path):
    # GL(4,2), of order 20160, acting on the 315 flags of PG(3,2)
    f = tmp_path / "a3.json"
    run(capsys, "build", "a3-f2", "--out", str(f))
    base = catalog.build_a3_f2()
    index = {lab: c for c, lab in enumerate(base.labels)}
    gens = [[index[catalog.a3_f2_label_action(g, lab)] for lab in base.labels]
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
