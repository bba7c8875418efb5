"""The benchmark's own tests: tiny runs of every workload, the self-time
arithmetic, the reference clock's sampling, seeded inputs, and that tracing
leaves the library unpatched.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import signal
import sys
import time

import pytest

from chambers import chamber, covers, groups
from perfbench import run, tracing, workloads

# Small job kinds of each workload, and a time limit far above them that
# stops the reach jobs (B4 order, GL(4,2) generation) early.
TINY = {
    "check": ["fano", "gq22", "singer-quotient-z5", "thin-A3", "thin-C3", "neumaier-a7"],
    "cover": ["a3-f2", "singer-quotient-z5", "thin-C3", "quotient-z5", "quotient-z15",
              "homotopic-z5"],
    "coxeter": ["order-A3", "order-I2", "complex-C3", "complex-A1xA3", "words-A3", "words-H3",
                "order-B4"],
    "cosets": ["a7", "lift-z2", "specs", "gl42-generates"],
}
TINY_LIMIT = 2.0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_verdicts_and_schema(workload):
    record, records, metrics = run.measure(workload, 3, 1, limit=TINY_LIMIT,
                                           kinds=TINY[workload], log=sys.stderr)
    assert [r.reason for r in records if r.reason is not None] == []
    reach = [r.status for r in records if r.job.reach]
    assert reach == ["timeout"] * len(reach) and record["reach_jobs"] == len(reach)
    assert all(r.status == "ok" for r in records if not r.job.reach)
    assert {k: v["unit"] for k, v in metrics.items()} == dict(run.END_TO_END)
    assert metrics["correct_share"]["value"] == 1.0
    n = len(records)
    assert metrics["finished_share"]["value"] == (n - len(reach)) / n
    assert all(v["value"] > 0 for v in metrics.values())
    line = json.loads(run.result_line(records, metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == n and line["failed"] == 0
    for key in ("python", "nproc", "commit", "seed", "jobs", "src_lines"):
        assert key in record


def test_self_time_arithmetic():
    # 0 [0, 10] has children 1 [1, 4] and 3 [5, 9]; 1 has child 2 [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    dur, own = tracing.self_times(None, [0, 1, 2, 3], parent, start, end)
    assert dur == [10.0, 3.0, 1.0, 4.0]
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == dur[0]


def test_reference_clock_samples_inside_a_long_region():
    t0 = time.perf_counter()
    with run.ReferenceClock() as clock:
        busy_until = time.process_time() + 0.35
        while time.process_time() < busy_until:
            pass
    elapsed = time.perf_counter() - t0
    assert len(clock.points) >= 4       # before, at least two inside, after
    assert 0 < clock.wall < elapsed and clock.seconds > 0
    assert run.ReferenceClock.active is None
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_summarize_adds_up_to_job_time():
    t = tracing.Tracer()
    job, verify_, chamber_ = (t.name_id(n) for n in (
        "bench.job", "verify.is_building", "chamber.ChamberSystem.minimal_type_sets_from"))
    rows = [(job, -1, 0, 0.0, 10.0), (verify_, 0, 0, 1.0, 8.0), (chamber_, 1, 0, 2.0, 5.0),
            (chamber_, 1, 0, 5.5, 6.0), (job, -1, 1, 20.0, 21.0)]
    for nid, parent, j, s, e in rows:
        t.name.append(nid)
        t.parent.append(parent)
        t.job_of.append(j)
        t.start.append(s)
        t.end.append(e)
    m = tracing.summarize(t)
    assert m["trace.job_s"] == 11.0
    assert m["verify.self_s"] == 3.5 and m["chamber.self_s"] == 3.5 and m["bench.self_s"] == 4.0
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",)) == 11.0
    assert m["verify.is_building_s"] == 7.0 and m["chamber.type_sets_s"] == 3.5


def test_traced_run_reports_layers_and_unpatches():
    original = covers.universal_cover
    record, records, metrics = run.measure("cover", 4, 1, trace=True, limit=TINY_LIMIT,
                                           kinds=["singer-quotient-z5", "homotopic-z5"],
                                           log=sys.stderr)
    assert {k: v["unit"] for k, v in metrics.items()} == dict(run.PER_LAYER)
    assert tracing.installed_wrappers() == []
    assert covers.universal_cover is original
    assert not hasattr(chamber.ChamberSystem.component_map, "__perfbench_original__")
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["covers.universal_cover_s"] > 0 and value["trace.spans"] > 0
    assert value["covers.homotopy_queries"] == workloads.HOMOTOPY_QUERIES
    assert value["covers.deck_hit_ratio"] == 1.0
    selfs = sum(value[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",))
    assert selfs == pytest.approx(value["trace.job_s"], abs=1e-6)


def test_seeds_change_inputs_not_answers(tmp_path):
    kinds, contents = {}, {}
    for run_name, seed in (("first", 1), ("second", 2), ("again", 1)):
        workdir = str(tmp_path / run_name)
        jobs = workloads.make_jobs("check", seed, 1, workdir, TINY["check"])
        kinds[run_name] = sorted(job.kind for job in jobs)
        contents[run_name] = set()
        for name in os.listdir(workdir):
            with open(os.path.join(workdir, name)) as fh:
                contents[run_name].add(fh.read())
        records, _ = run.run_jobs(workloads, jobs, TINY_LIMIT)
        assert [r.reason for r in records] == [None] * len(jobs)
    assert kinds["first"] == kinds["second"] == kinds["again"]
    assert contents["first"] == contents["again"]
    assert not contents["first"] & contents["second"]


def test_random_specs_have_both_outcomes():
    outcomes = set()
    for gname, gens, hgens, extras in workloads.spec_templates():
        G = groups.group_from_generators(gens)
        outcomes.add(groups.generates(
            G, [groups.subgroup_generated(G, hgens + e) for e in extras]))
    assert outcomes == {True, False}


def test_refuses_to_run_without_the_library(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "check", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
