"""Job-stream benchmark of the chambers library.

    python3 perfbench/run.py --workload check --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ./src.  One
client runs a seeded list of verification jobs one after another (a closed
loop, one process, no extra threads).  The job count is fixed by the
workload and --seconds, so every run and every commit sees the same mix.
CLI-shaped jobs call `chambers.cli.main(argv)` in-process with stdout
captured; the others call the public functions.  Every output is checked
against a known answer (perfbench/oracle.py).  A per-job time limit (one
per workload, TIME_LIMITS_S), enforced in-process through
`signal.setitimer`, stops the reach jobs: inputs that do not finish today,
whose share of finished jobs should grow.

Workloads, and why each was chosen:

- check: `chambers check --building --c3 --ll --simplicial` on catalog
  geometries and thin complexes, plus a type-only check and a refused
  `--building` on the PG(4,2) flags.  The paper's verification path: time
  goes to minimal-gallery type sets and to the pair and gate scans.
- cover: `chambers cover` and `quotient`, and batches of `homotopic`
  queries.  The gluer, deck search and covering self-check dominate.
- coxeter: `coxeter --order/--complex` on type-relabelled matrices and
  word-problem batches.  Braid rewriting and enumeration are nearly all the
  work; B4 and F4 `--order` are the reach jobs.
- cosets: coset geometries from permutation groups: closures,
  stabilizers, coset tables, `generates`, `check_star`, `cover_from_lift`.
  Generating GL(4,2) from its minimal parabolics is the reach job.

Times, the time limit included, are given at reference speed.  The host's
speed drifts over seconds, so a fixed calibration loop (no library code) is
timed just before and after each job and set-up; the machine's speed there
is the median of the last SPEED_WINDOW such samples (CAL_REF_S over the
loop's time), because a single 3 ms sample is now and then off by 1.5x or
more.  Inside a job or set-up the loop is also timed every SAMPLE_EVERY_S
of CPU time, so a long job follows the drift while it runs.  The wall time
between two samples is scaled by their mean speed, and a job's time limit
becomes a wall-time alarm at the speed before it.  A change in the library
still shows in full; the drift mostly cancels.  The unscaled times are in
the per-job records.

With --trace 0 the result holds the end-to-end metrics:

- setup_s: median over SETUP_REPEATS set-ups (catalog builds, relabelling,
  the job files' JSON text, but not writing them to disk), or over as many
  as fill SETUP_MIN_S if that is more, each from cleared module caches;
- job_p50_ms / job_p90_ms: median and 90th percentile of the time to
  verdict per job, a timed-out job counting as infinite;
- jobs_per_s: finished jobs over the summed time of all jobs, a timed-out
  job counting as the time limit;
- correct_share: jobs whose output and exit code match the known answer,
  over attempted (a timed-out reach job has no answer and is not wrong);
- finished_share: jobs that ended within the time limit, over attempted;
- peak_rss_mb: peak resident memory of the process before the reach
  jobs, which run last.

With --trace 1 the same job list runs untraced, then again with spans
recorded around every public function of each layer, and the result holds
the per-layer metrics (see tracing.py), the tracing overhead and the
benchmark's own self time, all in unscaled wall time; the spans go to
.perfbench_out/.
"""

import argparse
import collections
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Per-job time limit of each workload, in reference seconds, at least 3x
# from every job's time in it on both sides.  One limit for all would have
# to sit between the PG(4,2) cover (4-9 s) and B4 --order (12-16 s), too
# close to both for a host whose speed drifts by 1.5x.
TIME_LIMITS_S = {
    "check": 30.0,      # slowest job: thin D4, ~3 s
    "cover": 30.0,      # slowest job: the PG(4,2) cover, 4-9 s
    "coxeter": 3.5,     # D4 --order ~1 s finishes; B4 ~12 s, F4 > 60 s do not
    "cosets": 3.5,      # GL(4,2) geometry ~1 s finishes; its generation ~16 s does not
}
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0       # a cheap set-up is repeated until it fills this
SPEED_WINDOW = 15
SAMPLE_EVERY_S = 0.1    # CPU seconds between two speed samples inside a job
# The calibration loop's typical time on one vCPU of a 2.1 GHz Xeon
# (Python 3.11); reported times are scaled to that speed.
CAL_REF_S = 0.003
WORKDIR = os.path.join(ROOT, ".perfbench_work")
OUTDIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END = (("setup_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("jobs_per_s", "1/s"), ("correct_share", "ratio"),
              ("finished_share", "ratio"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("groups.self_s", "s"), ("groups.generates_s", "s"), ("groups.left_cosets_s", "s"),
    ("groups.closure_elements", "count"),
    ("coxeter.self_s", "s"), ("coxeter.enumerate_s", "s"), ("coxeter.elements", "count"),
    ("coxeter.reduced_word_sets_s", "s"), ("coxeter.reduced_words", "count"),
    ("coxeter.canonical_s", "s"), ("coxeter.canonical_calls", "count"),
    ("chamber.self_s", "s"), ("chamber.type_sets_s", "s"), ("chamber.type_set_words", "count"),
    ("chamber.component_map_s", "s"), ("chamber.infer_type_matrix_s", "s"),
    ("chamber.json_s", "s"), ("chamber.quotient_s", "s"), ("chamber.is_simplicial_s", "s"),
    ("verify.self_s", "s"), ("verify.is_building_s", "s"), ("verify.pairs_checked", "count"),
    ("verify.is_c3_geometry_s", "s"), ("verify.incidence_geometry_s", "s"),
    ("verify.check_star_s", "s"),
    ("covers.self_s", "s"), ("covers.universal_cover_s", "s"), ("covers.cover_chambers", "count"),
    ("covers.is_covering_s", "s"), ("covers.deck_transformations_s", "s"),
    ("covers.deck_hit_ratio", "ratio"), ("covers.homotopic_s", "s"),
    ("covers.homotopy_queries", "count"),
    ("catalog.self_s", "s"), ("catalog.build_s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "B"),
    ("bench.self_s", "s"), ("trace.job_s", "s"), ("trace.untraced_job_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


class Record(NamedTuple):
    job: object
    status: str         # 'ok', 'timeout' or 'error'
    seconds: float      # time to verdict at reference speed
    wall: float         # the same, unscaled
    reason: object      # None when the output is right


class JobTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the library mistakes it for an error of its own."""


def _on_alarm(signum, frame):
    raise JobTimeout()


_CAL_SHORT = tuple((5 * i + 3) % 11 for i in range(11))
_CAL_GENS = ((1, 0) + tuple(range(2, 13)), tuple((i + 1) % 13 for i in range(13)))   # S13


def _calibration_loop():
    """Fixed interpreter work of the library's kind: permutation products
    into a set and a dict, a breadth-first closure of 300 permutations, and
    union-find over 1,500 nodes with a small dict per node."""
    g = tuple(range(11))
    seen = set()
    for _ in range(200):
        g = tuple(_CAL_SHORT[x] for x in g)
        seen.add(g)
        index = {x: i for i, x in enumerate(g)}
    closed = {tuple(range(13))}
    frontier = list(closed)
    while frontier and len(closed) < 300:
        nxt = []
        for g in frontier:
            for h in _CAL_GENS:
                p = tuple(h[x] for x in g)
                if p not in closed:
                    closed.add(p)
                    nxt.append(p)
        frontier = nxt
    n = 1500
    parent = list(range(n))
    slots = [{} for _ in range(n)]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for i in range(n):
        slots[i][i % 7] = (31 * i) % n
        a, b = find(i), find((17 * i + 5) % n)
        if a != b and i % 3 == 0:
            parent[a] = b
    roots = sum(1 for i in range(n) if find(i) == i)
    return len(seen) + len(index) + len(closed) + roots


def machine_speed():
    """Reference time of the calibration loop over its time now.  The
    collector is off while it runs: a collection would make the loop's
    time depend on how many objects the process holds, not on the
    machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_loop()
        return CAL_REF_S / (time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """The machine's speed as the median of its last SPEED_WINDOW samples:
    it follows drift over seconds but not a single outlying sample."""

    def __init__(self):
        self.samples = collections.deque(maxlen=SPEED_WINDOW)

    def fill(self):
        for _ in range(SPEED_WINDOW):
            self.samples.append(machine_speed())

    def sample(self):
        self.samples.append(machine_speed())
        return statistics.median(self.samples)


METER = SpeedMeter()


class ReferenceClock:
    """Time of a region at reference speed.  The machine's speed is taken
    just before and just after the region and, when `sample` is set, every
    SAMPLE_EVERY_S of CPU time inside it (a SIGPROF handler); the wall time
    between two samples is scaled by their mean speed.  The samplers' own
    time is left out of both `wall` and `seconds`."""

    active = None

    def __init__(self, sample=True):
        self.sample = sample

    def __enter__(self):
        self.points = [(None, METER.sample(), time.perf_counter())]
        self.before = self.points[0][1]
        if self.sample:
            signal.signal(signal.SIGPROF, _on_prof)
            ReferenceClock.active = self
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def take_sample(self):
        t0 = time.perf_counter()
        self.points.append((t0, machine_speed(), time.perf_counter()))

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_PROF, 0)
            ReferenceClock.active = None
        t1 = time.perf_counter()
        self.points.append((t1, METER.sample(), None))
        self.wall = self.seconds = 0.0
        for (_, speed0, end0), (start1, speed1, _) in zip(self.points, self.points[1:]):
            self.wall += start1 - end0
            self.seconds += (start1 - end0) * (speed0 + speed1) / 2
        return False


def _on_prof(signum, frame):
    if ReferenceClock.active is not None:
        ReferenceClock.active.take_sample()


def run_job(job, limit, tracer=None, index=0):
    """Run one job under the time limit: (status, output, seconds at
    reference speed, wall seconds).  The limit is in reference seconds; the
    alarm is set in wall time from the speed measured just before."""
    clock = ReferenceClock(sample=tracer is None)
    try:
        with clock:
            signal.setitimer(signal.ITIMER_REAL, limit / clock.before)
            try:
                if tracer is None:
                    out = job.call()
                else:
                    with tracer.span("bench.job", index):
                        out = job.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except JobTimeout:
        out, status = None, "timeout"
    except Exception as exc:        # a job must not stop the stream; it is checked below
        out, status = exc, "error"
    if status == "timeout":
        return status, out, limit, clock.wall
    return status, out, clock.seconds, clock.wall


def run_stream(jobs, limit, tracer=None, log=None, start=0):
    """Run every job and check its output; one Record per job."""
    records = []
    for index, job in enumerate(jobs, start):
        if tracer is not None:
            tracer.on = True
        status, out, dt, wall = run_job(job, limit, tracer, index)
        if tracer is not None:
            tracer.on = False
        reason = None
        if status == "error":
            reason = f"{type(out).__name__}: {out}"
        elif status == "ok":
            try:
                reason = job.check(out)
            except Exception as exc:    # a malformed output is a wrong answer
                reason = f"output check raised {type(exc).__name__}: {exc}"
        elif not job.reach:
            reason = f"over the {limit:g} s time limit"
        if status == "ok" and tracer is not None and hasattr(out, "out"):
            tracer.count((("cli.output_bytes", len(out.out)),))
        if reason is not None and log is not None:
            print(f"FAILED job {index} ({job.name}): {reason}", file=log)
        records.append(Record(job, status, dt, wall, reason))
    return records


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(records, setup_times, rss_mb):
    times = [r.seconds if r.status != "timeout" else math.inf for r in records]
    n = len(records)
    finished = sum(1 for r in records if r.status != "timeout")
    wrong = sum(1 for r in records if r.reason is not None)
    return {
        "setup_s": statistics.median(setup_times),
        "job_p50_ms": 1000 * statistics.median(times),
        "job_p90_ms": 1000 * percentile(times, 0.9),
        "jobs_per_s": finished / sum(r.seconds for r in records),
        "correct_share": (n - wrong) / n,
        "finished_share": finished / n,
        "peak_rss_mb": rss_mb,
    }


def src_lines():
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def kind_table(records):
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.job.kind, []).append((r.status, r.seconds, r.reason))
    lines = []
    for kind, rows in sorted(by_kind.items()):
        done = [dt for status, dt, _ in rows if status == "ok"]
        med = f"{1000 * statistics.median(done):9.1f} ms" if done else "        - ms"
        lines.append(f"  {kind:28s} {len(rows):4d} jobs  median {med}  "
                     f"timeouts {sum(1 for s, _, _ in rows if s == 'timeout')}  "
                     f"wrong {sum(1 for *_, r in rows if r is not None)}")
    return lines


def set_up(workloads, workload, seed, seconds, kinds=None, tracer=None):
    """Build the job list from cleared caches; returns (jobs, seconds).
    Writing the job files is not timed: its cost follows the host's file
    system, which the calibration loop does not measure."""
    workloads.clear_caches()
    if tracer is None:
        with ReferenceClock() as clock:
            jobs, files = workloads.plan_jobs(workload, seed, seconds, WORKDIR, kinds)
        workloads.write_files(WORKDIR, files)
        return jobs, clock.seconds
    tracer.on = True
    try:
        with tracer.span("bench.setup", -1):
            jobs, files = workloads.plan_jobs(workload, seed, seconds, WORKDIR, kinds)
    finally:
        tracer.on = False
    workloads.write_files(WORKDIR, files)
    return jobs, None


def run_jobs(workloads, jobs, limit, tracer=None, log=None):
    """The stream from a fresh session's caches: (records, peak resident
    MB before the first reach job).  The set-up's objects are moved out of
    the collector's reach first, so a job pays for collecting its own
    garbage only, as in a fresh CLI process.  Reach jobs come last and stop
    at the limit wherever they got to, so their memory is left out."""
    workloads.clear_caches()
    gc.collect()
    gc.freeze()
    try:
        first = [job for job in jobs if not job.reach]
        records = run_stream(first, limit, tracer, log)
        rss_mb = peak_rss_mb()
        reach = [job for job in jobs if job.reach]
        return records + run_stream(reach, limit, tracer, log, start=len(first)), rss_mb
    finally:
        gc.unfreeze()


def measure(workload, seed, seconds, trace=False, limit=None, kinds=None,
            log=sys.stderr):
    """One run: set-ups, the untraced stream and, when tracing, the traced
    stream.  Returns (run record, per-job records, metrics)."""
    from perfbench import tracing, workloads

    if limit is None:
        limit = TIME_LIMITS_S[workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    if workload == "cosets":
        workloads.spec_templates()
    METER.fill()
    try:
        setup_times = []
        while not setup_times or not trace and (
                len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S):
            jobs, dt = set_up(workloads, workload, seed, seconds, kinds)
            setup_times.append(dt)
        records, rss_mb = run_jobs(workloads, jobs, limit, log=log)
        record = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), "src_lines": src_lines(), "jobs": len(records),
            "reach_jobs": sum(1 for job in jobs if job.reach), "time_limit_s": limit,
        }
        if trace:
            metrics = traced_metrics(tracing, workloads, workload, seed, seconds, limit,
                                     kinds, records, log)
        else:
            values = end_to_end(records, setup_times, rss_mb)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        if os.path.isdir(WORKDIR):
            shutil.rmtree(WORKDIR)
    return record, records, metrics


def traced_metrics(tracing, workloads, workload, seed, seconds, limit, kinds, untraced, log):
    """Per-layer metrics from a traced pass over the same job list."""
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        jobs, _ = set_up(workloads, workload, seed, seconds, kinds, tracer)
        records, _ = run_jobs(workloads, jobs, limit, tracer, log=log)
    finally:
        tracing.uninstall(patches)
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left}")
    os.makedirs(OUTDIR, exist_ok=True)
    tracer.write(os.path.join(OUTDIR, f"trace-{workload}-seed{seed}.json"))
    m = tracing.summarize(tracer)
    counts = tracer.counts
    for name, unit in PER_LAYER:
        if unit in ("count", "B"):
            m.setdefault(name, counts.get(name, 0))
    tried = counts.get("covers.fiber_tried", 0)
    m["covers.deck_hit_ratio"] = counts.get("covers.deck_found", 0) / tried if tried else 0.0
    m["trace.untraced_job_s"] = sum(r.wall for r in untraced)
    m["trace.overhead_s"] = m["trace.job_s"] - m["trace.untraced_job_s"]
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    print(f"self times: layers {layers:.6f} s + benchmark {m['bench.self_s']:.6f} s "
          f"= {layers + m['bench.self_s']:.6f} s; traced job time {m['trace.job_s']:.6f} s",
          file=log)
    if [r.status for r in records] != [r.status for r in untraced]:
        print("traced and untraced passes ended jobs differently", file=log)
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("check", "cover", "coxeter", "cosets"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chambers", "__init__.py")):
        print(f"perfbench: no library source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    record, records, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("run record: " + json.dumps(record, sort_keys=True))
    for line in kind_table(records):
        print(line)
    print(result_line(records, metrics))
    return 0


def result_line(records, metrics):
    failed = sum(1 for r in records if r.reason is not None)
    return json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                       "metrics": metrics})


if __name__ == "__main__":
    sys.exit(main())
