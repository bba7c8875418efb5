"""Seeded inputs and job lists for the four workloads.

Every job gets a fresh relabelling of its input, drawn from the run seed:
chamber ids and type labels permuted for chamber systems, type indices for
Coxeter matrices, domain points for permutation groups.  The answer to
check does not change under relabelling, so the known-answer table is the
same for every seed, while no two jobs share an exact input.

Type relabellings of one matrix cycle through its distinct relabelled
matrices in a seeded order, so each run sees the same number of distinct
matrices per input and `verify`'s group-table cache hits as often on
every seed.
"""

import functools
import io
import itertools
import json
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from chambers import catalog, chamber, cli, covers, coxeter, groups, verify
from chambers.errors import CapExceeded

from . import oracle

# Catalog builders are lru_cached; set-up clears them so every set-up
# measures the builds.  Captured at import, before tracing wraps them.
CATALOG_CACHES = [f for f in vars(catalog).values() if hasattr(f, "cache_clear")]


@dataclass
class Job:
    name: str
    kind: str
    call: object        # () -> output, the timed part
    check: object       # output -> None, or the reason the output is wrong
    reach: bool = False


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse usage errors
                code = exc.code
        return CliResult(code, out.getvalue(), err.getvalue())
    return call


# ---------------------------------------------------------------------------
# relabelling


def type_relabellings(rows, rng):
    """One type permutation per distinct relabelled matrix, seeded order."""
    classes = {}
    for sigma in itertools.permutations(range(1, len(rows) + 1)):
        key = json.dumps(oracle.relabel_rows(rows, sigma))
        classes.setdefault(key, []).append(sigma)
    reps = [rng.choice(v) for _, v in sorted(classes.items())]
    rng.shuffle(reps)
    return reps


def shuffled(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return p


def relabel_system(obj, sigma, pi, labels):
    """System JSON with type i renamed sigma[i-1] and chamber c renamed
    pi[c].  labels: 'flag' (one entry per type), 'word' (type letters) or
    None (kept as they are)."""
    out = {"rank": obj["rank"], "n": obj["n"],
           "panels": {str(sigma[int(i) - 1]): [[pi[c] for c in p] for p in ps]
                      for i, ps in obj["panels"].items()}}
    if "labels" in obj:
        new = [None] * obj["n"]
        for c, lab in enumerate(obj["labels"]):
            if labels == "flag":
                lab2 = [None] * len(lab)
                for i, x in enumerate(lab):
                    lab2[sigma[i] - 1] = x
                lab = lab2
            elif labels == "word":
                lab = [sigma[x - 1] for x in lab]
            new[pi[c]] = lab
        out["labels"] = new
    return out


def conjugate(g, pi):
    """pi g pi^-1 as an image tuple: the same map on renamed points."""
    out = [0] * len(g)
    for x, y in enumerate(g):
        out[pi[x]] = pi[y]
    return tuple(out)


# ---------------------------------------------------------------------------
# inputs in their own labelling


def build_pg42():
    """Flags of PG(4,2): 9,765 chambers of type A4, chamber ids in label
    order, type i varying the (i-1)-dimensional member of the flag."""
    lines, planes, solids = (catalog.subspaces(5, k) for k in (2, 3, 4))
    flags = []
    for S in solids:
        for P in planes:
            if P <= S:
                for L in lines:
                    if L <= P:
                        for p in sorted(L):
                            flags.append((p, tuple(sorted(L)), tuple(sorted(P)), tuple(sorted(S))))
    flags.sort()
    partitions = {}
    for i in range(1, 5):
        buckets = {}
        for c, f in enumerate(flags):
            buckets.setdefault(f[:i - 1] + f[i:], []).append(c)
        partitions[i] = list(buckets.values())
    return chamber.from_partitions(len(flags), 4, partitions)


def base_input(name):
    """(system JSON, label kind) of an input in its own labelling."""
    if name.startswith("thin-"):
        M = coxeter.CoxeterMatrix(oracle.MATRICES[name[5:]])
        return chamber.system_to_json(coxeter.coxeter_complex(M)), "word"
    if name == "pg42":
        return chamber.system_to_json(build_pg42()), None
    system = catalog.build(name)["system"]
    return chamber.system_to_json(system), (None if name == "a3-f2-cosets" else "flag")


def system_matrix(name):
    if name.startswith("thin-"):
        return name[5:]
    if name == "pg42":
        return "A4"
    return oracle.CHECK[name][0]


# ---------------------------------------------------------------------------
# set-up


class Setup:
    """Inputs of one run: the base objects, the seeded generator, the
    job files as (path, JSON text) for `workdir`, and the reference tables
    the word problem is checked against."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.tables = oracle.Tables()
        self._bases = {}
        self._sigmas = {}
        self.files = []

    def base(self, name):
        hit = self._bases.get(name)
        if hit is None:
            hit = self._bases[name] = base_input(name)
        return hit

    def sigma(self, key, rows, k):
        """The k-th type relabelling drawn for input `key`."""
        reps = self._sigmas.get(key)
        if reps is None:
            reps = self._sigmas[key] = type_relabellings(rows, self.rng)
        return reps[k % len(reps)]

    def write(self, obj):
        """The path the job file for `obj` will have; see write_files."""
        path = os.path.join(self.workdir, f"in{len(self.files) + 1}.json")
        self.files.append((path, json.dumps(obj)))
        return path

    def relabelled(self, name, k):
        """(relabelled JSON object, sigma, pi) for the k-th job on `name`."""
        obj, labels = self.base(name)
        sigma = self.sigma(name, oracle.matrix_rows(system_matrix(name)), k)
        pi = shuffled(obj["n"], self.rng)
        return relabel_system(obj, sigma, pi, labels), sigma, pi


# ---------------------------------------------------------------------------
# job kinds: (name, make(setup, k) -> Job)


def _check_job(name):
    def make(s, k):
        obj, sigma, _ = s.relabelled(name, k)
        argv = ["check", s.write(obj), "--building", "--c3", "--ll", "--simplicial"]
        if obj["rank"] == 3 and oracle.CHECK[name][0] != "C3":
            argv += ["--points", str(sigma[0]), "--lines", str(sigma[1])]
        return Job(f"check {name}", f"check:{name}", cli_call(argv),
                   lambda res: oracle.check_verdict(res, name, sigma))
    return make


def _pg42_type_job(s, k):
    obj, sigma, _ = s.relabelled("pg42", k)
    return Job("check pg42 (type only)", "check:pg42-type", cli_call(["check", s.write(obj)]),
               lambda res: oracle.check_type_only(res, "A4", sigma))


def _pg42_budget_job(s, k):
    obj, _, _ = s.relabelled("pg42", k)
    return Job("check pg42 --building", "check:pg42-building",
               cli_call(["check", s.write(obj), "--building"]), oracle.check_budget_refusal)


def _cover_job(name):
    def make(s, k):
        obj, _, _ = s.relabelled(name, k)
        return Job(f"cover {name}", f"cover:{name}", cli_call(["cover", s.write(obj)]),
                   lambda res: oracle.check_cover(res, name, obj))
    return make


def _quotient_job(order):
    """`quotient` of relabelled a3-f2 flags by the order-`order` subgroup of
    the Singer cycle, given by one generator."""
    def make(s, k):
        obj, _, pi = s.relabelled("a3-f2", k)
        g = catalog.singer_flag_automorphism(15 // order)
        gen = [0] * len(g)
        for c, d in enumerate(g):
            gen[pi[c]] = pi[d]
        argv = ["quotient", s.write(obj), "--auto", s.write({"generators": [gen]})]
        if order == 15:
            return Job("quotient a3-f2 by Singer 15", "cover:quotient-z15", cli_call(argv),
                       oracle.check_collision)
        return Job("quotient a3-f2 by Singer 5", "cover:quotient-z5", cli_call(argv),
                   lambda res: oracle.check_quotient(res, gen, order))
    return make


HOMOTOPY_QUERIES = 20


def _random_gallery(C, start, steps, rng):
    adj = C.adjacency()
    chambers, types = [start], []
    for _ in range(steps):
        i, d = rng.choice(adj[chambers[-1]])
        chambers.append(d)
        types.append(i)
    return chamber.TypedGallery(tuple(chambers), tuple(types))


def _homotopy_job(s, k):
    """A batch of homotopy queries from one chamber of a freshly loaded
    relabelled z5 quotient: a random gallery against a minimal one with the
    same ends."""
    obj, sigma, pi = s.relabelled("singer-quotient-z5", k)
    C = chamber.system_from_json(obj)
    rng = s.rng
    start = rng.randrange(C.n)
    queries = []
    for _ in range(HOMOTOPY_QUERIES):
        g1 = _random_gallery(C, start, rng.randint(2, 12), rng)
        queries.append((g1, C.min_gallery(g1.start, g1.end)))
    projection = catalog.build("singer-quotient-z5")["projection"]

    def call():
        fresh = chamber.system_from_json(obj)
        return [covers.homotopic(fresh, g1, g2, budget=10 ** 5) for g1, g2 in queries]
    return Job("homotopic z5 batch", "cover:homotopic-z5", call,
               lambda out: oracle.check_homotopy(out, queries, pi, sigma, projection))


def _order_job(name, reach=False):
    def make(s, k):
        sigma = s.sigma(name, oracle.matrix_rows(name), k)
        rows = oracle.relabel_rows(oracle.matrix_rows(name), sigma)
        path = s.write({"rank": len(rows), "m": rows})
        return Job(f"coxeter {name} --order", f"coxeter:order-{name}",
                   cli_call(["coxeter", "--matrix", path, "--order"]),
                   lambda res: oracle.check_order(res, name), reach=reach)
    return make


def _complex_job(name):
    def make(s, k):
        sigma = s.sigma(name, oracle.matrix_rows(name), k)
        rows = oracle.relabel_rows(oracle.matrix_rows(name), sigma)
        path = s.write({"rank": len(rows), "m": rows})
        return Job(f"coxeter {name} --complex", f"coxeter:complex-{name}",
                   cli_call(["coxeter", "--matrix", path, "--complex"]),
                   lambda res: oracle.check_complex(res, name, sigma, s.tables))
    return make


WORD_BATCH = 12


def _words_job(name):
    """canonical, multiply, inverse, is_reduced and reduced_words on
    seeded random words over a relabelled matrix."""
    def make(s, k):
        rows = oracle.matrix_rows(name)
        sigma = s.sigma(name, rows, k)
        M = coxeter.CoxeterMatrix(oracle.relabel_rows(rows, sigma))
        rng = s.rng
        words = [tuple(rng.randint(1, M.rank) for _ in range(rng.randint(4, 16)))
                 for _ in range(WORD_BATCH)]
        pairs = [(i, (i + 1) % WORD_BATCH) for i in range(WORD_BATCH)]

        def call():
            canon = [coxeter.canonical(M, w) for w in words]
            prods = [coxeter.multiply(M, canon[a], canon[b]) for a, b in pairs]
            invs = [coxeter.inverse(M, c) for c in canon]
            reduced = [coxeter.is_reduced(M, w) for w in words]
            rwsets = [coxeter.reduced_words(M, c) for c in canon]
            return canon, prods, invs, reduced, rwsets
        return Job(f"words {name}", f"coxeter:words-{name}", call,
                   lambda out: oracle.check_words(out, name, sigma, words, pairs, s.tables))
    return make


# GL(4,2) on the 15 nonzero vectors of F2^4 (vector v is point v-1), with
# the standard flag e1 < <e1,e2> < <e1,e2,e3>.
GL42_FLAG = (frozenset({0}), frozenset({0, 1, 2}), frozenset(range(7)))


def _stabilizer(G, *sets):
    return groups.stabilizer(G, lambda g: all(frozenset(g[i] for i in s) == s for s in sets))


def _gl42_job(reach=False):
    """The GL(4,2) coset geometry from point-relabelled generators:
    closure, seven stabilizers, the coset system and the star criterion;
    the reach job then asks whether the minimal parabolics generate."""
    def make(s, k):
        pi = shuffled(15, s.rng)
        gens = [conjugate(g, pi) for g in catalog.gl4_2().generators]
        p0, L0, pl0 = (frozenset(pi[x] for x in f) for f in GL42_FLAG)

        def call():
            G = groups.group_from_generators(gens, cap=30000)
            borel = _stabilizer(G, p0, L0, pl0)
            faces = {1: _stabilizer(G, L0, pl0), 2: _stabilizer(G, p0, pl0),
                     3: _stabilizer(G, p0, L0)}
            vertex = {1: _stabilizer(G, p0), 2: _stabilizer(G, L0), 3: _stabilizer(G, pl0)}
            spec = chamber.HomogeneousSpec(G, borel, faces, vertex=vertex)
            C = chamber.from_cosets(spec)
            star, _ = verify.check_star(spec, 1, 2, system=C)
            out = [G.order, borel.order, [F.order for F in faces.values()], C.n,
                   sorted({len(p) for i in C.types for p in C.panels[i]}), star]
            if reach:
                out.append(groups.generates(G, list(faces.values())))
            return out
        name = "generates GL(4,2) minimal parabolics" if reach else "GL(4,2) coset geometry"
        return Job(name, "cosets:gl42-generates" if reach else "cosets:gl42",
                   call, oracle.check_gl42, reach=reach)
    return make


def _a7_base():
    """(Neumaier coset spec, its base flag) in the catalog's labelling."""
    C, spec = catalog.build_neumaier_a7()
    return spec, min(C.labels)


def _a7_stabilizers(G, flag):
    """Stabilizers in a point-relabelled Alt(7) of parts of a triple
    geometry flag (point, line, plane), symbols 1..7."""
    p0, L0, pl0 = flag

    def line_img(g, t):
        return tuple(sorted(g[x - 1] + 1 for x in t))

    def plane_img(g, pl):
        return tuple(sorted(line_img(g, t) for t in pl))

    def stab(point=False, line=False, plane=False):
        return groups.stabilizer(G, lambda g: (
            (not point or g[p0 - 1] + 1 == p0) and (not line or line_img(g, L0) == L0)
            and (not plane or plane_img(g, pl0) == pl0)))
    H = stab(True, True, True)
    faces = {1: stab(line=True, plane=True), 2: stab(point=True, plane=True),
             3: stab(point=True, line=True)}
    vertex = {1: stab(point=True), 2: stab(line=True), 3: stab(plane=True)}
    return H, faces, vertex


def _a7_job(s, k):
    """The Neumaier geometry from point-relabelled Alt(7): closure, seven
    stabilizers, cosets and the (failing) star criterion."""
    spec, flag = _a7_base()
    pi = shuffled(7, s.rng)
    gens = [conjugate(g, pi) for g in spec.group.generators]
    flag = catalog.neumaier_label_action(pi, flag)

    def call():
        G = groups.group_from_generators(gens)
        H, faces, vertex = _a7_stabilizers(G, flag)
        spec = chamber.HomogeneousSpec(G, H, faces, vertex=vertex)
        C = chamber.from_cosets(spec)
        star, _ = verify.check_star(spec, 1, 2, system=C)
        return (G.order, H.order, [F.order for F in faces.values()],
                sorted(V.order for V in vertex.values()), C.n, star)
    return Job("Alt(7) coset geometry", "cosets:a7", call, oracle.check_a7)


def _lift_job(pi_order):
    """cover_from_lift over a point-relabelled Neumaier spec with trivial
    per-type maps into a cyclic group of the given order."""
    def make(s, k):
        base, _ = _a7_base()
        pi = shuffled(7, s.rng)
        G = groups.PermGroup(7, [conjugate(g, pi) for g in base.group.generators],
                             sorted(conjugate(g, pi) for g in base.group.elements))

        def image(subgroup):
            return groups.Subgroup(G, [conjugate(g, pi) for g in subgroup.elements], check=False)
        faces = {i: image(F) for i, F in base.faces.items()}
        spec = chamber.HomogeneousSpec(G, image(base.principal), faces)
        cyc = groups.perm_from_cycles(pi_order, [tuple(range(pi_order))])
        target = groups.group_from_generators([cyc])
        e = groups.identity(pi_order)
        phi = {i: {g: e for g in F.elements} for i, F in faces.items()}
        return Job(f"cover_from_lift Alt(7) x Z{pi_order}", f"cosets:lift-z{pi_order}",
                   lambda: covers.cover_from_lift(spec, target, phi),
                   lambda out: oracle.check_lift(out, 315, pi_order))
    return make


# Random coset specs in the style of the primitivity criterion: a group
# from the pool, a principal subgroup from at most one random element, and
# two or three faces generated over it, sometimes all inside a point
# stabilizer so that they cannot generate.  They are drawn once from a
# fixed sampler seed, so every run has the same sizes and outcomes; the run
# seed relabels their points.
SPEC_SAMPLER_SEED = 8
SPEC_POOL = (("S4", 4), ("S5", 4), ("A5", 4), ("A6", 4), ("A7", 4))
SPEC_COST_CAP = 100000      # |union of face elements| x |group|


def pool_group(name):
    n = int(name[1:])
    return groups.symmetric_group(n) if name[0] == "S" else groups.alternating_group(n)


@functools.lru_cache(maxsize=None)
def spec_templates():
    """The fixed spec list; benchmark data, computed once per process
    before any set-up is timed."""
    rng = random.Random(SPEC_SAMPLER_SEED)
    out = []
    for gname, count in SPEC_POOL:
        G = pool_group(gname)
        K = [g for g in G.elements if g[0] == 0]
        cap = SPEC_COST_CAP // G.order
        while sum(1 for t in out if t[0] == gname) < count:
            hgens = [rng.choice(G.elements) for _ in range(rng.randint(0, 1))]
            source = K if rng.randrange(3) == 0 else G.elements
            extras = [[rng.choice(source) for _ in range(rng.randint(1, 2))]
                      for _ in range(rng.choice((2, 3)))]
            try:
                H = groups.close(G.degree, hgens, cap)
                union = set()
                for extra in extras:
                    union |= groups.close(G.degree, hgens + extra, cap)
            except CapExceeded:
                continue
            if 2 <= G.order // len(H) <= 1200 and len(union) <= cap:
                out.append((gname, G.generators, hgens, extras))
    return out


def _spec_job(template):
    gname, base_gens, hgens, extras = template

    def make(s, k):
        pi = shuffled(len(base_gens[0]), s.rng)
        gens = [conjugate(g, pi) for g in base_gens]
        hg = [conjugate(g, pi) for g in hgens]
        ex = [[conjugate(g, pi) for g in e] for e in extras]

        def call():
            G = groups.group_from_generators(gens)
            H = (groups.subgroup_generated(G, hg) if hg
                 else groups.Subgroup(G, [groups.identity(G.degree)], check=False))
            faces = {i: groups.subgroup_generated(G, list(H.elements) + e)
                     for i, e in enumerate(ex, start=1)}
            index = groups.left_cosets(G, H).index
            gen = groups.generates(G, list(faces.values()))
            return gen, index, chamber.HomogeneousSpec(G, H, faces)
        return Job(f"random spec over {gname}", f"cosets:spec-{gname}", call,
                   oracle.check_random_spec)
    return make


# ---------------------------------------------------------------------------
# workloads: kind -> jobs per run at --seconds RUN_SECONDS (at least one
# each at other lengths); reach jobs are never scaled.  The counts put the
# median and the 90th percentile near the middle of a block of one job
# kind, so they neither jump between kinds nor sit in a block's tail, which
# is noisier than its middle:
# - check: p90 among the Neumaier checks (pair scan and gate checks; the
#   ten slower jobs are the rank-4 thin complexes, PG(4,2), a3-f2 and cold
#   H3), p50 among gq22 and z5 checks;
# - cover: p90 among a3-f2 and z5 covers and homotopy batches, p50 among
#   the thin A4 covers;
# - coxeter: p90 among cold A4 enumerations, p50 among A1xA3 ones;
# - cosets: p90 among the trivial lifts, p50 among the Alt(7) geometries
#   (one job per random spec, so that as many jobs are faster than the
#   Alt(7) block as slower).
RUN_SECONDS = 15

WORKLOADS = {
    "check": {
        "a3-f2": 1, "a3-f2-cosets": 1, "thin-D4": 1, "thin-A4": 2, "thin-H3": 3,
        "pg42-type": 1, "pg42-building": 1, "neumaier-a7": 14,
        "singer-quotient-z5": 30, "gq22": 30, "fano": 25, "thin-A3": 25, "thin-C3": 31,
    },
    "cover": {
        "pg42": 1, "neumaier-a7": 2, "a3-f2": 8, "singer-quotient-z5": 8, "homotopic-z5": 8,
        "thin-D4": 20, "thin-A4": 30, "thin-H3": 10, "thin-C3": 10, "thin-A3": 10,
        "quotient-z5": 10, "quotient-z15": 10,
    },
    "coxeter": {
        "order-D4": 2, "complex-D4": 1, "order-A4": 4, "complex-A4": 8,
        "order-H3": 6, "complex-H3": 19, "order-A1xA3": 10, "complex-A1xA3": 20,
        "words-A3": 4, "words-C3": 4, "words-H3": 4, "words-A4": 4, "words-D4": 4,
        "words-A2xA2": 4, "words-A1xA3": 4,
        "order-A3": 2, "order-C3": 2, "order-A2xA2": 2, "order-I2": 2,
        "complex-A3": 1, "complex-C3": 1, "complex-A2xA2": 2,
    },
    "cosets": {
        "gl42": 2, "lift-z2": 4, "lift-z1": 14, "a7": 59, "specs": 1,
    },
}

REACH = {
    "coxeter": ("order-B4", "order-F4"),
    "cosets": ("gl42-generates",),
}

I2_M = (5, 6, 7, 8, 10, 12)


def kind_maker(workload, kind):
    if workload == "check":
        if kind == "pg42-type":
            return _pg42_type_job
        if kind == "pg42-building":
            return _pg42_budget_job
        return _check_job(kind)
    if workload == "cover":
        if kind.startswith("quotient-z"):
            return _quotient_job(int(kind[len("quotient-z"):]))
        if kind == "homotopic-z5":
            return _homotopy_job
        return _cover_job(kind)
    if workload == "coxeter":
        what, name = kind.split("-", 1)
        if what == "order":
            if name == "I2":
                return lambda s, k: _order_job(f"I2({I2_M[k % len(I2_M)]})")(s, k)
            return _order_job(name, reach=name in ("B4", "F4"))
        return (_complex_job if what == "complex" else _words_job)(name)
    if kind in ("gl42", "gl42-generates"):
        return _gl42_job(reach=kind == "gl42-generates")
    if kind == "a7":
        return _a7_job
    return _lift_job(int(kind[len("lift-z"):]))


def job_counts(workload, seconds):
    scale = seconds / RUN_SECONDS
    counts = {kind: max(1, round(n * scale)) for kind, n in WORKLOADS[workload].items()}
    for kind in REACH.get(workload, ()):
        counts[kind] = 1
    return counts


def plan_jobs(workload, seed, seconds, workdir, kinds=None):
    """The run's job list in seeded order, reach jobs last, and the job
    files it reads, not yet written; `kinds` restricts it to those job kinds
    (the benchmark's own tests use small ones)."""
    s = Setup(workdir, seed)
    jobs = []
    for kind, count in job_counts(workload, seconds).items():
        if kinds is not None and kind not in kinds:
            continue
        if kind == "specs":
            for template in spec_templates():
                make = _spec_job(template)
                jobs.extend(make(s, k) for k in range(count))
            continue
        make = kind_maker(workload, kind)
        jobs.extend(make(s, k) for k in range(count))
    s.rng.shuffle(jobs)
    return [job for job in jobs if not job.reach] + [job for job in jobs if job.reach], s.files


def write_files(workdir, files):
    """Write plan_jobs' job files into a fresh `workdir`."""
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    for path, text in files:
        with open(path, "w") as fh:
            fh.write(text)


def make_jobs(workload, seed, seconds, workdir, kinds=None):
    """plan_jobs' job list, with its files written."""
    jobs, files = plan_jobs(workload, seed, seconds, workdir, kinds)
    write_files(workdir, files)
    return jobs


def clear_caches():
    """Module caches back to a fresh session's state."""
    for f in CATALOG_CACHES:
        f.cache_clear()
    verify._TABLE_CACHE.clear()
