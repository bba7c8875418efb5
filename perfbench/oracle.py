"""Known answers, and the second engines outputs are checked against.

Every check takes a job's output and returns None when it is right, else a
short reason.  Checks run outside the timed region with tracing paused.
The answers come from mathematics and from catalog facts, not from the
code under test:

- |W| of the finite Coxeter types used;
- a3-f2 (the flags of PG(3,2)) is a thick A3 building, simply connected;
- the Neumaier Alt(7) geometry is C3, fails (LL), is not a building and
  is simply connected;
- the order-5 Singer quotient has a regular 315-chamber universal cover with
  deck group of order 5; the order-15 quotient is rejected (ResidueCollision);
- the flags of PG(4,2) form a simply connected A4 building of 9,765 chambers;
- Coxeter complexes are thin, simplicial, simply connected buildings.

Second engines: braid-rewriting answers against `CoxeterGroupTable`
walks, `generates` against `from_cosets(spec).is_connected()`, and
`homotopic` against lifting through the catalog's own z5 projection.
"""

import json

from chambers import chamber, covers, coxeter

MATRICES = {
    "A2": ((1, 3), (3, 1)),
    "C2": ((1, 4), (4, 1)),
    "A3": ((1, 3, 2), (3, 1, 3), (2, 3, 1)),
    "C3": ((1, 3, 2), (3, 1, 4), (2, 4, 1)),
    "H3": ((1, 5, 2), (5, 1, 3), (2, 3, 1)),
    "A4": ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
    "B4": ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 4), (2, 2, 4, 1)),
    "D4": ((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1)),
    "F4": ((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1)),
    "A2xA2": ((1, 3, 2, 2), (3, 1, 2, 2), (2, 2, 1, 3), (2, 2, 3, 1)),
    "A1xA3": ((1, 2, 2, 2), (2, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
}

W_ORDER = {"A2": 6, "C2": 8, "A3": 24, "C3": 48, "H3": 120, "A4": 120, "B4": 384,
           "D4": 192, "F4": 1152, "A2xA2": 36, "A1xA3": 48}


def matrix_rows(name):
    """Rows of a named matrix; 'I2(m)' names the dihedral type."""
    if name.startswith("I2("):
        m = int(name[3:-1])
        return ((1, m), (m, 1))
    return MATRICES[name]


def w_order(name):
    if name.startswith("I2("):
        return 2 * int(name[3:-1])
    return W_ORDER[name]


# `check --building --c3 --ll --simplicial` per input, in the input's own
# type labelling: (type matrix, building, c3, ll, simplicial).  ll None
# means the CLI must report that there is no rank-3 type matrix.
CHECK = {
    "a3-f2": ("A3", True, False, True, True),
    "a3-f2-cosets": ("A3", True, False, True, True),
    "neumaier-a7": ("C3", False, True, False, True),
    "singer-quotient-z5": ("A3", False, False, False, False),
    "fano": ("A2", True, False, None, True),
    "gq22": ("C2", True, False, None, True),
    "thin-A3": ("A3", True, False, True, True),
    "thin-C3": ("C3", True, True, True, True),
    "thin-H3": ("H3", True, False, True, True),
    "thin-A4": ("A4", True, False, None, True),
    "thin-D4": ("D4", True, False, None, True),
}

# `cover` per input: (chambers of the input, fiber of the universal cover)
COVER = {
    "neumaier-a7": (315, 1),
    "a3-f2": (315, 1),
    "singer-quotient-z5": (63, 5),
    "pg42": (9765, 1),
    "thin-A3": (24, 1),
    "thin-C3": (48, 1),
    "thin-H3": (120, 1),
    "thin-A4": (120, 1),
    "thin-D4": (192, 1),
}

GL42_ORDER, GL42_BOREL, GL42_PARABOLIC = 20160, 64, 192
A7_ORDER, A7_FLAG_STAB, A7_FACE, A7_VERTEX = 2520, 8, 24, (72, 168, 360)


def relabel_rows(rows, sigma):
    """The matrix after type i is renamed sigma[i-1]."""
    k = len(rows)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            out[sigma[i] - 1][sigma[j] - 1] = rows[i][j]
    return [list(r) for r in out]


def _expect_code(code, want):
    return None if code == want else f"exit code {code}, expected {want}"


def check_verdict(res, name, sigma):
    """`check --building --c3 --ll --simplicial` on a relabelled input."""
    mat, building, c3, ll, simplicial = CHECK[name]
    want_code = 0 if (building and c3 and ll and simplicial) else 1
    bad = _expect_code(res.code, want_code)
    if bad:
        return bad
    v = json.loads(res.out)
    if v["type_matrix"] != relabel_rows(MATRICES[mat], sigma):
        return f"type matrix {v['type_matrix']}"
    if v["building"] is not building or (building and v["violations"]):
        return f"building {v['building']}"
    if v["c3"] is not c3:
        return f"c3 {v['c3']}"
    if ll is None:
        if v["ll"].get("error") != "no rank-3 type matrix":
            return f"ll {v['ll']}"
    elif v["ll"]["holds"] is not ll or (v["ll"]["witness"] is None) is not ll:
        return f"ll {v['ll']}"
    if v["simplicial"] is not simplicial:
        return f"simplicial {v['simplicial']}"
    return None


def check_type_only(res, name, sigma):
    bad = _expect_code(res.code, 0)
    if bad:
        return bad
    v = json.loads(res.out)
    if v["type_matrix"] != relabel_rows(MATRICES[name], sigma):
        return f"type matrix {v['type_matrix']}"
    return None


def check_budget_refusal(res):
    """`check --building` beyond the 2000-chamber pair-scan budget."""
    bad = _expect_code(res.code, 2)
    if bad:
        return bad
    if res.out or "BudgetExceeded" not in res.err:
        return f"expected a BudgetExceeded refusal, got {res.err.strip()!r}"
    return None


def check_cover(res, name, base_obj):
    n, fiber = COVER[name]
    bad = _expect_code(res.code, 0)
    if bad:
        return bad
    v = json.loads(res.out)
    if (v["truncated"], v["chambers"], v["fiber_size"], v["deck_order"], v["regular"]) \
            != (False, n * fiber, fiber, fiber, True):
        return (f"cover {v['chambers']} chambers, fiber {v['fiber_size']}, "
                f"deck {v['deck_order']}, regular {v['regular']}")
    if v["base"]["n"] != base_obj["n"] or v["cover"]["n"] != n * fiber:
        return "base or cover system has the wrong size"
    mp = v["map"]
    sizes = {}
    for b in mp:
        sizes[b] = sizes.get(b, 0) + 1
    if len(mp) != n * fiber or set(sizes) != set(range(n)) or set(sizes.values()) != {fiber}:
        return "covering map fibers are not uniform"
    for d in v["deck"]:
        if sorted(d) != list(range(n * fiber)) or any(mp[d[x]] != mp[x] for x in range(len(d))):
            return "a deck transformation does not commute with the map"
    return None


def check_quotient(res, generator, order):
    bad = _expect_code(res.code, 0)
    if bad:
        return bad
    v = json.loads(res.out)
    proj = v["projection"]
    n = len(generator)
    if v["quotient"]["n"] != n // order or len(proj) != n:
        return f"quotient has {v['quotient']['n']} chambers, expected {n // order}"
    sizes = {}
    for q in proj:
        sizes[q] = sizes.get(q, 0) + 1
    if set(sizes.values()) != {order} or any(proj[generator[c]] != proj[c] for c in range(n)):
        return "projection is not the orbit map of the group"
    return None


def check_collision(res):
    bad = _expect_code(res.code, 1)
    if bad:
        return bad
    if json.loads(res.out).get("error") != "ResidueCollision":
        return f"expected ResidueCollision, got {res.out.strip()!r}"
    return None


def check_order(res, name):
    bad = _expect_code(res.code, 0)
    if bad:
        return bad
    if res.out.strip() != str(w_order(name)):
        return f"order {res.out.strip()}, expected {w_order(name)}"
    return None


class Tables:
    """Coxeter group tables of the un-relabelled matrices, built on first
    use and kept for the run: the reference the word problem is checked
    against."""

    def __init__(self):
        self._tables = {}

    def get(self, name):
        t = self._tables.get(name)
        if t is None:
            t = self._tables[name] = coxeter.enumerate_group(
                coxeter.CoxeterMatrix(matrix_rows(name)))
        return t


class Relabelled:
    """A group table read through a type relabelling sigma."""

    def __init__(self, table, sigma):
        self.table = table
        self.back = {s: i + 1 for i, s in enumerate(sigma)}
        self.letters = sorted(sigma)
        self.length = [len(w) for w in table.elements]
        self._counts = {0: 1}

    def id_of(self, word):
        return self.table.canonical_id(tuple(self.back[x] for x in word))

    def shortlex(self, e):
        """ShortLex-least reduced word of element e in the relabelled
        alphabet: repeatedly strip the least left descent."""
        t = self.table
        word = []
        while e:
            for s in self.letters:
                f = t.canonical_id((self.back[s],) + t.elements[e])
                if self.length[f] < self.length[e]:
                    word.append(s)
                    e = f
                    break
        return tuple(word)

    def reduced_word_count(self, e):
        """Number of reduced words, summed over right descents."""
        stack = [e]
        while stack:
            x = stack[-1]
            if x in self._counts:
                stack.pop()
                continue
            lower = [y for y in self.table.right[x] if self.length[y] < self.length[x]]
            todo = [y for y in lower if y not in self._counts]
            if todo:
                stack.extend(todo)
                continue
            self._counts[x] = sum(self._counts[y] for y in lower)
            stack.pop()
        return self._counts[e]


def check_complex(res, name, sigma, tables):
    """`coxeter --complex`: a thin system whose chambers are the elements,
    labelled by their canonical words, with the i-panel {w, w r_i}."""
    bad = _expect_code(res.code, 0)
    if bad:
        return bad
    v = json.loads(res.out)
    rel = Relabelled(tables.get(name), sigma)
    n = w_order(name)
    if v["n"] != n or v["rank"] != len(sigma):
        return f"complex has {v['n']} chambers"
    ids = [rel.id_of(w) for w in v["labels"]]
    if sorted(ids) != list(range(n)):
        return "labels are not the group elements"
    if any(tuple(w) != rel.shortlex(e) for w, e in zip(v["labels"], ids)):
        return "a label is not the ShortLex-least reduced word"
    right = rel.table.right
    for t, panels in v["panels"].items():
        i = rel.back[int(t)]
        for a, b in panels:
            if right[ids[a]][i - 1] != ids[b]:
                return f"type-{t} panel {a, b} is not {{w, w r}}"
    return None


def check_words(out, name, sigma, words, pairs, tables):
    """A word-problem batch against the group table."""
    canon, prods, invs, reduced, rwsets = out
    rel = Relabelled(tables.get(name), sigma)
    ids = [rel.id_of(w) for w in words]
    for w, e, c in zip(words, ids, canon):
        if c.word != rel.shortlex(e):
            return f"canonical{w} = {c.word}"
    t = rel.table
    for (a, b), p in zip(pairs, prods):
        e = t.mult_id(ids[a], ids[b])
        if p.word != rel.shortlex(e):
            return f"multiply {canon[a].word} {canon[b].word} = {p.word}"
    for e, v in zip(ids, invs):
        if v.word != rel.shortlex(t.inv_id(e)):
            return f"inverse of {rel.shortlex(e)} = {v.word}"
    for w, e, r in zip(words, ids, reduced):
        if r is not (len(w) == rel.length[e]):
            return f"is_reduced{w} = {r}"
    for e, s in zip(ids, rwsets):
        if len(s) != rel.reduced_word_count(e):
            return f"{len(s)} reduced words, expected {rel.reduced_word_count(e)}"
        if any(len(w) != rel.length[e] or rel.id_of(w) != e for w in s):
            return "a reduced word of the wrong element"
    return None


def check_homotopy(out, queries, quotient_pi, sigma, projection):
    """Homotopy answers against lifting both galleries through the
    catalog's projection a3-f2 -> z5 quotient, whose total space is simply
    connected: homotopic iff the lifts end together."""
    back_t = {s: i + 1 for i, s in enumerate(sigma)}
    back_c = [0] * len(quotient_pi)
    for old, new in enumerate(quotient_pi):
        back_c[new] = old
    fibers = {}
    for c, b in enumerate(projection.chamber_map):
        fibers.setdefault(b, c)
    for (g1, g2), got in zip(queries, out):
        ends = []
        for g in (g1, g2):
            base = chamber.TypedGallery(tuple(back_c[c] for c in g.chambers),
                                        tuple(back_t[t] for t in g.types))
            start = fibers[base.start]
            ends.append(covers.lift_gallery(projection, base, start).end)
        if got is not (ends[0] == ends[1]):
            return f"homotopic {g1.types} vs {g2.types} = {got}"
    return None


def check_gl42(out):
    """The GL(4,2) geometry is the a3-f2 building: thick, 315 flags, and
    it satisfies the star criterion."""
    order, borel, faces, n, panel_sizes, star = out[:6]
    want = (GL42_ORDER, GL42_BOREL, [GL42_PARABOLIC] * 3, 315, [3], True)
    if (order, borel, faces, n, panel_sizes, star) != want:
        return f"GL(4,2) spec gave {out[:6]}"
    if len(out) > 6 and out[6] is not True:
        return "the minimal parabolics do not generate GL(4,2)"
    return None


def check_a7(out):
    want = (A7_ORDER, A7_FLAG_STAB, [A7_FACE] * 3, list(A7_VERTEX), 315, False)
    if tuple(out) != want:
        return f"Alt(7) spec gave {out}"
    return None


def check_lift(out, base_n, pi_order):
    """cover_from_lift with per-type maps that are all trivial: |pi|
    disjoint copies of the base, connected only when pi is trivial."""
    cover, covering, connected = out
    if cover.n != base_n * pi_order or connected is not (pi_order == 1):
        return f"lift has {cover.n} chambers, connected {connected}"
    ok, diag = covers.is_covering(covering)
    if not ok:
        return f"lift is not a covering: {diag}"
    return None


def check_random_spec(out):
    """`generates` against the connectivity of the coset system."""
    gen, index, spec = out
    if index != spec.group.order // spec.principal.order:
        return f"coset index {index}"
    conn = chamber.from_cosets(spec).is_connected()
    if gen is not conn:
        return f"generates {gen} but the coset system is {'' if conn else 'dis'}connected"
    return None
