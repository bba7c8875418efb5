"""Coxeter matrices, the word problem via braid moves, and group tables.

Group elements are canonical (ShortLex-least) reduced words over the type
set I = {1, ..., k}.  The word problem is solved purely combinatorially:
braid moves plus deletion of adjacent repeated letters, no reflection
representation.  Everything here is exact integer combinatorics.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BadDiagonal,
    BadOffDiagonal,
    BudgetExceeded,
    InfiniteGroup,
    NotSymmetric,
)

INFINITY = 0  # matrix entry encoding m_ij = infinity (also used in JSON)

DEFAULT_BUDGET = 10 ** 6


class CoxeterMatrix:
    """Symmetric k x k matrix, m_ii = 1, off-diagonal >= 2 or INFINITY."""

    def __init__(self, entries):
        rows = [tuple(int(x) for x in row) for row in entries]
        k = len(rows)
        if any(len(row) != k for row in rows):
            raise NotSymmetric("matrix is not square")
        for i in range(k):
            for j in range(k):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetric(f"m[{i}][{j}] != m[{j}][{i}]")
        for i in range(k):
            if rows[i][i] != 1:
                raise BadDiagonal(f"m[{i}][{i}] = {rows[i][i]}, expected 1")
        for i in range(k):
            for j in range(k):
                if i != j and rows[i][j] != INFINITY and rows[i][j] < 2:
                    raise BadOffDiagonal(f"m[{i}][{j}] = {rows[i][j]}, expected >= 2 or 0 (infinity)")
        self.rank = k
        self.rows = tuple(rows)

    def order(self, i, j):
        """Entry m_ij for 1-based types i, j."""
        return self.rows[i - 1][j - 1]

    @property
    def types(self):
        return tuple(range(1, self.rank + 1))

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"CoxeterMatrix({[list(r) for r in self.rows]})"


def validate_matrix(entries):
    return CoxeterMatrix(entries)


def matrix_to_json(M):
    return {"rank": M.rank, "m": [list(row) for row in M.rows]}


def matrix_from_json(obj):
    M = CoxeterMatrix(obj["m"])
    if "rank" in obj and obj["rank"] != M.rank:
        raise NotSymmetric("rank field disagrees with matrix size")
    return M


# Some standard matrices used throughout tests and the catalog.
A1 = CoxeterMatrix([[1]])
A2 = CoxeterMatrix([[1, 3], [3, 1]])
A1xA1 = CoxeterMatrix([[1, 2], [2, 1]])
A3 = CoxeterMatrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
C2 = CoxeterMatrix([[1, 4], [4, 1]])
C3 = CoxeterMatrix([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
H3 = CoxeterMatrix([[1, 5, 2], [5, 1, 3], [2, 3, 1]])


def dihedral(m):
    """I2(m); m = INFINITY gives the infinite dihedral matrix."""
    return CoxeterMatrix([[1, m], [m, 1]])


def diagram_components(M):
    """Connected components of the Coxeter diagram (edge iff m_ij != 2).

    Returns (components, isolated) where components is a sorted list of
    sorted type tuples and isolated is the set of singleton-component types.
    """
    adj = {i: set() for i in M.types}
    for i, j in combinations(M.types, 2):
        if M.order(i, j) != 2:
            adj[i].add(j)
            adj[j].add(i)
    seen = set()
    comps = []
    for i in M.types:
        if i in seen:
            continue
        comp = []
        stack = [i]
        seen.add(i)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    comps.sort()
    isolated = {c[0] for c in comps if len(c) == 1}
    return comps, isolated


def is_admissible_polar(M):
    """True iff every off-diagonal entry lies in {2, 3, 4, 6}."""
    for i, j in combinations(M.types, 2):
        if M.order(i, j) not in (2, 3, 4, 6):
            return False
    return True


def _component_finite(M, comp):
    n = len(comp)
    edges = []
    for a, b in combinations(comp, 2):
        m = M.order(a, b)
        if m != 2:
            if m == INFINITY:
                return False
            edges.append((a, b, m))
    if n == 1:
        return True
    if len(edges) >= n:  # a cycle: affine type at best
        return False
    if n == 2:
        return True  # I2(m) with m finite
    deg = {v: 0 for v in comp}
    nbr = {v: [] for v in comp}
    for a, b, _ in edges:
        deg[a] += 1
        deg[b] += 1
        nbr[a].append(b)
        nbr[b].append(a)
    if max(deg.values()) >= 4:
        return False
    heavy = [e for e in edges if e[2] > 3]
    branch = [v for v in comp if deg[v] == 3]
    if branch:
        if heavy or len(branch) > 1:
            return False
        v0 = branch[0]
        legs = []
        for start in nbr[v0]:
            prev, cur, length = v0, start, 1
            while deg[cur] == 2:
                nxt = nbr[cur][0] if nbr[cur][0] != prev else nbr[cur][1]
                prev, cur = cur, nxt
                length += 1
            legs.append(length)
        a, b, c = sorted(legs)
        if a == 1 and b == 1:
            return True  # D_n
        return (a, b, c) in ((1, 2, 2), (1, 2, 3), (1, 2, 4))  # E6, E7, E8
    # the component is a path
    if not heavy:
        return True  # A_n
    if len(heavy) > 1:
        return False
    a, b, m = heavy[0]
    at_end = deg[a] == 1 or deg[b] == 1
    if m == 4:
        return at_end or n == 4  # B/C_n, or F4 (4-edge in the middle of a 4-path)
    if m == 5:
        return at_end and n in (3, 4)  # H3, H4
    return False  # m >= 6 is finite only at rank 2


def is_finite(M):
    """Whether W(M) is finite, by matching each diagram component against
    the classified finite-type diagrams."""
    comps, _ = diagram_components(M)
    return all(_component_finite(M, c) for c in comps)


def _component_name(M, comp):
    n = len(comp)
    if n == 1:
        return "A1"
    labels = sorted(M.order(a, b) for a, b in combinations(comp, 2) if M.order(a, b) != 2)
    if n == 2:
        m = labels[0]
        return {3: "A2", 4: "C2", 5: "H2", 6: "G2", INFINITY: "I2(inf)"}.get(m, f"I2({m})")
    if n == 3 and len(labels) == 2:
        pair = tuple(labels)
        names = {(3, 3): "A3", (3, 4): "C3", (3, 5): "H3"}
        if pair in names:
            return names[pair]
    return f"rank{n}"


def matrix_name(M):
    """Human name of the diagram, e.g. 'C3' or 'A1 x A2'."""
    comps, _ = diagram_components(M)
    return " x ".join(_component_name(M, c) for c in comps)


# ---------------------------------------------------------------------------
# words and braid rewriting


def _check_word(M, word):
    word = tuple(int(x) for x in word)
    for x in word:
        if not 1 <= x <= M.rank:
            raise ValueError(f"letter {x} outside 1..{M.rank}")
    return word


def _patterns(M):
    """All braid-move rewrites (pattern, replacement) for M."""
    pats = []
    for i, j in combinations(M.types, 2):
        m = M.order(i, j)
        if m == INFINITY:
            continue
        # p(i, j): m letters, alternating, ending in j
        pij = tuple(j if (m - 1 - t) % 2 == 0 else i for t in range(m))
        pji = tuple(i if (m - 1 - t) % 2 == 0 else j for t in range(m))
        pats.append((pij, pji))
        pats.append((pji, pij))
    return pats


def _find_ii(word):
    for s in range(len(word) - 1):
        if word[s] == word[s + 1]:
            return s
    return None


def _braid_neighbors(word, pats):
    n = len(word)
    out = []
    for pat, rep in pats:
        m = len(pat)
        for s in range(n - m + 1):
            if word[s:s + m] == pat:
                out.append(word[:s] + rep + word[s + m:])
    return out


def braid_class(M, word, budget=DEFAULT_BUDGET):
    """Closure of a word under braid moves only (all words have equal length).

    If the closure contains a word with an adjacent repeated letter, returns
    (None, shortened_word) where the repeat has been deleted; otherwise
    (frozenset_of_class, None).
    """
    word = _check_word(M, word)
    s = _find_ii(word)
    if s is not None:
        return None, word[:s] + word[s + 2:]
    pats = _patterns(M)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for w2 in _braid_neighbors(w, pats):
                if w2 in seen:
                    continue
                if len(seen) >= budget:
                    raise BudgetExceeded(f"braid closure exceeded {budget} words")
                seen.add(w2)
                s = _find_ii(w2)
                if s is not None:
                    return None, w2[:s] + w2[s + 2:]
                nxt.append(w2)
        frontier = nxt
    return frozenset(seen), None


def canonical_word(M, word, budget=DEFAULT_BUDGET):
    """ShortLex-least word equivalent to `word` under braid moves and
    ii-deletion (Titsrewriting).  Idempotent."""
    word = _check_word(M, word)
    left = budget
    while True:
        cls, shorter = braid_class(M, word, budget=left)
        if shorter is not None:
            word = shorter
            left -= 1
            continue
        return min(cls)


@dataclass(frozen=True)
class WElement:
    """A group element, held as its ShortLex-least reduced word."""

    word: tuple

    @property
    def length(self):
        return len(self.word)

    def is_identity(self):
        return not self.word


def canonical(M, word):
    return WElement(canonical_word(M, word))


def multiply(M, u, v):
    return WElement(canonical_word(M, u.word + v.word))


def inverse(M, u):
    return WElement(canonical_word(M, tuple(reversed(u.word))))


def reduced_words(M, w):
    """All reduced words of w: the braid-move closure of its canonical word."""
    word = w.word if isinstance(w, WElement) else canonical_word(M, w)
    cls, shorter = braid_class(M, word)
    if shorter is not None:
        raise ValueError(f"word {word} is not reduced")
    return cls


def is_reduced(M, word):
    word = _check_word(M, word)
    return len(canonical_word(M, word)) == len(word)


# ---------------------------------------------------------------------------
# full group tables for finite type


class CoxeterGroupTable:
    """All elements of a finite W(M) with right multiplication by generators.

    Elements are indexed 0..order-1 in ShortLex order of their canonical
    words; index 0 is the identity.
    """

    def __init__(self, matrix, elements, right):
        self.matrix = matrix
        self.elements = elements              # tuple of canonical words
        self.right = right                    # right[e][i-1] = id of e * r_i
        self.index = {w: e for e, w in enumerate(elements)}
        self.descents = tuple(    # right descents: the i with e * r_i shorter than e
            frozenset(i for i, t in enumerate(r, 1) if len(elements[t]) < len(elements[e]))
            for e, r in enumerate(right))
        self._rwsets = None

    @property
    def order(self):
        return len(self.elements)

    def canonical_id(self, word):
        """Identify an arbitrary word by walking the multiplication table."""
        e = 0
        for i in word:
            e = self.right[e][i - 1]
        return e

    def canonical_word(self, word):
        return self.elements[self.canonical_id(word)]

    def element(self, e):
        return WElement(self.elements[e])

    def mult_id(self, a, b):
        return self.canonical_id(self.elements[a] + self.elements[b])

    def inv_id(self, a):
        return self.canonical_id(reversed(self.elements[a]))

    def longest_id(self):
        return max(range(self.order), key=lambda e: (len(self.elements[e]), self.elements[e]))

    def reduced_word_sets(self):
        """Per element, the frozenset of all its reduced words."""
        if self._rwsets is None:
            self._rwsets = [reduced_words(self.matrix, WElement(w)) for w in self.elements]
        return self._rwsets


def enumerate_group(M, cap=10 ** 6):
    """Enumerate W(M) breadth-first by length.  Refuses infinite groups."""
    if not is_finite(M):
        raise InfiniteGroup("W(M) is infinite; enumerate requires finite type")
    k = M.rank
    pats = _patterns(M)
    classcache = {}

    def wclass(word):
        # braid class of a reduced word (no deletions can occur)
        cls = classcache.get(word)
        if cls is None:
            cls, shorter = braid_class(M, word)
            assert shorter is None
            classcache[word] = cls
        return cls

    elements = [()]
    index = {(): 0}
    right = [[None] * k]
    level = [()]
    while level:
        pending = []
        discovered = set()
        for w in level:
            e = index[w]
            cls = wclass(w)
            descents = {cw[-1] for cw in cls} if w else set()
            for i in range(1, k + 1):
                if right[e][i - 1] is not None:
                    continue
                if i in descents:
                    cw = next(c for c in cls if c[-1] == i)
                    target = min(wclass(cw[:-1]))
                    t = index[target]
                    right[e][i - 1] = t
                    right[t][i - 1] = e
                else:
                    target = min(wclass(w + (i,)))
                    discovered.add(target)
                    pending.append((e, i, target))
        new_words = sorted(discovered)
        for word in new_words:
            if len(elements) >= cap:
                raise BudgetExceeded(f"group enumeration exceeded cap {cap}")
            index[word] = len(elements)
            elements.append(word)
            right.append([None] * k)
        for e, i, target in pending:
            t = index[target]
            right[e][i - 1] = t
            right[t][i - 1] = e
        level = new_words
    return CoxeterGroupTable(M, tuple(elements), [tuple(r) for r in right])


_TABLE_CACHE = {}


def group_table(M):
    """The table of W(M), enumerated once per matrix and shared by every caller."""
    table = _TABLE_CACHE.get(M)
    if table is None:
        table = _TABLE_CACHE[M] = enumerate_group(M)
    return table


def complex_from_table(table):
    """Thin chamber system on an enumerated W(M); chamber ids equal table ids."""
    from .chamber import ChamberSystem

    M = table.matrix
    n = table.order
    partitions = {}
    for i in range(1, M.rank + 1):
        panels = set()
        for e in range(n):
            t = table.right[e][i - 1]
            panels.add((min(e, t), max(e, t)))
        partitions[i] = sorted(panels)
    return ChamberSystem(n, M.rank, partitions, labels=table.elements)


def coxeter_complex(M):
    """The thin chamber system on W(M): chambers are elements, the i-panel
    of w is {w, w * r_i}."""
    return complex_from_table(group_table(M))
