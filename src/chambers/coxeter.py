"""Coxeter matrices, group tables, and the word problem on them.

Group elements are canonical (ShortLex-least) reduced words over the type
set I = {1, ..., k}.  W(M) must be finite: one level loop builds its
multiplication table, naming each new element by the least word of its
braid class (`enumerate_group`) or by its id in the table of a relabelling
(`group_table`), and the word problem is a walk of that table.  No
reflection representation; everything here is exact integer combinatorics.
"""

import functools
import operator
from dataclasses import dataclass
from itertools import combinations

from . import groups
from .errors import (
    BadDiagonal,
    BadOffDiagonal,
    BudgetExceeded,
    InfiniteGroup,
    NotSymmetric,
)

INFINITY = 0  # matrix entry encoding m_ij = infinity (also used in JSON)

DEFAULT_BUDGET = 10 ** 6


def _int(x):
    """x as an int by operator.index, refusing a bool (JSON true or false)."""
    if type(x) is bool:
        raise TypeError(f"{x!r} is a bool, not an integer")
    return operator.index(x)


class CoxeterMatrix:
    """Symmetric k x k matrix, m_ii = 1, off-diagonal >= 2 or INFINITY."""

    def __init__(self, entries):
        rows = [tuple(map(_int, row)) for row in entries]
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

    @functools.cached_property
    def _diagram(self):
        """Per diagram component, in order of least type, (component, its
        `_component_type`): the one reading of the diagram that `is_finite`,
        `matrix_name`, `group_table` and `verify.c3_roles` share."""
        return tuple((comp, _component_type(self, comp)) for comp in diagram_components(self))

    @property
    def types(self):
        return tuple(range(1, self.rank + 1))

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"CoxeterMatrix({[list(r) for r in self.rows]})"


def matrix_from_json(obj):
    M = CoxeterMatrix(obj["m"])
    if "rank" in obj and _int(obj["rank"]) != M.rank:
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
    """Connected components of the Coxeter diagram (edge iff m_ij != 2),
    as a sorted list of sorted type tuples: the orbits of the group one
    transposition per edge generates, found in order of least type."""
    edges = [groups.perm_from_cycles(M.rank + 1, [(i, j)])
             for i, j in combinations(M.types, 2) if M.order(i, j) != 2]
    comps = []
    for i in M.types:
        if not any(i in comp for comp in comps):
            comps.append(tuple(sorted(groups.orbit(i, edges, operator.getitem, M.rank))))
    return comps


def is_admissible_polar(M):
    """True iff every off-diagonal entry lies in {2, 3, 4, 6}."""
    for i, j in combinations(M.types, 2):
        if M.order(i, j) not in (2, 3, 4, 6):
            return False
    return True


def _component_type(M, comp):
    """(name, nodes) of a connected diagram of finite type, or None when W
    is infinite (Humphreys, Reflection Groups and Coxeter Groups, 2.4-2.7).
    A path lists its nodes from the end away from its bond above 3, so C3
    gives (point, line, plane); a branched tree lists its branch node
    first, then its legs, shortest first."""
    n = len(comp)
    if n < 3:
        m = M.order(comp[0], comp[-1])  # 1 on a single node
        names = {1: "A1", 3: "A2", 4: "C2", 5: "H2", 6: "G2"}
        return None if m == INFINITY else (names.get(m, f"I2({m})"), comp)
    nbr = {v: [w for w in comp if w != v and M.order(v, w) != 2] for v in comp}
    if sum(map(len, nbr.values())) >= 2 * n:  # a cycle: affine type at best
        return None

    def leg(prev, cur):
        out = [cur]
        while len(nbr[cur]) == 2:
            prev, cur = cur, next(w for w in nbr[cur] if w != prev)
            out.append(cur)
        return out

    branch = [v for v in comp if len(nbr[v]) > 2]
    if branch:
        legs = sorted((leg(branch[0], w) for w in nbr[branch[0]]), key=lambda l: (len(l), l))
        nodes = (branch[0], *sum(legs, []))
        # one branch node, every bond a 3
        laced = len(nodes) == n and all(M.order(v, w) == 3 for v in comp for w in nbr[v])
        names = {(1, 1, n - 3): f"D{n}", (1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}
        name = names.get(tuple(map(len, legs))) if laced else None
    else:
        end = min(v for v in comp if len(nbr[v]) == 1)
        nodes = (end, *leg(end, nbr[end][0]))
        bonds = tuple(M.order(v, w) for v, w in zip(nodes, nodes[1:]))
        if bonds[::-1] < bonds:
            nodes, bonds = nodes[::-1], bonds[::-1]
        names = {(3,) * (n - 1): f"A{n}", (3,) * (n - 2) + (4,): f"C{n}",
                 (3, 4, 3): "F4", (3, 5): "H3", (3, 3, 5): "H4"}
        name = names.get(bonds)
    return None if name is None else (name, nodes)


def is_finite(M):
    """Whether W(M) is finite: every diagram component has a finite type."""
    return all(t is not None for _, t in M._diagram)


def matrix_name(M):
    """Human name of the diagram, e.g. 'C3' or 'A1 x A2'; an infinite
    component is 'I2(inf)' or 'rank<n>'."""
    return " x ".join(t[0] if t else "I2(inf)" if len(comp) == 2 else f"rank{len(comp)}"
                      for comp, t in M._diagram)


# ---------------------------------------------------------------------------
# words


def _check_word(M, word):
    word = tuple(map(_int, word))
    for x in word:
        if not 1 <= x <= M.rank:
            raise ValueError(f"letter {x} outside 1..{M.rank}")
    return word


@dataclass(frozen=True)
class WElement:
    """A group element, held as its ShortLex-least reduced word."""

    word: tuple

    @property
    def length(self):
        return len(self.word)


def canonical_word(M, word):
    """The ShortLex-least reduced word of the element `word` spells, read
    off `group_table(M)`.  Raises InfiniteGroup on an infinite W(M)."""
    return group_table(M).canonical_word(word)


def canonical(M, word):
    return WElement(canonical_word(M, word))


def multiply(M, u, v):
    return WElement(canonical_word(M, u.word + v.word))


def inverse(M, u):
    return WElement(canonical_word(M, tuple(reversed(u.word))))


def reduced_words(M, w):
    """All reduced words of w, a WElement or any word of it.  A WElement
    whose word is not reduced raises ValueError."""
    table = group_table(M)
    word = w.word if isinstance(w, WElement) else w
    e = table.canonical_id(word)
    if isinstance(w, WElement) and len(word) != len(table.elements[e]):
        raise ValueError(f"word {word} is not reduced")
    return table.reduced_words(e)


def is_reduced(M, word):
    word = tuple(word)
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
        self.descents = tuple(    # right descents: the i with e * r_i shorter than e
            frozenset(i for i, t in enumerate(r, 1) if len(elements[t]) < len(elements[e]))
            for e, r in enumerate(right))

    @property
    def order(self):
        return len(self.elements)

    def canonical_id(self, word):
        """Identify an arbitrary word by walking the multiplication table."""
        e = 0
        for i in _check_word(self.matrix, word):
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

    def reduced_words(self, e, memo=None):
        """The frozenset of all reduced words of element e.  By the exchange
        condition, those ending in i are the reduced words of the shorter
        e * r_i followed by i, over the right descents i of e.  `memo` maps
        the ids done so far to their words."""
        memo = {} if memo is None else memo
        below, stack = set(), [e]
        while stack:  # the elements below e through descents that memo lacks
            x = stack.pop()
            if x not in memo and x not in below:
                below.add(x)
                stack += [self.right[x][i - 1] for i in self.descents[x]]
        for x in sorted(below):  # ids are ShortLex: shorter elements first
            words = frozenset(w + (i,) for i in self.descents[x] for w in memo[self.right[x][i - 1]])
            memo[x] = words or frozenset({()})  # the identity: no descent, the empty word
        return memo[e]


def _patterns(M):
    """All braid-move rewrites (pattern, replacement) for a finite M."""
    pats = []
    for i, j in combinations(M.types, 2):
        m = M.order(i, j)
        # p(i, j): m letters, alternating, ending in j
        pij = tuple(j if (m - 1 - t) % 2 == 0 else i for t in range(m))
        pji = tuple(i if (m - 1 - t) % 2 == 0 else j for t in range(m))
        pats.append((pij, pji))
        pats.append((pji, pij))
    return pats


def _braid_neighbors(word, pats):
    n = len(word)
    out = []
    for pat, rep in pats:
        m = len(pat)
        for s in range(n - m + 1):
            if word[s:s + m] == pat:
                out.append(word[:s] + rep + word[s + m:])
    return out


def _braid_class(M, word):
    """The frozenset of words a reduced word reaches by braid moves: the
    reduced words of its element (Tits).  Past DEFAULT_BUDGET words raises
    BudgetExceeded."""
    pats = _patterns(M)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for w2 in _braid_neighbors(w, pats):
                if w2 not in seen:
                    if len(seen) >= DEFAULT_BUDGET:
                        raise BudgetExceeded(f"braid closure exceeded {DEFAULT_BUDGET} words")
                    seen.add(w2)
                    nxt.append(w2)
        frontier = nxt
    return frozenset(seen)


def _level_table(M, start, climb):
    """The table of W(M), built one length level at a time from `start`, the
    name of the identity.  Placing a level sets every edge from it to the
    level below, so an entry still unset when its element's level is scanned
    is a non-descent: e * r_i is one letter longer.  `climb` takes the
    level's (name of e, i) pairs and returns one name per e * r_i, equal
    exactly when the elements are.  The level is scanned in id order, so a
    new element's first pair is its least: ids are ShortLex, and
    word(e * r_i) = word(e) + (i,)."""
    k = M.rank
    elements, right, level = [()], [[None] * k], {start: 0}
    while level:
        pairs = [(u, e, i) for u, e in level.items() for i, t in enumerate(right[e], 1) if t is None]
        level = {}  # the next level: name -> id
        for (_, e, i), u in zip(pairs, climb([(u, i) for u, _, i in pairs])):
            if u not in level:
                level[u] = len(elements)
                elements.append(elements[e] + (i,))
                right.append([None] * k)
            right[e][i - 1] = level[u]
            right[level[u]][i - 1] = e
    return CoxeterGroupTable(M, tuple(elements), [tuple(r) for r in right])


def enumerate_group(M, cap=10 ** 6):
    """Enumerate W(M) breadth-first by length.  Refuses infinite groups.

    Each new element is named by the least word of its braid class: the
    class of its first candidate w + (i,) is all its reduced words (Tits),
    so one closure per element names every candidate in it.  An element
    past `cap` raises BudgetExceeded before its closure runs, and so does
    an entry m_ij > cap/2 before any closure: W(M) holds the dihedral
    group of order 2 m_ij."""
    if not is_finite(M):
        raise InfiniteGroup("W(M) is infinite; enumerate requires finite type")
    if 2 * max((M.order(i, j) for i, j in combinations(M.types, 2)), default=0) > cap:
        raise BudgetExceeded(f"group enumeration exceeded cap {cap}")
    made = 1  # elements named so far, the identity included

    def climb(pairs):
        nonlocal made
        words = [w + (i,) for w, i in pairs]
        candidates, least = set(words), {}  # candidate -> least word of its class
        for word in words:
            if word not in least:
                if made >= cap:
                    raise BudgetExceeded(f"group enumeration exceeded cap {cap}")
                made += 1
                cls = _braid_class(M, word)
                least.update(dict.fromkeys(candidates & cls, min(cls)))
        return [least[word] for word in words]

    return _level_table(M, (), climb)


# matrix -> its table, and diagram key -> (first table of that type, its node order)
_TABLE_CACHE = {}


def group_table(M):
    """The table of W(M), shared by every caller.  W(M) is enumerated once
    per diagram type: the first matrix of a type is enumerated, and each
    relabelling of it is read off that table with no braid closure: e * r_i
    is named by its id x * r_phi(i) there, x being e's, through the type
    bijection phi(n[a]) = n0[a] between the two canonical node orders.  A
    node order lists the diagram components by name, each in the order of
    `_component_type`; the matrix read in it is the key."""
    table = _TABLE_CACHE.get(M)
    if table is None:
        if not is_finite(M):
            raise InfiniteGroup("W(M) is infinite; enumerate requires finite type")
        nodes = [v for t in sorted(t for _, t in M._diagram) for v in t[1]]
        key = tuple(tuple(M.order(a, b) for b in nodes) for a in nodes)
        if key in _TABLE_CACHE:
            table0, nodes0 = _TABLE_CACHE[key]
            phi = dict(zip(nodes, nodes0))
            table = _level_table(M, 0, lambda pairs: [table0.right[x][phi[i] - 1] for x, i in pairs])
        else:
            table = enumerate_group(M)
            _TABLE_CACHE[key] = (table, nodes)
        _TABLE_CACHE[M] = table
    return table


def complex_from_table(table):
    """Thin chamber system on an enumerated W(M); chamber ids equal table
    ids, and the i-panel of e is {e, e * r_i}, keyed by its least member."""
    from .chamber import ChamberSystem, _chambers_by_key

    M = table.matrix
    partitions = {i: _chambers_by_key(min(e, r[i - 1]) for e, r in enumerate(table.right))
                  for i in M.types}
    return ChamberSystem(table.order, M.rank, partitions, labels=table.elements)


def coxeter_complex(M):
    """The thin chamber system on W(M): chambers are elements, the i-panel
    of w is {w, w * r_i}."""
    return complex_from_table(group_table(M))
