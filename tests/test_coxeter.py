import itertools
import json
import math
import random
from itertools import permutations

import pytest

import corpus
from chambers import coxeter, groups
from chambers.coxeter import (
    A1xA1,
    A2,
    A3,
    C3,
    H3,
    CoxeterMatrix,
    WElement,
    canonical,
    canonical_word,
    dihedral,
    enumerate_group,
    inverse,
    multiply,
    reduced_words,
)
from chambers.errors import (
    BadDiagonal,
    BadOffDiagonal,
    BudgetExceeded,
    InfiniteGroup,
    NotSymmetric,
)


def test_validate_matrix():
    M = CoxeterMatrix([[1, 3], [3, 1]])
    assert M.rank == 2 and M.order(1, 2) == 3
    CoxeterMatrix([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
    with pytest.raises(NotSymmetric):
        CoxeterMatrix([[1, 2], [3, 1]])
    with pytest.raises(NotSymmetric):
        CoxeterMatrix([[1, 2, 2], [2, 1, 2]])
    with pytest.raises(BadDiagonal):
        CoxeterMatrix([[2, 3], [3, 1]])
    with pytest.raises(BadOffDiagonal):
        CoxeterMatrix([[1, 1], [1, 1]])
    # entries must be integers: a float or a digit string is refused, not truncated
    for bad in (3.5, 3.0, "3"):
        with pytest.raises(TypeError):
            CoxeterMatrix([[1, bad], [bad, 1]])
    # JSON true is not the diagonal entry 1
    with pytest.raises(TypeError, match="bool"):
        CoxeterMatrix([[True, 3], [3, True]])


def test_matrix_json_roundtrip():
    obj = {"rank": 2, "m": [[1, 0], [0, 1]]}
    assert coxeter.matrix_from_json(obj) == dihedral(0)


def test_diagram_components():
    assert coxeter.diagram_components(A2) == [(1, 2)]
    assert coxeter.diagram_components(A1xA1) == [(1,), (2,)]
    assert coxeter.diagram_components(C3) == [(1, 2, 3)]
    assert coxeter.diagram_components(CoxeterMatrix([[1, 3, 2], [3, 1, 2], [2, 2, 1]])) == [
        (1, 2), (3,)]


def _components_by_depth_first_search(M):
    """The diagram components by a depth-first search over the edges
    m_ij != 2: the reference for `diagram_components`, which reads orbits."""
    seen, comps = set(), []
    for i in M.types:
        if i in seen:
            continue
        seen.add(i)
        stack, comp = [i], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in M.types:
                if w not in seen and M.order(v, w) != 2:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def test_diagram_components_match_depth_first_search():
    matrices = [M for M in vars(corpus).values() if isinstance(M, CoxeterMatrix)]
    assert len(matrices) >= 9
    rng = random.Random(1974)
    for _ in range(400):
        k = rng.randint(0, 8)
        rows = [[1] * k for _ in range(k)]
        for a, b in itertools.combinations(range(k), 2):
            rows[a][b] = rows[b][a] = rng.choice((2, 2, 2, 2, 3, 4, 6, coxeter.INFINITY))
        matrices.append(CoxeterMatrix(rows))
    sizes = set()
    for M in matrices:
        comps = coxeter.diagram_components(M)
        assert comps == _components_by_depth_first_search(M), M
        sizes.add(len(comps))
    assert {0, 1, 2, 3} <= sizes


def test_one_diagram_reading_per_matrix(monkeypatch, tmp_path, capsys):
    # is_finite, matrix_name, group_table's node order, c3_roles and the C3
    # check read one classification per CoxeterMatrix; an empty table memo
    # stands for a fresh process, where group_table reads the node order
    from chambers import catalog, chamber, cli, verify

    calls = []
    real = coxeter.diagram_components
    monkeypatch.setattr(coxeter, "diagram_components", lambda M: calls.append(M) or real(M))
    monkeypatch.setattr(coxeter, "_TABLE_CACHE", {})
    M = corpus.relabelled(C3, (2, 3, 1))
    assert coxeter.is_finite(M) and coxeter.matrix_name(M) == "C3"
    assert coxeter.group_table(M).order == 48 and verify.c3_roles(M) == (3, 1, 2)
    assert calls == [M]
    # a fano check job reads its type matrix once, where the parent read
    # the diagram four times (matrix_name, group_table and two is_finite)
    calls.clear()
    path = tmp_path / "fano.json"
    path.write_text(json.dumps(chamber.system_to_json(catalog.build_fano_flags())))
    assert cli.main(["check", str(path), "--building", "--c3", "--ll", "--simplicial"]) == 1
    assert "error" not in capsys.readouterr().err
    assert calls == [A2]


def test_admissible_polar():
    assert coxeter.is_admissible_polar(C3)
    assert coxeter.is_admissible_polar(A1xA1)
    assert not coxeter.is_admissible_polar(H3)
    assert not coxeter.is_admissible_polar(dihedral(0))
    assert not coxeter.is_admissible_polar(dihedral(7))


FINITE = [
    A2, A3, C3, H3, A1xA1, dihedral(5), dihedral(8),
    # B4
    CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]]),
    corpus.D4,  # node 2 central
    # F4
    CoxeterMatrix([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]),
    # H4
    CoxeterMatrix([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]),
]

INFINITE = [
    dihedral(0),
    # affine A2: a 3-cycle of simple bonds
    CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]]),
    # affine C2: path with two 4-bonds
    CoxeterMatrix([[1, 4, 2], [4, 1, 4], [2, 4, 1]]),
    # affine G2: path 6,3
    CoxeterMatrix([[1, 6, 2], [6, 1, 3], [2, 3, 1]]),
    # 5-3-3-3 path (rank 5 with a 5-bond at the end is not H-type)
    CoxeterMatrix([[1, 5, 2, 2, 2], [5, 1, 3, 2, 2], [2, 3, 1, 3, 2],
                   [2, 2, 3, 1, 3], [2, 2, 2, 3, 1]]),
    # degree-4 branch node (affine D4)
    CoxeterMatrix([[1, 3, 2, 2, 2], [3, 1, 3, 3, 3], [2, 3, 1, 2, 2],
                   [2, 3, 2, 1, 2], [2, 3, 2, 2, 1]]),
    # 4-bond in the middle of a 5-node path (affine F4)
    CoxeterMatrix([[1, 3, 2, 2, 2], [3, 1, 4, 2, 2], [2, 4, 1, 3, 2],
                   [2, 2, 3, 1, 3], [2, 2, 2, 3, 1]]),
    # branch node plus a 4-bond (affine B3)
    CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 4], [2, 3, 1, 2], [2, 4, 2, 1]]),
    # 4-bonds at both ends of a path (affine C3)
    CoxeterMatrix([[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]]),
]


def test_is_finite_classification():
    for M in FINITE:
        assert coxeter.is_finite(M), M
    for M in INFINITE:
        assert not coxeter.is_finite(M), M


def test_matrix_names():
    assert coxeter.matrix_name(A3) == "A3"
    assert coxeter.matrix_name(C3) == "C3"
    assert coxeter.matrix_name(H3) == "H3"
    assert coxeter.matrix_name(A1xA1) == "A1 x A1"
    assert coxeter.matrix_name(dihedral(8)) == "I2(8)"
    assert coxeter.matrix_name(CoxeterMatrix([[1, 3, 2], [3, 1, 2], [2, 2, 1]])) == "A2 x A1"
    # an infinite component keeps its placeholder name
    assert coxeter.matrix_name(dihedral(0)) == "I2(inf)"
    assert coxeter.matrix_name(INFINITE[1]) == "rank3"


def _path(*bonds):
    """The path diagram with the given bond labels, in node order."""
    rows = [[1 if i == j else 2 for j in range(len(bonds) + 1)] for i in range(len(bonds) + 1)]
    for i, m in enumerate(bonds):
        rows[i][i + 1] = rows[i + 1][i] = m
    return CoxeterMatrix(rows)


def _tree(*edges):
    """A simply laced diagram on nodes 1..n+1 from its n edges."""
    rows = [[1 if i == j else 2 for j in range(len(edges) + 1)] for i in range(len(edges) + 1)]
    for a, b in edges:
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = 3
    return CoxeterMatrix(rows)


# the rank-4 matrices of the benchmark oracle (perfbench/oracle.py), and H4
RANK4_NAMES = {
    "A4": corpus.A4,
    "C4": CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]]),  # B4
    "D4": corpus.D4,
    "F4": CoxeterMatrix([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]),
    "H4": CoxeterMatrix([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]),
}


def test_matrix_names_of_rank_4_and_beyond():
    for name, M in RANK4_NAMES.items():
        for sigma in permutations(M.types):
            assert coxeter.matrix_name(corpus.relabelled(M, sigma)) == name
    assert coxeter.matrix_name(corpus.A1xA3) == "A1 x A3"
    assert coxeter.matrix_name(corpus.A2xA2) == "A2 x A2"
    assert coxeter.matrix_name(_path(3, 3, 3, 3, 4)) == "C6"
    assert coxeter.matrix_name(_tree((1, 2), (2, 3), (2, 4), (4, 5))) == "D5"
    # E_n: a path on nodes 1..n-1 with node n on its third node
    for n in (6, 7, 8, 9):
        name = coxeter.matrix_name(_tree(*[(a, a + 1) for a in range(1, n - 1)], (3, n)))
        assert name == (f"E{n}" if n < 9 else "rank9")  # rank 9 is affine E8


def test_component_node_order():
    # a path starts at the end away from its bond above 3; a tree at its branch node
    assert coxeter._component_type(C3, (1, 2, 3)) == ("C3", (1, 2, 3))
    assert coxeter._component_type(_path(4, 3, 3), (1, 2, 3, 4)) == ("C4", (4, 3, 2, 1))
    assert coxeter._component_type(_path(5, 3), (1, 2, 3)) == ("H3", (3, 2, 1))
    assert coxeter._component_type(RANK4_NAMES["F4"], (1, 2, 3, 4)) == ("F4", (1, 2, 3, 4))
    assert coxeter._component_type(corpus.D4, (1, 2, 3, 4)) == ("D4", (2, 1, 3, 4))
    assert coxeter._component_type(_tree((1, 2), (2, 3), (3, 4), (3, 5)), (1, 2, 3, 4, 5)) \
        == ("D5", (3, 4, 5, 2, 1))


def _positive_definite(M):
    """The reference oracle: W(M) is finite iff the Gram matrix
    -cos(pi / m_ij) is positive definite (Humphreys 6.4), tested by a
    Cholesky factorisation in floats."""
    k = M.rank
    gram = [[-math.cos(math.pi / m) if m else -1.0 for m in row] for row in M.rows]
    low = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            s = gram[i][j] - sum(low[i][t] * low[j][t] for t in range(j))
            if i == j:
                if s < 1e-9:
                    return False
                low[i][i] = math.sqrt(s)
            else:
                low[i][j] = s / low[j][j]
    return True


def _all_matrices(rank, entries):
    pairs = list(itertools.combinations(range(rank), 2))
    for values in itertools.product(entries, repeat=len(pairs)):
        rows = [[1] * rank for _ in range(rank)]
        for (i, j), m in zip(pairs, values):
            rows[i][j] = rows[j][i] = m
        yield CoxeterMatrix(rows)


def test_is_finite_matches_gram_oracle():
    count = 0
    for rank in range(1, 5):
        for M in _all_matrices(rank, (2, 3, 4, 5, 6, coxeter.INFINITY)):
            assert coxeter.is_finite(M) == _positive_definite(M), M
            count += 1
    assert count == 46879


def _order_from_name(name):
    """|W| from the order formula of each named component."""
    special = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "H3": 120,
               "H4": 14400, "A2": 6, "C2": 8, "H2": 10, "G2": 12}
    order = 1
    for part in name.split(" x "):
        n = int(part[1:]) if part[1:].isdigit() else None
        order *= (special[part] if part in special
                  else 2 * int(part[3:-1]) if part.startswith("I2(")
                  else math.factorial(n + 1) if part[0] == "A"
                  else 2 ** n * math.factorial(n) if part[0] == "C"
                  else 2 ** (n - 1) * math.factorial(n))  # D_n
    return order


def test_names_give_group_orders():
    finite = [M for rank in range(1, 4) for M in _all_matrices(rank, (2, 3, 4, 5, 6, 8))
              if coxeter.is_finite(M)]
    for M in finite + [corpus.A4]:
        assert _order_from_name(coxeter.matrix_name(M)) == enumerate_group(M).order, M


# ---------------------------------------------------------------------------
# The braid-rewriting oracle: Tits' solution of the word problem by braid
# moves plus deletion of an adjacent repeated letter.  It serves every M,
# infinite types included, and reads no group table.


def _oracle_patterns(M):
    """(pattern, replacement) for each braid move of M, both directions."""
    pats = []
    for i, j in itertools.combinations(M.types, 2):
        m = M.order(i, j)
        if m != coxeter.INFINITY:
            pij = tuple(j if (m - 1 - t) % 2 == 0 else i for t in range(m))
            pji = tuple(i if (m - 1 - t) % 2 == 0 else j for t in range(m))
            pats += [(pij, pji), (pji, pij)]
    return pats


def _oracle_class(M, word, budget=10 ** 6):
    """(the braid class of word, None), or (None, a shorter word) as soon as
    the class holds a word with an adjacent repeated letter, which is then
    deleted.  Past `budget` words raises BudgetExceeded."""
    pats = _oracle_patterns(M)
    seen, frontier = {word}, [word]
    while frontier:
        nxt = []
        for w in frontier:
            s = next((s for s in range(len(w) - 1) if w[s] == w[s + 1]), None)
            if s is not None:
                return None, w[:s] + w[s + 2:]
            for pat, rep in pats:
                m = len(pat)
                for w2 in (w[:s] + rep + w[s + m:] for s in range(len(w) - m + 1)
                           if w[s:s + m] == pat):
                    if w2 not in seen:
                        if len(seen) >= budget:
                            raise BudgetExceeded(f"braid closure exceeded {budget} words")
                        seen.add(w2)
                        nxt.append(w2)
        frontier = nxt
    return frozenset(seen), None


def oracle_word(M, word, budget=10 ** 6):
    """The ShortLex-least word of the element `word` spells; each deletion
    spends one unit of `budget`, the closures the rest."""
    word = tuple(word)
    while True:
        cls, shorter = _oracle_class(M, word, budget)
        if shorter is None:
            return min(cls)
        word, budget = shorter, budget - 1


def oracle_reduced_words(M, word):
    """All reduced words of the element `word` spells."""
    return _oracle_class(M, oracle_word(M, word))[0]


def test_canonical_budget():
    # the oracle's rewriting budget; the table walk needs none
    with pytest.raises(BudgetExceeded):
        oracle_word(H3, (1, 2, 3) * 5, budget=4)
    with pytest.raises(BudgetExceeded):
        enumerate_group(H3, cap=50)


def test_canonical_infinite_type():
    # no braid relations in the infinite dihedral group: only ii-deletion
    M = dihedral(0)
    assert oracle_word(M, (1, 2, 1, 2, 1, 1, 2)) == (1, 2, 1)
    assert oracle_word(M, (1, 2, 1, 2)) == (1, 2, 1, 2)
    assert oracle_reduced_words(M, (2, 1, 1, 2, 1)) == {(1,)}
    # the word API reads the finite group table and refuses infinite types
    affine_a2 = CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    u, v = WElement((1,)), WElement((2,))
    for M in (dihedral(0), affine_a2):
        for call in (lambda: canonical(M, (1, 2)), lambda: multiply(M, u, v),
                     lambda: inverse(M, u), lambda: coxeter.is_reduced(M, (1, 2)),
                     lambda: reduced_words(M, u)):
            with pytest.raises(InfiniteGroup):
                call()


def test_canonical_examples():
    assert canonical_word(A2, (1, 2, 1)) == (1, 2, 1)
    assert set(reduced_words(A2, canonical(A2, (1, 2, 1)))) == {(1, 2, 1), (2, 1, 2)}
    assert canonical_word(A2, (1, 1)) == ()
    assert canonical_word(A3, (1, 2, 1, 3, 1)) == (1, 2, 3)
    w = canonical_word(C3, (3, 2, 3, 2, 3, 1, 1))
    assert canonical_word(C3, w) == w  # idempotent


def test_word_letters_are_integers():
    # a float letter is refused, not truncated to 1; so is a bool, by the
    # word API and by the table walk alike
    table = coxeter.group_table(A3)
    for word in ((1.7, 2), (True, 2), (True,)):
        with pytest.raises(TypeError):
            canonical(A3, word)
        with pytest.raises(TypeError):
            table.canonical_word(word)
    # letters outside 1..3 name no generator, 0 and -1 included
    for word in ((1, 4), (4,), (0,), (-1,)):
        with pytest.raises(ValueError, match=f"letter {word[-1]} outside"):
            canonical(A3, word)
        with pytest.raises(ValueError, match=f"letter {word[-1]} outside"):
            table.canonical_word(word)


def _word_to_perm(word, gens, degree):
    p = groups.identity(degree)
    for i in word:
        p = groups.mul(p, gens[i - 1])
    return p


def test_a3_against_symmetric_group():
    # W(A3) is the symmetric group on four letters: adjacent transpositions
    # give an independent oracle for word equivalence.
    gens = [groups.perm_from_cycles(4, [(i, i + 1)]) for i in range(3)]
    S4 = groups.group_from_generators(gens)
    assert S4.order == 24
    table = enumerate_group(A3)
    assert table.order == 24
    rng = random.Random(0)
    for _ in range(300):
        f = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 10)))
        g = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 10)))
        same_word = canonical_word(A3, f) == canonical_word(A3, g)
        same_perm = _word_to_perm(f, gens, 4) == _word_to_perm(g, gens, 4)
        assert same_word == same_perm


def test_c3_against_signed_permutations():
    # W(C3) as signed permutations of 3 coordinates on points
    # {+1,+2,+3,-1,-2,-3} = 0..5.
    s1 = groups.perm_from_cycles(6, [(0, 1), (3, 4)])
    s2 = groups.perm_from_cycles(6, [(1, 2), (4, 5)])
    s3 = groups.perm_from_cycles(6, [(2, 5)])
    W = groups.group_from_generators([s1, s2, s3])
    assert W.order == 48
    table = enumerate_group(C3)
    assert table.order == 48
    gens = [s1, s2, s3]
    rng = random.Random(1)
    for _ in range(200):
        f = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 12)))
        cw = canonical_word(C3, f)
        assert _word_to_perm(f, gens, 6) == _word_to_perm(cw, gens, 6)


def test_dihedral_orders():
    for m in range(2, 9):
        table = enumerate_group(dihedral(m))
        assert table.order == 2 * m
        # independent model: rotation + reflection on m points
        if m > 2:
            rot = groups.perm_from_cycles(m, [tuple(range(m))])
            ref = tuple((m - i) % m for i in range(m))
            D = groups.group_from_generators([rot, ref])
            assert D.order == 2 * m


def test_enumerate_orders_and_errors():
    assert enumerate_group(A3).order == 24
    assert enumerate_group(C3).order == 48
    assert enumerate_group(H3).order == 120
    with pytest.raises(InfiniteGroup):
        enumerate_group(dihedral(0))
    with pytest.raises(InfiniteGroup):
        enumerate_group(CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]]))


def test_enumerate_deterministic():
    t1 = enumerate_group(C3)
    t2 = enumerate_group(C3)
    assert t1.elements == t2.elements
    assert t1.right == t2.right


def test_multiply_inverse():
    table = enumerate_group(A3)
    e = canonical(A3, ())
    u = canonical(A3, (1, 2))
    assert multiply(A3, u, e) == u
    assert multiply(A2, canonical(A2, (1,)), canonical(A2, (2,))).word == (1, 2)
    w0 = table.element(corpus.longest_id(table))
    assert w0.length == 6
    assert multiply(A3, w0, w0).word == ()  # the longest element is an involution
    rng = random.Random(2)
    for _ in range(50):
        w = canonical(A3, tuple(rng.randint(1, 3) for _ in range(6)))
        assert multiply(A3, w, inverse(A3, w)).word == ()


def test_reduced_words_counts():
    assert reduced_words(A3, canonical(A3, ())) == frozenset({()})
    table = enumerate_group(A3)
    w0 = table.element(corpus.longest_id(table))
    rws = reduced_words(A3, w0)
    assert len(rws) == 16
    assert all(len(w) == 6 for w in rws)
    # brute force: every length-6 word over {1,2,3} that rewrites to w0
    # without shortening is one of them
    brute = set()
    for n in range(3 ** 6):
        word = tuple((n // 3 ** p) % 3 + 1 for p in range(6))
        if oracle_word(A3, word) == w0.word:
            brute.add(word)
    assert brute == set(rws)
    with pytest.raises(ValueError):
        reduced_words(A3, WElement((1, 1)))


def test_reduced_words_of_an_element_longer_than_the_recursion_limit(monkeypatch):
    # the longest element of I2(1200) has 1,200 letters, more than the
    # interpreter's default recursion limit, and exactly two reduced words:
    # the two alternating ones
    monkeypatch.setattr(coxeter, "_TABLE_CACHE", {})
    M = dihedral(1200)
    table = coxeter.group_table(M)
    w0 = table.element(table.order - 1)
    assert table.order == 2400 and w0.length == 1200
    assert reduced_words(M, w0) == {tuple(1 + t % 2 for t in range(1200)),
                                    tuple(2 - t % 2 for t in range(1200))}


def test_canonical_is_congruence():
    # the oracle's normal form is a congruence, and the table walk agrees
    rng = random.Random(3)
    equal = 0
    for _ in range(300):
        f = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 8)))
        g = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 8)))
        if oracle_word(C3, f) != oracle_word(C3, g):
            continue
        equal += 1
        h = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 5)))
        assert oracle_word(C3, f + h) == oracle_word(C3, g + h) == canonical_word(C3, g + h)
    assert equal > 5


def test_length_alternation_and_exchange():
    table = enumerate_group(C3)
    rng = random.Random(4)
    for _ in range(200):
        f = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 10)))
        w = oracle_word(C3, f)
        i = rng.randint(1, 3)
        w2 = oracle_word(C3, w + (i,))
        assert abs(len(w2) - len(w)) == 1
        # a word is reduced iff rewriting preserves its length
        assert coxeter.is_reduced(C3, f) == (len(w) == len(f))
        # table walk agrees with rewriting
        assert table.canonical_word(f) == w


def test_descents_are_last_letters_of_reduced_words():
    for M in (A3, C3, H3):
        table = enumerate_group(M)
        for e, word in enumerate(table.elements):
            words, _ = _oracle_class(M, word)
            assert table.descents[e] == {w[-1] for w in words if w}


def _reference_enumerate_group(M, cap=10 ** 6):
    """The earlier engine: breadth-first by length, reading each element's
    descents off its cached braid class and each down-edge off a reduced
    word ending in that descent."""
    if not coxeter.is_finite(M):
        raise InfiniteGroup("W(M) is infinite; enumerate requires finite type")
    k = M.rank
    classcache = {}

    def wclass(word):
        cls = classcache.get(word)
        if cls is None:
            cls = classcache[word] = coxeter._braid_class(M, word)
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
                    t = index[min(wclass(cw[:-1]))]
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
    return coxeter.CoxeterGroupTable(M, tuple(elements), [tuple(r) for r in right])


def _cross_check_matrices():
    named = [coxeter.A1, A2, A3, C3, H3, corpus.A4, corpus.D4, corpus.A1xA3, corpus.A2xA2]
    named += [dihedral(m) for m in range(2, 13)]
    relabelled = [corpus.relabelled(M, p) for M in (A3, C3, H3)
                  for p in permutations((1, 2, 3))]
    relabelled += [corpus.relabelled(M, p) for M in (corpus.A4, corpus.D4, corpus.A1xA3)
                   for p in ((2, 1, 3, 4), (3, 1, 4, 2))]
    return named + relabelled


def test_enumerate_matches_reference_engine():
    for M in _cross_check_matrices():
        new, ref = enumerate_group(M), _reference_enumerate_group(M)
        assert new.elements == ref.elements, M
        assert new.right == ref.right, M
        assert new.descents == ref.descents, M
    for engine in (enumerate_group, _reference_enumerate_group):
        with pytest.raises(BudgetExceeded):
            engine(H3, cap=50)


def test_one_braid_closure_per_element(monkeypatch):
    calls = []
    closure = coxeter._braid_class
    monkeypatch.setattr(coxeter, "_braid_class", lambda M, word: calls.append(word) or closure(M, word))
    for M in _cross_check_matrices():
        calls.clear()
        table = enumerate_group(M)
        assert len(calls) == table.order - 1, M
    # the cap refuses exactly the groups larger than it
    for M in (coxeter.A1, A3, H3, corpus.A4):
        order = enumerate_group(M).order
        assert enumerate_group(M, cap=order).order == order
        with pytest.raises(BudgetExceeded, match=f"^group enumeration exceeded cap {order - 1}$"):
            enumerate_group(M, cap=order - 1)
    # the cap bounds the closures run, not only the elements kept
    for cap in (1, 50, 119):
        calls.clear()
        with pytest.raises(BudgetExceeded, match=f"^group enumeration exceeded cap {cap}$"):
            enumerate_group(H3, cap=cap)
        assert len(calls) <= cap


def test_cap_refuses_a_large_entry_before_any_closure(monkeypatch):
    # W(M) holds the dihedral group of order 2 m_ij, so an entry past cap/2
    # is refused before a closure builds an m-letter word; an entry of
    # exactly cap/2 is still enumerated
    calls = []
    closure = coxeter._braid_class
    monkeypatch.setattr(coxeter, "_braid_class", lambda M, word: calls.append(word) or closure(M, word))
    assert enumerate_group(CoxeterMatrix([[1, 6], [6, 1]]), cap=12).order == 12
    for m, cap in ((6, 11), (10 ** 12, 10 ** 6)):
        calls.clear()
        with pytest.raises(BudgetExceeded, match=f"^group enumeration exceeded cap {cap}$"):
            enumerate_group(CoxeterMatrix([[1, m, 2], [m, 1, 2], [2, 2, 1]]), cap=cap)
        assert calls == []


def test_braid_budget_stops_both_engines(monkeypatch):
    monkeypatch.setattr(coxeter, "DEFAULT_BUDGET", 20)
    for engine in (enumerate_group, _reference_enumerate_group):
        with pytest.raises(BudgetExceeded, match="^braid closure exceeded 20 words$"):
            engine(H3)


def _relabelling_families():
    """(M, relabellings of M other than M): every distinct one for the small
    diagrams, the two of `_cross_check_matrices` for A4 and D4."""
    fams = []
    for M in (A3, C3, H3, corpus.A1xA3, corpus.A2xA2, dihedral(5)):
        others = {corpus.relabelled(M, p) for p in permutations(M.types)} - {M}
        fams.append((M, sorted(others, key=lambda N: N.rows)))
    for M in (corpus.A4, corpus.D4):
        fams.append((M, [corpus.relabelled(M, p) for p in ((2, 1, 3, 4), (3, 1, 4, 2))]))
    return fams


def test_group_table_reads_relabellings_off_one_enumeration(monkeypatch):
    calls = []
    for M, others in _relabelling_families():
        refs = {N: enumerate_group(N) for N in (M, *others)}
        monkeypatch.setattr(coxeter, "enumerate_group", lambda N, *a, **kw: calls.append(N) or refs[N])
        # the named matrix first, then a relabelling first
        for first in (M, *others[-1:]):
            monkeypatch.setattr(coxeter, "_TABLE_CACHE", {})
            calls.clear()
            for N in (first, *refs):
                table, ref = coxeter.group_table(N), refs[N]
                assert table.matrix == N, N
                assert table.elements == ref.elements, N
                assert table.right == ref.right, N
                assert table.descents == ref.descents, N
            assert calls == [first], M


def test_group_table_refuses_infinite_types_with_tables_cached():
    affine_a2 = CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    coxeter.group_table(A3)
    coxeter.group_table(A2)
    for M in (affine_a2, dihedral(0)):
        with pytest.raises(InfiniteGroup):
            coxeter.group_table(M)
        assert M not in coxeter._TABLE_CACHE


def test_reduced_word_sets_match_braid_closures():
    checked = 0
    for M in _cross_check_matrices():
        table = coxeter.group_table(M)
        memo = {}
        for e, word in enumerate(table.elements):
            assert (table.reduced_words(e, memo), None) == _oracle_class(M, word), (M, e)
        checked += table.order
    assert checked > 2000


def _assert_words_match_oracle(M, f, g):
    """The five word functions on words f and g against the oracle."""
    u, v = canonical(M, f), canonical(M, g)
    assert u.word == oracle_word(M, f), (M, f)
    assert multiply(M, u, v).word == oracle_word(M, f + g), (M, f, g)
    assert inverse(M, u).word == oracle_word(M, f[::-1]), (M, f)
    assert coxeter.is_reduced(M, f) == (len(u.word) == len(f)), (M, f)
    assert reduced_words(M, u) == reduced_words(M, f) == oracle_reduced_words(M, f), (M, f)


def test_word_api_matches_oracle():
    rng = random.Random(6)
    for M in _cross_check_matrices():
        for _ in range(8):
            f, g = (tuple(rng.randint(1, M.rank) for _ in range(rng.randint(0, 12)))
                    for _ in range(2))
            _assert_words_match_oracle(M, f, g)


def test_word_api_matches_oracle_on_hypothesis_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    matrices = _cross_check_matrices()

    @hypothesis.seed(2012)
    @hypothesis.settings(database=None, deadline=None, max_examples=200)
    @hypothesis.given(st.data())
    def check(data):
        M = data.draw(st.sampled_from(matrices))
        f, g = (tuple(data.draw(st.lists(st.integers(1, M.rank), max_size=12)))
                for _ in range(2))
        _assert_words_match_oracle(M, f, g)

    check()


def test_word_api_on_a_warm_table_runs_no_braid_closure(monkeypatch):
    def refuse(*args):
        raise AssertionError("braid closure outside enumerate_group")

    table = coxeter.group_table(H3)
    monkeypatch.setattr(coxeter, "_braid_class", refuse)
    u = canonical(H3, (1, 2, 3, 2, 1, 2))
    assert u == table.element(table.canonical_id(u.word))
    assert multiply(H3, u, inverse(H3, u)).word == ()
    assert coxeter.is_reduced(H3, (1, 2, 1, 2, 1)) and not coxeter.is_reduced(H3, (1, 3, 1, 3))
    assert len(reduced_words(H3, table.element(corpus.longest_id(table)))) > 1


def test_coxeter_complex():
    c1 = coxeter.coxeter_complex(coxeter.A1)
    assert c1.n == 2 and len(c1.panels[1]) == 1
    c3 = coxeter.coxeter_complex(A3)
    assert c3.n == 24
    assert all(len(p) == 2 for i in c3.types for p in c3.panels[i])
    cc3 = coxeter.coxeter_complex(C3)
    assert cc3.n == 48
    assert all(len(p) == 2 for i in cc3.types for p in cc3.panels[i])
    with pytest.raises(InfiniteGroup):
        coxeter.coxeter_complex(dihedral(0))
