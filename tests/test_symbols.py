"""Symbols, blow-up relations, relation matrices, signed quotient."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm
from random import Random
import tracemalloc

import hypothesis
import hypothesis.strategies as strat
import pytest

import birmod.symbols
from birmod import (TWO_TORSION, FormalSum, QZ, SparseMat, blowup_relation,
                    canonicalize, e_op, enumerate_symbols, in_span,
                    minus_canonicalize, minus_reduce, rank_q, relation_matrix,
                    relation_rows, RelationMatrix, rho_op, sigma_op,
                    snf, split_by_modulus, sum_from_json, symbol_from_json,
                    symbol_from_lattice)


def S(*entries):
    return canonicalize(Fraction(e) for e in entries)


def qz_entries(max_den=12):
    return strat.integers(min_value=1, max_value=max_den).flatmap(
        lambda q: strat.integers(min_value=0, max_value=q - 1).map(
            lambda p: QZ(p, q)))


def symbols(max_arity=3):
    return strat.lists(qz_entries(), min_size=1, max_size=max_arity).map(
        canonicalize)


def acceptable_symbols(max_arity=3):
    return symbols(max_arity).filter(lambda s: s.is_acceptable)


def euler_phi(N):
    return sum(1 for j in range(1, N + 1) if Fraction(j, N).denominator == N)


def test_canonical_form_examples():
    assert S("1/2", "1/3") == S("1/3", "1/2")
    assert tuple(S("2/3", "0", "7/6")) == (QZ(0), QZ(1, 6), QZ(2, 3))
    assert S("1/2").arity == 1
    assert S("1/6", "1/4").modulus == 12
    assert S("0", "0").modulus == 1 and not S("0", "0").is_acceptable
    with pytest.raises(ValueError):
        canonicalize([])


def test_in_module_checks_exact_modulus():
    assert S("1/2", "1/3").in_module(6)
    assert not S("1/2", "1/3").in_module(12)
    assert not S("1/2").in_module(6)


def test_json_round_trip():
    s = S("1/2", "2/3")
    assert symbol_from_json(s.to_json()) == s
    fs = FormalSum({S("1/3"): 2, S("1/2"): -1})
    assert sum_from_json(fs.to_json()) == fs
    rq = fs.to_rational().scale(Fraction(1, 2))
    assert sum_from_json(rq.to_json()) == rq and rq.rational


def test_lattice_constructor_rejects_trivial():
    assert symbol_from_lattice([Fraction(1, 2), Fraction(3, 2)]) == S("1/2", "1/2")
    with pytest.raises(ValueError):
        symbol_from_lattice([0, 1, 2])


def test_enumeration_examples():
    assert enumerate_symbols(1, 4) == [S("1/4"), S("3/4")]
    assert enumerate_symbols(2, 2) == [S("0", "1/2"), S("1/2", "1/2")]
    assert len(enumerate_symbols(2, 4)) == 7
    with pytest.raises(ValueError):
        enumerate_symbols(1, 1)
    with pytest.raises(ValueError):
        enumerate_symbols(0, 3)


@hypothesis.given(strat.integers(min_value=2, max_value=24))
def test_enumeration_arity_one_counts_units(N):
    assert len(enumerate_symbols(1, N)) == euler_phi(N)


@hypothesis.given(strat.integers(min_value=1, max_value=3),
                  strat.integers(min_value=2, max_value=8))
def test_enumeration_sorted_and_exact(n, N):
    syms = enumerate_symbols(n, N)
    assert syms == sorted(syms)
    assert len(set(syms)) == len(syms)
    for s in syms:
        assert s.arity == n and s.modulus == N


def test_formal_sum_modes():
    with pytest.raises(ValueError):
        FormalSum({S("1/2"): Fraction(1, 2)})
    ok = FormalSum({S("1/2"): Fraction(1, 2)}, rational=True)
    assert dict(ok.items())[S("1/2")] == Fraction(1, 2)
    with pytest.raises(ValueError):
        FormalSum({S("1/2"): 1, S("1/2", "1/3"): 1})
    assert (ok - ok).is_zero()


def test_formal_sum_refuses_float_and_bool_coefficients():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    for c in (0.1, 2.0, True):
        with pytest.raises(TypeError):
            FormalSum({S("1/2"): c}, rational=True)
        with pytest.raises(TypeError):
            FormalSum.of(S("1/2")).scale(c)
    assert FormalSum.of(S("1/2")).scale(Fraction(1, 10)).rational


def test_scale_is_rational_exactly_when_a_coefficient_leaves_z():
    x = FormalSum.of(S("1/3", "1/2"))
    half = x.scale(Fraction(1, 2))
    assert half.rational and dict(half.items()) == {S("1/3", "1/2"):
                                                    Fraction(1, 2)}
    for c in (2, Fraction(2), Fraction(4, 2), -1):
        assert not x.scale(c).rational, c
    assert x.to_rational().scale(2).rational


def test_sums_whose_codes_agree_at_different_moduli_differ():
    # each pair codes to the same sorted entries, (1,) or (1, 1), at
    # moduli 2 and 3
    for a, b in ((["1/2"], ["1/3"]), (["1/2", "1/2"], ["1/3", "1/3"])):
        x, y = FormalSum.of(a), FormalSum.of(b)
        assert x != y and not (x - y).is_zero()


def test_formal_sum_adds_keys_naming_one_symbol():
    # both keys canonicalize to <1/3, 1/2>; they add instead of overwriting
    assert FormalSum({("1/2", "1/3"): 1, ("1/3", "1/2"): 1}) == \
        2 * FormalSum.of(["1/2", "1/3"])
    # 3/2 is 1/2 in Q/Z
    assert FormalSum({(QZ(1, 2),): 1, (Fraction(3, 2),): -1}).is_zero()
    pairs = [(S("1/2", "1/3"), 1), (("1/3", "1/2"), 2), (S("1/5"), 0)]
    assert FormalSum(pairs) == FormalSum({S("1/2", "1/3"): 3})
    assert FormalSum([(S("1/2"), 1), (("3/2",), -1)]).is_zero()
    with pytest.raises(ValueError):
        FormalSum([(S("1/2"), 1), (S("1/2", "1/3"), 1)])
    # an arity is mixed in even when its terms cancel
    with pytest.raises(ValueError):
        FormalSum([(S("1/2"), 1), (S("1/2"), -1), (S("1/2", "1/3"), 1)])


@hypothesis.given(strat.integers(min_value=1, max_value=4).flatmap(
    lambda n: strat.dictionaries(
        strat.lists(qz_entries(), min_size=n, max_size=n).map(canonicalize),
        strat.integers(min_value=-3, max_value=3).filter(bool),
        min_size=1, max_size=10)))
def test_items_sorted_by_code_is_the_symbol_order(terms):
    fs = FormalSum(terms)
    assert [s for s, _ in fs.items()] == sorted(terms)
    assert dict(fs.items()) == terms


def test_blowup_examples():
    assert blowup_relation((Fraction(1, 2), Fraction(1, 2)), 2) == \
        FormalSum({S("1/2", "1/2"): 1, S("0", "1/2"): -2})
    assert blowup_relation((Fraction(0), Fraction(1, 2)), 2) == \
        FormalSum({S("1/2", "1/2"): -1})
    assert blowup_relation((Fraction(1, 3), Fraction(1, 3)), 2) == \
        FormalSum({S("1/3", "1/3"): 1, S("0", "1/3"): -2})
    assert blowup_relation(
        (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), 2, (0, 2)) == \
        FormalSum({S("1/6", "1/3", "1/2"): 1,
                   S("1/6", "1/3", "1/3"): -1,
                   S("1/3", "1/2", "2/3"): -1})

    # positions index the tuple as given, before it is sorted
    assert blowup_relation(
        (Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)), 2, (0, 2)) == \
        FormalSum({S("1/6", "1/3", "1/2"): 1,
                   S("1/6", "1/2", "5/6"): -1,
                   S("1/6", "1/6", "1/3"): -1})


def test_blowup_guards():
    with pytest.raises(ValueError):
        blowup_relation((Fraction(1, 2),), 2)
    with pytest.raises(ValueError):
        blowup_relation((Fraction(0), Fraction(0)), 2)
    with pytest.raises(ValueError):
        blowup_relation((Fraction(1, 2), Fraction(1, 3)), 2, modulus=12)
    with pytest.raises(ValueError):
        blowup_relation((Fraction(1, 2), Fraction(1, 2)), 2, (0, 0))


@hypothesis.given(acceptable_symbols(), strat.data())
def test_blowup_terms_share_the_modulus(s, data):
    hypothesis.assume(s.arity >= 2)
    k = data.draw(strat.integers(min_value=2, max_value=s.arity))
    rel = blowup_relation(s, k)
    for t, _ in rel.items():
        assert t.modulus == s.modulus


def test_relation_rows_deduplicated():
    rows = relation_rows(2, 3)
    keys = [tuple(r.items()) for r in rows]
    assert len(keys) == len(set(keys))
    assert all(not r.is_zero() for r in rows)


def reference_relations(n, N, minus):
    """Basis and relation rows from QZ arithmetic, in the package's order.

    Blow-up rows of every symbol and part, then the negation rows, each
    row kept at its first occurrence; shares no code with the level codec.
    """
    basis = [tuple(t) for t in combinations_with_replacement(
        [QZ(j, N) for j in range(N)], n)
        if lcm(*[a.order for a in t]) == N]

    def row(terms):
        out = {}
        for entries, c in terms:
            key = tuple(sorted(entries))
            out[key] = out.get(key, 0) + c
        return {key: c for key, c in out.items() if c}

    rows = []
    for t in basis:
        for k in range(2, n + 1):
            for pos in combinations(range(n), k):
                spreads = [[t[j] - t[i] if j in pos and j != i else t[j]
                            for j in range(n)] for i in pos]
                rows.append(row([(t, 1)] + [(u, -1) for u in spreads]))
    if minus:
        for t in basis:
            for p in range(n):
                flipped = [-a if j == p else a for j, a in enumerate(t)]
                rows.append(row([(flipped, 1), (t, 1)]))
    seen = {}
    for r in rows:
        if r:
            seen.setdefault(tuple(sorted(r.items())), r)
    return basis, list(seen.values())


@pytest.mark.parametrize("minus", [False, True])
def test_relation_rows_match_qz_reference(minus):
    # the reference deduplicates on a key per row; the package by the
    # shape of a row, which arity 4 (11 parts per code) exercises most
    cases = [(n, N) for n in range(1, 4) for N in range(2, 9)]
    for n, N in cases + [(4, N) for N in range(2, 7)]:
        basis, rows = reference_relations(n, N, minus)
        assert [dict(r.items()) for r in relation_rows(n, N, minus)] == rows
        m = RelationMatrix(n, N, minus)
        assert m.basis == basis
        col = {s: i for i, s in enumerate(basis)}
        coded = [{col[s]: c for s, c in r.items()} for r in rows]
        assert list(birmod.symbols._relations(n, N, m.codes, m.index,
                                              minus)) == coded
        # the matrix holds the k = 2 rows (coefficient sum -1) and the
        # negation rows (sum 2), negation rows first
        presenting = [r for r in coded if sum(r.values()) in (-1, 2)]
        assert sorted(sorted(r.items()) for r in m.mat.rows) == \
            sorted(sorted(r.items()) for r in presenting)
        assert [sum(r.values()) for r in m.mat.rows] == \
            sorted((sum(r.values()) for r in presenting), reverse=True)


@pytest.mark.parametrize("minus", [False, True])
def test_relation_rows_are_the_matrix_rows(minus):
    for n in range(1, 4):
        for N in range(2, 10):
            rows = relation_rows(n, N, minus)
            mat_rows = RelationMatrix(n, N, minus).rows
            assert rows == mat_rows
            assert [list(r.terms.items()) for r in rows] == \
                [list(r.terms.items()) for r in mat_rows]


def test_relation_rows_decode_each_basis_code_once(monkeypatch):
    decoded = []
    dec = birmod.symbols._dec

    def counting(t, L):
        decoded.append((t, L))
        return dec(t, L)

    monkeypatch.setattr(birmod.symbols, "_dec", counting)
    rows = relation_rows(3, 7, True)
    assert rows and len(decoded) == len(set(decoded))


def test_relation_matrix_keeps_the_rows_it_built(monkeypatch):
    built = []

    def recording(rows, ncols):
        built.extend(rows)
        return SparseMat(built, ncols)

    monkeypatch.setattr(birmod.symbols, "SparseMat", recording)
    m = RelationMatrix(3, 7, True)
    # the rows are built on the first read of mat, not before, and kept
    assert built == []
    rows = m.mat.rows
    assert built and len(rows) == len(built) and m.mat.rows is rows
    assert all(a is b for a, b in zip(rows, built))


def test_rank_examples():
    m = relation_matrix(1, 12)
    assert (len(m.basis), m.quotient_rank()) == (4, 4)
    assert relation_matrix(2, 2).quotient_rank() == 0
    assert relation_matrix(2, 5).quotient_rank() == 2
    m2 = relation_matrix(1, 2, minus=True)
    assert m2.quotient_rank() == 0
    assert m2.invariant_factors() == (2,)


def test_span_membership():
    m = relation_matrix(2, 3)
    for r in m.rows:
        assert m.contains(r)
    foreign = FormalSum.of(S("1/2", "1/2"))
    assert m.vectorize(foreign) is None and not m.contains(foreign)


def _negation_orbit(t, N):
    """(sorted tuple, flip parity) for every entrywise negation of t."""
    return {(tuple(sorted(-i % N if f else i for i, f in zip(t, flips))),
             sum(flips) % 2)
            for flips in product((0, 1), repeat=len(t))}


@pytest.mark.parametrize("minus", [False, True])
def test_relation_span_matches_the_relation_matrix(minus):
    # the span-only target, fed the k = 2 rows alone, against a matrix of
    # every relation row: the column map is checked on negation orbits
    # and the projection written here; at arity 4 the k = 3 and k = 4
    # rows it never sees are queried
    rng = Random(20261020)
    for n, top in ((1, 12), (2, 12), (3, 12), (4, 6)):
        for M in range(2, top + 1):
            m = RelationMatrix(n, M, minus)
            rows = list(birmod.symbols._relations(n, M, m.codes, m.index,
                                                  minus))
            full = SparseMat(rows, len(m.codes)).echelon()
            cols, ech = m._span
            assert set(cols) == set(m.codes)
            for t in m.codes:
                j, sign = cols[t]
                if not minus:
                    assert (j, sign) == (m.index[t], 1)
                    continue
                # two-torsion: t is its own negation at odd parity
                orbit = _negation_orbit(t, M)
                assert (sign == 0) == ((t, 1) in orbit)
                for u, parity in orbit:
                    assert cols[u] == (j, sign * (-1) ** parity)
            live = {j for j, sign in cols.values() if sign}
            assert live == set(range(ech.ncols))
            assert ech.ncols - ech.rank == m.quotient_rank()

            def project(vec):
                out = {}
                for i, c in vec.items():
                    j, sign = cols[m.codes[i]]
                    if sign:
                        out[j] = out.get(j, 0) + sign * c
                return {j: c for j, c in out.items() if c}

            units = [{i: 1} for i in range(len(m.codes))]
            mixes = []
            for _ in range(50):
                vec = {}
                for r in rng.sample(rows, min(3, len(rows))):
                    f = rng.randint(-3, 3)
                    for i, c in r.items():
                        vec[i] = vec.get(i, 0) + f * c
                if rng.random() < 0.5:
                    i = rng.randrange(len(m.codes))
                    vec[i] = vec.get(i, 0) + rng.choice((-2, -1, 1, 2))
                mixes.append({i: c for i, c in vec.items() if c})
            for vec in units + rows + mixes:
                assert ech.contains(project(vec)) == full.contains(vec), \
                    (n, M, vec)


def test_span_build_streams_its_rows():
    # the span-only echelon pulls the blow-up rows one at a time, so the
    # heap peak of its build stays near what it keeps: 1.08x at (3, 18),
    # where generating and sorting every row first peaked at 2.8x
    m = RelationMatrix(3, 18)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m._span
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 1.5 * (kept - base)


def test_short_pairs_are_the_short_k2_rows():
    # the Q rank's echelon takes the k = 2 rows of at most two entries
    # first, found from the part's entries with no row made
    for n in range(2, 5):
        for N in range(2, 14 - 2 * n):
            codes = birmod.symbols._coded_symbols(n, N)
            for t in codes:
                for pos in combinations(range(n), 2):
                    row = birmod.symbols._blowup_row(t, N, pos, tuple, t)
                    assert (len(row) <= 2) == \
                        birmod.symbols._short_pair(t, pos), (t, pos)


# The two-part presentation rests on this identity (proof at
# symbols._sparse_rows): with p the largest position of a part P of
# k >= 3 positions and P' = P - {p},
#   r(t, P) = r(t, P') + sum over i in P' of r(s(t, P', i), {i, p})
#             - r(s(t, P, p), P').
# The rows are built here from the definition, on tuples mod N in any
# entry order, sharing no code with _blowup_row.

def _spread(t, part, i, N):
    """t with entry i kept and each other entry j of part made t_j - t_i."""
    return tuple((t[j] - t[i]) % N if j in part and j != i else t[j]
                 for j in range(len(t)))


def _definition_row(t, part, N):
    """The blow-up row of t and part: <t> minus its spreads over part."""
    row = {}
    for u, c in [(t, 1)] + [(_spread(t, part, i, N), -1) for i in part]:
        key = tuple(sorted(u))
        row[key] = row.get(key, 0) + c
    return row


def _identity_defect(t, part, N):
    """Both sides of the identity subtracted, with zeros dropped; and
    whether every tuple in it generates the group t generates."""
    p, rest = max(part), tuple(sorted(part))[:-1]
    terms = [(t, part, -1), (t, rest, 1),
             (_spread(t, part, p, N), rest, -1)]
    terms += [(_spread(t, rest, i, N), (i, p), 1) for i in rest]
    total = {}
    for u, q, c in terms:
        for key, x in _definition_row(u, q, N).items():
            total[key] = total.get(key, 0) + c * x
    same_group = all(gcd(N, *u) == gcd(N, *t) for u, _, _ in terms)
    return {key: x for key, x in total.items() if x}, same_group


def test_every_blowup_row_is_a_sum_of_k2_rows():
    cases = 0
    for n, top in ((3, 12), (4, 8), (5, 6)):
        for N in range(2, top + 1):
            for t in combinations_with_replacement(range(N), n):
                if gcd(N, *t) != 1:
                    continue
                for k in range(3, n + 1):
                    for part in combinations(range(n), k):
                        assert _identity_defect(t, part, N) == ({}, True), \
                            (t, part, N)
                        cases += 1
    assert cases > 5000


@hypothesis.given(strat.integers(min_value=3, max_value=6).flatmap(
    lambda n: strat.tuples(
        strat.integers(min_value=2, max_value=40).flatmap(
            lambda N: strat.tuples(strat.just(N), strat.lists(
                strat.integers(min_value=0, max_value=N - 1),
                min_size=n, max_size=n))),
        strat.sets(strat.integers(min_value=0, max_value=n - 1),
                   min_size=3))))
def test_blowup_identity_on_unsorted_tuples(case):
    (N, t), part = case
    assert _identity_defect(tuple(t), tuple(sorted(part)), N) == ({}, True)


def test_rank_over_q_streams_its_rows(monkeypatch):
    # the Q rank eliminates the k = 2 and negation rows as they are made,
    # with no SparseMat; it, the relation count and the Smith form agree
    # with a matrix of every row of _relations.  Arity 1 has no blow-up
    # rows, and some cells reach full column rank with rows left to count
    def refuse(self, rows, ncols):
        raise AssertionError("the Q rank built a SparseMat")

    drained = 0
    for n, top in ((1, 12), (2, 16), (3, 10), (4, 7)):
        for N in range(2, top + 1):
            for minus in (False, True):
                m = RelationMatrix(n, N, minus)
                with monkeypatch.context() as patch:
                    patch.setattr(SparseMat, "__init__", refuse)
                    rank, relations = m.quotient_rank(), m.relations
                rows = list(birmod.symbols._relations(n, N, m.codes, m.index,
                                                      minus))
                mat = SparseMat(rows, len(m.codes))
                assert rank == len(m.codes) - rank_q(mat), (n, N, minus)
                assert relations == mat.nrows, (n, N, minus)
                streamed = list(birmod.symbols._sparse_rows(n, N, m.codes,
                                                            m.index))
                blowups = [r for r in rows if sum(r.values()) == -1]
                assert sorted(sorted(r.items()) for r in streamed) == \
                    sorted(sorted(r.items()) for r in blowups), (n, N, minus)
                drained += rank == 0 and relations > len(m.codes)
                if n < 4:
                    # the Smith form of the k = 2 and negation rows reads
                    # the streamed echelon
                    assert m.invariant_factors() == snf(mat), (n, N, minus)
    assert drained


def test_rank_over_q_keeps_only_its_echelon(monkeypatch):
    # the Q rank pulls its rows one at a time into one echelon, so the
    # heap peak stays near what that echelon keeps: 1.01x at (2, 97,
    # minus), where a row matrix and its sorted copy peaked at 2.4x
    made = []
    init = birmod.symbols.Echelon.__init__

    def recording(self, rows, ncols):
        init(self, rows, ncols)
        made.append(self)

    monkeypatch.setattr(birmod.symbols.Echelon, "__init__", recording)
    m = RelationMatrix(2, 97, True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m.quotient_rank()
        peak = tracemalloc.get_traced_memory()[1]
        del m  # only the echelon, held in made, is left
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(made) == 1
    assert peak - base < 1.5 * (kept - base)


def test_spanning_rows_span_the_relation_rows():
    # descent decides on these rows, so they must have the row space of
    # the relation rows over Q: under minus the pivots of the span-only
    # echelon are written on least codes, and the negation rows are added
    # whatever the blow-up rows do to them (at arity 1 there are no
    # blow-up rows; at even M some classes are two-torsion)
    two_torsion = 0
    for n in range(1, 4):
        for M in range(2, 13):
            for minus in (False, True):
                m = RelationMatrix(n, M, minus)
                full = SparseMat(list(birmod.symbols._relations(
                    n, M, m.codes, m.index, minus)), len(m.codes))
                spanning = SparseMat(list(m._spanning_rows()), full.ncols)
                assert rank_q(spanning) == rank_q(full), (n, M, minus)
                assert all(in_span(r, full) for r in spanning.rows)
                assert all(in_span(r, spanning) for r in full.rows)
                if minus and n == 1:
                    assert spanning.rows == full.rows != []
                two_torsion += minus and any(
                    sign == TWO_TORSION for _, sign in m._span[0].values())
    assert two_torsion > 0


def test_operators_send_negation_rows_to_negation_rows():
    # the negation lemma: scaling, the lift and the torsion shift send a
    # negation row <t> + <t with one entry negated> to components in the
    # span of the target's negation rows, that is, on every negation
    # orbit that is not two-torsion the signed coefficients cancel
    signed = {}  # canonical code -> (least code of its orbit, parity)

    def sign_of(key):
        if key not in signed:
            orbit = _negation_orbit(key[1], key[0])
            rep = min(u for u, _ in orbit)
            parities = [q for u, q in orbit if u == rep]
            # two-torsion: the least code is reached at both parities
            signed[key] = (rep, parities[0] if len(parities) == 1 else None)
        return signed[key]

    checked = 0
    for n in range(1, 4):
        for N in range(2, 9):
            for s in enumerate_symbols(n, N):
                for p in range(n):
                    flipped = [-a if j == p else a for j, a in enumerate(s)]
                    row = FormalSum.of(s) + FormalSum.of(flipped)
                    for k, op in product((2, 3), (sigma_op, rho_op, e_op)):
                        for M, comp in split_by_modulus(op(k, row)).items():
                            sums = {}
                            for key, c in comp.terms.items():
                                rep, parity = sign_of(key)
                                if parity is not None:
                                    sums[rep] = (sums.get(rep, 0)
                                                 + c * (-1) ** parity)
                            checked += len(sums)
                            assert not any(sums.values()), \
                                (s, p, k, op.__name__, M, sums)
    assert checked > 10000


@lru_cache(maxsize=None)
def _cached_relmat(n, N):
    m = relation_matrix(n, N)
    return m, rank_q(m.mat)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(strat.integers(min_value=1, max_value=3),
                  strat.integers(min_value=2, max_value=6),
                  strat.integers(min_value=0, max_value=10**6))
def test_rank_independent_of_row_order(n, N, seed):
    m, base = _cached_relmat(n, N)
    rows = [dict(r) for r in m.mat.rows]
    Random(seed).shuffle(rows)
    assert rank_q(SparseMat(rows, m.mat.ncols)) == base


def test_minus_canonicalize_examples():
    assert minus_canonicalize(S("1/3")) == (S("1/3"), 1)
    assert minus_canonicalize(S("2/3")) == (S("1/3"), -1)
    assert minus_canonicalize(S("1/2")) == (S("1/2"), TWO_TORSION)
    assert minus_canonicalize(S("3/5", "4/5")) == (S("1/5", "2/5"), 1)
    assert minus_canonicalize(S("0", "1/2")) == (S("0", "1/2"), TWO_TORSION)


@hypothesis.given(symbols())
def test_minus_canonicalize_is_idempotent_and_negation_flips(s):
    rep, sign = minus_canonicalize(s)
    again, sign2 = minus_canonicalize(rep)
    assert again == rep and sign2 in (1, TWO_TORSION)
    # negating every entry multiplies the class by (-1)^arity
    neg, nsign = minus_canonicalize(canonicalize(-a for a in s))
    assert neg == rep
    if sign == TWO_TORSION:
        assert nsign == TWO_TORSION
    else:
        assert nsign == (sign if s.arity % 2 == 0 else -sign)


@hypothesis.given(symbols())
def test_minus_reduce_kills_negation_differences(s):
    neg = canonicalize(-a for a in s)
    fs = FormalSum.of(s).to_rational() - \
        FormalSum.of(neg).to_rational().scale((-1) ** s.arity)
    assert minus_reduce(fs).is_zero()


def test_minus_reduce_writes_each_class_at_its_least_representative():
    # <2/3> is -<1/3>; <1/2> is two-torsion and collapses
    ones = FormalSum({S("2/3"): 3, S("1/2"): 7, S("1/3"): 2}, rational=True)
    assert minus_reduce(ones) == FormalSum({S("1/3"): -1}, rational=True)
    # <1/5, 3/5> is -<1/5, 2/5> (one entry flipped), <3/5, 4/5> is
    # +<1/5, 2/5> (two flipped), each at its own modulus; <0, 1/2> and
    # <1/4, 1/2> hold an entry that is its own negative and collapse
    twos = FormalSum({S("1/5", "3/5"): 1, S("3/5", "4/5"): 5,
                      S("0", "1/2"): 1, S("1/4", "1/2"): -2,
                      S("3/4", "1/3"): 1}, rational=True)
    assert minus_reduce(twos) == FormalSum(
        {S("1/5", "2/5"): 4, S("1/4", "1/3"): -1}, rational=True)
    assert minus_reduce(FormalSum({S("1/3"): 1, S("2/3"): 1},
                                  rational=True)).is_zero()


# Oracles that share no code with linalg: classical closed forms for the
# arity-2 ranks at prime N, and a machine-int rank over F_p for the Smith
# form.

@pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
def test_minus_rank_is_the_genus_of_x1(p):
    # genus of the modular curve X_1(p) for a prime p >= 5
    assert relation_matrix(2, p, minus=True).quotient_rank() \
        == (p - 5) * (p - 7) // 24


def test_minus_torsion_is_two_to_the_p_minus_2():
    # observed, not proved: at every prime 5 <= p <= 61 the arity-2
    # --minus module has torsion (Z/2)^(p-2); every core is 2 times a
    # 0/+-1 matrix, so this loads the Euclid step of the Smith form
    for p in [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]:
        factors = relation_matrix(2, p, minus=True).invariant_factors()
        assert sorted(set(factors)) == [1, 2]
        assert factors.count(2) == p - 2


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_plain_rank_closed_form(p):
    assert relation_matrix(2, p).quotient_rank() == (p * p + 23) // 24


def rank_mod(rows, p):
    """Rank over F_p of sparse integer rows, by Gaussian elimination."""
    pivots = {}
    for row in rows:
        r = {c: int(v) % p for c, v in row.items() if int(v) % p}
        while r:
            c = min(r)
            if c not in pivots:
                inv = pow(r[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in r.items()}
                break
            f = r[c]
            for k, v in pivots[c].items():
                x = (r.get(k, 0) - f * v) % p
                if x:
                    r[k] = x
                else:
                    del r[k]
    return len(pivots)


@pytest.mark.parametrize("n, N, minus", [(2, 36, True), (3, 12, False),
                                         (3, 16, True), (3, 17, False),
                                         (3, 19, False), (3, 29, False),
                                         (4, 16, False)])
def test_smith_form_against_rank_mod_p(n, N, minus):
    m = relation_matrix(n, N, minus)
    factors = m.invariant_factors()
    rank = len(m.basis) - m.quotient_rank()
    assert len(factors) == rank
    # every relation row, where the Smith form reads the k = 2 rows alone
    rows = list(birmod.symbols._relations(n, N, m.codes, m.index, minus))
    for p in (2, 3):
        assert sum(1 for d in factors if d % p == 0) \
            == rank - rank_mod(rows, p)
