"""The multiplicative operator family on modular symbols.

Four basic operators act on formal sums of symbols: entrywise scaling by k
(which annihilates a symbol exactly when every scaled entry vanishes), the
k-fold lift summing over all entrywise preimages, its averaged version with
rational coefficients, and the torsion-shift average summing over shifts by
k-torsion tuples.  A level-l product (lift one factor, concatenate) and a
torsion coproduct (split positions, scale one side, sign-canonicalize the
other) complete the family.

Composition identities are verified at the tuple level: composites are
expanded in the free module on all entry tuples, including the all-zero
tuple, and the acceptability projection (drop all-zero tuples) is applied
once at the end.  At that level the identities hold exactly.  Composing
the projected operators instead breaks the commutation and torsion-shift
identities precisely on symbols annihilated by scaling; those instances
are genuine, reported as information and never asserted away.

Operators act on the level codec of ``symbols``: scaling by k is k*i
mod L, the lift by k spreads i over i/k + j*L/k, the torsion shift adds
multiples of L/k, and the coproduct scales its legs and takes the signed
form of the right one on codes.  Each public operator codes its input
at the least level its output needs, and ``symbols._wrap`` takes the
result back to canonical codes; no symbol is decoded.  Each law cell
walks the symbol codes of its cell at one level that holds both sides of
every law it checks, compares plain dicts and writes entries from codes
(``symbols._entry``) only for the rows it reports.

Scaling, the lift and the torsion shift act entry by entry, so both
sides of each lemma48 law, and of ``lift_product_hom`` at the x
positions, are products over positions of per-entry sums, with the same
positive mass at each position.  Such sides are equal exactly when their
factors are equal at every position (a side's marginal at one position
is its factor there times the other factors' masses), so these laws are
decided from per-entry sides, memoised by entry code for the cell.  Only
where some position differs are both sides expanded in full and compared
sorted by ``_same``: every verdict, count and sample is the one the full
expansion gives.

A descent check relies on the operators being linear.  It decides on
rows spanning the source relation rows over Q: the presenting rows (the
negation rows if minus, and the k = 2 rows) that made the pivots of the
one echelon of the source ``symbols.RelationMatrix``.  It expands
the image of each basis symbol once per (k, operator) into ordered
tuples.  Each operator is first checked to commute, on sorted tuples,
with the spread or negation that makes each of those rows (each map's
target code and sorting permutation worked out once per call); if every
check holds, the image of each row is a sum of target relation rows and
no target is built.  Only where a check fails are the images split by
modulus into canonical codes and summed into the image of each row.  A
component that cancels is dropped; every other one is asked of the
target ``RelationMatrix`` at its modulus through ``holds``, which reads
that target's one echelon (the source is the target at modulus N); a
full-rank one answers without elimination.  No row matrix is built: the
relation rows are streamed only to report an escape.

One helper, ``_count``, sums every expansion by one rule.  Several runs
of entry combinations are each counted in a ``Counter`` (so the work per
combination runs in C), added in times the run's coefficient, and zeros
are dropped.  A lone run, such as the lift or torsion shift of one code,
needs no ``Counter``: its tuples are distinct, since the lift and the
torsion shift run a product of ranges each of distinct values, and a
product concatenates distinct pairs of tuples of fixed arities.  So
``dict.fromkeys`` writes the run at its coefficient, and only if that
holds fewer keys than the run has tuples (a caller's run that repeats
one) is it counted instead.  Multiplicities are integers; the averaged
lift's 1/k^n divides a counted result.  Combinations keep each entry at
its position: the operators act entry by entry, so they commute with
permuting positions, and ``symbols._wrap`` sorts a result once.  Law
cells compare ordered sides with ``_same``; the coproduct keys its output
canonically.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain, combinations, product, starmap
from math import comb, gcd, lcm
from operator import add, itemgetter

from .qz import _check_k
from .symbols import (RelationMatrix, TWO_TORSION, _by_modulus, _coded,
                      _coded_symbols, _dec, _entry, _level, _minus_rep,
                      _raw_of, _relations, _sym, _wrap)

MAX_STORED_FAILURES = 50
# the lift, the torsion shift and the product (through the lift of its
# first factor) expand k^arity tuples per term; above this many they are
# refused before they start (rho:2 on 1562 arity-6 terms, 99968 tuples,
# took 4.8 s and 123 MB peak RSS on a 2-core Xeon host)
MAX_TUPLES = 10 ** 5
# a law grid's symbols times their largest expansions, which bounds the
# worst case, where every check expands both sides in full.  On that host
# grids at the budget (ks 2,3, arity 2-4) ran 0.1-3.1 s (lemma48) and
# 0.1-1.2 s (ringhom) when every law held, 12-43 s and 7-24 s in full;
# coalg ran 90 s, and lemma48 at arity 1 (max_N 790, its symbols floored
# at two tuples per law check) 42 s
MAX_GRID_TUPLES = 10 ** 7


def _bound(what, terms, k, power):
    """Refuse terms * k^power tuples above MAX_TUPLES, one factor at a time
    (so a huge k^power is never formed)."""
    tuples = terms
    for _ in range(power):
        tuples *= k
        if tuples > MAX_TUPLES:
            raise ValueError("%s would expand %d term(s) into %d^%d tuples "
                             "each, above the cap of %d tuples"
                             % (what, terms, k, power, MAX_TUPLES))


def _count(runs):
    """Sum c * <combo> over (c, iterator of entry tuples) pairs; a lone
    run of distinct tuples is written at c with no ``Counter``."""
    runs = iter(runs)
    first, second = next(runs, None), next(runs, None)
    if second is None:
        if first is None or not first[0]:
            return {}
        c, run = first
        run = list(run)
        out = dict.fromkeys(run, c)
        if len(out) == len(run):
            return out
        runs = [(c, run)]
    else:
        runs = chain((first, second), runs)
    out = Counter()
    for c, run in runs:
        if c == 1:
            out.update(run)
        else:
            for t, m in Counter(run).items():
                out[t] += c * m
    return {t: c for t, c in out.items() if c}


def _concat(a, b):
    """Sum ca*cb * <u + v> over the terms (u, ca) of a and (v, cb) of b."""
    ga, gb = {}, {}
    for g, sums in ((ga, a), (gb, b)):
        for t, c in sums.items():
            g.setdefault(c, []).append(t)
    return _count((ca * cb, starmap(add, product(us, vs)))
                  for (ca, us), (cb, vs) in product(ga.items(), gb.items()))


def _raw_sigma(k, L, sums):
    out = defaultdict(int)
    for t, c in sums.items():
        out[tuple([k * i % L for i in t])] += c
    return {t: c for t, c in out.items() if c}


def _raw_rho(k, L, sums):
    return _count((c, product(*[range(i // k, L, L // k) for i in t]))
                  for t, c in sums.items())


def _raw_e(k, L, sums):
    return _count((c, product(*[range(i % (L // k), L, L // k) for i in t]))
                  for t, c in sums.items())


def sigma_op(k, x):
    """Entrywise scaling by k; a symbol dies iff all scaled entries vanish."""
    _check_k(k)
    L = _level(x)
    return _wrap(_raw_sigma(k, L, _raw_of(x, L)), L, x.arity, x.rational)


def rho_op(k, x):
    """Sum over all k^arity entrywise preimage tuples."""
    _check_k(k)
    _bound("rho:%d" % k, len(x.terms), k, x.arity)
    L = _level(x) * k
    return _wrap(_raw_rho(k, L, _raw_of(x, L)), L, x.arity, x.rational)


def rho_hat_op(k, x):
    """Averaged lift: rho_op divided by k^arity; needs rational coefficients."""
    _check_k(k)
    if not x.rational:
        raise ValueError("averaged lift needs a rational-coefficient sum")
    return rho_op(k, x).scale(Fraction(1, k ** x.arity))


def e_op(k, x):
    """Sum over all k^arity torsion-shift tuples of the shifted symbol."""
    _check_k(k)
    _bound("ek:%d" % k, len(x.terms), k, x.arity)
    L = lcm(k, _level(x))
    return _wrap(_raw_e(k, L, _raw_of(x, L)), L, x.arity, x.rational)


def nabla_op(ell, x, y, strict=True):
    """Level-ell product: sum over lifts of the first factor, concatenated.

    The level is explicit and never inferred from the second factor.  With
    strict=True every entry of y must have order dividing ell (the second
    factor lives at that level); strict=False drops that check.  No law
    cell calls this: a ring homomorphism cell calls ``_concat`` on codes,
    and only where a check is expanded in full.
    """
    if not isinstance(ell, int) or ell < 2:
        raise ValueError("product level must be an integer >= 2")
    if strict and ell % _level(y):
        raise ValueError("entry order does not divide the level")
    # each lifted term of x meets every term of y; with y zero the lift of
    # x is still expanded
    _bound("nabla:%d" % ell, len(x.terms) * max(len(y.terms), 1), ell,
           x.arity)
    L = _level(x, y) * ell
    out = _concat(_raw_rho(ell, L, _raw_of(x, L)), _raw_of(y, L))
    arity = x.arity + y.arity if x.terms and y.terms else 0
    return _wrap(out, L, arity, x.rational or y.rational)


class DeltaSum:
    """Output of the coproduct: tensor terms grouped by arity split."""

    def __init__(self, buckets=None):
        self.buckets = {} if buckets is None else buckets

    def __eq__(self, other):
        if not isinstance(other, DeltaSum):
            return NotImplemented
        return self.buckets == other.buckets

    def add(self, split, left, right, coeff):
        b = self.buckets.setdefault(split, {})
        c = b.pop((left, right), 0) + coeff
        if c:
            b[left, right] = c
        elif not b:
            del self.buckets[split]

    def is_zero(self):
        return not self.buckets

    def items(self):
        return [(split, l, r, c) for split in sorted(self.buckets)
                for (l, r), c in sorted(self.buckets[split].items())]

    def to_json(self):
        return [{"split": list(split), "left": l.to_json(),
                 "right": r.to_json(), "c": str(c)}
                for split, l, r, c in self.items()]


def _raw_delta(k, L, sums):
    """``delta_op`` on codes with both legs then scaled by k, keyed by
    (split, left, right)."""
    out = defaultdict(int)
    for t, c in sums.items():
        n = len(t)
        for r in range(1, n):
            for right in combinations(range(n), r):
                sub = [t[i] for i in right]
                m = L // gcd(L, *sub)
                if m < 2:
                    continue
                left = tuple(sorted(k * m * t[i] % L for i in range(n)
                                    if i not in right))
                if not any(left):
                    continue
                rep, sign = _minus_rep([k * i % L for i in sub], L)
                if sign == TWO_TORSION:
                    continue
                out[(n - r, r), left, rep] += sign * c
    return {key: c for key, c in out.items() if c}


def _delta_sum(raw, L):
    out = DeltaSum()
    for (split, left, right), c in raw.items():
        out.add(split, _dec(left, L), _dec(right, L), c)
    return out


def delta_op(x):
    """Torsion coproduct of a formal sum.

    For each symbol and each proper position split with both sides
    nonempty, the positions whose entries generate a subgroup of some
    order m >= 2 feed the right leg (sign-canonicalized, two-torsion
    classes collapse) while the remaining entries are scaled by m on the
    left (dropped if that kills them all).  Arity-1 input has no proper
    split, so it maps to zero.
    """
    L = _level(x)
    return _delta_sum(_raw_delta(1, L, _raw_of(x, L)), L)


def split_by_modulus(fs):
    """Split a formal sum into its exact-modulus components."""
    parts = {}
    for (M, t), c in fs.terms.items():
        parts.setdefault(M, {})[M, t] = c
    return {M: _coded(part.items(), fs.arity, fs.rational)
            for M, part in sorted(parts.items())}


# law verification

class LawCheck:
    def __init__(self, law, checked=0, failures=0, samples=None):
        self.law, self.checked, self.failures = law, checked, failures
        self.samples = [] if samples is None else samples

    def record(self, ok, sample):
        """Count one check; a failure keeps sample(), built only then."""
        self.checked += 1
        if not ok:
            self.failures += 1
            if len(self.samples) < MAX_STORED_FAILURES:
                self.samples.append(sample())


class OperatorReport:
    def __init__(self, suite, grid, laws, info):
        self.suite, self.grid, self.laws, self.info = suite, grid, laws, info

    @property
    def failures_total(self):
        return sum(l.failures for l in self.laws)

    def to_json(self):
        return {
            "suite": self.suite,
            "grid": self.grid,
            "laws": [{"law": l.law, "checked": l.checked,
                      "failures": l.failures, "samples": l.samples}
                     for l in self.laws],
            "info": self.info,
            "failures_total": self.failures_total,
        }


def _proj(sums):
    """The acceptability projection: drop the all-zero tuple.

    A sum holds one arity, so its all-zero tuple is the one of the arity
    of any of its tuples.
    """
    out = dict(sums)
    if out:
        out.pop((0,) * len(next(iter(out))), None)
    return out


def _same(a, b):
    """Do two ordered expansions have the same sorted sum?

    Equal ordered sides have equal sorted sides, so only sides that differ
    are sorted, and the verdict is exactly the one on sorted tuples.
    """
    return a == b or _sym(a) == _sym(b)


def _by_position(memo, t, lhs, rhs):
    """Are the factors lhs(e) and rhs(e) equal at every entry of t?

    Each maps a one-entry sum e to its expansion, so this is whether the
    two ordered entrywise products over t are equal; verdicts are memoised
    by entry code.  False refutes nothing: a law compares sorted sides, so
    the caller then expands both in full for ``_same``.
    """
    for i in t:
        ok = memo.get(i)
        if ok is None:
            e = {(i,): 1}
            ok = memo[i] = _same(lhs(e), rhs(e))
        if not ok:
            return False
    return True


def _symbols_at(n, N, L):
    """The arity-n symbols of modulus N, coded at level L."""
    return [tuple([i * (L // N) for i in t]) for t in _coded_symbols(n, N)]


def _tag(n, N, t, L):
    return {"n": n, "N": N, "symbol": [_entry(i, L) for i in t]}


# law -> (indices, lhs, rhs): each side maps k, l, a level L and a coded
# sum to its expansion, entry by entry.  "kl" checks every (k, l),
# "coprime" those with gcd(k, l) = 1 and "k" each k alone, at l = None.
_LEMMA48 = {
    "scale_multiplicative": (
        "kl", lambda k, l, L, s: _raw_sigma(k, L, _raw_sigma(l, L, s)),
        lambda k, l, L, s: _raw_sigma(k * l, L, s)),
    "lift_multiplicative": (
        "kl", lambda k, l, L, s: _raw_rho(k, L, _raw_rho(l, L, s)),
        lambda k, l, L, s: _raw_rho(k * l, L, s)),
    "scale_lift_commute": (
        "coprime", lambda k, l, L, s: _raw_sigma(k, L, _raw_rho(l, L, s)),
        lambda k, l, L, s: _raw_rho(l, L, _raw_sigma(k, L, s))),
    "lift_scale_torsion_shift": (
        "k", lambda k, l, L, s: _raw_rho(k, L, _raw_sigma(k, L, s)),
        lambda k, l, L, s: _raw_e(k, L, s)),
    "scale_lift_scalar": (
        "k", lambda k, l, L, s: _raw_sigma(k, L, _raw_rho(k, L, s)),
        lambda k, l, L, s: {u: c * k ** len(u) for u, c in s.items()}),
    "averaged_lift_section": (
        # as in rho_hat_op, 1/k^arity divides the counted lift
        "k", lambda k, l, L, s: {u: Fraction(c, k ** len(u)) for u, c in
                                 _raw_sigma(k, L, _raw_rho(k, L, s)).items()},
        lambda k, l, L, s: s),
}


def _lemma48_pairs(ks):
    """The (k, l) index pairs of each kind of lemma48 law."""
    pairs = {"kl": list(product(ks, ks)), "k": [(k, None) for k in ks]}
    pairs["coprime"] = [(k, l) for k, l in pairs["kl"] if gcd(k, l) == 1]
    return pairs


def _lemma48_cell(laws, info, n, N, ks):
    """Check the lemma48 laws on every symbol of arity n and modulus N,
    each position by position (``_by_position``) and in full by ``_same``
    only on a symbol where some position differs."""
    # two stacked lifts by k and l reach denominators N*k*l, which divide L
    L = N * lcm(*ks) ** 2
    pairs = _lemma48_pairs(ks)
    memo = {}  # (law, k, l) -> entry code -> verdict
    for t in _symbols_at(n, N, L):
        x = {t: 1}
        for law, (which, lhs, rhs) in _LEMMA48.items():
            for k, l in pairs[which]:
                laws[law].record(
                    _by_position(memo.setdefault((law, k, l), {}), t,
                                 lambda e: lhs(k, l, L, e),
                                 lambda e: rhs(k, l, L, e))
                    or _same(lhs(k, l, L, x), rhs(k, l, L, x)),
                    lambda: {**_tag(n, N, t, L), "k": k,
                             **({} if l is None else {"l": l})})
        # the projected composites genuinely deviate on annihilated symbols
        for k in ks:
            if not any(k * i % L for i in t):
                # sigma_k annihilates x, so a lift of its projection is 0
                rows = [({"l": l, "law": "scale_lift_commute"},
                         _raw_sigma(k, L, _proj(_raw_rho(l, L, x))), {})
                        for l in ks if gcd(k, l) == 1]
                rows.append(({"law": "lift_scale_torsion_shift"},
                             {}, _raw_e(k, L, x)))
                for extra, lp, rp in rows:
                    lp, rp = _proj(lp), _proj(rp)
                    if not _same(lp, rp):
                        info.append({
                            **_tag(n, N, t, L), "k": k, **extra,
                            "projected_lhs": _wrap(lp, L, n, False).to_json(),
                            "projected_rhs": _wrap(rp, L, n, False).to_json()})


def _ringhom_cell(law, n1, m1, n2, m2, ks):
    """Check lift_product_hom on every pair of symbols x, y of arities n1,
    n2 and moduli m1, m2.

    Both sides are rho_k y at the positions of y, so the verdict rests on
    the x positions alone, rho_k(rho_ell x) against rho_ell(rho_k x),
    taken once per (x, ell, k) for all y.
    """
    # a lift by k and a product at level ell reach lcm(m1, m2)*k*ell
    L = lcm(m1, m2) * lcm(*ks) ** 2
    memo = {}  # (ell, k) -> entry code -> verdict
    ys = [(t, {t: 1}) for t in _symbols_at(n2, m2, L)]
    for tx in _symbols_at(n1, m1, L):
        x = {tx: 1}
        ok = {(ell, k): _by_position(
                  memo.setdefault((ell, k), {}), tx,
                  lambda e: _raw_rho(k, L, _raw_rho(ell, L, e)),
                  lambda e: _raw_rho(ell, L, _raw_rho(k, L, e)))
              for ell in ks for k in ks}
        for ty, y in ys:
            for ell in ks:
                for k in ks:
                    law.record(
                        ok[ell, k] or _same(
                            _raw_rho(k, L, _concat(_raw_rho(ell, L, x), y)),
                            _concat(_raw_rho(ell, L, _raw_rho(k, L, x)),
                                    _raw_rho(k, L, y))),
                        lambda: {"nx": n1, "mx": m1, "ny": n2, "my": m2,
                                 "k": k, "l": ell,
                                 "x": [_entry(i, L) for i in tx],
                                 "y": [_entry(i, L) for i in ty]})


def _coalg_cell(law, info, n, N, ks):
    for t in _coded_symbols(n, N):
        x = {t: 1}
        for k in ks:
            lhs = _raw_delta(k, N, x)
            rhs = _raw_delta(1, N, _raw_sigma(k, N, x))
            if gcd(k, N) == 1:
                law.record(lhs == rhs, lambda: {**_tag(n, N, t, N), "k": k})
            elif lhs != rhs:
                info.append({**_tag(n, N, t, N), "k": k,
                             "law": "scale_coproduct_hom",
                             "note": "non-coprime instance differs",
                             "lhs": _delta_sum(lhs, N).to_json(),
                             "rhs": _delta_sum(rhs, N).to_json()})


def _grid_size(max_n, max_N, weight):
    """Sum weight(n) * C(N+n-1, n), a bound on the symbols of cell (n, N),
    over the grid, stopping once the sum passes MAX_GRID_TUPLES."""
    total = 0
    for n in range(1, max_n + 1):
        for N in range(2, max_N + 1):
            total += weight(n) * comb(N + n - 1, n)
            if total > MAX_GRID_TUPLES:
                return total
    return total


def _bound_grid(suite, max_n, max_N, ks):
    """Refuse a grid too large for the budgets before any cell is built.

    With k the largest index, an arity-n symbol costs k^(2n) tuples in
    lemma48 and 2^n splits per k in coalg; ringhom pairs of arities n, m
    cost k^(2n+m), in sum at most the symbols times the sum of k^(3n).
    A lemma48 symbol costs at least two tuples per law check, one on each
    side: at arity 1 that floor, not k^2, is the cost."""
    k, cells = ks[-1], max_n * (max_N - 1)
    if suite == "coalg":
        each = "%d x 2^%d splits each" % (len(ks), max_n)
        size = _grid_size(max_n, max_N, lambda n: len(ks) << n)
    elif suite == "lemma48":
        _bound("laws --suite lemma48", 1, k, 2 * max_n)
        pairs = _lemma48_pairs(ks)
        floor = 2 * sum(len(pairs[which]) for which, _, _ in _LEMMA48.values())
        each = ("%d^%d tuples each (a symbol at least %d, two per law "
                "check)" % (k, 2 * max_n, floor))
        size = _grid_size(max_n, max_N, lambda n: max(k ** (2 * n), floor))
    else:
        _bound("laws --suite ringhom", 1, k, 3 * max_n)
        each = "%d^%d tuples each" % (k, 3 * max_n)
        cells *= cells
        size = (_grid_size(max_n, max_N, lambda n: k ** (3 * n))
                * _grid_size(max_n, max_N, lambda n: 1))
    if size > MAX_GRID_TUPLES:
        raise ValueError("laws --suite %s would expand %d grid cell(s) into "
                         "up to %s, above the budget of %d in all"
                         % (suite, cells, each, MAX_GRID_TUPLES))


def check_laws(suite, max_n, max_N, ks):
    """Verify an operator-law suite on the full (arity, modulus) grid.

    Returns a report; zero failures is the assertion of every law at every
    grid point.  The ``lemma48`` suite covers the composition laws of the
    four basic operators, ``ringhom`` the product compatibility of the
    lift, ``coalg`` the coproduct compatibility of scaling (asserted for
    coprime scale only, other instances are reported as information).
    """
    if suite not in ("lemma48", "ringhom", "coalg"):
        raise ValueError("unknown suite %r" % suite)
    ks = tuple(sorted(set(ks)))
    if not ks or any(k < 2 for k in ks):
        raise ValueError("operator indices must be integers >= 2")
    if max_n < 1 or max_N < 2:
        raise ValueError("empty grid: need max_n >= 1 and max_N >= 2")
    _bound_grid(suite, max_n, max_N, ks)
    grid = {"max_n": max_n, "max_N": max_N, "ks": list(ks)}
    cells = list(product(range(1, max_n + 1), range(2, max_N + 1)))
    info_rows = []
    if suite == "lemma48":
        laws = {name: LawCheck(name) for name in _LEMMA48}
        for n, N in cells:
            _lemma48_cell(laws, info_rows, n, N, ks)
        laws = list(laws.values())
        info = {
            "scalar_note": ("scale_after_lift equals k**arity times the "
                            "identity; the scalar is k itself only at "
                            "arity 1"),
            "projected_composite_deviations": info_rows,
        }
    elif suite == "ringhom":
        laws = [LawCheck("lift_product_hom")]
        for (n1, m1), (n2, m2) in product(cells, cells):
            _ringhom_cell(laws[0], n1, m1, n2, m2, ks)
        info = {"notes": "product level is explicit; lifted second factors "
                         "are accepted without the order check"}
    else:
        laws = [LawCheck("scale_coproduct_hom")]
        for n, N in cells:
            _coalg_cell(laws[0], info_rows, n, N, ks)
        info = {"non_coprime_reports": info_rows}
    return OperatorReport(suite, grid, laws, info)


def _split(sums, L):
    """Tuples coded at level L as {modulus: {canonical code: coefficient}}."""
    out = {}
    for (M, t), c in _by_modulus(sums, L):
        part = out.setdefault(M, {})
        part[t] = part.get(t, 0) + c
    return out


def _maps(pos):
    """The maps of a spanning row of part pos, each as (a, b, c): entry b
    of a tuple becomes c * t_b - t_a.  A part of two positions has the
    spreads keeping either entry a (b the other, c = 1), a part of one
    the negation of its entry (b = a, c = 0)."""
    if len(pos) == 1:
        return [(pos[0], pos[0], 0)]
    p, q = pos
    return [(p, q, 1), (q, p, 1)]


def _generator_maps(source, generators):
    """Each map of each generator as (i, j, a, b, c, arrange).

    ``generators`` are origins (i, pos) from ``_spanning_rows``.  (a, b, c)
    is one of the ``_maps`` of pos, j the basis column of the sorted code
    that it sends code i to, and ``arrange`` takes a list of entries to
    the tuple in the order that sorts the moved code.  None of these
    depends on the level or the operator.
    """
    N, codes, index = source.N, source.codes, source.index
    out = []
    for i, pos in generators:
        t = codes[i]
        for a, b, c in _maps(pos):
            u = list(t)
            u[b] = (c * t[b] - t[a]) % N
            order = sorted(range(len(u)), key=u.__getitem__)
            u.sort()
            # one index makes itemgetter return an entry, not a tuple
            arrange = itemgetter(*order) if len(order) > 1 else tuple
            out.append((i, index[tuple(u)], a, b, c, arrange))
    return out


def _commutes(maps, L, image):
    """Does an operator commute with every map of ``_generator_maps``?

    ``image(j)`` is the raw image of basis code j at level L: its ordered
    tuples with their multiplicities.  For each map (i, j, a, b, c,
    arrange), entry b of every tuple v of the image of code i becomes
    c * v_b - v_a, and the result arranged must give the sorted form
    (each tuple sorted, the all-zero tuple dropped) of the image of code
    j.  See ``descent_failures`` for why this suffices.

    A map sends only the all-zero tuple to it, and distinct tuples to
    distinct tuples, as does the arrangement.  So the mapped tuples of
    code i are distinct; if each is found in the nonzero part of the
    image of code j with its multiplicity, and the two have as many
    tuples, as they do for an operator acting entry by entry, the two are
    equal and so are their sorted forms.  Only on a mismatch are the
    mapped tuples made a dict and both sides compared sorted by ``_same``,
    which decides.
    """
    nonzero = {}  # basis column -> its image without the all-zero tuple
    for i, j, a, b, c, arrange in maps:
        for col in i, j:
            if col not in nonzero:
                nonzero[col] = _proj(image(col))
        src, want = nonzero[i], nonzero[j]
        if len(src) == len(want):
            for v, m in src.items():
                w = list(v)
                w[b] = (c * w[b] - w[a]) % L
                if want.get(arrange(w)) != m:
                    break
            else:
                continue
        got = {}
        for v, m in src.items():
            w = list(v)
            w[b] = (c * w[b] - w[a]) % L
            got[arrange(w)] = m
        if not _same(got, want):
            return False
    return True


def descent_failures(n, N, minus, ks):
    """Relation vectors whose operator images leave the relation span.

    Empty output means the operators descend to the presented quotient at
    (n, N): the image of every relation row decomposes by exact modulus
    and each component lies in the rational span of the relation rows of
    the target module.  The operators, the split by modulus and the
    target projection are linear, so this holds for every relation row
    exactly when it holds for the source's ``_spanning_rows``: the
    presenting rows (the negation rows if minus, and the k = 2 rows) that
    made the pivots of its echelon, which span the relation rows over Q
    with no negation lemma.  A row's image sums its coefficients times
    the images of its basis symbols, each expanded once per (k, operator),
    on first use, at the level L the public operator would pick, into
    ordered level-L tuples.

    Each (k, operator) is first tried by a commutation certificate
    (``_commutes``), which builds no target.  The maps it checks
    (``_generator_maps``: each map's target code and the permutation that
    sorts it) depend on neither k nor the operator, so they are built once
    per call and shared by every (k, operator).  Write [v] for the symbol
    of a level-L tuple v in any entry order at its modulus, or 0 when v is
    all zero, op(t) for the raw image of code t, a sum of m_v * v, and
    s_a for the spread of a part {p, q} keeping entry a.  The spanning
    row of code t and part {p, q} is r(t) = [t] - [s_p t] - [s_q t], and
    its image is [op(t)] - [op(s_p t)] - [op(s_q t)], with op of a moved
    code taken on its sorted code.  If [s_a op(t)] = [op(s_a t)] for
    a = p and a = q, the check, then the image equals the sum over v of
    m_v * ([v] - [s_p v] - [s_q v]).  Each term is zero when v = 0, and
    else the blow-up row of v and the part {p, q} in the target at the
    modulus of v: a spread adds a multiple of one entry to another, so
    s_p v and s_q v generate the group v generates.  A negation row
    [t] + [n_p t], with n_p negating entry p, is checked with n_p in
    place of s_a, and its image is then a sum of negation rows
    m_v * ([v] + [n_p v]).  So each modulus component of the image is a
    sum of target relation rows, and lies in their span.  Nothing here
    rests on what the operator does to a tuple, skewed or not: a row's
    image is by definition the sum of its codes' images, and the sum
    above is made of relation rows.  A certificate only proves, so it
    never writes a report.

    When any check fails, the span route decides: each component is
    asked of the target ``RelationMatrix`` at its modulus through
    ``holds``, built on first use (the source is its own target at
    modulus N), with the (k, operator) pairs largest level first, so the
    largest targets are built while the fewest others are held.  Only
    after an escape are the relation rows streamed, to write the report;
    a repeated index is checked and reported once.
    """
    if not ks:
        raise ValueError("need at least one operator index")
    for k in ks:
        _check_k(k)
    source = RelationMatrix(n, N, minus)
    jobs = [(L, k, name, op) for k in dict.fromkeys(ks) for name, L, op in
            (("scale", N, _raw_sigma), ("lift", N * k, _raw_rho),
             ("torsion_shift", lcm(k, N), _raw_e))]

    def expander(L, k, op):
        """The memoised raw image of each basis column under one job."""
        cache = {}

        def image(j):
            raw = cache.get(j)
            if raw is None:
                code = tuple([L // N * x for x in source.codes[j]])
                raw = cache[j] = op(k, L, {code: 1})
            return raw
        return image

    images = {(k, name): expander(L, k, op) for L, k, name, op in jobs}
    maps = _generator_maps(source, [(i, pos) for i, pos, _ in
                                    source._spanning_rows()])
    if all(_commutes(maps, L, images[k, name]) for L, k, name, _ in jobs):
        return []

    targets = {N: source}  # modulus -> RelationMatrix of the target
    splits = {}  # (k, operator) -> basis column -> {modulus: image part}

    def components(row, k, name, L):
        """The nonzero exact-modulus components of the image of row."""
        image = images[k, name]
        cache = splits.setdefault((k, name), {})
        parts = {}
        for j, c in row.items():
            split = cache.get(j)
            if split is None:
                split = cache[j] = _split(image(j), L)
            for M, part in split.items():
                acc = parts.setdefault(M, {})
                for t, x in part.items():
                    acc[t] = acc.get(t, 0) + c * x
        for M, part in sorted(parts.items()):
            comp = {t: x for t, x in part.items() if x}
            if comp:
                yield M, comp

    def escapes(rows, jobs):
        """The report entry of each image component outside its target."""
        for i, row in enumerate(rows):
            for L, k, name, _ in jobs:
                for M, comp in components(row, k, name, L):
                    if M not in targets:
                        targets[M] = RelationMatrix(n, M, minus)
                    if not targets[M].holds(comp):
                        yield {"row": i, "k": k, "op": name,
                               "target_modulus": M, "component":
                               _wrap(comp, M, n, False).to_json()}

    spanning = (row for _, _, row in source._spanning_rows())
    if next(escapes(spanning, sorted(jobs, reverse=True)), None) is None:
        return []
    # a spanning row escaped: the relation rows themselves give the report
    return list(escapes(_relations(n, N, source.codes, source.index, minus),
                        jobs))
