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
codes at one level that holds both sides of every law it checks,
compares plain dicts and decodes only the rows it reports.

The lift acts entry by entry, so a lifted symbol is the product over
positions of per-entry multisets.  Where both sides of a law are such
products with the same positive mass at each position (k*l lifted codes
per entry for ``lift_multiplicative`` and, at the x positions, for
``lift_product_hom``), the sides are equal exactly when the factors are
equal at every position: a side's marginal at one position is its factor
there times the other factors' masses.  Those two laws are decided from
per-entry lifts, memoised by entry code for the cell.  Where some position
differs, both sides are expanded in full and compared sorted by
``_same``, so every verdict, count and sample is the one the full
expansion gives.

A descent check relies on the operators being linear.  It expands the
image of each basis symbol once per (k, operator), into canonical codes,
and sums those images into the image of each relation row, which it
splits by modulus.  A component that cancels is dropped, and its target
matrix is not built.
A target of full rank answers each span query without elimination.

One helper, ``_count``, sums every expansion by one rule: it counts each
run's entry combinations in a ``Counter`` (so the work per combination
runs in C), adds them in times the run's coefficient and drops zeros.
Multiplicities are integers; the averaged lift's 1/k^n divides a counted
result.  Combinations keep each entry at its position: the operators act
entry by entry, so they commute with permuting positions, and
``symbols._wrap`` sorts a result once.  Law cells compare ordered sides
with ``_same``; the coproduct keys its output canonically.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product, starmap
from math import comb, gcd, lcm
from operator import add

from .symbols import (enumerate_symbols, relation_matrix, TWO_TORSION,
                      _coded, _dec, _enc, _level, _minus_rep, _raw_of, _sym,
                      _wrap)

MAX_STORED_FAILURES = 50
# the lift, the torsion shift and the product (through the lift of its
# first factor) expand k^arity tuples per term; above this many they are
# refused before they start (rho:2 on 1562 arity-6 terms, 99968 tuples,
# took 4.8 s and 123 MB peak RSS on a 2-core Xeon host)
MAX_TUPLES = 10 ** 5
# a law grid's symbols times their largest expansions, which bounds the
# worst case: a failing lift_multiplicative or lift_product_hom check
# expands both sides in full, a passing one compares per-entry lifts.
# When every law holds, a grid at the budget runs about 2.5-7 s (lemma48),
# 2 s (ringhom) or 90 s (coalg) on that host; in full, 15-22 s and 15 s
MAX_GRID_TUPLES = 10 ** 7


def _check_k(k):
    if not isinstance(k, int) or k < 1:
        raise ValueError("operator index must be a positive integer")


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
    """Sum c * <combo> over (c, iterator of entry tuples) pairs."""
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


@dataclass
class DeltaSum:
    """Output of the coproduct: tensor terms grouped by arity split."""

    buckets: dict = field(default_factory=dict)

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

@dataclass
class LawCheck:
    law: str
    checked: int = 0
    failures: int = 0
    samples: list = field(default_factory=list)

    def record(self, ok, sample):
        """Count one check; a failure keeps sample(), built only then."""
        self.checked += 1
        if not ok:
            self.failures += 1
            if len(self.samples) < MAX_STORED_FAILURES:
                self.samples.append(sample())


@dataclass
class OperatorReport:
    suite: str
    grid: dict
    laws: list
    info: dict

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
    """The acceptability projection: drop the all-zero tuple."""
    return {t: c for t, c in sums.items() if any(t)}


def _same(a, b):
    """Do two ordered expansions have the same sorted sum?

    Equal ordered sides have equal sorted sides, so only sides that differ
    are sorted, and the verdict is exactly the one on sorted tuples.
    """
    return a == b or _sym(a) == _sym(b)


def _by_position(memo, t, lhs, rhs):
    """Are the factors lhs(e) and rhs(e) equal at every entry of t?

    Each maps a one-entry sum e to its expansion, with the same positive
    mass on both sides, so this is whether the two ordered entrywise
    products over t are equal.  Verdicts are memoised by entry code.
    False refutes nothing: a law compares sorted sides, so the caller then
    expands both in full for ``_same``.
    """
    for i in t:
        ok = memo.get(i)
        if ok is None:
            e = {(i,): 1}
            ok = memo[i] = _same(lhs(e), rhs(e))
        if not ok:
            return False
    return True


def _lemma48_cell(laws, info, n, N, ks):
    """Check the lemma48 laws on every symbol of arity n and modulus N.

    Both sides of lift_multiplicative lift each entry to k*l codes, so
    the law is decided position by position (``_by_position``); only a
    symbol on which some position differs has both sides expanded in
    full and compared by ``_same``.  The other laws expand at most k^n
    tuples a side and are compared whole.
    """
    # two stacked lifts by k and l reach denominators N*k*l, which divide L
    L = N * lcm(*ks) ** 2
    memo = {}  # (k, l) -> entry code -> lift_multiplicative verdict
    for sym in enumerate_symbols(n, N):
        t = _enc(sym, L)
        x = {t: 1}
        tag = {"n": n, "N": N, "symbol": sym.to_json()}
        sig = {k: _raw_sigma(k, L, x) for k in ks}
        rho = {k: _raw_rho(k, L, x) for k in ks}
        for k in ks:
            for l in ks:
                lhs = _raw_sigma(k, L, sig[l])
                rhs = _raw_sigma(k * l, L, x)
                laws["scale_multiplicative"].record(
                    _same(lhs, rhs), lambda: {**tag, "k": k, "l": l})
                ok = _by_position(memo.setdefault((k, l), {}), t,
                                  lambda e: _raw_rho(k, L, _raw_rho(l, L, e)),
                                  lambda e: _raw_rho(k * l, L, e))
                laws["lift_multiplicative"].record(
                    ok or _same(_raw_rho(k, L, rho[l]),
                                _raw_rho(k * l, L, x)),
                    lambda: {**tag, "k": k, "l": l})
                if gcd(k, l) == 1:
                    lhs = _raw_sigma(k, L, rho[l])
                    rhs = _raw_rho(l, L, sig[k])
                    laws["scale_lift_commute"].record(
                        _same(lhs, rhs), lambda: {**tag, "k": k, "l": l})
        for k in ks:
            lhs = _raw_rho(k, L, sig[k])
            rhs = _raw_e(k, L, x)
            laws["lift_scale_torsion_shift"].record(
                _same(lhs, rhs), lambda: {**tag, "k": k})
            lhs = _raw_sigma(k, L, rho[k])
            rhs = {t: k ** n}
            laws["scale_lift_scalar"].record(_same(lhs, rhs),
                                             lambda: {**tag, "k": k})
            # expanded anew, not taken from rho[k]; as in rho_hat_op, the
            # lift counts integers and 1/k^n divides the counted result
            hat = _raw_sigma(k, L, _raw_rho(k, L, x))
            hat = {u: Fraction(c, k ** n) for u, c in hat.items()}
            laws["averaged_lift_section"].record(
                _same(hat, x), lambda: {**tag, "k": k})
        # the projected composites genuinely deviate on annihilated symbols
        for k in ks:
            if not _proj(sig[k]):
                # sigma_k annihilates x, so a lift of its projection is 0
                rows = [({"l": l, "law": "scale_lift_commute"},
                         _raw_sigma(k, L, _proj(rho[l])), {})
                        for l in ks if gcd(k, l) == 1]
                rows.append(({"law": "lift_scale_torsion_shift"},
                             {}, _raw_e(k, L, x)))
                for extra, lp, rp in rows:
                    lp, rp = _proj(lp), _proj(rp)
                    if not _same(lp, rp):
                        info.append({
                            **tag, "k": k, **extra,
                            "projected_lhs": _wrap(lp, L, n, False).to_json(),
                            "projected_rhs": _wrap(rp, L, n, False).to_json()})


_LEMMA48_LAWS = (
    "scale_multiplicative",
    "lift_multiplicative",
    "scale_lift_commute",
    "lift_scale_torsion_shift",
    "scale_lift_scalar",
    "averaged_lift_section",
)


def _ringhom_cell(law, n1, m1, n2, m2, ks):
    """Check lift_product_hom on every pair of symbols x, y of arities n1,
    n2 and moduli m1, m2.

    Both sides are entrywise products: rho_k(rho_ell x) against
    rho_ell(rho_k x) at the positions of x, each of mass k*ell, and rho_k y
    on both sides at the positions of y.  So the verdict rests on the x
    positions alone (``_by_position``), taken once per (x, ell, k) for all
    y.  Only where some position differs are both sides of each pair
    expanded in full and compared by ``_same``.
    """
    # a lift by k and a product at level ell reach lcm(m1, m2)*k*ell
    L = lcm(m1, m2) * lcm(*ks) ** 2
    memo = {}  # (ell, k) -> entry code -> verdict
    ys = [(sy, {_enc(sy, L): 1}) for sy in enumerate_symbols(n2, m2)]
    for sx in enumerate_symbols(n1, m1):
        t = _enc(sx, L)
        x = {t: 1}
        ok = {(ell, k): _by_position(
                  memo.setdefault((ell, k), {}), t,
                  lambda e: _raw_rho(k, L, _raw_rho(ell, L, e)),
                  lambda e: _raw_rho(ell, L, _raw_rho(k, L, e)))
              for ell in ks for k in ks}
        for sy, y in ys:
            for ell in ks:
                for k in ks:
                    law.record(
                        ok[ell, k] or _same(
                            _raw_rho(k, L, _concat(_raw_rho(ell, L, x), y)),
                            _concat(_raw_rho(ell, L, _raw_rho(k, L, x)),
                                    _raw_rho(k, L, y))),
                        lambda: {"nx": n1, "mx": m1, "ny": n2, "my": m2,
                                 "k": k, "l": ell, "x": sx.to_json(),
                                 "y": sy.to_json()})


def _coalg_cell(law, info, n, N, ks):
    for sym in enumerate_symbols(n, N):
        x = {_enc(sym, N): 1}
        for k in ks:
            lhs = _raw_delta(k, N, x)
            rhs = _raw_delta(1, N, _raw_sigma(k, N, x))
            tag = {"n": n, "N": N, "k": k, "symbol": sym.to_json()}
            if gcd(k, N) == 1:
                law.record(lhs == rhs, lambda: tag)
            elif lhs != rhs:
                info.append({**tag, "law": "scale_coproduct_hom",
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
    cost k^(2n+m), in sum at most the symbols times the sum of k^(3n)."""
    k, cells = ks[-1], max_n * (max_N - 1)
    if suite == "coalg":
        each = "%d x 2^%d splits" % (len(ks), max_n)
        size = _grid_size(max_n, max_N, lambda n: len(ks) << n)
    else:
        power = 2 if suite == "lemma48" else 3
        _bound("laws --suite " + suite, 1, k, power * max_n)
        each = "%d^%d tuples" % (k, power * max_n)
        size = _grid_size(max_n, max_N, lambda n: k ** (power * n))
        if suite == "ringhom":
            cells *= cells
            size *= _grid_size(max_n, max_N, lambda n: 1)
    if size > MAX_GRID_TUPLES:
        raise ValueError("laws --suite %s would expand %d grid cell(s) into "
                         "up to %s each, above the budget of %d in all"
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
        laws = {name: LawCheck(name) for name in _LEMMA48_LAWS}
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


def descent_failures(n, N, minus, ks):
    """Relation vectors whose operator images leave the relation span.

    Empty output means the operators descend to the presented quotient at
    (n, N): the image of every relation row decomposes by exact modulus
    and each component lies in the rational span of the relation rows of
    the target module.  The operators are linear, so a row's image is
    the sum of its coefficients times the images of its basis symbols.
    Each basis symbol is expanded once per (k, operator), on first use:
    on its code at the level the public operator would pick, into
    canonical codes.  A component that cancels in the sum is dropped, and
    no target matrix is built for it.
    """
    for k in ks:
        _check_k(k)
    mats = {}
    src = mats[N] = relation_matrix(n, N, minus)
    images = {}  # (k, operator) -> basis column -> its image
    fails = []
    for i, r in enumerate(src.mat.rows):
        for k in ks:
            for name, L, op in (("scale", N, _raw_sigma),
                                ("lift", N * k, _raw_rho),
                                ("torsion_shift", lcm(k, N), _raw_e)):
                cache = images.setdefault((k, name), {})
                parts = {}
                for j, c in r.items():
                    if j not in cache:
                        code = tuple(L // N * x for x in src.codes[j])
                        cache[j] = _wrap(op(k, L, {code: 1}), L, n, False)
                    for (M, t), x in cache[j].terms.items():
                        part = parts.setdefault(M, {})
                        part[t] = part.get(t, 0) + c * x
                for M, part in sorted(parts.items()):
                    comp = {t: x for t, x in part.items() if x}
                    if not comp:
                        continue
                    if M not in mats:
                        mats[M] = relation_matrix(n, M, minus)
                    vec = {mats[M].index[t]: c for t, c in comp.items()}
                    if not mats[M].mat.echelon().contains(vec):
                        fails.append({"row": i, "k": k, "op": name,
                                      "target_modulus": M, "component":
                                      _wrap(comp, M, n, False).to_json()})
    return fails
