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
are genuine and are reported in an informational section, never asserted
away.

Internally a symbol is coded at a level L, a positive integer that every
entry denominator divides: the entry a/d becomes the int a*L/d in
[0, L).  The code is monotone, so a sorted symbol codes to a sorted int
tuple and decodes without re-sorting.  Scaling by k is k*i mod L; the
lift by k is the range i/k, i/k + L/k, ... below L, exact as long as k
divides L and every lifted code; the torsion shift by k adds multiples
of L/k.  Each public operator picks the least level its output needs,
and each law cell picks one level that holds both sides of every law it
checks, so the two sides compare as plain dicts of int tuples.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from .qz import QZ
from .symbols import (FormalSum, Symbol, canonicalize, enumerate_symbols,
                      minus_canonicalize, relation_matrix, TWO_TORSION)

MAX_STORED_FAILURES = 50


def _check_k(k):
    if not isinstance(k, int) or k < 1:
        raise ValueError("operator index must be a positive integer")


# level codec: dicts {coded entry tuple: coefficient}, all-zero tuples kept

def _level(*sums):
    """lcm of the symbol moduli, the least level holding every entry."""
    return lcm(*[s.modulus for x in sums for s in x.terms])


def _enc(s, L):
    return tuple(a.numerator * (L // a.denominator) for a in s)


def _raw_of(fs, L):
    return {_enc(s, L): c for s, c in fs.terms.items()}


def _lifts(k, L, i):
    """The k preimages of the code i under scaling by k; k divides L and i."""
    return range(i // k, L, L // k)


def _raw_sigma(k, L, sums):
    out = {}
    for t, c in sums.items():
        key = tuple(sorted(k * i % L for i in t))
        out[key] = out.get(key, 0) + c
    return {t: c for t, c in out.items() if c}


def _raw_rho(k, L, sums):
    out = {}
    for t, c in sums.items():
        for combo in product(*[_lifts(k, L, i) for i in t]):
            key = tuple(sorted(combo))
            out[key] = out.get(key, 0) + c
    return {t: c for t, c in out.items() if c}


def _raw_e(k, L, sums):
    shifts = range(0, L, L // k)
    out = {}
    for t, c in sums.items():
        for combo in product(shifts, repeat=len(t)):
            key = tuple(sorted((i + s) % L for i, s in zip(t, combo)))
            out[key] = out.get(key, 0) + c
    return {t: c for t, c in out.items() if c}


def _wrap(sums, L, arity, rational):
    """Decode to a formal sum, dropping the all-zero tuple."""
    return FormalSum({Symbol(QZ(i, L) for i in t): c
                      for t, c in sums.items() if any(t)}, arity, rational)


def sigma_op(k, x):
    """Entrywise scaling by k; a symbol dies iff all scaled entries vanish."""
    _check_k(k)
    L = _level(x)
    return _wrap(_raw_sigma(k, L, _raw_of(x, L)), L, x.arity, x.rational)


def rho_op(k, x):
    """Sum over all k^arity entrywise preimage tuples."""
    _check_k(k)
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
    L = lcm(k, _level(x))
    return _wrap(_raw_e(k, L, _raw_of(x, L)), L, x.arity, x.rational)


def _nabla_tuples(ell, L, tx, ty):
    out = {}
    for lift in product(*[_lifts(ell, L, i) for i in tx]):
        key = tuple(sorted(lift + ty))
        out[key] = out.get(key, 0) + 1
    return out


def nabla_op(ell, x, y, strict=True):
    """Level-ell product: sum over lifts of the first factor, concatenated.

    The level is explicit and never inferred from the second factor.  With
    strict=True every entry of y must have order dividing ell (the second
    factor lives at that level); the relaxed form is what the ring
    homomorphism law needs on lifted factors.
    """
    if not isinstance(ell, int) or ell < 2:
        raise ValueError("product level must be an integer >= 2")
    L = _level(x, y) * ell
    out = {}
    for sy, cy in y.terms.items():
        if strict and any(ell % a.order for a in sy):
            raise ValueError("entry order does not divide the level")
        ty = _enc(sy, L)
        for sx, cx in x.terms.items():
            for t, m in _nabla_tuples(ell, L, _enc(sx, L), ty).items():
                out[t] = out.get(t, 0) + m * cx * cy
    arity = x.arity + y.arity if out else 0
    return _wrap(out, L, arity, x.rational or y.rational)


class DeltaSum:
    """Output of the coproduct: tensor terms grouped by arity split."""

    def __init__(self):
        self.buckets = {}

    def add(self, split, left, right, coeff):
        if not coeff:
            return
        b = self.buckets.setdefault(split, {})
        key = (left, right)
        c = b.get(key, 0) + coeff
        if c:
            b[key] = c
        else:
            del b[key]
            if not b:
                del self.buckets[split]

    def is_zero(self):
        return not self.buckets

    def __eq__(self, other):
        if not isinstance(other, DeltaSum):
            return NotImplemented
        return self.buckets == other.buckets

    def items(self):
        out = []
        for split in sorted(self.buckets):
            for (l, r), c in sorted(self.buckets[split].items()):
                out.append((split, l, r, c))
        return out

    def map_sigma(self, k):
        """Apply scaling by k to both tensor legs, renormalizing the right."""
        out = DeltaSum()
        for split, l, r, c in self.items():
            left = tuple(sorted(a * k for a in l))
            if not any(left):
                continue
            rep, sign = minus_canonicalize(canonicalize(a * k for a in r))
            if sign == TWO_TORSION:
                continue
            out.add(split, Symbol(left), rep, sign * c)
        return out

    def to_json(self):
        return [{"split": list(split), "left": l.to_json(),
                 "right": r.to_json(), "c": str(c)}
                for split, l, r, c in self.items()]


def delta_op(x, N=None):
    """Torsion coproduct of a formal sum, optionally pinned to modulus N.

    For each symbol and each proper position split with both sides
    nonempty, the positions whose entries generate a subgroup of some
    order m >= 2 feed the right leg (sign-canonicalized, two-torsion
    classes collapse) while the remaining entries are scaled by m on the
    left (dropped if that kills them all).  Arity-1 input has no proper
    split, so it maps to zero.
    """
    out = DeltaSum()
    for s, coeff in x.terms.items():
        n = len(s)
        if N is not None and any(N % a.order for a in s):
            raise ValueError("symbol entries are not %d-torsion" % N)
        for r in range(1, n):
            for right_pos in combinations(range(n), r):
                sub = tuple(s[i] for i in right_pos)
                m = lcm(*[a.order for a in sub])
                if m < 2:
                    continue
                left = tuple(sorted(s[i] * m for i in range(n)
                                    if i not in right_pos))
                if not any(left):
                    continue
                rep, sign = minus_canonicalize(canonicalize(sub))
                if sign == TWO_TORSION:
                    continue
                out.add((n - r, r), Symbol(left), rep, sign * coeff)
    return out


def split_by_modulus(fs):
    """Split a formal sum into its exact-modulus components."""
    parts = {}
    for s, c in fs.terms.items():
        parts.setdefault(s.modulus, {})[s] = c
    return {m: FormalSum(t, fs.arity, fs.rational)
            for m, t in sorted(parts.items())}


# law verification

@dataclass
class LawCheck:
    law: str
    checked: int = 0
    failures: int = 0
    samples: list = field(default_factory=list)

    def record(self, ok, payload):
        self.checked += 1
        if not ok:
            self.failures += 1
            if len(self.samples) < MAX_STORED_FAILURES:
                self.samples.append(payload)


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


def _lemma48_cell(laws, info, n, N, ks):
    # two stacked lifts by k and l reach denominators N*k*l, which divide L
    L = N * lcm(*ks) ** 2
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
                    lhs == rhs, {**tag, "k": k, "l": l})
                lhs = _raw_rho(k, L, rho[l])
                rhs = _raw_rho(k * l, L, x)
                laws["lift_multiplicative"].record(
                    lhs == rhs, {**tag, "k": k, "l": l})
                if gcd(k, l) == 1:
                    lhs = _raw_sigma(k, L, rho[l])
                    rhs = _raw_rho(l, L, sig[k])
                    laws["scale_lift_commute"].record(
                        lhs == rhs, {**tag, "k": k, "l": l})
        for k in ks:
            lhs = _raw_rho(k, L, sig[k])
            rhs = _raw_e(k, L, x)
            laws["lift_scale_torsion_shift"].record(
                lhs == rhs, {**tag, "k": k})
            lhs = _raw_sigma(k, L, rho[k])
            rhs = {t: k ** n}
            laws["scale_lift_scalar"].record(lhs == rhs, {**tag, "k": k})
            xq = FormalSum.of(sym, rational=True)
            back = sigma_op(k, rho_hat_op(k, xq))
            laws["averaged_lift_section"].record(back == xq, {**tag, "k": k})
        # the projected composites genuinely deviate on annihilated symbols
        for k in ks:
            if not any(any(u) for u in sig[k]):
                xs = FormalSum.of(sym)
                for l in ks:
                    if gcd(k, l) == 1:
                        lp = sigma_op(k, rho_op(l, xs))
                        rp = rho_op(l, sigma_op(k, xs))
                        if lp != rp:
                            info.append({**tag, "k": k, "l": l,
                                         "law": "scale_lift_commute",
                                         "projected_lhs": lp.to_json(),
                                         "projected_rhs": rp.to_json()})
                lp = rho_op(k, sigma_op(k, xs))
                rp = e_op(k, xs)
                if lp != rp:
                    info.append({**tag, "k": k,
                                 "law": "lift_scale_torsion_shift",
                                 "projected_lhs": lp.to_json(),
                                 "projected_rhs": rp.to_json()})


_LEMMA48_LAWS = (
    "scale_multiplicative",
    "lift_multiplicative",
    "scale_lift_commute",
    "lift_scale_torsion_shift",
    "scale_lift_scalar",
    "averaged_lift_section",
)


def _ringhom_cell(law, n1, m1, n2, m2, ks):
    # a lift by k and a product at level ell reach lcm(m1, m2)*k*ell
    L = lcm(m1, m2) * lcm(*ks) ** 2

    def coded(n, m):
        out = []
        for s in enumerate_symbols(n, m):
            t = _enc(s, L)
            out.append((s, t, {k: _raw_rho(k, L, {t: 1}) for k in ks}))
        return out

    ys = coded(n2, m2)
    for sx, tx, rx in coded(n1, m1):
        for sy, ty, ry in ys:
            for ell in ks:
                prod_xy = _nabla_tuples(ell, L, tx, ty)
                for k in ks:
                    lhs = _raw_rho(k, L, prod_xy)
                    rhs = {}
                    for u, cu in rx[k].items():
                        for v, cv in ry[k].items():
                            for t, m in _nabla_tuples(ell, L, u, v).items():
                                rhs[t] = rhs.get(t, 0) + m * cu * cv
                    law.record(lhs == rhs,
                               {"nx": n1, "mx": m1, "ny": n2, "my": m2,
                                "k": k, "l": ell, "x": sx.to_json(),
                                "y": sy.to_json()})


def _coalg_cell(law, info, n, N, ks):
    for sym in enumerate_symbols(n, N):
        x = FormalSum.of(sym)
        dx = delta_op(x, N)
        for k in ks:
            lhs = dx.map_sigma(k)
            rhs = delta_op(sigma_op(k, x), N)
            tag = {"n": n, "N": N, "k": k, "symbol": sym.to_json()}
            if gcd(k, N) == 1:
                law.record(lhs == rhs, tag)
            elif lhs != rhs:
                info.append({**tag, "law": "scale_coproduct_hom",
                             "note": "non-coprime instance differs",
                             "lhs": lhs.to_json(), "rhs": rhs.to_json()})


def check_laws(suite, max_n, max_N, ks):
    """Verify an operator-law suite on the full (arity, modulus) grid.

    Returns a report; zero failures is the assertion of every law at every
    grid point.  The ``lemma48`` suite covers the composition laws of the
    four basic operators, ``ringhom`` the product compatibility of the
    lift, ``coalg`` the coproduct compatibility of scaling (asserted for
    coprime scale only, other instances are reported as information).
    """
    ks = tuple(sorted(set(ks)))
    if not ks or any(k < 2 for k in ks):
        raise ValueError("operator indices must be integers >= 2")
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
    elif suite == "coalg":
        laws = [LawCheck("scale_coproduct_hom")]
        for n, N in cells:
            _coalg_cell(laws[0], info_rows, n, N, ks)
        info = {"non_coprime_reports": info_rows}
    else:
        raise ValueError("unknown suite %r" % suite)
    return OperatorReport(suite, grid, laws, info)


_RELMAT_CACHE = {}


def _relmat(n, N, minus):
    key = (n, N, minus)
    if key not in _RELMAT_CACHE:
        _RELMAT_CACHE[key] = relation_matrix(n, N, minus)
    return _RELMAT_CACHE[key]


def descent_failures(n, N, minus, ks):
    """Relation vectors whose operator images leave the relation span.

    Empty output means the operators descend to the presented quotient at
    (n, N): the image of every relation row decomposes by exact modulus
    and each component lies in the rational span of the relation rows of
    the target module.
    """
    fails = []
    for i, row in enumerate(_relmat(n, N, minus).rows):
        for k in ks:
            for name, image in (("scale", sigma_op(k, row)),
                                ("lift", rho_op(k, row)),
                                ("torsion_shift", e_op(k, row))):
                for M, comp in split_by_modulus(image).items():
                    if not _relmat(n, M, minus).contains(comp):
                        fails.append({"row": i, "k": k, "op": name,
                                      "target_modulus": M,
                                      "component": comp.to_json()})
    return fails
