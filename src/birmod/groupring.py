"""Integral group ring of the rationals mod one, with the operator pair.

Elements are finite integer combinations of group elements e(r).  Scaling
acts by e(r) -> e(k*r) and keeps e(0); the lift sums over the k-fold
preimages.  Their composite one way is multiplication by k, the other way
the sum over torsion shifts, with no exceptional cases: the contrast with
the symbol module, where the all-zero class is projected away, is the
point of carrying this model alongside.
"""

from itertools import chain

from .qz import QZ, preimages
from .symbols import _wire_rational


class GroupRingElem:
    """Finite integer combination of group elements of Q/Z.

    Built, as a dict is, from a mapping or from (element, coefficient)
    pairs; coefficients of equal elements add and zeros are dropped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        pairs = coeffs.items() if hasattr(coeffs, "items") else coeffs or ()
        for r, c in pairs:
            if not isinstance(r, QZ):
                raise ValueError("group element must be a QZ value")
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError("coefficients must be integers")
            clean[r] = clean.get(r, 0) + c
        self.coeffs = {r: c for r, c in clean.items() if c}

    @classmethod
    def of(cls, r, c=1):
        return cls({r: c})

    def items(self):
        return sorted(self.coeffs.items())

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        return GroupRingElem(chain(self.coeffs.items(), other.coeffs.items()))

    def __neg__(self):
        return GroupRingElem({r: -c for r, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, int):
            raise ValueError("scalar must be an integer")
        return GroupRingElem({r: c * v for r, v in self.coeffs.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join("%d*e(%s)" % (c, r) for r, c in self.items())

    def to_json(self):
        return [{"e": str(r), "c": c} for r, c in self.items()]

    @classmethod
    def from_json(cls, data):
        """Terms {"e": int or "p/q", "c": int}; floats and bools are refused."""
        return cls((QZ(_wire_rational(item["e"])), item["c"]) for item in data)


def gr_sigma(k, x):
    """Scale every group element by k; e(0) stays, nothing is dropped."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("operator index must be a positive integer")
    return GroupRingElem((r * k, c) for r, c in x.coeffs.items())


def gr_rho(k, x):
    """Sum over the k preimages of every group element."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("operator index must be a positive integer")
    return GroupRingElem((p, c) for r, c in x.coeffs.items()
                         for p in preimages(r, k))


def bridge(fs):
    """Transport an arity-1 integer symbol sum into the group ring.

    Sends each one-entry symbol to the corresponding group element.  The
    map intertwines the lift unconditionally and the scaling exactly on
    sums no symbol of which is annihilated; it is not unital, since the
    symbol side has no class at zero.
    """
    if fs.rational:
        raise ValueError("bridge is defined on integer sums")
    if fs.terms and fs.arity != 1:
        raise ValueError("bridge is defined on arity-1 sums")
    return GroupRingElem((s[0], int(c)) for s, c in fs.terms.items())
