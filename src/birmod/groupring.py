"""Integral group ring of the rationals mod one, with the operator pair.

Elements are finite integer combinations of group elements e(r).  Scaling
acts by e(r) -> e(k*r) and keeps e(0); the lift sums over the k-fold
preimages.  Their composite one way is multiplication by k, the other way
the sum over torsion shifts, with no exceptional cases: the contrast with
the symbol module, where the all-zero class is projected away, is the
point of carrying this model alongside.
"""

from .lincomb import LinComb
from .qz import QZ, _check_k, preimages
from .symbols import _wire_rational


class GroupRingElem(LinComb):
    """Finite integer combination of group elements of Q/Z."""

    __slots__ = ()

    def _pairs(self, pairs):
        for r, c in pairs:
            if not isinstance(r, QZ):
                raise ValueError("group element must be a QZ value")
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError("coefficients must be integers")
            yield r, c

    def items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
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
    _check_k(k)
    return GroupRingElem((r * k, c) for r, c in x.terms.items())


def gr_rho(k, x):
    """Sum over the k preimages of every group element."""
    _check_k(k)
    return GroupRingElem((p, c) for r, c in x.terms.items()
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
    return GroupRingElem((QZ(t[0], M), int(c))
                         for (M, t), c in fs.terms.items())
