"""Finite linear combinations: a dict from key to nonzero coefficient.

The one algebra behind formal sums of symbols, the group ring and the
boundary classes.  A subclass checks each (key, coefficient) pair in
``_pairs`` and builds results of its own kind in ``_like``; it supplies
its own ``items``, ``__repr__`` and ``to_json``.
"""

from itertools import chain


def _collect(pairs):
    """{key: summed coefficient} over the pairs, zero sums dropped."""
    clean = {}
    for k, c in pairs:
        clean[k] = clean.get(k, 0) + c
    if all(clean.values()):
        return clean
    return {k: c for k, c in clean.items() if c}


class LinComb:
    """Built, as a dict is, from a mapping or from (key, coefficient)
    pairs; coefficients of equal keys add and zero terms are dropped.
    Elements add and compare by their terms, only within one class.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        pairs = terms.items() if hasattr(terms, "items") else terms or ()
        self.terms = _collect(self._pairs(pairs))

    def _pairs(self, pairs):
        """The pairs as they enter the sum; raise on a bad one."""
        return pairs

    def _like(self, pairs):
        """An element of this kind built from pairs."""
        return type(self)(pairs)

    @classmethod
    def of(cls, key, c=1):
        return cls({key: c})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._like(chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return self._like((k, -c) for k, c in self.terms.items())

    def __sub__(self, other):
        return self + -other

    def scale(self, c):
        return self._like((k, c * v) for k, v in self.terms.items())

    def __rmul__(self, c):
        return self.scale(c)
