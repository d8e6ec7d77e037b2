"""Exact arithmetic in Q/Z.

Elements are reduced fractions num/den with 0 <= num < den, so the zero
class is 0/1.  No floating point anywhere: a float argument or operand is
refused with TypeError.  Everything is stdlib Fraction underneath.
"""

from fractions import Fraction


class QZ(Fraction):
    """An element of Q/Z, stored as the reduced representative in [0, 1).

    The group law is available through the usual operators: ``a + b``,
    ``a - b`` and ``-a`` wrap modulo 1, and ``k * a`` (integer k) is the
    image under multiplication by k.  Ordering and hashing agree with
    Fraction, so elements sort by their representative in [0, 1).
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("QZ takes no float arguments")
        if denominator is None:
            value = Fraction(numerator)
        else:
            value = Fraction(numerator, denominator)
        value %= 1
        return Fraction.__new__(cls, value)

    @property
    def order(self):
        """Order of the element in Q/Z, i.e. its reduced denominator."""
        return self.denominator

    def __add__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QZ(Fraction.__add__(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QZ(Fraction.__sub__(self, other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QZ(Fraction.__rsub__(self, other))

    def __neg__(self):
        return QZ(Fraction.__neg__(self))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return QZ(Fraction.__mul__(self, k))

    __rmul__ = __mul__

    def __str__(self):
        if self.numerator == 0:
            return "0"
        return "%d/%d" % (self.numerator, self.denominator)

    def __repr__(self):
        return "QZ(%s)" % self


def qz(text):
    """Parse "p/q" (or "p") into a QZ element."""
    return QZ(Fraction(text))


def preimages(a, k):
    """The k solutions b of k*b = a, in ascending order.

    Solutions are (num + j*den)/(k*den) for j = 0..k-1, each reduced; they
    are pairwise distinct and already ascending.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    a = QZ(a)
    return tuple(QZ(a.numerator + j * a.denominator, k * a.denominator)
                 for j in range(k))


def torsion(k):
    """All k-torsion points of Q/Z (the k solutions of k*b = 0), ascending."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    return tuple(QZ(j, k) for j in range(k))
