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
        value = Fraction(numerator, denominator)
        return Fraction.__new__(cls, value.numerator % value.denominator,
                                value.denominator)

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


def _check_k(k):
    """Refuse k unless it is a positive int; a bool is not taken as 0 or 1."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("k must be a positive integer")


def preimages(a, k):
    """The k solutions b of k*b = a, in ascending order.

    Solutions are (num + j*den)/(k*den) for j = 0..k-1, each reduced; they
    are pairwise distinct and already ascending.
    """
    _check_k(k)
    a = QZ(a)
    return tuple(QZ(a.numerator + j * a.denominator, k * a.denominator)
                 for j in range(k))


def torsion(k):
    """All k-torsion points of Q/Z (the k solutions of k*b = 0), ascending."""
    _check_k(k)
    return tuple(QZ(j, k) for j in range(k))
