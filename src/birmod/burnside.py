"""Boundary calculus on combinatorial normal-crossings models.

A model records the ambient dimension, the labels of the boundary
components, and the nonempty closed strata (one per subset of components
that actually meet), each with a name and a dimension.  The boundary
class of the model is the signed sum, over nonempty subsets T of
components with nonempty stratum, of the class of that stratum times an
affine factor of exponent |T| - 1, mapping to a fixed target label; the
sign is + for odd |T| and - for even |T|.  Every summand then has total
source dimension one below the ambient one, which is the grading check.

Identifications between strata of different models (an exceptional curve
with a line over a point, say) are declared as whole-label rewrite rules;
rewriting may produce labels carrying explicit affine factors, which are
folded into the exponent so that syntactic equality of composites is
equality of the declared classes.
"""

import re
from operator import attrgetter

from .lincomb import LinComb


_AFFINE_SUFFIX = re.compile(r"^(.*) x A\^(\d+)$")


def parse_composite(label):
    """Split trailing affine factors off a label: base, total exponent."""
    affine = 0
    while True:
        m = _AFFINE_SUFFIX.match(label)
        if not m:
            return label, affine
        label = m.group(1)
        affine += int(m.group(2))


class BurnGen:
    """One generator: a source composite over a target label.

    The source is a base label times an affine factor, spelled once as
    ``composite`` when the generator is made.  Two generators are the same
    iff their composite labels, targets, and total source dimensions agree;
    the composite is compared as spelled, so "E x A^1" with one more affine
    factor is not "E" with two.  That identity and its hash are computed
    once, and every field is read-only.
    """

    __slots__ = ("_source", "_affine", "_composite", "_target", "_dim",
                 "_id", "_hash")

    def __init__(self, source, affine, target, dim):
        self._source, self._affine, self._target, self._dim = (
            source, affine, target, dim)
        self._composite = composite = (
            source if affine == 0 else "%s x A^%d" % (source, affine))
        self._id = key = (composite, target, dim)
        self._hash = hash(key)

    source = property(attrgetter("_source"))
    affine = property(attrgetter("_affine"))
    composite = property(attrgetter("_composite"))
    target = property(attrgetter("_target"))
    dim = property(attrgetter("_dim"))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, BurnGen):
            return NotImplemented
        return self._id == other._id

    def __repr__(self):
        return "BurnGen(source=%r, affine=%r, target=%r, dim=%r)" % (
            self._source, self._affine, self._target, self._dim)

    def to_json(self):
        return {"source": self._composite, "target": self._target,
                "dim": self._dim}


# generators are listed by dimension, composite, then target
_order = attrgetter("dim", "composite", "target")


class BurnElem(LinComb):
    """Integer combination of generators."""

    __slots__ = ()

    def items(self):
        return sorted(self.terms.items(), key=lambda gc: _order(gc[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for g, c in self.items():
            bits.append("%+d [%s -> %s]" % (c, g.composite, g.target))
        return " ".join(bits)

    def to_json(self):
        return [{"c": c, **g.to_json()} for g, c in self.items()]


class Stratum:
    def __init__(self, name, dim):
        self.name, self.dim = name, dim

    def __eq__(self, other):
        if not isinstance(other, Stratum):
            return NotImplemented
        return (self.name, self.dim) == (other.name, other.dim)


class Model:
    """Combinatorial normal-crossings model."""

    def __init__(self, dim, labels, strata, name="X", boundary_target=None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if len(set(labels)) != len(labels):
            raise ValueError("component labels must be distinct")
        self.dim, self.labels, self.name = dim, labels, name
        self.boundary_target = (name if boundary_target is None
                                else boundary_target)
        self.strata = dict(strata)  # the caller's dict stays as given
        n = len(self.labels)
        for key, st in self.strata.items():
            if not key or not all(1 <= i <= n for i in key):
                raise ValueError("bad stratum index set %r" % (set(key),))
            # normal crossings: a depth-|T| stratum has codimension |T|
            if st.dim != self.dim - len(key):
                raise ValueError(
                    "stratum %s breaks the normal crossings dimension rule"
                    % st.name)
        # every component is itself a depth-1 stratum
        for i, lab in enumerate(self.labels, start=1):
            self.strata.setdefault(frozenset([i]),
                                   Stratum(lab, self.dim - 1))


def _string(value, what):
    """A label or name read from JSON: a string, never coerced to one."""
    if not isinstance(value, str):
        raise ValueError("%s must be a string, not %r" % (what, value))
    return value


def dim_from_json(value):
    """A dimension read from JSON: an int, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("dimension must be an integer, not %r" % (value,))
    return value


def model_from_json(data):
    """Read a model: an object, ``labels`` an array, ``strata`` an object
    of objects (a string is never read as a list of letters).
    """
    if not isinstance(data, dict) or not isinstance(data["labels"], list):
        raise ValueError("a model is an object with a labels array")
    raw = data.get("strata", {})
    if not (isinstance(raw, dict)
            and all(isinstance(st, dict) for st in raw.values())):
        raise ValueError("model strata must be an object of objects")
    labels = [_string(lab, "a label") for lab in data["labels"]]
    dim = dim_from_json(data["dim"])
    strata = {}
    for key, st in raw.items():
        parts = [int(p) for p in str(key).split(",")]
        idx = frozenset(parts)
        if len(idx) < len(parts) or idx in strata:
            raise ValueError("stratum %r repeats an index or an index set"
                             % key)
        d = dim_from_json(st["dim"]) if "dim" in st else dim - len(idx)
        strata[idx] = Stratum(_string(st["name"], "a stratum name"), d)
    name = _string(data.get("name", "X"), "the model name")
    return Model(dim=dim, labels=labels, strata=strata, name=name,
                 boundary_target=_string(data.get("boundary", name),
                                         "the boundary target"))


def edges_from_json(data):
    """Read a tower edge map: labels to generator objects or null."""
    if not isinstance(data, dict):
        raise ValueError("an edge map must be a JSON object")
    return {label: None if g is None else BurnGen(
                *parse_composite(_string(g["source"], "an edge source")),
                _string(g["target"], "an edge target"),
                dim_from_json(g["dim"]))
            for label, g in data.items()}


def _relabel_from_json(data):
    """Read a target relabeling: an object from labels to labels."""
    if not isinstance(data, dict):
        raise ValueError("a target relabeling must be a JSON object")
    return {label: _string(target, "a relabeled target")
            for label, target in data.items()}


def boundary_snc(model, target=None):
    """Signed sum of stratum-times-affine classes over the target label."""
    if target is None:
        target = model.boundary_target
    depths = ((len(key), st) for key, st in model.strata.items())
    return BurnElem((BurnGen(st.name, t - 1, target, st.dim + t - 1),
                     (-1) ** (t - 1)) for t, st in depths)


def check_grading(elem, expected_dim):
    """Generators whose total source dimension is off the expected grade."""
    return sorted((g for g in elem.terms if g.dim != expected_dim),
                  key=_order)


class RewriteRules:
    """Whole-label rewriting, applied to a fixpoint.

    The rule set is functional (one replacement per label) and must be
    acyclic; a rewritten label may carry explicit affine factors, which
    fold into the exponent of the generator it appears in.
    """

    def __init__(self, rules):
        step = {}
        for src, dst in rules:
            if src in step:
                raise ValueError("two rules for label %r" % src)
            step[src] = dst
        # each chain of rules is walked once, to check it for a cycle, and
        # its end kept: a rewrite is then one lookup
        self.rules = {}
        for src in step:
            seen = {src}
            cur = src
            while cur in step:
                cur = step[cur]
                if cur in seen:
                    raise ValueError("rewrite cycle through %r" % src)
                seen.add(cur)
            self.rules[src] = cur
        self._sources = {}  # source label -> parse_composite of its rewrite

    @classmethod
    def from_json(cls, data):
        """Rules from a JSON array of {"from": label, "to": label} objects."""
        if not (isinstance(data, list)
                and all(isinstance(item, dict) for item in data)):
            raise ValueError("rewrite rules must be an array of objects")
        return cls([(_string(item["from"], "a rule source"),
                     _string(item["to"], "a rule target")) for item in data])

    def apply(self, label):
        return self.rules.get(label, label)

    def apply_gen(self, gen):
        source = gen.source
        parsed = self._sources.get(source)
        if parsed is None:
            parsed = self._sources[source] = parse_composite(
                self.apply(source))
        base, extra = parsed
        target = self.apply(gen.target)
        if base == source and not extra and target == gen.target:
            return gen
        return BurnGen(base, gen.affine + extra, target, gen.dim)

    def apply_elem(self, elem):
        return BurnElem((self.apply_gen(g), c) for g, c in elem.terms.items())


def pushforward(elem, relabel, rules=None):
    """Compose every generator with a map given by target relabeling.

    The relabeling must cover every target in the class; source labels
    are then normalized through the rewrite rules and like generators
    merge.
    """
    for g in elem.terms:
        if g.target not in relabel:
            raise ValueError("target label %r is not mapped" % g.target)
    res = BurnElem((BurnGen(g.source, g.affine, relabel[g.target], g.dim), c)
                   for g, c in elem.terms.items())
    if rules is not None:
        res = rules.apply_elem(res)
    return res


class CyclicAction:
    """Cyclic group action on labels: a permutation with pi**level == id."""

    def __init__(self, level, perm):
        if not isinstance(level, int) or level < 1:
            raise ValueError("level must be a positive integer")
        if set(perm.keys()) != set(perm.values()):
            raise ValueError("label map is not a permutation")
        self.level = level
        self.perm = dict(perm)
        if self._power(level) != {x: x for x in perm}:
            raise ValueError("permutation order does not divide the level")

    def __eq__(self, other):
        if not isinstance(other, CyclicAction):
            return NotImplemented
        return self.level == other.level and self.perm == other.perm

    def __repr__(self):
        return "CyclicAction(level=%d, size=%d)" % (self.level, len(self.perm))

    def _power(self, n):
        cur = {x: x for x in self.perm}
        for _ in range(n):
            cur = {x: self.perm[y] for x, y in cur.items()}
        return cur

    def order(self):
        cur = dict(self.perm)
        n = 1
        while any(cur[x] != x for x in cur):
            cur = {x: self.perm[y] for x, y in cur.items()}
            n += 1
        return n

    def twist(self, n):
        """The same level acting through the n-th power."""
        if not isinstance(n, int) or n < 1:
            raise ValueError("twist exponent must be a positive integer")
        return CyclicAction(self.level, self._power(n))

    def versch(self, n):
        """Cycle n labeled copies, applying the action once per round trip.

        Copies are labeled x@0 .. x@n-1; the copy index advances and the
        underlying action fires on wraparound, so the level multiplies
        by n.  One copy changes nothing.
        """
        if not isinstance(n, int) or n < 1:
            raise ValueError("copy count must be a positive integer")
        if n == 1:
            return CyclicAction(self.level, self.perm)
        perm = {}
        for x in self.perm:
            for i in range(n - 1):
                perm["%s@%d" % (x, i)] = "%s@%d" % (x, i + 1)
            perm["%s@%d" % (x, n - 1)] = "%s@0" % self.perm[x]
        return CyclicAction(self.level * n, perm)

    def act(self, elem):
        """Relabel sources and targets of a boundary class; a generator
        whose labels the action does not mention is kept as it is."""
        perm = self.perm
        return BurnElem(
            (g if g.source not in perm and g.target not in perm
             else BurnGen(perm.get(g.source, g.source), g.affine,
                          perm.get(g.target, g.target), g.dim), c)
            for g, c in elem.terms.items())


class TowerResult:
    def __init__(self, ok, transported, expected, unmapped=None):
        self.ok, self.transported, self.expected = ok, transported, expected
        self.unmapped = [] if unmapped is None else unmapped

    def to_json(self):
        return {"ok": self.ok, "transported": self.transported.to_json(),
                "expected": self.expected.to_json(),
                "unmapped": list(self.unmapped)}


def tower_boundary_check(model_xy, model_yz, edge_map, rules=None):
    """Compare the transported boundary of the big model with the small one.

    The small model must sit one dimension below the big one.  Each
    boundary generator of the big model is sent through the declared edge
    map (composite label to replacement class, None meaning it dies); the
    signed sum of images must equal the boundary class of the small
    model, after rewriting both sides.  Composites the edge map does not
    mention are reported and fail the check.
    """
    if model_yz.dim != model_xy.dim - 1:
        raise ValueError("tower steps must drop dimension by one")
    big = boundary_snc(model_xy)
    if rules is not None:
        big = rules.apply_elem(big)
    images, unmapped = [], []
    for g, c in big.items():
        if g.composite not in edge_map:
            unmapped.append(g.composite)
            continue
        image = edge_map[g.composite]
        if isinstance(image, BurnGen):
            images.append((image, c))
        elif image is not None:
            images.extend((h, c * d) for h, d in image.terms.items())
    transported = BurnElem(images)
    expected = boundary_snc(model_yz)
    if rules is not None:
        transported = rules.apply_elem(transported)
        expected = rules.apply_elem(expected)
    ok = not unmapped and transported == expected
    return TowerResult(ok, transported, expected, unmapped)
