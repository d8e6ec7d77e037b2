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
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class BurnGen:
    """One generator: a source composite over a target label.

    The source is a base label times an affine factor, spelled once as
    ``composite`` when the generator is made.  Two generators are the same
    iff their composite labels, targets, and total source dimensions agree;
    the composite is compared as spelled, so "E x A^1" with one more affine
    factor is not "E" with two.
    """
    source: str = field(compare=False)
    affine: int = field(compare=False)
    target: str
    dim: int
    composite: str = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "composite", self.source if self.affine == 0
                           else "%s x A^%d" % (self.source, self.affine))

    def to_json(self):
        return {"source": self.composite, "target": self.target,
                "dim": self.dim}


class BurnElem(LinComb):
    """Integer combination of generators."""

    __slots__ = ()

    def items(self):
        return sorted(self.terms.items(),
                      key=lambda gc: (gc[0].dim, gc[0].composite,
                                      gc[0].target))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for g, c in self.items():
            bits.append("%+d [%s -> %s]" % (c, g.composite, g.target))
        return " ".join(bits)

    def to_json(self):
        return [{"c": c, **g.to_json()} for g, c in self.items()]


@dataclass
class Stratum:
    name: str
    dim: int


@dataclass
class Model:
    """Combinatorial normal-crossings model."""
    dim: int
    labels: list
    strata: dict
    name: str = "X"
    boundary_target: str = None

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("component labels must be distinct")
        if self.boundary_target is None:
            self.boundary_target = self.name
        n = len(self.labels)
        self.strata = dict(self.strata)  # the caller's dict stays as given
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
    labels = list(data["labels"])
    dim = dim_from_json(data["dim"])
    strata = {}
    for key, st in raw.items():
        idx = frozenset(int(p) for p in str(key).split(","))
        d = dim_from_json(st["dim"]) if "dim" in st else dim - len(idx)
        strata[idx] = Stratum(str(st["name"]), d)
    return Model(dim=dim, labels=labels, strata=strata,
                 name=str(data.get("name", "X")),
                 boundary_target=data.get("boundary"))


def edges_from_json(data):
    """Read a tower edge map: labels to generator objects or null."""
    if not isinstance(data, dict):
        raise ValueError("an edge map must be a JSON object")
    return {label: None if g is None else BurnGen(
                *parse_composite(str(g["source"])), str(g["target"]),
                dim_from_json(g["dim"]))
            for label, g in data.items()}


def boundary_snc(model, target=None):
    """Signed sum of stratum-times-affine classes over the target label."""
    if target is None:
        target = model.boundary_target
    depths = ((len(key), st) for key, st in model.strata.items())
    return BurnElem((BurnGen(st.name, t - 1, target, st.dim + t - 1),
                     (-1) ** (t - 1)) for t, st in depths)


def check_grading(elem, expected_dim):
    """Generators whose total source dimension is off the expected grade."""
    return [g for g, _ in elem.items() if g.dim != expected_dim]


class RewriteRules:
    """Whole-label rewriting, applied to a fixpoint.

    The rule set is functional (one replacement per label) and must be
    acyclic; a rewritten label may carry explicit affine factors, which
    fold into the exponent of the generator it appears in.
    """

    def __init__(self, rules):
        self.rules = {}
        for src, dst in rules:
            if src in self.rules:
                raise ValueError("two rules for label %r" % src)
            self.rules[src] = dst
        for src in self.rules:
            seen = {src}
            cur = src
            while cur in self.rules:
                cur = self.rules[cur]
                if cur in seen:
                    raise ValueError("rewrite cycle through %r" % src)
                seen.add(cur)

    @classmethod
    def from_json(cls, data):
        """Rules from a JSON array of {"from": label, "to": label} objects."""
        if not (isinstance(data, list)
                and all(isinstance(item, dict) for item in data)):
            raise ValueError("rewrite rules must be an array of objects")
        return cls([(item["from"], item["to"]) for item in data])

    def apply(self, label):
        while label in self.rules:
            label = self.rules[label]
        return label

    def apply_gen(self, gen):
        base, extra = parse_composite(self.apply(gen.source))
        return BurnGen(base, gen.affine + extra, self.apply(gen.target),
                       gen.dim)

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
        """Relabel sources and targets of a boundary class."""
        return BurnElem((BurnGen(self.perm.get(g.source, g.source), g.affine,
                                 self.perm.get(g.target, g.target), g.dim), c)
                        for g, c in elem.terms.items())


@dataclass
class TowerResult:
    ok: bool
    transported: BurnElem
    expected: BurnElem
    unmapped: list = field(default_factory=list)

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
