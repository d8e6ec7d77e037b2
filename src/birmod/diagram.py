"""Index diagrams for pair sequences and finite category presentations.

The diagram side builds the index category of a collection of closed
pairs: one vertex per pair and integer degree (plus a weight coordinate
in the equivariant variant), with edges for functoriality, connecting
boundary maps, and the degree-two weight-one twist.  The category side
takes a finite presentation (objects, named morphisms, a partial
composition table, designated identities) and checks the
poset-in-groupoids shape: morphisms within an isomorphism class are
invertible, and the morphisms between two non-isomorphic objects form a
single orbit under pre- and post-composition with endomorphisms.
Collapsing the classes yields a finite order whose edges are flagged as
decomposable or not.  A presentation is indexed once, when it is built:
the checks and the quotient read its hom-sets from that index instead
of rescanning the morphisms.
"""

from collections import namedtuple


class Edge(namedtuple("Edge", "src dst kind")):
    __slots__ = ()

    def to_json(self):
        return {"src": list(self.src), "dst": list(self.dst),
                "kind": self.kind}


class Diagram:
    def __init__(self):
        self.vertices = set()
        self.edges = set()

    def add_vertex(self, v):
        self.vertices.add(tuple(v))

    def add_edge(self, src, dst, kind):
        src, dst = tuple(src), tuple(dst)
        self.vertices.add(src)
        self.vertices.add(dst)
        self.edges.add(Edge(src, dst, kind))

    def vertex_count(self):
        return len(self.vertices)

    def edge_count(self):
        return len(self.edges)

    def edges_of_kind(self, kind):
        return sorted(e for e in self.edges if e.kind == kind)

    def sorted_vertices(self):
        return sorted(self.vertices)

    def to_json(self):
        return {"vertices": [list(v) for v in self.sorted_vertices()],
                "edges": [e.to_json() for e in sorted(self.edges)]}

    def export_dot(self):
        if not self.vertices and not self.edges:
            return "digraph { }"
        lines = ["digraph {"]
        for v in self.sorted_vertices():
            lines.append('  "%s";' % _vname(v))
        for e in sorted(self.edges):
            lines.append('  "%s" -> "%s" [label="%s"];'
                         % (_vname(e.src), _vname(e.dst), e.kind))
        lines.append("}")
        return "\n".join(lines)


def _vname(v):
    return ",".join(str(p) for p in v)


def _json_int(value, what):
    """An int read from JSON, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, not %r" % (what, value))
    return value


def _json_list(value, what):
    """An array read from JSON; a string is not a list of letters."""
    if not isinstance(value, list):
        raise ValueError("%s must be an array, not %r" % (what, value))
    return value


def _int_range(data, key):
    return sorted(_json_int(v, key + " entry") for v in data.get(key, [0]))


def _collect_pairs(data):
    if not isinstance(data, dict):
        raise ValueError("a pairs document must be a JSON object")
    known = (set(_json_list(data["varieties"], "varieties"))
             if "varieties" in data else None)

    def check(label):
        if known is not None and label not in known:
            raise ValueError("undeclared variety label %r" % label)

    pairs = []

    def add(p):
        p = tuple(_json_list(p, "a pair"))
        if len(p) != 2:
            raise ValueError("a pair has exactly two labels")
        for lab in p:
            check(lab)
        if p not in pairs:
            pairs.append(p)

    for p in data.get("pairs", []):
        add(p)
    for lad in data.get("ladders", []):
        if len(_json_list(lad, "a ladder")) != 3:
            raise ValueError("a ladder has exactly three labels")
        add(lad[:2])
        add(lad[1:])
    for mor in data.get("morphisms", []):
        add(mor["from"])
        add(mor["to"])
    for tw in data.get("twists", []):
        add(tw)
    if not pairs:
        raise ValueError("no pairs given")
    return pairs


def build_pairs_diagram(data):
    """Vertices (pair, degree); functoriality and boundary edges.

    A morphism of pairs contributes edges raising the degree by the
    configured shift (default one, zero supported).  A ladder of three
    nested labels contributes the connecting edge from the lower pair in
    degree i to the upper pair in degree i + 1.
    """
    pairs = _collect_pairs(data)
    i_range = _int_range(data, "i_range")
    shift = _json_int(data.get("fstar_shift", 1), "degree shift")
    if shift not in (0, 1):
        raise ValueError("degree shift must be 0 or 1")
    irange = set(i_range)
    dia = Diagram()
    for (x, y) in pairs:
        for i in i_range:
            dia.add_vertex((x, y, i))
    for mor in data.get("morphisms", []):
        x, y = mor["from"]
        x2, y2 = mor["to"]
        for i in i_range:
            if i + shift in irange:
                dia.add_edge((x, y, i), (x2, y2, i + shift), "fstar")
    for lad in data.get("ladders", []):
        x, y, z = lad
        for i in i_range:
            if i + 1 in irange:
                dia.add_edge((y, z, i), (x, y, i + 1), "boundary")
    return dia


def build_equivariant_diagram(data):
    """Weighted variant: vertices (pair, degree, weight).

    Morphisms act contravariantly (an edge from the image pair back to
    the source, same degree and weight); ladders contribute boundary
    edges raising the degree; each declared twist adds one synthesized
    product vertex per grid point, two degrees and one weight up.
    """
    pairs = _collect_pairs(data)
    i_range = _int_range(data, "i_range")
    w_range = _int_range(data, "w_range")
    irange = set(i_range)
    dia = Diagram()
    for (x, y) in pairs:
        for i in i_range:
            for w in w_range:
                dia.add_vertex((x, y, i, w))
    for mor in data.get("morphisms", []):
        x, y = mor["from"]
        x2, y2 = mor["to"]
        for i in i_range:
            for w in w_range:
                dia.add_edge((x2, y2, i, w), (x, y, i, w), "pullback")
    for lad in data.get("ladders", []):
        x, y, z = lad
        for i in i_range:
            if i + 1 in irange:
                for w in w_range:
                    dia.add_edge((y, z, i, w), (x, y, i + 1, w), "boundary")
    for tw in data.get("twists", []):
        x, y = tw
        for i in i_range:
            for w in w_range:
                tx = "%s x P1" % x
                ty = "%s x P1 + %s x 0" % (y, x)
                dia.add_edge((x, y, i, w), (tx, ty, i + 2, w + 1), "twist")
    return dia


class Morphism(namedtuple("Morphism", "name src dst invertible",
                          defaults=(False,))):
    __slots__ = ()


def _iso_flag(m):
    """A morphism's ``iso`` flag: a JSON boolean, false when absent."""
    iso = m.get("iso", False)
    if not isinstance(iso, bool):
        raise ValueError("iso of morphism %r must be true or false, not %r"
                         % (m["name"], iso))
    return iso


class CatPresentation:
    """Finite category presentation with a partial composition table.

    Every object designates an identity; the table is validated for
    typing, unit behavior, and associativity wherever all the needed
    composites are declared.  It is then indexed once: ``homs`` maps each
    nonempty hom-set's ``(src, dst)`` to its sorted tuple of names, with
    keys in object order (by source position, then target position).
    """

    def __init__(self, objects, morphisms, compose, identities):
        self.objects = list(objects)
        position = {x: i for i, x in enumerate(self.objects)}
        if len(position) != len(self.objects):
            raise ValueError("object names must be distinct")
        self.morphisms = {}
        for m in morphisms:
            if m.name in self.morphisms:
                raise ValueError("two morphisms named %r" % m.name)
            if m.src not in position or m.dst not in position:
                raise ValueError("morphism %r endpoints unknown" % m.name)
            self.morphisms[m.name] = m
        self.identities = dict(identities)
        for obj in self.objects:
            name = self.identities.get(obj)
            m = self.morphisms.get(name) if name else None
            if m is None or m.src != obj or m.dst != obj or not m.invertible:
                raise ValueError("object %r lacks a designated identity"
                                 % obj)
        self.compose = {}
        for f, g, h in compose:
            for name in (f, g, h):
                if name not in self.morphisms:
                    raise ValueError("unknown morphism %r in composition"
                                     % name)
            mf, mg, mh = (self.morphisms[n] for n in (f, g, h))
            if mf.dst != mg.src:
                raise ValueError("composition %s then %s undefined" % (f, g))
            if (mh.src, mh.dst) != (mf.src, mg.dst):
                raise ValueError("composite %s has wrong endpoints" % h)
            if (f, g) in self.compose and self.compose[(f, g)] != h:
                raise ValueError("conflicting composites for (%s, %s)"
                                 % (f, g))
            self.compose[(f, g)] = h
        for name, m in self.morphisms.items():
            for key, want in (((self.identities[m.src], name), name),
                              ((name, self.identities[m.dst]), name)):
                if self.compose.get(key, want) != want:
                    raise ValueError("identity composite for %r is wrong"
                                     % name)
                self.compose[key] = want
        by_first = {}
        for (g, h), v in self.compose.items():
            by_first.setdefault(g, []).append((h, v))
        for (f, g), u in self.compose.items():
            for h, v in by_first.get(g, ()):
                left = self.compose.get((u, h))
                right = self.compose.get((f, v))
                if left is not None and right is not None and left != right:
                    raise ValueError(
                        "associativity breaks on (%s, %s, %s)" % (f, g, h))
        homs = {}
        for m in self.morphisms.values():
            homs.setdefault((position[m.src], position[m.dst]),
                            []).append(m.name)
        self.homs = {(self.objects[a], self.objects[b]): tuple(sorted(names))
                     for (a, b), names in sorted(homs.items())}

    @classmethod
    def from_json(cls, data):
        """Read a presentation: ``morphisms`` an array of objects,
        ``compose`` an array of arrays, ``identities`` an object (never an
        array of pairs) and ``objects`` an array.
        """
        if not isinstance(data, dict):
            raise ValueError("a category is a JSON object")
        raw = _json_list(data["morphisms"], "morphisms")
        if not all(isinstance(m, dict) for m in raw):
            raise ValueError("morphisms must be an array of objects")
        compose = _json_list(data.get("compose", []), "compose")
        if not all(isinstance(t, list) for t in compose):
            raise ValueError("compose must be an array of arrays")
        identities = data.get("identities", {})
        if not isinstance(identities, dict):
            raise ValueError("identities must be an object, not %r"
                             % (identities,))
        morphisms = [Morphism(m["name"], m["src"], m["dst"], _iso_flag(m))
                     for m in raw]
        return cls(_json_list(data["objects"], "objects"), morphisms,
                   [tuple(t) for t in compose], identities)

    def hom(self, src_obj, dst_obj):
        return list(self.homs.get((src_obj, dst_obj), ()))

    def class_index(self):
        """Isomorphism classes (by least name) and each object's index."""
        parent = {x: x for x in self.objects}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for m in self.morphisms.values():
            if m.invertible:
                a, b = find(m.src), find(m.dst)
                if a != b:
                    parent[max(a, b)] = min(a, b)
        roots = {}
        for x in self.objects:
            roots.setdefault(find(x), []).append(x)
        classes = [sorted(v) for _, v in sorted(roots.items())]
        return classes, {x: idx for idx, cls_objs in enumerate(classes)
                         for x in cls_objs}

    def iso_classes(self):
        return self.class_index()[0]


class PosetCheckResult:
    def __init__(self, ok, classes, not_invertible, orbit_witnesses, thin):
        self.ok, self.classes, self.thin = ok, classes, thin
        self.not_invertible = not_invertible
        self.orbit_witnesses = orbit_witnesses

    def to_json(self):
        return {"ok": self.ok, "classes": self.classes,
                "not_invertible": self.not_invertible,
                "orbit_witnesses": [list(w) for w in self.orbit_witnesses],
                "thin": self.thin}


def check_poset_in_groupoids(cat):
    """Isomorphism-class shape check for a finite presentation.

    Two conditions: every morphism between objects of one class is
    invertible, and for each ordered pair of non-isomorphic objects with
    morphisms between them, pre- and post-composition with endomorphisms
    (through the declared table) acts transitively on them.  Thinness is
    reported but not required.
    """
    classes, of = cat.class_index()
    not_invertible = sorted(
        m.name for m in cat.morphisms.values()
        if of[m.src] == of[m.dst] and not m.invertible)
    orbit_witnesses = []
    for (x, y), hom in cat.homs.items():
        if of[x] == of[y] or len(hom) < 2:
            continue
        ends_x, ends_y = cat.hom(x, x), cat.hom(y, y)
        orbit = {hom[0]}
        frontier = [hom[0]]
        while frontier:
            f = frontier.pop()
            moved = [cat.compose.get((e, f)) for e in ends_x]
            moved += [cat.compose.get((f, e)) for e in ends_y]
            for g in moved:
                if g is not None and g not in orbit:
                    orbit.add(g)
                    frontier.append(g)
        for g in hom:
            if g not in orbit:
                orbit_witnesses.append((hom[0], g))
                break
    thin = all(len(h) <= 1 for h in cat.homs.values())
    ok = not not_invertible and not orbit_witnesses
    return PosetCheckResult(ok, classes, not_invertible,
                            orbit_witnesses, thin)


class QuotientResult:
    def __init__(self, classes, edges, longest_paths, top_classes, unique_top,
                 has_cycle):
        self.classes, self.edges, self.longest_paths = \
            classes, edges, longest_paths
        self.top_classes, self.unique_top, self.has_cycle = \
            top_classes, unique_top, has_cycle

    def to_json(self):
        return {"classes": self.classes, "edges": self.edges,
                "longest_paths": self.longest_paths,
                "top_classes": self.top_classes,
                "unique_top": self.unique_top,
                "has_cycle": self.has_cycle}

    def to_diagram(self):
        dia = Diagram()
        for c in self.classes:
            dia.add_vertex((c[0],))
        for e in self.edges:
            dia.add_edge((e["src"],), (e["dst"],), "orbit")
        return dia


def quotient_T(cat):
    """Collapse isomorphism classes to a finite directed order.

    Edges join distinct classes carrying at least one morphism; an edge
    is decomposable when it factors through a third class along quotient
    edges.  Longest downward paths are computed and the top verdict holds
    when exactly one class starts a maximal-length path.
    """
    classes, of = cat.class_index()
    reps = [c[0] for c in classes]
    arrows = {(of[x], of[y]) for x, y in cat.homs if of[x] != of[y]}
    succ = [[] for _ in classes]
    for a, b in sorted(arrows):
        succ[a].append(b)
    edges = []
    for a, out in enumerate(succ):
        for b in out:
            via = [reps[c] for c in out if c != b and (c, b) in arrows]
            edges.append({"src": reps[a], "dst": reps[b],
                          "decomposable": bool(via), "via": via})
    # longest downward path out of each class, DAG only; a topological
    # order (Kahn) covers every class exactly when there is no cycle
    indegree = [0] * len(classes)
    for a, b in arrows:
        indegree[b] += 1
    order = [u for u, d in enumerate(indegree) if not d]
    for u in order:
        for b in succ[u]:
            indegree[b] -= 1
            if not indegree[b]:
                order.append(b)
    has_cycle = len(order) < len(classes)
    longest = [0] * len(classes)
    if not has_cycle:
        for u in reversed(order):
            longest[u] = max((1 + longest[b] for b in succ[u]), default=0)
    peak = max(longest, default=0)
    tops = sorted(reps[u] for u, d in enumerate(longest) if d == peak)
    return QuotientResult([list(c) for c in classes], edges,
                          {reps[u]: d for u, d in enumerate(longest)},
                          tops, len(tops) == 1, has_cycle)
