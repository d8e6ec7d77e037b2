"""Shared builders for the test suite.

Under ``CI`` (set by GitHub Actions) hypothesis runs the ``ci`` profile:
derandomized, so a red CI run replays exactly.  Local runs keep random
exploration.
"""

import os
from itertools import combinations

import hypothesis

from birmod import CatPresentation, Model, Morphism, Stratum

hypothesis.settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    hypothesis.settings.load_profile("ci")


def random_snc_model(rng, max_labels=4, max_dim=6):
    """A random combinatorial normal-crossings model.

    Singleton strata come from the labels; deeper strata are a random
    subset of the index sets that still have nonnegative dimension.
    """
    d = rng.randint(1, max_dim)
    nlab = rng.randint(1, max_labels)
    labels = ["D%d" % i for i in range(1, nlab + 1)]
    strata = {}
    for r in range(2, min(nlab, d) + 1):
        for key in combinations(range(1, nlab + 1), r):
            if rng.random() < 0.5:
                name = "cap_" + "".join(str(i) for i in key)
                strata[frozenset(key)] = Stratum(name, d - r)
    return Model(d, labels, strata, name="X%d" % rng.randint(0, 999))


def chain_category():
    """The poset x <= y <= z as a presentation."""
    ms = [Morphism("ix", "x", "x", True), Morphism("iy", "y", "y", True),
          Morphism("iz", "z", "z", True), Morphism("f", "x", "y"),
          Morphism("g", "y", "z"), Morphism("h", "x", "z")]
    return CatPresentation(["x", "y", "z"], ms, [("f", "g", "h")],
                           {"x": "ix", "y": "iy", "z": "iz"})


def group_category():
    """Z/2 as a one-object category, every morphism invertible."""
    ms = [Morphism("e", "o", "o", True), Morphism("a", "o", "o", True)]
    return CatPresentation(["o"], ms, [("a", "a", "e")], {"o": "e"})


def parallel_category():
    """Two parallel arrows, nothing to move one onto the other."""
    ms = [Morphism("ix", "x", "x", True), Morphism("iy", "y", "y", True),
          Morphism("f", "x", "y"), Morphism("g", "x", "y")]
    return CatPresentation(["x", "y"], ms, [], {"x": "ix", "y": "iy"})
