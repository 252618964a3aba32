"""Hypothesis strategies shared by the property tests."""

import json

from hypothesis import strategies as st

from hpcc import GeneratorParams, generate, graph_from_json
from reference import ladder_module

DENSITIES = (0.0, 0.3, 0.7, 1.0)


def instances(min_n=4, max_n=9, densities=DENSITIES, max_seed=5000):
    """Random embedded instances via the seeded generator."""
    return st.builds(
        lambda n, d, seed: generate(GeneratorParams(n=n, chord_density=d, seed=seed)),
        st.integers(min_value=min_n, max_value=max_n),
        st.sampled_from(densities),
        st.integers(min_value=0, max_value=max_seed),
    )


def three_kind_ladders(min_rhombi=8, max_rhombi=40):
    """Benchmark ladders holding shared-vertex, shared-edge and gap
    junctions."""
    def build(rhombi, seed):
        lad = ladder_module().ladder(rhombi, seed)
        return graph_from_json(json.dumps(lad.doc)) \
            if all(lad.junctions.values()) else None
    return st.builds(build, st.integers(min_rhombi, max_rhombi),
                     st.integers(0, 10**6)).filter(lambda g: g is not None)
