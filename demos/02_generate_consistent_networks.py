#!/usr/bin/env python3
"""Sample interval networks from a generative model and verify consistency.

Builds a small model by hand, draws networks of varying size, and
realizes concrete timestamps for each.  The sampled network stores a relation
only on structure links; every other pair is pinned down just to a constraint
set implied by composition.  The checks below confirm that the realized
timeline (a) reproduces each sampled link relation exactly and (b) stays
inside the implied constraint on every non-link pair, and that the complete
rebuilt network passes the path-closure consistency test.
"""

import numpy as np

from ibgn import (
    ClassModel,
    FULL_SET,
    RelationSet,
    StructureMask,
    check_consistency,
    compute_constraint,
    instance_to_network,
    realize_timestamps,
    resolution_order,
    sample_network,
)


def build_model(k_star: int = 5) -> ClassModel:
    """One latent table per possible node, alternating between two action menus, chain structure."""
    vocab = ("whisk", "fold", "bake", "glaze")
    menus = ([0.45, 0.45, 0.05, 0.05], [0.05, 0.05, 0.45, 0.45])
    theta = np.array([menus[z % 2] for z in range(k_star)])
    # Direct-link relation preferences, keyed by the two actions (vocabulary
    # ids 1..4): a link between actions of one menu prefers meets, a link
    # across the menus prefers overlaps.  Distributions are defined on the
    # unconstrained class; generation intersects with whatever constraint
    # the already-sampled relations impose and renormalizes.
    phi = {}
    for i in range(1, len(vocab) + 1):
        for j in range(1, len(vocab) + 1):
            weights = np.full(7, 0.06)
            weights[1 if (i <= 2) == (j <= 2) else 2] = 0.64
            phi[(i, j, FULL_SET.bits)] = weights
    return ClassModel(
        k_star=k_star,
        ell=k_star,
        alpha=np.ones(k_star),
        beta=np.full((k_star, len(vocab)), 0.5),
        theta=theta,
        structure=StructureMask.chain(k_star),
        phi=phi,
        action_vocab=vocab,
        size_histogram={3: 2, 4: 3, 5: 1},
    )


def implied_constraints(network):
    """Constraint matrix the sampler worked under: singletons on links,
    composed constraint sets everywhere else (nodes are 0-based).  Resolution
    order computes every pair inside a pair's span before the pair itself."""
    x = {}
    for pair in resolution_order(0, network.size - 1):
        relation = network.relations.get(pair)
        x[pair] = compute_constraint(x, *pair) if relation is None else RelationSet.of(relation)
    return x


def main() -> None:
    model = build_model()
    rng = np.random.default_rng(7)

    print("== Ten sampled instances ==")
    for trial in range(10):
        size = int(rng.choice([3, 4, 5]))
        network = sample_network(model, size, rng)

        instance = realize_timestamps(network, label="demo")
        rebuilt = instance_to_network(instance)
        assert check_consistency(rebuilt).consistent

        x = implied_constraints(network)
        for (p, n), constraint in x.items():
            realized = rebuilt.relation(p, n)
            sampled = network.relations.get((p, n))
            if sampled is not None:
                assert realized == sampled  # link relations are exact
            assert realized in constraint.members  # all pairs stay legal

        names = model.action_vocab
        timeline = ", ".join(
            f"{names[iv.action - 1]}[{iv.start:g},{iv.end:g}]"
            for iv in instance.intervals
        )
        links = " ".join(
            f"{p}{network.relations[(p, n)].symbol}{n}"
            for (p, n) in sorted(network.relations)
        )
        print(f"  #{trial}: size {size}  sampled links: {links}")
        print(f"      timeline: {timeline}")

    print()
    print("All sampled networks realized consistently: link relations exact,")
    print("every other pair inside its composed constraint set.")


if __name__ == "__main__":
    main()
