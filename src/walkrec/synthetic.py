"""Block-structured synthetic interaction generator for desk-scale experiments.

Users and items are partitioned into aligned groups; candidate purchases
appear with probability p_in inside a user's own group and p_out outside,
and each user keeps a uniform subsample of its candidates.  Subsample
sizes follow a two-point mixture: most users are light buyers and a small
fraction are heavy buyers, mimicking the skewed purchase frequencies of
real logs.  The heavy tail is what keeps the graph connected when the
training set is sparsified, so transitive user-item evidence stays
measurable exactly where direct evidence runs out.
"""

from dataclasses import dataclass

import numpy as np

from .knobs import KnobError, Knobs, knob

__all__ = ["SyntheticConfig", "generate_synthetic"]


@dataclass(frozen=True)
class SyntheticConfig(Knobs):
    """Generator knobs; the data.synthetic config section.

    n_users, n_items: catalog sizes; keys are "u<idx>" / "i<idx>",
        zero-padded so lexicographic order matches index order.
    n_groups: number of aligned user/item communities.
    bulk_degree: subsample size for ordinary users.
    heavy_degree: subsample size for heavy users.
    heavy_fraction: probability that a user is heavy; the mean degree is
        (1 - heavy_fraction) * bulk_degree + heavy_fraction * heavy_degree
        (about 5 with the defaults).
    p_in: candidate-edge probability inside the user's group.
    p_out: candidate-edge probability across groups.
    seed: generator seed; output is a pure function of the knobs.
    """

    n_users: int = knob(500, key="users", min=1)
    n_items: int = knob(500, key="items", min=1)
    n_groups: int = knob(10, key="groups", min=1)
    bulk_degree: int = knob(4, min=1)
    heavy_degree: int = knob(12, min=1)
    heavy_fraction: float = knob(0.125, min=0, max=1)
    p_in: float = knob(0.5, min=0, max=1)
    p_out: float = knob(0.005, min=0, max=1)
    seed: int = knob(0, min=0)

    def __post_init__(self):
        super().__post_init__()
        if self.n_groups > min(self.n_users, self.n_items):
            raise KnobError("n_groups", "must be in [1, min(users, items)]")
        if self.p_out > self.p_in:
            raise KnobError("p_in", "need 0 <= p_out <= p_in <= 1")


def generate_synthetic(**knobs):
    """Draw a clustered sparse interaction set as (user_key, item_key) pairs.

    Takes the SyntheticConfig fields as keywords; unset ones keep their
    defaults, and out-of-bounds values raise ValueError naming the field.
    """
    cfg = SyntheticConfig(**knobs)
    n_users, n_items, n_groups = cfg.n_users, cfg.n_items, cfg.n_groups

    rng = np.random.default_rng(cfg.seed)
    user_group = (np.arange(n_users) * n_groups) // n_users
    item_group = (np.arange(n_items) * n_groups) // n_items
    same = user_group[:, None] == item_group[None, :]
    prob = np.where(same, cfg.p_in, cfg.p_out)
    cand = rng.random((n_users, n_items)) < prob
    degrees = np.where(rng.random(n_users) < cfg.heavy_fraction,
                       cfg.heavy_degree, cfg.bulk_degree)

    width = len(str(n_users - 1))
    iwidth = len(str(n_items - 1))
    pairs = set()
    for u in range(n_users):
        idx = np.flatnonzero(cand[u])
        if len(idx) == 0:
            # degenerate draw: give the user one uniform in-group item
            own = np.flatnonzero(item_group == user_group[u])
            idx = np.asarray([own[int(rng.random() * len(own))]])
        take = min(int(degrees[u]), len(idx))
        chosen = rng.choice(idx, size=take, replace=False)
        for i in chosen:
            pairs.add((f"u{u:0{width}d}", f"i{int(i):0{iwidth}d}"))
    return pairs
