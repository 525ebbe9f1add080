"""Fig. 3 — simulated online A/B test: SISG vs well-tuned CF over 8 days.

The paper's production A/B test compares homepage CTR between the full
SISG variant and a well-tuned item CF for eight days, with SISG winning
by +10.01% on average.  Our simulation reproduces the *setup* (identical
impression stream, fixed click model, only the candidate source differs)
under realistic catalogue churn: 35% of items are listed *after* the
training snapshot, so a large share of triggers is cold.  SISG serves
cold triggers through Eq. 6 (SI-inferred vectors); CF falls back to a
popularity slate, exactly as the respective production systems do.

**What is asserted**: SISG wins on at least 7 of 8 days and on the mean
(the paper's headline), the win is driven by the cold-trigger segment
where Eq. 6 inference crushes CF's popularity fallback (the mechanism
the paper's coverage argument rests on), and the warm segments stay
within a few points of each other.

Known calibration note (EXPERIMENTS.md D2): the measured gain exceeds
the paper's +10.01% because a scaled-down world needs a higher churn
share to reproduce the count-starved regime CF faces at 100M items; on
warm, well-counted triggers CF remains an excellent matcher here as in
the paper.
"""

import numpy as np
import pytest

from repro.baselines.itemcf import ItemCF
from repro.core.coldstart import infer_cold_item_vector
from repro.core.sisg import SISG
from repro.core.vocab import TokenKind
from repro.data.schema import BehaviorDataset, Session
from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
from repro.eval.ctr import CTRConfig, CTRSimulator

CHURN_FRACTION = 0.35

CTR_WORLD = SyntheticWorldConfig(
    n_items=2000,
    n_users=500,
    n_leaf_categories=20,
    n_top_categories=5,
    brands_per_leaf=12,
    shops_per_leaf=25,
    forward_prob=0.85,
    forward_geom=0.5,
    cross_leaf_prob=0.05,
    succ_leaf_prob=0.15,
)


class SISGServing:
    """The production serving stack: warm index + Eq. 6 cold inference.

    An item can be *registered* in the vocabulary (every catalogue item
    is) yet have zero training interactions; its trained vector is
    untouched initialization noise.  Serving therefore routes by
    training count: items with interactions use the index, everything
    else goes through the Eq. 6 SI-inferred vector.
    """

    def __init__(self, model: SISG, catalogue: BehaviorDataset) -> None:
        self.model = model
        self.catalogue = catalogue
        vocab = model.model.vocab
        item_vids = vocab.ids_of_kind(TokenKind.ITEM)
        self._trained = set(vocab.item_ids()[vocab.counts[item_vids] > 0].tolist())

    def __contains__(self, item_id: int) -> bool:
        return True  # answers every trigger

    def topk(self, item_id: int, k: int):
        if int(item_id) in self._trained:
            return self.model.index.topk(item_id, k)
        vector = infer_cold_item_vector(
            self.model.model, self.catalogue.items[item_id].si_values
        )
        return self.model.index.topk_by_vector(vector, k)


@pytest.fixture(scope="module")
def ab_test():
    world = SyntheticWorld(CTR_WORLD, seed=1)
    users = world.generate_users()
    full = world.generate_dataset(n_sessions=2500, users=users)

    rng = np.random.default_rng(7)
    n_fresh = int(CHURN_FRACTION * CTR_WORLD.n_items)
    fresh = set(
        int(i) for i in rng.choice(CTR_WORLD.n_items, size=n_fresh, replace=False)
    )
    sessions = []
    for session in full.sessions:
        kept = [i for i in session.items if i not in fresh]
        if len(kept) >= 2:
            sessions.append(Session(session.user_id, kept))
    train = BehaviorDataset(full.items, full.users, sessions, validate=False)

    # The serving variant: SISG-F-U with mild SI subsampling.  (The paper
    # deploys F-U-D; at our scale the directional variant's aggressive SI
    # downsampling leaves SI vectors too weakly trained for Eq. 6 cold
    # inference — part of deviation D1/D2 in EXPERIMENTS.md.)
    sisg = SISG.sisg_f_u(
        dim=32, epochs=6, negatives=5, window=3, learning_rate=0.05,
        subsample_threshold=1e-3, seed=3,
    ).fit(train)
    cf = ItemCF().fit(train)

    simulator = CTRSimulator(
        world,
        users,
        CTRConfig(n_days=8, impressions_per_day=1000, slate_size=10, seed=17),
    )
    result = simulator.run(
        {"SISG-F-U": SISGServing(sisg, full), "CF": cf},
        segment_fn=lambda trigger: "cold" if trigger in fresh else "warm",
    )
    return result


def test_fig3_online_ctr(benchmark, ab_test):
    result = ab_test
    benchmark(result.mean_ctr, "CF")

    print("\nFig. 3 (scaled) — daily CTR under 35% catalogue churn")
    print(result.as_table())
    print("\nper-segment CTR (trigger cold = listed after training):")
    for name, segments in result.segment_ctr.items():
        row = ", ".join(f"{seg}: {v:.4f}" for seg, v in sorted(segments.items()))
        print(f"  {name:12s} {row}")
    gain = result.relative_gain("SISG-F-U", "CF")
    cold_sisg = result.segment_ctr["SISG-F-U"].get("cold", 0.0)
    cold_cf = result.segment_ctr["CF"].get("cold", 0.0)
    print(f"\noverall gain {gain:+.2%} (paper: +10.01%; see EXPERIMENTS.md"
          f" for the scale analysis); cold-segment gain"
          f" {(cold_sisg - cold_cf) / max(cold_cf, 1e-9):+.2%}")

    # The paper's headline: SISG beats CF on (nearly) every day and on
    # the mean.
    sisg_days = result.daily_ctr["SISG-F-U"]
    cf_days = result.daily_ctr["CF"]
    wins = sum(s > c for s, c in zip(sisg_days, cf_days))
    assert wins >= 7, (sisg_days, cf_days)
    assert gain > 0.0
    # The cold-start mechanism behind the win: SISG dominates on triggers
    # CF has never seen, while staying competitive on warm traffic.
    assert cold_sisg > 1.5 * cold_cf
    warm_sisg = result.segment_ctr["SISG-F-U"]["warm"]
    warm_cf = result.segment_ctr["CF"]["warm"]
    assert warm_sisg > 0.8 * warm_cf
    # Both arms serve a sane overall CTR (non-degenerate simulation).
    assert result.mean_ctr("SISG-F-U") > 0.02
    assert result.mean_ctr("CF") > 0.02
