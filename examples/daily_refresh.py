"""Daily embedding refresh: warm-start retraining + candidate-table export.

Simulates two days of the production loop the paper's "daily basis"
requirement implies:

- day 1: full training, export the item-to-item candidate table;
- day 2: new sessions arrive and three brand-new items are listed;
  warm-start retraining keeps yesterday's vectors stable while the new
  items enter the space through their SI vectors (Eq. 6 as an
  initializer); the candidate table is rebuilt and the day-over-day
  embedding drift is reported.

    python examples/daily_refresh.py
"""

import numpy as np

from repro import SyntheticWorld, SyntheticWorldConfig
from repro.core.incremental import embedding_drift, incremental_update
from repro.core.sgns import SGNSConfig
from repro.core.similarity import SimilarityIndex
from repro.core.sisg import SISG
from repro.core.vocab import TokenKind
from repro.data.schema import BehaviorDataset, ItemMeta
from repro.serving.candidates import build_candidate_table
from repro.utils.logger import configure_basic_logging


def main() -> None:
    configure_basic_logging()
    world = SyntheticWorld(
        SyntheticWorldConfig(
            n_items=500, n_users=250, n_top_categories=4, n_leaf_categories=10
        ),
        seed=9,
    )
    users = world.generate_users()

    # ------------------------------------------------------------ day 1
    day1 = BehaviorDataset(
        world.items, users, world.generate_sessions(users, 1500), validate=False
    )
    sisg = SISG.sisg_f(dim=24, epochs=3, window=3, negatives=5, seed=1).fit(day1)
    table = build_candidate_table(sisg.index, k=20)
    print(f"day 1: trained on {day1.n_sessions} sessions,"
          f" exported {len(table)}-item candidate table")

    # ------------------------------------------------------------ day 2
    items = list(world.items)
    new_ids = []
    for base in (5, 60, 120):  # three new listings, metadata of known items
        new_id = len(items)
        items.append(ItemMeta(new_id, dict(world.items[base].si_values)))
        new_ids.append(new_id)
    sessions = world.generate_sessions(users, 1500)
    for new_id, base in zip(new_ids, (5, 60, 120)):
        for session in sessions[::13]:
            if base in session.items:
                session.items.insert(session.items.index(base) + 1, new_id)
    day2 = BehaviorDataset(items, users, sessions, validate=False)

    updated = incremental_update(
        sisg.model,
        day2,
        SGNSConfig(dim=24, epochs=1, window=27, negatives=5, seed=2),
        lr_decay=0.4,
    )
    drift = embedding_drift(sisg.model, updated, kind=TokenKind.ITEM)
    print(f"day 2: vocab {len(sisg.model.vocab)} -> {len(updated.vocab)},"
          f" item embedding drift {drift:.3f}")

    # The update inherits day 1's similarity (cosine for SISG-F).
    table2 = build_candidate_table(SimilarityIndex(updated), k=20)
    for new_id in new_ids:
        candidates, _ = table2.topk(new_id, 5)
        leaves = [day2.leaf_of(int(c)) for c in candidates]
        print(f"  new item {new_id} (leaf {day2.leaf_of(new_id)}):"
              f" candidates {candidates.tolist()} leaves {leaves}")

    stable = np.mean([
        len(set(table.topk(i, 10)[0].tolist())
            & set(table2.topk(i, 10)[0].tolist())) / 10.0
        for i in range(0, 500, 25)
    ])
    print(f"day-over-day top-10 candidate stability: {stable:.0%}")


if __name__ == "__main__":
    main()
