"""Ablation A3 — SGNS hyper-parameter sensitivity on HR@K.

Design-choice sweeps DESIGN.md calls out: the context window, the
negatives ratio, and the frequent-token subsampling threshold.  Run on a
small world so the whole sweep stays fast; assertions are deliberately
loose (sane, non-degenerate HR everywhere) — the printed table is the
artifact.
"""

import pytest

from repro.core.sisg import SISG
from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
from repro.eval.hitrate import evaluate_hitrate


@pytest.fixture(scope="module")
def sweep_split():
    config = SyntheticWorldConfig(
        n_items=400,
        n_users=200,
        n_leaf_categories=10,
        n_top_categories=4,
        forward_prob=0.9,
        forward_geom=0.6,
    )
    world = SyntheticWorld(config, seed=21)
    dataset = world.generate_dataset(n_sessions=2000)
    return dataset.split_last_item()


def _hr10(train, test, scale_faithful=True, **kwargs):
    params = dict(
        dim=16, epochs=3, negatives=5, window=2, learning_rate=0.05, seed=4
    )
    params.update(kwargs)
    model = SISG.sgns(scale_faithful_subsampling=scale_faithful, **params)
    model.fit(train)
    return evaluate_hitrate(model.index, test, ks=(10,)).hit_rates[10]


def test_ablation_window(benchmark, sweep_split):
    train, test = sweep_split
    rows = {w: _hr10(train, test, window=w) for w in (1, 2, 4, 8)}
    benchmark(lambda: None)
    print("\nAblation A3a — window size vs HR@10 (plain SGNS)")
    for w, hr in rows.items():
        print(f"window={w}: HR@10={hr:.4f}")
    assert all(hr > 0.05 for hr in rows.values())


def test_ablation_negatives(benchmark, sweep_split):
    train, test = sweep_split
    rows = {n: _hr10(train, test, negatives=n) for n in (2, 5, 20)}
    benchmark(lambda: None)
    print("\nAblation A3b — negatives per positive vs HR@10")
    for n, hr in rows.items():
        print(f"negatives={n}: HR@10={hr:.4f}")
    assert all(hr > 0.05 for hr in rows.values())


def test_ablation_subsampling(benchmark, sweep_split):
    """Raw word2vec subsampling (items included) vs the scale-faithful
    default (items exempt).  At test scale, global thresholds below the
    item frequencies visibly cost retrieval quality — the effect behind
    the kind-aware policy (DESIGN.md section 5b)."""
    train, test = sweep_split
    rows = {
        t: _hr10(train, test, subsample_threshold=t, scale_faithful=False)
        for t in (0.0, 1e-2, 1e-3, 1e-4)
    }
    faithful = _hr10(train, test, subsample_threshold=1e-3, scale_faithful=True)
    benchmark(lambda: None)
    print("\nAblation A3c — global (raw word2vec) subsampling vs HR@10")
    for t, hr in rows.items():
        print(f"threshold={t:g}: HR@10={hr:.4f}")
    print(f"kind-aware (items exempt) @1e-3: HR@10={faithful:.4f}")
    # Mild global thresholds are harmless...
    assert rows[0.0] > 0.02 and rows[1e-2] > 0.02 and rows[1e-3] > 0.02
    # ...but once the threshold drops below the item frequencies, the
    # items themselves get subsampled away and quality collapses — the
    # effect the kind-aware policy exists to prevent.
    assert rows[1e-4] < 0.5 * rows[0.0]
    assert faithful > 10 * rows[1e-4]


def test_ablation_duplicate_policy(benchmark, sweep_split):
    """The vectorized-batch stability choice (DESIGN: scatter_update)."""
    train, test = sweep_split
    hr_sum = _hr10(train, test, duplicate_policy="sum")
    hr_mean = _hr10(train, test, duplicate_policy="mean")
    benchmark(lambda: None)
    print("\nAblation A3d — duplicate-gradient policy vs HR@10")
    print(f"sum+clip (default): {hr_sum:.4f}\nmean:               {hr_mean:.4f}")
    # The clipped-sum default must not be worse than the conservative mean.
    assert hr_sum >= hr_mean * 0.8
