"""Shared fixtures: one small world / dataset / trained model per session.

Training even a tiny SGNS model dominates test runtime, so fixtures that
need a *fitted* model are session-scoped and shared; tests must not
mutate them.
"""

from __future__ import annotations

import pytest

from repro.core.sgns import SGNSTrainer
from repro.core.sisg import SISG
from repro.data.schema import BehaviorDataset
from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig


TINY_CONFIG = SyntheticWorldConfig(
    n_items=200,
    n_users=80,
    n_top_categories=3,
    n_leaf_categories=8,
    n_brands=40,
    n_shops=60,
    n_cities=6,
    brands_per_leaf=6,
    shops_per_leaf=10,
)


@pytest.fixture()
def fit_dtypes(monkeypatch) -> list[tuple[str, str]]:
    """Spy on ``SGNSTrainer.fit``: the ``(w_in, w_out)`` dtype names each
    fit in the test trained on, in call order."""
    seen: list[tuple[str, str]] = []
    fit = SGNSTrainer.fit

    def spy(self, *args, **kwargs):
        seen.append((self.w_in.dtype.name, self.w_out.dtype.name))
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(SGNSTrainer, "fit", spy)
    return seen


@pytest.fixture(scope="session")
def tiny_world() -> SyntheticWorld:
    """A small synthetic world shared across the suite (do not mutate)."""
    return SyntheticWorld(TINY_CONFIG, seed=7)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_world: SyntheticWorld) -> BehaviorDataset:
    """~600 sessions from the tiny world."""
    return tiny_world.generate_dataset(n_sessions=600)


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset: BehaviorDataset):
    """(train, test_sessions) under the next-item protocol."""
    return tiny_dataset.split_last_item()


@pytest.fixture(scope="session")
def fitted_sgns(tiny_split) -> SISG:
    """A fitted plain-SGNS model (fast; item-only sequences)."""
    train, _test = tiny_split
    return SISG.sgns(dim=12, epochs=2, window=2, negatives=4, seed=11).fit(train)


@pytest.fixture(scope="session")
def fitted_sisg(tiny_split) -> SISG:
    """A fitted full SISG-F-U-D model (shared; do not mutate)."""
    train, _test = tiny_split
    return SISG.sisg_f_u_d(dim=12, epochs=1, window=2, negatives=4, seed=11).fit(
        train
    )
