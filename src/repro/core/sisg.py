"""The SISG façade: the paper's model variants behind one ``fit``/``recommend`` API.

Section IV-A of the paper compares six variants; each is a configuration
of the same machinery:

============  =====  ===========  ============
Variant       SI     User types   Directional
============  =====  ===========  ============
SGNS          no     no           no
SISG-F        yes    no           no
SISG-U        no     yes          no
SISG-F-U      yes    yes          no
SISG-F-U-D    yes    yes          yes
============  =====  ===========  ============

(EGES, the sixth variant, is a structurally different baseline and lives
in :mod:`repro.baselines.eges`.)

``SISG.fit`` enriches the dataset's sequences per the configuration,
trains SGNS, and exposes retrieval, vector access and cold-start helpers.
The trainer backend is pluggable: pass ``engine="distributed"`` to train
on the simulated multi-worker engine instead of the single-machine
trainer (same math, partitioned parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.core.enrichment import EnrichedCorpus, build_enriched_corpus
from repro.core.model import EmbeddingModel
from repro.core.sampling import subsample_keep_probabilities
from repro.core.sgns import SGNSConfig, SGNSTrainer
from repro.core.similarity import SimilarityIndex
from repro.core.vocab import TokenKind
from repro.data.schema import ITEM_SI_FEATURES, BehaviorDataset, UserMeta
from repro.utils import get_logger, require

logger = get_logger("core.sisg")

_ENGINES = ("local", "parallel", "tns", "distributed")


def kind_aware_keep(corpus: EnrichedCorpus, threshold: float) -> "np.ndarray":
    """Subsampling keep probabilities that never discard item tokens.

    At production scale (25M-800M items) an individual item's *relative*
    corpus frequency sits far below any practical subsampling threshold,
    so the paper's global word2vec subsampling only ever removes the hot
    SI and user-type tokens ("aggressively downsample very frequent
    pairs caused by some of the additional SI", Section III-C).  A
    scaled-down world inverts that accidentally: with a few hundred
    items, item frequencies exceed the threshold and the items
    themselves get massacred along with the SI hubs.

    This helper reproduces the production behaviour at any scale: SI and
    user-type tokens are subsampled by the standard word2vec rule at
    ``threshold`` while item tokens are always kept.  This matters most
    for the directional variant — when hub SI tokens dominate sequences,
    the output vectors of same-leaf items become nearly collinear (they
    are all trained against the same hub inputs) and the ``v_i^T v'_j``
    similarity loses its within-leaf resolution.
    """
    keep = subsample_keep_probabilities(corpus.vocab.counts, threshold)
    keep = keep.copy()
    keep[corpus.vocab.ids_of_kind(TokenKind.ITEM)] = 1.0
    return keep


@dataclass
class SISGConfig:
    """Configuration of one SISG variant.

    Attributes
    ----------
    use_si:
        Inject item SI tokens into sequences (the "F" component).
    use_user_types:
        Append user-type tokens (the "U" component).
    directional:
        Right-window-only sampling plus input.output retrieval (the "D"
        component; Section II-C).
    sgns:
        Hyper-parameters of the underlying SGNS trainer.  Its
        ``directional`` flag is overridden by this config's.
    engine:
        ``"local"`` (single-process trainer), ``"parallel"`` (the
        shared-memory Hogwild engine of :mod:`repro.core.hogwild`,
        every row trained lock-free in the shared matrix), ``"tns"``
        (the same engine with ATNS's hot rows replicated per worker
        and their deltas exchanged through a dedicated
        parameter-server process — the paper's TNS architecture, see
        :mod:`repro.core.paramserver`) or
        ``"distributed"`` (the simulated multi-worker TNS/ATNS engine
        of Section III).
    n_workers:
        Worker count for the parallel/tns/distributed engines (ignored
        by ``local``).  ``"auto"`` resolves to the CPUs of the affinity
        mask, capped by the shard count at fit time.
    scale_faithful_subsampling:
        When True (default) and SI tokens are in play, subsampling is
        applied to SI/user-type tokens only — the behaviour the paper's
        global threshold produces at billion-scale, where item
        frequencies sit far below the threshold.  See
        :func:`kind_aware_keep`.
    """

    use_si: bool = True
    use_user_types: bool = True
    directional: bool = True
    sgns: SGNSConfig = field(default_factory=SGNSConfig)
    engine: str = "local"
    n_workers: "int | str" = 4
    scale_faithful_subsampling: bool = True

    def validate(self) -> None:
        require(
            self.engine in _ENGINES,
            f"engine must be one of {_ENGINES}, got {self.engine!r}",
        )
        require(
            self.n_workers == "auto"
            or (isinstance(self.n_workers, int) and self.n_workers >= 1),
            f"n_workers must be >= 1 or 'auto', got {self.n_workers!r}",
        )
        self.sgns.validate()

    @property
    def variant_name(self) -> str:
        """The paper's name for this configuration."""
        if not self.use_si and not self.use_user_types and not self.directional:
            return "SGNS"
        parts = ["SISG"]
        if self.use_si:
            parts.append("F")
        if self.use_user_types:
            parts.append("U")
        if self.directional:
            parts.append("D")
        return "-".join(parts)


class SISG:
    """Side-Information enhanced Skip-Gram recommender.

    Typical use::

        model = SISG.sisg_f_u_d(dim=32, epochs=2, seed=7).fit(dataset)
        items, scores = model.recommend(item_id=42, k=20)

    After :meth:`fit`, the trained :class:`EmbeddingModel` is available as
    ``.model`` and the retrieval index as ``.index``.
    """

    def __init__(self, config: SISGConfig | None = None) -> None:
        self.config = config or SISGConfig()
        self.config.validate()
        self.model: EmbeddingModel | None = None
        self.index: SimilarityIndex | None = None
        self._dataset: BehaviorDataset | None = None

    # ------------------------------------------------------------------
    # variant constructors (Table III of the paper)
    # ------------------------------------------------------------------

    @classmethod
    def _make(
        cls, use_si: bool, use_user_types: bool, directional: bool, **kwargs
    ) -> "SISG":
        """A keyword naming a :class:`SISGConfig` field sets that field;
        every other keyword goes to :class:`SGNSConfig`."""
        outer = {f.name for f in fields(SISGConfig)}
        config = {k: kwargs.pop(k) for k in list(kwargs) if k in outer}
        return cls(
            SISGConfig(
                use_si=use_si,
                use_user_types=use_user_types,
                directional=directional,
                sgns=SGNSConfig(**kwargs),
                **config,
            )
        )

    @classmethod
    def sgns(cls, **sgns_kwargs) -> "SISG":
        """Classic SGNS on item-only sequences (the Table-III baseline)."""
        return cls._make(False, False, False, **sgns_kwargs)

    @classmethod
    def sisg_f(cls, **sgns_kwargs) -> "SISG":
        """SISG with item SI tokens only."""
        return cls._make(True, False, False, **sgns_kwargs)

    @classmethod
    def sisg_u(cls, **sgns_kwargs) -> "SISG":
        """SISG with user-type tokens only."""
        return cls._make(False, True, False, **sgns_kwargs)

    @classmethod
    def sisg_f_u(cls, **sgns_kwargs) -> "SISG":
        """SISG with item SI and user types, symmetric windows."""
        return cls._make(True, True, False, **sgns_kwargs)

    @classmethod
    def sisg_f_u_d(cls, **sgns_kwargs) -> "SISG":
        """The full model: SI + user types + asymmetry (production variant)."""
        return cls._make(True, True, True, **sgns_kwargs)

    @classmethod
    def variant(cls, name: str, **sgns_kwargs) -> "SISG":
        """Construct a variant by its paper name (e.g. ``"SISG-F-U-D"``)."""
        constructors = {
            "SGNS": cls.sgns,
            "SISG-F": cls.sisg_f,
            "SISG-U": cls.sisg_u,
            "SISG-F-U": cls.sisg_f_u,
            "SISG-F-U-D": cls.sisg_f_u_d,
        }
        if name not in constructors:
            raise ValueError(
                f"unknown variant {name!r}; expected one of {sorted(constructors)}"
            )
        return constructors[name](**sgns_kwargs)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def fit(self, dataset: BehaviorDataset) -> "SISG":
        """Enrich sequences per the configuration and train the embeddings.

        ``config.sgns.window`` is interpreted at the *item* level: when SI
        tokens are injected, each item occupies ``1 + n_si`` token slots,
        so the token-level window is scaled by that factor (the paper
        "adjusts the window size such that all possible pairs per sequence
        are sampled" — without scaling, a window tuned for plain
        sequences would never reach the next item token).
        """
        cfg = self.config
        corpus = build_enriched_corpus(
            dataset,
            with_si=cfg.use_si,
            with_user_types=cfg.use_user_types,
        )
        tokens_per_item = 1 + (len(ITEM_SI_FEATURES) if cfg.use_si else 0)
        sgns_cfg = replace(
            cfg.sgns,
            directional=cfg.directional,
            window=cfg.sgns.window * tokens_per_item,
        )
        # At production scale, item relative frequencies sit far below
        # any subsampling threshold in *every* variant, so the faithful
        # emulation exempts item tokens everywhere (for plain SGNS this
        # means no subsampling at all — its corpus is items only).
        keep = None
        if cfg.scale_faithful_subsampling:
            keep = kind_aware_keep(corpus, sgns_cfg.subsample_threshold)
        logger.info(
            "fitting %s on %d sequences (%d tokens, vocab %d) with %s engine",
            cfg.variant_name,
            corpus.n_sequences,
            corpus.n_tokens,
            len(corpus.vocab),
            cfg.engine,
        )
        if cfg.engine == "distributed":
            # Imported lazily: repro.distributed depends on repro.core.
            from repro.distributed.engine import train_distributed

            from repro.core.hogwild import resolve_n_workers

            trainer = train_distributed(
                corpus, sgns_cfg,
                n_workers=resolve_n_workers(cfg.n_workers, corpus.n_sequences),
                keep_probabilities=keep,
            )
        else:
            if cfg.engine == "local":
                trainer = SGNSTrainer(len(corpus.vocab), sgns_cfg)
            else:
                # Imported lazily to keep the default path light.
                from repro.core.hogwild import ParallelSGNSTrainer

                trainer = ParallelSGNSTrainer(
                    len(corpus.vocab),
                    sgns_cfg,
                    n_workers=cfg.n_workers,
                    hot_sync="server" if cfg.engine == "tns" else "lock",
                )
            trainer.fit(
                corpus.sequences, corpus.vocab.counts, keep_probabilities=keep
            )
        self.model = EmbeddingModel(
            corpus.vocab,
            trainer.w_in,
            trainer.w_out,
            "directional" if cfg.directional else "cosine",
        )
        self.index = SimilarityIndex(self.model)
        self._dataset = dataset
        return self

    def _require_fitted(self) -> None:
        if self.model is None or self.index is None:
            raise RuntimeError("SISG model is not fitted; call fit() first")

    # ------------------------------------------------------------------
    # retrieval & vectors
    # ------------------------------------------------------------------

    def recommend(self, item_id: int, k: int = 20) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` candidate items for a user who just clicked ``item_id``."""
        self._require_fitted()
        return self.index.topk(item_id, k)

    def item_vector(self, item_id: int, output: bool = False) -> np.ndarray:
        """Trained vector of an item."""
        self._require_fitted()
        return self.model.item_vector(item_id, output=output)

    def si_vector(self, feature: str, value: int, output: bool = False) -> np.ndarray:
        """Trained vector of an SI instance (e.g. ``brand``, ``17``)."""
        self._require_fitted()
        return self.model.vector(f"{feature}_{value}", output=output)

    def user_type_vector(self, user: UserMeta, output: bool = False) -> np.ndarray:
        """Trained vector of a user's type token."""
        self._require_fitted()
        from repro.core.enrichment import user_type_token

        return self.model.vector(user_type_token(user), output=output)

    # ------------------------------------------------------------------
    # cold start (Section IV-C)
    # ------------------------------------------------------------------

    def recommend_cold_item(
        self, si_values: dict[str, int], k: int = 20
    ) -> tuple[np.ndarray, np.ndarray]:
        """Recommendations for an unseen item from its SI only (Eq. 6)."""
        self._require_fitted()
        from repro.core.coldstart import recommend_for_cold_item

        return recommend_for_cold_item(self.model, self.index, si_values, k)

    def recommend_cold_user(
        self,
        k: int = 20,
        gender: str | None = None,
        age_bucket: str | None = None,
        purchase_power: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Recommendations for a user with no history, from demographics."""
        self._require_fitted()
        from repro.core.coldstart import recommend_for_cold_user

        return recommend_for_cold_user(
            self.model,
            self.index,
            k,
            gender=gender,
            age_bucket=age_bucket,
            purchase_power=purchase_power,
        )
