"""Cloud → edge transfer packaging and byte-size accounting.

What crosses the network exactly once in the MAGNETO pipeline is: the
pre-trained model parameters, the exemplar support set, and the class
prototypes.  :class:`TransferPackage` carries those pieces together with their
float32-serialised sizes, which is the quantity the paper's Q2 analysis uses
("e.g., 2500 exemplars in compressed format would take 3.2 MB of space").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.exceptions import NotFittedError, SerializationError
from repro.utils.rng import RandomState


@dataclass
class TransferPackage:
    """Everything the edge needs to start from the cloud's warm start."""

    model_state: Dict[str, np.ndarray]
    exemplar_features: Dict[int, np.ndarray]
    prototypes: Dict[int, np.ndarray]
    model_bytes: int
    support_set_bytes: int
    prototype_bytes: int
    # Support-set policy of the source learner, so an instantiated device
    # learner manages its exemplars exactly as the cloud learner would.
    exemplar_strategy: str = "herding"
    exemplar_capacity: Optional[int] = None

    @property
    def total_bytes(self) -> int:
        return self.model_bytes + self.support_set_bytes + self.prototype_bytes

    def summary(self) -> Dict[str, float]:
        """Sizes in bytes and megabytes for reporting."""
        return {
            "model_bytes": self.model_bytes,
            "support_set_bytes": self.support_set_bytes,
            "prototype_bytes": self.prototype_bytes,
            "total_bytes": self.total_bytes,
            "total_megabytes": self.total_bytes / 2**20,
        }

    def instantiate_learner(
        self,
        config: PiloteConfig,
        seed: RandomState = None,
        *,
        copy_arrays: bool = True,
        backend=None,
    ) -> PILOTE:
        """Materialise an *independent* PILOTE learner from this package.

        This is what happens on every device that receives the package: the
        backbone weights, support set and prototypes are materialised into a
        fresh learner, so the device can keep learning locally without sharing
        state with the cloud learner or with any sibling device.  The fleet
        layer (:mod:`repro.fleet`) uses this to provision many devices from a
        single cloud broadcast.

        ``copy_arrays=False`` is the copy-on-write path used by a pooled
        fleet, where one region template serves many devices
        (:class:`~repro.fleet.coordinator.FleetCoordinator` with pooling on):
        exemplar rows and prototypes are *shared* with the package instead of
        deep-copied, so a region full of identical devices costs one support
        set, not N.  Sharing is safe because every mutation path
        (``ExemplarStore.select``/``set_exemplars``, ``PrototypeStore.set``,
        ``_refresh_prototypes``) replaces whole entries rather than writing
        into rows; the backbone weights are always private (training updates
        them in place, and ``load_state_dict`` copies regardless).  The
        instantiated state is identical either way — ``seed`` only feeds the
        learner's *future* training streams.

        ``backend`` is forwarded to :class:`~repro.core.pilote.PILOTE`
        untouched: a name (``"sharded"``) gives the device its own pool, while
        a prebuilt :class:`~repro.backend.backend.Backend` *instance* lets a
        coordinator share one shard pool across every device it deploys (the
        learner then borrows rather than owns it).
        """
        from repro.core.embedding import EmbeddingNetwork  # local import avoids a cycle
        from repro.core.ncm import NCMClassifier

        if not self.exemplar_features:
            raise SerializationError("the transfer package carries no support set")
        input_dim = next(iter(self.exemplar_features.values())).shape[1]
        learner = PILOTE(config, seed=seed, backend=backend)
        learner.model = EmbeddingNetwork(int(input_dim), config=config)
        learner.model.load_state_dict(self.model_state)
        learner.model.eval()
        learner._old_classes = sorted(int(c) for c in self.prototypes)
        learner.exemplars.strategy = self.exemplar_strategy
        learner.exemplars.capacity = self.exemplar_capacity
        for class_id, rows in self.exemplar_features.items():
            if copy_arrays:
                learner.exemplars.set_exemplars(int(class_id), np.array(rows, copy=True))
            else:
                learner.exemplars.set_exemplars(int(class_id), rows, copy=False)
        for class_id, prototype in self.prototypes.items():
            learner.prototypes.set(
                int(class_id),
                np.array(prototype, copy=True) if copy_arrays else prototype,
            )
        learner._pretrain_dataset = None
        if len(learner.prototypes) > 0:
            learner.classifier = NCMClassifier().fit(learner.prototypes)
            learner._classifier_ready = True
            learner._state_version += 1
        return learner


def package_for_edge(learner: PILOTE) -> TransferPackage:
    """Build a :class:`TransferPackage` from a pre-trained PILOTE learner."""
    if not learner.is_pretrained:
        raise NotFittedError("the learner must be pre-trained before packaging")
    exemplar_features = {
        class_id: learner.exemplars.get(class_id) for class_id in learner.exemplars.classes
    }
    prototypes = {
        class_id: learner.prototypes.get(class_id) for class_id in learner.prototypes.classes
    }
    return TransferPackage(
        model_state=learner.model.state_dict(),
        exemplar_features=exemplar_features,
        prototypes=prototypes,
        model_bytes=learner.model_nbytes(),
        support_set_bytes=learner.support_set_nbytes(),
        prototype_bytes=learner.prototypes.nbytes(),
        exemplar_strategy=learner.exemplars.strategy,
        exemplar_capacity=learner.exemplars.capacity,
    )


def exemplar_storage_bytes(n_exemplars: int, n_features: int, dtype_bytes: int = 4) -> int:
    """Bytes needed to store ``n_exemplars`` feature vectors as float32.

    This is the formula behind the paper's support-set size statements
    (200 exemplars/class × 4 classes × 80 features × 4 B ≈ 256 KB).
    """
    if n_exemplars < 0 or n_features <= 0 or dtype_bytes <= 0:
        raise ValueError("n_exemplars, n_features and dtype_bytes must be positive")
    return int(n_exemplars) * int(n_features) * int(dtype_bytes)
