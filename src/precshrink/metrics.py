"""Frobenius loss, PRIAL and the per-grid-point report records."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedPrialError
from .linalg import require_shape


def frobenius_loss(estimate: np.ndarray, truth_inv: np.ndarray) -> float:
    """Squared Frobenius distance between an estimate and the true precision."""
    estimate = np.asarray(estimate, dtype=float)
    truth_inv = np.asarray(truth_inv, dtype=float)
    require_shape(estimate, truth_inv.shape, "estimate")
    diff = estimate - truth_inv
    return float(np.sum(diff * diff))


def prial(mean_loss_estimator: float, mean_loss_baseline: float) -> float:
    """Percentage relative improvement in average loss over the baseline."""
    if not mean_loss_baseline > 0.0:
        raise UndefinedPrialError(
            f"PRIAL undefined: baseline mean loss must be positive, got {mean_loss_baseline}"
        )
    return (1.0 - mean_loss_estimator / mean_loss_baseline) * 100.0


@dataclass(frozen=True)
class ResultRow:
    """One row of a result CSV: an estimator at one grid point.

    ``status`` is ``"ok"``, or ``"skipped: <reason>"`` for an estimator that
    does not apply at the grid point; a skipped row has NaN means and 0
    replications.
    """

    experiment: str
    p: int
    n: int
    ratio: float
    distribution: str
    estimator_id: str
    mean_loss: float
    prial_percent: float
    mean_alpha: float
    mean_beta: float
    replications: int
    seed: int
    status: str = "ok"


@dataclass(frozen=True)
class PrialReport:
    """The result rows of one grid point (p, n), in output order."""

    p: int
    n: int
    baseline_id: str
    summaries: tuple[ResultRow, ...]

    def summary(self, estimator_id: str) -> ResultRow:
        for entry in self.summaries:
            if entry.estimator_id == estimator_id:
                return entry
        raise KeyError(estimator_id)
