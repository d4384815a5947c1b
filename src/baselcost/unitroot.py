"""Harris-Tzavalis panel unit-root test (panel-specific means case).

Fixed-T, large-N inference for the null of a unit root in every entity's
series against the alternative that all series are stationary around
entity-specific means. The test statistic is built on the least-squares
dummy-variable estimator of the AR(1) coefficient: regress y_it on
y_(i,t-1) over the usable window, each less its entity's mean over that
window by `panel.entity_demean`, the fit's demeaning routine too, then

    z = sqrt(N) * (rho_hat - 1 - mu) / sigma,

where the bias and scale moments are evaluated on the number of usable
transitions m (one fewer than the observed periods):

    mu      = -3 / (m + 1)
    sigma^2 = 3 * (17 m^2 - 20 m + 17) / (5 (m - 1) (m + 1)^3).

Under the null z is asymptotically standard normal; small left-tail
p-values reject the unit root in favour of stationarity. Evaluating the
moments on the transition count is what makes the statistic correctly
centred: the plim of the demeaned-window estimator under a random walk is
1 - 3/(m + 1), which is straightforward to verify by simulation. Levels pass
through `panel.pow2_normalise` first, so rescaling them by 2**k moves no bit.

Reference: Harris, R. D. F. and Tzavalis, E. (1999), "Inference for unit
roots in dynamic panels where the time dimension is fixed", Journal of
Econometrics 91, 201-226.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EstimationError
from .panel import PanelDataset, entity_demean, pow2_normalise

CASE_LABEL = "panel-specific means"


@dataclass(frozen=True, slots=True)
class UnitRootResult:
    variable: str
    rho_hat: float
    z_stat: float
    p_value: float
    n_periods: int
    n_entities: int

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
            "rho": self.rho_hat,
            "z": self.z_stat,
            "p_value": self.p_value,
            "n_periods": self.n_periods,
            "n_entities": self.n_entities,
            "case": CASE_LABEL,
        }


def ht_moments(n_transitions: int) -> tuple[float, float]:
    """Bias and standard deviation of (rho_hat - 1) for m usable transitions."""
    m = n_transitions
    if m < 2:
        raise DataError(f"need at least 2 usable transitions, got {m}")
    mu = -3.0 / (m + 1)
    var = 3.0 * (17.0 * m * m - 20.0 * m + 17.0) / (5.0 * (m - 1.0) * (m + 1.0) ** 3)
    return mu, float(np.sqrt(var))


def ht_statistic(levels: np.ndarray) -> tuple[float, float, float]:
    """(rho_hat, z, p) for an (N, T) array of balanced level series."""
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 2:
        raise DataError("levels must be a 2-d (entities x periods) array")
    n_ent, n_per = levels.shape
    if n_per < 3:
        raise DataError(f"need at least 3 periods, got {n_per}")
    if n_ent < 2:
        raise DataError(f"need at least 2 entities, got {n_ent}")
    if not np.isfinite(levels).all():
        raise DataError("levels contain missing values; balance the panel first"
                        if np.isnan(levels).any() else "levels contain infinite values")
    levels = pow2_normalise(levels)[0]
    # one row per transition, coded by its entity, demeaned as the fit's rows are
    codes, counts = np.repeat(np.arange(n_ent), n_per - 1), np.full(n_ent, n_per - 1)
    dep_dm = entity_demean(levels[:, 1:].ravel(), codes, counts)
    reg_dm = entity_demean(levels[:, :-1].ravel(), codes, counts)
    # fsum is exactly rounded, making the statistic invariant to entity order
    denom = math.fsum((reg_dm * reg_dm).tolist())
    if denom <= 0.0:
        raise EstimationError(
            "degenerate variance: every lagged series equals its own mean"
        )
    rho = math.fsum((reg_dm * dep_dm).tolist()) / denom
    mu, sigma = ht_moments(n_per - 1)
    z = float(np.sqrt(n_ent) * (rho - 1.0 - mu) / sigma)
    return rho, z, 0.5 * math.erfc(-z / math.sqrt(2.0))


def harris_tzavalis(ds: PanelDataset, column: str) -> UnitRootResult:
    """Run the test on one panel column.

    The column must be balanced (no missing cells) with at least 3 periods
    and 2 entities, and the periods must be consecutive years: the moments
    assume each transition spans one year. Deterministic and invariant to
    entity ordering.
    """
    for a, b in zip(ds.periods, ds.periods[1:]):
        if b != a + 1:
            raise DataError(
                f"column {column!r}: the panel has a calendar gap, year {a + 1} "
                f"is missing; Harris-Tzavalis needs consecutive years"
            )
    mat = ds.column(column)
    if np.any(np.isnan(mat)):
        raise DataError(
            f"column {column!r} is unbalanced; drop incomplete entities or periods "
            f"before testing"
        )
    rho, z, p = ht_statistic(mat)
    return UnitRootResult(
        variable=column,
        rho_hat=rho,
        z_stat=z,
        p_value=p,
        n_periods=ds.n_periods,
        n_entities=ds.n_entities,
    )
