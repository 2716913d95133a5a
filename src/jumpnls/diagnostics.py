"""Ensemble statistics of a run: bootstrap bands for the moments of the
per-trajectory suprema sup_t ||u||_{E_A}, which ``simulate`` writes into
``summary.json``.  The resample indices come from ``integers`` on the
``noise.TrajectoryStream`` of the seed, ``numpy.random.default_rng(seed)``
bit for bit, which draws a row block of up to
``noise.STREAM_INTEGER_ENTRIES`` indices itself (K <= 65 trajectories) and
hands a larger one to numpy.  The energy report and the path modulus, which
no run reads, are in ``oracles``."""

from __future__ import annotations

import math

import numpy as np

from .noise import TrajectoryStream

#: the orders r, the resample count and the two-sided coverage of the bands
MOMENT_ORDERS = (1.0, 2.0)
BOOTSTRAP_RESAMPLES = 500
CONFIDENCE = 0.95

#: resample indices drawn and gathered at once (512 KiB of int64)
_BOOTSTRAP_BLOCK_ENTRIES = 2**16


def ensemble_moments(sup_ea_norm, seed: int = 0) -> dict:
    """Empirical E[sup_t ||u||_{E_A}^r] with seeded bootstrap bands.

    ``sup_ea_norm`` holds one sup_t ||u||_{E_A} per trajectory (the
    ``sup_ea_norm`` list of ``summary.json``); at least two are required.
    Returns ``{r: (mean, lower, upper)}`` for r in ``MOMENT_ORDERS``.  The
    resamples are drawn in row blocks that continue the stream of ``seed``
    (in [0, 2**64), as master seeds are), so memory does not grow with the
    number of trajectories.
    """
    sup_ea = np.asarray(sup_ea_norm, dtype=float)
    if sup_ea.ndim != 1 or len(sup_ea) < 2:
        raise ValueError("need at least two per-trajectory suprema")
    rng = TrajectoryStream(seed)
    lo_q, hi_q = (1 - CONFIDENCE) / 2, 1 - (1 - CONFIDENCE) / 2
    k = len(sup_ea)
    samples = np.stack([sup_ea**r for r in MOMENT_ORDERS])
    boot_means = np.empty((len(MOMENT_ORDERS), BOOTSTRAP_RESAMPLES))
    rows = max(1, _BOOTSTRAP_BLOCK_ENTRIES // k)
    for start in range(0, BOOTSTRAP_RESAMPLES, rows):
        block = slice(start, min(start + rows, BOOTSTRAP_RESAMPLES))
        resamples = rng.integers(0, k, size=(block.stop - start, k))
        for values, means in zip(samples, boot_means):
            means[block] = np.mean(values[resamples], axis=1)
    boot_means.sort(axis=1)
    return {
        r: (float(np.mean(values)),
            _linear_quantile(means, lo_q),
            _linear_quantile(means, hi_q))
        for r, values, means in zip(MOMENT_ORDERS, samples, boot_means)
    }


def _linear_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` of sorted values, with the same arithmetic.

    The default (linear) method interpolates between the neighbours of the
    position ``(n - 1) q``; ``np.quantile`` finds them through ``np.unique``,
    which imports ``numpy.ma``.
    """
    position = (len(ordered) - 1) * q
    below = math.floor(position)
    gamma = position - below
    a, b = ordered[below], ordered[min(below + 1, len(ordered) - 1)]
    # numpy's lerp: from the nearer end, so that gamma = 1 returns b exactly
    if gamma >= 0.5:
        return float(b - (b - a) * (1.0 - gamma))
    return float(a + (b - a) * gamma)
