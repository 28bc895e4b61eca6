"""The ablations' smoothness readout (§V-F: Fig. 3 and Fig. 5b).

The ablations themselves are artifacts of :mod:`repro.experiments.registry`
(``fig4``, ``fig5a``, ``fig5b``): SPATL with one mechanism toggled.
"""

from __future__ import annotations

import numpy as np


def stability(series) -> float:
    """Mean absolute round-to-round accuracy change (lower = smoother).

    The quantitative readout for the paper's "substantially more stable
    training process" claims.
    """
    s = np.asarray(series, dtype=np.float64)
    if len(s) < 2:
        return 0.0
    return float(np.abs(np.diff(s)).mean())
