"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import fttim.analysis as analysis

_decompose = analysis._decompose


def _misscaled_decompose(d2, tau):
    """analysis._decompose with the clustering term scaled by
    ``clustering_scale`` instead of tau/2: a deliberately broken identity
    that the decomposition check must reject."""
    entropy, clustering, dispersion, _ = _decompose(d2, tau)
    scale = _misscaled_decompose.clustering_scale
    residual = np.abs(entropy - (scale * clustering + dispersion)) / np.fmax(1.0, np.abs(entropy))
    return entropy, clustering, dispersion, residual


_misscaled_decompose.clustering_scale = 1.0


@pytest.fixture
def misscaled_decomposition(monkeypatch):
    """Install the mis-scaled twin of the entropy decomposition."""
    monkeypatch.setattr(analysis, "_decompose", _misscaled_decompose)
