"""Bundled worked-example models: two coupled jump systems, fully specified.

Both models are read from the package's data files, which are their only
copy: ``data/example_model.json`` holds the published example and
``data/demo_model.json`` its feasible variant, whose every transition rate
is 0.1 times the example's (the float product, so the files agree bitwise).

System 1 has two modes on a 2-dimensional state, System 2 three modes on a
3-dimensional state.  System 1's rate matrix switches with which of three
shells |x2|^2 falls in (boundaries 5 and 10); System 2's with which of two
shells |x1|^2 falls in (boundary 10).  Both systems are disturbance-free.

Two entries of the published data set are repaired in the example file,
as its "notes" field records:

* the lambda matrices were printed with rows like [-0.4, 0.4] whose
  off-diagonal rate is negative; each such row's signs are flipped so
  every matrix is a valid generator;
* mu^2's middle row was printed as [0.2, -0.5, 0.4], which sums to 0.1;
  its diagonal is set to -0.6 so the row sums to zero.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

import numpy as np

from .fileio import load_model
from .model import InterdependentModel

__all__ = [
    "example_model",
    "demo_model",
    "example_initial_state",
    "example_printed_gains",
    "fixture_path",
    "demo_path",
]


def example_model() -> InterdependentModel:
    """The bundled two-system model with repaired rate matrices."""
    return load_model(fixture_path())


def demo_model() -> InterdependentModel:
    """Feasible variant of the example: transition rates scaled by 0.1."""
    return load_model(demo_path())


def example_initial_state() -> tuple[np.ndarray, np.ndarray]:
    """Initial conditions used by the published simulation figures."""
    return np.array([-6.0, 5.0]), np.array([2.0, -5.5, 8.0])


def example_printed_gains() -> dict[tuple[int, int, tuple[int, int]], np.ndarray]:
    """Published 3-decimal gain listing, keyed (system, observation, (m1, m2)).

    The System 2 listing prints its last block's subscript as observation 2
    a second time; it is read as observation 3 here, which is the only
    assignment leaving no (observation, region) slot empty.
    """
    g1 = {
        (1, (1, 1)): [-8.638, -0.498],
        (1, (1, 2)): [-8.500, -0.391],
        (1, (1, 3)): [-8.610, -0.477],
        (1, (2, 1)): [-4.878, -0.501],
        (1, (2, 2)): [-4.706, -0.347],
        (1, (2, 3)): [-4.878, -0.501],
        (2, (1, 1)): [-16.154, -0.490],
        (2, (1, 2)): [-16.087, -0.480],
        (2, (1, 3)): [-16.076, -0.431],
        (2, (2, 1)): [-19.913, -0.487],
        (2, (2, 2)): [-19.881, -0.525],
        (2, (2, 3)): [-19.808, -0.408],
    }
    g2_rows = {
        (1, 1): [-13.100, -2.454, 1.550],
        (1, 2): [-17.592, -0.798, 5.666],
        (2, 1): [-3.974, -6.840, 6.134],
        (2, 2): [-4.071, -7.606, -5.580],
        (3, 1): [0.427, -23.902, -22.903],
        (3, 2): [0.266, -23.881, -22.386],
    }
    bank: dict[tuple[int, int, tuple[int, int]], np.ndarray] = {}
    for (obs, cell), row in g1.items():
        bank[(1, obs, cell)] = np.array([row])
    for (obs, m1), row in g2_rows.items():
        for m2 in (1, 2, 3):
            bank[(2, obs, (m1, m2))] = np.array([row])
    return bank


def fixture_path() -> Path:
    """Filesystem path of the bundled canonical model file."""
    return Path(importlib.resources.files("mjls").joinpath("data/example_model.json"))


def demo_path() -> Path:
    """Filesystem path of the bundled feasible demo model file."""
    return Path(importlib.resources.files("mjls").joinpath("data/demo_model.json"))
