"""Bundled worked-example model: two coupled jump systems, fully specified.

System 1 has two modes on a 2-dimensional state, System 2 three modes on a
3-dimensional state.  System 1's rate matrix switches with which of three
shells |x2|^2 falls in (boundaries 5 and 10); System 2's with which of two
shells |x1|^2 falls in (boundary 10).  Both systems are disturbance-free.

Two entries of the published data set are repaired here, recorded in the
model file's "notes" field:

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

from .model import (
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
)

__all__ = [
    "example_model",
    "demo_model",
    "example_initial_state",
    "example_printed_gains",
    "fixture_path",
    "demo_path",
    "FIXTURE_NOTES",
    "DEMO_NOTES",
]

FIXTURE_NOTES = (
    "Rate matrices repaired to valid generators: lambda rows printed with "
    "negative off-diagonal rates ([-0.4,0.4], [-0.8,0.8], [-1.2,1.2]) are "
    "sign-flipped to [0.4,-0.4], [0.8,-0.8], [1.2,-1.2]; mu2 row 2 diagonal "
    "set to -0.6 so the row sums to zero (printed -0.5 leaves a 0.1 surplus)."
)

A1 = [[5.0, 2.0], [2.0, 4.0]]
B1_1 = [[1.0], [2.0]]
B1_2 = [[2.0], [1.0]]

A2_1 = [[3.0, 2.0, 4.0], [5.0, 2.0, 6.0], [-9.0, 0.0, 2.0]]
A2_2 = [[1.0, 2.0, 3.0], [2.0, 1.0, 0.0], [5.0, 6.0, 3.0]]
A2_3 = [[4.0, -1.0, 8.0], [5.0, 8.0, 0.0], [-1.0, 7.0, 5.0]]
B2_1 = [[1.0], [2.0], [1.0]]
B2_2 = [[1.0], [0.0], [1.0]]
B2_3 = [[2.0], [1.0], [0.0]]

# Sign-corrected generators (see module docstring).
LAMBDA = [
    [[-0.6, 0.6], [0.4, -0.4]],
    [[-0.2, 0.2], [0.8, -0.8]],
    [[-0.5, 0.5], [1.2, -1.2]],
]
MU = [
    [[-0.8, 0.2, 0.6], [0.2, -0.9, 0.7], [0.5, 0.4, -0.9]],
    [[-0.4, 0.2, 0.2], [0.2, -0.6, 0.4], [0.5, 0.6, -1.1]],
]

# Emission matrices, indexed by the system's own region.
P_OBS = [
    [[0.9, 0.1], [0.1, 0.9]],
    [[0.7, 0.3], [0.3, 0.7]],
]
Q_OBS = [
    [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    [[0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.2, 0.1, 0.7]],
    [[0.7, 0.1, 0.2], [0.1, 0.7, 0.2], [0.1, 0.2, 0.7]],
]

X1_0 = (-6.0, 5.0)
X2_0 = (2.0, -5.5, 8.0)


def example_model() -> InterdependentModel:
    """The bundled two-system model with repaired rate matrices."""
    sys1 = JumpLinearSystem(
        state_dim=2,
        input_dim=1,
        disturbance_dim=1,
        modes=(
            ModeDynamics(A1, B1_1, np.zeros((2, 1))),
            ModeDynamics(A1, B1_2, np.zeros((2, 1))),
        ),
    )
    sys2 = JumpLinearSystem(
        state_dim=3,
        input_dim=1,
        disturbance_dim=1,
        modes=(
            ModeDynamics(A2_1, B2_1, np.zeros((3, 1))),
            ModeDynamics(A2_2, B2_2, np.zeros((3, 1))),
            ModeDynamics(A2_3, B2_3, np.zeros((3, 1))),
        ),
    )
    return InterdependentModel(
        sys1=sys1,
        sys2=sys2,
        part1=RegionPartition((10.0,)),
        part2=RegionPartition((5.0, 10.0)),
        rates1=RateFamily(tuple(np.array(g) for g in LAMBDA)),
        rates2=RateFamily(tuple(np.array(g) for g in MU)),
        obs1=ObservationModel(tuple(np.array(a) for a in P_OBS)),
        obs2=ObservationModel(tuple(np.array(a) for a in Q_OBS)),
    )


def example_initial_state() -> tuple[np.ndarray, np.ndarray]:
    """Initial conditions used by the published simulation figures."""
    return np.array(X1_0), np.array(X2_0)


DEMO_NOTES = (
    "Same dynamics, partitions and observation matrices as the published "
    "example, with every transition rate scaled by 0.1.  The published "
    "rates make System 1's synthesis problem sit exactly on the "
    "feasibility boundary (provably no strictly feasible point exists); "
    "the scaled rates leave a usable margin, so this model demonstrates "
    "the full synthesize/certify/simulate pipeline."
)

DEMO_RATE_SCALE = 0.1


def demo_model() -> InterdependentModel:
    """Feasible variant of the example: transition rates scaled by 0.1."""
    base = example_model()
    return InterdependentModel(
        sys1=base.sys1,
        sys2=base.sys2,
        part1=base.part1,
        part2=base.part2,
        rates1=RateFamily(tuple(DEMO_RATE_SCALE * g for g in base.rates1.matrices)),
        rates2=RateFamily(tuple(DEMO_RATE_SCALE * g for g in base.rates2.matrices)),
        obs1=base.obs1,
        obs2=base.obs2,
    )


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
