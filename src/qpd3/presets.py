"""Canned game configurations used by the sweeps, surfaces and the CLI presets.

Two families:

* the sweep profile: a maximally entangled game (gamma = delta = pi/2) where
  Alice and Bob play the phaseless half-rotation (pi/2, 0, 0) and Charlie
  plays the full quantum strategy (pi/2, pi/2, pi/2);
* the surface profile: same entanglement, Bob and Charlie fixed at
  (pi/2, 0, 0) while Alice's (alpha1, theta1) plane is scanned with beta1 = 0.
"""

from __future__ import annotations

import math

from .channel import ChannelParams
from .game import GameConfig, StrategyParams

HALF_PI = math.pi / 2


def sweep_profile() -> tuple[StrategyParams, StrategyParams, StrategyParams]:
    """Strategies for the decoherence/memory sweeps (quantum player: Charlie)."""
    return (
        StrategyParams(HALF_PI, 0.0, 0.0),
        StrategyParams(HALF_PI, 0.0, 0.0),
        StrategyParams(HALF_PI, HALF_PI, HALF_PI),
    )


def surface_profile() -> tuple[StrategyParams, StrategyParams, StrategyParams]:
    """Strategies for the Alice (alpha1, theta1) surface scan."""
    return (
        StrategyParams(HALF_PI, 0.0, 0.0),
        StrategyParams(HALF_PI, 0.0, 0.0),
        StrategyParams(HALF_PI, 0.0, 0.0),
    )


def sweep_config(p: float, mu: float) -> GameConfig:
    params = ChannelParams(p=p, mu=mu)
    return GameConfig(
        gamma=HALF_PI,
        delta=HALF_PI,
        passage1=params,
        passage2=params,
        strategies=sweep_profile(),
    )


def surface_config(p: float, mu: float) -> GameConfig:
    params = ChannelParams(p=p, mu=mu)
    return GameConfig(
        gamma=HALF_PI,
        delta=HALF_PI,
        passage1=params,
        passage2=params,
        strategies=surface_profile(),
    )


def classical_config(strategies) -> GameConfig:
    """Unentangled, noiseless embedding of the classical game."""
    off = ChannelParams(p=0.0, mu=0.0)
    return GameConfig(
        gamma=0.0,
        delta=0.0,
        passage1=off,
        passage2=off,
        strategies=tuple(strategies),
    )
