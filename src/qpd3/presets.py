"""Canned game configurations: the paper's figures, their profiles and games.

:data:`FIGURES` is the one definition of the CLI presets ``fig2``-``fig5``.
Two strategy profiles, both played in a maximally entangled game
(gamma = delta = pi/2) built by :func:`entangled_config`:

* :data:`SWEEP_PROFILE`: Alice and Bob play the phaseless half-rotation
  (pi/2, 0, 0) and Charlie plays the full quantum strategy (pi/2, pi/2, pi/2);
* :data:`SURFACE_PROFILE`: all three play (pi/2, 0, 0), the starting point
  of the scan of Alice's (alpha1, theta1) plane with beta1 = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelParams
from .game import GameConfig

HALF_PI = math.pi / 2

#: Strategies for the decoherence/memory sweeps (quantum player: Charlie).
SWEEP_PROFILE = np.array([(HALF_PI, 0.0, 0.0)] * 2 + [(HALF_PI, HALF_PI, HALF_PI)])

#: Strategies for the Alice (alpha1, theta1) surface scan.
SURFACE_PROFILE = np.array([(HALF_PI, 0.0, 0.0)] * 3)
SWEEP_PROFILE.flags.writeable = SURFACE_PROFILE.flags.writeable = False

#: figure -> (swept variable or None, p, mu, default profile): sweeps fig2 and
#: fig3 leave the swept value None, surfaces fig4 and fig5 sweep nothing.
FIGURES = {
    "fig2": ("p", None, 0.0, SWEEP_PROFILE),
    "fig3": ("mu", 0.3, None, SWEEP_PROFILE),
    "fig4": (None, 0.3, 0.3, SURFACE_PROFILE),
    "fig5": (None, 0.7, 0.7, SURFACE_PROFILE),
}


def entangled_config(p: float, mu: float, strategies) -> GameConfig:
    """Maximally entangled game with (p, mu) in both channel passages."""
    params = ChannelParams(p=p, mu=mu)
    return GameConfig(HALF_PI, HALF_PI, params, params, strategies)


def classical_config(strategies) -> GameConfig:
    """Unentangled, noiseless embedding of the classical game."""
    off = ChannelParams(p=0.0, mu=0.0)
    return GameConfig(0.0, 0.0, off, off, strategies)
