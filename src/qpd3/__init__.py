"""Three-player quantum Prisoner's Dilemma under correlated dephasing noise.

A density-matrix simulator for the quantized game (entangled initial state,
local unitary strategies, entangled measurement basis) played through a
memoryful dephasing channel, plus sweep/surface/equilibrium analysis tools
and a CLI.  The Python API lives in the submodules (``qpd3.game``,
``qpd3.channel``, ``qpd3.analysis``, ...); this package exports nothing else.
"""

__version__ = "0.1.0"
