"""The three-player quantum Prisoner's Dilemma pipeline.

Game model
----------
The arbiter prepares the three-qubit state

    |psi_in> = cos(gamma/2) |000> + i sin(gamma/2) |111>,     0 <= gamma <= pi/2,

sends one qubit to each player through the correlated dephasing channel
(:func:`qpd3.channel.correlated_triple`, applied as
:func:`qpd3.channel.dephasing_mask`), the players apply local unitaries

    U(theta, alpha, beta) = [[ e^{i alpha} cos(theta/2),  i e^{i beta}  sin(theta/2)],
                             [ i e^{-i beta} sin(theta/2), e^{-i alpha} cos(theta/2)]],

the qubits return through a second channel passage, and the arbiter measures
in the entangled basis

    |chi_lmn> = cos(delta/2) |lmn> + i sin(delta/2) |l'm'n'>,   0 <= delta <= pi/2,

where l'm'n' is the bitwise complement of lmn.  The relative phase is +i on
every basis state; this uniform convention makes the eight states an
orthonormal, complete set for every delta (verified at construction) and is
the convention under which the closed-form payoff expression below holds.
Payoffs are $_k = sum_lmn table[lmn][k] * Tr(P_lmn rho_final), the table
being one read-only (8, 3) array made and validated by :func:`payoff_table`.

Move encoding: qubit value 0 is Cooperate, 1 is Defect; tensor slots are
(Alice, Bob, Charlie) left to right.  Outcome x is the row ``BITS[x]`` of
:mod:`qpd3.linalg`, whose bits 0 and 1 are also the channel's indices 0 and 3.

Closed form
-----------
:func:`closed_form_payoffs` evaluates a direct trigonometric expression for
the payoffs, transcribed from the source, whose phase-damping enters only
through the per-passage coherence factor :func:`mu_p_factor`.  Its eight
diagonal blocks follow one rule over the outcomes; its two interference
blocks (weighted cos(delta) and cos(gamma)) are kept term by term.  Measured
against the pipeline, the transcription is exact when the second passage
fully dephases (p2 = 1), and its error is mu_p2 times the error of the same
game without noise, so only the cos(gamma)-weighted block is defective.  The
evaluator is a diagnostic: it always reports its discrepancy against the
density-matrix pipeline, which is authoritative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, dephasing_mask, mu_p_factor
from .linalg import BITS, DEFAULT_ATOL, FLIP, InvariantViolation, check_density_matrix, max_abs

#: Name of the measurement-basis phase convention in use (see module docstring).
BASIS_READING = "uniform-plus-i"

#: Outcome labels in index order, the rows of BITS: bit 0 is Cooperate, bit 1 is Defect.
OUTCOMES = tuple("".join(map(str, bits)) for bits in BITS)

PLAYER_NAMES = ("alice", "bob", "charlie")
#: The players' keys in ``--strategy A:...``, in the same order.
PLAYER_KEYS = ("A", "B", "C")


def check_moves(moves) -> None:
    """Refuse the first (theta, alpha, beta) in ``moves`` outside theta in [0, pi] and
    alpha, beta in [-pi, pi], checked in that order; NaN is outside."""
    for theta, alpha, beta in moves:
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {theta}")
        if not -math.pi <= alpha <= math.pi:
            raise ValueError(f"alpha must be in [-pi, pi], got {alpha}")
        if not -math.pi <= beta <= math.pi:
            raise ValueError(f"beta must be in [-pi, pi], got {beta}")


#: The two classical moves as read-only (theta, alpha, beta) rows.
COOPERATE, DEFECT = np.array([[0.0, 0.0, 0.0], [math.pi, 0.0, 0.0]])
COOPERATE.flags.writeable = DEFECT.flags.writeable = False


def _is_number(x) -> bool:
    """An int or float of magnitude at most 1e300 (NaN is not); not a boolean.

    The bound keeps the sums of entries that the evaluations form finite.
    """
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= 1e300


def payoff_table(entries) -> np.ndarray:
    """Validate a mapping outcome label -> (Alice, Bob, Charlie) payoffs.

    Returns the table as a read-only (8, 3) float array, rows in outcome order.
    """
    missing = [k for k in OUTCOMES if k not in entries]
    if missing:
        raise ValueError(f"payoff table is missing outcomes: {missing}")
    extra = [k for k in entries if k not in OUTCOMES]
    if extra:
        raise ValueError(f"payoff table has unknown outcomes: {extra}")
    for k in OUTCOMES:
        v = entries[k]
        if not (isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_number, v))):
            raise ValueError(f"payoff entry for {k} must be 3 numbers within +-1e300, "
                             f"got {v!r}")
    table = np.array([entries[k] for k in OUTCOMES], dtype=float)
    table.flags.writeable = False
    return table


#: Classical payoff table, rows (Alice, Bob, Charlie) in outcome order.
DEFAULT_TABLE = payoff_table({
    "000": (3.0, 3.0, 3.0),
    "001": (2.0, 2.0, 5.0),
    "010": (2.0, 5.0, 2.0),
    "011": (0.0, 4.0, 4.0),
    "100": (5.0, 2.0, 2.0),
    "101": (4.0, 0.0, 4.0),
    "110": (4.0, 4.0, 0.0),
    "111": (1.0, 1.0, 1.0),
})


@dataclass(frozen=True, eq=False)
class GameConfig:
    """A full game instance.

    ``passage1`` is the channel from the arbiter to the players, ``passage2``
    the channel back; the two are independent.  ``strategies``, the players'
    (theta, alpha, beta) rows, and ``payoffs`` other than DEFAULT_TABLE are
    checked (:func:`check_moves`, :func:`payoff_table`) and kept as read-only copies.
    """

    gamma: float
    delta: float
    passage1: ChannelParams
    passage2: ChannelParams
    strategies: np.ndarray
    payoffs: np.ndarray = field(default_factory=lambda: DEFAULT_TABLE)

    def __post_init__(self):
        for name, val in (("gamma", self.gamma), ("delta", self.delta)):
            if not 0.0 <= val <= math.pi / 2:
                raise ValueError(f"{name} must be in [0, pi/2], got {val}")
        try:
            moves = np.array(self.strategies, dtype=float)
        except (TypeError, ValueError):
            moves = np.empty(0)  # ragged, or not numbers: refused below
        if moves.shape != (3, 3):
            raise ValueError("strategies must be 3 (theta, alpha, beta) rows of numbers")
        check_moves(moves.tolist())
        moves.setflags(write=False)
        object.__setattr__(self, "strategies", moves)
        if self.payoffs is not DEFAULT_TABLE:
            try:
                table = np.array(self.payoffs, dtype=float)
            except (TypeError, ValueError):
                table = np.empty(0)  # ragged, or not numbers: refused below
            if table.shape != (8, 3) or not np.all(np.abs(table) <= 1e300):
                raise ValueError("payoffs must be an (8, 3) table of numbers within +-1e300")
            table.setflags(write=False)
            object.__setattr__(self, "payoffs", table)


def initial_state(gamma: float) -> np.ndarray:
    """Density matrix of cos(gamma/2)|000> + i sin(gamma/2)|111>."""
    if not (np.isfinite(gamma) and 0.0 <= gamma <= math.pi / 2):
        raise ValueError(f"gamma must be in [0, pi/2], got {gamma}")
    psi = np.zeros(8, dtype=complex)
    psi[0] = math.cos(gamma / 2)
    psi[7] = 1j * math.sin(gamma / 2)
    return np.outer(psi, psi.conj())


def strategy_unitary(theta, alpha, beta) -> np.ndarray:
    """The 2x2 unitaries for (theta, alpha, beta), broadcast over array arguments.

    Returns an array of shape ``broadcast_shape + (2, 2)``; scalar angles
    give one 2x2 matrix.  Ranges are validated by :func:`check_moves`.
    """
    half = np.multiply(theta, 0.5)
    diag = np.exp(np.multiply(alpha, 1j)) * np.cos(half)
    off = 1j * np.exp(np.multiply(beta, 1j)) * np.sin(half)
    diag, off = np.broadcast_arrays(diag, off)
    u = np.empty(diag.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = diag
    u[..., 0, 1] = off
    u[..., 1, 0] = -off.conj()
    u[..., 1, 1] = diag.conj()
    return u


@functools.lru_cache(maxsize=128)
def measurement_projectors(delta: float) -> np.ndarray:
    """(8, 8, 8) stack of the rank-1 projectors onto the entangled measurement basis.

    Ordered 000..111; each |chi_lmn> pairs |lmn> with its bitwise complement
    at relative phase +i (the ``uniform-plus-i`` convention).  Completeness
    and orthonormality are checked at construction.  The returned array is
    read-only and shared between calls.
    """
    if not (np.isfinite(delta) and 0.0 <= delta <= math.pi / 2):
        raise ValueError(f"delta must be in [0, pi/2], got {delta}")
    c = math.cos(delta / 2)
    s = math.sin(delta / 2)
    # Row m is |chi_m>: c on |m> and i s on its complement |7 - m>.
    vectors = c * np.eye(8) + 1j * s * FLIP
    # Construction-time soundness: the eight states must form an orthonormal,
    # complete set for the payoff decomposition to be meaningful.
    projectors = np.einsum("mx,my->mxy", vectors, vectors.conj())
    if max_abs(projectors.sum(axis=0) - np.eye(8)) > DEFAULT_ATOL:
        raise InvariantViolation("measurement projectors do not sum to identity")
    if max_abs(vectors.conj() @ vectors.T - np.eye(8)) > DEFAULT_ATOL:
        raise InvariantViolation("measurement states are not orthonormal")
    projectors.flags.writeable = False
    return projectors


def _coherence_kernel(params: ChannelParams) -> np.ndarray:
    """K = I + mu_p_factor(params) J, J = FLIP: the mask on (x, x) and (x, 7 - x)."""
    return np.eye(8) + mu_p_factor(params) * FLIP


def conjugated(rho: np.ndarray, strategies) -> np.ndarray:
    """U rho U† for the profile unitary U = u_A x u_B x u_C of the (3, 3) ``strategies``."""
    a, b, c = strategy_unitary(*strategies.T)
    ab = (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
    u = (ab[:, None, :, None] * c[None, :, None, :]).reshape(8, 8)
    return u @ rho @ u.conj().T


def _state_and_observables(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """(rho1, W): the once-dephased state and the (3, 8, 8) payoff observables.

    rho_in and every P_m occupy only the entries (x, x) and (x, 7 - x), where a
    passage's mask equals K = I + mu_p_factor J, so rho1 = K1 o rho_in.  As K2
    is real and symmetric, Tr(P_m (K2 o rho)) = Tr((K2 o P_m) rho): the
    measurement, the second passage and the payoff table fold into one
    observable per player, W_k = sum_m table[m, k] (K2 o P_m), and a payoff
    is Tr(W_k U rho1 U†).
    """
    rho1 = _coherence_kernel(cfg.passage1) * initial_state(cfg.gamma)
    projectors = _coherence_kernel(cfg.passage2) * measurement_projectors(cfg.delta)
    return rho1, np.einsum("mk,mxy->kxy", cfg.payoffs, projectors)


def payoffs(cfg: GameConfig) -> tuple[float, float, float]:
    """Payoffs (Alice, Bob, Charlie) as Tr(W_k U rho1 U†); see :func:`_state_and_observables`."""
    rho1, observables = _state_and_observables(cfg)
    pay = np.einsum("kxy,yx->k", observables, conjugated(rho1, cfg.strategies)).real
    return (float(pay[0]), float(pay[1]), float(pay[2]))


def deviation_form(cfg: GameConfig, idx: int) -> np.ndarray:
    """4x4 Hermitian Q with payoff_idx = vec(u)† Q vec(u) when player ``idx`` plays u.

    The other two players keep their strategies from ``cfg`` (the entry at
    ``idx`` is ignored); vec(u) is u flattened row-major.  With R = V rho1 V†,
    V the profile with COOPERATE (the identity) in slot ``idx``, the payoff is
    Tr(W_idx u R u†), so Q[dc, ab] = sum W_idx[do, ap] R[bp, co] over the
    other two qubits o and p.
    """
    rho1, observables = _state_and_observables(cfg)
    profile = cfg.strategies.copy()
    profile[idx] = COOPERATE
    rest = conjugated(rho1, profile)
    w, r = (np.moveaxis(x.reshape((2,) * 6), (idx, idx + 3), (0, 3)).reshape(2, 4, 2, 4)
            for x in (observables[idx], rest))
    return np.einsum("doap,bpco->dcab", w, r).reshape(4, 4)


def outcome_probabilities(cfg: GameConfig) -> np.ndarray:
    """Probabilities of the eight measurement outcomes, in label order.

    The validated evaluation runs the full masks M = :func:`dephasing_mask`:
    rho1 = M1 o rho_in and rho3 = M2 o (U rho1 U†) must pass
    :func:`check_density_matrix`, and the probabilities must sum to 1, none
    below -DEFAULT_ATOL (rounding residue above it is clamped to 0).
    """
    rho1 = check_density_matrix(dephasing_mask(cfg.passage1) * initial_state(cfg.gamma))
    rho3 = check_density_matrix(dephasing_mask(cfg.passage2) * conjugated(rho1, cfg.strategies))
    probs = np.einsum("mxy,yx->m", measurement_projectors(cfg.delta), rho3).real
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise InvariantViolation(f"outcome probabilities sum to {total}, not 1")
    if probs.min() < -DEFAULT_ATOL:
        raise InvariantViolation(f"outcome probability {probs.min():.3e} is negative")
    probs[probs < 0.0] = 0.0
    return probs


def pipeline_payoffs(cfg: GameConfig) -> tuple[float, float, float]:
    """Expected payoffs (Alice, Bob, Charlie) from the density-matrix pipeline."""
    probs = outcome_probabilities(cfg)
    pay = probs @ cfg.payoffs
    return (float(pay[0]), float(pay[1]), float(pay[2]))


#: _DEFECTS[x, q] is True when player q defects in outcome x.
_DEFECTS = BITS.astype(bool)

#: phi_x = _PHASE_SIGNS[x] @ (alphas, betas): alpha_q if player q cooperates, else -beta_q.
_PHASE_SIGNS = np.hstack([~_DEFECTS, -1.0 * _DEFECTS])

#: (-1)^popcount(x): the outcome signs of the first interference block.
_PARITY = (-1.0) ** _DEFECTS.sum(axis=1)


def closed_form_payoffs(cfg: GameConfig, pipeline) -> dict:
    """Evaluate the closed-form payoff expression and compare to the pipeline.

    ``pipeline`` is ``pipeline_payoffs(cfg)``, the authoritative payoffs.
    Returns the report as a plain dict: ``payoffs``, ``pipeline_payoffs``,
    ``per_player_discrepancy``, ``max_abs_discrepancy``, ``basis_reading``
    and the scalar ``terms`` the expression is built from.

    With T the (8, 3) payoff table, outcome x and its complement 7 - x enter
    one diagonal block,

        prod_q (s_q if bit q of x else c_q)
            * (eta1 T[x] + eta2 T[7-x] + (T[x] - T[7-x]) mu_p1 mu_p2 xi cos(2 phi_x)),

    phi_x = sum_q (-beta_q if bit q of x else alpha_q).  The two interference
    blocks are kept term by term as found, the repeated sin(theta_2) of the
    second included.  That cos(gamma)-weighted block is the defective one
    (see the module docstring), so agreement is expected only where its
    weight mu_p2 cos(gamma) sin(delta) vanishes, as at gamma = pi/2 or
    delta = 0; elsewhere the discrepancy is reported, never asserted away.
    """
    g, d = cfg.gamma, cfg.delta
    cos, sin = math.cos, math.sin
    mu_p1, mu_p2 = mu_p_factor(cfg.passage1), mu_p_factor(cfg.passage2)
    eta1 = cos(g / 2) ** 2 * cos(d / 2) ** 2 + sin(g / 2) ** 2 * sin(d / 2) ** 2
    eta2 = sin(g / 2) ** 2 * cos(d / 2) ** 2 + sin(d / 2) ** 2 * cos(g / 2) ** 2
    xi = 0.5 * sin(d) * sin(g)
    (t1, a1, b1), (t2, a2, b2), (t3, a3, b3) = cfg.strategies.tolist()
    c = [cos(t / 2) ** 2 for t in (t1, t2, t3)]
    s = [sin(t / 2) ** 2 for t in (t1, t2, t3)]
    table = cfg.payoffs
    complement = table[::-1]  # T[7 - x]
    gap = table - complement
    # The eight diagonal blocks, one per outcome x, in one rule.
    weight = np.where(_DEFECTS, s, c).prod(axis=1)
    phi = _PHASE_SIGNS @ [a1, a2, a3, b1, b2, b3]
    coherence = (mu_p1 * mu_p2 * xi * np.cos(2 * phi))[:, None]
    values = weight @ (eta1 * table + eta2 * complement + gap * coherence)
    # First interference block, weight mu_p1/8 * cos(delta).
    values += (
        (mu_p1 / 8.0) * (cos(d / 2) ** 2 - sin(d / 2) ** 2) * sin(g)
        * sin(t1) * sin(t2) * sin(t3) * cos(a1 + a2 + a3 - b1 - b2 - b3) * (_PARITY @ table)
    )
    # Second interference block, weight mu_p2/8 * cos(gamma): four outcome
    # pairs, each with its own phase; the repeated sin(t2) factor is
    # transcribed as found.
    pairs = gap[::2]  # T[0] - T[7], T[2] - T[5], T[4] - T[3], T[6] - T[1]
    phases = [a1 + a2 + a3 - b1 - b2 - b3, a1 - a2 + a3 + b1 - b2 + b3,
              a1 - a2 - a3 + b1 - b2 - b3, a1 + a2 - a3 + b1 + b2 - b3]
    block = sin(d) * sin(t1) * sin(t2) * sin(t2) * (np.cos(phases) @ pairs)
    values += block * (mu_p2 / 8.0) * (cos(g / 2) ** 2 - sin(g / 2) ** 2)

    payoffs = values.tolist()
    diffs = [abs(a - b) for a, b in zip(payoffs, pipeline)]
    return {
        "payoffs": payoffs,
        "pipeline_payoffs": list(pipeline),
        "per_player_discrepancy": diffs,
        "max_abs_discrepancy": max(diffs),
        "basis_reading": BASIS_READING,
        "terms": {"mu_p1": mu_p1, "mu_p2": mu_p2, "eta1": eta1, "eta2": eta2, "xi": xi,
                  "c": c, "s": s},
    }
