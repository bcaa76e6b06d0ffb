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
Payoffs are $_k = sum_lmn table[lmn][k] * Tr(P_lmn rho_final).

Move encoding: qubit value 0 is Cooperate, 1 is Defect; tensor slots are
(Alice, Bob, Charlie) left to right, matching the payoff-table outcome labels.

Closed form
-----------
:func:`closed_form_payoffs` evaluates, term by term, a direct trigonometric
expression for the payoffs whose phase-damping enters only through the
per-passage coherence factor :func:`mu_p_factor`.  The expression is exact at
gamma = delta = pi/2 but its two interference blocks (the ones proportional
to cos(delta) and cos(gamma)) are transcribed from a source with known
defects, so the evaluator is a diagnostic: it always reports its discrepancy
against the density-matrix pipeline, which is authoritative.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, dephasing_mask
from .linalg import DEFAULT_ATOL, InvariantViolation, check_density_matrix, max_abs

#: Name of the measurement-basis phase convention in use (see module docstring).
BASIS_READING = "uniform-plus-i"

#: Outcome labels in index order: bit 0 is Cooperate, bit 1 is Defect.
OUTCOMES = ("000", "001", "010", "011", "100", "101", "110", "111")

#: Classical payoff table: outcome -> (Alice, Bob, Charlie).
DEFAULT_TABLE = {
    "000": (3.0, 3.0, 3.0),
    "001": (2.0, 2.0, 5.0),
    "010": (2.0, 5.0, 2.0),
    "011": (0.0, 4.0, 4.0),
    "100": (5.0, 2.0, 2.0),
    "101": (4.0, 0.0, 4.0),
    "110": (4.0, 4.0, 0.0),
    "111": (1.0, 1.0, 1.0),
}

PLAYER_NAMES = ("alice", "bob", "charlie")


@dataclass(frozen=True)
class StrategyParams:
    """One player's move: theta in [0, pi], alpha and beta in [-pi, pi]."""

    theta: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.theta) and 0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        for name, val in (("alpha", self.alpha), ("beta", self.beta)):
            if not (np.isfinite(val) and -math.pi <= val <= math.pi):
                raise ValueError(f"{name} must be in [-pi, pi], got {val}")


#: The two classical moves as strategy parameters.
COOPERATE = StrategyParams(0.0, 0.0, 0.0)
DEFECT = StrategyParams(math.pi, 0.0, 0.0)


def _is_number(x) -> bool:
    """An int or float within the finite float range (NaN is not); not a boolean."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class PayoffTable:
    """Payoff triples (Alice, Bob, Charlie) for the eight classical outcomes."""

    entries: dict = field(default_factory=lambda: dict(DEFAULT_TABLE))

    def __post_init__(self):
        missing = [k for k in OUTCOMES if k not in self.entries]
        if missing:
            raise ValueError(f"payoff table is missing outcomes: {missing}")
        extra = [k for k in self.entries if k not in OUTCOMES]
        if extra:
            raise ValueError(f"payoff table has unknown outcomes: {extra}")
        clean = {}
        for k in OUTCOMES:
            v = self.entries[k]
            if not (isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_number, v))):
                raise ValueError(f"payoff entry for {k} must be 3 finite numbers, got {v!r}")
            clean[k] = tuple(float(x) for x in v)
        object.__setattr__(self, "entries", clean)

    def payoff(self, outcome: str) -> tuple[float, float, float]:
        if outcome not in self.entries:
            raise ValueError(f"unknown outcome label {outcome!r}")
        return self.entries[outcome]

    def as_array(self) -> np.ndarray:
        """(8, 3) array in outcome-index order."""
        return np.array([self.entries[k] for k in OUTCOMES])

    @classmethod
    def from_json(cls, path) -> "PayoffTable":
        """Load a table from a JSON object mapping outcome labels to triples."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("payoff table file must contain a JSON object")
        return cls(entries=data)


@dataclass(frozen=True)
class GameConfig:
    """A full game instance.

    ``passage1`` is the channel from the arbiter to the players, ``passage2``
    the channel back; the two are independent.
    """

    gamma: float
    delta: float
    passage1: ChannelParams
    passage2: ChannelParams
    strategies: tuple[StrategyParams, StrategyParams, StrategyParams]
    payoffs: PayoffTable = field(default_factory=PayoffTable)

    def __post_init__(self):
        for name, val in (("gamma", self.gamma), ("delta", self.delta)):
            if not (np.isfinite(val) and 0.0 <= val <= math.pi / 2):
                raise ValueError(f"{name} must be in [0, pi/2], got {val}")
        strategies = tuple(self.strategies)
        if len(strategies) != 3 or not all(isinstance(s, StrategyParams) for s in strategies):
            raise ValueError("strategies must be a triple of StrategyParams")
        object.__setattr__(self, "strategies", strategies)


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
    give one 2x2 matrix.  Ranges are validated by :class:`StrategyParams`.
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


def _profile_unitaries(strategies) -> np.ndarray:
    """(3, 2, 2) stack of the players' unitaries."""
    return strategy_unitary(*np.array([(s.theta, s.alpha, s.beta) for s in strategies]).T)


def _kron3(u: np.ndarray) -> np.ndarray:
    """u[0] x u[1] x u[2] for a (3, 2, 2) stack (the 8x8 profile unitary)."""
    ab = (u[0][:, None, :, None] * u[1][None, :, None, :]).reshape(4, 4)
    return (ab[:, None, :, None] * u[2][None, :, None, :]).reshape(8, 8)


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
    vectors = c * np.eye(8) + 1j * s * np.eye(8)[::-1]
    # Construction-time soundness: the eight states must form an orthonormal,
    # complete set for the payoff decomposition to be meaningful.
    projectors = np.einsum("mx,my->mxy", vectors, vectors.conj())
    if max_abs(projectors.sum(axis=0) - np.eye(8)) > DEFAULT_ATOL:
        raise InvariantViolation("measurement projectors do not sum to identity")
    if max_abs(vectors.conj() @ vectors.T - np.eye(8)) > DEFAULT_ATOL:
        raise InvariantViolation("measurement states are not orthonormal")
    projectors.flags.writeable = False
    return projectors


@functools.lru_cache(maxsize=256)
def _channel_cached(params: ChannelParams) -> np.ndarray:
    return dephasing_mask(params)


#: Index letters per qubit for :meth:`PreparedGame.deviation_form`'s
#: contraction Tr(W U rho U†) = sum W[d,a] U[a,b] rho[b,c] conj(U[d,c]).
_D, _A, _B, _C = "abc", "def", "ghi", "jkl"


class PreparedGame:
    """A game with everything but the strategies precomputed.

    Used by parameter sweeps and strategy searches, which evaluate many
    strategy profiles against fixed (gamma, delta, noise) settings.  Both
    channel passages act as elementwise masks (:func:`dephasing_mask`).  As
    the second mask M2 is real and symmetric, Tr(P_m (M2 o rho)) equals
    Tr((M2 o P_m) rho), so the measurement, the second passage and the payoff
    table fold into one observable per player,
    W_k = sum_m table[m, k] (M2 o P_m), and a payoff is Tr(W_k U rho1 U†).
    """

    def __init__(self, cfg: GameConfig):
        self.rho1 = _channel_cached(cfg.passage1) * initial_state(cfg.gamma)
        self.mask2 = _channel_cached(cfg.passage2)
        self.projectors = measurement_projectors(cfg.delta)
        self.table = cfg.payoffs.as_array()
        self._observables = None

    @property
    def observables(self) -> np.ndarray:
        """(3, 8, 8) stack of the W_k, built on first use: the validated path needs none."""
        if self._observables is None:
            self._observables = np.einsum("mk,mxy->kxy", self.table, self.mask2 * self.projectors)
        return self._observables

    def conjugated(self, strategies) -> np.ndarray:
        """rho2 = U rho1 U†, the once-dephased state after the players' moves."""
        u = _kron3(_profile_unitaries(strategies))
        return u @ self.rho1 @ u.conj().T

    def payoffs(self, strategies) -> tuple[float, float, float]:
        pay = np.einsum("kxy,yx->k", self.observables, self.conjugated(strategies)).real
        return (float(pay[0]), float(pay[1]), float(pay[2]))

    def deviation_form(self, strategies, idx: int, k: int) -> np.ndarray:
        """4x4 Hermitian Q with payoff_k = vec(u)† Q vec(u) when player ``idx`` plays u.

        The other two players keep their strategies from ``strategies``
        (the entry at ``idx`` is ignored); vec(u) is u flattened row-major.
        """
        us = _profile_unitaries(strategies)
        others = [q for q in range(3) if q != idx]
        subscripts = ",".join(
            [_D + _A, _B + _C]
            + [_A[q] + _B[q] for q in others]
            + [_D[q] + _C[q] for q in others]
        ) + "->" + _D[idx] + _C[idx] + _A[idx] + _B[idx]
        form = np.einsum(
            subscripts,
            self.observables[k].reshape((2,) * 6),
            self.rho1.reshape((2,) * 6),
            *(us[q] for q in others),
            *(us[q].conj() for q in others),
        )
        return form.reshape(4, 4)


def outcome_probabilities(cfg: GameConfig) -> np.ndarray:
    """Probabilities of the eight measurement outcomes, in label order.

    The validated evaluation: the state after each channel passage,
    rho1 = M1 o rho_in and rho3 = M2 o (U rho1 U†), must pass
    :func:`check_density_matrix`, and the probabilities must sum to 1.
    """
    prepared = PreparedGame(cfg)
    check_density_matrix(prepared.rho1)
    rho3 = check_density_matrix(prepared.mask2 * prepared.conjugated(cfg.strategies))
    probs = np.einsum("mxy,yx->m", prepared.projectors, rho3).real
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise InvariantViolation(f"outcome probabilities sum to {total}, not 1")
    return probs


def pipeline_payoffs(cfg: GameConfig) -> tuple[float, float, float]:
    """Expected payoffs (Alice, Bob, Charlie) from the density-matrix pipeline."""
    probs = outcome_probabilities(cfg)
    pay = probs @ cfg.payoffs.as_array()
    return (float(pay[0]), float(pay[1]), float(pay[2]))


def mu_p_factor(params: ChannelParams) -> float:
    """Coherence survival factor of one channel passage.

    Literal polynomial
        (1 - p)(1 - 2p + 4 mu p - 2 mu^2 p + p^2 - 2 mu p^2 + mu^2 p^2);
    equals the factor by which one passage damps the <000|rho|111> coherence.
    Limits: 1 at p=0, (1-p)^3 at mu=0, (1-p) at mu=1.
    """
    p, mu = params.p, params.mu
    return (1.0 - p) * (
        1.0 - 2.0 * p + 4.0 * mu * p - 2.0 * mu**2 * p
        + p**2 - 2.0 * mu * p**2 + mu**2 * p**2
    )


@dataclass(frozen=True)
class ClosedFormTerms:
    """The scalar factors entering the closed-form payoff expression."""

    mu_p1: float
    mu_p2: float
    eta1: float
    eta2: float
    xi: float
    c: tuple[float, float, float]
    s: tuple[float, float, float]


@dataclass(frozen=True)
class ClosedFormResult:
    """Closed-form payoffs plus their discrepancy against the pipeline."""

    payoffs: tuple[float, float, float]
    pipeline: tuple[float, float, float]
    per_player_discrepancy: tuple[float, float, float]
    max_abs_discrepancy: float
    terms: ClosedFormTerms
    basis_reading: str = BASIS_READING

    def as_dict(self) -> dict:
        return {
            "payoffs": list(self.payoffs),
            "pipeline_payoffs": list(self.pipeline),
            "per_player_discrepancy": list(self.per_player_discrepancy),
            "max_abs_discrepancy": self.max_abs_discrepancy,
            "basis_reading": self.basis_reading,
            "terms": {
                "mu_p1": self.terms.mu_p1,
                "mu_p2": self.terms.mu_p2,
                "eta1": self.terms.eta1,
                "eta2": self.terms.eta2,
                "xi": self.terms.xi,
                "c": list(self.terms.c),
                "s": list(self.terms.s),
            },
        }


def closed_form_terms(cfg: GameConfig) -> ClosedFormTerms:
    g, d = cfg.gamma, cfg.delta
    thetas = [s.theta for s in cfg.strategies]
    return ClosedFormTerms(
        mu_p1=mu_p_factor(cfg.passage1),
        mu_p2=mu_p_factor(cfg.passage2),
        eta1=math.cos(g / 2) ** 2 * math.cos(d / 2) ** 2
        + math.sin(g / 2) ** 2 * math.sin(d / 2) ** 2,
        eta2=math.sin(g / 2) ** 2 * math.cos(d / 2) ** 2
        + math.sin(d / 2) ** 2 * math.cos(g / 2) ** 2,
        xi=0.5 * math.sin(d) * math.sin(g),
        c=tuple(math.cos(t / 2) ** 2 for t in thetas),
        s=tuple(math.sin(t / 2) ** 2 for t in thetas),
    )


def closed_form_payoffs(cfg: GameConfig, pipeline) -> ClosedFormResult:
    """Evaluate the closed-form payoff expression and compare to the pipeline.

    ``pipeline`` is ``pipeline_payoffs(cfg)``, the authoritative payoffs the
    closed form is compared against.

    The expression is transcribed term by term from its source, including two
    interference blocks (proportional to cos(delta) and cos(gamma)) that are
    known to be garbled there: the second block repeats a sin(theta_2) factor
    where sin(theta_3) is plausibly intended.  Agreement with the pipeline is
    therefore expected only where those blocks vanish (gamma = delta = pi/2)
    and at the analytic anchor configurations; elsewhere the discrepancy is
    reported, never asserted away.
    """
    terms = closed_form_terms(cfg)
    (t1, a1, b1), (t2, a2, b2), (t3, a3, b3) = (
        (s.theta, s.alpha, s.beta) for s in cfg.strategies
    )
    c1, c2, c3 = terms.c
    s1, s2, s3 = terms.s
    e1, e2, xi = terms.eta1, terms.eta2, terms.xi
    mm = terms.mu_p1 * terms.mu_p2
    cos = math.cos
    sin = math.sin

    payoffs = []
    for k in range(3):
        pk = {label: cfg.payoffs.payoff(label)[k] for label in OUTCOMES}
        v = c1 * c2 * c3 * (
            e1 * pk["000"] + e2 * pk["111"]
            + (pk["000"] - pk["111"]) * mm * xi * cos(2 * (a1 + a2 + a3))
        )
        v += s1 * s2 * s3 * (
            e2 * pk["000"] + e1 * pk["111"]
            - (pk["000"] - pk["111"]) * mm * xi * cos(2 * (b1 + b2 + b3))
        )
        v += c1 * c2 * s3 * (
            e1 * pk["001"] + e2 * pk["110"]
            + (pk["001"] - pk["110"]) * mm * xi * cos(2 * (a1 + a2 - b3))
        )
        v += s1 * s2 * c3 * (
            e2 * pk["001"] + e1 * pk["110"]
            - (pk["001"] - pk["110"]) * mm * xi * cos(2 * (b1 + b2 - a3))
        )
        v += s1 * c2 * c3 * (
            e1 * pk["100"] + e2 * pk["011"]
            + (pk["100"] - pk["011"]) * mm * xi * cos(2 * (a2 + a3 - b1))
        )
        v += c1 * s2 * s3 * (
            e2 * pk["100"] + e1 * pk["011"]
            - (pk["100"] - pk["011"]) * mm * xi * cos(2 * (b2 + b3 - a1))
        )
        v += s1 * c2 * s3 * (
            e1 * pk["101"] + e2 * pk["010"]
            + (pk["101"] - pk["010"]) * mm * xi * cos(2 * (b1 + b3 - a2))
        )
        v += c1 * s2 * c3 * (
            e2 * pk["101"] + e1 * pk["010"]
            - (pk["101"] - pk["010"]) * mm * xi * cos(2 * (a1 + a3 - b2))
        )
        # First interference block, weight mu_p1/8 * cos(delta).
        v += (
            (terms.mu_p1 / 8.0)
            * (cos(cfg.delta / 2) ** 2 - sin(cfg.delta / 2) ** 2)
            * (
                pk["000"] - pk["111"] - pk["001"] + pk["110"]
                - pk["010"] + pk["101"] + pk["011"] - pk["100"]
            )
            * sin(cfg.gamma) * sin(t1) * sin(t2) * sin(t3)
            * cos(a1 + a2 + a3 - b1 - b2 - b3)
        )
        # Second interference block, weight mu_p2/8 * cos(gamma); the repeated
        # sin(t2) factor is transcribed as found.
        block = (pk["000"] - pk["111"]) * sin(cfg.delta) * sin(t1) * sin(t2) * sin(t2) * cos(
            a1 + a2 + a3 - b1 - b2 - b3
        )
        block += (pk["110"] - pk["001"]) * sin(cfg.delta) * sin(t1) * sin(t2) * sin(t2) * cos(
            a1 + a2 - a3 + b1 + b2 - b3
        )
        block += (pk["010"] - pk["101"]) * sin(cfg.delta) * sin(t1) * sin(t2) * sin(t2) * cos(
            a1 - a2 + a3 + b1 - b2 + b3
        )
        block += (pk["100"] - pk["011"]) * sin(cfg.delta) * sin(t1) * sin(t2) * sin(t2) * cos(
            a1 - a2 - a3 + b1 - b2 - b3
        )
        v += block * (terms.mu_p2 / 8.0) * (
            cos(cfg.gamma / 2) ** 2 - sin(cfg.gamma / 2) ** 2
        )
        payoffs.append(v)

    diffs = tuple(abs(a - b) for a, b in zip(payoffs, pipeline))
    return ClosedFormResult(
        payoffs=tuple(payoffs),
        pipeline=pipeline,
        per_player_discrepancy=diffs,
        max_abs_discrepancy=max(diffs),
        terms=terms,
    )
