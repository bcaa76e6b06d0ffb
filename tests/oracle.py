"""Independent reference implementation used to generate and cross-check goldens.

Deliberately shares no code or representation with the package: states are
nested Python lists of complex numbers, the channel acts elementwise through
explicit error-pattern sums (never through Kraus matrix products), strategy
unitaries are assembled literally as cos(theta/2) R + sin(theta/2) P from the
defining actions of R and P on basis kets, and measurement probabilities are
computed as <chi| rho |chi> inner products.  Keep it dumb and loop-based.
"""

import cmath
import itertools
import math

TABLE = {
    "000": (3, 3, 3), "001": (2, 2, 5), "010": (2, 5, 2), "011": (0, 4, 4),
    "100": (5, 2, 2), "101": (4, 0, 4), "110": (4, 4, 0), "111": (1, 1, 1),
}


def bit(x, q):
    """Bit of qubit q (0 = leftmost/Alice) in basis index x."""
    return (x >> (2 - q)) & 1


def players_moved(x, order):
    """Basis index x with player order[q] moved to slot q."""
    return sum(bit(x, order[q]) << (2 - q) for q in range(3))


def initial_state(gamma):
    ket = [0j] * 8
    ket[0] = complex(math.cos(gamma / 2))
    ket[7] = 1j * math.sin(gamma / 2)
    return [[ket[x] * ket[y].conjugate() for y in range(8)] for x in range(8)]


def single_unitary(theta, alpha, beta):
    # R|0> = e^{ia}|0>, R|1> = e^{-ia}|1>
    r = [[cmath.exp(1j * alpha), 0j], [0j, cmath.exp(-1j * alpha)]]
    # P|0> = e^{i(pi/2-b)}|1>, P|1> = e^{i(pi/2+b)}|0>
    p = [[0j, cmath.exp(1j * (math.pi / 2 + beta))],
         [cmath.exp(1j * (math.pi / 2 - beta)), 0j]]
    ct, st = math.cos(theta / 2), math.sin(theta / 2)
    return [[ct * r[i][j] + st * p[i][j] for j in range(2)] for i in range(2)]


def apply_strategies(rho, strategies):
    us = [single_unitary(*s) for s in strategies]

    def amp(x, xp):
        out = 1 + 0j
        for q in range(3):
            out *= us[q][bit(x, q)][bit(xp, q)]
        return out

    out = [[0j] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(8):
            acc = 0j
            for xp in range(8):
                for yp in range(8):
                    acc += amp(x, xp) * rho[xp][yp] * amp(y, yp).conjugate()
            out[x][y] = acc
    return out


def dephase(rho, p, mu):
    """Correlated three-qubit dephasing, applied as an elementwise error sum."""
    prob = {0: 1 - p / 2, 3: p / 2}

    def sgn(idx, b):
        return -1 if (idx == 3 and b == 1) else 1

    out = [[0j] * 8 for _ in range(8)]
    for i, j, k in itertools.product((0, 3), repeat=3):
        w = ((1 - mu) * prob[i] + mu * (i == j)) \
            * ((1 - mu) * prob[j] + mu * (j == k)) * prob[k]
        for x in range(8):
            sx = sgn(i, bit(x, 0)) * sgn(j, bit(x, 1)) * sgn(k, bit(x, 2))
            for y in range(8):
                sy = sgn(i, bit(y, 0)) * sgn(j, bit(y, 1)) * sgn(k, bit(y, 2))
                out[x][y] += w * sx * sy * rho[x][y]
    return out


def outcome_probabilities(rho, delta):
    c, s = math.cos(delta / 2), math.sin(delta / 2)
    probs = []
    for m in range(8):
        chi = [0j] * 8
        chi[m] = complex(c)
        chi[7 - m] = 1j * s
        acc = 0j
        for x in range(8):
            for y in range(8):
                acc += chi[x].conjugate() * rho[x][y] * chi[y]
        probs.append(acc.real)
    return probs


def payoffs(gamma, delta, p1, mu1, p2, mu2, strategies, table=TABLE):
    rho = initial_state(gamma)
    rho = dephase(rho, p1, mu1)
    rho = apply_strategies(rho, strategies)
    rho = dephase(rho, p2, mu2)
    probs = outcome_probabilities(rho, delta)
    out = [0.0, 0.0, 0.0]
    for m in range(8):
        label = format(m, "03b")
        for k in range(3):
            out[k] += probs[m] * table[label][k]
    return tuple(out)
