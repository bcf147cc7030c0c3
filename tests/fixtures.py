"""Constants and small models shared by the tests: the Pauli operators, the
qubit lowering operator, random density matrices and a driven, damped qubit."""
import math

import numpy as np

from lindbladsim import TimeDependentLindbladian

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_density(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def driven_damped(omega=1.5, freq=2.0, gamma=0.4):
    """A qubit driven by (omega / 2) cos(freq t) X and damped at rate gamma."""
    def sampler(t):
        return 0.5 * omega * math.cos(freq * t) * SX, [math.sqrt(gamma) * SM]

    jdot = 0.5 * omega * freq
    return TimeDependentLindbladian(sampler, 0.5 * omega, [math.sqrt(gamma)], jdot)
