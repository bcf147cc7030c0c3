"""Exact channels and drift propagators of rotating-frame models, a reference
for lindbladsim.timedep that uses none of its code but the model wrapper,
TimeDependentLindbladian: the closed forms need only exact_channel and expm.

A static model (H0, L_j) and a Hermitian G give U(t) = exp(-iGt),
H(t) = U H0 U^dag and L_j(t) = U L_j U^dag, a time-ordered model whose
operators do not commute across times. In the frame rho' = U^dag rho U it is
the static model with Hamiltonian H0 - G and the same jumps, so its channel on
[0, t] is K[U(t)] o exp(L' t), and its drift propagator from s to t is
U(t) exp((J0 + iG)(t - s)) U(s)^dag. Norms are unitarily invariant, so the
static model's alphas bound it, and J(t) = U J0 U^dag gives
||dJ/dt|| = ||[G, J]|| <= 2 ||G|| be_norm.
"""
import numpy as np
from scipy.linalg import expm

from lindbladsim import (Lindbladian, TimeDependentLindbladian, be_norm, effective_generator,
                         exact_channel, kraus_superop, random_lindbladian)


class FrameModel:
    """random_lindbladian(n, m, seed) in a frame rotating by G: A complex normal
    from default_rng(seed + 1), G = A + A^dag from one eigendecomposition, its
    eigenvalues scaled to ||G|| = 2. tl samples the model pointwise, and
    channel(t) and propagator(s, t) are its exact channel on [0, t] and drift
    propagator from s to t."""

    def __init__(self, n, m, seed):
        static = random_lindbladian(n, m, seed)
        rng, d = np.random.default_rng(seed + 1), static.dim
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        w, self.Q = np.linalg.eigh(A + A.conj().T)
        self.w, self.Qh = w * (2.0 / np.abs(w).max()), self.Q.conj().T
        G = (self.Q * self.w) @ self.Qh
        self.frame = Lindbladian(static.hamiltonian - G, static.jumps)
        self.J = effective_generator(static) + 1j * G
        ops = np.concatenate([static.hamiltonian[None], static.jumps])

        def sampler(t):
            U = self.U(t)
            H, *Ls = U @ ops @ U.conj().T
            return H, Ls

        # jdot_bound = 2 ||G|| be_norm
        self.tl = TimeDependentLindbladian(sampler, static.alpha0, static.alphas,
                                           4.0 * be_norm(static))

    def U(self, t):
        return (self.Q * np.exp(-1j * self.w * t)) @ self.Qh

    def channel(self, t):
        return kraus_superop(self.U(t)) @ exact_channel(self.frame, t)

    def propagator(self, s, t):
        return self.U(t) @ expm(self.J * (t - s)) @ self.U(s).conj().T
