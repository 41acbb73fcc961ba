"""Density-matrix exponentiation: partial-swap channel, closed form, and Trotterization.

Conventions fixed here and used package-wide:

* U_DME(t) = exp(-i t SWAP); the channel conjugates an instruction (x) data
  pair by it and traces out the instruction (first register).
* One step with angle delta sends sigma to
  cos^2(delta) sigma + i cos(delta) sin(delta) [sigma, rho] + sin^2(delta) rho,
  which approximates exp(-i delta rho) sigma exp(+i delta rho) to first order.
  The instruction register is left in the mirror image
  cos^2(delta) rho - i cos(delta) sin(delta) [sigma, rho] + sin^2(delta) sigma.
* M-step Trotterization consumes a fresh instruction copy per step and carries
  error O(t^2 / M) in trace distance.
* Depolarizing the joint register with probability p before the partial
  trace leaves (1 - p) sigma' + p I/d on either register, where sigma' is the
  noiseless marginal; ``dbac.dbac_via_dme`` applies two-qubit noise this way.

:func:`partial_swap` is the one inner loop behind every DME path: it applies
both closed forms to a whole ``(B, d, d)`` batch of states, with one angle or
one per batch entry, and validates nothing.  Its callers validate once, outside
any loop:

* :func:`dme_step_closed_form` and :func:`dme_step_instruction_marginal` wrap
  their one output in a :class:`DensityMatrix`;
* :func:`dme_trotter` checks all its intermediate states in one batch;
* ``dbac._dme_steps``, the cooling loop in H's eigenbasis, checks nothing.  It
  runs ``dbac.dbac_via_dme``, whose record builder checks every state it
  reports in one batch after the last step, and the step-size search, which
  keeps only final energies and checks none.

Each output's trace is a convex combination of the inputs' traces, so trace
errors do not compound over a chain of steps.  :func:`dme_step_exact` keeps the
definition itself, a kron of the two registers conjugated by exp(-i delta SWAP)
and partially traced; its trace is the product tr(rho) tr(sigma), and it serves
only as the oracle the closed form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import ContractViolationError, DimensionMismatchError
from .states import DensityMatrix, PureState, check_density


@dataclass(frozen=True)
class DmeParams:
    """Total conjugation duration t split into m partial-swap steps."""

    t: float
    m: int = 1

    def __post_init__(self):
        if not np.isfinite(self.t):
            raise ContractViolationError("t must be finite")
        if int(self.m) < 1:
            raise ContractViolationError("m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))

    @property
    def delta(self) -> float:
        return self.t / self.m


def reflector(psi: PureState | np.ndarray, t: float) -> np.ndarray:
    """exp(i t |psi><psi|) = I + (e^{it} - 1)|psi><psi|; Grover reflection at t = pi.

    ``psi`` is a :class:`PureState` or a unit vector, taken as it is.
    """
    if not np.isfinite(t):
        raise ContractViolationError("t must be finite")
    v = psi.amplitudes if isinstance(psi, PureState) else psi
    return np.eye(v.size, dtype=complex) + (np.exp(1j * t) - 1.0) * np.outer(v, v.conj())


def _pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    r = rho.matrix if isinstance(rho, DensityMatrix) else qmath.as_complex_matrix(rho)
    s = sigma.matrix if isinstance(sigma, DensityMatrix) else qmath.as_complex_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError("instruction and data registers differ in dimension")
    return r, s


def dme_step_exact(rho, sigma, delta: float) -> DensityMatrix:
    """Tr_instr[ U (rho (x) sigma) U^dag ] with U = exp(-i delta SWAP)."""
    r, s = _pair(rho, sigma)
    d = r.shape[0]
    u = qmath.herm_expm(qmath.swap_operator(d), -1j * delta)
    joint = u @ np.kron(r, s) @ u.conj().T
    part = qmath.QubitPartition(dims=(d, d), keep=(1,))
    return DensityMatrix(qmath.partial_trace(joint, part))


def partial_swap(instr, sig, delta):
    """One partial-swap step on a batch: ``(data output, instruction marginal)``.

    ``instr`` and ``sig`` are matrices or ``(B, d, d)`` batches of them, and
    ``delta`` is a scalar or, for a batch, a length-B array.  The two marginals
    of the joint state sum to ``instr + sig``, so the instruction marginal
    costs one addition and one subtraction on top of the data output.  Nothing
    is validated.  The sums are built in place, because each batch-sized
    temporary can cost fresh pages from the system and the step-size search
    calls this thousands of times per run.
    """
    delta = np.asarray(delta)[..., None, None]
    c, sn = np.cos(delta), np.sin(delta)
    out = np.matmul(sig, instr, dtype=complex)
    out -= instr @ sig
    out *= 1j * (c * sn)
    out += c * c * sig
    out += sn * sn * instr
    marg = np.add(instr, sig, dtype=complex)
    marg -= out
    return out, marg


def dme_step_closed_form(rho, sigma, delta: float) -> DensityMatrix:
    """Closed form of the one-step channel; agrees with dme_step_exact entrywise."""
    r, s = _pair(rho, sigma)
    return DensityMatrix(partial_swap(r, s, delta)[0])


def dme_step_instruction_marginal(rho, sigma, delta: float) -> DensityMatrix:
    """State left on the instruction register after one partial-swap interaction."""
    r, s = _pair(rho, sigma)
    return DensityMatrix(partial_swap(r, s, delta)[1])


def dme_trotter(rho, sigma, params: DmeParams) -> DensityMatrix:
    """Apply m partial-swap steps of angle t/m, each with a fresh copy of rho.

    Every intermediate state is validated, in one batch after the last step.
    """
    r, s = _pair(rho, sigma)
    steps = []
    for _ in range(params.m):
        s = partial_swap(r, s, params.delta)[0]
        steps.append(s)
    check_density(np.stack(steps))
    return DensityMatrix(s)


def exact_conjugation(rho, sigma, t: float) -> np.ndarray:
    """exp(-i t rho) sigma exp(+i t rho), the channel's M -> infinity limit."""
    r, s = _pair(rho, sigma)
    u = qmath.herm_expm(r, -1j * t)
    return u @ s @ u.conj().T


def dme_error(rho, sigma, params: DmeParams) -> float:
    """Trace distance between the Trotterized channel output and the exact conjugation."""
    approx = dme_trotter(rho, sigma, params).matrix
    ideal = exact_conjugation(rho, sigma, params.t)
    return qmath.trace_distance(approx, ideal)
