"""Density-matrix exponentiation: the partial-swap channel and its Trotterization.

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
both closed forms to a whole ``(B, 2, 2)`` batch of qubit states, with one
angle or one per batch entry, and validates nothing.  It writes the commutator
out entry by entry from the four entries of each input instead of taking two
matrix products, because numpy's batched matmul makes one BLAS call per 2x2
matrix, which costs several times the elementwise arithmetic on a large batch.
Its callers validate once, outside any loop:

* :func:`dme_errors` runs the Trotter circuits of several depths M as one
  batch, one kernel call per step, and checks all their intermediate states
  after the loop in one batch (in bounded batches for very deep circuits).  It
  takes only qubit registers and raises :class:`DimensionMismatchError` for
  anything else;
* ``dbac._dme_steps``, the cooling loop in H's eigenbasis, checks nothing.  It
  runs ``dbac.dbac_via_dme``, whose record builder checks every state it
  reports in one batch after the last step, and the step-size search, which
  keeps only final energies and checks none.

Each output's trace is a convex combination of the inputs' traces, so trace
errors do not compound over a chain of steps.  :func:`dme_step_exact` keeps the
definition itself, a kron of the two registers conjugated by exp(-i delta SWAP)
and partially traced; its trace is the product tr(rho) tr(sigma), and it serves
only as the oracle the closed form is tested against, for any register
dimension d.  :func:`exact_conjugation` is the M -> infinity limit that
:func:`dme_errors` measures against.
"""

from __future__ import annotations

import numpy as np

from . import qmath
from .errors import ContractViolationError, DimensionMismatchError
from .states import DensityMatrix, PureState, check_density


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

    ``sig`` is a 2x2 matrix or a ``(B, 2, 2)`` batch of them, ``instr`` is
    one matrix or a batch of the same shape, and ``delta`` is a scalar or, for
    a batch, a length-B array.  The commutator is written out from the four
    entries of each input, which is exact for any complex 2x2 pair; at
    ``delta = 0`` the data output is ``sig``, bit for bit.  The two marginals
    of the joint state sum to ``instr + sig``, so the instruction marginal
    costs one addition and one subtraction on top of the data output.  Nothing
    is validated.  The sums are built in place, because each batch-sized
    temporary can cost fresh pages from the system and the step-size search
    calls this thousands of times per run.
    """
    delta = np.asarray(delta)[..., None, None]
    c, sn = np.cos(delta), np.sin(delta)
    r00, r01, r10, r11 = instr[..., 0, 0], instr[..., 0, 1], instr[..., 1, 0], instr[..., 1, 1]
    s00, s01, s10, s11 = sig[..., 0, 0], sig[..., 0, 1], sig[..., 1, 0], sig[..., 1, 1]
    dr, ds = r00 - r11, s00 - s11
    out = np.empty(sig.shape, dtype=complex)
    out[..., 0, 0] = s01 * r10 - r01 * s10  # [sig, instr], entry by entry
    out[..., 0, 1] = r01 * ds - s01 * dr
    out[..., 1, 0] = s10 * dr - r10 * ds
    out[..., 1, 1] = -out[..., 0, 0]
    out *= 1j * (c * sn)
    out += c * c * sig
    out += sn * sn * instr
    marg = np.add(instr, sig, dtype=complex)
    marg -= out
    return out, marg


# The most intermediate states one check_density call takes (4 MiB of 2x2
# states).  A trotter run has max(ms) * len(ms) = m_max^2 of them, and one call
# on all of them peaked at 1.1 GB at m_max = 2000.
_CHECK_BATCH_STATES = 1 << 16


def _trotter(r: np.ndarray, s: np.ndarray, t: float, ms: np.ndarray) -> np.ndarray:
    """Outputs of ``ms[i]`` partial swaps of angle ``t / ms[i]`` on ``s``, one
    batch entry per depth.  Step j runs every depth at once, with angle 0 (which
    leaves an entry as it is) for the depths already done.  Every intermediate
    state is validated, in one batch after the last step when all
    ``max(ms) * len(ms)`` of them fit in ``_CHECK_BATCH_STATES``, else in
    batches of at most that many."""
    sig = np.broadcast_to(s, (ms.size, 2, 2))
    delta = t / ms
    steps, last = [], ms.max() - 1
    for j in range(last + 1):
        sig = partial_swap(r, sig, np.where(j < ms, delta, 0.0))[0]
        steps.append(sig)
        if j == last or (len(steps) + 1) * ms.size > _CHECK_BATCH_STATES:
            check_density(np.concatenate(steps))
            steps.clear()
    return sig


def exact_conjugation(rho, sigma, t: float) -> np.ndarray:
    """exp(-i t rho) sigma exp(+i t rho), the channel's M -> infinity limit."""
    r, s = _pair(rho, sigma)
    u = qmath.herm_expm(r, -1j * t)
    return u @ s @ u.conj().T


def dme_errors(rho, sigma, t: float, ms) -> np.ndarray:
    """Trace distance between the M-step Trotterized channel and the exact
    conjugation, for each depth M in ``ms``, all depths run as one batch."""
    if not np.isfinite(t):
        raise ContractViolationError("t must be finite")
    ms = np.asarray(ms)
    if ms.ndim != 1 or ms.size == 0 or ms.dtype.kind not in "iu" or ms.min() < 1:
        raise ContractViolationError("ms must be a non-empty 1-D array of positive integers")
    r, s = _pair(rho, sigma)
    if r.shape != (2, 2):
        raise DimensionMismatchError(f"the closed form is for one qubit, got shape {r.shape}")
    return qmath.trace_distance(_trotter(r, s, t, ms), exact_conjugation(r, s, t))

