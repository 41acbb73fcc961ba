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

:func:`partial_swap` is the one inner loop behind every DME path.  It holds
qubit states as real Bloch vectors, rho = (I + a.sigma) / 2, stored as
contiguous ``(3, B)`` component planes (:func:`bloch_planes`), where the
commutator is a cross product: with instruction ``a`` and data ``b`` one step
gives

    out = cos^2(delta) b + sin^2(delta) a + cos(delta) sin(delta) (a x b)

and leaves the instruction in ``a + b - out``.  The caller passes the three
coefficients (:func:`swap_coefficients`), computed once per distinct angle
rather than once per call.  Trace and Hermiticity hold by construction, and
:func:`density_matrices` rebuilds ``(N, 2, 2)`` matrices with trace exactly 1
wherever a batch is validated.  The kernel validates nothing; its callers
validate once, outside any loop:

* :func:`dme_errors` checks its two inputs as density matrices where they
  enter, runs the Trotter circuits of several depths M as one batch, one
  kernel call per step, and checks all their intermediate states after the
  loop in one batch (in bounded batches for very deep circuits).  It takes
  only qubit registers and raises :class:`DimensionMismatchError` for
  anything else;
* ``dbac._dme_steps``, the cooling loop in H's eigenbasis, checks nothing.  It
  runs ``dbac.dbac_via_dme``, whose record builder checks every state it
  reports in one batch after the last step, and the step-size search, which
  runs every angle and step size of a search as one batch, keeps only final
  energies and checks none.

:func:`dme_step_exact` keeps the definition itself, a kron of the two
registers conjugated by exp(-i delta SWAP) and partially traced; it serves
only as the oracle the kernel is tested against, for any register dimension
d.  :func:`exact_conjugation` is the M -> infinity limit that
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


def bloch_planes(rho) -> np.ndarray:
    """Bloch vectors (Tr[X rho], Tr[Y rho], Tr[Z rho]) of a 2x2 matrix or a
    ``(..., 2, 2)`` stack, as ``(3, ...)`` planes; the trace and any
    anti-Hermitian part are dropped, so validate before converting."""
    rho = np.asarray(rho)
    r01, r10 = rho[..., 0, 1], rho[..., 1, 0]
    return np.array([(r01 + r10).real, (r10 - r01).imag, (rho[..., 0, 0] - rho[..., 1, 1]).real])


def density_matrices(planes: np.ndarray) -> np.ndarray:
    """(I + a.sigma) / 2 for ``(3, ...)`` Bloch planes, as a ``(..., 2, 2)``
    stack: exactly Hermitian, and with trace exactly 1, as the second diagonal
    entry is 1 minus the first."""
    x, y, z = planes
    m = np.empty(np.shape(x) + (2, 2), dtype=complex)
    m[..., 0, 0] = 0.5 * (1.0 + z)
    m[..., 1, 1] = 1.0 - m[..., 0, 0].real
    m[..., 0, 1] = 0.5 * (x - 1j * y)
    m[..., 1, 0] = m[..., 0, 1].conj()
    return m


def swap_coefficients(delta):
    """(cos^2, sin^2, cos sin) of a partial-swap angle, or of an array of them:
    the ``coeffs`` argument of :func:`partial_swap`."""
    c, s = np.cos(delta), np.sin(delta)
    return c * c, s * s, c * s


def partial_swap(instr: np.ndarray, sig: np.ndarray, coeffs):
    """One partial-swap step on Bloch planes: ``(data output, instruction marginal)``.

    ``sig`` is a ``(3, ...)`` array of Bloch planes, whose shape both outputs
    take, ``instr`` is planes that broadcast against it, and ``coeffs`` is
    :func:`swap_coefficients` of the angle: three scalars, or three arrays
    that broadcast against one plane, for one angle per batch entry.  The
    data output is ``c2 sig + s2 instr + cs (instr x sig)``; at coefficients
    (1, 0, 0), which is angle 0, it is ``sig``, bit for bit.  The two marginals of the joint
    state sum to ``instr + sig``, so the instruction marginal costs one
    addition and one subtraction on top of the data output.  Nothing is
    validated.
    """
    c2, s2, cs = coeffs
    ax, ay, az = instr
    bx, by, bz = sig
    out = np.empty(sig.shape)
    np.multiply(ay, bz, out=out[0, ...])  # instr x sig, plane by plane
    out[0] -= az * by
    np.multiply(az, bx, out=out[1, ...])
    out[1] -= ax * bz
    np.multiply(ax, by, out=out[2, ...])
    out[2] -= ay * bx
    out *= cs
    out += c2 * sig
    out += s2 * instr
    marg = instr + sig
    marg -= out
    return out, marg


# The most intermediate states one check_density call takes (4 MiB of 2x2
# states).  A trotter run has sum(ms) = m_max (m_max + 1) / 2 of them, and one
# call on m_max^2 of them peaked at 1.1 GB at m_max = 2000.
_CHECK_BATCH_STATES = 1 << 16


def _trotter(r: np.ndarray, s: np.ndarray, t: float, ms: np.ndarray) -> np.ndarray:
    """Outputs of ``ms[i]`` partial swaps of angle ``t / ms[i]`` on the 2x2
    state ``s``, one ``(2, 2)`` matrix per depth.  The depths run on Bloch
    planes, longest first, so that step j is one kernel call on the prefix of
    the batch that still has steps to take.  Every intermediate state is
    rebuilt as a matrix and validated once, in one batch after the last step
    when all ``sum(ms)`` of them fit in ``_CHECK_BATCH_STATES``, else in
    batches of at most that many."""
    order = np.argsort(-ms, kind="stable")
    depths = ms[order]
    instr = bloch_planes(r)[:, None]
    sig = np.repeat(bloch_planes(s)[:, None], ms.size, axis=1)
    c2, s2, cs = swap_coefficients(t / depths)
    steps, pending = [], 0
    for j in range(depths[0]):
        n = int(np.count_nonzero(depths > j))
        out = partial_swap(instr, sig[:, :n], (c2[:n], s2[:n], cs[:n]))[0]
        sig[:, :n] = out
        steps.append(out)
        pending += n
        if j == depths[0] - 1 or pending + n > _CHECK_BATCH_STATES:
            check_density(density_matrices(np.concatenate(steps, axis=1)))
            steps, pending = [], 0
    final = np.empty_like(sig)
    final[:, order] = sig
    return density_matrices(final)


def exact_conjugation(rho, sigma, t: float) -> np.ndarray:
    """exp(-i t rho) sigma exp(+i t rho), the channel's M -> infinity limit."""
    r, s = _pair(rho, sigma)
    u = qmath.herm_expm(r, -1j * t)
    return u @ s @ u.conj().T


def dme_errors(rho, sigma, t: float, ms) -> np.ndarray:
    """Trace distance between the M-step Trotterized channel and the exact
    conjugation, for each depth M in ``ms``, all depths run as one batch.
    Both registers must be valid qubit density matrices."""
    if not np.isfinite(t):
        raise ContractViolationError("t must be finite")
    ms = np.asarray(ms)
    if ms.ndim != 1 or ms.size == 0 or ms.dtype.kind not in "iu" or ms.min() < 1:
        raise ContractViolationError("ms must be a non-empty 1-D array of positive integers")
    r, s = _pair(rho, sigma)
    if r.shape != (2, 2):
        raise DimensionMismatchError(f"the closed form is for one qubit, got shape {r.shape}")
    r, s = check_density(np.array([r, s]))  # a Bloch vector has no trace to check later
    return qmath.trace_distance(_trotter(r, s, t, ms), exact_conjugation(r, s, t))

