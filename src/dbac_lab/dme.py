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
  Its probabilities come from :class:`NoiseModel`, the gate-level noise
  model, defined here because the DME record reads its p1 and p2;
  ``tomography`` applies all of it to compiled circuits.

:func:`partial_swap` is the one partial-swap step.  It holds qubit states as
real Bloch vectors, rho = (I + a.sigma) / 2, as three (x, y, z) planes: a
triple of ``(B,)`` arrays, or a ``(3, B)`` array (:func:`bloch_planes`),
which unpacks as one.  The commutator is a cross product: with instruction
``a`` and data ``b`` one step gives

    out = cos^2(delta) b + sin^2(delta) a + (cos(delta) sin(delta) a) x b.

A step builds the operands ``(c2, s2 a, cs a)`` once (:func:`swap_operands`,
from :func:`swap_coefficients`) for all its swaps, since their instruction is
the same, and each swap is ``c2 b + s2a + csa x b``.  Each plane is one
list of in-place statements in that expression's order (``t = cy * z; t -=
cz * y; t += c2 * x; t += s2x``): the expression's bits, with only its
products allocated, half its temporaries.  The first product must already
have the output's broadcast shape.  The z plane's list is :func:`swap_z`,
all the step-size search computes of its last swap.  The instruction
marginal is ``a + b - out`` (the joint state's two marginals sum to
``a + b``).  With the operands of :func:`rotation_operands` the kernel
rotates ``b`` about a unit axis, as both exact qubit maps do: the search's
exact reflector exp(i s |c><c|) (by -s about a unit ``c``), and the
M -> infinity limit of :func:`dme_errors`.

Because the instruction is fixed, M swaps compose in closed form:
:func:`partial_swap_power` gives the output after any number of swaps, or
after each of 1..M, in one batch of elementwise ufuncs, for any M (10^9
included).  The callers that report every copy or every depth use it; the
step-size search, which keeps only final energies at depths M <= 4 on
batches of thousands, runs M :func:`partial_swap` calls per step, which is
faster there.  Trace and Hermiticity hold by construction, so the one check
a batch of planes needs is :func:`check_bloch` (finite, and |a| <= 1 within
tolerance), which gives the verdict and the message that
:func:`states.check_density` gives for the matrices :func:`density_matrices`
rebuilds.  The kernels validate nothing; their callers validate once,
outside any loop:

* :func:`dme_errors` checks its two inputs as density matrices where they
  enter, runs the Trotter circuits of all depths M in one
  :func:`partial_swap_power` call, and checks the final states as planes.
  It takes only qubit registers and raises :class:`DimensionMismatchError`
  for anything else;
* the cooling loops under H = -Z check nothing.  ``dbac._bloch_steps`` makes
  every copy of ``dbac.dbac_via_dme`` by one :func:`partial_swap_power` call
  per step, and ``dbac_via_dme`` checks every state it reports, as planes,
  in one batch.  ``dbac._search_pass_z`` is the step-size search's one pass
  for both reflector kinds; the search keeps only final energies and checks
  none.

The definition itself, a kron of the two registers conjugated by
exp(-i delta SWAP) and partially traced, is the oracle the kernel is tested
against, in ``tests/oracles.py``; so is the dense conjugation
exp(-i t rho) sigma exp(+i t rho), the oracle of :func:`dme_errors`' rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import qmath
from .errors import ContractViolationError, DimensionMismatchError
from .states import EIG_TOL, check_density

_TINY = np.finfo(float).tiny  # below it, a / max(|a|, _TINY) is shorter than 1: its terms vanish


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
    the ``coeffs`` argument of :func:`swap_operands`."""
    c, s = np.cos(delta), np.sin(delta)
    return c * c, s * s, c * s


def swap_operands(instr, coeffs) -> tuple:
    """The ``step`` of :func:`partial_swap` for instruction planes ``instr``:
    ``(c2, s2 instr, cs instr)``, the last two as triples, from ``coeffs =
    (c2, s2, cs)``; a cooling step builds them once for all its swaps."""
    c2, s2, cs = coeffs
    x, y, z = instr
    return c2, (s2 * x, s2 * y, s2 * z), (cs * x, cs * y, cs * z)


def rotation_operands(u, sig, coeffs) -> tuple:
    """The ``step`` of :func:`partial_swap` that rotates ``sig`` by theta about
    the unit axis planes ``u``: ``(cos, (1 - cos)(u.sig) u, sin u)``, the last
    two as triples, from ``coeffs = (cos theta, 1 - cos theta, sin theta)``."""
    cos, one_minus_cos, sin = coeffs
    (ux, uy, uz), (x, y, z) = u, sig
    along = ux * x
    along += uy * y
    along += uz * z
    along *= one_minus_cos  # the product one_minus_cos * (u.sig), bit for bit
    return cos, (along * ux, along * uy, along * uz), (sin * ux, sin * uy, sin * uz)


def swap_z(sig, step):
    """The z plane of :func:`partial_swap`'s output, ``csa_x y - csa_y x + c2 z
    + s2a_z``, summed in place in that order: all that the step-size search
    reads of its last swap."""
    c2, s2a, (cx, cy, _) = step
    x, y, z = sig
    out = cx * y
    out -= cy * x
    out += c2 * z
    out += s2a[2]
    return out


def partial_swap(sig, step) -> tuple:
    """One partial-swap step on Bloch planes: the data output ``c2 sig + s2a
    + csa x sig`` as an (x, y, z) triple, each plane summed in place in that
    order, the cross term first (the z plane's is :func:`swap_z`).

    ``sig`` is a triple of planes or a ``(3, ...)`` array, and ``step = (c2,
    s2a, csa)`` is :func:`swap_operands` of the instruction: ``c2`` a scalar
    or one plane (an angle per entry), ``s2a`` and ``csa`` triples of planes.
    At angle 0, whose operands are ``(1, 0, 0)``, the output is ``sig``, bit
    for bit.  The instruction marginal, ``instr + sig - out``, is left to the
    caller that records it.  Nothing is validated."""
    c2, (s2x, s2y, _), (cx, cy, cz) = step
    x, y, z = sig
    out_x = cy * z
    out_x -= cz * y
    out_x += c2 * x
    out_x += s2x
    out_y = cz * x
    out_y -= cx * z
    out_y += c2 * y
    out_y += s2y
    return out_x, out_y, swap_z(sig, step)


def partial_swap_power(sig: np.ndarray, instr: np.ndarray, coeffs, n, q: float = 1.0) -> np.ndarray:
    """The data output of ``n`` partial swaps of ``sig`` against the fixed
    instruction ``instr``, each output scaled by ``q`` (1 - p2 under two-qubit
    depolarizing), in closed form: ``n`` composed :func:`partial_swap` steps.

    ``sig`` and ``instr`` are ``(3, ...)`` arrays of Bloch planes that
    broadcast together, ``coeffs = (c2, s2, cs)`` are
    :func:`swap_coefficients` (scalars, or arrays that broadcast against one
    plane), and ``n`` is an integer array of exponents >= 1; the output has
    the shape of ``n`` broadcast against ``sig``.  So ``n = ms`` gives a
    ``(3, B)`` batch with one exponent per entry, and
    ``n = np.arange(1, M + 1).reshape(-1, 1, 1)`` gives every copy of an
    M-swap step as ``(M, 3, B)``.  Nothing is validated.

    Along the unit axis u = a / |a| one swap maps b to c2 b + s2 a; across
    it, it multiplies b by z = c2 + i cs |a|, with i acting as u x.  So with
    d = u.b and Z = (q z)^n the n-th output is

        Re(Z) b + Im(Z) u x b + (((q c2)^n - Re(Z)) d + g |a|) u,
        g = q s2 ((q c2)^0 + ... + (q c2)^(n-1)),

    each power taken as exp(n log(.)) with log c2 = -log1p(s2 / c2), so that
    a depth of 10^9 keeps the O(1/M) Trotter error that c2 ** n would round
    away.  At a = 0 the axis u is 0, and every term it carries vanishes; at
    angle 0 (operands (1, 0, 0)) and q = 1 the output is ``sig``, bit for
    bit.  Only elementwise ufuncs are used, so an entry's output does not
    depend on what else shares the batch.
    """
    c2, s2, cs = coeffs
    r = np.hypot(np.hypot(instr[0], instr[1]), instr[2])  # |a|, which |a|^2 could underflow
    r2 = r * r
    u = instr / np.maximum(r, _TINY)
    (ux, uy, uz), (x, y, z) = u, sig
    across = np.array([uy * z - uz * y, uz * x - ux * z, ux * y - uy * x])  # u x sig
    ub = u * sig
    d = ub[0] + ub[1] + ub[2]
    tan2 = s2 / c2  # c2 = cos^2 > 0 for every finite float angle
    log_c2 = -np.log1p(tan2)
    log_z = 0.5 * np.log1p(tan2 * r2) + log_c2  # |z|^2 = c2^2 (1 + tan^2 |a|^2)
    z_n = np.exp(n * (log_z + 1j * np.arctan2(cs * r, c2)))
    if q == 1.0:
        c2_n = np.expm1(n * log_c2)  # c2^n - 1
        dg = d - r  # g = -c2_n
    else:
        log_c2 = log_c2 + (math.log(q) if q > 0.0 else -math.inf)  # q = 0: every power is 0
        z_n *= q**n
        c2_n = np.expm1(n * log_c2)  # (q c2)^n - 1
        dg = d + q * s2 / np.expm1(log_c2) * r  # g = c2_n q s2 / (q c2 - 1), where q c2 < 1
    along = (1.0 - z_n.real) * d + c2_n * dg
    return z_n.real * sig + z_n.imag * across + along * u


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing probabilities per gate plus optional relaxation.

    p1/p2 apply after every single-/two-qubit gate on the gate's qubits.  When
    t1_us is set, amplitude damping (and dephasing from t2_us, which must not
    exceed 2*t1_us) acts on the gate's qubits for the gate duration,
    ``tomography.GATE_TIME_1Q_US`` or ``GATE_TIME_2Q_US``.
    """

    p1: float = 0.0
    p2: float = 0.0
    t1_us: Optional[float] = None
    t2_us: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0 or not 0.0 <= self.p2 <= 1.0:
            raise ContractViolationError("depolarizing probabilities must lie in [0, 1]")
        # written so that NaN fails every comparison
        if self.t1_us is not None and not self.t1_us > 0:
            raise ContractViolationError("t1 must be positive")
        if self.t2_us is not None:
            if self.t1_us is None:
                raise ContractViolationError("t2 requires t1")
            if not 0 < self.t2_us <= 2 * self.t1_us:
                raise ContractViolationError("t2 must lie in (0, 2*t1]")

    @property
    def enabled(self) -> bool:
        return self.p1 > 0 or self.p2 > 0 or self.t1_us is not None


def check_bloch(planes: np.ndarray) -> None:
    """Check ``(3, ...)`` Bloch planes as qubit states: entries finite and every
    |a| <= 1 + 2 ``EIG_TOL``.  A matrix rebuilt by :func:`density_matrices` has
    exact Hermiticity and trace and eigenvalues (1 +- |a|) / 2, so this raises
    exactly when :func:`states.check_density` on it would, with its message."""
    if not ((planes * planes).sum(axis=0) <= (1.0 + 2.0 * EIG_TOL) ** 2).all():  # NaN fails too
        raise ContractViolationError(
            "density matrix has a negative eigenvalue"
            if np.isfinite(planes).all()
            else "matrix contains NaN or Inf entries"
        )


def dme_errors(rho, sigma, t: float, ms) -> np.ndarray:
    """Trace distance between the M-step Trotterized channel and its limit
    exp(-i t rho) sigma exp(+i t rho), which rotates sigma's Bloch vector by
    t|a| about u = a / |a| (rho's), for each depth M in ``ms``: every depth in
    one :func:`partial_swap_power` call, so a depth of 10^9 costs what a depth
    of 1 does.  Both registers must be valid qubit density matrices; they are
    checked here, and the final Trotter states by one :func:`check_bloch`
    call.  For qubits the trace distance is half the Euclidean distance
    between Bloch vectors."""
    if not np.isfinite(t):
        raise ContractViolationError("t must be finite")
    ms = np.asarray(ms)
    if ms.ndim != 1 or ms.size == 0 or ms.dtype.kind not in "iu" or ms.min() < 1:
        raise ContractViolationError("ms must be a non-empty 1-D array of positive integers")
    r, s = qmath.as_complex_matrix(rho), qmath.as_complex_matrix(sigma)
    if r.shape != (2, 2) or s.shape != (2, 2):
        raise DimensionMismatchError(f"the closed form is for one qubit, got shapes {r.shape} and {s.shape}")
    r, s = check_density(np.array([r, s]))  # a Bloch vector has no trace to check later
    instr, sig = bloch_planes(r), bloch_planes(s)  # one entry: its planes are scalars
    final = partial_swap_power(sig[:, None], instr[:, None], swap_coefficients(t / ms), ms)
    check_bloch(final)
    length = np.hypot(np.hypot(instr[0], instr[1]), instr[2])  # as partial_swap_power takes |a|
    angle = t * length
    cos, u = np.cos(angle), instr / np.maximum(length, _TINY)
    exact = partial_swap(sig, rotation_operands(u, sig, (cos, 1.0 - cos, np.sin(angle))))
    return 0.5 * np.linalg.norm(final - np.array(exact)[:, None], axis=0)
