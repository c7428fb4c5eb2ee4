"""Bipartite pure-state entanglement order.

Schmidt decomposition, the majorization preorder on Schmidt vectors, the
deterministic-LOCC convertibility decision, and explicit one-round protocols
preparing arbitrary targets from the maximally entangled state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (EXACT_FIDELITY_TOL, RESIDUAL_TOL, ROUNDING_ATOL, TIE_ATOL, VANISHING_ATOL,
                   DensityMatrix, PureState)
from .sep import LoccProtocol, execute_protocol


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt coefficients (non-increasing) plus the local basis changes.

    ``left_basis``/``right_basis`` columns are the Schmidt vectors of each
    side; the state is ``sum_i coefficients[i] |left_i>|right_i>``.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.min() < -ROUNDING_ATOL:
            raise ValueError("Schmidt coefficients must be nonnegative")
        if np.any(np.diff(c) > ROUNDING_ATOL):
            raise ValueError("Schmidt coefficients must be sorted non-increasing")
        if abs(np.sum(c**2) - 1.0) > ROUNDING_ATOL:
            raise ValueError("squared Schmidt coefficients must sum to 1")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def lambdas(self) -> np.ndarray:
        return self.coefficients**2

    @classmethod
    def from_lambdas(cls, lambdas) -> "SchmidtData":
        lam = np.sort(np.asarray(lambdas, dtype=float))[::-1]
        d = lam.size
        return cls(np.sqrt(np.clip(lam, 0.0, None)), np.eye(d), np.eye(d))


def schmidt_decompose(state: PureState, bipartition) -> SchmidtData:
    """Schmidt decomposition across ``bipartition`` (party labels of side A)."""
    n = state.num_qubits
    side_a = sorted(set(int(p) for p in bipartition))
    if not side_a or any(p < 1 or p > n for p in side_a):
        raise ValueError("bipartition must be a nonempty set of party labels")
    side_b = [p for p in range(1, n + 1) if p not in side_a]
    if not side_b:
        raise ValueError("bipartition must leave at least one party on each side")
    axes = [p - 1 for p in side_a] + [p - 1 for p in side_b]
    m = state.tensor().transpose(axes).reshape(2 ** len(side_a), 2 ** len(side_b))
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    s = s / np.linalg.norm(s)
    # m = U S Vh, so the side-B Schmidt kets are the rows of Vh
    return SchmidtData(s, u, vh.T)


def reconstruct(schmidt: SchmidtData) -> np.ndarray:
    """Flat amplitude vector sum_i c_i |left_i>|right_i> (A major, B minor)."""
    out = np.zeros(schmidt.left_basis.shape[0] * schmidt.right_basis.shape[0], dtype=complex)
    for c, lv, rv in zip(schmidt.coefficients, schmidt.left_basis.T, schmidt.right_basis.T):
        out += c * np.kron(lv, rv)
    return out


def majorizes(y, x) -> bool:
    """True iff y majorizes x: sorted partial sums of y dominate those of x."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("vectors must share the same length")
    if y.min() < -ROUNDING_ATOL or x.min() < -ROUNDING_ATOL:
        raise ValueError("entries must be nonnegative")
    if abs(y.sum() - x.sum()) > ROUNDING_ATOL:
        return False
    cy = np.cumsum(np.sort(y)[::-1])
    cx = np.cumsum(np.sort(x)[::-1])
    return bool(np.all(cy >= cx - ROUNDING_ATOL))


class ConversionRelation(enum.Enum):
    FORWARD_ONLY = "ForwardOnly"
    BACKWARD_ONLY = "BackwardOnly"
    BOTH_WAYS = "BothWays"
    INCOMPARABLE = "Incomparable"


def _lambda_vector(obj) -> np.ndarray:
    if isinstance(obj, SchmidtData):
        return obj.lambdas
    return np.asarray(obj, dtype=float)


def nielsen_decide(psi, phi) -> ConversionRelation:
    """Deterministic-LOCC convertibility between Schmidt vectors.

    ``FORWARD_ONLY`` means psi converts to phi but not back; ``BOTH_WAYS``
    holds exactly when the sorted vectors coincide (local-unitary equivalence).
    Vectors of unequal length are zero-padded.
    """
    lp = _lambda_vector(psi)
    lq = _lambda_vector(phi)
    d = max(lp.size, lq.size)
    lp = np.pad(lp, (0, d - lp.size))
    lq = np.pad(lq, (0, d - lq.size))
    forward = majorizes(lq, lp)
    backward = majorizes(lp, lq)
    if forward and backward:
        return ConversionRelation.BOTH_WAYS
    if forward:
        return ConversionRelation.FORWARD_ONLY
    if backward:
        return ConversionRelation.BACKWARD_ONLY
    return ConversionRelation.INCOMPARABLE


def max_entangled_vector(d: int) -> np.ndarray:
    """Flat d*d amplitude vector of the rank-d maximally entangled state."""
    if d < 2:
        raise ValueError("d must be at least 2")
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0 / math.sqrt(d)
    return v


def max_entangled(d: int) -> PureState:
    """Maximally entangled state of two d-level sides, d a power of two.

    The qubit register holds side A on the first log2(d) parties. For general
    d use :func:`max_entangled_vector`, which skips the qubit encoding.
    """
    n = int(round(math.log2(d)))
    if d < 2 or 2**n != d:
        raise ValueError("qubit encoding needs d to be a power of 2; "
                         "use max_entangled_vector for general d")
    return PureState(2 * n, max_entangled_vector(d))


def _cyclic_shift(d: int, j: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        m[(i + j) % d, i] = 1.0
    return m


def phi_plus_to_target(target) -> LoccProtocol:
    """One-round protocol transforming the maximally entangled state to ``target``.

    Party A applies the d Kraus operators K_j = sum_i sqrt(lambda_{(i+j) mod d})
    |i><i| and both sides shift cyclically by j on outcome j; every branch then
    carries the target Schmidt coefficients in the computational basis, rotated
    by the target's local bases when a SchmidtData with square bases is given.
    """
    if isinstance(target, SchmidtData):
        lam = target.lambdas
        ua, ub = target.left_basis, target.right_basis
        d = lam.size
        if ua.shape != (d, d) or ub.shape != (d, d):
            raise ValueError("protocol construction needs square local bases")
    else:
        lam = np.asarray(target, dtype=float)
        d = lam.size
        ua = ub = np.eye(d, dtype=complex)
    if lam.min() < -TIE_ATOL:
        raise ValueError("negative Schmidt weights")
    if abs(lam.sum() - 1.0) > RESIDUAL_TOL:
        raise ValueError("target Schmidt vector is not normalized")
    kraus = []
    corrections = []
    for j in range(d):
        kraus.append(np.diag(np.sqrt(np.roll(lam, -j))).astype(complex))
        shift = _cyclic_shift(d, j)
        corrections.append((ua @ shift, ub @ shift))
    return LoccProtocol(
        acting_party=1, kraus_ops=tuple(kraus), corrections=tuple(corrections), dims=(d, d)
    )


@dataclass(frozen=True)
class Ensemble:
    """Probabilistic mixture of pure states."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((float(p), state) for p, state in self.entries)
        if not entries:
            raise ValueError("ensemble needs at least one entry")
        weights = np.array([p for p, _ in entries])
        if weights.min() < 0:
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > ROUNDING_ATOL:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "entries", entries)


class ProtocolBranchError(ValueError):
    """A protocol branch failed to reach its declared target."""

    def __init__(self, entry: int, branch: int, fid: float):
        self.entry = entry
        self.branch = branch
        self.branch_fidelity = fid
        super().__init__(
            f"ensemble entry {entry}: branch {branch} missed its target "
            f"(fidelity {fid:.12f})"
        )


def prepare_mixed(ensemble: Ensemble, resource_protocols) -> DensityMatrix:
    """Mix the ensemble by sampling which deterministic protocol to run.

    Each protocol must transform the maximally entangled state of its dimension
    into the corresponding ensemble state on every branch; the exact ensemble
    density matrix sum_i p_i |psi_i><psi_i| is returned once all protocols are
    certified deterministic.
    """
    protocols = list(resource_protocols)
    if len(protocols) != len(ensemble.entries):
        raise ValueError("one protocol per ensemble entry required")
    for idx, ((_, state), protocol) in enumerate(zip(ensemble.entries, protocols)):
        d = protocol.dims[0]
        if d * d != state.amplitudes.size:
            raise ValueError(f"entry {idx}: protocol dimension does not match the state")
        source = max_entangled_vector(d)
        total = 0.0
        for branch in execute_protocol(protocol, source):
            total += branch.probability
            if branch.probability < VANISHING_ATOL:
                continue
            f = abs(np.vdot(branch.vector, state.amplitudes)) ** 2
            if f < 1.0 - EXACT_FIDELITY_TOL:
                raise ProtocolBranchError(idx, branch.outcome, f)
        if abs(total - 1.0) > ROUNDING_ATOL:
            raise ValueError(f"entry {idx}: branch probabilities sum to {total}")
    weights, states = zip(*ensemble.entries)
    return DensityMatrix.mixture(weights, states)
