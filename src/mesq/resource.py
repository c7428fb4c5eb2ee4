"""Six-qubit resource state and the adaptive measurement protocol that
deterministically prepares arbitrary three-qubit targets on parties 1-3.

Qubits 6, 5, 4 are measured in that order in the bases
{sigma_z^k Z(-theta)|+>}: theta_6 = alpha_6, theta_4 = alpha_4, and
theta_5 = +/- alpha_5 with the sign conditioned on the qubit-6 outcome. The
leftover Pauli frame (sigma_z^{k4+k5} x sigma_z^{k5} sigma_y^{k6} x
sigma_z^{k4+k6}) is inverted explicitly, so every branch delivers the exact
target state rather than a Pauli-equivalent one. All eight branches come from
one contraction of the resource tensor, built once per process, with the
measurement bras; sampled and forced runs both read from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT_FIDELITY_TOL,
    ORTHONORMAL_ATOL,
    ROUNDING_ATOL,
    VANISHING_ATOL,
    DensityMatrix,
    NumericalError,
    ProductOperator,
    PureState,
    apply_product,
    contract,
    hadamard,
    pauli,
    t2_gate,
    t3_gate,
    z_rot,
)

CZ_LAYER = ((2, 3), (1, 2), (3, 4), (3, 5), (1, 5), (4, 5), (5, 6), (4, 6))


def build_phi3() -> PureState:
    """The six-qubit stabilizer resource state: the CZ layer on |+>^6, whose
    amplitudes are the signs (-1)^(sum of b_i b_j over its edges) over 8,
    followed by one local gate per qubit."""
    bits = np.indices((2,) * 6)
    signs = (-1.0) ** sum(bits[i - 1] * bits[j - 1] for i, j in CZ_LAYER)
    quarter = z_rot(-math.pi / 4)
    gates = (hadamard(), z_rot(math.pi / 2), z_rot(math.pi / 4) @ hadamard(),
             quarter, quarter, quarter)
    return PureState(6, contract(signs / 8.0, gates, range(6)).reshape(-1))


@functools.cache
def _phi3_tensor() -> np.ndarray:
    return build_phi3().tensor()


@dataclass(frozen=True)
class RepTargetParams:
    """Phase-gate angles selecting the prepared three-qubit state."""

    alpha4: float
    alpha5: float
    alpha6: float


# sigma_z x sigma_z sign of each amplitude index on parties (1, 2), (1, 3), (2, 3)
_BITS = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
_SIGN12, _SIGN13, _SIGN23 = (-1.0) ** (_BITS @ [[1, 1, 0], [1, 0, 1], [0, 1, 1]]).T
_T_LAYER = np.kron(np.kron(np.eye(2), t2_gate()), t3_gate())


def target_state(params: RepTargetParams) -> PureState:
    """Z_13(a4) Z_12(a5) (1 x T_2 x T_3) Z_23(a6) |+++>, normalized."""
    inner = np.exp(1j * params.alpha6 * _SIGN23) / math.sqrt(8.0)
    outer = np.exp(1j * (params.alpha4 * _SIGN13 + params.alpha5 * _SIGN12))
    return PureState(3, outer * (_T_LAYER @ inner))


_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def measurement_basis(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """{sigma_z^k Z(-theta)|+>} for k = 0, 1."""
    b0 = z_rot(-theta) @ _PLUS
    return b0, pauli("z") @ b0


@dataclass(frozen=True)
class RepOutcome:
    k4: int
    k5: int
    k6: int
    branch_probability: float
    raw_state: PureState
    correction: ProductOperator
    corrected_state: PureState


def _correction(k6: int, k5: int, k4: int) -> ProductOperator:
    z, y, power = pauli("z"), pauli("y"), np.linalg.matrix_power
    frame = (power(z, k4 + k5), power(z, k5) @ power(y, k6), power(z, k4 + k6))
    return ProductOperator(frame).dagger()


# every branch (k6, k5, k4) in report order, and the inverse of its Pauli frame
_BRANCHES = tuple(np.ndindex(2, 2, 2))
_CORRECTIONS = {k: _correction(*k) for k in _BRANCHES}
_CORRECTION_MATRICES = np.reshape(
    [c.full_matrix() for c in _CORRECTIONS.values()], (2, 2, 2, 8, 8))


def _branches(params: RepTargetParams, adapt_sign: bool):
    """Born probabilities (k6, k5, k4) and the normalized raw and corrected
    three-qubit states (k6, k5, k4, 8) of all eight branches."""
    theta5 = (params.alpha5, -params.alpha5 if adapt_sign else params.alpha5)
    bases = np.array([measurement_basis(t) for t in (params.alpha6, *theta5, params.alpha4)])
    bras = bases.conj()
    if np.max(np.abs(np.einsum("nki,nli->nkl", bras, bases) - np.eye(2))) > ORTHONORMAL_ATOL:
        raise ValueError("measurement basis is not orthonormal within tolerance")
    amps = np.einsum(
        "abcdef,xf,xye,zd->xyzabc", _phi3_tensor(), bras[0], bras[1:3], bras[3]
    ).reshape(2, 2, 2, 8)
    probs = np.sum(np.abs(amps) ** 2, axis=-1)
    raw = amps / np.sqrt(probs)[..., None]
    corrected = np.einsum("xyzij,xyzj->xyzi", _CORRECTION_MATRICES, raw)
    if not np.all(np.abs(np.linalg.norm(corrected, axis=-1) - 1.0) <= ROUNDING_ATOL):
        raise NumericalError("a corrected branch state lost its normalization")
    return probs, raw, corrected


def _conditionals(probs: np.ndarray):
    """P(k6), P(k5 | k6) and P(k4 | k6, k5), indexed by the outcomes so far."""
    p6, p65 = probs.sum(axis=(1, 2)), probs.sum(axis=2)
    return p6 / p6.sum(), p65 / p6[:, None], probs / p65[..., None]


def simulate_rep(
    params: RepTargetParams,
    outcomes: tuple[int, int, int] | None = None,
    rng: np.random.Generator | None = None,
    adapt_sign: bool = True,
) -> RepOutcome:
    """Measure qubits 6, 5, 4 of the resource state and undo the Pauli frame.

    ``outcomes`` forces the branch as (k6, k5, k4), else ``rng`` draws it.
    ``adapt_sign=False`` disables the outcome-conditioned sign of theta_5; it is
    only a negative control, since without it determinism fails for alpha5 != 0 mod pi.
    """
    forced = (None, None, None) if outcomes is None else tuple(outcomes)
    if rng is None and None in forced:
        raise ValueError("simulate_rep needs rng or forced outcomes")
    probs, raw, corrected = _branches(params, adapt_sign)
    ks = ()
    for cond, k in zip(_conditionals(probs), forced):
        p = cond[ks]
        if k is None:
            k = int(rng.random() < p[1])
        else:
            k = int(k)
            if k not in (0, 1):
                raise ValueError("forced outcome must be 0 or 1")
            if p[k] < VANISHING_ATOL:
                raise ValueError(f"forced outcome {k} has vanishing probability {p[k]}")
        ks += (k,)
    k6, k5, k4 = ks
    raw_state, corrected_state = PureState(3, raw[ks]), PureState(3, corrected[ks])
    return RepOutcome(k4, k5, k6, float(probs[ks]), raw_state, _CORRECTIONS[ks], corrected_state)


@dataclass(frozen=True)
class RepBranchRecord:
    k6: int
    k5: int
    k4: int
    probability: float
    corrected_fidelity: float


@dataclass(frozen=True)
class RepReport:
    params: RepTargetParams
    branches: tuple[RepBranchRecord, ...]
    probability_total: float
    min_fidelity: float
    all_pass: bool


def verify_rep_determinism(params: RepTargetParams) -> RepReport:
    """Force all eight outcome paths and check each hits the target state."""
    probs, _, corrected = _branches(params, adapt_sign=True)
    floor = min(float(cond.min()) for cond in _conditionals(probs))
    if floor < VANISHING_ATOL:
        raise ValueError(f"a forced outcome has vanishing probability {floor}")
    fids = np.abs(corrected.conj() @ target_state(params).amplitudes) ** 2
    records = tuple(RepBranchRecord(*k, float(probs[k]), float(fids[k])) for k in _BRANCHES)
    total = float(probs.sum())
    worst = min(1.0, float(fids.min()))
    all_pass = worst >= 1.0 - EXACT_FIDELITY_TOL and abs(total - 1.0) <= ROUNDING_ATOL
    return RepReport(params, records, total, worst, all_pass)


@dataclass(frozen=True)
class MixedPrepResult:
    entry_index: int
    outcome: RepOutcome
    final_state: PureState
    density: DensityMatrix


def prepare_mixed3(entries, rng: np.random.Generator) -> MixedPrepResult:
    """Sample an ensemble entry, run the protocol, and report the exact density.

    ``entries`` holds (weight, RepTargetParams, post_lu) triples; ``post_lu``
    is an optional ProductOperator of unitaries applied after preparation. The
    returned density is the exact mixture sum_i p_i |psi_i><psi_i| over the
    declared targets, independent of the sampled branch.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("empty ensemble")
    weights = np.array([float(w) for w, _, _ in entries])
    if weights.min() < 0 or abs(weights.sum() - 1.0) > ROUNDING_ATOL:
        raise ValueError("weights must be nonnegative and sum to 1")

    finals = []
    for _, params, post_lu in entries:
        psi = target_state(params)
        if post_lu is not None:
            psi, _ = apply_product(post_lu, psi)
        finals.append(psi)
    density = DensityMatrix.mixture(weights, finals)

    idx = int(rng.choice(len(entries), p=weights))
    _, params, post_lu = entries[idx]
    outcome = simulate_rep(params, rng=rng)
    final = outcome.corrected_state
    if post_lu is not None:
        final, _ = apply_product(post_lu, final)
    return MixedPrepResult(idx, outcome, final, density)
