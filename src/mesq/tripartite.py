"""Three-qubit SLOCC classification, GHZ/W standard forms, and membership in
the three-qubit maximally entangled set.

A genuinely tripartite three-qubit state is GHZ-class exactly when the 2x2x2
hyperdeterminant of its amplitudes is nonzero; it then splits into two product
terms recovered here from the generalized eigenvalues of the slice pencil. The
GHZ-class standard form is

    (g_x^1 x g_x^2 x g_x^3) P_z |GHZ>,   g_x = sqrt(1/2 + gamma_x sigma_x),

with 0 <= gamma_x < 1/2 and P_z = diag(z, 1/z); the W-class form is
x0|000> + x1|100> + x2|010> + x3|001> with x1, x2, x3 > 0 and x0 >= 0.

Membership in the maximally entangled set: GHZ-class states belong iff
z in {1, i} and every gamma_x differs from zero (the GHZ state itself being
the all-gamma-zero exception); W-class states belong iff x0 = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (HYPERDET_THRESHOLD, PAULI, PENCIL_DEGENERACY_TOL, PHASE_EQUAL_TOL,
                   RANK_ONE_RATIO, RANK_SV_THRESHOLD, RESIDUAL_TOL, ROUNDING_ATOL, SCALE_FLOOR,
                   STANDARD_FORM_TOL, TIE_ATOL, VANISHING_ATOL, NumericalError, ProductOperator,
                   PureState, apply_product, fidelity, ghz_state, nearest_unitary, psd_sqrt, y_rot)


# -- classification ------------------------------------------------------------

def _slice_pencil(t: np.ndarray) -> tuple[complex, complex, complex]:
    """(det A, det B, mixed term) for the two slices A, B along the first axis."""
    a, b = t[0], t[1]
    det_a = complex(np.linalg.det(a))
    det_b = complex(np.linalg.det(b))
    mixed = complex(np.linalg.det(a + b)) - det_a - det_b
    return det_a, det_b, mixed


def hyperdeterminant(state: PureState) -> complex:
    """2x2x2 hyperdeterminant as the discriminant of the slice pencil."""
    if state.num_qubits != 3:
        raise ValueError("hyperdeterminant is defined for three qubits")
    det_a, det_b, mixed = _slice_pencil(state.tensor())
    return mixed * mixed - 4.0 * det_a * det_b


class Slocc3Tag(enum.Enum):
    GHZ_CLASS = "GhzClass"
    W_CLASS = "WClass"
    BISEPARABLE = "Biseparable"
    FULLY_PRODUCT = "FullyProduct"


@dataclass(frozen=True)
class Slocc3Result:
    tag: Slocc3Tag
    hyperdet: complex
    reduced_ranks: tuple[int, int, int]
    separated_party: int | None = None


def classify_slocc3(state: PureState) -> Slocc3Result:
    """SLOCC class of a three-qubit state with its certificate data."""
    if state.num_qubits != 3:
        raise ValueError("expected a three-qubit state")
    t = state.tensor()
    ranks = []
    for p in range(3):
        m = np.moveaxis(t, p, 0).reshape(2, 4)
        ranks.append(int(np.sum(np.linalg.svd(m, compute_uv=False) > RANK_SV_THRESHOLD)))
    ranks = tuple(ranks)
    det = hyperdeterminant(state)
    if abs(det) > HYPERDET_THRESHOLD:
        return Slocc3Result(Slocc3Tag.GHZ_CLASS, det, ranks)
    singles = [p + 1 for p, r in enumerate(ranks) if r == 1]
    if len(singles) >= 2:
        return Slocc3Result(Slocc3Tag.FULLY_PRODUCT, det, ranks)
    if len(singles) == 1:
        return Slocc3Result(Slocc3Tag.BISEPARABLE, det, ranks, separated_party=singles[0])
    return Slocc3Result(Slocc3Tag.W_CLASS, det, ranks)


# -- GHZ-class machinery ---------------------------------------------------------

def g_x(gamma: float) -> np.ndarray:
    """sqrt(1/2 + gamma*sigma_x); invertible for |gamma| < 1/2."""
    if not -0.5 < gamma < 0.5:
        raise ValueError("gamma must lie in (-1/2, 1/2)")
    return psd_sqrt(0.5 * np.eye(2, dtype=complex) + gamma * PAULI["x"])


def p_z(z: complex) -> np.ndarray:
    z = complex(z)
    if abs(z) < VANISHING_ATOL:
        raise ValueError("z must be nonzero")
    return np.diag([z, 1.0 / z]).astype(complex)


def ghz_form_state(z: complex, gammas) -> PureState:
    """Normalized (g_x x g_x x g_x) P_z |GHZ> for the given parameters."""
    op = ProductOperator((g_x(gammas[0]) @ p_z(z), g_x(gammas[1]), g_x(gammas[2])))
    out, _ = apply_product(op, ghz_state())
    return out


def w_form_state(x0: float, x1: float, x2: float, x3: float) -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0b000], amps[0b100], amps[0b010], amps[0b001] = x0, x1, x2, x3
    return PureState.normalized(amps)


def _pencil_roots(t: np.ndarray) -> list[np.ndarray]:
    """The two projective roots (t, s) of det(s*A - t*B) for the party-1 slices.

    Each root is the party-1 vector of one product term of a GHZ-class state.
    """
    det_a, det_b, mixed = _slice_pencil(t)
    disc = mixed * mixed - 4.0 * det_a * det_b
    scale = max(abs(det_a), abs(det_b), abs(mixed), SCALE_FLOOR)
    if max(abs(det_a), abs(det_b)) < PENCIL_DEGENERACY_TOL * scale:
        roots = [(1.0 + 0j, 0j), (0j, 1.0 + 0j)]
    else:
        sq = np.sqrt(disc)
        q = (mixed + sq) / 2 if abs(mixed + sq) >= abs(mixed - sq) else (mixed - sq) / 2
        if abs(det_b) >= abs(det_a):
            roots = [(q / det_b, 1.0 + 0j), (det_a / q, 1.0 + 0j)]
        else:
            roots = [(1.0 + 0j, q / det_a), (1.0 + 0j, det_b / q)]
    out = []
    for r in roots:
        v = np.array(r, dtype=complex)
        out.append(v / np.linalg.norm(v))
    return out


def _two_term_decomposition(state: PureState):
    """Split a GHZ-class state into kappa_1 a1 x a2 x a3 + kappa_2 b1 x b2 x b3.

    The slice pencil along party 1 is singular exactly at the two party-1 term
    vectors; at each root the remainder matrix is rank one and factors into the
    other term's party-2/3 vectors.
    """
    t = state.tensor()
    roots = _pencil_roots(t)
    a, b = t[0], t[1]
    vecs = [[None, None, None], [None, None, None]]
    vecs[0][0], vecs[1][0] = roots[0], roots[1]
    worst_ratio = 0.0
    for i in (0, 1):
        n = roots[i][1] * a - roots[i][0] * b
        u, s, vh = np.linalg.svd(n)
        if s[0] < PENCIL_DEGENERACY_TOL:
            raise NumericalError("slice pencil collapsed; state is numerically borderline")
        worst_ratio = max(worst_ratio, float(s[1] / s[0]))
        vecs[1 - i][1] = u[:, 0]
        vecs[1 - i][2] = vh[0, :]
    return vecs, worst_ratio


def _phase_to_largest(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    return v / (v[k] / abs(v[k]))


def _fit_coefficients(vecs, amps: np.ndarray) -> tuple[np.ndarray, float]:
    m = np.stack(
        [np.kron(np.kron(vecs[j][0], vecs[j][1]), vecs[j][2]) for j in (0, 1)], axis=1
    )
    kappa, *_ = np.linalg.lstsq(m, amps, rcond=None)
    return kappa, float(np.linalg.norm(m @ kappa - amps))


@dataclass(frozen=True)
class GhzStandardForm:
    """GHZ-class parameters (z, gamma_x) with the local-unitary witness.

    Applying ``local_unitaries`` to ``ghz_form_state(z, gamma_x)`` reproduces
    the classified state up to a global phase. z is canonical under the
    symmetry moves z -> 1/z and z -> -z: |z| >= 1 with arg(z) in [0, pi),
    the smaller argument winning on the |z| = 1 circle.
    """

    z: complex
    gamma_x: tuple[float, float, float]
    local_unitaries: ProductOperator
    fit_residual: float
    reconstruction_fidelity: float


def _fold_sign(z: complex) -> complex:
    """z or -z, whichever has arg in [0, pi); args within rounding of 0 or pi count as 0."""
    if abs(z.imag) <= ROUNDING_ATOL * abs(z):
        return z if z.real > 0 else -z
    return z if z.imag > 0 else -z


def ghz_standard_form(state: PureState) -> GhzStandardForm:
    """Extract (z, gamma_x, local unitaries) for a GHZ-class state.

    Raises NumericalError when the extraction fails its own checks.
    """
    result = classify_slocc3(state)
    if result.tag is not Slocc3Tag.GHZ_CLASS:
        raise ValueError(f"state is not GHZ-class (classified {result.tag.value})")
    return extract_ghz_form(state)


def extract_ghz_form(state: PureState) -> GhzStandardForm:
    """``ghz_standard_form`` of a state its caller has already classified GHZ-class."""
    vecs, rank_ratio = _two_term_decomposition(state)
    if rank_ratio > RANK_ONE_RATIO:
        raise NumericalError(
            f"hyperdeterminant is numerically borderline (remainder ratio {rank_ratio:.2e})"
        )

    term_a = [_phase_to_largest(vecs[0][i]) for i in range(3)]
    term_b = []
    overlaps = []
    for i in range(3):
        bi = _phase_to_largest(vecs[1][i])
        ov = np.vdot(term_a[i], bi)
        if abs(ov) > STANDARD_FORM_TOL:
            bi = bi * (abs(ov) / ov)
        term_b.append(bi)
        overlaps.append(abs(np.vdot(term_a[i], bi)))
    kappa, residual = _fit_coefficients([term_a, term_b], state.amplitudes)
    gammas = tuple(float(t / 2.0) for t in overlaps)

    z_fwd = _fold_sign(np.sqrt(kappa[0] / kappa[1]))
    z_rev = _fold_sign(np.sqrt(kappa[1] / kappa[0]))
    if abs(z_fwd) > 1.0 + RESIDUAL_TOL:
        z, swap = z_fwd, False
    elif abs(z_fwd) < 1.0 - RESIDUAL_TOL:
        z, swap = z_rev, True
    elif np.angle(z_fwd) <= np.angle(z_rev) + TIE_ATOL:
        z, swap = z_fwd, False
    else:
        z, swap = z_rev, True
    if swap:
        term_a, term_b = term_b, term_a

    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    unitaries = []
    for i in range(3):
        g = g_x(gammas[i])
        pq = np.column_stack([math.sqrt(2) * (g @ e0), math.sqrt(2) * (g @ e1)])
        u = np.column_stack([term_a[i], term_b[i]]) @ np.linalg.inv(pq)
        unitaries.append(nearest_unitary(u))
    witness = ProductOperator(tuple(unitaries))

    recon, _ = apply_product(witness, ghz_form_state(z, gammas))
    fid = fidelity(recon, state)
    if fid < 1.0 - PHASE_EQUAL_TOL:
        raise NumericalError(
            f"standard-form reconstruction fidelity {fid} below tolerance; "
            "state is numerically borderline"
        )
    return GhzStandardForm(complex(z), gammas, witness, residual, fid)


# -- W-class machinery -----------------------------------------------------------

@dataclass(frozen=True)
class WStandardForm:
    """W-class amplitudes (x0..x3) with the local-unitary witness.

    Parties keep their input order: x1, x2, x3 multiply the single-excitation
    kets of parties 1, 2, 3 respectively, matching the triangular-operator
    convention that puts the identity factor on party 3.
    """

    x0: float
    x1: float
    x2: float
    x3: float
    local_unitaries: ProductOperator
    off_support_norm: float
    reconstruction_fidelity: float

    def g1(self) -> np.ndarray:
        return np.array([[1.0, 0.0], [0.0, self.x1 / self.x3]], dtype=complex)

    def g2(self) -> np.ndarray:
        return np.array([[self.x3, self.x0], [0.0, self.x2]], dtype=complex)


def _double_root(t: np.ndarray) -> np.ndarray:
    """Double root of the slice-pencil determinant (W-class pencils only)."""
    det_a, det_b, mixed = _slice_pencil(t)
    if max(abs(det_a), abs(det_b)) < VANISHING_ATOL:
        raise NumericalError("degenerate slice pencil; state is not genuinely tripartite")
    if abs(det_a) >= abs(det_b):
        root = np.array([2.0 * det_a, mixed], dtype=complex)
    else:
        root = np.array([mixed, 2.0 * det_b], dtype=complex)
    return root / np.linalg.norm(root)


def w_standard_form(state: PureState) -> WStandardForm:
    """Extract the x0..x3 amplitudes and local unitaries of a W-class state.

    Raises NumericalError when the extraction fails its own checks.
    """
    result = classify_slocc3(state)
    if result.tag is not Slocc3Tag.W_CLASS:
        raise ValueError(f"state is not W-class (classified {result.tag.value})")
    return extract_w_form(state)


def extract_w_form(state: PureState) -> WStandardForm:
    """``w_standard_form`` of a state its caller has already classified W-class."""
    t = state.tensor()
    rotations = []
    for p in range(3):
        e = _double_root(np.moveaxis(t, p, 0))
        rotations.append(
            np.array([[e[0].conj(), e[1].conj()], [-e[1], e[0]]], dtype=complex)
        )
    rotated, _ = apply_product(ProductOperator(tuple(rotations)), state)
    c = rotated.amplitudes
    support = (0b000, 0b100, 0b010, 0b001)
    off = math.sqrt(
        float(sum(abs(c[k]) ** 2 for k in range(8) if k not in support))
    )
    if off * off > PHASE_EQUAL_TOL:
        raise NumericalError(f"off-support weight {off:.3e}; state is numerically borderline")
    coeffs = [c[k] for k in support]
    if abs(coeffs[0]) > STANDARD_FORM_TOL:
        global_phase = coeffs[0] / abs(coeffs[0])
    else:
        global_phase = coeffs[1] / abs(coeffs[1])
    coeffs = [v / global_phase for v in coeffs]
    phases = [1.0 + 0j, 1.0 + 0j, 1.0 + 0j]
    for i in (1, 2, 3):
        if abs(coeffs[i]) < ROUNDING_ATOL:
            raise NumericalError("vanishing single-excitation amplitude; not genuinely W-class")
        phases[i - 1] = coeffs[i] / abs(coeffs[i])
    x0 = float(abs(coeffs[0])) if abs(coeffs[0]) > STANDARD_FORM_TOL else 0.0
    xs = (x0, float(abs(coeffs[1])), float(abs(coeffs[2])), float(abs(coeffs[3])))

    unitaries = []
    for p in range(3):
        d = np.diag([1.0, np.conj(phases[p])]).astype(complex)
        unitaries.append((d @ rotations[p]).conj().T)
    witness = ProductOperator(tuple(unitaries))
    recon, _ = apply_product(witness, w_form_state(*xs))
    fid = fidelity(recon, state)
    if fid < 1.0 - PHASE_EQUAL_TOL:
        raise NumericalError(f"W standard-form reconstruction fidelity {fid} below tolerance")
    return WStandardForm(*xs, witness, off, fid)


# -- maximally entangled set membership -------------------------------------------

@dataclass(frozen=True)
class Mes3Certificate:
    member: bool
    slocc: Slocc3Tag
    reason: str
    ghz_form: GhzStandardForm | None = None
    w_form: WStandardForm | None = None


def in_mes3(state: PureState, tol: float = STANDARD_FORM_TOL) -> tuple[bool, Mes3Certificate]:
    """Maximally-entangled-set membership for a genuinely tripartite state."""
    result = classify_slocc3(state)
    if result.tag in (Slocc3Tag.BISEPARABLE, Slocc3Tag.FULLY_PRODUCT):
        raise ValueError(
            f"membership is defined for genuinely tripartite states, got {result.tag.value}"
        )
    if result.tag is Slocc3Tag.GHZ_CLASS:
        form = extract_ghz_form(state)
        z, gammas = form.z, form.gamma_x
        all_gamma_zero = all(g <= tol for g in gammas)
        if all_gamma_zero:
            member = abs(abs(z) - 1.0) <= tol
            reason = (
                "GHZ state itself (all gamma zero, |z| = 1)"
                if member
                else f"all gamma zero with |z| = {abs(z):.6f} != 1: reachable from GHZ"
            )
        else:
            z_ok = abs(z - 1.0) <= tol or abs(z - 1j) <= tol
            gamma_ok = all(g > tol for g in gammas)
            member = z_ok and gamma_ok
            if member:
                reason = "z in {1, i} and every gamma_x nonzero"
            elif not z_ok:
                reason = f"z = {z:.6f} not in {{1, i}}"
            else:
                reason = "some gamma_x vanishes while others do not"
        return member, Mes3Certificate(member, result.tag, reason, ghz_form=form)
    form = extract_w_form(state)
    member = form.x0 <= tol
    reason = "x0 = 0" if member else f"x0 = {form.x0:.6f} > 0: reachable from the x0 = 0 state"
    return member, Mes3Certificate(member, result.tag, reason, w_form=form)


# -- the three-parameter family ----------------------------------------------------

@dataclass(frozen=True)
class Mes3Params:
    """Parameters (a, beta, beta_prime) of the three-parameter family."""

    a: float
    beta: float
    beta_prime: float

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise ValueError("a must lie in (0, 1]")


def mes3_state(params: Mes3Params) -> PureState:
    """|0>|Psi_s> + |1>(Y(beta') x Y(beta))|Psi_s>, normalized.

    |Psi_s> = a|00> + sqrt(1-a^2)|11> and Y(beta) = exp(i beta sigma_y).
    Degenerate parameter choices (e.g. beta = beta' = 0) give biseparable
    states; generic choices land in the maximally entangled set.
    """
    a = params.a
    psi_s = np.array([a, 0.0, 0.0, math.sqrt(max(0.0, 1.0 - a * a))], dtype=complex)
    amps = np.concatenate([psi_s, np.kron(y_rot(params.beta_prime), y_rot(params.beta)) @ psi_s])
    return PureState.normalized(amps)
