"""Dense complex linear algebra for few-qubit pure states.

Conventions used by every module in this package:

* Parties are labelled 1..n and party 1 is the most significant bit of the
  amplitude index, i.e. ``amplitudes[0b10] == <10|psi>`` pairs party 1 with
  the leading bit.
* States are compared up to a global phase: two states are "equal" when
  ``fidelity(a, b) >= 1 - tol`` with ``tol = 1e-9`` by default.
* Single-party operators are applied by ``contract(tensor, ops, axes)``: it
  applies ``ops[i]``, of shape ``(m, d)``, along ``axes[i]`` (0-based; party p
  is axis p - 1), in the order given, so an axis may be hit more than once. An
  axis of size d becomes one of size m and keeps its place among the others.
* All values are immutable after construction and every operation is a pure
  function; random number generators are always passed explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-12
BASIS_ORTHO_ATOL = 1e-10
FORCED_BRANCH_MIN_PROB = 1e-14
PHASE_EQUAL_TOL = 1e-9
# lu_equivalent decides directly when every single-party spectral gap is at
# least LU_SPECTRAL_GAP; amplitudes of weight at most LU_SUPPORT_WEIGHT in the
# local eigenbases, where rounding leaves zero amplitudes, are left out of its
# phase system.
LU_SPECTRAL_GAP = 1e-4
LU_SUPPORT_WEIGHT = 1e-20

SQRT2_INV = 1.0 / math.sqrt(2.0)


class NumericalError(ValueError):
    """A computation on acceptable input failed one of its own numerical checks,
    such as a residual bound; a plain ValueError means the input is unacceptable."""


PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _frozen_array(a, shape=None) -> np.ndarray:
    arr = np.array(a, dtype=complex)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("array contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of ``num_qubits`` qubits as a flat amplitude vector."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        amps = _frozen_array(np.asarray(self.amplitudes).reshape(-1))
        if amps.size != 2 ** self.num_qubits:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {2 ** self.num_qubits}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} deviates from 1 beyond tolerance")
        if abs(norm - 1.0) > NORM_ATOL:
            amps = _frozen_array(amps / norm)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a state from an arbitrary nonzero vector, rescaling to unit norm."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(round(math.log2(amps.size)))
        if 2**n != amps.size:
            raise ValueError("amplitude vector length must be a power of 2")
        norm = np.linalg.norm(amps)
        if norm < 1e-14:
            raise ValueError("cannot normalize a zero vector")
        return cls(n, amps / norm)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party (party i -> axis i-1)."""
        return self.amplitudes.reshape([2] * self.num_qubits)


@dataclass(frozen=True)
class ProductOperator:
    """Tensor product of one 2x2 operator per party."""

    factors: tuple

    def __post_init__(self):
        facs = tuple(_frozen_array(f, shape=(2, 2)) for f in self.factors)
        if not facs:
            raise ValueError("ProductOperator needs at least one factor")
        object.__setattr__(self, "factors", facs)

    @property
    def num_parties(self) -> int:
        return len(self.factors)

    @classmethod
    def identity(cls, n: int) -> "ProductOperator":
        return cls(tuple(np.eye(2, dtype=complex) for _ in range(n)))

    @classmethod
    def pauli_string(cls, letters: str) -> "ProductOperator":
        """e.g. ``pauli_string("xixz")`` for sigma_x x 1 x sigma_x x sigma_z."""
        return cls(tuple(PAULI[c] for c in letters.lower()))

    @classmethod
    def single(cls, n: int, party: int, factor) -> "ProductOperator":
        """Operator acting as ``factor`` on ``party`` (1-based) and identity elsewhere."""
        _check_parties(n, [party])
        facs = [np.eye(2, dtype=complex) for _ in range(n)]
        facs[party - 1] = np.asarray(factor, dtype=complex)
        return cls(tuple(facs))

    def dagger(self) -> "ProductOperator":
        return ProductOperator(tuple(f.conj().T for f in self.factors))

    def inverse(self) -> "ProductOperator":
        invs = []
        for k, f in enumerate(self.factors):
            if abs(np.linalg.det(f)) < 1e-14:
                raise ValueError(f"factor for party {k + 1} is singular")
            invs.append(np.linalg.inv(f))
        return ProductOperator(tuple(invs))

    def compose(self, other: "ProductOperator") -> "ProductOperator":
        """Factor-wise matrix product ``self @ other`` (other acts first)."""
        if self.num_parties != other.num_parties:
            raise ValueError("party count mismatch")
        return ProductOperator(tuple(a @ b for a, b in zip(self.factors, other.factors)))

    def full_matrix(self) -> np.ndarray:
        m = self.factors[0]
        for f in self.factors[1:]:
            m = np.kron(m, f)
        return m


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        ent = _frozen_array(self.entries, shape=(self.dim, self.dim))
        if np.max(np.abs(ent - ent.conj().T)) > HERMITIAN_ATOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(ent).real - 1.0) > TRACE_ATOL or abs(np.trace(ent).imag) > TRACE_ATOL:
            raise ValueError("density matrix trace deviates from 1")
        eigs = np.linalg.eigvalsh(ent)
        if eigs.min() < -PSD_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        v = state.amplitudes
        return cls(v.size, np.outer(v, v.conj()))

    @classmethod
    def mixture(cls, weights, states) -> "DensityMatrix":
        """sum_i p_i |psi_i><psi_i|, accumulated in the order given."""
        states = list(states)
        dim = states[0].amplitudes.size
        rho = np.zeros((dim, dim), dtype=complex)
        for p, psi in zip(weights, states, strict=True):
            rho += p * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return cls(dim, rho)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


# -- state constructors ------------------------------------------------------

def basis_state(num_qubits: int, bits: str) -> PureState:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(num_qubits, amps)


def plus_state(num_qubits: int) -> PureState:
    d = 2**num_qubits
    return PureState(num_qubits, np.full(d, 1.0 / math.sqrt(d), dtype=complex))


def ghz_state(num_qubits: int = 3) -> PureState:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = amps[-1] = SQRT2_INV
    return PureState(num_qubits, amps)


def w_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0b100] = amps[0b010] = amps[0b001] = 1.0 / math.sqrt(3.0)
    return PureState(3, amps)


# -- gate constructors -------------------------------------------------------

def pauli(w: str) -> np.ndarray:
    return PAULI[w.lower()].copy()


def hadamard() -> np.ndarray:
    return SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=complex)


def z_rot(alpha: float) -> np.ndarray:
    """exp(i*alpha*sigma_z) = diag(e^{i alpha}, e^{-i alpha})."""
    return np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)]).astype(complex)


def y_rot(beta: float) -> np.ndarray:
    """exp(i*beta*sigma_y), a real rotation matrix."""
    c, s = math.cos(beta), math.sin(beta)
    return np.array([[c, s], [-s, c]], dtype=complex)


def x_rot(theta: float) -> np.ndarray:
    """exp(i*theta*sigma_x)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


def t2_gate() -> np.ndarray:
    """exp(i pi/4 sigma_y) Z(pi/4) H."""
    return y_rot(math.pi / 4) @ z_rot(math.pi / 4) @ hadamard()


def t3_gate() -> np.ndarray:
    """exp(-i pi/4 sigma_x) Z(-pi/4) H."""
    return x_rot(-math.pi / 4) @ z_rot(-math.pi / 4) @ hadamard()


def cz_gate() -> np.ndarray:
    """|0><0| x 1 + |1><1| x sigma_z."""
    return np.diag([1, 1, 1, -1]).astype(complex)


def phase_string_gate(alpha: float, num_targets: int) -> np.ndarray:
    """exp(i*alpha * sigma_z x ... x sigma_z) on ``num_targets`` qubits (diagonal)."""
    signs = np.array(
        [(-1) ** bin(k).count("1") for k in range(2**num_targets)], dtype=float
    )
    return np.diag(np.exp(1j * alpha * signs))


# -- applying operators ------------------------------------------------------

def _check_parties(num_qubits: int, parties) -> list[int]:
    parties = list(parties)
    if not parties:
        raise ValueError("empty party list")
    if len(set(parties)) != len(parties):
        raise ValueError("duplicate party index")
    for p in parties:
        if not 1 <= p <= num_qubits:
            raise ValueError(f"party index {p} outside 1..{num_qubits}")
    return parties


def contract(tensor: np.ndarray, ops, axes) -> np.ndarray:
    """Apply ``ops[i]`` (shape ``(m, d)``) along ``axes[i]`` of ``tensor``, in order."""
    for op, axis in zip(ops, axes, strict=True):
        tensor = np.moveaxis(np.tensordot(op, tensor, axes=([1], [axis])), 0, axis)
    return tensor


def apply_on(state: PureState, unitary: np.ndarray, parties) -> PureState:
    """Apply a unitary acting on the given parties (1-based, in the given order)."""
    parties = _check_parties(state.num_qubits, parties)
    k = len(parties)
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"unitary shape {u.shape} does not match {k} target parties")
    axes = [p - 1 for p in parties]
    t = np.moveaxis(state.tensor(), axes, range(k))
    rest = t.shape[k:]
    t = u @ t.reshape(2**k, -1)
    t = np.moveaxis(t.reshape([2] * k + list(rest)), range(k), axes)
    return PureState(state.num_qubits, t.reshape(-1))


def apply_product(op: ProductOperator, state: PureState) -> tuple[PureState, float]:
    """Apply a product operator; returns the state and the pre-normalization squared norm."""
    if op.num_parties != state.num_qubits:
        raise ValueError(
            f"operator has {op.num_parties} factors for a {state.num_qubits}-qubit state"
        )
    vec = contract(state.tensor(), op.factors, range(state.num_qubits)).reshape(-1)
    sq_norm = float(np.vdot(vec, vec).real)
    if sq_norm < 1e-28:
        raise ValueError("product operator destroyed the state (zero output vector)")
    return PureState(state.num_qubits, vec / math.sqrt(sq_norm)), sq_norm


def reduced_density(state: PureState, keep) -> DensityMatrix:
    """Partial trace keeping the listed parties (1-based), ordered ascending."""
    keep = sorted(_check_parties(state.num_qubits, keep))
    t = state.tensor()
    drop = [p - 1 for p in range(1, state.num_qubits + 1) if p not in keep]
    rho = np.tensordot(t, t.conj(), axes=(drop, drop))
    d = 2 ** len(keep)
    return DensityMatrix(d, rho.reshape(d, d))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2; equals 1 iff the states agree up to a global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit count mismatch")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


# -- measurement -------------------------------------------------------------

@dataclass(frozen=True)
class MeasureResult:
    outcome: int
    probability: float
    post_state: PureState


def projective_measure(
    state: PureState,
    party: int,
    basis,
    forced_outcome: int | None = None,
    rng: np.random.Generator | None = None,
) -> MeasureResult:
    """Measure one party in an orthonormal 1-qubit basis ``(b0, b1)``.

    The measured party is removed from the register; remaining parties keep
    their relative order. With ``forced_outcome`` the branch is selected
    deterministically and its true Born probability is returned; otherwise
    the outcome is drawn from ``rng``, which must then be given.
    """
    _check_parties(state.num_qubits, [party])
    if state.num_qubits == 1:
        raise ValueError("cannot remove the last remaining qubit")
    b = np.column_stack([np.asarray(v, dtype=complex).reshape(2) for v in basis])
    if np.max(np.abs(b.conj().T @ b - np.eye(2))) > BASIS_ORTHO_ATOL:
        raise ValueError("measurement basis is not orthonormal within tolerance")
    branches = contract(state.tensor(), [b.conj().T], [party - 1])
    posts = [branches.take(k, axis=party - 1) for k in range(2)]
    probs = np.array([float(np.vdot(post, post).real) for post in posts])
    if forced_outcome is not None:
        outcome = int(forced_outcome)
        if outcome not in (0, 1):
            raise ValueError("forced outcome must be 0 or 1")
        if probs[outcome] < FORCED_BRANCH_MIN_PROB:
            raise ValueError(
                f"forced outcome {outcome} has vanishing probability {probs[outcome]}"
            )
    elif rng is None:
        raise ValueError("projective_measure needs rng or forced_outcome")
    else:
        outcome = int(rng.random() < probs[1])
    prob = float(probs[outcome])
    post = posts[outcome] / math.sqrt(prob)
    return MeasureResult(outcome, prob, PureState(state.num_qubits - 1, post.reshape(-1)))


# -- random sampling helpers -------------------------------------------------

def random_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    z = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    return PureState.normalized(z)


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_invertible(
    rng: np.random.Generator, s_min: float = 0.5, s_max: float = 2.0
) -> np.ndarray:
    """Random invertible 2x2 with singular values bounded in [s_min, s_max]."""
    s = rng.uniform(s_min, s_max, size=2)
    return random_unitary(rng) @ np.diag(s).astype(complex) @ random_unitary(rng)


def random_product_unitary(n: int, rng: np.random.Generator) -> ProductOperator:
    return ProductOperator(tuple(random_unitary(rng) for _ in range(n)))


def random_product_invertible(
    n: int, rng: np.random.Generator, s_min: float = 0.5, s_max: float = 2.0
) -> ProductOperator:
    return ProductOperator(tuple(random_invertible(rng, s_min, s_max) for _ in range(n)))


# -- positive 2x2 helpers ----------------------------------------------------

def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix."""
    vals, vecs = np.linalg.eigh(np.asarray(m, dtype=complex))
    if vals.min() < -PSD_ATOL:
        raise ValueError(f"matrix is not PSD (eigenvalue {vals.min()})")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def pauli_components(m: np.ndarray) -> tuple[complex, complex, complex, complex]:
    """Coefficients (c_i, c_x, c_y, c_z) of m = c_i*1 + c_x*sx + c_y*sy + c_z*sz."""
    m = np.asarray(m, dtype=complex)
    return tuple(np.trace(PAULI[w] @ m) / 2.0 for w in "ixyz")


# -- local-unitary equivalence -----------------------------------------------

def _alternating_lu_search(a: PureState, b: PureState, us: list, iters: int) -> float:
    at, bt = a.tensor(), b.tensor()
    n = a.num_qubits
    best = 0.0
    for _ in range(iters):
        for i in range(n):
            others = [j for j in range(n) if j != i]
            cur = contract(at, [us[j] for j in others], others)
            m = np.tensordot(bt.conj(), cur, axes=(others, others))
            w, _, vh = np.linalg.svd(m.T)
            us[i] = (w @ vh).conj().T
        val = contract(at, us, range(n))
        f = abs(np.vdot(bt.reshape(-1), val.reshape(-1))) ** 2
        if f <= best + 1e-15:
            best = max(best, f)
            break
        best = f
    return best


def _diagonalize(m: np.ndarray):
    """Unimodular integer U, V and diagonal d with ``U @ m @ V`` zero except
    ``d`` on its leading diagonal (the Smith form without its divisibility chain)."""
    a = np.array(m, dtype=np.int64)
    rows, cols = a.shape
    u, v = np.eye(rows, dtype=np.int64), np.eye(cols, dtype=np.int64)
    t = 0
    while t < min(rows, cols):
        nz = np.argwhere(a[t:, t:])
        if not nz.size:
            break
        i, j = nz[np.argmin(np.abs(a[t:, t:][tuple(nz.T)]))] + t
        a[[t, i]], u[[t, i]] = a[[i, t]], u[[i, t]]
        a[:, [t, j]], v[:, [t, j]] = a[:, [j, t]], v[:, [j, t]]
        q = a[t + 1:, t] // a[t, t]
        a[t + 1:] -= np.outer(q, a[t])
        u[t + 1:] -= np.outer(q, u[t])
        q = a[t, t + 1:] // a[t, t]
        a[:, t + 1:] -= np.outer(a[:, t], q)
        v[:, t + 1:] -= np.outer(v[:, t], q)
        if not (a[t + 1:, t].any() or a[t, t + 1:].any()):
            t += 1
    return u, v, np.diagonal(a)[:t]


def _solve_mod_2pi(m: np.ndarray, theta: np.ndarray):
    """Solve ``m @ x = theta (mod 2 pi)`` for an integer matrix ``m``.

    Returns ``(x, z, r)``: ``x`` solves the system whenever it is solvable,
    and each row of ``z`` is an integer zero divisor (``z @ m == 0``) with
    residual ``r = wrap(z @ theta)``. The system is solvable iff every
    residual is 0 mod 2 pi, and a nonzero one proves it is not.
    """
    u, v, d = _diagonalize(m)
    c = u @ theta
    rank = len(d)
    y = np.zeros(m.shape[1])
    y[:rank] = c[:rank] / d
    return v @ y, u[rank:], (c[rank:] + math.pi) % (2.0 * math.pi) - math.pi


def _local_density(tensor: np.ndarray, axis: int) -> np.ndarray:
    """One party's reduced density matrix, without DensityMatrix validation."""
    m = np.moveaxis(tensor, axis, 0).reshape(2, -1)
    return m @ m.conj().T


def _eigenbasis_witness(ta, tb, basis_a, basis_b, tol):
    n = ta.ndim
    at = contract(ta, [v.conj().T for v in basis_a], range(n)).reshape(-1)
    bt = contract(tb, [v.conj().T for v in basis_b], range(n)).reshape(-1)
    mod_a, mod_b = np.abs(at), np.abs(bt)
    # the best fidelity over diagonal phases is at most (sum_i |a_i| |b_i|)^2
    if np.dot(mod_a, mod_b) ** 2 < 1.0 - tol:
        return None
    support = np.flatnonzero(mod_a**2 > LU_SUPPORT_WEIGHT)
    bits = (support[:, None] >> np.arange(n - 1, -1, -1)) & 1
    m = np.column_stack([np.ones(len(support), dtype=np.int64), bits])
    theta = np.angle(bt[support] / at[support])
    x, zero_divisors, residuals = _solve_mod_2pi(m, theta)
    # a zero divisor z with residual r forces some phase error of at least
    # |r| / |z|_1 on its support; 1 - cos e >= 2 e^2 / pi^2 bounds the loss
    mod_s = mod_a[support]
    for z, r in zip(zero_divisors, residuals):
        w_min = mod_s[z != 0].min() ** 2
        if 2.0 * w_min * r**2 / (math.pi**2 * np.abs(z).sum() ** 2) > tol:
            return None
    # rounding noise on arg(b_i / a_i) grows as 1 / |a_i|; one least-squares
    # step weighted by |a_i| keeps small pivot amplitudes from setting the
    # phases of large ones
    err = (m @ x - theta + math.pi) % (2.0 * math.pi) - math.pi
    x = x - np.linalg.lstsq(m * mod_s[:, None], err * mod_s, rcond=None)[0]
    return [vb @ np.diag([1.0, np.exp(1j * xp)]) @ va.conj().T
            for va, vb, xp in zip(basis_a, basis_b, x[1:])]


def _searched_witness(a, b, tol, rng, restarts, iters):
    n = a.num_qubits
    gen = rng if rng is not None else np.random.default_rng(0)
    starts = [[np.eye(2, dtype=complex) for _ in range(n)]]
    starts += [[random_unitary(gen) for _ in range(n)] for _ in range(restarts)]
    best_f, best_us = -1.0, None
    for start in starts:
        us = [u.copy() for u in start]
        f = _alternating_lu_search(a, b, us, iters)
        if f > best_f:
            best_f, best_us = f, [u.copy() for u in us]
        if best_f >= 1.0 - tol:
            break
    if best_f < 1.0 - tol:
        return None
    cleaned = []
    for u in best_us:
        w, _, vh = np.linalg.svd(u)
        cleaned.append(w @ vh)
    return cleaned


def lu_equivalent(
    a: PureState,
    b: PureState,
    tol: float = PHASE_EQUAL_TOL,
    rng: np.random.Generator | None = None,
    restarts: int = 24,
    iters: int = 60,
) -> ProductOperator | None:
    """Find single-qubit unitaries U_1 x ... x U_n mapping ``a`` onto ``b``.

    Returns a witness ProductOperator with ``fidelity(U a, b) >= 1 - tol``,
    or ``None``. Local spectra that differ rule equivalence out. When every
    single-party spectrum has a gap of at least ``LU_SPECTRAL_GAP``, each U_p
    must carry the eigenbasis of a onto that of b up to diagonal phases, so
    the question is decided directly: in those bases the moduli must agree,
    and the phase of b_i / a_i on each supported amplitude i must equal
    x_0 + sum_p bit_p(i) x_p (mod 2 pi), which an integer diagonalization
    solves exactly. ``None`` is then a decision up to ``tol``: it is returned
    when the moduli or a zero-divisor residual bound the fidelity of every
    product unitary below ``1 - tol``. A degenerate or near-degenerate
    spectrum (GHZ, the four-qubit G_abcd family) falls back to alternating
    optimization from the identity and ``restarts`` random starts drawn from
    ``rng``, and there ``None`` only means that the bounded search found no
    witness.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit count mismatch")
    n = a.num_qubits
    spectra_tol = 10.0 * math.sqrt(max(tol, 1e-16)) + 1e-10
    ta, tb = a.tensor(), b.tensor()
    basis_a, basis_b, gap = [], [], math.inf
    for axis in range(n):
        ea, va = np.linalg.eigh(_local_density(ta, axis))
        eb, vb = np.linalg.eigh(_local_density(tb, axis))
        if np.max(np.abs(ea - eb)) > spectra_tol:
            return None
        gap = min(gap, ea[1] - ea[0], eb[1] - eb[0])
        basis_a.append(va)
        basis_b.append(vb)

    if gap >= LU_SPECTRAL_GAP:
        us = _eigenbasis_witness(ta, tb, basis_a, basis_b, tol)
    else:
        us = _searched_witness(a, b, tol, rng, restarts, iters)
    if us is None:
        return None
    witness = ProductOperator(tuple(us))
    out, _ = apply_product(witness, a)
    if fidelity(out, b) < 1.0 - tol:
        return None
    return witness
