"""Plain-numpy reference constructions, written apart from ``mesq``.

The benchmark builds its inputs and checks the program's answers with these
functions only, so a fault in ``mesq`` cannot hide behind itself. Conventions
follow the package: party 1 is the most significant bit of the amplitude index.
"""

from __future__ import annotations

import math

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ}


def kron(*mats) -> np.ndarray:
    """Kronecker product of matrices, party 1 first."""
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        m = np.asarray(m, dtype=complex)
        rows, cols = out.shape[0] * m.shape[0], out.shape[1] * m.shape[1]
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(rows, cols)
    return out


def kron_vec(*vecs) -> np.ndarray:
    return kron(*[np.asarray(v, dtype=complex).reshape(-1, 1) for v in vecs]).reshape(-1)


def apply(factors, vec) -> np.ndarray:
    """Dense ``(f_1 x ... x f_n) vec``."""
    return kron(*factors) @ np.asarray(vec, dtype=complex)


def normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def overlap2(a, b) -> float:
    """|<a|b>|^2 of two normalized vectors."""
    return float(abs(np.vdot(a, b)) ** 2)


def pauli_exp(theta: float, p: np.ndarray) -> np.ndarray:
    """exp(i theta P) for a Pauli matrix P."""
    return math.cos(theta) * I2 + 1j * math.sin(theta) * p


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def invertible(rng: np.random.Generator, s_min: float = 0.5, s_max: float = 2.0) -> np.ndarray:
    s = rng.uniform(s_min, s_max, size=2)
    return haar_unitary(rng) @ np.diag(s).astype(complex) @ haar_unitary(rng)


def random_vector(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    d = 2**n_qubits
    return normalize(rng.standard_normal(d) + 1j * rng.standard_normal(d))


def psd_sqrt(m) -> np.ndarray:
    vals, vecs = np.linalg.eigh(np.asarray(m, dtype=complex))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def bloch_factor(v) -> np.ndarray:
    """sqrt(1/2 + v . sigma), a positive local operator with Pauli vector v."""
    return psd_sqrt(0.5 * I2 + v[0] * SX + v[1] * SY + v[2] * SZ)


def local_spectra(vec, n: int) -> list[np.ndarray]:
    """Sorted eigenvalues of every single-party reduced density matrix."""
    t = np.asarray(vec, dtype=complex).reshape([2] * n)
    out = []
    for p in range(n):
        m = np.moveaxis(t, p, 0).reshape(2, -1)
        out.append(np.linalg.eigvalsh(m @ m.conj().T))
    return out


# -- three qubits ----------------------------------------------------------------

GHZ3 = np.zeros(8, dtype=complex)
GHZ3[0] = GHZ3[7] = 1 / math.sqrt(2)


def g_x(gamma: float) -> np.ndarray:
    """sqrt(1/2 + gamma sigma_x) from its eigenbasis |+>, |->."""
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
    return (math.sqrt(0.5 + gamma) * np.outer(plus, plus)
            + math.sqrt(0.5 - gamma) * np.outer(minus, minus))


def ghz_form(z: complex, gammas) -> np.ndarray:
    """Normalized (g_x P_z x g_x x g_x)|GHZ>, P_z = diag(z, 1/z)."""
    pz = np.diag([z, 1 / z]).astype(complex)
    return normalize(apply((g_x(gammas[0]) @ pz, g_x(gammas[1]), g_x(gammas[2])), GHZ3))


def w_form(x0, x1, x2, x3) -> np.ndarray:
    """Normalized x0|000> + x1|100> + x2|010> + x3|001>."""
    v = np.zeros(8, dtype=complex)
    v[0b000], v[0b100], v[0b010], v[0b001] = x0, x1, x2, x3
    return normalize(v)


def hyperdeterminant(vec) -> complex:
    """Cayley's 2x2x2 hyperdeterminant from the eight amplitudes."""
    a = np.asarray(vec, dtype=complex).reshape(2, 2, 2)
    return (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
        - 2 * (a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
               + a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
               + a[0, 0, 0] * a[1, 0, 0] * a[0, 1, 1] * a[1, 1, 1]
               + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
               + a[0, 0, 1] * a[1, 0, 0] * a[0, 1, 1] * a[1, 1, 0]
               + a[0, 1, 0] * a[1, 0, 0] * a[0, 1, 1] * a[1, 0, 1])
        + 4 * (a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
               + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1])
    )


def mes3_family(a: float, beta: float, beta_prime: float) -> np.ndarray:
    """|0>|Psi_s> + |1>(Y(beta') x Y(beta))|Psi_s>, Y(b) = exp(i b sigma_y)."""
    psi_s = np.array([a, 0, 0, math.sqrt(1 - a * a)], dtype=complex)
    tail = np.kron(pauli_exp(beta_prime, SY), pauli_exp(beta, SY)) @ psi_s
    return normalize(np.concatenate([psi_s, tail]))


# -- the six-qubit protocol's target ---------------------------------------------

def _zz_phase(alpha: float, i: int, j: int) -> np.ndarray:
    """Diagonal of exp(i alpha sigma_z^(i) sigma_z^(j)) on three qubits."""
    d = np.empty(8, dtype=complex)
    for k in range(8):
        si = 1 - 2 * ((k >> (3 - i)) & 1)
        sj = 1 - 2 * ((k >> (3 - j)) & 1)
        d[k] = np.exp(1j * alpha * si * sj)
    return d


def _hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _zrot(alpha: float) -> np.ndarray:
    return pauli_exp(alpha, SZ)


T2 = pauli_exp(math.pi / 4, SY) @ _zrot(math.pi / 4) @ _hadamard()
T3 = pauli_exp(-math.pi / 4, SX) @ _zrot(-math.pi / 4) @ _hadamard()


def rep_target(alpha4: float, alpha5: float, alpha6: float) -> np.ndarray:
    """Z_13(a4) Z_12(a5) (1 x T_2 x T_3) Z_23(a6) |+++>."""
    v = np.full(8, 1 / math.sqrt(8), dtype=complex)
    v = _zz_phase(alpha6, 2, 3) * v
    v = kron(I2, T2, T3) @ v
    v = _zz_phase(alpha5, 1, 2) * v
    return _zz_phase(alpha4, 1, 3) * v


def mixture(weights, vecs) -> np.ndarray:
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))


# -- four qubits -----------------------------------------------------------------

def gabcd_seed(a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    """The generic-family representative G_abcd, normalized."""
    v = np.zeros(16, dtype=complex)
    v[0b0000] = v[0b1111] = (a + d) / 2
    v[0b0011] = v[0b1100] = (a - d) / 2
    v[0b0101] = v[0b1010] = (b + c) / 2
    v[0b0110] = v[0b1001] = (b - c) / 2
    return normalize(v)


def twirl_group() -> list[tuple]:
    """The Pauli-string symmetries 1, XXXX, YYYY, ZZZZ of a generic G_abcd."""
    return [(I2,) * 4] + [(PAULI[w],) * 4 for w in "xyz"]


def axis_projection(f: np.ndarray, w: str) -> np.ndarray:
    """The positive part f^dag f projected onto span{1, sigma_w}."""
    p = f.conj().T @ f
    return (np.trace(p).real / 2) * I2 + (np.trace(PAULI[w] @ p).real / 2) * PAULI[w]
