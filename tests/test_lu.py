"""Tests of the direct local-unitary decision in core.lu_equivalent.

Pairs whose single-party spectra are all non-degenerate are decided from the
local eigenbases: equal moduli and a phase system solved exactly mod 2 pi.
Every witness is checked against a dense Kronecker product, and the ``None``
answers of the inequivalence properties are cross-checked with scipy.optimize
over product unitaries.
"""

import functools
import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from mesq import core as qc

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
SLOW_PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)
TOL = qc.PHASE_EQUAL_TOL
EVEN_PARITY_4 = [i for i in range(16) if bin(i).count("1") % 2 == 0]


def _wrap(angle):
    return (np.asarray(angle) + math.pi) % (2 * math.pi) - math.pi


def _haar(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _kron(factors):
    return functools.reduce(np.kron, factors)


def _phase_matrix(n, support):
    """Rows [1 | bits(i)] for each index i of the support, party 1 first."""
    bits = (np.asarray(support)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.column_stack([np.ones(len(support), dtype=np.int64), bits])


def _min_gap(vec, n):
    t = vec.reshape([2] * n)
    gaps = []
    for axis in range(n):
        m = np.moveaxis(t, axis, 0).reshape(2, -1)
        e = np.linalg.eigvalsh(m @ m.conj().T)
        gaps.append(e[1] - e[0])
    return min(gaps)


def _assert_witness_maps(witness, a, b):
    assert witness is not None
    for u in witness.factors:
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-9)
    out = _kron(witness.factors) @ a
    phase = np.vdot(out, b)
    np.testing.assert_allclose(out * phase / abs(phase), b, rtol=0, atol=1e-9)


def _best_product_fidelity(a, b, n, seed, starts=3):
    """Largest |<b| U_1 x ... x U_n |a>|^2 that BFGS finds from seeded starts."""

    def su2(t, alpha, beta):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c * np.exp(1j * alpha), -s * np.exp(-1j * beta)],
                         [s * np.exp(1j * beta), c * np.exp(-1j * alpha)]])

    def loss(params):
        us = [su2(*params[3 * k:3 * k + 3]) for k in range(n)]
        return -abs(np.vdot(b, _kron(us) @ a)) ** 2

    rng = np.random.default_rng(seed)
    return max(-scipy.optimize.minimize(loss, rng.uniform(-math.pi, math.pi, 3 * n),
                                        method="BFGS").fun
               for _ in range(starts))


# -- the mod-2pi phase solver ----------------------------------------------------

def _system(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return rng, rng.integers(-2, 3, size=(rng.integers(1, 11), rng.integers(1, 7)))
    n = int(rng.integers(1, 5))
    support = rng.choice(2**n, size=rng.integers(1, 2**n + 1), replace=False)
    return rng, _phase_matrix(n, support)


@PROPERTY
@given(kind=st.sampled_from(["integer", "phase"]), seed=st.integers(0, 2**32 - 1))
def test_solver_solves_consistent_systems(kind, seed):
    rng, m = _system(kind, seed)
    theta = m @ rng.uniform(-4, 4, m.shape[1]) + 2 * math.pi * rng.integers(-3, 4, m.shape[0])
    x, zero_divisors, residuals = qc._solve_mod_2pi(m, theta)
    assert not (zero_divisors @ m).any()
    assert len(zero_divisors) == m.shape[0] - np.linalg.matrix_rank(m)
    assert np.all(np.abs(residuals) < 1e-9)
    assert np.all(np.abs(_wrap(m @ x - theta)) < 1e-9)


@PROPERTY
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    delta=st.floats(0.1, 2 * math.pi - 0.1),
)
def test_solver_proves_perturbed_system_inconsistent(n, seed, delta):
    # on the full support every row r(i) lies in a relation
    # r(i) - r(i ^ p) - r(i ^ q) + r(i ^ p ^ q) = 0, so a shift of one angle
    # by delta (not a multiple of 2 pi) leaves no solution
    rng = np.random.default_rng(seed)
    m = _phase_matrix(n, np.arange(2**n))
    theta = m @ rng.uniform(-4, 4, n + 1)
    theta[rng.integers(2**n)] += delta
    x, zero_divisors, residuals = qc._solve_mod_2pi(m, theta)
    assert not (zero_divisors @ m).any()
    assert np.max(np.abs(residuals)) > 1e-3
    assert np.max(np.abs(_wrap(m @ x - theta))) > 1e-3


# -- LU images are decided directly -------------------------------------------------

def _source(kind, rng):
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    if kind in ("random3", "random4"):
        n = int(kind[-1])
        return n, z[: 2**n]
    if kind == "w_x0_zero":
        vec = np.zeros(8, dtype=complex)
        vec[[0b100, 0b010, 0b001]] = rng.uniform(0.3, 1.0, 3)
        return 3, vec
    if kind == "two_term":
        vec = np.zeros(8, dtype=complex)
        vec[[0b000, 0b111]] = z[:2]
        return 3, vec
    if kind == "sparse_tiny":
        # large amplitudes on a random subset, 1e-10..1e-7 on the rest
        n = int(rng.integers(3, 5))
        tiny = 10.0 ** rng.uniform(-10, -7, 2**n)
        return n, z[: 2**n] * np.where(rng.random(2**n) < 0.4, 1.0, tiny)
    if kind == "near_product":
        # a product state plus a perturbation of norm 1e-12..1e-5: the phases
        # of the parties come only from amplitudes that small
        vec = _kron([z[2 * k:2 * k + 2] / np.linalg.norm(z[2 * k:2 * k + 2]) for k in range(3)])
        return 3, vec + 10.0 ** rng.uniform(-12, -5) * z[8:] / np.linalg.norm(z[8:])
    vec = np.zeros(16, dtype=complex)
    vec[EVEN_PARITY_4] = z[:8]
    return 4, vec


@settings(PROPERTY, max_examples=300)
@given(
    kind=st.sampled_from(["random3", "random4", "w_x0_zero", "two_term", "sparse_tiny",
                          "near_product", "even4"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lu_images_return_witness(kind, seed):
    rng = np.random.default_rng(seed)
    n, vec = _source(kind, rng)
    a = vec / np.linalg.norm(vec)
    if _min_gap(a, n) < 1e-3:
        return  # near-degenerate spectra take the search, not this decision
    b = _kron([_haar(rng) for _ in range(n)]) @ a
    witness = qc.lu_equivalent(qc.PureState(n, a), qc.PureState(n, b))
    _assert_witness_maps(witness, a, b)


def _even_parity_pair(rng, delta):
    """LU images of two even-parity 4-qubit states with equal moduli whose
    phases differ by a product pattern plus delta on one entry."""
    moduli = rng.uniform(0.5, 1.0, 8)
    phases = rng.uniform(-math.pi, math.pi, 8)
    # a product of diagonal unitaries adds x_0 + sum_p bit_p(i) x_p to phase i;
    # one entry shifted by delta breaks that pattern
    pattern = _phase_matrix(4, EVEN_PARITY_4) @ rng.uniform(-math.pi, math.pi, 5)
    pattern[rng.integers(8)] += delta
    a, b = np.zeros(16, dtype=complex), np.zeros(16, dtype=complex)
    a[EVEN_PARITY_4] = moduli * np.exp(1j * phases)
    b[EVEN_PARITY_4] = moduli * np.exp(1j * (phases + pattern))
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    us, vs = [_haar(rng) for _ in range(4)], [_haar(rng) for _ in range(4)]
    return _kron(us) @ a, _kron(vs) @ b


@SLOW_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), delta=st.floats(0.5, 2 * math.pi - 0.5))
def test_even_parity_phase_pattern_off_product_is_inequivalent(seed, delta):
    a, b = _even_parity_pair(np.random.default_rng(seed), delta)
    if _min_gap(a, 4) < 1e-3:
        return
    assert qc.lu_equivalent(qc.PureState(4, a), qc.PureState(4, b)) is None
    assert _best_product_fidelity(a, b, 4, seed) < 1 - TOL


@SLOW_PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_none_for_conjugate_pair_agrees_with_scipy(seed):
    # a state and its complex conjugate share every local spectrum; whatever
    # the answer, a witness must map and a None must withstand the optimizer
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    a /= np.linalg.norm(a)
    b = _kron([_haar(rng) for _ in range(3)]) @ a.conj()
    witness = qc.lu_equivalent(qc.PureState(3, a), qc.PureState(3, b))
    if witness is not None:
        _assert_witness_maps(witness, a, b)
    else:
        assert _best_product_fidelity(a, b, 3, seed) < 1 - TOL


# -- which pairs reach the search ----------------------------------------------------

@pytest.fixture
def search_calls(monkeypatch):
    calls = []
    search = qc._alternating_lu_search
    monkeypatch.setattr(qc, "_alternating_lu_search",
                        lambda *args: calls.append(args) or search(*args))
    return calls


def test_nondegenerate_pair_never_searches(search_calls):
    rng = np.random.default_rng(3)
    st_ = qc.random_state(3, rng)
    rotated, _ = qc.apply_product(qc.random_product_unitary(3, rng), st_)
    assert qc.lu_equivalent(st_, rotated) is not None
    assert qc.lu_equivalent(st_, qc.PureState(3, st_.amplitudes.conj())) is None
    assert search_calls == []


def test_moduli_and_phase_residual_decide_without_a_witness(search_calls, monkeypatch):
    # both pairs share every local spectrum; the first differs in its moduli
    # in the local eigenbases, the second only in a phase pattern that no
    # product of diagonal unitaries gives, so each is ruled out before a
    # witness reaches the final fidelity check
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.5, 1.0, 8)
    weights /= weights.sum()
    # a shift orthogonal to the normalization and every party's bit column
    # keeps each single-party marginal
    shift = np.linalg.svd(_phase_matrix(4, EVEN_PARITY_4).T)[2][-1]
    shifted = weights + 0.5 * weights.min() * shift / np.abs(shift).max()
    a, b = np.zeros(16, dtype=complex), np.zeros(16, dtype=complex)
    a[EVEN_PARITY_4], b[EVEN_PARITY_4] = np.sqrt(weights), np.sqrt(shifted)
    pairs = [(_kron([_haar(rng) for _ in range(4)]) @ a, _kron([_haar(rng) for _ in range(4)]) @ b),
             _even_parity_pair(rng, 1.0)]
    witnesses = []
    monkeypatch.setattr(qc, "apply_product", lambda *args: witnesses.append(args))
    for a, b in pairs:
        assert _min_gap(a, 4) > 1e-3
        assert qc.lu_equivalent(qc.PureState(4, a), qc.PureState(4, b)) is None
    assert search_calls == [] and witnesses == []


def test_ghz_hadamard_image_searches(search_calls):
    op = qc.ProductOperator(tuple(qc.hadamard() for _ in range(3)))
    rotated, _ = qc.apply_product(op, qc.ghz_state())
    assert qc.lu_equivalent(qc.ghz_state(), rotated) is not None
    assert search_calls


# -- the random sweep the search used to miss ----------------------------------------

def _random_sweep(count):
    """Pairs (a, (U_1 x U_2 x U_3) a) drawn from default_rng(7): eight complex
    Gaussian amplitudes, then three QR-Haar unitaries, for each pair in turn."""
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(count):
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a /= np.linalg.norm(a)
        b = _kron([_haar(rng) for _ in range(3)]) @ a
        pairs.append((a, b / np.linalg.norm(b)))
    return pairs


@pytest.mark.parametrize("k", [22, 29, 60, 112, 202, 284])
def test_sweep_pairs_missed_by_search_return_witness(k):
    a, b = _random_sweep(k + 1)[k]
    witness = qc.lu_equivalent(qc.PureState(3, a), qc.PureState(3, b),
                               rng=np.random.default_rng(0))
    _assert_witness_maps(witness, a, b)


# -- four-qubit pairs decided from the density of parties 1 and 2 -------------------

PERMS_4 = np.array(list(itertools.permutations(range(4))))


def _gabcd(a, b, c, d):
    vec = np.zeros(16, dtype=complex)
    vec[[0b0000, 0b1111]] = (a + d) / 2
    vec[[0b0011, 0b1100]] = (a - d) / 2
    vec[[0b0101, 0b1010]] = (b + c) / 2
    vec[[0b0110, 0b1001]] = (b - c) / 2
    return vec / np.linalg.norm(vec)


def _far_from_degenerate(rng):
    """(a, b, c, d) whose squares are distinct, nonzero and not mapped onto
    themselves by any scaling q != 1, each by a margin."""
    while True:
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sq = p * p
        scale = np.max(np.abs(sq))
        gaps = np.abs(sq[:, None] - sq[None, :])[np.triu_indices(4, 1)]
        if gaps.min() < 0.2 * scale or np.min(np.abs(sq)) < 0.2 * scale:
            continue
        q = (sq[:, None] / sq[None, :])[~np.eye(4, dtype=bool)]
        margin = np.abs(q[:, None, None] * sq[None, None, :] - sq[PERMS_4][None]).max(axis=2)
        if margin.min() > 0.05 * scale:
            return p


def _four_qubit_sweep(count):
    """Pairs (a, b) drawn from default_rng(7): a is a Haar product image of a
    G_abcd seed with parameters far from degenerate, and b is a second Haar
    product image of a, for each pair in turn."""
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(count):
        a = _kron([_haar(rng) for _ in range(4)]) @ _gabcd(*_far_from_degenerate(rng))
        b = _kron([_haar(rng) for _ in range(4)]) @ a
        pairs.append((a, b / np.linalg.norm(b)))
    return pairs


def test_four_qubit_sweep_decided_without_search(search_calls):
    for a, b in _four_qubit_sweep(60):
        witness = qc.lu_equivalent(qc.PureState(4, a), qc.PureState(4, b),
                                   rng=np.random.default_rng(0))
        _assert_witness_maps(witness, a, b)
    assert search_calls == []


def test_seed_images_decided_directly(search_calls):
    rng = np.random.default_rng(5)
    seed = _gabcd(2, 1j, 0.5, 1 + 1j)
    images = [_kron([qc.pauli(w)] * 4) @ seed for w in "xyz"]
    images.append(_kron([_haar(rng) for _ in range(4)]) @ seed)
    for image in images:
        witness = qc.lu_equivalent(qc.PureState(4, seed), qc.PureState(4, image))
        _assert_witness_maps(witness, seed, image)
    assert search_calls == []


def test_degenerate_two_party_spectrum_searches(search_calls):
    # |a| = |b| with a^2 != b^2: generic, but rho_12 has a double eigenvalue
    rng = np.random.default_rng(6)
    seed = _gabcd(1.0, np.exp(1j * math.pi / 3), 0.5, 0.3 + 0.2j)
    image = _kron([_haar(rng) for _ in range(4)]) @ seed
    witness = qc.lu_equivalent(qc.PureState(4, seed), qc.PureState(4, image))
    assert search_calls
    if witness is not None:
        # a searched witness maps within the fidelity tolerance only
        assert abs(np.vdot(image, _kron(witness.factors) @ seed)) ** 2 >= 1 - TOL


def test_two_party_spectrum_mismatch_is_none_without_search(search_calls):
    rng = np.random.default_rng(8)
    a = _kron([_haar(rng) for _ in range(4)]) @ _gabcd(2, 1j, 0.5, 1 + 1j)
    b = _kron([_haar(rng) for _ in range(4)]) @ _gabcd(2, 1j, 0.6, 1 + 1j)
    assert qc.lu_equivalent(qc.PureState(4, a), qc.PureState(4, b)) is None
    assert search_calls == []


def test_equal_two_party_spectrum_inequivalent_pair_agrees_with_scipy():
    # the same |a|, ..., |d| give the same spectrum of rho_12, but the squares
    # {a^2, b^2, c^2, d^2} differ beyond a common phase, an LU invariant
    rng = np.random.default_rng(9)
    a = _kron([_haar(rng) for _ in range(4)]) @ _gabcd(2, 1j, 0.5, 1 + 1j)
    b = _kron([_haar(rng) for _ in range(4)]) @ _gabcd(2, 1j, 0.5, (1 + 1j) * np.exp(1j))
    assert qc.lu_equivalent(qc.PureState(4, a), qc.PureState(4, b)) is None
    assert _best_product_fidelity(a, b, 4, seed=9) < 1 - TOL


def test_equal_two_party_spectrum_no_candidate_is_none_without_search(search_calls):
    # rho_12 is non-degenerate with no near-product eigenvector, so the eight
    # sign candidates are every U_1 x U_2 there is, and none mapping decides
    rng = np.random.default_rng(9)
    a = _kron([_haar(rng) for _ in range(4)]) @ _gabcd(2, 1j, 0.5, 1 + 1j)
    b = _kron([_haar(rng) for _ in range(4)]) @ _gabcd(2, 1j, 0.5, (1 + 1j) * np.exp(1j))
    assert qc.lu_equivalent(qc.PureState(4, a), qc.PureState(4, b)) is None
    assert search_calls == []


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_realignment_splits_products_and_rejects_cnot(seed):
    rng = np.random.default_rng(seed)
    u1, u2, v1, v2 = (_haar(rng) for _ in range(4))
    product = np.exp(1j * rng.uniform(0, 2 * math.pi)) * np.kron(u1, u2)
    f1, f2, ratio = qc._split_product(product)
    recovered = np.kron(f1, f2)
    phase = np.vdot(recovered.reshape(-1), product.reshape(-1))
    np.testing.assert_allclose(recovered * phase / abs(phase), product, rtol=0, atol=1e-12)
    assert ratio < 1e-12
    # CNOT has two equal operator-Schmidt coefficients, and local unitaries keep them
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    _, _, ratio = qc._split_product(np.kron(u1, u2) @ cnot @ np.kron(v1, v2))
    assert ratio > 0.99 and ratio**2 > 1e6 * TOL
