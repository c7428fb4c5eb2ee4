"""Tests for the dense statevector core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesq import core as qc

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def _kron_chain(factors):
    """Dense reference: the np.kron chain over the factors in party order."""
    m = factors[0]
    for f in factors[1:]:
        m = np.kron(m, f)
    return m


class TestPureState:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            qc.PureState(2, np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qc.PureState(1, np.array([1.0, 1.0]))

    def test_normalized_constructor(self):
        st = qc.PureState.normalized([3.0, 4.0])
        np.testing.assert_allclose(np.abs(st.amplitudes), [0.6, 0.8], atol=1e-15)

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError):
            qc.PureState.normalized([0.0, 0.0])

    def test_amplitudes_are_immutable(self):
        st = qc.ghz_state()
        with pytest.raises(ValueError):
            st.amplitudes[0] = 1.0


class TestProductOperator:
    def test_identity_application(self):
        out, sq = qc.apply_product(qc.ProductOperator.identity(3), qc.ghz_state())
        assert qc.fidelity(out, qc.ghz_state()) == pytest.approx(1.0, abs=1e-14)
        assert sq == pytest.approx(1.0, abs=1e-12)

    def test_ghz_flip_symmetry_matches_dense_oracle(self):
        # oracle: full 8x8 kron matrix applied to the amplitude vector
        op = qc.ProductOperator.pauli_string("xxx")
        dense = op.full_matrix() @ qc.ghz_state().amplitudes
        out, sq = qc.apply_product(op, qc.ghz_state())
        np.testing.assert_allclose(out.amplitudes, dense, atol=1e-14)
        assert qc.fidelity(out, qc.ghz_state()) == pytest.approx(1.0, abs=1e-14)

    def test_projector_collapses_ghz(self):
        op = qc.ProductOperator.single(3, 1, np.diag([1.0, 0.0]))
        out, sq = qc.apply_product(op, qc.ghz_state())
        assert sq == pytest.approx(0.5, abs=1e-12)
        assert qc.fidelity(out, qc.basis_state(3, "000")) == pytest.approx(1.0, abs=1e-12)

    def test_zero_output_raises(self):
        op = qc.ProductOperator.single(1 + 1, 1, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="zero output"):
            qc.apply_product(op, qc.ghz_state(2))

    def test_factor_count_mismatch(self):
        with pytest.raises(ValueError):
            qc.apply_product(qc.ProductOperator.identity(2), qc.ghz_state())

    @pytest.mark.parametrize("party", [0, 4])
    def test_single_rejects_party_outside_range(self, party):
        with pytest.raises(ValueError, match="outside 1..3"):
            qc.ProductOperator.single(3, party, qc.pauli("x"))

    def test_inverse_of_singular_factor_raises(self):
        op = qc.ProductOperator.single(2, 2, np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="singular"):
            op.inverse()

    def test_compose_is_matrix_product(self):
        rng = np.random.default_rng(0)
        a = qc.random_product_invertible(2, rng)
        b = qc.random_product_invertible(2, rng)
        np.testing.assert_allclose(
            a.compose(b).full_matrix(), a.full_matrix() @ b.full_matrix(), atol=1e-12
        )


class TestProductOperatorValidation:
    @pytest.mark.parametrize("factors", [
        (),
        (np.eye(2), np.eye(3)),
        [np.eye(2), [[1.0, 0.0], [0.0]]],
        [np.eye(2), np.eye(2)[:1]],
        (np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])),
        (np.array([[1.0, 0.0], [0.0, np.inf]]),),
        (np.array([[1.0, 0.0], [0.0, 1j * np.inf]]),),
    ], ids=["empty", "3x3", "ragged", "ragged-rows", "nan", "inf", "imaginary-inf"])
    def test_rejects_invalid_factors(self, factors):
        with pytest.raises(ValueError):
            qc.ProductOperator(factors)

    def test_factors_are_read_only_views_of_one_stack(self):
        given_factors = [qc.pauli("x"), qc.pauli("y"), np.eye(2)]
        op = qc.ProductOperator(tuple(given_factors))
        assert isinstance(op.factors, tuple) and op.stack.shape == (3, 2, 2)
        for k, f in enumerate(op.factors):
            assert not f.flags.writeable
            assert np.shares_memory(f, op.stack)
            with pytest.raises(ValueError):
                f[0, 0] = 5.0
        given_factors[0][0, 0] = 5.0
        np.testing.assert_array_equal(op.factors[0], qc.pauli("x"))

    def test_derived_operators_act_factor_by_factor(self):
        rng = np.random.default_rng(4)
        op = qc.random_product_invertible(3, rng)
        other = qc.random_product_invertible(3, rng)
        for derived, want in [
            (op.dagger(), [f.conj().T for f in op.factors]),
            (op.inverse(), [np.linalg.inv(f) for f in op.factors]),
            (op.compose(other), [a @ b for a, b in zip(op.factors, other.factors)]),
        ]:
            assert all(not f.flags.writeable for f in derived.factors)
            np.testing.assert_allclose(derived.stack, want, rtol=0, atol=1e-14)


@st.composite
def _factor_stacks(draw):
    """n = 1..6 complex 2x2 factors whose entries span 1e-8 to 1e8 in modulus."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phases = np.exp(2j * np.pi * rng.random((n, 2, 2)))
    return phases * 10.0 ** rng.uniform(-8, 8, (n, 2, 2))


@PROPERTY
@given(stack=_factor_stacks())
def test_full_matrix_is_the_kron_chain_bit_for_bit(stack):
    op = qc.ProductOperator(tuple(stack))
    assert np.array_equal(op.full_matrix(), _kron_chain(op.factors))


@PROPERTY
@given(stack=_factor_stacks(), copies=st.integers(1, 3))
def test_kron_stack_expands_every_product_of_a_batch(stack, copies):
    batch = np.array([stack * (k + 1) for k in range(copies)])
    dense = qc.kron_stack(batch)
    d = 2 ** len(stack)
    assert dense.shape == (copies, d, d)
    for k in range(copies):
        assert np.array_equal(dense[k], _kron_chain(list(batch[k])))


class TestReducedDensity:
    def test_product_state(self):
        rho = qc.reduced_density(qc.basis_state(2, "00"), [1])
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-14)

    def test_bell_is_maximally_mixed(self):
        rho = qc.reduced_density(qc.ghz_state(2), [1])
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-14)

    def test_ghz_two_party_marginal(self):
        rho = qc.reduced_density(qc.ghz_state(), [1, 2])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(rho.entries, expected, atol=1e-14)

    def test_keep_all_parties_is_projector(self):
        st = qc.random_state(2, np.random.default_rng(3))
        rho = qc.reduced_density(st, [1, 2])
        np.testing.assert_allclose(
            rho.entries, np.outer(st.amplitudes, st.amplitudes.conj()), atol=1e-14
        )

    def test_empty_subset_raises(self):
        with pytest.raises(ValueError):
            qc.reduced_density(qc.ghz_state(), [])

    def test_out_of_range_party_raises(self):
        with pytest.raises(ValueError):
            qc.reduced_density(qc.ghz_state(), [4])

    def test_bipartition_spectra_agree(self):
        # nonzero eigenvalues of the two sides of any bipartition coincide
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            st = qc.random_state(n, rng)
            k = int(rng.integers(1, n))
            side = list(rng.choice(np.arange(1, n + 1), size=k, replace=False))
            other = [p for p in range(1, n + 1) if p not in side]
            ea = np.sort(qc.reduced_density(st, side).eigenvalues())[::-1]
            eb = np.sort(qc.reduced_density(st, other).eigenvalues())[::-1]
            m = min(ea.size, eb.size)
            np.testing.assert_allclose(ea[:m], eb[:m], atol=1e-10)
            assert max(np.abs(ea[m:]).max(initial=0), np.abs(eb[m:]).max(initial=0)) < 1e-10


class TestGates:
    @pytest.mark.parametrize(
        "kind,params",
        [
            ("pauli", {"w": "x"}),
            ("pauli", {"w": "y"}),
            ("pauli", {"w": "z"}),
            ("hadamard", {}),
            ("z", {"alpha": 0.37}),
            ("yrot", {"beta": -1.2}),
            ("xrot", {"theta": 2.2}),
            ("t2", {}),
            ("t3", {}),
            ("cz", {}),
            ("phase", {"alpha": 0.9, "num_targets": 3}),
        ],
    )
    def test_unitarity(self, kind, params):
        constructor = {
            "pauli": qc.pauli, "hadamard": qc.hadamard, "z": qc.z_rot, "yrot": qc.y_rot,
            "xrot": qc.x_rot, "t2": qc.t2_gate, "t3": qc.t3_gate, "cz": qc.cz_gate,
            "phase": qc.phase_string_gate,
        }[kind]
        u = constructor(**params)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)

    def test_z_rotation_is_diagonal_phase(self):
        a = 0.81
        np.testing.assert_allclose(
            qc.z_rot(a), np.diag([np.exp(1j * a), np.exp(-1j * a)]), atol=1e-15
        )

    def test_cz_is_involution(self):
        st = qc.random_state(3, np.random.default_rng(5))
        out = qc.apply_on(qc.apply_on(st, qc.cz_gate(), [1, 3]), qc.cz_gate(), [1, 3])
        assert qc.fidelity(out, st) == pytest.approx(1.0, abs=1e-14)

    def test_phase_string_on_plus_states(self):
        # diagonal action: e^{i alpha (-1)^(b2+b3)} per computational component
        a = 0.37
        out = qc.apply_on(qc.plus_state(3), qc.phase_string_gate(a, 2), [2, 3])
        expected = np.array(
            [np.exp(1j * a * (-1) ** (((k >> 1) & 1) + (k & 1))) for k in range(8)]
        ) / math.sqrt(8)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_t_gates_match_their_factorizations(self):
        np.testing.assert_allclose(
            qc.t3_gate(), qc.x_rot(-math.pi / 4) @ qc.z_rot(-math.pi / 4) @ qc.hadamard(),
            atol=1e-15,
        )
        np.testing.assert_allclose(
            qc.t2_gate(), qc.y_rot(math.pi / 4) @ qc.z_rot(math.pi / 4) @ qc.hadamard(),
            atol=1e-15,
        )

    def test_random_unitaries_preserve_norm(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            st = qc.random_state(n, rng)
            party = int(rng.integers(1, n + 1))
            out = qc.apply_on(st, qc.random_unitary(rng), [party])
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


class TestFidelity:
    def test_basics(self):
        zero = qc.PureState(1, np.array([1, 0], dtype=complex))
        one = qc.PureState(1, np.array([0, 1], dtype=complex))
        plus = qc.plus_state(1)
        assert qc.fidelity(zero, zero) == 1.0
        assert qc.fidelity(zero, one) == 0.0
        assert qc.fidelity(plus, zero) == pytest.approx(0.5, abs=1e-14)

    def test_global_phase_invariance(self):
        st = qc.random_state(2, np.random.default_rng(9))
        rotated = qc.PureState(2, np.exp(0.7j) * st.amplitudes)
        assert qc.fidelity(st, rotated) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qc.fidelity(qc.ghz_state(2), qc.ghz_state(3))


class TestProjectiveMeasure:
    COMP = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_product_state_deterministic(self):
        psi = qc.random_state(2, np.random.default_rng(1))
        st = qc.PureState(3, np.kron([1, 0], psi.amplitudes))
        res = qc.projective_measure(st, 1, self.COMP, forced_outcome=0)
        assert res.outcome == 0
        assert res.probability == pytest.approx(1.0, abs=1e-12)
        assert qc.fidelity(res.post_state, psi) == pytest.approx(1.0, abs=1e-12)

    def test_bell_half_half(self):
        for k in (0, 1):
            res = qc.projective_measure(qc.ghz_state(2), 1, self.COMP, forced_outcome=k)
            assert res.probability == pytest.approx(0.5, abs=1e-12)

    def test_rotated_basis_probability(self):
        theta = 0.61
        plus = np.array([1, 1]) / math.sqrt(2)
        b0 = qc.z_rot(-theta) @ plus
        b1 = qc.pauli("z") @ b0
        st = qc.PureState(2, np.kron(plus, [1, 0]))
        res = qc.projective_measure(st, 1, (b0, b1), forced_outcome=0)
        assert res.probability == pytest.approx(math.cos(theta) ** 2, abs=1e-12)

    def test_nonorthonormal_basis_raises(self):
        bad = (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2))
        with pytest.raises(ValueError, match="orthonormal"):
            qc.projective_measure(qc.ghz_state(2), 1, bad)

    def test_forced_zero_probability_raises(self):
        st = qc.PureState(2, np.kron([1, 0], [1, 0]).astype(complex))
        with pytest.raises(ValueError, match="vanishing probability"):
            qc.projective_measure(st, 1, self.COMP, forced_outcome=1)

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            st = qc.random_state(3, rng)
            u = qc.random_unitary(rng)
            basis = (u[:, 0], u[:, 1])
            party = int(rng.integers(1, 4))
            total = sum(
                qc.projective_measure(st, party, basis, forced_outcome=k).probability
                for k in (0, 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestLuEquivalent:
    def test_identity_witness(self):
        st = qc.random_state(3, np.random.default_rng(2))
        witness = qc.lu_equivalent(st, st)
        assert witness is not None
        out, _ = qc.apply_product(witness, st)
        assert qc.fidelity(out, st) >= 1 - 1e-9

    def test_hadamard_witness_on_ghz(self):
        op = qc.ProductOperator(tuple(qc.hadamard() for _ in range(3)))
        rotated, _ = qc.apply_product(op, qc.ghz_state())
        witness = qc.lu_equivalent(qc.ghz_state(), rotated)
        assert witness is not None
        out, _ = qc.apply_product(witness, qc.ghz_state())
        assert qc.fidelity(out, rotated) >= 1 - 1e-9

    def test_ghz_vs_w_not_found(self):
        assert qc.lu_equivalent(qc.ghz_state(), qc.w_state()) is None

    def test_random_lu_pairs_found(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            st = qc.random_state(3, rng)
            op = qc.random_product_unitary(3, rng)
            rotated, _ = qc.apply_product(op, st)
            assert qc.lu_equivalent(st, rotated, rng=rng) is not None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qc.lu_equivalent(qc.ghz_state(2), qc.ghz_state(3))


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qc.DensityMatrix(2, np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            qc.DensityMatrix(2, np.eye(2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            qc.DensityMatrix(2, np.diag([1.5, -0.5]))

    def test_from_pure(self):
        rho = qc.DensityMatrix.from_pure(qc.ghz_state(2))
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho.entries @ rho.entries, rho.entries, atol=1e-12)


def test_projective_measure_without_rng_or_forced_outcome_raises():
    basis = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="needs rng or forced_outcome"):
        qc.projective_measure(qc.ghz_state(2), 1, basis)
