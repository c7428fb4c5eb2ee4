"""Tests for the six-qubit resource state and the preparation protocol."""

import itertools
import math

import numpy as np
import pytest

from mesq import core as qc
from mesq import resource as rep


class TestBuildPhi3:
    def test_normalized(self):
        st = rep.build_phi3()
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12

    def test_cz_layer_order_irrelevant(self):
        # the entangling layer is diagonal, so any ordering gives the same state
        reference = rep.build_phi3()
        st = qc.plus_state(6)
        for pair in reversed(rep.CZ_LAYER):
            st = qc.apply_on(st, qc.cz_gate(), pair)
        st = qc.apply_on(st, qc.hadamard(), [1])
        for q in (4, 5, 6):
            st = qc.apply_on(st, qc.z_rot(-math.pi / 4), [q])
        st = qc.apply_on(st, qc.z_rot(math.pi / 2), [2])
        st = qc.apply_on(st, qc.hadamard(), [3])
        st = qc.apply_on(st, qc.z_rot(math.pi / 4), [3])
        assert qc.fidelity(st, reference) >= 1 - 1e-12

    def test_matches_sequential_gate_construction(self):
        # oracle: one apply_on per CZ gate and per local gate, amplitude by
        # amplitude, global phase included
        st = qc.plus_state(6)
        for pair in rep.CZ_LAYER:
            st = qc.apply_on(st, qc.cz_gate(), pair)
        st = qc.apply_on(st, qc.hadamard(), [1])
        for q in (4, 5, 6):
            st = qc.apply_on(st, qc.z_rot(-math.pi / 4), [q])
        st = qc.apply_on(st, qc.z_rot(math.pi / 2), [2])
        st = qc.apply_on(st, qc.hadamard(), [3])
        st = qc.apply_on(st, qc.z_rot(math.pi / 4), [3])
        assert np.max(np.abs(rep.build_phi3().amplitudes - st.amplitudes)) <= 1e-15

    def test_graph_layer_marginals_maximally_mixed(self):
        # before the local rotations the CZ layer on |+>^6 is a graph state
        st = qc.plus_state(6)
        for pair in rep.CZ_LAYER:
            st = qc.apply_on(st, qc.cz_gate(), pair)
        for party in range(1, 7):
            rho = qc.reduced_density(st, [party])
            np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


class TestTargetState:
    def test_zero_angles_reduce_to_t_gates(self):
        # independent oracle: explicit kron-matrix pipeline on the flat vector
        got = rep.target_state(rep.RepTargetParams(0.0, 0.0, 0.0))
        plus3 = np.ones(8, dtype=complex) / math.sqrt(8.0)
        u = np.kron(np.kron(np.eye(2), qc.t2_gate()), qc.t3_gate())
        np.testing.assert_allclose(got.amplitudes, u @ plus3, atol=1e-12)

    def test_explicit_amplitudes_for_single_angle(self):
        a4 = math.pi / 4
        got = rep.target_state(rep.RepTargetParams(a4, 0.0, 0.0))
        plus3 = np.ones(8, dtype=complex) / math.sqrt(8.0)
        stage = np.kron(np.kron(np.eye(2), qc.t2_gate()), qc.t3_gate()) @ plus3
        phases = np.array(
            [np.exp(1j * a4 * (-1) ** (((k >> 2) & 1) + (k & 1))) for k in range(8)]
        )
        np.testing.assert_allclose(got.amplitudes, phases * stage, atol=1e-12)

    def test_always_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rep.RepTargetParams(*rng.uniform(-math.pi, math.pi, 3))
            st = rep.target_state(p)
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12


class TestSimulate:
    def test_all_zero_outcomes_need_no_correction(self):
        params = rep.RepTargetParams(0.4, -0.9, 1.3)
        out = rep.simulate_rep(params, outcomes=(0, 0, 0))
        np.testing.assert_allclose(
            out.correction.full_matrix(), np.eye(8), atol=1e-14
        )
        assert qc.fidelity(out.raw_state, rep.target_state(params)) >= 1 - 1e-10

    def test_k6_branch_carries_sigma_y_on_party_two(self):
        params = rep.RepTargetParams(0.3, 0.7, -0.5)
        out = rep.simulate_rep(params, outcomes=(1, 0, 0))
        expected = qc.ProductOperator(
            (np.eye(2), qc.pauli("y").conj().T, qc.pauli("z").conj().T)
        )
        np.testing.assert_allclose(
            out.correction.full_matrix(), expected.full_matrix(), atol=1e-14
        )
        assert qc.fidelity(out.corrected_state, rep.target_state(params)) >= 1 - 1e-10

    def test_forced_branch_probability_is_born_rule(self):
        params = rep.RepTargetParams(0.0, 0.0, 0.0)
        total = 0.0
        for k6 in (0, 1):
            for k5 in (0, 1):
                for k4 in (0, 1):
                    out = rep.simulate_rep(params, outcomes=(k6, k5, k4))
                    total += out.branch_probability
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sampled_run_matches_forced_branch(self):
        params = rep.RepTargetParams(0.2, 0.5, -0.8)
        sampled = rep.simulate_rep(params, rng=np.random.default_rng(11))
        forced = rep.simulate_rep(params, outcomes=(sampled.k6, sampled.k5, sampled.k4))
        assert qc.fidelity(sampled.corrected_state, forced.corrected_state) >= 1 - 1e-12

    def test_random_branches_hit_target(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            params = rep.RepTargetParams(*rng.uniform(-math.pi, math.pi, 3))
            k = tuple(int(b) for b in rng.integers(0, 2, 3))
            out = rep.simulate_rep(params, outcomes=k)
            assert qc.fidelity(out.corrected_state, rep.target_state(params)) >= 1 - 1e-10


class TestDeterminism:
    @pytest.mark.parametrize(
        "alphas",
        [(0.0, 0.0, 0.0), (0.3, 1.1, -0.7), (2.2, -2.9, 0.17)],
    )
    def test_all_eight_branches_pass(self, alphas):
        report = rep.verify_rep_determinism(rep.RepTargetParams(*alphas))
        assert report.all_pass
        assert len(report.branches) == 8
        assert report.probability_total == pytest.approx(1.0, abs=1e-12)
        assert report.min_fidelity >= 1 - 1e-10

    def test_sign_adaptation_is_load_bearing(self):
        params = rep.RepTargetParams(0.0, 1.1, 0.0)
        target = rep.target_state(params)
        worst = 1.0
        for k6 in (0, 1):
            for k5 in (0, 1):
                for k4 in (0, 1):
                    out = rep.simulate_rep(params, outcomes=(k6, k5, k4), adapt_sign=False)
                    worst = min(worst, qc.fidelity(out.corrected_state, target))
        assert worst < 1 - 1e-6

    def test_adaptation_irrelevant_when_alpha5_vanishes(self):
        params = rep.RepTargetParams(0.9, 0.0, -0.4)
        target = rep.target_state(params)
        for k6 in (0, 1):
            for k5 in (0, 1):
                out = rep.simulate_rep(params, outcomes=(k6, k5, 0), adapt_sign=False)
                assert qc.fidelity(out.corrected_state, target) >= 1 - 1e-10


class TestPrepareMixed3:
    def test_single_entry_is_pure(self):
        rng = np.random.default_rng(2)
        params = rep.RepTargetParams(0.3, -0.2, 0.9)
        result = rep.prepare_mixed3([(1.0, params, None)], rng)
        psi = rep.target_state(params)
        np.testing.assert_allclose(
            result.density.entries, np.outer(psi.amplitudes, psi.amplitudes.conj()),
            atol=1e-14,
        )

    def test_orthogonal_pair_has_half_half_spectrum(self):
        # sigma_z on party 1 maps the alpha = 0 target onto an orthogonal state
        rng = np.random.default_rng(3)
        params = rep.RepTargetParams(0.0, 0.0, 0.0)
        flip = qc.ProductOperator.single(3, 1, qc.pauli("z"))
        result = rep.prepare_mixed3([(0.5, params, None), (0.5, params, flip)], rng)
        eigs = np.sort(result.density.eigenvalues())[::-1]
        np.testing.assert_allclose(eigs[:2], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(eigs[2:], np.zeros(6), atol=1e-12)

    def test_sampled_state_lies_in_support(self):
        rng = np.random.default_rng(4)
        entries = [
            (0.3, rep.RepTargetParams(0.1, 0.2, 0.3), None),
            (0.7, rep.RepTargetParams(-0.4, 0.8, 1.2), None),
        ]
        for _ in range(10):
            result = rep.prepare_mixed3(entries, rng)
            v = result.final_state.amplitudes
            overlap = float((v.conj() @ result.density.entries @ v).real)
            assert overlap > 0.29  # at least the smallest entry weight

    def test_invalid_weights_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="sum to 1"):
            rep.prepare_mixed3([(0.4, rep.RepTargetParams(0, 0, 0), None)], rng)


# -- the qubit-by-qubit protocol as an independent oracle ------------------------

def _sequential_protocol(params, forced=(None, None, None), rng=None, adapt_sign=True):
    """Measure qubits 6, 5, 4 of a fresh resource state one at a time with
    core.projective_measure, then undo the Pauli frame with an explicit kron."""
    res6 = qc.projective_measure(
        rep.build_phi3(), 6, rep.measurement_basis(params.alpha6), forced[0], rng
    )
    k6 = res6.outcome
    theta5 = params.alpha5 if (k6 == 0 or not adapt_sign) else -params.alpha5
    res5 = qc.projective_measure(
        res6.post_state, 5, rep.measurement_basis(theta5), forced[1], rng
    )
    k5 = res5.outcome
    res4 = qc.projective_measure(
        res5.post_state, 4, rep.measurement_basis(params.alpha4), forced[2], rng
    )
    k4 = res4.outcome
    z, y = qc.pauli("z"), qc.pauli("y")
    power = np.linalg.matrix_power
    frame = np.kron(
        np.kron(power(z, k4 + k5), power(z, k5) @ power(y, k6)), power(z, k4 + k6)
    )
    prob = res6.probability * res5.probability * res4.probability
    return (k6, k5, k4), prob, frame.conj().T @ res4.post_state.amplitudes


class TestSequentialOracle:
    @pytest.mark.parametrize("adapt_sign", [True, False])
    def test_every_branch_matches_sequential_protocol(self, adapt_sign):
        rng = np.random.default_rng(21)
        for _ in range(50):
            params = rep.RepTargetParams(*rng.uniform(-math.pi, math.pi, 3))
            for ks in itertools.product((0, 1), repeat=3):
                _, prob, corrected = _sequential_protocol(params, ks, adapt_sign=adapt_sign)
                out = rep.simulate_rep(params, outcomes=ks, adapt_sign=adapt_sign)
                assert (out.k6, out.k5, out.k4) == ks
                assert abs(out.branch_probability - prob) <= 1e-13
                np.testing.assert_allclose(
                    out.corrected_state.amplitudes, corrected, rtol=0, atol=1e-13
                )

    def test_report_matches_sequential_protocol(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            params = rep.RepTargetParams(*rng.uniform(-math.pi, math.pi, 3))
            target = rep.target_state(params).amplitudes
            report = rep.verify_rep_determinism(params)
            for branch in report.branches:
                ks = (branch.k6, branch.k5, branch.k4)
                _, prob, corrected = _sequential_protocol(params, ks)
                assert abs(branch.probability - prob) <= 1e-13
                assert abs(branch.corrected_fidelity - abs(np.vdot(corrected, target)) ** 2) <= 1e-13

    def test_seeded_outcomes_match_sequential_protocol(self):
        params = rep.RepTargetParams(0.4, -1.3, 2.1)
        for seed in range(200):
            out = rep.simulate_rep(params, rng=np.random.default_rng(seed))
            ks, _, _ = _sequential_protocol(params, rng=np.random.default_rng(seed))
            assert (out.k6, out.k5, out.k4) == ks

    def test_target_matches_kron_construction(self):
        plus3 = np.ones(8, dtype=complex) / math.sqrt(8.0)
        z, one = np.diag(qc.pauli("z")), np.ones(2)
        zz12, zz13, zz23 = (np.kron(np.kron(*pair[:2]), pair[2])
                            for pair in ((z, z, one), (z, one, z), (one, z, z)))
        t_layer = np.kron(np.kron(np.eye(2), qc.t2_gate()), qc.t3_gate())
        rng = np.random.default_rng(23)
        for _ in range(50):
            a4, a5, a6 = rng.uniform(-math.pi, math.pi, 3)
            expected = (np.diag(np.exp(1j * a4 * zz13)) @ np.diag(np.exp(1j * a5 * zz12))
                        @ t_layer @ np.diag(np.exp(1j * a6 * zz23)) @ plus3)
            got = rep.target_state(rep.RepTargetParams(a4, a5, a6)).amplitudes
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_simulate_rep_without_rng_or_outcomes_raises():
    with pytest.raises(ValueError, match="needs rng or forced outcomes"):
        rep.simulate_rep(rep.RepTargetParams(0.1, 0.2, 0.3))
