"""Tests for the separable-conversion engine and synthesized protocols."""

import math

import numpy as np
import pytest
from test_acceptance import _cli_fixture_files

from mesq import core as qc
from mesq import fourqubit as fq
from mesq import jsonio as io
from mesq import sep

GENERIC = fq.GabcdParams(2, 1j, 0.5, 1 + 1j)


def axis_factor(w, gamma):
    return qc.psd_sqrt(0.5 * np.eye(2) + gamma * qc.pauli(w))


def offaxis_factor(vx, vy, vz):
    return qc.psd_sqrt(
        0.5 * np.eye(2) + vx * qc.pauli("x") + vy * qc.pauli("y") + vz * qc.pauli("z")
    )


def test_pauli_twirl_identity():
    # sum_w sigma_w M sigma_w = 2 tr(M) 1 over {1, x, y, z}
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        acc = sum(qc.PAULI[w] @ m @ qc.PAULI[w] for w in "ixyz")
        np.testing.assert_allclose(acc, 2 * np.trace(m) * np.eye(2), atol=1e-12)


class TestVerifySep:
    def test_trivial_instance(self):
        g = sep.positive_part(qc.ProductOperator.identity(4))
        inst = sep.SepInstance(g, g, 1.0, (qc.ProductOperator.identity(4),), np.array([1.0]))
        ok, residual = sep.verify_sep(inst)
        assert ok and residual < 1e-14

    def test_twirl_instance(self):
        h1 = offaxis_factor(0.2, 0.15, 0.1)
        h = qc.ProductOperator.single(4, 1, h1)
        syms = fq.symmetry_group(GENERIC)
        big_h = sep.positive_part(h)
        big_g = sep.positive_part(qc.ProductOperator.identity(4))
        r = float(np.trace(h1.conj().T @ h1).real / 2.0)
        inst = sep.SepInstance(big_g, big_h, r, tuple(syms), np.full(4, 0.25))
        ok, residual = sep.verify_sep(inst)
        assert ok and residual < 1e-12

    def test_mismatched_instance_fails(self):
        rng = np.random.default_rng(1)
        g = sep.positive_part(qc.random_product_invertible(4, rng))
        h = sep.positive_part(qc.random_product_invertible(4, rng))
        inst = sep.SepInstance(g, h, 1.0, (qc.ProductOperator.identity(4),), np.array([1.0]))
        ok, residual = sep.verify_sep(inst)
        assert not ok and residual > 1e-6

    def test_nonunitary_symmetries_supported(self):
        # P_z-type symmetries are invertible but not unitary
        s = sep.ghz_symmetries(2.0, 0.5)
        big_g = sep.positive_part(s)
        big_h = sep.positive_part(qc.ProductOperator.identity(3))
        inst = sep.SepInstance(big_g, big_h, 1.0, (s,), np.array([1.0]))
        ok, residual = sep.verify_sep(inst)
        assert ok and residual < 1e-12

    def test_weight_validation(self):
        g = sep.positive_part(qc.ProductOperator.identity(4))
        with pytest.raises(ValueError, match="sum to 1"):
            sep.SepInstance(g, g, 1.0, (qc.ProductOperator.identity(4),), np.array([0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            sep.SepInstance(
                g, g, 1.0,
                (qc.ProductOperator.identity(4), qc.ProductOperator.identity(4)),
                np.array([1.5, -0.5]),
            )


class TestSolveWeights:
    def test_trivial(self):
        g = sep.positive_part(qc.ProductOperator.identity(4))
        p, r = sep.solve_sep_weights(g, g, [qc.ProductOperator.identity(4)])
        np.testing.assert_allclose(p, [1.0], atol=1e-12)
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_twirl_recovers_quarter_weights(self):
        h = qc.ProductOperator.single(4, 1, offaxis_factor(0.2, 0.15, 0.1))
        syms = fq.symmetry_group(GENERIC)
        big_g = sep.positive_part(qc.ProductOperator.identity(4))
        p, r = sep.solve_sep_weights(big_g, sep.positive_part(h), syms)
        np.testing.assert_allclose(p, [0.25] * 4, atol=1e-9)
        assert r == pytest.approx(0.5, abs=1e-9)

    def test_two_element_axis_weights_forced(self):
        # off-diagonal components only cancel at p = (1/2, 1/2)
        h = qc.ProductOperator(
            (offaxis_factor(0.2, 0.1, 0.05), axis_factor("x", 0.1),
             axis_factor("x", 0.2), axis_factor("x", 0.25))
        )
        g_special = qc.psd_sqrt(sep._axis_projection(h.factors[0], "x"))
        g = qc.ProductOperator((g_special,) + h.factors[1:])
        syms = [qc.ProductOperator.identity(4), qc.ProductOperator.pauli_string("xxxx")]
        p, r = sep.solve_sep_weights(sep.positive_part(g), sep.positive_part(h), syms)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-9)

    def test_infeasible_returns_none(self):
        rng = np.random.default_rng(2)
        g = sep.positive_part(qc.random_product_invertible(4, rng))
        h = sep.positive_part(qc.random_product_invertible(4, rng))
        assert sep.solve_sep_weights(g, h, [qc.ProductOperator.identity(4)]) is None

    def test_empty_symmetry_list(self):
        g = sep.positive_part(qc.ProductOperator.identity(4))
        with pytest.raises(ValueError, match="empty"):
            sep.solve_sep_weights(g, g, [])

    def test_weight_perturbation_breaks_equation(self):
        h = qc.ProductOperator(
            (offaxis_factor(0.2, 0.1, 0.0), axis_factor("x", 0.1),
             axis_factor("x", 0.2), axis_factor("x", 0.25))
        )
        g_special = qc.psd_sqrt(sep._axis_projection(h.factors[0], "x"))
        g = qc.ProductOperator((g_special,) + h.factors[1:])
        syms = (qc.ProductOperator.identity(4), qc.ProductOperator.pauli_string("xxxx"))
        big_g, big_h = sep.positive_part(g), sep.positive_part(h)
        eps = 5e-6
        inst = sep.SepInstance(big_g, big_h, 1.0, syms, np.array([0.5 + eps, 0.5 - eps]))
        ok, residual = sep.verify_sep(inst)
        assert not ok and residual > 1e-9


class TestBuildPovm:
    def test_trivial_identity(self):
        ident = qc.ProductOperator.identity(4)
        povm = sep.build_povm(ident, ident, [ident], np.array([1.0]), 1.0)
        np.testing.assert_allclose(povm[0].full_matrix(), np.eye(16), atol=1e-12)

    def test_twirl_completeness(self):
        h = qc.ProductOperator.single(4, 1, offaxis_factor(0.2, 0.15, 0.1))
        syms = fq.symmetry_group(GENERIC)
        ident = qc.ProductOperator.identity(4)
        p, r = sep.solve_sep_weights(
            sep.positive_part(ident), sep.positive_part(h), syms
        )
        povm = sep.build_povm(h, ident, syms, p, r)
        acc = sum(m.full_matrix().conj().T @ m.full_matrix() for m in povm)
        assert np.max(np.abs(acc - np.eye(16))) < 1e-10

    def test_unverified_weights_rejected(self):
        h = qc.ProductOperator.single(4, 1, offaxis_factor(0.2, 0.15, 0.1))
        syms = fq.symmetry_group(GENERIC)
        ident = qc.ProductOperator.identity(4)
        with pytest.raises(ValueError, match="residual"):
            sep.build_povm(h, ident, syms, np.array([0.4, 0.2, 0.2, 0.2]), 0.5)

    def test_singular_source_rejected(self):
        bad = qc.ProductOperator.single(4, 1, np.diag([1.0, 0.0]))
        ident = qc.ProductOperator.identity(4)
        with pytest.raises(ValueError, match="singular"):
            sep.build_povm(ident, bad, [ident], np.array([1.0]), 1.0)


class TestVerifyConversion:
    def test_identity_povm(self):
        st = fq.seed_state(GENERIC)
        ok, reports = sep.verify_conversion([qc.ProductOperator.identity(4)], st, st)
        assert ok and reports[0].fidelity >= 1 - 1e-12

    def test_twirl_conversion(self):
        h = qc.ProductOperator.single(4, 1, offaxis_factor(0.2, 0.15, 0.1))
        syms = fq.symmetry_group(GENERIC)
        ident = qc.ProductOperator.identity(4)
        p, r = sep.solve_sep_weights(sep.positive_part(ident), sep.positive_part(h), syms)
        povm = sep.build_povm(h, ident, syms, p, r)
        seed = fq.seed_state(GENERIC)
        target, _ = qc.apply_product(h, seed)
        ok, reports = sep.verify_conversion(povm, seed, target)
        assert ok
        assert sum(b.probability for b in reports) == pytest.approx(1.0, abs=1e-9)

    def test_corrupted_element_fails(self):
        h = qc.ProductOperator.single(4, 1, offaxis_factor(0.2, 0.15, 0.1))
        syms = fq.symmetry_group(GENERIC)
        ident = qc.ProductOperator.identity(4)
        p, r = sep.solve_sep_weights(sep.positive_part(ident), sep.positive_part(h), syms)
        povm = sep.build_povm(h, ident, syms, p, r)
        rng = np.random.default_rng(3)
        broken = list(povm)
        broken[1] = broken[1].compose(qc.ProductOperator.single(4, 2, qc.random_invertible(rng)))
        seed = fq.seed_state(GENERIC)
        target, _ = qc.apply_product(h, seed)
        ok, _ = sep.verify_conversion(broken, seed, target)
        assert not ok


class TestGhzSymmetries:
    def test_trivial(self):
        s = sep.ghz_symmetries(1.0, 1.0)
        np.testing.assert_allclose(s.full_matrix(), np.eye(8), atol=1e-14)

    def test_flip_only(self):
        s = sep.ghz_symmetries(1.0, 1.0, flip=True)
        out, _ = qc.apply_product(s, qc.ghz_state())
        assert qc.fidelity(out, qc.ghz_state()) >= 1 - 1e-12

    def test_phase_family_fixes_ghz(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z1 = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
            z2 = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
            flip = bool(rng.integers(2))
            s = sep.ghz_symmetries(z1, z2, flip)
            out, _ = qc.apply_product(s, qc.ghz_state())
            assert qc.fidelity(out, qc.ghz_state()) >= 1 - 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sep.ghz_symmetries(0.0, 1.0)


class TestGhzClassSepInstances:
    def test_one_offaxis_party_with_flip_symmetry(self):
        # GHZ-class analog of the axis construction: party 1 off-axis, the
        # x-string symmetry cancels its off-axis components at p = 1/2
        h = qc.ProductOperator(
            (offaxis_factor(0.2, 0.1, 0.05), axis_factor("x", 0.15), axis_factor("x", 0.25))
        )
        g = qc.ProductOperator(
            (qc.psd_sqrt(sep._axis_projection(h.factors[0], "x")),) + h.factors[1:]
        )
        syms = [sep.ghz_symmetries(1, 1), sep.ghz_symmetries(1, 1, flip=True)]
        p, r = sep.solve_sep_weights(sep.positive_part(g), sep.positive_part(h), syms)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-9)
        povm = sep.build_povm(h, g, syms, p, r)
        source, _ = qc.apply_product(g, qc.ghz_state())
        target, _ = qc.apply_product(h, qc.ghz_state())
        ok, _ = sep.verify_conversion(povm, source, target)
        assert ok


class TestSynthesis:
    def test_identity_clause_four_outcomes(self):
        h = qc.ProductOperator.single(4, 1, offaxis_factor(0.2, 0.15, 0.1))
        synth = sep.synthesize_reach_protocol_4q(h, GENERIC)
        assert synth.protocol.num_outcomes == 4
        np.testing.assert_allclose(synth.sep.weights, [0.25] * 4, atol=1e-9)
        branches = sep.execute_protocol(synth.protocol, synth.source.amplitudes)
        for b in branches:
            assert abs(np.vdot(b.vector, synth.target.amplitudes)) ** 2 >= 1 - 1e-9

    def test_axis_clause_two_outcomes(self):
        h = qc.ProductOperator(
            (offaxis_factor(0.2, 0.0, 0.1), axis_factor("x", 0.1),
             axis_factor("x", 0.2), axis_factor("x", 0.25))
        )
        synth = sep.synthesize_reach_protocol_4q(h, GENERIC)
        assert synth.protocol.num_outcomes == 2
        assert synth.axis == "x"
        np.testing.assert_allclose(synth.sep.weights, [0.5, 0.5], atol=1e-9)
        ok, _ = sep.verify_conversion(synth.povm, synth.source, synth.target)
        assert ok

    def test_source_and_target_inequivalent(self):
        h = qc.ProductOperator(
            (offaxis_factor(0.2, 0.0, 0.1), axis_factor("x", 0.1),
             axis_factor("x", 0.2), axis_factor("x", 0.25))
        )
        synth = sep.synthesize_reach_protocol_4q(h, GENERIC)
        assert qc.lu_equivalent(synth.source, synth.target) is None

    def test_vacuity_guard_is_the_symmetry_lemma(self, monkeypatch):
        # g = u h S with u a local unitary and S a Pauli-string symmetry maps
        # the seed to u h|seed>, an LU image of h|seed>; a Pauli string that
        # is not a symmetry does not
        rng = np.random.default_rng(4)
        seed = fq.seed_state(GENERIC)
        h = qc.random_product_invertible(4, rng)
        target, _ = qc.apply_product(h, seed)
        for s, flagged in [(s, True) for s in fq.PAULI_STRINGS] + [
                (qc.ProductOperator.pauli_string("xiii"), False)]:
            g = qc.random_product_unitary(4, rng).compose(h).compose(s)
            source, _ = qc.apply_product(g, seed)
            assert sep._images_lu_equivalent(sep.positive_part(g), sep.positive_part(h)) is flagged
            assert (qc.lu_equivalent(source, target) is not None) is flagged
        h = qc.ProductOperator(
            (offaxis_factor(0.2, 0.0, 0.1), axis_factor("x", 0.1),
             axis_factor("x", 0.2), axis_factor("x", 0.25))
        )
        synth = sep.synthesize_reach_protocol_4q(h, GENERIC)
        assert not sep._images_lu_equivalent(sep.positive_part(synth.source_operator),
                                             sep.positive_part(h))
        monkeypatch.setattr(sep, "_images_lu_equivalent", lambda *args: True)
        with pytest.raises(qc.NumericalError,
                           match="source and target are LU-equivalent; synthesis is vacuous"):
            sep.synthesize_reach_protocol_4q(h, GENERIC)

    def test_checks_genericity_once(self, monkeypatch):
        calls = []
        is_generic = fq.is_generic
        monkeypatch.setattr(fq, "is_generic", lambda p: calls.append(p) or is_generic(p))
        h = qc.ProductOperator.single(4, 1, offaxis_factor(0.2, 0.15, 0.1))
        sep.synthesize_reach_protocol_4q(h, GENERIC)
        assert calls == [GENERIC]

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError, match="not reachable"):
            sep.synthesize_reach_protocol_4q(qc.ProductOperator.identity(4), GENERIC)

    def test_r_equals_squared_norm_ratio(self):
        # the weight equation fixes r to the ratio of unnormalized state norms
        h = qc.ProductOperator(
            (offaxis_factor(0.2, 0.0, 0.1), axis_factor("x", 0.1),
             axis_factor("x", 0.2), axis_factor("x", 0.25))
        )
        synth = sep.synthesize_reach_protocol_4q(h, GENERIC)
        seed = fq.seed_state(GENERIC)
        _, n_target = qc.apply_product(h, seed)
        _, n_source = qc.apply_product(synth.source_operator, seed)
        assert synth.sep.r == pytest.approx(n_target / n_source, abs=1e-10)

    def test_protocol_corrections_are_paulis_up_to_phase(self):
        h = qc.ProductOperator(
            (offaxis_factor(0.2, 0.1, 0.0), axis_factor("z", 0.1),
             axis_factor("z", 0.2), axis_factor("z", 0.25))
        )
        synth = sep.synthesize_reach_protocol_4q(h, GENERIC)
        for row in synth.protocol.corrections:
            for u in row:
                # unitary corrections: u^dag u = 1 enforced by the container
                np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-9)

    def test_randomized_soundness(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            if rng.integers(2):
                head = offaxis_factor(*rng.uniform(0.05, 0.2, size=3))
                h = qc.ProductOperator.single(4, int(rng.integers(1, 5)), head)
            else:
                w = "xyz"[int(rng.integers(3))]
                factors = [axis_factor(w, float(rng.uniform(0.05, 0.3))) for _ in range(4)]
                vx, vy, vz = rng.uniform(0.05, 0.2, size=3)
                if w == "x":
                    head = offaxis_factor(vx, vy, 0.0)
                elif w == "y":
                    head = offaxis_factor(vx, vy, 0.0)
                else:
                    head = offaxis_factor(vx, 0.0, vz)
                factors[int(rng.integers(4))] = head
                h = qc.ProductOperator(tuple(factors))
            synth = sep.synthesize_reach_protocol_4q(h, GENERIC)
            ok, _ = sep.verify_conversion(synth.povm, synth.source, synth.target)
            assert ok


def test_povm_to_protocol_rejects_a_non_unitary_bystander_factor():
    # element 1 has a factor on party 3 that is not a multiple of a unitary
    ident = qc.ProductOperator.identity(4)
    half = qc.ProductOperator.single(4, 1, np.eye(2) / math.sqrt(2))
    bad = qc.ProductOperator((np.eye(2) / math.sqrt(2), np.eye(2), np.diag([1.0, 0.5]), np.eye(2)))
    assert sep._povm_to_protocol([ident], 1).num_outcomes == 1
    assert sep._povm_to_protocol([half, half], 1).num_outcomes == 2
    with pytest.raises(ValueError, match="party 3 is not proportional to a unitary"):
        sep._povm_to_protocol([half, bad], 1)


class TestLoccProtocolContainer:
    def test_kraus_completeness_enforced(self):
        with pytest.raises(ValueError, match="identity"):
            sep.LoccProtocol(
                acting_party=1,
                kraus_ops=(np.diag([1.0, 0.0]),),
                corrections=((np.eye(2), np.eye(2)),),
                dims=(2, 2),
            )

    def test_nonunitary_correction_rejected(self):
        k = np.eye(2) / math.sqrt(2)
        with pytest.raises(ValueError, match="unitary"):
            sep.LoccProtocol(
                acting_party=1,
                kraus_ops=(k, k),
                corrections=((np.eye(2), np.eye(2)), (np.eye(2), np.diag([1.0, 0.5]))),
                dims=(2, 2),
            )


# -- dense references: every product expanded with np.kron, summed in Python ------

def _dense(op):
    m = op.factors[0]
    for f in op.factors[1:]:
        m = np.kron(m, f)
    return m


def _dense_terms(H, symmetries):
    hf = _dense(H)
    return [_dense(s).conj().T @ hf @ _dense(s) for s in symmetries]


def _dense_residual(instance):
    gf = _dense(instance.G)
    acc = np.zeros_like(gf)
    for p, a in zip(instance.weights, _dense_terms(instance.H, instance.symmetries)):
        acc += p * a
    return float(np.max(np.abs(acc - instance.r * gf)))


def _dense_completeness(povm):
    acc = sum(_dense(m).conj().T @ _dense(m) for m in povm)
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


def _dense_norm_ratio(G, H, symmetries, weights):
    traces = [float(np.trace(a).real) for a in _dense_terms(H, symmetries)]
    return float(np.dot(weights, traces) / np.trace(_dense(G)).real)


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _random_instance(rng, n):
    """A random n-party instance whose equation does not hold, and its POVM-like family."""
    g, h = qc.random_product_invertible(n, rng), qc.random_product_invertible(n, rng)
    k = int(rng.integers(1, 6))
    syms = [qc.random_product_invertible(n, rng) for _ in range(k)]
    weights = rng.dirichlet(np.ones(k))
    big_g, big_h = sep.positive_part(g), sep.positive_part(h)
    r = sep.norm_ratio(big_g, big_h, syms, weights)
    return sep.SepInstance(big_g, big_h, r, syms, weights), syms


@pytest.mark.parametrize("n", [3, 4])
def test_stacked_sep_quantities_match_dense_references(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(40):
        inst, family = _random_instance(rng, n)
        assert _close(inst.r, _dense_norm_ratio(inst.G, inst.H, inst.symmetries, inst.weights))
        ok, residual = sep.verify_sep(inst)
        assert _close(residual, _dense_residual(inst)) and ok is (residual < 1e-9)
        assert _close(sep.completeness_residual(family), _dense_completeness(family))


def test_stacked_sep_quantities_match_dense_references_on_cli_inputs(tmp_path):
    # the inputs of the sep-verify, sep-solve and povm-build reports in
    # tests/data/cli_golden.json
    files = _cli_fixture_files(tmp_path)
    g = io.operator_from_obj(io.load_json(files["id4"]))
    h = io.operator_from_obj(io.load_json(files["h4"]))
    syms = io.operators_from_obj(io.load_json(files["syms"]))
    big_g, big_h = sep.positive_part(g), sep.positive_part(h)
    quarter = np.full(4, 0.25)
    r = sep.norm_ratio(big_g, big_h, syms, quarter)
    assert _close(r, _dense_norm_ratio(big_g, big_h, syms, quarter))
    inst = sep.SepInstance(big_g, big_h, r, tuple(syms), quarter)
    assert _close(sep.verify_sep(inst)[1], _dense_residual(inst))
    p, r = sep.solve_sep_weights(big_g, big_h, syms)
    inst = sep.SepInstance(big_g, big_h, r, tuple(syms), p)
    assert _close(sep.verify_sep(inst)[1], _dense_residual(inst))
    r = sep.norm_ratio(big_g, big_h, syms, quarter)
    povm = sep.build_povm(h, g, syms, quarter, r)
    assert _close(sep.completeness_residual(povm), _dense_completeness(povm))
    for m, s in zip(povm, syms):
        want = math.sqrt(0.25 / r) * _dense(h) @ _dense(s) @ np.linalg.inv(_dense(g))
        np.testing.assert_allclose(_dense(m), want, rtol=0, atol=1e-15)


class TestFullMatrixOnlyForG:
    """The weight equation expands only G to a full matrix; every other product
    is multiplied factor by factor."""

    def _count(self, monkeypatch):
        expanded = []
        full_matrix = qc.ProductOperator.full_matrix
        monkeypatch.setattr(qc.ProductOperator, "full_matrix",
                            lambda op: expanded.append(op) or full_matrix(op))
        return expanded

    def test_solve_sep_weights(self, monkeypatch):
        h = qc.ProductOperator.single(4, 1, offaxis_factor(0.2, 0.15, 0.1))
        big_g, big_h = sep.positive_part(qc.ProductOperator.identity(4)), sep.positive_part(h)
        expanded = self._count(monkeypatch)
        assert sep.solve_sep_weights(big_g, big_h, fq.PAULI_STRINGS) is not None
        assert 0 < len(expanded) <= 2
        assert all(op is big_g for op in expanded)

    @pytest.mark.parametrize("target", ["axis", "twirl"])
    def test_synthesize_reach_protocol_4q(self, monkeypatch, target):
        if target == "twirl":
            h = qc.ProductOperator.single(4, 1, offaxis_factor(0.2, 0.15, 0.1))
        else:
            h = qc.ProductOperator((offaxis_factor(0.2, 0.0, 0.1), axis_factor("x", 0.1),
                                    axis_factor("x", 0.2), axis_factor("x", 0.25)))
        expanded = self._count(monkeypatch)
        synth = sep.synthesize_reach_protocol_4q(h, GENERIC)
        assert 0 < len(expanded) <= 3
        assert all(np.array_equal(op.stack, synth.sep.G.stack) for op in expanded)
