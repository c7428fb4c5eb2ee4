"""Tests for three-qubit classification, standard forms, and set membership."""

import math

import numpy as np
import pytest

from mesq import core as qc
from mesq import tripartite as tri


def cayley_polynomial(amps: np.ndarray) -> complex:
    """Independent oracle: the fully expanded degree-4 hyperdeterminant."""
    a = amps.reshape(2, 2, 2)
    a000, a001, a010, a011 = a[0, 0, 0], a[0, 0, 1], a[0, 1, 0], a[0, 1, 1]
    a100, a101, a110, a111 = a[1, 0, 0], a[1, 0, 1], a[1, 1, 0], a[1, 1, 1]
    return (
        a000**2 * a111**2
        + a001**2 * a110**2
        + a010**2 * a101**2
        + a011**2 * a100**2
        - 2
        * (
            a000 * a001 * a110 * a111
            + a000 * a010 * a101 * a111
            + a000 * a011 * a100 * a111
            + a001 * a010 * a101 * a110
            + a001 * a011 * a100 * a110
            + a010 * a011 * a100 * a101
        )
        + 4 * (a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111)
    )


class TestHyperdeterminant:
    def test_matches_expanded_polynomial(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            st = qc.random_state(3, rng)
            assert abs(tri.hyperdeterminant(st) - cayley_polynomial(st.amplitudes)) < 1e-12

    def test_reference_values(self):
        assert tri.hyperdeterminant(qc.ghz_state()) == pytest.approx(0.25, abs=1e-12)
        assert abs(tri.hyperdeterminant(qc.w_state())) < 1e-14

    def test_party_symmetric(self):
        # the pencil is built along party 1; the invariant must not care
        rng = np.random.default_rng(3)
        for _ in range(20):
            st = qc.random_state(3, rng)
            vals = []
            for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                t = st.tensor().transpose(perm).reshape(-1)
                vals.append(tri.hyperdeterminant(qc.PureState(3, t)))
            assert max(abs(v - vals[0]) for v in vals) < 1e-12


class TestClassify:
    def test_ghz_class(self):
        res = tri.classify_slocc3(qc.ghz_state())
        assert res.tag is tri.Slocc3Tag.GHZ_CLASS
        assert abs(res.hyperdet) > tri.HYPERDET_THRESHOLD

    def test_w_class(self):
        res = tri.classify_slocc3(qc.w_state())
        assert res.tag is tri.Slocc3Tag.W_CLASS
        assert res.reduced_ranks == (2, 2, 2)

    def test_biseparable(self):
        st = qc.PureState.normalized(np.kron([1, 0], np.array([1, 0, 0, 1]) / math.sqrt(2)))
        res = tri.classify_slocc3(st)
        assert res.tag is tri.Slocc3Tag.BISEPARABLE
        assert res.separated_party == 1

    def test_fully_product(self):
        res = tri.classify_slocc3(qc.basis_state(3, "010"))
        assert res.tag is tri.Slocc3Tag.FULLY_PRODUCT

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            tri.classify_slocc3(qc.ghz_state(2))

    def test_slocc_invariance(self):
        rng = np.random.default_rng(4)
        for base, tag in ((qc.ghz_state(), tri.Slocc3Tag.GHZ_CLASS),
                          (qc.w_state(), tri.Slocc3Tag.W_CLASS)):
            for _ in range(100):
                op = qc.random_product_invertible(3, rng)
                st, _ = qc.apply_product(op, base)
                assert tri.classify_slocc3(st).tag is tag


class TestGhzStandardForm:
    def test_ghz_is_its_own_form(self):
        form = tri.ghz_standard_form(qc.ghz_state())
        assert form.z == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(form.gamma_x, [0.0, 0.0, 0.0], atol=1e-9)
        assert form.reconstruction_fidelity >= 1 - 1e-9

    def test_constructor_round_trip_z_imag(self):
        st = tri.ghz_form_state(1j, (0.3, 0.0, 0.0))
        form = tri.ghz_standard_form(st)
        assert form.z == pytest.approx(1j, abs=1e-8)
        np.testing.assert_allclose(form.gamma_x, [0.3, 0.0, 0.0], atol=1e-9)

    def test_constructor_round_trip_generic(self):
        st = tri.ghz_form_state(1.7 * np.exp(0.4j), (0.1, 0.2, 0.3))
        form = tri.ghz_standard_form(st)
        assert form.z == pytest.approx(1.7 * np.exp(0.4j), abs=1e-8)
        np.testing.assert_allclose(form.gamma_x, [0.1, 0.2, 0.3], atol=1e-9)

    def test_inverse_z_canonicalizes_to_same_orbit(self):
        # z and 1/z label the same state up to local unitaries
        z = 1.7 * np.exp(0.4j)
        a = tri.ghz_standard_form(tri.ghz_form_state(z, (0.1, 0.2, 0.3)))
        b = tri.ghz_standard_form(tri.ghz_form_state(1 / z, (0.1, 0.2, 0.3)))
        assert abs(a.z - b.z) < 1e-8

    def test_random_invertible_round_trips(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            op = qc.random_product_invertible(3, rng)
            st, _ = qc.apply_product(op, qc.ghz_state())
            form = tri.ghz_standard_form(st)
            assert form.reconstruction_fidelity >= 1 - 1e-9
            assert all(0 <= g < 0.5 for g in form.gamma_x)
            assert abs(form.z) >= 1 - 1e-9

    def test_z_gamma_are_lu_invariants(self):
        rng = np.random.default_rng(6)
        base = tri.ghz_form_state(1j, (0.2, 0.3, 0.1))
        ref = tri.ghz_standard_form(base)
        for _ in range(25):
            lu = qc.random_product_unitary(3, rng)
            st, _ = qc.apply_product(lu, base)
            form = tri.ghz_standard_form(st)
            assert abs(form.z - ref.z) < 1e-8
            np.testing.assert_allclose(form.gamma_x, ref.gamma_x, atol=1e-9)

    def test_rejects_w_class(self):
        with pytest.raises(ValueError, match="not GHZ-class"):
            tri.ghz_standard_form(qc.w_state())


class TestWStandardForm:
    def test_w_state(self):
        form = tri.w_standard_form(qc.w_state())
        assert form.x0 == pytest.approx(0.0, abs=1e-10)
        for x in (form.x1, form.x2, form.x3):
            assert x == pytest.approx(1 / math.sqrt(3), abs=1e-10)

    def test_triangular_operator_round_trip(self):
        # x-form state equals (g1 x g2 x 1)|W> for the triangular g1, g2
        xs = (0.3, 0.6, 0.5, np.sqrt(1 - 0.3**2 - 0.6**2 - 0.5**2))
        st = tri.w_form_state(*xs)
        form = tri.w_standard_form(st)
        np.testing.assert_allclose([form.x0, form.x1, form.x2, form.x3], xs, atol=1e-9)
        op = qc.ProductOperator((form.g1(), form.g2(), np.eye(2)))
        rebuilt, _ = qc.apply_product(op, qc.w_state())
        assert qc.fidelity(rebuilt, st) >= 1 - 1e-9

    def test_x0_recovery_under_local_unitaries(self):
        rng = np.random.default_rng(7)
        st = tri.w_form_state(0.5, 0.5, 0.5, 0.5)
        for _ in range(25):
            lu = qc.random_product_unitary(3, rng)
            rotated, _ = qc.apply_product(lu, st)
            form = tri.w_standard_form(rotated)
            np.testing.assert_allclose(
                [form.x0, form.x1, form.x2, form.x3], [0.5] * 4, atol=1e-8
            )

    def test_permuted_w_state(self):
        # W is symmetric under party permutation; the form must be unchanged
        t = qc.w_state().tensor().transpose((2, 0, 1)).reshape(-1)
        form = tri.w_standard_form(qc.PureState(3, t))
        assert form.x0 == pytest.approx(0.0, abs=1e-10)

    def test_random_w_class_round_trips(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            op = qc.random_product_invertible(3, rng)
            st, _ = qc.apply_product(op, qc.w_state())
            form = tri.w_standard_form(st)
            assert form.reconstruction_fidelity >= 1 - 1e-9
            assert form.x0 >= 0 and min(form.x1, form.x2, form.x3) > 0

    def test_rejects_ghz_class(self):
        with pytest.raises(ValueError, match="not W-class"):
            tri.w_standard_form(qc.ghz_state())


class TestMes3Membership:
    def test_ghz_state_is_member(self):
        member, cert = tri.in_mes3(qc.ghz_state())
        assert member and "GHZ state itself" in cert.reason

    def test_w_state_is_member(self):
        member, cert = tri.in_mes3(qc.w_state())
        assert member and cert.w_form.x0 == pytest.approx(0.0, abs=1e-10)

    def test_w_with_x0_half_is_not(self):
        member, _ = tri.in_mes3(tri.w_form_state(0.5, 0.5, 0.5, 0.5))
        assert not member

    def test_ghz_with_generic_phase_is_not(self):
        st = tri.ghz_form_state(np.exp(1j * math.pi / 3), (0.2, 0.2, 0.2))
        member, cert = tri.in_mes3(st)
        assert not member and "not in {1, i}" in cert.reason

    def test_ghz_with_z_imag_nonzero_gamma_is_member(self):
        st = tri.ghz_form_state(1j, (0.2, 0.2, 0.2))
        member, _ = tri.in_mes3(st)
        assert member

    def test_unequal_weights_all_gamma_zero_is_not(self):
        member, _ = tri.in_mes3(tri.ghz_form_state(1.4, (0.0, 0.0, 0.0)))
        assert not member

    def test_negated_ghz_is_the_ghz_state(self):
        member, cert = tri.in_mes3(qc.PureState.normalized([1, 0, 0, 0, 0, 0, 0, -1]))
        assert member and "GHZ state itself" in cert.reason

    def test_lu_invariance_of_verdict(self):
        rng = np.random.default_rng(9)
        cases = [
            (tri.ghz_form_state(1j, (0.2, 0.25, 0.3)), True),
            (tri.ghz_form_state(np.exp(0.9j), (0.2, 0.25, 0.3)), False),
            (qc.w_state(), True),
            (tri.w_form_state(0.5, 0.5, 0.5, 0.5), False),
        ]
        for base, expected in cases:
            for _ in range(20):
                lu = qc.random_product_unitary(3, rng)
                st, _ = qc.apply_product(lu, base)
                member, _ = tri.in_mes3(st)
                assert member is expected

    def test_biseparable_rejected(self):
        st = qc.PureState.normalized(np.kron([1, 0], np.array([1, 0, 0, 1]) / math.sqrt(2)))
        with pytest.raises(ValueError, match="genuinely tripartite"):
            tri.in_mes3(st)

    def test_z_one_with_negative_rounding_residue_is_member(self):
        # an LU image of ghz_form_state(1, gammas); its z comes out as 1 - 3.6e-17i,
        # and that rounding residue must not flip the sign fold of z to -1
        amps = [
            complex(-0.38762356999790154, -0.4387505883264022),
            complex(0.15057049118647173, 0.10930687714489214),
            complex(-0.09101881526355801, 0.3247938722594711),
            complex(-0.21772349111598152, -0.26537942259426767),
            complex(-0.0009562883937673176, 0.14052652580490155),
            complex(0.008188452489198368, 0.21448639425166136),
            complex(0.45459241764794667, 0.30249382298415195),
            complex(0.021046536099243382, 0.1630992442798224),
        ]
        member, cert = tri.in_mes3(qc.PureState(3, np.array(amps)))
        assert member, cert.reason
        assert abs(cert.ghz_form.z - 1) < 1e-8


class TestMes3Family:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            tri.Mes3Params(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            tri.Mes3Params(1.5, 0.0, 0.0)

    def test_product_times_bell_structure(self):
        # a = 1/sqrt(2), beta = beta' = 0 gives (|0>+|1>) (x) (|00>+|11>) / 2
        st = tri.mes3_state(tri.Mes3Params(1 / math.sqrt(2), 0.0, 0.0))
        expected = np.kron([1, 1], [1, 0, 0, 1]) / 2.0
        assert abs(np.vdot(st.amplitudes, expected)) ** 2 >= 1 - 1e-12

    def test_recovers_ghz_at_right_angles(self):
        st = tri.mes3_state(tri.Mes3Params(1.0, math.pi / 2, math.pi / 2))
        assert qc.fidelity(st, qc.ghz_state()) >= 1 - 1e-12

    def test_generic_parameters_are_members(self):
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(40):
            params = tri.Mes3Params(
                float(rng.uniform(0.1, 1.0)),
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            st = tri.mes3_state(params)
            tag = tri.classify_slocc3(st).tag
            if tag in (tri.Slocc3Tag.BISEPARABLE, tri.Slocc3Tag.FULLY_PRODUCT):
                continue  # measure-zero degenerate choices
            member, _ = tri.in_mes3(st)
            assert member
            checked += 1
        assert checked >= 35

    def test_family_has_three_parameters(self):
        import inspect

        fields = inspect.signature(tri.Mes3Params).parameters
        assert len(fields) == 3


@pytest.mark.parametrize(
    "state",
    [tri.ghz_form_state(1j, (0.2, 0.25, 0.3)), tri.w_form_state(0.5, 0.5, 0.5, 0.5)],
)
def test_in_mes3_classifies_once(monkeypatch, state):
    calls = []
    classify = tri.classify_slocc3
    monkeypatch.setattr(tri, "classify_slocc3", lambda s: calls.append(s) or classify(s))
    tri.in_mes3(state)
    assert len(calls) == 1
