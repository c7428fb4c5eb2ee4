"""Tests for the generic four-qubit family and its conversion predicates."""

import itertools
import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesq import core as qc
from mesq import fourqubit as fq

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

GENERIC = fq.GabcdParams(2, 1j, 0.5, 1 + 1j)


def axis_factor(w: str, gamma: float) -> np.ndarray:
    return qc.psd_sqrt(0.5 * np.eye(2) + gamma * qc.pauli(w))


def generic_factor(rng) -> np.ndarray:
    v = rng.uniform(0.05, 0.25, size=3)
    m = 0.5 * np.eye(2) + v[0] * qc.pauli("x") + v[1] * qc.pauli("y") + v[2] * qc.pauli("z")
    return qc.psd_sqrt(m)


class TestSeedState:
    def test_a_only_support(self):
        st = fq.seed_state(fq.GabcdParams(1, 0, 0, 0))
        expected = np.zeros(16)
        for k in (0b0000, 0b0011, 0b1100, 0b1111):
            expected[k] = 0.5
        np.testing.assert_allclose(st.amplitudes, expected, atol=1e-14)

    def test_all_equal_parameters(self):
        st = fq.seed_state(fq.GabcdParams(1, 1, 1, 1))
        expected = np.zeros(16)
        for k in (0b0000, 0b1111, 0b0101, 0b1010):
            expected[k] = 0.5
        np.testing.assert_allclose(st.amplitudes, expected, atol=1e-14)

    def test_ghz_like_at_a_equals_d(self):
        st = fq.seed_state(fq.GabcdParams(1, 0, 0, 1))
        expected = np.zeros(16)
        expected[0b0000] = expected[0b1111] = 1 / math.sqrt(2)
        np.testing.assert_allclose(st.amplitudes, expected, atol=1e-14)

    def test_generic_sample_is_generic(self):
        ok, violations = fq.is_generic(GENERIC)
        assert ok and not violations

    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            fq.seed_state(fq.GabcdParams(0, 0, 0, 0))


class TestGenericity:
    def test_equal_parameters_fail(self):
        ok, violations = fq.is_generic(fq.GabcdParams(1, 1, 1, 1))
        assert not ok and "b^2 = c^2" in violations

    def test_a_collision(self):
        ok, violations = fq.is_generic(fq.GabcdParams(1j, 1, 0.5, 0.25))
        # a^2 = -1 is distinct here; build a real collision instead
        assert ok
        ok, violations = fq.is_generic(fq.GabcdParams(1, 1j, 0.5, 1))
        assert not ok and "a^2 = d^2" in violations

    def test_scaling_clause_fires(self):
        # squared parameters (1, i, -1, -i) form a cyclic multiset under q = i
        params = fq.GabcdParams(
            1, np.exp(1j * math.pi / 4), 1j, np.exp(-1j * math.pi / 4)
        )
        ok, violations = fq.is_generic(params)
        assert not ok
        assert any("scaling" in v for v in violations)


class TestSymmetryGroup:
    def test_group_fixes_seed(self):
        seed = fq.seed_state(GENERIC)
        group = fq.symmetry_group(GENERIC)
        assert len(group) == 4
        for s in group:
            out, _ = qc.apply_product(s, seed)
            assert qc.fidelity(out, seed) >= 1 - 1e-10

    def test_non_generic_refused(self):
        with pytest.raises(ValueError, match="not generic"):
            fq.symmetry_group(fq.GabcdParams(1, 1, 1, 1))

    def test_random_product_unitary_is_not_a_symmetry(self):
        rng = np.random.default_rng(0)
        seed = fq.seed_state(GENERIC)
        op = qc.random_product_unitary(4, rng)
        out, _ = qc.apply_product(op, seed)
        assert qc.fidelity(out, seed) < 1 - 1e-6


class TestClassifyFactor:
    def test_identity(self):
        fc = fq.classify_factor(np.eye(2))
        assert fc.tag is fq.FactorTag.PROPORTIONAL_IDENTITY

    def test_scaled_unitary_is_proportional_identity(self):
        rng = np.random.default_rng(1)
        fc = fq.classify_factor(2.3 * qc.random_unitary(rng))
        assert fc.tag is fq.FactorTag.PROPORTIONAL_IDENTITY

    def test_axis(self):
        fc = fq.classify_factor(axis_factor("x", 0.3))
        assert fc.tag is fq.FactorTag.AXIS
        assert fc.axis == "x"
        assert fc.gamma == pytest.approx(0.3, abs=1e-10)

    def test_generic(self):
        m = qc.psd_sqrt(0.5 * np.eye(2) + 0.2 * qc.pauli("x") + 0.2 * qc.pauli("z"))
        assert fq.classify_factor(m).tag is fq.FactorTag.GENERIC

    def test_classification_ignores_left_unitary(self):
        rng = np.random.default_rng(2)
        base = axis_factor("y", -0.2)
        fc = fq.classify_factor(qc.random_unitary(rng) @ base)
        assert fc.tag is fq.FactorTag.AXIS and fc.axis == "y"
        assert fc.gamma == pytest.approx(-0.2, abs=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            fq.classify_factor(np.diag([1.0, 0.0]))

    def test_borderline_component_warns(self):
        near = qc.psd_sqrt(0.5 * np.eye(2) + 0.2 * qc.pauli("x") + 5e-10 * qc.pauli("z"))
        with pytest.warns(UserWarning, match="borderline"):
            fc = fq.classify_factor(near)
        assert fc.tag is fq.FactorTag.GENERIC


# -- dense references ------------------------------------------------------------

def _multiset_close_reference(xs, ys) -> bool:
    for perm in itertools.permutations(range(len(ys))):
        if all(abs(x - ys[p]) <= qc.GENERICITY_TOL for x, p in zip(xs, perm)):
            return True
    return False


def _is_generic_reference(params):
    """is_generic with one Python loop over the 24 permutations per candidate."""
    a, b, c, d = params.as_tuple()
    sq = {"a": a * a, "b": b * b, "c": c * c, "d": d * d}
    violations = []
    for u, v in (("b", "c"), ("c", "d"), ("d", "b")):
        if abs(sq[u] - sq[v]) <= qc.GENERICITY_TOL:
            violations.append(f"{u}^2 = {v}^2")
    for v in ("b", "c", "d"):
        if abs(sq["a"] - sq[v]) <= qc.GENERICITY_TOL:
            violations.append(f"a^2 = {v}^2")
    values = list(sq.values())
    candidates = set()
    for x in values:
        for y in values:
            if abs(y) > qc.GENERICITY_TOL:
                q = x / y
                if abs(q - 1.0) > qc.GENERICITY_TOL:
                    candidates.add(complex(round(q.real, 12), round(q.imag, 12)))
    for q in candidates:
        if _multiset_close_reference([q * v for v in values], values):
            violations.append(f"multiset invariant under scaling q={q}")
            break
    return (not violations, violations)


def _components_reference(op):
    """Pauli components of op^dag op / tr, each from trace(sigma_w P) / 2."""
    p = op.conj().T @ op
    p = p / np.trace(p).real
    return np.array([(np.trace(qc.pauli(w) @ p) / 2.0).real for w in "xyz"])


def _params_from(seed: int, family: str) -> fq.GabcdParams:
    rng = np.random.default_rng(seed)
    a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    if family == "b2=c2":
        c = -b if rng.integers(2) else b
    elif family == "a=0":
        a = 0.0
    elif family == "scaling by i":
        # squares r^2 * {1, -1, i, -i} in a random order
        r = a
        a, b, c, d = r * rng.permutation([1, 1j, np.exp(1j * np.pi / 4), np.exp(3j * np.pi / 4)])
    elif family == "c=d":
        d = c
    elif family == "all equal":
        b = c = d = a
    return fq.GabcdParams(a, b, c, d)


FAMILIES = ["random", "b2=c2", "a=0", "scaling by i", "c=d", "all equal"]


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES))
def test_is_generic_matches_the_permutation_loop(seed, family):
    params = _params_from(seed, family)
    assert fq.is_generic(params) == _is_generic_reference(params)


@pytest.mark.parametrize("family", FAMILIES[1:])
def test_degenerate_families_keep_their_verdicts(family):
    # a = 0 leaves the clauses generic, but drops a^2 as a scaling denominator
    for seed in range(20):
        params = _params_from(seed, family)
        ok, violations = fq.is_generic(params)
        assert (ok, violations) == _is_generic_reference(params)
        assert ok is (family == "a=0")
        if family == "scaling by i":
            q = complex(violations[-1].removeprefix("multiset invariant under scaling q="))
            assert min(abs(q - w) for w in (1j, -1, -1j)) < 1e-12


def _classify_sample(rng, kind):
    scale = 10.0 ** rng.uniform(-3, 3)
    u = qc.random_unitary(rng)
    if kind == "identity":
        return scale * u
    if kind == "axis":
        w = "xyz"[int(rng.integers(3))]
        return scale * u @ axis_factor(w, rng.choice([-1, 1]) * rng.uniform(0.01, 0.45))
    return scale * qc.random_invertible(rng)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["identity", "axis", "generic"]))
def test_classify_factor_matches_the_dense_decomposition(seed, kind):
    op = _classify_sample(np.random.default_rng(seed), kind)
    want = _components_reference(op)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fc = fq.classify_factor(op)
    # P has unit trace, so an absolute bound is relative to its scale
    np.testing.assert_allclose(fc.components, want, rtol=0, atol=1e-14)
    mags = np.abs(want)
    assert fc.tag is {0: fq.FactorTag.PROPORTIONAL_IDENTITY, 1: fq.FactorTag.AXIS}.get(
        int((mags > qc.AXIS_TOL).sum()), fq.FactorTag.GENERIC)
    assert fc.tag.value == {"identity": "proportional_identity"}.get(kind, kind)


def op_from_factors(*factors) -> qc.ProductOperator:
    return qc.ProductOperator(tuple(np.asarray(f, dtype=complex) for f in factors))


class TestTheoremPredicates:
    def test_single_offaxis_factor_is_reachable(self):
        h1 = qc.psd_sqrt(0.5 * np.eye(2) + 0.2 * qc.pauli("x") + 0.1 * qc.pauli("z"))
        h = qc.ProductOperator.single(4, 1, h1)
        reachable, witness = fq.is_reachable(h, GENERIC)
        assert reachable and witness.special_party == 1

    def test_identity_is_not_reachable(self):
        reachable, _ = fq.is_reachable(qc.ProductOperator.identity(4), GENERIC)
        assert not reachable

    def test_all_axis_form_is_not_reachable(self):
        h = op_from_factors(*(axis_factor("x", g) for g in (0.1, 0.2, 0.25, 0.3)))
        reachable, _ = fq.is_reachable(h, GENERIC)
        assert not reachable

    def test_axis_triple_with_offaxis_head_is_reachable(self):
        h1 = qc.psd_sqrt(0.5 * np.eye(2) + 0.2 * qc.pauli("x") + 0.1 * qc.pauli("y"))
        h = op_from_factors(h1, axis_factor("x", 0.1), axis_factor("x", 0.2), axis_factor("x", 0.3))
        reachable, witness = fq.is_reachable(h, GENERIC)
        assert reachable and witness.axis == "x" and witness.special_party == 1

    def test_identity_is_convertible(self):
        convertible, _ = fq.is_convertible(qc.ProductOperator.identity(4), GENERIC)
        assert convertible

    def test_axis_triple_any_head_is_convertible(self):
        rng = np.random.default_rng(3)
        g = op_from_factors(
            qc.random_invertible(rng),
            axis_factor("z", 0.1),
            axis_factor("z", 0.2),
            axis_factor("z", 0.3),
        )
        convertible, witness = fq.is_convertible(g, GENERIC)
        assert convertible and witness.axis == "z"

    def test_two_generic_factors_not_convertible(self):
        rng = np.random.default_rng(4)
        g = op_from_factors(
            generic_factor(rng), generic_factor(rng), axis_factor("x", 0.1), axis_factor("x", 0.2)
        )
        convertible, _ = fq.is_convertible(g, GENERIC)
        assert not convertible

    def test_non_generic_params_rejected(self):
        with pytest.raises(ValueError, match="not generic"):
            fq.is_reachable(qc.ProductOperator.identity(4), fq.GabcdParams(1, 1, 1, 1))


class TestMes4Status:
    def test_identity_is_non_isolated_member(self):
        cert = fq.mes4_status(qc.ProductOperator.identity(4), GENERIC)
        assert cert.status is fq.Mes4Status.NON_ISOLATED_IN_MES

    def test_all_generic_is_isolated(self):
        rng = np.random.default_rng(5)
        g = op_from_factors(*(generic_factor(rng) for _ in range(4)))
        cert = fq.mes4_status(g, GENERIC)
        assert cert.status is fq.Mes4Status.ISOLATED_IN_MES

    def test_axis_triple_with_non_axis_head_is_reachable(self):
        h1 = qc.psd_sqrt(0.5 * np.eye(2) + 0.2 * qc.pauli("y") + 0.1 * qc.pauli("z"))
        h = op_from_factors(h1, axis_factor("y", 0.1), axis_factor("y", 0.2), axis_factor("y", 0.3))
        cert = fq.mes4_status(h, GENERIC)
        assert cert.status is fq.Mes4Status.REACHABLE_NOT_IN_MES

    def test_exactly_one_nonzero_gamma_is_excluded_from_mes(self):
        # the all-axis display excludes exactly one nonzero gamma: such states
        # are reachable, hence outside the set entirely
        g = op_from_factors(axis_factor("x", 0.3), np.eye(2), np.eye(2), np.eye(2))
        cert = fq.mes4_status(g, GENERIC)
        assert cert.status is fq.Mes4Status.REACHABLE_NOT_IN_MES

    def test_all_axis_common_w_is_non_isolated_member(self):
        g = op_from_factors(*(axis_factor("y", v) for v in (0.1, 0.15, 0.2, 0.25)))
        cert = fq.mes4_status(g, GENERIC)
        assert cert.status is fq.Mes4Status.NON_ISOLATED_IN_MES

    def test_checks_genericity_once_and_classifies_each_factor_once(self, monkeypatch):
        calls = []
        is_generic, classify = fq.is_generic, fq.classify_factor
        monkeypatch.setattr(fq, "is_generic", lambda p: calls.append("generic") or is_generic(p))
        monkeypatch.setattr(fq, "classify_factor", lambda f: calls.append("factor") or classify(f))
        fq.mes4_status(qc.ProductOperator.identity(4), GENERIC)
        assert sorted(calls) == ["factor"] * 4 + ["generic"]

    def test_isolation_is_generic_behavior(self):
        rng = np.random.default_rng(6)
        isolated = sum(
            fq.mes4_status(
                op_from_factors(*(generic_factor(rng) for _ in range(4))), GENERIC
            ).status
            is fq.Mes4Status.ISOLATED_IN_MES
            for _ in range(500)
        )
        assert isolated == 500


class TestInvariances:
    def permuted(self, op, perm):
        return qc.ProductOperator(tuple(op.factors[p] for p in perm))

    def test_predicates_permutation_invariant(self):
        rng = np.random.default_rng(7)
        h1 = qc.psd_sqrt(0.5 * np.eye(2) + 0.2 * qc.pauli("x") + 0.1 * qc.pauli("y"))
        samples = [
            qc.ProductOperator.identity(4),
            qc.ProductOperator.single(4, 2, h1),
            op_from_factors(h1, axis_factor("x", 0.1), axis_factor("x", 0.2), axis_factor("x", 0.3)),
            op_from_factors(*(generic_factor(rng) for _ in range(4))),
        ]
        for h in samples:
            base = (
                fq.is_reachable(h, GENERIC)[0],
                fq.is_convertible(h, GENERIC)[0],
                fq.mes4_status(h, GENERIC).status,
            )
            for perm in itertools.permutations(range(4)):
                hp = self.permuted(h, perm)
                got = (
                    fq.is_reachable(hp, GENERIC)[0],
                    fq.is_convertible(hp, GENERIC)[0],
                    fq.mes4_status(hp, GENERIC).status,
                )
                assert got == base

    def test_predicates_symmetry_invariant(self):
        rng = np.random.default_rng(8)
        h1 = qc.psd_sqrt(0.5 * np.eye(2) + 0.2 * qc.pauli("x") + 0.1 * qc.pauli("y"))
        samples = [
            qc.ProductOperator.single(4, 1, h1),
            op_from_factors(h1, axis_factor("x", 0.1), axis_factor("x", 0.2), axis_factor("x", 0.3)),
            op_from_factors(*(generic_factor(rng) for _ in range(4))),
        ]
        group = fq.symmetry_group(GENERIC)
        for h in samples:
            base = (
                fq.is_reachable(h, GENERIC)[0],
                fq.is_convertible(h, GENERIC)[0],
                fq.mes4_status(h, GENERIC).status,
            )
            for s in group:
                hs = h.compose(s)
                got = (
                    fq.is_reachable(hs, GENERIC)[0],
                    fq.is_convertible(hs, GENERIC)[0],
                    fq.mes4_status(hs, GENERIC).status,
                )
                assert got == base
