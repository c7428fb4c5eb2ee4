"""Separable-map conversion engine.

Decides whether a state g|Psi> converts deterministically to h|Psi> under
separable operations by solving the weight equation

    sum_k p_k S_k^dag H S_k = r G,      H = h^dag h,  G = g^dag g,

over the symmetries S_k of |Psi>, builds the POVM M_k = sqrt(p_k/r) h S_k g^-1
realizing the conversion, and packages one-round protocols in which a single
party measures and the others apply outcome-conditioned unitaries.

Each family of product operators (symmetries, terms S_k^dag H S_k, POVM
elements) is one ``(K, n, 2, 2)`` stack of factors, multiplied factor by factor
and expanded by ``core.kron_stack`` only where the equation is compared entry by
entry; the trace of a product is the product of its factor traces.

A passing verification certifies SEP convertibility. SEP strictly contains
deterministic LOCC, so a negative verdict rules LOCC out, while a positive one
is LOCC-certified only when an explicit one-round protocol is attached (as the
synthesized four-qubit protocols are).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ORTHONORMAL_ATOL, PAULI, PHASE_EQUAL_TOL, RESIDUAL_TOL, ROUNDING_ATOL,
                   VANISHING_ATOL, NumericalError, ProductOperator, PureState, apply_product,
                   contract, fidelity, kron_stack, psd_sqrt)
from .fourqubit import (
    AXES,
    PAULI_STRINGS,
    FactorTag,
    GabcdParams,
    classify_factor,
    mes4_status,
    seed_state,
)
from .nnls import nnls

# -- one-round LOCC protocols --------------------------------------------------

@dataclass(frozen=True)
class LoccProtocol:
    """One measuring party; everyone applies an outcome-conditioned unitary.

    ``kraus_ops`` act on ``acting_party`` (1-based); ``corrections[k]`` holds one
    unitary per party (identity allowed) applied after outcome k. ``dims`` are
    the per-party local dimensions, so bipartite qudit protocols and n-qubit
    protocols share the same container.
    """

    acting_party: int
    kraus_ops: tuple
    corrections: tuple
    dims: tuple

    def __post_init__(self):
        d = self.dims[self.acting_party - 1]
        kraus = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        acc = sum(k.conj().T @ k for k in kraus)
        if np.max(np.abs(acc - np.eye(d))) > ORTHONORMAL_ATOL:
            raise ValueError("Kraus operators do not resolve the identity")
        corr = []
        for cs in self.corrections:
            if len(cs) != len(self.dims):
                raise ValueError("corrections must list one unitary per party")
            row = []
            for dim, u in zip(self.dims, cs):
                u = np.asarray(u, dtype=complex)
                if np.max(np.abs(u.conj().T @ u - np.eye(dim))) > RESIDUAL_TOL:
                    raise ValueError("corrections must be unitary")
                row.append(u)
            corr.append(tuple(row))
        object.__setattr__(self, "kraus_ops", kraus)
        object.__setattr__(self, "corrections", tuple(corr))

    @property
    def num_outcomes(self) -> int:
        return len(self.kraus_ops)


@dataclass(frozen=True)
class ProtocolBranch:
    outcome: int
    probability: float
    vector: np.ndarray


def execute_protocol(protocol: LoccProtocol, vec: np.ndarray) -> list[ProtocolBranch]:
    """Run every branch on a normalized flat input vector."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    dims = protocol.dims
    if vec.size != int(np.prod(dims)):
        raise ValueError("input vector does not match protocol dimensions")
    branches = []
    for k, kraus in enumerate(protocol.kraus_ops):
        out = contract(vec.reshape(dims), [kraus], [protocol.acting_party - 1])
        prob = float(np.vdot(out, out).real)
        if prob > 0.0:
            out = out / math.sqrt(prob)
        out = contract(out, protocol.corrections[k], range(len(dims)))
        branches.append(ProtocolBranch(k, prob, out.reshape(-1)))
    return branches


# -- the weight equation -------------------------------------------------------

@dataclass(frozen=True)
class SepInstance:
    """A candidate solution of the weight equation."""

    G: ProductOperator
    H: ProductOperator
    r: float
    symmetries: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size != len(self.symmetries):
            raise ValueError("one weight per symmetry required")
        if w.min() < -ROUNDING_ATOL:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > ROUNDING_ATOL:
            raise ValueError("weights must sum to 1")
        if not self.r > 0:
            raise ValueError("r must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "symmetries", tuple(self.symmetries))


def _stacked(ops, n: int) -> np.ndarray:
    """The factors of n-party product operators as one (K, n, 2, 2) array."""
    if any(op.num_parties != n for op in ops):
        raise ValueError("product operators differ in party count")
    return np.array([op.stack for op in ops]).reshape(-1, n, 2, 2)


def _conjugated(H: ProductOperator, symmetries) -> np.ndarray:
    """The factors of S^dag H S, one product per symmetry S, as a (K, n, 2, 2) stack."""
    s = _stacked(symmetries, H.num_parties)
    return np.einsum("kpji,pjl,kplm->kpim", s.conj(), H.stack, s)


def verify_sep(instance: SepInstance, tol: float = RESIDUAL_TOL) -> tuple[bool, float]:
    """Check the weight equation as full tensor operators; returns (ok, residual)."""
    if instance.G.num_parties != instance.H.num_parties:
        raise ValueError("G and H dimension mismatch")
    terms = kron_stack(_conjugated(instance.H, instance.symmetries))
    acc = np.tensordot(instance.weights, terms, axes=1)
    residual = float(np.max(np.abs(acc - instance.r * instance.G.full_matrix())))
    return residual < tol, residual


def solve_sep_weights(
    G: ProductOperator,
    H: ProductOperator,
    symmetries,
    tol: float = RESIDUAL_TOL,
) -> tuple[np.ndarray, float] | None:
    """Solve for (p, r) with p >= 0, sum p = 1 by nonnegative least squares.

    r is eliminated through the trace of the equation and recovered from the
    solution. Returns None when the best nonnegative solution leaves a residual
    above ``tol``.
    """
    symmetries = tuple(symmetries)
    if not symmetries:
        raise ValueError("empty symmetry list")
    gf = G.full_matrix()
    tau = float(np.trace(gf).real)
    if tau <= 0:
        raise ValueError("G must have positive trace")
    terms = kron_stack(_conjugated(H, symmetries))
    traces = np.trace(terms, axis1=1, axis2=2).real
    c = (terms - (traces / tau)[:, None, None] * gf).reshape(len(symmetries), -1).T
    a_real = np.vstack([c.real, c.imag, 3.0 * np.ones((1, len(symmetries)))])
    b = np.zeros(a_real.shape[0])
    b[-1] = 3.0
    p, _ = nnls(a_real, b)
    total = p.sum()
    if total < ROUNDING_ATOL:
        return None
    p = p / total
    r = float(np.dot(p, traces) / tau)
    if r <= 0:
        return None
    ok, residual = verify_sep(SepInstance(G, H, r, symmetries, p), tol=tol)
    if not ok:
        return None
    return p, r


def build_povm(
    h: ProductOperator,
    g: ProductOperator,
    symmetries,
    weights,
    r: float,
) -> list[ProductOperator]:
    """POVM elements M_k = sqrt(p_k/r) h S_k g^-1 with a completeness check."""
    symmetries = tuple(symmetries)
    weights = np.asarray(weights, dtype=float)
    g_inv = g.inverse()
    big_g = positive_part(g)
    big_h = positive_part(h)
    ok, residual = verify_sep(SepInstance(big_g, big_h, r, symmetries, weights))
    if not ok:
        raise NumericalError("weights do not satisfy the conversion equation "
                             f"(residual {residual:.3e})")
    factors = h.stack @ _stacked(symmetries, h.num_parties) @ g_inv.stack
    factors[:, 0] *= np.array([math.sqrt(p / r) for p in weights])[:, None, None]
    povm = [ProductOperator(f) for f in factors]
    completeness = completeness_residual(povm)
    if completeness > RESIDUAL_TOL:
        raise NumericalError(f"POVM completeness residual {completeness:.3e} exceeds tolerance")
    return povm


def completeness_residual(povm) -> float:
    """Largest entry of |sum_k M_k^dag M_k - 1| over the POVM elements."""
    m = _stacked(povm, povm[0].num_parties)
    acc = kron_stack(m.conj().swapaxes(-1, -2) @ m).sum(axis=0)
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


def norm_ratio(G: ProductOperator, H: ProductOperator, symmetries, weights) -> float:
    """r for given weights, from the trace of the weight equation."""
    traces = np.trace(_conjugated(H, symmetries), axis1=-2, axis2=-1).prod(axis=-1).real
    return float(np.dot(weights, traces) / np.trace(G.stack, axis1=1, axis2=2).prod().real)


def positive_part(op: ProductOperator) -> ProductOperator:
    """Factor-wise op^dag op."""
    return ProductOperator(op.stack.conj().swapaxes(-1, -2) @ op.stack)


@dataclass(frozen=True)
class BranchReport:
    outcome: int
    probability: float
    fidelity: float | None
    skipped: bool


def verify_conversion(
    povm,
    source: PureState,
    target: PureState,
    tol: float = PHASE_EQUAL_TOL,
) -> tuple[bool, list[BranchReport]]:
    """Check that every POVM branch maps source onto target up to a phase."""
    reports = []
    ok = True
    total = 0.0
    for k, m in enumerate(povm):
        try:
            out, prob = apply_product(m, source)
        except ValueError:
            reports.append(BranchReport(k, 0.0, None, skipped=True))
            continue
        total += prob
        if prob < VANISHING_ATOL:
            reports.append(BranchReport(k, prob, None, skipped=True))
            continue
        f = fidelity(out, target)
        reports.append(BranchReport(k, prob, f, skipped=False))
        if f < 1.0 - tol:
            ok = False
    if abs(total - 1.0) > RESIDUAL_TOL:
        ok = False
    return ok, reports


# -- symmetry providers --------------------------------------------------------

def ghz_symmetries(z1: complex, z2: complex, flip: bool = False) -> ProductOperator:
    """A local symmetry of the three-qubit GHZ state.

    Returns P_z1 x P_z2 x P_z3 with z3 = 1/(z1 z2), composed with sigma_x^x3
    when ``flip`` is set. Every returned operator fixes |GHZ> exactly.
    """
    z1, z2 = complex(z1), complex(z2)
    if abs(z1) < VANISHING_ATOL or abs(z2) < VANISHING_ATOL:
        raise ValueError("z arguments must be nonzero")
    z3 = 1.0 / (z1 * z2)
    factors = []
    for z in (z1, z2, z3):
        m = np.diag([z, 1.0 / z]).astype(complex)
        if flip:
            m = m @ PAULI["x"]
        factors.append(m)
    return ProductOperator(tuple(factors))


# -- synthesized four-qubit protocols -------------------------------------------

@dataclass(frozen=True)
class SynthesizedConversion:
    """A verified one-round protocol reaching h|seed> from an inequivalent state."""

    source: PureState
    target: PureState
    source_operator: ProductOperator
    sep: SepInstance
    povm: tuple
    protocol: LoccProtocol
    special_party: int
    axis: str | None


# one 2x2 factor per Pauli-string symmetry and party, shape (4, 4, 2, 2)
_SYMMETRY_FACTORS = _stacked(PAULI_STRINGS, 4)


def _images_lu_equivalent(big_g: ProductOperator, big_h: ProductOperator) -> bool:
    """Whether g|seed> and h|seed> are LU-equivalent, given G = g^dag g and
    H = h^dag h: iff H is proportional to S^dag G S for one Pauli-string
    symmetry S of the generic seed, which for products holds factor by factor."""

    def unit_trace(op):
        return op.stack / np.trace(op.stack, axis1=1, axis2=2).real[:, None, None]

    conj = np.einsum("spji,pjk,spkl->spil", _SYMMETRY_FACTORS.conj(), unit_trace(big_g),
                     _SYMMETRY_FACTORS)
    close = np.abs(conj - unit_trace(big_h)).max(axis=(2, 3)) <= RESIDUAL_TOL
    return bool(close.all(axis=1).any())


def _axis_projection(h_factor: np.ndarray, w: str) -> np.ndarray:
    """Positive part of the factor projected onto span{1, sigma_w}."""
    big = h_factor.conj().T @ h_factor
    ident = np.trace(big) / 2.0
    coef = np.trace(PAULI[w] @ big) / 2.0
    return ident.real * np.eye(2, dtype=complex) + coef.real * PAULI[w]


def synthesize_reach_protocol_4q(
    h: ProductOperator, params: GabcdParams
) -> SynthesizedConversion:
    """Build and verify the one-round protocol that prepares h|seed>.

    For a target whose non-special factors are axis-w, the source replaces the
    special factor by the axis-w projection of its positive part and the
    equation closes with symmetries {1, sigma_w^x4} at weights 1/2. When the
    non-special factors are all proportional to the identity, the source is the
    seed itself and the full four-element symmetry group is used at weights 1/4.
    """
    cert = mes4_status(h, params)
    witness, classes = cert.reachable_witness, cert.factor_classes
    if witness is None:
        raise ValueError("target operator is not reachable; no protocol exists")
    s_idx = witness.special_party - 1
    others_identity = all(
        classes[i].tag is FactorTag.PROPORTIONAL_IDENTITY for i in range(4) if i != s_idx
    )
    seed = seed_state(params)

    if others_identity:
        symmetries = PAULI_STRINGS
        weights = np.full(4, 0.25)
        g_factors = [np.eye(2, dtype=complex) for _ in range(4)]
    else:
        w = witness.axis
        symmetries = (PAULI_STRINGS[0], PAULI_STRINGS[1 + AXES.index(w)])
        weights = np.array([0.5, 0.5])
        proj = _axis_projection(h.factors[s_idx], w)
        if np.linalg.eigvalsh(proj).min() < ROUNDING_ATOL:
            raise ValueError("axis projection of the special factor is singular")
        g_factors = [psd_sqrt(proj if i == s_idx else f.conj().T @ f)
                     for i, f in enumerate(h.factors)]

    g = ProductOperator(tuple(g_factors))
    # the special factor differs from its axis projection, so the states are
    # LU-inequivalent; double-checked numerically below
    special = classify_factor(g.factors[s_idx])
    if special.is_axis_or_id(witness.axis) == classes[s_idx].is_axis_or_id(witness.axis):
        raise ValueError("special factor is already of axis form; states would be LU-equivalent")

    big_g = positive_part(g)
    big_h = positive_part(h)
    # the construction prescribes the weights; recover r from the trace
    r = norm_ratio(big_g, big_h, symmetries, weights)
    instance = SepInstance(big_g, big_h, r, symmetries, weights)
    ok, residual = verify_sep(instance)
    if not ok:
        raise NumericalError(
            f"constructed instance failed the weight equation (residual {residual:.3e})"
        )
    povm = build_povm(h, g, symmetries, weights, r)

    source, _ = apply_product(g, seed)
    target, _ = apply_product(h, seed)
    ok, reports = verify_conversion(povm, source, target)
    if not ok:
        raise NumericalError("synthesized POVM failed branch verification")
    if _images_lu_equivalent(big_g, big_h):
        raise NumericalError("source and target are LU-equivalent; synthesis is vacuous")

    protocol = _povm_to_protocol(povm, witness.special_party)
    return SynthesizedConversion(
        source=source,
        target=target,
        source_operator=g,
        sep=instance,
        povm=tuple(povm),
        protocol=protocol,
        special_party=witness.special_party,
        axis=None if others_identity else witness.axis,
    )


def _povm_to_protocol(povm, acting_party: int) -> LoccProtocol:
    """Split product POVM elements into a measurement plus unitary corrections."""
    m = _stacked(povm, povm[0].num_parties)
    a = acting_party - 1
    # every other factor f must have f^dag f = lam * 1, lam > 0
    pos = m.conj().swapaxes(-1, -2) @ m
    lam = np.trace(pos, axis1=-2, axis2=-1).real / 2.0
    lam[:, a] = 1.0
    off = np.abs(pos - lam[..., None, None] * np.eye(2)).max(axis=(-2, -1))
    off[:, a] = 0.0
    bad = np.argwhere((lam <= 0) | (off > RESIDUAL_TOL))
    if bad.size:
        raise ValueError(f"factor for party {bad[0, 1] + 1} is not proportional to a unitary; "
                         "the element does not define a one-round protocol")
    roots = np.sqrt(lam)
    corrections = m / roots[..., None, None]
    corrections[:, a] = np.eye(2)
    return LoccProtocol(
        acting_party=acting_party,
        kraus_ops=tuple(roots.prod(axis=1)[:, None, None] * m[:, a]),
        corrections=tuple(tuple(row) for row in corrections),
        dims=(2,) * m.shape[1],
    )
