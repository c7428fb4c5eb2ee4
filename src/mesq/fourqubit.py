"""Generic four-qubit SLOCC family: seed states, genericity conditions, the
Pauli-string symmetry group, and the reachability/convertibility predicates
that decide membership and isolation in the four-qubit maximally entangled set.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (AXIS_TOL, EXACT_FIDELITY_TOL, GENERICITY_TOL, ROUNDING_ATOL, VANISHING_ATOL,
                   NumericalError, ProductOperator, PureState, apply_product, fidelity)

AXES = ("x", "y", "z")
# 1, xxxx, yyyy, zzzz: for generic parameters, exactly the local symmetries of the seed
PAULI_STRINGS = (ProductOperator.identity(4),
                 *(ProductOperator.pauli_string(w * 4) for w in AXES))
# the 24 permutations of four indices, one per row
_PERMUTATIONS = np.array([p for p in np.ndindex(4, 4, 4, 4) if len(set(p)) == 4])


@dataclass(frozen=True)
class GabcdParams:
    """Four complex parameters selecting a generic four-qubit SLOCC class."""

    a: complex
    b: complex
    c: complex
    d: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.a), complex(self.b), complex(self.c), complex(self.d))


def seed_state(params: GabcdParams) -> PureState:
    """Normalized four-qubit representative state for the given parameters."""
    a, b, c, d = params.as_tuple()
    if max(abs(a), abs(b), abs(c), abs(d)) < VANISHING_ATOL:
        raise ValueError("all four parameters are zero")
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = amps[0b1111] = (a + d) / 2
    amps[0b0011] = amps[0b1100] = (a - d) / 2
    amps[0b0101] = amps[0b1010] = (b + c) / 2
    amps[0b0110] = amps[0b1001] = (b - c) / 2
    return PureState.normalized(amps)


def is_generic(params: GabcdParams) -> tuple[bool, list[str]]:
    """Evaluate the genericity clauses; returns (verdict, violated conditions)."""
    a, b, c, d = params.as_tuple()
    sq = {"a": a * a, "b": b * b, "c": c * c, "d": d * d}
    violations = []
    for u, v in (("b", "c"), ("c", "d"), ("d", "b")):
        if abs(sq[u] - sq[v]) <= GENERICITY_TOL:
            violations.append(f"{u}^2 = {v}^2")
    for v in ("b", "c", "d"):
        if abs(sq["a"] - sq[v]) <= GENERICITY_TOL:
            violations.append(f"a^2 = {v}^2")
    # scaling clause: no q != 1 maps the squared multiset onto itself
    values = list(sq.values())
    candidates = set()
    for x in values:
        for y in values:
            if abs(y) > GENERICITY_TOL:
                q = x / y
                if abs(q - 1.0) > GENERICITY_TOL:
                    candidates.add(complex(round(q.real, 12), round(q.imag, 12)))
    # q maps the multiset onto itself when q * values is a permutation of values;
    # all candidates are tested at once and the first, in set order, is reported
    qs = list(candidates)
    vals = np.array(values)
    scaled = np.array(qs).reshape(-1, 1, 1) * vals
    close = (np.abs(scaled - vals[_PERMUTATIONS]) <= GENERICITY_TOL).all(axis=2).any(axis=1)
    if close.any():
        violations.append(f"multiset invariant under scaling q={qs[int(np.argmax(close))]}")
    return (not violations, violations)


def symmetry_group(params: GabcdParams) -> list[ProductOperator]:
    """The four Pauli-string symmetries fixing the seed state of generic parameters."""
    ok, violations = is_generic(params)
    if not ok:
        raise ValueError(f"parameters are not generic ({'; '.join(violations)}); "
                         "the symmetry group would be larger")
    seed = seed_state(params)
    for s in PAULI_STRINGS:
        out, _ = apply_product(s, seed)
        if fidelity(out, seed) < 1.0 - EXACT_FIDELITY_TOL:
            raise NumericalError("symmetry candidate failed to fix the seed state")
    return list(PAULI_STRINGS)


class FactorTag(enum.Enum):
    PROPORTIONAL_IDENTITY = "proportional_identity"
    AXIS = "axis"
    GENERIC = "generic"


@dataclass(frozen=True)
class FactorClass:
    """Classification of a local operator by its trace-normalized positive part."""

    tag: FactorTag
    axis: str | None = None
    gamma: float | None = None
    components: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def is_axis_or_id(self, w: str) -> bool:
        """True when the positive part has the form 1/2 + gamma*sigma_w, gamma = 0 allowed."""
        return self.tag is FactorTag.PROPORTIONAL_IDENTITY or (
            self.tag is FactorTag.AXIS and self.axis == w
        )


def classify_factor(op: np.ndarray) -> FactorClass:
    """Classify op via P = op^dag op normalized to trace 1, P = 1/2 + v . sigma."""
    (a, b), (c, d) = np.asarray(op, dtype=complex).tolist()
    if abs(a * d - b * c) < ROUNDING_ATOL:
        raise ValueError("singular local operator")
    # op^dag op = [[n0, m], [m*, n1]] = (n0 + n1)/2 + Re m sx - Im m sy + (n0 - n1)/2 sz
    n0, n1 = abs(a) ** 2 + abs(c) ** 2, abs(b) ** 2 + abs(d) ** 2
    m = a.conjugate() * b + c.conjugate() * d
    v = np.array([m.real, -m.imag, (n0 - n1) / 2.0]) / (n0 + n1)
    mags = np.abs(v)
    if np.any((mags > AXIS_TOL / 10) & (mags < AXIS_TOL * 10)):
        warnings.warn(
            "factor has Pauli components near the axis-detection threshold; "
            "classifying as computed but the tag is numerically borderline",
            stacklevel=2,
        )
    above = mags > AXIS_TOL
    if not above.any():
        return FactorClass(FactorTag.PROPORTIONAL_IDENTITY, components=tuple(v))
    if above.sum() == 1:
        k = int(np.argmax(mags))
        return FactorClass(FactorTag.AXIS, axis=AXES[k], gamma=float(v[k]), components=tuple(v))
    return FactorClass(FactorTag.GENERIC, components=tuple(v))


@dataclass(frozen=True)
class PredicateWitness:
    special_party: int
    axis: str


def _factor_classes(op: ProductOperator, params: GabcdParams) -> tuple[FactorClass, ...]:
    """Check genericity once, then classify each of the four factors once."""
    ok, violations = is_generic(params)
    if not ok:
        raise ValueError(f"parameters are not generic: {'; '.join(violations)}")
    if op.num_parties != 4:
        raise ValueError("expected a four-party operator")
    return tuple(classify_factor(f) for f in op.factors)


def _witness(classes, special_differs: bool) -> tuple[bool, PredicateWitness | None]:
    """The first party s and axis w such that every other factor is axis-w or
    proportional to the identity, and, if ``special_differs``, the one at s is not."""
    for s in range(4):
        for w in AXES:
            others = all(classes[i].is_axis_or_id(w) for i in range(4) if i != s)
            if others and not (special_differs and classes[s].is_axis_or_id(w)):
                return True, PredicateWitness(special_party=s + 1, axis=w)
    return False, None


def is_reachable(
    h: ProductOperator, params: GabcdParams
) -> tuple[bool, PredicateWitness | None]:
    """Can h|seed> be reached deterministically from an LU-inequivalent state?

    True iff, for some party s and axis w, every other factor's positive part is
    of the form 1/2 + gamma*sigma_w (gamma = 0 allowed) while party s's is not.
    """
    return _witness(_factor_classes(h, params), special_differs=True)


def is_convertible(
    g: ProductOperator, params: GabcdParams
) -> tuple[bool, PredicateWitness | None]:
    """Can g|seed> be converted deterministically to an LU-inequivalent state?

    True iff, for some party s and axis w, every other factor is axis-w or
    proportional to the identity; the factor at s is arbitrary.
    """
    return _witness(_factor_classes(g, params), special_differs=False)


class Mes4Status(enum.Enum):
    REACHABLE_NOT_IN_MES = "reachable_not_in_mes"
    ISOLATED_IN_MES = "isolated_in_mes"
    NON_ISOLATED_IN_MES = "non_isolated_in_mes"


@dataclass(frozen=True)
class Mes4Certificate:
    status: Mes4Status
    reachable_witness: PredicateWitness | None
    convertible_witness: PredicateWitness | None
    factor_classes: tuple[FactorClass, ...]


def mes4_status(g: ProductOperator, params: GabcdParams) -> Mes4Certificate:
    """MES membership/isolation verdict for the state g|seed>."""
    classes = _factor_classes(g, params)
    reach, rw = _witness(classes, special_differs=True)
    conv, cw = _witness(classes, special_differs=False)
    if reach:
        status = Mes4Status.REACHABLE_NOT_IN_MES
    elif conv:
        status = Mes4Status.NON_ISOLATED_IN_MES
    else:
        status = Mes4Status.ISOLATED_IN_MES
    return Mes4Certificate(status, rw, cw, classes)
