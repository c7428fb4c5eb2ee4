"""The benchmark's four workloads as rounds of operations.

An operation is one question answered by one call into ``mesq``'s public
API. Every run attempts whole rounds, and every round of a workload holds the
same kinds of question in the same order, so the share of each kind (and of
failed operations) is exact whatever the seed or the run length. Round ``r``
of seed ``s`` draws its inputs from ``default_rng([s, r])`` with the plain
numpy constructions of :mod:`ref`; ``mesq`` only wraps them into its value
types. Every parameter stays far from the program's decision thresholds.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

import ref
from mesq import bipartite, core, fourqubit, resource, sep, tripartite

MODULES = {
    "core": core,
    "tripartite": tripartite,
    "fourqubit": fourqubit,
    "sep": sep,
    "resource": resource,
    "bipartite": bipartite,
}


@dataclass(frozen=True)
class Previous:
    """Argument taken from the answer of the round's previous operation."""

    item: int | None = None

    def resolve(self, results):
        return results[-1] if self.item is None else results[-1][self.item]


@dataclass
class Op:
    kind: str
    func: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    def target(self):
        """The library function, looked up at call time so tracing sees it."""
        module, name = self.func.split(".")
        return getattr(MODULES[module], name)

    def call_args(self, results) -> tuple:
        return tuple(a.resolve(results) if isinstance(a, Previous) else a for a in self.args)


def _state(vec) -> core.PureState:
    vec = np.asarray(vec, dtype=complex)
    return core.PureState(int(round(math.log2(vec.size))), ref.normalize(vec))


def _op(factors) -> core.ProductOperator:
    return core.ProductOperator(tuple(np.asarray(f, dtype=complex) for f in factors))


def _seeded_gen(rng):
    """A generator for ``mesq`` to use, drawn from the round's generator."""
    return np.random.default_rng(rng.integers(2**63))


# -- prep_sweep ------------------------------------------------------------------

def _angles(rng):
    return tuple(float(a) for a in rng.uniform(-math.pi, math.pi, 3))


def _verify_op(rng) -> Op:
    angles = _angles(rng)
    return Op("verify_rep", "resource.verify_rep_determinism",
              (resource.RepTargetParams(*angles),), expect={"angles": angles})


def _mixed3_op(rng) -> Op:
    weights = rng.dirichlet(np.ones(3))
    entries, spec = [], []
    for j, w in enumerate(weights):
        angles = _angles(rng)
        lu = None if j == 0 else tuple(ref.haar_unitary(rng) for _ in range(3))
        entries.append((float(w), resource.RepTargetParams(*angles),
                        None if lu is None else _op(lu)))
        spec.append((float(w), angles, lu))
    return Op("prepare_mixed3", "resource.prepare_mixed3", (entries, _seeded_gen(rng)),
              expect={"entries": spec})


def _phi_plus_op(rng) -> Op:
    lam = rng.dirichlet(np.ones(4))
    return Op("phi_plus_to_target", "bipartite.phi_plus_to_target", (lam,),
              expect={"lambdas": lam})


def _bipartite_mixed_op(rng) -> Op:
    weights = rng.dirichlet(np.ones(3))
    vecs = [ref.random_vector(rng, 2) for _ in range(3)]
    states = [_state(v) for v in vecs]
    ensemble = bipartite.Ensemble(tuple((float(w), s) for w, s in zip(weights, states)))
    protocols = [bipartite.phi_plus_to_target(bipartite.schmidt_decompose(s, [1]))
                 for s in states]
    return Op("prepare_mixed", "bipartite.prepare_mixed", (ensemble, protocols),
              expect={"weights": [w for w, _ in ensemble.entries], "vecs": vecs})


def prep_sweep_round(rng, r: int) -> list[Op]:
    # 17 of 20 questions are verifications, so the median operation lies well
    # inside them rather than at the edge of the three faster kinds.
    ops = [_verify_op(rng) for _ in range(6)] + [_mixed3_op(rng)]
    ops += [_verify_op(rng) for _ in range(6)] + [_phi_plus_op(rng)]
    ops += [_verify_op(rng) for _ in range(5)] + [_bipartite_mixed_op(rng)]
    return ops


# -- mes3_census -----------------------------------------------------------------

def _gammas(rng, zeros=()):
    g = [float(x) for x in rng.uniform(0.05, 0.4, 3)]
    for k in zeros:
        g[k] = 0.0
    return tuple(g)


def _lu_image(rng, vec):
    n = int(round(math.log2(len(vec))))
    us = [ref.haar_unitary(rng) for _ in range(n)]
    return ref.apply(us, vec)


def _ghz_op(rng, z, gammas, member) -> Op:
    vec = _lu_image(rng, ref.ghz_form(z, gammas))
    return Op("in_mes3_ghz", "tripartite.in_mes3", (_state(vec),),
              expect={"member": member, "z": complex(z), "gammas": gammas, "vec": vec})


def _w_op(rng, x0) -> Op:
    xs = (x0, *rng.uniform(0.3, 1.0, 3))
    norm = math.sqrt(sum(x * x for x in xs))
    vec = _lu_image(rng, ref.w_form(*xs))
    return Op("in_mes3_w", "tripartite.in_mes3", (_state(vec),),
              expect={"member": x0 == 0.0, "xs": tuple(x / norm for x in xs), "vec": vec})


# Members of the three-parameter family are a fixed set, the same for every
# seed: in_mes3 calls about 1 in 7000 seeded draws a non-member (the z = -1
# fault below), which would make the share of wrong answers depend on the seed.
FAMILY_SEED, FAMILY_SIZE = 7, 8


@functools.cache
def family_members():
    rng = np.random.default_rng(FAMILY_SEED)
    members = []
    for _ in range(FAMILY_SIZE):
        a = float(rng.uniform(0.3, 0.9))
        b, bp = (float(s * m) for s, m in zip(rng.choice([-1, 1], 2), rng.uniform(0.3, 1.2, 2)))
        members.append(ref.mes3_family(a, b, bp))
    return members


def _family_op(r: int) -> Op:
    vec = family_members()[r % FAMILY_SIZE]
    return Op("in_mes3_family", "tripartite.in_mes3", (_state(vec),),
              expect={"member": True, "vec": vec})


def _slocc_image(rng, vec):
    return ref.normalize(ref.apply([ref.invertible(rng) for _ in range(3)], vec))


def _classify_op(rng, tag: str) -> Op:
    separated = None
    if tag == "GhzClass":
        vec = ref.GHZ3
    elif tag == "WClass":
        vec = ref.w_form(0, 1, 1, 1)
    elif tag == "Biseparable":
        lam = float(rng.uniform(0.2, 0.8))
        pair = np.array([math.sqrt(lam), 0, 0, math.sqrt(1 - lam)], dtype=complex)
        single = ref.random_vector(rng, 1)
        separated = int(rng.integers(1, 4))
        t = np.einsum("i,jk->ijk", single, pair.reshape(2, 2))
        vec = np.moveaxis(t, 0, separated - 1).reshape(-1)
    else:
        vec = ref.kron_vec(*[ref.random_vector(rng, 1) for _ in range(3)])
    vec = _slocc_image(rng, vec)
    return Op("classify_slocc3", "tripartite.classify_slocc3", (_state(vec),),
              expect={"tag": tag, "separated": separated, "vec": vec})


# Seeded members have z = i: in_mes3 calls about 1 in 2700 members with z = 1
# non-members (rounding can put arg(z) just below 0, and the canonical form
# then reports z = -1), so the share of wrong answers would depend on the seed.
MEMBER_Z = 1j


def mes3_census_round(rng, r: int) -> list[Op]:
    far_z = cmath.rect(rng.uniform(1.3, 2.0), rng.uniform(0.1, 0.9) * math.pi)
    circle_z = cmath.rect(1.0, rng.uniform(0.1, 0.4) * math.pi)
    zero_at = int(rng.integers(3))
    return [
        _ghz_op(rng, MEMBER_Z, _gammas(rng), True),
        _classify_op(rng, "GhzClass"),
        _ghz_op(rng, MEMBER_Z, _gammas(rng), True),
        _w_op(rng, 0.0),
        _ghz_op(rng, MEMBER_Z, _gammas(rng), True),
        _classify_op(rng, "WClass"),
        _ghz_op(rng, 1.0 + 0j, (0.0, 0.0, 0.0), True),
        _ghz_op(rng, far_z, _gammas(rng), False),
        _classify_op(rng, "Biseparable"),
        _w_op(rng, float(rng.uniform(0.3, 1.0))),
        _ghz_op(rng, circle_z, _gammas(rng), False),
        _ghz_op(rng, (1.0, 1j)[zero_at % 2], _gammas(rng, zeros=(zero_at,)), False),
        _classify_op(rng, "FullyProduct"),
        _ghz_op(rng, MEMBER_Z, _gammas(rng), True),
        _ghz_op(rng, complex(rng.uniform(1.3, 2.0)), (0.0, 0.0, 0.0), False),
        _family_op(r),
    ]


# -- mes4_convert ----------------------------------------------------------------

_PERMS = np.array(list(itertools.permutations(range(4))))


def _generic_params(rng):
    """Random (a, b, c, d) far from every genericity condition."""
    while True:
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sq = p * p
        scale = np.max(np.abs(sq))
        gaps = np.abs(sq[:, None] - sq[None, :])[np.triu_indices(4, 1)]
        if gaps.min() < 0.2 * scale or np.min(np.abs(sq)) < 0.2 * scale:
            continue
        # no q != 1 maps the multiset {x^2} onto itself: for every ratio q,
        # q * sq stays at least 0.05 * scale away from every permutation of sq
        q = (sq[:, None] / sq[None, :])[~np.eye(4, dtype=bool)]
        margin = np.abs(q[:, None, None] * sq[None, None, :] - sq[_PERMS][None]).max(axis=2)
        if margin.min() > 0.05 * scale:
            return tuple(complex(x) for x in p)


def _generic_vector(rng):
    return rng.choice([-1.0, 1.0], 3) * rng.uniform(0.05, 0.2, 3)


def _axis_vector(rng, w):
    v = np.zeros(3)
    v["xyz".index(w)] = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.3)
    return v


def _factor(rng, v):
    """A local operator with positive part proportional to 1/2 + v.sigma."""
    return float(rng.uniform(0.5, 2.0)) * ref.haar_unitary(rng) @ ref.bloch_factor(v)


def _status_op(rng, kind: str) -> Op:
    w = "xyz"[int(rng.integers(3))]
    parties = rng.permutation(4)
    vecs = [_axis_vector(rng, w) for _ in range(4)]
    if kind == "non_isolated_in_mes":
        vecs[parties[0]] = np.zeros(3)
    elif kind == "reachable_not_in_mes":
        vecs[parties[0]] = _generic_vector(rng)
    elif kind == "isolated_in_mes":
        for p in parties[: 2 + int(rng.integers(3))]:
            vecs[p] = _generic_vector(rng)
    factors = [_factor(rng, v) for v in vecs]
    params = fourqubit.GabcdParams(*_generic_params(rng))
    return Op("mes4_status", "fourqubit.mes4_status", (_op(factors), params),
              expect={"status": kind, "factors": factors, "params": params})


def _reach_target(rng, twirl: bool):
    """h of a reachable target with its matching source g and symmetries."""
    special = int(rng.integers(4))
    if twirl:
        h = [ref.I2] * 4
        h[special] = _factor(rng, _generic_vector(rng))
        return h, [ref.I2] * 4, ref.twirl_group(), special
    w = "xyz"[int(rng.integers(3))]
    h = [_factor(rng, _axis_vector(rng, w)) for _ in range(4)]
    h[special] = _factor(rng, _generic_vector(rng))
    g = [ref.psd_sqrt(f.conj().T @ f) for f in h]
    g[special] = ref.psd_sqrt(ref.axis_projection(h[special], w))
    return h, g, [(ref.I2,) * 4, (ref.PAULI[w],) * 4], special


def _sep_chain(rng, twirl: bool) -> list[Op]:
    h, g, syms, _ = _reach_target(rng, twirl)
    seed = ref.gabcd_seed(*_generic_params(rng))
    source, target = ref.normalize(ref.apply(g, seed)), ref.normalize(ref.apply(h, seed))
    big_g = _op([f.conj().T @ f for f in g])
    big_h = _op([f.conj().T @ f for f in h])
    sym_ops = [_op(s) for s in syms]
    expect = {"g": g, "h": h, "syms": syms, "twirl": twirl,
              "source": source, "target": target}
    return [
        Op("solve_sep_weights", "sep.solve_sep_weights", (big_g, big_h, sym_ops),
           expect=expect),
        Op("build_povm", "sep.build_povm",
           (_op(h), _op(g), sym_ops, Previous(0), Previous(1)), expect=expect),
        Op("verify_conversion", "sep.verify_conversion",
           (Previous(), _state(source), _state(target)), expect=expect),
    ]


def _infeasible_op(rng) -> Op:
    h = [ref.I2] * 4
    for p in rng.choice(4, 2, replace=False):
        h[p] = _factor(rng, _generic_vector(rng))
    big_h = [f.conj().T @ f for f in h]
    return Op("solve_sep_infeasible", "sep.solve_sep_weights",
              (_op([ref.I2] * 4), _op(big_h), [_op(s) for s in ref.twirl_group()]),
              expect={"big_h": big_h})


def _synth_op(rng, twirl: bool) -> Op:
    h, _, _, special = _reach_target(rng, twirl)
    params = _generic_params(rng)
    return Op("synthesize_reach_protocol_4q", "sep.synthesize_reach_protocol_4q",
              (_op(h), fourqubit.GabcdParams(*params)),
              expect={"h": h, "seed": ref.gabcd_seed(*params), "special": special + 1})


# The first question of every PERMUTATION_SAMPLE-th round is also checked for
# invariance under the 24 party permutations.
PERMUTATION_SAMPLE = 10


def mes4_convert_round(rng, r: int) -> list[Op]:
    ops = [_status_op(rng, "non_isolated_in_mes")]
    ops[0].expect["permutations"] = r % PERMUTATION_SAMPLE == 0
    ops += _sep_chain(rng, twirl=False)
    ops += [_status_op(rng, "reachable_not_in_mes"), _synth_op(rng, twirl=False),
            _status_op(rng, "isolated_in_mes"), _infeasible_op(rng),
            _status_op(rng, "non_isolated_in_mes")]
    ops += _sep_chain(rng, twirl=True)
    ops += [_status_op(rng, "reachable_not_in_mes"), _synth_op(rng, twirl=True),
            _status_op(rng, "isolated_in_mes")]
    return ops


# -- lu_pairs --------------------------------------------------------------------

# The search in core.lu_equivalent misses some pairs that are LU-equivalent by
# construction: seeded draws miss about 2 % of random three-qubit pairs, 3 %
# of GHZ-class pairs, 0.3 % of W-class pairs with x0 > 0 and a third of
# four-qubit generic-family pairs, which would make the failed share depend on
# the seed. Those kinds therefore come from fixed sweeps drawn from seed 7 and
# searched with default_rng(0), the same in every round of every run: the
# search finds random pair 28 and the first pair of the other sweeps, and
# misses random pair 29 every time, which is counted as failed. Seeded pairs
# are W-class with x0 = 0 (no miss in 6000 draws) and pairs whose local
# spectra differ.
FIXED_SWEEP_SEED = 7
FIXED_PAIRS = (("random", 28), ("random", 29), ("ghz", 0), ("w", 0), ("four", 1))


def _fixed_sweep(kind: str, count: int):
    rng = np.random.default_rng(FIXED_SWEEP_SEED)
    pairs = []
    for _ in range(count):
        if kind == "random":
            a = ref.random_vector(rng, 3)
            pairs.append((a, ref.normalize(ref.apply([ref.haar_unitary(rng) for _ in range(3)], a))))
            continue
        if kind == "ghz":
            z = cmath.rect(rng.uniform(1.0, 2.0), rng.uniform(0.0, math.pi))
            vec = ref.ghz_form(z, tuple(rng.uniform(0.05, 0.4, 3)))
        elif kind == "w":
            vec = ref.w_form(*rng.uniform(0.3, 1.0, 4))
        else:
            vec = ref.gabcd_seed(*_generic_params(rng))
        pairs.append(_equivalent_pair(rng, vec))
    return pairs


@functools.cache
def fixed_pairs():
    return [(kind, *_fixed_sweep(kind, k + 1)[k]) for kind, k in FIXED_PAIRS]


def _lu_op(kind, a, b, rng, equivalent: bool) -> Op:
    return Op(kind, "core.lu_equivalent", (_state(a), _state(b)), {"rng": rng},
              expect={"equivalent": equivalent, "a": a, "b": b})


def _equivalent_pair(rng, vec):
    a = _lu_image(rng, vec)
    return a, ref.normalize(_lu_image(rng, a))


def _mismatch_pair(rng):
    """Two random three-qubit states whose local spectra differ by at least 0.02."""
    while True:
        a, b = ref.random_vector(rng, 3), ref.random_vector(rng, 3)
        gap = max(np.max(np.abs(sa - sb))
                  for sa, sb in zip(ref.local_spectra(a, 3), ref.local_spectra(b, 3)))
        if gap >= 0.02:
            return a, b


def lu_pairs_round(rng, r: int) -> list[Op]:
    fixed = fixed_pairs()

    def w():
        xs = (0.0, *rng.uniform(0.3, 1.0, 3))
        return _lu_op("lu_w", *_equivalent_pair(rng, ref.w_form(*xs)), _seeded_gen(rng), True)

    def mismatch():
        return _lu_op("lu_mismatch", *_mismatch_pair(rng), _seeded_gen(rng), False)

    def sweep(k):
        kind, a, b = fixed[k]
        return _lu_op(f"lu_fixed_{kind}", a, b, np.random.default_rng(0), True)

    return [w(), mismatch(), sweep(0), mismatch(), w(), mismatch(), sweep(2), mismatch(),
            sweep(1), w(), mismatch(), sweep(3), mismatch(), sweep(4), w(), mismatch()]


ROUNDS = {
    "prep_sweep": prep_sweep_round,
    "mes3_census": mes3_census_round,
    "mes4_convert": mes4_convert_round,
    "lu_pairs": lu_pairs_round,
}


def make_round(workload: str, seed: int, r: int) -> list[Op]:
    """Round ``r`` of ``workload`` for ``seed``; the same arguments give the same round."""
    return ROUNDS[workload](np.random.default_rng([seed, r]), r)
