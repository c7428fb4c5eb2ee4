"""Independent checks of every answer the benchmark asks ``mesq`` for.

Each checker compares an answer against a computation made with :mod:`ref`
(plain numpy) or against a property the method must have. A checker returns
``PASS``, returns ``FAILED`` when the program declined to answer (it raised,
or the local-unitary search reported "not found" on an equivalent pair), and
raises :class:`CheckError` when the answer is wrong. Checks run outside the
timed region.
"""

from __future__ import annotations

import itertools

import numpy as np

import ref
from mesq import core, fourqubit, resource

PASS, FAILED = "pass", "failed"


class CheckError(AssertionError):
    pass


def require(cond, message: str):
    if not cond:
        raise CheckError(message)


def close(a, b, tol: float, what: str):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    require(err <= tol, f"{what}: off by {err:.3e} (tolerance {tol:.0e})")


def same_ray(a, b, tol: float, what: str):
    f = ref.overlap2(ref.normalize(a), ref.normalize(b))
    require(f >= 1.0 - tol, f"{what}: fidelity {f!r} below 1 - {tol:.0e}")


def dense(op) -> np.ndarray:
    return ref.kron(*op.factors)


# -- prep_sweep ------------------------------------------------------------------

def check_verify_rep(op, report, results):
    angles = op.expect["angles"]
    require(report.params == resource.RepTargetParams(*angles), "report for other params")
    paths = {(b.k6, b.k5, b.k4) for b in report.branches}
    require(len(report.branches) == 8 and len(paths) == 8, "not all eight branches reported")
    probs = np.array([b.probability for b in report.branches])
    close(probs, 1 / 8, 1e-12, "branch probability")
    close(report.probability_total, 1.0, 1e-12, "probability total")
    close(probs.sum(), 1.0, 1e-12, "sum of branch probabilities")
    fids = [b.corrected_fidelity for b in report.branches]
    close(report.min_fidelity, min(fids), 1e-12, "min_fidelity against the branch minimum")
    require(report.min_fidelity >= 1 - 1e-10, f"min_fidelity {report.min_fidelity!r}")
    require(report.all_pass is True, "all_pass is not True")
    target = resource.target_state(report.params).amplitudes
    same_ray(target, ref.rep_target(*angles), 1e-12, "target_state")
    return PASS


def _prepared_vectors(spec):
    out = []
    for _, angles, lu in spec:
        v = ref.rep_target(*angles)
        out.append(v if lu is None else ref.apply(lu, v))
    return out


def check_prepare_mixed3(op, result, results):
    spec = op.expect["entries"]
    vecs = _prepared_vectors(spec)
    close(result.density.entries, ref.mixture([w for w, _, _ in spec], vecs), 1e-12,
          "mixed density")
    k = result.entry_index
    require(0 <= k < len(spec), f"entry index {k} out of range")
    same_ray(result.outcome.corrected_state.amplitudes, ref.rep_target(*spec[k][1]), 1e-10,
             "prepared target")
    same_ray(result.final_state.amplitudes, vecs[k], 1e-10, "state after post-LU")
    return PASS


def check_phi_plus(op, protocol, results):
    lam = op.expect["lambdas"]
    d = lam.size
    require(protocol.acting_party == 1 and tuple(protocol.dims) == (d, d), "protocol shape")
    acc = sum(k.conj().T @ k for k in protocol.kraus_ops)
    close(acc, np.eye(d), 1e-12, "Kraus completeness")
    source = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    target = np.diag(np.sqrt(lam)).astype(complex).reshape(-1)
    for k, (ua, ub) in zip(protocol.kraus_ops, protocol.corrections):
        out = np.kron(k, np.eye(d)) @ source
        prob = float(np.vdot(out, out).real)
        if prob > 1e-14:
            same_ray(np.kron(ua, ub) @ out, target, 1e-10, "phi_plus branch")
    return PASS


def check_prepare_mixed(op, density, results):
    close(density.entries, ref.mixture(op.expect["weights"], op.expect["vecs"]), 1e-12,
          "ensemble density")
    return PASS


# -- mes3_census -----------------------------------------------------------------

def _cert(op, answer, slocc: str):
    member, cert = answer
    require(member is op.expect["member"], f"verdict {member}, expected {op.expect['member']}")
    require(cert.member is member, "certificate disagrees with verdict")
    require(cert.slocc.value == slocc, f"class {cert.slocc.value}, expected {slocc}")
    return cert


def _ghz_witness(form, vec):
    recon = ref.apply(form.local_unitaries.factors, ref.ghz_form(form.z, form.gamma_x))
    same_ray(recon, vec, 1e-9, "GHZ standard-form witness")


def check_in_mes3_ghz(op, answer, results):
    form = _cert(op, answer, "GhzClass").ghz_form
    if min(op.expect["gammas"]) > 0:
        close(form.z, op.expect["z"], 1e-8, "recovered z")
    else:
        # a vanishing gamma lets a local phase absorb arg(z); |z| stays invariant
        close(abs(form.z), abs(op.expect["z"]), 1e-8, "recovered |z|")
    close(form.gamma_x, op.expect["gammas"], 1e-8, "recovered gammas")
    _ghz_witness(form, op.expect["vec"])
    return PASS


def check_in_mes3_family(op, answer, results):
    form = _cert(op, answer, "GhzClass").ghz_form
    require(min(abs(form.z - 1), abs(form.z - 1j)) <= 1e-8, f"member with z = {form.z}")
    require(min(form.gamma_x) > 1e-8, f"member with gammas {form.gamma_x}")
    _ghz_witness(form, op.expect["vec"])
    return PASS


def check_in_mes3_w(op, answer, results):
    form = _cert(op, answer, "WClass").w_form
    close((form.x0, form.x1, form.x2, form.x3), op.expect["xs"], 1e-8, "recovered x")
    recon = ref.apply(form.local_unitaries.factors, ref.w_form(form.x0, form.x1, form.x2, form.x3))
    same_ray(recon, op.expect["vec"], 1e-9, "W standard-form witness")
    return PASS


RANKS = {"GhzClass": (2, 2, 2), "WClass": (2, 2, 2), "FullyProduct": (1, 1, 1)}


def check_classify(op, result, results):
    tag, separated = op.expect["tag"], op.expect["separated"]
    require(result.tag.value == tag, f"class {result.tag.value}, expected {tag}")
    require(result.separated_party == separated,
            f"separated party {result.separated_party}, expected {separated}")
    ranks = RANKS.get(tag) or tuple(1 if p == separated else 2 for p in (1, 2, 3))
    require(tuple(result.reduced_ranks) == ranks, f"local ranks {result.reduced_ranks}")
    close(result.hyperdet, ref.hyperdeterminant(op.expect["vec"]), 1e-12, "hyperdeterminant")
    return PASS


# -- mes4_convert ----------------------------------------------------------------

def check_mes4_status(op, cert, results):
    want = op.expect["status"]
    require(cert.status.value == want, f"status {cert.status.value}, expected {want}")
    if op.expect.get("permutations"):
        factors, params = op.expect["factors"], op.expect["params"]
        for perm in itertools.permutations(range(4)):
            g = core.ProductOperator(tuple(factors[p] for p in perm))
            got = fourqubit.mes4_status(g, params).status.value
            require(got == want, f"status {got} under party permutation {perm}")
    return PASS


def _weight_residual(weights, r, syms, big_g, big_h) -> float:
    acc = sum(p * ref.kron(*s).conj().T @ big_h @ ref.kron(*s) for p, s in zip(weights, syms))
    return float(np.max(np.abs(acc - r * big_g)))


def check_solve(op, answer, results):
    require(answer is not None, "feasible instance reported infeasible")
    p, r = answer
    e = op.expect
    require(np.min(p) >= 0.0, f"negative weight {np.min(p)!r}")
    close(np.sum(p), 1.0, 1e-12, "weight sum")
    require(r > 0, f"r = {r!r}")
    big_g = ref.kron(*[f.conj().T @ f for f in e["g"]])
    big_h = ref.kron(*[f.conj().T @ f for f in e["h"]])
    residual = _weight_residual(p, r, e["syms"], big_g, big_h)
    require(residual < 1e-9, f"weight-equation residual {residual:.3e}")
    close(p, 0.25 if e["twirl"] else 0.5, 1e-9, "weights forced by the symmetries")
    return PASS


def _branches(povm, source, target, tol):
    acc = sum(dense(m).conj().T @ dense(m) for m in povm)
    close(acc, np.eye(16), 1e-9, "POVM completeness")
    probs = []
    for m in povm:
        out = dense(m) @ source
        prob = float(np.vdot(out, out).real)
        probs.append(prob)
        if prob > 1e-14:
            same_ray(out, target, tol, "POVM branch")
    return probs


def check_povm(op, povm, results):
    require(len(povm) == len(op.expect["syms"]), "one POVM element per symmetry")
    _branches(povm, op.expect["source"], op.expect["target"], 1e-9)
    return PASS


def check_conversion(op, answer, results):
    ok, reports = answer
    require(ok is True, "conversion reported as failing")
    povm = results[-1]
    probs = _branches(povm, op.expect["source"], op.expect["target"], 1e-9)
    require(len(reports) == len(povm), "one report per POVM element")
    for rep, prob in zip(reports, probs):
        close(rep.probability, prob, 1e-12, "branch probability")
        if not rep.skipped:
            require(rep.fidelity >= 1 - 1e-9, f"branch fidelity {rep.fidelity!r}")
    return PASS


def check_infeasible(op, answer, results):
    require(answer is None, "infeasible instance returned weights")
    # Every twirl symmetry fixes P = sigma_a x sigma_a on two parties, so
    # tr(P R) = tr(P H) for the residual R = sum_k p_k S_k^dag H S_k - r * 1,
    # whatever the weights; P has 16 entries of modulus 1, so the largest
    # entry of R is at least |tr(P H)| / 16.
    big_h = ref.kron(*op.expect["big_h"])
    bound = 0.0
    for pair in itertools.combinations(range(4), 2):
        for s in ref.PAULI.values():
            probe = ref.kron(*[s if k in pair else ref.I2 for k in range(4)])
            bound = max(bound, abs(np.trace(probe @ big_h)) / 16)
    require(bound > 1e-8, f"instance is not certifiably infeasible (bound {bound:.2e})")
    return PASS


def check_synth(op, synth, results):
    e = op.expect
    require(synth.special_party == e["special"], f"special party {synth.special_party}")
    target = ref.normalize(ref.apply(e["h"], e["seed"]))
    same_ray(synth.target.amplitudes, target, 1e-9, "synthesized target")
    source = ref.normalize(ref.apply(synth.source_operator.factors, e["seed"]))
    same_ray(synth.source.amplitudes, source, 1e-9, "synthesized source")
    _branches(synth.povm, source, target, 1e-9)
    prot = synth.protocol
    acc = sum(k.conj().T @ k for k in prot.kraus_ops)
    close(acc, np.eye(2), 1e-10, "protocol Kraus completeness")
    for k, row in zip(prot.kraus_ops, prot.corrections):
        local = [ref.I2] * 4
        local[prot.acting_party - 1] = k
        out = ref.apply(row, ref.apply(local, source))
        if np.vdot(out, out).real > 1e-14:
            same_ray(out, target, 1e-9, "protocol branch")
    return PASS


# -- lu_pairs --------------------------------------------------------------------

def check_lu(op, witness, results):
    a, b = op.expect["a"], op.expect["b"]
    if not op.expect["equivalent"]:
        require(witness is None, "witness returned for a pair with different local spectra")
        return PASS
    if witness is None:
        return FAILED
    for u in witness.factors:
        close(u.conj().T @ u, np.eye(2), 1e-9, "witness unitarity")
    same_ray(ref.apply(witness.factors, a), b, 1e-9, "LU witness")
    return PASS


CHECKERS = {
    "verify_rep": check_verify_rep,
    "prepare_mixed3": check_prepare_mixed3,
    "phi_plus_to_target": check_phi_plus,
    "prepare_mixed": check_prepare_mixed,
    "in_mes3_ghz": check_in_mes3_ghz,
    "in_mes3_w": check_in_mes3_w,
    "in_mes3_family": check_in_mes3_family,
    "classify_slocc3": check_classify,
    "mes4_status": check_mes4_status,
    "solve_sep_weights": check_solve,
    "build_povm": check_povm,
    "verify_conversion": check_conversion,
    "solve_sep_infeasible": check_infeasible,
    "synthesize_reach_protocol_4q": check_synth,
    "lu_w": check_lu,
    "lu_mismatch": check_lu,
    "lu_fixed_random": check_lu,
    "lu_fixed_ghz": check_lu,
    "lu_fixed_w": check_lu,
    "lu_fixed_four": check_lu,
}


def check(op, answer, results) -> str:
    """PASS, FAILED, or raise CheckError; ``results`` are the round's earlier answers."""
    return CHECKERS[op.kind](op, answer, results)
