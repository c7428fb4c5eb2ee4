"""Shows that every checker of the benchmark rejects a corrupted answer.

Run from the root of a checkout::

    python3 bench/selfcheck.py

One round of each workload is answered by ``mesq``; each genuine answer must
pass its check, and each deliberately corrupted copy (a flipped verdict, a
witness composed with a non-trivial local unitary, a density off by 1e-9, ...)
must be rejected. Exits 1 and names the corruption if one slips through.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import ref  # noqa: E402
import workloads  # noqa: E402
from mesq import core, fourqubit, tripartite  # noqa: E402

TWIST = ref.pauli_exp(0.05, ref.SZ) @ ref.pauli_exp(0.03, ref.SX)


def twisted(op: core.ProductOperator) -> core.ProductOperator:
    """The witness composed with a non-trivial local unitary on party 1."""
    return core.ProductOperator((TWIST @ op.factors[0],) + tuple(op.factors[1:]))


def off_by_1e9(density):
    """Mix in the maximally mixed state until some entry moves by exactly 1e-9."""
    step = np.eye(density.dim) / density.dim - density.entries
    return replace(density, entries=density.entries + 1e-9 / np.max(np.abs(step)) * step)


def scaled(op: core.ProductOperator, s: float) -> core.ProductOperator:
    return core.ProductOperator((s * op.factors[0],) + tuple(op.factors[1:]))


def other_class(tag):
    order = list(tripartite.Slocc3Tag)
    return order[(order.index(tag) + 1) % len(order)]


def other_status(status):
    order = list(fourqubit.Mes4Status)
    return order[(order.index(status) + 1) % len(order)]


def flip_verdict(answer):
    member, cert = answer
    return not member, replace(cert, member=not member)


def ghz_form(answer, **changes):
    member, cert = answer
    return member, replace(cert, ghz_form=replace(cert.ghz_form, **changes))


def w_form(answer, **changes):
    member, cert = answer
    return member, replace(cert, w_form=replace(cert.w_form, **changes))


def branch_prob(report, delta):
    first = replace(report.branches[0], probability=report.branches[0].probability + delta)
    return replace(report, branches=(first,) + report.branches[1:])


CORRUPTIONS = {
    "verify_rep": {
        "branch probability off by 1e-9": lambda a: branch_prob(a, 1e-9),
        "min_fidelity below the gate": lambda a: replace(a, min_fidelity=1 - 1e-9),
        "all_pass flipped": lambda a: replace(a, all_pass=False),
    },
    "prepare_mixed3": {
        "density off by 1e-9": lambda a: replace(a, density=off_by_1e9(a.density)),
        "final state under a local unitary": lambda a: replace(
            a, final_state=core.apply_product(
                twisted(core.ProductOperator.identity(3)), a.final_state)[0]),
    },
    "phi_plus_to_target": {
        "corrections swapped between outcomes": lambda a: replace(
            a, corrections=a.corrections[1:] + a.corrections[:1]),
    },
    "prepare_mixed": {"density off by 1e-9": off_by_1e9},
    "in_mes3_ghz": {
        "flipped verdict": flip_verdict,
        "witness under a local unitary": lambda a: ghz_form(
            a, local_unitaries=twisted(a[1].ghz_form.local_unitaries)),
        "gamma off by 1e-7": lambda a: ghz_form(
            a, gamma_x=(a[1].ghz_form.gamma_x[0] + 1e-7,) + a[1].ghz_form.gamma_x[1:]),
    },
    "in_mes3_w": {
        "flipped verdict": flip_verdict,
        "witness under a local unitary": lambda a: w_form(
            a, local_unitaries=twisted(a[1].w_form.local_unitaries)),
        "x1 off by 1e-7": lambda a: w_form(a, x1=a[1].w_form.x1 + 1e-7),
    },
    "in_mes3_family": {
        "flipped verdict": flip_verdict,
        "witness under a local unitary": lambda a: ghz_form(
            a, local_unitaries=twisted(a[1].ghz_form.local_unitaries)),
    },
    "classify_slocc3": {
        "other class": lambda a: replace(a, tag=other_class(a.tag)),
        "hyperdeterminant off by 1e-9": lambda a: replace(a, hyperdet=a.hyperdet + 1e-9),
    },
    "mes4_status": {"other status": lambda a: replace(a, status=other_status(a.status))},
    "solve_sep_weights": {
        "weights moved by 1e-6": lambda a: (a[0] + 1e-6 * np.array([1] + [-1] + [0] * (len(a[0]) - 2)),
                                            a[1]),
        "infeasible reported": lambda a: None,
    },
    "build_povm": {"element scaled by 1 + 1e-6": lambda a: [scaled(a[0], 1 + 1e-6)] + a[1:]},
    "verify_conversion": {
        "branch probability off by 1e-9": lambda a: (
            a[0], [replace(a[1][0], probability=a[1][0].probability + 1e-9)] + a[1][1:]),
        "conversion reported failing": lambda a: (False, a[1]),
    },
    "solve_sep_infeasible": {
        "weights for an infeasible instance": lambda a: (np.full(4, 0.25), 1.0),
    },
    "synthesize_reach_protocol_4q": {
        "POVM element scaled by 1 + 1e-6": lambda a: replace(
            a, povm=(scaled(a.povm[0], 1 + 1e-6),) + a.povm[1:]),
        "target under a local unitary": lambda a: replace(
            a, target=core.apply_product(twisted(core.ProductOperator.identity(4)), a.target)[0]),
    },
    "lu_w": {"witness under a local unitary": twisted},
    "lu_fixed_ghz": {"witness under a local unitary": twisted},
    "lu_fixed_four": {"witness under a local unitary": twisted},
    "lu_mismatch": {"witness for different spectra": lambda a: core.ProductOperator.identity(3)},
}


def main() -> int:
    slipped, tried, seen = [], 0, set()
    for workload in workloads.ROUNDS:
        ops = workloads.make_round(workload, 0, 1)
        results = []
        for i, op in enumerate(ops):
            answer = op.target()(*op.call_args(results), **op.kwargs)
            results.append(answer)
            if op.kind in seen or op.kind not in CORRUPTIONS:
                continue
            seen.add(op.kind)
            if checks.check(op, answer, results[:i]) != checks.PASS:
                slipped.append(f"{op.kind}: genuine answer did not pass")
            for label, corrupt in CORRUPTIONS[op.kind].items():
                tried += 1
                try:
                    verdict = checks.check(op, corrupt(answer), results[:i])
                except checks.CheckError:
                    continue
                slipped.append(f"{op.kind}: '{label}' was accepted ({verdict})")
    missing = set(CORRUPTIONS) - seen
    for kind in sorted(missing):
        slipped.append(f"{kind}: no question of this kind in the rounds tried")
    for line in slipped:
        print("NOT REJECTED:", line)
    print(f"{tried - len([s for s in slipped if 'accepted' in s])} of {tried} corruptions "
          f"rejected across {len(seen)} question kinds")
    return 1 if slipped else 0


if __name__ == "__main__":
    sys.exit(main())
