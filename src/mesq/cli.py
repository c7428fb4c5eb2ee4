"""Batch command-line front end with JSON reports.

Every subcommand prints one JSON report to stdout and a timing note to stderr,
so reports are byte-identical across runs for fixed inputs and --seed. Exit
codes: 0 for any successful evaluation (including negative verdicts), 3 for a
NumericalError such as an exceeded residual, 2 for any other ValueError or
OSError (bad input, or an unreadable, malformed or unwritable file).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import bipartite as bp
from . import fourqubit as fq
from . import jsonio as io
from . import resource as rep
from . import sep
from . import tripartite as tri
from .core import PHASE_EQUAL_TOL, STANDARD_FORM_TOL, NumericalError, fidelity

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _jsonify(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.complexfloating, complex)):
        return io.complex_to_pair(complex(value))
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def _load(path: str):
    try:
        return io.load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON file {path}: {exc}") from exc


def _params_arg(text: str) -> fq.GabcdParams:
    values = io.parse_complex_list(text)
    if len(values) != 4:
        raise ValueError("--params needs exactly four comma-separated complex values")
    return fq.GabcdParams(*values)


def _maybe_write(args, obj) -> None:
    if getattr(args, "out", None):
        io.dump_json(args.out, obj)


# -- handlers -------------------------------------------------------------------

def cmd_majorize(args, rng, tol):
    verdict = bp.majorizes(io.parse_real_list(args.y), io.parse_real_list(args.x))
    return {"majorizes": verdict}


def cmd_nielsen(args, rng, tol):
    relation = bp.nielsen_decide(io.parse_real_list(args.psi), io.parse_real_list(args.phi))
    return {"relation": relation.value}


def cmd_classify3(args, rng, tol):
    result = tri.classify_slocc3(io.state_from_obj(_load(args.state)))
    return {
        "class": result.tag.value,
        "hyperdet": result.hyperdet,
        "reduced_ranks": list(result.reduced_ranks),
        "separated_party": result.separated_party,
    }


def cmd_stdform3(args, rng, tol):
    state = io.state_from_obj(_load(args.state))
    result = tri.classify_slocc3(state)
    if result.tag is tri.Slocc3Tag.GHZ_CLASS:
        form = tri.extract_ghz_form(state)
        return {
            "class": result.tag.value,
            "z": form.z,
            "gamma_x": list(form.gamma_x),
            "reconstruction_fidelity": form.reconstruction_fidelity,
        }
    if result.tag is tri.Slocc3Tag.W_CLASS:
        form = tri.extract_w_form(state)
        return {
            "class": result.tag.value,
            "x": [form.x0, form.x1, form.x2, form.x3],
            "reconstruction_fidelity": form.reconstruction_fidelity,
        }
    raise ValueError(f"standard forms exist for genuinely tripartite states, got {result.tag.value}")


def cmd_mes3_check(args, rng, tol):
    state = io.state_from_obj(_load(args.state))
    member, cert = tri.in_mes3(state, tol=max(tol, STANDARD_FORM_TOL))
    payload = {"in_mes3": member, "class": cert.slocc.value, "reason": cert.reason}
    if cert.ghz_form is not None:
        payload["z"] = cert.ghz_form.z
        payload["gamma_x"] = list(cert.ghz_form.gamma_x)
    if cert.w_form is not None:
        payload["x"] = [cert.w_form.x0, cert.w_form.x1, cert.w_form.x2, cert.w_form.x3]
    return payload


def cmd_mes3_gen(args, rng, tol):
    state = tri.mes3_state(tri.Mes3Params(args.a, args.beta, args.betaprime))
    obj = io.state_to_obj(state)
    _maybe_write(args, obj)
    return {"state": obj}


def cmd_seed4(args, rng, tol):
    params = _params_arg(args.params)
    state = fq.seed_state(params)
    generic, violations = fq.is_generic(params)
    obj = io.state_to_obj(state)
    _maybe_write(args, obj)
    return {"state": obj, "generic": generic, "violations": violations}


def cmd_mes4_check(args, rng, tol):
    params = _params_arg(args.params)
    op = io.operator_from_obj(_load(args.operator))
    if args.mode == "reachable":
        verdict, witness = fq.is_reachable(op, params)
        payload = {"reachable": verdict}
    elif args.mode == "convertible":
        verdict, witness = fq.is_convertible(op, params)
        payload = {"convertible": verdict}
    else:
        cert = fq.mes4_status(op, params)
        witness = cert.reachable_witness or cert.convertible_witness
        payload = {"status": cert.status.value}
    if witness is not None:
        payload["witness"] = {"special_party": witness.special_party, "axis": witness.axis}
    else:
        payload["witness"] = None
    return payload


def _weights_and_r(args, big_g, big_h, symmetries):
    weights = np.array(io.parse_real_list(args.weights))
    if args.r == "auto":
        return weights, sep.norm_ratio(big_g, big_h, symmetries, weights)
    return weights, float(args.r)


def cmd_sep_verify(args, rng, tol):
    g = io.operator_from_obj(_load(args.g))
    h = io.operator_from_obj(_load(args.h))
    symmetries = io.operators_from_obj(_load(args.symmetries))
    big_g, big_h = sep.positive_part(g), sep.positive_part(h)
    weights, r = _weights_and_r(args, big_g, big_h, symmetries)
    instance = sep.SepInstance(big_g, big_h, r, tuple(symmetries), weights)
    ok, residual = sep.verify_sep(instance, tol=tol)
    return {"satisfied": ok, "residual": residual, "r": r}


def cmd_sep_solve(args, rng, tol):
    g = io.operator_from_obj(_load(args.g))
    h = io.operator_from_obj(_load(args.h))
    symmetries = io.operators_from_obj(_load(args.symmetries))
    solved = sep.solve_sep_weights(sep.positive_part(g), sep.positive_part(h), symmetries, tol=tol)
    if solved is None:
        return {"feasible": False, "weights": None, "r": None}
    p, r = solved
    return {"feasible": True, "weights": list(p), "r": r}


def cmd_povm_build(args, rng, tol):
    g = io.operator_from_obj(_load(args.g))
    h = io.operator_from_obj(_load(args.h))
    symmetries = io.operators_from_obj(_load(args.symmetries))
    weights, r = _weights_and_r(args, sep.positive_part(g), sep.positive_part(h), symmetries)
    povm = sep.build_povm(h, g, symmetries, weights, r)
    obj = io.operators_to_obj(povm)
    _maybe_write(args, obj)
    return {
        "num_elements": len(povm),
        "completeness_residual": sep.completeness_residual(povm),
        "povm": obj,
    }


def cmd_convert_verify(args, rng, tol):
    povm = io.operators_from_obj(_load(args.povm))
    source = io.state_from_obj(_load(args.source))
    target = io.state_from_obj(_load(args.target))
    ok, reports = sep.verify_conversion(povm, source, target, tol=tol)
    return {
        "deterministic": ok,
        "branches": [
            {
                "outcome": r.outcome,
                "probability": r.probability,
                "fidelity": r.fidelity,
                "skipped": r.skipped,
            }
            for r in reports
        ],
    }


def cmd_synth4q(args, rng, tol):
    params = _params_arg(args.params)
    synth = sep.synthesize_reach_protocol_4q(io.operator_from_obj(_load(args.operator)), params)
    branches = sep.execute_protocol(synth.protocol, synth.source.amplitudes)
    fids = [float(abs(np.vdot(b.vector, synth.target.amplitudes)) ** 2) for b in branches]
    _maybe_write(
        args,
        {
            "acting_party": synth.protocol.acting_party,
            "dims": list(synth.protocol.dims),
            "kraus": [io.matrix_to_obj(k) for k in synth.protocol.kraus_ops],
            "corrections": [
                [io.matrix_to_obj(u) for u in row] for row in synth.protocol.corrections
            ],
        },
    )
    return {
        "num_outcomes": synth.protocol.num_outcomes,
        "special_party": synth.special_party,
        "axis": synth.axis,
        "weights": list(synth.sep.weights),
        "r": synth.sep.r,
        "branch_probabilities": [b.probability for b in branches],
        "branch_fidelities": fids,
        "source": io.state_to_obj(synth.source),
        "target": io.state_to_obj(synth.target),
    }


def cmd_rep_build(args, rng, tol):
    state = rep.build_phi3()
    obj = io.state_to_obj(state)
    _maybe_write(args, obj)
    return {"state": obj}


def _rep_params(args) -> rep.RepTargetParams:
    return rep.RepTargetParams(args.alpha4, args.alpha5, args.alpha6)


def cmd_rep_sim(args, rng, tol):
    params = _rep_params(args)
    forced = None
    if args.outcomes is not None:
        text = args.outcomes.strip()
        if len(text) != 3 or any(c not in "01" for c in text):
            raise ValueError("--outcomes must be three bits k6 k5 k4, e.g. 101")
        forced = (int(text[0]), int(text[1]), int(text[2]))
    out = rep.simulate_rep(params, outcomes=forced, rng=rng)
    target = rep.target_state(params)
    return {
        "k6": out.k6,
        "k5": out.k5,
        "k4": out.k4,
        "branch_probability": out.branch_probability,
        "fidelity_to_target": fidelity(out.corrected_state, target),
        "state": io.state_to_obj(out.corrected_state),
    }


def cmd_rep_verify(args, rng, tol):
    report = rep.verify_rep_determinism(_rep_params(args))
    payload = {
        "all_pass": report.all_pass,
        "probability_total": report.probability_total,
        "min_fidelity": report.min_fidelity,
        "branches": [
            {
                "k6": b.k6,
                "k5": b.k5,
                "k4": b.k4,
                "probability": b.probability,
                "fidelity": b.corrected_fidelity,
            }
            for b in report.branches
        ],
    }
    if not report.all_pass:
        raise NumericalError(json.dumps(_jsonify(payload)))
    return payload


def cmd_mixed_prep(args, rng, tol):
    obj = _load(args.ensemble)
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise ValueError("ensemble file must carry 'entries'")
    entries = []
    for e in obj["entries"]:
        try:
            params = rep.RepTargetParams(float(e["alpha4"]), float(e["alpha5"]), float(e["alpha6"]))
            post = io.operator_from_obj(e["post_lu"]) if e.get("post_lu") else None
            entries.append((float(e["weight"]), params, post))
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"malformed ensemble entry: {exc}") from exc
    result = rep.prepare_mixed3(entries, rng)
    return {
        "entry_index": result.entry_index,
        "outcomes": {"k6": result.outcome.k6, "k5": result.outcome.k5, "k4": result.outcome.k4},
        "branch_probability": result.outcome.branch_probability,
        "state": io.state_to_obj(result.final_state),
        "density_eigenvalues": list(result.density.eigenvalues()),
        "density_trace": float(np.trace(result.density.entries).real),
    }


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=PHASE_EQUAL_TOL, help="verification tolerance")
    common.add_argument("--seed", type=int, default=0, help="RNG seed for sampling commands")
    common.add_argument(
        "--no-json",
        action="store_true",
        help="print a one-line human summary instead of the JSON report",
    )
    parser = argparse.ArgumentParser(
        prog="mesq",
        description="Few-qubit entanglement manipulation toolkit (JSON in/out).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("majorize", help="does y majorize x?")
    p.add_argument("--y", required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(handler=cmd_majorize)

    p = add_parser("nielsen", help="LOCC convertibility between Schmidt vectors")
    p.add_argument("--psi", required=True)
    p.add_argument("--phi", required=True)
    p.set_defaults(handler=cmd_nielsen)

    p = add_parser("classify3", help="three-qubit SLOCC class")
    p.add_argument("--state", required=True)
    p.set_defaults(handler=cmd_classify3)

    p = add_parser("stdform3", help="GHZ/W standard form parameters")
    p.add_argument("--state", required=True)
    p.set_defaults(handler=cmd_stdform3)

    p = add_parser("mes3-check", help="three-qubit maximally-entangled-set membership")
    p.add_argument("--state", required=True)
    p.set_defaults(handler=cmd_mes3_check)

    p = add_parser("mes3-gen", help="generate a three-parameter family state")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--betaprime", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_mes3_gen)

    p = add_parser("seed4", help="four-qubit family representative state")
    p.add_argument("--params", required=True, help='four complex values "a,b,c,d"')
    p.add_argument("--out")
    p.set_defaults(handler=cmd_seed4)

    p = add_parser("mes4-check", help="four-qubit reachability/convertibility/status")
    p.add_argument("--params", required=True)
    p.add_argument("--operator", required=True)
    p.add_argument("--mode", choices=["reachable", "convertible", "status"], default="status")
    p.set_defaults(handler=cmd_mes4_check)

    for name, handler in (
        ("sep-verify", cmd_sep_verify),
        ("sep-solve", cmd_sep_solve),
        ("povm-build", cmd_povm_build),
    ):
        p = add_parser(name, help=f"{name.replace('-', ' ')} for the weight equation")
        p.add_argument("--g", required=True, help="source product operator (JSON)")
        p.add_argument("--h", required=True, help="target product operator (JSON)")
        p.add_argument("--symmetries", required=True, help="symmetry list (JSON)")
        if name != "sep-solve":
            p.add_argument("--weights", required=True, help="comma-separated probabilities")
            p.add_argument("--r", default="auto", help='norm ratio or "auto"')
        if name == "povm-build":
            p.add_argument("--out")
        p.set_defaults(handler=handler)

    p = add_parser("convert-verify", help="check a POVM maps source to target")
    p.add_argument("--povm", required=True, help="operator list (JSON)")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(handler=cmd_convert_verify)

    p = add_parser("synth4q", help="synthesize a one-round protocol for a reachable target")
    p.add_argument("--params", required=True)
    p.add_argument("--operator", required=True)
    p.add_argument("--out", help="write the protocol JSON here")
    p.set_defaults(handler=cmd_synth4q)

    p = add_parser("rep-build", help="construct the six-qubit resource state")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_rep_build)

    p = add_parser("rep-sim", help="simulate the preparation protocol once")
    p.add_argument("--alpha4", type=float, required=True)
    p.add_argument("--alpha5", type=float, required=True)
    p.add_argument("--alpha6", type=float, required=True)
    p.add_argument("--outcomes", help="force outcomes k6k5k4, e.g. 101")
    p.set_defaults(handler=cmd_rep_sim)

    p = add_parser("rep-verify", help="verify all eight outcome paths")
    p.add_argument("--alpha4", type=float, required=True)
    p.add_argument("--alpha5", type=float, required=True)
    p.add_argument("--alpha6", type=float, required=True)
    p.set_defaults(handler=cmd_rep_verify)

    p = add_parser("mixed-prep", help="sample a mixed three-qubit preparation")
    p.add_argument("--ensemble", required=True)
    p.set_defaults(handler=cmd_mixed_prep)

    return parser


def _echo_inputs(args) -> dict:
    skip = {"handler", "command", "no_json"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    started = time.perf_counter()
    try:
        result, code, error = args.handler(args, rng, args.tol), EXIT_OK, None
    except NumericalError as exc:
        result, code, error = None, EXIT_NUMERICAL, str(exc)
    except (ValueError, OSError) as exc:
        result, code, error = None, EXIT_INPUT, str(exc)
    elapsed = time.perf_counter() - started

    report = {
        "command": args.command,
        "inputs": _jsonify(_echo_inputs(args)),
        "seed": args.seed,
        "tol": args.tol,
        "result": _jsonify(result),
        "error": error,
    }
    if args.no_json:
        summary = error if error is not None else json.dumps(_jsonify(result))
        print(f"{args.command}: {'error: ' if error else ''}{summary}")
    else:
        print(json.dumps(report))
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
