"""JSON interchange formats shared by the CLI and any external tooling.

State files:    {"n": 3, "amps": [[re, im], ...]}         (length 2^n)
Operator files: {"factors": [[[re,im],[re,im]],[[re,im],[re,im]]], ...]}
Operator lists: {"operators": [<operator object>, ...]}
Ensemble files: {"entries": [{"weight": w, "alpha4": .., "alpha5": ..,
                              "alpha6": .., "post_lu": <operator>|null}, ...]}

Complex scalars on the command line use the "a+bi" form; files always carry
[re, im] pairs.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from .core import ProductOperator, PureState


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _list(value, what: str):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def pair_to_complex(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(isinstance(v, numbers.Real) for v in pair)):
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style scalars: '2', '0.5', '-1.5i', '1+1i', '2-0.5i', 'i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    try:
        if not s.endswith("i"):
            return complex(float(s), 0.0)
        body = s[:-1]
        # the last +/- that is not an exponent sign separates real from imaginary
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        if split == -1:
            re_part, im_part = "0", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+", "-"):
            im_part += "1"
        return complex(float(re_part), float(im_part))
    except ValueError:
        raise ValueError(f"malformed complex literal {text!r}") from None


def parse_complex_list(text: str) -> list[complex]:
    return [parse_complex(tok) for tok in text.split(",") if tok.strip()]


def parse_real_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def state_to_obj(state: PureState) -> dict:
    return {
        "n": state.num_qubits,
        "amps": [complex_to_pair(z) for z in state.amplitudes],
    }


def state_from_obj(obj) -> PureState:
    if not isinstance(obj, dict) or "n" not in obj or "amps" not in obj:
        raise ValueError("state object must carry 'n' and 'amps'")
    if not isinstance(obj["n"], numbers.Integral):
        raise ValueError(f"'n' must be an integer, got {obj['n']!r}")
    amps = np.array([pair_to_complex(p) for p in _list(obj["amps"], "'amps'")], dtype=complex)
    return PureState(int(obj["n"]), amps)


def matrix_to_obj(m: np.ndarray) -> list:
    return [[complex_to_pair(v) for v in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_obj(obj) -> np.ndarray:
    rows = [_list(row, "a matrix row") for row in _list(obj, "a matrix")]
    return np.array([[pair_to_complex(v) for v in row] for row in rows], dtype=complex)


def operator_to_obj(op: ProductOperator) -> dict:
    return {"factors": [matrix_to_obj(f) for f in op.factors]}


def operator_from_obj(obj) -> ProductOperator:
    if not isinstance(obj, dict) or "factors" not in obj:
        raise ValueError("operator object must carry 'factors'")
    return ProductOperator(tuple(matrix_from_obj(f) for f in _list(obj["factors"], "'factors'")))


def operators_to_obj(ops) -> dict:
    return {"operators": [operator_to_obj(op) for op in ops]}


def operators_from_obj(obj) -> list[ProductOperator]:
    if not isinstance(obj, dict) or "operators" not in obj:
        raise ValueError("operator list object must carry 'operators'")
    return [operator_from_obj(o) for o in _list(obj["operators"], "'operators'")]


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
