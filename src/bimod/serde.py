"""JSON encodings for algebras, elements, bimodules and input files.

Complex scalars are encoded as [re, im] pairs; an algebra element is
{"blocks": [block, ...]} with each block an n x n nested list of pairs.
Input files are self-describing through a top-level "kind" field.
"""

from __future__ import annotations

import numpy as np

from .multimatrix import AlgebraElement, MultiMatrixAlgebra, StructureError
from .bimodule import HilbertBimodule
from .constructors import ExpectationSpec, GraphSpec, Inclusion, trace_weighted_expectation


class ParseError(StructureError):
    """Malformed input file."""


def _convert(conv, value, what: str):
    """``conv(value)``, with a failed conversion reported as a ParseError."""
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"cannot read {what}: {exc}") from exc


def _finite(arr, what: str):
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} has a non-finite entry")
    return arr


def encode_complex_matrix(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def decode_complex_matrix(obj, what: str = "matrix") -> np.ndarray:
    try:
        rows = []
        for row in obj:
            out = []
            for z in row:
                if isinstance(z, (int, float)):
                    out.append(complex(z))
                else:
                    out.append(complex(float(z[0]), float(z[1])))
            rows.append(out)
        mat = np.array(rows, dtype=complex)
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"cannot read {what}: {exc}") from exc
    if mat.ndim != 2:
        raise ParseError(f"{what} is not two-dimensional")
    return _finite(mat, what)


def encode_algebra(alg: MultiMatrixAlgebra) -> dict:
    return {"blocks": list(alg.blocks)}


def decode_algebra(obj, what: str = "algebra") -> MultiMatrixAlgebra:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ParseError(f"{what} must be an object with a 'blocks' list")
    try:
        return MultiMatrixAlgebra(obj["blocks"])
    except (StructureError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def encode_element(x: AlgebraElement) -> dict:
    return {"blocks": [encode_complex_matrix(b) for b in x.blocks]}


def decode_element(alg: MultiMatrixAlgebra, obj, what: str = "element") -> AlgebraElement:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ParseError(f"{what} must be an object with a 'blocks' list")
    mats = [decode_complex_matrix(b, what) for b in obj["blocks"]]
    try:
        return AlgebraElement(alg, mats)
    except StructureError as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def _encode_action(action: np.ndarray, alg: MultiMatrixAlgebra) -> list:
    """(N, N, d, d) action tensor -> per-block matrix-unit images."""
    out = []
    for k in range(alg.num_blocks):
        s = alg.block_slice(k)
        n = alg.blocks[k]
        out.append([[encode_complex_matrix(action[s.start + i, s.start + j])
                     for j in range(n)] for i in range(n)])
    return out


def _decode_action(obj, alg: MultiMatrixAlgebra, d: int, what: str) -> np.ndarray:
    action = np.zeros((alg.rep_dim, alg.rep_dim, d, d), dtype=complex)
    if not isinstance(obj, list) or len(obj) != alg.num_blocks:
        raise ParseError(f"{what} must list matrix-unit images for each block")
    for k, blk in enumerate(obj):
        s, n = alg.block_slice(k), alg.blocks[k]
        for i in range(n):
            for j in range(n):
                mat = decode_complex_matrix(blk[i][j], f"{what}[{k}][{i}][{j}]")
                if mat.shape != (d, d):
                    raise ParseError(f"{what}[{k}][{i}][{j}] is not {d} x {d}")
                action[s.start + i, s.start + j] = mat
    return action


def _encode_gram(gram: np.ndarray, alg: MultiMatrixAlgebra) -> list:
    d = gram.shape[0]
    return [[encode_element(alg.from_embedded(gram[p, q])) for q in range(d)]
            for p in range(d)]


def _decode_gram(obj, alg: MultiMatrixAlgebra, d: int, what: str) -> np.ndarray:
    gram = np.zeros((d, d, alg.rep_dim, alg.rep_dim), dtype=complex)
    if not isinstance(obj, list) or len(obj) != d:
        raise ParseError(f"{what} must be a {d} x {d} array of elements")
    for p in range(d):
        for q in range(d):
            gram[p, q] = decode_element(alg, obj[p][q], f"{what}[{p}][{q}]").embed()
    return gram


def encode_bimodule(X: HilbertBimodule) -> dict:
    out = {"kind": "bimodule",
           "A": encode_algebra(X.A), "B": encode_algebra(X.B), "dim": X.dim,
           "right_gram": _encode_gram(X.right_gram, X.B),
           "left_action": _encode_action(X.left_action, X.A),
           "right_action": _encode_action(X.right_action, X.B)}
    if X.left_gram is not None:
        out["left_gram"] = _encode_gram(X.left_gram, X.A)
    return out


def decode_bimodule(obj) -> HilbertBimodule:
    for key in ("A", "B", "dim", "right_gram", "left_action", "right_action"):
        if key not in obj:
            raise ParseError(f"bimodule file is missing '{key}'")
    A = decode_algebra(obj["A"], "A")
    B = decode_algebra(obj["B"], "B")
    d = _convert(int, obj["dim"], "dim")
    right_gram = _decode_gram(obj["right_gram"], B, d, "right_gram")
    left_action = _decode_action(obj["left_action"], A, d, "left_action")
    right_action = _decode_action(obj["right_action"], B, d, "right_action")
    left_gram = None
    if obj.get("left_gram") is not None:
        left_gram = _decode_gram(obj["left_gram"], A, d, "left_gram")
    try:
        return HilbertBimodule(A, B, d, right_gram, left_action, right_action, left_gram)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def decode_graph(obj) -> GraphSpec:
    if "vertices" not in obj or "edges" not in obj:
        raise ParseError("graph file needs 'vertices' and 'edges'")
    if not isinstance(obj["edges"], list):
        raise ParseError("'edges' must be a list")
    edges = []
    for e in obj["edges"]:
        if not isinstance(e, list) or len(e) != 3:
            raise ParseError(f"edge {e} must be [source, range, weight]")
        w = _finite(_convert(float, e[2], f"weight of edge {e}"), f"edge {e}")
        edges.append((str(e[0]), str(e[1]), w))
    try:
        return GraphSpec([str(v) for v in obj["vertices"]], edges)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def decode_expectation(obj) -> ExpectationSpec:
    for key in ("B", "A_blocks", "E_weights"):
        if key not in obj:
            raise ParseError(f"expectation file is missing '{key}'")
    B = decode_algebra(obj["B"], "B")
    ab = obj["A_blocks"]
    if not isinstance(ab, dict) or "blocks" not in ab or "multiplicity" not in ab:
        raise ParseError("'A_blocks' must carry 'blocks' and 'multiplicity'")
    A = decode_algebra({"blocks": ab["blocks"]}, "A")
    mult = _convert(lambda v: np.asarray(v, dtype=int), ab["multiplicity"], "multiplicity")
    weights = _finite(_convert(lambda v: np.asarray(v, dtype=float), obj["E_weights"],
                               "E_weights"), "E_weights")
    if weights.shape != mult.shape:
        raise ParseError(f"E_weights has shape {weights.shape}, multiplicity {mult.shape}")
    try:
        inc = Inclusion(A, B, mult)
        return trace_weighted_expectation(inc, weights)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def decode_hilbert(obj):
    from .constructors import from_hilbert_space
    if "n" not in obj or "T" not in obj:
        raise ParseError("hilbert file needs 'n' and 'T'")
    n = _convert(int, obj["n"], "n")
    T = decode_complex_matrix(obj["T"], "T")
    try:
        return from_hilbert_space(n, T)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def decode_vector(obj, what: str = "vector") -> np.ndarray:
    try:
        out = []
        for z in obj:
            if isinstance(z, (int, float)):
                out.append(complex(z))
            else:
                out.append(complex(float(z[0]), float(z[1])))
        vec = np.array(out, dtype=complex)
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"cannot read {what}: {exc}") from exc
    return _finite(vec, what)


def encode_vector(vec: np.ndarray) -> list:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in vec]
