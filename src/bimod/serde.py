"""JSON encodings for algebras, elements, bimodules and input files.

Complex scalars are written as [re, im] pairs; on input each array holds all
pairs or all reals.  An algebra element is {"blocks": [block, ...]}, each
block an n x n nested list.  Input files name their "kind" at the top level.

Arrays are read by ``_complex_array`` and written by ``_pairs`` whole, Gram
tensors and actions one algebra block at a time.  Shapes, finite entries and
integer fields (``_integer``) are checked before anything sized by a declared
dimension is allocated; malformed input raises :class:`ParseError` naming the
field and block.
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"cannot read {what}: {exc}") from exc


def _finite(arr, what: str):
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} has a non-finite entry")
    return arr


def _integer(value, what: str, least: int) -> int:
    """An integer field: a JSON integer, or an integral float, >= ``least``.

    Bools, fractions, non-finite values and non-numbers are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer()) or value < least):
        raise ParseError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _numbers(obj, what: str) -> np.ndarray:
    """A number or nested list of numbers as a float array, read once.

    Strings (also numeric ones), booleans, nulls and integers beyond the
    double range are refused: their array has no integer or float dtype.
    The file parser reads an integer literal outside the 64-bit range as the
    nearest double, so only a literal too large for any double reaches here
    as a Python integer.  numpy still promotes a boolean mixed into a list
    of numbers."""
    try:
        arr = np.asarray(obj)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"cannot read {what}: {exc}") from exc
    if arr.dtype.kind not in "fiu":
        raise ParseError(f"{what} must hold numbers, got {arr.dtype.name} entries")
    return arr.astype(float, copy=False)


def _complex_array(obj, shape: tuple, what: str) -> np.ndarray:
    """A nested list of all [re, im] pairs or all reals as a complex array.

    ``shape`` is the declared shape; a None entry takes its length from the
    data.  Pairs become complex numbers by a view of the float array, with
    no arithmetic, so values are bitwise those :func:`_pairs` wrote.
    """
    arr = _numbers(obj, what)
    pairs = arr.ndim == len(shape) + 1 and arr.shape[-1] == 2
    got = arr.shape[:-1] if pairs else arr.shape
    if len(got) != len(shape) or any(n is not None and n != g for n, g in zip(shape, got)):
        want = " x ".join("n" if n is None else str(n) for n in shape)
        raise ParseError(f"{what} must be a {want} array of [re, im] pairs or of reals, "
                         f"got shape {arr.shape}")
    _finite(arr, what)
    return arr.view(complex)[..., 0] if pairs else arr.astype(complex)


def _pairs(arr) -> list:
    """Complex array -> nested list of [re, im] pairs."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def encode_algebra(alg: MultiMatrixAlgebra) -> dict:
    return {"blocks": list(alg.blocks)}


def decode_algebra(obj, what: str = "algebra") -> MultiMatrixAlgebra:
    if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), list):
        raise ParseError(f"{what} must be an object with a 'blocks' list")
    sizes = [_integer(n, f"{what} block size", 1) for n in obj["blocks"]]
    try:
        return MultiMatrixAlgebra(sizes)
    except StructureError as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def encode_element(x: AlgebraElement) -> dict:
    return {"blocks": [_pairs(b) for b in x.blocks]}


def _element_blocks(alg: MultiMatrixAlgebra, obj, what: str) -> list:
    """The still-encoded block list of an element, checked for its length."""
    if (not isinstance(obj, dict) or not isinstance(obj.get("blocks"), list)
            or len(obj["blocks"]) != alg.num_blocks):
        raise ParseError(f"{what} must be an object with a 'blocks' list of "
                         f"{alg.num_blocks} blocks")
    return obj["blocks"]


def _encode_action(action: np.ndarray, alg: MultiMatrixAlgebra) -> list:
    """(N, N, d, d) action tensor -> per-block matrix-unit images."""
    return [_pairs(action[s, s]) for s in map(alg.block_slice, range(alg.num_blocks))]


def _decode_action(obj, alg: MultiMatrixAlgebra, d: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != alg.num_blocks:
        raise ParseError(f"{what} must list matrix-unit images for each block")
    blocks = [_complex_array(b, (n, n, d, d), f"{what} block {k}")
              for k, (b, n) in enumerate(zip(obj, alg.blocks))]
    action = np.zeros((alg.rep_dim, alg.rep_dim, d, d), dtype=complex)
    for s, b in zip(map(alg.block_slice, range(alg.num_blocks)), blocks):
        action[s, s] = b
    return action


def _encode_gram(gram: np.ndarray, alg: MultiMatrixAlgebra) -> list:
    """(d, d, N, N) Gram tensor -> d x d array of elements."""
    d = gram.shape[0]
    blocks = [_pairs(gram[:, :, s, s]) for s in map(alg.block_slice, range(alg.num_blocks))]
    return [[{"blocks": [b[p][q] for b in blocks]} for q in range(d)] for p in range(d)]


def _decode_gram(obj, alg: MultiMatrixAlgebra, d: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != d or any(
            not isinstance(row, list) or len(row) != d for row in obj):
        raise ParseError(f"{what} must be a dim x dim = {d} x {d} array of elements")
    cells = [[_element_blocks(alg, e, f"{what}[{p}][{q}]") for q, e in enumerate(row)]
             for p, row in enumerate(obj)]
    blocks = [_complex_array([[c[k] for c in row] for row in cells], (d, d, n, n),
                             f"{what} block {k}") for k, n in enumerate(alg.blocks)]
    gram = np.zeros((d, d, alg.rep_dim, alg.rep_dim), dtype=complex)
    for s, b in zip(map(alg.block_slice, range(alg.num_blocks)), blocks):
        gram[:, :, s, s] = b
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
    d = _integer(obj["dim"], "dim", 1)
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
    if not isinstance(obj["vertices"], list) or not isinstance(obj["edges"], list):
        raise ParseError("'vertices' and 'edges' must be lists")
    edges = []
    for e in obj["edges"]:
        if not isinstance(e, list) or len(e) != 3:
            raise ParseError(f"edge {e} must be [source, range, weight]")
        if isinstance(e[2], bool) or not isinstance(e[2], (int, float)):
            raise ParseError(f"weight of edge {e} must be a number")
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
    mult = _convert(lambda rows: np.array([[_integer(m, "multiplicity", 0) for m in row]
                                           for row in rows], dtype=int),
                    ab["multiplicity"], "multiplicity")
    weights = _finite(_numbers(obj["E_weights"], "E_weights"), "E_weights")
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
    n = _integer(obj["n"], "n", 1)
    T = _complex_array(obj["T"], (n, n), "T")
    try:
        return from_hilbert_space(n, T)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def decode_vector(obj, what: str = "vector") -> np.ndarray:
    return _complex_array(obj, (None,), what)


def encode_vector(vec: np.ndarray) -> list:
    return _pairs(np.asarray(vec, dtype=complex).reshape(-1))
