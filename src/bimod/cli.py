"""Command-line front door: parse input files, dispatch computations, emit
machine-readable reports.

Grammar::

    bimod <command> <input> [<input2>] [--tol R] [--seed N] [--budget N]
          [--out PATH]

Exit status: 0 when every computed check passed, 1 when a computation ran but
an invariant failed, 2 on input errors (an unreadable input or ``--out``, a
negative or non-finite ``--tol``, a ``--seed`` outside [0, 2**64), which the
report writes as null, an input too large for the machine; an unwritable
``--out`` writes one line to standard error and no report), 3 on an internal
error (a fault of the toolkit, reported rather than raised).  Reports are
single strict JSON documents with schema tag "bimod-report/5", written by
orjson with two-space indentation, sorted keys and one key per line; a value
that does not exist (a residual of a check that did not run) is null, never a
non-finite number.  The wall-time field is the only nondeterministic entry
for fixed inputs and seed; ``--seed`` seeds only the Pimsner-Popa samples of
``basic``.  ``--budget`` is accepted and ignored: it bounded
the minimal-dimension search, which is now a closed form.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import reprlib
import sys
import time
from dataclasses import dataclass

import numpy as np
import orjson

from .multimatrix import ToolkitError
from .bimodule import HilbertBimodule, contragredient, tensor, validate
from .index import (
    basic_construction,
    best_constants,
    fiber_decomposition,
    right_index,
)
from .conjugation import (
    build_conjugate,
    min_dimension,
    morita_check,
    verify_conjugate,
)
from .constructors import (
    _expectation_module,
    _graph_bimodule,
    expectation_cp_gap,
    from_weight_graph,
    minimal_cp_multiplier,
)
from . import serde
from .serde import ParseError

SCHEMA = "bimod-report/5"
COMMANDS = ("validate", "index", "conjugate", "verify", "mindim", "basic",
            "fibers", "morita", "tensor", "graph", "expectation", "hilbert")


@dataclass
class CommandRequest:
    command: str
    inputs: list[str]
    tol: float = 1e-8
    seed: int = 0
    out: str | None = None


def _read_bytes(path: str) -> bytes:
    """The bytes of ``path``, or a ParseError naming a path that cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str):
    """The JSON document in ``path``, read as bytes once and parsed by orjson.

    A text orjson refuses (NaN or Infinity literals, numbers beyond the
    double range, other non-strict JSON) is parsed again by :mod:`json`, so
    that the decoders can still name the field that holds the bad value.
    """
    data = _read_bytes(path)
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8 JSON: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc


def _decode(path: str, obj):
    """(kind, decoded object) of a parsed input file."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{path} is missing the top-level 'kind' field")
    kind = obj["kind"]
    if kind == "bimodule":
        return kind, serde.decode_bimodule(obj)
    if kind == "graph":
        return kind, serde.decode_graph(obj)
    if kind == "expectation":
        return kind, serde.decode_expectation(obj)
    if kind == "hilbert":
        return kind, serde.decode_hilbert(obj)
    if kind == "solution":
        if "R" not in obj or "Rbar" not in obj:
            raise ParseError(f"{path} must carry 'R' and 'Rbar' coordinates")
        return kind, {"R": serde.decode_vector(obj["R"], "R"),
                      "Rbar": serde.decode_vector(obj["Rbar"], "Rbar")}
    raise ParseError(f"unknown kind {reprlib.repr(kind)} in {path}")


def parse_spec(path: str, check: bool = True):
    """Read a self-describing input file; returns (kind, parsed object).

    ``check`` runs the structural validator on bimodule payloads so that a
    malformed module is rejected before any computation.
    """
    # A parse tree holds no cycles, yet a collection while it lives walks all
    # of it: a full one during the parse, a young one during the decode.  So
    # the collector stays off from the read until the decoded arrays have
    # replaced the tree, which is freed when _decode returns.
    collecting = gc.isenabled()
    gc.disable()
    try:
        kind, parsed = _decode(path, _read_json(path))
    finally:
        if collecting:
            gc.enable()
    if kind == "bimodule" and check:
        rep = validate(parsed)
        if not rep.passed:
            fails = ", ".join(f"{c.name}={c.residual:.3g}" for c in rep.failures())
            raise ParseError(f"{path} fails validation: {fails}")
    return kind, parsed


def _as_bimodule(kind: str, parsed) -> HilbertBimodule:
    if kind == "bimodule" or kind == "hilbert":
        return parsed
    if kind == "graph":
        return _graph_bimodule(parsed)[0]
    if kind == "expectation":
        return _expectation_module(parsed)
    raise ParseError(f"command needs a bimodule-like input, got kind '{kind}'")


def _read_module(path: str, check: bool = True) -> tuple[str, HilbertBimodule]:
    """(kind, module) of a bimodule, graph, expectation or hilbert file."""
    kind, parsed = parse_spec(path, check)
    return kind, _as_bimodule(kind, parsed)


# -- command handlers ------------------------------------------------------------


def _cmd_validate(req: CommandRequest):
    kind, X = _read_module(req.inputs[0], check=False)
    rep = validate(X, tol=req.tol)
    return rep.passed, {"validation": rep.as_dict(), "kind": kind, "dim": X.dim}


def _cmd_index(req: CommandRequest):
    _, X = _read_module(req.inputs[0])
    rep = right_index(X)
    bc = best_constants(X)
    units = X.A.units_embedded()
    r_mat = rep.r_ind.embed()
    central = max(float(np.abs(r_mat @ u - u @ r_mat).max()) for u in units)
    product_ok = rep.r_num * rep.l_num >= 1.0 - 1e-9
    passed = central <= req.tol * (1 + rep.r_num) and product_ok
    results = {**rep.as_dict(), **bc.as_dict()}
    results["centrality_residual"] = central
    results["index_product"] = rep.r_num * rep.l_num
    # recorded, not asserted: slack of r-ind >= lambda' on the support,
    # measured from the attained lambda', the upper end of its bracket
    c = [float(np.real(np.trace(b)) / len(b)) for b in rep.r_ind.blocks]
    slack = [c_k - bc.lambda_prime_hat for c_k in c
             if c_k > 1e-9 * max(rep.r_num, 1e-300)]
    results["support_bound_slack"] = min(slack) if slack else None
    return passed, results


def _cmd_conjugate(req: CommandRequest):
    _, X = _read_module(req.inputs[0])
    sol = build_conjugate(X)
    idx = right_index(X)
    res_rr = (sol.R_star_R - idx.l_ind).norm()
    res_bb = (sol.Rbar_star_Rbar - idx.r_ind).norm()
    passed = (sol.residual_1 <= req.tol and sol.residual_2 <= req.tol
              and res_rr <= req.tol * (1 + idx.l_num)
              and res_bb <= req.tol * (1 + idx.r_num))
    return passed, {"residual_1": sol.residual_1, "residual_2": sol.residual_2,
                    "dim_rel": sol.dim_rel,
                    "R": serde.encode_vector(sol.R),
                    "Rbar": serde.encode_vector(sol.Rbar),
                    "RstarR_vs_l_ind": res_rr, "RbarstarRbar_vs_r_ind": res_bb}


def _cmd_verify(req: CommandRequest):
    _, X = _read_module(req.inputs[0])
    skind, sol = parse_spec(req.inputs[1])
    if skind != "solution":
        raise ParseError("second input of verify must be a solution file")
    Y = contragredient(X)
    rep = verify_conjugate(X, Y, sol["R"], sol["Rbar"], tol=req.tol)
    return rep.passed, rep.as_dict()


def _cmd_mindim(req: CommandRequest):
    _, X = _read_module(req.inputs[0])
    res = min_dimension(X)
    return res.certified, {"dim_hat": res.dim_hat,
                           "multiplicity_matrix": res.multiplicities.tolist(),
                           "certificate_residual": res.certificate_residual}


def _cmd_basic(req: CommandRequest):
    _, X = _read_module(req.inputs[0])
    bco = basic_construction(X)
    bc = best_constants(X)
    lam = 1.0 / bc.lambda_prime_hat
    checks = bco.sampled_checks(lam, np.random.default_rng(req.seed))
    cp_ok, choi_min = bco.as_cp_map().is_completely_positive()
    scale = 1 + bco.r_ind.norm()
    passed = (checks["idempotency_residual"] <= req.tol * scale
              and checks["conditional_residual"] <= req.tol * scale
              and cp_ok and checks["pp_inequality_min_eig"] >= -1e-8 * scale)
    return passed, {**checks, "choi_min": choi_min, "completely_positive": cp_ok,
                    "lambda_used": lam, "constants_exact": bc.exact}


def _cmd_fibers(req: CommandRequest):
    _, X = _read_module(req.inputs[0])
    rep = fiber_decomposition(X)
    return rep.passed, rep.as_dict()


def _cmd_morita(req: CommandRequest):
    _, X = _read_module(req.inputs[0])
    rep = morita_check(X)
    return rep.conditions_agree, rep.as_dict()


def _cmd_tensor(req: CommandRequest):
    (_, X), (_, Y) = _read_module(req.inputs[0]), _read_module(req.inputs[1])
    Z = tensor(X, Y)
    rep = validate(Z, tol=req.tol)
    idx = right_index(Z)
    return rep.passed, {"dim": Z.dim, "validation": rep.as_dict(),
                        "r_num": idx.r_num, "l_num": idx.l_num}


def _cmd_graph(req: CommandRequest):
    kind, parsed = parse_spec(req.inputs[0])
    if kind != "graph":
        raise ParseError("graph command expects a graph file")
    rep = from_weight_graph(parsed)
    idx = right_index(rep.bimodule)
    r_eng = np.array([float(np.real(b[0, 0])) for b in idx.r_ind.blocks])
    l_eng = np.array([float(np.real(b[0, 0])) for b in idx.l_ind.blocks])
    dr = float(np.abs(r_eng - rep.r_ind_closed).max())
    dl = float(np.abs(l_eng - rep.l_ind_closed).max())
    passed = (dr <= 1e-10 and dl <= 1e-10
              and rep.right_frame_residual <= 1e-9
              and rep.left_frame_residual <= 1e-9)
    return passed, {"dim": rep.bimodule.dim, "c1": rep.c1, "c2": rep.c2,
                    "r_ind_closed": rep.r_ind_closed.tolist(),
                    "l_ind_closed": rep.l_ind_closed.tolist(),
                    "engine_gap_right": dr, "engine_gap_left": dl,
                    "right_frame_residual": rep.right_frame_residual,
                    "left_frame_residual": rep.left_frame_residual}


def _cmd_expectation(req: CommandRequest):
    kind, parsed = parse_spec(req.inputs[0])
    if kind != "expectation":
        raise ParseError("expectation command expects an expectation file")
    chk = parsed.check()
    X = _expectation_module(parsed)
    idx = right_index(X)
    gap = expectation_cp_gap(parsed)
    cert = minimal_cp_multiplier(parsed)
    ind = cert["index_element"]
    # Ind(E) = r-ind (Watatani): the quasi-basis sum against the dual-basis route
    round_trip = (ind - idx.r_ind).norm()
    l_identity = (idx.l_ind - X.B.identity()).norm()
    passed = (chk["passed"] and round_trip <= 1e-9 * (1 + idx.r_num)
              and l_identity <= req.tol and cert["minimality_certified"]
              and cert["passed_at_index"])
    return passed, {"expectation_check": chk,
                    "index_element": serde.encode_element(ind),
                    "index_norm": ind.norm(), "cp_gap": gap,
                    "round_trip_residual": round_trip,
                    "l_ind_identity_residual": l_identity,
                    "minimality_certified": cert["minimality_certified"],
                    # Y (x)_B X of ``from_expectation`` has dim sum_l rank phi_X(e^l_11)^2 = dim B
                    "tensor_dim": X.dim}


def _cmd_hilbert(req: CommandRequest):
    kind, parsed = parse_spec(req.inputs[0])
    if kind != "hilbert":
        raise ParseError("hilbert command expects a hilbert file")
    X = parsed
    T = X.left_stack[0].T          # _C(e_p|e_q) at the one unit of C, transposed
    idx = right_index(X)
    tr, tri = float(np.real(np.trace(T))), float(np.real(np.trace(np.linalg.inv(T))))
    eigs = np.linalg.eigvalsh(T)
    bc = best_constants(X)
    passed = (abs(idx.r_num - tr) <= 1e-9 * (1 + tr)
              and abs(idx.l_num - tri) <= 1e-9 * (1 + tri)
              and abs(bc.lambda_prime_hat - eigs.min()) <= 1e-10 * (1 + eigs.min())
              and abs(bc.lambda_hat - eigs.max()) <= 1e-10 * (1 + eigs.max())
              and bc.exact)
    return passed, {"r_num": idx.r_num, "l_num": idx.l_num,
                    "trace": tr, "inverse_trace": tri, **bc.as_dict()}


_HANDLERS = {"validate": _cmd_validate, "index": _cmd_index,
             "conjugate": _cmd_conjugate, "verify": _cmd_verify,
             "mindim": _cmd_mindim, "basic": _cmd_basic, "fibers": _cmd_fibers,
             "morita": _cmd_morita, "tensor": _cmd_tensor, "graph": _cmd_graph,
             "expectation": _cmd_expectation, "hilbert": _cmd_hilbert}

_TWO_INPUT = {"verify", "tensor"}


def _digest(path: str) -> str:
    return hashlib.sha256(_read_bytes(path)).hexdigest()


def run(request: CommandRequest) -> tuple[int, dict]:
    """Execute one request; returns (exit status, report).  Each handler
    returns JSON types only (no numpy scalars or arrays)."""
    t0 = time.perf_counter()
    seed_ok = 0 <= request.seed < 1 << 64       # numpy's seeds, in orjson's integer range
    report = {"schema": SCHEMA, "command": request.command,
              "seed": request.seed if seed_ok else None, "tolerance": request.tol}
    try:
        if request.command not in _HANDLERS:
            raise ParseError(f"unknown command '{request.command}'")
        need = 2 if request.command in _TWO_INPUT else 1
        if len(request.inputs) != need:
            raise ParseError(f"command '{request.command}' takes {need} input file(s)")
        if not (np.isfinite(request.tol) and request.tol >= 0):
            raise ParseError(f"--tol must be a finite number >= 0, got {request.tol}")
        if not seed_ok:
            raise ParseError(f"--seed must be in [0, 2**64), got {request.seed}")
        report["inputs"] = [_digest(p) for p in request.inputs]
        passed, results = _HANDLERS[request.command](request)
        report["passed"] = bool(passed)
        report["results"] = results
        status = 0 if passed else 1
    except (ToolkitError, MemoryError) as exc:
        too_large = isinstance(exc, MemoryError)
        report["error"] = f"input too large for this machine: {exc!r}" if too_large else str(exc)
        report["passed"] = False
        status = 2
    except Exception as exc:
        report["error"] = f"internal error: {type(exc).__name__}: {exc}"
        report["passed"] = False
        status = 3
    report["wall_time_ms"] = 1000.0 * (time.perf_counter() - t0)
    return status, report


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bimod",
        description="Numerical toolkit for finite-dimensional Hilbert bimodules, "
                    "their index theory and conjugate equations.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("inputs", nargs="+", help="1-2 input files")
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--seed", type=int, default=0, help="seeds basic's Pimsner-Popa samples")
    parser.add_argument("--budget", type=int, default=None,
                        help="ignored; kept so that older command lines still parse")
    parser.add_argument("--out", default=None)
    return parser


# one key per line, so that a line-based filter can drop ``wall_time_ms``
_JSON_LAYOUT = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    req = CommandRequest(command=args.command, inputs=args.inputs, tol=args.tol,
                         seed=args.seed, out=args.out)
    status, report = run(req)
    payload = orjson.dumps(report, option=_JSON_LAYOUT)
    if req.out:
        try:
            with open(req.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"bimod: cannot write the report to {req.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload.decode())
    return status


if __name__ == "__main__":
    sys.exit(main())
