import argparse
import collections
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys

import numpy as np
import orjson
import pytest

from bimod import (ContractError, GraphSpec, build_conjugate, column_bimodule, contragredient,
                   from_hilbert_space, from_weight_graph)
import bimod
from bimod import HilbertBimodule, bimodule, cli, constructors, index, serde
from bimod.cli import CommandRequest, main, parse_spec, run
from bimod.serde import ParseError, encode_bimodule, encode_vector
from helpers import (corpus, diag_expectation_m2, random_bimodule, sanitize,
                     two_block_expectation)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")

    def put(name, obj):
        path = root / name
        path.write_text(json.dumps(obj))
        return str(path)

    files = {}
    files["hilbert"] = put("hilbert_T.json",
                           {"kind": "hilbert", "n": 2, "T": [[1, 0], [0, 2]]})
    files["graph"] = put("cycle4.json", {
        "kind": "graph", "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b", 1.0], ["b", "c", 1.0], ["c", "d", 1.0], ["d", "a", 1.0]]})
    files["expectation"] = put("exp22.json", {
        "kind": "expectation", "B": {"blocks": [2]},
        "A_blocks": {"blocks": [1, 1], "multiplicity": [[1, 1]]},
        "E_weights": [[1.0, 1.0]]})
    files["mn"] = put("mn_bimodule.json", encode_bimodule(column_bimodule(2)))

    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    sol = build_conjugate(X)
    files["solution"] = put("solution.json", {
        "kind": "solution", "R": encode_vector(sol.R), "Rbar": encode_vector(sol.Rbar)})
    files["bad_solution"] = put("bad_solution.json", {
        "kind": "solution", "R": encode_vector(2.0 * sol.R),
        "Rbar": encode_vector(sol.Rbar)})
    files["negative_weight"] = put("bad_graph.json", {
        "kind": "graph", "vertices": ["a", "b"],
        "edges": [["a", "b", -1.0], ["b", "a", 1.0]]})
    files["malformed"] = put("broken.json", {"kind": "hilbert", "n": 2})
    files["not_json"] = str(root / "not_json.json")
    (root / "not_json.json").write_text("{this is not json")
    return files


def _run(command, inputs, **kw):
    req = CommandRequest(command=command, inputs=list(inputs), **kw)
    return run(req)


def test_parse_spec_kinds(fixtures):
    kind, X = parse_spec(fixtures["hilbert"])
    assert kind == "hilbert" and X.dim == 2
    kind, g = parse_spec(fixtures["graph"])
    assert kind == "graph" and len(g.edges) == 4
    kind, e = parse_spec(fixtures["expectation"])
    assert kind == "expectation"
    kind, X2 = parse_spec(fixtures["mn"])
    assert kind == "bimodule" and X2.dim == 2


def test_parse_spec_errors(fixtures):
    with pytest.raises(ParseError):
        parse_spec(fixtures["negative_weight"])
    with pytest.raises(ParseError):
        parse_spec(fixtures["malformed"])
    with pytest.raises(ParseError):
        parse_spec(fixtures["not_json"])


def _one_request_per_command(fixtures):
    return [
        ("validate", [fixtures["hilbert"]]),
        ("index", [fixtures["hilbert"]]),
        ("conjugate", [fixtures["hilbert"]]),
        ("verify", [fixtures["hilbert"], fixtures["solution"]]),
        ("mindim", [fixtures["hilbert"]]),
        ("basic", [fixtures["hilbert"]]),
        ("fibers", [fixtures["hilbert"]]),
        ("morita", [fixtures["mn"]]),
        ("tensor", [fixtures["hilbert"], fixtures["hilbert"]]),
        ("graph", [fixtures["graph"]]),
        ("expectation", [fixtures["expectation"]]),
        ("hilbert", [fixtures["hilbert"]]),
    ]


def test_exit_codes_per_command(fixtures):
    for command, inputs in _one_request_per_command(fixtures):
        status, report = _run(command, inputs)
        assert status == 0, (command, report.get("error"), report.get("results"))
        assert report["passed"] is True
        assert report["schema"] == "bimod-report/5"


_JSON_LAYOUT = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE


def test_json_output_matches_the_double_sanitized_report(fixtures, monkeypatch, tmp_path):
    # main writes run()'s report as it is: its results hold JSON types only,
    # and sorted keys order them as the old sanitizing walk did; json reads
    # the bytes back as the report
    cases = _one_request_per_command(fixtures)
    assert sorted(c for c, _ in cases) == sorted(cli.COMMANDS)
    out = tmp_path / "report.json"
    for command, inputs in cases:
        status, report = _run(command, inputs)
        expected = orjson.dumps(sanitize(report), option=_JSON_LAYOUT)
        monkeypatch.setattr(cli, "run", lambda req: (status, report))
        assert main([command, *inputs, "--out", str(out)]) == status
        assert out.read_bytes() == expected, command
        assert json.loads(out.read_bytes()) == sanitize(report), command


# the benchmark's determinism check drops this line before comparing two reports
_WALL_LINE = re.compile(rb'^\s*"wall_time_ms": .*\n', re.M)


def test_two_runs_write_equal_bytes_but_the_wall_time_line(fixtures, tmp_path):
    # one key per line: the wall time alone sits on its line, so dropping
    # that line leaves byte-equal reports
    for command, inputs in _one_request_per_command(fixtures):
        bodies = []
        for run_index in range(2):
            out = tmp_path / f"{command}_{run_index}.json"
            main([command, *inputs, "--out", str(out)])
            text = out.read_bytes()
            body = _WALL_LINE.sub(b"", text)
            assert len(body) < len(text) and b"wall_time_ms" not in body, command
            bodies.append(body)
        assert bodies[0] == bodies[1], command


def test_main_writes_to_a_text_stream_without_a_buffer(fixtures):
    # without --out the JSON report goes to sys.stdout as text
    with contextlib.redirect_stdout(io.StringIO()) as stream:
        assert main(["hilbert", fixtures["hilbert"]]) == 0
    text = stream.getvalue()
    assert text.endswith("\n")
    assert json.loads(text)["results"]["trace"] == 3.0


def test_every_report_holds_json_types_only(fixtures):
    native = (dict, list, str, int, float, bool, type(None))

    def walk(obj, path):
        assert type(obj) in native, (path, type(obj))
        if isinstance(obj, (dict, list)):
            for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
                walk(value, f"{path}.{key}")

    for command, inputs in _one_request_per_command(fixtures):
        walk(_run(command, inputs)[1], command)


def test_memory_error_exits_2_as_too_large(fixtures, monkeypatch):
    def exhausted(req):
        raise MemoryError("Unable to allocate 8.17 GiB")

    monkeypatch.setitem(cli._HANDLERS, "validate", exhausted)
    status, report = _run("validate", [fixtures["hilbert"]])
    assert status == 2 and report["passed"] is False
    assert report["error"].startswith("input too large for this machine")


def test_parser_is_built_once(fixtures, tmp_path, monkeypatch):
    out = str(tmp_path / "report.json")
    main(["hilbert", fixtures["hilbert"], "--out", out])
    built = []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1))
    for _ in range(3):
        assert main(["hilbert", fixtures["hilbert"], "--out", out]) == 0
    assert not built


def _content(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("X", [random_bimodule([2, 1, 1], [2, 1, 1],
                                               [[1, 1, 0], [1, 1, 1], [0, 1, 2]], seed=1),
                               dict(corpus())["random_112"]], ids=["ladder_d13", "random_112"])
def test_each_module_builds_its_frame_operator_algebra_and_contragredient_once(
        X, tmp_path, monkeypatch):
    # builds are counted by the work they do, per module content: frame_operator
    # runs once per frame, for its residual, _commutant_columns once per L(X_B)
    # on the right action psi_hat, which none of these commands builds (the
    # frame of L(X_B) is read off the corners of psi), and every contragredient
    # is a new HilbertBimodule
    path = tmp_path / "X.json"
    path.write_text(json.dumps(encode_bimodule(X)))
    frames, algebras, modules = (collections.Counter() for _ in range(3))
    frame_operator, columns = bimodule.frame_operator, index._commutant_columns
    init = HilbertBimodule.__init__

    def counted_frame_operator(Y, vectors):
        frames[_content(Y.right_gram, Y.left_action, Y.right_action)] += 1
        return frame_operator(Y, vectors)

    def counted_columns(pairs, dim):
        if len(pairs) == 1 and dim == X.dim:
            algebras[_content(pairs[0][1])] += 1
        return columns(pairs, dim)

    def counted_init(self, A, B, dim, right_gram, left_action, right_action, *args, **kw):
        modules[_content(right_gram, left_action, right_action)] += 1
        init(self, A, B, dim, right_gram, left_action, right_action, *args, **kw)

    monkeypatch.setattr(bimodule, "frame_operator", counted_frame_operator)
    monkeypatch.setattr(index, "_commutant_columns", counted_columns)
    monkeypatch.setattr(HilbertBimodule, "__init__", counted_init)
    for command in ("index", "basic", "fibers", "conjugate"):
        for counter in (frames, algebras, modules):
            counter.clear()
        status, report = _run(command, [str(path)])
        assert status == 0, (command, report.get("error"))
        assert max(frames.values(), default=0) <= 1, (command, "tight frames", frames)
        assert not algebras, (command, "L(X_B)", algebras)
        assert max(modules.values()) <= 1, (command, "modules", modules)


@pytest.mark.parametrize("X", [random_bimodule([2, 1, 1], [2, 1, 1],
                                               [[1, 1, 0], [1, 1, 1], [0, 1, 2]], seed=1),
                               dict(corpus())["random_112"]], ids=["ladder_d13", "random_112"])
def test_index_and_tensor_build_no_tight_frame(X, tmp_path, monkeypatch):
    # the index elements come from the dual basis of the Gram: no frame
    # operator runs, on X, on its contragredient or on the product
    paths = []
    for name, Y in (("X", X), ("Xbar", contragredient(X))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(encode_bimodule(Y)))
    frames = collections.Counter()
    frame_operator = bimodule.frame_operator

    def counted_frame_operator(Y, vectors):
        frames[_content(Y.right_gram, Y.left_action, Y.right_action)] += 1
        return frame_operator(Y, vectors)

    monkeypatch.setattr(bimodule, "frame_operator", counted_frame_operator)
    for command, inputs in (("index", paths[:1]), ("tensor", paths)):
        frames.clear()
        status, report = _run(command, [str(p) for p in inputs])
        assert status == 0, (command, report.get("error"))
        assert sum(frames.values()) == 0, (command, frames)


# the d = 13, 18 and 24 shapes of the conjugate round trip
_ROUNDTRIP_SHAPES = [
    ([2, 1, 1], [2, 1, 1], [[1, 1, 0], [1, 1, 1], [0, 1, 2]]),
    ([2, 1, 1], [2, 1, 1], [[2, 1, 0], [1, 1, 1], [0, 2, 2]]),
    ([2, 1, 1], [2, 1, 1], [[2, 1, 1], [2, 1, 1], [1, 2, 2]]),
]


@pytest.mark.parametrize("shape", _ROUNDTRIP_SHAPES, ids=["d13", "d18", "d24"])
def test_tensor_conjugate_verify_validate_assemble_no_dense_tensor(shape, tmp_path, monkeypatch):
    # every layer on these paths reads the stacks at the matrix units: no
    # dense Gram or action tensor is assembled, for the round-trip module,
    # its contragredient or their product
    X = random_bimodule(*shape, seed=1)
    Xbar = contragredient(X)
    paths = {}
    for name, Y in (("X", X), ("Xbar", Xbar), ("Z", bimodule.tensor(X, Xbar))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(encode_bimodule(Y)))
    assembled = []

    def refused(stack, alg, gram):
        assembled.append((stack.shape, alg.blocks, gram))
        raise AssertionError("a dense structure tensor was assembled")

    monkeypatch.setattr(bimodule, "_assemble", refused)
    requests = [("tensor", ["X", "Xbar"])]
    for name in ("X", "Z"):
        requests += [("validate", [name]), ("conjugate", [name]), ("verify", [name, "solution"])]
    for command, names in requests:
        if command == "verify":     # the solution written by the conjugate request before
            paths["solution"] = tmp_path / "solution.json"
            res = report["results"]
            paths["solution"].write_text(json.dumps(
                {"kind": "solution", "R": res["R"], "Rbar": res["Rbar"]}))
        status, report = _run(command, [str(paths[name]) for name in names])
        assert status == 0 and not assembled, (command, names, report.get("error"), assembled)


# the d = 13 and 18 shapes of the commutant ladder
_LADDER_SHAPES = [([2, 1], [2, 1], [[1, 1], [2, 3]]), ([2, 1], [2, 1], [[2, 2], [2, 2]])]


@pytest.mark.parametrize("shape", _LADDER_SHAPES, ids=["d13", "d18"])
def test_ladder_commands_and_index_assemble_no_dense_tensor(shape, tmp_path, monkeypatch):
    # the commands of the commutant ladder, and index, read the stacks too
    path = tmp_path / "X.json"
    path.write_text(json.dumps(encode_bimodule(random_bimodule(*shape, seed=1))))
    assembled = []

    def refused(stack, alg, gram):
        assembled.append((stack.shape, alg.blocks, gram))
        raise AssertionError("a dense structure tensor was assembled")

    monkeypatch.setattr(bimodule, "_assemble", refused)
    for command in ("fibers", "basic", "mindim", "morita", "index"):
        status, report = _run(command, [str(path)])
        assert status == 0 and not assembled, (command, report.get("error"), assembled)


# diag_expectation_m2 and two_block_expectation as expectation files
_EXPECTATION_FILES = {
    "diag_m2": (diag_expectation_m2, {
        "kind": "expectation", "B": {"blocks": [2]},
        "A_blocks": {"blocks": [1, 1], "multiplicity": [[1, 1]]}, "E_weights": [[1.0, 1.0]]}),
    "two_block": (two_block_expectation, {
        "kind": "expectation", "B": {"blocks": [2, 2]},
        "A_blocks": {"blocks": [2], "multiplicity": [[1], [1]]}, "E_weights": [[0.5], [0.5]]}),
}


@pytest.mark.parametrize("name", sorted(_EXPECTATION_FILES))
def test_expectation_assembles_no_dense_tensor(name, tmp_path, monkeypatch):
    # the expectation's module is built at the matrix units, and nothing the
    # command runs on it, its contragredient or their product assembles a
    # dense tensor
    build, obj = _EXPECTATION_FILES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    spec = parse_spec(str(path))[1]
    assert all(np.array_equal(a, b) for a, b in zip(spec.images, build().images))
    assembled = []

    def refused(stack, alg, gram):
        assembled.append((stack.shape, alg.blocks, gram))
        raise AssertionError("a dense structure tensor was assembled")

    monkeypatch.setattr(bimodule, "_assemble", refused)
    status, report = _run("expectation", [str(path)])
    assert status == 0 and not assembled, (report.get("error"), assembled)


@pytest.mark.parametrize("name", sorted(_EXPECTATION_FILES))
def test_expectation_runs_least_multipliers_once(name, tmp_path, monkeypatch):
    # the gap and the certificate read one set of least multipliers of
    # (E, iota), kept with the spec
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_EXPECTATION_FILES[name][1]))
    calls, least_multipliers = [], constructors.least_multipliers

    def counted(*args):
        calls.append(args)
        return least_multipliers(*args)

    monkeypatch.setattr(constructors, "least_multipliers", counted)
    status, report = _run("expectation", [str(path)])
    assert status == 0 and len(calls) == 1, (report.get("error"), len(calls))


# the corpus's expectation files, and the benchmark's expectation_extra shape
# (B = M_2 + M_2 over A = M_2) at two more weightings
_TENSOR_DIM_FILES = {**{name: obj for name, (_, obj) in _EXPECTATION_FILES.items()}, **{
    f"two_block_{w}": {"kind": "expectation", "B": {"blocks": [2, 2]},
                       "A_blocks": {"blocks": [2], "multiplicity": [[1], [1]]},
                       "E_weights": [[w], [1.0 - w]]} for w in (0.3, 0.61)}}


@pytest.mark.parametrize("name", sorted(_TENSOR_DIM_FILES))
def test_expectation_reports_the_product_dimension_without_building_it(name, tmp_path,
                                                                        monkeypatch):
    # tensor_dim is the dimension of Y (x)_B X of from_expectation, read off
    # X = B as dim B: the command builds neither the contragredient nor a product
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_TENSOR_DIM_FILES[name]))
    product_dim = constructors.from_expectation(parse_spec(str(path))[1])[2].dim

    def refused(*args):
        raise AssertionError("expectation built a contragredient or a tensor product")

    for module in (bimodule, cli, constructors, index, bimod.conjugation):
        for fn in ("tensor", "contragredient"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, refused)
    status, report = _run("expectation", [str(path)])
    assert status == 0, report.get("error")
    assert report["results"]["tensor_dim"] == product_dim


@pytest.mark.parametrize("name", sorted(_EXPECTATION_FILES))
def test_expectation_round_trip_compares_the_quasi_basis_route(name, tmp_path, monkeypatch):
    # round_trip_residual compares Ind(E) = sum_i u_i u_i^* over the
    # quasi-basis (the w-frame route) with r-ind of X (the dual-basis route):
    # round-off on the file, and a shift of the quasi-basis element by
    # 1e-6 * 1 fails the 1e-9 gate
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_EXPECTATION_FILES[name][1]))
    status, report = _run("expectation", [str(path)])
    assert status == 0 and report["results"]["round_trip_residual"] <= 1e-12, report
    certify = cli.minimal_cp_multiplier

    def shifted(spec):
        cert = certify(spec)
        return {**cert, "index_element": cert["index_element"] + 1e-6 * spec.B.identity()}

    monkeypatch.setattr(cli, "minimal_cp_multiplier", shifted)
    status, report = _run("expectation", [str(path)])
    assert status == 1 and report["results"]["round_trip_residual"] > 1e-7, report


def _counting(monkeypatch, targets) -> collections.Counter:
    """Wrap each dotted name in ``targets`` (a function of a ``bimod`` module,
    or a method of a class there) with a call counter keyed by its last part;
    the bindings of one function in several modules share the count."""
    counts = collections.Counter()
    for target in targets:
        owner, name = target.rsplit(".", 1)
        original = getattr(functools.reduce(getattr, owner.split(".")[1:], bimod), name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(target, counted)
    return counts


def test_commands_compute_only_what_they_read(fixtures, monkeypatch):
    # right_index cuts no support projection and caches nothing on X; index
    # cuts p and q for its report and basic the support of r-ind; conjugate
    # forms (r|r) four times (the two norms and the two intertwiner residuals)
    # and reads R*R and Rbar*Rbar off them, and peels six vectors: those four
    # and one per equation map; basic applies F to T and phi(a)
    # stacked and then to phi E(T), and reads F(1) once; expectation runs
    # right_index once; tensor takes no square root of a Gram; and no module
    # command on a graph file builds a frame operator
    counts = _counting(monkeypatch, [
        "bimod.index.support_projection", "bimod.conjugation._inner",
        "bimod.conjugation._peel",
        "bimod.index.LeftInnerExtension.apply_matrix",
        "bimod.index.LeftInnerExtension.index_element",
        "bimod.cli.right_index", "bimod.index.right_index", "bimod.conjugation.right_index",
        "bimod.bimodule._psd_sqrt_and_inv",
        "bimod.bimodule.frame_operator", "bimod.constructors.frame_operator"])
    X = random_bimodule([2, 1], [2, 1], [[1, 1], [1, 1]], seed=1)
    bimod.index.right_index(X)
    assert counts == {"right_index": 1} and not X._cache, (counts, set(X._cache))
    hilbert, graph = fixtures["hilbert"], fixtures["graph"]
    basic = {"support_projection": 1, "apply_matrix": 2, "index_element": 1}
    for command, inputs, want in [
            ("index", [hilbert], {"support_projection": 2}),
            ("conjugate", [hilbert], {"_inner": 4, "_peel": 6}),
            ("basic", [hilbert], basic),
            ("expectation", [fixtures["expectation"]], {"right_index": 1}),
            ("tensor", [hilbert, hilbert], {"right_index": 1, "_psd_sqrt_and_inv": 0}),
            ("index", [graph], {"frame_operator": 0}),
            ("basic", [graph], {**basic, "frame_operator": 0})]:
        counts.clear()
        status, report = _run(command, inputs)
        got = {name: counts[name] for name in want}
        assert status == 0 and got == want, (command, inputs, got, report)


def test_parse_spec_pauses_the_collector_and_restores_it(fixtures, monkeypatch):
    # the collector is off for the parse tree's whole life: while the file is
    # read and parsed and while it is decoded, and back in the caller's state
    # after a good file and after malformed JSON
    during = collections.defaultdict(list)
    read_json, decode_bimodule = cli._read_json, serde.decode_bimodule

    def recording_read_json(path):
        during["read"].append(gc.isenabled())
        return read_json(path)

    def recording_decode_bimodule(obj):
        during["decode"].append(gc.isenabled())
        return decode_bimodule(obj)

    monkeypatch.setattr(cli, "_read_json", recording_read_json)
    monkeypatch.setattr(serde, "decode_bimodule", recording_decode_bimodule)
    enabled = gc.isenabled()
    try:
        for on in (True, False):
            gc.enable() if on else gc.disable()
            assert parse_spec(fixtures["mn"])[0] == "bimodule"
            assert gc.isenabled() is on
            status, report = _run("hilbert", [fixtures["not_json"]])
            assert status == 2 and "not valid JSON" in report["error"]
            assert gc.isenabled() is on
    finally:
        gc.enable() if enabled else gc.disable()
    assert during == {"read": [False] * 4, "decode": [False] * 2}


def test_index_values(fixtures):
    status, report = _run("index", [fixtures["hilbert"]])
    assert status == 0
    assert report["results"]["r_num"] == pytest.approx(3.0)
    assert report["results"]["l_num"] == pytest.approx(1.5)


def test_mindim_reports_the_certified_closed_form(fixtures):
    status, report = _run("mindim", [fixtures["hilbert"]])
    assert status == 0
    res = report["results"]
    assert res["dim_hat"] == 2.0
    assert res["multiplicity_matrix"] == [[2]]
    assert res["certificate_residual"] <= 1e-10


def test_budget_flag_still_parses(fixtures, tmp_path):
    out = tmp_path / "report.json"
    assert main(["mindim", fixtures["hilbert"], "--budget", "2000", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["dim_hat"] == 2.0


def test_expectation_checks_and_builds_once(fixtures, monkeypatch):
    from bimod import constructors
    calls = {"check": 0, "module": 0}
    check, identity = constructors.ExpectationSpec._check, constructors.identity_bimodule

    def counted_check(spec):
        calls["check"] += 1
        return check(spec)

    def counted_identity(alg):      # called once per build of the module X
        calls["module"] += 1
        return identity(alg)

    monkeypatch.setattr(constructors.ExpectationSpec, "_check", counted_check)
    monkeypatch.setattr(constructors, "identity_bimodule", counted_identity)
    status, _ = _run("expectation", [fixtures["expectation"]])
    assert status == 0
    assert calls == {"check": 1, "module": 1}


def test_morita_column_confirms_identities(fixtures):
    status, report = _run("morita", [fixtures["mn"]])
    assert status == 0
    assert report["results"]["is_morita"] is True
    assert report["results"]["r_ind_identity_residual"] < 1e-8


def test_verify_bad_solution_exits_one(fixtures):
    status, report = _run("verify", [fixtures["hilbert"], fixtures["bad_solution"]])
    assert status == 1
    assert report["results"]["residual_1"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_of_a_scaled_solution_exits_one_or_two(tmp_path):
    # at 1e153 the residuals are 1e306 and finite; from 1e154 (R|R) overflows,
    # which is an input too large to evaluate, not a fault of the toolkit
    X = random_bimodule([2, 1], [2, 1], [[1, 1], [1, 1]], seed=1)
    module = tmp_path / "d9.json"
    module.write_text(json.dumps(encode_bimodule(X)))
    sol = build_conjugate(X)
    for scale, want in ((1e153, 1), (1e154, 2), (1e300, 2)):
        path = tmp_path / f"solution_{scale:g}.json"
        path.write_text(json.dumps({"kind": "solution", "R": encode_vector(scale * sol.R),
                                    "Rbar": encode_vector(scale * sol.Rbar)}))
        status, report = _run("verify", [str(module), str(path)])
        assert status == want, (scale, report)
        if want == 1:
            assert report["results"]["residual_1"] == pytest.approx(1e306, rel=1e-6)
        else:
            assert "too large to evaluate" in report["error"]
            assert "internal error" not in report["error"]


def test_verify_quotient_coordinate_files(fixtures, tmp_path):
    # files in the quotient coordinates of tensor() are product coordinates
    # where the product has no kernel (V = I) and are refused elsewhere
    from bimod import contragredient, tensor, tensor_push
    from helpers import corpus

    def quotient_file(X, name):
        sol = build_conjugate(X)
        Y = contragredient(X)
        R, Rbar = tensor_push(tensor(Y, X), sol.R), tensor_push(tensor(X, Y), sol.Rbar)
        path = tmp_path / name
        path.write_text(json.dumps({"kind": "solution", "R": encode_vector(R),
                                    "Rbar": encode_vector(Rbar)}))
        return str(path), len(R)

    hilbert_sol, n = quotient_file(from_hilbert_space(2, np.diag([1.0, 2.0])), "h.json")
    assert n == 4
    status, report = _run("verify", [fixtures["hilbert"], hilbert_sol])
    assert status == 0 and report["passed"] is True

    X = dict(corpus())["random_112"]
    module = tmp_path / "random_112.json"
    module.write_text(json.dumps(encode_bimodule(X)))
    old_sol, n = quotient_file(X, "random_112_solution.json")
    assert n == 8
    status, report = _run("verify", [str(module), old_sol])
    assert status == 2
    assert "expected 16" in report["error"] and "bimod conjugate" in report["error"]


def test_input_errors_exit_two(fixtures, tmp_path, capsys):
    status, report = _run("graph", [fixtures["negative_weight"]])
    assert status == 2
    assert "weight" in report["error"]
    status, report = _run("hilbert", [fixtures["malformed"]])
    assert status == 2
    status, report = _run("index", ["/nonexistent/file.json"])
    assert status == 2
    status, report = _run("verify", [fixtures["hilbert"]])
    assert status == 2      # missing second input
    directory = os.path.dirname(fixtures["hilbert"])
    for command, inputs in (("index", [directory]), ("verify", [fixtures["hilbert"], directory])):
        status, report = _run(command, inputs)
        assert status == 2 and report["error"].startswith(f"cannot read {directory}"), report
    for kw, word in (({"tol": float("nan")}, "--tol"), ({"tol": -1.0}, "--tol"),
                     ({"seed": -1}, "--seed"), ({"seed": 2**64}, "--seed"),
                     ({"seed": -2**64}, "--seed")):
        status, report = _run("basic", [fixtures["hilbert"]], **kw)
        assert status == 2 and report["error"].startswith(word), report
        orjson.dumps(report)        # the error report stays writable
    out = tmp_path / "missing" / "report.json"
    assert main(["validate", fixtures["hilbert"], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and str(out) in captured.err
    # reports are JSON only: --format is an unrecognized argument
    with pytest.raises(SystemExit) as exc:
        main(["validate", fixtures["hilbert"], "--format", "text"])
    assert exc.value.code == 2 and "--format" in capsys.readouterr().err
    # no command reads an algebra file, so its kind is unknown
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps({"kind": "algebra", "blocks": [2]}))
    status, report = _run("index", [str(algebra)])
    assert status == 2 and report["error"].startswith("unknown kind 'algebra'"), report


def _two_vertex_graph(w):
    return {"kind": "graph", "vertices": ["a", "b"], "edges": [["a", "b", 1.0], ["b", "a", w]]}


def test_fibers_writes_a_bound_beyond_64_bits(tmp_path, capsys):
    """T = diag(9e8, ..., 9e8, 1) has r-ind 4.5e9 + 1 and lambda' 1, so the
    bound floor(c/lambda')^2 is about 2.0e19, past orjson's integers: the
    report writes it as a float.  The graph a -> b (1), b -> a (1e10) too.
    On that graph with b -> a at 1e155 or 1e200 the bound is past the double
    range, and the report writes it as null."""
    T = np.diag([9e8] * 5 + [1.0])
    docs = {"hilbert": {"kind": "hilbert", "n": 6, "T": T.tolist()},
            "bimodule": encode_bimodule(from_hilbert_space(6, T)),
            "graph": _two_vertex_graph(1e10),
            "graph_1e155": _two_vertex_graph(1e155), "graph_1e200": _two_vertex_graph(1e200)}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["fibers", str(path)]) == 0, name
        report = orjson.loads(capsys.readouterr().out)
        bounds = [f["bound"] for f in report["results"]["fibers"]]
        assert report["passed"], (name, bounds)
        if name.startswith("graph_"):
            assert bounds == [1, None], (name, bounds)
            continue
        assert max(bounds) >= 2**64, (name, bounds)
        assert all(isinstance(b, int) == (b < 2**64) for b in bounds), (name, bounds)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("w", [1.0, 1e9, 1e155, 1e200, 1e306, 1e307, 1e308])
def test_no_command_exits_three_near_the_double_range(w, tmp_path):
    """Every module command and ``graph`` on the graph a -> b (1), b -> a (w)
    ends with a verdict or an input error, never an internal error; verify
    reads the solution of the graph at w = 1."""
    path, solution = tmp_path / "graph.json", tmp_path / "solution.json"
    path.write_text(json.dumps(_two_vertex_graph(w)))
    sol = build_conjugate(from_weight_graph(
        GraphSpec(["a", "b"], [("a", "b", 1.0), ("b", "a", 1.0)])).bimodule)
    solution.write_text(json.dumps({"kind": "solution", "R": encode_vector(sol.R),
                                    "Rbar": encode_vector(sol.Rbar)}))
    module = [str(path)]
    requests = [(command, module) for command in
                ("validate", "index", "conjugate", "mindim", "basic", "fibers", "morita", "graph")]
    requests += [("verify", module + [str(solution)]), ("tensor", module + module)]
    statuses = {command: _run(command, inputs)[0] for command, inputs in requests}
    assert 3 not in statuses.values(), statuses


def test_every_toolkit_error_exits_two(fixtures, monkeypatch):
    def handler(req):
        raise ContractError("sqrt is defined on [0, inf) but the spectrum reaches -1")

    monkeypatch.setitem(cli._HANDLERS, "validate", handler)
    status, report = _run("validate", [fixtures["hilbert"]])
    assert status == 2
    assert report["passed"] is False
    assert "spectrum" in report["error"]


def test_internal_error_exits_three(fixtures, monkeypatch):
    def handler(req):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "validate", handler)
    status, report = _run("validate", [fixtures["hilbert"]])
    assert status == 3
    assert report["passed"] is False
    assert report["error"] == "internal error: RuntimeError: boom"
    assert "results" not in report


_CYCLE2 = ["a", "b"]
_EXPECTATION = {"kind": "expectation", "B": {"blocks": [2]},
                "A_blocks": {"blocks": [1, 1], "multiplicity": [[1, 1]]},
                "E_weights": [[1.0, 1.0]]}


def _random_112(edit):
    """The corpus module random_112 (d = 4) as a file, after ``edit``."""
    obj = encode_bimodule(random_bimodule([1, 1], [2], [[1], [1]], seed=3))
    edit(obj)
    return obj


def _shorten(rows, i):
    rows[i] = rows[i][:-1]


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


_MALFORMED = {
    "edge_weight_text": ({"kind": "graph", "vertices": _CYCLE2,
                          "edges": [["a", "b", "heavy"], ["b", "a", 1.0]]}, "weight"),
    "edge_not_list": ({"kind": "graph", "vertices": _CYCLE2,
                       "edges": [["a", "b", 1.0], 5]}, "edge"),
    "n_text": ({"kind": "hilbert", "n": "two", "T": [[1, 0], [0, 2]]}, "n must"),
    "weights_text": ({**_EXPECTATION, "E_weights": [["x", 1.0]]}, "E_weights"),
    "edge_weight_inf": ({"kind": "graph", "vertices": _CYCLE2,
                         "edges": [["a", "b", float("inf")], ["b", "a", 1.0]]}, "edge"),
    "edges_not_list": ({"kind": "graph", "vertices": _CYCLE2, "edges": 3}, "edges"),
    "blocks_text": ({**_EXPECTATION, "B": {"blocks": ["x"]},
                     "A_blocks": {"blocks": [1], "multiplicity": [[1]]},
                     "E_weights": [[1.0]]}, "B block"),
    "weights_shape": ({**_EXPECTATION, "E_weights": [[1.0]]}, "E_weights"),
    # bimodule, hilbert and solution files: shapes, pairs and integer fields
    "right_gram_short_row": (_random_112(lambda m: _shorten(m["right_gram"], 1)),
                             "right_gram"),
    "left_action_short_row": (_random_112(lambda m: _shorten(m["left_action"][0], 0)),
                              "left_action block 0"),
    "dim_huge": (_random_112(lambda m: m.update(dim=10**9)), "dim"),
    "gram_three_element_pair": (_random_112(lambda m: _set(
        m, ["right_gram", 0, 0, "blocks", 0, 0, 0], [1.0, 2.0, 3.0])), "right_gram block 0"),
    "T_mixed_reals_and_pairs": ({"kind": "hilbert", "n": 2,
                                 "T": [[1, [0, 0]], [[0, 0], 2]]}, "T"),
    "left_gram_nan": (_random_112(lambda m: _set(
        m, ["left_gram", 0, 0, "blocks", 1, 0, 0], [float("nan"), 0.0])), "left_gram block 1"),
    "solution_ragged": ({"kind": "solution", "R": [[1.0, 0.0], [2.0]],
                         "Rbar": [[1.0, 0.0]]}, "R"),
    "dim_fraction": (_random_112(lambda m: m.update(dim=4.5)), "dim"),
    "n_fraction": ({"kind": "hilbert", "n": 2.5, "T": [[1, 0], [0, 2]]}, "n must"),
    "blocks_fraction": (_random_112(lambda m: m.update(B={"blocks": [2.7]})), "B block"),
    "multiplicity_fraction": ({**_EXPECTATION, "A_blocks": {
        "blocks": [1, 1], "multiplicity": [[1.9, 1.2]]}}, "multiplicity"),
    "dim_negative": (_random_112(lambda m: m.update(dim=-1)), "dim"),
    "dim_overflow": (json.dumps(_random_112(lambda m: m.update(dim="DIM"))).replace(
        '"DIM"', "1e400"), "dim"),
    "T_400_digit_integer": ({"kind": "hilbert", "n": 2, "T": [[10**400, 0], [0, 2]]}, "T"),
    "string_not_utf8": (b'{"kind": "hilbert", "n": 2, "T": [[1, 0], [0, 2]], "note": "\xe9\xff"}',
                        "not valid UTF-8 JSON"),
    # values of the right length that are no pair or row: the decoder's len
    # passes take them, and the leaf check refuses what they flatten into
    "gram_string_pair": (_random_112(lambda m: _set(
        m, ["right_gram", 0, 0, "blocks", 0, 0, 0], "ab")), "right_gram block 0"),
    "left_action_object_row": (_random_112(lambda m: _set(
        m, ["left_action", 0, 0, 0, 0], {str(i): [0.0, 0.0] for i in range(4)})),
        "left_action block 0"),
    "gram_nested_pair": (_random_112(lambda m: _set(
        m, ["right_gram", 0, 0, "blocks", 0, 0, 0], [[1, 2], [3, 4]])), "right_gram block 0"),
}


@pytest.mark.parametrize("spec, field", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_values_exit_two(spec, field, tmp_path):
    path, out = tmp_path / "input.json", tmp_path / "report.json"
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    assert main(["validate", str(path), "--out", str(out)]) == 2
    assert field in json.loads(out.read_text())["error"]


def test_integers_beyond_64_bits_read_as_the_nearest_double(tmp_path):
    # orjson reads an integer literal outside the 64-bit range as the nearest
    # double; one beyond the double range is still refused, naming the field
    # (T_400_digit_integer above).  The weight T is the left Gram of C^n.
    path = tmp_path / "hilbert_T.json"
    path.write_text(json.dumps({"kind": "hilbert", "n": 2, "T": [[10**20, 0], [0, 2]]}))
    kind, X = parse_spec(str(path))
    assert kind == "hilbert" and X.left_gram[0, 0, 0, 0] == 1e20


def test_validation_failure_exits_one(fixtures, tmp_path):
    X = from_hilbert_space(2, np.diag([1.0, 2.0]))
    obj = encode_bimodule(X)
    obj["right_gram"][0][1]["blocks"][0][0][0] = [0.3, 0.0]   # break Hermitian symmetry
    path = tmp_path / "broken_module.json"
    path.write_text(json.dumps(obj))
    status, report = _run("validate", [str(path)])
    assert status == 1
    names = [c["name"] for c in report["results"]["validation"]["checks"]
             if not c["passed"]]
    assert "right_gram_hermitian" in names


def test_determinism_byte_identical(fixtures, tmp_path):
    commands = [
        ("validate", [fixtures["hilbert"]]),
        ("index", [fixtures["graph"]]),
        ("conjugate", [fixtures["hilbert"]]),
        ("verify", [fixtures["hilbert"], fixtures["solution"]]),
        ("mindim", [fixtures["hilbert"]]),
        ("graph", [fixtures["graph"]]),
        ("expectation", [fixtures["expectation"]]),
        ("morita", [fixtures["mn"]]),
    ]
    for command, inputs in commands:
        payloads = []
        for rep in range(2):
            status, report = _run(command, inputs, seed=0)
            report.pop("wall_time_ms")
            payloads.append(json.dumps(report, sort_keys=True).encode())
        assert payloads[0] == payloads[1], command


def test_no_command_imports_numpy_ma(fixtures, tmp_path):
    # one fresh interpreter runs every command, the module commands on a
    # corpus file (tensor with its contragredient), and then looks for
    # numpy.ma, which np.unique imports (11 ms, 1.2 MB)
    X = dict(corpus())["random_112"]
    sol = build_conjugate(X)
    paths = {}
    for name, obj in (("x", encode_bimodule(X)), ("x_bar", encode_bimodule(contragredient(X))),
                      ("solution", {"kind": "solution", "R": encode_vector(sol.R),
                                    "Rbar": encode_vector(sol.Rbar)})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    module = [str(paths["x"])]
    argvs = [[command, *module] for command in
             ("validate", "index", "conjugate", "mindim", "basic", "fibers", "morita")]
    argvs += [["verify", *module, str(paths["solution"])],
              ["tensor", *module, str(paths["x_bar"])],
              ["graph", fixtures["graph"]], ["expectation", fixtures["expectation"]],
              ["hilbert", fixtures["hilbert"]]]
    assert sorted({argv[0] for argv in argvs}) == sorted(cli.COMMANDS)
    script = ("import contextlib, io, json, sys\n"
              "from bimod.cli import main\n"
              "statuses = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        statuses.append(main(argv))\n"
              "print(json.dumps([statuses, 'numpy.ma' in sys.modules]))\n")
    src = str(pathlib.Path(bimod.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    statuses, imported = json.loads(out.stdout)
    assert statuses == [0] * len(argvs) and not imported


def test_main_writes_report(fixtures, tmp_path):
    out = tmp_path / "report.json"
    status = main(["hilbert", fixtures["hilbert"], "--out", str(out)])
    assert status == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["results"]["trace"] == 3.0


def test_every_traced_benchmark_hook_is_a_callable_of_its_layer():
    # the traced benchmark run wraps bimod.<layer>.<name> for each entry of
    # bench/spans.LAYERS: a renamed function fails here, not in that run
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    layers = runpy.run_path(str(path), run_name="bench_spans")["LAYERS"]
    for layer, names in layers.items():
        module = importlib.import_module(f"bimod.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"bimod.{layer}.{name}"
