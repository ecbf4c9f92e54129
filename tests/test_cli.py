import argparse
import collections
import gc
import hashlib
import json

import numpy as np
import pytest

from bimod import (SpectrumDomainError, build_conjugate, column_bimodule, contragredient,
                   from_hilbert_space)
from bimod import HilbertBimodule, bimodule, cli, index, serde
from bimod.cli import CommandRequest, main, parse_spec, run
from bimod.serde import ParseError, encode_bimodule, encode_vector
from helpers import corpus, random_bimodule, sanitize


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
        assert report["schema"] == "bimod-report/4"


def test_json_output_matches_the_double_sanitized_report(fixtures, monkeypatch, tmp_path):
    # main writes run()'s report as it is: its results hold JSON types only,
    # and sort_keys orders the keys as the old sanitizing walk did
    cases = _one_request_per_command(fixtures)
    assert sorted(c for c, _ in cases) == sorted(cli.COMMANDS)
    out = tmp_path / "report.json"
    for command, inputs in cases:
        status, report = _run(command, inputs)
        expected = json.dumps(sanitize(report), indent=2, sort_keys=True) + "\n"
        monkeypatch.setattr(cli, "run", lambda req: (status, report))
        assert main([command, *inputs, "--out", str(out)]) == status
        assert out.read_text() == expected, command
        assert main([command, *inputs, "--out", str(out), "--format", "text"]) == status
        assert out.read_text() == cli._render_text(sanitize(report)), command


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
    # runs twice per tight frame, _commutant_columns once per L(X_B) on the
    # right action psi_hat, and every contragredient is a new HilbertBimodule
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
        assert max(frames.values(), default=0) <= 2, (command, "tight frames", frames)
        assert max(algebras.values(), default=0) <= 1, (command, "L(X_B)", algebras)
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

    def counted_check(spec, tol):
        calls["check"] += 1
        return check(spec, tol)

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


def test_input_errors_exit_two(fixtures):
    status, report = _run("graph", [fixtures["negative_weight"]])
    assert status == 2
    assert "weight" in report["error"]
    status, report = _run("hilbert", [fixtures["malformed"]])
    assert status == 2
    status, report = _run("index", ["/nonexistent/file.json"])
    assert status == 2
    status, report = _run("verify", [fixtures["hilbert"]])
    assert status == 2      # missing second input


def test_every_toolkit_error_exits_two(fixtures, monkeypatch):
    def handler(req):
        raise SpectrumDomainError("sqrt is defined on [0, inf) but the spectrum reaches -1")

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


def test_main_writes_report(fixtures, tmp_path):
    out = tmp_path / "report.json"
    status = main(["hilbert", fixtures["hilbert"], "--out", str(out)])
    assert status == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["results"]["trace"] == 3.0


def test_main_text_format(fixtures, capsys):
    status = main(["graph", fixtures["graph"], "--format", "text"])
    assert status == 0
    captured = capsys.readouterr().out
    assert "passed: True" in captured
