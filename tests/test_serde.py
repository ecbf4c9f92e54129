import copy
import json
import math
import struct

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bimod import HilbertBimodule, build_conjugate, cli, contragredient
from bimod.serde import (
    _complex_array,
    _pairs,
    decode_bimodule,
    encode_bimodule,
    encode_vector,
)
from helpers import corpus, random_bimodule, reference_decode_tensors, reference_encode_bimodule

# the round-trip shapes of the benchmark: d = 13, 18, 24
ROUNDTRIP_SHAPES = [
    ([2, 1, 1], [2, 1, 1], [[1, 1, 0], [1, 1, 1], [0, 1, 2]]),
    ([2, 1, 1], [2, 1, 1], [[2, 1, 0], [1, 1, 1], [0, 2, 2]]),
    ([2, 1, 1], [2, 1, 1], [[2, 1, 1], [2, 1, 1], [1, 2, 2]]),
]
# and of its commutant ladder: d = 13, 18
LADDER_SHAPES = [([2, 1], [2, 1], [[1, 1], [2, 3]]),
                 ([2, 1], [2, 1], [[2, 2], [2, 2]])]
TENSORS = ("right_gram", "left_action", "right_action", "left_gram")
MODULES = corpus() + [(f"{tag}_d{X.dim}", X)
                      for tag, shapes in (("roundtrip", ROUNDTRIP_SHAPES), ("ladder", LADDER_SHAPES))
                      for X in (random_bimodule(*shape, seed=1) for shape in shapes)]


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and a.view(float).tobytes() == b.view(float).tobytes()


@pytest.mark.parametrize("name, X", MODULES, ids=[name for name, _ in MODULES])
def test_block_codec_matches_per_scalar_reference(name, X, tmp_path):
    # the block decoder on json's parse, and parse_spec on orjson's, give
    # bitwise the tensors of the per-scalar reference decoder; and the dense
    # properties, assembled from the stacks at the matrix units, give back
    # bitwise the dense tensors that decoder passes to the constructor
    text = json.dumps(encode_bimodule(X))
    assert text == json.dumps(reference_encode_bimodule(X))
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    obj = json.loads(text)
    A, B, d, inputs = reference_decode_tensors(obj)
    new, old = decode_bimodule(obj), HilbertBimodule(A, B, d, *inputs)
    kind, parsed = cli.parse_spec(str(path), check=False)
    assert kind == "bimodule"
    for got in (new, parsed, old):
        assert got.dim == old.dim and got.A == old.A and got.B == old.B
        for field, want in zip(TENSORS, inputs):
            a = getattr(got, field)
            assert (a is None) == (want is None), field
            assert a is None or _bitwise_equal(a, want), field


_SMALLEST_NORMAL = 2.2250738585072014e-308
_hard_doubles = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    _SMALLEST_NORMAL, 2.225073858507201e-308, 0.1, 1e23, 9007199254740993.0])
_hard_texts = st.sampled_from([
    "2.2250738585072011e-308", "2.2250738585072012e-308", "4.9406564584124654e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623158e308",
    "1.7976931348623159e308", "9007199254740993", "9007199254740993.0",
    "1.00000000000000011102230246251565404236316680908203125", "-0", "-0.0", "0e-400"])


def _decimal(digits: int):
    """Texts -d.ddd...e±x with a ``digits``-digit mantissa, exponents to ±330."""
    return st.builds(lambda sign, m, e: f"{sign}{str(m)[0]}.{str(m)[1:]}e{e}",
                     st.sampled_from(["", "-"]),
                     st.integers(10 ** (digits - 1), 10 ** digits - 1),
                     st.integers(-330, 330))


_number_texts = st.one_of(
    _hard_texts, _decimal(17), _decimal(25),
    st.one_of(_hard_doubles, st.floats(allow_nan=False, allow_infinity=False),
              st.floats(-_SMALLEST_NORMAL, _SMALLEST_NORMAL)).map(repr))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_number_texts, min_size=1, max_size=40))
def test_orjson_reads_every_double_as_json_does(texts):
    # bitwise the same doubles; a text json reads as an infinity orjson refuses
    # (the parse then falls back to json, whose reading the decoders refuse)
    want = [float(json.loads(t)) for t in texts]
    doc = "[" + ", ".join(texts) + "]"
    if any(np.isinf(want)):
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(doc)
        return
    got = [float(v) for v in orjson.loads(doc)]
    assert struct.pack(f"{len(got)}d", *got) == struct.pack(f"{len(want)}d", *want), texts


_finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(hnp.arrays(complex, hnp.array_shapes(min_dims=1, max_dims=4, max_side=3),
                  elements=_finite_complex))
def test_complex_arrays_round_trip_bitwise(arr):
    back = _complex_array(json.loads(json.dumps(_pairs(arr))), arr.shape, "array")
    assert back.dtype == complex and _bitwise_equal(back, arr)


def _paths(obj, prefix=()):
    """Every path to a list, object or leaf below the root of ``obj``."""
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


_MODULE = encode_bimodule(dict(corpus())["random_112"])
_json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers()
    | st.sampled_from([10**400, -1, 0, 1, 2, 4, 1e308]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(list(_paths(_MODULE))), _json_values)
def test_one_replaced_value_never_exits_three(tmp_path_factory, path, value):
    obj = copy.deepcopy(_MODULE)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path_factory.getbasetemp() / "mutated_module.json"
    file.write_text(json.dumps(obj))
    status, report = cli.run(cli.CommandRequest("validate", [str(file)]))
    assert status in (0, 1, 2), report["error"]


@pytest.mark.parametrize("field", ["n", "kind"])
def test_a_value_nested_3000_deep_exits_two(tmp_path, field):
    # the messages that name the bad value stay bounded: a full repr of the
    # nested list would exceed the recursion limit
    deep = "[" * 3000 + "1" + "]" * 3000
    fields = {"kind": '"hilbert"', "n": "2", "T": "[[1, 0], [0, 2]]", field: deep}
    file = tmp_path / "deep.json"
    file.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
    status, report = cli.run(cli.CommandRequest("hilbert", [str(file)]))
    assert status == 2, report["error"]


# -- every input kind, through every command that reads it -------------------------

_X112 = dict(corpus())["random_112"]
_SOLUTION_OF_112 = build_conjugate(_X112)
_KIND_FILES = {
    "graph": {"kind": "graph", "vertices": ["a", "b", "c"],
              "edges": [["a", "b", 1.0], ["b", "c", 2.0], ["c", "a", 0.5], ["a", "c", 1.5]]},
    "expectation": {"kind": "expectation", "B": {"blocks": [2, 2]},
                    "A_blocks": {"blocks": [2], "multiplicity": [[1], [1]]},
                    "E_weights": [[0.25], [0.75]]},
    "hilbert": {"kind": "hilbert", "n": 2,
                "T": [[[2.0, 0.0], [0.5, 0.5]], [[0.5, -0.5], [1.0, 0.0]]]},
    "solution": {"kind": "solution", "R": encode_vector(_SOLUTION_OF_112.R),
                 "Rbar": encode_vector(_SOLUTION_OF_112.Rbar)},
}
_MODULE_COMMANDS = ["validate", "index", "conjugate", "verify", "mindim", "basic", "fibers",
                    "morita", "tensor"]
_KIND_COMMANDS = {"graph": _MODULE_COMMANDS + ["graph"],
                  "expectation": _MODULE_COMMANDS + ["expectation"],
                  "hilbert": _MODULE_COMMANDS + ["hilbert"],
                  "solution": ["verify"]}


def _inputs(command: str, kind: str, mutated, base) -> list[str]:
    """The inputs of ``command`` with the mutated file in the place of its
    kind: a solution is verified against random_112, a module against the
    solution of random_112, and tensor pairs a module with itself."""
    if kind == "solution":
        return [str(base / "random_112.json"), str(mutated)]
    if command == "verify":
        return [str(mutated), str(base / "solution_112.json")]
    if command == "tensor":
        return [str(mutated), str(mutated)]
    return [str(mutated)]


@pytest.mark.parametrize("kind", sorted(_KIND_FILES))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_one_replaced_value_never_exits_three_in_any_kind(tmp_path_factory, kind, data):
    base = tmp_path_factory.getbasetemp()
    (base / "random_112.json").write_text(json.dumps(_MODULE))
    (base / "solution_112.json").write_text(json.dumps(_KIND_FILES["solution"]))
    obj = copy.deepcopy(_KIND_FILES[kind])
    path = data.draw(st.sampled_from(list(_paths(obj))), label="path")
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(_json_values, label="value")
    command = data.draw(st.sampled_from(_KIND_COMMANDS[kind]), label="command")
    mutated = base / f"mutated_{kind}.json"
    mutated.write_text(json.dumps(obj))
    status, report = cli.run(cli.CommandRequest(command, _inputs(command, kind, mutated, base)))
    assert status in (0, 1, 2), (command, report["error"])


@pytest.mark.parametrize("kind", sorted(_KIND_FILES))
def test_unmutated_kind_files_pass_their_commands(tmp_path, kind):
    # the property test above starts from files that every command accepts
    (tmp_path / "random_112.json").write_text(json.dumps(_MODULE))
    (tmp_path / "solution_112.json").write_text(json.dumps(_KIND_FILES["solution"]))
    file = tmp_path / f"{kind}.json"
    file.write_text(json.dumps(_KIND_FILES[kind]))
    for command in _KIND_COMMANDS[kind]:
        if command == "verify" and kind != "solution":
            continue        # the solution belongs to random_112
        status, report = cli.run(cli.CommandRequest(command,
                                                    _inputs(command, kind, file, tmp_path)))
        # B-A bimodules of an expectation do not tensor with themselves
        assert status == 0 or "middle algebras differ" in report.get("error", ""), \
            (command, report)


def _non_finite(obj, path="report"):
    """The paths of the non-finite floats in a parsed report."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    return [p for key, value in items for p in _non_finite(value, f"{path}.{key}")]


def test_every_report_is_strict_json_with_no_non_finite_number(tmp_path, monkeypatch):
    # every command on the corpus (tensor with the contragredient, verify
    # with the solution that conjugate wrote) and on the kind files: orjson
    # reads each written report, and neither it nor the report run() built
    # holds a non-finite float, where morita and mindim once wrote Infinity
    built, run = [], cli.run
    monkeypatch.setattr(cli, "run", lambda req: built.append(run(req)) or built[-1])
    (tmp_path / "random_112.json").write_text(json.dumps(_MODULE))
    (tmp_path / "solution_112.json").write_text(json.dumps(_KIND_FILES["solution"]))
    requests = []
    for name, X in corpus():
        paths = {}
        for tag, Y in (("x", X), ("bar", contragredient(X) if X.is_bihilbertian else None)):
            if Y is not None:
                paths[tag] = tmp_path / f"{name}_{tag}.json"
                paths[tag].write_text(json.dumps(encode_bimodule(Y)))
        requests += [[command, str(paths["x"])] for command in _MODULE_COMMANDS
                     if command not in ("verify", "tensor")]
        requests.append(["tensor", str(paths["x"]), str(paths.get("bar", paths["x"]))])
        requests.append(["verify", str(paths["x"]), f"solution of {name}"])
    for kind, obj in _KIND_FILES.items():
        file = tmp_path / f"{kind}.json"
        file.write_text(json.dumps(obj))
        requests += [[command, *_inputs(command, kind, file, tmp_path)]
                     for command in _KIND_COMMANDS[kind]]
    out, reports = tmp_path / "report.json", {}
    for argv in requests:
        if argv[-1].startswith("solution of "):
            res = reports[("conjugate", argv[1])]["results"]
            argv[-1] = str(tmp_path / "solution.json")
            (tmp_path / "solution.json").write_text(json.dumps(
                {"kind": "solution", "R": res["R"], "Rbar": res["Rbar"]}))
        built.clear()
        status = cli.main(argv + ["--out", str(out)])
        report = orjson.loads(out.read_bytes())
        reports[(argv[0], argv[1])] = report
        assert status in (0, 1, 2), (argv, report)
        assert not _non_finite(report) and not _non_finite(built[0][1]), (argv, report)
    assert {r["schema"] for r in reports.values()} == {"bimod-report/5"}
    assert any(r["command"] == "morita" and r["results"]["r_ind_identity_residual"] is None
               for r in reports.values())


# -- strict numbers -------------------------------------------------------------------


def _random_112_with(edit) -> dict:
    obj = copy.deepcopy(_MODULE)
    edit(obj)
    return obj


_NON_NUMBERS = [
    ("numeric_string_pair", _random_112_with(
        lambda o: o["left_action"][0][0][0][0].__setitem__(0, ["1", "0"])), "left_action block 0"),
    ("boolean_block", _random_112_with(
        lambda o: o["left_action"].__setitem__(1, np.ones((1, 1, 4, 4, 2), bool).tolist())),
     "left_action block 1"),
    ("null_gram_block", _random_112_with(
        lambda o: o["right_gram"][0][0]["blocks"].__setitem__(0, [[[None, None]] * 2] * 2)),
     "right_gram block 0"),
    ("numeric_string_T", {"kind": "hilbert", "n": 2, "T": [["1", "0"], ["0", "2"]]}, "T"),
    ("boolean_T", {"kind": "hilbert", "n": 2, "T": [[True, False], [False, True]]}, "T"),
    ("numeric_string_weights", {**_KIND_FILES["expectation"], "E_weights": [["0.5"], ["0.5"]]},
     "E_weights"),
    ("boolean_edge_weight", {**_KIND_FILES["graph"],
                             "edges": [["a", "b", True]] + _KIND_FILES["graph"]["edges"][1:]},
     "weight of edge"),
    ("numeric_string_R", {**_KIND_FILES["solution"], "R": ["1", "0"]}, "R"),
]


@pytest.mark.parametrize("name, obj, field", [pytest.param(*case, id=case[0])
                                               for case in _NON_NUMBERS])
def test_non_numbers_exit_two_naming_the_field(tmp_path, name, obj, field):
    file = tmp_path / f"{name}.json"
    file.write_text(json.dumps(obj))
    kind = obj["kind"]
    command = {"bimodule": "validate", "solution": "verify"}.get(kind, kind)
    inputs = _inputs(command, kind, file, tmp_path)
    (tmp_path / "random_112.json").write_text(json.dumps(_MODULE))
    status, report = cli.run(cli.CommandRequest(command, inputs))
    assert status == 2 and field in report["error"], report
    assert "must hold numbers" in report["error"] or kind == "graph", report
