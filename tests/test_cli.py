import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from queeralg import cli, liesuper
from queeralg.cli import main
from queeralg.coeffalg import CoeffAlgebra
from queeralg.queer import QueerData
from queeralg.scalars import Tower


@pytest.fixture
def files(tmp_path):
    two = tmp_path / "two_point.json"
    two.write_text(json.dumps({"type": "poly_quotient",
                               "modulus": ["-1", "0", "1"],
                               "roots": ["1", "-1"]}))
    four = tmp_path / "four_point.json"
    four.write_text(json.dumps({"type": "poly_quotient",
                                "modulus": ["-1", "0", "0", "0", "1"],
                                "roots": ["1", "-1", "i", "-i"]}))
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"type": "poly_quotient",
                                "modulus": ["0", "0", "1"],
                                "roots": [["0", 2]]}))
    grp = tmp_path / "z2.json"
    grp.write_text(json.dumps({"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}))
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"values": [["h1", "1", "1"],
                                          ["h2", "1", "1"]]}))
    return {"two": str(two), "four": str(four), "dual": str(dual),
            "grp": str(grp), "psi": str(psi), "dir": tmp_path}


def _t4_16(files):
    """The algebra file of K[t]/(t^4 - 16): four points, +-2 and +-2i."""
    alg = files["dir"] / "t4_16.json"
    alg.write_text(json.dumps({"type": "poly_quotient",
                               "modulus": ["-16", "0", "0", "0", "1"],
                               "roots": ["2", "-2", "2*i", "-2*i"]}))
    return str(alg)


def test_verify_unknown_suite_usage_error(capsys):
    assert main(["verify", "bogus"]) == 2


def test_verify_suite_ok(files, capsys):
    out = files["dir"] / "rep.json"
    assert main(["verify", "superalg", "--seed", "7",
                 "--format", "structured", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["failures"] == 0
    assert rep["suites"][0]["name"] == "superalg"


def test_verify_text_output(capsys):
    assert main(["verify", "superalg"]) == 0
    text = capsys.readouterr().out
    assert "failures: 0" in text
    assert "ok  " in text


def test_classify_untwisted(files, capsys):
    out = files["dir"] / "cls.json"
    assert main(["classify", "--n", "2", "--algebra", files["two"],
                 "--format", "structured", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["rows"]) == 4
    dims = sorted(r["dim"] for r in rep["rows"])
    assert dims[:3] == [1, 16, 16]
    assert rep["pairwise_distinct"]


@pytest.mark.parametrize("algebra,catalog", [("two", "trivial,adjoint"),
                                             ("four", "trivial")])
def test_classify_identity_group_is_the_untwisted_run(files, algebra,
                                                       catalog):
    """An untwisted run is the run under the trivial group: one order-1
    identity generator gives the report of the run without --group, byte
    for byte.  The four-point run keeps to the trivial class (with the
    adjoint, its rows reach dimension 65,536)."""
    grp = files["dir"] / "identity.json"
    grp.write_text(json.dumps({"generators": [
        {"order": 1, "on_algebra": {"type": "trivial"},
         "on_q": {"type": "trivial"}}]}))
    outs = []
    for extra in ([], ["--group", str(grp)]):
        out = files["dir"] / f"cls{len(outs)}.json"
        assert main(["classify", "--n", "2", "--algebra", files[algebra],
                     "--catalog", catalog, *extra,
                     "--format", "structured", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["twisted"] is False


def test_classify_refuses_non_free_group(files, capsys):
    rc = main(["classify", "--n", "2", "--algebra", files["dual"],
               "--group", files["grp"]])
    assert rc == 1
    err = capsys.readouterr().err
    assert "freeness violated" in err


def test_classify_refuses_group_order_above_point_count(files, capsys,
                                                        monkeypatch):
    """Every orbit of a free action has |Gamma| points, so an order of 10^6
    on the four points of K[t]/(t^4 - 16) is refused before the group is
    enumerated (listing its elements ran for minutes)."""
    def refuse(ms, act):
        raise AssertionError("the group was enumerated")
    monkeypatch.setattr(cli, "invariants", refuse)
    grp = files["dir"] / "big.json"
    grp.write_text(json.dumps({"generators": [
        {"order": 1000000, "on_algebra": {"type": "trivial"},
         "on_q": {"type": "trivial"}}]}))
    rc = main(["classify", "--n", "2", "--algebra", _t4_16(files),
               "--group", str(grp)])
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == [
        "error: freeness violated: every orbit of a free action of a group "
        "of order 1000000 has 1000000 points, more than the 4 declared"]


def test_classify_validates_order_one_generator(files, capsys):
    """A generator declared of order 1 that is not the identity fails its
    order relation: only a group with no generators skips validation
    (it was taken as the trivial group and classified untwisted)."""
    grp = files["dir"] / "order1.json"
    grp.write_text(json.dumps({"generators": [
        {"order": 1, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}))
    rc = main(["classify", "--n", "2", "--algebra", _t4_16(files),
               "--group", str(grp)])
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.splitlines() == [
        "error: group action failed validation: generator 0: order "
        "relation fails"]


def test_classify_freeness_error_has_one_prefix(files, capsys):
    """Z/2 x Z/2 on four points with a trivial second generator is not
    free: the identity-acting element fixes every point."""
    grp = files["dir"] / "klein.json"
    grp.write_text(json.dumps({"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}},
        {"order": 2, "on_algebra": {"type": "trivial"},
         "on_q": {"type": "trivial"}}]}))
    rc = main(["classify", "--n", "2", "--algebra", _t4_16(files),
               "--group", str(grp)])
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.splitlines() == [
        "error: freeness violated at maximal ideal 0"]


def test_classify_refuses_a_group_that_moves_h0(files, capsys):
    """Conjugation by the transposition (1 2) is an automorphism of q(2)
    of order 2, given as an explicit on_q matrix: e[i,j] -> e[pi i,pi j],
    h1 -> -h1, h2 -> h1 + h2, and the same for the primed elements.  It
    passes validation but moves h0, so the weight grading, on which the
    twist of a class keeps its top weight, is lost: one error line."""
    qd = QueerData(Tower(), 2)
    pi = {1: 2, 2: 1, 3: 3}
    rows = [[0] * qd.dim for _ in range(qd.dim)]   # rows[image][source]
    for w in ("", "'"):
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    rows[qd.index[f"e{w}[{pi[i]},{pi[j]}]"]][
                        qd.index[f"e{w}[{i},{j}]"]] = 1
        h1, h2 = qd.index[f"h{w}1"], qd.index[f"h{w}2"]
        rows[h1][h1] = -1
        rows[h1][h2] = rows[h2][h2] = 1
    grp = files["dir"] / "swap.json"
    grp.write_text(json.dumps({"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": rows}]}))
    rc = main(["classify", "--n", "2", "--algebra", _t4_16(files),
               "--group", str(grp)])
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.splitlines() == [
        "error: automorphism moves the even Cartan part; cannot keep the "
        "weight grading"]


def test_classify_deficient_evaluation_is_one_error_line(files, capsys,
                                                        monkeypatch):
    monkeypatch.setattr("queeralg.products.ev_rank",
                        lambda ms, points, vectors=None: 0)
    rc = main(["classify", "--n", "2", "--algebra", files["four"],
               "--group", files["grp"]])
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == [
        "error: evaluation of the invariants at the orbit representatives "
        "[0, 2] is not onto"]


def test_classify_untwisted_deficient_evaluation_is_one_error_line(
        files, capsys, monkeypatch):
    monkeypatch.setattr("queeralg.products.ev_rank",
                        lambda ms, points, vectors=None: 0)
    rc = main(["classify", "--n", "2", "--algebra", files["two"]])
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == [
        "error: evaluation at the points [0, 1] is not onto"]


def test_classify_unknown_catalog_entry(files, capsys):
    rc = main(["classify", "--algebra", files["two"],
               "--catalog", "trivial,mystery"])
    assert rc == 2


@pytest.mark.parametrize("names", [",", "", ",,"])
def test_classify_empty_catalog_is_usage_error(files, capsys, names):
    rc = main(["classify", "--algebra", files["two"], "--catalog", names])
    assert rc == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == ["error: --catalog names no entry"]


def test_classify_repeated_catalog_entry_is_usage_error(files, capsys):
    rc = main(["classify", "--algebra", files["two"],
               "--catalog", "trivial,adjoint,adjoint"])
    assert rc == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == [
        "error: catalog entry 'adjoint' is named twice"]


def test_dims_adjoint(files, capsys):
    assert main(["dims", "--n", "2", "--psi", files["psi"],
                 "--depth", "6"]) == 0
    text = capsys.readouterr().out
    assert "total simple dim: 16" in text
    assert "conclusive: True" in text


def test_dims_zero_functional(files, capsys, tmp_path):
    psi0 = tmp_path / "psi0.json"
    psi0.write_text(json.dumps({"values": []}))
    assert main(["dims", "--n", "2", "--psi", str(psi0), "--depth", "3"]) == 0
    text = capsys.readouterr().out
    assert "total simple dim: 1" in text


def test_decompose_split_report(capsys):
    assert main(["decompose", "--factors", "qone,qone"]) == 0
    text = capsys.readouterr().out
    assert "splits" in text and "result dim: 2" in text


def test_decompose_usage_error(capsys):
    assert main(["decompose", "--factors", "qone"]) == 2


@pytest.mark.filterwarnings("ignore:q\\(1\\) is not simple")
@pytest.mark.parametrize("command", [
    ["decompose", "--n", "1", "--factors", "adjoint,adjoint"],
    ["classify", "--n", "1", "--catalog", "trivial,adjoint"],
])
def test_reducible_catalog_entry_is_one_error_line(capsys, command):
    """The adjoint of q(1) is reducible: both commands refuse it with one
    error line and exit 1, no traceback."""
    assert main(command) == 1
    err = capsys.readouterr().err
    assert err == ("error: catalog entry 'adjoint' is not irreducible: "
                   "top block reducible over the Cartan part\n")


Q1_WARNING = ("warning: q(1) is not simple; constructions that assume "
              "simplicity do not apply")


@pytest.mark.parametrize("command, code, errors", [
    (["dims", "--n", "1", "--psi", "{psi1}"], 0, []),
    (["classify", "--n", "1", "--catalog", "trivial"], 0, []),
    (["decompose", "--n", "1", "--factors", "adjoint,adjoint"], 1,
     ["error: catalog entry 'adjoint' is not irreducible: top block "
      "reducible over the Cartan part"]),
])
def test_q1_warning_is_one_line(tmp_path, command, code, errors):
    """In a fresh interpreter, where Python shows warnings with their file
    and source line, the q(1) warning is one "warning:" line on stderr."""
    psi1 = tmp_path / "psi1.json"
    psi1.write_text(json.dumps({"values": [["h1", "1", "1"]]}))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-m", "queeralg.cli"]
        + [c.format(psi1=psi1) for c in command],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == code
    assert run.stderr.splitlines() == [Q1_WARNING] + errors


def test_structured_reports_deterministic(files):
    f1 = files["dir"] / "d1.json"
    f2 = files["dir"] / "d2.json"
    for f in (f1, f2):
        assert main(["verify", "cartan", "--seed", "11",
                     "--format", "structured", "--out", str(f)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_bad_json_reports_position(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc = main(["classify", "--algebra", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def _one_line_usage_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_dims_negative_depth_is_usage_error(files, capsys):
    rc = main(["dims", "--n", "2", "--psi", files["psi"], "--depth", "-3"])
    _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("command", [
    ["classify"],
    ["dims", "--depth", "2"],
    ["decompose", "--factors", "trivial,adjoint"],
])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_n_below_one_is_usage_error(files, capsys, command, n):
    args = command[:1] + ["--n", n] + command[1:]
    if command[0] == "dims":
        args += ["--psi", files["psi"]]
    _one_line_usage_error(main(args), capsys)


@pytest.mark.parametrize("command", [
    ["classify"],
    ["dims", "--depth", "0"],
    ["decompose", "--factors", "trivial,adjoint"],
])
@pytest.mark.parametrize("n", ["13", "40"])
def test_n_above_limit_is_usage_error(files, capsys, monkeypatch, command, n):
    """The limit is checked before anything is built."""
    def refuse(*args):
        raise AssertionError("build_q ran for an --n above the limit")

    monkeypatch.setattr(cli, "build_q", refuse)
    args = command[:1] + ["--n", n] + command[1:]
    if command[0] == "dims":
        args += ["--psi", files["psi"]]
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: --n must be at most {cli.MAX_N}, not {n}\n"


def test_setup_reads_structure_instead_of_rederiving(files, monkeypatch):
    """dims and classify take h's table, the generator roots and the
    adjoint's weights from what the basis of q(n) records: no dense
    subalgebra solve and no bracketing of basis vectors with h."""
    calls = {"subalgebra": 0, "weight_of": 0}
    orig_sub = liesuper.subalgebra
    orig_weight_of = QueerData.weight_of

    def counted_sub(*args, **kw):
        calls["subalgebra"] += 1
        return orig_sub(*args, **kw)

    def counted_weight_of(self, coords):
        calls["weight_of"] += 1
        return orig_weight_of(self, coords)

    # every module that imported the function by name
    for name, mod in list(sys.modules.items()):
        if name.startswith("queeralg") and \
                getattr(mod, "subalgebra", None) is orig_sub:
            monkeypatch.setattr(mod, "subalgebra", counted_sub)
    monkeypatch.setattr(QueerData, "weight_of", counted_weight_of)
    psi = files["dir"] / "psi3.json"
    psi.write_text(json.dumps({"values": [["h1", "1", "1"],
                                          ["h3", "1", "2"]]}))
    out = files["dir"] / "out.json"
    assert main(["dims", "--n", "3", "--psi", str(psi), "--depth", "1",
                 "--out", str(out)]) == 0
    assert main(["classify", "--n", "2", "--algebra", files["two"],
                 "--out", str(out)]) == 0
    assert calls == {"subalgebra": 0, "weight_of": 0}
    # the wrappers do count: verify's queer suite calls both
    assert main(["verify", "queer", "--out", str(out)]) == 0
    assert calls["subalgebra"] > 0 and calls["weight_of"] > 0


def _algebra_matrix_group(on_algebra):
    return {"generators": [{"order": 2, "on_algebra": on_algebra,
                            "on_q": {"type": "trivial"}}]}


@pytest.mark.parametrize("flag,payload", [
    ("--algebra", [{"type": "poly_quotient"}]),
    ("--group", {"generators": [{"order": 2, "on_q": {"type": "trivial"}}]}),
    # the two-point algebra needs a 2 x 2 on_algebra matrix
    ("--group", _algebra_matrix_group([["1"]])),
    ("--group", _algebra_matrix_group([["1", "0"], ["0"]])),
    ("--group", _algebra_matrix_group([["1", "0"], ["0", "1"], ["0", "0"]])),
    ("--group", _algebra_matrix_group([["1", "0", "0"], ["0", "1", "0"]])),
])
def test_classify_wrong_shape_json(files, tmp_path, capsys, flag, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    args = ["classify", "--n", "2", flag, str(bad)]
    if flag == "--group":
        args += ["--algebra", files["two"]]
    _one_line_usage_error(main(args), capsys)


@pytest.mark.parametrize("payload", [
    [["h1", "1", "1"]],
    {"values": "x"},
])
def test_dims_wrong_shape_json(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = main(["dims", "--n", "2", "--psi", str(bad), "--depth", "2"])
    _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("payload", [
    {"values": [["h1", "1", True]]},
    {"values": [["h1", "1", False], ["h2", "1", "1"]]},
    {"values": [["h1", "1", 1.5]]},
    {"algebra": {"type": "poly_quotient", "modulus": [False, True],
                 "roots": ["0"]}, "values": []},
    {"algebra": {"type": "poly_quotient", "modulus": ["0", "0", "1"],
                 "roots": [["0", 2.7]]}, "values": []},
    {"algebra": {"type": "poly_quotient", "modulus": ["0", "0", "1"],
                 "roots": [["0", True], ["0", True]]}, "values": []},
    {"algebra": {"type": "poly_quotient", "modulus": ["0", "0", "1"],
                 "roots": [["0", "2"]]}, "values": []},
    {"algebra": {"type": "poly_quotient", "modulus": ["-1", "0", "1"],
                 "roots": ["1", "-1", ["5", 0]]}, "values": []},
    {"algebra": {"type": "poly_quotient", "modulus": ["0", "1"],
                 "roots": [["0"]]}, "values": []},
])
def test_dims_rejects_non_numbers(tmp_path, capsys, payload):
    """Booleans, floats and multiplicities that are not positive integers
    are usage errors, not values read as 1, 0 or a truncated integer."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = main(["dims", "--n", "2", "--psi", str(bad), "--depth", "1"])
    _one_line_usage_error(rc, capsys)


def test_dims_rejects_repeated_value(tmp_path, capsys):
    """A pair given twice is a usage error, not the sum of its values."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"values": [["h1", "1", "1"],
                                          ["h1", "1", "2"]]}))
    rc = main(["dims", "--n", "2", "--psi", str(bad), "--depth", "1"])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: {bad}: repeated value for ('h1', '1')\n"


@pytest.mark.parametrize("entry,message", [
    (["h1", ["1"], "1"], "unknown coefficient label ['1']"),
    ([["h1"], "1", "1"], "unknown Cartan label ['h1']"),
])
def test_dims_names_an_unhashable_label(tmp_path, capsys, entry, message):
    """A label that is a JSON list is named like any unknown label, not
    reported as a Python type error."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"values": [entry]}))
    rc = main(["dims", "--n", "2", "--psi", str(bad), "--depth", "1"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_classify_rejects_boolean_modulus(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "poly_quotient",
                               "modulus": [False, True], "roots": ["0"]}))
    rc = main(["classify", "--n", "2", "--algebra", str(bad)])
    _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("field,value,shown", [("modulus", "ab", "'ab'"),
                                               ("roots", 5, "5")])
@pytest.mark.parametrize("command", ["dims", "classify"])
def test_algebra_lists_must_be_json_lists(tmp_path, capsys, command, field,
                                          value, shown):
    """A modulus or a root list that is not a JSON list is one usage
    error naming it: a string is not read character by character, and a
    number is not iterated."""
    algebra = {"type": "poly_quotient", "modulus": ["-1", "0", "1"],
               "roots": ["1", "-1"], field: value}
    bad = tmp_path / "bad.json"
    if command == "dims":
        bad.write_text(json.dumps({"algebra": algebra, "values": []}))
        args = ["dims", "--n", "2", "--psi", str(bad), "--depth", "1"]
    else:
        bad.write_text(json.dumps(algebra))
        args = ["classify", "--n", "2", "--algebra", str(bad)]
    assert main(args) == 2
    assert capsys.readouterr().err == \
        f"error: {bad}: {field} must be a JSON list, not {shown}\n"


def _group(order=2, scale="-1", diag=("1", "1", "-1"), on_algebra=None):
    return {"generators": [{
        "order": order,
        "on_algebra": on_algebra if on_algebra is not None
        else {"type": "substitute_t", "scale": scale},
        "on_q": {"type": "diag_conj", "diag": list(diag)}}]}


@pytest.mark.parametrize("payload", [
    _group(order=2.9, scale=-1.0),
    _group(order=2.0),
    _group(order="2"),
    _group(order=True),
    _group(order=0),
    _group(scale=-1.0),
    _group(diag=(1.0, 1, "-1")),
    _group(diag=(True, 1, "-1")),
    _group(on_algebra=[[1, 0], [0, -1.0]]),
    _group(on_algebra=["10", "0-1"]),
])
def test_classify_group_rejects_non_integers(files, tmp_path, capsys,
                                             payload):
    """Group orders must be JSON integers of at least 1; scalars (scale,
    diag and matrix entries) are exact strings or integers, never floats
    or booleans."""
    bad = tmp_path / "group.json"
    bad.write_text(json.dumps(payload))
    rc = main(["classify", "--n", "2", "--algebra", files["two"],
               "--group", str(bad), "--catalog", "trivial"])
    _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("payload,line", [
    pytest.param({"generators": {"order": 2}}, "generators must be a list",
                 id="generators-object"),
    pytest.param({"generators": "ab"}, "generators must be a list",
                 id="generators-string"),
    pytest.param({"generators": [{"order": 2,
                                  "on_algebra": {"type": "trivial"},
                                  "on_q": [["1", "0"], ["0", "1"]]}]},
                 "generator 0: on_q must be a 16 x 16 matrix",
                 id="on_q-shape"),
    pytest.param({"generators": [{"order": 2,
                                  "on_algebra": {"type": "substitute_t",
                                                 "scale": "-1"},
                                  "on_q": {"type": "diag_conj",
                                           "diag": "11-1"}}]},
                 "generator 0: on_q diag must be a list of 3 scalars",
                 id="diag-string"),
])
def test_classify_group_shape_errors_name_the_field(files, tmp_path, capsys,
                                                    payload, line):
    bad = tmp_path / "group.json"
    bad.write_text(json.dumps(payload))
    rc = main(["classify", "--n", "2", "--algebra", files["two"],
               "--group", str(bad), "--catalog", "trivial"])
    assert rc == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.splitlines() == [f"error: {bad}: {line}"]


def test_classify_group_accepts_integer_scalars(files, tmp_path, capsys):
    grp = tmp_path / "group.json"
    grp.write_text(json.dumps(_group(scale=-1, diag=(1, 1, -1))))
    assert main(["classify", "--n", "2", "--algebra", files["two"],
                 "--group", str(grp), "--catalog", "trivial"]) == 0


DATA = Path(__file__).resolve().parent / "data"


def _four_point(r):
    return {"type": "poly_quotient",
            "modulus": [str(-r ** 4), "0", "0", "0", "1"],
            "roots": [str(r), str(-r), f"{r}*i", f"-{r}*i"]}


CLASSIFY_GOLDENS = [
    ("classify_twisted4_r2.json", _four_point(2), _group()),
    ("classify_twisted4_r3.json", _four_point(3), _group()),
    ("classify_twisted4_r4.json", _four_point(4), _group()),
    ("classify_two_point.json", {"type": "poly_quotient",
                                 "modulus": ["-1", "0", "1"],
                                 "roots": ["1", "-1"]}, None),
    ("classify_z4_r3.json", _four_point(3), _group(order=4, scale="i")),
]


@pytest.mark.parametrize("golden,algebra,group", CLASSIFY_GOLDENS)
def test_classify_report_matches_golden(tmp_path, golden, algebra, group):
    """Structured classify reports, byte for byte: q(2) over
    K[t]/(t^4 - r^4) under t -> -t with diag_conj (1, 1, -1), over two
    points without a group, and over K[t]/(t^4 - 81) under the order-4
    action t -> i t with the same diag_conj (one orbit of four points)."""
    _assert_classify_golden(tmp_path, golden, algebra, group)


@pytest.mark.parametrize("golden,algebra,group", CLASSIFY_GOLDENS)
def test_classify_golden_makes_no_oracle_call(tmp_path, golden, algebra,
                                              group, refuse_oracles):
    """Each class's top weight and type come off its certificate, so with
    every binding of the density oracle and of the odd Schur solve
    refusing, classify still writes every golden report."""
    _assert_classify_golden(tmp_path, golden, algebra, group)


@pytest.mark.parametrize("golden,algebra,group",
                         [c for c in CLASSIFY_GOLDENS if c[2] is not None])
def test_twisted_classify_reads_no_maximal_ideal(tmp_path, monkeypatch,
                                                 golden, algebra, group):
    """Work guard: points are read off their evaluation functionals, so a
    twisted four-point classify writes its golden report without reading
    CoeffAlgebra.maximal_ideals."""
    def refuse(self):
        raise AssertionError("maximal_ideals read")
    monkeypatch.setattr(CoeffAlgebra, "maximal_ideals", property(refuse))
    _assert_classify_golden(tmp_path, golden, algebra, group)


def _assert_classify_golden(tmp_path, golden, algebra, group):
    alg = tmp_path / "algebra.json"
    alg.write_text(json.dumps(algebra))
    args = ["classify", "--n", "2", "--algebra", str(alg),
            "--catalog", "trivial,adjoint"]
    if group is not None:
        grp = tmp_path / "group.json"
        grp.write_text(json.dumps(group))
        args += ["--group", str(grp)]
    out = tmp_path / "report.json"
    assert main(args + ["--format", "structured", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("n,factors", [
    *(pytest.param("2", f, id=f) for f in (
        "qone,qone", "qone,qone,qone", "adjoint,qone", "adjoint,qone,qone",
        "adjoint,adjoint")),
    pytest.param("3", "adjoint,qone,qone", id="n3-adjoint,qone,qone")])
def test_decompose_report_matches_golden(tmp_path, n, factors):
    """Structured decompose reports, byte for byte; adjoint,qone,qone
    types a product by the type rule before splitting it (over q(3), a
    type-Q product of dimension 60), and adjoint,adjoint is the
    256-dimensional product over q(2) (+) q(2)."""
    out = tmp_path / "report.json"
    assert main(["decompose", "--n", n, "--factors", factors,
                 "--format", "structured", "--out", str(out)]) == 0
    prefix = "decompose_" if n == "2" else f"decompose_n{n}_"
    golden = DATA / f"{prefix}{factors.replace(',', '_')}.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("command", ["classify", "dims"])
def test_repeated_root_is_usage_error(tmp_path, capsys, command):
    """A root declared twice would make two points with one maximal ideal;
    it is refused by name, not left to fail a later check."""
    algebra = {"type": "poly_quotient", "modulus": ["1", "-2", "1"],
               "roots": ["1", "1"]}
    bad = tmp_path / "bad.json"
    if command == "classify":
        bad.write_text(json.dumps(algebra))
        args = ["classify", "--n", "2", "--algebra", str(bad)]
    else:
        bad.write_text(json.dumps({"algebra": algebra, "values": []}))
        args = ["dims", "--n", "2", "--psi", str(bad), "--depth", "1"]
    rc = main(args)
    assert rc == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.splitlines() == [
        f'error: {bad}: root 1 is declared twice; give it once as ["1", 2]']


@pytest.mark.parametrize("command", ["classify", "dims", "decompose"])
def test_seed_is_a_verify_option_only(files, capsys, command):
    args = {"classify": ["classify", "--algebra", files["two"]],
            "dims": ["dims", "--n", "2", "--psi", files["psi"]],
            "decompose": ["decompose", "--factors", "qone,qone"]}[command]
    assert main(args + ["--seed", "3"]) == 2
    assert capsys.readouterr().out == ""
