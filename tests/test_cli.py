import json

import pytest

from queeralg.cli import main


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


def test_classify_refuses_non_free_group(files, capsys):
    rc = main(["classify", "--n", "2", "--algebra", files["dual"],
               "--group", files["grp"]])
    assert rc == 1
    err = capsys.readouterr().err
    assert "freeness violated" in err


def test_classify_unknown_catalog_entry(files, capsys):
    rc = main(["classify", "--algebra", files["two"],
               "--catalog", "trivial,mystery"])
    assert rc == 2


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


@pytest.mark.parametrize("flag,payload", [
    ("--algebra", [{"type": "poly_quotient"}]),
    ("--group", {"generators": [{"order": 2, "on_q": {"type": "trivial"}}]}),
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
