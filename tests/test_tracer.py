"""The benchmark's tracer (perfbench/tracer.py), installed around one
`dims` run and one twisted `classify` run as a traced benchmark run
installs it.  The tracer wraps `TruncatedVerma.act_on`, `Span.add` and
`graded.mat_rref` (whose cells it counts from `len(rows)`) with fixed
signatures, so a change to any of them fails here, and not only in
traced benchmark runs."""

import importlib.util
import json
from pathlib import Path

from queeralg import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _traced(args, tmp_path):
    """Run the CLI once untraced and once traced; returns the tracer
    after checking that both runs wrote the same bytes."""
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main(args + [str(plain)]) == 0
    tr = _tracer_module().Tracer()
    tr.install()
    try:
        rc = cli.main(args + [str(traced)])
    finally:
        tr.uninstall()
    assert rc == 0
    assert traced.read_bytes() == plain.read_bytes()
    return tr


def test_traced_classify_report_is_unchanged(tmp_path):
    """q(2) over K[t]/(t^4 - 16) under t -> -t, catalog trivial and
    adjoint: the traced report is byte-identical and the eliminations
    (the adjoint's certificate) pass through the counted mat_rref."""
    alg, grp = tmp_path / "algebra.json", tmp_path / "group.json"
    alg.write_text(json.dumps({
        "type": "poly_quotient", "modulus": ["-16", "0", "0", "0", "1"],
        "roots": ["2", "-2", "2*i", "-2*i"]}))
    grp.write_text(json.dumps({"generators": [{
        "order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
        "on_q": {"type": "trivial"}}]}))
    tr = _traced(["classify", "--n", "2", "--algebra", str(alg), "--group",
                  str(grp), "--catalog", "trivial,adjoint", "--format",
                  "structured", "--out"], tmp_path)
    assert tr.counters["mat_rref.cells"] > 0
    assert tr.counters["span.add"] > 0
    assert "products.classify_enumerate" in tr.self_times()


def test_traced_dims_report_is_unchanged(tmp_path):
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"values": [["h1", "1", "2"], ["h2", "1", "1"],
                                          ["h3", "1", "0"]]}))
    tr = _traced(["dims", "--n", "3", "--psi", str(psi), "--depth", "2",
                  "--format", "structured", "--out"], tmp_path)
    assert tr.counters["act_on.calls"] > 0
    assert tr.counters["span.add"] > 0
    assert "hwmod.SimpleQuotient.init" in tr.self_times()
