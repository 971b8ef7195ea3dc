"""The benchmark's tracer (perfbench/tracer.py), installed around one
`dims` run as a traced benchmark run installs it.  The tracer wraps
`TruncatedVerma.act_on` and `Span.add` with fixed signatures, so a change
to either fails here, and not only in traced benchmark runs."""

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


def test_traced_dims_report_is_unchanged(tmp_path):
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"values": [["h1", "1", "2"], ["h2", "1", "1"],
                                          ["h3", "1", "0"]]}))
    args = ["dims", "--n", "3", "--psi", str(psi), "--depth", "2",
            "--format", "structured", "--out"]
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
    assert tr.counters["act_on.calls"] > 0
    assert tr.counters["span.add"] > 0
    assert "hwmod.SimpleQuotient.init" in tr.self_times()
