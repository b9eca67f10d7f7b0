"""The benchmark's tracer finds every layer function it times or counts in
the real package, and uninstalling it puts every original back."""

import importlib.util
import os
import sys

import weylcalc.cli  # noqa: F401  (load every layer before patching)

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(tracer):
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "weylcalc"}
    names = {fn for _, fn in tracer.TIMED}
    functions = {
        (mod_name, attr): value
        for mod_name, mod in modules.items()
        for attr, value in vars(mod).items()
        if attr in names
    }
    for _, mod_name, cls_name, attr in tracer.COUNTED:
        cls = getattr(modules[f"weylcalc.{mod_name}"], cls_name)
        functions[(cls_name, attr)] = vars(cls)[attr]
    return functions


def test_tracer_finds_every_layer_and_restores_the_originals(capsys):
    tracer = _load_tracer()
    before = _snapshot(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        assert t.absent == []
        patched = _snapshot(tracer)
        assert all(patched[k] is not v for k, v in before.items())
        datum = weylcalc.rootdata.build_root_datum("SL2")
        weylcalc.cli.main(["describe", "--group", "SL2"])
        weylcalc.classes.length_ball(datum, 2)
        # the ball is built by generator moves, which make no product; the
        # oracle's Cayley ball still multiplies
        weylcalc.oracle.cayley_ball(datum, 2)
    finally:
        t.uninstall()
    after = _snapshot(tracer)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    capsys.readouterr()
    summary = t.summary()
    assert summary["functions"]["rootdata.build_root_datum"]["calls"] == 2
    assert summary["functions"]["classes.length_ball"]["calls"] >= 1
    assert summary["counts"]["affweyl.mul"] > 0
