"""The benchmark's per-layer hooks (bench/tracing.py) find every function
they wrap. A hook whose target is renamed or deleted is only reported
missing at bench time; these tests fail at once instead."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from saberxbar.pke import SoftwareBackend
from saberxbar.polymult import MultAlgorithm
from saberxbar.xbar import NoiseSpec, NoisySampleBackend, XbarBackend

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("base, module, path, variant", tracing._FUNCTIONS,
                         ids=[f[0] for f in tracing._FUNCTIONS])
def test_every_hook_target_resolves(base, module, path, variant):
    # as Tracer.install resolves it: a module attribute, or an attribute in
    # a class's own namespace, with the argument naming the variant
    owner = importlib.import_module(module)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    fn = vars(owner).get(attr)
    assert callable(fn), f"{base}: {module}.{path} is gone"
    if variant is not None:
        assert variant in inspect.signature(fn).parameters


def test_tracer_installs_every_hook_and_uninstalls():
    ring = importlib.import_module("saberxbar.ring")
    assert hasattr(ring.gen_matrix, "cache_info")
    gen_matrix = ring.gen_matrix
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert ring.gen_matrix is gen_matrix


def test_backend_labels_keep_the_backends_apart():
    # the spans of pke calls are named by these labels: a software backend
    # by its algorithm, the crossbar backends by their class, so that no
    # new backend attribute merges two backends' spans
    for alg in MultAlgorithm:
        assert tracing.backend_label(SoftwareBackend(alg)) == alg.value
    assert tracing.backend_label(XbarBackend()) == "Xbar"
    assert tracing.backend_label(NoisySampleBackend(NoiseSpec(0.0))) == "NoisySample"
