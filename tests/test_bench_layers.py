"""The traced benchmark wraps library names; each must exist and be restored."""

import importlib.util
from pathlib import Path

from thzdiv import ber_analytic, cli, errors, mg_laplace, monte_carlo, sum_dist

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_layer_and_restore_undoes_it():
    layers, tracing = _load("layers"), _load("tracing")
    owners = [cli, sum_dist, ber_analytic, mg_laplace, monte_carlo,
              sum_dist.IidAlphaMuSum]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    # A name the library no longer defines raises KeyError here.
    layers.install(tracer, (cli, sum_dist, ber_analytic, mg_laplace,
                            monte_carlo, errors))
    try:
        patched = sum(1 for owner, old in zip(owners, before)
                      for name, value in vars(owner).items()
                      if old.get(name) is not value)
    finally:
        tracer.restore()
    assert patched == 24
    for owner, old in zip(owners, before):
        now = vars(owner)
        assert all(now[name] is value for name, value in old.items())
