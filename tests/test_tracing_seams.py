"""The benchmark's traced mode wraps the package's functions where modules bind
them (``perfbench/tracing.py``, ``PATCH_POINTS``).  A renamed global, or a call
that bypasses one, would silently drop spans from the traced run; these tests
read that file, without editing it, and check that the seams still hold."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import qconc
import qconc.cli
from qconc import SamplerSpec, emit_state, normalize, sample_state

from conftest import bell_state, ghz_state

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    for module_name, attr, _ in _tracing().PATCH_POINTS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_fullsep_run_records_every_layer(capsys, tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(emit_state(ghz_state()), encoding="utf-8")
    tracer = _tracing().Tracer()
    with tracer.patched():
        code = qconc.cli.cli_main(["fullsep", "--state", str(path)])
    capsys.readouterr()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {
        "cli.main",
        "stateio.parse",
        "concurrence.full_separability",
        "concurrence.certificate",
        "schwarz.max_minor",
    } <= names


def _traced_concurrence(state, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(emit_state(state), encoding="utf-8")
    tracer = _tracing().Tracer()
    with tracer.patched():
        code = qconc.cli.cli_main(["concurrence", "--state", str(path)])
    capsys.readouterr()
    return code, {span[0] for span in tracer.spans}


def test_bipartite_concurrence_records_the_minor_sum(capsys, tmp_path):
    # One cut runs through minor_sum_sq, the seam bipartite_haar times.
    code, names = _traced_concurrence(bell_state(), tmp_path, capsys)
    assert code == 0
    assert {"cli.main", "concurrence.concurrence", "schwarz.minor_sum"} <= names


def test_tripartite_concurrence_records_its_span(capsys, tmp_path):
    # Three cuts run in one stacked Gram pass, which no patch point wraps.
    code, names = _traced_concurrence(ghz_state(), tmp_path, capsys)
    assert code == 0
    assert {"cli.main", "concurrence.concurrence", "schwarz.matricize"} <= names


def test_peel_certificates_keep_their_spans():
    # The peel hands each reported cut's context to is_separable_cut, which
    # still goes through the module globals: one certificate span and one
    # scan span per cut, and the tracer reads tolerance P^2 from the
    # normalized state it is given.
    state = sample_state(SamplerSpec((8, 8, 8), "haar", 5))
    tracer = _tracing().Tracer()
    with tracer.patched():
        result = qconc.full_separability(state)
    names = [span[0] for span in tracer.spans]
    assert names.count("concurrence.certificate") == 3
    assert names.count("schwarz.max_minor") == 3
    scale = float(np.max(np.abs(normalize(state).amps))) ** 2
    assert len(result.failed) == 3
    assert tracer.certificates == [
        (cert.max_abs_minor, cert.tolerance * scale, False) for cert in result.failed
    ]
