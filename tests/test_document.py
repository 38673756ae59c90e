"""The model-document module: one copy of each name, and a serve path without numpy."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairway import document, fundamental_diagram, io_store, regression, service, traffic_state
from fairway import trajectory

ROOT = Path(__file__).resolve().parent.parent

# Each name defined in document, and the modules that import it back under the same name.
MOVED = {
    trajectory: ("FiniteFields",),
    regression: ("FAMILIES", "FitReport"),
    fundamental_diagram: ("CLASSICAL_FORMS", "PIECEWISE_FORMS", "ALL_FORMS", "_finite_positive",
                          "FdModel", "CharacteristicParams", "FiniteFields", "FitReport"),
    traffic_state: ("TrafficState", "StateBands", "classify_speed", "classify_flow_density"),
    io_store: ("ModelDocument", "document_to_dict", "document_from_dict", "json_text",
               "serialize_document", "save_model", "load_model", "FdModel"),
    service: ("ModelDocument", "StateBands", "brief", "classify_flow_density", "document_to_dict",
              "json_text"),
}


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MOVED.items() for n in names],
                         ids=lambda v: getattr(v, "__name__", v))
def test_moved_name_is_the_document_object(module, name):
    assert getattr(module, name) is getattr(document, name)


def test_the_schema_version_has_one_home():
    assert document.SCHEMA_VERSION == 1
    assert not hasattr(io_store, "SCHEMA_VERSION")


def test_every_tracer_target_resolves():
    """perfbench's tracer wraps these module attributes; a traced run fails without one."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"fairway.{module}"), attr)), (module, attr)


def test_serve_path_loads_no_numpy(tmp_path):
    path = tmp_path / "bands.json"
    path.write_text('{"schema_version":1,"bands":{"boundaries":[5.67,7.28,9.38]}}')
    code = (
        "import sys\n"
        "from fairway import cli, document, service\n"
        "cli.build_parser()\n"
        "service.make_server(document.load_model(sys.argv[1]), 0).server_close()\n"
        "argv = ['states', 'classify', '--flow', '42', '--density', '7', '--model', sys.argv[1]]\n"
        "assert cli.main(argv) == cli.EXIT_OK\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    result = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                            text=True, env=src_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["congested / red  (speed 6.000 km/h)", "[]"]


@pytest.mark.parametrize("argv, status", [
    (["--help"], 0),
    (["fit", "fd", "--form", "greenshields"], 1),
    (["frobnicate"], 1),
], ids=["help", "missing_option", "unknown_command"])
def test_help_and_usage_errors_load_no_numpy(argv, status):
    """-X importtime lists every module the process imports, one per stderr line."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "fairway.cli", *argv],
                            capture_output=True, text=True, env=src_env(), timeout=60)
    assert result.returncode == status
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")]
    assert "fairway.document" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


def nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("build, error", [
    (lambda: document.StateBands(list(range(50_000))), document.DomainError),
    (lambda: document.StateBands(nested(900)), document.DomainError),
    (lambda: document.FitReport("linear", 1.0, 1.0, 0.5, nested(900)),
     document.DegenerateFitError),
    (lambda: document.FdModel(form="x" * 100_000, c1=1.0, c2=1.0), document.DomainError),
    (lambda: document.ModelDocument(bands=document.StateBands((1.0, 2.0, 3.0)),
                                    created_utc=["x" * 100_000]), document.DomainError),
    (lambda: document.document_from_dict({"schema_version": 1, "created_utc": ["x" * 100_000]}),
     TypeError),
], ids=["long_boundaries", "deep_boundaries", "deep_n_points", "long_form", "created_utc",
        "created_utc_loaded"])
def test_an_echoed_input_is_cut_to_80_characters(build, error):
    with pytest.raises(error) as raised:
        build()
    assert len(str(raised.value)) < 160


@pytest.mark.parametrize("value", [nested(900), nested(100_000), "5"])
def test_finite_fields_are_checked_flat(value):
    """A field that is no number is refused, however deep; astuple deep-copied it first."""
    with pytest.raises((TypeError, document.DomainError)):
        document.CharacteristicParams(v_f=1.0, v_m=value, k_m=1.0, q_m=1.0, k_max=2.0, v_min=0.5)


@pytest.mark.parametrize("value, shown", [
    ("/nothing", "/nothing"), ((5.0, 7.0, float("inf")), "(5.0, 7.0, inf)"), (40.0, "40.0"),
    ("a" * 81, "a" * 77 + "..."), (["a" * 100], "['aaaaaaaaaaaa...aaaaaaaaaaaaa']"),
], ids=["path", "tuple", "float", "long_text", "list"])
def test_brief_shows_a_value_as_an_f_string_does_up_to_80_characters(value, shown):
    assert document.brief(value) == shown
