"""Each command imports only what it runs.

``import sweepnav.cli`` loads the run frame and the modules whose
functions perfbench's tracer wraps as globals of ``cli``; every other
pipeline module, ``concurrent.futures`` and ``numpy.ma`` wait for the
command that needs them.  ``numpy.random``, and OpenSSL's ``_hashlib``
that it loads through ``secrets``, wait for the oracle's noise: no
other command draws a random number.  The package's public names
resolve on first use.  The import checks run in fresh interpreters,
since this one has imported everything already.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sweepnav import cli

ROOT = Path(__file__).resolve().parents[1]
# modules that ``import sweepnav.cli`` must leave for the commands
DEFERRED = ("sweepnav.estimator", "sweepnav.rae", "sweepnav.loop_closure",
            "sweepnav.object_map", "sweepnav.sim", "sweepnav.metrics",
            "concurrent.futures", "numpy.ma")


def _python(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this source tree."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_import_cli_leaves_the_pipeline_modules_unloaded():
    loaded = json.loads(_python("import json, sys\nimport sweepnav.cli\n"
                                "print(json.dumps(sorted(sys.modules)))"))
    assert not set(DEFERRED) & set(loaded)


def test_stages_that_read_no_recording_leave_imu_unloaded():
    """Trajectories, metrics, maps and loop closure hold read-only arrays
    (``geometry._frozen``) but read no IMU recording."""
    loaded = json.loads(_python("import json, sys\n"
                                "import sweepnav.metrics, sweepnav.object_map, "
                                "sweepnav.loop_closure\n"
                                "print(json.dumps(sorted(sys.modules)))"))
    assert "sweepnav.trajectory" in loaded and "sweepnav.imu" not in loaded


@pytest.fixture(scope="module")
def refined_dataset(tmp_path_factory):
    ds = tmp_path_factory.mktemp("imports") / "ds"
    assert cli.main(["simulate", "--out", str(ds), "--set", "sim.n_items=3"]) == 0
    assert cli.main(["infer", "--dataset", str(ds)]) == 0
    assert cli.main(["refine", "--dataset", str(ds), "--epochs", "2"]) == 0
    return ds


# extra arguments of a command; infer draws oracle noise per window start
_ARGS = {"infer": ["--set", "oracle.noise_sigma=0.01"]}


@pytest.mark.parametrize("command", ["eval", "map", "plot", "refine", "infer"])
def test_post_commands_never_import_numpy_ma(refined_dataset, tmp_path, command):
    ds = tmp_path / "ds"
    shutil.copytree(refined_dataset, ds)
    out = _python("import sys\nfrom sweepnav.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print(code, 'numpy.ma' in sys.modules)",
                  command, "--dataset", str(ds), *_ARGS.get(command, []))
    assert out.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("command", ["eval", "map", "plot", "refine", "infer"])
def test_noise_free_commands_never_import_numpy_random(refined_dataset, tmp_path, command):
    """``refine``'s initial weights come from its own copy of numpy's
    stream, and a noise-free oracle draws nothing."""
    ds = tmp_path / "ds"
    shutil.copytree(refined_dataset, ds)
    out = _python("import sys\nfrom sweepnav.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print(code, 'numpy.random' in sys.modules, '_hashlib' in sys.modules)",
                  command, "--dataset", str(ds))
    assert out.splitlines()[-1] == "0 False False"


def test_plot_and_simulate_leave_metrics_unloaded(refined_dataset, tmp_path):
    """Only eval and map score a trajectory; the map's own scorer
    imports ``metrics`` when it runs."""
    ds = tmp_path / "ds"
    shutil.copytree(refined_dataset, ds)
    code = ("import sys\nfrom sweepnav.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'sweepnav.metrics' in sys.modules)")
    assert _python(code, "plot", "--dataset", str(ds)).splitlines()[-1] == "0 False"
    out = _python(code, "simulate", "--out", str(tmp_path / "new"), "--set", "sim.n_items=3")
    assert out.splitlines()[-1] == "0 False"


def test_public_names_resolve_to_their_home_objects():
    bad, unlisted = json.loads(_python("""
import importlib, json
import sweepnav
listed = set(dir(sweepnav))  # before any name is resolved
bad = []
for name in sweepnav.__all__:
    scope = {}
    exec(f"from sweepnav import {name} as value", scope)
    home = importlib.import_module(f"sweepnav.{sweepnav._HOMES[name]}")
    if scope["value"] is not getattr(home, name):
        bad.append(name)
print(json.dumps([bad, sorted(set(sweepnav.__all__) - listed)]))
"""))
    assert bad == [] and unlisted == []


@pytest.mark.parametrize("module, name", [
    ("sim", "SimConfig"), ("object_map", "MapConfig"),
    ("object_map", "CaptionServiceConfig"), ("rae", "RaeConfig"),
    ("loop_closure", "RefineConfig"), ("estimator", "OracleConfig")])
def test_section_dataclasses_are_importable_from_their_stage(module, name):
    import importlib

    from sweepnav import config

    assert getattr(importlib.import_module(f"sweepnav.{module}"), name) is getattr(config, name)


def test_unknown_package_attribute_is_an_attribute_error():
    import sweepnav

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        sweepnav.nope  # noqa: B018


def _traced_cli_names() -> set[str]:
    """The globals of ``cli`` that perfbench's tracer replaces by name."""
    tree = ast.parse((ROOT / "perfbench" / "traced_cli.py").read_text(encoding="utf-8"))
    names = {f"cmd_{cmd}" for cmd in ("simulate", "infer", "refine", "eval", "map", "plot")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "wrap" and len(node.args) > 1
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "cli"
                and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def _bound_names(fn: ast.FunctionDef) -> set[str]:
    bound = {arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
    return bound


def test_traced_names_stay_globals_that_no_command_rebinds():
    """A command that bound one of these names itself would call around
    the tracer's wrapper and drop its span without a word."""
    traced = _traced_cli_names()
    assert "load_imu" in traced and "_render_svg" in traced
    assert all(callable(getattr(cli, name, None)) for name in traced)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_"):
            assert not _bound_names(fn) & traced, fn.name
