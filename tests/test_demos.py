"""Every walkthrough in demos/ and in the README runs to completion
against the current API."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sweepnav.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


README = ROOT / "README.md"


def _readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S)


def test_readme_python_block_runs(tmp_path, monkeypatch):
    blocks = _readme_blocks("python")
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_command_lines_run(tmp_path, monkeypatch):
    """README's ``sweepnav`` lines, in order, each exit 0 through cli.main."""
    lines = [shlex.split(line, comments=True) for block in _readme_blocks("sh")
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["sweepnav"]]
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
