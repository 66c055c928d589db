"""The benchmark drives the program only through code it owns."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_sources_never_import_the_repo_generators_or_oracle():
    pattern = re.compile(r"^\s*(from|import)\s+repro\.(workloads|testing)", re.MULTILINE)
    for path in (ROOT / "h2bench").rglob("*.py"):
        if path.parent.name == "tests":
            continue
        assert not pattern.search(path.read_text()), path


def test_loading_the_program_leaves_them_unimported():
    code = (
        "import sys; sys.path.insert(0, '.'); import h2bench.harness, h2bench.layertrace; "
        "print(sorted(m for m in sys.modules if m.startswith(('repro.workloads', 'repro.testing'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    (tmp_path / "h2bench").mkdir()
    for path in (ROOT / "h2bench").glob("*.py"):
        (tmp_path / "h2bench" / path.name).write_text(path.read_text())
    cmd = [sys.executable, "h2bench/run.py", "--workload", "paper-mix", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
