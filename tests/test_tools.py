"""The repository tools, run as a user runs them."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


def layer_revision(src):
    """``bench_layers.revision(src)``, in a fresh interpreter, since importing
    the tool pins the BLAS thread variables."""
    code = (f"import sys; from pathlib import Path; sys.path.insert(0, {str(TOOLS)!r}); "
            f"import bench_layers; print(bench_layers.revision(Path({str(src)!r})))")
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_layer_revision_is_dirty_only_when_the_source_differs(tmp_path):
    """Rows merged into ``BENCH_layers.json`` leave the label clean; a change
    to a tracked file under ``src`` marks it dirty."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text("x = 1\n")
    bench = tmp_path / "BENCH_layers.json"
    bench.write_text("{}\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "seed")
    clean = layer_revision(src)
    assert clean and clean != "unknown" and not clean.endswith("-dirty")
    bench.write_text('{"runs": {}}\n')
    assert layer_revision(src) == clean
    (src / "mod.py").write_text("x = 2\n")
    assert layer_revision(src) == clean + "-dirty"
