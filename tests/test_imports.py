"""Each module imports on its own: a package loads none of its modules.

The imports run in a fresh interpreter, so the modules that this suite has
already loaded cannot hide what an import pulls in.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_loaded_by(statement: str) -> set[str]:
    """The names in `sys.modules` after `statement` runs in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{statement}\nprint(*sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("package", ["sdag", "sdag.router"])
def test_a_package_binds_none_of_its_modules(package):
    loaded = modules_loaded_by(f"import {package}")
    assert {name for name in loaded if name.startswith("sdag.")} <= {package}


def test_the_subject_taxonomy_loads_no_numpy():
    loaded = modules_loaded_by("import sdag.subjects")
    assert "numpy" not in loaded
