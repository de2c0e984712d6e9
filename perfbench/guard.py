"""Import guard: load ``glspaths`` from the ``src/`` of this checkout only.

The benchmark lives in ``<checkout>/perfbench``; the code it measures is
``<checkout>/src/glspaths``.  An installed copy, a stale build or anything
else on ``sys.path`` would make a parent run and a change run measure the
same code, so the guard refuses to run unless the imported package file
resolves inside this checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "glspaths"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


class GuardError(RuntimeError):
    """The checkout does not hold the package the benchmark must measure."""


def import_glspaths():
    """Import ``glspaths`` from this checkout's ``src/`` or raise GuardError."""
    if not (PACKAGE / "__init__.py").is_file():
        raise GuardError(f"no src/glspaths package under {ROOT}")
    if "glspaths" not in sys.modules:
        sys.path.insert(0, str(SRC))
    import glspaths
    import glspaths.cli  # noqa: F401  (also loads glspaths.checks)
    found = Path(glspaths.__file__).resolve().parent
    if found != PACKAGE.resolve():
        raise GuardError(f"glspaths resolves to {found}, not {PACKAGE}")
    return glspaths


def provenance() -> dict:
    """Commit hash (when the checkout is a git repository), a digest of the
    measured sources, and the interpreter version."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0]}
