"""Locate the engine in the checkout, import it, and describe the environment."""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "motivic_pairs"
# The layers the benchmark times, outermost first.
MODULES = ("cli", "suites", "power", "series", "lefschetz", "pairs", "oracle", "geometry", "field")


class ProgramMissing(RuntimeError):
    """The checkout holds no engine source the benchmark can import."""


def load() -> dict[str, ModuleType]:
    """Import the engine modules from `<root>/src`, keyed by short name.

    Refuses an engine found anywhere else (an installed copy, say): the
    benchmark must measure the source tree it was checked out with.
    """
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"engine source not found: {init.relative_to(ROOT)} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    for module in modules.values():
        if not Path(module.__file__).resolve().is_relative_to(SRC):
            raise ProgramMissing(f"{module.__name__} was imported from {module.__file__}, not {SRC}")
    return modules


def package() -> ModuleType:
    """The engine's package module; `load()` must have run."""
    return sys.modules[PACKAGE]


def source_digest() -> str:
    """SHA-256 over the engine's source files, so a result names the code it measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(**run: object) -> dict:
    """Python version, usable CPU count, platform, code identity, plus the run's own settings."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": cpus,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        **run,
    }
