"""Build and load C source shipped inside the package (DESIGN.md §15).

The compiled kernel tier keeps its C source as a string in the package
and builds it once per machine with the system C compiler, through the
stdlib only (``subprocess`` to compile, ``ctypes`` to load):

* The shared library goes into a per-user cache directory:
  ``$XDG_CACHE_HOME/eval-repro`` or ``~/.cache/eval-repro``, falling back
  to a private directory under the system temp directory when that one
  cannot be written.
* Its file name carries a hash of the source, the compiler flags and the
  compiler's identity (resolved path, size and mtime), so a changed
  kernel or compiler builds a new file instead of loading a stale one.
* The compiler writes a temporary file next to the target, which is then
  moved into place with ``os.replace``; concurrent builders race
  harmlessly and a reader never sees a half-written library.

A later process finds the file and only ``dlopen``s it; the compiler is
located (``shutil.which`` plus one ``stat``) to compute the hash but is
not run.  Every failure — no compiler, a compile error, an unwritable
cache, a library that will not load — raises :class:`BuildError`, and
the outcome is remembered for the life of the process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, Tuple, Union

#: The C compiler, looked up on ``PATH``.
COMPILER = "cc"

#: Flags for every build.  Floating-point contraction (FMA) and the
#: fast-math relaxations would change results; they are off explicitly,
#: whatever the compiler's default.
FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared")

#: Library file name -> the loaded library or the error that stopped it.
_LOADED: Dict[str, Union[ctypes.CDLL, "BuildError"]] = {}


class BuildError(RuntimeError):
    """The C source could not be built or loaded on this machine."""


def cache_dirs() -> Tuple[Path, ...]:
    """Directories tried, in order, for the built libraries."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    user = os.getuid() if hasattr(os, "getuid") else "user"
    return (
        Path(base) / "eval-repro",
        Path(tempfile.gettempdir()) / f"eval-repro-{user}",
    )


def _compiler() -> Tuple[str, str]:
    """The compiler's resolved path and an identity string for the hash."""
    found = shutil.which(COMPILER)
    if found is None:
        raise BuildError(f"C compiler {COMPILER!r} not found on PATH")
    path = os.path.realpath(found)
    stat = os.stat(path)
    return path, f"{path}:{stat.st_size}:{stat.st_mtime_ns}"


def library_name(name: str, source: str) -> str:
    """The cache file name for ``source`` under this compiler and flags."""
    _, identity = _compiler()
    digest = hashlib.sha256(
        "\0".join((source, *FLAGS, identity)).encode()
    ).hexdigest()[:16]
    return f"{name}-{digest}.so"


def _private(directory: Path) -> bool:
    """Whether ``directory`` is ours alone (a shared temp dir must be)."""
    if not hasattr(os, "getuid"):
        return True
    stat = directory.stat()
    return stat.st_uid == os.getuid() and not stat.st_mode & 0o022


def _compile(source: str, target: Path) -> None:
    """Compile ``source`` into ``target`` atomically."""
    compiler, _ = _compiler()
    with tempfile.TemporaryDirectory() as work:
        c_file = os.path.join(work, "kernel.c")
        with open(c_file, "w", encoding="utf-8") as handle:
            handle.write(source)
        fd, partial = tempfile.mkstemp(
            prefix=target.stem, suffix=".tmp", dir=target.parent
        )
        os.close(fd)
        try:
            proc = subprocess.run(
                [compiler, *FLAGS, "-o", partial, c_file],
                capture_output=True,
                text=True,
                timeout=300,
            )
            if proc.returncode != 0:
                raise BuildError(
                    f"{compiler} exited with {proc.returncode}: "
                    f"{proc.stderr.strip()[-2000:]}"
                )
            os.replace(partial, target)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)


def _load_or_build(name: str, source: str, file_name: str) -> ctypes.CDLL:
    problems = []
    for directory in cache_dirs():
        target = directory / file_name
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if not _private(directory):
                problems.append(f"{directory}: writable by other users")
                continue
            if target.exists():
                try:
                    return ctypes.CDLL(str(target))
                except OSError:
                    pass  # truncated or foreign file: rebuild it
            _compile(source, target)
            return ctypes.CDLL(str(target))
        except (OSError, subprocess.SubprocessError) as exc:
            problems.append(f"{directory}: {exc}")
    raise BuildError(f"cannot build {name}: " + "; ".join(problems))


def load(name: str, source: str) -> ctypes.CDLL:
    """The shared library built from ``source``, compiling it if no
    cached build exists.  Raises :class:`BuildError` on any failure."""
    file_name = library_name(name, source)
    outcome = _LOADED.get(file_name)
    if outcome is None:
        try:
            outcome = _load_or_build(name, source, file_name)
        except BuildError as exc:
            outcome = exc
        _LOADED[file_name] = outcome
    if isinstance(outcome, BuildError):
        raise outcome
    return outcome
