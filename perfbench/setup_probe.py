"""The benchmark's set-up, timed: import the CLI, resolve the LJ model,
compute its c_wstar and create the output directory.

``python3 perfbench/setup_probe.py <repo root> <output dir>`` runs the
set-up in a fresh interpreter and prints the seconds it took, then the
seconds a fixed reference import took right after it.  The benchmark
runs it several times and reports the median of set-up seconds times
``NOMINAL_IMPORT_S`` over reference seconds as ``setup_s``: the set-up
time on a machine where the reference import takes 60 ms.

Set-up is mostly importing: reading, unmarshalling and executing
modules.  Its speed on a shared VM follows that of other imports made
moments later in the same process far more closely than that of the
compute probe in ``probe.py``.  This module imports only the standard
library at load time.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

NOMINAL_IMPORT_S = 0.06

# Standard-library modules that neither the package nor numpy imports.
# If the set-up has already loaded one, the reference would shrink and
# set-up time would read high, so that is an error.
REFERENCE_MODULES = (
    "email.message",
    "http.client",
    "smtplib",
    "ftplib",
    "imaplib",
    "poplib",
    "mailbox",
    "xml.dom.minidom",
    "html.parser",
    "wave",
    "tarfile",
    "sqlite3",
    "plistlib",
    "tomllib",
    "difflib",
    "calendar",
    "cmd",
    "pdb",
)


def setup(root: Path, out: Path) -> float:
    """Seconds from before ``import fracture1d`` until the first op could run."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    t0 = perf_counter()
    import fracture1d.cli  # noqa: F401  (the import is what is timed)
    from fracture1d.material import c_wstar, resolve_model

    c_wstar(resolve_model("lj"))
    out.mkdir(parents=True, exist_ok=True)
    return perf_counter() - t0


def reference_import() -> float:
    """Seconds to import ``REFERENCE_MODULES``; once per interpreter."""
    loaded = [m for m in REFERENCE_MODULES if m in sys.modules]
    if loaded:
        raise RuntimeError(f"reference modules already imported: {', '.join(loaded)}")
    t0 = perf_counter()
    for name in REFERENCE_MODULES:
        __import__(name)
    return perf_counter() - t0


if __name__ == "__main__":
    seconds = setup(Path(sys.argv[1]), Path(sys.argv[2]))
    print(repr(seconds), repr(reference_import()))
