"""Import hygiene: start-up loads only the modules a run uses.

Each case runs in a fresh interpreter, because this test session has
already imported most of the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

CASES = {
    # numpy is the only runtime dependency: with networkx and scipy
    # blocked, every module of the package still imports.
    "no_networkx_or_scipy": """
        import importlib, pkgutil, sys
        sys.modules["networkx"] = None
        sys.modules["scipy"] = None
        import repro
        names = [
            m.name
            for m in pkgutil.walk_packages(repro.__path__, "repro.")
            if not m.name.endswith(".__main__")
        ]
        for name in names:
            importlib.import_module(name)
        assert len(names) > 100, names
    """,
    # The simulator, which every experiment and benchmark round imports,
    # pulls in neither the wire server nor any experiment.
    "simulator_is_lean": """
        import sys
        import repro.runtime.simulator
        loaded = [
            m
            for m in sys.modules
            if m == "networkx"
            or m == "repro.server"
            or m.startswith(("repro.server.", "repro.experiments."))
        ]
        assert not loaded, loaded
    """,
    # The top-level re-exports resolve on first access.
    "repro_is_lazy": """
        import sys
        import repro
        loaded = [m for m in sys.modules if m.startswith("repro.")]
        assert not loaded, loaded
        for name in repro.__all__:
            getattr(repro, name)
    """,
    "experiments_package_is_lazy": """
        import sys
        import repro.experiments
        loaded = [m for m in sys.modules if m.startswith("repro.experiments.")]
        assert not loaded, loaded
    """,
}


@pytest.mark.parametrize("case", CASES)
def test_import_hygiene(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(CASES[case])],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
