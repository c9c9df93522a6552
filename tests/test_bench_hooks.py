"""The benchmark's tracing hooks name functions that exist in itemsim.

`perfbench/tracing.py` wraps itemsim functions at the module attributes
the commands look them up under. A renamed or moved function would only
show up when the benchmark runs, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracing_module():
    # loaded by path: perfbench is not a package and imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves_under_src():
    missing = []
    for module_name, attr, _span in _tracing_module().PATCHES:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().is_relative_to(ROOT / "src"), module.__file__
        if not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"benchmark hooks without a target: {', '.join(missing)}"
