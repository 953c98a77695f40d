"""Every function the perfbench tracer wraps must still exist.

``perfbench/tracer.py`` names the functions it wraps per layer module.
A deleted or renamed function breaks ``run.py --trace 1``, which the
test suite never runs, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"ggt.{layer}.{name}"
               for table in (tracer.SPANNED, tracer.COUNTED)
               for layer, names in table.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"ggt.{layer}"),
                                       name, None))]
    assert missing == []
