# perfbench/tracer.py wraps solitonlab functions by name: each one must exist

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from solitonlab import expr as ex

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py, loaded by path so that plain pytest finds it too."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


WRAPPED = load_tracer().WRAPPED


@pytest.mark.parametrize("module", sorted(WRAPPED))
def test_wrapped_names_are_callables_of_their_module(module):
    mod = importlib.import_module(f"solitonlab.{module}")
    missing = [f for f in WRAPPED[module] if not callable(getattr(mod, f, None))]
    assert missing == []


def test_eval_many_resolves_count_nodes():
    # the tracer counts the nodes of each eval_many call through its globals
    assert callable(ex.eval_many.__globals__.get("count_nodes"))


def test_cli_import_loads_every_wrapped_module_and_no_dataclasses():
    # Tracer.install reads each WRAPPED module from sys.modules right after
    # `import solitonlab.cli`, so none of them may be imported lazily; and
    # the records are plain classes, so a cold start never loads dataclasses
    src = TRACER_PATH.parents[1] / "src"
    code = ("import json, sys; import solitonlab.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'dataclasses' or m.startswith('solitonlab.'))))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "dataclasses" not in loaded
    assert {f"solitonlab.{m}" for m in WRAPPED} <= loaded
