# perfbench/tracer.py wraps solitonlab functions by name: each one must exist

import importlib
import importlib.util
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
