"""The benchmark's span list names callables that exist, so a moved name fails here, not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_spans().WRAPPED


@pytest.mark.parametrize("layer", sorted(WRAPPED))
def test_every_wrapped_name_resolves_on_its_layer(layer):
    module = importlib.import_module(f"symext.{layer}")
    missing = [name for name in WRAPPED[layer] if not callable(getattr(module, name, None))]
    assert missing == []
