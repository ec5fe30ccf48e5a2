"""The benchmark's traced per-layer names point at functions that exist."""

import importlib
import inspect
import json
from pathlib import Path

# RandomStream methods, wrapped on the class rather than looked up as functions.
METHOD_SPANS = {"streams.init", "streams.randbelow"}


def test_per_layer_names_are_public_functions():
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    missing = []
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) != 3 or ".".join(parts[:2]) in METHOD_SPANS:
            continue
        layer, name, _ = parts
        module = importlib.import_module(f"matchcount.{layer}")
        fn = getattr(module, name, None)
        if (
            name.startswith("_")
            or not inspect.isfunction(fn)
            or fn.__module__ != module.__name__
        ):
            missing.append(metric["name"])
    assert not missing, missing
