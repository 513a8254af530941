"""The benchmark's tracer must still find and see every layer it wraps.

``perfbench/tracing.py`` patches package functions in the namespace their
callers look them up in. A refactor that moves a call elsewhere would leave
the bench failing with a ``KeyError`` or silently recording nothing.
"""

import importlib.util

from factprobe import pipeline
from factprobe.config import load_config

from conftest import REPO_ROOT, make_toy_workspace


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for owner, attr, name, _ in _tracing()._targets():
        assert attr in owner.__dict__, (owner.__name__, attr, name)


# The stages each traced layer must be seen in on a replay run. Evaluate
# and report read through ``iter_lines``, so no stage calls ``read_jsonl``,
# and build writes its lines through ``writing``, not ``write_jsonl``.
LAYER_STAGES = {
    "pipeline.read_jsonl": set(),
    "pipeline.write_jsonl": {"pipeline.evaluate"},
    "candidates.sample": {"pipeline.build"},
    "candidates.assemble": {"pipeline.build"},
    "clients.fetch": {"pipeline.build"},
    "score.round_trip": {"pipeline.evaluate"},
    "score.rank": {"pipeline.evaluate"},
}


def test_tracer_sees_each_layer_of_a_replay_run(tmp_path):
    config = load_config(make_toy_workspace(tmp_path / "ws", facts_per_cell=3))
    tracer = _tracing().Tracer().install()
    try:
        # Through the module, as the bench calls them, so the stages are traced.
        bundle = pipeline.cmd_build_dataset(config, replay=True)
        pipeline.cmd_report(config, pipeline.cmd_evaluate(config, bundle))
    finally:
        tracer.uninstall()
    stages = {"pipeline.build", "pipeline.evaluate", "pipeline.report"}
    seen = {layer: set() for layer in LAYER_STAGES}
    for name, _, _, parent, _ in tracer.spans:
        layer = name.rsplit(".", 1)[0] if name.startswith("clients.fetch.") else name
        if layer in seen:
            while parent >= 0 and tracer.spans[parent][0] not in stages:
                parent = tracer.spans[parent][3]
            seen[layer].add(tracer.spans[parent][0] if parent >= 0 else None)
    assert seen == LAYER_STAGES
    layers = tracer.layer_metrics()
    for name in ("pipeline.write_jsonl_s", "candidates.keys_hashed", "clients.cache_gets"):
        assert layers[name] > 0, name
