"""A run killed at any of its writes resumes to the bytes of a run never killed.

A test-only injector counts the calls of the package's write primitives
(``append`` as ``pipeline`` and ``clients`` reach it, ``os.replace`` as
``jsonl`` reaches it, and ``Path.unlink``) and raises a ``BaseException`` at
the k-th, which no ``except Exception`` catches, as a kill would end the
process there. For every k, a fresh toy workspace is run to the kill and then
through all three stages again.
"""

import os
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from factprobe import clients, jsonl, pipeline
from factprobe.clients import HttpClient, load_fixtures
from factprobe.config import load_config

from conftest import make_toy_workspace


class _Killed(BaseException):
    pass


class _KillPoints:
    """Counts the write calls of a run and raises ``_Killed`` at call ``at``."""

    def __init__(self, monkeypatch):
        self.calls, self.at = 0, None

        def killing(write):
            def wrapper(*args, **kwargs):
                self.calls += 1
                if self.calls == self.at:
                    raise _Killed()
                return write(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline, "append", killing(pipeline.append))
        monkeypatch.setattr(clients, "append", killing(clients.append))
        monkeypatch.setattr(jsonl, "os", SimpleNamespace(**dict(vars(os),
                                                                replace=killing(os.replace))))
        monkeypatch.setattr(Path, "unlink", killing(Path.unlink))


class _CountingScorer:
    def __init__(self, inner, scored: list):
        self.inner, self.scored = inner, scored

    def score_batch(self, prompt, continuations):
        self.scored.append(prompt)
        return self.inner.score_batch(prompt, continuations)


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("mode", ["replay", "live"])
def test_a_run_killed_at_any_write_resumes_to_the_same_bytes(tmp_path, monkeypatch, mode):
    pristine = tmp_path / "pristine"
    config_path = make_toy_workspace(pristine, facts_per_cell=3)
    requests: list[str] = []
    if mode == "live":
        # Each client asks the endpoint, answered from the toy fixtures, and
        # every answer is written to the response cache.
        answers = load_fixtures(sorted((pristine / "fixtures").glob("*.jsonl")))
        monkeypatch.setattr(HttpClient, "complete", lambda self, request: (
            requests.append(request.digest()) or answers[request.digest()]))
        config = yaml.safe_load(config_path.read_text(encoding="utf-8"))
        for role in ("mt", "llm", "qe"):
            config[role] = {"client_id": role, "mode": "live", "endpoint": "http://127.0.0.1:9/"}
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    scored: list[str] = []

    def run(name: str):
        """Copy the pristine workspace to ``name`` unless it is there, and
        run the three stages over it."""
        ws = tmp_path / name
        if not ws.exists():
            shutil.copytree(pristine, ws)
        config = load_config(ws / "config.yaml")
        bundle = pipeline.cmd_build_dataset(config, replay=mode == "replay")
        scorer = pipeline.make_scorer(config, pipeline.read_jsonl(
            bundle / "candidate_sets.jsonl", "candidate_sets"))
        pipeline.cmd_report(config, pipeline.cmd_evaluate(
            config, bundle, scorer=_CountingScorer(scorer, scored)))
        return ws

    kill = _KillPoints(monkeypatch)
    whole = run("whole")
    kill_points, expected = kill.calls, (_snapshot(whole / "out"), _snapshot(whole / "cache"))
    once = len(scored), len(requests)
    assert kill_points > 0 and once[0] > 0 and (mode == "replay") == (once[1] == 0)
    for k in range(1, kill_points + 1):
        scored.clear()
        requests.clear()
        kill.calls, kill.at = 0, k
        with pytest.raises(_Killed):
            run(f"killed-{k}")
        kill.at = None
        ws = run(f"killed-{k}")
        assert (_snapshot(ws / "out"), _snapshot(ws / "cache")) == expected, k
        # At most the set or the request in hand at the kill is done again.
        assert len(scored) <= once[0] + 1, k
        assert len(requests) <= once[1] + 1, k
        shutil.rmtree(ws)
