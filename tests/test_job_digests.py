"""tools/job_digests.py: the output check between two checkouts."""

import importlib.util
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "job_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("job_digests", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()
PARENT, CHANGE = Path("/parent"), Path("/change")


def _fake_passes(monkeypatch, digests):
    """Let each pass return digests[checkout][seed]; record the run order."""
    order = []

    def pass_digests(root, workload, seed):
        order.append((seed, root))
        return digests[root][seed]

    monkeypatch.setattr(TOOL, "pass_digests", pass_digests)
    return order


def test_parse_seeds():
    assert TOOL.parse_seeds("0-3") == [0, 1, 2, 3]
    assert TOOL.parse_seeds("1,5,9") == [1, 5, 9]


def test_same_outputs_print_nothing(monkeypatch, capsys):
    same = {seed: {"a": ("0", "x"), "b": ("1", "y")} for seed in (4, 5, 6)}
    order = _fake_passes(monkeypatch, {PARENT: same, CHANGE: same})
    assert TOOL.compare(PARENT, CHANGE, "variational", [4, 5, 6]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "6 jobs compared, 0 differ" in captured.err
    # The checkout that runs first alternates, the parent first.
    assert order == [(4, PARENT), (4, CHANGE), (5, CHANGE), (5, PARENT),
                     (6, PARENT), (6, CHANGE)]


def test_differences_are_listed(monkeypatch, capsys):
    parent = {0: {"a": ("0", "x"), "b": ("0", "y"), "c": ("0", "z")}}
    change = {0: {"a": ("0", "x"), "b": ("1", "y"), "d": ("0", "w")}}
    _fake_passes(monkeypatch, {PARENT: parent, CHANGE: change})
    assert TOOL.compare(PARENT, CHANGE, "tables", [0]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "0 b 0 y 1 y", "0 c 0 z - -", "0 d - - 0 w"]
