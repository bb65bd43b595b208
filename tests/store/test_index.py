"""The append-only store index: one line per written cell, folded on read.

``update_index`` appends and never rewrites; ``read_index`` folds the file
(the last line for a key wins, torn and foreign lines are skipped); the
``cache stats`` rebuild leaves one line per key.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.result import RunResult
from repro.store import ResultStore

_SRC = str(Path(__file__).resolve().parents[2] / "src")
KEY = "ab" * 32
OTHER = "cd" * 32

# Each child process writes and indexes 25 cells of its own, one merge per
# cell, so the 4 children contend for the index lock 100 times.
_CHILD = """
import sys
from repro.core.result import RunResult
from repro.store import ResultStore

store = ResultStore(sys.argv[1])
worker = int(sys.argv[2])
for number in range(25):
    key = f"{worker:02x}{number:02x}" * 16
    result = RunResult(architecture="dva", program=f"P{worker}", latency=number,
                       total_cycles=100 + number, instructions=10)
    store.put(key, result)
    assert store.update_index([(key, result)])
"""


def make_result(program="TRFD"):
    return RunResult(
        architecture="dva", program=program, latency=1, total_cycles=100, instructions=10
    )


def index_lines(store):
    return store.index_path.read_text().splitlines()


def test_four_processes_of_25_merges_lose_no_entry(tmp_path):
    root = tmp_path / "cache"
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(root), str(worker)],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        for worker in range(4)
    ]
    for child in children:
        _out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
    index = ResultStore(root).read_index()
    expected = {
        f"{worker:02x}{number:02x}" * 16 for worker in range(4) for number in range(25)
    }
    assert set(index) == expected
    assert len(index_lines(ResultStore(root))) == 100
    assert index["0318" * 16]["program"] == "P3"


def test_a_merge_appends_without_rewriting(tmp_path):
    store = ResultStore(tmp_path / "cache")
    for key in (KEY, OTHER):
        store.put(key, make_result())
    store.update_index([(KEY, make_result())])
    before = store.index_path.read_bytes()
    store.update_index([(OTHER, make_result())], scale=0.5)
    after = store.index_path.read_bytes()
    assert after.startswith(before)
    record = json.loads(after[len(before):])
    assert record["key"] == OTHER and record["scale"] == 0.5
    assert store.index_merges == 2


def test_the_last_line_for_a_key_wins(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put(KEY, make_result())
    for scale in (0.1, 0.2, 0.3):
        store.update_index([(KEY, make_result())], scale=scale)
    assert len(index_lines(store)) == 3
    assert store.read_index()[KEY]["scale"] == 0.3


def test_a_torn_trailing_line_is_skipped_and_the_next_merge_survives_it(tmp_path):
    store = ResultStore(tmp_path / "cache")
    for key in (KEY, OTHER):
        store.put(key, make_result())
    store.update_index([(KEY, make_result())])
    with store.index_path.open("a") as handle:
        handle.write('{"key":"' + OTHER + '","program":"TR')  # killed mid-append
    assert set(store.read_index()) == {KEY}
    store.update_index([(OTHER, make_result())])
    assert set(store.read_index()) == {KEY, OTHER}


def test_foreign_lines_are_skipped(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put(KEY, make_result())
    store.update_index([(KEY, make_result())])
    with store.index_path.open("a") as handle:
        handle.write('\n[1, 2]\n"text"\n7\n{"no_key": 1}\n{"key": 5}\nnot json\n')
    assert set(store.read_index()) == {KEY}


def test_the_stats_rebuild_leaves_one_line_per_key(tmp_path):
    store = ResultStore(tmp_path / "cache")
    for key in (KEY, OTHER):
        store.put(key, make_result())
        store.update_index([(key, make_result())])
        store.update_index([(key, make_result())])
    assert len(index_lines(store)) == 4
    store.stats(refresh_index=True)  # what `repro cache stats` runs
    lines = index_lines(store)
    assert sorted(json.loads(line)["key"] for line in lines) == [KEY, OTHER]
    assert set(store.read_index()) == {KEY, OTHER}


def test_a_legacy_index_json_is_ignored(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put(KEY, make_result())
    legacy = store.version_dir / "index.json"
    legacy.write_text(json.dumps({"format": 1, "entries": {OTHER: {"program": "X"}}}))
    assert store.read_index() == {}
    store.update_index([(KEY, make_result())])
    assert set(store.read_index()) == {KEY}
    assert store.clear() == 1  # the legacy index is not an entry


def test_a_missing_index_reads_as_empty(tmp_path):
    assert ResultStore(tmp_path / "never").read_index() == {}
