"""Multi-writer cache safety and run-journal durability.

Pool workers and concurrent invocations on one host share the result
cache directory, and every ``--resume`` relies on the run journal's
append discipline — these tests pin both contracts.
"""

import json
import threading

import pytest

from repro.harness.journal import RunJournal
from repro.harness.resultcache import ResultCache

PAYLOAD_A = {"status": "ok", "data": list(range(200))}
PAYLOAD_B = {"status": "ok", "data": list(range(200, 400))}


class TestConcurrentPuts:
    def test_racing_identical_puts_never_tear(self, tmp_path):
        """N writers hammering one key while readers poll: every read
        is either a miss or a complete payload, never a torn file."""
        directory = tmp_path / "cache"
        stop = threading.Event()
        torn = []

        def writer():
            cache = ResultCache(directory)
            while not stop.is_set():
                cache.put("shared-key", PAYLOAD_A)

        def reader():
            cache = ResultCache(directory)
            while not stop.is_set():
                payload = cache.get("shared-key")
                if payload is not None and payload != PAYLOAD_A:
                    torn.append(payload)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        threading.Event().wait(1.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert torn == []
        assert ResultCache(directory).get("shared-key") == PAYLOAD_A

    def test_no_tempfile_litter_after_races(self, tmp_path):
        directory = tmp_path / "cache"
        caches = [ResultCache(directory) for _ in range(3)]
        threads = [threading.Thread(
            target=lambda c=c: [c.put(f"k{i}", PAYLOAD_A)
                                for i in range(50)]) for c in caches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert list(directory.glob("*.tmp")) == []
        assert len(ResultCache(directory)) == 50

    def test_last_write_wins_is_complete(self, tmp_path):
        """Even with *different* payloads racing (which content
        addressing precludes in practice), the surviving file is one
        complete payload, not an interleaving."""
        directory = tmp_path / "cache"

        def put(payload):
            ResultCache(directory).put("contested", payload)

        threads = [threading.Thread(target=put, args=(p,))
                   for p in (PAYLOAD_A, PAYLOAD_B) * 10]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        final = ResultCache(directory).get("contested")
        assert final in (PAYLOAD_A, PAYLOAD_B)

    def test_durable_put_roundtrips(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", durable=True)
        cache.put("key", PAYLOAD_A)
        assert cache.get("key") == PAYLOAD_A
        assert cache.stores == 1


class TestJournalFlags:
    def test_recorded_entry_survives_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.record("job-1", {"status": "ok"})
        resumed = RunJournal(path, resume=True)
        assert resumed.get("job-1") == {"status": "ok"}
        assert resumed.replayed == 1

    def test_corrupt_tail_resume_warns_and_keeps_rest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.record("job-1", {"status": "ok"})
        journal.record("job-2", {"status": "ok"})
        with open(path, "a") as handle:
            handle.write('{"key": "job-3", "payl')  # crash mid-append
        with pytest.warns(RuntimeWarning, match="undecodable"):
            resumed = RunJournal(path, resume=True)
        assert resumed.replayed == 2
        assert resumed.dropped_lines == 1
        assert resumed.get("job-3") is None

    def test_clean_resume_does_not_warn(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        RunJournal(path).record("job-1", {"status": "ok"})
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resumed = RunJournal(path, resume=True)
        assert resumed.replayed == 1

    def test_journal_lines_are_valid_jsonl(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        for i in range(5):
            journal.record(f"job-{i}", {"i": i})
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["key"] == f"job-{i}"
                   for i, line in enumerate(lines))
