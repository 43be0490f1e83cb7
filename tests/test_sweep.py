"""A parameter sweep: points built by ``make_recipe`` and resolved by one
``run_many`` call, which reports progress once per point."""

from tests.conftest import tiny_config

from repro.sim.parallel import clear_memo, make_recipe, run_many
from repro.sim.trace import CoreTrace, TraceRecord, Workload


def workload():
    traces = [
        CoreTrace(
            [TraceRecord(1, (c + 1) * 256 + i % 30, False, i % 4)
             for i in range(250)]
        )
        for c in range(2)
    ]
    return Workload(traces, "wl0")


def points():
    wl = workload()
    return [
        make_recipe(wl, "inclusive", "lru", config=tiny_config()),
        make_recipe(wl, "ziv:notinprc", "lru", config=tiny_config()),
    ]


class TestRunSweep:
    def test_progress_callback(self, monkeypatch, tmp_path):
        """Each point sends one heartbeat, labelled by ``labels=`` or,
        without it, by its scheme, policy and workload."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        clear_memo()
        seen = []
        run_many(points(), heartbeat=seen.append)
        assert [p.label for p in seen] == [
            "inclusive/lru: wl0",
            "ziv:notinprc/lru: wl0",
        ]
        assert [p.completed for p in seen] == [1, 2]
        seen.clear()
        run_many(points(), labels=["I-LRU", "ZIV"], heartbeat=seen.append)
        assert [(p.label, p.source) for p in seen] == [
            ("I-LRU", "memo"),
            ("ZIV", "memo"),
        ]
        clear_memo()
