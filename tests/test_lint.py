"""The static-analysis pass: every rule fires on a violating fixture,
stays quiet on a clean one, suppressions work, JSON round-trips, and the
shipped tree itself lints clean.  The contracts that left lint still
catch each defect their old rules' fixtures planted."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

from repro import config_io
from repro.config_io import RecipeError, config_from_dict, config_to_dict
from repro.lint import (
    PARSE_ERROR_RULE,
    RULES,
    Finding,
    LintError,
    findings_to_json,
    format_findings,
    lint_paths,
    scan_comments,
)
from repro.lint.lock_discipline import ClassFacts
from repro.hierarchy.cmp import CacheHierarchy
from repro.params import (
    ENGINES,
    AuditParams,
    CacheGeometry,
    SystemConfig,
    TelemetryParams,
    scaled_config,
)
from repro.obs import ledger
from repro.sim import parallel, telemetry
from repro.sim.engine import run_workload
from repro.sim.fast import FastHierarchy
from repro.sim.parallel import (
    RunRecipe,
    _execute_recipe,
    lookup_result,
    publish_result,
    record_resolution,
)
from repro.workloads import homogeneous_mix
from tests.conftest import tiny_config
from tests.test_config_io import leaf_problems
from tests.test_docs import kind_table_drift
from tests.test_obs import append_problems, make_record, parent_only_problems

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

EXPECTED_RULES = ("determinism", "lock-discipline")


def lint_tree(tmp_path, tree: dict[str, str], rules=None) -> list[Finding]:
    """Write a fixture tree and lint it with tmp_path as the root."""
    for rel, content in tree.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content)
    return lint_paths([str(tmp_path)], rule_ids=rules, root=str(tmp_path))


def rule_ids(findings) -> list[str]:
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------------------
# The RULES table
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_expected_rules_registered(self):
        assert tuple(RULES) == EXPECTED_RULES

    def test_every_rule_has_description(self):
        for description, _scope, _check in RULES.values():
            assert description

    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(LintError, match="unknown rule id"):
            lint_paths([str(tmp_path)], rule_ids=["no-such-rule"])


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_unseeded_module_random_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "sim/noise.py": (
                "import random\n"
                "def jitter():\n"
                "    return random.random()\n"
            ),
        })
        assert rule_ids(findings) == ["determinism"]
        assert "unseeded RNG" in findings[0].message
        assert findings[0].line == 3

    def test_unseeded_random_instance_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/policy.py": (
                "import random\n"
                "rng = random.Random()\n"
            ),
        })
        assert rule_ids(findings) == ["determinism"]
        assert "seed" in findings[0].message

    def test_wall_clock_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "sim/clock.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
        })
        assert rule_ids(findings) == ["determinism"]
        assert "wall-clock" in findings[0].message

    def test_set_iteration_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "schemes/order.py": (
                "def levels(props):\n"
                "    return [p for p in set(props)]\n"
            ),
        })
        assert rule_ids(findings) == ["determinism"]
        assert "PYTHONHASHSEED" in findings[0].message

    def test_seeded_rng_and_sorted_sets_stay_quiet(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "sim/good.py": (
                "import random\n"
                "def pick(seed, props):\n"
                "    rng = random.Random(seed)\n"
                "    for p in sorted(set(props)):\n"
                "        rng.random()\n"
            ),
        })
        assert findings == []

    def test_out_of_scope_dirs_are_exempt(self, tmp_path):
        # Workload generators may use wall clocks / module randomness:
        # they run outside the simulator scope.
        findings = lint_tree(tmp_path, {
            "workloads/gen.py": (
                "import random, time\n"
                "def f():\n"
                "    return random.random() + time.time()\n"
            ),
        })
        assert findings == []


# ---------------------------------------------------------------------------
# scope: the array-state fast engine
# ---------------------------------------------------------------------------


class TestFastEngineScope:
    """``repro.sim.fast`` feeds cached results exactly like the object
    engine, so every scoped rule must cover it: fixtures under
    ``sim/fast/`` fire, and the shipped package itself lints clean."""

    def test_fast_is_in_simulator_scope(self):
        _description, scope, _check = RULES["determinism"]
        assert "sim" in scope
        assert "fast" in scope

    def test_determinism_covers_fast_package(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "sim/fast/engine.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.perf_counter()\n"
            ),
        })
        assert rule_ids(findings) == ["determinism"]
        assert "wall-clock" in findings[0].message

    def test_shipped_fast_package_is_clean(self, monkeypatch):
        """The fast engine and the differential harness ship without a
        single finding (the full tree is linted, as CI does)."""
        monkeypatch.chdir(REPO_ROOT)
        findings = lint_paths(["src/repro"])
        fast = [
            f for f in findings
            if "sim/fast" in f.file or f.file.endswith("differential.py")
        ]
        assert fast == []
        assert findings == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    BAD = (
        "import time\n"
        "def stamp():\n"
        "    return time.time(){comment}\n"
    )

    def test_matching_rule_is_suppressed(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "sim/clock.py": self.BAD.format(
                comment="  # repro-lint: ignore[determinism]"
            ),
        })
        assert findings == []

    def test_bare_ignore_suppresses_everything(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "sim/clock.py": self.BAD.format(
                comment="  # repro-lint: ignore"
            ),
        })
        assert findings == []

    def test_other_rule_ignore_does_not_suppress(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "sim/clock.py": self.BAD.format(
                comment="  # repro-lint: ignore[lock-discipline]"
            ),
        })
        assert rule_ids(findings) == ["determinism"]

    def test_suppression_is_per_line(self, tmp_path):
        source = (
            "import time\n"
            "a = time.time()  # repro-lint: ignore[determinism]\n"
            "b = time.time()\n"
        )
        findings = lint_tree(tmp_path, {"sim/clock.py": source})
        assert [f.line for f in findings] == [3]

    def test_parser_accepts_multiple_rules(self):
        markers = scan_comments(
            "x = 1  # repro-lint: ignore[determinism, lock-discipline]"
        )
        assert markers == {1: {"ignore": ("determinism", "lock-discipline")}}


# ---------------------------------------------------------------------------
# Output formats and the JSON round-trip
# ---------------------------------------------------------------------------


class TestOutput:
    def sample(self) -> list[Finding]:
        return [
            Finding(file="src/a.py", line=3, rule_id="determinism",
                    message="m1"),
            Finding(file="src/b.py", line=1, rule_id="lock-discipline",
                    message="m2"),
        ]

    def test_json_round_trip(self):
        findings = self.sample()
        doc = json.loads(findings_to_json(findings))
        assert [Finding(**d) for d in doc["findings"]] == findings

    def test_json_document_shape(self):
        doc = json.loads(findings_to_json(self.sample()))
        assert doc["count"] == 2
        assert {f["rule_id"] for f in doc["findings"]} == {
            "determinism", "lock-discipline"
        }

    def test_human_format(self):
        text = format_findings(self.sample(), "human")
        assert "src/a.py:3: [determinism] m1" in text
        assert "2 finding(s)" in text
        assert format_findings([], "human") == "repro lint: clean"

    def test_parse_error_becomes_finding(self, tmp_path):
        findings = lint_tree(tmp_path, {"sim/broken.py": "def f(:\n"})
        assert rule_ids(findings) == [PARSE_ERROR_RULE]


# ---------------------------------------------------------------------------
# CLI + the shipped tree
# ---------------------------------------------------------------------------


class TestCli:
    def test_lint_subcommand_parses(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["lint", "--format", "json"])
        assert args.command == "lint"
        assert args.format == "json"

    def test_parser_does_not_import_lint(self):
        """Every ``repro`` command builds the parser; only ``repro lint``
        pays for importing the package."""
        code = (
            "import sys\n"
            "from repro.__main__ import build_parser\n"
            "build_parser()\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] == ['repro', 'lint']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_list_rules(self, capsys, monkeypatch):
        from repro.__main__ import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED_RULES:
            assert rule_id in out

    def test_unknown_rule_is_usage_error(self, capsys, monkeypatch,
                                         tmp_path):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.py").write_text("pass\n")
        assert main(["lint", "x.py", "--rules", "bogus"]) == 2

    def test_violations_exit_nonzero(self, capsys, monkeypatch, tmp_path):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "bad.py").write_text(
            "import time\nT = time.time()\n"
        )
        assert main(["lint", "sim"]) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out

    def test_shipped_tree_is_clean(self, capsys, monkeypatch):
        """The meta-test: `repro lint` exits 0 on this repository."""
        from repro.__main__ import main

        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_shipped_tree_json_round_trips(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        findings = lint_paths(["src/repro"])
        doc = json.loads(findings_to_json(findings))
        assert [Finding(**d) for d in doc["findings"]] == findings
        assert findings == []


# ---------------------------------------------------------------------------
# Concurrency contracts: lock-discipline
# ---------------------------------------------------------------------------

_MGR_HEADER = (
    "import threading\n"
    "class Manager:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._jobs = {}  # repro-lint: guarded-by[_lock]\n"
)


class TestLockDiscipline:
    def test_unguarded_write_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": _MGR_HEADER + (
                "    def drop(self, k):\n"
                "        self._jobs.pop(k, None)\n"
            ),
        }, rules=["lock-discipline"])
        assert any("unguarded write to '_jobs'" in f.message
                   for f in findings)

    def test_locked_access_stays_quiet(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": _MGR_HEADER + (
                "    def drop(self, k):\n"
                "        with self._lock:\n"
                "            self._jobs.pop(k, None)\n"
            ),
        }, rules=["lock-discipline"])
        assert findings == []

    def test_condition_aliases_its_lock(self, tmp_path):
        """`with self._cond:` counts as holding the underlying lock."""
        findings = lint_tree(tmp_path, {
            "service/mgr.py": (
                "import threading\n"
                "class Manager:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._cond = threading.Condition(self._lock)\n"
                "        self._n = 0  # repro-lint: guarded-by[_lock]\n"
                "    def bump(self):\n"
                "        with self._cond:\n"
                "            self._n += 1\n"
            ),
        }, rules=["lock-discipline"])
        assert findings == []

    def test_holds_annotation_satisfies_the_guard(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": _MGR_HEADER + (
                "    def _drop(self, k):  # repro-lint: holds[_lock]\n"
                "        self._jobs.pop(k, None)\n"
            ),
        }, rules=["lock-discipline"])
        assert findings == []

    def test_stale_declaration_fires(self, tmp_path):
        """declared-but-never-guarded: dead contract comments rot."""
        findings = lint_tree(tmp_path, {
            "service/mgr.py": (
                "import threading\n"
                "class Manager:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._ghost = None  # repro-lint: guarded-by[_lock]\n"
                "    def noop(self):\n"
                "        with self._lock:\n"
                "            pass\n"
            ),
        }, rules=["lock-discipline"])
        assert len(findings) == 1
        assert "never accessed outside __init__" in findings[0].message
        assert findings[0].line == 5

    def test_guarded_but_never_declared_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": (
                "import threading\n"
                "class Manager:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._items = []\n"
                "    def add(self, x):\n"
                "        with self._lock:\n"
                "            self._items.append(x)\n"
            ),
        }, rules=["lock-discipline"])
        assert len(findings) == 1
        assert "guarded-by[_lock]" in findings[0].message
        assert "carries no declaration" in findings[0].message

    def test_declaration_naming_unknown_lock_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": (
                "import threading\n"
                "class Manager:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._x = 0  # repro-lint: guarded-by[_mutex]\n"
                "    def get(self):\n"
                "        with self._lock:\n"
                "            return self._x + 1\n"
            ),
        }, rules=["lock-discipline"])
        assert any("no lock named '_mutex'" in f.message for f in findings)

    def test_race_signal_on_mixed_access(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": (
                "import threading\n"
                "class Manager:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._n = 0\n"
                "    def locked_bump(self):\n"
                "        with self._lock:\n"
                "            self._n += 1\n"
                "    def racy_reset(self):\n"
                "        self._n = 0\n"
            ),
        }, rules=["lock-discipline"])
        assert len(findings) == 1
        assert "race signal" in findings[0].message
        assert findings[0].line == 10

    def test_read_only_config_needs_no_declaration(self, tmp_path):
        """Attributes never written after __init__ are
        immutable-after-publish even when reads happen under a lock."""
        findings = lint_tree(tmp_path, {
            "service/mgr.py": (
                "import threading\n"
                "class Manager:\n"
                "    def __init__(self, mode):\n"
                "        self._lock = threading.Lock()\n"
                "        self.mode = mode\n"
                "    def describe(self):\n"
                "        with self._lock:\n"
                "            return self.mode + '!'\n"
            ),
        }, rules=["lock-discipline"])
        assert findings == []

    def test_return_escape_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": _MGR_HEADER + (
                "    def peek(self):\n"
                "        with self._lock:\n"
                "            return self._jobs\n"
            ),
        }, rules=["lock-discipline"])
        assert any("returns guarded attribute '_jobs'" in f.message
                   for f in findings)

    def test_return_from_holds_helper_is_the_contract(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": _MGR_HEADER + (
                "    def _jobs_ref(self):  # repro-lint: holds[_lock]\n"
                "        return self._jobs\n"
            ),
        }, rules=["lock-discipline"])
        assert findings == []

    def test_escape_through_a_local_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": _MGR_HEADER + (
                "    def snapshot(self):\n"
                "        with self._lock:\n"
                "            jobs = self._jobs\n"
                "        return list(jobs.values())\n"
            ),
        }, rules=["lock-discipline"])
        assert [(f.line, f.message) for f in findings] == [(
            9,
            "Manager: snapshot() uses guarded attribute '_jobs' through "
            "local 'jobs' after the _lock critical section that bound "
            "it; copy it under the lock, or rebind the attribute there "
            "to move the object out",
        )]

    def test_local_moved_out_of_its_section_stays_quiet(self, tmp_path):
        """``JobManager.close`` and ``ServiceServer.close`` take their
        executor and thread out this way: once the attribute is rebound
        no other thread reaches the object through it."""
        findings = lint_tree(tmp_path, {
            "service/mgr.py": _MGR_HEADER + (
                "    def close(self):\n"
                "        with self._lock:\n"
                "            jobs = self._jobs\n"
                "            self._jobs = {}\n"
                "        jobs.clear()\n"
                "    def size(self):\n"
                "        with self._lock:\n"
                "            jobs = self._jobs\n"
                "            n = len(jobs)\n"
                "        return n\n"
            ),
        }, rules=["lock-discipline"])
        assert findings == []

    def test_yield_inside_critical_section_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": (
                "import threading\n"
                "class Manager:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._events = []\n"
                "    def stream(self):\n"
                "        with self._lock:\n"
                "            for e in self._events:\n"
                "                yield e\n"
            ),
        }, rules=["lock-discipline"])
        assert any("yields while holding _lock" in f.message
                   for f in findings)

    def test_executor_closure_capture_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/mgr.py": _MGR_HEADER + (
                "    def flush(self, pool):\n"
                "        pool.submit(lambda: self._jobs.clear())\n"
            ),
        }, rules=["lock-discipline"])
        assert any("captures guarded" in f.message for f in findings)

    def test_callback_invoking_locked_method_stays_quiet(self, tmp_path):
        """The correct cross-thread idiom: hand the pool a *method* that
        takes the lock itself, never the guarded object."""
        findings = lint_tree(tmp_path, {
            "service/mgr.py": _MGR_HEADER + (
                "    def _on_done(self, f):\n"
                "        with self._lock:\n"
                "            self._jobs.clear()\n"
                "    def flush(self, future):\n"
                "        future.add_done_callback(\n"
                "            lambda f: self._on_done(f)\n"
                "        )\n"
            ),
        }, rules=["lock-discipline"])
        assert findings == []

    def test_classless_module_is_skipped(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/util.py": "def helper(x):\n    return x + 1\n",
        }, rules=["lock-discipline"])
        assert findings == []


# ---------------------------------------------------------------------------
# The per-class facts lock-discipline checks
# ---------------------------------------------------------------------------


def class_facts(source: str) -> list[ClassFacts]:
    markers = scan_comments(source)
    return [ClassFacts(node, markers) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)]


class TestDataflow:
    def test_condition_alias_canonicalises(self):
        (cls,) = class_facts(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self._cond = threading.Condition(self._lock)\n"
        )
        assert set(cls.locks) == {"_lock", "_cond"}
        assert cls.canonical("_cond") == "_lock"

    def test_lexical_locks_cross_into_wait_predicates(self):
        """The Condition.wait_for lambda runs with the lock held; the
        lexical model must agree."""
        (cls,) = class_facts(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cond = threading.Condition(self._lock)\n"
            "        self._seq = 0\n"
            "    def wait(self, n):\n"
            "        with self._cond:\n"
            "            self._cond.wait_for(lambda: self._seq > n)\n"
        )
        (access,) = [a for a in cls.accesses if not a.in_init]
        assert access.attr == "_seq"
        assert "_lock" in access.held

    def test_marker_parsing(self):
        src = (
            "a = 1  # repro-lint: guarded-by[_lock]\n"
            "def f():  # repro-lint: holds[_a, _b]\n"
            "    pass\n"
        )
        assert scan_comments(src) == {
            1: {"guarded-by": ("_lock",)},
            2: {"holds": ("_a", "_b")},
        }

    def test_real_jobmanager_contract_is_live(self):
        """Non-vacuity: the shipped JobManager is a lock-bearing class
        with a declared contract the analyzer actually checks."""
        source = (REPO_ROOT / "src/repro/service/jobs.py").read_text()
        classes = {c.name: c for c in class_facts(source)}
        mgr = classes["JobManager"]
        assert mgr.canonical("_cond") == "_lock"
        assert "_jobs" in mgr.declared
        assert "_inflight" in mgr.declared
        assert mgr.holds.get("_publish") == frozenset(("_lock",))
        # And the analyzer sees real locked accesses to check.
        assert any(
            a.attr == "_jobs" and "_lock" in a.held for a in mgr.accesses
        )


# ---------------------------------------------------------------------------
# Exit-code contract (docs/STATIC_ANALYSIS.md: 0 clean / 1 findings /
# 2 usage error -- parse errors are findings, hence exit 1)
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys, monkeypatch, tmp_path):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.py").write_text("X = 1\n")
        assert main(["lint", "ok.py"]) == 0

    def test_findings_exit_one(self, capsys, monkeypatch, tmp_path):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "bad.py").write_text("import time\nT = time.time()\n")
        assert main(["lint", "sim"]) == 1

    def test_parse_error_only_tree_exits_one(self, capsys, monkeypatch,
                                             tmp_path):
        """A syntax error is a finding, not a usage error: the tree was
        lintable, its content was not clean."""
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main(["lint", "broken.py"]) == 1
        assert "[parse-error]" in capsys.readouterr().out

    def test_usage_errors_exit_two(self, capsys, monkeypatch, tmp_path):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.py").write_text("X = 1\n")
        assert main(["lint", "no/such/path"]) == 2
        assert main(["lint", "ok.py", "--rules", "bogus"]) == 2


class TestProject:
    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            lint_paths(["definitely/not/here"])


# ---------------------------------------------------------------------------
# Seeded faults (docs/STATIC_ANALYSIS.md#seeded-faults)
# ---------------------------------------------------------------------------


def _line_of(source: str, needle: str) -> int:
    """The 1-based line of ``source`` holding ``needle``, which must
    occur on exactly one line."""
    lines = [n for n, text in enumerate(source.splitlines(), 1)
             if needle in text]
    assert len(lines) == 1, (needle, lines)
    return lines[0]


class TestSeededFaults:
    """The lint rows of the seeded-fault table.  Each test copies one
    real module under its scope directory, checks that the copy lints
    clean, plants its fault as a text edit and checks that lint reports
    exactly the expected findings, each at the line holding its needle."""

    def check(self, tmp_path, rel, edits, rule_id, expected):
        source = (REPO_ROOT / "src" / "repro" / rel).read_text()
        path = tmp_path / rel
        path.parent.mkdir(parents=True)
        path.write_text(source)
        assert lint_paths([str(tmp_path)], root=str(tmp_path)) == []
        for old, new in edits:
            assert source.count(old) == 1, old
            source = source.replace(old, new)
        path.write_text(source)
        assert lint_paths([str(tmp_path)], root=str(tmp_path)) == sorted(
            Finding(file=rel, line=_line_of(source, needle),
                    rule_id=rule_id, message=message)
            for needle, message in expected
        )

    # -- determinism ---------------------------------------------------------

    def test_module_random_shuffle(self, tmp_path):
        self.check(tmp_path, "cache/replacement/random_policy.py", [(
            "self._rng.shuffle(ways)", "random.shuffle(ways)",
        )], "determinism", [(
            "random.shuffle(ways)",
            "call to module-level random.shuffle() uses the shared "
            "unseeded RNG and poisons result-cache determinism; use a "
            "random.Random(seed) instance",
        )])

    def test_unseeded_brrip_rng(self, tmp_path):
        self.check(tmp_path, "cache/replacement/srrip.py", [(
            "self.long_prob = long_prob\n"
            "        self._rng = random.Random(seed)",
            "self.long_prob = long_prob\n"
            "        self._rng = random.Random()",
        )], "determinism", [(
            "random.Random()",
            "random.Random() without a seed draws entropy from the OS; "
            "pass an explicit seed",
        )])

    def test_wall_clock_in_scheme_stats(self, tmp_path):
        self.check(tmp_path, "sim/engine.py", [(
            "scheme_stats=h.scheme.on_stats(),",
            "scheme_stats={**h.scheme.on_stats(),\n"
            "                          \"ns\": time.perf_counter_ns()},",
        )], "determinism", [(
            "time.perf_counter_ns()",
            "wall-clock read time.perf_counter_ns() makes simulation "
            "output run-dependent; derive timing from simulated cycles",
        )])

    def test_set_order_gauge_columns(self, tmp_path):
        self.check(tmp_path, "sim/telemetry.py", [(
            "[f\"empty_pv:{prop}\" for prop in tracker.properties]",
            "[f\"empty_pv:{prop}\" for prop in set(tracker.properties)]",
        )], "determinism", [(
            "set(tracker.properties)",
            "iteration over set(...): set order depends on PYTHONHASHSEED "
            "for str keys; iterate a sorted() or insertion-ordered "
            "sequence instead",
        )])

    # -- lock-discipline: JobManager -----------------------------------------

    JOBS = "service/jobs.py"

    def test_unguarded_write(self, tmp_path):
        self.check(tmp_path, self.JOBS, [(
            "        with self._lock:\n"
            "            self._outcomes[\"rejected\"] += 1\n",
            "        self._outcomes[\"rejected\"] += 1\n",
        )], "lock-discipline", [(
            "self._outcomes[\"rejected\"] += 1",
            "JobManager: unguarded write to '_outcomes' (declared "
            "guarded-by[_lock]); take `with self._lock:` or annotate the "
            "method holds[_lock]",
        )])

    def test_stale_declaration(self, tmp_path):
        self.check(tmp_path, self.JOBS, [(
            "        self._closed = False  # repro-lint: guarded-by[_lock]\n",
            "        self._closed = False  # repro-lint: guarded-by[_lock]\n"
            "        self._spare = 0  # repro-lint: guarded-by[_lock]\n",
        )], "lock-discipline", [(
            "self._spare = 0",
            "JobManager: attribute '_spare' is declared guarded-by[_lock] "
            "but never accessed outside __init__; the declaration is "
            "stale -- delete it or the attribute",
        )])

    def test_return_escape(self, tmp_path):
        self.check(tmp_path, self.JOBS, [(
            "    # -- metrics ---",
            "    def inflight(self) -> \"dict[str, str]\":\n"
            "        with self._lock:\n"
            "            return self._inflight\n"
            "\n"
            "    # -- metrics ---",
        ), (
            "len(self._inflight))", "len(self.inflight()))",
        )], "lock-discipline", [(
            "return self._inflight",
            "JobManager: inflight() returns guarded attribute '_inflight' "
            "to a caller outside the _lock critical section; return a "
            "copy/snapshot instead",
        )])

    def test_yield_under_the_lock(self, tmp_path):
        self.check(tmp_path, self.JOBS, [(
            "        with self._lock:\n"
            "            return [job.view() for job in self._jobs.values()]\n",
            "        return list(self._views())\n"
            "\n"
            "    def _views(self):\n"
            "        with self._lock:\n"
            "            for job in self._jobs.values():\n"
            "                yield job.view()\n",
        )], "lock-discipline", [(
            "yield job.view()",
            "JobManager: _views() yields while holding _lock: the consumer "
            "runs inside the critical section for an unbounded time; "
            "snapshot under the lock, yield outside",
        )])

    def test_callback_capture(self, tmp_path):
        self.check(tmp_path, self.JOBS, [(
            "            future.add_done_callback(\n",
            "            future.add_done_callback("
            "lambda f: self._payloads.pop(key, None))\n"
            "            future.add_done_callback(\n",
        )], "lock-discipline", [(
            "lambda f: self._payloads.pop(key, None)",
            "JobManager: closure passed to .add_done_callback() captures "
            "guarded attribute(s) '_payloads'; it runs on another thread "
            "without the lock -- pass a snapshot or re-acquire inside",
        )])

    def test_dropped_marker(self, tmp_path):
        self.check(tmp_path, self.JOBS, [(
            "self._ledger_failures = 0  # repro-lint: guarded-by[_lock]",
            "self._ledger_failures = 0",
        )], "lock-discipline", [(
            "self._ledger_failures += 1",
            "JobManager: attribute '_ledger_failures' is accessed under "
            "self._lock at every site but carries no declaration; "
            "annotate its __init__ assignment "
            "`# repro-lint: guarded-by[_lock]`",
        )])

    def test_marker_naming_a_missing_lock(self, tmp_path):
        """The misnamed lock also leaves the one access unguarded."""
        self.check(tmp_path, self.JOBS, [(
            "self._job_ids = itertools.count(1)  # repro-lint: "
            "guarded-by[_lock]",
            "self._job_ids = itertools.count(1)  # repro-lint: "
            "guarded-by[_mutex]",
        )], "lock-discipline", [(
            "guarded-by[_mutex]",
            "JobManager: attribute '_job_ids' is declared "
            "guarded-by[_mutex] but the class constructs no lock named "
            "'_mutex'",
        ), (
            "next(self._job_ids)",
            "JobManager: unguarded read of '_job_ids' (declared "
            "guarded-by[_mutex]); take `with self._mutex:` or annotate "
            "the method holds[_mutex]",
        )])

    def test_race_signal(self, tmp_path):
        self.check(tmp_path, self.JOBS, [(
            "            executor.shutdown(wait=wait)\n",
            "            executor.shutdown(wait=wait)\n"
            "        self.workers = 0\n",
        )], "lock-discipline", [(
            "self.workers = 0",
            "JobManager: race signal: 'workers' is written here without a "
            "lock but accessed under one elsewhere in JobManager; guard "
            "this site or split the attribute",
        )])


# ---------------------------------------------------------------------------
# Contracts that left lint
# ---------------------------------------------------------------------------
# The cache-key-completeness and event-schema-sync rules kept hand-written
# lists in step with SystemConfig, EVENT_KINDS and the docs.  config_io now
# derives its lists from SystemConfig, and the rest is held at run time or
# by direct tests: leaf_problems (tests/test_config_io.py), kind_table_drift
# (tests/test_docs.py) and the KeyError TelemetryCollector.emit raises for
# an undeclared kind.  Each test below plants the defect the matching rule
# fixture planted and checks that its replacement reports it.


class TestCacheKeyCompleteness:
    def test_complete_round_trip_stays_quiet(self):
        # Instrumentation on, so its switches are perturbed from True.
        instrumented = dataclasses.replace(
            scaled_config("256KB"),
            audit=AuditParams(enabled=True),
            telemetry=TelemetryParams(enabled=True),
        )
        assert leaf_problems(instrumented) == []

    def test_annotated_sections_registry_is_found(self):
        # params.py postpones annotations, so every section type is a
        # string until get_type_hints resolves it.
        default = scaled_config("256KB")
        sections = {
            f.name: type(getattr(default, f.name))
            for f in dataclasses.fields(SystemConfig)
            if dataclasses.is_dataclass(getattr(default, f.name))
        }
        assert config_io._SECTIONS == sections
        assert {"audit", "telemetry"} <= set(sections)

    def test_unregistered_section_fires(self, monkeypatch):
        monkeypatch.setattr(config_io, "_SECTIONS", {
            name: cls for name, cls in config_io._SECTIONS.items()
            if name != "telemetry"
        })
        problems = leaf_problems(scaled_config("256KB"))
        assert problems
        assert all(p.endswith(": telemetry lost in the round trip")
                   for p in problems), problems

    def test_missing_scalar_key_fires(self, monkeypatch):
        monkeypatch.setattr(config_io, "_CONFIG_KEYS",
                            config_io._CONFIG_KEYS - {"directory_mode"})
        problems = leaf_problems(scaled_config("256KB"))
        assert problems
        assert all("'directory_mode'" in p for p in problems), problems

    def test_wrong_section_class_fires(self, monkeypatch):
        monkeypatch.setitem(config_io._SECTIONS, "audit", CacheGeometry)
        problems = leaf_problems(scaled_config("256KB"))
        assert problems
        assert all("section 'audit'" in p for p in problems), problems

    def test_stale_entries_fire_both_ways(self):
        # Both key sets derive from SystemConfig, so neither can keep a
        # field the dataclass dropped or miss one it gained ...
        assert config_io._CONFIG_KEYS == {
            f.name for f in dataclasses.fields(SystemConfig)
        }
        assert set(config_io._SECTIONS) <= config_io._CONFIG_KEYS
        # ... and a key left over from an older schema is rejected by
        # name, whether it was a section or a scalar.
        data = config_to_dict(scaled_config("256KB"))
        for stale, value in (("legacy", {"enabled": True}), ("ghost", 1)):
            with pytest.raises(RecipeError) as err:
                config_from_dict({**data, stale: value})
            assert err.value.field == stale


_KINDS_FIXTURE = {
    "relocation": ("relocation", "info"),
    "tau_reset": ("char", "debug"),
}

_DOC_FIXTURE = """\
# Observability

| Kind | Category | Severity | Payload |
|---|---|---|---|
| `relocation` | relocation | info | `addr` |
| `tau_reset` | char | debug | `d` |
"""


def _run_without_kind(monkeypatch, kind: str, scheme: str) -> None:
    """Run ``scheme`` on both engines with ``kind`` undeclared and only
    the directory category traced: the emit call must raise anyway."""
    monkeypatch.setattr(telemetry, "EVENT_KINDS", {
        k: v for k, v in telemetry.EVENT_KINDS.items() if k != kind
    })
    workload = homogeneous_mix("mcf.1", cores=2, n_accesses=600)
    for engine in ENGINES:
        config = dataclasses.replace(tiny_config(), engine=engine)
        with pytest.raises(KeyError, match=f"^'{kind}'$"):
            run_workload(config, workload, scheme, llc_policy="lru",
                         telemetry=TelemetryParams(enabled=True,
                                                   events="directory"))


class TestEventSchemaSync:
    def test_synchronised_schema_stays_quiet(self):
        assert kind_table_drift(_DOC_FIXTURE, _KINDS_FIXTURE) == []

    def test_unknown_emitted_kind_fires(self, monkeypatch):
        # The inclusive LLC emits back_invalidation as a literal kind.
        _run_without_kind(monkeypatch, "back_invalidation", "inclusive")

    def test_undocumented_kind_fires(self):
        doc = "\n".join(line for line in _DOC_FIXTURE.splitlines()
                        if "tau_reset" not in line)
        assert kind_table_drift(doc, _KINDS_FIXTURE) == [
            "'tau_reset' is missing from the kind table"
        ]

    def test_ghost_doc_row_fires(self):
        doc = _DOC_FIXTURE + "| `warp_drive` | relocation | info | `addr` |\n"
        assert kind_table_drift(doc, _KINDS_FIXTURE) == [
            "ghost row 'warp_drive': no such kind"
        ]

    def test_category_mismatch_fires(self):
        doc = _DOC_FIXTURE.replace("| `tau_reset` | char | debug |",
                                   "| `tau_reset` | char | info |")
        assert kind_table_drift(doc, _KINDS_FIXTURE) == [
            "row 'tau_reset' says (char, info) but the code declares "
            "(char, debug)"
        ]

    def test_unresolvable_kind_fires(self, monkeypatch):
        # ZIV picks relocation, re_relocation or cross_bank_fallback at
        # run time, a kind no static pass could resolve; the emit call
        # checks it all the same.
        _run_without_kind(monkeypatch, "relocation", "ziv:notinprc")


# The fork-safety rule walked the module functions a pool dispatch site
# names.  It found no module lock in the tree, and it missed a ledger
# append one method call below those functions, in RunRecipe.execute.
# parent_only_problems and append_problems (tests/test_obs.py) run the
# real worker paths and the real append instead.


def _execute_and_record(item):
    """``parallel._execute_recipe`` that records its own resolution in
    the worker.  Module level, so the service's pool pickles it by
    name."""
    key, result, wall_s = _execute_recipe(item)
    record_resolution(item[1], key, result, "run", wall_s)
    return key, result, wall_s


def _append_then_init(initializer, initargs) -> None:
    """Pool initializer that appends a ledger record, then runs the
    builder's own ``initializer``."""
    ledger.append_record(make_record())
    if initializer is not None:
        initializer(*initargs)


def _plant_in_execute(monkeypatch, extra) -> None:
    """Make every worker call ``extra(recipe, result)`` after running a
    recipe (forked workers inherit the patched method)."""
    real = RunRecipe.execute

    def execute(self):
        result = real(self)
        extra(self, result)
        return result

    monkeypatch.setattr(RunRecipe, "execute", execute)


def _masked(problems: list[str]) -> list[str]:
    """``problems`` without worker pids, sorted and deduplicated."""
    return sorted({re.sub(r"pid \d+", "pid N", p) for p in problems})


def _in_workers(name: str, made: int, want: int) -> list[str]:
    """What ``parent_only_problems`` reports, pids masked, when each
    fresh run also calls ``name`` in its worker."""
    return sorted(
        line
        for via in ("JobManager", "run_many")
        for line in (f"{via}: {made} {name} calls, want {want}",
                     f"{via}: {name} ran in worker pid N")
    )


def _write_line(record, path, flags, chunks) -> None:
    """Append ``record`` to ``path`` as ``chunks`` os.write calls on a
    descriptor opened with ``flags``."""
    line = (record.to_json_line() + "\n").encode()
    fd = os.open(path, flags, 0o644)
    try:
        for part in range(chunks):
            os.write(fd, line[part * len(line) // chunks:
                              (part + 1) * len(line) // chunks])
    finally:
        os.close(fd)


class TestForkSafety:
    def test_worker_recording_a_resolution_fires(self, monkeypatch,
                                                 tmp_path):
        """The dispatched function records a resolution: the rule
        caught this one."""
        monkeypatch.setattr(parallel, "_execute_recipe", _execute_and_record)
        assert _masked(parent_only_problems(monkeypatch, tmp_path)) == \
            _in_workers("append_record", 7, 4)

    def test_worker_reaching_ledger_fires(self, monkeypatch, tmp_path):
        """``RunRecipe.execute`` records a resolution: a method call
        below the dispatched function, which the rule never walked."""
        _plant_in_execute(monkeypatch, lambda recipe, result:
                          record_resolution(recipe, recipe.key(), result,
                                            "run", 0.0))
        assert _masked(parent_only_problems(monkeypatch, tmp_path)) == \
            _in_workers("append_record", 7, 4)

    def test_transitive_callee_is_walked(self, monkeypatch, tmp_path):
        """A result store two calls below ``RunRecipe.execute``
        (``publish_result``, then ``store_result``) is reported too."""
        _plant_in_execute(monkeypatch, lambda recipe, result:
                          publish_result(recipe.key(), result))
        assert _masked(parent_only_problems(monkeypatch, tmp_path)) == \
            _in_workers("store_result", 6, 3)

    def test_pool_initializer_is_a_dispatch_site(self, monkeypatch,
                                                 tmp_path):
        """``run_many``'s pool initializer runs in every worker, so a
        ledger append there is reported like a dispatched task's."""
        real = parallel._adopt_pending

        def adopt_and_append(items):
            real(items)
            ledger.append_record(make_record())

        monkeypatch.setattr(parallel, "_adopt_pending", adopt_and_append)
        problems = _masked(parent_only_problems(monkeypatch, tmp_path))
        assert "run_many: append_record ran in worker pid N" in problems
        assert not any(p.startswith("JobManager") for p in problems)

    def test_pool_builder_initializer_is_a_dispatch_site(self, monkeypatch,
                                                         tmp_path):
        """``parallel.process_pool(initializer=f)`` runs ``f`` in every
        worker, like the executor it builds: a ledger append in the
        initializer the builder installs is reported on both paths that
        build their pool through it."""
        real = parallel.process_pool

        def builder(workers, initializer=None, initargs=()):
            return real(workers, initializer=_append_then_init,
                        initargs=(initializer, initargs))

        monkeypatch.setattr(parallel, "process_pool", builder)
        problems = _masked(parent_only_problems(monkeypatch, tmp_path))
        assert "run_many: append_record ran in worker pid N" in problems
        assert "JobManager: append_record ran in worker pid N" in problems

    def test_pure_worker_stays_quiet(self, monkeypatch, tmp_path):
        """A worker that reads the cache and the ledger writes neither."""
        _plant_in_execute(monkeypatch, lambda recipe, result:
                          (lookup_result(recipe.key()),
                           ledger.read_ledger()))
        assert parent_only_problems(monkeypatch, tmp_path) == []

    def test_ledger_two_writes_fires(self, monkeypatch, tmp_path):
        monkeypatch.setattr(ledger, "append_record", lambda rec, path: (
            _write_line(rec, path, os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                        chunks=2)))
        assert append_problems(monkeypatch, tmp_path) == [
            "2 os.write calls for one record"
        ]

    def test_ledger_missing_o_append_fires(self, monkeypatch, tmp_path):
        monkeypatch.setattr(ledger, "append_record", lambda rec, path: (
            _write_line(rec, path, os.O_CREAT | os.O_WRONLY, chunks=1)))
        assert append_problems(monkeypatch, tmp_path) == [
            "os.write on a descriptor opened without O_APPEND"
        ]

    def test_ledger_buffered_append_fires(self, monkeypatch, tmp_path):
        def buffered(rec, path):
            with open(path, "a") as fh:
                fh.write(rec.to_json_line() + "\n")

        monkeypatch.setattr(ledger, "append_record", buffered)
        assert append_problems(monkeypatch, tmp_path) == [
            "0 os.write calls for one record"
        ]

    def test_disciplined_ledger_stays_quiet(self, monkeypatch, tmp_path):
        monkeypatch.setattr(ledger, "append_record", lambda rec, path: (
            _write_line(rec, path, os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                        chunks=1)))
        assert append_problems(monkeypatch, tmp_path) == []


# The counter-discipline rule checked every stats increment against the
# fields of SimStats and CoreStats, and the telemetry-guard rule checked
# that every emit sits under its ``is not None`` guard.  Both faults raise
# at run time: ``+=`` reads the attribute before it writes it, the
# aggregates are setter-less properties, and the telemetry handle is None
# on an untraced run.  A line trace of the test suite shows every site the
# two rules inspected running with its error armed, so each test below
# rewrites one line of a real engine method and runs it.

#: Per engine, the ``(class, method, line)`` of sites an inclusive run
#: reaches: a SimStats increment, a per-core increment through a hoisted
#: alias, an energy increment and the guard of the back-invalidation emit.
_SITES = {
    "object": {
        "stats": (CacheHierarchy, "_llc_access", "self.stats.llc_misses += 1"),
        "core": (CacheHierarchy, "access", "cs.l1_misses += 1"),
        "energy": (CacheHierarchy, "access", "energy.l1_accesses += 1"),
        "guard": (CacheHierarchy, "back_invalidate",
                  "if self.telemetry is not None:"),
    },
    "fast": {
        "stats": (FastHierarchy, "run_segment",
                  "stats.llc_misses += n_fill + n_fwd"),
        "core": (FastHierarchy, "run_segment", "cs.l1_misses += l2h + l2m"),
        "energy": (FastHierarchy, "run_segment",
                   "energy.l1_accesses += tot_acc"),
        "guard": (FastHierarchy, "_back_invalidate",
                  "if telemetry is not None:"),
    },
}


def _run_inclusive(engine: str, telemetry=None):
    workload = homogeneous_mix("mcf.1", cores=2, n_accesses=600)
    config = dataclasses.replace(tiny_config(), engine=engine)
    return run_workload(config, workload, "inclusive", llc_policy="lru",
                        telemetry=telemetry)


def _plant(monkeypatch, owner, method: str, old: str, new: str) -> None:
    """Replace ``owner.method`` with its own source, its one ``old`` line
    rewritten as ``new``."""
    func = getattr(owner, method)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, (method, old)
    code = compile(source.replace(old, new), inspect.getsourcefile(func),
                   "exec")
    namespace: dict = {}
    exec(code, func.__globals__, namespace)
    monkeypatch.setattr(owner, method, namespace[method])


def _planted_errors(monkeypatch, site: str, rewrite) -> dict[str, str]:
    """The AttributeError an untraced inclusive run raises on each engine
    with ``site``'s line rewritten by ``rewrite``."""
    errors = {}
    for engine in ENGINES:
        owner, method, line = _SITES[engine][site]
        with monkeypatch.context() as m:
            _plant(m, owner, method, line, rewrite(line))
            with pytest.raises(AttributeError) as err:
                _run_inclusive(engine)
        errors[engine] = str(err.value)
    return errors


class TestCounterDiscipline:
    def test_declared_counters_stay_quiet(self):
        for engine in ENGINES:
            stats = _run_inclusive(engine).stats
            assert stats.llc_misses > 0
            assert stats.cores[0].l1_misses > 0

    def test_typoed_counter_fires(self, monkeypatch):
        errors = _planted_errors(monkeypatch, "stats", lambda line: (
            line.replace("llc_misses", "llc_missez")))
        assert errors == dict.fromkeys(
            ENGINES, "'SimStats' object has no attribute 'llc_missez'")

    def test_hoisted_alias_chain_is_tracked(self, monkeypatch):
        """The rule tracked ``cs = stats.cores[core]`` chains but missed
        the fast engine's, whose per-core list is ``self._core_stats``."""
        errors = _planted_errors(monkeypatch, "core", lambda line: (
            line.replace("l1_misses", "l1_missez")))
        assert errors == dict.fromkeys(
            ENGINES, "'CoreStats' object has no attribute 'l1_missez'")

    def test_property_increment_fires(self, monkeypatch):
        errors = _planted_errors(monkeypatch, "stats", lambda line: (
            line.replace("llc_misses", "l2_misses")))
        assert list(errors) == list(ENGINES)
        for message in errors.values():
            assert "'l2_misses'" in message

    def test_non_stats_objects_raise_too(self, monkeypatch):
        """The rule skipped every object but stats; a misspelt energy
        counter raises all the same."""
        errors = _planted_errors(monkeypatch, "energy", lambda line: (
            line.replace("l1_accesses", "l1_accessez")))
        assert list(errors) == list(ENGINES)
        for message in errors.values():
            assert message.endswith("has no attribute 'l1_accessez'")


class TestTelemetryGuard:
    def test_guarded_emit_stays_quiet(self):
        traced = TelemetryParams(enabled=True, events="coherence")
        for engine in ENGINES:
            assert _run_inclusive(engine).stats.back_invalidations_llc > 0
            kinds = {e.kind for e in
                     _run_inclusive(engine, traced).telemetry.events}
            assert "back_invalidation" in kinds

    def test_unguarded_emit_fires(self, monkeypatch):
        errors = _planted_errors(monkeypatch, "guard",
                                 lambda line: "if True:")
        assert errors == dict.fromkeys(
            ENGINES, "'NoneType' object has no attribute 'emit'")

    def test_emit_in_else_branch_of_guard_fires(self, monkeypatch):
        errors = _planted_errors(monkeypatch, "guard", lambda line: (
            line.replace(" is not None", " is None")))
        assert errors == dict.fromkeys(
            ENGINES, "'NoneType' object has no attribute 'emit'")

    def test_guard_does_not_cross_function_boundary(self, monkeypatch):
        """The rule did not let a check in one function guard an emit in
        another.  Moved into a lambda the ``if`` never calls, the check
        guards nothing: the ``if`` tests the function object."""
        errors = _planted_errors(monkeypatch, "guard", lambda line: (
            f"if (lambda: {line[len('if '):-1]}):"))
        assert errors == dict.fromkeys(
            ENGINES, "'NoneType' object has no attribute 'emit'")

    def test_non_telemetry_emit_is_ignored(self, monkeypatch):
        """The rule skipped an ``emit`` on anything but the telemetry
        handle.  The unguarded emit raises only because that handle is
        None: with a plain recorder bound in its place, it runs."""

        class Recorder:
            def __init__(self):
                self.triggers = []

            def emit(self, kind, **data):
                if kind == "back_invalidation":
                    self.triggers.append(data["trigger"])

        for engine in ENGINES:
            owner, method, line = _SITES[engine]["guard"]
            recorder = Recorder()
            init = owner.__init__

            def bind(self, *args, init=init, recorder=recorder, **kwargs):
                init(self, *args, **kwargs)
                self.telemetry = recorder

            with monkeypatch.context() as m:
                _plant(m, owner, method, line, "if True:")
                m.setattr(owner, "__init__", bind)
                stats = _run_inclusive(engine).stats
            assert stats.back_invalidations_llc > 0
            assert recorder.triggers == (
                ["llc"] * stats.back_invalidations_llc)
