"""reprolint: the analyzer itself — rules, suppressions, CLI contract.

Every rule gets a violating fixture *and* a clean fixture, written in
this codebase's own idioms, so a rule gone vacuous (matching nothing) or
over-eager (matching the sanctioned form) fails here before it rots in
CI.  Fixtures are materialised under ``tmp_path`` mirroring the real
layout (``src/repro/...``) because most rules are path-scoped.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    CODE_BAD_SUPPRESSION,
    CODE_UNUSED_SUPPRESSION,
    AnalysisError,
    AnalysisReport,
    DocstringRule,
    EngineIsolationRule,
    ExportConsistencyRule,
    FrozenModelRule,
    ProcessHashRule,
    UnorderedIterationRule,
    UnseededRandomRule,
    WallClockRule,
    default_rules,
    iter_python_files,
    render_json,
    run_analysis,
)
from repro.analysis.__main__ import main as lint_main


def write_module(root: Path, relpath: str, text: str) -> Path:
    """Materialise *text* at ``root/relpath``, creating parents."""
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def lint(root: Path, relpath: str, text: str, rules=None):
    """Write one fixture module and run reprolint over it."""
    path = write_module(root, relpath, text)
    report = run_analysis([path], rules or default_rules(), root=root)
    return report


def codes(report: AnalysisReport) -> list[str]:
    """The active violation codes, in report order."""
    return [violation.rule for violation in report.violations]


# ---------------------------------------------------------------------------
# RL001 unseeded randomness
# ---------------------------------------------------------------------------


class TestUnseededRandom:
    def test_module_level_random_call_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/generators/bad.py",
            '"""doc."""\nimport random\n\nvalue = random.random()\n',
            rules=[UnseededRandomRule()],
        )
        assert codes(report) == ["RL001"]

    def test_unseeded_random_constructor_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/generators/bad2.py",
            '"""doc."""\nimport random\n\nrng = random.Random()\n',
            rules=[UnseededRandomRule()],
        )
        assert codes(report) == ["RL001"]

    def test_from_import_of_helpers_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/generators/bad3.py",
            '"""doc."""\nfrom random import shuffle\n',
            rules=[UnseededRandomRule()],
        )
        assert codes(report) == ["RL001"]

    def test_injected_seeded_rng_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/generators/good.py",
            '"""doc."""\n'
            "import random\n\n\n"
            "def make(seed, rng=None):\n"
            '    """doc."""\n'
            "    return rng if rng is not None else random.Random(seed)\n",
            rules=[UnseededRandomRule()],
        )
        assert report.ok

    def test_out_of_scope_path_ignored(self, tmp_path):
        report = lint(
            tmp_path,
            "benchmarks/bench_x.py",
            '"""doc."""\nimport random\n\nvalue = random.random()\n',
            rules=[UnseededRandomRule()],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RL002 wall clock
# ---------------------------------------------------------------------------


class TestWallClock:
    def test_perf_counter_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/bad_clock.py",
            '"""doc."""\nimport time\n\nstarted = time.perf_counter()\n',
            rules=[WallClockRule()],
        )
        assert codes(report) == ["RL002"]

    def test_datetime_now_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/bad_clock2.py",
            '"""doc."""\nimport datetime\n\nstamp = datetime.datetime.now()\n',
            rules=[WallClockRule()],
        )
        assert codes(report) == ["RL002"]

    def test_from_time_import_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/bad_clock3.py",
            '"""doc."""\nfrom time import monotonic\n',
            rules=[WallClockRule()],
        )
        assert codes(report) == ["RL002"]

    def test_benchmarks_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "benchmarks/bench_clock.py",
            '"""doc."""\nimport time\n\nstarted = time.perf_counter()\n',
            rules=[WallClockRule()],
        )
        assert report.ok

    def test_simulated_time_parameter_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/good_clock.py",
            '"""doc."""\n\n\n'
            "def service_until(now, duration):\n"
            '    """doc."""\n'
            "    return now + duration\n",
            rules=[WallClockRule()],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RL003 process-dependent hash/id
# ---------------------------------------------------------------------------


class TestProcessHash:
    def test_hash_in_bucket_key_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/bad_hash.py",
            '"""doc."""\n\n\n'
            "def bucket_key(token, band):\n"
            '    """doc."""\n'
            "    return (band, hash(token) % 1024)\n",
            rules=[ProcessHashRule()],
        )
        assert codes(report) == ["RL003"]

    def test_id_key_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/bad_id.py",
            '"""doc."""\n\nregistry = {}\n\n\n'
            "def register(node):\n"
            '    """doc."""\n'
            "    registry[id(node)] = node\n",
            rules=[ProcessHashRule()],
        )
        assert codes(report) == ["RL003"]

    def test_dunder_hash_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/good_hash.py",
            '"""doc."""\n\n\n'
            "class Pattern:\n"
            '    """doc."""\n\n'
            "    def __hash__(self):\n"
            "        return hash(self.spine)\n",
            rules=[ProcessHashRule()],
        )
        assert report.ok

    def test_blake2b_digest_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/good_digest.py",
            '"""doc."""\nimport hashlib\n\n\n'
            "def stable_key(token):\n"
            '    """doc."""\n'
            "    return hashlib.blake2b(token.encode(), digest_size=8).digest()\n",
            rules=[ProcessHashRule()],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RL004 unordered set iteration
# ---------------------------------------------------------------------------


class TestUnorderedIteration:
    def test_list_built_from_set_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/bad_iter.py",
            '"""doc."""\n\n\n'
            "def destinations(neighbors):\n"
            '    """doc."""\n'
            "    pending = set(neighbors)\n"
            "    return list(pending)\n",
            rules=[UnorderedIterationRule()],
        )
        assert codes(report) == ["RL004"]

    def test_for_loop_over_set_attr_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/bad_iter2.py",
            '"""doc."""\n\n\n'
            "class Node:\n"
            '    """doc."""\n\n'
            "    def __init__(self):\n"
            "        self.members = set()\n\n"
            "    def emit(self, out):\n"
            '        """doc."""\n'
            "        for member in self.members:\n"
            "            out.append(member)\n",
            rules=[UnorderedIterationRule()],
        )
        assert codes(report) == ["RL004"]

    def test_keyed_min_over_set_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/bad_iter3.py",
            '"""doc."""\n\n\n'
            "def leader(members, weight):\n"
            '    """doc."""\n'
            "    candidates = set(members)\n"
            "    return min(candidates, key=weight)\n",
            rules=[UnorderedIterationRule()],
        )
        assert codes(report) == ["RL004"]

    def test_sorted_iteration_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/good_iter.py",
            '"""doc."""\n\n\n'
            "def destinations(neighbors):\n"
            '    """doc."""\n'
            "    pending = set(neighbors)\n"
            "    return sorted(pending)\n",
            rules=[UnorderedIterationRule()],
        )
        assert report.ok

    def test_order_free_reductions_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/good_iter2.py",
            '"""doc."""\n\n\n'
            "def summarise(members):\n"
            '    """doc."""\n'
            "    pending = set(members)\n"
            "    total = sum(m for m in pending)\n"
            "    hit = any(m > 3 for m in pending)\n"
            "    doubled = {2 * m for m in pending}\n"
            "    return total, hit, doubled\n",
            rules=[UnorderedIterationRule()],
        )
        assert report.ok

    def test_outside_routing_ignored(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/free_iter.py",
            '"""doc."""\n\n\n'
            "def anything(values):\n"
            '    """doc."""\n'
            "    return list(set(values))\n",
            rules=[UnorderedIterationRule()],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RL005 frozen models
# ---------------------------------------------------------------------------


class TestFrozenModel:
    def test_mutable_scheduling_policy_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/bad_policy.py",
            '"""doc."""\nfrom repro.routing.policy import SchedulingPolicy\n\n\n'
            "class Greedy(SchedulingPolicy):\n"
            '    """doc."""\n\n'
            "    def select(self, queue, now, shares):\n"
            '        """doc."""\n'
            "        return 0\n",
            rules=[FrozenModelRule()],
        )
        assert codes(report) == ["RL005"]

    def test_frozen_policy_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/good_policy.py",
            '"""doc."""\nfrom dataclasses import dataclass\n\n'
            "from repro.routing.policy import SchedulingPolicy\n\n\n"
            "@dataclass(frozen=True)\n"
            "class Greedy(SchedulingPolicy):\n"
            '    """doc."""\n\n'
            "    def select(self, queue, now, shares):\n"
            '        """doc."""\n'
            "        return 0\n",
            rules=[FrozenModelRule()],
        )
        assert report.ok

    def test_real_policy_module_is_clean(self):
        src_root = Path(__file__).resolve().parent.parent
        report = run_analysis(
            [src_root / "src/repro/routing/policy.py"],
            [FrozenModelRule()],
            root=src_root,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RL006 engine isolation
# ---------------------------------------------------------------------------


class TestEngineIsolation:
    def test_engine_import_in_trie_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/trie.py",
            '"""doc."""\nfrom repro.routing.engine import DeliveryEngine\n',
            rules=[EngineIsolationRule()],
        )
        assert "RL006" in codes(report)

    def test_engine_reference_in_table_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/table.py",
            '"""doc."""\nimport repro.routing as routing\n\n\n'
            "def peek(engine):\n"
            '    """doc."""\n'
            "    return routing.DeliveryEngine\n",
            rules=[EngineIsolationRule()],
        )
        assert "RL006" in codes(report)

    def test_engine_module_itself_unscoped(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/routing/engine.py",
            '"""doc."""\n\n\nclass DeliveryEngine:\n    """doc."""\n',
            rules=[EngineIsolationRule()],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RL007 export consistency
# ---------------------------------------------------------------------------


class TestExportConsistency:
    def test_unbound_all_entry_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/fake/__init__.py",
            '"""doc."""\n\n__all__ = ["missing"]\n',
            rules=[ExportConsistencyRule()],
        )
        assert codes(report) == ["RL007"]

    def test_unlisted_public_reexport_flagged(self, tmp_path):
        write_module(tmp_path, "src/repro/fake2/mod.py", '"""doc."""\nvalue = 1\n')
        report = lint(
            tmp_path,
            "src/repro/fake2/__init__.py",
            '"""doc."""\nfrom repro.fake2.mod import value\n\n__all__ = []\n',
            rules=[ExportConsistencyRule()],
        )
        assert codes(report) == ["RL007"]

    def test_missing_all_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/fake3/__init__.py",
            '"""doc."""\n',
            rules=[ExportConsistencyRule()],
        )
        assert codes(report) == ["RL007"]

    def test_consistent_init_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/fake4/__init__.py",
            '"""doc."""\nfrom repro.fake4.mod import value\n\n'
            '__all__ = ["value"]\n',
            rules=[ExportConsistencyRule()],
        )
        assert report.ok

    def test_non_init_modules_ignored(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/fake5/mod.py",
            '"""doc."""\nvalue = 1\n',
            rules=[ExportConsistencyRule()],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RL008 docstrings
# ---------------------------------------------------------------------------


class TestDocstrings:
    def test_missing_docstrings_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/bare.py",
            "class Thing:\n    def act(self):\n        return 1\n",
            rules=[DocstringRule()],
        )
        assert codes(report) == ["RL008", "RL008", "RL008"]

    def test_private_and_dunder_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/documented.py",
            '"""doc."""\n\n\n'
            "class Thing:\n"
            '    """doc."""\n\n'
            "    def __repr__(self):\n"
            "        return 'Thing()'\n\n"
            "    def _helper(self):\n"
            "        return 1\n",
            rules=[DocstringRule()],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_inline_suppression_with_justification(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/supp.py",
            '"""doc."""\nimport random\n\n'
            "value = random.random()  # reprolint: disable=RL001 -- fixture\n",
            rules=None,
        )
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "RL001"
        assert report.suppressed[0].justification == "fixture"

    def test_own_line_suppression_covers_next_line(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/supp2.py",
            '"""doc."""\nimport random\n\n'
            "# reprolint: disable=RL001 -- fixture\n"
            "value = random.random()\n",
        )
        assert report.ok
        assert len(report.suppressed) == 1

    def test_file_level_suppression(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/supp3.py",
            '"""doc."""\n'
            "# reprolint: disable-file=RL001 -- fixture module\n"
            "import random\n\n"
            "a = random.random()\nb = random.random()\n",
        )
        assert report.ok
        assert len(report.suppressed) == 2

    def test_suppression_without_justification_rejected(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/supp4.py",
            '"""doc."""\nimport random\n\n'
            "value = random.random()  # reprolint: disable=RL001\n",
        )
        # The pragma is malformed AND the violation stays active.
        assert CODE_BAD_SUPPRESSION in codes(report)
        assert "RL001" in codes(report)

    def test_unused_suppression_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/supp5.py",
            '"""doc."""\n\n'
            "value = 1  # reprolint: disable=RL001 -- stale pragma\n",
        )
        assert codes(report) == [CODE_UNUSED_SUPPRESSION]

    def test_suppression_for_other_rule_does_not_silence(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/supp6.py",
            '"""doc."""\nimport random\n\n'
            "value = random.random()  # reprolint: disable=RL002 -- wrong code\n",
        )
        assert "RL001" in codes(report)


# ---------------------------------------------------------------------------
# Report serialisation and engine plumbing
# ---------------------------------------------------------------------------


class TestReporting:
    def test_json_round_trip(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/json_fixture.py",
            '"""doc."""\nimport random\n\n'
            "a = random.random()\n"
            "b = random.random()  # reprolint: disable=RL001 -- fixture\n",
        )
        rebuilt = AnalysisReport.from_json(json.loads(render_json(report)))
        assert rebuilt.violations == report.violations
        assert rebuilt.suppressed == report.suppressed
        assert rebuilt.files_checked == report.files_checked
        assert rebuilt.rule_codes == report.rule_codes

    def test_render_is_deterministic_and_sorted(self, tmp_path):
        write_module(
            tmp_path,
            "src/repro/core/z_mod.py",
            '"""doc."""\nimport random\n\nvalue = random.random()\n',
        )
        write_module(
            tmp_path,
            "src/repro/core/a_mod.py",
            '"""doc."""\nimport random\n\nvalue = random.random()\n',
        )
        report = run_analysis(
            [tmp_path / "src"], [UnseededRandomRule()], root=tmp_path
        )
        assert [v.path for v in report.violations] == [
            "src/repro/core/a_mod.py",
            "src/repro/core/z_mod.py",
        ]
        assert report.render() == report.render()

    def test_syntax_error_raises_analysis_error(self, tmp_path):
        path = write_module(tmp_path, "src/repro/core/broken.py", "def f(:\n")
        with pytest.raises(AnalysisError):
            run_analysis([path], default_rules(), root=tmp_path)

    def test_missing_path_raises_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            list(iter_python_files([tmp_path / "nowhere"]))

    def test_iter_skips_hidden_and_pycache(self, tmp_path):
        write_module(tmp_path, "pkg/mod.py", "x = 1\n")
        write_module(tmp_path, "pkg/__pycache__/mod.py", "x = 1\n")
        write_module(tmp_path, "pkg/.hidden/mod.py", "x = 1\n")
        found = [p.name for p in iter_python_files([tmp_path / "pkg"])]
        assert found == ["mod.py"]


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys, monkeypatch):
        write_module(
            tmp_path, "src/repro/core/clean.py", '"""doc."""\nvalue = 1\n'
        )
        monkeypatch.chdir(tmp_path)
        assert lint_main(["src"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_exit_one_on_violation(self, tmp_path, capsys, monkeypatch):
        write_module(
            tmp_path,
            "src/repro/core/dirty.py",
            '"""doc."""\nimport random\n\nvalue = random.random()\n',
        )
        monkeypatch.chdir(tmp_path)
        assert lint_main(["src"]) == 1
        assert "RL001" in capsys.readouterr().out

    def test_exit_two_on_analysis_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert lint_main(["nowhere"]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys, monkeypatch):
        write_module(
            tmp_path,
            "src/repro/core/dirty.py",
            '"""doc."""\nimport random\n\nvalue = random.random()\n',
        )
        monkeypatch.chdir(tmp_path)
        assert lint_main(["src", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["summary"]["by_rule"] == {"RL001": 1}

    def test_rules_filter_and_unknown_code(self, tmp_path, capsys, monkeypatch):
        write_module(
            tmp_path,
            "src/repro/core/dirty.py",
            '"""doc."""\nimport random\n\nvalue = random.random()\n',
        )
        monkeypatch.chdir(tmp_path)
        # Filtered to RL002 the RL001 violation is invisible.
        assert lint_main(["src", "--rules", "RL002"]) == 0
        capsys.readouterr()
        assert lint_main(["src", "--rules", "RL999"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        ):
            assert code in out

    def test_default_rule_set_has_eight_rules(self):
        assert len(default_rules()) == 8


# ---------------------------------------------------------------------------
# The repository itself must be clean (the CI gate, in miniature)
# ---------------------------------------------------------------------------


class TestRepositoryClean:
    def test_src_tree_passes_reprolint(self):
        repo = Path(__file__).resolve().parent.parent
        report = run_analysis([repo / "src"], default_rules(), root=repo)
        assert report.ok, report.render()

    def test_every_suppression_carries_justification(self):
        repo = Path(__file__).resolve().parent.parent
        report = run_analysis([repo / "src"], default_rules(), root=repo)
        assert report.suppressed, "expected documented suppressions in src/"
        for violation in report.suppressed:
            assert violation.justification
