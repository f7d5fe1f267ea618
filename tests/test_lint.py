"""Self-tests for the ``repro.lint`` static-analysis pass.

Every rule is exercised against one triggering and one non-triggering
fixture from ``tests/lint_fixtures/``, linted under a *virtual path* so
path-scoped rules (library vs. tests, hot modules, trial engines) can be
driven from the fixture directory.  Suppression directives and CLI exit
codes are covered below.

Run in isolation with ``pytest -m lint``.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    all_codes,
    classify_path,
    iter_python_files,
    lint_source,
    main,
    parse_suppressions,
)

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: Virtual path per rule: where the fixture pretends to live, so the
#: right path-scoped checks apply.
LIBRARY_PATH = "src/repro/hardinstances/fixture_module.py"
HOT_PATH = "src/repro/sketch/fixture_module.py"
TRIAL_PATH = "src/repro/core/fixture_module.py"
CACHE_PATH = "src/repro/cache/fixture_module.py"
TEST_PATH = "tests/test_fixture_module.py"

RULE_FIXTURES = {
    "RPL001": LIBRARY_PATH,
    "RPL002": LIBRARY_PATH,
    "RPL003": LIBRARY_PATH,
    "RPL004": LIBRARY_PATH,
    "RPL005": HOT_PATH,
    "RPL006": LIBRARY_PATH,
    "RPL008": TEST_PATH,
    "RPL101": CACHE_PATH,
    "RPL103": LIBRARY_PATH,
    "RPL104": LIBRARY_PATH,
    "RPL105": TRIAL_PATH,
    "RPL901": LIBRARY_PATH,
}


def lint_fixture(name, virtual_path):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, virtual_path)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestRuleFixtures:
    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_bad_fixture_triggers(self, code):
        name = f"{code.lower()}_bad.py"
        violations = lint_fixture(name, RULE_FIXTURES[code])
        hit = [v for v in violations if v.code == code]
        assert hit, (
            f"{name} should trigger {code}, got "
            f"{[(v.code, v.line) for v in violations]}"
        )
        for violation in hit:
            assert violation.message
            assert violation.line >= 1

    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_good_fixture_is_clean(self, code):
        name = f"{code.lower()}_good.py"
        violations = lint_fixture(name, RULE_FIXTURES[code])
        assert violations == [], (
            f"{name} should be clean, got "
            f"{[(v.code, v.line) for v in violations]}"
        )

    def test_rpl001_spares_seeded_default_rng(self):
        violations = lint_source(
            "import numpy as np\ngen = np.random.default_rng(7)\n",
            LIBRARY_PATH,
        )
        assert violations == []

    def test_rpl002_direct_nesting_reports_pr1_bug(self):
        # The exact PR 1 pattern from the acceptance criteria.
        source = (
            "import numpy as np\n"
            "def bad(parent):\n"
            "    return np.random.default_rng(parent.integers(0, 2**63))\n"
        )
        violations = lint_source(source, LIBRARY_PATH)
        assert [v.code for v in violations] == ["RPL002"]

    def test_rpl005_only_fires_in_hot_modules(self):
        source = (FIXTURES / "rpl005_bad.py").read_text(encoding="utf-8")
        cold = lint_source(source, "src/repro/apps/fixture_module.py")
        assert [v for v in cold if v.code == "RPL005"] == []

    def test_rpl008_only_fires_in_tests(self):
        source = "import numpy as np\ngen = np.random.default_rng()\n"
        in_test = lint_source(source, TEST_PATH)
        assert [v.code for v in in_test] == ["RPL008"]
        # The same bare default_rng() in library code is RPL001's job.
        in_library = lint_source(source, LIBRARY_PATH)
        assert [v.code for v in in_library] == ["RPL001"]

    def test_syntax_error_reported_as_rpl900(self):
        violations = lint_source("def broken(:\n", LIBRARY_PATH)
        assert [v.code for v in violations] == ["RPL900"]

    def test_rpl101_only_fires_in_result_io_modules(self):
        source = (FIXTURES / "rpl101_bad.py").read_text(encoding="utf-8")
        # A sketch module's JSON writes feed nothing durable.
        outside = lint_source(source, HOT_PATH)
        assert [v for v in outside if v.code == "RPL101"] == []

    def test_rpl103_spares_the_shard_primitives_themselves(self):
        source = (FIXTURES / "rpl103_bad.py").read_text(encoding="utf-8")
        primitive = lint_source(source, "src/repro/utils/parallel.py")
        assert [v for v in primitive if v.code == "RPL103"] == []

    def test_rpl104_words_are_the_non_result_counter_prefixes(self):
        from repro.experiments import harness
        from repro.lint.visitor import _COUNTER_PREFIX_WORDS
        from repro.observe.counters import NON_RESULT_COUNTER_PREFIXES

        assert harness.NON_RESULT_COUNTER_PREFIXES \
            is NON_RESULT_COUNTER_PREFIXES
        assert tuple(word + "_" for word in _COUNTER_PREFIX_WORDS) \
            == NON_RESULT_COUNTER_PREFIXES
        for prefix in NON_RESULT_COUNTER_PREFIXES:
            source = (
                "from repro.observe import add_count\n"
                f"add_count('hits_{prefix}x')\n"
            )
            assert [v.code for v in lint_source(source, LIBRARY_PATH)] \
                == ["RPL104"]

    def test_rpl105_guard_helper_call_is_sufficient(self):
        source = (
            "from repro.utils.parallel import normalize_shard\n"
            "def run(trials, shard=None):\n"
            "    shard = normalize_shard(shard)\n"
            "    return trials // shard.count\n"
        )
        assert lint_source(source, TRIAL_PATH) == []

    def test_rpl105_leaves_the_batch_chunk_size_alone(self):
        # batch= changes no value, so computing with it needs no guard.
        source = (
            "def run(trials, batch):\n"
            "    return -(-trials // batch)\n"
        )
        assert lint_source(source, TRIAL_PATH) == []

    def test_rpl105_only_fires_in_trial_engine_modules(self):
        source = (FIXTURES / "rpl105_bad.py").read_text(encoding="utf-8")
        outside = lint_source(source, "src/repro/hardinstances/fixture_module.py")
        assert [v for v in outside if v.code == "RPL105"] == []

    def test_rpl901_cannot_be_suppressed(self):
        # A directive claiming to disable RPL901 is itself stale and is
        # still reported — staleness cannot hide its own diagnosis.
        source = "x = 1  # repro-lint: disable=RPL901\n"
        violations = lint_source(source, LIBRARY_PATH)
        assert [v.code for v in violations] == ["RPL901"]

    def test_rpl901_respects_ignore_filter(self):
        source = "x = 1  # repro-lint: disable=RPL003\n"
        assert lint_source(
            source, LIBRARY_PATH, ignore=frozenset({"RPL901"})
        ) == []


class TestPathClassification:
    def test_library_module(self):
        ctx = classify_path("src/repro/hardinstances/dbeta.py")
        assert not ctx.is_test and not ctx.is_hot and not ctx.is_trial_engine

    def test_hot_and_trial_module(self):
        ctx = classify_path("src/repro/core/tester.py")
        assert ctx.is_hot and ctx.is_trial_engine and not ctx.is_test

    def test_tests_never_hot(self):
        ctx = classify_path("tests/test_sketch_countsketch.py")
        assert ctx.is_test and not ctx.is_hot and not ctx.is_trial_engine

    def test_benchmarks_are_tests(self):
        assert classify_path("benchmarks/test_parallel_speedup.py").is_test


class TestSuppressions:
    def test_directive_forms(self):
        source = (FIXTURES / "suppressions.py").read_text(encoding="utf-8")
        violations = lint_fixture("suppressions.py", LIBRARY_PATH)
        lines = {v.line for v in violations if v.code == "RPL003"}
        text_lines = source.splitlines()
        # Only wrong_code() and unsuppressed() remain flagged.
        flagged = {text_lines[line - 1].strip() for line in lines}
        assert flagged == {
            "return matrix.todense()  # repro-lint: disable=RPL001",
            "return np.asarray(matrix.todense())",
        }

    def test_file_wide_directive(self):
        violations = lint_fixture("suppressions_filewide.py", LIBRARY_PATH)
        codes = sorted(v.code for v in violations)
        assert "RPL003" not in codes
        assert "RPL004" in codes

    def test_parse_suppressions_shapes(self):
        parsed = parse_suppressions(
            "x = 1  # repro-lint: disable=RPL001,RPL006\n"
            "# repro-lint: disable-next-line=RPL003\n"
            "y = 2\n"
            "# repro-lint: disable-file=RPL005\n"
        )
        assert parsed.is_suppressed(1, "RPL001")
        assert parsed.is_suppressed(1, "RPL006")
        assert not parsed.is_suppressed(1, "RPL003")
        assert parsed.is_suppressed(3, "RPL003")
        assert parsed.is_suppressed(2, "RPL005")
        assert parsed.is_suppressed(99, "RPL005")

    def test_directive_inside_string_is_ignored(self):
        parsed = parse_suppressions(
            's = "# repro-lint: disable=RPL001"\n'
        )
        assert not parsed.is_suppressed(1, "RPL001")


class TestDiscovery:
    def test_lint_fixtures_excluded_by_default(self):
        found = list(iter_python_files([str(FIXTURES.parent)]))
        assert found, "expected to find test files"
        assert not any("lint_fixtures" in p.parts for p in found)

    def test_explicit_file_bypasses_excludes(self):
        target = FIXTURES / "rpl003_bad.py"
        assert list(iter_python_files([str(target)])) == [target]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files(["no/such/dir"]))


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        code, out, err = run_cli([str(clean)])
        assert code == 0
        assert "0 violations" in out

    def test_violations_exit_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("m.todense()\n", encoding="utf-8")
        code, out, err = run_cli([str(bad)])
        assert code == 1
        assert "RPL003" in out

    def test_pr1_spawn_bug_fixture_exits_nonzero_with_rpl002(self, tmp_path):
        # Acceptance criterion: the PR 1 bug pattern must fail with RPL002.
        bug = tmp_path / "spawn_bug.py"
        bug.write_text(
            "import numpy as np\n"
            "def fan_out(parent, k):\n"
            "    return [np.random.default_rng(parent.integers(0, 2**63))\n"
            "            for _ in range(k)]\n",
            encoding="utf-8",
        )
        code, out, err = run_cli([str(bug)])
        assert code != 0
        assert "RPL002" in out

    def test_usage_error_exits_two(self, tmp_path):
        code, out, err = run_cli(["--select", "RPL999", str(tmp_path)])
        assert code == 2
        assert "RPL999" in err

    def test_missing_path_exits_two(self):
        code, out, err = run_cli(["definitely/not/a/path"])
        assert code == 2

    def test_json_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("m.todense()\n", encoding="utf-8")
        code, out, err = run_cli(["--format", "json", str(bad)])
        assert code == 1
        payload = json.loads(out)
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"RPL003": 1}
        assert payload["violations"][0]["rule"] == "todense-call"
        assert "grandfathered" not in payload

    def test_select_and_ignore(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("m.todense()\nx = m == 0.5\n", encoding="utf-8")
        code, _, _ = run_cli(["--select", "RPL006", str(bad)])
        assert code == 1
        code, _, _ = run_cli(["--ignore", "RPL003,RPL006", str(bad)])
        assert code == 0

    @pytest.mark.parametrize("flags", [
        ["--baseline", "lint-baseline.json"], ["--no-baseline"],
        ["--write-baseline"],
    ], ids=["baseline", "no-baseline", "write-baseline"])
    def test_baseline_flags_are_unknown(self, tmp_path, flags, capsys):
        # Every violation is reported; nothing can be grandfathered.
        bad = tmp_path / "bad.py"
        bad.write_text("m.todense()\n", encoding="utf-8")
        code, _, _ = run_cli([*flags, str(bad)])
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "lint-baseline.json").exists()

    def test_list_rules(self):
        code, out, _ = run_cli(["--list-rules"])
        assert code == 0
        for rule_code in all_codes():
            assert rule_code in out

    def test_syntax_error_exits_one(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n", encoding="utf-8")
        code, out, _ = run_cli([str(broken)])
        assert code == 1
        assert "RPL900" in out

    def test_stale_suppression_listed_by_text_reporter(self, tmp_path):
        stale = tmp_path / "stale.py"
        stale.write_text(
            "x = 1  # repro-lint: disable=RPL003\n", encoding="utf-8"
        )
        code, out, _ = run_cli([str(stale)])
        assert code == 1
        assert "RPL901" in out
        assert "stale suppressions" in out
        assert "disable=RPL003" in out

    def test_parallel_jobs_output_matches_serial(self, tmp_path):
        # Three files, two dirty: --jobs must preserve discovery-order
        # output byte for byte.
        (tmp_path / "a_bad.py").write_text("m.todense()\n", encoding="utf-8")
        (tmp_path / "b_clean.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "c_bad.py").write_text(
            "import scipy.sparse as sp\n"
            "def f(m):\n"
            "    return m.todense()\n",
            encoding="utf-8",
        )
        serial_code, serial_out, _ = run_cli([str(tmp_path)])
        jobs_code, jobs_out, _ = run_cli(["--jobs", "2", str(tmp_path)])
        assert serial_code == jobs_code == 1
        assert jobs_out == serial_out

    def test_nonpositive_jobs_exits_two(self, tmp_path):
        code, _, err = run_cli(["--jobs", "0", str(tmp_path)])
        assert code == 2
        assert "--jobs" in err


class TestRepoIsClean:
    def test_module_entry_point_green_on_repo(self):
        # Acceptance criterion: the committed tree lints clean end to end
        # through the real ``python -m repro.lint`` entry point.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "tests", "benchmarks",
             "perfbench", "examples"],
            cwd=str(REPO_ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        assert result.returncode == 0, result.stdout

    def test_rule_catalog_is_documented(self):
        doc = (REPO_ROOT / "docs" / "static_analysis.md").read_text(
            encoding="utf-8"
        )
        for code in all_codes():
            assert code in doc, f"{code} missing from docs/static_analysis.md"
        assert RULES["RPL002"].rationale  # catalog carries rationales
