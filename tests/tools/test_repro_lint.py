"""Tests for the repro-check linter: rules, suppression, and the CLI.

Each RPR rule gets a paired good/bad fixture under ``fixtures/``; the
bad fixture seeds known violations and the tests assert the exact rule
code and line number for every one of them.  Fixtures are fed through
``check_source`` with virtual repo-relative paths so path-scoped rules
(RPR002/005/006) fire without the files living inside src/repro.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tools.repro_check.core import check_paths, check_source, iter_python_files
from tools.repro_check.rules import ALL_RULES, RULES_BY_CODE
from tools.repro_check.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def run_rule(code: str, name: str, path: str) -> list:
    return check_source(fixture(name), path, [RULES_BY_CODE[code]])


class TestKernelRegistryRule:
    def test_complete_registry_is_clean(self):
        assert run_rule("RPR001", "rpr001_good.py", "registry.py") == []

    def test_missing_combinations_reported_at_registry_anchor(self):
        violations = run_rule("RPR001", "rpr001_bad.py", "registry.py")
        assert [(v.code, v.line) for v in violations] == [("RPR001", 11)]
        assert "missing 2 of 8" in violations[0].message
        assert "densexdensexsparse" in violations[0].message
        assert "densexdensexdense" in violations[0].message

    def test_real_registry_is_complete(self):
        source = (REPO_ROOT / "src/repro/kernels/registry.py").read_text(
            encoding="utf-8"
        )
        rule = RULES_BY_CODE["RPR001"]
        assert check_source(source, "src/repro/kernels/registry.py", [rule]) == []


class TestDeterminismRule:
    PATH = "src/repro/engine/plan.py"

    def test_seeded_rng_and_sorted_iteration_are_clean(self):
        assert run_rule("RPR002", "rpr002_good.py", self.PATH) == []

    def test_each_nondeterminism_source_is_flagged(self):
        violations = run_rule("RPR002", "rpr002_bad.py", self.PATH)
        assert [(v.code, v.line) for v in violations] == [
            ("RPR002", 10),  # time.time()
            ("RPR002", 11),  # random.random()
            ("RPR002", 12),  # np.random.rand()
            ("RPR002", 13),  # id()-keyed dict comprehension
            ("RPR002", 14),  # iteration over a set
        ]
        assert "wall clock" in violations[0].message
        assert "ambient RNG" in violations[1].message
        assert "default_rng" in violations[2].message
        assert "id()-keyed" in violations[3].message
        assert "sorted" in violations[4].message

    def test_out_of_scope_path_is_skipped(self):
        source = fixture("rpr002_bad.py")
        rule = RULES_BY_CODE["RPR002"]
        assert check_source(source, "src/repro/solve.py", [rule]) == []
        forced = check_source(
            source, "src/repro/solve.py", [rule], honor_scope=False
        )
        assert len(forced) == 5


class TestLockDisciplineRule:
    def test_guarded_and_locked_helpers_are_clean(self):
        assert run_rule("RPR003", "rpr003_good.py", "cache.py") == []

    def test_unguarded_mutations_are_flagged(self):
        violations = run_rule("RPR003", "rpr003_bad.py", "cache.py")
        assert [(v.code, v.line) for v in violations] == [
            ("RPR003", 13),  # self._hits += 1 before the with block
            ("RPR003", 18),  # subscript assignment in put()
            ("RPR003", 21),  # .update() call in note()
        ]
        assert "Cache.get mutates self._hits" in violations[0].message
        assert "'with self._lock'" in violations[0].message
        assert "Cache.put mutates self._entries" in violations[1].message
        assert "Cache.note mutates self._entries" in violations[2].message


class TestSpanCoverageRule:
    PATH = "src/repro/kernels/fake.py"

    def test_span_wrapped_loop_is_clean(self):
        assert run_rule("RPR005", "rpr005_good.py", self.PATH) == []

    def test_uncovered_pair_loop_is_flagged_at_the_loop(self):
        violations = run_rule("RPR005", "rpr005_bad.py", self.PATH)
        assert [(v.code, v.line) for v in violations] == [("RPR005", 6)]
        assert "execute_pairs" in violations[0].message
        assert "span" in violations[0].message

    def test_private_functions_are_exempt(self):
        source = fixture("rpr005_bad.py").replace(
            "def execute_pairs", "def _execute_pairs"
        )
        rule = RULES_BY_CODE["RPR005"]
        assert check_source(source, self.PATH, [rule]) == []


class TestAnnotationRule:
    PATH = "src/repro/util.py"

    def test_fully_annotated_module_is_clean(self):
        assert run_rule("RPR006", "rpr006_good.py", self.PATH) == []

    def test_missing_params_and_return_are_separate_violations(self):
        violations = run_rule("RPR006", "rpr006_bad.py", self.PATH)
        assert [(v.code, v.line) for v in violations] == [
            ("RPR006", 4),  # scale(): unannotated parameters
            ("RPR006", 8),  # shift(): missing return annotation
        ]
        assert "parameter annotations: value, factor" in violations[0].message
        assert "return annotation" in violations[1].message


class TestAtomicWriteRule:
    PATH = "src/repro/formats/store.py"

    def test_reads_and_atomic_writes_are_clean(self):
        assert run_rule("RPR007", "rpr007_good.py", self.PATH) == []

    def test_each_direct_write_flavor_is_flagged(self):
        violations = run_rule("RPR007", "rpr007_bad.py", self.PATH)
        assert [(v.code, v.line) for v in violations] == [
            ("RPR007", 8),  # open(path, "w")
            ("RPR007", 13),  # Path(path).open(mode="wb")
            ("RPR007", 18),  # Path(path).write_text(...)
            ("RPR007", 22),  # open(path, mode="a")
        ]
        assert "open(..., 'w')" in violations[0].message
        assert "atomic_write" in violations[0].message
        assert "'wb'" in violations[1].message
        assert "atomic_write_text" in violations[2].message
        assert "'a'" in violations[3].message

    def test_ioutil_itself_is_exempt(self):
        source = fixture("rpr007_bad.py")
        rule = RULES_BY_CODE["RPR007"]
        assert check_source(source, "src/repro/ioutil.py", [rule]) == []

    def test_rule_only_applies_inside_src(self):
        source = fixture("rpr007_bad.py")
        rule = RULES_BY_CODE["RPR007"]
        assert check_source(source, "tests/test_store.py", [rule]) == []


class TestProcessBoundaryRule:
    PATH = "src/repro/core/parallel.py"

    def test_threads_and_lazy_supervisor_import_are_clean(self):
        assert run_rule("RPR008", "rpr008_good.py", self.PATH) == []

    def test_each_process_management_flavor_is_flagged(self):
        violations = run_rule("RPR008", "rpr008_bad.py", self.PATH)
        assert [(v.code, v.line) for v in violations] == [
            ("RPR008", 4),  # import multiprocessing
            ("RPR008", 5),  # import multiprocessing.pool
            ("RPR008", 6),  # from multiprocessing import Process
            ("RPR008", 7),  # from concurrent.futures import ProcessPoolExecutor
            ("RPR008", 17),  # concurrent.futures.ProcessPoolExecutor attribute
        ]
        assert "supervisor" in violations[0].message
        assert "reassigned" in violations[0].message

    def test_the_supervisor_itself_is_exempt(self):
        source = fixture("rpr008_bad.py")
        rule = RULES_BY_CODE["RPR008"]
        assert (
            check_source(
                source, "src/repro/resilience/supervisor.py", [rule]
            )
            == []
        )

    def test_rule_only_applies_inside_src(self):
        source = fixture("rpr008_bad.py")
        rule = RULES_BY_CODE["RPR008"]
        assert check_source(source, "tests/test_parallel.py", [rule]) == []

    def test_real_supervisor_is_the_only_importer(self):
        result = check_paths(
            [REPO_ROOT / "src"],
            [RULES_BY_CODE["RPR008"]],
            base=REPO_ROOT,
        )
        assert result.all_violations == []


class TestSuppression:
    def test_same_line_disable_comment_drops_the_violation(self):
        source = (
            "import time\n"
            "\n"
            "\n"
            "def build():\n"
            "    a = time.time()  # repro-lint: disable=RPR002\n"
            "    b = time.time()\n"
            "    return a, b\n"
        )
        rule = RULES_BY_CODE["RPR002"]
        violations = check_source(source, "src/repro/engine/plan.py", [rule])
        assert [(v.code, v.line) for v in violations] == [("RPR002", 6)]

    def test_disable_lists_multiple_codes(self):
        source = (
            "import time\n"
            "\n"
            "\n"
            "def stamp(at=time.time()):  # repro-lint: disable=RPR006, RPR002\n"
            "    return at, time.time()\n"
        )
        rules = [RULES_BY_CODE["RPR002"], RULES_BY_CODE["RPR006"]]
        violations = check_source(source, "src/repro/engine/plan.py", rules)
        # Both codes fire on line 4 and both are suppressed there; the
        # wall-clock read on line 5 has no disable comment and still fires.
        assert [(v.code, v.line) for v in violations] == [("RPR002", 5)]

    def test_suppressed_count_surfaces_in_check_paths(self, tmp_path):
        target = tmp_path / "src" / "repro" / "engine" / "plan.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import time\n"
            "STAMP = time.time()  # repro-lint: disable=RPR002\n",
            encoding="utf-8",
        )
        result = check_paths([tmp_path], ALL_RULES, base=tmp_path)
        assert result.suppressed == 1
        assert result.violations == []
        assert result.exit_code == 0

    def test_disable_inside_multiline_with_suppresses_first_line(self):
        # RPR007 anchors at the statement's first line (2); the disable
        # comment sits on a later line of the same multi-line header.
        source = (
            "def dump(path, data):\n"
            "    with open(\n"
            "        path,\n"
            '        "w",  # repro-lint: disable=RPR007\n'
            "    ) as handle:\n"
            "        handle.write(data)\n"
        )
        rule = RULES_BY_CODE["RPR007"]
        assert check_source(source, "src/repro/engine/x.py", [rule]) == []

    def test_disable_in_header_does_not_cover_the_body(self):
        source = (
            "def dump(path, data):\n"
            "    with open(\n"
            '        path, "w",  # repro-lint: disable=RPR007\n'
            "    ) as handle:\n"
            "        handle.write(data)\n"
            '    open(path, "a").write(data)\n'
        )
        rule = RULES_BY_CODE["RPR007"]
        violations = check_source(source, "src/repro/engine/x.py", [rule])
        # The with-statement is suppressed; the separate append on line 6
        # (inside the function body, outside the with header) still fires.
        assert [(v.code, v.line) for v in violations] == [("RPR007", 6)]

    def test_disable_file_suppresses_the_code_everywhere(self):
        source = (
            "# repro-lint: disable-file=RPR002\n"
            "import time\n"
            "A = time.time()\n"
            "B = time.time()\n"
        )
        rule = RULES_BY_CODE["RPR002"]
        assert check_source(source, "src/repro/engine/plan.py", [rule]) == []

    def test_disable_file_only_covers_the_listed_codes(self):
        source = (
            "# repro-lint: disable-file=RPR006\n"
            "import time\n"
            "A = time.time()\n"
        )
        rule = RULES_BY_CODE["RPR002"]
        violations = check_source(source, "src/repro/engine/plan.py", [rule])
        assert [(v.code, v.line) for v in violations] == [("RPR002", 3)]


class TestFileWalking:
    def test_fixtures_directories_are_never_scanned(self):
        files = iter_python_files([Path(__file__).parent])
        assert all("fixtures" not in path.parts for path in files)
        assert any(path.name == "test_repro_lint.py" for path in files)

    def test_explicit_file_argument_bypasses_directory_pruning(self):
        target = FIXTURES / "rpr006_bad.py"
        assert iter_python_files([target]) == [target]

    def test_unparsable_file_becomes_rpr000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n", encoding="utf-8")
        result = check_paths([bad], ALL_RULES, base=tmp_path)
        assert result.files_checked == 0
        assert [v.code for v in result.errors] == ["RPR000"]
        assert "does not parse" in result.errors[0].message
        assert result.exit_code == 1


class TestRepoIsClean:
    def test_src_tree_has_no_violations(self):
        result = check_paths([REPO_ROOT / "src"], ALL_RULES, base=REPO_ROOT)
        assert result.all_violations == []
        assert result.files_checked > 0


class TestCli:
    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "cache.py"
        path.write_text(fixture("rpr003_bad.py"), encoding="utf-8")
        return path

    @pytest.fixture
    def clean_file(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text(fixture("rpr003_good.py"), encoding="utf-8")
        return path

    def test_clean_run_exits_zero_with_summary(self, clean_file, capsys):
        assert main([str(clean_file)]) == 0
        out = capsys.readouterr().out
        assert "repro-check: 1 files, 0 violation(s)" in out

    def test_violations_exit_one_and_render_locations(self, bad_file, capsys):
        assert main([str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "RPR003" in out
        assert ":13:" in out
        assert "3 violation(s)" in out

    def test_json_format_is_machine_readable(self, bad_file, capsys):
        assert main([str(bad_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["suppressed"] == 0
        codes = [v["code"] for v in payload["violations"]]
        assert codes == ["RPR003", "RPR003", "RPR003"]
        assert [v["line"] for v in payload["violations"]] == [13, 18, 21]

    def test_select_limits_the_rule_set(self, bad_file, capsys):
        assert main([str(bad_file), "--select", "RPR006"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_select_unknown_code_aborts(self, bad_file):
        with pytest.raises(SystemExit, match="unknown rule code"):
            main([str(bad_file), "--select", "RPR999"])

    def test_list_rules_prints_the_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_statistics_appends_per_rule_counts(self, bad_file, capsys):
        assert main([str(bad_file), "--statistics"]) == 1
        assert "RPR003: 3" in capsys.readouterr().out

    def test_parse_error_exits_one_as_rpr000(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n", encoding="utf-8")
        assert main([str(broken)]) == 1
        assert "RPR000" in capsys.readouterr().out

    def test_json_payload_reports_baselined_count(self, bad_file, capsys):
        assert main([str(bad_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["baselined"] == 0

    def test_github_format_emits_error_annotations(self, bad_file, capsys):
        assert main([str(bad_file), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "line=13" in out
        assert "title=RPR003" in out

    def test_list_rules_includes_project_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR009", "RPR010", "RPR011", "RPR012"):
            assert code in out

    def test_module_entry_point_runs(self, tmp_path):
        import subprocess
        import sys

        clean = tmp_path / "clean.py"
        clean.write_text(fixture("rpr003_good.py"), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_check", str(clean)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert "0 violation(s)" in proc.stdout


class TestBaselineFlow:
    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "cache.py"
        path.write_text(fixture("rpr003_bad.py"), encoding="utf-8")
        return path

    def test_write_baseline_then_run_is_clean(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([str(bad_file), "--write-baseline", str(baseline)]) == 0
        assert "wrote 3 finding(s)" in capsys.readouterr().out
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert len(payload["findings"]) == 3
        assert main([str(bad_file), "--baseline", str(baseline)]) == 0
        assert "3 baselined" in capsys.readouterr().out

    def test_new_finding_still_fails_with_baseline(
        self, bad_file, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        assert main([str(bad_file), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        extra = tmp_path / "fresh.py"
        extra.write_text(fixture("rpr003_bad.py"), encoding="utf-8")
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "3 baselined" in out  # cache.py findings absorbed
        assert "RPR003" in out  # fresh.py findings still fail

    def test_stale_baseline_entries_are_reported_not_fatal(
        self, tmp_path, capsys
    ):
        clean = tmp_path / "clean.py"
        clean.write_text(fixture("rpr003_good.py"), encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "findings": [
                        {
                            "code": "RPR003",
                            "path": "gone.py",
                            "message": "no longer occurs",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert main([str(clean), "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_missing_baseline_file_exits_two(self, bad_file, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main([str(bad_file), "--baseline", str(missing)]) == 2
        assert "baseline not found" in capsys.readouterr().err

    def test_unsupported_baseline_version_exits_two(
        self, bad_file, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({"version": 99, "findings": []}), encoding="utf-8"
        )
        assert main([str(bad_file), "--baseline", str(baseline)]) == 2
        assert "bad baseline" in capsys.readouterr().err

    def test_committed_baseline_matches_the_repo(self, capsys):
        # The committed baseline absorbs every finding the whole-program
        # rules currently produce over src/repro — no more, no less
        # (stale entries print a note but the gate stays green).
        assert (
            main(
                [
                    str(REPO_ROOT / "src"),
                    "--select",
                    "RPR009,RPR010,RPR011,RPR012",
                    "--baseline",
                    str(REPO_ROOT / ".repro-lint-baseline.json"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stale baseline entry" not in out
