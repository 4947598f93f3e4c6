"""Framework plumbing: registry, runner, reporters, CLI and the tree gate."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import (Checker, EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS,
                            build_checkers, default_root, lint_paths,
                            register, rule_names)
from repro.analysis import registry as registry_module
from repro.analysis.cli import main as lint_main
from repro.analysis.reporters import (JSON_SCHEMA_VERSION, render_json,
                                      render_text)

ROOT = default_root()
BUILTIN_RULES = ["dtype-purity", "hot-path-alloc", "no-print",
                 "parallel-outputs", "telemetry-guard"]


class TestRegistry:
    def test_builtin_catalogue(self):
        assert rule_names() == BUILTIN_RULES

    def test_build_checkers_selects_by_name(self):
        checkers = build_checkers(["no-print", "dtype-purity"])
        assert [checker.name for checker in checkers] \
            == ["no-print", "dtype-purity"]

    def test_unknown_rule_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="no-such-rule"):
            build_checkers(["no-such-rule"])

    def test_register_rejects_anonymous_checkers(self):
        class Nameless(Checker):
            pass

        with pytest.raises(ValueError, match="declares no rule name"):
            register(Nameless)

    def test_register_rejects_duplicate_names(self):
        class Impostor(Checker):
            name = "no-print"

        with pytest.raises(ValueError, match="already registered"):
            register(Impostor)

    def test_third_party_registration_round_trips(self):
        @register
        class NoEval(Checker):
            name = "fixture-no-eval"
            description = "fixture rule"

            def check(self, module, config):
                return iter(())

        try:
            assert "fixture-no-eval" in rule_names()
            assert build_checkers(["fixture-no-eval"])[0].description \
                == "fixture rule"
        finally:
            del registry_module._REGISTRY["fixture-no-eval"]


class TestRunnerAndReporters:
    def test_exit_codes(self, lint_source):
        clean = lint_source("x = 1\n")
        assert clean.exit_code == EXIT_CLEAN
        dirty = lint_source("print('hi')\n",
                            relative="src/repro/data/synthetic.py",
                            rules=["no-print"])
        assert dirty.exit_code == EXIT_FINDINGS

    def test_parse_error_is_a_finding(self, lint_source):
        result = lint_source("def broken(:\n")
        assert [finding.rule for finding in result.findings] \
            == ["parse-error"]
        assert result.exit_code == EXIT_FINDINGS

    def test_text_report_format(self, lint_source):
        result = lint_source("print('hi')\n",
                             relative="src/repro/data/synthetic.py",
                             rules=["no-print"])
        lines = render_text(result).splitlines()
        assert lines[0].startswith("src/repro/data/synthetic.py:1:0: "
                                   "no-print: ")
        assert "1 finding(s)" in lines[-1]

    def test_json_report_schema(self, lint_source):
        result = lint_source("print('hi')\n",
                             relative="src/repro/data/synthetic.py",
                             rules=["no-print"])
        payload = json.loads(render_json(result))
        assert sorted(payload) == ["clean", "files_checked", "findings",
                                   "root", "rules", "suppressed", "version"]
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["clean"] is False
        assert payload["files_checked"] == 1
        finding, = payload["findings"]
        assert sorted(finding) == ["column", "line", "message", "path",
                                   "rule"]
        assert finding["rule"] == "no-print"
        assert finding["path"] == "src/repro/data/synthetic.py"
        assert finding["line"] == 1

    def test_findings_sorted_by_location(self, lint_source):
        result = lint_source("""\
            print('b')
            print('a')
            """, relative="src/repro/data/synthetic.py", rules=["no-print"])
        assert [finding.line for finding in result.findings] == [1, 2]


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        assert lint_main(["--rules", "no-print", "--root", ROOT]) \
            == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--rules", "no-such-rule"]) == EXIT_ERROR
        assert "no-such-rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["definitely/not/a/path.py"]) == EXIT_ERROR

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in BUILTIN_RULES:
            assert f"{rule}: " in out

    def test_json_output_file(self, tmp_path, capsys):
        report = tmp_path / "lint.json"
        code = lint_main(["--rules", "no-print", "--root", ROOT,
                          "--format", "json", "--output", str(report)])
        assert code == EXIT_CLEAN
        payload = json.loads(report.read_text())
        assert payload["clean"] is True
        assert payload["rules"] == ["no-print"]


class TestContracts:
    def test_hot_path_marks_without_wrapping(self):
        from repro.contracts import hot_path, is_hot_path

        def function():
            return 42

        marked = hot_path(function)
        assert marked is function  # no wrapper, zero per-call cost
        assert is_hot_path(marked)
        assert not is_hot_path(lambda: None)

    def test_engine_hot_paths_are_marked(self):
        from repro.contracts import is_hot_path
        from repro.nn.inference import (StackedInferenceEngine,
                                        max_last_keepdims, sum_last_keepdims)

        assert is_hot_path(max_last_keepdims)
        assert is_hot_path(sum_last_keepdims)
        assert is_hot_path(StackedInferenceEngine._forward)
        assert is_hot_path(StackedInferenceEngine._softmax_inplace)


class TestTreeGate:
    def test_head_is_lint_clean(self):
        """The committed tree passes the full rule set — the CI contract."""
        result = lint_paths()
        assert result.findings == [], render_text(result)
        assert result.files_checked > 50
        # The deliberate promotions/fallbacks documented in the README stay
        # suppressed (each carries its justification in the source).
        assert result.suppressed > 0

    def test_tools_entry_points(self):
        env = dict(os.environ)
        for script in ("tools/lint.py", "tools/check_print.py"):
            process = subprocess.run(
                [sys.executable, os.path.join(ROOT, script)],
                capture_output=True, text=True, env=env, cwd=ROOT)
            assert process.returncode == 0, (script, process.stdout,
                                             process.stderr)
            assert "clean" in process.stdout
