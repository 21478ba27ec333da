"""Tests for the file front end: :func:`repro.analysis.check_paths` and
``python -m repro.analysis``, its exit codes."""

import runpy
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    check_paths,
    extract_embedded_scripts,
    has_errors,
    iter_target_files,
    render_text,
)


def main(argv: list[str]) -> int:
    """``python -m repro.analysis ARGV`` in this process; its exit status."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "argv", ["python -m repro.analysis", *argv])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("repro.analysis", run_name="__main__")
    return exit_.value.code


def report(paths: list[str]) -> str:
    return render_text(check_paths(paths))


BAD_SCRIPT = 'on timer() do\n log "no interval"\nend\n'

BAD_COMPLET = (
    "import threading\n"
    "from repro.complet.anchor import Anchor\n"
    "\n"
    "class Bad_(Anchor):\n"
    "    def __init__(self):\n"
    "        self.lock = threading.Lock()\n"
    "\n"
    'EMBEDDED_SCRIPT = """\\\n'
    "on completArived do\n"
    ' log "x"\n'
    'end\n"""\n'
)

#: ``python -m repro.analysis examples src/repro/apps`` from the repository root.
BUNDLED_REPORT = (
    "examples/reliability_script.py:PAPER_SCRIPT:10:2: warning FG403: move of '$comps[0]' "
    "can race the whole-Core failover in examples/core_failover.py:FAILOVER_SCRIPT:1 "
    "(on coreFailed); a recovery may re-place the complet while the move is in flight\n"
    "examples/wan_deployment.py:SCRIPT:4:5: warning FG403: move of '%1' can race the "
    "whole-Core failover in examples/core_failover.py:FAILOVER_SCRIPT:1 (on coreFailed); "
    "a recovery may re-place the complet while the move is in flight\n"
    "examples/wan_deployment.py:SCRIPT:9:3: warning FG401: move of 'completsIn $core' to "
    "'$survivor' races the move to '$targetCore' in examples/reliability_script.py:"
    "PAPER_SCRIPT:4 (on shutdown); both rules can fire from the same event frontier\n"
    "0 error(s), 3 warning(s)\n"
)


class TestTargets:
    def test_directories_walk_recursively(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.fgs").write_text("x")
        (tmp_path / "sub" / "b.py").write_text("x")
        (tmp_path / "sub" / "c.txt").write_text("ignored")
        names = {p.name for p in iter_target_files([str(tmp_path)])}
        assert names == {"a.fgs", "b.py"}

    def test_files_pass_through(self, tmp_path):
        f = tmp_path / "x.fgs"
        f.write_text("x")
        assert iter_target_files([str(f)]) == [f]


class TestEmbeddedExtraction:
    def test_finds_script_constants_with_line_mapping(self):
        scripts = extract_embedded_scripts(BAD_COMPLET)
        assert len(scripts) == 1
        name, first_line, text, exact = scripts[0]
        assert name == "EMBEDDED_SCRIPT"
        assert text.startswith("on completArived")
        # Line 9 of the file is "on completArived do".
        assert (first_line, exact) == (9, True)

    def test_ignores_non_script_constants(self):
        assert extract_embedded_scripts('GREETING = "hi"\n') == []

    def test_ignores_script_named_constants_without_rule_shape(self):
        # The name matches but the value is not a layout script.
        assert extract_embedded_scripts('SCRIPT_SUFFIX = ".fgs"\n') == []

    def test_escaped_newline_strings_collapse_to_the_assignment_line(self):
        source = "x = 1\nPOLICY_SCRIPT = 'on shutdown do\\n log \"b\"\\nend'\n"
        ((_, first_line, _, exact),) = extract_embedded_scripts(source)
        assert (first_line, exact) == (2, False)

    def test_unparsable_python_yields_nothing(self):
        assert extract_embedded_scripts("def broken(:\n") == []


class TestMain:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.fgs").write_text('on shutdown firedby $c do\n log "x"\nend\n')
        assert main([str(tmp_path)]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_script_errors_exit_one(self, tmp_path, capsys):
        f = tmp_path / "bad.fgs"
        f.write_text(BAD_SCRIPT)
        assert main([str(f)]) == 1
        out = capsys.readouterr().out
        assert "FG109" in out and str(f) in out

    def test_complet_and_embedded_script_diagnostics(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text(BAD_COMPLET)
        assert main([str(f)]) == 1
        out = capsys.readouterr().out
        assert "FG301" in out  # the lock field
        assert "FG103" in out  # the embedded script's typo
        # The embedded diagnostic is remapped to the Python file's line 9.
        assert f"{f}:9:" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.fgs")]) == 2

    def test_bundled_examples_and_apps(self, monkeypatch, capsys):
        """CI's analysis job: three warnings across the embedded scripts."""
        monkeypatch.chdir(Path(__file__).resolve().parents[2])
        assert main(["examples", "src/repro/apps"]) == 0
        assert capsys.readouterr().out == BUNDLED_REPORT

    def test_suppression_comment_silences_a_line(self, tmp_path):
        f = tmp_path / "s.fgs"
        f.write_text("on timer() do  # fargo: ignore[FG109]\n log \"x\"\nend\n")
        assert not has_errors(check_paths([str(f)]))

    def test_suppression_of_other_code_does_not_silence(self, tmp_path):
        f = tmp_path / "s.fgs"
        f.write_text("on timer() do  # fargo: ignore[FG104]\n log \"x\"\nend\n")
        assert has_errors(check_paths([str(f)]))


class TestUnusedSuppressionReporting:
    def test_unused_suppression_is_fg001_but_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "s.fgs"
        f.write_text('on timer(5) do  # fargo: ignore[FG109]\n log "x"\nend\n')
        assert main([str(f)]) == 0
        assert "FG001" in capsys.readouterr().out

    def test_used_suppression_is_not_reported(self, tmp_path):
        f = tmp_path / "s.fgs"
        f.write_text("on timer() do  # fargo: ignore[FG109]\n log \"x\"\nend\n")
        assert not has_errors(check_paths([str(f)]))
        assert "FG001" not in report([str(f)])


class TestInteractionAcrossFiles:
    def test_two_script_files_race_as_fg401(self, tmp_path):
        (tmp_path / "app.fgs").write_text(
            'on completArrived listenAt [a] do move "w" to "d" end\n'
        )
        (tmp_path / "ops.fgs").write_text(
            'on completArrived listenAt [b] do move "w" to "e" end\n'
        )
        assert not has_errors(check_paths([str(tmp_path)]))  # FG401 is a warning
        assert "FG401" in report([str(tmp_path)])

    def test_single_file_runs_no_interaction_pass(self, tmp_path):
        (tmp_path / "app.fgs").write_text(
            'on completArrived listenAt [a] do move "w" to "d" end\n'
        )
        assert report([str(tmp_path)]) == "no diagnostics"

    def test_interaction_findings_respect_suppressions(self, tmp_path):
        (tmp_path / "app.fgs").write_text(
            'on completArrived listenAt [a] do move "w" to "d" end\n'
        )
        (tmp_path / "ops.fgs").write_text(
            'on completArrived listenAt [b] do move "w" to "e" end'
            "  # fargo: ignore[FG401]\n"
        )
        assert not has_errors(check_paths([str(tmp_path)]))
        assert "FG401" not in report([str(tmp_path)])


class TestPlanChecking:
    def test_no_paths_and_no_plan_is_a_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err
