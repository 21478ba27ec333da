"""Tests for the diagnostic framework: catalog, rendering, suppression."""

import pytest

from repro.analysis.diagnostics import (
    RULES,
    Severity,
    apply_suppressions,
    diag,
    has_errors,
    render_text,
    sort_diagnostics,
    suppressed_lines,
    unused_suppressions,
    worst_severity,
)


class TestCatalog:
    def test_all_codes_have_family_and_title(self):
        assert len(RULES) >= 12
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.title
            assert rule.family in {
                "framework", "script", "relocation", "movability",
                "interaction", "plan",
            }

    def test_families_cover_all_analyzers(self):
        families = {rule.family for rule in RULES.values()}
        assert {"script", "relocation", "movability", "interaction", "plan"} <= families

    def test_severity_ordering(self):
        assert Severity.ERROR.rank > Severity.WARNING.rank > Severity.INFO.rank


class TestDiag:
    def test_defaults_severity_from_catalog(self):
        d = diag("FG101", "boom")
        assert d.severity is Severity.ERROR
        assert diag("FG107", "meh").severity is Severity.WARNING

    def test_severity_override(self):
        d = diag("FG107", "boom", severity=Severity.ERROR)
        assert d.severity is Severity.ERROR

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            diag("FG999", "no such rule")

    def test_render_with_and_without_location(self):
        located = diag("FG101", "boom", file="s.fgs", line=3, column=7)
        assert located.render() == "s.fgs:3:7: error FG101: boom"
        bare = diag("FG201", "big move")
        assert bare.render() == "<input>: warning FG201: big move"

    def test_at_remaps_line(self):
        d = diag("FG103", "x", line=2, column=5)
        moved = d.at(file="host.py", line=42)
        assert (moved.file, moved.line, moved.column) == ("host.py", 42, 5)
        assert d.line == 2  # original untouched


class TestAggregates:
    def test_sorting_is_by_location_then_code(self):
        d1 = diag("FG104", "b", file="b.fgs", line=1)
        d2 = diag("FG101", "a", file="a.fgs", line=9)
        d3 = diag("FG103", "a2", file="a.fgs", line=2)
        assert sort_diagnostics([d1, d2, d3]) == [d3, d2, d1]

    def test_worst_severity_and_has_errors(self):
        warns = [diag("FG107", "w")]
        assert worst_severity(warns) is Severity.WARNING
        assert not has_errors(warns)
        assert worst_severity([]) is None
        assert has_errors(warns + [diag("FG101", "e")])


class TestSuppression:
    def test_bare_ignore_suppresses_everything(self):
        table = suppressed_lines("move $c to x  # fargo: ignore\n")
        assert table == {1: None}

    def test_coded_ignore(self):
        table = suppressed_lines("x\ny  # fargo: ignore[FG104, FG105]\n")
        assert table == {2: frozenset({"FG104", "FG105"})}

    def test_apply_drops_only_matching_lines_and_codes(self):
        source = "line one\nline two  # fargo: ignore[FG104]\n"
        kept = apply_suppressions(
            [
                diag("FG104", "suppressed", line=2),
                diag("FG101", "other code", line=2),
                diag("FG104", "other line", line=1),
            ],
            source,
        )
        assert [(d.code, d.line) for d in kept] == [("FG101", 2), ("FG104", 1)]

    def test_no_suppressions_is_identity(self):
        diags = [diag("FG101", "x", line=1)]
        assert apply_suppressions(diags, "plain\n") == diags


class TestUnusedSuppressions:
    def test_matching_suppression_is_not_reported(self):
        source = "bad  # fargo: ignore[FG104]\n"
        diags = [diag("FG104", "x", line=1)]
        assert unused_suppressions(diags, source) == []

    def test_blanket_on_clean_line_is_fg001(self):
        findings = unused_suppressions([], "fine  # fargo: ignore\n", file="s.fgs")
        assert [d.code for d in findings] == ["FG001"]
        assert findings[0].severity is Severity.INFO
        assert (findings[0].file, findings[0].line) == ("s.fgs", 1)
        assert "unused blanket suppression" in findings[0].message

    def test_wrong_code_is_fg001_naming_the_dead_codes(self):
        source = "bad  # fargo: ignore[FG104, FG105]\n"
        diags = [diag("FG104", "x", line=1)]
        (finding,) = unused_suppressions(diags, source)
        assert "FG105" in finding.message
        assert "FG104" not in finding.message

    def test_blanket_with_any_diagnostic_is_used(self):
        source = "bad  # fargo: ignore\n"
        assert unused_suppressions([diag("FG104", "x", line=1)], source) == []


class TestReporters:
    def test_render_text_summary(self):
        out = render_text([diag("FG101", "e", line=1), diag("FG107", "w", line=2)])
        assert out.endswith("1 error(s), 1 warning(s)")
        assert "error FG101" in out

    def test_render_text_empty(self):
        assert render_text([]) == "no diagnostics"

    def test_diagnostic_is_hashable_and_frozen(self):
        d = diag("FG101", "x")
        assert d in {d}
        with pytest.raises(AttributeError):
            d.code = "FG102"
