package table

import (
	"strings"
	"testing"
)

func TestBasicRendering(t *testing.T) {
	tb := New("Name", "Value").
		AddRow("alpha", 1).
		AddRow("b", 22.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if lines[0] != "Name  | Value" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "------+------" {
		t.Errorf("rule = %q", lines[1])
	}
	if lines[2] != "alpha | 1    " {
		t.Errorf("row 1 = %q", lines[2])
	}
	if lines[3] != "b     | 22.5 " {
		t.Errorf("row 2 = %q", lines[3])
	}
}

func TestTitle(t *testing.T) {
	out := New("A").SetTitle("My Title").AddRow("x").String()
	if !strings.HasPrefix(out, "My Title\n") {
		t.Errorf("title missing: %q", out)
	}
}

func TestAlignment(t *testing.T) {
	tb := New("N", "C").SetAlign(0, Right).SetAlign(1, Center)
	tb.AddRow("1", "a")
	tb.AddRow("100", "abc")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	if lines[2] != "  1 |  a " {
		t.Errorf("right/center align row = %q", lines[2])
	}
}

func TestAlignAll(t *testing.T) {
	tb := New("A", "B").AlignAll(Right).AddRow("1", "2")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	if lines[2] != "1 | 2" {
		t.Errorf("row = %q", lines[2])
	}
}

func TestMissingAndExtraCells(t *testing.T) {
	tb := New("A", "B", "C")
	tb.AddRow("only")             // missing cells blank
	tb.AddRow("a", "b", "c", "d") // extra dropped
	out := tb.String()
	if strings.Contains(out, "d") {
		t.Errorf("extra cell leaked: %q", out)
	}
	if len(tb.rows) != 2 {
		t.Errorf("rows = %d", len(tb.rows))
	}
}

func TestSetAlignOutOfRangeIgnored(t *testing.T) {
	tb := New("A").SetAlign(5, Right).SetAlign(-1, Right)
	tb.AddRow("x")
	_ = tb.String() // must not panic
}
