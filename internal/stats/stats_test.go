package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	tb.AddRowf("gamma", 7)
	out := tb.String()
	if !strings.Contains(out, "Table X") {
		t.Errorf("missing title in %q", out)
	}
	for _, want := range []string{"alpha", "beta", "2.5", "gamma", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendered table:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + rule + 3 rows
	if len(lines) != 6 {
		t.Errorf("rendered %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`x,y`, `he said "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("comma cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"he said ""hi"""`) {
		t.Errorf("quote cell not escaped: %q", csv)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("1", "2", "3")
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Errorf("extra cells dropped: %q", out)
	}
}

func TestBarChartRendering(t *testing.T) {
	b := NewBarChart("shape")
	b.Add("alpha", 10, "")
	b.Add("beta", 5, "note")
	b.Add("zero", 0, "")
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), out)
	}
	alphaBars := strings.Count(lines[1], "█")
	betaBars := strings.Count(lines[2], "█")
	if alphaBars <= betaBars {
		t.Errorf("bar lengths not proportional: %d vs %d", alphaBars, betaBars)
	}
	if strings.Count(lines[3], "█") != 0 {
		t.Error("zero value rendered a bar")
	}
	if !strings.Contains(lines[2], "note") {
		t.Error("note missing")
	}
}

func TestBarChartEmpty(t *testing.T) {
	if out := NewBarChart("t").String(); !strings.Contains(out, "no data") {
		t.Errorf("empty chart output %q", out)
	}
}
