package stats

import (
	"strings"
	"testing"
)

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 3, 9.9, -5, 100}, 0, 10, 5)
	// -5 clamps into bin 0, 100 into bin 4.
	want := []int{3, 2, 0, 0, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bin %d = %d, want %d (all: %v)", i, c, want[i], h.Counts)
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(nil, 0, 1, 0) },
		func() { NewHistogram(nil, 1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Table X", "method", "disks", "rt")
	tb.AddRow("DM/D", 4, 1.2345)
	tb.AddRow("MiniMax", 32, 0.5)
	out := tb.Render()
	if !strings.Contains(out, "Table X") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "1.23") {
		t.Error("float not formatted to two decimals")
	}
	if !strings.Contains(out, "MiniMax") {
		t.Error("row missing")
	}
	// Header columns aligned: "method" column width fits "MiniMax".
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines: %q", out)
	}
	header := lines[1]
	if !strings.HasPrefix(header, "method ") {
		t.Errorf("header = %q", header)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("My, \"quoted\" title", "a", "b")
	tb.AddRow("plain", 1)
	tb.AddRow("needs,quoting", 2.5)
	tb.AddRow(`has "quotes"`, 3)
	out := tb.CSV()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	if lines[0] != `# My, "quoted" title` {
		t.Errorf("title line = %q", lines[0])
	}
	if lines[1] != "a,b" {
		t.Errorf("header = %q", lines[1])
	}
	if lines[3] != `"needs,quoting",2.50` {
		t.Errorf("quoted row = %q", lines[3])
	}
	if lines[4] != `"has ""quotes""",3` {
		t.Errorf("escaped row = %q", lines[4])
	}
}

// A row may carry more cells than the table has headers: both renderings
// keep the extra cells, and the text one does not pad them.
func TestTableRowWiderThanHeaders(t *testing.T) {
	tb := NewTable("", "x", "a")
	tb.AddRow(1, 2, "extra", 4)
	tb.AddRow("long", 5)
	if got, want := tb.Render(), "x     a\n--------\n1     2  extra  4\nlong  5\n"; got != want {
		t.Errorf("Render:\n%q, want\n%q", got, want)
	}
	if got, want := tb.CSV(), "x,a\n1,2,extra,4\nlong,5\n"; got != want {
		t.Errorf("CSV:\n%q, want\n%q", got, want)
	}
}
