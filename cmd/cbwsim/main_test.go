package main

import (
	"regexp"
	"strings"
	"testing"

	"cbws/internal/stats"
)

var cellSep = regexp.MustCompile(`\s{2,}`)

// cells splits each rendered table line into its cells, keyed by the
// first one (the metric name or "metric" for the header).
func cells(out string) map[string][]string {
	rows := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		c := cellSep.Split(strings.TrimSpace(line), -1)
		rows[c[0]] = c[1:]
	}
	return rows
}

// TestRenderComparesAgainstFirst pins the comparison table: one column
// per scheme, a delta column per later scheme marked by each metric's
// direction, and a speedup line per later scheme against the first.
func TestRenderComparesAgainstFirst(t *testing.T) {
	base := stats.Metrics{Instructions: 1000, Cycles: 2000, DemandL2Misses: 40, BytesFromMem: 1 << 20}
	fast := stats.Metrics{Instructions: 1000, Cycles: 1000, DemandL2Misses: 10, BytesFromMem: 1 << 20}
	slow := stats.Metrics{Instructions: 1000, Cycles: 4000, DemandL2Misses: 40, BytesFromMem: 1 << 20}
	var b strings.Builder
	render(&b, "wl", []string{"a", "b", "c"}, []stats.Metrics{base, fast, slow})
	out := b.String()

	if !strings.HasPrefix(out, "wl: a vs b vs c\n") {
		t.Errorf("title:\n%s", out)
	}
	rows := cells(out)
	for name, want := range map[string]string{
		"metric":  "a|b|c|delta b|delta c",
		"IPC":     "0.500|1.000|0.250|+100.0% (better)|-50.0% (worse)",
		"MPKI":    "40.00|10.00|40.00|-75.0% (better)|0.0%",
		"read MB": "1.00|1.00|1.00|0.0%|0.0%",
		"loads":   "0|0|0|-|-",
	} {
		if got := strings.Join(rows[name], "|"); got != want {
			t.Errorf("%s row: %q, want %q", name, got, want)
		}
	}
	for _, want := range []string{"speedup (b over a): 2.00x\n", "speedup (c over a): 0.50x\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestRenderSingleScheme checks that one scheme gets one value column
// and neither deltas nor a speedup line.
func TestRenderSingleScheme(t *testing.T) {
	var b strings.Builder
	render(&b, "wl", []string{"a"}, []stats.Metrics{{Instructions: 1000, Cycles: 2000, BytesFromMem: 1 << 20}})
	out := b.String()
	if strings.Contains(out, "delta") || strings.Contains(out, "speedup") {
		t.Errorf("single-scheme output compares:\n%s", out)
	}
	if got := cells(out)["IPC"]; len(got) != 1 || got[0] != "0.500" {
		t.Errorf("IPC row %q, want [0.500]", got)
	}
}
