package harness

import (
	"strings"
	"testing"
)

// figMatrix is a shared tiny matrix for figure-builder tests.
var figMatrix = NewMatrix(figOptions())

func figOptions() Options {
	opts := DefaultOptions()
	opts.Sim.MaxInstructions = 100_000
	opts.Sim.WarmupInstructions = 20_000
	opts.Parallel = 8
	return opts
}

func TestFigure12Builds(t *testing.T) {
	tab, err := Figure12(figMatrix)
	if err != nil {
		t.Fatal(err)
	}
	// 15 MI rows + average-MI + average-ALL.
	if len(tab.Rows) != 17 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	if len(tab.Columns) != 8 { // benchmark + 7 schemes
		t.Errorf("columns = %d", len(tab.Columns))
	}
	s := tab.String()
	for _, want := range []string{"stencil-default", "average-MI", "average-ALL", "cbws+sms"} {
		if !strings.Contains(s, want) {
			t.Errorf("figure 12 missing %q", want)
		}
	}
}

func TestFigure13Builds(t *testing.T) {
	tab, err := Figure13(figMatrix)
	if err != nil {
		t.Fatal(err)
	}
	// (15 MI benchmarks + 2 averages) × 7 schemes.
	if len(tab.Rows) != 17*7 {
		t.Errorf("rows = %d, want %d", len(tab.Rows), 17*7)
	}
	// Percent columns present for every row.
	for _, row := range tab.Rows {
		if len(row) != 7 {
			t.Fatalf("row %v has %d cells", row, len(row))
		}
		for _, cell := range row[2:] {
			if !strings.HasSuffix(cell, "%") {
				t.Fatalf("cell %q not a percentage", cell)
			}
		}
	}
}

func TestFigure14Builds(t *testing.T) {
	mi, reg, err := Figure14(figMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if len(mi.Rows) != 16 || len(reg.Rows) != 16 {
		t.Errorf("rows: mi=%d reg=%d", len(mi.Rows), len(reg.Rows))
	}
	// The SMS column is the normalization baseline: every SMS cell is
	// exactly 1.000.
	smsCol := -1
	for i, c := range mi.Columns {
		if c == "sms" {
			smsCol = i
		}
	}
	if smsCol < 0 {
		t.Fatal("no sms column")
	}
	for _, row := range mi.Rows {
		if row[smsCol] != "1.000" {
			t.Errorf("%s: sms cell %q, want 1.000", row[0], row[smsCol])
		}
	}
}

func TestFigure15Builds(t *testing.T) {
	tab, err := Figure15(figMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 17 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	// The none column is the baseline: per-benchmark cells are 1.000.
	for _, row := range tab.Rows[:15] {
		if row[1] != "1.000" {
			t.Errorf("%s: none cell %q, want 1.000", row[0], row[1])
		}
	}
}

func TestLearnedTableBuilds(t *testing.T) {
	tab, err := LearnedTable(figMatrix)
	if err != nil {
		t.Fatal(err)
	}
	// 30 benchmarks + geomean-MI + geomean-regular + geomean-ALL.
	if len(tab.Rows) != 33 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	if len(tab.Columns) != 5 { // benchmark + 4 schemes
		t.Errorf("columns = %d", len(tab.Columns))
	}
	s := tab.String()
	for _, want := range []string{"pythia", "gaze", "cbws+sms", "geomean-MI", "geomean-ALL"} {
		if !strings.Contains(s, want) {
			t.Errorf("learned table missing %q", want)
		}
	}
}
