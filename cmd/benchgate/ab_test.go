package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		orig := append([]float64(nil), tc.xs...)
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		for i := range orig {
			if tc.xs[i] != orig[i] {
				t.Fatalf("median reordered its input: %v", tc.xs)
			}
		}
	}
}

func TestMedianCI(t *testing.T) {
	// Identical ratios: the interval collapses onto the value.
	lo, hi, _ := medianCI([]float64{1.2, 1.2, 1.2, 1.2}, 0.95)
	if lo != 1.2 || hi != 1.2 {
		t.Errorf("constant input: interval [%v, %v], want [1.2, 1.2]", lo, hi)
	}
	// Ten rounds at 95%: the 2nd and 9th smallest, covering
	// 1 − 2·11/1024; the input is not reordered.
	xs := []float64{0.71, 0.78, 0.74, 0.80, 0.69, 0.77, 0.75, 0.92, 0.73, 0.76}
	orig := append([]float64(nil), xs...)
	lo, hi, cov := medianCI(xs, 0.95)
	if lo != 0.71 || hi != 0.80 || math.Abs(cov-(1-22.0/1024)) > 1e-12 {
		t.Errorf("10 values at 95%%: [%v, %v] covering %v, want [0.71, 0.80] covering %v", lo, hi, cov, 1-22.0/1024)
	}
	for i := range orig {
		if xs[i] != orig[i] {
			t.Fatalf("medianCI reordered its input: %v", xs)
		}
	}
	// A coverage the 2nd and 9th cannot reach widens to the extremes;
	// a lower one narrows to the 3rd and 8th (1 − 2·56/1024).
	if lo, hi, cov := medianCI(xs, 0.99); lo != 0.69 || hi != 0.92 || cov < 0.99 {
		t.Errorf("10 values at 99%%: [%v, %v] covering %v, want [0.69, 0.92]", lo, hi, cov)
	}
	if lo, hi, cov := medianCI(xs, 0.85); lo != 0.73 || hi != 0.78 || math.Abs(cov-(1-112.0/1024)) > 1e-12 {
		t.Errorf("10 values at 85%%: [%v, %v] covering %v, want [0.73, 0.78]", lo, hi, cov)
	}
	// Too few values for the coverage asked: the extremes, at the
	// coverage they have.
	if lo, hi, cov := medianCI([]float64{3, 1, 2}, 0.95); lo != 1 || hi != 3 || cov != 0.75 {
		t.Errorf("3 values: [%v, %v] covering %v, want [1, 3] covering 0.75", lo, hi, cov)
	}
}

// TestMedianCICoverage draws 20,000 sets of abRounds values from a
// skewed distribution and checks that the interval -ab reports holds
// the true median as often as it claims (95.9% at 20 rounds), within
// sampling error.
func TestMedianCICoverage(t *testing.T) {
	const sets = 20000
	rng := rand.New(rand.NewSource(5))
	truth := math.Ln2 // the median of the unit exponential
	held := 0
	var cov float64
	xs := make([]float64, abRounds)
	for range sets {
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		var lo, hi float64
		lo, hi, cov = medianCI(xs, abConf)
		if lo <= truth && truth <= hi {
			held++
		}
	}
	if got := float64(held) / sets; math.Abs(got-cov) > 0.005 {
		t.Errorf("interval held the median in %.4f of %d sets, claims %.4f", got, sets, cov)
	}
}

// synthRounds builds per-round measurements in which the head side
// runs at factor × base, with the host slowing both sides of some
// rounds by up to 2× (the drift a paired design cancels).
func synthRounds(rounds int, factor float64) (base, head []map[string]Measurement) {
	rng := rand.New(rand.NewSource(3))
	for r := 0; r < rounds; r++ {
		phase := 1 + rng.Float64() // the host phase both sides of a round share
		jitter := func() float64 { return 1 + 0.02*(rng.Float64()-0.5) }
		base = append(base, map[string]Measurement{
			"BenchmarkA":        {Name: "BenchmarkA", NsPerOp: 100 * phase * jitter()},
			"BenchmarkOnlyBase": {Name: "BenchmarkOnlyBase", NsPerOp: 5},
		})
		head = append(head, map[string]Measurement{
			"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 100 * factor * phase * jitter(), AllocsPerOp: 1},
		})
	}
	return base, head
}

func TestPairRounds(t *testing.T) {
	for _, tc := range []struct {
		factor    float64
		regressed bool
	}{
		{1.0, false},
		{0.8, false},
		{1.3, true},
	} {
		base, head := synthRounds(10, tc.factor)
		res, skipped := pairRounds(base, head, 0.95)
		if len(res) != 1 || res[0].Name != "BenchmarkA" {
			t.Fatalf("factor %v: results %+v", tc.factor, res)
		}
		if len(skipped) != 1 || skipped[0] != "BenchmarkOnlyBase" {
			t.Errorf("factor %v: skipped %v, want the base-only benchmark", tc.factor, skipped)
		}
		r := res[0]
		// The host phases spread each side over 2×, but the paired
		// ratio stays within the 2% jitter of the true factor.
		if r.Lo > tc.factor || r.Hi < tc.factor || r.Hi-r.Lo > 0.03*tc.factor {
			t.Errorf("factor %v: ratio %v interval [%v, %v]", tc.factor, r.Ratio, r.Lo, r.Hi)
		}
		if got := r.regressed(abLimit); got != tc.regressed {
			t.Errorf("factor %v: regressed = %v, want %v", tc.factor, got, tc.regressed)
		}
		if r.HeadAlloc != 1 || r.BaseAlloc != 0 {
			t.Errorf("factor %v: allocs %d -> %d", tc.factor, r.BaseAlloc, r.HeadAlloc)
		}
	}
}

func TestABUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-ab"},
		{"-ab", "-bench", "X", "-baseline", "b.json"},
		{"-ab", "-bench", "X", "-write", "b.json"},
		{"-ab", "-bench", "X", "-rounds", "10"},                 // rounds are fixed at abRounds
		{"-base", "HEAD", "-bench", "X", "-baseline", "b.json"}, // -base is an -ab option
	} {
		var stdout, stderr bytes.Buffer
		if got := run(args, strings.NewReader(""), &stdout, &stderr); got != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, got, stderr.String())
		}
	}
}

// chdirFreshRepo makes a fresh git repository whose only commit is
// main, and moves the test into it.
func chdirFreshRepo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	for _, args := range [][]string{
		{"init", "-q", "-b", "main"},
		{"-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "--allow-empty", "-m", "base"},
	} {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestABRefusesSelfComparison runs -ab in a fresh repository whose
// only commit is main: the merge-base is HEAD and the tree is clean,
// so both sides would be the same code and the gate must not pass.
func TestABRefusesSelfComparison(t *testing.T) {
	chdirFreshRepo(t)
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-ab", "-bench", "X"}, strings.NewReader(""), &stdout, &stderr); got != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nothing to compare") {
		t.Errorf("stderr %q does not name the refusal", stderr.String())
	}
}

// TestABExplicitBase checks -base in the same fresh repository: HEAD
// on a clean tree is an A/A run, not refused (it gets as far as
// building the repository's empty package, which fails), and a
// revision git cannot resolve is reported as the -base error it is.
func TestABExplicitBase(t *testing.T) {
	chdirFreshRepo(t)
	for _, tc := range []struct{ base, want string }{
		{"HEAD", "building base"},
		{"no-such-rev", "-base:"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-ab", "-base", tc.base, "-bench", "X"}, strings.NewReader(""), &stdout, &stderr); got != 1 {
			t.Fatalf("-base %s: exit %d, want 1 (stderr %q)", tc.base, got, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "nothing to compare") {
			t.Errorf("-base %s: stderr %q, want it to name %q", tc.base, msg, tc.want)
		}
	}
}
