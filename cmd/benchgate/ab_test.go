package main

import (
	"bytes"
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

func TestBootstrapMedianCI(t *testing.T) {
	// Identical ratios: the interval collapses onto the value.
	lo, hi := bootstrapMedianCI([]float64{1.2, 1.2, 1.2, 1.2}, 0.95, 500, rand.New(rand.NewSource(1)))
	if lo != 1.2 || hi != 1.2 {
		t.Errorf("constant input: interval [%v, %v], want [1.2, 1.2]", lo, hi)
	}
	// A noisy sample: the interval brackets the sample median, lies
	// within the sample's range, and is reproducible from the seed.
	xs := []float64{0.71, 0.78, 0.74, 0.80, 0.69, 0.77, 0.75, 0.92, 0.73, 0.76}
	lo, hi = bootstrapMedianCI(xs, 0.95, 2000, rand.New(rand.NewSource(7)))
	if m := median(xs); lo > m || hi < m || lo < 0.69 || hi > 0.92 || lo >= hi {
		t.Errorf("interval [%v, %v] around median %v is implausible", lo, hi, m)
	}
	lo2, hi2 := bootstrapMedianCI(xs, 0.95, 2000, rand.New(rand.NewSource(7)))
	if lo2 != lo || hi2 != hi {
		t.Errorf("same seed gave [%v, %v] then [%v, %v]", lo, hi, lo2, hi2)
	}
	// A wider coverage never gives a narrower interval.
	wlo, whi := bootstrapMedianCI(xs, 0.99, 2000, rand.New(rand.NewSource(7)))
	if wlo > lo || whi < hi {
		t.Errorf("99%% interval [%v, %v] inside 95%% interval [%v, %v]", wlo, whi, lo, hi)
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
