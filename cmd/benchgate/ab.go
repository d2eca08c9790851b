package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"cbws/internal/cli"
)

// abConfig holds the options of the paired A/B mode (-ab).
type abConfig struct {
	bench   string   // -test.bench regex
	base    string   // -base revision ("": the merge-base of HEAD and abBase)
	overlay []string // repo-relative files copied from the working tree into the base checkout
}

const (
	// abBase is the branch whose merge-base with HEAD is the baseline
	// when -base is not given.
	abBase = "main"
	// abLimit fails the gate when a ratio interval's lower bound
	// exceeds it: a slowdown beyond 10% at the interval's confidence.
	abLimit = 1.10
	// abConf is the least coverage of the median ratio's interval.
	abConf = 0.95
	// abRounds is the number of alternating rounds per side. With
	// abBenchtime it is sized to catch a ~20% slowdown on a noisy
	// 2-vCPU host: at 20 rounds the interval is the 6th and 15th
	// smallest ratio (95.9%), where 10 rounds gave the 2nd and 9th,
	// and a planted 1.16-1.20x spin failed the gate in 2 of 3 runs.
	abRounds = 20
	// abBenchtime is each benchmark's -test.benchtime in each round.
	abBenchtime = "500ms"
	// allocBenchtime is the fixed iteration count of an alloc pass,
	// which runs once under GOGC=off (runAllocPass). Allocation counts
	// come from that pass alone: a collection inside a timed run would
	// add the runtime's own allocations to the count, and the fixed
	// count bounds the heap that grows uncollected.
	allocBenchtime = "20x"
)

// abResult is one benchmark's paired comparison. Ratios are
// head/base ns/op, so above 1 means the working tree is slower.
type abResult struct {
	Name                 string
	BaseNs, HeadNs       float64 // medians over rounds
	Ratio                float64 // median per-round ratio
	Lo, Hi               float64 // order-statistic interval of the median ratio
	Coverage             float64 // the interval's coverage
	BaseAlloc, HeadAlloc int64
}

// regressed reports whether the working tree is slower than limit×base
// with the interval's confidence: the whole interval lies above limit.
func (r abResult) regressed(limit float64) bool { return r.Lo > limit }

// median returns the median of xs (the mean of the middle pair for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianCI returns the distribution-free interval of the median of xs
// and its coverage: the kth smallest and the kth largest value, for
// the largest k whose coverage 1 − 2·P(B < k), B ~ Binomial(n, ½), is
// still at least conf. It assumes only that the values are independent
// draws of one distribution, so it holds at the few rounds of -ab,
// where a bootstrap of the median under-covers; at abRounds = 20 it
// is the 6th and 15th smallest, at 95.9%. With too few values for
// conf it returns the smallest and the largest, at their own lower
// coverage.
func medianCI(xs []float64, conf float64) (lo, hi, coverage float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	k := 1
	tail := math.Pow(0.5, float64(n)) // P(B < k)
	pmf := tail                       // P(B = k−1)
	for k+1 <= (n+1)/2 {
		pmf *= float64(n-k+1) / float64(k)
		if 1-2*(tail+pmf) < conf {
			break
		}
		tail += pmf
		k++
	}
	return s[k-1], s[n-k], 1 - 2*tail
}

// pairRounds turns per-round measurements of both sides into one
// result per benchmark measured in every round on both sides, sorted
// by name. Round i of base is paired with round i of head. Names
// missing from some round are returned in skipped.
func pairRounds(base, head []map[string]Measurement, conf float64) (res []abResult, skipped []string) {
	names := map[string]bool{}
	for _, rounds := range [][]map[string]Measurement{base, head} {
		for _, r := range rounds {
			for name := range r {
				names[name] = true
			}
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		var bs, hs, ratios []float64
		complete := len(base) == len(head) && len(base) > 0
		for i := 0; complete && i < len(base); i++ {
			b, okB := base[i][name]
			h, okH := head[i][name]
			if !okB || !okH || b.NsPerOp <= 0 {
				complete = false
				break
			}
			bs, hs = append(bs, b.NsPerOp), append(hs, h.NsPerOp)
			ratios = append(ratios, h.NsPerOp/b.NsPerOp)
		}
		if !complete {
			skipped = append(skipped, name)
			continue
		}
		r := abResult{Name: name, BaseNs: median(bs), HeadNs: median(hs), Ratio: median(ratios),
			BaseAlloc: base[0][name].AllocsPerOp, HeadAlloc: head[0][name].AllocsPerOp}
		r.Lo, r.Hi, r.Coverage = medianCI(ratios, conf)
		res = append(res, r)
	}
	return res, skipped
}

// abSide is one build under comparison.
type abSide struct {
	name string
	dir  string // checkout root: the binary's build and run directory
	bin  string
}

// runAB builds the root package's test binary of the base revision and
// of the working tree, alternates single-count benchmark runs between
// them for abRounds rounds (swapping which side goes first each round),
// and gates on the per-round ratios. The base is cfg.base, or by
// default the merge-base with abBase. It refuses to run when that
// default is HEAD and the working tree is clean: both sides would be
// the same code, and the gate would pass vacuously. An explicit -base
// HEAD on a clean tree is that same comparison asked for on purpose:
// an A/A run whose ratio intervals are each benchmark's noise floor.
func runAB(cfg abConfig, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "benchgate: "+format+"\n", args...)
		return cli.ExitFail
	}
	root, err := gitOut("", "rev-parse", "--show-toplevel")
	if err != nil {
		return fail("%v", err)
	}
	var rev string
	if cfg.base != "" {
		if rev, err = gitOut(root, "rev-parse", "--verify", cfg.base+"^{commit}"); err != nil {
			return fail("-base: %v", err)
		}
	} else {
		if rev, err = gitOut(root, "merge-base", "HEAD", abBase); err != nil {
			return fail("%v", err)
		}
		head, err := gitOut(root, "rev-parse", "HEAD")
		if err != nil {
			return fail("%v", err)
		}
		dirty, err := gitOut(root, "status", "--porcelain", "--untracked-files=no")
		if err != nil {
			return fail("%v", err)
		}
		if rev == head && dirty == "" {
			return fail("nothing to compare: the merge-base with %s is HEAD (%s) and the working tree is clean", abBase, head)
		}
	}
	tmp, err := os.MkdirTemp("", "benchgate-ab-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(tmp)
	wt := filepath.Join(tmp, "base")
	if _, err := gitOut(root, "worktree", "add", "--detach", wt, rev); err != nil {
		return fail("%v", err)
	}
	defer func() {
		if _, err := gitOut(root, "worktree", "remove", "--force", wt); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
		}
	}()
	for _, f := range cfg.overlay {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return fail("overlay: %v", err)
		}
		if err := os.WriteFile(filepath.Join(wt, f), b, 0o644); err != nil {
			return fail("overlay: %v", err)
		}
	}
	short := rev[:min(len(rev), 12)]
	sides := []abSide{
		{name: "base " + short, dir: wt, bin: filepath.Join(tmp, "base.test")},
		{name: "working tree", dir: root, bin: filepath.Join(tmp, "head.test")},
	}
	for _, s := range sides {
		if out, err := buildTest(s); err != nil {
			return fail("building %s: %v\n%s", s.name, err, out)
		}
	}

	allocs := make([]map[string]Measurement, 2)
	for i, s := range sides {
		out, err := runAllocPass(s, cfg.bench)
		if err != nil {
			return fail("alloc pass, %s: %v\n%s", s.name, err, out)
		}
		if allocs[i], err = parseBench(bytes.NewReader(out), true); err != nil {
			return fail("alloc pass, %s: %v", s.name, err)
		}
	}

	results := make([][]map[string]Measurement, 2)
	for r := 0; r < abRounds; r++ {
		order := []int{0, 1}
		if r%2 == 1 {
			order = []int{1, 0}
		}
		for _, i := range order {
			s := sides[i]
			out, err := runBench(s, cfg.bench, abBenchtime)
			if err != nil {
				return fail("round %d, %s: %v\n%s", r+1, s.name, err, out)
			}
			got, err := parseBench(bytes.NewReader(out), false)
			if err != nil {
				return fail("round %d, %s: %v", r+1, s.name, err)
			}
			withAllocs(got, allocs[i])
			results[i] = append(results[i], got)
		}
		fmt.Fprintf(stderr, "benchgate: round %d/%d done\n", r+1, abRounds)
	}

	res, skipped := pairRounds(results[0], results[1], abConf)
	for _, name := range skipped {
		fmt.Fprintf(stderr, "benchgate: %s: not measured in every round on both sides (skipped)\n", name)
	}
	if len(res) == 0 {
		return fail("no benchmark measured on both sides")
	}
	fmt.Fprintf(stdout, "A/B over %d rounds: base %s vs working tree; ratio = working/base ns/op, %.1f%% interval of the median\n",
		abRounds, short, 100*res[0].Coverage)
	fmt.Fprintf(stdout, "%-40s %12s %12s %8s %18s %s\n", "benchmark", "base ns/op", "head ns/op", "ratio", "interval", "allocs/op")
	code := cli.ExitOK
	for _, r := range res {
		verdict := ""
		if r.regressed(abLimit) {
			verdict = fmt.Sprintf("  REGRESSION: lower bound above %.2f", abLimit)
			code = cli.ExitFail
		}
		fmt.Fprintf(stdout, "%-40s %12.1f %12.1f %8.3f   [%6.3f, %6.3f] %d -> %d%s\n",
			r.Name, r.BaseNs, r.HeadNs, r.Ratio, r.Lo, r.Hi, r.BaseAlloc, r.HeadAlloc, verdict)
	}
	return code
}

// runBench runs one -test.count 1 pass of side s's benchmarks matching
// bench at the given -test.benchtime, with env added to the process
// environment, and returns the combined output.
func runBench(s abSide, bench, benchtime string, env ...string) ([]byte, error) {
	cmd := exec.Command(s.bin, "-test.run", "^$", "-test.bench", bench,
		"-test.count", "1", "-test.benchtime", benchtime, "-test.benchmem")
	cmd.Dir = s.dir
	cmd.Env = append(os.Environ(), env...)
	return cmd.CombinedOutput()
}

// buildTest builds the test binary of the package in s.dir to s.bin.
func buildTest(s abSide) ([]byte, error) {
	cmd := exec.Command("go", "test", "-c", "-o", s.bin, ".")
	cmd.Dir = s.dir
	return cmd.CombinedOutput()
}

// runAllocPass runs side s's alloc pass over the benchmarks matching
// bench: one run at allocBenchtime with the collector off.
func runAllocPass(s abSide, bench string) ([]byte, error) {
	return runBench(s, bench, allocBenchtime, "GOGC=off")
}

// allocPass builds the test binary of the package in the working
// directory and returns the output of its alloc pass over bench. It is
// a variable so tests can gate canned output without building.
var allocPass = func(bench string) ([]byte, error) {
	tmp, err := os.MkdirTemp("", "benchgate-allocs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	s := abSide{name: "working tree", dir: ".", bin: filepath.Join(tmp, "allocs.test")}
	if out, err := buildTest(s); err != nil {
		return out, err
	}
	return runAllocPass(s, bench)
}

// gitOut runs git in dir and returns its trimmed standard output.
func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
