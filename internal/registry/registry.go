// Package registry is the single name-based catalogue of prefetching
// schemes. Every surface that constructs a prefetcher by name — the
// public cbws facade, the evaluation harness, the CLIs and the
// benchmarks — delegates here, so adding a scheme in one place makes it
// available everywhere.
package registry

import (
	"fmt"
	"strings"

	"cbws/internal/core"
	"cbws/internal/prefetch"
	"cbws/internal/prefetch/learned"
)

// Factory names and constructs one prefetching scheme.
type Factory struct {
	Name string
	// Learned marks the post-paper learned baselines (Pythia-style RL,
	// Gaze-style spatial). The paper figures exclude them; the golden
	// manifest pins them like every other scheme.
	Learned bool
	New     func() prefetch.Prefetcher
}

// factories lists every registered scheme in the paper's plotting order,
// evaluated roster first, then the learned baselines. Every scheme here
// has its cells in golden/seed.json.
var factories = []Factory{
	{Name: "none", New: func() prefetch.Prefetcher { return prefetch.NewNone() }},
	{Name: "stride", New: func() prefetch.Prefetcher { return prefetch.NewStride(prefetch.StrideConfig{}) }},
	{Name: "ghb-pc/dc", New: func() prefetch.Prefetcher { return prefetch.NewGHB(prefetch.GHBConfig{Mode: prefetch.PCDC}) }},
	{Name: "ghb-g/dc", New: func() prefetch.Prefetcher { return prefetch.NewGHB(prefetch.GHBConfig{Mode: prefetch.GlobalDC}) }},
	{Name: "sms", New: func() prefetch.Prefetcher { return prefetch.NewSMS(prefetch.SMSConfig{}) }},
	{Name: "cbws", New: func() prefetch.Prefetcher { return core.New(core.Config{}) }},
	{Name: "cbws+sms", New: func() prefetch.Prefetcher {
		return core.NewComposite(core.New(core.Config{}), prefetch.NewSMS(prefetch.SMSConfig{}))
	}},
	{Name: "pythia", Learned: true,
		New: func() prefetch.Prefetcher { return learned.NewPythia(learned.PythiaConfig{}) }},
	{Name: "gaze", Learned: true,
		New: func() prefetch.Prefetcher { return learned.NewGaze(learned.GazeConfig{}) }},
}

// Evaluated returns the schemes of the paper's evaluation in plotting
// order: none, stride, GHB PC/DC, GHB G/DC, SMS, CBWS, CBWS+SMS.
func Evaluated() []Factory {
	out := make([]Factory, 0, len(factories))
	for _, f := range factories {
		if !f.Learned {
			out = append(out, f)
		}
	}
	return out
}

// All returns every registered scheme, the roster golden/seed.json
// pins: the evaluated roster followed by the learned baselines.
func All() []Factory {
	out := make([]Factory, len(factories))
	copy(out, factories)
	return out
}

// Names returns the registered scheme names in registration order.
func Names() []string {
	out := make([]string, len(factories))
	for i, f := range factories {
		out[i] = f.Name
	}
	return out
}

// ByName looks up a registered scheme.
func ByName(name string) (Factory, bool) {
	for _, f := range factories {
		if f.Name == name {
			return f, true
		}
	}
	return Factory{}, false
}

// New constructs the named scheme, or an error listing the valid names
// (nearest first) when the name is unknown.
func New(name string) (prefetch.Prefetcher, error) {
	f, err := Resolve(name)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return f.New(), nil
}

// Resolve looks up the named scheme's factory, or returns the
// "did you mean" error when the name is unknown. The message is part of
// the service API (it travels in HTTP 400 bodies), so its shape is
// pinned by tests.
func Resolve(name string) (Factory, error) {
	if f, ok := ByName(name); ok {
		return f, nil
	}
	return Factory{}, fmt.Errorf("unknown prefetcher %q (did you mean %q? valid: %s)",
		name, Suggest(name), strings.Join(Names(), ", "))
}

// Suggest returns the registered name nearest to name. The distance is
// case-insensitive (so "CBWS" suggests "cbws" rather than an arbitrary
// same-length neighbour) and ties resolve to strict registration order:
// each distance is computed once and a single scan keeps the first
// minimum, so the suggestion stays deterministic as the roster grows
// (a comparison sort could order equal-distance neighbours by
// implementation detail).
func Suggest(name string) string {
	lower := strings.ToLower(name)
	best, bestDist := "", 0
	for _, f := range factories {
		d := editDistance(lower, strings.ToLower(f.Name))
		if best == "" || d < bestDist {
			best, bestDist = f.Name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b, used only to
// order the suggestion in New's error message.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
