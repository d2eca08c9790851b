package harness

import (
	"testing"

	"cbws/internal/registry"
)

// TestResolveFactoryKnown resolves every registered scheme through
// registry.Resolve, the lookup every CLI and the service use.
func TestResolveFactoryKnown(t *testing.T) {
	for _, f := range registry.All() {
		got, err := registry.Resolve(f.Name)
		if err != nil {
			t.Fatalf("registry.Resolve(%q): %v", f.Name, err)
		}
		if got.Name != f.Name {
			t.Fatalf("registry.Resolve(%q) resolved to %q", f.Name, got.Name)
		}
	}
}

// TestResolveFactorySuggestion pins the exact shape of the miss
// diagnostic: the simulation service embeds it verbatim in HTTP 400
// bodies, so remote users must keep seeing the case-insensitive
// "did you mean" suggestion and the full roster.
func TestResolveFactorySuggestion(t *testing.T) {
	cases := []struct{ name, want string }{
		{"CBWS", `unknown prefetcher "CBWS" (did you mean "cbws"? valid: none, stride, ghb-pc/dc, ghb-g/dc, sms, cbws, cbws+sms, pythia, gaze)`},
		{"strde", `unknown prefetcher "strde" (did you mean "stride"? valid: none, stride, ghb-pc/dc, ghb-g/dc, sms, cbws, cbws+sms, pythia, gaze)`},
		// Plain Levenshtein: "sms" (distance 3) ties "gaze" (also 3)
		// and beats the ghb variants (distance 5); registration order
		// keeps "sms" ahead — pinned so the suggestion stays
		// deterministic as the roster grows.
		{"ghb", `unknown prefetcher "ghb" (did you mean "sms"? valid: none, stride, ghb-pc/dc, ghb-g/dc, sms, cbws, cbws+sms, pythia, gaze)`},
		// Learned-name typos resolve to the learned schemes.
		{"pythai", `unknown prefetcher "pythai" (did you mean "pythia"? valid: none, stride, ghb-pc/dc, ghb-g/dc, sms, cbws, cbws+sms, pythia, gaze)`},
	}
	for _, tc := range cases {
		_, err := registry.Resolve(tc.name)
		if err == nil {
			t.Fatalf("registry.Resolve(%q): expected error", tc.name)
		}
		if err.Error() != tc.want {
			t.Errorf("registry.Resolve(%q):\n got %q\nwant %q", tc.name, err.Error(), tc.want)
		}
	}
}
