package harness

import "testing"

// TestResolveFactoryKnown resolves every registered scheme.
func TestResolveFactoryKnown(t *testing.T) {
	for _, f := range ExtendedPrefetchers() {
		got, err := ResolveFactory(f.Name)
		if err != nil {
			t.Fatalf("ResolveFactory(%q): %v", f.Name, err)
		}
		if got.Name != f.Name {
			t.Fatalf("ResolveFactory(%q) resolved to %q", f.Name, got.Name)
		}
	}
}

// TestResolveFactorySuggestion pins the exact shape of the miss
// diagnostic: the simulation service embeds it verbatim in HTTP 400
// bodies, so remote users must keep seeing the case-insensitive
// "did you mean" suggestion and the full roster.
func TestResolveFactorySuggestion(t *testing.T) {
	cases := []struct{ name, want string }{
		{"CBWS", `unknown prefetcher "CBWS" (did you mean "cbws"? valid: none, stride, ghb-pc/dc, ghb-g/dc, sms, cbws, cbws+sms, ampm, markov, pythia, gaze)`},
		{"strde", `unknown prefetcher "strde" (did you mean "stride"? valid: none, stride, ghb-pc/dc, ghb-g/dc, sms, cbws, cbws+sms, ampm, markov, pythia, gaze)`},
		// Plain Levenshtein: "sms" (distance 3) ties "gaze" (also 3)
		// and beats the ghb variants (distance 5); registration order
		// keeps "sms" ahead — pinned so the suggestion stays
		// deterministic as the roster grows.
		{"ghb", `unknown prefetcher "ghb" (did you mean "sms"? valid: none, stride, ghb-pc/dc, ghb-g/dc, sms, cbws, cbws+sms, ampm, markov, pythia, gaze)`},
		// Learned-name typos resolve to the learned schemes.
		{"pythai", `unknown prefetcher "pythai" (did you mean "pythia"? valid: none, stride, ghb-pc/dc, ghb-g/dc, sms, cbws, cbws+sms, ampm, markov, pythia, gaze)`},
	}
	for _, tc := range cases {
		_, err := ResolveFactory(tc.name)
		if err == nil {
			t.Fatalf("ResolveFactory(%q): expected error", tc.name)
		}
		if err.Error() != tc.want {
			t.Errorf("ResolveFactory(%q):\n got %q\nwant %q", tc.name, err.Error(), tc.want)
		}
	}
}
