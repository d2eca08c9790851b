package registry

import (
	"strings"
	"testing"
)

// TestRoundTrip checks that every listed name constructs a prefetcher
// that reports the same name, via both ByName and New.
func TestRoundTrip(t *testing.T) {
	t.Parallel()
	for _, name := range Names() {
		f, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) missing a listed name", name)
		}
		if f.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, f.Name)
		}
		if got := f.New().Name(); got != name {
			t.Errorf("factory %q constructs prefetcher named %q", name, got)
		}
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got := p.Name(); got != name {
			t.Errorf("New(%q).Name() = %q", name, got)
		}
	}
}

// TestEvaluatedRoster pins the paper's evaluated schemes and their
// plotting order; the learned baselines stay out of the evaluated set.
func TestEvaluatedRoster(t *testing.T) {
	t.Parallel()
	want := []string{"none", "stride", "ghb-pc/dc", "ghb-g/dc", "sms", "cbws", "cbws+sms"}
	got := Evaluated()
	if len(got) != len(want) {
		t.Fatalf("Evaluated() has %d schemes, want %d", len(got), len(want))
	}
	for i, f := range got {
		if f.Name != want[i] {
			t.Errorf("Evaluated()[%d] = %q, want %q", i, f.Name, want[i])
		}
		if f.Learned {
			t.Errorf("%s marked as learned inside the evaluated roster", f.Name)
		}
	}
	if len(All()) <= len(want) {
		t.Error("All() should extend the evaluated roster with the learned baselines")
	}
}

// TestGoldenRoster pins the full roster, the one golden/seed.json
// covers: the evaluated schemes followed by the learned baselines.
func TestGoldenRoster(t *testing.T) {
	t.Parallel()
	want := []string{"none", "stride", "ghb-pc/dc", "ghb-g/dc", "sms", "cbws", "cbws+sms",
		"pythia", "gaze"}
	got := Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, f := range All() {
		if f.Learned != (f.Name == "pythia" || f.Name == "gaze") {
			t.Errorf("%s: Learned = %v", f.Name, f.Learned)
		}
	}
}

// TestSuggest pins the nearest-name suggestion on its edge cases: the
// empty name, case-only mismatches, near-misses, and distance ties
// (which must resolve to registration order, deterministically).
func TestSuggest(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		in   string
		want string
	}{
		{name: "empty name picks shortest", in: "", want: "sms"},
		{name: "exact but wrong case", in: "CBWS", want: "cbws"},
		{name: "mixed case near miss", in: "Cbw", want: "cbws"},
		{name: "single deletion", in: "strid", want: "stride"},
		{name: "ghb slash variant", in: "ghb-pc-dc", want: "ghb-pc/dc"},
		{name: "composite", in: "cbws-sms", want: "cbws+sms"},
		// "nonf" is distance 1 from "none" only; "xms" ties "sms" at 1
		// with nothing closer, so registration order keeps "sms" ahead
		// of later same-distance names.
		{name: "substitution", in: "nonf", want: "none"},
		{name: "tie resolves to registration order", in: "xms", want: "sms"},
		// Learned-roster typos resolve to the learned names.
		{name: "learned transposition", in: "pythai", want: "pythia"},
		{name: "learned trailing insertion", in: "gazee", want: "gaze"},
		// "zzzz" keeps one matching z against "gaze" (distance 3); every
		// four-letter elder is at 4, so the learned scheme wins outright.
		{name: "far from all lands on nearest learned", in: "zzzz", want: "gaze"},
		// Distance ties across the registration boundary: "aze" is 1
		// from "gaze" only; "mms" ties "sms" (1) and nothing earlier.
		{name: "learned deletion", in: "aze", want: "gaze"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < 8; i++ { // determinism: same answer every call
				if got := Suggest(tc.in); got != tc.want {
					t.Fatalf("Suggest(%q) = %q, want %q (call %d)", tc.in, got, tc.want, i)
				}
			}
		})
	}
}

// TestUnknownName checks the error path: unknown names fail with a
// nearest-name suggestion and the full roster.
func TestUnknownName(t *testing.T) {
	t.Parallel()
	if _, ok := ByName("cbw"); ok {
		t.Error(`ByName("cbw") should miss`)
	}
	_, err := New("cbw")
	if err == nil {
		t.Fatal(`New("cbw") should fail`)
	}
	msg := err.Error()
	if !strings.Contains(msg, `"cbws"`) {
		t.Errorf("error should suggest the nearest name cbws: %s", msg)
	}
	if !strings.Contains(msg, "cbws+sms") || !strings.Contains(msg, "ghb-pc/dc") {
		t.Errorf("error should list the valid names: %s", msg)
	}
}
