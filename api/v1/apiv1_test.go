package apiv1

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cbws/internal/harness"
)

// TestWireShapesPinned pins the exact marshaled bytes of the wire
// types. These shapes predate the api/v1 extraction — cbwsd daemons
// and cbwsctl clients from before it must interoperate with the ones
// after — so a diff here is a wire break, not a refactor.
func TestWireShapesPinned(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string
	}{
		{
			"JobView",
			JobView{
				Key: "k", Workload: "w", Prefetcher: "p", Status: StatusRunning,
				Progress: Progress{Instructions: 5, MaxInstructions: 10},
			},
			`{"key":"k","workload":"w","prefetcher":"p","status":"running","progress":{"instructions":5,"max_instructions":10}}`,
		},
		{
			"JobView cached+error",
			JobView{Key: "k", Status: StatusDone, Cached: true, Error: "boom"},
			`{"key":"k","workload":"","prefetcher":"","status":"done","progress":{"instructions":0,"max_instructions":0},"cached":true,"error":"boom"}`,
		},
		{
			"SubmitRequest minimal",
			SubmitRequest{Workload: "w", Prefetcher: "p"},
			`{"workload":"w","prefetcher":"p"}`,
		},
		{
			"SubmitRequest full",
			SubmitRequest{Workload: "w", Prefetcher: "p", Config: json.RawMessage(`{"MaxInstructions":1}`), WorkloadHash: "h"},
			`{"workload":"w","prefetcher":"p","config":{"MaxInstructions":1},"workload_hash":"h"}`,
		},
		{
			"ErrorBody",
			ErrorBody{Error: "no"},
			`{"error":"no"}`,
		},
		{
			"RosterEntry",
			RosterEntry{Name: "fft-simlarge", Suite: "splash2", MI: true},
			`{"name":"fft-simlarge","suite":"splash2","mi":true}`,
		},
		{
			"Healthz",
			Healthz{Status: "ok", Draining: false, CodeVersion: "abc"},
			`{"status":"ok","draining":false,"code_version":"abc"}`,
		},
	}
	for _, tc := range cases {
		b, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(b) != tc.want {
			t.Errorf("%s wire shape changed:\n got %s\nwant %s", tc.name, b, tc.want)
		}
	}

	// The field set of every pinned struct, omitempty fields included:
	// the bytes above omit an empty omitempty field, so an added one
	// would pass them unseen.
	fields := map[reflect.Type][]string{
		reflect.TypeOf(JobView{}):       {"key", "workload", "prefetcher", "status", "progress", "cached", "error"},
		reflect.TypeOf(Progress{}):      {"instructions", "max_instructions"},
		reflect.TypeOf(SubmitRequest{}): {"workload", "prefetcher", "config", "workload_hash"},
		reflect.TypeOf(ErrorBody{}):     {"error"},
		reflect.TypeOf(RosterEntry{}):   {"name", "suite", "mi"},
		reflect.TypeOf(Healthz{}):       {"status", "draining", "code_version"},
	}
	for _, tc := range cases {
		if _, ok := fields[reflect.TypeOf(tc.v)]; !ok {
			t.Errorf("%s: pinned type %T has no pinned field set", tc.name, tc.v)
		}
	}
	for typ, want := range fields {
		if got := jsonFields(typ); !slices.Equal(got, want) {
			t.Errorf("%s JSON fields changed:\n got %q\nwant %q", typ.Name(), got, want)
		}
	}
}

// jsonFields lists the JSON member names encoding/json gives struct
// type typ's fields, in declaration order; fields of an untagged
// embedded struct are inlined, as the encoder does.
func jsonFields(typ reflect.Type) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag := f.Tag.Get("json")
		name, _, _ := strings.Cut(tag, ",")
		switch {
		case name == "-":
			continue
		case f.Anonymous && tag == "" && f.Type.Kind() == reflect.Struct:
			out = append(out, jsonFields(f.Type)...)
			continue
		case !f.IsExported():
			continue
		case name == "":
			name = f.Name
		}
		out = append(out, name)
	}
	return out
}

// TestJobKeyPinned pins one concrete content address. The key decides
// which on-disk cache entries and federated peer results are valid, so
// it may only change when the canonical input is changed deliberately
// (with a KeySchema bump or an accepted cache invalidation) — never as
// a side effect of refactoring. This exact value was produced by the
// pre-extraction internal/service implementation.
func TestJobKeyPinned(t *testing.T) {
	cfg := harness.DefaultOptions().Sim
	cfg.MaxInstructions = 400000
	cfg.WarmupInstructions = 100000
	spec := JobSpec{Workload: "stencil-default", Prefetcher: "cbws", Config: cfg}
	const want = "15cd20e2938e577b9ceba62d1a1c73cc2e032e99536254effef15e42791549b6"
	if got := spec.Key("pinned-code-version"); got != want {
		t.Fatalf("canonical job key drifted — this invalidates every existing cache:\n got %s\nwant %s", got, want)
	}
}

func TestStatusTerminal(t *testing.T) {
	for st, want := range map[Status]bool{
		StatusQueued: false, StatusRunning: false,
		StatusDone: true, StatusFailed: true, StatusCanceled: true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", st, !want, want)
		}
	}
}
