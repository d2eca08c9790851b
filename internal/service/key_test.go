package service

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cbws/internal/harness"
)

func baseSpec() JobSpec {
	return JobSpec{
		Workload:   "stencil-default",
		Prefetcher: "cbws",
		Config:     harness.DefaultOptions().Sim,
	}
}

func TestKeyDeterministic(t *testing.T) {
	a, b := baseSpec(), baseSpec()
	if a.Key("v1") != b.Key("v1") {
		t.Fatal("equal specs hash differently")
	}
	if a.Key("v1") == a.Key("v2") {
		t.Fatal("code version not covered by the key")
	}
	if len(a.Key("v1")) != 64 {
		t.Fatalf("key is not a sha256 hex string: %q", a.Key("v1"))
	}
}

// TestKeyIgnoresJSONFieldOrder submits the same effective request with
// config fields in two different orders (and one omitting defaults)
// and requires identical keys: the content address covers effective
// values, not the submitted encoding.
func TestKeyIgnoresJSONFieldOrder(t *testing.T) {
	base := harness.DefaultOptions().Sim
	bodies := []string{
		`{"workload":"stencil-default","prefetcher":"cbws","config":{"MaxInstructions":200000,"WarmupInstructions":50000}}`,
		`{"prefetcher":"cbws","config":{"WarmupInstructions":50000,"MaxInstructions":200000},"workload":"stencil-default"}`,
	}
	var keys []string
	for _, b := range bodies {
		spec, err := ParseSpec([]byte(b), base)
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", b, err)
		}
		keys = append(keys, spec.Key("v1"))
	}
	if keys[0] != keys[1] {
		t.Fatalf("field order changed the key:\n%s\n%s", keys[0], keys[1])
	}

	// Stating a default explicitly must be the same as omitting it.
	explicit := `{"workload":"stencil-default","prefetcher":"cbws","config":{"MaxInstructions":200000,"WarmupInstructions":50000,"IdealBranchPrediction":false}}`
	spec, err := ParseSpec([]byte(explicit), base)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Key("v1"); got != keys[0] {
		t.Fatalf("explicit default changed the key: %s vs %s", got, keys[0])
	}
}

// mutate changes one leaf field to a different value of its type.
func mutate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic("unsupported kind " + v.Kind().String())
	}
}

// walkLeaves visits every settable leaf field of a struct value,
// depth-first, reporting the dotted path of each.
func walkLeaves(v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			walkLeaves(v.Field(i), path+"."+f.Name, visit)
		}
		return
	}
	visit(path, v)
}

// TestKeyCoversEveryConfigField mutates each leaf field of sim.Config
// by reflection and requires the key to change: a new config field can
// never silently alias existing cache entries. The walk also fails on
// field kinds the mutator does not understand, so structural additions
// (slices, maps) force this test to be updated alongside the key
// definition.
func TestKeyCoversEveryConfigField(t *testing.T) {
	want := baseSpec().Key("v1")
	seen := 0
	root := baseSpec()
	walkLeaves(reflect.ValueOf(&root.Config).Elem(), "Config", func(path string, leaf reflect.Value) {
		t.Helper()
		seen++
		spec := baseSpec()
		// Re-walk to the same leaf on the fresh copy and mutate it.
		cur := reflect.ValueOf(&spec.Config).Elem()
		for _, name := range strings.Split(path, ".")[1:] {
			cur = cur.FieldByName(name)
		}
		mutate(cur)
		if got := spec.Key("v1"); got == want {
			t.Errorf("mutating %s did not change the cache key", path)
		}
	})
	if seen < 15 {
		t.Fatalf("config walk found only %d leaves — walker broken?", seen)
	}

	// Identity fields too.
	for _, alter := range []func(*JobSpec){
		func(s *JobSpec) { s.Workload = "429.mcf-ref" },
		func(s *JobSpec) { s.Prefetcher = "sms" },
	} {
		spec := baseSpec()
		alter(&spec)
		if spec.Key("v1") == want {
			t.Error("mutating workload/prefetcher did not change the cache key")
		}
	}
}

// TestKeyCanonicalInputShape pins the canonical pre-hash encoding
// indirectly: the key must be the hash of fixed-order JSON, so a spec
// round-tripped through its own JSON encoding keys identically.
func TestKeyCanonicalInputShape(t *testing.T) {
	spec := baseSpec()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key("v1") != spec.Key("v1") {
		t.Fatal("JSON round-trip changed the key")
	}
}

// TestKeyCoversWorkloadHash checks the corpus content address is part
// of the job identity: distinct corpora can never alias, while a spec
// with no hash (generator-backed) keys exactly as specs did before the
// field existed — its canonical bytes must not mention the field at
// all, so old disk caches stay valid.
func TestKeyCoversWorkloadHash(t *testing.T) {
	plain := baseSpec()
	a, b := baseSpec(), baseSpec()
	a.WorkloadHash = strings.Repeat("a", 64)
	b.WorkloadHash = strings.Repeat("b", 64)
	if a.Key("v1") == plain.Key("v1") || b.Key("v1") == plain.Key("v1") {
		t.Fatal("workload hash not covered by the key")
	}
	if a.Key("v1") == b.Key("v1") {
		t.Fatal("different corpus hashes key identically")
	}
	// omitempty on the canonical struct: an empty hash must be absent
	// from the marshaled spec, the same shape the key hashes.
	bs, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(bs), "workload_hash") {
		t.Fatalf("empty workload hash leaked into canonical JSON: %s", bs)
	}
}

func TestValidateWorkloadHash(t *testing.T) {
	ok := baseSpec()
	ok.WorkloadHash = strings.Repeat("0123456789abcdef", 4)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid hash rejected: %v", err)
	}
	short := baseSpec()
	short.WorkloadHash = "abc123"
	if err := short.Validate(); err == nil || !strings.Contains(err.Error(), "workload_hash") {
		t.Fatalf("short hash: got %v", err)
	}
	upper := baseSpec()
	upper.WorkloadHash = strings.Repeat("A", 64)
	if err := upper.Validate(); err == nil || !strings.Contains(err.Error(), "hex") {
		t.Fatalf("non-hex hash: got %v", err)
	}
}

func TestValidateSpec(t *testing.T) {
	ok := baseSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	unknownWl := baseSpec()
	unknownWl.Workload = "no-such-benchmark"
	if err := unknownWl.Validate(); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unknown workload: got %v", err)
	}

	// The prefetcher miss must carry the registry's case-insensitive
	// suggestion — this exact message lands in HTTP 400 bodies.
	unknownPf := baseSpec()
	unknownPf.Prefetcher = "CBWS"
	err := unknownPf.Validate()
	want := `unknown prefetcher "CBWS" (did you mean "cbws"? valid: none, stride, ghb-pc/dc, ghb-g/dc, sms, cbws, cbws+sms, pythia, gaze)`
	if err == nil || err.Error() != want {
		t.Fatalf("prefetcher suggestion:\n got %v\nwant %s", err, want)
	}

	unbounded := baseSpec()
	unbounded.Config.MaxInstructions = 0
	unbounded.Config.WarmupInstructions = 0
	if err := unbounded.Validate(); err == nil || !strings.Contains(err.Error(), "MaxInstructions") {
		t.Fatalf("unbounded config: got %v", err)
	}
}
