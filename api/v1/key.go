package apiv1

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/workload"
)

// KeySchema versions the content-address layout. Bump it whenever the
// canonical key input changes shape, so old cache entries can never
// alias new ones.
const KeySchema = "cbws-job/1"

// JobSpec is the wire description of one simulation job: the workload
// and prefetcher by registry name plus the full system configuration.
// Submitted JSON may state config fields in any order and omit the ones
// it keeps at the Table II defaults; the spec is decoded into this
// struct before hashing, so the content address depends only on the
// effective values.
type JobSpec struct {
	Workload   string     `json:"workload"`
	Prefetcher string     `json:"prefetcher"`
	Config     sim.Config `json:"config"`
	// WorkloadHash is the content address (hex SHA-256) of the packed
	// CBWC corpus backing the workload, when the daemon replays it from
	// a corpus instead of a live generator. It folds the exact trace
	// bytes into the job key: two daemons pointed at byte-identical
	// corpora share cached results, and a corpus change can never serve
	// a stale result. Empty for generator-backed workloads, and omitted
	// from the canonical key bytes then — so generator-backed job keys
	// are unchanged from before the field existed.
	WorkloadHash string `json:"workload_hash,omitempty"`
}

// Key computes the content address of the job under the given code
// version: SHA-256 over the fixed-field-order JSON of (schema, code
// version, workload, prefetcher, config). Two submissions with equal
// effective values get the same key regardless of JSON field ordering;
// any config field change, roster change, or code change produces a
// different key.
func (s JobSpec) Key(codeVersion string) string {
	canonical := struct {
		Schema       string     `json:"schema"`
		CodeVersion  string     `json:"code_version"`
		Workload     string     `json:"workload"`
		Prefetcher   string     `json:"prefetcher"`
		Config       sim.Config `json:"config"`
		WorkloadHash string     `json:"workload_hash,omitempty"`
	}{KeySchema, codeVersion, s.Workload, s.Prefetcher, s.Config, s.WorkloadHash}
	b, err := json.Marshal(canonical)
	if err != nil {
		// Every field is a string or a plain struct of scalars; this
		// cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Validate checks that the spec names a registered workload and
// prefetcher and carries a runnable, bounded configuration. The
// prefetcher miss diagnostic includes the registry's case-insensitive
// "did you mean" suggestion verbatim — it is served to remote callers
// in HTTP 400 bodies.
func (s JobSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("missing workload name")
	}
	if _, ok := workload.ByName(s.Workload); !ok {
		return fmt.Errorf("unknown workload %q (see /v1/workloads for the roster)", s.Workload)
	}
	if _, err := registry.Resolve(s.Prefetcher); err != nil {
		return err
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if s.Config.MaxInstructions == 0 {
		return fmt.Errorf("config.MaxInstructions must be positive: the service does not run unbounded jobs")
	}
	if s.WorkloadHash != "" {
		if len(s.WorkloadHash) != 64 {
			return fmt.Errorf("workload_hash must be a hex SHA-256 (64 characters), got %d", len(s.WorkloadHash))
		}
		for _, c := range s.WorkloadHash {
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				return fmt.Errorf("workload_hash must be lowercase hex")
			}
		}
	}
	return nil
}
