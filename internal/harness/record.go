package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cbws/internal/sim"
	"cbws/internal/stats"
)

// RunRecordSchemaVersion identifies the run-record JSON layout. Bump it
// on any incompatible change and keep ValidateRunRecord in sync.
const RunRecordSchemaVersion = 1

// RunRecord is the structured manifest of one simulation run: the exact
// configuration, the identity of the cell, provenance (Go version, wall
// time), the final metrics, and the delta-encoded sample series. One
// record is written per matrix cell when observability is enabled.
// CodeVersion and WorkloadHash complete the identity a result cache
// keys the record by (cbwsd's JobSpec.Key); they are empty outside one.
type RunRecord struct {
	Schema         int               `json:"schema"`
	Workload       string            `json:"workload"`
	Prefetcher     string            `json:"prefetcher"`
	CodeVersion    string            `json:"code_version,omitempty"`
	WorkloadHash   string            `json:"workload_hash,omitempty"`
	GoVersion      string            `json:"go_version"`
	WallTime       float64           `json:"wall_time_sec"`
	SampleInterval uint64            `json:"sample_interval"`
	Config         sim.Config        `json:"config"`
	Metrics        stats.Metrics     `json:"metrics"`
	Samples        []sim.SamplePoint `json:"samples"`
}

// NewRunRecord assembles the record for one completed run.
func NewRunRecord(cfg sim.Config, res sim.Result, interval uint64, samples []sim.SamplePoint, wall time.Duration) *RunRecord {
	return &RunRecord{
		Schema:         RunRecordSchemaVersion,
		Workload:       res.Workload,
		Prefetcher:     res.Prefetcher,
		GoVersion:      runtime.Version(),
		WallTime:       wall.Seconds(),
		SampleInterval: interval,
		Config:         cfg,
		Metrics:        res.Metrics,
		Samples:        samples,
	}
}

// Validate checks the record against the documented schema: version,
// identity, provenance, a positive sample interval, and a sample series
// whose interval counters sum to the final metrics.
func (r *RunRecord) Validate() error {
	if r.Schema != RunRecordSchemaVersion {
		return fmt.Errorf("run record: schema %d, want %d", r.Schema, RunRecordSchemaVersion)
	}
	if r.Workload == "" || r.Prefetcher == "" {
		return fmt.Errorf("run record: missing workload/prefetcher identity")
	}
	if r.GoVersion == "" {
		return fmt.Errorf("run record: missing go_version")
	}
	if r.WallTime < 0 {
		return fmt.Errorf("run record: negative wall_time_sec %g", r.WallTime)
	}
	if r.SampleInterval == 0 {
		return fmt.Errorf("run record: sample_interval must be positive")
	}
	if len(r.Samples) == 0 {
		return fmt.Errorf("run record: empty sample series")
	}
	last := r.Samples[len(r.Samples)-1]
	if !last.Final {
		return fmt.Errorf("run record: series does not end with the final sample")
	}
	var instr uint64
	prevAt := uint64(0)
	for i, p := range r.Samples {
		if p.Instructions < prevAt {
			return fmt.Errorf("run record: sample %d goes backwards (%d < %d)", i, p.Instructions, prevAt)
		}
		prevAt = p.Instructions
		instr += p.Interval.Instructions
	}
	if instr != r.Metrics.Instructions {
		return fmt.Errorf("run record: interval instructions sum to %d, final metrics report %d",
			instr, r.Metrics.Instructions)
	}
	return nil
}

// ReadRunRecord parses and validates a run-record JSON file.
func ReadRunRecord(path string) (*RunRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r RunRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("run record %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// CellFileName returns the directory-safe base name (no extension) of
// the record files for one workload × prefetcher cell. Scheme names may
// contain path separators ("ghb-pc/dc"), which are flattened.
func CellFileName(workloadName, prefetcherName string) string {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch r {
			case '/', '\\', ':', ' ':
				return '-'
			}
			return r
		}, s)
	}
	return clean(workloadName) + "__" + clean(prefetcherName)
}

// WriteJSON writes the record as indented JSON to path.
func (r *RunRecord) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteCSV writes the sample series as CSV to path: one row per sample
// with cumulative position, interval counters and derived interval
// rates (IPC/MPKI over the interval alone), plus the occupancies.
func (r *RunRecord) WriteCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{
		"instructions", "cycles",
		"interval_instructions", "interval_cycles",
		"interval_ipc", "interval_mpki", "interval_timely_frac",
		"interval_bytes_from_mem", "interval_prefetch_issued",
		"rob_occupancy", "l1_mshr_occupancy", "l2_mshr_occupancy", "final",
	}); err != nil {
		f.Close()
		return err
	}
	for _, p := range r.Samples {
		m := p.Interval
		if err := w.Write([]string{
			strconv.FormatUint(p.Instructions, 10),
			strconv.FormatUint(p.Cycles, 10),
			strconv.FormatUint(m.Instructions, 10),
			strconv.FormatUint(m.Cycles, 10),
			strconv.FormatFloat(m.IPC(), 'g', -1, 64),
			strconv.FormatFloat(m.MPKI(), 'g', -1, 64),
			strconv.FormatFloat(m.TimelyFrac(), 'g', -1, 64),
			strconv.FormatUint(m.BytesFromMem, 10),
			strconv.FormatUint(m.PrefetchIssued, 10),
			strconv.Itoa(p.ROBOccupancy),
			strconv.Itoa(p.L1MSHROccupancy),
			strconv.Itoa(p.L2MSHROccupancy),
			strconv.FormatBool(p.Final),
		}); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFiles writes the JSON manifest and CSV series into dir (created
// if missing) under the cell's sanitized name.
func (r *RunRecord) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, CellFileName(r.Workload, r.Prefetcher))
	if err := r.WriteJSON(base + ".json"); err != nil {
		return err
	}
	return r.WriteCSV(base + ".csv")
}
