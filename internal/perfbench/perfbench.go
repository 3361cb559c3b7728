// Package perfbench is the artifact envelope of the repository's JSON
// outputs: the schema-versioned header every artifact starts with, the
// experiment-fragment layer of the sharded harness pipeline (per-cell
// records, Merge, Validate), and the log-bucketed Histogram behind the
// latency percentiles. It imports nothing but the standard library, so
// any package can carry its results in the envelope.
//
// The sections that ride in the envelope are owned by the packages that
// fill them: internal/serve/bench.go and internal/desim/bench.go define
// their result structs and validators next to RunBench, and embed
// Header in their own report types. Throughput, contention and latency
// trajectories are measured by the repo benchmark (`bash bench/run.sh`,
// see BENCHMARK.json), not here.
package perfbench

import (
	"encoding/json"
	"fmt"
	"runtime"
)

// SchemaVersion identifies the artifact layout. Bump it when fields
// change meaning or disappear; Validate accepts exactly this version.
const SchemaVersion = 8

// Header is what every artifact starts with: which layout it follows,
// what produced it, and on which runtime and machine.
type Header struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedBy   string `json:"generated_by"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Seed          uint64 `json:"seed"`
	// Host fingerprints the machine that produced the artifact. Merged
	// reports clear it and list every contributing machine in
	// Report.Hosts instead.
	Host *HostInfo `json:"host,omitempty"`
}

// NewHeader stamps a header for an artifact produced by this process:
// current schema version, Go version, GOMAXPROCS and host fingerprint.
func NewHeader(generatedBy string) Header {
	return Header{
		SchemaVersion: SchemaVersion,
		GeneratedBy:   generatedBy,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Host:          CollectHost(),
	}
}

// Validate checks the header against the schema contract.
func (h *Header) Validate() error {
	if h.SchemaVersion != SchemaVersion {
		return fmt.Errorf("perfbench: schema_version = %d, want %d", h.SchemaVersion, SchemaVersion)
	}
	if h.GoVersion == "" || h.GeneratedBy == "" {
		return fmt.Errorf("perfbench: missing go_version / generated_by")
	}
	if h.GOMAXPROCS < 1 {
		return fmt.Errorf("perfbench: gomaxprocs = %d, want >= 1", h.GOMAXPROCS)
	}
	return nil
}

// Report is the experiment artifact: sharded experiment fragments
// produced by `smqbench -fragment` and combined by `benchcheck merge`.
type Report struct {
	Header
	// Hosts lists every machine that contributed to a merged report.
	Hosts []HostInfo `json:"hosts,omitempty"`
	// Experiments holds per-cell records of harness experiment grids.
	Experiments []ExperimentFragment `json:"experiments,omitempty"`
	// MergedFrom counts the fragments a merged report was built from
	// (0 for reports written directly by a shard).
	MergedFrom int `json:"merged_from,omitempty"`
}

// Validate checks a report against the schema contract. Writers run it
// over the artifact they are about to emit and cmd/benchcheck over the
// bytes on disk, so a drifting writer fails the build.
func Validate(r *Report) error {
	if r == nil {
		return fmt.Errorf("perfbench: nil report")
	}
	if err := r.Header.Validate(); err != nil {
		return err
	}
	if len(r.Experiments) == 0 {
		return fmt.Errorf("perfbench: no experiment fragments")
	}
	for i := range r.Experiments {
		if err := validateFragment(&r.Experiments[i]); err != nil {
			return err
		}
	}
	return nil
}

// Marshal renders an artifact (a Report, or a report type embedding
// Header) as indented JSON with a trailing newline.
func Marshal(report any) ([]byte, error) {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Parse is the inverse of Marshal for experiment artifacts.
func Parse(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	return &r, nil
}
