// Package perfbench is the artifact envelope of the repository's JSON
// outputs: the schema-versioned header every artifact starts with, the
// experiment fragment that `smqbench -fragment` writes (per-cell
// records, Validate), and the log-bucketed Histogram behind the
// latency percentiles. It imports nothing but the standard library, so
// any package can carry its results in the envelope.
//
// The experiment fragment is the only artifact kind: the serve and
// desim experiments check each run inside its harness cell (serve's
// Stats.CheckLedger, desim.Run's event count, the exact-bound rule) and
// record it as a cell like any other. Throughput, contention and latency trajectories are
// measured by the repo benchmark (`bash bench/run.sh`, see
// BENCHMARK.json), not here.
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
	// Seed is the base seed of the run that wrote the artifact. Files
	// written before it was filled read 0; their config string carries
	// the seed.
	Seed uint64 `json:"seed"`
	// Host fingerprints the machine that produced the artifact.
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

// Report is the experiment artifact that `smqbench -fragment` writes:
// one complete fragment per experiment it ran, all measured by one
// process on one host.
type Report struct {
	Header
	// Experiments holds per-cell records of harness experiment grids.
	Experiments []ExperimentFragment `json:"experiments,omitempty"`
}

// Validate checks a report against the schema contract. Writers run it
// over the artifact they are about to emit, and `smqbench -assemble`
// (harness.Plan.AssembleFragment) over the bytes on disk, so a drifting
// writer fails the build.
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

// Marshal renders a report as indented JSON with a trailing newline.
func Marshal(r *Report) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
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
