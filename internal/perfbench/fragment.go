package perfbench

import (
	"fmt"
	"os"
	"runtime"
)

// This file is the artifact layer of the experiment pipeline: one run
// of a harness experiment grid emits a self-contained fragment —
// per-cell records plus enough metadata (experiment id, config
// fingerprint, total cell count, host) to check, when its tables are
// assembled, that it belongs to the grid the assembling binary
// enumerates.

// Cell statuses, recorded per cell by the runner layer.
const (
	// CellOK marks a cell that ran to completion.
	CellOK = "ok"
	// CellTimeout marks a cell abandoned after exceeding its wall-clock
	// budget.
	CellTimeout = "timeout"
	// CellError marks a cell whose run function returned an error
	// (validation failure, unknown scheduler, ...).
	CellError = "error"
)

// HostInfo fingerprints the machine a fragment was measured on.
type HostInfo struct {
	Hostname string `json:"hostname"`
	OS       string `json:"os"`
	Arch     string `json:"arch"`
	NumCPU   int    `json:"num_cpu"`
	GoVer    string `json:"go_version,omitempty"`
}

// CollectHost fingerprints the current machine.
func CollectHost() *HostInfo {
	hn, _ := os.Hostname()
	if hn == "" {
		hn = "unknown"
	}
	return &HostInfo{
		Hostname: hn,
		OS:       runtime.GOOS,
		Arch:     runtime.GOARCH,
		NumCPU:   runtime.NumCPU(),
		GoVer:    runtime.Version(),
	}
}

// Cell is one independently runnable unit of an experiment: a
// scheduler spec on a workload at a thread count (or one simulation /
// probe / baseline run), plus the derived per-cell seed. Cells are
// enumeration metadata only — all fields are deterministic given the
// run configuration, and running one requires the harness plan that
// declared it.
type Cell struct {
	// Index is the cell's position in the experiment's enumeration
	// order (0-based, dense).
	Index int `json:"index"`
	// Key is a stable human-readable identifier, unique within the
	// experiment: kind/workload/scheduler/params/threads.
	Key string `json:"key"`
	// Kind classifies the cell: "measure" (scheduler on workload),
	// "seq" (sequential baseline), "sim" (rank-model simulation),
	// "probe" (empirical rank probe), "serve" (open-loop service run),
	// "graphstat" (input inventory).
	Kind string `json:"kind"`
	// Workload / Scheduler / Params / Threads describe measurement
	// cells; non-measurement kinds fill what applies.
	Workload  string `json:"workload,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	Params    string `json:"params,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	// Reps is how many repetitions the cell runs internally (fastest
	// kept).
	Reps int `json:"reps,omitempty"`
	// Seed is the cell's derived RNG seed. A cell reproduces
	// identically whether run within its grid or alone, because the
	// seed depends only on the base seed and the (deterministic)
	// enumeration index.
	Seed uint64 `json:"seed"`
}

// CellRecord is the outcome of running one cell, in memory and inside
// a fragment: the cell identity plus the runner's status and
// measurements. Experiment-specific outputs (simulation statistics,
// serve metrics, graph stats) travel in Values.
type CellRecord struct {
	Cell

	// Status is CellOK, CellTimeout or CellError; Error carries the
	// message for the non-ok statuses. Attempts is 1 for every cell
	// that ran and 0 for one that was not run.
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`

	// DurationNs is the cell's metric duration (best rep), ElapsedNs
	// its total wall clock including validation and baselines — the
	// timing fields excluded from reproducibility comparisons.
	DurationNs int64   `json:"duration_ns,omitempty"`
	ElapsedNs  int64   `json:"elapsed_ns,omitempty"`
	Tasks      uint64  `json:"tasks,omitempty"`
	Wasted     uint64  `json:"wasted,omitempty"`
	Remote     float64 `json:"remote,omitempty"`
	// Values carries experiment-specific scalars keyed by short names
	// (e.g. "meanrank", "p99ns").
	Values map[string]float64 `json:"values,omitempty"`
}

// ExperimentFragment is one complete run of one experiment grid. A
// fragment is self-contained: Experiment + Config identify the
// enumeration, TotalCells pins its length, and Cells carry their own
// indices.
type ExperimentFragment struct {
	// Experiment is the harness registry id (e.g. "fig1").
	Experiment string `json:"experiment"`
	// Config is the RunConfig fingerprint the enumeration was built
	// from; a plan built from another config refuses the fragment.
	Config string `json:"config"`
	// TotalCells is the full enumeration length; a valid fragment
	// carries exactly that many cells.
	TotalCells int `json:"total_cells"`
	// Host is the producing machine's hostname (the full fingerprint
	// lives in the report's host section).
	Host  string       `json:"host,omitempty"`
	Cells []CellRecord `json:"cells"`
}

func validateFragment(f *ExperimentFragment) error {
	if f.Experiment == "" {
		return fmt.Errorf("perfbench: fragment with empty experiment id")
	}
	if f.Config == "" {
		return fmt.Errorf("perfbench: fragment %s: empty config fingerprint", f.Experiment)
	}
	if f.TotalCells <= 0 {
		return fmt.Errorf("perfbench: fragment %s: total_cells = %d", f.Experiment, f.TotalCells)
	}
	if len(f.Cells) != f.TotalCells {
		return fmt.Errorf("perfbench: fragment %s: has %d cells, total_cells %d",
			f.Experiment, len(f.Cells), f.TotalCells)
	}
	seen := make(map[int]bool, len(f.Cells))
	for _, c := range f.Cells {
		if c.Index < 0 || c.Index >= f.TotalCells {
			return fmt.Errorf("perfbench: fragment %s: cell index %d outside [0, %d)",
				f.Experiment, c.Index, f.TotalCells)
		}
		if seen[c.Index] {
			return fmt.Errorf("perfbench: fragment %s: duplicate cell index %d", f.Experiment, c.Index)
		}
		seen[c.Index] = true
		if c.Key == "" {
			return fmt.Errorf("perfbench: fragment %s: cell %d with empty key", f.Experiment, c.Index)
		}
		switch c.Status {
		case CellOK, CellTimeout, CellError:
		default:
			return fmt.Errorf("perfbench: fragment %s: cell %d (%s): unknown status %q",
				f.Experiment, c.Index, c.Key, c.Status)
		}
		if c.Status != CellOK && c.Error == "" {
			return fmt.Errorf("perfbench: fragment %s: cell %d (%s): status %s without error message",
				f.Experiment, c.Index, c.Key, c.Status)
		}
	}
	return nil
}
