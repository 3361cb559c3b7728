package perfbench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
)

// This file is the artifact layer of the sharded experiment pipeline:
// shards of a harness experiment grid emit self-contained fragments —
// per-cell records plus enough metadata (experiment id, config
// fingerprint, total cell count, shard, host) to recombine them safely
// — and Merge folds any set of fragments into one validated report,
// independent of merge order.

// Cell statuses, recorded per cell by the runner layer.
const (
	// CellOK marks a cell that ran to completion.
	CellOK = "ok"
	// CellTimeout marks a cell abandoned (or killed, in subprocess
	// mode) after exceeding its wall-clock budget.
	CellTimeout = "timeout"
	// CellError marks a cell whose run function returned an error
	// (validation failure, unknown scheduler, ...).
	CellError = "error"
)

// HostInfo fingerprints the machine a fragment was measured on, so a
// merged multi-machine trajectory records where each shard ran.
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

// ShardInfo identifies which slice of the cell enumeration a fragment
// covers: cells with Index % Total == Index(shard) under the strided
// assignment, or an explicit cell list.
type ShardInfo struct {
	Index int `json:"index"`
	Total int `json:"total"`
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
	// identically whether run in-process, in a shard, or alone, because
	// the seed depends only on the base seed and the (deterministic)
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
	// message for the non-ok statuses. Attempts counts runs including
	// timeout retries.
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

// ExperimentFragment is one shard's slice of one experiment grid. A
// fragment is self-contained: Experiment + Config identify the
// enumeration, TotalCells pins its length, and Cells carry their own
// indices — so fragments from different machines merge without access
// to the plan that produced them.
type ExperimentFragment struct {
	// Experiment is the harness registry id (e.g. "fig1").
	Experiment string `json:"experiment"`
	// Config is the RunConfig fingerprint the enumeration was built
	// from; fragments with different fingerprints never merge.
	Config string `json:"config"`
	// TotalCells is the full enumeration length, so merge can tell a
	// complete grid from a still-partial one.
	TotalCells int `json:"total_cells"`
	// Shard identifies the slice (nil for full single-process runs and
	// for merged fragments).
	Shard *ShardInfo `json:"shard,omitempty"`
	// Host is the producing machine's hostname (the full fingerprint
	// lives in the report's host/hosts sections).
	Host  string       `json:"host,omitempty"`
	Cells []CellRecord `json:"cells"`
}

// Complete reports whether the fragment covers its whole enumeration.
func (f *ExperimentFragment) Complete() bool {
	return len(f.Cells) == f.TotalCells
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
	if len(f.Cells) == 0 {
		return fmt.Errorf("perfbench: fragment %s: no cells", f.Experiment)
	}
	if len(f.Cells) > f.TotalCells {
		return fmt.Errorf("perfbench: fragment %s: %d cells exceed total_cells %d",
			f.Experiment, len(f.Cells), f.TotalCells)
	}
	if f.Shard != nil && (f.Shard.Total < 1 || f.Shard.Index < 0 || f.Shard.Index >= f.Shard.Total) {
		return fmt.Errorf("perfbench: fragment %s: shard %d/%d out of range",
			f.Experiment, f.Shard.Index, f.Shard.Total)
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

// fragGroupKey groups fragments that describe slices of the same grid.
type fragGroupKey struct {
	experiment string
	config     string
}

// Merge combines fragment reports into one validated report. It is
// commutative: the output's canonical ordering (experiments by
// id+config, cells by index, hosts by hostname) makes Merge(A, B)
// byte-identical to Merge(B, A). Fragments of the same
// experiment+config must agree on TotalCells, must not overlap, and
// must jointly cover the whole enumeration (re-running a shard produces
// a replacement fragment, not a mergeable one).
func Merge(reports []*Report) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("perfbench: merge of zero reports")
	}
	for i, r := range reports {
		if err := Validate(r); err != nil {
			return nil, fmt.Errorf("perfbench: merge input %d: %w", i, err)
		}
	}

	out := &Report{Header: NewHeader("benchcheck merge"), MergedFrom: len(reports)}
	out.Host = nil // replaced by the Hosts union below

	// Experiment fragments: group by (experiment, config), union cells.
	groups := map[fragGroupKey]*ExperimentFragment{}
	var order []fragGroupKey
	for _, r := range reports {
		for fi := range r.Experiments {
			f := &r.Experiments[fi]
			k := fragGroupKey{f.Experiment, f.Config}
			g, ok := groups[k]
			if !ok {
				g = &ExperimentFragment{Experiment: f.Experiment, Config: f.Config, TotalCells: f.TotalCells}
				groups[k] = g
				order = append(order, k)
			}
			if g.TotalCells != f.TotalCells {
				return nil, fmt.Errorf("perfbench: merge: %s: fragments disagree on total_cells (%d vs %d)",
					f.Experiment, g.TotalCells, f.TotalCells)
			}
			g.Cells = append(g.Cells, f.Cells...)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].experiment != order[j].experiment {
			return order[i].experiment < order[j].experiment
		}
		return order[i].config < order[j].config
	})
	for _, k := range order {
		g := groups[k]
		sort.Slice(g.Cells, func(i, j int) bool { return g.Cells[i].Index < g.Cells[j].Index })
		seen := make(map[int]string, len(g.Cells))
		for _, c := range g.Cells {
			if prev, dup := seen[c.Index]; dup {
				return nil, fmt.Errorf("perfbench: merge: %s: cell %d present in multiple fragments (%s)",
					g.Experiment, c.Index, prev)
			}
			seen[c.Index] = c.Key
		}
		if !g.Complete() {
			var missing []int
			for i := 0; i < g.TotalCells && len(missing) < 8; i++ {
				if _, ok := seen[i]; !ok {
					missing = append(missing, i)
				}
			}
			return nil, fmt.Errorf("perfbench: merge: %s: %d of %d cells covered (missing %v...)",
				g.Experiment, len(g.Cells), g.TotalCells, missing)
		}
		out.Experiments = append(out.Experiments, *g)
	}

	// Host fingerprints: union of every input's host/hosts, deduplicated
	// and sorted.
	hostSeen := map[HostInfo]bool{}
	for _, r := range reports {
		hs := r.Hosts
		if r.Host != nil {
			hs = append([]HostInfo{*r.Host}, hs...)
		}
		for _, h := range hs {
			if !hostSeen[h] {
				hostSeen[h] = true
				out.Hosts = append(out.Hosts, h)
			}
		}
	}
	sort.Slice(out.Hosts, func(i, j int) bool {
		if out.Hosts[i].Hostname != out.Hosts[j].Hostname {
			return out.Hosts[i].Hostname < out.Hosts[j].Hostname
		}
		return out.Hosts[i].NumCPU < out.Hosts[j].NumCPU
	})

	if err := Validate(out); err != nil {
		return nil, fmt.Errorf("perfbench: merged report invalid: %w", err)
	}
	return out, nil
}
