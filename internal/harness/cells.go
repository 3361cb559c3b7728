package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/perfbench"
)

// This file is the experiment pipeline: every experiment declares a
// deterministic, enumerable list of cells — the independently runnable
// measurement units of its grid — instead of a closure that runs the
// whole grid monolithically. A Plan runs all of its cells in one
// process, packages the results as one complete perfbench fragment, and
// renders the tables from such a fragment. The enumeration is a pure
// function of the RunConfig, so the process that writes a fragment and
// the one that assembles it agree on every cell's index, key and
// derived seed.

// The cell identity, its outcome and the status values are defined once,
// JSON-tagged, in internal/perfbench — the fragment artifact stores
// exactly what the runner produces.
type (
	// Cell is one independently runnable unit of an experiment.
	Cell = perfbench.Cell
	// CellResult is the outcome of running one cell.
	CellResult = perfbench.CellRecord
)

// Cell statuses, recorded per cell by the runner layer.
const (
	CellOK      = perfbench.CellOK
	CellTimeout = perfbench.CellTimeout
	CellError   = perfbench.CellError
)

// CellSeed derives the deterministic per-cell seed from the
// experiment's base seed and the cell's enumeration index, via two
// rounds of the splitmix64 finalizer. Distinct indices yield
// well-separated streams for any base.
func CellSeed(base uint64, index int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // a zero seed means "default" to most scheduler configs
	}
	return z
}

// Plan is a fully enumerated experiment: the deterministic cell list,
// the per-cell run functions, and the assembly that turns a complete
// set of cell results back into the experiment's paper tables.
type Plan struct {
	// Experiment is the owning experiment's registry ID.
	Experiment string
	// Config is the normalized RunConfig the plan was built from.
	Config RunConfig
	// Cells is the enumeration, dense and in index order.
	Cells []Cell

	run      []func(Cell) (CellResult, error)
	assemble func([]CellResult) ([]Table, error)
	keys     map[string]int
}

// NewPlan starts an empty plan for the experiment. The config is
// normalized once here; cells are added with AddCell.
func NewPlan(experiment string, cfg RunConfig) *Plan {
	cfg.normalize()
	return &Plan{Experiment: experiment, Config: cfg, keys: map[string]int{}}
}

// AddCell appends a cell and its run function, assigning the index and
// derived seed, and returns the index (used by assembly closures to
// address the cell's result). Duplicate keys are a registry programming
// bug and panic.
func (p *Plan) AddCell(c Cell, run func(Cell) (CellResult, error)) int {
	if c.Key == "" {
		panic(fmt.Sprintf("harness: %s: cell with empty key", p.Experiment))
	}
	if prev, dup := p.keys[c.Key]; dup {
		panic(fmt.Sprintf("harness: %s: duplicate cell key %q (cells %d and %d)",
			p.Experiment, c.Key, prev, len(p.Cells)))
	}
	c.Index = len(p.Cells)
	c.Seed = CellSeed(p.Config.Seed, c.Index)
	if c.Reps == 0 {
		c.Reps = p.Config.Reps
	}
	p.keys[c.Key] = c.Index
	p.Cells = append(p.Cells, c)
	p.run = append(p.run, run)
	return c.Index
}

// SetAssemble installs the function that builds the experiment's
// tables from a complete, all-ok result set.
func (p *Plan) SetAssemble(f func([]CellResult) ([]Table, error)) {
	p.assemble = f
}

// RunCell executes cell i in this process and returns its result with
// Status, Error and ElapsedNs stamped. It never returns an error: a
// failing run function becomes a CellError result, so one bad cell
// cannot wedge a grid.
func (p *Plan) RunCell(i int) CellResult {
	c := p.Cells[i]
	start := time.Now()
	res, err := p.run[i](c)
	res.Cell = c
	res.ElapsedNs = time.Since(start).Nanoseconds()
	res.Attempts = 1
	if err != nil {
		res.Status = CellError
		res.Error = err.Error()
	} else {
		res.Status = CellOK
	}
	return res
}

// RunAll executes every cell sequentially in enumeration order, in this
// process. With timeout > 0 each cell runs on its own goroutine under
// that wall-clock budget. Go cannot stop a goroutine, so a cell that
// exceeds it is recorded as CellTimeout and left running, and no later
// cell is run: each would be measured beside the stray one, so each is
// recorded as a CellError instead. The caller should exit soon after,
// which ends the stray goroutine. An error cell does not stop the run.
func (p *Plan) RunAll(timeout time.Duration) []CellResult {
	out := make([]CellResult, 0, len(p.Cells))
	for i := range p.Cells {
		res := p.runTimed(i, timeout)
		out = append(out, res)
		if res.Status == CellTimeout {
			for _, c := range p.Cells[i+1:] {
				out = append(out, CellResult{Cell: c, Status: CellError,
					Error: fmt.Sprintf("not run: cell %d timed out and may still be running", i)})
			}
			break
		}
	}
	return out
}

// runTimed runs cell i, abandoning it to a CellTimeout result once the
// budget (if any) expires.
func (p *Plan) runTimed(i int, timeout time.Duration) CellResult {
	if timeout <= 0 {
		return p.RunCell(i)
	}
	done := make(chan CellResult, 1)
	start := time.Now()
	go func() { done <- p.RunCell(i) }()
	select {
	case res := <-done:
		return res
	case <-time.After(timeout):
		return CellResult{
			Cell:      p.Cells[i],
			Status:    CellTimeout,
			Error:     fmt.Sprintf("cell exceeded %v wall-clock budget", timeout),
			Attempts:  1,
			ElapsedNs: time.Since(start).Nanoseconds(),
		}
	}
}

// Assemble builds the experiment's tables from a complete result set.
// It requires one result per cell, in index order, all with status ok;
// anything else (a missing cell, a timeout) is reported as an error
// naming the offending cells.
func (p *Plan) Assemble(rs []CellResult) ([]Table, error) {
	if len(rs) != len(p.Cells) {
		return nil, fmt.Errorf("harness: %s: %d results for %d cells",
			p.Experiment, len(rs), len(p.Cells))
	}
	var bad []string
	for i := range rs {
		if rs[i].Index != i {
			return nil, fmt.Errorf("harness: %s: result %d carries index %d (results must be in cell order)",
				p.Experiment, i, rs[i].Index)
		}
		if rs[i].Status != CellOK {
			bad = append(bad, fmt.Sprintf("%s (%s: %s)", rs[i].Key, rs[i].Status, rs[i].Error))
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("harness: %s: %d of %d cells not ok: %s",
			p.Experiment, len(bad), len(p.Cells), strings.Join(bad, "; "))
	}
	if p.assemble == nil {
		return nil, fmt.Errorf("harness: %s: plan has no assembly", p.Experiment)
	}
	return p.assemble(rs)
}

// Fragment packages RunAll's results as a self-contained perfbench
// report carrying one experiment fragment.
func (p *Plan) Fragment(results []CellResult, generatedBy string) *perfbench.Report {
	h := perfbench.NewHeader(generatedBy)
	h.Seed = p.Config.Seed
	return &perfbench.Report{
		Header: h,
		Experiments: []perfbench.ExperimentFragment{{
			Experiment: p.Experiment,
			Config:     p.Config.Fingerprint(),
			TotalCells: len(p.Cells),
			Host:       h.Host.Hostname,
			Cells:      results,
		}},
	}
}

// AssembleFragment validates a fragment report and renders the
// experiment's tables from it, after checking that the fragment belongs
// to the plan: same experiment, same config fingerprint, same cell
// count, and every record's key matching the plan's enumeration. A
// binary whose enumeration drifted from the writer's fails here instead
// of rendering misattributed tables.
func (p *Plan) AssembleFragment(rep *perfbench.Report) ([]Table, error) {
	if err := perfbench.Validate(rep); err != nil {
		return nil, err
	}
	want := p.Config.Fingerprint()
	for _, frag := range rep.Experiments {
		if frag.Experiment != p.Experiment || frag.Config != want {
			continue
		}
		if frag.TotalCells != len(p.Cells) {
			return nil, fmt.Errorf("harness: %s: fragment has %d cells, plan enumerates %d",
				p.Experiment, frag.TotalCells, len(p.Cells))
		}
		// Validate guarantees one record per index in [0, TotalCells).
		rs := make([]CellResult, len(p.Cells))
		for _, rec := range frag.Cells {
			if rec.Key != p.Cells[rec.Index].Key {
				return nil, fmt.Errorf("harness: %s: cell %d key mismatch: fragment %q, plan %q (enumeration drift between binaries?)",
					p.Experiment, rec.Index, rec.Key, p.Cells[rec.Index].Key)
			}
			rs[rec.Index] = rec
		}
		return p.Assemble(rs)
	}
	return nil, fmt.Errorf("harness: report carries no fragment for %s with config %q", p.Experiment, want)
}

// Fingerprint canonically serializes the sweep-defining fields of a
// RunConfig. Fragments carry it so that assembly rejects results
// produced under a different configuration (which would disagree on the
// cell enumeration).
func (c RunConfig) Fingerprint() string {
	c.normalize()
	ths := make([]string, len(c.Threads))
	for i, t := range c.Threads {
		ths[i] = fmt.Sprint(t)
	}
	return fmt.Sprintf("scale=%d threads=%s maxthreads=%d reps=%d validate=%t seed=%d",
		c.Scale, strings.Join(ths, ","), c.MaxThreads, c.Reps, c.Validate, c.Seed)
}

// ---------------------------------------------------------------------------
// Cell constructors shared by the experiment plans

// measureKey builds the canonical key of a measurement-family cell.
func measureKey(kind, workload, scheduler, params string, threads int) string {
	return fmt.Sprintf("%s/%s/%s/%s/t%d", kind, workload, scheduler, params, threads)
}

// addMeasure appends a standard measurement cell: spec on workload at
// the given thread count, cfg.Reps repetitions, validated per
// cfg.Validate, scheduler seeded from the cell seed where the spec
// supports it. keyParams, when non-empty, overrides spec.Params in the
// cell identity (grid experiments key cells by their row/col labels).
func (p *Plan) addMeasure(w *Workload, spec SchedulerSpec, threads int, keyParams string) int {
	params := keyParams
	if params == "" {
		params = spec.Params
	}
	validate := p.Config.Validate
	return p.AddCell(Cell{
		Kind:      "measure",
		Key:       measureKey("measure", w.Name, spec.Name, params, threads),
		Workload:  w.Name,
		Scheduler: spec.Name,
		Params:    params,
		Threads:   threads,
	}, func(c Cell) (CellResult, error) {
		return MeasureSeeded(w, spec, c.Threads, c.Reps, validate, c.Seed)
	})
}

// addSeq appends a sequential-baseline cell for the workload. Its
// DurationNs/Tasks are the sequential reference the assembly divides
// by.
func (p *Plan) addSeq(w *Workload) int {
	return p.AddCell(Cell{
		Kind:     "seq",
		Key:      "seq/" + w.Name,
		Workload: w.Name,
		Threads:  1,
	}, func(Cell) (CellResult, error) {
		tasks, dur := w.SeqBaseline()
		return CellResult{DurationNs: dur.Nanoseconds(), Tasks: tasks}, nil
	})
}

// cellDur reads a result's metric duration.
func cellDur(r CellResult) time.Duration { return time.Duration(r.DurationNs) }

// ---------------------------------------------------------------------------
// Grid sections: the dominant experiment shape (a two-parameter
// scheduler grid per workload, normalized to the classic MQ baseline).

// gridSection holds the cell references of one two-parameter grid so
// its assembly can find them again.
type gridSection struct {
	title            string
	rowName, colName string
	rows, cols       []string
	threads          int
	workloads        []*Workload
	base             []int   // per workload: classic MQ baseline cell
	cells            [][]int // per workload: ri*len(cols)+ci -> cell
}

// addGridSection enumerates one grid into the plan — baseline cells
// for every workload first, then the row×col grid per workload — and
// returns the section for assembly. The enumeration order matches the
// legacy monolithic execution order, so in-process runs measure in the
// same sequence as before the decomposition.
func addGridSection(p *Plan, title, rowName string, rows []string, colName string, cols []string,
	ws []*Workload, mk func(ri, ci int) SchedulerSpec) *gridSection {
	g := &gridSection{
		title: title, rowName: rowName, colName: colName,
		rows: rows, cols: cols,
		threads: p.Config.MaxThreads, workloads: ws,
	}
	baseSpec := registered("mq")
	for _, w := range ws {
		g.base = append(g.base, p.addMeasure(w, baseSpec, g.threads, fmt.Sprintf("baseline(%s)", title)))
	}
	for _, w := range ws {
		refs := make([]int, 0, len(rows)*len(cols))
		for ri, rv := range rows {
			for ci, cv := range cols {
				spec := mk(ri, ci)
				key := fmt.Sprintf("%s=%s,%s=%s", rowName, rv, colName, cv)
				refs = append(refs, p.addMeasure(w, spec, g.threads, key))
			}
		}
		g.cells = append(g.cells, refs)
	}
	return g
}

// tables renders the section: one speedup/work-increase table per
// workload, cells normalized to the classic MQ baseline.
func (g *gridSection) tables(rs []CellResult) []Table {
	var out []Table
	for wi, w := range g.workloads {
		b := rs[g.base[wi]]
		t := Table{
			Title: fmt.Sprintf("%s — %s (cells: speedup/work-increase vs classic MQ, %d threads)",
				g.title, w.Name, g.threads),
			Header: append([]string{g.rowName + `\` + g.colName}, g.cols...),
		}
		for ri, rv := range g.rows {
			row := []string{rv}
			for ci := range g.cols {
				m := rs[g.cells[wi][ri*len(g.cols)+ci]]
				row = append(row, speedupCell(
					safeRatio(cellDur(b), cellDur(m)),
					safeDiv(float64(m.Tasks), float64(b.Tasks))))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}
