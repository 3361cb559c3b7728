package harness

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/klsm"
	"repro/internal/mq"
	"repro/internal/obim"
	"repro/internal/ranksim"
	"repro/internal/zoo"
)

// RunConfig controls an experiment run's scale and sweep dimensions.
// It fully determines the cell enumeration (see Experiment.Cells):
// two processes with equal configs agree on every cell.
type RunConfig struct {
	// Scale multiplies graph sizes (1 = laptop-small; the paper's inputs
	// are far larger — table1 lists the substitutes).
	Scale int
	// Threads is the thread sweep for comparison experiments.
	Threads []int
	// MaxThreads is the fixed thread count for ablation grids (the paper
	// runs those at the machine's maximum).
	MaxThreads int
	// Reps repeats every measurement, keeping the fastest run.
	Reps int
	// Validate checks every run's output against sequential baselines.
	Validate bool
	// Seed is the base RNG seed; each cell derives its own as
	// CellSeed(Seed, index), so a cell reproduces identically whether
	// run within its grid or alone. 0 means 1.
	Seed uint64
}

func (c *RunConfig) normalize() {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4}
	}
	if c.MaxThreads < 1 {
		c.MaxThreads = c.Threads[len(c.Threads)-1]
	}
	if c.Reps < 1 {
		c.Reps = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Experiment regenerates one paper artifact. Internally it is a plan
// builder: Plan enumerates the deterministic cell list and the
// assembly, and Run executes and assembles it in-process.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper this regenerates
	Desc  string

	plan func(cfg RunConfig) (*Plan, error)
}

// Plan enumerates the experiment's cells and assembly for the config.
func (e Experiment) Plan(cfg RunConfig) (*Plan, error) {
	if e.plan == nil {
		return nil, fmt.Errorf("harness: experiment %q has no plan", e.ID)
	}
	return e.plan(cfg)
}

// Registry lists every experiment, in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "table1", Paper: "Table 1", Desc: "input graph inventory (substituted generators)", plan: planTable1},
		{ID: "table2", Paper: "Tables 2-3", Desc: "classic Multi-Queue speedup for C in 2..8", plan: planTable2},
		{ID: "fig1", Paper: "Figure 1 (+ Figs 17-18, Tables 12-13)", Desc: "SMQ-heap psteal × steal-size ablation", plan: planFig1Heap},
		{ID: "fig19", Paper: "Figures 19-20, Tables 14-15", Desc: "SMQ-skiplist psteal × steal-size ablation", plan: planFig19Skip},
		{ID: "fig2", Paper: "Figure 2 (+ Figs 21-22)", Desc: "main scheduler comparison across 12 benchmarks", plan: planFig2},
		{ID: "fig3", Paper: "Figures 3-6", Desc: "OBIM and PMOD delta × chunk tuning", plan: planFig3},
		{ID: "fig7", Paper: "Figures 7-8, Tables 4-5", Desc: "MQ insert=TL × delete=TL grid", plan: planFig7},
		{ID: "fig9", Paper: "Figures 9-10, Tables 6-7", Desc: "MQ insert=TL × delete=batch grid", plan: planFig9},
		{ID: "fig11", Paper: "Figures 11-12, Tables 8-9", Desc: "MQ insert=batch × delete=TL grid", plan: planFig11},
		{ID: "fig13", Paper: "Figures 13-14, Tables 10-11", Desc: "MQ insert=batch × delete=batch grid", plan: planFig13},
		{ID: "fig15", Paper: "Figures 15-16", Desc: "best MQ optimization combinations side by side", plan: planFig15},
		{ID: "emq", Paper: "Williams et al. 2021 (follow-up baseline)", Desc: "engineered MultiQueue stickiness × buffer-size ablation", plan: planEMQ},
		{ID: "klsm", Paper: "Wimmer et al. 2015 (k-LSM baseline)", Desc: "k-LSM relaxation ablation (local-LSM bound k sweep)", plan: planKLSM},
		{ID: "geom", Paper: "Rihani et al. 2014 (scenario extension)", Desc: "k-NN graph + Euclidean MST over point sets, schedulers × distributions", plan: planGeom},
		{ID: "numa", Paper: "Tables 16-27", Desc: "NUMA weight K sweep for MQ and SMQ variants", plan: planNUMA},
		{ID: "serve", Paper: "extension (open-loop serving)", Desc: "offered-load × scheduler grid through the streaming service front-end", plan: planServe},
		{ID: "desim", Paper: "extension (conservative PDES over rank bounds)", Desc: "scheduler × simulation-model grid with safe-lookahead causality accounting", plan: planDesim},
		{ID: "theory", Paper: "Theorem 1 (§3)", Desc: "rank bounds of the SMQ process vs the (1+β) coupling", plan: planTheory},
		{ID: "rankprobe", Paper: "§5 (wasted-work mechanism)", Desc: "empirical rank relaxation of every scheduler implementation", plan: planRankProbe},
	}
}

// Find locates an experiment by id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Shared helpers

// fm formats a float compactly.
func fm(v float64) string { return fmt.Sprintf("%.2f", v) }

// speedupCell renders "speedup/workIncrease", the format of the paper's
// ablation heatmaps.
func speedupCell(speedup, work float64) string {
	return fmt.Sprintf("%.2f/%.2f", speedup, work)
}

func safeRatio(base, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(base) / float64(d)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addClassicBaselines appends one classic-MQ (C=4) baseline cell per
// workload at the given thread count — the ablation experiments'
// reference point — returning one cell ref per workload.
func addClassicBaselines(p *Plan, ws []*Workload, threads int) []int {
	spec := registered("mq")
	refs := make([]int, len(ws))
	for i, w := range ws {
		refs[i] = p.addMeasure(w, spec, threads, "")
	}
	return refs
}

// ---------------------------------------------------------------------------
// table1

func planTable1(cfg RunConfig) (*Plan, error) {
	p := NewPlan("table1", cfg)
	gs := graph.StandardInputs(p.Config.Scale)
	desc := map[string]string{
		"USA":     "road grid standing in for full USA roads",
		"WEST":    "road grid standing in for western USA roads",
		"TWITTER": "RMAT power-law graph standing in for Twitter follows",
		"WEB":     "RMAT power-law graph standing in for the .sk web crawl",
	}
	names := []string{"USA", "WEST", "TWITTER", "WEB"}
	refs := make([]int, len(names))
	for i, name := range names {
		g := gs[name]
		refs[i] = p.AddCell(Cell{
			Kind:     "graphstat",
			Key:      "graphstat/" + name,
			Workload: name,
		}, func(c Cell) (CellResult, error) {
			s := g.Stat(c.Workload)
			coords := 0.0
			if s.HasCoords {
				coords = 1
			}
			return CellResult{Values: map[string]float64{
				"n": float64(s.N), "m": float64(s.M),
				"maxdeg": float64(s.MaxDeg), "avgdeg": s.AvgDeg,
				"coords": coords,
			}}, nil
		})
	}
	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		t := Table{
			Title:  "Table 1 — input graphs (synthetic substitutes; see internal/graph)",
			Header: []string{"Graph", "|V|", "|E|", "MaxDeg", "AvgDeg", "Coords", "Description"},
		}
		for i, name := range names {
			v := rs[refs[i]].Values
			t.AddRow(name,
				strconv.Itoa(int(v["n"])), strconv.Itoa(int(v["m"])),
				strconv.Itoa(int(v["maxdeg"])), fm(v["avgdeg"]),
				strconv.FormatBool(v["coords"] != 0), desc[name])
		}
		return []Table{t}, nil
	})
	return p, nil
}

// ---------------------------------------------------------------------------
// table2: classic MQ with C in 2..8

func planTable2(cfg RunConfig) (*Plan, error) {
	p := NewPlan("table2", cfg)
	ws := StandardWorkloads(p.Config.Scale)
	type row struct {
		seq   int
		cells []int
	}
	rows := make([]row, len(ws))
	for i, w := range ws {
		rows[i].seq = p.addSeq(w)
		for c := 2; c <= 8; c++ {
			spec := zoo.MQ[uint32]("mq", mq.Classic(0, c))
			rows[i].cells = append(rows[i].cells, p.addMeasure(w, spec, p.Config.MaxThreads, ""))
		}
	}
	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		t := Table{
			Title:  fmt.Sprintf("Tables 2-3 — classic Multi-Queue speedup vs sequential baseline (%d threads)", p.Config.MaxThreads),
			Header: []string{"Benchmark", "C=2", "C=3", "C=4", "C=5", "C=6", "C=7", "C=8"},
		}
		for i, w := range ws {
			seqDur := cellDur(rs[rows[i].seq])
			out := []string{w.Name}
			for _, ref := range rows[i].cells {
				out = append(out, fm(safeRatio(seqDur, cellDur(rs[ref]))))
			}
			t.AddRow(out...)
		}
		return []Table{t}, nil
	})
	return p, nil
}

// ---------------------------------------------------------------------------
// fig1 / fig19: SMQ ablations

var ablationStealProbs = []struct {
	label string
	p     float64
}{
	{"1/2", 0.5}, {"1/4", 0.25}, {"1/8", 0.125}, {"1/16", 0.0625}, {"1/32", 0.03125}, {"1/64", 0.015625},
}

var ablationStealSizes = []int{1, 2, 4, 8, 16, 64}

func ablationLabels() (rows, cols []string) {
	rows = make([]string, len(ablationStealProbs))
	for i, sp := range ablationStealProbs {
		rows[i] = sp.label
	}
	cols = make([]string, len(ablationStealSizes))
	for i, sz := range ablationStealSizes {
		cols[i] = fmt.Sprint(sz)
	}
	return rows, cols
}

// planOneGrid wraps the dominant single-grid experiment shape.
func planOneGrid(id, title, rowName string, rows []string, colName string, cols []string,
	cfg RunConfig, mk func(ri, ci int) SchedulerSpec) (*Plan, error) {
	p := NewPlan(id, cfg)
	ws := QuickWorkloads(p.Config.Scale)
	g := addGridSection(p, title, rowName, rows, colName, cols, ws, mk)
	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		return g.tables(rs), nil
	})
	return p, nil
}

func planFig1Heap(cfg RunConfig) (*Plan, error) {
	rows, cols := ablationLabels()
	return planOneGrid("fig1", "Figure 1 — SMQ (d-ary heaps)", "psteal", rows, "stealSize", cols, cfg,
		func(ri, ci int) SchedulerSpec {
			return zoo.SMQ[uint32]("smq", core.Config{
				StealSize: ablationStealSizes[ci], StealProb: ablationStealProbs[ri].p})
		})
}

func planFig19Skip(cfg RunConfig) (*Plan, error) {
	rows, cols := ablationLabels()
	return planOneGrid("fig19", "Figures 19-20 — SMQ (skip lists)", "psteal", rows, "stealSize", cols, cfg,
		func(ri, ci int) SchedulerSpec {
			return zoo.SMQSkip[uint32]("smq-skip", core.Config{
				StealSize: ablationStealSizes[ci], StealProb: ablationStealProbs[ri].p})
		})
}

// ---------------------------------------------------------------------------
// fig2: the main comparison

func planFig2(cfg RunConfig) (*Plan, error) {
	p := NewPlan("fig2", cfg)
	ws := StandardWorkloads(p.Config.Scale)
	specs := StandardSchedulers()
	baseSpec := registered("mq")

	type panel struct {
		seq, base int
		cells     []int // specs-major, threads-minor
	}
	panels := make([]panel, len(ws))
	for i, w := range ws {
		panels[i].seq = p.addSeq(w)
		// Paper baseline: classic Multi-Queue on one thread.
		panels[i].base = p.addMeasure(w, baseSpec, 1, "baseline(fig2)")
		for _, spec := range specs {
			for _, th := range p.Config.Threads {
				panels[i].cells = append(panels[i].cells, p.addMeasure(w, spec, th, ""))
			}
		}
	}
	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		var tables []Table
		for i, w := range ws {
			seqTasks := rs[panels[i].seq].Tasks
			base := rs[panels[i].base]
			t := Table{
				Title:  fmt.Sprintf("Figure 2 — %s (speedup vs classic MQ on 1 thread; work vs sequential)", w.Name),
				Header: []string{"Scheduler", "Threads", "Time", "Speedup", "WorkIncrease", "RemoteFrac"},
			}
			for _, ref := range panels[i].cells {
				m := rs[ref]
				t.AddRow(m.Scheduler, fmt.Sprint(m.Threads),
					cellDur(m).Round(time.Microsecond).String(),
					fm(safeRatio(cellDur(base), cellDur(m))),
					fm(safeDiv(float64(m.Tasks), float64(seqTasks))),
					fm(m.Remote))
			}
			tables = append(tables, t)
		}
		return tables, nil
	})
	return p, nil
}

// ---------------------------------------------------------------------------
// fig3: OBIM / PMOD tuning

func planFig3(cfg RunConfig) (*Plan, error) {
	deltas := []uint32{2, 4, 8, 12, 16}
	chunks := []int{1, 8, 32, 64, 256}
	rows := make([]string, len(deltas))
	for i, d := range deltas {
		rows[i] = fmt.Sprint(d)
	}
	cols := make([]string, len(chunks))
	for i, c := range chunks {
		cols[i] = fmt.Sprint(c)
	}
	p := NewPlan("fig3", cfg)
	ws := QuickWorkloads(p.Config.Scale)
	obimSec := addGridSection(p, "Figures 3/5 — OBIM tuning", "delta", rows, "chunk", cols, ws,
		func(ri, ci int) SchedulerSpec {
			return zoo.OBIM[uint32]("obim", obim.Config{Delta: deltas[ri], ChunkSize: chunks[ci]})
		})
	pmodSec := addGridSection(p, "Figures 4/6 — PMOD tuning", "delta", rows, "chunk", cols, ws,
		func(ri, ci int) SchedulerSpec {
			return zoo.OBIM[uint32]("pmod", obim.Config{Delta: deltas[ri], ChunkSize: chunks[ci], Adaptive: true})
		})
	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		return append(obimSec.tables(rs), pmodSec.tables(rs)...), nil
	})
	return p, nil
}

// ---------------------------------------------------------------------------
// fig7..fig13: classic MQ optimization grids

var tlProbs = []struct {
	label string
	p     float64
}{
	{"1/1", 1}, {"1/4", 0.25}, {"1/16", 0.0625}, {"1/64", 0.015625}, {"1/256", 1.0 / 256}, {"1/1024", 1.0 / 1024},
}

var batchSizes = []int{2, 8, 32, 128, 512}

func tlLabels() []string {
	out := make([]string, len(tlProbs))
	for i, t := range tlProbs {
		out[i] = t.label
	}
	return out
}

func batchLabels() []string {
	out := make([]string, len(batchSizes))
	for i, b := range batchSizes {
		out[i] = fmt.Sprint(b)
	}
	return out
}

func planFig7(cfg RunConfig) (*Plan, error) {
	return planOneGrid("fig7", "Figures 7-8 — MQ insert=TL, delete=TL", "pinsert", tlLabels(), "pdelete", tlLabels(), cfg,
		func(ri, ci int) SchedulerSpec {
			return zoo.MQ[uint32]("mq", mq.Config{C: 4,
				Insert: mq.InsertTemporalLocality, PInsertChange: tlProbs[ri].p,
				Delete: mq.DeleteTemporalLocality, PDeleteChange: tlProbs[ci].p})
		})
}

func planFig9(cfg RunConfig) (*Plan, error) {
	return planOneGrid("fig9", "Figures 9-10 — MQ insert=TL, delete=batch", "pinsert", tlLabels(), "batchDelete", batchLabels(), cfg, fig9Spec)
}

func fig9Spec(ri, ci int) SchedulerSpec {
	return zoo.MQ[uint32]("mq", mq.Config{C: 4,
		Insert: mq.InsertTemporalLocality, PInsertChange: tlProbs[ri].p,
		Delete: mq.DeleteBatch, BatchDelete: batchSizes[ci]})
}

func planFig11(cfg RunConfig) (*Plan, error) {
	return planOneGrid("fig11", "Figures 11-12 — MQ insert=batch, delete=TL", "batchInsert", batchLabels(), "pdelete", tlLabels(), cfg,
		func(ri, ci int) SchedulerSpec {
			return zoo.MQ[uint32]("mq", mq.Config{C: 4,
				Insert: mq.InsertBatch, BatchInsert: batchSizes[ri],
				Delete: mq.DeleteTemporalLocality, PDeleteChange: tlProbs[ci].p})
		})
}

func planFig13(cfg RunConfig) (*Plan, error) {
	return planOneGrid("fig13", "Figures 13-14 — MQ insert=batch, delete=batch", "batchInsert", batchLabels(), "batchDelete", batchLabels(), cfg,
		func(ri, ci int) SchedulerSpec {
			return zoo.MQ[uint32]("mq", mq.Config{C: 4,
				Insert: mq.InsertBatch, BatchInsert: batchSizes[ri],
				Delete: mq.DeleteBatch, BatchDelete: batchSizes[ci]})
		})
}

// planFig15 compares a representative good configuration of each MQ
// optimization combination (the paper compares each combo's best).
func planFig15(cfg RunConfig) (*Plan, error) {
	p := NewPlan("fig15", cfg)
	ws := QuickWorkloads(p.Config.Scale)
	base := addClassicBaselines(p, ws, p.Config.MaxThreads)
	comboNames := []string{"TL/TL", "TL/B", "B/TL", "B/B"}
	combos := []SchedulerSpec{
		zoo.MQ[uint32]("TL/TL", mq.Config{C: 4, Insert: mq.InsertTemporalLocality, PInsertChange: 1.0 / 64,
			Delete: mq.DeleteTemporalLocality, PDeleteChange: 1.0 / 64}),
		zoo.MQ[uint32]("TL/B", mq.Config{C: 4, Insert: mq.InsertTemporalLocality, PInsertChange: 1.0 / 64,
			Delete: mq.DeleteBatch, BatchDelete: 8}),
		zoo.MQ[uint32]("B/TL", mq.Config{C: 4, Insert: mq.InsertBatch, BatchInsert: 8,
			Delete: mq.DeleteTemporalLocality, PDeleteChange: 1.0 / 64}),
		zoo.MQ[uint32]("B/B", mq.Config{C: 4, Insert: mq.InsertBatch, BatchInsert: 8,
			Delete: mq.DeleteBatch, BatchDelete: 8}),
	}
	cells := make([][]int, len(ws))
	for i, w := range ws {
		for _, spec := range combos {
			cells[i] = append(cells[i], p.addMeasure(w, spec, p.Config.MaxThreads, "combo="+spec.Name))
		}
	}
	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		t := Table{
			Title:  fmt.Sprintf("Figures 15-16 — MQ optimization combos (speedup/work vs classic MQ, %d threads)", p.Config.MaxThreads),
			Header: append([]string{"Benchmark"}, comboNames...),
		}
		for i, w := range ws {
			b := rs[base[i]]
			row := []string{w.Name}
			for _, ref := range cells[i] {
				m := rs[ref]
				row = append(row, speedupCell(safeRatio(cellDur(b), cellDur(m)),
					safeDiv(float64(m.Tasks), float64(b.Tasks))))
			}
			t.AddRow(row...)
		}
		return []Table{t}, nil
	})
	return p, nil
}

// ---------------------------------------------------------------------------
// emq: engineered MultiQueue ablation (Williams et al. 2021)

// emqStickiness and emqBuffers span the two engineering knobs of the
// engineered MultiQueue. Stickiness 1 with buffer 1 degenerates to the
// classic per-operation Multi-Queue discipline, so the grid's corner
// doubles as a sanity anchor against the classic-MQ baseline.
var (
	emqStickiness = []int{1, 4, 16, 64}
	emqBuffers    = []int{1, 4, 16, 64}
)

func planEMQ(cfg RunConfig) (*Plan, error) {
	rows := make([]string, len(emqStickiness))
	for i, s := range emqStickiness {
		rows[i] = fmt.Sprint(s)
	}
	cols := make([]string, len(emqBuffers))
	for i, b := range emqBuffers {
		cols[i] = fmt.Sprint(b)
	}
	return planOneGrid("emq", "Engineered MultiQueue — Williams et al. 2021", "stickiness", rows, "buffer", cols, cfg,
		func(ri, ci int) SchedulerSpec {
			cfg := mq.Engineered(0)
			cfg.Stickiness, cfg.BatchInsert, cfg.BatchDelete = emqStickiness[ri], emqBuffers[ci], emqBuffers[ci]
			return zoo.MQ[uint32]("emq", cfg)
		})
}

// ---------------------------------------------------------------------------
// klsm: k-LSM relaxation ablation (Wimmer et al. 2015)

// klsmRelaxations is the relaxation sweep of the klsm experiment: the
// local-LSM capacity k spans strict-ish (4) to strongly relaxed (4096),
// bracketing the k-LSM paper's headline k = 256.
var klsmRelaxations = []int{4, 64, 256, 1024, 4096}

// planKLSM measures the k-LSM across its relaxation sweep on the quick
// workload set, one row per workload, cells speedup/work-increase
// against the classic MQ baseline — the same normalization as the other
// ablation grids, so the k-LSM columns are directly comparable to the
// emq and fig1 tables.
func planKLSM(cfg RunConfig) (*Plan, error) {
	p := NewPlan("klsm", cfg)
	ws := QuickWorkloads(p.Config.Scale)
	base := addClassicBaselines(p, ws, p.Config.MaxThreads)
	cells := make([][]int, len(ws))
	for i, w := range ws {
		for _, k := range klsmRelaxations {
			spec := zoo.KLSM[uint32]("klsm", klsm.Config{Relaxation: k})
			cells[i] = append(cells[i], p.addMeasure(w, spec, p.Config.MaxThreads, ""))
		}
	}
	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		header := []string{"Benchmark"}
		for _, k := range klsmRelaxations {
			header = append(header, fmt.Sprintf("k=%d", k))
		}
		t := Table{
			Title: fmt.Sprintf("k-LSM (Wimmer et al. 2015) — relaxation sweep (cells: speedup/work-increase vs classic MQ, %d threads)",
				p.Config.MaxThreads),
			Header: header,
		}
		for i, w := range ws {
			b := rs[base[i]]
			row := []string{w.Name}
			for _, ref := range cells[i] {
				m := rs[ref]
				row = append(row, speedupCell(safeRatio(cellDur(b), cellDur(m)),
					safeDiv(float64(m.Tasks), float64(b.Tasks))))
			}
			t.AddRow(row...)
		}
		return []Table{t}, nil
	})
	return p, nil
}

// ---------------------------------------------------------------------------
// numa: Tables 16-27

func planNUMA(cfg RunConfig) (*Plan, error) {
	p := NewPlan("numa", cfg)
	ws := QuickWorkloads(p.Config.Scale)
	base := addClassicBaselines(p, ws, p.Config.MaxThreads)
	ks := []float64{1, 2, 8, 64, 256, 1024}
	variants := []struct {
		name string
		mk   func(k float64) SchedulerSpec
	}{
		{"MQ B/B", func(k float64) SchedulerSpec {
			return zoo.MQ[uint32]("mq", mq.Config{C: 4, Insert: mq.InsertBatch, BatchInsert: 8,
				Delete: mq.DeleteBatch, BatchDelete: 8, NUMANodes: 2, NUMAWeightK: k})
		}},
		{"MQ TL/TL", func(k float64) SchedulerSpec {
			return zoo.MQ[uint32]("mq", mq.Config{C: 4,
				Insert: mq.InsertTemporalLocality, PInsertChange: 1.0 / 64,
				Delete: mq.DeleteTemporalLocality, PDeleteChange: 1.0 / 64,
				NUMANodes: 2, NUMAWeightK: k})
		}},
		{"SMQ heap", func(k float64) SchedulerSpec {
			return zoo.SMQ[uint32]("smq", core.Config{NUMANodes: 2, NUMAWeightK: k})
		}},
		{"SMQ skiplist", func(k float64) SchedulerSpec {
			return zoo.SMQSkip[uint32]("smq-skip", core.Config{NUMANodes: 2, NUMAWeightK: k})
		}},
		{"EMQ", func(k float64) SchedulerSpec {
			cfg := mq.Engineered(0)
			cfg.NUMANodes, cfg.NUMAWeightK = 2, k
			return zoo.MQ[uint32]("emq", cfg)
		}},
	}
	// cells[variant][workload][kIndex]
	cells := make([][][]int, len(variants))
	for vi, v := range variants {
		cells[vi] = make([][]int, len(ws))
		for wi, w := range ws {
			for _, k := range ks {
				keyParams := fmt.Sprintf("variant=%s,K=%g", v.name, k)
				cells[vi][wi] = append(cells[vi][wi], p.addMeasure(w, v.mk(k), p.Config.MaxThreads, keyParams))
			}
		}
	}
	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		var tables []Table
		for vi, v := range variants {
			t := Table{
				Title:  fmt.Sprintf("Tables 16-27 — %s with NUMA weight K (cells: speedup/remote-fraction, %d threads, 2 virtual nodes)", v.name, p.Config.MaxThreads),
				Header: append([]string{"Benchmark"}, kLabels(ks)...),
			}
			for wi, w := range ws {
				b := rs[base[wi]]
				row := []string{w.Name}
				for _, ref := range cells[vi][wi] {
					m := rs[ref]
					row = append(row, fmt.Sprintf("%.2f/%.2f", safeRatio(cellDur(b), cellDur(m)), m.Remote))
				}
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
		return tables, nil
	})
	return p, nil
}

func kLabels(ks []float64) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("K=%g", k)
	}
	return out
}

// ---------------------------------------------------------------------------
// theory: Theorem 1 validation

// addSimCell appends one discrete rank-model simulation cell; the
// simulation's RNG seed is the cell's derived seed, so a solo re-run
// of the cell reproduces the exact same statistics.
func addSimCell(p *Plan, key string, mk func(seed uint64) (values map[string]float64)) int {
	return p.AddCell(Cell{Kind: "sim", Key: key, Threads: 1}, func(c Cell) (CellResult, error) {
		return CellResult{Values: mk(c.Seed)}, nil
	})
}

func planTheory(cfg RunConfig) (*Plan, error) {
	p := NewPlan("theory", cfg)
	elements := 200000 * p.Config.Scale
	steps := 50000 * p.Config.Scale

	// (a) rank vs number of queues.
	ns := []int{4, 8, 16, 32, 64}
	aRefs := make([]int, len(ns))
	for i, n := range ns {
		n := n
		aRefs[i] = addSimCell(p, fmt.Sprintf("sim/a/n=%d", n), func(seed uint64) map[string]float64 {
			res := ranksim.RunDiscrete(ranksim.DiscreteConfig{
				Queues: n, Elements: elements, StealProb: 0.125, Batch: 1, Seed: seed})
			return map[string]float64{
				"meanrank": res.MeanRemovedRank, "maxrank": float64(res.MaxRemovedRank),
				"bound": ranksim.TheoremBound(n, 1, 0.125, 0)}
		})
	}

	// (b) rank vs stealing probability.
	probs := []float64{0.5, 0.25, 0.125, 0.0625, 0.03125}
	bRefs := make([]int, len(probs))
	for i, pr := range probs {
		pr := pr
		bRefs[i] = addSimCell(p, fmt.Sprintf("sim/b/psteal=%.3g", pr), func(seed uint64) map[string]float64 {
			res := ranksim.RunDiscrete(ranksim.DiscreteConfig{
				Queues: 16, Elements: elements, StealProb: pr, Batch: 1, Seed: seed})
			return map[string]float64{
				"meanrank": res.MeanRemovedRank, "maxrank": float64(res.MaxRemovedRank),
				"bound": ranksim.TheoremBound(16, 1, pr, 0)}
		})
	}

	// (c) rank vs batch size.
	batches := []int{1, 2, 4, 8, 16}
	cRefs := make([]int, len(batches))
	for i, b := range batches {
		b := b
		cRefs[i] = addSimCell(p, fmt.Sprintf("sim/c/B=%d", b), func(seed uint64) map[string]float64 {
			res := ranksim.RunDiscrete(ranksim.DiscreteConfig{
				Queues: 16, Elements: elements, StealProb: 0.125, Batch: b, Seed: seed})
			return map[string]float64{
				"meanrank": res.MeanRemovedRank, "maxrank": float64(res.MaxRemovedRank),
				"bound": ranksim.TheoremBound(16, b, 0.125, 0)}
		})
	}

	// (d) unfair scheduling within the theorem's condition.
	gammas := []float64{0, 0.005, 0.015, 0.03}
	dRefs := make([]int, len(gammas))
	for i, g := range gammas {
		g := g
		dRefs[i] = addSimCell(p, fmt.Sprintf("sim/d/gamma=%.3g", g), func(seed uint64) map[string]float64 {
			res := ranksim.RunDiscrete(ranksim.DiscreteConfig{
				Queues: 16, Elements: elements, StealProb: 0.5, Batch: 1, Gamma: g, Seed: seed})
			return map[string]float64{
				"meanrank": res.MeanRemovedRank, "maxrank": float64(res.MaxRemovedRank),
				"bound": ranksim.TheoremBound(16, 1, 0.5, g)}
		})
	}

	// (d2) classic Multi-Queue rank vs queue count. Setting p_steal = 1
	// makes the Listing-3 process pick a second uniform queue on every
	// delete and take the better top — exactly the classic Multi-Queue's
	// two-choice delete — so the same simulator covers the O(m) result
	// of Alistarh et al. that the paper builds on.
	mqs := []int{8, 16, 32, 64}
	mqRefs := make([]int, len(mqs))
	for i, m := range mqs {
		m := m
		mqRefs[i] = addSimCell(p, fmt.Sprintf("sim/mq/m=%d", m), func(seed uint64) map[string]float64 {
			res := ranksim.RunDiscrete(ranksim.DiscreteConfig{
				Queues: m, Elements: elements, StealProb: 1, Batch: 1, Seed: seed})
			return map[string]float64{
				"meanrank": res.MeanRemovedRank, "maxrank": float64(res.MaxRemovedRank)}
		})
	}

	// (e) continuous SMQ process vs its (1+β) coupling: one cell per
	// psteal runs both coupled processes from the same seed.
	eProbs := []float64{0.5, 0.25, 0.125}
	eRefs := make([]int, len(eProbs))
	for i, pr := range eProbs {
		pr := pr
		eRefs[i] = addSimCell(p, fmt.Sprintf("sim/e/psteal=%.3g", pr), func(seed uint64) map[string]float64 {
			smq := ranksim.RunContinuousSMQ(ranksim.ContinuousConfig{
				Bins: 16, Steps: steps, StealProb: pr, Seed: seed})
			beta := ranksim.RunOnePlusBeta(ranksim.ContinuousConfig{
				Bins: 16, Steps: steps, Beta: pr / 2, Seed: seed})
			return map[string]float64{
				"smqavg": smq.MeanTopAvg, "smqmax": smq.MeanTopMax,
				"betaavg": beta.MeanTopAvg, "betamax": beta.MeanTopMax}
		})
	}

	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		ta := Table{
			Title:  "Theorem 1(a) — mean removed rank vs queues n (psteal=1/8, B=1)",
			Header: []string{"n", "MeanRank", "MaxRank", "TheoremBound"},
		}
		for i, n := range ns {
			v := rs[aRefs[i]].Values
			ta.AddRow(fmt.Sprint(n), fm(v["meanrank"]), fmt.Sprint(int(v["maxrank"])), fm(v["bound"]))
		}
		tb := Table{
			Title:  "Theorem 1(b) — mean removed rank vs psteal (n=16, B=1)",
			Header: []string{"psteal", "MeanRank", "MaxRank", "TheoremBound"},
		}
		for i, pr := range probs {
			v := rs[bRefs[i]].Values
			tb.AddRow(fmt.Sprintf("%.3g", pr), fm(v["meanrank"]), fmt.Sprint(int(v["maxrank"])), fm(v["bound"]))
		}
		tc := Table{
			Title:  "Theorem 1(c) — mean removed rank vs batch B (n=16, psteal=1/8)",
			Header: []string{"B", "MeanRank", "MaxRank", "TheoremBound"},
		}
		for i, b := range batches {
			v := rs[cRefs[i]].Values
			tc.AddRow(fmt.Sprint(b), fm(v["meanrank"]), fmt.Sprint(int(v["maxrank"])), fm(v["bound"]))
		}
		td := Table{
			Title:  "Theorem 1(d) — scheduler unfairness γ (n=16, psteal=1/2, B=1)",
			Header: []string{"gamma", "MeanRank", "MaxRank", "TheoremBound"},
		}
		for i, g := range gammas {
			v := rs[dRefs[i]].Values
			td.AddRow(fmt.Sprintf("%.3g", g), fm(v["meanrank"]), fmt.Sprint(int(v["maxrank"])), fm(v["bound"]))
		}
		tmq := Table{
			Title:  "Classic Multi-Queue (= SMQ process at psteal=1) — mean removed rank vs m",
			Header: []string{"m", "MeanRank", "MaxRank", "O(m) reference"},
		}
		for i, m := range mqs {
			v := rs[mqRefs[i]].Values
			tmq.AddRow(fmt.Sprint(m), fm(v["meanrank"]), fmt.Sprint(int(v["maxrank"])), fmt.Sprint(m))
		}
		te := Table{
			Title:  "Appendix A — continuous SMQ vs (1+β) coupling (n=16, stationary top ranks)",
			Header: []string{"psteal", "SMQ avg", "SMQ max", "β=p/2 avg", "β=p/2 max"},
		}
		for i, pr := range eProbs {
			v := rs[eRefs[i]].Values
			te.AddRow(fmt.Sprintf("%.3g", pr), fm(v["smqavg"]), fm(v["smqmax"]),
				fm(v["betaavg"]), fm(v["betamax"]))
		}
		return []Table{ta, tb, tc, td, tmq, te}, nil
	})
	return p, nil
}
