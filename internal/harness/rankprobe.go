package harness

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// RankStats summarizes the empirical rank quality of a real concurrent
// scheduler: tasks 0..N-1 are seeded (striped across workers, priority =
// value) and drained concurrently; the displacement of each pop from its
// ideal position measures how relaxed the implementation actually is.
// This is the practical counterpart of Theorem 1's model statistics and
// the mechanism behind the paper's wasted-work differences.
type RankStats struct {
	Scheduler string
	Mode      string // "lockstep" or "freerun"
	Tasks     int
	Workers   int
	// MeanDisplacement is the average |position − priority| over all
	// pops (0 for an exact scheduler drained by one worker).
	MeanDisplacement float64
	// P99Displacement is the 99th percentile displacement.
	P99Displacement int
	// MaxDisplacement is the worst single pop.
	MaxDisplacement int
	// InversionFrac is the fraction of pops smaller than an earlier pop.
	InversionFrac float64
}

// ProbeRankLockstep measures queue-structure relaxation in isolation: a
// single goroutine round-robins over all worker handles, popping one
// task per handle per round. This realizes the analysis' balanced
// scheduling distribution (γ = 0), so the measured displacement reflects
// the data structure's relaxation alone — the quantity Theorem 1 bounds.
func ProbeRankLockstep(spec SchedulerSpec, workers, tasks int) RankStats {
	s := spec.Make(workers, 0)
	seedStriped(s, workers, tasks)
	handles := make([]sched.Worker[uint32], workers)
	for i := range handles {
		handles[i] = s.Worker(i)
	}
	order := make([]uint64, 0, tasks)
	idle := 0
	for len(order) < tasks && idle < 4*workers {
		for _, h := range handles {
			p, _, ok := h.Pop()
			if !ok {
				idle++
				continue
			}
			idle = 0
			order = append(order, p)
		}
	}
	st := rankStatsFromOrder(order)
	st.Scheduler = spec.Name
	st.Mode = "lockstep"
	st.Tasks = tasks
	st.Workers = workers
	return st
}

// ProbeRankLockstepBatched is the bulk-operation variant of
// ProbeRankLockstep: tasks are seeded through PushN in runs of batch
// and drained round-robin through PopN, batch tasks per handle per
// turn. The measured displacement bounds the extra rank relaxation the
// batched fast paths introduce — a batch is taken as a unit, so a
// worker may run up to batch-1 tasks further ahead of the global
// minimum than with scalar pops.
func ProbeRankLockstepBatched(spec SchedulerSpec, workers, tasks, batch int) RankStats {
	if batch < 1 {
		batch = 1
	}
	s := spec.Make(workers, 0)
	for wid := 0; wid < workers; wid++ {
		w := s.Worker(wid)
		ps := make([]uint64, 0, batch)
		vs := make([]uint32, 0, batch)
		for t := wid; t < tasks; t += workers {
			ps = append(ps, uint64(t))
			vs = append(vs, uint32(t))
			if len(ps) == batch {
				w.PushN(ps, vs)
				ps, vs = ps[:0], vs[:0]
			}
		}
		w.PushN(ps, vs)
	}
	handles := make([]sched.Worker[uint32], workers)
	for i := range handles {
		handles[i] = s.Worker(i)
	}
	dst := make([]sched.Task[uint32], batch)
	order := make([]uint64, 0, tasks)
	idle := 0
	for len(order) < tasks && idle < 4*workers {
		for _, h := range handles {
			n := h.PopN(dst)
			if n == 0 {
				idle++
				continue
			}
			idle = 0
			for i := 0; i < n; i++ {
				order = append(order, dst[i].P)
			}
		}
	}
	st := rankStatsFromOrder(order)
	st.Scheduler = spec.Name
	st.Mode = "lockstep-batched"
	st.Tasks = tasks
	st.Workers = workers
	return st
}

// ProbeRank measures RankStats under free-running workers: real goroutine
// scheduling included. On oversubscribed machines OS skew can dominate —
// the SMQ's guarantee explicitly depends on the scheduler's fairness
// (the γ assumption), and this probe shows what happens when it erodes.
func ProbeRank(spec SchedulerSpec, workers, tasks int) RankStats {
	s := spec.Make(workers, 0)
	seedStriped(s, workers, tasks)
	var pending sched.Pending
	pending.Inc(int64(tasks))

	order := make([]uint64, tasks)
	var slot atomic.Int64
	// Batch 1: the probe measures the scalar pop order.
	sched.Run(s, &pending, workers, 1,
		func(_ int, _ *sched.Sink[uint32], p uint64, _ uint32) bool {
			order[slot.Add(1)-1] = p
			return false
		})
	st := rankStatsFromOrder(order)
	st.Scheduler = spec.Name
	st.Mode = "freerun"
	st.Tasks = tasks
	st.Workers = workers
	return st
}

// seedStriped pushes tasks 0..tasks-1 striped across workers (priority =
// value), so every local queue holds comparable work.
func seedStriped(s sched.Scheduler[uint32], workers, tasks int) {
	var seedWG sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		seedWG.Add(1)
		go func(wid int) {
			defer seedWG.Done()
			w := s.Worker(wid)
			for t := wid; t < tasks; t += workers {
				w.Push(uint64(t), uint32(t))
			}
		}(wid)
	}
	seedWG.Wait()
}

func rankStatsFromOrder(order []uint64) RankStats {
	tasks := len(order)
	disp := make([]int, tasks)
	inversions := 0
	maxSeen := uint64(0)
	sum := 0.0
	for i, p := range order {
		d := int(p) - i
		if d < 0 {
			d = -d
		}
		disp[i] = d
		sum += float64(d)
		if p < maxSeen {
			inversions++
		} else {
			maxSeen = p
		}
	}
	sort.Ints(disp)
	if tasks == 0 {
		return RankStats{}
	}
	return RankStats{
		MeanDisplacement: sum / float64(tasks),
		P99Displacement:  disp[tasks*99/100],
		MaxDisplacement:  disp[tasks-1],
		InversionFrac:    float64(inversions) / float64(tasks),
	}
}

// rankValues flattens a probe's statistics into a cell's Values map.
func rankValues(st RankStats) map[string]float64 {
	return map[string]float64{
		"meandisp": st.MeanDisplacement,
		"p99disp":  float64(st.P99Displacement),
		"maxdisp":  float64(st.MaxDisplacement),
		"invfrac":  st.InversionFrac,
	}
}

// planRankProbe is the `rankprobe` experiment: empirical rank quality of
// every scheduler implementation, the practical counterpart of the
// `theory` experiment. Each scheduler × probe mode is one cell.
func planRankProbe(cfg RunConfig) (*Plan, error) {
	p := NewPlan("rankprobe", cfg)
	tasks := 100000 * p.Config.Scale
	workers := p.Config.MaxThreads
	specs := AllSchedulers()

	lsRefs := make([]int, len(specs))
	frRefs := make([]int, len(specs))
	for i, spec := range specs {
		spec := spec
		lsRefs[i] = p.AddCell(Cell{
			Kind: "probe", Key: "probe/lockstep/" + spec.Name,
			Scheduler: spec.Name, Params: spec.Params, Threads: workers,
		}, func(c Cell) (CellResult, error) {
			return CellResult{Values: rankValues(ProbeRankLockstep(spec, c.Threads, tasks))}, nil
		})
		frRefs[i] = p.AddCell(Cell{
			Kind: "probe", Key: "probe/freerun/" + spec.Name,
			Scheduler: spec.Name, Params: spec.Params, Threads: workers,
		}, func(c Cell) (CellResult, error) {
			return CellResult{Values: rankValues(ProbeRank(spec, c.Threads, tasks))}, nil
		})
	}

	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		lockstep := Table{
			Title: fmt.Sprintf("Empirical rank relaxation, lockstep (γ=0 model) — %d tasks, %d worker queues",
				tasks, workers),
			Header: []string{"Scheduler", "MeanDisp", "P99Disp", "MaxDisp", "Inversions%"},
		}
		freerun := Table{
			Title: fmt.Sprintf("Empirical rank relaxation, free-running goroutines — %d tasks, %d workers (includes OS scheduling skew)",
				tasks, workers),
			Header: []string{"Scheduler", "MeanDisp", "P99Disp", "MaxDisp", "Inversions%"},
		}
		for i, spec := range specs {
			v := rs[lsRefs[i]].Values
			lockstep.AddRow(spec.Name, fm(v["meandisp"]), fmt.Sprint(int(v["p99disp"])),
				fmt.Sprint(int(v["maxdisp"])), fm(100*v["invfrac"]))
			v = rs[frRefs[i]].Values
			freerun.AddRow(spec.Name, fm(v["meandisp"]), fmt.Sprint(int(v["p99disp"])),
				fmt.Sprint(int(v["maxdisp"])), fm(100*v["invfrac"]))
		}
		return []Table{lockstep, freerun}, nil
	})
	return p, nil
}
