package desim

import (
	"fmt"
	"sync/atomic"
)

// DAGConfig parameterizes the task-DAG workload. Every task past the
// first layer has dagDegree (3) predecessors in the previous layer,
// chosen pseudo-randomly from Seed; duplicates are allowed and counted
// as parallel edges.
type DAGConfig struct {
	// Layers and Width shape the layered DAG: Layers·Width tasks, one
	// event each. Zeros mean 256 layers of 256 tasks.
	Layers, Width int
	// Workers must match the Config.Workers of the run. Required.
	Workers int
	// Seed makes the DAG shape and task weights reproducible. 0 means 1.
	Seed uint64
}

func (c *DAGConfig) normalize() error {
	if c.Workers <= 0 {
		return fmt.Errorf("desim: DAGConfig.Workers = %d, must be positive", c.Workers)
	}
	if c.Layers <= 0 {
		c.Layers = 256
	}
	if c.Width <= 0 {
		c.Width = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// dagDegree is each task's predecessor count (see DAGConfig).
const dagDegree = 3

// dagShard is one worker's slice of the commutative outputs.
type dagShard struct {
	checksum uint64
	_        [56]byte
}

// DAG simulates a task graph: a layered DAG where a task becomes ready
// when its last predecessor finishes, and an event's priority is its
// critical-path depth (its layer) — the priority function the paper's
// task-scheduling discussion motivates: run the frontier in depth order
// and the makespan computation parallelizes.
//
// Order-independence is by construction: a task's event is pushed only
// after every predecessor has published its finish time (atomic-max
// into the task's ready cell, then an atomic in-degree decrement whose
// final decrement releases the event — the Go memory model's
// sequentially consistent atomics give the needed happens-before). The
// computed finish times, and therefore the makespan and checksum, are
// identical whatever order a relaxed scheduler executes ready tasks in.
type DAG struct {
	cfg DAGConfig
	// succ[v] lists v's successor task ids; indeg counts (multi-)edges
	// into each task; ready holds max predecessor finish; finish holds
	// the task's computed finish time.
	succ   [][]uint32
	indeg  []atomic.Int32
	ready  []atomic.Uint64
	finish []uint64
	shards []dagShard
	span   atomic.Uint64
}

// NewDAG builds a DAG model. Single-use, like Cluster.
func NewDAG(cfg DAGConfig) (*DAG, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := cfg.Layers * cfg.Width
	d := &DAG{
		cfg:    cfg,
		succ:   make([][]uint32, n),
		indeg:  make([]atomic.Int32, n),
		ready:  make([]atomic.Uint64, n),
		finish: make([]uint64, n),
		shards: make([]dagShard, cfg.Workers),
	}
	for l := 1; l < cfg.Layers; l++ {
		for i := 0; i < cfg.Width; i++ {
			v := l*cfg.Width + i
			for j := 0; j < dagDegree; j++ {
				p := (l-1)*cfg.Width + int(mix64(cfg.Seed^uint64(v)<<20^uint64(j))%uint64(cfg.Width))
				d.succ[p] = append(d.succ[p], uint32(v))
				d.indeg[v].Add(1)
			}
		}
	}
	return d, nil
}

func (d *DAG) Name() string { return "dag" }

// Horizon: event timestamps are layers, 0..Layers-1.
func (d *DAG) Horizon() uint64 { return uint64(d.cfg.Layers) }

// Events reports the exact event count: one per task.
func (d *DAG) Events() uint64 { return uint64(len(d.finish)) }

// weight is the task's deterministic execution cost in [1, 256].
func (d *DAG) weight(v int) uint64 {
	return mix64(d.cfg.Seed^0xd1b54a32d192ed03^uint64(v))%256 + 1
}

// Seed pushes every layer-0 task at depth 0.
func (d *DAG) Seed(push Pusher) {
	for i := 0; i < d.cfg.Width; i++ {
		push(Event{T: 0, Kind: evTask, A: uint32(i)})
	}
}

// Handle runs one task: finish = max(pred finishes) + weight, then
// publish to successors and release the ones whose in-degree hits zero
// at depth+1.
func (d *DAG) Handle(worker int, ev Event, push Pusher) {
	if ev.Kind != evTask {
		panic(fmt.Sprintf("desim: dag got unknown event kind %d", ev.Kind))
	}
	v := int(ev.A)
	f := d.ready[v].Load() + d.weight(v)
	d.finish[v] = f
	d.shards[worker].checksum += mix64(f ^ uint64(v))
	atomicMax(&d.span, f)
	for _, s := range d.succ[v] {
		atomicMax(&d.ready[s], f)
		if d.indeg[s].Add(-1) == 0 {
			push(Event{T: ev.T + 1, Kind: evTask, A: s})
		}
	}
}

func atomicMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Checksum digests every task's finish time commutatively.
func (d *DAG) Checksum() uint64 {
	var sum uint64
	for i := range d.shards {
		sum += d.shards[i].checksum
	}
	return mix64(sum ^ d.span.Load())
}
