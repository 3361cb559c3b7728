// Package serve is the open-loop serving front-end over the scheduler
// zoo: a long-running priority-task service that ingests a stream of
// requests from outside the worker set, applies admission control at a
// pending-task watermark, and executes tasks on an elastic worker pool
// that parks idle worker slots instead of spinning.
//
// The repository's other drivers (internal/algos, internal/desim) are
// run-to-completion: all work descends from seeds registered before
// workers start. A service is the opposite shape — the queue
// legitimately drains to empty between arrival bursts. Both run on the
// one worker loop, sched.Stream; a service gives it a feed and a park
// hook, for three reasons:
//
//   - Termination is quiescence, not emptiness: workers exit only once
//     the ingest stream has ended AND the in-flight count is zero. The
//     loop closes sched.Pending when the feed says so. See its docs.
//   - Ingestion must flow through a worker handle. Scheduler handles
//     are single-goroutine, and several schedulers bury pushed tasks in
//     handle-local structures (the k-LSM's local LSM, the SMQ's local
//     heap, a buffered Multi-Queue's insertion buffer) that only the
//     owning worker can drain. A push-only ingester goroutine would
//     therefore strand its own tail of tasks. Service.feed instead runs
//     on worker 0 between PopN rounds and never blocks on the channel,
//     so whatever its pushes leave in worker-0-local state worker 0
//     processes itself.
//   - Idle workers must cost ~0 CPU. Once a worker's backoff reaches the
//     sleep tier the loop offers it pool.park, which parks surplus
//     workers on per-worker wake channels; the feed unparks them as
//     pending work grows, and all of them when the stream ends.
//
// A worker is only offered to park after its own PopN returned zero,
// which for every scheduler in the zoo implies its handle-local
// structures are empty — so a parked worker can never hold buried tasks,
// and the zero-lost-tasks ledger (ingested = completed + shed) holds at
// shutdown.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contend"
	"repro/internal/perfbench"
	"repro/internal/sched"
)

// Request is one unit of offered load. Priorities are the scheduled
// arrival time, so the service drains in (relaxed) arrival order.
type Request struct {
	// Tenant is the traffic class in [0, Config.Tenants).
	Tenant int
	// Cost is the synthetic service cost in calibrated spin units
	// (roughly nanoseconds; see spinWork).
	Cost uint32
	// Enq is the scheduled arrival time in nanoseconds since the
	// Service epoch. Latency is measured from Enq, not from the moment
	// the request crossed the channel, so generator lag and admission
	// stalls count against the service (no coordinated omission).
	Enq int64
}

// Policy selects what admission control does above the high watermark.
type Policy int

const (
	// PolicyStall pauses ingestion (backpressure up the channel) and
	// lets the ingest worker help drain until the low watermark.
	PolicyStall Policy = iota
	// PolicyShed drops incoming requests (counted per tenant) until
	// pending falls below the low watermark.
	PolicyShed
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the scheduler's total worker-slot count, including
	// worker 0, the hybrid ingest worker. Must be >= 2 and must equal
	// the scheduler's Workers().
	Workers int
	// MinWorkers is the elastic pool's floor: pool workers beyond this
	// many may park. Range [1, Workers-1]; 0 means 1.
	MinWorkers int
	// Tenants is the number of traffic classes. 0 means 1.
	Tenants int
	// HighWater / LowWater are the admission watermarks on the pending
	// in-flight count, with hysteresis: the policy engages above
	// HighWater and disengages below LowWater. 0 means 1<<16 and
	// HighWater/2 respectively.
	HighWater int64
	LowWater  int64
	// Policy is the above-watermark behaviour (default PolicyStall).
	Policy Policy
	// TasksPerWorker is the pool scale-up target: the ingester keeps
	// roughly one unparked pool worker per this many pending tasks.
	// 0 means 256.
	TasksPerWorker int64
	// InBuffer is the ingest channel capacity. 0 means 4096.
	InBuffer int
}

func (c *Config) normalize() error {
	if c.Workers < 2 {
		return fmt.Errorf("serve: Workers = %d, need >= 2 (ingest worker + at least one pool worker)", c.Workers)
	}
	if c.Tenants == 0 {
		c.Tenants = 1
	}
	if c.Tenants < 1 {
		return fmt.Errorf("serve: Tenants = %d", c.Tenants)
	}
	if c.MinWorkers == 0 {
		c.MinWorkers = 1
	}
	if c.MinWorkers < 1 || c.MinWorkers > c.Workers-1 {
		return fmt.Errorf("serve: MinWorkers = %d outside [1, %d]", c.MinWorkers, c.Workers-1)
	}
	if c.HighWater == 0 {
		c.HighWater = 1 << 16
	}
	if c.LowWater == 0 {
		c.LowWater = c.HighWater / 2
	}
	if c.LowWater < 0 || c.LowWater > c.HighWater {
		return fmt.Errorf("serve: LowWater %d outside [0, HighWater=%d]", c.LowWater, c.HighWater)
	}
	if c.TasksPerWorker == 0 {
		c.TasksPerWorker = 256
	}
	if c.TasksPerWorker < 0 {
		return fmt.Errorf("serve: TasksPerWorker = %d", c.TasksPerWorker)
	}
	if c.InBuffer == 0 {
		c.InBuffer = 4096
	}
	if c.InBuffer < 0 {
		return fmt.Errorf("serve: InBuffer = %d", c.InBuffer)
	}
	return nil
}

// serveBatch is the PopN batch size of the serving workers, and
// ingestBatch the channel-drain batch the feed folds into one PushN.
// Both amortize per-operation scheduler costs; the ingest batch
// additionally folds the Pending accounting into one atomic add.
const (
	serveBatch  = 8
	ingestBatch = 64
)

// TenantStats is one tenant's slice of a run.
type TenantStats struct {
	Completed uint64
	Shed      uint64
	// Latency is the sojourn-time histogram (scheduled arrival to
	// completion, nanoseconds).
	Latency perfbench.Histogram
}

// Stats is a completed run's accounting. Ingested = Completed + Shed
// is the zero-lost-tasks ledger: every request taken off the channel
// was either executed or deliberately shed, none lost.
type Stats struct {
	Ingested  uint64
	Completed uint64
	Shed      uint64
	// Stalls / StallDur account PolicyStall backpressure episodes.
	Stalls   uint64
	StallDur time.Duration
	// Parks / Unparks / MeanActiveWorkers describe the elastic pool
	// (MeanActiveWorkers includes the always-active ingest worker).
	Parks             uint64
	Unparks           uint64
	MeanActiveWorkers float64
	// Duration is Start to quiescence.
	Duration  time.Duration
	PerTenant []TenantStats
	Sched     sched.Stats
}

// workerLocal is one worker's private accounting; merged after
// quiescence. The slices are per-tenant and separately allocated per
// worker, so workers never write into shared backing arrays.
type workerLocal struct {
	completed []uint64
	hist      []perfbench.Histogram
}

// ingest is the feed's state, owned by worker 0; the counters are read
// after quiescence.
type ingest struct {
	ingested     uint64
	shed         uint64
	shedByTenant []uint64
	stalls       uint64
	stallNs      int64
	batch        []Request // the drain in hand; held across feeds while stalled
	eof          bool      // the channel has closed (a batch may still be held)
	shedding     bool
	stalled      bool // a PolicyStall episode is open, since stallStart
	stallStart   time.Time
}

// Service is an open-loop priority-task service over one scheduler.
// Create with New, feed via In, close In when the stream ends, then
// Wait for quiescence and the run's Stats.
type Service struct {
	cfg   Config
	s     sched.Scheduler[Request]
	in    chan Request
	epoch time.Time
	// pending takes an atomic add per popped batch from every worker, so
	// it gets a cache line of its own: sharing one with cfg and in, which
	// the feed reads every round, or with anything a task body reads
	// (hence body's captures) cost serve-drain 4-13 % of its rate.
	_       [contend.CacheLineSize]byte
	pending sched.Pending
	_       [contend.CacheLineSize]byte
	pool    pool
	locals  []workerLocal
	ing     ingest
	done    chan struct{}
}

// New builds a Service over s. The scheduler must have been created
// with cfg.Workers worker slots, all of which the Service claims.
func New(s sched.Scheduler[Request], cfg Config) (*Service, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if s.Workers() != cfg.Workers {
		return nil, fmt.Errorf("serve: scheduler has %d worker slots, config says %d", s.Workers(), cfg.Workers)
	}
	sv := &Service{
		cfg:    cfg,
		s:      s,
		in:     make(chan Request, cfg.InBuffer),
		locals: make([]workerLocal, cfg.Workers),
	}
	for i := range sv.locals {
		sv.locals[i].completed = make([]uint64, cfg.Tenants)
		sv.locals[i].hist = make([]perfbench.Histogram, cfg.Tenants)
	}
	sv.ing.shedByTenant = make([]uint64, cfg.Tenants)
	return sv, nil
}

// In returns the ingest channel. The caller closes it to end the
// stream; the Service then drains and quiesces.
func (sv *Service) In() chan<- Request { return sv.in }

// Epoch returns the service time origin Request.Enq is measured from.
// Valid after Start.
func (sv *Service) Epoch() time.Time { return sv.epoch }

// Start launches the workers: one sched.Stream, fed on worker 0, the
// pool's policy behind the park hook of the others.
func (sv *Service) Start() {
	if sv.done != nil {
		panic("serve: Start called twice")
	}
	sv.done = make(chan struct{})
	sv.epoch = time.Now()
	sv.pool.init(sv.cfg.MinWorkers, sv.cfg.Workers-1, sv.epoch)
	go func() {
		defer close(sv.done)
		sched.Stream(sv.s, &sv.pending, sv.cfg.Workers, serveBatch, sv.body(), sv.feed, sv.pool.park)
	}()
}

// Wait blocks until the ingest channel has been closed and every task
// has been executed, then returns the run's accounting.
func (sv *Service) Wait() *Stats {
	<-sv.done
	end := time.Now()
	st := &Stats{
		Ingested:  sv.ing.ingested,
		Shed:      sv.ing.shed,
		Stalls:    sv.ing.stalls,
		StallDur:  time.Duration(sv.ing.stallNs),
		Duration:  end.Sub(sv.epoch),
		PerTenant: make([]TenantStats, sv.cfg.Tenants),
		Sched:     sv.s.Stats(),
	}
	st.Parks, st.Unparks, st.MeanActiveWorkers = sv.pool.finish(end, sv.epoch)
	for t := 0; t < sv.cfg.Tenants; t++ {
		ts := &st.PerTenant[t]
		ts.Shed = sv.ing.shedByTenant[t]
		for w := range sv.locals {
			ts.Completed += sv.locals[w].completed[t]
			ts.Latency.Merge(&sv.locals[w].hist[t])
		}
		st.Completed += ts.Completed
	}
	return st
}

// spinSink is the calibrated-work load target: an atomic load of a
// package variable is a real memory operation the compiler keeps, and
// concurrent readers do not contend (the line stays shared).
var spinSink atomic.Uint64

// spinWork burns the request's synthetic service cost: one atomic load
// per unit, roughly a nanosecond each. It is kept out of line so that
// the loop sits at a fixed offset from a 32-byte-aligned entry: inlined
// into the task body it straddled a cache line in every second build
// (any change to the size of code linked earlier flips it) and cost the
// whole service 4-10 % of its drain rate.
//
//go:noinline
func spinWork(units uint32) {
	for i := uint32(0); i < units; i++ {
		_ = spinSink.Load()
	}
}

// body is the task body: execute one popped request and record its
// sojourn time. It captures locals and epoch so that nothing read per
// task lives in Service, next to words worker 0 writes per request.
func (sv *Service) body() sched.Body[Request] {
	locals, epoch := sv.locals, sv.epoch
	return func(wid int, _ *sched.Sink[Request], _ uint64, r Request) bool {
		spinWork(r.Cost)
		soj := time.Since(epoch).Nanoseconds() - r.Enq
		if soj < 0 {
			// The generator may run a hair ahead of schedule; clamp.
			soj = 0
		}
		local := &locals[wid]
		local.hist[r.Tenant].Record(uint64(soj))
		local.completed[r.Tenant]++
		return false
	}
}

// feed is worker 0's ingest step (a sched.Feed). Each round drains up to
// ingestBatch requests without blocking, applies admission control,
// publishes the admitted batch through the worker's sink (Inc before
// PushN, so Pending can never dip to zero while the batch is buried in
// worker-local structures) and rescales the pool. While a PolicyStall
// episode holds a batch the feed reports no progress and leaves the
// channel alone — backpressuring it, and through it the generator — and
// worker 0 helps drain through the loop. The stream ends when the channel
// has closed and nothing is held; every parked worker is then woken so it
// can observe quiescence and exit (parking is refused from there on).
func (sv *Service) feed(out *sched.Sink[Request]) (progress, open bool) {
	ing := &sv.ing
	if ing.stalled {
		if sv.pending.Load() > sv.cfg.LowWater {
			return false, true
		}
		ing.stalled = false
		ing.stallNs += time.Since(ing.stallStart).Nanoseconds()
	} else if ing.recv(sv.in); len(ing.batch) > 0 && !sv.admit() {
		return true, true
	}
	if len(ing.batch) > 0 {
		for _, r := range ing.batch {
			out.Push(uint64(r.Enq), r)
		}
		out.Flush()
		ing.batch = ing.batch[:0]
		sv.pool.scaleTo(sv.desiredWorkers(), time.Now())
		progress = true
	}
	if ing.eof {
		sv.pool.close(time.Now())
	}
	return progress, !ing.eof
}

// recv drains up to ingestBatch requests from in without blocking.
func (ing *ingest) recv(in <-chan Request) {
	for len(ing.batch) < ingestBatch {
		select {
		case r, ok := <-in:
			if !ok {
				ing.eof = true
				return
			}
			ing.ingested++
			ing.batch = append(ing.batch, r)
		default:
			return
		}
	}
}

// admit applies the admission policy to a freshly drained batch and
// reports whether it may be published now. PolicyShed drops the batch
// while the hysteresis flag is set; PolicyStall opens an episode that
// holds it until pending has fallen to the low watermark (see feed).
func (sv *Service) admit() bool {
	ing := &sv.ing
	pend := sv.pending.Load()
	if ing.shedding && pend <= sv.cfg.LowWater {
		ing.shedding = false
	}
	if !ing.shedding && pend <= sv.cfg.HighWater {
		return true
	}
	if sv.cfg.Policy == PolicyShed {
		ing.shedding = true
		for _, r := range ing.batch {
			ing.shed++
			ing.shedByTenant[r.Tenant]++
		}
		ing.batch = ing.batch[:0]
		return false
	}
	// PolicyStall: all hands on deck.
	ing.stalls++
	ing.stalled, ing.stallStart = true, time.Now()
	sv.pool.scaleTo(sv.cfg.Workers-1, ing.stallStart)
	return false
}

// desiredWorkers is the pool scale target: one active pool worker per
// TasksPerWorker pending tasks, clamped to [MinWorkers, Workers-1].
func (sv *Service) desiredWorkers() int {
	d := int(sv.pending.Load() / sv.cfg.TasksPerWorker)
	if d < sv.cfg.MinWorkers {
		d = sv.cfg.MinWorkers
	}
	if max := sv.cfg.Workers - 1; d > max {
		d = max
	}
	return d
}

// pool is the elastic worker pool's shared state: which pool workers
// are parked, how many are active, and the time integral of the active
// count (for MeanActiveWorkers). All transitions happen under mu, so
// the park/unpark handshake has no lost wakeups: a worker is only ever
// woken through a channel it registered while decrementing active, and
// the ingester's scale checks read active under the same lock.
type pool struct {
	mu             sync.Mutex
	wake           []chan struct{} // per pool worker, buffered(1); index = wid-1
	parked         []int           // LIFO stack of parked wids
	active         int
	min            int
	closed         bool
	parks, unparks uint64
	lastT          time.Time
	integralNs     float64 // ∫ (1 + active) dt — the 1 is the ingest worker
}

func (p *pool) init(min, size int, now time.Time) {
	p.min = min
	p.active = size
	p.wake = make([]chan struct{}, size)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
	}
	p.lastT = now
}

// note folds the elapsed interval into the active-worker integral.
// Callers hold mu.
func (p *pool) note(now time.Time) {
	if dt := now.Sub(p.lastT); dt > 0 {
		p.integralNs += float64(1+p.active) * float64(dt.Nanoseconds())
		p.lastT = now
	}
}

// park is the loop's park hook: it parks worker wid until scaleTo or
// close wakes it. Refused at the pool's floor — MinWorkers >= 1, so some
// worker besides worker 0 is always polling and a task in a shared
// structure cannot strand — and once the stream has ended (a post-close
// parker could sleep through shutdown).
func (p *pool) park(wid int) bool {
	now := time.Now()
	p.mu.Lock()
	if p.closed || p.active <= p.min {
		p.mu.Unlock()
		return false
	}
	p.note(now)
	p.active--
	p.parks++
	p.parked = append(p.parked, wid)
	p.mu.Unlock()
	<-p.wake[wid-1]
	return true
}

// scaleTo unparks workers until the active count reaches desired (or
// no parked workers remain). The wake channels are buffered, so the
// send lands even if the worker has not reached its receive yet.
func (p *pool) scaleTo(desired int, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.active < desired && len(p.parked) > 0 {
		p.note(now)
		wid := p.parked[len(p.parked)-1]
		p.parked = p.parked[:len(p.parked)-1]
		p.active++
		p.unparks++
		p.wake[wid-1] <- struct{}{}
	}
}

// close wakes every parked worker and refuses all future parking, so
// each pool worker gets to observe quiescence and exit.
func (p *pool) close(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, wid := range p.parked {
		p.note(now)
		p.active++
		p.unparks++
		p.wake[wid-1] <- struct{}{}
	}
	p.parked = p.parked[:0]
}

// finish closes the integral and reports the pool counters.
func (p *pool) finish(now, epoch time.Time) (parks, unparks uint64, meanActive float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.note(now)
	elapsed := now.Sub(epoch).Nanoseconds()
	if elapsed > 0 {
		meanActive = p.integralNs / float64(elapsed)
	}
	return p.parks, p.unparks, meanActive
}
