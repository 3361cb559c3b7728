package desim

import (
	"fmt"

	"repro/internal/perfbench"
	"repro/internal/xrand"
)

// Event kinds shared by the built-in models.
const (
	evArrival    uint8 = 1
	evCompletion uint8 = 2
	evTask       uint8 = 3
)

// ClusterConfig parameterizes the simulated serving cluster. The
// traffic is fixed: 8 tenants drawn Zipf(0.99) (clusterTenants,
// tenantSkew), a mean interarrival gap of 400 ticks per station
// (meanGap), and bounded-Pareto service costs in [16, 4096] ticks at
// tail index 1.5 (serviceMin, serviceMax, serviceAlpha).
type ClusterConfig struct {
	// Stations is the number of service stations (independent FIFO
	// servers). 0 means 64.
	Stations int
	// ArrivalsPerStation is each station's arrival-chain length; the
	// run executes exactly 2·Stations·ArrivalsPerStation events (one
	// arrival + one completion each). 0 means 1024.
	ArrivalsPerStation int
	// Workers must match the Config.Workers of the run (per-worker
	// result shards). Required.
	Workers int
	// Seed makes the whole simulation reproducible. 0 means 1.
	Seed uint64
}

func (c *ClusterConfig) normalize() error {
	if c.Workers <= 0 {
		return fmt.Errorf("desim: ClusterConfig.Workers = %d, must be positive", c.Workers)
	}
	if c.Stations <= 0 {
		c.Stations = 64
	}
	if c.ArrivalsPerStation <= 0 {
		c.ArrivalsPerStation = 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// The cluster's traffic (see ClusterConfig): the tenant mix, the mean
// interarrival gap and the service-cost range in ticks, and the costs'
// tail index.
const (
	clusterTenants = 8
	tenantSkew     = 0.99
	meanGap        = 400.0
	serviceMin     = 16.0
	serviceMax     = 4096.0
	serviceAlpha   = 1.5
)

// station is one FIFO server. Its arrival events are self-chained —
// arrival n pushes arrival n+1 — so exactly one event ever touches a
// station concurrently and the fields need no synchronization: the
// scheduler's push→pop edge orders chain steps.
type station struct {
	rng       xrand.Rand
	busyUntil uint64
	done      int
	_         [24]byte
}

// clusterShard is one worker's slice of the commutative outputs.
type clusterShard struct {
	completed uint64
	checksum  uint64
	_         [48]byte
}

// Cluster simulates an open-loop serving cluster: per-station Poisson
// arrivals carrying Zipf-distributed tenants and bounded-Pareto service
// costs drain through FIFO servers. Every quantity a run reports is
// either per-station sequential state (owned by the arrival chain) or
// commutative (counts, checksums, histogram merges), so the simulated
// outcome — per-tenant completions, sojourn percentiles, checksum — is
// bitwise identical across schedulers and worker counts. What differs
// between schedulers is only how far events run ahead of global
// simulated time, which the engine's causality window measures.
type Cluster struct {
	cfg      ClusterConfig
	zipf     *xrand.Zipf
	pareto   *xrand.BoundedPareto
	stations []station
	shards   []clusterShard
	// hists is Workers×Tenants sojourn histograms, merged per tenant
	// after the run.
	hists []perfbench.Histogram
}

// NewCluster builds a cluster model. The model is single-use: run it,
// read the results, and build a fresh one for the next run.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		zipf:     xrand.NewZipf(clusterTenants, tenantSkew),
		pareto:   xrand.NewBoundedPareto(serviceMin, serviceMax, serviceAlpha),
		stations: make([]station, cfg.Stations),
		shards:   make([]clusterShard, cfg.Workers),
		hists:    make([]perfbench.Histogram, cfg.Workers*clusterTenants),
	}
	for i := range c.stations {
		c.stations[i].rng.Seed(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	return c, nil
}

func (c *Cluster) Name() string { return "cluster" }

// Horizon over-estimates the largest plausible timestamp. The window
// clamps later timestamps into its last bucket, which only relaxes the
// check for those stragglers, so a generous estimate is safe.
func (c *Cluster) Horizon() uint64 {
	arrivalSpan := float64(c.cfg.ArrivalsPerStation) * meanGap * 8
	backlog := serviceMax * 64
	return uint64(arrivalSpan+backlog) + 1024
}

// Events reports the exact event count a full run executes.
func (c *Cluster) Events() uint64 {
	return 2 * uint64(c.cfg.Stations) * uint64(c.cfg.ArrivalsPerStation)
}

// Seed pushes each station's first arrival, staggered by one random
// gap so stations do not start phase-locked.
func (c *Cluster) Seed(push Pusher) {
	for i := range c.stations {
		push(Event{T: c.gap(&c.stations[i]), Kind: evArrival, A: uint32(i)})
	}
}

func (c *Cluster) gap(st *station) uint64 {
	g := uint64(st.rng.ExpFloat64() * meanGap)
	if g == 0 {
		g = 1
	}
	return g
}

// Handle executes one event. Arrivals run the station's FIFO recurrence
// and schedule both the job's completion and the chain's next arrival;
// completions record the (already decided) sojourn into the handling
// worker's shard.
func (c *Cluster) Handle(worker int, ev Event, push Pusher) {
	switch ev.Kind {
	case evArrival:
		st := &c.stations[ev.A]
		tenant := c.zipf.Sample(&st.rng)
		svc := uint64(c.pareto.Sample(&st.rng))
		if svc == 0 {
			svc = 1
		}
		start := st.busyUntil
		if ev.T > start {
			start = ev.T
		}
		finish := start + svc
		st.busyUntil = finish
		push(Event{T: finish, Kind: evCompletion, A: uint32(tenant), B: uint32(finish - ev.T)})
		st.done++
		if st.done < c.cfg.ArrivalsPerStation {
			push(Event{T: ev.T + c.gap(st), Kind: evArrival, A: ev.A})
		}
	case evCompletion:
		sh := &c.shards[worker]
		sh.completed++
		sh.checksum += mix64(ev.T ^ uint64(ev.A)<<40 ^ uint64(ev.B))
		c.hists[worker*clusterTenants+int(ev.A)].Record(uint64(ev.B) + 1)
	default:
		panic(fmt.Sprintf("desim: cluster got unknown event kind %d", ev.Kind))
	}
}

// Checksum is the commutative digest of every completion (finish time,
// tenant, sojourn). Two schedulers that simulated the same cluster
// produce the same value; a lost, duplicated or corrupted event breaks
// it with probability ~1.
func (c *Cluster) Checksum() uint64 {
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].checksum
	}
	return mix64(sum ^ c.Completed())
}

// Completed sums completions across worker shards.
func (c *Cluster) Completed() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].completed
	}
	return n
}

// mix64 is the splitmix64 finalizer — the repository's standard bit
// mixer for checksums and derived seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
