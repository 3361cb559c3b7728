package serve

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/xrand"
)

// LoadConfig parameterizes the open-loop load generator.
type LoadConfig struct {
	// Rate is the target arrival rate in tasks per second.
	Rate float64
	// Tasks is the total number of requests to offer.
	Tasks int
	// Tenants is the number of traffic classes; tenant identities are
	// drawn Zipf(Skew), so tenant 0 is the heaviest class. Skew 0 is
	// uniform.
	Tenants int
	Skew    float64
	// CostMin/CostMax bound the service costs, drawn from a bounded
	// Pareto of tail exponent costAlpha (heavy-ish tail, as real
	// request costs are). Zeros mean 50..2000 spin units.
	CostMin, CostMax float64
	// Burst quantizes arrivals: requests are scheduled in bursts of
	// this many at the burst's start instant, keeping the long-run
	// rate. 0 or 1 means smooth arrivals.
	Burst int
	// Seed makes the tenant/cost streams reproducible. 0 means 1.
	Seed uint64
}

func (c *LoadConfig) normalize() error {
	// The whole schedule must fit a time.Duration: a rate so low that it
	// does not (1e-300, say) made every arrival time overflow.
	if !(c.Rate > 0) || math.IsInf(c.Rate, 0) || !(float64(c.Tasks)*float64(time.Second)/c.Rate < math.MaxInt64) {
		return fmt.Errorf("serve: load rate %g", c.Rate)
	}
	if c.Tasks <= 0 {
		return fmt.Errorf("serve: load tasks %d", c.Tasks)
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if !(c.Skew >= 0) || math.IsInf(c.Skew, 0) {
		return fmt.Errorf("serve: load tenant skew %g", c.Skew)
	}
	if c.CostMin == 0 && c.CostMax == 0 {
		c.CostMin, c.CostMax = 50, 2000
	}
	// Costs are drawn as float64 and carried as uint32 spin units.
	if !(c.CostMin > 0) || !(c.CostMax >= c.CostMin) || !(c.CostMax <= math.MaxUint32) {
		return fmt.Errorf("serve: load cost range [%g, %g]", c.CostMin, c.CostMax)
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// costAlpha is the tail exponent of the service costs' bounded Pareto.
const costAlpha = 1.1

// LoadStats reports what the generator actually offered.
type LoadStats struct {
	// Sent is the number of requests pushed into the channel.
	Sent int
	// MaxLag is the worst lateness of an actual send behind its
	// scheduled arrival — how far the generator itself fell behind
	// (channel backpressure or CPU contention). Latency accounting is
	// unaffected (sojourn is measured from the scheduled arrival), but
	// a lag approaching the run duration means the offered rate was
	// not actually sustained.
	MaxLag time.Duration
}

// pacingSlack is the stretch before a scheduled arrival the generator
// covers by yielding instead of sleeping: a sleep's wake-up overshoot
// at this scale would blow past the slot, and sending EARLY is not an
// option (a request completing before its scheduled arrival would
// record a negative sojourn).
const pacingSlack = 200 * time.Microsecond

// Generate offers cfg.Tasks requests into in at cfg.Rate, open-loop:
// arrival timestamps follow the schedule regardless of how fast the
// service drains, so queueing delay during overload is charged to the
// service (the standard defence against coordinated omission). It
// blocks until all requests are sent; the caller closes the channel.
func Generate(in chan<- Request, epoch time.Time, cfg LoadConfig) (LoadStats, error) {
	if err := cfg.normalize(); err != nil {
		return LoadStats{}, err
	}
	z := xrand.NewZipf(cfg.Tenants, cfg.Skew)
	costs := xrand.NewBoundedPareto(cfg.CostMin, cfg.CostMax, costAlpha)
	r := xrand.New(cfg.Seed)
	base := time.Since(epoch)
	interval := float64(time.Second) / cfg.Rate
	var st LoadStats
	for i := 0; i < cfg.Tasks; i++ {
		// Burst-quantized schedule: task i arrives at its burst's
		// start instant.
		sched := base + time.Duration(float64((i/cfg.Burst)*cfg.Burst)*interval)
		for {
			now := time.Since(epoch)
			ahead := sched - now
			if ahead <= 0 {
				if lag := -ahead; lag > st.MaxLag {
					st.MaxLag = lag
				}
				break
			}
			if ahead > pacingSlack {
				time.Sleep(ahead - pacingSlack)
			} else {
				runtime.Gosched()
			}
		}
		in <- Request{
			Tenant: z.Sample(r),
			Cost:   uint32(costs.Sample(r)),
			Enq:    sched.Nanoseconds(),
		}
		st.Sent++
	}
	return st, nil
}
