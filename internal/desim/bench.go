package desim

import (
	"fmt"

	"repro/internal/zoo"
)

// DesimResult is one scheduler's discrete-event simulation run: a
// simulation model's event population pushed through the
// scheduler at priority = timestamp, with pops outside the
// safe-lookahead window counted as causality violations. For a
// scheduler whose rank-error bound is exact (k-LSM, coarse) and whose
// window covers the bound, violations must be zero — validateDesim
// enforces exactly that, so a reported run is a machine-checked safety
// claim, not a report of a lucky run.
type DesimResult struct {
	Scheduler string
	// Model names the simulation model ("cluster" or "dag").
	Model   string
	Workers int
	// Events is the number of simulation events executed.
	Events       uint64
	DurationNs   int64
	EventsPerSec float64
	// RankBound is the scheduler's rank-error bound at this worker
	// count (-1 = no usable bound); BoundExact says whether it is a
	// worst-case guarantee or an expectation-scale estimate.
	RankBound  int64
	BoundExact bool
	// Lookahead is the safe-lookahead window the run was checked
	// against, in rank units (-1 = unchecked).
	Lookahead int64
	// BoundSource labels where the window came from:
	// "exact" (worst-case rank-bound guarantee — zero violations is a
	// hard validation rule), "expectation" (expectation-scale estimate
	// — violations are informative, not fatal), or "unchecked"
	// (lookahead −1: no usable bound, no causality claim).
	BoundSource string
	// Violations counts pops that ran ahead of the window while
	// smaller-timestamp events were still pending.
	Violations uint64
	// MaxLead / MeanLead describe observed lookahead occupancy: how
	// many smaller-timestamp events were pending at pop time.
	MaxLead  int64
	MeanLead float64
	// Checksum is the model's order-independent state digest; equal
	// checksums across schedulers certify identical simulated outcomes.
	Checksum uint64
	// PerTenant is the cluster model's per-tenant simulated-sojourn
	// breakdown (empty for models without tenants).
	PerTenant []TenantDesimResult
}

// TenantDesimResult is one tenant's slice of a cluster simulation.
// Sojourn percentiles are in simulated time units (ticks), not
// nanoseconds: they describe the modelled system, so they must be
// identical across schedulers, not merely close.
type TenantDesimResult struct {
	Tenant    int
	Completed uint64
	P50       uint64
	P99       uint64
	P999      uint64
}

// validateDesim checks one simulation run's internal consistency. The
// load-bearing rule is the safety claim: a scheduler with an exact
// rank-error bound, checked with a window at least that bound, must
// report zero causality violations — a violation there means either the
// scheduler or the window derivation is wrong, and the run must not be
// reported. RunOne applies it before returning.
func validateDesim(dr *DesimResult) error {
	if dr.Scheduler == "" || dr.Model == "" {
		return fmt.Errorf("perfbench: desim result with empty scheduler/model name")
	}
	tag := dr.Scheduler + "/" + dr.Model
	// BoundSource must exist and agree with the fields it summarizes.
	switch dr.BoundSource {
	case "exact":
		if !dr.BoundExact || dr.RankBound < 0 || dr.Lookahead < 0 {
			return fmt.Errorf("perfbench: desim %s: bound_source exact contradicts bound_exact=%t rank_bound=%d lookahead=%d",
				tag, dr.BoundExact, dr.RankBound, dr.Lookahead)
		}
	case "expectation":
		if dr.BoundExact || dr.Lookahead < 0 {
			return fmt.Errorf("perfbench: desim %s: bound_source expectation contradicts bound_exact=%t lookahead=%d",
				tag, dr.BoundExact, dr.Lookahead)
		}
	case "unchecked":
		if dr.Lookahead >= 0 {
			return fmt.Errorf("perfbench: desim %s: bound_source unchecked but lookahead %d >= 0", tag, dr.Lookahead)
		}
	default:
		return fmt.Errorf("perfbench: desim %s: bound_source %q, want exact/expectation/unchecked", tag, dr.BoundSource)
	}
	if dr.Workers < 1 {
		return fmt.Errorf("perfbench: desim %s: workers = %d", tag, dr.Workers)
	}
	if dr.Events == 0 {
		return fmt.Errorf("perfbench: desim %s: empty run", tag)
	}
	if dr.DurationNs <= 0 || dr.EventsPerSec <= 0 {
		return fmt.Errorf("perfbench: desim %s: non-positive duration/throughput", tag)
	}
	if dr.RankBound < -1 || dr.Lookahead < -1 {
		return fmt.Errorf("perfbench: desim %s: rank_bound/lookahead below -1", tag)
	}
	if dr.Lookahead >= 0 {
		if dr.MaxLead < 0 || dr.MeanLead < 0 {
			return fmt.Errorf("perfbench: desim %s: negative lookahead occupancy", tag)
		}
		if float64(dr.MaxLead) < dr.MeanLead {
			return fmt.Errorf("perfbench: desim %s: max_lead %d below mean_lead %g", tag, dr.MaxLead, dr.MeanLead)
		}
	} else if dr.Violations != 0 {
		return fmt.Errorf("perfbench: desim %s: violations reported by an unchecked run", tag)
	}
	if dr.BoundExact && dr.RankBound >= 0 && dr.Lookahead >= dr.RankBound && dr.Violations > 0 {
		return fmt.Errorf("perfbench: desim %s: %d causality violations with lookahead %d >= exact bound %d",
			tag, dr.Violations, dr.Lookahead, dr.RankBound)
	}
	for i, ten := range dr.PerTenant {
		if ten.Tenant != i {
			return fmt.Errorf("perfbench: desim %s: per_tenant[%d] has tenant id %d", tag, i, ten.Tenant)
		}
		if ten.Completed > 0 {
			if ten.P50 == 0 || ten.P99 == 0 || ten.P999 == 0 {
				return fmt.Errorf("perfbench: desim %s: tenant %d: missing sojourn percentiles", tag, i)
			}
			if ten.P50 > ten.P99 || ten.P99 > ten.P999 {
				return fmt.Errorf("perfbench: desim %s: tenant %d: non-monotone sojourn percentiles (p50=%d p99=%d p99.9=%d)",
					tag, i, ten.P50, ten.P99, ten.P999)
			}
		}
	}
	return nil
}

// BenchConfig parameterizes one simulation run: a fresh model instance
// on one scheduler, with a safe-lookahead window derived from the
// scheduler's own rank-error bound.
type BenchConfig struct {
	// Workers is the worker count (scheduler slots and goroutines).
	// Required.
	Workers int
	// Events is the approximate event count of a cluster run (exact
	// count rounds to the station grid). 0 means the ClusterConfig
	// default.
	Events int
	// Layers shapes the DAG model. 0 means the DAGConfig default.
	Layers int
	// Seed makes the simulation reproducible: the model and the
	// scheduler are both seeded from it.
	Seed uint64
}

// model unifies the built-in models behind the extra accessors the
// report needs beyond the Model interface.
type model interface {
	Model
	Events() uint64
}

// clusterStations is the cluster model's station count in RunOne.
const clusterStations = 64

// buildModel constructs a fresh instance of the named model.
func (c *BenchConfig) buildModel(name string) (model, error) {
	switch name {
	case "cluster":
		return NewCluster(ClusterConfig{
			Stations:           clusterStations,
			ArrivalsPerStation: c.Events / (2 * clusterStations),
			Workers:            c.Workers,
			Seed:               c.Seed,
		})
	case "dag":
		return NewDAG(DAGConfig{Layers: c.Layers, Workers: c.Workers, Seed: c.Seed})
	}
	return nil, fmt.Errorf("desim: unknown model %q (known: cluster, dag)", name)
}

// BoundSource labels the provenance of a simulation's causality
// window: "exact" for a worst-case rank-bound guarantee, "expectation"
// for an expectation-scale estimate, and "unchecked" for a lookahead of
// −1 (no usable bound, no claim).
func BoundSource(bound int64, exact bool) string {
	switch {
	case bound < 0:
		return "unchecked"
	case exact:
		return "exact"
	default:
		return "expectation"
	}
}

// RunOne simulates one model on the scheduler spec describes. The
// lookahead window is the spec's RankBound at this worker count;
// schedulers without a usable bound run unchecked (lookahead −1), so the
// result records throughput but makes no causality claim — BoundSource
// labels that distinction. The run is validated by validateDesim before
// return, so a violation under a covering exact bound is an error. A
// zero spec — what zoo.Lookup returns for an unknown name — is an error
// too.
func RunOne(spec zoo.Spec[Event], modelName string, cfg BenchConfig) (DesimResult, error) {
	if spec.Make == nil {
		return DesimResult{}, fmt.Errorf("desim: unknown scheduler %q (known: %v)", spec.Name, zoo.Names())
	}
	m, err := cfg.buildModel(modelName)
	if err != nil {
		return DesimResult{}, err
	}
	bound, exact := spec.RankBound(cfg.Workers)
	lookahead := bound
	if bound < 0 {
		lookahead = -1
	}
	stats, err := Run(spec.Make(cfg.Workers, cfg.Seed), m, Config{Workers: cfg.Workers, Lookahead: lookahead})
	if err != nil {
		return DesimResult{}, err
	}
	if want := m.Events(); stats.Events != want {
		return DesimResult{}, fmt.Errorf("desim: %s/%s executed %d events, model defines %d (lost or duplicated events)",
			spec.Name, modelName, stats.Events, want)
	}
	dr := DesimResult{
		Scheduler:    spec.Name,
		Model:        m.Name(),
		Workers:      cfg.Workers,
		Events:       stats.Events,
		DurationNs:   stats.Duration.Nanoseconds(),
		EventsPerSec: float64(stats.Events) / stats.Duration.Seconds(),
		RankBound:    bound,
		BoundExact:   exact,
		Lookahead:    lookahead,
		BoundSource:  BoundSource(bound, exact),
		Violations:   stats.Violations,
		MaxLead:      stats.MaxLead,
		MeanLead:     stats.MeanLead,
		Checksum:     m.Checksum(),
	}
	if cl, ok := m.(*Cluster); ok {
		dr.PerTenant = cl.PerTenant()
	}
	if err := validateDesim(&dr); err != nil {
		return DesimResult{}, fmt.Errorf("desim: run fails validation: %w", err)
	}
	return dr, nil
}
