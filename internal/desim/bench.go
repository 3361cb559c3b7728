package desim

import (
	"fmt"
	"runtime"

	"repro/internal/perfbench"
	"repro/internal/zoo"
)

// BenchReport is the desim artifact written by `smqsim -out`: the
// perfbench header plus one simulation run per (scheduler, model).
type BenchReport struct {
	perfbench.Header
	Desim []DesimResult `json:"desim"`
}

// DesimResult is one scheduler's discrete-event simulation run: a
// simulation model's event population pushed through the
// scheduler at priority = timestamp, with pops outside the
// safe-lookahead window counted as causality violations. For a
// scheduler whose rank-error bound is exact (k-LSM, coarse) and whose
// window covers the bound, violations must be zero — ValidateBench enforces
// exactly that, so a committed artifact is a machine-checked safety
// claim, not a report of a lucky run.
type DesimResult struct {
	Scheduler string `json:"scheduler"`
	// Model names the simulation model ("cluster" or "dag").
	Model   string `json:"model"`
	Workers int    `json:"workers"`
	Seed    uint64 `json:"seed"`
	// Events is the number of simulation events executed.
	Events       uint64  `json:"events"`
	DurationNs   int64   `json:"duration_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	// RankBound is the scheduler's rank-error bound at this worker
	// count (-1 = no usable bound); BoundExact says whether it is a
	// worst-case guarantee or an expectation-scale estimate.
	RankBound  int64 `json:"rank_bound"`
	BoundExact bool  `json:"bound_exact"`
	// Lookahead is the safe-lookahead window the run was checked
	// against, in rank units (-1 = unchecked).
	Lookahead int64 `json:"lookahead"`
	// BoundSource labels where the window came from:
	// "exact" (worst-case rank-bound guarantee — zero violations is a
	// hard validation rule), "expectation" (expectation-scale estimate
	// — violations are informative, not fatal), or "unchecked"
	// (lookahead −1: no usable bound, no causality claim).
	BoundSource string `json:"bound_source,omitempty"`
	// Violations counts pops that ran ahead of the window while
	// smaller-timestamp events were still pending.
	Violations uint64 `json:"causality_violations"`
	// MaxLead / MeanLead describe observed lookahead occupancy: how
	// many smaller-timestamp events were pending at pop time.
	MaxLead  int64   `json:"max_lead"`
	MeanLead float64 `json:"mean_lead"`
	// Checksum is the model's order-independent state digest; equal
	// checksums across schedulers certify identical simulated outcomes.
	Checksum uint64 `json:"checksum"`
	// PerTenant is the cluster model's per-tenant simulated-sojourn
	// breakdown (empty for models without tenants).
	PerTenant []TenantDesimResult `json:"per_tenant,omitempty"`
}

// TenantDesimResult is one tenant's slice of a cluster simulation.
// Sojourn percentiles are in simulated time units (ticks), not
// nanoseconds: they describe the modelled system, so they must be
// identical across schedulers, not merely close.
type TenantDesimResult struct {
	Tenant    int    `json:"tenant"`
	Completed uint64 `json:"completed"`
	P50       uint64 `json:"sojourn_p50"`
	P99       uint64 `json:"sojourn_p99"`
	P999      uint64 `json:"sojourn_p999"`
}

// ValidateBench checks a desim artifact against the schema contract:
// the header, every run's internal consistency, and one run per
// (scheduler, model). RunBench applies it before returning and
// cmd/benchcheck to the bytes on disk.
func ValidateBench(r *BenchReport) error {
	if err := r.Header.Validate(); err != nil {
		return err
	}
	if len(r.Desim) == 0 {
		return fmt.Errorf("perfbench: no desim results")
	}
	seenDesim := make(map[string]bool, len(r.Desim))
	for i := range r.Desim {
		dr := &r.Desim[i]
		if err := validateDesim(dr); err != nil {
			return err
		}
		key := dr.Scheduler + "/" + dr.Model
		if seenDesim[key] {
			return fmt.Errorf("perfbench: duplicate desim run %q", key)
		}
		seenDesim[key] = true
	}
	return nil
}

// validateDesim checks one simulation run's internal consistency. The
// load-bearing rule is the safety claim: a scheduler with an exact
// rank-error bound, checked with a window at least that bound, must
// report zero causality violations — a violation there means either the
// scheduler or the window derivation is wrong, and the artifact must
// not be committable.
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

// BenchConfig parameterizes a desim run: each named
// scheduler simulates each requested model with a fresh model instance
// and a safe-lookahead window derived from the scheduler's own
// rank-error bound.
type BenchConfig struct {
	// Workers is the worker count (scheduler slots and goroutines).
	// 0 means GOMAXPROCS.
	Workers int
	// Schedulers restricts the zoo lineup; nil runs DefaultLineup().
	Schedulers []string
	// Models restricts the model set ("cluster", "dag"); nil runs both.
	Models []string
	// Events is the approximate event count per cluster run (exact
	// count rounds to the station grid). 0 means 2_000_000.
	Events int
	// Stations / Tenants shape the cluster model. Zeros mean the
	// ClusterConfig defaults.
	Stations, Tenants int
	// Layers / Width shape the DAG model. Zeros mean the DAGConfig
	// defaults.
	Layers, Width int
	// Seed makes every simulation reproducible. 0 means 1.
	Seed uint64
	// GeneratedBy labels the report ("" means "smqsim").
	GeneratedBy string
}

func (c *BenchConfig) normalize() error {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Schedulers) == 0 {
		c.Schedulers = DefaultLineup()
	}
	if len(c.Models) == 0 {
		c.Models = []string{"cluster", "dag"}
	}
	if c.Events <= 0 {
		c.Events = 2_000_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.GeneratedBy == "" {
		c.GeneratedBy = "smqsim"
	}
	for _, m := range c.Models {
		if m != "cluster" && m != "dag" {
			return fmt.Errorf("desim: unknown model %q (known: cluster, dag)", m)
		}
	}
	return nil
}

// DefaultLineup is the trajectory's default scheduler slate: the full
// zoo registry, exact baseline first.
func DefaultLineup() []string { return zoo.Names() }

// model unifies the built-in models behind the extra accessors the
// report needs beyond the Model interface.
type model interface {
	Model
	Events() uint64
}

// buildModel constructs a fresh instance of the named model.
func (c *BenchConfig) buildModel(name string) (model, error) {
	switch name {
	case "cluster":
		stations := c.Stations
		if stations <= 0 {
			stations = 64
		}
		per := c.Events / (2 * stations)
		return NewCluster(ClusterConfig{
			Stations:           stations,
			ArrivalsPerStation: per,
			Tenants:            c.Tenants,
			Workers:            c.Workers,
			Seed:               c.Seed,
		})
	case "dag":
		return NewDAG(DAGConfig{
			Layers:  c.Layers,
			Width:   c.Width,
			Workers: c.Workers,
			Seed:    c.Seed,
		})
	}
	return nil, fmt.Errorf("desim: unknown model %q", name)
}

// BoundSource labels the provenance of a simulation's causality
// window for the report: "exact" for a worst-case rank-bound
// guarantee, "expectation" for an expectation-scale estimate, and
// "unchecked" for a lookahead of −1 (no usable bound, no claim).
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

// RunOne simulates one model on one named scheduler. The lookahead
// window is the scheduler's RankBound at this worker count; schedulers
// without a usable bound run unchecked (lookahead −1), so the result
// records throughput but makes no causality claim — BoundSource labels
// that distinction explicitly in the artifact.
func RunOne(name, modelName string, cfg BenchConfig) (DesimResult, error) {
	if err := cfg.normalize(); err != nil {
		return DesimResult{}, err
	}
	spec, ok := zoo.Lookup[Event](name)
	if !ok {
		return DesimResult{}, fmt.Errorf("desim: unknown scheduler %q (known: %v)", name, zoo.Names())
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
	s := spec.Build(cfg.Workers, cfg.Seed)
	stats, err := Run(s, m, Config{Workers: cfg.Workers, Lookahead: lookahead})
	if err != nil {
		return DesimResult{}, err
	}
	if want := m.Events(); stats.Events != want {
		return DesimResult{}, fmt.Errorf("desim: %s/%s executed %d events, model defines %d (lost or duplicated events)",
			name, modelName, stats.Events, want)
	}
	dr := DesimResult{
		Scheduler:    name,
		Model:        m.Name(),
		Workers:      cfg.Workers,
		Seed:         cfg.Seed,
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
	return dr, nil
}

// RunBench runs the configured scheduler × model grid and assembles a
// validated schema-versioned report. Beyond per-run validation it enforces the
// cross-run contract the models promise: every scheduler simulating the
// same model must report the same checksum as the first.
func RunBench(cfg BenchConfig) (*BenchReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := &BenchReport{Header: perfbench.NewHeader(cfg.GeneratedBy)}
	r.Seed = cfg.Seed
	want := make(map[string]uint64, len(cfg.Models))
	for _, modelName := range cfg.Models {
		for _, name := range cfg.Schedulers {
			dr, err := RunOne(name, modelName, cfg)
			if err != nil {
				return nil, err
			}
			if w, ok := want[modelName]; !ok {
				want[modelName] = dr.Checksum
			} else if dr.Checksum != w {
				return nil, fmt.Errorf("desim: %s/%s checksum %#x diverges from %s baseline %#x",
					name, modelName, dr.Checksum, cfg.Schedulers[0], w)
			}
			r.Desim = append(r.Desim, dr)
		}
	}
	if err := ValidateBench(r); err != nil {
		return nil, fmt.Errorf("desim: generated report failed validation: %w", err)
	}
	return r, nil
}
