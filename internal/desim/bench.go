package desim

import (
	"fmt"
	"runtime"

	"repro/internal/perfbench"
	"repro/internal/zoo"
)

// BenchConfig parameterizes a desim trajectory run: each named
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
func RunOne(name, modelName string, cfg BenchConfig) (perfbench.DesimResult, error) {
	if err := cfg.normalize(); err != nil {
		return perfbench.DesimResult{}, err
	}
	spec, ok := zoo.Lookup[Event](name)
	if !ok {
		return perfbench.DesimResult{}, fmt.Errorf("desim: unknown scheduler %q (known: %v)", name, zoo.Names())
	}
	m, err := cfg.buildModel(modelName)
	if err != nil {
		return perfbench.DesimResult{}, err
	}
	bound, exact := spec.RankBound(cfg.Workers)
	lookahead := bound
	if bound < 0 {
		lookahead = -1
	}
	s := spec.Build(cfg.Workers, cfg.Seed)
	stats, err := Run(s, m, Config{Workers: cfg.Workers, Lookahead: lookahead})
	if err != nil {
		return perfbench.DesimResult{}, err
	}
	if want := m.Events(); stats.Events != want {
		return perfbench.DesimResult{}, fmt.Errorf("desim: %s/%s executed %d events, model defines %d (lost or duplicated events)",
			name, modelName, stats.Events, want)
	}
	dr := perfbench.DesimResult{
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
func RunBench(cfg BenchConfig) (*perfbench.Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := &perfbench.Report{
		SchemaVersion: perfbench.SchemaVersion,
		GeneratedBy:   cfg.GeneratedBy,
		Host:          perfbench.CollectHost(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       cfg.Workers,
		Seed:          cfg.Seed,
	}
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
	if err := perfbench.Validate(r); err != nil {
		return nil, fmt.Errorf("desim: generated report failed validation: %w", err)
	}
	return r, nil
}
