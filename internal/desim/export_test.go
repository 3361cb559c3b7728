package desim

import "repro/internal/perfbench"

// TenantSojourn is one tenant's slice of a cluster simulation. Sojourn
// percentiles are in simulated ticks, not nanoseconds: they describe the
// modelled system, so they must be identical across schedulers, not
// merely close.
type TenantSojourn struct {
	Completed      uint64
	P50, P99, P999 uint64
}

// PerTenant merges the worker-sharded histograms into per-tenant
// sojourn percentiles, indexed by tenant (ticks, +1 recording offset
// removed by no one: the offset is identical across schedulers, so the
// identity contract is unaffected).
func (c *Cluster) PerTenant() []TenantSojourn {
	out := make([]TenantSojourn, clusterTenants)
	for t := range out {
		var merged perfbench.Histogram
		for w := 0; w < c.cfg.Workers; w++ {
			merged.Merge(&c.hists[w*clusterTenants+t])
		}
		out[t] = TenantSojourn{
			Completed: merged.Count(),
			P50:       merged.Quantile(0.50),
			P99:       merged.Quantile(0.99),
			P999:      merged.Quantile(0.999),
		}
	}
	return out
}
