package sched_test

// The zoo-wide config contract: every scheduler's *Config exposes
// Validate() error and construction applies documented defaults
// uniformly. This table drives invalid values through every Validate
// and asserts they error — instead of panicking or silently clamping —
// and that the valid anchor configuration both validates and builds.

import (
	"math"
	"testing"

	"repro/internal/cbpq"
	"repro/internal/coarse"
	"repro/internal/core"
	"repro/internal/klsm"
	"repro/internal/mq"
	"repro/internal/obim"
	"repro/internal/sched"
	"repro/internal/spray"
)

type validator interface{ Validate() error }

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name  string
		cfg   validator
		valid bool
		build func() sched.Scheduler[int] // set on the valid anchor rows
	}{
		// SMQ (core)
		{name: "core/valid", cfg: core.Config{Workers: 2}, valid: true,
			build: func() sched.Scheduler[int] { return core.NewStealingMQ[int](core.Config{Workers: 2}) }},
		{name: "core/negative StealProb is documented", cfg: core.Config{Workers: 2, StealProb: -1}, valid: true},
		{name: "core/zero workers", cfg: core.Config{}, valid: false},
		{name: "core/negative workers", cfg: core.Config{Workers: -4}, valid: false},
		{name: "core/StealProb above 1", cfg: core.Config{Workers: 2, StealProb: 1.5}, valid: false},
		{name: "core/negative StealSize", cfg: core.Config{Workers: 2, StealSize: -1}, valid: false},
		{name: "core/negative NUMAWeightK", cfg: core.Config{Workers: 2, NUMAWeightK: -8}, valid: false},
		{name: "core/NaN StealProb", cfg: core.Config{Workers: 2, StealProb: math.NaN()}, valid: false},
		{name: "core/NaN NUMAWeightK", cfg: core.Config{Workers: 2, NUMAWeightK: math.NaN()}, valid: false},
		{name: "core/infinite NUMAWeightK", cfg: core.Config{Workers: 2, NUMAWeightK: math.Inf(1)}, valid: false},
		{name: "core/huge NUMAWeightK builds", cfg: core.Config{Workers: 2, NUMANodes: 2, NUMAWeightK: 1e17}, valid: true,
			build: func() sched.Scheduler[int] {
				return core.NewStealingMQ[int](core.Config{Workers: 2, NUMANodes: 2, NUMAWeightK: 1e17})
			}},

		// Classic MQ family
		{name: "mq/valid", cfg: mq.Classic(2, 4), valid: true,
			build: func() sched.Scheduler[int] { return mq.New[int](mq.Classic(2, 4)) }},
		{name: "mq/valid RELD", cfg: mq.RELD(2), valid: true},
		{name: "mq/zero workers", cfg: mq.Config{}, valid: false},
		{name: "mq/negative C", cfg: mq.Config{Workers: 2, C: -1}, valid: false},
		{name: "mq/PInsertChange above 1", cfg: mq.Config{Workers: 2, PInsertChange: 2}, valid: false},
		{name: "mq/negative PDeleteChange", cfg: mq.Config{Workers: 2, PDeleteChange: -0.5}, valid: false},
		{name: "mq/negative BatchDelete", cfg: mq.Config{Workers: 2, BatchDelete: -8}, valid: false},
		{name: "mq/unknown delete policy", cfg: mq.Config{Workers: 2, Delete: 99}, valid: false},
		{name: "mq/NaN PInsertChange", cfg: mq.Config{Workers: 2, PInsertChange: math.NaN()}, valid: false},
		{name: "mq/NaN PDeleteChange", cfg: mq.Config{Workers: 2, PDeleteChange: math.NaN()}, valid: false},
		{name: "mq/NaN NUMAWeightK", cfg: mq.Config{Workers: 2, NUMAWeightK: math.NaN()}, valid: false},
		{name: "mq/infinite NUMAWeightK", cfg: mq.Config{Workers: 2, NUMAWeightK: math.Inf(1)}, valid: false},

		// The engineered MultiQueue: stickiness on the buffered, peeking MQ
		{name: "emq/valid", cfg: mq.Engineered(2), valid: true,
			build: func() sched.Scheduler[int] { return mq.New[int](mq.Engineered(2)) }},
		{name: "emq/zero workers", cfg: mq.Engineered(0), valid: false},
		{name: "emq/negative Stickiness", cfg: engineered(func(c *mq.Config) { c.Workers, c.Stickiness = 2, -16 }), valid: false},
		{name: "emq/negative InsertBuffer", cfg: engineered(func(c *mq.Config) { c.Workers, c.BatchInsert = 2, -1 }), valid: false},
		{name: "emq/HeapArity 1", cfg: engineered(func(c *mq.Config) { c.Workers, c.HeapArity = 2, 1 }), valid: false},
		{name: "emq/Stickiness without InsertBatch", cfg: engineered(func(c *mq.Config) {
			c.Workers, c.Insert = 2, mq.InsertTemporalLocality
		}), valid: false},
		{name: "emq/Stickiness without DeleteBatch", cfg: engineered(func(c *mq.Config) {
			c.Workers, c.Delete = 2, mq.DeleteTemporalLocality
		}), valid: false},
		{name: "emq/Stickiness without PeekTops", cfg: engineered(func(c *mq.Config) { c.Workers, c.PeekTops = 2, false }), valid: false},

		// k-LSM
		{name: "klsm/valid", cfg: klsm.Config{Workers: 2}, valid: true,
			build: func() sched.Scheduler[int] { return klsm.New[int](klsm.Config{Workers: 2}) }},
		{name: "klsm/valid strict sentinel", cfg: klsm.Config{Workers: 2, Relaxation: klsm.Strict}, valid: true},
		{name: "klsm/zero workers", cfg: klsm.Config{}, valid: false},
		{name: "klsm/relaxation below Strict", cfg: klsm.Config{Workers: 2, Relaxation: klsm.Strict - 1}, valid: false},
		{name: "klsm/very negative relaxation", cfg: klsm.Config{Workers: 2, Relaxation: -256}, valid: false},

		// OBIM / PMOD
		{name: "obim/valid", cfg: obim.Config{Workers: 2}, valid: true,
			build: func() sched.Scheduler[int] { return obim.New[int](obim.Config{Workers: 2}) }},
		{name: "obim/zero workers", cfg: obim.Config{}, valid: false},
		{name: "obim/Delta above 63", cfg: obim.Config{Workers: 2, Delta: 64}, valid: false},
		{name: "obim/negative ChunkSize", cfg: obim.Config{Workers: 2, ChunkSize: -1}, valid: false},
		{name: "obim/PruneBags 1", cfg: obim.Config{Workers: 2, PruneBags: 1}, valid: false},

		// SprayList
		{name: "spray/valid", cfg: spray.Config{Workers: 2}, valid: true,
			build: func() sched.Scheduler[int] { return spray.New[int](spray.Config{Workers: 2}) }},
		{name: "spray/zero workers", cfg: spray.Config{}, valid: false},

		// Coarse strawman
		{name: "coarse/valid", cfg: coarse.Config{Workers: 2}, valid: true,
			build: func() sched.Scheduler[int] { return coarse.New[int](coarse.Config{Workers: 2}) }},
		{name: "coarse/zero workers", cfg: coarse.Config{}, valid: false},

		// Lock-free CBPQ
		{name: "cbpq/valid", cfg: cbpq.Config{Workers: 2}, valid: true,
			build: func() sched.Scheduler[int] { return cbpq.New[int](cbpq.Config{Workers: 2}) }},
		{name: "cbpq/valid small chunk", cfg: cbpq.Config{Workers: 2, ChunkCap: 4}, valid: true},
		{name: "cbpq/zero workers", cfg: cbpq.Config{}, valid: false},
		{name: "cbpq/ChunkCap below 4", cfg: cbpq.Config{Workers: 2, ChunkCap: 3}, valid: false},
		{name: "cbpq/ChunkCap above 65536", cfg: cbpq.Config{Workers: 2, ChunkCap: 1 << 17}, valid: false},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.valid && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.valid && err == nil {
				t.Fatalf("Validate() = nil, want error")
			}
			if tc.build != nil {
				if s := tc.build(); s.Workers() != 2 {
					t.Fatalf("built scheduler has %d workers, want 2", s.Workers())
				}
			}
		})
	}
}

// TestInvalidConfigPanicsWithValidateError pins the construction-time
// contract: New panics with the Validate error (it cannot return one
// without breaking every construction call site), so Validate-first
// callers never see the panic.
func TestInvalidConfigPanicsWithValidateError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New on an invalid config did not panic")
		}
	}()
	klsm.New[int](klsm.Config{Workers: 2, Relaxation: -7})
}
