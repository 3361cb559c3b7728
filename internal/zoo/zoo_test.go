package zoo

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cbpq"
	"repro/internal/coarse"
	"repro/internal/core"
	"repro/internal/klsm"
	"repro/internal/mq"
	"repro/internal/obim"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/spray"
	"repro/internal/xrand"
)

// TestLineupBuildsEverySpec constructs every registered scheduler at a
// small worker count, seeded and unseeded, and runs a push/pop smoke
// through worker 0.
func TestLineupBuildsEverySpec(t *testing.T) {
	for _, spec := range Lineup[int]() {
		for _, seed := range []uint64{0, 42} {
			s := spec.Make(2, seed)
			if s.Workers() != 2 {
				t.Fatalf("%s: Workers() = %d, want 2", spec.Name, s.Workers())
			}
			w := s.Worker(0)
			w.Push(7, 1)
			p, v, ok := w.Pop()
			if !ok || p != 7 || v != 1 {
				t.Fatalf("%s: pop = (%d,%d,%t), want (7,1,true)", spec.Name, p, v, ok)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup[int]("no-such-scheduler"); ok {
		t.Fatal("Lookup found a scheduler that does not exist")
	}
	sp, ok := Lookup[uint32]("klsm")
	if !ok || sp.Name != "klsm" {
		t.Fatalf("Lookup(klsm) = (%q, %t)", sp.Name, ok)
	}
}

// TestNamesPinned pins the registry's names and order: BENCHMARK.json
// resolves every one of them through smq.LookupSpec, and the serve and
// desim default lineups start with the exact baseline.
func TestNamesPinned(t *testing.T) {
	want := []string{"coarse", "cbpq", "cbpq-elim", "mq", "mq-batch", "emq",
		"smq", "smq-skip", "reld", "klsm", "obim", "pmod", "spray"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// lockstepDrain pushes a seeded priority stream through both workers of
// s in turn and then pops alternately until everything is out, all on
// this goroutine, so the pop order and Stats are a deterministic
// function of the scheduler's configuration.
func lockstepDrain(t *testing.T, s sched.Scheduler[int]) ([]uint64, sched.Stats) {
	t.Helper()
	const n = 3000
	ws := []sched.Worker[int]{s.Worker(0), s.Worker(1)}
	rng := xrand.New(7)
	for i := 0; i < n; i++ {
		ws[i%2].Push(rng.Uint64()%100000, i)
	}
	order := make([]uint64, 0, n)
	for i := 0; len(order) < n; i++ {
		if i > 100*n {
			t.Fatalf("drain stuck after %d of %d pops", len(order), n)
		}
		if p, _, ok := ws[i%2].Pop(); ok {
			order = append(order, p)
		}
	}
	return order, s.Stats()
}

// TestLineupBuildsTheWrittenOutConfigurations is the benchmark's
// guarantee: each registry name builds exactly the configuration
// written out here by hand (the lineup's literals before the family
// builders existed), observed through a drain whose pop order and
// counters move with every knob.
func TestLineupBuildsTheWrittenOutConfigurations(t *testing.T) {
	const w, seed = 2, 42
	refs := map[string]sched.Scheduler[int]{
		"smq":      core.NewStealingMQ[int](core.Config{Workers: w, Seed: seed}),
		"smq-skip": core.NewStealingMQSkipList[int](core.Config{Workers: w, Seed: seed}),
		"mq":       mq.New[int](mq.Config{Workers: w, C: 4, Seed: seed}),
		"mq-batch": mq.New[int](mq.Config{Workers: w, C: 4, Insert: mq.InsertBatch, Delete: mq.DeleteBatch, Seed: seed}),
		"reld":     mq.New[int](mq.Config{Workers: w, C: 1, Delete: mq.DeleteLocal, Seed: seed}),
		"klsm":     klsm.New[int](klsm.Config{Workers: w}),
		"obim":     obim.New[int](obim.Config{Workers: w}),
		"pmod":     obim.New[int](obim.Config{Workers: w, Adaptive: true}),
		"emq": mq.New[int](mq.Config{Workers: w, C: 2, Insert: mq.InsertBatch, Delete: mq.DeleteBatch,
			BatchInsert: 16, BatchDelete: 16, HeapArity: 8, PeekTops: true, Stickiness: 16, Seed: seed}),
	}
	for name, ref := range refs {
		spec, ok := Lookup[int](name)
		if !ok {
			t.Fatalf("%s: not registered", name)
		}
		gotOrder, gotStats := lockstepDrain(t, spec.Make(w, seed))
		wantOrder, wantStats := lockstepDrain(t, ref)
		if !slices.Equal(gotOrder, wantOrder) || gotStats != wantStats {
			t.Errorf("%s: registry build differs from the written-out configuration\n got stats %+v\nwant stats %+v",
				name, gotStats, wantStats)
		}
	}
}

// TestParamsComeFromTheEffectiveConfig checks every family builder
// labels the zero configuration exactly like its explicit defaults —
// with the defaults read from the scheduler packages, not typed here —
// and that a non-default knob shows up: the label is the configuration.
func TestParamsComeFromTheEffectiveConfig(t *testing.T) {
	obimChunk := obim.Config{}.WithDefaults().ChunkSize
	emqNUMA := mq.Engineered(0)
	emqNUMA.BatchInsert, emqNUMA.BatchDelete, emqNUMA.NUMANodes, emqNUMA.NUMAWeightK = 4, 1, 2, 64
	for _, tc := range []struct{ family, zero, explicit, want string }{
		{"SMQ", SMQ[int]("x", core.Config{}).Params,
			SMQ[int]("x", core.Config{}.WithDefaults()).Params, "steal=16 psteal=0.0312"},
		{"SMQSkip", SMQSkip[int]("x", core.Config{}).Params,
			SMQSkip[int]("x", core.Config{}.WithDefaults()).Params, "steal=16 psteal=0.0312"},
		{"MQ", MQ[int]("x", mq.Config{}).Params,
			MQ[int]("x", mq.Config{}.WithDefaults()).Params, "C=4"},
		{"MQ engineered", MQ[int]("x", mq.Engineered(0)).Params,
			MQ[int]("x", mq.Engineered(0).WithDefaults()).Params, "C=2 stick=16 buf=16/16"},
		{"KLSM", KLSM[int]("x", klsm.Config{}).Params,
			KLSM[int]("x", klsm.Config{Relaxation: klsm.DefaultRelaxation}).Params, "k=256"},
		{"OBIM", OBIM[int]("x", obim.Config{}).Params,
			OBIM[int]("x", obim.Config{}.WithDefaults()).Params, fmt.Sprintf("delta=10 chunk=%d", obimChunk)},
		{"CBPQ", CBPQ[int]("x", cbpq.Config{}).Params,
			CBPQ[int]("x", cbpq.Config{}.WithDefaults()).Params, fmt.Sprintf("chunk=%d combining", cbpq.DefaultChunkCap)},
		{"Coarse", Coarse[int]("x", coarse.Config{}).Params,
			Coarse[int]("x", coarse.Config{Workers: 2}).Params, fmt.Sprintf("single global heap d=%d", pq.DefaultArity)},
		{"Spray", Spray[int]("x", spray.Config{}).Params,
			Spray[int]("x", spray.Config{Seed: 1}).Params, "spray=auto"},
	} {
		if tc.zero != tc.explicit || tc.zero != tc.want {
			t.Errorf("%s: zero config labelled %q, explicit defaults %q, want %q", tc.family, tc.zero, tc.explicit, tc.want)
		}
	}
	for _, tc := range []struct{ got, want string }{
		{SMQ[int]("x", core.Config{StealSize: 8, StealProb: 0.25, NUMANodes: 2}).Params, "steal=8 psteal=0.25 numa=2 K=8"},
		{MQ[int]("x", mq.Config{Insert: mq.InsertBatch, Delete: mq.DeleteBatch, BatchDelete: 2}).Params, "C=4 ins=batch8 del=batch2"},
		{MQ[int]("x", mq.Config{PInsertChange: 0.25, PDeleteChange: 0.5, PeekTops: true}).Params, "C=4 ins=tl0.25 del=tl0.5 peektops"},
		{MQ[int]("x", mq.RELD(0)).Params, "C=1 del=local"},
		{MQ[int]("x", emqNUMA).Params, "C=2 stick=16 buf=4/1 numa=2 K=64"},
		{KLSM[int]("x", klsm.Config{Relaxation: klsm.Strict}).Params, "k=0"},
		{OBIM[int]("x", obim.Config{Delta: 4, Adaptive: true}).Params, fmt.Sprintf("delta=4 chunk=%d adaptive", obimChunk)},
		{CBPQ[int]("x", cbpq.Config{ChunkCap: 8}).Params, "chunk=8 combining"},
	} {
		if tc.got != tc.want {
			t.Errorf("variant labelled %q, want %q", tc.got, tc.want)
		}
	}
}

// TestRankBounds pins the rank-bound contract: the coarse queue and the
// CBPQ are exactly ordered, the k-LSM has the (P−1)·k+P worst case at
// every k, the Multi-Queue families report a positive expectation bound
// for variants as well as defaults, and the unbounded ones report -1.
func TestRankBounds(t *testing.T) {
	const w = 4
	bounds := map[string]struct {
		want  int64
		exact bool
	}{
		"coarse":    {0, true},
		"cbpq":      {0, true},
		"cbpq-elim": {0, true},
		"klsm":      {3*256 + 4, true},
		"obim":      {-1, false},
		"pmod":      {-1, false},
		"reld":      {-1, false},
	}
	unbuffered := mq.Engineered(0)
	unbuffered.Stickiness, unbuffered.BatchInsert, unbuffered.BatchDelete = 1, 1, 1
	specs := append(Lineup[int](),
		SMQ[int]("smq-tuned", core.Config{StealSize: 8, StealProb: 0.25}),
		SMQSkip[int]("smq-skip-numa", core.Config{NUMANodes: 2}),
		MQ[int]("mq-tl", mq.Config{PDeleteChange: 1.0 / 64}),
		MQ[int]("mq-numa", mq.Config{Insert: mq.InsertBatch, Delete: mq.DeleteBatch, NUMANodes: 2}),
		MQ[int]("emq-unbuffered", unbuffered))
	for _, spec := range specs {
		b, exact := spec.RankBound(w)
		if want, ok := bounds[spec.Name]; ok {
			if b != want.want || exact != want.exact {
				t.Errorf("%s: RankBound(%d) = (%d, %t), want (%d, %t)",
					spec.Name, w, b, exact, want.want, want.exact)
			}
			continue
		}
		// Everything else carries a positive expectation-scale bound.
		if b <= 0 || exact {
			t.Errorf("%s: RankBound(%d) = (%d, %t), want positive inexact", spec.Name, w, b, exact)
		}
	}
	for k, want := range map[int]int64{4: 3*4 + 4, klsm.Strict: 4, 0: 3*256 + 4} {
		if b, exact := KLSM[int]("x", klsm.Config{Relaxation: k}).RankBound(w); b != want || !exact {
			t.Errorf("KLSM k=%d: RankBound(%d) = (%d, %t), want (%d, true)", k, w, b, exact, want)
		}
	}
	// A batched delete widens the bound; a rarer fresh pick widens it too.
	mqB, _ := MQ[int]("x", mq.Config{}).RankBound(w)
	if b, _ := MQ[int]("x", mq.Config{Delete: mq.DeleteBatch}).RankBound(w); b <= mqB {
		t.Errorf("batched MQ bound %d should exceed the classic %d", b, mqB)
	}
	if b, _ := MQ[int]("x", mq.Config{PDeleteChange: 1.0 / 64}).RankBound(w); b <= mqB {
		t.Errorf("temporal-locality MQ bound %d should exceed the classic %d", b, mqB)
	}
	var none Spec[int]
	if b, exact := none.RankBound(1); b != -1 || exact {
		t.Errorf("nil Bound: RankBound = (%d, %t), want (-1, false)", b, exact)
	}
}
