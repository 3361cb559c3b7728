package zoo

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/sched"
)

// lockstepTasks is the initial task count of a lockstep drain.
const lockstepTasks = 4096

// lockstepFill pushes task i through handle i mod W.
func lockstepFill(ws []sched.Worker[int]) {
	for i := 0; i < lockstepTasks; i++ {
		ws[i%len(ws)].Push(uint64(i*7919%1009), i)
	}
}

func lockstepPut(h hash.Hash64, words ...uint64) {
	var b [8]byte
	for _, x := range words {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
}

func lockstepSum(h hash.Hash64, st sched.Stats) uint64 {
	lockstepPut(h, st.Pushes, st.Pops, st.EmptyPops, st.Steals, st.StolenTask,
		st.StealFails, st.LockFails, st.Remote)
	return h.Sum64()
}

func lockstepHandles(s sched.Scheduler[int]) []sched.Worker[int] {
	ws := make([]sched.Worker[int], s.Workers())
	for i := range ws {
		ws[i] = s.Worker(i)
	}
	return ws
}

// lockstepScalar hashes a Pop drain in which one goroutine calls the
// handles in turn, so every steal happens at the same step on every run.
// It stops once every pushed task came out; a drain that needs more than
// 64 calls per task fails the test instead of spinning.
func lockstepScalar(t *testing.T, s sched.Scheduler[int]) uint64 {
	ws := lockstepHandles(s)
	lockstepFill(ws)
	h := fnv.New64a()
	got := 0
	for step := 0; got < lockstepTasks; step++ {
		if step > 64*lockstepTasks {
			t.Fatalf("Pop drain stalled with %d of %d tasks out", got, lockstepTasks)
		}
		w := step % len(ws)
		if p, v, ok := ws[w].Pop(); ok {
			lockstepPut(h, uint64(w), p, uint64(v))
			got++
		}
	}
	return lockstepSum(h, s.Stats())
}

// lockstepBatched hashes a lockstep PopN(dst[:8]) drain in which every
// initial task is pushed back once, through the popping handle's PushN,
// with a later priority and a value of its own.
func lockstepBatched(t *testing.T, s sched.Scheduler[int]) uint64 {
	ws := lockstepHandles(s)
	lockstepFill(ws)
	h := fnv.New64a()
	dst := make([]sched.Task[int], 8)
	var ps []uint64
	var vs []int
	got := 0
	for step := 0; got < 2*lockstepTasks; step++ {
		if step > 64*2*lockstepTasks {
			t.Fatalf("PopN drain stalled with %d of %d tasks out", got, 2*lockstepTasks)
		}
		w := step % len(ws)
		n := ws[w].PopN(dst[:8])
		ps, vs = ps[:0], vs[:0]
		for _, it := range dst[:n] {
			lockstepPut(h, uint64(w), it.P, uint64(it.V))
			if it.V < lockstepTasks {
				ps = append(ps, it.P+1+uint64(it.V%61))
				vs = append(vs, it.V+lockstepTasks)
			}
		}
		got += n
		ws[w].PushN(ps, vs)
	}
	return lockstepSum(h, s.Stats())
}

// TestLockstepSequencesPinned pins, bit for bit, what the lineup's SMQ,
// OBIM, SprayList and coarse-heap specs pop at one and two workers, and
// in which order: FNV-1a 64 over each (handle, priority, value) popped
// and the final Stats, seed 42. One goroutine drives the handles in
// turn, so at W = 2 the steals, the chunk hand-offs and the sprays are
// as deterministic as a lone worker's pops. A hash moves only when a
// scheduler's choices or counters change. (PMOD's adaptation changes
// nothing drains this short can see, so its rows equal OBIM's. At W = 1
// smq and coarse both pop in exact order but break ties apart: SMQ's
// local queue pops equal priorities newest first, coarse's heap does
// not.)
func TestLockstepSequencesPinned(t *testing.T) {
	cases := []struct {
		name         string
		workers      int
		scalar, popN uint64
	}{
		{"smq", 1, 0xfff050afb239c1cf, 0x818e1152158a93f4},
		{"smq", 2, 0x51bc4067abe0af61, 0x2274d1da62fa08ff},
		{"smq-skip", 1, 0xc07d6441c256842f, 0x48472af18b5d9b4c},
		{"smq-skip", 2, 0xebe00b3009f9d382, 0x4771dd00d0548f3b},
		{"obim", 1, 0x4a9c83c7a1bbd3a3, 0x444d6ffe8933b080},
		{"obim", 2, 0x6583af8dbb5e1507, 0x59b9da864bfd578c},
		{"pmod", 1, 0x4a9c83c7a1bbd3a3, 0x444d6ffe8933b080},
		{"pmod", 2, 0x6583af8dbb5e1507, 0x59b9da864bfd578c},
		{"spray", 1, 0x894d4f5ad946e023, 0x138e2a2367a3bc04},
		{"spray", 2, 0x89af7aade2f132cb, 0x7e2d1043cd0510e0},
		{"coarse", 1, 0x2790ecbb5ca5a073, 0x11bd997a7937c84c},
		{"coarse", 2, 0xf1170871415efa4b, 0x71411c423e4b6ef4},
	}
	for _, tc := range cases {
		spec, ok := Lookup[int](tc.name)
		if !ok {
			t.Fatalf("%s: not in the lineup", tc.name)
		}
		if got := lockstepScalar(t, spec.Make(tc.workers, 42)); got != tc.scalar {
			t.Errorf("%s W=%d: Pop drain hashes to %#x, want %#x", tc.name, tc.workers, got, tc.scalar)
		}
		if got := lockstepBatched(t, spec.Make(tc.workers, 42)); got != tc.popN {
			t.Errorf("%s W=%d: PopN/PushN drain hashes to %#x, want %#x", tc.name, tc.workers, got, tc.popN)
		}
	}
}
