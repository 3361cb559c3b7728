package mq

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/sched"
)

// pinTasks is the lone worker's initial task count.
const pinTasks = 4096

// loneWorker builds a one-worker scheduler seeded with 42.
type loneWorker func() sched.Scheduler[int]

func lone(cfg Config) loneWorker {
	return func() sched.Scheduler[int] {
		cfg.Workers, cfg.Seed = 1, 42
		return New[int](cfg)
	}
}

// engineered is the engineered MultiQueue at its defaults except for
// stickiness and the insert / delete buffer sizes; 0 keeps a default.
func engineered(stick, ins, del int) loneWorker {
	return lone(sticky(0, 0, stick, ins, del))
}

func pinFill(w sched.Worker[int]) {
	for i := 0; i < pinTasks; i++ {
		w.Push(uint64(i*7919%1009), i)
	}
}

func pinPut(h hash.Hash64, words ...uint64) {
	var b [8]byte
	for _, x := range words {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
}

func pinSum(h hash.Hash64, st sched.Stats) uint64 {
	pinPut(h, st.Pushes, st.Pops, st.EmptyPops, st.LockFails, st.Remote)
	return h.Sum64()
}

// pinScalar hashes a Pop drain of the filled scheduler.
func pinScalar(s sched.Scheduler[int]) uint64 {
	w := s.Worker(0)
	pinFill(w)
	h := fnv.New64a()
	for {
		p, v, ok := w.Pop()
		if !ok {
			break
		}
		pinPut(h, p, uint64(v))
	}
	return pinSum(h, s.Stats())
}

// pinBatched hashes a PopN(dst[:8]) drain of the filled scheduler in
// which every initial task is pushed back once, through PushN, with a
// later priority and a value of its own.
func pinBatched(s sched.Scheduler[int]) uint64 {
	w := s.Worker(0)
	pinFill(w)
	h := fnv.New64a()
	dst := make([]sched.Task[int], 8)
	var ps []uint64
	var vs []int
	for {
		n := w.PopN(dst[:8])
		if n == 0 {
			break
		}
		ps, vs = ps[:0], vs[:0]
		for _, it := range dst[:n] {
			pinPut(h, it.P, uint64(it.V))
			if it.V < pinTasks {
				ps = append(ps, it.P+1+uint64(it.V%61))
				vs = append(vs, it.V+pinTasks)
			}
		}
		w.PushN(ps, vs)
	}
	return pinSum(h, s.Stats())
}

// TestLoneWorkerSequencesPinned pins, bit for bit, what one worker pops
// from every Multi-Queue configuration this repository runs, and in which
// order: FNV-1a 64 over each popped (priority, value) and the final
// Stats. With one worker nothing is racy, so a hash moves only when the
// queue choice, the extraction size or the counters change.
func TestLoneWorkerSequencesPinned(t *testing.T) {
	cases := []struct {
		name         string
		build        loneWorker
		scalar, popN uint64
	}{
		{"mq", lone(Classic(0, 4)), 0x198244c8a3cc1b4e, 0x864b69161aae751},
		{"mq-batch", lone(Config{C: 4, Insert: InsertBatch, Delete: DeleteBatch}), 0x6b3025afa4664f26, 0x6b25889319477b21},
		{"reld", lone(RELD(0)), 0xa4a245eda289e712, 0xff58c60fe1ff6a2d},
		{"MQ/temporal", lone(Config{C: 4,
			Insert: InsertTemporalLocality, PInsertChange: 1.0 / 64,
			Delete: DeleteTemporalLocality, PDeleteChange: 1.0 / 64}), 0x812ba129411f5472, 0xbd2ceeaf59a28d39},
		{"MQ/peektops", lone(Config{C: 4, PeekTops: true}), 0x198244c8a3cc1b4e, 0x864b69161aae751},
		{"peek+batch", lone(Config{C: 4, PeekTops: true, Delete: DeleteBatch, BatchDelete: 8}), 0x27c492b43f37206a, 0x864b69161aae751},
		{"emq", engineered(0, 0, 0), 0x96e9a6e62c2ecfb6, 0x1e8df2d26be21545},
		// The corners of the emq experiment's stickiness × buffer grid
		// are 1/1/1, 1/64/64, 64/1/1 and 64/64/64.
		{"emq 1/1/1", engineered(1, 1, 1), 0xa7bd8e403cc2b05a, 0x1bb561c820be3381},
		{"emq 1/64/64", engineered(1, 64, 64), 0x79e7a33b4f73562e, 0x1063f6cf9053d6bd},
		{"emq 64/1/1", engineered(64, 1, 1), 0x1a0fc624daf25be2, 0xf1136daf50d3543d},
		{"emq 64/64/64", engineered(64, 64, 64), 0x60323a5eabc4e746, 0x61005fa82f378e1},
		{"emq 3/7/5", engineered(3, 7, 5), 0xe1f34e942c06901e, 0xc841f50c2b3dbf55},
	}
	for _, tc := range cases {
		if got := pinScalar(tc.build()); got != tc.scalar {
			t.Errorf("%s: Pop drain hashes to %#x, want %#x", tc.name, got, tc.scalar)
		}
		if got := pinBatched(tc.build()); got != tc.popN {
			t.Errorf("%s: PopN/PushN drain hashes to %#x, want %#x", tc.name, got, tc.popN)
		}
	}
}
