package harness

import "testing"

func TestProbeRankLockstepSMQBounded(t *testing.T) {
	// Under balanced (lockstep) scheduling, the SMQ's displacement must
	// be bounded and small relative to the task count — the practical
	// counterpart of Theorem 1's O(n·B) expected rank at constant
	// p_steal. Allow generous slack over the expectation.
	const tasks = 20000
	st := ProbeRankLockstep(registered("smq"), 4, tasks)
	if st.Tasks != tasks || st.Mode != "lockstep" {
		t.Fatalf("metadata wrong: %+v", st)
	}
	if st.MeanDisplacement > tasks/20 {
		t.Fatalf("SMQ lockstep mean displacement %.1f too large for %d tasks", st.MeanDisplacement, tasks)
	}
}

func TestProbeRankLockstepClassicMQSmall(t *testing.T) {
	const tasks = 20000
	st := ProbeRankLockstep(registered("mq"), 4, tasks)
	// The classic MQ's expected rank is O(m); with m=16 queues the mean
	// displacement should be far below the task count.
	if st.MeanDisplacement > 500 {
		t.Fatalf("classic MQ lockstep mean displacement %.1f too large", st.MeanDisplacement)
	}
}

func TestProbeRankFreerunCompletes(t *testing.T) {
	st := ProbeRank(registered("smq"), 2, 20000)
	if st.Mode != "freerun" || st.Tasks != 20000 {
		t.Fatalf("metadata wrong: %+v", st)
	}
	if st.MaxDisplacement < st.P99Displacement {
		t.Fatalf("stat ordering wrong: %+v", st)
	}
}

// TestProbeRankFreerunCoarseExact pins the free-running probe's scalar
// pop order on the shared worker loop: one worker draining the exact
// coarse queue must see rank error 0.
func TestProbeRankFreerunCoarseExact(t *testing.T) {
	st := ProbeRank(registered("coarse"), 1, 5000)
	if st.MeanDisplacement != 0 || st.MaxDisplacement != 0 || st.InversionFrac != 0 {
		t.Fatalf("coarse drained by one worker should have zero rank error: %+v", st)
	}
}

func TestRankStatsFromOrderExact(t *testing.T) {
	order := []uint64{0, 1, 2, 3, 4}
	st := rankStatsFromOrder(order)
	if st.MeanDisplacement != 0 || st.MaxDisplacement != 0 || st.InversionFrac != 0 {
		t.Fatalf("exact order should have zero stats: %+v", st)
	}
}

func TestRankStatsFromOrderReversed(t *testing.T) {
	order := []uint64{4, 3, 2, 1, 0}
	st := rankStatsFromOrder(order)
	if st.MaxDisplacement != 4 {
		t.Fatalf("MaxDisp = %d, want 4", st.MaxDisplacement)
	}
	if st.InversionFrac != 0.8 { // all but the first pop are inversions
		t.Fatalf("InversionFrac = %v, want 0.8", st.InversionFrac)
	}
}
