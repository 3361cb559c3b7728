package algos

import (
	"testing"

	"repro/internal/graph"
)

// TestChainUnlinksSpentLinks: component 0 absorbs components 1..k one
// at a time, as the centre of a Borůvka star does, and every absorbed
// component's only edge leads back into 0. Each scan must leave the
// chain at its head alone — a chain that keeps spent links makes the
// star cost O(k²) — and the tail must follow the unlinking, or the next
// meld hangs off a link that is no longer in the chain.
func TestChainUnlinksSpentLinks(t *testing.T) {
	const k = 64
	const far = k + 1 // the one vertex outside the component
	parent := make([]uint32, far+1)
	for i := range parent {
		parent[i] = uint32(i)
	}
	find := func(x uint32) uint32 { return parent[x] }

	c := newChain([]graph.Edge{{U: 0, V: far, W: 9}})
	for i := uint32(1); i <= k; i++ {
		c.meld(newChain([]graph.Edge{{U: i, V: 0, W: 1}}))
		parent[i] = 0
		if e, ok := minOutgoing(c, 0, find); !ok || e.V != far || e.W != 9 {
			t.Fatalf("after absorbing %d: min edge (%v, %v), want the edge to %d of weight 9", i, e, ok, far)
		}
		if c.next != nil || c.tail != c || c.count != 1 {
			t.Fatalf("after absorbing %d: spent links kept (next %p, tail %p, head %p, count %d)", i, c.next, c.tail, c, c.count)
		}
	}
	c.meld(newChain([]graph.Edge{{U: k, V: far, W: 2}}))
	if e, ok := minOutgoing(c, 0, find); !ok || e.W != 2 {
		t.Fatalf("edge melded after the unlinking lost: min edge (%v, %v), want weight 2", e, ok)
	}
	if c.count != 2 {
		t.Fatalf("count %d, want 2", c.count)
	}
}
