package sim_test

// Graph-delta suites: long mutation scripts — deaths, cuts, recoveries,
// toggle-backs, source rotation, Reset, and repeated rounds that change
// nothing — driven through Session.Run and checked after every step
// against a cold sim.Run handed the equivalent Down/DownLinks lists
// (sessionHarness.check). The no-mutation rounds are served by the
// whole-round memo; every other round must re-simulate, and both must
// produce the oracle's bytes.

import (
	"bytes"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// The scripted all-kinds sequence: deaths, cuts, a recovery, a
// toggle-back, repeated no-mutation rounds, and a source rotation —
// each step checked against the oracle.
func TestDeltaDifferentialAllKinds(t *testing.T) {
	for _, k := range grid.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			topo := grid.Canonical(k)
			src := topo.At(topo.NumNodes() / 2)
			h := newSessionHarness(t, topo, core.ForTopology(k), sim.Config{})
			h.check(src, "pristine")
			h.check(src, "pristine again") // memo hit
			h.nodeDown(3)
			h.check(src, "one death")
			h.linkDown(7)
			h.linkDown(21)
			h.check(src, "death+cuts")
			h.linkUp(7)
			h.check(src, "recovery")
			h.linkDown(21) // already down: no-op
			h.linkUp(21)
			h.linkDown(21) // toggled back: same graph, still a fresh run
			h.check(src, "toggle-back")
			h.check(src, "unchanged") // memo hit
			h.nodeDown(topo.NumNodes() - 2)
			h.linkDown(2)
			h.check(src, "more churn")
			h.check(topo.At(1), "rotated source")
			h.check(src, "rotated back")
			if h.sess.MemoHits() != 2 {
				t.Errorf("memo hits = %d, want 2 (one per unchanged round)", h.sess.MemoHits())
			}
		})
	}
}

// A pseudo-random churn storm on the 2D-4 mesh: many flips per step,
// links cut and restored repeatedly, occasional deaths, and an
// unchanged round every fourth step — the lifetime hot loop's exact
// access pattern.
func TestDeltaDifferentialChurnStorm(t *testing.T) {
	topo := grid.NewMesh2D4(10, 10)
	h := newSessionHarness(t, topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	next := lcg(54321)
	src := topo.At(topo.NumNodes() / 2)
	for step := 0; step < 16; step++ {
		h.stormStep(next, 8)
		if step%3 == 2 {
			i := next(topo.NumNodes())
			if i != topo.NumNodes()/2 && !h.down[i] {
				h.nodeDown(i)
			}
		}
		h.check(src, "storm step")
		if step%4 == 3 {
			h.check(src, "storm pause")
		}
	}
	if h.sess.MemoHits() != 4 {
		t.Errorf("memo hits = %d, want 4 (one per storm pause)", h.sess.MemoHits())
	}
}

// The same storm under flooding, whose collision holes make the repair
// planner inject retransmissions: multi-replay rounds must re-simulate
// exactly and memoize whole.
func TestDeltaDifferentialFloodingRepairs(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	h := newSessionHarness(t, topo, core.NewFlooding(), sim.Config{})
	next := lcg(99)
	src := topo.At(topo.NumNodes() / 2)
	base, err := sim.Run(topo, core.NewFlooding(), src, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Repairs == 0 {
		t.Fatal("flooding run has no repairs: the multi-replay path is untested")
	}
	for step := 0; step < 12; step++ {
		h.stormStep(next, 4)
		h.check(src, "flooding storm step")
		if step%4 == 3 {
			h.check(src, "flooding storm pause")
		}
	}
}

// Alternating sources never hit the memo — it holds one source's
// Result — but once the source settles and the graph stops changing,
// rounds are served from it again.
func TestDeltaSourceRotation(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	h := newSessionHarness(t, topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	a, b := topo.At(10), topo.At(50)
	for i := 0; i < 4; i++ {
		h.linkDown(i * 3)
		h.check(a, "alternating A")
		h.check(b, "alternating B")
		h.check(a, "unmutated A after B")
	}
	if h.sess.MemoHits() != 0 {
		t.Errorf("memo served %d rounds across source changes", h.sess.MemoHits())
	}
	for i := 0; i < 4; i++ {
		h.linkUp(i * 3)
		h.check(b, "settled B")
	}
	h.check(b, "settled B unchanged")
	h.check(b, "settled B unchanged")
	if h.sess.MemoHits() != 2 {
		t.Errorf("memo hits = %d after the source settled, want 2", h.sess.MemoHits())
	}
}

// Reset clears the memo: the next Run re-simulates and the pristine
// bytes come back exactly.
func TestDeltaReset(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	h := newSessionHarness(t, topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	src := topo.At(30)
	base, err := h.sess.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	want := mustResultJSON(t, base)
	h.nodeDown(10)
	h.linkDown(5)
	h.check(src, "mutated")
	h.check(src, "mutated again") // memo hit
	h.sess.Reset()
	h.down = map[int]bool{}
	h.cut = map[int]bool{}
	got, err := h.sess.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if gj := mustResultJSON(t, got); !bytes.Equal(gj, want) {
		t.Fatalf("reset Run differs from pristine:\n got %s\nwant %s", gj, want)
	}
	if h.sess.MemoHits() != 1 {
		t.Errorf("memo hits = %d, want 1: Reset must clear the memo", h.sess.MemoHits())
	}
}

// A round with no mutations since the last one returns the identical
// Result pointer with identical bytes: the graph has not changed, so
// the previous round's Result is this round's.
func TestDeltaZeroSeedShortcut(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	sess, err := sim.NewSession(topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	src := topo.At(30)
	first, err := sess.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	want := mustResultJSON(t, first)
	again, err := sess.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("unchanged-graph Run rebuilt the Result instead of returning the memoized one")
	}
	if got := mustResultJSON(t, again); !bytes.Equal(got, want) {
		t.Fatalf("memoized Result bytes changed:\n got %s\nwant %s", got, want)
	}
}
