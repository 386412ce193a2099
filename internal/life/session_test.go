package life

// Differential matrix locking the round-persistent session path to
// the frozen per-round reference (Spec.Reference): whole-study reports
// must be byte-identical across every canonical topology, every
// rotation strategy, churn on and off, and every worker count —
// including runs resumed from mid-study checkpoints. This is the
// contract that let the hot loop move onto sim.Session at all.

import (
	"bytes"
	"context"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
)

// matrixSpec is one small-but-busy study per topology kind: batteries
// sized to cause deaths within the round budget, churn at 5% with
// recovery, all three strategies.
func matrixSpec(k grid.Kind) Spec {
	topo := grid.New(k, 8, 8, 4)
	return Spec{
		Topology:     topo,
		Protocol:     core.ForTopology(k),
		Source:       topo.At(topo.NumNodes() / 2),
		BudgetJ:      0.003,
		MaxRounds:    48,
		Seed:         11,
		Replications: 1,
		Strategies:   []Strategy{Static, RoundRobin, Residual},
		PFail:        []float64{0, 0.05},
		PNew:         0.25,
	}
}

// TestSessionDifferentialMatrix is the byte-identity matrix: for every
// canonical topology and worker count, the session-driven study equals
// the reference study exactly.
func TestSessionDifferentialMatrix(t *testing.T) {
	for _, k := range grid.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			ref := matrixSpec(k)
			ref.Reference = true
			ref.Workers = 1
			want, err := Run(context.Background(), ref)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON := mustJSON(t, want)
			for _, workers := range []int{1, 2, 8} {
				spec := matrixSpec(k)
				spec.Workers = workers
				got, err := Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if gotJSON := mustJSON(t, got); !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("workers=%d: session report differs from reference:\n got %s\nwant %s",
						workers, gotJSON, wantJSON)
				}
			}
		})
	}
}

// A session-driven cell resumed from any mid-run checkpoint — with
// churn and burn-in active, so the restored state includes down links
// and dead nodes the session must reconstruct — finishes with the
// byte-identical report of an uninterrupted reference run.
func TestSessionCheckpointResumeMatchesReference(t *testing.T) {
	spec := matrixSpec(grid.Mesh2D4)
	spec.BurnInRounds = 16
	spec.CheckpointEvery = 8
	index := spec.NumCells() - 1 // residual rotation, churned
	ref := spec
	ref.Reference = true
	base, err := RunCell(context.Background(), ref, index, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, base)
	rec := &memCkpt{}
	full, err := RunCell(context.Background(), spec, index, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, full); !bytes.Equal(got, want) {
		t.Fatalf("uninterrupted session run differs from reference:\n got %s\nwant %s", got, want)
	}
	if len(rec.saves) == 0 {
		t.Fatalf("no checkpoints taken over %d rounds", full.Rounds)
	}
	for si, save := range rec.saves {
		resumed, err := RunCell(context.Background(), spec, index, &memCkpt{loaded: save})
		if err != nil {
			t.Fatalf("resume from save %d: %v", si, err)
		}
		if got := mustJSON(t, resumed); !bytes.Equal(got, want) {
			t.Errorf("resume from save %d differs from reference:\n got %s\nwant %s", si, got, want)
		}
	}
}

// Burn-in shifts the churn chain, not the round loop: zero burn-in
// reproduces the un-burned study, positive burn-in changes churned
// cells (the chain starts at steady state) but leaves churn-free cells
// untouched, and the session and reference paths agree under both.
func TestBurnInSemantics(t *testing.T) {
	base := matrixSpec(grid.Mesh2D4)
	baseRep, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	zero := base
	zero.BurnInRounds = 0
	zeroRep, err := Run(context.Background(), zero)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, baseRep), mustJSON(t, zeroRep)) {
		t.Error("BurnInRounds=0 changed the report")
	}
	burned := base
	burned.BurnInRounds = 32
	burnedRep, err := Run(context.Background(), burned)
	if err != nil {
		t.Fatal(err)
	}
	burnedRef := burned
	burnedRef.Reference = true
	burnedRefRep, err := Run(context.Background(), burnedRef)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, burnedRep), mustJSON(t, burnedRefRep)) {
		t.Error("burned-in session report differs from burned-in reference")
	}
	for i := range burnedRep {
		bj, zj := mustJSON(t, burnedRep[i]), mustJSON(t, zeroRep[i])
		if burnedRep[i].PFail == 0 {
			if !bytes.Equal(bj, zj) {
				t.Errorf("cell %d (no churn): burn-in changed the report", i)
			}
		} else if bytes.Equal(bj, zj) {
			t.Errorf("cell %d (p_fail %g): 32 burn-in steps left the chain untouched",
				i, burnedRep[i].PFail)
		}
	}
}

// With p_new=0 every burn-in step only removes links, so enough
// burn-in starts round 1 partitioned: the chain really does advance
// before the first broadcast, without consuming round budget.
func TestBurnInStartsAtChainState(t *testing.T) {
	topo := grid.NewMesh2D4(16, 1)
	spec := Spec{
		Topology:     topo,
		Protocol:     core.NewFlooding(),
		Source:       grid.C2(1, 1),
		BudgetJ:      1,
		MaxRounds:    4,
		Seed:         3,
		Replications: 1,
		Strategies:   []Strategy{Static},
		PFail:        []float64{0.3},
		PNew:         0,
		BurnInRounds: 64,
	}
	cells, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if c.PartitionRound != 1 {
		t.Errorf("PartitionRound = %d, want 1: 64 burn-in steps at p_fail 0.3 / p_new 0 must partition the line before round 1", c.PartitionRound)
	}
	if c.Rounds != spec.MaxRounds {
		t.Errorf("Rounds = %d, want %d: burn-in must not consume round budget", c.Rounds, spec.MaxRounds)
	}
}

func TestBurnInValidation(t *testing.T) {
	spec := matrixSpec(grid.Mesh2D4)
	spec.BurnInRounds = -1
	if _, err := Run(context.Background(), spec); err == nil {
		t.Error("negative burn-in accepted")
	}
}

// The lifetime hot loop's allocation budget: once a cell's session is
// warm, a steady-state round — churn step, broadcast, battery
// accounting — stays within a handful of allocations (curve samples
// and milestone appends are amortized). Measured by differencing two
// run lengths so setup cost cancels out.
func TestRoundAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse and allocates for instrumentation; budget holds only in normal builds")
	}
	spec := matrixSpec(grid.Mesh2D4)
	spec.Strategies = []Strategy{RoundRobin}
	spec.PFail = []float64{0.05}
	spec.BudgetJ = 1e6 // nobody dies: round count is exactly MaxRounds
	run := func(rounds int) float64 {
		s := spec
		s.MaxRounds = rounds
		if _, err := RunCell(context.Background(), s, 0, nil); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := RunCell(context.Background(), s, 0, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(64), run(256)
	perRound := (long - short) / 192
	if perRound > 4 {
		t.Errorf("steady-state lifetime round allocates %.2f/round (%.0f @64 rounds, %.0f @256), budget is 4",
			perRound, short, long)
	}
}

// The memo counters: a static death-only cell serves rounds from the
// session's whole-round memo, every round a RunCell call runs lands in
// exactly one counter — a call resumed from a checkpoint counts only
// its own rounds — and the reference path reports zero on both.
func TestDeltaCountersPopulated(t *testing.T) {
	spec := matrixSpec(grid.Mesh2D4)
	spec.Strategies = []Strategy{Static}
	spec.PFail = nil // death-only: most rounds change nothing
	spec.CheckpointEvery = 8

	rec := &memCkpt{}
	rep, err := RunCell(context.Background(), spec, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaHits == 0 {
		t.Errorf("static death-only cell recorded no memo hits over %d rounds", rep.Rounds)
	}
	if got := rep.DeltaHits + rep.DeltaFallbacks; got != uint64(rep.Rounds) {
		t.Errorf("hits %d + fallbacks %d != %d rounds", rep.DeltaHits, rep.DeltaFallbacks, rep.Rounds)
	}

	if len(rec.saves) == 0 {
		t.Fatalf("no checkpoints taken over %d rounds", rep.Rounds)
	}
	for si, save := range rec.saves {
		resumed, err := RunCell(context.Background(), spec, 0, &memCkpt{loaded: save})
		if err != nil {
			t.Fatal(err)
		}
		ran := uint64(resumed.Rounds - (si+1)*spec.CheckpointEvery)
		if got := resumed.DeltaHits + resumed.DeltaFallbacks; got != ran {
			t.Errorf("resume from save %d: hits %d + fallbacks %d != %d rounds run",
				si, resumed.DeltaHits, resumed.DeltaFallbacks, ran)
		}
	}

	ref := spec
	ref.Reference = true
	r, err := RunCell(context.Background(), ref, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeltaHits != 0 || r.DeltaFallbacks != 0 {
		t.Errorf("reference path recorded memo counters: hits %d fallbacks %d", r.DeltaHits, r.DeltaFallbacks)
	}
}

// The memo counters are debug-only: two reports differing solely in
// them must marshal to identical bytes, or the differential matrix,
// checkpoints and result-cache identity would all see phantom diffs.
func TestDeltaCountersInvisibleOnWire(t *testing.T) {
	a := CellReport{Strategy: "static", Rounds: 7}
	b := a
	b.DeltaHits, b.DeltaFallbacks = 6, 1
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Error("memo counters leak into the CellReport JSON")
	}
}

// With p_fail == 0 and p_new == 0 the churn sweep is skipped entirely.
// The report must stay byte-identical to the reference path, and
// burn-in — which only advances the (empty) chain — must change
// nothing.
func TestChurnZeroSweepSkipByteIdentity(t *testing.T) {
	spec := matrixSpec(grid.Mesh2D4)
	spec.PFail = []float64{0}
	spec.PNew = 0

	ref := spec
	ref.Reference = true
	want, err := Run(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("churn-0 session report differs from reference")
	}

	burned := spec
	burned.BurnInRounds = 32
	burnedRep, err := Run(context.Background(), burned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, burnedRep), mustJSON(t, want)) {
		t.Error("burn-in on a churn-0 study changed the report")
	}
}

// Permanent failures (p_new == 0, p_fail > 0) take the skip-the-
// recovery-draw branch; the report must still match the reference.
func TestPermanentFailureChurnByteIdentity(t *testing.T) {
	spec := matrixSpec(grid.Mesh2D4)
	spec.PFail = []float64{0.05}
	spec.PNew = 0

	ref := spec
	ref.Reference = true
	want, err := Run(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("permanent-failure session report differs from reference")
	}
}

// Rotation edge case: a round whose own source dies during that round.
// pickSource only ever returns alive nodes, so a dead prevSrc after
// round() means the source died while sourcing; the loop must carry on
// (round-robin skips the corpse) and the session and reference paths
// must agree byte for byte.
func TestRotationSourceDiesSameRound(t *testing.T) {
	topo := grid.New(grid.Mesh2D4, 8, 8, 1)
	spec := Spec{
		Topology:     topo,
		Protocol:     core.ForTopology(grid.Mesh2D4),
		Source:       topo.At(topo.NumNodes() / 2),
		BudgetJ:      0.003,
		MaxRounds:    96,
		Seed:         11,
		Replications: 1,
		Strategies:   []Strategy{RoundRobin},
	}
	probe := spec
	probe.Reference = true
	st, err := newCellState(probe, probe.CellAt(0))
	if err != nil {
		t.Fatal(err)
	}
	occurred := false
	for !st.stopped() {
		if err := st.round(); err != nil {
			t.Fatal(err)
		}
		if st.dead[st.prevSrc] {
			occurred = true
		}
	}
	if !occurred {
		t.Fatalf("no source died during its own round in %d rounds; retune the budget", st.rep.Rounds)
	}

	want, err := RunCell(context.Background(), probe, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCell(context.Background(), spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("session report differs from reference after a same-round source death")
	}
}
