package sim_test

// Differential and budget tests for the large-grid fast path: implicit
// neighbor indexing and bitset/struct-of-arrays arena state. The
// contract under test is the same as differential_test.go's —
// byte-identical Results and traces against the frozen
// sim.RunReference oracle — extended across the engine's
// path-selection threshold (forced via the export_test knob) and
// across concurrent Runs that share the engine's pools and caches.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
	"wsnbcast/internal/sim"
)

// largeTopo returns a >= 256^2-node mesh of the given kind: just above
// the large-grid threshold, so the default engine takes the implicit
// path.
func largeTopo(k grid.Kind) grid.Topology {
	if k == grid.Mesh3D6 {
		return grid.NewMesh3D6(41, 40, 40) // 65600 nodes
	}
	return grid.New(k, 256, 256, 1) // 65536 nodes
}

// TestDifferentialImplicitSmall reruns the full small differential
// matrix — four kinds x {paper, flooding, jittered} x {lossless,
// lossy, down, lossy+down} from three sources — with the implicit path
// forced at every size. Together with TestDifferentialEngineSmall
// (materialized path, same matrix) this proves the two neighbor
// sources are interchangeable on every configuration the engine
// supports, borders and repair planning included.
func TestDifferentialImplicitSmall(t *testing.T) {
	defer sim.SetLargeGridThresholdForTest(0)()
	for _, k := range grid.Kinds() {
		topo := diffSmallTopo(k)
		sources := []grid.Coord{topo.At(0), topo.At(topo.NumNodes() / 2), topo.At(topo.NumNodes() - 1)}
		for _, p := range diffProtocols(k) {
			for _, src := range sources {
				for name, cfg := range channelConfigs(topo, src) {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", k, p.Name(), src, name), func(t *testing.T) {
						diffOne(t, topo, p, src, cfg)
					})
				}
			}
		}
	}
}

// TestDifferentialShardedSmall shards the small differential matrix
// across w concurrent Runs (w = 2, 3, 8) with the implicit path forced
// at every size. Run g of a subtest starts from source g mod 3, so the
// concurrent Runs share the engine pool and insert into and evict from
// the bounded large-grid plan cache at the same time, the way the
// sweep, mc, life and jobs pools drive the engine. Every Result and
// trace must still match the serial oracle. Run under -race by the
// Makefile's race target, which makes it the data-race check for the
// state concurrent Runs share.
func TestDifferentialShardedSmall(t *testing.T) {
	defer sim.SetLargeGridThresholdForTest(0)()
	for _, w := range []int{2, 3, 8} {
		for _, k := range grid.Kinds() {
			topo := diffSmallTopo(k)
			sources := []grid.Coord{topo.At(0), topo.At(topo.NumNodes()/2 + 1), topo.At(topo.NumNodes() - 1)}
			for _, p := range diffProtocols(k) {
				for name := range channelConfigs(topo, sources[0]) {
					t.Run(fmt.Sprintf("w%d/%s/%s/%s", w, k, p.Name(), name), func(t *testing.T) {
						shardedDiff(t, topo, p, sources, name, w)
					})
				}
			}
		}
	}
}

// shardedDiff runs the reference once per source, then w concurrent
// Runs of the named channel configuration, and requires each to match
// its source's reference Result and trace.
func shardedDiff(t *testing.T, topo grid.Topology, p sim.Protocol, sources []grid.Coord, channel string, w int) {
	t.Helper()
	cfgs := make([]sim.Config, len(sources))
	wants := make([]*sim.Result, len(sources))
	wantTraces := make([][]sim.Event, len(sources))
	for i, src := range sources {
		cfgs[i] = channelConfigs(topo, src)[channel]
		refCfg := cfgs[i]
		refCfg.Trace = sim.CollectTrace(&wantTraces[i])
		want, err := sim.RunReference(topo, p, src, refCfg)
		if err != nil {
			t.Fatalf("RunReference from %v: %v", src, err)
		}
		wants[i] = want
	}
	errs := make([]error, w)
	var wg sync.WaitGroup
	for g := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(sources)
			var trace []sim.Event
			cfg := cfgs[i]
			cfg.Trace = sim.CollectTrace(&trace)
			got, err := sim.Run(topo, p, sources[i], cfg)
			switch {
			case err != nil:
				errs[g] = fmt.Errorf("run %d from %v: %v", g, sources[i], err)
			case !reflect.DeepEqual(wants[i], got):
				errs[g] = fmt.Errorf("run %d from %v: Result differs from reference\nref: %v\nnew: %v",
					g, sources[i], wants[i], got)
			case !reflect.DeepEqual(wantTraces[i], trace):
				errs[g] = fmt.Errorf("run %d from %v: trace differs: reference %d events, got %d",
					g, sources[i], len(wantTraces[i]), len(trace))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// largeDiffOne checks Run against a reference Result and, when
// wantTrace is non-nil, the reference trace.
func largeDiffOne(t *testing.T, topo grid.Topology, p sim.Protocol, src grid.Coord, cfg sim.Config,
	want *sim.Result, wantTrace []sim.Event) {
	t.Helper()
	var gotTrace []sim.Event
	if wantTrace != nil {
		cfg.Trace = sim.CollectTrace(&gotTrace)
	}
	got, err := sim.Run(topo, p, src, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Result differs from reference\nref: %v\nnew: %v", want, got)
	}
	if wantTrace != nil && !reflect.DeepEqual(wantTrace, gotTrace) {
		t.Fatalf("trace differs: reference %d events, got %d", len(wantTrace), len(gotTrace))
	}
}

// TestLargeGridDifferential is the at-scale contract: on >=
// 256^2-node meshes of all four kinds, the implicit engine must match
// sim.RunReference byte-for-byte. The paper protocol runs the channel
// matrix with traces; flooding and jittered flooding run lossless
// (tracing half a million flooding receptions adds minutes, and the
// small differential matrices already cross every event kind).
func TestLargeGridDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("large-grid differential matrix skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation makes the 65k-node reference runs take minutes; implicit-path coverage under race comes from TestDifferentialImplicitSmall")
	}
	for _, k := range grid.Kinds() {
		topo := largeTopo(k)
		src := center(topo)
		paper := core.ForTopology(k)
		for name, cfg := range channelConfigs(topo, src) {
			if name == "lossy+down" {
				continue // planning-heavy at this scale; lossy and down each covered alone
			}
			t.Run(fmt.Sprintf("%s/%s/%s", k, paper.Name(), name), func(t *testing.T) {
				var refTrace []sim.Event
				refCfg := cfg
				refCfg.Trace = sim.CollectTrace(&refTrace)
				want, err := sim.RunReference(topo, paper, src, refCfg)
				if err != nil {
					t.Fatalf("RunReference: %v", err)
				}
				largeDiffOne(t, topo, paper, src, cfg, want, refTrace)
			})
		}
		for _, p := range []sim.Protocol{core.NewFlooding(), core.NewJitteredFlooding(8)} {
			t.Run(fmt.Sprintf("%s/%s/lossless", k, p.Name()), func(t *testing.T) {
				want, err := sim.RunReference(topo, p, src, sim.Config{})
				if err != nil {
					t.Fatalf("RunReference: %v", err)
				}
				largeDiffOne(t, topo, p, src, sim.Config{}, want, nil)
			})
		}
	}
}

// TestLargeGridForcedMaterialized pits the two in-engine paths against
// each other directly at 256^2: the default implicit path must
// byte-match the forced materialized path on the same mesh.
func TestLargeGridForcedMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("forced-materialized comparison skipped in -short mode")
	}
	topo := grid.NewMesh2D8(256, 256)
	src := center(topo)
	p := core.ForTopology(grid.Mesh2D8)
	cfg := sim.Config{Channel: sim.NewBernoulliLoss(13, 0.05)}

	restore := sim.SetLargeGridThresholdForTest(1 << 30)
	want, err := sim.Run(topo, p, src, cfg)
	restore()
	if err != nil {
		t.Fatalf("materialized Run: %v", err)
	}
	got, err := sim.Run(topo, p, src, cfg)
	if err != nil {
		t.Fatalf("implicit Run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("implicit path differs from materialized path")
	}
}

// TestLargeGridNoMaterializedAdjacency is the tentpole's memory claim
// at full scale: a 1024x1024 8-neighbor broadcast (a million nodes,
// ~8.4M directed edges) completes through the implicit path with no
// materialized adjacency anywhere — the shared cache stays empty for
// the size, and the unbounded plan cache is bypassed for the bounded
// LRU. Steady-state per-node engine state is O(N) int32 words plus
// O(N) bits; an adjacency table alone would be ~33 MiB.
func TestLargeGridNoMaterializedAdjacency(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node run skipped in -short mode")
	}
	topo := grid.NewMesh2D8(1024, 1024)
	src := center(topo)
	p := core.ForTopology(grid.Mesh2D8)
	res, err := sim.Run(topo, p, src, sim.Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Reached != res.Total || res.Total != topo.NumNodes() {
		t.Fatalf("million-node broadcast incomplete: reached %d/%d", res.Reached, res.Total)
	}
	if err := res.Validate(topo, radio.Default(), radio.CanonicalPacket()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if sim.AdjCacheHas(topo) {
		t.Fatalf("large grid materialized adjacency into the shared cache")
	}
	if sim.PlanCacheHas(topo, p, src) {
		t.Fatalf("large grid populated the unbounded plan cache instead of the LRU")
	}
}

// TestLargeGridAllocBudget pins the steady-state allocation budget on
// the implicit path at 256^2: after warm-up, a Run allocates only what
// escapes into the Result (the Result itself, DecodeSlot, the TxSlots
// headers plus flat backing, PerNodeEnergyJ) — a dozen allocations,
// independent of node count and degree.
func TestLargeGridAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; budget holds only in normal builds")
	}
	if testing.Short() {
		t.Skip("large-grid alloc budget skipped in -short mode")
	}
	topo := grid.NewMesh2D8(256, 256)
	src := center(topo)
	p := core.ForTopology(grid.Mesh2D8)
	if _, err := sim.Run(topo, p, src, sim.Config{}); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sim.Run(topo, p, src, sim.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("256^2 mesh: %.1f allocs per steady-state Run, budget is 12", allocs)
	}
}
