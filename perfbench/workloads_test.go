package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"wsnbcast/internal/store"
)

// runSeconds is the run length BENCHMARK.json gives the driver; the
// pinned shapes below are those of lists of this length.
const runSeconds = 20

func TestListsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, _ := json.Marshal(append(w.list(7, runSeconds), w.warm()...))
		b, _ := json.Marshal(append(w.list(7, runSeconds), w.warm()...))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different lists", w.name)
		}
		// Blocks depend only on (seed, block): a longer list extends a
		// shorter one.
		short, long := w.list(7, 1), w.list(7, 3*runSeconds)
		for i := range short {
			if !bytes.Equal(short[i].Body, long[i].Body) {
				t.Errorf("%s: request %d differs between list lengths", w.name, i)
				break
			}
		}
	}
}

// cacheKey is the server's cache identity of a request.
func cacheKey(t *testing.T, r request) string {
	sc, err := scenarioOf(r)
	if err != nil {
		t.Fatalf("%s: %v", r.Body, err)
	}
	endpoint := strings.TrimPrefix(r.Path, "/v1/")
	if endpoint == "jobs" {
		endpoint = "lifetime"
	}
	key, err := store.Key(endpoint, sc)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestSeedsGiveDisjointCacheKeys(t *testing.T) {
	for _, w := range workloads {
		keys := map[string]uint64{}
		for _, r := range w.warm() {
			keys[cacheKey(t, r)] = 0
		}
		for _, seed := range []uint64{0, 1, 2, 3} {
			for _, r := range w.list(seed, runSeconds) {
				k := cacheKey(t, r)
				if s, ok := keys[k]; ok && s != seed {
					t.Fatalf("%s: seed %d shares cache key %s with seed %d or the warm-up set", w.name, seed, k, s)
				}
				keys[k] = seed
			}
		}
	}
}

// TestPercentileClasses pins each workload's hit share and the request
// class at the p50 and p90 ranks of the cost-sorted list, and requires
// both ranks to sit at least three samples from a class boundary, so a
// percentile never flips between classes from run to run.
func TestPercentileClasses(t *testing.T) {
	want := map[string]struct {
		hit      float64
		p50, p90 string
	}{
		"lifetime-churn":  {0, "churn-job", "churn-job"},
		"lifetime-static": {0, "static-life", "static-life"},
		"serve-mix":       {0.8, "hit-sweep", "run-reliability"},
	}
	for _, w := range workloads {
		for seed := uint64(1); seed <= 5; seed++ {
			list := w.list(seed, runSeconds)
			ranked := rankClasses(list)
			n := len(list)
			got := want[w.name]
			if h := hitShare(list); h != got.hit {
				t.Errorf("%s seed %d: hit share %.4f, want %.4f", w.name, seed, h, got.hit)
			}
			for _, q := range []struct {
				p     float64
				class string
			}{{0.5, got.p50}, {0.9, got.p90}} {
				k := percentileRank(n, q.p)
				if ranked[k] != q.class {
					t.Errorf("%s seed %d: p%.0f rank %d of %d is %s, want %s", w.name, seed, q.p*100, k, n, ranked[k], q.class)
					continue
				}
				lo, hi := k, k
				for lo > 0 && ranked[lo-1] == q.class {
					lo--
				}
				for hi < n-1 && ranked[hi+1] == q.class {
					hi++
				}
				below, above := k-lo, hi-k
				if (lo > 0 && below < 3) || (hi < n-1 && above < 3) {
					t.Errorf("%s seed %d: p%.0f sits %d/%d samples from its class edges", w.name, seed, q.p*100, below, above)
				}
				if seed == 1 {
					t.Logf("%s: n=%d hit share %.4f, p%.0f rank %d in %s (%d below, %d above within the class)",
						w.name, n, hitShare(list), q.p*100, k, q.class, below, above)
				}
			}
		}
	}
}

// TestBenchmarkFileMatches holds the metric names and units the
// program prints to the ones BENCHMARK.json declares.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int                           `json:"run_seconds"`
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the pinned shapes assume %d", bf.RunSeconds, runSeconds)
	}
	p := &pass{setup: []time.Duration{1}, cpuLat: []time.Duration{1}}
	e2e := endToEnd(p, 1)
	if len(e2e) != len(bf.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, BENCHMARK.json declares %d", len(e2e), len(bf.EndToEnd))
	}
	for _, m := range bf.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: program unit %q, BENCHMARK.json %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(layerMetricUnits) != len(bf.PerLayer) {
		t.Errorf("program prints %d per-layer metrics, BENCHMARK.json declares %d", len(layerMetricUnits), len(bf.PerLayer))
	}
	for _, m := range bf.PerLayer {
		if u, ok := layerMetricUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s: program unit %q, BENCHMARK.json %q", m.Name, u, m.Unit)
		}
	}
}

// hitShare is the fraction of a list's requests that repeat an earlier
// document of the same list — the cache hit share a fresh server sees.
func hitShare(list []request) float64 {
	seen := map[string]bool{}
	hits := 0
	for _, r := range list {
		d := r.Doc()
		if seen[d] {
			hits++
		}
		seen[d] = true
	}
	return float64(hits) / float64(len(list))
}

// classCost is the relative cost order of request class families,
// cheapest first: a repeated study (a hit with a small body), a
// repeated sweep (a hit with a 100 KB body), then paper sweeps,
// reliability studies and flooding sweeps.
var classCost = map[string]int{
	"hit-run": 0, "hit-sweep": 1, "sweep-paper": 2, "run-reliability": 3, "sweep-flooding": 4,
	"static-life": 1, "churn-job": 1,
}

// family strips the mesh suffix of a serve-mix class.
func family(class string) string {
	for _, f := range []string{"sweep-paper", "sweep-flooding", "run-reliability"} {
		if strings.HasPrefix(class, f) {
			return f
		}
	}
	return class
}

// rankClasses returns the effective class family (a repeat counts as
// a hit of its endpoint) of every request, sorted by classCost — the order latencies
// sort in when families are well separated.
func rankClasses(list []request) []string {
	seen := map[string]bool{}
	out := make([]string, len(list))
	for i, r := range list {
		d := r.Doc()
		out[i] = family(r.Class)
		if seen[d] {
			out[i] = "hit-" + strings.TrimPrefix(r.Path, "/v1/")
		}
		seen[d] = true
	}
	sort.SliceStable(out, func(i, j int) bool { return classCost[out[i]] < classCost[out[j]] })
	return out
}
