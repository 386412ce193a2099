package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
)

// A request is one entry of a workload's fixed, seeded request list:
// the wire document exactly as the client sends it, plus the class the
// benchmark groups it under when it reports percentiles.
type request struct {
	Class string `json:"class"`
	Path  string `json:"path"` // POST target: /v1/jobs, /v1/lifetime, /v1/sweep or /v1/run
	Body  []byte `json:"body"`
}

// Doc identifies the document for digest lookup and repeat detection:
// the SHA-256 of the target path and the body bytes.
func (r request) Doc() string {
	h := sha256.New()
	h.Write([]byte(r.Path))
	h.Write([]byte{0})
	h.Write(r.Body)
	return hex.EncodeToString(h.Sum(nil))
}

// Wire documents. The benchmark keeps its own copy of the scenario
// JSON shape, so the bytes it sends never follow a change to the
// program's structs.
type point struct {
	X int `json:"x"`
	Y int `json:"y"`
	Z int `json:"z,omitempty"`
}

type topoDoc struct {
	Kind string `json:"kind"`
	M    int    `json:"m"`
	N    int    `json:"n"`
	L    int    `json:"l,omitempty"`
}

type reliabilityDoc struct {
	Seed         uint64    `json:"seed"`
	Replications int       `json:"replications"`
	LossRates    []float64 `json:"loss_rates"`
	FailureRates []float64 `json:"failure_rates"`
}

type lifetimeDoc struct {
	BudgetJ      float64   `json:"budget_j"`
	MaxRounds    int       `json:"max_rounds"`
	Seed         uint64    `json:"seed"`
	Replications int       `json:"replications"`
	Strategies   []string  `json:"strategies"`
	ChurnRates   []float64 `json:"churn_rates,omitempty"`
	PNew         float64   `json:"p_new,omitempty"`
	BurnInRounds int       `json:"burnin_rounds,omitempty"`
}

type scenarioDoc struct {
	Name        string          `json:"name"`
	Topology    topoDoc         `json:"topology"`
	Protocol    string          `json:"protocol"`
	Sources     []point         `json:"sources,omitempty"`
	PacketBits  int             `json:"packet_bits,omitempty"`
	Reliability *reliabilityDoc `json:"reliability,omitempty"`
	Lifetime    *lifetimeDoc    `json:"lifetime,omitempty"`
}

type jobDoc struct {
	Kind     string      `json:"kind"`
	Scenario scenarioDoc `json:"scenario"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire structs above always marshal
	}
	return b
}

// rng is splitmix64: small, fully specified, and stable across Go
// releases, so a seed names the same list forever.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// workload is one closed-loop traffic shape. Lists are built in
// blocks: block b depends only on (seed, b), so a longer list extends
// a shorter one and every block has the same class composition.
type workload struct {
	name string
	// blockSeconds is the nominal cost of one block on a 2-vCPU box;
	// with --seconds it fixes the block count (never the wall time).
	blockSeconds float64
	// minBlocks keeps at least 100 timed requests, so ten samples lie
	// beyond p90.
	minBlocks int
	block     func(seed uint64, b int) []request
	// warm is the fixed warm-up set sent before the timed list, the
	// same for every seed; its documents never occur in a list.
	warm func() []request
	// store, jobs: whether the server gets a durable store and
	// whether requests go through the async job API.
	store bool
	jobs  bool
}

var workloads = []*workload{churnWorkload, staticWorkload, mixWorkload}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// blocks returns how many blocks a run of the given length sends.
func (w *workload) blocks(seconds int) int {
	n := int(math.Round(float64(seconds) / w.blockSeconds))
	if n < w.minBlocks {
		n = w.minBlocks
	}
	return n
}

// list returns the timed request list for (seed, seconds).
func (w *workload) list(seed uint64, seconds int) []request {
	var out []request
	for b := 0; b < w.blocks(seconds); b++ {
		out = append(out, w.block(seed, b)...)
	}
	return out
}

// The lifetime workloads run on the 64x64 2D-4 mesh. Request i's
// source is point i of a fixed 10x10 lattice over the interior square
// [18, 45]^2, the same for every seed: sources cost differently, so a
// seed-drawn source mix would move a run's mean with the seed.
const lifeSide = 64

func lifeSource(i int) point {
	return point{X: 18 + 3*(i%10), Y: 18 + 3*(i/10%10)}
}

// lifetime-churn: each block is one lifetime job — static source, 5%
// per-round link churn with 25% recovery, 2 replications — submitted
// through POST /v1/jobs and followed over /events. The chain is burned
// in to its stationary state (about 17% of links down) before round 1,
// so all 16 rounds pay full repair replays.
var churnWorkload = &workload{
	name:         "lifetime-churn",
	blockSeconds: 0.2,
	minBlocks:    100,
	store:        true,
	jobs:         true,
	block: func(seed uint64, b int) []request {
		return []request{churnJob(seed, "churn", b)}
	},
	warm: func() []request {
		return []request{churnJob(0, "churn-warm", 0), churnJob(0, "churn-warm", 1)}
	},
}

func churnJob(seed uint64, prefix string, i int) request {
	r := newRNG(seed, uint64(0x100000+i))
	if prefix != "churn" {
		r = newRNG(seed, uint64(0x200000+i))
	}
	doc := jobDoc{Kind: "lifetime", Scenario: scenarioDoc{
		Name:     fmt.Sprintf("%s-s%d-%d", prefix, seed, i),
		Topology: topoDoc{Kind: "2d4", M: lifeSide, N: lifeSide},
		Protocol: "paper",
		Sources:  []point{lifeSource(i)},
		Lifetime: &lifetimeDoc{
			BudgetJ: 1, MaxRounds: 16, Seed: r.next(), Replications: 2,
			Strategies: []string{"static"}, ChurnRates: []float64{0.05}, PNew: 0.25,
			BurnInRounds: 16,
		},
	}}
	return request{Class: "churn-job", Path: "/v1/jobs", Body: mustJSON(doc)}
}

// lifetime-static: each block is one synchronous 4096-round static
// lifetime study with no churn; the source differs per request, so
// nothing hits the cache.
var staticWorkload = &workload{
	name:         "lifetime-static",
	blockSeconds: 0.1,
	minBlocks:    100,
	block: func(seed uint64, b int) []request {
		return []request{staticDoc(seed, "static", b)}
	},
	warm: func() []request {
		return []request{staticDoc(0, "static-warm", 0), staticDoc(0, "static-warm", 1)}
	},
}

func staticDoc(seed uint64, prefix string, i int) request {
	r := newRNG(seed, uint64(0x300000+i))
	if prefix != "static" {
		r = newRNG(seed, uint64(0x400000+i))
	}
	doc := scenarioDoc{
		Name:     fmt.Sprintf("%s-s%d-%d", prefix, seed, i),
		Topology: topoDoc{Kind: "2d4", M: lifeSide, N: lifeSide},
		Protocol: "paper",
		Sources:  []point{lifeSource(i)},
		Lifetime: &lifetimeDoc{
			BudgetJ: 1, MaxRounds: 4096, Seed: r.next(), Replications: 1,
			Strategies: []string{"static"},
		},
	}
	return request{Class: "static-life", Path: "/v1/lifetime", Body: mustJSON(doc)}
}

// The paper's four 512-node meshes.
var mixMeshes = []topoDoc{
	{Kind: "2d3", M: 32, N: 16},
	{Kind: "2d4", M: 32, N: 16},
	{Kind: "2d8", M: 32, N: 16},
	{Kind: "3d6", M: 8, N: 8, L: 8},
}

// mixRepeats is how often each catalogue document occurs in its block:
// one miss and mixRepeats-1 hits, a hit share of 4/5.
const mixRepeats = 5

// serve-mix: each block is a 32-document catalogue — 16 all-sources
// sweeps (4 meshes x {paper, flooding} x 2 packet sizes) and 16
// reliability studies (4 meshes x 4 sources, paper protocol, loss
// {0, .05, .1, .2} x failure {0, .1}, 64 replications) — each sent
// mixRepeats times in a seeded order. The shape pins the percentiles:
// p50 falls among the hits, and p90 half-way through the misses,
// among the reliability studies, the widest group of misses of one
// cost. (An order statistic inside a group of different costs, such
// as the paper sweeps of four meshes, moves with every GC pause.)
var mixWorkload = &workload{
	name:         "serve-mix",
	blockSeconds: 3.3,
	minBlocks:    1,
	block: func(seed uint64, b int) []request {
		cat := mixCatalogue(seed, fmt.Sprintf("mix-s%d-b%d", seed, b), uint64(0x500000+b))
		var out []request
		for rep := 0; rep < mixRepeats; rep++ {
			out = append(out, cat...)
		}
		r := newRNG(seed, uint64(0x600000+b))
		for i := len(out) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			out[i], out[j] = out[j], out[i]
		}
		return out
	},
	warm: func() []request {
		// One sweep per (mesh, protocol) fills the relay-plan and
		// adjacency caches for every source; one study per mesh warms
		// the lane engine.
		cat := mixCatalogue(0, "mix-warm", 0x700000)
		var out []request
		for i := 0; i < 16; i += 2 {
			out = append(out, cat[i])
		}
		for i := 16; i < 32; i += 4 {
			out = append(out, cat[i])
		}
		return out
	},
}

func mixCatalogue(seed uint64, name string, stream uint64) []request {
	r := newRNG(seed, stream)
	var out []request
	for _, proto := range []string{"paper", "flooding"} {
		for _, mesh := range mixMeshes {
			for v := 0; v < 2; v++ {
				doc := scenarioDoc{
					Name:       fmt.Sprintf("%s-%s-%s-%d", name, mesh.Kind, proto, v),
					Topology:   mesh,
					Protocol:   proto,
					PacketBits: 256 + 8*r.intn(480), // 256..4088 bits
				}
				out = append(out, request{Class: "sweep-" + proto + "-" + mesh.Kind, Path: "/v1/sweep", Body: mustJSON(doc)})
			}
		}
	}
	for _, mesh := range mixMeshes {
		for v := 0; v < 4; v++ {
			src := point{X: 1 + r.intn(mesh.M), Y: 1 + r.intn(mesh.N)}
			if mesh.L > 0 {
				src.Z = 1 + r.intn(mesh.L)
			}
			doc := scenarioDoc{
				Name:     fmt.Sprintf("%s-%s-rel-%d", name, mesh.Kind, v),
				Topology: mesh,
				Protocol: "paper",
				Sources:  []point{src},
				Reliability: &reliabilityDoc{
					Seed: r.next(), Replications: 64,
					LossRates: []float64{0, 0.05, 0.1, 0.2}, FailureRates: []float64{0, 0.1},
				},
			}
			out = append(out, request{Class: "run-reliability-" + mesh.Kind, Path: "/v1/run", Body: mustJSON(doc)})
		}
	}
	return out
}

// percentileRank is the 0-based rank the benchmark's percentile takes
// in a sorted sample of n: nearest-rank, ceil(q*n)-1.
func percentileRank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return k
}
