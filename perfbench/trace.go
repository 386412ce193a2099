package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/life"
	"wsnbcast/internal/mc"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/store"
	"wsnbcast/internal/sweep"
)

// The traced run. Spans are recorded only in the benchmark's own code:
// around the client's HTTP exchanges, around the server's ServeHTTP
// (a handler wrapper), and around the public calls the handler makes,
// which the tracer re-executes for every document after the timed
// pass. Spans stay in memory and are written to
// .bench_build/traces/<workload>-seed<N>.jsonl when the run ends.

// spanHeader carries "<request>:<parent span>" from the client to the
// handler wrapper, so server spans join their request's tree.
const spanHeader = "X-Bench-Span"

type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: root
	Req    int           `json:"req"`
	Name   string        `json:"name"` // "<layer>.<operation>"
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Note   string        `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }
func (s span) layer() string      { l, _, _ := strings.Cut(s.Name, "."); return l }

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	roots map[int]int // request -> root span id

	// Filled by reexecute: per request, the direct compute time (the
	// engine-layer calls only; zero for reliability studies) and the
	// per-cell times of lifetime documents; plus the lifetime delta
	// counters and the scratch store the store spans write to.
	compute   map[int]time.Duration
	cells     map[int][]time.Duration
	deltaHits uint64
	deltaFall uint64
	rounds    []float64 // per cell: cell time in µs / rounds
	mismatch  int       // re-executed bodies that differ from the served ones
	scratch   *store.Store
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		roots:   map[int]int{},
		compute: map[int]time.Duration{},
		cells:   map[int][]time.Duration{},
	}
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// timed runs f inside a span named name.
func (t *tracer) timed(req, parent int, name, note string, f func() error) (time.Duration, error) {
	start := t.now()
	err := f()
	end := t.now()
	t.add(span{Parent: parent, Req: req, Name: name, Start: start, End: end, Note: note})
	return end - start, err
}

// wrap is the handler wrapper: one service.http span per tagged
// request, noted with the response's X-Cache. Untagged requests —
// set-up, warm-up and the output check — are not traced.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(spanHeader)
		if tag == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		a, b, _ := strings.Cut(tag, ":")
		req, _ := strconv.Atoi(a)
		parent, _ := strconv.Atoi(b)
		t.add(span{Parent: parent, Req: req, Name: "service.http", Start: start, End: end,
			Note: r.Method + " " + r.URL.Path + " " + w.Header().Get("X-Cache")})
	})
}

// begin opens request i's root span; its id is reserved now so that
// server spans can name it as their parent.
func (t *tracer) begin(i int) string {
	id := t.add(span{Req: i, Name: "client.request", Start: t.now()})
	t.mu.Lock()
	t.roots[i] = id
	t.mu.Unlock()
	return fmt.Sprintf("%d:%d", i, id)
}

// end closes request i's root span and, for a job, adds the client's
// phases from the outcome's timeline.
func (t *tracer) end(i int, r request, o outcome) {
	t.mu.Lock()
	id := t.roots[i]
	root := &t.spans[id-1]
	root.End = t.now()
	root.Note = r.Class
	start := root.Start
	t.mu.Unlock()
	if o.err != nil || o.accepted == 0 {
		return
	}
	phases := []span{
		{Name: "jobs.submit", Start: start, End: start + o.accepted},
		{Name: "jobs.wait", Start: start + o.accepted, End: start + o.done},
		{Name: "jobs.result", Start: start + o.done, End: start + o.latency},
	}
	for k := range phases {
		phases[k].Parent, phases[k].Req = id, i
		phases[k].ID = t.add(phases[k])
	}
	// The handler spans of the three exchanges were recorded under the
	// root; move each under the client phase that contains its start.
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.spans {
		s := &t.spans[k]
		if s.Req != i || s.Name != "service.http" {
			continue
		}
		for _, ph := range phases {
			if s.Start >= ph.Start && s.Start < ph.End {
				s.Parent = ph.ID
			}
		}
	}
}

// reexecute runs every first-sight document of the list again through
// the public calls the serving path makes, in order, each in a span,
// and compares the rebuilt body with the served one.
func (t *tracer) reexecute(ctx context.Context, list []request, outs []outcome) error {
	seen := map[string]bool{}
	for i, r := range list {
		if seen[r.Doc()] || outs[i].err != nil {
			continue
		}
		seen[r.Doc()] = true
		body, err := t.direct(ctx, i, r)
		if err != nil {
			return fmt.Errorf("re-execute request %d: %w", i, err)
		}
		if digest(body) != outs[i].digest {
			t.mismatch++
		}
	}
	return nil
}

// direct is one document's re-execution.
func (t *tracer) direct(ctx context.Context, i int, r request) ([]byte, error) {
	root := t.add(span{Req: i, Name: "bench.direct", Start: t.now()})
	defer func() {
		t.mu.Lock()
		t.spans[root-1].End = t.now()
		t.mu.Unlock()
	}()
	var sc scenario.Scenario
	if _, err := t.timed(i, root, "scenario.decode", "", func() error {
		var err error
		sc, err = scenarioOf(r)
		return err
	}); err != nil {
		return nil, err
	}
	var topo grid.Topology
	var proto sim.Protocol
	var cfg sim.Config
	if _, err := t.timed(i, root, "scenario.compile", "", func() error {
		var err error
		topo, proto, cfg, err = sc.Compile()
		return err
	}); err != nil {
		return nil, err
	}
	endpoint := map[string]string{"/v1/sweep": "sweep", "/v1/run": "run", "/v1/lifetime": "lifetime", "/v1/jobs": "lifetime"}[r.Path]
	if _, err := t.timed(i, root, "scenario.key", "", func() error {
		_, err := store.Key(endpoint, sc)
		return err
	}); err != nil {
		return nil, err
	}

	var rep scenario.Report
	var computeDur time.Duration
	switch {
	case sc.Lifetime != nil:
		spec, err := lifeSpec(sc, 1)
		if err != nil {
			return nil, err
		}
		cells := make([]life.CellReport, spec.NumCells())
		for c := range cells {
			d, err := t.timed(i, root, "life.cell", "", func() error {
				var err error
				cells[c], err = life.RunCell(ctx, spec, c, nil)
				return err
			})
			if err != nil {
				return nil, err
			}
			computeDur += d
			t.cells[i] = append(t.cells[i], d)
			t.deltaHits += cells[c].DeltaHits
			t.deltaFall += cells[c].DeltaFallbacks
			t.rounds = append(t.rounds, float64(d.Microseconds())/float64(cells[c].Rounds))
			if r.Path == "/v1/jobs" {
				if err := t.storeRoundTrip(i, root, r, c, cells[c]); err != nil {
					return nil, err
				}
			}
		}
		if err := t.sessionProbe(i, root, spec); err != nil {
			return nil, err
		}
		rep = scenario.Report{Name: sc.Name, Topology: sc.Topology.Kind, Protocol: proto.Name(),
			Lifetime: cells, LifetimeSeed: spec.Seed}

	case len(sc.Sources) == 0:
		var results []*sim.Result
		note := fmt.Sprintf("%s:%d", sc.Protocol, topo.NumNodes())
		d, err := t.timed(i, root, "sweep.sources", note, func() error {
			var err error
			results, err = sweep.New(poolSize()).SweepSources(ctx, topo, proto, cfg, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		computeDur = d
		rep = scenario.Report{Name: sc.Name, Topology: sc.Topology.Kind, Protocol: proto.Name()}
		for k, res := range results {
			src := topo.At(k)
			rep.Runs = append(rep.Runs, scenario.RunReport{
				Source: scenario.Point{X: src.X, Y: src.Y, Z: src.Z},
				Tx:     res.Tx, Rx: res.Rx, EnergyJ: res.EnergyJ, Delay: res.Delay,
				Reached: res.Reached, Total: res.Total, Collisions: res.Collisions,
				Duplicates: res.Duplicates, Repairs: res.Repairs,
			})
		}
		scenario.SweepSummary(&rep)
		// sim.Run per broadcast on a sample of sources.
		for k := 0; k < topo.NumNodes(); k += 64 {
			if _, err := t.timed(i, root, "sim.run", sc.Protocol, func() error {
				_, err := sim.Run(topo, proto, topo.At(k), cfg)
				return err
			}); err != nil {
				return nil, err
			}
		}

	default:
		src := sc.Sources[0]
		var res *sim.Result
		_, err := t.timed(i, root, "sim.run", sc.Protocol, func() error {
			var err error
			res, err = sim.Run(topo, proto, src.Coord(), cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		// The points run one after another here but in parallel
		// inside the handler, so a study has no comparable compute
		// time and stays out of service.overhead_ms.
		rep = scenario.Report{Name: sc.Name, Topology: strings.ToLower(sc.Topology.Kind), Protocol: proto.Name(),
			Runs: []scenario.RunReport{{
				Source: src, Tx: res.Tx, Rx: res.Rx, EnergyJ: res.EnergyJ, Delay: res.Delay,
				Reached: res.Reached, Total: res.Total, Collisions: res.Collisions,
				Duplicates: res.Duplicates, Repairs: res.Repairs,
			}}}
		rel := sc.Reliability
		spec := mc.Spec{Topology: topo, Protocol: proto, Source: src.Coord(), Config: cfg,
			Seed: rel.Seed, Replications: rel.Replications}
		for _, fail := range mc.CanonicalRates(rel.FailureRates) {
			for _, loss := range mc.CanonicalRates(rel.LossRates) {
				var pt mc.Point
				_, err := t.timed(i, root, "mc.point", "", func() error {
					var err error
					pt, err = mc.RunPoint(ctx, spec, loss, fail)
					return err
				})
				if err != nil {
					return nil, err
				}
				rep.Reliability = append(rep.Reliability, pt)
			}
		}
		rep.ReliabilitySeed = rel.Seed
	}
	t.compute[i] = computeDur

	var body []byte
	_, err := t.timed(i, root, "scenario.encode", "", func() error {
		var err error
		body, err = store.EncodeBody(rep)
		return err
	})
	return body, err
}

// storeRoundTrip writes a job point's payload to the scratch store and
// reads it back, as the job fabric does for every point.
func (t *tracer) storeRoundTrip(i, root int, r request, c int, cell life.CellReport) error {
	payload, err := json.Marshal(cell)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("trace/%s/%d", r.Doc(), c)
	if _, err := t.timed(i, root, "store.put", "", func() error { return t.scratch.Put(key, payload) }); err != nil {
		return err
	}
	_, err = t.timed(i, root, "store.get", "", func() error {
		if _, ok := t.scratch.Get(key); !ok {
			return fmt.Errorf("store: %s vanished", key)
		}
		return nil
	})
	return err
}

// sessionProbe times a fresh round-persistent session on the study's
// mesh: construction, a first and a repeat round from the source, and
// — for a churning study — one round after the cell's first churn
// step, applied link by link with the cell's own draws.
func (t *tracer) sessionProbe(i, root int, spec life.Spec) error {
	var sess *sim.Session
	if _, err := t.timed(i, root, "sim.session_new", "", func() error {
		var err error
		sess, err = sim.NewSession(spec.Topology, spec.Protocol, spec.Config)
		return err
	}); err != nil {
		return err
	}
	for _, name := range []string{"sim.session_first", "sim.session_repeat"} {
		if _, err := t.timed(i, root, name, "", func() error {
			_, err := sess.Run(spec.Source)
			return err
		}); err != nil {
			return err
		}
	}
	if len(spec.PFail) == 0 || spec.PFail[0] == 0 {
		return nil
	}
	cell := spec.CellAt(0)
	for id := range sim.LinksOf(spec.Topology) {
		if sim.ChurnUnit(cell.Seed, spec.BurnInRounds+1, int32(id)) < cell.PFail {
			if err := sess.SetLinkDown(id); err != nil {
				return err
			}
		}
	}
	_, err := t.timed(i, root, "sim.churn_round", "", func() error {
		_, err := sess.Run(spec.Source)
		return err
	})
	return err
}

// durations returns the durations of the spans named name whose note
// has the given prefix and suffix.
func (t *tracer) durations(name, notePrefix, noteSuffix string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && strings.HasPrefix(s.Note, notePrefix) && strings.HasSuffix(s.Note, noteSuffix) {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each layer's total self time: a span's duration
// minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
