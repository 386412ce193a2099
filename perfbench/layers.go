package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"wsnbcast/internal/store"
)

// layerMetricUnits lists every per-layer metric the traced run
// reports, with its unit.
var layerMetricUnits = map[string]string{
	"service.hit_ms":                  "ms",
	"service.overhead_ms":             "ms",
	"service.cache_hit_ratio":         "1",
	"scenario.decode_ms":              "ms",
	"scenario.compile_ms":             "ms",
	"scenario.key_ms":                 "ms",
	"scenario.encode_ms":              "ms",
	"jobs.submit_ms":                  "ms",
	"jobs.queue_wait_ms":              "ms",
	"jobs.tail_ms":                    "ms",
	"jobs.retries":                    "count",
	"store.put_ms":                    "ms",
	"store.get_ms":                    "ms",
	"store.bytes_per_req":             "B",
	"sweep.paper_broadcasts_per_s":    "1/s",
	"sweep.flooding_broadcasts_per_s": "1/s",
	"mc.point_ms":                     "ms",
	"life.cell_ms":                    "ms",
	"life.round_us":                   "us",
	"life.delta_hit_ratio":            "1",
	"sim.paper_broadcast_us":          "us",
	"sim.flooding_broadcast_us":       "us",
	"sim.session_new_ms":              "ms",
	"sim.session_first_round_us":      "us",
	"sim.session_repeat_round_us":     "us",
	"sim.churn_round_us":              "us",
	"self.service_ms":                 "ms",
	"self.scenario_ms":                "ms",
	"self.jobs_ms":                    "ms",
	"self.store_ms":                   "ms",
	"self.sweep_ms":                   "ms",
	"self.mc_ms":                      "ms",
	"self.life_ms":                    "ms",
	"self.sim_ms":                     "ms",
	"trace.overhead_p50_ms":           "ms",
	"trace.overhead_p90_ms":           "ms",
	"trace.overhead_cpu_ms_per_req":   "ms",
}

// tracedRun measures the list twice on fresh servers — untraced, then
// traced with re-execution — and reports the per-layer metrics. A
// layer the workload never reaches is measured on a short probe list
// from the workload that does, so every traced run reports every
// layer.
func tracedRun(w *workload, seed uint64, seconds int) (result, error) {
	list := w.list(seed, seconds)
	base, err := runPass(w, seed, list, nil, setupRepeats)
	if err != nil {
		return result{}, err
	}
	tr, closeTr, err := startTracer()
	if err != nil {
		return result{}, err
	}
	defer closeTr()
	p, err := runPass(w, seed, list, tr, setupRepeats)
	if err != nil {
		return result{}, err
	}
	failed := p.failed + tr.mismatch
	n := len(list)
	m := tr.layerMetrics(w, list, p)
	m["trace.overhead_p50_ms"] = metric{ms(percentile(p.cpuLat, 0.5) - percentile(base.cpuLat, 0.5)), "ms"}
	m["trace.overhead_p90_ms"] = metric{ms(percentile(p.cpuLat, 0.9) - percentile(base.cpuLat, 0.9)), "ms"}
	m["trace.overhead_cpu_ms_per_req"] = metric{(ms(p.cpu) - ms(base.cpu)) / float64(n), "ms"}
	if err := tr.writeSpans(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
		return result{}, err
	}

	for _, other := range workloads {
		if other == w || complete(m) {
			continue
		}
		ptr, closeP, err := startTracer()
		if err != nil {
			return result{}, err
		}
		probe := probeList(other, seed)
		pp, err := runPass(other, seed, probe, ptr, 1)
		if err != nil {
			closeP()
			return result{}, fmt.Errorf("probe %s: %w", other.name, err)
		}
		for k, v := range ptr.layerMetrics(other, probe, pp) {
			if _, ok := m[k]; !ok {
				m[k] = v
			}
		}
		failed += pp.failed + ptr.mismatch
		closeP()
	}
	out := map[string]metric{}
	for k, u := range layerMetricUnits {
		v, ok := m[k]
		if !ok {
			return result{}, fmt.Errorf("traced run produced no %s", k)
		}
		v.Unit = u
		out[k] = v
	}
	fmt.Printf("# traced %s seed %d: %d requests, %d spans\n", w.name, seed, n, len(tr.spans))
	printMetrics(out)
	return result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: out}, nil
}

func complete(m map[string]metric) bool {
	for k := range layerMetricUnits {
		if _, ok := m[k]; !ok {
			return false
		}
	}
	return true
}

// startTracer returns a tracer with its scratch store open, and the
// function that removes the store.
func startTracer() (*tracer, func(), error) {
	dir, err := workDir()
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	tr := newTracer()
	tr.scratch = st
	return tr, func() { st.Close(); os.RemoveAll(dir) }, nil
}

// probeList is a short list that reaches the workload's layers: four
// requests of a lifetime workload, or for serve-mix one paper sweep,
// one flooding sweep and one reliability study, each sent twice.
func probeList(w *workload, seed uint64) []request {
	if w != mixWorkload {
		var out []request
		for b := 0; b < 4; b++ {
			out = append(out, w.block(seed, b)...)
		}
		return out
	}
	var picked []request
	have := map[string]bool{}
	for _, r := range w.block(seed, 0) {
		kind := r.Class[:strings.LastIndex(r.Class, "-")] // drop the mesh
		if !have[kind] {
			have[kind] = true
			picked = append(picked, r)
		}
	}
	return append(picked, picked...)
}

func medianMs(ds []time.Duration) (metric, bool) {
	if len(ds) == 0 {
		return metric{}, false
	}
	return metric{Value: ms(median(ds))}, true
}

func medianUs(ds []time.Duration) (metric, bool) {
	if len(ds) == 0 {
		return metric{}, false
	}
	return metric{Value: float64(median(ds)) / float64(time.Microsecond)}, true
}

func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[percentileRank(len(s), 0.5)]
}

// layerMetrics derives the per-layer metrics a pass's spans support;
// metrics of layers the pass never reached are absent.
func (t *tracer) layerMetrics(w *workload, list []request, p *pass) map[string]metric {
	m := map[string]metric{}
	put := func(name string) func(metric, bool) {
		return func(v metric, ok bool) {
			if ok {
				m[name] = v
			}
		}
	}
	var overhead []time.Duration
	for _, s := range t.spans {
		if s.Name == "service.http" && strings.HasSuffix(s.Note, " miss") && t.compute[s.Req] > 0 {
			overhead = append(overhead, s.dur()-t.compute[s.Req])
		}
	}
	put("service.overhead_ms")(medianMs(overhead))
	if v, ok := medianMs(t.durations("service.http", "POST /v1/", " hit")); ok {
		m["service.hit_ms"] = v
		m["service.cache_hit_ratio"] = metric{Value: p.hitRatio}
	}
	for _, op := range []string{"decode", "compile", "key", "encode"} {
		put("scenario." + op + "_ms")(medianMs(t.durations("scenario."+op, "", "")))
	}

	if w.jobs {
		var wait, tail []time.Duration
		for i, o := range p.outcomes {
			if o.err != nil || len(t.cells[i]) == 0 {
				continue
			}
			// The first point event is the faster of the job's
			// parallel cells; its compute is the shorter re-execution.
			wait = append(wait, o.firstPoint-o.accepted-slices.Min(t.cells[i]))
			tail = append(tail, o.done-o.lastPoint+o.latency-o.done)
		}
		put("jobs.submit_ms")(medianMs(t.durations("jobs.submit", "", "")))
		put("jobs.queue_wait_ms")(medianMs(wait))
		put("jobs.tail_ms")(medianMs(tail))
		if j := p.metricsDoc.Jobs; j != nil {
			m["jobs.retries"] = metric{Value: float64(j.Retries)}
		}
		if s := p.metricsDoc.Store; s != nil {
			m["store.bytes_per_req"] = metric{Value: float64(s.Bytes) / float64(len(list))}
		}
	}
	put("store.put_ms")(medianMs(t.durations("store.put", "", "")))
	put("store.get_ms")(medianMs(t.durations("store.get", "", "")))

	for _, proto := range []string{"paper", "flooding"} {
		var rates []float64
		for _, s := range t.spans {
			if s.Name == "sweep.sources" && strings.HasPrefix(s.Note, proto+":") {
				nodes, _ := strconv.Atoi(strings.TrimPrefix(s.Note, proto+":"))
				rates = append(rates, float64(nodes)/s.dur().Seconds())
			}
		}
		if len(rates) > 0 {
			m["sweep."+proto+"_broadcasts_per_s"] = metric{Value: medianOf(rates)}
		}
		put("sim." + proto + "_broadcast_us")(medianUs(t.durations("sim.run", proto, "")))
	}
	put("mc.point_ms")(medianMs(t.durations("mc.point", "", "")))

	put("life.cell_ms")(medianMs(t.durations("life.cell", "", "")))
	if len(t.rounds) > 0 {
		m["life.round_us"] = metric{Value: medianOf(t.rounds)}
	}
	if n := t.deltaHits + t.deltaFall; n > 0 {
		m["life.delta_hit_ratio"] = metric{Value: float64(t.deltaHits) / float64(n)}
	}
	put("sim.session_new_ms")(medianMs(t.durations("sim.session_new", "", "")))
	put("sim.session_first_round_us")(medianUs(t.durations("sim.session_first", "", "")))
	put("sim.session_repeat_round_us")(medianUs(t.durations("sim.session_repeat", "", "")))
	put("sim.churn_round_us")(medianUs(t.durations("sim.churn_round", "", "")))

	for layer, d := range t.selfTimes() {
		if _, ok := layerMetricUnits["self."+layer+"_ms"]; ok && d > 0 {
			m["self."+layer+"_ms"] = metric{Value: ms(d) / float64(len(list))}
		}
	}
	return m
}
