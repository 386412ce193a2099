// Command perfbench is the repository benchmark: closed-loop,
// fixed-list workloads against an in-process wsnbcast service over
// loopback, with one client. Run it from the checkout root:
//
//	bash perfbench/run.sh --workload lifetime-static --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run. The last line of standard output is the
// result object; the lines before it are the run-environment record
// and a human summary. --steady K runs a workload K times, seeds
// --seed onwards, and prints each end-to-end metric's median and
// quartiles; --record rewrites expected.json, the body digests of the
// default seed. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"time"
)

const defaultSeed = 1

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: lifetime-churn, lifetime-static or serve-mix")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 20, "run length; fixes the request count, not the wall time")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		steady  = flag.Int("steady", 0, "run the workload this many times, seeds --seed onwards, and report spreads")
		record  = flag.Bool("record", false, "rewrite perfbench/expected.json for the default seed")
	)
	flag.Parse()
	if *record {
		if err := recordDigests(*seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		if err := steadiness(w, *steady, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var res result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, *seconds)
	} else {
		res, err = timedRun(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run builds and warms a server; the
// reported setup_s is their median, and the last one serves the list.
const setupRepeats = 5

// pass is one timed pass of a request list against one server.
type pass struct {
	setup      []time.Duration // process CPU time of each set-up
	lat        []time.Duration // wall time per request
	cpuLat     []time.Duration // process CPU time per request
	outcomes   []outcome
	wall       time.Duration
	cpu        time.Duration
	liveHeap   uint64
	rssP95     int64 // p95 of the RSS samples of the timed phase
	hitRatio   float64
	failed     int // requests that failed or failed the output check
	env        runEnv
	metricsDoc metricsDoc
}

// runPass builds the server setups times, sends the list on the last
// one, takes the end-of-pass readings and checks the outputs. tr, when
// non-nil, traces the pass. The server is closed before it returns.
func runPass(w *workload, seed uint64, list []request, tr *tracer, setups int) (*pass, error) {
	ctx := context.Background()
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &pass{}
	var b *bench
	for i := 0; i < setups; i++ {
		c0 := cpuTime()
		var wrap func(http.Handler) http.Handler
		if tr != nil {
			wrap = tr.wrap
		}
		b, err = newBench(w, dir, wrap)
		if err != nil {
			return nil, err
		}
		if err := b.warm(ctx); err != nil {
			b.close()
			return nil, err
		}
		p.setup = append(p.setup, cpuTime()-c0)
		if i < setups-1 {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
	}
	defer b.close()

	// Start the timed phase from a collected heap with the set-ups'
	// garbage returned to the OS.
	debug.FreeOSMemory()
	hostBefore := sampleHost()
	rss := startRSSSampler()
	cpu0 := cpuTime()
	t0 := time.Now()
	var digestCPU time.Duration
	p.outcomes = make([]outcome, len(list))
	p.cpuLat = make([]time.Duration, len(list))
	for i, r := range list {
		tag := ""
		if tr != nil {
			tag = tr.begin(i)
		}
		c0 := cpuTime()
		o := b.do(ctx, r, tag)
		c1 := cpuTime()
		p.cpuLat[i] = c1 - c0
		// Keep the digest only: bodies held by the client would count
		// in the heap and RSS readings. The check re-fetches the few
		// bodies it recomputes. Hashing is the benchmark's own work and
		// stays out of the CPU total.
		o.digest, o.body = digest(o.body), nil
		digestCPU += cpuTime() - c1
		p.outcomes[i] = o
		if tr != nil {
			tr.end(i, r, p.outcomes[i])
		}
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0 - digestCPU
	p.rssP95 = rss.finish(0.95)
	hostAfter := sampleHost()
	p.liveHeap = liveHeapBytes()
	p.env = newRunEnv(hostBefore, hostAfter, b.storeDir)
	p.lat = make([]time.Duration, len(list))
	for i, o := range p.outcomes {
		p.lat[i] = o.latency
	}
	if p.metricsDoc, err = b.metrics(ctx); err != nil {
		return nil, err
	}
	if n := p.metricsDoc.CacheHits + p.metricsDoc.CacheMisses; n > 0 {
		p.hitRatio = float64(p.metricsDoc.CacheHits) / float64(n)
	}
	if p.failed, err = checkOutputs(ctx, b, seed, list, p.outcomes); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.reexecute(ctx, list, p.outcomes); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// timedRun is the untraced run: one checked pass and its end-to-end
// metrics.
func timedRun(w *workload, seed uint64, seconds int) (result, error) {
	list := w.list(seed, seconds)
	p, err := runPass(w, seed, list, nil, setupRepeats)
	if err != nil {
		return result{}, err
	}
	failed, n := p.failed, len(list)
	res := result{
		Correct:   failed == 0,
		Attempted: n,
		Failed:    failed,
		Metrics:   endToEnd(p, n),
	}
	printEnv(w, seed, p.env)
	fmt.Printf("# %s seed %d: %d timed requests (p90 has %d samples beyond it), hit share %.4f\n",
		w.name, seed, n, n-1-percentileRank(n, 0.9), p.hitRatio)
	// Wall-clock figures move with hypervisor steal (steal_s above), so
	// they are printed for the reader but are not result metrics.
	fmt.Printf("# wall: throughput_rps %.4f (1/s), latency_p50_ms %.3f (ms), latency_p90_ms %.3f (ms); failed_ratio %g (1)\n",
		float64(n)/p.wall.Seconds(), ms(percentile(p.lat, 0.5)), ms(percentile(p.lat, 0.9)), float64(failed)/float64(n))
	// The median request's CPU is printed but is not a result metric:
	// on serve-mix it is a ~0.2 ms cache hit, whose CPU moves with the
	// host's load by more than any bound the benchmark may set.
	fmt.Printf("# cpu_p50_ms %.4f (ms)\n", ms(percentile(p.cpuLat, 0.5)))
	if hwm, err := peakRSSBytes(); err == nil {
		fmt.Printf("# process peak RSS (VmHWM, set-ups and check included): %.1f MB\n", float64(hwm)/(1<<20))
	}
	printClasses(list, p)
	printMetrics(res.Metrics)
	return res, nil
}

// endToEnd is the untraced run's result metrics.
func endToEnd(p *pass, n int) map[string]metric {
	return map[string]metric{
		"setup_s":          {median(p.setup).Seconds(), "s"},
		"cpu_ms_per_req":   {ms(p.cpu) / float64(n), "ms"},
		"cpu_p90_ms":       {ms(percentile(p.cpuLat, 0.9)), "ms"},
		"rss_p95_mb":       {float64(p.rssP95) / (1 << 20), "MB"},
		"retained_heap_mb": {float64(p.liveHeap) / (1 << 20), "MB"},
	}
}

func printEnv(w *workload, seed uint64, env runEnv) {
	b, _ := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		runEnv
	}{w.name, seed, env})
	fmt.Printf("# env %s\n", b)
}

// printClasses prints each effective class's count and median wall
// and CPU time.
func printClasses(list []request, p *pass) {
	seen := map[string]bool{}
	byClass := map[string][]time.Duration{}
	cpuByClass := map[string][]time.Duration{}
	for i, r := range list {
		c := r.Class
		if seen[r.Doc()] {
			c = "hit" + r.Path
		}
		seen[r.Doc()] = true
		byClass[c] = append(byClass[c], p.lat[i])
		cpuByClass[c] = append(cpuByClass[c], p.cpuLat[i])
	}
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		fmt.Printf("#   class %-22s n=%-5d wall p50 %9.3f ms  cpu p50 %9.3f ms\n", c, len(byClass[c]),
			ms(median(byClass[c])), ms(median(cpuByClass[c])))
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("#   %-34s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank q-quantile of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[percentileRank(len(s), q)]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }
