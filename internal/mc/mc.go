// Package mc is the Monte Carlo reliability engine: it replays one
// broadcast configuration many times under sampled packet loss and
// node failures and aggregates the replications into reliability
// curves — reachability, delay, energy and transmission counts as
// means with 95% confidence intervals per (loss rate, failure rate)
// grid point.
//
// # Determinism
//
// A replication is a pure function of its derived seed: packet loss
// and node failures come from counter-based draws (internal/sim's
// keyed PRNG), never from shared stateful generators, so neither the
// worker count nor completion order can shift a draw. Replications run
// as lockstep lane batches — up to Spec.Lanes (default 64)
// replications bit-parallel per sim.RunLanes call, one bit lane per
// replication — fanned across the internal/sweep worker pool and
// gathered in (point, replication) order; every aggregate is
// accumulated in that order, so an mc report is byte-identical for any
// -workers AND any -lanes value — the stochastic extension of the
// sweep engine's parallel==serial contract, proven by the lockstep
// differential tests in this package. Batches the lane engine declines
// (traced runs, oversized grids, non-converging repair plans) rerun
// replication-by-replication through scalar sim.Run, which the lane
// engine reproduces bit for bit. Replication seeds are shared across
// grid points (common random numbers), which couples the curves: per
// seed, raising the loss rate can only remove deliveries.
package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/stats"
	"wsnbcast/internal/sweep"
)

// Spec describes one reliability study: N seeded replications of a
// (topology, protocol, source, config) broadcast at every point of the
// loss-rate x failure-rate grid.
type Spec struct {
	Topology grid.Topology
	Protocol sim.Protocol
	Source   grid.Coord
	// Config is the base simulation config; sampled failures are merged
	// into its Down list and the loss channel replaces its Channel.
	Config sim.Config
	// Seed is the study seed; replication r of every grid point runs
	// under sim.ReplicationSeed(Seed, r).
	Seed uint64
	// Replications is the number of seeded replications per grid point
	// (>= 1).
	Replications int
	// LossRates and FailureRates span the study grid; nil means {0}.
	// Rates must lie in [0, 1].
	LossRates    []float64
	FailureRates []float64
	// Workers bounds the sweep worker pool (<= 0: GOMAXPROCS).
	Workers int
	// Lanes caps the lockstep batch width: how many replications one
	// sim.RunLanes call carries bit-parallel. 0 means the full 64-lane
	// word; 1 pins the scalar engine per replication. Any value in
	// [1, 64] produces byte-identical reports — the lane engine is
	// bit-exact against scalar sim.Run — so the knob trades batch
	// throughput against cross-batch parallelism, never results.
	Lanes int
}

func (s Spec) validate() error {
	if s.Topology == nil || s.Protocol == nil {
		return fmt.Errorf("mc: spec needs a topology and a protocol")
	}
	if !s.Topology.Contains(s.Source) {
		return fmt.Errorf("mc: source %s outside the %s mesh", s.Source, s.Topology.Kind())
	}
	if s.Replications < 1 {
		return fmt.Errorf("mc: replications must be >= 1 (got %d)", s.Replications)
	}
	for _, r := range s.LossRates {
		if r < 0 || r > 1 || math.IsNaN(r) {
			return fmt.Errorf("mc: loss rate %g outside [0, 1]", r)
		}
	}
	for _, r := range s.FailureRates {
		if r < 0 || r > 1 || math.IsNaN(r) {
			return fmt.Errorf("mc: failure rate %g outside [0, 1]", r)
		}
	}
	if s.Lanes < 0 || s.Lanes > 64 {
		return fmt.Errorf("mc: lanes must be in [0, 64] (got %d)", s.Lanes)
	}
	return nil
}

// Record is one replication's outcome — the JSONL row the wsnmc CLI
// emits, and the raw material of the per-point aggregates.
type Record struct {
	LossRate     float64 `json:"loss_rate"`
	FailureRate  float64 `json:"failure_rate"`
	Rep          int     `json:"rep"`
	Seed         uint64  `json:"seed"` // derived replication seed
	Reached      int     `json:"reached"`
	Total        int     `json:"total"`
	Down         int     `json:"down"`
	Reachability float64 `json:"reachability"`
	Delay        int     `json:"delay"`
	Tx           int     `json:"tx"`
	Rx           int     `json:"rx"`
	Lost         int     `json:"lost"`
	Collisions   int     `json:"collisions"`
	Repairs      int     `json:"repairs"`
	EnergyJ      float64 `json:"energy_j"`
}

// Metric summarizes one quantity over a point's replications: the mean
// with its normal-approximation 95% confidence half-width, plus the
// observed extremes.
type Metric struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func metric(r *stats.Running) Metric {
	return Metric{Mean: r.Mean(), CI95: r.CI95(), Min: r.Min(), Max: r.Max()}
}

// Point aggregates the replications of one (loss rate, failure rate)
// grid point.
type Point struct {
	LossRate     float64 `json:"loss_rate"`
	FailureRate  float64 `json:"failure_rate"`
	Replications int     `json:"replications"`
	// FullyReached counts replications in which every live node decoded
	// the message.
	FullyReached int    `json:"fully_reached"`
	Reachability Metric `json:"reachability"`
	Delay        Metric `json:"delay"`
	EnergyJ      Metric `json:"energy_j"`
	Tx           Metric `json:"tx"`
	Repairs      Metric `json:"repairs"`
}

// Report is the aggregated study. Points are ordered failure-rate
// major, loss rate minor, both ascending — each failure rate's run of
// points is one reachability-vs-loss-rate curve, and fixing a loss
// rate across runs reads out the reachability-vs-failure-rate curve.
type Report struct {
	Topology     string  `json:"topology"`
	Nodes        int     `json:"nodes"`
	Protocol     string  `json:"protocol"`
	Source       string  `json:"source"`
	Seed         uint64  `json:"seed"`
	Replications int     `json:"replications"`
	Points       []Point `json:"points"`
	// Records carries every replication (point-major, replication
	// minor); the CLI writes them out as JSONL.
	Records []Record `json:"-"`
}

// Curve returns the report's points at the given failure rate, in
// ascending loss-rate order: one reachability-vs-loss-rate curve.
func (r *Report) Curve(failureRate float64) []Point {
	var out []Point
	for _, p := range r.Points {
		if p.FailureRate == failureRate {
			out = append(out, p)
		}
	}
	return out
}

// CanonicalRates returns the canonical form of a grid axis: the input
// sorted ascending and deduplicated, or {0} when empty. Run applies it
// to both axes, and the scenario layer applies the same function when
// canonicalizing documents so that equivalent rate lists share one
// cache identity.
func CanonicalRates(in []float64) []float64 {
	if len(in) == 0 {
		return []float64{0}
	}
	out := append([]float64(nil), in...)
	sort.Float64s(out)
	dedup := out[:1]
	for _, r := range out[1:] {
		if r != dedup[len(dedup)-1] {
			dedup = append(dedup, r)
		}
	}
	return dedup
}

// RunPoint runs the study restricted to a single (loss, failure) grid
// point and returns that point's aggregate. Replication seeds depend
// only on the replication index — never on the grid shape — and every
// point aggregates its own replications independently, so the returned
// Point is byte-identical to the corresponding entry of a full-grid
// Run. This is the decomposition the distributed job coordinator
// shards on: one RunPoint per grid point, merged in (failure-major,
// loss-minor) order, reproduces the serial study exactly.
func RunPoint(ctx context.Context, spec Spec, loss, failure float64) (Point, error) {
	spec.LossRates = []float64{loss}
	spec.FailureRates = []float64{failure}
	rep, err := Run(ctx, spec)
	if err != nil {
		return Point{}, err
	}
	return rep.Points[0], nil
}

// repOut is one replication's slot in the batch output matrix: exactly
// one of a usable result and an error once its batch ran.
type repOut struct {
	res sim.LaneResult
	err error
}

// runBatch executes one lockstep batch — the replications [repLo,
// repLo+len(seeds)) of one grid point — into its own slots of the
// output matrix. The lane engine carries the whole batch bit-parallel;
// a batch it declines (ErrLaneFallback) reruns replication by
// replication through scalar sim.Run, built exactly as the pre-lane
// engine built its sweep jobs, so the fallback is byte-identical by
// construction rather than by argument.
func runBatch(spec Spec, loss, fail float64, seeds []uint64, out []repOut) {
	laneCfg := spec.Config
	laneCfg.Channel = nil // mc owns the channel; the seeded loss mask replaces it
	lanes, err := sim.RunLanes(sim.LaneSpec{
		Topology: spec.Topology,
		Protocol: spec.Protocol,
		Source:   spec.Source,
		Config:   laneCfg,
		Seeds:    seeds,
		LossRate: loss, FailureRate: fail,
	})
	if err == nil {
		for i, r := range lanes {
			out[i] = repOut{res: r}
		}
		return
	}
	if !errors.Is(err, sim.ErrLaneFallback) {
		for i := range out {
			out[i] = repOut{err: err}
		}
		return
	}
	for i, seed := range seeds {
		cfg := spec.Config
		if fail > 0 {
			sampled := sim.SampleFailures(spec.Topology, spec.Source, seed, fail)
			cfg.Down = append(append([]grid.Coord(nil), spec.Config.Down...), sampled...)
		}
		cfg.Channel = sim.NewBernoulliLoss(seed, loss)
		res, err := sim.Run(spec.Topology, spec.Protocol, spec.Source, cfg)
		if err != nil {
			out[i] = repOut{err: err}
			continue
		}
		out[i] = repOut{res: sim.LaneResult{
			Reached: res.Reached, Total: res.Total, Down: res.Down,
			Delay: res.Delay, Tx: res.Tx, Rx: res.Rx, Lost: res.Lost,
			Collisions: res.Collisions, Duplicates: res.Duplicates,
			Repairs: res.Repairs, EnergyJ: res.EnergyJ,
		}}
	}
}

// Run executes the study: Replications seeded replications per grid
// point, dispatched as lockstep lane batches across the sweep engine's
// worker pool, gathered and aggregated in (point, replication) order.
// The first failed replication, in that order, aborts with its
// identity; a cancelled context aborts with a partial-report error
// naming how many lane batches had completed.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	lossRates := CanonicalRates(spec.LossRates)
	failRates := CanonicalRates(spec.FailureRates)
	laneWidth := spec.Lanes
	if laneWidth == 0 {
		laneWidth = 64
	}
	if spec.Config.Trace != nil {
		// Traced runs are inherently scalar; width-1 batches keep them
		// one sweep task per replication, as before the lane engine.
		laneWidth = 1
	}

	type gridPoint struct {
		loss, fail float64
	}
	var points []gridPoint
	for _, fr := range failRates {
		for _, lr := range lossRates {
			points = append(points, gridPoint{loss: lr, fail: fr})
		}
	}

	// The replication seed depends only on the replication index, so
	// grid points share uniforms (common random numbers) and the lane
	// batching boundary cannot shift any draw.
	seeds := make([]uint64, spec.Replications)
	for r := range seeds {
		seeds[r] = sim.ReplicationSeed(spec.Seed, r)
	}

	// One task per (point, lane batch), each writing its own slots of
	// the output matrix; the final batch of a point is ragged when
	// Replications is not a multiple of the lane width.
	outs := make([]repOut, len(points)*spec.Replications)
	var fns []func() error
	for pi, pt := range points {
		base := pi * spec.Replications
		for lo := 0; lo < spec.Replications; lo += laneWidth {
			hi := min(lo+laneWidth, spec.Replications)
			pt, lo, hi := pt, lo, hi
			fns = append(fns, func() error {
				runBatch(spec, pt.loss, pt.fail, seeds[lo:hi], outs[base+lo:base+hi])
				return nil
			})
		}
	}

	if _, err := sweep.New(spec.Workers).RunFuncs(ctx, fns); err != nil {
		done := 0
		for _, o := range outs {
			if o.err != nil || o.res.Total > 0 {
				done++
			}
		}
		return nil, fmt.Errorf("mc: cancelled after %d/%d replications: %w",
			done, len(outs), err)
	}

	rep := &Report{
		Topology:     spec.Topology.Kind().String(),
		Nodes:        spec.Topology.NumNodes(),
		Protocol:     spec.Protocol.Name(),
		Source:       spec.Source.String(),
		Seed:         spec.Seed,
		Replications: spec.Replications,
		Points:       make([]Point, 0, len(points)),
		Records:      make([]Record, 0, len(outs)),
	}
	// Per-point sample buffers, reused across points: the per-lane
	// values are gathered in replication order and folded into the
	// running moments with one AddAll each, which keeps the accumulation
	// order — and therefore every float — identical to the
	// per-replication loop the lane engine replaced.
	samples := struct{ reach, delay, energy, tx, repairs []float64 }{}
	for pi, pt := range points {
		var reach, delay, energy, tx, repairs stats.Running
		samples.reach = samples.reach[:0]
		samples.delay = samples.delay[:0]
		samples.energy = samples.energy[:0]
		samples.tx = samples.tx[:0]
		samples.repairs = samples.repairs[:0]
		p := Point{LossRate: pt.loss, FailureRate: pt.fail, Replications: spec.Replications}
		for r := 0; r < spec.Replications; r++ {
			o := outs[pi*spec.Replications+r]
			if o.err != nil {
				return nil, fmt.Errorf("mc: replication %d at loss=%g failure=%g: %w",
					r, pt.loss, pt.fail, o.err)
			}
			res := o.res
			rep.Records = append(rep.Records, Record{
				LossRate: pt.loss, FailureRate: pt.fail,
				Rep: r, Seed: seeds[r],
				Reached: res.Reached, Total: res.Total, Down: res.Down,
				Reachability: res.Reachability(), Delay: res.Delay,
				Tx: res.Tx, Rx: res.Rx, Lost: res.Lost,
				Collisions: res.Collisions, Repairs: res.Repairs,
				EnergyJ: res.EnergyJ,
			})
			samples.reach = append(samples.reach, res.Reachability())
			samples.delay = append(samples.delay, float64(res.Delay))
			samples.energy = append(samples.energy, res.EnergyJ)
			samples.tx = append(samples.tx, float64(res.Tx))
			samples.repairs = append(samples.repairs, float64(res.Repairs))
			if res.FullyReached() {
				p.FullyReached++
			}
		}
		reach.AddAll(samples.reach...)
		delay.AddAll(samples.delay...)
		energy.AddAll(samples.energy...)
		tx.AddAll(samples.tx...)
		repairs.AddAll(samples.repairs...)
		p.Reachability = metric(&reach)
		p.Delay = metric(&delay)
		p.EnergyJ = metric(&energy)
		p.Tx = metric(&tx)
		p.Repairs = metric(&repairs)
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}
