package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/life"
	"wsnbcast/internal/mc"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/store"
)

// expected.json holds the SHA-256 of every timed document's response
// body for the default seed, keyed by request.Doc(). --record writes
// it, and only for bodies on which every independent path agrees.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	Seed    uint64            `json:"seed"`
	Seconds int               `json:"seconds"`
	Digests map[string]string `json:"digests"`
}

func loadExpected() (expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// crossCheckSample bounds the costly recomputations of a run without
// recorded digests: the first crossCheckSample lifetime bodies are
// recomputed on the frozen reference round loop, and the first
// crossCheckSample studies' points on the scalar Monte Carlo engine.
// Sweep rows and broadcast rows are checked for every document.
const crossCheckSample = 3

// checkOutputs counts the requests that failed: a transport error, a
// non-2xx status, or a body that matches neither its recorded digest
// nor — for documents without one — the independent recomputation.
// Recomputed bodies are fetched again from the still-running server
// (a cache hit, or the finished job's result) and must carry the
// digest the timed pass saw; repeats must match their first body.
func checkOutputs(ctx context.Context, b *bench, seed uint64, list []request, outs []outcome) (int, error) {
	exp, err := loadExpected()
	if err != nil {
		return 0, err
	}
	failed := 0
	first := map[string]string{} // document -> digest of its first body
	lifeChecks, studyChecks := 0, 0
	for i, o := range outs {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", i, o.err)
			failed++
			continue
		}
		d := list[i].Doc()
		if want, ok := exp.Digests[d]; ok && seed == exp.Seed {
			if o.digest != want {
				fmt.Fprintf(os.Stderr, "perfbench: request %d: body digest %s, want %s\n", i, o.digest, want)
				failed++
			}
			continue
		}
		if prev, ok := first[d]; ok {
			if o.digest != prev {
				fmt.Fprintf(os.Stderr, "perfbench: request %d: a repeat returned a different body\n", i)
				failed++
			}
			continue
		}
		first[d] = o.digest
		if isLifetime(list[i]) {
			if lifeChecks >= crossCheckSample {
				continue
			}
			lifeChecks++
		}
		points := false
		if list[i].Path == "/v1/run" {
			points = studyChecks < crossCheckSample
			studyChecks++
		}
		again := b.do(ctx, list[i], "")
		if again.err == nil && digest(again.body) != o.digest {
			again.err = errors.New("the body fetched again differs from the timed one")
		}
		if again.err == nil {
			again.err = crossCheck(list[i], again.body, points)
		}
		if again.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", i, again.err)
			failed++
		}
	}
	return failed, nil
}

func isLifetime(r request) bool { return r.Class == "churn-job" || r.Class == "static-life" }

// scenarioOf decodes the scenario a request carries, canonicalized as
// the server does.
func scenarioOf(r request) (scenario.Scenario, error) {
	raw := r.Body
	if r.Path == "/v1/jobs" {
		var j struct {
			Scenario json.RawMessage `json:"scenario"`
		}
		if err := json.Unmarshal(raw, &j); err != nil {
			return scenario.Scenario{}, err
		}
		raw = j.Scenario
	}
	sc, err := scenario.Load(bytes.NewReader(raw))
	if err != nil {
		return sc, err
	}
	return sc.Canonical(), nil
}

// lifeSpec builds the internal/life study a canonical lifetime
// scenario describes, exactly as the serving path does.
func lifeSpec(sc scenario.Scenario, workers int) (life.Spec, error) {
	topo, p, cfg, err := sc.Compile()
	if err != nil {
		return life.Spec{}, err
	}
	l := sc.Lifetime
	if l == nil {
		return life.Spec{}, errors.New("not a lifetime document")
	}
	sts := make([]life.Strategy, len(l.Strategies))
	for i, name := range l.Strategies {
		if sts[i], err = life.ParseStrategy(name); err != nil {
			return life.Spec{}, err
		}
	}
	return life.Spec{
		Topology: topo, Protocol: p, Source: sc.Sources[0].Coord(), Config: cfg,
		BudgetJ: l.BudgetJ, MaxRounds: l.MaxRounds, Seed: l.Seed,
		Replications: l.Replications, Strategies: sts,
		PFail: l.ChurnRates, PNew: l.PNew, BurnInRounds: l.BurnInRounds,
		Workers: workers,
	}, nil
}

// lifeReport renders cells as the lifetime endpoint's body.
func lifeReport(sc scenario.Scenario, spec life.Spec, cells []life.CellReport) ([]byte, error) {
	return store.EncodeBody(scenario.Report{
		Name: sc.Name, Topology: sc.Topology.Kind, Protocol: spec.Protocol.Name(),
		Lifetime: cells, LifetimeSeed: spec.Seed,
	})
}

// referenceLifetime recomputes a lifetime body on life.Spec.Reference,
// the frozen per-round sim.Run path.
func referenceLifetime(sc scenario.Scenario) ([]byte, error) {
	spec, err := lifeSpec(sc, poolSize())
	if err != nil {
		return nil, err
	}
	spec.Reference = true
	cells, err := life.Run(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return lifeReport(sc, spec, cells)
}

// crossCheck recomputes a body independently of the serving path:
// lifetime studies on the reference round loop, sweep rows and
// reliability broadcasts on sim.RunReference, and — when points is
// set — reliability points on the scalar Monte Carlo engine (one lane
// per replication).
func crossCheck(r request, body []byte, points bool) error {
	sc, err := scenarioOf(r)
	if err != nil {
		return err
	}
	if sc.Lifetime != nil {
		want, err := referenceLifetime(sc)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want) {
			return fmt.Errorf("lifetime body differs from the reference path (%s vs %s)", digest(body), digest(want))
		}
		return nil
	}
	var rep scenario.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	topo, p, cfg, err := sc.Compile()
	if err != nil {
		return err
	}
	if len(sc.Sources) == 0 {
		if len(rep.Runs) != topo.NumNodes() {
			return fmt.Errorf("sweep has %d rows for %d nodes", len(rep.Runs), topo.NumNodes())
		}
		for i := 0; i < topo.NumNodes(); i += 37 {
			if err := checkRow(topo, p, cfg, topo.At(i), rep.Runs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if len(rep.Runs) != 1 || sc.Reliability == nil {
		return errors.New("reliability body has no broadcast row or no study")
	}
	src := sc.Sources[0].Coord()
	if err := checkRow(topo, p, cfg, src, rep.Runs[0]); err != nil {
		return err
	}
	if !points {
		return nil
	}
	study, err := mc.Run(context.Background(), mc.Spec{
		Topology: topo, Protocol: p, Source: src, Config: cfg,
		Seed: sc.Reliability.Seed, Replications: sc.Reliability.Replications,
		LossRates: sc.Reliability.LossRates, FailureRates: sc.Reliability.FailureRates,
		Workers: poolSize(), Lanes: 1,
	})
	if err != nil {
		return err
	}
	got, _ := json.Marshal(rep.Reliability)
	want, _ := json.Marshal(study.Points)
	if !bytes.Equal(got, want) {
		return errors.New("reliability points differ from the scalar Monte Carlo engine")
	}
	return nil
}

func checkRow(topo grid.Topology, p sim.Protocol, cfg sim.Config, src grid.Coord, got scenario.RunReport) error {
	r, err := sim.RunReference(topo, p, src, cfg)
	if err != nil {
		return err
	}
	want := scenario.RunReport{
		Source: scenario.Point{X: src.X, Y: src.Y, Z: src.Z},
		Tx:     r.Tx, Rx: r.Rx, EnergyJ: r.EnergyJ, Delay: r.Delay,
		Reached: r.Reached, Total: r.Total, Collisions: r.Collisions,
		Duplicates: r.Duplicates, Repairs: r.Repairs,
	}
	if got.Source.Z == 0 {
		want.Source.Z = 0
	}
	if got != want {
		return fmt.Errorf("row for source %v is %+v, reference %+v", src, got, want)
	}
	return nil
}

// recordDigests computes every timed document of the default seed on
// three paths — the synchronous endpoint, the job path and the
// reference recomputation — and writes perfbench/expected.json only if
// all three agree on every body.
func recordDigests(seconds int) error {
	ctx := context.Background()
	dir, err := workDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	syncB, err := newBench(&workload{}, dir, nil)
	if err != nil {
		return err
	}
	defer syncB.close()
	jobB, err := newBench(&workload{jobs: true, store: true}, dir, nil)
	if err != nil {
		return err
	}
	defer jobB.close()

	out := expectedFile{Seed: defaultSeed, Seconds: seconds, Digests: map[string]string{}}
	for _, w := range workloads {
		for _, r := range w.list(defaultSeed, seconds) {
			d := r.Doc()
			if _, ok := out.Digests[d]; ok {
				continue
			}
			sc, err := scenarioOf(r)
			if err != nil {
				return err
			}
			kind, path := "", r.Path
			switch {
			case sc.Lifetime != nil:
				kind, path = "lifetime", "/v1/lifetime"
			case len(sc.Sources) == 0:
				kind = "sweep"
			default:
				kind = "run"
			}
			scJSON, err := json.Marshal(sc)
			if err != nil {
				return err
			}
			syncBody, err := syncB.post(ctx, path, scJSON, "")
			if err != nil {
				return fmt.Errorf("%s: sync: %w", w.name, err)
			}
			jobReq := request{Class: r.Class, Path: "/v1/jobs", Body: mustJSON(struct {
				Kind     string          `json:"kind"`
				Scenario json.RawMessage `json:"scenario"`
			}{kind, scJSON})}
			o := jobB.do(ctx, jobReq, "")
			if o.err != nil {
				return fmt.Errorf("%s: job: %w", w.name, o.err)
			}
			if !bytes.Equal(syncBody, o.body) {
				return fmt.Errorf("%s: %s: sync and job bodies differ; refusing to record", w.name, sc.Name)
			}
			if err := crossCheck(r, syncBody, true); err != nil {
				return fmt.Errorf("%s: %s: %w; refusing to record", w.name, sc.Name, err)
			}
			out.Digests[d] = digest(syncBody)
		}
		fmt.Printf("# recorded %s: %d digests so far\n", w.name, len(out.Digests))
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "expected.json"), append(b, '\n'), 0o644)
}
