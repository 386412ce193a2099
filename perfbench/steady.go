package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads: the end-to-end metrics and their bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs the workload k times in child processes, with seeds
// first..first+k-1, and prints each end-to-end metric's median and
// quartiles. A metric whose quartile spread, as a share of its median,
// exceeds its BENCHMARK.json bound is flagged (setup_s has no spread
// limit, only a median-shift one, and is flagged for information).
func steadiness(w *workload, k int, first uint64, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < k; i++ {
		seed := first + uint64(i)
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d requests failed", seed, res.Failed, res.Attempted)
		}
		var env runEnv
		for _, l := range lines {
			if rest, ok := bytes.CutPrefix(l, []byte("# env ")); ok {
				_ = json.Unmarshal(rest, &env) // diagnostics only
			}
		}
		fmt.Printf("# seed %d: steal_s=%.2f", seed, env.StealS)
		for _, m := range bf.EndToEnd {
			v := res.Metrics[m.Name].Value
			values[m.Name] = append(values[m.Name], v)
			fmt.Printf(" %s=%.4g", m.Name, v)
		}
		fmt.Println()
	}
	fmt.Printf("%-18s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, m := range bf.EndToEnd {
		q1, med, q3 := quartiles(values[m.Name])
		spread := (q3 - q1) / med
		flag := ""
		if spread > m.Bound {
			flag = "  SPREAD EXCEEDS BOUND"
		} else if spread > m.Bound/3 {
			flag = "  above a third of bound"
		}
		fmt.Printf("%-18s %12.5g %12.5g %12.5g %8.4f %6.2f%s\n", m.Name, med, q1, q3, spread, m.Bound, flag)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics module computes them (quantiles with the
// default exclusive method, and median).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return s[0], med, s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}
