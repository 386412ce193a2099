package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time (getrusage): unlike
// wall time it excludes hypervisor steal.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes reads VmHWM from /proc/self/status.
func peakRSSBytes() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, sc.Err()
}

// rssBytes reads the current resident set size from /proc/self/statm.
func rssBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize()), err
}

// rssEvery is the RSS sampling period of a timed phase.
const rssEvery = 10 * time.Millisecond

// rssSampler records the RSS every rssEvery until finish. A high
// quantile of the samples is a steadier reading of the phase's peak
// memory than VmHWM, a single maximum that moves with the phase of the
// GC cycle at the worst instant.
type rssSampler struct {
	stop, done chan struct{}
	samples    []int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if v, err := rssBytes(); err == nil {
				s.samples = append(s.samples, v)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the q-quantile
// of its samples.
func (s *rssSampler) finish(q float64) int64 {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		return 0
	}
	slices.Sort(s.samples)
	return s.samples[percentileRank(len(s.samples), q)]
}

// liveHeapBytes forces two collections and reads /gc/heap/live:bytes:
// the heap the program keeps, independent of GC timing.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// hostSample is what /proc says about the machine at one instant.
type hostSample struct {
	stealTicks uint64 // aggregate "steal" column of /proc/stat
	load1      float64
}

func sampleHost() hostSample {
	var h hostSample
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		f := strings.Fields(line)
		if len(f) > 8 && f[0] == "cpu" {
			h.stealTicks, _ = strconv.ParseUint(f[8], 10, 64)
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// clockTicks is USER_HZ, the unit of /proc/stat; 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// runEnv is the run-environment record printed beside each run's
// metrics. None of it is an end-to-end metric: it lets a reader tell a
// slow machine from a slow program.
type runEnv struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Workers      int     `json:"workers"`
	SweepWorkers int     `json:"sweep_workers"`
	JobWorkers   int     `json:"job_workers"`
	StoreFS      string  `json:"store_fs,omitempty"`
	StealS       float64 `json:"steal_s"`
	Load1Before  float64 `json:"load1_before"`
	Load1After   float64 `json:"load1_after"`
}

func newRunEnv(before, after hostSample, storeDir string) runEnv {
	e := runEnv{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Workers:      poolSize(),
		SweepWorkers: poolSize(),
		JobWorkers:   poolSize(),
		StealS:       float64(after.stealTicks-before.stealTicks) / clockTicks,
		Load1Before:  before.load1,
		Load1After:   after.load1,
	}
	if storeDir != "" {
		e.StoreFS = fsType(storeDir)
	}
	return e
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x65735546: "fuse",
		0x6a656a63: "fakeowner", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
