package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
)

// This file is the lockstep lane engine: up to 64 seeded Monte Carlo
// replications of one (topology, protocol, source, loss rate, failure
// rate) grid point simulated simultaneously, one bit lane per
// replication. Per-node boolean state (decoded, delivered once,
// delivered twice) becomes a 64-bit lane mask, per-link Bernoulli loss
// draws become lost-masks from cached splitmix64 chain prefixes
// (lanerand.go), and pre-broadcast node failures become per-lane alive
// masks — so the slot loop's cost is paid once per link event instead
// of once per link event per replication.
//
// # Correctness contract
//
// Lane λ must reproduce, bit for bit, the scalar replication
//
//	cfg.Down    = spec.Config.Down + SampleFailures(t, src, seed_λ, failureRate)
//	cfg.Channel = NewBernoulliLoss(seed_λ, lossRate)
//	sim.Run(t, p, src, cfg)
//
// for every aggregate the Monte Carlo layer consumes. Lanes never
// interact: every mask operation is a per-lane AND/OR/ANDNOT, every
// draw is counter-based and keyed by the lane's own seed, and the
// repair planner runs per lane on that lane's decode view. Replaying a
// round re-derives identical draws, so a lane whose scalar counterpart
// would have exited the repair loop earlier simply replays its final
// schedule unchanged while other lanes catch up. The differential
// matrices in lanes_test.go and internal/mc prove the equivalence; the
// design argument is written out in DESIGN.md §11.
//
// # Fallback
//
// Anything inherently scalar — tracing, snapshotting, a caller-set
// Channel, the serialized appendRepair fallback after MaxPlanRounds,
// runaway schedules, grids past laneMaxNodes — returns
// ErrLaneFallback, and the Monte Carlo layer reruns the batch through
// scalar sim.Run, which also reproduces scalar error identities
// exactly.

// ErrLaneFallback reports a batch the lane engine declines to run.
// Callers fall back to per-replication scalar sim.Run, whose behavior
// — results and errors both — is the contract the lane engine mirrors.
var ErrLaneFallback = errors.New("sim: batch needs the scalar engine")

// laneMaxNodes bounds the lane engine's O(nodes x 64) decode-slot
// arena (a var so tests can force the fallback); larger grids fall
// back to scalar replications, which shard internally anyway.
var laneMaxNodes = 1 << 17

// LaneSpec describes one lockstep batch: len(Seeds) replications of a
// single Monte Carlo grid point, lane λ seeded by Seeds[λ].
type LaneSpec struct {
	Topology grid.Topology
	Protocol Protocol
	Source   grid.Coord
	// Config is the base configuration shared by every lane; its Down
	// list is the static failure set on top of which each lane samples
	// its own failures. Trace and Channel must be nil — tracing is
	// inherently scalar, and the engine owns the channel.
	Config Config
	// Seeds holds one derived replication seed per lane (1 to 64).
	Seeds []uint64
	// LossRate and FailureRate position the batch on the study grid;
	// both must lie in [0, 1].
	LossRate    float64
	FailureRate float64
}

// LaneResult is one lane's replication outcome: exactly the scalar
// Result fields the Monte Carlo layer aggregates.
type LaneResult struct {
	Reached    int
	Total      int
	Down       int
	Delay      int
	Tx         int
	Rx         int
	Lost       int
	Collisions int
	Duplicates int
	Repairs    int
	EnergyJ    float64
}

// Reachability returns the fraction of live nodes reached, matching
// Result.Reachability.
func (r LaneResult) Reachability() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Reached) / float64(r.Total)
}

// FullyReached reports 100% reachability.
func (r LaneResult) FullyReached() bool { return r.Reached == r.Total }

// RunLanes executes one lockstep batch and returns one LaneResult per
// seed, index-aligned with spec.Seeds. A batch the engine cannot carry
// (see ErrLaneFallback) reports the sentinel; invalid specs report
// ordinary errors.
func RunLanes(spec LaneSpec) ([]LaneResult, error) {
	t, p := spec.Topology, spec.Protocol
	if t == nil || p == nil {
		return nil, fmt.Errorf("sim: lane spec needs a topology and a protocol")
	}
	if n := len(spec.Seeds); n < 1 || n > 64 {
		return nil, fmt.Errorf("sim: lane batch needs 1 to 64 seeds (got %d)", n)
	}
	if r := spec.LossRate; r < 0 || r > 1 || math.IsNaN(r) {
		return nil, fmt.Errorf("sim: loss rate %g outside [0, 1]", spec.LossRate)
	}
	if r := spec.FailureRate; r < 0 || r > 1 || math.IsNaN(r) {
		return nil, fmt.Errorf("sim: failure rate %g outside [0, 1]", spec.FailureRate)
	}
	// Scalar-only configurations: let the caller rerun the batch
	// through sim.Run, which reproduces the scalar results — or the
	// scalar validation errors — these conditions imply.
	if spec.Config.Trace != nil || spec.Config.Channel != nil {
		return nil, ErrLaneFallback
	}
	if !t.Contains(spec.Source) || t.NumNodes() > laneMaxNodes {
		return nil, ErrLaneFallback
	}
	cfg, err := spec.Config.prepared(t.NumNodes())
	if err != nil {
		return nil, ErrLaneFallback
	}
	srcIdx := t.Index(spec.Source)
	for _, c := range cfg.Down {
		if !t.Contains(c) || t.Index(c) == srcIdx {
			return nil, ErrLaneFallback
		}
	}

	e := getLaneEngine(t, p, spec, cfg)
	defer e.release()
	return e.run()
}

// laneTx is one slot-bucket entry: node transmits in the bucket's slot
// in every lane of mask.
type laneTx struct {
	node int32
	mask uint64
}

// laneTxRec is one row of a node's transmission log: the per-lane
// record the repair planner's txAt consults.
type laneTxRec struct {
	slot int32
	mask uint64
}

// laneInj is a planned repair transmission for the lanes of mask.
type laneInj struct {
	node int32
	slot int32
	mask uint64
}

// laneQueue is the lane engine's slot-indexed schedule, the lane-mask
// analog of slotQueue: bucket b holds the (node, mask) transmissions
// of absolute slot b, capacity retained across resets.
type laneQueue struct {
	buckets [][]laneTx
	hi      int
}

func (q *laneQueue) add(slot int, node int32, mask uint64) {
	for slot >= len(q.buckets) {
		q.buckets = append(q.buckets, nil)
	}
	q.buckets[slot] = append(q.buckets[slot], laneTx{node: node, mask: mask})
	if slot+1 > q.hi {
		q.hi = slot + 1
	}
}

func (q *laneQueue) take(slot int) []laneTx {
	if slot >= len(q.buckets) {
		return nil
	}
	b := q.buckets[slot]
	q.buckets[slot] = b[:0]
	if len(b) == 0 {
		return nil
	}
	return b
}

func (q *laneQueue) reset() {
	n := min(q.hi, len(q.buckets))
	for i := 0; i < n; i++ {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.hi = 0
}

// laneEngine is the pooled arena of one lockstep batch.
type laneEngine struct {
	// Per-batch bindings, cleared on release.
	topo grid.Topology
	plan *relayPlan
	cfg  Config
	ix   grid.NeighborIndexer
	adj  [][]int32

	srcIdx int32
	v      int
	lanes  int
	active uint64 // mask of the batch's live lanes (low len(Seeds) bits)

	// replayMask selects the lanes the current replay simulates: the
	// first replay runs every lane, later replays drop completed and
	// settled lanes (their schedules are frozen, so replaying them is a
	// deterministic no-op). Because a replay is a pure function of the
	// lane's (schedule, injections), a lane's results are extracted the
	// moment it leaves the mask — its last replay is its final
	// trajectory — and no lane is ever simulated again after it stops
	// evolving.
	replayMask uint64

	lossRate float64
	lossT    uint64 // integer loss threshold: draw>>11 < lossT ⟺ unit < rate
	seeds    [64]uint64
	lossH2   [64]uint64 // per-lane chain prefix after (seed, domainLoss)
	txH      [64]uint64 // per-(slot, transmitter) continuation of lossH2

	// Arena, capacity retained across batches.
	alive      []uint64 // per node: lanes in which the node is live
	covered    []uint64 // per node: lanes in which the node decoded
	once       []uint64 // per slot scratch: delivered at least once
	twice      []uint64 // per slot scratch: delivered at least twice
	touched    []int32  // per slot scratch: receivers hit this slot
	decodeSlot []int32  // v*64 node-major first-decode slots, -1 never
	maxDec     []int32  // per node: upper bound on its decode slots, -1 none
	slotIdx    []int32  // per-node slot-merge scratch, -1 outside mergeSlot
	txLog      [][]laneTxRec
	pending    laneQueue
	inject     laneQueue
	nbufStep   []int32 // implicit-iteration scratch for the slot loop
	nbufA      []int32 // planner scratch: missing node's neighbors
	nbufB      []int32 // planner scratch: donor's neighbors
	nbufC      []int32 // planner scratch: planned repair's neighbors

	// Planner scratch: the per-missing-node forbidden-slot bitset and
	// the epoch-versioned neighbor marks it is built through (markU:
	// live neighbors of the missing node, markD: live neighbors of its
	// donor). A node is marked iff its entry equals the current epoch,
	// so clearing is one counter increment per missing node.
	forbid   []uint64
	forbidHi int
	markU    []int32
	markD    []int32
	epoch    int32
	roundBuf []laneInj

	// Cross-round loss cache. A loss draw is a pure function of
	// (slot, transmitter, receiver, lane seed), so a transmission's lost
	// masks recur bit-identically in every later replay of its slot.
	// lossEnt[node] lists the node's cached (slot, row offset) pairs; a
	// row in lossArena is one computed-lanes mask followed by one lost
	// mask per neighbor, in neighbor order. Rows live for the batch.
	lossEnt   [][]lossEntry
	lossArena []uint64

	txC, rxC, lostC, colC, dupC laneCounter
	totals                      [64]int32
	reached                     [64]int32
	repairs                     [64]int32

	// Per-slot checkpoints of the five radio counters and the repair
	// tallies, written at the top of every drained slot: checkpoint s
	// holds the counts over slots [0, s), which are identical between
	// consecutive rounds' replays below the round's resume slot. checkMax
	// is one past the highest checkpointed slot this batch.
	checkData []uint64
	checkRep  []int32
	checkMax  int

	outstanding int
	overflow    bool // a schedule crossed MaxSlots: scalar would error
}

// lossEntry locates one cached loss row: the lost masks of node's
// transmission at slot start at lossArena[off].
type lossEntry struct{ slot, off int32 }

var laneEnginePool = sync.Pool{New: func() any { return new(laneEngine) }}

// getLaneEngine binds a pooled engine to one batch: resolves the
// neighbor source exactly as the scalar engine does, derives the
// per-lane alive masks from the static Down list plus each lane's
// sampled failures, and precomputes the per-lane loss-chain prefixes.
func getLaneEngine(t grid.Topology, p Protocol, spec LaneSpec, cfg Config) *laneEngine {
	e := laneEnginePool.Get().(*laneEngine)
	e.topo = t
	e.plan = planFor(t, p, spec.Source)
	e.cfg = cfg
	e.srcIdx = int32(t.Index(spec.Source))
	e.v = t.NumNodes()
	e.lanes = len(spec.Seeds)
	e.active = ^uint64(0) >> uint(64-e.lanes)
	e.lossRate = spec.LossRate
	// rate*0x1p53 is exact (a pure exponent shift for rate in [0, 1]),
	// so the integer compare draw>>11 < lossT reproduces the scalar
	// float64(draw>>11)*0x1p-53 < rate decision bit for bit.
	e.lossT = uint64(math.Ceil(spec.LossRate * 0x1p53))
	copy(e.seeds[:], spec.Seeds)
	if e.lossRate > 0 {
		laneSeedPrefix(spec.Seeds, domainLoss, &e.lossH2)
	}

	// The lane engine never prunes adjacency (failures are lane-local),
	// so the shared cached lists are used read-only.
	e.ix, e.adj = implicitNeighbors(t), nil
	if e.ix == nil {
		e.adj = buildAdjacency(t, false)
	}

	e.sizeTo(e.v)
	for i := range e.alive {
		e.alive[i] = e.active
	}
	if spec.FailureRate > 0 {
		// fail-mask scratch: reuse `once`, which sizeTo just dimensioned
		// and reset will clear before the first slot.
		LaneFailureMasks(t, spec.Source, spec.Seeds, spec.FailureRate, e.once)
		for i := range e.alive {
			e.alive[i] &^= e.once[i]
		}
	}
	for _, c := range cfg.Down {
		e.alive[t.Index(c)] = 0
	}
	clear(e.totals[:])
	for i := range e.alive {
		for m := e.alive[i]; m != 0; m &= m - 1 {
			e.totals[bits.TrailingZeros64(m)]++
		}
	}
	return e
}

func (e *laneEngine) release() {
	e.topo = nil
	e.plan = nil
	e.cfg = Config{}
	e.ix = nil
	e.adj = nil
	laneEnginePool.Put(e)
}

func (e *laneEngine) sizeTo(v int) {
	if cap(e.alive) < v {
		e.alive = make([]uint64, v)
		e.covered = make([]uint64, v)
		e.once = make([]uint64, v)
		e.twice = make([]uint64, v)
		e.txLog = make([][]laneTxRec, v)
	}
	e.alive = e.alive[:v]
	e.covered = e.covered[:v]
	e.once = e.once[:v]
	e.twice = e.twice[:v]
	e.txLog = e.txLog[:v]
	if cap(e.decodeSlot) < v<<6 {
		e.decodeSlot = make([]int32, v<<6)
	}
	e.decodeSlot = e.decodeSlot[:v<<6]
	if cap(e.slotIdx) < v {
		e.slotIdx = make([]int32, v)
		for i := range e.slotIdx {
			e.slotIdx[i] = -1
		}
	}
	e.slotIdx = e.slotIdx[:v]
	if cap(e.maxDec) < v {
		e.maxDec = make([]int32, v)
	}
	e.maxDec = e.maxDec[:v]
	if cap(e.lossEnt) < v {
		e.lossEnt = make([][]lossEntry, v)
	}
	e.lossEnt = e.lossEnt[:v]
	if cap(e.markU) < v {
		e.markU = make([]int32, v)
		e.markD = make([]int32, v)
	}
	e.markU = e.markU[:v]
	e.markD = e.markD[:v]
	if e.epoch >= math.MaxInt32/2 {
		// A pooled engine's epoch survives across batches; on the
		// (practically unreachable) wrap, restart the mark arrays.
		clear(e.markU)
		clear(e.markD)
		e.epoch = 0
	}
}

func (e *laneEngine) neighborsOf(i int32, buf *[]int32) []int32 {
	if e.ix != nil {
		b := e.ix.IndexNeighbors(int(i), (*buf)[:0])
		*buf = b
		return b
	}
	return e.adj[i]
}

// run drives the lockstep analog of runLoop's schedule/repair rounds.
// The round loop is global, but every lane follows exactly its scalar
// trajectory: a lane still missing nodes plans its own injections on
// its own decode view; a lane that is complete — or settled, having
// planned nothing while missing (its unreached nodes are disconnected,
// the scalar break condition) — plans nothing more, and replaying its
// unchanged schedule is a deterministic no-op.
//
// That no-op is also why later rounds drop such lanes entirely: each
// replay simulates — and, counter adds being masked by the events
// themselves, counts — only the lanes whose injection lists are still
// growing. A lane that completes or settles is extracted right away
// from the replay that froze it; per-lane independence makes masking
// it out of subsequent replays invisible to the lanes that remain.
func (e *laneEngine) run() ([]LaneResult, error) {
	out := make([]LaneResult, e.lanes)
	var inj []laneInj
	e.replayMask = e.active
	resume := 0
	for round := 0; ; round++ {
		if round == 0 {
			e.reset()
		} else {
			e.rewind(resume, inj)
		}
		if err := e.drain(resume); err != nil {
			return nil, err
		}
		missing := e.missingLanes() & e.replayMask
		if e.cfg.DisableRepair {
			missing = 0
		}
		if missing != 0 && round >= e.cfg.MaxPlanRounds {
			// The scalar engine's serialized appendRepair fallback is
			// inherently per-lane sequential; hand the batch back.
			return nil, ErrLaneFallback
		}
		var next uint64
		newFrom := len(inj)
		for m := missing; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			if e.planLane(lane, &inj) > 0 {
				next |= 1 << uint(lane)
			}
		}
		// Lanes leaving the replay set — complete, or settled having
		// planned nothing while missing (their unreached nodes are
		// disconnected, the scalar break condition) — are final now.
		for m := e.replayMask &^ next; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			e.extractLane(lane, &out[lane])
		}
		if next == 0 {
			return out, nil
		}
		// The next replay resumes at the earliest slot this round's
		// planning touched; everything below it is prefix-stable.
		resume = int(inj[newFrom].slot)
		for _, in := range inj[newFrom+1:] {
			if int(in.slot) < resume {
				resume = int(in.slot)
			}
		}
		e.replayMask = next
	}
}

// writeCheckpoint records the counter and repair state as of the top
// of the given slot — the counts over slots [0, slot).
func (e *laneEngine) writeCheckpoint(slot int) {
	if need := (slot + 1) * 160; len(e.checkData) < need {
		e.checkData = append(e.checkData, make([]uint64, need-len(e.checkData))...)
	}
	off := slot * 160
	copy(e.checkData[off:], e.txC.planes[:])
	copy(e.checkData[off+32:], e.rxC.planes[:])
	copy(e.checkData[off+64:], e.lostC.planes[:])
	copy(e.checkData[off+96:], e.colC.planes[:])
	copy(e.checkData[off+128:], e.dupC.planes[:])
	if need := (slot + 1) * 64; len(e.checkRep) < need {
		e.checkRep = append(e.checkRep, make([]int32, need-len(e.checkRep))...)
	}
	copy(e.checkRep[slot*64:], e.repairs[:])
	if slot+1 > e.checkMax {
		e.checkMax = slot + 1
	}
}

func (e *laneEngine) restoreCheckpoint(slot int) {
	off := slot * 160
	copy(e.txC.planes[:], e.checkData[off:off+32])
	copy(e.rxC.planes[:], e.checkData[off+32:off+64])
	copy(e.lostC.planes[:], e.checkData[off+64:off+96])
	copy(e.colC.planes[:], e.checkData[off+96:off+128])
	copy(e.dupC.planes[:], e.checkData[off+128:off+160])
	copy(e.repairs[:], e.checkRep[slot*64:(slot+1)*64])
}

// rewind prepares a resumed replay from slot S. Everything strictly
// below S — decode slots, coverage, transmission logs, counters — is
// identical between consecutive rounds' replays: draws are
// counter-based, the round's new injections all land at slots >= S,
// and the transmissions the prefix books are a pure function of its
// decode slots. So instead of re-simulating the prefix, rewind
// reconstructs its end state in place from the last replay: counters
// restore from the slot-S checkpoint (or, past the drained range,
// stand as they are), coverage and per-lane reached recompute from
// the decode slots below S, transmission logs truncate at S, and the
// schedule refills with exactly the prefix's bookings at slots >= S —
// the source's retransmits, the relays of prefix decodes, and the
// injection list.
func (e *laneEngine) rewind(S int, inj []laneInj) {
	if S < e.checkMax {
		e.restoreCheckpoint(S)
	} else {
		// No events in [checkMax, S): the current counters already are
		// the counts over [0, S). Backfill so the range stays dense.
		for s := e.checkMax; s <= S; s++ {
			e.writeCheckpoint(s)
		}
	}
	e.pending.reset()
	e.inject.reset()
	e.outstanding = 0
	e.overflow = false

	// reached is carried over from the last replay and repaired by
	// decrementing per cleared decode — no per-lane recount. maxDec
	// bounds a node's decode slots from above, so nodes whose bound is
	// below S skip the clearing scan entirely; after clearing, S-1 is
	// the new (conservative) bound.
	var ds [64]int32  // distinct prefix decode slots of one relay node
	var ms [64]uint64 // lanes (within replayMask) decoding at ds[k]
	rm := e.replayMask
	for i := 0; i < e.v; i++ {
		base := i << 6
		cov := e.covered[i]
		if int(e.maxDec[i]) >= S {
			for m := cov; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				if int(e.decodeSlot[base+lane]) >= S {
					e.decodeSlot[base+lane] = -1
					cov &^= 1 << uint(lane)
					e.reached[lane]--
				}
			}
			e.covered[i] = cov
			e.maxDec[i] = int32(S - 1)
		}
		rows := e.txLog[i]
		for len(rows) > 0 && int(rows[len(rows)-1].slot) >= S {
			rows = rows[:len(rows)-1]
		}
		e.txLog[i] = rows
		act := cov & rm
		if act == 0 || int32(i) == e.srcIdx || !e.plan.relay.get(int32(i)) {
			continue
		}
		cnt := 0
		for m := act; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			d := e.decodeSlot[base+lane]
			k := 0
			for ; k < cnt; k++ {
				if ds[k] == d {
					ms[k] |= 1 << uint(lane)
					break
				}
			}
			if k == cnt {
				ds[cnt], ms[cnt] = d, 1<<uint(lane)
				cnt++
			}
		}
		for k := 0; k < cnt; k++ {
			first := int(ds[k]) + int(e.plan.delay[i])
			if first >= S {
				e.schedule(first, int32(i), ms[k])
			}
			for _, off := range e.plan.retransmits(int32(i)) {
				if s := first + off; s >= S {
					e.schedule(s, int32(i), ms[k])
				}
			}
		}
	}
	if SourceTx >= S {
		e.schedule(SourceTx, e.srcIdx, e.replayMask)
	}
	for _, off := range e.plan.retransmits(e.srcIdx) {
		if s := SourceTx + off; s >= S {
			e.schedule(s, e.srcIdx, e.replayMask)
		}
	}
	for _, in := range inj {
		if int(in.slot) < S {
			continue
		}
		if m := in.mask & e.replayMask; m != 0 {
			e.injectAt(int(in.slot), in.node, m)
		}
	}
}

// missingLanes returns the lanes whose replication has live nodes
// still unreached.
func (e *laneEngine) missingLanes() uint64 {
	var m uint64
	for lane := 0; lane < e.lanes; lane++ {
		if e.reached[lane] < e.totals[lane] {
			m |= 1 << uint(lane)
		}
	}
	return m
}

// reset prepares the batch's first replay from a clean arena, the
// lockstep analog of engine.reset; later rounds go through rewind.
func (e *laneEngine) reset() {
	clear(e.covered)
	clear(e.once)
	clear(e.twice)
	for i := range e.decodeSlot {
		e.decodeSlot[i] = -1
	}
	for i := range e.maxDec {
		e.maxDec[i] = -1
	}
	for i := range e.txLog {
		e.txLog[i] = e.txLog[i][:0]
	}
	for i := range e.lossEnt {
		e.lossEnt[i] = e.lossEnt[i][:0]
	}
	e.lossArena = e.lossArena[:0]
	e.touched = e.touched[:0]
	e.pending.reset()
	e.inject.reset()
	e.txC.reset()
	e.rxC.reset()
	e.lostC.reset()
	e.colC.reset()
	e.dupC.reset()
	clear(e.repairs[:])
	e.outstanding = 0
	e.overflow = false
	e.checkMax = 0

	e.covered[e.srcIdx] = e.replayMask
	e.maxDec[e.srcIdx] = SourceTx
	base := int(e.srcIdx) << 6
	for lane := 0; lane < e.lanes; lane++ {
		e.decodeSlot[base+lane] = SourceTx
		e.reached[lane] = 1
	}
	e.schedule(SourceTx, e.srcIdx, e.replayMask)
	for _, off := range e.plan.retransmits(e.srcIdx) {
		e.schedule(SourceTx+off, e.srcIdx, e.replayMask)
	}
}

// schedule books a protocol transmission for the lanes of mask. A slot
// beyond MaxSlots means the scalar engine would report a runaway
// schedule; the overflow flag hands the batch to the scalar path,
// which reproduces that error.
func (e *laneEngine) schedule(slot int, node int32, mask uint64) {
	if slot > e.cfg.MaxSlots {
		e.overflow = true
		return
	}
	e.outstanding++
	e.pending.add(slot, node, mask)
}

func (e *laneEngine) injectAt(slot int, node int32, mask uint64) {
	if slot > e.cfg.MaxSlots {
		e.overflow = true
		return
	}
	e.outstanding++
	e.inject.add(slot, node, mask)
}

// drain processes slots in order, from the replay's resume slot, until
// no transmissions remain in any lane. On return checkMax is truncated
// to this drain's actual end: checkpoints past it were written by an
// earlier, longer replay whose suffix this round rewrote, so restoring
// them would resurrect a superseded trajectory's counts.
func (e *laneEngine) drain(from int) error {
	slot := from
	defer func() { e.checkMax = slot }()
	for ; e.outstanding > 0; slot++ {
		if e.overflow || slot > e.cfg.MaxSlots {
			return ErrLaneFallback
		}
		e.writeCheckpoint(slot)
		txs := e.pending.take(slot)
		injs := e.inject.take(slot)
		if txs == nil && injs == nil {
			continue
		}
		e.outstanding -= len(txs) + len(injs)
		for _, in := range injs {
			// An injection fires, per lane, only where its node decoded
			// in an earlier slot — replays may shift decode times.
			var fire uint64
			base := int(in.node) << 6
			for m := in.mask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				if d := e.decodeSlot[base+lane]; d >= 0 && int(d) < slot {
					fire |= 1 << uint(lane)
					e.repairs[lane]++
				}
			}
			if fire != 0 {
				txs = append(txs, laneTx{node: in.node, mask: fire})
			}
		}
		if len(txs) == 0 {
			continue
		}
		e.step(slot, e.mergeSlot(txs))
		if e.overflow {
			return ErrLaneFallback
		}
	}
	return nil
}

// mergeSlot ORs together the masks of duplicate nodes in one slot's
// entries — the lane analog of dedupe: a node transmits at most once
// per slot per lane no matter how many schedule entries produced it.
// Dedupe is by a per-node index scratch (restored to -1 before
// returning) rather than a sort; entry order within a slot is
// irrelevant because every per-slot state update is a commutative mask
// OR and decoding only ever schedules future slots.
func (e *laneEngine) mergeSlot(txs []laneTx) []laneTx {
	out := txs[:0]
	for _, tx := range txs {
		if j := e.slotIdx[tx.node]; j >= 0 {
			out[j].mask |= tx.mask
		} else {
			e.slotIdx[tx.node] = int32(len(out))
			out = append(out, tx)
		}
	}
	for _, tx := range out {
		e.slotIdx[tx.node] = -1
	}
	return out
}

// step executes one slot: reception masks per link, collision masks
// per receiver, decode and relay scheduling per newly decoded lane.
func (e *laneEngine) step(slot int, txs []laneTx) {
	lossy := e.lossRate > 0
	touched := e.touched[:0]
	for _, tx := range txs {
		e.txC.add(tx.mask)
		e.txLog[tx.node] = append(e.txLog[tx.node], laneTxRec{slot: int32(slot), mask: tx.mask})
		nbs := e.neighborsOf(tx.node, &e.nbufStep)
		var row []uint64
		if lossy {
			row = e.lossRow(slot, tx.node, tx.mask, nbs)
		}
		for k, nb := range nbs {
			cand := tx.mask & e.alive[nb]
			if cand == 0 {
				continue
			}
			del := cand
			if lossy {
				if lost := row[k+1] & cand; lost != 0 {
					e.lostC.add(lost)
					del = cand &^ lost
					if del == 0 {
						continue
					}
				}
			}
			e.rxC.add(del)
			if e.once[nb] == 0 && e.twice[nb] == 0 {
				touched = append(touched, nb)
			}
			e.twice[nb] |= e.once[nb] & del
			e.once[nb] |= del
		}
	}
	e.touched = touched
	e.decodePhase(slot, touched)
}

// lossRow returns the lost masks of node's transmission at slot, one
// per neighbor of nbs (offset by the leading computed-lanes mask).
// Draws are computed only for lanes of mask the row does not cover
// yet; replays of the same slot in later rounds — the common case,
// since every repair round re-runs a suffix of the schedule — hit the
// cached bits without touching the PRNG.
func (e *laneEngine) lossRow(slot int, node int32, mask uint64, nbs []int32) []uint64 {
	off := int32(-1)
	for _, ent := range e.lossEnt[node] {
		if int(ent.slot) == slot {
			off = ent.off
			break
		}
	}
	if off < 0 {
		off = int32(len(e.lossArena))
		for i := 0; i <= len(nbs); i++ {
			e.lossArena = append(e.lossArena, 0)
		}
		e.lossEnt[node] = append(e.lossEnt[node], lossEntry{slot: int32(slot), off: off})
	}
	row := e.lossArena[off : int(off)+len(nbs)+1]
	need := mask &^ row[0]
	if need == 0 {
		return row
	}
	sw := golden + uint64(slot)
	txw := golden + uint64(uint32(node))
	for m := need; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		e.txH[lane] = mix64(mix64(e.lossH2[lane]+sw) + txw)
	}
	for k, nb := range nbs {
		rxw := golden + uint64(uint32(nb))
		var lost uint64
		for m := need; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			if mix64(e.txH[lane]+rxw)>>11 < e.lossT {
				lost |= 1 << uint(lane)
			}
		}
		row[k+1] |= lost
	}
	row[0] |= need
	return row
}

// decodePhase resolves the slot's touched receivers per lane:
// collision lanes (two or more deliveries), duplicate lanes (exactly
// one delivery, already covered), and first-decode lanes, which
// schedule the node's compiled relay plan in exactly those lanes.
func (e *laneEngine) decodePhase(slot int, touched []int32) {
	for _, nb := range touched {
		o1, t2 := e.once[nb], e.twice[nb]
		e.once[nb], e.twice[nb] = 0, 0
		if t2 != 0 {
			e.colC.add(t2)
		}
		ex1 := o1 &^ t2
		if ex1 == 0 {
			continue
		}
		cov := e.covered[nb]
		if dup := ex1 & cov; dup != 0 {
			e.dupC.add(dup)
		}
		newDec := ex1 &^ cov
		if newDec == 0 {
			continue
		}
		e.covered[nb] = cov | newDec
		e.maxDec[nb] = int32(slot) // drain slots ascend: always the max
		base := int(nb) << 6
		for m := newDec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			e.decodeSlot[base+lane] = int32(slot)
			e.reached[lane]++
		}
		if e.plan.relay.get(nb) {
			first := slot + int(e.plan.delay[nb])
			e.schedule(first, nb, newDec)
			for _, off := range e.plan.retransmits(nb) {
				e.schedule(first+off, nb, newDec)
			}
		}
	}
}

// planLane ports planInjections to one lane's view of the last replay:
// one repair per missing node, donor and slot chosen by exactly the
// scalar rules against this lane's decode slots and transmission log.
// Returns how many injections were added; zero means the lane's
// unreached nodes are disconnected from its decoded set.
//
// The scalar planner probes candidate slots one by one, rescanning
// neighborhoods and transmission logs at each probe; here the three
// conflict rules are folded into one forbidden-slot bitset built once
// per missing node, and the chosen slot is the first clear bit after
// the donor's decode. The bitset forbids exactly the slots conflictAt
// would reject, so the planned injections are identical:
//
//  1. slots where a live neighbor of u transmitted in this lane's last
//     replay, or is planned to by this round;
//  2. slots where a live neighbor of the donor first-decodes — the
//     donor's extra transmission would collide it;
//  3. slots of repairs planned this round that deliver to the donor's
//     neighborhood (by the repairing node, or any undecoded common
//     neighbor).
func (e *laneEngine) planLane(lane int, inj *[]laneInj) int {
	bit := uint64(1) << uint(lane)
	round := e.roundBuf[:0]
	for u := int32(0); u < int32(e.v); u++ {
		if e.alive[u]&bit == 0 || e.covered[u]&bit != 0 {
			continue
		}
		e.epoch++
		ep := e.epoch
		e.clearForbid()
		// One pass over u's live neighbors: pick the earliest-decoded
		// donor (ties by index), mark them for the round scan, and
		// forbid their logged transmission slots (rule 1).
		donor, bestD := int32(-1), int32(0)
		for _, nb := range e.neighborsOf(u, &e.nbufA) {
			if e.alive[nb]&bit == 0 {
				continue
			}
			e.markU[nb] = ep
			for _, rec := range e.txLog[nb] {
				if rec.mask&bit != 0 {
					e.setForbid(int(rec.slot))
				}
			}
			if d := e.decodeSlot[int(nb)<<6+lane]; d >= 0 {
				if donor < 0 || d < bestD || (d == bestD && nb < donor) {
					donor, bestD = nb, d
				}
			}
		}
		if donor < 0 {
			continue
		}
		// Donor's live neighbors: mark for rule 3 and forbid their
		// first-decode slots (rule 2).
		for _, w := range e.neighborsOf(donor, &e.nbufB) {
			if e.alive[w]&bit == 0 {
				continue
			}
			e.markD[w] = ep
			if d := e.decodeSlot[int(w)<<6+lane]; d >= 0 {
				e.setForbid(int(d))
			}
		}
		// This round's planned repairs: rule 1's planned half for u's
		// neighbors, rule 3 for the donor's.
		for _, in := range round {
			if e.markU[in.node] == ep {
				e.setForbid(int(in.slot))
			}
			if e.markD[in.node] == ep {
				e.setForbid(int(in.slot))
				continue
			}
			for _, x := range e.neighborsOf(in.node, &e.nbufC) {
				if e.markD[x] == ep && e.decodeSlot[int(x)<<6+lane] < 0 {
					e.setForbid(int(in.slot))
					break
				}
			}
		}
		slot := e.firstFree(int(bestD) + 1)
		round = append(round, laneInj{node: donor, slot: int32(slot), mask: bit})
	}
	e.roundBuf = round
	*inj = append(*inj, round...)
	return len(round)
}

// clearForbid empties the forbidden-slot bitset (only the words
// setForbid dirtied since the last clear).
func (e *laneEngine) clearForbid() {
	for i := 0; i <= e.forbidHi && i < len(e.forbid); i++ {
		e.forbid[i] = 0
	}
	e.forbidHi = 0
}

func (e *laneEngine) setForbid(s int) {
	w := s >> 6
	for w >= len(e.forbid) {
		e.forbid = append(e.forbid, 0)
	}
	e.forbid[w] |= 1 << uint(s&63)
	if w > e.forbidHi {
		e.forbidHi = w
	}
}

// firstFree returns the first slot >= s not in the forbidden bitset;
// slots beyond the bitset are free.
func (e *laneEngine) firstFree(s int) int {
	w := s >> 6
	if w >= len(e.forbid) {
		return s
	}
	m := ^e.forbid[w] & (^uint64(0) << uint(s&63))
	for {
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
		w++
		if w >= len(e.forbid) {
			return w << 6
		}
		m = ^e.forbid[w]
	}
}

// extractLane reads one frozen lane's scalar-equivalent metrics out of
// its final replay: the counters' lane bits, its decode-slot column,
// and the shared energy model.
func (e *laneEngine) extractLane(lane int, r *LaneResult) {
	r.Total = int(e.totals[lane])
	r.Down = e.v - r.Total
	r.Reached = int(e.reached[lane])
	r.Tx = e.txC.count(lane)
	r.Rx = e.rxC.count(lane)
	r.Lost = e.lostC.count(lane)
	r.Collisions = e.colC.count(lane)
	r.Duplicates = e.dupC.count(lane)
	r.Repairs = int(e.repairs[lane])
	ledger := radio.NewLedger(e.cfg.Model, e.cfg.Packet)
	ledger.AddTx(r.Tx)
	ledger.AddRx(r.Rx)
	r.EnergyJ = ledger.TotalJ()
	for i := 0; i < e.v; i++ {
		if int32(i) == e.srcIdx {
			continue
		}
		if d := int(e.decodeSlot[i<<6+lane]); d > r.Delay {
			r.Delay = d
		}
	}
}
