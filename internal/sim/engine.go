package sim

import (
	"fmt"
	"math"
	"sync"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
)

// Link names one undirected lattice link by its endpoint coordinates.
// The order of A and B is irrelevant: Config.DownLinks removes both
// directions from the radio graph.
type Link struct {
	A, B grid.Coord
}

// Config parameterizes one simulated broadcast.
type Config struct {
	// Model is the radio energy model; zero value means radio.Default().
	Model radio.Model
	// Packet is the packet length/spacing; zero value means the paper's
	// canonical 512 bits / 0.5 m.
	Packet radio.Packet
	// MaxSlots bounds the simulation; 0 means an automatic generous
	// bound. Exceeding the bound returns an error (runaway protocol).
	MaxSlots int
	// DisableRepair turns off the scheduler's repair pass; the run then
	// reports whatever reachability the protocol rules achieve on
	// their own.
	DisableRepair bool
	// MaxPlanRounds caps the repair planner's fixpoint iterations; 0
	// means an automatic bound. When the cap is hit the engine falls
	// back to serialized end-of-schedule repairs, which always
	// terminate.
	MaxPlanRounds int
	// Trace, when non-nil, receives every engine event of the final
	// schedule in deterministic order.
	Trace TraceFunc
	// Down lists failed nodes: they never transmit, hear, or decode.
	// A broadcast cannot originate at a down node. Reachability and
	// reception accounting cover the live nodes only.
	Down []grid.Coord
	// DownLinks lists failed (churned) undirected links: both directions
	// are removed from the radio graph before the run, exactly as Down
	// removes nodes, so the repair planner sees the true round topology
	// and never chases a donor across a dead link. Entries whose
	// endpoints are not lattice neighbors are no-ops; endpoints outside
	// the mesh are an error. Note that Result.Validate's degree-sum
	// invariant assumes the full lattice adjacency and does not hold
	// when links are removed.
	DownLinks []Link
	// Channel, when non-nil, decides per-link reception (lossy
	// channels). It must be a pure function of (slot, tx, rx): the
	// engine replays schedules while planning repairs and relies on a
	// replayed transmission receiving the same verdict. nil is the
	// error-free channel.
	Channel Channel
}

func (c Config) withDefaults(v int) Config {
	if c.Model == (radio.Model{}) {
		c.Model = radio.Default()
	}
	if c.Packet == (radio.Packet{}) {
		c.Packet = radio.CanonicalPacket()
	}
	if c.MaxSlots == 0 {
		c.MaxSlots = 1024 + 64*v
	}
	if c.MaxPlanRounds == 0 {
		c.MaxPlanRounds = 8 + v/4
	}
	return c
}

// prepared applies the defaults for a v-node run and validates the
// result. Every optimized entry point (Run, NewSession, RunLanes)
// prepares its Config here.
func (c Config) prepared(v int) (Config, error) {
	c = c.withDefaults(v)
	if err := c.Packet.Validate(); err != nil {
		return c, err
	}
	if c.MaxSlots >= math.MaxInt32 {
		// Slot state is int32 (struct-of-arrays arena); a schedule this
		// long could not be drained slot-by-slot anyway.
		return c, fmt.Errorf("sim: MaxSlots %d exceeds the engine's int32 slot limit", c.MaxSlots)
	}
	return c, nil
}

// largeGridNodes is the node count at (and above) which the engine
// switches from the cached materialized adjacency of the small-grid
// path to implicit neighbor indexing and stops populating the
// unbounded (kind, size)-keyed caches. 64k nodes materialize only a few
// hundred KiB of adjacency; one step further (256k and beyond) the
// lists reach tens of MiB and the implicit path wins on both memory and
// time. A var, not a const, so the differential tests can force either
// path at any size; production code never mutates it.
var largeGridNodes = 1 << 16

// implicitNeighbors returns the indexer the engines iterate neighbors
// through instead of materialized lists, or nil when t keeps the
// cached materialized adjacency. Irregular meshes always use their own
// NeighborIndexer (the instance's adjacency is built once at
// construction — nothing to rebuild or memoize per run); regular
// meshes below largeGridNodes keep the cached lists (small, warm, and
// pruned copies are cheap under node failures); everything larger
// iterates implicitly so steady-state engine state is O(N) words +
// O(N) bits with no O(N*deg) table anywhere.
func implicitNeighbors(t grid.Topology) grid.NeighborIndexer {
	if ix, ok := t.(grid.NeighborIndexer); ok &&
		(t.Kind() == grid.Irregular || t.NumNodes() >= largeGridNodes) {
		return ix
	}
	return nil
}

// injection is a repair transmission planned by the scheduler: node
// transmits in the given absolute slot (provided it holds the message
// by then).
type injection struct {
	node int32
	slot int
}

// Run simulates one broadcast of protocol p from src on topology t.
//
// When the protocol's own rules leave nodes unreached (collisions the
// designated retransmissions do not cover), the scheduler repairs the
// broadcast: it deterministically plans extra retransmissions at the
// earliest conflict-free slots and replays the schedule, iterating to
// a fixpoint — the paper's premise that the topology is fixed and
// collisions predictable, applied mechanically. Every repair
// transmission is counted in Result.Repairs.
//
// Run is the optimized engine: a slot-indexed array schedule (no
// hashing on the hot path), a pooled scratch arena reset — not
// reallocated — across repair-replay rounds and reused across runs,
// and a memoized relay plan replacing the per-decode Protocol
// interface calls. Above largeGridNodes (and for every Irregular mesh)
// it additionally drops the materialized adjacency for implicit
// neighbor indexing (grid.NeighborIndexer). RunReference preserves the
// original implementation; the differential tests prove both neighbor
// sources produce byte-identical Results.
func Run(t grid.Topology, p Protocol, src grid.Coord, cfg Config) (*Result, error) {
	e, err := runLoop(t, p, src, cfg)
	if e != nil {
		defer e.release()
	}
	if err != nil {
		return nil, err
	}
	res := e.finish()
	e.flushTrace()
	return res, nil
}

// runLoop validates the inputs, selects the neighbor source, and
// drives the schedule/repair loop to completion on a pooled engine.
// The caller owns the returned engine (finish/flushTrace/release);
// it is non-nil whenever an engine was bound, error or not.
func runLoop(t grid.Topology, p Protocol, src grid.Coord, cfg Config) (*engine, error) {
	if !t.Contains(src) {
		return nil, fmt.Errorf("sim: source %s outside %s mesh", src, t.Kind())
	}
	cfg, err := cfg.prepared(t.NumNodes())
	if err != nil {
		return nil, err
	}
	var down []bool
	if len(cfg.Down) > 0 {
		down = make([]bool, t.NumNodes())
		for _, c := range cfg.Down {
			if !t.Contains(c) {
				return nil, fmt.Errorf("sim: down node %s outside mesh", c)
			}
			down[t.Index(c)] = true
		}
		if down[t.Index(src)] {
			return nil, fmt.Errorf("sim: source %s is down", src)
		}
	}

	// Link churn forces the materialized branch even on large and
	// Irregular meshes: implicit neighbor arithmetic cannot express a
	// graph with individual links missing, and the repair planner must
	// see the true round topology.
	var ix grid.NeighborIndexer
	if len(cfg.DownLinks) == 0 {
		ix = implicitNeighbors(t)
	}
	var adj [][]int32
	if ix == nil {
		adj = buildAdjacency(t, down != nil || len(cfg.DownLinks) > 0)
		if down != nil {
			// Remove the down nodes from the radio graph entirely (adj is a
			// private copy when down != nil).
			for i := range adj {
				if down[i] {
					adj[i] = nil
					continue
				}
				kept := adj[i][:0]
				for _, nb := range adj[i] {
					if !down[nb] {
						kept = append(kept, nb)
					}
				}
				adj[i] = kept
			}
		}
		for _, lk := range cfg.DownLinks {
			if !t.Contains(lk.A) || !t.Contains(lk.B) {
				return nil, fmt.Errorf("sim: down link %s-%s outside %s mesh", lk.A, lk.B, t.Kind())
			}
			a, b := int32(t.Index(lk.A)), int32(t.Index(lk.B))
			adj[a] = removeNeighbor(adj[a], b)
			adj[b] = removeNeighbor(adj[b], a)
		}
	}

	e := getEngine(t, p, planFor(t, p, src), src, cfg, ix, adj, down)
	return e, e.runSchedule()
}

// runSchedule drives the schedule/repair loop to completion on a bound
// engine: replay the schedule, plan repair injections for unreached
// nodes, iterate to a fixpoint. Shared verbatim by sim.Run and the
// round-persistent Session. The injection lists live in the pooled
// arena (injPlan), so a steady-state schedule with no repairs plans
// with zero allocations.
func (e *engine) runSchedule() error {
	inj := e.injPlan[:0]
	defer func() { e.injPlan = inj[:0] }() // retain grown capacity
	for round := 0; ; round++ {
		e.reset(inj)
		if err := e.drain(); err != nil {
			return err
		}
		if e.cfg.DisableRepair || !e.anyMissing() {
			return nil
		}
		if round >= e.cfg.MaxPlanRounds {
			// Fallback: serialized repairs after all other activity.
			return e.appendRepair()
		}
		if e.planInjections(&inj) == 0 {
			return nil // unreached nodes are disconnected from the source
		}
	}
}

// adjCache memoizes dense adjacency for the regular topologies, which
// are value types fully determined by (kind, size) — a full source
// sweep would otherwise rebuild the same lists once per source. Only
// meshes below largeGridNodes are cached: above that the optimized
// engine iterates implicitly and never asks, and pinning multi-MiB
// lists per (kind, size) forever would let a handful of large oracle
// runs hold hundreds of MiB.
var adjCache sync.Map // adjKey -> [][]int32

type adjKey struct {
	kind    grid.Kind
	m, n, l int
}

// buildAdjacency returns dense neighbor lists, cached for the regular
// topologies below the large-grid threshold. Callers treat the result
// as read-only except when they need to mutate it (node failures), in
// which case they must pass mutable=true to get a private copy — taken
// from the cached entry (populating it on first use) rather than
// rebuilt from the topology.
func buildAdjacency(t grid.Topology, mutable bool) [][]int32 {
	if t.Kind() == grid.Irregular || t.NumNodes() >= largeGridNodes {
		return buildAdjacencyUncached(t)
	}
	m, n, l := t.Size()
	key := adjKey{t.Kind(), m, n, l}
	v, ok := adjCache.Load(key)
	if !ok {
		// Concurrent first access may build twice; LoadOrStore keeps one.
		v, _ = adjCache.LoadOrStore(key, buildAdjacencyUncached(t))
	}
	adj := v.([][]int32)
	if !mutable {
		return adj
	}
	return copyAdjacency(adj)
}

func buildAdjacencyUncached(t grid.Topology) [][]int32 {
	v := t.NumNodes()
	adj := make([][]int32, v)
	var buf []int32
	for i := 0; i < v; i++ {
		buf = grid.IndexNeighbors(t, i, buf[:0])
		row := make([]int32, len(buf))
		copy(row, buf)
		adj[i] = row
	}
	return adj
}

// removeNeighbor deletes nb from a private adjacency row in place,
// preserving order. A row that does not list nb — a non-adjacent
// DownLinks pair, or a row already nil'd by node failure — comes back
// unchanged.
func removeNeighbor(row []int32, nb int32) []int32 {
	for i, v := range row {
		if v == nb {
			return append(row[:i], row[i+1:]...)
		}
	}
	return row
}

// copyAdjacency deep-copies neighbor lists into one flat backing array
// (two allocations regardless of node count). Rows are capacity-capped
// so in-place pruning of one row cannot clobber the next.
func copyAdjacency(adj [][]int32) [][]int32 {
	total := 0
	for _, row := range adj {
		total += len(row)
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, len(adj))
	for i, row := range adj {
		flat = append(flat, row...)
		out[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	return out
}

// engine holds the mutable state of one schedule replay. Engines are
// pooled (enginePool): all scratch state — the struct-of-arrays
// decode/heard/hit vectors, the covered bitset, per-node transmission
// logs, the slot queues, the trace buffer — is
// sized once and reset, not reallocated, across the repair-replay
// rounds of one Run and across the thousands of Runs of a sweep or
// Monte Carlo grid. Only the slices that escape into the Result are
// freshly allocated, in finish.
type engine struct {
	// Per-Run bindings, cleared on release so the pool pins nothing.
	topo   grid.Topology
	proto  Protocol
	plan   *relayPlan
	src    grid.Coord
	srcIdx int32
	cfg    Config
	ix     grid.NeighborIndexer // implicit neighbor source (large grids, Irregular)
	nbr    [][]int32            // materialized adjacency (small grids; down nodes removed)
	down   []bool               // failed-node mask (nil when none); escapes into the Result
	downN  int                  // number of failed nodes

	// Arena state, capacity retained across Runs. Per-node scalars are
	// int32 (struct-of-arrays), per-node booleans are bitsets: the
	// steady-state footprint is O(N) words for the counters plus O(N)
	// bits for the flags, never O(N*deg).
	decode     []int32 // first-decode slot, -1 never; source 0
	covered    bitset  // decode[i] >= 0, plus padding bits set
	heard      []int32 // receptions per node
	hit        []int32 // scratch: transmitters heard this slot
	txSlots    [][]int
	touched    []int32     // scratch: receivers hit this slot
	pending    slotQueue   // protocol-scheduled transmissions
	inject     slotQueue   // planned repair transmissions
	injScratch []int32     // scratch txs for injection-only slots
	nbufStep   []int32     // step's neighbor scratch
	nbufA      []int32     // planner scratch: missing node's neighbors
	nbufB      []int32     // planner scratch: donor's neighbors
	nbufC      []int32     // planner scratch: planned repair's neighbors
	injPlan    []injection // accumulated repair injections across replay rounds
	injRound   []injection // planner scratch: this round's injections
	planHead   []int32     // planner index: 1+round-position of the latest injection per slot
	planPrev   []int32     // planner index: per round-position, 1+position of the previous injection at the same slot
	dedupBits  bitset      // dedupe scratch, all-zero between calls
	traceBuf   []Event

	outstanding int
	maxSched    int // highest slot with scheduled activity so far
	last        int // highest slot processed with activity
	res         Result
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

// getEngine binds a pooled engine to one Run.
func getEngine(t grid.Topology, p Protocol, plan *relayPlan, src grid.Coord, cfg Config, ix grid.NeighborIndexer, adj [][]int32, down []bool) *engine {
	e := enginePool.Get().(*engine)
	e.topo = t
	e.proto = p
	e.plan = plan
	e.src = src
	e.srcIdx = int32(t.Index(src))
	e.cfg = cfg
	e.ix = ix
	e.nbr = adj
	e.down = down
	e.downN = 0
	for _, d := range down {
		if d {
			e.downN++
		}
	}
	e.sizeTo(t.NumNodes())
	return e
}

// release clears the per-Run references and returns the engine to the
// pool. The arena keeps its capacity; everything that escaped into the
// Result was copied out by finish.
func (e *engine) release() {
	e.topo = nil
	e.proto = nil
	e.plan = nil
	e.cfg = Config{} // drops the Trace func, Channel, Down and DownLinks lists
	e.ix = nil
	e.nbr = nil
	e.down = nil
	enginePool.Put(e)
}

// sizeTo (re)dimensions the per-node vectors for v nodes, retaining
// capacity when possible.
func (e *engine) sizeTo(v int) {
	if cap(e.decode) < v {
		e.decode = make([]int32, v)
		e.heard = make([]int32, v)
		e.hit = make([]int32, v)
		e.txSlots = make([][]int, v)
	}
	e.decode = e.decode[:v]
	e.heard = e.heard[:v]
	e.hit = e.hit[:v]
	e.txSlots = e.txSlots[:v]
}

// neighborsOf returns node i's neighbor indices: the materialized row
// on the small-grid path (already pruned of down nodes), or an
// implicit emission into *buf on the large-grid path (caller filters
// down nodes, see liveFilter). The returned slice is valid until the
// next call with the same buf.
func (e *engine) neighborsOf(i int32, buf *[]int32) []int32 {
	if e.ix != nil {
		b := e.ix.IndexNeighbors(int(i), (*buf)[:0])
		*buf = b
		return b
	}
	return e.nbr[i]
}

// liveFilter returns the down mask consumers must filter against, or
// nil when no filtering is needed: the materialized path prunes down
// nodes out of the lists up front, the implicit path skips them at
// iteration time.
func (e *engine) liveFilter() []bool {
	if e.ix != nil {
		return e.down
	}
	return nil
}

// reset rewinds the engine to the start of a schedule replay: clears
// the arena, seeds the source's transmissions, and loads the planned
// repair injections. Equivalent to the reference engine constructing a
// fresh state per round, without the allocations.
func (e *engine) reset(inj []injection) {
	for i := range e.decode {
		e.decode[i] = -1
	}
	v := len(e.decode)
	e.covered.sizeToBits(v)
	for i := int32(v); i < int32(len(e.covered)<<6); i++ {
		e.covered.set(i) // padding bits read as covered by the scans
	}
	clear(e.heard)
	clear(e.hit)
	for i := range e.txSlots {
		e.txSlots[i] = e.txSlots[i][:0]
	}
	e.touched = e.touched[:0]
	e.pending.reset()
	e.inject.reset()
	e.traceBuf = e.traceBuf[:0]
	e.outstanding, e.maxSched, e.last = 0, 0, 0

	e.res = Result{
		Kind:     e.topo.Kind(),
		Source:   e.src,
		Protocol: e.proto.Name(),
		Down:     e.downN,
	}
	e.res.Total = v - e.res.Down
	e.decode[e.srcIdx] = 0
	e.covered.set(e.srcIdx)
	e.res.Reached = 1
	e.schedule(SourceTx, e.srcIdx)
	for _, off := range e.plan.retransmits(e.srcIdx) {
		e.schedule(SourceTx+off, e.srcIdx)
	}
	for _, in := range inj {
		e.injectAt(in.slot, in.node)
	}
}

// schedule books a protocol transmission. Slots beyond MaxSlots are
// counted but not stored: drain's runaway guard trips before any such
// slot could be processed, so the bucket array stays bounded.
func (e *engine) schedule(slot int, node int32) {
	e.outstanding++
	if slot > e.maxSched {
		e.maxSched = slot
	}
	if slot > e.cfg.MaxSlots {
		return
	}
	e.pending.add(slot, node)
}

// injectAt books a planned repair transmission, same clamping as
// schedule.
func (e *engine) injectAt(slot int, node int32) {
	e.outstanding++
	if slot > e.maxSched {
		e.maxSched = slot
	}
	if slot > e.cfg.MaxSlots {
		return
	}
	e.inject.add(slot, node)
}

// drain processes slots in order until no transmissions remain
// scheduled.
func (e *engine) drain() error {
	slot := e.last
	for e.outstanding > 0 {
		if slot > e.cfg.MaxSlots {
			return fmt.Errorf("sim: %s/%s exceeded %d slots (runaway schedule)",
				e.proto.Name(), e.topo.Kind(), e.cfg.MaxSlots)
		}
		txs := e.pending.take(slot)
		injs := e.inject.take(slot)
		if txs == nil && injs == nil {
			slot++
			continue
		}
		e.outstanding -= len(txs) + len(injs)
		if injs != nil {
			fromScratch := false
			if txs == nil {
				txs = e.injScratch[:0]
				fromScratch = true
			}
			// An injection fires only if its node decoded in an earlier
			// slot: replays may shift decode times and invalidate it.
			for _, v := range injs {
				if d := e.decode[v]; d >= 0 && int(d) < slot {
					txs = append(txs, v)
					e.res.Repairs++
					if e.cfg.Trace != nil {
						e.emit(Event{Slot: slot, Kind: EventRepair, Node: e.topo.At(int(v))})
					}
				}
			}
			if fromScratch {
				e.injScratch = txs // retain grown capacity
			}
		}
		if len(txs) == 0 {
			slot++
			continue
		}
		txs = e.dedupeTxs(txs)
		e.step(slot, txs)
		e.last = slot
		slot++
	}
	return nil
}

// step executes one slot with the given transmitters.
func (e *engine) step(slot int, txs []int32) {
	tracing := e.cfg.Trace != nil
	ch := e.cfg.Channel
	filter := e.liveFilter()
	touched := e.touched[:0]
	for _, tx := range txs {
		e.txSlots[tx] = append(e.txSlots[tx], slot)
		e.res.Tx++
		if tracing {
			e.emit(Event{Slot: slot, Kind: EventTx, Node: e.topo.At(int(tx))})
		}
		for _, nb := range e.neighborsOf(tx, &e.nbufStep) {
			if filter != nil && filter[nb] {
				continue
			}
			if ch != nil && !ch.Deliver(slot, tx, nb) {
				e.res.Lost++
				if tracing {
					e.emit(Event{Slot: slot, Kind: EventLost, Node: e.topo.At(int(nb))})
				}
				continue
			}
			e.heard[nb]++
			e.res.Rx++
			if e.hit[nb] == 0 {
				touched = append(touched, nb)
			}
			e.hit[nb]++
		}
	}
	e.touched = touched
	e.decodePhase(slot, touched)
}

// decodePhase resolves the slot's touched receivers — collision,
// duplicate, or first decode with relay scheduling — in first-hit
// order.
func (e *engine) decodePhase(slot int, touched []int32) {
	tracing := e.cfg.Trace != nil
	for _, nb := range touched {
		n := e.hit[nb]
		e.hit[nb] = 0
		if n >= 2 {
			e.res.Collisions++
			if tracing {
				e.emit(Event{Slot: slot, Kind: EventCollision, Node: e.topo.At(int(nb))})
			}
			continue
		}
		if e.covered.get(nb) {
			e.res.Duplicates++
			if tracing {
				e.emit(Event{Slot: slot, Kind: EventDuplicate, Node: e.topo.At(int(nb))})
			}
			continue
		}
		e.decode[nb] = int32(slot)
		e.covered.set(nb)
		e.res.Reached++
		if tracing {
			e.emit(Event{Slot: slot, Kind: EventDecode, Node: e.topo.At(int(nb))})
		}
		// The compiled relay plan answers IsRelay/TxDelay/Retransmits
		// with bitset/array lookups; delays are pre-clamped and offsets
		// pre-filtered to >= 1 at compile time.
		if e.plan.relay.get(nb) {
			first := slot + int(e.plan.delay[nb])
			e.schedule(first, nb)
			for _, off := range e.plan.retransmits(nb) {
				e.schedule(first+off, nb)
			}
		}
	}
}

func (e *engine) anyMissing() bool { return e.res.Reached < e.res.Total }

// isDown reports whether node i has failed.
func (e *engine) isDown(i int32) bool { return e.down != nil && e.down[i] }

// txAt reports whether node transmitted in the given slot of this
// schedule. Injections planned in the current round are consulted
// separately through the per-slot chain index (planHead/planPrev).
func (e *engine) txAt(node int32, slot int) bool {
	for _, s := range e.txSlots[node] {
		if s == slot {
			return true
		}
	}
	return false
}

// planInjections extends inj with one repair transmission per missing
// node, each placed at the earliest slot that (a) no other neighbor of
// the missing node transmits in, (b) does not destroy any first decode
// of the donor's neighbors, and (c) does not clash with repairs
// planned in this round. Returns how many injections were added. The
// covered bitset drives the scan: fully decoded words — the common
// case on an almost-reached mesh — cost one compare per 64 nodes.
func (e *engine) planInjections(inj *[]injection) int {
	added := 0
	round := e.injRound[:0]
	e.planPrev = e.planPrev[:0]
	v := int32(len(e.decode))
	for u := e.covered.nextZero(0, v); u < v; u = e.covered.nextZero(u+1, v) {
		if e.isDown(u) {
			continue
		}
		donor := e.pickDonor(u)
		if donor < 0 {
			continue // disconnected from the decoded set
		}
		slot := e.pickSlot(u, donor, round)
		round = append(round, injection{node: donor, slot: slot})
		// Chain the new entry into the per-slot index so later pickSlot
		// calls consult only the injections sharing a candidate slot,
		// not the whole round — the scan was quadratic in repair count.
		for slot >= len(e.planHead) {
			e.planHead = append(e.planHead, 0)
		}
		e.planPrev = append(e.planPrev, e.planHead[slot])
		e.planHead[slot] = int32(len(round))
		added++
	}
	// Restore the all-zero index invariant by unwinding the touched
	// slots; a full clear would be O(maxSched) per planning round.
	for _, in := range round {
		e.planHead[in.slot] = 0
	}
	e.injRound = round[:0] // retain grown capacity
	*inj = append(*inj, round...)
	return added
}

// pickDonor finds, deterministically, the earliest-decoded neighbor of
// u (ties by index).
func (e *engine) pickDonor(u int32) int32 {
	best := int32(-1)
	filter := e.liveFilter()
	for _, nb := range e.neighborsOf(u, &e.nbufA) {
		if filter != nil && filter[nb] {
			continue
		}
		if e.decode[nb] < 0 {
			continue
		}
		if best < 0 || e.decode[nb] < e.decode[best] ||
			(e.decode[nb] == e.decode[best] && nb < best) {
			best = nb
		}
	}
	return best
}

// pickSlot chooses the earliest conflict-free slot for donor to cover
// u, considering this schedule plus the repairs already planned in
// this round.
func (e *engine) pickSlot(u, donor int32, round []injection) int {
	for s := int(e.decode[donor]) + 1; ; s++ {
		if e.conflictAt(u, donor, s, round) {
			continue
		}
		return s
	}
}

// conflictAt reports whether donor transmitting in slot s would fail
// to deliver to u or would destroy someone else's first decode.
func (e *engine) conflictAt(u, donor int32, s int, round []injection) bool {
	filter := e.liveFilter()
	// Another neighbor of u (or donor itself, collided) transmits at s.
	uNbs := e.neighborsOf(u, &e.nbufA)
	for _, nb := range uNbs {
		if filter != nil && filter[nb] {
			continue
		}
		if e.txAt(nb, s) {
			return true
		}
	}
	// A neighbor of donor first-decodes at s from a single transmitter;
	// donor's extra transmission would turn it into a collision.
	donorNbs := e.neighborsOf(donor, &e.nbufB)
	for _, w := range donorNbs {
		if filter != nil && filter[w] {
			continue
		}
		if int(e.decode[w]) == s && e.decode[w] >= 0 {
			return true
		}
	}
	// Repairs already planned this round: only the chain of injections
	// at exactly slot s can conflict — by transmitting next to u, or by
	// delivering to a common neighbor of the donor. The per-slot index
	// replaces a scan of the whole round per candidate slot.
	if s < len(e.planHead) {
		for idx := e.planHead[s]; idx > 0; idx = e.planPrev[idx-1] {
			in := round[idx-1]
			for _, nb := range uNbs {
				if nb != in.node {
					continue
				}
				if filter == nil || !filter[nb] {
					return true
				}
			}
			for _, w := range donorNbs {
				if filter != nil && filter[w] {
					continue
				}
				if w == in.node {
					return true
				}
				for _, x := range e.neighborsOf(in.node, &e.nbufC) {
					if x == w && e.decode[w] < 0 {
						return true
					}
				}
			}
		}
	}
	return false
}

// appendRepair is the fallback when planning does not converge:
// serialized retransmissions strictly after all other activity, one
// per round, which cannot collide with anything.
func (e *engine) appendRepair() error {
	v := int32(len(e.decode))
	for e.res.Reached < e.res.Total {
		donor := int32(-1)
		for u := e.covered.nextZero(0, v); u < v; u = e.covered.nextZero(u+1, v) {
			if e.isDown(u) {
				continue
			}
			if d := e.pickDonor(u); d >= 0 {
				donor = d
				break
			}
		}
		if donor < 0 {
			return nil // disconnected topology: nothing more to do
		}
		e.injectAt(e.last+1, donor)
		if err := e.drain(); err != nil {
			return err
		}
	}
	return nil
}

// resultArena holds the backing arrays of the slices a Result carries
// out of the engine. sim.Run hands finishInto an empty arena, so every
// array is freshly allocated and the Result owns its memory outright;
// a Session passes its persistent arena, so steady-state rounds write
// the same backing arrays in place and allocate nothing.
type resultArena struct {
	energy  []float64
	txSlots [][]int
	flat    []int
	decode  []int
}

// finish computes the derived metrics into a fresh Result. Only what
// escapes is allocated: the Result itself, the widened DecodeSlot
// copy, the TxSlots headers plus one flat backing array, and
// PerNodeEnergyJ — the arena stays with the pooled engine.
func (e *engine) finish() *Result {
	return e.finishInto(new(Result), &resultArena{})
}

// finishInto is finish parameterized over the Result and the backing
// arrays; see resultArena for the ownership contract. The computed
// values are identical for every arena — only who owns the memory
// changes.
func (e *engine) finishInto(r *Result, a *resultArena) *Result {
	*r = e.res
	srcIdx := int(e.srcIdx)
	for i, d := range e.decode {
		if i != srcIdx && int(d) > r.Delay {
			r.Delay = int(d)
		}
	}
	etx := e.cfg.Model.TxEnergyJ(e.cfg.Packet.Bits, e.cfg.Packet.NeighborDistM)
	erx := e.cfg.Model.RxEnergyJ(e.cfg.Packet.Bits)
	v := len(e.txSlots)
	// Sized by dense node index (down nodes hold 0), not by live
	// count: consumers like the energy heatmap index it by t.Index.
	if cap(a.energy) < v {
		a.energy = make([]float64, v)
	}
	r.PerNodeEnergyJ = a.energy[:v]
	totalTx := 0
	for i := range r.PerNodeEnergyJ {
		n := len(e.txSlots[i])
		totalTx += n
		r.PerNodeEnergyJ[i] = float64(n)*etx + float64(e.heard[i])*erx
	}
	if cap(a.txSlots) < v {
		a.txSlots = make([][]int, v)
	}
	r.TxSlots = a.txSlots[:v]
	if cap(a.flat) < totalTx {
		a.flat = make([]int, 0, totalTx)
	}
	flat := a.flat[:0]
	for i, s := range e.txSlots {
		if len(s) == 0 {
			r.TxSlots[i] = nil // keep nil rows nil, like the per-round engine did
			continue
		}
		flat = append(flat, s...)
		r.TxSlots[i] = flat[len(flat)-len(s) : len(flat) : len(flat)]
	}
	a.flat = flat[:0]
	if cap(a.decode) < v {
		a.decode = make([]int, v)
	}
	r.DecodeSlot = a.decode[:v]
	for i, d := range e.decode {
		r.DecodeSlot[i] = int(d)
	}
	ledger := radio.NewLedger(e.cfg.Model, e.cfg.Packet)
	ledger.AddTx(r.Tx)
	ledger.AddRx(r.Rx)
	r.EnergyJ = ledger.TotalJ()
	r.downMask = e.down
	return r
}

func (e *engine) emit(ev Event) {
	if e.cfg.Trace != nil {
		e.traceBuf = append(e.traceBuf, ev)
	}
}

// flushTrace delivers the final schedule's events. Intermediate
// planning replays are not traced.
func (e *engine) flushTrace() {
	if e.cfg.Trace == nil {
		return
	}
	for _, ev := range e.traceBuf {
		e.cfg.Trace(ev)
	}
}
