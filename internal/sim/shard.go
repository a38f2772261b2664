package sim

// Sharded event engine: a conservative-lookahead parallel DES over the
// domains partition.go carves out of the execution graph.
//
// Each domain runs the unmodified serial machinery — the 4-ary value
// heap, packet free list and ring queues of the PR 4 engine — on its own
// goroutine, over its own vertices, links and statistics. Domains
// synchronize with a bounded-lag barrier window (the YAWNS scheme): every
// round the coordinator computes the global floor (minimum heap top over
// all domains) and releases each domain to process events strictly below
// floor+Lmin, where Lmin is the minimum cross-domain edge lookahead. A
// packet crossing domains departs at its source no earlier than the
// current event time plus the edge's computation-transfer overhead
// (≥ Lmin), so every cross event lands at or beyond the window end —
// no domain ever receives a straggler, and floors strictly increase,
// which is the liveness argument.
//
// Determinism contract. In sharded mode the heap key (event.seq) is not a
// schedule counter but an intrinsic, partition-invariant identity:
//
//	packet events:  (packet id + 1) << 32 | kind
//	next arrival:   (next packet id + 1) << 32
//	fault inject:   fault index + 1
//	link restore:   1<<20 + fault index
//	stall recover:  2<<20 + fault index
//	warmup rebase:  3<<20
//
// A live packet has exactly one pending event and control indices are
// unique, so (time, key) totally orders every coexisting event — and the
// order is the same under any partition. Same-time events in different
// domains are causally independent (cross-domain influence always travels
// over positive-lookahead edges), so the run is equivalent to executing
// the global (time, key) sequence on one core: results are byte-identical
// at every shard count. Equality with the *serial* engine additionally
// requires that no two same-time events disagree between key order and
// serial schedule order; ties between unrelated events at exactly equal
// float64 timestamps are the only divergence risk, and the differential
// golden suite pins the scenarios we ship. Control events sort before
// packet events at equal times by construction.
//
// Statistics merge deterministically after the run: per-vertex and
// per-link state is taken from the owning domain, integer counters sum,
// and deliveries replay into the latency accumulators in global
// (time, packet id) order — the serial accumulation order — so float
// summation order is preserved bit-for-bit. Trace events buffer
// per-domain in emission order and replay through a time-keyed stable
// merge that preserves that order.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"lognic/internal/traffic"
)

// ErrShardedCheckpoint reports that checkpoint/resume was requested on a
// sharded run. A multi-domain run has no serial-equivalent mid-run
// snapshot (per-domain clocks straddle the window), so the combination is
// a typed configuration error rather than silent corruption; run with
// Shards ≤ 1 to checkpoint.
var ErrShardedCheckpoint = errors.New("sim: checkpointing is unsupported with Shards > 1")

// Control-event key bases: distinct per kind so same-time control events
// order deterministically, all far below the first packet key (1<<32).
const (
	keyLinkRestore  = 1 << 20
	keyStallRecover = 2 << 20
	keyWarmup       = 3 << 20
)

// intrinsicKey computes the partition-invariant heap key for one event
// scheduled in sharded mode.
func (s *Simulator) intrinsicKey(e *event) uint64 {
	switch e.kind {
	case evArriveAt, evServiceDone:
		return (e.pkt.id+1)<<32 | uint64(e.kind)
	case evArrival:
		// The arrival being scheduled will create packet packetSeq+1.
		return (s.packetSeq + 2) << 32
	case evFault:
		return uint64(e.idx) + 1
	case evLinkRestore:
		return keyLinkRestore + uint64(e.idx)
	case evStallRecover:
		return keyStallRecover + uint64(e.idx)
	default: // evWarmup
		return keyWarmup
	}
}

// xmsg is one packet crossing domains: everything needed to rematerialize
// it from the receiver's free list. Packet ids are assigned only by the
// root domain's arrival pump, so identity is global.
type xmsg struct {
	t        float64
	to, from string
	id       uint64
	size     float64
	born     float64
	flow     uint64
	retries  int
	measure  bool
}

// delivery is one measured egress completion, buffered per domain and
// replayed in global (time, id) order during the merge.
type delivery struct {
	t    float64
	id   uint64
	born float64
	size float64
}

// shardTrace is one buffered trace event. A domain's buffer is in emission
// order — the exact order the serial engine would have emitted those events
// — and event times within a buffer are non-decreasing, so the post-run
// merge is a k-way merge by time that preserves each domain's emission
// order (a stable sort over the domain-ordered concatenation). One event
// can emit several trace records at one timestamp (a departure freeing an
// engine for a queued packet, an arrival delivered inline); keying the
// merge on anything per-packet would tear those apart.
type shardTrace struct {
	t  float64
	ev TraceEvent
}

// shardCtx is the per-domain sharding state hung off a domain's Simulator.
// Its presence (s.sh != nil) is what switches schedule/depart/complete/
// trace onto the sharded paths.
type shardCtx struct {
	dom        int
	run        *shardedRun
	work       chan float64 // coordinator → worker: process up to this horizon
	outbox     [][]xmsg     // per-target-domain cross events, drained at barriers
	deliveries []delivery
	traces     []shardTrace
	traceOn    bool
	stalled    int
	sinceCheck uint64 // events since the last abort-condition poll
}

// send buffers a cross-domain packet hand-off; the local record returns to
// the free list (serial depart semantics end at the domain boundary).
func (s *Simulator) sendRemote(rc *routeChoice, from string, t float64, p *packet) {
	sh := s.sh
	sh.outbox[rc.remoteDom] = append(sh.outbox[rc.remoteDom], xmsg{
		t: t, to: rc.to, from: from,
		id: p.id, size: p.size, born: p.born, flow: p.flow,
		retries: p.retries, measure: p.measure,
	})
	s.freePacket(p)
}

// receive materializes one cross-domain packet from the local free list —
// without consuming a packet id — and schedules its arrival. Called by the
// coordinator between rounds, never concurrently with the domain's loop.
func (s *Simulator) receive(m *xmsg) {
	var p *packet
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		p = new(packet)
	}
	*p = packet{id: m.id, size: m.size, born: m.born, flow: m.flow, measure: m.measure, retries: m.retries}
	s.schedule(m.t, event{kind: evArriveAt, node: s.nodes[m.to], from: m.from, pkt: p})
}

// addTrace buffers one trace event for the deterministic post-run replay.
func (sh *shardCtx) addTrace(kind TraceKind, t float64, vertex string, size, born float64) {
	sh.traces = append(sh.traces, shardTrace{
		t:  t,
		ev: TraceEvent{Kind: kind, Time: t, Vertex: vertex, Size: size, Born: born},
	})
}

// shardedRun coordinates one sharded execution.
type shardedRun struct {
	ctx       context.Context
	doms      []*Simulator
	maxEvents uint64
	total     atomic.Uint64 // events processed across all domains (flushed)
	aborted   atomic.Bool
	errMu     sync.Mutex
	errs      []error // first error per domain; [len(doms)] is the coordinator
	wg        sync.WaitGroup
}

// fail records a domain's first error and aborts the run. The eventual
// returned error is the lowest-indexed domain's, so concurrent failures
// surface deterministically.
func (r *shardedRun) fail(dom int, err error) {
	r.errMu.Lock()
	if r.errs[dom] == nil {
		r.errs[dom] = err
	}
	r.errMu.Unlock()
	r.aborted.Store(true)
}

func (r *shardedRun) firstErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// flush publishes a domain's locally-counted events to the shared total.
func (r *shardedRun) flush(sh *shardCtx) {
	if sh.sinceCheck > 0 {
		r.total.Add(sh.sinceCheck)
		sh.sinceCheck = 0
	}
}

// processWindow runs one domain's loop over events strictly below the
// horizon — the serial RunContext inner loop with per-domain watchdog and
// the shared abort conditions polled on the serial cadence.
func (r *shardedRun) processWindow(d *Simulator, horizon float64) {
	sh := d.sh
	dur := d.cfg.Duration
	for d.events.len() > 0 {
		if top := d.events.ev[0].time; top >= horizon || top > dur {
			return
		}
		e := d.events.pop()
		if e.time > d.now {
			sh.stalled = 0
		} else if sh.stalled++; sh.stalled > stallWindow {
			r.fail(sh.dom, fmt.Errorf("%w: %d events at t=%v (shard %d)", ErrStalled, sh.stalled, d.now, sh.dom))
			return
		}
		d.now = e.time
		d.dispatch(&e)
		d.processed++
		if sh.sinceCheck++; sh.sinceCheck >= ctxCheckInterval {
			r.flush(sh)
			if r.aborted.Load() {
				return
			}
			if err := r.ctx.Err(); err != nil {
				r.fail(sh.dom, fmt.Errorf("sim: run aborted at t=%v after %d events: %w", d.now, r.total.Load(), err))
				return
			}
			if r.maxEvents > 0 && r.total.Load() >= r.maxEvents {
				r.fail(sh.dom, fmt.Errorf("%w: budget %d at t=%v", ErrBudgetExceeded, r.maxEvents, d.now))
				return
			}
		}
	}
}

// runSharded executes the plan: build one executor per domain, seed them,
// then run bounded-lag rounds until every heap is past Duration.
func (s *Simulator) runSharded(ctx context.Context) (Result, error) {
	pl := s.plan
	k := len(pl.domains)
	r := &shardedRun{ctx: ctx, maxEvents: s.cfg.MaxEvents, errs: make([]error, k+1)}

	doms := make([]*Simulator, k)
	for i := range doms {
		dcfg := s.cfg
		dcfg.Shards = 0
		dcfg.Trace = nil // buffered via shardCtx and replayed post-run
		dcfg.Progress = nil
		dcfg.CheckpointEvery = 0
		dcfg.CheckpointSink = nil
		d, err := New(dcfg)
		if err != nil {
			return Result{}, fmt.Errorf("sim: building shard %d: %w", i, err)
		}
		d.sh = &shardCtx{
			dom: i, run: r,
			work:    make(chan float64, 1),
			outbox:  make([][]xmsg, k),
			traceOn: s.cfg.Trace != nil,
		}
		for name, nd := range d.nodes {
			if pl.owner[name] != i {
				continue
			}
			for j := range nd.outEdges {
				if t := pl.owner[nd.outEdges[j].to]; t != i {
					nd.outEdges[j].remote = true
					nd.outEdges[j].remoteDom = int32(t)
				}
			}
		}
		doms[i] = d
	}
	r.doms = doms

	// Seed: the arrival pump lives in the root domain; every domain
	// rebases its own observation windows at warmup; each fault fires in
	// the domain owning its target. The fault's global index rides along
	// so trace keys and recovery events stay partition-invariant.
	root := doms[pl.rootDom]
	gen, err := traffic.NewGenerator(s.cfg.Profile, SeedStream(s.cfg.Seed, trafficStreamTag))
	if err != nil {
		return Result{}, err
	}
	root.gen = gen
	first := gen.Next()
	root.schedule(first.Time, event{kind: evArrival, a: first.Size, flow: first.Flow})
	for i := range s.cfg.Faults {
		d := doms[pl.faultDomain(&s.cfg.Faults[i])]
		d.schedule(s.cfg.Faults[i].Time, event{kind: evFault, idx: int32(i)})
	}
	for _, d := range doms {
		d.schedule(d.warmEnd, event{kind: evWarmup})
	}

	for _, d := range doms {
		go func(d *Simulator) {
			for horizon := range d.sh.work {
				r.processWindow(d, horizon)
				r.wg.Done()
			}
		}(d)
	}
	defer func() {
		for _, d := range doms {
			close(d.sh.work)
		}
	}()

	for !r.aborted.Load() {
		if err := ctx.Err(); err != nil {
			r.fail(k, fmt.Errorf("sim: run aborted at t=%v after %d events: %w", s.now, r.total.Load(), err))
			break
		}
		floor := math.Inf(1)
		for _, d := range doms {
			if d.events.len() > 0 && d.events.ev[0].time < floor {
				floor = d.events.ev[0].time
			}
		}
		if floor > s.cfg.Duration {
			break // includes +Inf: every heap drained or past the end
		}
		s.now = floor
		horizon := floor + pl.lookahead
		if !(horizon > floor) {
			// Lmin underflowed against a large floor: fall back to
			// one-timestamp windows rather than stalling.
			horizon = math.Nextafter(floor, math.Inf(1))
		}
		r.wg.Add(k)
		for _, d := range doms {
			d.sh.work <- horizon
		}
		r.wg.Wait()

		// Barrier: deliver cross-domain events (single-threaded here —
		// workers are parked until the next round).
		for _, d := range doms {
			sh := d.sh
			r.flush(sh)
			for tgt := range sh.outbox {
				box := sh.outbox[tgt]
				if len(box) == 0 {
					continue
				}
				rd := doms[tgt]
				for m := range box {
					rd.receive(&box[m])
				}
				sh.outbox[tgt] = box[:0]
			}
		}
		// As in the serial engine, no progress before the first event.
		if total := r.total.Load(); s.cfg.Progress != nil && total > 0 {
			s.cfg.Progress(Progress{Events: total, SimTime: floor})
		}
		// MaxEvents is approximate under sharding: domains flush local
		// counts every ctxCheckInterval events, so the run stops within
		// one flush quantum per domain of the serial abort point.
		if r.maxEvents > 0 && r.total.Load() >= r.maxEvents {
			r.fail(k, fmt.Errorf("%w: budget %d at t=%v", ErrBudgetExceeded, r.maxEvents, floor))
			break
		}
	}

	if err := r.firstErr(); err != nil {
		// Surface partial fault activity like the serial engine does.
		s.mergeFaults(doms)
		return Result{}, err
	}
	s.now = s.cfg.Duration
	return s.mergeResult(doms), nil
}

// mergeFaults folds the domains' fault counters and vertex state into the
// user-facing simulator, so FaultStats() attributes partial runs.
func (s *Simulator) mergeFaults(doms []*Simulator) {
	for _, d := range doms {
		s.faults.EngineDownEvents += d.faults.EngineDownEvents
		s.faults.EngineUpEvents += d.faults.EngineUpEvents
		s.faults.LinkDegradeEvents += d.faults.LinkDegradeEvents
		s.faults.LinkRestores += d.faults.LinkRestores
		s.faults.VertexStallEvents += d.faults.VertexStallEvents
		s.faults.StallRecoveries += d.faults.StallRecoveries
		s.faults.Retries += d.faults.Retries
		s.faults.RetryDrops += d.faults.RetryDrops
	}
	for name, dom := range s.plan.owner {
		s.nodes[name] = doms[dom].nodes[name]
	}
}

// mergeResult deterministically folds the domains' state into the
// user-facing simulator and collects the Result through the serial path.
func (s *Simulator) mergeResult(doms []*Simulator) Result {
	pl := s.plan
	for _, d := range doms {
		d.now = d.cfg.Duration
		s.processed += d.processed
		s.droppedMeasured += d.droppedMeasured
	}
	root := doms[pl.rootDom]
	s.offeredPackets = root.offeredPackets
	s.offeredBytes = root.offeredBytes
	s.packetSeq = root.packetSeq
	s.mergeFaults(doms)

	// Adopt link state from each owner. Dedicated links live with the
	// source vertex; shared links with their user clique.
	s.intf = doms[pl.intfDom].intf
	s.mem = doms[pl.memDom].mem
	for name := range s.links {
		s.links[name] = doms[pl.linkDomain(name)].links[name]
	}

	// Replay deliveries in global (time, id) order — the order the serial
	// engine accumulated them — so float sums match bit-for-bit.
	var recs []delivery
	for _, d := range doms {
		recs = append(recs, d.sh.deliveries...)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].t != recs[j].t {
			return recs[i].t < recs[j].t
		}
		return recs[i].id < recs[j].id
	})
	for i := range recs {
		s.deliveredPackets++
		s.deliveredBytes += recs[i].size
		s.latencies.add(recs[i].t - recs[i].born)
	}

	if s.cfg.Trace != nil {
		// k-way merge by time: the stable sort over the domain-ordered
		// concatenation keeps every domain's emission order, which is the
		// serial order whenever same-time activity is intra-domain (the
		// tie-freeness the differential suite pins).
		var traces []shardTrace
		for _, d := range doms {
			traces = append(traces, d.sh.traces...)
		}
		sort.SliceStable(traces, func(i, j int) bool {
			return traces[i].t < traces[j].t
		})
		for i := range traces {
			s.cfg.Trace(traces[i].ev)
		}
	}
	return s.collect()
}
