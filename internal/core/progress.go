package core

import (
	"sync"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/fabric/bufpool"
	"pioman/internal/nic"
	"pioman/internal/topo"
	"pioman/internal/trace"
	"pioman/internal/wire"
)

// unexMsg is a message that arrived before its receive was posted: either
// buffered eager data (copied into the unexpected pool) or a pending
// rendezvous RTS awaiting a matching Irecv.
type unexMsg struct {
	isRTS  bool
	src    int
	tag    int
	seq    uint64
	msgID  uint64
	data   []byte // eager: staging copy, borrowed from the fabric buffer pool
	msgLen int    // RTS: announced message length
	rail   *nic.Driver
}

// rdvRecvState tracks an in-flight rendezvous reception — the receive
// half of the multirail completion barrier. Chunks may arrive out of
// order and over different rails, and the sender's rail-failure fallback
// may re-stripe a span whose loss was only suspected (loss counters are
// an upper bound), so progress is tracked as covered byte intervals, not
// a bare countdown: overlapping or duplicate chunks contribute only
// their newly covered bytes, and the request completes exactly when the
// intervals cover the whole message.
type rdvRecvState struct {
	req    *RecvReq
	src    int
	msgLen int
	// covered holds the received byte ranges, disjoint and sorted. The
	// common single-chunk case never grows it past one entry.
	covered []chunkSpan
	// got is the total byte count covered.
	got int
}

// chunkSpan is one contiguous byte range [off, end) of a rendezvous
// payload — a unit of multirail striping and reassembly.
type chunkSpan struct {
	off, end int
}

// rdvKey identifies one in-flight rendezvous reception. The sender is
// part of the key because msgIDs are allocated per origin engine: rank 1
// and rank 2 both number their first rendezvous msgID 1.
type rdvKey struct {
	src   int
	msgID uint64
}

// addSpan merges [off, end) into the covered set and returns how many of
// its bytes were new. Chunk counts are small (payload/MTU per rail), so
// linear insertion is cheap.
func (st *rdvRecvState) addSpan(off, end int) int {
	if end > st.msgLen {
		end = st.msgLen
	}
	if end <= off {
		return 0
	}
	// Find the insertion window: every span overlapping or adjacent to
	// [off, end) collapses into one.
	i := 0
	for i < len(st.covered) && st.covered[i].end < off {
		i++
	}
	j := i
	merged := chunkSpan{off: off, end: end}
	for j < len(st.covered) && st.covered[j].off <= end {
		if st.covered[j].off < merged.off {
			merged.off = st.covered[j].off
		}
		if st.covered[j].end > merged.end {
			merged.end = st.covered[j].end
		}
		j++
	}
	newBytes := merged.end - merged.off
	for k := i; k < j; k++ {
		newBytes -= st.covered[k].end - st.covered[k].off
	}
	if i == j {
		// Disjoint: open a slot at i.
		st.covered = append(st.covered, chunkSpan{})
		copy(st.covered[i+1:], st.covered[i:])
	} else {
		// Collapsed [i, j) into one entry; close the gap.
		st.covered = append(st.covered[:i+1], st.covered[j:]...)
	}
	st.covered[i] = merged
	st.got += newBytes
	return newBytes
}

// railHeader builds the protocol header for a packet.
func railHeader(src, dst, tag int, seq, msgID uint64) nic.Header {
	return nic.Header{Src: src, Dst: dst, Tag: tag, Seq: seq, MsgID: msgID}
}

// stashedEv is a matchable arrival (eager payload or RTS) held back until
// its predecessors in the sender's stream have been processed. Events
// recycle through a freelist (getStash/putStash); pkt, when set, is the
// inbound packet whose buffers the event borrows — it is handed back to
// the fabric packet pool once the event has been fully processed, which
// is the engine's half of the inbound-buffer ownership rule
// (docs/FABRIC.md): the fabric owns arrival buffers, the engine returns
// them after copying payloads to their final destination.
type stashedEv struct {
	isRTS   bool
	src     int
	tag     int
	seq     uint64
	msgID   uint64
	payload []byte
	msgLen  int
	rail    *nic.Driver
	pkt     *wire.Packet
}

// stashPool recycles matchable-event structs.
var stashPool = sync.Pool{New: func() any { return new(stashedEv) }}

// getStash draws a zeroed event from the freelist.
func getStash() *stashedEv { return stashPool.Get().(*stashedEv) }

// finishEv retires a fully processed event: the inbound packet (when the
// event owned one) goes back to the fabric pools, the event struct to
// the freelist. The caller must have copied the payload out first.
func (e *Engine) finishEv(ev *stashedEv) {
	fabric.ReleasePacket(ev.pkt)
	*ev = stashedEv{}
	stashPool.Put(ev)
}

// pollBatchSize caps one batched drain: large enough that a message
// storm amortizes the per-visit costs (one pollLock acquisition, one
// endpoint lock round trip, one ring scan) across dozens of frames,
// small enough that one Progress pass — and in Sequential mode one hold
// of the library-wide lock — stays bounded.
const pollBatchSize = 64

// wokenPkt is one packet BlockingWait pulled off a rail's blocking
// receive, queued for delivery by the next holder of pollLock.
type wokenPkt struct {
	rail *nic.Driver
	pkt  *wire.Packet
}

// enqueueWoken queues a blocking-receive arrival for the batched
// delivery path and is the only woken-queue producer. The length
// mirror is written under the lock, so it exactly matches the queue at
// every lock boundary.
func (e *Engine) enqueueWoken(rail *nic.Driver, p *wire.Packet) {
	e.wokenMu.Lock()
	e.woken = append(e.woken, wokenPkt{rail: rail, pkt: p})
	e.wokenLen.Store(int32(len(e.woken)))
	e.wokenMu.Unlock()
}

// drainWoken delivers every queued blocking-receive arrival; caller
// holds pollLock, which serializes drains. The queue swaps against a
// spare — both sides of the swap under one lock hold, so the two
// slices can never alias the same array — and the steady state
// recycles the two small arrays. The unlocked atomic length check
// keeps the common empty case to one load on the polling hot path; a
// racing producer it misses is picked up by that producer's own
// trailing Progress pass.
func (e *Engine) drainWoken(core topo.CoreID) bool {
	if e.wokenLen.Load() == 0 {
		return false
	}
	e.wokenMu.Lock()
	batch := e.woken
	e.woken = e.wokenSpare[:0]
	e.wokenSpare = batch[:0]
	e.wokenLen.Store(0)
	e.wokenMu.Unlock()
	// batch's array is now the spare: producers only ever append to
	// e.woken, and the next swap is serialized behind pollLock, so this
	// iteration owns the array until it returns.
	worked := false
	for i, w := range batch {
		batch[i] = wokenPkt{}
		e.handlePacket(w.rail, core, w.pkt)
		worked = true
	}
	return worked
}

// drainOnce runs one batched drain of one rail and handles every frame
// it returned; caller holds pollLock. Batch entries are cleared as they
// are handled: handlePacket may release the packet to the fabric pools,
// and a surviving alias in the buffer would resurrect a recycled
// struct.
func (e *Engine) drainOnce(rail *nic.Driver, core topo.CoreID) int {
	n := rail.PollBatch(e.pollBuf)
	for i := 0; i < n; i++ {
		p := e.pollBuf[i]
		e.pollBuf[i] = nil
		e.handlePacket(rail, core, p)
	}
	return n
}

// drainRail runs batched drains of one rail until it runs dry (full
// batches keep draining); caller holds pollLock.
func (e *Engine) drainRail(rail *nic.Driver, core topo.CoreID) bool {
	worked := false
	for {
		n := e.drainOnce(rail, core)
		if n > 0 {
			worked = true
		}
		if n < len(e.pollBuf) {
			return worked
		}
	}
}

// Progress is the engine's piom.Source implementation: one pass drains
// arrived packets on every rail and submits pending eager packs. The two
// activities take separate locks, so one core can drain arrivals while
// another performs a (possibly long) submission copy; contending cores
// bail out immediately, which keeps polling cheap under contention.
// Arrivals drain in batches through the engine's reusable buffer — one
// pollLock acquisition and one endpoint visit cover a whole run of
// packets, which is what keeps the per-event cost of a message storm
// near zero.
func (e *Engine) Progress(core topo.CoreID) bool {
	n := e.nProgress.Add(1)
	t0, sampled := e.tel.dwellStart(n)
	worked := false
	if e.pollLock.TryLock() {
		worked = e.drainWoken(core)
		for _, rail := range e.rails {
			if e.drainRail(rail, core) {
				worked = true
			}
		}
		e.pollLock.Unlock()
	}
	// Background submission only happens when the engine mode calls for
	// it: always in the Sequential baseline (progress is wait-driven, and
	// Progress only ever runs from library calls there) and in
	// Multithreaded mode with offloading on. With offloading disabled the
	// posting thread is the only submitter, so idle cores must not steal
	// the submission (that is precisely the ablation's point).
	if e.cfg.Mode == Sequential || e.cfg.OffloadEager {
		if e.submitPending(core, false) {
			worked = true
		}
	}
	// Self-healing maintenance rides the progress loop: replay timers,
	// probation probes, weight retunes. Gated to near-zero cost when
	// nothing is pending.
	e.maybeMaint(n)
	if sampled {
		e.tel.dwell.ObserveDuration(time.Since(t0))
	}
	return worked
}

// progressOne makes one bounded step of progress: at most one batched
// drain per rail and one submission train. The Sequential baseline's
// wait loop calls it under the library-wide mutex, so the bound is what
// keeps lock hold times at the granularity of a single step — a batch
// is capped at pollBatchSize frames, the batched analog of the classical
// big-locked engine's one-event-per-hold discipline.
func (e *Engine) progressOne(core topo.CoreID) bool {
	n := e.nProgress.Add(1)
	t0, sampled := e.tel.dwellStart(n)
	worked := false
	if e.pollLock.TryLock() {
		worked = e.drainWoken(core)
		for _, rail := range e.rails {
			if e.drainOnce(rail, core) > 0 {
				worked = true
			}
		}
		e.pollLock.Unlock()
	}
	if e.submitLock.TryLock() {
		if train := e.dequeueReady(); len(train) > 0 {
			e.submitTrain(core, train, false)
			worked = true
		}
		e.submitLock.Unlock()
	}
	e.maybeMaint(n)
	if sampled {
		e.tel.dwell.ObserveDuration(time.Since(t0))
	}
	return worked
}

// BlockingWait implements the blocking-call fallback (§3.2): it parks on
// the default rail until a packet lands, delivers it, then runs one full
// progress pass for any follow-up work (e.g. answering an RTS).
//
// Endpoints only block on their own sockets, so in a bonded world a
// chunk can land on a secondary rail while the watcher sleeps on the
// default one. A full progress pass up front drains every rail's
// arrivals first, which bounds secondary-rail latency by the watcher
// cadence instead of by the next default-rail packet — the rail-selection
// gap that made bonded rendezvous hang before multirail went real.
//
// The woken packet rides the same batched delivery path as every polled
// arrival: it enters the woken queue and the trailing Progress pass
// delivers it under pollLock. Historically this path took a *blocking*
// pollLock.Lock — the one asymmetric acquisition in the engine — so a
// concurrent poller mid-drain could stall the watcher thread for a whole
// pass; now the watcher never waits on a lock. If a concurrent poller
// holds pollLock when the trailing pass runs, the packet stays queued —
// and the guard below keeps the watcher from parking on the rail while
// it waits: BlockingWait returns immediately, so its caller loops
// straight back into progress passes until whoever owns the lock (or a
// later pass here) delivers it.
func (e *Engine) BlockingWait(timeout time.Duration) bool {
	if e.Progress(-1) {
		return true
	}
	if e.wokenLen.Load() != 0 {
		// A woken packet from a lost pollLock race is still undelivered
		// — possibly the very arrival a blocking receive is waiting on.
		// Parking on the rail now would strand it for a whole timeout;
		// report work pending instead so the watcher retries promptly.
		e.Progress(-1)
		return true
	}
	rail := e.defaultRail()
	var parkStart time.Time
	if e.tel != nil {
		parkStart = time.Now()
	}
	p := rail.BlockingPoll(timeout)
	if e.tel != nil {
		// Timeouts count too: an always-full park histogram bucket at the
		// timeout value is the signature of a watcher waiting on a rail
		// nobody sends on.
		e.tel.park.ObserveDuration(time.Since(parkStart))
	}
	if p == nil {
		return false
	}
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindBlockingCall, -1, p.Tag, len(p.Payload), "woke on %v", p.Kind)
	}
	e.enqueueWoken(rail, p)
	e.Progress(-1)
	return true
}

// submitPending grabs the submission lock and submits queued eager packs.
// fromApp marks submissions executed on the posting thread (the baseline
// path) as opposed to offloaded ones.
func (e *Engine) submitPending(core topo.CoreID, fromApp bool) bool {
	if !e.submitLock.TryLock() {
		return false
	}
	defer e.submitLock.Unlock()
	return e.submitLocked(core, fromApp)
}

// submitInline makes the calling (application) thread drive submission
// until r has left the waiting list — the no-offload path: a classical
// engine's non-blocking send returns only once the packet has been handed
// to the NIC, spinning if the NIC is still busy.
func (e *Engine) submitInline(r *SendReq) {
	for {
		e.qlock.Lock()
		done := r.submitted
		e.qlock.Unlock()
		if done {
			return
		}
		e.submitPending(-1, true)
	}
}

// dequeueReady pops the next train whose destination rail can accept a
// submission; it returns nil either when the queue is empty or when the
// head's rail is still busy (the pack keeps waiting, per the feed-on-idle
// design of Fig. 3). The train is built in the engine's reusable train
// buffer — valid until the next dequeue, which every caller serializes
// behind submitLock — so steady-state submission allocates nothing.
func (e *Engine) dequeueReady() []*pack {
	e.qlock.Lock()
	defer e.qlock.Unlock()
	head := e.strat.Head()
	if head == nil || !e.railFor(head.req.dst).CanSubmit(head.req.dst) {
		return nil
	}
	train := e.strat.Dequeue(e.mtuOf, e.trainBuf)
	if train != nil {
		e.trainBuf = train
	}
	return train
}

// submitLocked drains the ready part of the strategy queue; caller holds
// submitLock.
func (e *Engine) submitLocked(core topo.CoreID, fromApp bool) bool {
	worked := false
	for {
		train := e.dequeueReady()
		if len(train) == 0 {
			return worked
		}
		e.submitTrain(core, train, fromApp)
		worked = true
	}
}

// submitTrain puts one train on the wire and completes its requests.
// Eager sends complete at submission: the payload has been copied out of
// the application buffer (or PIO'd), so the buffer is reusable. The
// completion loop runs last and the request is never touched after its
// Complete: the application may Release it back to the freelist the
// moment its wait returns.
func (e *Engine) submitTrain(core topo.CoreID, train []*pack, fromApp bool) {
	r0 := train[0].req
	rail := e.railFor(r0.dst)
	if !fromApp {
		e.nOffload.Add(uint64(len(train)))
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindOffload, int(core), r0.tag, r0.Len(), "dst=%d train=%d", r0.dst, len(train))
		}
	}
	if len(train) == 1 {
		rail.SendEager(railHeader(e.node, r0.dst, r0.tag, r0.seq, 0), r0.data)
		e.nEager.Add(1)
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindSubmit, int(core), r0.tag, r0.Len(), "dst=%d seq=%d", r0.dst, r0.seq)
		}
	} else {
		payload := encodeAggr(train)
		rail.SendAggr(railHeader(e.node, r0.dst, -1, r0.seq, 0), payload)
		e.nEager.Add(uint64(len(train)))
		e.nAggr.Add(uint64(len(train)))
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindSubmit, int(core), -1, len(payload), "dst=%d aggregated=%d", r0.dst, len(train))
		}
	}
	e.qlock.Lock()
	for _, p := range train {
		p.req.submitted = true
	}
	e.qlock.Unlock()
	for _, p := range train {
		p.req.req.Complete()
		putPack(p)
	}
}

// handlePacket processes one arrived packet; caller holds pollLock,
// which serializes all packet handling and preserves per-(src,tag) FIFO.
//
// Packet ownership ends here: eager and RTS frames ride a stashedEv and
// are released once the event is processed (possibly later, out of the
// stash); CTS and DATA frames are released as soon as their handler
// returns; control frames pass to the installed handler, which becomes
// their owner; an aggregated frame is left to the GC, because its
// sub-events alias the shared payload and any of them may sit in the
// stash indefinitely.
func (e *Engine) handlePacket(rail *nic.Driver, core topo.CoreID, p *wire.Packet) {
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindWireRecv, int(core), p.Tag, len(p.Payload), "%v from %d", p.Kind, p.Src)
	}
	e.tel.notePeerRecv(p.Src)
	if e.lastHeard != nil {
		// Deadline tracking is on (Config.PeerDeadline): every inbound
		// frame is proof of life, whatever its kind.
		e.noteHeard(p.Src)
	}
	switch p.Kind {
	case wire.PktEager:
		ev := getStash()
		ev.src, ev.tag, ev.seq = p.Src, p.Tag, p.Seq
		ev.payload, ev.rail, ev.pkt = p.Payload, rail, p
		e.handleMatchable(core, ev)
	case wire.PktAggr:
		subs := decodeAggr(p.Payload)
		if subs == nil {
			panic("core: corrupted aggregated train")
		}
		for _, s := range subs {
			ev := getStash()
			ev.src, ev.tag, ev.seq = p.Src, s.tag, s.seq
			ev.payload, ev.rail = s.data, rail
			e.handleMatchable(core, ev)
		}
	case wire.PktRTS:
		if p.Offset == 1 {
			// A replayed RTS (the sender's resend timer fired): it
			// travels outside the stream ordering, because the original
			// may already hold — or have consumed — the sequence number.
			e.handleReplayRTS(rail, core, p)
			fabric.ReleasePacket(p)
			return
		}
		e.noteSession(p.Src, nic.DecodeRTSSession(p.Payload), p.Seq)
		ev := getStash()
		ev.isRTS = true
		ev.src, ev.tag, ev.seq, ev.msgID = p.Src, p.Tag, p.Seq, p.MsgID
		ev.msgLen, ev.rail = nic.DecodeLen(p.Payload), rail
		e.handleMatchable(core, ev)
		// The announced length was decoded above; nothing aliases the
		// RTS frame anymore.
		fabric.ReleasePacket(p)
	case wire.PktCTS:
		e.handleCTS(core, p)
		fabric.ReleasePacket(p)
	case wire.PktData:
		e.handleData(rail, core, p)
		fabric.ReleasePacket(p)
	case wire.PktDataAck:
		e.handleDataAck(core, p)
		fabric.ReleasePacket(p)
	case wire.PktPing:
		e.handlePing(rail, p)
		fabric.ReleasePacket(p)
	case wire.PktPong:
		e.handlePong(rail, p)
		fabric.ReleasePacket(p)
	case wire.PktCtrl:
		if h := e.ctrlHandler.Load(); h != nil {
			(*h)(p)
		}
	default:
		panic("core: unknown packet kind " + p.Kind.String())
	}
}

// handleMatchable enforces per-sender stream order: the event is processed
// only when every lower-sequence event from the same sender has been; a
// gap (small packet overtook a bulk one on the wire) parks it in the stash
// until the gap fills. Processed events are retired through finishEv,
// which recycles the event and its inbound packet buffers.
func (e *Engine) handleMatchable(core topo.CoreID, ev *stashedEv) {
	src := ev.src
	e.qlock.Lock()
	next := e.orderIn[src] + 1
	if ev.seq != next {
		if ev.seq < next {
			e.qlock.Unlock()
			if ev.isRTS {
				// A replayed RTS already advanced the stream past this
				// sequence (the replay machinery races slow originals by
				// design); the late original carries nothing new.
				e.finishEv(ev)
				return
			}
			panic("core: duplicate sequence number in sender stream")
		}
		m := e.stash[src]
		if m == nil {
			m = make(map[uint64]*stashedEv)
			e.stash[src] = m
		}
		if m[ev.seq] != nil {
			// The slot is taken: a replay overtook its stashed original
			// (or vice versa). Keep the first, drop the newcomer.
			e.qlock.Unlock()
			e.finishEv(ev)
			return
		}
		m[ev.seq] = ev
		e.qlock.Unlock()
		return
	}
	e.orderIn[src] = next
	e.qlock.Unlock()
	e.processMatchable(core, ev)
	e.finishEv(ev)
	// Drain any stashed successors the gap was blocking.
	for {
		e.qlock.Lock()
		next = e.orderIn[src] + 1
		buffered := e.stash[src][next]
		if buffered != nil {
			delete(e.stash[src], next)
			e.orderIn[src] = next
		}
		e.qlock.Unlock()
		if buffered == nil {
			return
		}
		e.processMatchable(core, buffered)
		e.finishEv(buffered)
	}
}

// processMatchable dispatches an in-order matchable event.
func (e *Engine) processMatchable(core topo.CoreID, ev *stashedEv) {
	if ev.isRTS {
		e.handleRTS(ev.rail, core, ev)
		return
	}
	e.handleEager(ev.rail, core, ev.src, ev.tag, ev.seq, ev.payload)
}

// handleEager delivers one eager payload: straight into the posted buffer
// when expected (the NIC DMA'd it there — no CPU charge beyond the
// physical copy), or into the unexpected pool otherwise (a real copy,
// charged to the polling core, §2.2). Unexpected staging borrows from
// the fabric buffer pool and is returned after the pool-to-application
// copy, so even the unexpected path recycles its buffers.
func (e *Engine) handleEager(rail *nic.Driver, core topo.CoreID, src, tag int, seq uint64, payload []byte) {
	e.qlock.Lock()
	r := e.matchPostedLocked(src, tag)
	e.qlock.Unlock()
	if r != nil {
		e.deliverEager(core, r, src, tag, payload)
		return
	}
	// Unexpected: pay the pool copy, then re-check — a receive may have
	// been posted while we copied.
	pooled := bufpool.Get(len(payload))
	copy(pooled, payload)
	rail.ChargeMatchCopy(len(payload))
	e.nUnexp.Add(1)
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindUnexpected, int(core), tag, len(payload), "src=%d", src)
	}
	e.qlock.Lock()
	if r := e.matchPostedLocked(src, tag); r != nil {
		e.qlock.Unlock()
		// Second copy, pool to application buffer.
		rail.ChargeMatchCopy(len(pooled))
		e.deliverEager(core, r, src, tag, pooled)
		bufpool.Put(pooled)
		return
	}
	e.unexpected = append(e.unexpected, &unexMsg{
		src: src, tag: tag, seq: seq, data: pooled, rail: rail,
	})
	e.qlock.Unlock()
}

// deliverEager finishes an expected eager reception. Complete runs last;
// the request is not touched afterwards (the application may already be
// releasing it to the freelist).
func (e *Engine) deliverEager(core topo.CoreID, r *RecvReq, src, tag int, payload []byte) {
	n := copy(r.buf, payload)
	r.n, r.from, r.truncated = n, src, len(payload) > len(r.buf)
	r.gotTag = tag
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindMatch, int(core), r.tag, n, "src=%d", src)
		e.cfg.Trace.Recordf(trace.KindComplete, int(core), r.tag, n, "recv")
	}
	r.req.Complete()
}

// handleRTS reacts to a rendezvous request: if a matching receive is
// posted, answer CTS immediately (reactivity is the whole point, §2.3);
// otherwise queue it as unexpected.
func (e *Engine) handleRTS(rail *nic.Driver, core topo.CoreID, ev *stashedEv) {
	e.qlock.Lock()
	r := e.matchPostedLocked(ev.src, ev.tag)
	if r == nil {
		e.unexpected = append(e.unexpected, &unexMsg{
			isRTS: true, src: ev.src, tag: ev.tag, seq: ev.seq,
			msgID: ev.msgID, msgLen: ev.msgLen, rail: rail,
		})
		e.qlock.Unlock()
		e.nUnexp.Add(1)
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindUnexpected, int(core), ev.tag, ev.msgLen, "rts msgid=%d", ev.msgID)
		}
		return
	}
	r.gotTag = ev.tag
	e.rdvRecv[rdvKey{src: ev.src, msgID: ev.msgID}] = &rdvRecvState{req: r, src: ev.src, msgLen: ev.msgLen}
	e.qlock.Unlock()
	rail.SendCTS(railHeader(e.node, ev.src, ev.tag, ev.seq, ev.msgID))
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindCTS, int(core), ev.tag, ev.msgLen, "msgid=%d", ev.msgID)
	}
}

// handleCTS reacts to a rendezvous acknowledgement: the receiver is
// ready, post the zero-copy data transfer. The send does not complete
// here — it moves to the await set and completes when the receiver's
// DATA-ack arrives (handleDataAck), so the application buffer stays
// valid for replay if a rail dies after submission.
func (e *Engine) handleCTS(core topo.CoreID, p *wire.Packet) {
	e.qlock.Lock()
	s := e.rdvSend[p.MsgID]
	if s != nil {
		delete(e.rdvSend, p.MsgID)
		s.ctsSeen = true
		// Fresh deadline for the data phase; the RTS phase may have
		// backed the request's timer off.
		s.backoff = replayRTOInit
		s.nextResend = time.Now().Add(replayRTOInit)
		e.await[p.MsgID] = s
	}
	e.qlock.Unlock()
	if s == nil {
		return // duplicate CTS; the data phase (or its replay) owns the request
	}
	// Handshake latency stamps: rendezvous CTSes are rare (one per bulk
	// message), so reading the clock here is off the eager hot path by
	// construction.
	var ctsAt time.Time
	if e.tel != nil && !s.rtsAt.IsZero() {
		ctsAt = time.Now()
		e.tel.rtsToCts.ObserveDuration(ctsAt.Sub(s.rtsAt))
	}
	e.sendRdvData(core, s)
	if !ctsAt.IsZero() {
		e.tel.ctsToData.ObserveDuration(time.Since(ctsAt))
	}
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindData, int(core), s.tag, s.Len(), "rdv data posted msgid=%d", s.msgID)
	}
}

// sendRdvData posts the DATA transfer, striped across rails when the
// multirail strategy applies.
func (e *Engine) sendRdvData(core topo.CoreID, s *SendReq) {
	h := railHeader(e.node, s.dst, s.tag, s.seq, s.msgID)
	rails := e.dataRails(s.dst, s.Len())
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindData, int(core), s.tag, s.Len(), "msgid=%d rails=%d", s.msgID, len(rails))
	}
	if len(rails) == 1 {
		ok := true
		if e.stripe {
			// Even a collapsed stripe set (one weighted rail left, or a
			// ForceDataRail phase) keeps multirail's MTU discipline: a
			// single frame above the rail MTU is exactly what a real
			// transport's ceiling would refuse.
			ok = e.sendSpan(rails[0], h, s.data, chunkSpan{off: 0, end: s.Len()})
		} else if lim := rails[0].MaxFrame(); lim > 0 && s.Len() > lim {
			// The transport refuses single frames this large outright
			// (udpfab's one-datagram frame ceiling): chunk at the rail
			// MTU. The receive side reassembles chunks by offset under
			// every strategy, so only the submission shape changes.
			ok = e.sendSpan(rails[0], h, s.data, chunkSpan{off: 0, end: s.Len()})
		} else {
			// Other strategies model the classical single-DMA submission;
			// the simulator's wire does its own fragmenting.
			rails[0].SendData(h, 0, s.data)
		}
		if !ok {
			// No survivor to re-stripe onto; probation + the acked-replay
			// timer carry the transfer once the rail (or another) heals.
			e.demoteRail(rails[0], h.Dst)
		}
		return
	}
	e.stripeData(h, s.data, rails)
}

// stripeData is the multirail data placement: the payload splits into
// one contiguous span per rail, sized proportionally to the rails' live
// stripe weights, and each span goes out as MTU-bounded DATA chunks on
// its rail. A rail whose loss counters (SendErrs, LostFrames) moved
// while its span was submitted is declared failed, and its span is
// re-striped onto the surviving rails — the failure fallback that keeps
// a bonded rendezvous completing when one rail dies mid-transfer. With
// no survivor left the loss simply stays visible in the counters, like
// any dead-transport send.
func (e *Engine) stripeData(h nic.Header, data []byte, rails []*nic.Driver) {
	weights := make([]float64, len(rails))
	total := 0.0
	for i, r := range rails {
		weights[i] = r.StripeWeight()
		total += weights[i]
	}
	if total <= 0 {
		// No proportions exist — either dataRails fell back to rails
		// that declare no weight (hand-rolled Params), or every weight
		// was retuned to zero between selection and here (SetStripeWeight
		// is a live knob). Split equally rather than collapsing to one
		// rail: an equal split is what unweighted multirail always meant.
		for i := range weights {
			weights[i] = 1
		}
		total = float64(len(rails))
	}
	spans := make([]chunkSpan, len(rails))
	off := 0
	for i := range rails {
		end := off + int(float64(len(data))*(weights[i]/total))
		if i == len(rails)-1 || end > len(data) {
			end = len(data)
		}
		spans[i] = chunkSpan{off: off, end: end}
		off = end
	}
	alive := make([]bool, len(rails))
	var failed []chunkSpan
	for i, r := range rails {
		alive[i] = e.sendSpan(r, h, data, spans[i])
		if !alive[i] {
			failed = append(failed, spans[i])
			e.demoteRail(r, h.Dst)
		}
	}
	// Each retry either lands the span or retires another rail, so the
	// loop is bounded by len(rails) failures.
	for len(failed) > 0 {
		best := -1
		for i, r := range rails {
			if alive[i] && (best < 0 || r.StripeWeight() > rails[best].StripeWeight()) {
				best = i
			}
		}
		if best < 0 {
			// Every rail failed its span. The loss stays visible in the
			// counters, every failed rail is on probation, and the
			// acked-replay timer re-stripes once one heals.
			return
		}
		sp := failed[len(failed)-1]
		failed = failed[:len(failed)-1]
		if !e.sendSpan(rails[best], h, data, sp) {
			alive[best] = false
			e.demoteRail(rails[best], h.Dst)
			failed = append(failed, sp)
		}
	}
}

// sendSpan submits one contiguous span as MTU-bounded DATA chunks on r
// and reports whether the rail's loss counters stayed quiet across the
// submission. Detection is necessarily synchronous-best-effort: a real
// stream can still fail after the frames were accepted, which the
// counters surface asynchronously (docs/FABRIC.md).
func (e *Engine) sendSpan(r *nic.Driver, h nic.Header, data []byte, sp chunkSpan) bool {
	if sp.end <= sp.off {
		return true
	}
	before := r.Stats().SendErrs + r.LostFrames()
	mtu := r.MTU()
	for off := sp.off; off < sp.end; off += mtu {
		end := min(off+mtu, sp.end)
		r.SendData(h, off, data[off:end])
	}
	return r.Stats().SendErrs+r.LostFrames() == before
}

// dataRails selects the rails carrying a rendezvous payload to dst:
// normally the destination's single rail; under the multirail strategy,
// every rail declaring a positive stripe weight once the payload reaches
// MultirailMin. Weight-gating is what keeps rails that only serve a
// subset of peers — the simulated intra-node SHM channel — out of
// cross-node striping, while a real shared-memory rail (nic.ShmParams),
// whose rings span every rank of the world, participates.
func (e *Engine) dataRails(dst, size int) []*nic.Driver {
	if f := e.railFilter.Load(); f != nil {
		for _, r := range e.rails {
			if r.Name() == *f {
				return []*nic.Driver{r}
			}
		}
	}
	if !e.stripe || size < e.cfg.MultirailMin || dst == e.node {
		return []*nic.Driver{e.railFor(dst)}
	}
	var out []*nic.Driver
	onProbation := e.probationCount.Load() > 0
	for i, r := range e.rails {
		if onProbation && e.health[i].state.Load() != railActive {
			continue
		}
		if r.StripeWeight() > 0 {
			out = append(out, r)
		}
	}
	if len(out) == 0 && onProbation {
		// Every weighted rail is on probation: stripe across them anyway
		// rather than across nothing — a possibly-dead rail plus the
		// replay timer beats a guaranteed drop.
		for _, r := range e.rails {
			if r.StripeWeight() > 0 {
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		// No rail declares a weight at all — hand-rolled Params predating
		// StripeWeight. Keep the historic behavior (equal-split striping
		// across the inter-node rails; stripeData treats an all-zero set
		// as equal weights) instead of silently collapsing the multirail
		// experiment onto a single rail.
		for i, r := range e.rails {
			if i != e.selfRail {
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		out = append(out, e.railFor(dst))
	}
	return out
}

// handleData consumes a rendezvous payload chunk: it lands directly in the
// application buffer (zero copy). On the final chunk the receiver acks
// the whole transfer back on the chunk's arrival rail — the signal that
// lets the sender retire its replay state — then Complete runs last; the
// request is not touched afterwards.
//
// A chunk whose msgID has no handshake state is a designed occurrence,
// not corruption: the failure fallback re-stripes spans whose loss was
// only suspected (loss counters are an upper bound), and the acked-replay
// timer re-sends whole transfers whose ack was lost. A chunk of a
// transfer the done-ring remembers completing is re-acked (the sender is
// replaying because the first ack was lost); anything else is dropped.
func (e *Engine) handleData(rail *nic.Driver, core topo.CoreID, p *wire.Packet) {
	key := rdvKey{src: p.Src, msgID: p.MsgID}
	e.qlock.Lock()
	st := e.rdvRecv[key]
	if st == nil {
		_, done := e.rdvDone[key]
		e.qlock.Unlock()
		if done {
			rail.SendDataAck(railHeader(e.node, p.Src, p.Tag, p.Seq, p.MsgID))
			return
		}
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindWireRecv, int(core), p.Tag, len(p.Payload), "late data msgid=%d", p.MsgID)
		}
		return
	}
	e.qlock.Unlock()
	// Chunks of one msgID are handled under pollLock, so mutating the
	// state outside qlock is safe. Duplicate and overlapping chunks
	// (failover re-stripes, replay re-sends) contribute only their newly
	// covered bytes via the interval set — the idempotence that makes
	// replays safe to fire on suspicion.
	copy(st.req.buf[min(p.Offset, len(st.req.buf)):], p.Payload)
	st.addSpan(p.Offset, p.Offset+len(p.Payload))
	if st.got < st.msgLen {
		return
	}
	e.qlock.Lock()
	delete(e.rdvRecv, key)
	e.rdvDoneAdd(key)
	e.qlock.Unlock()
	rail.SendDataAck(railHeader(e.node, p.Src, p.Tag, p.Seq, p.MsgID))
	r := st.req
	n := st.msgLen
	if n > len(r.buf) {
		r.truncated = true
		n = len(r.buf)
	}
	r.n, r.from = n, st.src
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindComplete, int(core), r.tag, n, "rdv recv msgid=%d", p.MsgID)
	}
	r.req.Complete()
}

// matchPostedLocked removes and returns the oldest posted receive matching
// (src, tag); caller holds qlock. A posted receive may wildcard the source
// (AnySource) and/or the tag (AnyTag).
func (e *Engine) matchPostedLocked(src, tag int) *RecvReq {
	for i, r := range e.posted {
		if (r.tag == tag || r.tag == AnyTag) && (r.src == AnySource || r.src == src) {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// takeUnexpected removes and returns the oldest unexpected message
// matching (src, tag); caller holds qlock. src may be AnySource and tag
// AnyTag.
func (e *Engine) takeUnexpected(src, tag int) *unexMsg {
	for i, u := range e.unexpected {
		if (tag == AnyTag || u.tag == tag) && (src == AnySource || u.src == src) {
			e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
			return u
		}
	}
	return nil
}

// deliverUnexpected completes an Irecv against a buffered unexpected
// message: eager data pays the pool-to-application copy on the calling
// core and the staging buffer goes back to the fabric buffer pool; a
// pending RTS is answered with a CTS. Complete runs last; the request is
// not touched afterwards.
func (e *Engine) deliverUnexpected(r *RecvReq, u *unexMsg) {
	if u.isRTS {
		e.qlock.Lock()
		r.gotTag = u.tag
		e.rdvRecv[rdvKey{src: u.src, msgID: u.msgID}] = &rdvRecvState{req: r, src: u.src, msgLen: u.msgLen}
		e.qlock.Unlock()
		u.rail.SendCTS(railHeader(e.node, u.src, u.tag, u.seq, u.msgID))
		if e.tracing() {
			e.cfg.Trace.Recordf(trace.KindCTS, -1, u.tag, u.msgLen, "late msgid=%d", u.msgID)
		}
		e.kick()
		return
	}
	u.rail.ChargeMatchCopy(len(u.data))
	n := copy(r.buf, u.data)
	r.n, r.from, r.truncated = n, u.src, len(u.data) > len(r.buf)
	r.gotTag = u.tag
	bufpool.Put(u.data)
	u.data = nil
	if e.tracing() {
		e.cfg.Trace.Recordf(trace.KindMatch, -1, r.tag, n, "unexpected src=%d", u.src)
	}
	r.req.Complete()
}
