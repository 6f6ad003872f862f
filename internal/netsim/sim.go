// Package netsim is a deterministic discrete-event packet-level network
// simulator: simulated clock, event queue, store-and-forward links with
// implicit drop-tail queues, and nodes with TTL handling (so traceroute works
// exactly as it does on a real path).
//
// It plays the role the physical testbed played in the paper: the volunteer
// Raspberry Pis, the Starlink bent pipe, the terrestrial ISP paths and the
// measurement servers are all nodes and links in a netsim topology. The
// congestion-control experiments (Figure 8) and all throughput/loss
// experiments (Figures 6a-c) run packet by packet on this engine.
//
// Determinism: every run is driven by a seeded *rand.Rand owned by the Sim;
// two runs with the same seed produce identical event sequences.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"starlinkview/internal/trace"
)

// Time is simulated time since the start of the run.
type Time = time.Duration

// Ordering contract: every callback runs in the total order of its key
// (at, seq), where seq is taken from one per-Sim counter at the moment the
// callback is scheduled. Schedule, Link.Send, ScheduleSeries and Timer.Arm
// all reserve their seqs at call time, exactly as one Schedule per callback
// would, so the order never depends on how lazily a source queues its
// callbacks. That is what lets the queue stay O(links + flows) deep:
//
//   - a Link is FIFO, so only the head of its in-flight ring is queued;
//   - a series queues only its next call;
//   - a Timer queues one carrier, which re-queues itself under the live
//     deadline's key when it pops early.

// event is one queued entry, stored by value in the heap.
type event struct {
	at  Time
	seq uint64
	src source
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// source is what an event runs when it pops; at and seq are the key it was
// queued under.
type source interface {
	fire(s *Sim, at Time, seq uint64)
}

// callback is a plain scheduled function. A func value is pointer-shaped,
// so boxing it in the source interface does not allocate.
type callback func()

func (c callback) fire(*Sim, Time, uint64) { c() }

// Sim is a discrete-event simulation run.
type Sim struct {
	now     Time
	seq     uint64
	pq      []event // 4-ary min-heap on (at, seq)
	rng     *rand.Rand
	pktID   uint64
	stopped bool

	// behind counts callbacks reserved but not yet queued: packets behind
	// each link's queued head and series calls after the queued one.
	behind int
	// orphans counts queued timer carriers that will not run a callback.
	orphans int
}

// NewSim creates a simulation with a deterministic random source.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's random source. All stochastic behaviour in a
// run must draw from it to keep runs reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// NextPacketID returns a fresh unique packet identifier.
func (s *Sim) NextPacketID() uint64 {
	s.pktID++
	return s.pktID
}

// reserve returns the key a callback scheduled at the given time gets.
// Times in the past are clamped to the current time.
func (s *Sim) reserve(at Time) (Time, uint64) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	return at, s.seq
}

// Schedule runs fn after delay of simulated time. A negative delay is
// treated as zero.
func (s *Sim) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute simulated time. Times in the past
// fire immediately (at the current time).
func (s *Sim) ScheduleAt(at Time, fn func()) {
	at, seq := s.reserve(at)
	s.push(event{at: at, seq: seq, src: callback(fn)})
}

// ScheduleSeries runs fn n times, gap apart, the first call after no delay.
// It runs in exactly the order of n Schedule(i*gap, fn) calls made in a
// loop, but keeps only the next call queued. A negative gap is treated as
// zero.
func (s *Sim) ScheduleSeries(n int, gap Time, fn func()) {
	if n <= 0 {
		return
	}
	if gap < 0 {
		gap = 0
	}
	at, seq := s.reserve(s.now)
	s.seq += uint64(n - 1)
	s.behind += n - 1
	s.push(event{at: at, seq: seq, src: &series{fn: fn, left: n - 1, gap: gap}})
}

// series is a ScheduleSeries in progress.
type series struct {
	fn   func()
	left int // calls still to come after the queued one
	gap  Time
}

func (r *series) fire(s *Sim, at Time, seq uint64) {
	if r.left > 0 {
		r.left--
		s.behind--
		s.push(event{at: at + r.gap, seq: seq + 1, src: r})
	}
	r.fn()
}

// Timer is a re-armable one-shot callback: Arm replaces the pending
// deadline and Stop cancels it. Re-arming to a later deadline reuses the
// queued carrier event, which re-queues itself under the live key when it
// pops early, so a timer re-armed on every ack keeps one event queued.
// Re-arming to an earlier deadline, or Stop, orphans the carrier; an orphan
// pops as a no-op.
type Timer struct {
	sim   *Sim
	fn    func()
	armed bool
	at    Time // live deadline
	seq   uint64
	// queued reports that the timer's carrier is in the queue under key
	// (cAt, cSeq). A carrier the timer no longer owns (one superseded by an
	// earlier deadline) pops as a no-op.
	queued bool
	cAt    Time
	cSeq   uint64
}

// NewTimer returns a stopped timer that runs fn on s when it expires.
func (s *Sim) NewTimer(fn func()) *Timer { return &Timer{sim: s, fn: fn} }

// Arm (re)starts the timer to expire after d (negative means zero). It
// reserves a fresh seq exactly as Schedule(d, fn) would, so the expiry runs
// in the same order as that Schedule call's event.
func (t *Timer) Arm(d Time) {
	s := t.sim
	if d < 0 {
		d = 0
	}
	if t.queued && !t.armed {
		s.orphans-- // a stopped timer's carrier may be reused below
	}
	t.armed = true
	t.at, t.seq = s.reserve(s.now + d)
	if t.queued && t.cAt <= t.at {
		// The carrier pops first (at an earlier instant, or at the same
		// one with an older seq) and re-queues itself under the new key.
		return
	}
	if t.queued {
		s.orphans++ // queued past the new deadline: superseded
	}
	t.queued, t.cAt, t.cSeq = true, t.at, t.seq
	s.push(event{at: t.at, seq: t.seq, src: t})
}

// Stop cancels the pending expiry, if any.
func (t *Timer) Stop() {
	if t.armed && t.queued {
		t.sim.orphans++
	}
	t.armed = false
}

func (t *Timer) fire(s *Sim, _ Time, seq uint64) {
	if !t.queued || seq != t.cSeq {
		s.orphans-- // a superseded carrier
		return
	}
	if !t.armed {
		t.queued = false
		s.orphans-- // the carrier of a stopped timer
		return
	}
	if seq != t.seq {
		// Popped ahead of a later re-arm: wait under the live key.
		t.cAt, t.cSeq = t.at, t.seq
		s.push(event{at: t.at, seq: t.seq, src: t})
		return
	}
	t.queued, t.armed = false, false
	t.fn()
}

// push inserts e into the 4-ary heap.
func (s *Sim) push(e event) {
	s.pq = append(s.pq, e)
	h := s.pq
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the earliest event.
func (s *Sim) pop() event {
	h := s.pq
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the reference for the GC
	h = h[:n]
	s.pq = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h[k].before(&h[m]) {
				m = k
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// step pops the earliest event and runs it.
func (s *Sim) step() {
	e := s.pop()
	s.now = e.at
	e.src.fire(s, e.at, e.seq)
}

// Stop makes Run and RunUntil return after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Run processes events until the queue is empty or Stop is called.
func (s *Sim) Run() {
	for len(s.pq) > 0 && !s.stopped {
		s.step()
	}
}

// RunUntil processes all events scheduled at or before t, then advances the
// clock to t.
func (s *Sim) RunUntil(t Time) {
	for len(s.pq) > 0 && !s.stopped && s.pq[0].at <= t {
		s.step()
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// Pending returns the number of callbacks still to run: queued events, plus
// packets behind each link's queued head and the rest of every series,
// minus timer carriers that will not run a callback.
func (s *Sim) Pending() int { return len(s.pq) + s.behind - s.orphans }

// ICMPType marks control packets generated inside the network.
type ICMPType int

const (
	// ICMPNone marks a normal packet.
	ICMPNone ICMPType = iota
	// ICMPTimeExceeded is the TTL-expiry reply traceroute relies on.
	ICMPTimeExceeded
	// ICMPEchoReply answers an ICMPEcho probe (ping).
	ICMPEchoReply
	// ICMPEcho is a ping request.
	ICMPEcho
)

// Packet is the unit of transmission. Fields double as protocol headers for
// the simplified TCP/UDP/ICMP machinery built on top.
type Packet struct {
	ID   uint64
	Flow uint64 // flow identifier; 0 for bare probes
	Size int    // bytes on the wire

	Src, Dst string // node names
	SrcPort  int
	DstPort  int
	TTL      int // hop limit; decremented per node

	// Transport fields.
	Seq   int64 // first data byte carried (data) or sequence echo (ack)
	Ack   int64 // cumulative ack (next expected byte)
	IsAck bool
	// Sack lists the receiver's out-of-order blocks above Ack. Real TCP
	// caps this at 3-4 blocks per segment; the simulation reports the full
	// state, which approximates what a modern SACK+RACK stack reconstructs
	// across consecutive acks.
	Sack   []SackBlock
	SentAt Time // stamped at first transmission; echoed back in acks

	// Rate-sampling fields (see cc package): the sender's delivered-bytes
	// counter and its timestamp at the moment this packet was sent.
	Delivered   int64
	DeliveredAt Time
	Retrans     bool // this packet is a retransmission

	// Control plane.
	ICMP     ICMPType
	ICMPFrom string // node that generated the ICMP reply
	ProbeID  uint64 // correlates probes with replies
}

// SackBlock is one contiguous received byte range [Start, End) above the
// cumulative ack.
type SackBlock struct {
	Start, End int64
}

// Handler consumes packets delivered by a link.
type Handler interface {
	Handle(s *Sim, p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(s *Sim, p *Packet)

// Handle implements Handler.
func (f HandlerFunc) Handle(s *Sim, p *Packet) { f(s, p) }

// LinkStats counts traffic through a link.
type LinkStats struct {
	SentPackets    int
	SentBytes      int64
	DroppedPackets int
	DroppedBytes   int64
	LossDropped    int // dropped by the loss process rather than the queue
}

// Link is a unidirectional store-and-forward link with an implicit drop-tail
// queue: the backlog is tracked as the time the transmitter remains busy, so
// queueing delay and occupancy need no explicit queue structure. A link
// belongs to one Sim at a time: packets in flight are delivered only through
// the Sim whose Send queued them.
type Link struct {
	Name      string
	RateBps   float64 // transmission rate in bits/s; 0 means infinitely fast
	Delay     Time    // fixed propagation delay
	QueueByte int     // drop-tail threshold in bytes of backlog; 0 = unlimited

	// DelayFn, if set, returns extra one-way delay for a departure at the
	// given time (the bent pipe's geometry-driven term).
	DelayFn func(now Time) Time
	// LossFn, if set, reports whether the packet is lost at the given time
	// (the bent pipe's handover bursts). Loss is applied before queueing.
	LossFn func(now Time, p *Packet) bool
	// RateFn, if set, overrides RateBps at the given time (weather or
	// diurnal capacity changes).
	RateFn func(now Time) float64

	Dst Handler

	// Metrics, if non-nil, mirrors the stats counters into an
	// obs.Registry (see NewLinkMetrics). Nil keeps the link unmetered.
	Metrics *LinkMetrics

	// Trace, if non-nil, receives a span event per dropped packet, stamped
	// with the simulated time and drop reason. The span's event cap bounds
	// the cost on lossy runs; nil keeps the drop path allocation-free.
	Trace *trace.Span

	busyUntil   Time
	lastArrival Time
	stats       LinkStats

	// fifo is the ring of packets in flight, in arrival order; only its
	// head has an event queued on the Sim.
	fifo  []inflight
	head  int
	count int
}

// inflight is one packet on the wire with the event key its delivery
// reserved in Send.
type inflight struct {
	at  Time
	seq uint64
	pkt *Packet
}

// enqueue appends to the in-flight ring, doubling it when full.
func (l *Link) enqueue(f inflight) {
	if l.count == len(l.fifo) {
		grown := make([]inflight, max(8, 2*len(l.fifo)))
		n := copy(grown, l.fifo[l.head:])
		copy(grown[n:], l.fifo[:l.head])
		l.fifo, l.head = grown, 0
	}
	l.fifo[(l.head+l.count)&(len(l.fifo)-1)] = f
	l.count++
}

// fire delivers the head packet and queues the next one's event. Delivery
// goes through the Sim that popped the event.
func (l *Link) fire(s *Sim, _ Time, _ uint64) {
	p := l.fifo[l.head].pkt
	l.fifo[l.head].pkt = nil
	l.head = (l.head + 1) & (len(l.fifo) - 1)
	l.count--
	if l.count > 0 {
		next := &l.fifo[l.head]
		s.behind--
		s.push(event{at: next.at, seq: next.seq, src: l})
	}
	l.Dst.Handle(s, p)
}

// traceDrop records a packet drop on the link's trace span, if any.
func (l *Link) traceDrop(now Time, p *Packet, reason string) {
	if l.Trace == nil {
		return
	}
	l.Trace.Event("link.drop",
		trace.Str("link", l.Name),
		trace.Str("reason", reason),
		trace.Int("size", int64(p.Size)),
		trace.Str("sim_t", now.String()))
}

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// ResetStats zeroes the link's counters.
func (l *Link) ResetStats() { l.stats = LinkStats{} }

// QueueDelay returns the current backlog ahead of a new arrival.
func (l *Link) QueueDelay(now Time) Time {
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil - now
}

// rate returns the effective transmission rate at the given time.
func (l *Link) rate(now Time) float64 {
	if l.RateFn != nil {
		if r := l.RateFn(now); r > 0 {
			return r
		}
	}
	return l.RateBps
}

// Send transmits the packet over the link, applying loss, the drop-tail
// queue, serialisation delay, and propagation delay. Delivery is scheduled
// on the simulator in the order a Schedule call made here would get.
func (l *Link) Send(s *Sim, p *Packet) {
	if l.Dst == nil {
		panic(fmt.Sprintf("netsim: link %q has no destination", l.Name))
	}
	now := s.Now()
	if l.LossFn != nil && l.LossFn(now, p) {
		l.stats.DroppedPackets++
		l.stats.DroppedBytes += int64(p.Size)
		l.stats.LossDropped++
		l.Metrics.dropped(true)
		l.traceDrop(now, p, "loss")
		return
	}

	rate := l.rate(now)
	var txTime Time
	if rate > 0 {
		txTime = Time(float64(p.Size*8) / rate * float64(time.Second))
	}

	// Backlog in bytes implied by the busy period.
	if l.QueueByte > 0 && rate > 0 {
		backlog := int(l.QueueDelay(now).Seconds() * rate / 8)
		if backlog+p.Size > l.QueueByte {
			l.stats.DroppedPackets++
			l.stats.DroppedBytes += int64(p.Size)
			l.Metrics.dropped(false)
			l.traceDrop(now, p, "queue")
			return
		}
	}

	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	depart := start + txTime
	l.busyUntil = depart

	extra := Time(0)
	if l.DelayFn != nil {
		extra = l.DelayFn(now)
		if extra < 0 {
			extra = 0
		}
	}
	arrive := depart + l.Delay + extra
	// A FIFO link cannot reorder: a packet whose jitter draw would overtake
	// an earlier packet queues behind it instead.
	if arrive < l.lastArrival {
		arrive = l.lastArrival
	}
	l.lastArrival = arrive

	l.stats.SentPackets++
	l.stats.SentBytes += int64(p.Size)
	l.Metrics.sent(p.Size, depart-now)
	// Arrivals never decrease, so delivery keys do not either: reserve this
	// packet's key now and queue an event only when it is the ring's head.
	at, seq := s.reserve(arrive)
	l.enqueue(inflight{at: at, seq: seq, pkt: p})
	if l.count == 1 {
		s.push(event{at: at, seq: seq, src: l})
	} else {
		s.behind++
	}
}

// Node is a router/host. It forwards packets by destination name, decrements
// TTL and emits ICMP time-exceeded replies, and delivers packets addressed
// to itself to per-port local handlers.
type Node struct {
	Name string
	// HopAddr is the address string the node reveals in ICMP replies, e.g.
	// "ae29.londhx-sbr1.ja.net" in the paper's Figure 5.
	HopAddr string

	routes   map[string]*Link // destination node -> next link
	defRoute *Link
	locals   map[int]Handler // port -> endpoint

	// ICMPDelay simulates router control-plane processing time for ICMP
	// generation (often slower than forwarding).
	ICMPDelay Time
	// Mute suppresses the node's ICMP replies (time-exceeded and echo):
	// many production routers rate-limit or disable ICMP generation, which
	// is why real traceroutes show "*" hops.
	Mute bool
}

// NewNode creates a node. hopAddr may be empty, in which case the name is
// used in ICMP replies.
func NewNode(name, hopAddr string) *Node {
	if hopAddr == "" {
		hopAddr = name
	}
	return &Node{
		Name:    name,
		HopAddr: hopAddr,
		routes:  make(map[string]*Link),
		locals:  make(map[int]Handler),
	}
}

// AddRoute installs the next-hop link towards the destination node.
func (n *Node) AddRoute(dst string, l *Link) { n.routes[dst] = l }

// SetDefaultRoute installs the link used when no specific route matches.
func (n *Node) SetDefaultRoute(l *Link) { n.defRoute = l }

// RegisterLocal attaches an endpoint handler to a local port.
func (n *Node) RegisterLocal(port int, h Handler) { n.locals[port] = h }

// UnregisterLocal detaches the endpoint at the port.
func (n *Node) UnregisterLocal(port int) { delete(n.locals, port) }

// route returns the link toward dst, or nil.
func (n *Node) route(dst string) *Link {
	if l, ok := n.routes[dst]; ok {
		return l
	}
	return n.defRoute
}

// Handle implements Handler: local delivery, TTL handling, and forwarding.
func (n *Node) Handle(s *Sim, p *Packet) {
	if p.Dst == n.Name {
		if h, ok := n.locals[p.DstPort]; ok {
			h.Handle(s, p)
		}
		// Packets to unknown ports are silently dropped, as on a host with
		// no listener (probes to high ports rely on this).
		if p.ICMP == ICMPEcho {
			n.replyEcho(s, p)
		}
		return
	}

	// A node originating its own packet acts as a host, not a router: it
	// does not decrement the TTL it just set.
	if p.TTL > 0 && p.Src != n.Name {
		p.TTL--
		if p.TTL == 0 {
			n.replyTimeExceeded(s, p)
			return
		}
	}

	l := n.route(p.Dst)
	if l == nil {
		return // no route: drop
	}
	l.Send(s, p)
}

// replyTimeExceeded sends an ICMP time-exceeded message back to the source.
func (n *Node) replyTimeExceeded(s *Sim, orig *Packet) {
	back := n.route(orig.Src)
	if back == nil || n.Mute {
		return
	}
	reply := &Packet{
		ID:       s.NextPacketID(),
		Size:     56, // ICMP time-exceeded with quoted header
		Src:      n.Name,
		Dst:      orig.Src,
		DstPort:  orig.SrcPort,
		TTL:      64,
		ICMP:     ICMPTimeExceeded,
		ICMPFrom: n.HopAddr,
		ProbeID:  orig.ProbeID,
		SentAt:   orig.SentAt,
	}
	s.Schedule(n.ICMPDelay, func() { back.Send(s, reply) })
}

// replyEcho answers a ping.
func (n *Node) replyEcho(s *Sim, orig *Packet) {
	back := n.route(orig.Src)
	if back == nil || n.Mute {
		return
	}
	reply := &Packet{
		ID:       s.NextPacketID(),
		Size:     orig.Size,
		Src:      n.Name,
		Dst:      orig.Src,
		DstPort:  orig.SrcPort,
		TTL:      64,
		ICMP:     ICMPEchoReply,
		ICMPFrom: n.HopAddr,
		ProbeID:  orig.ProbeID,
		SentAt:   orig.SentAt,
	}
	s.Schedule(n.ICMPDelay, func() { back.Send(s, reply) })
}
