package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// The reference engine below is the event core as it was before the queue
// was made shallow: a container/heap of *refEvent, one closure per
// scheduled callback, one closure per packet per hop, and timers that leave
// one stale event per arm. It exists only so TestEngineMatchesReference can
// demand that the real engine runs every callback at the same simulated
// time and in the same order.

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refSim struct {
	now Time
	seq uint64
	pq  refHeap
	rng *rand.Rand
}

func (s *refSim) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.ScheduleAt(s.now+delay, fn)
}

func (s *refSim) ScheduleAt(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.pq, &refEvent{at: at, seq: s.seq, fn: fn})
}

func (s *refSim) Run() {
	for len(s.pq) > 0 {
		e := heap.Pop(&s.pq).(*refEvent)
		s.now = e.at
		e.fn()
	}
}

func (s *refSim) RunUntil(t Time) {
	for len(s.pq) > 0 && s.pq[0].at <= t {
		e := heap.Pop(&s.pq).(*refEvent)
		s.now = e.at
		e.fn()
	}
	if s.now < t {
		s.now = t
	}
}

// refLink is the reference Link.Send: drop-tail backlog, FIFO clamp, and a
// closure per packet scheduled at its arrival.
type refLink struct {
	RateBps   float64
	Delay     Time
	QueueByte int
	DelayFn   func(now Time) Time
	LossFn    func(now Time, p *Packet) bool
	dst       func(p *Packet)

	busyUntil   Time
	lastArrival Time
}

func (l *refLink) Send(s *refSim, p *Packet) {
	now := s.now
	if l.LossFn != nil && l.LossFn(now, p) {
		return
	}
	rate := l.RateBps
	var txTime Time
	if rate > 0 {
		txTime = Time(float64(p.Size*8) / rate * float64(time.Second))
	}
	if l.QueueByte > 0 && rate > 0 {
		var q Time
		if l.busyUntil > now {
			q = l.busyUntil - now
		}
		if int(q.Seconds()*rate/8)+p.Size > l.QueueByte {
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
		if extra = l.DelayFn(now); extra < 0 {
			extra = 0
		}
	}
	arrive := depart + l.Delay + extra
	if arrive < l.lastArrival {
		arrive = l.lastArrival
	}
	l.lastArrival = arrive
	s.ScheduleAt(arrive, func() { l.dst(p) })
}

// refTimer is the epoch-invalidated timer the RTO used to be: every arm
// schedules a fresh event and stale ones pop as no-ops.
type refTimer struct {
	s      *refSim
	fn     func()
	epoch  uint64
	armed  bool
	queued int // events scheduled by this timer and not yet popped
}

func (t *refTimer) Arm(d Time) {
	t.epoch++
	epoch := t.epoch
	t.armed = true
	t.queued++
	t.s.Schedule(d, func() {
		t.queued--
		if epoch == t.epoch && t.armed {
			t.armed = false
			t.fn()
		}
	})
}

func (t *refTimer) Stop() { t.armed = false }

// engine is what the order script drives: the real Sim or the reference.
type engine interface {
	now() Time
	rand() *rand.Rand
	schedule(d Time, fn func())
	series(n int, gap Time, fn func())
	send(hop int, p *Packet)
	arm(timer int, d Time)
	stop(timer int)
	pending() int
	runUntil(t Time)
	run()
}

const (
	scriptHops   = 3
	scriptTimers = 3
)

// scriptLink returns hop's link parameters. Hop 0 is a slow, lossy,
// jittery drop-tail access link; hop 1 a faster jittery link; hop 2 is
// infinitely fast with no delay, so its deliveries tie with whatever else
// is due at the same instant.
func scriptLink(hop int, rng *rand.Rand) (rate float64, delay Time, queue int, delayFn func(Time) Time, lossFn func(Time, *Packet) bool) {
	switch hop {
	case 0:
		return 10e6, 2 * time.Millisecond, 6000,
			func(Time) Time { return time.Duration(rng.Intn(2000)) * time.Microsecond },
			func(Time, *Packet) bool { return rng.Float64() < 0.05 }
	case 1:
		return 50e6, time.Millisecond, 0,
			func(Time) Time {
				if rng.Intn(4) == 0 {
					return time.Duration(rng.Intn(3000)) * time.Microsecond
				}
				return 0
			}, nil
	default:
		return 0, 0, 0, nil, nil
	}
}

type realEngine struct {
	sim    *Sim
	links  []*Link
	timers []*Timer
}

func newRealEngine(t *testing.T, seed int64, deliver func(hop int, p *Packet), fire func(i int)) *realEngine {
	e := &realEngine{sim: NewSim(seed)}
	for hop := 0; hop < scriptHops; hop++ {
		hop := hop
		rate, delay, queue, delayFn, lossFn := scriptLink(hop, e.sim.Rand())
		e.links = append(e.links, &Link{
			Name: fmt.Sprintf("hop%d", hop), RateBps: rate, Delay: delay, QueueByte: queue,
			DelayFn: delayFn, LossFn: lossFn,
			Dst: HandlerFunc(func(s *Sim, p *Packet) {
				if s != e.sim {
					t.Errorf("hop %d delivered through a different Sim", hop)
				}
				deliver(hop, p)
			}),
		})
	}
	for i := 0; i < scriptTimers; i++ {
		i := i
		e.timers = append(e.timers, e.sim.NewTimer(func() { fire(i) }))
	}
	return e
}

func (e *realEngine) now() Time                         { return e.sim.Now() }
func (e *realEngine) rand() *rand.Rand                  { return e.sim.Rand() }
func (e *realEngine) schedule(d Time, fn func())        { e.sim.Schedule(d, fn) }
func (e *realEngine) series(n int, gap Time, fn func()) { e.sim.ScheduleSeries(n, gap, fn) }
func (e *realEngine) send(hop int, p *Packet)           { e.links[hop].Send(e.sim, p) }
func (e *realEngine) arm(i int, d Time)                 { e.timers[i].Arm(d) }
func (e *realEngine) stop(i int)                        { e.timers[i].Stop() }
func (e *realEngine) pending() int                      { return e.sim.Pending() }
func (e *realEngine) runUntil(t Time)                   { e.sim.RunUntil(t) }
func (e *realEngine) run()                              { e.sim.Run() }

type refEngine struct {
	sim    *refSim
	links  []*refLink
	timers []*refTimer
}

func newRefEngine(seed int64, deliver func(hop int, p *Packet), fire func(i int)) *refEngine {
	e := &refEngine{sim: &refSim{rng: rand.New(rand.NewSource(seed))}}
	for hop := 0; hop < scriptHops; hop++ {
		hop := hop
		rate, delay, queue, delayFn, lossFn := scriptLink(hop, e.sim.rng)
		e.links = append(e.links, &refLink{
			RateBps: rate, Delay: delay, QueueByte: queue, DelayFn: delayFn, LossFn: lossFn,
			dst: func(p *Packet) { deliver(hop, p) },
		})
	}
	for i := 0; i < scriptTimers; i++ {
		i := i
		e.timers = append(e.timers, &refTimer{s: e.sim, fn: func() { fire(i) }})
	}
	return e
}

func (e *refEngine) now() Time                  { return e.sim.now }
func (e *refEngine) rand() *rand.Rand           { return e.sim.rng }
func (e *refEngine) schedule(d Time, fn func()) { e.sim.Schedule(d, fn) }
func (e *refEngine) series(n int, gap Time, fn func()) {
	for i := 0; i < n; i++ {
		e.sim.Schedule(time.Duration(i)*gap, fn)
	}
}
func (e *refEngine) send(hop int, p *Packet) { e.links[hop].Send(e.sim, p) }
func (e *refEngine) arm(i int, d Time)       { e.timers[i].Arm(d) }
func (e *refEngine) stop(i int)              { e.timers[i].Stop() }
func (e *refEngine) runUntil(t Time)         { e.sim.RunUntil(t) }
func (e *refEngine) run()                    { e.sim.Run() }

// pending counts the callbacks still to run: queued events minus the stale
// timer events that will pop as no-ops.
func (e *refEngine) pending() int {
	n := len(e.sim.pq)
	for _, t := range e.timers {
		n -= t.queued
		if t.armed {
			n++
		}
	}
	return n
}

// step is one callback in a trace: when it ran, what it was, and how many
// callbacks the engine reported still pending.
type step struct {
	at      Time
	id      string
	pending int
}

// orderScript drives an engine with a random program. Every choice is drawn
// from the engine's own random source inside callbacks, so two engines that
// run callbacks in the same order make the same choices; any divergence in
// order shows up as a different trace.
type orderScript struct {
	e      engine
	budget int // actions left to take
	ids    int
	trace  []step
}

func (sc *orderScript) record(id string) {
	sc.trace = append(sc.trace, step{at: sc.e.now(), id: id, pending: sc.e.pending()})
}

func (sc *orderScript) nextID() int { sc.ids++; return sc.ids }

// delay draws from a small set of values so that instants coincide often.
func (sc *orderScript) delay() Time {
	rng := sc.e.rand()
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return time.Millisecond
	case 2:
		return time.Duration(rng.Intn(4)) * 500 * time.Microsecond
	default:
		return time.Duration(rng.Intn(20000)) * time.Microsecond
	}
}

func (sc *orderScript) deliver(hop int, p *Packet) {
	sc.record(fmt.Sprintf("pkt %d @%d", p.ID, hop))
	if hop+1 < scriptHops {
		sc.e.send(hop+1, p)
		return
	}
	sc.act()
}

func (sc *orderScript) fire(i int) {
	sc.record(fmt.Sprintf("timer %d", i))
	sc.act()
}

// act takes one to three random actions while the budget lasts.
func (sc *orderScript) act() {
	rng := sc.e.rand()
	for k := 1 + rng.Intn(3); k > 0 && sc.budget > 0; k-- {
		sc.budget--
		switch rng.Intn(7) {
		case 0, 1: // plain callback, often tied with others
			id := fmt.Sprintf("cb %d", sc.nextID())
			sc.e.schedule(sc.delay(), func() { sc.record(id); sc.act() })
		case 2: // a burst of packets into the first hop
			for n := 1 + rng.Intn(12); n > 0; n-- {
				sc.e.send(0, &Packet{ID: uint64(sc.nextID()), Size: 100 + rng.Intn(1400)})
			}
		case 3: // one packet entering mid-path
			sc.e.send(1+rng.Intn(scriptHops-1), &Packet{ID: uint64(sc.nextID()), Size: 100 + rng.Intn(1400)})
		case 4: // arm or re-arm (earlier or later than the live deadline)
			sc.e.arm(rng.Intn(scriptTimers), sc.delay())
		case 5:
			sc.e.stop(rng.Intn(scriptTimers))
		case 6:
			id, calls := sc.nextID(), 0
			gap := sc.delay() / Time(1+rng.Intn(4))
			sc.e.series(1+rng.Intn(10), gap, func() {
				calls++
				sc.record(fmt.Sprintf("series %d #%d", id, calls))
				if rng.Intn(3) == 0 {
					sc.act()
				}
			})
		}
	}
}

// runScript plays the program on one engine: a few tied starting actions,
// then RunUntil in random steps, then Run to drain.
func runScript(sc *orderScript) []step {
	sc.act()
	sc.act()
	rng := sc.e.rand()
	for t := Time(0); t < 200*time.Millisecond; {
		t += time.Duration(rng.Intn(30)) * time.Millisecond
		sc.e.runUntil(t)
		sc.record("until")
	}
	sc.e.run()
	sc.record("drained")
	return sc.trace
}

// TestEngineMatchesReference drives the engine and the reference with the
// same random scripts — Schedule ties, multi-hop Link.Send with DelayFn
// jitter, LossFn and drop-tail queues, timer arm/re-arm/stop, and
// ScheduleSeries — and demands identical (time, callback, pending) traces.
func TestEngineMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		eng := &orderScript{budget: 300}
		eng.e = newRealEngine(t, seed, eng.deliver, eng.fire)
		ref := &orderScript{budget: 300}
		ref.e = newRefEngine(seed, ref.deliver, ref.fire)
		got, want := runScript(eng), runScript(ref)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Logf("seed %d: step %d = %+v, reference %+v", seed, i, got[i], want[i])
				return false
			}
		}
		if len(got) != len(want) {
			t.Logf("seed %d: %d steps, reference %d", seed, len(got), len(want))
			return false
		}
		if p := eng.e.pending(); p != 0 {
			t.Logf("seed %d: %d pending after Run", seed, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
