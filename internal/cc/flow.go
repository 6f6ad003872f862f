package cc

import (
	"fmt"
	"sync/atomic"
	"time"

	"starlinkview/internal/netsim"
)

// Flow default parameters.
const (
	// DefaultMSS is the segment payload size used by the study's bulk
	// transfers (1500-byte MTU minus IP/TCP headers).
	DefaultMSS = 1448
	// headerBytes approximates IP+TCP header overhead on the wire.
	headerBytes = 52
	// ackSize is the wire size of a pure ack.
	ackSize = 64
	// minRTO is the floor for the retransmission timeout.
	minRTO = 200 * time.Millisecond
	// maxBurst caps how many segments a window-based sender may emit
	// back-to-back when not pacing, like Linux's TSQ burst cap.
	maxBurst = 64
	// sackLossThresholdSegs: recovery starts once this many segments' worth
	// of data is SACKed above the cumulative ack (RFC 6675 DupThresh).
	sackLossThresholdSegs = 3
)

// FlowConfig configures one bulk-transfer flow over a netsim path.
type FlowConfig struct {
	Algorithm Algorithm
	MSS       int // segment payload bytes; DefaultMSS if zero
	// LimitBytes stops the transfer after this much application data;
	// 0 means run until Stop (iperf-style).
	LimitBytes int64
	SrcPort    int
	DstPort    int
	// Reverse runs the transfer from the path's server to its client — the
	// download direction of a speedtest.
	Reverse bool
}

// FlowStats summarises a finished (or running) flow.
type FlowStats struct {
	DeliveredBytes int64 // cumulatively acked application bytes
	SentPackets    int
	RetransPackets int
	Timeouts       int
	FastRecoveries int
	Duration       time.Duration // time of last cumulative-ack advance
	MinRTT         time.Duration
	SRTT           time.Duration
}

// GoodputBps returns the delivered application-layer rate in bits/second.
func (st FlowStats) GoodputBps() float64 {
	if st.Duration <= 0 {
		return 0
	}
	return float64(st.DeliveredBytes*8) / st.Duration.Seconds()
}

// rangeSet is a sorted list of disjoint half-open byte ranges with
// merge-on-insert. The receiver uses one for out-of-order data; the sender
// uses one as its retransmission scoreboard.
type rangeSet struct {
	rs []netsim.SackBlock
}

// add inserts [start, end), merging overlapping or adjacent ranges. It never
// writes into the existing backing array, so a slice of s.rs handed out
// earlier (an ack's SACK blocks) stays valid.
func (s *rangeSet) add(start, end int64) {
	if end <= start {
		return
	}
	out := make([]netsim.SackBlock, 0, len(s.rs)+1)
	placed := false
	for _, r := range s.rs {
		switch {
		case r.End < start: // strictly before, not adjacent
			out = append(out, r)
		case r.Start > end: // strictly after, not adjacent
			if !placed {
				out = append(out, netsim.SackBlock{Start: start, End: end})
				placed = true
			}
			out = append(out, r)
		default: // overlaps or touches: absorb
			if r.Start < start {
				start = r.Start
			}
			if r.End > end {
				end = r.End
			}
		}
	}
	if !placed {
		out = append(out, netsim.SackBlock{Start: start, End: end})
	}
	s.rs = out
}

// trimBelow removes all bytes below the watermark. It rewrites s.rs in
// place, so it is only for sets whose slices are never handed out.
func (s *rangeSet) trimBelow(mark int64) {
	out := s.rs[:0]
	for _, r := range s.rs {
		if r.End <= mark {
			continue
		}
		if r.Start < mark {
			r.Start = mark
		}
		out = append(out, r)
	}
	s.rs = out
}

// covers reports whether the byte at off is inside the set.
func (s *rangeSet) covers(off int64) bool {
	for _, r := range s.rs {
		if off >= r.Start && off < r.End {
			return true
		}
	}
	return false
}

// total returns the number of bytes in the set.
func (s *rangeSet) total() int64 {
	var n int64
	for _, r := range s.rs {
		n += r.End - r.Start
	}
	return n
}

func (s *rangeSet) clear() { s.rs = s.rs[:0] }

// Flow is a unidirectional bulk TCP-like transfer: a sender on the client
// node, a receiver on the server node, cumulative acks with idealised SACK,
// RFC 6675-style loss recovery with pipe accounting, an RTO timer, and
// optional pacing (BBR).
type Flow struct {
	sim  *netsim.Sim
	path *netsim.Path
	cfg  FlowConfig
	algo Algorithm
	mss  int
	id   uint64
	snd  *netsim.Node // sending endpoint
	rcv  *netsim.Node // receiving endpoint

	// Sender state.
	una         int64 // oldest unacked byte
	nextSeq     int64 // next new byte to send
	delivered   int64 // cumulative delivered bytes (rate sampling)
	deliveredAt time.Duration
	dupAcks     int
	inRecovery  bool
	rtoRecovery bool  // current recovery was triggered by an RTO
	recover     int64 // recovery point: nextSeq at loss detection

	// SACK scoreboard (sender view, refreshed from each ack).
	sacked        rangeSet // bytes received above una
	retransmitted rangeSet // bytes retransmitted this recovery, not yet acked
	highestSacked int64
	// markedLostUpTo extends the repair horizon after an RTO, when all
	// outstanding data is presumed lost regardless of SACK state.
	markedLostUpTo int64

	// RTT estimation (RFC 6298).
	srtt   time.Duration
	rttvar time.Duration
	minRTT time.Duration

	// Pacing.
	nextSendAt    time.Duration
	sendScheduled bool
	sendFn        func() // the scheduled trySend, built once

	rtoTimer *netsim.Timer

	// Receiver state.
	rcvNext int64    // next expected byte
	rcvOOO  rangeSet // out-of-order data

	stats   FlowStats
	stopped bool
	// OnDone, if set, is called once when LimitBytes have been delivered.
	OnDone func()
}

// flowIDs is atomic because studies run independent simulations (each with
// its own flows) on concurrent goroutines. The id is a diagnostic tag on
// emitted packets — nothing routes or branches on it — so the assignment
// order cannot affect results.
var flowIDs atomic.Uint64

// NewFlow creates a flow from the path's client to its server and registers
// both endpoints. Start must be called to begin transmission.
func NewFlow(sim *netsim.Sim, path *netsim.Path, cfg FlowConfig) (*Flow, error) {
	if cfg.Algorithm == nil {
		return nil, fmt.Errorf("cc: flow needs an algorithm")
	}
	if cfg.MSS == 0 {
		cfg.MSS = DefaultMSS
	}
	if cfg.MSS <= 0 {
		return nil, fmt.Errorf("cc: invalid MSS %d", cfg.MSS)
	}
	if cfg.SrcPort == 0 {
		cfg.SrcPort = 40000
	}
	if cfg.DstPort == 0 {
		cfg.DstPort = 5201
	}
	f := &Flow{
		sim:  sim,
		path: path,
		cfg:  cfg,
		algo: cfg.Algorithm,
		mss:  cfg.MSS,
		id:   flowIDs.Add(1),
	}
	f.algo.Init(f.mss)
	f.sendFn = func() {
		f.sendScheduled = false
		f.trySend()
	}
	f.rtoTimer = sim.NewTimer(f.onTimeout)
	f.snd, f.rcv = path.Client(), path.Server()
	if cfg.Reverse {
		f.snd, f.rcv = f.rcv, f.snd
	}
	f.snd.RegisterLocal(cfg.SrcPort, netsim.HandlerFunc(f.handleAck))
	f.rcv.RegisterLocal(cfg.DstPort, netsim.HandlerFunc(f.handleData))
	return f, nil
}

// Start begins the transfer at the current simulated time.
func (f *Flow) Start() {
	f.deliveredAt = f.sim.Now()
	f.trySend()
	f.armRTO()
}

// Stop halts the sender; in-flight packets still drain.
func (f *Flow) Stop() {
	f.stopped = true
	f.rtoTimer.Stop()
}

// Stats returns a snapshot of the flow's statistics.
func (f *Flow) Stats() FlowStats { return f.stats }

// Algorithm returns the flow's congestion controller.
func (f *Flow) Algorithm() Algorithm { return f.algo }

// pipe estimates the bytes actually in flight per RFC 6675: raw outstanding
// minus SACKed minus presumed-lost holes, plus retransmissions still out.
func (f *Flow) pipe() int {
	raw := f.nextSeq - f.una
	holes := f.holeBytes()
	p := raw - f.sacked.total() - holes + f.retransmitted.total()
	if p < 0 {
		p = 0
	}
	return int(p)
}

// repairTo returns the upper bound of the presumed-lost region: the highest
// SACKed byte normally, or the whole outstanding window after an RTO.
func (f *Flow) repairTo() int64 {
	if f.markedLostUpTo > f.highestSacked {
		return f.markedLostUpTo
	}
	return f.highestSacked
}

// holeBytes returns the bytes between una and the repair horizon not covered
// by SACK — the presumed-lost data.
func (f *Flow) holeBytes() int64 {
	to := f.repairTo()
	if to <= f.una {
		return 0
	}
	h := to - f.una - f.sacked.total()
	if h < 0 {
		h = 0
	}
	return h
}

// rto returns the current retransmission timeout per RFC 6298.
func (f *Flow) rto() time.Duration {
	if f.srtt == 0 {
		return time.Second
	}
	rto := f.srtt + 4*f.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	return rto
}

// armRTO (re)arms the retransmission timer.
func (f *Flow) armRTO() { f.rtoTimer.Arm(f.rto()) }

// trySend transmits retransmissions and new data as the window and pacing
// rate allow. Retransmissions take priority and are paced like everything
// else, so loss repair cannot itself flood the bottleneck.
func (f *Flow) trySend() {
	if f.stopped || f.sendScheduled {
		return
	}
	pacing := f.algo.PacingRate()
	burst := 0
	for {
		if pacing > 0 && f.sim.Now() < f.nextSendAt {
			f.scheduleSend(f.nextSendAt - f.sim.Now())
			return
		}
		size, ok := f.sendOne()
		if !ok {
			return
		}
		if pacing > 0 {
			gap := time.Duration(float64(size+headerBytes) / pacing * float64(time.Second))
			if f.nextSendAt < f.sim.Now() {
				f.nextSendAt = f.sim.Now()
			}
			f.nextSendAt += gap
		} else {
			burst++
			if burst >= maxBurst {
				// Yield to the event loop to avoid unbounded bursts.
				f.scheduleSend(0)
				return
			}
		}
	}
}

// sendOne emits the single most urgent segment (a lost hole first, then new
// data) if it fits in the window. It returns the bytes sent.
func (f *Flow) sendOne() (int, bool) {
	if f.stopped {
		return 0, false
	}
	cwnd := f.algo.Cwnd()
	if f.inRecovery {
		if start, end, ok := f.nextHole(); ok {
			if f.pipe()+int(end-start) > cwnd {
				return 0, false
			}
			f.sendSegment(start, int(end-start), true)
			f.retransmitted.add(start, end)
			return int(end - start), true
		}
	}
	if f.cfg.LimitBytes > 0 && f.nextSeq >= f.cfg.LimitBytes {
		return 0, false
	}
	size := f.segmentSize()
	if f.pipe()+size > cwnd {
		return 0, false
	}
	f.sendSegment(f.nextSeq, size, false)
	f.nextSeq += int64(size)
	return size, true
}

// nextHole returns the next presumed-lost byte range to retransmit (at most
// one MSS), or ok=false when every hole is repaired or already in flight.
// Both range sets are sorted, so a single merge-scan finds the first gap.
func (f *Flow) nextHole() (start, end int64, ok bool) {
	to := f.repairTo()
	off := f.una
	i, j := 0, 0
	sr, rr := f.sacked.rs, f.retransmitted.rs
	for off < to {
		covered := false
		for i < len(sr) && sr[i].End <= off {
			i++
		}
		if i < len(sr) && sr[i].Start <= off {
			off = sr[i].End
			covered = true
		}
		for j < len(rr) && rr[j].End <= off {
			j++
		}
		if j < len(rr) && rr[j].Start <= off {
			off = rr[j].End
			covered = true
		}
		if covered {
			continue
		}
		end = off + int64(f.mss)
		if end > to {
			end = to
		}
		if i < len(sr) && sr[i].Start < end {
			end = sr[i].Start
		}
		if j < len(rr) && rr[j].Start < end {
			end = rr[j].Start
		}
		return off, end, true
	}
	return 0, 0, false
}

// segmentSize returns the next segment's payload size, trimmed at the
// application limit.
func (f *Flow) segmentSize() int {
	size := f.mss
	if f.cfg.LimitBytes > 0 {
		if rem := f.cfg.LimitBytes - f.nextSeq; rem < int64(size) {
			size = int(rem)
		}
	}
	return size
}

func (f *Flow) scheduleSend(d time.Duration) {
	f.sendScheduled = true
	f.sim.Schedule(d, f.sendFn)
}

// sendSegment emits one data segment.
func (f *Flow) sendSegment(seq int64, size int, retrans bool) {
	p := &netsim.Packet{
		ID:          f.sim.NextPacketID(),
		Flow:        f.id,
		Size:        size + headerBytes,
		Src:         f.snd.Name,
		Dst:         f.rcv.Name,
		SrcPort:     f.cfg.SrcPort,
		DstPort:     f.cfg.DstPort,
		TTL:         64,
		Seq:         seq,
		SentAt:      f.sim.Now(),
		Delivered:   f.delivered,
		DeliveredAt: f.deliveredAt,
		Retrans:     retrans,
	}
	f.stats.SentPackets++
	if retrans {
		f.stats.RetransPackets++
	}
	f.snd.Handle(f.sim, p)
}

// handleData runs on the server: reassemble, advance rcvNext, and ack with
// the full out-of-order state.
func (f *Flow) handleData(s *netsim.Sim, p *netsim.Packet) {
	if p.IsAck || p.ICMP != netsim.ICMPNone {
		return
	}
	payload := p.Size - headerBytes
	end := p.Seq + int64(payload)
	if p.Seq > f.rcvNext {
		f.rcvOOO.add(p.Seq, end)
	} else if end > f.rcvNext {
		// In order: every held range starts above rcvNext, so advancing
		// it directly equals adding [rcvNext, end) and consuming the
		// merged prefix below, without the add's allocation.
		f.rcvNext = end
	}
	// Advance over any now-contiguous prefix. Reslicing never writes, so
	// the SACK blocks of acks already sent stay intact.
	for len(f.rcvOOO.rs) > 0 && f.rcvOOO.rs[0].Start <= f.rcvNext {
		if f.rcvOOO.rs[0].End > f.rcvNext {
			f.rcvNext = f.rcvOOO.rs[0].End
		}
		f.rcvOOO.rs = f.rcvOOO.rs[1:]
	}

	ack := &netsim.Packet{
		ID:          s.NextPacketID(),
		Flow:        f.id,
		Size:        ackSize,
		Src:         f.rcv.Name,
		Dst:         f.snd.Name,
		SrcPort:     f.cfg.DstPort,
		DstPort:     f.cfg.SrcPort,
		TTL:         64,
		IsAck:       true,
		Ack:         f.rcvNext,
		Sack:        f.rcvOOO.rs, // shared: rcvOOO only ever adds or reslices
		Seq:         p.Seq,
		SentAt:      p.SentAt, // timestamp echo
		Delivered:   p.Delivered,
		DeliveredAt: p.DeliveredAt,
		Retrans:     p.Retrans,
	}
	f.rcv.Handle(s, ack)
}

// handleAck runs on the client.
func (f *Flow) handleAck(s *netsim.Sim, p *netsim.Packet) {
	if !p.IsAck || f.stopped {
		return
	}
	now := s.Now()

	// RTT sample (Karn's rule: never from retransmitted segments).
	var rtt time.Duration
	if !p.Retrans && p.SentAt > 0 {
		rtt = now - p.SentAt
		f.updateRTT(rtt)
	}

	// Refresh the scoreboard from the receiver's authoritative state. The
	// receiver reports sorted, disjoint blocks, so they can be installed
	// directly — re-merging them per ack would be quadratic in the number
	// of holes, which BBR's large inflight makes pathological.
	f.sacked.rs = append(f.sacked.rs[:0], p.Sack...)
	f.highestSacked = f.una
	for _, b := range p.Sack {
		if b.End > f.highestSacked {
			f.highestSacked = b.End
		}
	}

	advanced := p.Ack > f.una
	if advanced {
		acked := int(p.Ack - f.una)
		f.una = p.Ack
		f.delivered += int64(acked)
		f.deliveredAt = now
		f.stats.DeliveredBytes = f.delivered
		f.stats.Duration = now
		f.dupAcks = 0
		f.sacked.trimBelow(f.una)
		f.retransmitted.trimBelow(f.una)
		if f.highestSacked < f.una {
			f.highestSacked = f.una
		}

		if f.markedLostUpTo < f.una {
			f.markedLostUpTo = f.una
		}
		if f.inRecovery && p.Ack >= f.recover {
			f.inRecovery = false
			f.rtoRecovery = false
			f.retransmitted.clear()
			f.markedLostUpTo = f.una
		}

		// Delivery-rate sample for BBR. Acks of retransmissions are
		// excluded: a retransmission that fills a hole releases a burst of
		// long-buffered bytes at once, which would wildly inflate the rate.
		var rate float64
		if !p.Retrans {
			if interval := now - p.DeliveredAt; interval > 0 {
				rate = float64(f.delivered-p.Delivered) / interval.Seconds()
			}
		}
		f.algo.OnAck(AckEvent{
			Now:            now,
			RTT:            rtt,
			MinRTT:         f.minRTT,
			AckedBytes:     acked,
			Inflight:       f.pipe(),
			DeliveryRate:   rate,
			TotalDelivered: f.delivered,
			MSS:            f.mss,
			// RTO recovery slow-starts like normal TCP; only fast recovery
			// freezes the window.
			InRecovery: f.inRecovery && !f.rtoRecovery,
		})

		if f.cfg.LimitBytes > 0 && f.una >= f.cfg.LimitBytes {
			f.stopped = true
			f.rtoTimer.Stop()
			if f.OnDone != nil {
				f.OnDone()
			}
			return
		}
		f.armRTO()
	} else {
		f.dupAcks++
	}

	// Loss detection: enough SACKed data above the cumulative ack, or the
	// classic three duplicate acks.
	lost := f.sacked.total() > int64(sackLossThresholdSegs*f.mss) || f.dupAcks >= 3
	if !f.inRecovery && lost && f.holeBytes() > 0 {
		f.enterRecovery(now, rtt)
	}
	f.trySend()
}

// enterRecovery tells the algorithm about the loss and starts SACK-based
// retransmission.
func (f *Flow) enterRecovery(now, rtt time.Duration) {
	f.inRecovery = true
	f.recover = f.nextSeq
	f.retransmitted.clear()
	f.stats.FastRecoveries++
	f.algo.OnLoss(LossEvent{
		Now:      now,
		Inflight: f.pipe(),
		MSS:      f.mss,
		RTT:      rtt,
		MinRTT:   f.minRTT,
	})
	f.armRTO()
}

// onTimeout handles an RTO: mark the entire outstanding window lost, apply
// the algorithm's timeout response, and restart repair from the oldest
// unacked byte (SACKed blocks are preserved and skipped).
func (f *Flow) onTimeout() {
	f.stats.Timeouts++
	f.dupAcks = 0
	f.retransmitted.clear()
	f.algo.OnLoss(LossEvent{
		Now:       f.sim.Now(),
		IsTimeout: true,
		Inflight:  f.pipe(),
		MSS:       f.mss,
		MinRTT:    f.minRTT,
	})
	f.inRecovery = true
	f.rtoRecovery = true
	f.recover = f.nextSeq
	f.markedLostUpTo = f.nextSeq
	f.nextSendAt = 0
	f.armRTO()
	f.trySend()
}

// updateRTT applies RFC 6298 smoothing.
func (f *Flow) updateRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if f.minRTT == 0 || rtt < f.minRTT {
		f.minRTT = rtt
	}
	f.stats.MinRTT = f.minRTT
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
	} else {
		d := f.srtt - rtt
		if d < 0 {
			d = -d
		}
		f.rttvar = (3*f.rttvar + d) / 4
		f.srtt = (7*f.srtt + rtt) / 8
	}
	f.stats.SRTT = f.srtt
}
