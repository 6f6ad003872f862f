package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// request is one scheduled operation of an open-loop phase.
type request struct {
	// Due is when the request should start, relative to the phase start.
	Due time.Duration
	// Op selects what the request does (a body index, a read kind, ...);
	// the phase's send function interprets it.
	Op int
}

// outcome is what happened to one request. Latency runs from the due time,
// not from when a lane got to it: a stall that delays later requests shows
// in their latency (no coordinated omission). Lag is how late the
// generator started the request. Skipped requests were never sent: the
// phase gave up before they came up.
type outcome struct {
	Op      int
	Latency time.Duration
	Lag     time.Duration
	Err     error
	Skipped bool
}

// sendFunc performs one request on a lane. Each lane owns its connection,
// so a lane calls it serially.
type sendFunc func(lane int, r request) error

// schedule draws n request times at rate per second as a Poisson process
// (independent users), assigning ops from op(i). Evenly spaced arrivals
// would phase-lock with the collector's 2 ms group-commit timer and make
// the ack latency depend on the run's start offset.
func schedule(rng *rand.Rand, rate float64, n int, op func(i int) int) []request {
	out := make([]request, n)
	var t float64
	for i := range out {
		out[i] = request{Due: time.Duration(t), Op: op(i)}
		t += rng.ExpFloat64() / rate * float64(time.Second)
	}
	return out
}

// count is how many requests rate per second offers over d (at least one).
func count(rate float64, d time.Duration) int {
	return max(1, int(math.Round(rate*d.Seconds())))
}

// runOpenLoop issues reqs (sorted by Due) on a fixed set of lanes. A lane
// takes the next unsent request, sleeps until it is due if it is early, and
// sends it; a request that comes due while every lane is busy waits and is
// charged the wait. Once a request comes up more than giveUp late (when
// giveUp > 0), it and every later request are skipped: the backlog has
// already decided the phase. It returns one outcome per request, in
// schedule order, and the wall time from the phase start to the last
// completion.
func runOpenLoop(reqs []request, lanes int, giveUp time.Duration, send sendFunc) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var stopped atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if wait := r.Due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				began := time.Since(start)
				if giveUp > 0 && (stopped.Load() || began-r.Due > giveUp) {
					stopped.Store(true)
					out[i] = outcome{Op: r.Op, Skipped: true}
					continue
				}
				err := send(lane, r)
				out[i] = outcome{Op: r.Op, Latency: time.Since(start) - r.Due, Lag: began - r.Due, Err: err}
			}
		}(l)
	}
	wg.Wait()
	return out, time.Since(start)
}

// phaseStats condenses one phase's outcomes.
type phaseStats struct {
	Rate     float64 `json:"offered_rps"`
	Requests int     `json:"requests"`
	Failed   int     `json:"failed"`
	Records  int     `json:"records"`
	Skipped  int     `json:"skipped,omitempty"`
	Wall     float64 `json:"wall_s"`
	// Latency of successful requests, ms, from their due time.
	Latency dist `json:"latency_ms"`
	// LagP99 is the generator's own lateness, ms.
	LagP99 float64 `json:"gen_lag_p99_ms"`
	// Achieved is delivered records per second of wall time.
	Achieved float64 `json:"achieved_rps"`
}

// condense summarises outcomes whose op passes keep; records(op) gives the
// records a request carried (0 for reads).
func condense(outs []outcome, wall time.Duration, rate float64, keep func(op int) bool, records func(op int) int) (phaseStats, []float64) {
	ps := phaseStats{Rate: rate, Wall: wall.Seconds()}
	var lat, lag []float64
	for _, o := range outs {
		if !keep(o.Op) {
			continue
		}
		if o.Skipped {
			ps.Skipped++
			continue
		}
		ps.Requests++
		lag = append(lag, ms(o.Lag))
		if o.Err != nil {
			ps.Failed++
			continue
		}
		ps.Records += records(o.Op)
		lat = append(lat, ms(o.Latency))
	}
	ps.Latency = summarize(lat)
	ps.LagP99, _ = at(lag, 0.99)
	if wall > 0 {
		ps.Achieved = float64(ps.Records) / wall.Seconds()
	}
	return ps, lat
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
