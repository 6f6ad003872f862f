package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// A server stall must show in the latency of the requests scheduled behind
// it: they are timed from their due time, not from when a lane got free.
func TestStallShowsInLaterRequests(t *testing.T) {
	const gap = 2 * time.Millisecond
	const stall = 150 * time.Millisecond
	reqs := make([]request, 100)
	for i := range reqs {
		reqs[i] = request{Due: time.Duration(i) * gap, Op: i}
	}
	outs, _ := runOpenLoop(reqs, 1, 0, func(_ int, r request) error {
		if r.Op == 10 {
			time.Sleep(stall)
		}
		return nil
	})
	// Request 11 was due one gap after the stalled one began, so it waited
	// out nearly the whole stall.
	if got := outs[11].Latency; got < stall-2*gap {
		t.Fatalf("request behind the stall reports %v, want >= %v", got, stall-2*gap)
	}
	if got := outs[11].Lag; got < stall-2*gap {
		t.Fatalf("generator lag behind the stall is %v, want >= %v", got, stall-2*gap)
	}
	// Requests well before the stall are unaffected.
	if got := outs[5].Latency; got > stall/3 {
		t.Fatalf("request before the stall reports %v", got)
	}
	// The stall's shadow reaches every request due before it cleared.
	late := 0
	for _, o := range outs[11:] {
		if o.Latency > 20*time.Millisecond {
			late++
		}
	}
	if want := int((stall - 20*time.Millisecond) / gap); late < want-5 {
		t.Fatalf("%d requests show the stall, want about %d", late, want)
	}
}

// Once a request comes up more than giveUp late, it and every later one
// are skipped, and nothing before it is.
func TestGiveUpSkipsTheBacklog(t *testing.T) {
	const gap = 2 * time.Millisecond
	reqs := make([]request, 100)
	for i := range reqs {
		reqs[i] = request{Due: time.Duration(i) * gap, Op: i}
	}
	outs, _ := runOpenLoop(reqs, 1, 50*time.Millisecond, func(_ int, r request) error {
		if r.Op == 10 {
			time.Sleep(150 * time.Millisecond)
		}
		return nil
	})
	first := -1
	for i, o := range outs {
		if o.Skipped && first < 0 {
			first = i
		}
		if first >= 0 && !o.Skipped {
			t.Fatalf("request %d was sent after request %d was skipped", i, first)
		}
	}
	// Request 11 is the first to come up after the stall, ~148ms late.
	if first != 11 {
		t.Fatalf("first skipped request is %d, want 11", first)
	}
}

// With the due times in the past, a closed-loop timer would report each
// request's service time alone; the open loop reports the queueing too.
func TestLatencyCountsQueueing(t *testing.T) {
	reqs := make([]request, 20)
	outs, _ := runOpenLoop(reqs, 2, 0, func(int, request) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	last := outs[len(outs)-1].Latency
	if last < 40*time.Millisecond {
		t.Fatalf("last of 20 simultaneous 5ms requests on 2 lanes reports %v, want >= 40ms", last)
	}
}

// The tail helper reports the highest percentile with at least ten samples
// beyond it, together with the sample count.
func TestSummarizeTailHasTenBeyond(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantQ float64
	}{
		{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95},
		{200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.5}, {20, 0.5},
	} {
		d := summarize(series(tc.n))
		if d.N != tc.n {
			t.Errorf("n=%d: sample count %d", tc.n, d.N)
		}
		if d.TailQ != tc.wantQ {
			t.Errorf("n=%d: tail level %v, want %v", tc.n, d.TailQ, tc.wantQ)
		}
		above := 0
		for _, x := range series(tc.n) {
			if x > d.Tail {
				above++
			}
		}
		if tc.wantQ > 0.5 && above < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the p%v", tc.n, above, tc.wantQ*100)
		}
	}
	if d := summarize([]float64{1, 2, 3}); d.P50 != 2 || d.N != 3 {
		t.Fatalf("median of 1,2,3 = %v (n=%d)", d.P50, d.N)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	// parent [0,100), children [10,40) and [30,60) overlap: union 50.
	got := selfTime(0, 100, [][2]int64{{10, 40}, {30, 60}, {90, 120}})
	if got != 40 {
		t.Fatalf("self time %d, want 40 (children cover 50, the tail past the parent is clipped)", got)
	}
}

// BENCHMARK.json's per-layer list is the traced run's output contract: it
// must name exactly the metrics the run reports, in the same units.
func TestBenchmarkJSONMatchesLayers(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range b.PerLayer {
		listed[m.Name] = m.Unit
	}
	for name, unit := range layerUnits {
		if listed[name] != unit {
			t.Errorf("%s (%s) is reported but listed as %q", name, unit, listed[name])
		}
	}
	for name := range listed {
		if _, ok := layerUnits[name]; !ok {
			t.Errorf("%s is listed but never reported", name)
		}
	}
}
