package cc

import (
	"testing"
	"time"

	"starlinkview/internal/netsim"
)

// lossyStats runs one 8-second bulk flow over a two-hop path whose access
// link drops 1% of packets at random, blacks out for 150 ms every 2.5 s
// (handover-like bursts that force RTOs) and adds up to 3 ms of jitter.
func lossyStats(t *testing.T, algo string) FlowStats {
	t.Helper()
	sim := netsim.NewSim(2024)
	rng := sim.Rand()
	nodes := []*netsim.Node{
		netsim.NewNode("client", ""),
		netsim.NewNode("router", ""),
		netsim.NewNode("server", ""),
	}
	access := netsim.LinkSpec{
		RateBps: 30e6, Delay: 15 * time.Millisecond, QueueByte: 150_000,
		LossFn: func(now netsim.Time, _ *netsim.Packet) bool {
			if now%(2500*time.Millisecond) < 150*time.Millisecond {
				return true
			}
			return rng.Float64() < 0.01
		},
		DelayFn: func(netsim.Time) netsim.Time {
			return time.Duration(rng.Intn(3000)) * time.Microsecond
		},
	}
	core := netsim.LinkSpec{RateBps: 300e6, Delay: 10 * time.Millisecond}
	path, err := netsim.NewPath(nodes, []netsim.LinkSpec{access, core}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(algo)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlow(sim, path, FlowConfig{Algorithm: a, Reverse: true})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	sim.RunUntil(8 * time.Second)
	f.Stop()
	return f.Stats()
}

// TestFlowStatsPinnedOnLossyPath pins every algorithm's FlowStats on a
// lossy, jittery path to values recorded with the closure-per-event engine.
// Any change to event order or to the SACK scoreboard shows up here.
func TestFlowStatsPinnedOnLossyPath(t *testing.T) {
	want := map[string]FlowStats{
		"bbr": {DeliveredBytes: 18033392, SentPackets: 24039, RetransPackets: 10385, Timeouts: 19, FastRecoveries: 4,
			Duration: 7889815777, MinRTT: 51329478, SRTT: 93904835},
		"cubic": {DeliveredBytes: 2106840, SentPackets: 1546, RetransPackets: 59, Timeouts: 4, FastRecoveries: 12,
			Duration: 7831849948, MinRTT: 50546772, SRTT: 54275199},
		"reno": {DeliveredBytes: 1478408, SentPackets: 1070, RetransPackets: 42, Timeouts: 4, FastRecoveries: 10,
			Duration: 7961644742, MinRTT: 50481772, SRTT: 54749636},
		"veno": {DeliveredBytes: 2085120, SentPackets: 1535, RetransPackets: 75, Timeouts: 5, FastRecoveries: 11,
			Duration: 7824920206, MinRTT: 50737772, SRTT: 54525819},
		"vegas": {DeliveredBytes: 1059936, SentPackets: 779, RetransPackets: 43, Timeouts: 4, FastRecoveries: 7,
			Duration: 7974282286, MinRTT: 50802772, SRTT: 53951502},
	}
	for _, algo := range Names() {
		if got := lossyStats(t, algo); got != want[algo] {
			t.Errorf("%s:\n got %+v\nwant %+v", algo, got, want[algo])
		}
	}
}
