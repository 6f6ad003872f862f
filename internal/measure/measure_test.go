package measure

import (
	"testing"
	"time"

	"starlinkview/internal/ispnet"
	"starlinkview/internal/netsim"
	"starlinkview/internal/orbit"
)

var testEpoch = time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)

func testConstellation(t *testing.T) *orbit.Constellation {
	t.Helper()
	c, err := orbit.GenerateShell(orbit.ShellConfig{
		Name: "STARLINK", AltitudeKm: 550, InclinationDeg: 53,
		Planes: 24, SatsPerPlane: 22, PhasingF: 13,
		Epoch: testEpoch, FirstSatNum: 44000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildKind(t *testing.T, kind ispnet.Kind, seed int64) (*netsim.Sim, *ispnet.Built) {
	t.Helper()
	sim := netsim.NewSim(seed)
	b, err := ispnet.Build(ispnet.Config{
		Kind: kind, City: ispnet.London, Server: ispnet.NVirginiaDC,
		Constellation: testConstellation(t), Epoch: testEpoch, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim, b
}

func TestPingBroadband(t *testing.T) {
	sim, b := buildKind(t, ispnet.Broadband, 1)
	res, err := Ping(sim, b.Path, 10, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Received < 9 {
		t.Fatalf("received %d/10 pings on a clean path", res.Received)
	}
	// London -> N. Virginia broadband: ~80-100 ms RTT.
	if avg := res.AvgRTT(); avg < 70*time.Millisecond || avg > 120*time.Millisecond {
		t.Errorf("avg RTT = %v, want 70-120ms", avg)
	}
	if res.MinRTT() > res.AvgRTT() {
		t.Error("min RTT above average")
	}
}

func TestPingValidation(t *testing.T) {
	sim, b := buildKind(t, ispnet.Broadband, 2)
	if _, err := Ping(sim, b.Path, 0, time.Second); err == nil {
		t.Error("want error for zero count")
	}
}

func TestPingStarlinkSlowerThanBroadband(t *testing.T) {
	simS, bS := buildKind(t, ispnet.Starlink, 3)
	simB, bB := buildKind(t, ispnet.Broadband, 3)
	simC, bC := buildKind(t, ispnet.Cellular, 3)
	rS, err := Ping(simS, bS.Path, 20, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rB, err := Ping(simB, bB.Path, 20, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rC, err := Ping(simC, bC.Path, 20, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5's ordering: broadband < starlink < cellular.
	if !(rB.MinRTT() < rS.MinRTT() && rS.MinRTT() < rC.MinRTT()) {
		t.Errorf("RTT ordering broken: bb=%v sl=%v cell=%v", rB.MinRTT(), rS.MinRTT(), rC.MinRTT())
	}
}

func TestTracerouteBroadband(t *testing.T) {
	sim, b := buildKind(t, ispnet.Broadband, 4)
	hops, err := Traceroute(sim, b.Path, TracerouteOptions{ProbesPerHop: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != len(b.HopAddrs) {
		t.Fatalf("traceroute found %d hops, path has %d", len(hops), len(b.HopAddrs))
	}
	for i, h := range hops {
		if h.Addr != b.HopAddrs[i] {
			t.Errorf("hop %d addr = %q, want %q", i+1, h.Addr, b.HopAddrs[i])
		}
		if len(h.RTTs) == 0 {
			t.Errorf("hop %d: no replies", i+1)
		}
	}
	// Median RTT is non-decreasing in broad strokes: final hop >> first hop.
	if avg(hops[len(hops)-1].RTTs) < avg(hops[0].RTTs) {
		t.Error("final hop RTT below first hop")
	}
}

func TestTracerouteStarlinkFirstHopDominates(t *testing.T) {
	sim, b := buildKind(t, ispnet.Starlink, 5)
	hops, err := Traceroute(sim, b.Path, TracerouteOptions{ProbesPerHop: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) < 3 {
		t.Fatalf("only %d hops", len(hops))
	}
	// The first hop crosses the bent pipe: ~30+ ms, far more than a
	// terrestrial first hop.
	first := avg(hops[0].RTTs)
	if first < 20*time.Millisecond {
		t.Errorf("starlink first-hop RTT = %v, want >= 20ms (bent pipe)", first)
	}
}

func TestMTRAggregates(t *testing.T) {
	sim, b := buildKind(t, ispnet.Broadband, 6)
	hops, err := MTR(sim, b.Path, 4, TracerouteOptions{ProbesPerHop: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hops {
		if len(h.RTTs) < 6 { // 4 runs x 2 probes, allowing a little loss
			t.Errorf("hop %d has %d samples, want ~8", h.TTL, len(h.RTTs))
		}
	}
	if _, err := MTR(sim, b.Path, 0, TracerouteOptions{}); err == nil {
		t.Error("want error for zero runs")
	}
}

func TestMaxMinEstimate(t *testing.T) {
	sim, b := buildKind(t, ispnet.Starlink, 7)
	// Hop 1 (the bent pipe) and the full path, as in Table 2.
	wireless, err := MaxMinEstimate(sim, b.Path, 1, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MaxMinEstimate(sim, b.Path, len(b.HopAddrs), 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if wireless.MedianMs <= 0 {
		t.Error("bent-pipe queueing estimate is zero; jitter model inactive")
	}
	if !(wireless.MinMs <= wireless.MedianMs && wireless.MedianMs <= wireless.MaxMs) {
		t.Errorf("unordered estimate: %+v", wireless)
	}
	// The wireless link should contribute a large share of the whole path's
	// queueing delay (the paper's central Table 2 finding).
	if wireless.MedianMs < 0.3*full.MedianMs {
		t.Errorf("bent pipe median queueing %v ms not a large share of path %v ms", wireless.MedianMs, full.MedianMs)
	}
	if _, err := MaxMinEstimate(sim, b.Path, 0, 3, 3); err == nil {
		t.Error("want error for TTL 0")
	}
}

func TestIperfTCPCleanBroadband(t *testing.T) {
	sim, b := buildKind(t, ispnet.Broadband, 8)
	res, err := IperfTCP(sim, b.Path, "cubic", 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Upload direction is capped by the broadband uplink (100 Mbps).
	if res.ThroughputBps < 40e6 || res.ThroughputBps > 100e6 {
		t.Errorf("upload throughput = %.1f Mbps, want 40-100", res.ThroughputBps/1e6)
	}
	if _, err := IperfTCP(sim, b.Path, "cubic", 0); err == nil {
		t.Error("want error for zero duration")
	}
	if _, err := IperfTCP(sim, b.Path, "nope", time.Second); err == nil {
		t.Error("want error for unknown algorithm")
	}
}

func TestIperfTCPReverseDownload(t *testing.T) {
	sim, b := buildKind(t, ispnet.Broadband, 9)
	res, err := IperfTCPReverse(sim, b.Path, "cubic", 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Download at up to 350 Mbps.
	if res.ThroughputBps < 100e6 {
		t.Errorf("download throughput = %.1f Mbps, want > 100", res.ThroughputBps/1e6)
	}
}

func TestIperfUDPLossOnStarlink(t *testing.T) {
	sim, b := buildKind(t, ispnet.Starlink, 10)
	res, err := IperfUDP(sim, b.Path, 20e6, 10*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.SentPackets == 0 {
		t.Fatal("no packets sent")
	}
	if res.LossPct < 0 || res.LossPct > 100 {
		t.Fatalf("loss = %v%%", res.LossPct)
	}
	if res.ThroughputBps <= 0 {
		t.Error("no UDP throughput measured")
	}
	if _, err := IperfUDP(sim, b.Path, 0, time.Second, false); err == nil {
		t.Error("want error for zero rate")
	}
}

func TestSpeedtestBroadband(t *testing.T) {
	sim, b := buildKind(t, ispnet.Broadband, 11)
	res, err := Speedtest(sim, b.Path, SpeedtestOptions{PhaseDuration: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.PingMs < 70 || res.PingMs > 130 {
		t.Errorf("ping = %v ms", res.PingMs)
	}
	if res.DownMbps < 50 {
		t.Errorf("down = %v Mbps, want > 50", res.DownMbps)
	}
	if res.UpMbps < 20 {
		t.Errorf("up = %v Mbps, want > 20", res.UpMbps)
	}
	if res.DownMbps < res.UpMbps {
		t.Errorf("down %v < up %v on an asymmetric link", res.DownMbps, res.UpMbps)
	}
	if res.FinishedAt <= res.StartedAt {
		t.Error("speedtest did not advance time")
	}
}

func TestSpeedtestStarlinkAsymmetry(t *testing.T) {
	sim, b := buildKind(t, ispnet.Starlink, 12)
	res, err := Speedtest(sim, b.Path, SpeedtestOptions{PhaseDuration: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Table 3's shape: downlink ~an order of magnitude above uplink.
	if res.DownMbps < 3*res.UpMbps {
		t.Errorf("down %v / up %v: Starlink asymmetry missing", res.DownMbps, res.UpMbps)
	}
	if res.UpMbps <= 0 {
		t.Error("no uplink throughput")
	}
}

func avg(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

func TestTracerouteMutedHopShowsStar(t *testing.T) {
	sim, b := buildKind(t, ispnet.Broadband, 21)
	// Silence a mid-path router, like a production box with ICMP disabled.
	b.Path.Nodes[3].Mute = true
	hops, err := Traceroute(sim, b.Path, TracerouteOptions{ProbesPerHop: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hops[2].Addr != "*" {
		t.Errorf("muted hop rendered as %q, want *", hops[2].Addr)
	}
	if len(hops[2].RTTs) != 0 {
		t.Error("muted hop has RTT samples")
	}
	// Later hops still answer.
	if hops[3].Addr == "*" {
		t.Error("hop after the muted one should still reply")
	}
}

func TestRTTUnderLoad(t *testing.T) {
	sim, b := buildKind(t, ispnet.Starlink, 30)
	res, err := RTTUnderLoad(sim, b.Path, "cubic", 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleRTT <= 0 || res.LoadedRTT <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// A saturating cubic download fills the bent pipe's queue: latency
	// under load must clearly exceed idle latency (bufferbloat).
	if res.Inflation < 1.3 {
		t.Errorf("loaded/idle RTT inflation = %.2f, want >= 1.3 on a deep-buffered link", res.Inflation)
	}
	if _, err := RTTUnderLoad(sim, b.Path, "cubic", 1); err == nil {
		t.Error("want error for too few probes")
	}
	if _, err := RTTUnderLoad(sim, b.Path, "nope", 5); err == nil {
		t.Error("want error for unknown algorithm")
	}
}

// udpBottleneckPath is Fig. 8's UDP baseline shape: a fast first hop
// feeding a 100 Mb/s drop-tail bottleneck.
func udpBottleneckPath(t testing.TB) *netsim.Path {
	t.Helper()
	nodes := []*netsim.Node{
		netsim.NewNode("client", ""),
		netsim.NewNode("router", ""),
		netsim.NewNode("server", ""),
	}
	specs := []netsim.LinkSpec{
		{RateBps: 10e9, Delay: time.Millisecond},
		{RateBps: 100e6, Delay: 10 * time.Millisecond, QueueByte: 250_000},
	}
	p, err := netsim.NewPath(nodes, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestIperfUDPAllocBudget pins the UDP source's allocation cost: a 2 Gb/s
// source into a 100 Mb/s bottleneck for one simulated second (200k sends)
// may allocate at most 1.1 times per sent packet: the packet itself, and
// nothing per packet from the series-scheduled source or the per-link
// in-flight rings. Run without the race detector; `make check` runs it
// explicitly.
func TestIperfUDPAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("alloc measurement loop is not short")
	}
	var sent int
	run := func() {
		res, err := IperfUDP(netsim.NewSim(7), udpBottleneckPath(t), 2e9, time.Second, false)
		if err != nil {
			t.Fatal(err)
		}
		sent = res.SentPackets
	}
	perRun := testing.AllocsPerRun(2, run)
	perPacket := perRun / float64(sent)
	t.Logf("%.0f allocs per run, %d sent, %.4f allocs/packet", perRun, sent, perPacket)
	if perPacket > 1.1 {
		t.Fatalf("IperfUDP allocates %.4f per sent packet; budget is 1.1", perPacket)
	}
}

// BenchmarkIperfUDP measures the same shape per simulated second: 200k sends,
// most of them dropped at the bottleneck queue.
func BenchmarkIperfUDP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := IperfUDP(netsim.NewSim(7), udpBottleneckPath(b), 2e9, time.Second, false); err != nil {
			b.Fatal(err)
		}
	}
}
