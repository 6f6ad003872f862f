// Package measure implements the network measurement tools the study ran on
// its volunteer Raspberry Pis and inside the browser extension: ping,
// traceroute, mtr-style repeated traceroute, iperf3-like TCP and UDP
// throughput tests, a Librespeed-style multi-stream speedtest, and the
// max-min queueing-delay estimator of Chan et al. that Table 2 is built on.
//
// Every tool runs synchronously on a netsim simulation: it injects packets,
// advances simulated time, and returns aggregated results. Tools must be run
// one after another on a given simulation (they advance its clock).
package measure

import (
	"fmt"
	"sync/atomic"
	"time"

	"starlinkview/internal/cc"
	"starlinkview/internal/netsim"
	"starlinkview/internal/stats"
)

// nextEphemeral hands out client ports so concurrently-registered tools on
// one path never collide. It is atomic so independent simulations may run
// concurrently (each simulation must still run its own tools sequentially).
var nextEphemeral atomic.Int64

func ephemeralPort() int {
	// Cycle through 42001..60000, like the ephemeral range of a real stack.
	return 42001 + int((nextEphemeral.Add(1)-1)%18000)
}

// PingResult summarises an ICMP echo run.
type PingResult struct {
	Sent     int
	Received int
	RTTs     []time.Duration
}

// MinRTT returns the smallest observed RTT, or 0 if none.
func (r PingResult) MinRTT() time.Duration {
	var m time.Duration
	for _, v := range r.RTTs {
		if m == 0 || v < m {
			m = v
		}
	}
	return m
}

// AvgRTT returns the mean observed RTT, or 0 if none.
func (r PingResult) AvgRTT() time.Duration {
	if len(r.RTTs) == 0 {
		return 0
	}
	var s time.Duration
	for _, v := range r.RTTs {
		s += v
	}
	return s / time.Duration(len(r.RTTs))
}

// Jitter returns the mean absolute difference between consecutive RTTs.
func (r PingResult) Jitter() time.Duration {
	if len(r.RTTs) < 2 {
		return 0
	}
	var s time.Duration
	for i := 1; i < len(r.RTTs); i++ {
		d := r.RTTs[i] - r.RTTs[i-1]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / time.Duration(len(r.RTTs)-1)
}

// Ping sends count ICMP echo probes at the interval and gathers replies.
func Ping(sim *netsim.Sim, path *netsim.Path, count int, interval time.Duration) (PingResult, error) {
	if count <= 0 {
		return PingResult{}, fmt.Errorf("measure: ping count must be positive, got %d", count)
	}
	if interval <= 0 {
		interval = time.Second
	}
	res := PingResult{Sent: count}
	port := ephemeralPort()
	sent := make(map[uint64]bool, count)

	client, server := path.Client(), path.Server()
	client.RegisterLocal(port, netsim.HandlerFunc(func(s *netsim.Sim, p *netsim.Packet) {
		if p.ICMP != netsim.ICMPEchoReply || !sent[p.ProbeID] {
			return
		}
		delete(sent, p.ProbeID)
		res.Received++
		res.RTTs = append(res.RTTs, s.Now()-p.SentAt)
	}))
	defer client.UnregisterLocal(port)

	for i := 0; i < count; i++ {
		i := i
		sim.Schedule(time.Duration(i)*interval, func() {
			id := sim.NextPacketID()
			sent[id] = true
			client.Handle(sim, &netsim.Packet{
				ID: id, Size: 64, TTL: 64,
				Src: client.Name, SrcPort: port,
				Dst: server.Name, DstPort: 0,
				ICMP: netsim.ICMPEcho, ProbeID: id,
				SentAt: sim.Now(),
			})
		})
	}
	sim.RunUntil(sim.Now() + time.Duration(count)*interval + 3*time.Second)
	return res, nil
}

// Hop is one traceroute hop's aggregated measurements.
type Hop struct {
	TTL  int
	Addr string // "*" when every probe timed out
	RTTs []time.Duration
}

// TracerouteOptions tunes a traceroute run.
type TracerouteOptions struct {
	// ProbesPerHop defaults to 3 (the traceroute default); the paper uses
	// up to 30 per hop for the max-min methodology and 60-byte packets.
	ProbesPerHop int
	ProbeSize    int
	MaxTTL       int
	// Interval between probes.
	Interval time.Duration
}

func (o *TracerouteOptions) defaults(path *netsim.Path) {
	if o.ProbesPerHop == 0 {
		o.ProbesPerHop = 3
	}
	if o.ProbeSize == 0 {
		o.ProbeSize = 60
	}
	if o.MaxTTL == 0 {
		o.MaxTTL = len(path.Nodes) // enough to reach the server
	}
	if o.Interval == 0 {
		o.Interval = 50 * time.Millisecond
	}
}

// Traceroute performs a TTL-sweeping probe of the path, like
// `traceroute -q N`. Probes use ICMP echo semantics so the destination
// answers the final hop.
func Traceroute(sim *netsim.Sim, path *netsim.Path, opts TracerouteOptions) ([]Hop, error) {
	opts.defaults(path)
	if opts.ProbesPerHop < 1 || opts.MaxTTL < 1 {
		return nil, fmt.Errorf("measure: invalid traceroute options %+v", opts)
	}

	type probe struct {
		ttl    int
		sentAt time.Duration
	}
	port := ephemeralPort()
	pending := make(map[uint64]probe)
	hops := make([]Hop, opts.MaxTTL)
	addrs := make([]string, opts.MaxTTL)

	client, server := path.Client(), path.Server()
	client.RegisterLocal(port, netsim.HandlerFunc(func(s *netsim.Sim, p *netsim.Packet) {
		pr, ok := pending[p.ProbeID]
		if !ok {
			return
		}
		if p.ICMP != netsim.ICMPTimeExceeded && p.ICMP != netsim.ICMPEchoReply {
			return
		}
		delete(pending, p.ProbeID)
		h := &hops[pr.ttl-1]
		h.RTTs = append(h.RTTs, s.Now()-pr.sentAt)
		addrs[pr.ttl-1] = p.ICMPFrom
	}))
	defer client.UnregisterLocal(port)

	var at time.Duration
	for ttl := 1; ttl <= opts.MaxTTL; ttl++ {
		hops[ttl-1].TTL = ttl
		for q := 0; q < opts.ProbesPerHop; q++ {
			ttl := ttl
			sim.Schedule(at, func() {
				id := sim.NextPacketID()
				pending[id] = probe{ttl: ttl, sentAt: sim.Now()}
				client.Handle(sim, &netsim.Packet{
					ID: id, Size: opts.ProbeSize, TTL: ttl,
					Src: client.Name, SrcPort: port,
					Dst: server.Name, DstPort: 0,
					ICMP: netsim.ICMPEcho, ProbeID: id,
					SentAt: sim.Now(),
				})
			})
			at += opts.Interval
		}
	}
	sim.RunUntil(sim.Now() + at + 5*time.Second)

	// Trim hops past the destination: once the server answered, later TTLs
	// repeat it.
	out := make([]Hop, 0, opts.MaxTTL)
	serverAddr := server.HopAddr
	for i := range hops {
		hops[i].Addr = addrs[i]
		if hops[i].Addr == "" {
			hops[i].Addr = "*"
		}
		out = append(out, hops[i])
		if hops[i].Addr == serverAddr {
			break
		}
	}
	return out, nil
}

// MTR runs `runs` traceroutes and merges the per-hop samples, like mtr's
// report mode.
func MTR(sim *netsim.Sim, path *netsim.Path, runs int, opts TracerouteOptions) ([]Hop, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("measure: mtr needs at least one run")
	}
	var merged []Hop
	for r := 0; r < runs; r++ {
		hops, err := Traceroute(sim, path, opts)
		if err != nil {
			return nil, err
		}
		for i, h := range hops {
			if i >= len(merged) {
				merged = append(merged, Hop{TTL: h.TTL, Addr: h.Addr})
			}
			if merged[i].Addr == "*" && h.Addr != "*" {
				merged[i].Addr = h.Addr
			}
			merged[i].RTTs = append(merged[i].RTTs, h.RTTs...)
		}
	}
	return merged, nil
}

// QueueingDelay is a Table 2 row: min/median/max queueing-delay estimates
// in milliseconds for one path segment.
type QueueingDelay struct {
	MinMs, MedianMs, MaxMs float64
}

// MaxMinEstimate applies the paper's adaptation of the max-min methodology:
// it runs `runs` traceroute sweeps of `probes` 60-byte probes per hop; each
// run's queueing-delay sample for a hop is the spread (max-min) of that
// run's RTTs at the hop, which cancels propagation delay. The returned
// min/median/max summarise the per-run samples across runs.
func MaxMinEstimate(sim *netsim.Sim, path *netsim.Path, hopTTL int, runs, probes int) (QueueingDelay, error) {
	if hopTTL < 1 || hopTTL > len(path.Nodes)-1 {
		return QueueingDelay{}, fmt.Errorf("measure: hop TTL %d out of range", hopTTL)
	}
	var samples []float64
	for r := 0; r < runs; r++ {
		hops, err := Traceroute(sim, path, TracerouteOptions{
			ProbesPerHop: probes, ProbeSize: 60, MaxTTL: hopTTL, Interval: 100 * time.Millisecond,
		})
		if err != nil {
			return QueueingDelay{}, err
		}
		if len(hops) < hopTTL || len(hops[hopTTL-1].RTTs) < 2 {
			continue // not enough replies this run
		}
		rtts := hops[hopTTL-1].RTTs
		min, max := rtts[0], rtts[0]
		for _, v := range rtts[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		samples = append(samples, float64(max-min)/float64(time.Millisecond))
	}
	if len(samples) == 0 {
		return QueueingDelay{}, fmt.Errorf("measure: no usable traceroute runs for hop %d", hopTTL)
	}
	return QueueingDelay{
		MinMs:    stats.Min(samples),
		MedianMs: stats.Median(samples),
		MaxMs:    stats.Max(samples),
	}, nil
}

// MaxMinBoth runs the max-min methodology once and derives both Table 2
// columns — the first hop (the bent pipe) and the whole path — from the
// same traceroute sweeps, exactly as the paper's repeated runs did.
func MaxMinBoth(sim *netsim.Sim, path *netsim.Path, runs, probes int) (firstHop, whole QueueingDelay, err error) {
	lastTTL := len(path.Nodes) - 1
	var firstSamples, wholeSamples []float64
	spread := func(rtts []time.Duration) (float64, bool) {
		if len(rtts) < 2 {
			return 0, false
		}
		min, max := rtts[0], rtts[0]
		for _, v := range rtts[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return float64(max-min) / float64(time.Millisecond), true
	}
	for r := 0; r < runs; r++ {
		hops, err := Traceroute(sim, path, TracerouteOptions{
			ProbesPerHop: probes, ProbeSize: 60, MaxTTL: lastTTL, Interval: 100 * time.Millisecond,
		})
		if err != nil {
			return QueueingDelay{}, QueueingDelay{}, err
		}
		if len(hops) == 0 {
			continue
		}
		if v, ok := spread(hops[0].RTTs); ok {
			firstSamples = append(firstSamples, v)
		}
		if v, ok := spread(hops[len(hops)-1].RTTs); ok {
			wholeSamples = append(wholeSamples, v)
		}
	}
	if len(firstSamples) == 0 || len(wholeSamples) == 0 {
		return QueueingDelay{}, QueueingDelay{}, fmt.Errorf("measure: max-min sweeps produced no usable runs")
	}
	mk := func(s []float64) QueueingDelay {
		return QueueingDelay{MinMs: stats.Min(s), MedianMs: stats.Median(s), MaxMs: stats.Max(s)}
	}
	return mk(firstSamples), mk(wholeSamples), nil
}

// IperfResult summarises an iperf3-like run.
type IperfResult struct {
	Protocol      string
	Duration      time.Duration
	ThroughputBps float64
	SentPackets   int
	LostPackets   int
	Retransmits   int
	LossPct       float64
	MinRTT        time.Duration
}

// IperfTCP runs a single bulk TCP flow for the duration using the given
// congestion-control algorithm name and reports goodput.
func IperfTCP(sim *netsim.Sim, path *netsim.Path, algo string, duration time.Duration) (IperfResult, error) {
	if duration <= 0 {
		return IperfResult{}, fmt.Errorf("measure: iperf duration must be positive")
	}
	a, err := cc.New(algo)
	if err != nil {
		return IperfResult{}, err
	}
	srcPort, dstPort := ephemeralPort(), ephemeralPort()
	f, err := cc.NewFlow(sim, path, cc.FlowConfig{Algorithm: a, SrcPort: srcPort, DstPort: dstPort})
	if err != nil {
		return IperfResult{}, err
	}
	start := sim.Now()
	startBytes := f.Stats().DeliveredBytes
	f.Start()
	sim.RunUntil(start + duration)
	f.Stop()
	defer path.Client().UnregisterLocal(srcPort)
	defer path.Server().UnregisterLocal(dstPort)

	st := f.Stats()
	delivered := st.DeliveredBytes - startBytes
	res := IperfResult{
		Protocol:      "tcp/" + algo,
		Duration:      duration,
		ThroughputBps: float64(delivered*8) / duration.Seconds(),
		SentPackets:   st.SentPackets,
		Retransmits:   st.RetransPackets,
		MinRTT:        st.MinRTT,
	}
	if st.SentPackets > 0 {
		res.LossPct = 100 * float64(st.RetransPackets) / float64(st.SentPackets)
	}
	return res, nil
}

// IperfTCPReverse is IperfTCP in the download direction (server sends).
func IperfTCPReverse(sim *netsim.Sim, path *netsim.Path, algo string, duration time.Duration) (IperfResult, error) {
	if duration <= 0 {
		return IperfResult{}, fmt.Errorf("measure: iperf duration must be positive")
	}
	a, err := cc.New(algo)
	if err != nil {
		return IperfResult{}, err
	}
	srcPort, dstPort := ephemeralPort(), ephemeralPort()
	f, err := cc.NewFlow(sim, path, cc.FlowConfig{Algorithm: a, SrcPort: srcPort, DstPort: dstPort, Reverse: true})
	if err != nil {
		return IperfResult{}, err
	}
	start := sim.Now()
	f.Start()
	sim.RunUntil(start + duration)
	f.Stop()
	defer path.Server().UnregisterLocal(srcPort)
	defer path.Client().UnregisterLocal(dstPort)

	st := f.Stats()
	res := IperfResult{
		Protocol:      "tcp/" + algo + "/reverse",
		Duration:      duration,
		ThroughputBps: float64(st.DeliveredBytes*8) / duration.Seconds(),
		SentPackets:   st.SentPackets,
		Retransmits:   st.RetransPackets,
		MinRTT:        st.MinRTT,
	}
	if st.SentPackets > 0 {
		res.LossPct = 100 * float64(st.RetransPackets) / float64(st.SentPackets)
	}
	return res, nil
}

// IperfUDP blasts paced UDP at rateBps for the duration and measures the
// loss rate at the receiver, like `iperf3 -u -b <rate>`. With reverse=true
// the server transmits (downlink test).
func IperfUDP(sim *netsim.Sim, path *netsim.Path, rateBps float64, duration time.Duration, reverse bool) (IperfResult, error) {
	if rateBps <= 0 || duration <= 0 {
		return IperfResult{}, fmt.Errorf("measure: invalid UDP iperf parameters")
	}
	const pktSize = 1250 // 10 kbit packets make the arithmetic clean
	snd, rcv := path.Client(), path.Server()
	if reverse {
		snd, rcv = rcv, snd
	}
	port := ephemeralPort()
	received := 0
	var rcvBytes int64
	rcv.RegisterLocal(port, netsim.HandlerFunc(func(s *netsim.Sim, p *netsim.Packet) {
		received++
		rcvBytes += int64(p.Size)
	}))
	defer rcv.UnregisterLocal(port)

	gap := time.Duration(float64(pktSize*8) / rateBps * float64(time.Second))
	n := int(duration / gap)
	start := sim.Now()
	sim.ScheduleSeries(n, gap, func() {
		snd.Handle(sim, &netsim.Packet{
			ID: sim.NextPacketID(), Size: pktSize, TTL: 64,
			Src: snd.Name, Dst: rcv.Name, DstPort: port,
			SentAt: sim.Now(),
		})
	})
	sim.RunUntil(start + duration + 2*time.Second)

	res := IperfResult{
		Protocol:      "udp",
		Duration:      duration,
		ThroughputBps: float64(rcvBytes*8) / duration.Seconds(),
		SentPackets:   n,
		LostPackets:   n - received,
	}
	if n > 0 {
		res.LossPct = 100 * float64(n-received) / float64(n)
	}
	return res, nil
}

// SpeedtestResult mirrors what the browser extension's embedded Librespeed
// reports: latency, jitter, and multi-stream down/up throughput.
type SpeedtestResult struct {
	PingMs     float64
	JitterMs   float64
	DownMbps   float64
	UpMbps     float64
	StartedAt  time.Duration
	FinishedAt time.Duration
}

// SpeedtestOptions tunes a speedtest run.
type SpeedtestOptions struct {
	Streams       int           // parallel TCP streams per direction (default 4)
	PhaseDuration time.Duration // per-direction measuring time (default 8s)
	Algorithm     string        // congestion control (default cubic)
}

func (o *SpeedtestOptions) defaults() {
	if o.Streams == 0 {
		o.Streams = 4
	}
	if o.PhaseDuration == 0 {
		o.PhaseDuration = 8 * time.Second
	}
	if o.Algorithm == "" {
		o.Algorithm = "cubic"
	}
}

// Speedtest runs ping, download (reverse) and upload (forward) phases.
func Speedtest(sim *netsim.Sim, path *netsim.Path, opts SpeedtestOptions) (SpeedtestResult, error) {
	opts.defaults()
	res := SpeedtestResult{StartedAt: sim.Now()}

	ping, err := Ping(sim, path, 8, 200*time.Millisecond)
	if err != nil {
		return res, err
	}
	res.PingMs = float64(ping.AvgRTT()) / float64(time.Millisecond)
	res.JitterMs = float64(ping.Jitter()) / float64(time.Millisecond)

	run := func(reverse bool) (float64, error) {
		var flows []*cc.Flow
		var ports [][2]int
		start := sim.Now()
		for i := 0; i < opts.Streams; i++ {
			a, err := cc.New(opts.Algorithm)
			if err != nil {
				return 0, err
			}
			sp, dp := ephemeralPort(), ephemeralPort()
			f, err := cc.NewFlow(sim, path, cc.FlowConfig{
				Algorithm: a, SrcPort: sp, DstPort: dp, Reverse: reverse,
			})
			if err != nil {
				return 0, err
			}
			flows = append(flows, f)
			ports = append(ports, [2]int{sp, dp})
			f.Start()
		}
		// Like Librespeed, ignore the ramp: a grace period runs before the
		// measured window starts.
		grace := opts.PhaseDuration * 3 / 10
		sim.RunUntil(start + grace)
		var atGrace int64
		for _, f := range flows {
			atGrace += f.Stats().DeliveredBytes
		}
		sim.RunUntil(start + grace + opts.PhaseDuration)
		var total int64
		for _, f := range flows {
			f.Stop()
			total += f.Stats().DeliveredBytes
		}
		total -= atGrace
		snd, rcv := path.Client(), path.Server()
		if reverse {
			snd, rcv = rcv, snd
		}
		for _, pp := range ports {
			snd.UnregisterLocal(pp[0])
			rcv.UnregisterLocal(pp[1])
		}
		// Let in-flight traffic drain before the next phase.
		sim.RunUntil(sim.Now() + time.Second)
		return float64(total*8) / opts.PhaseDuration.Seconds(), nil
	}

	down, err := run(true)
	if err != nil {
		return res, err
	}
	up, err := run(false)
	if err != nil {
		return res, err
	}
	res.DownMbps = down / 1e6
	res.UpMbps = up / 1e6
	res.FinishedAt = sim.Now()
	return res, nil
}

// LoadedRTTResult reports latency under load — the bufferbloat measurement
// that complements Table 2's queueing-delay estimates: the access link's
// deep queue fills under a bulk transfer and pings pay the standing delay.
type LoadedRTTResult struct {
	IdleRTT   time.Duration // median RTT with no competing traffic
	LoadedRTT time.Duration // median RTT during a saturating download
	// Inflation is LoadedRTT / IdleRTT.
	Inflation float64
}

// RTTUnderLoad measures the idle median RTT, then starts a bulk download
// and measures again while it runs.
func RTTUnderLoad(sim *netsim.Sim, path *netsim.Path, algo string, probes int) (LoadedRTTResult, error) {
	if probes < 3 {
		return LoadedRTTResult{}, fmt.Errorf("measure: need >= 3 probes, got %d", probes)
	}
	medianRTT := func(r PingResult) time.Duration {
		if len(r.RTTs) == 0 {
			return 0
		}
		vals := make([]float64, len(r.RTTs))
		for i, d := range r.RTTs {
			vals[i] = float64(d)
		}
		return time.Duration(stats.Median(vals))
	}

	idle, err := Ping(sim, path, probes, 200*time.Millisecond)
	if err != nil {
		return LoadedRTTResult{}, err
	}
	if idle.Received == 0 {
		return LoadedRTTResult{}, fmt.Errorf("measure: no idle ping replies")
	}

	a, err := cc.New(algo)
	if err != nil {
		return LoadedRTTResult{}, err
	}
	sp, dp := ephemeralPort(), ephemeralPort()
	f, err := cc.NewFlow(sim, path, cc.FlowConfig{Algorithm: a, SrcPort: sp, DstPort: dp, Reverse: true})
	if err != nil {
		return LoadedRTTResult{}, err
	}
	f.Start()
	// Let the queue build before probing.
	sim.RunUntil(sim.Now() + 2*time.Second)
	loaded, err := Ping(sim, path, probes, 200*time.Millisecond)
	f.Stop()
	path.Server().UnregisterLocal(sp)
	path.Client().UnregisterLocal(dp)
	if err != nil {
		return LoadedRTTResult{}, err
	}
	if loaded.Received == 0 {
		return LoadedRTTResult{}, fmt.Errorf("measure: no loaded ping replies")
	}

	res := LoadedRTTResult{IdleRTT: medianRTT(idle), LoadedRTT: medianRTT(loaded)}
	if res.IdleRTT > 0 {
		res.Inflation = float64(res.LoadedRTT) / float64(res.IdleRTT)
	}
	return res, nil
}
