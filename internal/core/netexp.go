package core

import (
	"fmt"
	"time"

	"starlinkview/internal/analysis"

	"starlinkview/internal/ispnet"
	"starlinkview/internal/measure"
	"starlinkview/internal/netsim"
	"starlinkview/internal/rpinode"
	"starlinkview/internal/stats"
)

// volunteerCities are the three RPi host locations (the paper's Table 2
// labels the UK node "London").
func volunteerCities() []ispnet.City {
	return []ispnet.City{ispnet.NorthCarolina, ispnet.London, ispnet.Barcelona}
}

// newVolunteerNode builds one volunteer measurement node.
func (s *Study) newVolunteerNode(city ispnet.City, epoch time.Time, seed int64) (*rpinode.Node, error) {
	return s.newVolunteerNodeWx(city, epoch, seed, true)
}

func (s *Study) newVolunteerNodeWx(city ispnet.City, epoch time.Time, seed int64, withWeather bool) (*rpinode.Node, error) {
	return rpinode.New(rpinode.Config{
		City:          city,
		Constellation: s.Constellation,
		Epoch:         epoch,
		WithWeather:   withWeather,
		Seed:          s.cfg.Seed + seed,
		Registry:      s.cfg.Registry,
		Trace:         s.cfg.Trace,
	})
}

// Fig5Hop is one hop of a Figure 5 traceroute comparison.
type Fig5Hop struct {
	Hop     int
	Addr    string
	MinMs   float64
	MeanMs  float64
	MaxMs   float64
	Samples int
}

// Fig5Result maps access technology name to its hop series.
type Fig5Result map[string][]Fig5Hop

// Figure5 reproduces the hop-by-hop RTT comparison: 20 traceroutes from a
// London vantage point over Starlink, broadband (campus WiFi) and cellular
// to the N. Virginia VM.
func (s *Study) Figure5() (Fig5Result, error) {
	runs := s.scaled(20, 5)
	kinds := []ispnet.Kind{ispnet.Starlink, ispnet.Broadband, ispnet.Cellular}
	// Each access technology is an independent simulation with its own
	// seeds, so the three run across the study's workers; results land in
	// per-kind slots.
	perKind := make([][]Fig5Hop, len(kinds))
	err := s.runIndexed(len(kinds), func(ki int) error {
		kind := kinds[ki]
		sim := netsim.NewSim(s.cfg.Seed + int64(kind))
		built, err := ispnet.Build(ispnet.Config{
			Kind: kind, City: ispnet.London, Server: ispnet.NVirginiaDC,
			Constellation: s.Constellation, Epoch: s.cfg.Epoch,
			Registry: s.cfg.Registry, Trace: s.cfg.Trace,
			Seed: s.cfg.Seed + 500 + int64(kind),
		})
		if err != nil {
			return err
		}
		hops, err := measure.MTR(sim, built.Path, runs, measure.TracerouteOptions{ProbesPerHop: 3})
		if err != nil {
			return err
		}
		var series []Fig5Hop
		for i, h := range hops {
			if len(h.RTTs) == 0 {
				series = append(series, Fig5Hop{Hop: i + 1, Addr: h.Addr})
				continue
			}
			vals := make([]float64, 0, len(h.RTTs))
			for _, r := range h.RTTs {
				vals = append(vals, float64(r)/float64(time.Millisecond))
			}
			series = append(series, Fig5Hop{
				Hop: i + 1, Addr: h.Addr,
				MinMs: stats.Min(vals), MeanMs: stats.Mean(vals), MaxMs: stats.Max(vals),
				Samples: len(vals),
			})
		}
		perKind[ki] = series
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := Fig5Result{}
	for ki, kind := range kinds {
		out[kind.String()] = perKind[ki]
	}
	return out, nil
}

// Table2Row is one city's queueing-delay estimates.
type Table2Row struct {
	City     string
	Wireless measure.QueueingDelay
	Whole    measure.QueueingDelay
}

// PaperTable2 returns the published Table 2 (milliseconds).
func PaperTable2() []Table2Row {
	return []Table2Row{
		{"NorthCarolina", measure.QueueingDelay{MinMs: 33.4, MedianMs: 48.3, MaxMs: 78.5}, measure.QueueingDelay{MinMs: 39.2, MedianMs: 72.4, MaxMs: 98.7}},
		{"London", measure.QueueingDelay{MinMs: 14.3, MedianMs: 24.3, MaxMs: 53.9}, measure.QueueingDelay{MinMs: 19.6, MedianMs: 33.5, MaxMs: 87.2}},
		{"Barcelona", measure.QueueingDelay{MinMs: 8.1, MedianMs: 16.5, MaxMs: 20}, measure.QueueingDelay{MinMs: 11.2, MedianMs: 18.2, MaxMs: 23.1}},
	}
}

// Table2 reproduces the max-min queueing-delay estimates at the three
// volunteer nodes: the bent-pipe hop vs the whole path (30 probes of 60
// bytes, repeated runs). Runs happen during the local evening, when the
// paper's cron measurements caught loaded cells.
func (s *Study) Table2() ([]Table2Row, error) {
	runs := s.scaled(30, 8)
	probes := s.scaled(30, 10)
	cities := volunteerCities()
	out := make([]Table2Row, len(cities))
	err := s.runIndexed(len(cities), func(i int) error {
		city := cities[i]
		// 20:00 local at each node.
		epoch := s.cfg.Epoch.Add(time.Duration((20-city.UTCOffsetHours)*60) * time.Minute)
		node, err := s.newVolunteerNode(city, epoch, 900+int64(i))
		if err != nil {
			return err
		}
		wireless, whole, err := node.MaxMinQueueing(runs, probes)
		if err != nil {
			return err
		}
		out[i] = Table2Row{City: city.Name, Wireless: wireless, Whole: whole}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table3Row is one city's browser-speedtest medians.
type Table3Row struct {
	City     string
	DownMbps float64
	UpMbps   float64
	N        int
}

// PaperTable3 returns the published Table 3.
func PaperTable3() []Table3Row {
	return []Table3Row{
		{City: "London", DownMbps: 123.2, UpMbps: 11.3},
		{City: "Seattle", DownMbps: 90.3, UpMbps: 6.6},
		{City: "Toronto", DownMbps: 65.8, UpMbps: 6.9},
		{City: "Warsaw", DownMbps: 44.9, UpMbps: 7.7},
	}
}

// Table3 reproduces the browser speedtests: Starlink users in four cities
// test against the Iowa server at assorted waking hours; the row reports
// the median of the runs.
func (s *Study) Table3() ([]Table3Row, error) {
	runsPerCity := s.scaled(12, 6)
	phase := s.scaledDur(8*time.Second, 2*time.Second)
	cities := []ispnet.City{ispnet.London, ispnet.Seattle, ispnet.Toronto, ispnet.Warsaw}
	out := make([]Table3Row, len(cities))
	err := s.runIndexed(len(cities), func(ci int) error {
		city := cities[ci]
		sim := netsim.NewSim(s.cfg.Seed + int64(600+ci))
		built, err := ispnet.Build(ispnet.Config{
			Kind: ispnet.Starlink, City: city, Server: ispnet.IowaDC,
			Constellation: s.Constellation, Epoch: s.cfg.Epoch,
			Registry: s.cfg.Registry, Trace: s.cfg.Trace,
			Short: true, Seed: s.cfg.Seed + int64(700+ci),
		})
		if err != nil {
			return err
		}
		var down, up []float64
		for r := 0; r < runsPerCity; r++ {
			// Spread runs across waking hours (10:00-22:00 local) on
			// successive days.
			localHour := 10 + (r*12)/runsPerCity
			at := time.Duration(r*24+localHour) * time.Hour
			at -= time.Duration(city.UTCOffsetHours * float64(time.Hour))
			if sim.Now() < at {
				sim.RunUntil(at)
			}
			res, err := measure.Speedtest(sim, built.Path, measure.SpeedtestOptions{PhaseDuration: phase})
			if err != nil {
				return err
			}
			down = append(down, res.DownMbps)
			up = append(up, res.UpMbps)
		}
		out[ci] = Table3Row{
			City: city.Name, DownMbps: stats.Median(down), UpMbps: stats.Median(up), N: runsPerCity,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig6aSeries is one node's download-throughput distribution.
type Fig6aSeries struct {
	Label      string
	MedianMbps float64
	CDF        []stats.Point
	N          int
}

// PaperFig6aMedians returns the paper's reported medians (Mbps).
func PaperFig6aMedians() map[string]float64 {
	return map[string]float64{"NorthCarolina": 34.3, "London": 100, "Barcelona": 147}
}

// Figure6a reproduces the per-node iperf download CDFs: each volunteer node
// runs iperf on the half hour against its closest Google Cloud region.
func (s *Study) Figure6a() ([]Fig6aSeries, error) {
	hours := s.scaledDur(36*time.Hour, 8*time.Hour)
	iperfDur := s.scaledDur(5*time.Second, 2*time.Second)
	cities := volunteerCities()
	out := make([]Fig6aSeries, len(cities))
	err := s.runIndexed(len(cities), func(i int) error {
		node, err := s.newVolunteerNode(cities[i], s.cfg.Epoch, 800+int64(i))
		if err != nil {
			return err
		}
		if err := node.RunSchedule(rpinode.Schedule{
			Total: hours, IperfEvery: 30 * time.Minute, IperfDur: iperfDur,
		}); err != nil {
			return err
		}
		var mbps []float64
		for _, sample := range node.IperfSamples() {
			mbps = append(mbps, sample.DownBps/1e6)
		}
		cdf, err := stats.NewCDF(mbps)
		if err != nil {
			return err
		}
		out[i] = Fig6aSeries{
			Label:      cities[i].Name,
			MedianMbps: stats.Median(mbps),
			CDF:        cdf.Points(40),
			N:          len(mbps),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig6bPoint is one instant of the UK throughput time series.
type Fig6bPoint struct {
	Wall     time.Time
	DownMbps float64
	UpMbps   float64
}

// Figure6b reproduces the 48-hour UK download/upload time series starting
// 2022-04-11, sampled every half hour.
func (s *Study) Figure6b() ([]Fig6bPoint, error) {
	epoch := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	total := s.scaledDur(48*time.Hour, 24*time.Hour)
	iperfDur := s.scaledDur(5*time.Second, 2*time.Second)
	node, err := s.newVolunteerNode(ispnet.Wiltshire, epoch, 810)
	if err != nil {
		return nil, err
	}
	if err := node.RunSchedule(rpinode.Schedule{
		Total: total, IperfEvery: 30 * time.Minute, IperfDur: iperfDur,
	}); err != nil {
		return nil, err
	}
	var out []Fig6bPoint
	for _, sample := range node.IperfSamples() {
		out = append(out, Fig6bPoint{
			Wall:     sample.Wall,
			DownMbps: sample.DownBps / 1e6,
			UpMbps:   sample.UpBps / 1e6,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: figure 6b produced no samples")
	}
	return out, nil
}

// Fig6cResult is the packet-loss CCDF of the UDP iperf runs.
type Fig6cResult struct {
	LossPcts []float64
	// CCDFAt5 and CCDFAt10 are the paper's two callouts: the fraction of
	// runs with >= 5% and >= 10% loss (0.12 and 0.06 in the paper).
	CCDFAt5  float64
	CCDFAt10 float64
	MaxPct   float64
	CCDF     []stats.Point
}

// Figure6c reproduces the loss CCDF on the London Starlink receiver.
func (s *Study) Figure6c() (Fig6cResult, error) {
	n := s.scaled(150, 24)
	dur := s.scaledDur(5*time.Second, 3*time.Second)
	node, err := s.newVolunteerNode(ispnet.London, s.cfg.Epoch, 820)
	if err != nil {
		return Fig6cResult{}, err
	}
	if err := node.RunSchedule(rpinode.Schedule{
		Total:      time.Duration(n) * 10 * time.Minute,
		UDPEvery:   10 * time.Minute,
		UDPRateBps: 100e6,
		UDPDur:     dur,
	}); err != nil {
		return Fig6cResult{}, err
	}
	var losses []float64
	for _, u := range node.UDPSamples() {
		losses = append(losses, u.LossPct)
	}
	cdf, err := stats.NewCDF(losses)
	if err != nil {
		return Fig6cResult{}, err
	}
	return Fig6cResult{
		LossPcts: losses,
		CCDFAt5:  cdf.CCDFAt(5),
		CCDFAt10: cdf.CCDFAt(10),
		MaxPct:   stats.Max(losses),
		CCDF:     cdf.Points(40),
	}, nil
}

// Fig7Result is the loss/visibility time series of Figure 7.
type Fig7Result struct {
	// LossPct is per-second measured UDP loss.
	LossPct []float64
	// Serving is the serving satellite's name per second ("" in outage).
	Serving []string
	// DistanceKm maps each satellite that served during the window to its
	// per-second slant range (0 when out of sight).
	DistanceKm map[string][]float64
	// Attribution quantifies the paper's claim that loss clumps follow
	// handovers: the share of all loss falling within 15 s of a
	// serving-satellite change, its expected share under no association,
	// and the lift between them.
	Attribution analysis.EventLossAttribution
	// LossHandoverCorrelation is the point-biserial correlation between
	// "within 15 s of a handover" and per-second loss.
	LossHandoverCorrelation float64
}

// Figure7 reproduces the handover/loss correlation: a 12-minute window of
// per-second UDP loss at the UK receiver alongside the distances of the
// satellites that served it (distance drops to zero when a satellite leaves
// line of sight, which is when the loss clumps appear).
func (s *Study) Figure7() (Fig7Result, error) {
	const window = 12 * time.Minute
	seconds := int(window / time.Second)
	// Weather is disabled so the figure isolates the handover mechanism,
	// like the paper's clear-sky window.
	node, err := s.newVolunteerNodeWx(ispnet.Wiltshire, s.cfg.Epoch, 830, false)
	if err != nil {
		return Fig7Result{}, err
	}
	sim := node.Sim
	path := node.Short.Path
	pipe := node.Short.Pipe

	// Paced UDP probes, 100 per second, counted per second at the server.
	const pps = 100
	received := make([]int, seconds)
	port := 39000
	path.Server().RegisterLocal(port, netsim.HandlerFunc(func(s *netsim.Sim, p *netsim.Packet) {
		// Attribute to the second the probe was sent in.
		sec := int(p.SentAt / time.Second)
		if sec >= 0 && sec < seconds {
			received[sec]++
		}
	}))
	sim.ScheduleSeries(seconds*pps, time.Second/pps, func() {
		path.Client().Handle(sim, &netsim.Packet{
			ID: sim.NextPacketID(), Size: 1250, TTL: 64,
			Src: path.Client().Name, Dst: path.Server().Name, DstPort: port,
			SentAt: sim.Now(),
		})
	})

	res := Fig7Result{
		LossPct:    make([]float64, seconds),
		Serving:    make([]string, seconds),
		DistanceKm: map[string][]float64{},
	}
	servingSet := map[string]bool{}
	for sec := 0; sec < seconds; sec++ {
		sim.RunUntil(time.Duration(sec+1) * time.Second)
		st := pipe.StateAt(sim.Now())
		if st.Serving != nil {
			res.Serving[sec] = st.Serving.Name
			servingSet[st.Serving.Name] = true
		}
	}
	sim.RunUntil(window + 3*time.Second) // drain in-flight probes
	for sec := 0; sec < seconds; sec++ {
		res.LossPct[sec] = 100 * float64(pps-received[sec]) / float64(pps)
	}

	// Quantify the loss/handover association.
	events := make([]bool, seconds)
	prevName := res.Serving[0]
	for sec, name := range res.Serving {
		if name != prevName {
			events[sec] = true
			prevName = name
		}
	}
	if att, err := analysis.AttributeLossToEvents(events, res.LossPct, 15); err == nil {
		res.Attribution = att
	}
	near := make([]bool, seconds)
	for sec, e := range events {
		if !e {
			continue
		}
		for d := 0; d < 15 && sec+d < seconds; d++ {
			near[sec+d] = true
		}
	}
	if r, err := analysis.PointBiserial(near, res.LossPct); err == nil {
		res.LossHandoverCorrelation = r
	}

	// Distance series for every satellite that served during the window.
	for _, sat := range s.Constellation.Sats {
		if !servingSet[sat.Name] {
			continue
		}
		series := make([]float64, seconds)
		for sec := 0; sec < seconds; sec++ {
			la := sat.Look(ispnet.Wiltshire.Loc, s.cfg.Epoch.Add(time.Duration(sec)*time.Second))
			if la.ElevationDeg >= s.Constellation.MinElevationDeg {
				series[sec] = la.RangeKm
			}
		}
		res.DistanceKm[sat.Name] = series
	}
	return res, nil
}
