package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
)

// runIngest runs one ingest workload: set-up, a warm-up, the low and high
// fixed-rate phases, the rate ladder, then the correctness gate. A traced
// run replaces the ladder with the per-layer measurements.
func runIngest(o options) (*report, error) {
	began := time.Now()
	spec, ok := o.cfg.Ingest[o.workload]
	if !ok {
		return nil, fmt.Errorf("config.json has no rates for %s", o.workload)
	}
	edge := o.workload == "ingest-edge-cluster"
	instances := 1
	var (
		in  *ingestInput
		err error
	)
	if edge {
		instances = 2
		in, err = genEdgeInput(uint64(o.seed), nproc(), o.cfg.Edge)
	} else {
		in, err = genBatchInput(uint64(o.seed), nproc())
	}
	if err != nil {
		return nil, err
	}
	rep := newReport()
	stages := map[string]float64{}
	mark := func(stage string) { stages[stage] = time.Since(began).Seconds() }
	mark("input")
	defer func() { rep.Detail["stage_end_s"] = stages }()
	total := time.Duration(o.seconds) * time.Second
	dir := filepath.Join(o.outDir, "wal-"+strconv.Itoa(os.Getpid()))
	rep.Detail["bodies"] = len(in.bodies)
	rep.Detail["mean_records_per_post"] = in.meanRecs
	rep.Detail["records"] = len(in.records)

	// A traced run first measures the high phase untraced on a fresh
	// deployment: the tracing overhead is the traced run's difference.
	var untracedHigh phaseStats
	if o.traced {
		d, err := openDeployment(filepath.Join(dir, "baseline"), instances, false)
		if err != nil {
			return nil, err
		}
		dr := newDriver(in, newLanes(nproc(), d), o.seed)
		dr.reads = edge
		dr.phase(spec.Low, total*5/100, spec, 0, 0)
		untracedHigh = dr.phase(spec.High, 0, spec, minPosts, 0).post
		if err := d.close(); err != nil {
			return nil, err
		}
	}

	// Set-up is a restart: the instances open on WALs that hold the
	// workload's records as the collector logs them, and replay them
	// before /healthz answers. It is repeated and its median reported.
	seed := filepath.Join(dir, "seed")
	logged := in.bodies
	for n, k := 0, 0; k < len(in.bodies); k++ {
		if n += len(in.bodies[k].recs); n >= o.cfg.RestartRecords {
			logged = in.bodies[:k+1]
			break
		}
	}
	rep.Detail["restart_records"] = records(logged)
	if err := seedWAL(seed, logged, instances); err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < o.cfg.SetupReps; i++ {
		rdir := filepath.Join(dir, "restart"+strconv.Itoa(i))
		if err := copyDir(seed, rdir); err != nil {
			return nil, err
		}
		start := time.Now()
		restarted, err := openDeployment(rdir, instances, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := checkRecovered(restarted, logged, i == 0); err != nil {
			rep.fail("restart: %v", err)
		}
		if err := restarted.close(); err != nil {
			return nil, err
		}
	}
	mark("setup")
	d, err := openDeployment(filepath.Join(dir, "run"), instances, o.traced)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := d.close(); err != nil {
			rep.fail("shutdown: %v", err)
		}
		_ = os.RemoveAll(dir)
	}()
	lanes := newLanes(nproc(), d)
	defer func() {
		for _, l := range lanes {
			l.closeIdle()
		}
	}()
	dr := newDriver(in, lanes, o.seed)
	dr.reads = edge
	var tracer *trace.Tracer
	if o.traced {
		tracer = trace.New(trace.Config{Capacity: 1 << 15, MaxPending: 1 << 13, Seed: o.seed})
		dr.tracer, dr.every = tracer, 4
	}

	var all []outcome
	account := func(outs []outcome) { all = append(all, outs...) }
	account(dr.phase(spec.Low, total*5/100, spec, 0, 0).outs)

	rt0 := readRuntime()
	var scr0 []obs.Samples
	if o.traced {
		if scr0, err = d.scrape(); err != nil {
			return nil, err
		}
	}
	lowRun := dr.phase(spec.Low, total*25/100, spec, minPosts, 0)
	account(lowRun.outs)
	low := lowRun.post
	// The high rate runs as several blocks; the reported p50 and p75 are
	// the medians of the blocks' own, so one transient stall on a shared
	// box moves one block, not the result. The p99 pools the blocks.
	var blockP50, blockP75, blockP90, highLat, readLat []float64
	high := phaseStats{Rate: spec.High}
	readLat = append(readLat, lowRun.readLat...)
	for i := 0; i < o.cfg.HighBlocks; i++ {
		br := dr.phase(spec.High, 0, spec, blockPosts, 0)
		account(br.outs)
		p75, _ := at(br.postLat, 0.75)
		p90, _ := at(br.postLat, 0.9)
		blockP50 = append(blockP50, br.post.Latency.P50)
		blockP75 = append(blockP75, p75)
		blockP90 = append(blockP90, p90)
		highLat = append(highLat, br.postLat...)
		readLat = append(readLat, br.readLat...)
		high.Requests += br.post.Requests
		high.Failed += br.post.Failed
		high.Records += br.post.Records
		high.Wall += br.post.Wall
		high.LagP99 = max(high.LagP99, br.post.LagP99)
	}
	high.Achieved = float64(high.Records) / high.Wall
	high.Latency = summarize(highLat)
	rt1 := readRuntime()
	if low.Failed > 0 || high.Failed > 0 {
		rep.fail("%d POSTs failed at the low rate, %d at the high rate", low.Failed, high.Failed)
	}
	if low.Latency.TailQ < 0.99 {
		rep.fail("low phase has %d POSTs, too few for a p99", low.Latency.N)
	}
	rep.Detail["low"], rep.Detail["high"] = low, high
	highP99, ok := at(highLat, 0.99)
	if !ok {
		rep.fail("high phase has %d POSTs, too few for a p99", len(highLat))
	}
	rep.Detail["high_block_p50_ms"], rep.Detail["high_block_p75_ms"], rep.Detail["high_block_p90_ms"], rep.Detail["high_p99_ms"] = blockP50, blockP75, blockP90, highP99
	reads := summarize(readLat)
	if edge {
		rep.Detail["snapshot_reads"] = reads
	}

	var maxRPS float64
	if !o.traced {
		var probes []map[string]any
		var top bool
		mark("phases")
		maxRPS, probes, top = ladder(dr, spec, total*35/100, account)
		mark("ladder")
		rep.Detail["ladder"] = probes
		switch {
		case maxRPS == 0:
			rep.fail("no ladder step met the SLO: capacity is below %.0f records/s", spec.LadderFrom)
		case top:
			rep.Detail["ladder_saturated"] = true
			fmt.Fprintf(os.Stderr, "perfbench: capacity reached the ladder's top step (%.0f records/s); extend ladder_steps\n", maxRPS)
		}
	}

	if err := dr.verify(d); err != nil {
		rep.fail("ingest: %v", err)
	}
	mark("verify")
	for _, oc := range all {
		if oc.Skipped {
			continue
		}
		rep.Attempted++
		if oc.Err != nil {
			rep.Failed++
		}
	}
	rep.Detail["error_frac"] = float64(rep.Failed) / float64(rep.Attempted)

	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rep.Metrics["p50_ms"] = metric{median(blockP50), "ms"}
	rep.Metrics["tail_ms"] = metric{median(blockP75), "ms"}
	rep.Metrics["capacity"] = metric{maxRPS, "1/s"}
	rep.Detail["setup_s_all"] = setups

	if o.traced {
		scr1, err := d.scrape()
		if err != nil {
			return nil, err
		}
		wall := low.Wall + high.Wall
		recs := float64(low.Records + high.Records)
		L := rep.Layers
		ingestLayers(L, scr0, scr1, wall, recs)
		runtimeLayers(L, rt0, rt1, recs, wall)
		L["harness.gen_lag_p99_ms"] = metric{high.LagP99, "ms"}
		L["harness.achieved_rps"] = metric{high.Achieved, "1/s"}
		L["harness.ack_high_p99_ms"] = metric{highP99, "ms"}
		L["harness.ack_low_p50_ms"] = metric{low.Latency.P50, "ms"}
		lowP99, _ := at(lowRun.postLat, 0.99)
		L["harness.ack_low_p99_ms"] = metric{lowP99, "ms"}
		L["harness.error_frac"] = metric{float64(rep.Failed) / float64(rep.Attempted), "ratio"}
		if edge {
			L["cluster.snapshot_p50_ms"] = metric{reads.P50, "ms"}
			L["cluster.snapshot_tail_ms"] = metric{reads.Tail, "ms"}
		}
		L["trace.overhead_frac"] = metric{median(blockP50)/untracedHigh.Latency.P50 - 1, "ratio"}
		// wal_commit_batch_records counts WAL records (frames or rows) per commit.
		commitEntries := max(1, L["wal.commit_batch_records_mean"].Value)
		if err := replayLayers(L, rep.Detail, in.bodies, commitEntries, o.outDir, d, tracer); err != nil {
			return nil, err
		}
		names := []string{"bench"}
		for i := range d.tracers {
			names = append(names, fmt.Sprintf("node%d", i))
		}
		traces := assembleTraces(names, append([]*trace.Tracer{tracer}, d.tracers...))
		spanLayers(L, rep.Detail, traces, dr.posts)
		if err := writeTraceFile(rep.Detail, o, traces); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ladder walks the fixed rate ladder by bisection and returns the highest
// step that met the SLO: no failed request, ack p99 within the limit, and
// a generator that kept up (its lateness over the second half of the probe
// stays within the limit, so the backlog did not grow). It returns 0 when
// no step passed, and top is true when the highest step passed, so the
// capacity may lie above the ladder.
func ladder(dr *driver, spec ingestSpec, budget time.Duration, account func([]outcome)) (rps float64, log []map[string]any, top bool) {
	rate := func(k int) float64 { return spec.LadderFrom * math.Pow(spec.LadderRatio, float64(k)) }
	probes := int(math.Ceil(math.Log2(float64(spec.LadderSteps + 1))))
	each := max(1500*time.Millisecond, budget/time.Duration(probes))
	// A request that starts twice the limit late has every request due in
	// the limit before it waiting past the limit too: 3.3% of a 1.5 s
	// probe for a 50 ms limit, so the probe's p99 fails. It stops there
	// rather than draining its backlog.
	giveUp := 2 * time.Duration(spec.SLOP99Ms*float64(time.Millisecond))
	lo, hi := -1, spec.LadderSteps
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		// A step passes if either of two probes passes: a transient stall
		// on a shared box must not end the search early.
		pass := false
		for try := 0; try < 2 && !pass; try++ {
			pr := dr.phase(rate(mid), each, spec, 0, giveUp)
			account(pr.outs)
			p99, _ := at(pr.postLat, 0.99)
			lag := lastHalfLagP99(pr.outs)
			pass = pr.post.Failed == 0 && pr.post.Skipped == 0 && p99 <= spec.SLOP99Ms && lag <= spec.SLOP99Ms
			log = append(log, map[string]any{"rps": rate(mid), "p99_ms": finite(p99), "lag_p99_ms": finite(lag), "failed": pr.post.Failed, "skipped": pr.post.Skipped, "pass": pass})
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, log, false
	}
	return rate(lo), log, lo == spec.LadderSteps-1
}
