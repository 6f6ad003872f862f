package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"starlinkview/internal/cc"
	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// layerUnits is every per-layer metric a traced run reports. A workload
// that does not exercise a layer reports 0 for it: no work was done there.
var layerUnits = func() map[string]string {
	m := map[string]string{
		"dataset.encode_ns_per_rec":     "ns",
		"dataset.csv_encode_ns_per_rec": "ns",
		"dataset.view_parse_ns_per_rec": "ns",
		"dataset.csv_parse_ns_per_rec":  "ns",
		"collector.offer_ns_per_rec":    "ns",
		"collector.drain_ns_per_rec":    "ns",
		"collector.queue_wait_p50_ms":   "ms",
		"collector.queue_wait_p99_ms":   "ms",
		"collector.snapshot_ms":         "ms",
		"collector.merge_ms":            "ms",
		"http.ingest_p50_ms":            "ms",
		"http.ingest_p99_ms":            "ms",
		"wal.append_ns_per_rec":         "ns",
		"wal.fsync_p50_ms":              "ms",
		"wal.fsyncs_per_s":              "1/s",
		"wal.commit_batch_records_mean": "count",
		"wal.commit_wait_p50_ms":        "ms",
		"wal.commit_wait_p99_ms":        "ms",
		"wal.bytes_per_rec":             "B",
		"cluster.forwarded_frac":        "ratio",
		"cluster.forward_p50_ms":        "ms",
		"cluster.forward_p99_ms":        "ms",
		"cluster.forward_errors":        "count",
		"cluster.snapshot_p50_ms":       "ms",
		"cluster.snapshot_tail_ms":      "ms",
		"runtime.allocs_per_rec":        "count",
		"runtime.alloc_bytes_per_rec":   "B",
		"runtime.gc_cpu_frac":           "ratio",
		"runtime.cpu_util":              "ratio",
		"extension.browse_s":            "s",
		"extension.records":             "count",
		"extension.browse_us_per_rec":   "us",
		"orbit.visible_from_us":         "us",
		"webperf.load_page_us":          "us",
		"bentpipe.handovers":            "count",
		"netsim.packets":                "count",
		"netsim.ns_per_packet":          "ns",
		"measure.iperf_udp_s":           "s",
		"runtime.alloc_bytes.fig8":      "B",
		"runtime.gc_cpu_frac.fig8":      "ratio",
		"harness.gen_lag_p99_ms":        "ms",
		"harness.achieved_rps":          "1/s",
		"harness.ack_high_p99_ms":       "ms",
		"harness.ack_low_p50_ms":        "ms",
		"harness.ack_low_p99_ms":        "ms",
		"harness.error_frac":            "ratio",
		"trace.overhead_frac":           "ratio",
		"trace.stage_cover_frac":        "ratio",
		"trace.server_cover_frac":       "ratio",
	}
	for _, algo := range cc.Names() {
		m["measure.iperf_tcp_s."+algo] = "s"
	}
	for _, st := range stages {
		m["trace.self_share."+st.metric] = "ratio"
	}
	return m
}()

// completeLayers fills the per-layer metrics a workload did not exercise
// with 0 and rejects names missing from layerUnits.
func completeLayers(L map[string]metric) error {
	for name, m := range L {
		u, ok := layerUnits[name]
		if !ok {
			return fmt.Errorf("per-layer metric %s is not declared", name)
		}
		if m.Unit != u {
			return fmt.Errorf("per-layer metric %s in %s, declared %s", name, m.Unit, u)
		}
	}
	for name, u := range layerUnits {
		if m, ok := L[name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			L[name] = metric{0, u}
		}
	}
	return nil
}

// runtimeSnap is the process's allocation and CPU counters at one instant.
type runtimeSnap struct {
	allocs, allocBytes uint64
	gcCPU, idle, total float64
	rusageCPU          time.Duration
	at                 time.Time
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return runtimeSnap{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		idle:       s[3].Value.Float64(),
		total:      s[4].Value.Float64(),
		rusageCPU:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		at:         time.Now(),
	}
}

// gcFrac is the share of the CPU the process used that went to GC.
func gcFrac(a, b runtimeSnap) float64 {
	used := (b.total - b.idle) - (a.total - a.idle)
	if used <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / used
}

func runtimeLayers(L map[string]metric, a, b runtimeSnap, recs, wall float64) {
	L["runtime.allocs_per_rec"] = metric{float64(b.allocs-a.allocs) / recs, "count"}
	L["runtime.alloc_bytes_per_rec"] = metric{float64(b.allocBytes-a.allocBytes) / recs, "B"}
	L["runtime.gc_cpu_frac"] = metric{gcFrac(a, b), "ratio"}
	L["runtime.cpu_util"] = metric{(b.rusageCPU - a.rusageCPU).Seconds() / (b.at.Sub(a.at).Seconds() * float64(nproc())), "ratio"}
}

// scrapeDelta reads counter and histogram deltas between two /metrics
// scrapes of the same instances, summed over instances.
type scrapeDelta struct{ prev, now []obs.Samples }

func (s scrapeDelta) counter(name string, labels map[string]string) float64 {
	var v float64
	for i := range s.now {
		v += s.now[i].Sum(name, labels) - s.prev[i].Sum(name, labels)
	}
	return v
}

// quantileMS is the q-quantile, in ms, of the observations a histogram
// gained between the scrapes, over every label set in paths (or all when
// paths is empty).
func (s scrapeDelta) quantileMS(q float64, name, key string, values ...string) float64 {
	sets := []map[string]string{nil}
	if key != "" {
		sets = sets[:0]
		for _, v := range values {
			sets = append(sets, map[string]string{key: v})
		}
	}
	var bounds []float64
	var now, prev []uint64
	for i := range s.now {
		for _, l := range sets {
			b, c := s.now[i].BucketCounts(name, l)
			_, p := s.prev[i].BucketCounts(name, l)
			if len(c) == 0 {
				continue
			}
			if bounds == nil {
				bounds, now, prev = b, make([]uint64, len(c)), make([]uint64, len(c))
			}
			if len(c) != len(now) {
				continue
			}
			for j := range c {
				now[j] += c[j]
				if j < len(p) {
					prev[j] += p[j]
				}
			}
		}
	}
	v, ok := obs.QuantileFromBucketDeltas(q, bounds, now, prev)
	if !ok {
		return 0
	}
	return v * 1e3
}

// ingestLayers derives the server-side per-layer metrics from /metrics
// deltas over the measured phases.
func ingestLayers(L map[string]metric, prev, now []obs.Samples, wall, recs float64) {
	s := scrapeDelta{prev, now}
	ingestPaths := []string{collector.PathIngestBatch, collector.PathIngestExtension}
	L["collector.queue_wait_p50_ms"] = metric{s.quantileMS(0.5, "collector_apply_latency_seconds", ""), "ms"}
	L["collector.queue_wait_p99_ms"] = metric{s.quantileMS(0.99, "collector_apply_latency_seconds", ""), "ms"}
	L["http.ingest_p50_ms"] = metric{s.quantileMS(0.5, "http_request_duration_seconds", "path", ingestPaths...), "ms"}
	L["http.ingest_p99_ms"] = metric{s.quantileMS(0.99, "http_request_duration_seconds", "path", ingestPaths...), "ms"}
	L["wal.fsyncs_per_s"] = metric{s.counter("wal_fsyncs_total", nil) / wall, "1/s"}
	if n := s.counter("wal_commit_batch_records_count", nil); n > 0 {
		L["wal.commit_batch_records_mean"] = metric{s.counter("wal_commit_batch_records_sum", nil) / n, "count"}
	}
	L["wal.commit_wait_p50_ms"] = metric{s.quantileMS(0.5, "wal_commit_wait_seconds", ""), "ms"}
	L["wal.commit_wait_p99_ms"] = metric{s.quantileMS(0.99, "wal_commit_wait_seconds", ""), "ms"}
	L["wal.bytes_per_rec"] = metric{s.counter("wal_appended_bytes_total", nil) / recs, "B"}
	L["cluster.forwarded_frac"] = metric{s.counter("cluster_forwarded_records_total", nil) / recs, "ratio"}
	L["cluster.forward_p50_ms"] = metric{s.quantileMS(0.5, "cluster_forward_latency_seconds", ""), "ms"}
	L["cluster.forward_p99_ms"] = metric{s.quantileMS(0.99, "cluster_forward_latency_seconds", ""), "ms"}
	L["cluster.forward_errors"] = metric{s.counter("cluster_forward_errors_total", nil), "count"}
}

// The real-fsync replay stops at maxSyncs syncs or after fsyncBudget.
const (
	maxSyncs    = 200
	fsyncBudget = 2 * time.Second
)

// walEntry is one WAL record as the collector logs a body: a frame per
// batch body, a CSV row per record of a CSV body.
type walEntry struct {
	kind    byte
	payload []byte
}

func walEntries(bodies []body) ([]walEntry, error) {
	var out []walEntry
	for _, b := range bodies {
		if b.batch {
			out = append(out, walEntry{collector.WALKindExtensionBatch, dataset.MarshalBatch(b.recs)})
			continue
		}
		for _, r := range b.recs {
			row, err := collector.EncodeExtensionBatch([]extension.Record{r})
			if err != nil {
				return nil, err
			}
			out = append(out, walEntry{collector.WALKindExtension, row})
		}
	}
	return out, nil
}

// timed runs fn repeatedly until at least minDur has passed and returns
// the mean time per call.
func timed(minDur time.Duration, fn func() error) (time.Duration, error) {
	start := time.Now()
	n := 0
	for {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
		if el := time.Since(start); el >= minDur {
			return el / time.Duration(n), nil
		}
	}
}

// replayLayers times calls into each ingest layer's public functions over
// the workload's own bodies: client encode, server parse, the WAL-less
// aggregator's offer and drain, WAL appends, and the WAL's device flush
// with commitEntries WAL records per sync. d, when set, is the
// drained deployment whose end-of-run state the snapshot and merge
// replays read; without one they read the replay aggregator.
func replayLayers(L map[string]metric, detail map[string]any, bodies []body, commitEntries float64, scratch string, d *deployment, tracer *trace.Tracer) error {
	var recs int
	frames := make([][]byte, len(bodies))
	for i, b := range bodies {
		recs += len(b.recs)
		frames[i] = dataset.MarshalBatch(b.recs)
	}
	perRec := func(d time.Duration) float64 { return float64(d) / float64(recs) }
	const minDur = 200 * time.Millisecond
	span := func(name string) *trace.Span {
		return tracer.StartRoot("layer."+name, trace.SpanContext{Sampled: true})
	}

	sp := span("dataset.encode")
	var enc dataset.BatchEncoder
	t, _ := timed(minDur, func() error {
		for _, b := range bodies {
			enc.Encode(b.recs)
		}
		return nil
	})
	sp.Finish()
	L["dataset.encode_ns_per_rec"] = metric{perRec(t), "ns"}

	sp = span("dataset.csv_encode")
	csvBodies := make([][]byte, len(bodies))
	t, err := timed(minDur, func() error {
		for i, b := range bodies {
			var err error
			if csvBodies[i], err = collector.EncodeExtensionBatch(b.recs); err != nil {
				return err
			}
		}
		return nil
	})
	sp.Finish()
	if err != nil {
		return err
	}
	L["dataset.csv_encode_ns_per_rec"] = metric{perRec(t), "ns"}

	sp = span("dataset.view_parse")
	var pool dataset.ViewPool
	t, err = timed(minDur, func() error {
		for _, f := range frames {
			v, err := pool.Parse(f)
			if err != nil {
				return err
			}
			pool.Put(v)
		}
		return nil
	})
	sp.Finish()
	if err != nil {
		return err
	}
	L["dataset.view_parse_ns_per_rec"] = metric{perRec(t), "ns"}

	sp = span("dataset.csv_parse")
	var hb bytes.Buffer
	if err := dataset.WriteExtensionCSV(&hb, nil); err != nil {
		return err
	}
	header := hb.Bytes()
	t, err = timed(minDur, func() error {
		for _, c := range csvBodies {
			if _, err := dataset.ReadExtensionCSV(bytes.NewReader(append(header[:len(header):len(header)], c...))); err != nil {
				return err
			}
		}
		return nil
	})
	sp.Finish()
	if err != nil {
		return err
	}
	L["dataset.csv_parse_ns_per_rec"] = metric{perRec(t), "ns"}

	// Offer (partition + enqueue) and drain (through Close, adding shard
	// apply) on a WAL-less aggregator; best of three to shed scheduler
	// noise.
	sp = span("collector.offer_drain")
	var offers, drains []float64
	var agg *collector.Aggregator
	for rep := 0; rep < 3; rep++ {
		views := make([]*dataset.BatchView, len(frames))
		for i, f := range frames {
			v, err := pool.Parse(f)
			if err != nil {
				return err
			}
			views[i] = v
		}
		agg = collector.NewAggregator(collector.Config{Shards: 4})
		start := time.Now()
		for _, v := range views {
			n := v.Len()
			if acc, _ := agg.OfferBatchView(v, trace.SpanContext{}); acc != n {
				return fmt.Errorf("replay aggregator accepted %d of %d records", acc, n)
			}
		}
		offered := time.Since(start)
		if err := agg.Close(); err != nil {
			return err
		}
		offers = append(offers, perRec(offered))
		drains = append(drains, perRec(time.Since(start)))
	}
	sp.Finish()
	sort.Float64s(offers)
	sort.Float64s(drains)
	L["collector.offer_ns_per_rec"] = metric{offers[0], "ns"}
	L["collector.drain_ns_per_rec"] = metric{drains[0], "ns"}

	sp = span("wal.append")
	entries, err := walEntries(bodies)
	if err != nil {
		return err
	}
	dir := filepath.Join(scratch, "wal-replay")
	defer os.RemoveAll(dir)
	w, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		return err
	}
	start := time.Now()
	for _, e := range entries {
		if _, err := w.Append(e.kind, e.payload); err != nil {
			return err
		}
	}
	appended := time.Since(start)
	sp.Finish()
	L["wal.append_ns_per_rec"] = metric{perRec(appended), "ns"}

	// The device flush the ingest deployments skip (see noSyncFS), on the
	// real filesystem: the entries appended again with a Sync after every
	// commitEntries of them, as one group commit covers them.
	sp = span("wal.fsync")
	var syncs []float64
	deadline := time.Now().Add(fsyncBudget)
	pending := 0
	for i := 0; len(syncs) < maxSyncs && time.Now().Before(deadline); i++ {
		e := entries[i%len(entries)]
		if _, err := w.Append(e.kind, e.payload); err != nil {
			return err
		}
		if pending++; float64(pending) >= commitEntries {
			t0 := time.Now()
			if err := w.Sync(); err != nil {
				return err
			}
			syncs = append(syncs, ms(time.Since(t0)))
			pending = 0
		}
	}
	sp.Finish()
	if err := w.Close(); err != nil {
		return err
	}
	L["wal.fsync_p50_ms"] = metric{median(syncs), "ms"}
	detail["wal_fsyncs_timed"] = len(syncs)

	// Snapshot and merge over the end-of-run state.
	aggs := []*collector.Aggregator{agg, agg}
	if d != nil {
		aggs = aggs[:0]
		for _, srv := range d.servers {
			aggs = append(aggs, srv.Aggregator())
		}
		if len(aggs) == 1 {
			aggs = append(aggs, aggs[0])
		}
	}
	sp = span("collector.snapshot")
	t, _ = timed(minDur, func() error {
		aggs[0].Snapshot()
		return nil
	})
	sp.Finish()
	L["collector.snapshot_ms"] = metric{ms(t), "ms"}
	sp = span("collector.merge")
	t, err = timed(minDur, func() error {
		var states []collector.MergeState
		for _, a := range aggs {
			st, err := a.Snapshot().ExportState()
			if err != nil {
				return err
			}
			states = append(states, st)
		}
		_, err := collector.MergeStates(states...)
		return err
	})
	sp.Finish()
	if err != nil {
		return err
	}
	L["collector.merge_ms"] = metric{ms(t), "ms"}
	detail["replay_records"] = recs
	return nil
}

// writeTraceFile saves a traced run's spans where tools/traceview reads
// them.
func writeTraceFile(detail map[string]any, o options, traces []trace.Trace) error {
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
	if err := writeTraces(path, traces); err != nil {
		return err
	}
	detail["trace_file"] = path
	detail["traces"] = len(traces)
	return nil
}
