package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"starlinkview/internal/cluster"
	"starlinkview/internal/collector"
	"starlinkview/internal/core"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// Read ops share the request schedule with POSTs: a non-negative op is a
// body index, these are the dashboard reads.
const (
	opSnapshot = -1
	opMetrics  = -2
)

// body is one POST: its records, as the client holds them and as the
// server decodes them off the wire (the reference aggregator is fed the
// latter, so wire quantisation cannot fail the gate).
type body struct {
	recs  []extension.Record
	wire  []extension.Record
	batch bool
}

// ingestInput is a workload's pre-generated traffic.
type ingestInput struct {
	bodies   []body
	meanRecs float64
	records  []extension.Record // every distinct record, for layer replays
}

// genBatchInput is ingest-batch's traffic: one SmallCampaign-shaped chunk
// cut into 1,000-record SLB1 frames, cmd/campaign's batch size.
func genBatchInput(seed uint64, workers int) (*ingestInput, error) {
	cfg := core.SmallCampaign()
	cfg.Seed, cfg.Chunks, cfg.Workers = seed, 1, workers
	recs, err := campaignChunk(cfg)
	if err != nil {
		return nil, err
	}
	in := &ingestInput{records: recs}
	for off := 0; off+frameRecords <= len(recs); off += frameRecords {
		in.bodies = append(in.bodies, body{recs: recs[off : off+frameRecords], batch: true})
	}
	return in, in.finish()
}

// genEdgeInput is ingest-edge-cluster's traffic: a MegaCampaign-shaped
// chunk (300 cities, 10,000 domains) as browsers running the extension
// upload it. Each browser posts through a collector.Client with its
// default flush rule: a CSV body on every FlushEvery tick that has
// records, or as soon as BatchSize records are buffered. So a body holds
// one user's records from one flush window of the campaign's own clock.
func genEdgeInput(seed uint64, workers int, spec edgeSpec) (*ingestInput, error) {
	cfg := core.MegaCampaign()
	cfg.Seed, cfg.Chunks, cfg.Users, cfg.Workers = seed, 1, spec.Users, workers
	recs, err := campaignChunk(cfg)
	if err != nil {
		return nil, err
	}
	in := &ingestInput{records: recs}
	type window struct {
		user string
		tick int64
	}
	flush := time.Duration(spec.FlushEveryMs) * time.Millisecond
	open := map[window]int{} // window -> index of its body being filled
	for _, r := range recs {
		w := window{r.UserID, r.At.UnixNano() / int64(flush)}
		b, ok := open[w]
		if !ok || len(in.bodies[b].recs) == spec.BatchSize {
			b = len(in.bodies)
			open[w] = b
			in.bodies = append(in.bodies, body{})
		}
		in.bodies[b].recs = append(in.bodies[b].recs, r)
	}
	return in, in.finish()
}

func campaignChunk(cfg core.CampaignConfig) ([]extension.Record, error) {
	camp, err := core.NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	var out []extension.Record
	err = camp.RunChunk(func(recs []extension.Record) error {
		out = recs
		return nil
	})
	if err == nil && len(out) < frameRecords {
		err = fmt.Errorf("campaign chunk holds %d records, fewer than one frame", len(out))
	}
	return out, err
}

// finish decodes every body as the server will and fixes the mean size.
func (in *ingestInput) finish() error {
	if len(in.bodies) == 0 {
		return fmt.Errorf("workload generated no bodies")
	}
	total := 0
	for i := range in.bodies {
		b := &in.bodies[i]
		var err error
		if b.batch {
			b.wire, err = dataset.UnmarshalBatch(dataset.MarshalBatch(b.recs))
		} else {
			b.wire, err = csvRoundTrip(b.recs)
		}
		if err != nil {
			return fmt.Errorf("wire round trip: %w", err)
		}
		total += len(b.recs)
	}
	in.meanRecs = float64(total) / float64(len(in.bodies))
	return nil
}

func csvRoundTrip(recs []extension.Record) ([]extension.Record, error) {
	payload, err := collector.EncodeExtensionBatch(recs)
	if err != nil {
		return nil, err
	}
	rows, err := csv.NewReader(bytes.NewReader(payload)).ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([]extension.Record, len(rows))
	for i, row := range rows {
		if out[i], err = dataset.UnmarshalExtensionRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// deployment is the system under test: one collector, or a cluster of
// nodes, all in this process.
type deployment struct {
	servers []*collector.Server
	nodes   []*cluster.Node
	tracers []*trace.Tracer
	dir     string
}

// openDeployment opens n collectors with collectord's defaults (4 shards,
// WAL on, 2 ms group commit; see noSyncFS for the flush) and, for n > 1,
// wires them into a cluster. It returns once every instance answers
// /healthz.
func openDeployment(dir string, n int, traced bool) (*deployment, error) {
	d := &deployment{dir: dir}
	for i := 0; i < n; i++ {
		cfg := collector.Config{
			Shards:   4,
			Registry: obs.NewRegistry(),
			WAL: collector.WALConfig{
				Dir:           filepath.Join(dir, fmt.Sprintf("node%d", i)),
				FsyncInterval: walFsyncInterval,
				FS:            noSyncFS{},
			},
		}
		if traced {
			cfg.Tracer = trace.New(trace.Config{Capacity: 1 << 15, MaxPending: 1 << 13, MaxSpans: 512})
			d.tracers = append(d.tracers, cfg.Tracer)
		}
		srv, err := collector.OpenServer(cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
	}
	if n > 1 {
		for i, srv := range d.servers {
			var peers []string
			for j, p := range d.servers {
				if j != i {
					peers = append(peers, p.Addr())
				}
			}
			var tr *trace.Tracer
			if traced {
				tr = d.tracers[i]
			}
			node, err := cluster.NewNode(cluster.NodeConfig{Server: srv, Self: srv.Addr(), Peers: peers, Tracer: tr})
			if err != nil {
				d.close()
				return nil, err
			}
			d.nodes = append(d.nodes, node)
		}
	}
	for _, srv := range d.servers {
		if err := waitHealthy(srv.URL()); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + collector.PathHealthz)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// drain waits until every accepted record has been applied.
func (d *deployment) drain() (accepted uint64, err error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		accepted = 0
		done := true
		for _, srv := range d.servers {
			st := srv.Aggregator().Stats()
			accepted += st.Accepted
			done = done && st.Processed == st.Accepted
		}
		if done {
			return accepted, nil
		}
		if time.Now().After(deadline) {
			return accepted, fmt.Errorf("shards did not drain")
		}
		time.Sleep(time.Millisecond)
	}
}

// cityTable is the deployment's merged city table, through the same
// ExportState/MergeStates path /cluster/snapshot serves.
func (d *deployment) cityTable() ([]collector.CityJSON, error) {
	if len(d.servers) == 1 {
		return d.servers[0].Aggregator().Snapshot().CityTableJSON(), nil
	}
	var states []collector.MergeState
	for _, srv := range d.servers {
		st, err := srv.Aggregator().Snapshot().ExportState()
		if err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	snap, err := collector.MergeStates(states...)
	if err != nil {
		return nil, err
	}
	return snap.CityTableJSON(), nil
}

func (d *deployment) close() error {
	var first error
	for _, n := range d.nodes {
		n.Close()
	}
	for _, srv := range d.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	if err := os.RemoveAll(d.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// scrape reads every instance's /metrics.
func (d *deployment) scrape() ([]obs.Samples, error) {
	out := make([]obs.Samples, len(d.servers))
	for i, srv := range d.servers {
		resp, err := http.Get(srv.URL() + collector.PathMetrics)
		if err != nil {
			return nil, err
		}
		out[i], err = obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lane is one client connection. Lanes are bound to instances
// round-robin, so with two instances and two lanes consecutive POSTs are
// sprayed across both (cluster.RouteRR) and about half of each body
// belongs to the other instance.
type lane struct {
	client *http.Client
	base   string
	enc    dataset.BatchEncoder
}

func newLanes(n int, d *deployment) []*lane {
	out := make([]*lane, n)
	for i := range out {
		out[i] = &lane{
			client: &http.Client{
				Timeout:   requestTimeout,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			},
			base: d.servers[i%len(d.servers)].URL(),
		}
	}
	return out
}

func (l *lane) closeIdle() { l.client.CloseIdleConnections() }

// post encodes and sends one body and checks its acknowledgement. sp, when
// non-nil, is the request's sampled span: encode and the HTTP exchange
// become its children and the traceparent carries it to the server.
func (l *lane) post(b *body, tracer *trace.Tracer, sp *trace.Span) error {
	enc := tracer.StartChild(sp.Context(), "bench.encode")
	var payload []byte
	path, ctype := collector.PathIngestBatch, collector.BatchContentType
	if b.batch {
		payload = l.enc.Encode(b.recs)
	} else {
		var err error
		if payload, err = collector.EncodeExtensionBatch(b.recs); err != nil {
			return err
		}
		path, ctype = collector.PathIngestExtension, collector.ExtensionContentType
	}
	enc.SetInt("records", int64(len(b.recs)))
	enc.Finish()
	hs := tracer.StartChild(sp.Context(), "bench.http")
	defer hs.Finish()
	req, err := http.NewRequest(http.MethodPost, l.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ctype)
	if hs != nil {
		req.Header.Set(trace.TraceparentHeader, hs.Context().Traceparent())
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	var reply collector.IngestReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return fmt.Errorf("POST %s: reply: %w", path, err)
	}
	if reply.Dropped != 0 || reply.Accepted+reply.Forwarded != len(b.recs) {
		return fmt.Errorf("POST %s: %d records acked as %+v", path, len(b.recs), reply)
	}
	return nil
}

// get performs a dashboard read and discards the body.
func (l *lane) get(path string) error {
	resp, err := l.client.Get(l.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return nil
}

// driver runs open-loop phases against a deployment and keeps the ack
// ledger the correctness gate replays.
type driver struct {
	in     *ingestInput
	lanes  []*lane
	acks   []atomic.Int64 // per body
	tracer *trace.Tracer  // bench-side spans; nil when untraced
	every  int            // trace one POST in every
	seq    atomic.Int64   // POSTs sent, for trace sampling
	sent   atomic.Int64   // POSTs scheduled, for body rotation
	reads  bool
	rng    *rand.Rand // arrival times, from the workload seed

	mu    sync.Mutex
	posts []string // trace IDs of the traced POSTs
}

func newDriver(in *ingestInput, lanes []*lane, seed int64) *driver {
	return &driver{in: in, lanes: lanes, acks: make([]atomic.Int64, len(in.bodies)), rng: rand.New(rand.NewSource(seed))}
}

func (dr *driver) send(l int, r request) error {
	ln := dr.lanes[l]
	switch r.Op {
	case opSnapshot:
		return ln.get(cluster.PathClusterSnapshot)
	case opMetrics:
		return ln.get(cluster.PathClusterMetrics)
	}
	b := &dr.in.bodies[r.Op]
	var sp *trace.Span
	if dr.tracer != nil && dr.seq.Add(1)%int64(dr.every) == 0 {
		sp = dr.tracer.StartRoot("bench.post", trace.SpanContext{Sampled: true})
		sp.SetInt("records", int64(len(b.recs)))
		dr.mu.Lock()
		dr.posts = append(dr.posts, sp.Context().Trace.String())
		dr.mu.Unlock()
	}
	err := ln.post(b, dr.tracer, sp)
	sp.SetError(err)
	sp.Finish()
	if err == nil {
		dr.acks[r.Op].Add(1)
	}
	return err
}

// phaseResult is one open-loop phase: POST and snapshot-read statistics
// with their raw latencies, and every outcome for the failure count.
type phaseResult struct {
	post, read       phaseStats
	postLat, readLat []float64
	outs             []outcome
}

// phase offers recRate records/s for d, plus the dashboard reads when the
// workload has them. A measured phase is stretched to at least atLeast
// POSTs. giveUp, when positive, ends the phase once the generator runs
// that late (see runOpenLoop).
func (dr *driver) phase(recRate float64, d time.Duration, spec ingestSpec, atLeast int, giveUp time.Duration) phaseResult {
	postRate := recRate / dr.in.meanRecs
	n := count(postRate, d)
	if n < atLeast {
		n = atLeast
		d = time.Duration(float64(n) / postRate * float64(time.Second))
	}
	base := int(dr.sent.Add(int64(n))) - n // rotate through the bodies across phases
	reqs := schedule(dr.rng, postRate, n, func(i int) int { return (base + i) % len(dr.in.bodies) })
	if dr.reads {
		reqs = merge(reqs, schedule(dr.rng, spec.SnapshotRPS, count(spec.SnapshotRPS, d), func(int) int { return opSnapshot }))
		reqs = merge(reqs, schedule(dr.rng, spec.MetricsRPS, count(spec.MetricsRPS, d), func(int) int { return opMetrics }))
	}
	var pr phaseResult
	var wall time.Duration
	pr.outs, wall = runOpenLoop(reqs, len(dr.lanes), giveUp, dr.send)
	recs := func(op int) int { return len(dr.in.bodies[op].recs) }
	pr.post, pr.postLat = condense(pr.outs, wall, recRate, func(op int) bool { return op >= 0 }, recs)
	pr.read, pr.readLat = condense(pr.outs, wall, spec.SnapshotRPS, func(op int) bool { return op == opSnapshot }, func(int) int { return 0 })
	return pr
}

// merge interleaves two schedules by due time.
func merge(a, b []request) []request {
	out := make([]request, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Due <= b[j].Due) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// lastHalfLagP99 is the generator's lateness over the second half of a
// phase's POSTs: it stays small unless the backlog grows.
func lastHalfLagP99(outs []outcome) float64 {
	var lag []float64
	for _, o := range outs[len(outs)/2:] {
		if o.Op >= 0 && !o.Skipped {
			lag = append(lag, ms(o.Lag))
		}
	}
	v, _ := at(lag, 0.99)
	return v
}

// ackedRecords is the number of records the ledger says were acked.
func (dr *driver) ackedRecords() uint64 {
	var n uint64
	for i := range dr.acks {
		n += uint64(dr.acks[i].Load()) * uint64(len(dr.in.bodies[i].recs))
	}
	return n
}

// referenceTable feeds every body's records as the server decoded them,
// times(i) times for body i, serially into a fresh aggregator and returns
// its city table.
func referenceTable(bodies []body, times func(i int) int64) ([]collector.CityJSON, error) {
	ref := collector.NewAggregator(collector.Config{Shards: 4})
	for i := range bodies {
		for k := times(i); k > 0; k-- {
			for _, r := range bodies[i].wire {
				if !ref.OfferExtension(r) {
					return nil, fmt.Errorf("reference aggregator dropped a record")
				}
			}
		}
	}
	if err := ref.Close(); err != nil {
		return nil, err
	}
	return ref.Snapshot().CityTableJSON(), nil
}

// verify is the ingest correctness gate: every acked record was accepted
// exactly once, and the drained deployment's merged city table is
// byte-equal to the reference's.
func (dr *driver) verify(d *deployment) error {
	accepted, err := d.drain()
	if err != nil {
		return err
	}
	if acked := dr.ackedRecords(); accepted != acked {
		return fmt.Errorf("servers accepted %d records, clients were acked for %d", accepted, acked)
	}
	got, err := d.cityTable()
	if err != nil {
		return err
	}
	want, err := referenceTable(dr.in.bodies, func(i int) int64 { return dr.acks[i].Load() })
	if err != nil {
		return err
	}
	return sameTable("merged city table", got, want)
}

func sameTable(what string, got, want []collector.CityJSON) error {
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("%s differs from the serial reference (%d vs %d bytes)", what, len(gb), len(wb))
	}
	return nil
}

// seedWAL writes, for each of n instances, the WAL a collector would
// have logged had it been sent every n-th body, into dir/node<i>, the
// layout openDeployment opens.
func seedWAL(dir string, bodies []body, n int) error {
	for i := 0; i < n; i++ {
		entries, err := walEntries(bodiesOf(bodies, i, n))
		if err != nil {
			return err
		}
		w, err := wal.Open(wal.Config{Dir: filepath.Join(dir, fmt.Sprintf("node%d", i)), FS: noSyncFS{}})
		if err != nil {
			return err
		}
		for _, e := range entries {
			if _, err := w.Append(e.kind, e.payload); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

func records(bodies []body) int {
	n := 0
	for _, b := range bodies {
		n += len(b.recs)
	}
	return n
}

// bodiesOf is every n-th body from the i-th: instance i's share.
func bodiesOf(bodies []body, i, n int) []body {
	var out []body
	for k := i; k < len(bodies); k += n {
		out = append(out, bodies[k])
	}
	return out
}

// checkRecovered is the restart gate: every instance replayed all the
// records seedWAL logged for it, none corrupt, and, when full is set, its
// city table is byte-equal to a serial reference fed the same records.
func checkRecovered(d *deployment, bodies []body, full bool) error {
	for i, srv := range d.servers {
		mine := bodiesOf(bodies, i, len(d.servers))
		want := uint64(records(mine))
		rec := srv.Aggregator().WALRecovery()
		if rec.ReplayedRecords != want || rec.SkippedCorrupt != 0 {
			return fmt.Errorf("instance %d replayed %d records (%d corrupt), logged %d", i, rec.ReplayedRecords, rec.SkippedCorrupt, want)
		}
		if !full {
			continue
		}
		ref, err := referenceTable(mine, func(int) int64 { return 1 })
		if err != nil {
			return err
		}
		if err := sameTable(fmt.Sprintf("instance %d's recovered city table", i), srv.Aggregator().Snapshot().CityTableJSON(), ref); err != nil {
			return err
		}
	}
	return nil
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}
