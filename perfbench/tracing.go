package main

import (
	"os"
	"sort"
	"strings"

	"starlinkview/internal/trace"
)

// stages are the spans along a POST's ack path, bench-side (encode, the
// client's HTTP exchange) and collector-side (the collector's own tracer,
// continued from the POST's traceparent).
var stages = []struct{ prefix, metric string }{
	{"bench.encode", "encode"},
	{"bench.http", "client"},
	{"http POST ", "server"},
	{"ingest.decode", "decode"},
	{"wal.append", "wal_append"},
	{"wal.fsync", "wal_fsync"},
	{"shard.apply", "shard_apply"},
	{"cluster.forward", "forward"},
}

func stageOf(name string) string {
	for _, st := range stages {
		if strings.HasPrefix(name, st.prefix) {
			return st.metric
		}
	}
	return ""
}

// assembleTraces stitches every trace the tracers hold with
// trace.Assemble; instances names each tracer's instance.
func assembleTraces(instances []string, tracers []*trace.Tracer) []trace.Trace {
	sources := make([]trace.Source, len(tracers))
	seen := map[string]bool{}
	var ids []string
	for i, t := range tracers {
		sources[i] = trace.Source{Instance: instances[i], Traces: t.Traces(0, 0)}
		for _, tr := range sources[i].Traces {
			if !seen[tr.ID] {
				seen[tr.ID] = true
				ids = append(ids, tr.ID)
			}
		}
	}
	sort.Strings(ids)
	out := make([]trace.Trace, 0, len(ids))
	for _, id := range ids {
		if tr, ok := trace.Assemble(id, sources); ok {
			out = append(out, tr)
		}
	}
	return out
}

// writeTraces saves a capture tools/traceview renders.
func writeTraces(path string, traces []trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type interval [2]int64

// clip bounds iv to [lo, hi); an empty result has iv[1] <= iv[0].
func clip(iv interval, lo, hi int64) interval {
	return interval{max(iv[0], lo), min(iv[1], hi)}
}

// unionLen is the length of the union of ivs clipped to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	var c []interval
	for _, iv := range ivs {
		if iv = clip(iv, lo, hi); iv[1] > iv[0] {
			c = append(c, iv)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, end int64
	end = lo
	for _, iv := range c {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals, the children clipped to the span.
func selfTime(start, end int64, children [][2]int64) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = c
	}
	return (end - start) - unionLen(ivs, start, end)
}

func spanInterval(sd trace.SpanData) interval {
	s := sd.Start.UnixNano()
	return interval{s, s + sd.DurationNS}
}

// spanLayers computes, over the traced POSTs, each stage's share of the
// ack latency (its self time clipped to the POST's span; siblings that run
// concurrently both count) and the share of each POST's span that the
// stage spans, and the collector's root span, cover.
func spanLayers(L map[string]metric, detail map[string]any, traces []trace.Trace, posts []string) {
	want := map[string]bool{}
	for _, id := range posts {
		want[id] = true
	}
	self := map[string]int64{}
	var rootTotal int64
	var stageCover, serverCover []float64
	for _, tr := range traces {
		if !want[tr.ID] {
			continue
		}
		var root *trace.SpanData
		kids := map[string][][2]int64{}
		for i, sd := range tr.Spans {
			if sd.Name == "bench.post" {
				root = &tr.Spans[i]
			}
			if sd.Parent != "" {
				kids[sd.Parent] = append(kids[sd.Parent], spanInterval(sd))
			}
		}
		if root == nil || root.DurationNS <= 0 {
			continue
		}
		r := spanInterval(*root)
		rootTotal += root.DurationNS
		var leaf, server []interval
		for _, sd := range tr.Spans {
			st := stageOf(sd.Name)
			if st == "" {
				continue
			}
			iv := clip(spanInterval(sd), r[0], r[1])
			if iv[1] <= iv[0] {
				continue
			}
			self[st] += selfTime(iv[0], iv[1], kids[sd.SpanID])
			switch st {
			case "client":
			case "server":
				server = append(server, iv)
			default:
				leaf = append(leaf, iv)
			}
		}
		d := float64(root.DurationNS)
		stageCover = append(stageCover, float64(unionLen(leaf, r[0], r[1]))/d)
		serverCover = append(serverCover, float64(unionLen(server, r[0], r[1]))/d)
	}
	shares := map[string]float64{}
	for _, st := range stages {
		v := 0.0
		if rootTotal > 0 {
			v = float64(self[st.metric]) / float64(rootTotal)
		}
		shares[st.metric] = v
		L["trace.self_share."+st.metric] = metric{v, "ratio"}
	}
	L["trace.stage_cover_frac"] = metric{median(stageCover), "ratio"}
	L["trace.server_cover_frac"] = metric{median(serverCover), "ratio"}
	detail["traced_posts"] = len(stageCover)
	detail["stage_self_shares"] = shares
}
