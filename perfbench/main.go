// Command perfbench is starlinkview's benchmark: one process drives one
// named workload against the in-process ingest service or study engine,
// checks its output, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as the last line of stdout.
//
//	python3 perfbench/run.py --workload ingest-batch --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads, metrics and gates.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

//go:embed config.json
var configJSON []byte

// config is perfbench/config.json: the fixed rates, limits, seeds and
// digests every run is judged by.
type config struct {
	DefaultSeed int64 `json:"default_seed"`
	CheckSeed   int64 `json:"check_seed"`
	SetupReps   int   `json:"setup_reps"`
	// RestartRecords is how many of the workload's records the WALs an
	// ingest set-up replays hold.
	RestartRecords int `json:"restart_records"`
	Table1Passes   int `json:"table1_passes"`
	// HighBlocks is how many blocks of at least minPosts POSTs the high
	// rate runs as.
	HighBlocks int                   `json:"high_blocks"`
	Ingest     map[string]ingestSpec `json:"ingest"`
	Edge       edgeSpec              `json:"edge_traffic"`
	// Table1Digests and Fig8Digests map a seed to the sha256 of its
	// rendered exhibit, as of the commit that recorded them.
	Table1Digests map[string]string `json:"table1_digests"`
	Fig8Digests   map[string]string `json:"fig8_digests"`
}

// ingestSpec fixes one ingest workload's offered rates, in records/s.
type ingestSpec struct {
	// SLOP99Ms is the ack p99 limit the ladder's steps must meet.
	SLOP99Ms    float64 `json:"slo_p99_ms"`
	Low         float64 `json:"low_rps"`
	High        float64 `json:"high_rps"`
	LadderFrom  float64 `json:"ladder_from_rps"`
	LadderRatio float64 `json:"ladder_ratio"`
	LadderSteps int     `json:"ladder_steps"`
	SnapshotRPS float64 `json:"snapshot_reads_per_s"`
	MetricsRPS  float64 `json:"metrics_reads_per_s"`
}

// edgeSpec shapes ingest-edge-cluster's bodies: the campaign's users, and
// the flush rule of collector.ClientConfig's defaults each browser posts
// with.
type edgeSpec struct {
	Users        int `json:"users"`
	BatchSize    int `json:"client_batch_size"`
	FlushEveryMs int `json:"client_flush_every_ms"`
}

const (
	frameRecords     = 1000 // cmd/campaign's batch size
	minPosts         = 1000 // per measured phase, so p99 has 10 samples beyond it
	blockPosts       = 400  // per high-rate block
	walFsyncInterval = 2 * time.Millisecond
	requestTimeout   = 10 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	outDir   string
	cfg      config
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "ingest-batch, ingest-edge-cluster or study")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per run (the study runs one pass)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for WAL segments and trace captures")
	digests := flag.Int("table1-digests", 0, "print the rendered Table 1 digests of seeds 1..N for config.json and exit")
	flag.Parse()
	if *digests > 0 {
		if err := printTable1Digests(*digests); err != nil {
			fatal(err)
		}
		return
	}
	o.traced = traceFlag == 1
	if err := json.Unmarshal(configJSON, &o.cfg); err != nil {
		fatal(fmt.Errorf("config.json: %w", err))
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}

	env := stampEnv(o)
	emit(map[string]any{"env": env})

	var (
		rep *report
		err error
	)
	switch o.workload {
	case "ingest-batch", "ingest-edge-cluster":
		rep, err = runIngest(o)
	case "study":
		rep, err = runStudy(o)
	default:
		err = fmt.Errorf("unknown -workload %q", o.workload)
	}
	if err != nil {
		fatal(err)
	}
	rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	rep.Detail["peak_rss_mb"] = rep.Metrics["peak_rss_mb"].Value
	emit(map[string]any{"report": rep.Detail, "env": env})
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res := result{Correct: len(rep.Errors) == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}
	if o.traced {
		if err := completeLayers(rep.Layers); err != nil {
			fatal(err)
		}
		res.Metrics = rep.Layers
	}
	emit(res)
}

// report is what a workload run hands back to main.
type report struct {
	Attempted, Failed int
	Errors            []string
	Metrics           map[string]metric // end-to-end, every run
	Layers            map[string]metric // per-layer, traced runs
	Detail            map[string]any    // everything else, printed before the result
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, Layers: map[string]metric{}, Detail: map[string]any{}}
}

func (r *report) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func nproc() int { return runtime.NumCPU() }
