// Command perfbench is the repository benchmark. It runs one workload of
// the NERVE streaming path for a fixed time, checks the program's outputs,
// and prints its metrics as one JSON object on the last line of standard
// output. From the repository root:
//
//	bash perfbench/run.sh --workload play-lossy --seed 1 --seconds 30 --trace 0
//
// Workloads (rationale in BENCHMARK.json, metric targets in METRICS.md):
//
//	play-lossy   one pipelined 540p→1080p client session under seeded loss
//	origin-hot   a warmed origin read by a closed loop on two connections
//	origin-live  a two-node origin cluster under open-loop live-edge viewers
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run, whose spans are written to
// .bench_out/<workload>.spans.jsonl.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json (TestMetricsMatchBenchmarkJSON), which also holds the
// end-to-end bounds.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees. An "op" is one
// Pipeline.Push on play-lossy and one FetchChunk (codes + segment) on the
// origin workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p99_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"psnr_db", "dB", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"success_ratio", "ratio", "higher"},
}

// perLayer are the figures of single layers from the traced run. A layer a
// workload does not use reports 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"video.render_ms", "ms", "lower"},
		{"core.server_process_ms", "ms", "lower"},
		{"core.new_client_ms", "ms", "lower"},
	}
	for _, c := range slotClassNames {
		d = append(d,
			metricDef{"core.push_ms." + c + ".p50", "ms", "lower"},
			metricDef{"core.push_ms." + c + ".p90", "ms", "lower"},
			metricDef{"core.deadline_miss_ratio." + c, "ratio", "lower"})
	}
	d = append(d,
		metricDef{"core.overlap_ratio", "ratio", "higher"},
		metricDef{"core.tier.float_frames", "count", "lower"},
		metricDef{"core.tier.probes", "count", "lower"})
	for _, st := range stageTimers {
		d = append(d,
			metricDef{st.name + ".calls", "count", "lower"},
			metricDef{st.name + ".ms_per_call", "ms", "lower"})
	}
	return append(d,
		metricDef{"recovery.psnr_db.lost", "dB", "higher"},
		metricDef{"core.psnr_db.partial", "dB", "higher"},
		metricDef{"core.psnr_db.decoded", "dB", "higher"},
		metricDef{"vmath.plane_allocs_per_frame", "planes/frame", "lower"},
		metricDef{"runtime.allocs_per_frame", "allocs/frame", "lower"},
		metricDef{"runtime.bytes_per_frame", "B/frame", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
		metricDef{"httpstream.client.codes_ms.p50", "ms", "lower"},
		metricDef{"httpstream.client.codes_ms.p99", "ms", "lower"},
		metricDef{"httpstream.client.segment_ms.p50", "ms", "lower"},
		metricDef{"httpstream.client.segment_ms.p99", "ms", "lower"},
		metricDef{"httpstream.server.handler_ms.p50", "ms", "lower"},
		metricDef{"httpstream.server.handler_ms.p99", "ms", "lower"},
		metricDef{"runtime.allocs_per_chunk", "allocs/chunk", "lower"},
		metricDef{"vmath.plane_allocs", "count", "lower"},
		metricDef{"httpstream.server.encodes", "count", "lower"},
		metricDef{"httpstream.encode_useful_ratio", "ratio", "higher"},
		metricDef{"httpstream.cache.hit_ratio", "ratio", "higher"},
		metricDef{"httpstream.cache.evictions", "count", "lower"},
		metricDef{"cluster.peer_fetches", "count", "lower"},
		metricDef{"cluster.local_serves", "count", "higher"},
		metricDef{"cluster.peer_errors", "count", "lower"},
		metricDef{"cluster.peer_serve_ms.p50", "ms", "lower"},
		metricDef{"cluster.peer_serve_ms.p99", "ms", "lower"},
		metricDef{"httpstream.client.retries", "count", "lower"},
		metricDef{"httpstream.client.degraded", "count", "lower"},
		metricDef{"bench.gen_lag_ms.p50", "ms", "lower"},
		metricDef{"bench.gen_lag_ms.p99", "ms", "lower"},
		metricDef{"bench.trace_overhead_pct.op_p50_ms", "%", "lower"},
		metricDef{"bench.trace_overhead_pct.ops_per_s", "%", "lower"},
	)
}()

// stageTimers are the telemetry stage timers the traced run reads, under
// the layer.call names the benchmark reports them by.
var stageTimers = []struct {
	name  string
	stage telemetry.Stage
}{
	{"codec.decode", telemetry.StageDecode},
	{"edgecode.code", telemetry.StageCode},
	{"flow.estimate", telemetry.StageFlow},
	{"warp.warp", telemetry.StageWarp},
	{"recovery.recover", telemetry.StageRecovery},
	{"sr.upscale", telemetry.StageSR},
}

const (
	// setupReps is how many times a run builds its workload from scratch;
	// setup_s is the median, so one slow build does not move it.
	setupReps = 3
	// minOps is the fewest operations a closed-loop measurement makes:
	// enough for a p99 with ten samples beyond it. A run that has not
	// reached it when --seconds is up keeps going.
	minOps = 1000
	// A traced run measures its first 1/traceLead with tracing off: the
	// baseline its tracing overhead is reported against. Its traced part
	// measures at least tracedMinOps, enough partial slots (one per block)
	// for their p90.
	traceLead    = 5
	tracedMinOps = minOps + 10*blockSlots
	// outDir receives the span files of traced runs.
	outDir = ".bench_out"
)

// phase is one measured stretch of a run, with tracing on or off.
type phase struct {
	d      time.Duration
	minOps int
	tr     *tracer // nil: untraced

	ops     []opRecord // in completion order
	elapsed time.Duration
	// layers holds the per-layer figures the workload measured in a
	// traced phase.
	layers map[string]float64
}

// opRecord is one operation of a phase.
type opRecord struct {
	done time.Duration // completion time from the start of the phase
	ms   float64       // latency
	ok   bool
}

// merge adds the records of several workers in completion order.
func (p *phase) merge(workers [][]opRecord) {
	for _, w := range workers {
		p.ops = append(p.ops, w...)
	}
	sort.SliceStable(p.ops, func(i, j int) bool { return p.ops[i].done < p.ops[j].done })
}

func (p *phase) latencies() samples {
	s := make(samples, len(p.ops))
	for i, o := range p.ops {
		s[i] = o.ms
	}
	return s
}

func (p *phase) failed() int {
	n := 0
	for _, o := range p.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// rateWindows is how many equal stretches ops_per_s is measured over; the
// figure is their median.
const rateWindows = 10

// opsPerSecond is the median over rateWindows equal stretches of the phase
// of the successful operations completed per second.
func (p *phase) opsPerSecond() float64 {
	win := p.elapsed / rateWindows
	var count [rateWindows]int
	for _, o := range p.ops {
		if i := int(o.done / win); o.ok && i < rateWindows {
			count[i]++
		}
	}
	var per samples
	for _, c := range count {
		per = append(per, float64(c)/win.Seconds())
	}
	return per.median()
}

// workload is one benchmark workload. setup builds its system from scratch
// and is called setupReps times, each build replacing the last; measure
// drives load for one phase; finish checks outputs after the last phase.
type workload interface {
	setup(tr *tracer) (layers map[string]float64, err error)
	measure(ph *phase) error
	finish(layers map[string]float64) (quality float64, err error)
	// perFrame reports whether an op is a displayed frame (true) or a
	// fetched chunk (false), which names the allocation metrics.
	perFrame() bool
	close()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"play-lossy", "origin-hot", "origin-live"}

func newWorkload(name string, in generatedInputs) (workload, error) {
	switch name {
	case "play-lossy":
		return newPlayLossy(in.loss), nil
	case "origin-hot":
		return newOriginHot(in.picks), nil
	case "origin-live":
		return newOriginLive(in.schedule), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want play-lossy, origin-hot or origin-live)", name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "play-lossy, origin-hot or origin-live")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 30, "measured time per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	check := func(what string, err error) {
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s: %v\n", what, err)
		}
	}
	check("seed self-test", checkSeedDeterminism(seed, d))
	w, err := newWorkload(name, generate(seed, d))
	if err != nil {
		return nil, err
	}
	defer w.close()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setupS samples
	setupLayers := map[string]samples{}
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		layers, err := w.setup(tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		for k, v := range layers {
			setupLayers[k] = append(setupLayers[k], v)
		}
	}

	layers := map[string]float64{}
	for k, v := range setupLayers {
		layers[k] = v.median()
	}
	var phases []*phase
	if traced {
		lead := d / traceLead
		phases = []*phase{{d: lead}, {d: d - lead, minOps: tracedMinOps, tr: tr}}
	} else {
		phases = []*phase{{d: d, minOps: minOps}}
	}
	for _, ph := range phases {
		if err := measurePhase(w, ph); err != nil {
			return nil, err
		}
		res.Attempted += len(ph.ops)
		res.Failed += ph.failed()
		for k, v := range ph.layers {
			layers[k] = v
		}
	}
	quality, err := w.finish(layers)
	check("workload outputs", err)
	if res.Failed > 0 {
		res.Correct = false
	}

	if traced {
		if err := tr.write(fmt.Sprintf("%s/%s.spans.jsonl", outDir, name)); err != nil {
			return nil, err
		}
		base, on := phases[0], phases[1]
		if p50b, _, ok := base.latencies().windowed(0.5); ok {
			if p50t, _, ok := on.latencies().windowed(0.5); ok {
				layers["bench.trace_overhead_pct.op_p50_ms"] = 100 * (p50t - p50b) / p50b
			}
		}
		layers["bench.trace_overhead_pct.ops_per_s"] = 100 * (base.opsPerSecond() - on.opsPerSecond()) / base.opsPerSecond()
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
		}
		logLayers(layers)
		return res, nil
	}

	ph := phases[0]
	lat := ph.latencies()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e2e := map[string]float64{
		"setup_s":       setupS.median(),
		"ops_per_s":     ph.opsPerSecond(),
		"psnr_db":       quality,
		"peak_rss_mb":   rss,
		"success_ratio": 1 - float64(res.Failed)/float64(res.Attempted),
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"op_p50_ms", 0.50}, {"op_p99_ms", 0.99}} {
		v, n, ok := lat.windowed(q.q)
		if !ok {
			return nil, fmt.Errorf("%s: %d operations leave fewer than %d beyond the percentile; raise --seconds", q.name, n, minBeyond)
		}
		e2e[q.name] = v
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in %.1fs (%d failed), setup %v s\n",
		name, seed, len(ph.ops), ph.elapsed.Seconds(), res.Failed, setupS)
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
	}
	return res, nil
}

// measurePhase runs one phase, with telemetry and the runtime counters
// read around it when the phase is traced.
func measurePhase(w workload, ph *phase) error {
	ph.layers = map[string]float64{}
	if ph.tr == nil {
		return w.measure(ph)
	}
	telemetry.Default.Reset()
	telemetry.Enable(true)
	defer telemetry.Enable(false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	planes := vmath.PlaneAllocs()
	if err := w.measure(ph); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	planes = vmath.PlaneAllocs() - planes
	ops := float64(len(ph.ops))
	allocs := float64(after.Mallocs - before.Mallocs)
	ph.layers["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if w.perFrame() {
		ph.layers["vmath.plane_allocs_per_frame"] = float64(planes) / ops
		ph.layers["runtime.allocs_per_frame"] = allocs / ops
		ph.layers["runtime.bytes_per_frame"] = float64(after.TotalAlloc-before.TotalAlloc) / ops
	} else {
		ph.layers["vmath.plane_allocs"] = float64(planes)
		ph.layers["runtime.allocs_per_chunk"] = allocs / ops
	}
	return nil
}

// errTooFewOps reports a closed loop that reached neither minOps nor its
// time cap of three times --seconds.
func errTooFewOps(n int, el time.Duration) error {
	return fmt.Errorf("only %d operations in %.0fs, fewer than a run needs; raise --seconds", n, el.Seconds())
}

// putQuantiles stores the p50 and tail quantile of s under prefix.p50 and
// prefix.p<tail>, leaving a quantile without ten samples beyond it
// unreported (0) and saying so on standard error.
func putQuantiles(layers map[string]float64, prefix string, s samples, tail int) {
	for _, q := range []int{50, tail} {
		name := fmt.Sprintf("%s.p%d", prefix, q)
		v, n, ok := s.quantile(float64(q) / 100)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s not reported: %d samples\n", name, n)
			continue
		}
		layers[name] = v
	}
}

// logLayers prints the per-layer figures, sorted, to standard error.
func logLayers(layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %.4f\n", k, layers[k])
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
