// Command e2ebench is the repository's end-to-end benchmark. One process
// hosts the whole system under test — daemons or protocol processes talking
// over loopback TCP — plus the closed-loop load generator, so process CPU
// covers everything. Each run sets the fleet up several times (the median
// is setup_s), measures one timed window on the last fleet, checks the
// outputs it timed, and prints every metric by name and unit; the last line
// of standard output is one JSON object.
//
//	go run . -workload kv-put -seed 1 -seconds 10 -trace 0
//
// With -trace 1 the run instead measures one untraced and one traced
// window, each on a fresh fleet, and reports the per-layer metrics; the
// benchmark's own spans and the program's sampled delivery traces are
// written under -out/spans. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Fixed protocol settings. Every workload runs with a 100ms suspicion
// timeout Ω: this 2-vCPU VM stalls the whole process for up to ~20ms at
// times, and under the default Ω = 5ω = 25ms such a stall makes every
// member suspect every other and split the group. The multicast members
// set Ω directly and keep ω = 5ms; daemon.Config has no suspicion setting,
// so the KV daemons get Ω = 5ω = 100ms through ω = 20ms.
const (
	mcOmega     = 5 * time.Millisecond
	mcSuspicion = 100 * time.Millisecond
	kvOmega     = 20 * time.Millisecond
	valueLen    = 128
	keySpace    = 1024
	kvSessions  = 2
	// sliceCount splits the timed window for the throughput median.
	sliceCount = 10
	// setupsPerRun is how many fleets an untraced run sets up; setup_s is
	// the median of their set-up times.
	setupsPerRun = 5
	// drainTimeout bounds the wait, after the window, for ops still in
	// flight; an op that has not finished by then counts as unfinished.
	drainTimeout = 30 * time.Second
)

// metricDef is one catalogue entry; BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees; a -trace 0 run
// reports every one of them.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics a -trace 1 run reports. A metric
// whose source does not exist in the run (a registry name that is gone, a
// layer the workload bypasses, a histogram with no sample in the window)
// reads absentValue.
var perLayer = []metricDef{
	{"core.nulls_sent_per_op", "count", "lower"},
	{"core.msgs_sent_per_op", "count", "lower"},
	{"core.safe1_stalls_per_op", "count", "lower"},
	{"core.log_gc_p99_us", "us", "lower"},
	{"trace.send_p50_ms", "ms", "lower"},
	{"trace.receive_p50_ms", "ms", "lower"},
	{"trace.ordered_p50_ms", "ms", "lower"},
	{"trace.stable_p50_ms", "ms", "lower"},
	{"trace.delivered_p50_ms", "ms", "lower"},
	{"trace.applied_p50_ms", "ms", "lower"},
	{"trace.overhead_p50_pct", "%", "lower"},
	{"trace.overhead_cpu_pct", "%", "lower"},
	{"trace.spans", "count", "higher"},
	{"rsm.propose_apply_p50_ms", "ms", "lower"},
	{"rsm.propose_apply_p99_ms", "ms", "lower"},
	{"rsm.resyncs", "count", "lower"},
	{"storage.fsyncs_per_op", "count", "lower"},
	{"storage.fsync_p50_ms", "ms", "lower"},
	{"storage.fsync_p99_ms", "ms", "lower"},
	{"storage.wal_bytes_per_op", "B", "lower"},
	{"tcpnet.writes_per_op", "count", "lower"},
	{"tcpnet.frames_per_write_p50", "count", "higher"},
	{"ring.relays_per_op", "count", "lower"},
	{"ring.pulls_per_op", "count", "lower"},
	{"ring.reassembly_wait_p50_ms", "ms", "lower"},
	{"client.retries_per_op", "count", "lower"},
	{"client.redirects_per_op", "count", "lower"},
	{"client.unacked", "count", "lower"},
	{"daemon.self_p50_ms", "ms", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"obs.drops_per_op", "count", "lower"},
	{"fail_ratio", "ratio", "lower"},
}

// absentValue marks a per-layer metric the run could not measure. Every
// real per-layer value is zero or positive.
const absentValue = -1

// workload is one named traffic shape. setup starts a fresh fleet, readies
// it, dials it, preloads and warms it; it returns once the next op would be
// the first timed one.
type workload struct {
	name  string
	why   string
	setup func(cfg *runConfig, sp *spanLog) (fleet, error)
}

// fleet is a running system under test plus its load generator.
type fleet interface {
	// run drives the closed loop for the window and waits for the ops
	// started in it to finish or time out.
	run(w *window, sp *spanLog)
	// check verifies the outputs the window produced.
	check() error
	// sample reads every layer's counters (see probe).
	sample() probe
	// layerMetrics adds the per-layer metrics only this fleet kind has.
	layerMetrics(l *layerSet, w *window, before, after probe)
	// writeTraces appends the program's sampled delivery traces.
	writeTraces(enc *json.Encoder) error
	close()
}

var workloads = []workload{
	{"kv-put", "durable puts: ordering stability, apply and fsync=always WAL commit before each ack", setupKVPut},
	{"kv-get", "local read-your-writes gets on the same client/daemon/rsm path; engine and storage idle", setupKVGet},
	{"multicast", "all-member symmetric multicast, CPU-bound engine/node/wire/tcpnet with no null waits", setupMulticast},
	{"multicast-ring", "5 members, 8 KiB payloads over the ring dissemination path", setupMulticastRing},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	setups   int    // fleets set up in an untraced run
	out      string // artefact root: data directories and span files
	// traceEvery is the program's delivery-trace sampling rate for the
	// fleet being set up (0: tracing off).
	traceEvery uint64
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: kv-put, kv-get, multicast or multicast-ring")
	seed := flag.Int64("seed", 1, "workload seed: picks keys and op order")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from an untraced and a traced window")
	out := flag.String("out", ".bench_build", "directory for data directories and span files")
	flag.Parse()

	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	cfg := &runConfig{workload: wl, seed: *seed, seconds: *seconds, setups: setupsPerRun, out: *out}
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(cfg, os.Stdout)
	} else {
		res, err = runPlain(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measurement is one timed window on one fleet.
type measurement struct {
	w             *window
	before, after probe
	checkErr      error
	layers        *layerSet
}

// measure runs one window on f and checks its outputs.
func measure(cfg *runConfig, f fleet, sp *spanLog) measurement {
	w := newWindow(time.Duration(cfg.seconds * float64(time.Second)))
	m := measurement{w: w, before: f.sample()}
	w.start = time.Now()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		w.sampleCPU()
	}()
	f.run(w, sp)
	<-sampled
	m.after = f.sample()
	m.checkErr = f.check()
	m.layers = newLayerSet()
	commonLayerMetrics(m.layers, w, m.before, m.after)
	f.layerMetrics(m.layers, w, m.before, m.after)
	return m
}

// runPlain is a -trace 0 run: setups fleets, one timed window on the last.
func runPlain(cfg *runConfig, out io.Writer) (result, error) {
	var setupTimes []float64
	var f fleet
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		nf, err := cfg.workload.setup(cfg, nil)
		if err != nil {
			return result{}, fmt.Errorf("setup %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			nf.close()
			continue
		}
		f = nf
	}
	m := measure(cfg, f, nil)
	f.close()

	metrics := map[string]float64{
		"throughput_per_s": m.w.throughput(),
		"latency_p50_ms":   m.w.sliceP50() / 1e6,
		"latency_p99_ms":   m.w.p99() / 1e6,
		"cpu_us_per_op":    m.w.cpuPerOp(),
		"peak_rss_mb":      peakRSSMB(),
		"ok_ratio":         float64(m.w.completed) / float64(max(m.w.attempted, 1)),
		"setup_s":          median(setupTimes),
	}
	res := newResult(m)
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: metrics[d.name], Unit: d.unit}
	}
	fmt.Fprintf(out, "workload %s seed %d: %s\n", cfg.workload.name, cfg.seed, cfg.workload.why)
	fmt.Fprintf(out, "setup times (s): %v\n", setupTimes)
	fmt.Fprintf(out, "completions per window slice: %v\n", m.w.slices)
	report(out, m, endToEnd, res.Metrics, nil)
	return res, nil
}

// runTraced is a -trace 1 run: an untraced window for the per-layer
// counters, then a traced window on a fresh fleet for the stage latencies
// and the spans; the difference between the two windows is the tracing
// overhead.
func runTraced(cfg *runConfig, out io.Writer) (result, error) {
	f, err := cfg.workload.setup(cfg, nil)
	if err != nil {
		return result{}, fmt.Errorf("untraced setup: %w", err)
	}
	plain := measure(cfg, f, nil)
	f.close()

	sp := newSpanLog(1 << 17)
	cfg.traceEvery = traceEvery(cfg.workload.name)
	f, err = cfg.workload.setup(cfg, sp)
	cfg.traceEvery = 0
	if err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	traced := measure(cfg, f, sp)
	spanFile, werr := writeSpans(cfg, sp, f)
	f.close()
	if werr != nil {
		return result{}, werr
	}

	l := plain.layers
	for _, stage := range stageNames[1:] {
		name := "trace." + stage + "_p50_ms"
		v, ok := traced.layers.get(name)
		l.put(name, v, ok)
	}
	p50, tp50 := plain.w.sliceP50(), traced.w.sliceP50()
	l.put("trace.overhead_p50_pct", 100*(tp50-p50)/p50, p50 > 0)
	cpu, tcpu := plain.w.cpuPerOp(), traced.w.cpuPerOp()
	l.put("trace.overhead_cpu_pct", 100*(tcpu-cpu)/cpu, cpu > 0)
	l.put("trace.spans", float64(sp.len()), true)

	res := newResult(plain)
	res.Attempted += traced.w.attempted
	res.Failed += traced.w.failed + traced.w.unfinished
	if traced.checkErr != nil || res.Failed > 0 {
		res.Correct = false
		fmt.Fprintf(out, "traced window: self-check error %v, %d failed ops\n", traced.checkErr, traced.w.failed+traced.w.unfinished)
	}
	absent := make(map[string]bool)
	for _, d := range perLayer {
		v, ok := l.get(d.name)
		if !ok {
			v, absent[d.name] = absentValue, true
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(out, "workload %s seed %d (per-layer, untraced window + traced window sampling 1/%d)\n",
		cfg.workload.name, cfg.seed, traceEvery(cfg.workload.name))
	report(out, plain, perLayer, res.Metrics, absent)
	fmt.Fprintf(out, "traced window: %d ops, p50 %.4f ms; spans written to %s\n", traced.w.completed, tp50/1e6, spanFile)
	return res, nil
}

func newResult(m measurement) result {
	return result{
		Correct:   m.checkErr == nil && m.w.failed == 0 && m.w.unfinished == 0,
		Attempted: max(m.w.attempted, 1),
		Failed:    m.w.failed + m.w.unfinished,
		Metrics:   make(map[string]metric),
	}
}

// report prints the human-readable part of the output: failure
// accounting, unexpected drops, the self-check outcome and every metric.
func report(out io.Writer, m measurement, defs []metricDef, vals map[string]metric, absent map[string]bool) {
	w := m.w
	fmt.Fprintf(out, "window %.3fs: attempted %d, completed %d, failed %d, unfinished %d\n",
		w.dur.Seconds(), w.attempted, w.completed, w.failed, w.unfinished)
	retries, _ := counter(m.before, m.after, regClientRetry)
	redirects, _ := counter(m.before, m.after, regClientRedir)
	unacked, _ := counter(m.before, m.after, regClientUnacked)
	fmt.Fprintf(out, "client: retries %.0f, redirects %.0f, unacked %.0f\n", retries, redirects, unacked)
	d := drops(m.before, m.after)
	labels := make([]string, 0, len(d))
	for k := range d {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	for _, k := range labels {
		fmt.Fprintf(out, "unexpected drops: %s +%d\n", k, d[k])
	}
	if m.checkErr != nil {
		fmt.Fprintf(out, "self-check FAILED: %v\n", m.checkErr)
	} else {
		fmt.Fprintf(out, "self-check passed\n")
	}
	for _, def := range defs {
		if absent[def.name] {
			fmt.Fprintf(out, "metric %-30s absent (reported as %d)\n", def.name, absentValue)
			continue
		}
		fmt.Fprintf(out, "metric %-30s %14.4f %-6s (%s is better)\n", def.name, vals[def.name].Value, def.unit, def.better)
	}
}

// traceEvery is the program's sampling rate in a traced window: dense
// enough for a few hundred traces at kv-put's rate, sparse enough that the
// multicast workloads do not pay a stamp on every message.
func traceEvery(workload string) uint64 {
	if strings.HasPrefix(workload, "kv-") {
		return 4
	}
	return 64
}

// writeSpans writes the benchmark's spans and the program's traces as JSON
// lines under cfg.out/spans and returns the file name.
func writeSpans(cfg *runConfig, sp *spanLog, f fleet) (string, error) {
	dir := filepath.Join(cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload.name, cfg.seed))
	file, err := os.Create(name)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(file)
	if err := sp.write(enc); err != nil {
		file.Close()
		return "", err
	}
	if err := f.writeTraces(enc); err != nil {
		file.Close()
		return "", err
	}
	return name, file.Close()
}
