package main

import (
	"math"
	"strings"
	"time"

	"newtop"
)

// Registry names the per-layer metrics read. A name that a later change
// removes makes its metric absent, never a failed run.
const (
	regSafe1Stalls   = `newtop_engine_gate_stall_total{gate="safe1"}`
	regLogGC         = "newtop_engine_log_gc_ns"
	regTraceStage    = `newtop_trace_stage_ns{stage="`
	regFsyncs        = "newtop_wal_fsyncs_total"
	regFsyncLatency  = "newtop_wal_fsync_seconds" // observed in ns
	regWALBytes      = "newtop_wal_bytes_total"
	regTCPWrites     = "newtop_tcpnet_batch_writes_total"
	regDialFailures  = "newtop_tcpnet_dial_failures_total"
	regFramesPerWr   = "newtop_tcpnet_frames_per_write"
	regRingRelays    = "newtop_ring_relays_total"
	regRingPulls     = "newtop_ring_pulls_total"
	regRingWait      = "newtop_ring_reassembly_wait_ns"
	regClientRetry   = "newtop_client_retries_total"
	regClientRedir   = "newtop_client_redirects_total"
	regClientUnacked = "newtop_client_unacked_total"
	regDropsPrefix   = "newtop_drops_total"
	regProposeApply  = "newtop_rsm_propose_apply_ns"
	regResyncs       = "newtop_rsm_resyncs_total"
)

// probe is a point-in-time read of every layer's counters. Counters are
// summed over every protocol process and client session of the fleet;
// histograms are member 1's (daemon 1 for the KV workloads, the daemon the
// first session is pinned to). Registry histograms are cumulative since the
// fleet started, so their quantiles include set-up traffic; a histogram
// with no new sample in the window is reported absent.
type probe struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	nulls      uint64 // Process.Stats().NullsSent, summed
	msgs       uint64 // Process.Stats().MsgsSent, summed
	counters   map[string]uint64
	hists      map[string]newtop.HistogramSnapshot
}

// sampleProcs reads procs (member 1 first) and any extra registry
// snapshots (client sessions) into a probe.
func sampleProcs(procs []*newtop.Process, extra ...newtop.MetricsSnapshot) probe {
	p := probe{counters: make(map[string]uint64)}
	for i, pr := range procs {
		snap := pr.Metrics()
		for k, v := range snap.Counters {
			p.counters[k] += v
		}
		if i == 0 {
			p.hists = snap.Histograms
		}
		st := pr.Stats()
		p.nulls += st.NullsSent
		p.msgs += st.MsgsSent
	}
	for _, snap := range extra {
		for k, v := range snap.Counters {
			p.counters[k] += v
		}
	}
	p.mallocs, p.allocBytes = heapCounters()
	p.cpu = processCPU()
	return p
}

// counter returns a registry counter's delta between two probes.
func counter(before, after probe, name string) (float64, bool) {
	a, ok := after.counters[name]
	return float64(a - before.counters[name]), ok
}

// quantileMS returns a member-1 histogram quantile in ms, absent when the
// series is missing or took no sample between the probes.
func quantileMS(before, after probe, name string, p99 bool) (float64, bool) {
	h, ok := after.hists[name]
	if !ok || h.Count == before.hists[name].Count {
		return 0, false
	}
	v := h.P50
	if p99 {
		v = h.P99
	}
	return float64(v) / 1e6, true
}

// drops returns every newtop_drops_total series that grew between the
// probes, by its {layer,reason} label.
func drops(before, after probe) map[string]uint64 {
	out := make(map[string]uint64)
	for k, v := range after.counters {
		if strings.HasPrefix(k, regDropsPrefix) && v > before.counters[k] {
			out[k] = v - before.counters[k]
		}
	}
	return out
}

// layerSet collects per-layer values; a name never put is absent.
type layerSet struct{ vals map[string]float64 }

func newLayerSet() *layerSet { return &layerSet{vals: make(map[string]float64)} }

func (l *layerSet) put(name string, v float64, ok bool) {
	if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
		l.vals[name] = v
	}
}

func (l *layerSet) get(name string) (float64, bool) {
	v, ok := l.vals[name]
	return v, ok
}

// quantile puts a member-1 histogram quantile in ms.
func (l *layerSet) quantile(name string, before, after probe, reg string, p99 bool) {
	v, ok := quantileMS(before, after, reg, p99)
	l.put(name, v, ok)
}

// perOpCounter puts a counter delta divided by the window's ops.
func (l *layerSet) perOpCounter(name string, w *window, before, after probe, reg string) {
	v, ok := counter(before, after, reg)
	l.put(name, perOp(v, w), ok)
}

// commonLayerMetrics fills the per-layer metrics every fleet kind reads
// the same way.
func commonLayerMetrics(l *layerSet, w *window, before, after probe) {
	l.put("core.nulls_sent_per_op", perOp(float64(after.nulls-before.nulls), w), true)
	l.put("core.msgs_sent_per_op", perOp(float64(after.msgs-before.msgs), w), true)
	l.perOpCounter("core.safe1_stalls_per_op", w, before, after, regSafe1Stalls)
	if v, ok := quantileMS(before, after, regLogGC, true); ok {
		l.put("core.log_gc_p99_us", v*1e3, true)
	}
	for _, stage := range stageNames[1:] {
		l.quantile("trace."+stage+"_p50_ms", before, after, regTraceStage+stage+`"}`, false)
	}

	l.perOpCounter("storage.fsyncs_per_op", w, before, after, regFsyncs)
	l.quantile("storage.fsync_p50_ms", before, after, regFsyncLatency, false)
	l.quantile("storage.fsync_p99_ms", before, after, regFsyncLatency, true)
	l.perOpCounter("storage.wal_bytes_per_op", w, before, after, regWALBytes)

	l.perOpCounter("tcpnet.writes_per_op", w, before, after, regTCPWrites)
	if h, ok := after.hists[regFramesPerWr]; ok && h.Count > before.hists[regFramesPerWr].Count {
		l.put("tcpnet.frames_per_write_p50", float64(h.P50), true)
	}

	l.perOpCounter("ring.relays_per_op", w, before, after, regRingRelays)
	l.perOpCounter("ring.pulls_per_op", w, before, after, regRingPulls)
	l.quantile("ring.reassembly_wait_p50_ms", before, after, regRingWait, false)

	l.perOpCounter("client.retries_per_op", w, before, after, regClientRetry)
	l.perOpCounter("client.redirects_per_op", w, before, after, regClientRedir)
	if v, ok := counter(before, after, regClientUnacked); ok {
		l.put("client.unacked", v, true)
	}

	l.put("go.allocs_per_op", perOp(float64(after.mallocs-before.mallocs), w), true)
	l.put("go.alloc_bytes_per_op", perOp(float64(after.allocBytes-before.allocBytes), w), true)
	var dropped uint64
	for _, n := range drops(before, after) {
		dropped += n
	}
	l.put("obs.drops_per_op", perOp(float64(dropped), w), true)
	l.put("fail_ratio", float64(w.failed+w.unfinished)/float64(max(w.attempted, 1)), true)
}
