package main

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// window is one timed measurement, split into sliceCount equal slices.
// Load goroutines fill their own recorders; the window merges them once
// every goroutine has finished. Throughput, latency and CPU per op are
// medians over the slices, so a burst of contention from outside the
// process in a few slices moves them less (see p99 for its exception).
type window struct {
	dur   time.Duration
	start time.Time // when the first timed op may start

	attempted  uint64 // ops started inside the window
	completed  uint64 // of those, ops that finished with a correct answer
	failed     uint64 // of those, ops that finished in error or wrong
	unfinished uint64 // of those, ops still in flight after drainTimeout

	lat    [sliceCount]latHist // completed ops' latencies, by completion slice
	slices [sliceCount]uint64  // completions inside each slice
	rates  [sliceCount]float64 // completions per second in each slice
	cpu    [sliceCount + 1]time.Duration
}

func newWindow(dur time.Duration) *window {
	w := &window{dur: dur, start: time.Now()}
	for i := range w.lat {
		w.lat[i] = newLatHist()
	}
	return w
}

// deadline is when the last timed op may start.
func (w *window) deadline() time.Time { return w.start.Add(w.dur) }

func (w *window) width() time.Duration { return w.dur / sliceCount }

// sampleCPU records process CPU at every slice boundary until the window
// ends; run it on its own goroutine and wait for it.
func (w *window) sampleCPU() {
	w.cpu[0] = processCPU()
	for i := 1; i <= sliceCount; i++ {
		time.Sleep(time.Until(w.start.Add(time.Duration(i) * w.width())))
		w.cpu[i] = processCPU()
	}
}

// merge folds one recorder into the window.
func (w *window) merge(r *recorder) {
	w.attempted += r.attempted
	w.completed += r.completed
	w.failed += r.failed
	w.mergeSamples(r)
}

// mergeSamples folds in a recorder's latencies and slice completions only.
func (w *window) mergeSamples(r *recorder) {
	for i := range r.lat {
		w.lat[i].add(r.lat[i])
		w.slices[i] += r.slices[i]
		w.rates[i] += r.rate(i)
	}
}

// throughput is the median over the slices of completions per second.
func (w *window) throughput() float64 { return median(w.rates[:]) }

// cpuPerOp is the median over the slices of process CPU per completed op,
// in µs.
func (w *window) cpuPerOp() float64 {
	per := make([]float64, 0, sliceCount)
	for i, n := range w.slices {
		if n > 0 {
			per = append(per, float64(w.cpu[i+1]-w.cpu[i])/1e3/float64(n))
		}
	}
	return median(per)
}

// sliceP50 is the median over the slices of each slice's median latency,
// in ns.
func (w *window) sliceP50() float64 { return w.sliceQuantile(0.5) }

// p99 is, in ns, the median over the slices of each slice's p99 when every
// slice holds at least ten samples beyond its p99, and otherwise the p99
// of the whole window.
func (w *window) p99() float64 {
	for i := range w.lat {
		if w.lat[i].n < 1000 {
			return w.quantile(0.99)
		}
	}
	return w.sliceQuantile(0.99)
}

func (w *window) sliceQuantile(q float64) float64 {
	qs := make([]float64, 0, sliceCount)
	for i := range w.lat {
		if w.lat[i].n > 0 {
			qs = append(qs, w.lat[i].quantile(q))
		}
	}
	return median(qs)
}

// quantile returns the q-quantile of every latency in the window, in ns.
func (w *window) quantile(q float64) float64 {
	all := newLatHist()
	for i := range w.lat {
		all.add(w.lat[i])
	}
	return all.quantile(q)
}

// latHist is a log-linear latency histogram: values below 2^histBits ns
// are exact, larger ones fall in buckets 2^-histBits of their size wide.
// Its memory is fixed, so the benchmark's own footprint, and with it
// peak_rss_mb, does not grow with the number of ops measured.
type latHist struct {
	counts []uint32
	n      uint64
}

const (
	histBits    = 10
	histBuckets = (40 - histBits) << histBits // values up to 2^40 ns
)

func newLatHist() latHist { return latHist{counts: make([]uint32, histBuckets)} }

func bucketOf(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 1<<histBits {
		return int(v)
	}
	e := bits.Len64(v) - histBits - 1
	return min((e+1)<<histBits+int(v>>e)-1<<histBits, histBuckets-1)
}

// bucketValue is the midpoint of bucket i, in ns.
func bucketValue(i int) float64 {
	if i < 1<<histBits {
		return float64(i)
	}
	e := i>>histBits - 1
	lower := uint64(i&(1<<histBits-1)+1<<histBits) << e
	return float64(lower) + float64(uint64(1)<<e)/2
}

func (h *latHist) record(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
}

func (h *latHist) add(o latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value of the ceil(q*n)-th smallest latency.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(h.n))), 1)
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketValue(i)
		}
	}
	return bucketValue(len(h.counts) - 1)
}

// recorder is one load goroutine's private tally; nothing in it is shared
// until the goroutine has exited.
type recorder struct {
	start     time.Time
	width     time.Duration
	attempted uint64
	completed uint64
	failed    uint64
	lat       [sliceCount]latHist
	slices    [sliceCount]uint64
	first     [sliceCount]time.Duration // first completion in each slice
	last      [sliceCount]time.Duration // last completion in each slice
}

// newRecorder allocates the recorder's histograms up front, so the load
// loop does not allocate while it records.
func newRecorder(w *window) *recorder {
	r := &recorder{start: w.start, width: w.width()}
	for i := range r.lat {
		r.lat[i] = newLatHist()
	}
	return r
}

// slot is the slice an op finishing at end falls in; ops finishing after
// the window count in the last slice.
func (r *recorder) slot(end time.Time) int {
	return min(max(int(end.Sub(r.start)/r.width), 0), sliceCount-1)
}

// done records one op started at begin and finished at end.
func (r *recorder) done(begin, end time.Time, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
		return
	}
	r.completed++
	r.latency(end, end.Sub(begin))
	r.completion(end)
}

// latency records one op's latency in the slice it finished in.
func (r *recorder) latency(end time.Time, d time.Duration) {
	r.lat[r.slot(end)].record(d)
}

// completion counts one op finished inside the window into its slice.
func (r *recorder) completion(end time.Time) {
	at := end.Sub(r.start)
	if at < 0 || at >= r.width*sliceCount {
		return
	}
	i := r.slot(end)
	if r.slices[i] == 0 {
		r.first[i] = at
	}
	r.last[i] = at
	r.slices[i]++
}

// rate is slice i's completions per second. A recorder's completions come
// one after another, so the rate is measured between the slice's first and
// last completion: a slow, steady loop then does not read as a whole
// number of ops per slice.
func (r *recorder) rate(i int) float64 {
	if d := r.last[i] - r.first[i]; r.slices[i] > 1 && d > 0 {
		return float64(r.slices[i]-1) / d.Seconds()
	}
	return float64(r.slices[i]) / r.width.Seconds()
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perOp divides a window total by the ops completed in it.
func perOp(total float64, w *window) float64 {
	return total / float64(max(w.completed, 1))
}

// processCPU is the user plus system CPU time the whole benchmark process
// (fleet and load generator together) has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapCounters reads the allocation counters the go.* metrics use.
func heapCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
