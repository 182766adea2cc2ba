package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"newtop"
	"newtop/client"
	"newtop/internal/daemon"
)

const (
	kvDaemons = 3
	// valuesPerSession is how many distinct values each put session
	// cycles through, so the self-check can tell the last acked write
	// from an older one.
	valuesPerSession = 4096
	// Warm-up ops each session runs before the window.
	putWarmup = 10
	getWarmup = 400
	// preloadBatch bounds the kv-get preload's proposals in flight.
	preloadBatch = 128
	// checkKeys is how many keys the kv-put self-check reads back.
	checkKeys = 64
)

// lastUnknown marks a key whose last write ended in error: its value is
// no longer predictable, so the self-check skips it.
const lastUnknown = -2

// kvFleet is three durable daemons over loopback TCP and two client
// sessions, pinned to daemons 1 and 2.
type kvFleet struct {
	get      bool // kv-get; otherwise kv-put
	seed     int64
	dir      string
	daemons  []*daemon.Daemon
	procs    []*newtop.Process
	sessions []*client.Client
	rngs     []*rand.Rand
	keys     []string

	// kv-put: session s owns the keys k with k%kvSessions == s, so each
	// key's last acked value is well defined.
	values [][]string // per session, pre-formatted distinct values
	next   []int      // per session, next index into values
	last   []int32    // per key, index of its last acked value (-1: none)

	// kv-get
	preloaded []string // per key
	wrong     []uint64 // per session, gets that returned a wrong answer
}

func setupKVPut(cfg *runConfig, sp *spanLog) (fleet, error) { return setupKV(cfg, sp, false) }
func setupKVGet(cfg *runConfig, sp *spanLog) (fleet, error) { return setupKV(cfg, sp, true) }

func setupKV(cfg *runConfig, sp *spanLog, get bool) (fleet, error) {
	trace := sp.newTrace()
	t0 := time.Now()
	root := sp.add(trace, 0, "setup", t0, t0)
	defer func() { sp.finish(root, time.Now()) }()

	return retryStart(func() (*kvFleet, error) {
		f, err := startKV(cfg, sp, trace, root)
		if err != nil {
			return nil, err
		}
		f.get, f.seed = get, cfg.seed
		f.generate()
		if get {
			if err := sp.timed(trace, root, "preload", f.preload); err != nil {
				f.close()
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		err = sp.timed(trace, root, "warmup", func() error {
			n := putWarmup
			if get {
				n = getWarmup
			}
			return f.warm(n)
		})
		if err == nil {
			err = healthy(f.procs)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return f, nil
	})
}

// startKV starts the daemons, waits until every replica serves, and dials
// the sessions.
func startKV(cfg *runConfig, sp *spanLog, trace uint64, root uint32) (*kvFleet, error) {
	dataRoot := filepath.Join(cfg.out, "data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, "kv-")
	if err != nil {
		return nil, err
	}
	f := &kvFleet{dir: dir}
	addrs, err := reservePorts(kvDaemons)
	if err != nil {
		f.close()
		return nil, err
	}
	// Start the daemons concurrently: each bootstraps the group inside
	// Start and sends its first null after ω, so every peer's listener
	// must be up by then (see healthy).
	f.daemons = make([]*daemon.Daemon, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i := range addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sp.timed(trace, root, "daemon.Start", func() (err error) {
				f.daemons[i], err = daemon.Start(daemon.Config{
					Self:             newtop.ProcessID(i + 1),
					ListenAddr:       addrs[i],
					Peers:            peersOf(addrs, i),
					ClientAddr:       "127.0.0.1:0",
					Mode:             newtop.Symmetric,
					Omega:            kvOmega,
					DataDir:          filepath.Join(dir, strconv.Itoa(i+1)),
					Fsync:            "always",
					TraceSampleEvery: cfg.traceEvery,
					Logf:             func(string, ...any) {},
				})
				return err
			})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.close()
		return nil, fmt.Errorf("start daemons: %w", err)
	}
	for _, d := range f.daemons {
		f.procs = append(f.procs, d.Proc())
	}
	clientAddrs := make(map[newtop.ProcessID]string, kvDaemons)
	var ordered []string
	for i, d := range f.daemons {
		clientAddrs[newtop.ProcessID(i+1)] = d.ClientAddr()
		ordered = append(ordered, d.ClientAddr())
	}
	for _, d := range f.daemons {
		d.SetPeerClientAddrs(clientAddrs)
	}
	err = sp.timed(trace, root, "ready", func() error {
		return waitFor(15*time.Second, "replicas to serve", func() bool {
			for _, d := range f.daemons {
				if rep, _ := d.Replica(); rep == nil || !rep.CaughtUp() {
					return false
				}
			}
			return true
		})
	})
	if err != nil {
		f.close()
		return nil, err
	}
	for s := 0; s < kvSessions; s++ {
		// Session s pins to daemon s+1 and knows the others for failover.
		rot := append(append([]string(nil), ordered[s:]...), ordered[:s]...)
		var c *client.Client
		err := sp.timed(trace, root, "client.Dial", func() (err error) {
			c, err = client.Dial(rot...)
			return err
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dial session %d: %w", s, err)
		}
		f.sessions = append(f.sessions, c)
	}
	return f, nil
}

// generate pre-formats every key and value the run uses, from the seed.
func (f *kvFleet) generate() {
	rng := rand.New(rand.NewSource(f.seed))
	f.keys = make([]string, keySpace)
	for k := range f.keys {
		f.keys[k] = fmt.Sprintf("k%04d", k)
	}
	f.rngs = make([]*rand.Rand, kvSessions)
	for s := range f.rngs {
		f.rngs[s] = rand.New(rand.NewSource(f.seed*1_000_003 + int64(s) + 1))
	}
	if f.get {
		f.preloaded = make([]string, keySpace)
		for k := range f.preloaded {
			f.preloaded[k] = value(rng, fmt.Sprintf("v%04d-", k))
		}
		f.wrong = make([]uint64, kvSessions)
		return
	}
	f.values = make([][]string, kvSessions)
	f.next = make([]int, kvSessions)
	for s := range f.values {
		f.values[s] = make([]string, valuesPerSession)
		for i := range f.values[s] {
			f.values[s][i] = value(rng, fmt.Sprintf("s%d-%04d-", s, i))
		}
	}
	f.last = make([]int32, keySpace)
	for k := range f.last {
		f.last[k] = -1
	}
}

// value pads prefix to valueLen with seeded letters.
func value(rng *rand.Rand, prefix string) string {
	b := make([]byte, valueLen)
	n := copy(b, prefix)
	for i := n; i < len(b); i++ {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// preload writes every key through daemon 1's replica, preloadBatch
// proposals at a time, and waits until all three replicas have applied the
// whole keyspace. Bounding the burst bounds each daemon's backlog of
// applies and fsyncs; one burst of all 1024 proposals was seen to split
// the group.
func (f *kvFleet) preload() error {
	rep, _ := f.daemons[0].Replica()
	target := rep.AppliedSeq() + keySpace
	for k, key := range f.keys {
		if err := rep.Propose([]byte("put " + key + " " + f.preloaded[k])); err != nil {
			return err
		}
		if (k+1)%preloadBatch == 0 {
			// Read returns once every proposal so far has applied here.
			if err := rep.Read(func(newtop.StateMachine) {}); err != nil {
				return err
			}
		}
	}
	return waitFor(10*time.Second, "the preload to apply everywhere", func() bool {
		for _, d := range f.daemons {
			if r, _ := d.Replica(); r == nil || r.AppliedSeq() < target {
				return false
			}
		}
		return true
	})
}

// warm runs n unmeasured ops on every session.
func (f *kvFleet) warm(n int) error {
	w := newWindow(time.Hour)
	recs := f.drive(w, n, nil)
	for s, r := range recs {
		if r.failed > 0 {
			return fmt.Errorf("session %d: %d of %d warm-up ops failed", s, r.failed, r.attempted)
		}
	}
	return nil
}

func (f *kvFleet) run(w *window, sp *spanLog) {
	for _, r := range f.drive(w, -1, sp) {
		w.merge(r)
	}
}

// drive runs every session's closed loop until the window's deadline, or
// for limit ops when limit >= 0, and returns the sessions' recorders.
func (f *kvFleet) drive(w *window, limit int, sp *spanLog) []*recorder {
	recs := make([]*recorder, len(f.sessions))
	var wg sync.WaitGroup
	for s := range f.sessions {
		recs[s] = newRecorder(w)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if f.get {
				f.getLoop(s, recs[s], w.deadline(), limit, sp)
			} else {
				f.putLoop(s, recs[s], w.deadline(), limit, sp)
			}
		}(s)
	}
	wg.Wait()
	return recs
}

func (f *kvFleet) putLoop(s int, rec *recorder, deadline time.Time, limit int, sp *spanLog) {
	c, rng, vals := f.sessions[s], f.rngs[s], f.values[s]
	for i := 0; i != limit; i++ {
		begin := time.Now()
		if !begin.Before(deadline) {
			return
		}
		k := s + kvSessions*rng.Intn(keySpace/kvSessions)
		vi := f.next[s]
		f.next[s] = (vi + 1) % len(vals)
		err := c.Put(f.keys[k], vals[vi])
		end := time.Now()
		if err == nil {
			f.last[k] = int32(vi)
		} else {
			f.last[k] = lastUnknown
		}
		rec.done(begin, end, err == nil)
		if sp != nil && i%spanEvery == 0 {
			sp.add(sp.newTrace(), 0, "client.Put", begin, end)
		}
	}
}

func (f *kvFleet) getLoop(s int, rec *recorder, deadline time.Time, limit int, sp *spanLog) {
	c, rng := f.sessions[s], f.rngs[s]
	for i := 0; i != limit; i++ {
		begin := time.Now()
		if !begin.Before(deadline) {
			return
		}
		k := rng.Intn(keySpace)
		v, found, err := c.Get(f.keys[k])
		end := time.Now()
		ok := err == nil && found && v == f.preloaded[k]
		if err == nil && !ok {
			f.wrong[s]++
		}
		rec.done(begin, end, ok)
		if sp != nil && i%spanEvery == 0 {
			sp.add(sp.newTrace(), 0, "client.Get", begin, end)
		}
	}
}

// check verifies what the window wrote or read: kv-put reads sampled keys
// back through a linearizable BarrierGet and expects each key's last acked
// value; kv-get expects every Get to have returned the preloaded value.
// Both then require the three replicas' digests to agree.
func (f *kvFleet) check() error {
	var errs []error
	if f.get {
		for s, n := range f.wrong {
			if n > 0 {
				errs = append(errs, fmt.Errorf("session %d: %d gets returned a value other than the preloaded one", s, n))
			}
		}
	} else {
		errs = append(errs, f.checkPuts())
	}
	errs = append(errs, f.checkDigests())
	for i, d := range f.daemons {
		errs = append(errs, checkView(d.Proc(), 1, kvDaemons, i+1))
	}
	return errors.Join(errs...)
}

func (f *kvFleet) checkPuts() error {
	rng := rand.New(rand.NewSource(f.seed - 1))
	checked := 0
	for _, k := range rng.Perm(keySpace) {
		if checked == checkKeys {
			break
		}
		last := f.last[k]
		if last == lastUnknown {
			continue
		}
		checked++
		got, found, err := f.sessions[0].BarrierGet(f.keys[k])
		if err != nil {
			return fmt.Errorf("barrier get %s: %w", f.keys[k], err)
		}
		switch {
		case last < 0 && found:
			return fmt.Errorf("key %s was never acked but reads %.16q", f.keys[k], got)
		case last >= 0 && (!found || got != f.values[k%kvSessions][last]):
			return fmt.Errorf("key %s reads %.16q (found %v), want its last acked value %.16q",
				f.keys[k], got, found, f.values[k%kvSessions][last])
		}
	}
	if checked == 0 {
		return errors.New("no key had a predictable last value")
	}
	return nil
}

// checkDigests waits for the replicas to reach the same applied sequence
// and compares their state digests.
func (f *kvFleet) checkDigests() error {
	reps := make([]*newtop.Replica, len(f.daemons))
	for i, d := range f.daemons {
		reps[i], _ = d.Replica()
		if reps[i] == nil {
			return fmt.Errorf("daemon %d has no serving replica", i+1)
		}
	}
	err := waitFor(10*time.Second, "replicas to reach the same applied sequence", func() bool {
		for _, r := range reps[1:] {
			if r.AppliedSeq() != reps[0].AppliedSeq() {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	for i, r := range reps[1:] {
		if a, b := reps[0].Digest(), r.Digest(); a != b {
			return fmt.Errorf("replica digests disagree: daemon 1 %x, daemon %d %x", a, i+2, b)
		}
	}
	return nil
}

func (f *kvFleet) sample() probe {
	snaps := make([]newtop.MetricsSnapshot, len(f.sessions))
	for i, c := range f.sessions {
		snaps[i] = c.Metrics().Snapshot()
	}
	return sampleProcs(f.procs, snaps...)
}

// layerMetrics adds the replication metrics, read at daemon 1's serving
// group, and the daemon's self time.
func (f *kvFleet) layerMetrics(l *layerSet, w *window, before, after probe) {
	_, g := f.daemons[0].Replica()
	label := `{group="` + strconv.FormatUint(uint64(g), 10) + `"}`
	p50, ok := quantileMS(before, after, regProposeApply+label, false)
	l.put("rsm.propose_apply_p50_ms", p50, ok)
	l.quantile("rsm.propose_apply_p99_ms", before, after, regProposeApply+label, true)
	v, rok := counter(before, after, regResyncs+label)
	l.put("rsm.resyncs", v, rok)
	l.put("daemon.self_p50_ms", w.sliceP50()/1e6-p50, ok)
}

func (f *kvFleet) writeTraces(enc *json.Encoder) error {
	for _, p := range f.procs {
		if err := writeProgramTraces(enc, p); err != nil {
			return err
		}
	}
	return nil
}

func (f *kvFleet) close() {
	for _, c := range f.sessions {
		c.Close()
	}
	for _, d := range f.daemons {
		if d != nil {
			d.Close()
		}
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}
