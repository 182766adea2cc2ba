package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"newtop"
)

// mcShape is one multicast workload's fleet and load.
type mcShape struct {
	members       int
	payload       int // bytes per multicast
	ringThreshold int // newtop.Config.RingThreshold (0: direct fan-out)
	inFlight      int // own multicasts each member keeps undelivered
	warmup        uint64
}

var (
	mcDirect = mcShape{members: 3, payload: 128, inFlight: 32, warmup: 2000}
	mcRing   = mcShape{members: 5, payload: 8 << 10, ringThreshold: 4 << 10, inFlight: 4, warmup: 200}
)

const (
	mcGroup newtop.GroupID = 1
	// slots indexes a member's in-flight submit times by seq; it must
	// exceed every shape's inFlight so a slot is never reused while its
	// message is undelivered.
	slots = 64
)

// member is one protocol process plus the benchmark's per-member state.
type member struct {
	id  newtop.ProcessID
	p   *newtop.Process
	buf []byte // payload buffer; Submit copies it, so it is rewritten per send

	// Generator-owned.
	next  uint64 // next own sequence number
	quota uint64 // submit while next < quota

	inflight  atomic.Int32
	from      atomic.Uint64 // first seq submitted in the window (MaxUint64: none yet)
	submitNs  [slots]atomic.Int64
	submitEnd [slots]atomic.Int64
	rec       atomic.Pointer[recorder] // own-delivery latencies; nil outside the window

	// Consumer-owned; published by the delivered counter.
	delivered atomic.Uint64
	hash      uint64
	expect    []uint64 // per sender, next expected seq
}

// mcFleet is a symmetric group of newtop.Process members over loopback TCP,
// one delivery consumer per member and one generator goroutine for all.
type mcFleet struct {
	shape   mcShape
	base    time.Time
	members []*member
	procs   []*newtop.Process
	credit  chan struct{} // a consumer freed an in-flight slot
	wg      sync.WaitGroup
	sp      *spanLog // spans of the traced window; nil when untraced
	errMu   sync.Mutex
	err     error // first consumer-detected fault
	closeMu sync.Once

	attempted  uint64 // multicasts submitted in the window
	unfinished uint64 // of those, not delivered at member 1 after the drain
}

func setupMulticast(cfg *runConfig, sp *spanLog) (fleet, error) {
	return setupMC(cfg, sp, mcDirect)
}

func setupMulticastRing(cfg *runConfig, sp *spanLog) (fleet, error) {
	return setupMC(cfg, sp, mcRing)
}

func setupMC(cfg *runConfig, sp *spanLog, shape mcShape) (fleet, error) {
	trace := sp.newTrace()
	t0 := time.Now()
	root := sp.add(trace, 0, "setup", t0, t0)
	defer func() { sp.finish(root, time.Now()) }()

	return retryStart(func() (*mcFleet, error) {
		f, err := startMC(cfg, sp, shape, trace, root)
		if err != nil {
			return nil, err
		}
		err = sp.timed(trace, root, "warmup", func() error {
			for _, m := range f.members {
				m.quota = m.next + shape.warmup
			}
			if err := f.generate(nil); err != nil {
				return err
			}
			return f.drain()
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

// startMC starts the members, bootstraps the group on each, waits until it
// is open for sends everywhere, and starts the delivery consumers.
func startMC(cfg *runConfig, sp *spanLog, shape mcShape, trace uint64, root uint32) (*mcFleet, error) {
	f := &mcFleet{shape: shape, base: time.Now(), credit: make(chan struct{}, 1), sp: sp}
	addrs, err := reservePorts(shape.members)
	if err != nil {
		return nil, err
	}
	ids := make([]newtop.ProcessID, shape.members)
	for i := range ids {
		ids[i] = newtop.ProcessID(i + 1)
	}
	for i := range addrs {
		var p *newtop.Process
		err := sp.timed(trace, root, "newtop.Start", func() (err error) {
			p, err = newtop.Start(newtop.Config{
				Self:             ids[i],
				ListenAddr:       addrs[i],
				Peers:            peersOf(addrs, i),
				Omega:            mcOmega,
				SuspicionTimeout: mcSuspicion,
				RingThreshold:    shape.ringThreshold,
				TraceSampleEvery: cfg.traceEvery,
				TraceKeep:        1 << 15,
			})
			return err
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start member %d: %w", i+1, err)
		}
		m := &member{id: ids[i], p: p, buf: make([]byte, shape.payload), expect: make([]uint64, shape.members+1)}
		m.from.Store(math.MaxUint64)
		for j := 8; j < len(m.buf); j++ {
			m.buf[j] = byte('a' + (i+j)%26)
		}
		f.members = append(f.members, m)
		f.procs = append(f.procs, p)
	}
	for _, m := range f.members {
		if err := sp.timed(trace, root, "BootstrapGroup", func() error {
			return m.p.BootstrapGroup(mcGroup, newtop.Symmetric, ids)
		}); err != nil {
			f.close()
			return nil, err
		}
	}
	err = sp.timed(trace, root, "ready", func() error {
		return waitFor(15*time.Second, "the group to open", func() bool {
			for _, m := range f.members {
				if !m.p.GroupReady(mcGroup) {
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
	for i, m := range f.members {
		f.wg.Add(1)
		go f.consume(m, i == 0)
	}
	return f, nil
}

// consume reads one member's deliveries until the process closes. It
// checks per-sender FIFO, folds every delivery into the member's running
// hash, records own-delivery latency for window messages and, at member 1,
// counts window deliveries into the throughput slices.
func (f *mcFleet) consume(m *member, counting bool) {
	defer f.wg.Done()
	for d := range m.p.Deliveries() {
		now := time.Now()
		if d.Group != mcGroup || len(d.Payload) < 8 || int(d.Sender) >= len(m.expect) {
			f.fail(fmt.Errorf("member %d: unexpected delivery from %d in group %d", m.id, d.Sender, d.Group))
			continue
		}
		seq := binary.LittleEndian.Uint64(d.Payload)
		if seq != m.expect[d.Sender] {
			f.fail(fmt.Errorf("member %d: sender %d delivered seq %d, want %d", m.id, d.Sender, seq, m.expect[d.Sender]))
		}
		m.expect[d.Sender] = seq + 1
		m.hash = (m.hash ^ (uint64(d.Sender)<<56 | seq)) * 1099511628211

		inWindow := seq >= f.members[d.Sender-1].from.Load()
		if d.Sender == m.id {
			slot := seq % slots
			if r := m.rec.Load(); r != nil && inWindow {
				start := f.base.Add(time.Duration(m.submitNs[slot].Load()))
				r.latency(now, now.Sub(start))
				if f.sp != nil && seq%spanEvery == 0 {
					f.spanSubmit(start, time.Duration(m.submitEnd[slot].Load()), now)
				}
			}
			m.inflight.Add(-1)
			select {
			case f.credit <- struct{}{}:
			default:
			}
		}
		if counting && inWindow {
			if r := m.rec.Load(); r != nil {
				r.completed++
				r.completion(now)
			}
		}
		m.delivered.Add(1)
	}
}

// spanSubmit records one sampled multicast: Submit call to own delivery,
// with the Submit call itself as its child when its end is already known.
func (f *mcFleet) spanSubmit(start time.Time, submitEnd time.Duration, delivered time.Time) {
	trace := f.sp.newTrace()
	parent := f.sp.add(trace, 0, "Process.Submit->delivery", start, delivered)
	if end := f.base.Add(submitEnd); !end.Before(start) && !end.After(delivered) {
		f.sp.add(trace, parent, "Process.Submit", start, end)
	}
}

func (f *mcFleet) fail(err error) {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// generate is the one generator goroutine's loop: it tops every member up
// to shape.inFlight undelivered own multicasts, until every member has
// reached its quota or stop closes.
func (f *mcFleet) generate(stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		submitted, open := false, false
		for _, m := range f.members {
			for m.next < m.quota && m.inflight.Load() < int32(f.shape.inFlight) {
				seq := m.next
				binary.LittleEndian.PutUint64(m.buf, seq)
				slot := seq % slots
				m.submitNs[slot].Store(int64(time.Since(f.base)))
				m.inflight.Add(1)
				m.next++
				if err := m.p.Submit(mcGroup, m.buf); err != nil {
					return fmt.Errorf("member %d: submit: %w", m.id, err)
				}
				m.submitEnd[slot].Store(int64(time.Since(f.base)))
				submitted = true
			}
			open = open || m.next < m.quota
		}
		if !open {
			return nil
		}
		if !submitted {
			select {
			case <-f.credit:
			case <-stop:
				return nil
			}
		}
	}
}

// total is how many multicasts every member must deliver.
func (f *mcFleet) total() uint64 {
	var n uint64
	for _, m := range f.members {
		n += m.next
	}
	return n
}

// drain waits until every member has delivered every multicast submitted.
func (f *mcFleet) drain() error {
	total := f.total()
	return waitFor(drainTimeout, "every multicast to be delivered everywhere", func() bool {
		for _, m := range f.members {
			if m.delivered.Load() < total {
				return false
			}
		}
		return true
	})
}

func (f *mcFleet) run(w *window, sp *spanLog) {
	recs := make([]*recorder, len(f.members))
	for i, m := range f.members {
		recs[i] = newRecorder(w)
		m.rec.Store(recs[i])
		m.from.Store(m.next)
		m.quota = math.MaxUint64
	}
	stop := make(chan struct{})
	genErr := make(chan error, 1)
	go func() { genErr <- f.generate(stop) }()
	time.Sleep(time.Until(w.deadline()))
	close(stop)
	if err := <-genErr; err != nil {
		f.fail(err)
	}
	for _, m := range f.members {
		f.attempted += m.next - m.from.Load()
	}
	if err := f.drain(); err != nil {
		// Stop the consumers before reading what they recorded.
		f.fail(err)
		f.close()
	}
	for _, m := range f.members {
		m.rec.Store(nil)
	}
	w.attempted = f.attempted
	for _, r := range recs {
		w.mergeSamples(r)
	}
	w.completed = recs[0].completed
	if w.completed < w.attempted {
		w.unfinished = w.attempted - w.completed
	}
	f.unfinished = w.unfinished
}

// check requires every member to have delivered every multicast, in the
// same order (equal running hashes), with per-sender FIFO intact.
func (f *mcFleet) check() error {
	f.errMu.Lock()
	err := f.err
	f.errMu.Unlock()
	if err != nil {
		return err
	}
	if f.unfinished > 0 {
		return fmt.Errorf("%d window multicasts never delivered at member 1", f.unfinished)
	}
	total := f.total()
	ref := f.members[0]
	var errs []error
	for _, m := range f.members {
		if n := m.delivered.Load(); n != total {
			errs = append(errs, fmt.Errorf("member %d delivered %d multicasts, want %d", m.id, n, total))
		}
		if m.hash != ref.hash {
			errs = append(errs, fmt.Errorf("member %d delivery order hash %x differs from member 1's %x", m.id, m.hash, ref.hash))
		}
		errs = append(errs, checkView(m.p, mcGroup, f.shape.members, int(m.id)))
	}
	return errors.Join(errs...)
}

func (f *mcFleet) sample() probe { return sampleProcs(f.procs) }

// layerMetrics adds nothing: the replication, storage and client layers
// are bypassed, so their metrics stay absent.
func (f *mcFleet) layerMetrics(*layerSet, *window, probe, probe) {}

func (f *mcFleet) writeTraces(enc *json.Encoder) error {
	return writeProgramTraces(enc, f.procs[0])
}

func (f *mcFleet) close() {
	f.closeMu.Do(func() {
		for _, p := range f.procs {
			p.Close()
		}
		f.wg.Wait()
	})
}
