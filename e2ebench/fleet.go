package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"newtop"
)

// spanEvery is how often a load goroutine records a span around one op in
// a traced window.
const spanEvery = 16

// reservePorts picks n free loopback addresses. The listeners close before
// the fleet binds the ports; callers retry the whole start on the rare
// bind failure.
func reservePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// peersOf returns every address but member i's, keyed by process ID
// (member i is process i+1).
func peersOf(addrs []string, i int) map[newtop.ProcessID]string {
	peers := make(map[newtop.ProcessID]string, len(addrs)-1)
	for j, a := range addrs {
		if j != i {
			peers[newtop.ProcessID(j+1)] = a
		}
	}
	return peers
}

// startAttempts bounds fleet starts retried after a lost port race.
const startAttempts = 3

// retryStart runs start until it succeeds or fails startAttempts times.
func retryStart[F any](start func() (F, error)) (F, error) {
	var errs []error
	for i := 0; i < startAttempts; i++ {
		f, err := start()
		if err == nil {
			return f, nil
		}
		errs = append(errs, err)
		fmt.Fprintf(os.Stderr, "e2ebench: set-up attempt %d failed: %v\n", i+1, err)
	}
	var zero F
	return zero, errors.Join(errs...)
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// checkView requires member i to still serve group g with all n members:
// a false suspicion during the run would have split or replaced the group.
func checkView(p *newtop.Process, g newtop.GroupID, n, i int) error {
	v, err := p.View(g)
	if err != nil {
		return fmt.Errorf("member %d: group %d: %w", i, g, err)
	}
	if v.Size() != n {
		return fmt.Errorf("member %d: group %d view shrank to %d of %d members", i, g, v.Size(), n)
	}
	return nil
}

// healthy rejects a fleet that lost a message while it started: a peer
// dialled before its listener was up drops the batch, and the receiver's
// FIFO gap then makes it suspect the sender and split the group shortly
// after. Such a fleet is closed and started again.
func healthy(procs []*newtop.Process) error {
	for _, p := range procs {
		for name, v := range p.Metrics().Counters {
			lost := name == regDialFailures ||
				strings.HasPrefix(name, regDropsPrefix+`{layer="core"`) ||
				strings.HasPrefix(name, regDropsPrefix+`{layer="tcpnet"`)
			if v > 0 && lost {
				return fmt.Errorf("member %d: %s = %d during set-up", p.Self(), name, v)
			}
		}
	}
	return nil
}
