package vodclient

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// This file is the bounded dialing layer a load harness multiplexes its
// sessions over. The wire protocol is one session per TCP connection (the
// server closes the connection when the subscription ends), so "reuse" here
// is not connection recycling: the pool bounds how many sockets exist at
// once, shares one configured net.Dialer (and its local port/keep-alive
// state) across every session, and makes sessions beyond the bound queue for
// a slot instead of exhausting file descriptors. A hundred thousand logical
// sessions ride a few hundred connections; the queueing delay each session
// pays is measured and surfaced as Result.PoolWait.

// Pool runs sessions against one server address through a bounded number of
// concurrent connections. All methods are safe for concurrent use.
type Pool struct {
	addr   string
	sem    chan struct{}
	dialer net.Dialer

	mu     sync.Mutex
	active int
	peak   int
	dials  uint64
	waits  uint64
}

// PoolStats is a consistent snapshot of a pool's lifetime counters.
type PoolStats struct {
	// MaxConns is the configured connection bound; Active the connections
	// open right now; Peak the high-water mark.
	MaxConns int `json:"max_conns"`
	Active   int `json:"active"`
	Peak     int `json:"peak"`
	// Dials counts established connections; Waits counts sessions that had
	// to queue for a slot before dialing.
	Dials uint64 `json:"dials"`
	Waits uint64 `json:"waits"`
}

// NewPool returns a pool of at most maxConns concurrent connections to addr.
func NewPool(addr string, maxConns int) (*Pool, error) {
	if addr == "" {
		return nil, fmt.Errorf("vodclient: pool address must be non-empty")
	}
	if maxConns <= 0 {
		return nil, fmt.Errorf("vodclient: pool size %d must be positive", maxConns)
	}
	return &Pool{
		addr: addr,
		sem:  make(chan struct{}, maxConns),
		// Keep-alive pins half-open sockets down fast under churn; the
		// per-session timeout still bounds each dial.
		dialer: net.Dialer{KeepAlive: 15 * time.Second},
	}, nil
}

// Fetch runs one session through the pool: wait for a connection slot,
// dial with the shared dialer, run the session, release the slot. The
// returned Result carries the slot wait (PoolWait) and the dial latency
// (Dial); opts.Timeout bounds dial plus session, not the slot wait — a
// closed-loop harness wants saturated pools to queue, not to error.
func (p *Pool) Fetch(opts FetchOptions) (Result, error) {
	if opts.From == 0 {
		opts.From = 1
	}
	if err := checkOptions(opts); err != nil {
		return Result{}, err
	}
	// Uncontended acquisition is the fast path and records a zero wait; only
	// a full pool starts the clock.
	var wait time.Duration
	select {
	case p.sem <- struct{}{}:
	default:
		waitStart := time.Now()
		p.sem <- struct{}{}
		wait = time.Since(waitStart)
	}
	defer func() { <-p.sem }()

	start := time.Now()
	conn, err := p.dialer.Dial("tcp", p.addr)
	if err != nil {
		return Result{}, fmt.Errorf("vodclient: pool dial: %w", err)
	}
	dial := time.Since(start)

	p.mu.Lock()
	p.dials++
	if wait > 0 {
		p.waits++
	}
	p.active++
	if p.active > p.peak {
		p.peak = p.active
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.active--
		p.mu.Unlock()
	}()

	res, err := runSession(conn, start, dial, opts)
	res.PoolWait = wait
	return res, err
}

// Addr reports the server address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		MaxConns: cap(p.sem),
		Active:   p.active,
		Peak:     p.peak,
		Dials:    p.dials,
		Waits:    p.waits,
	}
}
