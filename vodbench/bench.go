package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"vodcast/internal/core"
	"vodcast/internal/sim"
	"vodcast/internal/vodclient"
	"vodcast/internal/vodserver"
	"vodcast/internal/wire"
	"vodcast/internal/workload"
)

// shape is one workload: the catalogue the server is started with and the
// viewer loop the generator runs against it.
type shape struct {
	name     string
	videos   int
	segments int
	segBytes int
	slot     time.Duration
	// watch selects whole strict sessions through vodclient.Pool with think
	// time between them; otherwise each viewer zaps (request, schedule,
	// close) back to back.
	watch bool
	// thinkSlots bounds the think time, drawn uniform in [0, thinkSlots)
	// slots after each watch session.
	thinkSlots int
	// warmup is the number of sessions each viewer completes before timing
	// starts, part of the set-up time.
	warmup int
}

// shapes are the benchmark's workloads. Each loads a different layer: zap
// the control path (accept, handshake, station admit, teardown), catalogue
// the per-slot tick over thousands of mostly idle videos, bulk the data
// plane per byte (large-frame encode, drain, client verification).
var shapes = map[string]shape{
	"zap":       {name: "zap", videos: 16, segments: 30, segBytes: 1 << 10, slot: 5 * time.Millisecond, warmup: 200},
	"catalogue": {name: "catalogue", videos: 4096, segments: 16, segBytes: 512, slot: 5 * time.Millisecond, watch: true, thinkSlots: 8, warmup: 1},
	"bulk":      {name: "bulk", videos: 1, segments: 16, segBytes: 256 << 10, slot: 5 * time.Millisecond, watch: true, thinkSlots: 8, warmup: 1},
}

// sessionTimeout bounds one session, dial included; a healthy session takes
// at most a few dozen slots.
const sessionTimeout = 10 * time.Second

// admission is one admit the server confirmed to a viewer: the catalogue
// index and the slot it was admitted in. The replay re-runs them.
type admission struct {
	video, slot int32
}

// admissionLog stores admissions in fixed-size chunks, so it grows without
// the copy-and-double of one long slice.
type admissionLog struct{ chunks [][]admission }

const admissionChunk = 1 << 12

func (l *admissionLog) add(a admission) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == admissionChunk {
		l.chunks = append(l.chunks, make([]admission, 0, admissionChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, a)
}

// session is one viewer session as the generator saw it.
type session struct {
	start, end time.Time
	err        error
	// latency is what the viewer waits for: request write to ScheduleInfo
	// decoded (zap), or request to the first payload byte (watch).
	latency time.Duration
	// protoSlots is the session length the protocol promises, in slots
	// (zero for a zap); a session is late when it outlasts protoSlots + 2.
	protoSlots int
	bytes      int64
	shared     int
	dial       time.Duration
	poolWait   time.Duration
}

// stats accumulates sessions in constant memory, so the generator's
// bookkeeping does not grow the process it measures.
type stats struct {
	n, ok, onTime int
	bytes         int64
	shared        int64
	waited        int // sessions that queued for a pooled connection
	failures      []string
	// Distributions over verified sessions; dial, poolWait and overrun
	// (wall length beyond protoSlots) only for watch sessions.
	latency, dial, poolWait, overrun hist
}

// maxFailures bounds the failure messages a run keeps and prints.
const maxFailures = 5

func (st *stats) add(sh shape, s session) {
	st.n++
	if s.err != nil {
		if len(st.failures) < maxFailures {
			st.failures = append(st.failures, s.err.Error())
		}
		return
	}
	st.ok++
	st.bytes += s.bytes
	wall := s.end.Sub(s.start)
	if wall <= time.Duration(s.protoSlots+2)*sh.slot {
		st.onTime++
	}
	st.latency.add(s.latency)
	if sh.watch {
		st.shared += int64(s.shared)
		st.dial.add(s.dial)
		st.poolWait.add(s.poolWait)
		st.overrun.add(wall - time.Duration(s.protoSlots)*sh.slot)
		if s.poolWait > 0 {
			st.waited++
		}
	}
}

func (st *stats) merge(o *stats) {
	st.n += o.n
	st.ok += o.ok
	st.onTime += o.onTime
	st.bytes += o.bytes
	st.shared += o.shared
	st.waited += o.waited
	st.failures = append(st.failures, o.failures...)[:min(len(st.failures)+len(o.failures), maxFailures)]
	st.latency.merge(&o.latency)
	st.dial.merge(&o.dial)
	st.poolWait.merge(&o.poolWait)
	st.overrun.merge(&o.overrun)
}

// span is one timed call the generator made, tagged with its session.
type span struct {
	Session uint64 `json:"session"`
	Name    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// worker is one closed-loop viewer. Its state persists across phases so a
// run's draws depend only on the seed and the worker index.
type worker struct {
	id         int
	rng        *sim.RNG
	dialer     net.Dialer
	admissions admissionLog
	sessions   uint64
}

// bench is one started server with its generator.
type bench struct {
	shape   shape
	srv     *vodserver.Server
	addr    string
	epoch   time.Time
	periods []uint32 // the core period vector every ScheduleInfo must carry
	zipf    *workload.Zipf
	pool    *vodclient.Pool
	workers []*worker

	// total accumulates every session the bench ran, warm-up included.
	total stats
}

// catalogue is the server catalogue of a shape (ids 1..videos).
func (sh shape) catalogue() []vodserver.VideoConfig {
	vs := make([]vodserver.VideoConfig, sh.videos)
	for i := range vs {
		vs[i] = vodserver.VideoConfig{ID: uint32(i + 1), Segments: sh.segments, SegmentBytes: sh.segBytes}
	}
	return vs
}

// corePeriods is the period vector core assigns a video of the shape.
func (sh shape) corePeriods() ([]uint32, error) {
	sched, err := core.New(core.Config{Segments: sh.segments})
	if err != nil {
		return nil, err
	}
	p := make([]uint32, sh.segments)
	for j := 1; j <= sh.segments; j++ {
		p[j-1] = uint32(sched.Period(j))
	}
	return p, nil
}

// start boots the in-process server with the cmd/vodserver defaults and
// builds one viewer per CPU.
func start(sh shape, seed int64) (*bench, error) {
	periods, err := sh.corePeriods()
	if err != nil {
		return nil, err
	}
	zipf, err := workload.NewZipf(sh.videos, 1.0)
	if err != nil {
		return nil, err
	}
	srv, err := vodserver.Start(vodserver.Config{
		Addr:         "127.0.0.1:0",
		Videos:       sh.catalogue(),
		SlotDuration: sh.slot,
	})
	if err != nil {
		return nil, err
	}
	n := runtime.GOMAXPROCS(0)
	pool, err := vodclient.NewPool(srv.Addr(), n)
	if err != nil {
		srv.Close()
		return nil, err
	}
	b := &bench{shape: sh, srv: srv, addr: srv.Addr(), epoch: time.Now(), periods: periods, zipf: zipf, pool: pool}
	for i := 0; i < n; i++ {
		b.workers = append(b.workers, &worker{id: i, rng: sim.NewRNG(seed*1_000_003 + int64(i))})
	}
	return b, nil
}

// setup starts a bench and runs the warm-up sessions: the returned duration
// is the set-up time, from the Start call to the server listening with its
// catalogue built and every viewer's warm-up done.
func setup(sh shape, seed int64) (*bench, time.Duration, error) {
	t0 := time.Now()
	b, err := start(sh, seed)
	if err != nil {
		return nil, 0, err
	}
	b.phase(false, func(done int) bool { return done < sh.warmup })
	return b, time.Since(t0), nil
}

func (b *bench) close() { b.srv.Close() }

// phase runs every viewer's closed loop while more(sessions the viewer has
// done in this phase) holds, and returns the phase's sessions (and, when
// traced, the spans).
func (b *bench) phase(traced bool, more func(done int) bool) (stats, []span) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		all   stats
		spans []span
	)
	for _, w := range b.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			var mine stats
			var trace *[]span
			if traced {
				trace = new([]span)
			}
			for more(mine.n) {
				if b.shape.watch {
					mine.add(b.shape, b.watch(w, trace))
				} else {
					mine.add(b.shape, b.zap(w, trace))
				}
			}
			mu.Lock()
			all.merge(&mine)
			if trace != nil {
				spans = append(spans, *trace...)
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	b.total.merge(&all)
	return all, spans
}

// record appends one timed call to a traced session.
func (b *bench) record(trace *[]span, id uint64, name, parent string, t0, t1 time.Time) {
	if trace == nil {
		return
	}
	*trace = append(*trace, span{Session: id, Name: name, Parent: parent,
		StartNS: t0.Sub(b.epoch).Nanoseconds(), DurNS: t1.Sub(t0).Nanoseconds()})
}

// countingReader counts the bytes a viewer received.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// zap is one channel-surfing session: dial, v2 request without a report,
// read and check the ScheduleInfo, close.
func (b *bench) zap(w *worker, trace *[]span) (s session) {
	w.sessions++
	id := uint64(w.id)<<40 | w.sessions
	video := uint32(b.zipf.Sample(w.rng)) + 1
	s.start = time.Now()
	defer func() { s.end = time.Now(); b.record(trace, id, "zap", "", s.start, s.end) }()
	conn, err := w.dialer.Dial("tcp", b.addr)
	dialed := time.Now()
	b.record(trace, id, "dial", "zap", s.start, dialed)
	s.dial = dialed.Sub(s.start)
	if err != nil {
		s.err = fmt.Errorf("zap dial: %w", err)
		return s
	}
	defer conn.Close()
	if err := conn.SetDeadline(s.start.Add(sessionTimeout)); err != nil {
		s.err = fmt.Errorf("zap deadline: %w", err)
		return s
	}
	req := wire.Request{VideoID: video, FromSegment: 1, Version: wire.ProtoV2, Flags: wire.FlagNoReport}
	if err := wire.WriteFrame(conn, req); err != nil {
		s.err = fmt.Errorf("zap request: %w", err)
		return s
	}
	written := time.Now()
	b.record(trace, id, "request_write", "zap", dialed, written)
	cr := countingReader{r: conn}
	msg, err := wire.ReadFrame(&cr)
	read := time.Now()
	b.record(trace, id, "schedule_read", "zap", written, read)
	s.latency = read.Sub(dialed)
	s.bytes = cr.n
	if err != nil {
		s.err = fmt.Errorf("zap schedule: %w", err)
		return s
	}
	info, ok := msg.(wire.ScheduleInfo)
	if !ok {
		s.err = fmt.Errorf("zap: got %T instead of a schedule", msg)
		return s
	}
	if err := b.checkSchedule(info, video); err != nil {
		s.err = err
		return s
	}
	w.admissions.add(admission{video: int32(video) - 1, slot: int32(info.AdmitSlot)})
	closeStart := time.Now()
	s.err = conn.Close()
	b.record(trace, id, "close", "zap", closeStart, time.Now())
	return s
}

// watch is one whole strict session through the pool, then a think time.
// The think time keeps closed-loop viewers from phase-locking to slot
// boundaries; spanning half a session, it also lets the offset between
// viewers of one title (and so how many frames they share) mix within a
// run instead of drifting from wherever the run started.
func (b *bench) watch(w *worker, trace *[]span) session {
	w.sessions++
	id := uint64(w.id)<<40 | w.sessions
	video := uint32(b.zipf.Sample(w.rng)) + 1
	think := time.Duration(w.rng.Float64() * float64(time.Duration(b.shape.thinkSlots)*b.shape.slot))
	s := session{start: time.Now()}
	res, err := b.pool.Fetch(vodclient.FetchOptions{VideoID: video, Timeout: sessionTimeout, StrictDeadlines: true})
	s.end = time.Now()
	b.record(trace, id, "pool_fetch", "", s.start, s.end)
	if err == nil {
		err = b.checkPeriods(res.Periods)
	}
	if err != nil {
		s.err = fmt.Errorf("watch video %d: %w", video, err)
	} else {
		w.admissions.add(admission{video: int32(video) - 1, slot: int32(res.AdmitSlot)})
		s.latency = res.FirstByte
		s.protoSlots = res.SessionSlots
		s.bytes = res.PayloadBytes
		s.shared = res.SharedFrames
		s.dial = res.Dial
		s.poolWait = res.PoolWait
	}
	sleep := time.Now()
	time.Sleep(think)
	b.record(trace, id, "think", "", sleep, time.Now())
	return s
}

// admissions returns every admit the viewers were confirmed, ordered by
// slot.
func (b *bench) admissions() []admission {
	var all []admission
	for _, w := range b.workers {
		for _, c := range w.admissions.chunks {
			all = append(all, c...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].slot < all[j].slot })
	return all
}

// probe measures how late a 1 ms sleep wakes while the host is loaded: a
// generator that cannot get scheduled on time shows here first.
type probe struct {
	stop chan struct{}
	done chan struct{}
	late hist
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for {
			select {
			case <-p.stop:
				return
			default:
			}
			t := time.Now()
			time.Sleep(time.Millisecond)
			p.late.add(time.Since(t) - time.Millisecond)
		}
	}()
	return p
}

// finish stops the probe and waits for it.
func (p *probe) finish() {
	close(p.stop)
	<-p.done
}

// poller samples the server's fan-out ring depth, transport telemetry and
// the goroutine count during a traced window.
type poller struct {
	stop chan struct{}
	done chan struct{}

	// depths are vod_fanout_ring_depth_max readings: each read returns the
	// deepest ring since the previous read (the server's history scrape
	// reads it too) and resets it.
	depths         []float64
	stalledMax     float64
	retrans        map[uint64]uint32
	goroutinesPeak int
}

func startPoller(b *bench) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{}), retrans: make(map[uint64]uint32)}
	go func() {
		defer close(p.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			p.sample(b)
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *poller) sample(b *bench) {
	p.goroutinesPeak = max(p.goroutinesPeak, runtime.NumGoroutine())
	p.depths = append(p.depths, scrape(b.srv.Registry(), "vod_fanout_ring_depth_max")["vod_fanout_ring_depth_max"])
	sum := b.srv.Conns().Snapshot()
	p.stalledMax = max(p.stalledMax, sum.StalledRatio)
	for _, c := range sum.Conns {
		p.retrans[c.ID] = max(p.retrans[c.ID], c.Retrans)
	}
}

func (p *poller) finish(b *bench) {
	close(p.stop)
	<-p.done
	p.sample(b)
}
