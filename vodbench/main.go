// Command vodbench is the repository's serving benchmark. One process starts
// vodserver in-process with the cmd/vodserver defaults (only the catalogue
// shape and slot length are set) beside a seeded closed-loop generator with
// GOMAXPROCS = nproc and at most nproc connections open at once. It checks
// every output the viewers receive, replays every admission the server
// confirmed, and prints either the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; a run whose outputs are wrong exits 1 after printing it.
//
// Usage, from the repository root:
//
//	bash vodbench/run.sh --workload zap --seed 1 --seconds 10 --trace 0
//
// The workloads are zap, catalogue and bulk; README.md in this directory
// describes them, every metric, and which layer metric should move which
// end-to-end metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"vodcast/internal/analysis"
	"vodcast/internal/conntrack"
	"vodcast/internal/obs"
	"vodcast/internal/vodserver"
)

// commit is stamped by run.sh from the checkout's git HEAD, when it has one.
var commit = "unknown"

// setupRepeats is how many times a run starts a server and warms it up; the
// set-up time reported is the median, and the last server is measured.
const setupRepeats = 5

const mib = 1 << 20

func main() {
	var (
		name    = flag.String("workload", "", "workload: zap, catalogue or bulk")
		seed    = flag.Int64("seed", 1, "seed of the video draws and think times")
		seconds = flag.Int("seconds", 10, "length of one measured window in seconds")
		trace   = flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs an untraced and a traced window and prints the per-layer metrics")
		out     = flag.String("out", "", "directory for the traced window's spans and CPU profile (empty = not written)")
	)
	flag.Parse()
	sh, ok := shapes[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: vodbench --workload zap|catalogue|bulk --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{shape: sh, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, setups: setupRepeats, out: *out}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runConfig is one benchmark run.
type runConfig struct {
	shape  shape
	seed   int64
	window time.Duration
	traced bool
	setups int
	out    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets up cfg.setups servers (measuring the last), runs the measured
// window(s), checks the admission replay against the server and returns
// the result, printing a stamp, flags and every metric to w on the way.
func run(cfg runConfig, w io.Writer) (result, error) {
	sh := cfg.shape
	fmt.Fprintf(w, "stamp commit=%s go=%s nproc=%d gomaxprocs=%d workload=%s seed=%d window=%v trace=%t\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), sh.name, cfg.seed, cfg.window, cfg.traced)
	var (
		b      *bench
		setups []float64
		total  stats // every session of every server
	)
	for i := 0; i < max(cfg.setups, 1); i++ {
		if b != nil {
			total.merge(&b.total)
			b.close()
			// Return the closed server's memory now, so neither its garbage
			// nor the scavenger's work on it lands in a later set-up.
			debug.FreeOSMemory()
		}
		nb, d, err := setup(sh, cfg.seed)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		b = nb
		setups = append(setups, d.Seconds())
	}
	defer b.close()
	// Every measured window starts from a collected heap, so where the
	// warm-up left the GC cycle does not move the resident memory or the
	// latency tail.
	debug.FreeOSMemory()

	plain := b.measure(cfg.window, false)
	var traced *window
	if cfg.traced {
		traced = b.measure(cfg.window, true)
	}
	total.merge(&b.total)

	gate, rs, err := b.verify(traced)
	if err != nil {
		return result{}, err
	}
	failed := total.n - total.ok + len(gate)
	for _, f := range append(total.failures, gate...) {
		fmt.Fprintln(w, "failure:", f)
	}
	fmt.Fprintf(w, "window: %d sessions started, %d verified over %.2f s (the latency quantiles' sample)\n",
		plain.stats.n, plain.stats.ok, plain.seconds())
	flags := plain.flags(sh)
	fmt.Fprintf(w, "flags: %v\n", flags)

	var metrics map[string]metric
	if cfg.traced {
		metrics, err = b.perLayer(plain, traced, rs, flags, w)
		if err != nil {
			return result{}, err
		}
		if err := writeTrace(cfg, traced); err != nil {
			return result{}, err
		}
	} else {
		metrics = plain.endToEnd(sh, setups)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	return result{Correct: failed == 0, Attempted: total.n, Failed: failed, Metrics: metrics}, nil
}

// serverSnap is the server telemetry a window subtracts.
type serverSnap struct {
	ticks  uint64
	stats  vodserver.Stats
	scrape map[string]float64
	spans  obs.SpanStats
}

func (b *bench) snapshot() serverSnap {
	sc := scrape(b.srv.Registry(), "vod_")
	for k, v := range scrape(b.srv.Registry(), "station_stage_seconds") {
		sc[k] = v
	}
	return serverSnap{
		ticks:  b.srv.Station().Status().Clock.Ticks,
		stats:  b.srv.Stats(),
		scrape: sc,
		spans:  b.srv.Spans().Stats(),
	}
}

// window is one measured stretch of closed-loop load.
type window struct {
	start, end     time.Time
	stats          stats
	spans          []span
	cpu            time.Duration
	rt0, rt1       runtimeSample
	ticks0, ticks1 cpuTicks
	before, after  serverSnap
	late           hist
	rss            float64 // MiB, after the window's garbage is collected
	// traced windows only
	profile []byte
	poll    *poller
	status  vodserver.StatusSnapshot
}

// measure runs the viewers for d: every session started before the
// deadline is waited for and counted, so the window ends when the last one
// does. A traced window also records spans, a CPU profile and the server's
// transport telemetry.
func (b *bench) measure(d time.Duration, traced bool) *window {
	w := &window{}
	var prof bytes.Buffer
	profiling := false
	if traced {
		// A profile already running (a test binary's -cpuprofile) leaves the
		// shares empty rather than failing the run.
		profiling = pprof.StartCPUProfile(&prof) == nil
		w.poll = startPoller(b)
	}
	w.before = b.snapshot()
	pr := startProbe()
	cpu0 := cpuTime()
	w.rt0 = readRuntime()
	w.ticks0 = readTicks()
	w.start = time.Now()
	deadline := w.start.Add(d)
	w.stats, w.spans = b.phase(traced, func(int) bool { return time.Now().Before(deadline) })
	w.end = time.Now()
	w.cpu = cpuTime() - cpu0
	w.rt1 = readRuntime()
	w.ticks1 = readTicks()
	pr.finish()
	w.late = pr.late
	w.after = b.snapshot()
	if traced {
		w.poll.finish(b)
		if profiling {
			pprof.StopCPUProfile()
			w.profile = prof.Bytes()
		}
		w.status = b.srv.Status()
	}
	// Resident memory is read with the window's garbage collected and
	// returned: what the server holds, not where the GC cycle happened to
	// stand, which moved a sampled figure by a tenth run to run. Two cycles
	// also empty the sync.Pool caches (pooled broadcast frames), which
	// outlive the first.
	runtime.GC()
	debug.FreeOSMemory()
	w.rss, _ = residentMiB() // reads 0 where /proc is missing
	return w
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

func (w *window) sessionsPerSecond() float64 { return ratio(float64(w.stats.ok), w.seconds()) }

func (w *window) cpuPerSession() float64 {
	return ratio(float64(w.cpu.Microseconds()), float64(w.stats.ok))
}

// endToEnd is what a viewer and an operator of the server see.
func (w *window) endToEnd(sh shape, setups []float64) map[string]metric {
	st := &w.stats
	return map[string]metric{
		"setup_s":         {quantile(setups, 0.5), "s"},
		"sessions_per_s":  {w.sessionsPerSecond(), "1/s"},
		"startup_p50_ms":  {st.latency.ms(0.5), "ms"},
		"startup_p95_ms":  {st.latency.ms(0.95), "ms"},
		"goodput_mib_s":   {ratio(float64(st.bytes)/mib, w.seconds()), "MiB/s"},
		"slot_rate_ratio": {ratio(float64(w.after.ticks-w.before.ticks), w.seconds()) * sh.slot.Seconds(), "ratio"},
		"on_time_ratio":   {ratio(float64(st.onTime), float64(st.ok)), "ratio"},
		"success_ratio":   {ratio(float64(st.ok), float64(st.n)), "ratio"},
		"rss_mib":         {w.rss, "MiB"},
	}
}

// flags names the signs that the generator rather than the server limited
// a window: its timer wake-ups running a slot late, sessions queueing for a
// pooled connection, or the process using nearly every CPU.
func (w *window) flags(sh shape) []string {
	var fs []string
	if p99 := w.late.quantile(0.99); p99 > sh.slot {
		fs = append(fs, fmt.Sprintf("generator-late(p99 %v)", p99))
	}
	if w.stats.waited > 0 {
		fs = append(fs, fmt.Sprintf("pool-wait(%d sessions)", w.stats.waited))
	}
	if u := w.utilization(); u > 0.9 {
		fs = append(fs, fmt.Sprintf("host-saturated(%.2f of %d CPUs)", u, runtime.GOMAXPROCS(0)))
	}
	if st := w.steal(); st > stealLimit {
		fs = append(fs, fmt.Sprintf("host-steal(%.3f of CPU time)", st))
	}
	return fs
}

// stealLimit is the share of the machine's CPU time the hypervisor may
// steal before a window is flagged: beyond it the host, not the server,
// sets the pace.
const stealLimit = 0.1

// steal is the share of the machine's CPU time stolen during the window.
func (w *window) steal() float64 {
	return ratio(w.ticks1.steal-w.ticks0.steal, w.ticks1.total-w.ticks0.total)
}

func (w *window) utilization() float64 {
	return ratio(w.cpu.Seconds(), w.seconds()*float64(runtime.GOMAXPROCS(0)))
}

// saturatedTolerance is how far a video's replayed mean load may exceed
// analysis.DHBSaturated, the load with every segment sent exactly once per
// period. The heuristic may place an instance before the previous one's
// period ends, so a saturated video runs slightly above H(n) (about 1% on
// zap's hottest titles); 0.15 is the default the load harness's gate
// (internal/load) allows for the same check.
const saturatedTolerance = 0.15

// verify waits for the idle server to retire every scheduled instance,
// replays every confirmed admission (timing the layers when a traced window
// is given) and returns the gate failures: a replay that does not reproduce
// vod_instances_total, or a video whose replayed load exceeds DHB's
// saturated bandwidth by more than saturatedTolerance.
func (b *bench) verify(traced *window) ([]string, replayStats, error) {
	var gate []string
	retired, err := b.retiredInstances()
	if err != nil {
		gate = append(gate, err.Error())
	}
	var trace *[]span
	if traced != nil {
		trace = &traced.spans
	}
	rs, err := replay(b.shape, b.admissions(), traced != nil, trace, b.epoch)
	if err != nil {
		return nil, rs, err
	}
	if rs.instances != retired {
		gate = append(gate, fmt.Sprintf("%v: replay %d, server %d", errInstanceMismatch, rs.instances, retired))
	}
	if limit := rs.saturated * (1 + saturatedTolerance); rs.peakMean > limit {
		gate = append(gate, fmt.Sprintf("replayed mean load %.3f streams exceeds DHBSaturated %.3f × %.2f",
			rs.peakMean, rs.saturated, 1+saturatedTolerance))
	}
	return gate, rs, nil
}

// perLayer reads the traced window's layer metrics: server telemetry as
// deltas over the window (or the server's rolling windows at its end), the
// generator's spans, the replay's per-layer timings and the CPU profile's
// shares, plus the tracing overhead against the untraced window.
func (b *bench) perLayer(plain, tw *window, rs replayStats, flags []string, out io.Writer) (map[string]metric, error) {
	sh := b.shape
	st := &tw.stats
	dur := tw.seconds()
	d := func(key string) float64 { return tw.after.scrape[key] - tw.before.scrape[key] }
	us := func(sec float64) float64 { return sec * 1e6 }
	ms := func(sec float64) float64 { return sec * 1e3 }
	spanQ := func(name string, q float64) float64 {
		var xs []float64
		for _, s := range tw.spans {
			if s.Name == name && s.Parent != "replay" {
				xs = append(xs, float64(s.DurNS)/1e3)
			}
		}
		return quantile(xs, q)
	}
	ticks := float64(tw.after.ticks - tw.before.ticks)

	m := map[string]metric{
		"vodserver.fanout_tick_p50_us":       {us(tw.status.Fanout.P50), "us"},
		"vodserver.fanout_tick_p99_us":       {us(tw.status.Fanout.P99), "us"},
		"vodserver.fanout_tick_mean_us":      {us(ratio(d("vod_fanout_seconds_sum"), d("vod_fanout_seconds_count"))), "us"},
		"vodserver.first_byte_p99_ms":        {ms(tw.status.FirstByte.P99), "ms"},
		"vodserver.instances_per_slot":       {ratio(d("vod_instances_total"), ticks), "count"},
		"vodserver.broadcast_mib_s":          {ratio(d("vod_broadcast_bytes_total")/mib, dur), "MiB/s"},
		"vodserver.dropped":                  {float64(tw.after.stats.Dropped - tw.before.stats.Dropped), "count"},
		"station.admit_p50_us":               {us(histQuantile(tw.before.scrape, tw.after.scrape, "station_stage_seconds", `stage="admit"`, 0.5)), "us"},
		"station.admit_p99_us":               {us(histQuantile(tw.before.scrape, tw.after.scrape, "station_stage_seconds", `stage="admit"`, 0.99)), "us"},
		"station.lock_wait_p99_us":           {us(histQuantile(tw.before.scrape, tw.after.scrape, "station_stage_seconds", `stage="lock_wait"`, 0.99)), "us"},
		"station.clock_lag_p99_ms":           {ms(tw.status.Station.Clock.Lag.P99), "ms"},
		"station.ticks":                      {ticks, "count"},
		"station.replay_advance_us_per_slot": {ratio(us(rs.advance.Seconds()), float64(rs.slots)), "us"},
		"station.replay_admit_ns":            {ratio(float64(rs.admit.Nanoseconds()), float64(rs.admissions)), "ns"},
		"core.instances_per_admit": {ratio(float64(tw.after.stats.Instances-tw.before.stats.Instances),
			float64(tw.after.stats.Requests-tw.before.stats.Requests)), "count"},
		"fanout.replay_encode_us_per_slot":    {ratio(us(rs.encode.Seconds()), float64(rs.slots)), "us"},
		"fanout.replay_encode_mib_s":          {ratio(float64(rs.frameBytes)/mib, rs.encode.Seconds()), "MiB/s"},
		"fanout.ring_depth_p99":               {quantile(tw.poll.depths, 0.99), "count"},
		"wire.request_write_p99_us":           {spanQ("request_write", 0.99), "us"},
		"wire.schedule_read_p50_us":           {spanQ("schedule_read", 0.5), "us"},
		"wire.schedule_read_p99_us":           {spanQ("schedule_read", 0.99), "us"},
		"wire.replay_decode_mib_s":            {ratio(float64(rs.frameBytes)/mib, rs.decode.Seconds()), "MiB/s"},
		"vodclient.dial_p99_ms":               {st.dial.ms(0.99), "ms"},
		"vodclient.pool_wait_p99_ms":          {st.poolWait.ms(0.99), "ms"},
		"vodclient.session_overrun_p99_ms":    {st.overrun.ms(0.99), "ms"},
		"vodclient.shared_frames_per_session": {ratio(float64(st.shared), float64(st.ok)), "count"},
		"conntrack.stalled_ratio_max":         {tw.poll.stalledMax, "ratio"},
		"obs.history_series":                  {float64(b.srv.History().Stats().Series), "count"},
		"obs.spans_kept":                      {float64(tw.after.spans.Sampled - tw.before.spans.Sampled), "count"},
		"runtime.allocs_per_session":          {ratio(tw.rt1.allocs-tw.rt0.allocs, float64(st.ok)), "count"},
		"runtime.gc_cpu_fraction":             {ratio(tw.rt1.gcCPU-tw.rt0.gcCPU, tw.rt1.totalCPU-tw.rt0.totalCPU), "ratio"},
		"runtime.goroutines_peak":             {float64(tw.poll.goroutinesPeak), "count"},
		"gen.dial_p99_us":                     {spanQ("dial", 0.99), "us"},
		"gen.lateness_p99_ms":                 {tw.late.ms(0.99), "ms"},
		"process.cpu_us_per_session":          {tw.cpuPerSession(), "us"},
		"gen.cpu_utilization":                 {tw.utilization(), "ratio"},
		"gen.steal_ratio":                     {tw.steal(), "ratio"},
		"viewer.error_ratio":                  {ratio(float64(st.n-st.ok), float64(st.n)), "ratio"},
		"viewer.late_session_ratio":           {1 - ratio(float64(st.onTime), float64(st.ok)), "ratio"},
		"trace.sessions_per_s_ratio":          {ratio(tw.sessionsPerSecond(), plain.sessionsPerSecond()), "ratio"},
		"trace.cpu_per_session_ratio":         {ratio(tw.cpuPerSession(), plain.cpuPerSession()), "ratio"},
		"trace.spans":                         {float64(len(tw.spans)), "count"},
		"gen.limited":                         {float64(len(flags)), "count"},
	}
	var retrans uint32
	for _, r := range tw.poll.retrans {
		retrans += r
	}
	m["conntrack.retrans_per_session"] = metric{ratio(float64(retrans), float64(st.ok)), "count"}
	for _, reason := range append(conntrack.StateNames(), "untracked") {
		key := fmt.Sprintf(`vod_dropped_subscribers_total{reason="%s"}`, reason)
		m["vodserver.dropped."+reason] = metric{d(key), "count"}
	}
	model, err := streamsModel(sh, rs)
	if err != nil {
		return nil, err
	}
	m["core.load_vs_saturated"] = metric{ratio(rs.peakMean, rs.saturated), "ratio"}
	m["core.streams_vs_model"] = metric{ratio(ratio(float64(rs.instances), float64(rs.slots)), model), "ratio"}

	cs := cpuShares{module: map[string]float64{}, path: map[string]float64{}}
	if len(tw.profile) > 0 {
		stacks, err := parseProfile(tw.profile)
		if err != nil {
			return nil, err
		}
		cs = foldProfile(stacks)
	}
	for _, n := range moduleNames {
		m[n+".cpu_share"] = metric{cs.module[n], "ratio"}
	}
	for _, n := range pathNames {
		m["path."+n+".cpu_share"] = metric{cs.path[n], "ratio"}
	}
	m["profile.cpu_s"] = metric{cs.total, "s"}
	m["profile.samples"] = metric{float64(cs.samples), "count"}
	fmt.Fprintln(out, confirm(sh, cs))
	return m, nil
}

// streamsModel is the renewal-model mean load of the replayed admissions:
// the sum over videos of analysis.DHBMean at each video's mean arrival rate
// over the replayed horizon.
func streamsModel(sh shape, rs replayStats) (float64, error) {
	core, err := sh.corePeriods()
	if err != nil {
		return 0, err
	}
	periods := make([]int, len(core)+1)
	for j, p := range core {
		periods[j+1] = int(p)
	}
	hours := float64(rs.slots) * sh.slot.Hours()
	total := 0.0
	for _, n := range rs.admitsPer {
		if n == 0 {
			continue
		}
		mean, err := analysis.DHBMean(periods, float64(n)/hours, sh.slot.Seconds())
		if err != nil {
			return 0, err
		}
		total += mean
	}
	return total, nil
}

// confirm states, with its base, whether the traced window loaded the layer
// the workload exists for.
func confirm(sh shape, cs cpuShares) string {
	p := cs.path
	base := fmt.Sprintf("of %.2f CPU-s (%d samples)", cs.total, cs.samples)
	var ok bool
	var what string
	switch sh.name {
	case "catalogue":
		ok = p["tick"] > 0.5
		what = fmt.Sprintf("station+fan-out tick %.2f > 0.50", p["tick"])
	case "zap":
		ctl := p["control"] + p["gen"]
		ok = p["tick"] < 0.2 && ctl > 0.5
		what = fmt.Sprintf("tick %.2f < 0.20 and admission+handshake (server control %.2f + viewer %.2f) %.2f > 0.50",
			p["tick"], p["control"], p["gen"], ctl)
	case "bulk":
		plane := p["tick"] + p["drain"] + p["client"] + p["report"]
		ok = plane > 0.5
		what = fmt.Sprintf("encode tick %.2f + drain %.2f + client verification %.2f + report %.2f = %.2f > 0.50",
			p["tick"], p["drain"], p["client"], p["report"], plane)
	}
	verdict := "yes"
	if !ok {
		verdict = "no"
	}
	return fmt.Sprintf("confirm %s: %s %s: %s", sh.name, what, base, verdict)
}

// writeTrace writes the traced window's spans (JSONL) and CPU profile.
func writeTrace(cfg runConfig, tw *window) error {
	if cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.shape.name, cfg.seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range tw.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(stem+".spans.jsonl", buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(stem+".cpu.pprof", tw.profile, 0o644)
}
