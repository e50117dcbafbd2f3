package load

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vodcast/internal/analysis"
	"vodcast/internal/obs"
)

func TestProfiles(t *testing.T) {
	ramp, err := RampProfile(120, 3, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ramp) != 3 {
		t.Fatalf("ramp steps = %d, want 3", len(ramp))
	}
	want := []int{40, 80, 120}
	var total time.Duration
	for i, st := range ramp {
		if st.Sessions != want[i] {
			t.Fatalf("ramp[%d] = %d sessions, want %d", i, st.Sessions, want[i])
		}
		if i > 0 && st.Sessions <= ramp[i-1].Sessions {
			t.Fatalf("ramp not monotone at step %d", i)
		}
		total += st.Duration
	}
	if total != 3*time.Second {
		t.Fatalf("ramp total = %v, want 3s", total)
	}

	// More steps than sessions collapses to one step per session.
	tiny, err := RampProfile(2, 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiny) != 2 || tiny[1].Sessions != 2 {
		t.Fatalf("tiny ramp = %+v", tiny)
	}

	soak, err := SoakProfile(50, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(soak) != 1 || soak[0].Sessions != 50 || soak[0].Duration != 10*time.Second {
		t.Fatalf("soak = %+v", soak)
	}

	spike, err := SpikeProfile(10, 100, 9*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(spike) != 3 {
		t.Fatalf("spike steps = %d, want 3", len(spike))
	}
	if spike[0].Sessions != 10 || spike[1].Sessions != 100 || spike[2].Sessions != 10 {
		t.Fatalf("spike shape = %+v", spike)
	}
	if spike[1].Name != "spike" || spike[2].Name != "recover" {
		t.Fatalf("spike names = %q %q", spike[1].Name, spike[2].Name)
	}

	bad := []func() ([]Step, error){
		func() ([]Step, error) { return RampProfile(0, 3, time.Second) },
		func() ([]Step, error) { return RampProfile(10, 0, time.Second) },
		func() ([]Step, error) { return RampProfile(10, 3, 0) },
		func() ([]Step, error) { return SoakProfile(0, time.Second) },
		func() ([]Step, error) { return SpikeProfile(10, 10, time.Second) },
		func() ([]Step, error) { return SpikeProfile(0, 10, time.Second) },
	}
	for i, f := range bad {
		if _, err := f(); err == nil {
			t.Fatalf("bad profile %d accepted", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	ok := Config{
		Addr:    "127.0.0.1:1",
		Videos:  []uint32{1},
		Profile: []Step{{Name: "s", Sessions: 1, Duration: time.Second}},
	}
	if _, err := New(ok); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no addr", func(c *Config) { c.Addr = "" }},
		{"no videos", func(c *Config) { c.Videos = nil }},
		{"no profile", func(c *Config) { c.Profile = nil }},
		{"zero-session step", func(c *Config) { c.Profile = []Step{{Sessions: 0, Duration: time.Second}} }},
		{"zero-duration step", func(c *Config) { c.Profile = []Step{{Sessions: 1}} }},
		{"bad skew", func(c *Config) { c.ZipfSkew = -1 }},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// testHarness returns a harness with an injected learned schedule, never
// dialed.
func testHarness(t *testing.T, g Gate) *Harness {
	t.Helper()
	h, err := New(Config{
		Addr:    "127.0.0.1:1",
		Videos:  []uint32{1},
		Profile: []Step{{Name: "s", Sessions: 1, Duration: time.Second}},
		Gate:    g,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.periods[1] = []int{0, 1, 2, 4} // T[1..3]; saturated = 1.75
	h.slotMillis = 10
	return h
}

func healthyStep() StepResult {
	return StepResult{
		Name:     "s",
		Sessions: 100,
		Startup:  obs.WindowSnapshot{Count: 100, P99: 1},
		Server: &ServerDelta{
			Requests: 100, Instances: 100, Slots: 200,
			PerVideo: []VideoDelta{{
				Video: 1, Requests: 100, Instances: 150, Slots: 200,
				Load: 0.75, RatePerHour: 3_600_000,
			}},
		},
	}
}

func TestGateHealthyStepPasses(t *testing.T) {
	h := testHarness(t, Gate{})
	res := healthyStep()
	h.gateStep(&res)
	if !res.Gated {
		t.Fatal("step not gated")
	}
	if !res.Pass {
		t.Fatalf("healthy step failed: %+v", res.Checks)
	}
	names := map[string]bool{}
	for _, c := range res.Checks {
		names[c.Name] = c.Pass
	}
	for _, want := range []string{"error_rate", "miss_rate", "startup_p99_slots",
		"bandwidth_saturated_video_1", "bandwidth_mean_video_1"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("check %q missing from %v", want, names)
		}
	}
	// The gate recorded the envelopes it compared against.
	v := res.Server.PerVideo[0]
	if math.Abs(v.Saturated-1.75) > 1e-12 {
		t.Fatalf("saturated = %v, want 1.75", v.Saturated)
	}
	// At mu = 10 arrivals/slot the renewal wait vanishes and the mean
	// envelope approaches saturation.
	mean, err := analysis.DHBMean([]int{0, 1, 2, 4}, 3_600_000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.MeanEnvelope-mean) > 1e-12 {
		t.Fatalf("mean envelope = %v, want %v", v.MeanEnvelope, mean)
	}
	// Every check keeps its documented limit: the budgets, T[1] plus one
	// slot of startup slack, 15% over saturation, and the renewal mean
	// padded by 50% plus half a stream.
	limits := map[string]float64{
		"error_rate":                  0.01,
		"miss_rate":                   0.01,
		"startup_p99_slots":           1 + 1,
		"bandwidth_saturated_video_1": 1.75 * 1.15,
		"bandwidth_mean_video_1":      mean*1.5 + 0.5,
	}
	for _, c := range res.Checks {
		want, ok := limits[c.Name]
		if !ok {
			t.Fatalf("unexpected check %q", c.Name)
		}
		if math.Abs(c.Limit-want) > 1e-12 {
			t.Fatalf("%s limit = %v, want %v", c.Name, c.Limit, want)
		}
	}
}

func TestGateFailsOverBandwidth(t *testing.T) {
	h := testHarness(t, Gate{})
	res := healthyStep()
	// 2.5 streams against a 1.75 ceiling: past saturation plus tolerance.
	res.Server.PerVideo[0].Load = 2.5
	h.gateStep(&res)
	if res.Pass {
		t.Fatal("over-saturated step passed")
	}
	for _, c := range res.Checks {
		if c.Name == "bandwidth_saturated_video_1" && c.Pass {
			t.Fatalf("saturated check passed at load 2.5: %+v", c)
		}
	}
}

func TestGateFailsOnMissesAndStartup(t *testing.T) {
	h := testHarness(t, Gate{})
	res := healthyStep()
	res.Misses = 50
	res.MissesPerSession = 0.5
	res.Startup.P99 = 9 // limit is T[1] + 1 = 2
	h.gateStep(&res)
	if res.Pass {
		t.Fatal("missing-deadline step passed")
	}
	failed := map[string]bool{}
	for _, c := range res.Checks {
		if !c.Pass {
			failed[c.Name] = true
		}
	}
	if !failed["miss_rate"] || !failed["startup_p99_slots"] {
		t.Fatalf("wrong checks failed: %v", failed)
	}
}

func TestGateSkipsSmallSamples(t *testing.T) {
	h := testHarness(t, Gate{})
	res := healthyStep()
	res.Sessions = 5 // below minSessions
	res.MissesPerSession = 10
	h.gateStep(&res)
	if res.Gated || !res.Pass || len(res.Checks) != 0 {
		t.Fatalf("small step gated: %+v", res)
	}

	// Disabled gate never evaluates.
	h2 := testHarness(t, Gate{Disabled: true})
	res2 := healthyStep()
	res2.Server.PerVideo[0].Load = 99
	h2.gateStep(&res2)
	if res2.Gated || !res2.Pass {
		t.Fatalf("disabled gate evaluated: %+v", res2)
	}
}

func TestReportFinalize(t *testing.T) {
	r := &Report{Steps: []StepResult{
		{Name: "a", Pass: true},
		{Name: "b", Pass: false, Checks: []Check{
			{Name: "miss_rate", Measured: 0.5, Limit: 0.01, Pass: false, Detail: "50 misses"},
			{Name: "error_rate", Measured: 0, Limit: 0.01, Pass: true},
		}},
	}}
	r.finalize(false)
	if r.Pass {
		t.Fatal("report with a failed step passed")
	}
	if len(r.Failures) != 1 || !strings.Contains(r.Failures[0], "step b: miss_rate") {
		t.Fatalf("failures = %v", r.Failures)
	}

	ok := &Report{Steps: []StepResult{{Name: "a", Pass: true}}}
	ok.finalize(false)
	if !ok.Pass || len(ok.Failures) != 0 {
		t.Fatalf("clean report failed: %+v", ok)
	}

	interrupted := &Report{Steps: []StepResult{{Name: "a", Pass: true}}}
	interrupted.finalize(true)
	if interrupted.Pass || len(interrupted.Failures) != 1 {
		t.Fatalf("interrupted report passed: %+v", interrupted)
	}
}

// TestStatusPollerDelta: the poller turns two /statusz snapshots into
// per-video load and arrival-rate deltas.
func TestStatusPollerDelta(t *testing.T) {
	// The station row's video field is a 0-based index; the name carries the
	// wire ID the harness learned schedules under. A non-numeric name (a
	// foreign station layout) is skipped, not misattributed.
	snaps := []string{
		`{"stats":{"Requests":10,"Instances":20},
		  "station":{"per_video":[{"video":0,"name":"7","slot":100,"requests":10,"instances":20},
		                          {"video":1,"name":"trailer","slot":100,"requests":1,"instances":1}],
		             "clock":{"ticks":100}}}`,
		`{"stats":{"Requests":110,"Instances":220},
		  "station":{"per_video":[{"video":0,"name":"7","slot":300,"requests":110,"instances":220},
		                          {"video":1,"name":"trailer","slot":300,"requests":2,"instances":2}],
		             "clock":{"ticks":300}}}`,
	}
	i := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/statusz" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(snaps[i]))
		if i < len(snaps)-1 {
			i++
		}
	}))
	defer srv.Close()

	p := newStatusPoller(strings.TrimPrefix(srv.URL, "http://"))
	before := p.sample()
	if before == nil {
		t.Fatal("first sample failed")
	}
	d := p.delta(before, 2.0)
	if d == nil {
		t.Fatal("delta failed")
	}
	if d.Requests != 100 || d.Instances != 200 || d.Slots != 200 {
		t.Fatalf("delta = %+v", d)
	}
	if len(d.PerVideo) != 1 {
		t.Fatalf("per-video = %+v (non-numeric names must be skipped)", d.PerVideo)
	}
	v := d.PerVideo[0]
	if v.Video != 7 {
		t.Fatalf("video = %d, want wire id 7 from the row name", v.Video)
	}
	if v.Load != 1.0 {
		t.Fatalf("load = %v, want 1.0 (200 instances / 200 slots)", v.Load)
	}
	if math.Abs(v.RatePerHour-180000) > 1e-9 {
		t.Fatalf("rate = %v, want 180000/h (100 requests / 2s)", v.RatePerHour)
	}

	// A nil poller (no stats address) degrades to nil samples and deltas.
	var none *statusPoller
	if none.sample() != nil || none.delta(before, 1) != nil {
		t.Fatal("nil poller returned data")
	}
	if newStatusPoller("") != nil {
		t.Fatal("empty address built a poller")
	}
}

// TestGateHistoryCrossCheck: the history cross-check compares the /queryz
// counter movement against the /statusz delta — agreement passes, a scrape
// pipeline reporting a different world fails, and sparse ranges are
// skipped rather than gated on noise.
func TestGateHistoryCrossCheck(t *testing.T) {
	findCheck := func(res StepResult) (Check, bool) {
		for _, c := range res.Checks {
			if c.Name == "history_requests_delta" {
				return c, true
			}
		}
		return Check{}, false
	}

	h := testHarness(t, Gate{})
	res := healthyStep()
	res.History = &HistoryDelta{Series: historySeries, Points: 8, Delta: 95}
	h.gateStep(&res)
	c, ok := findCheck(res)
	if !ok {
		t.Fatalf("cross-check missing: %+v", res.Checks)
	}
	// |95 - 100| = 5 against limit 0.3*100 + 10 = 40.
	if !c.Pass || c.Measured != 5 || c.Limit != 40 {
		t.Fatalf("agreeing history failed: %+v", c)
	}
	if res.History.StatuszDelta != 100 {
		t.Fatalf("statusz delta not recorded: %+v", res.History)
	}

	// History that disagrees beyond the tolerance trips the step.
	res = healthyStep()
	res.History = &HistoryDelta{Series: historySeries, Points: 8, Delta: 400}
	h.gateStep(&res)
	if c, ok := findCheck(res); !ok || c.Pass || res.Pass {
		t.Fatalf("disagreeing history passed: %+v", res.Checks)
	}

	// Too few points (a short CI smoke): skipped, not failed.
	res = healthyStep()
	res.History = &HistoryDelta{Series: historySeries, Points: 3, Delta: 0}
	h.gateStep(&res)
	if _, ok := findCheck(res); ok || !res.Pass {
		t.Fatalf("sparse history gated: %+v", res.Checks)
	}

	// No history at all (disabled server): the step gates on /statusz only.
	res = healthyStep()
	h.gateStep(&res)
	if _, ok := findCheck(res); ok || !res.Pass {
		t.Fatalf("absent history gated: %+v", res.Checks)
	}
}

// TestStatusPollerHistory: the poller turns one /queryz range into a
// HistoryDelta, and any failure — disabled history, an old server —
// degrades to nil.
func TestStatusPollerHistory(t *testing.T) {
	var gotSeries, gotFrom, gotTo string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/queryz" {
			http.NotFound(w, r)
			return
		}
		q := r.URL.Query()
		gotSeries, gotFrom, gotTo = q.Get("series"), q.Get("from"), q.Get("to")
		w.Write([]byte(`{"series":"vod_requests_total","points":[
			{"unix":10,"value":100},{"unix":11,"value":130},{"unix":12,"value":160}]}`))
	}))
	defer srv.Close()

	p := newStatusPoller(strings.TrimPrefix(srv.URL, "http://"))
	from := time.Unix(10, 0)
	to := time.Unix(12, 500_000_000)
	hd := p.history(from, to)
	if hd == nil {
		t.Fatal("history query failed")
	}
	if hd.Series != historySeries || hd.Points != 3 || hd.Delta != 60 {
		t.Fatalf("history delta = %+v", hd)
	}
	if gotSeries != historySeries || gotFrom != "10.000" || gotTo != "12.500" {
		t.Fatalf("query params = series %q from %q to %q", gotSeries, gotFrom, gotTo)
	}

	// A single point carries no delta but still reports its count.
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"points":[{"unix":10,"value":100}]}`))
	}))
	defer srv2.Close()
	hd = newStatusPoller(strings.TrimPrefix(srv2.URL, "http://")).history(from, to)
	if hd == nil || hd.Points != 1 || hd.Delta != 0 {
		t.Fatalf("single-point history = %+v", hd)
	}

	// History disabled answers 503 → nil, like a server without /queryz.
	srv503 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "history disabled", http.StatusServiceUnavailable)
	}))
	defer srv503.Close()
	if hd := newStatusPoller(strings.TrimPrefix(srv503.URL, "http://")).history(from, to); hd != nil {
		t.Fatalf("503 produced history %+v", hd)
	}

	var none *statusPoller
	if none.history(from, to) != nil {
		t.Fatal("nil poller returned history")
	}
}

// TestGateConnBudgets: the transport checks budget the /connz histogram —
// present on a tracked sample, failing over either budget, skipped when the
// sample is missing or empty.
func TestGateConnBudgets(t *testing.T) {
	h := testHarness(t, Gate{})
	res := healthyStep()
	res.Conn = &ConnDelta{
		Tracked:      10,
		States:       map[string]int{"healthy": 10},
		StalledRatio: 0,
	}
	h.gateStep(&res)
	if !res.Pass {
		t.Fatalf("healthy transport failed: %+v", res.Checks)
	}
	names := map[string]bool{}
	for _, c := range res.Checks {
		names[c.Name] = true
	}
	if !names["conn_stalled_ratio"] || !names["conn_retrans_per_conn"] {
		t.Fatalf("conn checks missing: %v", names)
	}

	// A stall past the budget fails the step even when everything else is
	// green.
	res = healthyStep()
	res.Conn = &ConnDelta{
		Tracked:      10,
		States:       map[string]int{"healthy": 8, "stalled": 2},
		StalledRatio: 0.2,
	}
	h.gateStep(&res)
	if res.Pass {
		t.Fatal("stalled fleet passed the gate")
	}
	for _, c := range res.Checks {
		if c.Name == "conn_stalled_ratio" && c.Pass {
			t.Fatalf("stalled check passed at ratio 0.2: %+v", c)
		}
	}

	// Retransmit storms budget the same way.
	res = healthyStep()
	res.Conn = &ConnDelta{Tracked: 4, States: map[string]int{"path_limited": 4}, Retrans: 400, RetransPerConn: 100}
	h.gateStep(&res)
	if res.Pass {
		t.Fatal("retransmit storm passed the gate")
	}

	// Missing or empty samples skip the checks, not fail them.
	for _, cd := range []*ConnDelta{nil, {Tracked: 0}} {
		res = healthyStep()
		res.Conn = cd
		h.gateStep(&res)
		if !res.Pass {
			t.Fatalf("conn sample %+v failed the step", cd)
		}
		for _, c := range res.Checks {
			if strings.HasPrefix(c.Name, "conn_") {
				t.Fatalf("conn check emitted without a tracked sample: %+v", c)
			}
		}
	}
}

// TestGateFailsWithoutServerDelta pins the verdict path when /statusz was
// never polled: client-side failures must still fail the step.
func TestGateFailsWithoutServerDelta(t *testing.T) {
	h := testHarness(t, Gate{})
	res := healthyStep()
	res.Server = nil
	res.Misses = 50
	res.MissesPerSession = 0.5
	h.gateStep(&res)
	if res.Pass {
		t.Fatal("missing-deadline step passed without a server delta")
	}
}

// TestStatusPollerConns: the poller turns one /connz document into a
// ConnDelta, and any failure — conntrack disabled, an old server — degrades
// to nil.
func TestStatusPollerConns(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/connz" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"tracked":3,
			"states":{"healthy":2,"stalled":1},
			"stalled_ratio":0.3333,
			"conns":[{"id":1,"retrans_total":2},{"id":2,"retrans_total":0},{"id":3,"retrans_total":4}]}`))
	}))
	defer srv.Close()

	cd := newStatusPoller(strings.TrimPrefix(srv.URL, "http://")).conns()
	if cd == nil {
		t.Fatal("connz sample failed")
	}
	if cd.Tracked != 3 || cd.States["stalled"] != 1 || cd.StalledRatio != 0.3333 {
		t.Fatalf("conn delta = %+v", cd)
	}
	if cd.Retrans != 6 || cd.RetransPerConn != 2 {
		t.Fatalf("retrans aggregate = %+v", cd)
	}

	// Conntrack disabled answers 503 → nil, like a server without /connz.
	srv503 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "conntrack disabled", http.StatusServiceUnavailable)
	}))
	defer srv503.Close()
	if cd := newStatusPoller(strings.TrimPrefix(srv503.URL, "http://")).conns(); cd != nil {
		t.Fatalf("503 produced conn delta %+v", cd)
	}

	var none *statusPoller
	if none.conns() != nil {
		t.Fatal("nil poller returned a conn delta")
	}
}

// TestStepResultJSON: the JSONL record round-trips with stable field names
// — the contract vodtop and BENCH_load.json consumers parse.
func TestStepResultJSON(t *testing.T) {
	res := healthyStep()
	res.Checks = []Check{{Name: "error_rate", Pass: true}}
	res.Gated, res.Pass = true, true
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"name"`, `"sessions_per_core"`, `"admits_per_sec"`,
		`"startup_slots"`, `"pool_wait_seconds"`, `"server"`, `"checks"`, `"pass"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("step JSON missing %s: %s", key, b)
		}
	}
	var back StepResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Sessions != res.Sessions || back.Server.PerVideo[0].Load != 0.75 {
		t.Fatalf("round trip changed the record: %+v", back)
	}
}
