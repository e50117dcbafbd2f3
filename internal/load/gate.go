package load

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"vodcast/internal/analysis"
	"vodcast/internal/obs"
	"vodcast/internal/vodclient"
)

// Gate selects whether steps are held to the analytic pass/fail envelopes
// below; Disabled skips gating (every step passes and Checks stays empty).
type Gate struct {
	Disabled bool
}

// The gate's envelopes.
const (
	// errorBudget bounds the fraction of sessions that may fail outright
	// (admit rejects, disconnects, timeouts).
	errorBudget = 0.01
	// missBudget bounds deadline misses per completed session — the paper's
	// delivery guarantee says zero, so the budget only absorbs measurement
	// edge effects.
	missBudget = 0.01
	// startupSlackSlots pads the waiting-time envelope: p99 startup delay
	// must not exceed T[1] + startupSlackSlots. DHB promises segment 1
	// within T[1] slots of admission; the slack absorbs the half-open slot
	// the admission itself lands in.
	startupSlackSlots = 1
	// saturatedTolerance pads the hard bandwidth ceiling: each video's
	// measured broadcast load may exceed DHBSaturated by this fraction
	// (absorbing boundary effects of short steps).
	saturatedTolerance = 0.15
	// meanTolerance and meanSlackStreams pad the renewal-model envelope:
	// measured load must stay under DHBMean(measured rate)×(1+meanTolerance)
	// + meanSlackStreams. The relative term absorbs model error, the
	// absolute term short-step variance at low rates.
	meanTolerance    = 0.5
	meanSlackStreams = 0.5
	// minSessions is the smallest completed-session count a step needs
	// before its client-side distributions are gated; minSlots the smallest
	// per-video slot delta before its bandwidth is gated. Too-small samples
	// are skipped, not failed.
	minSessions = 20
	minSlots    = 20
	// connStalledBudget bounds the fraction of tracked connections the
	// server's transport telemetry classifies stalled at the step boundary —
	// a healthy closed-loop fleet keeps reading, so any stall is the
	// server's (or the harness's) fault.
	connStalledBudget = 0.05
	// connRetransBudget bounds mean kernel retransmits per tracked
	// connection over the step: loopback load runs should see essentially
	// none, so the budget mostly exists for shaped-network profiles.
	connRetransBudget = 50
	// historyTolerance and historySlackRequests bound how far the server's
	// retained history may disagree with its live request counter over a
	// step: historyTolerance of the counter delta plus historySlackRequests.
	historyTolerance     = 0.3
	historySlackRequests = 10
)

// Check is one gate verdict: a measured quantity against its analytic
// limit.
type Check struct {
	Name     string  `json:"name"`
	Measured float64 `json:"measured"`
	Limit    float64 `json:"limit"`
	Pass     bool    `json:"pass"`
	Detail   string  `json:"detail,omitempty"`
}

func check(name string, measured, limit float64, detail string) Check {
	return Check{Name: name, Measured: measured, Limit: limit, Pass: measured <= limit, Detail: detail}
}

// StepResult is one finished load step: the merged client-side digests,
// the server-side delta when /statusz was polled, and the gate verdicts.
type StepResult struct {
	Name            string  `json:"name"`
	TargetSessions  int     `json:"target_sessions"`
	DurationSeconds float64 `json:"duration_seconds"`

	Sessions         uint64  `json:"sessions"`
	Errors           uint64  `json:"errors"`
	Misses           uint64  `json:"deadline_misses"`
	SessionsPerSec   float64 `json:"sessions_per_sec"`
	SessionsPerCore  float64 `json:"sessions_per_core"`
	AdmitsPerSec     float64 `json:"admits_per_sec"`
	ErrorRate        float64 `json:"error_rate"`
	MissesPerSession float64 `json:"misses_per_session"`

	Startup   obs.WindowSnapshot `json:"startup_slots"`
	Slack     obs.WindowSnapshot `json:"slack_slots"`
	Dial      obs.WindowSnapshot `json:"dial_seconds"`
	PoolWait  obs.WindowSnapshot `json:"pool_wait_seconds"`
	FirstByte obs.WindowSnapshot `json:"first_byte_seconds"`

	Server  *ServerDelta  `json:"server,omitempty"`
	History *HistoryDelta `json:"history,omitempty"`
	Conn    *ConnDelta    `json:"conn,omitempty"`
	Checks  []Check       `json:"checks,omitempty"`
	// Gated reports whether the gate evaluated this step; Pass is its
	// verdict (true when ungated — an ungated step cannot fail).
	Gated bool `json:"gated"`
	Pass  bool `json:"pass"`
}

// Report is the final machine-readable artifact of a run.
type Report struct {
	Addr       string              `json:"addr"`
	Cores      int                 `json:"cores"`
	Zipf       float64             `json:"zipf_skew"`
	SlotMillis int                 `json:"slot_millis"`
	Steps      []StepResult        `json:"steps"`
	Pool       vodclient.PoolStats `json:"pool"`
	// Pass is the run verdict: every gated step passed and the run was not
	// interrupted. Failures names what went wrong, one line per failed
	// check.
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

func (r *Report) finalize(interrupted bool) {
	r.Pass = true
	if interrupted {
		r.Pass = false
		r.Failures = append(r.Failures, "run interrupted before the profile completed")
	}
	for i := range r.Steps {
		st := &r.Steps[i]
		if st.Pass {
			continue
		}
		r.Pass = false
		for _, c := range st.Checks {
			if !c.Pass {
				r.Failures = append(r.Failures,
					fmt.Sprintf("step %s: %s measured %.4g > limit %.4g (%s)",
						st.Name, c.Name, c.Measured, c.Limit, c.Detail))
			}
		}
	}
}

// gateStep evaluates the envelopes for one finished step in place.
func (h *Harness) gateStep(res *StepResult) {
	res.Pass = true
	if h.cfg.Gate.Disabled {
		return
	}
	total := res.Sessions + res.Errors
	if total < minSessions {
		return
	}
	res.Gated = true

	// Session health: errors and deadline misses against their budgets.
	res.Checks = append(res.Checks,
		check("error_rate", res.ErrorRate, errorBudget,
			fmt.Sprintf("%d of %d sessions failed", res.Errors, total)),
		check("miss_rate", res.MissesPerSession, missBudget,
			fmt.Sprintf("%d deadline misses over %d sessions", res.Misses, res.Sessions)))

	// Waiting time: DHB delivers segment 1 within T[1] slots of admission,
	// so p99 startup delay is gated at max T[1] over the catalogue plus
	// slack. Needs at least one learned schedule.
	periods := h.periodsLearned()
	if maxT1 := maxFirstPeriod(periods); maxT1 > 0 && res.Startup.Count > 0 {
		res.Checks = append(res.Checks,
			check("startup_p99_slots", res.Startup.P99, float64(maxT1)+startupSlackSlots,
				fmt.Sprintf("T[1]=%d over %d videos", maxT1, len(periods))))
	}

	// Transport health: the server's /connz histogram at the step boundary.
	// A closed-loop fleet keeps reading, so stalled classifications and
	// kernel retransmits are budgeted, not expected. Skipped when the sample
	// is missing (conntrack disabled, an older server) or nothing was
	// tracked at the boundary.
	if cd := res.Conn; cd != nil && cd.Tracked > 0 {
		res.Checks = append(res.Checks,
			check("conn_stalled_ratio", cd.StalledRatio, connStalledBudget,
				fmt.Sprintf("%d of %d tracked connections stalled", cd.States["stalled"], cd.Tracked)),
			check("conn_retrans_per_conn", cd.RetransPerConn, connRetransBudget,
				fmt.Sprintf("%d kernel retransmits over %d connections", cd.Retrans, cd.Tracked)))
	}

	// Bandwidth: each video's measured broadcast load (instances per slot,
	// from the server-side delta) against the saturation ceiling and the
	// renewal-model mean at the measured arrival rate. Both server-side
	// sections are skipped — not failed — when /statusz was never polled;
	// the client-side checks above still decide the verdict below.
	if res.Server != nil {
		// Cross-check: the server's retained history must agree with its
		// live counters over the step. The tolerance absorbs scrape-boundary
		// effects (requests landing before the first in-window sample);
		// sparse ranges — short CI smokes, slow scrape intervals — are
		// skipped, not failed.
		if hd := res.History; hd != nil && hd.Points >= 5 && res.Server.Requests > 0 {
			hd.StatuszDelta = res.Server.Requests
			diff := math.Abs(hd.Delta - float64(res.Server.Requests))
			limit := historyTolerance*float64(res.Server.Requests) + historySlackRequests
			res.Checks = append(res.Checks,
				check("history_requests_delta", diff, limit,
					fmt.Sprintf("history %s moved %.0f over %d points, statusz moved %d",
						hd.Series, hd.Delta, hd.Points, res.Server.Requests)))
		}
		slotSec := float64(h.slotMillisLearned()) / 1000
		for i := range res.Server.PerVideo {
			v := &res.Server.PerVideo[i]
			p, ok := periods[v.Video]
			if !ok || v.Slots < minSlots || slotSec <= 0 {
				continue
			}
			sat, err := analysis.DHBSaturated(p)
			if err != nil {
				continue
			}
			v.Saturated = sat
			res.Checks = append(res.Checks,
				check(fmt.Sprintf("bandwidth_saturated_video_%d", v.Video), v.Load, sat*(1+saturatedTolerance),
					fmt.Sprintf("measured %.3f streams over %d slots, H ceiling %.3f", v.Load, v.Slots, sat)))
			if v.RatePerHour > 0 {
				mean, err := analysis.DHBMean(p, v.RatePerHour, slotSec)
				if err == nil {
					v.MeanEnvelope = mean
					res.Checks = append(res.Checks,
						check(fmt.Sprintf("bandwidth_mean_video_%d", v.Video), v.Load, mean*(1+meanTolerance)+meanSlackStreams,
							fmt.Sprintf("renewal model %.3f streams at %.0f req/h", mean, v.RatePerHour)))
				}
			}
		}
	}
	for _, c := range res.Checks {
		if !c.Pass {
			res.Pass = false
		}
	}
}

func maxFirstPeriod(periods map[uint32][]int) int {
	max := 0
	for _, p := range periods {
		if len(p) > 1 && p[1] > max {
			max = p[1]
		}
	}
	return max
}

// ServerDelta is the server's own accounting over one step, from /statusz
// samples at the step boundaries.
type ServerDelta struct {
	Requests  int64        `json:"requests"`
	Instances int64        `json:"instances"`
	Slots     int          `json:"slots"`
	PerVideo  []VideoDelta `json:"per_video,omitempty"`
}

// VideoDelta is one video's step delta plus the analytic envelopes the
// gate compared it against.
type VideoDelta struct {
	Video     uint32 `json:"video"`
	Requests  int64  `json:"requests"`
	Instances int64  `json:"instances"`
	Slots     int    `json:"slots"`
	// Load is the measured broadcast bandwidth, instances per slot (streams
	// in consumption-rate units); RatePerHour the measured arrival rate.
	Load        float64 `json:"load"`
	RatePerHour float64 `json:"rate_per_hour"`
	// MeanEnvelope and Saturated are the analytic references, filled by the
	// gate when it evaluated this video.
	MeanEnvelope float64 `json:"mean_envelope,omitempty"`
	Saturated    float64 `json:"saturated,omitempty"`
}

// serverSample is the slice of the /statusz document the gate consumes —
// decoded structurally so the harness does not import the server.
type serverSample struct {
	Stats struct {
		Requests  int64 `json:"Requests"`
		Instances int64 `json:"Instances"`
	} `json:"stats"`
	Station struct {
		PerVideo []struct {
			// Video is the station's 0-based catalogue index; Name carries
			// the wire-level video ID the schedules are granted under.
			Video     int    `json:"video"`
			Name      string `json:"name"`
			Slot      int    `json:"slot"`
			Requests  int64  `json:"requests"`
			Instances int64  `json:"instances"`
		} `json:"per_video"`
		Clock struct {
			Ticks uint64 `json:"ticks"`
		} `json:"clock"`
	} `json:"station"`
}

// wireID recovers the wire-level video ID from a station per-video row:
// vodserver names each station video after its wire ID. Rows with
// non-numeric names (foreign station layouts) report ok=false and are
// skipped rather than misattributed.
func wireID(name string) (uint32, bool) {
	id, err := strconv.ParseUint(name, 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(id), true
}

// HistoryDelta cross-checks the server's retained metric history against
// its live counters: the vod_requests_total range the server's own /queryz
// endpoint served for the step window, and the /statusz counter delta the
// gate compared it with. A scrape pipeline that lags, drops samples or
// retains the wrong series shows up here as a delta mismatch.
type HistoryDelta struct {
	Series string `json:"series"`
	// Points is the number of retained samples inside the step window;
	// Delta the counter movement they record (last minus first).
	Points int     `json:"points"`
	Delta  float64 `json:"delta"`
	// StatuszDelta is the /statusz requests delta over the same step,
	// filled by the gate when it evaluated the cross-check.
	StatuszDelta int64 `json:"statusz_delta,omitempty"`
}

// historySeries is the series the cross-check ranges over — the request
// counter, because every admitted session moves it and both sides of the
// comparison observe the same server.
const historySeries = "vod_requests_total"

// ConnDelta is the transport-telemetry sample taken at the step boundary:
// the /connz state histogram plus the aggregate evidence the gate budgets.
// Unlike the counter deltas it is a point-in-time sample — connections
// churn too fast across a step for per-connection subtraction to mean
// anything.
type ConnDelta struct {
	Tracked      int            `json:"tracked"`
	States       map[string]int `json:"states,omitempty"`
	StalledRatio float64        `json:"stalled_ratio"`
	// Retrans sums the kernel retransmit counters across the tracked set;
	// RetransPerConn is the mean the gate compares against its budget.
	Retrans        uint64  `json:"retrans_total"`
	RetransPerConn float64 `json:"retrans_per_conn"`
}

type statusPoller struct {
	url      string
	queryURL string
	connzURL string
	client   *http.Client
}

// newStatusPoller returns a poller for the server's stats address, or nil
// when addr is empty (server-side gating disabled).
func newStatusPoller(addr string) *statusPoller {
	if addr == "" {
		return nil
	}
	return &statusPoller{
		url:      "http://" + addr + "/statusz",
		queryURL: "http://" + addr + "/queryz",
		connzURL: "http://" + addr + "/connz",
		client:   &http.Client{Timeout: 5 * time.Second},
	}
}

// conns samples /connz at a step boundary; nil on any failure — conntrack
// disabled (503), an older server without the endpoint (404) — which skips
// the transport checks for the step.
func (p *statusPoller) conns() *ConnDelta {
	if p == nil {
		return nil
	}
	resp, err := p.client.Get(p.connzURL)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var body struct {
		Tracked      int            `json:"tracked"`
		States       map[string]int `json:"states"`
		StalledRatio float64        `json:"stalled_ratio"`
		Conns        []struct {
			Retrans uint32 `json:"retrans_total"`
		} `json:"conns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	cd := &ConnDelta{Tracked: body.Tracked, States: body.States, StalledRatio: body.StalledRatio}
	for _, c := range body.Conns {
		cd.Retrans += uint64(c.Retrans)
	}
	if body.Tracked > 0 {
		cd.RetransPerConn = float64(cd.Retrans) / float64(body.Tracked)
	}
	return cd
}

// history runs one /queryz range query over the step window; nil on any
// failure — history disabled (503), an older server without the endpoint —
// which downgrades the step to the /statusz-only checks.
func (p *statusPoller) history(from, to time.Time) *HistoryDelta {
	if p == nil {
		return nil
	}
	q := url.Values{}
	q.Set("series", historySeries)
	q.Set("from", fmt.Sprintf("%.3f", float64(from.UnixNano())/1e9))
	q.Set("to", fmt.Sprintf("%.3f", float64(to.UnixNano())/1e9))
	resp, err := p.client.Get(p.queryURL + "?" + q.Encode())
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var body struct {
		Points []struct {
			Unix  float64 `json:"unix"`
			Value float64 `json:"value"`
		} `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	h := &HistoryDelta{Series: historySeries, Points: len(body.Points)}
	if n := len(body.Points); n > 1 {
		h.Delta = body.Points[n-1].Value - body.Points[0].Value
	}
	return h
}

// sample fetches one /statusz snapshot; nil on any failure (a missing
// sample downgrades the step to client-side gating only).
func (p *statusPoller) sample() *serverSample {
	if p == nil {
		return nil
	}
	resp, err := p.client.Get(p.url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var s serverSample
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil
	}
	return &s
}

// delta samples again and subtracts before, converting per-video counter
// deltas into measured load and arrival rate over the step.
func (p *statusPoller) delta(before *serverSample, stepSeconds float64) *ServerDelta {
	if p == nil || before == nil {
		return nil
	}
	after := p.sample()
	if after == nil {
		return nil
	}
	d := &ServerDelta{
		Requests:  after.Stats.Requests - before.Stats.Requests,
		Instances: after.Stats.Instances - before.Stats.Instances,
		Slots:     int(after.Station.Clock.Ticks - before.Station.Clock.Ticks),
	}
	prev := make(map[uint32]struct {
		slot      int
		requests  int64
		instances int64
	}, len(before.Station.PerVideo))
	for _, v := range before.Station.PerVideo {
		id, ok := wireID(v.Name)
		if !ok {
			continue
		}
		prev[id] = struct {
			slot      int
			requests  int64
			instances int64
		}{v.Slot, v.Requests, v.Instances}
	}
	for _, v := range after.Station.PerVideo {
		id, ok := wireID(v.Name)
		if !ok {
			continue
		}
		b, ok := prev[id]
		if !ok {
			continue
		}
		vd := VideoDelta{
			Video:     id,
			Requests:  v.Requests - b.requests,
			Instances: v.Instances - b.instances,
			Slots:     v.Slot - b.slot,
		}
		if vd.Slots > 0 {
			vd.Load = float64(vd.Instances) / float64(vd.Slots)
		}
		if stepSeconds > 0 {
			vd.RatePerHour = float64(vd.Requests) / stepSeconds * 3600
		}
		d.PerVideo = append(d.PerVideo, vd)
	}
	return d
}
