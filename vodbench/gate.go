package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"vodcast/internal/analysis"
	"vodcast/internal/core"
	"vodcast/internal/fanout"
	"vodcast/internal/obs"
	"vodcast/internal/station"
	"vodcast/internal/wire"
)

// checkSchedule holds a zap's ScheduleInfo to the catalogue the server was
// started with: the video asked for, v2, the shape's sizes and slot, and
// the period vector core assigns the same video config.
func (b *bench) checkSchedule(info wire.ScheduleInfo, video uint32) error {
	sh := b.shape
	switch {
	case info.VideoID != video:
		return fmt.Errorf("schedule for video %d, requested %d", info.VideoID, video)
	case info.Version != wire.ProtoV2:
		return fmt.Errorf("video %d: schedule version %d, want %d", video, info.Version, wire.ProtoV2)
	case int(info.Segments) != sh.segments || int(info.SegmentBytes) != sh.segBytes:
		return fmt.Errorf("video %d: schedule for %d × %d B, want %d × %d B",
			video, info.Segments, info.SegmentBytes, sh.segments, sh.segBytes)
	case time.Duration(info.SlotMillis)*time.Millisecond != sh.slot:
		return fmt.Errorf("video %d: %d ms slots, want %v", video, info.SlotMillis, sh.slot)
	}
	if len(info.Periods) != len(b.periods) {
		return fmt.Errorf("video %d: %d periods, want %d", video, len(info.Periods), len(b.periods))
	}
	for j, p := range info.Periods {
		if p != b.periods[j] {
			return fmt.Errorf("video %d: period T[%d] = %d, core says %d", video, j+1, p, b.periods[j])
		}
	}
	return nil
}

// checkPeriods holds a watch session's granted 1-based period vector to
// core's.
func (b *bench) checkPeriods(periods []int) error {
	if len(periods) != len(b.periods)+1 {
		return fmt.Errorf("%d periods, want %d", len(periods)-1, len(b.periods))
	}
	for j, p := range b.periods {
		if periods[j+1] != int(p) {
			return fmt.Errorf("period T[%d] = %d, core says %d", j+1, periods[j+1], p)
		}
	}
	return nil
}

// errInstanceMismatch marks a replay that does not reproduce the server's
// transmitted instance count.
var errInstanceMismatch = errors.New("replay does not reproduce the server's vod_instances_total")

// replayStats is what re-running every confirmed admission through a fresh
// station and encoder measured.
type replayStats struct {
	slots      int
	admissions int
	instances  int64
	perVideo   []int64
	admitsPer  []int64
	// saturated is DHBSaturated for the shape's periods and peakMean the
	// largest per-video mean load over the replayed slots.
	saturated, peakMean float64
	// Time spent in each layer's calls, and the encoded frame bytes (timed
	// replays only).
	admit, advance, encode, decode time.Duration
	frameBytes                     int64
}

// retiredInstances waits until the idle server has transmitted every
// instance it scheduled and returns vod_instances_total. No admission may
// be in flight.
func (b *bench) retiredInstances() (int64, error) {
	deadline := time.Now().Add(sessionTimeout)
	for {
		retired := int64(scrape(b.srv.Registry(), "vod_instances_total")["vod_instances_total"])
		scheduled := b.srv.Stats().Instances
		if retired == scheduled {
			return retired, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("server retired %d of %d scheduled instances", retired, scheduled)
		}
		time.Sleep(b.shape.slot)
	}
}

// replay re-runs the admissions (sorted by slot) slot by slot through a
// fresh station until every scheduled instance has retired. With timed set
// the station is configured as vodserver configures its own (event tracer
// and registry included, so the timings carry what the server pays), each
// retired slot is encoded with fanout.Encoder and the frames are decoded
// with wire.ReadFrame, timing each layer's calls and recording one span per
// slot and layer. Untimed, the station carries no instrumentation, which
// schedules identically (core's differential tests) at a fraction of the
// cost.
func replay(sh shape, adms []admission, timed bool, trace *[]span, epoch time.Time) (replayStats, error) {
	cfg := station.Config{Videos: make([]station.VideoConfig, sh.videos)}
	tracer := obs.NewTracer(nil, 0)
	enc := fanout.NewEncoder()
	sizes := make([]int, sh.segments)
	for j := range sizes {
		sizes[j] = sh.segBytes
	}
	for i := range cfg.Videos {
		id := uint32(i + 1)
		cfg.Videos[i] = station.VideoConfig{Name: fmt.Sprint(id), Segments: sh.segments, TrackSegments: true}
		if timed {
			cfg.Videos[i].Observer = obs.SchedObserver{Video: id, T: tracer}
			if err := enc.AddVideo(id, sizes); err != nil {
				return replayStats{}, err
			}
		}
	}
	if timed {
		cfg.Registry = obs.NewRegistry()
	}
	st, err := station.New(cfg)
	if err != nil {
		return replayStats{}, err
	}
	defer st.Close()
	maxP := 0
	for _, p := range st.Periods(0)[1:] {
		maxP = max(maxP, p)
	}
	horizon := maxP + 1
	if len(adms) > 0 {
		horizon += int(adms[len(adms)-1].slot)
	}
	rs := replayStats{slots: horizon, admissions: len(adms),
		perVideo: make([]int64, sh.videos), admitsPer: make([]int64, sh.videos)}
	rec := func(slot int, name string, t0, t1 time.Time) {
		if trace != nil {
			*trace = append(*trace, span{Session: uint64(slot), Name: name, Parent: "replay",
				StartNS: t0.Sub(epoch).Nanoseconds(), DurNS: t1.Sub(t0).Nanoseconds()})
		}
	}
	var reports []core.SlotReport
	next := 0
	for slot := 0; slot < horizon; slot++ {
		t0 := time.Now()
		for ; next < len(adms) && int(adms[next].slot) == slot; next++ {
			a := adms[next]
			if _, err := st.Admit(int(a.video), core.AdmitOptions{From: 1}); err != nil {
				return rs, fmt.Errorf("replay admit video %d slot %d: %w", a.video+1, slot, err)
			}
			rs.admitsPer[a.video]++
		}
		t1 := time.Now()
		rs.admit += t1.Sub(t0)
		rec(slot, "admit", t0, t1)
		reports = st.AdvanceSlotInto(reports)
		t2 := time.Now()
		rs.advance += t2.Sub(t1)
		rec(slot, "advance_slot", t1, t2)
		for v, r := range reports {
			rs.perVideo[v] += int64(r.Load)
			rs.instances += int64(r.Load)
		}
		if timed {
			if err := rs.encodeDecode(enc, reports, slot, rec); err != nil {
				return rs, err
			}
		}
	}
	rs.saturated, err = analysis.DHBSaturated(st.Periods(0))
	if err != nil {
		return rs, err
	}
	for _, n := range rs.perVideo {
		rs.peakMean = max(rs.peakMean, float64(n)/float64(horizon))
	}
	return rs, nil
}

// encodeDecode encodes every video's retired slot into a broadcast frame
// and decodes it again, as the server's fan-out and the viewers' reads do.
func (rs *replayStats) encodeDecode(enc *fanout.Encoder, reports []core.SlotReport, slot int, rec func(int, string, time.Time, time.Time)) error {
	frames := make([]*fanout.Frame, 0, len(reports))
	t0 := time.Now()
	for v, r := range reports {
		f, err := enc.EncodeSlot(uint32(v+1), r.Slot, r.Segments, nil)
		if err != nil {
			return err
		}
		frames = append(frames, f)
	}
	t1 := time.Now()
	var rd bytes.Reader
	for _, f := range frames {
		rs.frameBytes += int64(len(f.Bytes()))
		rd.Reset(f.Bytes())
		for {
			if _, err := wire.ReadFrame(&rd); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("replay decode slot %d: %w", slot, err)
			}
		}
	}
	t2 := time.Now()
	for _, f := range frames {
		f.Release()
	}
	rs.encode += t1.Sub(t0)
	rs.decode += t2.Sub(t1)
	rec(slot, "encode_slot", t0, t1)
	rec(slot, "read_frame", t1, t2)
	return nil
}
