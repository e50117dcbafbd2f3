// Package vodclient is the set-top-box side of the networked DHB system: it
// requests a video from a vodserver, receives the broadcast segment frames,
// verifies every payload byte, feeds every slot to the STB oracle of
// internal/client, and reports what the oracle measured — locally through
// the returned Result, and back to the server as a wire.ClientReport so
// operators see the customer's side of the delivery contract.
package vodclient

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"vodcast/internal/client"
	"vodcast/internal/wire"
)

// Result describes one completed fetch.
type Result struct {
	// VideoID and Segments echo the schedule the server granted.
	VideoID  uint32
	Segments int
	// AdmitSlot is the slot the request was admitted in.
	AdmitSlot uint64
	// PayloadBytes counts verified video bytes received.
	PayloadBytes int64
	// SharedFrames counts segment frames that arrived for segments the
	// client already held (broadcast transmissions scheduled for other
	// overlapping customers).
	SharedFrames int
	// MaxBuffered is the peak number of segments held before consumption.
	MaxBuffered int
	// Elapsed is the wall-clock duration of the session.
	Elapsed time.Duration
	// FirstByte is the wall-clock delay from sending the request to the
	// first broadcast payload byte, the client-side view of the server's
	// vod_admit_first_byte_seconds histogram.
	FirstByte time.Duration

	// QoE telemetry, measured in slots against the paper's delivery bound
	// (segment j due by AdmitSlot + Periods[j-from+1]).

	// StartupSlots is the delay from admission to the first needed segment.
	StartupSlots int
	// DeadlineMisses counts segments that were not delivered by their
	// deadline; Rebuffers counts the distinct playback stalls they caused
	// (consecutive miss slots merge into one stall). Both are always zero
	// under StrictDeadlines, which fails the fetch on the first miss.
	DeadlineMisses int
	Rebuffers      int
	// MissingSegments counts needed segments that never arrived at all.
	MissingSegments int
	// MinSlackSlots and MeanSlackSlots summarize slack-to-deadline over the
	// segments that did arrive: how close delivery ran to the bound.
	MinSlackSlots  int
	MeanSlackSlots float64
	// SessionSlots is the broadcast-slot length of the session.
	SessionSlots int
	// TraceID is the server's trace identifier for this session, zero when
	// the session was not sampled (or tracing was declined). The matching
	// spans are visible in the server's /spanz.
	TraceID uint64

	// Dial is the TCP connection establishment latency; PoolWait is the time
	// the session queued for a connection slot before dialing (always zero
	// outside a Pool). Load harnesses fold both into their step digests.
	Dial     time.Duration
	PoolWait time.Duration

	// Periods is the 1-based DHB period vector the server granted (index 0
	// unused) and SlotMillis its slot duration — the schedule parameters an
	// analytic capacity model needs to gate measured results against
	// internal/analysis envelopes.
	Periods    []int
	SlotMillis int
}

// FetchOptions parameterizes a fetch. The zero value of every field is the
// production default: fetch from the beginning, tolerate deadline misses
// (recording them as QoE telemetry), join the server's trace when offered,
// and send a ClientReport at session end.
type FetchOptions struct {
	// VideoID selects the catalogue entry.
	VideoID uint32
	// From resumes playback at this segment (0 and 1 both mean the
	// beginning).
	From uint32
	// Timeout bounds the whole session, dial included. Required.
	Timeout time.Duration
	// NoTrace declines trace propagation: the server will not hand this
	// session trace identifiers and synthesizes no client spans.
	NoTrace bool
	// NoReport opts out of the end-of-session ClientReport.
	NoReport bool
	// StrictDeadlines makes the STB oracle's first missed deadline fail
	// the fetch instead of being recorded as QoE telemetry.
	StrictDeadlines bool
}

// FetchWith runs one session against the server at addr as configured by
// opts: it joins the server's admit trace and summarizes playback QoE into
// a ClientReport, unless opts declines either.
func FetchWith(addr string, opts FetchOptions) (Result, error) {
	if opts.From == 0 {
		opts.From = 1
	}
	return fetch(addr, opts)
}

// checkOptions validates the fields every session entry point shares.
func checkOptions(opts FetchOptions) error {
	if opts.Timeout <= 0 {
		return fmt.Errorf("vodclient: timeout %v must be positive", opts.Timeout)
	}
	if opts.From < 1 {
		return fmt.Errorf("vodclient: resume segment %d must be at least 1", opts.From)
	}
	return nil
}

// fetch dials its own connection and runs one session over it.
func fetch(addr string, opts FetchOptions) (Result, error) {
	if err := checkOptions(opts); err != nil {
		return Result{}, err
	}
	start := time.Now()
	conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
	if err != nil {
		return Result{}, fmt.Errorf("vodclient: dial: %w", err)
	}
	return runSession(conn, start, time.Since(start), opts)
}

// runSession speaks one session over an established connection; it owns the
// connection and closes it on return. start anchors the session timeout and
// the first-byte clock (set it before dialing so both cover the dial), dial
// is the recorded connection establishment latency.
func runSession(conn net.Conn, start time.Time, dial time.Duration, opts FetchOptions) (Result, error) {
	defer conn.Close()
	if err := conn.SetDeadline(start.Add(opts.Timeout)); err != nil {
		return Result{}, fmt.Errorf("vodclient: set deadline: %w", err)
	}

	req := wire.Request{VideoID: opts.VideoID, FromSegment: opts.From, Version: wire.ProtoV2}
	if opts.NoReport {
		req.Flags |= wire.FlagNoReport
	}
	if opts.NoTrace {
		req.Flags |= wire.FlagNoTrace
	}
	if err := wire.WriteFrame(conn, req); err != nil {
		return Result{}, fmt.Errorf("vodclient: send request: %w", err)
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		return Result{}, fmt.Errorf("vodclient: read schedule: %w", err)
	}
	var info wire.ScheduleInfo
	switch m := msg.(type) {
	case wire.ScheduleInfo:
		info = m
	case wire.ErrorMsg:
		return Result{}, fmt.Errorf("vodclient: server rejected request: %s", m.Text)
	default:
		return Result{}, fmt.Errorf("vodclient: unexpected %T before schedule", msg)
	}
	if info.VideoID != opts.VideoID {
		return Result{}, fmt.Errorf("vodclient: schedule for video %d, requested %d", info.VideoID, opts.VideoID)
	}

	if opts.From > info.Segments {
		return Result{}, fmt.Errorf("vodclient: resume segment %d beyond %d", opts.From, info.Segments)
	}

	// Rebuild the 1-based period vector and arm the STB oracle, which both
	// validates the schedule and accounts the session's playback quality.
	periods := make([]int, info.Segments+1)
	for j := uint32(1); j <= info.Segments; j++ {
		periods[j] = int(info.Periods[j-1])
	}
	stb, err := client.NewFrom(int(info.AdmitSlot), periods, int(opts.From))
	if err != nil {
		return Result{}, fmt.Errorf("vodclient: %w", err)
	}

	res := Result{
		VideoID:    info.VideoID,
		Segments:   int(info.Segments),
		AdmitSlot:  info.AdmitSlot,
		TraceID:    info.TraceID,
		Dial:       dial,
		Periods:    periods,
		SlotMillis: int(info.SlotMillis),
	}
	var slotSegments []int
	for {
		msg, err := wire.ReadFrame(conn)
		if err != nil {
			return Result{}, fmt.Errorf("vodclient: read frame: %w", err)
		}
		switch m := msg.(type) {
		case wire.Segment:
			if m.VideoID != opts.VideoID {
				return Result{}, fmt.Errorf("vodclient: frame for video %d on a video-%d subscription", m.VideoID, opts.VideoID)
			}
			if res.FirstByte == 0 {
				res.FirstByte = time.Since(start)
			}
			if m.Segment < 1 || m.Segment > info.Segments {
				return Result{}, fmt.Errorf("vodclient: frame for unknown segment %d", m.Segment)
			}
			want := wire.SegmentPayload(m.VideoID, m.Segment, info.SizeOf(m.Segment))
			if !bytes.Equal(m.Payload, want) {
				return Result{}, fmt.Errorf("vodclient: corrupt payload for segment %d", m.Segment)
			}
			if stb.Received(int(m.Segment)) {
				res.SharedFrames++
			}
			res.PayloadBytes += int64(len(m.Payload))
			slotSegments = append(slotSegments, int(m.Segment))
		case wire.SlotEnd:
			err := stb.ObserveSlot(int(m.Slot), slotSegments)
			if err != nil && (opts.StrictDeadlines || !errors.Is(err, client.ErrMissedDeadline)) {
				return Result{}, fmt.Errorf("vodclient: %w", err)
			}
			slotSegments = slotSegments[:0]
			if int(m.Slot) < stb.LastSlot() {
				continue
			}
			if opts.StrictDeadlines && !stb.Complete() {
				return Result{}, fmt.Errorf("vodclient: stream ended with segments missing")
			}
			q := stb.QoE()
			res.MaxBuffered = q.MaxBuffered
			res.StartupSlots = q.StartupSlots
			res.DeadlineMisses = q.Misses
			res.Rebuffers = q.Rebuffers
			res.MissingSegments = q.Needed - q.Arrived
			res.MinSlackSlots = q.MinSlack
			res.MeanSlackSlots = q.MeanSlack()
			res.SessionSlots = q.SessionSlots
			res.Elapsed = time.Since(start)
			if !opts.NoReport {
				report := wire.ClientReport{
					Version:          wire.ProtoV2,
					VideoID:          info.VideoID,
					TraceID:          info.TraceID,
					SpanID:           info.SpanID,
					AdmitSlot:        info.AdmitSlot,
					FromSegment:      opts.From,
					SegmentsNeeded:   uint32(q.Needed),
					SegmentsReceived: uint32(q.Arrived),
					SharedFrames:     uint32(res.SharedFrames),
					StartupSlots:     uint32(q.StartupSlots),
					DeadlineMisses:   uint32(q.Misses),
					Rebuffers:        uint32(q.Rebuffers),
					MaxBuffered:      uint32(q.MaxBuffered),
					SessionSlots:     uint32(q.SessionSlots),
					MinSlackSlots:    int32(q.MinSlack),
					SumSlackSlots:    q.SumSlack,
					PayloadBytes:     uint64(res.PayloadBytes),
				}
				if err := wire.WriteFrame(conn, report); err != nil {
					return res, fmt.Errorf("vodclient: send report: %w", err)
				}
			}
			return res, nil
		case wire.ErrorMsg:
			return Result{}, fmt.Errorf("vodclient: server error: %s", m.Text)
		default:
			return Result{}, fmt.Errorf("vodclient: unexpected frame %T", msg)
		}
	}
}
