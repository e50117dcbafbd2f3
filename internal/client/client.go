// Package client models the customer's set-top box (STB): it replays the
// transmissions of a slotted broadcasting protocol and checks, segment by
// segment, DHB's delivery promise — a customer admitted in slot i receives
// segment j by slot i + T[j]. It is the one implementation of that rule:
// the integration tests use it as the correctness oracle for the
// schedulers, and every networked vodclient session feeds it the slots it
// receives. Besides judging, it measures the session's playback quality
// (startup delay, slack to deadline, misses, rebuffers) and the buffer
// occupancy Section 2's STB-sizing discussion cares about.
package client

import (
	"errors"
	"fmt"

	"vodcast/internal/video"
)

// ErrMissedDeadline is wrapped by the error ObserveSlot returns when a
// segment was not received by its deadline. The slot is fully accounted
// before the error is returned, so a caller that tolerates misses can keep
// feeding slots; every other ObserveSlot error is fatal.
var ErrMissedDeadline = errors.New("client: missed deadline")

// QoE summarizes a session's playback quality, in slots measured against
// the delivery bound.
type QoE struct {
	// StartupSlots is the delay from arrival to the first needed segment;
	// a session whose first needed segment never arrived is charged its
	// whole length.
	StartupSlots int
	// Needed counts the segments the session had to receive and Arrived
	// those that did, late or not.
	Needed, Arrived int
	// MinSlack and SumSlack summarize slack to deadline over the arrived
	// segments (negative for a late one); MinSlack is 0 when none arrived.
	MinSlack int
	SumSlack int64
	// Misses counts segments not received by their deadline; Rebuffers
	// counts the playback stalls they caused (consecutive miss slots are
	// one stall).
	Misses, Rebuffers int
	// MaxBuffered is the largest number of segments held before
	// consumption.
	MaxBuffered int
	// SessionSlots is the number of slots observed since arrival.
	SessionSlots int
}

// MeanSlack reports the mean slack to deadline over the arrived segments.
func (q QoE) MeanSlack() float64 {
	if q.Arrived == 0 {
		return 0
	}
	return float64(q.SumSlack) / float64(q.Arrived)
}

// STB follows one customer's download. The customer requested the video
// during arrivalSlot; segment j must be fully received by the end of slot
// arrivalSlot + T[j] and is consumed during the following slot.
type STB struct {
	arrival  int
	from     int
	periods  []int
	received []bool
	// buffered tracks on-time segments received but not yet consumed.
	buffered int
	// fedSlot is the most recent slot observed, lastSlot the session's
	// final deadline slot.
	fedSlot, lastSlot int
	lastMissSlot      int
	qoe               QoE
}

// New returns an STB for a request that arrived during arrivalSlot, for a
// video whose 1-based maximum-period vector is periods (as in core.Config).
func New(arrivalSlot int, periods []int) (*STB, error) {
	return NewFrom(arrivalSlot, periods, 1)
}

// NewFrom returns an STB for an interactive customer resuming playback at
// segment from: it only expects segments from..n, and segment j's deadline
// shifts to arrivalSlot + periods[j-from+1] because the customer consumes
// the suffix as if it were the whole video.
func NewFrom(arrivalSlot int, periods []int, from int) (*STB, error) {
	n := len(periods) - 1
	if n < 1 {
		return nil, fmt.Errorf("client: empty period vector")
	}
	if err := video.ValidatePeriods(periods, n); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if arrivalSlot < 0 {
		return nil, fmt.Errorf("client: arrival slot %d must be non-negative", arrivalSlot)
	}
	if from < 1 || from > n {
		return nil, fmt.Errorf("client: resume segment %d outside 1..%d", from, n)
	}
	own := make([]int, len(periods))
	copy(own, periods)
	received := make([]bool, n+1)
	for j := 1; j < from; j++ {
		received[j] = true // already watched before the pause
	}
	return &STB{
		arrival:      arrivalSlot,
		from:         from,
		periods:      own,
		received:     received,
		fedSlot:      arrivalSlot,
		lastSlot:     arrivalSlot + video.LastDeadline(own, from),
		lastMissSlot: -2,
		qoe:          QoE{StartupSlots: -1, Needed: n - from + 1},
	}, nil
}

// N reports the video's segment count.
func (c *STB) N() int { return len(c.periods) - 1 }

// Deadline reports the last slot in which segment j may arrive; it is only
// meaningful for segments the customer still needs (j >= the resume point).
func (c *STB) Deadline(j int) int {
	if j < c.from {
		return -1 // already held; no deadline
	}
	return c.arrival + c.periods[j-c.from+1]
}

// LastSlot reports the session's final deadline slot: once it has been
// observed, nothing the customer needs is still due.
func (c *STB) LastSlot() int { return c.lastSlot }

// Received reports whether segment j has arrived.
func (c *STB) Received(j int) bool { return c.received[j] }

// Complete reports whether every segment has arrived.
func (c *STB) Complete() bool { return c.qoe.Arrived == c.qoe.Needed }

// QoE reports the session's playback quality over the slots observed so
// far.
func (c *STB) QoE() QoE {
	q := c.qoe
	q.SessionSlots = c.fedSlot - c.arrival
	if q.StartupSlots < 0 {
		q.StartupSlots = q.SessionSlots
	}
	return q
}

// ObserveSlot ingests the transmissions of one slot and then checks the
// deadlines that expire with it, so a segment arriving in its deadline slot
// is on time. Slots must be fed in increasing order, starting no earlier
// than the arrival slot; segments the customer already holds are ignored
// (the STB simply does not tune in again). A late segment is consumed on
// arrival and never enters the buffer.
func (c *STB) ObserveSlot(slot int, segments []int) error {
	if slot < c.fedSlot {
		return fmt.Errorf("client: slot %d fed after slot %d", slot, c.fedSlot)
	}
	c.fedSlot = slot
	q := &c.qoe
	for _, j := range segments {
		if j < 1 || j > c.N() {
			return fmt.Errorf("client: transmission of unknown segment %d", j)
		}
		if c.received[j] || slot <= c.arrival {
			// Already held, or sent before the customer could tune in: a
			// download starts in the slot after arrival.
			continue
		}
		c.received[j] = true
		slack := c.Deadline(j) - slot
		if q.Arrived == 0 || slack < q.MinSlack {
			q.MinSlack = slack
		}
		q.Arrived++
		q.SumSlack += int64(slack)
		if j == c.from && q.StartupSlots < 0 {
			q.StartupSlots = slot - c.arrival
		}
		if slack >= 0 {
			c.buffered++
			q.MaxBuffered = max(q.MaxBuffered, c.buffered)
		}
	}
	// Deadlines expiring at the end of this slot.
	var missed error
	for j := c.from; j <= c.N(); j++ {
		if c.Deadline(j) != slot {
			continue
		}
		if c.received[j] {
			// Consumed during the next slot; it leaves the buffer now.
			c.buffered--
			continue
		}
		q.Misses++
		if missed == nil {
			missed = fmt.Errorf("%w: segment %d due by slot %d (arrival %d, T=%d)",
				ErrMissedDeadline, j, slot, c.arrival, c.periods[j-c.from+1])
		}
	}
	if missed != nil {
		if slot != c.lastMissSlot+1 {
			q.Rebuffers++
		}
		c.lastMissSlot = slot
	}
	return missed
}
