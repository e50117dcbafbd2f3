// Package video models the videos a VOD server distributes: their duration,
// consumption rate, and the equal-duration segmentation every broadcasting
// protocol in the paper relies on.
package video

import (
	"fmt"
	"math"
)

// Video describes one video to distribute. Rate is the consumption rate b.
// For the CBR experiments of the paper (Figures 7-8) Rate is normalized to 1,
// so bandwidths come out in "data streams"; for the VBR study (Figure 9) it
// carries bytes per second.
type Video struct {
	// Duration is the playback length in seconds.
	Duration float64
	// Rate is the consumption rate b in stream units or bytes per second.
	Rate float64
}

// TwoHourMovie is the reference video of the paper's CBR evaluation: a
// two-hour video with a normalized consumption rate of one stream unit.
func TwoHourMovie() Video {
	return Video{Duration: 2 * 3600, Rate: 1}
}

// Bytes reports the total size of the video, Duration x Rate.
func (v Video) Bytes() float64 { return v.Duration * v.Rate }

// Segmentation is a partition of a video into n segments of equal duration d.
// The segment duration is also the maximum waiting time of every slotted
// protocol in the paper.
type Segmentation struct {
	// N is the number of segments.
	N int
	// SlotDuration is the segment (and slot) duration d in seconds.
	SlotDuration float64
}

// Segment validates n and partitions the video into n equal segments.
func Segment(v Video, n int) (Segmentation, error) {
	if n <= 0 {
		return Segmentation{}, fmt.Errorf("video: segment count %d must be positive", n)
	}
	if v.Duration <= 0 {
		return Segmentation{}, fmt.Errorf("video: duration %v must be positive", v.Duration)
	}
	return Segmentation{N: n, SlotDuration: v.Duration / float64(n)}, nil
}

// SegmentForMaxWait partitions the video into the fewest equal segments that
// guarantee a maximum waiting time of at most maxWait seconds, as in the
// paper's "137 segments for a one-minute wait" example.
func SegmentForMaxWait(v Video, maxWait float64) (Segmentation, error) {
	if maxWait <= 0 {
		return Segmentation{}, fmt.Errorf("video: max wait %v must be positive", maxWait)
	}
	n := int(math.Ceil(v.Duration / maxWait))
	return Segment(v, n)
}

// DefaultPeriods returns the CBR maximum-period vector T with T[i] = i
// (1-based; index 0 is unused and set to 0): segment S_i may be delayed at
// most i slots after the slot in which its request arrived.
func DefaultPeriods(n int) []int {
	t := make([]int, n+1)
	for i := 1; i <= n; i++ {
		t[i] = i
	}
	return t
}

// ValidatePeriods checks that a period vector is usable by the DHB scheduler:
// len(T) == n+1, T[1] == 1, and 1 <= T[i] for every segment. Periods larger
// than i are legal (Section 4 derives them from work-ahead smoothing).
func ValidatePeriods(t []int, n int) error {
	if len(t) != n+1 {
		return fmt.Errorf("video: period vector has length %d, want %d", len(t), n+1)
	}
	if n >= 1 && t[1] != 1 {
		return fmt.Errorf("video: T[1] = %d, must be 1", t[1])
	}
	for i := 1; i <= n; i++ {
		if t[i] < 1 {
			return fmt.Errorf("video: T[%d] = %d, must be >= 1", i, t[i])
		}
	}
	return nil
}

// LastDeadline reports how many slots after its admission a customer who
// resumes at segment from (1 = the beginning) receives its final segment:
// the customer consumes the suffix from..n as a whole video, so its last
// deadline is the largest of T[1..n-from+1].
func LastDeadline(t []int, from int) int {
	last := 0
	for _, p := range t[1 : len(t)-from+1] {
		last = max(last, p)
	}
	return last
}
