package video

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTwoHourMovie(t *testing.T) {
	v := TwoHourMovie()
	if v.Duration != 7200 {
		t.Fatalf("Duration = %v, want 7200", v.Duration)
	}
	if v.Rate != 1 {
		t.Fatalf("Rate = %v, want 1", v.Rate)
	}
	if v.Bytes() != 7200 {
		t.Fatalf("Bytes = %v, want 7200", v.Bytes())
	}
}

func TestSegment(t *testing.T) {
	seg, err := Segment(TwoHourMovie(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if seg.N != 99 {
		t.Fatalf("N = %d, want 99", seg.N)
	}
	// The paper: "no more than 73 seconds for a two-hour video".
	if seg.SlotDuration < 72 || seg.SlotDuration > 73 {
		t.Fatalf("SlotDuration = %v, want about 72.7", seg.SlotDuration)
	}
}

func TestSegmentErrors(t *testing.T) {
	if _, err := Segment(TwoHourMovie(), 0); err == nil {
		t.Fatal("zero segments should error")
	}
	if _, err := Segment(TwoHourMovie(), -5); err == nil {
		t.Fatal("negative segments should error")
	}
	if _, err := Segment(Video{Duration: 0, Rate: 1}, 10); err == nil {
		t.Fatal("zero duration should error")
	}
}

func TestSegmentForMaxWait(t *testing.T) {
	// The paper's Section 4 example: 8170 s video, one-minute wait -> 137
	// segments.
	matrix := Video{Duration: 8170, Rate: 636e3}
	seg, err := SegmentForMaxWait(matrix, 60)
	if err != nil {
		t.Fatal(err)
	}
	if seg.N != 137 {
		t.Fatalf("N = %d, want 137 (paper Section 4)", seg.N)
	}
	if seg.SlotDuration > 60 {
		t.Fatalf("SlotDuration = %v exceeds requested max wait", seg.SlotDuration)
	}
}

func TestSegmentForMaxWaitError(t *testing.T) {
	if _, err := SegmentForMaxWait(TwoHourMovie(), 0); err == nil {
		t.Fatal("zero max wait should error")
	}
}

func TestSegmentForMaxWaitProperty(t *testing.T) {
	f := func(dur, wait float64) bool {
		d := 60 + math.Mod(math.Abs(dur), 20000)
		w := 1 + math.Mod(math.Abs(wait), 600)
		seg, err := SegmentForMaxWait(Video{Duration: d, Rate: 1}, w)
		if err != nil {
			return false
		}
		// The wait guarantee holds and we never use more segments than
		// strictly necessary.
		if seg.SlotDuration > w+1e-9 {
			return false
		}
		if seg.N > 1 && d/float64(seg.N-1) <= w {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultPeriods(t *testing.T) {
	p := DefaultPeriods(5)
	want := []int{0, 1, 2, 3, 4, 5}
	if len(p) != len(want) {
		t.Fatalf("len = %d, want %d", len(p), len(want))
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("p[%d] = %d, want %d", i, p[i], want[i])
		}
	}
}

func TestValidatePeriods(t *testing.T) {
	tests := []struct {
		name    string
		periods []int
		n       int
		wantErr bool
	}{
		{name: "default", periods: DefaultPeriods(4), n: 4},
		{name: "stretched", periods: []int{0, 1, 3, 3, 9}, n: 4},
		{name: "wrong length", periods: []int{0, 1, 2}, n: 4, wantErr: true},
		{name: "T1 not 1", periods: []int{0, 2, 2, 3, 4}, n: 4, wantErr: true},
		{name: "zero period", periods: []int{0, 1, 0, 3, 4}, n: 4, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := ValidatePeriods(tt.periods, tt.n)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestLastDeadline(t *testing.T) {
	// A work-ahead vector need not be monotone: the suffix's largest
	// period, not its last one, ends the session.
	p := []int{0, 1, 4, 3, 5}
	for from, want := range map[int]int{1: 5, 2: 4, 3: 4, 4: 1} {
		if got := LastDeadline(p, from); got != want {
			t.Errorf("LastDeadline(from %d) = %d, want %d", from, got, want)
		}
	}
}
