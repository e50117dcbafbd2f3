package station

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"vodcast/internal/core"
	"vodcast/internal/obs"
)

func testCatalogue(k, segments int) []VideoConfig {
	videos := make([]VideoConfig, k)
	for i := range videos {
		videos[i] = VideoConfig{Segments: segments}
	}
	return videos
}

// TestNewSentinelErrors: every validation failure of New is classifiable
// with errors.Is, including per-video scheduler failures through the wrap
// chain.
func TestNewSentinelErrors(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		want error
	}{
		{"empty catalogue", Config{}, ErrEmptyCatalogue},
		{"bad video", Config{Videos: []VideoConfig{{Segments: -2}}}, core.ErrBadSegmentCount},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if !errors.Is(err, tt.want) {
				t.Fatalf("New err = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestAdmitValidation: unknown videos and bad resume points are rejected
// with sentinels and leave the engine untouched.
func TestAdmitValidation(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(2, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Admit(7, core.AdmitOptions{}); !errors.Is(err, ErrUnknownVideo) {
		t.Fatalf("admit unknown video: %v", err)
	}
	if _, err := st.Admit(-1, core.AdmitOptions{}); !errors.Is(err, ErrUnknownVideo) {
		t.Fatalf("admit negative video: %v", err)
	}
	if _, err := st.Admit(0, core.AdmitOptions{From: 99}); !errors.Is(err, core.ErrBadResumePoint) {
		t.Fatalf("admit bad resume: %v", err)
	}
	if req, inst := st.Totals(); req != 0 || inst != 0 {
		t.Fatalf("rejections mutated the engine: %d requests, %d instances", req, inst)
	}
}

// TestConcurrentEquivalence is the load-bearing correctness test of the
// engine: a station serving K videos with admissions issued from many
// goroutines at once, racing each other for the station lock, must produce, video for video and slot for slot,
// exactly the schedule K independent single-threaded schedulers produce for
// the same per-slot arrival counts. Within a slot all admissions for one
// video are identical operations, so the end state depends only on the
// counts, not the interleaving — which is why the comparison can be exact.
func TestConcurrentEquivalence(t *testing.T) {
	const (
		videos  = 7
		slots   = 60
		maxRate = 5 // max arrivals per video per slot
	)
	segs := []int{12, 30, 7, 24, 18, 9, 40}

	// Deterministic per-slot per-video arrival counts.
	rng := rand.New(rand.NewSource(42))
	arrivals := make([][]int, slots)
	for s := range arrivals {
		arrivals[s] = make([]int, videos)
		for v := range arrivals[s] {
			arrivals[s][v] = rng.Intn(maxRate + 1)
		}
	}

	// Reference: K independent single-threaded schedulers.
	refs := make([]*core.Scheduler, videos)
	for v := range refs {
		var err error
		refs[v], err = core.New(core.Config{Segments: segs[v]})
		if err != nil {
			t.Fatal(err)
		}
	}

	cat := make([]VideoConfig, videos)
	for v := range cat {
		cat[v] = VideoConfig{Segments: segs[v]}
	}
	st, err := New(Config{Videos: cat})
	if err != nil {
		t.Fatal(err)
	}

	for s := 0; s < slots; s++ {
		// Concurrent admissions: one goroutine per arrival, every one racing
		// the others for the station lock.
		var wg sync.WaitGroup
		for v := 0; v < videos; v++ {
			for a := 0; a < arrivals[s][v]; a++ {
				wg.Add(1)
				go func(v int) {
					defer wg.Done()
					if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
						t.Error(err)
					}
				}(v)
			}
		}
		wg.Wait()

		// Sequential reference admissions.
		for v := 0; v < videos; v++ {
			for a := 0; a < arrivals[s][v]; a++ {
				refs[v].AdmitRequest(core.AdmitOptions{})
			}
		}

		reports := st.AdvanceSlot()
		for v := 0; v < videos; v++ {
			want := refs[v].AdvanceSlot()
			if reports[v].Slot != want.Slot || reports[v].Load != want.Load {
				t.Fatalf("slot %d video %d: station %+v, reference %+v",
					s, v, reports[v], want)
			}
		}
	}
	for v := 0; v < videos; v++ {
		req, inst := st.VideoTotals(v)
		if req != refs[v].Requests() || inst != refs[v].Instances() {
			t.Fatalf("video %d: totals (%d,%d) diverged from reference (%d,%d)",
				v, req, inst, refs[v].Requests(), refs[v].Instances())
		}
	}
}

// TestStressAdmissionsRaceClock hammers a clock-driven station from many
// goroutines — full and resumed admissions, load probes, status snapshots —
// and checks the books balance afterwards. Run under -race this is the
// engine's data-race certification.
func TestStressAdmissionsRaceClock(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := New(Config{
		Videos:   testCatalogue(8, 25),
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	if err := st.StartClock(200*time.Microsecond, func(reports []core.SlotReport) {
		ticks++ // single clock goroutine; no lock needed
		if len(reports) != 8 {
			t.Errorf("tick delivered %d reports", len(reports))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.StartClock(time.Millisecond, nil); !errors.Is(err, ErrClockRunning) {
		t.Fatalf("second clock: %v", err)
	}

	const workers = 6
	var admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(50 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var loads []int
			localAdmitted := int64(0)
			for time.Now().Before(deadline) {
				v := rng.Intn(8)
				switch rng.Intn(3) {
				case 0:
					if _, err := st.Admit(v, core.AdmitOptions{From: 1 + rng.Intn(25)}); err == nil {
						localAdmitted++
					} else {
						t.Error(err)
						return
					}
				case 1:
					if _, err := st.Admit(v, core.AdmitOptions{WantAssignment: true}); err == nil {
						localAdmitted++
					} else {
						t.Error(err)
						return
					}
				default:
					loads = st.NextLoads(loads)
					_ = st.CurrentSlot(v)
					_ = st.Status()
				}
			}
			mu.Lock()
			admitted += localAdmitted
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	st.Close()
	if ticks == 0 {
		t.Fatal("clock never ticked")
	}
	if _, err := st.Admit(0, core.AdmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("admit after close: %v", err)
	}
	// Everything accepted was admitted exactly once.
	req, _ := st.Totals()
	if req != admitted {
		t.Fatalf("admitted %d requests, engine recorded %d", admitted, req)
	}
	// Every admission reached the admit stage histogram.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`station_stage_seconds_count{stage="admit"} %d`, admitted)
	if text := buf.String(); !strings.Contains(text, want) {
		t.Fatalf("admit stage histogram missing %q:\n%s", want, text)
	}
}

// TestCloseIdempotent: Close twice, and StopClock with no clock, are no-ops.
func TestCloseIdempotent(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	st.StopClock()
	st.Close()
	st.Close()
	if err := st.StartClock(time.Millisecond, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("clock on closed station: %v", err)
	}
	if err := st.StartClock(0, nil); !errors.Is(err, ErrBadSlotDuration) {
		t.Fatalf("zero interval: %v", err)
	}
}

// TestPeriodsResolved: Periods reports the CBR defaults when none were
// configured.
func TestPeriodsResolved(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	p := st.Periods(0)
	for j := 1; j <= 5; j++ {
		if p[j] != j {
			t.Fatalf("period[%d] = %d, want %d", j, p[j], j)
		}
	}
}

// TestAdmitScratchAssignment: WantAssignment without a caller buffer is
// served from the station scratch (no allocation in steady state, same
// backing array across admissions); a caller-supplied buffer bypasses the
// scratch.
func TestAdmitScratchAssignment(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := st.Admit(0, core.AdmitOptions{WantAssignment: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Admit(0, core.AdmitOptions{WantAssignment: true})
	if err != nil {
		t.Fatal(err)
	}
	if &a.Assignment[0] != &b.Assignment[0] {
		t.Fatal("scratch buffer was not reused across admissions")
	}
	own := make([]int, 11)
	c, err := st.Admit(0, core.AdmitOptions{Assignment: own})
	if err != nil {
		t.Fatal(err)
	}
	if &c.Assignment[0] != &own[0] {
		t.Fatal("caller-supplied buffer was not used")
	}
	if &c.Assignment[0] == &a.Assignment[0] {
		t.Fatal("caller-supplied admission leaked into the scratch")
	}
}

// TestStationSteadyStateZeroAlloc: the uninstrumented synchronous admit
// path and the reusable-buffer slot advance allocate nothing per operation
// in steady state.
func TestStationSteadyStateZeroAlloc(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(4, 50)})
	if err != nil {
		t.Fatal(err)
	}
	var reports []core.SlotReport
	for k := 0; k < 100; k++ { // steady state; also warms the scratch
		for v := 0; v < 4; v++ {
			if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Admit(v, core.AdmitOptions{WantAssignment: true}); err != nil {
				t.Fatal(err)
			}
		}
		reports = st.AdvanceSlotInto(reports)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		for v := 0; v < 4; v++ {
			if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Admit(v, core.AdmitOptions{WantAssignment: true}); err != nil {
				t.Fatal(err)
			}
		}
		reports = st.AdvanceSlotInto(reports)
	}); allocs != 0 {
		t.Fatalf("steady-state station path allocates %.1f/run, want 0", allocs)
	}
}

// TestAdvanceSlotIntoMatchesAdvanceSlot: the reusable-buffer variant
// produces the same reports and reslices correctly.
func TestAdvanceSlotIntoMatchesAdvanceSlot(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(3, 8)})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]core.SlotReport, 1) // undersized: must be grown
	dst = st.AdvanceSlotInto(dst)
	if len(dst) != 3 {
		t.Fatalf("reports length %d, want 3", len(dst))
	}
	for v := 0; v < 3; v++ {
		// Slot-0 admissions are served starting at slot 1, so the retired
		// slot 0 is empty.
		if dst[v].Slot != 0 || dst[v].Load != 0 {
			t.Fatalf("video %d retired %+v, want slot 0 load 0", v, dst[v])
		}
	}
	// Oversized buffers are resliced down and every entry overwritten; the
	// retired slot 1 carries each video's segment 1 (deadline T[1] = 1).
	big := make([]core.SlotReport, 10)
	for i := range big {
		big[i] = core.SlotReport{Slot: -99, Load: -99}
	}
	big = st.AdvanceSlotInto(big)
	if len(big) != 3 {
		t.Fatalf("reports length %d, want 3", len(big))
	}
	for v := 0; v < 3; v++ {
		if big[v].Slot != 1 || big[v].Load < 1 {
			t.Fatalf("video %d stale report %+v, want slot 1 with load >= 1", v, big[v])
		}
	}
}
