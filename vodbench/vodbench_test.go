package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vodcast/internal/vodclient"
	"vodcast/internal/wire"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test holds the
// printed metrics to.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload for a second, untraced and traced, and
// checks that the run is correct and prints exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		sh, ok := shapes[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", wl.Name, traced), func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(runConfig{shape: sh, seed: 7, window: time.Second, traced: traced, setups: 2}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out.String(), "metric "+m.Name+" ") {
						t.Errorf("metric %s not printed by name", m.Name)
					}
				}
				if !strings.Contains(out.String(), "stamp commit=") {
					t.Error("no stamp line")
				}
				if traced {
					if !strings.Contains(out.String(), "confirm "+sh.name+":") {
						t.Error("no layer confirmation")
					}
					sum := 0.0
					for _, p := range pathNames {
						sum += res.Metrics["path."+p+".cpu_share"].Value
					}
					if res.Metrics["profile.samples"].Value > 0 && (sum < 0.999 || sum > 1.001) {
						t.Errorf("path CPU shares sum to %v", sum)
					}
				}
			})
		}
	}
}

// Small shapes keep the gate tests fast.
var (
	tinyZap   = shape{name: "zap", videos: 2, segments: 8, segBytes: 256, slot: 5 * time.Millisecond, warmup: 20}
	tinyWatch = shape{name: "bulk", videos: 1, segments: 4, segBytes: 4096, slot: 5 * time.Millisecond, watch: true, thinkSlots: 2, warmup: 2}
)

// frameProxy relays viewers to target, passing every server frame through
// mutate; the viewer-to-server direction is copied unchanged.
func frameProxy(t *testing.T, target string, mutate func(any) any) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				s, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer s.Close()
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, _ = io.Copy(s, c) // ends when either side closes
					s.Close()
				}()
				for {
					msg, err := wire.ReadFrame(s)
					if err != nil {
						return
					}
					if err := wire.WriteFrame(c, mutate(msg)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// retarget points a bench's viewers at addr instead of the server.
func retarget(t *testing.T, b *bench, addr string) {
	t.Helper()
	pool, err := vodclient.NewPool(addr, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	b.addr, b.pool = addr, pool
}

// TestGateCatchesTamperedOutputs shows that a corrupted payload byte and a
// wrong period each fail the sessions that received them.
func TestGateCatchesTamperedOutputs(t *testing.T) {
	cases := []struct {
		name   string
		shape  shape
		mutate func(any) any
		want   *regexp.Regexp
	}{
		{"payload", tinyWatch, func(m any) any {
			if seg, ok := m.(wire.Segment); ok {
				seg.Payload = append([]byte(nil), seg.Payload...)
				seg.Payload[len(seg.Payload)/2] ^= 0x5a
				return seg
			}
			return m
		}, regexp.MustCompile(`corrupt payload`)},
		{"zap-period", tinyZap, wrongPeriod, regexp.MustCompile(`period T\[8\] = 7, core says 8`)},
		// A shorter last period also ends the client's session early, so the
		// strict oracle may trip on the missing segment before the period
		// check runs.
		{"watch-period", tinyWatch, wrongPeriod, regexp.MustCompile(`period T\[4\] = 3|missing|deadline`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := start(tc.shape, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			retarget(t, b, frameProxy(t, b.addr, tc.mutate))
			st, _ := b.phase(false, func(done int) bool { return done < 3 })
			if st.n == 0 || st.ok != 0 {
				t.Fatalf("%d of %d sessions verified, want none", st.ok, st.n)
			}
			for _, f := range st.failures {
				if !tc.want.MatchString(f) {
					t.Errorf("session error %q does not match %q", f, tc.want)
				}
			}
		})
	}
}

// wrongPeriod shortens the last period of every schedule in transit; the
// vector stays a valid DHB period vector.
func wrongPeriod(m any) any {
	if info, ok := m.(wire.ScheduleInfo); ok {
		info.Periods = append([]uint32(nil), info.Periods...)
		info.Periods[len(info.Periods)-1]--
		return info
	}
	return m
}

// TestGateCatchesInstanceMismatch shows that the replay reproduces the
// server's transmitted instance count exactly, and that losing one video's
// admissions from the replay trips the gate.
func TestGateCatchesInstanceMismatch(t *testing.T) {
	b, err := start(tinyZap, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	st, _ := b.phase(false, func(done int) bool { return done < 100 })
	if st.ok != st.n {
		t.Fatalf("%d of %d sessions failed: %v", st.n-st.ok, st.n, st.failures)
	}
	gate, rs, err := b.verify(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gate) != 0 {
		t.Fatalf("healthy run failed the gate: %v", gate)
	}
	if rs.instances == 0 || rs.admissions != st.n {
		t.Fatalf("replayed %d admissions into %d instances, want %d admissions", rs.admissions, rs.instances, st.n)
	}
	for _, w := range b.workers {
		var kept admissionLog
		for _, c := range w.admissions.chunks {
			for _, a := range c {
				if a.video != 0 {
					kept.add(a)
				}
			}
		}
		w.admissions = kept
	}
	gate, _, err = b.verify(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gate) != 1 || !strings.Contains(gate[0], errInstanceMismatch.Error()) {
		t.Fatalf("gate %v, want one instance mismatch", gate)
	}
}

// TestHistQuantile holds the constant-memory histogram to the exact
// nearest-rank quantile within its bucket precision.
func TestHistQuantile(t *testing.T) {
	var h hist
	exact := make([]float64, 0, 100000)
	for v := time.Duration(1); v <= 100000; v++ {
		h.add(v * 37)
		exact = append(exact, float64(v*37))
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		got, want := float64(h.quantile(q)), quantile(exact, q)
		if math.Abs(got-want) > want/128 {
			t.Errorf("q%v = %v, want %v within 1/128", q, got, want)
		}
	}
	var small hist
	for _, v := range []time.Duration{3, 5, 7} {
		small.add(v)
	}
	if got := small.quantile(0.5); got != 5 {
		t.Errorf("median of {3,5,7} = %v, want 5", got)
	}
}
