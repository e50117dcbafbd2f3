package station

import (
	"sync/atomic"
	"testing"

	"vodcast/internal/core"
)

const (
	benchVideos   = 64
	benchSegments = 100
)

func newBenchStation(b *testing.B) *Station {
	st, err := New(Config{Videos: testCatalogue(benchVideos, benchSegments)})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStationAdmit measures parallel admission throughput: goroutines
// admit across the catalogue round-robin, every admission contending for
// the one station lock.
func BenchmarkStationAdmit(b *testing.B) {
	st := newBenchStation(b)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := int(next.Add(1)) % benchVideos
		for pb.Next() {
			if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
				b.Error(err)
				return
			}
			v = (v + 1) % benchVideos
		}
	})
}

// BenchmarkStationMixed interleaves admissions with slot advances (one
// advance per 256 operations per goroutine), the realistic steady state of
// a clock-driven server under load.
func BenchmarkStationMixed(b *testing.B) {
	st := newBenchStation(b)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := int(next.Add(1)) % benchVideos
		n := 0
		for pb.Next() {
			if n++; n%256 == 0 {
				st.AdvanceSlot()
				continue
			}
			if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
				b.Error(err)
				return
			}
			v = (v + 1) % benchVideos
		}
	})
}
