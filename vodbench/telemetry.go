package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vodcast/internal/obs"
)

// scrape reads the registry families whose names start with prefix from the
// text exposition (the /metricsz surface) into a map keyed by the series
// name with its label set, e.g. `vod_dropped_subscribers_total{reason="stalled"}`.
// Histogram bucket lines keep their le label, so two scrapes subtract into a
// windowed histogram.
func scrape(reg *obs.Registry, prefix string) map[string]float64 {
	var buf bytes.Buffer
	_ = reg.WritePrometheusPrefix(&buf, prefix) // a bytes.Buffer write cannot fail
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// histQuantile reads quantile q of the histogram series base (name_bucket
// with the given labels, without le) from the difference of two scrapes,
// interpolating linearly inside the bucket as Prometheus histogram_quantile
// does. An observation in the +Inf bucket reads as the largest finite bound.
func histQuantile(before, after map[string]float64, name, labels string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	prefix += `le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.n == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return lo
}

// hist is a log-linear histogram of durations: exact below 128 ns, then
// 128 buckets per power of two (under 0.8% relative error), so a viewer
// records millions of latencies in a few kilobytes.
type hist struct {
	counts [histBuckets]int64
	n      int64
}

const histBuckets = 128 + 40*128 // up to 2^47 ns, about 39 hours

func histIndex(v time.Duration) int {
	if v < 128 {
		return max(int(v), 0)
	}
	e := bits.Len64(uint64(v)) - 8 // v>>e lies in [128, 256)
	return min(128+e*128+int(v>>e)-128, histBuckets-1)
}

func (h *hist) add(v time.Duration) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank quantile q, interpolated inside its bucket;
// 0 when empty.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := max(math.Ceil(q*float64(h.n)), 1)
	var below int64
	for i, c := range h.counts {
		if c == 0 || float64(below+c) < rank {
			below += c
			continue
		}
		lo, width := float64(i), 1.0
		if i >= 128 {
			e := (i - 128) / 128
			lo, width = float64((128+(i-128)%128)<<e), float64(int64(1)<<e)
		}
		return time.Duration(lo + width*(rank-float64(below)-0.5)/float64(c))
	}
	return 0
}

// ms reads a quantile in milliseconds.
func (h *hist) ms(q float64) float64 { return h.quantile(q).Seconds() * 1e3 }

// quantile is the nearest-rank quantile of an unsorted sample (0 when
// empty); it sorts the sample in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// ratio divides, reading 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMiB is the process's current resident set size.
func residentMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", raw)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / mib, nil
}

// cpuTicks is the machine's CPU time from /proc/stat: ticks stolen by the
// hypervisor and ticks in every state. Both read 0 where /proc is missing.
type cpuTicks struct{ steal, total float64 }

func readTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal [guest guest_nice],
	// where guest time is already counted in user and nice.
	for i, v := range f[1:9] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += x
		if i == 7 {
			t.steal = x
		}
	}
	return t
}

// runtimeSample is the Go runtime's cumulative allocation and CPU
// accounting at one instant.
type runtimeSample struct {
	allocs, gcCPU, totalCPU float64
}

var runtimeNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: val(0), gcCPU: val(1), totalCPU: val(2)}
}
