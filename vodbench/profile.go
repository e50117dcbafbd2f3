package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stack is one CPU profile sample: its call stack as function names, leaf
// first, and the CPU nanoseconds it stands for.
type stack struct {
	funcs []string
	count int64
	nanos int64
}

var errProto = errors.New("malformed profile")

// protoFields walks the fields of one protobuf message, handing each to fn
// with its number, wire type, varint value (wire type 0) or bytes (wire
// type 2). Fixed-width fields are skipped.
func protoFields(b []byte, fn func(num int, typ int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, typ, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func varints(dst []uint64, typ int, v uint64, data []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped runtime/pprof CPU profile (profile.proto)
// into its samples. Only the fields the CPU shares need are read: sample
// locations and values, each location's inlined lines, function names and
// the string table.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		strs    []string
		locs    = map[uint64][]uint64{} // location id → function ids, innermost inline first
		funcs   = map[uint64]uint64{}   // function id → name string index
	)
	err = protoFields(raw, func(num, typ int, _ uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := protoFields(data, func(num, typ int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = varints(s.locs, typ, v, data)
				case 2:
					s.vals, err = varints(s.vals, typ, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := protoFields(data, func(num, typ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(data, func(num, typ int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fids
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(data, func(num, typ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		// Values are [samples/count, cpu/nanoseconds].
		st := stack{count: int64(s.vals[0]), nanos: int64(s.vals[len(s.vals)-1])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// pkgOf is the package path of a fully qualified function name, e.g.
// "vodcast/internal/station" for "vodcast/internal/station.(*Station).Admit".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// modules maps package paths to the layer names the per-layer metrics use;
// a CPU sample's self time goes to the layer of its leaf frame.
var modules = []struct{ name, pkg string }{
	{"vodserver", "vodcast/internal/vodserver"},
	{"station", "vodcast/internal/station"},
	{"core", "vodcast/internal/core"},
	{"slots", "vodcast/internal/slots"},
	{"fanout", "vodcast/internal/fanout"},
	{"wire", "vodcast/internal/wire"},
	{"vodclient", "vodcast/internal/vodclient"},
	{"client", "vodcast/internal/client"},
	{"conntrack", "vodcast/internal/conntrack"},
	{"history", "vodcast/internal/obs/history"},
	{"obs", "vodcast/internal/obs"},
	{"gen", "main"},
	{"gen", "vodcast/internal/workload"},
	{"gen", "vodcast/internal/sim"},
}

// moduleNames lists every self-CPU bucket, including the non-repository
// ones moduleOf falls back to.
var moduleNames = []string{"vodserver", "station", "core", "slots", "fanout", "wire", "vodclient",
	"client", "conntrack", "history", "obs", "gen", "runtime", "net", "stdlib"}

func moduleOf(fn string) string {
	pkg := pkgOf(fn)
	for _, m := range modules {
		if pkg == m.pkg {
			return m.name
		}
	}
	// System calls leave the runtime through internal/runtime/syscall; their
	// kernel time is the network stack's, not the scheduler's.
	switch {
	case pkg == "net" || pkg == "syscall" || pkg == "internal/poll" || pkg == "internal/runtime/syscall" ||
		strings.HasPrefix(pkg, "internal/syscall/"):
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "stdlib"
}

// paths attribute a sample's whole stack (inclusive time) to the serving
// path it ran on: the first rule whose function prefix appears anywhere in
// the stack wins. The order puts the narrower server paths before the
// connection handler that calls them.
var paths = []struct{ name, prefix string }{
	{"drain", "vodcast/internal/vodserver.(*Server).drainRing"},
	{"report", "vodcast/internal/vodserver.(*Server).readReport"},
	{"tick", "vodcast/internal/station.(*Station).StartClock"},
	{"tick", "vodcast/internal/station.(*Station).advanceParallel"},
	{"tick", "vodcast/internal/vodserver.(*Server).fanOut"},
	{"tick", "vodcast/internal/fanout.NewWorkers"},
	{"control", "vodcast/internal/vodserver.(*Server).handleConn"},
	{"control", "vodcast/internal/vodserver.(*Server).acceptLoop"},
	{"client", "vodcast/internal/vodclient."},
	{"gen", "main."},
	{"telemetry", "vodcast/internal/conntrack."},
	{"telemetry", "vodcast/internal/obs/history."},
	{"telemetry", "vodcast/internal/obs.(*AlertEngine)"},
	{"gc", "runtime.gcBgMarkWorker"},
	{"gc", "runtime.bgsweep"},
	{"gc", "runtime.bgscavenge"},
}

var pathNames = []string{"tick", "control", "drain", "report", "client", "gen", "telemetry", "gc", "other"}

func pathOf(funcs []string) string {
	for _, p := range paths {
		for _, f := range funcs {
			if strings.HasPrefix(f, p.prefix) {
				return p.name
			}
		}
	}
	return "other"
}

// cpuShares is a CPU profile folded into self time per layer and inclusive
// time per serving path, as shares of the profile's total.
type cpuShares struct {
	total   float64 // CPU seconds sampled
	samples int64
	module  map[string]float64
	path    map[string]float64
}

func foldProfile(stacks []stack) cpuShares {
	cs := cpuShares{module: map[string]float64{}, path: map[string]float64{}}
	var total int64
	for _, s := range stacks {
		total += s.nanos
		cs.samples += s.count
		if len(s.funcs) > 0 {
			cs.module[moduleOf(s.funcs[0])] += float64(s.nanos)
		}
		cs.path[pathOf(s.funcs)] += float64(s.nanos)
	}
	cs.total = float64(total) / 1e9
	for k, v := range cs.module {
		cs.module[k] = ratio(v, float64(total))
	}
	for k, v := range cs.path {
		cs.path[k] = ratio(v, float64(total))
	}
	return cs
}
