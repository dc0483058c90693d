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

// The CPU profile of the traced run is folded into the program's
// layers. Each sample is charged to one layer: GC work first, then the
// innermost frame in a repository package (or in encoding/json or the
// net stack), then the Go runtime; what is left is "other".

// repoLayers maps every library package of the repository to the layer
// it is reported under. Keys are import paths; a package missing here
// is charged to "other", and the package test fails until it is added.
var repoLayers = map[string]string{
	"nocstar":                      "system", // the public facade
	"nocstar/client":               "client",
	"nocstar/internal/cache":       "cache",
	"nocstar/internal/check":       "system",
	"nocstar/internal/cluster":     "cluster",
	"nocstar/internal/energy":      "metrics",
	"nocstar/internal/engine":      "engine",
	"nocstar/internal/experiments": "runner",
	"nocstar/internal/metrics":     "metrics",
	"nocstar/internal/noc":         "noc",
	"nocstar/internal/place":       "noc",
	"nocstar/internal/ptw":         "ptw",
	"nocstar/internal/runner":      "runner",
	"nocstar/internal/server":      "server",
	"nocstar/internal/sram":        "system",
	"nocstar/internal/stats":       "metrics",
	"nocstar/internal/store":       "store",
	"nocstar/internal/system":      "system",
	"nocstar/internal/tlb":         "tlb",
	"nocstar/internal/trace":       "workload",
	"nocstar/internal/vm":          "vm",
	"nocstar/internal/workload":    "workload",
	"main":                         "bench", // this benchmark's own code
}

// cpuLayers lists every layer a sample can be charged to, in report
// order.
var cpuLayers = []string{
	"tlb", "vm", "ptw", "cache", "workload", "engine", "noc", "metrics", "system",
	"runner", "server", "store", "cluster", "client", "json", "http",
	"gc", "runtime", "bench", "other",
}

// pkgOf returns the import path of a symbol name as pprof records it,
// e.g. "nocstar/internal/tlb.(*TLB).Lookup" -> "nocstar/internal/tlb".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// gcFrame reports whether a runtime frame does garbage-collection work:
// background marking, mark assists charged to an allocating goroutine,
// sweeping and scavenging.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.deductSweepCredit", "runtime.markroot"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOf charges one stack (innermost frame first) to a layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "gc"
		}
	}
	runtimeOnly := true
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if l, ok := repoLayers[pkg]; ok {
			return l
		}
		switch {
		case pkg == "encoding/json":
			return "json"
		case pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
			return "http"
		}
		// Symbols without a package are C code below the Go runtime,
		// such as the race detector's.
		cCode := !strings.Contains(fn, ".")
		if pkg != "runtime" && !strings.HasPrefix(pkg, "runtime/") && !strings.HasPrefix(pkg, "internal/") && !cCode {
			runtimeOnly = false
		}
	}
	if runtimeOnly && len(stack) > 0 {
		return "runtime"
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile and returns CPU
// seconds per layer.
func foldProfile(data []byte) (map[string]float64, error) {
	stacks, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range stacks {
		out[layerOf(s.frames)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// profSample is one decoded profile sample: its stack, innermost frame
// first, and its CPU time.
type profSample struct {
	frames []string
	nanos  int64
}

// decodeProfile reads the subset of the pprof protobuf format a CPU
// profile needs: samples, locations (with inlined lines), functions and
// the string table. The standard library writes this format but ships
// no reader.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function -> string index
		strs      []string
		valueIdx  = -1
		types     [][2]int64 // (type, unit) string indices per sample value
	)
	err = forFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := forFields(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					if p != nil {
						return forPacked(p, func(x uint64) { s.locs = append(s.locs, x) })
					}
					s.locs = append(s.locs, v)
				case 2:
					if p != nil {
						return forPacked(p, func(x uint64) { s.values = append(s.values, int64(x)) })
					}
					s.values = append(s.values, int64(v))
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forFields(p, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range types {
		if t[1] >= 0 && int(t[1]) < len(strs) && strs[t[1]] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample value")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: short sample")
		}
		ps := profSample{nanos: s.values[valueIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := ""
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					name = strs[idx]
				}
				ps.frames = append(ps.frames, name)
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// forFields walks the fields of one protobuf message. For varint fields
// fn gets the value and a nil slice; for length-delimited fields it gets
// the bytes. Fixed-width fields are skipped.
func forFields(b []byte, fn func(field int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			p := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, p); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// forPacked walks a packed repeated varint field.
func forPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
