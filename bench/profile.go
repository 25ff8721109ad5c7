package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A small reader for the pprof profile format (gzipped protobuf,
// github.com/google/pprof/proto/profile.proto): just enough to list each
// sample's call stack by function name. It stands in for `go tool pprof
// -top` so the benchmark needs neither the tool nor a new dependency.

// stackSample is one profile sample: function names leaf first, and the
// sample's last value (CPU nanoseconds in a Go CPU profile).
type stackSample struct {
	frames []string
	value  int64
}

// pbField is one decoded protobuf field: varint fields carry num, length-
// delimited fields carry buf.
type pbField struct {
	tag  int
	wire int
	num  uint64
	buf  []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("profile: bad varint")
}

// pbFields walks one message, calling fn per field.
func pbFields(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.num, n, err = pbVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return fmt.Errorf("profile: short field")
			}
			f.buf, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field's values, packed or not.
func pbRepeated(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.num), nil
	}
	for b := f.buf; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes a pprof profile into stack samples.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		raw       []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost inlined first
		funcNames = map[uint64]uint64{}   // function id -> string table index
		strs      []string
	)
	err := pbFields(data, func(f pbField) error {
		switch f.tag {
		case 2: // sample
			var s rawSample
			err := pbFields(f.buf, func(g pbField) (err error) {
				switch g.tag {
				case 1:
					s.locs, err = pbRepeated(s.locs, g)
				case 2:
					s.values, err = pbRepeated(s.values, g)
				}
				return err
			})
			raw = append(raw, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.buf, func(g pbField) error {
				switch g.tag {
				case 1:
					id = g.num
				case 4: // line
					return pbFields(g.buf, func(h pbField) error {
						if h.tag == 1 {
							fns = append(fns, h.num)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(f.buf, func(g pbField) error {
				switch g.tag {
				case 1:
					id = g.num
				case 2:
					name = g.num
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(f.buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(raw))
	for _, s := range raw {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ss.frames = append(ss.frames, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// funcPackage returns the import path of a symbol such as
// "rocket/internal/sim.(*Env).Step" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profiledLayers are the repo packages that get a cpu_frac of their own.
var profiledLayers = map[string]bool{
	"sim": true, "core": true, "cache": true, "dht": true, "cluster": true, "gpu": true,
	"steal": true, "pairs": true, "trace": true, "obs": true, "sched": true, "jobspec": true,
	"serve": true, "pairstore": true, "fleet": true,
}

// layerOfPackage maps an import path to the layer a sample in it is
// charged to, or "" when the package is no layer (the standard library,
// the rocket facade): the sample is then charged to its nearest caller
// that is one.
func layerOfPackage(pkg string) string {
	switch {
	case pkg == "main" || pkg == "rocket/bench":
		return "loadgen"
	case strings.HasPrefix(pkg, "rocket/internal/"):
		name := strings.TrimPrefix(pkg, "rocket/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if profiledLayers[name] {
			return name
		}
		// Cost models and their random draws, called back from core.
		if name == "apps" || name == "experiments" || name == "model" || name == "stats" {
			return "apps"
		}
	}
	return ""
}

func isNetHTTPPackage(pkg string) bool {
	switch pkg {
	case "net/http", "net/http/internal", "net/textproto", "net", "net/url", "encoding/json",
		"bufio", "syscall", "internal/poll", "internal/runtime/syscall", "mime":
		return true
	}
	return false
}

// cpuBuckets is a CPU profile folded by layer. ByLayer partitions the
// samples: each is charged to the innermost frame that belongs to a
// layer, so a layer owns what it calls in the standard library and the
// Go runtime; samples with no such frame fall to "nethttp" (connection
// handling outside any handler) or "other" (background GC, scheduler).
// GC and Malloc are overlapping views: the share of samples with a
// garbage-collector or allocator frame anywhere on the stack.
type cpuBuckets struct {
	ByLayer map[string]float64
	GC      float64
	Malloc  float64
}

func bucketProfile(samples []stackSample) cpuBuckets {
	b := cpuBuckets{ByLayer: map[string]float64{}}
	var total float64
	for _, s := range samples {
		v := float64(s.value)
		total += v
		layer, sawHTTP, sawGC, sawMalloc := "", false, false, false
		for _, fn := range s.frames {
			pkg := funcPackage(fn)
			if layer == "" {
				layer = layerOfPackage(pkg)
			}
			if isNetHTTPPackage(pkg) {
				sawHTTP = true
			}
			if pkg == "runtime" {
				name := strings.TrimPrefix(fn, "runtime.")
				if strings.HasPrefix(name, "gc") || strings.HasPrefix(name, "bgsweep") || strings.HasPrefix(name, "bgscavenge") {
					sawGC = true
				}
				if strings.HasPrefix(name, "mallocgc") {
					sawMalloc = true
				}
			}
		}
		switch {
		case layer != "":
		case sawHTTP:
			layer = "nethttp"
		default:
			layer = "other"
		}
		b.ByLayer[layer] += v
		if sawGC {
			b.GC += v
		}
		if sawMalloc {
			b.Malloc += v
		}
	}
	if total > 0 {
		for k := range b.ByLayer {
			b.ByLayer[k] /= total
		}
		b.GC /= total
		b.Malloc /= total
	}
	return b
}
