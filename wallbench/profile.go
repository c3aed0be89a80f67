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

// cpuSample is one CPU profile sample: its stack as function names, leaf
// first (inlined callees before their callers), and its sample count.
type cpuSample struct {
	stack []string
	count int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what role attribution needs. The standard library has
// no reader for it, so this walks the protobuf wire format directly.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		counts []uint64
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.counts = appendVarints(s.counts, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.counts) == 0 {
			continue
		}
		cs := cpuSample{count: int64(s.counts[0])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errProtoTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v carries a
// varint or fixed value, b a length-delimited payload.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProtoTruncated
		}
		msg = msg[n:]
		var (
			v uint64
			b []byte
		)
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProtoTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProtoTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProtoTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProtoTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field that may arrive unpacked (v)
// or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// Node roles a CPU sample can be charged to, in report order.
var roles = []string{"root", "splitter", "decoder", "transport", "gc", "display_hook", "other"}

// gcFrames mark samples spent collecting garbage, on the collector's own
// goroutines or as allocation assists on a node's stack.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime._GC",
}

// roleEntries maps the entry functions of the wall's node loops to roles.
// A stack is charged to the outermost entry it contains; the feeder's calls
// into Session do the root's scan and copy, so they count as root.
var roleEntries = []struct{ prefix, role string }{
	{"tiledwall/internal/service.(*Wall).runRoot", "root"},
	{"tiledwall/internal/service.(*Session).", "root"},
	{"tiledwall/internal/service.(*Wall).runSplitterSupervised", "splitter"},
	{"tiledwall/internal/splitter.", "splitter"},
	{"tiledwall/internal/service.(*Wall).runDecoderSupervised", "decoder"},
	{"tiledwall/internal/pdec.", "decoder"},
	{"tiledwall/internal/cluster.", "transport"},
}

// roleOf charges one stack: garbage collection first, then the display hook
// (which runs on a decoder's stack), then the outermost node-loop entry.
func roleOf(stack []string, hook string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "gc"
			}
		}
	}
	if contains(stack, hook) {
		return "display_hook"
	}
	for i := len(stack) - 1; i >= 0; i-- {
		for _, e := range roleEntries {
			if strings.HasPrefix(stack[i], e.prefix) {
				return e.role
			}
		}
	}
	return "other"
}

// Packages a sample's leaf frame is charged to.
var leafPackages = []struct{ pkg, name string }{
	{"tiledwall/internal/mpeg2", "mpeg2"},
	{"tiledwall/internal/bits", "bits"},
	{"tiledwall/internal/subpic", "subpic"},
	{"tiledwall/internal/cluster", "cluster"},
	{"tiledwall/internal/wall", "wall"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

// packageOf returns the import path of a function name such as
// "tiledwall/internal/mpeg2.(*Decoder).Next".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// leafOf names the tracked package of a stack's leaf frame, or "".
func leafOf(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	pkg := packageOf(stack[0])
	for _, l := range leafPackages {
		if pkg == l.pkg || strings.HasPrefix(pkg, l.pkg+"/") {
			return l.name
		}
	}
	return ""
}

// attribute returns each role's and each tracked leaf package's share of the
// wall's samples: those whose stack holds the function named skip (the
// serial decodes interleaved with a closed loop's sessions) are left out.
// Role shares sum to 1 whenever a sample remains.
func attribute(samples []cpuSample, hook, skip string) (roleShare, leafShare map[string]float64) {
	roleShare = map[string]float64{}
	leafShare = map[string]float64{}
	for _, r := range roles {
		roleShare[r] = 0
	}
	for _, l := range leafPackages {
		leafShare[l.name] = 0
	}
	var kept []cpuSample
	var total int64
	for _, s := range samples {
		if !contains(s.stack, skip) {
			kept = append(kept, s)
			total += s.count
		}
	}
	for _, s := range kept {
		w := float64(s.count) / float64(total)
		roleShare[roleOf(s.stack, hook)] += w
		if l := leafOf(s.stack); l != "" {
			leafShare[l] += w
		}
	}
	return roleShare, leafShare
}

func contains(stack []string, fn string) bool {
	for _, f := range stack {
		if f == fn {
			return true
		}
	}
	return false
}
