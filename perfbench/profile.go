package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuModules are the modules CPU self time is attributed to, in report
// order; "other" collects the benchmark itself and standard-library code
// not called from a repository module.
var cpuModules = []string{"gateway", "overlay", "wire", "core", "persist", "namespace",
	"bloom", "sim", "cluster", "telemetry", "runtime", "syscall", "other"}

// publishFunc is the function whose cumulative share cpu.core.publish
// reports.
const publishFunc = "terradir/internal/core.(*Peer).PublishSnapshot"

// frameModule classifies one function name: a repository module, the Go
// runtime, a system call, or "" for other standard-library or benchmark
// code.
func frameModule(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "terradir/internal/"); ok {
		mod, _, _ := strings.Cut(rest, ".")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return ""
	}
	switch {
	case strings.HasPrefix(fn, "syscall."),
		strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "runtime/internal/syscall."),
		strings.HasPrefix(fn, "internal/poll."):
		return "syscall"
	case strings.HasPrefix(fn, "runtime."):
		switch strings.TrimPrefix(fn, "runtime.") {
		case "futex", "epollwait", "usleep", "nanosleep", "write1", "read", "madvise",
			"mmap", "munmap", "osyield", "sched_yield", "tgkill", "rtsigprocmask", "sysMmap":
			return "syscall"
		}
		return "runtime"
	}
	return ""
}

// attribute returns the module a sample's self time belongs to. frames run
// from the leaf outward. The leaf decides when it is classified; otherwise
// (standard-library helpers such as sort or hash code) the nearest calling
// frame that is classified takes the time, so a module is charged for the
// library work it asks for. Runtime and system-call leaves stay theirs.
func attribute(frames []string) string {
	for _, fn := range frames {
		if m := frameModule(fn); m != "" {
			return m
		}
	}
	return "other"
}

// cpuShares attributes profile samples to modules and returns each
// module's share of the samples, plus the cumulative share of samples with
// publishFunc on the stack.
func cpuShares(samples []profSample) map[string]float64 {
	out := map[string]float64{}
	for _, m := range cpuModules {
		out["cpu."+m] = 0
	}
	var total, publish int64
	for _, s := range samples {
		total += s.count
		out["cpu."+attribute(s.frames)] += float64(s.count)
		for _, fn := range s.frames {
			if fn == publishFunc {
				publish += s.count
				break
			}
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
		out["cpu.core.publish"] = float64(publish) / float64(total)
	} else {
		out["cpu.core.publish"] = 0
	}
	return out
}

// cpuProfile runs fn under the CPU profiler and returns the decoded
// samples.
func cpuProfile(fn func()) ([]profSample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return parseProfile(buf.Bytes())
}

// profSample is one decoded profile sample: its count and its stack as
// function names, leaf first (inlined frames included).
type profSample struct {
	count  int64
	frames []string
}

// parseProfile decodes a gzip-compressed pprof profile (the format
// runtime/pprof writes) into samples. It reads only what attribution needs:
// sample counts, location stacks, function names and the string table.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fieldErr  error
		eachField = func(buf []byte, fn func(field int, wire int, v uint64, b []byte)) error {
			for len(buf) > 0 {
				key, n := uvarint(buf)
				if n <= 0 {
					return fmt.Errorf("profile: bad key")
				}
				buf = buf[n:]
				field, wire := int(key>>3), int(key&7)
				switch wire {
				case 0:
					v, n := uvarint(buf)
					if n <= 0 {
						return fmt.Errorf("profile: bad varint")
					}
					buf = buf[n:]
					fn(field, wire, v, nil)
				case 2:
					l, n := uvarint(buf)
					if n <= 0 || uint64(len(buf)-n) < l {
						return fmt.Errorf("profile: bad length")
					}
					fn(field, wire, 0, buf[n:n+int(l)])
					buf = buf[n+int(l):]
				case 1:
					if len(buf) < 8 {
						return fmt.Errorf("profile: short fixed64")
					}
					buf = buf[8:]
				case 5:
					if len(buf) < 4 {
						return fmt.Errorf("profile: short fixed32")
					}
					buf = buf[4:]
				default:
					return fmt.Errorf("profile: wire type %d", wire)
				}
			}
			return nil
		}
	)
	// Repeated integer fields may be packed (wire type 2) or not.
	ints := func(wire int, v uint64, b []byte) []uint64 {
		if wire == 0 {
			return []uint64{v}
		}
		var out []uint64
		for len(b) > 0 {
			x, n := uvarint(b)
			if n <= 0 {
				fieldErr = fmt.Errorf("profile: bad packed varint")
				return out
			}
			out = append(out, x)
			b = b[n:]
		}
		return out
	}
	err = eachField(raw, func(field, wire int, v uint64, b []byte) {
		switch field {
		case 2: // sample
			var s rawSample
			first := true
			fieldErr = firstErr(fieldErr, eachField(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					s.locs = append(s.locs, ints(w, v, b)...)
				case 2:
					if vs := ints(w, v, b); first && len(vs) > 0 {
						s.count, first = int64(vs[0]), false
					}
				}
			}))
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			fieldErr = firstErr(fieldErr, eachField(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // line
					fieldErr = firstErr(fieldErr, eachField(b, func(f, w int, v uint64, _ []byte) {
						if f == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			fieldErr = firstErr(fieldErr, eachField(b, func(f, w int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
	})
	if err = firstErr(err, fieldErr); err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					ps.frames = append(ps.frames, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
