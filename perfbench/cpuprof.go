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

// The CPU profile is runtime/pprof's gzipped profile.proto. Only the
// fields attribution needs are decoded: samples (location IDs, values),
// locations (their inlined line chain), functions (name) and the string
// table; every other field is skipped by wire type.

// profile is the decoded subset: each sample's stack of function names,
// leaf first, with its sample count.
type profile struct {
	stacks [][]string
	counts []int64
}

// pbReader walks protobuf wire-format fields.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errors.New("bad varint")
	}
	r.b = r.b[n:]
	return v, nil
}

// next returns the next field's number and wire type, with its varint
// value (wire type 0) or its bytes (wire type 2).
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return field, wire, v, data, err
}

// uints decodes a repeated uint64 field, packed or not.
func uints(wire int, v uint64, data []byte, dst []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	p := pbReader{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzipped (or raw) CPU profile.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location → function IDs, leaf first
		funcs   = map[uint64]uint64{}   // function → name string index
		strs    []string
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, _, data, err := r.next()
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		switch field {
		case 2: // Sample
			var s sample
			p := pbReader{data}
			for len(p.b) > 0 {
				f, w, v, d, err := p.next()
				if err != nil {
					return nil, fmt.Errorf("profile sample: %w", err)
				}
				switch f {
				case 1:
					s.locs, err = uints(w, v, d, s.locs)
				case 2:
					s.vals, err = uints(w, v, d, s.vals)
				}
				if err != nil {
					return nil, fmt.Errorf("profile sample: %w", err)
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			p := pbReader{data}
			for len(p.b) > 0 {
				f, _, v, d, err := p.next()
				if err != nil {
					return nil, fmt.Errorf("profile location: %w", err)
				}
				switch f {
				case 1:
					id = v
				case 4: // Line: the first is the innermost inlined frame
					lp := pbReader{d}
					for len(lp.b) > 0 {
						lf, _, lv, _, err := lp.next()
						if err != nil {
							return nil, fmt.Errorf("profile line: %w", err)
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			p := pbReader{data}
			for len(p.b) > 0 {
				f, _, v, _, err := p.next()
				if err != nil {
					return nil, fmt.Errorf("profile function: %w", err)
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := &profile{}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		if len(stack) == 0 || len(s.vals) == 0 {
			continue
		}
		out.stacks = append(out.stacks, stack)
		out.counts = append(out.counts, int64(s.vals[0]))
	}
	return out, nil
}

// funcPackage is the import path of a Go symbol name such as
// "dyflow/internal/fsim.(*FS).Glob" or "net/http.(*conn).serve".
func funcPackage(name string) string {
	head := name
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// cpuModules are the self-time buckets, in report order.
var cpuModules = []string{
	"fsim", "core", "sim", "msg", "stream", "substrate", "exp",
	"server", "runstore", "fleet", "events", "obs", "net_http", "json",
	"gc", "runtime_other", "other",
}

// moduleOf attributes a sample to a module. A sample under the
// collector is gc, and other runtime leaves are runtime_other. Otherwise
// the innermost frame that belongs to a named module owns the sample, so
// standard-library helpers (strings, sort, path, reflect, syscalls, the
// map implementation in internal/runtime/maps) count toward the module
// that called them; a stack with no such frame is other.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "gc"
		}
	}
	if funcPackage(stack[0]) == "runtime" {
		return "runtime_other"
	}
	for _, fn := range stack {
		if m := packageModule(funcPackage(fn)); m != "" {
			return m
		}
	}
	return "other"
}

// packageModule maps an import path to its module ("" for packages that
// belong to none, such as most of the standard library).
func packageModule(pkg string) string {
	const in = "dyflow/internal/"
	switch {
	case pkg == in+"fsim":
		return "fsim"
	case pkg == in+"core" || strings.HasPrefix(pkg, in+"core/"):
		return "core"
	case pkg == in+"sim":
		return "sim"
	case pkg == in+"msg":
		return "msg"
	case pkg == in+"stream":
		return "stream"
	case pkg == in+"task", pkg == in+"wms", pkg == in+"resmgr",
		pkg == in+"cluster", pkg == in+"db", pkg == in+"apps", pkg == in+"stats":
		return "substrate"
	case pkg == in+"exp":
		return "exp"
	case pkg == in+"server/fleet":
		return "fleet"
	case pkg == in+"server/events":
		return "events"
	case pkg == in+"server" || strings.HasPrefix(pkg, in+"server/"):
		return "server"
	case pkg == in+"runstore", pkg == in+"ckpt":
		return "runstore"
	case pkg == in+"obs", pkg == in+"trace":
		return "obs"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio" ||
		pkg == "mime" || strings.HasPrefix(pkg, "mime/") || pkg == "internal/poll":
		return "net_http"
	case pkg == "encoding/json":
		return "json"
	}
	return ""
}

// isGCFrame reports whether a frame belongs to the garbage collector:
// its mark workers, assists, sweepers and write barriers.
func isGCFrame(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "gcWriteBarrier") {
		return true
	}
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush",
		"runtime.wbBufFlush1", "runtime.bulkBarrierPreWrite", "runtime.scanstack":
		return true
	}
	return false
}

// cpuShares returns each module's share of the profile's samples.
func cpuShares(p *profile) map[string]float64 {
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		out[m] = 0
	}
	var total int64
	for i, st := range p.stacks {
		out[moduleOf(st)] += float64(p.counts[i])
		total += p.counts[i]
	}
	if total > 0 {
		for m := range out {
			out[m] /= float64(total)
		}
	}
	return out
}
