package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pbWriter encodes the protobuf wire format, for synthetic profiles.
type pbWriter struct{ bytes.Buffer }

func (w *pbWriter) uvarint(v uint64) { w.Write(binary.AppendUvarint(nil, v)) }

func (w *pbWriter) varintField(field int, v uint64) {
	w.uvarint(uint64(field)<<3 | 0)
	w.uvarint(v)
}

func (w *pbWriter) bytesField(field int, b []byte) {
	w.uvarint(uint64(field)<<3 | 2)
	w.uvarint(uint64(len(b)))
	w.Write(b)
}

func packed(vs ...uint64) []byte {
	var w pbWriter
	for _, v := range vs {
		w.uvarint(v)
	}
	return w.Bytes()
}

// synthProfile builds a gzipped profile.proto: each sample is a stack of
// function names (leaf first, each its own location) and a count.
// Locations with several names model inlining: one location whose lines
// run innermost first.
func synthProfile(t *testing.T, samples []struct {
	stack [][]string
	count uint64
}) []byte {
	t.Helper()
	var p pbWriter
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var locID uint64
	// sample_type: samples/count, cpu/nanoseconds (skipped by the parser).
	var vt pbWriter
	vt.varintField(1, str("samples"))
	vt.varintField(2, str("count"))
	p.bytesField(1, vt.Bytes())
	for _, s := range samples {
		var locs []uint64
		for _, loc := range s.stack {
			locID++
			var l pbWriter
			l.varintField(1, locID)
			l.varintField(3, 0x1000+locID) // address: skipped
			for _, fn := range loc {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f pbWriter
					f.varintField(1, id)
					f.varintField(2, str(fn))
					f.varintField(4, str("file.go"))
					p.bytesField(5, f.Bytes())
				}
				var line pbWriter
				line.varintField(1, id)
				line.varintField(2, 42)
				l.bytesField(4, line.Bytes())
			}
			p.bytesField(4, l.Bytes())
			locs = append(locs, locID)
		}
		var sm pbWriter
		sm.bytesField(1, packed(locs...))
		sm.bytesField(2, packed(s.count, s.count*10_000_000))
		p.bytesField(2, sm.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUSharesAttributeInnermostModule(t *testing.T) {
	raw := synthProfile(t, []struct {
		stack [][]string
		count uint64
	}{
		// fsim leaf under a core caller: fsim.
		{[][]string{{"dyflow/internal/fsim.(*FS).Glob"}, {"dyflow/internal/core/sensor.(*Client).pollOnce"}}, 40},
		// A core function inlined into an exp caller: the innermost line is
		// the leaf.
		{[][]string{{"dyflow/internal/core/decision.eval", "dyflow/internal/exp.run"}}, 10},
		{[][]string{{"dyflow/internal/sim.(*Sim).Step"}}, 10},
		{[][]string{{"encoding/json.(*decodeState).object"}, {"dyflow/internal/server.(*Server).QueryRuns"}}, 15},
		{[][]string{{"net/http.(*conn).serve"}}, 5},
		{[][]string{{"dyflow/internal/server/fleet.(*Worker).execute"}}, 3},
		{[][]string{{"dyflow/internal/server/events.(*Journal).Append"}}, 2},
		{[][]string{{"dyflow/internal/wms.(*Savanna).StartTask"}}, 2},
		// Runtime work under the collector is gc; other runtime work is not.
		{[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, 6},
		{[][]string{{"runtime.memmove"}, {"runtime.mallocgc"}, {"runtime.gcAssistAlloc"}}, 2},
		{[][]string{{"runtime.mallocgc"}, {"dyflow/internal/msg.(*Bus).Send"}}, 4},
		// Standard-library leaves count toward their innermost module
		// caller; with none on the stack they are other.
		{[][]string{{"path.Match"}, {"dyflow/internal/fsim.(*FS).Glob"}, {"dyflow/internal/core/sensor.(*Client).pollOnce"}}, 7},
		{[][]string{{"reflect.Value.Field"}, {"encoding/json.(*encodeState).reflectValue"}, {"dyflow/internal/server.(*Server).writeJSON"}}, 3},
		{[][]string{{"internal/runtime/syscall.Syscall6"}, {"syscall.Syscall"}, {"os.(*File).Write"}, {"dyflow/internal/ckpt.(*Store).Append"}}, 4},
		{[][]string{{"syscall.write"}, {"os.(*File).Write"}, {"dyflow/internal/runstore.(*Store).Append"}}, 2},
		{[][]string{{"sort.Strings"}}, 1},
	})
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := cpuShares(p)
	want := map[string]float64{
		"fsim": 47, "core": 10, "sim": 10, "json": 18, "net_http": 5, "fleet": 3,
		"events": 2, "substrate": 2, "runstore": 6, "gc": 8, "runtime_other": 4, "other": 1,
	}
	var total float64
	for _, v := range want {
		total += v
	}
	for _, m := range cpuModules {
		if math.Abs(got[m]-want[m]/total) > 1e-12 {
			t.Errorf("cpu.%s = %v, want %v", m, got[m], want[m]/total)
		}
	}
	if len(got) != len(cpuModules) {
		t.Errorf("%d modules reported, want %d", len(got), len(cpuModules))
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"dyflow/internal/fsim.(*FS).Glob":        "dyflow/internal/fsim",
		"net/http.(*conn).serve":                 "net/http",
		"runtime.mallocgc":                       "runtime",
		"encoding/json.Marshal":                  "encoding/json",
		"dyflow/internal/sim.(*Queue[...]).Get":  "dyflow/internal/sim",
		"dyflow/internal/exp.RunJob.func1":       "dyflow/internal/exp",
		"sync/atomic.(*Pointer[go.shape.int]).X": "sync/atomic",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	var p pbWriter
	p.bytesField(6, []byte("runtime.main"))
	raw := p.Bytes()
	if _, err := parseProfile(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
