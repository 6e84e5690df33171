// Command perfbench is the repository's benchmark: it drives one
// workload of campaign runs through an embedded coordinator over its
// public HTTP API, checks every output, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer breakdown of a traced run, whose spans are written
// as Chrome trace-event JSON. See README.md for the workloads, the
// metrics and how to read the trace.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cache-replay --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir, relative to the repository root, holds working directories,
// result records and span files. The benchmark writes nowhere else.
const outDir = ".bench_build/perfbench"

// commit is the git commit measured, set at link time by run.sh
// ("unknown" outside a git checkout).
var commit = "unknown"

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: fleet-fresh, cache-replay or xgc-scan")
	seed := flag.Int64("seed", 1, "workload seed; every job is derived from it")
	secs := flag.Int("seconds", 10, "measured drive time in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()

	if raceBuild {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to report numbers from a -race build")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	traced := *traceFlag == 1

	st := newStamp(w.name, *seed, *secs, traced)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *secs, *traceFlag)
	fmt.Printf("stamp: go=%s gomaxprocs=%d nproc=%d commit=%s source=%s\n",
		st.GoVersion, st.GOMAXPROCS, st.NumCPU, st.Commit, st.Source)

	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)
	res, err := bench(w, *seed, time.Duration(*secs)*time.Second, traced, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	for _, m := range res.Metrics {
		fmt.Printf("metric %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(res.Detail) {
		if t, ok := res.Detail[k].(tail); ok {
			fmt.Printf("tail %-34s %14.6g s (p%.3f of %d samples, %d beyond; not gated)\n",
				k, t.Value, t.Percentile, t.Samples, t.Beyond)
		}
	}
	fmt.Printf("journal: size_snapshots=%d sheds=%d errors=%d\n",
		res.Journal.SizeSnapshots, res.Journal.Sheds, res.Journal.Errors)
	for i, f := range res.Failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: … %d more failures\n", len(res.Failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	failRatio := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("fail_ratio %.6g (%d of %d attempted)\n", failRatio, res.Failed, res.Attempted)

	prefix := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traceFlag))
	if traced {
		if err := writeSpans(prefix+".spans.json", res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			return 1
		}
		fmt.Printf("spans: %s (%d spans; open in https://ui.perfetto.dev)\n", prefix+".spans.json", len(res.spans))
	}
	if err := writeJSONFile(prefix+".result.json", struct {
		Stamp stamp `json:"stamp"`
		*outcome
		FailRatio float64 `json:"fail_ratio"`
	}{st, res, failRatio}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result record:", err)
		return 1
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range res.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.Failed > 0 || res.Attempted == 0 {
		return 1
	}
	return 0
}

// stamp identifies what produced a result.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Race       bool   `json:"race"`
}

func newStamp(workload string, seed int64, secs int, traced bool) stamp {
	return stamp{
		Workload: workload, Seed: seed, Seconds: secs, Traced: traced,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit,
		Source:     sourceDigest("."),
		Race:       raceBuild,
	}
}

// sourceDigest hashes the module's Go sources and go.mod files under
// root, naming the code measured when no commit is recorded (a checkout
// that is not a git repository).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
